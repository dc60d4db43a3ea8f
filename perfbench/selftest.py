#!/usr/bin/env python3
"""Self-test of the benchmark: every workload for one op at reduced size.

Usage (from the repository root):

    python3 perfbench/selftest.py

Builds the benchmark, runs each workload of BENCHMARK.json (and the
ungated largep_weak) once with `--trace 0` and once with `--trace 1`
under `--smoke`, and fails if a run does not end with a result line, if
the result is not correct, if any op failed (failed_frac != 0), if any
metric BENCHMARK.json names is missing, has no unit, or has a unit
other than the one declared, or if a metric it does not name appears.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step lives next to this file)


def check(exe, workload, trace, declared):
    """Run one smoke op; return a list of problems."""
    cmd = [exe, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}, no result"]
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return [f"{where}: last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True:
        problems.append(f"{where}: correct is {res.get('correct')}")
    if res.get("failed") != 0 or not res.get("attempted"):
        problems.append(f"{where}: failed_frac != 0 "
                        f"({res.get('failed')} of {res.get('attempted')})")
    metrics = res.get("metrics", {})
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif not got.get("unit"):
            problems.append(f"{where}: metric {m['name']} has no unit")
        elif got["unit"] != m["unit"]:
            problems.append(f"{where}: metric {m['name']} unit {got['unit']} "
                            f"!= declared {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{where}: metric {m['name']} value {got.get('value')}")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = run.build()
    if exe is None:
        return 1
    # largep_weak is runnable by hand but not in the gated set (see
    # GLOSSARY.md); it must still produce every metric.
    names = [wl["name"] for wl in spec["workloads"]]
    names += [w for w in ("largep_weak",) if w not in names]
    problems = []
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = check(exe, name, trace, spec[key])
            status = "ok" if not found else "FAIL"
            print(f"{name:<20} trace={trace} {status}")
            problems += found
    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
