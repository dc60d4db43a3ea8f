#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk_uniform --seed 1 --seconds 10 --trace 0

Every argument is passed to the `perfbench` binary; its last line of
standard output is the JSON result. Cargo's own output goes to standard
error. The build honours CARGO_TARGET_DIR. Exits non-zero, without a
result, when the build fails or the run does not finish in time.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Build the release binary; return its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=BUILD_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    print("perfbench: build produced no binary", file=sys.stderr)
    return None


def main():
    exe = build()
    if exe is None:
        return 1
    try:
        proc = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
