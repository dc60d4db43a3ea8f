//! The repository benchmark: runs one workload of the distributed
//! histogram sort in a closed loop with one client, checks every
//! output, and prints its metrics by name and unit. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```sh
//! perfbench --workload bulk_uniform --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with tracing
//! off. `--trace 1` is the separate traced run and reports the
//! per-layer metrics. `--smoke` runs one op at a reduced size (the
//! self-test). `GLOSSARY.md` defines every metric.

mod epoch;
mod inputs;
mod probe;
mod report;
mod trace;
mod world;

use std::hint::black_box;
use std::process::ExitCode;

use dhs_core::Kernels;
use dhs_runtime::{ClusterConfig, Comm};

use inputs::{particles, uniform_keys, Workload};
use probe::now_ns;
use report::Report;
use trace::Pipeline;
use world::WorldBench;

/// How long the measured loop runs.
pub struct Budget {
    seconds: f64,
    smoke: bool,
}

impl Budget {
    /// Whether to start another op: always at least one, exactly one
    /// in a smoke run, otherwise until the time is up.
    pub fn more(&self, done: usize, start_ns: u64) -> bool {
        if self.smoke {
            done < 1
        } else {
            done == 0 || ((now_ns() - start_ns) as f64) < self.seconds * 1e9
        }
    }
}

/// Host ns per public `allreduce_sum` call at the histogram width
/// (`p − 1` words) and per `barrier` call, timed between barriers on
/// a live world; returns this rank's `(allreduce_ns, barrier_ns)`.
/// Fewer repetitions at larger p keep the probe short.
pub fn collective_probe(comm: &Comm) -> (u64, u64) {
    let width = comm.size() - 1;
    let reps = (4096 / comm.size()).clamp(4, 64);
    comm.barrier();
    let t0 = now_ns();
    for _ in 0..reps {
        black_box(comm.allreduce_sum(vec![1; width]));
    }
    let t1 = now_ns();
    comm.barrier();
    let t2 = now_ns();
    for _ in 0..reps {
        comm.barrier();
    }
    let t3 = now_ns();
    ((t1 - t0) / reps as u64, (t3 - t2) / reps as u64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Host times of a plain single-threaded `sort_unstable` of one op's
/// keys, three times, after the measured loop: the host calibration
/// printed with every run.
fn seq_sort_ns(keys: &[u64]) -> Vec<u64> {
    (0..3)
        .map(|_| {
            let mut v = keys.to_vec();
            let t0 = now_ns();
            v.sort_unstable();
            black_box(&v);
            now_ns() - t0
        })
        .collect()
}

fn run_world<T: Pipeline>(
    p: usize,
    setups: usize,
    gen: impl Fn(usize) -> Vec<T>,
    a: &Args,
    budget: &Budget,
) -> Report {
    let mut rep = Report::default();
    let bench = WorldBench::setup(p, setups, gen, &mut rep);
    if a.trace {
        bench.measure_traced(budget, &mut rep);
    } else {
        bench.measure(budget, &mut rep);
    }
    rep
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    now_ns();
    let steal0 = probe::cpu_steal_ticks();
    let (p, n) = a.workload.shape(a.smoke);
    let setups = if a.smoke { 1 } else { 5 };
    let budget = Budget {
        seconds: a.seconds,
        smoke: a.smoke,
    };
    let seed = a.seed;
    let mut rep = match a.workload {
        Workload::BulkUniform | Workload::LargepWeak => {
            run_world(p, setups, |r| uniform_keys(p, n, r, seed), &a, &budget)
        }
        Workload::RecordsClustered => run_world(p, setups, |r| particles(n, r, seed), &a, &budget),
        Workload::EpochDrift => {
            let mut rep = Report::default();
            epoch::run(p, n, seed, setups, &budget, a.trace, &mut rep);
            rep
        }
    };

    if rep.ops.is_empty() {
        // A world that failed before its first op still counts one
        // attempted, failed op.
        rep.ops.push(report::OpSample::default());
    }
    // Read the peak before the calibration sort allocates its copies.
    let peak_rss_mb = probe::peak_rss_mb();
    rep.seq_sort_ns = seq_sort_ns(&a.workload.op_keys(p, n, seed));
    let steal1 = probe::cpu_steal_ticks();
    let steal_frac = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = format!("{:?}", ClusterConfig::supermuc_phase2(1).engine);
    println!(
        "# perfbench workload={} p={p} n_per_rank={n} seed={seed} trace={} ops={}",
        a.workload.name(),
        u8::from(a.trace),
        rep.ops.len()
    );
    let seq_sort_ms: Vec<f64> = rep.seq_sort_ns.iter().map(|&x| x as f64 * 1e-6).collect();
    let seq_sort_ms = report::median(&seq_sort_ms);
    println!(
        "# host {{\"nproc\": {nproc}, \"kernel_backend\": \"{}\", \"engine\": \"{engine}\", \"baseline.seq_sort_ms\": {seq_sort_ms:.4}, \"steal_frac\": {steal_frac:.4}}}",
        Kernels::auto().backend_name(),
    );
    let op_ms: Vec<String> = rep
        .ops
        .iter()
        .map(|o| format!("{:.1}", o.wall_ns as f64 * 1e-6))
        .collect();
    println!("# op_ms {}", op_ms.join(" "));
    let metrics = if a.trace {
        rep.per_layer(nproc)
    } else {
        rep.end_to_end(peak_rss_mb)
    };
    let failed = rep.failed();
    let attempted = rep.ops.len();
    for (name, value, unit) in &metrics.0 {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    if let Some(p90) = rep.op_ms_p90().filter(|_| !a.trace) {
        println!("{:<28} {p90:>16.4} ms ({attempted} ops)", "op_ms_p90");
    }
    println!(
        "{:<28} {:>16.4} ratio ({failed} of {attempted} ops)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    if a.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", a.workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::spans_jsonl(&rep.spans)));
        match written {
            Ok(()) => println!("# spans: {} written to {}", rep.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    let correct = failed == 0 && rep.setup_ok && (!a.trace || rep.output_match);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
