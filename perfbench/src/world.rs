//! World workloads (`bulk_uniform`, `largep_weak`,
//! `records_clustered`): one op is one `try_run` world, from the call
//! to its return, launch and teardown included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dhs_core::{verify_sorted, SortConfig, SortOutcome, SortStats};
use dhs_runtime::{try_run, ClusterConfig, PoolStats, RankReport};

use crate::inputs::Fingerprint;
use crate::probe::{now_ns, process_cpu_ns};
use crate::report::{Counts, OpSample, Report};
use crate::trace::{spans_of, Mark, Pipeline};
use crate::{collective_probe, Budget};

/// What one rank hands back from an op world.
struct RankOut<T> {
    local: Vec<T>,
    stats: Option<SortStats>,
    pool: PoolStats,
    marks: Vec<Mark>,
}

/// One finished op world.
struct Op<T> {
    outputs: Vec<Vec<T>>,
    reports: Vec<RankReport>,
    stats: Vec<SortStats>,
    marks: Vec<Vec<Mark>>,
    pools: Vec<PoolStats>,
    wall_ns: u64,
    cpu_ns: u64,
    launch_ns: u64,
    teardown_ns: u64,
}

impl<T> Op<T> {
    fn virt_ns(&self) -> u64 {
        self.reports.iter().map(|r| r.clock_ns).max().unwrap_or(0)
    }

    fn sample(&self, verdict: &Verdict) -> OpSample {
        OpSample {
            wall_ns: self.wall_ns,
            cpu_ns: self.cpu_ns,
            virt_ns: self.virt_ns(),
            ok: self.exact() && verdict.ok,
        }
    }

    /// Every rank's outcome is `Exact` (traced ops carry no outcome).
    fn exact(&self) -> bool {
        self.stats.iter().all(|s| s.outcome == SortOutcome::Exact)
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        if let Some(s) = self.stats.first() {
            c.rounds = u64::from(s.iterations);
            c.probes = s.probes;
        }
        for (r, pool) in self.reports.iter().zip(&self.pools) {
            c.add_rank(&r.counters, *pool);
        }
        c
    }
}

/// Verdict of the correctness oracle on one op's outputs.
struct Verdict {
    ok: bool,
    verify_ns: u64,
    collectives_ns: Option<(u64, u64)>,
}

/// A world workload: its cluster, config, inputs and their fingerprint.
pub struct WorldBench<T> {
    cluster: ClusterConfig,
    cfg: SortConfig,
    inputs: Vec<Vec<T>>,
    fp: Fingerprint,
}

impl<T: Pipeline> WorldBench<T> {
    /// Run `setups` set-up rounds (generate inputs, fingerprint them,
    /// one verified warm-up op), each timed, and keep the last inputs.
    pub fn setup(p: usize, setups: usize, gen: impl Fn(usize) -> Vec<T>, rep: &mut Report) -> Self {
        let mut bench = None;
        rep.setup_ok = true;
        for _ in 0..setups {
            let t0 = now_ns();
            let inputs: Vec<Vec<T>> = (0..p).map(&gen).collect();
            rep.gen_ns.push(now_ns() - t0);
            let fp = Fingerprint::of_ranks(&inputs);
            let b = WorldBench {
                cluster: ClusterConfig::supermuc_phase2(p),
                cfg: SortConfig::default(),
                inputs,
                fp,
            };
            let warm_ok = match b.op(false) {
                Ok(op) => op.exact() && b.verify(&op.outputs, false).ok,
                Err(_) => false,
            };
            rep.setup_ok &= warm_ok;
            rep.setup_ns.push(now_ns() - t0);
            bench = Some(b);
        }
        rep.items_per_op = p as u64 * bench.as_ref().map_or(0, |b| b.inputs[0].len() as u64);
        rep.splitters = p as u64 - 1;
        bench.expect("at least one set-up round")
    }

    /// Launch one world over a fresh copy of the inputs and sort it:
    /// with the library call, or with the recomposed pipeline when
    /// `traced`. The copy is made before the clock starts.
    fn op(&self, traced: bool) -> Result<Op<T>, String> {
        let p = self.inputs.len();
        let slots: Vec<Mutex<Vec<T>>> = self.inputs.iter().cloned().map(Mutex::new).collect();
        let entered: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
        let exited: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
        let cfg = &self.cfg;
        let cpu0 = process_cpu_ns();
        let t0 = now_ns();
        let res = try_run(&self.cluster, |comm| {
            let r = comm.rank();
            entered[r].store(now_ns(), Ordering::Relaxed);
            let mut local = std::mem::take(&mut *slots[r].lock().expect("slot lock"));
            let mut marks = Vec::new();
            let stats = if traced {
                T::traced(comm, &mut local, cfg, &[], &mut marks);
                None
            } else {
                Some(T::sort(comm, &mut local, cfg))
            };
            let pool = comm.pool().stats();
            exited[r].store(now_ns(), Ordering::Relaxed);
            RankOut {
                local,
                stats,
                pool,
                marks,
            }
        });
        let t1 = now_ns();
        let cpu1 = process_cpu_ns();
        let ranks = res.map_err(|e| e.to_string())?;
        let last = |xs: &[AtomicU64]| {
            xs.iter()
                .map(|x| x.load(Ordering::Relaxed))
                .max()
                .unwrap_or(t0)
        };
        let mut op = Op {
            outputs: Vec::with_capacity(p),
            reports: Vec::with_capacity(p),
            stats: Vec::new(),
            marks: Vec::new(),
            pools: Vec::with_capacity(p),
            wall_ns: t1 - t0,
            cpu_ns: cpu1.saturating_sub(cpu0),
            launch_ns: last(&entered) - t0,
            teardown_ns: t1 - last(&exited),
        };
        for (out, report) in ranks {
            op.outputs.push(out.local);
            op.reports.push(report);
            op.stats.extend(out.stats);
            op.marks.push(out.marks);
            op.pools.push(out.pool);
        }
        Ok(op)
    }

    /// The correctness oracle, in a world of its own after the op:
    /// `verify_sorted` on the key view, the whole-item fingerprint, and
    /// the ε = 0 perfect-partition count on every rank. With
    /// `probe`, the live world also times the collectives.
    fn verify(&self, outputs: &[Vec<T>], probe: bool) -> Verdict {
        let fp = self.fp;
        let res = try_run(&self.cluster, |comm| {
            let out = &outputs[comm.rank()];
            let keys = T::key_view(out);
            let t0 = now_ns();
            let violation = verify_sorted(comm, &keys, fp.keys, fp.count);
            let verify_ns = now_ns() - t0;
            let probe = probe.then(|| collective_probe(comm));
            (violation.is_none(), verify_ns, Fingerprint::of(out), probe)
        });
        let Ok(ranks) = res else {
            return Verdict {
                ok: false,
                verify_ns: 0,
                collectives_ns: None,
            };
        };
        let counts_ok = outputs
            .iter()
            .zip(&self.inputs)
            .all(|(o, i)| o.len() == i.len());
        let items = ranks
            .iter()
            .fold(Fingerprint::default(), |acc, ((_, _, f, _), _)| {
                acc.combine(*f)
            });
        let slowest = |f: fn(&(u64, u64)) -> u64| {
            ranks
                .iter()
                .filter_map(|((_, _, _, probe), _)| probe.as_ref().map(f))
                .max()
        };
        Verdict {
            ok: counts_ok && items == fp && ranks.iter().all(|((ok, ..), _)| *ok),
            verify_ns: ranks.iter().map(|((_, v, ..), _)| *v).max().unwrap_or(0),
            collectives_ns: slowest(|x| x.0).zip(slowest(|x| x.1)),
        }
    }

    /// The measured closed loop with tracing off: op, then its check.
    pub fn measure(&self, budget: &Budget, rep: &mut Report) {
        let start = now_ns();
        while budget.more(rep.ops.len(), start) {
            let sample = match self.op(false) {
                Ok(op) => op.sample(&self.verify(&op.outputs, false)),
                Err(e) => {
                    eprintln!("op failed: {e}");
                    OpSample::default()
                }
            };
            rep.ops.push(sample);
        }
    }

    /// The traced loop: each round runs the library op, checks it and
    /// times the collectives in the checking world, then runs the
    /// recomposed pipeline on the same input and compares its output
    /// byte for byte.
    pub fn measure_traced(&self, budget: &Budget, rep: &mut Report) {
        rep.output_match = true;
        rep.virtual_match = true;
        let start = now_ns();
        while budget.more(rep.ops.len(), start) {
            let (Ok(a), Ok(b)) = (self.op(false), self.op(true)) else {
                rep.ops.push(OpSample::default());
                rep.output_match = false;
                continue;
            };
            let v = self.verify(&a.outputs, true);
            rep.ops.push(a.sample(&v));
            rep.counts.push(a.counts());
            rep.verify_ns.push(v.verify_ns);
            if let Some((ar, ba)) = v.collectives_ns {
                rep.allreduce_ns.push(ar);
                rep.barrier_ns.push(ba);
            }
            rep.launch_ns.push(a.launch_ns);
            rep.teardown_ns.push(a.teardown_ns);
            rep.output_match &= a.outputs == b.outputs;
            rep.virtual_match &= a.virt_ns() == b.virt_ns();
            rep.traced_wall_ns.push(b.wall_ns);
            rep.spans.extend(spans_of(rep.traced_ops, &b.marks));
            rep.traced_ops += 1;
        }
    }
}
