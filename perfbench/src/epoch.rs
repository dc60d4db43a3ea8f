//! `epoch_drift`: one live world sorting a drifting stream. An op is
//! one `EpochSorter::sort_epoch`, timed from the barrier release to the
//! last rank returning.

use std::sync::atomic::{AtomicU64, Ordering};

use dhs_core::{
    global_fingerprint, verify_sorted, EpochSorter, SortConfig, SortOutcome, WarmStart,
};
use dhs_runtime::{try_run, ClusterConfig, Comm, CounterSnapshot, PoolStats};

use crate::inputs::epoch_keys;
use crate::probe::{now_ns, thread_cpu_ns};
use crate::report::{counter_delta, Counts, OpSample, Report};
use crate::trace::{spans_of, Mark, Pipeline};
use crate::{collective_probe, Budget};

/// One rank's record of one epoch, gathered to rank 0.
#[derive(Debug, Clone)]
struct EpochRank {
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
    virt_ns: u64,
    ok: bool,
    gen_ns: u64,
    verify_ns: u64,
    rounds: u32,
    probes: u64,
    counters: CounterSnapshot,
    pool: PoolStats,
    probe: Option<(u64, u64)>,
    traced: Option<TracedEpoch>,
}

#[derive(Debug, Clone)]
struct TracedEpoch {
    start_ns: u64,
    end_ns: u64,
    marks: Vec<Mark>,
    output_match: bool,
    virtual_match: bool,
}

/// Sort epoch `epoch` on the live world, check it, and (traced) time
/// the collectives and re-sort the same batch with the recomposed
/// pipeline. Input generation and fingerprints happen before the
/// barrier that starts the op.
fn one_epoch(
    comm: &Comm,
    svc: &mut EpochSorter<'_, u64>,
    (p, n, seed, epoch): (usize, usize, u64, u64),
    traced: bool,
) -> EpochRank {
    let g0 = now_ns();
    let input = epoch_keys(p, n, comm.rank(), seed, epoch);
    let gen_ns = now_ns() - g0;
    let (fp, count) = global_fingerprint(comm, &input);
    let mut batch = input.clone();
    let warm: Vec<u64> = match svc.config().warm_start {
        WarmStart::Cold => Vec::new(),
        _ => svc.warm_splitters().to_vec(),
    };
    let before = comm.report().counters;
    comm.barrier();
    let start_ns = now_ns();
    let c0 = thread_cpu_ns();
    let es = svc.sort_epoch(&mut batch);
    let cpu_ns = thread_cpu_ns().saturating_sub(c0);
    let end_ns = now_ns();
    let counters = counter_delta(&before, &comm.report().counters);
    let v0 = now_ns();
    let violation = verify_sorted(comm, &batch, fp, count);
    let verify_ns = now_ns() - v0;
    let ok =
        violation.is_none() && batch.len() == input.len() && es.sort.outcome == SortOutcome::Exact;
    let probe = traced.then(|| collective_probe(comm));
    let traced = traced.then(|| {
        let mut again = input;
        let mut marks = Vec::new();
        comm.barrier();
        let start_ns = now_ns();
        u64::traced(comm, &mut again, svc.config(), &warm, &mut marks);
        let end_ns = now_ns();
        let virt = marks.last().map_or(0, |m| m.virt_ns) - marks.first().map_or(0, |m| m.virt_ns);
        TracedEpoch {
            start_ns,
            end_ns,
            output_match: again == batch,
            virtual_match: virt == es.makespan_ns,
            marks,
        }
    });
    EpochRank {
        start_ns,
        end_ns,
        cpu_ns,
        virt_ns: es.makespan_ns,
        ok,
        gen_ns,
        verify_ns,
        rounds: es.rounds,
        probes: es.probes,
        counters,
        pool: es.pool,
        probe,
        traced,
    }
}

/// Fold one epoch's per-rank records into the report (rank 0 only).
fn record(ranks: &[EpochRank], rep: &mut Report) {
    let min = |f: fn(&EpochRank) -> u64| ranks.iter().map(f).min().unwrap_or(0);
    let max = |f: fn(&EpochRank) -> u64| ranks.iter().map(f).max().unwrap_or(0);
    rep.ops.push(OpSample {
        wall_ns: max(|r| r.end_ns) - min(|r| r.start_ns),
        cpu_ns: ranks.iter().map(|r| r.cpu_ns).sum(),
        virt_ns: max(|r| r.virt_ns),
        ok: ranks.iter().all(|r| r.ok),
    });
    rep.gen_ns.push(max(|r| r.gen_ns));
    rep.verify_ns.push(max(|r| r.verify_ns));
    let mut c = Counts {
        rounds: u64::from(ranks[0].rounds),
        probes: ranks[0].probes,
        ..Counts::default()
    };
    for r in ranks {
        c.add_rank(&r.counters, r.pool);
    }
    rep.counts.push(c);
    if ranks.iter().all(|r| r.probe.is_some()) {
        rep.allreduce_ns.push(
            ranks
                .iter()
                .filter_map(|r| r.probe)
                .map(|x| x.0)
                .max()
                .unwrap_or(0),
        );
        rep.barrier_ns.push(
            ranks
                .iter()
                .filter_map(|r| r.probe)
                .map(|x| x.1)
                .max()
                .unwrap_or(0),
        );
    }
    let traced: Vec<&TracedEpoch> = ranks.iter().filter_map(|r| r.traced.as_ref()).collect();
    if traced.len() == ranks.len() {
        let start = traced.iter().map(|t| t.start_ns).min().unwrap_or(0);
        let end = traced.iter().map(|t| t.end_ns).max().unwrap_or(0);
        rep.traced_wall_ns.push(end - start);
        rep.output_match &= traced.iter().all(|t| t.output_match);
        rep.virtual_match &= traced.iter().all(|t| t.virtual_match);
        let marks: Vec<Vec<Mark>> = traced.iter().map(|t| t.marks.clone()).collect();
        rep.spans.extend(spans_of(rep.traced_ops, &marks));
        rep.traced_ops += 1;
    }
}

/// Run `setups` worlds; each times its set-up (launch, first batch,
/// fingerprints, one verified warm-up epoch). The last one goes on to
/// the measured loop.
pub fn run(
    p: usize,
    n: usize,
    seed: u64,
    setups: usize,
    budget: &Budget,
    traced: bool,
    rep: &mut Report,
) {
    rep.items_per_op = (p * n) as u64;
    rep.splitters = p as u64 - 1;
    rep.setup_ok = true;
    rep.output_match = true;
    rep.virtual_match = true;
    let cluster = ClusterConfig::supermuc_phase2(p);
    for round in 0..setups {
        let measured = round + 1 == setups;
        let entered: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
        let exited: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
        let setup_end = AtomicU64::new(0);
        let t0 = now_ns();
        let res = try_run(&cluster, |comm| {
            let rank = comm.rank();
            entered[rank].store(now_ns(), Ordering::Relaxed);
            let mut svc = EpochSorter::new(comm, SortConfig::default());
            let warm_up = one_epoch(comm, &mut svc, (p, n, seed, 0), false);
            let all_ok = comm.allgather(warm_up.ok).into_iter().all(|ok| ok);
            if rank == 0 {
                setup_end.store(now_ns(), Ordering::Relaxed);
            }
            let mut local = Report {
                output_match: true,
                virtual_match: true,
                ..Report::default()
            };
            let loop_start = now_ns();
            let mut epoch = 1;
            while measured
                && comm.broadcast(0, rank == 0 && budget.more(local.ops.len(), loop_start))
            {
                let mine = one_epoch(comm, &mut svc, (p, n, seed, epoch), traced);
                let all = comm.allgather(mine);
                if rank == 0 {
                    record(&all, &mut local);
                }
                epoch += 1;
            }
            exited[rank].store(now_ns(), Ordering::Relaxed);
            (all_ok, local)
        });
        let t1 = now_ns();
        let Ok(mut ranks) = res else {
            rep.setup_ok = false;
            return;
        };
        rep.setup_ns.push(setup_end.load(Ordering::Relaxed) - t0);
        rep.setup_ok &= ranks.iter().all(|((ok, _), _)| *ok);
        if measured {
            let last = |xs: &[AtomicU64]| {
                xs.iter()
                    .map(|x| x.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(t0)
            };
            rep.launch_ns.push(last(&entered) - t0);
            rep.teardown_ns.push(t1 - last(&exited));
            let ((_, local), _) = ranks.swap_remove(0);
            rep.ops = local.ops;
            rep.gen_ns = local.gen_ns;
            rep.verify_ns = local.verify_ns;
            rep.counts = local.counts;
            rep.allreduce_ns = local.allreduce_ns;
            rep.barrier_ns = local.barrier_ns;
            rep.traced_wall_ns = local.traced_wall_ns;
            rep.spans = local.spans;
            rep.traced_ops = local.traced_ops;
            rep.output_match &= local.output_match;
            rep.virtual_match &= local.virtual_match;
        }
    }
}
