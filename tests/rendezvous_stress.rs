//! Stress tests for the collective rendezvous: crashes injected into
//! every window of a collective, under both engines and both failure
//! policies, and long runs of back-to-back generations at more ranks
//! than host cores.
//!
//! Every scenario runs under a test-level timeout, so a lost wakeup or
//! a wedged exit barrier fails the test instead of hanging it. Every
//! collective output a rank does receive is checked against its
//! expected value: a rank that read a retracted (freed or reused) view
//! would see a wrong value and fail with an untyped panic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use dhs_core::{histogram_sort, RecoveryPolicy, SortConfig, SortOutcome};
use dhs_runtime::{
    run, try_run_partial, AllToAllAlgo, ClusterConfig, Comm, FaultPlan, RankError,
    RecoveryInterrupt, RunnerEngine, Work,
};

const ENGINES: [RunnerEngine; 4] = [
    RunnerEngine::Threads,
    RunnerEngine::Tasks { workers: 1 },
    RunnerEngine::Tasks { workers: 2 },
    RunnerEngine::Tasks { workers: 16 },
];

/// Run `f` on a helper thread and fail if it does not finish within
/// `limit` (a hang leaks the helper, but the test fails instead of
/// stalling the suite).
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            helper.join().expect("helper thread");
            v
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: no result within {limit:?}"),
        // The sender was dropped: `f` panicked; surface its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => match helper.join() {
            Err(e) => std::panic::resume_unwind(e),
            Ok(()) => unreachable!("helper returned without sending"),
        },
    }
}

fn keys_for(rank: usize, n: usize) -> Vec<u64> {
    let mut x = (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// Crash deadline of the rank that fails on cue: far past anything
/// the scenario charges, so it never fires by itself.
const LATE_NS: u64 = 1 << 40;

/// Fail on cue as `Crashed`: jump past the [`LATE_NS`] deadline, which
/// fires at the next interaction.
fn crash_now(comm: &Comm) {
    comm.charge(Work::Ns(LATE_NS));
    comm.charge(Work::Ns(1));
}

fn cluster(p: usize, engine: RunnerEngine) -> ClusterConfig {
    ClusterConfig::small_cluster(p).with_engine(engine)
}

/// Windows "before deposit" and "deposited and waiting": a victim
/// whose crash deadline falls inside the splitter search dies at the
/// entry of one of its collectives, while its peers sit deposited in
/// that collective. Abort must end every rank with a typed error;
/// Shrink must end every survivor `Recovered`.
#[test]
fn sort_crashes_end_typed_or_recovered() {
    let p = 8;
    let n = 1500;
    let victim = 5;
    for engine in ENGINES {
        for policy in [RecoveryPolicy::Abort, RecoveryPolicy::Shrink] {
            for at_ns in [1, 15_000, 40_000, 70_000] {
                let what = format!("{engine:?} {policy:?} crash at {at_ns} ns");
                let cfg =
                    cluster(p, engine).with_fault(FaultPlan::seeded(3).with_crash(victim, at_ns));
                let sort_cfg = SortConfig::builder()
                    .recovery(policy)
                    .build()
                    .expect("valid config");
                let out = within(Duration::from_secs(60), &what.clone(), move || {
                    try_run_partial(&cfg, move |comm| {
                        let mut local = keys_for(comm.rank(), n);
                        histogram_sort(comm, &mut local, &sort_cfg).outcome
                    })
                });
                for (rank, res) in out.ranks.iter().enumerate() {
                    match (policy, res) {
                        (_, Err(RankError::Crashed { rank: r, .. })) => {
                            assert_eq!((rank, *r), (victim, victim), "{what}")
                        }
                        (RecoveryPolicy::Abort, Err(RankError::PeerFailed { rank: r })) => {
                            assert_eq!(*r, rank, "{what}")
                        }
                        (
                            RecoveryPolicy::Shrink,
                            Ok((SortOutcome::Recovered { lost_ranks, .. }, _)),
                        ) => {
                            assert_eq!(lost_ranks, &vec![victim], "{what}")
                        }
                        (_, other) => panic!("{what}: rank {rank} ended {other:?}"),
                    }
                }
                assert!(out.ranks[victim].is_err(), "{what}: the victim must die");
            }
        }
    }
}

/// Window "combine in flight", combiner alive: ranks 0..3 sit in a
/// collective whose combine is still running when rank 3 (outside the
/// collective) fails. The waiters must not abort — the combine is
/// reading their deposits — and must receive the correct output.
///
/// Under a single worker slot this window cannot occur (the combiner
/// holds the only slot until it publishes, so no other rank can fail
/// meanwhile), and the scenario's host-level waits would starve the
/// slot; `dead_combiner_ends_every_waiter_typed` covers that engine.
#[test]
fn failure_during_combine_never_aborts_its_waiters() {
    let multi_slot = ENGINES
        .into_iter()
        .filter(|&e| e != RunnerEngine::Tasks { workers: 1 });
    for engine in multi_slot {
        for policy in [RecoveryPolicy::Abort, RecoveryPolicy::Shrink] {
            let what = format!("{engine:?} {policy:?}");
            let cfg = cluster(4, engine).with_fault(FaultPlan::seeded(4).with_crash(3, LATE_NS));
            let outputs = within(Duration::from_secs(60), &what.clone(), move || {
                let in_combine = AtomicBool::new(false);
                let failed = AtomicBool::new(false);
                let correct = AtomicUsize::new(0);
                let out = try_run_partial(&cfg, |comm| {
                    let _armed = (policy == RecoveryPolicy::Shrink).then(|| comm.arm_recovery());
                    let sub = comm.split(u64::from(comm.rank() == 3), 0);
                    if comm.rank() == 3 {
                        while !in_combine.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        failed.store(true, Ordering::SeqCst);
                        match policy {
                            RecoveryPolicy::Shrink => crash_now(comm),
                            RecoveryPolicy::Abort => panic!("rank 3 fails mid-combine"),
                        }
                        unreachable!("rank 3 must have failed");
                    }
                    let mine = keys_for(comm.rank(), 4096);
                    let total = sub.gather_reduce(
                        mine.clone(),
                        |inputs: Vec<Vec<u64>>| {
                            in_combine.store(true, Ordering::SeqCst);
                            while !failed.load(Ordering::SeqCst) {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            // Let the failure reach the waiters while
                            // the combine still holds their deposits.
                            std::thread::sleep(Duration::from_millis(30));
                            inputs
                                .iter()
                                .flatten()
                                .fold(0u64, |a, &b| a.wrapping_add(b))
                        },
                        |_| 8,
                    );
                    let expect = (0..3)
                        .flat_map(|r| keys_for(r, 4096))
                        .fold(0u64, |a, b| a.wrapping_add(b));
                    assert_eq!(*total, expect, "combine output");
                    correct.fetch_add(1, Ordering::SeqCst);
                    // The next collective over the dead rank ends the
                    // run: a typed abort, or an interrupt and a shrink.
                    let interrupted =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| comm.barrier()));
                    let payload = interrupted.expect_err("rank 3 is gone");
                    if !payload.is::<RecoveryInterrupt>() {
                        std::panic::resume_unwind(payload);
                    }
                    comm.shrink(0).survivors
                });
                (out.ranks, correct.load(Ordering::SeqCst))
            });
            let (ranks, correct) = outputs;
            assert_eq!(correct, 3, "{what}: every waiter received the output");
            for (rank, res) in ranks.iter().enumerate().take(3) {
                match (policy, res) {
                    (RecoveryPolicy::Abort, Err(RankError::PeerFailed { .. })) => {}
                    (RecoveryPolicy::Shrink, Ok((survivors, _))) => {
                        assert_eq!(survivors, &vec![0, 1, 2], "{what}")
                    }
                    (_, other) => panic!("{what}: rank {rank} ended {other:?}"),
                }
            }
            assert!(ranks[3].is_err(), "{what}: rank 3 must fail");
        }
    }
}

/// Window "combine in flight", combiner dead: the combine itself
/// panics, so the output never appears. The waiters wait out the grace
/// window and then abort with a typed error.
#[test]
fn dead_combiner_ends_every_waiter_typed() {
    // The grace window is seconds long: run the engines side by side.
    let handles: Vec<_> = ENGINES
        .into_iter()
        .map(|engine| {
            std::thread::spawn(move || {
                let what = format!("{engine:?}");
                let out = within(Duration::from_secs(60), &what.clone(), move || {
                    try_run_partial(&cluster(4, engine), |comm| {
                        comm.gather_reduce(
                            vec![comm.rank() as u64],
                            |_: Vec<Vec<u64>>| -> u64 { panic!("combine died") },
                            |_| 8,
                        );
                    })
                });
                let panicked = out
                    .ranks
                    .iter()
                    .filter(|r| matches!(r, Err(RankError::Panicked { .. })))
                    .count();
                let collateral = out
                    .ranks
                    .iter()
                    .filter(|r| matches!(r, Err(RankError::PeerFailed { .. })))
                    .count();
                assert_eq!((panicked, collateral), (1, 3), "{what}: {:?}", out.ranks);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("engine scenario");
    }
}

/// Exchanges over ranks 0..3, each verified, until rank 3 — outside
/// the exchange — fails at an arbitrary host instant. A failure that
/// lands while some members are already past the publish (in their
/// copy-out or at the exit barrier) must not make any of them abort
/// there: the barrier would never fill and the peers' views would be
/// read after their owners unwound.
fn exchange_storm(engine: RunnerEngine, policy: RecoveryPolicy, delay_us: u64) {
    let what = format!("{engine:?} {policy:?} fail after {delay_us} us");
    let cfg = cluster(4, engine).with_fault(FaultPlan::seeded(5).with_crash(3, LATE_NS));
    let out = within(Duration::from_secs(60), &what.clone(), move || {
        try_run_partial(&cfg, move |comm| {
            let _armed = (policy == RecoveryPolicy::Shrink).then(|| comm.arm_recovery());
            let sub = comm.split(u64::from(comm.rank() == 3), 0);
            if comm.rank() == 3 {
                std::thread::sleep(Duration::from_micros(delay_us));
                match policy {
                    RecoveryPolicy::Shrink => crash_now(comm),
                    RecoveryPolicy::Abort => panic!("rank 3 fails"),
                }
                unreachable!("rank 3 must have failed");
            }
            let me = sub.rank() as u64;
            for round in 0..300u64 {
                // Row d of rank s: 64 copies of (round, s, d).
                let rows: Vec<Vec<u64>> = (0..3u64)
                    .map(|d| vec![(round << 16) | (me << 8) | d; 64])
                    .collect();
                let slices: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
                let got = sub.exchange(&slices[..], AllToAllAlgo::OneFactor);
                for s in 0..3u64 {
                    let want = (round << 16) | (s << 8) | me;
                    assert!(
                        got.run(s as usize).iter().all(|&x| x == want),
                        "round {round}"
                    );
                }
            }
            let interrupted =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| comm.barrier()));
            let payload = interrupted.expect_err("rank 3 is gone");
            if !payload.is::<RecoveryInterrupt>() {
                std::panic::resume_unwind(payload);
            }
            comm.shrink(0).survivors
        })
    });
    for (rank, res) in out.ranks.iter().enumerate().take(3) {
        match (policy, res) {
            (RecoveryPolicy::Abort, Err(RankError::PeerFailed { .. })) => {}
            (RecoveryPolicy::Shrink, Ok((survivors, _))) => {
                assert_eq!(survivors, &vec![0, 1, 2], "{what}")
            }
            (_, other) => panic!("{what}: rank {rank} ended {other:?}"),
        }
    }
    assert!(out.ranks[3].is_err(), "{what}: rank 3 must fail");
}

/// Window "extract / exit barrier".
#[test]
fn failure_during_exchanges_never_wedges_the_exit_barrier() {
    for engine in ENGINES {
        for policy in [RecoveryPolicy::Abort, RecoveryPolicy::Shrink] {
            for delay_us in [0, 300, 2_000, 10_000] {
                exchange_storm(engine, policy, delay_us);
            }
        }
    }
}

/// 10,000 back-to-back generations (alternating barrier and sum
/// allreduce) at `p` ranks: pins generation reuse of the cell and the
/// absence of lost wakeups with far more ranks than host cores.
fn back_to_back(p: usize, engine: RunnerEngine) {
    const GENERATIONS: u64 = 10_000;
    let what = format!("{engine:?} p={p}");
    let out = within(Duration::from_secs(300), &what, move || {
        run(&cluster(p, engine), move |comm: &Comm| {
            let me = comm.rank() as u64;
            let mut checked = 0u64;
            for round in 0..GENERATIONS / 2 {
                comm.barrier();
                let sum = comm.allreduce_sum([me + round, 1]);
                let p = p as u64;
                assert_eq!(sum[0], p * (p - 1) / 2 + p * round, "round {round}");
                assert_eq!(sum[1], p);
                checked += 1;
            }
            checked
        })
    });
    assert!(out.iter().all(|(c, _)| *c == GENERATIONS / 2));
}

#[test]
fn ten_thousand_generations_at_p64() {
    back_to_back(64, RunnerEngine::Threads);
}

#[test]
fn ten_thousand_generations_at_p256() {
    back_to_back(256, RunnerEngine::Threads);
}

#[test]
fn ten_thousand_generations_at_p64_under_tasks() {
    back_to_back(64, RunnerEngine::tasks());
}
