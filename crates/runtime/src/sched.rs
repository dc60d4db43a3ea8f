//! Rank parking for both execution engines, and the cooperative task
//! scheduler of [`RunnerEngine::Tasks`].
//!
//! Every blocking point in the runtime — mailbox waits, the collective
//! rendezvous and its exit barrier, the recovery agreement — waits on
//! the same per-rank `EventCounts` park, under either engine. Event
//! sources (a collective's publish, the last exit-barrier departure, a
//! mailbox push, poison, failure registration) wake exactly the ranks
//! whose predicate they may have changed; nothing polls.
//!
//! Under [`RunnerEngine::Threads`] every simulated rank is a
//! free-running OS thread that sleeps on its own slot of the
//! eventcount. Under [`RunnerEngine::Tasks`] each rank still owns an OS
//! thread (rank bodies are arbitrary closures, so their stacks must be
//! real), but at most `workers` of them are *unparked* at any instant:
//! the `Scheduler` only adds worker-slot gating around the same
//! epoch protocol. A parking task hands its slot over and sleeps on its
//! grant condvar; a wake moves it into the grant queue — all the ranks
//! of one wake (a collective's publish) under a single scheduler lock —
//! and only a task granted a slot has its thread woken. So a collective
//! over p parked tasks costs about p thread wakes in total, not p wakes
//! that each contend for a slot and sleep again.
//!
//! # The park/wake protocol
//!
//! Lost wakeups are prevented with a per-rank wake *epoch* (an
//! eventcount): a rank reads its epoch **before** evaluating the
//! predicate it is about to block on, and `park` returns immediately
//! if the epoch moved in between. Wakers publish the state change first
//! and bump the epoch after it, so for any interleaving either the
//! parker observes the change through its predicate or the park is cut
//! short. A waker only takes a lock — the sleeper's own under the
//! thread engine, the scheduler's under the task engine — when a
//! sleeper has announced that it is about to sleep, so waking ranks
//! that are still running costs one atomic increment each.
//!
//! A generous timed backstop (`PARK_BACKSTOP`) turns a hypothetically
//! missed wake into a slow poll instead of a hang; correctness never
//! depends on the timer. Consecutive timed-out parks stretch the
//! backstop exponentially (a large-p collective round can occupy
//! seconds of host time, and p ranks re-polling twice a second through
//! it is a wake cascade that grows quadratically with p); any real wake
//! resets the stretch. While the world is poisoned the caller passes a
//! short unstretched backstop instead, which paces the collective's
//! combine-in-flight grace window.
//!
//! # Determinism
//!
//! Parking decides only *when* a rank executes on the host, never what
//! it computes: virtual clocks advance through explicit charges,
//! collectives combine rank-ordered deposits, and mailbox matching is
//! by `(src, tag, seq)`. Both engines are robust to arbitrary host
//! preemption, and a cooperative schedule is one such preemption
//! pattern, so both produce byte-identical outputs and per-rank virtual
//! makespans (pinned by `tests/engine_equivalence.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::threads::host_parallelism;

/// Upper bound a parked rank sleeps before re-checking its predicate
/// without an explicit wake. Purely a liveness backstop (see module
/// docs); large enough that steady-state runs never hit it.
pub(crate) const PARK_BACKSTOP: Duration = Duration::from_millis(500);

/// Cap on the exponential backstop stretch: 2^6 × [`PARK_BACKSTOP`]
/// = 32 s bounds the stall a (theoretically impossible) missed wake
/// could cost while keeping long quiescent waits nearly silent.
const BACKOFF_CAP: u32 = 6;

/// Floor for the default worker count. Every park→grant handoff pays
/// the host's thread-wake latency; with a single worker those
/// handoffs serialize (p of them per collective round), and on hosts
/// with slow wakeups (virtualized CPUs especially) the pool idles
/// between grants. A pool of a few in-flight tasks keeps wake chains
/// overlapped — measured on a 1-core host at p = 4096, workers = 16
/// is ~5× faster than workers = 1 — while still parking thousands.
const MIN_WORKERS: usize = 16;

/// Which execution engine drives the simulated ranks of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunnerEngine {
    /// One free-running OS thread per rank. The original engine and the
    /// determinism reference; fine up to p ≈ 128.
    #[default]
    Threads,
    /// Cooperatively-scheduled rank tasks multiplexed over a worker
    /// pool (see [`crate::sched`]). Byte-identical results to
    /// [`RunnerEngine::Threads`]; dramatically less host-scheduler
    /// pressure, which is what makes p = 1024–8192 grids practical.
    Tasks {
        /// Maximum number of rank tasks executing concurrently; `0`
        /// means the default (the host's available parallelism, with
        /// a small floor that keeps wake-handoff chains overlapped).
        workers: usize,
    },
}

impl RunnerEngine {
    /// The task engine with the default worker count (host
    /// parallelism).
    pub fn tasks() -> Self {
        RunnerEngine::Tasks { workers: 0 }
    }

    /// Build the scheduler backing this engine, if it needs one.
    pub(crate) fn scheduler(&self, ranks: usize) -> Option<Arc<Scheduler>> {
        match *self {
            RunnerEngine::Threads => None,
            RunnerEngine::Tasks { workers } => Some(Scheduler::new(ranks, workers)),
        }
    }
}

impl std::str::FromStr for RunnerEngine {
    type Err = String;

    /// Parse `threads`, `tasks`, or `tasks:<workers>` (as accepted by
    /// the bench binaries' `--engine` flag).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "threads" => Ok(RunnerEngine::Threads),
            "tasks" => Ok(RunnerEngine::tasks()),
            _ => match s.strip_prefix("tasks:").map(str::parse) {
                Some(Ok(workers)) => Ok(RunnerEngine::Tasks { workers }),
                _ => Err(format!(
                    "unknown engine {s:?} (expected threads, tasks, or tasks:<workers>)"
                )),
            },
        }
    }
}

/// One rank's eventcount slot, padded to its own cache lines so wakes
/// aimed at different ranks never contend.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    /// Wake epoch; bumped by every wake aimed at this rank.
    epoch: AtomicU64,
    /// Set by the owner while it may be asleep: on `cv` under the
    /// thread engine, parked in the scheduler under the task engine.
    sleeping: AtomicBool,
    /// Consecutive timed-out parks, the exponent of the backstop
    /// stretch. Only the owning rank writes it.
    backoff: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Per-rank eventcounts: the one park/wake primitive of both engines
/// (see module docs). Indexed by global rank; one per
/// [`crate::state::World`].
pub(crate) struct EventCounts {
    slots: Box<[Slot]>,
}

impl EventCounts {
    pub fn new(ranks: usize) -> Self {
        Self {
            slots: (0..ranks).map(|_| Slot::default()).collect(),
        }
    }

    /// `me`'s current wake epoch. Must be read *before* the caller
    /// evaluates the predicate it is about to park on.
    #[inline]
    pub fn token(&self, me: usize) -> u64 {
        self.slots[me].epoch.load(Ordering::SeqCst)
    }

    /// Bump `r`'s epoch; returns whether `r` may be asleep and so must
    /// also be signalled. Pairs with the sleeper's `sleeping` store →
    /// epoch load: one of the two sides sees the other's write.
    #[inline]
    fn bump(&self, r: usize) -> bool {
        let s = &self.slots[r];
        s.epoch.fetch_add(1, Ordering::SeqCst);
        s.sleeping.load(Ordering::SeqCst)
    }

    /// Wake rank `r` under the thread engine: bump its epoch, and
    /// signal it if it is asleep.
    #[inline]
    fn wake(&self, r: usize) {
        if self.bump(r) {
            let s = &self.slots[r];
            let _held = s.lock.lock();
            s.cv.notify_one();
        }
    }

    /// The backstop `me` sleeps for, and its current stretch exponent.
    /// Only the default backstop stretches: the poison poll's cadence
    /// paces the collective grace counting, so it keeps its period.
    fn backstop(&self, me: usize, backstop: Duration) -> (u32, Duration) {
        let shift = self.slots[me]
            .backoff
            .load(Ordering::Relaxed)
            .min(BACKOFF_CAP);
        if backstop >= PARK_BACKSTOP {
            (shift, backstop.saturating_mul(1 << shift))
        } else {
            (shift, backstop)
        }
    }

    /// Record how `me`'s park ended: a timeout stretches the next
    /// backstop, any real wake resets the stretch.
    fn settle(&self, me: usize, shift: u32, timed_out: bool) {
        let next = if timed_out { shift + 1 } else { 0 };
        self.slots[me]
            .backoff
            .store(next.min(BACKOFF_CAP), Ordering::Relaxed);
    }

    /// Thread-engine sleep: until `me`'s epoch moves past `token` or
    /// the (stretched) `backstop` elapses; returns at once if the epoch
    /// already moved.
    fn park(&self, me: usize, token: u64, backstop: Duration) {
        let s = &self.slots[me];
        let (shift, eff) = self.backstop(me, backstop);
        let mut held = s.lock.lock();
        s.sleeping.store(true, Ordering::SeqCst);
        let timed_out = s.epoch.load(Ordering::SeqCst) == token
            && s.cv.wait_for(&mut held, eff).timed_out()
            && s.epoch.load(Ordering::SeqCst) == token;
        s.sleeping.store(false, Ordering::Relaxed);
        drop(held);
        self.settle(me, shift, timed_out);
    }

    /// Test hook: `me`'s current backstop-stretch exponent.
    #[cfg(test)]
    fn backoff(&self, me: usize) -> u32 {
        self.slots[me].backoff.load(Ordering::Relaxed)
    }
}

/// Park `me` until a wake moves its epoch past `token` or `backstop`
/// elapses. Under the task engine `me` hands its worker slot over while
/// parked and returns once granted one again. Returns at once, keeping
/// the slot, if the epoch already moved.
pub(crate) fn park(
    events: &EventCounts,
    sched: Option<&Scheduler>,
    me: usize,
    token: u64,
    backstop: Duration,
) {
    if events.token(me) != token {
        events.settle(me, 0, false);
        return;
    }
    match sched {
        Some(s) => s.park(events, me, token, backstop),
        None => events.park(me, token, backstop),
    }
}

/// Wake every rank in `ranks`. Under the thread engine each sleeper is
/// signalled on its own condvar. Under the task engine the sleepers are
/// queued for a worker slot under one scheduler lock, and only the
/// tasks granted a slot have their threads woken; the rest stay asleep
/// until a slot frees up.
pub(crate) fn wake<I>(events: &EventCounts, sched: Option<&Scheduler>, ranks: I)
where
    I: IntoIterator<Item = usize>,
    I::IntoIter: Clone,
{
    let ranks = ranks.into_iter();
    match sched {
        None => ranks.for_each(|r| events.wake(r)),
        Some(s) => {
            let mut asleep = false;
            for r in ranks.clone() {
                asleep |= events.bump(r);
            }
            if asleep {
                s.enqueue(events, ranks);
            }
        }
    }
}

/// Lifecycle of one rank task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Holds a worker slot and is executing.
    Running,
    /// Wants to run; waiting in the grant queue for a free slot.
    Queued,
    /// Holds no slot: not started yet, or parked until a wake.
    Parked,
    /// Finished (returned or unwound); holds no slot.
    Done,
}

struct SchedInner {
    /// Number of tasks currently holding a worker slot.
    running: usize,
    /// FIFO of `Queued` tasks awaiting a slot grant.
    queue: VecDeque<usize>,
    state: Vec<TaskState>,
}

/// The worker-slot gate of [`RunnerEngine::Tasks`]; one per
/// [`crate::state::World`]. Task ids are global ranks.
pub(crate) struct Scheduler {
    workers: usize,
    inner: Mutex<SchedInner>,
    /// One condvar per task so grants never herd.
    cvs: Vec<Condvar>,
}

impl Scheduler {
    /// A scheduler for `ranks` tasks over `workers` slots (`0` =>
    /// host parallelism).
    pub fn new(ranks: usize, workers: usize) -> Arc<Self> {
        let workers = match workers {
            0 => host_parallelism().max(MIN_WORKERS),
            w => w,
        };
        Arc::new(Self {
            workers,
            inner: Mutex::new(SchedInner {
                running: 0,
                queue: VecDeque::with_capacity(ranks),
                state: vec![TaskState::Parked; ranks],
            }),
            cvs: (0..ranks).map(|_| Condvar::new()).collect(),
        })
    }

    /// The worker-slot count (concurrent-execution bound).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Grant free slots to queued tasks, FIFO. Callers hold `inner`.
    fn pump(&self, inner: &mut SchedInner) {
        while inner.running < self.workers {
            let Some(next) = inner.queue.pop_front() else {
                break;
            };
            debug_assert_eq!(inner.state[next], TaskState::Queued);
            inner.state[next] = TaskState::Running;
            inner.running += 1;
            self.cvs[next].notify_one();
        }
    }

    /// Block until `me` is granted a worker slot; called once when the
    /// rank task starts.
    pub fn acquire(&self, me: usize) {
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.state[me], TaskState::Parked);
        inner.state[me] = TaskState::Queued;
        inner.queue.push_back(me);
        self.pump(&mut inner);
        while inner.state[me] != TaskState::Running {
            self.cvs[me].wait(&mut inner);
        }
    }

    /// Task-engine sleep: hand `me`'s slot to the next queued task and
    /// sleep until a wake (or the backstop) queues `me` and a slot is
    /// granted to it again. Returns at once, keeping the slot, if the
    /// epoch already moved past `token`.
    fn park(&self, events: &EventCounts, me: usize, token: u64, backstop: Duration) {
        let slot = &events.slots[me];
        let (shift, eff) = events.backstop(me, backstop);
        let mut inner = self.inner.lock();
        slot.sleeping.store(true, Ordering::SeqCst);
        if slot.epoch.load(Ordering::SeqCst) != token {
            slot.sleeping.store(false, Ordering::Relaxed);
            drop(inner);
            events.settle(me, shift, false);
            return;
        }
        debug_assert_eq!(inner.state[me], TaskState::Running);
        inner.state[me] = TaskState::Parked;
        inner.running -= 1;
        self.pump(&mut inner);
        let mut timed_out = false;
        loop {
            match inner.state[me] {
                TaskState::Running => break,
                TaskState::Parked => {
                    if self.cvs[me].wait_for(&mut inner, eff).timed_out()
                        && inner.state[me] == TaskState::Parked
                    {
                        // Liveness backstop: requeue so a missed wake
                        // degrades to a slow poll, never a hang.
                        timed_out = true;
                        inner.state[me] = TaskState::Queued;
                        inner.queue.push_back(me);
                        self.pump(&mut inner);
                    }
                }
                TaskState::Queued => self.cvs[me].wait(&mut inner),
                TaskState::Done => unreachable!("a parked task cannot be done"),
            }
        }
        slot.sleeping.store(false, Ordering::Relaxed);
        drop(inner);
        events.settle(me, shift, timed_out);
    }

    /// Queue every task of `ranks` that is asleep in [`Scheduler::park`]
    /// for a slot, under one lock. The caller bumped their epochs first.
    fn enqueue(&self, events: &EventCounts, ranks: impl Iterator<Item = usize>) {
        let mut inner = self.inner.lock();
        for r in ranks {
            // `sleeping` is only set under this lock, so it is exact
            // here; it tells a parked task from one not started yet.
            if inner.state[r] == TaskState::Parked
                && events.slots[r].sleeping.load(Ordering::SeqCst)
            {
                inner.state[r] = TaskState::Queued;
                inner.queue.push_back(r);
            }
        }
        self.pump(&mut inner);
    }

    /// Release `me`'s slot for good; called when the rank task ends
    /// (normal return or unwind).
    pub fn finish(&self, me: usize) {
        let mut inner = self.inner.lock();
        match inner.state[me] {
            TaskState::Running => inner.running -= 1,
            TaskState::Queued => inner.queue.retain(|&r| r != me),
            TaskState::Parked | TaskState::Done => {}
        }
        inner.state[me] = TaskState::Done;
        self.pump(&mut inner);
    }

    /// Test hook: `me`'s lifecycle state and the running-slot count.
    #[cfg(test)]
    fn state(&self, me: usize) -> (TaskState, usize) {
        let inner = self.inner.lock();
        (inner.state[me], inner.running)
    }
}

/// RAII slot holder for one rank task: acquires a worker slot on
/// construction, releases it permanently on drop (including during an
/// unwind, so a crashed rank frees its slot for survivors).
pub(crate) struct TaskGuard {
    sched: Arc<Scheduler>,
    rank: usize,
}

impl TaskGuard {
    pub fn enter(sched: Arc<Scheduler>, rank: usize) -> Self {
        sched.acquire(rank);
        Self { sched, rank }
    }
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        self.sched.finish(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parses_engine_flags() {
        assert_eq!("threads".parse(), Ok(RunnerEngine::Threads));
        assert_eq!("tasks".parse(), Ok(RunnerEngine::Tasks { workers: 0 }));
        assert_eq!("tasks:3".parse(), Ok(RunnerEngine::Tasks { workers: 3 }));
        assert!("fibers".parse::<RunnerEngine>().is_err());
    }

    /// Spin until `pred` holds (bounded, so a broken scheduler fails
    /// the test instead of hanging it).
    fn until(pred: impl Fn() -> bool) {
        let t0 = std::time::Instant::now();
        while !pred() {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "condition never held"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn never_exceeds_worker_slots() {
        let sched = Scheduler::new(8, 2);
        let ev = EventCounts::new(8);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for me in 0..8 {
                let sched = sched.clone();
                let (ev, live, peak) = (&ev, &live, &peak);
                s.spawn(move || {
                    let _guard = TaskGuard::enter(sched.clone(), me);
                    for _ in 0..20 {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                        // Nobody wakes us: the backstop requeues us, and
                        // the slot goes to a queued task meanwhile.
                        park(ev, Some(&sched), me, ev.token(me), Duration::from_millis(1));
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {peak:?} > workers");
    }

    #[test]
    fn wake_before_park_returns_at_once() {
        let ev = EventCounts::new(1);
        let token = ev.token(0);
        wake(&ev, None, [0]);
        // The epoch moved between the predicate check and the park, so
        // the park must return immediately (no wake will ever come).
        park(&ev, None, 0, token, Duration::from_secs(60));
    }

    #[test]
    fn raced_wake_keeps_the_slot() {
        let sched = Scheduler::new(2, 1);
        let ev = EventCounts::new(2);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let (sched, ev, order) = (&sched, &ev, &order);
            s.spawn(move || {
                let _g = TaskGuard::enter(sched.clone(), 0);
                order.lock().push("0:running");
                until(|| sched.state(1).0 == TaskState::Queued);
                let token = ev.token(0);
                wake(ev, Some(sched), [0]);
                // The wake raced the predicate check: the park returns
                // at once without handing the slot to queued task 1.
                park(ev, Some(sched), 0, token, Duration::from_secs(60));
                assert_eq!(sched.state(0), (TaskState::Running, 1));
                assert_eq!(sched.state(1).0, TaskState::Queued);
                order.lock().push("0:kept");
            });
            s.spawn(move || {
                until(|| !order.lock().is_empty());
                let _g = TaskGuard::enter(sched.clone(), 1);
                order.lock().push("1:ran");
            });
        });
        assert_eq!(*order.lock(), ["0:running", "0:kept", "1:ran"]);
    }

    #[test]
    fn parked_task_frees_its_slot_for_a_queued_one() {
        let sched = Scheduler::new(2, 1);
        let ev = EventCounts::new(2);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let (sched, ev, order) = (&sched, &ev, &order);
            s.spawn(move || {
                let _g = TaskGuard::enter(sched.clone(), 0);
                let token = ev.token(0);
                order.lock().push("0:parking");
                // Task 1 can only run once this park releases the slot.
                park(ev, Some(sched), 0, token, Duration::from_secs(30));
                order.lock().push("0:resumed");
            });
            s.spawn(move || {
                // Let task 0 grab the single slot first.
                until(|| !order.lock().is_empty());
                let _g = TaskGuard::enter(sched.clone(), 1);
                order.lock().push("1:ran");
                wake(ev, Some(sched), [0]);
            });
        });
        assert_eq!(*order.lock(), ["0:parking", "1:ran", "0:resumed"]);
        assert_eq!(ev.backoff(0), 0, "a real wake, not the backstop");
    }

    #[test]
    fn backstop_returns_from_a_missed_wake() {
        let ev = EventCounts::new(1);
        // Nobody will ever wake rank 0; the backstop must still bring
        // it back within a bounded time.
        park(&ev, None, 0, ev.token(0), Duration::from_millis(10));
        assert_eq!(ev.backoff(0), 1);
    }

    #[test]
    fn timed_out_park_yields_then_regains_its_slot() {
        let sched = Scheduler::new(2, 1);
        let ev = EventCounts::new(2);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let (sched, ev, order) = (&sched, &ev, &order);
            s.spawn(move || {
                let _g = TaskGuard::enter(sched.clone(), 0);
                order.lock().push("0:parking");
                // Nobody wakes task 0: its slot goes to task 1, and the
                // backstop requeues it for the slot afterwards.
                park(ev, Some(sched), 0, ev.token(0), Duration::from_millis(50));
                assert_eq!(sched.state(0), (TaskState::Running, 1));
                order.lock().push("0:resumed");
            });
            s.spawn(move || {
                until(|| !order.lock().is_empty());
                let _g = TaskGuard::enter(sched.clone(), 1);
                order.lock().push("1:ran");
            });
        });
        assert_eq!(*order.lock(), ["0:parking", "1:ran", "0:resumed"]);
        assert_eq!(ev.backoff(0), 1, "resumed by the backstop");
    }

    #[test]
    fn timed_out_parks_back_off_and_real_wakes_reset() {
        let sched = Scheduler::new(1, 1);
        sched.acquire(0);
        for engine in [None, Some(&*sched)] {
            let ev = EventCounts::new(1);
            assert_eq!(ev.backoff(0), 0);
            // Two consecutive parks that only the timer brings back.
            park(&ev, engine, 0, ev.token(0), Duration::from_millis(1));
            assert_eq!(ev.backoff(0), 1);
            park(&ev, engine, 0, ev.token(0), Duration::from_millis(1));
            assert_eq!(ev.backoff(0), 2);
            // A raced wake (epoch moved before the park) resets the
            // stretch — it is a real event, not a quiescent timeout.
            let token = ev.token(0);
            wake(&ev, engine, [0]);
            park(&ev, engine, 0, token, Duration::from_secs(30));
            assert_eq!(ev.backoff(0), 0);
        }
        assert_eq!(sched.state(0), (TaskState::Running, 1));
    }

    #[test]
    fn wake_reaches_every_sleeper() {
        let sched = Scheduler::new(4, 2);
        for engine in [None, Some(&*sched)] {
            let ev = EventCounts::new(4);
            let started = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for me in 0..4 {
                    let (ev, started, sched) = (&ev, &started, &sched);
                    s.spawn(move || {
                        let _g = engine.map(|_| TaskGuard::enter(sched.clone(), me));
                        let token = ev.token(me);
                        started.fetch_add(1, Ordering::SeqCst);
                        park(ev, engine, me, token, Duration::from_secs(30));
                    });
                }
                // Under the scheduler only two tasks run at once: the
                // other two start when the first two park.
                until(|| started.load(Ordering::SeqCst) == 4);
                if let Some(sched) = engine {
                    until(|| (0..4).all(|r| sched.state(r) == (TaskState::Parked, 0)));
                } else {
                    std::thread::sleep(Duration::from_millis(20));
                }
                wake(&ev, engine, 0..4);
            });
            for r in 0..4 {
                assert_eq!(ev.backoff(r), 0, "a real wake, not the backstop");
            }
        }
    }
}
