//! Shared data plane backing a communicator.
//!
//! Every communicator owns one `CollectiveCell` (a generation-broadcast
//! rendezvous through which all collectives move their payloads) and
//! one mailbox per member rank for point-to-point messages. Payloads
//! are type-erased so a single cell serves collectives of any element
//! type.
//!
//! Nothing here sleeps on a shared lock. A blocked rank parks on its
//! own slot of the world's eventcount (`World::park`, the same park
//! under both engines) and is woken by exactly the event it waits for:
//! the publish of its collective's generation, the last departure from
//! an exit barrier, a push to its mailbox, poison, or a failure
//! registration. The collective protocol — atomic arrival count, one
//! combine by the last arriver, a Release-published output read
//! without a lock, and monotone counters instead of a per-generation
//! reset — is described on [`CommState::collective_view`].

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::cost::CostModel;
use crate::fault::{FaultPlan, RankAbort, RankError};
use crate::recover::AgreeCell;
use crate::sched::{EventCounts, RunnerEngine, Scheduler, PARK_BACKSTOP};
use crate::stats::RankLocal;
use crate::topology::Topology;
use crate::trace::{TraceConfig, TraceSink};

/// Park backstop while the world is poisoned: the period of the
/// combine-in-flight grace polls (poison itself wakes every rank).
pub(crate) const POISON_POLL: Duration = Duration::from_millis(25);

/// Poison polls a collective waits for an in-flight combine before
/// concluding the combiner itself died (see
/// [`CommState::collective_view`]). Generous on purpose: aborting early
/// is only safe because by then the output can never appear.
const POISON_GRACE_POLLS: u32 = 200;

/// Machine-wide immutable context shared by all communicators of a run.
pub struct World {
    /// Physical layout of ranks over NUMA domains and nodes.
    pub topology: Topology,
    /// The α–β communication cost model in effect.
    pub cost: CostModel,
    /// Fault-injection plan in effect (inert by default).
    pub fault: FaultPlan,
    /// Set when any rank panics so the rest can abort instead of
    /// deadlocking inside a collective.
    pub poison: AtomicBool,
    /// Per-global-rank clock and counters.
    pub locals: Vec<Arc<RankLocal>>,
    /// Per-global-rank trace sinks; `None` when tracing is off, so the
    /// record paths reduce to one `Option` check.
    pub traces: Option<Vec<TraceSink>>,
    /// Number of ranks currently inside a recoverable (shrink-policy)
    /// section. While > 0, a registered rank failure interrupts blocked
    /// survivors with a [`crate::recover::RecoveryInterrupt`] instead of
    /// poisoning the run.
    recovery_armed: AtomicUsize,
    /// Global ranks known (or suspected) dead, with their root causes.
    /// Written by the failing rank itself (crash deadlines) or by a
    /// sender whose retransmission budget to that peer ran out.
    failed: Mutex<BTreeMap<usize, RankError>>,
    /// Rendezvous state for the fault-aware survivor agreement
    /// (see [`crate::recover`]).
    pub(crate) agree: AgreeCell,
    /// Per-global-rank eventcounts every blocking wait parks on,
    /// under either engine.
    pub(crate) events: EventCounts,
    /// Worker-slot gate under [`RunnerEngine::Tasks`]; `None` under
    /// the thread engine.
    pub(crate) sched: Option<Arc<Scheduler>>,
}

impl World {
    /// A fault-free, untraced world.
    pub fn new(topology: Topology, cost: CostModel) -> Arc<Self> {
        Self::with_fault(topology, cost, FaultPlan::default())
    }

    /// A world with a fault plan and tracing off.
    pub fn with_fault(topology: Topology, cost: CostModel, fault: FaultPlan) -> Arc<Self> {
        Self::with_config(topology, cost, fault, TraceConfig::Off)
    }

    /// A world with explicit fault plan and trace configuration, driven
    /// by the thread engine.
    pub fn with_config(
        topology: Topology,
        cost: CostModel,
        fault: FaultPlan,
        trace: TraceConfig,
    ) -> Arc<Self> {
        Self::with_runtime(topology, cost, fault, trace, RunnerEngine::Threads)
    }

    /// A world with an explicit execution engine on top of
    /// [`World::with_config`]; [`RunnerEngine::Tasks`] attaches the
    /// cooperative scheduler every blocking wait then parks on.
    pub fn with_runtime(
        topology: Topology,
        cost: CostModel,
        fault: FaultPlan,
        trace: TraceConfig,
        engine: RunnerEngine,
    ) -> Arc<Self> {
        fault.validate_or_panic(topology.ranks());
        crate::recover::install_quiet_panic_hook();
        let ranks = topology.ranks();
        let locals = (0..ranks).map(|_| Arc::new(RankLocal::default())).collect();
        let traces = trace
            .is_on()
            .then(|| (0..ranks).map(|_| TraceSink::default()).collect());
        Arc::new(Self {
            topology,
            cost,
            fault,
            poison: AtomicBool::new(false),
            locals,
            traces,
            recovery_armed: AtomicUsize::new(0),
            failed: Mutex::new(BTreeMap::new()),
            agree: AgreeCell::default(),
            events: EventCounts::new(ranks),
            sched: engine.scheduler(ranks),
        })
    }

    /// Whether any rank has failed (collectives must abort).
    pub fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed)
    }

    /// Mark the run as failed and wake every parked rank, so blocked
    /// peers abort at once.
    pub fn poison_now(&self) {
        self.poison.store(true, Ordering::Relaxed);
        self.wake_all();
    }

    /// Abort the calling rank because a peer failed: poison-propagation
    /// panic with a typed payload that [`crate::runner::try_run`]
    /// recognizes as collateral damage rather than a root cause.
    pub(crate) fn abort_peer_failed(&self, me_global: usize) -> ! {
        std::panic::panic_any(RankAbort(RankError::PeerFailed { rank: me_global }))
    }

    /// Whether any rank is currently inside a recoverable section.
    pub fn recovery_armed(&self) -> bool {
        self.recovery_armed.load(Ordering::Relaxed) > 0
    }

    pub(crate) fn arm_recovery(&self) {
        self.recovery_armed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn disarm_recovery(&self) {
        self.recovery_armed.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record a rank failure (idempotent: the first registered root
    /// cause wins). Safe to call whether or not recovery is armed.
    /// Wakes every parked rank: blocked survivors re-check their
    /// recovery-interrupt predicate, and the agreement re-derives its
    /// dead set.
    pub fn mark_rank_failed(&self, rank: usize, err: RankError) {
        self.failed.lock().entry(rank).or_insert(err);
        self.wake_all();
    }

    /// The registered root cause for `rank`, if it has failed.
    pub(crate) fn rank_failed(&self, rank: usize) -> Option<RankError> {
        self.failed.lock().get(&rank).cloned()
    }

    /// Whether a blocked wait over `members` should unwind into the
    /// recovery layer: recovery is armed and a member of this
    /// communicator has failed.
    pub(crate) fn recovery_interrupt(&self, members: &[usize]) -> bool {
        if !self.recovery_armed() {
            return false;
        }
        let failed = self.failed.lock();
        members.iter().any(|r| failed.contains_key(r))
    }

    /// The wake token of global rank `me_global` (see
    /// [`crate::sched`]): read it *before* evaluating the predicate a
    /// subsequent [`World::park`] waits on.
    #[inline]
    pub(crate) fn wake_token(&self, me_global: usize) -> u64 {
        self.events.token(me_global)
    }

    /// Wake global rank `r` if it is parked (one atomic increment if
    /// it is not).
    #[inline]
    pub(crate) fn wake_rank(&self, r: usize) {
        self.wake_ranks([r]);
    }

    /// Wake every rank in `ranks`; under the task engine the parked
    /// ones are queued for a worker slot under one scheduler lock.
    #[inline]
    pub(crate) fn wake_ranks<I>(&self, ranks: I)
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        crate::sched::wake(&self.events, self.sched.as_deref(), ranks);
    }

    /// Wake every rank (poison / failure-registration fan-out).
    pub(crate) fn wake_all(&self) {
        self.wake_ranks(0..self.locals.len());
    }

    /// One blocking step of a wait loop: park `me_global` until a wake
    /// moves its epoch past `token` (read via [`World::wake_token`]
    /// *before* the caller last evaluated its wake predicate, so a
    /// wake racing the check cuts the park short instead of being
    /// lost). Under the task engine the rank also hands its worker
    /// slot over while parked. While the world is poisoned the park is
    /// bounded by [`POISON_POLL`], which paces the combine-in-flight
    /// grace window of [`CommState::collective_view`].
    pub(crate) fn park(&self, me_global: usize, token: u64) {
        let backstop = if self.poisoned() {
            POISON_POLL
        } else {
            PARK_BACKSTOP
        };
        crate::sched::park(
            &self.events,
            self.sched.as_deref(),
            me_global,
            token,
            backstop,
        );
    }
}

/// One in-flight point-to-point message.
pub(crate) struct Message {
    pub src: usize,
    pub tag: u64,
    /// Position in the sender's `(src, tag)` stream; the receiver uses
    /// it to discard stray duplicates injected by the fault layer.
    pub seq: u64,
    pub payload: Box<dyn Any + Send>,
    /// Virtual time at which the payload is fully available at the
    /// receiver.
    pub arrival_ns: u64,
}

#[derive(Default)]
struct MailboxState {
    queue: VecDeque<Message>,
    /// Next expected sequence number per `(src, tag)` stream; messages
    /// below it are duplicates of already-delivered payloads.
    next_seq: HashMap<(usize, u64), u64>,
}

/// One rank's point-to-point inbox. A push does not wake the owner:
/// the sender wakes the destination rank once its pushes are done
/// (see `Comm::send`).
#[derive(Default)]
pub(crate) struct Mailbox {
    state: Mutex<MailboxState>,
}

impl Mailbox {
    pub fn push(&self, msg: Message) {
        self.state.lock().queue.push_back(msg);
    }

    /// Blocking receive of the first live message matching `src` and
    /// `tag`. Duplicate deliveries (same stream, already-consumed
    /// sequence number) are discarded idempotently. Aborts with a
    /// [`RankError::PeerFailed`] panic if the world is poisoned while
    /// waiting, or with a [`crate::recover::RecoveryInterrupt`] if
    /// recovery is armed and a member of `members` has failed;
    /// `me_global` attributes a poison abort to the caller.
    pub fn pop(
        &self,
        world: &World,
        members: &[usize],
        me_global: usize,
        src: usize,
        tag: u64,
    ) -> Message {
        loop {
            // Wake token first: a push landing after the scan below
            // must cut the park short (see [`World::park`]).
            let token = world.wake_token(me_global);
            let mut st = self.state.lock();
            let mut ix = 0;
            while ix < st.queue.len() {
                let m = &st.queue[ix];
                if m.src != src || m.tag != tag {
                    ix += 1;
                    continue;
                }
                let expected = st.next_seq.get(&(src, tag)).copied().unwrap_or(0);
                let seq = m.seq;
                if seq < expected {
                    // Stray duplicate of a message already delivered:
                    // drop it without touching the virtual clock.
                    st.queue.remove(ix);
                    continue;
                }
                st.next_seq.insert((src, tag), seq + 1);
                return st.queue.remove(ix).expect("index in bounds");
            }
            drop(st);
            if world.poisoned() {
                world.abort_peer_failed(me_global);
            }
            if world.recovery_interrupt(members) {
                crate::recover::interrupt();
            }
            world.park(me_global, token);
        }
    }
}

/// Type-erased generation-broadcast rendezvous for collectives (see
/// [`CommState::collective_view`] for the protocol).
///
/// No counter is ever reset. Every member deposits exactly once per
/// generation, so generation `g` is complete when `arrived` reaches
/// `(g + 1) · size`, and every member departs exactly once, so its
/// exit barrier is complete when `departed` does. The deposit slots and
/// the published output need no per-generation copies either:
/// generation `g + 1` combines only after every member has arrived at
/// it, i.e. after every member has read generation `g`'s output and
/// departed.
pub(crate) struct CollectiveCell {
    /// Deposits over all generations, minus retracted ones. Every
    /// update is an AcqRel read-modify-write, so the increment that
    /// completes a generation acquires every member's deposit.
    arrived: AtomicU64,
    /// Generations whose output is published; the combiner's Release
    /// store hands the output to every waiter's Acquire load.
    published: AtomicU64,
    /// Departures over all generations (the exit-barrier counter);
    /// AcqRel increments, Acquire loads at the barrier.
    departed: AtomicU64,
    /// Per-rank deposit slots, written by their owner and drained by
    /// the combiner; never contended.
    deposits: Box<[Mutex<Deposit>]>,
    /// Output of the newest published generation. Written by its
    /// combiner before `published`, read by members after it, cleared
    /// by its last departer; the arrival and departure counts order
    /// those phases, so it needs no lock.
    output: UnsafeCell<Published>,
}

// SAFETY: the counters are atomics and the deposit slots are mutexes
// over `Send` payloads, both `Sync` by themselves. `output` holds only
// `Send + Sync` data and is accessed in the phases described on the
// field, each of which happens-after the previous one through the
// `arrived` / `published` / `departed` atomics, so no access races.
unsafe impl Sync for CollectiveCell {}

#[derive(Default)]
struct Deposit {
    input: Option<Box<dyn Any + Send>>,
    enter_ns: u64,
}

struct Published {
    output: Option<Arc<dyn Any + Send + Sync>>,
    /// Per-rank virtual completion times.
    end_ns: Vec<u64>,
}

impl CollectiveCell {
    pub fn new(size: usize) -> Self {
        Self {
            arrived: AtomicU64::new(0),
            published: AtomicU64::new(0),
            departed: AtomicU64::new(0),
            deposits: (0..size).map(|_| Mutex::default()).collect(),
            output: UnsafeCell::new(Published {
                output: None,
                end_ns: vec![0; size],
            }),
        }
    }
}

/// Context handed to the combine closure of a collective.
pub struct CollectiveCtx<'a> {
    /// The cost model of the run.
    pub cost: &'a CostModel,
    /// The topology of the run.
    pub topology: &'a Topology,
    /// Communicator-rank -> global-rank mapping.
    pub global_ranks: &'a [usize],
    /// Maximum entry clock over all participants: the earliest instant
    /// the collective can start.
    pub enter_max_ns: u64,
    /// Most expensive link class spanned by this communicator; the
    /// standard charge rate for synchronizing collectives.
    pub worst_link: crate::topology::LinkClass,
}

/// Virtual completion times decided by a combine closure.
pub enum EndTimes {
    /// All ranks finish together (synchronizing collectives).
    Uniform(u64),
    /// Rank `i` finishes at `v[i]` (personalized exchanges).
    PerRank(Vec<u64>),
}

/// Backing state of one communicator.
pub struct CommState {
    /// The machine-wide context this communicator lives in.
    pub world: Arc<World>,
    /// Communicator-rank -> global-rank.
    pub global_ranks: Vec<usize>,
    /// Most expensive link class spanned by the members.
    pub worst_link: crate::topology::LinkClass,
    pub(crate) cell: CollectiveCell,
    pub(crate) mailboxes: Vec<Mailbox>,
}

impl CommState {
    /// A communicator over `global_ranks` (index = communicator rank).
    pub fn new(world: Arc<World>, global_ranks: Vec<usize>) -> Arc<Self> {
        let n = global_ranks.len();
        assert!(n > 0, "communicator must have at least one member");
        let worst_link = world.topology.worst_link(&global_ranks);
        Arc::new(Self {
            world,
            global_ranks,
            worst_link,
            cell: CollectiveCell::new(n),
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
        })
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.global_ranks.len()
    }

    /// Execute one collective as rank `rank` (communicator-local),
    /// whose completed-collective count is `my_gen`. The `combine`
    /// closure runs exactly once per generation, on the last-arriving
    /// rank, and sees the inputs of all ranks ordered by rank; `extract`
    /// then runs once per rank against the shared output (`Arc::clone`
    /// for collectives that hand the output out as is).
    ///
    /// The protocol, one generation:
    ///
    /// 1. Each member deposits its input and entry clock in its own
    ///    slot and counts itself in with one atomic increment.
    /// 2. The member whose increment completes the generation combines,
    ///    writes the output and end times, publishes them with a
    ///    Release store of the generation count, and wakes the other
    ///    members. Everyone else parks on its own eventcount until it
    ///    sees the publish.
    /// 3. Members read the output without a lock, run `extract`, and
    ///    count themselves out; the last one drops the cell's reference
    ///    to the output. With `exit_barrier`, members also wait until
    ///    every member has counted out, and the last one wakes them.
    ///
    /// Inputs may be **borrowed views of rank-local memory** (raw
    /// slices of the caller's buffers). Two guarantees make that sound:
    ///
    /// - `extract` runs while the depositor of every input is still
    ///   inside this call, so combine *and* extract may read borrowed
    ///   data.
    /// - With `exit_barrier`, no rank returns (and thus no borrowed
    ///   buffer can be dropped or mutated) until **every** rank has
    ///   finished its `extract` — required when extract itself
    ///   dereferences views of peer memory, as the all-to-all copy-out
    ///   does.
    ///
    /// Poison handling must never let a rank unwind while a peer can
    /// still read its views:
    /// - while the generation is incomplete: retract our own deposit
    ///   first, then abort — the combine can no longer observe our
    ///   views;
    /// - once the generation is complete the combiner owns the inputs;
    ///   it never blocks, so wait out a grace period for the output.
    ///   Only if it died mid-combine (output will never appear, views
    ///   are never read again) do we abort;
    /// - between obtaining the output and the exit barrier (the extract
    ///   window) there are **no** aborts: every rank that saw the
    ///   output departs unconditionally, so the barrier cannot
    ///   deadlock.
    ///
    /// A recovery interrupt likewise retracts first, and only while
    /// the generation is incomplete; a dead combiner is a real panic
    /// and reaches the waiters through the poison path instead.
    pub fn collective_view<T, R, Q, F, G>(
        &self,
        rank: usize,
        my_gen: u64,
        input: T,
        combine: F,
        extract: G,
        exit_barrier: bool,
    ) -> Q
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &CollectiveCtx<'_>) -> (R, EndTimes),
        G: FnOnce(&Arc<R>) -> Q,
    {
        let world = &self.world;
        let cell = &self.cell;
        let me_global = self.global_ranks[rank];
        let me = &world.locals[me_global];
        let enter_ns = me.now_ns();
        // The arrival (and departure) count that completes my_gen.
        let full = (my_gen + 1) * self.size() as u64;

        {
            let mut slot = cell.deposits[rank].lock();
            debug_assert!(slot.input.is_none(), "double entry into collective");
            slot.input = Some(Box::new(input));
            slot.enter_ns = enter_ns;
        }
        if cell.arrived.fetch_add(1, Ordering::AcqRel) + 1 == full {
            self.combine_and_publish(rank, my_gen, combine);
        } else {
            self.await_output(rank, me_global, my_gen, full);
        }

        // SAFETY: generation `my_gen` is published (Acquire above), and
        // the output is only cleared after every member, us included,
        // has departed.
        let (out, end) = unsafe {
            let published = &*cell.output.get();
            let out = published
                .output
                .clone()
                .expect("output present")
                .downcast::<R>()
                .expect("uniform collective result type");
            (out, published.end_ns[rank])
        };
        let result = if exit_barrier {
            // Peers read views of this rank's memory during their
            // extract: hold every rank until all extracts are done.
            let result = extract(&out);
            drop(out);
            if self.depart(full) {
                self.world.wake_ranks(self.global_ranks.iter().copied());
            } else {
                loop {
                    let token = world.wake_token(me_global);
                    if cell.departed.load(Ordering::Acquire) >= full {
                        break;
                    }
                    world.park(me_global, token);
                }
            }
            result
        } else {
            self.depart(full);
            extract(&out)
        };

        // Advance this rank's clock to the collective's end and account
        // the waiting + transfer as communication time.
        me.advance_to_ns(end);
        me.counters
            .comm_ns
            .fetch_add(end.saturating_sub(enter_ns), Ordering::Relaxed);
        me.counters.collectives.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Last arriver of generation `my_gen`: combine the rank-ordered
    /// deposits, publish the output, wake the other members.
    fn combine_and_publish<T, R, F>(&self, rank: usize, my_gen: u64, combine: F)
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &CollectiveCtx<'_>) -> (R, EndTimes),
    {
        let world = &self.world;
        let cell = &self.cell;
        let mut enter_max_ns = 0;
        let inputs: Vec<T> = cell
            .deposits
            .iter()
            .map(|slot| {
                let mut slot = slot.lock();
                enter_max_ns = enter_max_ns.max(slot.enter_ns);
                *slot
                    .input
                    .take()
                    .expect("all ranks deposited")
                    .downcast::<T>()
                    .expect("uniform collective payload type")
            })
            .collect();
        // Link-degradation windows are sampled at the collective's
        // start time, so a whole collective sees one (deterministic)
        // cost model.
        let cost_now = world.fault.cost_at(&world.cost, enter_max_ns);
        let ctx = CollectiveCtx {
            cost: &cost_now,
            topology: &world.topology,
            global_ranks: &self.global_ranks,
            enter_max_ns,
            worst_link: self.worst_link,
        };
        let (out, ends) = combine(inputs, &ctx);
        // SAFETY: every member has arrived at this generation, so all
        // of them are done with the previous generation's output.
        let published = unsafe { &mut *cell.output.get() };
        match ends {
            EndTimes::Uniform(t) => published.end_ns.fill(t),
            EndTimes::PerRank(v) => {
                assert_eq!(
                    v.len(),
                    self.size(),
                    "PerRank end times must cover every rank"
                );
                published.end_ns.copy_from_slice(&v);
            }
        }
        published.output = Some(Arc::new(out));
        cell.published.store(my_gen + 1, Ordering::Release);
        let me_global = self.global_ranks[rank];
        world.wake_ranks(
            self.global_ranks
                .iter()
                .copied()
                .filter(|&g| g != me_global),
        );
    }

    /// Park until generation `my_gen` is published, aborting (after
    /// retracting our deposit) on poison or recovery interrupt while
    /// the generation is incomplete; see [`CommState::collective_view`].
    fn await_output(&self, rank: usize, me_global: usize, my_gen: u64, full: u64) {
        let world = &self.world;
        let mut grace = 0u32;
        loop {
            let token = world.wake_token(me_global);
            if self.cell.published.load(Ordering::Acquire) > my_gen {
                return;
            }
            if world.poisoned() {
                if self.retract(rank, full) {
                    world.abort_peer_failed(me_global);
                }
                // Combine in flight: it never blocks, so the output
                // appears shortly unless the combiner itself died.
                grace += 1;
                if grace > POISON_GRACE_POLLS {
                    world.abort_peer_failed(me_global);
                }
            }
            if world.recovery_interrupt(&self.global_ranks) && self.retract(rank, full) {
                crate::recover::interrupt();
            }
            world.park(me_global, token);
        }
    }

    /// Pull our deposit back out of an incomplete generation, so the
    /// combine can never observe it. Returns `false` — leaving the
    /// deposit in place — once the generation is complete and the
    /// combine owns the inputs.
    fn retract(&self, rank: usize, full: u64) -> bool {
        let arrived = &self.cell.arrived;
        let mut now = arrived.load(Ordering::Acquire);
        while now < full {
            match arrived.compare_exchange_weak(now, now - 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.cell.deposits[rank].lock().input = None;
                    return true;
                }
                Err(seen) => now = seen,
            }
        }
        false
    }

    /// Count this rank out of the generation whose departures complete
    /// at `full`. The last departer drops the cell's reference to the
    /// output and returns `true`.
    fn depart(&self, full: u64) -> bool {
        let cell = &self.cell;
        let last = cell.departed.fetch_add(1, Ordering::AcqRel) + 1 == full;
        if last {
            // SAFETY: every member has departed, so none reads the
            // output again, and the next combine waits for our arrival.
            unsafe { (*cell.output.get()).output = None };
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn world(p: usize) -> Arc<World> {
        World::new(Topology::new(p, p.min(16), 4, 7), CostModel::default())
    }

    #[test]
    fn single_rank_collective_combines_immediately() {
        let w = world(1);
        let st = CommState::new(w, vec![0]);
        let out = st.collective_view(
            0,
            0,
            41u32,
            |inputs, ctx| {
                assert_eq!(inputs, vec![41]);
                (inputs[0] + 1, EndTimes::Uniform(ctx.enter_max_ns + 5))
            },
            Arc::clone,
            false,
        );
        assert_eq!(*out, 42);
        assert_eq!(st.world.locals[0].now_ns(), 5);
    }

    #[test]
    fn multi_rank_collective_sums_and_syncs_clocks() {
        let w = world(4);
        let st = CommState::new(w.clone(), vec![0, 1, 2, 3]);
        // Give ranks skewed clocks.
        for (r, local) in w.locals.iter().enumerate() {
            local.advance_ns(10 * r as u64);
        }
        std::thread::scope(|s| {
            for r in 0..4 {
                let st = st.clone();
                s.spawn(move || {
                    let out = st.collective_view(
                        r,
                        0,
                        r as u64,
                        |xs, ctx| {
                            (
                                xs.iter().sum::<u64>(),
                                EndTimes::Uniform(ctx.enter_max_ns + 100),
                            )
                        },
                        Arc::clone,
                        false,
                    );
                    assert_eq!(*out, 6);
                });
            }
        });
        for local in &w.locals {
            assert_eq!(local.now_ns(), 30 + 100);
        }
    }

    #[test]
    fn cell_is_reusable_across_generations() {
        let w = world(2);
        let st = CommState::new(w, vec![0, 1]);
        std::thread::scope(|s| {
            for r in 0..2 {
                let st = st.clone();
                s.spawn(move || {
                    for g in 0..50u64 {
                        let out = st.collective_view(
                            r,
                            g,
                            g,
                            |xs, ctx| (xs[0] + xs[1], EndTimes::Uniform(ctx.enter_max_ns)),
                            Arc::clone,
                            g % 2 == 1,
                        );
                        assert_eq!(*out, 2 * g);
                    }
                });
            }
        });
    }

    #[test]
    fn mailbox_matches_src_and_tag() {
        let w = world(2);
        let mb = Mailbox::default();
        mb.push(Message {
            src: 1,
            tag: 7,
            seq: 0,
            payload: Box::new(1u8),
            arrival_ns: 0,
        });
        mb.push(Message {
            src: 0,
            tag: 7,
            seq: 0,
            payload: Box::new(2u8),
            arrival_ns: 0,
        });
        let m = mb.pop(&w, &[0, 1], 0, 0, 7);
        assert_eq!(*m.payload.downcast::<u8>().unwrap(), 2);
        let m = mb.pop(&w, &[0, 1], 0, 1, 7);
        assert_eq!(*m.payload.downcast::<u8>().unwrap(), 1);
    }

    #[test]
    fn mailbox_discards_duplicate_sequence_numbers() {
        let w = world(2);
        let mb = Mailbox::default();
        mb.push(Message {
            src: 1,
            tag: 3,
            seq: 0,
            payload: Box::new(10u8),
            arrival_ns: 5,
        });
        // A stray duplicate of seq 0 and the real next message.
        mb.push(Message {
            src: 1,
            tag: 3,
            seq: 0,
            payload: Box::new(()),
            arrival_ns: 9,
        });
        mb.push(Message {
            src: 1,
            tag: 3,
            seq: 1,
            payload: Box::new(11u8),
            arrival_ns: 12,
        });
        let m = mb.pop(&w, &[0, 1], 0, 1, 3);
        assert_eq!(*m.payload.downcast::<u8>().unwrap(), 10);
        let m = mb.pop(&w, &[0, 1], 0, 1, 3);
        assert_eq!(
            *m.payload.downcast::<u8>().unwrap(),
            11,
            "duplicate must be skipped"
        );
        assert_eq!(m.arrival_ns, 12);
    }

    #[test]
    fn poison_unblocks_receiver_with_typed_abort() {
        let w = world(2);
        let mb = Mailbox::default();
        let payload = std::thread::scope(|s| {
            let wref = &w;
            let mbref = &mb;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                wref.poison_now();
            });
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mbref.pop(wref, &[0, 1], 0, 1, 0);
            }))
            .expect_err("poison must abort the blocked receiver")
        });
        let abort = payload
            .downcast::<RankAbort>()
            .expect("typed abort payload");
        assert_eq!(abort.0, RankError::PeerFailed { rank: 0 });
    }
}
