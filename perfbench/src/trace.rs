//! The traced run: the default sort pipeline recomposed as a sequence
//! of public calls, with a span around each call on each rank.
//!
//! Spans are taken from outside the program, at the boundary between
//! two calls: one sample of host time, thread CPU and the rank's
//! virtual clock per boundary. They stay in memory and are written out
//! when the benchmark ends.

use std::fmt::Write as _;

use dhs_core::exchange::{exchange_data, plan_exchange_with};
use dhs_core::{
    balanced_targets, find_splitters_seeded, perfect_targets, slack_for, Kernels, Partitioning,
    SortConfig, SplitterOptions, WarmStart,
};
use dhs_runtime::{Comm, Work};

use crate::inputs::{Item, Particle};
use crate::probe::{now_ns, thread_cpu_ns};

/// The layers of one op in pipeline order; each is a child of `op`.
pub const LAYERS: [&str; 6] = [
    "local_sort",
    "prepare",
    "splitter",
    "exchange_plan",
    "exchange",
    "merge",
];

/// One boundary sample on one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub host_ns: u64,
    pub cpu_ns: u64,
    pub virt_ns: u64,
}

/// Take a boundary sample.
pub fn mark(comm: &Comm, marks: &mut Vec<Mark>) {
    marks.push(Mark {
        host_ns: now_ns(),
        cpu_ns: thread_cpu_ns(),
        virt_ns: comm.now_ns(),
    });
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub op: u32,
    pub rank: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    pub virt_ns: u64,
}

impl Span {
    fn between(
        name: &'static str,
        parent: Option<&'static str>,
        op: u32,
        rank: u32,
        a: Mark,
        b: Mark,
    ) -> Self {
        Span {
            name,
            parent,
            op,
            rank,
            start_ns: a.host_ns,
            end_ns: b.host_ns,
            cpu_ns: b.cpu_ns.saturating_sub(a.cpu_ns),
            virt_ns: b.virt_ns - a.virt_ns,
        }
    }

    pub fn host_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turn every rank's boundary samples of op `op` into spans: one `op`
/// span per rank and one child span per layer.
pub fn spans_of(op: u32, per_rank: &[Vec<Mark>]) -> Vec<Span> {
    let mut out = Vec::new();
    for (rank, m) in per_rank.iter().enumerate() {
        assert_eq!(m.len(), LAYERS.len() + 1, "one mark per layer boundary");
        let rank = rank as u32;
        out.push(Span::between("op", None, op, rank, m[0], m[LAYERS.len()]));
        for (i, name) in LAYERS.iter().enumerate() {
            out.push(Span::between(name, Some("op"), op, rank, m[i], m[i + 1]));
        }
    }
    out
}

/// Per-op figures of one layer across ranks.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerOp {
    /// Slowest rank's span: the layer's share of the critical path.
    pub host_ns: u64,
    /// Thread CPU summed over ranks.
    pub cpu_ns: u64,
    /// Largest per-rank gap between wall and CPU time.
    pub wait_ns: u64,
    /// Largest per-rank virtual-clock advance inside the span.
    pub virt_ns: u64,
}

/// Fold the spans named `name` of one op.
pub fn layer_op(spans: &[Span], name: &str) -> LayerOp {
    let mut l = LayerOp::default();
    for s in spans.iter().filter(|s| s.name == name) {
        l.host_ns = l.host_ns.max(s.host_ns());
        l.cpu_ns += s.cpu_ns;
        l.wait_ns = l.wait_ns.max(s.host_ns().saturating_sub(s.cpu_ns));
        l.virt_ns = l.virt_ns.max(s.virt_ns);
    }
    l
}

/// Spans as JSON lines, one per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        let parent = sp.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            s,
            "{{\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"rank\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"virtual_ns\":{}}}",
            sp.name, sp.op, sp.rank, sp.start_ns, sp.end_ns, sp.cpu_ns, sp.virt_ns
        );
    }
    s
}

/// Splitter options the sort derives from `cfg`.
fn splitter_options(cfg: &SortConfig) -> SplitterOptions {
    SplitterOptions {
        max_iterations: cfg.max_splitter_iterations,
        probes_per_round: cfg.probes_per_round,
        probe_warm_first: cfg.warm_start == WarmStart::SeededWithBrackets,
        kernels: Kernels::for_policy(cfg.kernels),
        ..SplitterOptions::default()
    }
}

/// Global shape: per-rank capacities, boundary targets and ε slack.
fn targets(comm: &Comm, n_local: usize, cfg: &SortConfig) -> (Vec<u64>, u64) {
    let caps: Vec<usize> = comm.allgather(n_local);
    let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
    let targets = match cfg.partitioning {
        Partitioning::Perfect => perfect_targets(&caps),
        Partitioning::Balanced => balanced_targets(n_total, comm.size()),
    };
    (targets, slack_for(n_total, comm.size(), cfg.epsilon))
}

/// An item type whose default pipeline the traced run can recompose.
pub trait Pipeline: Item {
    /// Sort `local` with the default pipeline of `cfg` recomposed from
    /// public calls, pushing a mark before the first call and after
    /// each one. `warm` seeds the splitter search as the library would.
    fn traced(
        comm: &Comm,
        local: &mut Vec<Self>,
        cfg: &SortConfig,
        warm: &[u64],
        marks: &mut Vec<Mark>,
    );
}

/// `histogram_sort`'s default path: comparison local sort, histogram
/// splitters, zero-copy exchange, re-sort merge.
impl Pipeline for u64 {
    fn traced(
        comm: &Comm,
        local: &mut Vec<u64>,
        cfg: &SortConfig,
        warm: &[u64],
        marks: &mut Vec<Mark>,
    ) {
        let elem = std::mem::size_of::<u64>() as u64;
        let kernels = Kernels::for_policy(cfg.kernels);
        comm.threads().configure(cfg.threads_per_rank);
        mark(comm, marks);
        local.sort_unstable();
        comm.charge(Work::SortElems {
            n: local.len() as u64,
            elem_bytes: elem,
        });
        mark(comm, marks);
        let (targets, slack) = targets(comm, local.len(), cfg);
        mark(comm, marks);
        let res = find_splitters_seeded(comm, local, &targets, slack, splitter_options(cfg), warm);
        mark(comm, marks);
        let plan = plan_exchange_with(comm, local, &res, kernels);
        mark(comm, marks);
        let received = exchange_data(comm, local, &plan, cfg.exchange_algo);
        mark(comm, marks);
        comm.charge(Work::SortElems {
            n: received.total_len() as u64,
            elem_bytes: elem,
        });
        *local = received.into_data();
        local.sort_unstable();
        mark(comm, marks);
    }
}

/// `histogram_sort_by`'s path: stable local sort by key, splitters and
/// plan over the key view, owning exchange of the records, stable
/// re-sort merge.
impl Pipeline for Particle {
    fn traced(
        comm: &Comm,
        local: &mut Vec<Particle>,
        cfg: &SortConfig,
        warm: &[u64],
        marks: &mut Vec<Mark>,
    ) {
        let elem = std::mem::size_of::<Particle>() as u64;
        let kernels = Kernels::for_policy(cfg.kernels);
        comm.threads().configure(cfg.threads_per_rank);
        mark(comm, marks);
        local.sort_by_key(|r| r.key);
        comm.charge(Work::SortElems {
            n: local.len() as u64,
            elem_bytes: elem,
        });
        mark(comm, marks);
        let (targets, slack) = targets(comm, local.len(), cfg);
        let keys: Vec<u64> = local.iter().map(|r| r.key).collect();
        comm.charge(Work::MoveBytes(keys.len() as u64 * 8));
        mark(comm, marks);
        let res = find_splitters_seeded(comm, &keys, &targets, slack, splitter_options(cfg), warm);
        mark(comm, marks);
        let plan = plan_exchange_with(comm, &keys, &res, kernels);
        mark(comm, marks);
        comm.charge(Work::MoveBytes(local.len() as u64 * elem));
        let buckets: Vec<Vec<Particle>> = plan
            .segments(local)
            .into_iter()
            .map(|seg| seg.to_vec())
            .collect();
        let received = comm.exchange(buckets, cfg.exchange_algo);
        mark(comm, marks);
        comm.charge(Work::SortElems {
            n: received.total_len() as u64,
            elem_bytes: elem,
        });
        *local = received.into_data();
        local.sort_by_key(|r| r.key);
        mark(comm, marks);
    }
}
