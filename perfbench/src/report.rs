//! What one benchmark run collected, and the metrics derived from it.

use std::fmt::Write as _;

use dhs_runtime::{CounterSnapshot, PoolStats};

use crate::trace::{layer_op, LayerOp, Span, LAYERS};

/// One measured op.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub virt_ns: u64,
    pub ok: bool,
}

/// Counts one untraced op left in the runtime and the sort's stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub rounds: u64,
    pub probes: u64,
    /// Collective calls per rank (the most any rank made).
    pub collectives: u64,
    pub bytes_self: u64,
    pub bytes_intra_numa: u64,
    pub bytes_intra_node: u64,
    pub bytes_inter_node: u64,
    pub p2p_messages: u64,
    pub pool_takes: u64,
    pub pool_hits: u64,
}

impl Counts {
    /// Add one rank's counter delta and pool delta.
    pub fn add_rank(&mut self, c: &CounterSnapshot, pool: PoolStats) {
        self.collectives = self.collectives.max(c.collectives);
        self.bytes_self += c.bytes_self;
        self.bytes_intra_numa += c.bytes_intra_numa;
        self.bytes_intra_node += c.bytes_intra_node;
        self.bytes_inter_node += c.bytes_inter_node;
        self.p2p_messages += c.p2p_messages;
        self.pool_takes += pool.takes;
        self.pool_hits += pool.hits;
    }
}

/// Counter delta between two snapshots of one rank.
pub fn counter_delta(a: &CounterSnapshot, b: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        bytes_self: b.bytes_self - a.bytes_self,
        bytes_intra_numa: b.bytes_intra_numa - a.bytes_intra_numa,
        bytes_intra_node: b.bytes_intra_node - a.bytes_intra_node,
        bytes_inter_node: b.bytes_inter_node - a.bytes_inter_node,
        p2p_messages: b.p2p_messages - a.p2p_messages,
        p2p_retries: b.p2p_retries - a.p2p_retries,
        p2p_duplicates: b.p2p_duplicates - a.p2p_duplicates,
        collectives: b.collectives - a.collectives,
        compute_ns: b.compute_ns - a.compute_ns,
        comm_ns: b.comm_ns - a.comm_ns,
    }
}

/// Everything one run collected. Untraced fields are filled in every
/// run; the rest only in the traced run.
#[derive(Debug, Default)]
pub struct Report {
    pub items_per_op: u64,
    /// Splitters one op must place (`p − 1`).
    pub splitters: u64,
    pub setup_ns: Vec<u64>,
    pub setup_ok: bool,
    pub ops: Vec<OpSample>,
    // Traced run only.
    pub traced_wall_ns: Vec<u64>,
    pub spans: Vec<Span>,
    pub traced_ops: u32,
    pub counts: Vec<Counts>,
    pub verify_ns: Vec<u64>,
    pub gen_ns: Vec<u64>,
    pub allreduce_ns: Vec<u64>,
    pub barrier_ns: Vec<u64>,
    pub launch_ns: Vec<u64>,
    pub teardown_ns: Vec<u64>,
    pub output_match: bool,
    pub virtual_match: bool,
    pub seq_sort_ns: Vec<u64>,
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let k = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[k - 1]
}

fn med_u64(xs: &[u64], scale: f64) -> f64 {
    median(&xs.iter().map(|&x| x as f64 * scale).collect::<Vec<_>>())
}

const MS: f64 = 1e-6;
const US: f64 = 1e-3;

/// Ops whose counts the per-layer metrics report (the first ones).
const COUNTED_OPS: usize = 16;

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

impl Report {
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    /// Nearest-rank p90 of op wall time, reported only when at least
    /// ten ops lie beyond it (100 ops or more).
    pub fn op_ms_p90(&self) -> Option<f64> {
        let wall: Vec<f64> = self.ops.iter().map(|o| o.wall_ns as f64 * MS).collect();
        (wall.len() >= 100).then(|| percentile(&wall, 0.9))
    }

    /// End-to-end metrics, measured with tracing off.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Metrics {
        let wall: Vec<f64> = self.ops.iter().map(|o| o.wall_ns as f64 * MS).collect();
        let total_wall_s: f64 = wall.iter().sum::<f64>() / 1e3;
        let n = self.ops.len().max(1) as f64;
        let mut m = Metrics::default();
        m.put("op_ms_p50", median(&wall), "ms");
        m.put(
            "keys_per_s",
            self.items_per_op as f64 * self.ops.len() as f64 / total_wall_s.max(1e-12),
            "1/s",
        );
        m.put(
            "cpu_ms_per_op",
            self.ops.iter().map(|o| o.cpu_ns as f64 * MS).sum::<f64>() / n,
            "ms",
        );
        let virt: Vec<f64> = self.ops.iter().map(|o| o.virt_ns as f64 * US).collect();
        m.put("virtual_makespan_us", median(&virt), "us");
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m.put("setup_s", med_u64(&self.setup_ns, 1e-9), "s");
        m
    }

    /// Per-layer metrics, from the traced run.
    pub fn per_layer(&self, nproc: usize) -> Metrics {
        let mut m = Metrics::default();
        let ops: Vec<Vec<Span>> = (0..self.traced_ops)
            .map(|op| self.spans.iter().filter(|s| s.op == op).cloned().collect())
            .collect();
        type Field = fn(&LayerOp) -> u64;
        let fields: [(&str, Field, f64, &'static str); 4] = [
            ("host_ms", |l| l.host_ns, MS, "ms"),
            ("cpu_ms", |l| l.cpu_ns, MS, "ms"),
            ("wait_ms", |l| l.wait_ns, MS, "ms"),
            ("virtual_us", |l| l.virt_ns, US, "us"),
        ];
        for name in LAYERS {
            let per_op: Vec<LayerOp> = ops.iter().map(|spans| layer_op(spans, name)).collect();
            for (suffix, field, scale, unit) in fields {
                let xs: Vec<u64> = per_op.iter().map(field).collect();
                m.put(&format!("core.{name}.{suffix}"), med_u64(&xs, scale), unit);
            }
        }
        // Counts come from a fixed prefix of ops, so they repeat exactly
        // for a seed even where the ops differ (epoch_drift) and the
        // run reaches a host-dependent number of them.
        let counts = &self.counts[..self.counts.len().min(COUNTED_OPS)];
        let c = |f: fn(&Counts) -> u64| med_u64(&counts.iter().map(f).collect::<Vec<_>>(), 1.0);
        let probes = c(|c| c.probes);
        m.put("core.splitter.rounds", c(|c| c.rounds), "count");
        m.put("core.splitter.probes", probes, "count");
        m.put(
            "core.splitter.probe_yield",
            self.splitters as f64 / probes.max(1.0),
            "ratio",
        );
        m.put("core.verify.host_ms", med_u64(&self.verify_ns, MS), "ms");
        m.put(
            "runtime.allreduce_us",
            med_u64(&self.allreduce_ns, US),
            "us",
        );
        m.put("runtime.barrier_us", med_u64(&self.barrier_ns, US), "us");
        m.put("runtime.collectives", c(|c| c.collectives), "count");
        m.put("runtime.launch_ms", med_u64(&self.launch_ns, MS), "ms");
        m.put("runtime.teardown_ms", med_u64(&self.teardown_ns, MS), "ms");
        m.put("runtime.bytes_self", c(|c| c.bytes_self), "B");
        m.put("runtime.bytes_intra_numa", c(|c| c.bytes_intra_numa), "B");
        m.put("runtime.bytes_intra_node", c(|c| c.bytes_intra_node), "B");
        m.put("runtime.bytes_inter_node", c(|c| c.bytes_inter_node), "B");
        m.put("runtime.p2p_messages", c(|c| c.p2p_messages), "count");
        m.put("runtime.pool_takes", c(|c| c.pool_takes), "count");
        let takes: u64 = counts.iter().map(|c| c.pool_takes).sum();
        let hits: u64 = counts.iter().map(|c| c.pool_hits).sum();
        m.put(
            "runtime.pool_hit_rate",
            hits as f64 / takes.max(1) as f64,
            "ratio",
        );
        m.put("workloads.gen_ms", med_u64(&self.gen_ns, MS), "ms");
        m.put("baseline.seq_sort_ms", med_u64(&self.seq_sort_ns, MS), "ms");
        m.put("host.nproc", nproc as f64, "count");
        let untraced = med_u64(&self.ops.iter().map(|o| o.wall_ns).collect::<Vec<_>>(), 1.0);
        let traced = med_u64(&self.traced_wall_ns, 1.0);
        m.put(
            "trace.overhead_frac",
            traced / untraced.max(1.0) - 1.0,
            "ratio",
        );
        m.put(
            "trace.output_match",
            f64::from(u8::from(self.output_match)),
            "bool",
        );
        m.put(
            "trace.virtual_match",
            f64::from(u8::from(self.virtual_match)),
            "bool",
        );
        m
    }
}
