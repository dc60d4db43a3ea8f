//! Two-level histogram sort — the paper's §VII future work: "We see
//! the most potential in efficient sampling mechanisms to reduce the
//! number of histogramming rounds, while *reducing the group size of
//! communicating ranks* at the same time."
//!
//! Level 1 splits the machine into `g` processor groups: only `g-1`
//! splitters are histogrammed machine-wide, and one all-to-all moves
//! every key into its group. Level 2 then runs the ordinary histogram
//! sort *inside* each group: its `ALLREDUCE`s span `P/g` ranks instead
//! of `P`, attacking exactly the strong-scaling bottleneck Fig. 2b
//! exposes — at the price the paper acknowledges for such schemes: the
//! data moves twice, and each level pays a communicator split.

use dhs_runtime::{AllToAllAlgo, Comm, Work};
use dhs_shm::kernels::ladder_bounds_typed;
use dhs_shm::Kernels;

use crate::key::Key;
use crate::sort::{histogram_sort, Partitioning, SortConfig, SortStats};
use crate::splitter::find_splitters;

/// Sort with one level of group splitting. `groups` controls the
/// level-1 fan-out; `0` picks `⌈√P⌉` (the AMS/HykSort convention the
/// paper cites). Only perfect partitioning is supported (the in-place
/// case all the paper's benchmarks use).
pub fn histogram_sort_two_level<K: Key>(
    comm: &Comm,
    local: &mut Vec<K>,
    cfg: &SortConfig,
    groups: usize,
) -> SortStats {
    assert!(
        matches!(cfg.partitioning, Partitioning::Perfect),
        "two-level sort currently supports perfect partitioning only"
    );
    let p = comm.size();
    let g = if groups == 0 {
        (p as f64).sqrt().ceil() as usize
    } else {
        groups
    };
    let g = g.clamp(1, p);
    if g <= 1 || g >= p {
        // Degenerates to the flat algorithm.
        return histogram_sort(comm, local, cfg);
    }

    let t_begin = comm.now_ns();
    let mut stats = SortStats {
        n_in: local.len(),
        ..SortStats::default()
    };
    let elem = std::mem::size_of::<K>() as u64;

    // Shared local sort.
    let sp = comm.span("local_sort");
    local.sort_unstable();
    comm.charge(Work::SortElems {
        n: local.len() as u64,
        elem_bytes: elem,
    });
    stats.local_sort_ns = sp.finish();

    let sp = comm.span("prepare");
    let caps: Vec<usize> = comm.allgather(local.len());
    let n_total: u64 = caps.iter().map(|&c| c as u64).sum();
    if n_total == 0 {
        stats.prepare_ns += sp.finish();
        stats.n_out = local.len();
        debug_assert_eq!(stats.total_ns(), comm.now_ns() - t_begin);
        return stats;
    }
    stats.prepare_ns += sp.finish();

    // Level 1: g-1 group splitters at the group capacity boundaries.
    let group_start = |grp: usize| grp * p / g;
    let group_of = |r: usize| {
        (0..g)
            .find(|&grp| group_start(grp) <= r && r < group_start(grp + 1))
            .expect("every rank lies in a group")
    };
    let sp = comm.span("histogram");
    let mut targets = Vec::with_capacity(g - 1);
    let mut acc = 0u64;
    for grp in 0..g - 1 {
        acc += caps[group_start(grp)..group_start(grp + 1)]
            .iter()
            .map(|&c| c as u64)
            .sum::<u64>();
        targets.push(acc);
    }
    let slack = crate::splitter::slack_for(n_total, p, cfg.epsilon);
    let l1 = find_splitters(comm, local, &targets, slack);
    stats.iterations += l1.iterations;
    stats.probes += l1.probes;
    stats.histogram_ns += sp.finish();

    // Level-1 exchange: the g-way plan, but routed so each bucket goes
    // to one member of its group (spread by sender rank).
    let sp = comm.span("prepare");
    let send = plan_group_exchange(
        comm,
        local,
        &l1,
        g,
        &group_start,
        Kernels::for_policy(cfg.kernels),
    );
    stats.prepare_ns += sp.finish();

    let sp = comm.span("exchange");
    let received = comm
        .exchange(&send[..], AllToAllAlgo::OneFactor)
        .into_data();
    comm.charge(Work::SortElems {
        n: received.len() as u64,
        elem_bytes: elem,
    });
    let mut mine = received;
    mine.sort_unstable();
    *local = mine;
    stats.exchange_ns += sp.finish();

    // Level 2: histogramming inside the group, targeting the ORIGINAL
    // capacities of the group's members (perfect partitioning must
    // restore each rank's input size, not the transient level-1
    // distribution). The split is the blocking, linear-cost collective
    // the paper warns about.
    // The communicator split and the group-emptiness allreduce are
    // exchange *preparation*: without a span here their virtual time
    // would be attributed to no phase at all.
    let sp = comm.span("prepare");
    let my_group = group_of(comm.rank());
    let sub = comm.split(my_group as u64, comm.rank() as u64);
    let member_caps: &[usize] = &caps[group_start(my_group)..group_start(my_group + 1)];
    let mut l2_targets = Vec::with_capacity(member_caps.len().saturating_sub(1));
    let mut acc2 = 0u64;
    for &c in &member_caps[..member_caps.len() - 1] {
        acc2 += c as u64;
        l2_targets.push(acc2);
    }

    // An entirely empty group (possible under sparse layouts) has
    // nothing left to do.
    let group_total: u64 = sub.allreduce_sum(vec![local.len() as u64])[0];
    if group_total == 0 {
        stats.prepare_ns += sp.finish();
        stats.n_out = local.len();
        debug_assert_eq!(stats.total_ns(), comm.now_ns() - t_begin);
        return stats;
    }
    stats.prepare_ns += sp.finish();

    let sp = comm.span("histogram");
    let l2 = find_splitters(&sub, local, &l2_targets, slack);
    stats.iterations += l2.iterations;
    stats.probes += l2.probes;
    stats.histogram_ns += sp.finish();

    let sp = comm.span("prepare");
    let plan2 =
        crate::exchange::plan_exchange_with(&sub, local, &l2, Kernels::for_policy(cfg.kernels));
    stats.prepare_ns += sp.finish();

    let sp = comm.span("exchange");
    let received = crate::exchange::exchange_data(&sub, local, &plan2, cfg.exchange_algo);
    stats.exchange_ns += sp.finish();

    let sp = comm.span("merge");
    let n_recv = received.total_len() as u64;
    let ways = received.runs().filter(|r| !r.is_empty()).count() as u64;
    match cfg.merge {
        dhs_merge::MergeAlgo::Resort => comm.charge(Work::SortElems {
            n: n_recv,
            elem_bytes: elem,
        }),
        _ => comm.charge(Work::MergeElems {
            n: n_recv,
            ways: ways.max(2),
            elem_bytes: elem,
        }),
    }
    *local = dhs_merge::kway_merge(cfg.merge, &received.as_slices());
    stats.merge_ns += sp.finish();
    stats.n_out = local.len();
    debug_assert_eq!(
        stats.total_ns(),
        comm.now_ns() - t_begin,
        "span-derived phase totals must cover the sort's virtual time"
    );
    stats
}

/// Per-destination-rank send segments for the level-1 exchange: each
/// group's slice of `sorted_local` goes to one member of that group,
/// every other rank gets an empty slice.
fn plan_group_exchange<'a, K: Key>(
    comm: &Comm,
    sorted_local: &'a [K],
    l1: &crate::splitter::SplitterResult<K>,
    g: usize,
    group_start: &dyn Fn(usize) -> usize,
    kernels: Kernels,
) -> Vec<&'a [K]> {
    let p = comm.size();
    let rank = comm.rank();
    // Reuse the Algorithm 4 refinement over the g-way plan by treating
    // the groups as destinations: build a fake g-rank cut vector with
    // the same exclusive-scan logic as `plan_exchange`, specialized
    // here because the communicator has P ranks, not g.
    let elem = std::mem::size_of::<K>() as u64;
    comm.charge(Work::BinarySearches {
        searches: 2 * (g as u64 - 1),
        n: sorted_local.len() as u64,
    });
    let mut lowers = Vec::with_capacity(g - 1);
    let mut contingents = Vec::with_capacity(g - 1);
    // Kernel path for native integer keys: all group-splitter bounds
    // in one batched branchless-search call.
    let mut bounds = Vec::with_capacity(2 * (g - 1));
    if ladder_bounds_typed(
        kernels,
        sorted_local,
        l1.splitters.len(),
        |i| l1.splitters[i].key.to_bits() as u64,
        0,
        &mut bounds,
    ) {
        for pair in bounds.chunks_exact(2) {
            lowers.push(pair[0]);
            contingents.push(pair[1] - pair[0]);
        }
    } else {
        for info in &l1.splitters {
            let l = sorted_local.partition_point(|x| *x < info.key) as u64;
            let u = sorted_local.partition_point(|x| *x <= info.key) as u64;
            lowers.push(l);
            contingents.push(u - l);
        }
    }
    let before_me = comm.exscan_sum_vec(&contingents);
    let mut cuts = vec![0usize];
    for (i, info) in l1.splitters.iter().enumerate() {
        let excess = info.realized - info.global_lower;
        let take = excess.saturating_sub(before_me[i]).min(contingents[i]);
        cuts.push((lowers[i] + take) as usize);
    }
    cuts.push(sorted_local.len());
    for i in 1..cuts.len() {
        if cuts[i] < cuts[i - 1] {
            cuts[i] = cuts[i - 1];
        }
    }

    comm.charge(Work::MoveBytes(sorted_local.len() as u64 * elem));
    let mut send: Vec<&[K]> = vec![&[]; p];
    for grp in 0..g {
        let gs = group_start(grp);
        let ge = group_start(grp + 1);
        let size_g = (ge - gs).max(1);
        let peer = gs + rank % size_g;
        send[peer] = &sorted_local[cuts[grp]..cuts[grp + 1]];
    }
    send
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn keys_for(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
        let mut x = (rank as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % modulus
            })
            .collect()
    }

    fn check(p: usize, n: usize, modulus: u64, groups: usize) {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            let stats = histogram_sort_two_level(comm, &mut local, &SortConfig::default(), groups);
            (local, stats)
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|((l, _), _)| l.clone()).collect();
        assert_eq!(got, expect, "p={p} g={groups}");
        for ((l, _), _) in &out {
            assert_eq!(l.len(), n, "perfect partitioning per rank");
        }
    }

    #[test]
    fn sorts_with_sqrt_groups() {
        check(16, 300, u64::MAX, 0);
        check(9, 200, u64::MAX, 3);
        check(8, 250, 13, 2);
    }

    #[test]
    fn degenerate_group_counts() {
        check(6, 100, 1 << 20, 1); // falls back to flat
        check(6, 100, 1 << 20, 6); // every rank its own group
    }

    #[test]
    fn uneven_group_sizes() {
        check(10, 150, u64::MAX, 3);
        check(7, 120, 100, 2);
    }

    #[test]
    fn sparse_input() {
        let out = run(&ClusterConfig::small_cluster(8), |comm| {
            let mut local = if comm.rank() < 2 {
                keys_for(comm.rank(), 400, 1 << 20)
            } else {
                Vec::new()
            };
            histogram_sort_two_level(comm, &mut local, &SortConfig::default(), 0);
            local.len()
        });
        let sizes: Vec<usize> = out.into_iter().map(|(l, _)| l).collect();
        assert_eq!(sizes, vec![400, 400, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn level_iterations_accumulate() {
        let out = run(&ClusterConfig::small_cluster(16), |comm| {
            let mut local = keys_for(comm.rank(), 2000, 1 << 30);
            histogram_sort_two_level(comm, &mut local, &SortConfig::default(), 4)
        });
        for (stats, _) in out {
            assert!(stats.iterations > 0);
            assert_eq!(stats.n_out, 2000);
        }
    }
}
