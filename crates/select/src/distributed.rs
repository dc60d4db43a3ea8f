//! Distributed selection (paper Algorithm 1, after Saukas & Song \[30\]):
//! find the key of global rank `k` across all processors' partitions
//! without redistributing any data.
//!
//! Each round every rank contributes its local median, weighted by its
//! partition size; the weighted median of those medians discards at
//! least a quarter of the global working set, so the recursion depth is
//! `O(log P)` with one allgather + one allreduce per round.

use dhs_runtime::{Comm, Work};

use crate::sequential::{partition3, quickselect};
use crate::weighted::weighted_median;

/// Below this global working-set size the remainder is gathered and
/// solved sequentially, as the paper suggests ("if the size becomes too
/// small ... switch to a single processor").
const SEQUENTIAL_CUTOFF: u64 = 2048;

/// Statistics of one distributed selection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Weighted-median rounds executed.
    pub rounds: u32,
    /// Global working-set size when the sequential cutoff kicked in
    /// (zero if the recursion converged by itself).
    pub gathered: u64,
}

/// The `k`-th order statistic (0-based) of the union of all ranks'
/// `local` slices. All ranks receive the same result. Duplicate keys
/// are allowed; empty local partitions are allowed (sparse inputs).
///
/// # Panics
/// Panics if the global input is empty or `k` is out of range.
pub fn dselect<K>(comm: &Comm, local: &[K], k: u64) -> K
where
    K: Ord + Copy + Send + Sync + 'static,
{
    dselect_with_stats(comm, local, k).0
}

/// [`dselect`] plus round statistics.
pub fn dselect_with_stats<K>(comm: &Comm, local: &[K], k: u64) -> (K, SelectStats)
where
    K: Ord + Copy + Send + Sync + 'static,
{
    // One span covers the whole selection; the RAII guard closes it on
    // every return path (including the gather fast path).
    let _sp = comm.span("dselect");
    let elem = std::mem::size_of::<K>() as u64;
    let mut active: Vec<K> = local.to_vec();
    comm.charge(Work::MoveBytes(active.len() as u64 * elem));
    let mut k = k;
    let mut stats = SelectStats::default();

    let mut total: u64 = comm.allreduce_sum(vec![active.len() as u64])[0];
    assert!(total > 0, "dselect on globally empty input");
    assert!(k < total, "order statistic {k} out of global range {total}");

    loop {
        if total <= SEQUENTIAL_CUTOFF {
            stats.gathered = total;
            // Gather the remaining working set everywhere and finish
            // sequentially (identical on every rank).
            let gathered = comm.allgatherv(active);
            let mut rest: Vec<K> = gathered.iter().flatten().copied().collect();
            comm.charge(Work::SortElems {
                n: rest.len() as u64,
                elem_bytes: elem,
            });
            let result = quickselect(&mut rest, k as usize);
            return (result, stats);
        }

        stats.rounds += 1;

        // Local median, weighted by partition size. Empty partitions
        // contribute no candidate.
        let candidate: Option<(K, u64)> = if active.is_empty() {
            None
        } else {
            let mut scratch = active.clone();
            let n = scratch.len();
            comm.charge(Work::Compares(2 * n as u64));
            let m = quickselect(&mut scratch, (n - 1) / 2);
            Some((m, n as u64))
        };
        // The paper normalizes weights by N (line 6 of Algorithm 1);
        // integer partition sizes are an exact equivalent.
        let medians = comm.allgather(candidate);
        let mut weighted: Vec<(K, u64)> = medians.into_iter().flatten().collect();
        debug_assert!(
            !weighted.is_empty(),
            "some rank must hold data while total > 0"
        );
        comm.charge(Work::Compares(2 * weighted.len() as u64));
        let pivot = weighted_median(&mut weighted);

        // 3-way partition around the pivot; reduce the split sizes.
        comm.charge(Work::Compares(active.len() as u64));
        comm.charge(Work::MoveBytes(active.len() as u64 * elem));
        let (l, u) = partition3(&mut active, pivot);
        let sums = comm.allreduce_sum(vec![l as u64, (u - l) as u64]);
        let (big_l, big_e) = (sums[0], sums[1]);

        if k < big_l {
            active.truncate(l);
            total = big_l;
        } else if k < big_l + big_e {
            return (pivot, stats);
        } else {
            active.drain(..u);
            k -= big_l + big_e;
            total -= big_l + big_e;
        }
    }
}

/// Convenience: the global median (lower median for even sizes).
pub fn dmedian<K>(comm: &Comm, local: &[K]) -> K
where
    K: Ord + Copy + Send + Sync + 'static,
{
    let total: u64 = comm.allreduce_sum(vec![local.len() as u64])[0];
    assert!(total > 0, "median of globally empty input");
    dselect(comm, local, (total - 1) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    fn seeded_keys(rank: usize, n: usize, modulus: u64) -> Vec<u64> {
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

    fn check_kth(p: usize, n_per_rank: usize, modulus: u64, ks: &[u64]) {
        for &k in ks {
            let out = run(&ClusterConfig::small_cluster(p), |comm| {
                let local = seeded_keys(comm.rank(), n_per_rank, modulus);
                dselect(comm, &local, k)
            });
            // Reference: sort everything.
            let mut all: Vec<u64> = (0..p)
                .flat_map(|r| seeded_keys(r, n_per_rank, modulus))
                .collect();
            all.sort_unstable();
            for (v, _) in out {
                assert_eq!(v, all[k as usize], "k={k}, p={p}");
            }
        }
    }

    #[test]
    fn selects_extremes_and_middle() {
        let total = 4 * 5000;
        check_kth(
            4,
            5000,
            u64::MAX,
            &[0, 1, (total / 2) as u64, (total - 1) as u64],
        );
    }

    #[test]
    fn survives_heavy_duplicates() {
        let total = 4 * 3000u64;
        check_kth(4, 3000, 7, &[0, total / 3, total - 1]);
    }

    #[test]
    fn works_with_empty_partitions() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let local: Vec<u64> = if comm.rank() < 2 {
                Vec::new()
            } else {
                ((comm.rank() as u64) * 1000..(comm.rank() as u64) * 1000 + 5000).collect()
            };
            dselect(comm, &local, 0)
        });
        for (v, _) in out {
            assert_eq!(v, 2000);
        }
    }

    #[test]
    fn small_inputs_take_sequential_path() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let local = vec![comm.rank() as u64 * 10, comm.rank() as u64 * 10 + 5];
            dselect_with_stats(comm, &local, 3)
        });
        let mut all = [0u64, 5, 10, 15, 20, 25];
        all.sort_unstable();
        for (result, _) in out {
            assert_eq!(result.0, all[3]);
            assert_eq!(result.1.rounds, 0, "tiny input should not iterate");
            assert!(result.1.gathered > 0);
        }
    }

    #[test]
    fn round_count_is_logarithmic() {
        let p = 8;
        let n = 4000;
        let out = run(&ClusterConfig::small_cluster(p), |comm| {
            let local = seeded_keys(comm.rank(), n, u64::MAX);
            dselect_with_stats(comm, &local, (p * n / 2) as u64)
        });
        for ((_, stats), _) in out {
            // |X| shrinks by >= 1/4 per round until the 2048 cutoff:
            // log_{4/3}(32000/2048) ≈ 10; leave generous slack.
            assert!(stats.rounds <= 24, "rounds {}", stats.rounds);
        }
    }

    #[test]
    fn dmedian_matches_reference() {
        let p = 4;
        let n = 2500;
        let out = run(&ClusterConfig::small_cluster(p), |comm| {
            let local = seeded_keys(comm.rank(), n, 1_000_000);
            dmedian(comm, &local)
        });
        let mut all: Vec<u64> = (0..p).flat_map(|r| seeded_keys(r, n, 1_000_000)).collect();
        all.sort_unstable();
        let expect = all[(all.len() - 1) / 2];
        for (v, _) in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        let out = run(&ClusterConfig::small_cluster(1), |comm| {
            let local = seeded_keys(0, 10_000, 1 << 20);
            dselect(comm, &local, 1234)
        });
        let mut all = seeded_keys(0, 10_000, 1 << 20);
        all.sort_unstable();
        assert_eq!(out[0].0, all[1234]);
    }
}
