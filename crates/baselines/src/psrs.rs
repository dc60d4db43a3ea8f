//! Parallel Sorting by Regular Sampling (paper §III-A, refs \[12\], \[13\]):
//! sample sort with *regular* instead of random samples — probes are
//! taken at regular positions of the locally **sorted** data, which in
//! practice yields near-perfect balancing deterministically.

use dhs_core::Key;
use dhs_merge::{kway_merge, MergeAlgo};
use dhs_runtime::{AllToAllAlgo, Comm, Work};

use crate::stats::AlgoStats;

/// Configuration of PSRS.
#[derive(Debug, Clone, Copy)]
pub struct PsrsConfig {
    /// Merge engine for the received runs.
    pub merge: MergeAlgo,
}

impl Default for PsrsConfig {
    fn default() -> Self {
        Self {
            merge: MergeAlgo::TournamentTree,
        }
    }
}

/// Sort the distributed vector by PSRS.
pub fn psrs<K: Key>(comm: &Comm, local: &mut Vec<K>, cfg: &PsrsConfig) -> AlgoStats {
    let mut stats = AlgoStats {
        converged: true,
        rounds: 1,
        ..AlgoStats::default()
    };
    let p = comm.size();
    let elem = std::mem::size_of::<K>() as u64;

    // Step 1: local sort.
    let sp_t0 = comm.span("sort_merge");
    local.sort_unstable();
    comm.charge(Work::SortElems {
        n: local.len() as u64,
        elem_bytes: elem,
    });
    let sort_in_ns = sp_t0.finish();

    // Step 2: regular sampling — P-1 probes at positions (i+1)·n/P of
    // the sorted local data; gather everywhere; take the P-1 regular
    // splitters of the sorted sample.
    let sp_t1 = comm.span("splitting");
    let probes: Vec<K> = if local.is_empty() {
        Vec::new()
    } else {
        (1..p)
            .map(|i| local[(i * local.len() / p).min(local.len() - 1)])
            .collect()
    };
    let splitters = comm.gather_reduce(
        probes,
        move |gathered| {
            let mut pool: Vec<K> = gathered.into_iter().flatten().collect();
            pool.sort_unstable();
            if pool.is_empty() {
                Vec::new()
            } else {
                (1..p)
                    .map(|i| pool[(i * pool.len() / p).min(pool.len() - 1)])
                    .collect()
            }
        },
        |r: &Vec<K>| (r.len() * elem as usize) as u64,
    );
    stats.splitter_ns = sp_t1.finish();

    // Step 3: partition (binary search, data already sorted) and
    // exchange.
    let sp_t2 = comm.span("exchange");
    comm.charge(Work::BinarySearches {
        searches: splitters.len() as u64,
        n: local.len() as u64,
    });
    let mut buckets: Vec<Vec<K>> = Vec::with_capacity(p);
    let mut start = 0usize;
    for spl in splitters.iter() {
        let end = local.partition_point(|x| *x <= *spl);
        buckets.push(local[start..end].to_vec());
        start = end;
    }
    buckets.push(local[start..].to_vec());
    if buckets.len() < p {
        buckets.resize_with(p, Vec::new);
    }
    comm.charge(Work::MoveBytes(local.len() as u64 * elem));
    let received = comm.exchange(buckets, AllToAllAlgo::OneFactor);
    stats.exchange_ns = sp_t2.finish();

    // Step 4: k-way merge of sorted runs.
    let sp_t3 = comm.span("sort_merge");
    let n_recv: u64 = received.total_len() as u64;
    let ways = received.runs().filter(|r| !r.is_empty()).count() as u64;
    match cfg.merge {
        MergeAlgo::Resort => comm.charge(Work::SortElems {
            n: n_recv,
            elem_bytes: elem,
        }),
        _ => comm.charge(Work::MergeElems {
            n: n_recv,
            ways: ways.max(2),
            elem_bytes: elem,
        }),
    }
    *local = kway_merge(cfg.merge, &received.as_slices());
    stats.sort_merge_ns = sort_in_ns + (sp_t3.finish());
    stats.n_out = local.len();
    stats
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

    fn check(p: usize, n: usize, modulus: u64) -> Vec<usize> {
        let out = run(&ClusterConfig::small_cluster(p), move |comm| {
            let mut local = keys_for(comm.rank(), n, modulus);
            psrs(comm, &mut local, &PsrsConfig::default());
            local
        });
        let mut expect: Vec<u64> = (0..p).flat_map(|r| keys_for(r, n, modulus)).collect();
        expect.sort_unstable();
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got, expect);
        out.into_iter().map(|(l, _)| l.len()).collect()
    }

    #[test]
    fn sorts_correctly() {
        check(4, 1000, u64::MAX);
        check(5, 333, 1 << 16);
        check(3, 100, 1);
    }

    #[test]
    fn regular_sampling_balances_well_on_uniform_input() {
        let sizes = check(8, 4000, u64::MAX);
        let max = *sizes.iter().max().expect("non-empty");
        // PSRS guarantees < 2n/p per rank; uniform data lands well
        // under 1.5x in practice.
        assert!(max < 4000 * 3 / 2, "PSRS imbalance too high: {sizes:?}");
    }

    #[test]
    fn handles_empty_ranks() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let mut local = if comm.rank() >= 2 {
                keys_for(comm.rank(), 400, 1 << 20)
            } else {
                Vec::new()
            };
            psrs(comm, &mut local, &PsrsConfig::default());
            local
        });
        let got: Vec<u64> = out.iter().flat_map(|(l, _)| l.clone()).collect();
        assert_eq!(got.len(), 800);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }
}
