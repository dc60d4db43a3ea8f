//! # dhs-workloads — input generation for the sorting experiments
//!
//! Bit-exact MT19937-64 (the generator family the paper uses via the
//! C++ STL), the key distributions of the evaluation section, and
//! per-rank partition layouts including the sparse cases the paper
//! highlights.
//!
//! ```
//! use dhs_workloads::{Distribution, Layout, rank_local_keys};
//!
//! // Rank 2 of 8's slice of the paper's uniform workload.
//! let keys = rank_local_keys(Distribution::paper_uniform(),
//!                            Layout::Balanced, 1 << 12, 8, 2, /*seed*/ 1);
//! assert_eq!(keys.len(), (1 << 12) / 8);
//! ```

#![warn(missing_docs)]
pub mod dist;
pub mod epoch;
pub mod layout;
pub mod mt;

pub use dist::{f64_to_ordered_u64, ordered_u64_to_f64, Distribution};
pub use epoch::{epoch_rank_keys, EpochProfile, EpochStream};
pub use layout::{even_split, offsets, proportional_split, Layout};
pub use mt::{rank_seed, Mt19937_64, SplitMix64};

/// Generate rank `rank`'s local keys for a global workload of `n_total`
/// keys over `p` ranks: deterministic in `(dist, layout, n_total, p,
/// rank, seed)` and independent across ranks.
pub fn rank_local_keys(
    dist: Distribution,
    layout: Layout,
    n_total: usize,
    p: usize,
    rank: usize,
    seed: u64,
) -> Vec<u64> {
    let sizes = layout.sizes(n_total, p);
    let n_local = sizes[rank];
    match dist {
        // Nearly-sorted must look globally nearly sorted: generate each
        // rank's window of the global ramp, then perturb locally.
        Distribution::NearlySorted { perturb_permille } => {
            let offs = offsets(&sizes);
            let mut v: Vec<u64> = (offs[rank]..offs[rank] + n_local)
                .map(|i| (i as u64) * 16)
                .collect();
            let mut g = Mt19937_64::new(rank_seed(seed, rank));
            let swaps = n_local * perturb_permille as usize / 1000;
            for _ in 0..swaps {
                if n_local < 2 {
                    break;
                }
                let i = g.below(n_local as u64) as usize;
                let j = g.below(n_local as u64) as usize;
                v.swap(i, j);
            }
            v
        }
        _ => dist.generate_u64(n_local, rank_seed(seed, rank)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_slices_cover_layout() {
        let n = 1000;
        let p = 7;
        let total: usize = (0..p)
            .map(|r| {
                rank_local_keys(Distribution::paper_uniform(), Layout::Balanced, n, p, r, 3).len()
            })
            .sum();
        assert_eq!(total, n);
    }

    #[test]
    fn ranks_get_different_streams() {
        let a = rank_local_keys(Distribution::paper_uniform(), Layout::Balanced, 64, 2, 0, 3);
        let b = rank_local_keys(Distribution::paper_uniform(), Layout::Balanced, 64, 2, 1, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn nearly_sorted_is_globally_coherent() {
        let p = 4;
        let n = 4000;
        let mut all = Vec::new();
        for r in 0..p {
            all.extend(rank_local_keys(
                Distribution::NearlySorted {
                    perturb_permille: 5,
                },
                Layout::Balanced,
                n,
                p,
                r,
                1,
            ));
        }
        let inversions = all.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(
            inversions < n / 20,
            "global stream should be nearly sorted: {inversions}"
        );
    }

    #[test]
    fn sparse_layout_leaves_ranks_empty() {
        let keys = rank_local_keys(
            Distribution::paper_uniform(),
            Layout::SparseFront {
                empty_permille: 500,
            },
            100,
            4,
            0,
            1,
        );
        assert!(keys.is_empty());
    }
}
