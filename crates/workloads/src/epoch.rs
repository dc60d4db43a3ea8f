//! Epoch streams for the long-lived sort service.
//!
//! The service benchmarks feed [`crate::Distribution`] batches through
//! `dhs_core::EpochSorter` one **epoch** at a time; what matters for
//! warm-started splitter search is how much the key population *drifts*
//! between epochs. [`EpochProfile`] captures the three regimes the
//! `epoch_service` bench measures:
//!
//! * [`EpochProfile::Stationary`] — the same batch arrives every epoch
//!   (the ideal case: identical order statistics, so a warm ladder is
//!   exactly right and rounds collapse to one);
//! * [`EpochProfile::ShiftingZipf`] — a skewed population whose popular
//!   head rotates a fixed number of items per epoch (slow drift: the
//!   ladder is nearly right);
//! * [`EpochProfile::Churn`] — a fixed fraction of the previous batch
//!   is replaced by fresh draws each epoch (compounding drift).
//!
//! Every stream is deterministic in `(profile, layout, n_total, p,
//! rank, seed, epoch)` and independent across ranks, like
//! [`crate::rank_local_keys`].

use crate::dist::Distribution;
use crate::layout::Layout;
use crate::mt::{rank_seed, SplitMix64};
use crate::rank_local_keys;

/// How the key population evolves from one epoch to the next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpochProfile {
    /// The identical batch arrives every epoch: epoch `e`'s keys equal
    /// epoch 0's keys bit-for-bit. The warm ladder from epoch `e` is
    /// exact for epoch `e+1`.
    Stationary {
        /// Population the (single) batch is drawn from.
        dist: Distribution,
    },
    /// Zipf-skewed population over `items` distinct values with
    /// exponent `s`, whose item identities rotate by `shift` positions
    /// each epoch — the popular head slowly walks through the key
    /// space while the rank-frequency shape stays fixed.
    ShiftingZipf {
        /// Number of distinct items in the population.
        items: u64,
        /// Zipf exponent (larger = more skew).
        s: f64,
        /// Items the population rotates by per epoch (`0` =
        /// stationary).
        shift: u64,
    },
    /// Each epoch keeps `keep_permille`/1000 of the previous epoch's
    /// keys (positionally) and replaces the rest with fresh draws from
    /// `dist` — e.g. `keep_permille: 900` models a working set with
    /// 10% turnover per epoch.
    Churn {
        /// Population replacement keys are drawn from.
        dist: Distribution,
        /// Per-position survival rate in permille, clamped to 1000.
        keep_permille: u32,
    },
}

impl EpochProfile {
    /// A short machine-readable name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EpochProfile::Stationary { .. } => "stationary",
            EpochProfile::ShiftingZipf { .. } => "shifting-zipf",
            EpochProfile::Churn { .. } => "churn",
        }
    }
}

/// Mix an epoch index into a stream seed (splitmix of the golden-ratio
/// increment — cheap, and epoch 0 keeps `seed`'s stream disjoint from
/// later generations).
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    SplitMix64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Generate rank `rank`'s local batch for epoch `epoch` of the stream:
/// deterministic in every argument and independent across ranks, so
/// all ranks of a simulated world can generate their slices locally.
///
/// Churn streams replay generations `1..=epoch` from the epoch-0 base
/// batch, so the cost is `O(epoch · n_local)`: this is the pure-function
/// reference. A caller walking epochs in order should use
/// [`EpochStream`], which yields the same batches at `O(n_local)` each.
///
/// ```
/// use dhs_workloads::{epoch_rank_keys, Distribution, EpochProfile, Layout};
///
/// let st = EpochProfile::Stationary { dist: Distribution::paper_uniform() };
/// let e0 = epoch_rank_keys(st, Layout::Balanced, 1 << 10, 4, 1, 7, 0);
/// let e5 = epoch_rank_keys(st, Layout::Balanced, 1 << 10, 4, 1, 7, 5);
/// assert_eq!(e0, e5); // stationary: the same batch every epoch
/// ```
pub fn epoch_rank_keys(
    profile: EpochProfile,
    layout: Layout,
    n_total: usize,
    p: usize,
    rank: usize,
    seed: u64,
    epoch: u64,
) -> Vec<u64> {
    match profile {
        EpochProfile::Stationary { dist } => rank_local_keys(dist, layout, n_total, p, rank, seed),
        EpochProfile::ShiftingZipf { items, s, shift } => {
            let items = items.max(1);
            // Epoch-independent draws: the drift comes purely from the
            // rotation, so the rank-frequency shape is held fixed.
            let base = rank_local_keys(
                Distribution::Zipf { items, s },
                layout,
                n_total,
                p,
                rank,
                seed,
            );
            let rot = (epoch.wrapping_mul(shift)) % items;
            base.into_iter()
                .map(|z| ((z - 1 + rot) % items + 1) * 7919)
                .collect()
        }
        EpochProfile::Churn {
            dist,
            keep_permille,
        } => {
            let mut v = rank_local_keys(dist, layout, n_total, p, rank, epoch_seed(seed, 0));
            for e in 1..=epoch {
                churn_step(&mut v, dist, keep_permille, rank, seed, e);
            }
            v
        }
    }
}

/// Advance a churn batch from generation `epoch - 1` to `epoch`.
fn churn_step(
    v: &mut [u64],
    dist: Distribution,
    keep_permille: u32,
    rank: usize,
    seed: u64,
    epoch: u64,
) {
    let keep = u64::from(keep_permille.min(1000));
    let gen_seed = rank_seed(epoch_seed(seed, epoch), rank);
    let fresh = dist.generate_u64(v.len(), gen_seed);
    let mut coin = SplitMix64(gen_seed ^ 0xD6E8_FEB8_6659_FD93);
    for (slot, new) in v.iter_mut().zip(fresh) {
        if coin.next_u64() % 1000 >= keep {
            *slot = new;
        }
    }
}

/// One rank's epoch stream, generated incrementally: the endless
/// iterator of [`epoch_rank_keys`] batches for epochs 0, 1, 2, …, at
/// `O(n_local)` per epoch for every profile (a churn stream keeps its
/// previous generation and steps it once instead of replaying from
/// epoch 0).
///
/// ```
/// use dhs_workloads::{epoch_rank_keys, Distribution, EpochProfile, EpochStream, Layout};
///
/// let churn = EpochProfile::Churn { dist: Distribution::paper_uniform(), keep_permille: 900 };
/// let mut stream = EpochStream::new(churn, Layout::Balanced, 1 << 10, 4, 1, 7);
/// let e0 = stream.next().unwrap();
/// let e1 = stream.next().unwrap();
/// assert_eq!(e1, epoch_rank_keys(churn, Layout::Balanced, 1 << 10, 4, 1, 7, 1));
/// assert_ne!(e0, e1);
/// ```
#[derive(Debug, Clone)]
pub struct EpochStream {
    profile: EpochProfile,
    layout: Layout,
    n_total: usize,
    p: usize,
    rank: usize,
    seed: u64,
    /// The epoch the next call yields.
    epoch: u64,
    /// The churn batch of epoch `epoch - 1` (churn profiles only).
    prev: Option<Vec<u64>>,
}

impl EpochStream {
    /// The stream [`epoch_rank_keys`] describes for these arguments,
    /// positioned at epoch 0.
    pub fn new(
        profile: EpochProfile,
        layout: Layout,
        n_total: usize,
        p: usize,
        rank: usize,
        seed: u64,
    ) -> Self {
        Self {
            profile,
            layout,
            n_total,
            p,
            rank,
            seed,
            epoch: 0,
            prev: None,
        }
    }
}

impl Iterator for EpochStream {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        let epoch = self.epoch;
        self.epoch += 1;
        let batch = match (self.profile, self.prev.take()) {
            (
                EpochProfile::Churn {
                    dist,
                    keep_permille,
                },
                Some(mut v),
            ) => {
                churn_step(&mut v, dist, keep_permille, self.rank, self.seed, epoch);
                v
            }
            (profile, _) => epoch_rank_keys(
                profile,
                self.layout,
                self.n_total,
                self.p,
                self.rank,
                self.seed,
                epoch,
            ),
        };
        if matches!(self.profile, EpochProfile::Churn { .. }) {
            self.prev = Some(batch.clone());
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_repeats_the_batch() {
        let pr = EpochProfile::Stationary {
            dist: Distribution::paper_uniform(),
        };
        let a = epoch_rank_keys(pr, Layout::Balanced, 512, 4, 2, 9, 0);
        let b = epoch_rank_keys(pr, Layout::Balanced, 512, 4, 2, 9, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 128);
    }

    #[test]
    fn shifting_zipf_rotates_but_preserves_shape() {
        let pr = EpochProfile::ShiftingZipf {
            items: 1000,
            s: 1.1,
            shift: 50,
        };
        let e0 = epoch_rank_keys(pr, Layout::Balanced, 1024, 4, 0, 5, 0);
        let e1 = epoch_rank_keys(pr, Layout::Balanced, 1024, 4, 0, 5, 1);
        assert_ne!(e0, e1, "the population must drift");
        // The multiset of *frequencies* is rotation-invariant: sorting
        // the per-epoch histograms must agree.
        let hist = |v: &[u64]| {
            let mut h = std::collections::BTreeMap::new();
            for &k in v {
                *h.entry(k).or_insert(0u32) += 1;
            }
            let mut f: Vec<u32> = h.into_values().collect();
            f.sort_unstable();
            f
        };
        assert_eq!(hist(&e0), hist(&e1));
        // And shift: 0 is genuinely stationary.
        let frozen = EpochProfile::ShiftingZipf {
            items: 1000,
            s: 1.1,
            shift: 0,
        };
        assert_eq!(
            epoch_rank_keys(frozen, Layout::Balanced, 1024, 4, 0, 5, 0),
            epoch_rank_keys(frozen, Layout::Balanced, 1024, 4, 0, 5, 3),
        );
    }

    #[test]
    fn churn_replaces_roughly_the_configured_fraction() {
        let pr = EpochProfile::Churn {
            dist: Distribution::paper_uniform(),
            keep_permille: 900,
        };
        let e0 = epoch_rank_keys(pr, Layout::Balanced, 4096, 4, 1, 11, 0);
        let e1 = epoch_rank_keys(pr, Layout::Balanced, 4096, 4, 1, 11, 1);
        let changed = e0.iter().zip(&e1).filter(|(a, b)| a != b).count();
        let frac = changed as f64 / e0.len() as f64;
        assert!(
            (0.05..0.2).contains(&frac),
            "~10% turnover expected, got {frac}"
        );
        // Replay determinism: the same epoch is bit-identical.
        let e1b = epoch_rank_keys(pr, Layout::Balanced, 4096, 4, 1, 11, 1);
        assert_eq!(e1, e1b);
    }

    #[test]
    fn stream_matches_the_reference_for_fifty_epochs() {
        let profiles = [
            EpochProfile::Churn {
                dist: Distribution::paper_uniform(),
                keep_permille: 900,
            },
            EpochProfile::Churn {
                dist: Distribution::Zipf {
                    items: 1000,
                    s: 1.2,
                },
                keep_permille: 500,
            },
            EpochProfile::ShiftingZipf {
                items: 1000,
                s: 1.1,
                shift: 50,
            },
            EpochProfile::Stationary {
                dist: Distribution::paper_uniform(),
            },
        ];
        for pr in profiles {
            for rank in [0, 3] {
                let stream = EpochStream::new(pr, Layout::Balanced, 1000, 4, rank, 13);
                for (epoch, batch) in (0..50).zip(stream) {
                    let reference = epoch_rank_keys(pr, Layout::Balanced, 1000, 4, rank, 13, epoch);
                    assert_eq!(batch, reference, "{} rank {rank} epoch {epoch}", pr.label());
                }
            }
        }
    }
}
