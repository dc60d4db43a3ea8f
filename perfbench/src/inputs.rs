//! The four workloads: their shapes, their seeded inputs (all from
//! `dhs-workloads` generators), and the fingerprints the correctness
//! oracle compares outputs against.

use std::borrow::Cow;

use dhs_core::{histogram_sort, histogram_sort_by, multiset_fingerprint, SortConfig, SortStats};
use dhs_runtime::Comm;
use dhs_workloads::{
    epoch_rank_keys, rank_local_keys, rank_seed, Distribution, EpochProfile, Layout, Mt19937_64,
};

/// One benchmark workload. Why each exists is recorded in
/// `GLOSSARY.md`; the sizes here are the ones stated there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkUniform,
    LargepWeak,
    EpochDrift,
    RecordsClustered,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BulkUniform,
        Workload::LargepWeak,
        Workload::EpochDrift,
        Workload::RecordsClustered,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkUniform => "bulk_uniform",
            Workload::LargepWeak => "largep_weak",
            Workload::EpochDrift => "epoch_drift",
            Workload::RecordsClustered => "records_clustered",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The keys of one op over all ranks (the first epoch for
    /// `epoch_drift`), regenerated for the baseline sort.
    pub fn op_keys(self, p: usize, n: usize, seed: u64) -> Vec<u64> {
        (0..p)
            .flat_map(|r| match self {
                Workload::BulkUniform | Workload::LargepWeak => uniform_keys(p, n, r, seed),
                Workload::EpochDrift => epoch_keys(p, n, r, seed, 0),
                Workload::RecordsClustered => particles(n, r, seed).iter().map(|x| x.key).collect(),
            })
            .collect()
    }

    /// `(ranks, items per rank)`; `smoke` is the reduced self-test size.
    pub fn shape(self, smoke: bool) -> (usize, usize) {
        match (self, smoke) {
            (Workload::BulkUniform, false) => (32, 131_072),
            (Workload::LargepWeak, false) => (512, 256),
            (Workload::EpochDrift, false) => (64, 16_384),
            (Workload::RecordsClustered, false) => (32, 65_536),
            (Workload::LargepWeak, true) => (64, 64),
            (_, true) => (8, 2_048),
        }
    }
}

/// The `dhs serve --profile shifting-zipf` stream.
pub const EPOCH_PROFILE: EpochProfile = EpochProfile::ShiftingZipf {
    items: 1 << 16,
    s: 1.2,
    shift: 1 << 10,
};

/// Rank `rank`'s uniform keys (paper distribution, balanced layout).
pub fn uniform_keys(p: usize, n: usize, rank: usize, seed: u64) -> Vec<u64> {
    rank_local_keys(
        Distribution::paper_uniform(),
        Layout::Balanced,
        p * n,
        p,
        rank,
        seed,
    )
}

/// Rank `rank`'s batch for epoch `epoch` of the drifting stream.
pub fn epoch_keys(p: usize, n: usize, rank: usize, seed: u64, epoch: u64) -> Vec<u64> {
    epoch_rank_keys(EPOCH_PROFILE, Layout::Balanced, p * n, p, rank, seed, epoch)
}

/// A 32-byte particle record: a Morton key plus 24 bytes of payload
/// (global id, packed coordinates, one opaque word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Particle {
    pub key: u64,
    pub payload: [u64; 3],
}

/// Interleave the low 21 bits of x, y, z into a 63-bit Morton code.
fn morton3(x: u32, y: u32, z: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = v as u64 & 0x1F_FFFF;
        v = (v | (v << 32)) & 0x1F00000000FFFF;
        v = (v | (v << 16)) & 0x1F0000FF0000FF;
        v = (v | (v << 8)) & 0x100F00F00F00F00F;
        v = (v | (v << 4)) & 0x10C30C30C30C30C3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

/// Rank `rank`'s particles: a blob around a rank-specific centre, as
/// in `examples/nbody_morton.rs`, so each rank's keys cluster on a few
/// stretches of the curve and the exchange goes to few destinations.
pub fn particles(n: usize, rank: usize, seed: u64) -> Vec<Particle> {
    let mut g = Mt19937_64::new(rank_seed(seed, rank));
    let center = (
        (rank as u32 % 4) * 400_000 + 200_000,
        (rank as u32 / 4 % 4) * 400_000 + 200_000,
        g.below(1 << 21) as u32 / 4,
    );
    (0..n)
        .map(|i| {
            let mut jitter = |c: u32| {
                let d = (g.below(100_000) as i64 - 50_000) / 2;
                (c as i64 + d).clamp(0, (1 << 21) - 1) as u32
            };
            let (x, y, z) = (jitter(center.0), jitter(center.1), jitter(center.2));
            Particle {
                key: morton3(x, y, z),
                payload: [
                    (rank * n + i) as u64,
                    u64::from(x) | u64::from(y) << 21 | u64::from(z) << 42,
                    g.next_u64(),
                ],
            }
        })
        .collect()
}

/// An item a world workload sorts: plain keys or particle records.
pub trait Item: Clone + Send + Sync + PartialEq + 'static {
    /// A hash of the whole item (payload included) for the
    /// order-independent output fingerprint.
    fn fold(&self) -> u64;
    /// The key view `verify_sorted` checks.
    fn key_view(items: &[Self]) -> Cow<'_, [u64]>;
    /// The library entry point an untraced op calls.
    fn sort(comm: &Comm, local: &mut Vec<Self>, cfg: &SortConfig) -> SortStats;
}

impl Item for u64 {
    fn fold(&self) -> u64 {
        *self
    }
    fn key_view(items: &[Self]) -> Cow<'_, [u64]> {
        Cow::Borrowed(items)
    }
    fn sort(comm: &Comm, local: &mut Vec<Self>, cfg: &SortConfig) -> SortStats {
        histogram_sort(comm, local, cfg)
    }
}

impl Item for Particle {
    fn fold(&self) -> u64 {
        self.payload
            .iter()
            .fold(self.key, |h, &w| mix(h ^ w).rotate_left(17))
    }
    fn key_view(items: &[Self]) -> Cow<'_, [u64]> {
        Cow::Owned(items.iter().map(|r| r.key).collect())
    }
    fn sort(comm: &Comm, local: &mut Vec<Self>, cfg: &SortConfig) -> SortStats {
        histogram_sort_by(comm, local, |r: &Particle| r.key, cfg)
    }
}

/// SplitMix64 finaliser.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Order-independent fingerprint of a distributed multiset: the key
/// fingerprint `verify_sorted` takes, plus one over whole items so a
/// payload separated from its key is caught too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub keys: (u64, u64),
    pub items: (u64, u64),
    pub count: u64,
}

impl Fingerprint {
    /// Fingerprint of one rank's items.
    pub fn of<T: Item>(items: &[T]) -> Self {
        let mut sum = 0u64;
        let mut xor = 0u64;
        for it in items {
            let h = mix(it.fold());
            sum = sum.wrapping_add(h);
            xor ^= h.rotate_left((h % 63) as u32);
        }
        Fingerprint {
            keys: multiset_fingerprint(&T::key_view(items)),
            items: (sum, xor),
            count: items.len() as u64,
        }
    }

    /// Fold another rank's fingerprint in (the same combine
    /// `verify_sorted` applies: wrapping sum and xor).
    pub fn combine(self, o: Self) -> Self {
        Fingerprint {
            keys: (self.keys.0.wrapping_add(o.keys.0), self.keys.1 ^ o.keys.1),
            items: (
                self.items.0.wrapping_add(o.items.0),
                self.items.1 ^ o.items.1,
            ),
            count: self.count + o.count,
        }
    }

    pub fn of_ranks<T: Item>(ranks: &[Vec<T>]) -> Self {
        ranks
            .iter()
            .map(|r| Fingerprint::of(r))
            .fold(Fingerprint::default(), Fingerprint::combine)
    }
}
