//! The serial keys path merges the received runs instead of re-sorting
//! them. Merging is only a different way to the same answer, so at
//! `threads_per_rank = 1` the concatenated output must be byte-identical
//! to one global sort of the input, on every shape that stresses the
//! merge: duplicates, all-equal keys, empty ranks, fewer keys than
//! ranks, and float keys at the ends of the ordered bit map.

use dhs::core::{histogram_sort, Key, OrderedF64, SortConfig};
use dhs::runtime::{run, ClusterConfig};
use dhs::workloads::Layout;
use proptest::prelude::*;

/// Per-rank key counts: balanced, with empty ranks, or all on one rank.
fn sizes(layout_ix: u8, n_total: usize, p: usize) -> Vec<usize> {
    let layout = match layout_ix {
        0 => Layout::Balanced,
        1 => Layout::SparseFront {
            empty_permille: 500,
        },
        _ => Layout::SingleRank { holder: p - 1 },
    };
    layout.sizes(n_total, p)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `n` `u64` keys of one shape: full-range, few distinct, all equal,
/// or drawn from the extremes of the key space.
fn u64_keys(shape: u8, n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            let r = xorshift(&mut x);
            match shape {
                0 => r,
                1 => r % 4,
                2 => 7,
                _ => [0, 1, u64::MAX - 1, u64::MAX][(r % 4) as usize],
            }
        })
        .collect()
}

/// `n` float keys over a pool holding ±0.0, ±∞ and the keys whose
/// ordered images are 0 and `u64::MAX`, plus ordinary values.
fn f64_keys(n: usize, seed: u64) -> Vec<OrderedF64> {
    let pool = [
        OrderedF64(-0.0),
        OrderedF64(0.0),
        OrderedF64(f64::INFINITY),
        OrderedF64(f64::NEG_INFINITY),
        OrderedF64::from_bits(0),
        OrderedF64::from_bits(u128::from(u64::MAX)),
        OrderedF64(1.5),
        OrderedF64(-2.25),
        OrderedF64(f64::MIN_POSITIVE),
        OrderedF64(f64::MAX),
    ];
    let mut x = seed | 1;
    (0..n)
        .map(|_| pool[(xorshift(&mut x) % pool.len() as u64) as usize])
        .collect()
}

/// Sort `inputs[r]` on rank `r` and return the concatenated output
/// (as bit images) next to one global sort of all inputs.
fn sort_both_ways<K: Key>(inputs: Vec<Vec<K>>, unique: bool) -> (Vec<u128>, Vec<u128>) {
    let p = inputs.len();
    let cfg = SortConfig::builder()
        .threads_per_rank(1)
        .unique_transform(unique)
        .build()
        .expect("valid config");
    let mut expected: Vec<K> = inputs.iter().flatten().copied().collect();
    expected.sort();
    let caps: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let out = run(&ClusterConfig::small_cluster(p), move |comm| {
        let mut local = inputs[comm.rank()].clone();
        histogram_sort(comm, &mut local, &cfg);
        local
    });
    let got_caps: Vec<usize> = out.iter().map(|(v, _)| v.len()).collect();
    assert_eq!(got_caps, caps, "perfect partitioning restores capacities");
    let got = out
        .into_iter()
        .flat_map(|(v, _)| v)
        .map(Key::to_bits)
        .collect();
    (got, expected.into_iter().map(Key::to_bits).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn serial_merge_matches_a_global_sort_u64(
        p in 1usize..9,
        n_sel in 0usize..3,
        shape in 0u8..4,
        layout_ix in 0u8..3,
        unique in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        // n < p, a few keys per rank, or a few hundred.
        let n_total = [p.saturating_sub(1), 3 * p + 1, 700][n_sel];
        let inputs: Vec<Vec<u64>> = sizes(layout_ix, n_total, p)
            .into_iter()
            .enumerate()
            .map(|(r, n)| u64_keys(shape, n, seed ^ ((r as u64 + 1) * 0x9E37_79B9)))
            .collect();
        let (got, expected) = sort_both_ways(inputs, unique);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn serial_merge_matches_a_global_sort_f64(
        p in 1usize..9,
        n_total in 0usize..600,
        layout_ix in 0u8..3,
        unique in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let inputs: Vec<Vec<OrderedF64>> = sizes(layout_ix, n_total, p)
            .into_iter()
            .enumerate()
            .map(|(r, n)| f64_keys(n, seed ^ ((r as u64 + 1) * 0x9E37_79B9)))
            .collect();
        let (got, expected) = sort_both_ways(inputs, unique);
        prop_assert_eq!(got, expected);
    }
}
