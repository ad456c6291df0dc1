//! Combinatorial (un)ranking of masks, used by `InpHT` to index the set
//! `T = {α : 1 ≤ |α| ≤ k}` of Hadamard coefficients in a dense array.
//!
//! Ranking uses the *combinatorial number system*: a weight-`k` mask with
//! set attribute positions `c_1 < c_2 < … < c_k` has rank
//! `Σ_i C(c_i, i)`, which enumerates weight-`k` masks in increasing numeric
//! order. This means an aggregator can store per-coefficient sums in a flat
//! `Vec` of length `T` instead of a hash map. The inverse direction is a
//! table: [`WeightRank`] keeps the `T` masks in index order, and the
//! arithmetic [`unrank_weight_k`] is the reference its tests check it by.

use crate::{binomial, binomial_table, masks_of_weight_at_most, Mask};

/// Rank of a weight-`k` mask among all weight-`k` masks over any domain,
/// in increasing numeric order. Inverse of [`unrank_weight_k`].
#[must_use]
pub fn rank_weight_k(mask: Mask) -> u64 {
    let mut rank = 0u64;
    for (i, attr) in mask.attrs().enumerate() {
        rank += binomial(u64::from(attr), i as u64 + 1);
    }
    rank
}

/// The `rank`-th weight-`k` mask (0-based, increasing numeric order).
/// Inverse of [`rank_weight_k`].
#[must_use]
pub fn unrank_weight_k(rank: u64, k: u32) -> Mask {
    let mut bits = 0u64;
    let mut r = rank;
    // Choose positions from the highest down: the i-th highest position c
    // satisfies C(c, i) ≤ remaining < C(c+1, i).
    for i in (1..=u64::from(k)).rev() {
        let mut c = i - 1; // smallest position that can host the i-th bit
        while binomial(c + 1, i) <= r {
            c += 1;
        }
        r -= binomial(c, i);
        bits |= 1u64 << c;
    }
    Mask(bits)
}

/// Dense indexer for the coefficient set `T = {α : 1 ≤ |α| ≤ k}` over `d`
/// attributes, ordered by weight then numerically (matching
/// [`crate::masks_of_weight_at_most`]).
///
/// [`index`](Self::index) ranks a mask arithmetically;
/// [`mask`](Self::mask), its inverse, is one load from a table of the
/// `|T|` masks in index order, so an encoder that samples an index pays
/// no unranking. The table takes `8·|T|` bytes, half of what an
/// aggregator's per-coefficient sums and counts take for the same shape.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightRank {
    d: u32,
    k: u32,
    /// `offset[w]` = number of masks with weight in `1..w` (so the block of
    /// weight-`w` masks starts at `offset[w]`).
    offsets: Vec<u64>,
    binom: Vec<Vec<u64>>,
    /// Every indexed mask, at its index.
    masks: Vec<Mask>,
}

impl WeightRank {
    /// Build an indexer for weight-`1..=k` masks over `d` attributes,
    /// allocating its `8·|T|`-byte mask table.
    #[must_use]
    pub fn new(d: u32, k: u32) -> Self {
        assert!(d <= 63 && k <= d, "need k ≤ d ≤ 63");
        let mut offsets = vec![0u64; k as usize + 2];
        for w in 1..=k {
            offsets[w as usize + 1] = offsets[w as usize] + binomial(u64::from(d), u64::from(w));
        }
        WeightRank {
            d,
            k,
            offsets,
            binom: binomial_table(d as usize),
            masks: masks_of_weight_at_most(d, k),
        }
    }

    /// Total number of indexed coefficients, the paper's `|T|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// `true` iff `k == 0` (no indexed coefficients).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Maximum indexed weight.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Dense index of `mask` in `[0, len)`.
    ///
    /// Panics if `mask` has weight 0 or weight > k, or touches attributes
    /// outside the domain.
    #[must_use]
    pub fn index(&self, mask: Mask) -> usize {
        let w = mask.weight();
        assert!(
            w >= 1 && w <= self.k,
            "mask weight {w} outside 1..={}",
            self.k
        );
        assert!(mask.is_subset_of(Mask::full(self.d)), "mask outside domain");
        let mut rank = 0u64;
        for (i, attr) in mask.attrs().enumerate() {
            rank += self.binom[attr as usize].get(i + 1).copied().unwrap_or(0);
        }
        (self.offsets[w as usize] + rank) as usize
    }

    /// Inverse of [`WeightRank::index`]: one table load.
    ///
    /// Panics if `index ≥ len`.
    #[inline]
    #[must_use]
    pub fn mask(&self, index: usize) -> Mask {
        self.masks[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{masks_of_weight, masks_of_weight_at_most};
    use proptest::prelude::*;

    #[test]
    fn rank_matches_enumeration_order() {
        for d in 1..=12u32 {
            for k in 1..=d.min(4) {
                for (i, m) in masks_of_weight(d, k).enumerate() {
                    assert_eq!(rank_weight_k(m), i as u64, "d={d} k={k} m={m}");
                    assert_eq!(unrank_weight_k(i as u64, k), m);
                }
            }
        }
    }

    #[test]
    fn weight_rank_roundtrip_matches_at_most_order() {
        for d in [4u32, 8, 16] {
            for k in 1..=3u32.min(d) {
                let wr = WeightRank::new(d, k);
                let all = masks_of_weight_at_most(d, k);
                assert_eq!(wr.len(), all.len());
                for (i, m) in all.iter().enumerate() {
                    assert_eq!(wr.index(*m), i, "d={d} k={k} m={m}");
                    assert_eq!(wr.mask(i), *m);
                }
            }
        }
    }

    /// The table against the arithmetic unranking it replaced, at every
    /// index of every shape in the grid.
    #[test]
    fn mask_table_matches_arithmetic_unranking() {
        let shapes = (1..=24u32)
            .flat_map(|d| (1..=d.min(4)).map(move |k| (d, k)))
            .chain((5..=12u32).map(|d| (d, d)))
            .chain([(63, 1), (63, 2)]);
        for (d, k) in shapes {
            let wr = WeightRank::new(d, k);
            let mut i = 0;
            for w in 1..=k {
                for rank in 0..binomial(u64::from(d), u64::from(w)) {
                    assert_eq!(wr.mask(i), unrank_weight_k(rank, w), "d={d} k={k} i={i}");
                    assert_eq!(wr.index(wr.mask(i)), i, "d={d} k={k}");
                    i += 1;
                }
            }
            assert_eq!(i, wr.len(), "d={d} k={k}");
        }
    }

    #[test]
    fn paper_sizes() {
        assert_eq!(WeightRank::new(4, 2).len(), 10); // 4 + 6
        assert_eq!(WeightRank::new(8, 2).len(), 36); // 8 + 28
        assert_eq!(WeightRank::new(16, 3).len(), 696);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn rejects_zero_weight() {
        let _ = WeightRank::new(4, 2).index(Mask::EMPTY);
    }

    proptest! {
        #[test]
        fn roundtrip_random(d in 1u32..20, seed in any::<u64>()) {
            let k = 1 + (seed % u64::from(d)) as u32;
            let k = k.min(4);
            let wr = WeightRank::new(d, k);
            let idx = (seed >> 8) as usize % wr.len();
            prop_assert_eq!(wr.index(wr.mask(idx)), idx);
        }
    }
}
