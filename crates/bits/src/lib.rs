// The only crate in the workspace not under `#![forbid(unsafe_code)]`:
// the BMI2 PEXT/PDEP intrinsics in `pext.rs` need `unsafe` for the
// `#[target_feature]` calls. `deny` (not `forbid`) leaves room for the
// narrowly-scoped `#[allow(unsafe_code)]` island there — and nothing
// else; a stray `unsafe` anywhere else in the crate still fails.
#![deny(unsafe_code)]
#![warn(missing_docs)]

//! Bit-mask algebra over the Boolean hypercube `{0,1}^d`.
//!
//! The marginal-release algorithms of Cormode, Kulkarni and Srivastava
//! (SIGMOD 2018) identify a *marginal* by a mask `β ∈ {0,1}^d` whose set
//! bits name the attributes of interest, and a *cell* of that marginal by a
//! sub-mask `γ ⪯ β`. This crate provides the small, heavily-exercised
//! toolkit every other crate builds on:
//!
//! * [`Mask`] — a `u64`-backed attribute subset with the `⪯` partial order;
//! * [`submasks`] — iteration over all `α ⪯ β` (the 2^|β| cells or
//!   Hadamard coefficients of a marginal);
//! * [`masks_of_weight`] / [`masks_of_weight_at_most`] — Gosper-style
//!   enumeration of all k-way marginals of d attributes;
//! * [`compress`] / [`expand`] — software PEXT/PDEP used to translate
//!   between global cell indices `η ∈ {0,1}^d` and local marginal cells
//!   `γ ∈ {0,1}^k`;
//! * [`parity`] / [`pm_one`] — the inner product `⟨i, j⟩ mod 2` that drives
//!   the Hadamard transform;
//! * [`binomial`] and [`WeightRank`] — combinatorial (un)ranking of
//!   low-weight masks, used to index the `T = Σ_{ℓ≤k} C(d,ℓ)` Hadamard
//!   coefficients that suffice for all k-way marginals (Lemma 3.7).

mod binom;
mod mask;
mod pext;
mod rank;
mod subsets;

pub use binom::{binomial, binomial_table, log2_binomial};
pub use mask::Mask;
pub use pext::{compress, compress_portable, expand, expand_portable};
pub use rank::{rank_weight_k, unrank_weight_k, WeightRank};
pub use subsets::{masks_of_weight, masks_of_weight_at_most, submasks, SubmaskIter, WeightIter};

/// Parity of the AND of two masks: `popcount(a & b) mod 2`.
///
/// This is the inner product `⟨a, b⟩` over GF(2) used throughout the
/// Hadamard transform (Definition 3.5 of the paper).
#[inline(always)]
#[must_use]
pub fn parity(a: u64, b: u64) -> u64 {
    u64::from((a & b).count_ones()) & 1
}

/// `(−1)^{⟨a,b⟩}` as an `f64` — the sign of a Hadamard matrix entry.
#[inline(always)]
#[must_use]
pub fn pm_one(a: u64, b: u64) -> f64 {
    if parity(a, b) == 0 {
        1.0
    } else {
        -1.0
    }
}

/// `(−1)^{⟨a,b⟩}` as an `i8` (`+1` or `−1`).
#[inline(always)]
#[must_use]
pub fn pm_one_i8(a: u64, b: u64) -> i8 {
    if parity(a, b) == 0 {
        1
    } else {
        -1
    }
}

/// The positions of a word's set bits, ascending — a `trailing_zeros`
/// walk, one step per set bit.
#[inline]
#[must_use]
pub fn ones(word: u64) -> Ones {
    Ones(word)
}

/// Iterator behind [`ones`].
#[derive(Clone, Copy, Debug)]
pub struct Ones(u64);

impl Iterator for Ones {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let tz = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(tz)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_walks_set_bits_ascending() {
        assert_eq!(ones(0).count(), 0);
        assert_eq!(ones(0b1011_0001).collect::<Vec<_>>(), [0, 4, 5, 7]);
        assert_eq!(ones(1 << 63).collect::<Vec<_>>(), [63]);
        assert_eq!(ones(u64::MAX).count(), 64);
    }

    #[test]
    fn parity_basics() {
        assert_eq!(parity(0, 0), 0);
        assert_eq!(parity(0b1011, 0b0001), 1);
        assert_eq!(parity(0b1011, 0b1010), 0);
        assert_eq!(parity(u64::MAX, u64::MAX), 0); // 64 ones -> even
        assert_eq!(parity(u64::MAX, 1), 1);
    }

    #[test]
    fn pm_one_matches_parity() {
        for a in 0u64..32 {
            for b in 0u64..32 {
                let expect = if parity(a, b) == 0 { 1.0 } else { -1.0 };
                assert_eq!(pm_one(a, b), expect);
                assert_eq!(f64::from(pm_one_i8(a, b)), expect);
            }
        }
    }
}
