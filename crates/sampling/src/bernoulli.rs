//! Lane-oriented Bernoulli sampling: draw up to 64 i.i.d. biased coins
//! per random word instead of one coin per word.
//!
//! The serial mechanisms spend most of their encode time in
//! `rng.gen_bool(p)` loops — one fresh 64-bit draw *per cell* for the
//! `2^d`-cell unary reports of `InpRR` (and the `2^k` / `w`-cell
//! reports of `MargRR` and `CMS`). This module replaces that with the
//! classic bit-sliced construction: compare each lane's infinite random
//! bit stream against the binary expansion of `p`, digit by digit,
//! using one random word per digit *for all 64 lanes at once*. A lane
//! is decided at the first digit where its stream differs from `p`, so
//! the expected number of words consumed for a full 64-lane word is
//! `E[max of 64 Geometric(1/2)] ≈ 7` — about 9× fewer RNG draws than
//! 64 `gen_bool` calls, and the output is a ready-made bitmask.
//!
//! `p` is quantized to a 64-bit fixed-point fraction (`P(bit = 1) =
//! fixed / 2^64` exactly), finer than the 53-bit resolution of the
//! `gen::<f64>() < p` comparison behind `gen_bool`, so the perturbation
//! distributions are statistically indistinguishable from the serial
//! loops they replace.

use rand::Rng;

/// Quantize a probability to the 64-bit fixed-point threshold used by
/// [`bernoulli_word`]: the returned `t` satisfies `P(lane = 1) = t /
/// 2^64`, within half an ulp of `p`.
///
/// Panics if `p` is not a probability (matching `Rng::gen_bool`).
#[must_use]
pub fn bernoulli_fixed(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let scaled = p * (u64::MAX as f64);
    if scaled >= u64::MAX as f64 {
        // p = 1 (or within an ulp of it): saturate. The resulting lanes
        // are 1 with probability 1 − 2^−64.
        u64::MAX
    } else {
        scaled as u64
    }
}

/// Draw `lanes ≤ 64` i.i.d. `Bernoulli(fixed / 2^64)` bits into the low
/// `lanes` bits of the returned word (high bits are zero).
///
/// Each lane compares its own random bit stream against the binary
/// expansion of the threshold, most-significant digit first; one
/// `rng.gen::<u64>()` word serves one digit of every lane. The number
/// of words consumed is data-dependent (it stops as soon as every lane
/// is decided and no further 1-digits of the threshold remain), but
/// deterministic given the RNG state — the per-user `user_rng(seed, i)`
/// schedule stays reproducible.
#[inline]
pub fn bernoulli_word<R: Rng + ?Sized>(rng: &mut R, fixed: u64, lanes: u32) -> u64 {
    debug_assert!((1..=64).contains(&lanes));
    let full = if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    };
    let mut undecided = full;
    let mut ones = 0u64;
    let mut threshold = fixed;
    // Walk the threshold's digits MSB-first. Once the remaining suffix
    // of the threshold is zero, every still-undecided lane's stream is
    // ≥ the threshold, so it resolves to 0 with no more draws.
    while undecided != 0 && threshold != 0 {
        let digit_one = threshold >> 63 != 0;
        threshold <<= 1;
        let w = rng.gen::<u64>();
        if digit_one {
            // Lanes whose random digit is 0 fall below the threshold.
            ones |= undecided & !w;
            undecided &= w;
        } else {
            // Lanes whose random digit is 1 rise above it.
            undecided &= !w;
        }
    }
    ones
}

/// Fill a caller-provided buffer with `lanes` i.i.d. Bernoulli bits
/// (low-to-high within each word, words in order), from as few RNG
/// words as the lane count allows. `out` must hold `lanes.div_ceil(64)`
/// words; any tail words beyond the lane count are zeroed.
pub fn bernoulli_fill<R: Rng + ?Sized>(rng: &mut R, fixed: u64, lanes: usize, out: &mut [u64]) {
    assert!(
        out.len() == lanes.div_ceil(64),
        "need {} words for {lanes} lanes, got {}",
        lanes.div_ceil(64),
        out.len()
    );
    let mut remaining = lanes;
    for word in out.iter_mut() {
        let here = remaining.min(64) as u32;
        *word = if here == 0 {
            0
        } else {
            bernoulli_word(rng, fixed, here)
        };
        remaining -= here as usize;
    }
}

/// The unary-encoding randomized response of a one-hot vector of
/// `cells` bits whose single 1 sits at `hot`, drawn 64 lanes per word:
/// the hot bit reports 1 with probability `p1` (one `gen_bool`, drawn
/// first), every other bit with probability `p0` ([`bernoulli_word`]).
/// `emit(word, lanes)` receives the perturbed vector as successive
/// words in ascending position order, each holding `lanes = min(64,
/// cells − base)` bits. The schedule is deterministic in the RNG state,
/// so per-user reproducibility (`user_rng(seed, i)`) is preserved.
///
/// This is the one perturbation kernel behind InpRR's `2^d`-cell,
/// MargRR's `2^k`-cell and CMS's `w`-bucket reports; their wire form is
/// these words, verbatim.
#[inline]
pub fn one_hot_words<R: Rng + ?Sized, F: FnMut(u64, u32)>(
    rng: &mut R,
    p1: f64,
    p0: f64,
    cells: u64,
    hot: u64,
    mut emit: F,
) {
    debug_assert!(hot < cells);
    let truth = rng.gen_bool(p1);
    let p0 = bernoulli_fixed(p0);
    let mut base = 0u64;
    while base < cells {
        let lanes = (cells - base).min(64) as u32;
        let mut word = bernoulli_word(rng, p0, lanes);
        if hot >= base && hot - base < u64::from(lanes) {
            let bit = 1u64 << (hot - base);
            if truth {
                word |= bit;
            } else {
                word &= !bit;
            }
        }
        emit(word, lanes);
        base += u64::from(lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn fixed_point_edges() {
        assert_eq!(bernoulli_fixed(0.0), 0);
        assert_eq!(bernoulli_fixed(1.0), u64::MAX);
        let half = bernoulli_fixed(0.5);
        assert_eq!(half, 1u64 << 63);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn rejects_non_probability() {
        let _ = bernoulli_fixed(1.5);
    }

    #[test]
    fn zero_and_near_one_thresholds() {
        let mut rng = StdRng::seed_from_u64(0);
        // p = 0: no draws consumed, all lanes 0.
        let before: u64 = {
            let mut probe = StdRng::seed_from_u64(0);
            probe.gen()
        };
        assert_eq!(bernoulli_word(&mut rng, 0, 64), 0);
        assert_eq!(rng.gen::<u64>(), before, "p = 0 must consume no words");
        // p ≈ 1: overwhelmingly ones.
        let mut rng = StdRng::seed_from_u64(1);
        let w = bernoulli_word(&mut rng, u64::MAX, 64);
        assert!(w.count_ones() >= 60, "{w:b}");
    }

    #[test]
    fn half_probability_consumes_exactly_one_word() {
        // p = 0.5 has the single binary digit 1: lane i is 1 iff its
        // first random digit is 0, i.e. the result is !w of one word.
        let mut probe = StdRng::seed_from_u64(9);
        let w: u64 = probe.gen();
        let after: u64 = probe.gen();
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(bernoulli_word(&mut rng, 1u64 << 63, 64), !w);
        assert_eq!(rng.gen::<u64>(), after);
    }

    #[test]
    fn lane_count_masks_high_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        for lanes in [1u32, 7, 31, 63] {
            let w = bernoulli_word(&mut rng, u64::MAX, lanes);
            assert_eq!(w >> lanes, 0, "lanes {lanes}");
        }
    }

    #[test]
    fn frequencies_match_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        for p in [0.05f64, 0.2497, 0.5, 0.731, 0.95] {
            let fixed = bernoulli_fixed(p);
            let trials = 4_000usize;
            let mut ones = 0u64;
            for _ in 0..trials {
                ones += u64::from(bernoulli_word(&mut rng, fixed, 64).count_ones());
            }
            let f = ones as f64 / (trials * 64) as f64;
            assert!((f - p).abs() < 0.01, "p {p}: observed {f}");
        }
    }

    /// Per-lane independence proxy: adjacent lanes are uncorrelated.
    #[test]
    fn adjacent_lanes_are_uncorrelated() {
        let mut rng = StdRng::seed_from_u64(5);
        let fixed = bernoulli_fixed(0.3);
        let trials = 20_000usize;
        let (mut a, mut b, mut ab) = (0u64, 0u64, 0u64);
        for _ in 0..trials {
            let w = bernoulli_word(&mut rng, fixed, 64);
            a += w & 1;
            b += (w >> 1) & 1;
            ab += (w & (w >> 1)) & 1;
        }
        let (fa, fb, fab) = (
            a as f64 / trials as f64,
            b as f64 / trials as f64,
            ab as f64 / trials as f64,
        );
        assert!((fa - 0.3).abs() < 0.02 && (fb - 0.3).abs() < 0.02);
        assert!((fab - fa * fb).abs() < 0.02, "joint {fab} vs {}", fa * fb);
    }

    #[test]
    fn fill_covers_partial_tail_words() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut out = vec![u64::MAX; 3];
        bernoulli_fill(&mut rng, bernoulli_fixed(0.99), 130, &mut out);
        assert_eq!(out[2] >> 2, 0, "tail word must mask lanes past 130");
        assert!(out[0].count_ones() > 48);
    }

    #[test]
    fn fill_is_deterministic_for_a_seed() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(7);
            let mut out = vec![0u64; 4];
            bernoulli_fill(&mut rng, bernoulli_fixed(0.4), 256, &mut out);
            out
        };
        assert_eq!(run(), run());
    }
}
