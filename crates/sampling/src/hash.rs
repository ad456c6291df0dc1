//! Universal (pairwise) and k-wise independent hash families over the
//! prime field `p = 2^61 − 1`, as required by the frequency-oracle
//! baselines of Appendix B.2:
//!
//! * OLH (Wang et al.) draws a fresh *universal* hash per user mapping the
//!   input domain onto `g = ⌈e^ε⌉ + 1` buckets;
//! * the Apple count-mean sketch uses a small family of *3-wise
//!   independent* hashes mapping onto `w` buckets.

use rand::Rng;

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// `(a * b) mod (2^61 − 1)` without overflow.
#[inline]
#[must_use]
pub fn mulmod(a: u64, b: u64) -> u64 {
    let prod = u128::from(a) * u128::from(b);
    // Fold the high bits: x mod (2^61−1) via x = hi*2^61 + lo ≡ hi + lo.
    let lo = (prod & u128::from(MERSENNE_P)) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_P {
        s -= MERSENNE_P;
    }
    s
}

/// SplitMix64 — a fast, well-distributed integer mixer used for cheap
/// deterministic seeding.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A degree-(t−1) polynomial hash over `GF(2^61 − 1)`, giving a t-wise
/// independent family when the coefficients are drawn uniformly (leading
/// coefficient nonzero).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolyHash {
    /// Coefficients low-to-high degree; `coeffs.len() = t`.
    coeffs: Vec<u64>,
    /// Output range.
    m: u64,
}

impl PolyHash {
    /// Draw a fresh t-wise independent hash onto `[0, m)`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, t: usize, m: u64) -> Self {
        assert!(t >= 1 && m >= 1);
        let mut coeffs: Vec<u64> = (0..t).map(|_| rng.gen_range(0..MERSENNE_P)).collect();
        // Nonzero leading coefficient for full degree (not required for
        // independence but avoids degenerate constant hashes).
        if t > 1 && coeffs[t - 1] == 0 {
            coeffs[t - 1] = 1;
        }
        PolyHash { coeffs, m }
    }

    /// Deterministically derive a hash from a seed (for reproducible
    /// protocols where the user transmits only the seed).
    #[must_use]
    pub fn from_seed(seed: u64, t: usize, m: u64) -> Self {
        assert!(t >= 1 && m >= 1);
        let mut coeffs = Vec::with_capacity(t);
        let mut s = seed;
        for _ in 0..t {
            s = splitmix64(s);
            coeffs.push(s % MERSENNE_P);
        }
        if t > 1 && coeffs[t - 1] == 0 {
            coeffs[t - 1] = 1;
        }
        PolyHash { coeffs, m }
    }

    /// Evaluate the hash at `x`.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        let x = x % MERSENNE_P;
        // Horner's rule.
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = mulmod(acc, x);
            acc += c;
            if acc >= MERSENNE_P {
                acc -= MERSENNE_P;
            }
        }
        acc % self.m
    }

    /// Output range.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.m
    }

    /// The polynomial coefficients, low-to-high degree (for serializing a
    /// protocol configuration that embeds concrete hash functions).
    #[must_use]
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }
}

/// A pairwise-independent (universal) hash: degree-1 [`PolyHash`].
#[must_use]
pub fn universal_hash_from_seed(seed: u64, m: u64) -> PolyHash {
    PolyHash::from_seed(seed, 2, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn mulmod_matches_u128() {
        let cases = [
            (0u64, 0u64),
            (1, MERSENNE_P - 1),
            (MERSENNE_P - 1, MERSENNE_P - 1),
            (123_456_789, 987_654_321),
            (1 << 60, 3),
        ];
        for (a, b) in cases {
            let expect = ((u128::from(a) * u128::from(b)) % u128::from(MERSENNE_P)) as u64;
            assert_eq!(mulmod(a, b), expect, "{a} * {b}");
        }
    }

    #[test]
    fn hash_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(0);
        for t in 1..=4 {
            for m in [1u64, 2, 4, 17, 256] {
                let h = PolyHash::random(&mut rng, t, m);
                for x in 0..1000u64 {
                    assert!(h.hash(x) < m);
                }
            }
        }
    }

    #[test]
    fn from_seed_is_deterministic() {
        let h1 = PolyHash::from_seed(42, 3, 256);
        let h2 = PolyHash::from_seed(42, 3, 256);
        let h3 = PolyHash::from_seed(43, 3, 256);
        for x in 0..100u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
        assert!((0..100u64).any(|x| h1.hash(x) != h3.hash(x)));
    }

    #[test]
    fn buckets_roughly_uniform() {
        // Average over hashes: each bucket should receive ≈ n/m items.
        let m = 8u64;
        let n_inputs = 64u64;
        let n_hashes = 2_000u64;
        let mut counts = vec![0u64; m as usize];
        for seed in 0..n_hashes {
            let h = universal_hash_from_seed(seed, m);
            for x in 0..n_inputs {
                counts[h.hash(x) as usize] += 1;
            }
        }
        let expect = (n_inputs * n_hashes) as f64 / m as f64;
        for (b, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.05, "bucket {b}: {c} vs {expect}");
        }
    }

    #[test]
    fn pairwise_collision_rate() {
        // For a universal family, Pr[h(x) = h(y)] ≈ 1/m for x ≠ y.
        let m = 16u64;
        let trials = 20_000u64;
        let mut collisions = 0u64;
        for seed in 0..trials {
            let h = universal_hash_from_seed(splitmix64(seed), m);
            if h.hash(3) == h.hash(77) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        assert!(
            (rate - 1.0 / m as f64).abs() < 0.01,
            "collision rate {rate}"
        );
    }
}
