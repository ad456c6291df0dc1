//! One-bit randomized response (Warner 1965), the canonical LDP primitive.

use crate::{check_epsilon, Channel};
use rand::Rng;

/// Randomized response on a single bit or sign: report the truth with
/// probability `p > 1/2`, the opposite otherwise. Satisfies ε-LDP with
/// `e^ε = p / (1 − p)` (§3.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BinaryRandomizedResponse {
    p: f64,
}

impl BinaryRandomizedResponse {
    /// The ε-LDP instance: `p = e^ε / (1 + e^ε)`.
    #[must_use]
    pub fn for_epsilon(eps: f64) -> Self {
        check_epsilon(eps);
        BinaryRandomizedResponse {
            p: eps.exp() / (1.0 + eps.exp()),
        }
    }

    /// Probability of reporting the truth.
    #[must_use]
    pub fn keep_probability(self) -> f64 {
        self.p
    }

    /// The ε this instance provides.
    #[must_use]
    pub fn epsilon(self) -> f64 {
        (self.p / (1.0 - self.p)).ln()
    }

    /// Perturb a bit.
    #[inline]
    pub fn perturb_bit<R: Rng + ?Sized>(self, bit: bool, rng: &mut R) -> bool {
        if rng.gen_bool(self.p) {
            bit
        } else {
            !bit
        }
    }

    /// Perturb a sign in `{−1, +1}`.
    #[inline]
    pub fn perturb_sign<R: Rng + ?Sized>(self, sign: f64, rng: &mut R) -> f64 {
        debug_assert!(sign == 1.0 || sign == -1.0);
        if rng.gen_bool(self.p) {
            sign
        } else {
            -sign
        }
    }

    /// Unbiased estimate of a `{−1,+1}` value from one perturbed report:
    /// `report / (2p − 1)` (the construction in the proof of Theorem 4.2).
    #[inline]
    #[must_use]
    pub fn unbias_sign(self, report: f64) -> f64 {
        report / (2.0 * self.p - 1.0)
    }

    /// Unbiased estimate of a population mean of bits, from the observed
    /// fraction of 1-reports: `(observed − (1 − p)) / (2p − 1)`.
    #[inline]
    #[must_use]
    pub fn unbias_bit_mean(self, observed: f64) -> f64 {
        (observed - (1.0 - self.p)) / (2.0 * self.p - 1.0)
    }

    /// Per-report variance of [`BinaryRandomizedResponse::unbias_sign`]
    /// (worst case over the true sign): `1/(2p−1)² − E[x]² ≤ 1/(2p−1)²`.
    #[must_use]
    pub fn sign_estimator_variance_bound(self) -> f64 {
        let s = 2.0 * self.p - 1.0;
        1.0 / (s * s)
    }

    /// The explicit conditional-probability matrix (inputs/outputs 0,1).
    #[must_use]
    pub fn channel(self) -> Channel {
        Channel::new(vec![vec![self.p, 1.0 - self.p], vec![1.0 - self.p, self.p]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn epsilon_roundtrip() {
        for eps in [0.2, 0.5, 1.1, 2.0] {
            let rr = BinaryRandomizedResponse::for_epsilon(eps);
            assert!((rr.epsilon() - eps).abs() < 1e-12);
        }
    }

    #[test]
    fn channel_is_exactly_eps_ldp() {
        for eps in [0.2, 0.7, 1.1, 3.0] {
            let rr = BinaryRandomizedResponse::for_epsilon(eps);
            assert!((rr.channel().ldp_epsilon() - eps).abs() < 1e-9);
        }
    }

    #[test]
    fn sign_estimator_is_unbiased() {
        let rr = BinaryRandomizedResponse::for_epsilon(1.1);
        let mut rng = StdRng::seed_from_u64(0);
        let n = 400_000;
        for truth in [-1.0, 1.0] {
            let mean: f64 = (0..n)
                .map(|_| rr.unbias_sign(rr.perturb_sign(truth, &mut rng)))
                .sum::<f64>()
                / f64::from(n);
            assert!((mean - truth).abs() < 0.02, "truth {truth}: {mean}");
        }
    }

    #[test]
    fn bit_mean_estimator_is_unbiased() {
        let rr = BinaryRandomizedResponse::for_epsilon(0.8);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 400_000usize;
        let true_mean = 0.3;
        let ones = (0..n)
            .filter(|&i| rr.perturb_bit(i < (true_mean * n as f64) as usize, &mut rng))
            .count();
        let est = rr.unbias_bit_mean(ones as f64 / n as f64);
        assert!((est - true_mean).abs() < 0.01, "{est}");
    }

    #[test]
    fn empirical_variance_within_bound() {
        let rr = BinaryRandomizedResponse::for_epsilon(1.1);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| rr.unbias_sign(rr.perturb_sign(1.0, &mut rng)))
            .collect();
        let mean = samples.iter().sum::<f64>() / f64::from(n);
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / f64::from(n);
        assert!(var <= rr.sign_estimator_variance_bound() + 0.05);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_epsilon() {
        let _ = BinaryRandomizedResponse::for_epsilon(0.0);
    }
}
