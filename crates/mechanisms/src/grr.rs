//! Generalized randomized response over an `m`-ary domain — the paper's
//! *Preferential Sampling* (PS), a.k.a. Direct Encoding.

use crate::{check_epsilon, Channel};
use rand::Rng;

/// Report one value from `[0, m)`: the truth with probability
/// `p_s = e^ε / (e^ε + m − 1)`, each specific lie with probability
/// `(1 − p_s)/(m − 1)`. Satisfies ε-LDP with
/// `e^ε = p_s/(1 − p_s) · (m − 1)` (Fact 3.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeneralizedRandomizedResponse {
    m: u64,
    ps: f64,
}

impl GeneralizedRandomizedResponse {
    /// The ε-LDP instance over a domain of `m ≥ 2` values:
    /// `p_s = (1 + (m−1) e^{−ε})^{−1}`.
    #[must_use]
    pub fn for_epsilon(eps: f64, m: u64) -> Self {
        check_epsilon(eps);
        assert!(m >= 2, "domain must have at least two values");
        let ps = 1.0 / (1.0 + (m - 1) as f64 * (-eps).exp());
        GeneralizedRandomizedResponse { m, ps }
    }

    /// Domain size.
    #[must_use]
    pub fn domain(self) -> u64 {
        self.m
    }

    /// Probability of reporting the truth.
    #[must_use]
    pub fn truth_probability(self) -> f64 {
        self.ps
    }

    /// Probability of reporting one *specific* incorrect value.
    #[must_use]
    pub fn lie_probability(self) -> f64 {
        (1.0 - self.ps) / (self.m - 1) as f64
    }

    /// The ε this instance provides.
    #[must_use]
    pub fn epsilon(self) -> f64 {
        (self.ps / (1.0 - self.ps) * (self.m - 1) as f64).ln()
    }

    /// Perturb a true value `j ∈ [0, m)`.
    #[inline]
    pub fn perturb<R: Rng + ?Sized>(self, j: u64, rng: &mut R) -> u64 {
        debug_assert!(j < self.m);
        if rng.gen_bool(self.ps) {
            j
        } else {
            // Uniform over the m−1 other values.
            let r = rng.gen_range(0..self.m - 1);
            if r >= j {
                r + 1
            } else {
                r
            }
        }
    }

    /// Unbiased frequency estimate for value `j` given the observed report
    /// fraction `F_j` (§4.1):
    ///
    /// `f̂_j = (D·F_j + p_s − 1) / (D·p_s + p_s − 1)` with `D = m − 1`.
    #[inline]
    #[must_use]
    pub fn unbias_frequency(self, observed: f64) -> f64 {
        let d = (self.m - 1) as f64;
        (d * observed + self.ps - 1.0) / (d * self.ps + self.ps - 1.0)
    }

    /// Unbias a whole histogram of observed report fractions.
    #[must_use]
    pub fn unbias_histogram(self, observed: &[f64]) -> Vec<f64> {
        assert_eq!(observed.len() as u64, self.m);
        observed.iter().map(|&f| self.unbias_frequency(f)).collect()
    }

    /// The explicit channel matrix (m inputs × m outputs).
    #[must_use]
    pub fn channel(self) -> Channel {
        let m = self.m as usize;
        let q = self.lie_probability();
        let probs = (0..m)
            .map(|x| (0..m).map(|y| if x == y { self.ps } else { q }).collect())
            .collect();
        Channel::new(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn epsilon_roundtrip() {
        for m in [2u64, 4, 16, 1 << 12] {
            for eps in [0.3, 1.1, 2.5] {
                let g = GeneralizedRandomizedResponse::for_epsilon(eps, m);
                assert!((g.epsilon() - eps).abs() < 1e-9, "m={m} eps={eps}");
            }
        }
    }

    #[test]
    fn m2_reduces_to_binary_rr() {
        // §3.1: "when m = 2 this mechanism is equivalent to 1-bit RR".
        let eps = 1.1;
        let g = GeneralizedRandomizedResponse::for_epsilon(eps, 2);
        let rr = crate::BinaryRandomizedResponse::for_epsilon(eps);
        assert!((g.truth_probability() - rr.keep_probability()).abs() < 1e-12);
    }

    #[test]
    fn channel_is_exactly_eps_ldp() {
        for m in [2u64, 5, 32] {
            for eps in [0.4, 1.1] {
                let g = GeneralizedRandomizedResponse::for_epsilon(eps, m);
                assert!((g.channel().ldp_epsilon() - eps).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn perturb_outputs_in_domain_and_truthful_at_rate_ps() {
        let g = GeneralizedRandomizedResponse::for_epsilon(1.1, 8);
        let mut rng = StdRng::seed_from_u64(0);
        let n = 300_000;
        let truth = 5u64;
        let mut kept = 0u64;
        let mut counts = [0u64; 8];
        for _ in 0..n {
            let r = g.perturb(truth, &mut rng);
            assert!(r < 8);
            counts[r as usize] += 1;
            if r == truth {
                kept += 1;
            }
        }
        let rate = kept as f64 / f64::from(n);
        assert!((rate - g.truth_probability()).abs() < 0.005, "{rate}");
        // Each lie equally likely.
        let q = g.lie_probability();
        for (j, &c) in counts.iter().enumerate() {
            if j as u64 != truth {
                assert!((c as f64 / f64::from(n) - q).abs() < 0.005, "lie {j}");
            }
        }
    }

    #[test]
    fn histogram_estimator_is_unbiased() {
        let g = GeneralizedRandomizedResponse::for_epsilon(1.1, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let truth_freqs = [0.5, 0.25, 0.15, 0.1];
        let n = 500_000usize;
        let mut observed = [0.0f64; 4];
        for i in 0..n {
            // Deterministic composition of the true population.
            let u = i as f64 / n as f64;
            let j = match u {
                x if x < 0.5 => 0,
                x if x < 0.75 => 1,
                x if x < 0.9 => 2,
                _ => 3,
            };
            observed[g.perturb(j, &mut rng) as usize] += 1.0;
        }
        for o in observed.iter_mut() {
            *o /= n as f64;
        }
        let est = g.unbias_histogram(&observed);
        for (e, t) in est.iter().zip(&truth_freqs) {
            assert!((e - t).abs() < 0.01, "{e} vs {t}");
        }
        // Estimates sum to 1 exactly (linearity of the unbiasing).
        assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_trivial_domain() {
        let _ = GeneralizedRandomizedResponse::for_epsilon(1.0, 1);
    }
}
