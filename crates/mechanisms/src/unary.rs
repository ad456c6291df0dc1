//! Parallel randomized response on one-hot vectors (BasicRAPPOR / unary
//! encoding), with both the paper's symmetric probabilities and Wang et
//! al.'s optimized (OUE) probabilities.

use crate::{check_epsilon, Channel};
use rand::Rng;

/// Which probability pair to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryFlavor {
    /// The paper's Fact 3.2 construction: independent `ε/2`-RR on every
    /// bit, i.e. `p₁ = e^{ε/2}/(1+e^{ε/2})`, `p₀ = 1 − p₁`.
    Symmetric,
    /// Wang et al. (USENIX Security 2017): keep the sole 1 with
    /// probability `1/2`, report each 0 as 1 with probability
    /// `1/(e^ε + 1)` — slightly lower estimator variance; the paper's
    /// experiments adopt these probabilities (§5.1).
    Optimized,
}

/// Perturbation of a sparse one-hot vector by independent per-bit
/// randomized response. `p1` = P(report 1 | bit is 1); `p0` = P(report 1 |
/// bit is 0). Satisfies ε-LDP on one-hot inputs (Fact 3.2): only the two
/// differing positions contribute to the Definition 3.1 ratio, giving
/// `(p1/p0) · ((1−p0)/(1−p1)) = e^ε` for both flavors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnaryEncoding {
    p1: f64,
    p0: f64,
}

impl UnaryEncoding {
    /// The ε-LDP instance with the chosen probability flavor.
    #[must_use]
    pub fn for_epsilon(eps: f64, flavor: UnaryFlavor) -> Self {
        check_epsilon(eps);
        match flavor {
            UnaryFlavor::Symmetric => {
                let p1 = (eps / 2.0).exp() / (1.0 + (eps / 2.0).exp());
                UnaryEncoding { p1, p0: 1.0 - p1 }
            }
            UnaryFlavor::Optimized => UnaryEncoding {
                p1: 0.5,
                p0: 1.0 / (eps.exp() + 1.0),
            },
        }
    }

    /// P(report 1 | true bit 1).
    #[must_use]
    pub fn p1(self) -> f64 {
        self.p1
    }

    /// P(report 1 | true bit 0).
    #[must_use]
    pub fn p0(self) -> f64 {
        self.p0
    }

    /// The ε this instance provides on one-hot inputs.
    #[must_use]
    pub fn epsilon(self) -> f64 {
        ((self.p1 / self.p0) * ((1.0 - self.p0) / (1.0 - self.p1))).ln()
    }

    /// Perturb one bit of the one-hot vector.
    #[inline]
    pub fn perturb_bit<R: Rng + ?Sized>(self, bit: bool, rng: &mut R) -> bool {
        rng.gen_bool(if bit { self.p1 } else { self.p0 })
    }

    /// Perturb a whole one-hot vector given the position of its single 1,
    /// returning the set of positions reporting 1. `O(m)`.
    pub fn perturb_onehot<R: Rng + ?Sized>(
        self,
        m: usize,
        one_at: usize,
        rng: &mut R,
    ) -> Vec<bool> {
        assert!(one_at < m);
        (0..m).map(|i| self.perturb_bit(i == one_at, rng)).collect()
    }

    /// Unbiased estimate of the population frequency of 1s at a position,
    /// from the observed fraction of 1-reports:
    /// `f̂ = (F − p₀)/(p₁ − p₀)`.
    #[inline]
    #[must_use]
    pub fn unbias_frequency(self, observed: f64) -> f64 {
        (observed - self.p0) / (self.p1 - self.p0)
    }

    /// Per-user variance of the per-cell unbiased estimator at true
    /// frequency `f` (Wang et al. eq. (7) shape):
    /// `Var = [f·p₁(1−p₁) + (1−f)·p₀(1−p₀)] / (p₁ − p₀)²`.
    #[must_use]
    pub fn estimator_variance(self, f: f64) -> f64 {
        let num = f * self.p1 * (1.0 - self.p1) + (1.0 - f) * self.p0 * (1.0 - self.p0);
        let den = (self.p1 - self.p0) * (self.p1 - self.p0);
        num / den
    }

    /// The channel of a *pair* of positions under adjacent one-hot inputs
    /// (the 1 at the first vs the second position) — the part of the
    /// product channel that does not cancel in the LDP ratio. Inputs:
    /// {1 at pos A, 1 at pos B}; outputs: 2-bit patterns (bitA, bitB).
    #[must_use]
    pub fn adjacent_pair_channel(self) -> Channel {
        let rows = [(true, false), (false, true)]
            .iter()
            .map(|&(a, b)| {
                let pa = if a { self.p1 } else { self.p0 };
                let pb = if b { self.p1 } else { self.p0 };
                vec![
                    (1.0 - pa) * (1.0 - pb),
                    pa * (1.0 - pb),
                    (1.0 - pa) * pb,
                    pa * pb,
                ]
            })
            .collect();
        Channel::new(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn both_flavors_achieve_epsilon() {
        for eps in [0.4, 1.1, 2.0] {
            for flavor in [UnaryFlavor::Symmetric, UnaryFlavor::Optimized] {
                let ue = UnaryEncoding::for_epsilon(eps, flavor);
                assert!((ue.epsilon() - eps).abs() < 1e-9, "{flavor:?} {eps}");
                // The only non-cancelling part of the product channel
                // achieves exactly ε.
                assert!((ue.adjacent_pair_channel().ldp_epsilon() - eps).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn optimized_has_lower_variance_at_low_frequency() {
        let eps = 1.1;
        let sym = UnaryEncoding::for_epsilon(eps, UnaryFlavor::Symmetric);
        let oue = UnaryEncoding::for_epsilon(eps, UnaryFlavor::Optimized);
        // At sparse cells (f ≈ 0), OUE's variance is no worse.
        assert!(oue.estimator_variance(0.01) <= sym.estimator_variance(0.01) + 1e-12);
    }

    #[test]
    fn onehot_perturbation_statistics() {
        let ue = UnaryEncoding::for_epsilon(1.1, UnaryFlavor::Optimized);
        let mut rng = StdRng::seed_from_u64(0);
        let (m, one_at, n) = (8usize, 3usize, 100_000usize);
        let mut ones = vec![0u64; m];
        for _ in 0..n {
            for (i, bit) in ue.perturb_onehot(m, one_at, &mut rng).iter().enumerate() {
                ones[i] += u64::from(*bit);
            }
        }
        for (i, &c) in ones.iter().enumerate() {
            let frac = c as f64 / n as f64;
            let expect = if i == one_at { ue.p1() } else { ue.p0() };
            assert!((frac - expect).abs() < 0.01, "pos {i}: {frac} vs {expect}");
        }
    }

    #[test]
    fn frequency_estimator_is_unbiased() {
        let ue = UnaryEncoding::for_epsilon(0.8, UnaryFlavor::Symmetric);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 300_000usize;
        let truth = 0.2;
        let mut ones = 0u64;
        for i in 0..n {
            let bit = (i as f64 / n as f64) < truth;
            ones += u64::from(ue.perturb_bit(bit, &mut rng));
        }
        let est = ue.unbias_frequency(ones as f64 / n as f64);
        assert!((est - truth).abs() < 0.01, "{est}");
    }
}
