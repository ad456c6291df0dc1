//! The frequency-oracle abstraction and the oracle→marginal adaptor.

use ldp_bits::{compress, Mask};

/// An LDP frequency oracle over the domain `{0,1}^d`.
///
/// Build one by streaming reports into the matching aggregator (an
/// [`ldp_core::Accumulator`]) and finalizing:
///
/// ```
/// use ldp_core::Accumulator;
/// use ldp_oracles::{FrequencyOracle, HadamardCms};
/// use rand::{rngs::StdRng, Rng, SeedableRng};
///
/// let sketch = HadamardCms::new(10, 1.1, 5, 256, 42);
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut agg = sketch.aggregator();
/// for _ in 0..60_000 {
///     // 60% of users hold value 123.
///     let value = if rng.gen_bool(0.6) { 123 } else { rng.gen_range(0..1024) };
///     agg.absorb(sketch.encode(value, &mut rng));
/// }
/// let oracle = agg.finalize();
/// assert!((oracle.estimate(123) - 0.6).abs() < 0.1);
/// ```
pub trait FrequencyOracle {
    /// Domain dimensionality.
    fn d(&self) -> u32;

    /// Unbiased estimate of the population frequency of `value`.
    fn estimate(&self, value: u64) -> f64;
}

/// Estimate the full `2^d` distribution by querying the oracle on every
/// cell (the generic marginal route of Appendix B.2).
#[must_use]
pub fn oracle_full_distribution<O: FrequencyOracle + ?Sized>(oracle: &O) -> Vec<f64> {
    let cells = 1u64 << oracle.d();
    (0..cells).map(|v| oracle.estimate(v)).collect()
}

/// Estimate a marginal by aggregating per-cell oracle estimates.
#[must_use]
pub fn oracle_marginal<O: FrequencyOracle + ?Sized>(oracle: &O, beta: Mask) -> Vec<f64> {
    assert!(beta.is_subset_of(Mask::full(oracle.d())));
    let mut out = vec![0.0; beta.table_len()];
    for v in 0..(1u64 << oracle.d()) {
        out[compress(v, beta.bits()) as usize] += oracle.estimate(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake exact oracle for adaptor testing.
    struct Exact {
        d: u32,
        dist: Vec<f64>,
    }

    impl FrequencyOracle for Exact {
        fn d(&self) -> u32 {
            self.d
        }
        fn estimate(&self, v: u64) -> f64 {
            self.dist[v as usize]
        }
    }

    #[test]
    fn adaptor_aggregates_cells() {
        let oracle = Exact {
            d: 2,
            dist: vec![0.1, 0.2, 0.3, 0.4],
        };
        assert_eq!(oracle_full_distribution(&oracle), vec![0.1, 0.2, 0.3, 0.4]);
        let m = oracle_marginal(&oracle, Mask::new(0b01));
        assert!((m[0] - 0.4).abs() < 1e-12);
        assert!((m[1] - 0.6).abs() < 1e-12);
    }
}
