//! `InpPS` — preferential sampling of the input index (§4.2).
//!
//! Each user reports a single index from `[0, 2^d)` through generalized
//! randomized response: the true index with probability
//! `p_s = (1 + (2^d − 1)e^{−ε})^{−1}`, a uniform lie otherwise. The
//! aggregator unbiases the report histogram (§4.1) to reconstruct the full
//! distribution. Theorem 4.4: total variation error
//! `Õ(2^{d + k/2} / (ε√N))` — the `2^d` factor makes this method decay
//! rapidly with dimensionality, which Figure 4 confirms.

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{layout, Accumulator, FullDistributionEstimate, Protocol, Tally};
use ldp_mechanisms::GeneralizedRandomizedResponse;
use rand::Rng;

/// Configuration of the `InpPS` mechanism.
#[derive(Clone, Debug)]
pub struct InpPs {
    d: u32,
    grr: GeneralizedRandomizedResponse,
}

impl InpPs {
    /// ε-LDP instance over `d` attributes.
    #[must_use]
    pub fn new(d: u32, eps: f64) -> Self {
        assert!(
            (1..=26).contains(&d),
            "InpPS materializes 2^d cells; need d ≤ 26"
        );
        InpPs {
            d,
            grr: GeneralizedRandomizedResponse::for_epsilon(eps, 1u64 << d),
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The underlying primitive.
    #[must_use]
    pub fn primitive(&self) -> GeneralizedRandomizedResponse {
        self.grr
    }

    /// Client: one perturbed index (`d` bits on the wire).
    #[inline]
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> u64 {
        self.grr.perturb(row, rng)
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> InpPsAggregator {
        let l = layout(Protocol::InpPs, self.d, 0, 0, 0);
        InpPsAggregator {
            grr: self.grr,
            d: self.d,
            tally: Tally::new(l, "InpPS row", 1 << self.d),
        }
    }
}

/// Aggregator for [`InpPs`]: a histogram of reported indices, kept as
/// the [`Tally`] of the `d`-bit report field.
#[derive(Clone, Debug)]
pub struct InpPsAggregator {
    grr: GeneralizedRandomizedResponse,
    d: u32,
    tally: Tally,
}

impl InpPsAggregator {
    /// The range check: a reported row must lie in the `2^d` domain.
    /// The protocol table applies it to a whole batch before absorbing
    /// any of it.
    #[inline]
    pub fn check(&self, row: u64) -> Result<(), WireError> {
        self.tally.check(row)
    }

    /// Absorb one reported row. A row outside the `2^d` domain (which
    /// the encoder never produces, and [`Self::check`] refuses) counts
    /// nothing.
    #[inline]
    pub fn absorb(&mut self, report: u64) {
        // An InpPS report's packed field is its row.
        self.tally.add(report);
    }

    /// The tally the frame kernel counts reports into.
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// Unbias the histogram into the reconstructed full distribution.
    #[must_use]
    pub fn finish(self) -> FullDistributionEstimate {
        let n = self.tally.report_count();
        assert!(n > 0, "no reports absorbed");
        let observed: Vec<f64> = self
            .tally
            .counts()
            .iter()
            .map(|&c| c as f64 / n as f64)
            .collect();
        FullDistributionEstimate::new(self.d, self.grr.unbias_histogram(&observed))
    }
}

impl Accumulator for InpPsAggregator {
    type Report = u64;
    type Output = FullDistributionEstimate;

    #[inline]
    fn absorb(&mut self, report: &u64) {
        InpPsAggregator::absorb(self, *report);
    }

    fn merge(&mut self, other: Self) {
        self.tally.merge(&other.tally);
    }

    fn report_count(&self) -> u64 {
        self.tally.report_count()
    }

    fn finalize(self) -> FullDistributionEstimate {
        self.finish()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::INP_PS);
        w.put_u32(self.d);
        w.put_f64(self.grr.truth_probability());
        w.put_u64_slice(&self.tally.counts());
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::with_tag(bytes, tag::INP_PS)?;
        r.expect_u32("InpPS d", self.d)?;
        r.expect_f64("InpPS truth probability", self.grr.truth_probability())?;
        let counts = r.get_u64_vec()?;
        r.finish()?;
        self.tally.fill_counts(&counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarginalEstimator;
    use ldp_bits::Mask;
    use ldp_data::BinaryDataset;
    use ldp_transform::total_variation_distance;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn reconstructs_small_domain() {
        let mech = InpPs::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<u64> = (0..120_000).map(|i| (i % 8) as u64 % 5).collect();
        let ds = BinaryDataset::new(3, rows.clone());
        let mut agg = mech.aggregator();
        for &row in &rows {
            agg.absorb(mech.encode(row, &mut rng));
        }
        let est = agg.finish();
        let tvd = total_variation_distance(&ds.full_distribution(), est.distribution());
        assert!(tvd < 0.03, "tvd {tvd}");
    }

    #[test]
    fn estimates_sum_to_one() {
        // The unbiasing is affine in the observed frequencies, so the
        // reconstructed distribution sums to exactly 1.
        let mech = InpPs::new(4, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<u64> = (0..10_000).map(|i| (i % 16) as u64).collect();
        let mut agg = mech.aggregator();
        for &row in &rows {
            agg.absorb(mech.encode(row, &mut rng));
        }
        let est = agg.finish();
        assert!((est.distribution().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degrades_with_dimension() {
        // The hallmark InpPS failure mode (§5.2): for larger d the truth
        // probability becomes tiny and the signal washes out. Compare the
        // same population size at d = 4 vs d = 10 on a point-mass input.
        let n = 50_000;
        let mut tvds = Vec::new();
        for d in [4u32, 10] {
            let mech = InpPs::new(d, 1.1);
            let mut rng = StdRng::seed_from_u64(2);
            let rows = vec![1u64; n];
            let ds = BinaryDataset::new(d, rows.clone());
            let mut agg = mech.aggregator();
            for &row in &rows {
                agg.absorb(mech.encode(row, &mut rng));
            }
            let est = agg.finish();
            let beta = Mask::new(0b11);
            tvds.push(total_variation_distance(
                &ds.true_marginal(beta),
                &est.marginal(beta),
            ));
        }
        assert!(
            tvds[1] > 3.0 * tvds[0],
            "expected sharp degradation: {tvds:?}"
        );
    }

    #[test]
    fn merge_equals_sequential() {
        let mech = InpPs::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let reports: Vec<u64> = (0..1000).map(|i| mech.encode(i % 8, &mut rng)).collect();
        let mut all = mech.aggregator();
        for &r in &reports {
            all.absorb(r);
        }
        let mut a = mech.aggregator();
        let mut b = mech.aggregator();
        for (i, &r) in reports.iter().enumerate() {
            if i % 2 == 0 {
                a.absorb(r);
            } else {
                b.absorb(r);
            }
        }
        a.merge(b);
        assert_eq!(a.report_count(), all.report_count());
        assert_eq!(a.finish().distribution(), all.finish().distribution());
    }
}
