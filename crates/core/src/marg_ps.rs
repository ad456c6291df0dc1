//! `MargPS` — preferential sampling within one random k-way marginal
//! (§4.3).
//!
//! Client: sample a marginal `β` uniformly, locate the single 1 in the
//! user's marginal table `C_β(t_i)` (cell `j_i ∧ β`), and release that
//! cell index through generalized randomized response over the `2^k`
//! cells (`d + k` bits). Aggregator: per marginal, unbias the reported
//! cell histogram over the users who sampled it. Error
//! `Õ(2^{3k/2} d^{k/2} / (ε√N))` (Lemma 4.6) — worse than `MargRR`
//! asymptotically by `2^{k/2}` but empirically strong for small `k`, a
//! point the paper's Figure 4 discussion makes.

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{layout, Accumulator, MarginalSetEstimate, Protocol, Tally};
use ldp_bits::{compress, masks_of_weight, Mask};
use ldp_mechanisms::GeneralizedRandomizedResponse;
use rand::Rng;

/// One user's report: the sampled marginal and the reported cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MargPsReport {
    /// Index of the sampled marginal in `masks_of_weight(d, k)` order.
    pub marginal: u32,
    /// Reported (perturbed) cell index in `[0, 2^k)`.
    pub cell: u16,
}

/// Configuration of the `MargPS` mechanism.
#[derive(Clone, Debug)]
pub struct MargPs {
    d: u32,
    k: u32,
    marginals: Vec<Mask>,
    grr: GeneralizedRandomizedResponse,
}

impl MargPs {
    /// ε-LDP instance targeting k-way marginals over `d` attributes.
    #[must_use]
    pub fn new(d: u32, k: u32, eps: f64) -> Self {
        assert!(k >= 1 && k <= d && k <= 16, "need 1 ≤ k ≤ min(d, 16)");
        MargPs {
            d,
            k,
            marginals: masks_of_weight(d, k).collect(),
            grr: GeneralizedRandomizedResponse::for_epsilon(eps, 1u64 << k),
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Marginal order.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of k-way marginals `C(d,k)`.
    #[must_use]
    pub fn marginal_count(&self) -> usize {
        self.marginals.len()
    }

    /// The underlying primitive.
    #[must_use]
    pub fn primitive(&self) -> GeneralizedRandomizedResponse {
        self.grr
    }

    /// Client: sample a marginal and release the perturbed cell.
    #[inline]
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> MargPsReport {
        let mi = rng.gen_range(0..self.marginals.len());
        let beta = self.marginals[mi];
        let cell = compress(row, beta.bits());
        MargPsReport {
            marginal: mi as u32,
            cell: self.grr.perturb(cell, rng) as u16,
        }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> MargPsAggregator {
        let l = layout(Protocol::MargPs, self.d, self.k, 0, 0);
        MargPsAggregator {
            grr: self.grr,
            d: self.d,
            k: self.k,
            tally: Tally::new(l, "MargPS marginal", self.marginals.len() as u64),
        }
    }
}

/// Aggregator for [`MargPs`]: per-marginal reported-cell histograms,
/// kept as the [`Tally`] of the (marginal, cell) report field.
#[derive(Clone, Debug)]
pub struct MargPsAggregator {
    grr: GeneralizedRandomizedResponse,
    d: u32,
    k: u32,
    tally: Tally,
}

impl MargPsAggregator {
    /// The range check: the report must name one of the `C(d,k)`
    /// marginals. The protocol table applies it to a whole batch before
    /// absorbing any of it.
    #[inline]
    pub fn check(&self, report: MargPsReport) -> Result<(), WireError> {
        self.tally.check(u64::from(report.marginal))
    }

    /// Absorb one report. Cell indices are folded into the sampled
    /// marginal's 2^k-cell histogram (`cell mod 2^k`), so a corrupt
    /// cell degrades to a miscount. The marginal must pass
    /// [`Self::check`]: the protocol table refuses a batch holding a
    /// marginal outside `C(d,k)`, and absorbing one directly panics.
    #[inline]
    pub fn absorb(&mut self, report: MargPsReport) {
        let (marginal, cell) = (u64::from(report.marginal), u64::from(report.cell));
        if let Err(e) = self.tally.absorb(marginal, cell, false) {
            panic!("{e}");
        }
    }

    /// The tally the frame kernel counts reports into.
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// Unbias each marginal's histogram. Marginals nobody sampled fall
    /// back to the uniform table.
    #[must_use]
    pub fn finish(self) -> MarginalSetEstimate {
        let cells = 1usize << self.k;
        let uniform = 1.0 / cells as f64;
        let tables = self
            .tally
            .counts()
            .chunks_exact(cells)
            .map(|hist| {
                // Saturating: a decoded hostile state may hold counts
                // whose total no real population reaches.
                let users = hist.iter().fold(0, |n: u64, &c| n.saturating_add(c));
                if users == 0 {
                    vec![uniform; cells]
                } else {
                    let observed: Vec<f64> =
                        hist.iter().map(|&c| c as f64 / users as f64).collect();
                    self.grr.unbias_histogram(&observed)
                }
            })
            .collect();
        MarginalSetEstimate::new(self.d, self.k, tables)
    }
}

impl Accumulator for MargPsAggregator {
    type Report = MargPsReport;
    type Output = MarginalSetEstimate;

    #[inline]
    fn absorb(&mut self, report: &MargPsReport) {
        MargPsAggregator::absorb(self, *report);
    }

    fn merge(&mut self, other: Self) {
        self.tally.merge(&other.tally);
    }

    fn report_count(&self) -> u64 {
        self.tally.report_count()
    }

    fn finalize(self) -> MarginalSetEstimate {
        self.finish()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::MARG_PS);
        w.put_u32(self.d);
        w.put_u32(self.k);
        w.put_f64(self.grr.truth_probability());
        w.put_u64_slice(&self.tally.counts());
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::with_tag(bytes, tag::MARG_PS)?;
        r.expect_u32("MargPS d", self.d)?;
        r.expect_u32("MargPS k", self.k)?;
        r.expect_f64("MargPS truth probability", self.grr.truth_probability())?;
        let counts = r.get_u64_vec()?;
        r.finish()?;
        self.tally.fill_counts(&counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mean_kway_tvd, MarginalEstimator};
    use ldp_data::{movielens::MovieLensGenerator, taxi::TaxiGenerator, BinaryDataset};
    use rand::{rngs::StdRng, SeedableRng};

    fn run(mech: &MargPs, rows: &[u64], seed: u64) -> MarginalSetEstimate {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = mech.aggregator();
        for &row in rows {
            agg.absorb(mech.encode(row, &mut rng));
        }
        agg.finish()
    }

    #[test]
    fn reconstructs_marginals() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = MovieLensGenerator::new(6).generate(150_000, &mut rng);
        let mech = MargPs::new(6, 2, 1.1);
        let est = run(&mech, ds.rows(), 1);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.1, "mean 2-way tvd {tvd}");
    }

    #[test]
    fn tables_sum_to_one_exactly() {
        // GRR histogram unbiasing preserves total mass exactly.
        let mut rng = StdRng::seed_from_u64(2);
        let ds = TaxiGenerator::default().generate(50_000, &mut rng);
        let mech = MargPs::new(8, 2, 1.1);
        let est = run(&mech, ds.rows(), 3);
        for i in 0..est.marginals().len() {
            let s: f64 = est.table(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "marginal {i} sums to {s}");
        }
    }

    #[test]
    fn beats_inp_ps_at_moderate_dimension() {
        // The motivating comparison of §4.3/§5.2: for d = 8, k = 2,
        // MargPS works over 2^2-cell domains with ~N/28 users each, while
        // InpPS must cover 2^8 cells — MargPS should be clearly better.
        let mut rng = StdRng::seed_from_u64(4);
        let ds = TaxiGenerator::default().generate(100_000, &mut rng);
        let marg = run(&MargPs::new(8, 2, 1.1), ds.rows(), 5);
        let tvd_marg = mean_kway_tvd(&marg, &ds, 2);

        let inp = crate::InpPs::new(8, 1.1);
        let mut agg = inp.aggregator();
        let mut rng2 = StdRng::seed_from_u64(6);
        for &row in ds.rows() {
            agg.absorb(inp.encode(row, &mut rng2));
        }
        let tvd_inp = mean_kway_tvd(&agg.finish(), &ds, 2);
        assert!(
            tvd_marg < tvd_inp / 2.0,
            "MargPS {tvd_marg} vs InpPS {tvd_inp}"
        );
    }

    #[test]
    fn k1_matches_attribute_means() {
        let rows: Vec<u64> = (0..80_000u64).map(|i| u64::from(i % 5 == 0)).collect();
        let ds = BinaryDataset::new(1, rows.clone());
        let mech = MargPs::new(1, 1, 1.5);
        let est = run(&mech, &rows, 7);
        let m = est.marginal(ldp_bits::Mask::full(1));
        let truth = ds.true_marginal(ldp_bits::Mask::full(1));
        assert!((m[1] - truth[1]).abs() < 0.03, "{} vs {}", m[1], truth[1]);
    }
}
