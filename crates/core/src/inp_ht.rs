//! `InpHT` — randomized response on one sampled low-weight Hadamard
//! coefficient of the input (§4.2, Algorithms 1 & 2). The paper's
//! headline mechanism: best accuracy (Theorem 4.5,
//! `Õ(2^{k/2}√T / (ε√N))` with `T = Σ_{ℓ≤k} C(d,ℓ)`), and `d + 1` bits of
//! communication.
//!
//! Client (Algorithm 1): sample a coefficient index `ℓ` uniformly from the
//! set `T` of nonzero masks of weight ≤ k; the user's scaled coefficient
//! is `(−1)^{⟨j, ℓ⟩} ∈ {−1, +1}`; release it through ε-randomized
//! response together with `ℓ`.
//!
//! Aggregator (Algorithm 2): per coefficient, average the unbiased
//! `±1/(2p−1)` reports over the users who sampled it; reconstruct any
//! k-way marginal from the 2^k relevant coefficients via Lemma 3.7.

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{layout, Accumulator, HadamardEstimate, Protocol, Tally};
use ldp_bits::{pm_one, WeightRank};
use ldp_mechanisms::theory::coefficient_count;
use ldp_mechanisms::BinaryRandomizedResponse;
use rand::Rng;

/// One user's report: which coefficient, and the perturbed sign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InpHtReport {
    /// Dense index of the sampled coefficient in the `WeightRank` order.
    pub coefficient: u32,
    /// The randomized-response output for the scaled coefficient.
    pub sign_positive: bool,
}

/// Configuration of the `InpHT` mechanism.
///
/// Its [`WeightRank`] holds the `|T|` coefficient masks as a table
/// (`8·|T|` bytes), so [`encode`](Self::encode) turns the sampled index
/// into its mask with one load.
#[derive(Clone, Debug)]
pub struct InpHt {
    indexer: WeightRank,
    rr: BinaryRandomizedResponse,
}

impl InpHt {
    /// ε-LDP instance over `d` attributes supporting all marginals of
    /// order ≤ `k`.
    #[must_use]
    pub fn new(d: u32, k: u32, eps: f64) -> Self {
        assert!(k >= 1 && k <= d, "need 1 ≤ k ≤ d");
        InpHt {
            indexer: WeightRank::new(d, k),
            rr: BinaryRandomizedResponse::for_epsilon(eps),
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.indexer.d()
    }

    /// Maximum marginal order.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.indexer.k()
    }

    /// The number of candidate coefficients `|T|`.
    #[must_use]
    pub fn coefficient_count(&self) -> usize {
        self.indexer.len()
    }

    /// The underlying RR primitive.
    #[must_use]
    pub fn primitive(&self) -> BinaryRandomizedResponse {
        self.rr
    }

    /// Client (Algorithm 1): sample a coefficient, evaluate the user's
    /// scaled coefficient `(−1)^{⟨j,ℓ⟩}`, perturb with ε-RR.
    #[inline]
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> InpHtReport {
        let idx = rng.gen_range(0..self.indexer.len());
        let alpha = self.indexer.mask(idx);
        let theta = pm_one(row, alpha.bits());
        let noisy = self.rr.perturb_sign(theta, rng);
        InpHtReport {
            coefficient: idx as u32,
            sign_positive: noisy > 0.0,
        }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> InpHtAggregator {
        let (d, k) = (self.d(), self.k());
        let l = layout(Protocol::InpHt, d, k, 0, 0);
        InpHtAggregator {
            rr: self.rr,
            tally: Tally::new(l, "InpHT coefficient", coefficient_count(d, k)),
            indexer: self.indexer.clone(),
        }
    }
}

/// Aggregator for [`InpHt`] (Algorithm 2): per-coefficient sign sums,
/// kept as the [`Tally`] of the (coefficient, sign) report field.
#[derive(Clone, Debug)]
pub struct InpHtAggregator {
    rr: BinaryRandomizedResponse,
    indexer: WeightRank,
    tally: Tally,
}

impl InpHtAggregator {
    /// The range check: the report must name a coefficient of the
    /// indexed set. The protocol table applies it to a whole batch
    /// before absorbing any of it.
    #[inline]
    pub fn check(&self, report: InpHtReport) -> Result<(), WireError> {
        self.tally.check(u64::from(report.coefficient))
    }

    /// Absorb one report whose coefficient passes [`Self::check`]
    /// (absorbing one outside the set panics).
    #[inline]
    pub fn absorb(&mut self, report: InpHtReport) {
        let (coefficient, sign) = (u64::from(report.coefficient), report.sign_positive);
        if let Err(e) = self.tally.absorb(coefficient, 0, sign) {
            panic!("{e}");
        }
    }

    /// The tally the frame kernel counts reports into.
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.indexer.d()
    }

    /// Maximum marginal order supported.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.indexer.k()
    }

    /// Unbias and average each coefficient. Coefficients nobody sampled
    /// (possible only for tiny populations) estimate to 0 — the value of
    /// an uninformative coefficient.
    #[must_use]
    pub fn finish(self) -> HadamardEstimate {
        let (sums, counts) = self.tally.signed();
        let coeffs = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| {
                if c == 0 {
                    0.0
                } else {
                    self.rr.unbias_sign(s as f64 / c as f64)
                }
            })
            .collect();
        HadamardEstimate::new(self.indexer, coeffs)
    }
}

impl Accumulator for InpHtAggregator {
    type Report = InpHtReport;
    type Output = HadamardEstimate;

    #[inline]
    fn absorb(&mut self, report: &InpHtReport) {
        InpHtAggregator::absorb(self, *report);
    }

    fn merge(&mut self, other: Self) {
        self.tally.merge(&other.tally);
    }

    fn report_count(&self) -> u64 {
        self.tally.report_count()
    }

    fn finalize(self) -> HadamardEstimate {
        self.finish()
    }

    fn write_config(&self) -> Writer {
        let mut w = Writer::with_tag(tag::INP_HT);
        w.put_u32(self.indexer.d());
        w.put_u32(self.indexer.k());
        w.put_f64(self.rr.keep_probability());
        w
    }

    fn read_config<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::with_tag(bytes, tag::INP_HT)?;
        r.expect_u32("InpHT d", self.d())?;
        r.expect_u32("InpHT k", self.k())?;
        r.expect_f64("InpHT keep probability", self.rr.keep_probability())?;
        Ok(r)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let (sums, counts) = self.tally.signed();
        let mut w = self.write_config();
        w.put_i64_slice(&sums);
        w.put_u64_slice(&counts);
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = self.read_config(bytes)?;
        let sums = r.get_i64_vec()?;
        let counts = r.get_u64_vec()?;
        r.finish()?;
        self.tally.fill_signed(&sums, &counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mean_kway_tvd, MarginalEstimator};
    use ldp_bits::Mask;
    use ldp_data::{movielens::MovieLensGenerator, BinaryDataset};
    use ldp_transform::total_variation_distance;
    use rand::{rngs::StdRng, SeedableRng};

    fn run(mech: &InpHt, rows: &[u64], seed: u64) -> HadamardEstimate {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = mech.aggregator();
        for &row in rows {
            agg.absorb(mech.encode(row, &mut rng));
        }
        agg.finish()
    }

    #[test]
    fn coefficient_count_matches_theory() {
        let mech = InpHt::new(8, 2, 1.1);
        assert_eq!(mech.coefficient_count(), 36); // 8 + 28
        let mech = InpHt::new(16, 3, 1.1);
        assert_eq!(mech.coefficient_count(), 696);
    }

    #[test]
    fn reconstructs_marginals_accurately() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = MovieLensGenerator::new(8).generate(200_000, &mut rng);
        let mech = InpHt::new(8, 2, 1.1);
        let est = run(&mech, ds.rows(), 1);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.08, "mean 2-way tvd {tvd}");
    }

    #[test]
    fn coefficients_are_unbiased() {
        // Point mass at row 0b101 over d=3: every scaled coefficient is
        // (−1)^{⟨α, 0b101⟩}, known exactly.
        let rows = vec![0b101u64; 40_000];
        let mech = InpHt::new(3, 3, 1.5);
        let est = run(&mech, &rows, 2);
        for alpha_bits in 1u64..8 {
            let alpha = Mask::new(alpha_bits);
            let truth = pm_one(0b101, alpha_bits);
            let got = est.coefficient(alpha);
            assert!(
                (got - truth).abs() < 0.15,
                "alpha={alpha}: {got} vs {truth}"
            );
        }
    }

    #[test]
    fn error_shrinks_with_population() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = MovieLensGenerator::new(6).generate(262_144, &mut rng);
        let mech = InpHt::new(6, 2, 1.1);
        let small = BinaryDataset::new(6, ds.rows()[..16_384].to_vec());
        let est_small = run(&mech, small.rows(), 4);
        let est_big = run(&mech, ds.rows(), 4);
        let tvd_small = mean_kway_tvd(&est_small, &small, 2);
        let tvd_big = mean_kway_tvd(&est_big, &ds, 2);
        // 16× the population → roughly 4× less error; require at least 2×.
        assert!(
            tvd_big < tvd_small / 2.0,
            "small {tvd_small} vs big {tvd_big}"
        );
    }

    #[test]
    fn one_way_marginal_reconstruction() {
        let rows: Vec<u64> = (0..10_000u64).map(|i| u64::from(i % 10 < 3)).collect();
        let ds = BinaryDataset::new(1, rows.clone());
        let mech = InpHt::new(1, 1, 2.0);
        let est = run(&mech, &rows, 5);
        let m = est.marginal(Mask::full(1));
        let truth = ds.true_marginal(Mask::full(1));
        assert!(total_variation_distance(&m, &truth) < 0.05);
    }

    #[test]
    fn merge_equals_sequential() {
        let mech = InpHt::new(5, 2, 1.1);
        let mut rng = StdRng::seed_from_u64(6);
        let reports: Vec<InpHtReport> = (0..2000u64)
            .map(|i| mech.encode(i % 32, &mut rng))
            .collect();
        let mut whole = mech.aggregator();
        let mut a = mech.aggregator();
        let mut b = mech.aggregator();
        for (i, &r) in reports.iter().enumerate() {
            whole.absorb(r);
            if i < 1000 {
                a.absorb(r);
            } else {
                b.absorb(r);
            }
        }
        a.merge(b);
        let (ca, cw) = (a.finish(), whole.finish());
        for bits in 1u64..32 {
            let m = Mask::new(bits);
            if m.weight() <= 2 {
                assert_eq!(ca.coefficient(m), cw.coefficient(m));
            }
        }
    }
}
