//! `MargHT` — randomized response on one Hadamard coefficient of one
//! random k-way marginal (§4.3).
//!
//! Client: sample a marginal `β` uniformly, then sample one of the
//! `2^k − 1` non-constant Hadamard coefficients of the user's marginal
//! table; its scaled value is `(−1)^{⟨α, j∧β⟩} ∈ {−1, +1}`, released via
//! ε-RR (`d + k + 1` bits). The constant coefficient is known exactly
//! (`c_0 = 1`), so sampling it would waste the report — see the
//! `ablations` binary (ablation 3) for the measured gain; the paper's
//! analysis treats the sampled set as all `2^k` coefficients, which only
//! changes constants. Aggregator: per (marginal, coefficient), average
//! unbiased reports, then invert the size-`2^k` transform per marginal
//! (Lemma 3.7). Error `Õ(2^{3k/2} d^{k/2} / (ε√N))` (Lemma 4.6).
//!
//! Unlike `InpHT`, coefficients are *not* shared between marginals — the
//! reason the input variant wins (§4.3 "does not obtain as strong a
//! result as InpHT").

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{layout, Accumulator, MarginalSetEstimate, Protocol, Tally};
use ldp_bits::{compress, masks_of_weight, pm_one, Mask};
use ldp_mechanisms::BinaryRandomizedResponse;
use ldp_transform::fwht;
use rand::Rng;

/// One user's report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MargHtReport {
    /// Index of the sampled marginal in `masks_of_weight(d, k)` order.
    pub marginal: u32,
    /// Local coefficient mask in `[1, 2^k)` (over the marginal's own
    /// attributes).
    pub coefficient: u16,
    /// The randomized-response output for the scaled coefficient.
    pub sign_positive: bool,
}

/// Configuration of the `MargHT` mechanism.
#[derive(Clone, Debug)]
pub struct MargHt {
    d: u32,
    k: u32,
    marginals: Vec<Mask>,
    rr: BinaryRandomizedResponse,
}

impl MargHt {
    /// ε-LDP instance targeting k-way marginals over `d` attributes.
    #[must_use]
    pub fn new(d: u32, k: u32, eps: f64) -> Self {
        assert!(k >= 1 && k <= d && k <= 16, "need 1 ≤ k ≤ min(d, 16)");
        MargHt {
            d,
            k,
            marginals: masks_of_weight(d, k).collect(),
            rr: BinaryRandomizedResponse::for_epsilon(eps),
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

    /// Client: sample (marginal, nonzero local coefficient), release the
    /// perturbed sign.
    #[inline]
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> MargHtReport {
        let mi = rng.gen_range(0..self.marginals.len());
        let beta = self.marginals[mi];
        let local_cell = compress(row, beta.bits());
        let alpha = rng.gen_range(1..(1u64 << self.k));
        let theta = pm_one(alpha, local_cell);
        let noisy = self.rr.perturb_sign(theta, rng);
        MargHtReport {
            marginal: mi as u32,
            coefficient: alpha as u16,
            sign_positive: noisy > 0.0,
        }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> MargHtAggregator {
        let l = layout(Protocol::MargHt, self.d, self.k, 0, 0);
        MargHtAggregator {
            rr: self.rr,
            d: self.d,
            k: self.k,
            tally: Tally::new(l, "MargHT marginal", self.marginals.len() as u64),
        }
    }
}

/// Aggregator for [`MargHt`]: per-(marginal, coefficient) sign sums,
/// kept as the [`Tally`] of the (marginal, coefficient, sign) report
/// field.
#[derive(Clone, Debug)]
pub struct MargHtAggregator {
    rr: BinaryRandomizedResponse,
    d: u32,
    k: u32,
    tally: Tally,
}

impl MargHtAggregator {
    /// The range check: the report must name one of the `C(d,k)`
    /// marginals. The protocol table applies it to a whole batch before
    /// absorbing any of it.
    #[inline]
    pub fn check(&self, report: MargHtReport) -> Result<(), WireError> {
        self.tally.check(u64::from(report.marginal))
    }

    /// Absorb one report. Coefficient indices are folded into the
    /// sampled marginal's 2^k coefficients (`coefficient mod 2^k`), so a
    /// corrupt coefficient degrades to a miscount. The marginal must
    /// pass [`Self::check`]: the protocol table refuses a batch holding
    /// a marginal outside `C(d,k)`, and absorbing one directly panics.
    #[inline]
    pub fn absorb(&mut self, report: MargHtReport) {
        let (marginal, coefficient) = (u64::from(report.marginal), u64::from(report.coefficient));
        if let Err(e) = self
            .tally
            .absorb(marginal, coefficient, report.sign_positive)
        {
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
        self.d
    }

    /// Target marginal order.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Per marginal: unbias each coefficient, pin `c_0 = 1`, and invert
    /// the local Hadamard transform into a table.
    #[must_use]
    pub fn finish(self) -> MarginalSetEstimate {
        let cells = 1usize << self.k;
        let scale = 1.0 / cells as f64;
        let (sums, counts) = self.tally.signed();
        let tables = sums
            .chunks_exact(cells)
            .zip(counts.chunks_exact(cells))
            .map(|(sums, counts)| {
                let mut local = vec![0.0f64; cells];
                local[0] = 1.0; // constant coefficient, known exactly
                for a in 1..cells {
                    if counts[a] > 0 {
                        local[a] = self.rr.unbias_sign(sums[a] as f64 / counts[a] as f64);
                    }
                }
                fwht(&mut local);
                for v in local.iter_mut() {
                    *v *= scale;
                }
                local
            })
            .collect();
        MarginalSetEstimate::new(self.d, self.k, tables)
    }
}

impl Accumulator for MargHtAggregator {
    type Report = MargHtReport;
    type Output = MarginalSetEstimate;

    #[inline]
    fn absorb(&mut self, report: &MargHtReport) {
        MargHtAggregator::absorb(self, *report);
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

    fn write_config(&self) -> Writer {
        let mut w = Writer::with_tag(tag::MARG_HT);
        w.put_u32(self.d);
        w.put_u32(self.k);
        w.put_f64(self.rr.keep_probability());
        w
    }

    fn read_config<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::with_tag(bytes, tag::MARG_HT)?;
        r.expect_u32("MargHT d", self.d)?;
        r.expect_u32("MargHT k", self.k)?;
        r.expect_f64("MargHT keep probability", self.rr.keep_probability())?;
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
    use crate::mean_kway_tvd;
    use ldp_data::{movielens::MovieLensGenerator, BinaryDataset};
    use rand::{rngs::StdRng, SeedableRng};

    fn run(mech: &MargHt, rows: &[u64], seed: u64) -> MarginalSetEstimate {
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
        let mech = MargHt::new(6, 2, 1.1);
        let est = run(&mech, ds.rows(), 1);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.1, "mean 2-way tvd {tvd}");
    }

    #[test]
    fn tables_sum_to_one_exactly() {
        // The constant coefficient is pinned to 1, so every reconstructed
        // table sums to exactly 1.
        let mut rng = StdRng::seed_from_u64(2);
        let ds = MovieLensGenerator::new(5).generate(20_000, &mut rng);
        let mech = MargHt::new(5, 2, 1.1);
        let est = run(&mech, ds.rows(), 3);
        for i in 0..est.marginals().len() {
            let s: f64 = est.table(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "marginal {i} sums to {s}");
        }
    }

    #[test]
    fn point_mass_reconstruction() {
        let rows = vec![0b110u64; 80_000];
        let ds = BinaryDataset::new(3, rows.clone());
        let mech = MargHt::new(3, 2, 2.0);
        let est = run(&mech, &rows, 4);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.06, "tvd {tvd}");
    }

    #[test]
    fn load_refuses_huge_dims_without_enumerating() {
        // d=63, k=16 implies C(63,16) ≈ 9e14 tables; a d=8 k=2
        // accumulator refuses the blob at its first field, in O(1), and
        // never enumerates the masks the blob claims.
        use crate::wire::{tag, Writer};
        let mut w = Writer::with_tag(tag::MARG_HT);
        w.put_u32(63);
        w.put_u32(16);
        w.put_f64(0.75);
        w.put_i64_slice(&[0; 4]);
        w.put_u64_slice(&[0; 4]);
        let mut acc = MargHt::new(8, 2, 1.1).aggregator();
        let t0 = std::time::Instant::now();
        assert_eq!(
            acc.load(&w.into_bytes()),
            Err(WireError::Mismatch("MargHT d"))
        );
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn similar_accuracy_to_marg_ps() {
        // Lemma 4.6 gives MargPS and MargHT the same asymptotic bound;
        // their empirical accuracy should be within a small factor.
        let mut rng = StdRng::seed_from_u64(5);
        let ds = MovieLensGenerator::new(8).generate(120_000, &mut rng);
        let ht = run(&MargHt::new(8, 2, 1.1), ds.rows(), 6);
        let tvd_ht = mean_kway_tvd(&ht, &ds, 2);

        let ps = crate::MargPs::new(8, 2, 1.1);
        let mut agg = ps.aggregator();
        let mut rng2 = StdRng::seed_from_u64(7);
        for &row in ds.rows() {
            agg.absorb(ps.encode(row, &mut rng2));
        }
        let tvd_ps = mean_kway_tvd(&agg.finish(), &ds, 2);
        let ratio = (tvd_ht / tvd_ps).max(tvd_ps / tvd_ht);
        assert!(ratio < 2.0, "MargHT {tvd_ht} vs MargPS {tvd_ps}");
    }
}
