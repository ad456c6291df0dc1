//! `MargRR` — parallel randomized response on one random k-way marginal
//! (§4.3).
//!
//! Client: sample a marginal `β` uniformly from the `C(d,k)` k-way
//! marginals, materialize the user's (one-hot) marginal table `C_β(t_i)`
//! of size `2^k`, perturb every cell with `ε/2`-RR, and send
//! `⟨perturbed table, β⟩` (`d + 2^k` bits). Aggregator: per marginal,
//! unbias cell frequencies over the users who sampled it. Error
//! `Õ(2^k d^{k/2} / (ε√N))`.

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{Accumulator, MarginalSetEstimate, UnaryTally};
use ldp_bits::{compress, masks_of_weight, Mask};
use ldp_mechanisms::{UnaryEncoding, UnaryFlavor};
use ldp_sampling::one_hot_words;
use rand::Rng;

/// One user's report: the sampled marginal and its perturbed one-hot
/// table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MargRrReport {
    /// Index of the sampled marginal in `masks_of_weight(d, k)` order.
    pub marginal: u32,
    /// The perturbed `2^k`-cell table as words: bit `j` of word `i` is
    /// cell `64·i + j`.
    pub words: Vec<u64>,
}

/// Configuration of the `MargRR` mechanism.
#[derive(Clone, Debug)]
pub struct MargRr {
    d: u32,
    k: u32,
    marginals: Vec<Mask>,
    ue: UnaryEncoding,
}

impl MargRr {
    /// ε-LDP instance targeting k-way marginals over `d` attributes,
    /// using the Wang et al. optimized probabilities (§5.1).
    #[must_use]
    pub fn new(d: u32, k: u32, eps: f64) -> Self {
        Self::with_flavor(d, k, eps, UnaryFlavor::Optimized)
    }

    /// Choose the unary-encoding probability flavor explicitly.
    #[must_use]
    pub fn with_flavor(d: u32, k: u32, eps: f64, flavor: UnaryFlavor) -> Self {
        assert!(k >= 1 && k <= d && k <= 16, "need 1 ≤ k ≤ min(d, 16)");
        MargRr {
            d,
            k,
            marginals: masks_of_weight(d, k).collect(),
            ue: UnaryEncoding::for_epsilon(eps, flavor),
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

    /// Client: sample a marginal, perturb its one-hot table.
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> MargRrReport {
        let (marginal, cell) = self.sample_marginal(row, rng);
        let mut words = Vec::new();
        self.perturbed_table(cell, rng, |word, _| words.push(word));
        MargRrReport { marginal, words }
    }

    /// First half of the encode: draw the marginal uniformly and project
    /// the row onto it. Returns `(marginal index, local cell)`. Split
    /// out so the batched kernel can write the marginal field before the
    /// table, and `Mechanism::run` can count the table without building
    /// a report.
    #[inline]
    pub fn sample_marginal<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> (u32, u64) {
        let mi = rng.gen_range(0..self.marginals.len());
        let beta = self.marginals[mi];
        (mi as u32, compress(row, beta.bits()))
    }

    /// Second half of the encode, shared by the serial
    /// [`encode`](Self::encode), the wire encoder and `Mechanism::run`:
    /// the perturbed `2^k`-cell table as successive words (a single word
    /// of `2^k` lanes for `k ≤ 6`). See [`ldp_sampling::one_hot_words`].
    #[inline]
    pub fn perturbed_table<R: Rng + ?Sized, F: FnMut(u64, u32)>(
        &self,
        cell: u64,
        rng: &mut R,
        emit: F,
    ) {
        let (p1, p0) = (self.ue.p1(), self.ue.p0());
        one_hot_words(rng, p1, p0, 1u64 << self.k, cell, emit);
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> MargRrAggregator {
        let tally = UnaryTally::new("MargRR marginal", self.marginals.len(), 1 << self.k);
        MargRrAggregator {
            ue: self.ue,
            d: self.d,
            k: self.k,
            tally,
        }
    }
}

/// Aggregator for [`MargRr`]: per-marginal per-cell 1-report counts, a
/// [`UnaryTally`] of one `2^k`-cell row per marginal.
#[derive(Clone, Debug)]
pub struct MargRrAggregator {
    ue: UnaryEncoding,
    d: u32,
    k: u32,
    tally: UnaryTally,
}

impl MargRrAggregator {
    /// The range check: a report must name one of the `C(d,k)`
    /// marginals. The protocol table applies it to a whole batch before
    /// absorbing any of it.
    #[inline]
    pub fn check(&self, marginal: u32) -> Result<(), WireError> {
        self.tally.check(u64::from(marginal))
    }

    /// Absorb one report that passes [`Self::check`] (absorbing one
    /// outside `C(d,k)` panics). A bit past the sampled marginal's `2^k`
    /// cells (which the encoder never sets) counts nothing.
    #[inline]
    pub fn absorb(&mut self, report: &MargRrReport) {
        if let Err(e) = self.check(report.marginal) {
            panic!("{e}");
        }
        self.tally.absorb(u64::from(report.marginal), &report.words);
    }

    /// The tally the frame kernel and `Mechanism::run` count into.
    pub fn tally_mut(&mut self) -> &mut UnaryTally {
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

    /// Unbias every marginal table. Marginals nobody sampled fall back to
    /// the uniform table.
    #[must_use]
    pub fn finish(self) -> MarginalSetEstimate {
        MarginalSetEstimate::new(self.d, self.k, self.tally.unbias(self.ue))
    }
}

impl Accumulator for MargRrAggregator {
    type Report = MargRrReport;
    type Output = MarginalSetEstimate;

    #[inline]
    fn absorb(&mut self, report: &MargRrReport) {
        MargRrAggregator::absorb(self, report);
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
        let mut w = Writer::with_tag(tag::MARG_RR);
        w.put_u32(self.d);
        w.put_u32(self.k);
        w.put_f64(self.ue.p1());
        w.put_f64(self.ue.p0());
        w
    }

    fn read_config<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::with_tag(bytes, tag::MARG_RR)?;
        r.expect_u32("MargRR d", self.d)?;
        r.expect_u32("MargRR k", self.k)?;
        r.expect_f64("MargRR p1", self.ue.p1())?;
        r.expect_f64("MargRR p0", self.ue.p0())?;
        Ok(r)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = self.write_config();
        let (users, ones) = self.tally.counts();
        w.put_u64_slice(users);
        w.put_u64_slice(ones);
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = self.read_config(bytes)?;
        let users = r.get_u64_vec()?;
        let ones = r.get_u64_vec()?;
        r.finish()?;
        self.tally.fill(users, ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mean_kway_tvd;
    use ldp_data::{movielens::MovieLensGenerator, BinaryDataset};
    use rand::{rngs::StdRng, SeedableRng};

    fn run(mech: &MargRr, rows: &[u64], seed: u64) -> MarginalSetEstimate {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = mech.aggregator();
        for &row in rows {
            agg.absorb(&mech.encode(row, &mut rng));
        }
        agg.finish()
    }

    #[test]
    fn marginal_count() {
        assert_eq!(MargRr::new(8, 2, 1.0).marginal_count(), 28);
        assert_eq!(MargRr::new(16, 3, 1.0).marginal_count(), 560);
    }

    #[test]
    fn reconstructs_marginals() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = MovieLensGenerator::new(6).generate(150_000, &mut rng);
        let mech = MargRr::new(6, 2, 1.1);
        let est = run(&mech, ds.rows(), 1);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.12, "mean 2-way tvd {tvd}");
    }

    #[test]
    fn tables_sum_to_one() {
        // OUE unbiasing is affine, and each user's one-hot sums to 1 only
        // in expectation — so sums should concentrate near 1.
        let mut rng = StdRng::seed_from_u64(2);
        let ds = MovieLensGenerator::new(5).generate(80_000, &mut rng);
        let mech = MargRr::new(5, 2, 1.1);
        let est = run(&mech, ds.rows(), 3);
        for i in 0..est.marginals().len() {
            let s: f64 = est.table(i).iter().sum();
            assert!((s - 1.0).abs() < 0.2, "marginal {i} sums to {s}");
        }
    }

    #[test]
    fn point_mass_reconstruction() {
        let rows = vec![0b011u64; 60_000];
        let ds = BinaryDataset::new(3, rows.clone());
        let mech = MargRr::new(3, 2, 2.0);
        let est = run(&mech, &rows, 4);
        let tvd = mean_kway_tvd(&est, &ds, 2);
        assert!(tvd < 0.07, "tvd {tvd}");
    }

    #[test]
    fn unsampled_marginals_fall_back_to_uniform() {
        // A single user cannot cover all 28 marginals.
        let mech = MargRr::new(8, 2, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut agg = mech.aggregator();
        agg.absorb(&mech.encode(0, &mut rng));
        let est = agg.finish();
        let uniform_tables = est
            .marginals()
            .iter()
            .enumerate()
            .filter(|(i, _)| est.table(*i).iter().all(|v| (v - 0.25).abs() < 1e-12))
            .count();
        assert!(uniform_tables >= 27);
    }
}
