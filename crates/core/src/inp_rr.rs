//! `InpRR` — parallel randomized response on the full input vector (§4.2).
//!
//! Each user one-hot-encodes their record into `2^d` bits and perturbs
//! **every** bit with `ε/2`-randomized response (Fact 3.2 composes the two
//! affected positions to ε-LDP). The aggregator unbiases per-cell report
//! frequencies to reconstruct the full distribution; marginals are then
//! obtained by aggregation (Theorem 4.3: total variation error
//! `Õ(2^{(d+k)/2} / (ε√N))`).
//!
//! Communication is `2^d` bits per user, so the faithful client path is
//! `O(2^d)` per user. [`InpRr::run_fast`] instead samples the aggregate
//! per-cell 1-report counts directly from
//! `Binomial(n_cell, p₁) + Binomial(N − n_cell, p₀)` — identical in
//! distribution to summing the per-user reports (independence across users
//! and cells), validated by a statistical equivalence test below.

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{Accumulator, FullDistributionEstimate, UnaryTally};
use ldp_mechanisms::{UnaryEncoding, UnaryFlavor};
use ldp_sampling::{binomial, hash::splitmix64, one_hot_words};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Configuration of the `InpRR` mechanism.
#[derive(Clone, Debug)]
pub struct InpRr {
    d: u32,
    ue: UnaryEncoding,
}

impl InpRr {
    /// ε-LDP instance over `d` attributes, using the Wang et al. optimized
    /// probabilities the paper's experiments adopt (§5.1).
    #[must_use]
    pub fn new(d: u32, eps: f64) -> Self {
        Self::with_flavor(d, eps, UnaryFlavor::Optimized)
    }

    /// Choose the unary-encoding probability flavor explicitly (the
    /// `ablations` binary compares the two).
    #[must_use]
    pub fn with_flavor(d: u32, eps: f64, flavor: UnaryFlavor) -> Self {
        assert!(
            (1..=24).contains(&d),
            "InpRR materializes 2^d cells; need d ≤ 24"
        );
        InpRr {
            d,
            ue: UnaryEncoding::for_epsilon(eps, flavor),
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The underlying per-bit primitive.
    #[must_use]
    pub fn encoding(&self) -> UnaryEncoding {
        self.ue
    }

    /// Faithful client: perturb the full one-hot vector and report it as
    /// words (bit `j` of word `i` is cell `64·i + j`). `O(2^d)` cells,
    /// but the coins are drawn 64 lanes per RNG word (see
    /// [`perturbed_words`](Self::perturbed_words)), not one `gen_bool`
    /// per cell.
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> Vec<u64> {
        let mut words = Vec::new();
        self.perturbed_words(row, rng, |word, _| words.push(word));
        words
    }

    /// The perturbed one-hot vector as successive 64-bit words, in
    /// ascending position order — the shared core of the serial
    /// [`encode`](Self::encode) and the wire encoder, which writes these
    /// words verbatim as the report's `2^d`-bit set. See
    /// [`ldp_sampling::one_hot_words`]: the `2^d − 1` background cells
    /// are i.i.d. `Bernoulli(p₀)` coins drawn 64 lanes per RNG word, with
    /// the true cell's bit overridden by a separate `Bernoulli(p₁)` draw.
    #[inline]
    pub fn perturbed_words<R: Rng + ?Sized, F: FnMut(u64, u32)>(
        &self,
        row: u64,
        rng: &mut R,
        emit: F,
    ) {
        let (p1, p0) = (self.ue.p1(), self.ue.p0());
        one_hot_words(rng, p1, p0, 1u64 << self.d, row, emit);
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> InpRrAggregator {
        // One row: the range check never fails, so its name never shows.
        let tally = UnaryTally::new("InpRR table", 1, 1 << self.d);
        InpRrAggregator {
            ue: self.ue,
            tally,
            d: self.d,
        }
    }

    /// Exact-in-distribution aggregate simulation (see module docs): draws
    /// the final per-cell 1-report counts directly. `O(N + 2^d)`.
    #[must_use]
    pub fn run_fast(&self, rows: &[u64], seed: u64) -> FullDistributionEstimate {
        assert!(!rows.is_empty());
        let cells = 1usize << self.d;
        let mut counts = vec![0u64; cells];
        for &r in rows {
            counts[r as usize] += 1;
        }
        let n = rows.len() as u64;
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x1A9C));
        for c in &mut counts {
            *c = binomial(&mut rng, *c, self.ue.p1()) + binomial(&mut rng, n - *c, self.ue.p0());
        }
        let mut agg = self.aggregator();
        agg.tally
            .fill(vec![n], counts)
            .expect("2^d cell counts fill the 2^d-cell tally");
        agg.finish()
    }
}

/// Aggregator for [`InpRr`]: per-cell 1-report counts, a
/// [`UnaryTally`] of one `2^d`-cell row.
#[derive(Clone, Debug)]
pub struct InpRrAggregator {
    ue: UnaryEncoding,
    tally: UnaryTally,
    d: u32,
}

impl InpRrAggregator {
    /// Absorb one user's report, the words of its perturbed vector. A
    /// bit past the `2^d` cells (which the encoder never sets) counts
    /// nothing.
    #[inline]
    pub fn absorb(&mut self, report: &[u64]) {
        self.tally.absorb(0, report);
    }

    /// The tally the frame kernel counts reports into.
    pub fn tally_mut(&mut self) -> &mut UnaryTally {
        &mut self.tally
    }

    /// Unbias every cell and produce the reconstructed full
    /// distribution (uniform when no report was absorbed).
    #[must_use]
    pub fn finish(self) -> FullDistributionEstimate {
        FullDistributionEstimate::new(self.d, self.tally.unbias(self.ue).concat())
    }
}

impl Accumulator for InpRrAggregator {
    type Report = Vec<u64>;
    type Output = FullDistributionEstimate;

    #[inline]
    fn absorb(&mut self, report: &Vec<u64>) {
        InpRrAggregator::absorb(self, report);
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
        let mut w = Writer::with_tag(tag::INP_RR);
        w.put_u32(self.d);
        w.put_f64(self.ue.p1());
        w.put_f64(self.ue.p0());
        w.put_u64(self.tally.report_count());
        w.put_u64_slice(self.tally.counts().1);
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::with_tag(bytes, tag::INP_RR)?;
        r.expect_u32("InpRR d", self.d)?;
        r.expect_f64("InpRR p1", self.ue.p1())?;
        r.expect_f64("InpRR p0", self.ue.p0())?;
        let n = r.get_u64()?;
        let ones = r.get_u64_vec()?;
        r.finish()?;
        self.tally.fill(vec![n], ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarginalEstimator;
    use ldp_bits::Mask;
    use ldp_data::BinaryDataset;
    use ldp_transform::total_variation_distance;
    use rand::rngs::StdRng;

    fn skewed_rows(d: u32, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Mild skew toward low indices.
                let a = rng.gen_range(0..(1u64 << d));
                let b = rng.gen_range(0..(1u64 << d));
                a.min(b)
            })
            .collect()
    }

    #[test]
    fn faithful_path_reconstructs_distribution() {
        let mech = InpRr::new(3, 2.0);
        let rows = skewed_rows(3, 40_000, 1);
        let ds = BinaryDataset::new(3, rows.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let mut agg = mech.aggregator();
        for &row in &rows {
            let report = mech.encode(row, &mut rng);
            agg.absorb(&report);
        }
        let est = agg.finish();
        let tvd = total_variation_distance(&ds.full_distribution(), est.distribution());
        assert!(tvd < 0.05, "tvd {tvd}");
    }

    #[test]
    fn fast_path_reconstructs_distribution() {
        let mech = InpRr::new(4, 1.5);
        let rows = skewed_rows(4, 100_000, 3);
        let ds = BinaryDataset::new(4, rows.clone());
        let est = mech.run_fast(&rows, 4);
        let tvd = total_variation_distance(&ds.full_distribution(), est.distribution());
        assert!(tvd < 0.05, "tvd {tvd}");
    }

    /// Statistical equivalence of the faithful and fast paths: the mean
    /// and spread of the estimate of one (arbitrary) cell should agree
    /// across repetitions.
    #[test]
    fn fast_path_matches_faithful_distributionally() {
        let mech = InpRr::new(3, 1.1);
        let rows = skewed_rows(3, 2_000, 5);
        let reps = 120;
        let cell = 2usize;

        let mut faithful = Vec::with_capacity(reps);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..reps {
            let mut agg = mech.aggregator();
            for &row in &rows {
                let rep = mech.encode(row, &mut rng);
                agg.absorb(&rep);
            }
            faithful.push(agg.finish().distribution()[cell]);
        }
        let fast: Vec<f64> = (0..reps)
            .map(|r| mech.run_fast(&rows, 1000 + r as u64).distribution()[cell])
            .collect();

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let sd = |v: &[f64]| {
            let m = mean(v);
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
        };
        let (mf, ms) = (mean(&faithful), mean(&fast));
        let (sf, ss) = (sd(&faithful), sd(&fast));
        // Means within 3 combined standard errors; spreads within 40%.
        let se = (sf * sf / reps as f64 + ss * ss / reps as f64).sqrt();
        assert!((mf - ms).abs() < 3.5 * se, "means {mf} vs {ms} (se {se})");
        assert!((sf / ss).max(ss / sf) < 1.4, "sds {sf} vs {ss}");
    }

    #[test]
    fn estimator_is_unbiased_per_cell() {
        // Mean estimate over repetitions converges to the truth.
        let mech = InpRr::new(2, 0.8);
        let rows = vec![0u64; 300]; // point mass at cell 0
        let reps = 300;
        let mut sums = [0.0f64; 4];
        for r in 0..reps {
            let est = mech.run_fast(&rows, r as u64);
            for (s, v) in sums.iter_mut().zip(est.distribution()) {
                *s += v;
            }
        }
        for (cell, s) in sums.iter().enumerate() {
            let mean = s / f64::from(reps);
            let truth = if cell == 0 { 1.0 } else { 0.0 };
            assert!((mean - truth).abs() < 0.05, "cell {cell}: {mean}");
        }
    }

    #[test]
    fn marginals_consistent_with_distribution() {
        let mech = InpRr::new(4, 1.1);
        let rows = skewed_rows(4, 50_000, 7);
        let est = mech.run_fast(&rows, 8);
        let beta = Mask::new(0b0101);
        let m = est.marginal(beta);
        // Marginal entries sum to the same total as the distribution
        // (≈ 1, up to unbiasing noise).
        let total: f64 = est.distribution().iter().sum();
        assert!((m.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "d ≤ 24")]
    fn rejects_huge_domains() {
        let _ = InpRr::new(30, 1.0);
    }
}
