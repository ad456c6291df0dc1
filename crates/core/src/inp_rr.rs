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
use crate::{Accumulator, FullDistributionEstimate};
use ldp_mechanisms::{UnaryEncoding, UnaryFlavor};
use ldp_sampling::{bernoulli_fixed, bernoulli_word, binomial, hash::splitmix64};
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

    /// Faithful client: perturb the full one-hot vector, reporting the
    /// (typically dense) set of positions that flip to 1. `O(2^d)` cells,
    /// but the coins are drawn 64 lanes per RNG word (see
    /// [`perturbed_ones`](Self::perturbed_ones)), not one `gen_bool` per
    /// cell.
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> Vec<u32> {
        let mut ones = Vec::new();
        self.perturbed_ones(row, rng, |cell| ones.push(cell));
        ones
    }

    /// Walk the perturbed one-hot vector's 1-positions in ascending
    /// order, invoking `emit` for each. This is the shared core of the
    /// serial [`encode`](Self::encode) and the batched kernel: the
    /// `2^d − 1` background cells are i.i.d. `Bernoulli(p₀)` coins drawn
    /// 64 lanes per RNG word via [`bernoulli_word`] (quantized at 2⁻⁶⁴,
    /// finer than `gen_bool`'s 53-bit comparison), with the one true
    /// cell's bit overridden by a separate `Bernoulli(p₁)` draw. The
    /// schedule is deterministic in the RNG state, so per-user
    /// reproducibility (`user_rng(seed, i)`) is preserved.
    #[inline]
    pub fn perturbed_ones<R: Rng + ?Sized, F: FnMut(u32)>(
        &self,
        row: u64,
        rng: &mut R,
        mut emit: F,
    ) {
        let cells = 1u64 << self.d;
        debug_assert!(row < cells);
        let truth = rng.gen_bool(self.ue.p1());
        let p0 = bernoulli_fixed(self.ue.p0());
        let mut base = 0u64;
        while base < cells {
            let lanes = (cells - base).min(64) as u32;
            let mut word = bernoulli_word(rng, p0, lanes);
            if row >= base && row - base < u64::from(lanes) {
                let bit = 1u64 << (row - base);
                if truth {
                    word |= bit;
                } else {
                    word &= !bit;
                }
            }
            while word != 0 {
                let tz = word.trailing_zeros();
                emit(base as u32 + tz);
                word &= word - 1;
            }
            base += u64::from(lanes);
        }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> InpRrAggregator {
        InpRrAggregator {
            ue: self.ue,
            ones: vec![0u64; 1usize << self.d],
            n: 0,
            d: self.d,
        }
    }

    /// Exact-in-distribution aggregate simulation (see module docs): draws
    /// the final per-cell 1-report counts directly. `O(N + 2^d)`.
    #[must_use]
    pub fn run_fast(&self, rows: &[u64], seed: u64) -> FullDistributionEstimate {
        assert!(!rows.is_empty());
        let cells = 1usize << self.d;
        let mut true_counts = vec![0u64; cells];
        for &r in rows {
            true_counts[r as usize] += 1;
        }
        let n = rows.len() as u64;
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x1A9C));
        let mut agg = self.aggregator();
        agg.n = rows.len();
        for (cell, ones) in agg.ones.iter_mut().enumerate() {
            let n1 = true_counts[cell];
            *ones = binomial(&mut rng, n1, self.ue.p1()) + binomial(&mut rng, n - n1, self.ue.p0());
        }
        agg.finish()
    }
}

/// Aggregator for [`InpRr`]: per-cell 1-report counts.
#[derive(Clone, Debug)]
pub struct InpRrAggregator {
    ue: UnaryEncoding,
    ones: Vec<u64>,
    n: usize,
    d: u32,
}

impl InpRrAggregator {
    /// Absorb one user's report (the positions reporting 1). Positions
    /// are folded into the 2^d-cell table (`pos mod 2^d`), so a corrupt
    /// wire report degrades to a miscount instead of panicking a
    /// collector thread; the encoder never produces an out-of-range
    /// position.
    #[inline]
    pub fn absorb(&mut self, report: &[u32]) {
        self.absorb_ones(report.iter().copied());
    }

    /// [`Self::absorb`] over any iterator of positions — the form the
    /// protocol table's frame kernel reads straight off the wire.
    #[inline]
    pub fn absorb_ones<I: IntoIterator<Item = u32>>(&mut self, ones: I) {
        let mask = self.ones.len() - 1; // cell count is 2^d
        for pos in ones {
            self.ones[pos as usize & mask] += 1;
        }
        self.n += 1;
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Unbias every cell and produce the reconstructed full distribution.
    #[must_use]
    pub fn finish(self) -> FullDistributionEstimate {
        assert!(self.n > 0, "no reports absorbed");
        let n = self.n as f64;
        let dist = self
            .ones
            .iter()
            .map(|&c| self.ue.unbias_frequency(c as f64 / n))
            .collect();
        FullDistributionEstimate::new(self.d, dist)
    }
}

impl Accumulator for InpRrAggregator {
    type Report = Vec<u32>;
    type Output = FullDistributionEstimate;

    #[inline]
    fn absorb(&mut self, report: &Vec<u32>) {
        InpRrAggregator::absorb(self, report);
    }

    fn merge(&mut self, other: Self) {
        assert_eq!(self.ones.len(), other.ones.len());
        for (a, b) in self.ones.iter_mut().zip(other.ones) {
            *a = a.saturating_add(b);
        }
        self.n = self.n.saturating_add(other.n);
    }

    fn report_count(&self) -> u64 {
        self.n as u64
    }

    fn finalize(self) -> FullDistributionEstimate {
        self.finish()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::INP_RR);
        w.put_u32(self.d);
        w.put_f64(self.ue.p1());
        w.put_f64(self.ue.p0());
        w.put_u64(self.n as u64);
        w.put_u64_slice(&self.ones);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::INP_RR)?;
        let d = r.get_u32()?;
        let p1 = r.get_f64()?;
        let p0 = r.get_f64()?;
        let n = r.get_u64()? as usize;
        let ones = r.get_u64_vec()?;
        r.finish()?;
        if !(1..=24).contains(&d) {
            return Err(WireError::Invalid("InpRR dimension"));
        }
        if !(0.0..=1.0).contains(&p1) || !(0.0..=1.0).contains(&p0) || p1 <= p0 {
            return Err(WireError::Invalid("InpRR probabilities"));
        }
        if ones.len() != 1usize << d {
            return Err(WireError::Invalid("InpRR cell-count length"));
        }
        Ok(InpRrAggregator {
            ue: UnaryEncoding::with_probabilities(p1, p0),
            ones,
            n,
            d,
        })
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
