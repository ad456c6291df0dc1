//! The non-Hadamard Count-Mean Sketch: each user releases their *whole*
//! perturbed sketch row (`w` bits via unary encoding) instead of a single
//! Hadamard coefficient. Included to quantify the communication/accuracy
//! trade the Hadamard variant makes (Appendix B.2 discussion).

use crate::FrequencyOracle;
use ldp_core::wire::{in_range, tag, Reader, WireError, Writer};
use ldp_core::{Accumulator, UnaryTally};
use ldp_mechanisms::{check_epsilon, UnaryEncoding, UnaryFlavor};
use ldp_sampling::hash::{splitmix64, PolyHash};
use ldp_sampling::one_hot_words;
use rand::Rng;

/// One user's report: the sampled row and the positions reporting 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmsReport {
    /// Which sketch row (hash function) the user sampled.
    pub row: u8,
    /// Bucket positions reporting 1 after unary encoding.
    pub ones: Vec<u16>,
}

/// Configuration of the count-mean sketch.
#[derive(Clone, Debug)]
pub struct Cms {
    d: u32,
    g: usize,
    w: usize,
    ue: UnaryEncoding,
    hashes: Vec<PolyHash>,
}

impl Cms {
    /// ε-LDP instance with `g` hash rows of width `w`.
    #[must_use]
    pub fn new(d: u32, eps: f64, g: usize, w: usize, family_seed: u64) -> Self {
        check_epsilon(eps);
        assert!((1..=255).contains(&g) && w >= 2);
        let hashes = (0..g)
            .map(|l| PolyHash::from_seed(splitmix64(family_seed ^ (l as u64) << 23), 3, w as u64))
            .collect();
        Cms {
            d,
            g,
            w,
            ue: UnaryEncoding::for_epsilon(eps, UnaryFlavor::Optimized),
            hashes,
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Number of hash rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.g
    }

    /// Sketch width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Communication cost in bits per user (one row of the sketch).
    #[must_use]
    pub fn communication_bits(&self) -> usize {
        self.w + 8
    }

    /// Client: hash into the sampled row, unary-encode the bucket.
    pub fn encode<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> CmsReport {
        let (row, bucket) = self.sample_row(value, rng);
        let mut ones = Vec::new();
        let mut base = 0u16;
        self.perturbed_row(bucket, rng, |word, lanes| {
            ones.extend(ldp_bits::ones(word).map(|tz| base + tz as u16));
            base = base.wrapping_add(lanes as u16);
        });
        CmsReport { row, ones }
    }

    /// First half of the encode: draw the sketch row uniformly and hash
    /// the value into it. Returns `(row, bucket)`. Split out so the
    /// batched kernel can write the row field before the variable-length
    /// ones list.
    #[inline]
    pub fn sample_row<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> (u8, u64) {
        let l = rng.gen_range(0..self.g);
        (l as u8, self.hashes[l].hash(value))
    }

    /// Second half of the encode, shared by the serial
    /// [`encode`](Self::encode) and the wire encoder: the perturbed
    /// `w`-bucket unary encoding as successive words. See
    /// [`ldp_sampling::one_hot_words`].
    #[inline]
    pub fn perturbed_row<R: Rng + ?Sized, F: FnMut(u64, u32)>(
        &self,
        bucket: u64,
        rng: &mut R,
        emit: F,
    ) {
        let (p1, p0) = (self.ue.p1(), self.ue.p0());
        one_hot_words(rng, p1, p0, self.w as u64, bucket, emit);
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> CmsAggregator {
        CmsAggregator::new(self.clone(), vec![0; self.g], vec![0; self.g * self.w])
    }
}

/// Aggregator for [`Cms`]: per-row per-bucket 1-report counts, a
/// [`UnaryTally`] of `g` rows of `w` buckets.
#[derive(Clone, Debug)]
pub struct CmsAggregator {
    config: Cms,
    tally: UnaryTally,
}

impl CmsAggregator {
    /// Per-row `users` and row-major 1-counts `ones` under `config`.
    fn new(config: Cms, users: Vec<u64>, ones: Vec<u64>) -> Self {
        let tally = UnaryTally::new("CMS row", config.w, users, ones);
        CmsAggregator { config, tally }
    }

    /// The range check: a report must name one of the `g` sketch rows,
    /// and every position must lie in the row's `w` buckets. The
    /// protocol table applies it to a whole batch before absorbing any
    /// of it.
    #[inline]
    pub fn check<I: IntoIterator<Item = u16>>(&self, row: u8, ones: I) -> Result<(), WireError> {
        self.tally.check(u64::from(row))?;
        let width = self.config.w as u64;
        ones.into_iter()
            .try_for_each(|b| in_range("CMS bucket", u64::from(b), width))
    }

    /// Absorb one report that passes [`Self::check`] (absorbing one
    /// outside the sketch panics).
    pub fn absorb(&mut self, report: &CmsReport) {
        if let Err(e) = self.check(report.row, report.ones.iter().copied()) {
            panic!("{e}");
        }
        let buckets = report.ones.iter().map(|&b| usize::from(b));
        self.tally.absorb(u64::from(report.row), buckets);
    }

    /// The tally the frame kernel counts reports into.
    pub fn tally_mut(&mut self) -> &mut UnaryTally {
        &mut self.tally
    }

    /// The oracle configuration this aggregator decodes under.
    #[must_use]
    pub fn config(&self) -> &Cms {
        &self.config
    }

    /// Unbias rows into bucket distributions. Rows nobody sampled fall
    /// back to the uniform row.
    #[must_use]
    pub fn finish(self) -> CmsOracle {
        CmsOracle {
            rows: self.tally.unbias(self.config.ue),
            config: self.config,
        }
    }
}

impl Accumulator for CmsAggregator {
    type Report = CmsReport;
    type Output = CmsOracle;

    fn absorb(&mut self, report: &CmsReport) {
        CmsAggregator::absorb(self, report);
    }

    fn merge(&mut self, other: Self) {
        self.tally.merge(&other.tally);
    }

    fn report_count(&self) -> u64 {
        self.tally.report_count()
    }

    fn finalize(self) -> CmsOracle {
        self.finish()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::CMS);
        w.put_u32(self.config.d);
        w.put_u64(self.config.g as u64);
        w.put_u64(self.config.w as u64);
        w.put_f64(self.config.ue.p1());
        w.put_f64(self.config.ue.p0());
        for hash in &self.config.hashes {
            w.put_u64_slice(hash.coefficients());
        }
        let (users, ones) = self.tally.counts();
        w.put_u64_slice(users);
        for row in ones.chunks_exact(self.config.w) {
            w.put_u64_slice(row);
        }
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::CMS)?;
        let d = r.get_u32()?;
        let g = r.get_u64()? as usize;
        let w = r.get_u64()? as usize;
        let p1 = r.get_f64()?;
        let p0 = r.get_f64()?;
        if !(1..=255).contains(&g) || w < 2 {
            return Err(WireError::Invalid("CMS sketch shape"));
        }
        if !(0.0..=1.0).contains(&p1) || !(0.0..=1.0).contains(&p0) || p1 <= p0 {
            return Err(WireError::Invalid("CMS probabilities"));
        }
        let hashes = (0..g)
            .map(|_| {
                let coeffs = r.get_u64_vec()?;
                if coeffs.is_empty() || coeffs.iter().any(|&c| c >= ldp_sampling::hash::MERSENNE_P)
                {
                    return Err(WireError::Invalid("CMS hash coefficients"));
                }
                Ok(PolyHash::from_coefficients(coeffs, w as u64))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let users = r.get_u64_vec()?;
        let rows = (0..g)
            .map(|_| r.get_u64_vec())
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        if users.len() != g || rows.iter().any(|row| row.len() != w) {
            return Err(WireError::Invalid("CMS table shape"));
        }
        let ue = UnaryEncoding::with_probabilities(p1, p0);
        let config = Cms {
            d,
            g,
            w,
            ue,
            hashes,
        };
        Ok(CmsAggregator::new(config, users, rows.concat()))
    }
}

/// Decoded count-mean sketch.
#[derive(Clone, Debug)]
pub struct CmsOracle {
    config: Cms,
    rows: Vec<Vec<f64>>,
}

impl FrequencyOracle for CmsOracle {
    fn d(&self) -> u32 {
        self.config.d
    }

    fn estimate(&self, value: u64) -> f64 {
        let w = self.config.w as f64;
        let debias = w / (w - 1.0);
        self.rows
            .iter()
            .zip(&self.config.hashes)
            .map(|(row, h)| debias * (row[h.hash(value) as usize] - 1.0 / w))
            .sum::<f64>()
            / self.rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn recovers_heavy_hitter() {
        let config = Cms::new(10, 1.1, 5, 128, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<u64> = (0..60_000)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    77
                } else {
                    rng.gen_range(0..1024)
                }
            })
            .collect();
        let mut agg = config.aggregator();
        for &r in &rows {
            agg.absorb(&config.encode(r, &mut rng));
        }
        let oracle = agg.finish();
        let est = oracle.estimate(77);
        assert!((est - 0.5).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn accumulator_round_trips_through_bytes() {
        let config = Cms::new(8, 1.1, 4, 32, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut agg = config.aggregator();
        for v in 0..800u64 {
            agg.absorb(&config.encode(v % 50, &mut rng));
        }
        let bytes = Accumulator::to_bytes(&agg);
        let back = <CmsAggregator as Accumulator>::from_bytes(&bytes).unwrap();
        assert_eq!(Accumulator::to_bytes(&back), bytes);
        assert_eq!(back.report_count(), 800);
        assert_eq!(
            back.finalize().estimate(17).to_bits(),
            agg.finish().estimate(17).to_bits()
        );
    }

    #[test]
    fn communication_is_w_bits() {
        let config = Cms::new(10, 1.1, 5, 256, 4);
        assert_eq!(config.communication_bits(), 264);
        // versus 8 + 16 + 1 bits for the Hadamard variant — the gap the
        // transform buys.
    }
}
