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

/// One user's report: the sampled row and its perturbed unary
/// encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmsReport {
    /// Which sketch row (hash function) the user sampled.
    pub row: u8,
    /// The perturbed `w`-bucket row as words: bit `j` of word `i` is
    /// bucket `64·i + j`.
    pub words: Vec<u64>,
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
        let mut words = Vec::new();
        self.perturbed_row(bucket, rng, |word, _| words.push(word));
        CmsReport { row, words }
    }

    /// First half of the encode: draw the sketch row uniformly and hash
    /// the value into it. Returns `(row, bucket)`. Split out so the
    /// batched kernel can write the row field before the perturbed row.
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
        CmsAggregator {
            tally: UnaryTally::new("CMS row", self.g, self.w),
            config: self.clone(),
        }
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
    /// The range check: a report must name one of the `g` sketch rows,
    /// and no bit of its `words` may stand for a bucket at or past `w`
    /// (the first such bucket is named). The protocol table applies it
    /// to a whole batch before absorbing any of it.
    #[inline]
    pub fn check(&self, row: u8, words: &[u64]) -> Result<(), WireError> {
        self.tally.check(u64::from(row))?;
        let width = self.config.w as u64;
        for (base, &word) in (0u64..).step_by(64).zip(words) {
            // This word's bits past its `inside` buckets, shifted down.
            let inside = width.saturating_sub(base);
            let stray = word
                .checked_shr(inside.try_into().unwrap_or(64))
                .unwrap_or(0);
            if stray != 0 {
                let bucket = base + inside + u64::from(stray.trailing_zeros());
                return in_range("CMS bucket", bucket, width);
            }
        }
        Ok(())
    }

    /// Absorb one report that passes [`Self::check`] (absorbing one
    /// outside the sketch panics).
    pub fn absorb(&mut self, report: &CmsReport) {
        if let Err(e) = self.check(report.row, &report.words) {
            panic!("{e}");
        }
        self.tally.absorb(u64::from(report.row), &report.words);
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

    fn write_config(&self) -> Writer {
        let mut w = Writer::with_tag(tag::CMS);
        w.put_u32(self.config.d);
        w.put_u64(self.config.g as u64);
        w.put_u64(self.config.w as u64);
        w.put_f64(self.config.ue.p1());
        w.put_f64(self.config.ue.p0());
        for hash in &self.config.hashes {
            w.put_u64_slice(hash.coefficients());
        }
        w
    }

    fn read_config<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::with_tag(bytes, tag::CMS)?;
        let Cms { d, g, w, ue, .. } = self.config;
        r.expect_u32("CMS d", d)?;
        r.expect_u64("CMS hashes", g as u64)?;
        r.expect_u64("CMS width", w as u64)?;
        r.expect_f64("CMS p1", ue.p1())?;
        r.expect_f64("CMS p0", ue.p0())?;
        for hash in &self.config.hashes {
            r.expect_u64_slice("CMS hash coefficients", hash.coefficients())?;
        }
        Ok(r)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = self.write_config();
        let (users, ones) = self.tally.counts();
        w.put_u64_slice(users);
        for row in ones.chunks_exact(self.config.w) {
            w.put_u64_slice(row);
        }
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = self.read_config(bytes)?;
        let (g, w) = (self.config.g, self.config.w);
        let users = r.get_u64_vec()?;
        let ones = r.get_rows("CMS row length", g, w, Reader::get_u64)?;
        r.finish()?;
        self.tally.fill(users, ones)
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
        let mut back = config.aggregator();
        back.load(&bytes).unwrap();
        assert_eq!(Accumulator::to_bytes(&back), bytes);
        assert_eq!(back.report_count(), 800);
        assert_eq!(
            back.finalize().estimate(17).to_bits(),
            agg.finish().estimate(17).to_bits()
        );

        // A sketch of another hash family refuses the state by name.
        let mut other = Cms::new(8, 1.1, 4, 32, 3).aggregator();
        assert_eq!(
            other.load(&bytes),
            Err(WireError::Mismatch("CMS hash coefficients"))
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
