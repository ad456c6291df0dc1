//! `InpHTCMS` — the Apple-style Hadamard Count-Mean Sketch.
//!
//! A sketch of `g` rows × `w` buckets, with a 3-wise independent hash per
//! row. Client: pick a row `l` uniformly, hash the input to a bucket,
//! take the one-hot vector of the bucket, sample **one** Hadamard
//! coefficient `m ∈ [w]` of it — its scaled value is
//! `(−1)^{⟨m, h_l(j)⟩}` — and release it through ε-RR. Here the Hadamard
//! transform reduces *communication* (one bit instead of `w`), "at the
//! expense of a slight increase in error, in contrast to our results
//! which use Hadamard to reduce both" (Appendix B.2).
//!
//! Aggregator: per row, average unbiased coefficient reports, pin the
//! constant coefficient to 1, invert the transform to get the row's
//! bucket distribution `p_l`, and estimate
//! `f̂(v) = mean_l (w/(w−1)) · (p_l[h_l(v)] − 1/w)` (count-*mean* debias).

use crate::FrequencyOracle;
use ldp_bits::pm_one;
use ldp_core::wire::{in_range, tag, Reader, WireError, Writer};
use ldp_core::{layout, Accumulator, Protocol, Tally};
use ldp_mechanisms::{check_epsilon, BinaryRandomizedResponse};
use ldp_sampling::hash::{splitmix64, PolyHash};
use ldp_transform::fwht;
use rand::Rng;

/// One user's report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HcmsReport {
    /// Which sketch row (hash function) the user sampled.
    pub row: u8,
    /// Which Hadamard coefficient of the hashed one-hot vector.
    pub coefficient: u16,
    /// The ε-RR output for the scaled coefficient.
    pub sign_positive: bool,
}

/// Configuration of the Hadamard count-mean sketch.
#[derive(Clone, Debug)]
pub struct HadamardCms {
    d: u32,
    g: usize,
    w: usize,
    rr: BinaryRandomizedResponse,
    hashes: Vec<PolyHash>,
}

impl HadamardCms {
    /// ε-LDP instance with `g` hash rows of width `w` (a power of two).
    /// The paper's Figure 10 setting is `g = 5`, `w = 256`.
    #[must_use]
    pub fn new(d: u32, eps: f64, g: usize, w: usize, family_seed: u64) -> Self {
        check_epsilon(eps);
        assert!((1..=255).contains(&g), "1 ≤ g ≤ 255 hash rows");
        assert!(
            w.is_power_of_two() && w >= 2,
            "width must be a power of two"
        );
        let hashes = (0..g)
            .map(|l| PolyHash::from_seed(splitmix64(family_seed ^ (l as u64) << 17), 3, w as u64))
            .collect();
        HadamardCms {
            d,
            g,
            w,
            rr: BinaryRandomizedResponse::for_epsilon(eps),
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

    /// Client: sample (row, coefficient), release the perturbed sign.
    pub fn encode<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> HcmsReport {
        let l = rng.gen_range(0..self.g);
        let bucket = self.hashes[l].hash(value);
        let m = rng.gen_range(0..self.w) as u64;
        let sign = pm_one(m, bucket);
        HcmsReport {
            row: l as u8,
            coefficient: m as u16,
            sign_positive: self.rr.perturb_sign(sign, rng) > 0.0,
        }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> HadamardCmsAggregator {
        let shape = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        let l = layout(Protocol::Hcms, self.d, 0, shape(self.g), shape(self.w));
        HadamardCmsAggregator {
            tally: Tally::new(l, "HCMS row", self.g as u64),
            config: self.clone(),
        }
    }
}

/// Aggregator for [`HadamardCms`]: per-(row, coefficient) sign sums,
/// kept as the [`Tally`] of the (row, coefficient, sign) report field.
#[derive(Clone, Debug)]
pub struct HadamardCmsAggregator {
    config: HadamardCms,
    tally: Tally,
}

impl HadamardCmsAggregator {
    /// The range check: a report must name one of the `g` sketch rows
    /// and one of the row's `w` coefficients. The protocol table applies
    /// it to a whole batch before absorbing any of it.
    #[inline]
    pub fn check(&self, report: HcmsReport) -> Result<(), WireError> {
        self.tally.check(u64::from(report.row))?;
        in_range(
            "HCMS coefficient",
            u64::from(report.coefficient),
            self.config.w as u64,
        )
    }

    /// Absorb one report that passes [`Self::check`] (absorbing one
    /// outside the sketch panics).
    #[inline]
    pub fn absorb(&mut self, report: HcmsReport) {
        let (row, coefficient) = (u64::from(report.row), u64::from(report.coefficient));
        let absorbed = self
            .check(report)
            .and_then(|()| self.tally.absorb(row, coefficient, report.sign_positive));
        if let Err(e) = absorbed {
            panic!("{e}");
        }
    }

    /// The tally the frame kernel counts reports into.
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// The oracle configuration this aggregator decodes under.
    #[must_use]
    pub fn config(&self) -> &HadamardCms {
        &self.config
    }

    /// Invert each row's transform into a bucket distribution.
    #[must_use]
    pub fn finish(self) -> HadamardCmsOracle {
        let w = self.config.w;
        let (sums, counts) = self.tally.signed();
        let rows: Vec<Vec<f64>> = sums
            .chunks_exact(w)
            .zip(counts.chunks_exact(w))
            .map(|(sums, counts)| {
                let mut coeffs = vec![0.0f64; w];
                coeffs[0] = 1.0; // constant coefficient known exactly
                for m in 1..w {
                    if counts[m] > 0 {
                        coeffs[m] = self
                            .config
                            .rr
                            .unbias_sign(sums[m] as f64 / counts[m] as f64);
                    }
                }
                fwht(&mut coeffs);
                let inv = 1.0 / w as f64;
                coeffs.iter_mut().for_each(|v| *v *= inv);
                coeffs
            })
            .collect();
        HadamardCmsOracle {
            config: self.config,
            rows,
        }
    }
}

impl Accumulator for HadamardCmsAggregator {
    type Report = HcmsReport;
    type Output = HadamardCmsOracle;

    fn absorb(&mut self, report: &HcmsReport) {
        HadamardCmsAggregator::absorb(self, *report);
    }

    fn merge(&mut self, other: Self) {
        self.tally.merge(&other.tally);
    }

    fn report_count(&self) -> u64 {
        self.tally.report_count()
    }

    fn finalize(self) -> HadamardCmsOracle {
        self.finish()
    }

    fn write_config(&self) -> Writer {
        let mut w = Writer::with_tag(tag::HCMS);
        w.put_u32(self.config.d);
        w.put_u64(self.config.g as u64);
        w.put_u64(self.config.w as u64);
        w.put_f64(self.config.rr.keep_probability());
        for hash in &self.config.hashes {
            w.put_u64_slice(hash.coefficients());
        }
        w
    }

    fn read_config<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::with_tag(bytes, tag::HCMS)?;
        let HadamardCms { d, g, w, rr, .. } = self.config;
        r.expect_u32("HCMS d", d)?;
        r.expect_u64("HCMS hashes", g as u64)?;
        r.expect_u64("HCMS width", w as u64)?;
        r.expect_f64("HCMS keep probability", rr.keep_probability())?;
        for hash in &self.config.hashes {
            r.expect_u64_slice("HCMS hash coefficients", hash.coefficients())?;
        }
        Ok(r)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let (sums, counts) = self.tally.signed();
        let mut w = self.write_config();
        for row in sums.chunks_exact(self.config.w) {
            w.put_i64_slice(row);
        }
        for row in counts.chunks_exact(self.config.w) {
            w.put_u64_slice(row);
        }
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = self.read_config(bytes)?;
        let (g, w) = (self.config.g, self.config.w);
        let sums = r.get_rows("HCMS row length", g, w, Reader::get_i64)?;
        let counts = r.get_rows("HCMS row length", g, w, Reader::get_u64)?;
        r.finish()?;
        self.tally.fill_signed(&sums, &counts)
    }
}

/// Decoded Hadamard count-mean sketch.
#[derive(Clone, Debug)]
pub struct HadamardCmsOracle {
    config: HadamardCms,
    /// Per-row estimated bucket distributions.
    rows: Vec<Vec<f64>>,
}

impl FrequencyOracle for HadamardCmsOracle {
    fn d(&self) -> u32 {
        self.config.d
    }

    /// `O(g)` per query.
    fn estimate(&self, value: u64) -> f64 {
        let w = self.config.w as f64;
        let debias = w / (w - 1.0);
        let mean: f64 = self
            .rows
            .iter()
            .zip(&self.config.hashes)
            .map(|(row, h)| debias * (row[h.hash(value) as usize] - 1.0 / w))
            .sum::<f64>()
            / self.rows.len() as f64;
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle_marginal;
    use ldp_bits::Mask;
    use rand::{rngs::StdRng, SeedableRng};

    fn run(config: &HadamardCms, rows: &[u64], seed: u64) -> HadamardCmsOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = config.aggregator();
        for &row in rows {
            agg.absorb(config.encode(row, &mut rng));
        }
        agg.finish()
    }

    #[test]
    fn row_distributions_sum_to_one() {
        let config = HadamardCms::new(8, 1.1, 5, 256, 42);
        let rows = vec![17u64; 20_000];
        let oracle = run(&config, &rows, 0);
        for (l, row) in oracle.rows.iter().enumerate() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {l} sums to {s}");
        }
    }

    #[test]
    fn recovers_heavy_hitter() {
        let config = HadamardCms::new(10, 3f64.ln(), 5, 256, 7);
        // 60% of users hold value 123; rest spread thinly.
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<u64> = (0..100_000)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    123
                } else {
                    rng.gen_range(0..1024)
                }
            })
            .collect();
        let oracle = run(&config, &rows, 2);
        let est = oracle.estimate(123);
        assert!((est - 0.6).abs() < 0.1, "heavy hitter estimate {est}");
    }

    #[test]
    fn light_cells_are_noisier_than_heavy() {
        // The paper's observation: HCMS "is not tuned for low-frequency
        // items". Check the heavy cell is well separated from the noise
        // floor.
        let config = HadamardCms::new(8, 1.1, 5, 256, 9);
        let rows = vec![42u64; 80_000];
        let oracle = run(&config, &rows, 3);
        let heavy = oracle.estimate(42);
        let max_light = (0..256u64)
            .filter(|&v| v != 42)
            .map(|v| oracle.estimate(v))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(heavy > 0.8, "heavy {heavy}");
        assert!(heavy > max_light + 0.3, "separation {heavy} vs {max_light}");
    }

    #[test]
    fn marginal_via_oracle_runs() {
        let config = HadamardCms::new(6, 1.1, 5, 128, 11);
        let mut rng = StdRng::seed_from_u64(4);
        let ds = ldp_data::synthetic::zipf_skewed(6, 1.2, 60_000, &mut rng);
        let oracle = run(&config, ds.rows(), 5);
        let m = oracle_marginal(&oracle, Mask::new(0b11));
        assert_eq!(m.len(), 4);
        // Estimates are unbiased, so the total is near 1.
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 0.3, "{m:?}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_width() {
        let _ = HadamardCms::new(4, 1.0, 5, 100, 0);
    }

    #[test]
    fn accumulator_bytes_are_partition_invariant() {
        let config = HadamardCms::new(8, 1.1, 3, 64, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let reports: Vec<HcmsReport> = (0..2_000u64)
            .map(|v| config.encode(v % 97, &mut rng))
            .collect();

        let mut serial = config.aggregator();
        for &r in &reports {
            serial.absorb(r);
        }
        // Interleaved split, parts merged in the opposite order.
        let mut a = config.aggregator();
        let mut b = config.aggregator();
        for (i, &r) in reports.iter().enumerate() {
            if i % 3 == 0 {
                a.absorb(r);
            } else {
                b.absorb(r);
            }
        }
        Accumulator::merge(&mut b, a);

        let bytes = Accumulator::to_bytes(&serial);
        assert_eq!(bytes, Accumulator::to_bytes(&b));
        let mut back = config.aggregator();
        back.load(&bytes).unwrap();
        assert_eq!(Accumulator::to_bytes(&back), bytes);
        assert_eq!(back.report_count(), 2_000);
        // Rehydrated sketch decodes identically.
        let (x, y) = (back.finalize(), serial.finish());
        for v in 0..128u64 {
            assert_eq!(x.estimate(v).to_bits(), y.estimate(v).to_bits());
        }
    }
}
