#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness: shared machinery for the per-figure binaries that
//! regenerate every table and figure of the paper (see the top-level
//! `README.md` for the experiment index and how to run each binary).
//!
//! Each binary prints the same rows/series the paper reports; pass
//! `--reps R` to change the repetition count (the paper uses 10; the
//! binaries default lower to keep a full reproduction run fast) or
//! `--quick` for a reduced smoke-test grid.

pub mod histogram;

use ldp_bits::{masks_of_weight, Mask};
use ldp_core::{Estimate, MarginalEstimator, MechanismKind};
use ldp_data::{movielens::MovieLensGenerator, taxi::TaxiGenerator, BinaryDataset};
use ldp_transform::{marginalize, total_variation_distance};
use rand::{rngs::StdRng, SeedableRng};

/// Simple mean/std aggregate of repeated measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population form, as the paper's error
    /// bars show spread over repetitions).
    pub std: f64,
}

/// Summarize a slice of measurements.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty());
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    Summary {
        mean,
        std: var.sqrt(),
    }
}

/// The two dataset substitutes plus the Figure 10 synthetic source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataSource {
    /// MovieLens-like positively-correlated preferences.
    MovieLens,
    /// NYC-taxi-like 8-attribute trips (column-duplicated above d = 8).
    Taxi,
    /// Lightly-skewed full-domain synthetic (Figure 10).
    Skewed,
}

impl DataSource {
    /// Generate a dataset of `n` records over `d` attributes.
    #[must_use]
    pub fn generate(self, d: u32, n: usize, seed: u64) -> BinaryDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            DataSource::MovieLens => MovieLensGenerator::new(d.min(30)).generate(n, &mut rng),
            DataSource::Taxi => {
                let base = TaxiGenerator::default().generate(n, &mut rng);
                if d > 8 {
                    base.duplicate_columns(d)
                } else if d < 8 {
                    base.project(Mask::full(d))
                } else {
                    base
                }
            }
            DataSource::Skewed => ldp_data::synthetic::zipf_skewed(d, 0.8, n, &mut rng),
        }
    }

    /// A lazy row stream over the same population [`Self::generate`]
    /// would materialize: `stream(d, seed)` followed by `n` calls to
    /// [`RowStream::next_row`] yields exactly `generate(d, n, seed)`'s
    /// rows, without ever holding more than one row (plus the fixed-size
    /// sampler state) in memory. This is what lets `ldp-cli load` drive
    /// populations of tens of millions of users.
    #[must_use]
    pub fn stream(self, d: u32, seed: u64) -> RowStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = match self {
            DataSource::MovieLens => StreamKind::MovieLens(MovieLensGenerator::new(d.min(30))),
            DataSource::Taxi => StreamKind::Taxi {
                generator: TaxiGenerator::default(),
                d,
            },
            DataSource::Skewed => {
                StreamKind::Skewed(ldp_data::synthetic::ZipfSkewed::new(d, 0.8, &mut rng))
            }
        };
        RowStream { rng, kind }
    }
}

/// A lazily-sampled row source (see [`DataSource::stream`]). Holds the
/// generator's fixed-size state and the RNG — never the population.
#[derive(Clone, Debug)]
pub struct RowStream {
    rng: StdRng,
    kind: StreamKind,
}

#[derive(Clone, Debug)]
enum StreamKind {
    MovieLens(MovieLensGenerator),
    Taxi { generator: TaxiGenerator, d: u32 },
    Skewed(ldp_data::synthetic::ZipfSkewed),
}

impl RowStream {
    /// Draw the next row, identical to the corresponding entry of
    /// [`DataSource::generate`]'s row vector.
    pub fn next_row(&mut self) -> u64 {
        match &self.kind {
            StreamKind::MovieLens(generator) => generator.sample_row(&mut self.rng),
            StreamKind::Taxi { generator, d } => {
                // Replicates `generate`'s whole-dataset `duplicate_columns`
                // / `project(Mask::full(d))` transforms one row at a time.
                let row = generator.sample_row(&mut self.rng);
                if *d > 8 {
                    let mut out = row;
                    for b in 8..*d {
                        out |= ((row >> (b % 8)) & 1) << b;
                    }
                    out
                } else if *d < 8 {
                    row & ((1u64 << *d) - 1)
                } else {
                    row
                }
            }
            StreamKind::Skewed(sampler) => sampler.sample_row(&mut self.rng),
        }
    }

    /// Fill `out` with the next `out.len()` rows.
    pub fn fill(&mut self, out: &mut [u64]) {
        for slot in out.iter_mut() {
            *slot = self.next_row();
        }
    }

    /// Advance past `n` rows without keeping them — how a load client
    /// positions itself at its contiguous slice of the population
    /// (O(n) time, O(1) memory; the sampler state is small, so this
    /// beats materializing the skipped prefix).
    pub fn skip(&mut self, n: usize) {
        for _ in 0..n {
            let _ = self.next_row();
        }
    }
}

/// Exact marginals of a dataset, answered from a cached full distribution
/// (`O(2^d)` per marginal instead of `O(N)`).
#[derive(Clone, Debug)]
pub struct Truth {
    d: u32,
    full: Vec<f64>,
}

impl Truth {
    /// Cache the full distribution of a dataset (`d ≤ 26`).
    #[must_use]
    pub fn new(data: &BinaryDataset) -> Self {
        Truth {
            d: data.d(),
            full: data.full_distribution(),
        }
    }

    /// Exact marginal table for `beta`.
    #[must_use]
    pub fn marginal(&self, beta: Mask) -> Vec<f64> {
        marginalize(&self.full, self.d, beta)
    }

    /// Mean TVD of an estimate over all k-way marginals — the quantity on
    /// the y-axis of Figures 4, 5, 6, 9 and 10.
    #[must_use]
    pub fn mean_kway_tvd<E: MarginalEstimator + ?Sized>(&self, est: &E, k: u32) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for beta in masks_of_weight(self.d, k) {
            total += total_variation_distance(&self.marginal(beta), &est.marginal(beta));
            count += 1;
        }
        total / count as f64
    }
}

/// One measured grid point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Mechanism display name.
    pub mechanism: &'static str,
    /// Free-form parameter description (e.g. `"d=8 k=2 N=2^18"`).
    pub params: String,
    /// Mean/std TVD over repetitions.
    pub tvd: Summary,
}

/// Run one (mechanism, dataset-config) grid point: `reps` repetitions,
/// each with a freshly generated population, returning the TVD summary.
#[must_use]
#[allow(clippy::too_many_arguments)] // flat experiment-grid coordinates
pub fn measure_tvd(
    kind: MechanismKind,
    source: DataSource,
    d: u32,
    k: u32,
    n: usize,
    eps: f64,
    reps: usize,
    base_seed: u64,
) -> Summary {
    let mech = kind.build(d, k, eps);
    let tvds: Vec<f64> = (0..reps)
        .map(|r| {
            let seed = base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(r as u64);
            let data = source.generate(d, n, seed);
            let truth = Truth::new(&data);
            let est: Estimate = mech.run(data.rows(), seed ^ 0xABCD_EF01);
            truth.mean_kway_tvd(&est, k)
        })
        .collect();
    summarize(&tvds)
}

/// Parse `--reps R` and `--quick` style arguments shared by the figure
/// binaries. Returns (reps, quick).
#[must_use]
pub fn parse_common_args(default_reps: usize) -> (usize, bool) {
    let args: Vec<String> = std::env::args().collect();
    let mut reps = default_reps;
    let mut quick = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                reps = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a positive integer");
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            other => panic!("unknown argument {other}; supported: --reps R, --quick"),
        }
    }
    (reps, quick)
}

/// Print a header + aligned rows (3-significant-digit numbers).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format `mean ± std` compactly.
#[must_use]
pub fn fmt_summary(s: Summary) -> String {
    format!("{:.4}±{:.4}", s.mean, s.std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn truth_matches_dataset_marginals() {
        let data = DataSource::Taxi.generate(8, 20_000, 1);
        let truth = Truth::new(&data);
        for beta in masks_of_weight(8, 2).take(5) {
            let a = truth.marginal(beta);
            let b = data.true_marginal(beta);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn measure_tvd_runs_every_mechanism() {
        for kind in MechanismKind::SIX {
            let s = measure_tvd(kind, DataSource::MovieLens, 4, 2, 4_000, 1.1, 2, 7);
            assert!(s.mean.is_finite() && s.mean >= 0.0, "{kind:?}");
        }
    }

    #[test]
    fn taxi_source_respects_dimension() {
        assert_eq!(DataSource::Taxi.generate(4, 100, 0).d(), 4);
        assert_eq!(DataSource::Taxi.generate(16, 100, 0).d(), 16);
    }

    #[test]
    fn stream_matches_generate_exactly() {
        // Every source, below/at/above the taxi pivot d = 8, both the
        // per-row and the fill path: the lazy stream must reproduce the
        // materialized population bit for bit.
        for source in [DataSource::Taxi, DataSource::MovieLens, DataSource::Skewed] {
            for d in [5u32, 8, 13] {
                let n = 1_000;
                let seed = 0xC0DE ^ u64::from(d);
                let eager = source.generate(d, n, seed);
                let mut stream = source.stream(d, seed);
                let serial: Vec<u64> = (0..n).map(|_| stream.next_row()).collect();
                assert_eq!(serial, eager.rows(), "{source:?} d={d} (next_row)");
                let mut filled = vec![0u64; n];
                source.stream(d, seed).fill(&mut filled);
                assert_eq!(filled, eager.rows(), "{source:?} d={d} (fill)");
            }
        }
    }

    #[test]
    fn stream_chunking_is_invisible() {
        // Refilling a small buffer must walk the same sequence as one
        // big fill — the load generator draws per-batch slices this way.
        let mut chunked = Vec::new();
        let mut stream = DataSource::Skewed.stream(10, 7);
        let mut buf = [0u64; 17];
        while chunked.len() < 500 {
            stream.fill(&mut buf);
            chunked.extend_from_slice(&buf);
        }
        chunked.truncate(500);
        let eager = DataSource::Skewed.generate(10, 500, 7);
        assert_eq!(chunked, eager.rows());
    }
}
