//! `InpOLH` — Optimized Local Hashing (Wang et al. 2017).
//!
//! Client: draw a private universal hash `h : {0,1}^d → [g]` with
//! `g = ⌈e^ε⌉ + 1`, and release `GRR_g(h(j))` together with the hash seed
//! (`O(ε)` payload bits plus the seed). Aggregator: the support count of a
//! candidate value `v` is the number of users whose report equals their
//! own hash of `v`; unbiasing gives
//! `f̂(v) = (C(v)/N − 1/g) / (p − 1/g)` with `p = e^ε / (e^ε + g − 1)`.
//!
//! Decoding is `O(N)` *per candidate value*, i.e. `O(N · 2^d)` for a full
//! distribution — the property that makes OLH unusable for marginals at
//! moderate `d` (the paper's 12-hour timeout). [`Olh::estimate_all`]
//! enforces an explicit operation budget and reports partial progress.

use crate::FrequencyOracle;
use ldp_core::wire::{in_range, tag, Reader, WireError, Writer};
use ldp_core::Accumulator;
use ldp_mechanisms::{check_epsilon, GeneralizedRandomizedResponse};
use ldp_sampling::hash::{universal_hash_from_seed, PolyHash};
use rand::Rng;

/// One user's report: the hash seed and the perturbed bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OlhReport {
    /// Seed identifying the user's universal hash.
    pub seed: u64,
    /// GRR-perturbed bucket in `[0, g)`.
    pub bucket: u8,
}

/// Configuration of the OLH mechanism.
#[derive(Clone, Debug)]
pub struct Olh {
    d: u32,
    g: u64,
    grr: GeneralizedRandomizedResponse,
}

impl Olh {
    /// ε-LDP instance over `d` attributes with the optimal bucket count
    /// `g = ⌈e^ε⌉ + 1`.
    #[must_use]
    pub fn new(d: u32, eps: f64) -> Self {
        check_epsilon(eps);
        assert!((1..=40).contains(&d));
        // g = ⌈e^ε⌉ + 1, robust to e^{ln m} landing epsilon above m.
        let e = eps.exp();
        let ceil = if (e - e.round()).abs() < 1e-9 {
            e.round()
        } else {
            e.ceil()
        };
        let g = (ceil as u64 + 1).max(2);
        assert!(
            g <= 256,
            "OLH bucket count g = {g} exceeds the u8 report range; need eps ≤ ln(255)"
        );
        Olh {
            d,
            g,
            grr: GeneralizedRandomizedResponse::for_epsilon(eps, g),
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Number of hash buckets `g`.
    #[must_use]
    pub fn buckets(&self) -> u64 {
        self.g
    }

    /// Client: hash, perturb, report.
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> OlhReport {
        let seed: u64 = rng.gen();
        let h = universal_hash_from_seed(seed, self.g);
        let bucket = self.grr.perturb(h.hash(row), rng) as u8;
        OlhReport { seed, bucket }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> OlhAggregator {
        OlhAggregator {
            config: self.clone(),
            reports: Vec::new(),
        }
    }
}

/// Aggregator for [`Olh`]: stores reports verbatim (decoding needs every
/// user's hash).
#[derive(Clone, Debug)]
pub struct OlhAggregator {
    config: Olh,
    reports: Vec<OlhReport>,
}

/// Result of a budgeted full-domain decode.
#[derive(Clone, Debug)]
pub enum OlhDecode {
    /// All `2^d` cells decoded within budget.
    Complete(Vec<f64>),
    /// Budget exhausted after decoding `cells_done` cells — the paper's
    /// "timed out" outcome for `d ≥ 12`.
    TimedOut {
        /// Number of cells fully decoded before exhaustion.
        cells_done: usize,
    },
}

impl OlhAggregator {
    /// The range check: a report's bucket must be one of the hash's `g`
    /// outputs, the same bound [`Accumulator::load`] holds a state's
    /// reports to, so an absorbed report can never make a state that
    /// does not load. The protocol table applies it to a whole batch
    /// before absorbing any of it.
    #[inline]
    pub fn check(&self, report: OlhReport) -> Result<(), WireError> {
        in_range("OLH bucket", u64::from(report.bucket), self.config.g)
    }

    /// Absorb one report.
    #[inline]
    pub fn absorb(&mut self, report: OlhReport) {
        self.reports.push(report);
    }

    /// Precompute per-user hash objects and expose oracle queries.
    #[must_use]
    pub fn finish(self) -> OlhOracle {
        let hashes: Vec<PolyHash> = self
            .reports
            .iter()
            .map(|r| universal_hash_from_seed(r.seed, self.config.g))
            .collect();
        OlhOracle {
            config: self.config,
            reports: self.reports,
            hashes,
        }
    }
}

impl Accumulator for OlhAggregator {
    type Report = OlhReport;
    type Output = OlhOracle;

    fn absorb(&mut self, report: &OlhReport) {
        OlhAggregator::absorb(self, *report);
    }

    fn merge(&mut self, mut other: Self) {
        self.reports.append(&mut other.reports);
    }

    fn report_count(&self) -> u64 {
        self.reports.len() as u64
    }

    fn finalize(self) -> OlhOracle {
        self.finish()
    }

    /// The report list is canonicalized (sorted by `(seed, bucket)`)
    /// before encoding, so the bytes are identical for every ingest
    /// order and partition even though the in-memory `Vec` preserves
    /// arrival order. Decoding is insensitive to report order.
    fn to_bytes(&self) -> Vec<u8> {
        let mut reports = self.reports.clone();
        reports.sort_unstable_by_key(|r| (r.seed, r.bucket));
        let mut w = Writer::with_tag(tag::OLH);
        w.put_u32(self.config.d);
        w.put_u64(self.config.g);
        w.put_f64(self.config.grr.truth_probability());
        w.put_u64(reports.len() as u64);
        for r in &reports {
            w.put_u64(r.seed);
            w.put_u8(r.bucket);
        }
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::with_tag(bytes, tag::OLH)?;
        r.expect_u32("OLH d", self.config.d)?;
        r.expect_u64("OLH g", self.config.g)?;
        r.expect_f64("OLH truth probability", self.config.grr.truth_probability())?;
        let len = r.get_u64()?;
        let mut reports = Vec::new();
        for _ in 0..len {
            let (seed, bucket) = (r.get_u64()?, r.get_u8()?);
            let report = OlhReport { seed, bucket };
            self.check(report)?;
            reports.push(report);
        }
        r.finish()?;
        self.reports = reports;
        Ok(())
    }
}

/// Decoded OLH oracle.
#[derive(Clone, Debug)]
pub struct OlhOracle {
    config: Olh,
    reports: Vec<OlhReport>,
    hashes: Vec<PolyHash>,
}

impl OlhOracle {
    /// Decode the entire domain with an explicit budget of
    /// `max_operations` user-cell evaluations (each costs one hash).
    #[must_use]
    pub fn estimate_all(&self, max_operations: u64) -> OlhDecode {
        let cells = 1u64 << self.config.d;
        let per_cell = self.reports.len() as u64;
        let affordable = max_operations.checked_div(per_cell).unwrap_or(cells);
        if affordable < cells {
            return OlhDecode::TimedOut {
                cells_done: affordable as usize,
            };
        }
        OlhDecode::Complete((0..cells).map(|v| self.estimate(v)).collect())
    }
}

impl FrequencyOracle for OlhOracle {
    fn d(&self) -> u32 {
        self.config.d
    }

    /// `O(N)` per query: evaluate every user's hash at `value`.
    fn estimate(&self, value: u64) -> f64 {
        let n = self.reports.len();
        assert!(n > 0, "no reports absorbed");
        let support = self
            .reports
            .iter()
            .zip(&self.hashes)
            .filter(|(r, h)| u64::from(r.bucket) == h.hash(value))
            .count();
        let g = self.config.g as f64;
        let p = self.config.grr.truth_probability();
        (support as f64 / n as f64 - 1.0 / g) / (p - 1.0 / g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle_marginal;
    use ldp_bits::Mask;
    use ldp_data::BinaryDataset;
    use rand::{rngs::StdRng, SeedableRng};

    fn run(d: u32, eps: f64, rows: &[u64], seed: u64) -> OlhOracle {
        let mech = Olh::new(d, eps);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = mech.aggregator();
        for &row in rows {
            agg.absorb(mech.encode(row, &mut rng));
        }
        agg.finish()
    }

    #[test]
    fn bucket_count_follows_epsilon() {
        assert_eq!(Olh::new(4, 3f64.ln()).buckets(), 4); // ⌈3⌉ + 1
        assert_eq!(Olh::new(4, 1.0).buckets(), 4); // ⌈e⌉ + 1
    }

    #[test]
    fn estimates_point_mass() {
        let rows = vec![5u64; 60_000];
        let oracle = run(4, 3f64.ln(), &rows, 0);
        let est = oracle.estimate(5);
        assert!((est - 1.0).abs() < 0.05, "heavy cell {est}");
        let others: f64 = (0..16)
            .filter(|&v| v != 5)
            .map(|v| oracle.estimate(v))
            .sum();
        assert!(others.abs() < 0.25, "light cells total {others}");
    }

    #[test]
    fn marginal_via_oracle_is_accurate_for_small_d() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = ldp_data::synthetic::zipf_skewed(4, 1.0, 80_000, &mut rng);
        let oracle = run(4, 3f64.ln(), ds.rows(), 2);
        let beta = Mask::new(0b0011);
        let m = oracle_marginal(&oracle, beta);
        let truth = BinaryDataset::new(4, ds.rows().to_vec()).true_marginal(beta);
        let tvd: f64 = m
            .iter()
            .zip(&truth)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tvd < 0.05, "tvd {tvd}");
    }

    #[test]
    fn decode_budget_times_out_at_large_d() {
        let rows = vec![0u64; 1000];
        let oracle = run(16, 1.1, &rows, 3);
        // Budget for 1000 cells × 1000 users = 1e6 ops, but 2^16 cells
        // need 6.5e7 — must time out.
        match oracle.estimate_all(1_000_000) {
            OlhDecode::TimedOut { cells_done } => assert_eq!(cells_done, 1000),
            OlhDecode::Complete(_) => panic!("expected timeout"),
        }
    }

    #[test]
    fn accumulator_bytes_are_canonical_across_ingest_orders() {
        let mech = Olh::new(6, 1.1);
        let mut rng = StdRng::seed_from_u64(9);
        let reports: Vec<OlhReport> = (0..500u64).map(|v| mech.encode(v % 64, &mut rng)).collect();

        let mut forward = mech.aggregator();
        let mut backward = mech.aggregator();
        for &r in &reports {
            forward.absorb(r);
        }
        for &r in reports.iter().rev() {
            backward.absorb(r);
        }
        // In-memory order differs, canonical bytes do not.
        let bytes = Accumulator::to_bytes(&forward);
        assert_eq!(bytes, Accumulator::to_bytes(&backward));
        let mut back = mech.aggregator();
        back.load(&bytes).unwrap();
        assert_eq!(Accumulator::to_bytes(&back), bytes);
        assert_eq!(
            back.finalize().estimate(3).to_bits(),
            forward.finish().estimate(3).to_bits()
        );
    }

    #[test]
    fn decode_completes_within_budget() {
        let rows = vec![3u64; 500];
        let oracle = run(3, 1.1, &rows, 4);
        match oracle.estimate_all(10_000_000) {
            OlhDecode::Complete(dist) => {
                assert_eq!(dist.len(), 8);
                assert!(dist[3] > 0.8);
            }
            OlhDecode::TimedOut { .. } => panic!("unexpected timeout"),
        }
    }
}
