//! `InpEM` — the Fanti et al. baseline (§4.4): budget-split randomized
//! response on every attribute, decoded by expectation maximization.
//!
//! Client: each of the `d` bits goes through `(ε/d)`-RR independently
//! (budget splitting; sequential composition gives ε-LDP — verified in
//! `ldp-mechanisms::budget`). Aggregator: stores the reported rows; for a
//! target marginal `β` it counts the observed bit-combinations on `β`'s
//! attributes and runs EM against the known RR channel.
//!
//! As the paper observes, the method has no worst-case accuracy guarantee
//! and a characteristic failure mode: when the per-bit budget is small the
//! channel is nearly uninformative, the first EM update moves the uniform
//! prior by less than the convergence threshold Ω, and the procedure
//! "immediately terminates after a single step and outputs the prior".
//! [`EmDiagnostics::failed_immediately`] captures exactly this (Table 3).

use crate::wire::{in_range, tag, Reader, WireError, Writer};
use crate::{Accumulator, MarginalEstimator, MarginalSetEstimate};
use ldp_bits::{compress, masks_of_weight, Mask};
use ldp_mechanisms::{budget::split_epsilon, BinaryRandomizedResponse};
use rand::Rng;
use std::collections::BTreeMap;

/// Configuration of the `InpEM` mechanism.
#[derive(Clone, Debug, PartialEq)]
pub struct InpEm {
    d: u32,
    rr: BinaryRandomizedResponse,
    omega: f64,
    max_iters: usize,
}

impl InpEm {
    /// ε-LDP instance over `d` attributes with the paper's convergence
    /// threshold `Ω = 0.00001` (§5.4).
    #[must_use]
    pub fn new(d: u32, eps: f64) -> Self {
        Self::with_convergence(d, eps, 1e-5, 100_000)
    }

    /// Choose the EM convergence threshold and iteration cap explicitly
    /// (the paper notes that weakening Ω "even slightly led to much worse
    /// accuracy").
    #[must_use]
    pub fn with_convergence(d: u32, eps: f64, omega: f64, max_iters: usize) -> Self {
        assert!((1..=63).contains(&d));
        assert!(omega > 0.0 && max_iters >= 1);
        InpEm {
            d,
            rr: BinaryRandomizedResponse::for_epsilon(split_epsilon(eps, d)),
            omega,
            max_iters,
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The per-bit RR primitive (budget ε/d).
    #[must_use]
    pub fn per_bit_rr(&self) -> BinaryRandomizedResponse {
        self.rr
    }

    /// Client: flip every attribute independently with `(ε/d)`-RR.
    ///
    /// `perturb_bit` keeps a bit with probability `p` and flips it
    /// otherwise, so the report is `row XOR flips` where `flips` is a
    /// `d`-lane `Bernoulli(1 − p)` mask — drawn 64 lanes per RNG word
    /// by [`bernoulli_word`](ldp_sampling::bernoulli_word) instead of
    /// one `gen_bool` per attribute.
    #[inline]
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> u64 {
        let flip = ldp_sampling::bernoulli_fixed(1.0 - self.rr.keep_probability());
        row ^ ldp_sampling::bernoulli_word(rng, flip, self.d)
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> InpEmAggregator {
        InpEmAggregator {
            config: self.clone(),
            counts: BTreeMap::new(),
            n: 0,
            dense: Vec::new(),
            touched: Vec::new(),
        }
    }
}

/// Aggregator for [`InpEm`]: multiplicities of the collected (perturbed)
/// rows.
///
/// EM decoding only ever looks at *how often* each perturbed row was
/// reported, so the aggregator keeps a sorted count map instead of the
/// raw report list: memory is bounded by the number of *distinct*
/// reported rows (at most `min(N, 2^d)`), and the state — including its
/// [`Accumulator::to_bytes`] form — is identical for every ingest order
/// and shard partition.
#[derive(Clone, Debug)]
pub struct InpEmAggregator {
    config: InpEm,
    counts: BTreeMap<u64, u64>,
    n: u64,
    /// Group-by-value scratch for the batch kernel, owned by the
    /// aggregator so steady-state batches allocate nothing: `dense` is
    /// all-zeros and `touched` empty between calls (the fold re-zeroes
    /// exactly the cells it used). Never serialized; carries no state.
    dense: Vec<u64>,
    touched: Vec<u64>,
}

/// Largest `d` for which the batch kernel groups reports through a
/// dense `2^d`-cell scratch before touching the count map.
const DENSE_SCRATCH_MAX_D: u32 = 16;

impl InpEmAggregator {
    /// The range check: a reported row must lie in the `2^d` domain,
    /// so a hostile stream cannot grow the count map without bound. The
    /// protocol table applies it to a whole batch before absorbing any
    /// of it.
    #[inline]
    pub fn check(&self, row: u64) -> Result<(), WireError> {
        in_range("InpEM row", row, 1u64 << self.config.d)
    }

    /// Absorb one reported row.
    #[inline]
    pub fn absorb(&mut self, report: u64) {
        *self.counts.entry(report).or_insert(0) += 1;
        self.n += 1;
    }

    /// Batched ingest, grouped by reported value: count the batch into
    /// the aggregator's dense `2^d` scratch first, then fold only the
    /// *distinct* rows into the sorted count map — `k` distinct values
    /// cost `k` map updates instead of one `O(log)` map probe per
    /// report. The scratch lives on the aggregator (allocated on the
    /// first batch, re-zeroed cell-by-cell during the fold), so
    /// steady-state batches allocate nothing. Falls back to the serial
    /// loop when the domain is too large for a dense scratch. State is
    /// byte-identical to absorbing each report in order.
    ///
    /// Takes any iterator, so the protocol table's `PipelineReport`
    /// slices reach the kernel without first being gathered into a
    /// `u64` buffer; [`Accumulator::absorb_batch`] is this over a slice.
    pub fn absorb_batch_iter<I: IntoIterator<Item = u64>>(&mut self, reports: I) {
        if self.config.d > DENSE_SCRATCH_MAX_D {
            for r in reports {
                InpEmAggregator::absorb(self, r);
            }
            return;
        }
        let cells = 1usize << self.config.d;
        if self.dense.len() != cells {
            // First batch: allocate once; the scratch then stays with
            // the aggregator, all-zeros between calls.
            self.dense = vec![0u64; cells];
        }
        let mut n = 0u64;
        for r in reports {
            n += 1;
            // Compare in u64 (not a truncating `as usize` index) so an
            // out-of-domain row from a corrupt wire report can never
            // alias an in-domain cell on 32-bit targets; such rows are
            // counted straight into the map, exactly as the serial
            // loop would.
            if r < cells as u64 {
                let slot = &mut self.dense[r as usize];
                if *slot == 0 {
                    self.touched.push(r);
                }
                *slot += 1;
            } else {
                *self.counts.entry(r).or_insert(0) += 1;
            }
        }
        for &r in &self.touched {
            *self.counts.entry(r).or_insert(0) += self.dense[r as usize];
            self.dense[r as usize] = 0;
        }
        self.touched.clear();
        self.n += n;
        // The scratch must leave this call exactly as it entered: fully
        // zeroed and with no touched-list residue. A cell the fold
        // missed would leak this batch's counts into the next one and
        // break partition invariance; the debug-mode suite doubles as a
        // dynamic check of that invariant.
        debug_assert!(self.touched.is_empty());
        debug_assert!(
            self.dense.iter().all(|&c| c == 0),
            "dense scratch not re-zeroed after the batch fold"
        );
    }

    /// The mechanism configuration this aggregator decodes under.
    #[must_use]
    pub fn config(&self) -> &InpEm {
        &self.config
    }

    /// Wrap the report multiplicities for on-demand EM decoding.
    #[must_use]
    pub fn finish(self) -> EmEstimate {
        EmEstimate {
            config: self.config,
            counts: self.counts,
            n: self.n,
        }
    }
}

impl Accumulator for InpEmAggregator {
    type Report = u64;
    type Output = EmEstimate;

    #[inline]
    fn absorb(&mut self, report: &u64) {
        InpEmAggregator::absorb(self, *report);
    }

    fn absorb_batch(&mut self, reports: &[u64]) {
        self.absorb_batch_iter(reports.iter().copied());
    }

    fn merge(&mut self, other: Self) {
        for (row, count) in other.counts {
            let slot = self.counts.entry(row).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        self.n = self.n.saturating_add(other.n);
    }

    fn report_count(&self) -> u64 {
        self.n
    }

    fn finalize(self) -> EmEstimate {
        self.finish()
    }

    fn write_config(&self) -> Writer {
        let mut w = Writer::with_tag(tag::INP_EM);
        w.put_u32(self.config.d);
        w.put_f64(self.config.rr.keep_probability());
        w.put_f64(self.config.omega);
        w.put_u64(self.config.max_iters as u64);
        w
    }

    fn read_config<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::with_tag(bytes, tag::INP_EM)?;
        let config = &self.config;
        r.expect_u32("InpEM d", config.d)?;
        r.expect_f64("InpEM keep probability", config.rr.keep_probability())?;
        r.expect_f64("InpEM convergence threshold", config.omega)?;
        r.expect_u64("InpEM iteration cap", config.max_iters as u64)?;
        Ok(r)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = self.write_config();
        w.put_u64(self.n);
        w.put_u64(self.counts.len() as u64);
        for (&row, &count) in &self.counts {
            w.put_u64(row);
            w.put_u64(count);
        }
        w.into_bytes()
    }

    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = self.read_config(bytes)?;
        let n = r.get_u64()?;
        let distinct = r.get_u64()?;
        let mut counts = BTreeMap::new();
        let mut total = 0u64;
        for _ in 0..distinct {
            let row = r.get_u64()?;
            self.check(row)?;
            let count = r.get_u64()?;
            if counts.insert(row, count).is_some() {
                return Err(WireError::Invalid("InpEM duplicate row key"));
            }
            total = total
                .checked_add(count)
                .ok_or(WireError::Invalid("InpEM count overflow"))?;
        }
        r.finish()?;
        if total != n {
            return Err(WireError::Invalid("InpEM count total"));
        }
        self.counts = counts;
        self.n = n;
        Ok(())
    }
}

/// Diagnostics of one EM decode (Table 3 and the §5.4 discussion).
#[derive(Clone, Debug, PartialEq)]
pub struct EmDiagnostics {
    /// The decoded marginal distribution.
    pub estimate: Vec<f64>,
    /// Number of EM iterations performed.
    pub iterations: usize,
    /// Whether the Ω criterion was met within the iteration cap.
    pub converged: bool,
    /// The paper's failure mode: converged after a single iteration,
    /// i.e. the output is (numerically) the uniform prior.
    pub failed_immediately: bool,
}

/// Estimate produced by `InpEM`: reported-row multiplicities plus
/// channel knowledge; every marginal query runs a fresh EM decode.
#[derive(Clone, Debug, PartialEq)]
pub struct EmEstimate {
    config: InpEm,
    counts: BTreeMap<u64, u64>,
    n: u64,
}

impl EmEstimate {
    /// Run the EM decoder for one marginal, returning full diagnostics.
    #[must_use]
    pub fn decode(&self, beta: Mask) -> EmDiagnostics {
        assert!(
            beta.is_subset_of(Mask::full(self.config.d)) && !beta.is_empty(),
            "invalid marginal mask"
        );
        assert!(self.n > 0, "no reports absorbed");
        let k = beta.weight();
        let cells = 1usize << k;

        // Observed combination counts on β's attributes.
        let mut obs = vec![0.0f64; cells];
        for (&r, &count) in &self.counts {
            obs[compress(r, beta.bits()) as usize] += count as f64;
        }
        let n: f64 = self.n as f64;

        // Channel by Hamming distance: P(y|x) = p^{k−h} (1−p)^{h},
        // h = |x ⊕ y|.
        let p = self.config.rr.keep_probability();
        let chan: Vec<f64> = (0..=k)
            .map(|h| p.powi((k - h) as i32) * (1.0 - p).powi(h as i32))
            .collect();

        // EM from the uniform prior (expectation: posterior of x given y;
        // maximization: remarginalize over observed y's).
        let mut pi = vec![1.0 / cells as f64; cells];
        let mut next = vec![0.0f64; cells];
        let mut iterations = 0usize;
        let mut converged = false;
        while iterations < self.config.max_iters {
            iterations += 1;
            next.iter_mut().for_each(|v| *v = 0.0);
            for (y, &o) in obs.iter().enumerate() {
                if o == 0.0 {
                    continue;
                }
                let denom: f64 = (0..cells)
                    .map(|x| pi[x] * chan[(x ^ y).count_ones() as usize])
                    .sum();
                if denom <= 0.0 {
                    continue;
                }
                let w = o / denom;
                for (x, nx) in next.iter_mut().enumerate() {
                    *nx += w * pi[x] * chan[(x ^ y).count_ones() as usize];
                }
            }
            for v in next.iter_mut() {
                *v /= n;
            }
            let delta = pi
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            std::mem::swap(&mut pi, &mut next);
            if delta < self.config.omega {
                converged = true;
                break;
            }
        }
        EmDiagnostics {
            estimate: pi,
            iterations,
            converged,
            failed_immediately: converged && iterations == 1,
        }
    }

    /// Decode every k-way marginal, returning the estimate plus the count
    /// of immediate failures (one Table 3 row).
    #[must_use]
    pub fn decode_all_kway(&self, k: u32) -> (MarginalSetEstimate, usize) {
        let mut failed = 0usize;
        let tables = masks_of_weight(self.config.d, k)
            .map(|beta| {
                let diag = self.decode(beta);
                failed += usize::from(diag.failed_immediately);
                diag.estimate
            })
            .collect();
        (MarginalSetEstimate::new(self.config.d, k, tables), failed)
    }
}

impl MarginalEstimator for EmEstimate {
    fn d(&self) -> u32 {
        self.config.d
    }

    fn max_k(&self) -> u32 {
        self.config.d
    }

    fn marginal(&self, beta: Mask) -> Vec<f64> {
        self.decode(beta).estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_data::{taxi::TaxiGenerator, BinaryDataset};
    use ldp_transform::total_variation_distance;
    use rand::{rngs::StdRng, SeedableRng};

    fn run(mech: &InpEm, rows: &[u64], seed: u64) -> EmEstimate {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = mech.aggregator();
        for &row in rows {
            agg.absorb(mech.encode(row, &mut rng));
        }
        agg.finish()
    }

    #[test]
    fn decodes_accurately_with_generous_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = TaxiGenerator::default().generate(100_000, &mut rng);
        // ε = 8 over d = 8 → per-bit ε = 1: informative channel.
        let mech = InpEm::new(8, 8.0);
        let est = run(&mech, ds.rows(), 1);
        let beta = Mask::from_attrs(&[5, 6]);
        let diag = est.decode(beta);
        assert!(diag.converged);
        assert!(!diag.failed_immediately);
        let tvd = total_variation_distance(&diag.estimate, &ds.true_marginal(beta));
        assert!(tvd < 0.05, "tvd {tvd}");
    }

    #[test]
    fn estimates_are_distributions() {
        let rows = vec![0b01u64; 5_000];
        let mech = InpEm::new(2, 2.0);
        let est = run(&mech, &rows, 2);
        let m = est.marginal(Mask::full(2));
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(m.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn fails_immediately_at_tiny_budget() {
        // Table 3 regime: d = 16, ε = 0.1 → per-bit ε = 0.00625; the
        // channel is indistinguishable from uniform and EM stops at the
        // prior.
        let mut rng = StdRng::seed_from_u64(3);
        let ds = TaxiGenerator::default()
            .generate(20_000, &mut rng)
            .duplicate_columns(16);
        let mech = InpEm::new(16, 0.1);
        let est = run(&mech, ds.rows(), 4);
        let diag = est.decode(Mask::from_attrs(&[0, 1]));
        assert!(diag.failed_immediately, "iterations = {}", diag.iterations);
        // Output is the uniform prior.
        for v in &diag.estimate {
            assert!((v - 0.25).abs() < 0.01);
        }
    }

    #[test]
    fn iteration_counts_are_large_at_practical_budgets() {
        // §5.4: InpEM is "slow to apply, taking several thousand or tens
        // of thousands of iterations to converge" at practical ε —
        // compared to a generous budget where the channel is informative
        // and EM converges fast. (The count is not monotone in ε: at very
        // small budgets the fixed point is close to the uniform start.)
        let mut rng = StdRng::seed_from_u64(5);
        let ds = TaxiGenerator::default().generate(30_000, &mut rng);
        let beta = Mask::from_attrs(&[1, 2]);
        let mut iters = Vec::new();
        for eps in [8.0, 2.0] {
            let mech = InpEm::new(8, eps);
            let est = run(&mech, ds.rows(), 6);
            iters.push(est.decode(beta).iterations);
        }
        assert!(iters[0] < 1_000, "generous budget: {iters:?}");
        assert!(iters[1] > 1_000, "practical budget: {iters:?}");
    }

    #[test]
    fn decode_all_counts_failures() {
        let mut rng = StdRng::seed_from_u64(7);
        let ds = TaxiGenerator::default()
            .generate(10_000, &mut rng)
            .duplicate_columns(12);
        let mech = InpEm::new(12, 0.2);
        let est = run(&mech, ds.rows(), 8);
        let (set, failed) = est.decode_all_kway(2);
        assert_eq!(set.marginals().len(), 66);
        assert!(failed > 0, "expected some immediate failures at ε = 0.2");
    }

    #[test]
    fn batch_counts_out_of_domain_rows_like_serial() {
        // Rows above 2^d (possible only from a corrupt wire report) miss
        // the dense scratch; the kernel must still count them exactly as
        // the serial loop does.
        let mech = InpEm::new(4, 1.0);
        let reports = vec![3u64, 1 << 40, 3, u64::MAX, 5, 3];
        let mut serial = mech.aggregator();
        for &r in &reports {
            serial.absorb(r);
        }
        let mut batched = mech.aggregator();
        batched.absorb_batch(&reports);
        assert_eq!(serial.to_bytes(), batched.to_bytes());
        assert_eq!(batched.report_count(), reports.len() as u64);
    }

    #[test]
    fn load_rejects_overflowing_counts() {
        // A crafted blob whose per-row counts wrap u64 must come back as
        // a WireError, not a panic or a state that defeats the n check.
        use crate::wire::{tag, Writer};
        let mech = InpEm::with_convergence(2, 1.1, 1e-5, 100);
        let mut w = Writer::with_tag(tag::INP_EM);
        w.put_u32(2);
        w.put_f64(mech.per_bit_rr().keep_probability());
        w.put_f64(1e-5);
        w.put_u64(100);
        w.put_u64(5); // claimed n
        w.put_u64(2); // distinct rows
        w.put_u64(0);
        w.put_u64(u64::MAX);
        w.put_u64(1);
        w.put_u64(6); // wraps to 5 if summed unchecked
        let err = mech.aggregator().load(&w.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::Invalid("InpEM count overflow"));
    }

    #[test]
    fn load_refuses_rows_outside_the_domain() {
        // EM decoding would fold row 64 onto an in-domain cell of the
        // d = 6 domain; the state is refused with the same error as a
        // report carrying that row (`check`).
        use crate::wire::{tag, Writer};
        let mech = InpEm::new(6, 1.1);
        let agg = mech.aggregator();
        let mut w = Writer::with_tag(tag::INP_EM);
        w.put_u32(6);
        w.put_f64(mech.per_bit_rr().keep_probability());
        w.put_f64(agg.config.omega);
        w.put_u64(agg.config.max_iters as u64);
        w.put_u64(3); // n
        w.put_u64(2); // distinct rows
        w.put_u64(5);
        w.put_u64(2);
        w.put_u64(64);
        w.put_u64(1);
        let err = mech.aggregator().load(&w.into_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "InpEM row 64 is out of range (must be below 64)"
        );
    }

    #[test]
    fn noiseless_channel_recovers_empirical_marginal() {
        // With p extremely close to 1 the EM fixed point is (numerically)
        // the observed marginal itself.
        let rows = vec![0b10u64, 0b10, 0b01, 0b10];
        let ds = BinaryDataset::new(2, rows.clone());
        let mech = InpEm::with_convergence(2, 60.0, 1e-9, 10_000);
        let est = run(&mech, &rows, 9);
        let m = est.marginal(Mask::full(2));
        let truth = ds.true_marginal(Mask::full(2));
        for (a, b) in m.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-3);
        }
    }
}
