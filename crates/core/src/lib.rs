#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The six marginal-release mechanisms of *Marginal Release Under Local
//! Differential Privacy* (Cormode, Kulkarni, Srivastava; SIGMOD 2018),
//! plus the InpEM baseline of §4.4.
//!
//! Every mechanism follows the same protocol shape:
//!
//! 1. **Client**: each user holds a private record `j ∈ {0,1}^d` and calls
//!    `encode(row, rng)` exactly once, producing a small LDP report;
//! 2. **Server**: an [`Accumulator`] absorbs reports one at a time
//!    ([`Accumulator::absorb`] / [`Accumulator::absorb_batch`]), merges
//!    partial aggregates from parallel shards or separate processes
//!    ([`Accumulator::merge`], [`Accumulator::to_bytes`]), never needing
//!    the population in memory;
//! 3. **Estimation**: [`Accumulator::finalize`] produces an [`Estimate`]
//!    from which *any* k-way marginal can be reconstructed on demand —
//!    the paper's requirement that queries need not be known during
//!    collection.
//!
//! The two design dimensions of §4 (view of the data × release primitive):
//!
//! | | Parallel RR | Preferential sampling | Hadamard sample |
//! |---|---|---|---|
//! | **full input** | [`InpRr`] | [`InpPs`] | [`InpHt`] |
//! | **random marginal** | [`MargRr`] | [`MargPs`] | [`MargHt`] |
//!
//! plus [`InpEm`] (budget-split RR per attribute + EM decoding, Fanti et
//! al.) as the prior-work comparison.
//!
//! Use [`MechanismKind::build`] for uniform construction and
//! [`Mechanism::run`] for the full simulate-a-population pipeline (used by
//! the bench harness). For incremental ingest — reports arriving over the
//! network, partial aggregates crossing process boundaries — use the
//! per-mechanism types directly (each `encode` plus its aggregator's
//! [`Accumulator`]), or the one protocol table, `ldp_oracles::pipeline`,
//! which serves all seven mechanisms and the three frequency oracles
//! behind the framed wire format. [`Protocol`] names those ten.

mod accumulator;
mod categorical;
pub mod consistency;
mod estimate;
pub mod frame;
mod inp_em;
mod inp_ht;
mod inp_ps;
mod inp_rr;
mod marg_ht;
mod marg_ps;
mod marg_rr;
mod personalized;
mod protocol;
mod runner;
mod tally;
mod unary_tally;
pub mod wire;

pub use accumulator::Accumulator;
pub use categorical::{CatMargPs, CatMargPsAggregator, CatMargPsReport, CatMarginalSetEstimate};
pub use estimate::{
    clamp_normalize, exact_hadamard_estimate, mean_kway_tvd, Estimate, FullDistributionEstimate,
    HadamardEstimate, MarginalEstimator, MarginalSetEstimate,
};
pub use inp_em::{EmDiagnostics, EmEstimate, InpEm, InpEmAggregator};
pub use inp_ht::{InpHt, InpHtAggregator, InpHtReport};
pub use inp_ps::{InpPs, InpPsAggregator};
pub use inp_rr::{InpRr, InpRrAggregator};
pub use marg_ht::{MargHt, MargHtAggregator, MargHtReport};
pub use marg_ps::{MargPs, MargPsAggregator, MargPsReport};
pub use marg_rr::{MargRr, MargRrAggregator, MargRrReport};
pub use personalized::{PersonalizedAggregator, PersonalizedInpHt, PersonalizedReport};
pub use protocol::{layout, Layout, Protocol};
pub use runner::{ingest_sharded, run_population_sharded, user_rng};
pub use tally::Tally;
pub use unary_tally::{UnaryRow, UnaryTally};

use ldp_mechanisms::theory::MethodBound;

/// Identifier for one of the seven implemented mechanisms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// Parallel randomized response on the full `2^d` input vector (§4.2).
    InpRr,
    /// Preferential sampling of the input index over `2^d` (§4.2).
    InpPs,
    /// Randomized response on one sampled low-weight Hadamard coefficient
    /// of the input (§4.2, Algorithms 1–2) — the paper's headline method.
    InpHt,
    /// Parallel randomized response on one random k-way marginal (§4.3).
    MargRr,
    /// Preferential sampling within one random k-way marginal (§4.3).
    MargPs,
    /// Randomized response on one Hadamard coefficient of one random
    /// k-way marginal (§4.3).
    MargHt,
    /// Budget-split per-attribute RR with EM decoding (§4.4, Fanti et al.).
    InpEm,
}

impl MechanismKind {
    /// The six unbiased mechanisms of §4 (excluding the EM heuristic), in
    /// the paper's presentation order.
    pub const SIX: [MechanismKind; 6] = [
        MechanismKind::InpRr,
        MechanismKind::InpPs,
        MechanismKind::InpHt,
        MechanismKind::MargRr,
        MechanismKind::MargPs,
        MechanismKind::MargHt,
    ];

    /// All seven implemented mechanisms (the six of §4 plus the EM
    /// heuristic), in the paper's presentation order.
    pub const ALL: [MechanismKind; 7] = [
        MechanismKind::InpRr,
        MechanismKind::InpPs,
        MechanismKind::InpHt,
        MechanismKind::MargRr,
        MechanismKind::MargPs,
        MechanismKind::MargHt,
        MechanismKind::InpEm,
    ];

    /// Display name matching the paper (see [`Protocol::name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        Protocol::from(self).name()
    }

    /// Build the mechanism for a `d`-attribute domain targeting the full
    /// set of `k`-way marginals under `ε`-LDP.
    #[must_use]
    pub fn build(self, d: u32, k: u32, eps: f64) -> Mechanism {
        match self {
            MechanismKind::InpRr => Mechanism::InpRr(InpRr::new(d, eps)),
            MechanismKind::InpPs => Mechanism::InpPs(InpPs::new(d, eps)),
            MechanismKind::InpHt => Mechanism::InpHt(InpHt::new(d, k, eps)),
            MechanismKind::MargRr => Mechanism::MargRr(MargRr::new(d, k, eps)),
            MechanismKind::MargPs => Mechanism::MargPs(MargPs::new(d, k, eps)),
            MechanismKind::MargHt => Mechanism::MargHt(MargHt::new(d, k, eps)),
            MechanismKind::InpEm => Mechanism::InpEm(InpEm::new(d, eps)),
        }
    }

    /// The Table 2 bound descriptor for the six unbiased mechanisms
    /// (`None` for the EM heuristic, which has no worst-case guarantee).
    #[must_use]
    pub fn bound(self) -> Option<MethodBound> {
        match self {
            MechanismKind::InpRr => Some(MethodBound::InpRr),
            MechanismKind::InpPs => Some(MethodBound::InpPs),
            MechanismKind::InpHt => Some(MethodBound::InpHt),
            MechanismKind::MargRr => Some(MethodBound::MargRr),
            MechanismKind::MargPs => Some(MethodBound::MargPs),
            MechanismKind::MargHt => Some(MethodBound::MargHt),
            MechanismKind::InpEm => None,
        }
    }
}

/// A built mechanism, ready to simulate a population.
#[derive(Clone, Debug)]
pub enum Mechanism {
    /// See [`InpRr`].
    InpRr(InpRr),
    /// See [`InpPs`].
    InpPs(InpPs),
    /// See [`InpHt`].
    InpHt(InpHt),
    /// See [`MargRr`].
    MargRr(MargRr),
    /// See [`MargPs`].
    MargPs(MargPs),
    /// See [`MargHt`].
    MargHt(MargHt),
    /// See [`InpEm`].
    InpEm(InpEm),
}

impl Mechanism {
    /// Which kind this is.
    #[must_use]
    pub fn kind(&self) -> MechanismKind {
        match self {
            Mechanism::InpRr(_) => MechanismKind::InpRr,
            Mechanism::InpPs(_) => MechanismKind::InpPs,
            Mechanism::InpHt(_) => MechanismKind::InpHt,
            Mechanism::MargRr(_) => MechanismKind::MargRr,
            Mechanism::MargPs(_) => MechanismKind::MargPs,
            Mechanism::MargHt(_) => MechanismKind::MargHt,
            Mechanism::InpEm(_) => MechanismKind::InpEm,
        }
    }

    /// Run the full collect-and-aggregate pipeline over a population of
    /// records (one per user), using `seed` for all client randomness.
    ///
    /// Each user's report comes from the mechanism's own `encode` and is
    /// absorbed into its typed aggregator, sharded across the available
    /// cores and [`Accumulator::merge`]d. `MargRr` skips the report: its
    /// perturbed table's words go through the frame kernel
    /// ([`UnaryRow::add_word`]) as they are drawn, with the same draws
    /// and counts as `encode` then `absorb`. Because the seed schedule is
    /// per-user (see [`user_rng`]) and accumulators obey the
    /// partition-invariance law of [`Accumulator`], the result is
    /// bit-identical to `run_sharded(rows, seed, 1)` — the serial
    /// reference — and to every other shard count.
    ///
    /// `InpRr` is the one exception: its faithful client path costs
    /// `O(2^d)` per user, so `run` substitutes the
    /// exact-in-distribution aggregate simulation
    /// ([`InpRr::run_fast`]); the protocol table in
    /// `ldp_oracles::pipeline` serves faithful `InpRr` reports.
    ///
    /// ```
    /// use ldp_core::{MarginalEstimator, MechanismKind};
    ///
    /// // 10k users, each holding one of 16 records over d = 4 bits.
    /// let rows: Vec<u64> = (0..10_000u64).map(|u| u % 16).collect();
    /// let mechanism = MechanismKind::InpHt.build(4, 2, 1.1);
    /// let estimate = mechanism.run(&rows, 42);
    /// let table = estimate.marginal(ldp_bits::Mask::from_attrs(&[0, 3]));
    /// assert_eq!(table.len(), 4);
    /// assert!((table.iter().sum::<f64>() - 1.0).abs() < 0.1);
    /// ```
    #[must_use]
    pub fn run(&self, rows: &[u64], seed: u64) -> Estimate {
        // Sharding costs one accumulator per shard; skip it for
        // populations too small to amortize that.
        let shards = if rows.len() < 4096 {
            1
        } else {
            rayon::current_num_threads()
        };
        self.run_sharded(rows, seed, shards)
    }

    /// Run the same pipeline with the population partitioned into
    /// `shards` contiguous chunks executed in parallel; per-shard
    /// accumulators are [`Accumulator::merge`]d in shard order.
    ///
    /// Bit-identical to [`Mechanism::run`] for every `shards` value.
    #[must_use]
    pub fn run_sharded(&self, rows: &[u64], seed: u64, shards: usize) -> Estimate {
        macro_rules! ingest {
            ($m:ident) => {
                ingest_sharded(
                    rows,
                    seed,
                    shards,
                    || $m.aggregator(),
                    |row, rng| $m.encode(row, rng),
                )
                .finalize()
            };
        }
        match self {
            // The InpRR aggregate simulation draws one multinomial per
            // input cell rather than one report per user, so it is
            // already O(2^d) not O(n); sharding does not apply.
            Mechanism::InpRr(m) => Estimate::Full(m.run_fast(rows, seed)),
            Mechanism::InpPs(m) => Estimate::Full(ingest!(m)),
            Mechanism::InpHt(m) => Estimate::Hadamard(ingest!(m)),
            // The encode and absorb kernels the protocol table shares,
            // with no report in between: each word of the perturbed
            // table goes straight into the sampled marginal's row.
            Mechanism::MargRr(m) => Estimate::MarginalSet(
                run_population_sharded(
                    rows,
                    seed,
                    shards,
                    || m.aggregator(),
                    |row, rng, acc| {
                        let (marginal, cell) = m.sample_marginal(row, rng);
                        let mut user = acc.tally_mut().user(u64::from(marginal));
                        m.perturbed_table(cell, rng, |word, _| user.add_word(word));
                    },
                    |acc, part| acc.merge(part),
                )
                .finalize(),
            ),
            Mechanism::MargPs(m) => Estimate::MarginalSet(ingest!(m)),
            Mechanism::MargHt(m) => Estimate::MarginalSet(ingest!(m)),
            Mechanism::InpEm(m) => Estimate::Em(ingest!(m)),
        }
    }
}
