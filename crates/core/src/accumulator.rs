//! The mergeable streaming-accumulator abstraction (see
//! [`Accumulator`]).

use crate::wire::{Reader, WireError, Writer};

/// The server side of an LDP protocol as a mergeable streaming summary.
///
/// The paper's aggregation step is a *sum of unbiased per-report
/// transforms* — exactly the mergeable-summary shape of composite
/// streaming sketches. `Accumulator` makes that structure explicit so a
/// collector can ingest reports one at a time ([`Accumulator::absorb`] /
/// [`Accumulator::absorb_batch`]), combine partial aggregates built by
/// independent processes ([`Accumulator::merge`]), ship state across
/// process boundaries ([`Accumulator::to_bytes`], then
/// [`Accumulator::load`] into an accumulator of the same configuration),
/// and only at the very end pay for estimation
/// ([`Accumulator::finalize`]). Nothing requires the
/// population to ever be materialized in memory. Every mechanism's and
/// oracle's aggregator implements it; the protocol table
/// (`ldp_oracles::pipeline::PipelineAccumulator`) holds one of them per
/// protocol for the wire-facing processes.
///
/// # The partition-invariance law
///
/// Implementations must satisfy, for any way of splitting a report
/// sequence into parts and any order of absorbing within / merging
/// across parts:
///
/// ```text
/// absorb-all-serially  ≡  absorb-in-parts-then-merge
/// ```
///
/// where `≡` is **state equality** — not just equal estimates, but
/// byte-identical [`Accumulator::to_bytes`] output. Every accumulator in
/// this workspace keeps exact integer state (counts or sums), so the law
/// holds exactly; it is property-tested over every protocol of the
/// table in `tests/streaming.rs`, and is what makes
/// [`crate::Mechanism::run_sharded`] bit-identical for every shard
/// count.
///
/// # Example: two collector processes, one estimate
///
/// ```
/// use ldp_core::{Accumulator, InpHt};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mech = InpHt::new(8, 2, 1.1);
/// let mut rng = StdRng::seed_from_u64(7);
///
/// // Two collectors each ingest a disjoint half of the population,
/// // never holding more than one report at a time.
/// let mut east = mech.aggregator();
/// let mut west = mech.aggregator();
/// for user in 0..10_000u64 {
///     let report = mech.encode(user % 256, &mut rng);
///     if user % 2 == 0 {
///         east.absorb(report);
///     } else {
///         west.absorb(report);
///     }
/// }
///
/// // `west` ships its compact state to `east`, which loads it into an
/// // aggregator of the same configuration, merges and finalizes.
/// let wire = Accumulator::to_bytes(&west);
/// let mut west_rebuilt = mech.aggregator();
/// west_rebuilt.load(&wire).unwrap();
/// Accumulator::merge(&mut east, west_rebuilt);
///
/// // A state collected under another ε is refused by name.
/// let other = InpHt::new(8, 2, 2.0).aggregator();
/// let err = mech.aggregator().load(&Accumulator::to_bytes(&other)).unwrap_err();
/// assert_eq!(err.to_string(), "InpHT keep probability differs from the accumulator's");
/// assert_eq!(east.report_count(), 10_000);
/// let estimate = Accumulator::finalize(east);
/// let table = ldp_core::MarginalEstimator::marginal(
///     &estimate,
///     ldp_bits::Mask::from_attrs(&[0, 1]),
/// );
/// assert_eq!(table.len(), 4);
/// ```
pub trait Accumulator: Sized + Send {
    /// One client report, as produced by the matching `encode` method.
    type Report;

    /// What [`Accumulator::finalize`] produces (an estimate type).
    type Output;

    /// Ingest one report. Must be commutative up to state equality and
    /// allocation-free for fixed-size report types.
    fn absorb(&mut self, report: &Self::Report);

    /// Ingest a buffer of reports. The default simply loops over
    /// [`Accumulator::absorb`]; only an aggregator with a genuinely
    /// different batch kernel overrides it (`InpEmAggregator` groups
    /// the batch by reported value).
    fn absorb_batch(&mut self, reports: &[Self::Report]) {
        for report in reports {
            self.absorb(report);
        }
    }

    /// Fold another partial aggregate (same protocol configuration) into
    /// this one. Must be associative and commutative up to state
    /// equality.
    fn merge(&mut self, other: Self);

    /// How many reports this accumulator has absorbed (summed across
    /// merges).
    fn report_count(&self) -> u64;

    /// Consume the accumulator and produce the estimate. This is the
    /// only step that is allowed to leave exact integer state.
    fn finalize(self) -> Self::Output;

    /// Serialize the full state — protocol configuration included — into
    /// the compact wire form of [`crate::wire`].
    fn to_bytes(&self) -> Vec<u8>;

    /// Load a state serialized by [`Accumulator::to_bytes`] into this
    /// accumulator, replacing its counts. The accumulator was built from
    /// a known configuration (on the wire, the stream header), which is
    /// the only one the loaded counts are ever read under: the state's
    /// carried configuration must match it field for field, integers and
    /// hash coefficients exactly and probabilities within
    /// [`crate::wire::PARAMETER_TOLERANCE`], and its tables must have
    /// this accumulator's lengths.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the blob is truncated, carries the
    /// wrong type tag, an unsupported version or trailing bytes, a
    /// configuration field or table length other than this
    /// accumulator's ([`WireError::Mismatch`], naming it), or counts no
    /// ingest makes. The accumulator may then hold part of the state:
    /// discard it.
    fn load(&mut self, bytes: &[u8]) -> Result<(), WireError>;

    /// The head of [`Accumulator::to_bytes`]: the type tag and every
    /// configuration field the counts are read under, and no counts.
    fn write_config(&self) -> Writer;

    /// Open a blob that starts with a [`Accumulator::write_config`]
    /// head, refusing it unless each field matches this accumulator's
    /// as [`Accumulator::load`] describes; the reader is left at the
    /// counts.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for a wrong tag or version, a truncated head, or
    /// a configuration field other than this accumulator's
    /// ([`WireError::Mismatch`], naming it).
    fn read_config<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, WireError>;
}
