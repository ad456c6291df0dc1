//! The one protocol table: how every process that speaks the framed
//! pipeline — the `ldp-cli` subcommands, the `ldp_server` aggregation
//! server, and the repo benchmark — reaches the seven marginal
//! mechanisms and the three frequency oracles, keyed by the
//! [`StreamHeader`] that travels as frame 0 of every stream and
//! snapshot.
//!
//! The ten protocols are named by one flat enum, [`Protocol`], which
//! `ldp_core` defines beside the wire tags and which owns each
//! protocol's display name and tag. [`Client`] writes report batches and
//! [`PipelineAccumulator`] absorbs, merges, serializes and finalizes
//! them; each keeps the validated header it was built from, which is its
//! whole configuration and the only key a batch or another accumulator
//! is compared by, beside a flat enum with one variant per protocol
//! ([`Encoder`], [`Aggregator`]). [`PipelineReport`] is what a batch
//! decodes into. Every operation is a single `match` over the ten
//! protocols.
//!
//! Reports travel only in wire-v4 `REPORT_BATCH` frames
//! (`docs/WIRE_FORMAT.md` §5): a 14-byte envelope naming the protocol,
//! the header fields it uses and the report count, then every report as
//! a fixed-width bit field whose widths come from one function,
//! [`layout`] (beside [`Protocol`] in `ldp_core`) — the paper's Table 2
//! size or less. Each protocol has one encode kernel (its arm of
//! [`Client::encode_batch`]), one range check (its aggregator's `check`)
//! and one absorb kernel (its arm of
//! [`PipelineAccumulator::absorb_frame`], which validates a whole batch
//! and then absorbs straight from its bits). The five protocols
//! whose report is one packed field — InpPS, InpHT, MargPS, MargHT and
//! HCMS — share that kernel: their state is a [`Tally`], one `u64` per
//! field value, and absorbing a report is `tally[field] += 1` at every
//! batch size. InpRR, MargRR and CMS, whose report carries a set, share
//! another: their state is a [`UnaryTally`], and a report's set goes
//! into its row a 64-bit word at a time. A set has one form everywhere:
//! the words the lane sampler draws, the words on the wire and the words
//! of a decoded report are the same words, and
//! [`ldp_core::UnaryRow::add_word`] is the only code that counts them.
//! [`decode_report_batch_into`] followed by
//! [`PipelineAccumulator::absorb_batch`] decodes into [`PipelineReport`]s
//! first; it is the reference the frame kernels are tested against.
//!
//! This crate hosts the table because it is the lowest layer that can
//! see both protocol families (`ldp_oracles` depends on `ldp_core`).
//!
//! This file is covered by the `ldp-lint` hot-path panic scan: no
//! indexing, no unwraps, no lossy counts.

use crate::{
    Cms, CmsAggregator, CmsReport, FrequencyOracle, HadamardCms, HadamardCmsAggregator, HcmsReport,
    Olh, OlhAggregator, OlhReport,
};
use ldp_bits::binomial;
use ldp_core::frame::StreamHeader;
use ldp_core::wire::{tag, WireError, Writer, MIN_BATCH_VERSION, VERSION};
use ldp_core::{
    layout, user_rng, Accumulator, Estimate, InpEm, InpEmAggregator, InpHt, InpHtAggregator,
    InpHtReport, InpPs, InpPsAggregator, InpRr, InpRrAggregator, Layout, MargHt, MargHtAggregator,
    MargHtReport, MargPs, MargPsAggregator, MargPsReport, MargRr, MargRrAggregator, MargRrReport,
    Protocol, Tally, UnaryTally,
};
use ldp_mechanisms::theory::coefficient_count;
use rand::rngs::SmallRng;

/// The sketch shape flags (`--hashes`, `--width`, `--family-seed`) an
/// oracle pipeline carries in its header; ignored by mechanisms.
#[derive(Clone, Copy, Debug)]
pub struct SketchShape {
    /// Hash count `g` (sketch rows).
    pub hashes: u32,
    /// Row width `w`.
    pub width: u32,
    /// Seed of the public hash family.
    pub family_seed: u64,
}

/// Build the stream header for a protocol at concrete parameters.
pub fn header_for(
    protocol: Protocol,
    d: u32,
    k: u32,
    eps: f64,
    sketch: SketchShape,
) -> StreamHeader {
    let header = StreamHeader {
        protocol: protocol.wire_tag(),
        d,
        k,
        eps,
        hashes: 0,
        width: 0,
        family_seed: 0,
    };
    match protocol {
        Protocol::Olh | Protocol::Cms | Protocol::Hcms => StreamHeader {
            k: 1,
            hashes: sketch.hashes,
            width: sketch.width,
            family_seed: sketch.family_seed,
            ..header
        },
        _ => header,
    }
}

/// Largest number of marginals or InpHT coefficients a report's index
/// field may name: the decoded reports carry a `u32` index.
const MAX_INDEXED: u64 = 1 << 32;

/// Reject shapes the protocol constructors would panic on or could not
/// index, with a message naming the offending field. One limit table
/// for headers (from the command line and from incoming streams) and
/// for batch envelopes, so a corrupt or hostile shape degrades to an
/// error instead of crashing the collector process. `k` is checked only
/// where the protocol uses it, `hashes` and `width` only for sketches.
fn check_shape(protocol: Protocol, d: u32, k: u32, hashes: u32, width: u32) -> Result<(), String> {
    if !(1..=63).contains(&d) {
        return Err(format!("need 1 ≤ d ≤ 63, got {d}"));
    }
    match protocol {
        Protocol::InpRr if d > 24 => Err(format!(
            "InpRR materializes 2^d cells; need d ≤ 24, got {d}"
        )),
        kind @ (Protocol::InpPs | Protocol::InpEm) if d > 26 => Err(format!(
            "{} materializes 2^d cells; need d ≤ 26, got {d}",
            kind.name()
        )),
        kind @ (Protocol::InpHt | Protocol::MargRr | Protocol::MargPs | Protocol::MargHt)
            if !(1..=d).contains(&k) =>
        {
            Err(format!("{} needs 1 ≤ k ≤ d = {d}, got {k}", kind.name()))
        }
        kind @ (Protocol::MargRr | Protocol::MargPs | Protocol::MargHt) if k > 16 => Err(format!(
            "{} materializes 2^k marginal tables; need k ≤ 16, got {k}",
            kind.name()
        )),
        kind @ (Protocol::MargRr | Protocol::MargPs | Protocol::MargHt)
            if binomial(u64::from(d), u64::from(k)) > MAX_INDEXED =>
        {
            Err(format!(
                "{} indexes at most 2^32 marginals; C({d}, {k}) is more",
                kind.name()
            ))
        }
        Protocol::InpHt if coefficient_count(d, k) > MAX_INDEXED => Err(format!(
            "InpHT indexes at most 2^32 coefficients; d={d} k={k} has more"
        )),
        Protocol::Olh if d > 40 => Err(format!("OLH needs d ≤ 40, got {d}")),
        Protocol::Cms | Protocol::Hcms if !(1..=255).contains(&hashes) => {
            Err(format!("sketch needs 1 ≤ hashes ≤ 255, got {hashes}"))
        }
        Protocol::Cms | Protocol::Hcms if !(2..=1 << 16).contains(&width) => {
            Err(format!("sketch needs 2 ≤ width ≤ 65536, got {width}"))
        }
        Protocol::Hcms if !width.is_power_of_two() => {
            Err(format!("HCMS width must be a power of two, got {width}"))
        }
        _ => Ok(()),
    }
}

/// Reject parameter combinations the protocol constructors would panic
/// on ([`check_shape`], the ranges every header shares
/// ([`StreamHeader::check`]) and OLH's one-byte bucket), and return the
/// protocol the header names. Applied to headers from the command line
/// *and* from incoming streams.
fn validate_header(header: &StreamHeader) -> Result<Protocol, String> {
    let protocol = Protocol::from_header(header)
        .ok_or_else(|| format!("header names unknown protocol tag {:#04x}", header.protocol))?;
    let (d, k, eps) = (header.d, header.k, header.eps);
    check_shape(protocol, d, k, header.hashes, header.width)?;
    header
        .check()
        .map_err(|field| format!("{field} is out of range: d={d} k={k} ε={eps}"))?;
    // g = ⌈e^ε⌉ + 1 must fit the 8-bit bucket field.
    if protocol == Protocol::Olh && eps > 255f64.ln() {
        return Err(format!(
            "OLH buckets are reported as one byte; need eps ≤ ln(255) ≈ 5.54, got {eps}"
        ));
    }
    Ok(protocol)
}

/// The protocol a validated header names. Only validated headers build
/// a [`Client`] or a [`PipelineAccumulator`], so the fallback is never
/// taken.
fn named(header: &StreamHeader) -> Protocol {
    Protocol::from_header(header).unwrap_or(Protocol::InpRr)
}

/// The low `bits` bits set (all 64 for `bits ≥ 64`).
#[inline]
fn low_mask(bits: u32) -> u64 {
    match bits {
        0 => 0,
        1..=63 => (1u64 << bits) - 1,
        _ => u64::MAX,
    }
}

/// The client half of a pipeline: the validated header it was built
/// from, which is its whole configuration, and the protocol that header
/// describes.
#[derive(Clone, Debug)]
pub struct Client {
    header: StreamHeader,
    encoder: Encoder,
}

/// The built protocol a [`Client`]'s header describes, one variant per
/// protocol ([`Client::encoder`]).
#[derive(Clone, Debug)]
pub enum Encoder {
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
    /// See [`Olh`].
    Olh(Olh),
    /// See [`Cms`].
    Cms(Cms),
    /// See [`HadamardCms`].
    Hcms(HadamardCms),
}

impl Client {
    /// Rebuild the client a header describes.
    pub fn from_header(header: &StreamHeader) -> Result<Client, String> {
        let (d, k, eps) = (header.d, header.k, header.eps);
        let (hashes, width, family) = (
            header.hashes as usize,
            header.width as usize,
            header.family_seed,
        );
        let encoder = match validate_header(header)? {
            Protocol::InpRr => Encoder::InpRr(InpRr::new(d, eps)),
            Protocol::InpPs => Encoder::InpPs(InpPs::new(d, eps)),
            Protocol::InpHt => Encoder::InpHt(InpHt::new(d, k, eps)),
            Protocol::MargRr => Encoder::MargRr(MargRr::new(d, k, eps)),
            Protocol::MargPs => Encoder::MargPs(MargPs::new(d, k, eps)),
            Protocol::MargHt => Encoder::MargHt(MargHt::new(d, k, eps)),
            Protocol::InpEm => Encoder::InpEm(InpEm::new(d, eps)),
            Protocol::Olh => Encoder::Olh(Olh::new(d, eps)),
            Protocol::Cms => Encoder::Cms(Cms::new(d, eps, hashes, width, family)),
            Protocol::Hcms => Encoder::Hcms(HadamardCms::new(d, eps, hashes, width, family)),
        };
        Ok(Client {
            header: *header,
            encoder,
        })
    }

    /// The header this client was built from.
    #[must_use]
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Which protocol this client speaks.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        named(&self.header)
    }

    /// The built protocol, for callers of its typed API.
    #[must_use]
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The encode kernels: encode a batch of rows into `w` as one
    /// complete wire-v4 [`tag::REPORT_BATCH`] frame payload (the writer
    /// is reset first, keeping its allocation) — the header's
    /// envelope, then each report packed at its [`layout`] widths.
    /// Row `i` is encoded under `user_rng(seed, first_user + i)`, so
    /// chunking a population into batches of any size yields the same
    /// reports. The unary protocols (InpRR, MargRR, CMS) write their
    /// perturbed vectors as the words the lane sampler draws, with no
    /// per-bit work.
    pub fn encode_batch(&self, rows: &[u64], seed: u64, first_user: u64, w: &mut Writer) {
        let e = envelope(&self.header);
        let l = layout(self.protocol(), e.d, e.k, e.hashes, e.width);
        let byte = |v: u32| u8::try_from(v).unwrap_or(u8::MAX);
        w.reset_with_tag(tag::REPORT_BATCH);
        w.put_u8(e.protocol);
        w.put_u8(byte(e.d));
        w.put_u8(byte(e.k));
        w.put_u8(byte(e.hashes));
        w.put_u32(e.width);
        w.put_u32(u32::try_from(rows.len()).unwrap_or(u32::MAX));
        let mut out = Bits::new(w);
        match &self.encoder {
            Encoder::InpRr(m) => each_user(rows, seed, first_user, |row, rng| {
                m.perturbed_words(row, rng, |word, lanes| out.put(word, lanes));
            }),
            Encoder::InpPs(m) => each_user(rows, seed, first_user, |row, rng| {
                out.put(m.encode(row, rng), l.index);
            }),
            Encoder::InpHt(m) => each_user(rows, seed, first_user, |row, rng| {
                let r = m.encode(row, rng);
                out.put(
                    l.join(u64::from(r.coefficient), 0, r.sign_positive),
                    l.fixed(),
                );
            }),
            Encoder::MargRr(m) => each_user(rows, seed, first_user, |row, rng| {
                let (marginal, cell) = m.sample_marginal(row, rng);
                out.put(u64::from(marginal), l.index);
                m.perturbed_table(cell, rng, |word, lanes| out.put(word, lanes));
            }),
            Encoder::MargPs(m) => each_user(rows, seed, first_user, |row, rng| {
                let r = m.encode(row, rng);
                let fixed = l.join(u64::from(r.marginal), u64::from(r.cell), false);
                out.put(fixed, l.fixed());
            }),
            Encoder::MargHt(m) => each_user(rows, seed, first_user, |row, rng| {
                let r = m.encode(row, rng);
                let fixed = l.join(
                    u64::from(r.marginal),
                    u64::from(r.coefficient),
                    r.sign_positive,
                );
                out.put(fixed, l.fixed());
            }),
            Encoder::InpEm(m) => each_user(rows, seed, first_user, |row, rng| {
                out.put(m.encode(row, rng), l.index);
            }),
            Encoder::Olh(o) => each_user(rows, seed, first_user, |row, rng| {
                let r = o.encode(row, rng);
                out.put(r.seed, 64);
                out.put(u64::from(r.bucket), 8);
            }),
            Encoder::Cms(o) => each_user(rows, seed, first_user, |row, rng| {
                let (sketch_row, bucket) = o.sample_row(row, rng);
                out.put(u64::from(sketch_row), l.index);
                o.perturbed_row(bucket, rng, |word, lanes| out.put(word, lanes));
            }),
            Encoder::Hcms(o) => each_user(rows, seed, first_user, |row, rng| {
                let r = o.encode(row, rng);
                let fixed = l.join(u64::from(r.row), u64::from(r.coefficient), r.sign_positive);
                out.put(fixed, l.fixed());
            }),
        }
        out.finish();
    }

    /// A fresh, empty accumulator under this client's header.
    #[must_use]
    pub fn accumulator(&self) -> PipelineAccumulator {
        let aggregator = match &self.encoder {
            Encoder::InpRr(m) => Aggregator::InpRr(m.aggregator()),
            Encoder::InpPs(m) => Aggregator::InpPs(m.aggregator()),
            Encoder::InpHt(m) => Aggregator::InpHt(m.aggregator()),
            Encoder::MargRr(m) => Aggregator::MargRr(m.aggregator()),
            Encoder::MargPs(m) => Aggregator::MargPs(m.aggregator()),
            Encoder::MargHt(m) => Aggregator::MargHt(m.aggregator()),
            Encoder::InpEm(m) => Aggregator::InpEm(m.aggregator()),
            Encoder::Olh(o) => Aggregator::Olh(o.aggregator()),
            Encoder::Cms(o) => Aggregator::Cms(o.aggregator()),
            Encoder::Hcms(o) => Aggregator::Hcms(o.aggregator()),
        };
        PipelineAccumulator {
            header: self.header,
            aggregator,
        }
    }
}

/// Call `encode(row, rng)` for each row, user `first_user + i` drawing
/// from `user_rng(seed, first_user + i)`.
#[inline]
fn each_user(rows: &[u64], seed: u64, first_user: u64, mut encode: impl FnMut(u64, &mut SmallRng)) {
    for (i, &row) in rows.iter().enumerate() {
        encode(row, &mut user_rng(seed, first_user.wrapping_add(i as u64)));
    }
}

/// The LSB-first bit packer behind [`Client::encode_batch`]: fields go
/// into a 128-bit accumulator, which spills to the writer 64 bits at a
/// time.
struct Bits<'w> {
    w: &'w mut Writer,
    acc: u128,
    n: u32,
}

impl<'w> Bits<'w> {
    fn new(w: &'w mut Writer) -> Self {
        Bits { w, acc: 0, n: 0 }
    }

    /// Append the low `bits ≤ 64` bits of `value`.
    #[inline]
    fn put(&mut self, value: u64, bits: u32) {
        self.acc |= u128::from(value & low_mask(bits)) << self.n;
        self.n += bits;
        if self.n >= 64 {
            self.w.put_u64(self.acc as u64);
            self.acc >>= 64;
            self.n -= 64;
        }
    }

    /// Flush the last partial word, zero-padded to a byte.
    fn finish(self) {
        let tail = self.acc.to_le_bytes();
        let bytes = usize::try_from(self.n.div_ceil(8)).unwrap_or(0);
        self.w.put_raw(tail.get(..bytes).unwrap_or_default());
    }
}

/// One user's report, for any protocol — what a batch body decodes
/// into. Each variant's fields are the wire-v4 report fields of
/// [`layout`], widened to the protocol's report type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineReport {
    /// InpRR: the perturbed one-hot vector's words.
    InpRr(Vec<u64>),
    /// InpPS: the perturbed input index.
    InpPs(u64),
    /// InpHT: sampled Hadamard coefficient + sign.
    InpHt(InpHtReport),
    /// MargRR: sampled marginal + its perturbed table's words.
    MargRr(MargRrReport),
    /// MargPS: sampled marginal + perturbed cell.
    MargPs(MargPsReport),
    /// MargHT: sampled marginal + coefficient sign.
    MargHt(MargHtReport),
    /// InpEM: the budget-split perturbed row.
    InpEm(u64),
    /// OLH: hash seed + reported bucket.
    Olh(OlhReport),
    /// CMS: sketch row + the perturbed row's words. Boxed so the enum
    /// stays the size of the other set reports.
    Cms(Box<CmsReport>),
    /// HCMS: sketch row + Hadamard coefficient sign.
    Hcms(HcmsReport),
}

/// Placeholder a decode slot holds while its previous buffer is moved
/// out; never absorbed.
const EMPTY_SLOT: PipelineReport = PipelineReport::InpPs(0);

impl PipelineReport {
    /// Which protocol this report belongs to.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        match self {
            Self::InpRr(_) => Protocol::InpRr,
            Self::InpPs(_) => Protocol::InpPs,
            Self::InpHt(_) => Protocol::InpHt,
            Self::MargRr(_) => Protocol::MargRr,
            Self::MargPs(_) => Protocol::MargPs,
            Self::MargHt(_) => Protocol::MargHt,
            Self::InpEm(_) => Protocol::InpEm,
            Self::Olh(_) => Protocol::Olh,
            Self::Cms(_) => Protocol::Cms,
            Self::Hcms(_) => Protocol::Hcms,
        }
    }
}

// The fixed-field reports, read off a report's fixed bits at their
// layout widths. Every width fits its field type: indices take at most
// 32 bits (`MAX_INDEXED`), cells and coefficients at most 16.

/// A `u32` index field.
#[inline]
fn index_u32(index: u64) -> u32 {
    u32::try_from(index).unwrap_or(u32::MAX)
}

/// A `u16` cell or coefficient field.
#[inline]
fn value_u16(value: u64) -> u16 {
    u16::try_from(value).unwrap_or(u16::MAX)
}

/// InpHT: coefficient, sign.
#[inline]
fn inp_ht_report(l: Layout, fixed: u64) -> InpHtReport {
    let (coefficient, _, sign_positive) = l.split(fixed);
    InpHtReport {
        coefficient: index_u32(coefficient),
        sign_positive,
    }
}

/// MargPS: marginal, cell.
#[inline]
fn marg_ps_report(l: Layout, fixed: u64) -> MargPsReport {
    let (marginal, cell, _) = l.split(fixed);
    MargPsReport {
        marginal: index_u32(marginal),
        cell: value_u16(cell),
    }
}

/// MargHT: marginal, coefficient, sign.
#[inline]
fn marg_ht_report(l: Layout, fixed: u64) -> MargHtReport {
    let (marginal, coefficient, sign_positive) = l.split(fixed);
    MargHtReport {
        marginal: index_u32(marginal),
        coefficient: value_u16(coefficient),
        sign_positive,
    }
}

/// HCMS: sketch row, coefficient, sign.
#[inline]
fn hcms_report(l: Layout, fixed: u64) -> HcmsReport {
    let (row, coefficient, sign_positive) = l.split(fixed);
    HcmsReport {
        row: u8::try_from(row).unwrap_or(u8::MAX),
        coefficient: value_u16(coefficient),
        sign_positive,
    }
}

/// OLH: a 9-byte report, `u64` seed then the bucket byte.
#[inline]
fn olh_report(b: &[u8; 9]) -> OlhReport {
    let [seed @ .., bucket] = *b;
    OlhReport {
        seed: u64::from_le_bytes(seed),
        bucket,
    }
}

/// The batch envelope of a header's pipeline: the header with ε, the
/// family seed and every field its protocol does not use set to zero —
/// `k` but for InpHT and the three marginal mechanisms, `hashes` and
/// `width` but for the two sketches. [`Client::encode_batch`] writes
/// it, [`open_batch`] refuses an envelope that is not its own, and an
/// accumulator absorbs only batches whose envelope is its header's.
fn envelope(header: &StreamHeader) -> StreamHeader {
    let (uses_k, sketch) = fields_used(header);
    StreamHeader {
        k: if uses_k { header.k } else { 0 },
        eps: 0.0,
        hashes: if sketch { header.hashes } else { 0 },
        width: if sketch { header.width } else { 0 },
        family_seed: 0,
        ..*header
    }
}

/// Whether a header's protocol uses its `k`, and whether it is a sketch
/// (using `hashes` and `width`).
fn fields_used(header: &StreamHeader) -> (bool, bool) {
    let protocol = Protocol::from_header(header);
    (
        matches!(
            protocol,
            Some(Protocol::InpHt | Protocol::MargRr | Protocol::MargPs | Protocol::MargHt)
        ),
        matches!(protocol, Some(Protocol::Cms | Protocol::Hcms)),
    )
}

/// An envelope as refusals name it, with only the fields its protocol
/// uses: `MargPS d=8 k=2`, `CMS d=6 hashes×width=3×16`.
#[cold]
fn describe(envelope: &StreamHeader) -> String {
    let mut text = format!("{} d={}", named(envelope).name(), envelope.d);
    let (uses_k, sketch) = fields_used(envelope);
    if uses_k {
        text += &format!(" k={}", envelope.k);
    }
    if sketch {
        text += &format!(" hashes×width={}×{}", envelope.hashes, envelope.width);
    }
    text
}

/// Bytes in a wire-v4 batch envelope: tag, version, protocol, `d`, `k`,
/// `hashes` (one byte each), `width` and the report count (`u32` each).
pub const ENVELOPE_BYTES: usize = 14;

/// An opened batch frame: the envelope's protocol, [`envelope`] and
/// count, the layout they imply, and the body holding exactly `count`
/// reports.
struct Batch<'a> {
    protocol: Protocol,
    envelope: StreamHeader,
    layout: Layout,
    count: usize,
    body: &'a [u8],
}

/// Why a payload is not a wire-v4 batch, for one whose prelude is wrong:
/// a retired single-report frame or an older batch body (naming its
/// wire version), or another tag. A single-report frame is named only
/// for one of the ten retired tags (`0x20` plus a protocol's
/// accumulator tag) at the wire versions that carried them, v1–v3.
#[cold]
fn wrong_prelude(payload: &[u8]) -> String {
    let refuse = |why: String| format!("bad report batch frame: {why}");
    let retired = |t: u8| Protocol::from_wire_tag(t.wrapping_sub(0x20)).is_some();
    match *payload {
        [] => refuse("empty payload".to_string()),
        [t, version @ 1..=3, ..] if retired(t) => refuse(format!(
            "tag {t:#04x} is a wire-v{version} single-report frame; wire v4 retired them, \
             so send reports in wire-v4 REPORT_BATCH frames"
        )),
        [tag::REPORT_BATCH, version, ..] => refuse(format!(
            "a wire-v{version} batch is {} than this build reads \
             (wire-v{MIN_BATCH_VERSION} to wire-v{VERSION} report batches)",
            if version < MIN_BATCH_VERSION {
                "older"
            } else {
                "newer"
            }
        )),
        [t, ..] => refuse(format!(
            "tag {t:#04x} is not a report batch (expected {:#04x})",
            tag::REPORT_BATCH
        )),
    }
}

/// Open a wire-v4 [`tag::REPORT_BATCH`] frame payload: check the prelude,
/// the envelope's shape (the header limits, with unused fields zero),
/// that the body is exactly `⌈count · bits / 8⌉` bytes, and that the
/// pad bits after the last report are zero. Nothing is allocated, so a
/// forged count costs nothing.
fn open_batch(payload: &[u8]) -> Result<Batch<'_>, String> {
    let prelude_ok = matches!(
        *payload,
        [tag::REPORT_BATCH, version, ..] if (MIN_BATCH_VERSION..=VERSION).contains(&version)
    );
    if !prelude_ok {
        return Err(wrong_prelude(payload));
    }
    let refuse = |why: String| format!("bad report batch frame: {why}");
    let Some((head, body)) = payload.split_first_chunk::<ENVELOPE_BYTES>() else {
        return Err(refuse(format!(
            "the envelope is truncated ({} of {ENVELOPE_BYTES} bytes)",
            payload.len()
        )));
    };
    let [_, _, t, d, k, hashes, w0, w1, w2, w3, c0, c1, c2, c3] = *head;
    let protocol = Protocol::from_wire_tag(t)
        .ok_or_else(|| refuse(format!("unknown protocol tag {t:#04x}")))?;
    let width = u32::from_le_bytes([w0, w1, w2, w3]);
    let count = u32::from_le_bytes([c0, c1, c2, c3]);
    let got = StreamHeader {
        protocol: t,
        d: u32::from(d),
        k: u32::from(k),
        eps: 0.0,
        hashes: u32::from(hashes),
        width,
        family_seed: 0,
    };
    let own = envelope(&got);
    if own != got {
        return Err(refuse(format!(
            "a {} envelope must zero the fields it does not use, got \
             k={k} hashes={hashes} width={width}",
            describe(&own)
        )));
    }
    check_shape(protocol, own.d, own.k, own.hashes, own.width)
        .map_err(|e| refuse(format!("envelope shape: {e}")))?;
    let layout = layout(protocol, own.d, own.k, own.hashes, own.width);
    let want = layout.body_bytes(count);
    if body.len() as u64 != want {
        return Err(refuse(format!(
            "{count} {} reports of {} bits take {want} bytes, the body has {}",
            describe(&own),
            layout.bits(),
            body.len()
        )));
    }
    let used = u64::from(count) * layout.bits() % 8;
    if used != 0 && body.last().is_some_and(|last| last >> used != 0) {
        return Err(refuse("nonzero pad bits after the last report".to_string()));
    }
    Ok(Batch {
        protocol,
        envelope: own,
        layout,
        count: usize::try_from(count).unwrap_or(usize::MAX),
        body,
    })
}

/// The 16 bytes of `bytes` from `at` on as one little-endian `u128`,
/// zero-extended past the end.
#[inline]
fn window(bytes: &[u8], at: usize) -> u128 {
    let rest = bytes.get(at..).unwrap_or_default();
    match rest.first_chunk::<16>() {
        Some(w) => u128::from_le_bytes(*w),
        None => {
            let mut w = [0u8; 16];
            for (dst, src) in w.iter_mut().zip(rest) {
                *dst = *src;
            }
            u128::from_le_bytes(w)
        }
    }
}

/// `width ≤ 64` bits of `bytes` from bit `bit` on, LSB-first.
#[inline]
fn bits_at(bytes: &[u8], bit: u64, width: u32) -> u64 {
    let at = usize::try_from(bit / 8).unwrap_or(usize::MAX);
    (window(bytes, at) >> (bit % 8)) as u64 & low_mask(width)
}

/// Visit the `count` fixed-width `bits`-bit (≤ 64) fields packed
/// LSB-first from the start of `body`, in order, with their index.
/// Eight fields occupy exactly `bits` bytes, so for `bits ≤ 16` each
/// group of eight is one load (a `u64` up to 8 bits, else a `u128`).
#[inline]
fn for_each_field(body: &[u8], count: usize, bits: u32, mut visit: impl FnMut(usize, u64)) {
    let mask = low_mask(bits);
    let grouped = if bits <= 16 { count / 8 } else { 0 };
    let group_bytes = usize::try_from(bits).unwrap_or(usize::MAX);
    for g in 0..grouped {
        let word = window(body, g * group_bytes);
        let fields: [u64; 8] = if bits <= 8 {
            let word = word as u64;
            std::array::from_fn(|j| (word >> (j as u32 * bits)) & mask)
        } else {
            std::array::from_fn(|j| (word >> (j as u32 * bits)) as u64 & mask)
        };
        for (j, f) in fields.into_iter().enumerate() {
            visit(g * 8 + j, f);
        }
    }
    for i in grouped * 8..count {
        visit(i, field(body, i, bits));
    }
}

/// Field `i` of a body of `bits`-bit fields.
#[inline]
fn field(body: &[u8], i: usize, bits: u32) -> u64 {
    bits_at(body, i as u64 * u64::from(bits), bits)
}

/// Visit the `count` reports of a set-carrying layout (InpRR, MargRR,
/// CMS), in order: each report's fixed bits and the bit where its set
/// starts.
#[inline]
fn for_each_set_report(b: &Batch<'_>, mut visit: impl FnMut(usize, u64, u64)) {
    let (fixed, bits) = (b.layout.fixed(), b.layout.bits());
    for i in 0..b.count {
        let start = i as u64 * bits;
        visit(i, bits_at(b.body, start, fixed), start + u64::from(fixed));
    }
}

/// The words of the `len`-bit set at bit `start` of `bytes`: bit `j` of
/// word `i` is cell `64·i + j`, and the bits of the last word past `len`
/// are zero.
#[inline]
fn set_words(bytes: &[u8], start: u64, len: u32) -> impl Iterator<Item = u64> + '_ {
    (0..len)
        .step_by(64)
        .map(move |base| bits_at(bytes, start + u64::from(base), (len - base).min(64)))
}

/// The slot for report `i` of `scratch`, growing it by one when `i` is
/// its length (a batch never grows it further than its count, which
/// the exact length check ties to bytes actually received).
#[inline]
fn slot(scratch: &mut Vec<PipelineReport>, i: usize) -> Option<&mut PipelineReport> {
    if i == scratch.len() {
        scratch.push(EMPTY_SLOT);
    }
    scratch.get_mut(i)
}

/// Decode every report of a fixed-field batch into `scratch` through
/// `report`, which builds one from its fixed bits.
fn fill(scratch: &mut Vec<PipelineReport>, b: &Batch<'_>, report: impl Fn(u64) -> PipelineReport) {
    for_each_field(b.body, b.count, b.layout.fixed(), |i, fixed| {
        if let Some(s) = slot(scratch, i) {
            *s = report(fixed);
        }
    });
}

/// Decode a wire-v4 [`tag::REPORT_BATCH`] frame payload into a reusable
/// scratch vector, returning the number of reports decoded. The
/// envelope names the protocol and shape, so no header is needed.
/// Existing `scratch` slots are refilled in place (reusing the word
/// buffers of InpRR, MargRR and CMS reports) and the vector grows only
/// when the batch is larger than any seen before; entries past the
/// returned count are stale leftovers that must not be absorbed.
///
/// Rejects, without panicking: a payload that is not a wire-v4 batch (a
/// retired single-report frame or an older batch names its wire
/// version), an envelope shape outside the header limits, a body that
/// is not exactly `⌈count · bits / 8⌉` bytes, and nonzero pad bits.
/// Range checks against an accumulator's shape are
/// [`PipelineAccumulator::absorb_batch`]'s.
///
/// The serve and `ingest` paths absorb batch frames through
/// [`PipelineAccumulator::absorb_frame`] instead; this decoder and
/// [`PipelineAccumulator::absorb_batch`] are the reference it is
/// tested against.
pub fn decode_report_batch_into(
    payload: &[u8],
    scratch: &mut Vec<PipelineReport>,
) -> Result<usize, String> {
    let b = open_batch(payload)?;
    let (l, body) = (b.layout, b.body);
    match b.protocol {
        Protocol::InpPs => fill(scratch, &b, PipelineReport::InpPs),
        Protocol::InpEm => fill(scratch, &b, PipelineReport::InpEm),
        Protocol::InpHt => {
            fill(scratch, &b, |f| PipelineReport::InpHt(inp_ht_report(l, f)));
        }
        Protocol::MargPs => fill(scratch, &b, |f| {
            PipelineReport::MargPs(marg_ps_report(l, f))
        }),
        Protocol::MargHt => fill(scratch, &b, |f| {
            PipelineReport::MargHt(marg_ht_report(l, f))
        }),
        Protocol::Hcms => {
            fill(scratch, &b, |f| PipelineReport::Hcms(hcms_report(l, f)));
        }
        Protocol::Olh => {
            for (i, r) in body.as_chunks::<9>().0.iter().enumerate() {
                if let Some(s) = slot(scratch, i) {
                    *s = PipelineReport::Olh(olh_report(r));
                }
            }
        }
        Protocol::InpRr => for_each_set_report(&b, |i, _, set| {
            if let Some(s) = slot(scratch, i) {
                let mut words = match std::mem::replace(s, EMPTY_SLOT) {
                    PipelineReport::InpRr(words) => words,
                    _ => Vec::new(),
                };
                words.clear();
                words.extend(set_words(body, set, l.set));
                *s = PipelineReport::InpRr(words);
            }
        }),
        Protocol::MargRr => for_each_set_report(&b, |i, marginal, set| {
            if let Some(s) = slot(scratch, i) {
                let mut words = match std::mem::replace(s, EMPTY_SLOT) {
                    PipelineReport::MargRr(report) => report.words,
                    _ => Vec::new(),
                };
                words.clear();
                words.extend(set_words(body, set, l.set));
                *s = PipelineReport::MargRr(MargRrReport {
                    marginal: index_u32(marginal),
                    words,
                });
            }
        }),
        Protocol::Cms => for_each_set_report(&b, |i, row, set| {
            if let Some(s) = slot(scratch, i) {
                let mut report = match std::mem::replace(s, EMPTY_SLOT) {
                    PipelineReport::Cms(report) => report,
                    _ => Box::new(CmsReport {
                        row: 0,
                        words: Vec::new(),
                    }),
                };
                report.row = u8::try_from(row).unwrap_or(u8::MAX);
                report.words.clear();
                report.words.extend(set_words(body, set, l.set));
                *s = PipelineReport::Cms(report);
            }
        }),
    }
    Ok(b.count)
}

/// Refuse a batch holding a report of another protocol than the
/// accumulator's: one protocol comparison, then a discriminant scan
/// (every report must share the first one's variant).
fn check_protocol(protocol: Protocol, reports: &[PipelineReport]) -> Result<(), String> {
    let first = reports.first().map(std::mem::discriminant);
    let mixed = reports
        .first()
        .filter(|r| r.protocol() != protocol)
        .or_else(|| {
            reports
                .iter()
                .find(|r| Some(std::mem::discriminant(*r)) != first)
        });
    match mixed {
        Some(bad) => Err(format!(
            "stream mixes protocols: {} accumulator got a {} report",
            protocol.name(),
            bad.protocol().name()
        )),
        None => Ok(()),
    }
}

/// The message that refuses a batch whose report `i` fails its
/// protocol's range check.
#[cold]
fn out_of_range(i: usize, e: &WireError) -> String {
    format!("bad report frame: report {i} of the batch: {e}")
}

/// The fixed-field frame kernel (InpPS, InpHT, MargPS, MargHT, HCMS),
/// which absorbs a batch whole or not at all. Pass 1 range-checks every
/// report's index field against the tally's bound
/// ([`indices_below`]); a batch that fails is read again to name its
/// first bad report. Pass 2 counts each report's packed field into the
/// tally, `tally[field] += 1`. A tally whose index field has no room
/// for a bad value (InpPS) skips pass 1.
#[inline]
fn absorb_fields(tally: &mut Tally, b: &Batch<'_>) -> Result<(), (usize, WireError)> {
    if let Some(bound) = tally.bound() {
        if !indices_below(b, bound) {
            return Err(first_bad_field(tally, b));
        }
    }
    for_each_field(b.body, b.count, b.layout.fixed(), |_, f| tally.add(f));
    Ok(())
}

/// Whether the index field of every report of a fixed-field batch is
/// below `bound`, which the field has room to exceed. An index `i` of
/// `n` bits is below `bound` exactly when `i + 2^n − bound` does not
/// carry into bit `n`, so the reports' sums are OR-ed together and
/// their carry bits tested once. Every layout checked has a field after
/// the index, so the carry lands inside the report; with at most 16
/// fixed bits, eight reports are one load, masked and summed as one (as
/// in [`for_each_field`]).
#[inline]
fn indices_below(b: &Batch<'_>, bound: u64) -> bool {
    let (index, bits) = (b.layout.index, b.layout.fixed());
    let room = 1u64.checked_shl(index).unwrap_or(0);
    let (mask, lift) = (low_mask(index), room.wrapping_sub(bound));
    let eight = |x: u64| {
        (0..8).fold(0u128, |all, j| {
            all | u128::from(x).checked_shl(j * bits).unwrap_or(0)
        })
    };
    let grouped = if bits <= 16 && index < bits {
        b.count / 8
    } else {
        0
    };
    let group_bytes = usize::try_from(bits).unwrap_or(usize::MAX);
    let (mask8, lift8) = (eight(mask), eight(lift));
    let mut carries = 0u128;
    if bits <= 8 {
        // Eight reports fit a `u64`, whose sums are cheaper.
        let (mask8, lift8) = (mask8 as u64, lift8 as u64);
        let mut narrow = 0u64;
        for g in 0..grouped {
            narrow |= (window(b.body, g * group_bytes) as u64 & mask8) + lift8;
        }
        carries = u128::from(narrow);
    } else {
        for g in 0..grouped {
            carries |= (window(b.body, g * group_bytes) & mask8) + lift8;
        }
    }
    let mut carry = 0u64;
    for i in grouped * 8..b.count {
        carry |= (field(b.body, i, bits) & mask) + lift;
    }
    carries & eight(room) == 0 && carry & room == 0
}

/// The first report of a fixed-field batch whose index `tally` refuses,
/// with its error: the error path of a refused batch.
#[cold]
fn first_bad_field(tally: &Tally, b: &Batch<'_>) -> (usize, WireError) {
    let (l, bits) = (b.layout, b.layout.fixed());
    first_refusal(b.count, |i| tally.check(l.split(field(b.body, i, bits)).0))
}

/// The set kernel (InpRR, MargRR, CMS), which absorbs a batch whole or
/// not at all. Pass 1 range-checks the largest row index (InpRR's is 0);
/// a batch that fails is read again to name its first bad report. Pass 2
/// counts each report into its row a 64-bit word at a time.
#[inline]
fn absorb_sets(tally: &mut UnaryTally, b: &Batch<'_>) -> Result<(), (usize, WireError)> {
    let mut largest = 0;
    for_each_set_report(b, |_, row, _| largest = largest.max(row));
    if b.count > 0 && tally.check(largest).is_err() {
        let (fixed, bits) = (b.layout.fixed(), b.layout.bits());
        return Err(first_refusal(b.count, |i| {
            tally.check(bits_at(b.body, i as u64 * bits, fixed))
        }));
    }
    for_each_set_report(b, |_, row, set| {
        let mut user = tally.user(row);
        for word in set_words(b.body, set, b.layout.set) {
            user.add_word(word);
        }
    });
    Ok(())
}

/// The first of `count` reports whose `check` fails, with its error:
/// the error path of a refused batch.
#[cold]
fn first_refusal(
    count: usize,
    check: impl Fn(usize) -> Result<(), WireError>,
) -> (usize, WireError) {
    (0..count)
        .find_map(|i| check(i).err().map(|e| (i, e)))
        .unwrap_or((0, WireError::Invalid("refused report not found")))
}

/// The server half of a pipeline: the validated header it was built
/// from, which is its whole configuration and the only key two partial
/// aggregates or a batch are compared by, and the aggregator that header
/// describes.
#[derive(Clone, Debug)]
pub struct PipelineAccumulator {
    header: StreamHeader,
    aggregator: Aggregator,
}

/// The aggregator a [`PipelineAccumulator`]'s header describes, one
/// variant per protocol ([`PipelineAccumulator::aggregator`]).
#[derive(Clone, Debug)]
pub enum Aggregator {
    /// See [`InpRrAggregator`].
    InpRr(InpRrAggregator),
    /// See [`InpPsAggregator`].
    InpPs(InpPsAggregator),
    /// See [`InpHtAggregator`].
    InpHt(InpHtAggregator),
    /// See [`MargRrAggregator`].
    MargRr(MargRrAggregator),
    /// See [`MargPsAggregator`].
    MargPs(MargPsAggregator),
    /// See [`MargHtAggregator`].
    MargHt(MargHtAggregator),
    /// See [`InpEmAggregator`].
    InpEm(InpEmAggregator),
    /// See [`OlhAggregator`].
    Olh(OlhAggregator),
    /// See [`CmsAggregator`].
    Cms(CmsAggregator),
    /// See [`HadamardCmsAggregator`].
    Hcms(HadamardCmsAggregator),
}

impl PipelineAccumulator {
    /// A fresh, empty accumulator matching a header.
    pub fn empty(header: &StreamHeader) -> Result<Self, String> {
        Client::from_header(header).map(|client| client.accumulator())
    }

    /// Rehydrate serialized accumulator state under its snapshot's
    /// header: the header builds the empty accumulator ([`Self::empty`]),
    /// and the state is loaded into it (`Accumulator::load`), refused
    /// unless its tag, carried configuration (`d`, `k`, probabilities,
    /// OLH's `g`, the sketch shape and hash family, InpEM's EM
    /// threshold and iteration cap) and table lengths match. The
    /// validated header is the only source of the state's configuration.
    pub fn from_state(header: &StreamHeader, state: &[u8]) -> Result<Self, String> {
        let mut acc = Self::empty(header)?;
        match &mut acc.aggregator {
            Aggregator::InpRr(a) => a.load(state),
            Aggregator::InpPs(a) => a.load(state),
            Aggregator::InpHt(a) => a.load(state),
            Aggregator::MargRr(a) => a.load(state),
            Aggregator::MargPs(a) => a.load(state),
            Aggregator::MargHt(a) => a.load(state),
            Aggregator::InpEm(a) => a.load(state),
            Aggregator::Olh(a) => a.load(state),
            Aggregator::Cms(a) => a.load(state),
            Aggregator::Hcms(a) => a.load(state),
        }
        .map_err(|e| match e {
            WireError::Mismatch(field) => {
                format!("snapshot state does not match header: {field} differs")
            }
            WireError::WrongTag {
                expected,
                found: Some(found),
            } => format!(
                "snapshot state does not match header: state tag {found:#04x} is not the \
                 header's {expected:#04x}"
            ),
            e => format!("bad snapshot state: {e}"),
        })?;
        Ok(acc)
    }

    /// The header this accumulator was built from.
    #[must_use]
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Which protocol this accumulator serves.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        named(&self.header)
    }

    /// The aggregator, for callers of its typed API.
    #[must_use]
    pub fn aggregator(&self) -> &Aggregator {
        &self.aggregator
    }

    /// Absorb one decoded report: a batch of one.
    pub fn absorb(&mut self, report: &PipelineReport) -> Result<(), String> {
        self.absorb_batch(std::slice::from_ref(report))
    }

    /// Absorb a buffer of decoded reports. The batch is checked first —
    /// every report must belong to this accumulator's protocol and pass
    /// its protocol's range check (the aggregator's `check`: every index
    /// field inside this accumulator's shape) — and rejected whole,
    /// absorbing nothing, if any report fails. Then each report goes
    /// through its aggregator's `absorb`; `InpEM` routes the batch
    /// through its group-by-value kernel
    /// (`InpEmAggregator::absorb_batch_iter`).
    pub fn absorb_batch(&mut self, reports: &[PipelineReport]) -> Result<(), String> {
        check_protocol(self.protocol(), reports)?;
        macro_rules! check_each {
            ($variant:ident, |$r:ident| $check:expr) => {
                for (i, report) in reports.iter().enumerate() {
                    if let PipelineReport::$variant($r) = report {
                        $check.map_err(|e| out_of_range(i, &e))?;
                    }
                }
            };
        }
        macro_rules! absorb_each {
            ($acc:ident, $variant:ident) => {
                for report in reports {
                    if let PipelineReport::$variant(r) = report {
                        Accumulator::absorb($acc, r);
                    }
                }
            };
        }
        match &mut self.aggregator {
            // InpRR has one row: no range to check. A set bit past
            // InpRR's 2^d cells, or past MargRR's 2^k, counts nothing.
            Aggregator::InpRr(a) => absorb_each!(a, InpRr),
            Aggregator::InpPs(a) => {
                check_each!(InpPs, |row| a.check(*row));
                absorb_each!(a, InpPs);
            }
            Aggregator::InpHt(a) => {
                check_each!(InpHt, |r| a.check(*r));
                absorb_each!(a, InpHt);
            }
            Aggregator::MargRr(a) => {
                check_each!(MargRr, |r| a.check(r.marginal));
                absorb_each!(a, MargRr);
            }
            Aggregator::MargPs(a) => {
                check_each!(MargPs, |r| a.check(*r));
                absorb_each!(a, MargPs);
            }
            Aggregator::MargHt(a) => {
                check_each!(MargHt, |r| a.check(*r));
                absorb_each!(a, MargHt);
            }
            Aggregator::InpEm(a) => {
                check_each!(InpEm, |row| a.check(*row));
                a.absorb_batch_iter(reports.iter().filter_map(|r| match r {
                    PipelineReport::InpEm(row) => Some(*row),
                    _ => None,
                }));
            }
            Aggregator::Olh(a) => {
                check_each!(Olh, |r| a.check(*r));
                absorb_each!(a, Olh);
            }
            Aggregator::Cms(a) => {
                check_each!(Cms, |r| a.check(r.row, &r.words));
                absorb_each!(a, Cms);
            }
            Aggregator::Hcms(a) => {
                check_each!(Hcms, |r| a.check(*r));
                absorb_each!(a, Hcms);
            }
        }
        Ok(())
    }

    /// The frame kernels: absorb one wire-v4 [`tag::REPORT_BATCH`] frame
    /// payload straight from its bits, returning the number of reports
    /// in it.
    ///
    /// Two passes, so a batch settles or fails as a unit. Opening the
    /// batch checks its envelope (a payload that is not a wire-v4 batch
    /// names its wire version), that it is this accumulator's header's
    /// (naming both envelopes if not), that the body is exactly the bits of
    /// `count` reports, and that its pad bits are zero. Pass 1 then reads
    /// every report and applies its protocol's range check (the same
    /// aggregator `check` [`Self::absorb_batch`] applies); pass 2 absorbs
    /// straight from the bits, with no [`PipelineReport`] in between.
    /// InpPS, InpHT, MargPS, MargHT and HCMS share one kernel: pass 1
    /// checks every report's index field against the tally's bound, and
    /// pass 2 counts each report's packed field, eight reports to a
    /// load, into the aggregator's [`Tally`]. InpRR, MargRR and CMS
    /// share another: pass 1 checks every report's row, and pass 2
    /// counts each report into its row of the aggregator's
    /// [`UnaryTally`], its set one 64-bit word at a time.
    ///
    /// Accepts exactly the payloads of this accumulator's envelope that
    /// [`decode_report_batch_into`] followed by [`Self::absorb_batch`]
    /// accepts, leaving byte-identical state; on `Err` the state is
    /// untouched.
    pub fn absorb_frame(&mut self, payload: &[u8]) -> Result<usize, String> {
        let batch = open_batch(payload)?;
        let own = envelope(&self.header);
        if batch.envelope != own {
            return Err(format!(
                "bad report batch frame: a {} batch cannot be absorbed by a {} accumulator",
                describe(&batch.envelope),
                describe(&own)
            ));
        }
        self.absorb_body(&batch)
            .map_err(|(i, e)| out_of_range(i, &e))?;
        Ok(batch.count)
    }

    /// [`Self::absorb_frame`] past the envelope: the tally kernel, the
    /// set kernel, or InpEM's and OLH's own. An InpEM row has `d` bits
    /// and cannot leave its table, so InpEM has no pass 1.
    fn absorb_body(&mut self, b: &Batch<'_>) -> Result<(), (usize, WireError)> {
        let (l, body) = (b.layout, b.body);
        match &mut self.aggregator {
            Aggregator::InpRr(a) => absorb_sets(a.tally_mut(), b),
            Aggregator::InpPs(a) => absorb_fields(a.tally_mut(), b),
            Aggregator::InpHt(a) => absorb_fields(a.tally_mut(), b),
            Aggregator::MargRr(a) => absorb_sets(a.tally_mut(), b),
            Aggregator::MargPs(a) => absorb_fields(a.tally_mut(), b),
            Aggregator::MargHt(a) => absorb_fields(a.tally_mut(), b),
            Aggregator::InpEm(a) => {
                a.absorb_batch_iter((0..b.count).map(|i| field(body, i, l.fixed())));
                Ok(())
            }
            Aggregator::Olh(a) => {
                let reports = body.as_chunks::<9>().0;
                for (i, r) in reports.iter().enumerate() {
                    a.check(olh_report(r)).map_err(|e| (i, e))?;
                }
                for r in reports {
                    a.absorb(olh_report(r));
                }
                Ok(())
            }
            Aggregator::Cms(a) => absorb_sets(a.tally_mut(), b),
            Aggregator::Hcms(a) => absorb_fields(a.tally_mut(), b),
        }
    }

    /// Fold another partial aggregate of the same pipeline into this
    /// one. Refuses, leaving `self` untouched, unless both were built
    /// from equal headers — the protocol, `d`, `k`, ε, the sketch shape
    /// and the hash family seed, compared exactly, as the server and
    /// `ldp-cli merge` compare stream headers; the message names the
    /// first field that differs.
    pub fn merge(&mut self, other: PipelineAccumulator) -> Result<(), String> {
        if self.header != other.header {
            return Err(refuse_merge(&self.header, &other.header));
        }
        match (&mut self.aggregator, other.aggregator) {
            (Aggregator::InpRr(a), Aggregator::InpRr(b)) => a.merge(b),
            (Aggregator::InpPs(a), Aggregator::InpPs(b)) => a.merge(b),
            (Aggregator::InpHt(a), Aggregator::InpHt(b)) => a.merge(b),
            (Aggregator::MargRr(a), Aggregator::MargRr(b)) => a.merge(b),
            (Aggregator::MargPs(a), Aggregator::MargPs(b)) => a.merge(b),
            (Aggregator::MargHt(a), Aggregator::MargHt(b)) => a.merge(b),
            (Aggregator::InpEm(a), Aggregator::InpEm(b)) => a.merge(b),
            (Aggregator::Olh(a), Aggregator::Olh(b)) => a.merge(b),
            (Aggregator::Cms(a), Aggregator::Cms(b)) => a.merge(b),
            (Aggregator::Hcms(a), Aggregator::Hcms(b)) => a.merge(b),
            // Equal headers build the same variant.
            _ => return Err(refuse_merge(&self.header, &other.header)),
        }
        Ok(())
    }

    /// Reports absorbed so far (summed across merges).
    pub fn report_count(&self) -> u64 {
        match &self.aggregator {
            Aggregator::InpRr(a) => a.report_count(),
            Aggregator::InpPs(a) => a.report_count(),
            Aggregator::InpHt(a) => a.report_count(),
            Aggregator::MargRr(a) => a.report_count(),
            Aggregator::MargPs(a) => a.report_count(),
            Aggregator::MargHt(a) => a.report_count(),
            Aggregator::InpEm(a) => a.report_count(),
            Aggregator::Olh(a) => a.report_count(),
            Aggregator::Cms(a) => a.report_count(),
            Aggregator::Hcms(a) => a.report_count(),
        }
    }

    /// Serialized state for the snapshot's state frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        match &self.aggregator {
            Aggregator::InpRr(a) => a.to_bytes(),
            Aggregator::InpPs(a) => a.to_bytes(),
            Aggregator::InpHt(a) => a.to_bytes(),
            Aggregator::MargRr(a) => a.to_bytes(),
            Aggregator::MargPs(a) => a.to_bytes(),
            Aggregator::MargHt(a) => a.to_bytes(),
            Aggregator::InpEm(a) => a.to_bytes(),
            Aggregator::Olh(a) => a.to_bytes(),
            Aggregator::Cms(a) => a.to_bytes(),
            Aggregator::Hcms(a) => a.to_bytes(),
        }
    }

    /// Finalize into the queryable estimate.
    pub fn finalize(self) -> PipelineEstimate {
        use PipelineEstimate::{Mechanism, Oracle};
        match self.aggregator {
            Aggregator::InpRr(a) => Mechanism(Estimate::Full(a.finalize())),
            Aggregator::InpPs(a) => Mechanism(Estimate::Full(a.finalize())),
            Aggregator::InpHt(a) => Mechanism(Estimate::Hadamard(a.finalize())),
            Aggregator::MargRr(a) => Mechanism(Estimate::MarginalSet(a.finalize())),
            Aggregator::MargPs(a) => Mechanism(Estimate::MarginalSet(a.finalize())),
            Aggregator::MargHt(a) => Mechanism(Estimate::MarginalSet(a.finalize())),
            Aggregator::InpEm(a) => Mechanism(Estimate::Em(a.finalize())),
            Aggregator::Olh(a) => Oracle(Box::new(a.finalize())),
            Aggregator::Cms(a) => Oracle(Box::new(a.finalize())),
            Aggregator::Hcms(a) => Oracle(Box::new(a.finalize())),
        }
    }
}

/// Why `theirs` does not merge into `own`: the first header field in
/// which they differ, with both values.
#[cold]
fn refuse_merge(own: &StreamHeader, theirs: &StreamHeader) -> String {
    let name = |h: &StreamHeader| named(h).name().to_string();
    macro_rules! field {
        ($f:ident) => {
            (stringify!($f), theirs.$f.to_string(), own.$f.to_string())
        };
    }
    let fields = [
        ("protocol", name(theirs), name(own)),
        field!(d),
        field!(k),
        field!(eps),
        field!(hashes),
        field!(width),
        field!(family_seed),
    ];
    let (field, theirs, own) = fields
        .into_iter()
        .find(|(_, a, b)| a != b)
        .unwrap_or_default();
    format!(
        "refusing to merge partial aggregates of different pipelines: \
         {field} {theirs} differs from the accumulator's {own}"
    )
}

/// What a finalized snapshot answers queries through.
pub enum PipelineEstimate {
    /// Marginal tables (see `ldp_core::MarginalEstimator`).
    Mechanism(Estimate),
    /// Per-value frequencies.
    Oracle(Box<dyn FrequencyOracle + Send>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::MechanismKind;

    fn mech(kind: MechanismKind, d: u32, k: u32) -> StreamHeader {
        StreamHeader::mechanism(kind, d, k, 1.1)
    }

    fn oracle_header(protocol: Protocol, d: u32, hashes: u32, width: u32) -> StreamHeader {
        let sketch = SketchShape {
            hashes,
            width,
            family_seed: 9,
        };
        header_for(protocol, d, 1, 1.1, sketch)
    }

    fn batch(client: &Client, rows: &[u64], seed: u64) -> Vec<u8> {
        let mut w = Writer::default();
        client.encode_batch(rows, seed, 0, &mut w);
        w.into_bytes()
    }

    /// A state of `n` reports for `header`, through the frame kernels.
    fn state(header: &StreamHeader, n: u64) -> Vec<u8> {
        let client = Client::from_header(header).unwrap();
        let mut acc = client.accumulator();
        let rows: Vec<u64> = (0..n).map(|u| u % (1 << header.d)).collect();
        acc.absorb_frame(&batch(&client, &rows, n)).unwrap();
        acc.to_bytes()
    }

    /// The report layout of `header`'s batches.
    fn layout_of(header: &StreamHeader) -> Layout {
        let e = envelope(header);
        layout(named(header), e.d, e.k, e.hashes, e.width)
    }

    /// A hand-packed batch for `header`'s pipeline: the envelope
    /// `encode_batch` writes, then each report's `(index, value, sign)`
    /// fields and an all-zero set.
    fn packed(header: &StreamHeader, reports: &[(u64, u64, bool)]) -> Vec<u8> {
        let l = layout_of(header);
        let mut w = Writer::default();
        Client::from_header(header)
            .unwrap()
            .encode_batch(&[], 0, 0, &mut w);
        let mut out = Bits::new(&mut w);
        for &(index, value, sign) in reports {
            if l.index == 64 {
                out.put(index, 64);
                out.put(value, l.value);
            } else {
                out.put(l.join(index, value, sign), l.fixed());
            }
            for _ in 0..l.set.div_ceil(64) {
                out.put(0, l.set.min(64));
            }
        }
        out.finish();
        let mut bytes = w.into_bytes();
        bytes[10..14].copy_from_slice(&(reports.len() as u32).to_le_bytes());
        bytes
    }

    #[test]
    fn layout_widths_follow_the_spec_table() {
        let at = |p, d, k, h, w| layout(p, d, k, h, w).bits();
        assert_eq!(at(Protocol::MargPs, 8, 2, 0, 0), 7); // ⌈lg 28⌉ + 2
        assert_eq!(at(Protocol::InpHt, 16, 3, 0, 0), 11); // ⌈lg 696⌉ + 1
        assert_eq!(at(Protocol::InpRr, 8, 0, 0, 0), 256);
        assert_eq!(at(Protocol::MargRr, 8, 2, 0, 0), 5 + 4);
        assert_eq!(at(Protocol::MargHt, 8, 2, 0, 0), 5 + 2 + 1);
        assert_eq!(at(Protocol::InpPs, 8, 0, 0, 0), 8);
        assert_eq!(at(Protocol::InpEm, 8, 0, 0, 0), 8);
        // C(d, k) = 1 and T = 1 need no index bits at all.
        assert_eq!(at(Protocol::MargPs, 4, 4, 0, 0), 4);
        assert_eq!(at(Protocol::InpHt, 1, 1, 0, 0), 1);
        assert_eq!(at(Protocol::Olh, 8, 0, 0, 0), 72);
        assert_eq!(at(Protocol::Cms, 8, 0, 5, 256), 3 + 256);
        assert_eq!(at(Protocol::Hcms, 8, 0, 1, 256), 8 + 1);
    }

    #[test]
    fn batch_round_trips_against_the_typed_encoders_and_reuses_scratch() {
        use ldp_core::user_rng;
        for header in [
            mech(MechanismKind::InpRr, 6, 2),
            mech(MechanismKind::InpRr, 2, 2),
            mech(MechanismKind::MargRr, 8, 7),
            mech(MechanismKind::MargHt, 6, 2),
            oracle_header(Protocol::Cms, 6, 3, 100),
            oracle_header(Protocol::Olh, 6, 3, 16),
        ] {
            let client = Client::from_header(&header).unwrap();
            let rows: Vec<u64> = (0..17u64).map(|u| (u * 5) % (1 << header.d)).collect();
            let typed: Vec<PipelineReport> = rows
                .iter()
                .enumerate()
                .map(|(u, &row)| {
                    let rng = &mut user_rng(29, u as u64);
                    match client.encoder() {
                        Encoder::InpRr(m) => PipelineReport::InpRr(m.encode(row, rng)),
                        Encoder::MargRr(m) => PipelineReport::MargRr(m.encode(row, rng)),
                        Encoder::MargHt(m) => PipelineReport::MargHt(m.encode(row, rng)),
                        Encoder::Cms(o) => PipelineReport::Cms(Box::new(o.encode(row, rng))),
                        Encoder::Olh(o) => PipelineReport::Olh(o.encode(row, rng)),
                        _ => unreachable!(),
                    }
                })
                .collect();
            let payload = batch(&client, &rows, 29);
            let l = layout_of(&header);
            assert_eq!(
                payload.len() as u64,
                ENVELOPE_BYTES as u64 + l.body_bytes(17)
            );

            let mut scratch = Vec::new();
            let n = decode_report_batch_into(&payload, &mut scratch).unwrap();
            assert_eq!(&scratch[..n], &typed[..], "{header:?}");

            // A second decode into the same scratch refills slots in
            // place; a smaller batch leaves stale tail entries behind.
            let small = batch(&client, &rows[..3], 29);
            assert_eq!(decode_report_batch_into(&small, &mut scratch), Ok(3));
            assert_eq!(&scratch[..3], &typed[..3]);
            assert_eq!(scratch.len(), typed.len());
        }
    }

    #[test]
    fn batch_decode_rejects_corruption_without_panicking() {
        let header = mech(MechanismKind::MargPs, 6, 2);
        let client = Client::from_header(&header).unwrap();
        // 7 reports of 6 bits: 42 bits, so 6 pad bits in the last byte.
        let good = batch(&client, &[0, 1, 2, 3, 4, 5, 6], 7);
        let mut scratch = Vec::new();
        let bad = |bytes: &[u8]| {
            let mut scratch = Vec::new();
            decode_report_batch_into(bytes, &mut scratch).unwrap_err()
        };

        // Truncated anywhere: never a panic, always a batch error.
        for cut in 0..good.len() {
            let err = bad(&good[..cut]);
            assert!(
                err.starts_with("bad report batch frame"),
                "cut {cut}: {err}"
            );
        }
        let mut long = good.clone();
        long.push(0);
        assert!(bad(&long).contains("the body has"), "{}", bad(&long));

        // The count must match the body length, both ways, including the
        // overflow extreme. (A count of 8 would also fit these 6 bytes:
        // the count, not the length, says how many reports there are.)
        for claim in [5u32, 9, u32::MAX] {
            let mut forged = good.clone();
            forged[10..14].copy_from_slice(&claim.to_le_bytes());
            assert!(bad(&forged).contains("take"), "{claim}: {}", bad(&forged));
        }

        // Nonzero pad bits.
        let mut forged = good.clone();
        *forged.last_mut().unwrap() |= 0x80;
        assert!(bad(&forged).contains("pad bits"), "{}", bad(&forged));

        // A field the protocol does not use must be zero; the shape must
        // pass the header limits.
        let mut forged = good.clone();
        forged[5] = 3; // hashes, for a mechanism
        assert!(bad(&forged).contains("must zero"), "{}", bad(&forged));
        let mut forged = good.clone();
        forged[4] = 7; // k > d
        assert!(bad(&forged).contains("envelope shape"), "{}", bad(&forged));
        let mut forged = good.clone();
        forged[2] = 0x7E;
        assert!(
            bad(&forged).contains("unknown protocol"),
            "{}",
            bad(&forged)
        );

        // Older batch bodies and retired single-report frames name their
        // wire version; a future version is refused too.
        let mut forged = good.clone();
        forged[1] = 3;
        assert!(
            bad(&forged).contains("wire-v3 batch is older"),
            "{}",
            bad(&forged)
        );
        forged[1] = VERSION + 1;
        assert!(bad(&forged).contains(&format!("wire-v{} batch is newer", VERSION + 1)));
        let single = [tag::REPORT_MARG_PS, 1, 4, 0, 0, 0, 0, 0];
        assert!(
            bad(&single).contains("wire-v1 single-report frame"),
            "{}",
            bad(&single)
        );
        assert!(bad(&[]).contains("empty payload"));
        assert!(bad(&[tag::STREAM_HEADER, VERSION]).contains("not a report batch"));
        // Only the ten retired tags at wire v1–v3 name a single-report
        // frame: 0x2A was never a tag, and no single report is wire v9.
        for other in [
            [0x2A, 1, 4, 0],
            [0x2A, 200, 4, 0],
            [tag::REPORT_MARG_PS, 9, 4, 0],
        ] {
            let err = bad(&other);
            assert!(
                err.contains(&format!("tag {:#04x} is not a report batch", other[0])),
                "{err}"
            );
            assert!(!err.contains("single-report"), "{err}");
        }

        assert_eq!(decode_report_batch_into(&good, &mut scratch), Ok(7));
    }

    #[test]
    fn absorb_rejects_mixed_batches_whole() {
        let margps = mech(MechanismKind::MargPs, 6, 2);
        let olh = oracle_header(Protocol::Olh, 6, 3, 16);
        let mut reports = Vec::new();
        for header in [&margps, &olh] {
            let payload = batch(&Client::from_header(header).unwrap(), &[1], 3);
            let mut scratch = Vec::new();
            decode_report_batch_into(&payload, &mut scratch).unwrap();
            reports.extend(scratch);
        }
        let mut acc = PipelineAccumulator::empty(&margps).unwrap();
        let err = acc.absorb_batch(&reports).unwrap_err();
        assert!(err.contains("mixes protocols"), "{err}");
        assert!(err.contains("MargPS") && err.contains("OLH"), "{err}");
        assert_eq!(acc.report_count(), 0, "a mixed batch absorbs nothing");
    }

    #[test]
    fn absorb_frame_refuses_another_shape_naming_both() {
        let d8 = mech(MechanismKind::MargPs, 8, 2);
        let d6 = mech(MechanismKind::MargPs, 6, 2);
        let mut acc = PipelineAccumulator::empty(&d8).unwrap();
        let before = acc.to_bytes();
        let payload = batch(&Client::from_header(&d6).unwrap(), &[1, 2], 3);
        let err = acc.absorb_frame(&payload).unwrap_err();
        assert!(
            err.contains("MargPS d=6 k=2") && err.contains("MargPS d=8 k=2"),
            "{err}"
        );
        let payload = batch(
            &Client::from_header(&mech(MechanismKind::MargHt, 8, 2)).unwrap(),
            &[1],
            3,
        );
        let err = acc.absorb_frame(&payload).unwrap_err();
        assert!(
            err.contains("MargHT d=8 k=2") && err.contains("MargPS d=8 k=2"),
            "{err}"
        );
        assert_eq!(acc.to_bytes(), before, "a refused batch changes nothing");
    }

    #[test]
    fn range_checks_refuse_whole_batches_on_both_paths() {
        // Each case: a report whose index field has room for a value its
        // shape does not allow (a 4-bit marginal below C(6, 2) = 15, a
        // 5-bit InpHT coefficient below T = 21, …).
        let cases = [
            (
                mech(MechanismKind::MargPs, 6, 2),
                (15, 0, false),
                "MargPS marginal 15 is out of range (must be below 15)",
            ),
            (
                mech(MechanismKind::MargHt, 6, 2),
                (15, 0, true),
                "MargHT marginal 15 is out of range (must be below 15)",
            ),
            (
                mech(MechanismKind::MargRr, 6, 2),
                (15, 0, false),
                "MargRR marginal 15",
            ),
            (
                mech(MechanismKind::InpHt, 6, 2),
                (30, 0, true),
                "InpHT coefficient 30",
            ),
            (
                oracle_header(Protocol::Olh, 6, 3, 16),
                (7, 200, false),
                "OLH bucket 200",
            ),
            (
                oracle_header(Protocol::Cms, 6, 3, 16),
                (3, 0, false),
                "CMS row 3 is out of range (must be below 3)",
            ),
            (
                oracle_header(Protocol::Hcms, 6, 3, 16),
                (3, 0, true),
                "HCMS row 3",
            ),
        ];
        for (header, bad, want) in cases {
            let mut acc = PipelineAccumulator::empty(&header).unwrap();
            let good = (0, 1, true);

            let payload = packed(&header, &[good, bad]);
            let err = acc.absorb_frame(&payload).unwrap_err();
            assert!(err.contains(want) && err.contains("report 1"), "{err}");

            let mut reports = Vec::new();
            decode_report_batch_into(&payload, &mut reports).unwrap();
            let err = acc.absorb_batch(&reports).unwrap_err();
            assert!(err.contains(want) && err.contains("report 1"), "{err}");
            assert_eq!(
                acc.report_count(),
                0,
                "{want}: a refused batch absorbs nothing"
            );

            // The good report alone passes both paths.
            assert_eq!(acc.absorb_frame(&packed(&header, &[good])), Ok(1));
            acc.absorb_batch(&reports[..1]).unwrap();
            assert_eq!(acc.report_count(), 2);
        }

        // Large batches whose one bad report comes last, at sizes on both
        // sides of twice the number of packed-field values (2·2^7 = 256
        // for MargPS d=8 k=2; InpHT d=16 k=3 has 11-bit fields).
        let large = [
            (
                mech(MechanismKind::MargPs, 8, 2),
                255,
                (28, 3, false),
                "MargPS marginal 28 is out of range (must be below 28)",
            ),
            (
                mech(MechanismKind::MargPs, 8, 2),
                256,
                (31, 0, false),
                "MargPS marginal 31 is out of range (must be below 28)",
            ),
            (
                mech(MechanismKind::InpHt, 16, 3),
                4096,
                (700, 0, true),
                "InpHT coefficient 700 is out of range (must be below 696)",
            ),
            // 19 fixed bits: wider than the eight-report loads.
            (
                oracle_header(Protocol::Hcms, 6, 3, 1 << 16),
                20,
                (3, 9, true),
                "HCMS row 3 is out of range (must be below 3)",
            ),
        ];
        for (header, n, bad, want) in large {
            let mut acc = PipelineAccumulator::empty(&header).unwrap();
            acc.absorb_frame(&packed(&header, &[(1, 2, true); 3]))
                .unwrap();
            let before = acc.to_bytes();
            let mut fields: Vec<_> = (0..n - 1).map(|i| (i % 3, i % 4, i % 2 == 0)).collect();
            fields.push(bad);
            let payload = packed(&header, &fields);
            let last = format!("report {} of the batch", n - 1);

            let err = acc.absorb_frame(&payload).unwrap_err();
            assert!(err.contains(want) && err.contains(&last), "{err}");
            assert_eq!(acc.to_bytes(), before, "{want}: state changed");

            let mut reports = Vec::new();
            decode_report_batch_into(&payload, &mut reports).unwrap();
            let err = acc.absorb_batch(&reports).unwrap_err();
            assert!(err.contains(want) && err.contains(&last), "{err}");
            assert_eq!(acc.to_bytes(), before, "{want}: state changed");
        }

        // Values no v4 field has room for, so only a caller building
        // `PipelineReport`s itself can hand them to `absorb_batch`.
        let hand_built = [
            (
                mech(MechanismKind::InpPs, 6, 2),
                PipelineReport::InpPs(63),
                PipelineReport::InpPs(64),
                "InpPS row 64 is out of range (must be below 64)",
            ),
            (
                mech(MechanismKind::InpEm, 6, 2),
                PipelineReport::InpEm(0),
                PipelineReport::InpEm(64),
                "InpEM row 64 is out of range (must be below 64)",
            ),
            (
                oracle_header(Protocol::Cms, 6, 3, 16),
                PipelineReport::Cms(Box::new(CmsReport {
                    row: 0,
                    words: vec![1 << 1],
                })),
                PipelineReport::Cms(Box::new(CmsReport {
                    row: 0,
                    words: vec![1 << 1 | 1 << 16 | 1 << 20],
                })),
                "CMS bucket 16 is out of range (must be below 16)",
            ),
            (
                oracle_header(Protocol::Hcms, 6, 3, 16),
                PipelineReport::Hcms(HcmsReport {
                    row: 0,
                    coefficient: 1,
                    sign_positive: true,
                }),
                PipelineReport::Hcms(HcmsReport {
                    row: 0,
                    coefficient: 16,
                    sign_positive: false,
                }),
                "HCMS coefficient 16 is out of range (must be below 16)",
            ),
        ];
        for (header, good, bad, want) in hand_built {
            let mut acc = PipelineAccumulator::empty(&header).unwrap();
            let before = acc.to_bytes();
            let err = acc.absorb_batch(&[good.clone(), bad]).unwrap_err();
            assert!(err.contains(want) && err.contains("report 1"), "{err}");
            assert_eq!(
                acc.to_bytes(),
                before,
                "{want}: a refused batch absorbs nothing"
            );

            acc.absorb_batch(&[good]).unwrap();
            assert_eq!(acc.report_count(), 1);
        }
    }

    #[test]
    fn set_bits_past_the_width_count_nothing_on_absorb_batch() {
        // Bits no wire report can carry, so only a caller building
        // `PipelineReport`s itself can hand them over: past InpRR's
        // 2^6 = 64 cells (a second word) and past a MargRR k=2 marginal's
        // four cells (bits 4 and 63 of its one word).
        let cases = [
            (
                mech(MechanismKind::InpRr, 6, 2),
                PipelineReport::InpRr(vec![1 << 3 | 1 << 63, 1 | 1 << 40]),
                PipelineReport::InpRr(vec![1 << 3 | 1 << 63]),
            ),
            (
                mech(MechanismKind::MargRr, 6, 2),
                PipelineReport::MargRr(MargRrReport {
                    marginal: 14,
                    words: vec![1 << 2 | 1 << 4 | 1 << 63, 1],
                }),
                PipelineReport::MargRr(MargRrReport {
                    marginal: 14,
                    words: vec![1 << 2],
                }),
            ),
        ];
        for (header, stray, clean) in cases {
            let mut with_stray = PipelineAccumulator::empty(&header).unwrap();
            with_stray.absorb_batch(&[stray.clone(), stray]).unwrap();
            let mut without = PipelineAccumulator::empty(&header).unwrap();
            without.absorb_batch(&[clean.clone(), clean]).unwrap();
            assert_eq!(with_stray.report_count(), 2);
            assert_eq!(with_stray.to_bytes(), without.to_bytes(), "{header:?}");
        }
    }

    #[test]
    fn from_state_refuses_an_inprr_state_of_another_dimension() {
        let d8 = mech(MechanismKind::InpRr, 8, 2);
        let d6 = mech(MechanismKind::InpRr, 6, 2);
        let err = PipelineAccumulator::from_state(&d8, &state(&d6, 40)).unwrap_err();
        assert_eq!(err, "snapshot state does not match header: InpRR d differs");
    }

    #[test]
    fn from_state_refuses_a_margps_state_of_another_dimension() {
        let d8 = mech(MechanismKind::MargPs, 8, 2);
        let d6 = mech(MechanismKind::MargPs, 6, 2);
        let err = PipelineAccumulator::from_state(&d8, &state(&d6, 40)).unwrap_err();
        assert_eq!(
            err,
            "snapshot state does not match header: MargPS d differs"
        );

        // Nor may two same-protocol states of different shapes merge.
        let mut big = PipelineAccumulator::from_state(&d8, &state(&d8, 40)).unwrap();
        let small = PipelineAccumulator::from_state(&d6, &state(&d6, 40)).unwrap();
        let before = big.to_bytes();
        assert!(big.merge(small).is_err());
        assert_eq!(big.to_bytes(), before, "a refused merge changes nothing");
    }

    #[test]
    fn from_state_checks_k_and_sketch_shape() {
        let k2 = mech(MechanismKind::InpHt, 6, 2);
        let k3 = mech(MechanismKind::InpHt, 6, 3);
        let err = PipelineAccumulator::from_state(&k3, &state(&k2, 30)).unwrap_err();
        assert!(err.ends_with("InpHT k differs"), "{err}");

        let narrow = oracle_header(Protocol::Hcms, 6, 3, 16);
        let wide = oracle_header(Protocol::Hcms, 6, 3, 32);
        let err = PipelineAccumulator::from_state(&wide, &state(&narrow, 30)).unwrap_err();
        assert!(err.ends_with("HCMS width differs"), "{err}");

        // Fields a state does not depend on (InpRR's k) are not compared.
        let k3_rr = mech(MechanismKind::InpRr, 6, 3);
        let k2_rr = mech(MechanismKind::InpRr, 6, 2);
        assert!(PipelineAccumulator::from_state(&k3_rr, &state(&k2_rr, 30)).is_ok());

        // A state of another protocol names both tags.
        let ps = mech(MechanismKind::MargPs, 6, 2);
        let err = PipelineAccumulator::from_state(&k2, &state(&ps, 30)).unwrap_err();
        assert_eq!(
            err,
            "snapshot state does not match header: state tag 0x05 is not the header's 0x03"
        );
    }

    /// Accumulators of one shape built under `a` and `b`, each holding a
    /// state of 40 reports.
    fn built(a: &StreamHeader, b: &StreamHeader) -> (PipelineAccumulator, PipelineAccumulator) {
        (
            PipelineAccumulator::from_state(a, &state(a, 40)).unwrap(),
            PipelineAccumulator::from_state(b, &state(b, 40)).unwrap(),
        )
    }

    #[test]
    fn merge_refuses_another_eps_by_name() {
        let low = StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1);
        let high = StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 3.0);
        let (mut acc, other) = built(&low, &high);
        let before = acc.to_bytes();
        let err = acc.merge(other).unwrap_err();
        assert_eq!(
            err,
            "refusing to merge partial aggregates of different pipelines: \
             eps 3 differs from the accumulator's 1.1"
        );
        assert_eq!(acc.to_bytes(), before, "a refused merge changes nothing");

        // The same ε merges.
        let (mut acc, other) = built(&low, &low);
        acc.merge(other).unwrap();
        assert_eq!(acc.report_count(), 80);
    }

    #[test]
    fn merge_refuses_another_hash_family_by_name() {
        let family = |family_seed| {
            let sketch = SketchShape {
                hashes: 3,
                width: 64,
                family_seed,
            };
            header_for(Protocol::Cms, 6, 1, 1.1, sketch)
        };
        let (mut acc, other) = built(&family(1), &family(2));
        let before = acc.to_bytes();
        let err = acc.merge(other).unwrap_err();
        assert_eq!(
            err,
            "refusing to merge partial aggregates of different pipelines: \
             family_seed 2 differs from the accumulator's 1"
        );
        assert_eq!(acc.to_bytes(), before, "a refused merge changes nothing");
    }

    /// A valid header of every protocol: d=6, k=2 (1 for the oracles),
    /// ε=1.1, and a 3×16 sketch of family 9 for the oracles.
    fn every_protocol() -> impl Iterator<Item = StreamHeader> {
        let sketch = SketchShape {
            hashes: 3,
            width: 16,
            family_seed: 9,
        };
        Protocol::ALL
            .into_iter()
            .map(move |protocol| header_for(protocol, 6, 2, 1.1, sketch))
    }

    #[test]
    fn merge_refuses_a_header_that_differs_in_any_one_field() {
        for base in every_protocol() {
            let name = named(&base).name();
            let other_protocol = Protocol::ALL
                .into_iter()
                .map(|p| StreamHeader {
                    protocol: p.wire_tag(),
                    ..base
                })
                .find(|h| h.protocol != base.protocol && Client::from_header(h).is_ok())
                .unwrap();
            let variants = [
                ("protocol", other_protocol),
                ("d", StreamHeader { d: 5, ..base }),
                ("k", StreamHeader { k: 3, ..base }),
                ("eps", StreamHeader { eps: 2.0, ..base }),
                (
                    "hashes",
                    StreamHeader {
                        hashes: base.hashes + 1,
                        ..base
                    },
                ),
                ("width", StreamHeader { width: 32, ..base }),
                (
                    "family_seed",
                    StreamHeader {
                        family_seed: 10,
                        ..base
                    },
                ),
            ];
            for (field, changed) in variants {
                assert!(Client::from_header(&changed).is_ok(), "{name} {field}");
                let (mut acc, other) = built(&base, &changed);
                let before = acc.to_bytes();
                let err = acc.merge(other).unwrap_err();
                assert!(
                    err.starts_with(&format!(
                        "refusing to merge partial aggregates of different pipelines: {field} "
                    )),
                    "{name} {field}: {err}"
                );
                assert_eq!(acc.to_bytes(), before, "{name} {field}: state changed");
            }
            let (mut acc, other) = built(&base, &base);
            acc.merge(other).unwrap();
            assert_eq!(acc.report_count(), 80, "{name}");
        }
    }

    #[test]
    fn the_batch_envelope_comes_from_the_header() {
        for base in every_protocol() {
            let protocol = named(&base);
            let (uses_k, sketch) = fields_used(&base);
            // Every field the protocol ignores changed at once.
            let mut ignored = base;
            if !uses_k {
                ignored.k = if base.k == 5 { 1 } else { 5 };
            }
            if !sketch {
                (ignored.hashes, ignored.width) = (base.hashes ^ 3, base.width ^ 64);
                ignored.family_seed = base.family_seed ^ 7;
            }
            let rows: Vec<u64> = (0..40).map(|u| u % 32).collect();
            let frame = batch(&Client::from_header(&base).unwrap(), &rows, 5);
            let twin = batch(&Client::from_header(&ignored).unwrap(), &rows, 5);
            assert_eq!(frame, twin, "{}", protocol.name());
            let [k, hashes, w0, w1, w2, w3] = frame[4..10] else {
                unreachable!()
            };
            assert_eq!(uses_k, k != 0, "{}", protocol.name());
            assert_eq!(sketch, hashes != 0, "{}", protocol.name());
            assert_eq!(sketch, [w0, w1, w2, w3] != [0; 4], "{}", protocol.name());
            for header in [&base, &ignored] {
                let mut acc = PipelineAccumulator::empty(header).unwrap();
                assert_eq!(acc.absorb_frame(&frame), Ok(40), "{}", protocol.name());
            }

            // A batch that differs in one field the protocol uses is
            // refused, naming both envelopes, and absorbs nothing.
            let mut used = vec![StreamHeader { d: 5, ..base }];
            if uses_k {
                used.push(StreamHeader { k: 3, ..base });
            }
            if sketch {
                used.push(StreamHeader { width: 32, ..base });
            }
            let mut acc = PipelineAccumulator::empty(&base).unwrap();
            acc.absorb_frame(&frame).unwrap();
            let before = acc.to_bytes();
            for other in used {
                let payload = batch(&Client::from_header(&other).unwrap(), &rows, 5);
                let err = acc.absorb_frame(&payload).unwrap_err();
                assert_eq!(
                    err,
                    format!(
                        "bad report batch frame: a {} batch cannot be absorbed by a {} accumulator",
                        describe(&envelope(&other)),
                        describe(&envelope(&base))
                    )
                );
                assert_eq!(acc.to_bytes(), before, "{}: state changed", protocol.name());
            }
        }
        let margps = mech(MechanismKind::MargPs, 6, 2);
        assert_eq!(describe(&envelope(&margps)), "MargPS d=6 k=2");
        let cms = oracle_header(Protocol::Cms, 6, 3, 16);
        assert_eq!(describe(&envelope(&cms)), "CMS d=6 hashes×width=3×16");
    }

    #[test]
    fn from_header_refuses_a_bad_eps_and_a_zero_k() {
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for base in every_protocol() {
                let header = StreamHeader { eps, ..base };
                let err = Client::from_header(&header).unwrap_err();
                assert!(err.starts_with("header epsilon is out of range"), "{err}");
                assert!(PipelineAccumulator::empty(&header).is_err());
            }
        }
        for base in every_protocol() {
            let header = StreamHeader { k: 0, ..base };
            assert!(Client::from_header(&header).is_err(), "{header:?}");
        }
        let err = Client::from_header(&mech(MechanismKind::InpRr, 6, 0)).unwrap_err();
        assert_eq!(err, "header marginal order is out of range: d=6 k=0 ε=1.1");
    }
}
