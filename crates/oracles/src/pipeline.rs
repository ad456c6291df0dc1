//! The one protocol table: how every process that speaks the framed
//! pipeline — the `ldp-cli` subcommands, the `ldp_server` aggregation
//! server, and the repo benchmark — reaches the seven marginal
//! mechanisms and the three frequency oracles, keyed by the
//! [`StreamHeader`] that travels as frame 0 of every stream and
//! snapshot.
//!
//! Three flat enums carry one variant per protocol: [`Client`] writes
//! report bytes, [`PipelineReport`] is what those bytes decode into, and
//! [`PipelineAccumulator`] absorbs, merges, serializes and finalizes
//! them. Every operation is a single `match` over the ten protocols, so
//! each protocol has exactly one encode kernel ([`Client::encode_into`]),
//! one decode kernel (the arm of [`PipelineReport::decode_into`]'s
//! match), one range check (its aggregator's `check`) and one absorb
//! kernel (its aggregator's `absorb`; `InpEM` alone keeps a
//! group-by-value batch kernel). The single-report forms are batches of
//! one.
//!
//! Batch frames reach the absorb kernels two ways.
//! [`PipelineAccumulator::absorb_frame`] — the collector's path —
//! validates a whole `REPORT_BATCH` payload and then absorbs straight
//! from its bytes. [`decode_report_batch_into`] followed by
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
    Olh, OlhAggregator, OlhReport, OracleKind,
};
use ldp_core::frame::StreamHeader;
use ldp_core::wire::{tag, Reader, WireError, Writer, MIN_VERSION, VERSION};
use ldp_core::{
    user_rng, Accumulator, Estimate, InpEm, InpEmAggregator, InpHt, InpHtAggregator, InpHtReport,
    InpPs, InpPsAggregator, InpRr, InpRrAggregator, MargHt, MargHtAggregator, MargHtReport, MargPs,
    MargPsAggregator, MargPsReport, MargRr, MargRrAggregator, MargRrReport, MechanismKind,
};
use rand::Rng;
use std::fmt;

/// A protocol named on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// One of the seven marginal mechanisms.
    Mechanism(MechanismKind),
    /// One of the three frequency oracles.
    Oracle(OracleKind),
}

impl Protocol {
    /// Parse a command-line protocol name (case-insensitive).
    pub fn parse(name: &str) -> Result<Protocol, String> {
        let lower = name.to_ascii_lowercase();
        for kind in MechanismKind::ALL {
            if kind.name().to_ascii_lowercase() == lower {
                return Ok(Protocol::Mechanism(kind));
            }
        }
        for kind in OracleKind::ALL {
            if kind.name().to_ascii_lowercase() == lower {
                return Ok(Protocol::Oracle(kind));
            }
        }
        Err(format!(
            "unknown protocol {name:?}; expected one of {}",
            Protocol::names().join(", ")
        ))
    }

    /// Every accepted protocol name, in display form.
    pub fn names() -> Vec<&'static str> {
        MechanismKind::ALL
            .iter()
            .map(|k| k.name())
            .chain(OracleKind::ALL.iter().map(|k| k.name()))
            .collect()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Mechanism(k) => k.name(),
            Protocol::Oracle(k) => k.name(),
        }
    }

    /// The accumulator type tag naming this protocol in stream headers
    /// and serialized state (`StreamHeader::protocol`).
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        match self {
            Protocol::Mechanism(k) => k.wire_tag(),
            Protocol::Oracle(k) => k.wire_tag(),
        }
    }

    /// The protocol a header names, if its tag is known.
    #[must_use]
    pub fn from_header(header: &StreamHeader) -> Option<Protocol> {
        if let Some(kind) = header.mechanism_kind() {
            return Some(Protocol::Mechanism(kind));
        }
        OracleKind::from_wire_tag(header.protocol).map(Protocol::Oracle)
    }
}

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
    match protocol {
        Protocol::Mechanism(kind) => StreamHeader::mechanism(kind, d, k, eps),
        Protocol::Oracle(kind) => StreamHeader::oracle(
            kind.wire_tag(),
            d,
            eps,
            sketch.hashes,
            sketch.width,
            sketch.family_seed,
        ),
    }
}

/// Reject parameter combinations the protocol constructors would panic
/// on, with a message naming the offending flag/field, and return the
/// protocol the header names. Applied to headers from the command line
/// *and* from incoming streams, so a corrupt or hostile header degrades
/// to an error instead of crashing the collector process.
fn validate_header(header: &StreamHeader) -> Result<Protocol, String> {
    let protocol = Protocol::from_header(header)
        .ok_or_else(|| format!("header names unknown protocol tag {:#04x}", header.protocol))?;
    let d = header.d;
    match protocol {
        Protocol::Mechanism(MechanismKind::InpRr) if !(1..=24).contains(&d) => Err(format!(
            "InpRR materializes 2^d cells; need d ≤ 24, got {d}"
        )),
        Protocol::Mechanism(kind @ (MechanismKind::InpPs | MechanismKind::InpEm))
            if !(1..=26).contains(&d) =>
        {
            Err(format!(
                "{} materializes 2^d cells; need d ≤ 26, got {d}",
                kind.name()
            ))
        }
        Protocol::Mechanism(
            kind @ (MechanismKind::MargRr | MechanismKind::MargPs | MechanismKind::MargHt),
        ) if header.k > 16 => Err(format!(
            "{} materializes 2^k marginal tables; need k ≤ 16, got {}",
            kind.name(),
            header.k
        )),
        Protocol::Oracle(OracleKind::Olh) if !(1..=40).contains(&d) => {
            Err(format!("OLH needs d ≤ 40, got {d}"))
        }
        // g = ⌈e^ε⌉ + 1 must fit the u8 bucket in OlhReport.
        Protocol::Oracle(OracleKind::Olh) if header.eps > 255f64.ln() => Err(format!(
            "OLH buckets are reported as one byte; need eps ≤ ln(255) ≈ 5.54, got {}",
            header.eps
        )),
        Protocol::Oracle(OracleKind::Cms | OracleKind::Hcms)
            if !(1..=255).contains(&header.hashes) =>
        {
            Err(format!(
                "sketch needs 1 ≤ hashes ≤ 255, got {}",
                header.hashes
            ))
        }
        Protocol::Oracle(OracleKind::Cms | OracleKind::Hcms)
            if header.width < 2 || header.width > 1 << 16 =>
        {
            Err(format!(
                "sketch needs 2 ≤ width ≤ 65536, got {}",
                header.width
            ))
        }
        Protocol::Oracle(OracleKind::Hcms) if !header.width.is_power_of_two() => Err(format!(
            "HCMS width must be a power of two, got {}",
            header.width
        )),
        _ => Ok(protocol),
    }
}

/// The client half of a pipeline: the built protocol a header
/// describes, one variant per protocol.
#[derive(Clone, Debug)]
pub enum Client {
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
        Ok(match validate_header(header)? {
            Protocol::Mechanism(MechanismKind::InpRr) => Self::InpRr(InpRr::new(d, eps)),
            Protocol::Mechanism(MechanismKind::InpPs) => Self::InpPs(InpPs::new(d, eps)),
            Protocol::Mechanism(MechanismKind::InpHt) => Self::InpHt(InpHt::new(d, k, eps)),
            Protocol::Mechanism(MechanismKind::MargRr) => Self::MargRr(MargRr::new(d, k, eps)),
            Protocol::Mechanism(MechanismKind::MargPs) => Self::MargPs(MargPs::new(d, k, eps)),
            Protocol::Mechanism(MechanismKind::MargHt) => Self::MargHt(MargHt::new(d, k, eps)),
            Protocol::Mechanism(MechanismKind::InpEm) => Self::InpEm(InpEm::new(d, eps)),
            Protocol::Oracle(OracleKind::Olh) => Self::Olh(Olh::new(d, eps)),
            Protocol::Oracle(OracleKind::Cms) => Self::Cms(Cms::new(d, eps, hashes, width, family)),
            Protocol::Oracle(OracleKind::Hcms) => {
                Self::Hcms(HadamardCms::new(d, eps, hashes, width, family))
            }
        })
    }

    /// Which protocol this client speaks.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        match self {
            Self::InpRr(_) => Protocol::Mechanism(MechanismKind::InpRr),
            Self::InpPs(_) => Protocol::Mechanism(MechanismKind::InpPs),
            Self::InpHt(_) => Protocol::Mechanism(MechanismKind::InpHt),
            Self::MargRr(_) => Protocol::Mechanism(MechanismKind::MargRr),
            Self::MargPs(_) => Protocol::Mechanism(MechanismKind::MargPs),
            Self::MargHt(_) => Protocol::Mechanism(MechanismKind::MargHt),
            Self::InpEm(_) => Protocol::Mechanism(MechanismKind::InpEm),
            Self::Olh(_) => Protocol::Oracle(OracleKind::Olh),
            Self::Cms(_) => Protocol::Oracle(OracleKind::Cms),
            Self::Hcms(_) => Protocol::Oracle(OracleKind::Hcms),
        }
    }

    /// The encode kernels: write one user's report for `row` at the
    /// writer's current position, consuming that user's private
    /// randomness. This is the only row→bytes path; the report layouts
    /// are `docs/WIRE_FORMAT.md` §5. The variable-size reports stream
    /// their positions straight into the writer and back-patch the count
    /// prefix, so nothing is allocated per report.
    pub fn encode_into<R: Rng + ?Sized>(&self, row: u64, rng: &mut R, w: &mut Writer) {
        match self {
            Self::InpRr(m) => {
                w.put_tag(tag::REPORT_INP_RR);
                let prefix = w.len();
                w.put_u32(0);
                let mut count = 0u32;
                m.perturbed_ones(row, rng, |cell| {
                    w.put_u32(cell);
                    count = count.saturating_add(1);
                });
                w.patch_u32(prefix, count);
            }
            Self::InpPs(m) => {
                w.put_tag(tag::REPORT_INP_PS);
                w.put_u64(m.encode(row, rng));
            }
            Self::InpHt(m) => {
                let r = m.encode(row, rng);
                w.put_tag(tag::REPORT_INP_HT);
                w.put_u32(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
            }
            Self::MargRr(m) => {
                let (marginal, cell) = m.sample_marginal(row, rng);
                w.put_tag(tag::REPORT_MARG_RR);
                w.put_u32(marginal);
                let prefix = w.len();
                w.put_u32(0);
                let mut count = 0u32;
                m.perturb_table(cell, rng, |c| {
                    w.put_u16(c);
                    count = count.saturating_add(1);
                });
                w.patch_u32(prefix, count);
            }
            Self::MargPs(m) => {
                let r = m.encode(row, rng);
                w.put_tag(tag::REPORT_MARG_PS);
                w.put_u32(r.marginal);
                w.put_u16(r.cell);
            }
            Self::MargHt(m) => {
                let r = m.encode(row, rng);
                w.put_tag(tag::REPORT_MARG_HT);
                w.put_u32(r.marginal);
                w.put_u16(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
            }
            Self::InpEm(m) => {
                w.put_tag(tag::REPORT_INP_EM);
                w.put_u64(m.encode(row, rng));
            }
            Self::Olh(o) => {
                let r = o.encode(row, rng);
                w.put_tag(tag::REPORT_OLH);
                w.put_u64(r.seed);
                w.put_u8(r.bucket);
            }
            Self::Cms(o) => {
                let (sketch_row, bucket) = o.sample_row(row, rng);
                w.put_tag(tag::REPORT_CMS);
                w.put_u8(sketch_row);
                let prefix = w.len();
                w.put_u32(0);
                let mut count = 0u32;
                o.perturb_row(bucket, rng, |b| {
                    w.put_u16(b);
                    count = count.saturating_add(1);
                });
                w.patch_u32(prefix, count);
            }
            Self::Hcms(o) => {
                let r = o.encode(row, rng);
                w.put_tag(tag::REPORT_HCMS);
                w.put_u8(r.row);
                w.put_u16(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
            }
        }
    }

    /// Encode a batch of rows into `w` as one complete
    /// [`tag::REPORT_BATCH`] frame payload (the writer is reset first,
    /// keeping its allocation). Row `i` is encoded under
    /// `user_rng(seed, first_user + i)`, so chunking a population into
    /// batches of any size yields the same report bytes.
    pub fn encode_batch(&self, rows: &[u64], seed: u64, first_user: u64, w: &mut Writer) {
        w.reset_with_tag(tag::REPORT_BATCH);
        w.put_u32(u32::try_from(rows.len()).unwrap_or(u32::MAX));
        for (i, &row) in rows.iter().enumerate() {
            let mut rng = user_rng(seed, first_user.wrapping_add(i as u64));
            self.encode_into(row, &mut rng, w);
        }
    }

    /// Encode one user's record into a standalone report frame payload
    /// (the wire-v1 one-frame-per-report shape).
    pub fn encode_report<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> Vec<u8> {
        let mut w = Writer::default();
        self.encode_into(row, rng, &mut w);
        w.into_bytes()
    }

    /// A fresh, empty accumulator matching this client's configuration.
    #[must_use]
    pub fn accumulator(&self) -> PipelineAccumulator {
        match self {
            Self::InpRr(m) => PipelineAccumulator::InpRr(m.aggregator()),
            Self::InpPs(m) => PipelineAccumulator::InpPs(m.aggregator()),
            Self::InpHt(m) => PipelineAccumulator::InpHt(m.aggregator()),
            Self::MargRr(m) => PipelineAccumulator::MargRr(m.aggregator()),
            Self::MargPs(m) => PipelineAccumulator::MargPs(m.aggregator()),
            Self::MargHt(m) => PipelineAccumulator::MargHt(m.aggregator()),
            Self::InpEm(m) => PipelineAccumulator::InpEm(m.aggregator()),
            Self::Olh(o) => PipelineAccumulator::Olh(o.aggregator()),
            Self::Cms(o) => PipelineAccumulator::Cms(o.aggregator()),
            Self::Hcms(o) => PipelineAccumulator::Hcms(o.aggregator()),
        }
    }
}

/// One user's report, for any protocol — what a report frame payload
/// decodes into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineReport {
    /// InpRR (tag `0x21`): positions of the perturbed one-hot vector's
    /// 1-bits.
    InpRr(Vec<u32>),
    /// InpPS (tag `0x22`): the perturbed input index.
    InpPs(u64),
    /// InpHT (tag `0x23`): sampled Hadamard coefficient + sign.
    InpHt(InpHtReport),
    /// MargRR (tag `0x24`): sampled marginal + perturbed table.
    MargRr(MargRrReport),
    /// MargPS (tag `0x25`): sampled marginal + perturbed cell.
    MargPs(MargPsReport),
    /// MargHT (tag `0x26`): sampled marginal + coefficient sign.
    MargHt(MargHtReport),
    /// InpEM (tag `0x27`): the budget-split perturbed row.
    InpEm(u64),
    /// OLH (tag `0x33`): hash seed + reported bucket.
    Olh(OlhReport),
    /// CMS (tag `0x32`): sketch row + perturbed row positions. Boxed so
    /// the enum stays the size of the other position-list report.
    Cms(Box<CmsReport>),
    /// HCMS (tag `0x31`): sketch row + Hadamard coefficient sign.
    Hcms(HcmsReport),
}

/// Placeholder a decode slot holds while its previous buffer is moved
/// out; never absorbed.
const EMPTY_SLOT: PipelineReport = PipelineReport::InpPs(0);

/// A 0/1 sign byte as a flag; any other byte is invalid.
#[inline]
fn sign(byte: u8) -> Option<bool> {
    match byte {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Decode a 0/1 byte back into a sign flag.
fn get_sign(r: &mut Reader<'_>) -> Result<bool, WireError> {
    sign(r.get_u8()?).ok_or(WireError::Invalid("report sign flag"))
}

impl PipelineReport {
    /// Which protocol this report belongs to.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        match self {
            Self::InpRr(_) => Protocol::Mechanism(MechanismKind::InpRr),
            Self::InpPs(_) => Protocol::Mechanism(MechanismKind::InpPs),
            Self::InpHt(_) => Protocol::Mechanism(MechanismKind::InpHt),
            Self::MargRr(_) => Protocol::Mechanism(MechanismKind::MargRr),
            Self::MargPs(_) => Protocol::Mechanism(MechanismKind::MargPs),
            Self::MargHt(_) => Protocol::Mechanism(MechanismKind::MargHt),
            Self::InpEm(_) => Protocol::Mechanism(MechanismKind::InpEm),
            Self::Olh(_) => Protocol::Oracle(OracleKind::Olh),
            Self::Cms(_) => Protocol::Oracle(OracleKind::Cms),
            Self::Hcms(_) => Protocol::Oracle(OracleKind::Hcms),
        }
    }

    /// The decode kernels: read the report at the cursor, whose tag byte
    /// `t` the caller peeked, into `self`, leaving the cursor on the
    /// byte after it. A slot that already holds a report of the same protocol keeps
    /// its position buffer, so refilling a scratch of `InpRR`, `MargRR`
    /// or `CMS` reports allocates nothing once the buffers have grown.
    /// Returns `Ok(false)` when the tag names no report. On error the
    /// cursor and `self` are unspecified (but valid); neither must be
    /// used further.
    fn read_next(&mut self, t: u8, r: &mut Reader<'_>) -> Result<bool, WireError> {
        *self = match t {
            tag::REPORT_INP_RR => {
                r.expect_tag(t)?;
                let mut ones = match std::mem::replace(self, EMPTY_SLOT) {
                    Self::InpRr(ones) => ones,
                    _ => Vec::new(),
                };
                r.get_u32_vec_into(&mut ones)?;
                Self::InpRr(ones)
            }
            tag::REPORT_INP_PS => {
                r.expect_tag(t)?;
                Self::InpPs(r.get_u64()?)
            }
            tag::REPORT_INP_HT => {
                r.expect_tag(t)?;
                Self::InpHt(InpHtReport {
                    coefficient: r.get_u32()?,
                    sign_positive: get_sign(r)?,
                })
            }
            tag::REPORT_MARG_RR => {
                r.expect_tag(t)?;
                let mut ones = match std::mem::replace(self, EMPTY_SLOT) {
                    Self::MargRr(report) => report.ones,
                    _ => Vec::new(),
                };
                let marginal = r.get_u32()?;
                r.get_u16_vec_into(&mut ones)?;
                Self::MargRr(MargRrReport { marginal, ones })
            }
            tag::REPORT_MARG_PS => {
                r.expect_tag(t)?;
                Self::MargPs(MargPsReport {
                    marginal: r.get_u32()?,
                    cell: r.get_u16()?,
                })
            }
            tag::REPORT_MARG_HT => {
                r.expect_tag(t)?;
                Self::MargHt(MargHtReport {
                    marginal: r.get_u32()?,
                    coefficient: r.get_u16()?,
                    sign_positive: get_sign(r)?,
                })
            }
            tag::REPORT_INP_EM => {
                r.expect_tag(t)?;
                Self::InpEm(r.get_u64()?)
            }
            tag::REPORT_OLH => {
                r.expect_tag(t)?;
                Self::Olh(OlhReport {
                    seed: r.get_u64()?,
                    bucket: r.get_u8()?,
                })
            }
            tag::REPORT_CMS => {
                r.expect_tag(t)?;
                let mut report = match std::mem::replace(self, EMPTY_SLOT) {
                    Self::Cms(report) => report,
                    _ => Box::new(CmsReport {
                        row: 0,
                        ones: Vec::new(),
                    }),
                };
                report.row = r.get_u8()?;
                r.get_u16_vec_into(&mut report.ones)?;
                Self::Cms(report)
            }
            tag::REPORT_HCMS => {
                r.expect_tag(t)?;
                Self::Hcms(HcmsReport {
                    row: r.get_u8()?,
                    coefficient: r.get_u16()?,
                    sign_positive: get_sign(r)?,
                })
            }
            _ => return Ok(false),
        };
        Ok(true)
    }

    /// [`Self::read_next`] with the pipeline's error messages.
    fn decode_next_into(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        let Some(t) = r.peek() else {
            return Err("bad report frame: empty payload".to_string());
        };
        match self.read_next(t, r) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("bad report frame: unknown report tag {t:#04x}")),
            Err(e) => Err(format!("bad report frame: {e}")),
        }
    }

    /// Decode a report frame payload into `self`, reusing any heap
    /// capacity the current value already owns — the zero-allocation
    /// decode path of the batched ingest scratch. Accepts and rejects
    /// exactly what [`Self::from_bytes`] does; on error `self`
    /// is left as some valid (but unspecified) report and must not be
    /// absorbed.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        self.decode_next_into(&mut r)?;
        r.finish().map_err(|e| format!("bad report frame: {e}"))
    }

    /// Decode a report frame payload (self-describing by its leading
    /// tag byte).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut report = EMPTY_SLOT;
        report.decode_into(bytes)?;
        Ok(report)
    }
}

/// The smallest encodable report blob: tag + version + a 4-byte field
/// (`REPORT_RR` with an empty ones-vector). Used to reject batch
/// frames whose count prefix claims more reports than the payload
/// could possibly hold, before any decode work happens.
const MIN_REPORT_BLOB_BYTES: u64 = 6;

/// Build one [`tag::REPORT_BATCH`] frame payload (wire v2) out of
/// pre-encoded report frame payloads: a `u32` count followed by the
/// blobs back to back, each self-describing via its own tag byte.
///
/// The count prefix saturates at `u32::MAX`, which no encodable batch
/// can reach: the 1 GiB frame cap holds fewer than `2^28` copies of
/// even the smallest report blob.
#[must_use]
pub fn encode_report_batch<B: AsRef<[u8]>>(reports: &[B]) -> Vec<u8> {
    let mut w = Writer::with_tag(tag::REPORT_BATCH);
    w.put_u32(u32::try_from(reports.len()).unwrap_or(u32::MAX));
    for report in reports {
        w.put_raw(report.as_ref());
    }
    w.into_bytes()
}

/// Open a [`tag::REPORT_BATCH`] frame payload: check the envelope tag
/// and version and that the count prefix could fit in the bytes that
/// follow it. Returns the count and a cursor on the first report.
fn open_batch(payload: &[u8]) -> Result<(usize, Reader<'_>), String> {
    let mut r = Reader::new(payload);
    r.expect_tag(tag::REPORT_BATCH)
        .map_err(|e| format!("bad report batch frame: {e}"))?;
    let count = r
        .get_u32()
        .map_err(|e| format!("bad report batch frame: {e}"))?;
    if u64::from(count) * MIN_REPORT_BLOB_BYTES > r.remaining() as u64 {
        return Err(format!(
            "bad report batch frame: count {count} cannot fit in {} payload bytes",
            r.remaining()
        ));
    }
    Ok((usize::try_from(count).unwrap_or(usize::MAX), r))
}

/// Decode a [`tag::REPORT_BATCH`] frame payload into a reusable
/// scratch vector, returning the number of reports decoded. Existing
/// `scratch` slots are refilled in place (reusing their heap capacity)
/// and the vector grows only when the batch is larger than any seen
/// before; entries past the returned count are stale leftovers that
/// must not be absorbed.
///
/// Rejects, without panicking: a non-batch tag, an unsupported
/// version, a count that cannot fit in the payload, a payload that
/// ends mid-report, and trailing bytes after the final report.
///
/// The serve and `ingest` paths absorb batch frames through
/// [`PipelineAccumulator::absorb_frame`] instead; this decoder and
/// [`PipelineAccumulator::absorb_batch`] are the reference it is
/// tested against.
pub fn decode_report_batch_into(
    payload: &[u8],
    scratch: &mut Vec<PipelineReport>,
) -> Result<usize, String> {
    let (want, mut r) = open_batch(payload)?;
    let mut filled = 0usize;
    while filled < want {
        if r.remaining() == 0 {
            return Err(format!(
                "bad report batch frame: payload ends after {filled} of {want} reports"
            ));
        }
        if filled == scratch.len() {
            scratch.push(EMPTY_SLOT);
        }
        if let Some(slot) = scratch.get_mut(filled) {
            slot.decode_next_into(&mut r)?;
        }
        filled += 1;
    }
    r.finish()
        .map_err(|e| format!("bad report batch frame: {e}"))?;
    Ok(filled)
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

/// Why the first pass of [`PipelineAccumulator::absorb_frame`] refused
/// a batch.
enum Refusal {
    /// The bytes are not a batch of this protocol's reports. The
    /// reference decoder names the first fault ([`malformed`]).
    Malformed,
    /// Report `.0` parses but fails its range check.
    OutOfRange(usize, WireError),
}

/// The reference path's verdict on a batch the frame kernels found
/// malformed: the decoder's error, or the protocol mix it decoded to.
/// Error path only; it allocates the reference scratch.
#[cold]
fn malformed(protocol: Protocol, payload: &[u8]) -> String {
    let mut scratch = Vec::new();
    let verdict = decode_report_batch_into(payload, &mut scratch)
        .and_then(|n| check_protocol(protocol, scratch.get(..n).unwrap_or_default()));
    match verdict {
        Err(message) => message,
        Ok(()) => format!(
            "bad report batch frame: not a batch of {} reports",
            protocol.name()
        ),
    }
}

/// Pass 1 of a fixed-size frame kernel: one length check (`count`
/// reports of `N` bytes, nothing after them), then every report's tag,
/// version and fields through `parse`, and its range through `check`.
/// Returns the reports for pass 2 to absorb.
#[inline]
fn fixed_reports<const N: usize, R>(
    body: &[u8],
    count: usize,
    report_tag: u8,
    parse: impl Fn(&[u8; N]) -> Option<R>,
    check: impl Fn(R) -> Result<(), WireError>,
) -> Result<&[[u8; N]], Refusal> {
    let (reports, rest) = body.as_chunks::<N>();
    if reports.len() != count || !rest.is_empty() {
        return Err(Refusal::Malformed);
    }
    for (i, bytes) in reports.iter().enumerate() {
        let prelude = matches!(
            bytes.first_chunk(),
            Some(&[t, v]) if t == report_tag && (MIN_VERSION..=VERSION).contains(&v)
        );
        let report = parse(bytes).filter(|_| prelude).ok_or(Refusal::Malformed)?;
        check(report).map_err(|e| Refusal::OutOfRange(i, e))?;
    }
    Ok(reports)
}

/// Both passes of a list-carrying frame kernel (InpRR, MargRR, CMS),
/// whose reports vary in length: pass 1 walks the `count` reports
/// checking each prelude, `read`'s fields and `check`'s range, and that
/// nothing trails them; pass 2 walks them again into `absorb`.
#[inline]
fn absorb_lists<'a, A, R>(
    acc: &mut A,
    body: Reader<'a>,
    count: usize,
    report_tag: u8,
    read: impl Fn(&mut Reader<'a>) -> Result<R, WireError>,
    check: impl Fn(&A, &R) -> Result<(), WireError>,
    absorb: impl Fn(&mut A, R),
) -> Result<(), Refusal> {
    let mut r = body.clone();
    for i in 0..count {
        r.expect_tag(report_tag).map_err(|_| Refusal::Malformed)?;
        let report = read(&mut r).map_err(|_| Refusal::Malformed)?;
        check(acc, &report).map_err(|e| Refusal::OutOfRange(i, e))?;
    }
    r.finish().map_err(|_| Refusal::Malformed)?;
    let mut r = body;
    for _ in 0..count {
        // Pass 1 walked these exact bytes, so every step succeeds.
        if r.expect_tag(report_tag).is_err() {
            break;
        }
        let Ok(report) = read(&mut r) else { break };
        absorb(acc, report);
    }
    Ok(())
}

/// A list of little-endian `u32`s, as raw bytes.
#[inline]
fn u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .as_chunks::<4>()
        .0
        .iter()
        .map(|b| u32::from_le_bytes(*b))
}

/// A list of little-endian `u16`s, as raw bytes.
#[inline]
fn u16s(bytes: &[u8]) -> impl Iterator<Item = u16> + '_ {
    bytes
        .as_chunks::<2>()
        .0
        .iter()
        .map(|b| u16::from_le_bytes(*b))
}

// The fixed report layouts of `docs/WIRE_FORMAT.md` §5, read off the
// bytes after the tag and version; `None` for a sign byte other than
// 0 or 1.

/// InpPS and InpEM: `u64` row.
#[inline]
fn row_report(b: &[u8; 10]) -> Option<u64> {
    let [_, _, row @ ..] = *b;
    Some(u64::from_le_bytes(row))
}

/// InpHT: `u32` coefficient, sign.
#[inline]
fn inp_ht_report(b: &[u8; 7]) -> Option<InpHtReport> {
    let [_, _, coefficient @ .., s] = *b;
    Some(InpHtReport {
        coefficient: u32::from_le_bytes(coefficient),
        sign_positive: sign(s)?,
    })
}

/// MargPS: `u32` marginal, `u16` cell.
#[inline]
fn marg_ps_report(b: &[u8; 8]) -> Option<MargPsReport> {
    let [_, _, m0, m1, m2, m3, cell @ ..] = *b;
    Some(MargPsReport {
        marginal: u32::from_le_bytes([m0, m1, m2, m3]),
        cell: u16::from_le_bytes(cell),
    })
}

/// MargHT: `u32` marginal, `u16` coefficient, sign.
#[inline]
fn marg_ht_report(b: &[u8; 9]) -> Option<MargHtReport> {
    let [_, _, m0, m1, m2, m3, c0, c1, s] = *b;
    Some(MargHtReport {
        marginal: u32::from_le_bytes([m0, m1, m2, m3]),
        coefficient: u16::from_le_bytes([c0, c1]),
        sign_positive: sign(s)?,
    })
}

/// OLH: `u64` seed, bucket byte.
#[inline]
fn olh_report(b: &[u8; 11]) -> Option<OlhReport> {
    let [_, _, seed @ .., bucket] = *b;
    Some(OlhReport {
        seed: u64::from_le_bytes(seed),
        bucket,
    })
}

/// HCMS: row byte, `u16` coefficient, sign.
#[inline]
fn hcms_report(b: &[u8; 6]) -> Option<HcmsReport> {
    let [_, _, row, c0, c1, s] = *b;
    Some(HcmsReport {
        row,
        coefficient: u16::from_le_bytes([c0, c1]),
        sign_positive: sign(s)?,
    })
}

/// The header fields a serialized state fixes: the protocol and `d`
/// always, `k` for the protocols whose tables depend on it, and
/// `hashes × width` for the two sketches. Two states merge only when
/// their shapes are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    protocol: Protocol,
    d: u32,
    k: Option<u32>,
    sketch: Option<(u32, u32)>,
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} d={}", self.protocol.name(), self.d)?;
        if let Some(k) = self.k {
            write!(f, " k={k}")?;
        }
        if let Some((hashes, width)) = self.sketch {
            write!(f, " hashes×width={hashes}×{width}")?;
        }
        Ok(())
    }
}

/// The server half: the aggregator for one protocol, one variant per
/// protocol.
#[derive(Clone, Debug)]
pub enum PipelineAccumulator {
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

    /// Rehydrate serialized accumulator state, verifying it belongs to
    /// the snapshot's header: same protocol tag, and the same `d`, `k`
    /// and sketch `hashes × width` wherever the state depends on them.
    pub fn from_state(header: &StreamHeader, state: &[u8]) -> Result<Self, String> {
        if state.first() != Some(&header.protocol) {
            return Err(format!(
                "snapshot state tag {:?} does not match header protocol {:#04x}",
                state.first(),
                header.protocol
            ));
        }
        let acc = match header.protocol {
            tag::INP_RR => InpRrAggregator::from_bytes(state).map(Self::InpRr),
            tag::INP_PS => InpPsAggregator::from_bytes(state).map(Self::InpPs),
            tag::INP_HT => InpHtAggregator::from_bytes(state).map(Self::InpHt),
            tag::MARG_RR => MargRrAggregator::from_bytes(state).map(Self::MargRr),
            tag::MARG_PS => MargPsAggregator::from_bytes(state).map(Self::MargPs),
            tag::MARG_HT => MargHtAggregator::from_bytes(state).map(Self::MargHt),
            tag::INP_EM => InpEmAggregator::from_bytes(state).map(Self::InpEm),
            tag::OLH => OlhAggregator::from_bytes(state).map(Self::Olh),
            tag::CMS => CmsAggregator::from_bytes(state).map(Self::Cms),
            tag::HCMS => HadamardCmsAggregator::from_bytes(state).map(Self::Hcms),
            t => return Err(format!("header names unknown protocol tag {t:#04x}")),
        }
        .map_err(|e| format!("bad snapshot state: {e}"))?;
        // The same fields read off the header, whose protocol the tag
        // check above has already matched.
        let shape = acc.shape();
        let want = Shape {
            d: header.d,
            k: shape.k.map(|_| header.k),
            sketch: shape.sketch.map(|_| (header.hashes, header.width)),
            ..shape
        };
        if shape != want {
            return Err(format!(
                "snapshot state shape {shape} does not match header shape {want}"
            ));
        }
        Ok(acc)
    }

    /// Which protocol this accumulator serves.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        match self {
            Self::InpRr(_) => Protocol::Mechanism(MechanismKind::InpRr),
            Self::InpPs(_) => Protocol::Mechanism(MechanismKind::InpPs),
            Self::InpHt(_) => Protocol::Mechanism(MechanismKind::InpHt),
            Self::MargRr(_) => Protocol::Mechanism(MechanismKind::MargRr),
            Self::MargPs(_) => Protocol::Mechanism(MechanismKind::MargPs),
            Self::MargHt(_) => Protocol::Mechanism(MechanismKind::MargHt),
            Self::InpEm(_) => Protocol::Mechanism(MechanismKind::InpEm),
            Self::Olh(_) => Protocol::Oracle(OracleKind::Olh),
            Self::Cms(_) => Protocol::Oracle(OracleKind::Cms),
            Self::Hcms(_) => Protocol::Oracle(OracleKind::Hcms),
        }
    }

    /// The header fields this state fixes (see [`Shape`]).
    fn shape(&self) -> Shape {
        let sketch = |rows: usize, width: usize| {
            Some((
                u32::try_from(rows).unwrap_or(u32::MAX),
                u32::try_from(width).unwrap_or(u32::MAX),
            ))
        };
        let (d, k, sketch) = match self {
            Self::InpRr(a) => (a.d(), None, None),
            Self::InpPs(a) => (a.d(), None, None),
            Self::InpHt(a) => (a.d(), Some(a.k()), None),
            Self::MargRr(a) => (a.d(), Some(a.k()), None),
            Self::MargPs(a) => (a.d(), Some(a.k()), None),
            Self::MargHt(a) => (a.d(), Some(a.k()), None),
            Self::InpEm(a) => (a.config().d(), None, None),
            Self::Olh(a) => (a.config().d(), None, None),
            Self::Cms(a) => (
                a.config().d(),
                None,
                sketch(a.config().rows(), a.config().width()),
            ),
            Self::Hcms(a) => (
                a.config().d(),
                None,
                sketch(a.config().rows(), a.config().width()),
            ),
        };
        Shape {
            protocol: self.protocol(),
            d,
            k,
            sketch,
        }
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
        match self {
            // InpRR and InpPS fold their positions into 2^d: no range.
            Self::InpRr(a) => absorb_each!(a, InpRr),
            Self::InpPs(a) => absorb_each!(a, InpPs),
            Self::InpHt(a) => {
                check_each!(InpHt, |r| a.check(*r));
                absorb_each!(a, InpHt);
            }
            Self::MargRr(a) => {
                check_each!(MargRr, |r| a.check(r.marginal));
                absorb_each!(a, MargRr);
            }
            Self::MargPs(a) => {
                check_each!(MargPs, |r| a.check(*r));
                absorb_each!(a, MargPs);
            }
            Self::MargHt(a) => {
                check_each!(MargHt, |r| a.check(*r));
                absorb_each!(a, MargHt);
            }
            Self::InpEm(a) => {
                check_each!(InpEm, |row| a.check(*row));
                a.absorb_batch_iter(reports.iter().filter_map(|r| match r {
                    PipelineReport::InpEm(row) => Some(*row),
                    _ => None,
                }));
            }
            Self::Olh(a) => {
                check_each!(Olh, |r| a.check(*r));
                absorb_each!(a, Olh);
            }
            Self::Cms(a) => {
                check_each!(Cms, |r| a.check(r.row, r.ones.iter().copied()));
                absorb_each!(a, Cms);
            }
            Self::Hcms(a) => {
                check_each!(Hcms, |r| a.check(*r));
                absorb_each!(a, Hcms);
            }
        }
        Ok(())
    }

    /// The frame kernels: absorb one [`tag::REPORT_BATCH`] frame payload
    /// straight from its bytes, returning the number of reports in it.
    ///
    /// Two passes, so a batch settles or fails as a unit. Pass 1
    /// validates the whole payload against this accumulator: the
    /// envelope's tag, version and count, and for every report its tag,
    /// version, fields and range check (the same aggregator `check`
    /// [`Self::absorb_batch`] applies), with no bytes missing or left
    /// over. Pass 2 absorbs straight from the bytes, with no
    /// [`PipelineReport`] in between: the seven fixed-size reports as
    /// `N`-byte chunks after one length check, the three list-carrying
    /// ones (InpRR, MargRR, CMS) by a second walk.
    ///
    /// Accepts exactly the payloads [`decode_report_batch_into`] followed
    /// by [`Self::absorb_batch`] accepts, leaving byte-identical state;
    /// on `Err` the state is untouched.
    pub fn absorb_frame(&mut self, payload: &[u8]) -> Result<usize, String> {
        let (count, body) = open_batch(payload)?;
        let protocol = self.protocol();
        self.absorb_body(count, body)
            .map_err(|refusal| match refusal {
                Refusal::Malformed => malformed(protocol, payload),
                Refusal::OutOfRange(i, e) => out_of_range(i, &e),
            })?;
        Ok(count)
    }

    /// [`Self::absorb_frame`] past the envelope: one kernel per protocol.
    fn absorb_body(&mut self, count: usize, body: Reader<'_>) -> Result<(), Refusal> {
        let bytes = body.clone().into_rest();
        match self {
            Self::InpRr(a) => absorb_lists(
                a,
                body,
                count,
                tag::REPORT_INP_RR,
                |r| r.get_list_bytes(4),
                |_, _| Ok(()),
                |a, ones| a.absorb_ones(u32s(ones)),
            )?,
            Self::InpPs(a) => {
                let reports =
                    fixed_reports(bytes, count, tag::REPORT_INP_PS, row_report, |_| Ok(()))?;
                for row in reports.iter().filter_map(row_report) {
                    a.absorb(row);
                }
            }
            Self::InpHt(a) => {
                let reports =
                    fixed_reports(bytes, count, tag::REPORT_INP_HT, inp_ht_report, |r| {
                        a.check(r)
                    })?;
                for r in reports.iter().filter_map(inp_ht_report) {
                    a.absorb(r);
                }
            }
            Self::MargRr(a) => absorb_lists(
                a,
                body,
                count,
                tag::REPORT_MARG_RR,
                |r| Ok((r.get_u32()?, r.get_list_bytes(2)?)),
                |a, &(marginal, _)| a.check(marginal),
                |a, (marginal, ones)| a.absorb_ones(marginal, u16s(ones)),
            )?,
            Self::MargPs(a) => {
                let reports =
                    fixed_reports(bytes, count, tag::REPORT_MARG_PS, marg_ps_report, |r| {
                        a.check(r)
                    })?;
                for r in reports.iter().filter_map(marg_ps_report) {
                    a.absorb(r);
                }
            }
            Self::MargHt(a) => {
                let reports =
                    fixed_reports(bytes, count, tag::REPORT_MARG_HT, marg_ht_report, |r| {
                        a.check(r)
                    })?;
                for r in reports.iter().filter_map(marg_ht_report) {
                    a.absorb(r);
                }
            }
            Self::InpEm(a) => {
                let reports = fixed_reports(bytes, count, tag::REPORT_INP_EM, row_report, |row| {
                    a.check(row)
                })?;
                a.absorb_batch_iter(reports.iter().filter_map(row_report));
            }
            Self::Olh(a) => {
                let reports =
                    fixed_reports(bytes, count, tag::REPORT_OLH, olh_report, |r| a.check(r))?;
                for r in reports.iter().filter_map(olh_report) {
                    a.absorb(r);
                }
            }
            Self::Cms(a) => absorb_lists(
                a,
                body,
                count,
                tag::REPORT_CMS,
                |r| Ok((r.get_u8()?, r.get_list_bytes(2)?)),
                |a, &(row, ones)| a.check(row, u16s(ones)),
                |a, (row, ones)| a.absorb_ones(row, u16s(ones)),
            )?,
            Self::Hcms(a) => {
                let reports =
                    fixed_reports(bytes, count, tag::REPORT_HCMS, hcms_report, |r| a.check(r))?;
                for r in reports.iter().filter_map(hcms_report) {
                    a.absorb(r);
                }
            }
        }
        Ok(())
    }

    /// Fold another partial aggregate of the same pipeline into this
    /// one. Refuses, leaving `self` untouched, when the two states'
    /// protocols or shapes differ.
    pub fn merge(&mut self, other: PipelineAccumulator) -> Result<(), String> {
        let (own, theirs) = (self.shape(), other.shape());
        let refuse = || format!("cannot merge a {theirs} snapshot into a {own} snapshot");
        if own != theirs {
            return Err(refuse());
        }
        match (self, other) {
            (Self::InpRr(a), Self::InpRr(b)) => a.merge(b),
            (Self::InpPs(a), Self::InpPs(b)) => a.merge(b),
            (Self::InpHt(a), Self::InpHt(b)) => a.merge(b),
            (Self::MargRr(a), Self::MargRr(b)) => a.merge(b),
            (Self::MargPs(a), Self::MargPs(b)) => a.merge(b),
            (Self::MargHt(a), Self::MargHt(b)) => a.merge(b),
            (Self::InpEm(a), Self::InpEm(b)) => a.merge(b),
            (Self::Olh(a), Self::Olh(b)) => a.merge(b),
            (Self::Cms(a), Self::Cms(b)) => a.merge(b),
            (Self::Hcms(a), Self::Hcms(b)) => a.merge(b),
            _ => return Err(refuse()),
        }
        Ok(())
    }

    /// Reports absorbed so far (summed across merges).
    pub fn report_count(&self) -> u64 {
        match self {
            Self::InpRr(a) => a.report_count(),
            Self::InpPs(a) => a.report_count(),
            Self::InpHt(a) => a.report_count(),
            Self::MargRr(a) => a.report_count(),
            Self::MargPs(a) => a.report_count(),
            Self::MargHt(a) => a.report_count(),
            Self::InpEm(a) => a.report_count(),
            Self::Olh(a) => a.report_count(),
            Self::Cms(a) => a.report_count(),
            Self::Hcms(a) => a.report_count(),
        }
    }

    /// Serialized state for the snapshot's state frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Self::InpRr(a) => a.to_bytes(),
            Self::InpPs(a) => a.to_bytes(),
            Self::InpHt(a) => a.to_bytes(),
            Self::MargRr(a) => a.to_bytes(),
            Self::MargPs(a) => a.to_bytes(),
            Self::MargHt(a) => a.to_bytes(),
            Self::InpEm(a) => a.to_bytes(),
            Self::Olh(a) => a.to_bytes(),
            Self::Cms(a) => a.to_bytes(),
            Self::Hcms(a) => a.to_bytes(),
        }
    }

    /// Finalize into the queryable estimate.
    pub fn finalize(self) -> PipelineEstimate {
        match self {
            Self::InpRr(a) => PipelineEstimate::Mechanism(Estimate::Full(a.finalize())),
            Self::InpPs(a) => PipelineEstimate::Mechanism(Estimate::Full(a.finalize())),
            Self::InpHt(a) => PipelineEstimate::Mechanism(Estimate::Hadamard(a.finalize())),
            Self::MargRr(a) => PipelineEstimate::Mechanism(Estimate::MarginalSet(a.finalize())),
            Self::MargPs(a) => PipelineEstimate::Mechanism(Estimate::MarginalSet(a.finalize())),
            Self::MargHt(a) => PipelineEstimate::Mechanism(Estimate::MarginalSet(a.finalize())),
            Self::InpEm(a) => PipelineEstimate::Mechanism(Estimate::Em(a.finalize())),
            Self::Olh(a) => PipelineEstimate::Oracle(Box::new(a.finalize())),
            Self::Cms(a) => PipelineEstimate::Oracle(Box::new(a.finalize())),
            Self::Hcms(a) => PipelineEstimate::Oracle(Box::new(a.finalize())),
        }
    }
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
    use rand::{rngs::StdRng, SeedableRng};

    fn oracle_header(kind: OracleKind, d: u32, hashes: u32, width: u32) -> StreamHeader {
        let sketch = SketchShape {
            hashes,
            width,
            family_seed: 9,
        };
        header_for(Protocol::Oracle(kind), d, 1, 1.1, sketch)
    }

    /// A state of `n` reports for `header`, through the table.
    fn state(header: &StreamHeader, n: u64) -> Vec<u8> {
        let client = Client::from_header(header).unwrap();
        let mut acc = client.accumulator();
        let mut rng = StdRng::seed_from_u64(n);
        for u in 0..n {
            let frame = client.encode_report(u % (1 << header.d), &mut rng);
            acc.absorb(&PipelineReport::from_bytes(&frame).unwrap())
                .unwrap();
        }
        acc.to_bytes()
    }

    #[test]
    fn report_decode_rejects_bad_tag_truncation_and_bad_sign() {
        let bad = |bytes: &[u8]| PipelineReport::from_bytes(bytes).unwrap_err();
        assert_eq!(bad(&[]), "bad report frame: empty payload");
        assert_eq!(bad(&[0x7E, 1]), "bad report frame: unknown report tag 0x7e");

        let header = StreamHeader::mechanism(MechanismKind::InpHt, 6, 2, 1.1);
        let client = Client::from_header(&header).unwrap();
        let full = client.encode_report(9, &mut StdRng::seed_from_u64(1));
        assert!(bad(&full[..full.len() - 1]).contains("truncated"));
        let mut bad_sign = full.clone();
        if let Some(sign) = bad_sign.last_mut() {
            *sign = 2;
        }
        assert!(bad(&bad_sign).contains("report sign flag"));
        let mut long = full;
        long.push(0);
        assert!(bad(&long).contains("trailing"));

        // A MargRR ones-list that claims more elements than the blob
        // holds fails before allocating.
        let mut w = Writer::with_tag(tag::REPORT_MARG_RR);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        assert!(bad(w.as_bytes()).contains("truncated"));
    }

    #[test]
    fn decode_slots_switch_protocols_and_reuse_buffers() {
        let mut rng = StdRng::seed_from_u64(3);
        let rr = Client::from_header(&StreamHeader::mechanism(MechanismKind::InpRr, 6, 2, 1.1))
            .unwrap()
            .encode_report(5, &mut rng);
        let ps = Client::from_header(&StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1))
            .unwrap()
            .encode_report(5, &mut rng);
        let mut slot = PipelineReport::from_bytes(&ps).unwrap();
        slot.decode_into(&rr).unwrap();
        assert_eq!(slot, PipelineReport::from_bytes(&rr).unwrap());
        slot.decode_into(&ps).unwrap();
        assert_eq!(slot, PipelineReport::from_bytes(&ps).unwrap());
    }

    #[test]
    fn batch_payload_round_trips_and_reuses_scratch() {
        let mut rng = StdRng::seed_from_u64(29);
        for header in [
            StreamHeader::mechanism(MechanismKind::InpRr, 6, 2, 1.1),
            oracle_header(OracleKind::Cms, 6, 3, 16),
        ] {
            let client = Client::from_header(&header).unwrap();
            let blobs: Vec<Vec<u8>> = (0..17u64)
                .map(|u| client.encode_report(u % 64, &mut rng))
                .collect();
            let reports: Vec<PipelineReport> = blobs
                .iter()
                .map(|b| PipelineReport::from_bytes(b).unwrap())
                .collect();
            let payload = encode_report_batch(&blobs);
            assert_eq!(payload.first(), Some(&tag::REPORT_BATCH));

            let mut scratch = Vec::new();
            let n = decode_report_batch_into(&payload, &mut scratch).unwrap();
            assert_eq!(n, reports.len());
            assert_eq!(&scratch[..n], &reports[..]);

            // A second decode into the same scratch refills slots in
            // place; a smaller batch leaves stale tail entries behind.
            let small = encode_report_batch(&blobs[..3]);
            let n = decode_report_batch_into(&small, &mut scratch).unwrap();
            assert_eq!(n, 3);
            assert_eq!(&scratch[..3], &reports[..3]);
            assert_eq!(scratch.len(), reports.len());
        }
    }

    #[test]
    fn batch_decode_rejects_corruption_without_panicking() {
        let mut rng = StdRng::seed_from_u64(7);
        let header = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1);
        let client = Client::from_header(&header).unwrap();
        let blobs: Vec<Vec<u8>> = (0..4u64)
            .map(|u| client.encode_report(u, &mut rng))
            .collect();
        let good = encode_report_batch(&blobs);
        let mut scratch = Vec::new();

        // Truncated anywhere inside the report region: never a panic,
        // always an error mentioning the batch or report frame.
        for cut in 0..good.len() - 1 {
            let err = decode_report_batch_into(&good[..cut], &mut scratch).unwrap_err();
            assert!(err.starts_with("bad report"), "cut {cut}: {err}");
        }

        // Count prefix claims more reports than the payload can hold,
        // including the overflow extreme near the frame cap.
        for claim in [5u32, u32::MAX] {
            let mut forged = good.clone();
            forged[2..6].copy_from_slice(&claim.to_le_bytes());
            let err = decode_report_batch_into(&forged, &mut scratch).unwrap_err();
            assert!(err.contains("bad report batch frame"), "{err}");
        }

        // Count prefix claims fewer reports: the leftover blobs are
        // trailing bytes, not silently dropped data.
        let mut forged = good.clone();
        forged[2..6].copy_from_slice(&3u32.to_le_bytes());
        let err = decode_report_batch_into(&forged, &mut scratch).unwrap_err();
        assert!(err.contains("trailing"), "{err}");

        // Wrong envelope tag and a future envelope version.
        let err = decode_report_batch_into(&blobs[0], &mut scratch).unwrap_err();
        assert!(err.contains("bad report batch frame"), "{err}");
        let mut forged = good.clone();
        forged[1] = ldp_core::wire::VERSION + 1;
        let err = decode_report_batch_into(&forged, &mut scratch).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn absorb_rejects_mixed_batches_whole() {
        let margps = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1);
        let olh = oracle_header(OracleKind::Olh, 6, 3, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let own = Client::from_header(&margps)
            .unwrap()
            .encode_report(1, &mut rng);
        let other = Client::from_header(&olh)
            .unwrap()
            .encode_report(1, &mut rng);
        let batch = [
            PipelineReport::from_bytes(&own).unwrap(),
            PipelineReport::from_bytes(&other).unwrap(),
        ];
        let mut acc = PipelineAccumulator::empty(&margps).unwrap();
        let err = acc.absorb_batch(&batch).unwrap_err();
        assert!(err.contains("mixes protocols"), "{err}");
        assert!(err.contains("MargPS") && err.contains("OLH"), "{err}");
        assert_eq!(acc.report_count(), 0, "a mixed batch absorbs nothing");
    }

    #[test]
    fn range_checks_refuse_whole_batches_on_both_paths() {
        let mech = |kind| StreamHeader::mechanism(kind, 6, 2, 1.1);
        let report = |t: u8, fields: &dyn Fn(&mut Writer)| {
            let mut w = Writer::default();
            w.put_tag(t);
            fields(&mut w);
            w.into_bytes()
        };
        let cases = [
            (
                mech(MechanismKind::MargPs),
                report(tag::REPORT_MARG_PS, &|w| {
                    w.put_u32(999);
                    w.put_u16(0);
                }),
                "MargPS marginal 999 is out of range (must be below 15)",
            ),
            (
                mech(MechanismKind::MargHt),
                report(tag::REPORT_MARG_HT, &|w| {
                    w.put_u32(15);
                    w.put_u16(0);
                    w.put_u8(1);
                }),
                "MargHT marginal 15 is out of range (must be below 15)",
            ),
            (
                mech(MechanismKind::MargRr),
                report(tag::REPORT_MARG_RR, &|w| {
                    w.put_u32(999);
                    w.put_u32(0);
                }),
                "MargRR marginal 999",
            ),
            (
                mech(MechanismKind::InpHt),
                report(tag::REPORT_INP_HT, &|w| {
                    w.put_u32(4000);
                    w.put_u8(1);
                }),
                "InpHT coefficient 4000",
            ),
            (
                mech(MechanismKind::InpEm),
                report(tag::REPORT_INP_EM, &|w| w.put_u64(64)),
                "InpEM row 64 is out of range (must be below 64)",
            ),
            (
                oracle_header(OracleKind::Olh, 6, 3, 16),
                report(tag::REPORT_OLH, &|w| {
                    w.put_u64(7);
                    w.put_u8(200);
                }),
                "OLH bucket 200",
            ),
            (
                oracle_header(OracleKind::Cms, 6, 3, 16),
                report(tag::REPORT_CMS, &|w| {
                    w.put_u8(3);
                    w.put_u32(0);
                }),
                "CMS row 3 is out of range (must be below 3)",
            ),
            (
                oracle_header(OracleKind::Cms, 6, 3, 16),
                report(tag::REPORT_CMS, &|w| {
                    w.put_u8(0);
                    w.put_u32(2);
                    w.put_u16(1);
                    w.put_u16(16);
                }),
                "CMS bucket 16 is out of range (must be below 16)",
            ),
            (
                oracle_header(OracleKind::Hcms, 6, 3, 16),
                report(tag::REPORT_HCMS, &|w| {
                    w.put_u8(3);
                    w.put_u16(0);
                    w.put_u8(1);
                }),
                "HCMS row 3",
            ),
            (
                oracle_header(OracleKind::Hcms, 6, 3, 16),
                report(tag::REPORT_HCMS, &|w| {
                    w.put_u8(0);
                    w.put_u16(16);
                    w.put_u8(0);
                }),
                "HCMS coefficient 16 is out of range (must be below 16)",
            ),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for (header, bad, want) in cases {
            let client = Client::from_header(&header).unwrap();
            let good = client.encode_report(3, &mut rng);
            let mut acc = client.accumulator();

            let payload = encode_report_batch(&[&good, &bad]);
            let err = acc.absorb_frame(&payload).unwrap_err();
            assert!(err.contains(want) && err.contains("report 1"), "{err}");

            let reports = [
                PipelineReport::from_bytes(&good).unwrap(),
                PipelineReport::from_bytes(&bad).unwrap(),
            ];
            let err = acc.absorb_batch(&reports).unwrap_err();
            assert!(err.contains(want) && err.contains("report 1"), "{err}");
            assert_eq!(
                acc.report_count(),
                0,
                "{want}: a refused batch absorbs nothing"
            );

            // The good report alone passes both paths.
            assert_eq!(acc.absorb_frame(&encode_report_batch(&[&good])), Ok(1));
            acc.absorb_batch(&reports[..1]).unwrap();
            assert_eq!(acc.report_count(), 2);
        }
    }

    #[test]
    fn from_state_refuses_an_inprr_state_of_another_dimension() {
        let d8 = StreamHeader::mechanism(MechanismKind::InpRr, 8, 2, 1.1);
        let d6 = StreamHeader::mechanism(MechanismKind::InpRr, 6, 2, 1.1);
        let err = PipelineAccumulator::from_state(&d8, &state(&d6, 40)).unwrap_err();
        assert!(err.contains("InpRR d=6"), "{err}");
        assert!(err.contains("InpRR d=8"), "{err}");
    }

    #[test]
    fn from_state_refuses_a_margps_state_of_another_dimension() {
        let d8 = StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1);
        let d6 = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1);
        let err = PipelineAccumulator::from_state(&d8, &state(&d6, 40)).unwrap_err();
        assert!(err.contains("MargPS d=6 k=2"), "{err}");
        assert!(err.contains("MargPS d=8 k=2"), "{err}");

        // Nor may two same-protocol states of different shapes merge.
        let mut big = PipelineAccumulator::from_state(&d8, &state(&d8, 40)).unwrap();
        let small = PipelineAccumulator::from_state(&d6, &state(&d6, 40)).unwrap();
        let before = big.to_bytes();
        assert!(big.merge(small).is_err());
        assert_eq!(big.to_bytes(), before, "a refused merge changes nothing");
    }

    #[test]
    fn from_state_checks_k_and_sketch_shape() {
        let k2 = StreamHeader::mechanism(MechanismKind::InpHt, 6, 2, 1.1);
        let k3 = StreamHeader::mechanism(MechanismKind::InpHt, 6, 3, 1.1);
        let err = PipelineAccumulator::from_state(&k3, &state(&k2, 30)).unwrap_err();
        assert!(err.contains("k=2") && err.contains("k=3"), "{err}");

        let narrow = oracle_header(OracleKind::Hcms, 6, 3, 16);
        let wide = oracle_header(OracleKind::Hcms, 6, 3, 32);
        let err = PipelineAccumulator::from_state(&wide, &state(&narrow, 30)).unwrap_err();
        assert!(err.contains("3×16") && err.contains("3×32"), "{err}");

        // Fields a state does not depend on (InpRR's k) are not compared.
        let k3_rr = StreamHeader::mechanism(MechanismKind::InpRr, 6, 3, 1.1);
        let k2_rr = StreamHeader::mechanism(MechanismKind::InpRr, 6, 2, 1.1);
        assert!(PipelineAccumulator::from_state(&k3_rr, &state(&k2_rr, 30)).is_ok());
    }
}
