//! Compact little-endian wire format for serialized accumulators.
//!
//! Every [`crate::Accumulator`] state starts with a one-byte type tag
//! (see [`tag`]) followed by a one-byte format version, then
//! type-specific fields written with [`Writer`] and read back with
//! [`Reader`]. Integers are fixed-width little-endian; floats are the
//! IEEE-754 bit pattern (`f64::to_bits`), so a decode/encode round trip
//! is exactly byte-identical — the property the partition-invariance
//! proptest in `tests/streaming.rs` checks.
//!
//! A state carries its protocol configuration (dimensions, perturbation
//! probabilities, hash coefficients) ahead of its counts. It is loaded
//! ([`crate::Accumulator::load`]) into an accumulator built from a known
//! configuration — on the wire, the stream header a snapshot travels
//! with — which refuses it unless each carried field matches its own
//! ([`Reader::expect_u32`], [`Reader::expect_u64`], [`Reader::expect_f64`],
//! [`Reader::expect_u64_slice`]).

/// Type tags identifying which accumulator a byte blob belongs to.
///
/// Tags are part of the wire format: never reuse or renumber them.
pub mod tag {
    /// [`crate::InpRrAggregator`].
    pub const INP_RR: u8 = 0x01;
    /// [`crate::InpPsAggregator`].
    pub const INP_PS: u8 = 0x02;
    /// [`crate::InpHtAggregator`].
    pub const INP_HT: u8 = 0x03;
    /// [`crate::MargRrAggregator`].
    pub const MARG_RR: u8 = 0x04;
    /// [`crate::MargPsAggregator`].
    pub const MARG_PS: u8 = 0x05;
    /// [`crate::MargHtAggregator`].
    pub const MARG_HT: u8 = 0x06;
    /// [`crate::InpEmAggregator`].
    pub const INP_EM: u8 = 0x07;
    /// `ldp_oracles::HadamardCmsAggregator`.
    pub const HCMS: u8 = 0x11;
    /// `ldp_oracles::CmsAggregator`.
    pub const CMS: u8 = 0x12;
    /// `ldp_oracles::OlhAggregator`.
    pub const OLH: u8 = 0x13;

    // The ten wire-v1 single-report frames, one user's report behind
    // its own tag and version: each tag is 0x20 plus its protocol's
    // accumulator tag (0x21–0x27 and 0x31–0x33; 0x28–0x30 were never
    // tags). Wire v4 retired them (reports travel only inside
    // `REPORT_BATCH`); the tags stay reserved, and a batch decoder names
    // them when a retired frame of wire v1–v3 arrives. Never reuse them.

    /// Retired (wire v1–v3): one user's InpRR report. Never reuse.
    pub const REPORT_INP_RR: u8 = 0x21;
    /// Retired (wire v1–v3): one user's InpPS report. Never reuse.
    pub const REPORT_INP_PS: u8 = 0x22;
    /// Retired (wire v1–v3): one user's InpHT report. Never reuse.
    pub const REPORT_INP_HT: u8 = 0x23;
    /// Retired (wire v1–v3): one user's MargRR report. Never reuse.
    pub const REPORT_MARG_RR: u8 = 0x24;
    /// Retired (wire v1–v3): one user's MargPS report. Never reuse.
    pub const REPORT_MARG_PS: u8 = 0x25;
    /// Retired (wire v1–v3): one user's MargHT report. Never reuse.
    pub const REPORT_MARG_HT: u8 = 0x26;
    /// Retired (wire v1–v3): one user's InpEM report. Never reuse.
    pub const REPORT_INP_EM: u8 = 0x27;
    /// Retired (wire v1–v3): one user's HCMS report. Never reuse.
    pub const REPORT_HCMS: u8 = 0x31;
    /// Retired (wire v1–v3): one user's CMS report. Never reuse.
    pub const REPORT_CMS: u8 = 0x32;
    /// Retired (wire v1–v3): one user's OLH report. Never reuse.
    pub const REPORT_OLH: u8 = 0x33;

    /// [`crate::frame::StreamHeader`] — frame 0 of report streams and
    /// snapshots.
    pub const STREAM_HEADER: u8 = 0x40;

    /// A report batch, the only report frame (wire v4): an envelope
    /// naming the protocol, its shape and the report count, then every
    /// report bit-packed at the widths of [`crate::layout`]
    /// (`docs/WIRE_FORMAT.md` §5). Wire v2 and v3 carried a different
    /// body under this tag, which v4 readers refuse by version.
    pub const REPORT_BATCH: u8 = 0x41;

    /// A collector checkpoint (wire v3): the collector's identity and
    /// push epoch, its local merged accumulator state, and the latest
    /// snapshot each downstream collector pushed — everything a
    /// restarted `ldp-cli serve --checkpoint` needs to resume exactly
    /// where it crashed (`docs/WIRE_FORMAT.md` §6.1).
    pub const CHECKPOINT: u8 = 0x42;

    // Aggregation-server control plane (`ldp_server`): request frames a
    // client sends over a control connection (0x50–0x57) and the
    // response frames the server answers with (0x58–0x5F). One request
    // frame always yields exactly one response frame.

    /// Request: the live merged snapshot (header + accumulator state).
    pub const REQ_SNAPSHOT: u8 = 0x50;
    /// Request: one finalized marginal table / frequency estimate.
    pub const REQ_QUERY: u8 = 0x51;
    /// Request: server counters (reports, connections, uptime, …).
    pub const REQ_STATS: u8 = 0x52;
    /// Request: graceful shutdown.
    pub const REQ_SHUTDOWN: u8 = 0x53;
    /// Request (wire v3): a downstream collector pushes its merged
    /// snapshot upstream — collector id, monotonic push epoch, header,
    /// and state. The upstream *replaces* its previous snapshot from
    /// the same collector, so a retried push is idempotent.
    pub const REQ_PUSH: u8 = 0x54;

    /// Response to [`REQ_SNAPSHOT`].
    pub const RESP_SNAPSHOT: u8 = 0x58;
    /// Response to [`REQ_QUERY`].
    pub const RESP_QUERY: u8 = 0x59;
    /// Response to [`REQ_STATS`].
    pub const RESP_STATS: u8 = 0x5A;
    /// Response to [`REQ_SHUTDOWN`].
    pub const RESP_SHUTDOWN: u8 = 0x5B;
    /// Ingest acknowledgement: sent once after a report stream reaches
    /// a clean end-of-stream and every report has been absorbed.
    pub const RESP_INGEST: u8 = 0x5C;
    /// Response to [`REQ_PUSH`] (wire v3): whether the pushed snapshot
    /// was applied (0 = stale epoch, ignored) and the latest epoch the
    /// upstream now holds for that collector.
    pub const RESP_PUSH: u8 = 0x5D;
    /// Error response to any request (or to a malformed first frame).
    pub const RESP_ERROR: u8 = 0x5F;
}

/// The current wire-format version. Writers always emit it.
///
/// v2 added the [`tag::REPORT_BATCH`] envelope; v3 added the federation
/// frames ([`tag::REQ_PUSH`], [`tag::RESP_PUSH`], [`tag::CHECKPOINT`]);
/// v4 bit-packs report batches and retires single-report frames. State,
/// checkpoint, header and control layouts are unchanged since v1, so
/// those blobs decode at any version from [`MIN_VERSION`] on.
pub const VERSION: u8 = 4;

/// The oldest wire-format version this build still decodes for state,
/// checkpoint, header and control blobs. Readers accept any version in
/// `MIN_VERSION..=`[`VERSION`] and reject anything newer with
/// [`WireError::UnsupportedVersion`].
pub const MIN_VERSION: u8 = 1;

/// The oldest version a [`tag::REPORT_BATCH`] may carry: v4 replaced the
/// batch body, so report batches decode only from this version on.
pub const MIN_BATCH_VERSION: u8 = 4;

/// How far, relative to the accumulator's own, a loaded state's
/// floating-point parameter (a perturbation probability, InpEM's EM
/// threshold) may lie: states written where `exp` rounds differently
/// still load, and states of another ε do not.
pub const PARAMETER_TOLERANCE: f64 = 1e-9;

/// Why a byte blob failed to decode into an accumulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The blob ended before the advertised fields did.
    Truncated,
    /// The leading type tag does not match the requested accumulator.
    WrongTag {
        /// Tag the decoder expected (see [`tag`]).
        expected: u8,
        /// Tag found in the blob (absent if the blob was empty).
        found: Option<u8>,
    },
    /// The blob's format version is not supported by this build.
    UnsupportedVersion(u8),
    /// Bytes were left over after all fields were read.
    TrailingBytes(usize),
    /// A decoded field failed its validity check.
    Invalid(&'static str),
    /// A report's index field names a cell outside the absorbing
    /// accumulator's shape.
    OutOfRange {
        /// The protocol and field, e.g. `"MargPS marginal"`.
        field: &'static str,
        /// The value the report carries.
        value: u64,
        /// The exclusive bound the shape allows.
        bound: u64,
    },
    /// A loaded state's configuration field, or the length of one of its
    /// tables, differs from the loading accumulator's; names the field,
    /// e.g. `"MargPS truth probability"`.
    Mismatch(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "serialized accumulator is truncated"),
            WireError::WrongTag { expected, found } => match found {
                Some(t) => write!(
                    f,
                    "wrong accumulator tag {t:#04x} (expected {expected:#04x})"
                ),
                None => write!(f, "empty blob (expected tag {expected:#04x})"),
            },
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::Invalid(what) => write!(f, "invalid serialized field: {what}"),
            WireError::OutOfRange {
                field,
                value,
                bound,
            } => write!(f, "{field} {value} is out of range (must be below {bound})"),
            WireError::Mismatch(field) => write!(f, "{field} differs from the accumulator's"),
        }
    }
}

impl std::error::Error for WireError {}

/// The range check behind every report index field: `value < bound`,
/// or a [`WireError::OutOfRange`] naming the field and its bound.
#[inline]
pub fn in_range(field: &'static str, value: u64, bound: u64) -> Result<(), WireError> {
    if value < bound {
        Ok(())
    } else {
        Err(WireError::OutOfRange {
            field,
            value,
            bound,
        })
    }
}

/// `Ok` when a loaded field `matches` the accumulator's, else a
/// [`WireError::Mismatch`] naming it.
#[inline]
fn matching(field: &'static str, matches: bool) -> Result<(), WireError> {
    if matches {
        Ok(())
    } else {
        Err(WireError::Mismatch(field))
    }
}

/// Append-only encoder for accumulator state.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a blob with the given type tag and the current [`VERSION`].
    #[must_use]
    pub fn with_tag(tag: u8) -> Self {
        let mut w = Writer {
            buf: Vec::with_capacity(64),
        };
        w.buf.push(tag);
        w.buf.push(VERSION);
        w
    }

    /// Clear the buffer and restart it with a new tag + [`VERSION`]
    /// header, keeping the existing allocation. The reuse form of
    /// [`with_tag`](Self::with_tag) for hot loops (the batch encode
    /// kernels fill one `Writer` per frame).
    #[inline]
    pub fn reset_with_tag(&mut self, tag: u8) {
        self.buf.clear();
        self.buf.push(tag);
        self.buf.push(VERSION);
    }

    /// The bytes encoded so far, without consuming the writer.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes encoded so far.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` iff nothing has been encoded (only possible via
    /// `Writer::default()`, which has no header).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Append a length-prefixed `i64` slice.
    pub fn put_i64_slice(&mut self, vs: &[i64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_i64(v);
        }
    }

    /// Append a `u32`-length-prefixed raw byte string (UTF-8 messages,
    /// nested wire blobs).
    pub fn put_bytes(&mut self, vs: &[u8]) {
        debug_assert!(
            vs.len() <= 0xFFFF_FFFF,
            "byte string exceeds the u32 prefix"
        );
        self.put_u32(vs.len() as u32);
        self.buf.extend_from_slice(vs);
    }

    /// Append bytes verbatim (no length prefix) — the tail of a
    /// bit-packed [`tag::REPORT_BATCH`] body.
    pub fn put_raw(&mut self, vs: &[u8]) {
        self.buf.extend_from_slice(vs);
    }

    /// Append a length-prefixed `f64` slice (exact IEEE-754 bits).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Finish and take the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder matching [`Writer`].
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Open a blob, checking its type tag and that its version is one
    /// this build decodes ([`MIN_VERSION`]`..=`[`VERSION`]).
    pub fn with_tag(bytes: &'a [u8], expected: u8) -> Result<Self, WireError> {
        let mut r = Reader { bytes, pos: 0 };
        let found = r.get_u8().ok();
        if found != Some(expected) {
            return Err(WireError::WrongTag { expected, found });
        }
        let version = r.get_u8()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(WireError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    /// Peek at a blob's type tag without consuming anything.
    pub fn peek_tag(bytes: &[u8]) -> Option<u8> {
        bytes.first().copied()
    }

    /// Bytes not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // `get` (not direct slicing) keeps a corrupt length from ever
        // panicking the decoder: an out-of-range request is `Truncated`.
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let out = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Validate a slice length prefix against the bytes actually
    /// remaining — comparing in `u64`, so a prefix above `usize::MAX`
    /// can never truncate into a plausible small length on 32-bit
    /// targets — then narrow it for use as an element count.
    #[inline]
    fn checked_len(&self, len: u64, elem_bytes: u64) -> Result<usize, WireError> {
        let remaining = (self.bytes.len() - self.pos) as u64;
        let needed = len.checked_mul(elem_bytes).ok_or(WireError::Truncated)?;
        if needed > remaining {
            return Err(WireError::Truncated);
        }
        Ok(len as usize)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let bytes = self.take(2)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u16::from_le_bytes(bytes))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        let bytes = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(i64::from_le_bytes(bytes))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed `u64` vector, rejecting absurd lengths
    /// before allocating.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let prefix = self.get_u64()?;
        let len = self.checked_len(prefix, 8)?;
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Read a length-prefixed `i64` vector.
    pub fn get_i64_vec(&mut self) -> Result<Vec<i64>, WireError> {
        let prefix = self.get_u64()?;
        let len = self.checked_len(prefix, 8)?;
        (0..len).map(|_| self.get_i64()).collect()
    }

    /// Read a `u32`-length-prefixed raw byte string, rejecting absurd
    /// lengths before allocating.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let prefix = self.get_u32()?;
        let len = self.checked_len(u64::from(prefix), 1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed `f64` vector, rejecting absurd lengths
    /// before allocating.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let prefix = self.get_u64()?;
        let len = self.checked_len(prefix, 8)?;
        (0..len).map(|_| self.get_f64()).collect()
    }

    /// Read a `u32` parameter and refuse it unless it is `own`.
    pub fn expect_u32(&mut self, field: &'static str, own: u32) -> Result<(), WireError> {
        matching(field, self.get_u32()? == own)
    }

    /// Read a `u64` parameter and refuse it unless it is `own`.
    pub fn expect_u64(&mut self, field: &'static str, own: u64) -> Result<(), WireError> {
        matching(field, self.get_u64()? == own)
    }

    /// Read an `f64` parameter and refuse it unless it lies within
    /// [`PARAMETER_TOLERANCE`] of `own`, relative to `own` (a NaN never
    /// does).
    pub fn expect_f64(&mut self, field: &'static str, own: f64) -> Result<(), WireError> {
        let found = self.get_f64()?;
        matching(
            field,
            (found - own).abs() <= PARAMETER_TOLERANCE * own.abs(),
        )
    }

    /// Read a length-prefixed `u64` vector and refuse it unless it is
    /// `own`, element for element (allocating nothing).
    pub fn expect_u64_slice(&mut self, field: &'static str, own: &[u64]) -> Result<(), WireError> {
        matching(field, self.get_u64()? == own.len() as u64)?;
        for &v in own {
            self.expect_u64(field, v)?;
        }
        Ok(())
    }

    /// Read `rows` length-prefixed vectors of `width` elements each,
    /// every element read by `get`, into one row-major vector; refuses a
    /// row of another length by `field`.
    pub fn get_rows<T>(
        &mut self,
        field: &'static str,
        rows: usize,
        width: usize,
        get: fn(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::new();
        for _ in 0..rows {
            self.expect_u64(field, width as u64)?;
            for _ in 0..width {
                out.push(get(self)?);
            }
        }
        Ok(out)
    }

    /// Assert the whole blob was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        let left = self.bytes.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_type() {
        let mut w = Writer::with_tag(0x7F);
        w.put_u8(3);
        w.put_u32(1 << 30);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(0.1 + 0.2); // not representable exactly — bits must survive
        w.put_u64_slice(&[1, 2, 3]);
        w.put_i64_slice(&[-1, 0, 1]);
        let bytes = w.into_bytes();

        let mut r = Reader::with_tag(&bytes, 0x7F).unwrap();
        assert_eq!(r.get_u8().unwrap(), 3);
        assert_eq!(r.get_u32().unwrap(), 1 << 30);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_i64_vec().unwrap(), vec![-1, 0, 1]);
        r.finish().unwrap();
    }

    #[test]
    fn rejects_wrong_tag_truncation_and_trailing() {
        let bytes = Writer::with_tag(tag::INP_RR).into_bytes();
        assert!(matches!(
            Reader::with_tag(&bytes, tag::INP_PS),
            Err(WireError::WrongTag { .. })
        ));
        assert!(matches!(
            Reader::with_tag(&[], tag::INP_RR),
            Err(WireError::WrongTag { found: None, .. })
        ));

        let mut r = Reader::with_tag(&bytes, tag::INP_RR).unwrap();
        assert_eq!(r.get_u64(), Err(WireError::Truncated));

        let mut w = Writer::with_tag(tag::INP_RR);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let r = Reader::with_tag(&bytes, tag::INP_RR).unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn rejects_future_versions() {
        let mut bytes = Writer::with_tag(tag::OLH).into_bytes();
        bytes[1] = VERSION + 1;
        assert!(matches!(
            Reader::with_tag(&bytes, tag::OLH),
            Err(WireError::UnsupportedVersion(v)) if v == VERSION + 1
        ));
    }

    #[test]
    fn accepts_every_supported_legacy_version() {
        // A v1 blob (the pre-batch wire format) must keep decoding: the
        // field layouts are unchanged, only the version byte moved.
        let mut w = Writer::with_tag(tag::OLH);
        w.put_u64(77);
        for version in MIN_VERSION..=VERSION {
            let mut bytes = w.buf.clone();
            bytes[1] = version;
            let mut r = Reader::with_tag(&bytes, tag::OLH).unwrap();
            assert_eq!(r.get_u64().unwrap(), 77);
            r.finish().unwrap();
        }
        let mut bytes = w.buf.clone();
        bytes[1] = MIN_VERSION - 1;
        assert!(matches!(
            Reader::with_tag(&bytes, tag::OLH),
            Err(WireError::UnsupportedVersion(0))
        ));
    }

    #[test]
    fn put_raw_appends_verbatim() {
        let mut w = Writer::with_tag(tag::REPORT_BATCH);
        w.put_raw(&[7, 0, 9]);
        assert_eq!(w.into_bytes(), [tag::REPORT_BATCH, VERSION, 7, 0, 9]);
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        let mut w = Writer::with_tag(0x01);
        w.put_u64(u64::MAX); // claims ~2^64 elements
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x01).unwrap();
        assert_eq!(r.get_u64_vec(), Err(WireError::Truncated));
    }

    #[test]
    fn bytes_and_f64_slices_round_trip_and_guard_lengths() {
        let mut w = Writer::with_tag(0x04);
        w.put_bytes(b"control-plane message");
        w.put_bytes(&[]);
        w.put_f64_slice(&[0.25, -1.5, f64::MAX]);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x04).unwrap();
        assert_eq!(r.get_bytes().unwrap(), b"control-plane message");
        assert_eq!(r.get_bytes().unwrap(), Vec::<u8>::new());
        assert_eq!(r.get_f64_vec().unwrap(), vec![0.25, -1.5, f64::MAX]);
        r.finish().unwrap();

        // Oversized length prefixes fail before allocating.
        let mut w = Writer::with_tag(0x04);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x04).unwrap();
        assert_eq!(r.get_bytes(), Err(WireError::Truncated));
        let mut w = Writer::with_tag(0x04);
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x04).unwrap();
        assert_eq!(r.get_f64_vec(), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_mid_element_is_detected() {
        let mut w = Writer::with_tag(0x03);
        w.put_u64_slice(&[1, 2, 3]);
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 1); // cut the last element short
        let mut r = Reader::with_tag(&bytes, 0x03).unwrap();
        assert_eq!(r.get_u64_vec(), Err(WireError::Truncated));
    }
}
