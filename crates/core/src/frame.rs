//! Length-framed byte streams and the self-describing stream header —
//! the process-boundary layer of the pipeline.
//!
//! The PR 2 accumulators made partial aggregates *mergeable*; this
//! module makes them (and the per-user reports that feed them)
//! *shippable*. Everything the `ldp-cli` binary moves between processes
//! is a sequence of **frames**: a little-endian `u32` length followed by
//! that many payload bytes. Two stream shapes are built on top:
//!
//! * **report stream** (`ldp-cli encode` output): frame 0 is a
//!   [`StreamHeader`], every following frame is one report (or a
//!   `REPORT_BATCH` of them) as the protocol table in
//!   `ldp_oracles::pipeline` writes it;
//! * **snapshot** (`ldp-cli ingest` / `merge` output): frame 0 is the
//!   same [`StreamHeader`], frame 1 is the [`crate::Accumulator`] state
//!   (`to_bytes`), and nothing follows.
//!
//! The header repeats the protocol configuration (mechanism kind, `d`,
//! `k`, `ε`, and the sketch shape for oracles) so a downstream process
//! can rebuild the matching client or server object without being handed
//! the originating mechanism — the property that lets
//! `encode | ingest ×N | merge | query` run as genuinely separate
//! processes and still be byte-identical to a single-process run.

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{MechanismKind, Protocol};
use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload length (1 GiB). A length prefix
/// above this is treated as corruption, not an allocation request.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Why a framed stream failed to read or write.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The stream ended inside a frame (length prefix or payload).
    Truncated {
        /// Bytes the frame still owed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u64),
    /// A header or payload blob failed to decode.
    Wire(WireError),
    /// A stream ended before a required frame (named here) appeared.
    MissingFrame(&'static str),
    /// A snapshot carried frames after the accumulator state.
    TrailingFrame,
    /// A [`FrameReader::next_frame_while_into`] read was abandoned
    /// because its `keep_going` condition became false (server shutdown).
    Interrupted,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Wire(e) => write!(f, "bad frame payload: {e}"),
            FrameError::MissingFrame(what) => write!(f, "stream ended before the {what} frame"),
            FrameError::TrailingFrame => write!(f, "unexpected frame after the snapshot state"),
            FrameError::Interrupted => write!(f, "frame read interrupted by shutdown"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Write length-prefixed frames to any [`Write`] sink.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a sink.
    pub fn new(inner: W) -> Self {
        FrameWriter { inner }
    }

    /// Append one frame.
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        if payload.len() > MAX_FRAME_LEN as usize {
            return Err(FrameError::Oversized(payload.len() as u64));
        }
        self.inner
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.inner.write_all(payload)?;
        Ok(())
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) -> Result<(), FrameError> {
        self.inner.flush()?;
        Ok(())
    }

    /// Unwrap the sink (without flushing).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Size of a [`FrameReader`]'s internal read buffer. One `read` call
/// against a batched ingest socket typically returns many whole frames,
/// which the reader then slices out without touching the source again —
/// the syscall amortization behind the batched serve wire path.
const READ_BUF_LEN: usize = 64 * 1024;

/// One `read` from `source` into `dst`, returning its byte count
/// (`0` at end of stream) and retrying an `Interrupted` read. A read
/// timeout (`WouldBlock` / `TimedOut`) is retried while `keep_going`
/// holds and abandoned with [`FrameError::Interrupted`] once it does
/// not; with no `keep_going` (the blocking-source path) it is an I/O
/// error.
fn read_retrying<R: Read>(
    source: &mut R,
    dst: &mut [u8],
    keep_going: Option<&dyn Fn() -> bool>,
) -> Result<usize, FrameError> {
    loop {
        match source.read(dst) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                match keep_going {
                    Some(keep) if keep() => {}
                    Some(_) => return Err(FrameError::Interrupted),
                    None => return Err(e.into()),
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Read length-prefixed frames from any [`Read`] source, buffering
/// reads: the reader pulls up to `READ_BUF_LEN` (64 KiB) per `read` call
/// and serves length prefixes and payloads out of the buffer, so small
/// frames cost no syscall each. Payloads larger than what is buffered
/// stream directly into the caller's vector.
///
/// Because the reader buffers ahead, it must own the source for the
/// rest of the conversation: dropping it (or calling
/// [`FrameReader::into_inner`]) discards any bytes already pulled off
/// the source.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a source.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: vec![0; READ_BUF_LEN],
            start: 0,
            end: 0,
        }
    }

    /// Bytes buffered but not yet consumed.
    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Copy up to `dst.len()` already-buffered bytes into `dst`,
    /// consuming them; returns the count copied. `get`-based slicing
    /// keeps this panic-free even if the buffer invariants were ever
    /// violated (it degrades to copying nothing).
    fn take_buffered(&mut self, dst: &mut [u8]) -> usize {
        let n = dst.len().min(self.buffered());
        let src = self.buf.get(self.start..self.start + n);
        let dst = dst.get_mut(..n);
        let (Some(src), Some(dst)) = (src, dst) else {
            return 0;
        };
        dst.copy_from_slice(src);
        self.start += n;
        n
    }

    /// One `read` from the source into the buffer tail (compacting
    /// leftover bytes to the front first); returns the byte count, with
    /// `0` meaning end of stream. Timeouts are handled as
    /// [`read_retrying`] does. Bytes already buffered are kept across
    /// retries, so a frame split over many timeout windows still
    /// assembles correctly.
    fn refill(&mut self, keep_going: Option<&dyn Fn() -> bool>) -> Result<usize, FrameError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let Some(tail) = self.buf.get_mut(self.end..).filter(|t| !t.is_empty()) else {
            // A full buffer cannot happen: callers refill only while
            // they need bytes for a prefix (4 bytes) or a payload
            // shorter than the buffer; longer payloads drain the
            // buffer first and then stream directly.
            return Ok(0);
        };
        let n = read_retrying(&mut self.inner, tail, keep_going)?;
        self.end += n;
        Ok(n)
    }

    /// Read from the source directly into the unfilled tail of `dst`
    /// (bypassing the buffer) until `dst` is full or the stream ends;
    /// returns the total filled, starting from `already`. Timeouts are
    /// handled as [`read_retrying`] does.
    fn read_direct(
        &mut self,
        dst: &mut [u8],
        already: usize,
        keep_going: Option<&dyn Fn() -> bool>,
    ) -> Result<usize, FrameError> {
        let mut got = already;
        while let Some(rest) = dst.get_mut(got..).filter(|rest| !rest.is_empty()) {
            match read_retrying(&mut self.inner, rest, keep_going)? {
                0 => break,
                n => got += n,
            }
        }
        Ok(got)
    }

    /// The shared frame-assembly loop behind both public `next_frame`
    /// forms: length prefix and payload come out of the buffer when
    /// available, with at most one source `read` per refill.
    fn read_frame_into(
        &mut self,
        payload: &mut Vec<u8>,
        keep_going: Option<&dyn Fn() -> bool>,
    ) -> Result<bool, FrameError> {
        let mut len_bytes = [0u8; 4];
        let mut got = self.take_buffered(&mut len_bytes);
        while got < 4 {
            if self.refill(keep_going)? == 0 {
                if got == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Truncated { needed: 4, got });
            }
            if let Some(rest) = len_bytes.get_mut(got..) {
                got += self.take_buffered(rest);
            }
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(u64::from(len)));
        }
        // The length prefix is the peer's claim, not yet backed by any
        // bytes: the payload grows only as bytes arrive, at most
        // READ_BUF_LEN at a time, so a prefix with nothing behind it
        // costs no allocation.
        let want = usize::try_from(len).unwrap_or(usize::MAX);
        payload.clear();
        while payload.len() < want {
            if self.buffered() > 0 {
                self.append_buffered(payload, want - payload.len());
                continue;
            }
            // Large remainders stream straight from the source; small
            // ones go through the buffer so the bytes of the *next*
            // frames ride along in the same `read` call.
            if want - payload.len() >= READ_BUF_LEN / 2 {
                let filled = payload.len();
                payload.resize(filled + (want - filled).min(READ_BUF_LEN), 0);
                let got = self.read_direct(payload, filled, keep_going)?;
                let short = got < payload.len();
                payload.truncate(got);
                if short {
                    break;
                }
            } else if self.refill(keep_going)? == 0 {
                break;
            }
        }
        if payload.len() < want {
            return Err(FrameError::Truncated {
                needed: want,
                got: payload.len(),
            });
        }
        Ok(true)
    }

    /// Move up to `max` already-buffered bytes onto the end of `dst`,
    /// consuming them.
    fn append_buffered(&mut self, dst: &mut Vec<u8>, max: usize) {
        let n = max.min(self.buffered());
        if let Some(src) = self.buf.get(self.start..self.start + n) {
            dst.extend_from_slice(src);
            self.start += n;
        }
    }

    /// Read the next frame's payload; `Ok(None)` at a clean end of
    /// stream (the source ends exactly on a frame boundary).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let mut payload = Vec::new();
        Ok(self.next_frame_into(&mut payload)?.then_some(payload))
    }

    /// Read the next frame's payload into a caller-owned buffer
    /// (cleared, then filled; capacity is reused across calls). Returns
    /// `Ok(false)` at a clean end of stream — the zero-allocation form
    /// of [`FrameReader::next_frame`] the batched ingest loops use.
    pub fn next_frame_into(&mut self, payload: &mut Vec<u8>) -> Result<bool, FrameError> {
        self.read_frame_into(payload, None)
    }

    /// Read the next frame from a long-lived socket into a caller-owned
    /// buffer (cleared, then filled; `Ok(false)` marks a clean end of
    /// stream), staying shutdown-safe: the source should carry a read
    /// timeout (or be non-blocking), and every time it times out
    /// `keep_going` is consulted — the read retries (keeping partial
    /// progress) while it returns true and fails with
    /// [`FrameError::Interrupted`] once it does not. This is the reader
    /// loop of the `ldp-cli serve` connection handlers: a server draining
    /// live TCP streams can neither block forever on an idle peer nor
    /// tear down sockets mid-frame without noticing, and each connection
    /// reads every frame into its one buffer.
    pub fn next_frame_while_into<F: Fn() -> bool>(
        &mut self,
        payload: &mut Vec<u8>,
        keep_going: F,
    ) -> Result<bool, FrameError> {
        self.read_frame_into(payload, Some(&keep_going))
    }

    /// Unwrap the source, discarding any read-ahead bytes still
    /// buffered (see the type-level note).
    pub fn into_inner(self) -> R {
        self.inner
    }
}

/// Frame 0 of every report stream and snapshot: the protocol
/// configuration a downstream process needs to rebuild the matching
/// client or server object.
///
/// `protocol` is the *accumulator* type tag of [`tag`] (`INP_RR` …
/// `INP_EM` for mechanisms, `HCMS` / `CMS` / `OLH` for the frequency
/// oracles), so the header and the accumulator state it precedes name
/// the protocol the same way. The sketch fields (`hashes`, `width`,
/// `family_seed`) are zero for mechanisms; `k` is 1 for oracles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamHeader {
    /// Accumulator type tag from [`tag`] identifying the protocol.
    pub protocol: u8,
    /// Domain dimensionality `d`.
    pub d: u32,
    /// Target marginal order `k`.
    pub k: u32,
    /// Privacy budget ε.
    pub eps: f64,
    /// Sketch hash count `g` (oracles only; 0 for mechanisms).
    pub hashes: u32,
    /// Sketch row width `w` (oracles only; 0 for mechanisms).
    pub width: u32,
    /// Seed of the sketch's public hash family (oracles only).
    pub family_seed: u64,
}

impl StreamHeader {
    /// Header for a mechanism pipeline.
    #[must_use]
    pub fn mechanism(kind: MechanismKind, d: u32, k: u32, eps: f64) -> Self {
        StreamHeader {
            protocol: Protocol::from(kind).wire_tag(),
            d,
            k,
            eps,
            hashes: 0,
            width: 0,
            family_seed: 0,
        }
    }

    /// The mechanism kind this header names, if it names one.
    #[must_use]
    pub fn mechanism_kind(&self) -> Option<MechanismKind> {
        MechanismKind::ALL
            .into_iter()
            .find(|&kind| Protocol::from(kind).wire_tag() == self.protocol)
    }

    /// Serialize into the wire form (tag [`tag::STREAM_HEADER`]).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::STREAM_HEADER);
        w.put_u8(self.protocol);
        w.put_u32(self.d);
        w.put_u32(self.k);
        w.put_f64(self.eps);
        w.put_u32(self.hashes);
        w.put_u32(self.width);
        w.put_u64(self.family_seed);
        w.into_bytes()
    }

    /// Decode a header blob, validating the parameter ranges every
    /// protocol shares.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::STREAM_HEADER)?;
        let protocol = r.get_u8()?;
        let d = r.get_u32()?;
        let k = r.get_u32()?;
        let eps = r.get_f64()?;
        let hashes = r.get_u32()?;
        let width = r.get_u32()?;
        let family_seed = r.get_u64()?;
        r.finish()?;
        if !(1..=63).contains(&d) {
            return Err(WireError::Invalid("header dimensionality"));
        }
        if k < 1 || k > d {
            return Err(WireError::Invalid("header marginal order"));
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(WireError::Invalid("header epsilon"));
        }
        Ok(StreamHeader {
            protocol,
            d,
            k,
            eps,
            hashes,
            width,
            family_seed,
        })
    }
}

/// Write a snapshot (header frame + accumulator-state frame) to a sink.
pub fn write_snapshot<W: Write>(
    sink: W,
    header: &StreamHeader,
    state: &[u8],
) -> Result<(), FrameError> {
    let mut w = FrameWriter::new(sink);
    w.write_frame(&header.to_bytes())?;
    w.write_frame(state)?;
    w.flush()
}

/// Read a snapshot back: the header and the raw accumulator state
/// (self-describing; decode with `Accumulator::from_bytes`). Rejects
/// streams with missing or trailing frames.
pub fn read_snapshot<R: Read>(source: R) -> Result<(StreamHeader, Vec<u8>), FrameError> {
    let mut r = FrameReader::new(source);
    let header_bytes = r
        .next_frame()?
        .ok_or(FrameError::MissingFrame("stream header"))?;
    let header = StreamHeader::from_bytes(&header_bytes)?;
    let state = r
        .next_frame()?
        .ok_or(FrameError::MissingFrame("accumulator state"))?;
    if r.next_frame()?.is_some() {
        return Err(FrameError::TrailingFrame);
    }
    Ok((header, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Accumulator;
    use rand::SeedableRng;

    #[test]
    fn frames_round_trip_including_empty() {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        w.write_frame(b"alpha").unwrap();
        w.write_frame(b"").unwrap();
        w.write_frame(&[0xFFu8; 300]).unwrap();
        let mut r = FrameReader::new(buf.as_slice());
        assert_eq!(r.next_frame().unwrap().unwrap(), b"alpha");
        assert_eq!(r.next_frame().unwrap().unwrap(), b"");
        assert_eq!(r.next_frame().unwrap().unwrap(), vec![0xFFu8; 300]);
        assert!(r.next_frame().unwrap().is_none());
        // Clean EOF is sticky.
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn truncated_length_prefix_is_an_error() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf).write_frame(b"abcdef").unwrap();
        let cut = &buf[..2]; // half a length prefix
        let mut r = FrameReader::new(cut);
        assert!(matches!(
            r.next_frame(),
            Err(FrameError::Truncated { needed: 4, got: 2 })
        ));
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf).write_frame(b"abcdef").unwrap();
        let cut = &buf[..buf.len() - 3];
        let mut r = FrameReader::new(cut);
        assert!(matches!(
            r.next_frame(),
            Err(FrameError::Truncated { needed: 6, got: 3 })
        ));
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        let bytes = u32::MAX.to_le_bytes();
        let mut r = FrameReader::new(bytes.as_slice());
        assert!(matches!(
            r.next_frame(),
            Err(FrameError::Oversized(len)) if len == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn unbacked_length_prefix_allocates_nothing() {
        // A peer that announces a 1 GiB frame (within the cap) and then
        // sends nothing must cost a truncation, not a 1 GiB buffer.
        let bytes = MAX_FRAME_LEN.to_le_bytes();
        let mut r = FrameReader::new(bytes.as_slice());
        let mut payload = Vec::new();
        assert!(matches!(
            r.next_frame_into(&mut payload),
            Err(FrameError::Truncated { needed, got: 0 }) if needed == 1 << 30
        ));
        assert!(payload.capacity() < 1 << 20, "{}", payload.capacity());

        // Capacity is still reused across frames once real bytes arrive.
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        w.write_frame(&[7u8; 3 * READ_BUF_LEN]).unwrap();
        w.write_frame(b"small").unwrap();
        let mut r = FrameReader::new(buf.as_slice());
        assert!(r.next_frame_into(&mut payload).unwrap());
        assert_eq!(payload, vec![7u8; 3 * READ_BUF_LEN]);
        let grown = payload.capacity();
        assert!(r.next_frame_into(&mut payload).unwrap());
        assert_eq!(payload, b"small");
        assert_eq!(payload.capacity(), grown);
    }

    /// A source that yields its bytes one at a time, reporting a read
    /// timeout between every byte — the worst-case fragmentation a TCP
    /// reader with a read timeout can see.
    struct Chopped {
        bytes: Vec<u8>,
        pos: usize,
        timed_out: bool,
    }

    impl std::io::Read for Chopped {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.timed_out {
                self.timed_out = true;
                return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "window"));
            }
            self.timed_out = false;
            if self.pos == self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn next_frame_while_reassembles_across_timeouts() {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        w.write_frame(b"report-one").unwrap();
        w.write_frame(b"report-two").unwrap();
        let mut r = FrameReader::new(Chopped {
            bytes: buf,
            pos: 0,
            timed_out: false,
        });
        let mut frame = Vec::new();
        assert!(r.next_frame_while_into(&mut frame, || true).unwrap());
        assert_eq!(frame, b"report-one");
        assert!(r.next_frame_while_into(&mut frame, || true).unwrap());
        assert_eq!(frame, b"report-two");
        assert!(!r.next_frame_while_into(&mut frame, || true).unwrap());
    }

    #[test]
    fn next_frame_while_interrupts_on_shutdown() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf).write_frame(b"partial").unwrap();
        let shutdown = AtomicBool::new(false);
        let mut r = FrameReader::new(Chopped {
            bytes: buf,
            pos: 0,
            timed_out: false,
        });
        // First frame completes (retrying through every timeout)…
        let keep = || !shutdown.load(Ordering::SeqCst);
        let mut frame = Vec::new();
        assert!(r.next_frame_while_into(&mut frame, keep).unwrap());
        assert_eq!(frame, b"partial");
        // …then shutdown flips mid-wait and the next read is abandoned.
        shutdown.store(true, Ordering::SeqCst);
        assert!(matches!(
            r.next_frame_while_into(&mut frame, keep),
            Err(FrameError::Interrupted)
        ));
    }

    /// A source that delivers its bytes in a fixed, cycling pattern of
    /// chunk sizes — the fault-injection transport: it can split reads
    /// exactly on a length prefix, inside one, one byte at a time, or
    /// report a read timeout between chunks, while counting how many
    /// times the reader actually hit the source.
    struct ChunkedStream {
        bytes: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        next: usize,
        timeout_between: bool,
        timed_out: bool,
        reads: usize,
    }

    impl ChunkedStream {
        fn new(bytes: Vec<u8>, chunks: Vec<usize>, timeout_between: bool) -> Self {
            ChunkedStream {
                bytes,
                pos: 0,
                chunks,
                next: 0,
                timeout_between,
                timed_out: false,
                reads: 0,
            }
        }
    }

    impl std::io::Read for ChunkedStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.timeout_between && !self.timed_out {
                self.timed_out = true;
                return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "window"));
            }
            self.timed_out = false;
            if self.pos == self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            let step = self.chunks[self.next % self.chunks.len()].max(1);
            self.next += 1;
            let n = step.min(buf.len()).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A frame stream exercising every payload class: empty, tiny,
    /// mid-sized, and one larger than the reader's internal buffer (the
    /// direct-read spill path).
    fn fault_injection_frames() -> Vec<Vec<u8>> {
        vec![
            b"".to_vec(),
            b"x".to_vec(),
            vec![0xAB; 5],
            vec![0xCD; 300],
            (0..(READ_BUF_LEN + 513)).map(|i| i as u8).collect(),
            b"tail".to_vec(),
        ]
    }

    #[test]
    fn buffered_reader_slices_many_frames_from_one_read() {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        for i in 0..100u32 {
            w.write_frame(&i.to_le_bytes()).unwrap();
        }
        // The whole stream arrives in one read call…
        let source = ChunkedStream::new(buf, vec![usize::MAX], false);
        let mut r = FrameReader::new(source);
        for i in 0..100u32 {
            assert_eq!(r.next_frame().unwrap().unwrap(), i.to_le_bytes());
        }
        assert!(r.next_frame().unwrap().is_none());
        // …so the reader touched the source once for the bytes and once
        // for the end-of-stream probe.
        assert_eq!(r.into_inner().reads, 2);
    }

    #[test]
    fn frame_reassembly_survives_adversarial_chunkings() {
        let frames = fault_injection_frames();
        let mut serial = Vec::new();
        let mut w = FrameWriter::new(&mut serial);
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        // 1-byte reads, splits exactly on / inside the 4-byte length
        // prefix, odd cycles straddling frame boundaries, and huge reads.
        let patterns: &[&[usize]] = &[
            &[1],
            &[2],
            &[3],
            &[4],
            &[5],
            &[7, 1],
            &[1, 2, 3],
            &[4, 1],
            &[2, 2, 9],
            &[3, 5],
            &[READ_BUF_LEN - 1],
            &[usize::MAX],
        ];
        for &pattern in patterns {
            for timeouts in [false, true] {
                let source = ChunkedStream::new(serial.clone(), pattern.to_vec(), timeouts);
                let mut r = FrameReader::new(source);
                let mut frame = Vec::new();
                for (i, want) in frames.iter().enumerate() {
                    let got = if timeouts {
                        let more = r.next_frame_while_into(&mut frame, || true).unwrap();
                        more.then(|| frame.clone())
                    } else {
                        // A blocking source never times out; the plain
                        // reader must reassemble identically.
                        r.next_frame().unwrap()
                    };
                    assert_eq!(
                        got.as_deref(),
                        Some(want.as_slice()),
                        "frame {i} torn under chunking {pattern:?} (timeouts: {timeouts})"
                    );
                }
                assert!(
                    !r.next_frame_while_into(&mut frame, || true).unwrap(),
                    "spurious trailing frame under chunking {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn eof_at_every_cut_point_is_clean_or_truncated_never_torn() {
        // Two frames; cut the byte stream at every possible point and
        // check the reader reports exactly the right thing: whole
        // frames decode, a cut on a boundary is a clean end of stream,
        // and a cut inside a prefix or payload is `Truncated` with
        // honest counts — never a mis-framed payload.
        let first = b"abcdef".to_vec();
        let second = vec![0x5A; 9];
        let mut serial = Vec::new();
        let mut w = FrameWriter::new(&mut serial);
        w.write_frame(&first).unwrap();
        w.write_frame(&second).unwrap();
        let first_end = 4 + first.len();
        for cut in 0..=serial.len() {
            for pattern in [&[1usize][..], &[3, 4][..], &[usize::MAX][..]] {
                let source = ChunkedStream::new(serial[..cut].to_vec(), pattern.to_vec(), false);
                let mut r = FrameReader::new(source);
                if cut == 0 {
                    assert!(r.next_frame().unwrap().is_none());
                    continue;
                }
                if cut < 4 {
                    assert!(matches!(
                        r.next_frame(),
                        Err(FrameError::Truncated { needed: 4, got }) if got == cut
                    ));
                    continue;
                }
                if cut < first_end {
                    assert!(matches!(
                        r.next_frame(),
                        Err(FrameError::Truncated { needed, got })
                            if needed == first.len() && got == cut - 4
                    ));
                    continue;
                }
                assert_eq!(r.next_frame().unwrap().unwrap(), first);
                if cut == first_end {
                    assert!(r.next_frame().unwrap().is_none());
                } else if cut < first_end + 4 {
                    assert!(matches!(
                        r.next_frame(),
                        Err(FrameError::Truncated { needed: 4, got })
                            if got == cut - first_end
                    ));
                } else if cut < serial.len() {
                    assert!(matches!(
                        r.next_frame(),
                        Err(FrameError::Truncated { needed, got })
                            if needed == second.len() && got == cut - first_end - 4
                    ));
                } else {
                    assert_eq!(r.next_frame().unwrap().unwrap(), second);
                    assert!(r.next_frame().unwrap().is_none());
                }
            }
        }
    }

    #[test]
    fn header_round_trips_for_every_mechanism_kind() {
        for kind in MechanismKind::ALL {
            let header = StreamHeader::mechanism(kind, 8, 2, 1.1);
            let back = StreamHeader::from_bytes(&header.to_bytes()).unwrap();
            assert_eq!(back, header);
            assert_eq!(back.mechanism_kind(), Some(kind));
        }
    }

    #[test]
    fn header_rejects_bad_tag_and_bad_fields() {
        let header = StreamHeader::mechanism(MechanismKind::InpHt, 8, 2, 1.1);
        let mut bytes = header.to_bytes();
        bytes[0] = tag::OLH; // not a STREAM_HEADER tag
        assert!(matches!(
            StreamHeader::from_bytes(&bytes),
            Err(WireError::WrongTag { .. })
        ));

        let bad_eps = StreamHeader {
            eps: f64::NAN,
            ..header
        };
        assert_eq!(
            StreamHeader::from_bytes(&bad_eps.to_bytes()),
            Err(WireError::Invalid("header epsilon"))
        );
        let bad_k = StreamHeader { k: 9, ..header };
        assert_eq!(
            StreamHeader::from_bytes(&bad_k.to_bytes()),
            Err(WireError::Invalid("header marginal order"))
        );
        let bad_d = StreamHeader {
            d: 0,
            k: 0,
            ..header
        };
        assert_eq!(
            StreamHeader::from_bytes(&bad_d.to_bytes()),
            Err(WireError::Invalid("header dimensionality"))
        );
        let truncated = &header.to_bytes()[..10];
        assert_eq!(
            StreamHeader::from_bytes(truncated),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn snapshot_round_trips_and_rejects_malformed_streams() {
        let mech = crate::MargPs::new(6, 2, 0.8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut acc = mech.aggregator();
        for u in 0..200u64 {
            acc.absorb(mech.encode(u % 64, &mut rng));
        }
        let header = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 0.8);

        let mut buf = Vec::new();
        write_snapshot(&mut buf, &header, &acc.to_bytes()).unwrap();
        let (back_header, state) = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(back_header, header);
        assert_eq!(state, acc.to_bytes());
        let back = crate::MargPsAggregator::from_bytes(&state).unwrap();
        assert_eq!(back.report_count(), 200);

        // Missing accumulator frame.
        let mut short = Vec::new();
        FrameWriter::new(&mut short)
            .write_frame(&header.to_bytes())
            .unwrap();
        assert!(matches!(
            read_snapshot(short.as_slice()),
            Err(FrameError::MissingFrame("accumulator state"))
        ));

        // Trailing frame after the state.
        let mut long = Vec::new();
        {
            let mut w = FrameWriter::new(&mut long);
            w.write_frame(&header.to_bytes()).unwrap();
            w.write_frame(&acc.to_bytes()).unwrap();
            w.write_frame(b"junk").unwrap();
        }
        assert!(matches!(
            read_snapshot(long.as_slice()),
            Err(FrameError::TrailingFrame)
        ));

        // Empty stream.
        assert!(matches!(
            read_snapshot([].as_slice()),
            Err(FrameError::MissingFrame("stream header"))
        ));
    }
}
