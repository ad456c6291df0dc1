//! Blocking client helpers for the aggregation server: push a report
//! stream (single-report or batched frames), or hold a control session.

use crate::protocol::{Request, Response};
use ldp_core::frame::{FrameError, FrameReader, FrameWriter, StreamHeader};
use std::io::BufWriter;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default bound on establishing a TCP connection. A dead or
/// unroutable peer (a crashed upstream collector, a typo'd `--connect`)
/// fails fast with a named error instead of hanging for the OS default
/// (minutes on most platforms) — fleet tests and CI depend on this.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Default bound on any single socket read/write making no progress.
/// Generous enough for a snapshot of any realistic state size over
/// loopback or LAN; a peer that goes silent mid-response surfaces as a
/// timed-out I/O error rather than a hung client.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Connect with [`CONNECT_TIMEOUT`] and arm both socket directions
/// with `io_timeout`. `TcpStream::connect_timeout` needs a resolved
/// address, so resolution errors and per-address failures are folded
/// into one named error.
fn connect_within(
    addr: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<TcpStream, String> {
    let addrs = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?;
    let mut last_error = None;
    for resolved in addrs {
        match TcpStream::connect_timeout(&resolved, connect_timeout) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(io_timeout))
                    .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
                    .map_err(|e| format!("cannot configure the socket: {e}"))?;
                return Ok(stream);
            }
            Err(e) => last_error = Some(e),
        }
    }
    Err(match last_error {
        Some(e) => format!("cannot connect to {addr}: {e}"),
        None => format!("cannot connect to {addr}: address resolved to nothing"),
    })
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    connect_within(addr, CONNECT_TIMEOUT, IO_TIMEOUT)
}

/// The frame writer handed to [`push_with`] callbacks.
pub type PushWriter = FrameWriter<BufWriter<TcpStream>>;

/// Push one report stream — header frame, then every report frame — and
/// wait for the server's `Ingested` acknowledgement, which confirms the
/// reports were *absorbed* (not merely received). Returns the absorbed
/// count.
pub fn push_reports(addr: &str, header: &StreamHeader, frames: &[Vec<u8>]) -> Result<u64, String> {
    push_with(addr, header, |writer| {
        for frame in frames {
            writer.write_frame(frame)?;
        }
        Ok(())
    })
}

/// Push exactly one report frame (typically a `REPORT_BATCH` payload
/// built by the batched encode kernels) as its own stream — header,
/// frame, half-close, acknowledgement. One connection per call: this is
/// the open-loop load generator's send primitive, where each scheduled
/// batch's ack latency is measured over its own connection.
pub fn push_frame(addr: &str, header: &StreamHeader, frame: &[u8]) -> Result<u64, String> {
    push_with(addr, header, |writer| writer.write_frame(frame))
}

/// The shared push path: connect, write the header frame and whatever
/// report frames `write_reports` produces, half-close, and decode the
/// server's verdict. Public so callers (the `load` traffic generator)
/// can stream frames as they are encoded instead of materializing the
/// whole stream first.
pub fn push_with<F>(addr: &str, header: &StreamHeader, write_reports: F) -> Result<u64, String>
where
    F: FnOnce(&mut PushWriter) -> Result<(), FrameError>,
{
    let stream = connect(addr)?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone the socket: {e}"))?;
    let mut reader = FrameReader::new(read_half);
    let mut writer = FrameWriter::new(BufWriter::new(stream));

    let wrote = (|| {
        writer.write_frame(&header.to_bytes())?;
        write_reports(&mut writer)?;
        writer.flush()
    })();
    if wrote.is_ok() {
        // Half-close the write side so the server sees a clean
        // end-of-stream and answers with the ingest acknowledgement.
        if let Ok(stream) = writer.into_inner().into_inner() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
    // Read the server's verdict even if our writes died on a broken
    // pipe — the server rejects streams by replying and closing, and
    // its error message beats "connection reset".
    let response = reader
        .next_frame()
        .map_err(|e| format!("no ingest acknowledgement: {e}"))
        .and_then(|frame| {
            frame.ok_or_else(|| "server closed the stream without acknowledging".to_string())
        })
        .and_then(|frame| {
            Response::from_bytes(&frame).map_err(|e| format!("bad acknowledgement frame: {e}"))
        });
    match response {
        Ok(Response::Ingested(reports)) => Ok(reports),
        Ok(Response::Error(message)) => Err(format!("server rejected the stream: {message}")),
        Ok(other) => Err(format!("unexpected ingest acknowledgement: {other:?}")),
        Err(e) => match wrote {
            Err(write_error) => Err(format!("cannot push reports: {write_error}")),
            Ok(()) => Err(e),
        },
    }
}

/// A control session: one connection carrying any number of sequential
/// request/response exchanges.
pub struct Control {
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<BufWriter<TcpStream>>,
}

impl Control {
    /// Open a control connection to a running server, bounded by the
    /// default [`CONNECT_TIMEOUT`] and [`IO_TIMEOUT`] — a dead peer
    /// fails fast instead of hanging the caller.
    pub fn connect(addr: &str) -> Result<Control, String> {
        Control::connect_within(addr, CONNECT_TIMEOUT, IO_TIMEOUT)
    }

    /// Open a control connection with explicit connect and I/O
    /// timeouts (the relay loop uses tighter bounds than the default
    /// so a dead upstream costs one backoff step, not half a minute).
    pub fn connect_within(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<Control, String> {
        let stream = connect_within(addr, connect_timeout, io_timeout)?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot configure the socket: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Control {
            reader: FrameReader::new(read_half),
            writer: FrameWriter::new(BufWriter::new(stream)),
        })
    }

    /// Send one request and wait for its response frame. A
    /// [`Response::Error`] is surfaced as `Err`.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.writer
            .write_frame(&request.to_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("cannot send the request: {e}"))?;
        let frame = self
            .reader
            .next_frame()
            .map_err(|e| format!("no response: {e}"))?
            .ok_or_else(|| "server closed the connection without responding".to_string())?;
        match Response::from_bytes(&frame).map_err(|e| format!("bad response frame: {e}"))? {
            Response::Error(message) => Err(message),
            response => Ok(response),
        }
    }
}
