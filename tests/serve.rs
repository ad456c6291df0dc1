//! End-to-end proof that the live aggregation server is byte-identical
//! to the batch pipeline: the snapshot of a real `ldp-cli serve`
//! process after **concurrent** multi-client ingest must equal — byte
//! for byte — a serial single-process `ldp-cli ingest` of the same
//! reports, for mechanisms and oracles alike. Also covers the failure
//! paths an internet-facing collector must survive: mid-stream
//! disconnects, malformed headers, and cross-pipeline streams.
//!
//! Every test shells out to the real binary for the server and the
//! reference pipeline; the concurrent clients are raw `TcpStream`
//! writers speaking the framed wire format directly, so the protocol is
//! exercised by an implementation independent of `ldp_server::client`.
//!
//! The `REPORT_BATCH` frames (wire v4, the only report frame) get their
//! own fault-injection layer: batched streams written to the socket in
//! adversarial chunk sizes (down to one byte, splitting length
//! prefixes), clients killed mid-batch-frame, corrupt batch envelopes,
//! and frames of the retired wire versions — in every case the server
//! must keep exactly the complete frames it saw and end up
//! byte-identical to serial ingest once the tail is resent.
//!
//! The connection path has its own cases: a shutdown request wakes an
//! accept loop that is blocked with no connection pending (on IPv4,
//! wildcard and IPv6 binds) and ends the server promptly even with idle
//! connections open, `--max-connections` refuses one connection too
//! many by name and keeps serving, a header-only push acks at once
//! without touching the state, and a server out of file descriptors
//! waits for a connection to close instead of exiting.
//!
//! Resource and latency bounds of the sharded ingest path: a pusher
//! faster than absorb is held back by TCP (the server's peak RSS stays
//! flat while it streams 128 MiB), and marginal queries answer within
//! a fixed bound while four ingest streams saturate four shards.

use ldp_core::frame::{read_snapshot, FrameReader, FrameWriter, StreamHeader};
use ldp_core::wire::Writer;
use ldp_core::{MarginalEstimator, MechanismKind};
use ldp_server::{PushRequest, QueryRequest, QueryTarget, Request, Response};
use marginal_ldp::bits::Mask;
use marginal_ldp::oracles::pipeline::{Client, PipelineAccumulator, PipelineEstimate};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Build (once) and locate the release `ldp-cli` binary.
fn cli_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args(["build", "--release", "-p", "ldp_cli"])
            .current_dir(&root)
            .status()
            .expect("failed to spawn cargo build");
        assert!(status.success(), "cargo build --release -p ldp_cli failed");
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => {
                let dir = PathBuf::from(dir);
                if dir.is_absolute() {
                    dir
                } else {
                    root.join(dir)
                }
            }
            None => root.join("target"),
        };
        let bin = target.join("release").join("ldp-cli");
        assert!(bin.exists(), "missing {}", bin.display());
        bin
    })
    .clone()
}

/// Run the binary to completion, asserting success; returns stdout.
fn run_cli(args: &[&str], stdin: Option<&[u8]>) -> Vec<u8> {
    let mut cmd = Command::new(cli_bin());
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("failed to spawn ldp-cli");
    if let Some(bytes) = stdin {
        child
            .stdin
            .take()
            .unwrap()
            .write_all(bytes)
            .expect("failed to feed stdin");
    } else {
        drop(child.stdin.take());
    }
    let output = child.wait_with_output().expect("failed to wait on ldp-cli");
    assert!(
        output.status.success(),
        "ldp-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// A running `ldp-cli serve` process on an OS-picked port.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawn the server on `127.0.0.1:0`.
    fn start(extra_args: &[&str]) -> ServerProc {
        ServerProc::start_on("127.0.0.1:0", extra_args)
    }

    /// Spawn the server bound to `listen`.
    fn start_on(listen: &str, extra_args: &[&str]) -> ServerProc {
        let mut cmd = Command::new(cli_bin());
        cmd.args(["serve", "--listen", listen, "--shards", "4"])
            .args(extra_args);
        ServerProc::spawn(cmd)
    }

    /// Spawn the server on `127.0.0.1:0` under `ulimit -n nofile`: the
    /// shell lowers its descriptor limit, then execs the server in its
    /// place (so the child's pid is the server's).
    fn start_with_nofile(nofile: u32, extra_args: &[&str]) -> ServerProc {
        let mut cmd = Command::new("sh");
        cmd.arg("-c")
            .arg(format!("ulimit -n {nofile} && exec \"$0\" \"$@\""))
            .arg(cli_bin())
            .args(["serve", "--listen", "127.0.0.1:0", "--shards", "4"])
            .args(extra_args);
        ServerProc::spawn(cmd)
    }

    /// Run a `serve` command and parse the bound address off its first
    /// stderr line (`serving on HOST:PORT (W shards)`). A wildcard bind
    /// is reached over the loopback of its family.
    fn spawn(mut cmd: Command) -> ServerProc {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("failed to spawn ldp-cli serve");
        let stderr = child.stderr.take().unwrap();
        let mut lines = BufReader::new(stderr);
        let mut first = String::new();
        lines
            .read_line(&mut first)
            .expect("failed to read the server's first stderr line");
        let addr = first
            .trim()
            .strip_prefix("serving on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line: {first:?}"))
            .split_whitespace()
            .next()
            .expect("address on the first stderr line")
            .replace("0.0.0.0:", "127.0.0.1:")
            .replace("[::]:", "[::1]:");
        // Keep draining stderr so the server never blocks on the pipe.
        std::thread::spawn(move || for _ in lines.lines() {});
        ServerProc { child, addr }
    }

    /// Ask for a graceful shutdown and wait for a clean exit.
    fn shutdown(mut self) {
        run_cli(&["shutdown", "--connect", &self.addr], None);
        let status = self.child.wait().expect("failed to wait on the server");
        assert!(status.success(), "server exited with {status}");
    }

    /// Wait for the server to exit 0 no later than `limit` after
    /// `since`; a server still running then is killed and fails the
    /// test.
    fn exits_within(mut self, since: Instant, limit: Duration) {
        loop {
            if let Some(status) = self.child.try_wait().expect("poll the server") {
                let took = since.elapsed();
                assert!(status.success(), "server exited with {status}");
                assert!(
                    took <= limit,
                    "server took {took:?} to exit (limit {limit:?})"
                );
                return;
            }
            if since.elapsed() > limit {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("server still running {limit:?} after the shutdown request");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    /// A test that fails before its shutdown must not leave its server
    /// running (after a shutdown this reaps an exited process).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Open a client socket with a read timeout (tests must not hang).
fn client_socket(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Read one response frame from a socket.
fn read_response(stream: &TcpStream) -> Response {
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    let frame = reader
        .next_frame()
        .expect("read a response frame")
        .expect("server closed without responding");
    Response::from_bytes(&frame).expect("decode the response frame")
}

/// Send one control request on an open connection and read its answer.
fn request(stream: &TcpStream, request: &Request) -> Response {
    let mut writer = FrameWriter::new(stream.try_clone().unwrap());
    writer.write_frame(&request.to_bytes()).unwrap();
    writer.flush().unwrap();
    read_response(stream)
}

/// Fetch the live snapshot file bytes with the real `snapshot` command.
fn live_snapshot(addr: &str, path: &Path) -> Vec<u8> {
    run_cli(
        &[
            "snapshot",
            "--connect",
            addr,
            "--output",
            path.to_str().unwrap(),
        ],
        None,
    );
    std::fs::read(path).unwrap()
}

/// The deterministic test population: n records over d attributes.
fn population(d: u32, n: usize) -> Vec<u64> {
    let full = (1u64 << d) - 1;
    (0..n as u64)
        .map(|i| (i.wrapping_mul(7) + 3) & full)
        .collect()
}

/// Encode a framed report stream with the real binary and split it into
/// the header frame plus the individual report frames.
fn encoded_stream(dir: &Path, protocol: &str, extra: &[&str], n: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    encoded_stream_shaped(dir, protocol, 4, 2, extra, n)
}

/// [`encoded_stream`] over `d` attributes for marginals up to order `k`.
fn encoded_stream_shaped(
    dir: &Path,
    protocol: &str,
    d: u32,
    k: u32,
    extra: &[&str],
    n: usize,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let rows = population(d, n);
    let csv: String = rows.iter().map(|r| format!("{r}\n")).collect();
    let (d, k) = (d.to_string(), k.to_string());
    let mut args = vec![
        "encode",
        "--protocol",
        protocol,
        "--d",
        &d,
        "--k",
        &k,
        "--eps",
        "1.1",
        "--seed",
        "42",
    ];
    args.extend(extra);
    let stream = run_cli(&args, Some(csv.as_bytes()));
    std::fs::write(dir.join("stream.bin"), &stream).unwrap();
    let mut reader = FrameReader::new(stream.as_slice());
    let header = reader.next_frame().unwrap().expect("header frame");
    StreamHeader::from_bytes(&header).expect("header frame must parse");
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().unwrap() {
        frames.push(frame);
    }
    (header, frames)
}

/// Write `frames` to a socket as one framed stream, half-close, and
/// return the server's acknowledgement.
///
/// A server that rejects the stream replies — and closes — without
/// consuming the remaining frames, so a write can race the rejection
/// and fail with a broken pipe. The response frame, not the write, is
/// what the tests assert on: on a write error, stop writing and read
/// whatever the server sent.
fn push_stream(addr: &str, header: &[u8], frames: &[Vec<u8>]) -> Response {
    let stream = client_socket(addr);
    let mut writer = FrameWriter::new(stream.try_clone().unwrap());
    let wrote = (|| {
        writer.write_frame(header)?;
        for frame in frames {
            writer.write_frame(frame)?;
        }
        writer.flush()
    })();
    if wrote.is_ok() {
        // The half-close races the same rejection: a server that has
        // already replied and closed makes it fail with "not
        // connected", and the response is still there to read.
        let _ = stream.shutdown(Shutdown::Write);
    }
    read_response(&stream)
}

/// Write raw stream bytes to a socket in adversarial chunk sizes
/// (cycling `sizes`), flushing after every chunk, so the server's
/// buffered `FrameReader` sees frame boundaries split at arbitrary
/// byte offsets — inside length prefixes, mid-payload, everywhere.
fn write_chunked(stream: &mut TcpStream, bytes: &[u8], sizes: &[usize]) {
    let mut start = 0usize;
    let mut i = 0usize;
    while start < bytes.len() {
        let take = sizes[i % sizes.len()].max(1).min(bytes.len() - start);
        stream.write_all(&bytes[start..start + take]).unwrap();
        stream.flush().unwrap();
        start += take;
        i += 1;
    }
}

/// A per-test scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_serve_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole proof: four *simultaneous* client connections stream
/// disjoint quarters of a report stream into the live server, and the
/// live snapshot — and the final on-shutdown snapshot — are
/// byte-identical to a serial single-process `ingest` of the unsplit
/// stream. Covered for a mechanism whose accumulator is a count map
/// (InpEM), a dense-table mechanism (MargPS), and an oracle (HCMS).
#[test]
fn concurrent_ingest_is_byte_identical_to_serial_ingest() {
    for (protocol, extra) in [
        ("MargPS", &["--batch", "1"][..]),
        ("InpEM", &["--batch", "1"][..]),
        (
            "HCMS",
            &[
                "--hashes",
                "3",
                "--width",
                "16",
                "--family-seed",
                "9",
                "--batch",
                "1",
            ][..],
        ),
    ] {
        let dir = scratch(&format!("determinism_{protocol}"));
        let (header, frames) = encoded_stream(&dir, protocol, extra, 2_000);
        let final_path = dir.join("final.bin");
        let server = ServerProc::start(&["--output", final_path.to_str().unwrap()]);

        // Four clients push disjoint quarters concurrently; each waits
        // for the server's "absorbed" acknowledgement.
        let quarter = frames.len().div_ceil(4);
        std::thread::scope(|scope| {
            for slice in frames.chunks(quarter) {
                let (addr, header) = (&server.addr, &header);
                scope.spawn(move || {
                    match push_stream(addr, header, slice) {
                        Response::Ingested(n) => assert_eq!(n as usize, slice.len()),
                        other => panic!("{protocol}: unexpected ack {other:?}"),
                    };
                });
            }
        });

        // Live snapshot from the serving process…
        let live_path = dir.join("live.bin");
        run_cli(
            &[
                "snapshot",
                "--connect",
                &server.addr,
                "--output",
                live_path.to_str().unwrap(),
            ],
            None,
        );
        // …vs a serial single-process ingest of the unsplit stream.
        let serial_path = dir.join("serial.bin");
        run_cli(
            &[
                "ingest",
                "--input",
                dir.join("stream.bin").to_str().unwrap(),
                "--output",
                serial_path.to_str().unwrap(),
            ],
            None,
        );
        let live = std::fs::read(&live_path).unwrap();
        let serial = std::fs::read(&serial_path).unwrap();
        assert_eq!(
            live, serial,
            "{protocol}: live snapshot differs from serial ingest"
        );

        // Remote queries print exactly what a local query prints —
        // both the full enumeration (served via one snapshot fetch)…
        let remote = run_cli(&["query", "--connect", &server.addr], None);
        let local = run_cli(&["query", "--input", serial_path.to_str().unwrap()], None);
        assert_eq!(
            remote, local,
            "{protocol}: query --connect differs from local query"
        );
        // …and a single named target (served via the server-side query
        // endpoint, REQ_QUERY).
        let serial_str = serial_path.to_str().unwrap();
        let target: &[&str] = if protocol == "HCMS" {
            &["--value", "3"]
        } else {
            &["--marginal", "0,3", "--normalize"]
        };
        let mut remote_args = vec!["query", "--connect", &server.addr];
        remote_args.extend(target);
        let mut local_args = vec!["query", "--input", serial_str];
        local_args.extend(target);
        assert_eq!(
            run_cli(&remote_args, None),
            run_cli(&local_args, None),
            "{protocol}: single-target remote query differs from local"
        );

        // Stats reflect the absorbed stream.
        let stats =
            String::from_utf8(run_cli(&["stats", "--connect", &server.addr], None)).unwrap();
        assert!(
            stats.contains("reports: 2000 absorbed"),
            "{protocol}: unexpected stats:\n{stats}"
        );
        assert!(
            stats.contains(protocol),
            "{protocol}: stats name the pipeline:\n{stats}"
        );

        // Graceful shutdown writes the same snapshot once more.
        server.shutdown();
        let final_snapshot = std::fs::read(&final_path).unwrap();
        assert_eq!(
            final_snapshot, serial,
            "{protocol}: final on-shutdown snapshot differs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `load`'s user numbering is contiguous across its client threads, so
/// a loaded server's snapshot equals a serial `encode --generate |
/// ingest` of the same population and seed.
#[test]
fn load_traffic_matches_serial_encode_ingest() {
    let dir = scratch("load");
    let server = ServerProc::start(&[]);
    run_cli(
        &[
            "load",
            "--connect",
            &server.addr,
            "--protocol",
            "MargPS",
            "--d",
            "8",
            "--k",
            "2",
            "--eps",
            "1.1",
            "--seed",
            "7",
            "--clients",
            "4",
            "--reports",
            "400",
        ],
        None,
    );
    let live_path = dir.join("live.bin");
    run_cli(
        &[
            "snapshot",
            "--connect",
            &server.addr,
            "--output",
            live_path.to_str().unwrap(),
        ],
        None,
    );
    server.shutdown();

    let stream = run_cli(
        &[
            "encode",
            "--protocol",
            "MargPS",
            "--d",
            "8",
            "--k",
            "2",
            "--eps",
            "1.1",
            "--seed",
            "7",
            "--generate",
            "taxi",
            "--n",
            "1600",
        ],
        None,
    );
    let serial = run_cli(&["ingest"], Some(&stream));
    assert_eq!(
        std::fs::read(&live_path).unwrap(),
        serial,
        "loaded snapshot differs from serial encode | ingest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed and mismatched first frames are rejected with a named
/// error on the wire — and the server keeps serving afterwards.
#[test]
fn malformed_and_mismatched_headers_are_rejected() {
    let dir = scratch("malformed");
    let (header, frames) = encoded_stream(&dir, "MargPS", &["--batch", "1"], 40);
    let server = ServerProc::start(&[]);

    // Garbage first frame: neither a header nor a request.
    let stream = client_socket(&server.addr);
    let mut writer = FrameWriter::new(stream.try_clone().unwrap());
    writer.write_frame(&[0x99, 0x01, 0x02]).unwrap();
    writer.flush().unwrap();
    match read_response(&stream) {
        Response::Error(message) => assert!(
            message.contains("expected a stream header or request frame"),
            "unexpected error: {message}"
        ),
        other => panic!("garbage frame got {other:?}"),
    }

    // A frame that claims to be a header but does not parse.
    let stream = client_socket(&server.addr);
    let mut writer = FrameWriter::new(stream.try_clone().unwrap());
    writer.write_frame(&[0x40, 0x01, 0xFF]).unwrap();
    writer.flush().unwrap();
    match read_response(&stream) {
        Response::Error(message) => {
            assert!(message.contains("bad header frame"), "{message}");
        }
        other => panic!("truncated header got {other:?}"),
    }

    // Establish MargPS, then offer a MargHT stream: refused.
    match push_stream(&server.addr, &header, &frames) {
        Response::Ingested(40) => {}
        other => panic!("establishing stream got {other:?}"),
    }
    let (other_header, other_frames) = encoded_stream(&dir, "MargHT", &["--batch", "1"], 4);
    match push_stream(&server.addr, &other_header, &other_frames) {
        Response::Error(message) => assert!(
            message.contains("does not match the established"),
            "{message}"
        ),
        other => panic!("mismatched header got {other:?}"),
    }

    // Through all of that, the server kept serving.
    let stats = String::from_utf8(run_cli(&["stats", "--connect", &server.addr], None)).unwrap();
    assert!(stats.contains("reports: 40 absorbed"), "{stats}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that dies mid-frame loses only its partial frame: every
/// complete report stays absorbed, the server stays up, and resending
/// the unacknowledged tail converges to the exact serial-ingest bytes.
#[test]
fn mid_stream_disconnect_keeps_complete_reports_only() {
    let dir = scratch("disconnect");
    let (header, frames) = encoded_stream(&dir, "MargPS", &["--batch", "1"], 200);
    let server = ServerProc::start(&[]);

    // Send the header, 3 complete reports, and half of a fourth frame —
    // then vanish without the clean half-close.
    {
        let stream = client_socket(&server.addr);
        let mut writer = FrameWriter::new(stream.try_clone().unwrap());
        writer.write_frame(&header).unwrap();
        for frame in &frames[..3] {
            writer.write_frame(frame).unwrap();
        }
        writer.flush().unwrap();
        let partial = &frames[3][..frames[3].len() / 2];
        let mut raw = writer.into_inner();
        raw.write_all(&(frames[3].len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(partial).unwrap();
        raw.flush().unwrap();
        // Dropping both handles closes the socket mid-frame.
    }

    // The 3 complete reports land; the partial frame is dropped.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats =
            String::from_utf8(run_cli(&["stats", "--connect", &server.addr], None)).unwrap();
        if stats.contains("reports: 3 absorbed") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never settled at 3 reports:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // A well-behaved client resends everything the server never
    // acknowledged (reports 3..): the union is each report exactly
    // once, so the snapshot equals a serial ingest of the full stream.
    match push_stream(&server.addr, &header, &frames[3..]) {
        Response::Ingested(n) => assert_eq!(n as usize, frames.len() - 3),
        other => panic!("resend got {other:?}"),
    }
    let live_path = dir.join("live.bin");
    run_cli(
        &[
            "snapshot",
            "--connect",
            &server.addr,
            "--output",
            live_path.to_str().unwrap(),
        ],
        None,
    );
    let serial = run_cli(
        &["ingest"],
        Some(&std::fs::read(dir.join("stream.bin")).unwrap()),
    );
    assert_eq!(
        std::fs::read(&live_path).unwrap(),
        serial,
        "post-disconnect snapshot differs from serial ingest"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batched stream pushed through adversarially chunked socket writes
/// — one-byte writes, chunk splits inside length prefixes and
/// mid-payload — is reassembled without tearing a single frame: the ack
/// covers every report, and both the live snapshot and a serial
/// `ingest` of the batched stream file are byte-identical to ingesting
/// the same population in batches of one.
#[test]
fn batched_stream_survives_adversarial_chunked_writes() {
    let batched_dir = scratch("chunked_batched");
    let single_dir = scratch("chunked_single");
    let (_, _) = encoded_stream(&batched_dir, "MargPS", &["--batch", "7"], 200);
    let (_, _) = encoded_stream(&single_dir, "MargPS", &["--batch", "1"], 200);
    let batched_bytes = std::fs::read(batched_dir.join("stream.bin")).unwrap();
    let server = ServerProc::start(&[]);

    // The whole framed stream, dribbled onto the socket in chunks that
    // ignore every frame boundary (the leading 1s split the very first
    // length prefix).
    let mut stream = client_socket(&server.addr);
    write_chunked(
        &mut stream,
        &batched_bytes,
        &[1, 1, 2, 3, 5, 7, 11, 1, 64, 1024],
    );
    stream.shutdown(Shutdown::Write).unwrap();
    match read_response(&stream) {
        Response::Ingested(200) => {}
        other => panic!("chunked batched stream got {other:?}"),
    }

    let live_path = batched_dir.join("live.bin");
    run_cli(
        &[
            "snapshot",
            "--connect",
            &server.addr,
            "--output",
            live_path.to_str().unwrap(),
        ],
        None,
    );
    server.shutdown();

    // Serial ingest of the batched file and of the unbatched stream of
    // the same population agree with the served state: batch framing is
    // a pure re-chunking.
    let serial_batched = run_cli(&["ingest"], Some(&batched_bytes));
    let serial_single = run_cli(
        &["ingest"],
        Some(&std::fs::read(single_dir.join("stream.bin")).unwrap()),
    );
    let live = std::fs::read(&live_path).unwrap();
    assert_eq!(
        live, serial_batched,
        "served batched snapshot differs from serial ingest of the batched stream"
    );
    assert_eq!(
        serial_batched, serial_single,
        "batched stream ingests differently from the unbatched stream"
    );
    let _ = std::fs::remove_dir_all(&batched_dir);
    let _ = std::fs::remove_dir_all(&single_dir);
}

/// A client killed in the middle of a `REPORT_BATCH` frame loses only
/// that torn frame: every complete batch stays absorbed, and resending
/// the unacknowledged batches converges to the serial-ingest bytes.
#[test]
fn mid_batch_disconnect_keeps_complete_batches_only() {
    let dir = scratch("batch_disconnect");
    let (header, frames) = encoded_stream(&dir, "MargPS", &["--batch", "5"], 100);
    assert_eq!(frames.len(), 20, "expected 20 batch frames of 5 reports");
    let server = ServerProc::start(&[]);

    // Header, two complete batch frames (10 reports), then a torn
    // third: full length prefix, half the envelope payload, gone.
    {
        let stream = client_socket(&server.addr);
        let mut writer = FrameWriter::new(stream.try_clone().unwrap());
        writer.write_frame(&header).unwrap();
        for frame in &frames[..2] {
            writer.write_frame(frame).unwrap();
        }
        writer.flush().unwrap();
        let partial = &frames[2][..frames[2].len() / 2];
        let mut raw = writer.into_inner();
        raw.write_all(&(frames[2].len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(partial).unwrap();
        raw.flush().unwrap();
    }

    // Exactly the two complete batches land.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats =
            String::from_utf8(run_cli(&["stats", "--connect", &server.addr], None)).unwrap();
        if stats.contains("reports: 10 absorbed") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never settled at 10 reports:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Resend everything unacknowledged (batches 2..) and compare with
    // serial ingest of the full batched stream.
    match push_stream(&server.addr, &header, &frames[2..]) {
        Response::Ingested(n) => assert_eq!(n, 90),
        other => panic!("batch resend got {other:?}"),
    }
    let live_path = dir.join("live.bin");
    run_cli(
        &[
            "snapshot",
            "--connect",
            &server.addr,
            "--output",
            live_path.to_str().unwrap(),
        ],
        None,
    );
    let serial = run_cli(
        &["ingest"],
        Some(&std::fs::read(dir.join("stream.bin")).unwrap()),
    );
    assert_eq!(
        std::fs::read(&live_path).unwrap(),
        serial,
        "post-mid-batch-disconnect snapshot differs from serial ingest"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batch decode-error matrix over the wire: a count the body does
/// not hold, a future envelope version, a batch of another protocol,
/// and frames of the retired wire versions (a v2 batch body, a v1
/// single-report frame, each named by its version) are each rejected
/// with a named error on the ack — and the server keeps serving, with
/// every complete good batch it saw still absorbed.
#[test]
fn corrupt_batch_frames_are_rejected_on_the_ack() {
    let dir = scratch("batch_corrupt");
    let (header, frames) = encoded_stream(&dir, "MargPS", &["--batch", "4"], 40);
    let server = ServerProc::start(&[]);

    // Count overshoot: claims 1000 reports, the body holds 4.
    let mut forged = frames[0].clone();
    forged[10..14].copy_from_slice(&1000u32.to_le_bytes());
    match push_stream(&server.addr, &header, std::slice::from_ref(&forged)) {
        Response::Error(message) => {
            assert!(message.contains("bad report batch frame"), "{message}");
        }
        other => panic!("count-overshoot batch got {other:?}"),
    }

    // Future envelope version: rejected cleanly, not mis-decoded.
    let mut forged = frames[0].clone();
    forged[1] = 0x7F;
    match push_stream(&server.addr, &header, std::slice::from_ref(&forged)) {
        Response::Error(message) => {
            assert!(message.contains("wire-v127 batch is newer"), "{message}");
        }
        other => panic!("future-version batch got {other:?}"),
    }

    // A batch whose reports belong to another protocol.
    let (_, alien) = encoded_stream(&dir, "MargHT", &["--batch", "4"], 4);
    match push_stream(&server.addr, &header, &alien) {
        Response::Error(message) => assert!(
            message.contains("a MargHT d=4 k=2 batch cannot be absorbed by a MargPS d=4 k=2"),
            "{message}"
        ),
        other => panic!("cross-protocol batch got {other:?}"),
    }

    // Frames of the retired wire versions: a v2 batch of one MargPS
    // report (count, then the report's own tag, version and fields), and
    // the same report as a v1 single-report frame.
    let v1_report = [0x25, 1, 4, 0, 0, 0, 3, 0];
    let mut v2_batch = vec![0x41, 2, 1, 0, 0, 0];
    v2_batch.extend_from_slice(&[0x25, 2, 4, 0, 0, 0, 3, 0]);
    for (frame, version) in [
        (v2_batch, "wire-v2 batch is older"),
        (v1_report.to_vec(), "wire-v1"),
    ] {
        match push_stream(&server.addr, &header, &[frame]) {
            Response::Error(message) => assert!(message.contains(version), "{message}"),
            other => panic!("{version} frame got {other:?}"),
        }
    }

    // An empty batch frame is legal and absorbs nothing.
    let client = Client::from_header(&StreamHeader::from_bytes(&header).unwrap()).unwrap();
    let mut empty = Writer::default();
    client.encode_batch(&[], 42, 0, &mut empty);
    match push_stream(&server.addr, &header, &[empty.into_bytes()]) {
        Response::Ingested(0) => {}
        other => panic!("empty batch got {other:?}"),
    }

    // Through all of that the server kept serving; the good stream
    // still lands in full.
    match push_stream(&server.addr, &header, &frames) {
        Response::Ingested(40) => {}
        other => panic!("good batched stream got {other:?}"),
    }
    let stats = String::from_utf8(run_cli(&["stats", "--connect", &server.addr], None)).unwrap();
    assert!(stats.contains("reports: 40 absorbed"), "{stats}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report whose index lies outside the pipeline's shape — here a
/// MargPS marginal past `C(4,2) = 6` — is refused with an error naming
/// the field and its bound, instead of panicking the worker it lands
/// on. Every shard keeps serving: ten good batches, pushed one per
/// stream so the round robin hands each of the four workers at least
/// two, are each acknowledged, and the snapshot equals a serial ingest
/// of the good reports.
#[test]
fn out_of_range_reports_are_refused_and_every_shard_keeps_serving() {
    let dir = scratch("out_of_range");
    let (header, frames) = encoded_stream(&dir, "MargPS", &["--batch", "4"], 40);
    assert_eq!(frames.len(), 10);
    let server = ServerProc::start(&[]);

    // The first report's 3-bit marginal is the low bits of the byte
    // after the 14-byte envelope; 7 fits the field but not C(4,2).
    let mut forged = frames[0].clone();
    forged[14] |= 0b111;
    match push_stream(&server.addr, &header, &[forged]) {
        Response::Error(message) => assert!(
            message.contains("MargPS marginal 7") && message.contains("below 6"),
            "{message}"
        ),
        other => panic!("out-of-range batch got {other:?}"),
    }

    for (i, frame) in frames.iter().enumerate() {
        match push_stream(&server.addr, &header, std::slice::from_ref(frame)) {
            Response::Ingested(4) => {}
            other => panic!("good batch {i} got {other:?}"),
        }
    }
    let stats = String::from_utf8(run_cli(&["stats", "--connect", &server.addr], None)).unwrap();
    assert!(
        stats.contains("reports: 40 absorbed, 1 frames rejected"),
        "{stats}"
    );

    let live_path = dir.join("live.bin");
    run_cli(
        &[
            "snapshot",
            "--connect",
            &server.addr,
            "--output",
            live_path.to_str().unwrap(),
        ],
        None,
    );
    server.shutdown();
    let serial = run_cli(
        &["ingest"],
        Some(&std::fs::read(dir.join("stream.bin")).unwrap()),
    );
    assert_eq!(
        std::fs::read(&live_path).unwrap(),
        serial,
        "snapshot after a refused batch differs from serial ingest of the good reports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pull an integer field out of a flat JSON object without a JSON
/// dependency: finds `"key":` and parses the digits that follow.
fn json_u64(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("missing {key:?} in:\n{text}"));
    text[at + needle.len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad {key:?} value ({e}) in:\n{text}"))
}

/// The open-loop load generator against a real server: the run exits
/// cleanly, the latency histogram's total count equals the number of
/// batches sent, and the server acknowledges every report.
#[test]
fn open_loop_load_reports_a_complete_latency_histogram() {
    let dir = scratch("open_loop");
    let hist_path = dir.join("hist.json");
    let server = ServerProc::start(&[]);
    run_cli(
        &[
            "load",
            "--connect",
            &server.addr,
            "--protocol",
            "MargPS",
            "--d",
            "8",
            "--k",
            "2",
            "--eps",
            "1.1",
            "--seed",
            "7",
            "--clients",
            "2",
            "--rate",
            "20000",
            "--duration",
            "1.0",
            "--batch",
            "128",
            "--hist-output",
            hist_path.to_str().unwrap(),
        ],
        None,
    );
    let json = std::fs::read_to_string(&hist_path).expect("histogram JSON written");
    let sent_batches = json_u64(&json, "sent_batches");
    let sent_reports = json_u64(&json, "sent_reports");
    let acked = json_u64(&json, "acked");
    // rate/batch = 156.25 events/s over 1 s: the schedule admits
    // ⌈156.25⌉ = 157 events regardless of machine speed.
    assert!(sent_batches > 0, "open-loop run sent nothing:\n{json}");
    assert_eq!(
        sent_reports,
        sent_batches * 128,
        "batch accounting:\n{json}"
    );
    assert_eq!(acked, sent_reports, "server missed reports:\n{json}");
    // The acceptance criterion: every sent batch has exactly one
    // latency sample (the histogram count inside "ack_latency").
    let ack_latency = json
        .split("\"ack_latency\":")
        .nth(1)
        .expect("ack_latency object");
    assert_eq!(
        json_u64(ack_latency, "count"),
        sent_batches,
        "histogram count != sent batches:\n{json}"
    );

    // The server really absorbed the open-loop traffic.
    let stats = String::from_utf8(run_cli(&["stats", "--connect", &server.addr], None)).unwrap();
    assert!(
        stats.contains(&format!("reports: {sent_reports} absorbed")),
        "stats disagree with the load run:\n{stats}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One connection may mix batches of one (`--batch 1`) and larger
/// batch frames freely: the ack counts every report once and the result
/// is byte-identical to serial ingest.
#[test]
fn mixed_single_and_batch_frames_coexist_on_one_stream() {
    let batched_dir = scratch("mixed_batched");
    let single_dir = scratch("mixed_single");
    let (header, batch_frames) = encoded_stream(&batched_dir, "MargPS", &["--batch", "6"], 60);
    let (_, single_frames) = encoded_stream(&single_dir, "MargPS", &["--batch", "1"], 60);
    assert_eq!(batch_frames.len(), 10);
    let server = ServerProc::start(&[]);

    // First half as batch frames (reports 0..30), second half as
    // batches of one (reports 30..60).
    let mut mixed: Vec<Vec<u8>> = batch_frames[..5].to_vec();
    mixed.extend_from_slice(&single_frames[30..]);
    match push_stream(&server.addr, &header, &mixed) {
        Response::Ingested(60) => {}
        other => panic!("mixed stream got {other:?}"),
    }

    let live_path = batched_dir.join("live.bin");
    run_cli(
        &[
            "snapshot",
            "--connect",
            &server.addr,
            "--output",
            live_path.to_str().unwrap(),
        ],
        None,
    );
    server.shutdown();
    let serial = run_cli(
        &["ingest"],
        Some(&std::fs::read(single_dir.join("stream.bin")).unwrap()),
    );
    assert_eq!(
        std::fs::read(&live_path).unwrap(),
        serial,
        "mixed-frame snapshot differs from serial ingest"
    );
    let _ = std::fs::remove_dir_all(&batched_dir);
    let _ = std::fs::remove_dir_all(&single_dir);
}

/// The accept loop blocks in `accept`, so a shutdown request has to
/// wake it. With no connection pending, a server bound on loopback, on
/// the IPv4 wildcard and (where the host has it) on the IPv6 loopback
/// still exits 0 within a second of the request.
#[test]
fn shutdown_wakes_a_server_blocked_in_accept() {
    let mut listens = vec!["127.0.0.1:0", "0.0.0.0:0"];
    if std::net::TcpListener::bind("[::1]:0").is_ok() {
        listens.push("[::1]:0");
    }
    for listen in listens {
        let server = ServerProc::start_on(listen, &[]);
        // Let the accept loop settle into a blocking `accept`.
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        match request(&client_socket(&server.addr), &Request::Shutdown) {
            Response::Shutdown(0) => {}
            other => panic!("{listen}: shutdown got {other:?}"),
        }
        server.exits_within(asked, Duration::from_secs(1));
    }
}

/// Idle connections do not hold a shutdown up: an ingest stream that
/// sent its header and went quiet, a control session between requests
/// and a connection that never sent a byte all end within one read
/// timeout, and the server exits 0 within a second of the request.
#[test]
fn shutdown_with_idle_connections_open_exits_promptly() {
    let dir = scratch("idle_shutdown");
    let (header, _) = encoded_stream(&dir, "MargPS", &[], 10);
    let server = ServerProc::start(&[]);

    let ingest = client_socket(&server.addr);
    let mut writer = FrameWriter::new(ingest.try_clone().unwrap());
    writer.write_frame(&header).unwrap();
    writer.flush().unwrap();
    let control = client_socket(&server.addr);
    let silent = client_socket(&server.addr);
    // The stats answer also proves all three were admitted.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request(&control, &Request::Stats) {
            Response::Stats(s) if s.header.is_some() && s.connections_active == 3 => break,
            Response::Stats(_) => {}
            other => panic!("stats got {other:?}"),
        }
        assert!(Instant::now() < deadline, "idle connections never settled");
        std::thread::sleep(Duration::from_millis(5));
    }

    let asked = Instant::now();
    match request(&client_socket(&server.addr), &Request::Shutdown) {
        Response::Shutdown(0) => {}
        other => panic!("shutdown got {other:?}"),
    }
    server.exits_within(asked, Duration::from_secs(1));
    drop((ingest, control, silent));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--max-connections 2`: with two control sessions held open, a third
/// connection reads an error frame naming the cap and is closed. Once
/// one held session closes, a push is admitted and acked, and the
/// remaining session's `stats` still answers.
#[test]
fn connections_beyond_the_cap_are_refused_and_the_server_keeps_serving() {
    let dir = scratch("cap");
    let (header, frames) = encoded_stream(&dir, "MargPS", &[], 40);
    let server = ServerProc::start(&["--max-connections", "2"]);

    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let stream = client_socket(&server.addr);
            match request(&stream, &Request::Stats) {
                Response::Stats(_) => stream,
                other => panic!("an admitted session got {other:?}"),
            }
        })
        .collect();
    match read_response(&client_socket(&server.addr)) {
        Response::Error(message) => assert!(
            message.contains("connection cap (2 open connections"),
            "unexpected refusal: {message}"
        ),
        other => panic!("a connection beyond the cap got {other:?}"),
    }

    drop(held.pop());
    let control = held.pop().unwrap();
    // The closed session's handler leaves on its own thread; wait for
    // its slot to free.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request(&control, &Request::Stats) {
            Response::Stats(s) if s.connections_active == 1 => break,
            Response::Stats(_) => {}
            other => panic!("stats got {other:?}"),
        }
        assert!(Instant::now() < deadline, "the closed session never left");
        std::thread::sleep(Duration::from_millis(5));
    }
    match push_stream(&server.addr, &header, &frames) {
        Response::Ingested(n) => assert_eq!(n as usize, 40),
        other => panic!("a push under the cap got {other:?}"),
    }
    match request(&control, &Request::Stats) {
        Response::Stats(s) => assert_eq!(s.reports, 40),
        other => panic!("stats after the push got {other:?}"),
    }
    // Shut down over the held session: a fresh connection could still
    // find the push's slot taken.
    let asked = Instant::now();
    match request(&control, &Request::Shutdown) {
        Response::Shutdown(40) => {}
        other => panic!("shutdown got {other:?}"),
    }
    server.exits_within(asked, Duration::from_secs(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pushed state whose counts no real population reaches (an InpPS
/// d=2 histogram `[u64::MAX, 1, 0, 0]`, whose cells wrap a `usize` sum
/// to 0) still finalizes: every query on it is answered, and each
/// query's connection frees its slot, so `connections_active` returns
/// to the one control session.
#[test]
fn queries_of_a_saturated_pushed_state_are_answered_and_free_their_slots() {
    let server = ServerProc::start(&[]);
    let header = StreamHeader::mechanism(MechanismKind::InpPs, 2, 1, 1.1);
    let mut state = PipelineAccumulator::empty(&header).unwrap().to_bytes();
    let cells = state.len() - 32;
    for (i, count) in [u64::MAX, 1, 0, 0].into_iter().enumerate() {
        state[cells + 8 * i..cells + 8 * (i + 1)].copy_from_slice(&count.to_le_bytes());
    }
    let control = client_socket(&server.addr);
    let push = Request::Push(PushRequest {
        collector: "forged".to_string(),
        epoch: 1,
        header,
        state,
    });
    match request(&client_socket(&server.addr), &push) {
        Response::Push { applied: true, .. } => {}
        other => panic!("the push got {other:?}"),
    }
    let query = Request::Query(QueryRequest {
        target: QueryTarget::Marginal(0b11),
        normalize: false,
    });
    for _ in 0..3 {
        match request(&client_socket(&server.addr), &query) {
            Response::Query(table) => assert_eq!(table.len(), 4),
            other => panic!("a query got {other:?}"),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request(&control, &Request::Stats) {
            Response::Stats(s) if s.connections_active == 1 => break,
            Response::Stats(_) => {}
            other => panic!("stats got {other:?}"),
        }
        assert!(Instant::now() < deadline, "query connections never left");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(control);
    server.shutdown();
}

/// A stream of only a header feeds no worker, so its ack needs no flush
/// round: it acks `Ingested(0)` whether it establishes the pipeline or
/// arrives later, and the snapshot stays byte-identical to serial
/// ingest of the reports that were pushed.
#[test]
fn header_only_push_acks_zero_and_leaves_the_snapshot_unchanged() {
    let dir = scratch("header_only");
    let (header, frames) = encoded_stream(&dir, "MargPS", &["--batch", "16"], 100);
    let server = ServerProc::start(&[]);

    match push_stream(&server.addr, &header, &[]) {
        Response::Ingested(0) => {}
        other => panic!("an establishing header-only push got {other:?}"),
    }
    match push_stream(&server.addr, &header, &frames) {
        Response::Ingested(100) => {}
        other => panic!("the report push got {other:?}"),
    }
    let before = live_snapshot(&server.addr, &dir.join("before.bin"));
    match push_stream(&server.addr, &header, &[]) {
        Response::Ingested(0) => {}
        other => panic!("a later header-only push got {other:?}"),
    }
    let after = live_snapshot(&server.addr, &dir.join("after.bin"));
    assert_eq!(after, before, "a header-only push changed the snapshot");
    let serial = run_cli(
        &["ingest"],
        Some(&std::fs::read(dir.join("stream.bin")).unwrap()),
    );
    assert_eq!(after, serial, "snapshot differs from serial ingest");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Frame payloads as the bytes of a framed stream (length prefixes
/// included).
fn framed<F: AsRef<[u8]>>(frames: &[F]) -> Vec<u8> {
    let mut writer = FrameWriter::new(Vec::new());
    for frame in frames {
        writer.write_frame(frame.as_ref()).unwrap();
    }
    writer.into_inner()
}

/// A process's peak resident set (`VmHWM`), in KiB.
#[cfg(target_os = "linux")]
fn peak_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM line in /proc/{pid}/status"))
}

/// A serial single-process `ingest` of `header` then `body` repeated
/// `reps` times, streamed through its stdin; returns the snapshot bytes.
fn serial_ingest_repeated(header: &[u8], body: &[u8], reps: usize) -> Vec<u8> {
    let mut child = Command::new(cli_bin())
        .arg("ingest")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn ldp-cli ingest");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(&framed(&[header])).unwrap();
    for _ in 0..reps {
        stdin.write_all(body).unwrap();
    }
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    assert!(
        output.status.success(),
        "ldp-cli ingest failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Running out of file descriptors does not end the server. Under
/// `ulimit -n 64`, 100 idle connections exhaust the server's
/// descriptors (the rest wait in the listen backlog); once they close,
/// a push is acked, `stats` answers and `shutdown` exits 0.
#[cfg(target_os = "linux")]
#[test]
fn descriptor_exhaustion_waits_for_a_connection_to_close() {
    let dir = scratch("nofile");
    let (header, frames) = encoded_stream(&dir, "MargPS", &[], 40);
    let mut server = ServerProc::start_with_nofile(64, &[]);
    let fds = format!("/proc/{}/fd", server.child.id());

    let idle: Vec<TcpStream> = (0..100).map(|_| client_socket(&server.addr)).collect();
    // Wait until the server holds every descriptor it may open, so its
    // next `accept` fails for want of one.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = server.child.try_wait().unwrap() {
            panic!("the server exited out of descriptors: {status}");
        }
        if std::fs::read_dir(&fds).unwrap().count() >= 64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the server never ran out of descriptors"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        server.child.try_wait().unwrap().is_none(),
        "the server exited out of descriptors"
    );

    drop(idle);
    match push_stream(&server.addr, &header, &frames) {
        Response::Ingested(40) => {}
        other => panic!("a push after the idle connections closed got {other:?}"),
    }
    match request(&client_socket(&server.addr), &Request::Stats) {
        Response::Stats(s) => assert_eq!(s.reports, 40),
        other => panic!("stats got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pusher faster than absorb is held back by TCP flow control rather
/// than buffered in the server. One raw socket streams 128 MiB of InpRR
/// d=8 batch frames without waiting — 32-byte reports whose absorb adds
/// one counter per bit, far slower than the server reads them. The
/// server's peak RSS grows by less than 32 MiB, and its final snapshot
/// is byte-identical to a serial ingest of the same stream.
#[cfg(target_os = "linux")]
#[test]
fn a_pusher_faster_than_absorb_is_held_back_by_tcp() {
    const STREAM_BYTES: usize = 128 << 20;
    const PEAK_GROWTH_KIB: u64 = 32 << 10;
    let dir = scratch("backpressure");
    let (header, frames) = encoded_stream_shaped(&dir, "InpRR", 8, 2, &[], 8 * 1024);
    let block = framed(&frames);
    let reps = STREAM_BYTES.div_ceil(block.len());
    let final_path = dir.join("final.bin");
    let server = ServerProc::start(&["--output", final_path.to_str().unwrap()]);
    // Establish the pipeline first, so the baseline holds the shards.
    match push_stream(&server.addr, &header, &[]) {
        Response::Ingested(0) => {}
        other => panic!("the header-only push got {other:?}"),
    }
    let before = peak_rss_kib(server.child.id());

    let stream = client_socket(&server.addr);
    let mut writer = &stream;
    writer.write_all(&framed(&[&header])).unwrap();
    for _ in 0..reps {
        writer.write_all(&block).unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    match read_response(&stream) {
        Response::Ingested(n) => assert_eq!(n as usize, reps * 8 * 1024),
        other => panic!("the push got {other:?}"),
    }
    let growth = peak_rss_kib(server.child.id()).saturating_sub(before);
    assert!(
        growth < PEAK_GROWTH_KIB,
        "peak RSS grew by {growth} KiB while absorbing {STREAM_BYTES} bytes of frames"
    );

    server.shutdown();
    let serial = serial_ingest_repeated(&header, &block, reps);
    assert!(
        std::fs::read(&final_path).unwrap() == serial,
        "final snapshot differs from serial ingest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queries are answered promptly while `shards` ingest streams
/// saturate the server: on an InpHT d=16 k=3 server with four shards,
/// four pushers stream copies of one 1024-report frame until 24
/// marginal queries have been answered, each within a fixed bound.
/// Every state the server passes through holds whole copies of that
/// frame, and InpHT's estimate is a per-coefficient ratio that scaling
/// every count leaves bit-identical — so every answer must equal a
/// local finalize of the snapshot taken after the pushers stop.
#[test]
fn queries_answer_within_a_bound_while_ingest_saturates_every_shard() {
    const QUERIES: usize = 24;
    const BOUND: Duration = Duration::from_secs(1);
    const COPIES_PER_WRITE: usize = 64;
    let dir = scratch("query_latency");
    let (header, frames) = encoded_stream_shaped(&dir, "InpHT", 16, 3, &[], 1024);
    assert_eq!(frames.len(), 1, "one 1024-report frame");
    let block = framed(&frames).repeat(COPIES_PER_WRITE);
    let server = ServerProc::start(&[]);
    // One copy first, so no query finds the state empty.
    match push_stream(&server.addr, &header, &frames) {
        Response::Ingested(1024) => {}
        other => panic!("the first push got {other:?}"),
    }

    let masks: Vec<u64> = (0u64..1 << 16)
        .filter(|m| m.count_ones() == 3)
        .step_by(23)
        .take(QUERIES)
        .collect();
    let stop = AtomicBool::new(false);
    let (answers, pushed) = std::thread::scope(|scope| {
        let pushers: Vec<_> = (0..4)
            .map(|_| {
                let (addr, header, block, stop) = (&server.addr, &header, &block, &stop);
                scope.spawn(move || {
                    let stream = client_socket(addr);
                    let mut writer = &stream;
                    writer.write_all(&framed(&[header])).unwrap();
                    let mut writes = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        writer.write_all(block).unwrap();
                        writes += 1;
                    }
                    stream.shutdown(Shutdown::Write).unwrap();
                    let copies = writes * COPIES_PER_WRITE;
                    match read_response(&stream) {
                        Response::Ingested(n) => assert_eq!(n as usize, copies * 1024),
                        other => panic!("a pusher got {other:?}"),
                    }
                    copies
                })
            })
            .collect();
        // Let the pushers fill every shard before the first query.
        std::thread::sleep(Duration::from_millis(200));
        let control = client_socket(&server.addr);
        let answers: Vec<(u64, Vec<f64>, Duration)> = masks
            .iter()
            .map(|&mask| {
                let asked = Instant::now();
                let query = Request::Query(QueryRequest {
                    target: QueryTarget::Marginal(mask),
                    normalize: false,
                });
                let table = match request(&control, &query) {
                    Response::Query(table) => table,
                    other => panic!("query {mask:#x} got {other:?}"),
                };
                let took = asked.elapsed();
                std::thread::sleep(Duration::from_millis(10));
                (mask, table, took)
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        let pushed: usize = pushers.into_iter().map(|p| p.join().unwrap()).sum();
        (answers, pushed)
    });

    let snapshot = live_snapshot(&server.addr, &dir.join("after.bin"));
    let (snap_header, state) = read_snapshot(snapshot.as_slice()).unwrap();
    let acc = PipelineAccumulator::from_state(&snap_header, &state).unwrap();
    assert_eq!(acc.report_count() as usize, (pushed + 1) * 1024);
    let PipelineEstimate::Mechanism(estimate) = acc.finalize() else {
        panic!("InpHT finalizes to a mechanism estimate");
    };
    for (mask, table, took) in answers {
        assert!(
            took <= BOUND,
            "query {mask:#x} took {took:?} beside saturating ingest (bound {BOUND:?})"
        );
        assert!(
            table == estimate.marginal(Mask(mask)),
            "query {mask:#x} differs from a local finalize of the final snapshot"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
