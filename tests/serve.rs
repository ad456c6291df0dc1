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
//! The `REPORT_BATCH` (wire v2) path gets its own fault-injection
//! layer: batched streams written to the socket in adversarial chunk
//! sizes (down to one byte, splitting length prefixes), clients killed
//! mid-batch-frame, and corrupt batch envelopes — in every case the
//! server must keep exactly the complete frames it saw and end up
//! byte-identical to serial ingest once the tail is resent.

use ldp_core::frame::{FrameReader, FrameWriter, StreamHeader};
use ldp_server::Response;
use marginal_ldp::oracles::pipeline::encode_report_batch;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
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
    /// Spawn the server and parse the bound address off its first
    /// stderr line (`serving on 127.0.0.1:PORT (W shards)`).
    fn start(extra_args: &[&str]) -> ServerProc {
        let mut cmd = Command::new(cli_bin());
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--shards", "4"])
            .args(extra_args)
            .stdin(Stdio::null())
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
            .to_string();
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
    let rows = population(4, n);
    let csv: String = rows.iter().map(|r| format!("{r}\n")).collect();
    let mut args = vec![
        "encode",
        "--protocol",
        protocol,
        "--d",
        "4",
        "--k",
        "2",
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
        ("MargPS", &[][..]),
        ("InpEM", &[][..]),
        (
            "HCMS",
            &["--hashes", "3", "--width", "16", "--family-seed", "9"][..],
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
    let (header, frames) = encoded_stream(&dir, "MargPS", &[], 40);
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
    let (other_header, other_frames) = encoded_stream(&dir, "MargHT", &[], 4);
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
    let (header, frames) = encoded_stream(&dir, "MargPS", &[], 200);
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

/// A batched (wire v2) stream pushed through adversarially chunked
/// socket writes — one-byte writes, chunk splits inside length
/// prefixes and mid-payload — is reassembled without tearing a single
/// frame: the ack covers every report, and both the live snapshot and
/// a serial `ingest` of the batched stream file are byte-identical to
/// ingesting the equivalent unbatched stream.
#[test]
fn batched_stream_survives_adversarial_chunked_writes() {
    let batched_dir = scratch("chunked_batched");
    let single_dir = scratch("chunked_single");
    let (_, _) = encoded_stream(&batched_dir, "MargPS", &["--batch", "7"], 200);
    let (_, _) = encoded_stream(&single_dir, "MargPS", &[], 200);
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

/// The batch decode-error matrix over the wire: a count prefix that
/// cannot fit the payload, a future envelope version, and a batch of
/// reports from the wrong protocol are each rejected with a named
/// error on the ack — and the server keeps serving, with every
/// complete good batch it saw still absorbed.
#[test]
fn corrupt_batch_frames_are_rejected_on_the_ack() {
    let dir = scratch("batch_corrupt");
    let (header, frames) = encoded_stream(&dir, "MargPS", &["--batch", "4"], 40);
    let server = ServerProc::start(&[]);

    // Count overshoot: claims 1000 reports, payload holds 4.
    let mut forged = frames[0].clone();
    forged[2..6].copy_from_slice(&1000u32.to_le_bytes());
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
            assert!(message.contains("unsupported wire version"), "{message}");
        }
        other => panic!("future-version batch got {other:?}"),
    }

    // A batch whose reports belong to another protocol.
    let (_, alien) = encoded_stream(&dir, "MargHT", &["--batch", "4"], 4);
    match push_stream(&server.addr, &header, &alien) {
        Response::Error(message) => assert!(message.contains("mixes protocols"), "{message}"),
        other => panic!("cross-protocol batch got {other:?}"),
    }

    // An empty batch frame is legal and absorbs nothing.
    let empty: [&[u8]; 0] = [];
    match push_stream(&server.addr, &header, &[encode_report_batch(&empty)]) {
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

    // The first report's marginal sits at bytes 8..12 of a batch
    // payload: the envelope's tag, version and count, then the
    // report's own tag and version.
    let mut forged = frames[0].clone();
    forged[8..12].copy_from_slice(&999u32.to_le_bytes());
    match push_stream(&server.addr, &header, &[forged]) {
        Response::Error(message) => assert!(
            message.contains("MargPS marginal 999") && message.contains("below 6"),
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

/// One connection may mix wire-v1 single-report frames and wire-v2
/// batch frames freely: the ack counts every report once and the
/// result is byte-identical to serial ingest.
#[test]
fn mixed_single_and_batch_frames_coexist_on_one_stream() {
    let batched_dir = scratch("mixed_batched");
    let single_dir = scratch("mixed_single");
    let (header, batch_frames) = encoded_stream(&batched_dir, "MargPS", &["--batch", "6"], 60);
    let (_, single_frames) = encoded_stream(&single_dir, "MargPS", &[], 60);
    assert_eq!(batch_frames.len(), 10);
    let server = ServerProc::start(&[]);

    // First half as batch frames (reports 0..30), second half as
    // single-report frames (reports 30..60).
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
