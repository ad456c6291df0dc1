//! Fleet-level proof of the federated aggregation tree: real `ldp-cli
//! serve` processes wired into multi-level topologies must produce a
//! **root snapshot byte-identical to a serial single-process ingest**
//! of every report pushed anywhere in the tree — the `Accumulator`
//! partition-invariance law, now crossing process *and* machine-model
//! boundaries (every hop is a real TCP socket).
//!
//! The headline test builds the 4-edges → 2-mids → 1-root tree, drives
//! the edges with concurrent batched clients, then kills an edge in the
//! middle of a `REPORT_BATCH` frame, restarts it from its checkpoint,
//! and resends the unacknowledged tail: the root must still converge to
//! the exact serial bytes. Stale-epoch pushes after the restart are
//! exercised on the way (the restarted edge's recovered epoch counter
//! is behind its own pre-crash pushes, so its first re-push is refused
//! and fast-forwarded).
//!
//! A proptest sweeps random topologies (depth ≤ 3, fan-in ≤ 4) ×
//! report-to-node assignments × mixed single/batch framing for a
//! mechanism with a dense table (MargPS), a count-map mechanism
//! (InpEM), and a sketch oracle (HCMS), using in-process servers over
//! real sockets.

use ldp_core::frame::{read_snapshot, FrameReader, FrameWriter, StreamHeader};
use ldp_core::user_rng;
use ldp_server::{push_with, Control, PushRequest, Request, Response, ServeConfig, Server};
use marginal_ldp::oracles::pipeline::{
    encode_report_batch, header_for, Client, PipelineAccumulator, PipelineReport, Protocol,
    SketchShape,
};
use proptest::prelude::*;
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
    /// Spawn `serve --listen 127.0.0.1:0 --shards 2 <extra_args>` and
    /// parse the bound address off the first stderr line.
    fn start(extra_args: &[&str]) -> ServerProc {
        let (proc_, _) = ServerProc::start_lines(extra_args, 1);
        proc_
    }

    /// [`ServerProc::start`], also capturing the recovery line (the
    /// second stderr line a checkpoint-recovering server prints).
    fn start_with_recovery(extra_args: &[&str]) -> (ServerProc, String) {
        let (proc_, mut lines) = ServerProc::start_lines(extra_args, 2);
        (proc_, lines.pop().expect("a recovery line"))
    }

    fn start_lines(extra_args: &[&str], take: usize) -> (ServerProc, Vec<String>) {
        let mut cmd = Command::new(cli_bin());
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--shards", "2"])
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("failed to spawn ldp-cli serve");
        let stderr = child.stderr.take().unwrap();
        let mut lines = BufReader::new(stderr);
        let mut captured = Vec::new();
        for _ in 0..take {
            let mut line = String::new();
            lines
                .read_line(&mut line)
                .expect("failed to read a server stderr line");
            captured.push(line.trim().to_string());
        }
        let addr = captured
            .first()
            .expect("a first stderr line")
            .strip_prefix("serving on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line: {captured:?}"))
            .split_whitespace()
            .next()
            .expect("address on the first stderr line")
            .to_string();
        // Keep draining stderr so the server never blocks on the pipe.
        std::thread::spawn(move || for _ in lines.lines() {});
        (ServerProc { child, addr }, captured)
    }

    /// Ask for a graceful shutdown and wait for a clean exit.
    fn shutdown(mut self) {
        run_cli(&["shutdown", "--connect", &self.addr], None);
        let status = self.child.wait().expect("failed to wait on the server");
        assert!(status.success(), "server exited with {status}");
    }

    /// SIGKILL — the crash a checkpoint must survive (no final
    /// checkpoint, no final push, absorbed-but-unacknowledged reports
    /// gone).
    fn kill(mut self) {
        self.child.kill().expect("failed to kill the server");
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

/// Write `frames` to a socket as one framed stream, half-close, and
/// return the server's acknowledgement.
fn push_stream(addr: &str, header: &[u8], frames: &[Vec<u8>]) -> Response {
    let stream = client_socket(addr);
    let mut writer = FrameWriter::new(stream.try_clone().unwrap());
    // A rejecting server replies and closes without consuming the rest
    // of the stream; the response frame, not the write, is the
    // assertion surface — on a write error, read what the server sent.
    let wrote = (|| {
        writer.write_frame(header)?;
        for frame in frames {
            writer.write_frame(frame)?;
        }
        writer.flush()
    })();
    if wrote.is_ok() {
        // The half-close races the same rejection and may fail with
        // "not connected"; the response is still there to read.
        let _ = stream.shutdown(Shutdown::Write);
    }
    read_response(&stream)
}

/// Push pre-encoded single-report `frames` as one stream of
/// `REPORT_BATCH` frames of up to `batch` reports each (`0` = one
/// single-report frame per report) and return the acknowledged count.
fn push_report_batches(
    addr: &str,
    header: &StreamHeader,
    frames: &[Vec<u8>],
    batch: usize,
) -> Result<u64, String> {
    push_with(addr, header, |writer| {
        if batch == 0 {
            frames
                .iter()
                .try_for_each(|frame| writer.write_frame(frame))
        } else {
            frames
                .chunks(batch)
                .try_for_each(|chunk| writer.write_frame(&encode_report_batch(chunk)))
        }
    })
}

/// The deterministic test population: n records over d attributes.
fn population(d: u32, n: usize) -> Vec<u64> {
    let full = (1u64 << d) - 1;
    (0..n as u64)
        .map(|i| (i.wrapping_mul(7) + 3) & full)
        .collect()
}

/// Encode a framed report stream with the real binary and split it
/// into the header frame plus the individual report frames.
fn encoded_stream(protocol: &str, extra: &[&str], n: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
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
    let mut reader = FrameReader::new(stream.as_slice());
    let header = reader.next_frame().unwrap().expect("header frame");
    StreamHeader::from_bytes(&header).expect("header frame must parse");
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().unwrap() {
        frames.push(frame);
    }
    (header, frames)
}

/// Write one framed stream file (header + frames) for serial `ingest`.
fn write_stream_file(path: &Path, header: &[u8], frame_sets: &[&[Vec<u8>]]) {
    let file = std::fs::File::create(path).unwrap();
    let mut writer = FrameWriter::new(file);
    writer.write_frame(header).unwrap();
    for frames in frame_sets {
        for frame in *frames {
            writer.write_frame(frame).unwrap();
        }
    }
    writer.flush().unwrap();
}

/// Poll a server's stats until the absorbed-report line matches.
fn wait_for_reports(addr: &str, needle: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = String::from_utf8(run_cli(&["stats", "--connect", addr], None)).unwrap();
        if stats.contains(needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server never reached {needle:?}:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Fetch a node's live snapshot to a file. For a federated node this
/// *also* pushes its merged view upstream first (the wire contract of
/// `REQ_SNAPSHOT` on a relay), so snapshotting a tree leaf-to-root
/// deterministically propagates every report to the root.
fn snapshot_to(addr: &str, path: &Path) {
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
}

/// A per-test scratch directory. Kept under a predictable
/// `ldp_fed_*`-prefixed path so CI can upload checkpoint files as
/// artifacts when a federation test fails.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_fed_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole proof. A 3-level tree of real processes —
///
/// ```text
/// edge0 edge1   edge2 edge3
///    \   /         \   /
///    mid0           mid1
///       \           /
///         \       /
///           root
/// ```
///
/// — absorbs a batched stream pushed by four concurrent clients (one
/// per edge), and after a leaf-to-root snapshot walk the root snapshot
/// is byte-identical to a serial single-process ingest. Then edge0 is
/// SIGKILLed in the middle of a `REPORT_BATCH` frame, restarted from
/// its `--checkpoint-every 1` checkpoint (losing exactly the reports
/// never acknowledged), and the client resends the unacknowledged
/// tail: the root converges to the serial bytes of *everything*, with
/// the restarted edge's stale-epoch re-push refused and fast-forwarded
/// along the way.
#[test]
fn three_level_tree_with_edge_crash_matches_serial_ingest() {
    let dir = scratch("tree");
    let ckpt = dir.join("edge0.ckpt");
    let root = ServerProc::start(&["--output", dir.join("root_final.bin").to_str().unwrap()]);
    let mids: Vec<ServerProc> = (0..2)
        .map(|_| ServerProc::start(&["--upstream", &root.addr, "--push-every", "60000"]))
        .collect();
    let edge0 = ServerProc::start(&[
        "--upstream",
        &mids[0].addr,
        "--push-every",
        "60000",
        "--id",
        "edge-0",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    let other_edges: Vec<ServerProc> = (1..4)
        .map(|i| ServerProc::start(&["--upstream", &mids[i / 2].addr, "--push-every", "60000"]))
        .collect();

    // Phase 1: 800 reports as 160 batch frames, four concurrent
    // clients pushing disjoint quarters into the four edges.
    let (header, frames_a) = encoded_stream("MargPS", &["--batch", "5"], 800);
    assert_eq!(frames_a.len(), 160);
    let edge_addrs: Vec<&str> = std::iter::once(edge0.addr.as_str())
        .chain(other_edges.iter().map(|e| e.addr.as_str()))
        .collect();
    std::thread::scope(|scope| {
        for (i, slice) in frames_a.chunks(40).enumerate() {
            let (addr, header) = (edge_addrs[i], &header);
            scope.spawn(move || match push_stream(addr, header, slice) {
                Response::Ingested(200) => {}
                other => panic!("edge {i} ack: {other:?}"),
            });
        }
    });

    // Propagate leaf-to-root: each snapshot pushes that node's merged
    // view one hop up before answering.
    for addr in &edge_addrs {
        snapshot_to(addr, &dir.join("hop.bin"));
    }
    for mid in &mids {
        snapshot_to(&mid.addr, &dir.join("hop.bin"));
    }
    let root_live = dir.join("root_live.bin");
    snapshot_to(&root.addr, &root_live);

    let serial_a = dir.join("serial_a.bin");
    write_stream_file(&serial_a, &header, &[&frames_a]);
    let expected_a = run_cli(&["ingest"], Some(&std::fs::read(&serial_a).unwrap()));
    assert_eq!(
        std::fs::read(&root_live).unwrap(),
        expected_a,
        "root snapshot differs from serial ingest of the full stream"
    );

    // Phase 2: crash edge0 mid-batch-frame. A second stream (users
    // 800..900, 20 batch frames) goes to edge0: the first 10 frames
    // are pushed and acknowledged (checkpointed, epoch included); one
    // more snapshot bumps edge0's push epoch *past* what its
    // checkpoint recorded; then a client writes 2 complete frames and
    // half of a third and edge0 is SIGKILLed.
    let (_, frames_b) = encoded_stream("MargPS", &["--batch", "5", "--first-user", "800"], 100);
    assert_eq!(frames_b.len(), 20);
    match push_stream(&edge0.addr, &header, &frames_b[..10]) {
        Response::Ingested(50) => {}
        other => panic!("pre-crash ack: {other:?}"),
    }
    // Two more pushes AFTER the last checkpoint write: the recovered
    // epoch counter will trail the upstream's held epoch by 2, so the
    // first post-restart push is strictly stale (an equal epoch would
    // apply — re-pushes are idempotent).
    snapshot_to(&edge0.addr, &dir.join("hop.bin"));
    snapshot_to(&edge0.addr, &dir.join("hop.bin"));
    {
        let stream = client_socket(&edge0.addr);
        let mut writer = FrameWriter::new(stream.try_clone().unwrap());
        writer.write_frame(&header).unwrap();
        for frame in &frames_b[10..12] {
            writer.write_frame(frame).unwrap();
        }
        writer.flush().unwrap();
        let partial = &frames_b[12][..frames_b[12].len() / 2];
        let mut raw = writer.into_inner();
        raw.write_all(&(frames_b[12].len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(partial).unwrap();
        raw.flush().unwrap();
        // Both complete frames land in memory (absorbed, never
        // acknowledged, never checkpointed) before the kill.
        wait_for_reports(&edge0.addr, "reports: 260 absorbed");
    }
    edge0.kill();

    // Restart from the checkpoint: only acknowledged reports survive
    // (200 from phase 1 + 50 acknowledged pre-crash), proving the two
    // absorbed-but-unacknowledged frames died with the process.
    let (edge0, recovery) = ServerProc::start_with_recovery(&[
        "--upstream",
        &mids[0].addr,
        "--push-every",
        "60000",
        "--id",
        "edge-0",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    assert!(
        recovery.starts_with("recovered checkpoint: 250 reports"),
        "unexpected recovery line: {recovery:?}"
    );
    wait_for_reports(&edge0.addr, "reports: 250 absorbed");

    // At-least-once resend of everything unacknowledged. Frames 10 and
    // 11 were absorbed before the crash but lost with it, so the
    // resend lands every report exactly once.
    match push_stream(&edge0.addr, &header, &frames_b[10..]) {
        Response::Ingested(50) => {}
        other => panic!("resend ack: {other:?}"),
    }

    // Propagate again. The restarted edge's epoch counter came from
    // the checkpoint, which predates the last pre-crash push — so its
    // first re-push is refused as stale (mid0 keeps serving) and
    // fast-forwards the counter; the second applies.
    snapshot_to(&edge0.addr, &dir.join("hop.bin"));
    snapshot_to(&edge0.addr, &dir.join("hop.bin"));
    snapshot_to(&mids[0].addr, &dir.join("hop.bin"));
    snapshot_to(&root.addr, &root_live);

    let serial_ab = dir.join("serial_ab.bin");
    write_stream_file(&serial_ab, &header, &[&frames_a, &frames_b]);
    let expected_ab = run_cli(&["ingest"], Some(&std::fs::read(&serial_ab).unwrap()));
    assert_eq!(
        std::fs::read(&root_live).unwrap(),
        expected_ab,
        "root snapshot differs from serial ingest after crash + recovery + resend"
    );

    // Graceful teardown leaf-to-root: every node's final push lands in
    // a still-serving parent, and the root's on-shutdown snapshot file
    // holds the same serial bytes.
    edge0.shutdown();
    for edge in other_edges {
        edge.shutdown();
    }
    for mid in mids {
        mid.shutdown();
    }
    root.shutdown();
    assert_eq!(
        std::fs::read(dir.join("root_final.bin")).unwrap(),
        expected_ab,
        "root's final on-shutdown snapshot differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed and stale pushes are refused by name on the control
/// plane, and the upstream keeps serving — with its held state intact
/// — through all of them.
#[test]
fn corrupt_and_stale_pushes_are_named_and_survivable() {
    let dir = scratch("badpush");
    let (header_bytes, frames) = encoded_stream("MargPS", &["--batch", "4"], 200);
    let root = ServerProc::start(&[]);

    // A valid snapshot to push: serial ingest of the first half.
    let half = frames.len() / 2;
    let first_half = dir.join("first_half.bin");
    write_stream_file(&first_half, &header_bytes, &[&frames[..half]]);
    let snapshot = run_cli(&["ingest"], Some(&std::fs::read(&first_half).unwrap()));
    let (header, state) = read_snapshot(snapshot.as_slice()).unwrap();

    let mut control = Control::connect(&root.addr).unwrap();
    let push = |control: &mut Control, epoch: u64, state: Vec<u8>| {
        control.request(&Request::Push(PushRequest {
            collector: "child-a".to_string(),
            epoch,
            header,
            state,
        }))
    };

    // A fresh push applies; re-pushing the same epoch is idempotent.
    for _ in 0..2 {
        match push(&mut control, 5, state.clone()) {
            Ok(Response::Push {
                applied: true,
                latest_epoch: 5,
            }) => {}
            other => panic!("valid push got {other:?}"),
        }
    }
    // A stale epoch is refused by name — applied = false, carrying the
    // epoch the pusher must fast-forward past — and replaces nothing.
    match push(&mut control, 3, state.clone()) {
        Ok(Response::Push {
            applied: false,
            latest_epoch: 5,
        }) => {}
        other => panic!("stale push got {other:?}"),
    }
    // A push whose state does not decode is refused by name.
    match push(&mut control, 9, vec![0xFF; 7]) {
        Err(message) => assert!(message.contains("does not decode"), "{message}"),
        other => panic!("corrupt push got {other:?}"),
    }
    // A push whose state was built for another dimension, sent under
    // this pipeline's header, is refused by name: merged, it would land
    // its counts in the wrong marginals of every later snapshot.
    let wide_header = StreamHeader {
        d: header.d + 2,
        ..header
    };
    let wide_client = Client::from_header(&wide_header).unwrap();
    let mut wide = wide_client.accumulator();
    for user in 0..50u64 {
        let frame = wide_client.encode_report(user % 64, &mut user_rng(7, user));
        wide.absorb(&PipelineReport::from_bytes(&frame).unwrap())
            .unwrap();
    }
    match control.request(&Request::Push(PushRequest {
        collector: "child-wide".to_string(),
        epoch: 1,
        header,
        state: wide.to_bytes(),
    })) {
        Err(message) => {
            assert!(message.contains("child-wide"), "{message}");
            assert!(message.contains("does not match header shape"), "{message}");
        }
        other => panic!("mis-shaped push got {other:?}"),
    }
    // A push for a different pipeline is refused by name.
    let (alien_header_bytes, _) = encoded_stream("MargHT", &[], 4);
    let alien_header = StreamHeader::from_bytes(&alien_header_bytes).unwrap();
    match control.request(&Request::Push(PushRequest {
        collector: "child-a".to_string(),
        epoch: 9,
        header: alien_header,
        state: state.clone(),
    })) {
        Err(message) => assert!(
            message.contains("does not match the established"),
            "{message}"
        ),
        other => panic!("cross-pipeline push got {other:?}"),
    }
    drop(control);

    // Through all of that the root kept serving: direct ingest of the
    // second half still lands, and the snapshot merges the held push
    // with the directly-absorbed reports into exactly the serial
    // bytes of the full stream.
    match push_stream(&root.addr, &header_bytes, &frames[half..]) {
        Response::Ingested(n) => assert_eq!(n as usize, (frames.len() - half) * 4),
        other => panic!("direct ingest got {other:?}"),
    }
    let live = dir.join("live.bin");
    snapshot_to(&root.addr, &live);
    let full = dir.join("full.bin");
    write_stream_file(&full, &header_bytes, &[&frames]);
    let expected = run_cli(&["ingest"], Some(&std::fs::read(&full).unwrap()));
    assert_eq!(
        std::fs::read(&live).unwrap(),
        expected,
        "root snapshot differs after the bad-push barrage"
    );
    root.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `merge --connect` pulls live snapshots over the control plane and
/// folds them with snapshot files: the offline half of federation.
#[test]
fn merge_connect_folds_live_collectors_with_snapshot_files() {
    let dir = scratch("merge");
    let (header, frames) = encoded_stream("InpEM", &[], 300);
    let third = frames.len() / 3;

    // Two live collectors hold a third each; the last third becomes a
    // snapshot file via serial ingest.
    let servers: Vec<ServerProc> = (0..2).map(|_| ServerProc::start(&[])).collect();
    for (server, slice) in servers.iter().zip(frames.chunks(third)) {
        match push_stream(&server.addr, &header, slice) {
            Response::Ingested(n) => assert_eq!(n as usize, third),
            other => panic!("seed ingest got {other:?}"),
        }
    }
    let tail_stream = dir.join("tail_stream.bin");
    write_stream_file(&tail_stream, &header, &[&frames[2 * third..]]);
    let tail_snapshot = dir.join("tail.bin");
    run_cli(
        &[
            "ingest",
            "--input",
            tail_stream.to_str().unwrap(),
            "--output",
            tail_snapshot.to_str().unwrap(),
        ],
        None,
    );

    let merged = dir.join("merged.bin");
    run_cli(
        &[
            "merge",
            tail_snapshot.to_str().unwrap(),
            "--connect",
            &format!("{},{}", servers[0].addr, servers[1].addr),
            "--output",
            merged.to_str().unwrap(),
        ],
        None,
    );
    for server in servers {
        server.shutdown();
    }

    let full = dir.join("full.bin");
    write_stream_file(&full, &header, &[&frames]);
    let serial = run_cli(&["ingest"], Some(&std::fs::read(&full).unwrap()));
    // merge folds the file first, then the remotes — a different
    // partition and order than serial ingest, which is exactly what
    // the partition-invariance law says must not matter.
    let reordered = std::fs::read(&merged).unwrap();
    assert_eq!(
        reordered, serial,
        "merge --connect differs from serial ingest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A graceful shutdown writes a final checkpoint, and a restart
/// resumes from it exactly: the recovered server reports the restored
/// count, and absorbing the remaining stream converges to the serial
/// bytes of the whole stream.
#[test]
fn graceful_shutdown_checkpoint_resumes_exactly() {
    let dir = scratch("resume");
    let ckpt = dir.join("collector.ckpt");
    let (header, frames) = encoded_stream("HCMS", &["--hashes", "3", "--width", "16"], 120);
    let half = frames.len() / 2;

    let server = ServerProc::start(&["--checkpoint", ckpt.to_str().unwrap()]);
    match push_stream(&server.addr, &header, &frames[..half]) {
        Response::Ingested(n) => assert_eq!(n as usize, half),
        other => panic!("first-half ingest got {other:?}"),
    }
    server.shutdown();
    assert!(ckpt.exists(), "graceful shutdown wrote no checkpoint");

    let (server, recovery) =
        ServerProc::start_with_recovery(&["--checkpoint", ckpt.to_str().unwrap()]);
    assert!(
        recovery.starts_with("recovered checkpoint: 60 reports"),
        "unexpected recovery line: {recovery:?}"
    );
    match push_stream(&server.addr, &header, &frames[half..]) {
        Response::Ingested(n) => assert_eq!(n as usize, frames.len() - half),
        other => panic!("second-half ingest got {other:?}"),
    }
    let live = dir.join("live.bin");
    snapshot_to(&server.addr, &live);
    server.shutdown();

    let full = dir.join("full.bin");
    write_stream_file(&full, &header, &[&frames]);
    let serial = run_cli(&["ingest"], Some(&std::fs::read(&full).unwrap()));
    assert_eq!(
        std::fs::read(&live).unwrap(),
        serial,
        "recovered + resumed snapshot differs from serial ingest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Random-topology property: in-process servers over real sockets.
// ---------------------------------------------------------------------

/// One node of an in-process federation tree.
struct Node {
    addr: String,
    depth: usize,
    handle: std::thread::JoinHandle<Result<ldp_server::ServerSummary, String>>,
}

/// Build a tree from raw parent seeds: node 0 is the root; node `i`'s
/// parent is drawn from the nodes at depth ≤ 1 that still have spare
/// fan-in (< 4 children), keeping every topology within depth ≤ 3 and
/// fan-in ≤ 4.
fn build_tree(parent_seeds: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let n = parent_seeds.len() + 1;
    let mut parents = vec![0usize; n]; // parents[0] unused
    let mut depths = vec![0usize; n];
    let mut children = vec![0usize; n];
    for i in 1..n {
        let candidates: Vec<usize> = (0..i)
            .filter(|&j| depths[j] <= 1 && children[j] < 4)
            .collect();
        let parent = candidates[parent_seeds[i - 1] as usize % candidates.len()];
        parents[i] = parent;
        depths[i] = depths[parent] + 1;
        children[parent] += 1;
    }
    (parents, depths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every random topology (depth ≤ 3, fan-in ≤ 4), every
    /// assignment of reports to nodes (interior nodes ingest too),
    /// and every mix of single-report and batched framing, the root's
    /// snapshot after a leaf-to-root propagation walk is
    /// byte-identical to a serial single-process absorb of all
    /// reports — for a dense-table mechanism, a count-map mechanism,
    /// and a sketch oracle.
    #[test]
    fn random_topologies_converge_to_serial_bytes(
        proto_idx in 0usize..3,
        parent_seeds in proptest::collection::vec(any::<u8>(), 1..8),
        assignments in proptest::collection::vec(any::<u64>(), 20..60),
        batch_seeds in proptest::collection::vec(0usize..8, 8),
    ) {
        let protocol = Protocol::parse(["MargPS", "InpEM", "HCMS"][proto_idx]).unwrap();
        let sketch = SketchShape { hashes: 3, width: 16, family_seed: 9 };
        let header = header_for(protocol, 4, 2, 1.1, sketch);
        let client = Client::from_header(&header).unwrap();

        let (parents, depths) = build_tree(&parent_seeds);
        let n_nodes = parents.len();

        // Spawn the tree root-first so every upstream address exists
        // before its children need it.
        let mut nodes: Vec<Node> = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            let mut config = ServeConfig::new("127.0.0.1:0", 2);
            if i > 0 {
                config.upstream = Some(nodes[parents[i]].addr.clone());
                config.push_every = Duration::from_secs(60);
                config.collector = Some(format!("node-{i}"));
            }
            let server = Server::bind_with(&config).unwrap();
            let addr = server.local_addr().unwrap().to_string();
            let handle = std::thread::spawn(move || server.run());
            nodes.push(Node { addr, depth: depths[i], handle });
        }

        // Encode every report with the global user schedule and
        // assign each to a node (low bits pick the row, a high byte
        // picks the node — interior nodes ingest too); the serial
        // reference absorbs them all in one accumulator.
        let mask = (1u64 << 4) - 1;
        let mut per_node: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_nodes];
        let mut serial = PipelineAccumulator::empty(&header).unwrap();
        for (user, seed) in assignments.iter().enumerate() {
            let mut rng = user_rng(42, user as u64);
            let frame = client.encode_report(seed & mask, &mut rng);
            serial.absorb_batch(&[PipelineReport::from_bytes(&frame).unwrap()]).unwrap();
            per_node[(seed >> 32) as usize % n_nodes].push(frame);
        }
        let expected = serial.to_bytes();

        // Concurrent clients: one per non-empty node, each with its
        // own framing (batch 0 = wire-v1 single-report frames).
        std::thread::scope(|scope| {
            for (i, frames) in per_node.iter().enumerate() {
                if frames.is_empty() {
                    continue;
                }
                let addr = nodes[i].addr.clone();
                let batch = batch_seeds[i % batch_seeds.len()];
                let header = &header;
                scope.spawn(move || {
                    let acked = push_report_batches(&addr, header, frames, batch).unwrap();
                    assert_eq!(acked as usize, frames.len());
                });
            }
        });

        // Propagate deepest-first: every snapshot pushes one hop up.
        let mut order: Vec<usize> = (1..n_nodes).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(nodes[i].depth));
        for i in order {
            let mut control = Control::connect(&nodes[i].addr).unwrap();
            match control.request(&Request::Snapshot) {
                Ok(Response::Snapshot { .. }) => {}
                // A node whose whole subtree got no reports has no
                // pipeline (and nothing to propagate).
                Err(e) => prop_assert!(e.contains("no report stream"), "{e}"),
                other => panic!("snapshot got {other:?}"),
            }
        }
        let mut control = Control::connect(&nodes[0].addr).unwrap();
        let root_state = match control.request(&Request::Snapshot) {
            Ok(Response::Snapshot { state, .. }) => state,
            other => panic!("root snapshot got {other:?}"),
        };
        drop(control);
        prop_assert_eq!(
            &root_state,
            &expected,
            "root bytes differ from serial absorb (topology {:?})",
            parents
        );

        // Tear down leaf-to-root so every final push finds a live
        // parent.
        let mut order: Vec<usize> = (0..n_nodes).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(nodes[i].depth));
        for i in order {
            let mut control = Control::connect(&nodes[i].addr).unwrap();
            control.request(&Request::Shutdown).unwrap();
        }
        for node in nodes {
            node.handle.join().unwrap().unwrap();
        }
    }
}
