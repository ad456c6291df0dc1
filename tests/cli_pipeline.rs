//! End-to-end proof that the `ldp-cli` pipeline over the wire format is
//! byte-identical to a single-process run.
//!
//! Every test shells out to the real binary: `encode` writes a framed
//! report stream, the test *splits* that stream at frame boundaries
//! (acting as the `split` stage of `encode | split | ingest ×4 | merge |
//! query`), four separate `ingest` processes each fold one part into a
//! snapshot, `merge` combines them, and `query` finalizes. The merged
//! snapshot's accumulator state must equal — byte for byte — both a
//! single-process `ingest` of the unsplit stream and an in-process
//! reference built directly against `ldp_core`, and the finalized
//! estimate must equal `Mechanism::run`.

use ldp_core::frame::{read_snapshot, FrameReader, FrameWriter, StreamHeader};
use ldp_core::{user_rng, MarginalEstimator, MechanismKind};
use ldp_oracles::pipeline::{Client, PipelineAccumulator, PipelineEstimate, PipelineReport};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;

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

/// Run the binary, asserting success; returns stdout.
fn run_cli(args: &[&str], stdin: Option<&[u8]>) -> Vec<u8> {
    let (ok, out, err) = run_cli_raw(args, stdin);
    assert!(ok, "ldp-cli {args:?} failed:\n{err}");
    out
}

/// Run the binary without asserting; returns (success, stdout, stderr).
fn run_cli_raw(args: &[&str], stdin: Option<&[u8]>) -> (bool, Vec<u8>, String) {
    let mut cmd = Command::new(cli_bin());
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("failed to spawn ldp-cli");
    if let Some(bytes) = stdin {
        use std::io::Write;
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
    (
        output.status.success(),
        output.stdout,
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A per-test scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_cli_pipeline_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic test population: n records over d attributes.
fn population(d: u32, n: usize) -> Vec<u64> {
    let full = (1u64 << d) - 1;
    (0..n as u64)
        .map(|i| (i.wrapping_mul(7) + 3) & full)
        .collect()
}

fn write_rows_csv(path: &Path, rows: &[u64]) {
    let text: String = rows.iter().map(|r| format!("{r}\n")).collect();
    std::fs::write(path, text).unwrap();
}

/// Split a framed report stream into `parts` streams, each repeating
/// the header frame — the `split` stage of the pipeline, exercising the
/// frame format from an independent consumer.
fn split_stream(stream: &[u8], parts: usize, dir: &Path) -> Vec<PathBuf> {
    let mut reader = FrameReader::new(stream);
    let header = reader.next_frame().unwrap().expect("missing header frame");
    StreamHeader::from_bytes(&header).expect("header frame must parse");
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().unwrap() {
        frames.push(frame);
    }
    let chunk = frames.len().div_ceil(parts);
    frames
        .chunks(chunk)
        .enumerate()
        .map(|(i, slice)| {
            let path = dir.join(format!("part{i}.bin"));
            let mut buf = Vec::new();
            let mut w = FrameWriter::new(&mut buf);
            w.write_frame(&header).unwrap();
            for frame in slice {
                w.write_frame(frame).unwrap();
            }
            std::fs::write(&path, buf).unwrap();
            path
        })
        .collect()
}

const D: u32 = 4;
const K: u32 = 2;
const EPS: f64 = 1.1;
const SEED: u64 = 42;
const N: usize = 600;

/// The in-process reference: every user's report encoded and absorbed
/// one at a time through the protocol table, under the same `user_rng`
/// schedule the CLI uses.
fn reference_state(header: &StreamHeader, rows: &[u64]) -> Vec<u8> {
    let client = Client::from_header(header).unwrap();
    let mut acc = client.accumulator();
    for (user, &row) in rows.iter().enumerate() {
        let frame = client.encode_report(row, &mut user_rng(SEED, user as u64));
        acc.absorb(&PipelineReport::from_bytes(&frame).unwrap())
            .unwrap();
    }
    acc.to_bytes()
}

/// The tentpole proof, for every mechanism: the multi-process
/// `encode | split | ingest ×4 | merge | query` pipeline is
/// byte-identical to a single-process ingest, to an in-process
/// reference accumulator, and (estimate-wise) to `Mechanism::run`.
#[test]
fn multiprocess_pipeline_matches_single_process_for_every_mechanism() {
    for kind in MechanismKind::ALL {
        let dir = scratch(&format!("mech_{}", kind.name()));
        let rows = population(D, N);
        let rows_csv = dir.join("rows.csv");
        write_rows_csv(&rows_csv, &rows);

        // encode
        let stream_path = dir.join("stream.bin");
        run_cli(
            &[
                "encode",
                "--protocol",
                kind.name(),
                "--d",
                &D.to_string(),
                "--k",
                &K.to_string(),
                "--eps",
                &EPS.to_string(),
                "--seed",
                &SEED.to_string(),
                "--input",
                rows_csv.to_str().unwrap(),
                "--output",
                stream_path.to_str().unwrap(),
            ],
            None,
        );
        let stream = std::fs::read(&stream_path).unwrap();

        // split | ingest ×4 (four separate processes)
        let parts = split_stream(&stream, 4, &dir);
        assert_eq!(parts.len(), 4, "{}", kind.name());
        let snapshots: Vec<PathBuf> = parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let snap = dir.join(format!("snap{i}.bin"));
                run_cli(
                    &[
                        "ingest",
                        "--input",
                        part.to_str().unwrap(),
                        "--output",
                        snap.to_str().unwrap(),
                    ],
                    None,
                );
                snap
            })
            .collect();

        // merge
        let merged_path = dir.join("merged.bin");
        let mut merge_args = vec!["merge", "--output", merged_path.to_str().unwrap()];
        let snapshot_strs: Vec<&str> = snapshots.iter().map(|p| p.to_str().unwrap()).collect();
        merge_args.extend(&snapshot_strs);
        run_cli(&merge_args, None);

        // single-process reference ingest of the unsplit stream
        let single_path = dir.join("single.bin");
        run_cli(
            &[
                "ingest",
                "--input",
                stream_path.to_str().unwrap(),
                "--output",
                single_path.to_str().unwrap(),
            ],
            None,
        );

        let (merged_header, merged_state) =
            read_snapshot(std::fs::read(&merged_path).unwrap().as_slice()).unwrap();
        let (single_header, single_state) =
            read_snapshot(std::fs::read(&single_path).unwrap().as_slice()).unwrap();
        assert_eq!(merged_header, single_header, "{}", kind.name());
        assert_eq!(merged_header.mechanism_kind(), Some(kind));
        assert_eq!(
            merged_state,
            single_state,
            "{}: merged 4-process state differs from single-process state",
            kind.name()
        );

        // In-process reference: same mechanism, same user_rng schedule.
        assert_eq!(
            merged_state,
            reference_state(&merged_header, &rows),
            "{}: pipeline state differs from the in-process reference",
            kind.name()
        );

        // Estimate equality against Mechanism::run, which encodes and
        // absorbs through the typed mechanism rather than the wire
        // (InpRr's `run` substitutes the aggregate simulation, so its
        // reference is the streaming accumulator only).
        let rehydrated = PipelineAccumulator::from_state(&merged_header, &merged_state).unwrap();
        assert_eq!(rehydrated.report_count(), N as u64, "{}", kind.name());
        let PipelineEstimate::Mechanism(estimate) = rehydrated.finalize() else {
            panic!("{}: snapshot did not finalize to marginals", kind.name());
        };
        if kind != MechanismKind::InpRr {
            assert_eq!(
                estimate,
                kind.build(D, K, EPS).run(&rows, SEED),
                "{}: pipeline estimate differs from Mechanism::run",
                kind.name()
            );
        }
        // The estimate must answer k-way marginals.
        let table = estimate.marginal(ldp_bits::Mask::from_attrs(&[0, D - 1]));
        assert_eq!(table.len(), 4, "{}", kind.name());

        // query: merged and single snapshots print identical bytes.
        let merged_csv = run_cli(&["query", "--input", merged_path.to_str().unwrap()], None);
        let single_csv = run_cli(&["query", "--input", single_path.to_str().unwrap()], None);
        assert_eq!(merged_csv, single_csv, "{}", kind.name());
        let text = String::from_utf8(merged_csv).unwrap();
        assert!(
            text.starts_with("marginal,cell,estimate"),
            "{}: unexpected query output:\n{text}",
            kind.name()
        );
        assert!(text.lines().count() > 1, "{}", kind.name());

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same proof for frequency oracles (HCMS end to end, plus OLH —
/// whose serialized state is canonicalized by sorting, making merge
/// order invisible).
#[test]
fn multiprocess_pipeline_matches_reference_for_oracles() {
    use ldp_oracles::OracleKind;

    for (kind, name) in [(OracleKind::Hcms, "hcms"), (OracleKind::Olh, "olh")] {
        let dir = scratch(&format!("oracle_{name}"));
        let rows = population(D, N);
        let rows_csv = dir.join("rows.csv");
        write_rows_csv(&rows_csv, &rows);

        let stream_path = dir.join("stream.bin");
        run_cli(
            &[
                "encode",
                "--protocol",
                name,
                "--d",
                &D.to_string(),
                "--eps",
                &EPS.to_string(),
                "--seed",
                &SEED.to_string(),
                "--hashes",
                "3",
                "--width",
                "16",
                "--family-seed",
                "9",
                "--input",
                rows_csv.to_str().unwrap(),
                "--output",
                stream_path.to_str().unwrap(),
            ],
            None,
        );
        let stream = std::fs::read(&stream_path).unwrap();

        let parts = split_stream(&stream, 4, &dir);
        let snapshots: Vec<PathBuf> = parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let snap = dir.join(format!("snap{i}.bin"));
                run_cli(
                    &[
                        "ingest",
                        "--input",
                        part.to_str().unwrap(),
                        "--output",
                        snap.to_str().unwrap(),
                    ],
                    None,
                );
                snap
            })
            .collect();

        let merged_path = dir.join("merged.bin");
        let mut merge_args = vec!["merge", "--output", merged_path.to_str().unwrap()];
        let snapshot_strs: Vec<&str> = snapshots.iter().map(|p| p.to_str().unwrap()).collect();
        merge_args.extend(&snapshot_strs);
        run_cli(&merge_args, None);

        let (header, merged_state) =
            read_snapshot(std::fs::read(&merged_path).unwrap().as_slice()).unwrap();
        assert_eq!(header.mechanism_kind(), None, "{name} is not a mechanism");

        assert_eq!(header.protocol, kind.wire_tag(), "{name}");
        assert_eq!(
            merged_state,
            reference_state(&header, &rows),
            "{name}: pipeline state differs from the in-process reference"
        );

        let csv = run_cli(&["query", "--input", merged_path.to_str().unwrap()], None);
        let text = String::from_utf8(csv).unwrap();
        assert!(text.starts_with("value,estimate"), "{name}:\n{text}");
        // Full domain: 2^d estimates after the header line.
        assert_eq!(text.lines().count(), 1 + (1 << D), "{name}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The pipeline also composes over real stdin/stdout pipes.
#[test]
fn pipeline_flows_through_stdin_and_stdout() {
    let rows = population(D, 300);
    let csv: String = rows.iter().map(|r| format!("{r}\n")).collect();
    let stream = run_cli(
        &[
            "encode",
            "--protocol",
            "MargPS",
            "--d",
            "4",
            "--k",
            "2",
            "--eps",
            "1.1",
        ],
        Some(csv.as_bytes()),
    );
    let snapshot = run_cli(&["ingest"], Some(&stream));
    let (header, state) = read_snapshot(snapshot.as_slice()).unwrap();
    assert_eq!(header.mechanism_kind(), Some(MechanismKind::MargPs));
    let acc = PipelineAccumulator::from_state(&header, &state).unwrap();
    assert_eq!(acc.report_count(), 300);
    let out = run_cli(&["query", "--format", "json"], Some(&snapshot));
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"protocol\": \"MargPS\""), "{text}");
    assert!(text.contains("\"reports\": 300"), "{text}");
}

/// `merge` must refuse to combine snapshots of different pipelines.
#[test]
fn merge_refuses_mismatched_pipelines() {
    let dir = scratch("mismatch");
    let rows = population(D, 100);
    let rows_csv = dir.join("rows.csv");
    write_rows_csv(&rows_csv, &rows);

    for (protocol, out) in [("MargPS", "a.bin"), ("MargHT", "b.bin")] {
        let stream = dir.join(format!("{protocol}.stream"));
        run_cli(
            &[
                "encode",
                "--protocol",
                protocol,
                "--d",
                &D.to_string(),
                "--input",
                rows_csv.to_str().unwrap(),
                "--output",
                stream.to_str().unwrap(),
            ],
            None,
        );
        run_cli(
            &[
                "ingest",
                "--input",
                stream.to_str().unwrap(),
                "--output",
                dir.join(out).to_str().unwrap(),
            ],
            None,
        );
    }
    let (ok, _, err) = run_cli_raw(
        &[
            "merge",
            "--output",
            dir.join("bad.bin").to_str().unwrap(),
            dir.join("a.bin").to_str().unwrap(),
            dir.join("b.bin").to_str().unwrap(),
        ],
        None,
    );
    assert!(!ok, "merging mismatched pipelines must fail");
    assert!(
        err.contains("refusing to merge"),
        "unexpected error:\n{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parameter combinations the protocol constructors would panic on are
/// rejected with a named error before construction — for flags and for
/// headers arriving over the wire alike.
#[test]
fn invalid_parameters_fail_gracefully() {
    let cases: [(&[&str], &str); 4] = [
        (&["encode", "--protocol", "OLH", "--d", "50"], "d ≤ 40"),
        (&["encode", "--protocol", "OLH", "--eps", "6"], "ln(255)"),
        (&["encode", "--protocol", "CMS", "--width", "0"], "width"),
        (
            &["encode", "--protocol", "HCMS", "--width", "100"],
            "power of two",
        ),
    ];
    for (args, needle) in cases {
        let (ok, _, err) = run_cli_raw(args, Some(b"1\n"));
        assert!(!ok, "{args:?} must fail");
        assert!(
            err.contains(needle) && !err.contains("panicked"),
            "{args:?}: expected a graceful {needle:?} error, got:\n{err}"
        );
    }
}

/// The documented exit codes: 0 on success, 1 on a runtime failure of a
/// known subcommand (a bad flag value included), 2 on a usage error (no
/// subcommand, or an unknown one).
#[test]
fn exit_codes_follow_the_documented_convention() {
    let cases: [(&[&str], i32); 5] = [
        (&["version"], 0),
        (&["rows", "--n", "many"], 1),
        (&["nope"], 2),
        (&["bench"], 2),
        (&[], 2),
    ];
    for (args, code) in cases {
        let output = Command::new(cli_bin())
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("failed to spawn ldp-cli");
        assert_eq!(
            output.status.code(),
            Some(code),
            "{args:?}: stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}

/// A truncated report stream is rejected with a frame error, not
/// silently folded into a short snapshot.
#[test]
fn ingest_rejects_truncated_streams() {
    let rows = population(D, 50);
    let csv: String = rows.iter().map(|r| format!("{r}\n")).collect();
    let stream = run_cli(
        &["encode", "--protocol", "InpHT", "--d", "4"],
        Some(csv.as_bytes()),
    );
    let cut = &stream[..stream.len() - 3];
    let (ok, _, err) = run_cli_raw(&["ingest"], Some(cut));
    assert!(!ok, "truncated stream must fail");
    assert!(err.contains("truncated"), "unexpected error:\n{err}");
}
