//! Upgrade safety for durable state: wire v4 changed only the report
//! frames, so a snapshot file and a checkpoint file written by a wire-v3
//! build must still load, and what they hold must be exactly the state
//! this build builds from the same reports.
//!
//! Both fixtures under `tests/fixtures/` were written by a wire-v3
//! `ldp-cli` for the MargPS d=6 k=2 ε=1.1 pipeline, seed 42, over the
//! 200 rows `(7·i + 3) mod 64`:
//!
//! * `v3_margps_d6_k2.snapshot` — `encode --batch 7 | ingest` of all 200
//!   users;
//! * `v3_margps_d6_k2.ckpt` — the shutdown checkpoint of a collector
//!   `root` that ingested users 0..100 itself and received users
//!   100..200 (encoded with `--first-user 100`) as a push from a
//!   downstream collector `edge`.

use ldp_server::read_checkpoint;
use marginal_ldp::core::frame::{read_snapshot, write_snapshot, StreamHeader};
use marginal_ldp::core::wire::{Writer, VERSION};
use marginal_ldp::oracles::pipeline::{Client, PipelineAccumulator};
use marginal_ldp::prelude::MechanismKind;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn header() -> StreamHeader {
    StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1)
}

/// This build's state for users `first_user..first_user + n` of the
/// fixture population.
fn own_state(first_user: u64, n: u64) -> Vec<u8> {
    let client = Client::from_header(&header()).unwrap();
    let rows: Vec<u64> = (first_user..first_user + n)
        .map(|i| (i * 7 + 3) % 64)
        .collect();
    let mut frame = Writer::default();
    client.encode_batch(&rows, 42, first_user, &mut frame);
    let mut acc = client.accumulator();
    acc.absorb_frame(frame.as_bytes()).unwrap();
    acc.to_bytes()
}

#[test]
fn a_v3_snapshot_loads_and_reserializes_to_this_builds_snapshot() {
    let bytes = std::fs::read(fixture("v3_margps_d6_k2.snapshot")).unwrap();
    assert_eq!(bytes[5], 3, "the fixture's header is wire v3");
    let (header, state) = read_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(header, self::header());
    let acc = PipelineAccumulator::from_state(&header, &state).unwrap();
    assert_eq!(acc.report_count(), 200);

    let mut reserialized = Vec::new();
    write_snapshot(&mut reserialized, &header, &acc.to_bytes()).unwrap();
    let mut own = Vec::new();
    write_snapshot(&mut own, &header, &own_state(0, 200)).unwrap();
    assert_eq!(reserialized, own, "the v3 snapshot holds other state");
    assert_eq!(own[5], VERSION, "re-serialized under this build's version");
}

#[test]
fn a_v3_checkpoint_loads_with_its_local_and_downstream_state() {
    let checkpoint = read_checkpoint(&fixture("v3_margps_d6_k2.ckpt")).unwrap();
    assert_eq!(checkpoint.collector, "root");
    assert_eq!(checkpoint.reports, 100);
    assert_eq!(checkpoint.header, header());

    let local = PipelineAccumulator::from_state(&header(), &checkpoint.local_state).unwrap();
    assert_eq!(local.to_bytes(), own_state(0, 100));
    let [edge] = checkpoint.downstream.as_slice() else {
        panic!(
            "expected one downstream entry, got {:?}",
            checkpoint.downstream
        );
    };
    assert_eq!(edge.collector, "edge");
    let pushed = PipelineAccumulator::from_state(&header(), &edge.state).unwrap();
    assert_eq!(pushed.to_bytes(), own_state(100, 100));

    // The two halves merge to this build's state of all 200 users.
    let mut all = local;
    all.merge(pushed).unwrap();
    assert_eq!(all.to_bytes(), own_state(0, 200));
}
