//! Hostile bytes against the protocol table's decode entry points —
//! `PipelineReport::from_bytes`, `decode_report_batch_into`,
//! `PipelineAccumulator::from_state` and the frame kernels of
//! `PipelineAccumulator::absorb_frame` — for every one of the ten
//! protocols. Random blobs, valid encodings with flipped bytes, and
//! truncations of valid encodings must each come back as an `Err` or a
//! value, never a panic; a state that does decode must also report its
//! count and re-serialize. The frame kernels must also agree with the
//! reference path (decode, then `absorb_batch`) on every input, and a
//! refused frame must leave the state untouched. Hostile states with
//! counts near `u64::MAX` must merge without overflowing.

use marginal_ldp::core::frame::StreamHeader;
use marginal_ldp::core::user_rng;
use marginal_ldp::core::wire::Writer;
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, header_for, Client, PipelineAccumulator, PipelineReport, Protocol,
    SketchShape,
};
use marginal_ldp::oracles::OracleKind;
use marginal_ldp::prelude::MechanismKind;
use proptest::prelude::*;

const D: u32 = 5;

/// Every pipeline the table serves, with the client its header builds.
fn pipelines() -> Vec<(StreamHeader, Client)> {
    let sketch = SketchShape {
        hashes: 2,
        width: 8,
        family_seed: 3,
    };
    MechanismKind::ALL
        .into_iter()
        .map(Protocol::Mechanism)
        .chain(OracleKind::ALL.into_iter().map(Protocol::Oracle))
        .map(|protocol| {
            let header = header_for(protocol, D, 2, 1.1, sketch);
            (header, Client::from_header(&header).unwrap())
        })
        .collect()
}

/// Feed `bytes` to every decode entry point under `header`; a state
/// that decodes must also report its count and re-serialize. `acc` is
/// a live accumulator of the header's pipeline for the frame kernels.
fn feed(header: &StreamHeader, acc: &PipelineAccumulator, bytes: &[u8]) {
    let _ = PipelineReport::from_bytes(bytes);
    frame_kernel_agrees(acc, bytes);
    if let Ok(state) = PipelineAccumulator::from_state(header, bytes) {
        let _ = state.report_count();
        let _ = state.to_bytes();
    }
}

/// `absorb_frame` accepts exactly what the reference path accepts —
/// `decode_report_batch_into` and then `absorb_batch`, whose range
/// checks refuse any index outside the accumulator's shape — with the
/// same count and byte-identical state; a refused frame leaves the
/// state untouched.
fn frame_kernel_agrees(acc: &PipelineAccumulator, bytes: &[u8]) {
    let before = acc.to_bytes();
    let mut kernel = acc.clone();
    let got = kernel.absorb_frame(bytes);

    let mut reference = acc.clone();
    let mut scratch = Vec::new();
    let want = decode_report_batch_into(bytes, &mut scratch)
        .and_then(|n| reference.absorb_batch(&scratch[..n]).map(|()| n));

    let name = acc.protocol().name();
    match (got, want) {
        (Ok(n), Ok(m)) => {
            assert_eq!(
                n, m,
                "{name}: frame kernel counted {n} reports, reference {m}"
            );
            assert_eq!(
                kernel.to_bytes(),
                reference.to_bytes(),
                "{name}: frame kernel state diverged from the reference"
            );
        }
        (Err(_), Err(_)) => {
            assert_eq!(
                kernel.to_bytes(),
                before,
                "{name}: a refused frame changed state"
            );
        }
        (got, want) => panic!("{name}: frame kernel gave {got:?}, reference {want:?}"),
    }
}

/// Apply `flips` (position, nonzero xor mask) to a copy of `blob`.
fn flipped(blob: &[u8], at: &[usize], masks: &[u8]) -> Vec<u8> {
    let mut out = blob.to_vec();
    if !out.is_empty() {
        let len = out.len();
        for (&pos, &mask) in at.iter().zip(masks) {
            out[pos % len] ^= mask;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, including ones whose first two bytes are a real
    /// tag and the current version so decoding gets past the prelude.
    #[test]
    fn random_bytes_never_panic_a_decoder(
        body in proptest::collection::vec(any::<u8>(), 0..80),
        seed in 0u64..1_000,
    ) {
        for (header, client) in pipelines() {
            let acc = valid_state(&client, seed);
            feed(&header, &acc, &body);
            let report_tag = client.encode_report(0, &mut user_rng(seed, 0))[0];
            for lead in [header.protocol, report_tag, 0x41] {
                let mut bytes = vec![lead, marginal_ldp::core::wire::VERSION];
                bytes.extend_from_slice(&body);
                feed(&header, &acc, &bytes);
            }
        }
    }

    /// Valid reports, batch frames and states of every protocol with
    /// bytes flipped, and cut at an arbitrary point.
    #[test]
    fn mutated_encodings_never_panic_a_decoder(
        seed in 0u64..1_000,
        at in proptest::collection::vec(any::<usize>(), 1..5),
        masks in proptest::collection::vec(1u8..255, 1..5),
        cut in any::<usize>(),
    ) {
        for (header, client) in pipelines() {
            let acc = valid_state(&client, seed);
            let state = acc.to_bytes();
            let report = client.encode_report(seed % (1 << D), &mut user_rng(seed, 0));
            let mut batch = Writer::default();
            let rows: Vec<u64> = (0..6).map(|u| (seed + u) % (1 << D)).collect();
            client.encode_batch(&rows, seed, 0, &mut batch);
            for blob in [report, batch.as_bytes().to_vec(), state] {
                feed(&header, &acc, &flipped(&blob, &at, &masks));
                feed(&header, &acc, &blob[..cut % (blob.len() + 1)]);
            }
        }
    }
}

/// A small valid state for `client`'s protocol.
fn valid_state(client: &Client, seed: u64) -> PipelineAccumulator {
    let mut acc = client.accumulator();
    for u in 0..8u64 {
        let frame = client.encode_report((seed + u) % (1 << D), &mut user_rng(seed, u));
        acc.absorb(&PipelineReport::from_bytes(&frame).unwrap())
            .unwrap();
    }
    acc
}

/// Merging decoded states whose counts sum past `u64::MAX` saturates
/// instead of overflowing (a panic in debug builds, a silent wrap in
/// release), for every protocol that keeps counts — OLH keeps its
/// reports verbatim, so its merge only appends.
#[test]
fn merging_states_near_u64_max_saturates() {
    for (header, client) in pipelines() {
        if client.protocol() == Protocol::Oracle(OracleKind::Olh) {
            continue;
        }
        let name = client.protocol().name();
        let mut acc = valid_state(&client, 1);
        // Each round merges the state with a decoded copy of itself,
        // doubling every count: 64 rounds carry 8 reports past
        // u64::MAX. A saturated InpEM state no longer decodes (its row
        // counts no longer sum to its total), which ends the rounds.
        for _ in 0..64 {
            let Ok(copy) = PipelineAccumulator::from_state(&header, &acc.to_bytes()) else {
                break;
            };
            acc.merge(copy).unwrap();
        }
        assert_eq!(acc.report_count(), u64::MAX, "{name}");
    }
}
