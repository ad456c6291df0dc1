//! The batched encode kernels are report-for-report identical to the
//! serial per-user `encode` loop of each protocol's typed mechanism,
//! for every mechanism and every oracle, under arbitrary batch
//! chunkings (empty and single-report chunks included).
//!
//! This is the contract that makes `--batch` and the open-loop load
//! generator pure transport optimizations: a collector absorbing the
//! batched frames ends up with exactly the reports the serial path
//! would have produced.

use marginal_ldp::core::user_rng;
use marginal_ldp::core::wire::Writer;
use marginal_ldp::core::Protocol;
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, header_for, Client, PipelineReport, SketchShape,
};
use proptest::prelude::*;

const D: u32 = 6;
const K: u32 = 2;
const EPS: f64 = 1.1;
const SKETCH: SketchShape = SketchShape {
    hashes: 3,
    width: 16,
    family_seed: 9,
};

fn client_for(protocol: Protocol) -> Client {
    let header = header_for(protocol, D, K, EPS, SKETCH);
    Client::from_header(&header).expect("test header is valid")
}

/// The serial reference: encode each row under its own
/// `user_rng(seed, first_user + i)` stream through the typed
/// mechanism's own `encode`.
fn serial_reports(
    client: &Client,
    rows: &[u64],
    seed: u64,
    first_user: u64,
) -> Vec<PipelineReport> {
    rows.iter()
        .enumerate()
        .map(|(i, &row)| {
            let rng = &mut user_rng(seed, first_user.wrapping_add(i as u64));
            match client {
                Client::InpRr(m) => PipelineReport::InpRr(m.encode(row, rng)),
                Client::InpPs(m) => PipelineReport::InpPs(m.encode(row, rng)),
                Client::InpHt(m) => PipelineReport::InpHt(m.encode(row, rng)),
                Client::MargRr(m) => PipelineReport::MargRr(m.encode(row, rng)),
                Client::MargPs(m) => PipelineReport::MargPs(m.encode(row, rng)),
                Client::MargHt(m) => PipelineReport::MargHt(m.encode(row, rng)),
                Client::InpEm(m) => PipelineReport::InpEm(m.encode(row, rng)),
                Client::Olh(o) => PipelineReport::Olh(o.encode(row, rng)),
                Client::Cms(o) => PipelineReport::Cms(Box::new(o.encode(row, rng))),
                Client::Hcms(o) => PipelineReport::Hcms(o.encode(row, rng)),
            }
        })
        .collect()
}

/// The reports one batch frame decodes to.
fn decoded(frame: &Writer) -> Vec<PipelineReport> {
    let mut reports = Vec::new();
    let n = decode_report_batch_into(frame.as_bytes(), &mut reports).unwrap();
    reports.truncate(n);
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One `encode_batch` call carries exactly the serial loop's
    /// reports, for every protocol, at any user offset.
    #[test]
    fn batch_matches_serial_loop(
        rows in proptest::collection::vec(0u64..(1u64 << D), 0..40),
        seed in 0u64..1000,
        first_user in 0u64..10_000,
    ) {
        let mut w = Writer::default();
        for protocol in Protocol::ALL {
            let client = client_for(protocol);
            client.encode_batch(&rows, seed, first_user, &mut w);
            let serial = serial_reports(&client, &rows, seed, first_user);
            prop_assert_eq!(decoded(&w), serial, "{}", protocol.name());
        }
    }

    /// Chunking is invisible: splitting a population at arbitrary cut
    /// points (empty chunks included) and calling `encode_batch` with
    /// the matching `first_user` offsets reproduces, chunk by chunk,
    /// the reports the serial loop produces for those users.
    #[test]
    fn chunking_is_invisible(
        rows in proptest::collection::vec(0u64..(1u64 << D), 0..48),
        cuts in proptest::collection::vec(0usize..64, 0..6),
        seed in 0u64..1000,
    ) {
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (rows.len() + 1)).collect();
        bounds.push(0);
        bounds.push(rows.len());
        bounds.sort_unstable();
        let mut w = Writer::default();
        for protocol in Protocol::ALL {
            let client = client_for(protocol);
            for pair in bounds.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                let chunk = &rows[lo..hi];
                client.encode_batch(chunk, seed, lo as u64, &mut w);
                let serial = serial_reports(&client, chunk, seed, lo as u64);
                prop_assert_eq!(
                    decoded(&w), serial,
                    "{} chunk {}..{}", protocol.name(), lo, hi
                );
            }
        }
    }
}
