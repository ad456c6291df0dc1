//! The streaming-accumulator partition-invariance law, property-tested
//! at the workspace level over **every** protocol of the one protocol
//! table (the seven mechanisms and the three frequency oracles): any
//! random partition of the users into parts, any within-part
//! interleaving the partition induces, and any merge order of the parts
//! produces an accumulator whose serialized state is *identical* to
//! serial ingest. This extends the seed-schedule invariant behind
//! `Mechanism::run_sharded` (shards = contiguous chunks, merged in
//! order) to arbitrary partitions and merge orders, which is what lets
//! independent collector processes aggregate a population and combine
//! their states in any topology.

use marginal_ldp::core::frame::StreamHeader;
use marginal_ldp::core::wire::Writer;
use marginal_ldp::core::Protocol;
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, header_for, Client, PipelineAccumulator, PipelineEstimate,
    PipelineReport, SketchShape,
};
use marginal_ldp::prelude::*;
use proptest::prelude::*;

/// Domain dimensionality of every test pipeline.
const D: u32 = 6;

/// Every pipeline the table serves, with the client its header builds.
fn pipelines() -> Vec<(StreamHeader, Client)> {
    let sketch = SketchShape {
        hashes: 3,
        width: 16,
        family_seed: 9,
    };
    Protocol::ALL
        .into_iter()
        .map(|protocol| {
            let header = header_for(protocol, D, 2, 1.1, sketch);
            (header, Client::from_header(&header).unwrap())
        })
        .collect()
}

/// One report per row (user `u` under `user_rng(seed, u)`), written by
/// the table's encode kernel and decoded back.
fn reports(client: &Client, rows: &[u64], seed: u64) -> Vec<PipelineReport> {
    let mut w = Writer::default();
    client.encode_batch(rows, seed, 0, &mut w);
    let mut reports = Vec::new();
    let n = decode_report_batch_into(w.as_bytes(), &mut reports).unwrap();
    assert_eq!(n, rows.len());
    reports
}

/// Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=(i as u64)) as usize;
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random partition + random merge order ≡ serial ingest, down to
    /// the serialized bytes, for every protocol.
    #[test]
    fn any_partition_and_merge_order_matches_serial_ingest(
        assignment in proptest::collection::vec(0usize..5, 120..300),
        seed in 0u64..1_000,
        merge_seed in 0u64..1_000,
    ) {
        let parts = 5usize;
        let n = assignment.len();
        let rows: Vec<u64> = (0..n as u64).map(|u| (u * 37 + seed) % (1 << D)).collect();

        for (header, client) in pipelines() {
            let name = client.protocol().name();
            // The per-user seed schedule fixes each user's report no
            // matter which collector ingests it.
            let reports = reports(&client, &rows, seed);

            // Reference: one accumulator, users in index order.
            let mut serial = client.accumulator();
            for r in &reports {
                serial.absorb(r).unwrap();
            }
            let serial_bytes = serial.to_bytes();

            // Partitioned: users scattered over `parts` collectors (the
            // partition induces arbitrary within-part interleavings of
            // user indices), parts merged in a random order.
            let mut collectors: Vec<Option<PipelineAccumulator>> =
                (0..parts).map(|_| Some(client.accumulator())).collect();
            for (user, &part) in assignment.iter().enumerate() {
                collectors[part].as_mut().unwrap().absorb(&reports[user]).unwrap();
            }
            let order = permutation(parts, merge_seed);
            let mut acc = collectors[order[0]].take().unwrap();
            for &i in &order[1..] {
                acc.merge(collectors[i].take().unwrap()).unwrap();
            }

            prop_assert_eq!(
                &acc.to_bytes(),
                &serial_bytes,
                "{} state diverged under partition + merge order",
                name
            );

            // The bytes also survive a process boundary: rehydrate and
            // compare both re-serialization and the final estimate.
            let rehydrated = PipelineAccumulator::from_state(&header, &serial_bytes).unwrap();
            prop_assert_eq!(&rehydrated.to_bytes(), &serial_bytes, "{}", name);
            match (acc.finalize(), rehydrated.finalize()) {
                (PipelineEstimate::Mechanism(a), PipelineEstimate::Mechanism(b)) => {
                    prop_assert_eq!(a, b, "{} estimates diverged after rehydration", name);
                }
                (PipelineEstimate::Oracle(a), PipelineEstimate::Oracle(b)) => {
                    for value in 0..1u64 << D {
                        prop_assert_eq!(
                            a.estimate(value).to_bits(),
                            b.estimate(value).to_bits(),
                            "{} estimates diverged after rehydration",
                            name
                        );
                    }
                }
                _ => prop_assert!(false, "{} finalized into another family", name),
            }
        }
    }

    /// `absorb_batch` over any chunking — empty chunks and singleton
    /// chunks included — is byte-identical to absorbing one report at a
    /// time, for every protocol (InpEM's group-by-value kernel
    /// included).
    #[test]
    fn batched_ingest_matches_serial_for_every_protocol(
        n in 0usize..250,
        seed in 0u64..1_000,
        chunks in proptest::collection::vec(0usize..40, 0..12),
    ) {
        let rows: Vec<u64> = (0..n as u64).map(|u| (u * 37 + seed) % (1 << D)).collect();
        for (_, client) in pipelines() {
            let reports = reports(&client, &rows, seed);
            let mut serial = client.accumulator();
            for r in &reports {
                serial.absorb(r).unwrap();
            }
            let mut batched = client.accumulator();
            let mut start = 0usize;
            for &len in &chunks {
                let end = (start + len).min(reports.len());
                batched.absorb_batch(&reports[start..end]).unwrap();
                start = end;
            }
            batched.absorb_batch(&reports[start..]).unwrap();
            prop_assert_eq!(
                &batched.to_bytes(),
                &serial.to_bytes(),
                "{} batched ingest diverged",
                client.protocol().name()
            );
        }
    }

    /// `REPORT_BATCH` framing is a pure re-chunking of the report
    /// stream: for **every** protocol and any random batch-size sequence
    /// — empty batches included — decoding the wire-v4 batch frames
    /// yields exactly the reports that batches of one (`--batch 1`) of
    /// the same users decode to, and absorbing them batch-by-batch
    /// produces accumulator state byte-identical to serial ingest.
    #[test]
    fn batch_frames_decode_identical_to_singles(
        n in 0usize..120,
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(0usize..33, 1..8),
    ) {
        let rows: Vec<u64> = (0..n as u64).map(|u| (u * 37 + seed) % (1 << D)).collect();
        for (header, client) in pipelines() {
            let mut frame = Writer::default();
            let mut scratch: Vec<PipelineReport> = Vec::new();
            let mut singles: Vec<PipelineReport> = Vec::new();
            for (u, row) in rows.iter().enumerate() {
                client.encode_batch(std::slice::from_ref(row), seed, u as u64, &mut frame);
                let m = decode_report_batch_into(frame.as_bytes(), &mut scratch).unwrap();
                singles.extend_from_slice(&scratch[..m]);
            }

            let mut serial = PipelineAccumulator::empty(&header).unwrap();
            for report in &singles {
                serial.absorb(report).unwrap();
            }

            // Re-chunk the stream: each random size becomes one batch
            // frame (size 0 → an empty batch frame), and whatever is
            // left over lands in one final batch.
            let mut batched = PipelineAccumulator::empty(&header).unwrap();
            let mut decoded: Vec<PipelineReport> = Vec::new();
            let mut start = 0usize;
            for &size in sizes.iter().chain([&usize::MAX]) {
                let end = start.saturating_add(size).min(rows.len());
                client.encode_batch(&rows[start..end], seed, start as u64, &mut frame);
                let m = decode_report_batch_into(frame.as_bytes(), &mut scratch).unwrap();
                batched.absorb_batch(&scratch[..m]).unwrap();
                decoded.extend_from_slice(&scratch[..m]);
                start = end;
            }

            prop_assert_eq!(&decoded, &singles, "protocol {:#04x}", header.protocol);
            prop_assert_eq!(
                &batched.to_bytes(),
                &serial.to_bytes(),
                "protocol {:#04x}: batch-framed state diverged from serial ingest",
                header.protocol
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The frame kernels (`absorb_frame`, validate-then-absorb straight
    /// from the packed bits) against the reference path
    /// (`decode_report_batch_into` then `absorb_batch`): for every
    /// protocol and any random chunking of a population into wire-v4
    /// `REPORT_BATCH` frames — empty and singleton frames, and every
    /// batch size modulo the eight-report load groups, included — each
    /// frame returns the same count and leaves byte-identical state.
    #[test]
    fn frame_kernels_match_the_reference_decoder(
        n in 0usize..300,
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(0usize..70, 1..10),
    ) {
        let rows: Vec<u64> = (0..n as u64).map(|u| (u * 37 + seed) % (1 << D)).collect();
        for (header, client) in pipelines() {
            let name = client.protocol().name();
            let mut kernel = PipelineAccumulator::empty(&header).unwrap();
            let mut reference = PipelineAccumulator::empty(&header).unwrap();
            let mut scratch: Vec<PipelineReport> = Vec::new();
            let mut frame = Writer::default();
            let mut start = 0usize;
            for &size in sizes.iter().chain([&usize::MAX]) {
                let end = start.saturating_add(size).min(rows.len());
                client.encode_batch(&rows[start..end], seed, start as u64, &mut frame);
                let m = decode_report_batch_into(frame.as_bytes(), &mut scratch).unwrap();
                reference.absorb_batch(&scratch[..m]).unwrap();
                prop_assert_eq!(kernel.absorb_frame(frame.as_bytes()), Ok(end - start), "{}", name);
                prop_assert_eq!(
                    &kernel.to_bytes(),
                    &reference.to_bytes(),
                    "{}: frame kernel diverged from the reference after reports {}..{}",
                    name,
                    start,
                    end
                );
                start = end;
            }
        }
    }
}

/// InpEM's group-by-value batch kernel — the one typed aggregator with
/// its own `absorb_batch` — driven directly: the empty buffer, empty
/// batches, singleton batches, and the whole-buffer batch all match the
/// serial loop, with and without the dense scratch.
#[test]
fn typed_batch_kernels_match_serial_including_empty_and_singleton() {
    use marginal_ldp::core::InpEm;
    use rand::{rngs::StdRng, SeedableRng};

    // d = 4 groups through the dense scratch; d = 20 exceeds it and
    // takes the serial fallback.
    for d in [4, 20] {
        let mech = InpEm::new(d, 1.1);
        let mut rng = StdRng::seed_from_u64(9);
        let reports: Vec<u64> = (0..200u64).map(|u| mech.encode(u % 16, &mut rng)).collect();
        for chunks in [vec![], vec![0, 1, 0, 1], vec![7, 500]] {
            let mut serial = mech.aggregator();
            for r in &reports {
                serial.absorb(*r);
            }
            let mut batched = mech.aggregator();
            let mut start = 0usize;
            for &len in &chunks {
                let end = (start + len).min(reports.len());
                batched.absorb_batch(&reports[start..end]);
                start = end;
            }
            batched.absorb_batch(&reports[start..]);
            assert_eq!(
                Accumulator::to_bytes(&serial),
                Accumulator::to_bytes(&batched),
                "d = {d}, chunking {chunks:?}"
            );
        }
        let empty = mech.aggregator();
        let mut batched = mech.aggregator();
        batched.absorb_batch(&[]);
        assert_eq!(
            Accumulator::to_bytes(&empty),
            Accumulator::to_bytes(&batched),
            "d = {d}, empty buffer"
        );
    }
}
