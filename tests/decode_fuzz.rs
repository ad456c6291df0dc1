//! Hostile bytes against every decode entry point a collector exposes:
//! the protocol table's `decode_report_batch_into`,
//! `PipelineAccumulator::from_state` and the frame kernels of
//! `PipelineAccumulator::absorb_frame` for all ten protocols, and the
//! server's checkpoint (`Checkpoint::from_bytes`, `read_checkpoint`),
//! push request and control response decoders. Random blobs, valid
//! encodings with flipped bytes, and truncations of valid encodings
//! must each come back as an `Err` or a value, never a panic; a state
//! that does decode must also report its count and re-serialize. The
//! frame kernels must agree with the reference path (decode, then
//! `absorb_batch`) on every input of their own shape, and a refused
//! frame must leave the state untouched — including batches with
//! nonzero pad bits, a count the body length disagrees with, and an
//! envelope of another shape. No decoder may allocate for a length the
//! input does not contain. Hostile states with counts near `u64::MAX`
//! must merge without overflowing, and a state collected under another
//! configuration than its header's is refused by the field it differs
//! in.

use ldp_server::{read_checkpoint, Checkpoint, DownstreamEntry, PushRequest, Request, Response};
use marginal_ldp::core::frame::{FrameWriter, StreamHeader};
use marginal_ldp::core::wire::Writer;
use marginal_ldp::core::{layout, Layout, Protocol};
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, header_for, Client, PipelineAccumulator, SketchShape,
};
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
    Protocol::ALL
        .into_iter()
        .map(|protocol| {
            let header = header_for(protocol, D, 2, 1.1, sketch);
            (header, Client::from_header(&header).unwrap())
        })
        .collect()
}

/// The report layout of `header`'s pipeline.
fn layout_of(header: &StreamHeader) -> Layout {
    let protocol = Protocol::from_header(header).unwrap();
    layout(protocol, header.d, header.k, header.hashes, header.width)
}

/// A wire-v4 batch of `n` users' reports.
fn encoded_batch(client: &Client, seed: u64, n: u64) -> Vec<u8> {
    let rows: Vec<u64> = (0..n).map(|u| (seed + u) % (1 << D)).collect();
    let mut w = Writer::default();
    client.encode_batch(&rows, seed, 0, &mut w);
    w.into_bytes()
}

/// Feed `bytes` to every decode entry point under `header`; a state
/// that decodes must also report its count and re-serialize. `acc` is
/// a live accumulator of the header's pipeline for the frame kernels.
fn feed(header: &StreamHeader, acc: &PipelineAccumulator, bytes: &[u8]) {
    frame_kernel_agrees(acc, bytes);
    if let Ok(state) = PipelineAccumulator::from_state(header, bytes) {
        let _ = state.report_count();
        let _ = state.to_bytes();
    }
    feed_server_decoders(bytes);
}

/// The server-side decoders: checkpoint, request (push included) and
/// response.
fn feed_server_decoders(bytes: &[u8]) {
    if let Ok(checkpoint) = Checkpoint::from_bytes(bytes) {
        let _ = checkpoint.to_bytes();
    }
    let _ = Request::from_bytes(bytes);
    let _ = Response::from_bytes(bytes);
}

/// `absorb_frame` accepts exactly what the reference path accepts —
/// `decode_report_batch_into` and then `absorb_batch`, whose range
/// checks refuse any index outside the accumulator's shape — with the
/// same count and byte-identical state; a refused frame leaves the
/// state untouched. The frame kernels also refuse an envelope of
/// another shape, which the reference path decodes.
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
        (Err(e), Ok(_)) if e.contains("cannot be absorbed by") => {
            assert_eq!(
                kernel.to_bytes(),
                before,
                "{name}: a refused frame changed state"
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

/// A small valid checkpoint blob of `client`'s pipeline.
fn valid_checkpoint(header: &StreamHeader, client: &Client, seed: u64) -> Vec<u8> {
    let state = valid_state(client, seed).to_bytes();
    Checkpoint {
        collector: "edge-1".to_string(),
        epoch: seed,
        reports: 8,
        header: *header,
        local_state: state.clone(),
        downstream: vec![DownstreamEntry {
            collector: "leaf".to_string(),
            epoch: 2,
            state,
        }],
    }
    .to_bytes()
}

/// A valid push request of `client`'s pipeline.
fn valid_push(header: &StreamHeader, client: &Client, seed: u64) -> Vec<u8> {
    Request::Push(PushRequest {
        collector: "edge-1".to_string(),
        epoch: seed,
        header: *header,
        state: valid_state(client, seed).to_bytes(),
    })
    .to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, including ones led by a real tag and the current
    /// version — a state, a batch, a checkpoint, a push or a response —
    /// so decoding gets past the prelude. Batches also get the
    /// pipeline's own envelope over a random body, with the count the
    /// body holds and its pad bits cleared, so the range checks see
    /// arbitrary field values. Bodies reach 400 bytes, so a fixed-field
    /// batch holds up to hundreds of reports.
    #[test]
    fn random_bytes_never_panic_a_decoder(
        body in proptest::collection::vec(any::<u8>(), 0..400),
        seed in 0u64..1_000,
    ) {
        use marginal_ldp::core::wire::{tag, VERSION};
        for (header, client) in pipelines() {
            let acc = valid_state(&client, seed);
            feed(&header, &acc, &body);
            for lead in [
                header.protocol,
                tag::REPORT_BATCH,
                tag::CHECKPOINT,
                tag::REQ_PUSH,
                tag::RESP_SNAPSHOT,
            ] {
                let mut bytes = vec![lead, VERSION];
                bytes.extend_from_slice(&body);
                feed(&header, &acc, &bytes);
            }
            let l = layout_of(&header);
            let count = (body.len() as u64 * 8 / l.bits()) as u32;
            let mut bytes = encoded_batch(&client, seed, 0);
            bytes[10..14].copy_from_slice(&count.to_le_bytes());
            bytes.extend_from_slice(&body[..l.body_bytes(count) as usize]);
            let used = u64::from(count) * l.bits() % 8;
            if let Some(last) = bytes.last_mut().filter(|_| used != 0) {
                *last &= (1u8 << used) - 1;
            }
            feed(&header, &acc, &bytes);
        }
    }

    /// Valid batch frames, states, checkpoints and push requests of
    /// every protocol with bytes flipped, and cut at an arbitrary point.
    #[test]
    fn mutated_encodings_never_panic_a_decoder(
        seed in 0u64..1_000,
        at in proptest::collection::vec(any::<usize>(), 1..5),
        masks in proptest::collection::vec(1u8..255, 1..5),
        cut in any::<usize>(),
    ) {
        for (header, client) in pipelines() {
            let acc = valid_state(&client, seed);
            for blob in [
                encoded_batch(&client, seed, 6),
                acc.to_bytes(),
                valid_checkpoint(&header, &client, seed),
                valid_push(&header, &client, seed),
            ] {
                feed(&header, &acc, &flipped(&blob, &at, &masks));
                feed(&header, &acc, &blob[..cut % (blob.len() + 1)]);
            }
        }
    }

    /// The structural faults of a wire-v4 batch, for every protocol at
    /// batch sizes on both sides of the counting threshold of the
    /// fixed-field kernels: set pad bits, a count the body disagrees with,
    /// and a valid batch of another shape. Each is refused by both
    /// paths (the reference decodes the other shape, which the frame
    /// kernels refuse by name) and leaves the state untouched.
    #[test]
    fn v4_batch_faults_are_refused_whole(
        seed in 0u64..1_000,
        n in 0u64..300,
        delta in 1u32..9,
    ) {
        let all = pipelines();
        for (i, (header, client)) in all.iter().enumerate() {
            let acc = valid_state(client, seed);
            let good = encoded_batch(client, seed, n);
            feed(header, &acc, &good);

            // Set pad bits, when the last byte has any.
            if !(n * layout_of(header).bits()).is_multiple_of(8) {
                let mut padded = good.clone();
                *padded.last_mut().unwrap() |= 0x80;
                let mut scratch = Vec::new();
                let err = decode_report_batch_into(&padded, &mut scratch).unwrap_err();
                prop_assert!(err.contains("pad bits"), "{}", err);
                feed(header, &acc, &padded);
            }

            // A count off by `delta` either way.
            for claim in [n as u32 + delta, (n as u32).saturating_sub(delta)] {
                let mut forged = good.clone();
                forged[10..14].copy_from_slice(&claim.to_le_bytes());
                feed(header, &acc, &forged);
            }

            // Another pipeline's batch, and this pipeline's at another d.
            let (_, other) = &all[(i + 1) % all.len()];
            feed(header, &acc, &encoded_batch(other, seed, n));
            let mut wider = *header;
            wider.d = D + 1;
            let wider = Client::from_header(&wider).unwrap();
            let mut kernel = acc.clone();
            let err = kernel.absorb_frame(&encoded_batch(&wider, seed, n)).unwrap_err();
            prop_assert!(err.contains(&format!("d={}", D + 1)), "{}", err);
            prop_assert!(err.contains(&format!("d={D}")), "{}", err);
            prop_assert_eq!(kernel.to_bytes(), acc.to_bytes());
        }
    }
}

/// A small valid state for `client`'s protocol.
fn valid_state(client: &Client, seed: u64) -> PipelineAccumulator {
    let mut acc = client.accumulator();
    acc.absorb_frame(&encoded_batch(client, seed, 8)).unwrap();
    acc
}

/// This process's peak virtual memory in KiB, where `/proc` reports it.
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Blobs whose length prefixes and counts claim gigabytes the input
/// does not contain — a 4 GiB byte-slice, 2^64 downstream entries, a
/// 2^64-element table, 2^32 batch reports — are refused without
/// reserving that memory: the process's peak virtual size grows by far
/// less than any one claim. Every decoder checks a claimed length
/// against the bytes it was given before allocating.
#[test]
fn claimed_lengths_the_input_lacks_allocate_nothing() {
    use marginal_ldp::core::wire::tag;
    let header = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1);
    let client = Client::from_header(&header).unwrap();
    let before = vm_peak_kib();

    let mut hostile: Vec<Vec<u8>> = Vec::new();
    // Byte-slices claiming u32::MAX bytes: a checkpoint's collector id,
    // a push's collector id, a snapshot response's header blob, an
    // error response's message.
    for t in [
        tag::CHECKPOINT,
        tag::REQ_PUSH,
        tag::RESP_SNAPSHOT,
        tag::RESP_ERROR,
    ] {
        let mut w = Writer::with_tag(t);
        w.put_u32(u32::MAX);
        w.put_u64(7);
        hostile.push(w.into_bytes());
    }
    // A checkpoint claiming u64::MAX downstream entries.
    let mut checkpoint = Checkpoint::from_bytes(&valid_checkpoint(&header, &client, 1)).unwrap();
    checkpoint.downstream.clear();
    let mut blob = checkpoint.to_bytes();
    let n = blob.len();
    blob[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
    hostile.push(blob);
    // A query response claiming a 2^64-element table.
    let mut w = Writer::with_tag(tag::RESP_QUERY);
    w.put_u64(u64::MAX);
    hostile.push(w.into_bytes());
    // A batch claiming u32::MAX reports.
    let mut batch = encoded_batch(&client, 1, 3);
    batch[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
    hostile.push(batch);

    let mut acc = client.accumulator();
    let mut scratch = Vec::new();
    for blob in &hostile {
        let refused = match blob[0] {
            tag::CHECKPOINT => Checkpoint::from_bytes(blob).is_err(),
            tag::REQ_PUSH => Request::from_bytes(blob).is_err(),
            tag::REPORT_BATCH => {
                decode_report_batch_into(blob, &mut scratch).is_err()
                    && acc.absorb_frame(blob).is_err()
            }
            _ => Response::from_bytes(blob).is_err(),
        };
        assert!(
            refused,
            "a {:#04x} blob claiming a huge length decoded",
            blob[0]
        );
    }
    // The checkpoint file path too: a framed hostile checkpoint.
    let path = std::env::temp_dir().join(format!("ldp_fuzz_ckpt_{}", std::process::id()));
    let mut file = Vec::new();
    FrameWriter::new(&mut file)
        .write_frame(&hostile[0])
        .unwrap();
    std::fs::write(&path, &file).unwrap();
    assert!(read_checkpoint(&path).is_err());
    let _ = std::fs::remove_file(&path);

    assert!(scratch.is_empty(), "a refused batch grew the scratch");
    if let (Some(before), Some(after)) = (before, vm_peak_kib()) {
        // Far below the smallest claim (4 GiB), far above what the test
        // threads themselves map.
        assert!(
            after.saturating_sub(before) < 1 << 20,
            "peak virtual memory grew by {} KiB",
            after - before
        );
    }
}

/// Merging decoded states whose counts sum past `u64::MAX` saturates
/// instead of overflowing (a panic in debug builds, a silent wrap in
/// release), for every protocol that keeps counts — OLH keeps its
/// reports verbatim, so its merge only appends. Each saturated state
/// still finalizes: an estimate divides by the one saturating report
/// count, never by a second sum that wraps.
#[test]
fn merging_states_near_u64_max_saturates() {
    for (header, client) in pipelines() {
        if client.protocol() == Protocol::Olh {
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
        let _ = acc.finalize();
    }
}

/// A signed state (InpHT, MargHT, HCMS) stores each table entry as
/// `sums = pos − neg` and `counts = pos + neg`, so `from_state` refuses
/// an entry no report tally makes — `counts + sums` odd, or
/// `|sums| > counts` — and loads one that a tally does make.
#[test]
fn signed_states_no_tally_makes_are_refused() {
    use marginal_ldp::bits::binomial;
    use marginal_ldp::mechanisms::theory::coefficient_count;
    for (header, client) in pipelines() {
        // Entries per serialized row, and rows per table.
        let (entries, rows) = match client.protocol() {
            Protocol::InpHt => (coefficient_count(D, 2), 1),
            Protocol::MargHt => (binomial(u64::from(D), 2) << 2, 1),
            Protocol::Hcms => (u64::from(header.width), u64::from(header.hashes)),
            _ => continue,
        };
        let name = client.protocol().name();
        let state = valid_state(&client, 1).to_bytes();
        // The first entry of the last row of each table: the tables are
        // the state's tail, all sums rows and then all counts rows.
        let (entries, rows) = (entries as usize, rows as usize);
        let count_at = state.len() - 8 * entries;
        let sum_at = state.len() - rows * (8 + 8 * entries) - 8 * entries;
        let word = |at: usize| <[u8; 8]>::try_from(&state[at..at + 8]).unwrap();
        let (sum, count) = (
            i64::from_le_bytes(word(sum_at)),
            u64::from_le_bytes(word(count_at)),
        );
        let load = |sum: i64, count: u64| {
            let mut forged = state.clone();
            forged[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
            forged[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
            PipelineAccumulator::from_state(&header, &forged)
        };
        let loaded = load(sum, count).unwrap();
        assert_eq!(loaded.to_bytes(), state, "{name}");
        // Two more positive reports: a tally makes it.
        let more = load(sum + 2, count + 2).unwrap();
        assert_eq!(more.report_count(), loaded.report_count() + 2, "{name}");
        for (sum, count, why) in [
            (sum, count + 1, "odd counts + sums"),
            (count as i64 + 2, count, "sums above counts"),
            (-(count as i64) - 2, count, "sums below −counts"),
        ] {
            let err = load(sum, count).err().unwrap_or_else(|| {
                panic!("{name}: a state with {why} loaded");
            });
            assert!(err.contains("no tally makes"), "{name}, {why}: {err}");
        }
    }
}

/// A state collected under another configuration than its header's —
/// another ε for every protocol, another hash family for the sketches,
/// another EM threshold or iteration cap for InpEM — is refused by the
/// field it differs in: its counts mean something only under the
/// configuration they were collected with, and the header is the one
/// the estimate would use.
#[test]
fn states_of_another_configuration_are_refused_by_field() {
    use marginal_ldp::core::{Accumulator, InpEm};
    let mut cases: Vec<(StreamHeader, Vec<u8>, &str)> = Vec::new();
    for (header, client) in pipelines() {
        let state = valid_state(&client, 1).to_bytes();
        // ε = 1.2 keeps OLH's g = ⌈e^ε⌉ + 1 = 5, so its probability
        // is the first field to differ.
        let other = StreamHeader { eps: 1.2, ..header };
        let other_state = valid_state(&Client::from_header(&other).unwrap(), 1).to_bytes();
        let field = match client.protocol() {
            // Optimized unary encoding keeps p1 = 1/2 at every ε.
            Protocol::InpRr => "InpRR p0",
            Protocol::InpPs => "InpPS truth probability",
            Protocol::InpHt => "InpHT keep probability",
            Protocol::MargRr => "MargRR p0",
            Protocol::MargPs => "MargPS truth probability",
            Protocol::MargHt => "MargHT keep probability",
            Protocol::InpEm => "InpEM keep probability",
            Protocol::Olh => "OLH truth probability",
            Protocol::Cms => "CMS p0",
            Protocol::Hcms => "HCMS keep probability",
        };
        cases.push((header, other_state, field));
        if matches!(client.protocol(), Protocol::Cms | Protocol::Hcms) {
            let family = StreamHeader {
                family_seed: header.family_seed + 1,
                ..header
            };
            let family_state = valid_state(&Client::from_header(&family).unwrap(), 1).to_bytes();
            let field = match client.protocol() {
                Protocol::Cms => "CMS hash coefficients",
                _ => "HCMS hash coefficients",
            };
            cases.push((header, family_state, field));
        }
        if client.protocol() == Protocol::InpEm {
            for (mech, field) in [
                (
                    InpEm::with_convergence(D, header.eps, 1e-3, 100_000),
                    "InpEM convergence threshold",
                ),
                (
                    InpEm::with_convergence(D, header.eps, 1e-5, 7),
                    "InpEM iteration cap",
                ),
            ] {
                let mut agg = mech.aggregator();
                agg.absorb_batch(&[1, 2, 3]);
                cases.push((header, agg.to_bytes(), field));
            }
        }
        // The honest state still loads, byte for byte.
        let loaded = PipelineAccumulator::from_state(&header, &state).unwrap();
        assert_eq!(loaded.to_bytes(), state);
    }
    assert_eq!(cases.len(), 14);
    for (header, state, field) in cases {
        let err = PipelineAccumulator::from_state(&header, &state)
            .err()
            .unwrap_or_else(|| panic!("a state differing in {field} loaded"));
        assert_eq!(
            err,
            format!("snapshot state does not match header: {field} differs")
        );
    }
}
