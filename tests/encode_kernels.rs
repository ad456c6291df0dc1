//! The batched encode kernels are report-for-report identical to the
//! serial per-user `encode` loop of each protocol's typed mechanism,
//! for every mechanism and every oracle, under arbitrary batch
//! chunkings (empty and single-report chunks included).
//!
//! This is the contract that makes `--batch` and the open-loop load
//! generator pure transport optimizations: a collector absorbing the
//! batched frames ends up with exactly the reports the serial path
//! would have produced.
//!
//! The frame kernels are held to the same reference on the other side:
//! `absorb_frame` over `encode_batch` frames leaves state byte-identical
//! to typed serial `encode` then the typed aggregator's `absorb`. The
//! fixed-field kernels are checked on both sides of the batch size where
//! they switch from absorbing report by report to counting reports by
//! value, the set kernel at sets that end mid-word or span several words
//! and at batch sizes that are not multiples of 64 (and against a
//! bit-by-bit count of the typed reports' words, since typed `absorb`
//! shares its word counter), and a frame holding one out-of-range report
//! is refused whole, naming it.

use marginal_ldp::core::wire::Writer;
use marginal_ldp::core::{layout, user_rng, Accumulator, Protocol};
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, header_for, Aggregator, Client, Encoder, PipelineAccumulator,
    PipelineReport, SketchShape, ENVELOPE_BYTES,
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
    client_at(protocol, D, K)
}

fn client_at(protocol: Protocol, d: u32, k: u32) -> Client {
    sketch_client(protocol, d, k, SKETCH)
}

fn sketch_client(protocol: Protocol, d: u32, k: u32, sketch: SketchShape) -> Client {
    let header = header_for(protocol, d, k, EPS, sketch);
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
            match client.encoder() {
                Encoder::InpRr(m) => PipelineReport::InpRr(m.encode(row, rng)),
                Encoder::InpPs(m) => PipelineReport::InpPs(m.encode(row, rng)),
                Encoder::InpHt(m) => PipelineReport::InpHt(m.encode(row, rng)),
                Encoder::MargRr(m) => PipelineReport::MargRr(m.encode(row, rng)),
                Encoder::MargPs(m) => PipelineReport::MargPs(m.encode(row, rng)),
                Encoder::MargHt(m) => PipelineReport::MargHt(m.encode(row, rng)),
                Encoder::InpEm(m) => PipelineReport::InpEm(m.encode(row, rng)),
                Encoder::Olh(o) => PipelineReport::Olh(o.encode(row, rng)),
                Encoder::Cms(o) => PipelineReport::Cms(Box::new(o.encode(row, rng))),
                Encoder::Hcms(o) => PipelineReport::Hcms(o.encode(row, rng)),
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

/// The fixed-field kernels with a range check, each at a shape whose
/// reports have at most 10 fixed bits (so a 1024-report batch holds
/// every field value twice over), plus InpHT at d=16, k=3, whose 11-bit
/// reports outnumber a 1024-report batch.
const FIXED_FIELD_SHAPES: [(Protocol, u32, u32); 6] = [
    (Protocol::MargPs, 8, 2),
    (Protocol::MargPs, 5, 2),
    (Protocol::MargHt, 8, 2),
    (Protocol::Hcms, 8, 2),
    (Protocol::InpHt, 5, 2),
    (Protocol::InpHt, 16, 3),
];

/// Bits before the set in a report of this shape.
fn fixed_bits(protocol: Protocol, d: u32, k: u32) -> u32 {
    layout(protocol, d, k, SKETCH.hashes, SKETCH.width).fixed()
}

/// A fixed, skewed population over `d` attributes.
fn population(d: u32, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|u| {
            let h = u.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h ^ (h >> 29)) & (h >> 17) & ((1u64 << d) - 1)
        })
        .collect()
}

/// Typed serial `encode`, then the typed aggregator's `absorb`, one
/// report at a time: the state the frame kernels must reproduce.
fn typed_state(client: &Client, rows: &[u64], seed: u64) -> Vec<u8> {
    macro_rules! serial {
        ($m:ident) => {{
            let mut acc = $m.aggregator();
            for (u, &row) in (0u64..).zip(rows) {
                Accumulator::absorb(&mut acc, &$m.encode(row, &mut user_rng(seed, u)));
            }
            acc.to_bytes()
        }};
    }
    match client.encoder() {
        Encoder::InpRr(m) => serial!(m),
        Encoder::InpHt(m) => serial!(m),
        Encoder::MargRr(m) => serial!(m),
        Encoder::MargPs(m) => serial!(m),
        Encoder::MargHt(m) => serial!(m),
        Encoder::Cms(o) => serial!(o),
        Encoder::Hcms(o) => serial!(o),
        _ => panic!("{} has no typed reference here", client.protocol().name()),
    }
}

/// One `encode_batch` frame of `rows`, the first of them user
/// `first_user`.
fn frame(client: &Client, rows: &[u64], seed: u64, first_user: u64) -> Vec<u8> {
    let mut w = Writer::default();
    client.encode_batch(rows, seed, first_user, &mut w);
    w.into_bytes()
}

/// The set-carrying shapes (InpRR, MargRR, CMS), each `(protocol, d,
/// k, hashes, width)`: sets of 2 to 256 bits that end mid-word (InpRR
/// d=5, MargRR k ≤ 2, CMS width 65 and 100), fill one word (InpRR d=6,
/// MargRR k=6) or span several (InpRR d ≥ 7, MargRR k=7, CMS).
const SET_SHAPES: [(Protocol, u32, u32, u32, u32); 11] = [
    (Protocol::InpRr, 5, 2, 0, 0),
    (Protocol::InpRr, 6, 2, 0, 0),
    (Protocol::InpRr, 7, 2, 0, 0),
    (Protocol::InpRr, 8, 2, 0, 0),
    (Protocol::MargRr, 8, 1, 0, 0),
    (Protocol::MargRr, 8, 2, 0, 0),
    (Protocol::MargRr, 8, 6, 0, 0),
    (Protocol::MargRr, 8, 7, 0, 0),
    (Protocol::Cms, 8, 1, 1, 65),
    (Protocol::Cms, 8, 1, 3, 100),
    (Protocol::Cms, 8, 1, 5, 256),
];

/// The seed of the populations [`assert_frames_match_typed`] encodes.
const SEED: u64 = 17;

/// Absorb a `2·count`-row population over `d` attributes as two
/// `count`-report frames, the second onto a state that already holds
/// counts, compare the state with the typed reference's, and return it.
fn assert_frames_match_typed(
    client: &Client,
    d: u32,
    count: usize,
    shape: &str,
) -> PipelineAccumulator {
    let rows = population(d, 2 * count);
    let (first, second) = rows.split_at(count);
    let mut acc = client.accumulator();
    for (part, first_user) in [(first, 0), (second, count as u64)] {
        let absorbed = acc.absorb_frame(&frame(client, part, SEED, first_user));
        assert_eq!(absorbed, Ok(count), "{shape}");
    }
    assert!(
        acc.to_bytes() == typed_state(client, &rows, SEED),
        "{shape}: {count}-report frames diverged from the typed reference"
    );
    acc
}

/// The set reference that shares no code with the set kernel: each
/// typed report's words counted bit by bit (`word >> j & 1`), a cell
/// past the row's width counting nothing, into per-row user counts and
/// row-major 1-counts.
fn naive_set_counts(client: &Client, rows: &[u64], seed: u64) -> (Vec<u64>, Vec<u64>) {
    let (row_count, width) = match client.encoder() {
        Encoder::InpRr(m) => (1, 1usize << m.d()),
        Encoder::MargRr(m) => (m.marginal_count(), 1usize << m.k()),
        Encoder::Cms(o) => (o.rows(), o.width()),
        _ => panic!("{} carries no set", client.protocol().name()),
    };
    let (mut users, mut ones) = (vec![0u64; row_count], vec![0u64; row_count * width]);
    for (u, &value) in (0u64..).zip(rows) {
        let rng = &mut user_rng(seed, u);
        let (row, words) = match client.encoder() {
            Encoder::InpRr(m) => (0, m.encode(value, rng)),
            Encoder::MargRr(m) => {
                let r = m.encode(value, rng);
                (r.marginal as usize, r.words)
            }
            Encoder::Cms(o) => {
                let r = o.encode(value, rng);
                (usize::from(r.row), r.words)
            }
            _ => unreachable!(),
        };
        users[row] += 1;
        for (i, word) in words.iter().enumerate() {
            for j in 0..64 {
                let cell = 64 * i + j;
                if cell < width && word >> j & 1 == 1 {
                    ones[row * width + cell] += 1;
                }
            }
        }
    }
    (users, ones)
}

/// The per-row user counts and 1-counts of a set accumulator's tally.
fn set_counts(acc: &PipelineAccumulator) -> (Vec<u64>, Vec<u64>) {
    macro_rules! counts {
        ($a:ident) => {{
            let mut a = $a.clone();
            let (users, ones) = a.tally_mut().counts();
            (users.to_vec(), ones.to_vec())
        }};
    }
    match acc.aggregator() {
        Aggregator::InpRr(a) => counts!(a),
        Aggregator::MargRr(a) => counts!(a),
        Aggregator::Cms(a) => counts!(a),
        _ => panic!("{} carries no set", acc.protocol().name()),
    }
}

/// `absorb_frame` leaves the typed reference's state. The fixed-field
/// kernels are run at batch sizes just below and at twice the number of
/// field values, `2·2^fixed`, and at 1024 and 4096 reports; the set
/// kernel at every [`SET_SHAPES`] shape, at batch sizes below, just
/// under, just over and well past 64. Typed `absorb` and the frame
/// kernel count a set through the same `UnaryRow::add_word`, so the set
/// kernel's counts are also held to [`naive_set_counts`].
#[test]
fn frame_kernels_match_typed_encode_then_absorb() {
    for (protocol, d, k) in FIXED_FIELD_SHAPES {
        let client = client_at(protocol, d, k);
        let threshold = 2usize << fixed_bits(protocol, d, k);
        for count in [threshold - 1, threshold, 1024, 4096] {
            assert_frames_match_typed(
                &client,
                d,
                count,
                &format!("{} d={d} k={k}", protocol.name()),
            );
        }
    }
    for (protocol, d, k, hashes, width) in SET_SHAPES {
        let sketch = SketchShape {
            hashes,
            width,
            family_seed: 9,
        };
        let client = sketch_client(protocol, d, k, sketch);
        let shape = format!("{} d={d} k={k} {hashes}×{width}", protocol.name());
        for count in [1, 7, 63, 65, 1024] {
            let acc = assert_frames_match_typed(&client, d, count, &shape);
            assert!(
                set_counts(&acc) == naive_set_counts(&client, &population(d, 2 * count), SEED),
                "{shape}: {count}-report frames diverged from the bit-by-bit count"
            );
        }
    }
}

/// Overwrite the `bits`-bit field at bit `at` of a frame's body.
fn put_bits(frame: &mut [u8], at: usize, bits: u32, value: u64) {
    for b in 0..bits as usize {
        let bit = ENVELOPE_BYTES * 8 + at + b;
        let mask = 1u8 << (bit % 8);
        if value >> b & 1 == 1 {
            frame[bit / 8] |= mask;
        } else {
            frame[bit / 8] &= !mask;
        }
    }
}

/// A 1024-report frame, at least two reports per field value, holding
/// one report whose leading field is out of range — first, in the middle or last — is refused whole:
/// the error names that report and its field, and the state (already
/// holding one valid frame) is unchanged.
#[test]
fn counted_frames_with_one_bad_report_are_refused_whole() {
    const COUNT: usize = 1024;
    // Each case: a shape, and a leading-field value its width allows
    // but the shape does not (32 marginals fit 5 bits, C(8,2) = 28;
    // 16 InpHT coefficients fit 4 bits, T = 15; 4 HCMS rows fit 2 bits,
    // 3 are sketched).
    let cases = [
        (
            Protocol::MargPs,
            8,
            2,
            31,
            "MargPS marginal 31 is out of range",
        ),
        (
            Protocol::MargHt,
            8,
            2,
            30,
            "MargHT marginal 30 is out of range",
        ),
        (
            Protocol::InpHt,
            5,
            2,
            15,
            "InpHT coefficient 15 is out of range",
        ),
        (Protocol::Hcms, 8, 2, 3, "HCMS row 3 is out of range"),
    ];
    for (protocol, d, k, bad, why) in cases {
        let client = client_at(protocol, d, k);
        let l = layout(protocol, d, k, SKETCH.hashes, SKETCH.width);
        assert!(
            COUNT >= 2 << l.fixed(),
            "{}: fewer than two reports per field value",
            protocol.name()
        );
        let rows = population(d, 2 * COUNT);
        let mut acc = client.accumulator();
        acc.absorb_frame(&frame(&client, &rows[..COUNT], 5, 0))
            .expect("a valid frame is absorbed");
        let before = acc.to_bytes();
        let good = frame(&client, &rows[COUNT..], 5, COUNT as u64);
        for at in [0, COUNT / 2, COUNT - 1] {
            let mut forged = good.clone();
            put_bits(&mut forged, at * l.fixed() as usize, l.index, bad);
            let err = acc.absorb_frame(&forged).unwrap_err();
            assert!(
                err.contains(&format!("report {at} of the batch")) && err.contains(why),
                "{}: {err}",
                protocol.name()
            );
            assert!(
                acc.to_bytes() == before,
                "{}: a refused frame changed state",
                protocol.name()
            );
        }
        assert_eq!(acc.absorb_frame(&good), Ok(COUNT), "{}", protocol.name());
    }
}
