//! Golden pins for the two per-user RNG primitives every simulation and
//! every client pays for: `SeedableRng::seed_from_u64` (the stream a
//! user's `user_rng` starts) and `Rng::gen_range` over integers (the
//! marginal, coefficient and lie draws).
//!
//! The vendored `rand` computes both through fast paths. These tests
//! hold them to their reference definitions, value for value and word
//! for word:
//! * seeding is `from_seed` of the SplitMix64 byte expansion of
//!   `rand_core::SeedableRng::seed_from_u64`;
//! * a draw below `span` is threshold-then-`%` rejection: draw `x`,
//!   accept once `x ≥ 2^64 mod span`, return `x % span`.
//!
//! The last two tests pin hashes of whole outputs — the six
//! mechanisms' `run` estimates and all ten protocols' `encode_batch`
//! frames — so any drift in a stream fails here, not only in a
//! byte-identity script run by hand.

use marginal_ldp::bits::masks_of_weight;
use marginal_ldp::core::wire::Writer;
use marginal_ldp::core::Protocol;
use marginal_ldp::oracles::pipeline::{header_for, Client, SketchShape};
use marginal_ldp::prelude::*;
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, RngCore, SeedableRng};

/// The reference seed expansion: SplitMix64 (Steele, Lea & Flood 2014)
/// written little-endian into the 32-byte seed, as `rand_core` does.
fn splitmix_seed(mut state: u64) -> [u8; 32] {
    let mut seed = [0u8; 32];
    for chunk in seed.chunks_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    seed
}

/// Seeds 0, `u64::MAX`, their neighbours, and a spread in between.
fn seeds() -> impl Iterator<Item = u64> {
    let edges = [0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
    let spread = (0..100_000u64).map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (i << 7));
    edges.into_iter().chain(spread)
}

#[test]
fn seed_from_u64_is_the_splitmix_byte_expansion() {
    for s in seeds() {
        let direct = StdRng::seed_from_u64(s);
        let reference = StdRng::from_seed(splitmix_seed(s));
        assert_eq!(
            format!("{direct:?}"),
            format!("{reference:?}"),
            "StdRng seed {s}"
        );
        let (mut direct, mut reference) = (
            SmallRng::seed_from_u64(s),
            SmallRng::from_seed(splitmix_seed(s)),
        );
        for _ in 0..4 {
            assert_eq!(direct.next_u64(), reference.next_u64(), "SmallRng seed {s}");
        }
    }
}

#[test]
fn the_all_zero_seed_falls_back_to_a_valid_state() {
    let mut rng = StdRng::from_seed([0; 32]);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert!(words.iter().any(|&w| w != 0), "all-zero xoshiro state");
}

/// A generator that counts the words drawn from it.
struct Counted {
    rng: SmallRng,
    words: u64,
}

impl Counted {
    fn new(seed: u64) -> Self {
        Counted {
            rng: SmallRng::seed_from_u64(seed),
            words: 0,
        }
    }
}

impl RngCore for Counted {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.rng.next_u64()
    }
}

/// The reference draw below `span`: no word for `span = 1`, otherwise
/// reject `x < 2^64 mod span`, then `x % span`.
fn reference_below(rng: &mut Counted, span: u64) -> u64 {
    if span == 1 {
        return 0;
    }
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        if x >= threshold {
            return x % span;
        }
    }
}

/// Spans with no rejection (powers of two), with almost none (small
/// spans), and with about half the words rejected (`2^63 + 1`).
const SPANS: [u64; 11] = [
    1,
    2,
    3,
    28,
    255,
    256,
    697,
    u32::MAX as u64,
    1 << 63,
    (1 << 63) + 1,
    u64::MAX,
];

#[test]
fn gen_range_is_threshold_then_remainder_word_for_word() {
    for (i, span) in SPANS.into_iter().enumerate() {
        let seed = 1000 + i as u64;
        let (mut fast, mut reference) = (Counted::new(seed), Counted::new(seed));
        for draw in 0..20_000 {
            let got = fast.gen_range(0..span);
            let want = reference_below(&mut reference, span);
            assert_eq!(got, want, "span {span}, draw {draw}");
            assert_eq!(
                fast.words, reference.words,
                "span {span}, draw {draw}: words"
            );
        }
    }
}

#[test]
fn shifted_signed_and_inclusive_ranges_follow_the_same_draw() {
    let (mut fast, mut reference) = (Counted::new(7), Counted::new(7));
    for _ in 0..20_000 {
        assert_eq!(
            fast.gen_range(10u32..38),
            10 + reference_below(&mut reference, 28) as u32
        );
        assert_eq!(
            fast.gen_range(-5i64..=5),
            -5 + reference_below(&mut reference, 11) as i64
        );
        assert_eq!(
            fast.gen_range(1u64..=u64::MAX),
            1 + reference_below(&mut reference, u64::MAX)
        );
        // The full inclusive range is one raw word.
        assert_eq!(fast.gen_range(0..=u64::MAX), reference.next_u64());
        assert_eq!(
            fast.gen_range(i64::MIN..=i64::MAX),
            reference.next_u64() as i64
        );
        assert_eq!(fast.words, reference.words);
    }
}

/// 64-bit FNV-1a, enough to pin a byte stream.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A fixed, skewed population over `d = 8` attributes, larger than the
/// 4,096 users below which `run` stays serial.
fn population() -> Vec<u64> {
    (0..6_000u64)
        .map(|u| {
            let h = u.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h ^ (h >> 29)) & (h >> 17) & 0xFF
        })
        .collect()
}

#[test]
fn run_estimates_match_their_recorded_hashes() {
    const PINNED: [(MechanismKind, u64); 6] = [
        (MechanismKind::InpRr, 0xC880_A42A_E19F_9797),
        (MechanismKind::InpPs, 0x4A4E_0C11_5755_7598),
        (MechanismKind::InpHt, 0x021C_3B82_B78C_99D5),
        (MechanismKind::MargRr, 0x1C60_65EF_4C22_7491),
        (MechanismKind::MargPs, 0x9117_DCA7_36E9_D18D),
        (MechanismKind::MargHt, 0xB7BF_C35F_B5E8_6E9A),
    ];
    let rows = population();
    let mut drift = Vec::new();
    for (kind, pinned) in PINNED {
        let estimate = kind.build(8, 2, 1.1).run(&rows, 42);
        let mut hash = FNV_OFFSET;
        for beta in masks_of_weight(8, 2) {
            for p in estimate.marginal(beta) {
                fnv1a(&mut hash, &p.to_bits().to_le_bytes());
            }
        }
        if hash != pinned {
            drift.push(format!("{}: {hash:#018x}", kind.name()));
        }
    }
    assert!(drift.is_empty(), "run estimates drifted: {drift:?}");
}

#[test]
fn encode_batch_frames_match_their_recorded_hashes() {
    const PINNED: [(Protocol, u64); 10] = [
        (Protocol::InpRr, 0x467C_9B9C_6822_785D),
        (Protocol::InpPs, 0xBBC2_85E2_825F_2EEE),
        (Protocol::InpHt, 0xA31E_AD9E_CE54_BA61),
        (Protocol::MargRr, 0x9F28_D5D1_F7EB_8D40),
        (Protocol::MargPs, 0x25DA_7645_F45C_9D66),
        (Protocol::MargHt, 0x34B7_0993_2C02_3A16),
        (Protocol::InpEm, 0xDB7F_CB8D_F0D1_E802),
        (Protocol::Olh, 0xD4B3_43A5_E2D0_54A2),
        (Protocol::Cms, 0x1479_9304_3723_88F9),
        (Protocol::Hcms, 0xCDBE_4059_D3A6_E936),
    ];
    let rows = &population()[..1_000];
    let sketch = SketchShape {
        hashes: 5,
        width: 256,
        family_seed: 1,
    };
    let mut frame = Writer::default();
    let mut drift = Vec::new();
    for (protocol, pinned) in PINNED {
        let client = Client::from_header(&header_for(protocol, 8, 2, 1.1, sketch)).unwrap();
        let mut hash = FNV_OFFSET;
        // Two batches, the second starting mid-population.
        for (first_user, batch) in [(0, &rows[..700]), (700, &rows[700..])] {
            client.encode_batch(batch, 7, first_user, &mut frame);
            fnv1a(&mut hash, frame.as_bytes());
        }
        if hash != pinned {
            drift.push(format!("{}: {hash:#018x}", protocol.name()));
        }
    }
    assert!(drift.is_empty(), "encode_batch frames drifted: {drift:?}");
}
