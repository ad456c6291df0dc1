//! `Mechanism::run_sharded` against the plain reference pipeline: every
//! user's report from the mechanism's own `encode`, absorbed into its
//! aggregator one at a time, serially. `run` is free to fuse encode and
//! absorb (MargRR counts its table's words as they are drawn, with no
//! report in between); this pins that every arm gives the identical
//! estimate, at MargRR table widths of one word and of several (k ≥ 7),
//! and at 1, 2 and 7 shards.
//!
//! InpRR is left out: its `run` is the aggregate simulation
//! `InpRr::run_fast`, which draws different randomness by design.

use marginal_ldp::core::{ingest_sharded, Accumulator as _};
use marginal_ldp::prelude::*;

/// Users in the population: more than the 4,096 below which `run`
/// stays serial.
const USERS: u64 = 5_000;

/// `(d, k)` shapes: the paper's default, MargRR tables of two and four
/// words (k = 7, 8), a wide InpHT coefficient set, and k = d.
const SHAPES: [(u32, u32); 5] = [(8, 2), (8, 7), (9, 8), (16, 3), (5, 5)];

const SEED: u64 = 42;

/// A fixed, skewed population over `d` attributes.
fn population(d: u32) -> Vec<u64> {
    (0..USERS)
        .map(|u| {
            let h = u.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h ^ (h >> 29)) & (h >> 17) & ((1u64 << d) - 1)
        })
        .collect()
}

/// The serial encode-then-absorb reference.
fn reference(mechanism: &Mechanism, rows: &[u64]) -> Estimate {
    macro_rules! ingest {
        ($m:ident) => {
            ingest_sharded(rows, SEED, 1, || $m.aggregator(), |r, g| $m.encode(r, g)).finalize()
        };
    }
    match mechanism {
        Mechanism::InpPs(m) => Estimate::Full(ingest!(m)),
        Mechanism::InpHt(m) => Estimate::Hadamard(ingest!(m)),
        Mechanism::MargRr(m) => Estimate::MarginalSet(ingest!(m)),
        Mechanism::MargPs(m) => Estimate::MarginalSet(ingest!(m)),
        Mechanism::MargHt(m) => Estimate::MarginalSet(ingest!(m)),
        Mechanism::InpEm(m) => Estimate::Em(ingest!(m)),
        Mechanism::InpRr(_) => unreachable!("InpRR's run is the aggregate simulation"),
    }
}

#[test]
fn run_sharded_matches_the_encode_absorb_reference() {
    for (d, k) in SHAPES {
        let rows = population(d);
        let kinds = [
            MechanismKind::InpPs,
            MechanismKind::InpHt,
            MechanismKind::MargRr,
            MechanismKind::MargPs,
            MechanismKind::MargHt,
        ]
        .into_iter()
        .chain((d <= 8).then_some(MechanismKind::InpEm));
        for kind in kinds {
            let mechanism = kind.build(d, k, 1.1);
            let expected = reference(&mechanism, &rows);
            for shards in [1, 2, 7] {
                assert!(
                    mechanism.run_sharded(&rows, SEED, shards) == expected,
                    "{} d={d} k={k} shards={shards} differs from the reference",
                    kind.name()
                );
            }
        }
    }
}
