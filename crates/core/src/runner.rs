//! Deterministic (and optionally sharded) simulation of a user population.
//!
//! Each user runs their client protocol independently, so the population
//! loop shards cleanly: the server side is an [`Accumulator`], whose
//! contract (commutative `absorb`, associative + commutative `merge`,
//! exact integer state) is the **single source of truth** for why
//! sharding is safe — see the partition-invariance law spelled out on
//! [`Accumulator`]. This module contributes the
//! other half: the **seed schedule**. Every user `u` draws from a
//! private RNG seeded as a function of `(seed, u)` only (see
//! [`user_rng`]), so the randomness a user consumes is independent of
//! how the population is partitioned. Reports are therefore identical
//! under any partition, the accumulator's partition-invariance law does
//! the rest, and [`ingest_sharded`] is **bit-identical** (up to
//! serialized accumulator state) for *any* shard count; `shards = 1`
//! is the serial reference.
//!
//! [`run_population_sharded`] is the closure-based lower layer for
//! aggregates that do not implement [`Accumulator`] (tests, one-off
//! histograms); mechanism code should prefer [`ingest_sharded`].

use crate::Accumulator;
use ldp_sampling::hash::splitmix64;
use rand::{rngs::SmallRng, SeedableRng};
use rayon::prelude::*;

/// The private RNG of user `user` under population seed `seed`.
///
/// Distinct users get decorrelated SplitMix64-whitened seeds; the
/// golden-ratio multiply keeps nearby user indices far apart in seed
/// space before whitening.
///
/// The stream itself is fixed by the vendored `rand`'s stream contract
/// (its crate docs): `seed_from_u64` is the `rand_core` SplitMix64
/// expansion and `gen_range` is threshold-then-`%` rejection. Its fast
/// paths are exact, so every user's reports stay the same bits;
/// `tests/rng_streams.rs` pins both.
#[inline]
#[must_use]
pub fn user_rng(seed: u64, user: u64) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Encode and absorb every user's report, with the population
/// partitioned into `shards` contiguous chunks executed in parallel;
/// per-shard accumulators are [`Accumulator::merge`]d in shard order.
///
/// * `make_acc` — construct the empty accumulator (e.g.
///   [`crate::InpHt::aggregator`]);
/// * `encode` — produce user `u`'s report from their record and private
///   RNG (e.g. [`crate::InpHt::encode`]).
///
/// By the seed schedule (module docs) plus the accumulator laws, the
/// resulting state is identical to the serial `shards = 1` run for
/// every `shards` value — the property `tests/streaming.rs` checks
/// byte-for-byte.
pub fn ingest_sharded<A, F, E>(rows: &[u64], seed: u64, shards: usize, make_acc: F, encode: E) -> A
where
    A: Accumulator,
    F: Fn() -> A + Sync + Send,
    E: Fn(u64, &mut SmallRng) -> A::Report + Sync + Send,
{
    run_population_sharded(
        rows,
        seed,
        shards,
        make_acc,
        |row, rng, acc: &mut A| acc.absorb(&encode(row, rng)),
        |acc, part| acc.merge(part),
    )
}

/// Closure-based variant of [`ingest_sharded`], with explicit closures
/// instead of an [`Accumulator`] (for ad-hoc aggregates): split the
/// population into `shards` contiguous chunks executed in parallel (via
/// the rayon work-queue), then merge in shard order.
///
/// * `make_agg` — construct an empty aggregate;
/// * `step` — encode one user's record and absorb the report;
/// * `merge` — fold one shard's aggregate into another.
///
/// Because the seed schedule is per-user (see [`user_rng`]) and the
/// `step`/`merge` closures are expected to follow the [`Accumulator`]
/// laws, the result is bit-identical to the serial `shards = 1` run
/// regardless of `shards` or thread scheduling.
pub fn run_population_sharded<A, F, G, M>(
    rows: &[u64],
    seed: u64,
    shards: usize,
    make_agg: F,
    step: G,
    merge: M,
) -> A
where
    A: Send,
    F: Fn() -> A + Sync + Send,
    G: Fn(u64, &mut SmallRng, &mut A) + Sync + Send,
    M: Fn(&mut A, A),
{
    let shards = shards.clamp(1, rows.len().max(1));

    let run_shard = |first_user: usize, shard_rows: &[u64]| {
        let mut agg = make_agg();
        for (offset, &row) in shard_rows.iter().enumerate() {
            let mut rng = user_rng(seed, (first_user + offset) as u64);
            step(row, &mut rng, &mut agg);
        }
        agg
    };

    if shards <= 1 {
        return run_shard(0, rows);
    }

    let chunk = rows.len().div_ceil(shards);
    let tasks: Vec<(usize, &[u64])> = rows
        .chunks(chunk)
        .enumerate()
        .map(|(i, shard_rows)| (i * chunk, shard_rows))
        .collect();
    let parts: Vec<A> = tasks
        .into_par_iter()
        .map(|(first_user, shard_rows)| run_shard(first_user, shard_rows))
        .collect();

    let mut parts = parts.into_iter();
    let mut acc = parts.next().unwrap_or_else(&make_agg);
    for part in parts {
        merge(&mut acc, part);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(rows: &[u64], seed: u64, shards: usize) -> Vec<u64> {
        run_population_sharded(
            rows,
            seed,
            shards,
            || vec![0u64; 7],
            |row, _rng, agg| agg[row as usize] += 1,
            |a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            },
        )
    }

    #[test]
    fn counts_every_row_once() {
        let rows: Vec<u64> = (0..100_000).map(|i| i % 7).collect();
        let agg = histogram(&rows, 1, 8);
        assert_eq!(agg.iter().sum::<u64>(), 100_000);
        for (v, expect) in agg
            .iter()
            .zip([14286u64, 14286, 14286, 14286, 14286, 14285, 14285])
        {
            assert_eq!(*v, expect);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let rows: Vec<u64> = (0..50_000).map(|i| i % 3).collect();
        let run = |seed| {
            run_population_sharded(
                &rows,
                seed,
                1,
                || 0u64,
                |row, rng, acc| {
                    use rand::Rng;
                    *acc = acc.wrapping_add(row ^ rng.gen::<u64>());
                },
                |a, b| *a = a.wrapping_add(b),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// The load-bearing property: randomness consumed per user does not
    /// depend on the shard layout, so any shard count reproduces the
    /// serial result exactly — even for an order-sensitive aggregator
    /// (here: a Vec of (user, draw) pairs concatenated across shards).
    #[test]
    fn sharded_is_bit_identical_to_serial() {
        let rows: Vec<u64> = (0..10_000).map(|i| (i * 31) % 64).collect();
        let trace = |shards: usize| {
            run_population_sharded(
                &rows,
                99,
                shards,
                Vec::new,
                |row, rng, acc: &mut Vec<(u64, u64)>| {
                    use rand::Rng;
                    acc.push((row, rng.gen::<u64>()));
                },
                |a, mut b| a.append(&mut b),
            )
        };
        let serial = trace(1);
        for shards in [2usize, 3, 7, 8, 64, 1000, 10_000] {
            assert_eq!(trace(shards), serial, "shards={shards}");
        }
    }

    #[test]
    fn shard_count_larger_than_population() {
        let rows = [1u64, 2, 3];
        let agg = run_population_sharded(
            &rows,
            0,
            128,
            || 0u64,
            |row, _rng, acc| *acc += row,
            |a, b| *a += b,
        );
        assert_eq!(agg, 6);
    }

    #[test]
    fn empty_population() {
        let agg =
            run_population_sharded(&[], 0, 1, || 41u64, |_, _, acc| *acc += 1, |a, b| *a += b);
        assert_eq!(agg, 41);
    }
}
