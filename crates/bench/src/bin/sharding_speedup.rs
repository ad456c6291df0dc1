#![forbid(unsafe_code)]
//! Sharded-runner scaling experiment: serial vs `run_sharded` wall time
//! on a large synthetic population, with bit-identity verification.
//!
//! ```text
//! cargo run --release -p ldp_bench --bin sharding_speedup [n] [shards]
//! ```
//!
//! Defaults: n = 1,000,000 taxi users, shards = 8. Prints per-mechanism
//! serial and sharded wall times (each the best of five runs), the
//! speedup, the same two times per user, and verifies the two estimates
//! are bit-identical before reporting anything. The speedup ceiling is
//! `min(shards, cores)`: shards are embarrassingly parallel and merged
//! in O(state) at the end, so on a single-core machine the interesting
//! number is the *overhead* (sharded/serial ≈ 1.0). The per-user times
//! are an in-process cost per mechanism, free of the repo benchmark's
//! window noise; InpRR's is its aggregate simulation (`run_fast`), which
//! draws per input cell, not per user.

use ldp_bench::DataSource;
use ldp_core::MechanismKind;
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map_or(1_000_000, |a| a.parse().expect("n must be an integer"));
    let shards: usize = args
        .next()
        .map_or(8, |a| a.parse().expect("shards must be an integer"));
    let (d, k, eps, seed) = (8u32, 2u32, 1.1f64, 42u64);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("population n = {n}, d = {d}, k = {k}, eps = {eps}");
    println!("shards = {shards}, available cores = {cores}");
    println!();

    let data = DataSource::Taxi.generate(d, n, seed);

    println!(
        "{:>8}  {:>10}  {:>10}  {:>8}  {:>10}  {:>10}  identical",
        "", "serial", "sharded", "speedup", "serial/u", "sharded/u"
    );
    for kind in MechanismKind::SIX {
        let mechanism = kind.build(d, k, eps);
        let best_of_five = |shards: usize| {
            let mut best = Duration::MAX;
            let mut estimate = None;
            for _ in 0..5 {
                let t0 = Instant::now();
                let run = mechanism.run_sharded(data.rows(), seed, shards);
                best = best.min(t0.elapsed());
                estimate = Some(run);
            }
            (best, estimate.expect("five runs"))
        };

        // Explicit 1-shard baseline: `run` itself auto-shards across
        // the available cores.
        let (t_serial, serial) = best_of_five(1);
        let (t_sharded, sharded) = best_of_five(shards);
        let per_user = |t: Duration| t.as_secs_f64() * 1e9 / n as f64;

        let identical = serial == sharded;
        println!(
            "{:>8}  {:>10.1?}  {:>10.1?}  {:>7.2}x  {:>7.1} ns  {:>7.1} ns  {}",
            kind.name(),
            t_serial,
            t_sharded,
            t_serial.as_secs_f64() / t_sharded.as_secs_f64(),
            per_user(t_serial),
            per_user(t_sharded),
            identical,
        );
        assert!(
            identical,
            "{} diverged between serial and sharded",
            kind.name()
        );
    }
}
