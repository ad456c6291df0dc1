//! Quickstart: privately reconstruct a 2-way marginal with the paper's
//! headline mechanism (`InpHT`), and compare all six mechanisms on the
//! same population.
//!
//! Run with `cargo run --release --example quickstart`.

use marginal_ldp::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // 1. A population: 200k taxi trips with 8 private binary attributes.
    let mut rng = StdRng::seed_from_u64(2018);
    let data = TaxiGenerator::default().generate(200_000, &mut rng);
    println!("population: N = {}, d = {}", data.n(), data.d());

    // 2. Collection under ε = 1.1 LDP. Each user sends ONE tiny report
    //    (d + 1 = 9 bits for InpHT); the aggregator can then answer any
    //    marginal of order ≤ k = 2.
    let (k, eps) = (2, 1.1);
    let kind = MechanismKind::InpHt;
    let mech = kind.build(data.d(), k, eps);
    let bound = kind.bound().expect("InpHT has a Table 2 bound");
    println!(
        "mechanism: {} ({} bits/user, eps = {eps})",
        kind.name(),
        bound.communication_bits(data.d(), k)
    );
    let estimate = mech.run(data.rows(), 42);

    // 3. Query: the (M_pick, M_drop) marginal of Figure 2.
    let beta = Mask::from_attrs(&[5, 6]);
    let private = clamp_normalize(&estimate.marginal(beta));
    let exact = data.true_marginal(beta);
    println!("\n(M_pick, M_drop) marginal   exact    private");
    for (cell, label) in ["NN", "YN", "NY", "YY"].iter().enumerate() {
        println!(
            "  {label}                      {:.4}   {:.4}",
            exact[cell], private[cell]
        );
    }
    println!(
        "total variation distance: {:.4}",
        total_variation_distance(&exact, &estimate.marginal(beta))
    );

    // 4. All six mechanisms on the same data, mean TVD over all 2-way
    //    marginals (one row of Figure 4).
    println!("\nmean 2-way TVD by mechanism:");
    for kind in MechanismKind::SIX {
        let est = kind.build(data.d(), k, eps).run(data.rows(), 43);
        println!("  {:7} {:.4}", kind.name(), mean_kway_tvd(&est, &data, k));
    }
    println!("\n(expect InpHT lowest or near-lowest — the paper's headline result)");
}
