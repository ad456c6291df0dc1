//! Cross-crate integration: every mechanism end-to-end on realistic
//! populations, checking the accuracy relationships the paper's
//! evaluation establishes.

use marginal_ldp::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn taxi(n: usize, seed: u64) -> BinaryDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiGenerator::default().generate(n, &mut rng)
}

fn movielens(d: u32, n: usize, seed: u64) -> BinaryDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    MovieLensGenerator::new(d).generate(n, &mut rng)
}

#[test]
fn all_seven_mechanisms_reconstruct_2way_marginals() {
    let data = taxi(60_000, 1);
    for kind in [
        MechanismKind::InpRr,
        MechanismKind::InpPs,
        MechanismKind::InpHt,
        MechanismKind::MargRr,
        MechanismKind::MargPs,
        MechanismKind::MargHt,
        MechanismKind::InpEm,
    ] {
        let est = kind.build(8, 2, 2.0).run(data.rows(), 3);
        let tvd = mean_kway_tvd(&est, &data, 2);
        assert!(tvd.is_finite() && tvd >= 0.0, "{}", kind.name());
        // Every method must be much better than a uniform guess on this
        // strongly-correlated data at a generous eps.
        let uniform_tvd: f64 = {
            let mut total = 0.0;
            let mut count = 0;
            for beta in ldp_bits::masks_of_weight(8, 2) {
                let truth = data.true_marginal(beta);
                let uni = vec![0.25; 4];
                total += total_variation_distance(&truth, &uni);
                count += 1;
            }
            total / f64::from(count)
        };
        assert!(
            tvd < uniform_tvd,
            "{} tvd {tvd} vs uniform {uniform_tvd}",
            kind.name()
        );
    }
}

#[test]
fn inpht_dominates_at_moderate_dimension() {
    // The paper's headline: InpHT achieves the lowest (or near-lowest)
    // error. Require it to beat InpPS, MargRR and InpEM outright and be
    // within 1.6x of everything else at d=8, k=2, eps=1.1.
    let data = taxi(100_000, 2);
    let tvd = |kind: MechanismKind, seed: u64| {
        let est = kind.build(8, 2, 1.1).run(data.rows(), seed);
        mean_kway_tvd(&est, &data, 2)
    };
    let ht = tvd(MechanismKind::InpHt, 10);
    for kind in [
        MechanismKind::InpPs,
        MechanismKind::MargRr,
        MechanismKind::InpEm,
    ] {
        assert!(ht < tvd(kind, 11), "InpHT {ht} should beat {}", kind.name());
    }
    for kind in [
        MechanismKind::InpRr,
        MechanismKind::MargPs,
        MechanismKind::MargHt,
    ] {
        assert!(
            ht < tvd(kind, 12) * 1.6,
            "InpHT {ht} should be near-best vs {}",
            kind.name()
        );
    }
}

#[test]
fn error_decreases_with_population_for_scalable_methods() {
    let big = movielens(8, 131_072, 3);
    let small = BinaryDataset::new(8, big.rows()[..8_192].to_vec());
    for kind in [
        MechanismKind::InpHt,
        MechanismKind::MargPs,
        MechanismKind::MargHt,
    ] {
        let mech = kind.build(8, 2, 1.1);
        let tvd_small = mean_kway_tvd(&mech.run(small.rows(), 4), &small, 2);
        let tvd_big = mean_kway_tvd(&mech.run(big.rows(), 4), &big, 2);
        // 16x the users: expect clearly better (≥2x, theory says 4x).
        assert!(
            tvd_big < tvd_small / 2.0,
            "{}: {tvd_small} -> {tvd_big}",
            kind.name()
        );
    }
}

#[test]
fn error_decreases_with_epsilon() {
    let data = movielens(8, 65_536, 5);
    for kind in [MechanismKind::InpHt, MechanismKind::MargPs] {
        let loose = mean_kway_tvd(&kind.build(8, 2, 0.4).run(data.rows(), 6), &data, 2);
        let tight = mean_kway_tvd(&kind.build(8, 2, 1.4).run(data.rows(), 6), &data, 2);
        assert!(tight < loose, "{}: {loose} -> {tight}", kind.name());
    }
}

#[test]
fn one_way_queries_are_consistent_across_estimate_types() {
    // Every estimate type must answer 1-way queries derived from its
    // 2-way collection, and they must agree with the truth.
    let data = taxi(100_000, 7);
    for kind in [
        MechanismKind::InpRr,
        MechanismKind::InpHt,
        MechanismKind::MargRr,
        MechanismKind::MargPs,
        MechanismKind::MargHt,
    ] {
        let est = kind.build(8, 2, 2.0).run(data.rows(), 8);
        for a in 0..8u32 {
            let beta = Mask::single(a);
            let m = est.marginal(beta);
            let truth = data.true_marginal(beta);
            assert!(
                (m[1] - truth[1]).abs() < 0.1,
                "{} attr {a}: {} vs {}",
                kind.name(),
                m[1],
                truth[1]
            );
        }
    }
}

#[test]
fn estimates_are_reproducible_for_fixed_seed() {
    let data = taxi(20_000, 9);
    for kind in MechanismKind::SIX {
        let mech = kind.build(8, 2, 1.1);
        let a = mech.run(data.rows(), 77);
        let b = mech.run(data.rows(), 77);
        let beta = Mask::from_attrs(&[0, 7]);
        assert_eq!(a.marginal(beta), b.marginal(beta), "{}", kind.name());
    }
}

#[test]
fn communication_costs_match_table_2() {
    let (d, k) = (8u32, 2u32);
    let expected = [
        (MechanismKind::InpRr, 256u64),
        (MechanismKind::InpPs, 8),
        (MechanismKind::InpHt, 9),
        (MechanismKind::MargRr, 12),
        (MechanismKind::MargPs, 10),
        (MechanismKind::MargHt, 11),
    ];
    for (kind, bits) in expected {
        assert_eq!(
            kind.bound().unwrap().communication_bits(d, k),
            bits,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn empirical_error_respects_master_theorem_shape() {
    // The measured InpHT error should be below the Theorem 4.2 bound
    // evaluated at its (ps, pr), scaled through Lemma 3.7 as in
    // Theorem 4.5 — a loose sanity check that theory and code agree.
    use marginal_ldp::mechanisms::theory::{coefficient_count, master_error_at_confidence};
    let (d, k, eps) = (8u32, 2u32, 1.1f64);
    let data = taxi(131_072, 10);
    let est = MechanismKind::InpHt.build(d, k, eps).run(data.rows(), 11);
    let measured = mean_kway_tvd(&est, &data, k);

    let t = coefficient_count(d, k) as f64;
    let pr = eps.exp() / (1.0 + eps.exp());
    let per_coeff = master_error_at_confidence(data.n(), 1.0 / t, pr, 0.05);
    // Theorem 4.5: TVD ≤ 2^{k/2} · per-coefficient error (after scaling).
    let bound = (1u64 << k) as f64 * per_coeff;
    assert!(
        measured < bound,
        "measured {measured} should be below theory bound {bound}"
    );
}
