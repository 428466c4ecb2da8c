//! Property tests over random CNFs (≤ 12 variables).
//!
//! Every formula is small enough to brute-force, so the fast paths are
//! checked against exhaustive or reference implementations:
//!
//! - `msa` (incremental engine) and `msa_scan` (rescan reference) return
//!   identical sets for every order — the documented contract.
//! - Any returned assignment is a genuine model (member of the exhaustive
//!   `all_models` enumeration), and `msa` finds one iff the formula is
//!   satisfiable.
//! - Unit propagation in the watched-literal `Engine` agrees with the naive
//!   full-rescan `propagate`, both from scratch and under random assumptions.

use lbr_logic::{
    dpll, msa, msa_scan, propagate, Clause, Cnf, Engine, Lit, PartialAssignment, Propagation, Var,
    VarOrder, VarSet,
};
use lbr_prng::SplitMix64;

/// A random CNF with `1..=12` variables and short mixed-polarity clauses.
fn random_cnf(rng: &mut SplitMix64) -> Cnf {
    let n = rng.gen_range(1usize..=12);
    let mut cnf = Cnf::new(n);
    let clauses = rng.gen_range(1usize..=2 * n + 4);
    for _ in 0..clauses {
        let width = rng.gen_range(1usize..=3);
        let lits: Vec<Lit> = (0..width)
            .map(|_| {
                let v = Var::new(rng.gen_range(0usize..n) as u32);
                if rng.gen_bool(0.5) {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        cnf.add_clause(Clause::new(lits)); // tautologies are silently dropped
    }
    cnf
}

/// Exhaustive model set; `None` sentinel is impossible at ≤ 12 vars since the
/// limit exceeds 2^12.
fn models(cnf: &Cnf) -> Vec<VarSet> {
    let out = dpll::all_models(cnf, 1 << 13);
    assert!(out.len() < 1 << 13, "enumeration hit the limit");
    out
}

#[test]
fn msa_engine_matches_scan_for_every_order() {
    let mut rng = SplitMix64::seed_from_u64(0x1060_31C5);
    for _ in 0..900 {
        let cnf = random_cnf(&mut rng);
        let natural = VarOrder::natural(cnf.num_vars());
        for order in [natural.reversed(), natural] {
            let fast = msa(&cnf, &order);
            let scan = msa_scan(&cnf, &order);
            assert_eq!(fast, scan, "engine/scan disagree on {cnf:?}");
        }
    }
}

#[test]
fn msa_results_are_models_and_existence_matches_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0x5A7_15F1);
    for _ in 0..900 {
        let cnf = random_cnf(&mut rng);
        let order = VarOrder::natural(cnf.num_vars());
        let all = models(&cnf);
        let satisfiable = !all.is_empty();
        assert_eq!(dpll::is_satisfiable(&cnf), satisfiable);
        assert_eq!(dpll::solve(&cnf, &order).is_some(), satisfiable);
        match msa(&cnf, &order) {
            Some(m) => {
                assert!(satisfiable, "model for unsat formula {cnf:?}");
                assert!(
                    all.contains(&m),
                    "{m:?} not among the {} brute-force models of {cnf:?}",
                    all.len()
                );
            }
            None => assert!(!satisfiable, "missed a model of {cnf:?}"),
        }
    }
}

#[test]
fn engine_propagation_matches_naive_rescan() {
    let mut rng = SplitMix64::seed_from_u64(0xE9_61_4E);
    for _ in 0..300 {
        let cnf = random_cnf(&mut rng);
        let n = cnf.num_vars();
        let mut engine = Engine::new(&cnf, n);
        let mut pa = PartialAssignment::new(n);
        let scan_ok = !matches!(propagate(&cnf, &mut pa), Propagation::Conflict);
        assert_eq!(engine.is_ok(), scan_ok, "initial BCP disagrees on {cnf:?}");
        if !scan_ok {
            continue;
        }
        for i in 0..n {
            let v = Var::new(i as u32);
            assert_eq!(
                engine.value(v),
                pa.value(v),
                "{v:?} after initial BCP of {cnf:?}"
            );
        }

        // Push random assumptions; both sides must imply the same values or
        // both detect the conflict.
        for _ in 0..n {
            let v = Var::new(rng.gen_range(0usize..n) as u32);
            if engine.value(v).is_some() {
                continue;
            }
            let lit = if rng.gen_bool(0.5) {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            };
            let engine_ok = engine.assume(lit);
            pa.assign(lit);
            let scan_ok = !matches!(propagate(&cnf, &mut pa), Propagation::Conflict);
            assert_eq!(
                engine_ok, scan_ok,
                "conflict detection after {lit:?} on {cnf:?}"
            );
            if !engine_ok {
                break;
            }
            for i in 0..n {
                let u = Var::new(i as u32);
                assert_eq!(
                    engine.value(u),
                    pa.value(u),
                    "{u:?} after assuming {lit:?} on {cnf:?}"
                );
            }
        }
    }
}
