//! Randomized robustness: GBR on random dependency models with random
//! monotone predicates always returns a valid, failing, no-larger
//! sub-input — and never tests an invalid one.

use lbr_core::{
    closure_size_order, generalized_binary_reduction, minimize_solution, GbrConfig, Instance,
};
use lbr_logic::{Clause, Cnf, Var, VarSet};
use lbr_prng::SplitMix64;

/// A random mixed model: mostly edges, some mAny-style general clauses,
/// a few positive disjunctions. Never any purely negative clause (like
/// the bytecode models).
fn random_model(rng: &mut SplitMix64, n: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    let v = |i: usize| Var::new(i as u32);
    for _ in 0..2 * n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            // Edges point "upward" to keep closures small and acyclic-ish.
            cnf.add_clause(Clause::edge(v(a.max(b)), v(a.min(b))));
        }
    }
    for _ in 0..n / 4 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        cnf.add_clause(Clause::implication([v(a), v(b)], [v(c), v(d)]));
    }
    for _ in 0..n / 8 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        cnf.add_clause(Clause::implication([], [v(a), v(b)]));
    }
    cnf
}

#[test]
fn gbr_is_sound_on_random_models() {
    for seed in 0..30u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = rng.gen_range(8..48usize);
        let cnf = random_model(&mut rng, n);
        let full = VarSet::full(n);
        if !cnf.eval(&full) {
            continue; // R_I(I) must hold; skip degenerate draws
        }
        // A random monotone predicate: needs 1..3 specific variables.
        let needed: Vec<Var> = (0..rng.gen_range(1..=3))
            .map(|_| Var::new(rng.gen_range(0..n as u32)))
            .collect();
        let order = closure_size_order(&cnf);
        let instance = Instance::over_all_vars(cnf.clone());
        let needed2 = needed.clone();
        let cnf2 = cnf.clone();
        let mut bug = move |s: &VarSet| {
            assert!(cnf2.eval(s), "seed {seed}: predicate saw an invalid input");
            needed2.iter().all(|v| s.contains(*v))
        };
        let out = generalized_binary_reduction(&instance, &order, &mut bug, &GbrConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(cnf.eval(&out.solution), "seed {seed}: invalid solution");
        assert!(
            needed.iter().all(|v| out.solution.contains(*v)),
            "seed {seed}: failure lost"
        );
        // Minimization never breaks soundness and never grows.
        let mut bug2 = {
            let needed = needed.clone();
            move |s: &VarSet| needed.iter().all(|v| s.contains(*v))
        };
        let (minimized, _) = minimize_solution(&instance, &order, &mut bug2, &out.solution);
        assert!(minimized.len() <= out.solution.len());
        assert!(cnf.eval(&minimized), "seed {seed}: minimized invalid");
        assert!(needed.iter().all(|v| minimized.contains(*v)));
    }
}

#[test]
fn gbr_reduces_random_models_to_valid_failing_solutions() {
    for seed in 100..130u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = 24;
        let cnf = random_model(&mut rng, n);
        let full = VarSet::full(n);
        if !cnf.eval(&full) {
            continue;
        }
        let target = Var::new(rng.gen_range(0..n as u32));
        let order = closure_size_order(&cnf);
        let instance = Instance::over_all_vars(cnf.clone());
        let mut bug = |s: &VarSet| s.contains(target);
        let out = generalized_binary_reduction(&instance, &order, &mut bug, &GbrConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(cnf.eval(&out.solution));
        assert!(out.solution.contains(target));
    }
}
