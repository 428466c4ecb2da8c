//! Differential tests: GBR with the incremental watched-literal engine
//! (`PropagationMode::Incremental`, the default) must be *bit-identical*
//! to the scan-based baseline (`PropagationMode::LegacyScan`) — same
//! solution, same iteration count, same learned sets, same progression
//! lengths, and exactly the same number of predicate calls. The speedup
//! must be free. Below the whole-run level, every [`ProgressionBuilder`]
//! call must return exactly what the stateless `build_progression`
//! returns for the same `(L, J)`.

use lbr_core::{
    build_progression, closure_size_order, generalized_binary_reduction, history_order, GbrConfig,
    GbrError, Instance, Oracle, ProgressionBuilder, PropagationMode,
};
use lbr_logic::{Clause, Cnf, Var, VarOrder, VarSet};
use lbr_prng::SplitMix64;

/// A random mixed model: mostly edges, some general implications, a few
/// positive disjunctions — the clause mix of real bytecode models.
fn random_model(rng: &mut SplitMix64, n: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    let v = |i: usize| Var::new(i as u32);
    for _ in 0..2 * n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
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

/// Everything observable about a GBR run: solution, iteration count,
/// learned sets and progression lengths (or the error).
type GbrRun = Result<(VarSet, usize, Vec<VarSet>, Vec<usize>), lbr_core::GbrError>;

fn run_both(instance: &Instance, order: &VarOrder, needed: &[Var]) -> (GbrRun, u64, GbrRun, u64) {
    let mut results = Vec::new();
    let mut calls = Vec::new();
    for mode in [PropagationMode::Incremental, PropagationMode::LegacyScan] {
        let mut bug = |s: &VarSet| needed.iter().all(|v| s.contains(*v));
        let mut oracle = Oracle::new(&mut bug, 0.0);
        let config = GbrConfig {
            propagation: mode,
            ..GbrConfig::default()
        };
        let out = generalized_binary_reduction(instance, order, &mut oracle, &config)
            .map(|o| (o.solution, o.iterations, o.learned, o.progression_lengths));
        calls.push(oracle.calls());
        results.push(out);
    }
    let legacy = results.pop().expect("two runs");
    let incremental = results.pop().expect("two runs");
    (incremental, calls[0], legacy, calls[1])
}

#[test]
fn incremental_gbr_is_bit_identical_to_legacy_scan() {
    let mut checked = 0;
    for seed in 0..120u64 {
        let mut rng = SplitMix64::seed_from_u64(7000 + seed);
        let n = rng.gen_range(8..40usize);
        let cnf = random_model(&mut rng, n);
        if !cnf.eval(&VarSet::full(n)) {
            continue;
        }
        let needed: Vec<Var> = (0..rng.gen_range(1..=3))
            .map(|_| Var::new(rng.gen_range(0..n as u32)))
            .collect();
        let order = closure_size_order(&cnf);
        let instance = Instance::over_all_vars(cnf);
        let (inc, inc_calls, legacy, legacy_calls) = run_both(&instance, &order, &needed);
        assert_eq!(inc, legacy, "seed {seed}: outcomes diverge");
        assert_eq!(
            inc_calls, legacy_calls,
            "seed {seed}: predicate call counts diverge"
        );
        checked += 1;
    }
    assert!(checked >= 60, "too few non-degenerate draws: {checked}");
}

#[test]
fn incremental_matches_legacy_on_orders_that_defeat_the_greedy_pick() {
    // The natural order on a chain makes the first progression [∅, all]
    // and exercises the remainder fallback; reversed orders exercise the
    // dead-end DPLL fallback. Both modes must still agree exactly.
    for n in [6usize, 12, 20] {
        let mut cnf = Cnf::new(n);
        for i in 0..n - 1 {
            cnf.add_clause(Clause::edge(Var::new(i as u32), Var::new(i as u32 + 1)));
        }
        let instance = Instance::over_all_vars(cnf);
        let natural = VarOrder::natural(n);
        let reversed =
            VarOrder::from_permutation((0..n as u32).rev().map(Var::new).collect::<Vec<_>>());
        for order in [&natural, &reversed] {
            let needed = [Var::new(n as u32 / 2)];
            let (inc, inc_calls, legacy, legacy_calls) = run_both(&instance, order, &needed);
            assert_eq!(inc, legacy, "n {n}");
            assert_eq!(inc_calls, legacy_calls, "n {n}");
        }
    }
}

#[test]
fn legacy_build_progression_still_matches_paper_shape() {
    // The public scan-based subroutine stays available and agrees with
    // what the engine-backed reduction learns internally.
    let mut cnf = Cnf::new(6);
    for i in 0..5 {
        cnf.add_clause(Clause::edge(Var::new(i), Var::new(i + 1)));
    }
    let inst = Instance::over_all_vars(cnf);
    let order = closure_size_order(&inst.cnf);
    let prog = build_progression(&inst.cnf, &order, &[], &inst.vars).expect("progression");
    let mut acc = VarSet::empty(6);
    for d in &prog {
        assert!(acc.is_disjoint(d));
        acc.union_with(d);
        assert!(inst.cnf.eval(&acc));
    }
    assert_eq!(acc, inst.vars);
}

/// The prefix union of `progression` up to and including entry `r`.
fn prefix_union(progression: &[VarSet], r: usize, universe: usize) -> VarSet {
    let mut acc = VarSet::empty(universe);
    for d in &progression[..=r] {
        acc.union_with(d);
    }
    acc
}

/// A random permutation order over `n` variables.
fn random_order(rng: &mut SplitMix64, n: usize) -> VarOrder {
    let mut perm: Vec<Var> = (0..n as u32).map(Var::new).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    VarOrder::from_permutation(perm)
}

#[test]
fn progression_builder_matches_build_progression() {
    // A GBR-shaped walk per draw: the search space starts as a valid
    // strict subset of the variables (a prefix union of some other
    // progression, as trace-guided GBR seeds it), and each step learns a
    // random progression entry and shrinks `J` to its prefix union. At
    // every step the builder — one instance for the whole walk, fed a
    // growing learned list — must agree with the stateless scan exactly.
    let mut steps = 0;
    let mut seeded = 0;
    let mut disjoint = 0;
    for seed in 0..400u64 {
        let mut rng = SplitMix64::seed_from_u64(9100 + seed);
        let n = rng.gen_range(8..40usize);
        let cnf = random_model(&mut rng, n);
        let full = VarSet::full(n);
        if !cnf.eval(&full) {
            continue;
        }
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..50u64)).collect();
        let order = history_order(&cnf, &weights);
        // The seed: a random prefix union of a progression under an
        // unrelated order, so it is valid but shaped differently from
        // what `order` itself would produce.
        let other = random_order(&mut rng, n);
        let mut search_space = match build_progression(&cnf, &other, &[], &full) {
            Ok(p) if p.len() > 1 => {
                seeded += 1;
                let r = rng.gen_range(0..p.len() - 1);
                prefix_union(&p, r, n)
            }
            _ => full.clone(),
        };
        let mut builder = ProgressionBuilder::new(&cnf, n, &GbrConfig::default());
        let mut learned: Vec<VarSet> = Vec::new();
        loop {
            let got = builder.progression(&order, &learned, &search_space);
            let want = build_progression(&cnf, &order, &learned, &search_space);
            assert_eq!(got, want, "seed {seed}: step {}", learned.len());
            steps += 1;
            let Ok(progression) = got else { break };
            if progression.len() < 2 {
                break;
            }
            let r = rng.gen_range(1..progression.len());
            learned.push(progression[r].clone());
            search_space = prefix_union(&progression, r, n);
        }
        // A learned set disjoint from `J` leaves `R⁺` without a model:
        // both paths must refuse it the same way.
        let outside = full.difference(&search_space);
        if !outside.is_empty() {
            learned.push(outside);
            let got = builder.progression(&order, &learned, &search_space);
            let want = build_progression(&cnf, &order, &learned, &search_space);
            assert_eq!(
                got,
                Err(GbrError::ModelUnsatisfiable),
                "seed {seed}: disjoint"
            );
            assert_eq!(
                want,
                Err(GbrError::ModelUnsatisfiable),
                "seed {seed}: disjoint"
            );
            disjoint += 1;
        }
    }
    assert!(steps >= 1000, "too few progression steps compared: {steps}");
    assert!(seeded >= 15, "too few seeded search spaces: {seeded}");
    assert!(disjoint >= 90, "too few disjoint learned sets: {disjoint}");
}
