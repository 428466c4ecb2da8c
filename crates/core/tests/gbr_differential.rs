//! Differential tests: the incremental [`ProgressionBuilder`] behind GBR
//! must be *bit-identical* to the stateless scan-based
//! `lbr_reference::build_progression`. At the whole-run level every
//! progression a GBR run builds is replayed through both from the run's
//! checkpoint chain — the exact `(L, J)` pairs it built them from — and
//! they must agree entry for entry, error for error. Below it, random
//! GBR-shaped walks feed both the same growing learned list.

use lbr_core::{
    closure_size_order, generalized_binary_reduction_controlled, history_order, GbrCheckpoint,
    GbrConfig, GbrControl, GbrError, Instance, Oracle, ProgressionBuilder,
};
use lbr_logic::{Clause, Cnf, Var, VarOrder, VarSet};
use lbr_prng::SplitMix64;
use lbr_reference::{build_progression, check_chain};

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

/// Runs GBR for a bug that needs every variable of `needed`, records its
/// checkpoint chain, and replays the chain through the builder and the
/// scan reference.
fn chain_matches_reference(instance: &Instance, order: &VarOrder, needed: &[Var]) {
    let mut chain: Vec<GbrCheckpoint> = Vec::new();
    let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
    let mut control = GbrControl {
        checkpoint: Some(&mut record),
        ..GbrControl::default()
    };
    let mut bug = |s: &VarSet| needed.iter().all(|v| s.contains(*v));
    let mut oracle = Oracle::new(&mut bug, 0.0);
    let outcome = generalized_binary_reduction_controlled(
        instance,
        order,
        &mut oracle,
        &GbrConfig::default(),
        &mut control,
    )
    .expect("a monotone bug over a valid instance reduces");
    assert_eq!(
        chain.len(),
        outcome.iterations,
        "one checkpoint per rebuild"
    );
    let entries =
        check_chain(&instance.cnf, order, &instance.vars, &chain).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        entries,
        outcome.progression_lengths.iter().sum::<usize>(),
        "the chain covers every progression the run built"
    );
}

#[test]
fn gbr_checkpoint_chains_match_the_scan_reference() {
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
        chain_matches_reference(&instance, &order, &needed);
        checked += 1;
    }
    assert!(checked >= 60, "too few non-degenerate draws: {checked}");
}

#[test]
fn chains_match_the_reference_on_orders_that_defeat_the_greedy_pick() {
    // The natural order on a chain makes the first progression [∅, all]
    // and exercises the remainder fallback; reversed orders exercise the
    // dead-end DPLL fallback. Builder and reference must still agree.
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
            chain_matches_reference(&instance, order, &[Var::new(n as u32 / 2)]);
        }
    }
}

/// The chain `0 ⇒ 1 ⇒ … ⇒ n-1` over all its variables.
fn chain_instance(n: usize) -> Instance {
    let mut cnf = Cnf::new(n);
    for i in 0..n - 1 {
        cnf.add_clause(Clause::edge(Var::new(i as u32), Var::new(i as u32 + 1)));
    }
    Instance::over_all_vars(cnf)
}

#[test]
fn progression_prefixes_are_valid_and_disjoint() {
    for order in [
        VarOrder::natural(6),
        closure_size_order(&chain_instance(6).cnf),
    ] {
        let inst = chain_instance(6);
        let prog = build_progression(&inst.cnf, &order, &[], &inst.vars).expect("progression");
        let mut builder = ProgressionBuilder::new(&inst.cnf, 6);
        assert_eq!(
            builder.progression(&order, &[], &inst.vars),
            Ok(prog.clone())
        );
        let mut acc = VarSet::empty(6);
        for (i, d) in prog.iter().enumerate() {
            assert!(acc.is_disjoint(d), "entry {i} overlaps prefix");
            acc.union_with(d);
            assert!(inst.cnf.eval(&acc), "prefix {i} invalid");
        }
        assert_eq!(acc, inst.vars);
    }
}

#[test]
fn progression_overlaps_learned_sets() {
    let inst = chain_instance(6);
    let order = VarOrder::natural(6);
    let learned = vec![VarSet::from_iter_with_universe(6, [Var::new(4)])];
    let prog = build_progression(&inst.cnf, &order, &learned, &inst.vars).expect("progression");
    let mut builder = ProgressionBuilder::new(&inst.cnf, 6);
    assert_eq!(
        builder.progression(&order, &learned, &inst.vars),
        Ok(prog.clone())
    );
    // D0 must contain v4 (and therefore v5 by the chain).
    assert!(prog[0].contains(Var::new(4)));
    assert!(prog[0].contains(Var::new(5)));
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
        let mut builder = ProgressionBuilder::new(&cnf, n);
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
