//! Randomized property tests over the full stack, driven by the
//! workspace's internal seeded PRNG (offline, reproducible per seed).
//!
//! * binary round-trip: any generated program survives
//!   `write_program`/`read_program` unchanged;
//! * the bytecode Theorem 3.1: any model of the generated dependency
//!   constraints reduces to a program that still verifies;
//! * logical substrate: formula ↔ CNF equisatisfiability and model
//!   counting vs brute force on arbitrary formulas.

use lbr::classfile::{read_program, write_program};
use lbr::jreduce::{build_model, reduce_program};
use lbr::logic::{count_models, dpll, Formula, Lit, Var, VarOrder, VarSet};
use lbr::workload::{generate, WorkloadConfig};
use lbr_prng::SplitMix64;

// ----------------------------------------------------------------------
// Random formulas for the logic substrate.
// ----------------------------------------------------------------------

fn rand_formula(rng: &mut SplitMix64, nvars: u32, depth: u32) -> Formula {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..4u32) {
            0 | 1 => Formula::var(Var::new(rng.gen_range(0..nvars))),
            2 => Formula::tt(),
            _ => Formula::ff(),
        };
    }
    let children = |rng: &mut SplitMix64| -> Vec<Formula> {
        (0..rng.gen_range(0..3usize))
            .map(|_| rand_formula(rng, nvars, depth - 1))
            .collect()
    };
    match rng.gen_range(0..4u32) {
        0 => Formula::and(children(rng)),
        1 => Formula::or(children(rng)),
        2 => Formula::not(rand_formula(rng, nvars, depth - 1)),
        _ => {
            let a = rand_formula(rng, nvars, depth - 1);
            let b = rand_formula(rng, nvars, depth - 1);
            a.implies(b)
        }
    }
}

fn assignments(n: u32) -> impl Iterator<Item = VarSet> {
    (0..(1u64 << n)).map(move |bits| {
        let mut s = VarSet::empty(n as usize);
        for i in 0..n {
            if bits >> i & 1 == 1 {
                s.insert(Var::new(i));
            }
        }
        s
    })
}

#[test]
fn formula_and_cnf_agree() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let f = rand_formula(&mut rng, 6, 4);
        let mut cnf = f.to_cnf();
        cnf.ensure_vars(6);
        for s in assignments(6) {
            assert_eq!(f.eval(&s), cnf.eval(&s), "seed {seed} at {s:?}");
        }
    }
}

#[test]
fn model_count_matches_brute_force() {
    for seed in 100..164u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let f = rand_formula(&mut rng, 5, 4);
        let mut cnf = f.to_cnf();
        cnf.ensure_vars(5);
        let brute = assignments(5).filter(|s| cnf.eval(s)).count() as u128;
        assert_eq!(count_models(&cnf), brute, "seed {seed}");
    }
}

#[test]
fn msa_returns_models_iff_satisfiable() {
    for seed in 200..392u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let f = rand_formula(&mut rng, 6, 4);
        let mut cnf = f.to_cnf();
        cnf.ensure_vars(6);
        let order = VarOrder::natural(6);
        let sat = assignments(6).any(|s| cnf.eval(&s));
        match lbr::logic::msa(&cnf, &order) {
            Some(model) => {
                assert!(sat, "seed {seed}: found a model of an unsat formula");
                assert!(cnf.eval(&model), "seed {seed}: returned a non-model");
            }
            None => assert!(!sat, "seed {seed}: missed a model"),
        }
    }
}

// ----------------------------------------------------------------------
// VarSet algebra laws.
// ----------------------------------------------------------------------

fn rand_varset(rng: &mut SplitMix64, universe: usize) -> VarSet {
    let n = rng.gen_range(0..universe);
    VarSet::from_iter_with_universe(
        universe,
        (0..n).map(|_| Var::new(rng.gen_range(0..universe as u32))),
    )
}

#[test]
fn varset_algebra_laws() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let a = rand_varset(&mut rng, 96);
        let b = rand_varset(&mut rng, 96);
        let c = rand_varset(&mut rng, 96);
        // Commutativity and associativity of union/intersection.
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.intersection(&b), b.intersection(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        // Absorption and De Morgan-ish difference laws.
        assert_eq!(a.union(&a.intersection(&b)), a.clone());
        assert_eq!(a.difference(&b).intersection(&b), VarSet::empty(96));
        assert_eq!(a.difference(&b).union(&a.intersection(&b)), a.clone());
        // Cardinality bookkeeping.
        assert_eq!(
            a.union(&b).len() + a.intersection(&b).len(),
            a.len() + b.len()
        );
        // Subset/disjoint coherence.
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.difference(&b).is_disjoint(&b));
        // Ordered iteration round-trips.
        let back = VarSet::from_iter_with_universe(96, a.iter());
        assert_eq!(back, a);
    }
}

// ----------------------------------------------------------------------
// Full-stack properties over generated programs.
// ----------------------------------------------------------------------

#[test]
fn programs_roundtrip_through_the_binary_format() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.gen_range(0..1000u64);
        let program = generate(&WorkloadConfig {
            seed,
            plant: lbr::decompiler::BugKind::ALL.to_vec(),
            ..WorkloadConfig::default()
        });
        let bytes = write_program(&program);
        let back = read_program(&bytes).expect("container decodes");
        assert_eq!(back, program, "seed {seed}");
    }
}

#[test]
fn bytecode_theorem_models_reduce_to_verifying_programs() {
    for case in 100..112u64 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.gen_range(0..1000u64);
        let program = generate(&WorkloadConfig {
            seed,
            classes: 10,
            interfaces: 4,
            plant: vec![lbr::decompiler::BugKind::CastToObject],
            ..WorkloadConfig::default()
        });
        let model = build_model(&program).expect("valid input");
        let n = model.registry.len();
        // Probe several models: different rotations and one forced item.
        for probe in 0..6u32 {
            let rotation = (probe as usize * 7) % n;
            let order = VarOrder::from_permutation(
                (0..n as u32)
                    .map(|i| Var::new((i + rotation as u32) % n as u32))
                    .collect(),
            );
            let forced = Lit::pos(Var::new((probe as usize * 13 % n) as u32));
            if let Some((solution, _)) = dpll::solve_with_assumptions(&model.cnf, &order, &[forced])
            {
                let reduced = reduce_program(&program, &model.registry, &solution);
                let errors = lbr::classfile::verify_program(&reduced);
                assert!(
                    errors.is_empty(),
                    "seed {seed} probe {probe}: invalid reduction: {errors:?}"
                );
            }
        }
    }
}
