//! Differential tests: the incremental watched-literal engine must agree
//! exactly with the scan-based reference implementations on randomized
//! CNFs — same BCP fixpoints, same MSA sets, same DPLL verdicts, under no
//! conditioning and under random assumption sets.

use lbr_logic::{
    dpll, engine, msa, msa_scan, Clause, Cnf, Engine, Lit, PartialAssignment, Propagation, Var,
    VarOrder, VarSet,
};
use lbr_prng::{SliceChoose, SplitMix64};

fn v(i: u32) -> Var {
    Var::new(i)
}

/// A random mixed-polarity CNF: edges, general implications, positive
/// disjunctions, and a few purely negative clauses.
fn random_cnf(rng: &mut SplitMix64, nvars: usize) -> Cnf {
    let mut cnf = Cnf::new(nvars);
    let nclauses = rng.gen_range(1..3 * nvars);
    for _ in 0..nclauses {
        let len = rng.gen_range(1..=4usize);
        let lits: Vec<Lit> = (0..len)
            .map(|_| {
                let var = v(rng.gen_range(0..nvars as u32));
                Lit::with_polarity(var, rng.gen_bool(0.6))
            })
            .collect();
        cnf.add_clause(Clause::new(lits));
    }
    cnf
}

/// A random variable order (a shuffled permutation).
fn random_order(rng: &mut SplitMix64, nvars: usize) -> VarOrder {
    let perm: Vec<Var> = (0..nvars as u32)
        .map(v)
        .collect::<Vec<_>>()
        .shuffled(rng)
        .into_iter()
        .copied()
        .collect();
    VarOrder::from_permutation(perm)
}

#[test]
fn engine_level0_bcp_matches_scan_bcp() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let nvars = rng.gen_range(2..24usize);
        let cnf = random_cnf(&mut rng, nvars);
        let mut pa = PartialAssignment::new(nvars);
        let scan_conflict = matches!(lbr_logic::propagate(&cnf, &mut pa), Propagation::Conflict);
        let engine = Engine::new(&cnf, nvars);
        assert_eq!(
            !engine.is_ok(),
            scan_conflict,
            "seed {seed}: conflict verdicts differ"
        );
        if engine.is_ok() {
            for i in 0..nvars {
                assert_eq!(
                    engine.value(v(i as u32)),
                    pa.value(v(i as u32)),
                    "seed {seed}: value of v{i} differs at level 0"
                );
            }
        }
    }
}

#[test]
fn engine_msa_matches_scan_msa() {
    for seed in 0..600u64 {
        let mut rng = SplitMix64::seed_from_u64(1000 + seed);
        let nvars = rng.gen_range(2..20usize);
        let cnf = random_cnf(&mut rng, nvars);
        let order = random_order(&mut rng, nvars);
        assert_eq!(msa(&cnf, &order), msa_scan(&cnf, &order), "seed {seed}");
    }
}

#[test]
fn engine_msa_under_assumptions_matches_restricted_scan() {
    for seed in 0..450u64 {
        let mut rng = SplitMix64::seed_from_u64(2000 + seed);
        let nvars = rng.gen_range(4..18usize);
        let cnf = random_cnf(&mut rng, nvars);
        let order = random_order(&mut rng, nvars);
        // A random restriction: keep ~2/3 of the variables.
        let keep = VarSet::from_iter_with_universe(
            nvars,
            (0..nvars as u32).map(v).filter(|_| rng.gen_bool(0.66)),
        );
        let no_force = VarSet::empty(nvars);
        let restricted = cnf.restrict(&keep, &no_force);
        let assumptions: Vec<Lit> = (0..nvars as u32)
            .map(v)
            .filter(|x| !keep.contains(*x))
            .map(Lit::neg)
            .collect();
        let scan = msa_scan(&restricted, &order);
        let mut eng = Engine::new(&cnf, nvars);
        let fast = if eng.is_ok() && eng.assume_all(&assumptions) {
            engine::msa_from_state(&mut eng, &order)
        } else {
            None
        };
        // The engine reports absolute trues; under a pure restriction
        // (no forced-true seeds) the scan's set is already absolute.
        assert_eq!(fast, scan, "seed {seed}");
    }
}

/// Clauses added with [`Engine::add_clause`] after construction — GBR's
/// learned sets, and clauses that level-0 facts shrink — must take part in
/// MSA exactly like clauses present at construction: under a restriction
/// level and a prefix level, the engine must agree with the scan over the
/// conjoined, restricted CNF.
#[test]
fn engine_msa_with_added_clauses_matches_conjoined_scan() {
    for seed in 0..600u64 {
        let mut rng = SplitMix64::seed_from_u64(5000 + seed);
        let nvars = rng.gen_range(4..18usize);
        let mut cnf = random_cnf(&mut rng, nvars);
        let order = random_order(&mut rng, nvars);
        let mut eng = Engine::new(&cnf, nvars);
        let add = |cnf: &mut Cnf, eng: &mut Engine, lits: Vec<Lit>| {
            eng.add_clause(&lits);
            cnf.add_clause(Clause::new(lits));
        };
        let pick = |rng: &mut SplitMix64| v(rng.gen_range(0..nvars as u32));
        // A level-0 fact, so that later clauses over its variable shrink:
        // `f ∨ a ∨ b` keeps two positives, `f ∨ a ∨ ¬b` only one.
        let f = pick(&mut rng);
        add(&mut cnf, &mut eng, vec![Lit::neg(f)]);
        for _ in 0..rng.gen_range(1..=3usize) {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            let last = Lit::with_polarity(b, rng.gen_bool(0.5));
            add(&mut cnf, &mut eng, vec![Lit::pos(f), Lit::pos(a), last]);
        }
        // Learned sets: all-positive clauses of ≥ 2 members.
        for _ in 0..rng.gen_range(1..=4usize) {
            let len = rng.gen_range(2..=4usize);
            let lits = (0..len).map(|_| Lit::pos(pick(&mut rng))).collect();
            add(&mut cnf, &mut eng, lits);
        }
        // A restriction keeping ~3/4 of the variables, and a prefix of a
        // few kept variables forced true.
        let keep = VarSet::from_iter_with_universe(
            nvars,
            (0..nvars as u32).map(v).filter(|_| rng.gen_bool(0.75)),
        );
        let prefix =
            VarSet::from_iter_with_universe(nvars, keep.iter().filter(|_| rng.gen_bool(0.2)));
        let conditioned = cnf.restrict(&keep, &prefix);
        let restriction: Vec<Lit> = (0..nvars as u32)
            .map(v)
            .filter(|x| !keep.contains(*x))
            .map(Lit::neg)
            .collect();
        let asserted: Vec<Lit> = prefix.iter().map(Lit::pos).collect();
        // The scan's set omits the forced prefix; the engine reports
        // absolute trues.
        let scan = msa_scan(&conditioned, &order).map(|mut s| {
            s.union_with(&prefix);
            s
        });
        let fast = if eng.is_ok() && eng.assume_all(&restriction) && eng.assume_all(&asserted) {
            engine::msa_from_state(&mut eng, &order)
        } else {
            None
        };
        assert_eq!(fast, scan, "seed {seed}");
    }
}

#[test]
fn engine_dpll_matches_scan_dpll() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(3000 + seed);
        let nvars = rng.gen_range(2..16usize);
        let cnf = random_cnf(&mut rng, nvars);
        let order = random_order(&mut rng, nvars);
        let scan = dpll::solve(&cnf, &order);
        let mut eng = Engine::new(&cnf, nvars);
        let fast = if eng.is_ok() {
            engine::solve_from_state(&mut eng, &order)
        } else {
            None
        };
        assert_eq!(fast, scan, "seed {seed}");
    }
}

/// `true_set()` is maintained beside the trail; it must always equal the
/// positive literals on it.
fn assert_true_set_matches_trail(eng: &Engine, seed: u64) {
    let from_trail = VarSet::from_iter_with_universe(
        eng.universe(),
        eng.trail()
            .iter()
            .filter(|l| l.is_positive())
            .map(|l| l.var()),
    );
    assert_eq!(
        eng.true_set(),
        from_trail,
        "seed {seed}: true set off the trail"
    );
}

#[test]
fn assume_backtrack_roundtrip_preserves_state() {
    for seed in 0..100u64 {
        let mut rng = SplitMix64::seed_from_u64(4000 + seed);
        let nvars = rng.gen_range(4..20usize);
        let cnf = random_cnf(&mut rng, nvars);
        let mut eng = Engine::new(&cnf, nvars);
        if !eng.is_ok() {
            continue;
        }
        let baseline: Vec<Option<bool>> = (0..nvars as u32).map(|i| eng.value(v(i))).collect();
        // Random walks of assumptions, then full backtracking.
        for _ in 0..4 {
            let depth = rng.gen_range(1..=4usize);
            for _ in 0..depth {
                let var = v(rng.gen_range(0..nvars as u32));
                let lit = Lit::with_polarity(var, rng.gen_bool(0.5));
                let ok = eng.assume(lit);
                assert_true_set_matches_trail(&eng, seed);
                if !ok {
                    break; // conflict: state above the failed level is junk
                }
            }
            eng.backtrack(0);
            assert_true_set_matches_trail(&eng, seed);
            let now: Vec<Option<bool>> = (0..nvars as u32).map(|i| eng.value(v(i))).collect();
            assert_eq!(now, baseline, "seed {seed}: level-0 state corrupted");
            assert!(eng.trail().len() <= nvars);
        }
        // After the churn the engine still answers queries correctly.
        let order = VarOrder::natural(nvars);
        let scan = msa_scan(&cnf, &order);
        let fast = engine::msa_from_state(&mut eng, &order);
        assert_eq!(fast, scan, "seed {seed}");
    }
}
