//! Differential tests: the incremental watched-literal engine must agree
//! exactly with the scan-based reference implementations on randomized
//! CNFs — same BCP fixpoints, same MSA sets, same DPLL verdicts, under no
//! conditioning and under random assumption sets — and the pending-set
//! closure above a clean prefix must pick what a full rescan picks.

use lbr_logic::{
    dpll, engine, msa, msa_above, msa_from_state, Clause, Cnf, Engine, Lit, Msa, PartialAssignment,
    Propagation, Var, VarOrder, VarSet,
};
use lbr_prng::{SliceChoose, SplitMix64};
use lbr_reference::msa_scan;

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

/// The chain `0 ⇒ 1 ⇒ … ⇒ n-1`.
fn chain(n: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    for i in 0..n - 1 {
        cnf.add_clause(Clause::edge(v(i as u32), v(i as u32 + 1)));
    }
    cnf
}

#[test]
fn msa_from_state_matches_msa_on_unconditioned_formula() {
    let mut cnf = chain(6);
    cnf.add_clause(Clause::unit(Lit::pos(v(2))));
    let order = VarOrder::natural(6);
    let scan = msa_scan(&cnf, &order).expect("sat");
    let mut engine = Engine::new(&cnf, 6);
    let got = msa_from_state(&mut engine, &order).expect("sat");
    assert_eq!(got, scan);
    assert_eq!(engine.decision_level(), 0, "state restored");
}

#[test]
fn msa_from_state_under_assumptions_matches_conditioned_scan() {
    // Conditioning by assumption must equal restricting the formula.
    let mut cnf = Cnf::new(5);
    cnf.add_clause(Clause::edge(v(0), v(1)));
    cnf.add_clause(Clause::edge(v(2), v(3)));
    cnf.add_clause(Clause::implication([v(0)], [v(2), v(4)]));
    let order = VarOrder::natural(5);
    let universe = 5;
    let keep = VarSet::from_iter_with_universe(universe, (0..4).map(v));
    let mut seed = VarSet::empty(universe);
    seed.insert(v(0));
    let conditioned = cnf.restrict(&keep, &seed);
    let scan = msa_scan(&conditioned, &order).expect("sat");
    let mut engine = Engine::new(&cnf, universe);
    assert!(engine.assume_all(&[Lit::neg(v(4)), Lit::pos(v(0))]));
    let got = msa_from_state(&mut engine, &order).expect("sat");
    // The scan on the conditioned formula excludes the conditioned
    // variable; the engine reports absolute trues.
    let mut expected = scan;
    expected.insert(v(0));
    assert_eq!(got, expected);
    assert_eq!(engine.decision_level(), 1, "state restored");
}

#[test]
fn engine_and_scan_agree_on_unsat_and_dead_end_formulas() {
    let mut unsat = Cnf::new(1);
    unsat.add_clause(Clause::unit(Lit::pos(v(0))));
    unsat.add_clause(Clause::unit(Lit::neg(v(0))));
    assert!(msa_scan(&unsat, &VarOrder::natural(1)).is_none());
    assert!(msa(&unsat, &VarOrder::natural(1)).is_none());

    // (0 | 1) with 0 forbidden via a negative binary clause that only
    // bites after choosing 0: (!0 | !2) and 2 required. The greedy pick
    // dead-ends and both fall back to DPLL.
    let mut cnf = Cnf::new(3);
    cnf.add_clause(Clause::unit(Lit::pos(v(2))));
    cnf.add_clause(Clause::new(vec![Lit::neg(v(0)), Lit::neg(v(2))]));
    cnf.add_clause(Clause::implication([], [v(0), v(1)]));
    let order = VarOrder::natural(3);
    let m = msa_scan(&cnf, &order).expect("sat");
    assert!(m.contains(v(1)) && m.contains(v(2)) && !m.contains(v(0)));
    assert_eq!(msa(&cnf, &order), Some(m));
}

#[test]
fn engine_and_scan_agree_on_a_structured_formula() {
    let mut cnf = Cnf::new(6);
    cnf.add_clause(Clause::unit(Lit::pos(v(0))));
    cnf.add_clause(Clause::edge(v(0), v(1)));
    cnf.add_clause(Clause::implication([v(1)], [v(2), v(3)]));
    cnf.add_clause(Clause::implication([v(2), v(3)], [v(4)]));
    cnf.add_clause(Clause::new(vec![Lit::neg(v(5))]));
    let m = msa(&cnf, &VarOrder::natural(6)).expect("sat");
    assert_eq!(msa_scan(&cnf, &VarOrder::natural(6)), Some(m.clone()));
    assert!(cnf.eval(&m));
    assert!(!m.contains(v(5)));
}

/// [`random_cnf`] plus clauses with several negative and several positive
/// literals (`¬a ∨ ¬b [∨ ¬c] ∨ p ∨ q`): violable clauses that more than
/// one variable becoming true can violate.
fn random_cnf_multi_neg(rng: &mut SplitMix64, nvars: usize) -> Cnf {
    let mut cnf = random_cnf(rng, nvars);
    for _ in 0..rng.gen_range(1..=nvars) {
        let negs = rng.gen_range(2..=3usize);
        let poss = rng.gen_range(2..=3usize);
        let lits: Vec<Lit> = (0..negs + poss)
            .map(|i| Lit::with_polarity(v(rng.gen_range(0..nvars as u32)), i >= negs))
            .collect();
        cnf.add_clause(Clause::new(lits));
    }
    cnf
}

fn values(eng: &Engine) -> Vec<Option<bool>> {
    (0..eng.universe() as u32)
        .map(|i| eng.value(v(i)))
        .collect()
}

/// The progression step: a random model asserted as a clean prefix, then
/// `x` assumed and [`msa_above`] run from the prefix's height. Its result
/// must equal the scan on the conditioned formula, and a kept state must
/// assign every variable as backtracking and asserting the entry's trues
/// does.
#[test]
fn msa_above_a_clean_prefix_matches_the_conditioned_scan() {
    let mut kept = 0;
    for seed in 0..2000u64 {
        let mut rng = SplitMix64::seed_from_u64(10_000 + seed);
        let nvars = rng.gen_range(4..20usize);
        let cnf = random_cnf_multi_neg(&mut rng, nvars);
        let order = random_order(&mut rng, nvars);
        let mut eng = Engine::new(&cnf, nvars);
        if !eng.is_ok() {
            continue;
        }
        // A restriction keeping ~3/4 of the variables.
        let keep = VarSet::from_iter_with_universe(
            nvars,
            (0..nvars as u32).map(v).filter(|_| rng.gen_bool(0.75)),
        );
        let restriction: Vec<Lit> = (0..nvars as u32)
            .map(v)
            .filter(|x| !keep.contains(*x))
            .map(Lit::neg)
            .collect();
        if !eng.assume_all(&restriction) {
            continue;
        }
        // A random model: the MSA above a few random seeds.
        let level = eng.decision_level();
        let seeds: Vec<Lit> = keep
            .iter()
            .filter(|_| rng.gen_bool(0.2))
            .map(Lit::pos)
            .collect();
        let model = if eng.assume_all(&seeds) {
            msa_from_state(&mut eng, &order)
        } else {
            None
        };
        eng.backtrack(level);
        let Some(model) = model else { continue };
        let asserted: Vec<Lit> = model.iter().map(Lit::pos).collect();
        assert!(eng.assume_all(&asserted), "seed {seed}: a model conflicts");
        assert_eq!(eng.true_set(), model, "seed {seed}: a model implies more");
        let Some(&x) = keep
            .iter()
            .filter(|&x| eng.value(x).is_none())
            .collect::<Vec<_>>()
            .choose(&mut rng)
        else {
            continue;
        };
        let before = eng.decision_level();
        let clean = eng.trail().len();
        if !eng.assume(Lit::pos(x)) {
            continue;
        }
        let mut forced = model.clone();
        forced.insert(x);
        let want = msa_scan(&cnf.restrict(&keep, &forced), &order).map(|mut s| {
            s.union_with(&forced);
            s
        });
        match msa_above(&mut eng, &order, clean) {
            Some(Msa::Kept) => {
                kept += 1;
                assert_eq!(Some(eng.true_set()), want, "seed {seed}: kept state");
                let entry: Vec<Lit> = eng.trail()[clean..]
                    .iter()
                    .copied()
                    .filter(|l| l.is_positive())
                    .collect();
                let kept_values = values(&eng);
                eng.backtrack(before);
                assert!(eng.assume_all(&entry), "seed {seed}: the entry conflicts");
                assert_eq!(
                    values(&eng),
                    kept_values,
                    "seed {seed}: the kept state is not the asserted entry's"
                );
            }
            Some(Msa::Solved(m)) => {
                assert_eq!(Some(m), want, "seed {seed}: DPLL fallback");
                assert_eq!(
                    eng.decision_level(),
                    before + 1,
                    "seed {seed}: state restored"
                );
            }
            None => {
                assert_eq!(want, None, "seed {seed}: unsat");
                assert_eq!(
                    eng.decision_level(),
                    before + 1,
                    "seed {seed}: state restored"
                );
            }
        }
    }
    assert!(kept >= 400, "only {kept} kept closures");
}

/// Runs [`msa_above`] from an empty prefix with `x` assumed and checks it
/// against the scan on the formula with `x` forced.
fn assert_msa_above_matches_scan(cnf: &Cnf, x: Var, want: &[u32]) {
    let n = cnf.num_vars();
    let order = VarOrder::natural(n);
    let mut forced = VarSet::empty(n);
    forced.insert(x);
    let mut scan = msa_scan(&cnf.restrict(&VarSet::full(n), &forced), &order).expect("sat");
    scan.insert(x);
    let mut eng = Engine::new(cnf, n);
    let clean = eng.trail().len();
    assert!(eng.assume(Lit::pos(x)));
    assert_eq!(msa_above(&mut eng, &order, clean), Some(Msa::Kept));
    assert_eq!(eng.true_set(), scan);
    assert_eq!(
        scan.iter().map(|v| v.index() as u32).collect::<Vec<_>>(),
        want
    );
}

#[test]
fn a_pick_violating_an_earlier_clause_is_checked_next_pass() {
    let (x, b, c, d, e) = (v(0), v(2), v(3), v(4), v(5));
    let mut cnf = Cnf::new(6);
    // Clause 0, `b ⇒ c ∨ d`, is behind the cursor when clause 1 picks `b`.
    cnf.add_clause(Clause::implication([b], [c, d]));
    cnf.add_clause(Clause::implication([x], [b, e]));
    assert_msa_above_matches_scan(&cnf, x, &[0, 2, 3]);
}

#[test]
fn a_pick_violating_a_later_clause_is_checked_this_pass() {
    let (x, a, b, c, d, e) = (v(0), v(1), v(2), v(3), v(4), v(5));
    let mut cnf = Cnf::new(6);
    // Clause 0 picks `b`, which violates clause 1, ahead of the cursor: it
    // picks `c` in the same pass, and `c` satisfies clause 2 before that
    // clause is checked. Deferring clause 1 would make clause 2 pick `a`.
    cnf.add_clause(Clause::implication([x], [b, e]));
    cnf.add_clause(Clause::implication([b], [c, d]));
    cnf.add_clause(Clause::implication([x], [a, c]));
    assert_msa_above_matches_scan(&cnf, x, &[0, 2, 3]);
}

#[test]
fn a_dead_end_above_a_prefix_falls_back_to_dpll_and_restores_the_state() {
    let (x, p, r, t, u) = (v(0), v(1), v(2), v(3), v(4));
    let mut cnf = Cnf::new(5);
    // `x` asks for `p ∨ r`; picking `p` forces `u` (with the fact `t`),
    // which `p` forbids — a conflict propagation alone does not foresee.
    cnf.add_clause(Clause::unit(Lit::pos(t)));
    cnf.add_clause(Clause::implication([x], [p, r]));
    cnf.add_clause(Clause::implication([p, t], [u]));
    cnf.add_clause(Clause::implication([p, u], []));
    let order = VarOrder::natural(5);
    let mut forced = VarSet::empty(5);
    forced.insert(x);
    let mut want = msa_scan(&cnf.restrict(&VarSet::full(5), &forced), &order).expect("sat");
    want.insert(x);
    assert_eq!(want.iter().collect::<Vec<_>>(), vec![x, r, t]);
    let mut eng = Engine::new(&cnf, 5);
    let clean = eng.trail().len();
    assert!(eng.assume(Lit::pos(x)));
    let entry_values = values(&eng);
    assert_eq!(msa_above(&mut eng, &order, clean), Some(Msa::Solved(want)));
    assert_eq!(eng.decision_level(), 1, "state restored");
    assert_eq!(values(&eng), entry_values, "state restored");
}
