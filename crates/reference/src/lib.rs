//! The scan-based reference implementations of `MSA_<` and
//! `PROGRESSION_{R_I,<}(L, J)`, kept only as a differential oracle.
//!
//! Production code computes both through `lbr-logic`'s incremental
//! watched-literal [`Engine`](lbr_logic::Engine): [`lbr_logic::msa`] and
//! [`lbr_core::ProgressionBuilder`]. The functions here are the original
//! stateless versions — every step clones a restricted CNF and rescans it
//! to a propagation fixpoint — which the engine must reproduce exactly.
//! They are slow on purpose (they are what the engine replaced) and are
//! linked only by test targets, benches and the `lbr-fuzz` harness; no
//! production crate depends on this one.
//!
//! [`check_chain`] is the differential itself: it replays the exact
//! `(learned, search_space)` pairs one GBR run built its progressions from
//! — the pairs its checkpoint hook received — through one
//! [`ProgressionBuilder`] and through [`build_progression`], and requires
//! identical results and errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use lbr_core::{closure_size_order, GbrCheckpoint, GbrError, Input, ProgressionBuilder};
use lbr_logic::{dpll, propagate, Clause, Cnf, Lit, PartialAssignment, Var, VarOrder, VarSet};

/// The original scan-based MSA: rescans the whole clause list to a
/// propagation fixpoint at every step.
///
/// The reference implementation [`lbr_logic::msa`] is differentially
/// tested against; both return identical sets.
pub fn msa_scan(cnf: &Cnf, order: &VarOrder) -> Option<VarSet> {
    let universe = order.len().max(cnf.num_vars());
    let result = greedy_closure(cnf, order, universe);
    debug_assert!(
        result.as_ref().is_none_or(|s| cnf.eval(s)),
        "msa returned a non-model"
    );
    result
}

/// Re-universes a set to `universe` (the DPLL solver may use a smaller one).
fn widen(s: VarSet, universe: usize) -> VarSet {
    if s.universe() == universe {
        s
    } else {
        VarSet::from_iter_with_universe(universe, s.iter())
    }
}

fn greedy_closure(cnf: &Cnf, order: &VarOrder, universe: usize) -> Option<VarSet> {
    let mut pa = PartialAssignment::new(universe);
    // A BCP conflict from the empty assignment means unsatisfiable.
    propagate_or_conflict(cnf, &mut pa)?;
    loop {
        let mut fixed_any = false;
        let mut dead_end = false;
        'scan: for clause in cnf.clauses() {
            // Violated under "unassigned = false"?
            for &l in clause.lits() {
                let val = pa.eval_lit(l).unwrap_or(!l.is_positive());
                if val {
                    continue 'scan;
                }
            }
            // Satisfy with the <-smallest positive literal not forced false.
            let pick = order.min(clause.positives().filter(|&v| pa.value(v) != Some(false)));
            match pick {
                Some(v) => {
                    pa.assign(Lit::pos(v));
                    if propagate_or_conflict(cnf, &mut pa).is_none() {
                        dead_end = true;
                        break 'scan;
                    }
                    fixed_any = true;
                }
                None => {
                    dead_end = true;
                    break 'scan;
                }
            }
        }
        if dead_end {
            // The greedy choice painted us into a corner (or the formula is
            // unsatisfiable). Let the complete solver decide.
            return dpll::solve(cnf, order).map(|s| widen(s, universe));
        }
        if !fixed_any {
            let s = pa.true_set();
            debug_assert!(cnf.eval(&s));
            return Some(s);
        }
    }
}

fn propagate_or_conflict(cnf: &Cnf, pa: &mut PartialAssignment) -> Option<()> {
    (!propagate(cnf, pa).is_conflict()).then_some(())
}

/// The `<`-smallest member of `set \ excluded`, scanning `order`.
fn min_in_difference(order: &VarOrder, set: &VarSet, excluded: &VarSet) -> Option<Var> {
    order
        .iter()
        .find(|&v| set.contains(v) && !excluded.contains(v))
}

/// The `PROGRESSION_{R_I,<}(L, J)` subroutine.
///
/// Produces a non-empty list of disjoint subsets of `J` whose union is `J`,
/// such that (a) every prefix union is a model of `R_I` restricted to `J`
/// and (b) every prefix union overlaps every learned set in `L`.
///
/// Entry 0 is `MSA_<(R⁺)`; entry `k+1` is built by picking the `<`-least
/// uncovered variable `x` and computing `MSA_<(R⁺ ∧ x | D^∪_k = 1)`.
/// Rebuilds restricted formulas at every step with the scan-based
/// [`msa_scan`]. This is the stateless reference implementation: the
/// reducers build their progressions with a [`ProgressionBuilder`], whose
/// incremental engine produces identical progressions without the clones
/// (and checks the invariants above in debug builds).
///
/// # Errors
///
/// [`GbrError::ModelUnsatisfiable`] when `R⁺` has no model — e.g. a
/// learned set disjoint from `J`.
pub fn build_progression(
    cnf: &Cnf,
    order: &VarOrder,
    learned: &[VarSet],
    search_space: &VarSet,
) -> Result<Vec<VarSet>, GbrError> {
    let universe = search_space.universe();
    let no_force = VarSet::empty(universe);
    // R⁺: conjoin one positive clause per learned set, then set variables
    // outside J to false.
    let mut rplus = cnf.restrict(search_space, &no_force);
    for l in learned {
        let members: Vec<_> = l.iter().filter(|v| search_space.contains(*v)).collect();
        if members.is_empty() {
            return Err(GbrError::ModelUnsatisfiable);
        }
        rplus.add_clause(Clause::implication([], members));
    }

    let d0 = msa_scan(&rplus, order).ok_or(GbrError::ModelUnsatisfiable)?;
    let mut covered = d0.clone();
    // Condition away what is already decided true; remaining clauses range
    // over J \ covered.
    let mut current = rplus.restrict(search_space, &covered);
    let mut progression = vec![d0];

    while let Some(x) = min_in_difference(order, search_space, &covered) {
        let mut seed = VarSet::empty(universe);
        seed.insert(x);
        let conditioned = current.restrict(search_space, &seed);
        match msa_scan(&conditioned, order) {
            Some(extra) => {
                let mut entry = extra;
                entry.insert(x);
                covered.union_with(&entry);
                current = current.restrict(search_space, &entry);
                progression.push(entry);
            }
            None => {
                // `x` cannot be made true inside this search space. Close
                // the progression with the whole remainder: its prefix is
                // the full search space, which is valid by assumption.
                let rest = search_space.difference(&covered);
                covered.union_with(&rest);
                progression.push(rest);
                break;
            }
        }
    }
    debug_assert_eq!(covered, *search_space, "progression must cover J");
    Ok(progression)
}

/// The checkpoint-chain differential: feeds `([], first)` and then every
/// `(learned, search_space)` of `chain` — the pairs a GBR run's checkpoint
/// hook received, one per progression it built after the first — to one
/// [`ProgressionBuilder`] over `cnf` and to [`build_progression`], under
/// `order`.
///
/// Returns the number of progression entries compared, or a description
/// of the first call whose results (or errors) differ. GBR only ever
/// shrinks its search space, so a chain entry outside `first` means the
/// chain was not recorded from `first` and is an error too.
///
/// # Errors
///
/// The first call at which the two implementations disagree, or the
/// first chain entry whose search space is not inside `first`.
pub fn check_chain(
    cnf: &Cnf,
    order: &VarOrder,
    first: &VarSet,
    chain: &[GbrCheckpoint],
) -> Result<usize, String> {
    if let Some(step) = chain
        .iter()
        .position(|ck| !ck.search_space.is_subset(first))
    {
        return Err(format!(
            "progression {}: its search space is not inside the start the chain is replayed from",
            step + 1
        ));
    }
    let mut builder = ProgressionBuilder::new(cnf, first.universe());
    let calls = std::iter::once((&[][..], first))
        .chain(chain.iter().map(|ck| (&ck.learned[..], &ck.search_space)));
    let mut entries = 0;
    for (step, (learned, search_space)) in calls.enumerate() {
        let got = builder.progression(order, learned, search_space);
        let want = build_progression(cnf, order, learned, search_space);
        if got != want {
            return Err(format!(
                "progression {step} ({} learned sets, |J| = {}): the builder returned \
                 {got:?}, the scan reference {want:?}",
                learned.len(),
                search_space.len()
            ));
        }
        entries += got.map_or(0, |p| p.len());
    }
    Ok(entries)
}

/// [`check_chain`] over `input`'s logical model with the closure-size
/// order, starting from the whole input — the first progression
/// `logical/greedy` builds.
///
/// # Errors
///
/// The model does not build, or the implementations disagree.
pub fn check_input_chain<I: Input>(input: &I, chain: &[GbrCheckpoint]) -> Result<usize, String> {
    let model = input.model()?;
    let order = closure_size_order(&model.cnf);
    let all = VarSet::full(model.cnf.num_vars());
    check_chain(&model.cnf, &order, &all, chain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn min_in_difference_scans_in_order() {
        let o = VarOrder::from_permutation(vec![v(2), v(0), v(1)]);
        let set = VarSet::from_iter_with_universe(3, [v(0), v(1), v(2)]);
        let excl = VarSet::from_iter_with_universe(3, [v(2)]);
        assert_eq!(min_in_difference(&o, &set, &excl), Some(v(0)));
        let all = VarSet::full(3);
        assert_eq!(min_in_difference(&o, &set, &all), None);
    }

    #[test]
    fn a_chain_with_a_disjoint_learned_set_fails_alike() {
        // 0 ⇒ 1 ⇒ 2; learning {2} and then shrinking J to {0, 1} leaves
        // R⁺ without a model on both sides: the same error is agreement.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        let order = VarOrder::natural(3);
        let all = VarSet::full(3);
        let ck = GbrCheckpoint {
            iterations: 1,
            learned: vec![VarSet::from_iter_with_universe(3, [v(2)])],
            search_space: VarSet::from_iter_with_universe(3, [v(0), v(1)]),
            best: None,
            gap: 1,
        };
        let entries = check_chain(&cnf, &order, &all, &[ck]).expect("both refuse");
        assert_eq!(
            entries,
            build_progression(&cnf, &order, &[], &all).unwrap().len()
        );
    }

    #[test]
    fn a_chain_from_another_start_is_an_error() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        let order = VarOrder::natural(3);
        let first = VarSet::from_iter_with_universe(3, [v(0), v(1)]);
        let ck = GbrCheckpoint {
            iterations: 1,
            learned: Vec::new(),
            search_space: VarSet::from_iter_with_universe(3, [v(1), v(2)]),
            best: None,
            gap: 1,
        };
        let err = check_chain(&cnf, &order, &first, &[ck]).unwrap_err();
        assert!(err.starts_with("progression 1:"), "{err}");
    }
}
