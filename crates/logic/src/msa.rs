//! Approximate minimal satisfying assignments (`MSA_<`).
//!
//! Finding a satisfying assignment with as few true variables as possible is
//! NP-complete (Ravi & Somenzi 2004), so — as the paper does — we settle for
//! an approximation guided by the total variable order `<`:
//!
//! 1. Unit-propagate the CNF; forced literals are kept.
//! 2. While some clause is violated under "everything not yet chosen is
//!    false", satisfy it by making its `<`-smallest eligible positive
//!    literal true and re-propagating.
//!
//! On graph constraints this *is* the transitive-closure computation of
//! J-Reduce; on positive clauses (the learned sets of GBR) it picks the
//! `<`-smallest member, which is precisely the property the termination
//! argument of Algorithm 1 relies on. A complete DPLL fallback handles the
//! rare clause mixes where the greedy choice dead-ends.

use crate::{dpll, Cnf, Lit, PartialAssignment, Var, VarOrder, VarSet};

/// Strategy for computing an approximate minimal satisfying assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MsaStrategy {
    /// The order-driven greedy closure described in the module docs. This is
    /// the default and the variant the paper's proofs are about.
    #[default]
    GreedyClosure,
    /// Greedy closure followed by a reverse-order local minimization pass
    /// that drops true variables whose removal keeps the formula satisfied.
    GreedyMinimize,
    /// A complete DPLL search with default-false polarity, followed by the
    /// same minimization pass. Slowest, but immune to greedy dead ends.
    DpllMinimize,
}

impl MsaStrategy {
    /// All strategies, for ablation sweeps.
    pub const ALL: [MsaStrategy; 3] = [
        MsaStrategy::GreedyClosure,
        MsaStrategy::GreedyMinimize,
        MsaStrategy::DpllMinimize,
    ];

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MsaStrategy::GreedyClosure => "greedy",
            MsaStrategy::GreedyMinimize => "greedy+min",
            MsaStrategy::DpllMinimize => "dpll+min",
        }
    }
}

/// Computes an approximate minimal satisfying assignment of `cnf`, returned
/// as its set of true variables, or `None` if `cnf` is unsatisfiable.
///
/// Backed by the incremental watched-literal [`Engine`](crate::Engine);
/// [`msa_scan`] is the original rescan-based implementation, kept as the
/// differential-testing reference and the measurable baseline. Both return
/// identical sets.
///
/// # Examples
///
/// ```
/// use lbr_logic::{msa, Clause, Cnf, MsaStrategy, Var, VarOrder};
/// let a = Var::new(0);
/// let b = Var::new(1);
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause(Clause::unit(lbr_logic::Lit::pos(a)));
/// cnf.add_clause(Clause::edge(a, b)); // a ⇒ b
/// let m = msa(&cnf, &VarOrder::natural(2), MsaStrategy::GreedyClosure).expect("sat");
/// assert_eq!(m.len(), 2); // both a and b must be true
/// ```
pub fn msa(cnf: &Cnf, order: &VarOrder, strategy: MsaStrategy) -> Option<VarSet> {
    let universe = order.len().max(cnf.num_vars());
    let mut engine = crate::Engine::new(cnf, universe);
    let result = if engine.is_ok() {
        crate::engine::msa_from_state(&mut engine, order, strategy)
    } else {
        None // refuted by unit propagation alone
    };
    debug_assert!(
        result.as_ref().is_none_or(|s| cnf.eval(s)),
        "msa returned a non-model"
    );
    result
}

/// The original scan-based MSA: rescans the whole clause list to a
/// propagation fixpoint at every step.
///
/// Kept as the reference implementation [`msa`] is differentially tested
/// against, and as the measurable scan-BCP baseline (GBR's
/// `PropagationMode::LegacyScan` routes here).
pub fn msa_scan(cnf: &Cnf, order: &VarOrder, strategy: MsaStrategy) -> Option<VarSet> {
    let universe = order.len().max(cnf.num_vars());
    let result = match strategy {
        MsaStrategy::GreedyClosure => greedy_closure(cnf, order, universe),
        MsaStrategy::GreedyMinimize => {
            greedy_closure(cnf, order, universe).map(|s| minimize(cnf, order, s))
        }
        MsaStrategy::DpllMinimize => {
            dpll::solve(cnf, order).map(|s| minimize(cnf, order, widen(s, universe)))
        }
    };
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
    (!crate::propagate(cnf, pa).is_conflict()).then_some(())
}

/// Reverse-`<`-order sweep dropping true variables whose removal keeps the
/// formula satisfied, repeated until a full sweep drops nothing. Produces a
/// set that is minimal with respect to single removals (not necessarily
/// subset-minimal). A single sweep is not enough: removing a variable can
/// satisfy a clause through a negative literal and thereby free an
/// earlier-considered variable, so we iterate to the fixpoint. Each repeat
/// removed at least one variable, bounding the loop by `|s|` sweeps.
fn minimize(cnf: &Cnf, order: &VarOrder, mut s: VarSet) -> VarSet {
    let members: Vec<Var> = {
        let mut m: Vec<Var> = s.iter().collect();
        order.sort(&mut m);
        m.reverse();
        m
    };
    loop {
        let mut dropped = false;
        for &v in &members {
            if !s.contains(v) {
                continue;
            }
            s.remove(v);
            if cnf.eval(&s) {
                dropped = true;
            } else {
                s.insert(v);
            }
        }
        if !dropped {
            return s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clause;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    fn edge_cnf(n: usize, edges: &[(u32, u32)], required: &[u32]) -> Cnf {
        let mut cnf = Cnf::new(n);
        for &(a, b) in edges {
            cnf.add_clause(Clause::edge(v(a), v(b)));
        }
        for &r in required {
            cnf.add_clause(Clause::unit(Lit::pos(v(r))));
        }
        cnf
    }

    #[test]
    fn closure_on_graph_constraints() {
        // 0 => 1 => 2, 3 isolated, require 0.
        let cnf = edge_cnf(4, &[(0, 1), (1, 2)], &[0]);
        for strat in MsaStrategy::ALL {
            let m = msa(&cnf, &VarOrder::natural(4), strat).expect("sat");
            assert_eq!(
                m.iter().collect::<Vec<_>>(),
                vec![v(0), v(1), v(2)],
                "{strat:?}"
            );
        }
    }

    #[test]
    fn positive_clause_picks_order_min() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([], [v(1), v(2)]));
        let natural = msa(&cnf, &VarOrder::natural(3), MsaStrategy::GreedyClosure).unwrap();
        assert_eq!(natural.iter().collect::<Vec<_>>(), vec![v(1)]);
        let rev = VarOrder::from_permutation(vec![v(2), v(1), v(0)]);
        let reversed = msa(&cnf, &rev, MsaStrategy::GreedyClosure).unwrap();
        assert_eq!(reversed.iter().collect::<Vec<_>>(), vec![v(2)]);
    }

    #[test]
    fn unsat_returns_none() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::unit(Lit::neg(v(0))));
        for strat in MsaStrategy::ALL {
            assert!(
                msa(&cnf, &VarOrder::natural(1), strat).is_none(),
                "{strat:?}"
            );
        }
    }

    #[test]
    fn greedy_dead_end_falls_back() {
        // (0 | 1) with 0 forbidden via a negative binary clause that only
        // bites after choosing 0: (!0 | !2) and 2 required.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::unit(Lit::pos(v(2))));
        cnf.add_clause(Clause::new(vec![Lit::neg(v(0)), Lit::neg(v(2))]));
        cnf.add_clause(Clause::implication([], [v(0), v(1)]));
        for strat in MsaStrategy::ALL {
            let m = msa(&cnf, &VarOrder::natural(3), strat).expect("sat");
            assert!(cnf.eval(&m), "{strat:?}");
            assert!(m.contains(v(1)) && m.contains(v(2)) && !m.contains(v(0)));
        }
    }

    #[test]
    fn minimize_drops_unneeded() {
        // (0 | 1): DPLL default-false finds {1}; greedy finds {0}.
        // Seeding a deliberately fat model exercises the minimize pass.
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::implication([], [v(0), v(1)]));
        let fat = VarSet::from_iter_with_universe(2, [v(0), v(1)]);
        let slim = minimize(&cnf, &VarOrder::natural(2), fat);
        assert_eq!(slim.len(), 1);
    }

    #[test]
    fn general_clause_behaviour() {
        // (a ∧ b ⇒ c) ∧ (c ⇒ b) with nothing required: empty model works.
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([v(0), v(1)], [v(2)]));
        cnf.add_clause(Clause::edge(v(2), v(1)));
        let m = msa(&cnf, &VarOrder::natural(3), MsaStrategy::GreedyClosure).unwrap();
        assert!(m.is_empty());
        // Now require b: {b} alone satisfies everything.
        cnf.add_clause(Clause::unit(Lit::pos(v(1))));
        let m = msa(&cnf, &VarOrder::natural(3), MsaStrategy::GreedyClosure).unwrap();
        assert!(cnf.eval(&m));
        assert!(m.contains(v(1)));
    }

    #[test]
    fn all_strategies_agree_on_satisfiability() {
        // Random-ish structured formulas: strategies must agree SAT/UNSAT.
        let mut cnf = Cnf::new(6);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::implication([v(1)], [v(2), v(3)]));
        cnf.add_clause(Clause::implication([v(2), v(3)], [v(4)]));
        cnf.add_clause(Clause::new(vec![Lit::neg(v(5))]));
        let models: Vec<_> = MsaStrategy::ALL
            .iter()
            .map(|&s| msa(&cnf, &VarOrder::natural(6), s).expect("sat"))
            .collect();
        for m in &models {
            assert!(cnf.eval(m));
            assert!(!m.contains(v(5)));
        }
    }
}
