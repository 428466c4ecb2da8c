//! Incremental propagation engine: two-watched-literal BCP with an
//! assignment trail and decision levels.
//!
//! The legacy [`propagate`](crate::propagate) rescans the whole clause
//! list to a fixpoint on every call, and the reduction algorithms built on
//! it (MSA, DPLL, GBR's progression construction) re-clone and re-restrict
//! the CNF at every conditioning step. This module replaces both costs
//! with the standard incremental machinery of modern SAT solvers:
//!
//! * **Two-watched literals.** Every clause with ≥ 2 unresolved literals
//!   watches exactly two of them, kept at positions 0 and 1 of its literal
//!   array. Propagation only visits the clauses watching a literal that
//!   just became false, instead of every clause.
//! * **Assignment trail + decision levels.** Assignments are pushed onto a
//!   trail; [`Engine::assume`] opens a new decision level and
//!   [`Engine::backtrack`] pops levels in O(undone assignments). GBR
//!   conditions the shared engine on restriction/progression literals by
//!   assuming them instead of cloning restricted CNFs.
//! * **True set on the trail.** A bitset of the currently-true variables
//!   is updated as literals are pushed and popped, so
//!   [`Engine::true_set`] copies O(universe / 64) words instead of walking
//!   the trail.
//! * **Violable-clause list.** [`Engine::add_clause`] records which stored
//!   clauses have ≥ 2 positive literals. Only those can be violated under
//!   "unassigned = false" in a propagated state, so the greedy closure of
//!   [`msa_from_state`] scans only them.
//!
//! # Invariants
//!
//! *Watch discipline* — for every stored clause `c` (index `ci`):
//!
//! 1. `c` has at least 2 literals; unit clauses are enqueued on the trail
//!    at level 0 instead of being stored, and empty clauses set
//!    [`Engine::is_ok`] to false.
//! 2. `ci` appears in exactly the watch lists of `c[0]` and `c[1]`.
//! 3. After a completed (non-conflicting) [`Engine::propagate`], no
//!    watched literal is false unless the other watch is true — so a
//!    clause can only become unit or conflicting when one of its two
//!    watched literals becomes false, which is exactly when its watch
//!    list is visited.
//!
//! *Trail* — `trail` lists assigned literals in assignment order;
//! `values[v]` is `Some(b)` iff some literal of `v` is on the trail, and
//! `trues` holds exactly the variables of its positive literals.
//! `trail_lim[k]` is the trail height when decision level `k + 1` was
//! opened, so `backtrack(l)` unassigns exactly the literals above
//! `trail_lim[l]`. `qhead` marks the propagation frontier: literals below
//! it have had their watch lists processed. Level-0 assignments (facts)
//! are never undone.
//!
//! # Equivalence with the scan-based reference
//!
//! Unit propagation is confluent — from the same partial assignment it
//! reaches the same fixpoint (or a conflict) regardless of the order
//! implications are discovered in. All higher-level procedures here
//! ([`msa_from_state`], [`solve_from_state`]) only inspect the fixpoint,
//! so they return exactly the results of the scan-based
//! [`msa_scan`](crate::msa_scan) / [`dpll::solve`](crate::dpll::solve) on
//! the correspondingly conditioned formula; `tests/engine_differential.rs`
//! checks this on randomized inputs.

use crate::{Cnf, Lit, Var, VarOrder, VarSet};

/// An incremental unit-propagation engine over a CNF.
///
/// Build one with [`Engine::new`], then condition it with
/// [`Engine::assume`] / [`Engine::assume_all`] and undo with
/// [`Engine::backtrack`]. Clauses may be added at level 0 with
/// [`Engine::add_clause`] (GBR's learned sets).
///
/// # Examples
///
/// ```
/// use lbr_logic::{Clause, Cnf, Engine, Lit, Var};
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause(Clause::edge(Var::new(0), Var::new(1))); // 0 ⇒ 1
/// let mut engine = Engine::new(&cnf, 3);
/// assert!(engine.assume(Lit::pos(Var::new(0))));
/// assert_eq!(engine.value(Var::new(1)), Some(true)); // propagated
/// engine.backtrack(0);
/// assert_eq!(engine.value(Var::new(1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    /// Clause literal arrays. Positions 0 and 1 are the watched literals;
    /// watch replacement permutes the array but never changes the set.
    clauses: Vec<Vec<Lit>>,
    /// `watches[l.code()]` = indices of clauses currently watching `l`.
    watches: Vec<Vec<u32>>,
    /// Current assignment, indexed by variable index; `None` = unassigned.
    values: Vec<Option<bool>>,
    /// Assigned literals in assignment order.
    trail: Vec<Lit>,
    /// Trail height at the start of each decision level.
    trail_lim: Vec<usize>,
    /// Propagation frontier into `trail`.
    qhead: usize,
    /// The variables currently assigned true — the positive literals of
    /// `trail`, kept in step by `enqueue` and `backtrack`.
    trues: VarSet,
    /// Indices, ascending, of the stored clauses with ≥ 2 positive
    /// literals: the only clauses the greedy closure can find violated
    /// (see [`msa_from_state`]).
    violable: Vec<u32>,
    /// `cnf.num_vars()` of the base formula — the DPLL branching bound.
    num_vars: usize,
    /// Size of the variable universe (`≥ num_vars`; extra variables are
    /// unconstrained but may be assumed and reported in [`Engine::true_set`]).
    universe: usize,
    /// False once a level-0 conflict has been derived: the stored formula
    /// (base CNF plus added clauses) is unsatisfiable.
    ok: bool,
}

impl Engine {
    /// Builds an engine for `cnf` over a universe of at least `universe`
    /// variables, propagating all unit clauses at level 0.
    ///
    /// If the formula is refuted by unit propagation alone (or contains an
    /// empty clause), [`Engine::is_ok`] is false afterwards.
    pub fn new(cnf: &Cnf, universe: usize) -> Self {
        let universe = universe.max(cnf.num_vars());
        let mut engine = Engine {
            clauses: Vec::with_capacity(cnf.len()),
            watches: vec![Vec::new(); 2 * universe],
            values: vec![None; universe],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            trues: VarSet::empty(universe),
            violable: Vec::new(),
            num_vars: cnf.num_vars(),
            universe,
            ok: true,
        };
        for clause in cnf.clauses() {
            engine.add_clause(clause.lits());
            if !engine.ok {
                break;
            }
        }
        engine
    }

    /// Whether the stored formula is still possibly satisfiable (no level-0
    /// conflict was derived). Once false, the engine is inert.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// The variable universe size.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of variables of the base CNF (the DPLL branching bound).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Current decision level; 0 holds only facts.
    pub fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// The current value of `v`, or `None` if unassigned.
    #[inline]
    pub fn value(&self, v: Var) -> Option<bool> {
        self.values.get(v.index()).copied().flatten()
    }

    /// The current value of literal `l`, or `None` if its variable is
    /// unassigned.
    #[inline]
    pub fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| l.eval(b))
    }

    /// The assignment trail, in assignment order.
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    /// Number of stored clauses (unit clauses are absorbed into the trail
    /// and level-0-satisfied clauses are dropped at add time).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The literals of stored clause `ci`. The *set* is stable; the order
    /// within the array changes as watches move.
    pub fn clause(&self, ci: usize) -> &[Lit] {
        &self.clauses[ci]
    }

    /// The set of currently-true variables, over the engine's universe:
    /// the positive literals of [`Engine::trail`]. The engine maintains it
    /// alongside the trail, so this is a copy of a bitset, not a trail walk.
    pub fn true_set(&self) -> VarSet {
        self.trues.clone()
    }

    /// Adds a clause at decision level 0, propagating any consequences.
    ///
    /// Literals false at level 0 are dropped and clauses already satisfied
    /// at level 0 are ignored — both are sound because level-0 assignments
    /// are permanent. Like [`Cnf::add_clause`] after [`Clause::new`],
    /// repeated literals count once and tautologies are ignored, so a
    /// clause such as `a ∨ a` propagates as the unit it is. Returns
    /// [`Engine::is_ok`] afterwards.
    ///
    /// [`Clause::new`]: crate::Clause::new
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if called above decision level 0, or if a
    /// literal's variable is outside the universe.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "add_clause above level 0");
        if !self.ok {
            return false;
        }
        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                Some(true) => return true, // satisfied forever
                Some(false) => {}          // falsified forever
                None => kept.push(l),
            }
        }
        // Sorting puts a repeated literal, and a literal beside its
        // negation, next to each other. Learned sets and `Cnf` clauses
        // arrive sorted already, so their watch order is unchanged.
        kept.sort_unstable();
        kept.dedup();
        if kept.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true; // a tautology
        }
        match kept.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if !self.enqueue(kept[0]) || !self.propagate() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let ci = self.clauses.len() as u32;
                self.watches[kept[0].code()].push(ci);
                self.watches[kept[1].code()].push(ci);
                if kept.iter().filter(|l| l.is_positive()).count() >= 2 {
                    self.violable.push(ci);
                }
                self.clauses.push(kept);
                true
            }
        }
    }

    /// Assigns `l` without propagating. Returns false if `l` is already
    /// false (a conflict); assigning an already-true literal is a no-op.
    fn enqueue(&mut self, l: Lit) -> bool {
        match self.lit_value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                self.values[l.var().index()] = Some(l.is_positive());
                if l.is_positive() {
                    self.trues.insert(l.var());
                }
                self.trail.push(l);
                true
            }
        }
    }

    /// Opens a new decision level, assigns `l`, and propagates.
    ///
    /// Returns false on conflict; the level stays open either way, so the
    /// caller backtracks past it (conflicts leave the partial propagation
    /// on the trail, which is why the failed level must be popped).
    pub fn assume(&mut self, l: Lit) -> bool {
        self.trail_lim.push(self.trail.len());
        self.enqueue(l) && self.propagate()
    }

    /// Opens one decision level, assigns all of `lits`, and propagates.
    /// Returns false on conflict (see [`Engine::assume`]).
    pub fn assume_all(&mut self, lits: &[Lit]) -> bool {
        self.trail_lim.push(self.trail.len());
        for &l in lits {
            if !self.enqueue(l) {
                return false;
            }
        }
        self.propagate()
    }

    /// Undoes all assignments above decision level `level`. A no-op if the
    /// engine is already at or below that level.
    pub fn backtrack(&mut self, level: usize) {
        if level >= self.decision_level() {
            return;
        }
        let limit = self.trail_lim[level];
        for &l in &self.trail[limit..] {
            self.values[l.var().index()] = None;
            if l.is_positive() {
                self.trues.remove(l.var());
            }
        }
        self.trail.truncate(limit);
        self.trail_lim.truncate(level);
        self.qhead = limit;
    }

    /// Propagates all pending trail literals to a fixpoint using the
    /// watched-literal scheme. Returns false on conflict, in which case the
    /// caller must backtrack past the current level (or, at level 0, treat
    /// the formula as unsatisfiable).
    pub fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negated();
            // Take the watch list so we can mutate clauses while walking it;
            // entries that keep their watch are retained, moved watches are
            // dropped from this list.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut conflict = false;
            'clauses: while i < ws.len() {
                let ci = ws[i] as usize;
                let lits = &mut self.clauses[ci];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit, "watch list out of sync");
                let first = lits[0];
                if self.values[first.var().index()].map(|b| first.eval(b)) == Some(true) {
                    i += 1; // clause satisfied through the other watch
                    continue;
                }
                for k in 2..lits.len() {
                    let cand = lits[k];
                    if self.values[cand.var().index()].map(|b| cand.eval(b)) != Some(false) {
                        // Move the watch from `false_lit` to `cand`.
                        lits.swap(1, k);
                        self.watches[cand.code()].push(ci as u32);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // No replacement: unit on `first`, or conflict.
                if !self.enqueue(first) {
                    conflict = true;
                    break;
                }
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
            if conflict {
                return false;
            }
        }
        true
    }
}

/// Runs the MSA procedure of [`msa`](crate::msa) *from the engine's
/// current state*: the current assignment plays the role of the
/// conditioning in the scan-based implementation.
///
/// Returns the full set of true variables of the found model (including
/// variables already true in the current state), or `None` if no model
/// extends the current assignment. The engine is restored to its entry
/// state before returning.
///
/// The caller must ensure the current state is propagated and
/// conflict-free (i.e. the last `assume*` returned true and
/// [`Engine::is_ok`] holds).
///
/// This is the order-driven greedy closure: repeated in-order passes
/// satisfying each violated clause (violated under "unassigned = false")
/// by assuming its `<`-least eligible positive literal, falling back to
/// [`solve_from_state`] on a dead end.
///
/// A pass visits only the clauses with ≥ 2 positive literals, in index
/// order. Every pass starts from a propagated, conflict-free state, and
/// in such a state a clause with ≤ 1 positive literal is never violated:
/// violating it needs all its negative literals false, and then unit
/// propagation has already made its positive literal true (or, with no
/// positive literal, reported a conflict). So skipping those clauses
/// changes neither the picks nor their order, and the result equals the
/// scan-based [`msa_scan`](crate::msa_scan) on the conditioned formula.
pub fn msa_from_state(engine: &mut Engine, order: &VarOrder) -> Option<VarSet> {
    let mark = engine.decision_level();
    loop {
        let mut fixed_any = false;
        let mut dead_end = false;
        let mut k = 0;
        while k < engine.violable.len() {
            let ci = engine.violable[k] as usize;
            if let Some(pick) = violated_pick(engine, order, ci) {
                match pick {
                    Some(v) => {
                        if !engine.assume(Lit::pos(v)) {
                            dead_end = true;
                            break;
                        }
                        fixed_any = true;
                    }
                    None => {
                        dead_end = true;
                        break;
                    }
                }
            }
            k += 1;
        }
        if dead_end {
            // Greedy painted itself into a corner (or no model exists):
            // discard the greedy picks and let the complete search decide.
            engine.backtrack(mark);
            return solve_from_state(engine, order);
        }
        if !fixed_any {
            let s = engine.true_set();
            engine.backtrack(mark);
            return Some(s);
        }
    }
}

/// If clause `ci` is violated under "unassigned variables are false",
/// returns its `<`-least positive literal not already false (`Some(None)`
/// when no such pick exists). Returns `None` when the clause is fine.
fn violated_pick(engine: &Engine, order: &VarOrder, ci: usize) -> Option<Option<Var>> {
    let lits = engine.clause(ci);
    for &l in lits {
        if engine.lit_value(l).unwrap_or(!l.is_positive()) {
            return None;
        }
    }
    Some(
        order.min(
            lits.iter()
                .filter(|l| l.is_positive())
                .map(|l| l.var())
                .filter(|&v| engine.value(v) != Some(false)),
        ),
    )
}

/// Complete DPLL search from the engine's current state: branches in
/// `order` with default polarity false over unassigned variables below
/// [`Engine::num_vars`]. Returns the full true set of the model found (or
/// `None` if unsatisfiable) and restores the engine's entry state.
pub fn solve_from_state(engine: &mut Engine, order: &VarOrder) -> Option<VarSet> {
    let mark = engine.decision_level();
    let found = search(engine, order);
    let result = found.then(|| engine.true_set());
    engine.backtrack(mark);
    result
}

fn search(engine: &mut Engine, order: &VarOrder) -> bool {
    let branch = order
        .iter()
        .find(|&v| v.index() < engine.num_vars() && engine.value(v).is_none());
    let Some(v) = branch else {
        return true; // all constrained variables assigned, no conflict
    };
    for polarity in [false, true] {
        let lvl = engine.decision_level();
        if engine.assume(Lit::with_polarity(v, polarity)) && search(engine, order) {
            return true;
        }
        engine.backtrack(lvl);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clause;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    fn chain(n: usize) -> Cnf {
        let mut cnf = Cnf::new(n);
        for i in 0..n - 1 {
            cnf.add_clause(Clause::edge(v(i as u32), v(i as u32 + 1)));
        }
        cnf
    }

    #[test]
    fn level0_units_propagate_at_construction() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::edge(v(0), v(1)));
        let engine = Engine::new(&cnf, 3);
        assert!(engine.is_ok());
        assert_eq!(engine.value(v(0)), Some(true));
        assert_eq!(engine.value(v(1)), Some(true));
        assert_eq!(engine.value(v(2)), None);
        assert_eq!(engine.decision_level(), 0);
    }

    #[test]
    fn level0_conflict_marks_not_ok() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::new(vec![Lit::neg(v(0))]));
        assert!(!Engine::new(&cnf, 1).is_ok());
    }

    #[test]
    fn assume_propagates_and_backtrack_undoes() {
        let cnf = chain(5);
        let mut engine = Engine::new(&cnf, 5);
        assert!(engine.assume(Lit::pos(v(0))));
        for i in 0..5 {
            assert_eq!(engine.value(v(i)), Some(true), "v{i}");
        }
        assert_eq!(engine.decision_level(), 1);
        engine.backtrack(0);
        for i in 0..5 {
            assert_eq!(engine.value(v(i)), None, "v{i}");
        }
        // The engine is reusable after backtracking.
        assert!(engine.assume(Lit::pos(v(4))));
        assert_eq!(engine.value(v(0)), None);
        assert_eq!(engine.value(v(4)), Some(true));
    }

    #[test]
    fn assume_conflict_reports_false() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::new(vec![Lit::neg(v(1))]));
        let mut engine = Engine::new(&cnf, 2);
        assert!(engine.is_ok());
        assert_eq!(engine.value(v(1)), Some(false)); // level-0 fact
                                                     // ¬v1 and (v0 ⇒ v1) force ¬v0 at level 0 too, so assuming v0
                                                     // conflicts immediately — and the fact survives backtracking.
        assert_eq!(engine.value(v(0)), Some(false));
        assert!(!engine.assume(Lit::pos(v(0))));
        engine.backtrack(0);
        assert_eq!(engine.value(v(0)), Some(false));
        // Assuming a literal that is already a fact is a harmless no-op.
        assert!(engine.assume(Lit::neg(v(0))));
    }

    #[test]
    fn add_clause_at_level0_propagates() {
        let cnf = chain(4);
        let mut engine = Engine::new(&cnf, 4);
        assert!(engine.add_clause(&[Lit::pos(v(1))]));
        assert_eq!(engine.value(v(1)), Some(true));
        assert_eq!(engine.value(v(3)), Some(true));
        assert_eq!(engine.value(v(0)), None);
        // Contradicting the facts kills the engine.
        assert!(!engine.add_clause(&[Lit::neg(v(2))]));
        assert!(!engine.is_ok());
    }

    #[test]
    fn added_clause_counts_repeated_literals_once() {
        let cnf = Cnf::new(3);
        let mut engine = Engine::new(&cnf, 3);
        // `v0 ∨ v0` is the unit `v0`, and must propagate as one.
        assert!(engine.add_clause(&[Lit::pos(v(0)), Lit::pos(v(0))]));
        assert_eq!(engine.value(v(0)), Some(true));
        // A tautology constrains nothing and is not stored.
        let stored = engine.num_clauses();
        assert!(engine.add_clause(&[Lit::pos(v(1)), Lit::pos(v(2)), Lit::neg(v(1))]));
        assert_eq!(engine.num_clauses(), stored);
    }

    #[test]
    fn deep_assume_backtrack_to_middle_level() {
        let cnf = Cnf::new(6);
        let mut engine = Engine::new(&cnf, 6);
        for i in 0..4 {
            assert!(engine.assume(Lit::pos(v(i))));
        }
        assert_eq!(engine.decision_level(), 4);
        engine.backtrack(2);
        assert_eq!(engine.value(v(0)), Some(true));
        assert_eq!(engine.value(v(1)), Some(true));
        assert_eq!(engine.value(v(2)), None);
        assert_eq!(engine.value(v(3)), None);
    }

    #[test]
    fn msa_from_state_matches_msa_on_unconditioned_formula() {
        let mut cnf = chain(6);
        cnf.add_clause(Clause::unit(Lit::pos(v(2))));
        let order = VarOrder::natural(6);
        let legacy = crate::msa_scan(&cnf, &order).expect("sat");
        let mut engine = Engine::new(&cnf, 6);
        let got = msa_from_state(&mut engine, &order).expect("sat");
        assert_eq!(got, legacy);
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
        let legacy = crate::msa_scan(&conditioned, &order).expect("sat");
        let mut engine = Engine::new(&cnf, universe);
        assert!(engine.assume_all(&[Lit::neg(v(4)), Lit::pos(v(0))]));
        let got = msa_from_state(&mut engine, &order).expect("sat");
        // The scan on the conditioned formula excludes the conditioned
        // variable; the engine reports absolute trues.
        let mut expected = legacy;
        expected.insert(v(0));
        assert_eq!(got, expected);
        assert_eq!(engine.decision_level(), 1, "state restored");
    }

    #[test]
    fn solve_from_state_finds_models_and_unsat() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([], [v(0), v(1), v(2)]));
        let order = VarOrder::natural(3);
        let mut engine = Engine::new(&cnf, 3);
        let m = solve_from_state(&mut engine, &order).expect("sat");
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![v(2)],
            "default-false branching"
        );
        // Conditioning away all positives makes it unsat.
        assert!(engine.assume_all(&[Lit::neg(v(0)), Lit::neg(v(1))]));
        assert!(!engine.assume(Lit::neg(v(2))));
        engine.backtrack(1);
        let m = solve_from_state(&mut engine, &order).expect("still sat");
        assert!(m.contains(v(2)));
    }

    #[test]
    fn watch_lists_stay_consistent_under_churn() {
        // Repeated assume/backtrack cycles over a clause with many
        // literals exercise watch migration in both directions.
        let mut cnf = Cnf::new(8);
        cnf.add_clause(Clause::implication([], (0..8).map(v)));
        cnf.add_clause(Clause::implication([v(0), v(1)], [v(7)]));
        let mut engine = Engine::new(&cnf, 8);
        for round in 0..3 {
            for i in 0..7 {
                assert!(
                    engine.assume(Lit::neg(v(i))),
                    "round {round}: ¬v{i} must not conflict"
                );
            }
            assert_eq!(engine.value(v(7)), Some(true), "round {round}: unit forced");
            engine.backtrack(0);
        }
    }
}
