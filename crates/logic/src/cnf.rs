//! Conjunctive normal form formulas and the operations reduction needs.

use crate::{Clause, ClauseShape, Lit, Var, VarSet};
use std::fmt;

/// A formula in conjunctive normal form over variables `0..num_vars`.
///
/// `Cnf` is the dependency model `R_I` of the Input Reduction Problem
/// (Definition 4.1 of the paper): a satisfying assignment — written as its
/// set of true variables — corresponds to a valid sub-input.
///
/// # Examples
///
/// ```
/// use lbr_logic::{Clause, Cnf, Var, VarSet};
/// let a = Var::new(0);
/// let b = Var::new(1);
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause(Clause::edge(a, b)); // a ⇒ b
/// let mut s = VarSet::empty(2);
/// s.insert(a);
/// assert!(!cnf.eval(&s));
/// s.insert(b);
/// assert!(cnf.eval(&s));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    clauses: Vec<Clause>,
    num_vars: usize,
}

impl Cnf {
    /// Creates an empty (trivially true) CNF over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            clauses: Vec::new(),
            num_vars,
        }
    }

    /// Number of variables in the universe (including ones no clause uses).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Grows the variable universe to at least `n`.
    pub fn ensure_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Adds a clause, dropping tautologies and growing the universe as
    /// needed. Returns `true` if the clause was kept.
    pub fn add_clause(&mut self, clause: Clause) -> bool {
        if clause.is_tautology() {
            return false;
        }
        self.ensure_vars(clause.var_bound());
        self.clauses.push(clause);
        true
    }

    /// Conjoins all clauses of `other` into `self`.
    pub fn and(&mut self, other: &Cnf) {
        self.ensure_vars(other.num_vars);
        for c in &other.clauses {
            self.add_clause(c.clone());
        }
    }

    /// The clauses of this CNF.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether there are no clauses (the formula is trivially true).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Evaluates under the complete assignment "true iff member of
    /// `true_set`".
    pub fn eval(&self, true_set: &VarSet) -> bool {
        self.clauses.iter().all(|c| c.eval(true_set))
    }

    /// The set of variables that occur in some clause.
    pub fn occurring_vars(&self) -> VarSet {
        let mut s = VarSet::empty(self.num_vars);
        for c in &self.clauses {
            for l in c.lits() {
                s.insert(l.var());
            }
        }
        s
    }

    /// Conditions the CNF on the given literal values (the paper's
    /// `R | x = 1, y = 0`): satisfied clauses disappear and falsified
    /// literals are removed from their clauses. The variable universe is
    /// unchanged.
    ///
    /// Conditioning can produce the empty clause, in which case the result
    /// is unsatisfiable (see [`Cnf::has_empty_clause`]).
    pub fn condition<I: IntoIterator<Item = Lit>>(&self, lits: I) -> Cnf {
        let mut value: Vec<Option<bool>> = vec![None; self.num_vars];
        for l in lits {
            value[l.var().index()] = Some(l.is_positive());
        }
        self.condition_by(|v| value[v.index()])
    }

    /// Conditions by an arbitrary partial assignment function.
    pub fn condition_by<F: Fn(Var) -> Option<bool>>(&self, value: F) -> Cnf {
        let mut out = Cnf::new(self.num_vars);
        'clauses: for c in &self.clauses {
            let mut kept = Vec::new();
            for &l in c.lits() {
                match value(l.var()) {
                    Some(b) if l.eval(b) => continue 'clauses, // clause satisfied
                    Some(_) => {}                              // literal falsified, drop it
                    None => kept.push(l),
                }
            }
            out.clauses.push(Clause::new(kept));
        }
        out
    }

    /// Restricts to a variable subset `J` by setting every variable outside
    /// `J` to false (the paper's "`R⁺` with vars not in `J` set to 0"), and
    /// additionally setting every variable of `forced_true` to true.
    pub fn restrict(&self, keep: &VarSet, forced_true: &VarSet) -> Cnf {
        self.condition_by(|v| {
            if forced_true.contains(v) {
                Some(true)
            } else if !keep.contains(v) {
                Some(false)
            } else {
                None
            }
        })
    }

    /// Whether conditioning has produced an empty clause, making the formula
    /// unsatisfiable.
    pub fn has_empty_clause(&self) -> bool {
        self.clauses.iter().any(|c| c.is_empty())
    }

    /// The fraction of clauses that are graph constraints (edges or positive
    /// units). The paper reports 97.5% for its benchmark models.
    pub fn graph_fraction(&self) -> f64 {
        if self.clauses.is_empty() {
            return 1.0;
        }
        let graph = self
            .clauses
            .iter()
            .filter(|c| c.is_graph_constraint())
            .count();
        graph as f64 / self.clauses.len() as f64
    }

    /// Counts clauses by shape, useful for model statistics.
    pub fn shape_histogram(&self) -> ShapeHistogram {
        let mut h = ShapeHistogram::default();
        for c in &self.clauses {
            match c.shape() {
                ClauseShape::Empty => h.empty += 1,
                ClauseShape::UnitPositive(_) => h.unit_positive += 1,
                ClauseShape::UnitNegative(_) => h.unit_negative += 1,
                ClauseShape::Edge { .. } => h.edge += 1,
                ClauseShape::PositiveDisjunction => h.positive_disjunction += 1,
                ClauseShape::NegativeDisjunction => h.negative_disjunction += 1,
                ClauseShape::General => h.general += 1,
            }
        }
        h
    }

    /// Removes duplicate clauses (and subsumed duplicates of identical
    /// literal sets), preserving first-occurrence order. Returns the number
    /// of clauses removed.
    pub fn dedup_clauses(&mut self) -> usize {
        let mut seen = std::collections::HashSet::with_capacity(self.clauses.len());
        let first: Vec<bool> = self.clauses.iter().map(|c| seen.insert(c)).collect();
        drop(seen);
        let before = self.clauses.len();
        let mut first = first.into_iter();
        self.clauses.retain(|_| first.next() == Some(true));
        before - self.clauses.len()
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cnf[{} vars] ", self.num_vars)?;
        f.debug_list().entries(&self.clauses).finish()
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        let mut cnf = Cnf::new(0);
        for c in iter {
            cnf.add_clause(c);
        }
        cnf
    }
}

/// Clause-shape counts produced by [`Cnf::shape_histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ShapeHistogram {
    pub empty: usize,
    pub unit_positive: usize,
    pub unit_negative: usize,
    pub edge: usize,
    pub positive_disjunction: usize,
    pub negative_disjunction: usize,
    pub general: usize,
}

impl ShapeHistogram {
    /// Total number of clauses counted.
    pub fn total(&self) -> usize {
        self.empty
            + self.unit_positive
            + self.unit_negative
            + self.edge
            + self.positive_disjunction
            + self.negative_disjunction
            + self.general
    }

    /// Number of clauses that are graph constraints.
    pub fn graph(&self) -> usize {
        self.unit_positive + self.edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn add_and_eval() {
        let mut cnf = Cnf::new(0);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::unit(Lit::pos(v(2))));
        assert_eq!(cnf.num_vars(), 3);
        let mut s = VarSet::empty(3);
        s.insert(v(2));
        assert!(cnf.eval(&s));
        s.insert(v(0));
        assert!(!cnf.eval(&s));
        s.insert(v(1));
        assert!(cnf.eval(&s));
    }

    #[test]
    fn tautologies_dropped() {
        let mut cnf = Cnf::new(2);
        assert!(!cnf.add_clause(Clause::new(vec![Lit::pos(v(0)), Lit::neg(v(0))])));
        assert!(cnf.is_empty());
    }

    #[test]
    fn conditioning() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::edge(v(0), v(1))); // !0 | 1
        cnf.add_clause(Clause::implication([v(1)], [v(2)]));
        // Setting 0 = true leaves (1) and (!1 | 2).
        let c1 = cnf.condition([Lit::pos(v(0))]);
        assert_eq!(c1.len(), 2);
        assert_eq!(c1.clauses()[0], Clause::unit(Lit::pos(v(1))));
        // Setting 0 = false satisfies the first clause.
        let c2 = cnf.condition([Lit::neg(v(0))]);
        assert_eq!(c2.len(), 1);
        // Setting 0 = true and 1 = false yields the empty clause.
        let c3 = cnf.condition([Lit::pos(v(0)), Lit::neg(v(1))]);
        assert!(c3.has_empty_clause());
    }

    #[test]
    fn restrict_sets_outside_false() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([], [v(0), v(1)])); // 0 | 1
        let keep = VarSet::from_iter_with_universe(3, [v(1)]);
        let none = VarSet::empty(3);
        let r = cnf.restrict(&keep, &none);
        assert_eq!(r.clauses()[0], Clause::unit(Lit::pos(v(1))));
        // Forcing v1 true instead satisfies the clause entirely.
        let forced = VarSet::from_iter_with_universe(3, [v(1)]);
        let r2 = cnf.restrict(&keep, &forced);
        assert!(r2.is_empty());
    }

    #[test]
    fn graph_fraction_and_histogram() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::unit(Lit::pos(v(2))));
        cnf.add_clause(Clause::implication([v(0), v(1)], [v(3)]));
        cnf.add_clause(Clause::implication([], [v(1), v(3)]));
        let h = cnf.shape_histogram();
        assert_eq!(h.edge, 1);
        assert_eq!(h.unit_positive, 1);
        assert_eq!(h.general, 1);
        assert_eq!(h.positive_disjunction, 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.graph(), 2);
        assert!((cnf.graph_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dedup() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(0), v(1)));
        assert_eq!(cnf.dedup_clauses(), 1);
        assert_eq!(cnf.len(), 1);
    }

    #[test]
    fn dedup_keeps_first_occurrences_in_order() {
        let a = Clause::edge(v(0), v(1));
        let b = Clause::unit(Lit::pos(v(2)));
        let c = Clause::implication([v(1)], [v(0), v(2)]);
        let mut cnf: Cnf = [&b, &a, &b, &c, &a, &a, &c].into_iter().cloned().collect();
        assert_eq!(cnf.dedup_clauses(), 4);
        assert_eq!(cnf.clauses(), [b, a, c]);
    }

    #[test]
    fn occurring_vars() {
        let mut cnf = Cnf::new(10);
        cnf.add_clause(Clause::edge(v(2), v(7)));
        let occ = cnf.occurring_vars();
        assert_eq!(occ.len(), 2);
        assert!(occ.contains(v(2)) && occ.contains(v(7)));
    }

    #[test]
    fn empty_cnf_is_true() {
        let cnf = Cnf::new(5);
        assert!(cnf.eval(&VarSet::empty(5)));
        assert!((cnf.graph_fraction() - 1.0).abs() < 1e-9);
    }
}
