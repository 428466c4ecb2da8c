//! Partial assignments and Boolean constraint propagation (unit propagation).

use crate::{Cnf, Lit, Var};

/// A partial truth assignment over a fixed variable universe.
///
/// # Examples
///
/// ```
/// use lbr_logic::{Lit, PartialAssignment, Var};
/// let mut pa = PartialAssignment::new(3);
/// pa.assign(Lit::pos(Var::new(1)));
/// assert_eq!(pa.value(Var::new(1)), Some(true));
/// assert_eq!(pa.value(Var::new(0)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAssignment {
    values: Vec<Option<bool>>,
}

impl PartialAssignment {
    /// Creates a fully unassigned partial assignment over `n` variables.
    pub fn new(n: usize) -> Self {
        PartialAssignment {
            values: vec![None; n],
        }
    }

    /// Number of variables in the universe.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value assigned to `v`, if any.
    #[inline]
    pub fn value(&self, v: Var) -> Option<bool> {
        self.values[v.index()]
    }

    /// Makes `lit` true. Returns `false` if this contradicts an existing
    /// assignment (and leaves the assignment unchanged).
    pub fn assign(&mut self, lit: Lit) -> bool {
        match self.values[lit.var().index()] {
            None => {
                self.values[lit.var().index()] = Some(lit.is_positive());
                true
            }
            Some(b) => b == lit.is_positive(),
        }
    }

    /// Clears the value of `v`.
    pub fn unassign(&mut self, v: Var) {
        self.values[v.index()] = None;
    }

    /// Whether every variable has a value.
    pub fn is_complete(&self) -> bool {
        self.values.iter().all(|v| v.is_some())
    }

    /// The set of variables assigned true, as a
    /// [`VarSet`](crate::VarSet) over the same universe (unassigned
    /// variables count as false).
    pub fn true_set(&self) -> crate::VarSet {
        let mut s = crate::VarSet::empty(self.values.len());
        for (i, v) in self.values.iter().enumerate() {
            if *v == Some(true) {
                s.insert(Var::new(i as u32));
            }
        }
        s
    }

    /// Evaluates `lit` under the assignment, `None` if its variable is
    /// unassigned.
    #[inline]
    pub fn eval_lit(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|b| lit.eval(b))
    }

    /// Number of assigned variables.
    pub fn assigned_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }
}

/// The outcome of unit propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Propagation {
    /// Propagation reached a fixpoint; the listed literals were newly
    /// implied (in implication order).
    Implied(Vec<Lit>),
    /// A clause became empty: the assignment cannot be extended to a model.
    Conflict,
}

impl Propagation {
    /// Whether propagation ended in a conflict.
    pub fn is_conflict(&self) -> bool {
        matches!(self, Propagation::Conflict)
    }
}

/// Runs unit propagation of `cnf` under `assignment`, extending the
/// assignment in place with every implied literal.
///
/// This is the `BCP` building block of the *reference* implementations:
/// the scan-based [`dpll`](crate::dpll) solver and the dev-only
/// `lbr_reference::msa_scan`. It rescans the whole clause list to a
/// fixpoint, which is `O(clauses · implied)` per call — fine for one-shot
/// queries, but quadratic when an algorithm re-propagates after every
/// conditioning step. The production path ([`msa`](crate::msa) and GBR's
/// progression construction) therefore uses the incremental
/// [`Engine`](crate::Engine), which watches two literals per clause and
/// only visits clauses whose watched literal just became false. Unit
/// propagation is confluent, so both implementations derive the same
/// fixpoint (or both report a conflict) from the same assignment.
pub fn propagate(cnf: &Cnf, assignment: &mut PartialAssignment) -> Propagation {
    let mut implied = Vec::new();
    loop {
        let mut changed = false;
        for clause in cnf.clauses() {
            let mut unassigned: Option<Lit> = None;
            let mut unassigned_count = 0;
            let mut satisfied = false;
            for &l in clause.lits() {
                match assignment.eval_lit(l) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        unassigned_count += 1;
                        if unassigned.is_none() {
                            unassigned = Some(l);
                        }
                    }
                }
            }
            if satisfied {
                continue;
            }
            match unassigned_count {
                0 => return Propagation::Conflict,
                1 => {
                    let l = unassigned.expect("one unassigned literal");
                    assignment.assign(l);
                    implied.push(l);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return Propagation::Implied(implied);
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

    #[test]
    fn assign_and_conflict() {
        let mut pa = PartialAssignment::new(2);
        assert!(pa.assign(Lit::pos(v(0))));
        assert!(pa.assign(Lit::pos(v(0)))); // consistent re-assign
        assert!(!pa.assign(Lit::neg(v(0)))); // contradiction
        assert_eq!(pa.value(v(0)), Some(true));
        assert_eq!(pa.assigned_count(), 1);
        pa.unassign(v(0));
        assert_eq!(pa.value(v(0)), None);
    }

    #[test]
    fn propagates_chain() {
        // 0, 0=>1, 1=>2
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        let mut pa = PartialAssignment::new(3);
        let res = propagate(&cnf, &mut pa);
        assert!(!res.is_conflict());
        assert!(pa.is_complete());
        assert_eq!(pa.true_set().len(), 3);
    }

    #[test]
    fn detects_conflict() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::unit(Lit::neg(v(0))));
        let mut pa = PartialAssignment::new(1);
        assert!(propagate(&cnf, &mut pa).is_conflict());
    }

    #[test]
    fn leaves_unforced_unassigned() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([], [v(0), v(1)])); // 0 | 1 — no units
        let mut pa = PartialAssignment::new(3);
        match propagate(&cnf, &mut pa) {
            Propagation::Implied(lits) => assert!(lits.is_empty()),
            Propagation::Conflict => panic!("no conflict expected"),
        }
        assert_eq!(pa.assigned_count(), 0);
    }

    #[test]
    fn propagation_respects_existing_assignment() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::implication([], [v(0), v(1)]));
        let mut pa = PartialAssignment::new(2);
        pa.assign(Lit::neg(v(0)));
        let res = propagate(&cnf, &mut pa);
        assert!(!res.is_conflict());
        assert_eq!(pa.value(v(1)), Some(true));
    }
}
