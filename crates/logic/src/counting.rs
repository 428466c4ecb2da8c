//! Exact model counting (#SAT), in the style of sharpSAT.
//!
//! The paper uses sharpSAT to count the valid sub-inputs of the Section 2
//! example (6,766 of the 2²⁰ = 1,048,576 subsets). This module implements
//! the same three ingredients sharpSAT popularized, sized for dependency
//! models rather than industrial instances:
//!
//! * implicit BCP — unit propagation before every branch,
//! * connected-component decomposition — disjoint sub-formulas multiply,
//! * component caching — isomorphic sub-formulas are counted once.

use crate::{Clause, Cnf, Lit, Var};
use std::collections::HashMap;

/// Counts the satisfying assignments of `cnf` over all `cnf.num_vars()`
/// variables (variables mentioned in no clause are free and double the
/// count).
///
/// # Panics
///
/// Panics if the count overflows `u128` (more than ~2¹²⁷ models).
///
/// # Examples
///
/// ```
/// use lbr_logic::{count_models, Clause, Cnf, Var};
/// let mut cnf = Cnf::new(2);
/// cnf.add_clause(Clause::implication([], [Var::new(0), Var::new(1)]));
/// assert_eq!(count_models(&cnf), 3); // all but {¬0, ¬1}
/// ```
pub fn count_models(cnf: &Cnf) -> u128 {
    let mut counter = Counter::default();
    let clauses: Vec<Clause> = cnf.clauses().to_vec();
    if clauses.iter().any(|c| c.is_empty()) {
        return 0;
    }
    let mut vars: Vec<Var> = cnf.occurring_vars().iter().collect();
    vars.sort();
    let free = cnf.num_vars() - vars.len();
    let core = counter.count(clauses, vars);
    core.checked_mul(pow2(free)).expect("model count overflow")
}

fn pow2(n: usize) -> u128 {
    assert!(n < 128, "model count overflow: 2^{n}");
    1u128 << n
}

#[derive(Default)]
struct Counter {
    cache: HashMap<Vec<u64>, u128>,
}

impl Counter {
    /// Counts assignments to `vars` satisfying `clauses`. Every variable in
    /// `clauses` is in `vars`; `vars` may contain extra (free) variables.
    fn count(&mut self, clauses: Vec<Clause>, vars: Vec<Var>) -> u128 {
        // Implicit BCP. Forced variables are fixed: factor 1 each.
        let Some((clauses, forced)) = bcp(clauses) else {
            return 0;
        };
        // Free variables: in `vars`, not forced, and no longer mentioned.
        let mut mentioned: Vec<Var> = Vec::new();
        {
            let mut seen = std::collections::HashSet::new();
            for c in &clauses {
                for l in c.lits() {
                    if seen.insert(l.var()) {
                        mentioned.push(l.var());
                    }
                }
            }
        }
        mentioned.sort();
        let free = vars.len() - mentioned.len() - forced.len();
        let mult = pow2(free);
        if clauses.is_empty() {
            return mult;
        }

        // Component decomposition.
        let comps = components(&clauses, &mentioned);
        let mut total = mult;
        for (comp_clauses, comp_vars) in comps {
            let sub = self.count_component(comp_clauses, comp_vars);
            if sub == 0 {
                return 0;
            }
            total = total.checked_mul(sub).expect("model count overflow");
        }
        total
    }

    fn count_component(&mut self, clauses: Vec<Clause>, vars: Vec<Var>) -> u128 {
        let key = canonical_key(&clauses, &vars);
        if let Some(&c) = self.cache.get(&key) {
            return c;
        }
        // Branch on the most frequent variable.
        let mut freq: HashMap<Var, usize> = HashMap::new();
        for c in &clauses {
            for l in c.lits() {
                *freq.entry(l.var()).or_insert(0) += 1;
            }
        }
        let &branch = freq
            .iter()
            .max_by_key(|&(v, n)| (*n, std::cmp::Reverse(v.index())))
            .map(|(v, _)| v)
            .expect("component has variables");
        let mut total = 0u128;
        for polarity in [true, false] {
            let lit = Lit::with_polarity(branch, polarity);
            if let Some(cond) = condition_clauses(&clauses, lit) {
                let sub_vars: Vec<Var> = vars.iter().copied().filter(|&v| v != branch).collect();
                total = total
                    .checked_add(self.count(cond, sub_vars))
                    .expect("model count overflow");
            }
        }
        self.cache.insert(key, total);
        total
    }
}

/// Repeated unit propagation on a clause list. Returns the conditioned
/// clauses and the forced literals, or `None` on conflict.
///
/// All units of a pass are collected and conditioned on together, so the
/// clause list is rewritten once per propagation *round* rather than once
/// per unit (the old behavior was `O(units · clauses)` per call, a real
/// cost under the counter's exponential branching). Unit propagation is
/// confluent, so the batched fixpoint is identical.
fn bcp(mut clauses: Vec<Clause>) -> Option<(Vec<Clause>, Vec<Lit>)> {
    let mut forced: Vec<Lit> = Vec::new();
    loop {
        let mut units: Vec<Lit> = Vec::new();
        for c in &clauses {
            if c.len() == 1 {
                let lit = c.lits()[0];
                if units.contains(&lit.negated()) {
                    return None; // contradictory units in one round
                }
                if !units.contains(&lit) {
                    units.push(lit);
                }
            }
        }
        if units.is_empty() {
            return Some((clauses, forced));
        }
        clauses = condition_on_all(&clauses, &units)?;
        forced.extend(units);
    }
}

/// Conditions a clause list on all of `lits` being true in one pass.
/// `None` on conflict (empty clause produced).
fn condition_on_all(clauses: &[Clause], lits: &[Lit]) -> Option<Vec<Clause>> {
    let mut out = Vec::with_capacity(clauses.len());
    'clauses: for c in clauses {
        let mut kept: Vec<Lit> = Vec::with_capacity(c.len());
        for &l in c.lits() {
            if lits.contains(&l) {
                continue 'clauses; // satisfied
            }
            if !lits.contains(&l.negated()) {
                kept.push(l);
            }
        }
        if kept.is_empty() {
            return None;
        }
        out.push(if kept.len() == c.len() {
            c.clone()
        } else {
            Clause::new(kept)
        });
    }
    Some(out)
}

/// Conditions a clause list on `lit` being true. `None` on conflict (empty
/// clause produced).
fn condition_clauses(clauses: &[Clause], lit: Lit) -> Option<Vec<Clause>> {
    let mut out = Vec::with_capacity(clauses.len());
    for c in clauses {
        if c.lits().contains(&lit) {
            continue; // satisfied
        }
        if c.lits().contains(&lit.negated()) {
            let kept: Vec<Lit> = c
                .lits()
                .iter()
                .copied()
                .filter(|&l| l != lit.negated())
                .collect();
            if kept.is_empty() {
                return None;
            }
            out.push(Clause::new(kept));
        } else {
            out.push(c.clone());
        }
    }
    Some(out)
}

/// Splits clauses into connected components over shared variables.
fn components(clauses: &[Clause], vars: &[Var]) -> Vec<(Vec<Clause>, Vec<Var>)> {
    // Union-find over variable indices.
    let index: HashMap<Var, usize> = vars
        .iter()
        .copied()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect();
    let mut parent: Vec<usize> = (0..vars.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for c in clauses {
        let mut lits = c.lits().iter();
        if let Some(first) = lits.next() {
            let a = index[&first.var()];
            for l in lits {
                let b = index[&l.var()];
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }
    }
    let mut comp_clauses: HashMap<usize, Vec<Clause>> = HashMap::new();
    let mut comp_vars: HashMap<usize, Vec<Var>> = HashMap::new();
    for &v in vars {
        let root = find(&mut parent, index[&v]);
        comp_vars.entry(root).or_default().push(v);
    }
    for c in clauses {
        let root = find(&mut parent, index[&c.lits()[0].var()]);
        comp_clauses.entry(root).or_default().push(c.clone());
    }
    let mut roots: Vec<usize> = comp_vars.keys().copied().collect();
    roots.sort();
    roots
        .into_iter()
        .map(|r| {
            (
                comp_clauses.remove(&r).unwrap_or_default(),
                comp_vars.remove(&r).unwrap_or_default(),
            )
        })
        .collect()
}

/// A canonical, renaming-invariant key for a component: variables are
/// renumbered by first occurrence in the sorted clause list.
fn canonical_key(clauses: &[Clause], vars: &[Var]) -> Vec<u64> {
    let mut sorted: Vec<&Clause> = clauses.iter().collect();
    sorted.sort();
    let mut rename: HashMap<Var, u32> = HashMap::new();
    let mut next = 0u32;
    let mut key = Vec::with_capacity(clauses.len() * 4 + 1);
    for c in &sorted {
        for l in c.lits() {
            let id = *rename.entry(l.var()).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            key.push(((id as u64) << 1) | (l.is_positive() as u64));
        }
        key.push(u64::MAX); // clause separator
    }
    // Free-variable count must be part of the identity.
    key.push(vars.len() as u64);
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, VarOrder};

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    /// Brute-force reference counter.
    fn brute(cnf: &Cnf) -> u128 {
        let n = cnf.num_vars();
        assert!(n <= 20);
        let mut count = 0u128;
        for bits in 0..(1u64 << n) {
            let mut s = crate::VarSet::empty(n);
            for i in 0..n {
                if bits >> i & 1 == 1 {
                    s.insert(v(i as u32));
                }
            }
            if cnf.eval(&s) {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn empty_cnf_counts_all() {
        assert_eq!(count_models(&Cnf::new(3)), 8);
    }

    #[test]
    fn unit_halves() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        assert_eq!(count_models(&cnf), 4);
    }

    #[test]
    fn implication_chain() {
        // 0=>1=>2 over 3 vars: models are downward-closed suffix sets:
        // {}, {2}, {1,2}, {0,1,2} => 4
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        assert_eq!(count_models(&cnf), 4);
        assert_eq!(count_models(&cnf), brute(&cnf));
    }

    #[test]
    fn disjoint_components_multiply() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::implication([], [v(0), v(1)])); // 3 models
        cnf.add_clause(Clause::implication([], [v(2), v(3)])); // 3 models
        assert_eq!(count_models(&cnf), 9);
        assert_eq!(count_models(&cnf), brute(&cnf));
    }

    #[test]
    fn unsat_counts_zero() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::unit(Lit::neg(v(0))));
        assert_eq!(count_models(&cnf), 0);
    }

    #[test]
    fn matches_brute_force_on_structured_formulas() {
        let cases: Vec<Cnf> = vec![
            {
                let mut c = Cnf::new(5);
                c.add_clause(Clause::implication([v(0), v(1)], [v(2)]));
                c.add_clause(Clause::edge(v(2), v(3)));
                c.add_clause(Clause::implication([], [v(3), v(4)]));
                c
            },
            {
                let mut c = Cnf::new(6);
                c.add_clause(Clause::implication([v(0)], [v(1), v(2)]));
                c.add_clause(Clause::implication([v(1)], [v(3)]));
                c.add_clause(Clause::implication([v(2)], [v(3)]));
                c.add_clause(Clause::new(vec![Lit::neg(v(4)), Lit::neg(v(5))]));
                c
            },
            {
                let mut c = Cnf::new(4);
                c.add_clause(Clause::new(vec![Lit::neg(v(0)), Lit::neg(v(1))]));
                c.add_clause(Clause::new(vec![Lit::neg(v(1)), Lit::neg(v(2))]));
                c.add_clause(Clause::implication([], [v(0), v(1), v(2), v(3)]));
                c
            },
        ];
        for cnf in &cases {
            assert_eq!(count_models(cnf), brute(cnf), "formula {cnf:?}");
        }
    }

    #[test]
    fn isomorphic_components_count_alike() {
        // Two isomorphic chains share one cache entry.
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(2), v(3)));
        assert_eq!(count_models(&cnf), 9);
        assert_eq!(count_models(&cnf), brute(&cnf));
    }

    #[test]
    fn components_free_variables_and_units_count_like_brute_force() {
        // Several disjoint components plus free variables and forced units.
        let mut cnf = Cnf::new(14);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        cnf.add_clause(Clause::implication([], [v(3), v(4)]));
        cnf.add_clause(Clause::implication([v(5), v(6)], [v(7)]));
        cnf.add_clause(Clause::unit(Lit::pos(v(8))));
        cnf.add_clause(Clause::new(vec![Lit::neg(v(9)), Lit::neg(v(10))]));
        assert_eq!(count_models(&cnf), brute(&cnf));
    }

    #[test]
    fn count_agrees_with_sat() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([v(0)], [v(1)]));
        cnf.add_clause(Clause::implication([v(1)], [v(0)]));
        let count = count_models(&cnf);
        assert!(count > 0);
        assert!(crate::dpll::solve(&cnf, &VarOrder::natural(3)).is_some());
        assert_eq!(count, brute(&cnf));
    }
}
