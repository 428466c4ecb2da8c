//! Total variable orders.
//!
//! The Generalized Binary Reduction algorithm is parameterized by a total
//! order `<` on the variables. The order drives both the `MSA_<` procedure
//! (which satisfies clauses with their `<`-smallest positive literal) and
//! the choice of the next progression seed. Theorem 4.5 of the paper shows
//! that picking the order well yields locally minimal solutions for graph
//! constraints.

use crate::Var;

/// A total order over the variables `0..n`.
///
/// Internally a permutation (`position k` holds the k-th smallest variable)
/// with its inverse (`rank`).
///
/// # Examples
///
/// ```
/// use lbr_logic::{Var, VarOrder};
/// let order = VarOrder::from_permutation(vec![Var::new(2), Var::new(0), Var::new(1)]);
/// assert!(order.lt(Var::new(2), Var::new(0)));
/// assert_eq!(order.min([Var::new(0), Var::new(1)]), Some(Var::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarOrder {
    perm: Vec<Var>,
    rank: Vec<u32>,
}

impl VarOrder {
    /// The natural index order over `0..n`.
    pub fn natural(n: usize) -> Self {
        VarOrder {
            perm: (0..n as u32).map(Var::new).collect(),
            rank: (0..n as u32).collect(),
        }
    }

    /// Builds an order from a permutation of `0..perm.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation.
    pub fn from_permutation(perm: Vec<Var>) -> Self {
        let n = perm.len();
        let mut rank = vec![u32::MAX; n];
        for (k, v) in perm.iter().enumerate() {
            assert!(v.index() < n, "variable {v} outside universe {n}");
            assert!(rank[v.index()] == u32::MAX, "duplicate variable {v}");
            rank[v.index()] = k as u32;
        }
        VarOrder { perm, rank }
    }

    /// Builds an order by sorting variables by a key.
    pub fn by_key<K: Ord, F: FnMut(Var) -> K>(n: usize, mut key: F) -> Self {
        let mut perm: Vec<Var> = (0..n as u32).map(Var::new).collect();
        perm.sort_by_key(|&v| key(v));
        Self::from_permutation(perm)
    }

    /// Number of variables ordered.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the order is over an empty universe.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The rank of `v` (0 = smallest).
    #[inline]
    pub fn rank(&self, v: Var) -> u32 {
        self.rank[v.index()]
    }

    /// Whether `a < b` in this order.
    #[inline]
    pub fn lt(&self, a: Var, b: Var) -> bool {
        self.rank(a) < self.rank(b)
    }

    /// The `<`-smallest variable of an iterator, if non-empty.
    pub fn min<I: IntoIterator<Item = Var>>(&self, vars: I) -> Option<Var> {
        vars.into_iter().min_by_key(|&v| self.rank(v))
    }

    /// Iterates all variables in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.perm.iter().copied()
    }

    /// Sorts a slice of variables into increasing order.
    pub fn sort(&self, vars: &mut [Var]) {
        vars.sort_by_key(|&v| self.rank(v));
    }

    /// The reverse of this order.
    pub fn reversed(&self) -> VarOrder {
        let mut perm = self.perm.clone();
        perm.reverse();
        Self::from_permutation(perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn natural_order() {
        let o = VarOrder::natural(3);
        assert!(o.lt(v(0), v(2)));
        assert_eq!(o.rank(v(1)), 1);
        assert_eq!(o.iter().collect::<Vec<_>>(), vec![v(0), v(1), v(2)]);
    }

    #[test]
    fn permutation_order() {
        let o = VarOrder::from_permutation(vec![v(2), v(0), v(1)]);
        assert!(o.lt(v(2), v(0)));
        assert!(o.lt(v(0), v(1)));
        assert_eq!(o.min([v(1), v(0)]), Some(v(0)));
        let mut vars = vec![v(1), v(2), v(0)];
        o.sort(&mut vars);
        assert_eq!(vars, vec![v(2), v(0), v(1)]);
    }

    #[test]
    fn by_key_and_reversed() {
        // Order descending by index.
        let o = VarOrder::by_key(4, |v| std::cmp::Reverse(v.index()));
        assert!(o.lt(v(3), v(0)));
        let r = o.reversed();
        assert!(r.lt(v(0), v(3)));
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn rejects_non_permutation() {
        VarOrder::from_permutation(vec![v(0), v(0)]);
    }
}
