//! Variable-order heuristics for `MSA_<` and GBR.
//!
//! Theorem 4.5 of the paper guarantees locally minimal solutions for graph
//! constraints only "if we pick `<` well". The progression wants early
//! variables to pull in *few* dependencies: entry `k+1` is the closure of
//! the `<`-least uncovered variable, so ordering variables by ascending
//! dependency-closure size keeps progression entries small and the binary
//! search informative. (In the worst order — a chain's root first — the
//! progression collapses to `[D₀, everything]` and nothing is learned.)

use crate::DepGraph;
use lbr_logic::{ClauseShape, Cnf, VarOrder};

/// Orders variables by ascending size of their dependency closure, computed
/// over the *edge-shaped* clauses of `cnf` (general clauses do not pin a
/// unique dependency and are ignored by the heuristic). Ties break by
/// variable index.
///
/// This puts sinks (items that depend on nothing) first and roots with deep
/// dependency cones last, which is the "well picked" order Theorem 4.5
/// wants.
///
/// # Examples
///
/// ```
/// use lbr_core::closure_size_order;
/// use lbr_logic::{Clause, Cnf, Var};
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause(Clause::edge(Var::new(0), Var::new(1))); // 0 needs 1
/// cnf.add_clause(Clause::edge(Var::new(1), Var::new(2))); // 1 needs 2
/// let order = closure_size_order(&cnf);
/// // 2 pulls nothing, 1 pulls {2}, 0 pulls {1,2}.
/// assert!(order.lt(Var::new(2), Var::new(1)));
/// assert!(order.lt(Var::new(1), Var::new(0)));
/// ```
pub fn closure_size_order(cnf: &Cnf) -> VarOrder {
    let n = cnf.num_vars();
    let sizes = closure_sizes(cnf);
    VarOrder::by_key(n, |v| (sizes[v.index()], v.index()))
}

/// The size of each variable's transitive dependency closure (including
/// itself) over the edge-shaped clauses of `cnf`.
pub fn closure_sizes(cnf: &Cnf) -> Vec<u32> {
    let n = cnf.num_vars();
    let mut graph = DepGraph::new(n);
    for c in cnf.clauses() {
        if let ClauseShape::Edge { from, to } = c.shape() {
            graph.add_edge(from, to);
        }
    }
    closure_sizes_of_graph(&graph)
}

/// The size of each node's transitive closure (including itself).
pub fn closure_sizes_of_graph(graph: &DepGraph) -> Vec<u32> {
    let n = graph.len();
    let sccs = graph.sccs(); // dependencies first
    let mut scc_of = vec![usize::MAX; n];
    for (i, scc) in sccs.iter().enumerate() {
        for &v in scc {
            scc_of[v.index()] = i;
        }
    }
    // Bottom-up closure bitsets per SCC, over SCC indices.
    let words = sccs.len().div_ceil(64);
    let mut closures: Vec<Vec<u64>> = vec![vec![0; words]; sccs.len()];
    let mut member_counts = vec![0u32; sccs.len()];
    for (i, scc) in sccs.iter().enumerate() {
        closures[i][i / 64] |= 1 << (i % 64);
        for &v in scc {
            for &succ in graph.successors(v) {
                let j = scc_of[succ.index()];
                if j != i {
                    debug_assert!(j < i, "sccs must be in dependency order");
                    let (head, tail) = closures.split_at_mut(i);
                    for (w, o) in tail[0].iter_mut().zip(&head[j]) {
                        *w |= o;
                    }
                }
            }
        }
    }
    for (i, closure) in closures.iter().enumerate() {
        let mut count = 0u32;
        for (wi, w) in closure.iter().enumerate() {
            let mut bits = *w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                count += sccs[wi * 64 + b].len() as u32;
            }
        }
        member_counts[i] = count;
    }
    (0..n).map(|v| member_counts[scc_of[v]]).collect()
}

/// The order variables were created in (identity permutation) — a poor
/// choice for chains, kept for ablations.
pub fn natural_order(cnf: &Cnf) -> VarOrder {
    VarOrder::natural(cnf.num_vars())
}

/// Orders variables by descending *history weight* — e.g. how often each
/// variable appeared in committed solutions or learned sets of earlier
/// reduction runs (harvested from the persistent probe cache) — breaking
/// ties by ascending closure size, then index. Variables that history says
/// are likely required surface in early progression entries, so the binary
/// search localizes them in fewer probes.
///
/// Missing weights (short slice) count as zero; with all-zero weights this
/// is exactly [`closure_size_order`].
pub fn history_order(cnf: &Cnf, weights: &[u64]) -> VarOrder {
    let n = cnf.num_vars();
    let sizes = closure_sizes(cnf);
    VarOrder::by_key(n, |v| {
        let i = v.index();
        let w = weights.get(i).copied().unwrap_or(0);
        (std::cmp::Reverse(w), sizes[i], i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_logic::{Clause, Var};

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn chain_sizes() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        cnf.add_clause(Clause::edge(v(2), v(3)));
        assert_eq!(closure_sizes(&cnf), vec![4, 3, 2, 1]);
    }

    #[test]
    fn cycle_counts_whole_scc() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(0)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        // {0,1} is an SCC depending on {2}.
        assert_eq!(closure_sizes(&cnf), vec![3, 3, 1]);
    }

    #[test]
    fn diamond() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3.
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(0), v(2)));
        cnf.add_clause(Clause::edge(v(1), v(3)));
        cnf.add_clause(Clause::edge(v(2), v(3)));
        assert_eq!(closure_sizes(&cnf), vec![4, 2, 2, 1]);
    }

    #[test]
    fn general_clauses_ignored() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([v(0), v(1)], [v(2)]));
        assert_eq!(closure_sizes(&cnf), vec![1, 1, 1]);
    }

    #[test]
    fn order_is_sinks_first() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        let order = closure_size_order(&cnf);
        let perm: Vec<Var> = order.iter().collect();
        assert_eq!(perm, vec![v(2), v(1), v(0)]);
    }

    #[test]
    fn history_order_with_zero_weights_matches_closure_order() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(1), v(2)));
        let order = history_order(&cnf, &[]);
        let baseline = closure_size_order(&cnf);
        assert_eq!(
            order.iter().collect::<Vec<_>>(),
            baseline.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn history_order_puts_heavy_variables_first() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        let order = history_order(&cnf, &[0, 0, 0, 7]);
        assert_eq!(order.iter().next(), Some(v(3)));
        // The rest keep the closure-size order: sinks 1, 2 before root 0.
        assert_eq!(
            order.iter().collect::<Vec<_>>(),
            vec![v(3), v(1), v(2), v(0)]
        );
    }

    #[test]
    fn wide_graph_sizes() {
        // Star: 0 depends on 1..=100.
        let mut cnf = Cnf::new(101);
        for i in 1..=100u32 {
            cnf.add_clause(Clause::edge(v(0), v(i)));
        }
        let sizes = closure_sizes(&cnf);
        assert_eq!(sizes[0], 101);
        assert!(sizes[1..].iter().all(|&s| s == 1));
    }
}
