//! The format-agnostic frontend interface: what a reducible input must
//! provide for the IRP machinery (Definition 4.1) to reduce it.
//!
//! The paper's claim is that the constraint-generation recipe — "the
//! verifier *is* the constraint generator" (§3, FJI) — works for any
//! input format whose validity is checkable. This module pins that claim
//! as a trait: a frontend supplies items mapped to logic variables, a CNF
//! dependency model, a coarse dependency graph (the J-Reduce baseline's
//! view), serialization, a validity check, and a byte-size cost. The
//! reduction pipeline, daemon, fuzzer, and eval tables are all
//! generic over [`Input`], so every frontend gets every harness for free.

use crate::graph::DepGraph;
use lbr_logic::{Cnf, VarSet};
use std::collections::BTreeSet;

/// Model-size statistics (the paper's "2.9k reducible items, 8.7k
/// clauses, 97.5% edges").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelStats {
    /// Number of reducible items (variables).
    pub items: usize,
    /// Number of CNF clauses.
    pub clauses: usize,
    /// Fraction of clauses that are graph constraints.
    pub graph_fraction: f64,
}

/// A frontend's fine-grained logical model: the CNF dependency
/// constraints over item variables plus the solution applier.
///
/// `materialize` maps a keep-set (a satisfying assignment of `cnf`) back
/// to a concrete input; Theorem 3.1's contract is that the result is
/// valid whenever the keep-set satisfies the model.
pub struct InputModel<'i, I> {
    /// The dependency constraints in CNF (one variable per item).
    pub cnf: Cnf,
    /// Model-size statistics for reports.
    pub stats: ModelStats,
    /// Containment depth of each item variable (index = variable index):
    /// `0` for top-level units (classes, functions), increasing with
    /// nesting. Hierarchical strategies (HDD) sweep the tree level by
    /// level through this map; flat strategies
    /// ignore it. A frontend without hierarchy reports all zeros.
    pub levels: Vec<u8>,
    /// Keep-set → reduced input.
    pub materialize: Box<dyn Fn(&VarSet) -> I + Sync + 'i>,
}

/// A frontend's coarse dependency model: one node per top-level unit
/// (class, function), as J-Reduce's step 1 builds it. Closures of this
/// graph are the only sub-inputs the baseline can produce.
pub struct CoarseModel<'i, I> {
    /// The unit-mention dependency graph.
    pub graph: DepGraph,
    /// Keep-set (over graph nodes) → reduced input.
    pub materialize: Box<dyn Fn(&VarSet) -> I + Sync + 'i>,
}

/// A reducible input format.
///
/// Implementations must keep two determinism contracts:
///
/// * `model()` and `coarse_model()` are pure functions of the input —
///   same input, same variable numbering, same clause order — so that
///   reduction results are bit-identical across runs and machines.
/// * `to_bytes` / `from_bytes` round-trip exactly:
///   `from_bytes(&input.to_bytes()) == Ok(input)`.
pub trait Input: Clone + PartialEq + std::fmt::Debug + Send + Sync + Sized + 'static {
    /// The format tag used in job schemas, CLI flags, and eval tables
    /// (e.g. `"classfile"`, `"stackvm"`).
    const FORMAT: &'static str;

    /// Builds the fine-grained logical dependency model.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the input itself does not
    /// verify — like the paper, which dropped benchmarks that did not
    /// type check.
    fn model(&self) -> Result<InputModel<'_, Self>, String>;

    /// Builds the coarse unit-granularity dependency graph (the
    /// J-Reduce baseline's model).
    fn coarse_model(&self) -> CoarseModel<'_, Self>;

    /// Serializes the input to its on-disk byte format.
    fn to_bytes(&self) -> Vec<u8>;

    /// Parses the on-disk byte format.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, String>;

    /// The byte-size cost metric reduction minimizes. Monotone in the
    /// input's content; may exclude fixed container framing, so it need
    /// not equal `self.to_bytes().len()` exactly.
    fn byte_size(&self) -> usize;

    /// Number of top-level units (classes, functions) — the coarse size
    /// metric reported next to bytes.
    fn unit_count(&self) -> usize;

    /// Runs the format's verifier; an empty vector means valid.
    fn validate(&self) -> Vec<String>;
}

/// The failure-inducing tool a reduction preserves the errors of — the
/// predicate `P` of the IRP, format-agnostically.
///
/// The provided methods pin the exact semantics every frontend's oracle
/// must share (and the classfile `DecompilerOracle` has always had):
/// failing means a non-empty baseline, and preservation means every
/// baseline error is still present (supersets allowed).
pub trait InputOracle<I>: Send + Sync {
    /// The error set of the original input (computed once at
    /// construction).
    fn baseline(&self) -> &BTreeSet<String>;

    /// Runs the tool on a candidate and collects its error set.
    fn errors(&self, input: &I) -> BTreeSet<String>;

    /// Whether the original input triggers any errors at all.
    fn is_failing(&self) -> bool {
        !self.baseline().is_empty()
    }

    /// Number of distinct baseline errors.
    fn error_count(&self) -> usize {
        self.baseline().len()
    }

    /// The reduction predicate: does the candidate still trigger every
    /// baseline error?
    fn preserves_failure(&self, input: &I) -> bool {
        let errors = self.errors(input);
        self.baseline().iter().all(|e| errors.contains(e))
    }
}

/// References delegate, so generic entry points taking `&O` can hand a
/// `&dyn InputOracle<I>` to the object-safe strategy seam.
impl<I, O: InputOracle<I> + ?Sized> InputOracle<I> for &O {
    fn baseline(&self) -> &BTreeSet<String> {
        (**self).baseline()
    }

    fn errors(&self, input: &I) -> BTreeSet<String> {
        (**self).errors(input)
    }

    fn preserves_failure(&self, input: &I) -> bool {
        (**self).preserves_failure(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Toy(Vec<u8>);

    impl Input for Toy {
        const FORMAT: &'static str = "toy";

        fn model(&self) -> Result<InputModel<'_, Self>, String> {
            let cnf = Cnf::new(self.0.len());
            let stats = ModelStats {
                items: self.0.len(),
                clauses: 0,
                graph_fraction: 1.0,
            };
            Ok(InputModel {
                cnf,
                stats,
                levels: vec![0; self.0.len()],
                materialize: Box::new(move |keep: &VarSet| {
                    Toy(keep.iter().map(|v| self.0[v.index()]).collect())
                }),
            })
        }

        fn coarse_model(&self) -> CoarseModel<'_, Self> {
            CoarseModel {
                graph: DepGraph::new(self.0.len()),
                materialize: Box::new(move |keep: &VarSet| {
                    Toy(keep.iter().map(|v| self.0[v.index()]).collect())
                }),
            }
        }

        fn to_bytes(&self) -> Vec<u8> {
            self.0.clone()
        }

        fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
            Ok(Toy(bytes.to_vec()))
        }

        fn byte_size(&self) -> usize {
            self.0.len()
        }

        fn unit_count(&self) -> usize {
            self.0.len()
        }

        fn validate(&self) -> Vec<String> {
            Vec::new()
        }
    }

    struct ZeroOracle {
        baseline: BTreeSet<String>,
    }

    impl InputOracle<Toy> for ZeroOracle {
        fn baseline(&self) -> &BTreeSet<String> {
            &self.baseline
        }

        fn errors(&self, input: &Toy) -> BTreeSet<String> {
            input
                .0
                .iter()
                .filter(|b| **b == 0)
                .map(|_| "zero".to_owned())
                .collect()
        }
    }

    #[test]
    fn round_trip_contract() {
        let toy = Toy(vec![1, 0, 3]);
        assert_eq!(Toy::from_bytes(&toy.to_bytes()), Ok(toy.clone()));
        assert_eq!(toy.byte_size(), 3);
        assert_eq!(toy.unit_count(), 3);
        assert_eq!(Toy::FORMAT, "toy");
    }

    #[test]
    fn oracle_default_methods() {
        let toy = Toy(vec![1, 0, 3]);
        let oracle = ZeroOracle {
            baseline: [("zero".to_owned())].into_iter().collect(),
        };
        assert!(oracle.is_failing());
        assert_eq!(oracle.error_count(), 1);
        assert!(oracle.preserves_failure(&toy));
        assert!(!oracle.preserves_failure(&Toy(vec![1, 3])));
    }

    #[test]
    fn materialize_applies_keep_set() {
        let toy = Toy(vec![5, 6, 7]);
        let model = toy.model().unwrap();
        let mut keep = VarSet::empty(3);
        keep.insert(lbr_logic::Var::new(0));
        keep.insert(lbr_logic::Var::new(2));
        assert_eq!((model.materialize)(&keep), Toy(vec![5, 7]));
    }
}
