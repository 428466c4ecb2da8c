//! The stackvm black-box oracle: lower the module, compare error
//! messages — the second-format analog of the decompile-and-recompile
//! oracle. Records the original module's baseline errors and accepts a
//! sub-module iff every baseline message is still produced. Pure per
//! probe and `Send + Sync`, so one instance is shareable across probe
//! workers.

use crate::bugs::StackBugSet;
use crate::module::Module;
use std::collections::BTreeSet;

/// A lowering oracle for one (buggy) pass and one original module.
#[derive(Debug, Clone)]
pub struct StackOracle {
    bugs: StackBugSet,
    baseline: BTreeSet<String>,
}

/// Compile-time proof that the oracle can be shared across probe threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<StackOracle>();
};

impl StackOracle {
    /// Builds the oracle, running the tool once on the original module
    /// to record the baseline error messages.
    pub fn new(original: &Module, bugs: StackBugSet) -> Self {
        let baseline = bugs.error_messages(original);
        StackOracle { bugs, baseline }
    }

    /// The error messages of the original module. Empty means the
    /// lowering pass handles this module correctly (not a benchmark).
    pub fn baseline(&self) -> &BTreeSet<String> {
        &self.baseline
    }

    /// Whether the original module actually triggers the pass's bugs.
    pub fn is_failing(&self) -> bool {
        !self.baseline.is_empty()
    }

    /// Runs the tool on a sub-module, returning its error messages.
    pub fn errors(&self, module: &Module) -> BTreeSet<String> {
        self.bugs.error_messages(module)
    }

    /// The black-box predicate `P`: does the sub-module still produce
    /// every baseline error message?
    pub fn preserves_failure(&self, module: &Module) -> bool {
        let errors = self.errors(module);
        self.baseline.iter().all(|e| errors.contains(e))
    }
}

/// The format-agnostic oracle interface the reduction pipeline consumes.
impl lbr_core::InputOracle<Module> for StackOracle {
    fn baseline(&self) -> &BTreeSet<String> {
        self.baseline()
    }

    fn errors(&self, module: &Module) -> BTreeSet<String> {
        self.errors(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::StackBugKind;
    use crate::module::{Function, Op, Sig};
    use std::sync::Arc;

    fn failing_module() -> Module {
        let mut main = Function::new("main", vec![], None);
        main.body = vec![
            Op::PushInt(0),
            Op::CallIndirect(Sig::new(vec![], None)),
            Op::Return,
        ];
        let mut other = Function::new("other", vec![], None);
        other.body = vec![Op::Return];
        [main, other].into_iter().collect()
    }

    #[test]
    fn oracle_detects_failure_and_subsets() {
        let m = failing_module();
        let oracle = StackOracle::new(
            &m,
            StackBugSet::of(&[StackBugKind::IndirectDispatchMiscompile]),
        );
        assert!(oracle.is_failing());
        assert!(oracle.preserves_failure(&m));
        // Stubbing main's body removes the failure.
        let mut smaller = m.clone();
        Arc::make_mut(&mut smaller.functions[0]).body = vec![Op::Trap];
        assert!(!oracle.preserves_failure(&smaller));
    }

    #[test]
    fn correct_pass_is_not_failing() {
        let m = failing_module();
        let oracle = StackOracle::new(&m, StackBugSet::none());
        assert!(!oracle.is_failing());
    }
}
