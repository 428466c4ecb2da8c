//! The black-box oracle: decompile, recompile, compare error messages.
//!
//! A benchmark in the paper is an input program on which a decompiler
//! produces source that fails to recompile; "the goal of the evaluation is
//! to reduce the input program while preserving the full error message of
//! the compiler". [`DecompilerOracle`] packages that: it records the
//! baseline error messages of the original program and accepts a
//! sub-program iff every baseline message is still produced.
//!
//! The predicate needs only the baseline messages, so it type-checks only
//! the classes whose names can begin one (see
//! [`DecompilerOracle::preserves_failure`]); [`DecompilerOracle::errors`]
//! stays the whole-program run, for callers that need every message.
//!
//! The predicate is monotone on valid sub-inputs because each injected bug
//! fires on the *presence* of a bytecode/source pattern: any valid
//! superset of a failing input retains the patterns and therefore the
//! messages.

use crate::bugs::BugSet;
use crate::compile::error_messages;
use crate::decompile::decompile_program;
use crate::incremental::{Baseline, OracleMemo, ScopeMemo};
use lbr_classfile::Program;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A decompile-and-recompile oracle for one (buggy) decompiler and one
/// original input program.
///
/// The oracle is *pure per probe*: every method takes `&self`, and a
/// probe's answers are functions of the candidate `p` alone:
/// [`DecompilerOracle::errors`] is `error_messages(&decompile_program(p,
/// bugs))` bit for bit, and [`DecompilerOracle::preserves_failure`] is
/// exactly "the baseline is a subset of those messages". The oracle itself
/// holds nothing mutable. What it memoizes lives in the candidate's
/// reduction scope ([`Program::scoped`]): each method body is decompiled
/// once per reduction (and cast context), and a class is type-checked
/// again only when a class it looked up changed.
/// The memo is dropped with the reduction's last candidate; a program no
/// reduction built gets a fresh one. That makes one oracle instance safely
/// shareable across the speculative probe workers of `lbr-core`'s
/// `ProbeScheduler` (the memo locks like the materializer: look up under
/// the lock, build outside it, first insert wins), and the `Clone` impl
/// cheap enough to hand each per-error search its own copy. The static
/// assertion below pins the `Send + Sync` guarantee at compile time.
#[derive(Debug, Clone)]
pub struct DecompilerOracle {
    bugs: BugSet,
    baseline: BTreeSet<String>,
    /// The baseline messages with the classes that can print each.
    producers: Baseline,
}

/// Compile-time proof that the oracle can be shared across probe threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<DecompilerOracle>();
};

impl DecompilerOracle {
    /// Builds the oracle, running the tool once on the original input to
    /// record the baseline error messages. That one run takes the memo-free
    /// reference: nothing in a reduction scope is gained from it.
    pub fn new(original: &Program, bugs: BugSet) -> Self {
        let baseline = error_messages(&decompile_program(original, &bugs));
        DecompilerOracle {
            bugs,
            producers: Baseline::new(&baseline),
            baseline,
        }
    }

    /// The error messages of the original input. Empty means the
    /// decompiler handles this input correctly (not a benchmark).
    pub fn baseline(&self) -> &BTreeSet<String> {
        &self.baseline
    }

    /// Whether the original input actually triggers the decompiler's bugs.
    pub fn is_failing(&self) -> bool {
        !self.baseline.is_empty()
    }

    /// Number of distinct baseline errors (the paper reports a geometric
    /// mean of 9.2 per benchmark).
    pub fn error_count(&self) -> usize {
        self.baseline.len()
    }

    /// Runs the tool on a sub-program, returning its error messages:
    /// `error_messages(&decompile_program(program, bugs))`, through the
    /// memo in `program`'s reduction scope.
    pub fn errors(&self, program: &Program) -> BTreeSet<String> {
        self.memo(program).errors(program)
    }

    /// The black-box predicate `P`: does the sub-program still produce
    /// every baseline error message? Exactly "the baseline is a subset of
    /// `error_messages(&decompile_program(program, bugs))`", but only the
    /// classes that can print a baseline message are checked: a diagnostic
    /// names the class being checked, so only a class whose own name can
    /// begin a baseline message can print it. The answer is `false` at
    /// once when some baseline message has no such class in `program`,
    /// and at the first message none of its classes printed.
    pub fn preserves_failure(&self, program: &Program) -> bool {
        self.memo(program).preserves(program, &self.producers)
    }

    fn memo(&self, program: &Program) -> Arc<OracleMemo> {
        program.scoped::<ScopeMemo>().for_bugs(&self.bugs)
    }
}

/// The format-agnostic oracle interface the reduction pipeline consumes.
/// Delegates to the inherent methods, so trait-driven runs are
/// bit-identical to the historical concrete path.
impl lbr_core::InputOracle<Program> for DecompilerOracle {
    fn baseline(&self) -> &BTreeSet<String> {
        self.baseline()
    }

    fn errors(&self, program: &Program) -> BTreeSet<String> {
        self.errors(program)
    }

    fn preserves_failure(&self, program: &Program) -> bool {
        self.preserves_failure(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugKind;
    use lbr_classfile::{ClassFile, Code, Insn, MethodDescriptor, MethodInfo, MethodRef};

    fn failing_program() -> Program {
        let mut i = ClassFile::new_interface("I");
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let mut a = ClassFile::new_class("A");
        a.interfaces.push("I".into());
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        a.methods.push(MethodInfo::new(
            "go",
            MethodDescriptor::void(),
            Code::new(
                2,
                1,
                vec![
                    Insn::ALoad(0),
                    Insn::CheckCast("I".into()),
                    Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                    Insn::Return,
                ],
            ),
        ));
        [i, a].into_iter().collect()
    }

    #[test]
    fn oracle_detects_failure_and_subsets() {
        let p = failing_program();
        let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
        assert!(oracle.is_failing());
        assert_eq!(oracle.error_count(), 1);
        assert!(oracle.preserves_failure(&p));
        // Removing the `go` method removes the failure.
        let mut smaller = p.clone();
        smaller
            .get_mut("A")
            .unwrap()
            .methods
            .retain(|m| m.name != "go");
        assert!(!oracle.preserves_failure(&smaller));
    }

    #[test]
    fn correct_decompiler_is_not_failing() {
        let p = failing_program();
        let oracle = DecompilerOracle::new(&p, BugSet::none());
        assert!(!oracle.is_failing());
    }

    #[test]
    fn monotone_on_member_removal() {
        // Adding an unrelated class never removes baseline errors.
        let p = failing_program();
        let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
        let mut bigger = p.clone();
        let mut extra = ClassFile::new_class("Extra");
        extra.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        bigger.insert(extra);
        assert!(oracle.preserves_failure(&bigger));
    }
}
