//! The injected stackvm-tool bug catalog.
//!
//! The classfile frontend's benchmark tool is a buggy decompiler; the
//! stackvm frontend's is a buggy *lowering pass* (a simulated
//! bytecode-to-native compiler). Each bug fires on the presence of a
//! bytecode pattern and yields a deterministic error message naming the
//! instance. All patterns are presence-monotone — any superset of a
//! failing module retains them — and two of them only fire on
//! *combinations* of items (a writer body plus a reader body, a caller
//! body plus a callee body), the multi-item structure that defeats
//! graph-based reduction.

use crate::module::{Module, Op};
use std::collections::BTreeSet;
use std::fmt;

/// One lowering-pass bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StackBugKind {
    /// Indirect dispatch is lowered through a corrupt table: any
    /// function whose body contains `call_indirect` fails.
    IndirectDispatchMiscompile,
    /// Negative integer constants lose their sign during lowering: any
    /// function pushing a negative constant fails.
    NegativeConstantLowering,
    /// Backward branches trip a broken loop unroller: any function with
    /// a branch to an earlier instruction fails.
    LoopUnrollOverflow,
    /// The register allocator aliases globals that are written in one
    /// function and read in another — only the *pair* of bodies
    /// triggers it.
    GlobalAliasConfusion,
    /// The inliner miscompiles calls to multiplying callees: function
    /// `f` calling `g` fails only while `g`'s body still multiplies.
    CrossCallInliner,
}

impl StackBugKind {
    /// Every bug kind.
    pub const ALL: [StackBugKind; 5] = [
        StackBugKind::IndirectDispatchMiscompile,
        StackBugKind::NegativeConstantLowering,
        StackBugKind::LoopUnrollOverflow,
        StackBugKind::GlobalAliasConfusion,
        StackBugKind::CrossCallInliner,
    ];
}

impl fmt::Display for StackBugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The set of bugs a particular simulated lowering pass suffers from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackBugSet {
    enabled: Vec<StackBugKind>,
}

impl StackBugSet {
    /// No bugs — a correct lowering pass.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every bug.
    pub fn all() -> Self {
        StackBugSet {
            enabled: StackBugKind::ALL.to_vec(),
        }
    }

    /// The first simulated lowering pass. The three presets overlap,
    /// mirroring the classfile frontend's `decompiler_a/b/c` so the job
    /// schema's `a`/`b`/`c`/`all` selector means the same thing in both
    /// formats.
    pub fn lowering_a() -> Self {
        Self::of(&[
            StackBugKind::IndirectDispatchMiscompile,
            StackBugKind::NegativeConstantLowering,
            StackBugKind::GlobalAliasConfusion,
        ])
    }

    /// The second simulated lowering pass.
    pub fn lowering_b() -> Self {
        Self::of(&[
            StackBugKind::LoopUnrollOverflow,
            StackBugKind::CrossCallInliner,
        ])
    }

    /// The third simulated lowering pass.
    pub fn lowering_c() -> Self {
        Self::of(&[
            StackBugKind::IndirectDispatchMiscompile,
            StackBugKind::CrossCallInliner,
            StackBugKind::GlobalAliasConfusion,
        ])
    }

    /// Builds a set from kinds.
    pub fn of(kinds: &[StackBugKind]) -> Self {
        let mut enabled = kinds.to_vec();
        enabled.sort();
        enabled.dedup();
        StackBugSet { enabled }
    }

    /// Whether a kind is enabled.
    pub fn has(&self, kind: StackBugKind) -> bool {
        self.enabled.contains(&kind)
    }

    /// The enabled kinds, sorted.
    pub fn kinds(&self) -> &[StackBugKind] {
        &self.enabled
    }

    /// Runs the simulated lowering pass: the set of error messages the
    /// enabled bugs produce on this module. Deterministic, pure, and
    /// presence-monotone.
    pub fn error_messages(&self, module: &Module) -> BTreeSet<String> {
        let mut errors = BTreeSet::new();
        for f in &module.functions {
            if self.has(StackBugKind::IndirectDispatchMiscompile)
                && f.body.iter().any(|op| matches!(op, Op::CallIndirect(_)))
            {
                errors.insert(format!(
                    "error: corrupt dispatch table lowering `{}`",
                    f.name
                ));
            }
            if self.has(StackBugKind::NegativeConstantLowering)
                && f.body
                    .iter()
                    .any(|op| matches!(op, Op::PushInt(v) if *v < 0))
            {
                errors.insert(format!(
                    "error: sign lost lowering constant in `{}`",
                    f.name
                ));
            }
            if self.has(StackBugKind::LoopUnrollOverflow)
                && f.body
                    .iter()
                    .enumerate()
                    .any(|(pc, op)| matches!(op, Op::Jump(t) | Op::JumpIf(t) if *t as usize <= pc))
            {
                errors.insert(format!("error: loop unroll overflow in `{}`", f.name));
            }
        }
        if self.has(StackBugKind::GlobalAliasConfusion) {
            for g in &module.globals {
                let writes = module.functions.iter().any(|f| {
                    f.body
                        .iter()
                        .any(|op| matches!(op, Op::GlobalSet(n) if n == &g.name))
                });
                let reads = module.functions.iter().any(|f| {
                    f.body
                        .iter()
                        .any(|op| matches!(op, Op::GlobalGet(n) if n == &g.name))
                });
                if writes && reads {
                    errors.insert(format!("error: register aliasing on global `{}`", g.name));
                }
            }
        }
        if self.has(StackBugKind::CrossCallInliner) {
            for f in &module.functions {
                for op in &f.body {
                    let Op::Call(callee) = op else { continue };
                    let Some(g) = module.function(callee) else {
                        continue;
                    };
                    if g.body.iter().any(|op| matches!(op, Op::Mul)) {
                        errors.insert(format!(
                            "error: inliner overflow in `{}` calling `{}`",
                            f.name, g.name
                        ));
                    }
                }
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global, Sig, Ty};
    use std::sync::Arc;

    #[test]
    fn pair_bugs_need_both_items() {
        let mut m = Module::new();
        m.globals.push(Global::new("g", Ty::Int));
        let mut writer = Function::new("writer", vec![], None);
        writer.body = vec![Op::PushInt(1), Op::GlobalSet("g".into()), Op::Return];
        m.functions.push(writer.into());
        let mut reader = Function::new("reader", vec![], None);
        reader.body = vec![Op::GlobalGet("g".into()), Op::Drop, Op::Return];
        m.functions.push(reader.into());
        let bugs = StackBugSet::of(&[StackBugKind::GlobalAliasConfusion]);
        assert_eq!(bugs.error_messages(&m).len(), 1);
        // Stubbing the reader's body removes the error.
        let mut stubbed = m.clone();
        Arc::make_mut(&mut stubbed.functions[1]).body = vec![Op::Trap];
        assert!(bugs.error_messages(&stubbed).is_empty());
    }

    #[test]
    fn lowering_presets_overlap() {
        let a = StackBugSet::lowering_a();
        let b = StackBugSet::lowering_b();
        let c = StackBugSet::lowering_c();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(a.has(StackBugKind::IndirectDispatchMiscompile));
        assert!(c.has(StackBugKind::IndirectDispatchMiscompile));
        assert!(!b.has(StackBugKind::IndirectDispatchMiscompile));
    }

    #[test]
    fn presence_patterns_are_monotone() {
        let mut f = Function::new("f", vec![], None);
        f.body = vec![
            Op::PushInt(-1),
            Op::Drop,
            Op::PushInt(0),
            Op::CallIndirect(Sig::new(vec![], None)),
            Op::Return,
        ];
        let m: Module = [f].into_iter().collect();
        let bugs = StackBugSet::all();
        let base = bugs.error_messages(&m);
        assert!(!base.is_empty());
        let mut bigger = m.clone();
        let mut extra = Function::new("extra", vec![], None);
        extra.body = vec![Op::Return];
        bigger.functions.push(extra.into());
        assert!(bugs.error_messages(&bigger).is_superset(&base));
    }
}
