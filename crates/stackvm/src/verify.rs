//! The abstract-interpretation verifier — and, through its hooks, the
//! logical constraint generator.
//!
//! The verifier walks each function body tracking an abstract operand
//! stack (a vector of [`Ty`]), following control flow and checking at
//! branch-merge points that every incoming path agrees on the stack. All
//! rules carry stable `R####` codes (listed in [`RULES`]) in the style of
//! PLC bytecode verifiers, grouped by category: R0001–R0002 stack
//! discipline, R0003–R0004 control flow, R0005 returns, R0006–R0010
//! resolution, R0011–R0012 structure.
//!
//! Every *resolution* a rule checks is reported to [`VerifyHooks`]: a
//! `Call` resolving its target (R0006/R0007), a `GlobalGet`/`GlobalSet`
//! resolving its global (R0009), a `CallIndirect` finding its candidate
//! set (R0010). The logical model builder implements the hooks to turn
//! each resolution into exactly one implication — so the constraint
//! generator *is* the verifier, per the paper's thesis that reduction
//! validity and verification are the same judgment.
//!
//! Names resolve through one index built per call, to their first
//! occurrence in module order, so verification is linear in the module.

use crate::index::NameIndex;
use crate::module::{Function, Module, Op, Sig, Ty};
use std::fmt;

/// One verifier rule: stable code, what it checks, and the logical
/// constraint its resolutions induce (`—` when the rule is a pure check
/// with no reduction constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable `R####` code.
    pub id: &'static str,
    /// What the rule enforces.
    pub summary: &'static str,
    /// The implication the model builder emits when the rule's
    /// resolution succeeds on the original module.
    pub constraint: &'static str,
}

/// Every rule the verifier enforces, in code order. The conformance
/// suite is table-driven off this list: each entry must have a positive
/// and a negative test, and every code the verifier can emit must appear
/// here.
pub const RULES: [Rule; 12] = [
    Rule {
        id: "R0001",
        summary: "operand stack must not underflow",
        constraint: "—",
    },
    Rule {
        id: "R0002",
        summary: "operands must have the type the opcode consumes",
        constraint: "—",
    },
    Rule {
        id: "R0003",
        summary: "branch targets must lie inside the function body",
        constraint: "—",
    },
    Rule {
        id: "R0004",
        summary: "all paths into a merge point must agree on the stack",
        constraint: "—",
    },
    Rule {
        id: "R0005",
        summary: "return must pop exactly the declared return type",
        constraint: "—",
    },
    Rule {
        id: "R0006",
        summary: "call targets must name an existing function",
        constraint: "Body(f) ⇒ Function(g)",
    },
    Rule {
        id: "R0007",
        summary: "call arguments must match the callee's parameter types",
        constraint: "—",
    },
    Rule {
        id: "R0008",
        summary: "local slot indices must be in bounds",
        constraint: "—",
    },
    Rule {
        id: "R0009",
        summary: "global accesses must name an existing global",
        constraint: "Body(f) ⇒ Global(g)",
    },
    Rule {
        id: "R0010",
        summary: "call_indirect needs at least one function of its signature",
        constraint: "Body(f) ⇒ Function(g₁) ∨ … ∨ Function(gₙ)",
    },
    Rule {
        id: "R0011",
        summary: "control must not fall off the end of the body",
        constraint: "—",
    },
    Rule {
        id: "R0012",
        summary: "operand stack must stay within the declared max_stack",
        constraint: "—",
    },
];

/// Looks up a rule by its `R####` code.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One verification failure: rule code, offending function, instruction
/// index (when the failure is at an instruction), and detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The violated rule's `R####` code.
    pub rule: &'static str,
    /// The function being verified.
    pub function: String,
    /// Index of the offending instruction, when applicable.
    pub at: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl VerifyError {
    fn new(rule: &'static str, function: &str, at: Option<usize>, detail: String) -> Self {
        VerifyError {
            rule,
            function: function.to_string(),
            at,
            detail,
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(pc) => write!(
                f,
                "{}: fn {} @{}: {}",
                self.rule, self.function, pc, self.detail
            ),
            None => write!(f, "{}: fn {}: {}", self.rule, self.function, self.detail),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Resolution callbacks: every successful name resolution the verifier
/// performs is reported here, once per reachable instruction, in body
/// order. [`NoHooks`] ignores them; the model builder turns each into a
/// dependency constraint.
///
/// Functions and globals are given by their position in
/// `module.functions` and `module.globals`. The caller is the function
/// being verified; a resolved name is the first function or global of
/// that name.
pub trait VerifyHooks {
    /// `caller`'s body calls `callee` directly (rule R0006).
    fn on_call(&mut self, caller: usize, callee: usize) {
        let _ = (caller, callee);
    }
    /// `function`'s body reads or writes `global` (rule R0009).
    fn on_global(&mut self, function: usize, global: usize) {
        let _ = (function, global);
    }
    /// `caller`'s body dispatches indirectly on `sig`; `candidates` are
    /// the functions with that signature, in module order (rule R0010).
    fn on_call_indirect(&mut self, caller: usize, sig: &Sig, candidates: &[usize]) {
        let _ = (caller, sig, candidates);
    }
}

/// Hooks that discard every resolution (plain verification).
pub struct NoHooks;

impl VerifyHooks for NoHooks {}

/// Verifies every function of a module. Empty result means the module
/// is well-formed.
pub fn verify_module(module: &Module) -> Vec<VerifyError> {
    verify_module_with(module, &mut NoHooks)
}

/// Verifies every function, reporting each successful resolution to
/// `hooks` (in function order, then body order — deterministically).
pub fn verify_module_with(module: &Module, hooks: &mut dyn VerifyHooks) -> Vec<VerifyError> {
    verify_indexed(&NameIndex::new(module), hooks)
}

/// [`verify_module_with`] over a prebuilt index of the module.
pub(crate) fn verify_indexed(
    index: &NameIndex<'_>,
    hooks: &mut dyn VerifyHooks,
) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for (i, f) in index.module().functions.iter().enumerate() {
        verify_function(index, i, f, hooks, &mut errors);
    }
    errors
}

/// The abstract operand stack at one program point. `None` = not yet
/// reached.
type AbstractStack = Vec<Ty>;

/// What one instruction does to the abstract state.
enum Flow {
    /// Continue to `pc + 1`.
    Fall,
    /// Branch unconditionally.
    Jump(usize),
    /// Branch or fall through.
    Branch(usize),
    /// Control leaves the function.
    Stop,
}

/// Verifies one function body by abstract interpretation: a dataflow
/// fixpoint computes the entry stack of every reachable instruction,
/// then a single in-order reporting pass re-checks each reachable
/// instruction, emitting errors and firing hooks deterministically.
fn verify_function(
    index: &NameIndex<'_>,
    position: usize,
    f: &Function,
    hooks: &mut dyn VerifyHooks,
    errors: &mut Vec<VerifyError>,
) {
    if f.body.is_empty() {
        errors.push(VerifyError::new(
            "R0011",
            &f.name,
            None,
            "empty body: control falls off the end".into(),
        ));
        return;
    }
    let n = f.body.len();
    // Fixpoint: entry[pc] is the abstract stack on entry, merged over all
    // incoming edges; `conflict[pc]` records a failed merge (R0004).
    let mut entry: Vec<Option<AbstractStack>> = vec![None; n];
    let mut conflict = vec![false; n];
    entry[0] = Some(Vec::new());
    let mut changed = true;
    while changed {
        changed = false;
        for pc in 0..n {
            let Some(stack) = entry[pc].clone() else {
                continue;
            };
            if conflict[pc] {
                continue;
            }
            let mut stack = stack;
            // Interpretation errors stop propagation here; the reporting
            // pass will surface them.
            let Ok(flow) = interpret(index, f, pc, &mut stack, &mut Silent) else {
                continue;
            };
            let mut merge = |target: usize, incoming: &AbstractStack| {
                if target >= n {
                    return; // R0003, reported later.
                }
                match &entry[target] {
                    None => {
                        entry[target] = Some(incoming.clone());
                        changed = true;
                    }
                    Some(existing) if existing == incoming => {}
                    Some(_) => {
                        if !conflict[target] {
                            conflict[target] = true;
                            changed = true;
                        }
                    }
                }
            };
            match flow {
                Flow::Fall => merge(pc + 1, &stack),
                Flow::Jump(t) => merge(t, &stack),
                Flow::Branch(t) => {
                    merge(t, &stack);
                    merge(pc + 1, &stack);
                }
                Flow::Stop => {}
            }
        }
    }
    // Reporting pass: reachable instructions in body order.
    for pc in 0..n {
        let Some(stack) = &entry[pc] else {
            continue;
        };
        if conflict[pc] {
            errors.push(VerifyError::new(
                "R0004",
                &f.name,
                Some(pc),
                "paths into this merge point disagree on the operand stack".into(),
            ));
            continue;
        }
        let mut stack = stack.clone();
        let mut reporter = Reporter {
            function: &f.name,
            position,
            pc,
            hooks,
            errors,
        };
        match interpret(index, f, pc, &mut stack, &mut reporter) {
            Ok(Flow::Fall) | Ok(Flow::Branch(_)) if pc + 1 == n => {
                errors.push(VerifyError::new(
                    "R0011",
                    &f.name,
                    Some(pc),
                    "control falls off the end of the body".into(),
                ));
            }
            _ => {}
        }
    }
}

/// Where interpretation reports errors and resolutions. The fixpoint
/// uses [`Silent`] (it may visit an instruction many times); the
/// reporting pass uses [`Reporter`] (exactly once per instruction).
trait Sink {
    fn error(&mut self, rule: &'static str, detail: String);
    fn call(&mut self, callee: usize);
    fn global(&mut self, global: usize);
    fn call_indirect(&mut self, sig: &Sig, candidates: &[usize]);
}

struct Silent;

impl Sink for Silent {
    fn error(&mut self, _rule: &'static str, _detail: String) {}
    fn call(&mut self, _callee: usize) {}
    fn global(&mut self, _global: usize) {}
    fn call_indirect(&mut self, _sig: &Sig, _candidates: &[usize]) {}
}

struct Reporter<'a, 'e> {
    function: &'a str,
    /// The function's position in the module.
    position: usize,
    pc: usize,
    hooks: &'a mut dyn VerifyHooks,
    errors: &'e mut Vec<VerifyError>,
}

impl Sink for Reporter<'_, '_> {
    fn error(&mut self, rule: &'static str, detail: String) {
        self.errors
            .push(VerifyError::new(rule, self.function, Some(self.pc), detail));
    }
    fn call(&mut self, callee: usize) {
        self.hooks.on_call(self.position, callee);
    }
    fn global(&mut self, global: usize) {
        self.hooks.on_global(self.position, global);
    }
    fn call_indirect(&mut self, sig: &Sig, candidates: &[usize]) {
        self.hooks.on_call_indirect(self.position, sig, candidates);
    }
}

/// Interprets one instruction against the abstract stack. On success the
/// stack is updated in place and the control flow returned; on failure
/// the error has been reported to `sink` and `Err` stops propagation.
fn interpret(
    index: &NameIndex<'_>,
    f: &Function,
    pc: usize,
    stack: &mut AbstractStack,
    sink: &mut dyn Sink,
) -> Result<Flow, ()> {
    let op = &f.body[pc];
    let max = f.max_stack as usize;
    macro_rules! fail {
        ($rule:expr, $($arg:tt)*) => {{
            sink.error($rule, format!($($arg)*));
            return Err(());
        }};
    }
    let pop =
        |stack: &mut AbstractStack, want: Ty, sink: &mut dyn Sink, what: &str| -> Result<(), ()> {
            match stack.pop() {
                None => {
                    sink.error("R0001", format!("{what}: stack underflow"));
                    Err(())
                }
                Some(got) if got != want => {
                    sink.error("R0002", format!("{what}: expected {want}, found {got}"));
                    Err(())
                }
                Some(_) => Ok(()),
            }
        };
    let push = |stack: &mut AbstractStack, ty: Ty, sink: &mut dyn Sink| -> Result<(), ()> {
        stack.push(ty);
        if stack.len() > max {
            sink.error(
                "R0012",
                format!(
                    "stack depth {} exceeds declared max_stack {max}",
                    stack.len()
                ),
            );
            return Err(());
        }
        Ok(())
    };
    let check_target = |target: u32, sink: &mut dyn Sink| -> Result<usize, ()> {
        let t = target as usize;
        if t >= f.body.len() {
            sink.error(
                "R0003",
                format!("branch target {t} outside body of length {}", f.body.len()),
            );
            return Err(());
        }
        Ok(t)
    };
    match op {
        Op::PushInt(_) => push(stack, Ty::Int, sink)?,
        Op::PushBool(_) => push(stack, Ty::Bool, sink)?,
        Op::Add | Op::Sub | Op::Mul => {
            pop(stack, Ty::Int, sink, "arithmetic rhs")?;
            pop(stack, Ty::Int, sink, "arithmetic lhs")?;
            push(stack, Ty::Int, sink)?;
        }
        Op::Eq | Op::Lt => {
            pop(stack, Ty::Int, sink, "comparison rhs")?;
            pop(stack, Ty::Int, sink, "comparison lhs")?;
            push(stack, Ty::Bool, sink)?;
        }
        Op::Not => {
            pop(stack, Ty::Bool, sink, "not")?;
            push(stack, Ty::Bool, sink)?;
        }
        Op::Dup => match stack.last().copied() {
            None => fail!("R0001", "dup: stack underflow"),
            Some(t) => push(stack, t, sink)?,
        },
        Op::Drop => {
            if stack.pop().is_none() {
                fail!("R0001", "drop: stack underflow");
            }
        }
        Op::LocalGet(i) => match f.local_ty(*i) {
            None => fail!(
                "R0008",
                "local {i} out of bounds (function has {} slots)",
                f.local_count()
            ),
            Some(t) => push(stack, t, sink)?,
        },
        Op::LocalSet(i) => match f.local_ty(*i) {
            None => fail!(
                "R0008",
                "local {i} out of bounds (function has {} slots)",
                f.local_count()
            ),
            Some(t) => pop(stack, t, sink, "local.set")?,
        },
        Op::GlobalGet(name) => match index.global(name) {
            None => fail!("R0009", "unknown global `{name}`"),
            Some(g) => {
                sink.global(g);
                push(stack, index.module().globals[g].ty, sink)?;
            }
        },
        Op::GlobalSet(name) => match index.global(name) {
            None => fail!("R0009", "unknown global `{name}`"),
            Some(g) => {
                sink.global(g);
                pop(stack, index.module().globals[g].ty, sink, "global.set")?;
            }
        },
        Op::Call(name) => match index.function(name) {
            None => fail!("R0006", "unknown function `{name}`"),
            Some(j) => {
                let callee = &index.module().functions[j];
                sink.call(j);
                // Args are popped last-parameter-first.
                for (i, want) in callee.params.iter().enumerate().rev() {
                    match stack.pop() {
                        None => fail!("R0007", "call `{name}`: missing argument {i}"),
                        Some(got) if got != *want => fail!(
                            "R0007",
                            "call `{name}`: argument {i} expected {want}, found {got}"
                        ),
                        Some(_) => {}
                    }
                }
                if let Some(ret) = callee.ret {
                    push(stack, ret, sink)?;
                }
            }
        },
        Op::CallIndirect(sig) => {
            let candidates = index.candidates(sig);
            if candidates.is_empty() {
                fail!("R0010", "no function with signature {sig}");
            }
            sink.call_indirect(sig, candidates);
            pop(stack, Ty::Int, sink, "call_indirect index")?;
            for (i, want) in sig.params.iter().enumerate().rev() {
                match stack.pop() {
                    None => fail!("R0007", "call_indirect: missing argument {i}"),
                    Some(got) if got != *want => fail!(
                        "R0007",
                        "call_indirect: argument {i} expected {want}, found {got}"
                    ),
                    Some(_) => {}
                }
            }
            if let Some(ret) = sig.ret {
                push(stack, ret, sink)?;
            }
        }
        Op::Jump(t) => return Ok(Flow::Jump(check_target(*t, sink)?)),
        Op::JumpIf(t) => {
            pop(stack, Ty::Bool, sink, "jump_if condition")?;
            return Ok(Flow::Branch(check_target(*t, sink)?));
        }
        Op::Return => {
            if let Some(want) = f.ret {
                match stack.pop() {
                    None => fail!("R0005", "return: expected {want}, stack is empty"),
                    Some(got) if got != want => {
                        fail!("R0005", "return: expected {want}, found {got}")
                    }
                    Some(_) => {}
                }
            }
            return Ok(Flow::Stop);
        }
        Op::Trap => return Ok(Flow::Stop),
    }
    Ok(Flow::Fall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global, Module, Op, Ty};

    fn module_of(f: Function) -> Module {
        [f].into_iter().collect()
    }

    #[test]
    fn trap_stub_always_verifies() {
        let f = Function::new("stub", vec![Ty::Int], Some(Ty::Bool));
        assert!(verify_module(&module_of(f)).is_empty());
    }

    #[test]
    fn straight_line_arithmetic_verifies() {
        let mut f = Function::new("f", vec![], Some(Ty::Int));
        f.body = vec![Op::PushInt(1), Op::PushInt(2), Op::Add, Op::Return];
        assert!(verify_module(&module_of(f)).is_empty());
    }

    #[test]
    fn loop_with_consistent_merge_verifies() {
        // 0: push 10; 1: local.set 0; 2: local.get 0; 3: push 0; 4: eq;
        // 5: jump_if 8; 6: push true; 7: jump_if 2; 8: return
        let mut f = Function::new("loop", vec![], None);
        f.locals = vec![Ty::Int];
        f.body = vec![
            Op::PushInt(10),
            Op::LocalSet(0),
            Op::LocalGet(0),
            Op::PushInt(0),
            Op::Eq,
            Op::JumpIf(8),
            Op::PushBool(true),
            Op::JumpIf(2),
            Op::Return,
        ];
        assert!(verify_module(&module_of(f)).is_empty());
    }

    #[test]
    fn resolutions_fire_hooks_in_order() {
        #[derive(Default)]
        struct Log(Vec<String>);
        impl VerifyHooks for Log {
            fn on_call(&mut self, caller: usize, callee: usize) {
                self.0.push(format!("call {caller}->{callee}"));
            }
            fn on_global(&mut self, function: usize, global: usize) {
                self.0.push(format!("global {function}->{global}"));
            }
            fn on_call_indirect(&mut self, caller: usize, _sig: &Sig, candidates: &[usize]) {
                self.0.push(format!("indirect {caller}->{candidates:?}"));
            }
        }
        let mut m = Module::new();
        m.globals.push(Global::new("g", Ty::Int));
        let mut main = Function::new("main", vec![], None);
        main.body = vec![
            Op::GlobalGet("g".into()),
            Op::Drop,
            Op::Call("helper".into()),
            Op::PushInt(0),
            Op::CallIndirect(Sig::new(vec![], None)),
            Op::Return,
        ];
        m.functions.push(main.into());
        let mut helper = Function::new("helper", vec![], None);
        helper.body = vec![Op::Return];
        m.functions.push(helper.into());
        let mut log = Log::default();
        assert!(verify_module_with(&m, &mut log).is_empty());
        assert_eq!(
            log.0,
            vec!["global 0->0", "call 0->1", "indirect 0->[0, 1]"]
        );
    }

    #[test]
    fn every_emitted_code_is_in_the_rules_table() {
        // Force one error of each kind and confirm the code is listed.
        let mut f = Function::new("bad", vec![], None);
        f.body = vec![Op::Drop];
        let errs = verify_module(&module_of(f));
        for e in &errs {
            assert!(rule(e.rule).is_some(), "unlisted rule {}", e.rule);
        }
    }
}
