//! Materializes a keep-set back into a module.
//!
//! Dropped globals and functions disappear; a function whose `Body`
//! item is dropped (but whose `Function` item survives for its callers)
//! keeps its signature and gets the `Trap` stub — a one-instruction
//! body that verifies under any signature, the stackvm analog of the
//! classfile reducer's `aconst_null; athrow` stub.
//!
//! A kept function is either the original, body and all, or its stub,
//! so a candidate never needs a new function: [`Materializer`] builds
//! every stub once per model and assembles each candidate from shared
//! references to the originals and the stubs.

use crate::item::StackRegistry;
use crate::module::{Function, Module, Op};
use lbr_core::Scope;
use lbr_logic::VarSet;
use std::sync::Arc;

/// Builds the sub-module described by `keep`. Satisfying keep-sets of
/// the model's CNF always materialize to modules that verify.
///
/// This is the memo-free reference for the reduction materializer behind
/// [`Input::model`](lbr_core::Input::model), which shares one stub per
/// function across all its candidates instead of building it anew.
pub fn reduce_module(module: &Module, registry: &StackRegistry, keep: &VarSet) -> Module {
    reduce_with(module, registry, keep, None, |i| {
        Arc::new(stub(&module.functions[i]))
    })
}

/// `f` with its body replaced by the `Trap` stub.
fn stub(f: &Function) -> Function {
    Function {
        name: f.name.clone(),
        params: f.params.clone(),
        ret: f.ret,
        locals: Vec::new(),
        max_stack: 0,
        body: vec![Op::Trap],
    }
}

/// The reduction, as a candidate of `scope`'s reduction, with `stub(i)`
/// supplying function `i` when its body is dropped. Kept globals are
/// copied; kept bodies share the original.
fn reduce_with(
    module: &Module,
    registry: &StackRegistry,
    keep: &VarSet,
    scope: Option<&Arc<Scope>>,
    stub: impl Fn(usize) -> Arc<Function>,
) -> Module {
    let globals = module
        .globals
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep.contains(registry.global_var(module, i)))
        .map(|(_, g)| g.clone())
        .collect();
    let functions = module
        .functions
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep.contains(registry.function_var(i)))
        .map(|(i, f)| {
            if keep.contains(registry.body_var(i)) {
                Arc::clone(f)
            } else {
                stub(i)
            }
        })
        .collect();
    Module::in_scope(functions, globals, scope)
}

/// The keep-set → module map of one reduction: [`reduce_module`] with
/// every function's stub built once, so a candidate costs one reference
/// count per kept function plus its kept globals. Every candidate carries
/// the reduction's scope (see [`Module::scoped`]), so the oracle can
/// memoize per reduction.
pub(crate) struct Materializer<'m> {
    module: &'m Module,
    registry: StackRegistry,
    stubs: Vec<Arc<Function>>,
    /// The reduction scope stamped on every candidate.
    scope: Arc<Scope>,
}

impl<'m> Materializer<'m> {
    pub(crate) fn new(module: &'m Module, registry: StackRegistry) -> Self {
        let stubs = module.functions.iter().map(|f| Arc::new(stub(f))).collect();
        Materializer {
            module,
            registry,
            stubs,
            scope: Arc::default(),
        }
    }

    /// `reduce_module(module, registry, keep)`.
    pub(crate) fn materialize(&self, keep: &VarSet) -> Module {
        reduce_with(self.module, &self.registry, keep, Some(&self.scope), |i| {
            Arc::clone(&self.stubs[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_stack_model;
    use crate::module::{Function, Global, Ty};
    use crate::verify::verify_module;

    fn sample() -> Module {
        let mut m = Module::new();
        m.globals.push(Global::new("g", Ty::Int));
        let mut main = Function::new("main", vec![], None);
        main.body = vec![Op::Call("helper".into()), Op::Return];
        m.functions.push(main.into());
        let mut helper = Function::new("helper", vec![], None);
        helper.body = vec![Op::GlobalGet("g".into()), Op::Drop, Op::Return];
        m.functions.push(helper.into());
        m
    }

    #[test]
    fn full_keep_set_is_identity() {
        let m = sample();
        let model = build_stack_model(&m).expect("verifies");
        let keep = VarSet::full(model.cnf.num_vars());
        assert_eq!(reduce_module(&m, &model.registry, &keep), m);
    }

    #[test]
    fn dropped_body_becomes_trap_stub() {
        let m = sample();
        let model = build_stack_model(&m).expect("verifies");
        let reg = &model.registry;
        let mut keep = VarSet::empty(model.cnf.num_vars());
        keep.insert(reg.function_var(0));
        keep.insert(reg.body_var(0));
        keep.insert(reg.function_var(1)); // helper survives, body stubbed
        assert!(model.cnf.eval(&keep));
        let reduced = reduce_module(&m, reg, &keep);
        assert_eq!(reduced.functions.len(), 2);
        assert!(reduced.globals.is_empty());
        assert_eq!(reduced.function("helper").unwrap().body, vec![Op::Trap]);
        // A satisfying keep-set materializes to a verifying module.
        assert!(verify_module(&reduced).is_empty());
    }

    #[test]
    fn empty_keep_set_is_empty_module() {
        let m = sample();
        let model = build_stack_model(&m).expect("verifies");
        let keep = VarSet::empty(model.cnf.num_vars());
        let reduced = reduce_module(&m, &model.registry, &keep);
        assert!(reduced.functions.is_empty() && reduced.globals.is_empty());
    }
}
