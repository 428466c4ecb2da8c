//! The logical model of a stackvm module, generated *by the verifier*.
//!
//! [`build_stack_model`] runs [`verify_module_with`] once over the
//! original module with a constraint-collecting hook implementation:
//! every resolution the verifier performs becomes one implication, so
//! the set of constraints is — by construction — exactly what the
//! verifier will re-check on any reduced candidate. Structural facts
//! (a body belongs to its function) are added directly; `call_indirect`
//! resolutions become Or-constraints over the candidate set, the
//! beyond-graph clause shape that motivates the logical reducer.

use crate::item::StackRegistry;
use crate::module::{Module, Sig};
use crate::verify::{verify_module_with, VerifyError, VerifyHooks};
use lbr_core::ModelStats;
use lbr_logic::{Cnf, Formula, Var};
use std::collections::BTreeSet;
use std::fmt;

/// The module failed verification, so no model exists.
#[derive(Debug, Clone)]
pub struct StackModelError {
    /// The verifier's findings.
    pub errors: Vec<VerifyError>,
}

impl fmt::Display for StackModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module does not verify: ")?;
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for StackModelError {}

/// A module's items and dependency constraints.
#[derive(Debug, Clone)]
pub struct StackModel {
    /// The item ↔ variable numbering.
    pub registry: StackRegistry,
    /// The dependency constraints in CNF.
    pub cnf: Cnf,
}

impl StackModel {
    /// Summary statistics for reports.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            items: self.registry.len(),
            clauses: self.cnf.len(),
            graph_fraction: self.cnf.graph_fraction(),
        }
    }
}

/// The verifier hook that records resolutions as dependency edges.
/// Edges are deduplicated and sorted, so clause order is deterministic
/// regardless of how many times a body mentions the same name.
struct Collector<'m> {
    module: &'m Module,
    registry: &'m StackRegistry,
    /// `a ⇒ b` edges.
    implications: BTreeSet<(Var, Var)>,
    /// `a ⇒ b₁ ∨ … ∨ bₙ` edges (the R0010 candidate sets).
    any: BTreeSet<(Var, Vec<Var>)>,
}

impl Collector<'_> {
    fn function_index(&self, name: &str) -> Option<usize> {
        self.module.functions.iter().position(|f| f.name == name)
    }

    fn global_index(&self, name: &str) -> Option<usize> {
        self.module.globals.iter().position(|g| g.name == name)
    }
}

impl VerifyHooks for Collector<'_> {
    fn on_call(&mut self, caller: &str, callee: &str) {
        let (Some(c), Some(t)) = (self.function_index(caller), self.function_index(callee)) else {
            return;
        };
        self.implications
            .insert((self.registry.body_var(c), self.registry.function_var(t)));
    }

    fn on_global(&mut self, function: &str, global: &str) {
        let (Some(f), Some(g)) = (self.function_index(function), self.global_index(global)) else {
            return;
        };
        self.implications.insert((
            self.registry.body_var(f),
            self.registry.global_var(self.module, g),
        ));
    }

    fn on_call_indirect(&mut self, caller: &str, _sig: &Sig, candidates: &[String]) {
        let Some(c) = self.function_index(caller) else {
            return;
        };
        let vars: Vec<Var> = candidates
            .iter()
            .filter_map(|name| self.function_index(name))
            .map(|i| self.registry.function_var(i))
            .collect();
        self.any.insert((self.registry.body_var(c), vars));
    }
}

/// Builds the logical model by verifying the module with a
/// constraint-collecting hook.
///
/// # Errors
///
/// [`StackModelError`] when the module itself fails verification —
/// reduction preserves validity, so it must start from a valid input.
pub fn build_stack_model(module: &Module) -> Result<StackModel, StackModelError> {
    let registry = StackRegistry::from_module(module);
    let mut collector = Collector {
        module,
        registry: &registry,
        implications: BTreeSet::new(),
        any: BTreeSet::new(),
    };
    let errors = verify_module_with(module, &mut collector);
    if !errors.is_empty() {
        return Err(StackModelError { errors });
    }
    let mut cnf = Cnf::new(registry.len());
    // Structural: a body belongs to its function.
    for i in 0..module.functions.len() {
        Formula::var(registry.body_var(i))
            .implies(Formula::var(registry.function_var(i)))
            .to_cnf_into(&mut cnf);
    }
    for (from, to) in &collector.implications {
        Formula::var(*from)
            .implies(Formula::var(*to))
            .to_cnf_into(&mut cnf);
    }
    for (from, candidates) in &collector.any {
        Formula::var(*from)
            .implies(Formula::or(candidates.iter().map(|v| Formula::var(*v))))
            .to_cnf_into(&mut cnf);
    }
    Ok(StackModel { registry, cnf })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global, Op, Sig, Ty};
    use lbr_logic::VarSet;

    fn diamond() -> Module {
        let mut m = Module::new();
        m.globals.push(Global::new("g", Ty::Int));
        let mut main = Function::new("main", vec![], None);
        main.body = vec![
            Op::Call("left".into()),
            Op::Call("right".into()),
            Op::Return,
        ];
        m.functions.push(main.into());
        let mut left = Function::new("left", vec![], None);
        left.body = vec![Op::GlobalGet("g".into()), Op::Drop, Op::Return];
        m.functions.push(left.into());
        let mut right = Function::new("right", vec![], None);
        right.body = vec![
            Op::PushInt(0),
            Op::CallIndirect(Sig::new(vec![], None)),
            Op::Return,
        ];
        m.functions.push(right.into());
        m
    }

    #[test]
    fn collects_call_global_and_indirect_constraints() {
        let m = diamond();
        let model = build_stack_model(&m).expect("verifies");
        // 3 function/body pairs + 1 global = 7 vars.
        assert_eq!(model.cnf.num_vars(), 7);
        let reg = &model.registry;
        // Keeping main's body forces left and right to exist.
        let mut keep = VarSet::empty(7);
        keep.insert(reg.function_var(0));
        keep.insert(reg.body_var(0));
        assert!(!model.cnf.eval(&keep));
        keep.insert(reg.function_var(1));
        keep.insert(reg.function_var(2));
        assert!(model.cnf.eval(&keep));
        // Keeping left's body forces the global.
        keep.insert(reg.body_var(1));
        assert!(!model.cnf.eval(&keep));
        keep.insert(reg.global_var(&m, 0));
        assert!(model.cnf.eval(&keep));
        // Keeping right's body needs at least one ()->() function: all
        // three qualify, and function 0/1/2 are already kept.
        keep.insert(reg.body_var(2));
        assert!(model.cnf.eval(&keep));
    }

    #[test]
    fn invalid_module_has_no_model() {
        let mut f = Function::new("bad", vec![], None);
        f.body = vec![Op::Call("missing".into()), Op::Return];
        let m: Module = [f].into_iter().collect();
        assert!(build_stack_model(&m).is_err());
    }

    #[test]
    fn or_constraint_is_beyond_graph_shape() {
        let mut m = Module::new();
        let mut main = Function::new("main", vec![], None);
        main.body = vec![
            Op::PushInt(0),
            Op::CallIndirect(Sig::new(vec![], None)),
            Op::Return,
        ];
        m.functions.push(main.into());
        let mut a = Function::new("a", vec![], None);
        a.body = vec![Op::Return];
        m.functions.push(a.into());
        let mut b = Function::new("b", vec![], None);
        b.body = vec![Op::Return];
        m.functions.push(b.into());
        let model = build_stack_model(&m).expect("verifies");
        // With a 3-way Or clause present, the CNF is not pure-graph.
        assert!(model.stats().graph_fraction < 1.0);
    }
}
