//! The stackvm frontend behind the format-agnostic [`Input`] trait.
//!
//! Same adapter shape as the classfile frontend: the logical model is
//! [`build_stack_model`]'s CNF with [`reduce_module`](crate::reduce_module)
//! as the solution applier (run by a materializer that shares functions
//! across candidates), the coarse model is [`UnitGraph`]'s unit graph, and
//! serialization/validation delegate to the binary format and the
//! verifier. With this impl in place, every pipeline entry point —
//! sessions, the daemon, the fuzzer — runs stackvm modules unchanged.

use crate::graph::UnitGraph;
use crate::io::{module_byte_size, read_module, write_module};
use crate::model::build_stack_model;
use crate::module::Module;
use crate::reducer::Materializer;
use crate::verify::verify_module;
use lbr_core::{CoarseModel, Input, InputModel};
use lbr_logic::VarSet;
use std::sync::Arc;

impl Input for Module {
    const FORMAT: &'static str = "stackvm";

    fn model(&self) -> Result<InputModel<'_, Self>, String> {
        let model = build_stack_model(self).map_err(|e| e.to_string())?;
        let stats = model.stats();
        let registry = model.registry;
        // Containment depth: functions and globals are top-level units,
        // bodies are nested inside their functions.
        let levels = registry
            .iter()
            .map(|(_, item)| match item {
                crate::StackItem::Body(_) => 1,
                _ => 0,
            })
            .collect();
        Ok(InputModel {
            cnf: model.cnf,
            stats,
            levels,
            materialize: {
                let materializer = Materializer::new(self, registry);
                Box::new(move |keep: &VarSet| materializer.materialize(keep))
            },
        })
    }

    fn coarse_model(&self) -> CoarseModel<'_, Self> {
        let ug = UnitGraph::new(self);
        let scope = Arc::default();
        CoarseModel {
            graph: ug.graph.clone(),
            materialize: Box::new(move |keep: &VarSet| ug.subset_module(self, keep, &scope)),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        write_module(self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        read_module(bytes).map_err(|e| e.to_string())
    }

    fn byte_size(&self) -> usize {
        module_byte_size(self)
    }

    fn unit_count(&self) -> usize {
        self.unit_count()
    }

    fn validate(&self) -> Vec<String> {
        verify_module(self)
            .into_iter()
            .map(|e| e.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global, Op, Ty};
    use crate::reducer::reduce_module;

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
    fn serialization_matches_concrete_functions() {
        let m = sample();
        assert_eq!(m.to_bytes(), write_module(&m));
        assert_eq!(Module::from_bytes(&m.to_bytes()), Ok(m.clone()));
        assert_eq!(Input::byte_size(&m), module_byte_size(&m));
        assert_eq!(Input::unit_count(&m), 3);
        assert!(m.validate().is_empty());
        assert_eq!(<Module as Input>::FORMAT, "stackvm");
    }

    #[test]
    fn model_materializes_like_reduce_module() {
        let m = sample();
        let trait_model = m.model().expect("model builds");
        let concrete = build_stack_model(&m).expect("model builds");
        assert_eq!(trait_model.cnf, concrete.cnf);
        assert_eq!(trait_model.stats, concrete.stats());
        let keep = VarSet::full(trait_model.cnf.num_vars());
        assert_eq!(
            (trait_model.materialize)(&keep),
            reduce_module(&m, &concrete.registry, &keep)
        );
    }

    #[test]
    fn coarse_model_materializes_closed_subsets() {
        let m = sample();
        let coarse = m.coarse_model();
        assert_eq!(coarse.graph.len(), 3);
        // Functions come first in the unit graph, in module order.
        let helper = m.functions.iter().position(|f| f.name == "helper");
        let node = lbr_logic::Var::new(helper.unwrap() as u32);
        let closure = coarse.graph.closure_of([node]);
        let sub = (coarse.materialize)(&closure);
        assert!(sub.function("main").is_none());
        assert!(sub.function("helper").is_some());
        assert_eq!(sub.globals, m.globals);
        assert!(sub.validate().is_empty());
    }
}
