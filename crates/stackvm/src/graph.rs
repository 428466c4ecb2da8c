//! The coarse unit-dependency graph: the over-approximation the
//! graph-based baselines (J-Reduce-style binary reduction) run on.
//!
//! One node per unit (functions first, then globals). A function points
//! at every function it calls, every global it touches, and — because a
//! plain graph cannot express "at least one of" — at *every* candidate
//! of each `call_indirect`, the conservative closure of the R0010
//! Or-constraint. That over-approximation is exactly the imprecision
//! the logical model removes.

use crate::index::NameIndex;
use crate::module::{Module, Op};
use lbr_core::{DepGraph, Scope};
use lbr_logic::{Var, VarSet};
use std::sync::Arc;

/// A module's coarse dependency graph over whole units.
#[derive(Debug, Clone)]
pub struct UnitGraph {
    /// The unit graph (closure semantics: keeping a node keeps its
    /// successors).
    pub graph: DepGraph,
    functions: usize,
}

impl UnitGraph {
    /// Builds the graph from body mentions.
    pub fn new(module: &Module) -> Self {
        let nf = module.functions.len();
        let n = nf + module.globals.len();
        let mut graph = DepGraph::new(n);
        let index = NameIndex::new(module);
        for (i, f) in module.functions.iter().enumerate() {
            let from = Var::new(i as u32);
            for op in &f.body {
                match op {
                    Op::Call(name) => {
                        if let Some(j) = index.function(name) {
                            graph.add_edge(from, Var::new(j as u32));
                        }
                    }
                    Op::GlobalGet(name) | Op::GlobalSet(name) => {
                        if let Some(j) = index.global(name) {
                            graph.add_edge(from, Var::new((nf + j) as u32));
                        }
                    }
                    Op::CallIndirect(sig) => {
                        for &j in index.candidates(sig) {
                            graph.add_edge(from, Var::new(j as u32));
                        }
                    }
                    _ => {}
                }
            }
        }
        UnitGraph {
            graph,
            functions: nf,
        }
    }

    /// Materializes the sub-module keeping exactly the units in `keep`
    /// (whole functions with their bodies — the coarse path has no
    /// body-stubbing), as a candidate of `scope`'s reduction sharing
    /// `module`'s function handles.
    pub(crate) fn subset_module(
        &self,
        module: &Module,
        keep: &VarSet,
        scope: &Arc<Scope>,
    ) -> Module {
        let functions = (module.functions.iter().enumerate())
            .filter(|&(i, _)| keep.contains(Var::new(i as u32)))
            .map(|(_, f)| Arc::clone(f))
            .collect();
        let globals = (module.globals.iter().enumerate())
            .filter(|&(j, _)| keep.contains(Var::new((self.functions + j) as u32)))
            .map(|(_, g)| g.clone())
            .collect();
        Module::in_scope(functions, globals, Some(scope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global, Ty};
    use crate::verify::verify_module;

    #[test]
    fn closed_subsets_verify() {
        let mut m = Module::new();
        m.globals.push(Global::new("g", Ty::Int));
        let mut main = Function::new("main", vec![], None);
        main.body = vec![Op::Call("helper".into()), Op::Return];
        m.functions.push(main.into());
        let mut helper = Function::new("helper", vec![], None);
        helper.body = vec![Op::GlobalGet("g".into()), Op::Drop, Op::Return];
        m.functions.push(helper.into());
        let ug = UnitGraph::new(&m);
        assert_eq!(ug.graph.len(), 3);
        // The closure of {main} pulls in helper and the global.
        let closure = ug.graph.closure_of([Var::new(0)]);
        assert_eq!(closure.len(), 3);
        let sub = ug.subset_module(&m, &closure, &Arc::default());
        assert!(verify_module(&sub).is_empty());
        // The closure of {helper} needs only the global.
        let closure = ug.graph.closure_of([Var::new(1)]);
        assert_eq!(closure.len(), 2);
        let sub = ug.subset_module(&m, &closure, &Arc::default());
        assert!(verify_module(&sub).is_empty());
        assert!(sub.function("main").is_none());
    }
}
