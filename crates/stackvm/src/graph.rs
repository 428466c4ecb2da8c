//! The coarse unit-dependency graph: the over-approximation the
//! graph-based baselines (J-Reduce-style binary reduction) run on.
//!
//! One node per unit (functions first, then globals). A function points
//! at every function it calls, every global it touches, and — because a
//! plain graph cannot express "at least one of" — at *every* candidate
//! of each `call_indirect`, the conservative closure of the R0010
//! Or-constraint. That over-approximation is exactly the imprecision
//! the logical model removes.

use crate::module::{Module, Op};
use lbr_core::DepGraph;
use lbr_logic::{Var, VarSet};

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
        let function_index = |name: &str| module.functions.iter().position(|f| f.name == name);
        let global_index = |name: &str| module.globals.iter().position(|g| g.name == name);
        for (i, f) in module.functions.iter().enumerate() {
            let from = Var::new(i as u32);
            for op in &f.body {
                match op {
                    Op::Call(name) => {
                        if let Some(j) = function_index(name) {
                            graph.add_edge(from, Var::new(j as u32));
                        }
                    }
                    Op::GlobalGet(name) | Op::GlobalSet(name) => {
                        if let Some(j) = global_index(name) {
                            graph.add_edge(from, Var::new((nf + j) as u32));
                        }
                    }
                    Op::CallIndirect(sig) => {
                        for (j, g) in module.functions.iter().enumerate() {
                            if g.sig() == *sig {
                                graph.add_edge(from, Var::new(j as u32));
                            }
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

    /// The node of the named function.
    pub fn function_node(&self, module: &Module, name: &str) -> Option<Var> {
        module
            .functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| Var::new(i as u32))
    }

    /// Materializes the sub-module keeping exactly the units in `keep`
    /// (whole functions with their bodies — the coarse path has no
    /// body-stubbing).
    pub fn subset_module(&self, module: &Module, keep: &VarSet) -> Module {
        let mut out = Module::new();
        for (i, f) in module.functions.iter().enumerate() {
            if keep.contains(Var::new(i as u32)) {
                out.functions.push(f.clone());
            }
        }
        for (j, g) in module.globals.iter().enumerate() {
            if keep.contains(Var::new((self.functions + j) as u32)) {
                out.globals.push(g.clone());
            }
        }
        out
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
        let sub = ug.subset_module(&m, &closure);
        assert!(verify_module(&sub).is_empty());
        // The closure of {helper} needs only the global.
        let closure = ug.graph.closure_of([Var::new(1)]);
        assert_eq!(closure.len(), 2);
        let sub = ug.subset_module(&m, &closure);
        assert!(verify_module(&sub).is_empty());
        assert!(sub.function("main").is_none());
    }
}
