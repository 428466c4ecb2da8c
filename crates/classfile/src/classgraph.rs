//! The class-granularity dependency graph — J-Reduce's model.
//!
//! J-Reduce (step 1 of its recipe) maps the input to a dependency graph
//! with one node per class: "if a class A mentions a class B, then we have
//! a dependency from A to B". Closures of this graph are the only
//! sub-inputs the baseline can produce, which is why it cannot remove
//! items *within* classes — the motivation for the paper's finer-grained
//! model.

use crate::{class_byte_size, Program};
use lbr_core::{DepGraph, Scope};
use lbr_logic::{Var, VarSet};
use std::collections::HashMap;
use std::sync::Arc;

/// A class-level dependency graph with its node naming.
#[derive(Debug, Clone)]
pub struct ClassGraph {
    /// The dependency graph (node `i` is `names[i]`).
    pub graph: DepGraph,
    /// Class names by node index.
    pub names: Vec<String>,
    index: HashMap<String, Var>,
}

impl ClassGraph {
    /// Builds the class-mention graph of a program.
    pub fn new(program: &Program) -> Self {
        let names: Vec<String> = program.names().map(str::to_owned).collect();
        let index: HashMap<String, Var> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), Var::new(i as u32)))
            .collect();
        let mut graph = DepGraph::new(names.len());
        for class in program.classes() {
            let from = index[&class.name];
            let mut mention = |name: &str| {
                if let Some(&to) = index.get(name) {
                    graph.add_edge(from, to);
                }
            };
            if let Some(s) = &class.superclass {
                mention(s);
            }
            for i in &class.interfaces {
                mention(i);
            }
            for f in &class.fields {
                if let Some(c) = f.ty.class_name() {
                    mention(c);
                }
            }
            for m in &class.methods {
                for c in m.desc.referenced_classes() {
                    mention(c);
                }
                if let Some(code) = &m.code {
                    for insn in &code.insns {
                        for c in insn.referenced_classes() {
                            mention(c);
                        }
                    }
                }
            }
        }
        ClassGraph {
            graph,
            names,
            index,
        }
    }

    /// The node of a class name.
    pub fn node(&self, name: &str) -> Option<Var> {
        self.index.get(name).copied()
    }

    /// The serialized size of each node's class, by node: what a subset
    /// of the classes measures is the sum over its nodes.
    pub(crate) fn class_sizes(&self, program: &Program) -> Vec<usize> {
        (self.names.iter())
            .map(|name| program.get(name).map_or(0, class_byte_size))
            .collect()
    }

    /// Materializes the sub-program keeping exactly the classes in `keep`
    /// as a candidate of `scope`'s reduction, sharing `program`'s class
    /// handles, with its byte size summed from `sizes`
    /// ([`ClassGraph::class_sizes`]).
    pub(crate) fn subset_program(
        &self,
        program: &Program,
        keep: &VarSet,
        sizes: &[usize],
        scope: &Arc<Scope>,
    ) -> Program {
        let names = keep.iter().map(|v| self.names[v.index()].as_str());
        let byte_size = keep.iter().map(|v| sizes[v.index()]).sum();
        program.share_subset(names, byte_size, scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassFile, Code, FieldInfo, Insn, MethodDescriptor, MethodInfo, Type};

    fn program() -> Program {
        let mut a = ClassFile::new_class("A");
        a.fields.push(FieldInfo::new("f", Type::reference("B")));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::new(vec![Type::reference("C")], None),
            Code::new(1, 2, vec![Insn::New("D".into()), Insn::Pop, Insn::Return]),
        ));
        let b = ClassFile::new_class("B");
        let c = ClassFile::new_class("C");
        let mut d = ClassFile::new_class("D");
        d.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        [a, b, c, d].into_iter().collect()
    }

    #[test]
    fn mentions_create_edges() {
        let p = program();
        let cg = ClassGraph::new(&p);
        let a = cg.node("A").unwrap();
        let closure = cg.graph.closure_of([a]);
        // A mentions B (field), C (descriptor), D (new).
        for n in ["B", "C", "D"] {
            assert!(closure.contains(cg.node(n).unwrap()), "missing {n}");
        }
        assert_eq!(closure.len(), 4);
    }

    #[test]
    fn independent_class_not_pulled() {
        let p = program();
        let cg = ClassGraph::new(&p);
        let b = cg.node("B").unwrap();
        let closure = cg.graph.closure_of([b]);
        assert_eq!(closure.len(), 1, "B mentions nothing");
    }

    #[test]
    fn subset_program_materializes() {
        let p = program();
        let cg = ClassGraph::new(&p);
        let mut keep = VarSet::empty(cg.names.len());
        keep.insert(cg.node("B").unwrap());
        keep.insert(cg.node("C").unwrap());
        let sub = cg.subset_program(&p, &keep, &cg.class_sizes(&p), &Arc::default());
        assert_eq!(sub.len(), 2);
        assert!(sub.get("B").is_some() && sub.get("C").is_some());
        assert!(sub.get("A").is_none());
        let handle = |program: &Program, name: &str| {
            Arc::clone(program.handles().find(|c| c.name == name).expect("present"))
        };
        for name in ["B", "C"] {
            assert!(
                Arc::ptr_eq(&handle(&p, name), &handle(&sub, name)),
                "{name} is shared"
            );
        }
    }

    #[test]
    fn subset_program_carries_its_size() {
        let p = program();
        let cg = ClassGraph::new(&p);
        let sizes = cg.class_sizes(&p);
        let n = cg.names.len();
        for bits in 0..1u32 << n {
            let mut keep = VarSet::empty(n);
            for i in (0..n).filter(|i| bits & 1 << i != 0) {
                keep.insert(Var::new(i as u32));
            }
            let sub = cg.subset_program(&p, &keep, &sizes, &Arc::default());
            let cached = sub.cached_byte_size();
            assert_eq!(cached, Some(crate::program_byte_size(&sub)), "{bits:b}");
        }
    }

    #[test]
    fn object_is_not_a_node() {
        let p = program();
        let cg = ClassGraph::new(&p);
        assert!(cg.node("Object").is_none());
        assert_eq!(cg.names.len(), 4);
    }
}
