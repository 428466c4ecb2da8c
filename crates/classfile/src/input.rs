//! The classfile frontend behind the format-agnostic [`Input`] trait.
//!
//! This is a thin adapter: the logical model is [`build_model`](crate::build_model)'s CNF
//! with [`reduce_program`] as the solution applier, the coarse model is
//! [`ClassGraph`]'s class-mention graph with its subset materializer,
//! and serialization/validation delegate to the existing binary format
//! and verifier. Every path is the *same code* the pipeline has always
//! run, so results through the trait are bit-identical to the concrete
//! classfile path.

use crate::classgraph::ClassGraph;
use crate::item::ItemIndex;
use crate::model::{model_stats, write_model};
use crate::reducer::Materializer;
use crate::{program_byte_size, read_program, verify_program, write_program, Program};
use lbr_core::{CoarseModel, Input, InputModel};
use lbr_logic::VarSet;
use std::sync::Arc;

impl Input for Program {
    const FORMAT: &'static str = "classfile";

    fn model(&self) -> Result<InputModel<'_, Self>, String> {
        let index = ItemIndex::new(self);
        let cnf = write_model(self, &index).map_err(|e| e.to_string())?;
        // Containment depth: class/interface files, then the members and
        // relations they declare, then the method/constructor bodies
        // nested inside those members.
        let mut levels = vec![1; index.len()];
        for class in index.classes() {
            levels[class.var.index()] = 0;
            for body in class.methods.iter().filter_map(|&(_, body)| body) {
                levels[body.index()] = 2;
            }
        }
        let stats = model_stats(index.len(), &cnf);
        let materializer = Materializer::new(self, index);
        // The size plans give this program's own size as a sum: measuring
        // the input later costs nothing and plans no class a second time.
        self.record_byte_size(|| materializer.full_size());
        Ok(InputModel {
            cnf,
            stats,
            levels,
            materialize: Box::new(move |keep: &VarSet| materializer.materialize(keep)),
        })
    }

    fn coarse_model(&self) -> CoarseModel<'_, Self> {
        let cg = ClassGraph::new(self);
        let sizes = cg.class_sizes(self);
        let scope = Arc::default();
        CoarseModel {
            graph: cg.graph.clone(),
            materialize: Box::new(move |keep: &VarSet| {
                cg.subset_program(self, keep, &sizes, &scope)
            }),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        write_program(self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        read_program(bytes).map_err(|e| e.to_string())
    }

    fn byte_size(&self) -> usize {
        self.cached_byte_size()
            .unwrap_or_else(|| program_byte_size(self))
    }

    fn unit_count(&self) -> usize {
        self.len()
    }

    fn validate(&self) -> Vec<String> {
        verify_program(self)
            .into_iter()
            .map(|e| e.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_model, reduce_program, ClassFile, Code, Insn, MethodDescriptor, MethodInfo};

    fn sample() -> Program {
        let mut a = ClassFile::new_class("A");
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        let mut b = ClassFile::new_class("B");
        b.superclass = Some("A".into());
        b.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        [a, b].into_iter().collect()
    }

    #[test]
    fn serialization_matches_concrete_functions() {
        let p = sample();
        assert_eq!(p.to_bytes(), write_program(&p));
        assert_eq!(Program::from_bytes(&p.to_bytes()), Ok(p.clone()));
        assert_eq!(p.byte_size(), program_byte_size(&p));
        assert_eq!(p.unit_count(), 2);
        assert!(p.validate().is_empty());
        assert_eq!(<Program as Input>::FORMAT, "classfile");
    }

    #[test]
    fn model_materializes_like_reduce_program() {
        let p = sample();
        let trait_model = p.model().expect("model builds");
        let concrete = build_model(&p).expect("model builds");
        assert_eq!(trait_model.cnf, concrete.cnf);
        assert_eq!(trait_model.stats, concrete.stats());
        let keep = VarSet::full(trait_model.cnf.num_vars());
        assert_eq!(
            (trait_model.materialize)(&keep),
            reduce_program(&p, &concrete.registry, &keep)
        );
    }

    #[test]
    fn coarse_model_materializes_subsets() {
        let p = sample();
        let coarse = p.coarse_model();
        assert_eq!(coarse.graph.len(), 2);
        let cg = ClassGraph::new(&p);
        let mut keep = VarSet::empty(2);
        keep.insert(cg.node("A").unwrap());
        let sub = (coarse.materialize)(&keep);
        assert_eq!(sub.len(), 1);
        assert!(sub.get("A").is_some());
    }
}
