//! The stackvm reduction materializer against its reference: on every
//! candidate of a real reduction, the model's `materialize` builds the
//! same module as the memo-free `reduce_module`, shares the original
//! function wherever a body is kept and one stub per function wherever
//! it is not, and sizes the candidate exactly as the writer encodes it.

use lbr::core::{closure_size_order, generalized_binary_reduction, GbrConfig, Input, Instance};
use lbr::logic::VarSet;
use lbr::workload::{generate_stack, StackShape, StackWorkloadConfig};
use lbr_stackvm::{
    build_stack_model, reduce_module, write_module, StackBugKind, StackBugSet, StackOracle,
};
use std::sync::Arc;

/// magic(4) + version(1) + globals(4) + functions(4).
const CONTAINER_HEADER: usize = 13;

#[test]
fn stackvm_materializer_matches_reduce_module_and_shares_functions() {
    let module = generate_stack(&StackWorkloadConfig {
        seed: 1,
        functions: 300,
        globals: 12,
        shape: StackShape::ConstraintDense,
        plant: StackBugKind::ALL.to_vec(),
        ..StackWorkloadConfig::default()
    });
    let oracle = StackOracle::new(&module, StackBugSet::all());
    assert!(oracle.is_failing(), "the module must exhibit a bug");
    let model = module.model().expect("generated modules verify");
    let registry = build_stack_model(&module)
        .expect("generated modules verify")
        .registry;

    // Every keep-set GBR probes satisfies the model: record them all.
    let mut probes: Vec<VarSet> = Vec::new();
    let mut predicate = |keep: &VarSet| {
        probes.push(keep.clone());
        oracle.preserves_failure(&(model.materialize)(keep))
    };
    let order = closure_size_order(&model.cnf);
    let instance = Instance::over_all_vars(model.cnf.clone());
    generalized_binary_reduction(&instance, &order, &mut predicate, &GbrConfig::default())
        .expect("the reduction succeeds");
    assert!(probes.len() >= 20, "only {} probes", probes.len());

    let mut stubbed = 0;
    for keep in &probes {
        assert!(model.cnf.eval(keep), "GBR probed a non-model");
        let candidate = (model.materialize)(keep);
        assert_eq!(candidate, reduce_module(&module, &registry, keep));
        assert_eq!(
            candidate.byte_size(),
            write_module(&candidate).len() - CONTAINER_HEADER
        );

        let again = (model.materialize)(keep);
        let kept = (0..module.functions.len()).filter(|&i| keep.contains(registry.function_var(i)));
        assert_eq!(kept.clone().count(), candidate.functions.len());
        for ((i, f), g) in kept.zip(&candidate.functions).zip(&again.functions) {
            let original = &module.functions[i];
            if keep.contains(registry.body_var(i)) {
                assert!(Arc::ptr_eq(f, original), "kept body of {} copied", f.name);
            } else {
                assert!(!Arc::ptr_eq(f, original), "{} not stubbed", f.name);
                assert!(Arc::ptr_eq(f, g), "stub of {} built twice", f.name);
                stubbed += 1;
            }
        }
    }
    assert!(stubbed > 0, "no probe stubbed a body");
}
