//! End-to-end pipeline benchmarks: one full reduction per strategy on a
//! small NJR-like benchmark (this is the expensive, headline comparison).

use lbr_bench::microbench::bench;
use lbr_classfile::verify_program;
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{build_model, run_reduction};
use lbr_stackvm::{build_stack_model, verify_module, StackBugKind};
use lbr_workload::{generate, generate_stack, StackWorkloadConfig, WorkloadConfig};

fn bench_pipeline() {
    let program = generate(&WorkloadConfig {
        seed: 13,
        classes: 24,
        interfaces: 8,
        plant: BugSet::decompiler_a().kinds().to_vec(),
        ..WorkloadConfig::default()
    });
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
    assert!(oracle.is_failing());

    for strategy in ["jreduce", "logical/greedy", "lossy-1", "lossy-2"] {
        bench(&format!("pipeline/{strategy}"), || {
            run_reduction(&program, &oracle, strategy, 0.0)
                .expect("reduces")
                .final_metrics
                .bytes
        });
    }
}

fn bench_model_generation() {
    let program = generate(&WorkloadConfig {
        seed: 13,
        classes: 48,
        interfaces: 12,
        plant: vec![],
        ..WorkloadConfig::default()
    });
    bench("build-model-48-classes", || {
        build_model(&program).expect("valid").cnf.len()
    });
    bench("verify-program-48-classes", || {
        verify_program(&program).len()
    });

    // One `stackvm-large` module: 300 functions, 12 globals.
    let module = generate_stack(&StackWorkloadConfig {
        seed: 1,
        functions: 300,
        globals: 12,
        plant: StackBugKind::ALL.to_vec(),
        ..StackWorkloadConfig::default()
    });
    bench("build-stack-model-300-functions", || {
        build_stack_model(&module).expect("valid").cnf.len()
    });
    bench("verify-stack-module-300-functions", || {
        verify_module(&module).len()
    });
}

fn main() {
    bench_pipeline();
    bench_model_generation();
}
