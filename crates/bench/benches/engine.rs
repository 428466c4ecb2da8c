//! Incremental propagation engine vs the scan baseline.
//!
//! Four levels: one progression (`ProgressionBuilder` vs the preserved
//! `build_progression`), raw MSA (engine-backed `msa` vs the preserved
//! `msa_scan`), one full GBR reduction (`PropagationMode::Incremental`
//! vs `LegacyScan`), and the end-to-end pipeline (`RunOptions::default()`
//! vs `RunOptions::legacy()`). Between the last two, the cost of one probe
//! by part, with the decompiler oracle both cold (`probe/decompile-errors`)
//! and over a recorded greedy probe sequence of one reduction scope
//! (`probe/decompile-errors-sequence`). The speedup ratios back the
//! numbers quoted in `EXPERIMENTS.md`.

use lbr_bench::microbench::{bench, fmt_duration};
use lbr_core::{
    build_progression, closure_size_order, generalized_binary_reduction, GbrConfig, Input,
    Instance, Oracle, ProgressionBuilder, PropagationMode,
};
use lbr_jreduce::{build_model, run_reduction_with, RunOptions};
use lbr_logic::{msa, msa_scan, VarSet};
use lbr_workload::{generate, generate_stack, StackShape, StackWorkloadConfig, WorkloadConfig};

fn main() {
    progressions();

    let program = generate(&WorkloadConfig {
        seed: 5,
        classes: 36,
        interfaces: 9,
        plant: lbr_decompiler::BugKind::ALL.to_vec(),
        ..WorkloadConfig::default()
    });
    let model = build_model(&program).expect("valid input");
    let order = closure_size_order(&model.cnf);

    let engine = bench("msa/engine", || {
        msa(&model.cnf, &order).expect("satisfiable").len()
    });
    let scan = bench("msa/scan", || {
        msa_scan(&model.cnf, &order).expect("satisfiable").len()
    });
    println!(
        "  -> msa speedup: {:.1}x ({} vs {})",
        scan.as_secs_f64() / engine.as_secs_f64().max(1e-12),
        fmt_duration(scan),
        fmt_duration(engine)
    );

    // One GBR search against a fixed (cheap) predicate: incremental
    // propagation and the legacy scan baseline.
    let instance = Instance::new(VarSet::full(model.cnf.num_vars()), model.cnf.clone());
    let needed = instance.vars.iter().take(3).collect::<Vec<_>>();
    let mut gbr_times = Vec::new();
    for (name, mode) in [
        ("incremental", PropagationMode::Incremental),
        ("legacy-scan", PropagationMode::LegacyScan),
    ] {
        let t = bench(&format!("gbr/{name}"), || {
            let mut bug = |s: &VarSet| needed.iter().all(|v| s.contains(*v));
            let mut oracle = Oracle::new(&mut bug, 0.0);
            let config = GbrConfig {
                propagation: mode,
                ..GbrConfig::default()
            };
            generalized_binary_reduction(&instance, &order, &mut oracle, &config)
                .expect("reduces")
                .solution
                .len()
        });
        gbr_times.push(t);
    }
    println!(
        "  -> gbr speedup vs scan: {:.1}x",
        gbr_times[1].as_secs_f64() / gbr_times[0].as_secs_f64().max(1e-12)
    );

    // Probe-cost breakdown: what one oracle probe is made of.
    let registry = &model.registry;
    let keep = VarSet::full(model.cnf.num_vars());
    let probe_oracle =
        lbr_decompiler::DecompilerOracle::new(&program, lbr_decompiler::BugSet::decompiler_a());
    bench("probe/reduce-program", || {
        lbr_jreduce::reduce_program(&program, registry, &keep).len()
    });
    let candidate = lbr_jreduce::reduce_program(&program, registry, &keep);
    bench("probe/byte-size", || {
        lbr_classfile::program_byte_size(&candidate)
    });
    let cold = bench("probe/decompile-errors", || {
        probe_oracle.errors(&candidate).len()
    });

    // The same oracle over a recorded greedy probe sequence, replayed
    // through a fresh reduction scope per iteration: what a probe costs
    // once the oracle reuses the decompiles and checks of earlier probes.
    let probe_model = program.model().expect("valid input");
    let mut probes: Vec<VarSet> = Vec::new();
    let mut record = |keep: &VarSet| {
        probes.push(keep.clone());
        probe_oracle.preserves_failure(&(probe_model.materialize)(keep))
    };
    generalized_binary_reduction(&instance, &order, &mut record, &GbrConfig::default())
        .expect("reduces");
    let sequence = bench("probe/decompile-errors-sequence", || {
        let model = program.model().expect("valid input");
        probes
            .iter()
            .map(|keep| probe_oracle.errors(&(model.materialize)(keep)).len())
            .sum::<usize>()
    });
    println!(
        "  -> {} probes: {} per probe in sequence, {} cold",
        probes.len(),
        fmt_duration(sequence / probes.len() as u32),
        fmt_duration(cold)
    );

    // End-to-end pipeline: real decompiler predicate, memo on vs off.
    let oracle =
        lbr_decompiler::DecompilerOracle::new(&program, lbr_decompiler::BugSet::decompiler_a());
    let mut pipeline_times = Vec::new();
    for (name, options) in [
        ("default", RunOptions::default()),
        ("legacy", RunOptions::legacy()),
    ] {
        let t = bench(&format!("pipeline/logical-greedy/{name}"), || {
            run_reduction_with(&program, &oracle, "logical/greedy", 0.0, &options)
                .expect("reduces")
                .final_metrics
                .bytes
        });
        pipeline_times.push(t);
    }
    println!(
        "  -> end-to-end speedup vs legacy: {:.1}x",
        pipeline_times[1].as_secs_f64() / pipeline_times[0].as_secs_f64().max(1e-12)
    );
}

/// One progression over the full search space of a 300-function stackvm
/// module — the solver's share of a GBR step, without any oracle.
fn progressions() {
    let module = generate_stack(&StackWorkloadConfig {
        seed: 1,
        functions: 300,
        globals: 12,
        shape: StackShape::ConstraintDense,
        ..StackWorkloadConfig::default()
    });
    let model = module.model().expect("generated modules verify");
    let cnf = &model.cnf;
    let n = cnf.num_vars();
    let order = closure_size_order(cnf);
    let all = VarSet::full(n);
    let entries = build_progression(cnf, &order, &[], &all)
        .expect("satisfiable")
        .len();
    let mut builder = ProgressionBuilder::new(cnf, n, &GbrConfig::default());
    let engine = bench("progression/engine", || {
        builder
            .progression(&order, &[], &all)
            .expect("satisfiable")
            .len()
    });
    let scan = bench("progression/scan", || {
        build_progression(cnf, &order, &[], &all)
            .expect("satisfiable")
            .len()
    });
    let per_entry = |d: std::time::Duration| fmt_duration(d / entries as u32);
    println!(
        "  -> {entries} entries: {} per entry (engine), {} per entry (scan)",
        per_entry(engine),
        per_entry(scan)
    );
}
