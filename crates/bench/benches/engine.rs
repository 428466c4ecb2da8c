//! Incremental propagation engine vs the scan reference.
//!
//! Two levels: progressions (`ProgressionBuilder` vs
//! `lbr_reference::build_progression` on one progression, and the builder
//! alone over every rebuild of one real GBR run) and raw MSA
//! (one-shot engine-backed `msa`, engine build included, next to
//! `lbr_reference::msa_scan`). Then the cost of one probe by part,
//! with the decompiler oracle both cold (`probe/decompile-errors`) and
//! over a recorded greedy probe sequence of one reduction scope, replayed
//! through the whole message set (`probe/decompile-errors-sequence`) and
//! through the predicate reductions call
//! (`probe/decompile-preserves-sequence`), and the materializer plus the size
//! metric over recorded greedy probe sequences of a classfile program and
//! a 300-function stackvm module (`probe/materialize-size-sequence/*`).
//! The timings back the numbers quoted in `EXPERIMENTS.md`.

use lbr_bench::microbench::{bench, fmt_duration};
use lbr_core::{
    closure_size_order, generalized_binary_reduction, GbrCheckpoint, GbrConfig, Input, Instance,
    ProgressionBuilder,
};
use lbr_jreduce::{build_model, ReductionSession};
use lbr_logic::{msa, VarSet};
use lbr_reference::{build_progression, msa_scan};
use lbr_stackvm::{StackBugSet, StackOracle};
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
    // A one-shot cost: `msa` builds a fresh engine per call, and no
    // reduction calls it (reductions take the MSA of a progression).
    println!(
        "  -> msa one-shot cost: {} with the engine build ({} scan reference)",
        fmt_duration(engine),
        fmt_duration(scan)
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
    let cold = bench("probe/decompile-errors", || {
        probe_oracle.errors(&candidate).len()
    });

    // The same oracle over a recorded greedy probe sequence, replayed
    // through a fresh reduction scope per iteration: what a probe costs
    // once the oracle reuses the decompiles and checks of earlier probes.
    let probe_model = program.model().expect("valid input");
    let instance = Instance::new(VarSet::full(model.cnf.num_vars()), model.cnf.clone());
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
    // The same sequence through the predicate a reduction's probes call,
    // which checks only the classes that can print a baseline message.
    let preserves = bench("probe/decompile-preserves-sequence", || {
        let model = program.model().expect("valid input");
        probes
            .iter()
            .filter(|keep| probe_oracle.preserves_failure(&(model.materialize)(keep)))
            .count()
    });
    println!(
        "  -> {} probes: {} per probe in sequence through `errors`, {} through \
         `preserves_failure`, {} cold",
        probes.len(),
        fmt_duration(sequence / probes.len() as u32),
        fmt_duration(preserves / probes.len() as u32),
        fmt_duration(cold)
    );
    materialize_size_sequence("classfile-36", &program, &probes);

    // The same over a 300-function stackvm module.
    let module = generate_stack(&StackWorkloadConfig {
        seed: 1,
        functions: 300,
        globals: 12,
        shape: StackShape::ConstraintDense,
        ..StackWorkloadConfig::default()
    });
    let oracle = StackOracle::new(&module, StackBugSet::all());
    let stack_model = module.model().expect("generated modules verify");
    let order = closure_size_order(&stack_model.cnf);
    let instance = Instance::over_all_vars(stack_model.cnf.clone());
    let mut probes: Vec<VarSet> = Vec::new();
    let mut record = |keep: &VarSet| {
        probes.push(keep.clone());
        oracle.preserves_failure(&(stack_model.materialize)(keep))
    };
    generalized_binary_reduction(&instance, &order, &mut record, &GbrConfig::default())
        .expect("reduces");
    materialize_size_sequence("stackvm-300", &module, &probes);
}

/// What the size metric costs a reduction: `probes`, a recorded greedy
/// probe sequence, replayed through materialization and `byte_size` with
/// a fresh model (so a fresh reduction scope) per iteration. The model
/// build is timed alone too, and the per-probe figure excludes it.
fn materialize_size_sequence<I: Input>(label: &str, input: &I, probes: &[VarSet]) {
    let build = bench(&format!("probe/model-build/{label}"), || {
        input.model().expect("valid input").cnf.num_vars()
    });
    let sequence = bench(&format!("probe/materialize-size-sequence/{label}"), || {
        let model = input.model().expect("valid input");
        (probes.iter())
            .map(|keep| (model.materialize)(keep).byte_size())
            .sum::<usize>()
    });
    println!(
        "  -> {} probes: {} per probe after the model build",
        probes.len(),
        fmt_duration(sequence.saturating_sub(build) / probes.len() as u32)
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
    let mut builder = ProgressionBuilder::new(cnf, n);
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

    // Every progression one `logical/greedy` run over the module builds:
    // its checkpoint chain of `(learned, search_space)` pairs, replayed
    // from the whole module through one builder, as
    // `lbr_reference::check_chain` replays it.
    let oracle = StackOracle::new(&module, StackBugSet::all());
    let mut chain: Vec<GbrCheckpoint> = Vec::new();
    let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
    ReductionSession::new(&module, &oracle)
        .strategy("logical/greedy")
        .checkpoint(&mut record)
        .run()
        .expect("reduces");
    let calls: Vec<(&[VarSet], &VarSet)> = std::iter::once((&[][..], &all))
        .chain(chain.iter().map(|ck| (&ck.learned[..], &ck.search_space)))
        .collect();
    let mut rebuilt = 0;
    let rebuilds = bench("progression/gbr-rebuilds", || {
        let mut builder = ProgressionBuilder::new(cnf, n);
        rebuilt = calls
            .iter()
            .map(|&(learned, search_space)| {
                let progression = builder.progression(&order, learned, search_space);
                progression.expect("satisfiable").len()
            })
            .sum::<usize>();
        rebuilt
    });
    println!(
        "  -> {} progressions, {rebuilt} entries: {} per entry",
        calls.len(),
        fmt_duration(rebuilds / rebuilt as u32)
    );
}
