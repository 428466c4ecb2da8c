//! Trace-guided determinism: the trace store is a pure memo. A warm
//! store answers repeated probes without re-running the tool, but the
//! probe sequence, the trace digest, and the reduced bytes must be
//! bit-identical to a cold run — under both frontends. Likewise the
//! progression engine is a pure speed-up: the incremental builder behind
//! both `logical/greedy` and trace-guided Phase B must replay the
//! scan-based reference (`lbr_reference::build_progression`) exactly on
//! the `(learned, search_space)` pairs each run built its progressions
//! from, from the run's own start and under its own order, on small
//! suites and on a module whose progressions run to hundreds of entries.

use lbr::core::{
    closure_size_order, generalized_binary_reduction_controlled, BoundarySearch, GbrCheckpoint,
    GbrConfig, GbrControl, Input, InputOracle, Instance, MemoryCache, ProgressionBuilder,
};
use lbr::jreduce::{check_report, trace_guided_start, ReductionSession};
use lbr::logic::{Cnf, VarOrder, VarSet};
use lbr::workload::{
    generate_stack, stack_suite, suite, StackShape, StackWorkloadConfig, SuiteConfig,
};
use lbr_stackvm::{StackBugKind, StackBugSet, StackOracle};

fn assert_cold_equals_warm<I: Input, O: InputOracle<I>>(name: &str, input: &I, oracle: &O) {
    let store = MemoryCache::new();
    let cold = ReductionSession::new(input, oracle)
        .strategy("logical/trace-guided")
        .cache(&store)
        .run()
        .unwrap_or_else(|e| panic!("{name}: cold run: {e}"));
    check_report(&cold).unwrap_or_else(|e| panic!("{name}: cold report: {e}"));
    assert!(
        !store.is_empty(),
        "{name}: cold run must populate the store"
    );

    let warm = ReductionSession::new(input, oracle)
        .strategy("logical/trace-guided")
        .cache(&store)
        .run()
        .unwrap_or_else(|e| panic!("{name}: warm run: {e}"));
    check_report(&warm).unwrap_or_else(|e| panic!("{name}: warm report: {e}"));
    assert!(
        store.hits() > 0,
        "{name}: warm run must be served from the trace store"
    );

    assert_eq!(
        cold.reduced.to_bytes(),
        warm.reduced.to_bytes(),
        "{name}: reduced bytes must not depend on store temperature"
    );
    assert_eq!(
        cold.trace.digest(),
        warm.trace.digest(),
        "{name}: trace digests must match cold vs warm"
    );
    assert!(
        cold.trace.same_probe_sequence(&warm.trace),
        "{name}: probe sequences must be identical cold vs warm"
    );
    assert_eq!(cold.predicate_calls, warm.predicate_calls, "{name}: calls");

    // A store-less run is the third corner of the contract: attaching a
    // store must change nothing observable either.
    let bare = ReductionSession::new(input, oracle)
        .strategy("logical/trace-guided")
        .run()
        .unwrap_or_else(|e| panic!("{name}: bare run: {e}"));
    assert_eq!(bare.reduced.to_bytes(), cold.reduced.to_bytes(), "{name}");
    assert_eq!(bare.trace.digest(), cold.trace.digest(), "{name}");
}

/// The model and the start of the GBR run `strategy` builds its
/// progressions in: `logical/greedy` starts from the whole input under the
/// model's closure-size order, trace-guided's Phase B from the coverage
/// sweep's seed under its history order (`trace_guided_start`).
fn progression_start<I: Input, O: InputOracle<I>>(
    name: &str,
    strategy: &str,
    input: &I,
    oracle: &O,
) -> (Cnf, VarSet, VarOrder) {
    let cnf = input.model().unwrap_or_else(|e| panic!("{name}: {e}")).cnf;
    let (first, order) = match strategy {
        "logical/greedy" => (VarSet::full(cnf.num_vars()), closure_size_order(&cnf)),
        "logical/trace-guided" => {
            trace_guided_start(input, oracle).unwrap_or_else(|e| panic!("{name}: {e}"))
        }
        _ => panic!("{name}: no known progression start"),
    };
    (cnf, first, order)
}

/// Runs `strategy` with its checkpoint chain recorded, then replays the
/// run's progressions through a fresh progression builder and the scan
/// reference (`lbr_reference::check_chain`), which must agree on every
/// one: the first from the run's own start, then one per recorded
/// `(learned, search_space)` pair, all under the run's own order. Returns
/// the chain's length and the progression entries compared.
fn assert_incremental_equals_scan<I: Input, O: InputOracle<I>>(
    name: &str,
    strategy: &str,
    input: &I,
    oracle: &O,
) -> (usize, usize) {
    let name = format!("{name} {strategy}");
    let mut chain: Vec<GbrCheckpoint> = Vec::new();
    let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
    let report = ReductionSession::new(input, oracle)
        .strategy(strategy)
        .checkpoint(&mut record)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    check_report(&report).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        !chain.is_empty(),
        "{name}: the run must learn at least once"
    );
    let (cnf, first, order) = progression_start(&name, strategy, input, oracle);
    let entries = lbr_reference::check_chain(&cnf, &order, &first, &chain)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (chain.len(), entries)
}

fn classfile_incremental_matches_scan(strategy: &str) {
    let benchmarks = suite(&SuiteConfig {
        seed: 5,
        programs: 2,
        scale: 0.5,
    });
    assert!(!benchmarks.is_empty());
    for b in &benchmarks {
        let oracle = b.oracle();
        assert_incremental_equals_scan(&b.name, strategy, &b.program, &oracle);
    }
}

fn stackvm_incremental_matches_scan(strategy: &str) {
    let benchmarks = stack_suite(13, 3);
    assert!(!benchmarks.is_empty());
    for b in &benchmarks {
        let oracle = b.oracle();
        assert_incremental_equals_scan(&b.name, strategy, &b.module, &oracle);
    }
}

#[test]
fn classfile_trace_guided_incremental_matches_scan() {
    classfile_incremental_matches_scan("logical/trace-guided");
}

#[test]
fn stackvm_trace_guided_incremental_matches_scan() {
    stackvm_incremental_matches_scan("logical/trace-guided");
}

#[test]
fn classfile_greedy_incremental_matches_scan() {
    classfile_incremental_matches_scan("logical/greedy");
}

#[test]
fn stackvm_greedy_incremental_matches_scan() {
    stackvm_incremental_matches_scan("logical/greedy");
}

/// `trace_guided_start` is the start Phase B really runs from: plain GBR
/// with a gallop boundary search from that seed and under that order
/// records the strategy run's checkpoint chain and reaches its reduced
/// output exactly.
fn assert_start_reproduces_phase_b<I: Input, O: InputOracle<I>>(name: &str, input: &I, oracle: &O) {
    let mut chain: Vec<GbrCheckpoint> = Vec::new();
    let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
    let report = ReductionSession::new(input, oracle)
        .strategy("logical/trace-guided")
        .checkpoint(&mut record)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let model = input.model().unwrap_or_else(|e| panic!("{name}: {e}"));
    let (seed, order) = trace_guided_start(input, oracle).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut replayed: Vec<GbrCheckpoint> = Vec::new();
    let mut hook = |ck: &GbrCheckpoint| replayed.push(ck.clone());
    let mut predicate = |keep: &VarSet| oracle.preserves_failure(&(model.materialize)(keep));
    let config = GbrConfig {
        boundary: BoundarySearch::Gallop,
        ..GbrConfig::default()
    };
    let mut control = GbrControl {
        checkpoint: Some(&mut hook),
        ..GbrControl::default()
    };
    let outcome = generalized_binary_reduction_controlled(
        &Instance::new(seed, model.cnf.clone()),
        &order,
        &mut predicate,
        &config,
        &mut control,
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(replayed, chain, "{name}: checkpoint chains differ");
    assert_eq!(
        (model.materialize)(&outcome.solution).to_bytes(),
        report.reduced.to_bytes(),
        "{name}: reduced bytes differ"
    );
}

#[test]
fn trace_guided_start_is_phase_bs_own_start() {
    for b in &suite(&SuiteConfig {
        seed: 5,
        programs: 2,
        scale: 0.5,
    }) {
        assert_start_reproduces_phase_b(&b.name, &b.program, &b.oracle());
    }
    for b in &stack_suite(13, 3) {
        assert_start_reproduces_phase_b(&b.name, &b.module, &b.oracle());
    }
}

/// The strategies whose progressions come from a `ProgressionBuilder`.
const STRATEGIES: [&str; 2] = ["logical/greedy", "logical/trace-guided"];

/// The small suites above give progressions of a few dozen entries; a
/// 150-function constraint-dense module gives one entry per item — over
/// three hundred — so the incremental engine's per-entry shortcuts are
/// exercised at the lengths real reductions build. The floor holds for
/// each strategy's own first progression, from its own start.
#[test]
fn large_stackvm_module_incremental_matches_scan() {
    let module = generate_stack(&StackWorkloadConfig {
        seed: 7,
        functions: 150,
        globals: 12,
        shape: StackShape::ConstraintDense,
        plant: StackBugKind::ALL.to_vec(),
        ..StackWorkloadConfig::default()
    });
    let oracle = StackOracle::new(&module, StackBugSet::all());
    assert!(oracle.is_failing(), "the module must exhibit a bug");
    for strategy in STRATEGIES {
        let (cnf, first, order) = progression_start("svm-large", strategy, &module, &oracle);
        let progression = ProgressionBuilder::new(&cnf, cnf.num_vars())
            .progression(&order, &[], &first)
            .expect("the model is satisfiable");
        assert!(
            progression.len() >= 300,
            "{strategy}: first progression has only {} entries",
            progression.len()
        );
        let (_, entries) = assert_incremental_equals_scan("svm-large", strategy, &module, &oracle);
        assert!(
            entries > progression.len(),
            "{strategy}: the chain replayed only {entries} entries"
        );
    }
}

#[test]
fn classfile_trace_guided_cold_vs_warm_store_is_bit_identical() {
    let benchmarks = suite(&SuiteConfig {
        seed: 11,
        programs: 1,
        scale: 0.5,
    });
    assert!(!benchmarks.is_empty());
    for b in benchmarks.iter().take(2) {
        let oracle = b.oracle();
        assert_cold_equals_warm(&b.name, &b.program, &oracle);
    }
}

#[test]
fn stackvm_trace_guided_cold_vs_warm_store_is_bit_identical() {
    let benchmarks = stack_suite(9, 2);
    assert!(!benchmarks.is_empty());
    for b in &benchmarks {
        let oracle = b.oracle();
        assert_cold_equals_warm(&b.name, &b.module, &oracle);
    }
}
