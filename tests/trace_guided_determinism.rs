//! Trace-guided determinism: the trace store is a pure memo. A warm
//! store answers repeated probes without re-running the tool, but the
//! probe sequence, the trace digest, and the reduced bytes must be
//! bit-identical to a cold run — under both frontends. Likewise the
//! progression engine is a pure speed-up: Phase B's incremental builder
//! (the default) must replay the scan-based reference
//! (`RunOptions::legacy()`) exactly.

use lbr::core::{Input, InputOracle, MemoryCache, RunOptions};
use lbr::jreduce::{check_report, ReductionSession};
use lbr::workload::{stack_suite, suite, SuiteConfig};

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

/// Runs trace-guided under the default options (incremental Phase B
/// progressions) and under `RunOptions::legacy()` (scan-based ones, no
/// memo) and asserts the two runs are indistinguishable.
fn assert_incremental_equals_scan<I: Input, O: InputOracle<I>>(name: &str, input: &I, oracle: &O) {
    let run = |options: RunOptions| {
        let report = ReductionSession::new(input, oracle)
            .strategy("logical/trace-guided")
            .options(options)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {options:?}: {e}"));
        check_report(&report).unwrap_or_else(|e| panic!("{name}: {options:?}: {e}"));
        report
    };
    let incremental = run(RunOptions::default());
    let scan = run(RunOptions::legacy());
    assert_eq!(
        incremental.predicate_calls, scan.predicate_calls,
        "{name}: calls must not depend on the progression engine"
    );
    assert_eq!(
        incremental.reduced.to_bytes(),
        scan.reduced.to_bytes(),
        "{name}: reduced bytes must not depend on the progression engine"
    );
    assert_eq!(
        incremental.trace.digest(),
        scan.trace.digest(),
        "{name}: trace digests must match incremental vs scan"
    );
    assert!(
        incremental.trace.same_probe_sequence(&scan.trace),
        "{name}: probe sequences must be identical incremental vs scan"
    );
}

#[test]
fn classfile_trace_guided_incremental_matches_scan() {
    let benchmarks = suite(&SuiteConfig {
        seed: 5,
        programs: 2,
        scale: 0.5,
    });
    assert!(!benchmarks.is_empty());
    for b in &benchmarks {
        let oracle = b.oracle();
        assert_incremental_equals_scan(&b.name, &b.program, &oracle);
    }
}

#[test]
fn stackvm_trace_guided_incremental_matches_scan() {
    let benchmarks = stack_suite(13, 3);
    assert!(!benchmarks.is_empty());
    for b in &benchmarks {
        let oracle = b.oracle();
        assert_incremental_equals_scan(&b.name, &b.module, &oracle);
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
