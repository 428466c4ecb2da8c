//! Integration tests for the extension features: per-error reduction and
//! the local-minimization postpass.

use lbr::jreduce::{check_report, run_per_error, run_reduction};
use lbr::workload::{suite, SuiteConfig};

fn one_benchmark() -> lbr::workload::Benchmark {
    suite(&SuiteConfig {
        seed: 21,
        programs: 1,
        scale: 0.8,
    })
    .into_iter()
    .next()
    .expect("a failing instance")
}

#[test]
fn per_error_reduction_produces_one_witness_per_error() {
    let b = one_benchmark();
    let oracle = b.oracle();
    let report = run_per_error(&b.program, &oracle, 33.0).expect("per-error runs");
    assert_eq!(
        report.errors.len(),
        oracle.error_count(),
        "one reduction per distinct baseline error"
    );
    let full = run_reduction(&b.program, &oracle, "logical/greedy", 33.0).expect("full run");
    // Each single-error witness is at most as large as the all-errors one.
    for (error, size) in &report.errors {
        assert!(
            size.bytes <= full.final_metrics.bytes,
            "witness for {error:?} ({}) larger than the all-errors result ({})",
            size.bytes,
            full.final_metrics.bytes
        );
    }
    // The combined trace reads as one sequential run.
    let points = report.combined_trace.points();
    assert_eq!(points.last().expect("nonempty").call, report.total_calls);
    assert!(points.windows(2).all(|w| w[0].call < w[1].call));
}

#[test]
fn minimized_strategy_is_sound_and_not_larger() {
    let b = one_benchmark();
    let oracle = b.oracle();
    let plain = run_reduction(&b.program, &oracle, "logical/greedy", 0.0).expect("plain runs");
    let minimized =
        run_reduction(&b.program, &oracle, "logical/minimized", 0.0).expect("minimized runs");
    check_report(&plain).expect("plain sound");
    check_report(&minimized).expect("minimized sound");
    assert!(
        minimized.final_metrics.bytes <= plain.final_metrics.bytes,
        "postpass must never grow the result ({} vs {})",
        minimized.final_metrics.bytes,
        plain.final_metrics.bytes
    );
    assert!(
        minimized.predicate_calls >= plain.predicate_calls,
        "the postpass spends extra predicate calls"
    );
}
