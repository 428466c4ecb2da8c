//! Speculative parallel probing is a pure wall-clock optimisation: at any
//! `probe_threads` setting the pipeline must produce bit-identical results
//! to the sequential run — same reduced program, same predicate-call
//! count, same cache totals, same trace. These tests pin that on the
//! paper's running example (Figure 1a) and on the synthetic suite.

use lbr::core::{
    closure_size_order, generalized_binary_reduction, generalized_binary_reduction_speculative,
    GbrConfig, Instance, Oracle, SpeculationConfig,
};
use lbr::fji::{figure1_program, figure1b_solution, figure2_cnf, figure2_var, ItemRegistry};
use lbr::jreduce::{check_report, run_per_error_with, run_reduction_with, RunOptions};
use lbr::logic::{count_models, VarSet};
use lbr::workload::{suite, SuiteConfig};

/// Everything a trace records except wall-clock timestamps, which are the
/// one thing speculation is *allowed* to change.
fn trace_shape(trace: &lbr::core::ReductionTrace) -> Vec<(u64, f64, u64, bool)> {
    trace
        .points()
        .iter()
        .map(|p| (p.call, p.modeled_secs, p.size, p.success))
        .collect()
}

#[test]
fn figure1a_speculative_gbr_matches_sequential_at_all_thread_counts() {
    let program = figure1_program();
    let reg = ItemRegistry::from_program(&program);
    // Figure 2's dependency model: 6,766 valid sub-inputs.
    assert_eq!(count_models(&lbr::fji::figure2_dependency_cnf(&reg)), 6_766);
    let cnf = figure2_cnf(&reg);
    let order = closure_size_order(&cnf);
    let instance = Instance::over_all_vars(cnf);
    let needed = [
        figure2_var(&reg, "A.m()!code"),
        figure2_var(&reg, "M.x()!code"),
        figure2_var(&reg, "M.main()!code"),
    ];

    let mut bug = |s: &VarSet| needed.iter().all(|v| s.contains(*v));
    let mut oracle = Oracle::new(&mut bug, 0.0);
    let sequential =
        generalized_binary_reduction(&instance, &order, &mut oracle, &GbrConfig::default())
            .expect("the example reduces");
    let sequential_calls = oracle.calls();
    assert_eq!(sequential.solution, figure1b_solution(&reg));

    for threads in [2usize, 4, 8] {
        let probe = |s: &VarSet| needed.iter().all(|v| s.contains(*v));
        let run = generalized_binary_reduction_speculative(
            &instance,
            &order,
            &probe,
            &GbrConfig::default(),
            &SpeculationConfig::new(threads),
        )
        .expect("the example reduces speculatively");
        assert_eq!(
            run.outcome.solution, sequential.solution,
            "threads {threads}: must land on the Figure 1b optimum"
        );
        assert_eq!(run.outcome.learned, sequential.learned, "threads {threads}");
        assert_eq!(
            run.stats.useful_calls, sequential_calls,
            "threads {threads}: logical probe count must not change"
        );
    }
}

#[test]
fn pipeline_probe_threads_is_bit_identical() {
    let benchmarks = suite(&SuiteConfig {
        seed: 7,
        programs: 1,
        scale: 0.6,
    });
    let strategies = ["logical/greedy", "lossy-1", "logical/trace-guided"];
    for b in &benchmarks {
        let oracle = b.oracle();
        for &strategy in &strategies {
            let sequential =
                run_reduction_with(&b.program, &oracle, strategy, 0.5, &RunOptions::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            check_report(&sequential).expect("sequential sound");
            for threads in [2usize, 4] {
                let options = RunOptions {
                    probe_threads: threads,
                    ..RunOptions::default()
                };
                let parallel = run_reduction_with(&b.program, &oracle, strategy, 0.5, &options)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                check_report(&parallel).expect("parallel sound");
                assert_eq!(parallel.reduced, sequential.reduced, "{}", b.name);
                assert_eq!(parallel.predicate_calls, sequential.predicate_calls);
                assert_eq!(parallel.cache_hits(), sequential.cache_hits());
                assert_eq!(parallel.cache_misses(), sequential.cache_misses());
                assert_eq!(parallel.final_metrics, sequential.final_metrics);
                assert_eq!(trace_shape(&parallel.trace), trace_shape(&sequential.trace));
                // Modeled time charges only the logical probe sequence, so
                // wasted speculation must not inflate it.
                assert!((parallel.modeled_secs - sequential.modeled_secs).abs() < 1e-9);
                assert_eq!(
                    parallel.probe_stats.useful_calls, parallel.predicate_calls,
                    "useful probes are exactly the logical probes"
                );
            }
        }
    }
}

#[test]
fn per_error_parallel_is_deterministic() {
    let benchmarks = suite(&SuiteConfig {
        seed: 13,
        programs: 1,
        scale: 0.6,
    });
    let b = &benchmarks[0];
    let oracle = b.oracle();
    let sequential = run_per_error_with(&b.program, &oracle, 0.0, &RunOptions::default())
        .expect("sequential per-error runs");
    for threads in [2usize, 4, 8] {
        let options = RunOptions {
            probe_threads: threads,
            ..RunOptions::default()
        };
        let parallel =
            run_per_error_with(&b.program, &oracle, 0.0, &options).expect("parallel runs");
        assert_eq!(parallel.errors, sequential.errors, "threads {threads}");
        assert_eq!(parallel.total_calls, sequential.total_calls);
        assert_eq!(
            trace_shape(&parallel.combined_trace),
            trace_shape(&sequential.combined_trace)
        );
        // The run-once sharded memo gives the same hit/miss totals as the
        // sequential shared cache, under any worker interleaving.
        assert_eq!(parallel.cache_hits, sequential.cache_hits);
        assert_eq!(parallel.cache_misses, sequential.cache_misses);
    }
}
