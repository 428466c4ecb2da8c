//! The evaluated baselines: J-Reduce-style coarse-graph Binary
//! Reduction, the lossy graph encodings, and validity-filtered ddmin —
//! all generic over the input format via [`Input`]'s models.

use crate::pipeline::probe::{wrap_oracle, CandidateProbe};
use crate::pipeline::{PipelineError, RunOptions};
use lbr_core::{
    binary_reduction, closure_size_order, ddmin, lossy_graph, ConcurrentPredicate, DepGraph, Input,
    InputOracle, LatencyLayer, LossyPick, OracleStack, ProbeStats, ReductionTrace, StrategyOutput,
    TestOutcome,
};
use lbr_logic::VarSet;
use std::cell::Cell;
use std::time::Instant;

/// The J-Reduce baseline: coarse unit graph + Binary Reduction over
/// closures.
pub(crate) fn run_jreduce<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
) -> Result<StrategyOutput<I>, PipelineError> {
    let coarse = input.coarse_model();
    let base = CandidateProbe {
        materialize: &*coarse.materialize,
        oracle,
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let stack = OracleStack::new(&base).with(&latency);
    let last_bytes = Cell::new(0u64);
    let mut predicate = |keep: &VarSet| {
        let probe = stack.probe(keep);
        last_bytes.set(probe.size);
        probe.outcome
    };
    let mut wrapped = wrap_oracle(&mut predicate, cost, |_| last_bytes.get());
    let outcome = binary_reduction(&coarse.graph, &mut wrapped)?;
    let calls = wrapped.calls();
    let (cache_hits, cache_misses) = (wrapped.cache_hits(), wrapped.cache_misses());
    let trace = wrapped.into_trace();
    let reduced = (coarse.materialize)(&outcome.solution);
    Ok(StrategyOutput {
        reduced,
        calls,
        trace,
        model_stats: None,
        probe_stats: ProbeStats::sequential(calls, cache_hits, cache_misses),
    })
}

/// A lossy encoding of the logical model + Binary Reduction.
pub(crate) fn run_lossy<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    pick: LossyPick,
    cost: f64,
    options: &RunOptions,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let order = closure_size_order(&model.cnf);
    let lg = lossy_graph(&model.cnf, &order, pick).ok_or(PipelineError::LossyContradiction)?;
    if !lg.forbidden.is_empty() {
        // Our models generate no purely negative clauses, so a non-empty
        // forbidden set indicates a contradictory encoding.
        return Err(PipelineError::LossyContradiction);
    }
    let graph: DepGraph = lg.graph;
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let stack = OracleStack::new(&base).with(&latency);
    let last_bytes = Cell::new(0u64);
    let mut predicate = |keep: &VarSet| {
        let probe = stack.probe(keep);
        last_bytes.set(probe.size);
        probe.outcome
    };
    let mut wrapped = wrap_oracle(&mut predicate, cost, |_| last_bytes.get());
    let outcome = binary_reduction(&graph, &mut wrapped)?;
    let calls = wrapped.calls();
    let (cache_hits, cache_misses) = (wrapped.cache_hits(), wrapped.cache_misses());
    let trace = wrapped.into_trace();
    let reduced = (model.materialize)(&outcome.solution);
    Ok(StrategyOutput {
        reduced,
        calls,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(calls, cache_hits, cache_misses),
    })
}

/// ddmin over items with a validity filter: invalid candidates answer
/// "don't know" without running (or counting) a tool invocation.
pub(crate) fn run_ddmin<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let n = model.cnf.num_vars();
    let atoms: Vec<VarSet> = (0..n as u32)
        .map(|i| VarSet::from_iter_with_universe(n, [lbr_logic::Var::new(i)]))
        .collect();
    let cnf = &model.cnf;
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let stack = OracleStack::new(&base).with(&latency);
    let mut trace = ReductionTrace::new();
    let mut calls = 0u64;
    let start = Instant::now();
    let (solution, _stats) = ddmin(&atoms, n, |keep| {
        if !cnf.eval(keep) {
            return TestOutcome::Unresolved; // invalid — "don't know"
        }
        calls += 1;
        let probe = stack.probe(keep);
        trace.record(
            calls,
            start.elapsed().as_secs_f64(),
            calls as f64 * cost,
            probe.size,
            probe.outcome,
        );
        if probe.outcome {
            TestOutcome::Fail
        } else {
            TestOutcome::Pass
        }
    });
    let reduced = (model.materialize)(&solution);
    Ok(StrategyOutput {
        reduced,
        calls,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(calls, 0, 0),
    })
}
