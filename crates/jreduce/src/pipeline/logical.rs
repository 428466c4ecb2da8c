//! The paper's reducer: logical model + Generalized Binary Reduction,
//! with optional service hooks (external cache, cancellation,
//! checkpoint/resume) and the minimization postpass variant. Generic
//! over the input format: the frontend's [`Input::model`] supplies the
//! CNF and the solution applier.

use crate::pipeline::probe::{wrap_oracle, CandidateProbe, OrderKind};
use crate::pipeline::{PipelineError, RunOptions, ServiceHooks};
use lbr_core::{
    closure_size_order, generalized_binary_reduction, generalized_binary_reduction_controlled,
    generalized_binary_reduction_speculative_controlled, CacheLayer, ConcurrentPredicate,
    GbrConfig, GbrControl, Input, InputOracle, Instance, LatencyLayer, OracleStack, ProbeStats,
    ReductionTrace, SpeculationConfig, StrategyOutput,
};
use lbr_logic::{VarOrder, VarSet};
use std::cell::Cell;

/// GBR over the logical model. The oracle middleware is assembled here:
/// `[cache?, latency]` over the base candidate probe, beneath the per-run
/// memo/trace bookkeeping of either the sequential [`lbr_core::Oracle`]
/// or the speculative scheduler — so cache hits never sleep and memoized
/// repeats never reach the stack at all.
pub(crate) fn run_hooked<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    order_kind: OrderKind,
    cost: f64,
    options: &RunOptions,
    mut hooks: ServiceHooks<'_>,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let order = match order_kind {
        OrderKind::ClosureSize => closure_size_order(&model.cnf),
        OrderKind::Natural => lbr_core::natural_order(&model.cnf),
    };
    let instance = Instance::over_all_vars(model.cnf.clone());
    let config = GbrConfig {
        propagation: options.propagation,
        ..GbrConfig::default()
    };
    let mut control = GbrControl {
        cancel: hooks.cancel,
        checkpoint: hooks.checkpoint.take(),
        resume: hooks.resume.take(),
    };
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let cache_layer = hooks.cache.map(CacheLayer::new);
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let mut stack = OracleStack::new(&base);
    if let Some(layer) = &cache_layer {
        stack.push(layer);
    }
    stack.push(&latency);
    let (solution, trace, probe_stats) = run_gbr(
        &instance,
        &order,
        &config,
        &stack,
        cost,
        options,
        &mut control,
    )?;
    let reduced = (model.materialize)(&solution);
    Ok(StrategyOutput {
        reduced,
        calls: probe_stats.useful_calls,
        trace,
        model_stats: Some(stats),
        probe_stats,
    })
}

/// One controlled GBR run over an assembled oracle stack — the call every
/// GBR strategy's search makes. With `probe_threads > 1` it probes
/// speculatively: the scheduler's concurrent memo subsumes the oracle memo
/// (distinct demanded subsets run the tool once either way), so the same
/// deterministic hit/miss counts come back in the stats. Otherwise the
/// sequential [`lbr_core::Oracle`] wraps the stack. Returns the solution,
/// the trace of demanded probes and their accounting.
pub(crate) fn run_gbr(
    instance: &Instance,
    order: &VarOrder,
    config: &GbrConfig,
    stack: &dyn ConcurrentPredicate,
    cost: f64,
    options: &RunOptions,
    control: &mut GbrControl<'_>,
) -> Result<(VarSet, ReductionTrace, ProbeStats), PipelineError> {
    if options.probe_threads > 1 {
        let spec = SpeculationConfig {
            threads: options.probe_threads,
            cost_per_call_secs: cost,
        };
        let run = generalized_binary_reduction_speculative_controlled(
            instance, order, stack, config, &spec, control,
        )?;
        return Ok((run.outcome.solution, run.trace, run.stats));
    }
    let last_bytes = Cell::new(0u64);
    let mut predicate = |keep: &VarSet| {
        let probe = stack.probe(keep);
        last_bytes.set(probe.size);
        probe.outcome
    };
    let mut wrapped = wrap_oracle(&mut predicate, cost, |_| last_bytes.get(), options);
    let outcome =
        generalized_binary_reduction_controlled(instance, order, &mut wrapped, config, control)?;
    let stats = ProbeStats::sequential(
        wrapped.calls(),
        wrapped.cache_hits(),
        wrapped.cache_misses(),
    );
    Ok((outcome.solution, wrapped.into_trace(), stats))
}

/// GBR followed by the local-minimization postpass: extra tool runs for a
/// possibly smaller output.
pub(crate) fn run_minimized<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let order = closure_size_order(&model.cnf);
    let instance = Instance::over_all_vars(model.cnf.clone());
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
    let mut wrapped = wrap_oracle(&mut predicate, cost, |_| last_bytes.get(), options);
    let config = GbrConfig {
        propagation: options.propagation,
        ..GbrConfig::default()
    };
    let outcome = generalized_binary_reduction(&instance, &order, &mut wrapped, &config)?;
    let (minimized, _stats) =
        lbr_core::minimize_solution(&instance, &order, &mut wrapped, &outcome.solution);
    let calls = wrapped.calls();
    let (cache_hits, cache_misses) = (wrapped.cache_hits(), wrapped.cache_misses());
    let trace = wrapped.into_trace();
    let reduced = (model.materialize)(&minimized);
    Ok(StrategyOutput {
        reduced,
        calls,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(calls, cache_hits, cache_misses),
    })
}
