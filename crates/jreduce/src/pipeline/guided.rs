//! The baseline zoo's new members: hierarchical delta debugging over the
//! item containment tree and the trace-guided GBR mode fed by the
//! [`TraceLayer`]'s coverage recorder.
//!
//! Both run over the same fine logical model as the paper's
//! reducer, differing only in *which candidates* they probe:
//!
//! * **HDD** sweeps the containment tree level by level
//!   ([`InputModel::levels`]), running validity-filtered ddmin over each
//!   level's items with deeper items pruned to their dependencies,
//! * **trace-guided** runs a cheap coverage sweep of deletion probes
//!   *under a trace recorder*, then runs plain GBR's loop — the same
//!   `lbr-core` entry points `logical/greedy` calls — with the covered
//!   set (the intersection of the failure-preserving probes' keep-sets)
//!   as its search space, per-item trace frequency ([`history_order`]) as
//!   its order, and [`BoundarySearch::Gallop`] as its boundary search.
//!   It therefore checkpoints, resumes, cancels and speculates like plain
//!   GBR.

use crate::pipeline::logical::run_gbr;
use crate::pipeline::probe::CandidateProbe;
use crate::pipeline::{PipelineError, RunOptions, ServiceHooks};
use lbr_core::{
    ddmin, history_order, BoundarySearch, ConcurrentPredicate, CoverageTrace, DepGraph, GbrConfig,
    GbrControl, Input, InputOracle, Instance, LatencyLayer, OracleStack, ProbeStats,
    ReductionTrace, StrategyOutput, TestOutcome, TraceLayer,
};
use lbr_logic::{ClauseShape, Cnf, Var, VarOrder, VarSet};
use std::time::Instant;

/// Per-variable dependency closures over the edge-shaped clauses of the
/// model (the same edges [`lbr_core::closure_size_order`] ranks by). Used
/// to prune hierarchical candidates: removing an item also removes
/// everything whose edge-dependencies it breaks.
fn edge_closures(cnf: &Cnf) -> Vec<VarSet> {
    let n = cnf.num_vars();
    let mut graph = DepGraph::new(n);
    for c in cnf.clauses() {
        if let ClauseShape::Edge { from, to } = c.shape() {
            graph.add_edge(from, to);
        }
    }
    (0..n)
        .map(|i| graph.closure_of([Var::new(i as u32)]))
        .collect()
}

/// The largest subset of `candidate` whose edge-dependencies are all
/// inside `candidate`. One pass suffices: closures are transitive, so a
/// variable whose full closure fits survives together with that closure.
fn prune_to_deps(candidate: &VarSet, closures: &[VarSet]) -> VarSet {
    let mut pruned = VarSet::empty(closures.len());
    for v in candidate.iter() {
        if closures[v.index()].is_subset(candidate) {
            pruned.insert(v);
        }
    }
    pruned
}

/// The per-variable containment levels, padded defensively to the model's
/// variable count (a frontend reporting no hierarchy gets one flat level).
fn model_levels(levels: &[u8], n: usize) -> Vec<u8> {
    if levels.len() == n {
        levels.to_vec()
    } else {
        vec![0; n]
    }
}

/// Hierarchical delta debugging over the item containment tree: ddmin at
/// each containment level, coarsest first, with candidates pruned to
/// their edge-dependencies and validity-filtered against the full model
/// (invalid candidates answer "don't know" without a tool run, exactly
/// like the flat ddmin baseline).
pub(crate) fn run_hdd<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let cnf = &model.cnf;
    let n = cnf.num_vars();
    let levels = model_levels(&model.levels, n);
    let closures = edge_closures(cnf);
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let stack = OracleStack::new(&base).with(&latency);
    let mut trace = ReductionTrace::new();
    let mut calls = 0u64;
    let start = Instant::now();
    let mut keep = VarSet::full(n);
    let max_level = levels.iter().copied().max().unwrap_or(0);
    for level in 0..=max_level {
        let level_vars: Vec<Var> = keep.iter().filter(|v| levels[v.index()] == level).collect();
        if level_vars.is_empty() {
            continue;
        }
        let atoms: Vec<VarSet> = level_vars
            .iter()
            .map(|&v| VarSet::from_iter_with_universe(n, [v]))
            .collect();
        let mut fixed = keep.clone();
        for &v in &level_vars {
            fixed.remove(v);
        }
        let (solution, _stats) = ddmin(&atoms, n, |selected| {
            let candidate = prune_to_deps(&fixed.union(selected), &closures);
            if !cnf.eval(&candidate) {
                return TestOutcome::Unresolved; // invalid — "don't know"
            }
            calls += 1;
            let probe = stack.probe(&candidate);
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
        keep = prune_to_deps(&fixed.union(&solution), &closures);
    }
    let reduced = (model.materialize)(&keep);
    Ok(StrategyOutput {
        reduced,
        calls,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(calls, 0, 0),
    })
}

/// Phase A of the trace-guided mode: a coverage sweep of deletion probes
/// through `stack`, whose [`TraceLayer`] records each probe's coverage.
/// Slice the remaining items into contiguous index runs (frontends number
/// items unit by unit, so a slice is roughly a run of whole classes or
/// functions), probe the dep-pruned complement of each slice, and
/// intersect the failing complements: the items every failure-preserving
/// probe kept are the covered set — coverage-based debloating's prior,
/// recast over keep-sets — and become Phase B's search space. A handful
/// of probes localizes the failure to a fraction of the items, so GBR's
/// progressions and binary searches run over a far shorter list than a
/// cold start's. Returns the sweep's trace and its probe count.
fn coverage_sweep(
    cnf: &Cnf,
    stack: &OracleStack<'_>,
    cost: f64,
    cancelled: &dyn Fn() -> bool,
) -> (ReductionTrace, u64) {
    const SLICES: usize = 6;
    const ROUNDS: usize = 2;
    let closures = edge_closures(cnf);
    let mut trace = ReductionTrace::new();
    let start = Instant::now();
    let mut calls = 0u64;
    let mut survivor = VarSet::full(cnf.num_vars());
    'sweep: for _round in 0..ROUNDS {
        let vars: Vec<Var> = survivor.iter().collect();
        if vars.len() < 2 * SLICES {
            break;
        }
        let mut intersection = survivor.clone();
        let mut smallest_failing: Option<VarSet> = None;
        for slice in vars.chunks(vars.len().div_ceil(SLICES)) {
            if cancelled() {
                break 'sweep;
            }
            let mut candidate = survivor.clone();
            for &v in slice {
                candidate.remove(v);
            }
            let candidate = prune_to_deps(&candidate, &closures);
            if candidate == survivor || candidate.is_empty() || !cnf.eval(&candidate) {
                continue;
            }
            calls += 1;
            let probe = stack.probe(&candidate);
            trace.record(
                calls,
                start.elapsed().as_secs_f64(),
                calls as f64 * cost,
                probe.size,
                probe.outcome,
            );
            if probe.outcome {
                intersection.intersect_with(&candidate);
                if smallest_failing
                    .as_ref()
                    .is_none_or(|s| candidate.len() < s.len())
                {
                    smallest_failing = Some(candidate);
                }
            }
        }
        let Some(smallest) = smallest_failing else {
            break; // every complement passed — no localization signal
        };
        let candidate = prune_to_deps(&intersection, &closures);
        if candidate == survivor || !cnf.eval(&candidate) {
            break;
        }
        if candidate == smallest {
            survivor = candidate; // already probed failing this round
            continue;
        }
        // Distinct failing complements may each hold a different
        // instance of the error, so verify the intersection still fails
        // before recursing into it.
        if cancelled() {
            break;
        }
        calls += 1;
        let probe = stack.probe(&candidate);
        trace.record(
            calls,
            start.elapsed().as_secs_f64(),
            calls as f64 * cost,
            probe.size,
            probe.outcome,
        );
        if !probe.outcome {
            break;
        }
        survivor = candidate;
    }
    (trace, calls)
}

/// Phase B's start: the sweep's covered set seeds the search space (the
/// whole input when the sweep found no failing probe, or its covered set
/// is not a model) and its trace frequencies order the progression.
fn phase_b_start(cnf: &Cnf, coverage: &CoverageTrace) -> (VarSet, VarOrder) {
    let seed = match coverage.covered() {
        Some(covered) if cnf.eval(covered) => covered.clone(),
        _ => VarSet::full(cnf.num_vars()),
    };
    (seed, history_order(cnf, coverage.frequencies()))
}

/// The search space and variable order `logical/trace-guided`'s Phase B
/// starts GBR from on `input`. Re-runs Phase A's coverage sweep against
/// `oracle`; the sweep is deterministic, so these are exactly the seed and
/// order a run of the strategy uses. Together with the `(learned,
/// search_space)` pairs the run's checkpoint hook received they determine
/// every progression Phase B built, which lets a test replay them.
///
/// # Errors
///
/// [`PipelineError::Model`] when the logical model does not build.
pub fn trace_guided_start<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
) -> Result<(VarSet, VarOrder), PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let cnf = &model.cnf;
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let trace_layer = TraceLayer::new(cnf.num_vars());
    let mut stack = OracleStack::new(&base);
    stack.push(&trace_layer);
    coverage_sweep(cnf, &stack, 0.0, &|| false);
    Ok(phase_b_start(cnf, &trace_layer.snapshot()))
}

/// The trace-guided GBR mode. Phase A runs a coverage sweep of
/// dependency-pruned deletion probes with a [`TraceLayer`] recording
/// per-probe coverage (optionally backed by the service cache as a
/// cross-run trace store). Phase B runs GBR with its search space seeded
/// from the covered set, its progression ordered by trace frequency and
/// its boundary found by a gallop: items that most failing probes kept
/// are probably required, so they surface in early progression entries
/// and the boundary search localizes the rest in fewer probes.
pub(crate) fn run_trace_guided<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost: f64,
    options: &RunOptions,
    hooks: ServiceHooks<'_>,
) -> Result<StrategyOutput<I>, PipelineError> {
    let model = input.model().map_err(PipelineError::Model)?;
    let stats = model.stats;
    let cnf = &model.cnf;
    let n = cnf.num_vars();
    let base = CandidateProbe {
        materialize: &*model.materialize,
        oracle,
    };
    let trace_layer = match hooks.cache {
        Some(store) => TraceLayer::with_store(n, store),
        None => TraceLayer::new(n),
    };
    let latency = LatencyLayer::new(options.probe_latency_micros);
    let mut stack = OracleStack::new(&base);
    stack.push(&trace_layer);
    stack.push(&latency);
    let cancelled = || hooks.cancel.is_some_and(|c| c());
    let (mut trace, calls_a) = coverage_sweep(cnf, &stack, cost, &cancelled);
    // Phase B: GBR with a trace-guided boundary search — the same
    // `run_gbr` call plain GBR makes, so it checkpoints, resumes,
    // speculates and cancels like `logical/greedy`. The sweep's covered
    // set seeds the search space, its frequencies order the progression,
    // and each iteration gallops backward from the boundary gap the
    // previous one recorded ([`BoundarySearch::Gallop`]). A resumed run
    // re-runs the sweep above (the trace store answers its probes) to
    // rebuild the seed and order the checkpoint was taken with.
    let (seed, order) = phase_b_start(cnf, &trace_layer.snapshot());
    let instance = Instance::new(seed, cnf.clone());
    let config = GbrConfig {
        boundary: BoundarySearch::Gallop,
        ..GbrConfig::default()
    };
    let mut control = GbrControl {
        cancel: hooks.cancel,
        checkpoint: hooks.checkpoint,
        resume: hooks.resume,
    };
    let (solution, trace_b, stats_b) = run_gbr(
        &instance,
        &order,
        &config,
        &stack,
        cost,
        options,
        &mut control,
    )?;
    trace.append_sequential(&trace_b);
    // Phase A's probes are distinct fresh tool runs on the critical path.
    let probe_stats = ProbeStats {
        useful_calls: calls_a + stats_b.useful_calls,
        critical_path_calls: calls_a + stats_b.critical_path_calls,
        memo_misses: calls_a + stats_b.memo_misses,
        ..stats_b
    };
    let reduced = (model.materialize)(&solution);
    Ok(StrategyOutput {
        reduced,
        calls: probe_stats.useful_calls,
        trace,
        model_stats: Some(stats),
        probe_stats,
    })
}
