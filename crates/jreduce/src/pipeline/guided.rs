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
//!   *under a trace recorder*, then seeds GBR's search space with the
//!   covered set (the intersection of the failure-preserving probes'
//!   keep-sets) and orders its progression by per-item trace frequency
//!   ([`history_order`]).

use crate::pipeline::probe::{wrap_oracle, CandidateProbe};
use crate::pipeline::{PipelineError, RunOptions, ServiceHooks};
use lbr_core::{
    ddmin, history_order, ConcurrentPredicate, DepGraph, GbrConfig, GbrError, Input, InputOracle,
    LatencyLayer, OracleStack, Predicate, ProbeStats, ProgressionBuilder, ReductionTrace,
    StrategyOutput, TestOutcome, TraceLayer,
};
use lbr_logic::{ClauseShape, Cnf, MsaStrategy, Var, VarSet};
use std::cell::Cell;
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

/// The trace-guided GBR mode. Phase A runs Binary Reduction over the
/// lossy-1 graph encoding — cheap, and sound for our models — with a
/// [`TraceLayer`] recording per-probe coverage (optionally backed by the
/// service cache as a cross-run trace store). Phase B runs GBR with its
/// search space seeded from the covered set and its progression ordered
/// by trace frequency: items that most failing probes kept are probably
/// required, so they surface in early progression entries and the binary
/// search localizes the rest in fewer probes.
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
    // Phase A: a coverage sweep of deletion probes. Slice the remaining
    // items into contiguous index runs (frontends number items unit by
    // unit, so a slice is roughly a run of whole classes or functions),
    // probe the dep-pruned complement of each slice, and intersect the
    // failing complements: the items every failure-preserving probe kept
    // are the covered set — coverage-based debloating's prior, recast
    // over keep-sets — and become Phase B's search space. A handful of
    // probes localizes the failure to a fraction of the items, so GBR's
    // progressions and binary searches run over a far shorter list than
    // a cold start's.
    let closures = edge_closures(cnf);
    let mut trace = ReductionTrace::new();
    let start = Instant::now();
    let mut calls_a = 0u64;
    let cancelled = || hooks.cancel.is_some_and(|c| c());
    {
        const SLICES: usize = 6;
        const ROUNDS: usize = 2;
        let mut survivor = VarSet::full(n);
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
                calls_a += 1;
                let probe = stack.probe(&candidate);
                trace.record(
                    calls_a,
                    start.elapsed().as_secs_f64(),
                    calls_a as f64 * cost,
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
            // instance of the error, so verify the intersection still
            // fails before recursing into it.
            if cancelled() {
                break;
            }
            calls_a += 1;
            let probe = stack.probe(&candidate);
            trace.record(
                calls_a,
                start.elapsed().as_secs_f64(),
                calls_a as f64 * cost,
                probe.size,
                probe.outcome,
            );
            if !probe.outcome {
                break;
            }
            survivor = candidate;
        }
    }
    // Phase B: GBR with a trace-guided boundary search. The sweep's
    // covered set seeds the search space, its frequencies order the
    // progression, and — the trace's second dividend — each iteration's
    // binary search is replaced by a backward gallop from the end of the
    // progression, started at the boundary gap the previous iteration's
    // probes recorded. Leaves-first orders put the failure boundary at
    // the top of the dependency tree, so the minimal failing prefix sits
    // a handful of entries from the end and the gallop brackets it in
    // ~2·log2(gap) probes instead of log2(len).
    let coverage = trace_layer.snapshot();
    let seed = match coverage.covered() {
        Some(covered) if cnf.eval(covered) => covered.clone(),
        _ => VarSet::full(n),
    };
    let order_b = history_order(cnf, coverage.frequencies());
    // One builder for the whole phase: the learned sets only grow, so the
    // incremental engine installs each once and every progression is
    // assumption levels over the same clause set. `RunOptions::legacy()`
    // selects the scan-based reference.
    let mut builder = ProgressionBuilder::new(
        cnf,
        n,
        &GbrConfig {
            msa_strategy: MsaStrategy::GreedyClosure,
            propagation: options.propagation,
            ..GbrConfig::default()
        },
    );
    let last_bytes_b = Cell::new(0u64);
    let mut predicate_b = |k: &VarSet| {
        let probe = stack.probe(k);
        last_bytes_b.set(probe.size);
        probe.outcome
    };
    let mut wrapped_b = wrap_oracle(&mut predicate_b, cost, |_| last_bytes_b.get(), options);
    let mut learned: Vec<VarSet> = Vec::new();
    let mut search_space = seed;
    let mut prev_gap = 1usize;
    let max_iterations = 4 * n + 16;
    let mut iteration = 0usize;
    let solution = loop {
        if iteration == max_iterations {
            return Err(GbrError::IterationLimit.into());
        }
        if cancelled() {
            return Err(GbrError::Cancelled.into());
        }
        iteration += 1;
        let progression = builder.progression(&order_b, &learned, &search_space)?;
        let mut prefix_unions: Vec<VarSet> = Vec::with_capacity(progression.len());
        let mut acc = VarSet::empty(n);
        for d in &progression {
            acc.union_with(d);
            prefix_unions.push(acc.clone());
        }
        // D₀: the minimal valid candidate. Failing means done.
        if wrapped_b.test(&prefix_unions[0]) {
            break prefix_unions[0].clone();
        }
        if progression.len() == 1 {
            return Err(GbrError::PredicateNotMonotone.into());
        }
        let last = progression.len() - 1;
        let mut lo = 0usize; // D₀ just passed
        let mut hi = last; // fails by INV-PRO (it is the search space)
        let mut hi_verified = false;
        // Backward gallop: probe last-gap, last-2·gap, ... until a prefix
        // passes (or the range is exhausted), then bisect the bracket.
        let mut offset = prev_gap.max(1);
        while offset < last {
            if cancelled() {
                return Err(GbrError::Cancelled.into());
            }
            let idx = last - offset;
            if wrapped_b.test(&prefix_unions[idx]) {
                hi = idx;
                hi_verified = true;
                offset = offset.saturating_mul(2);
            } else {
                lo = idx;
                break;
            }
        }
        while hi - lo > 1 {
            if cancelled() {
                return Err(GbrError::Cancelled.into());
            }
            let mid = lo + (hi - lo) / 2;
            if wrapped_b.test(&prefix_unions[mid]) {
                hi = mid;
                hi_verified = true;
            } else {
                lo = mid;
            }
        }
        if !hi_verified && !wrapped_b.test(&prefix_unions[hi]) {
            return Err(GbrError::PredicateNotMonotone.into());
        }
        let r = hi;
        prev_gap = (last - r).max(1);
        learned.push(progression[r].clone());
        search_space = prefix_unions[r].clone();
    };
    let calls_b = wrapped_b.calls();
    let (hits_b, misses_b) = (wrapped_b.cache_hits(), wrapped_b.cache_misses());
    trace.append_sequential(&wrapped_b.into_trace());
    let total = calls_a + calls_b;
    let reduced = (model.materialize)(&solution);
    Ok(StrategyOutput {
        reduced,
        calls: total,
        trace,
        model_stats: Some(stats),
        probe_stats: ProbeStats::sequential(total, hits_b, calls_a + misses_b),
    })
}
