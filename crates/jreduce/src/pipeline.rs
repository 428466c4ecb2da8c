//! End-to-end reduction drivers: the strategy registry plus the one
//! dispatcher every entry point funnels through.
//!
//! The paper evaluates reduction *strategies* against each other; this
//! module used to mirror that set as a closed enum, which made every
//! addition a six-crate edit. Strategies are now open values behind
//! `lbr-core`'s [`ReductionStrategy`] trait, registered by name in a
//! [`StrategyRegistry`] (see [`strategy_registry`]): the paper's tool
//! (`logical/greedy`, with its `logical/natural-order` and
//! `logical/minimized` variants), the J-Reduce baseline (`jreduce`), the
//! lossy encodings (`lossy-1`, `lossy-2`), validity-filtered ddmin
//! (`ddmin-items`), hierarchical delta debugging (`hdd`), and the
//! trace-guided GBR mode (`logical/trace-guided`).
//!
//! Every driver is generic over the input format: an [`Input`] frontend
//! supplies the logical and coarse models, and an [`InputOracle`]
//! supplies the failure predicate. The stages live in submodules —
//! [`logical`] (GBR with service hooks), [`baselines`] (J-Reduce, lossy,
//! ddmin), [`guided`] (HDD, trace-guided), [`per_error`] (the
//! per-error sweep) — all built on the [`probe`] module's candidate
//! probe and the `lbr-core` oracle middleware stack. This module owns
//! the dispatch and the report; the shared run vocabulary
//! ([`RunOptions`], [`ServiceHooks`], [`PipelineError`]) lives in
//! `lbr-core` and is re-exported here. The ergonomic front door is
//! [`ReductionSession`](crate::ReductionSession).

mod baselines;
mod guided;
mod logical;
mod per_error;
mod probe;
mod strategies;
#[cfg(test)]
mod tests;

pub use lbr_core::{
    PipelineError, ReductionStrategy, RunOptions, ServiceHooks, StrategyCaps, StrategyOutput,
    StrategyRegistry,
};
pub use per_error::PerErrorReport;
pub use strategies::{known_strategy, strategy_catalog, strategy_registry};

use lbr_classfile::Program;
use lbr_core::{Input, InputOracle, ModelStats, ProbeStats, ReductionTrace};
use std::time::Instant;

/// Size metrics of an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeMetrics {
    /// Number of top-level units (classes including interfaces for the
    /// classfile format; functions for stackvm).
    pub classes: usize,
    /// Serialized size in bytes.
    pub bytes: usize,
}

impl SizeMetrics {
    /// Measures an input.
    pub fn of<I: Input>(input: &I) -> Self {
        SizeMetrics {
            classes: input.unit_count(),
            bytes: input.byte_size(),
        }
    }
}

/// The outcome of one reduction run.
#[derive(Debug, Clone)]
pub struct ReductionReport<I = Program> {
    /// The strategy's canonical registry name
    /// ([`ReductionStrategy::name`]).
    pub strategy: String,
    /// Input sizes.
    pub initial: SizeMetrics,
    /// Output sizes.
    pub final_metrics: SizeMetrics,
    /// Number of black-box predicate invocations.
    pub predicate_calls: u64,
    /// The unified probe accounting: `useful_calls` always equals
    /// [`predicate_calls`](Self::predicate_calls); `memo_hits`/`memo_misses`
    /// are the per-run memo totals (see [`cache_hits`](Self::cache_hits));
    /// `speculative_calls` and `critical_path_calls` are zero / equal to
    /// the fresh-tool-run count for sequential runs and reflect wasted vs
    /// blocking probes when `probe_threads > 1`.
    pub probe_stats: ProbeStats,
    /// Wall-clock seconds of the whole run.
    pub wall_secs: f64,
    /// Modeled tool time (`calls × cost_per_call`).
    pub modeled_secs: f64,
    /// The reduction-over-time trace (sizes in bytes).
    pub trace: ReductionTrace,
    /// Model statistics, when a logical model was built.
    pub model_stats: Option<ModelStats>,
    /// The reduced input.
    pub reduced: I,
    /// Whether the reduced input still produces the full error message.
    pub errors_preserved: bool,
    /// Whether the reduced input still verifies.
    pub still_valid: bool,
}

impl<I> ReductionReport<I> {
    /// Final size relative to the input, in bytes (the paper's headline
    /// 4.6% vs 24.3%).
    pub fn relative_bytes(&self) -> f64 {
        self.final_metrics.bytes as f64 / self.initial.bytes.max(1) as f64
    }

    /// Final size relative to the input, in top-level units.
    pub fn relative_classes(&self) -> f64 {
        self.final_metrics.classes as f64 / self.initial.classes.max(1) as f64
    }

    /// Probes answered from the oracle's memo without re-running the tool
    /// (0 when memoization is off or the strategy bypasses the oracle).
    pub fn cache_hits(&self) -> u64 {
        self.probe_stats.memo_hits
    }

    /// Probes that actually ran the tool while memoization was on.
    pub fn cache_misses(&self) -> u64 {
        self.probe_stats.memo_misses
    }

    /// Re-types the reduced payload — e.g. serializing it with
    /// [`Input::to_bytes`] so callers can handle reports from different
    /// input formats uniformly.
    pub fn map_reduced<J>(self, f: impl FnOnce(I) -> J) -> ReductionReport<J> {
        ReductionReport {
            strategy: self.strategy,
            initial: self.initial,
            final_metrics: self.final_metrics,
            predicate_calls: self.predicate_calls,
            probe_stats: self.probe_stats,
            wall_secs: self.wall_secs,
            modeled_secs: self.modeled_secs,
            trace: self.trace,
            model_stats: self.model_stats,
            reduced: f(self.reduced),
            errors_preserved: self.errors_preserved,
            still_valid: self.still_valid,
        }
    }
}

/// Runs one strategy — by registry name or alias — on one benchmark.
///
/// `cost_per_call_secs` models the cost of one decompile+compile tool
/// invocation (the paper measured ≈33 s); it drives the modeled-time axis
/// of the Figure 8 reproductions.
///
/// # Errors
///
/// See [`PipelineError`]; an unregistered name surfaces as
/// [`PipelineError::UnknownStrategy`].
pub fn run_reduction<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    strategy: &str,
    cost_per_call_secs: f64,
) -> Result<ReductionReport<I>, PipelineError> {
    run_reduction_with(
        input,
        oracle,
        strategy,
        cost_per_call_secs,
        &RunOptions::default(),
    )
}

/// Like [`run_reduction`], with explicit performance [`RunOptions`]
/// (propagation mode and oracle memoization). Results are identical across
/// all option settings; only the wall-clock time differs.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn run_reduction_with<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    strategy: &str,
    cost_per_call_secs: f64,
    options: &RunOptions,
) -> Result<ReductionReport<I>, PipelineError> {
    dispatch(
        input,
        oracle,
        strategy,
        cost_per_call_secs,
        options,
        ServiceHooks::default(),
    )
}

/// The one dispatcher every entry point funnels through: look the
/// strategy up in the registry, check the input actually fails, run the
/// strategy, assemble the report. Hooks a strategy's
/// [`caps`](ReductionStrategy::caps) do not claim are ignored by that
/// strategy.
pub(crate) fn dispatch<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    strategy: &str,
    cost_per_call_secs: f64,
    options: &RunOptions,
    hooks: ServiceHooks<'_>,
) -> Result<ReductionReport<I>, PipelineError> {
    let registry = strategy_registry::<I>();
    let strat = registry
        .get(strategy)
        .ok_or_else(|| PipelineError::UnknownStrategy(strategy.to_owned()))?;
    if !oracle.is_failing() {
        return Err(PipelineError::NotFailing);
    }
    let start = Instant::now();
    let initial = SizeMetrics::of(input);
    let cost = cost_per_call_secs;
    let oracle_dyn: &dyn InputOracle<I> = &oracle;
    let StrategyOutput {
        reduced,
        calls,
        trace,
        model_stats,
        probe_stats,
    } = strat.run(input, oracle_dyn, cost, options, hooks)?;
    let errors_preserved = oracle.preserves_failure(&reduced);
    let still_valid = reduced.validate().is_empty();
    Ok(ReductionReport {
        strategy: strat.name().to_owned(),
        initial,
        final_metrics: SizeMetrics::of(&reduced),
        predicate_calls: calls,
        probe_stats,
        wall_secs: start.elapsed().as_secs_f64(),
        modeled_secs: calls as f64 * cost,
        trace,
        model_stats,
        reduced,
        errors_preserved,
        still_valid,
    })
}

/// Reduces once *per distinct baseline error* — the paper's observation
/// that "some cases have many distinct bugs; each bug requires GBR to do
/// an individual search". Each search preserves exactly one error message
/// and produces its own (usually much smaller) witness.
///
/// All searches run against the same instance and differ only in which
/// error they look for, so the expensive part of every probe — building
/// the candidate input and collecting its error set — is shared through
/// one cache keyed by keep-set. The first search pays for its probes; the
/// later searches re-probe many of the same subsets (every search starts
/// from the same `D₀`) and get them for free.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn run_per_error<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost_per_call_secs: f64,
) -> Result<PerErrorReport, PipelineError> {
    run_per_error_with(input, oracle, cost_per_call_secs, &RunOptions::default())
}

/// Like [`run_per_error`], with explicit performance [`RunOptions`].
///
/// With `probe_threads > 1` the individual searches — which are
/// embarrassingly parallel — run concurrently on scoped worker threads,
/// sharing one concurrent probe cache. Output is deterministic: rows,
/// traces, call counts, and cache totals are identical to the sequential
/// sweep (the cache computes each distinct subset exactly once under any
/// interleaving), and rows stay in baseline error order.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn run_per_error_with<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost_per_call_secs: f64,
    options: &RunOptions,
) -> Result<PerErrorReport, PipelineError> {
    per_error::run_sweep(input, oracle, cost_per_call_secs, options)
}

/// Convenience: run a strategy and panic-free assert the soundness bits
/// every run must satisfy (used by tests, the binaries, and the fuzzing
/// harness): error preserved, still verifying, not grown, and — because a
/// result is ultimately a *file* — the reduced input must survive a
/// round trip through the format's own serializer (serialize → parse →
/// equal → verify), frontend-agnostically via the [`Input`] trait.
pub fn check_report<I: Input>(report: &ReductionReport<I>) -> Result<(), String> {
    if !report.errors_preserved {
        return Err(format!(
            "{}: reduced input lost the error message",
            report.strategy
        ));
    }
    if !report.still_valid {
        return Err(format!(
            "{}: reduced input does not verify",
            report.strategy
        ));
    }
    if report.final_metrics.bytes > report.initial.bytes {
        return Err(format!("{}: reduction grew the input", report.strategy));
    }
    let bytes = report.reduced.to_bytes();
    let back = I::from_bytes(&bytes)
        .map_err(|e| format!("{}: round-trip re-parse failed: {e}", report.strategy))?;
    if back != report.reduced {
        return Err(format!(
            "{}: round trip changed the reduced input",
            report.strategy
        ));
    }
    let errors = back.validate();
    if !errors.is_empty() {
        return Err(format!(
            "{}: round-tripped input does not verify: {}",
            report.strategy,
            errors.join("; ")
        ));
    }
    Ok(())
}
