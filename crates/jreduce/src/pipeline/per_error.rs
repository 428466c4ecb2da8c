//! The per-error sweep: one GBR search per distinct baseline error, all
//! sharing one run-once probe cache. Generic over the input format.

use crate::pipeline::probe::emulate_tool_latency;
use crate::pipeline::{PipelineError, RunOptions, SizeMetrics};
use lbr_core::{
    closure_size_order, generalized_binary_reduction, GbrConfig, Input, InputOracle, Instance,
    Oracle, ReductionTrace, ShardedMemo,
};
use lbr_logic::VarSet;
use std::cell::Cell;
use std::collections::BTreeSet;

/// The result of a per-error reduction sweep.
#[derive(Debug, Clone)]
pub struct PerErrorReport {
    /// One `(error message, reduced size)` row per distinct baseline
    /// error, in message order.
    pub errors: Vec<(String, SizeMetrics)>,
    /// The traces of all searches, concatenated sequentially (the way the
    /// paper's long-running cases accumulate "951 decompilations …").
    pub combined_trace: ReductionTrace,
    /// Total predicate invocations across all searches.
    pub total_calls: u64,
    /// Probes answered by the shared error cache without re-running the
    /// tool. The searches all start from the same instance, so every
    /// search after the first begins with guaranteed hits.
    pub cache_hits: u64,
    /// Probes that actually decompiled a candidate.
    pub cache_misses: u64,
}

impl PerErrorReport {
    /// Fraction of probes served from the cache (`0.0` before any probe).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The per-error sweep. Each baseline error's GBR search is independent,
/// so workers claim error indices atomically and write results into
/// per-error slots; the report is assembled in baseline order afterwards.
/// One worker (the `probe_threads: 1` default) processes the errors
/// strictly in order; more workers run searches concurrently with
/// identical output — rows, traces, call counts and cache totals — because
/// the shared run-once memo computes each distinct subset exactly once
/// under any interleaving.
pub(crate) fn run_sweep<I: Input, O: InputOracle<I> + ?Sized>(
    input: &I,
    oracle: &O,
    cost_per_call_secs: f64,
    options: &RunOptions,
) -> Result<PerErrorReport, PipelineError> {
    if !oracle.is_failing() {
        return Err(PipelineError::NotFailing);
    }
    let model = input.model().map_err(PipelineError::Model)?;
    let order = closure_size_order(&model.cnf);
    let instance = Instance::over_all_vars(model.cnf.clone());
    let materialize = &*model.materialize;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let errors: Vec<String> = oracle.baseline().iter().cloned().collect();
    // Shared across all searches: keep-set → (error messages, bytes). The
    // run-once claim discipline makes the hit/miss totals deterministic
    // (misses = distinct subsets probed) at any worker count: later
    // searches hit what earlier ones cached.
    let shared: ShardedMemo<(BTreeSet<String>, u64)> = ShardedMemo::new(4 * options.probe_threads);
    type Slot = Result<((String, SizeMetrics), ReductionTrace, u64), PipelineError>;
    let slots: Vec<Mutex<Option<Slot>>> = errors.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = options.probe_threads.min(errors.len()).max(1);
    let config = GbrConfig::default();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(error) = errors.get(i) else {
                    break;
                };
                // The probe computes error set and size together; the size
                // metric reads the bytes of the probe that just ran instead
                // of probing again.
                let last_bytes = Cell::new(0u64);
                let mut predicate = |keep: &VarSet| {
                    let (errs, bytes) = shared.get_or_compute(keep, || {
                        let candidate = materialize(keep);
                        emulate_tool_latency(options.probe_latency_micros);
                        (oracle.errors(&candidate), candidate.byte_size() as u64)
                    });
                    last_bytes.set(bytes);
                    errs.contains(error)
                };
                let mut wrapped = Oracle::new(&mut predicate, cost_per_call_secs)
                    .with_size_metric(|_| last_bytes.get());
                let outcome =
                    generalized_binary_reduction(&instance, &order, &mut wrapped, &config);
                let slot: Slot = outcome.map_err(PipelineError::from).map(|out| {
                    let reduced = materialize(&out.solution);
                    (
                        (error.clone(), SizeMetrics::of(&reduced)),
                        wrapped.trace().clone(),
                        wrapped.calls(),
                    )
                });
                *slots[i].lock().expect("per-error slot") = Some(slot);
            });
        }
    });
    let mut rows = Vec::new();
    let mut combined_trace = ReductionTrace::new();
    let mut total_calls = 0u64;
    for slot in slots {
        let (row, trace, calls) = slot
            .into_inner()
            .expect("per-error slot")
            .expect("worker wrote slot")?;
        rows.push(row);
        combined_trace.append_sequential(&trace);
        total_calls += calls;
    }
    Ok(PerErrorReport {
        errors: rows,
        combined_trace,
        total_calls,
        cache_hits: shared.hits(),
        cache_misses: shared.misses(),
    })
}
