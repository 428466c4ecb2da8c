//! The probe path shared by every reduction stage: the base predicate
//! (materialize a candidate input, run the tool) plus the standard
//! per-run oracle wrapper.
//!
//! Middleware concerns — the cross-run probe cache and emulated tool
//! latency — are *not* hand-rolled here anymore: stages assemble an
//! [`OracleStack`](lbr_core::OracleStack) of
//! [`CacheLayer`](lbr_core::CacheLayer) /
//! [`LatencyLayer`](lbr_core::LatencyLayer) over [`CandidateProbe`] and
//! hand the stack to whichever driver they use (the sequential
//! [`Oracle`], the speculative scheduler, or ddmin).

use lbr_core::{ConcurrentPredicate, Input, InputOracle, Oracle, Probe};
use lbr_logic::VarSet;

/// The base of every oracle stack: builds the candidate input for a
/// keep-set, tests it against the tool oracle, and measures its bytes —
/// all from borrowed shared state, pure per probe, so many workers can
/// probe one instance concurrently. Generic over the input format.
pub(crate) struct CandidateProbe<'a, I, O: ?Sized> {
    /// Keep-set → candidate input (item-level reducer or coarse-graph
    /// subset, depending on the stage).
    pub(crate) materialize: &'a (dyn Fn(&VarSet) -> I + Sync),
    /// The tool oracle the candidate is tested against.
    pub(crate) oracle: &'a O,
}

impl<I: Input, O: InputOracle<I> + ?Sized> ConcurrentPredicate for CandidateProbe<'_, I, O> {
    fn probe(&self, keep: &VarSet) -> Probe {
        let candidate = (self.materialize)(keep);
        Probe {
            outcome: self.oracle.preserves_failure(&candidate),
            size: candidate.byte_size() as u64,
        }
    }
}

/// Sleeps for the emulated tool-invocation latency (no-op at 0). Probe
/// paths that flow through an [`lbr_core::OracleStack`] use
/// [`lbr_core::LatencyLayer`] instead; this free function serves the
/// per-error sweep, whose probes carry error *sets* rather than [`Probe`]s.
pub(crate) fn emulate_tool_latency(micros: u64) {
    if micros > 0 {
        std::thread::sleep(std::time::Duration::from_micros(micros));
    }
}

/// Builds the standard per-run oracle wrapper (size metric + memo) around
/// a keep-set predicate.
pub(crate) fn wrap_oracle<'p>(
    predicate: &'p mut dyn lbr_core::Predicate,
    cost: f64,
    size_of: impl Fn(&VarSet) -> u64 + 'p,
) -> Oracle<'p> {
    Oracle::new(predicate, cost)
        .with_size_metric(size_of)
        .with_memo()
}

/// Which variable order GBR uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrderKind {
    ClosureSize,
    Natural,
}
