//! [`ReductionSession`]: the builder-style front door to the pipeline.
//!
//! Every caller of the reduction pipeline — the CLI binaries, the daemon,
//! the fuzzing harness, tests — wants the same thing: a program, an
//! oracle, a strategy, and a handful of knobs (probe parallelism,
//! emulated latency, an external cache, cancellation, checkpoint/resume). Before the session API each of them re-plumbed
//! those knobs by hand through `RunOptions` + `ServiceHooks` + the right
//! one of three entry points. A session names the configuration once and
//! picks the entry point for you:
//!
//! ```no_run
//! # use lbr_jreduce::ReductionSession;
//! # let (program, oracle): (lbr_classfile::Program, lbr_decompiler::DecompilerOracle) =
//! #     unimplemented!();
//! let report = ReductionSession::new(&program, &oracle)
//!     .strategy("logical/greedy")
//!     .cost_per_call(33.0)
//!     .probe_threads(4)
//!     .run()?;
//! # Ok::<(), lbr_jreduce::PipelineError>(())
//! ```
//!
//! Sessions are configuration + borrowed inputs only; all determinism
//! guarantees live with the underlying entry points (see
//! [`RunOptions`] and [`ServiceHooks`]).

use crate::pipeline::{
    self, PerErrorReport, PipelineError, ReductionReport, RunOptions, ServiceHooks,
};
use lbr_core::{GbrCheckpoint, Input, InputOracle, ProbeCache};

/// A configured reduction run waiting to happen, generic over the input
/// format (classfile programs, stackvm modules, any [`Input`]). Build
/// one with [`ReductionSession::new`], chain the knobs you care about,
/// then call [`run`](Self::run) (one report for the chosen strategy) or
/// [`run_per_error`](Self::run_per_error) (one row per distinct
/// baseline error).
///
/// Defaults: the `logical/greedy` strategy (the paper's reducer), zero
/// modeled cost per call, [`RunOptions::default`] (memoized, sequential,
/// no latency emulation), and no service hooks.
pub struct ReductionSession<
    's,
    I = lbr_classfile::Program,
    O: ?Sized = lbr_decompiler::DecompilerOracle,
> {
    input: &'s I,
    oracle: &'s O,
    strategy: String,
    cost_per_call_secs: f64,
    options: RunOptions,
    hooks: ServiceHooks<'s>,
}

impl<'s, I: Input, O: InputOracle<I> + ?Sized> ReductionSession<'s, I, O> {
    /// A session over one input and oracle, with all knobs at their
    /// defaults.
    pub fn new(input: &'s I, oracle: &'s O) -> Self {
        ReductionSession {
            input,
            oracle,
            strategy: "logical/greedy".to_owned(),
            cost_per_call_secs: 0.0,
            options: RunOptions::default(),
            hooks: ServiceHooks::default(),
        }
    }

    /// Which strategy [`run`](Self::run) executes — a registry name or
    /// alias (see [`crate::strategy_registry`]); unknown names surface as
    /// [`PipelineError::UnknownStrategy`] from [`run`](Self::run).
    pub fn strategy(mut self, strategy: impl Into<String>) -> Self {
        self.strategy = strategy.into();
        self
    }

    /// Modeled seconds per tool invocation (the paper measured ≈33 s);
    /// drives the report's `modeled_secs` and trace timing.
    pub fn cost_per_call(mut self, secs: f64) -> Self {
        self.cost_per_call_secs = secs;
        self
    }

    /// Replaces the whole option block at once (for callers that already
    /// hold a [`RunOptions`], like the CLI flag parsers).
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Intra-run probe parallelism (default 1; see
    /// [`RunOptions::probe_threads`]).
    pub fn probe_threads(mut self, threads: usize) -> Self {
        self.options.probe_threads = threads.max(1);
        self
    }

    /// Emulated per-probe tool latency in microseconds (default 0; see
    /// [`RunOptions::probe_latency_micros`]).
    pub fn probe_latency_micros(mut self, micros: u64) -> Self {
        self.options.probe_latency_micros = micros;
        self
    }

    /// Attaches a cross-run probe cache (hits skip the tool invocation but
    /// change nothing observable; callers must namespace keys per
    /// program + oracle). Applies to the GBR-based logical strategies.
    pub fn cache(mut self, cache: &'s dyn ProbeCache) -> Self {
        self.hooks.cache = Some(cache);
        self
    }

    /// Polled between probes; returning `true` aborts the run with
    /// [`PipelineError::Gbr`]([`lbr_core::GbrError::Cancelled`]).
    pub fn cancel(mut self, cancel: &'s (dyn Fn() -> bool + Sync)) -> Self {
        self.hooks.cancel = Some(cancel);
        self
    }

    /// Receives a resumable snapshot after every GBR iteration.
    pub fn checkpoint(mut self, hook: &'s mut dyn FnMut(&GbrCheckpoint)) -> Self {
        self.hooks.checkpoint = Some(hook);
        self
    }

    /// Continues a previous run from its last checkpoint instead of
    /// starting fresh.
    pub fn resume(mut self, checkpoint: GbrCheckpoint) -> Self {
        self.hooks.resume = Some(checkpoint);
        self
    }

    /// Runs the configured strategy once and reports.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run(self) -> Result<ReductionReport<I>, PipelineError> {
        pipeline::dispatch(
            self.input,
            self.oracle,
            &self.strategy,
            self.cost_per_call_secs,
            &self.options,
            self.hooks,
        )
    }

    /// Runs one logical search per distinct baseline error (the
    /// per-error sweep), sharing one probe cache across the searches.
    /// Uses the session's options; the strategy and service hooks do not
    /// apply.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_per_error(self) -> Result<PerErrorReport, PipelineError> {
        pipeline::run_per_error_with(
            self.input,
            self.oracle,
            self.cost_per_call_secs,
            &self.options,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_classfile::{ClassFile, Code, Insn, MethodDescriptor, MethodInfo, MethodRef, Program};
    use lbr_decompiler::{BugKind, BugSet, DecompilerOracle};

    fn tiny() -> Program {
        let mut i = ClassFile::new_interface("I");
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let mut a = ClassFile::new_class("A");
        a.interfaces.push("I".into());
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        a.methods.push(MethodInfo::new(
            "trigger",
            MethodDescriptor::void(),
            Code::new(
                2,
                1,
                vec![
                    Insn::ALoad(0),
                    Insn::CheckCast("I".into()),
                    Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                    Insn::Return,
                ],
            ),
        ));
        [i, a].into_iter().collect()
    }

    #[test]
    fn session_defaults_match_run_reduction() {
        let p = tiny();
        let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
        let direct = crate::run_reduction(&p, &oracle, "logical/greedy", 33.0).expect("direct");
        let session = ReductionSession::new(&p, &oracle)
            .cost_per_call(33.0)
            .run()
            .expect("session");
        assert_eq!(session.final_metrics, direct.final_metrics);
        assert_eq!(session.predicate_calls, direct.predicate_calls);
        assert_eq!(session.trace.digest(), direct.trace.digest());
        assert_eq!(
            lbr_classfile::write_program(&session.reduced),
            lbr_classfile::write_program(&direct.reduced)
        );
    }

    #[test]
    fn session_knobs_reach_the_options() {
        let p = tiny();
        let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
        let sequential = ReductionSession::new(&p, &oracle)
            .run()
            .expect("sequential session");
        let session = ReductionSession::new(&p, &oracle)
            .probe_threads(2)
            .probe_latency_micros(10);
        assert_eq!(
            session.options,
            RunOptions {
                probe_threads: 2,
                probe_latency_micros: 10
            }
        );
        let threaded = session.run().expect("threaded session");
        assert_eq!(threaded.final_metrics, sequential.final_metrics);
        assert_eq!(threaded.predicate_calls, sequential.predicate_calls);
    }
}
