//! The open strategy seam: [`ReductionStrategy`] + [`StrategyRegistry`].
//!
//! The paper's evaluation (§6) is a *strategy comparison* — GBR against
//! J-Reduce, lossy encodings, and ddmin — and this reproduction keeps
//! growing the comparison (HDD, trace-guided modes). A closed enum made
//! every addition a multi-crate edit: the session builder, the pipeline
//! dispatch, daemon job specs, fuzz progressions, and the eval/bench name
//! tables all pattern-matched on it. This module replaces the enum with an open trait:
//!
//! * a strategy is a value implementing [`ReductionStrategy`] — it owns
//!   its [`name`](ReductionStrategy::name), its capability flags
//!   ([`StrategyCaps`]), and its run logic, and it is generic over the
//!   input format,
//! * a [`StrategyRegistry`] maps names (plus historical aliases) to
//!   strategies, so every layer that used to spell an enum variant now
//!   looks a string up — one registration serves every crate,
//! * the shared run vocabulary ([`RunOptions`], [`ServiceHooks`],
//!   [`StrategyOutput`], [`PipelineError`]) lives here
//!   so that both the trait and its callers can be format- and
//!   crate-agnostic.
//!
//! The report assembler, the session builder, and the entry points stay
//! in `lbr-jreduce`; they are thin shims over this seam.

use crate::binary::BinaryReductionError;
use crate::concurrent::ProbeCache;
use crate::gbr::{GbrCheckpoint, GbrError};
use crate::input::{Input, InputOracle, ModelStats};
use crate::stats::ProbeStats;
use crate::trace::ReductionTrace;
use std::collections::HashMap;
use std::sync::Arc;

/// Performance knobs for a reduction run. They change how fast a run is,
/// never what it computes: results, predicate-call counts, and traces are
/// identical across all settings. Every run memoizes probe outcomes by
/// candidate subset, so a repeated probe never re-runs the tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Intra-run probe parallelism. `1` (the default) probes sequentially.
    /// With `n > 1`, strategies whose [`StrategyCaps::speculative`] flag is
    /// set speculate on the binary search's pending probe with `n`-way
    /// parallel tool runs, and the per-error sweep runs up to `n` error
    /// searches concurrently — both with bit-identical results and
    /// identical logical call counts. The speculative strategies are the
    /// ones that run GBR's loop: the `logical/*` GBR variants and
    /// `logical/trace-guided`. The other strategies ignore the knob
    /// (Binary Reduction's closure sweep and ddmin consume each probe
    /// result before choosing the next candidate, so there is no
    /// pending-probe tree to speculate on).
    pub probe_threads: usize,
    /// Emulated latency of one tool invocation, in microseconds (default
    /// `0`: no emulation). The paper's probes are ≈33 s subprocess
    /// invocations (decompile + recompile) whose cost is dominated by
    /// process launch and I/O, not CPU — the regime speculative probing
    /// targets. The in-process model probes of this reproduction finish in
    /// microseconds of pure CPU instead, so on a single core speculation
    /// can only add overhead. A nonzero latency sleeps that long inside
    /// every probe that actually runs the tool (memoized repeats stay
    /// free), restoring the latency-bound regime for wall-clock
    /// measurements. Results, call counts, traces and modeled times are
    /// unaffected.
    pub probe_latency_micros: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            probe_threads: 1,
            probe_latency_micros: 0,
        }
    }
}

/// Long-running-service hooks for a reduction run: an external probe
/// cache, cooperative cancellation, and checkpoint/resume. The default
/// value is inert. The resumable strategies are the ones that run GBR's
/// loop — the `logical/*` GBR variants and `logical/trace-guided`, whose
/// resumed run re-runs its coverage sweep and then continues GBR from
/// the checkpoint. Strategies whose [`StrategyCaps::resumable`] flag is
/// unset ignore `checkpoint` and `resume` (their loops have no
/// resumable snapshot), and most of them the other hooks too.
///
/// All four hooks preserve the pipeline's determinism contract:
///
/// * `cache` sits beneath every per-run counter — a hit replaces only the
///   tool invocation, so verdicts, sizes, call counts, and traces are
///   bit-identical whether it is cold, warm, or absent.
/// * `cancel`/`checkpoint`/`resume` snapshot and restore the GBR loop
///   between probes; a resumed run converges to the same solution as an
///   uninterrupted one (its *trace* covers only the probes demanded after
///   the resume point — replays of the interrupted iteration's tail,
///   which a warm cache answers without tool runs).
#[derive(Default)]
pub struct ServiceHooks<'h> {
    /// Probe cache shared across runs of the *same* program + oracle
    /// (callers must namespace keys; the keep-set alone is not unique).
    pub cache: Option<&'h dyn ProbeCache>,
    /// Polled between probes; `true` aborts with
    /// [`PipelineError::Gbr`]([`GbrError::Cancelled`]).
    pub cancel: Option<&'h (dyn Fn() -> bool + Sync)>,
    /// Invoked with a resumable snapshot after every GBR iteration.
    pub checkpoint: Option<&'h mut dyn FnMut(&GbrCheckpoint)>,
    /// Continue a previous run from its last checkpoint.
    pub resume: Option<GbrCheckpoint>,
}

impl std::fmt::Debug for ServiceHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHooks")
            .field("cache", &self.cache.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("checkpoint", &self.checkpoint.is_some())
            .field("resume", &self.resume)
            .finish()
    }
}

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// The input does not trigger the tool's bugs.
    NotFailing,
    /// The requested strategy name is not in the registry.
    UnknownStrategy(String),
    /// The input does not verify, so no model can be built (the
    /// frontend's message).
    Model(String),
    /// GBR failed (see [`GbrError`]).
    Gbr(GbrError),
    /// Binary Reduction failed.
    Binary(BinaryReductionError),
    /// The lossy encoding was contradictory (forbidden required items).
    LossyContradiction,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NotFailing => write!(f, "input does not trigger the tool's bugs"),
            PipelineError::UnknownStrategy(name) => write!(f, "unknown strategy {name:?}"),
            PipelineError::Model(e) => write!(f, "{e}"),
            PipelineError::Gbr(e) => write!(f, "gbr: {e}"),
            PipelineError::Binary(e) => write!(f, "binary reduction: {e}"),
            PipelineError::LossyContradiction => write!(f, "lossy encoding is contradictory"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<GbrError> for PipelineError {
    fn from(e: GbrError) -> Self {
        PipelineError::Gbr(e)
    }
}

impl From<BinaryReductionError> for PipelineError {
    fn from(e: BinaryReductionError) -> Self {
        PipelineError::Binary(e)
    }
}

/// What a strategy hands back to the report assembler.
pub struct StrategyOutput<I> {
    /// The reduced input.
    pub reduced: I,
    /// Black-box predicate invocations the search demanded, per-run memo
    /// hits and cross-run cache hits included (a hit replaces the tool
    /// run only, not the demand); see [`Oracle::calls`](crate::Oracle::calls).
    pub calls: u64,
    /// The reduction-over-time trace.
    pub trace: ReductionTrace,
    /// Model statistics, when the strategy built the fine logical model.
    pub model_stats: Option<ModelStats>,
    /// Unified probe accounting (useful/speculative/memo totals).
    pub probe_stats: ProbeStats,
}

/// What a strategy can do — surfaced by `reduce --list-strategies` and
/// the daemon's `stats` so clients stop hardcoding strategy strings, and
/// used by the daemon to decide which jobs get the cache/checkpoint/
/// resume service path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyCaps {
    /// Honors every [`ServiceHooks`] field: external probe cache,
    /// cancellation, and checkpoint/resume.
    pub resumable: bool,
    /// Honors `probe_threads > 1` with speculative parallel probing
    /// (bit-identical results, shorter wall time).
    pub speculative: bool,
    /// The per-error sweep can drive this strategy's search once per
    /// distinct baseline error.
    pub per_error: bool,
    /// Builds the fine-grained logical model (as opposed to the coarse
    /// unit graph only).
    pub uses_model: bool,
}

/// One reduction strategy, generic over the input format. Implementations
/// must be deterministic: same input, oracle, and options → bit-identical
/// reduced bytes, call counts, and traces.
pub trait ReductionStrategy<I: Input>: Send + Sync {
    /// The canonical registry name (e.g. `"logical/greedy"`, `"hdd"`).
    /// The single source of truth for report rows, eval tables, job
    /// specs, and baselines.
    fn name(&self) -> &str;

    /// Capability flags.
    fn caps(&self) -> StrategyCaps;

    /// Runs the strategy. The caller has already verified the input
    /// fails; hooks a strategy does not support (per its caps) are
    /// ignored.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost_per_call_secs: f64,
        options: &RunOptions,
        hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError>;
}

/// A name → strategy map with alias support. Lookup accepts canonical
/// names and registered aliases; enumeration yields canonical names in
/// registration order (the order eval tables and `--list-strategies`
/// present).
pub struct StrategyRegistry<I: Input> {
    entries: Vec<Arc<dyn ReductionStrategy<I>>>,
    by_name: HashMap<String, usize>,
}

impl<I: Input> Default for StrategyRegistry<I> {
    fn default() -> Self {
        StrategyRegistry::new()
    }
}

impl<I: Input> StrategyRegistry<I> {
    /// An empty registry.
    pub fn new() -> Self {
        StrategyRegistry {
            entries: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Registers a strategy under its canonical [`name`]. Re-registering
    /// a name replaces the lookup target (latest wins) but keeps the
    /// original enumeration slot.
    ///
    /// [`name`]: ReductionStrategy::name
    pub fn register(&mut self, strategy: Arc<dyn ReductionStrategy<I>>) {
        let name = strategy.name().to_owned();
        let slot = self.entries.len();
        self.entries.push(strategy);
        self.by_name.insert(name, slot);
    }

    /// Registers `alias` as an alternative lookup name for the strategy
    /// canonically named `canonical`. No-op if `canonical` is unknown.
    pub fn alias(&mut self, alias: &str, canonical: &str) {
        if let Some(&slot) = self.by_name.get(canonical) {
            self.by_name.insert(alias.to_owned(), slot);
        }
    }

    /// Looks a strategy up by canonical name or alias.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn ReductionStrategy<I>>> {
        self.by_name.get(name).map(|&slot| &self.entries[slot])
    }

    /// Whether `name` resolves (canonically or via an alias).
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Canonical names in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|s| s.name().to_owned()).collect()
    }

    /// Strategies in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn ReductionStrategy<I>>> {
        self.entries.iter()
    }

    /// Number of registered strategies (aliases excluded).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no strategies are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{CoarseModel, InputModel};
    use crate::DepGraph;
    use lbr_logic::{Cnf, VarSet};
    use std::collections::BTreeSet;

    #[derive(Debug, Clone, PartialEq)]
    struct Mini(Vec<u8>);

    impl Input for Mini {
        const FORMAT: &'static str = "mini";

        fn model(&self) -> Result<InputModel<'_, Self>, String> {
            let n = self.0.len();
            Ok(InputModel {
                cnf: Cnf::new(n),
                stats: ModelStats {
                    items: n,
                    clauses: 0,
                    graph_fraction: 1.0,
                },
                levels: vec![0; n],
                materialize: Box::new(move |keep: &VarSet| {
                    Mini(keep.iter().map(|v| self.0[v.index()]).collect())
                }),
            })
        }

        fn coarse_model(&self) -> CoarseModel<'_, Self> {
            CoarseModel {
                graph: DepGraph::new(self.0.len()),
                materialize: Box::new(move |keep: &VarSet| {
                    Mini(keep.iter().map(|v| self.0[v.index()]).collect())
                }),
            }
        }

        fn to_bytes(&self) -> Vec<u8> {
            self.0.clone()
        }

        fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
            Ok(Mini(bytes.to_vec()))
        }

        fn byte_size(&self) -> usize {
            self.0.len()
        }

        fn unit_count(&self) -> usize {
            self.0.len()
        }

        fn validate(&self) -> Vec<String> {
            Vec::new()
        }
    }

    struct Identity;

    impl ReductionStrategy<Mini> for Identity {
        fn name(&self) -> &str {
            "identity"
        }

        fn caps(&self) -> StrategyCaps {
            StrategyCaps::default()
        }

        fn run(
            &self,
            input: &Mini,
            _oracle: &dyn InputOracle<Mini>,
            _cost: f64,
            _options: &RunOptions,
            _hooks: ServiceHooks<'_>,
        ) -> Result<StrategyOutput<Mini>, PipelineError> {
            Ok(StrategyOutput {
                reduced: input.clone(),
                calls: 0,
                trace: ReductionTrace::new(),
                model_stats: None,
                probe_stats: ProbeStats::sequential(0, 0, 0),
            })
        }
    }

    struct NeverFails {
        baseline: BTreeSet<String>,
    }

    impl InputOracle<Mini> for NeverFails {
        fn baseline(&self) -> &BTreeSet<String> {
            &self.baseline
        }

        fn errors(&self, _input: &Mini) -> BTreeSet<String> {
            self.baseline.clone()
        }
    }

    #[test]
    fn registry_resolves_names_and_aliases() {
        let mut registry: StrategyRegistry<Mini> = StrategyRegistry::new();
        registry.register(Arc::new(Identity));
        registry.alias("id", "identity");
        registry.alias("dangling", "no-such");
        assert!(registry.contains("identity"));
        assert!(registry.contains("id"));
        assert!(!registry.contains("dangling"));
        assert_eq!(registry.names(), ["identity"]);
        assert_eq!(registry.len(), 1);
        assert_eq!(
            registry.get("id").unwrap().name(),
            registry.get("identity").unwrap().name()
        );
    }

    #[test]
    fn strategies_run_through_the_trait_object() {
        let mut registry: StrategyRegistry<Mini> = StrategyRegistry::new();
        registry.register(Arc::new(Identity));
        let input = Mini(vec![1, 2, 3]);
        let oracle = NeverFails {
            baseline: ["boom".to_owned()].into_iter().collect(),
        };
        let out = registry
            .get("identity")
            .unwrap()
            .run(
                &input,
                &oracle,
                0.0,
                &RunOptions::default(),
                ServiceHooks::default(),
            )
            .unwrap();
        assert_eq!(out.reduced, input);
    }
}
