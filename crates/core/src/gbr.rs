//! Generalized Binary Reduction (Algorithm 1 of the paper).
//!
//! GBR solves the Input Reduction Problem approximately in polynomial time.
//! It interleaves two building blocks: runs of the black-box predicate `P`
//! and computations of an approximate minimal satisfying assignment
//! ([`msa`](lbr_logic::msa)). The key data structure is the *progression* —
//! a list of disjoint variable sets every prefix of which is a valid
//! sub-input — so `P` is only ever applied to valid inputs.
//!
//! The main loop (quoting the paper): while `¬P(D₀)`, find the minimal
//! prefix `D^∪_r` of the progression that satisfies `P` (by binary search),
//! learn the set `D_r` (some element of it must be in every solution within
//! the current search space), and rebuild the progression over the smaller
//! search space `D^∪_r` with the learned clause conjoined.

use crate::concurrent::{ConcurrentPredicate, DemandKind, ProbeScheduler};
use crate::stats::ProbeStats;
use crate::trace::ReductionTrace;
use crate::{Instance, Predicate};
use lbr_logic::{engine, msa_scan, Clause, Cnf, Engine, Lit, Var, VarOrder, VarSet};
use std::time::Instant;

/// How GBR evaluates the dependency model while building progressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PropagationMode {
    /// One persistent watched-literal [`Engine`] per reduction run: learned
    /// sets become permanent level-0 clauses, the search-space restriction
    /// and each progression prefix are pushed as assumption levels, and
    /// every MSA runs from the engine's current state. No formula is ever
    /// cloned. This is the default and produces bit-identical progressions
    /// to [`LegacyScan`](PropagationMode::LegacyScan).
    #[default]
    Incremental,
    /// The original implementation: every progression step clones a
    /// restricted CNF and re-propagates it from scratch with the scanning
    /// [`msa_scan`]. Kept as the measurable baseline and the reference the
    /// incremental mode is differentially tested against.
    LegacyScan,
}

/// How GBR's main loop finds the minimal failing prefix of a progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundarySearch {
    /// Binary search over the whole progression — Algorithm 1 as written.
    #[default]
    Bisect,
    /// A backward gallop from the end of the progression, started at the
    /// boundary gap the previous iteration recorded (its distance from the
    /// end): probe `last - gap`, `last - 2·gap`, … until a prefix passes,
    /// then bisect the bracket. Leaves-first orders put the boundary a
    /// handful of entries from the end, where the gallop brackets it in
    /// ~2·log2(gap) probes instead of log2(len).
    Gallop,
}

/// Configuration for [`generalized_binary_reduction`].
#[derive(Debug, Clone, Default)]
pub struct GbrConfig {
    /// Safety bound on main-loop iterations (defaults to a generous
    /// multiple of `|I|`; the paper proves at most `|I|` are needed when
    /// the predicate is monotone).
    pub max_iterations: Option<usize>,
    /// Anytime budget: stop after this many predicate invocations and
    /// return the smallest valid failing input seen so far. This is the
    /// paper's "fixed time window" scenario — "we can stop both algorithms
    /// at any point in the execution and use the smallest input until that
    /// point that preserves the error message."
    pub max_predicate_calls: Option<u64>,
    /// How the dependency model is propagated (incremental engine vs the
    /// scan-based baseline). Does not affect results, only speed.
    pub propagation: PropagationMode,
    /// How each iteration searches its progression for the boundary.
    pub boundary: BoundarySearch,
}

/// Why a GBR run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GbrError {
    /// The validity model `R⁺` became unsatisfiable — the instance's
    /// assumptions (`R_I(I)` holds) were violated.
    ModelUnsatisfiable,
    /// The predicate rejected the whole search space, contradicting the
    /// monotonicity assumption (or `P(I)` was false to begin with).
    PredicateNotMonotone,
    /// The iteration safety bound was hit.
    IterationLimit,
    /// A cooperative cancellation hook fired (see [`GbrControl::cancel`]).
    /// The run stopped between probes; any checkpoint written through
    /// [`GbrControl::checkpoint`] remains valid for a later resume.
    Cancelled,
    /// The resumed checkpoint does not fit the instance: a set over another
    /// universe, a learned-set count that disagrees with its iteration
    /// count, or a search space outside the instance's variables.
    CheckpointMismatch,
}

impl std::fmt::Display for GbrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GbrError::ModelUnsatisfiable => write!(f, "dependency model became unsatisfiable"),
            GbrError::PredicateNotMonotone => {
                write!(
                    f,
                    "predicate rejected the whole search space (not monotone, or P(I) false)"
                )
            }
            GbrError::IterationLimit => write!(f, "iteration safety bound exceeded"),
            GbrError::Cancelled => write!(f, "reduction cancelled by its control hook"),
            GbrError::CheckpointMismatch => {
                write!(f, "resumed checkpoint does not belong to this instance")
            }
        }
    }
}

impl std::error::Error for GbrError {}

/// A resumable snapshot of the GBR main loop, taken between iterations.
///
/// Everything else the loop needs — the progression and its prefix
/// unions — is a deterministic function of `(learned, search_space)` and
/// is rebuilt on resume, so a checkpoint is exactly the learned sets, the
/// current search space, the anytime best, and the boundary gap a
/// [`BoundarySearch::Gallop`] starts from. Probes re-demanded by a
/// resumed run repeat the tail of the interrupted iteration; a persistent
/// probe cache (see `ProbeCache` in the concurrent module) makes those
/// replays free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GbrCheckpoint {
    /// Completed main-loop iterations (equals `learned.len()`).
    pub iterations: usize,
    /// The learned sets `L`, in learning order.
    pub learned: Vec<VarSet>,
    /// The current search space `J` (a valid failing input by invariant).
    pub search_space: VarSet,
    /// The smallest failing input demanded so far, if any.
    pub best: Option<VarSet>,
    /// The last iteration's boundary distance from the end of its
    /// progression (at least 1): where the next gallop starts. Bisection
    /// ignores it.
    pub gap: usize,
}

/// Cooperative control hooks for a GBR run: cancellation, checkpointing,
/// and resumption. The default value is inert — `generalized_binary_
/// reduction` without hooks behaves exactly as before.
///
/// Cancellation is checked between probes (once per main-loop iteration
/// and once per binary-search step), so a pending tool invocation always
/// finishes; with the paper's ~33 s probes that bounds the cancellation
/// latency at roughly one probe.
#[derive(Default)]
pub struct GbrControl<'h> {
    /// Polled between probes; returning `true` aborts the run with
    /// [`GbrError::Cancelled`]. Deadlines are cancellation hooks that
    /// compare `Instant::now()` against a budget.
    pub cancel: Option<&'h (dyn Fn() -> bool + Sync)>,
    /// Invoked after every completed iteration with a snapshot that a
    /// later run may pass as [`resume`](GbrControl::resume).
    pub checkpoint: Option<&'h mut dyn FnMut(&GbrCheckpoint)>,
    /// Start from this snapshot instead of from scratch. The instance,
    /// order, and predicate must be the ones the checkpoint was taken
    /// with; the anytime call budget counts this attempt's probes only.
    pub resume: Option<GbrCheckpoint>,
}

impl std::fmt::Debug for GbrControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GbrControl")
            .field("cancel", &self.cancel.is_some())
            .field("checkpoint", &self.checkpoint.is_some())
            .field("resume", &self.resume)
            .finish()
    }
}

/// The result of a successful GBR run.
#[derive(Debug, Clone)]
pub struct GbrOutcome {
    /// The failure-inducing valid sub-input `D₀` (or, when the anytime
    /// budget ran out, the smallest failing input seen so far).
    pub solution: VarSet,
    /// Main-loop iterations executed (learned sets added).
    pub iterations: usize,
    /// The learned sets `L`, in learning order.
    pub learned: Vec<VarSet>,
    /// Length of each progression built (diagnostics).
    pub progression_lengths: Vec<usize>,
    /// Whether the run stopped because `max_predicate_calls` was reached
    /// (the solution is then a best-effort answer, not a converged one).
    pub budget_exhausted: bool,
}

/// Runs Generalized Binary Reduction on `(I, P, R_I)`.
///
/// `order` is the total variable order `<` that drives both `MSA_<` and the
/// progression seeds. On success the returned solution satisfies both the
/// predicate and the validity model.
///
/// # Errors
///
/// See [`GbrError`]. In particular the instance must satisfy the paper's
/// assumptions: `R_I(I)` and `P(I)` hold and `P` is monotone on valid
/// sub-inputs.
///
/// # Examples
///
/// ```
/// use lbr_core::{closure_size_order, generalized_binary_reduction, GbrConfig, Instance};
/// use lbr_logic::{Clause, Cnf, Var, VarSet};
///
/// // Model: 0 ⇒ 1. Bug needs variable 1.
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause(Clause::edge(Var::new(0), Var::new(1)));
/// let order = closure_size_order(&cnf);
/// let instance = Instance::over_all_vars(cnf);
/// let mut bug = |s: &VarSet| s.contains(Var::new(1));
/// let out = generalized_binary_reduction(&instance, &order, &mut bug, &GbrConfig::default())
///     .expect("reduction succeeds");
/// assert_eq!(out.solution.iter().collect::<Vec<_>>(), vec![Var::new(1)]);
/// ```
pub fn generalized_binary_reduction(
    instance: &Instance,
    order: &VarOrder,
    predicate: &mut dyn Predicate,
    config: &GbrConfig,
) -> Result<GbrOutcome, GbrError> {
    generalized_binary_reduction_controlled(
        instance,
        order,
        predicate,
        config,
        &mut GbrControl::default(),
    )
}

/// [`generalized_binary_reduction`] with cooperative [`GbrControl`] hooks
/// (cancellation, checkpointing, resume). With a default control value the
/// two are identical; a resumed run converges to the same solution as an
/// uninterrupted one because the checkpoint captures the loop's entire
/// state and the probe sequence is a deterministic function of it.
pub fn generalized_binary_reduction_controlled(
    instance: &Instance,
    order: &VarOrder,
    predicate: &mut dyn Predicate,
    config: &GbrConfig,
    control: &mut GbrControl<'_>,
) -> Result<GbrOutcome, GbrError> {
    let mut driver = Budgeted {
        inner: predicate,
        calls: 0,
        limit: config.max_predicate_calls,
        best: None,
    };
    gbr_loop(instance, order, config, &mut driver, control)
}

/// How the GBR main loop obtains predicate verdicts.
///
/// The sequential [`Budgeted`] driver runs the predicate inline; the
/// speculative driver demands results from a [`ProbeScheduler`] and uses
/// the narrowing hooks to (re)target speculation. The *logical* probe
/// sequence — which subsets are tested, in which order — is decided by
/// [`gbr_loop`] alone and is identical for every driver; that is what
/// makes the parallel mode bit-identical to the sequential one.
trait ProbeDriver {
    /// Runs one demanded probe; `None` once the anytime budget is spent.
    fn test(&mut self, input: &VarSet) -> Option<bool>;
    /// Takes the smallest failing input seen so far (the anytime answer).
    fn take_best(&mut self) -> Option<VarSet>;
    /// Peeks at the smallest failing input seen so far (for checkpoints).
    fn best_so_far(&self) -> Option<&VarSet>;
    /// Seeds `best` from a resumed checkpoint before the loop starts.
    fn seed_best(&mut self, best: VarSet);
    /// The boundary search now stands at `bracket`, and the loop's next
    /// [`test`](ProbeDriver::test) will demand index `next`. A speculative
    /// driver leaves `next` to the demanding thread itself (it pays the
    /// probe's latency either way) and spends every worker on the probes
    /// *after* it.
    fn retarget(&mut self, _prefix_unions: &[VarSet], _bracket: &Bracket, _next: usize) {}
    /// This iteration's search is over (learning and rebuilding follow).
    fn search_done(&mut self) {}
}

/// The GBR main loop, generic over how probes are executed.
fn gbr_loop<D: ProbeDriver>(
    instance: &Instance,
    order: &VarOrder,
    config: &GbrConfig,
    driver: &mut D,
    control: &mut GbrControl<'_>,
) -> Result<GbrOutcome, GbrError> {
    let universe = instance.vars.universe();
    // Resuming replays nothing: the progression below is rebuilt from the
    // checkpoint's (learned, search_space), which determines it uniquely.
    let (mut learned, mut search_space, mut iteration, mut gap) = match control.resume.take() {
        Some(ck) => {
            check_resume(&ck, instance)?;
            if let Some(best) = ck.best {
                driver.seed_best(best);
            }
            (ck.learned, ck.search_space, ck.iterations, ck.gap)
        }
        None => (Vec::new(), instance.vars.clone(), 0, 1),
    };
    let mut builder = ProgressionBuilder::new(&instance.cnf, universe, config);
    let mut progression = builder.progression(order, &learned, &search_space)?;
    let mut progression_lengths = vec![progression.len()];
    let max_iterations = config
        .max_iterations
        .unwrap_or_else(|| 4 * instance.vars.len() + 16);
    let cancelled = |control: &GbrControl<'_>| control.cancel.is_some_and(|c| c());

    loop {
        if iteration >= max_iterations {
            return Err(GbrError::IterationLimit);
        }
        if cancelled(control) {
            return Err(GbrError::Cancelled);
        }
        // Prefix unions D^∪_r for r in 0..len, computed *before* the D₀
        // probe so a speculative driver can dispatch boundary-search probes
        // while D₀ itself is still running (`prefix_unions[0]` == `D₀`).
        let mut prefix_unions: Vec<VarSet> = Vec::with_capacity(progression.len());
        let mut acc = VarSet::empty(universe);
        for d in &progression {
            acc.union_with(d);
            prefix_unions.push(acc.clone());
        }
        let last = progression.len() - 1;
        let mut bracket = Bracket::new(last, config.boundary, gap);
        driver.retarget(&prefix_unions, &bracket, 0);
        // Anytime stop: the current search space is itself a valid failing
        // input (invariant), so a best-so-far answer always exists.
        let Some(d0_fails) = driver.test(&prefix_unions[0]) else {
            return Ok(anytime_outcome(
                driver,
                search_space,
                iteration,
                learned,
                progression_lengths,
            ));
        };
        if d0_fails {
            driver.search_done();
            return Ok(GbrOutcome {
                solution: prefix_unions[0].clone(),
                iterations: iteration,
                learned,
                progression_lengths,
                budget_exhausted: false,
            });
        }
        if last == 0 {
            // D^∪ = D₀ and P(D₀) failed: the invariant P(D^∪) is broken.
            driver.search_done();
            return Err(GbrError::PredicateNotMonotone);
        }
        // Search for the minimal r with P(D^∪_r). Invariant (INV-PRO)
        // guarantees P holds at the full progression.
        while let Some(index) = bracket.next() {
            if cancelled(control) {
                driver.search_done();
                return Err(GbrError::Cancelled);
            }
            let Some(fails) = driver.test(&prefix_unions[index]) else {
                return Ok(anytime_outcome(
                    driver,
                    search_space,
                    iteration,
                    learned,
                    progression_lengths,
                ));
            };
            if !bracket.record(index, fails) {
                driver.search_done();
                return Err(GbrError::PredicateNotMonotone);
            }
            if let Some(next) = bracket.next() {
                driver.retarget(&prefix_unions, &bracket, next);
            }
        }
        driver.search_done();
        let r = bracket.hi;
        gap = (last - r).max(1);
        learned.push(progression[r].clone());
        search_space = prefix_unions[r].clone();
        iteration += 1;
        progression = builder.progression(order, &learned, &search_space)?;
        progression_lengths.push(progression.len());
        // Checkpoint only after the rebuild succeeds, so every snapshot is
        // a state a resumed run can actually continue from.
        if let Some(hook) = control.checkpoint.as_mut() {
            hook(&GbrCheckpoint {
                iterations: iteration,
                learned: learned.clone(),
                search_space: search_space.clone(),
                best: driver.best_so_far().cloned(),
                gap,
            });
        }
    }
}

/// Rejects a checkpoint that cannot belong to `instance`: every set must
/// range over the instance's universe (a larger one indexes past the
/// engine's variables), the learned sets must match the iteration count,
/// and the search space must lie inside the instance's variables.
fn check_resume(ck: &GbrCheckpoint, instance: &Instance) -> Result<(), GbrError> {
    let universe = instance.vars.universe();
    let mut sets = ck.learned.iter().chain([&ck.search_space]).chain(&ck.best);
    if sets.any(|s| s.universe() != universe)
        || ck.learned.len() != ck.iterations
        || !ck.search_space.is_subset(&instance.vars)
    {
        return Err(GbrError::CheckpointMismatch);
    }
    Ok(())
}

/// One iteration's boundary search over the prefix unions
/// `D^∪_0..=D^∪_last`, entered after `D₀` passed. `lo` is the largest
/// index known to pass; `hi` the smallest known — or, until
/// `hi_verified`, presumed by (INV-PRO) — to fail. The loop asks
/// [`next`](Bracket::next) which index to probe and hands the verdict to
/// [`record`](Bracket::record); the speculation frontier expands clones.
#[derive(Debug, Clone)]
struct Bracket {
    lo: usize,
    hi: usize,
    hi_verified: bool,
    last: usize,
    /// The pending gallop offset (probe `last - offset`), while galloping.
    gallop: Option<usize>,
}

impl Bracket {
    fn new(last: usize, search: BoundarySearch, gap: usize) -> Self {
        let gallop = match search {
            BoundarySearch::Bisect => None,
            BoundarySearch::Gallop => Some(gap.max(1)).filter(|&o| o < last),
        };
        Bracket {
            lo: 0,
            hi: last,
            hi_verified: false,
            last,
            gallop,
        }
    }

    /// The index to probe next; `None` once the boundary is `hi`.
    fn next(&self) -> Option<usize> {
        if let Some(offset) = self.gallop {
            Some(self.last - offset)
        } else if self.hi - self.lo > 1 {
            Some(self.lo + (self.hi - self.lo) / 2)
        } else if !self.hi_verified {
            Some(self.hi)
        } else {
            None
        }
    }

    /// Records the verdict of probing `index`, the bracket's
    /// [`next`](Bracket::next). Returns `false` when `hi` itself passes:
    /// the predicate is not monotone.
    fn record(&mut self, index: usize, fails: bool) -> bool {
        if fails {
            self.hi = index;
            self.hi_verified = true;
            self.gallop = self
                .gallop
                .map(|o| o.saturating_mul(2))
                .filter(|&o| o < self.last);
        } else if index == self.hi {
            return false;
        } else {
            self.lo = index;
            self.gallop = None;
        }
        true
    }

    /// The BFS speculation frontier: the probes this search may demand
    /// next, covering *both* outcomes of each pending probe, nearest
    /// first, at most `width` of them. Index 0 (the `D₀` probe) is
    /// demanded directly by the main loop and never appears.
    fn frontier(&self, width: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        let mut queue = std::collections::VecDeque::from([self.clone()]);
        while out.len() < width {
            let Some(bracket) = queue.pop_front() else {
                break;
            };
            let Some(index) = bracket.next() else {
                continue;
            };
            if !out.contains(&index) {
                out.push(index);
            }
            for fails in [true, false] {
                let mut child = bracket.clone();
                if child.record(index, fails) {
                    queue.push_back(child);
                }
            }
        }
        out
    }
}

/// A predicate wrapper enforcing the anytime call budget and remembering
/// the smallest passing (still-failing-the-tool) input seen.
struct Budgeted<'p> {
    inner: &'p mut dyn Predicate,
    calls: u64,
    limit: Option<u64>,
    best: Option<VarSet>,
}

impl ProbeDriver for Budgeted<'_> {
    /// Runs the predicate; `None` once the budget is exhausted.
    fn test(&mut self, input: &VarSet) -> Option<bool> {
        if self.limit.is_some_and(|l| self.calls >= l) {
            return None;
        }
        self.calls += 1;
        let outcome = self.inner.test(input);
        if outcome && self.best.as_ref().is_none_or(|b| input.len() < b.len()) {
            self.best = Some(input.clone());
        }
        Some(outcome)
    }

    fn take_best(&mut self) -> Option<VarSet> {
        self.best.take()
    }

    fn best_so_far(&self) -> Option<&VarSet> {
        self.best.as_ref()
    }

    fn seed_best(&mut self, best: VarSet) {
        self.best = Some(best);
    }
}

fn anytime_outcome<D: ProbeDriver>(
    driver: &mut D,
    search_space: VarSet,
    iterations: usize,
    learned: Vec<VarSet>,
    progression_lengths: Vec<usize>,
) -> GbrOutcome {
    GbrOutcome {
        solution: driver.take_best().unwrap_or(search_space),
        iterations,
        learned,
        progression_lengths,
        budget_exhausted: true,
    }
}

/// Tuning knobs for [`generalized_binary_reduction_speculative`].
#[derive(Debug, Clone)]
pub struct SpeculationConfig {
    /// Total probe parallelism: the main (search) thread plus
    /// `threads - 1` speculation workers. With `threads <= 1` the run
    /// degenerates to sequential probing plus scheduler overhead — use
    /// [`generalized_binary_reduction`] instead in that case.
    pub threads: usize,
    /// Synthetic cost of one tool invocation for the modeled-time column
    /// of the trace. Modeled time follows the paper's *sequential* cost
    /// model — `useful_calls × cost` — so wasted speculative probes are
    /// never charged and Figure 8 stays comparable across thread counts.
    pub cost_per_call_secs: f64,
}

impl SpeculationConfig {
    /// A default configuration probing with `threads`-way parallelism.
    pub fn new(threads: usize) -> Self {
        SpeculationConfig {
            threads,
            cost_per_call_secs: 0.0,
        }
    }
}

/// The result of a speculative GBR run: the (bit-identical) outcome plus
/// parallel-probe accounting and the logical-order trace.
#[derive(Debug, Clone)]
pub struct SpeculativeRun {
    /// The reduction outcome — identical to the sequential run's.
    pub outcome: GbrOutcome,
    /// Useful/speculative/critical-path probe accounting.
    pub stats: ProbeStats,
    /// The trace of *demanded* probes, recorded in logical (sequential)
    /// order with modeled time `call × cost_per_call_secs`.
    pub trace: ReductionTrace,
}

/// Runs GBR with speculative parallel probing.
///
/// During the binary search over progression prefixes the pending probe's
/// successors — for *both* of its possible outcomes — are dispatched to a
/// worker pool, so when the pending result lands the next one is usually
/// already running (or done). Narrowing the search retargets the
/// speculation frontier and cancels work that became irrelevant.
///
/// The final result is **bit-identical** to
/// [`generalized_binary_reduction`] with the same (deterministic,
/// memo-free) predicate: the driver demands exactly the sequential probe
/// sequence, each answer comes from the same pure predicate, and the
/// anytime `best` tracking only ever sees demanded probes. Only wall
/// time, [`ProbeStats::speculative_calls`] and
/// [`ProbeStats::critical_path_calls`] vary with the thread count.
///
/// # Errors
///
/// Exactly the cases of [`generalized_binary_reduction`]; see
/// [`GbrError`].
pub fn generalized_binary_reduction_speculative(
    instance: &Instance,
    order: &VarOrder,
    predicate: &dyn ConcurrentPredicate,
    config: &GbrConfig,
    spec: &SpeculationConfig,
) -> Result<SpeculativeRun, GbrError> {
    generalized_binary_reduction_speculative_controlled(
        instance,
        order,
        predicate,
        config,
        spec,
        &mut GbrControl::default(),
    )
}

/// [`generalized_binary_reduction_speculative`] with [`GbrControl`] hooks.
/// Cancellation also stops the speculation workers (the scheduler is shut
/// down before the scope joins, exactly as on the other error paths).
pub fn generalized_binary_reduction_speculative_controlled(
    instance: &Instance,
    order: &VarOrder,
    predicate: &dyn ConcurrentPredicate,
    config: &GbrConfig,
    spec: &SpeculationConfig,
    control: &mut GbrControl<'_>,
) -> Result<SpeculativeRun, GbrError> {
    // One worker per configured thread: the driving thread spends the
    // latency-bound regime blocked in `demand`, so it does not count
    // against the probe-parallelism budget (it only computes a probe
    // itself when nobody has claimed it yet).
    let workers = spec.threads.max(1);
    let scheduler = ProbeScheduler::new(predicate, 4 * workers);
    let loop_result = std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| scheduler.worker());
        }
        let mut driver = SpeculativeDriver::new(&scheduler, config, spec);
        let outcome = gbr_loop(instance, order, config, &mut driver, control);
        // Always shut down before the scope joins, also on error paths —
        // otherwise the workers wait on the queue condvar forever.
        scheduler.shutdown();
        outcome.map(|o| (o, driver))
    });
    let (outcome, driver) = loop_result?;
    // All workers have joined: the memo is quiescent and every claimed
    // entry was executed exactly once, so entries − demanded is precisely
    // the wasted speculation. The memo-hit split mirrors the sequential
    // oracle's first-demand accounting.
    let scan = scheduler.scan();
    let stats = ProbeStats {
        useful_calls: driver.calls,
        speculative_calls: scan.entries - scan.demanded,
        critical_path_calls: driver.critical,
        memo_hits: driver.calls - driver.distinct,
        memo_misses: driver.distinct,
    };
    Ok(SpeculativeRun {
        outcome,
        stats,
        trace: driver.trace,
    })
}

/// The driver behind [`generalized_binary_reduction_speculative`]: same
/// budget/best bookkeeping as [`Budgeted`], but probes are demanded from
/// the [`ProbeScheduler`] and the narrowing hooks retarget its speculation
/// frontier.
struct SpeculativeDriver<'s> {
    scheduler: &'s ProbeScheduler<'s>,
    calls: u64,
    limit: Option<u64>,
    best: Option<VarSet>,
    /// Candidates enqueued per retarget: one per worker thread. Deeper
    /// queues do not help — an entry beyond the worker count is only
    /// claimed once a worker frees up, which is exactly when the frontier
    /// is about to be retargeted past it, so it would burn CPU on stale
    /// speculation instead.
    width: usize,
    cost_per_call_secs: f64,
    start: Instant,
    trace: ReductionTrace,
    /// Distinct subsets demanded (first demands).
    distinct: u64,
    /// Demands that blocked (waited for a worker or computed inline).
    critical: u64,
}

impl<'s> SpeculativeDriver<'s> {
    fn new(
        scheduler: &'s ProbeScheduler<'s>,
        config: &GbrConfig,
        spec: &SpeculationConfig,
    ) -> Self {
        SpeculativeDriver {
            scheduler,
            calls: 0,
            limit: config.max_predicate_calls,
            best: None,
            width: spec.threads.max(1),
            cost_per_call_secs: spec.cost_per_call_secs,
            start: Instant::now(),
            trace: ReductionTrace::new(),
            distinct: 0,
            critical: 0,
        }
    }
}

impl ProbeDriver for SpeculativeDriver<'_> {
    fn test(&mut self, input: &VarSet) -> Option<bool> {
        if self.limit.is_some_and(|l| self.calls >= l) {
            return None;
        }
        self.calls += 1;
        let demanded = self.scheduler.demand(input);
        if demanded.first_demand {
            self.distinct += 1;
        }
        if demanded.kind != DemandKind::Ready {
            self.critical += 1;
        }
        let outcome = demanded.probe.outcome;
        // `best` only ever sees demanded probes: speculative results must
        // not influence the anytime answer, or it would depend on timing.
        if outcome && self.best.as_ref().is_none_or(|b| input.len() < b.len()) {
            self.best = Some(input.clone());
        }
        let wall = self.start.elapsed().as_secs_f64();
        let modeled = self.calls as f64 * self.cost_per_call_secs;
        self.trace
            .record(self.calls, wall, modeled, demanded.probe.size, outcome);
        Some(outcome)
    }

    fn take_best(&mut self) -> Option<VarSet> {
        self.best.take()
    }

    fn best_so_far(&self) -> Option<&VarSet> {
        self.best.as_ref()
    }

    fn seed_best(&mut self, best: VarSet) {
        self.best = Some(best);
    }

    fn retarget(&mut self, prefix_unions: &[VarSet], bracket: &Bracket, next: usize) {
        // Skip `next`: this thread demands it immediately and computes it
        // inline if nobody beat it to it, so a worker claiming it would
        // only duplicate the wait — every worker goes one level deeper
        // instead. (Before the `D₀` probe `next` is 0, which the frontier
        // never contains, so the full frontier — including the first
        // boundary probe — is speculated during `D₀`.)
        self.scheduler.speculate(
            bracket
                .frontier(self.width)
                .into_iter()
                .filter(|&i| i != next)
                .map(|i| prefix_unions[i].clone())
                .collect(),
        );
    }

    fn search_done(&mut self) {
        self.scheduler.speculate(Vec::new());
    }
}

/// The progression builder for one reduction run: computes
/// `PROGRESSION_{R_I,<}(L, J)` for a sequence of `(L, J)` pairs over one
/// model `R_I`, the way GBR's main loop demands them.
///
/// With [`PropagationMode::Incremental`] the builder keeps one persistent
/// watched-literal [`Engine`] for its whole life: learned sets become
/// permanent level-0 clauses, `J` and each progression prefix are
/// assumption levels, and no formula is ever cloned. With [`PropagationMode::LegacyScan`] every
/// call is the stateless [`build_progression`], the differential
/// reference. Both produce identical progressions (and identical errors).
///
/// # Contract
///
/// Each call's `learned` must extend the previous call's: the sets
/// already passed stay in place, in order, and new ones are only
/// appended — exactly how GBR learns. The engine installs each learned
/// set once and never retracts it. Debug builds assert the contract.
///
/// # Examples
///
/// ```
/// use lbr_core::{build_progression, GbrConfig, ProgressionBuilder};
/// use lbr_logic::{Clause, Cnf, Var, VarOrder, VarSet};
///
/// // Model: 0 ⇒ 1 ⇒ 2.
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause(Clause::edge(Var::new(0), Var::new(1)));
/// cnf.add_clause(Clause::edge(Var::new(1), Var::new(2)));
/// let order = VarOrder::natural(3);
/// let mut builder = ProgressionBuilder::new(&cnf, 3, &GbrConfig::default());
/// let all = VarSet::full(3);
/// let learned = vec![VarSet::from_iter_with_universe(3, [Var::new(1)])];
/// let prog = builder.progression(&order, &learned, &all).unwrap();
/// let scan = build_progression(&cnf, &order, &learned, &all);
/// assert_eq!(Ok(prog), scan);
/// ```
pub struct ProgressionBuilder<'c> {
    cnf: &'c Cnf,
    state: BuilderState,
    /// The learned sets passed so far, to assert the contract.
    #[cfg(debug_assertions)]
    seen: Vec<VarSet>,
}

enum BuilderState {
    Incremental {
        engine: Box<Engine>,
        /// How many learned sets have already been installed as permanent
        /// level-0 clauses (learned sets only ever grow, in order).
        learned_added: usize,
    },
    Scan,
}

impl<'c> ProgressionBuilder<'c> {
    /// A builder over `cnf` for search spaces over `universe` variables,
    /// using `config`'s propagation mode.
    pub fn new(cnf: &'c Cnf, universe: usize, config: &GbrConfig) -> Self {
        let state = match config.propagation {
            PropagationMode::Incremental => BuilderState::Incremental {
                engine: Box::new(Engine::new(cnf, universe)),
                learned_added: 0,
            },
            PropagationMode::LegacyScan => BuilderState::Scan,
        };
        ProgressionBuilder {
            cnf,
            state,
            #[cfg(debug_assertions)]
            seen: Vec::new(),
        }
    }

    /// `PROGRESSION_{R_I,<}(L, J)` with `L = learned` and `J =
    /// search_space`; see [`build_progression`] for what it returns.
    ///
    /// # Errors
    ///
    /// [`GbrError::ModelUnsatisfiable`] when `R_I` restricted to `J` with
    /// one clause per learned set has no model — e.g. a learned set
    /// disjoint from `J`.
    pub fn progression(
        &mut self,
        order: &VarOrder,
        learned: &[VarSet],
        search_space: &VarSet,
    ) -> Result<Vec<VarSet>, GbrError> {
        #[cfg(debug_assertions)]
        {
            assert!(
                learned.starts_with(&self.seen),
                "ProgressionBuilder: each call's learned sets must extend the previous call's"
            );
            self.seen.extend_from_slice(&learned[self.seen.len()..]);
        }
        match &mut self.state {
            BuilderState::Scan => build_progression(self.cnf, order, learned, search_space),
            BuilderState::Incremental {
                engine,
                learned_added,
            } => {
                let progression =
                    incremental_progression(engine, learned_added, order, learned, search_space)?;
                #[cfg(debug_assertions)]
                check_progression_invariants(self.cnf, learned, search_space, &progression);
                Ok(progression)
            }
        }
    }
}

/// The incremental `PROGRESSION_{R_I,<}(L, J)`: same contract as
/// [`build_progression`], but no formula is ever cloned. Newly learned sets
/// become permanent level-0 clauses; the restriction to `J` is one
/// assumption level of negated out-of-`J` literals; each progression prefix
/// is asserted as a further assumption level (by the progression invariant
/// a prefix union is a model of the restricted formula, so asserting it
/// never conflicts and never implies new true variables); and each entry is
/// `MSA` run from the engine's current state.
///
/// Unit propagation is confluent, so every step sees exactly the state the
/// legacy rebuild would recompute, and the produced progressions are
/// identical — differentially tested in `tests/gbr_differential.rs`.
fn incremental_progression(
    engine: &mut Engine,
    learned_added: &mut usize,
    order: &VarOrder,
    learned: &[VarSet],
    search_space: &VarSet,
) -> Result<Vec<VarSet>, GbrError> {
    engine.backtrack(0);
    if !engine.is_ok() {
        // Refuted by unit propagation alone; the legacy path reports the
        // same through its first failed MSA.
        return Err(GbrError::ModelUnsatisfiable);
    }
    // Learned sets are positive clauses over their full member list; under
    // the restriction level below, members outside `J` are false, so the
    // engine clause behaves exactly like the legacy `l ∩ J` clause (and a
    // learned set disjoint from `J` surfaces as a restriction conflict, the
    // same `ModelUnsatisfiable` the legacy path reports).
    while *learned_added < learned.len() {
        let lits: Vec<Lit> = learned[*learned_added].iter().map(Lit::pos).collect();
        engine.add_clause(&lits);
        *learned_added += 1;
        if !engine.is_ok() {
            return Err(GbrError::ModelUnsatisfiable);
        }
    }
    // Restriction level: every variable outside `J` is false. Variables
    // beyond `num_vars` occur in no clause and are never picked true by
    // MSA, so they need no explicit assumption.
    let restriction: Vec<Lit> = (0..engine.num_vars() as u32)
        .map(Var::new)
        .filter(|v| !search_space.contains(*v))
        .map(Lit::neg)
        .collect();
    if !engine.assume_all(&restriction) {
        return Err(GbrError::ModelUnsatisfiable);
    }
    let d0 = engine::msa_from_state(engine, order).ok_or(GbrError::ModelUnsatisfiable)?;
    let mut covered = d0.clone();
    let asserted: Vec<Lit> = covered.iter().map(Lit::pos).collect();
    let ok = engine.assume_all(&asserted);
    debug_assert!(ok, "asserting the MSA model must not conflict");
    let mut progression = vec![d0];

    // The `<`-least uncovered variable, found by resuming from `cursor`:
    // `covered` only grows, so no position before the last pick can become
    // eligible again, and the whole build walks the order once.
    let mut cursor = 0;
    while let Some((k, x)) = order
        .iter()
        .enumerate()
        .skip(cursor)
        .find(|&(_, v)| search_space.contains(v) && !covered.contains(v))
    {
        // `x` is covered below either way: the entry contains it, or the
        // remainder closes the progression.
        cursor = k + 1;
        let before = engine.decision_level();
        let entry = if engine.assume(Lit::pos(x)) {
            engine::msa_from_state(engine, order).map(|s_abs| {
                // `s_abs` is the absolute true-set; strip the prefix that is
                // already covered to get this progression entry (⊇ {x}).
                s_abs.difference(&covered)
            })
        } else {
            None
        };
        engine.backtrack(before);
        match entry {
            Some(entry) => {
                let lits: Vec<Lit> = entry.iter().map(Lit::pos).collect();
                let ok = engine.assume_all(&lits);
                debug_assert!(ok, "asserting a progression prefix must not conflict");
                covered.union_with(&entry);
                progression.push(entry);
            }
            None => {
                // `x` cannot be made true inside this search space. Close
                // the progression with the whole remainder: its prefix is
                // the full search space, which is valid by assumption.
                let rest = search_space.difference(&covered);
                covered.union_with(&rest);
                progression.push(rest);
                break;
            }
        }
    }
    engine.backtrack(0);
    debug_assert_eq!(covered, *search_space, "progression must cover J");
    Ok(progression)
}

/// The `PROGRESSION_{R_I,<}(L, J)` subroutine.
///
/// Produces a non-empty list of disjoint subsets of `J` whose union is `J`,
/// such that (a) every prefix union is a model of `R_I` restricted to `J`
/// and (b) every prefix union overlaps every learned set in `L`.
///
/// Entry 0 is `MSA_<(R⁺)`; entry `k+1` is built by picking the `<`-least
/// uncovered variable `x` and computing `MSA_<(R⁺ ∧ x | D^∪_k = 1)`.
/// Rebuilds restricted formulas at every step with the scan-based
/// [`msa_scan`]. This is the stateless reference implementation: the
/// reducers build their progressions with a [`ProgressionBuilder`], whose
/// default incremental engine produces identical progressions without the
/// clones.
pub fn build_progression(
    cnf: &Cnf,
    order: &VarOrder,
    learned: &[VarSet],
    search_space: &VarSet,
) -> Result<Vec<VarSet>, GbrError> {
    let universe = search_space.universe();
    let no_force = VarSet::empty(universe);
    // R⁺: conjoin one positive clause per learned set, then set variables
    // outside J to false.
    let mut rplus = cnf.restrict(search_space, &no_force);
    for l in learned {
        let members: Vec<_> = l.iter().filter(|v| search_space.contains(*v)).collect();
        if members.is_empty() {
            return Err(GbrError::ModelUnsatisfiable);
        }
        rplus.add_clause(Clause::implication([], members));
    }

    let d0 = msa_scan(&rplus, order).ok_or(GbrError::ModelUnsatisfiable)?;
    let mut covered = d0.clone();
    // Condition away what is already decided true; remaining clauses range
    // over J \ covered.
    let mut current = rplus.restrict(search_space, &covered);
    let mut progression = vec![d0];

    while let Some(x) = order.min_in_difference(search_space, &covered) {
        let mut seed = VarSet::empty(universe);
        seed.insert(x);
        let conditioned = current.restrict(search_space, &seed);
        match msa_scan(&conditioned, order) {
            Some(extra) => {
                let mut entry = extra;
                entry.insert(x);
                covered.union_with(&entry);
                current = current.restrict(search_space, &entry);
                progression.push(entry);
            }
            None => {
                // `x` cannot be made true inside this search space. Close
                // the progression with the whole remainder: its prefix is
                // the full search space, which is valid by assumption.
                let rest = search_space.difference(&covered);
                covered.union_with(&rest);
                progression.push(rest);
                break;
            }
        }
    }
    debug_assert_eq!(covered, *search_space, "progression must cover J");
    #[cfg(debug_assertions)]
    check_progression_invariants(cnf, learned, search_space, &progression);
    Ok(progression)
}

/// Debug-mode check of Lemma 4.3's progression invariants: entries are
/// disjoint (INV-D), every prefix union is a model of `R_I` restricted to
/// `J`, and every prefix overlaps every learned set (INV-PRO).
#[cfg(debug_assertions)]
fn check_progression_invariants(
    cnf: &Cnf,
    learned: &[VarSet],
    search_space: &VarSet,
    progression: &[VarSet],
) {
    let universe = search_space.universe();
    let no_force = VarSet::empty(universe);
    let restricted = cnf.restrict(search_space, &no_force);
    let mut acc = VarSet::empty(universe);
    for (i, d) in progression.iter().enumerate() {
        assert!(acc.is_disjoint(d), "INV-D violated at entry {i}");
        acc.union_with(d);
        // The final entry may be the unshrunk remainder (the fallback when
        // a variable cannot be made true); its prefix is the whole search
        // space, valid by the instance's assumption rather than by MSA.
        let is_fallback_tail = i + 1 == progression.len() && acc == *search_space;
        assert!(
            restricted.eval(&acc) || is_fallback_tail,
            "INV-PRO validity violated at prefix {i}"
        );
        for (k, l) in learned.iter().enumerate() {
            assert!(
                !acc.is_disjoint(l),
                "INV-PRO overlap violated: prefix {i} misses learned set {k}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oracle;
    use lbr_logic::{Lit, Var};

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    fn chain_instance(n: usize) -> Instance {
        // 0 ⇒ 1 ⇒ … ⇒ n-1
        let mut cnf = Cnf::new(n);
        for i in 0..n - 1 {
            cnf.add_clause(Clause::edge(v(i as u32), v(i as u32 + 1)));
        }
        Instance::over_all_vars(cnf)
    }

    #[test]
    fn progression_prefixes_are_valid_and_disjoint() {
        let inst = chain_instance(6);
        let order = VarOrder::natural(6);
        let prog = build_progression(&inst.cnf, &order, &[], &inst.vars).expect("progression");
        let mut acc = VarSet::empty(6);
        for (i, d) in prog.iter().enumerate() {
            assert!(acc.is_disjoint(d), "entry {i} overlaps prefix");
            acc.union_with(d);
            assert!(inst.cnf.eval(&acc), "prefix {i} invalid");
        }
        assert_eq!(acc, inst.vars);
    }

    #[test]
    fn progression_overlaps_learned_sets() {
        let inst = chain_instance(6);
        let order = VarOrder::natural(6);
        let learned = vec![VarSet::from_iter_with_universe(6, [v(4)])];
        let prog = build_progression(&inst.cnf, &order, &learned, &inst.vars).expect("progression");
        // D0 must contain v4 (and therefore v5 by the chain).
        assert!(prog[0].contains(v(4)));
        assert!(prog[0].contains(v(5)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must extend the previous call's")]
    fn progression_builder_asserts_that_learned_sets_only_grow() {
        let inst = chain_instance(6);
        let order = VarOrder::natural(6);
        let mut builder = ProgressionBuilder::new(&inst.cnf, 6, &GbrConfig::default());
        let learned = vec![VarSet::from_iter_with_universe(6, [v(4)])];
        builder
            .progression(&order, &learned, &inst.vars)
            .expect("progression");
        let _ = builder.progression(&order, &[], &inst.vars);
    }

    #[test]
    fn finds_single_required_var() {
        let inst = chain_instance(8);
        let order = crate::closure_size_order(&inst.cnf);
        // Bug requires exactly variable 5 (and validity pulls 6, 7).
        let mut bug = |s: &VarSet| s.contains(v(5));
        let out =
            generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default()).unwrap();
        assert!(out.solution.contains(v(5)));
        assert!(inst.cnf.eval(&out.solution));
        // Chain validity forces 6 and 7 as well; nothing below 5 needed.
        assert!(!out.solution.contains(v(0)));
        assert_eq!(out.solution.len(), 3);
    }

    #[test]
    fn finds_conjunction_of_two_vars() {
        // No constraints at all; bug needs both 2 and 6.
        let inst = Instance::over_all_vars(Cnf::new(8));
        let order = VarOrder::natural(8);
        let mut bug = |s: &VarSet| s.contains(v(2)) && s.contains(v(6));
        let out =
            generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default()).unwrap();
        let got: Vec<Var> = out.solution.iter().collect();
        assert_eq!(got, vec![v(2), v(6)]);
        assert_eq!(out.iterations, 2); // one learned set per variable
    }

    #[test]
    fn respects_non_graph_constraints() {
        // (2 ∧ 3) ⇒ 4; bug needs 2 and 3 — solution must include 4.
        let mut cnf = Cnf::new(5);
        cnf.add_clause(Clause::implication([v(2), v(3)], [v(4)]));
        let inst = Instance::over_all_vars(cnf);
        let order = VarOrder::natural(5);
        let mut bug = |s: &VarSet| s.contains(v(2)) && s.contains(v(3));
        let out =
            generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default()).unwrap();
        assert!(out.solution.contains(v(4)));
        assert!(inst.cnf.eval(&out.solution));
        assert!(!out.solution.contains(v(0)));
    }

    #[test]
    fn paper_suboptimality_example() {
        // Section 4.4: (a ∧ b ⇒ c) ∧ (c ⇒ b), P true iff b, order (c, b, a).
        // GBR returns {b, c}, suboptimal vs {b}.
        let (c, b, a) = (v(0), v(1), v(2));
        let mut cnf = Cnf::new(3);
        cnf.add_clause(Clause::implication([a, b], [c]));
        cnf.add_clause(Clause::edge(c, b));
        let inst = Instance::over_all_vars(cnf);
        let order = VarOrder::from_permutation(vec![c, b, a]);
        let mut bug = |s: &VarSet| s.contains(b);
        let out =
            generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default()).unwrap();
        let got: Vec<Var> = out.solution.iter().collect();
        assert_eq!(got, vec![c, b], "expected the paper's suboptimal {{b, c}}");
    }

    #[test]
    fn local_minimality_on_graph_constraints() {
        // Theorem 4.5: with only graph constraints and a well-picked order
        // (closure-size ascending), the solution is locally minimal —
        // removing any single variable breaks P or validity.
        let mut cnf = Cnf::new(6);
        cnf.add_clause(Clause::edge(v(0), v(1)));
        cnf.add_clause(Clause::edge(v(2), v(3)));
        cnf.add_clause(Clause::edge(v(4), v(5)));
        let inst = Instance::over_all_vars(cnf.clone());
        let order = crate::closure_size_order(&cnf);
        let mut bug = |s: &VarSet| s.contains(v(1)) && s.contains(v(3));
        let out =
            generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default()).unwrap();
        let bug2 = |s: &VarSet| s.contains(v(1)) && s.contains(v(3));
        assert!(bug2(&out.solution));
        assert_eq!(out.solution.len(), 2, "optimal is {{1, 3}}");
        for rem in out.solution.clone().iter() {
            let mut smaller = out.solution.clone();
            smaller.remove(rem);
            let still_valid = inst.cnf.eval(&smaller);
            assert!(
                !still_valid || !bug2(&smaller),
                "removing {rem} kept a valid failing input — not locally minimal"
            );
        }
    }

    #[test]
    fn bad_order_can_be_suboptimal_on_chains() {
        // With the *natural* order on a chain, the first progression is
        // [∅, everything]: GBR learns nothing useful and returns the whole
        // chain. This motivates `closure_size_order`.
        let inst = chain_instance(8);
        let natural = VarOrder::natural(8);
        let mut bug = |s: &VarSet| s.contains(v(5));
        let out =
            generalized_binary_reduction(&inst, &natural, &mut bug, &GbrConfig::default()).unwrap();
        assert_eq!(out.solution.len(), 8, "natural order keeps everything");
        // The closure-size order recovers the minimal suffix {5, 6, 7}.
        let good = crate::closure_size_order(&inst.cnf);
        let mut bug = |s: &VarSet| s.contains(v(5));
        let out =
            generalized_binary_reduction(&inst, &good, &mut bug, &GbrConfig::default()).unwrap();
        assert_eq!(out.solution.len(), 3);
    }

    #[test]
    fn anytime_budget_returns_best_so_far() {
        let inst = chain_instance(32);
        let order = crate::closure_size_order(&inst.cnf);
        // Converged run for reference.
        let mut bug = |s: &VarSet| s.contains(v(20));
        let full = generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default())
            .expect("converges");
        assert!(!full.budget_exhausted);
        // A budget of 2 calls cannot converge, but must return something
        // valid and failing.
        for limit in [1u64, 2, 3, 5] {
            let mut bug = |s: &VarSet| s.contains(v(20));
            let config = GbrConfig {
                max_predicate_calls: Some(limit),
                ..GbrConfig::default()
            };
            let out = generalized_binary_reduction(&inst, &order, &mut bug, &config)
                .expect("anytime result");
            if out.budget_exhausted {
                assert!(inst.cnf.eval(&out.solution), "limit {limit}: invalid");
                assert!(out.solution.contains(v(20)), "limit {limit}: failure lost");
                assert!(out.solution.len() >= full.solution.len());
            } else {
                assert_eq!(out.solution, full.solution);
            }
        }
        // A generous budget converges to the same answer.
        let mut bug = |s: &VarSet| s.contains(v(20));
        let config = GbrConfig {
            max_predicate_calls: Some(10_000),
            ..GbrConfig::default()
        };
        let out = generalized_binary_reduction(&inst, &order, &mut bug, &config).unwrap();
        assert!(!out.budget_exhausted);
        assert_eq!(out.solution, full.solution);
    }

    #[test]
    fn non_monotone_predicate_is_detected() {
        let inst = Instance::over_all_vars(Cnf::new(4));
        let order = VarOrder::natural(4);
        // P is false everywhere — violates P(I).
        let mut bug = |_: &VarSet| false;
        let err = generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default())
            .unwrap_err();
        assert_eq!(err, GbrError::PredicateNotMonotone);
    }

    #[test]
    fn unsatisfiable_model_is_detected() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause(Clause::unit(Lit::pos(v(0))));
        cnf.add_clause(Clause::unit(Lit::neg(v(0))));
        let inst = Instance::over_all_vars(cnf);
        let order = VarOrder::natural(2);
        let mut bug = |_: &VarSet| true;
        let err = generalized_binary_reduction(&inst, &order, &mut bug, &GbrConfig::default())
            .unwrap_err();
        assert_eq!(err, GbrError::ModelUnsatisfiable);
    }

    #[test]
    fn oracle_counts_polynomially_on_chain() {
        let n = 64;
        let inst = chain_instance(n);
        let order = crate::closure_size_order(&inst.cnf);
        let mut bug = |s: &VarSet| s.contains(v(40));
        let mut oracle = Oracle::new(&mut bug, 0.0);
        let out = generalized_binary_reduction(&inst, &order, &mut oracle, &GbrConfig::default())
            .unwrap();
        assert!(out.solution.contains(v(40)));
        assert_eq!(out.solution.len(), 24, "minimal suffix {{40..63}}");
        // One search: ~log2(n) + constant probes.
        assert!(
            oracle.calls() <= 2 * (n as u64).ilog2() as u64 + 8,
            "too many predicate calls: {}",
            oracle.calls()
        );
    }

    #[test]
    fn speculation_frontier_covers_probe_tree() {
        let bisect = |lo, hi| Bracket {
            lo,
            ..Bracket::new(hi, BoundarySearch::Bisect, 1)
        };
        // Interval (0, 8): next probe is 4; its children are 2 and 6, then
        // 1, 3, 5, 7, then the width-1 verification probes.
        assert_eq!(bisect(0, 8).frontier(16), vec![4, 2, 6, 1, 3, 5, 7, 8]);
        assert_eq!(bisect(0, 8).frontier(3), vec![4, 2, 6]);
        // Width-1 interval: only the hi-verification probe remains.
        assert_eq!(bisect(3, 4).frontier(8), vec![4]);
        // A verified width-1 interval: nothing to probe.
        let mut done = bisect(3, 4);
        assert!(done.record(4, true));
        assert!(done.frontier(8).is_empty());
        // Gallop from gap 1 over (0, 8): 7 first; if it fails, 6 (offset 2),
        // if it passes, the verification of 8; then 4 (offset 4), and the
        // bisections of the brackets the gallop left.
        let gallop = Bracket::new(8, BoundarySearch::Gallop, 1);
        assert_eq!(gallop.frontier(16), vec![7, 6, 8, 4, 2, 5, 1, 3]);
        // A gap of 3 starts the gallop at 5; then 2 (offset 6) if it
        // fails, the bisection of (5, 8) if it passes.
        let gallop = Bracket::new(8, BoundarySearch::Gallop, 3);
        assert_eq!(gallop.frontier(3), vec![5, 2, 6]);
        // Index 0 never appears (the main loop demands D₀ itself).
        for hi in 1..40 {
            for gap in 1..6 {
                for search in [BoundarySearch::Bisect, BoundarySearch::Gallop] {
                    let frontier = Bracket::new(hi, search, gap).frontier(64);
                    assert!(!frontier.contains(&0), "hi={hi} {search:?}");
                }
            }
        }
    }

    #[test]
    fn gallop_finds_the_bisection_boundary() {
        // Both boundary searches learn the same sets: each finds the
        // minimal failing prefix, only the probes differ.
        let inst = chain_instance(40);
        let order = crate::closure_size_order(&inst.cnf);
        let bug = |s: &VarSet| s.contains(v(7)) && s.contains(v(30));
        let mut bisect_bug = bug;
        let bisect =
            generalized_binary_reduction(&inst, &order, &mut bisect_bug, &GbrConfig::default())
                .expect("bisect");
        let config = GbrConfig {
            boundary: BoundarySearch::Gallop,
            ..GbrConfig::default()
        };
        let mut gallop_bug = bug;
        let gallop =
            generalized_binary_reduction(&inst, &order, &mut gallop_bug, &config).expect("gallop");
        assert_eq!(gallop.solution, bisect.solution);
        assert_eq!(gallop.learned, bisect.learned);
        for threads in [2usize, 4] {
            let run = generalized_binary_reduction_speculative(
                &inst,
                &order,
                &bug,
                &config,
                &SpeculationConfig::new(threads),
            )
            .expect("speculative gallop");
            assert_eq!(run.outcome.solution, gallop.solution, "threads={threads}");
        }
    }

    #[test]
    fn speculative_matches_sequential_bit_for_bit() {
        let inst = chain_instance(24);
        let order = crate::closure_size_order(&inst.cnf);
        let predicate = |s: &VarSet| s.contains(v(13)) && s.contains(v(4));
        let mut seq_pred = predicate;
        let seq = generalized_binary_reduction(&inst, &order, &mut seq_pred, &GbrConfig::default())
            .expect("sequential");
        for threads in [2usize, 4, 8] {
            let run = generalized_binary_reduction_speculative(
                &inst,
                &order,
                &predicate,
                &GbrConfig::default(),
                &SpeculationConfig::new(threads),
            )
            .expect("speculative");
            assert_eq!(run.outcome.solution, seq.solution, "threads={threads}");
            assert_eq!(run.outcome.learned, seq.learned, "threads={threads}");
            assert_eq!(run.outcome.iterations, seq.iterations, "threads={threads}");
            assert_eq!(
                run.outcome.progression_lengths, seq.progression_lengths,
                "threads={threads}"
            );
            assert!(run.stats.critical_path_calls <= run.stats.useful_calls);
            assert_eq!(
                run.stats.memo_hits + run.stats.memo_misses,
                run.stats.useful_calls
            );
            assert_eq!(run.trace.len() as u64, run.stats.useful_calls);
        }
    }

    #[test]
    fn speculative_useful_calls_match_oracle_calls() {
        let inst = chain_instance(40);
        let order = crate::closure_size_order(&inst.cnf);
        let mut bug = |s: &VarSet| s.contains(v(25));
        let mut oracle = Oracle::new(&mut bug, 0.0);
        let seq = generalized_binary_reduction(&inst, &order, &mut oracle, &GbrConfig::default())
            .expect("sequential");
        let run = generalized_binary_reduction_speculative(
            &inst,
            &order,
            &|s: &VarSet| s.contains(v(25)),
            &GbrConfig::default(),
            &SpeculationConfig::new(4),
        )
        .expect("speculative");
        assert_eq!(run.outcome.solution, seq.solution);
        assert_eq!(run.stats.useful_calls, oracle.calls());
    }

    #[test]
    fn speculative_anytime_budget_matches_sequential() {
        let inst = chain_instance(32);
        let order = crate::closure_size_order(&inst.cnf);
        for limit in [1u64, 2, 3, 5, 10_000] {
            let config = GbrConfig {
                max_predicate_calls: Some(limit),
                ..GbrConfig::default()
            };
            let mut bug = |s: &VarSet| s.contains(v(20));
            let seq = generalized_binary_reduction(&inst, &order, &mut bug, &config)
                .expect("sequential anytime");
            let run = generalized_binary_reduction_speculative(
                &inst,
                &order,
                &|s: &VarSet| s.contains(v(20)),
                &config,
                &SpeculationConfig::new(4),
            )
            .expect("speculative anytime");
            assert_eq!(run.outcome.solution, seq.solution, "limit={limit}");
            assert_eq!(
                run.outcome.budget_exhausted, seq.budget_exhausted,
                "limit={limit}"
            );
        }
    }

    #[test]
    fn speculative_propagates_errors() {
        let inst = Instance::over_all_vars(Cnf::new(4));
        let order = VarOrder::natural(4);
        let err = generalized_binary_reduction_speculative(
            &inst,
            &order,
            &|_: &VarSet| false,
            &GbrConfig::default(),
            &SpeculationConfig::new(4),
        )
        .unwrap_err();
        assert_eq!(err, GbrError::PredicateNotMonotone);
    }

    #[test]
    fn cancel_hook_stops_the_run() {
        let inst = chain_instance(16);
        let order = crate::closure_size_order(&inst.cnf);
        let mut bug = |s: &VarSet| s.contains(v(9));
        let cancel = || true;
        let mut control = GbrControl {
            cancel: Some(&cancel),
            ..GbrControl::default()
        };
        let err = generalized_binary_reduction_controlled(
            &inst,
            &order,
            &mut bug,
            &GbrConfig::default(),
            &mut control,
        )
        .unwrap_err();
        assert_eq!(err, GbrError::Cancelled);
    }

    #[test]
    fn checkpoint_resume_reaches_the_same_solution() {
        // Needs several iterations: bug requires three independent vars.
        let inst = Instance::over_all_vars(Cnf::new(24));
        let order = VarOrder::natural(24);
        let bug = |s: &VarSet| s.contains(v(3)) && s.contains(v(11)) && s.contains(v(19));
        let mut reference = bug;
        let full =
            generalized_binary_reduction(&inst, &order, &mut reference, &GbrConfig::default())
                .expect("uninterrupted run");
        assert!(full.iterations >= 2, "test needs a multi-iteration run");

        // Interrupt after every possible iteration count and resume.
        for stop_after in 1..full.iterations {
            // Cancel as soon as `stop_after` checkpoints have been taken,
            // keeping the last one.
            let taken = std::sync::atomic::AtomicUsize::new(0);
            let mut saved: Option<GbrCheckpoint> = None;
            let mut hook = |ck: &GbrCheckpoint| {
                taken.store(ck.iterations, std::sync::atomic::Ordering::Relaxed);
                saved = Some(ck.clone());
            };
            let cancel = || taken.load(std::sync::atomic::Ordering::Relaxed) >= stop_after;
            let mut control = GbrControl {
                cancel: Some(&cancel),
                checkpoint: Some(&mut hook),
                resume: None,
            };
            let mut interrupted = bug;
            let err = generalized_binary_reduction_controlled(
                &inst,
                &order,
                &mut interrupted,
                &GbrConfig::default(),
                &mut control,
            )
            .unwrap_err();
            assert_eq!(err, GbrError::Cancelled, "stop_after={stop_after}");
            let ck = saved.expect("a checkpoint was taken");
            assert_eq!(ck.iterations, stop_after);
            let mut resumed_bug = bug;
            let mut control = GbrControl {
                resume: Some(ck),
                ..GbrControl::default()
            };
            let resumed = generalized_binary_reduction_controlled(
                &inst,
                &order,
                &mut resumed_bug,
                &GbrConfig::default(),
                &mut control,
            )
            .expect("resumed run converges");
            assert_eq!(resumed.solution, full.solution, "stop_after={stop_after}");
            assert_eq!(resumed.learned, full.learned, "stop_after={stop_after}");
            assert_eq!(
                resumed.iterations, full.iterations,
                "stop_after={stop_after}"
            );
        }
    }

    #[test]
    fn gallop_checkpoint_resume_probes_what_an_uninterrupted_run_does() {
        let inst = Instance::over_all_vars(Cnf::new(32));
        let order = VarOrder::natural(32);
        let bug = |s: &VarSet| [3, 11, 19, 30].iter().all(|&i| s.contains(v(i)));
        let config = GbrConfig {
            boundary: BoundarySearch::Gallop,
            ..GbrConfig::default()
        };
        let probes = |resume: Option<GbrCheckpoint>| {
            let mut seen: Vec<VarSet> = Vec::new();
            let mut record = |s: &VarSet| {
                seen.push(s.clone());
                bug(s)
            };
            let mut control = GbrControl {
                resume,
                ..GbrControl::default()
            };
            let out = generalized_binary_reduction_controlled(
                &inst,
                &order,
                &mut record,
                &config,
                &mut control,
            )
            .expect("converges");
            (out, seen)
        };
        let mut checkpoints: Vec<GbrCheckpoint> = Vec::new();
        let mut hook = |ck: &GbrCheckpoint| checkpoints.push(ck.clone());
        let mut control = GbrControl {
            checkpoint: Some(&mut hook),
            ..GbrControl::default()
        };
        let mut full_bug = bug;
        generalized_binary_reduction_controlled(
            &inst,
            &order,
            &mut full_bug,
            &config,
            &mut control,
        )
        .expect("uninterrupted");
        let (full, full_probes) = probes(None);
        assert!(checkpoints.len() >= 3, "test needs a multi-iteration run");
        assert!(checkpoints.iter().any(|ck| ck.gap > 1), "a gap must carry");
        for ck in checkpoints {
            // A resumed run demands exactly the uninterrupted run's tail.
            let (resumed, tail) = probes(Some(ck));
            assert_eq!(resumed.solution, full.solution);
            assert!(full_probes.ends_with(&tail));
        }
    }

    #[test]
    fn a_checkpoint_of_another_instance_is_a_typed_error() {
        let inst = chain_instance(6);
        let order = VarOrder::natural(6);
        let set = |universe, members: &[u32]| {
            VarSet::from_iter_with_universe(universe, members.iter().map(|&i| v(i)))
        };
        let good = GbrCheckpoint {
            iterations: 1,
            learned: vec![set(6, &[4])],
            search_space: set(6, &[3, 4, 5]),
            best: Some(set(6, &[3, 4, 5])),
            gap: 1,
        };
        let bad = [
            // A learned set over a larger universe: it indexes past the
            // model's variables.
            GbrCheckpoint {
                learned: vec![set(9, &[7])],
                ..good.clone()
            },
            GbrCheckpoint {
                search_space: set(10, &[3, 4, 5]),
                ..good.clone()
            },
            GbrCheckpoint {
                best: Some(set(7, &[4])),
                ..good.clone()
            },
            GbrCheckpoint {
                iterations: 2,
                ..good.clone()
            },
            // Far more iterations than the run may take.
            GbrCheckpoint {
                iterations: 1_000,
                learned: vec![set(6, &[4]); 1_000],
                ..good.clone()
            },
        ];
        for (i, ck) in bad.into_iter().enumerate() {
            let mut bug = |s: &VarSet| s.contains(v(4));
            let mut control = GbrControl {
                resume: Some(ck.clone()),
                ..GbrControl::default()
            };
            let got = generalized_binary_reduction_controlled(
                &inst,
                &order,
                &mut bug,
                &GbrConfig::default(),
                &mut control,
            );
            let want = if i == 4 {
                GbrError::IterationLimit
            } else {
                GbrError::CheckpointMismatch
            };
            assert_eq!(got.unwrap_err(), want, "case {i}: {ck:?}");
        }
        // A search space outside the instance's variables.
        let narrow = Instance::new(set(6, &[2, 3, 4, 5]), inst.cnf.clone());
        let mut bug = |s: &VarSet| s.contains(v(4));
        let mut control = GbrControl {
            resume: Some(GbrCheckpoint {
                search_space: set(6, &[1, 3, 4, 5]),
                ..good.clone()
            }),
            ..GbrControl::default()
        };
        let got = generalized_binary_reduction_controlled(
            &narrow,
            &order,
            &mut bug,
            &GbrConfig::default(),
            &mut control,
        );
        assert_eq!(got.unwrap_err(), GbrError::CheckpointMismatch);
        // The matching checkpoint resumes.
        let mut bug = |s: &VarSet| s.contains(v(4));
        let mut control = GbrControl {
            resume: Some(good),
            ..GbrControl::default()
        };
        let out = generalized_binary_reduction_controlled(
            &inst,
            &order,
            &mut bug,
            &GbrConfig::default(),
            &mut control,
        )
        .expect("resumes");
        assert!(out.solution.contains(v(4)));
    }

    #[test]
    fn speculative_controlled_cancels() {
        let inst = chain_instance(16);
        let order = crate::closure_size_order(&inst.cnf);
        let cancel = || true;
        let mut control = GbrControl {
            cancel: Some(&cancel),
            ..GbrControl::default()
        };
        let err = generalized_binary_reduction_speculative_controlled(
            &inst,
            &order,
            &|s: &VarSet| s.contains(v(9)),
            &GbrConfig::default(),
            &SpeculationConfig::new(4),
            &mut control,
        )
        .unwrap_err();
        assert_eq!(err, GbrError::Cancelled);
    }

    #[test]
    fn trace_digest_ignores_wall_time() {
        let mut a = ReductionTrace::new();
        let mut b = ReductionTrace::new();
        a.record(1, 0.5, 33.0, 100, true);
        b.record(1, 7.9, 33.0, 100, true);
        assert_eq!(a.digest(), b.digest());
        let mut c = ReductionTrace::new();
        c.record(1, 0.5, 33.0, 101, true);
        assert_ne!(a.digest(), c.digest());
    }
}
