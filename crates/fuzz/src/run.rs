//! The differential harness: one generated case, every progression, all
//! invariants cross-checked.
//!
//! The invariants (numbered here and in DESIGN.md §Fuzzing architecture):
//!
//! - **I1** every result still induces the oracle's full error message;
//! - **I2** every result verifies *and* survives a binary round trip
//!   (serialize → parse → equal → verify);
//! - **I3** no result is larger than its input;
//! - **I4** the GBR result, predicate-call count, and probe trace are
//!   bit-identical across speculative probe threads, a cold persistent
//!   cache, that cache re-opened warm, a cache with injected I/O faults,
//!   and the service daemon; and every progression the reference run and
//!   trace-guided Phase B built equals the scan reference's
//!   (`lbr_reference::build_progression`) on the same `(learned,
//!   search_space)` pairs, replayed from their checkpoint chains (the
//!   chain check);
//! - **I5** the logical reducer's result is never more than 25% larger
//!   than the ddmin baseline's unless it is a local minimum, one the
//!   minimize pass cannot shrink (a regression tripwire: both reducers are
//!   heuristics, and GBR's local minimum depends on its variable order, so
//!   ddmin sometimes wins small cases; but a result that is both far
//!   behind and still shrinkable means the logical model stopped guiding
//!   the search);
//! - **I6** a warm cache actually answers probes (warm hits observed);
//! - **I7** cache faults only ever cost re-runs (subsumed by I4: the
//!   faulty run must equal the fault-free one);
//! - **I8** retired together with the CDCL engine it checked (DPLL is the
//!   one complete solver left). The number stays reserved so I1–I7 keep
//!   their meaning in recorded case files and reports;
//! - **I9** the oracle's answer for a candidate, memoized in its
//!   reduction scope or computed outside any scope, is exactly the
//!   memo-free reference (progression P16): the decompiler's
//!   `error_messages(&decompile_program(..))` on classfile cases, the
//!   lowering pass's `StackBugSet::error_messages` on stackvm cases; and
//!   the oracle's predicate (`preserves_failure`, which the classfile
//!   oracle answers by checking only the classes that can print a
//!   baseline message) is exactly "the baseline is a subset of the
//!   reference's messages". The same walk checks the size metric: a
//!   scoped candidate's `byte_size` is exactly the writer's length of its
//!   unscoped rebuild.
//!
//! The progression suite itself is generic over [`Input`], so the stackvm
//! frontend (progression P12) runs the exact same body — only the
//! frontend-specific pieces (parse, oracle, model build) differ, and the
//! broken-oracle self-test (P9) stays classfile-only.

use crate::case::FuzzCase;
use lbr_classfile::{verify_program, write_class, Program};
use lbr_core::{GbrCheckpoint, Input, InputOracle, TestOutcome};
use lbr_decompiler::{decompile_program, error_messages, DecompilerOracle};
use lbr_jreduce::{check_report, ReductionReport, ReductionSession, RunOptions};
use lbr_logic::{Var, VarSet};
use lbr_prng::SplitMix64;
use lbr_service::{
    namespace_digest, Client, Daemon, DaemonConfig, FaultPlan, Json, PersistentOracleCache,
};
use lbr_stackvm::{write_module, Module, StackOracle};
use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

/// The modeled per-probe cost, matching the service's default so daemon
/// traces are comparable.
pub const COST_SECS: f64 = 33.0;

/// The base session every progression starts from: the paper's reducer at
/// the service's modeled cost. Progressions differ only in the session
/// knobs they chain on top (strategy, options, an attached cache).
fn session<'s, I, O>(input: &'s I, oracle: &'s O) -> ReductionSession<'s, I, O>
where
    I: Input,
    O: InputOracle<I>,
{
    ReductionSession::new(input, oracle)
        .strategy("logical/greedy")
        .cost_per_call(COST_SECS)
}

/// The outcome of running one case through the progressions.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// The case did not qualify (oracle not failing, or a shrunk subset
    /// that no longer verifies) and was not counted.
    pub skipped: bool,
    /// Invariant violations, empty on a clean case.
    pub violations: Vec<String>,
    /// Progressions exercised.
    pub progressions: usize,
    /// Predicate calls of the reference run (throughput reporting).
    pub predicate_calls: u64,
    /// Candidates whose oracle answers I9 compared with the reference.
    pub oracle_checks: u64,
    /// Candidates whose byte size I9 compared with the writer's.
    pub size_checks: u64,
    /// Candidates whose predicate answer I9 compared with the reference
    /// and that keep every baseline message.
    pub predicate_accepted: u64,
    /// Candidates whose predicate answer I9 compared with the reference
    /// and that lose a baseline message.
    pub predicate_rejected: u64,
    /// I4 chain checks passed over a non-empty checkpoint chain (one per
    /// GBR run that learned at least once: the reference and
    /// trace-guided).
    pub chain_checks: u64,
}

impl CaseOutcome {
    fn skipped() -> CaseOutcome {
        CaseOutcome {
            skipped: true,
            ..CaseOutcome::default()
        }
    }
}

struct DaemonHandle {
    client: Client,
    thread: JoinHandle<io::Result<()>>,
}

/// Owns the scratch directory and the optional in-process daemon the
/// progressions run against. One harness serves a whole fuzz run.
pub struct Harness {
    scratch: PathBuf,
    daemon: Option<DaemonHandle>,
    job_counter: std::cell::Cell<u64>,
}

impl Harness {
    /// Creates a harness with a fresh scratch directory (removed on drop).
    pub fn new(scratch: PathBuf) -> io::Result<Harness> {
        std::fs::create_dir_all(&scratch)?;
        Ok(Harness {
            scratch,
            daemon: None,
            job_counter: std::cell::Cell::new(0),
        })
    }

    /// Starts the in-process reduction daemon so `run_case` can exercise
    /// the service path.
    pub fn with_daemon(mut self) -> io::Result<Harness> {
        let state_dir = self.scratch.join("daemon");
        let daemon = Daemon::start(DaemonConfig::new(state_dir, 1))?;
        let client = Client::connect(daemon.local_addr().to_string());
        let thread = std::thread::spawn(move || daemon.run());
        if !client.wait_ready(Duration::from_secs(5)) {
            return Err(io::Error::other("daemon did not become ready"));
        }
        self.daemon = Some(DaemonHandle { client, thread });
        Ok(self)
    }

    /// Whether the daemon progression is available.
    pub fn has_daemon(&self) -> bool {
        self.daemon.is_some()
    }

    /// Runs `case` through every progression and cross-checks the
    /// invariants. `with_daemon` additionally routes the case through the
    /// service (ignored if the harness has no daemon); the shrinker turns
    /// it off to keep ddmin probes cheap.
    ///
    /// Stackvm cases (P12) run the identical generic progression body
    /// with the stackvm frontend's parser, oracle, and logical model;
    /// only the broken-oracle self-test (P9) is classfile-specific.
    pub fn run_case(&self, case: &FuzzCase, with_daemon: bool) -> CaseOutcome {
        if case.format == "stackvm" {
            let module = case.module();
            if !module.validate().is_empty() {
                return CaseOutcome::skipped();
            }
            let bugs = case.stack_bugs();
            let oracle = StackOracle::new(&module, bugs.clone());
            if !oracle.is_failing() {
                return CaseOutcome::skipped();
            }
            let mut out = self.run_progressions(case, &module, &oracle, with_daemon);
            // P16: the incremental oracle against its reference (I9).
            incremental_oracle(
                case,
                &module,
                &oracle,
                |candidate| {
                    let mut plain = Module::new();
                    plain.functions = candidate.functions.clone();
                    plain.globals = candidate.globals.clone();
                    plain
                },
                |candidate| bugs.error_messages(candidate),
                |plain| write_module(plain).len() - MODULE_HEADER,
                &mut out,
            );
            return out;
        }

        let program = case.program();
        if !verify_program(&program).is_empty() {
            return CaseOutcome::skipped();
        }
        let oracle = DecompilerOracle::new(&program, case.bugs());
        if !oracle.is_failing() {
            return CaseOutcome::skipped();
        }
        let mut out = self.run_progressions(case, &program, &oracle, with_daemon);

        // P16: the incremental oracle against its reference (I9).
        let bugs = case.bugs();
        incremental_oracle(
            case,
            &program,
            &oracle,
            |candidate| candidate.classes().cloned().collect(),
            |candidate| error_messages(&decompile_program(candidate, &bugs)),
            |plain| plain.classes().map(|c| write_class(c).len()).sum(),
            &mut out,
        );

        // P9 (armed by `fuzz --break-oracle`): a deliberately lying
        // predicate that accepts any verifying subprogram. The harness
        // must catch its result losing the error message — this is the
        // self-test that proves violations are detected and shrunk.
        if case.break_oracle {
            out.progressions += 1;
            let reduced = broken_oracle_reduce(&program);
            if !oracle.preserves_failure(&reduced) {
                out.violations.push(format!(
                    "I1 broken-oracle: result ({} classes) loses the error message",
                    reduced.len()
                ));
            }
        }

        out
    }

    /// The format-generic progression body: P0–P8 plus the baseline zoo
    /// (P13, P15), cross-checked under I1–I7.
    fn run_progressions<I, O>(
        &self,
        case: &FuzzCase,
        input: &I,
        oracle: &O,
        with_daemon: bool,
    ) -> CaseOutcome
    where
        I: Input,
        O: InputOracle<I>,
    {
        let mut out = CaseOutcome::default();

        // P0: the reference — GBR over the logical model, default options.
        // Its checkpoint chain feeds the I4 chain check below.
        let mut chain: Vec<GbrCheckpoint> = Vec::new();
        let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
        let reference = match session(input, oracle).checkpoint(&mut record).run() {
            Ok(report) => report,
            Err(e) => {
                out.violations.push(format!("reference run failed: {e}"));
                return out;
            }
        };
        out.progressions += 1;
        out.predicate_calls = reference.predicate_calls;
        soundness("I1-I3 reference", &reference, &mut out.violations);

        // P2: speculative parallel probing must replay the identical
        // search (I4); it may change nothing but speed. P1 is the chain
        // check below.
        let threaded = RunOptions {
            probe_threads: 2,
            ..RunOptions::default()
        };
        self.identical_to(
            input,
            oracle,
            &reference,
            "logical/greedy",
            "probe-threads-2",
            &threaded,
            &mut out,
        );

        // P3 is retired with the DPLL+minimize MSA variant it ran; the
        // number is not reused.

        // P13 and P15: the baseline zoo from the strategy registry — HDD
        // over the containment tree and the trace-guided GBR mode. Each is
        // its own search (no bit-identity with the reference), checked for
        // soundness (I1–I3). Trace-guided also replays with speculative
        // probing (I4), and its Phase B's checkpoint chain joins the chain
        // check (HDD is not resumable and never calls the hook).
        let mut guided_chain: Vec<GbrCheckpoint> = Vec::new();
        for (tag, name) in [("hdd", "hdd"), ("trace-guided", "logical/trace-guided")] {
            let mut record = |ck: &GbrCheckpoint| guided_chain.push(ck.clone());
            match session(input, oracle)
                .strategy(name)
                .checkpoint(&mut record)
                .run()
            {
                Ok(report) => {
                    out.progressions += 1;
                    soundness(&format!("I1-I3 {tag}"), &report, &mut out.violations);
                    if tag == "trace-guided" {
                        self.identical_to(
                            input,
                            oracle,
                            &report,
                            name,
                            "trace-guided-probe-threads-2",
                            &threaded,
                            &mut out,
                        );
                    }
                }
                Err(e) => out.violations.push(format!("{tag} run failed: {e}")),
            }
        }

        // P1 (I4 chain check): every progression the two GBR runs above
        // built, replayed from its checkpoint chain through a fresh
        // progression builder and the scan reference, must agree entry for
        // entry — each from its run's own start and under its own order:
        // the whole input under the closure-size order for the reference
        // run, the coverage sweep's seed under its history order for
        // trace-guided's Phase B. A chain counts once it holds a recorded
        // progression, not just the first one.
        out.progressions += 1;
        let greedy = lbr_reference::check_input_chain(input, &chain);
        let guided = lbr_jreduce::trace_guided_start(input, oracle)
            .map_err(|e| e.to_string())
            .and_then(|(seed, order)| {
                let model = input.model()?;
                lbr_reference::check_chain(&model.cnf, &order, &seed, &guided_chain)
            });
        for (tag, chain, checked) in [
            ("greedy", &chain, greedy),
            ("trace-guided", &guided_chain, guided),
        ] {
            match checked {
                Ok(_) if !chain.is_empty() => out.chain_checks += 1,
                Ok(_) => {}
                Err(e) => out.violations.push(format!("I4 chain {tag}: {e}")),
            }
        }

        // P4: the ddmin baseline — sound, and not far ahead of GBR (I5).
        match session(input, oracle).strategy("ddmin-items").run() {
            Ok(report) => {
                out.progressions += 1;
                soundness("I1-I3 ddmin-items", &report, &mut out.violations);
                // I5 is a regression tripwire, not a dominance theorem.
                // Both reducers are heuristics: GBR ends in a local
                // minimum whose size depends on its variable order (paper
                // §4.4), and on small inputs ddmin sometimes finds a
                // smaller one (tests/fuzz_regressions/). So GBR may trail
                // ddmin by up to 25%, and by more only when the minimize
                // pass (`logical/minimized`) cannot shrink its result:
                // then the gap is a different witness, not a broken
                // search. A result more than 25% above ddmin's that the
                // pass still shrinks means the logical model stopped
                // guiding the search.
                let (gbr, ddmin) = (reference.final_metrics.bytes, report.final_metrics.bytes);
                if gbr > ddmin + ddmin / 4 {
                    match session(input, oracle).strategy("logical/minimized").run() {
                        Ok(minimized) => {
                            out.progressions += 1;
                            soundness("I1-I3 minimized", &minimized, &mut out.violations);
                            let min = minimized.final_metrics.bytes;
                            if min < gbr {
                                out.violations.push(format!(
                                    "I5: GBR result ({gbr} bytes) more than 25% above the ddmin \
                                     baseline ({ddmin} bytes) and not a local minimum (the \
                                     minimize pass reaches {min} bytes)"
                                ));
                            }
                        }
                        Err(e) => out.violations.push(format!("minimized run failed: {e}")),
                    }
                }
            }
            Err(e) => out.violations.push(format!("ddmin-items run failed: {e}")),
        }

        // P5+P6: cold persistent cache, then the same cache re-opened warm.
        self.cache_progressions(case, input, oracle, &reference, &mut out);

        // P7: a cache with injected I/O faults must degrade to misses,
        // never to a different result.
        self.faulty_cache_progression(case, input, oracle, &reference, &mut out);

        // P8: the daemon path — submit the container, compare the result
        // file bit for bit.
        if with_daemon {
            if let Some(daemon) = &self.daemon {
                self.daemon_progression(&daemon.client, case, input, &reference, &mut out);
            }
        }

        out
    }

    /// Re-runs `strategy` under different `options` and asserts
    /// bit-identity (I4) with `reference`, its run under the defaults.
    #[allow(clippy::too_many_arguments)]
    fn identical_to<I, O>(
        &self,
        input: &I,
        oracle: &O,
        reference: &ReductionReport<I>,
        strategy: &str,
        tag: &str,
        options: &RunOptions,
        out: &mut CaseOutcome,
    ) where
        I: Input,
        O: InputOracle<I>,
    {
        match session(input, oracle)
            .strategy(strategy)
            .options(*options)
            .run()
        {
            Ok(report) => {
                out.progressions += 1;
                diff_reports(tag, reference, &report, &mut out.violations);
            }
            Err(e) => out.violations.push(format!("{tag} run failed: {e}")),
        }
    }

    fn cache_progressions<I, O>(
        &self,
        case: &FuzzCase,
        input: &I,
        oracle: &O,
        reference: &ReductionReport<I>,
        out: &mut CaseOutcome,
    ) where
        I: Input,
        O: InputOracle<I>,
    {
        let path = self
            .scratch
            .join(format!("cache-{:016x}-{}", case.master_seed, case.index));
        let namespace = namespace_digest(&case.decompiler, &input.to_bytes());
        let run_with_cache = |cache: &PersistentOracleCache| {
            let scoped = cache.namespaced(namespace);
            session(input, oracle).cache(&scoped).run()
        };
        let cold_cache = match PersistentOracleCache::open(&path) {
            Ok(cache) => cache,
            Err(e) => {
                out.violations.push(format!("cold cache open failed: {e}"));
                return;
            }
        };
        match run_with_cache(&cold_cache) {
            Ok(report) => {
                out.progressions += 1;
                diff_reports("cold-cache", reference, &report, &mut out.violations);
            }
            Err(e) => out.violations.push(format!("cold-cache run failed: {e}")),
        }
        if let Err(e) = cold_cache.save() {
            out.violations.push(format!("cache save failed: {e}"));
            return;
        }
        let warm_cache = match PersistentOracleCache::open(&path) {
            Ok(cache) => cache,
            Err(e) => {
                out.violations.push(format!("warm cache open failed: {e}"));
                return;
            }
        };
        match run_with_cache(&warm_cache) {
            Ok(report) => {
                out.progressions += 1;
                diff_reports("warm-cache", reference, &report, &mut out.violations);
                if warm_cache.stats().warm_hits == 0 {
                    out.violations
                        .push("I6 warm-cache: no probe was answered from disk".to_string());
                }
            }
            Err(e) => out.violations.push(format!("warm-cache run failed: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }

    fn faulty_cache_progression<I, O>(
        &self,
        case: &FuzzCase,
        input: &I,
        oracle: &O,
        reference: &ReductionReport<I>,
        out: &mut CaseOutcome,
    ) where
        I: Input,
        O: InputOracle<I>,
    {
        let path = self
            .scratch
            .join(format!("faulty-{:016x}-{}", case.master_seed, case.index));
        let cache = match PersistentOracleCache::open(&path) {
            Ok(cache) => cache,
            Err(e) => {
                out.violations
                    .push(format!("faulty cache open failed: {e}"));
                return;
            }
        };
        cache.inject_faults(FaultPlan {
            rate: 0.4,
            seed: FuzzCase::case_seed(case.master_seed, case.index) ^ 0xFA_17,
        });
        let namespace = namespace_digest(&case.decompiler, &input.to_bytes());
        let scoped = cache.namespaced(namespace);
        match session(input, oracle).cache(&scoped).run() {
            Ok(report) => {
                out.progressions += 1;
                diff_reports("faulty-cache", reference, &report, &mut out.violations);
            }
            Err(e) => out.violations.push(format!("faulty-cache run failed: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Runs `case` through the daemon (`client`) and compares the job
    /// result against the in-process `reference` run: exact
    /// predicate-call count, trace digest, and output bytes (I4). The job
    /// spec carries the case's format tag so the daemon picks the
    /// matching frontend.
    fn daemon_progression<I: Input>(
        &self,
        client: &Client,
        case: &FuzzCase,
        input: &I,
        reference: &ReductionReport<I>,
        out: &mut CaseOutcome,
    ) {
        let job = self.job_counter.get();
        self.job_counter.set(job + 1);
        let input_path = self.scratch.join(format!("job-{job}.lbrc"));
        let output = self.scratch.join(format!("job-{job}-out.lbrc"));
        if let Err(e) = std::fs::write(&input_path, input.to_bytes()) {
            out.violations
                .push(format!("daemon input write failed: {e}"));
            return;
        }
        let spec = Json::obj([
            ("input", Json::str(input_path.display().to_string())),
            ("output", Json::str(output.display().to_string())),
            ("decompiler", Json::str(&case.decompiler)),
            ("format", Json::str(I::FORMAT)),
        ]);
        let result = client.submit(&spec).and_then(|id| client.wait_result(id));
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                out.violations.push(format!("daemon job failed: {e}"));
                return;
            }
        };
        out.progressions += 1;
        let v = &mut out.violations;
        if result.str_field("status") != Some("done") {
            v.push(format!(
                "daemon: job ended {:?} ({:?})",
                result.str_field("status"),
                result.str_field("error")
            ));
            return;
        }
        if result.u64_field("predicate_calls") != Some(reference.predicate_calls) {
            v.push(format!(
                "I4 daemon: {:?} predicate calls, reference made {}",
                result.u64_field("predicate_calls"),
                reference.predicate_calls
            ));
        }
        let expected_digest = format!("{:016x}", reference.trace.digest());
        if result.str_field("trace_digest") != Some(expected_digest.as_str()) {
            v.push(format!(
                "I4 daemon: trace digest {:?}, reference {expected_digest}",
                result.str_field("trace_digest")
            ));
        }
        match std::fs::read(&output) {
            Ok(bytes) if bytes == reference.reduced.to_bytes() => {}
            Ok(_) => v.push("I4 daemon: output bytes differ from the reference".to_owned()),
            Err(e) => v.push(format!("daemon output unreadable: {e}")),
        }
        let _ = std::fs::remove_file(&input_path);
        let _ = std::fs::remove_file(&output);
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.client.shutdown();
            let _ = daemon.thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The sorted class names of a program.
pub fn class_names(program: &Program) -> Vec<String> {
    program.names().map(str::to_string).collect()
}

/// The shrinkable item names of a case's input: class names for a
/// classfile case, function and global names for a stackvm case. These
/// are the atoms the shrinker's ddmin deletes (via `keep_classes`).
pub fn item_names(case: &FuzzCase) -> Vec<String> {
    if case.format == "stackvm" {
        let module = case.module();
        module
            .functions
            .iter()
            .map(|f| f.name.clone())
            .chain(module.globals.iter().map(|g| g.name.clone()))
            .collect()
    } else {
        class_names(&case.program())
    }
}

/// The subprogram keeping exactly the classes of `names` selected by
/// `set`.
pub fn subprogram(program: &Program, names: &[String], set: &VarSet) -> Program {
    let mut sub = program.clone();
    for (i, name) in names.iter().enumerate() {
        if !set.contains(Var::new(i as u32)) {
            sub.remove(name);
        }
    }
    sub
}

/// The "reducer" driven by an intentionally-broken oracle: its predicate
/// accepts *any* verifying subprogram — it never checks the error message
/// — so class-level ddmin happily deletes everything. The surrounding
/// invariant check must catch the lie.
fn broken_oracle_reduce(program: &Program) -> Program {
    let names = class_names(program);
    let universe = names.len();
    let atoms: Vec<VarSet> = (0..universe)
        .map(|i| VarSet::from_iter_with_universe(universe, [Var::new(i as u32)]))
        .collect();
    let (kept, _) = lbr_core::ddmin(&atoms, universe, |set: &VarSet| {
        let sub = subprogram(program, &names, set);
        if verify_program(&sub).is_empty() {
            TestOutcome::Fail
        } else {
            TestOutcome::Unresolved
        }
    });
    subprogram(program, &names, &kept)
}

/// How many random candidates P16 probes per case.
const ORACLE_CANDIDATES: usize = 12;

/// The stackvm container header (magic, version, unit counts), which the
/// size metric excludes.
const MODULE_HEADER: usize = 13;

/// P16 (I9): walks random candidates of one reduction scope, a few items
/// toggled per step so that most units repeat, and checks the oracle's
/// answers for each, inside the scope and outside it (`unscoped` rebuilds a
/// candidate that no reduction built), against the memo-free `reference`:
/// the messages, and whether every baseline message is kept.
/// It also checks each scoped candidate's byte size against `written`, the
/// writer's length of the unscoped rebuild.
fn incremental_oracle<I: Input, O: InputOracle<I>>(
    case: &FuzzCase,
    input: &I,
    oracle: &O,
    unscoped: impl Fn(&I) -> I,
    reference: impl Fn(&I) -> BTreeSet<String>,
    written: impl Fn(&I) -> usize,
    out: &mut CaseOutcome,
) {
    out.progressions += 1;
    let model = match input.model() {
        Ok(model) => model,
        Err(e) => {
            return out
                .violations
                .push(format!("I9: the model does not build: {e}"))
        }
    };
    let vars = model.cnf.num_vars();
    let mut rng = SplitMix64::seed_from_u64(FuzzCase::case_seed(case.master_seed, case.index));
    let mut keep = VarSet::full(vars);
    for i in 0..ORACLE_CANDIDATES {
        let candidate = (model.materialize)(&keep);
        let plain = unscoped(&candidate);
        let expected = reference(&candidate);
        let preserved = oracle.baseline().is_subset(&expected);
        out.oracle_checks += 1;
        for (tag, probe) in [("scoped", &candidate), ("unscoped", &plain)] {
            if oracle.preserves_failure(probe) != preserved {
                return out.violations.push(format!(
                    "I9 {tag}: candidate {i} ({} units) gets the predicate answer {}, the reference {preserved}",
                    candidate.unit_count(),
                    !preserved
                ));
            }
            if oracle.errors(probe) != expected {
                return out.violations.push(format!(
                    "I9 {tag}: candidate {i} ({} units) differs from the reference oracle",
                    candidate.unit_count()
                ));
            }
        }
        if preserved {
            out.predicate_accepted += 1;
        } else {
            out.predicate_rejected += 1;
        }
        out.size_checks += 1;
        let (measured, bytes) = (candidate.byte_size(), written(&plain));
        if measured != bytes {
            return out.violations.push(format!(
                "I9 size: candidate {i} ({} units) measures {measured} bytes, the writer gives {bytes}",
                candidate.unit_count()
            ));
        }
        for _ in 0..rng.gen_range(1..=3usize).min(vars) {
            let v = Var::new(rng.gen_range(0..vars) as u32);
            if !keep.remove(v) {
                keep.insert(v);
            }
        }
    }
}

/// Appends a violation for every invariant of [`check_report`] the report
/// breaks (I1: error preserved, I2: verifies + binary round trip, I3: not
/// grown).
fn soundness<I: Input>(tag: &str, report: &ReductionReport<I>, violations: &mut Vec<String>) {
    if let Err(e) = check_report(report) {
        violations.push(format!("{tag}: {e}"));
    }
}

/// Appends I4 violations wherever `report` differs from `reference` in
/// result bytes, predicate calls, or the deterministic probe trace.
fn diff_reports<I: Input>(
    tag: &str,
    reference: &ReductionReport<I>,
    report: &ReductionReport<I>,
    violations: &mut Vec<String>,
) {
    if report.reduced.to_bytes() != reference.reduced.to_bytes() {
        violations.push(format!("I4 {tag}: reduced bytes differ from the reference"));
    }
    if report.predicate_calls != reference.predicate_calls {
        violations.push(format!(
            "I4 {tag}: {} predicate calls, reference made {}",
            report.predicate_calls, reference.predicate_calls
        ));
    }
    if !report.trace.same_probe_sequence(&reference.trace) {
        violations.push(format!("I4 {tag}: probe trace diverges from the reference"));
    }
}
