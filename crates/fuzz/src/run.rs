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
//!   bit-identical across the legacy scan engine, speculative probe
//!   threads, a cold persistent cache, that cache re-opened warm, a cache
//!   with injected I/O faults, and the service daemon;
//! - **I5** the logical reducer's result is never more than 25% larger
//!   than the ddmin baseline's (a regression tripwire: both reducers are
//!   heuristics and ddmin occasionally wins small cases by a few bytes,
//!   but GBR losing badly means the logical model stopped guiding the
//!   search);
//! - **I6** a warm cache actually answers probes (warm hits observed);
//! - **I7** cache faults only ever cost re-runs (subsumed by I4: the
//!   faulty run must equal the fault-free one);
//! - **I8** the CDCL engine agrees with legacy DPLL: the CDCL-backed
//!   session replays the reference search bit-identically (same reduced
//!   bytes, calls, trace), and on the case's logical model the two
//!   solvers return the same SAT verdict, the same lex-least model, and
//!   the same model count.
//!
//! The progression suite itself is generic over [`Input`], so the stackvm
//! frontend (progression P12) runs the exact same body — only the
//! frontend-specific pieces (parse, oracle, model build) differ, and the
//! broken-oracle self-test (P9) stays classfile-only.

use crate::case::FuzzCase;
use lbr_classfile::{verify_program, Program};
use lbr_cluster::{run_worker, ClusterServer, WorkerOptions};
use lbr_core::{EngineChoice, Input, InputOracle, TestOutcome};
use lbr_decompiler::DecompilerOracle;
use lbr_jreduce::{build_model, check_report, ReductionReport, ReductionSession, RunOptions};
use lbr_logic::{count_models, CdclEngine, Cnf, CountSession, Var, VarSet};
use lbr_service::{
    namespace_digest, Client, Daemon, DaemonConfig, FaultPlan, Json, PersistentOracleCache,
};
use lbr_stackvm::{build_stack_model, StackOracle};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// An in-process reduction cluster: a clustered coordinator daemon, its
/// worker-facing listener, and one worker node over loopback TCP.
struct ClusterHandle {
    client: Client,
    thread: JoinHandle<io::Result<()>>,
    server: Arc<ClusterServer>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<io::Result<()>>>,
}

/// Modeled probe latency for the cluster progression: just enough that
/// the worker node wins probe batches from the coordinator's inline
/// path, so the distributed merge is genuinely exercised.
const CLUSTER_LATENCY_MICROS: u64 = 500;

/// Owns the scratch directory and the optional in-process daemon the
/// progressions run against. One harness serves a whole fuzz run.
pub struct Harness {
    scratch: PathBuf,
    daemon: Option<DaemonHandle>,
    cluster: Option<ClusterHandle>,
    job_counter: std::cell::Cell<u64>,
}

impl Harness {
    /// Creates a harness with a fresh scratch directory (removed on drop).
    pub fn new(scratch: PathBuf) -> io::Result<Harness> {
        std::fs::create_dir_all(&scratch)?;
        Ok(Harness {
            scratch,
            daemon: None,
            cluster: None,
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

    /// Starts an in-process reduction cluster (clustered coordinator plus
    /// one worker node over loopback TCP) so `run_case` can exercise the
    /// distributed path.
    pub fn with_cluster(mut self) -> io::Result<Harness> {
        let state_dir = self.scratch.join("cluster");
        std::fs::create_dir_all(&state_dir)?;
        let cache = Arc::new(PersistentOracleCache::open(state_dir.join("oracle.cache"))?);
        let server = ClusterServer::start(&state_dir, Arc::clone(&cache), 4)?;
        let daemon = Daemon::start_clustered(
            DaemonConfig::new(state_dir, 1),
            cache,
            Arc::clone(&server) as _,
        )?;
        let client = Client::connect(daemon.local_addr().to_string());
        let thread = std::thread::spawn(move || daemon.run());
        if !client.wait_ready(Duration::from_secs(5)) {
            return Err(io::Error::other("clustered daemon did not become ready"));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut options = WorkerOptions::new(server.local_addr().to_string(), "fuzz-worker");
        options.stop = Some(Arc::clone(&stop));
        let workers = vec![std::thread::spawn(move || run_worker(&options))];
        self.cluster = Some(ClusterHandle {
            client,
            thread,
            server,
            stop,
            workers,
        });
        Ok(self)
    }

    /// Whether the cluster progression is available.
    pub fn has_cluster(&self) -> bool {
        self.cluster.is_some()
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
            let oracle = StackOracle::new(&module, case.stack_bugs());
            if !oracle.is_failing() {
                return CaseOutcome::skipped();
            }
            let cnf = build_stack_model(&module)
                .map(|m| m.cnf)
                .map_err(|e| e.to_string());
            return self.run_progressions(case, &module, &oracle, cnf, with_daemon);
        }

        let program = case.program();
        if !verify_program(&program).is_empty() {
            return CaseOutcome::skipped();
        }
        let oracle = DecompilerOracle::new(&program, case.bugs());
        if !oracle.is_failing() {
            return CaseOutcome::skipped();
        }
        let cnf = build_model(&program)
            .map(|m| m.cnf)
            .map_err(|e| e.to_string());
        let mut out = self.run_progressions(case, &program, &oracle, cnf, with_daemon);

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

    /// The format-generic progression body: P0–P8 plus the CDCL (P10)
    /// and cluster (P11) replays, cross-checked under I1–I8. `cnf` is
    /// the frontend's logical model for the direct solver-agreement leg
    /// of I8 (an `Err` is itself a violation — the input verified, so
    /// the model must build).
    fn run_progressions<I, O>(
        &self,
        case: &FuzzCase,
        input: &I,
        oracle: &O,
        cnf: Result<Cnf, String>,
        with_daemon: bool,
    ) -> CaseOutcome
    where
        I: Input,
        O: InputOracle<I>,
    {
        let mut out = CaseOutcome::default();

        // P0: the reference — GBR over the logical model, default options.
        let reference = match session(input, oracle).run() {
            Ok(report) => report,
            Err(e) => {
                out.violations.push(format!("reference run failed: {e}"));
                return out;
            }
        };
        out.progressions += 1;
        out.predicate_calls = reference.predicate_calls;
        soundness("I1-I3 reference", &reference, &mut out.violations);

        // P1+P2: sessions that must replay the identical search (I4) —
        // the legacy scan engine, and speculative parallel probing (which
        // may change nothing but speed).
        let identical: [(&str, RunOptions); 2] = [
            ("legacy-scan", RunOptions::legacy()),
            (
                "probe-threads-2",
                RunOptions {
                    probe_threads: 2,
                    ..RunOptions::default()
                },
            ),
        ];
        for (tag, options) in identical {
            self.identical_to(
                input,
                oracle,
                &reference,
                "logical/greedy",
                tag,
                &options,
                &mut out,
            );
        }

        // P10 (I8): the CDCL engine — bit-identical session replay plus
        // direct solver agreement on the case's logical model.
        self.cdcl_progression(input, oracle, &cnf, &reference, &mut out);

        // P3: the DPLL-conditioned MSA strategy — its own sound result
        // (a different search, so no bit-identity with the reference).
        match session(input, oracle).strategy("logical/dpll+min").run() {
            Ok(report) => {
                out.progressions += 1;
                soundness("I1-I3 dpll-minimize", &report, &mut out.violations);
            }
            Err(e) => out
                .violations
                .push(format!("dpll-minimize run failed: {e}")),
        }

        // P13–P15: the baseline zoo from the strategy registry — HDD over
        // the containment tree, transformation passes before GBR, and the
        // trace-guided GBR mode. Each is its own search (no bit-identity
        // with the reference), checked for soundness (I1–I3). Trace-guided
        // also replays under the legacy options, whose scan-based
        // progressions its Phase B must match exactly (I4).
        for (tag, name) in [
            ("hdd", "hdd"),
            ("transform", "transform"),
            ("trace-guided", "logical/trace-guided"),
        ] {
            match session(input, oracle).strategy(name).run() {
                Ok(report) => {
                    out.progressions += 1;
                    soundness(&format!("I1-I3 {tag}"), &report, &mut out.violations);
                    if tag == "trace-guided" {
                        self.identical_to(
                            input,
                            oracle,
                            &report,
                            name,
                            "trace-guided-legacy-scan",
                            &RunOptions::legacy(),
                            &mut out,
                        );
                    }
                }
                Err(e) => out.violations.push(format!("{tag} run failed: {e}")),
            }
        }

        // P4: the ddmin baseline — sound, and never beaten by GBR (I5).
        match session(input, oracle).strategy("ddmin-items").run() {
            Ok(report) => {
                out.progressions += 1;
                soundness("I1-I3 ddmin-items", &report, &mut out.violations);
                // I5 is a regression tripwire, not a theorem: both
                // reducers are heuristics, and on tiny programs ddmin
                // occasionally wins by a handful of bytes (fuzzing found
                // such cases immediately — see tests/fuzz_regressions/).
                // What must never happen is GBR losing *badly*: that
                // would mean the logical model stopped guiding the
                // search.
                let bound = report.final_metrics.bytes + report.final_metrics.bytes / 4;
                if reference.final_metrics.bytes > bound {
                    out.violations.push(format!(
                        "I5: GBR result ({} bytes) more than 25% above the ddmin baseline ({} bytes)",
                        reference.final_metrics.bytes, report.final_metrics.bytes
                    ));
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
                self.service_progression(
                    &daemon.client,
                    "daemon",
                    0,
                    case,
                    input,
                    &reference,
                    &mut out,
                );
            }
            // P11: the distributed cluster — the same container through a
            // clustered coordinator with a TCP worker node must replay
            // the reference bit-identically; this is the ordered-verdict
            // merge (and the shared cache tier) under the same I1–I8
            // cross-checks as the single-host daemon.
            if let Some(cluster) = &self.cluster {
                self.service_progression(
                    &cluster.client,
                    "cluster",
                    CLUSTER_LATENCY_MICROS,
                    case,
                    input,
                    &reference,
                    &mut out,
                );
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
                diff_reports("I4", tag, reference, &report, &mut out.violations);
            }
            Err(e) => out.violations.push(format!("{tag} run failed: {e}")),
        }
    }

    /// I8: the CDCL progression. The CDCL-backed session must replay the
    /// DPLL reference bit-identically (both engines compute the same
    /// lex-least model, so only solver effort may differ), and on the
    /// case's logical model the two solvers must agree directly — same
    /// SAT verdict, same model, same model count (with and without CDCL
    /// component probes).
    fn cdcl_progression<I, O>(
        &self,
        input: &I,
        oracle: &O,
        cnf: &Result<Cnf, String>,
        reference: &ReductionReport<I>,
        out: &mut CaseOutcome,
    ) where
        I: Input,
        O: InputOracle<I>,
    {
        let options = RunOptions {
            engine: EngineChoice::Cdcl,
            ..RunOptions::default()
        };
        match session(input, oracle).options(options).run() {
            Ok(report) => {
                out.progressions += 1;
                if !report.strategy.ends_with("+cdcl") {
                    out.violations.push(format!(
                        "I8 cdcl-engine: strategy label {:?} is missing +cdcl",
                        report.strategy
                    ));
                }
                diff_reports("I8", "cdcl-engine", reference, &report, &mut out.violations);
            }
            Err(e) => out.violations.push(format!("cdcl-engine run failed: {e}")),
        }
        let cnf = match cnf {
            Ok(cnf) => cnf,
            Err(e) => {
                out.violations.push(format!("I8: model build failed: {e}"));
                return;
            }
        };
        let order = lbr_core::closure_size_order(cnf);
        let dpll = lbr_logic::dpll::solve(cnf, &order);
        let mut engine = CdclEngine::new(cnf, cnf.num_vars());
        let cdcl = engine.solve(&order, &[]);
        if dpll != cdcl {
            out.violations.push(format!(
                "I8: solvers disagree on the model (dpll {:?}, cdcl {:?})",
                dpll, cdcl
            ));
        }
        // Model-count agreement only on small formulas: the counter's u128
        // total overflows past 2^128 models, and counting is exponential in
        // the worst case, so large cases would also blow the time budget.
        if cnf.num_vars() <= 64 {
            let plain = count_models(cnf);
            let probed = CountSession::new().with_cdcl_probes(true).count(cnf);
            if plain != probed {
                out.violations.push(format!(
                    "I8: model counts disagree (plain {plain}, cdcl-probed {probed})"
                ));
            }
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
                diff_reports("I4", "cold-cache", reference, &report, &mut out.violations);
            }
            Err(e) => out.violations.push(format!("cold-cache run failed: {e}")),
        }
        if let Err(e) = cold_cache.save_if_dirty() {
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
                diff_reports("I4", "warm-cache", reference, &report, &mut out.violations);
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
                diff_reports(
                    "I4",
                    "faulty-cache",
                    reference,
                    &report,
                    &mut out.violations,
                );
            }
            Err(e) => out.violations.push(format!("faulty-cache run failed: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Runs `case` through a service front door (`client`) and compares
    /// the job result against the in-process `reference` run: exact
    /// predicate-call count, trace digest, and output bytes (I4). Both
    /// the single-host daemon (`tag = "daemon"`, zero latency) and the
    /// clustered coordinator (`tag = "cluster"`, enough modeled probe
    /// latency that the TCP worker actually participates) go through
    /// here; the job spec carries the case's format tag so the daemon
    /// picks the matching frontend.
    #[allow(clippy::too_many_arguments)]
    fn service_progression<I: Input>(
        &self,
        client: &Client,
        tag: &str,
        latency_micros: u64,
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
                .push(format!("{tag} input write failed: {e}"));
            return;
        }
        let mut fields = vec![
            ("input", Json::str(input_path.display().to_string())),
            ("output", Json::str(output.display().to_string())),
            ("decompiler", Json::str(&case.decompiler)),
            ("format", Json::str(I::FORMAT)),
        ];
        if latency_micros > 0 {
            fields.push(("probe_latency_micros", Json::count(latency_micros)));
        }
        let spec = Json::obj_from(fields);
        let result = client.submit(&spec).and_then(|id| client.wait_result(id));
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                out.violations.push(format!("{tag} job failed: {e}"));
                return;
            }
        };
        out.progressions += 1;
        let v = &mut out.violations;
        if result.str_field("status") != Some("done") {
            v.push(format!(
                "{tag}: job ended {:?} ({:?})",
                result.str_field("status"),
                result.str_field("error")
            ));
            return;
        }
        if result.u64_field("predicate_calls") != Some(reference.predicate_calls) {
            v.push(format!(
                "I4 {tag}: {:?} predicate calls, reference made {}",
                result.u64_field("predicate_calls"),
                reference.predicate_calls
            ));
        }
        let expected_digest = format!("{:016x}", reference.trace.digest());
        if result.str_field("trace_digest") != Some(expected_digest.as_str()) {
            v.push(format!(
                "I4 {tag}: trace digest {:?}, reference {expected_digest}",
                result.str_field("trace_digest")
            ));
        }
        match std::fs::read(&output) {
            Ok(bytes) if bytes == reference.reduced.to_bytes() => {}
            Ok(_) => v.push(format!("I4 {tag}: output bytes differ from the reference")),
            Err(e) => v.push(format!("{tag} output unreadable: {e}")),
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
        if let Some(cluster) = self.cluster.take() {
            cluster.stop.store(true, Ordering::SeqCst);
            let _ = cluster.client.shutdown();
            for worker in cluster.workers {
                let _ = worker.join();
            }
            cluster.server.shutdown();
            let _ = cluster.thread.join();
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

/// Appends a violation for every invariant of [`check_report`] the report
/// breaks (I1: error preserved, I2: verifies + binary round trip, I3: not
/// grown).
fn soundness<I: Input>(tag: &str, report: &ReductionReport<I>, violations: &mut Vec<String>) {
    if let Err(e) = check_report(report) {
        violations.push(format!("{tag}: {e}"));
    }
}

/// Appends violations under invariant `inv` (I4 for the replay
/// progressions, I8 for the CDCL engine) wherever `report` differs from
/// `reference` in result bytes, predicate calls, or the deterministic
/// probe trace.
fn diff_reports<I: Input>(
    inv: &str,
    tag: &str,
    reference: &ReductionReport<I>,
    report: &ReductionReport<I>,
    violations: &mut Vec<String>,
) {
    if report.reduced.to_bytes() != reference.reduced.to_bytes() {
        violations.push(format!(
            "{inv} {tag}: reduced bytes differ from the reference"
        ));
    }
    if report.predicate_calls != reference.predicate_calls {
        violations.push(format!(
            "{inv} {tag}: {} predicate calls, reference made {}",
            report.predicate_calls, reference.predicate_calls
        ));
    }
    if !report.trace.same_probe_sequence(&reference.trace) {
        violations.push(format!(
            "{inv} {tag}: probe trace diverges from the reference"
        ));
    }
}
