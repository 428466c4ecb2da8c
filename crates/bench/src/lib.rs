//! The evaluation harness: runs strategy × benchmark grids and renders
//! every table and figure of the paper's Section 5.
//!
//! The `eval` binary drives this library; Criterion benches reuse the same
//! suite construction. Experiment index (see `DESIGN.md`):
//!
//! * `stats` — the benchmark-statistics paragraph (geo-means),
//! * `fig8a` — cumulative frequency of time and final relative sizes,
//! * `fig8b` — mean reduction factor over (modeled) time,
//! * `lossy` — the two lossy encodings vs the full reducer,
//! * `ablate-order`, `ddmin` — ablations.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod microbench;

use lbr_core::{Input, InputOracle, ProbeStats, ReductionTrace};
use lbr_jreduce::{ReductionSession, RunOptions};
use lbr_service::{atomic_write_str, Json};
use lbr_workload::{
    geometric_mean, stack_suite, suite, suite_stats, Benchmark, StackBenchmark, SuiteConfig,
    SuiteStats,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration of an evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Suite seed.
    pub seed: u64,
    /// Number of generated programs (≤ 3 failing instances each).
    pub programs: usize,
    /// Workload scale factor.
    pub scale: f64,
    /// Modeled seconds per tool invocation (the paper measured ≈33 s).
    pub cost_per_call_secs: f64,
    /// Worker threads for [`run_grid`] (`0` = one per available core).
    /// Results are deterministic and identically ordered at any setting.
    pub threads: usize,
    /// Performance options forwarded to every reduction run (propagation
    /// mode, oracle memoization).
    pub options: RunOptions,
    /// When set, [`run_grid`] persists every finished (benchmark,
    /// strategy) job as `slot-<index>.json` in this directory the moment
    /// it completes — written atomically (temp + `fsync` + rename), so a
    /// grid run killed at any instant leaves only complete, parseable
    /// slot files and loses at most the jobs still in flight.
    pub slot_dir: Option<PathBuf>,
    /// Timing repetitions per (benchmark, strategy) job: the reported
    /// `wall_secs` is the minimum over this many identical runs. Every
    /// other field is deterministic, so repeats only de-noise the wall
    /// clock (use with `threads: 1` for gate-quality numbers).
    pub repeats: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            seed: 42,
            programs: 8,
            scale: 1.0,
            cost_per_call_secs: 33.0,
            threads: 0,
            options: RunOptions::default(),
            slot_dir: None,
            repeats: 1,
        }
    }
}

impl EvalConfig {
    /// Builds the classfile benchmark suite for this configuration.
    pub fn suite(&self) -> Vec<Benchmark> {
        suite(&SuiteConfig {
            seed: self.seed,
            programs: self.programs,
            scale: self.scale,
        })
    }

    /// Builds the stackvm benchmark suite for this configuration. The
    /// classfile suite yields up to three failing instances per program;
    /// three modules per `programs` unit keeps the grids comparably
    /// sized across formats.
    pub fn stack_suite(&self) -> Vec<StackBenchmark> {
        stack_suite(self.seed, self.programs * 3)
    }
}

/// What the evaluation grid needs from a benchmark, abstracted over the
/// frontend: a stable name, the input to reduce, and its oracle. The
/// same grid machinery — work pool, slot persistence, soundness checks —
/// then serves every format behind the [`Input`] trait.
pub trait EvalBenchmark: Sync {
    /// The frontend's input type.
    type Input: Input;
    /// The frontend's oracle type.
    type Oracle: InputOracle<Self::Input>;
    /// Stable benchmark name (unique within a suite).
    fn name(&self) -> &str;
    /// The input to reduce.
    fn input(&self) -> &Self::Input;
    /// Builds the oracle for this benchmark.
    fn oracle(&self) -> Self::Oracle;
}

impl EvalBenchmark for Benchmark {
    type Input = lbr_classfile::Program;
    type Oracle = lbr_decompiler::DecompilerOracle;
    fn name(&self) -> &str {
        &self.name
    }
    fn input(&self) -> &lbr_classfile::Program {
        &self.program
    }
    fn oracle(&self) -> lbr_decompiler::DecompilerOracle {
        Benchmark::oracle(self)
    }
}

impl EvalBenchmark for StackBenchmark {
    type Input = lbr_stackvm::Module;
    type Oracle = lbr_stackvm::StackOracle;
    fn name(&self) -> &str {
        &self.name
    }
    fn input(&self) -> &lbr_stackvm::Module {
        &self.module
    }
    fn oracle(&self) -> lbr_stackvm::StackOracle {
        StackBenchmark::oracle(self)
    }
}

/// One (benchmark, strategy) outcome, flattened for reporting.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Input format (`classfile`, `stackvm` — [`Input::FORMAT`]).
    pub format: String,
    /// Strategy name.
    pub strategy: String,
    /// Classes before reduction.
    pub initial_classes: usize,
    /// Bytes before reduction.
    pub initial_bytes: usize,
    /// Classes after reduction.
    pub final_classes: usize,
    /// Bytes after reduction.
    pub final_bytes: usize,
    /// Predicate invocations.
    pub calls: u64,
    /// Wall-clock seconds of the run.
    pub wall_secs: f64,
    /// Modeled tool seconds (`calls × cost`).
    pub modeled_secs: f64,
    /// Reduction-over-time trace (sizes in bytes).
    pub trace: ReductionTrace,
    /// Item count of the logical model (0 for class-graph strategies).
    pub items: usize,
    /// Clause count of the logical model.
    pub clauses: usize,
    /// Graph-constraint fraction of the model.
    pub graph_fraction: f64,
    /// Soundness: errors preserved and result verifies.
    pub sound: bool,
    /// The run's unified probe accounting (memo hits/misses, useful vs
    /// speculative vs critical-path calls). Serialized through
    /// [`ProbeStats::fields`], so the CSV columns and JSON keys can never
    /// drift from the other frontends.
    pub probe_stats: ProbeStats,
}

impl RunRecord {
    /// Final relative byte size.
    pub fn relative_bytes(&self) -> f64 {
        self.final_bytes as f64 / self.initial_bytes.max(1) as f64
    }

    /// Final relative class count.
    pub fn relative_classes(&self) -> f64 {
        self.final_classes as f64 / self.initial_classes.max(1) as f64
    }

    /// Oracle probes answered from the memo (0 with memoization off).
    pub fn cache_hits(&self) -> u64 {
        self.probe_stats.memo_hits
    }

    /// Oracle probes that ran the tool under memoization.
    pub fn cache_misses(&self) -> u64 {
        self.probe_stats.memo_misses
    }
}

fn record_of<B: EvalBenchmark>(
    benchmark: &B,
    report: lbr_jreduce::ReductionReport<B::Input>,
) -> RunRecord {
    RunRecord {
        benchmark: benchmark.name().to_owned(),
        format: B::Input::FORMAT.to_owned(),
        strategy: report.strategy.clone(),
        initial_classes: report.initial.classes,
        initial_bytes: report.initial.bytes,
        final_classes: report.final_metrics.classes,
        final_bytes: report.final_metrics.bytes,
        calls: report.predicate_calls,
        wall_secs: report.wall_secs,
        modeled_secs: report.modeled_secs,
        trace: report.trace.clone(),
        items: report.model_stats.map_or(0, |s| s.items),
        clauses: report.model_stats.map_or(0, |s| s.clauses),
        graph_fraction: report.model_stats.map_or(0.0, |s| s.graph_fraction),
        sound: report.errors_preserved && report.still_valid,
        probe_stats: report.probe_stats,
    }
}

/// The machine-readable form of one grid slot (see
/// [`EvalConfig::slot_dir`]): the full [`RunRecord`] minus the trace,
/// plus the trace's digest so runs can be compared for bit-identity.
pub fn record_doc(r: &RunRecord) -> Json {
    let mut fields: std::collections::BTreeMap<String, Json> = [
        ("benchmark", Json::str(&r.benchmark)),
        ("format", Json::str(&r.format)),
        ("strategy", Json::str(&r.strategy)),
        ("initial_classes", Json::count(r.initial_classes as u64)),
        ("initial_bytes", Json::count(r.initial_bytes as u64)),
        ("final_classes", Json::count(r.final_classes as u64)),
        ("final_bytes", Json::count(r.final_bytes as u64)),
        ("calls", Json::count(r.calls)),
        ("wall_secs", Json::Num(r.wall_secs)),
        ("modeled_secs", Json::Num(r.modeled_secs)),
        (
            "trace_digest",
            Json::str(format!("{:016x}", r.trace.digest())),
        ),
        ("sound", Json::Bool(r.sound)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    fields.extend(
        r.probe_stats
            .fields()
            .iter()
            .map(|&(k, v)| (k.to_owned(), Json::count(v))),
    );
    Json::Obj(fields)
}

/// Atomically persists one finished grid job into the slot directory.
fn write_slot(dir: &Path, index: usize, result: &Result<RunRecord, String>) {
    let doc = match result {
        Ok(record) => record_doc(record),
        Err(e) => Json::obj([("error", Json::str(e))]),
    };
    let path = dir.join(format!("slot-{index:04}.json"));
    if let Err(e) = atomic_write_str(&path, &doc.render()) {
        eprintln!("warning: cannot persist {}: {e}", path.display());
    }
}

fn run_one<B: EvalBenchmark>(
    config: &EvalConfig,
    b: &B,
    strategy: &str,
) -> Result<RunRecord, String> {
    let oracle = b.oracle();
    let run = || {
        ReductionSession::new(b.input(), &oracle)
            .strategy(strategy)
            .cost_per_call(config.cost_per_call_secs)
            .options(config.options)
            .run()
            .map_err(|e| format!("{} / {strategy}: {e}", b.name()))
    };
    let mut report = run()?;
    // An unsound or non-round-tripping result must surface as a failed
    // job (eval exits non-zero), not as a quietly wrong table row.
    lbr_jreduce::check_report(&report)
        .map_err(|e| format!("{} / {strategy}: invalid result: {e}", b.name()))?;
    // Extra repeats only de-noise wall_secs (keep the fastest run); the
    // search itself is deterministic, so checking the first run suffices.
    for _ in 1..config.repeats.max(1) {
        let again = run()?;
        if again.wall_secs < report.wall_secs {
            report = again;
        }
    }
    Ok(record_of(b, report))
}

/// Runs `strategies` over the whole suite, skipping (and reporting) failed
/// runs.
///
/// With `config.threads != 1` the (benchmark, strategy) jobs are evaluated
/// by a scoped-thread work pool: workers claim job indices from an atomic
/// counter and write results into per-job slots, so the returned records
/// are in exactly the same order — and bit-identical — to a sequential
/// run. Each job builds its own oracle; nothing is shared across jobs.
pub fn run_grid<B: EvalBenchmark>(
    config: &EvalConfig,
    benchmarks: &[B],
    strategies: &[&str],
) -> Vec<RunRecord> {
    let jobs: Vec<(&B, &str)> = benchmarks
        .iter()
        .flat_map(|b| strategies.iter().map(move |&s| (b, s)))
        .collect();
    let workers = match config.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(jobs.len().max(1));

    let slot_dir = config.slot_dir.as_deref();
    if let Some(dir) = slot_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create slot dir {}: {e}", dir.display());
        }
    }

    let slots: Vec<Option<Result<RunRecord, String>>> = if workers <= 1 {
        jobs.iter()
            .enumerate()
            .map(|(i, &(b, strategy))| {
                let result = run_one(config, b, strategy);
                if let Some(dir) = slot_dir {
                    write_slot(dir, i, &result);
                }
                Some(result)
            })
            .collect()
    } else {
        // One lock per job slot: a worker finishing a long run never
        // contends with workers storing unrelated results, unlike a single
        // mutex over the whole result vector.
        let slots: Vec<Mutex<Option<Result<RunRecord, String>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(b, strategy)) = jobs.get(i) else {
                        break;
                    };
                    let result = run_one(config, b, strategy);
                    if let Some(dir) = slot_dir {
                        write_slot(dir, i, &result);
                    }
                    *slots[i].lock().expect("result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot"))
            .collect()
    };

    let mut out = Vec::new();
    for slot in slots {
        match slot.expect("every job was claimed") {
            Ok(record) => out.push(record),
            Err(warning) => eprintln!("warning: {warning}"),
        }
    }
    out
}

/// The strategies of the headline comparison (Figure 8a/8b).
pub fn headline_strategies() -> Vec<&'static str> {
    vec!["jreduce", "logical/greedy"]
}

/// E7 — the baseline-zoo comparison: the headline pair plus the
/// validity-filtered ddmin, HDD, and trace-guided strategies, run over
/// both frontends' suites by the `compare` experiment.
pub fn compare_strategies() -> Vec<&'static str> {
    vec![
        "jreduce",
        "logical/greedy",
        "ddmin-items",
        "hdd",
        "logical/trace-guided",
    ]
}

/// The strategies of the lossy-encoding comparison.
pub fn lossy_strategies() -> Vec<&'static str> {
    vec!["logical/greedy", "lossy-1", "lossy-2"]
}

fn records_of<'r>(records: &'r [RunRecord], strategy: &str) -> Vec<&'r RunRecord> {
    records.iter().filter(|r| r.strategy == strategy).collect()
}

fn fmt_secs(s: f64) -> String {
    let total = s.round() as i64;
    format!(
        "{}:{:02}:{:02}",
        total / 3600,
        (total % 3600) / 60,
        total % 60
    )
}

// ----------------------------------------------------------------------
// Experiment renderers.
// ----------------------------------------------------------------------

/// E2 — the "Statistics" paragraph.
pub fn render_stats(stats: &SuiteStats, records: &[RunRecord]) -> String {
    let logical = records_of(records, "logical/greedy");
    let items = geometric_mean(logical.iter().map(|r| r.items as f64));
    let clauses = geometric_mean(logical.iter().map(|r| r.clauses as f64));
    let graph = if logical.is_empty() {
        0.0
    } else {
        logical.iter().map(|r| r.graph_fraction).sum::<f64>() / logical.len() as f64
    };
    let mut out = String::new();
    let _ = writeln!(out, "# E2: Benchmark statistics (geometric means)");
    let _ = writeln!(
        out,
        "#     paper: 227 instances, 184 classes, 285 KB, 9.2 errors,"
    );
    let _ = writeln!(
        out,
        "#            2.9k items, 8.7k clauses, 97.5% graph clauses"
    );
    let _ = writeln!(out, "instances            {}", stats.benchmarks);
    let _ = writeln!(out, "classes              {:.1}", stats.classes);
    let _ = writeln!(
        out,
        "bytes                {:.0} ({:.1} KB)",
        stats.bytes,
        stats.bytes / 1024.0
    );
    let _ = writeln!(out, "errors               {:.1}", stats.errors);
    let _ = writeln!(out, "reducible items      {items:.0}");
    let _ = writeln!(out, "model clauses        {clauses:.0}");
    let _ = writeln!(out, "graph-clause share   {:.1}%", 100.0 * graph);
    out
}

/// E3 — Figure 8a: cumulative frequency of time spent and final relative
/// sizes (classes and bytes), plus the geometric-mean summary row.
pub fn render_fig8a(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# E3: Figure 8a — cumulative frequency diagrams");
    let _ = writeln!(
        out,
        "#     paper geo-means: time 218.6s (jreduce) vs 680.7s (ours, 3.1x);"
    );
    let _ = writeln!(
        out,
        "#     classes 22.8% vs 8.4%; bytes 24.3% vs 4.6% (5.3x better)"
    );
    for strategy in ["jreduce", "logical/greedy"] {
        let rs = records_of(records, strategy);
        if rs.is_empty() {
            continue;
        }
        let gm_time = geometric_mean(rs.iter().map(|r| r.modeled_secs));
        let gm_classes = geometric_mean(rs.iter().map(|r| 100.0 * r.relative_classes()));
        let gm_bytes = geometric_mean(rs.iter().map(|r| 100.0 * r.relative_bytes()));
        let _ = writeln!(out, "\n## {strategy}  (n = {})", rs.len());
        let _ = writeln!(
            out,
            "geo-mean: time {} ({gm_time:.1}s)  classes {gm_classes:.1}%  bytes {gm_bytes:.1}%",
            fmt_secs(gm_time)
        );
        let _ = writeln!(out, "cumulative frequency (fraction of benchmarks ≤ x):");
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>12} {:>12}",
            "quantile", "time(s)", "classes%", "bytes%"
        );
        let mut times: Vec<f64> = rs.iter().map(|r| r.modeled_secs).collect();
        let mut classes: Vec<f64> = rs.iter().map(|r| 100.0 * r.relative_classes()).collect();
        let mut bytes: Vec<f64> = rs.iter().map(|r| 100.0 * r.relative_bytes()).collect();
        times.sort_by(f64::total_cmp);
        classes.sort_by(f64::total_cmp);
        bytes.sort_by(f64::total_cmp);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let idx = ((q * rs.len() as f64).ceil() as usize).clamp(1, rs.len()) - 1;
            let _ = writeln!(
                out,
                "{:>10} {:>12.1} {:>12.1} {:>12.1}",
                format!("{:.0}%", q * 100.0),
                times[idx],
                classes[idx],
                bytes[idx]
            );
        }
    }
    // Headline ratios.
    let j = records_of(records, "jreduce");
    let l = records_of(records, "logical/greedy");
    if !j.is_empty() && !l.is_empty() {
        let jb = geometric_mean(j.iter().map(|r| r.relative_bytes()));
        let lb = geometric_mean(l.iter().map(|r| r.relative_bytes()));
        let jt = geometric_mean(j.iter().map(|r| r.modeled_secs.max(1.0)));
        let lt = geometric_mean(l.iter().map(|r| r.modeled_secs.max(1.0)));
        let _ = writeln!(
            out,
            "\nheadline: ours reduces bytes {:.1}x better than jreduce ({:.1}% vs {:.1}%), {:.1}x slower",
            jb / lb.max(1e-9),
            100.0 * lb,
            100.0 * jb,
            lt / jt.max(1e-9),
        );
    }
    out
}

/// E4 — Figure 8b: mean reduction factor over modeled time.
pub fn render_fig8b(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# E4: Figure 8b — mean reduction over time");
    let _ = writeln!(
        out,
        "#     series: reduction factor (initial/best bytes so far), modeled time"
    );
    let max_time = records
        .iter()
        .map(|r| r.modeled_secs)
        .fold(0.0f64, f64::max)
        .max(1.0);
    let steps = 24;
    let strategies: Vec<String> = {
        let mut s: Vec<String> = records.iter().map(|r| r.strategy.clone()).collect();
        s.sort();
        s.dedup();
        s
    };
    let _ = write!(out, "{:>10}", "time(s)");
    for s in &strategies {
        let _ = write!(out, " {s:>22}");
    }
    let _ = writeln!(out);
    for step in 0..=steps {
        let t = max_time * step as f64 / steps as f64;
        let _ = write!(out, "{t:>10.0}");
        for s in &strategies {
            let rs = records_of(records, s);
            let factor = geometric_mean(rs.iter().map(|r| {
                let best = r
                    .trace
                    .best_at_modeled_time(t)
                    .unwrap_or(r.initial_bytes as u64);
                r.initial_bytes as f64 / best.max(1) as f64
            }));
            let _ = write!(out, " {factor:>21.2}x");
        }
        let _ = writeln!(out);
    }
    out
}

/// E5 — the lossy-encoding comparison.
pub fn render_lossy(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# E5: Lossy encodings vs the full logical reducer");
    let _ = writeln!(
        out,
        "#     paper: lossy-1/2 produce 5%/8% more bytes; ours strictly"
    );
    let _ = writeln!(
        out,
        "#     better on 48%/51% of benchmarks (79%/84% with ≥5% non-graph)"
    );
    let logical = records_of(records, "logical/greedy");
    for lossy_name in ["lossy-1", "lossy-2"] {
        let lossy = records_of(records, lossy_name);
        if lossy.is_empty() || logical.is_empty() {
            continue;
        }
        // Pair by benchmark.
        let mut more_bytes = Vec::new();
        let mut strictly_better = 0usize;
        let mut strictly_better_nongraph = 0usize;
        let mut nongraph_total = 0usize;
        let mut paired = 0usize;
        for l in &logical {
            if let Some(x) = lossy.iter().find(|r| r.benchmark == l.benchmark) {
                paired += 1;
                more_bytes.push(x.final_bytes as f64 / l.final_bytes.max(1) as f64);
                if l.final_bytes < x.final_bytes {
                    strictly_better += 1;
                }
                if l.graph_fraction <= 0.95 {
                    nongraph_total += 1;
                    if l.final_bytes < x.final_bytes {
                        strictly_better_nongraph += 1;
                    }
                }
            }
        }
        let gm = geometric_mean(more_bytes.iter().copied());
        let _ = writeln!(
            out,
            "\n{lossy_name}: {:.1}% more bytes than logical (geo-mean, n={paired})",
            100.0 * (gm - 1.0)
        );
        let _ = writeln!(
            out,
            "logical strictly better on {:.0}% of benchmarks",
            100.0 * strictly_better as f64 / paired.max(1) as f64
        );
        if nongraph_total > 0 {
            let _ = writeln!(
                out,
                "  … {:.0}% of the {} benchmarks with ≥5% non-graph clauses",
                100.0 * strictly_better_nongraph as f64 / nongraph_total as f64,
                nongraph_total
            );
        }
    }
    out
}

/// A2/A3 — ablation tables (one row per strategy).
pub fn render_ablation(records: &[RunRecord], title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let strategies: Vec<String> = {
        let mut s: Vec<String> = records.iter().map(|r| r.strategy.clone()).collect();
        s.sort();
        s.dedup();
        s
    };
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "strategy", "n", "bytes%", "classes%", "calls", "sound"
    );
    for s in &strategies {
        let rs = records_of(records, s);
        let bytes = geometric_mean(rs.iter().map(|r| 100.0 * r.relative_bytes()));
        let classes = geometric_mean(rs.iter().map(|r| 100.0 * r.relative_classes()));
        let calls = geometric_mean(rs.iter().map(|r| r.calls as f64));
        let sound = rs.iter().all(|r| r.sound);
        let _ = writeln!(
            out,
            "{s:<24} {:>8} {bytes:>9.1}% {classes:>9.1}% {calls:>10.0} {:>8}",
            rs.len(),
            if sound { "yes" } else { "NO" }
        );
    }
    out
}

/// E7 — the baseline-zoo table: one row per (strategy, format) pair with
/// geometric-mean sizes and predicate-call counts, so the trace-guided
/// mode's call savings against plain GBR are directly readable. Rows
/// follow [`compare_strategies`] order (then any extra strategies found
/// in the records, sorted), formats within a strategy sorted.
pub fn render_compare(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# E7: strategy zoo × input format");
    let _ = writeln!(
        out,
        "#     geo-means per (strategy, format); calls is the predicate-call count"
    );
    let mut order: Vec<String> = compare_strategies()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut extra: Vec<String> = records
        .iter()
        .map(|r| r.strategy.clone())
        .filter(|s| !order.contains(s))
        .collect();
    extra.sort();
    extra.dedup();
    order.extend(extra);
    let mut formats: Vec<String> = records.iter().map(|r| r.format.clone()).collect();
    formats.sort();
    formats.dedup();
    let _ = writeln!(
        out,
        "{:<24} {:<10} {:>4} {:>10} {:>10} {:>10} {:>8}",
        "strategy", "format", "n", "bytes%", "classes%", "calls", "sound"
    );
    for s in &order {
        for format in &formats {
            let rs: Vec<&RunRecord> = records
                .iter()
                .filter(|r| &r.strategy == s && &r.format == format)
                .collect();
            if rs.is_empty() {
                continue;
            }
            let bytes = geometric_mean(rs.iter().map(|r| 100.0 * r.relative_bytes()));
            let classes = geometric_mean(rs.iter().map(|r| 100.0 * r.relative_classes()));
            let calls = geometric_mean(rs.iter().map(|r| r.calls as f64));
            let sound = rs.iter().all(|r| r.sound);
            let _ = writeln!(
                out,
                "{s:<24} {format:<10} {:>4} {bytes:>9.1}% {classes:>9.1}% {calls:>10.1} {:>8}",
                rs.len(),
                if sound { "yes" } else { "NO" }
            );
        }
    }
    // The headline claim of the trace-guided mode: fewer predicate calls
    // than the plain greedy GBR it layers on, per format.
    for format in &formats {
        let calls_of = |name: &str| {
            let rs: Vec<&RunRecord> = records
                .iter()
                .filter(|r| r.strategy == name && &r.format == format)
                .collect();
            (!rs.is_empty()).then(|| geometric_mean(rs.iter().map(|r| r.calls as f64)))
        };
        if let (Some(plain), Some(traced)) =
            (calls_of("logical/greedy"), calls_of("logical/trace-guided"))
        {
            let _ = writeln!(
                out,
                "\n{format}: trace-guided makes {traced:.1} calls (geo-mean) vs {plain:.1} for logical/greedy ({:+.1}%)",
                100.0 * (traced / plain.max(1e-9) - 1.0)
            );
        }
    }
    out
}

/// E6 — per-error reduction: one GBR search per distinct compiler error
/// (the paper's long-running cases: "73 searches … 951 decompilations").
pub fn render_per_error<B: EvalBenchmark>(config: &EvalConfig, benchmarks: &[B]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# E6: per-error reduction (one search per distinct error)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>9} {:>14} {:>16} {:>10}",
        "benchmark", "errors", "searches", "tool runs", "witness bytes", "hit rate"
    );
    let mut witness_sizes: Vec<f64> = Vec::new();
    for b in benchmarks {
        let oracle = b.oracle();
        match ReductionSession::new(b.input(), &oracle)
            .cost_per_call(config.cost_per_call_secs)
            .options(config.options)
            .run_per_error()
        {
            Ok(report) => {
                let gm = geometric_mean(report.errors.iter().map(|(_, s)| s.bytes as f64));
                witness_sizes.extend(report.errors.iter().map(|(_, s)| s.bytes as f64));
                let _ = writeln!(
                    out,
                    "{:<12} {:>7} {:>9} {:>14} {:>15.0}g {:>9.0}%",
                    b.name(),
                    oracle.error_count(),
                    report.errors.len(),
                    report.total_calls,
                    gm,
                    100.0 * report.cache_hit_rate()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:<12} failed: {e}", b.name());
            }
        }
    }
    let _ = writeln!(
        out,
        "\nper-error witnesses are tiny: geo-mean {:.0} bytes across {} searches",
        geometric_mean(witness_sizes.iter().copied()),
        witness_sizes.len()
    );
    out
}

/// Renders the full per-run CSV (for external plotting).
pub fn render_csv(records: &[RunRecord]) -> String {
    // The probe-stat columns (header and values) come straight from
    // `ProbeStats::fields`, the one canonical spelling of those counters.
    let stat_names: Vec<&str> = ProbeStats::default()
        .fields()
        .iter()
        .map(|&(k, _)| k)
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "benchmark,strategy,initial_classes,initial_bytes,final_classes,final_bytes,calls,wall_secs,modeled_secs,items,clauses,graph_fraction,sound,{}",
        stat_names.join(",")
    );
    for r in records {
        let stat_values: Vec<String> = r
            .probe_stats
            .fields()
            .iter()
            .map(|&(_, v)| v.to_string())
            .collect();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:.3},{:.1},{},{},{:.4},{},{}",
            r.benchmark,
            r.strategy,
            r.initial_classes,
            r.initial_bytes,
            r.final_classes,
            r.final_bytes,
            r.calls,
            r.wall_secs,
            r.modeled_secs,
            r.items,
            r.clauses,
            r.graph_fraction,
            r.sound,
            stat_values.join(",")
        );
    }
    out
}

/// Renders machine-readable results (the `BENCH_results.json` payload):
/// one object per run plus per-strategy aggregates with total wall time,
/// predicate calls, and cache hit rates. Hand-rolled JSON — the harness
/// stays dependency-free.
pub fn render_json(records: &[RunRecord]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    out.push_str("{\n  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"benchmark\": \"{}\", \"format\": \"{}\", \"strategy\": \"{}\", \"initial_bytes\": {}, \"final_bytes\": {}, \"initial_classes\": {}, \"final_classes\": {}, \"predicate_calls\": {}, \"wall_secs\": {:.6}, \"modeled_secs\": {:.1}, \"cache_hits\": {}, \"cache_misses\": {}, \"useful_calls\": {}, \"speculative_calls\": {}, \"critical_path_calls\": {}, \"sound\": {}}}",
            esc(&r.benchmark),
            esc(&r.format),
            esc(&r.strategy),
            r.initial_bytes,
            r.final_bytes,
            r.initial_classes,
            r.final_classes,
            r.calls,
            r.wall_secs,
            r.modeled_secs,
            r.cache_hits(),
            r.cache_misses(),
            r.probe_stats.useful_calls,
            r.probe_stats.speculative_calls,
            r.probe_stats.critical_path_calls,
            r.sound
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"strategies\": [\n");
    // Aggregate per (format, strategy): a stackvm run of `logical/greedy`
    // must not fold into the classfile aggregate of the same strategy.
    let strategies: Vec<(String, String)> = {
        let mut s: Vec<(String, String)> = records
            .iter()
            .map(|r| (r.format.clone(), r.strategy.clone()))
            .collect();
        s.sort();
        s.dedup();
        s
    };
    for (i, (format, s)) in strategies.iter().enumerate() {
        let rs: Vec<&RunRecord> = records
            .iter()
            .filter(|r| &r.strategy == s && &r.format == format)
            .collect();
        let wall: f64 = rs.iter().map(|r| r.wall_secs).sum();
        let calls: u64 = rs.iter().map(|r| r.calls).sum();
        let hits: u64 = rs.iter().map(|r| r.cache_hits()).sum();
        let misses: u64 = rs.iter().map(|r| r.cache_misses()).sum();
        let useful: u64 = rs.iter().map(|r| r.probe_stats.useful_calls).sum();
        let speculative: u64 = rs.iter().map(|r| r.probe_stats.speculative_calls).sum();
        let critical: u64 = rs.iter().map(|r| r.probe_stats.critical_path_calls).sum();
        let hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let bytes_pct = geometric_mean(rs.iter().map(|r| 100.0 * r.relative_bytes()));
        let _ = write!(
            out,
            "    {{\"format\": \"{}\", \"strategy\": \"{}\", \"runs\": {}, \"wall_secs\": {:.6}, \"predicate_calls\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \"useful_calls\": {}, \"speculative_calls\": {}, \"critical_path_calls\": {}, \"geo_mean_bytes_pct\": {:.2}}}",
            esc(format),
            esc(s),
            rs.len(),
            wall,
            calls,
            hits,
            misses,
            hit_rate,
            useful,
            speculative,
            critical,
            bytes_pct
        );
        out.push_str(if i + 1 < strategies.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Convenience for tests and benches: one small suite.
pub fn small_suite() -> Vec<Benchmark> {
    EvalConfig {
        programs: 2,
        scale: 0.6,
        ..EvalConfig::default()
    }
    .suite()
}

/// Re-export for the `eval` binary and benches.
pub use lbr_workload::SuiteStats as Stats;

/// Computes suite statistics (thin wrapper, re-exported for `eval`).
pub fn compute_stats(benchmarks: &[Benchmark]) -> SuiteStats {
    suite_stats(benchmarks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_and_renders() {
        let config = EvalConfig {
            programs: 1,
            scale: 0.4,
            ..EvalConfig::default()
        };
        let benchmarks = config.suite();
        assert!(!benchmarks.is_empty());
        let records = run_grid(&config, &benchmarks, &headline_strategies());
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.sound), "all runs must be sound");
        assert!(
            records
                .iter()
                .all(|r| r.probe_stats.useful_calls == r.calls
                    && r.probe_stats.speculative_calls == 0),
            "sequential runs: useful == calls, no speculation"
        );
        let json = render_json(&records);
        assert!(json.contains("\"speculative_calls\""));
        assert!(render_csv(&records).contains("critical_path_calls"));
        let stats = compute_stats(&benchmarks);
        for text in [
            render_stats(&stats, &records),
            render_fig8a(&records),
            render_fig8b(&records),
            render_ablation(&records, "test"),
            render_csv(&records),
            render_json(&records),
        ] {
            assert!(!text.is_empty());
        }
    }

    #[test]
    fn stackvm_grid_runs_and_tags_format() {
        let config = EvalConfig {
            programs: 1,
            ..EvalConfig::default()
        };
        let benchmarks = config.stack_suite();
        assert!(!benchmarks.is_empty());
        let records = run_grid(&config, &benchmarks, &headline_strategies());
        assert_eq!(records.len(), benchmarks.len() * 2);
        assert!(records.iter().all(|r| r.sound), "all runs must be sound");
        assert!(records.iter().all(|r| r.format == "stackvm"));
        let json = render_json(&records);
        assert!(json.contains("\"format\": \"stackvm\""));
        // Mixed-format records aggregate per (format, strategy): the same
        // strategy name shows up once per frontend.
        let classfile = run_grid(&config, &config.suite(), &["jreduce"]);
        let mut mixed = records.clone();
        mixed.extend(classfile);
        let json = render_json(&mixed);
        assert!(json.contains("\"format\": \"classfile\", \"strategy\": \"jreduce\""));
        assert!(json.contains("\"format\": \"stackvm\", \"strategy\": \"jreduce\""));
    }

    #[test]
    fn parallel_grid_matches_sequential_and_legacy_options() {
        let base = EvalConfig {
            programs: 1,
            scale: 0.4,
            ..EvalConfig::default()
        };
        let benchmarks = base.suite();
        let strategies = headline_strategies();
        let sequential = run_grid(
            &EvalConfig {
                threads: 1,
                ..base.clone()
            },
            &benchmarks,
            &strategies,
        );
        let parallel = run_grid(
            &EvalConfig {
                threads: 4,
                ..base.clone()
            },
            &benchmarks,
            &strategies,
        );
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.benchmark, p.benchmark);
            assert_eq!(s.strategy, p.strategy);
            assert_eq!(s.final_bytes, p.final_bytes);
            assert_eq!(s.final_classes, p.final_classes);
            assert_eq!(s.calls, p.calls);
        }
        // The legacy (scan + no memo) options must give the same results.
        let legacy = run_grid(
            &EvalConfig {
                threads: 1,
                options: RunOptions::legacy(),
                ..base
            },
            &benchmarks,
            &strategies,
        );
        assert_eq!(sequential.len(), legacy.len());
        for (s, l) in sequential.iter().zip(&legacy) {
            assert_eq!(s.final_bytes, l.final_bytes);
            assert_eq!(s.calls, l.calls);
            assert_eq!(l.cache_hits() + l.cache_misses(), 0, "legacy runs no cache");
        }
        let json = render_json(&sequential);
        assert!(json.contains("\"strategies\""));
        assert!(json.contains("cache_hit_rate"));
    }

    #[test]
    fn grid_persists_slots_atomically() {
        let dir = std::env::temp_dir().join(format!("lbr-slots-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EvalConfig {
            programs: 1,
            scale: 0.4,
            threads: 2,
            slot_dir: Some(dir.clone()),
            ..EvalConfig::default()
        };
        let benchmarks = config.suite();
        let records = run_grid(&config, &benchmarks, &headline_strategies());
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert_eq!(files.len(), records.len(), "one slot file per finished job");
        for (path, record) in files.iter().zip(&records) {
            let doc = Json::parse(&std::fs::read_to_string(path).unwrap())
                .expect("every slot file is complete, parseable JSON");
            assert_eq!(doc.str_field("benchmark"), Some(record.benchmark.as_str()));
            assert_eq!(doc.str_field("strategy"), Some(record.strategy.as_str()));
            assert_eq!(
                doc.u64_field("final_bytes"),
                Some(record.final_bytes as u64)
            );
            assert_eq!(
                doc.str_field("trace_digest"),
                Some(format!("{:016x}", record.trace.digest()).as_str())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lossy_render_pairs_benchmarks() {
        let config = EvalConfig {
            programs: 1,
            scale: 0.4,
            ..EvalConfig::default()
        };
        let benchmarks = config.suite();
        let records = run_grid(&config, &benchmarks, &lossy_strategies());
        let text = render_lossy(&records);
        assert!(text.contains("lossy-1"));
    }
}
