//! The two in-process workloads, `classfile-suite` and `stackvm-large`,
//! and the reduction loop the service workload's reference run shares.
//!
//! A run builds its inputs from the seed, then reduces the whole input
//! set with each production logical strategy, over and over until the
//! time is up. Each reduction is timed in the CPU time of the thread that
//! runs it and scaled to reference speed with the yardstick (see
//! `clock`); an end-to-end time sums each case's median over the passes.
//! The traced run alternates plain passes with passes over [`Timed`]
//! inputs and a [`TimedOracle`], and requires both to agree exactly.

use crate::clock::{slowdown, thread_cpu_secs, yardstick_secs};
use crate::stats::{geo_mean, median, peak_rss_mb, percentile, ratio, Metrics, Outcome};
use crate::timed::{Ledger, Timed, TimedOracle};
use crate::Args;
use lbr_classfile::Program;
use lbr_core::{Input, InputOracle};
use lbr_decompiler::DecompilerOracle;
use lbr_jreduce::{check_report, ReductionSession};
use lbr_prng::SplitMix64;
use lbr_stackvm::{Module, StackBugKind, StackBugSet, StackOracle};
use lbr_workload::{generate_stack, suite, StackShape, StackWorkloadConfig, SuiteConfig};
use std::time::Instant;

/// The production logical strategies: metric label and registry name.
pub const STRATEGIES: [(&str, &str); 2] = [
    ("greedy", "logical/greedy"),
    ("guided", "logical/trace-guided"),
];

/// Modeled seconds per tool run: the daemon's default, so in-process
/// trace digests compare equal to the daemon's.
const COST_PER_CALL: f64 = 33.0;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// `classfile-suite`: NJR-like programs at this size scale...
const CLASSFILE_SCALE: f64 = 1.2;
/// ...this many programs, each paired with one decompiler in rotation.
/// Each program's size moves its reduction's calls and time, so the totals
/// need many independent programs to vary little from seed to seed.
const CLASSFILE_PROGRAMS: u64 = 96;

/// `stackvm-large`: this many modules, cycling through the shapes...
const STACK_MODULES: u64 = 36;
/// ...of this many functions each.
const STACK_FUNCTIONS: usize = 300;
/// Globals per module.
const STACK_GLOBALS: usize = 12;

/// One input with the oracle whose failure its reduction preserves.
struct Case<I, O> {
    input: I,
    oracle: O,
}

/// What two runs of the same program must agree on exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub calls: u64,
    pub final_bytes: u64,
    pub digest: u64,
}

/// One reduction as seen from outside the program.
#[derive(Default)]
pub struct Reduction {
    pub fp: Fingerprint,
    pub initial_bytes: u64,
    /// Seconds in `ReductionSession::run`: wall time, and the CPU time of
    /// the thread that ran it.
    pub wall: f64,
    pub cpu: f64,
    /// How much slower than the reference machine this one ran around
    /// the reduction ([`slowdown`]).
    pub slowdown: f64,
    /// Intervals between consecutive predicate calls, from the trace.
    pub steps_ms: Vec<f64>,
    pub memo_hits: u64,
    /// Probes that still failed, and all probes, from the trace.
    pub yes: u64,
    pub probes: u64,
    /// Boundary time inside the session, and in `check_report`.
    pub session: Ledger,
    pub check: Ledger,
    pub error: Option<String>,
}

impl Reduction {
    /// The reduction's CPU time in reference-machine seconds.
    pub fn reference_secs(&self) -> f64 {
        self.cpu / self.slowdown
    }
}

/// Reduces one input with one strategy and checks the report.
pub fn reduce<I: Input, O: InputOracle<I>>(input: &I, oracle: &O, strategy: &str) -> Reduction {
    let before = Ledger::now();
    let start = Instant::now();
    let cpu_start = thread_cpu_secs();
    let result = ReductionSession::new(input, oracle)
        .strategy(strategy)
        .cost_per_call(COST_PER_CALL)
        .probe_threads(1)
        .run();
    let cpu = thread_cpu_secs() - cpu_start;
    let wall = start.elapsed().as_secs_f64();
    let after = Ledger::now();
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            return Reduction {
                wall,
                cpu,
                slowdown: 1.0,
                error: Some(format!("{strategy}: {e}")),
                ..Reduction::default()
            }
        }
    };
    let error = check_report(&report).err();
    let check = Ledger::now().since(&after);
    let points = report.trace.points();
    Reduction {
        fp: Fingerprint {
            calls: report.predicate_calls,
            final_bytes: report.final_metrics.bytes as u64,
            digest: report.trace.digest(),
        },
        initial_bytes: report.initial.bytes as u64,
        wall,
        cpu,
        slowdown: 1.0,
        steps_ms: points
            .windows(2)
            .map(|w| ((w[1].wall_secs - w[0].wall_secs) * 1e3).max(0.0))
            .collect(),
        memo_hits: report.probe_stats.memo_hits,
        yes: points.iter().filter(|p| p.success).count() as u64,
        probes: points.len() as u64,
        session: after.since(&before),
        check,
        error,
    }
}

/// One pass: every case reduced with one strategy, in order, with a run
/// of the yardstick before each reduction and after the last.
fn pass<I: Input, O: InputOracle<I>>(cases: &[Case<I, O>], strategy: &str) -> Vec<Reduction> {
    let mut samples = Vec::with_capacity(cases.len() + 1);
    let mut reductions: Vec<Reduction> = cases
        .iter()
        .map(|c| {
            samples.push(yardstick_secs());
            reduce(&c.input, &c.oracle, strategy)
        })
        .collect();
    samples.push(yardstick_secs());
    set_slowdowns(&mut reductions, &samples);
    reductions
}

/// Sets each reduction's `slowdown` from runs of the yardstick, where
/// `samples[i]` ran just before reduction `i` and the last sample after
/// the last reduction: the two runs around a reduction and the one on
/// either side of those.
pub fn set_slowdowns(reductions: &mut [Reduction], samples: &[f64]) {
    for (i, r) in reductions.iter_mut().enumerate() {
        let window = &samples[i.saturating_sub(1)..(i + 3).min(samples.len())];
        r.slowdown = slowdown(window);
    }
}

/// Reductions in `reps` that failed or differ from `reference`, which is
/// the same pass of the same program; every mismatch is printed.
fn failures(reference: &[Reduction], reps: &[Vec<Reduction>]) -> u64 {
    let mut failed = 0;
    for rep in reps {
        for (k, (r, want)) in rep.iter().zip(reference).enumerate() {
            if let Some(e) = &r.error {
                eprintln!("case {k}: {e}");
                failed += 1;
            } else if r.fp != want.fp {
                eprintln!("case {k}: {:?} differs from {:?}", r.fp, want.fp);
                failed += 1;
            }
        }
    }
    failed
}

/// Set-up time at reference speed: the median over [`SETUP_REPS`]
/// builds, in wall time and in the building thread's CPU time.
pub struct SetupTime {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `build` [`SETUP_REPS`] times, each after a run of the yardstick;
/// returns the last result and its median time.
pub fn setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, SetupTime), String> {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut cpus = Vec::with_capacity(SETUP_REPS);
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        samples.push(yardstick_secs());
        let start = Instant::now();
        let cpu_start = thread_cpu_secs();
        built = Some(build()?);
        cpus.push(thread_cpu_secs() - cpu_start);
        walls.push(start.elapsed().as_secs_f64());
    }
    let slowdown = slowdown(&samples);
    let time = SetupTime {
        wall: median(&walls) / slowdown,
        cpu: median(&cpus) / slowdown,
    };
    Ok((built.expect("SETUP_REPS > 0"), time))
}

/// The `classfile-suite` workload.
pub fn classfile_suite(args: &Args) -> Result<Outcome, String> {
    let (cases, setup) = setup(|| classfile_cases(args.seed))?;
    run(&cases, setup, args)
}

/// The `stackvm-large` workload.
pub fn stackvm_large(args: &Args) -> Result<Outcome, String> {
    let (cases, setup) = setup(|| stackvm_cases(args.seed))?;
    run(&cases, setup, args)
}

/// Most generator seeds one case may draw before the run gives up.
const MAX_DRAWS: usize = 64;

/// Makes `n` cases. Case `k` draws generator seeds from the workload seed
/// until `make(k, seed)` returns a failing input. The kind of each case
/// (decompiler, shape) depends on `k` alone, so every workload seed has the
/// same mix, and two workload seeds share no input.
fn draw_cases<C>(
    seed: u64,
    n: u64,
    mut make: impl FnMut(u64, u64) -> Option<C>,
) -> Result<Vec<C>, String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            (0..MAX_DRAWS)
                .find_map(|_| make(k, rng.next_u64()))
                .ok_or_else(|| format!("case {k}: no failing input in {MAX_DRAWS} draws"))
        })
        .collect()
}

/// Case `k` is a one-program suite's instance for decompiler `a`, `b` or
/// `c` in turn.
fn classfile_cases(seed: u64) -> Result<Vec<Case<Program, DecompilerOracle>>, String> {
    draw_cases(seed, CLASSFILE_PROGRAMS, |k, seed| {
        let decompiler = ["-a", "-b", "-c"][k as usize % 3];
        suite(&SuiteConfig {
            seed,
            programs: 1,
            scale: CLASSFILE_SCALE,
        })
        .into_iter()
        .find(|b| b.name.ends_with(decompiler))
        .map(|b| Case {
            oracle: b.oracle(),
            input: b.program,
        })
    })
}

/// Case `k` has the `k`-th shape in turn.
fn stackvm_cases(seed: u64) -> Result<Vec<Case<Module, StackOracle>>, String> {
    draw_cases(seed, STACK_MODULES, |k, seed| {
        let module = generate_stack(&StackWorkloadConfig {
            seed,
            functions: STACK_FUNCTIONS,
            globals: STACK_GLOBALS,
            shape: StackShape::ALL[k as usize % StackShape::ALL.len()],
            plant: StackBugKind::ALL.to_vec(),
            ..StackWorkloadConfig::default()
        });
        let oracle = StackOracle::new(&module, StackBugSet::all());
        oracle.is_failing().then_some(Case {
            input: module,
            oracle,
        })
    })
}

fn run<I: Input, O: InputOracle<I>>(
    cases: &[Case<I, O>],
    setup: SetupTime,
    args: &Args,
) -> Result<Outcome, String> {
    let timed: Vec<Case<Timed<I>, TimedOracle<'_, O>>> = cases
        .iter()
        .map(|c| Case {
            input: Timed(c.input.clone()),
            oracle: TimedOracle(&c.oracle),
        })
        .collect();
    let mut plain: [Vec<Vec<Reduction>>; 2] = Default::default();
    let mut traced: [Vec<Vec<Reduction>>; 2] = Default::default();
    // Passes repeat while another one still fits in the time; the first
    // always runs.
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        for (k, (_, strategy)) in STRATEGIES.iter().enumerate() {
            plain[k].push(pass(cases, strategy));
            if args.trace {
                traced[k].push(pass(&timed, strategy));
            }
        }
        let next_end = start.elapsed() + pass_start.elapsed();
        if next_end.as_secs_f64() > args.seconds {
            break;
        }
    }
    let mut attempted = 0;
    let mut failed = 0;
    for k in 0..STRATEGIES.len() {
        for reps in [&plain[k], &traced[k]] {
            attempted += (reps.len() * cases.len()) as u64;
            failed += failures(&plain[k][0], reps);
        }
    }
    let mut m = Metrics::default();
    if args.trace {
        for (k, (label, _)) in STRATEGIES.iter().enumerate() {
            let plain_s = case_median_sum(&plain[k], Reduction::reference_secs);
            let traced_s = case_median_sum(&traced[k], Reduction::reference_secs);
            let overhead = ratio(traced_s - plain_s, plain_s);
            layer_metrics(&mut m, label, &traced[k], 100.0 * overhead);
        }
        crate::service::absent_layer_metrics(&mut m);
    } else {
        m.push("setup_s", setup.cpu, "s");
        m.push("peak_rss_mb", peak_rss_mb("self")?, "MiB");
        m.push(
            "ok_frac",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        );
        let mut total = 0.0;
        for (k, (label, _)) in STRATEGIES.iter().enumerate() {
            total += totals_metrics(&mut m, label, &plain[k]);
        }
        // Each step is scaled like its reduction's time: to the thread's
        // share of the wall time, at reference speed.
        let step_percentile = |q: f64| {
            let per_pass: Vec<f64> = (0..plain[0].len())
                .map(|p| {
                    let steps: Vec<f64> = plain
                        .iter()
                        .flat_map(|reps| &reps[p])
                        .flat_map(|r| {
                            let scale = ratio(r.cpu, r.wall) / r.slowdown;
                            r.steps_ms.iter().map(move |s| s * scale)
                        })
                        .collect();
                    percentile(&steps, q)
                })
                .collect();
            median(&per_pass)
        };
        m.push("p50_ms", step_percentile(0.50), "ms");
        m.push("p95_ms", step_percentile(0.95), "ms");
        let reductions = (STRATEGIES.len() * cases.len()) as f64;
        m.push("jobs_per_s", reductions / total, "1/s");
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.0,
    })
}

/// Per case, the median of `time` over passes; summed over the cases.
fn case_median_sum(reps: &[Vec<Reduction>], time: fn(&Reduction) -> f64) -> f64 {
    (0..reps[0].len())
        .map(|c| median(&reps.iter().map(|rep| time(&rep[c])).collect::<Vec<_>>()))
        .sum()
}

/// `<label>_wall_s`, `<label>_calls` and `<label>_bytes_pct` (geo-mean of
/// final ÷ initial bytes, in percent). The time is each case's median
/// over passes of [`Reduction::reference_secs`], summed; it is also
/// returned.
fn totals_metrics(m: &mut Metrics, label: &str, reps: &[Vec<Reduction>]) -> f64 {
    let first = &reps[0];
    let secs = case_median_sum(reps, Reduction::reference_secs);
    m.push(format!("{label}_wall_s"), secs, "s");
    m.push(
        format!("{label}_calls"),
        first.iter().map(|r| r.fp.calls).sum::<u64>() as f64,
        "count",
    );
    let kept: Vec<f64> = first
        .iter()
        .map(|r| r.fp.final_bytes as f64 / r.initial_bytes.max(1) as f64)
        .collect();
    m.push(format!("{label}_bytes_pct"), 100.0 * geo_mean(&kept), "%");
    secs
}

/// The per-layer split of traced passes: boundary times are medians over
/// passes, counts come from the first pass (they repeat exactly).
pub fn layer_metrics(m: &mut Metrics, label: &str, reps: &[Vec<Reduction>], overhead_pct: f64) {
    let totals: Vec<(Ledger, f64)> = reps
        .iter()
        .map(|rep| {
            let mut ledger = Ledger::default();
            let mut core_self = 0.0;
            for r in rep {
                ledger.add(&r.session);
                ledger.add(&r.check);
                core_self += r.wall - r.session.frontend_secs() - r.session.oracle.secs;
            }
            (ledger, core_self)
        })
        .collect();
    let med = |f: &dyn Fn(&(Ledger, f64)) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
    let first = &totals[0].0;
    let rep = &reps[0];
    let calls: u64 = rep.iter().map(|r| r.fp.calls).sum();
    let memo_hits: u64 = rep.iter().map(|r| r.memo_hits).sum();
    let yes: u64 = rep.iter().map(|r| r.yes).sum();
    let probes: u64 = rep.iter().map(|r| r.probes).sum();
    m.push(
        format!("{label}.frontend.materialize_s"),
        med(&|t| t.0.materialize.secs),
        "s",
    );
    m.push(
        format!("{label}.frontend.materialize_n"),
        first.materialize.calls as f64,
        "count",
    );
    m.push(
        format!("{label}.frontend.size_s"),
        med(&|t| t.0.size.secs),
        "s",
    );
    m.push(
        format!("{label}.frontend.model_s"),
        med(&|t| t.0.model.secs),
        "s",
    );
    m.push(
        format!("{label}.frontend.check_s"),
        med(&|t| t.0.check.secs),
        "s",
    );
    m.push(format!("{label}.oracle.s"), med(&|t| t.0.oracle.secs), "s");
    m.push(
        format!("{label}.oracle.runs"),
        first.oracle.calls as f64,
        "count",
    );
    m.push(format!("{label}.core.self_s"), med(&|t| t.1), "s");
    m.push(
        format!("{label}.core.memo_hit_rate"),
        ratio(memo_hits as f64, calls as f64),
        "ratio",
    );
    m.push(
        format!("{label}.core.yes_ratio"),
        ratio(yes as f64, probes as f64),
        "ratio",
    );
    m.push(format!("{label}.trace_overhead_pct"), overhead_pct, "%");
}
