//! Reduces a benchmark container: the command-line face of the paper's
//! tool.
//!
//! ```text
//! reduce --input bench.lbrc [--format classfile|stackvm]
//!        --decompiler a|b|c|all
//!        [--strategy NAME] [--list-strategies]
//!        [--out reduced.lbrc] [--json report.json] [--disasm]
//!        [--per-error] [--cost SECS] [--probe-threads N]
//! ```
//!
//! `--strategy` takes any name in the strategy registry (see
//! `--list-strategies` for the full zoo and each strategy's capability
//! flags); the short aliases of earlier releases (`logical`,
//! `logical-min`, `lossy1`, `lossy2`, `ddmin`) still resolve.
//!
//! `--format` selects the frontend; everything downstream of the parse —
//! strategies, probe threading, validation, the JSON report — is the
//! same [`Input`]-generic pipeline for both formats.
//! `--probe-threads N` runs N speculative probe threads inside the GBR
//! search (and N concurrent searches in `--per-error` mode); the reduced
//! output is bit-identical at every setting. `--json` writes a small
//! machine-readable report (sizes, predicate calls, trace digest) for
//! comparing runs — the CI daemon smoke test diffs it against the
//! service's result document.
//!
//! Exit status: `0` on success, `1` when the input cannot be read, does
//! not trigger the selected decompiler's bugs, or the reduction itself
//! fails, `2` on usage errors.

#![forbid(unsafe_code)]

use lbr_classfile::{disassemble_program, read_program, write_class_directory};
use lbr_core::{Input, InputOracle};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{check_report, ReductionSession, RunOptions};
use lbr_service::{atomic_write, atomic_write_str, Json};
use lbr_stackvm::{Module as StackModule, StackBugSet, StackOracle};

/// Prints a diagnostic and exits with status 1 (runtime failure).
fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Everything the format-generic run needs beyond the parsed input.
struct ReduceArgs {
    decompiler: String,
    strategy: String,
    out: Option<String>,
    out_dir: Option<String>,
    json: Option<String>,
    disasm: bool,
    per_error: bool,
    cost: f64,
    options: RunOptions,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut format = "classfile".to_owned();
    let mut run = ReduceArgs {
        decompiler: "a".to_owned(),
        strategy: "logical".to_owned(),
        out: None,
        out_dir: None,
        json: None,
        disasm: false,
        per_error: false,
        cost: 33.0,
        options: RunOptions::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            let v = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            });
            i += 1;
            v
        };
        match flag {
            "--input" | "-i" => input = Some(value()),
            "--format" | "-f" => format = value(),
            "--out" | "-o" => run.out = Some(value()),
            "--out-dir" => run.out_dir = Some(value()),
            "--json" => run.json = Some(value()),
            "--decompiler" | "-d" => run.decompiler = value(),
            "--strategy" | "-s" => run.strategy = value(),
            "--cost" => run.cost = value().parse().expect("--cost takes seconds"),
            "--probe-threads" => {
                run.options.probe_threads = value().parse().expect("--probe-threads takes a number")
            }
            "--probe-latency-micros" => {
                run.options.probe_latency_micros = value()
                    .parse()
                    .expect("--probe-latency-micros takes a number")
            }
            "--disasm" => run.disasm = true,
            "--per-error" => run.per_error = true,
            "--list-strategies" => {
                list_strategies();
                return;
            }
            "--help" | "-h" => {
                println!("usage: reduce --input bench.lbrc [--format classfile|stackvm]");
                println!("              [--decompiler a|b|c|all]");
                println!("              [--strategy NAME] [--list-strategies]");
                println!(
                    "              [--out reduced.lbrc] [--out-dir dir/] [--json report.json]"
                );
                println!("              [--disasm] [--per-error] [--cost SECS]");
                println!("              [--probe-threads N] [--probe-latency-micros N]");
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let input = input.unwrap_or_else(|| {
        eprintln!("--input is required (try --help)");
        std::process::exit(2);
    });
    if !lbr_jreduce::known_strategy(&run.strategy) {
        eprintln!("unknown strategy {} (try --list-strategies)", run.strategy);
        std::process::exit(2);
    }
    let bytes = std::fs::read(&input).unwrap_or_else(|e| fail(format!("cannot read {input}: {e}")));
    match format.as_str() {
        "classfile" => {
            let program =
                read_program(&bytes).unwrap_or_else(|e| fail(format!("bad container: {e}")));
            let bugs = match run.decompiler.as_str() {
                "a" => BugSet::decompiler_a(),
                "b" => BugSet::decompiler_b(),
                "c" => BugSet::decompiler_c(),
                "all" => BugSet::all(),
                other => {
                    eprintln!("unknown decompiler {other}");
                    std::process::exit(2);
                }
            };
            let oracle = DecompilerOracle::new(&program, bugs);
            run_reduce(
                &program,
                &oracle,
                &run,
                &|p| disassemble_program(p),
                &|p, dir| write_class_directory(p, dir).map_err(|e| e.to_string()),
            );
        }
        "stackvm" => {
            let module = <StackModule as Input>::from_bytes(&bytes)
                .unwrap_or_else(|e| fail(format!("bad container: {e}")));
            let bugs = match run.decompiler.as_str() {
                "a" => StackBugSet::lowering_a(),
                "b" => StackBugSet::lowering_b(),
                "c" => StackBugSet::lowering_c(),
                "all" => StackBugSet::all(),
                other => {
                    eprintln!("unknown decompiler {other}");
                    std::process::exit(2);
                }
            };
            let oracle = StackOracle::new(&module, bugs);
            run_reduce(&module, &oracle, &run, &|m| format!("{m:#?}\n"), &|_, _| {
                Err("--out-dir is classfile-only".to_owned())
            });
        }
        other => {
            eprintln!("unknown format {other} (classfile|stackvm)");
            std::process::exit(2);
        }
    }
}

/// Prints the strategy registry: every runnable name plus its
/// capability flags (the single source of truth the daemon's `stats`
/// response also enumerates).
fn list_strategies() {
    println!("{:<24} capabilities", "strategy");
    for (name, caps) in lbr_jreduce::strategy_catalog() {
        let flags: Vec<&str> = [
            (caps.resumable, "resumable"),
            (caps.speculative, "speculative"),
            (caps.per_error, "per-error"),
            (caps.uses_model, "model"),
        ]
        .iter()
        .filter_map(|&(on, tag)| on.then_some(tag))
        .collect();
        println!("{name:<24} {}", flags.join(","));
    }
}

/// The format-generic body: same session, strategies, validation, and
/// reporting for every frontend behind the [`Input`] trait. The two
/// closures are the only format-specific affordances (human-readable
/// dump, directory export).
fn run_reduce<I: Input, O: InputOracle<I>>(
    program: &I,
    oracle: &O,
    args: &ReduceArgs,
    disassemble: &dyn Fn(&I) -> String,
    write_dir: &dyn Fn(&I, &std::path::Path) -> Result<usize, String>,
) {
    if !oracle.is_failing() {
        fail(format!(
            "the input does not trigger decompiler {}'s bugs — nothing to reduce",
            args.decompiler
        ));
    }
    eprintln!(
        "input: {} units; {} compiler errors to preserve",
        program.unit_count(),
        oracle.error_count()
    );

    if args.per_error {
        let report = ReductionSession::new(program, oracle)
            .cost_per_call(args.cost)
            .options(args.options)
            .run_per_error()
            .unwrap_or_else(|e| fail(format!("per-error reduction failed: {e}")));
        println!(
            "per-error witnesses ({} searches, {} tool runs):",
            report.errors.len(),
            report.total_calls
        );
        for (error, size) in &report.errors {
            println!(
                "  {:>4} classes {:>8} bytes  {error}",
                size.classes, size.bytes
            );
        }
        return;
    }

    let report = ReductionSession::new(program, oracle)
        .strategy(args.strategy.clone())
        .cost_per_call(args.cost)
        .options(args.options)
        .run()
        .unwrap_or_else(|e| fail(format!("reduction failed: {e}")));
    // A result only counts if it holds up end to end: error preserved,
    // still verifying, not grown, and the serialized bytes re-read into
    // the same verifying program. Anything less is a reducer bug, not a
    // result — refuse to report success.
    check_report(&report)
        .unwrap_or_else(|e| fail(format!("reduced output failed validation: {e}")));
    println!(
        "{}: {} → {} classes, {} → {} bytes ({:.1}%), {} tool runs, errors preserved: {}",
        report.strategy,
        report.initial.classes,
        report.final_metrics.classes,
        report.initial.bytes,
        report.final_metrics.bytes,
        100.0 * report.relative_bytes(),
        report.predicate_calls,
        report.errors_preserved,
    );
    if args.disasm {
        print!("{}", disassemble(&report.reduced));
    }
    if let Some(path) = &args.out {
        atomic_write(std::path::Path::new(path), &report.reduced.to_bytes())
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(dir) = &args.out_dir {
        let n = write_dir(&report.reduced, std::path::Path::new(dir))
            .unwrap_or_else(|e| fail(format!("cannot write {dir}: {e}")));
        eprintln!("wrote {n} class files to {dir}");
    }
    if let Some(path) = &args.json {
        // The same identity fields the service's result document carries,
        // so `diff`ing daemon output against an in-process run is trivial.
        let doc = Json::obj([
            ("format", Json::str(I::FORMAT)),
            ("strategy", Json::str(&report.strategy)),
            (
                "initial_classes",
                Json::count(report.initial.classes as u64),
            ),
            ("initial_bytes", Json::count(report.initial.bytes as u64)),
            (
                "final_classes",
                Json::count(report.final_metrics.classes as u64),
            ),
            (
                "final_bytes",
                Json::count(report.final_metrics.bytes as u64),
            ),
            ("predicate_calls", Json::count(report.predicate_calls)),
            (
                "trace_digest",
                Json::str(format!("{:016x}", report.trace.digest())),
            ),
            ("errors_preserved", Json::Bool(report.errors_preserved)),
            ("still_valid", Json::Bool(report.still_valid)),
        ]);
        atomic_write_str(std::path::Path::new(path), &doc.render())
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}
