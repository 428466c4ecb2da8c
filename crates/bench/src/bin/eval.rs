//! The evaluation binary: regenerates every table and figure of the
//! paper's Section 5 on the synthetic NJR-like suite.
//!
//! ```text
//! eval [--experiment all|stats|fig8a|fig8b|lossy|compare|per-error|ablate-order|ddmin|csv]
//!      [--format classfile|stackvm|both]
//!      [--programs N] [--scale F] [--seed N] [--cost SECS]
//!      [--threads N] [--repeats N] [--probe-threads N] [--json [PATH]]
//! ```
//!
//! `--format` selects which frontend's suite the experiment runs over:
//! the classfile suite (default), the stackvm suite, or `both` — every
//! run record and JSON aggregate is tagged with its format, so one
//! results file can gate both frontends at once.
//!
//! `--probe-threads` enables speculative parallel probing inside each GBR
//! search (bit-identical results at any setting); `--json` writes
//! machine-readable results (default path `BENCH_results.json`). The
//! `compare` experiment runs the strategy zoo over both formats — the
//! source of the committed `BENCH_baseline.json`.

#![forbid(unsafe_code)]

use lbr_bench::{
    compare_strategies, compute_stats, headline_strategies, lossy_strategies, render_ablation,
    render_compare, render_csv, render_fig8a, render_fig8b, render_json, render_lossy,
    render_stats, run_grid, EvalBenchmark, EvalConfig, RunRecord,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_owned();
    let mut format = "classfile".to_owned();
    let mut config = EvalConfig::default();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> String {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag {
            "--experiment" | "-e" => {
                experiment = value(i);
                i += 2;
            }
            "--format" | "-f" => {
                format = value(i);
                i += 2;
            }
            "--programs" | "-p" => {
                config.programs = value(i).parse().expect("--programs takes a number");
                i += 2;
            }
            "--scale" => {
                config.scale = value(i).parse().expect("--scale takes a number");
                i += 2;
            }
            "--seed" => {
                config.seed = value(i).parse().expect("--seed takes a number");
                i += 2;
            }
            "--cost" => {
                config.cost_per_call_secs = value(i).parse().expect("--cost takes seconds");
                i += 2;
            }
            "--threads" | "-j" => {
                config.threads = value(i).parse().expect("--threads takes a number");
                i += 2;
            }
            "--repeats" => {
                config.repeats = value(i).parse().expect("--repeats takes a count");
                i += 2;
            }
            "--probe-threads" => {
                config.options.probe_threads =
                    value(i).parse().expect("--probe-threads takes a number");
                i += 2;
            }
            "--probe-latency" => {
                let secs: f64 = value(i).parse().expect("--probe-latency takes seconds");
                config.options.probe_latency_micros = (secs * 1e6) as u64;
                i += 2;
            }
            "--slot-dir" => {
                config.slot_dir = Some(value(i).into());
                i += 2;
            }
            "--json" => {
                // Optional value: `--json out.json` or bare `--json`.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with('-') => {
                        json_path = Some(v.clone());
                        i += 2;
                    }
                    _ => {
                        json_path = Some("BENCH_results.json".to_owned());
                        i += 1;
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: eval [--experiment all|stats|fig8a|fig8b|lossy|compare|per-error|ablate-order|ddmin|csv]"
                );
                println!("            [--format classfile|stackvm|both]");
                println!("            [--programs N] [--scale F] [--seed N] [--cost SECS]");
                println!(
                    "            [--threads N] [--repeats N] [--probe-threads N] [--json [PATH]]"
                );
                println!();
                println!("  --format F    which frontend's suite to evaluate: classfile");
                println!("                (default), stackvm, or both; every record is");
                println!("                tagged with its format in the JSON output");
                println!("  --threads N   worker threads for the run grid (0 = all cores)");
                println!("  --repeats N   timing repetitions per job; wall_secs is the minimum");
                println!("                (everything else is deterministic; pair with");
                println!("                --threads 1 for gate-quality wall numbers)");
                println!("  --probe-threads N  speculative probe threads inside each GBR search");
                println!("                (and parallel per-error searches); results are");
                println!("                bit-identical at every setting (default 1)");
                println!("  --probe-latency SECS  emulate the tool-invocation latency of the");
                println!("                paper's real probes by sleeping inside each tool run");
                println!("                (for wall-clock speedup measurements; default 0)");
                println!("  --slot-dir DIR  persist each finished run as DIR/slot-NNNN.json");
                println!("                the moment it completes (atomic temp+rename writes)");
                println!(
                    "  --json [PATH] write machine-readable results (default BENCH_results.json)"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    const EXPERIMENTS: [&str; 10] = [
        "all",
        "stats",
        "fig8a",
        "fig8b",
        "lossy",
        "compare",
        "per-error",
        "ablate-order",
        "ddmin",
        "csv",
    ];
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        eprintln!("unknown experiment {experiment} (try --help)");
        std::process::exit(2);
    }
    let run_classfile = matches!(format.as_str(), "classfile" | "both");
    let run_stackvm = matches!(format.as_str(), "stackvm" | "both");
    if !run_classfile && !run_stackvm {
        eprintln!("unknown format {format} (classfile|stackvm|both)");
        std::process::exit(2);
    }

    let failed_jobs = std::cell::Cell::new(0usize);
    let mut json_records: Vec<RunRecord> = Vec::new();

    if run_classfile {
        eprintln!(
            "building classfile suite: {} programs, scale {:.2}, seed {} …",
            config.programs, config.scale, config.seed
        );
        let benchmarks = config.suite();
        eprintln!("suite has {} failing instances", benchmarks.len());
        if benchmarks.is_empty() {
            eprintln!("error: the suite produced no failing instances — nothing to evaluate");
            std::process::exit(1);
        }
        let stats = compute_stats(&benchmarks);
        json_records.extend(drive(
            &experiment,
            &config,
            &benchmarks,
            Some(&stats),
            &failed_jobs,
        ));
    }
    if run_stackvm {
        eprintln!(
            "building stackvm suite: {} programs, seed {} …",
            config.programs, config.seed
        );
        let benchmarks = config.stack_suite();
        eprintln!("suite has {} failing modules", benchmarks.len());
        if benchmarks.is_empty() {
            eprintln!("error: the suite produced no failing modules — nothing to evaluate");
            std::process::exit(1);
        }
        json_records.extend(drive(&experiment, &config, &benchmarks, None, &failed_jobs));
    }

    if let Some(path) = json_path {
        // Atomic replace: a reader (or a crash) never sees a torn file.
        if let Err(e) =
            lbr_service::atomic_write_str(std::path::Path::new(&path), &render_json(&json_records))
        {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if failed_jobs.get() > 0 {
        eprintln!(
            "error: {} of the grid's runs failed (see warnings above)",
            failed_jobs.get()
        );
        std::process::exit(1);
    }
}

/// Runs one experiment over one format's suite. `stats` carries the
/// classfile suite statistics (the `stats` experiment's Table 1 has no
/// stackvm analogue yet — the ablation summary stands in for it there).
fn drive<B: EvalBenchmark>(
    experiment: &str,
    config: &EvalConfig,
    benchmarks: &[B],
    stats: Option<&lbr_bench::Stats>,
    failed_jobs: &std::cell::Cell<usize>,
) -> Vec<RunRecord> {
    let run = |strategies: &[&str]| {
        let records = run_grid(config, benchmarks, strategies);
        let expected = benchmarks.len() * strategies.len();
        failed_jobs.set(failed_jobs.get() + (expected - records.len()));
        records
    };
    let render_stats_or_summary = |records: &[RunRecord]| match stats {
        Some(stats) => print!("{}", render_stats(stats, records)),
        None => print!(
            "{}",
            render_ablation(records, "Suite summary (no Table-1 stats for this format)")
        ),
    };
    match experiment {
        "stats" => {
            let records = run(&headline_strategies());
            render_stats_or_summary(&records);
            records
        }
        "fig8a" => {
            let records = run(&headline_strategies());
            print!("{}", render_fig8a(&records));
            records
        }
        "fig8b" => {
            let records = run(&headline_strategies());
            print!("{}", render_fig8b(&records));
            records
        }
        "lossy" => {
            let records = run(&lossy_strategies());
            print!("{}", render_lossy(&records));
            records
        }
        "compare" => {
            let records = run(&compare_strategies());
            print!("{}", render_compare(&records));
            records
        }
        "ablate-order" => {
            let records = run(&["logical/greedy", "logical/natural-order"]);
            print!(
                "{}",
                render_ablation(&records, "A2: variable-order ablation (Theorem 4.5)")
            );
            records
        }
        "ddmin" => {
            let records = run(&["logical/greedy", "ddmin-items"]);
            print!("{}", render_ablation(&records, "A3: ddmin baseline"));
            records
        }
        "per-error" => {
            print!("{}", lbr_bench::render_per_error(config, benchmarks));
            Vec::new()
        }
        "csv" => {
            let records = run(&["jreduce", "logical/greedy", "lossy-1", "lossy-2"]);
            print!("{}", render_csv(&records));
            records
        }
        "all" => {
            let records = run(&["jreduce", "logical/greedy", "lossy-1", "lossy-2"]);
            render_stats_or_summary(&records);
            println!();
            print!("{}", render_fig8a(&records));
            println!();
            print!("{}", render_fig8b(&records));
            println!();
            print!("{}", render_lossy(&records));
            println!();
            print!("{}", render_ablation(&records, "Summary: all strategies"));
            records
        }
        // Validated in main against the experiment list.
        other => unreachable!("unknown experiment {other}"),
    }
}
