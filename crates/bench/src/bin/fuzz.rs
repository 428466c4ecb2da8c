//! The differential fuzzing harness's command line (see `lbr-fuzz`).
//!
//! ```text
//! fuzz [--budget-secs N] [--seed N|0xHEX] [--min-cases N] [--max-cases N]
//!      [--out-dir DIR] [--break-oracle] [--no-daemon] [--no-stackvm]
//! fuzz --replay FUZZ_CASE_*.json
//! ```
//!
//! Campaign mode samples a seed-deterministic stream of generated
//! inputs (classfile programs, and roughly one case in three a stackvm
//! module — `--no-stackvm` opts out) and runs each through every
//! progression, cross-checking the invariants; violations are shrunk
//! with ddmin and persisted as replayable case files. `--replay` re-runs
//! one case file exactly.
//!
//! Exit status: `0` when every case is clean, `1` when any invariant was
//! violated (campaign) or the violation reproduces (replay), `2` on usage
//! errors.

use lbr_fuzz::{run_campaign, CampaignConfig, FuzzCase, Harness};
use std::path::PathBuf;
use std::time::Duration;

fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// `0x`-prefixed hex or decimal.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut budget_secs = 30.0f64;
    let mut seed = 0u64;
    let mut min_cases = 0u64;
    let mut max_cases: Option<u64> = None;
    let mut out_dir = ".".to_owned();
    let mut replay: Option<String> = None;
    let mut break_oracle = false;
    let mut daemon = true;
    let mut stackvm = true;
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
            "--budget-secs" => budget_secs = value().parse().expect("--budget-secs takes seconds"),
            "--seed" => {
                let v = value();
                seed = parse_seed(&v).unwrap_or_else(|| {
                    eprintln!("--seed takes a decimal or 0x-prefixed integer, got {v}");
                    std::process::exit(2);
                });
            }
            "--min-cases" => min_cases = value().parse().expect("--min-cases takes a number"),
            "--max-cases" => max_cases = Some(value().parse().expect("--max-cases takes a number")),
            "--out-dir" => out_dir = value(),
            "--replay" => replay = Some(value()),
            "--break-oracle" => break_oracle = true,
            "--no-daemon" => daemon = false,
            "--no-stackvm" => stackvm = false,
            "--help" | "-h" => {
                println!("usage: fuzz [--budget-secs N] [--seed N|0xHEX] [--min-cases N]");
                println!(
                    "            [--max-cases N] [--out-dir DIR] [--break-oracle] [--no-daemon]"
                );
                println!("            [--no-stackvm]");
                println!("       fuzz --replay FUZZ_CASE_N.json");
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let scratch = std::env::temp_dir().join(format!("lbr-fuzz-{}-{seed:x}", std::process::id()));
    let harness = Harness::new(scratch).unwrap_or_else(|e| fail(format!("scratch dir: {e}")));
    let harness = if daemon {
        harness
            .with_daemon()
            .unwrap_or_else(|e| fail(format!("cannot start in-process daemon: {e}")))
    } else {
        harness
    };

    if let Some(path) = replay {
        let case = FuzzCase::load(std::path::Path::new(&path)).unwrap_or_else(|e| fail(e));
        eprintln!(
            "replaying {path}: master seed {:016x}, case {} ({}), decompiler {}{}{}",
            case.master_seed,
            case.index,
            case.format,
            case.decompiler,
            case.keep_classes
                .as_ref()
                .map_or(String::new(), |k| format!(", {} classes kept", k.len())),
            if case.break_oracle {
                ", broken oracle armed"
            } else {
                ""
            },
        );
        if let Some(v) = &case.violation {
            eprintln!("recorded violation: {v}");
        }
        let outcome = harness.run_case(&case, harness.has_daemon());
        if outcome.skipped {
            fail("case no longer qualifies (oracle not failing) — generator drift?".into());
        }
        if outcome.violations.is_empty() {
            println!(
                "replay clean: {} progressions, no violations",
                outcome.progressions
            );
        } else {
            for v in &outcome.violations {
                eprintln!("violation: {v}");
            }
            std::process::exit(1);
        }
        return;
    }

    let config = CampaignConfig {
        master_seed: seed,
        budget: Duration::from_secs_f64(budget_secs),
        min_cases,
        max_cases,
        break_oracle,
        stackvm,
        out_dir: PathBuf::from(out_dir),
        log: true,
    };
    let summary =
        run_campaign(&config, &harness).unwrap_or_else(|e| fail(format!("campaign failed: {e}")));
    println!(
        "fuzz: {} cases ({} skipped), {} progressions, {} reference tool runs, {} violations",
        summary.cases_run,
        summary.cases_skipped,
        summary.progressions,
        summary.predicate_calls,
        summary.violations
    );
    println!(
        "fuzz: I9 checks: classfile {}, stackvm {}",
        summary.oracle_checks_classfile, summary.oracle_checks_stackvm
    );
    println!(
        "fuzz: I9 size checks: classfile {}, stackvm {}",
        summary.size_checks_classfile, summary.size_checks_stackvm
    );
    println!(
        "fuzz: I9 predicate checks: classfile {} accepted {} rejected, stackvm {} accepted {} rejected",
        summary.predicate_accepted_classfile,
        summary.predicate_rejected_classfile,
        summary.predicate_accepted_stackvm,
        summary.predicate_rejected_stackvm
    );
    println!(
        "fuzz: I4 chain checks: classfile {}, stackvm {}",
        summary.chain_checks_classfile, summary.chain_checks_stackvm
    );
    for path in &summary.case_files {
        println!("replay with: fuzz --replay {}", path.display());
    }
    if summary.violations > 0 {
        std::process::exit(1);
    }
}
