//! Differential fuzzing for the whole reduction stack.
//!
//! Three PRs of optimization (watched-literal engine, speculative
//! parallel probing, the caching daemon) all promise the same thing:
//! *results never change, only speed*. This crate turns that promise into
//! a generative test. A seed-deterministic stream of random-but-valid
//! inputs — classfile programs and (one case in three) stackvm modules,
//! built on [`lbr_workload`]'s planners and [`lbr_prng`] — is pushed
//! through every progression — the GBR engine, the legacy scan baseline,
//! speculative probing, the ddmin, HDD and trace-guided strategies,
//! cold/warm/fault-injected persistent caches, and the service daemon —
//! and the results are cross-checked against the invariants I1–I9 listed
//! in DESIGN.md §Fuzzing architecture (and in the docs of the private
//! `run` module, beside the [`Harness`] that checks them).
//!
//! On a violation the case is shrunk with our own [`lbr_core::ddmin`] at
//! item granularity and persisted as a replayable `FUZZ_CASE_*.json`
//! holding nothing but seeds and configuration — see [`FuzzCase`]. The
//! `fuzz` binary in `lbr-bench` drives [`run_campaign`] from the command
//! line and `--replay`s case files; ci.sh runs a bounded campaign as a
//! deterministic gate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod case;
mod run;
mod shrink;

pub use case::{bugset_by_name, stack_bugset_by_name, FuzzCase};
pub use run::{class_names, item_names, subprogram, CaseOutcome, Harness, COST_SECS};
pub use shrink::shrink_case;

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Knobs of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed of the deterministic case stream.
    pub master_seed: u64,
    /// Stop once this much wall time has elapsed (after `min_cases`).
    pub budget: Duration,
    /// Never stop before this many eligible cases ran, budget or not —
    /// what makes a CI gate deterministic in coverage.
    pub min_cases: u64,
    /// Hard case-count cap (exact when set; overrides the budget).
    pub max_cases: Option<u64>,
    /// Arm the intentionally-broken oracle progression (self-test).
    pub break_oracle: bool,
    /// Mix stackvm cases into the stream (progression P12: roughly one
    /// case in three runs the second frontend through the identical
    /// generic progression body). `fuzz --no-stackvm` turns it off.
    pub stackvm: bool,
    /// Where `FUZZ_CASE_*.json` files for violations are written.
    pub out_dir: PathBuf,
    /// Print per-violation and progress lines to stderr.
    pub log: bool,
}

/// What a campaign did.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Eligible cases run through the progressions.
    pub cases_run: u64,
    /// Sampled cases skipped (oracle not failing).
    pub cases_skipped: u64,
    /// Total progressions exercised.
    pub progressions: u64,
    /// Total predicate calls of the reference runs.
    pub predicate_calls: u64,
    /// Cases that violated at least one invariant.
    pub violations: u64,
    /// Candidates I9 checked on classfile cases.
    pub oracle_checks_classfile: u64,
    /// Candidates I9 checked on stackvm cases.
    pub oracle_checks_stackvm: u64,
    /// Replayable case files written (one per violating case, capped).
    pub case_files: Vec<PathBuf>,
}

/// At most this many shrunk case files are persisted per campaign; a
/// systemic bug would otherwise flood the output directory.
const MAX_CASE_FILES: usize = 10;

/// Runs a campaign: sample → run every progression → on violation shrink
/// and persist. Deterministic in the sequence of cases; the budget only
/// decides how far past `min_cases` the stream is consumed.
pub fn run_campaign(config: &CampaignConfig, harness: &Harness) -> io::Result<CampaignSummary> {
    std::fs::create_dir_all(&config.out_dir)?;
    let started = Instant::now();
    let mut summary = CampaignSummary::default();
    let mut index = 0u64;
    loop {
        if let Some(max) = config.max_cases {
            if summary.cases_run >= max {
                break;
            }
        } else if summary.cases_run >= config.min_cases && started.elapsed() >= config.budget {
            break;
        }
        let case = FuzzCase::sampled_any(
            config.master_seed,
            index,
            config.break_oracle,
            config.stackvm,
        );
        index += 1;
        let outcome = harness.run_case(&case, true);
        if outcome.skipped {
            summary.cases_skipped += 1;
            continue;
        }
        summary.cases_run += 1;
        summary.progressions += outcome.progressions as u64;
        summary.predicate_calls += outcome.predicate_calls;
        if case.format == "stackvm" {
            summary.oracle_checks_stackvm += outcome.oracle_checks;
        } else {
            summary.oracle_checks_classfile += outcome.oracle_checks;
        }
        if !outcome.violations.is_empty() {
            summary.violations += 1;
            let violation = outcome.violations.join("; ");
            if config.log {
                eprintln!(
                    "fuzz: case {} (seed {:016x}) VIOLATES: {violation}",
                    case.index, config.master_seed
                );
            }
            if summary.case_files.len() < MAX_CASE_FILES {
                if config.log {
                    eprintln!("fuzz: shrinking case {} …", case.index);
                }
                let shrunk = shrink_case(&case, harness, &violation);
                let path = config
                    .out_dir
                    .join(format!("FUZZ_CASE_{}.json", case.index));
                shrunk.save(&path)?;
                if config.log {
                    eprintln!(
                        "fuzz: shrunk to {} kept units, wrote {}",
                        shrunk.keep_classes.as_ref().map_or(0, Vec::len),
                        path.display()
                    );
                }
                summary.case_files.push(path);
            }
        } else if config.log && summary.cases_run.is_multiple_of(50) {
            eprintln!(
                "fuzz: {} cases clean ({} progressions, {:.1}s)",
                summary.cases_run,
                summary.progressions,
                started.elapsed().as_secs_f64()
            );
        }
    }
    Ok(summary)
}
