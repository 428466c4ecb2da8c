//! Replays previously-shrunk fuzzing cases from `tests/fuzz_regressions/`.
//!
//! Each file was produced by the `fuzz` binary's ddmin shrinker when a
//! campaign found an invariant violation, and is pinned here so the
//! behavior never regresses silently:
//!
//! - `i5_ddmin_beats_gbr.json` — the case that proved strict "GBR ≤ ddmin"
//!   is not a theorem (ddmin won by 38 bytes), which demoted invariant I5
//!   to a 25% regression tripwire. It must replay clean.
//! - `stackvm/i5_local_minimum.json` — a stackvm case where ddmin beats
//!   GBR by more than 25% (140 against 210 bytes) because the two end in
//!   different local minima: GBR keeps the reader `f3`, ddmin the smaller
//!   reader `f4`. I5 allows that gap for a result the minimize pass cannot
//!   shrink, so it must replay clean. It sits in a subdirectory because
//!   the file checks below cover the classfile (v1) cases.
//! - `broken_oracle_catch_{a,b}.json` — shrunk cases with the deliberately
//!   lying oracle armed (`break_oracle: true`). The harness must still
//!   *catch* the planted I1 violation on them; if these ever replay clean,
//!   the fuzzer has lost its ability to detect unsound reductions.

use lbr_fuzz::{FuzzCase, Harness};
use std::path::{Path, PathBuf};

fn regression_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_regressions")
}

/// Replays one pinned case without the daemon progression (the recorded
/// violations are all reproducible in-process; skipping the daemon keeps
/// the test fast).
fn replay(name: &str) -> lbr_fuzz::CaseOutcome {
    let path = regression_dir().join(name);
    let case = FuzzCase::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let scratch = std::env::temp_dir().join(format!(
        "lbr-fuzz-regr-{}-{}",
        std::process::id(),
        name.replace('/', "-")
    ));
    let harness = Harness::new(scratch).expect("scratch dir");
    let outcome = harness.run_case(&case, false);
    assert!(
        !outcome.skipped,
        "{name}: case no longer qualifies — generator drift?"
    );
    outcome
}

#[test]
fn i5_tripwire_case_replays_clean() {
    let outcome = replay("i5_ddmin_beats_gbr.json");
    assert!(
        outcome.violations.is_empty(),
        "the pinned I5 case must stay within the 25% tripwire: {:?}",
        outcome.violations
    );
    assert!(
        outcome.progressions >= 5,
        "all in-process progressions must run"
    );
}

#[test]
fn i5_local_minimum_case_replays_clean() {
    use lbr_jreduce::ReductionSession;
    use lbr_stackvm::StackOracle;

    let name = "stackvm/i5_local_minimum.json";
    let case = FuzzCase::load(&regression_dir().join(name)).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(case.format, "stackvm");
    assert!(case.violation.is_some() && case.keep_classes.is_some());
    // The case still exercises the local-minimum allowance: GBR trails
    // ddmin by more than 25%, and the minimize pass leaves it unchanged.
    let module = case.module();
    let oracle = StackOracle::new(&module, case.stack_bugs());
    let bytes = |strategy: &str| {
        ReductionSession::new(&module, &oracle)
            .strategy(strategy)
            .run()
            .unwrap_or_else(|e| panic!("{strategy}: {e}"))
            .final_metrics
            .bytes
    };
    let (gbr, ddmin) = (bytes("logical/greedy"), bytes("ddmin-items"));
    assert!(gbr > ddmin + ddmin / 4, "GBR {gbr} bytes, ddmin {ddmin}");
    assert_eq!(bytes("logical/minimized"), gbr);

    let outcome = replay(name);
    assert!(
        outcome.violations.is_empty(),
        "a local minimum within I5: {:?}",
        outcome.violations
    );
}

#[test]
fn broken_oracle_cases_are_still_caught() {
    for name in ["broken_oracle_catch_a.json", "broken_oracle_catch_b.json"] {
        let outcome = replay(name);
        assert!(
            outcome.violations.iter().any(|v| v.contains("I1")),
            "{name}: the harness must catch the planted unsound oracle, got {:?}",
            outcome.violations
        );
    }
}

/// The pinned files themselves stay parseable and carry their recorded
/// violation messages (the provenance a future reader will reach for).
#[test]
fn regression_files_record_their_provenance() {
    for entry in std::fs::read_dir(regression_dir()).expect("regression dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let case = FuzzCase::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            case.violation.is_some(),
            "{}: a pinned case must record the violation that produced it",
            path.display()
        );
        assert!(
            case.keep_classes.is_some(),
            "{}: pinned cases are shrunk",
            path.display()
        );
    }
}

/// The pinned files predate the `format` field (`lbr-fuzz-case v1`); the
/// v2 parser must keep accepting them as classfile cases.
#[test]
fn v1_regression_files_parse_as_classfile() {
    for entry in std::fs::read_dir(regression_dir()).expect("regression dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let case = FuzzCase::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(case.format, "classfile", "{}", path.display());
        assert!(case.stack_workload.is_none(), "{}", path.display());
    }
}

/// The Input-trait equivalence leg: each pinned case's program, driven
/// by a reducer written against nothing but the trait, builds exactly the
/// progressions of the scan reference (replayed from the run's
/// checkpoint chain), and replays bit-identically with speculative
/// probing — same reduced bytes, same predicate calls, same probe-trace
/// digest. This re-proves the classfile port on exactly the inputs
/// fuzzing once found interesting.
#[test]
fn regression_programs_replay_identically_through_the_input_trait() {
    use lbr_core::{GbrCheckpoint, Input, InputOracle};
    use lbr_decompiler::DecompilerOracle;
    use lbr_jreduce::{ReductionReport, ReductionSession, RunOptions};

    fn reduce_via_trait<I: Input, O: InputOracle<I>>(
        input: &I,
        oracle: &O,
        options: RunOptions,
        chain: &mut Vec<GbrCheckpoint>,
    ) -> ReductionReport<I> {
        let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
        ReductionSession::new(input, oracle)
            .cost_per_call(33.0)
            .options(options)
            .checkpoint(&mut record)
            .run()
            .expect("trait-driven reduction")
    }

    for name in [
        "i5_ddmin_beats_gbr.json",
        "broken_oracle_catch_a.json",
        "broken_oracle_catch_b.json",
    ] {
        let case =
            FuzzCase::load(&regression_dir().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let program = case.program();
        let oracle = DecompilerOracle::new(&program, case.bugs());
        let mut chain = Vec::new();
        let reference = reduce_via_trait(&program, &oracle, RunOptions::default(), &mut chain);
        lbr_reference::check_input_chain(&program, &chain)
            .unwrap_or_else(|e| panic!("{name} scan reference: {e}"));
        let threaded = RunOptions {
            probe_threads: 2,
            ..RunOptions::default()
        };
        let mut threaded_chain = Vec::new();
        let report = reduce_via_trait(&program, &oracle, threaded, &mut threaded_chain);
        let pairs = |chain: &[GbrCheckpoint]| {
            chain
                .iter()
                .map(|ck| (ck.learned.clone(), ck.search_space.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            pairs(&threaded_chain),
            pairs(&chain),
            "{name} probe-threads-2: progressions built from other (learned, J) pairs"
        );
        assert_eq!(
            report.reduced.to_bytes(),
            reference.reduced.to_bytes(),
            "{name} probe-threads-2: reduced bytes diverge"
        );
        assert_eq!(
            report.predicate_calls, reference.predicate_calls,
            "{name} probe-threads-2: predicate calls diverge"
        );
        assert_eq!(
            report.trace.digest(),
            reference.trace.digest(),
            "{name} probe-threads-2: trace digest diverges"
        );
    }
}
