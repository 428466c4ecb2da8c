//! Equivalence pinning for the `Input`-trait port, and the cross-format
//! differential suite.
//!
//! The tentpole refactor moved the classfile frontend behind the
//! format-agnostic [`Input`] trait. These tests prove the port changed
//! nothing: a reduction driver written against *nothing but the trait*
//! (no classfile types appear in [`reduce_via_trait`]) must reproduce the
//! exact pre-port pins — reduced sizes, predicate-call counts, and
//! probe-trace digests recorded from `main` before the trait existed
//! (the same fixtures `session_matrix.rs` pins).
//!
//! The same driver then runs the stackvm frontend, pinning its own
//! digests and cross-checking, on both formats, that the incremental
//! progressions equal the scan reference's (replayed from each run's
//! checkpoint chain) and that speculative probing replays the run
//! bit-identically — the cross-format differential guarantee: one
//! generic pipeline, two frontends, zero behavioral divergence.

use lbr_classfile::Program;
use lbr_core::{GbrCheckpoint, Input, InputOracle};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{check_report, ReductionReport, ReductionSession, RunOptions};
use lbr_stackvm::{Module, StackBugSet, StackOracle};
use lbr_workload::{generate, generate_stack, StackWorkloadConfig, WorkloadConfig};

/// The modeled per-probe cost the pre-port pins were recorded at.
const COST_SECS: f64 = 33.0;

/// Drives one reduction through nothing but the [`Input`] trait. No
/// frontend type is named here: if this compiles and hits the pins, the
/// classfile port onto the trait is bit-identical by construction.
fn reduce_via_trait<I: Input, O: InputOracle<I>>(
    input: &I,
    oracle: &O,
    options: RunOptions,
) -> ReductionReport<I> {
    let report = ReductionSession::new(input, oracle)
        .cost_per_call(COST_SECS)
        .options(options)
        .run()
        .expect("reduction through the Input trait");
    check_report(&report).expect("trait-driven reduction is sound");
    report
}

/// One pinned expectation: what the pipeline reduced this input to
/// before the trait existed (classfile) or when the frontend landed
/// (stackvm).
struct Pin {
    seed: u64,
    initial: (usize, usize),
    fin: (usize, usize),
    calls: u64,
    trace_digest: u64,
}

/// The classfile pins — the exact fixtures of `session_matrix.rs`,
/// recorded on the pre-trait pipeline.
const CLASSFILE_PINS: [Pin; 3] = [
    Pin {
        seed: 7,
        initial: (32, 18780),
        fin: (11, 3764),
        calls: 110,
        trace_digest: 0xba31_9582_a8ac_5eee,
    },
    Pin {
        seed: 8,
        initial: (32, 17674),
        fin: (11, 2701),
        calls: 67,
        trace_digest: 0x93d3_3ecb_b558_8ce6,
    },
    Pin {
        seed: 11,
        initial: (32, 18188),
        fin: (11, 2474),
        calls: 57,
        trace_digest: 0xaa08_213d_a904_c346,
    },
];

/// The stackvm pin (`gen --format stackvm --seed 9 --decompiler a`),
/// matching ci.sh's cross-format differential smoke.
const STACKVM_PIN: Pin = Pin {
    seed: 9,
    initial: (28, 1801),
    fin: (18, 984),
    calls: 71,
    trace_digest: 0xe715_c00b_35ff_8ae0,
};

fn classfile_input(seed: u64) -> Program {
    generate(&WorkloadConfig {
        seed,
        plant: BugSet::decompiler_a().kinds().to_vec(),
        ..WorkloadConfig::default()
    })
}

fn stackvm_input(seed: u64) -> Module {
    generate_stack(&StackWorkloadConfig {
        seed,
        plant: StackBugSet::lowering_a().kinds().to_vec(),
        ..StackWorkloadConfig::default()
    })
}

fn assert_pinned<I: Input>(pin: &Pin, tag: &str, report: &ReductionReport<I>) {
    assert_eq!(
        (report.initial.classes, report.initial.bytes),
        pin.initial,
        "{} seed {} {tag}: initial size",
        I::FORMAT,
        pin.seed
    );
    assert_eq!(
        (report.final_metrics.classes, report.final_metrics.bytes),
        pin.fin,
        "{} seed {} {tag}: final size",
        I::FORMAT,
        pin.seed
    );
    assert_eq!(
        report.predicate_calls,
        pin.calls,
        "{} seed {} {tag}: predicate calls",
        I::FORMAT,
        pin.seed
    );
    assert_eq!(
        report.trace.digest(),
        pin.trace_digest,
        "{} seed {} {tag}: trace digest",
        I::FORMAT,
        pin.seed
    );
}

/// Runs one input through the trait-generic driver, checks every
/// progression the run built against the scan reference (replayed from
/// its checkpoint chain), and asserts that every other engine
/// configuration replays the run bit-identically (bytes, calls, trace),
/// returning the reference. This is the differential core both formats
/// share.
fn engines_agree<I: Input, O: InputOracle<I>>(input: &I, oracle: &O) -> ReductionReport<I> {
    let mut chain: Vec<GbrCheckpoint> = Vec::new();
    let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
    let reference = ReductionSession::new(input, oracle)
        .cost_per_call(COST_SECS)
        .checkpoint(&mut record)
        .run()
        .expect("reduction through the Input trait");
    check_report(&reference).expect("trait-driven reduction is sound");
    lbr_reference::check_input_chain(input, &chain)
        .unwrap_or_else(|e| panic!("{} scan reference: {e}", I::FORMAT));
    let threaded = RunOptions {
        probe_threads: 2,
        ..RunOptions::default()
    };
    let report = reduce_via_trait(input, oracle, threaded);
    assert_eq!(
        report.reduced.to_bytes(),
        reference.reduced.to_bytes(),
        "{} probe-threads-2: reduced bytes diverge from the reference run",
        I::FORMAT
    );
    assert_eq!(
        report.predicate_calls,
        reference.predicate_calls,
        "{} probe-threads-2: predicate calls diverge",
        I::FORMAT
    );
    assert!(
        report.trace.same_probe_sequence(&reference.trace),
        "{} probe-threads-2: probe trace diverges",
        I::FORMAT
    );
    reference
}

/// The port proof: the trait-generic driver reproduces the pre-trait
/// pins on every session-matrix seed, under every engine.
#[test]
fn classfile_through_the_trait_matches_pre_port_pins() {
    for pin in &CLASSFILE_PINS {
        let program = classfile_input(pin.seed);
        let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
        let reference = engines_agree(&program, &oracle);
        assert_pinned(pin, "trait-generic", &reference);
    }
}

/// The second frontend through the identical driver: pinned digests and
/// full engine agreement, so both formats are provably running the same
/// search over their respective logical models.
#[test]
fn stackvm_through_the_trait_matches_its_pins() {
    let module = stackvm_input(STACKVM_PIN.seed);
    let oracle = StackOracle::new(&module, StackBugSet::lowering_a());
    let reference = engines_agree(&module, &oracle);
    assert_pinned(&STACKVM_PIN, "trait-generic", &reference);
}

/// Cross-format differential sweep over unpinned seeds: every engine
/// agrees on every input of both formats, not just the pinned ones.
#[test]
fn engines_agree_on_both_formats_across_seeds() {
    for seed in [3, 5] {
        let program = classfile_input(seed);
        let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
        engines_agree(&program, &oracle);

        let module = stackvm_input(seed);
        let oracle = StackOracle::new(&module, StackBugSet::lowering_a());
        engines_agree(&module, &oracle);
    }
}

/// The serialization side of the equivalence: both frontends round-trip
/// their reduced result exactly (`from_bytes ∘ to_bytes = id`), which is
/// what makes the daemon's file-based comparison in ci.sh meaningful.
#[test]
fn reduced_results_round_trip_on_both_formats() {
    let program = classfile_input(7);
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
    let report = reduce_via_trait(&program, &oracle, RunOptions::default());
    let bytes = report.reduced.to_bytes();
    assert_eq!(Program::from_bytes(&bytes).as_ref(), Ok(&report.reduced));

    let module = stackvm_input(STACKVM_PIN.seed);
    let oracle = StackOracle::new(&module, StackBugSet::lowering_a());
    let report = reduce_via_trait(&module, &oracle, RunOptions::default());
    let bytes = report.reduced.to_bytes();
    assert_eq!(Module::from_bytes(&bytes).as_ref(), Ok(&report.reduced));
}
