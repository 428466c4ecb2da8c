use super::*;
use lbr_classfile::{ClassFile, Code, Insn, MethodDescriptor, MethodInfo, MethodRef, Type};
use lbr_core::{GbrError, MemoryCache};
use lbr_decompiler::{BugKind, BugSet, DecompilerOracle};

fn ctor() -> MethodInfo {
    MethodInfo::new(
        "<init>",
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Return]),
    )
}

/// A benchmark with one cast-to-interface bug plus unrelated classes
/// that a good reducer should drop.
fn benchmark() -> Program {
    let mut i = ClassFile::new_interface("I");
    i.methods
        .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
    let mut a = ClassFile::new_class("A");
    a.interfaces.push("I".into());
    a.methods.push(ctor());
    // A realistic body: stubbing it out should save real bytes.
    let mut chunky = vec![];
    for k in 0..20 {
        chunky.push(Insn::IConst(k));
        chunky.push(Insn::Pop);
    }
    chunky.push(Insn::Return);
    a.methods.push(MethodInfo::new(
        "m",
        MethodDescriptor::void(),
        Code::new(1, 1, chunky),
    ));
    a.methods.push(MethodInfo::new(
        "trigger",
        MethodDescriptor::void(),
        Code::new(
            2,
            1,
            vec![
                Insn::ALoad(0),
                Insn::CheckCast("I".into()),
                Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                Insn::Return,
            ],
        ),
    ));
    // Unrelated ballast classes.
    let mut ballast = Vec::new();
    for k in 0..6 {
        let mut c = ClassFile::new_class(format!("Ballast{k}"));
        c.methods.push(ctor());
        c.methods.push(MethodInfo::new(
            "use",
            MethodDescriptor::new(vec![Type::reference("A")], None),
            Code::new(1, 2, vec![Insn::Return]),
        ));
        ballast.push(c);
    }
    let mut p: Program = [i, a].into_iter().collect();
    for b in ballast {
        p.insert(b);
    }
    p
}

#[test]
fn logical_beats_jreduce_on_the_benchmark() {
    let p = benchmark();
    assert!(lbr_classfile::verify_program(&p).is_empty());
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    assert!(oracle.is_failing());
    let logical = run_reduction(&p, &oracle, "logical/greedy", 0.0).expect("logical runs");
    check_report(&logical).expect("logical sound");
    let jreduce = run_reduction(&p, &oracle, "jreduce", 0.0).expect("jreduce runs");
    check_report(&jreduce).expect("jreduce sound");
    assert!(
        logical.final_metrics.bytes <= jreduce.final_metrics.bytes,
        "logical ({}) must be at least as small as jreduce ({})",
        logical.final_metrics.bytes,
        jreduce.final_metrics.bytes
    );
    // The ballast must be gone in both.
    assert!(logical.reduced.get("Ballast0").is_none());
    assert!(jreduce.reduced.get("Ballast0").is_none());
    // Logical keeps A but can strip its unused parts.
    assert!(logical.reduced.get("A").is_some());
}

#[test]
fn lossy_variants_run_and_are_sound() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    for name in ["lossy-1", "lossy-2"] {
        let report = run_reduction(&p, &oracle, name, 0.0).expect("lossy runs");
        check_report(&report).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn ddmin_runs_and_is_sound() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let report = run_reduction(&p, &oracle, "ddmin-items", 0.0).expect("ddmin runs");
    check_report(&report).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn not_failing_is_an_error() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::none());
    let err = run_reduction(&p, &oracle, "jreduce", 0.0).unwrap_err();
    assert!(matches!(err, PipelineError::NotFailing));
}

#[test]
fn performance_options_do_not_change_results() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    for strategy in ["logical/greedy", "logical/minimized", "jreduce", "lossy-1"] {
        let fast = run_reduction_with(&p, &oracle, strategy, 33.0, &RunOptions::default())
            .expect("default options");
        let slow = run_reduction_with(&p, &oracle, strategy, 33.0, &RunOptions::legacy())
            .expect("legacy options");
        assert_eq!(fast.final_metrics, slow.final_metrics, "{strategy}");
        assert_eq!(fast.predicate_calls, slow.predicate_calls, "{strategy}");
        assert_eq!(
            fast.cache_hits() + fast.cache_misses(),
            fast.predicate_calls,
            "{strategy}: every probe is a hit or a miss"
        );
        assert_eq!(slow.cache_hits(), 0, "{strategy}");
        assert_eq!(slow.cache_misses(), 0, "{strategy}");
    }
}

/// The benchmark extended with an unrelated second bug (a static call
/// that decompiles to a ghost receiver) so the baseline has two
/// distinct error messages.
fn two_bug_benchmark() -> Program {
    let mut p = benchmark();
    let mut util = ClassFile::new_class("Util");
    util.methods.push(ctor());
    let mut helper = MethodInfo::new(
        "helper",
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Return]),
    );
    helper.flags |= lbr_classfile::Flags::STATIC;
    util.methods.push(helper);
    util.methods.push(MethodInfo::new(
        "go",
        MethodDescriptor::void(),
        Code::new(
            1,
            1,
            vec![
                Insn::InvokeStatic(MethodRef::new("Util", "helper", MethodDescriptor::void())),
                Insn::Return,
            ],
        ),
    ));
    p.insert(util);
    p
}

#[test]
fn per_error_cache_is_shared_across_searches() {
    let p = two_bug_benchmark();
    let oracle = DecompilerOracle::new(
        &p,
        BugSet::of(&[BugKind::CastToObject, BugKind::StaticGhostReceiver]),
    );
    assert!(
        oracle.baseline().len() >= 2,
        "need at least two distinct errors, got {:?}",
        oracle.baseline()
    );
    let cached = run_per_error(&p, &oracle, 0.0).expect("per-error runs");
    assert_eq!(cached.errors.len(), oracle.baseline().len());
    assert!(
        cached.cache_hits > 0,
        "searches share probes (every search starts from the same D0)"
    );
    assert!(cached.cache_hit_rate() > 0.0);
    // The cache is a pure optimization: identical rows and call counts.
    let uncached = run_per_error_with(
        &p,
        &oracle,
        0.0,
        &RunOptions {
            memoize: false,
            ..RunOptions::default()
        },
    )
    .expect("per-error runs uncached");
    assert_eq!(cached.errors, uncached.errors);
    assert_eq!(cached.total_calls, uncached.total_calls);
    assert_eq!(uncached.cache_hits, 0);
    assert_eq!(uncached.cache_misses, 0);
}

#[test]
fn probe_threads_do_not_change_results() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let sequential =
        run_reduction_with(&p, &oracle, "logical/greedy", 33.0, &RunOptions::default())
            .expect("sequential");
    for threads in [2usize, 4] {
        let parallel = run_reduction_with(
            &p,
            &oracle,
            "logical/greedy",
            33.0,
            &RunOptions {
                probe_threads: threads,
                ..RunOptions::default()
            },
        )
        .expect("parallel");
        assert_eq!(
            parallel.final_metrics, sequential.final_metrics,
            "threads={threads}"
        );
        assert_eq!(
            parallel.predicate_calls, sequential.predicate_calls,
            "threads={threads}"
        );
        assert_eq!(
            parallel.cache_hits(),
            sequential.cache_hits(),
            "threads={threads}"
        );
        assert_eq!(
            parallel.cache_misses(),
            sequential.cache_misses(),
            "threads={threads}"
        );
        assert_eq!(
            parallel.probe_stats.useful_calls, sequential.predicate_calls,
            "threads={threads}"
        );
        assert!((parallel.modeled_secs - sequential.modeled_secs).abs() < 1e-9);
        // The traces agree on everything but wall-clock timing.
        assert_eq!(parallel.trace.len(), sequential.trace.len());
        for (a, b) in parallel
            .trace
            .points()
            .iter()
            .zip(sequential.trace.points())
        {
            assert_eq!((a.call, a.size, a.success), (b.call, b.size, b.success));
            assert!((a.modeled_secs - b.modeled_secs).abs() < 1e-9);
        }
    }
}

#[test]
fn per_error_parallel_matches_sequential() {
    let p = two_bug_benchmark();
    let oracle = DecompilerOracle::new(
        &p,
        BugSet::of(&[BugKind::CastToObject, BugKind::StaticGhostReceiver]),
    );
    let sequential =
        run_per_error_with(&p, &oracle, 33.0, &RunOptions::default()).expect("sequential");
    for threads in [2usize, 4] {
        let parallel = run_per_error_with(
            &p,
            &oracle,
            33.0,
            &RunOptions {
                probe_threads: threads,
                ..RunOptions::default()
            },
        )
        .expect("parallel");
        assert_eq!(parallel.errors, sequential.errors, "threads={threads}");
        assert_eq!(
            parallel.total_calls, sequential.total_calls,
            "threads={threads}"
        );
        assert_eq!(
            parallel.cache_hits, sequential.cache_hits,
            "threads={threads}"
        );
        assert_eq!(
            parallel.cache_misses, sequential.cache_misses,
            "threads={threads}"
        );
    }
}

#[test]
fn resumable_matches_plain_run_and_warm_cache_is_invisible() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let plain = run_reduction_with(&p, &oracle, "logical/greedy", 33.0, &RunOptions::default())
        .expect("plain");
    let cache = MemoryCache::new();
    for round in 0..2 {
        // Round 0 fills the cache; round 1 is served warm. Both must be
        // bit-identical to the plain run in every observable.
        let run = crate::ReductionSession::new(&p, &oracle)
            .cost_per_call(33.0)
            .cache(&cache)
            .run()
            .expect("resumable");
        assert_eq!(run.final_metrics, plain.final_metrics, "round={round}");
        assert_eq!(run.predicate_calls, plain.predicate_calls, "round={round}");
        assert_eq!(run.cache_hits(), plain.cache_hits(), "round={round}");
        assert_eq!(run.cache_misses(), plain.cache_misses(), "round={round}");
        assert_eq!(run.trace.digest(), plain.trace.digest(), "round={round}");
        assert_eq!(
            lbr_classfile::write_program(&run.reduced),
            lbr_classfile::write_program(&plain.reduced),
            "round={round}"
        );
    }
    assert!(
        cache.hits() > 0,
        "the warm round must actually hit the external cache"
    );
}

#[test]
fn resumable_checkpoint_resume_matches_uninterrupted() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let plain = run_reduction_with(&p, &oracle, "logical/greedy", 33.0, &RunOptions::default())
        .expect("plain");
    // Cancel after the first checkpoint, then resume from it — with a
    // shared cache, so the resumed run's replayed probes are warm.
    let cache = MemoryCache::new();
    let taken = std::sync::atomic::AtomicUsize::new(0);
    let mut saved: Option<lbr_core::GbrCheckpoint> = None;
    let mut hook = |ck: &lbr_core::GbrCheckpoint| {
        taken.store(ck.iterations, std::sync::atomic::Ordering::Relaxed);
        saved = Some(ck.clone());
    };
    let cancel = || taken.load(std::sync::atomic::Ordering::Relaxed) >= 1;
    let err = crate::ReductionSession::new(&p, &oracle)
        .cost_per_call(33.0)
        .cache(&cache)
        .cancel(&cancel)
        .checkpoint(&mut hook)
        .run()
        .expect_err("cancelled");
    assert!(matches!(err, PipelineError::Gbr(GbrError::Cancelled)));
    let ck = saved.expect("checkpoint taken");
    let resumed = crate::ReductionSession::new(&p, &oracle)
        .cost_per_call(33.0)
        .cache(&cache)
        .resume(ck)
        .run()
        .expect("resumed run completes");
    assert_eq!(resumed.final_metrics, plain.final_metrics);
    assert_eq!(
        lbr_classfile::write_program(&resumed.reduced),
        lbr_classfile::write_program(&plain.reduced)
    );
    assert!(resumed.errors_preserved && resumed.still_valid);
}

#[test]
fn trace_guided_cancelled_mid_gallop_resumes_to_the_uninterrupted_run() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let p = lbr_workload::generate(&lbr_workload::WorkloadConfig {
        seed: 29,
        classes: 18,
        interfaces: 6,
        plant: BugSet::decompiler_a().kinds().to_vec(),
        ..lbr_workload::WorkloadConfig::default()
    });
    let oracle = DecompilerOracle::new(&p, BugSet::decompiler_a());
    let guided = |hooks: ServiceHooks<'_>, threads: usize| {
        let options = RunOptions {
            probe_threads: threads,
            ..RunOptions::default()
        };
        dispatch(&p, &oracle, "logical/trace-guided", 33.0, &options, hooks)
    };
    let shape = |r: &ReductionReport| -> Vec<(u64, bool)> {
        r.trace
            .points()
            .iter()
            .map(|t| (t.size, t.success))
            .collect()
    };
    let mut checkpoints: Vec<lbr_core::GbrCheckpoint> = Vec::new();
    let mut collect = |ck: &lbr_core::GbrCheckpoint| checkpoints.push(ck.clone());
    let plain = guided(
        ServiceHooks {
            checkpoint: Some(&mut collect),
            ..ServiceHooks::default()
        },
        1,
    )
    .expect("uninterrupted");
    // Interrupt the iteration that gallops from a recorded gap above 1,
    // after its D₀ probe and first gallop probe.
    let stop = checkpoints
        .iter()
        .find(|ck| ck.gap > 1)
        .expect("a run whose gallop carries a gap")
        .iterations;
    let cache = MemoryCache::new();
    let taken = AtomicUsize::new(0);
    let polls = AtomicUsize::new(0);
    let mut saved: Option<lbr_core::GbrCheckpoint> = None;
    let mut hook = |ck: &lbr_core::GbrCheckpoint| {
        taken.store(ck.iterations, Ordering::Relaxed);
        saved = Some(ck.clone());
    };
    let cancel =
        || taken.load(Ordering::Relaxed) >= stop && polls.fetch_add(1, Ordering::Relaxed) >= 2;
    let err = guided(
        ServiceHooks {
            cache: Some(&cache),
            cancel: Some(&cancel),
            checkpoint: Some(&mut hook),
            resume: None,
        },
        1,
    )
    .expect_err("cancelled");
    assert!(matches!(err, PipelineError::Gbr(GbrError::Cancelled)));
    let ck = saved.expect("checkpoint taken");
    assert_eq!(ck.iterations, stop);
    for threads in [1, 2] {
        let resumed = guided(
            ServiceHooks {
                cache: Some(&cache),
                resume: Some(ck.clone()),
                ..ServiceHooks::default()
            },
            threads,
        )
        .expect("resumed run completes");
        assert_eq!(
            resumed.final_metrics, plain.final_metrics,
            "threads={threads}"
        );
        assert_eq!(
            lbr_classfile::write_program(&resumed.reduced),
            lbr_classfile::write_program(&plain.reduced),
            "threads={threads}"
        );
        // The resumed run re-runs the coverage sweep, then probes exactly
        // the uninterrupted run's tail from the checkpoint on.
        let (full, tail) = (shape(&plain), shape(&resumed));
        assert!(tail.len() < full.len(), "threads={threads}");
        assert!(
            (1..tail.len()).any(|k| full[..k] == tail[..k] && full.ends_with(&tail[k..])),
            "threads={threads}"
        );
    }
}

#[test]
fn modeled_time_tracks_calls() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let report = run_reduction(&p, &oracle, "logical/greedy", 33.0).expect("runs");
    assert!(report.predicate_calls > 0);
    assert!((report.modeled_secs - report.predicate_calls as f64 * 33.0).abs() < 1e-9);
    assert!(report.relative_bytes() <= 1.0);
    assert!(report.relative_classes() <= 1.0);
}

#[test]
fn unknown_strategy_is_an_error() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let err = run_reduction(&p, &oracle, "no-such-strategy", 0.0).unwrap_err();
    assert!(matches!(err, PipelineError::UnknownStrategy(ref n) if n == "no-such-strategy"));
}

#[test]
fn aliases_run_the_canonical_strategy() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let canonical = run_reduction(&p, &oracle, "logical/greedy", 0.0).expect("canonical");
    let alias = run_reduction(&p, &oracle, "logical", 0.0).expect("alias");
    assert_eq!(
        alias.strategy, "logical/greedy",
        "report shows the canonical label"
    );
    assert_eq!(alias.final_metrics, canonical.final_metrics);
    assert_eq!(alias.predicate_calls, canonical.predicate_calls);
    assert_eq!(alias.trace.digest(), canonical.trace.digest());
}

#[test]
fn hdd_runs_and_is_sound() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let report = run_reduction(&p, &oracle, "hdd", 0.0).expect("hdd runs");
    check_report(&report).unwrap_or_else(|e| panic!("{e}"));
    // The coarse level already drops the ballast classes.
    assert!(report.reduced.get("Ballast0").is_none());
    // Determinism: repeat runs are bit-identical.
    let again = run_reduction(&p, &oracle, "hdd", 0.0).expect("hdd repeats");
    assert_eq!(again.predicate_calls, report.predicate_calls);
    assert_eq!(again.trace.digest(), report.trace.digest());
    assert_eq!(
        lbr_classfile::write_program(&again.reduced),
        lbr_classfile::write_program(&report.reduced)
    );
}

#[test]
fn trace_guided_runs_sound_and_no_worse_than_plain_gbr_here() {
    let p = benchmark();
    let oracle = DecompilerOracle::new(&p, BugSet::of(&[BugKind::CastToObject]));
    let guided = run_reduction(&p, &oracle, "logical/trace-guided", 0.0).expect("guided runs");
    check_report(&guided).unwrap_or_else(|e| panic!("{e}"));
    let again = run_reduction(&p, &oracle, "logical/trace-guided", 0.0).expect("guided repeats");
    assert_eq!(again.predicate_calls, guided.predicate_calls);
    assert_eq!(again.trace.digest(), guided.trace.digest());
    assert_eq!(
        lbr_classfile::write_program(&again.reduced),
        lbr_classfile::write_program(&guided.reduced)
    );
    let plain = run_reduction(&p, &oracle, "logical/greedy", 0.0).expect("plain runs");
    assert!(
        guided.final_metrics.bytes <= plain.final_metrics.bytes,
        "guided ({}) must end at least as small as plain GBR ({})",
        guided.final_metrics.bytes,
        plain.final_metrics.bytes
    );
}
