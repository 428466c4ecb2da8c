//! The layer-ordering matrix: every oracle-middleware configuration a
//! real caller uses (plain memo, speculative threads, cold and warm
//! external cache, fault-injected cache, latency emulation) must produce
//! **bit-identical** results — reduced bytes, call counts, memo totals,
//! and the probe-trace digest — on inputs pinned from `main` before the
//! middleware stack existed. The reference run's progressions must also
//! equal the scan reference's, replayed from its checkpoint chain.
//!
//! The pinned expectations were produced by `gen --seed N --decompiler a`
//! piped through `reduce --json` on the pre-refactor pipeline; if any
//! layer reorders, swallows, or duplicates a probe, one of these numbers
//! moves and the matrix fails.

use lbr_classfile::{write_program, Program};
use lbr_core::{FaultPlan, FaultyCache, GbrCheckpoint, MemoryCache};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{check_report, ReductionReport, ReductionSession, RunOptions};
use lbr_workload::{generate, WorkloadConfig};

const COST_SECS: f64 = 33.0;

/// One pinned fixture: the generator seed and what the pre-refactor
/// pipeline reduced it to.
struct Fixture {
    seed: u64,
    initial: (usize, usize),
    fin: (usize, usize),
    calls: u64,
    trace_digest: u64,
}

const FIXTURES: [Fixture; 3] = [
    Fixture {
        seed: 7,
        initial: (32, 18780),
        fin: (11, 3764),
        calls: 110,
        trace_digest: 0xba31_9582_a8ac_5eee,
    },
    Fixture {
        seed: 8,
        initial: (32, 17674),
        fin: (11, 2701),
        calls: 67,
        trace_digest: 0x93d3_3ecb_b558_8ce6,
    },
    Fixture {
        seed: 11,
        initial: (32, 18188),
        fin: (11, 2474),
        calls: 57,
        trace_digest: 0xaa08_213d_a904_c346,
    },
];

fn program_for(seed: u64) -> Program {
    generate(&WorkloadConfig {
        seed,
        plant: BugSet::decompiler_a().kinds().to_vec(),
        ..WorkloadConfig::default()
    })
}

fn check_against(fixture: &Fixture, tag: &str, report: &ReductionReport) {
    check_report(report).unwrap_or_else(|e| panic!("seed {} {tag}: {e}", fixture.seed));
    assert_eq!(
        (report.initial.classes, report.initial.bytes),
        fixture.initial,
        "seed {} {tag}: initial size",
        fixture.seed
    );
    assert_eq!(
        (report.final_metrics.classes, report.final_metrics.bytes),
        fixture.fin,
        "seed {} {tag}: final size",
        fixture.seed
    );
    assert_eq!(
        report.predicate_calls, fixture.calls,
        "seed {} {tag}: predicate calls",
        fixture.seed
    );
    assert_eq!(
        report.trace.digest(),
        fixture.trace_digest,
        "seed {} {tag}: trace digest",
        fixture.seed
    );
}

#[test]
fn every_layer_ordering_matches_the_pinned_fixtures() {
    for fixture in &FIXTURES {
        let program = program_for(fixture.seed);
        let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
        let session = || ReductionSession::new(&program, &oracle).cost_per_call(COST_SECS);

        // The reference configuration: per-run memo only. Its checkpoint
        // chain replays through the scan reference.
        let mut chain: Vec<GbrCheckpoint> = Vec::new();
        let mut record = |ck: &GbrCheckpoint| chain.push(ck.clone());
        let reference = ReductionSession::new(&program, &oracle)
            .cost_per_call(COST_SECS)
            .checkpoint(&mut record)
            .run()
            .expect("default session");
        check_against(fixture, "default", &reference);
        lbr_reference::check_input_chain(&program, &chain)
            .unwrap_or_else(|e| panic!("seed {} scan reference: {e}", fixture.seed));
        let reference_bytes = write_program(&reference.reduced);
        assert!(
            reference.cache_hits() + reference.cache_misses() == reference.predicate_calls,
            "memoized run accounts every probe"
        );

        // Caches shared across matrix entries: `external` is probed cold
        // then warm (the warm run answers probes from the cache yet must
        // be observationally identical); `faulty` may only ever degrade
        // hits to misses, never change what the run computes.
        let external = MemoryCache::new();
        let inner = MemoryCache::new();
        let faulty = FaultyCache::new(
            &inner,
            FaultPlan {
                rate: 0.4,
                seed: fixture.seed ^ 0xFA17,
            },
        );
        let stacked_cache = MemoryCache::new();

        let matrix: Vec<(&str, ReductionReport)> = vec![
            // Speculative parallel probing.
            (
                "probe-threads-2",
                session().probe_threads(2).run().expect("threads"),
            ),
            // Latency emulation (layer between cache and base predicate).
            (
                "latency-100us",
                session().probe_latency_micros(100).run().expect("latency"),
            ),
            (
                "cold-cache",
                session().cache(&external).run().expect("cold cache"),
            ),
            (
                "warm-cache",
                session().cache(&external).run().expect("warm cache"),
            ),
            (
                "faulty-cache",
                session().cache(&faulty).run().expect("faulty cache"),
            ),
            // Cache + latency + speculation stacked together.
            (
                "cache+latency+threads",
                session()
                    .cache(&stacked_cache)
                    .probe_latency_micros(100)
                    .probe_threads(2)
                    .run()
                    .expect("stacked"),
            ),
        ];
        assert!(
            external.hits() > 0,
            "seed {}: warm round must hit the external cache",
            fixture.seed
        );

        for (tag, report) in &matrix {
            check_against(fixture, tag, report);
            assert_eq!(
                write_program(&report.reduced),
                reference_bytes,
                "seed {} {tag}: reduced bytes must be bit-identical",
                fixture.seed
            );
        }
    }
}

#[test]
fn memo_accounting_is_deterministic_across_the_matrix() {
    let fixture = &FIXTURES[0];
    let program = program_for(fixture.seed);
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
    let reference = ReductionSession::new(&program, &oracle)
        .cost_per_call(COST_SECS)
        .run()
        .expect("reference");
    // The memo totals are part of the determinism contract: identical at
    // any thread count and with any external cache attached.
    let cache = MemoryCache::new();
    for (tag, options) in [
        (
            "threads-4",
            RunOptions {
                probe_threads: 4,
                ..RunOptions::default()
            },
        ),
        ("default-again", RunOptions::default()),
    ] {
        let run = ReductionSession::new(&program, &oracle)
            .cost_per_call(COST_SECS)
            .options(options)
            .cache(&cache)
            .run()
            .expect(tag);
        assert_eq!(run.cache_hits(), reference.cache_hits(), "{tag}");
        assert_eq!(run.cache_misses(), reference.cache_misses(), "{tag}");
        assert_eq!(
            run.probe_stats.useful_calls, reference.predicate_calls,
            "{tag}"
        );
    }
}
