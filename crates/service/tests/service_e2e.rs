//! End-to-end tests of the reduction service: the daemon produces
//! bit-identical results to in-process runs, survives shutdown mid-job by
//! resuming from its checkpoint, shares its persistent cache across jobs
//! and restarts, and sustains concurrent jobs without deadlock.

use lbr_classfile::write_program;
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{run_reduction_with, ReductionReport, ReductionSession, RunOptions};
use lbr_prng::SplitMix64;
use lbr_service::{namespace_digest, Client, Daemon, DaemonConfig, Json, PersistentOracleCache};
use lbr_workload::{generate, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A fresh scratch directory per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbr-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A failing benchmark program for decompiler `a`, written as a container.
fn make_container(dir: &Path, seed: u64, classes: usize) -> (PathBuf, Vec<u8>) {
    let config = WorkloadConfig {
        seed,
        classes,
        interfaces: (classes / 3).max(2),
        plant: BugSet::decompiler_a().kinds().to_vec(),
        ..WorkloadConfig::default()
    };
    let program = generate(&config);
    let bytes = write_program(&program);
    let path = dir.join(format!("bench-{seed}.lbrc"));
    std::fs::write(&path, &bytes).expect("write container");
    (path, bytes)
}

/// The in-process reference run the daemon must reproduce exactly.
fn baseline(bytes: &[u8]) -> ReductionReport {
    let program = lbr_classfile::read_program(bytes).expect("read container");
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
    assert!(oracle.is_failing(), "fixture must trigger decompiler a");
    run_reduction_with(
        &program,
        &oracle,
        "logical/greedy",
        33.0,
        &RunOptions::default(),
    )
    .expect("baseline reduction")
}

fn start_daemon(
    dir: &Path,
    workers: usize,
) -> (Client, std::thread::JoinHandle<std::io::Result<()>>) {
    let daemon = Daemon::start(DaemonConfig::new(dir, workers)).expect("start daemon");
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run());
    let client = Client::connect(addr);
    assert!(
        client.wait_ready(Duration::from_secs(5)),
        "daemon never came up"
    );
    (client, handle)
}

fn submit_spec(input: &Path, output: &Path, extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("input", Json::str(input.display().to_string())),
        ("decompiler", Json::str("a")),
        ("output", Json::str(output.display().to_string())),
    ];
    fields.extend(extra.iter().cloned());
    Json::obj_from(fields)
}

/// S3: the property test. Random programs, reduced three ways — no
/// external cache, a cold persistent cache, and that cache saved,
/// reloaded, and reused — must agree bit-for-bit on the reduced program,
/// the predicate-call count, the oracle's memo accounting, the probe
/// stats, and the trace digest. The reloaded round must also answer
/// probes from *warm* (disk-loaded) entries.
#[test]
fn property_persistent_cache_is_invisible_to_results() {
    let dir = scratch("prop");
    let mut rng = SplitMix64::seed_from_u64(0x5EED_CAFE);
    for round in 0..4u64 {
        let seed = rng.next_u64();
        let classes = 10 + rng.gen_range(0..10u64) as usize;
        let (_, bytes) = make_container(&dir, seed, classes);
        let program = lbr_classfile::read_program(&bytes).unwrap();
        let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
        if !oracle.is_failing() {
            continue;
        }
        let reference = baseline(&bytes);
        let ns = namespace_digest("a", &bytes);
        let cache_path = dir.join(format!("cache-{round}"));

        let cold_report = {
            let cache = PersistentOracleCache::open(&cache_path).unwrap();
            let scoped = cache.namespaced(ns);
            let report = ReductionSession::new(&program, &oracle)
                .cost_per_call(33.0)
                .cache(&scoped)
                .run()
                .unwrap();
            cache.save().unwrap();
            assert!(cache.stats().warm_hits == 0, "cold cache cannot be warm");
            report
        };

        let cache = PersistentOracleCache::open(&cache_path).unwrap();
        assert!(!cache.is_empty(), "saved cache must reload its entries");
        let scoped = cache.namespaced(ns);
        let warm_report = ReductionSession::new(&program, &oracle)
            .cost_per_call(33.0)
            .cache(&scoped)
            .run()
            .unwrap();
        assert!(
            cache.stats().warm_hits > 0,
            "round {round}: reloaded entries must answer probes"
        );

        for (name, report) in [("cold", &cold_report), ("warm", &warm_report)] {
            assert_eq!(
                write_program(&report.reduced),
                write_program(&reference.reduced),
                "round {round}: {name} cache changed the reduced bytes"
            );
            assert_eq!(
                report.predicate_calls, reference.predicate_calls,
                "round {round}: {name}"
            );
            assert_eq!(
                report.cache_hits(),
                reference.cache_hits(),
                "round {round}: {name}"
            );
            assert_eq!(
                report.cache_misses(),
                reference.cache_misses(),
                "round {round}: {name}"
            );
            assert_eq!(
                report.probe_stats, reference.probe_stats,
                "round {round}: {name}"
            );
            assert_eq!(
                report.trace.digest(),
                reference.trace.digest(),
                "round {round}: {name} cache changed the trace"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon reproduces the in-process reduction exactly — reduced
/// bytes, predicate calls, trace digest — and a second identical job is
/// answered from the shared cache without changing any of them.
#[test]
fn daemon_job_matches_in_process_run() {
    let dir = scratch("match");
    let (input, bytes) = make_container(&dir, 11, 18);
    let reference = baseline(&bytes);
    let state = dir.join("state");
    let (client, handle) = start_daemon(&state, 4);

    let out1 = dir.join("out1.lbrc");
    let id1 = client.submit(&submit_spec(&input, &out1, &[])).unwrap();
    let result1 = client.wait_result(id1).unwrap();
    assert_eq!(result1.str_field("status"), Some("done"));
    assert_eq!(
        result1.u64_field("predicate_calls"),
        Some(reference.predicate_calls)
    );
    assert_eq!(
        result1.str_field("trace_digest"),
        Some(format!("{:016x}", reference.trace.digest()).as_str())
    );
    assert_eq!(
        std::fs::read(&out1).unwrap(),
        write_program(&reference.reduced),
        "daemon output differs from the in-process reduction"
    );

    // Same input, same oracle: the persistent cache answers every probe,
    // and none of the per-run numbers move.
    let out2 = dir.join("out2.lbrc");
    let id2 = client.submit(&submit_spec(&input, &out2, &[])).unwrap();
    let result2 = client.wait_result(id2).unwrap();
    assert_eq!(result2.str_field("status"), Some("done"));
    assert_eq!(
        result2.u64_field("predicate_calls"),
        Some(reference.predicate_calls)
    );
    assert_eq!(
        result2.str_field("trace_digest"),
        result1.str_field("trace_digest")
    );
    assert_eq!(std::fs::read(&out2).unwrap(), std::fs::read(&out1).unwrap());

    let stats = client.stats().unwrap();
    let jobs = stats.get("jobs").expect("stats.jobs");
    assert_eq!(jobs.u64_field("done"), Some(2));
    assert_eq!(stats.u64_field("queue_depth"), Some(0));
    let cache = stats.get("cache").expect("stats.cache");
    assert!(
        cache.u64_field("hits").unwrap() > 0,
        "second job must hit the cache"
    );
    let per_job = stats
        .get("per_job")
        .and_then(Json::as_arr)
        .expect("stats.per_job");
    assert_eq!(per_job.len(), 2);
    assert!(per_job
        .iter()
        .all(|j| j.u64_field("predicate_calls") == Some(reference.predicate_calls)));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(
        !state.join("daemon.addr").exists(),
        "clean shutdown removes the addr file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash tolerance: shut the daemon down mid-job; a new daemon over the
/// same state directory resumes the job from its checkpoint and produces
/// the same reduced bytes, and a fresh identical job is answered from
/// *warm* (disk-persisted) cache entries with a bit-identical report.
#[test]
fn interrupted_job_resumes_and_cache_survives_restart() {
    let dir = scratch("resume");
    let (input, bytes) = make_container(&dir, 23, 20);
    let reference = baseline(&bytes);
    let state = dir.join("state");
    let (client, handle) = start_daemon(&state, 1);

    // Slow the probes down so the shutdown lands mid-search.
    let out = dir.join("out.lbrc");
    let id = client
        .submit(&submit_spec(
            &input,
            &out,
            &[("probe_latency_micros", Json::count(1500))],
        ))
        .unwrap();

    // Wait for the first checkpoint, then pull the rug.
    let ckpt = state.join(format!("job-{id}.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(!out.exists(), "the interrupted job must not have finished");

    // Restart over the same state directory: the job is re-enqueued and
    // resumes from the checkpoint instead of starting over.
    let (client, handle) = start_daemon(&state, 2);
    let resumed = client.wait_result(id).unwrap();
    assert_eq!(resumed.str_field("status"), Some("done"));
    assert_eq!(resumed.bool_field("resumed"), Some(true));
    assert_eq!(
        std::fs::read(&out).unwrap(),
        write_program(&reference.reduced),
        "resumed job must converge to the uninterrupted reduction"
    );
    assert!(!ckpt.exists(), "finished jobs clean up their checkpoint");

    // A brand-new identical job hits entries the *previous* daemon wrote.
    let out2 = dir.join("out2.lbrc");
    let id2 = client.submit(&submit_spec(&input, &out2, &[])).unwrap();
    let fresh = client.wait_result(id2).unwrap();
    assert_eq!(fresh.str_field("status"), Some("done"));
    assert_eq!(
        fresh.u64_field("predicate_calls"),
        Some(reference.predicate_calls)
    );
    assert_eq!(
        fresh.str_field("trace_digest"),
        Some(format!("{:016x}", reference.trace.digest()).as_str())
    );
    assert_eq!(
        std::fs::read(&out2).unwrap(),
        write_program(&reference.reduced)
    );
    let stats = client.stats().unwrap();
    let warm = stats
        .get("cache")
        .and_then(|c| c.u64_field("warm_hits"))
        .unwrap();
    assert!(
        warm > 0,
        "probes must be answered by disk-persisted entries"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight concurrent jobs on eight workers: no deadlock, every job done,
/// every output identical to its own in-process baseline.
#[test]
fn eight_concurrent_jobs_complete_correctly() {
    let dir = scratch("load");
    let mut fixtures = Vec::new();
    for seed in 0..8u64 {
        let (input, bytes) = make_container(&dir, 100 + seed, 10);
        fixtures.push((input, baseline(&bytes)));
    }
    let state = dir.join("state");
    let (client, handle) = start_daemon(&state, 8);
    let ids: Vec<(u64, usize)> = fixtures
        .iter()
        .enumerate()
        .map(|(i, (input, _))| {
            let out = dir.join(format!("out-{i}.lbrc"));
            (client.submit(&submit_spec(input, &out, &[])).unwrap(), i)
        })
        .collect();
    for (id, i) in ids {
        let result = client.wait_result(id).unwrap();
        assert_eq!(result.str_field("status"), Some("done"), "job {id}");
        assert_eq!(
            std::fs::read(dir.join(format!("out-{i}.lbrc"))).unwrap(),
            write_program(&fixtures[i].1.reduced),
            "job {id} output differs from its baseline"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("jobs").and_then(|j| j.u64_field("done")), Some(8));
    assert_eq!(stats.u64_field("workers"), Some(8));
    let utilization = stats.f64_field("worker_utilization").unwrap();
    assert!((0.0..=1.0).contains(&utilization));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol errors and failure modes: bad specs are rejected, jobs over
/// unreadable or non-failing inputs fail with a diagnostic, queued jobs
/// can be cancelled, and unknown operations are answered, not dropped.
#[test]
fn failures_cancellation_and_protocol_errors() {
    let dir = scratch("fail");
    let state = dir.join("state");
    let (client, handle) = start_daemon(&state, 1);

    // Submit without an input is rejected outright.
    assert!(client
        .submit(&Json::obj_from(vec![("decompiler", Json::str("a"))]))
        .is_err());

    // A vanished input file fails the job, with the reason in the result.
    let id = client
        .submit(&Json::obj_from(vec![(
            "input",
            Json::str("/nonexistent/x.lbrc"),
        )]))
        .unwrap();
    let result = client.wait_result(id).unwrap();
    assert_eq!(result.str_field("status"), Some("failed"));
    assert!(result.str_field("error").unwrap().contains("cannot read"));

    // An input that does not trigger the oracle's bugs is a failure too.
    let clean = generate(&WorkloadConfig {
        seed: 5,
        classes: 8,
        interfaces: 2,
        plant: vec![],
        ..WorkloadConfig::default()
    });
    let clean_path = dir.join("clean.lbrc");
    std::fs::write(&clean_path, write_program(&clean)).unwrap();
    let id = client
        .submit(&Json::obj_from(vec![(
            "input",
            Json::str(clean_path.display().to_string()),
        )]))
        .unwrap();
    let result = client.wait_result(id).unwrap();
    assert_eq!(result.str_field("status"), Some("failed"));
    assert!(result
        .str_field("error")
        .unwrap()
        .contains("does not trigger"));

    // With one worker busy on a slow job, a queued job can be cancelled.
    let (input, _) = make_container(&dir, 77, 16);
    let out = dir.join("slow.lbrc");
    let slow = client
        .submit(&submit_spec(
            &input,
            &out,
            &[("probe_latency_micros", Json::count(20_000))],
        ))
        .unwrap();
    let queued = client
        .submit(&submit_spec(&input, &dir.join("q.lbrc"), &[]))
        .unwrap();
    client.cancel(queued).unwrap();
    let result = client.wait_result(queued).unwrap();
    assert_eq!(result.str_field("status"), Some("cancelled"));

    // Cancelling the running job stops it between probes.
    client.cancel(slow).unwrap();
    let result = client.wait_result(slow).unwrap();
    assert_eq!(result.str_field("status"), Some("cancelled"));
    assert!(!out.exists(), "a cancelled job writes no output");

    // Unknown ops and statuses of unknown jobs answer with errors.
    let response = client
        .request(&Json::obj([("op", Json::str("frobnicate"))]))
        .unwrap();
    assert_eq!(response.bool_field("ok"), Some(false));
    assert!(client.status(999).is_err());

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
