//! Edge cases around the daemon's failure surfaces: jobs cancelled before
//! a worker ever picks them up, garbage on the wire, and checkpoint files
//! truncated mid-write. The common bar for all of them: the daemon stays
//! up, and whatever it does finish is bit-identical to the in-process
//! reference — degraded modes may cost time, never correctness.

use lbr_classfile::write_program;
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{run_reduction_with, ReductionReport, RunOptions};
use lbr_service::{load_checkpoint, namespace_digest, Client, Daemon, DaemonConfig, Json};
use lbr_workload::{generate, WorkloadConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbr-edge-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

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

/// A job cancelled while still queued never runs at all: no output file,
/// no predicate calls billed to it, and the worker that was busy at the
/// time finishes its own job untouched.
#[test]
fn cancelling_a_queued_job_prevents_it_from_ever_starting() {
    let dir = scratch("cancel-queued");
    let (input, bytes) = make_container(&dir, 41, 14);
    let reference = baseline(&bytes);
    let state = dir.join("state");
    let (client, handle) = start_daemon(&state, 1);

    // Occupy the only worker with a slowed-down job, then queue a second
    // job behind it and cancel that one before a worker can exist for it.
    let slow_out = dir.join("slow.lbrc");
    let slow = client
        .submit(&submit_spec(
            &input,
            &slow_out,
            &[("probe_latency_micros", Json::count(2_000))],
        ))
        .unwrap();
    let doomed_out = dir.join("doomed.lbrc");
    let doomed = client
        .submit(&submit_spec(&input, &doomed_out, &[]))
        .unwrap();
    client.cancel(doomed).unwrap();

    let cancelled = client.wait_result(doomed).unwrap();
    assert_eq!(cancelled.str_field("status"), Some("cancelled"));
    assert_eq!(
        cancelled.u64_field("predicate_calls").unwrap_or(0),
        0,
        "a never-started job must not have run any probes"
    );

    // The job in front of it is unaffected and still bit-identical.
    let finished = client.wait_result(slow).unwrap();
    assert_eq!(finished.str_field("status"), Some("done"));
    assert_eq!(
        std::fs::read(&slow_out).unwrap(),
        write_program(&reference.reduced)
    );
    assert!(
        !doomed_out.exists(),
        "a cancelled queued job must write nothing"
    );

    let stats = client.stats().unwrap();
    let jobs = stats.get("jobs").expect("stats.jobs");
    assert_eq!(jobs.u64_field("done"), Some(1));
    assert_eq!(jobs.u64_field("cancelled"), Some(1));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw garbage on the wire gets a structured `{"ok": false}` answer, and
/// the daemon keeps serving well-formed requests on later connections.
#[test]
fn corrupt_json_on_the_wire_is_rejected_without_killing_the_daemon() {
    let dir = scratch("corrupt-wire");
    let state = dir.join("state");
    let (client, handle) = start_daemon(&state, 1);
    let addr = std::fs::read_to_string(state.join("daemon.addr")).unwrap();

    for garbage in [
        "this is { not json\n",
        "{\"op\": \"submit\", \"spec\": \n", // truncated mid-document
        "{\"op\": \"submit\"} trailing garbage\n", // valid prefix, junk suffix
    ] {
        let mut stream = TcpStream::connect(addr.trim()).unwrap();
        stream.write_all(garbage.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let response = Json::parse(&line).expect("daemon must answer garbage with JSON");
        assert_eq!(response.bool_field("ok"), Some(false), "for {garbage:?}");
        assert!(
            response.str_field("error").unwrap().contains("bad request"),
            "for {garbage:?}: {line}"
        );
    }

    // The daemon survived all three and still does real work.
    assert!(
        client.ping(),
        "daemon must still answer after garbage requests"
    );
    let (input, bytes) = make_container(&dir, 42, 10);
    let reference = baseline(&bytes);
    let out = dir.join("out.lbrc");
    let id = client.submit(&submit_spec(&input, &out, &[])).unwrap();
    let result = client.wait_result(id).unwrap();
    assert_eq!(result.str_field("status"), Some("done"));
    assert_eq!(
        std::fs::read(&out).unwrap(),
        write_program(&reference.reduced)
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint truncated mid-write (power loss between `write` and
/// `rename` would normally prevent this, but disks lie) must not wedge the
/// restarted daemon or corrupt the result: the daemon discards the
/// unreadable checkpoint, reruns the job from scratch, and determinism
/// guarantees the same reduced bytes.
#[test]
fn truncated_checkpoint_restarts_the_job_and_converges_to_the_same_bytes() {
    let dir = scratch("truncated-ckpt");
    let (input, bytes) = make_container(&dir, 23, 18);
    let reference = baseline(&bytes);
    let state = dir.join("state");
    let (client, handle) = start_daemon(&state, 1);

    let out = dir.join("out.lbrc");
    let id = client
        .submit(&submit_spec(
            &input,
            &out,
            &[("probe_latency_micros", Json::count(1_500))],
        ))
        .unwrap();

    // Wait for the first checkpoint, then take the daemon down mid-job.
    let ckpt = state.join(format!("job-{id}.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    assert!(!out.exists(), "the interrupted job must not have finished");

    // Simulate the torn write: chop the checkpoint in half and confirm it
    // is now unreadable rather than a silently-valid prefix.
    let full = std::fs::read(&ckpt).unwrap();
    assert!(
        full.len() > 2,
        "checkpoint too small to truncate meaningfully"
    );
    std::fs::write(&ckpt, &full[..full.len() / 2]).unwrap();
    assert!(
        load_checkpoint(&ckpt, namespace_digest("a", &bytes)).is_err(),
        "a half-written checkpoint must read as corrupt, not as data"
    );

    // Restart over the same state directory: the corrupt checkpoint is
    // discarded, the job re-runs from the beginning, and the output still
    // matches the uninterrupted reference bit for bit.
    let (client, handle) = start_daemon(&state, 2);
    let resumed = client.wait_result(id).unwrap();
    assert_eq!(resumed.str_field("status"), Some("done"));
    assert_eq!(
        std::fs::read(&out).unwrap(),
        write_program(&reference.reduced),
        "restart after checkpoint corruption must converge to the same bytes"
    );
    assert_eq!(
        resumed.u64_field("predicate_calls"),
        Some(reference.predicate_calls)
    );
    assert!(!ckpt.exists(), "finished jobs clean up their checkpoint");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
