//! Tests of the daemon's front door: binary framing (including torn,
//! interleaved, and oversize frames), batching with coalescing, admission
//! control (queue-full and per-client sheds with `retry_after_ms`), idle
//! timeouts that spare parked connections, and streaming progress events
//! racing cancellation.

use lbr_classfile::write_program;
use lbr_decompiler::BugSet;
use lbr_service::{
    frame, Client, Connection, Daemon, DaemonConfig, FrameDecoder, Framing, Json, WireFrame,
};
use lbr_workload::{generate, WorkloadConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbr-async-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn make_container(dir: &Path, seed: u64, classes: usize) -> PathBuf {
    let config = WorkloadConfig {
        seed,
        classes,
        interfaces: (classes / 3).max(2),
        plant: BugSet::decompiler_a().kinds().to_vec(),
        ..WorkloadConfig::default()
    };
    let path = dir.join(format!("bench-{seed}.lbrc"));
    std::fs::write(&path, write_program(&generate(&config))).expect("write container");
    path
}

fn start_daemon(config: DaemonConfig) -> (Client, std::thread::JoinHandle<std::io::Result<()>>) {
    let daemon = Daemon::start(config).expect("start daemon");
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run());
    let client = Client::connect(addr);
    assert!(
        client.wait_ready(Duration::from_secs(5)),
        "daemon never came up"
    );
    (client, handle)
}

fn shutdown(client: &Client, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon run");
}

fn slow_spec(input: &Path, latency_micros: u64) -> Json {
    Json::obj([
        ("input", Json::str(input.display().to_string())),
        ("decompiler", Json::str("a")),
        ("probe_latency_micros", Json::count(latency_micros)),
    ])
}

/// A full queue sheds immediately with `"shed": true` and a positive
/// `retry_after_ms` — it never blocks the submitter.
#[test]
fn queue_full_sheds_with_retry_after() {
    let dir = scratch("shed");
    let input = make_container(&dir, 3, 10);
    let mut config = DaemonConfig::new(dir.join("state"), 1);
    config.queue_capacity = 1;
    let (client, handle) = start_daemon(config);

    // One running + one queued job saturate workers=1, capacity=1;
    // keep submitting until the daemon sheds (the first submit may have
    // been popped already).
    let spec = slow_spec(&input, 30_000);
    let mut shed = None;
    for _ in 0..8 {
        let response = client
            .request(&{
                let Json::Obj(mut fields) = spec.clone() else {
                    unreachable!()
                };
                fields.insert("op".to_owned(), Json::str("submit"));
                Json::Obj(fields)
            })
            .expect("submit request");
        if response.bool_field("ok") == Some(false) {
            shed = Some(response);
            break;
        }
    }
    let shed = shed.expect("queue never filled");
    assert_eq!(shed.bool_field("shed"), Some(true));
    assert_eq!(shed.str_field("error"), Some("queue full"));
    let retry = shed.u64_field("retry_after_ms").expect("retry_after_ms");
    assert!(retry > 0, "retry hint must be positive");

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One connection may exceed `max_inflight_per_client` only by being
/// shed; a second connection is unaffected (per-client fairness).
#[test]
fn per_client_cap_sheds_third_job_but_not_other_clients() {
    let dir = scratch("cap");
    let input = make_container(&dir, 5, 10);
    let mut config = DaemonConfig::new(dir.join("state"), 1);
    config.max_inflight_per_client = 2;
    let (client, handle) = start_daemon(config);
    let addr = client.addr().to_string();

    let mut conn = Connection::negotiate(&addr, true).expect("connect");
    let spec = slow_spec(&input, 20_000);
    conn.submit(&spec, false).expect("first submit");
    conn.submit(&spec, false).expect("second submit");
    let third = conn
        .request(&{
            let Json::Obj(mut fields) = spec.clone() else {
                unreachable!()
            };
            fields.insert("op".to_owned(), Json::str("submit"));
            Json::Obj(fields)
        })
        .expect("third submit request");
    assert_eq!(third.bool_field("ok"), Some(false));
    assert_eq!(third.bool_field("shed"), Some(true));
    assert!(third.u64_field("retry_after_ms").is_some());

    // A different client still gets in.
    let mut other = Connection::negotiate(&addr, true).expect("connect other");
    other.submit(&spec, false).expect("other client submit");

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A binary frame delivered byte-by-byte across many writes must decode
/// exactly like one delivered whole (no torn-frame misparses).
#[test]
fn torn_binary_frames_reassemble() {
    let dir = scratch("torn");
    let config = DaemonConfig::new(dir.join("state"), 1);
    let (client, handle) = start_daemon(config);

    let mut stream = TcpStream::connect(client.addr()).expect("connect");
    let ping = frame::encode_binary_frame(frame::OP_DOC, &Json::obj([("op", Json::str("ping"))]));
    for byte in &ping {
        stream.write_all(&[*byte]).expect("write byte");
        stream.flush().expect("flush");
    }
    let mut decoder = FrameDecoder::new(1 << 20);
    let response = read_one_frame(&mut stream, &mut decoder);
    let WireFrame::Binary { doc, .. } = response else {
        panic!("expected a binary response to a binary request");
    };
    assert_eq!(doc.bool_field("ok"), Some(true));

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame larger than `max_frame_bytes` draws one error response and a
/// close — the daemon never buffers unbounded input.
#[test]
fn oversize_frame_is_rejected_and_connection_closed() {
    let dir = scratch("oversize");
    let mut config = DaemonConfig::new(dir.join("state"), 1);
    config.max_frame_bytes = 1024;
    let (client, handle) = start_daemon(config);

    let mut stream = TcpStream::connect(client.addr()).expect("connect");
    let huge = Json::obj([("op", Json::str("x".repeat(4096)))]);
    stream
        .write_all(&frame::encode_binary_frame(frame::OP_DOC, &huge))
        .expect("write oversize");
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .expect("read error response until close");
    assert!(
        text.contains("\"ok\":false"),
        "expected an error response, got {text:?}"
    );

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One connection may interleave JSON lines and binary frames request by
/// request; each gets a response in its own framing, with identical
/// content.
#[test]
fn json_and_binary_interleave_on_one_connection() {
    let dir = scratch("interleave");
    let config = DaemonConfig::new(dir.join("state"), 1);
    let (client, handle) = start_daemon(config);

    let mut stream = TcpStream::connect(client.addr()).expect("connect");
    let mut decoder = FrameDecoder::new(1 << 20);

    stream
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("json stats");
    let json_reply = read_one_frame(&mut stream, &mut decoder);
    assert_eq!(json_reply.framing(), Framing::Json);
    let WireFrame::JsonLine(line) = json_reply else {
        unreachable!()
    };
    let json_doc = Json::parse(&line).expect("parse json stats");

    let stats = frame::encode_binary_frame(frame::OP_DOC, &Json::obj([("op", Json::str("stats"))]));
    stream.write_all(&stats).expect("binary stats");
    let binary_reply = read_one_frame(&mut stream, &mut decoder);
    assert_eq!(binary_reply.framing(), Framing::Binary);
    let WireFrame::Binary {
        doc: binary_doc, ..
    } = binary_reply
    else {
        unreachable!()
    };

    // Value-identical across framings, bar fields that move with time.
    for key in ["ok", "workers", "queue", "jobs"] {
        assert_eq!(
            json_doc.get(key).map(Json::render),
            binary_doc.get(key).map(Json::render),
            "stats field {key} differs between framings"
        );
    }

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same job run over JSON framing and binary framing produces
/// byte-for-byte identical reduced containers and identical deterministic
/// report fields.
#[test]
fn binary_and_json_framed_jobs_are_bit_identical() {
    let dir = scratch("framing-ident");
    let input = make_container(&dir, 7, 12);
    let config = DaemonConfig::new(dir.join("state"), 2);
    let (client, handle) = start_daemon(config);
    let addr = client.addr().to_string();

    let run = |binary: bool, out: &Path| -> Json {
        let mut conn = Connection::negotiate(&addr, binary).expect("connect");
        assert_eq!(
            conn.framing(),
            if binary {
                Framing::Binary
            } else {
                Framing::Json
            }
        );
        let spec = Json::obj([
            ("input", Json::str(input.display().to_string())),
            ("decompiler", Json::str("a")),
            ("output", Json::str(out.display().to_string())),
        ]);
        let id = conn.submit(&spec, false).expect("submit");
        conn.wait_result(id).expect("wait result")
    };
    let out_b = dir.join("out-binary.lbrc");
    let out_j = dir.join("out-json.lbrc");
    let result_b = run(true, &out_b);
    let result_j = run(false, &out_j);

    assert_eq!(result_b.str_field("status"), Some("done"));
    for key in ["status", "trace_digest", "predicate_calls", "final_bytes"] {
        assert_eq!(
            result_b.get(key).map(Json::render),
            result_j.get(key).map(Json::render),
            "result field {key} differs between framings"
        );
    }
    assert_eq!(
        std::fs::read(&out_b).expect("binary output"),
        std::fs::read(&out_j).expect("json output"),
        "reduced containers must be byte-identical across framings"
    );

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batch frames: one frame carries many submits, identical submits in the
/// same batch coalesce to one job, and every entry gets its own response.
#[test]
fn batch_submits_coalesce_identical_entries() {
    let dir = scratch("batch");
    let input = make_container(&dir, 9, 10);
    let config = DaemonConfig::new(dir.join("state"), 1);
    let (client, handle) = start_daemon(config);

    let mut conn = Connection::negotiate(client.addr(), true).expect("connect");
    let entry = Json::obj([
        ("op", Json::str("submit")),
        ("input", Json::str(input.display().to_string())),
        ("decompiler", Json::str("a")),
    ]);
    let ping = Json::obj([("op", Json::str("ping"))]);
    let responses = conn
        .batch(&[entry.clone(), ping, entry.clone()])
        .expect("batch");
    assert_eq!(responses.len(), 3);
    let id0 = responses[0].u64_field("id").expect("first id");
    assert_eq!(responses[1].bool_field("ok"), Some(true));
    assert_eq!(responses[2].u64_field("id"), Some(id0), "must coalesce");
    assert_eq!(responses[2].bool_field("coalesced"), Some(true));

    let result = conn.wait_result(id0).expect("result");
    assert_eq!(result.str_field("status"), Some("done"));

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelling a job mid-run while a subscriber streams its progress: the
/// subscriber still gets a clean `terminal` event (status cancelled) and
/// the stream does not hang or tear.
#[test]
fn cancel_races_streaming_progress_events() {
    let dir = scratch("cancel-stream");
    let input = make_container(&dir, 11, 14);
    let config = DaemonConfig::new(dir.join("state"), 1);
    let (client, handle) = start_daemon(config);

    let mut conn = Connection::negotiate(client.addr(), true).expect("connect");
    let id = conn
        .submit(&slow_spec(&input, 5_000), true)
        .expect("submit with events");

    // Let at least one progress event arrive, then cancel from a second
    // connection while events are still streaming.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_progress = false;
    loop {
        assert!(Instant::now() < deadline, "no terminal event arrived");
        let event = conn.next_event().expect("event stream");
        match event.str_field("event") {
            Some("progress") if !saw_progress => {
                saw_progress = true;
                client.cancel(id).expect("cancel mid-stream");
            }
            Some("terminal") => {
                assert_eq!(event.u64_field("id"), Some(id));
                let status = event
                    .get("result")
                    .and_then(|r| r.str_field("status"))
                    .expect("terminal result status")
                    .to_owned();
                assert!(
                    status == "cancelled" || status == "done",
                    "unexpected terminal status {status}"
                );
                break;
            }
            _ => {}
        }
    }
    assert!(saw_progress, "expected streamed progress before terminal");

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Idle connections are closed after the timeout; a connection parked on
/// `result --wait` is exempt for as long as the job runs.
#[test]
fn idle_timeout_closes_quiet_but_spares_parked_connections() {
    let dir = scratch("idle");
    let input = make_container(&dir, 13, 12);
    let mut config = DaemonConfig::new(dir.join("state"), 1);
    config.idle_timeout = Duration::from_millis(300);
    let (client, handle) = start_daemon(config);

    // Park a waiter on a job slow enough to outlive several idle windows.
    let addr = client.addr().to_string();
    let parked = std::thread::spawn(move || {
        let mut conn = Connection::negotiate(&addr, true).expect("connect");
        let id = conn
            .submit(&slow_spec(&input, 8_000), false)
            .expect("submit");
        conn.wait_result(id)
            .expect("parked wait must survive idle sweep")
    });

    // A connection that never speaks is closed: reads return EOF.
    let mut quiet = TcpStream::connect(client.addr()).expect("connect quiet");
    quiet
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 16];
    let start = Instant::now();
    let n = quiet.read(&mut buf).expect("idle close, not timeout");
    assert_eq!(n, 0, "daemon should close the idle connection");
    assert!(
        start.elapsed() < Duration::from_secs(9),
        "close must come from the idle sweep"
    );

    let result = parked.join().expect("parked thread");
    assert_eq!(result.str_field("status"), Some("done"));

    shutdown(&client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads exactly one frame off a blocking stream.
fn read_one_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> WireFrame {
    loop {
        if let Some(frame) = decoder.next_frame().expect("well-framed response") {
            return frame;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "connection closed before a full frame");
        decoder.push(&chunk[..n]);
    }
}
