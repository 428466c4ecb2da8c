//! Command-line client for the reduction daemon (`lbr-serviced`).
//!
//! ```text
//! reduce-client (--state-dir DIR | --addr HOST:PORT) <op> [args]
//!
//! ops:
//!   submit --input bench.lbrc [--decompiler a|b|c|all] [--strategy S]
//!          [--out reduced.lbrc] [--priority N] [--cost SECS]
//!          [--probe-threads N] [--probe-latency-micros N]
//!          [--deadline-secs F] [--wait] [--events] [--retry-shed]
//!   status --id N
//!   result --id N [--wait]
//!   cancel --id N
//!   stats
//!   shutdown
//!   ping
//! ```
//!
//! `--binary` negotiates the compact binary framing over one persistent
//! connection (daemons that do not offer it transparently fall back to
//! line JSON); `--events` streams `running`/`progress` events to stderr
//! while a `submit --wait` blocks, instead of the client polling.
//!
//! Responses are printed to stdout as one JSON document. Exit status:
//! `0` on success (for `result --wait`, only when the job finished
//! `done`), `1` on daemon/job errors, `2` on usage errors, `3` when the
//! daemon shed the submit (stderr then carries its `retry_after_ms`
//! hint; `--retry-shed` sleeps the hinted delay and retries once before
//! giving up).

#![forbid(unsafe_code)]

use lbr_service::{Client, Connection, Json, Submitted};
use std::path::Path;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: reduce-client (--state-dir DIR | --addr HOST:PORT) <op> [args]");
    eprintln!("ops: submit status result cancel stats shutdown ping (try --help)");
    std::process::exit(2);
}

fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Exit for a shed submit that was not (or no longer) retried: the
/// daemon's backoff hint goes to stderr, and the status is distinct
/// from both usage errors and hard failures.
fn shed_exit(message: &str, retry_after_ms: u64, suggest_flag: bool) -> ! {
    let suggestion = if suggest_flag {
        " (or pass --retry-shed to retry once automatically)"
    } else {
        ""
    };
    eprintln!(
        "shed: daemon refused the submit ({message}); \
         retry after {retry_after_ms}ms{suggestion}"
    );
    std::process::exit(3);
}

/// Resolves a submit outcome, honouring `--retry-shed`: on a shed
/// response, sleep the daemon's hinted delay and retry exactly once.
fn admit(mut submit: impl FnMut() -> std::io::Result<Submitted>, retry_shed: bool) -> u64 {
    match submit().unwrap_or_else(|e| fail(format!("submit: {e}"))) {
        Submitted::Accepted(id) => id,
        Submitted::Shed {
            retry_after_ms,
            message,
        } => {
            if !retry_shed {
                shed_exit(&message, retry_after_ms, true);
            }
            eprintln!(
                "shed: daemon refused the submit ({message}); \
                 retrying once in {retry_after_ms}ms"
            );
            std::thread::sleep(Duration::from_millis(retry_after_ms));
            match submit().unwrap_or_else(|e| fail(format!("submit retry: {e}"))) {
                Submitted::Accepted(id) => id,
                Submitted::Shed {
                    retry_after_ms,
                    message,
                } => shed_exit(&message, retry_after_ms, false),
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: reduce-client (--state-dir DIR | --addr HOST:PORT) <op> [args]");
        println!();
        println!("ops:");
        println!("  submit --input bench.lbrc [--format classfile|stackvm]");
        println!("         [--decompiler a|b|c|all] [--strategy S]");
        println!("         [--out reduced.lbrc] [--priority N] [--cost SECS]");
        println!("         [--probe-threads N] [--probe-latency-micros N]");
        println!("         [--deadline-secs F] [--wait]");
        println!("  status --id N          show a job's phase");
        println!("  result --id N [--wait] fetch (or block for) a job's result");
        println!("  cancel --id N          cooperatively cancel a job");
        println!("  stats                  queue depth, cache hit rates, utilization");
        println!("  shutdown               stop the daemon (running jobs checkpoint)");
        println!("  ping                   liveness check");
        println!();
        println!("  --binary               negotiate compact binary framing");
        println!("  --events               stream job progress events to stderr");
        println!("  --retry-shed           on a shed submit, sleep the hinted delay, retry once");
        println!();
        println!("exit status: 0 ok, 1 error, 2 usage, 3 submit shed (hint on stderr)");
        return;
    }

    let mut addr: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut op: Option<String> = None;
    let mut id: Option<u64> = None;
    let mut wait = false;
    let mut binary = false;
    let mut events = false;
    let mut retry_shed = false;
    // submit fields, passed through as the job spec.
    let mut spec: Vec<(&'static str, Json)> = Vec::new();
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
            "--addr" => addr = Some(value()),
            "--state-dir" => state_dir = Some(value()),
            "--id" => {
                id = Some(value().parse().unwrap_or_else(|_| {
                    eprintln!("--id takes a number");
                    std::process::exit(2);
                }))
            }
            "--wait" => wait = true,
            "--binary" => binary = true,
            "--events" => events = true,
            "--retry-shed" => retry_shed = true,
            "--input" => spec.push(("input", Json::str(value()))),
            "--format" | "-f" => spec.push(("format", Json::str(value()))),
            "--decompiler" | "-d" => spec.push(("decompiler", Json::str(value()))),
            "--strategy" | "-s" => spec.push(("strategy", Json::str(value()))),
            "--out" | "-o" => spec.push(("output", Json::str(value()))),
            "--priority" => spec.push((
                "priority",
                Json::count(value().parse().unwrap_or_else(|_| {
                    eprintln!("--priority takes a number");
                    std::process::exit(2);
                })),
            )),
            "--cost" => spec.push((
                "cost",
                Json::Num(value().parse().unwrap_or_else(|_| {
                    eprintln!("--cost takes seconds");
                    std::process::exit(2);
                })),
            )),
            "--probe-threads" => spec.push((
                "probe_threads",
                Json::count(value().parse().unwrap_or_else(|_| {
                    eprintln!("--probe-threads takes a number");
                    std::process::exit(2);
                })),
            )),
            "--probe-latency-micros" => spec.push((
                "probe_latency_micros",
                Json::count(value().parse().unwrap_or_else(|_| {
                    eprintln!("--probe-latency-micros takes a number");
                    std::process::exit(2);
                })),
            )),
            "--deadline-secs" => spec.push((
                "deadline_secs",
                Json::Num(value().parse().unwrap_or_else(|_| {
                    eprintln!("--deadline-secs takes seconds");
                    std::process::exit(2);
                })),
            )),
            other if !other.starts_with('-') && op.is_none() => op = Some(other.to_owned()),
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let client = match (addr, state_dir) {
        (Some(addr), _) => Client::connect(addr),
        (None, Some(dir)) => Client::from_state_dir(Path::new(&dir))
            .unwrap_or_else(|e| fail(format!("no daemon at {dir}: {e}"))),
        (None, None) => usage(),
    };
    let Some(op) = op else { usage() };
    let need_id = || id.unwrap_or_else(|| usage());

    if binary || events {
        run_over_connection(&client, &op, spec, id, wait, binary, events, retry_shed);
        return;
    }

    match op.as_str() {
        "ping" => {
            if client.ping() {
                println!("{{\"ok\":true}}");
            } else {
                fail(format!("no daemon answering at {}", client.addr()));
            }
        }
        "submit" => {
            let spec = Json::obj_from(spec);
            let job_id = admit(|| client.try_submit(&spec), retry_shed);
            if wait {
                let result = client
                    .wait_result(job_id)
                    .unwrap_or_else(|e| fail(format!("waiting on job {job_id}: {e}")));
                println!("{}", result.render());
                if result.str_field("status") != Some("done") {
                    std::process::exit(1);
                }
            } else {
                println!("{{\"id\":{job_id}}}");
            }
        }
        "status" => {
            let doc = client
                .status(need_id())
                .unwrap_or_else(|e| fail(format!("status: {e}")));
            println!("{}", doc.render());
        }
        "result" => {
            let job_id = need_id();
            let result = if wait {
                client.wait_result(job_id)
            } else {
                client
                    .expect_ok(&Json::obj([
                        ("op", Json::str("result")),
                        ("id", Json::count(job_id)),
                    ]))
                    .map(|r| r.get("result").cloned().unwrap_or(Json::Null))
            }
            .unwrap_or_else(|e| fail(format!("result: {e}")));
            println!("{}", result.render());
            if result.str_field("status") != Some("done") {
                std::process::exit(1);
            }
        }
        "cancel" => {
            client
                .cancel(need_id())
                .unwrap_or_else(|e| fail(format!("cancel: {e}")));
            println!("{{\"ok\":true}}");
        }
        "stats" => {
            let doc = client
                .stats()
                .unwrap_or_else(|e| fail(format!("stats: {e}")));
            println!("{}", doc.render());
        }
        "shutdown" => {
            client
                .shutdown()
                .unwrap_or_else(|e| fail(format!("shutdown: {e}")));
            println!("{{\"ok\":true}}");
        }
        other => {
            eprintln!("unknown op {other} (try --help)");
            std::process::exit(2);
        }
    }
}

/// The persistent-connection path: negotiated framing, optional event
/// stream. Used whenever `--binary` or `--events` is requested.
#[allow(clippy::too_many_arguments)]
fn run_over_connection(
    client: &Client,
    op: &str,
    spec: Vec<(&'static str, Json)>,
    id: Option<u64>,
    wait: bool,
    binary: bool,
    events: bool,
    retry_shed: bool,
) {
    let mut conn = Connection::negotiate(client.addr(), binary)
        .unwrap_or_else(|e| fail(format!("cannot connect to {}: {e}", client.addr())));
    if binary && conn.framing() != lbr_service::Framing::Binary {
        eprintln!("note: daemon does not offer binary framing, using JSON");
    }
    let need_id = || id.unwrap_or_else(|| usage());
    let expect = |r: std::io::Result<Json>, what: &str| -> Json {
        r.unwrap_or_else(|e| fail(format!("{what}: {e}")))
    };
    match op {
        "ping" => {
            expect(
                conn.expect_ok(&Json::obj([("op", Json::str("ping"))])),
                "ping",
            );
            println!("{{\"ok\":true}}");
        }
        "submit" => {
            let spec = Json::obj_from(spec);
            let job_id = admit(|| conn.try_submit(&spec, events), retry_shed);
            if !wait {
                println!("{{\"id\":{job_id}}}");
                return;
            }
            let result = if events {
                // The terminal event carries the result; progress goes to
                // stderr as it streams in.
                loop {
                    let ev = expect(conn.next_event(), "event stream");
                    match ev.str_field("event") {
                        Some("terminal") => break ev.get("result").cloned().unwrap_or(Json::Null),
                        Some("error") => fail(format!(
                            "job {job_id}: {}",
                            ev.str_field("error").unwrap_or("daemon error")
                        )),
                        _ => eprintln!("{}", ev.render()),
                    }
                }
            } else {
                expect(conn.wait_result(job_id), "waiting")
            };
            println!("{}", result.render());
            if result.str_field("status") != Some("done") {
                std::process::exit(1);
            }
        }
        "status" => {
            let doc = expect(
                conn.expect_ok(&Json::obj([
                    ("op", Json::str("status")),
                    ("id", Json::count(need_id())),
                ])),
                "status",
            );
            println!("{}", doc.render());
        }
        "result" => {
            let job_id = need_id();
            let result = if wait {
                expect(conn.wait_result(job_id), "result")
            } else {
                expect(
                    conn.expect_ok(&Json::obj([
                        ("op", Json::str("result")),
                        ("id", Json::count(job_id)),
                    ])),
                    "result",
                )
                .get("result")
                .cloned()
                .unwrap_or(Json::Null)
            };
            println!("{}", result.render());
            if result.str_field("status") != Some("done") {
                std::process::exit(1);
            }
        }
        "cancel" => {
            expect(conn.cancel(need_id()).map(|()| Json::Null), "cancel");
            println!("{{\"ok\":true}}");
        }
        "stats" => {
            let doc = expect(conn.stats(), "stats");
            println!("{}", doc.render());
        }
        "shutdown" => {
            expect(
                conn.expect_ok(&Json::obj([("op", Json::str("shutdown"))])),
                "shutdown",
            );
            println!("{{\"ok\":true}}");
        }
        other => {
            eprintln!("unknown op {other} (try --help)");
            std::process::exit(2);
        }
    }
}
