//! Load generator for the reduction daemon: measures service throughput,
//! latency, and saturation behaviour under concurrent jobs.
//!
//! ```text
//! loadgen [--out BENCH_service.json] [--jobs N] [--workers 4,8]
//!         [--classes N] [--seed N] [--warm-repeat N] [--rates 100,200,400,800]
//!         [--sweep-secs F] [--json] [--smoke]
//! ```
//!
//! For each worker count, loadgen hosts a fresh daemon over a scratch
//! state directory, generates `--jobs` distinct failing containers, and
//! measures three things over persistent binary-framed connections:
//!
//! * a **cold** round (empty oracle cache): every job batch-submitted up
//!   front with `"events": true`, latency taken per job from batch submit
//!   to the streamed `terminal` event;
//! * a **warm** round resubmitting the job set `--warm-repeat` times
//!   (every probe answerable from the cache) — this is the throughput
//!   number `bench_compare --service` gates;
//! * an **open-loop saturation sweep**: arrivals scheduled at fixed rates
//!   independent of completions, latency = scheduled arrival → terminal
//!   event, so queueing delay is charged to the service. Past saturation
//!   the daemon sheds with `retry_after_ms` — sheds are counted, never
//!   retried, and a shed response missing `retry_after_ms` fails the run.
//!
//! All percentiles (p50/p95/p99) come from the full recorded latency set.
//! `--smoke` runs a fixed-seed burst against a tiny queue instead: it
//! asserts the daemon sheds rather than stalls, that every shed carries
//! `retry_after_ms`, and that every accepted job reaches a terminal event
//! — exit status is the verdict. Results land in `--out` (default
//! `BENCH_service.json`), written atomically.

#![forbid(unsafe_code)]

use lbr_classfile::write_program;
use lbr_decompiler::BugSet;
use lbr_service::{atomic_write_str, Client, Connection, Daemon, DaemonConfig, Json};
use lbr_workload::{generate, WorkloadConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len()) - 1;
    sorted_ms[idx]
}

/// Submit requests per batch frame in the closed-loop rounds.
const BATCH: usize = 16;
/// Jobs a single connection carries in a closed-loop round — kept well
/// under the daemon's per-client in-flight cap (default 64).
const PER_CONN: usize = 40;
/// Connections the open-loop sweep spreads arrivals over.
const SWEEP_CONNS: usize = 4;
/// How long the sweep waits for accepted jobs to drain after the last
/// scheduled arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

struct RoundStats {
    jobs_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    hit_rate: f64,
    all_done: bool,
}

/// One connection's share of a closed-loop round: batch-submit all specs
/// with events on, then read the stream until every job is terminal.
fn run_conn_round(addr: &str, binary: bool, specs: Vec<Json>) -> std::io::Result<(Vec<f64>, bool)> {
    let mut conn = Connection::negotiate(addr, binary)?;
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    let mut all_done = true;
    for chunk in specs.chunks(BATCH) {
        let submitted = Instant::now();
        for response in conn.batch(chunk)? {
            if response.bool_field("ok") == Some(true) {
                let id = response.u64_field("id").ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "submit without id")
                })?;
                outstanding.insert(id, submitted);
            } else {
                return Err(std::io::Error::other(format!(
                    "round submit rejected: {}",
                    response.render()
                )));
            }
        }
    }
    let mut latencies_ms = Vec::with_capacity(outstanding.len());
    while !outstanding.is_empty() {
        let event = conn.next_event()?;
        match event.str_field("event") {
            Some("terminal") => {
                let Some(id) = event.u64_field("id") else {
                    continue;
                };
                if let Some(submitted) = outstanding.remove(&id) {
                    latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                    let done =
                        event.get("result").and_then(|r| r.str_field("status")) == Some("done");
                    all_done &= done;
                }
            }
            Some("error") => {
                return Err(std::io::Error::other(format!(
                    "daemon error mid-round: {}",
                    event.render()
                )))
            }
            _ => {} // running / progress
        }
    }
    Ok((latencies_ms, all_done))
}

/// Batch-submits `specs` across enough connections to stay under the
/// per-client cap, waits for all terminal events, and reports the round.
fn run_round(client: &Client, addr: &str, binary: bool, specs: Vec<Json>) -> RoundStats {
    let before = client
        .stats()
        .unwrap_or_else(|e| fail(format!("stats: {e}")));
    let cache_before = |k: &str| {
        before
            .get("cache")
            .and_then(|c| c.u64_field(k))
            .unwrap_or(0)
    };
    let (hits0, misses0) = (cache_before("hits"), cache_before("misses"));

    let total = specs.len();
    let conns = total.div_ceil(PER_CONN).max(1);
    let mut shares: Vec<Vec<Json>> = (0..conns).map(|_| Vec::new()).collect();
    for (i, spec) in specs.into_iter().enumerate() {
        shares[i % conns].push(spec);
    }
    let round_start = Instant::now();
    let handles: Vec<_> = shares
        .into_iter()
        .map(|share| {
            let addr = addr.to_owned();
            std::thread::spawn(move || run_conn_round(&addr, binary, share))
        })
        .collect();
    let mut latencies_ms = Vec::with_capacity(total);
    let mut all_done = true;
    for handle in handles {
        match handle.join().expect("round thread") {
            Ok((lats, done)) => {
                latencies_ms.extend(lats);
                all_done &= done;
            }
            Err(e) => fail(format!("round connection failed: {e}")),
        }
    }
    let wall = round_start.elapsed().as_secs_f64();

    let after = client
        .stats()
        .unwrap_or_else(|e| fail(format!("stats: {e}")));
    let cache_after = |k: &str| after.get("cache").and_then(|c| c.u64_field(k)).unwrap_or(0);
    let hits = cache_after("hits") - hits0;
    let lookups = hits + cache_after("misses") - misses0;

    latencies_ms.sort_by(f64::total_cmp);
    RoundStats {
        jobs_per_sec: total as f64 / wall.max(1e-9),
        p50_ms: percentile(&latencies_ms, 0.5),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
        hit_rate: if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
        all_done,
    }
}

struct SweepStats {
    rate_jps: f64,
    offered: usize,
    completed: usize,
    shed: usize,
    achieved_jps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

struct SweepShare {
    latencies_ms: Vec<f64>,
    completed: usize,
    shed: usize,
    sheds_missing_retry: usize,
    not_done: usize,
    last_offset: Duration,
}

/// One connection's share of the open-loop sweep. Arrivals are absolute
/// offsets from the shared epoch; between arrivals the thread polls the
/// event stream so terminal events are timestamped close to arrival.
fn run_conn_sweep(
    addr: &str,
    binary: bool,
    epoch: Instant,
    mine: Vec<(Duration, Json)>,
) -> std::io::Result<SweepShare> {
    let mut conn = Connection::negotiate(addr, binary)?;
    let mut outstanding: HashMap<u64, Duration> = HashMap::new();
    let mut share = SweepShare {
        latencies_ms: Vec::new(),
        completed: 0,
        shed: 0,
        sheds_missing_retry: 0,
        not_done: 0,
        last_offset: Duration::ZERO,
    };
    let absorb = |share: &mut SweepShare,
                  outstanding: &mut HashMap<u64, Duration>,
                  event: Json|
     -> std::io::Result<()> {
        match event.str_field("event") {
            Some("terminal") => {
                let Some(id) = event.u64_field("id") else {
                    return Ok(());
                };
                if let Some(scheduled) = outstanding.remove(&id) {
                    let now = epoch.elapsed();
                    share
                        .latencies_ms
                        .push((now.saturating_sub(scheduled)).as_secs_f64() * 1e3);
                    share.completed += 1;
                    share.last_offset = share.last_offset.max(now);
                    if event.get("result").and_then(|r| r.str_field("status")) != Some("done") {
                        share.not_done += 1;
                    }
                }
                Ok(())
            }
            Some("error") => Err(std::io::Error::other(format!(
                "daemon error mid-sweep: {}",
                event.render()
            ))),
            _ => Ok(()),
        }
    };
    for (offset, request) in mine {
        // Open loop: hold to the schedule, draining events while we wait.
        loop {
            let now = epoch.elapsed();
            if now >= offset {
                break;
            }
            let window = (offset - now).min(Duration::from_millis(5));
            if let Some(event) = conn.poll_event(window)? {
                absorb(&mut share, &mut outstanding, event)?;
            }
        }
        let response = conn.request(&request)?;
        if response.bool_field("ok") == Some(true) {
            let id = response.u64_field("id").ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "submit without id")
            })?;
            outstanding.insert(id, offset);
        } else if response.bool_field("shed") == Some(true) {
            share.shed += 1;
            if response.u64_field("retry_after_ms").is_none() {
                share.sheds_missing_retry += 1;
            }
        } else {
            return Err(std::io::Error::other(format!(
                "sweep submit rejected: {}",
                response.render()
            )));
        }
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !outstanding.is_empty() {
        if Instant::now() >= deadline {
            return Err(std::io::Error::other(format!(
                "{} accepted jobs never reached a terminal event",
                outstanding.len()
            )));
        }
        if let Some(event) = conn.poll_event(Duration::from_millis(50))? {
            absorb(&mut share, &mut outstanding, event)?;
        }
    }
    Ok(share)
}

/// Open-loop burst at a fixed arrival rate: `offered` arrivals scheduled
/// at `1/rate` spacing, round-robined across connections. Returns the
/// stats plus the number of shed responses missing `retry_after_ms`
/// (which the caller treats as a hard failure).
fn run_sweep(
    addr: &str,
    binary: bool,
    inputs: &[PathBuf],
    rate_jps: f64,
    offered: usize,
    tag: &str,
) -> (SweepStats, usize, usize) {
    let spacing = Duration::from_secs_f64(1.0 / rate_jps.max(1e-9));
    let mut shares: Vec<Vec<(Duration, Json)>> = (0..SWEEP_CONNS).map(|_| Vec::new()).collect();
    for k in 0..offered {
        let input = &inputs[k % inputs.len()];
        let request = Json::obj([
            ("op", Json::str("submit")),
            ("input", Json::str(input.display().to_string())),
            ("decompiler", Json::str("a")),
            ("events", Json::Bool(true)),
            ("tag", Json::str(format!("{tag}-{k}"))),
        ]);
        shares[k % SWEEP_CONNS].push((spacing.mul_f64(k as f64), request));
    }
    let epoch = Instant::now() + Duration::from_millis(50);
    let handles: Vec<_> = shares
        .into_iter()
        .map(|mine| {
            let addr = addr.to_owned();
            std::thread::spawn(move || run_conn_sweep(&addr, binary, epoch, mine))
        })
        .collect();
    let mut latencies_ms = Vec::new();
    let (mut completed, mut shed, mut missing_retry, mut not_done) = (0, 0, 0, 0);
    let mut last_offset = Duration::ZERO;
    for handle in handles {
        match handle.join().expect("sweep thread") {
            Ok(share) => {
                latencies_ms.extend(share.latencies_ms);
                completed += share.completed;
                shed += share.shed;
                missing_retry += share.sheds_missing_retry;
                not_done += share.not_done;
                last_offset = last_offset.max(share.last_offset);
            }
            Err(e) => fail(format!("sweep connection failed: {e}")),
        }
    }
    latencies_ms.sort_by(f64::total_cmp);
    let span = last_offset.as_secs_f64().max(1e-9);
    (
        SweepStats {
            rate_jps,
            offered,
            completed,
            shed,
            achieved_jps: completed as f64 / span,
            p50_ms: percentile(&latencies_ms, 0.5),
            p95_ms: percentile(&latencies_ms, 0.95),
            p99_ms: percentile(&latencies_ms, 0.99),
        },
        missing_retry,
        not_done,
    )
}

fn round_doc(r: &RoundStats) -> Json {
    Json::obj([
        ("jobs_per_sec", Json::Num(r.jobs_per_sec)),
        ("p50_ms", Json::Num(r.p50_ms)),
        ("p95_ms", Json::Num(r.p95_ms)),
        ("p99_ms", Json::Num(r.p99_ms)),
        ("cache_hit_rate", Json::Num(r.hit_rate)),
    ])
}

fn sweep_doc(s: &SweepStats) -> Json {
    Json::obj([
        ("rate_jps", Json::Num(s.rate_jps)),
        ("offered", Json::count(s.offered as u64)),
        ("completed", Json::count(s.completed as u64)),
        ("shed", Json::count(s.shed as u64)),
        ("achieved_jps", Json::Num(s.achieved_jps)),
        ("p50_ms", Json::Num(s.p50_ms)),
        ("p95_ms", Json::Num(s.p95_ms)),
        ("p99_ms", Json::Num(s.p99_ms)),
    ])
}

/// Distinct failing containers, one per job, seeded deterministically.
fn generate_inputs(scratch: &Path, jobs: usize, classes: usize, seed: u64) -> Vec<PathBuf> {
    (0..jobs)
        .map(|j| {
            let config = WorkloadConfig {
                seed: seed + j as u64,
                classes,
                interfaces: (classes / 3).max(2),
                plant: BugSet::decompiler_a().kinds().to_vec(),
                ..WorkloadConfig::default()
            };
            let path = scratch.join(format!("bench-{j}.lbrc"));
            std::fs::write(&path, write_program(&generate(&config)))
                .unwrap_or_else(|e| fail(format!("write container: {e}")));
            path
        })
        .collect()
}

fn submit_request(input: &Path, output: Option<PathBuf>, tag: String) -> Json {
    let mut fields = vec![
        ("op".to_owned(), Json::str("submit")),
        ("input".to_owned(), Json::str(input.display().to_string())),
        ("decompiler".to_owned(), Json::str("a")),
        ("events".to_owned(), Json::Bool(true)),
        ("tag".to_owned(), Json::str(tag)),
    ];
    if let Some(output) = output {
        fields.push(("output".to_owned(), Json::str(output.display().to_string())));
    }
    Json::Obj(fields.into_iter().collect())
}

/// Fixed-seed saturation smoke for CI: a burst far past a deliberately
/// tiny queue must shed (with `retry_after_ms` on every shed) instead of
/// stalling, and every accepted job must still reach a terminal event.
fn run_smoke(scratch: &Path, seed: u64, binary: bool) {
    let inputs = generate_inputs(scratch, 3, 8, seed);
    let state = scratch.join("state-smoke");
    let mut config = DaemonConfig::new(&state, 2);
    config.queue_capacity = 6;
    let daemon = Daemon::start(config).unwrap_or_else(|e| fail(format!("start daemon: {e}")));
    let addr = daemon.local_addr().to_string();
    let client = Client::connect(addr.clone());
    let handle = std::thread::spawn(move || daemon.run());
    if !client.wait_ready(Duration::from_secs(5)) {
        fail("daemon did not come up".to_owned());
    }

    // The whole burst arrives within about 12 ms: faster than two
    // workers drain a 6-deep queue even when every job is a quick one.
    let (offered, rate) = (48, 4000.0);
    let (stats, missing_retry, not_done) =
        run_sweep(&addr, binary, &inputs, rate, offered, "smoke");
    client
        .shutdown()
        .unwrap_or_else(|e| fail(format!("shutdown: {e}")));
    handle
        .join()
        .expect("daemon thread")
        .unwrap_or_else(|e| fail(format!("daemon: {e}")));

    eprintln!(
        "smoke: offered {} at {rate}/s  accepted {}  shed {}  p95 {:.1} ms",
        stats.offered, stats.completed, stats.shed, stats.p95_ms
    );
    if missing_retry > 0 {
        fail(format!(
            "{missing_retry} shed responses missing retry_after_ms"
        ));
    }
    if not_done > 0 {
        fail(format!("{not_done} accepted jobs did not finish done"));
    }
    if stats.shed == 0 {
        fail("burst past a 6-deep queue shed nothing — admission control inert".to_owned());
    }
    if stats.completed + stats.shed != stats.offered {
        fail(format!(
            "arrivals unaccounted for: {} completed + {} shed != {} offered",
            stats.completed, stats.shed, stats.offered
        ));
    }
    println!(
        "smoke ok: {} completed, {} shed, all sheds carried retry_after_ms",
        stats.completed, stats.shed
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_service.json".to_owned();
    let mut jobs = 8usize;
    let mut worker_counts = vec![4usize, 8];
    let mut classes = 12usize;
    let mut seed = 1u64;
    let mut warm_repeat = 12usize;
    let mut rates: Vec<f64> = vec![100.0, 200.0, 400.0, 800.0];
    let mut sweep_secs = 2.0f64;
    let mut binary = true;
    let mut smoke = false;
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
            "--out" | "-o" => out = value(),
            "--jobs" => jobs = value().parse().expect("--jobs takes a number"),
            "--classes" => classes = value().parse().expect("--classes takes a number"),
            "--seed" => seed = value().parse().expect("--seed takes a number"),
            "--warm-repeat" => warm_repeat = value().parse().expect("--warm-repeat takes a number"),
            "--sweep-secs" => sweep_secs = value().parse().expect("--sweep-secs takes seconds"),
            "--rates" => {
                rates = value()
                    .split(',')
                    .map(|r| r.trim().parse().expect("--rates takes numbers"))
                    .collect();
            }
            "--workers" => {
                worker_counts = value()
                    .split(',')
                    .map(|w| w.trim().parse().expect("--workers takes numbers"))
                    .collect();
            }
            "--json" => binary = false,
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("usage: loadgen [--out BENCH_service.json] [--jobs N] [--workers 4,8]");
                println!("               [--classes N] [--seed N] [--warm-repeat N]");
                println!(
                    "               [--rates 100,200,400,800] [--sweep-secs F] [--json] [--smoke]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let scratch = std::env::temp_dir().join(format!("lbr-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap_or_else(|e| fail(format!("scratch dir: {e}")));

    if smoke {
        run_smoke(&scratch, seed, binary);
        let _ = std::fs::remove_dir_all(&scratch);
        return;
    }

    let inputs = generate_inputs(&scratch, jobs, classes, seed);

    let warm_jobs = jobs * warm_repeat.max(1);

    let mut runs = Vec::new();
    for &workers in &worker_counts {
        eprintln!("loadgen: {jobs} jobs ({warm_jobs} warm) on {workers} workers …");
        let state = scratch.join(format!("state-{workers}"));
        let mut config = DaemonConfig::new(&state, workers);
        // Closed-loop rounds submit everything up front; size the queue so
        // the rounds measure throughput, not admission control (the sweep
        // and --smoke exercise shedding).
        config.queue_capacity = (warm_jobs + 16).max(64);
        let daemon = Daemon::start(config).unwrap_or_else(|e| fail(format!("start daemon: {e}")));
        let addr = daemon.local_addr().to_string();
        let client = Client::connect(addr.clone());
        let handle = std::thread::spawn(move || daemon.run());
        if !client.wait_ready(Duration::from_secs(5)) {
            fail("daemon did not come up".to_owned());
        }

        let out_dir = scratch.join(format!("out-{workers}"));
        std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(format!("out dir: {e}")));
        let cold_specs: Vec<Json> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                submit_request(
                    input,
                    Some(out_dir.join(format!("cold-{i}.lbrc"))),
                    format!("cold-{i}"),
                )
            })
            .collect();
        let cold = run_round(&client, &addr, binary, cold_specs);
        let warm_specs: Vec<Json> = (0..warm_jobs)
            .map(|k| submit_request(&inputs[k % inputs.len()], None, format!("warm-{k}")))
            .collect();
        let warm = run_round(&client, &addr, binary, warm_specs);
        if !(cold.all_done && warm.all_done) {
            fail(format!("{workers}-worker round left jobs unfinished"));
        }
        eprintln!(
            "  cold: {:6.2} jobs/s  p50 {:7.1} ms  p95 {:7.1} ms  p99 {:7.1} ms  hit rate {:4.1}%",
            cold.jobs_per_sec,
            cold.p50_ms,
            cold.p95_ms,
            cold.p99_ms,
            100.0 * cold.hit_rate
        );
        eprintln!(
            "  warm: {:6.2} jobs/s  p50 {:7.1} ms  p95 {:7.1} ms  p99 {:7.1} ms  hit rate {:4.1}%",
            warm.jobs_per_sec,
            warm.p50_ms,
            warm.p95_ms,
            warm.p99_ms,
            100.0 * warm.hit_rate
        );

        let mut sweeps = Vec::new();
        for &rate in &rates {
            let offered = ((rate * sweep_secs) as usize).clamp(10, 600);
            let (stats, missing_retry, not_done) = run_sweep(
                &addr,
                binary,
                &inputs,
                rate,
                offered,
                &format!("sweep-{rate}"),
            );
            if missing_retry > 0 {
                fail(format!(
                    "{missing_retry} shed responses missing retry_after_ms"
                ));
            }
            if not_done > 0 {
                fail(format!("{not_done} sweep jobs did not finish done"));
            }
            eprintln!(
                "  sweep @{:6.1}/s: achieved {:6.2}/s  shed {:3}  p50 {:7.1} ms  p95 {:7.1} ms  p99 {:7.1} ms",
                stats.rate_jps, stats.achieved_jps, stats.shed, stats.p50_ms, stats.p95_ms, stats.p99_ms
            );
            sweeps.push(sweep_doc(&stats));
        }

        runs.push(Json::obj([
            ("workers", Json::count(workers as u64)),
            ("jobs", Json::count(jobs as u64)),
            ("warm_jobs", Json::count(warm_jobs as u64)),
            ("cold", round_doc(&cold)),
            ("warm", round_doc(&warm)),
            ("sweep", Json::Arr(sweeps)),
        ]));

        client
            .shutdown()
            .unwrap_or_else(|e| fail(format!("shutdown: {e}")));
        handle
            .join()
            .expect("daemon thread")
            .unwrap_or_else(|e| fail(format!("daemon: {e}")));
    }

    let doc = Json::obj([
        ("benchmark", Json::str("service-loadgen")),
        ("job_classes", Json::count(classes as u64)),
        ("warm_repeat", Json::count(warm_repeat as u64)),
        ("framing", Json::str(if binary { "binary" } else { "json" })),
        ("runs", Json::Arr(runs)),
    ]);
    atomic_write_str(Path::new(&out), &doc.render())
        .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    eprintln!("wrote {out}");
    let _ = std::fs::remove_dir_all(&scratch);
}
