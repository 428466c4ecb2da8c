//! The `service-mixed` workload: the real `lbr-serviced` binary, run as a
//! separate process and driven over its client API with real reductions.
//!
//! Set-up writes seeded containers (12-class classfile programs and
//! default-size stackvm modules, each with its own strategy) and starts
//! the daemon with two workers and the result store off. One fixed job
//! list then runs in two phases:
//!
//! - open loop: one connection submits at a fixed rate, and latency runs
//!   from each job's scheduled send to its terminal event;
//! - closed loop: two connections each keep a fixed number of jobs in
//!   flight.
//!
//! About half of the arrivals resubmit an earlier container, so
//! persistent-cache reads run beside cache writes and saves. After the
//! load, one container is submitted alone, twice, to show the first run
//! missing the cache and the repeat hitting it. Every result must then
//! match an in-process reduction of the same container; the traced run
//! makes those references through the timing wrappers and reports their
//! per-layer split.
//!
//! Latencies are scaled to reference speed with the yardstick, run after
//! each open-loop submit (see `clock`). Throughput counts closed-loop jobs
//! per second of the daemon's CPU time per worker, scaled the same way;
//! the wall-clock rate is a per-layer metric. The `<s>_*` metrics describe
//! the run's input set as on the in-process workloads, with the time taken
//! from the reference reductions.

use crate::clock::{process_cpu_secs, slowdown, yardstick_secs};
use crate::inproc::{self, layer_metrics, Fingerprint, Reduction, STRATEGIES};
use crate::stats::{geo_mean, median, peak_rss_mb, percentile, ratio, Metrics, Outcome};
use crate::timed::{Timed, TimedOracle};
use crate::Args;
use lbr_classfile::{read_program, write_program, Program};
use lbr_core::{Input, InputOracle};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_prng::SplitMix64;
use lbr_service::{Client, Connection, Json, Submitted};
use lbr_stackvm::{Module, StackBugSet, StackOracle};
use lbr_workload::{generate, generate_stack, StackShape, StackWorkloadConfig, WorkloadConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Daemon workers; the load generator uses at most this many threads
/// and connections too.
const WORKERS: usize = 2;
/// Open-loop arrival rate, below the daemon's capacity.
const OPEN_RATE: f64 = 10.0;
/// Share of `--seconds` the open-loop schedule spans.
const OPEN_SHARE: f64 = 2.0 / 3.0;
/// The closed-loop phase holds this many jobs per second of its share of
/// `--seconds`: about its length at the measured throughput.
const CLOSED_JOBS_PER_SEC: f64 = 20.0;
/// Jobs each closed-loop connection keeps in flight.
const CLOSED_INFLIGHT: usize = 4;
/// Completions per closed-loop throughput window.
const CLOSED_WINDOW: usize = 20;
/// Container kinds: classfile or stackvm, each with either strategy.
const KINDS: usize = 4;
/// Classes per classfile container.
const CLASSFILE_CLASSES: usize = 12;
/// Bug set the jobs preserve (decompiler `a`, lowering pass `a`).
const DECOMPILER: &str = "a";
/// How long the load may wait for outstanding jobs before giving up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// One container file the daemon reduces.
struct Container {
    path: PathBuf,
    format: &'static str,
    /// Index into [`STRATEGIES`].
    strategy: usize,
    bytes: Vec<u8>,
}

impl Container {
    fn spec(&self) -> Json {
        Json::obj([
            ("input", Json::str(self.path.display().to_string())),
            ("format", Json::str(self.format)),
            ("decompiler", Json::str(DECOMPILER)),
            ("strategy", Json::str(STRATEGIES[self.strategy].1)),
        ])
    }
}

/// The seeded job list: `jobs[j]` is the container job `j` submits; the
/// first `open` jobs are the open-loop phase. `probe` is submitted only
/// in the cache check.
struct Plan {
    containers: Vec<Container>,
    jobs: Vec<usize>,
    open: usize,
    probe: usize,
}

/// Writes a failing container of the given format, drawn from `rng`.
fn new_container(
    rng: &mut SplitMix64,
    dir: &Path,
    k: usize,
    classfile: bool,
    strategy: usize,
) -> Result<Container, String> {
    let (format, bytes) = loop {
        let seed = rng.next_u64();
        if classfile {
            let program = generate(&WorkloadConfig {
                seed,
                classes: CLASSFILE_CLASSES,
                interfaces: CLASSFILE_CLASSES / 3,
                plant: BugSet::decompiler_a().kinds().to_vec(),
                ..WorkloadConfig::default()
            });
            if DecompilerOracle::new(&program, BugSet::decompiler_a()).is_failing() {
                break ("classfile", write_program(&program));
            }
        } else {
            let module = generate_stack(&StackWorkloadConfig {
                seed,
                shape: StackShape::ALL[(seed % 3) as usize],
                plant: StackBugSet::lowering_a().kinds().to_vec(),
                ..StackWorkloadConfig::default()
            });
            if StackOracle::new(&module, StackBugSet::lowering_a()).is_failing() {
                break ("stackvm", module.to_bytes());
            }
        }
    };
    let path = dir.join(format!("c{k}.lbrc"));
    std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Container {
        path,
        format,
        strategy,
        bytes,
    })
}

/// Even jobs submit a new container, odd jobs resubmit a random earlier
/// one of the same kind. New containers cycle through the four kinds
/// (classfile or stackvm × greedy or guided), so every run holds the
/// same mix and only the contents vary with the seed.
fn plan(seed: u64, seconds: f64, dir: &Path) -> Result<Plan, String> {
    let open = (OPEN_RATE * seconds * OPEN_SHARE).round().max(1.0) as usize;
    let closed = (CLOSED_JOBS_PER_SEC * seconds * (1.0 - OPEN_SHARE))
        .round()
        .max(1.0) as usize;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5E41_CE00_0000_0001);
    let mut containers = Vec::new();
    let mut jobs = Vec::with_capacity(open + closed);
    for j in 0..open + closed {
        let k = containers.len();
        if j % 2 == 0 {
            let kind = k % KINDS;
            let classfile = kind.is_multiple_of(2);
            containers.push(new_container(&mut rng, dir, k, classfile, kind / 2)?);
            jobs.push(k);
        } else {
            let newest = k - 1;
            jobs.push(newest % KINDS + KINDS * rng.gen_range(0..=newest / KINDS));
        }
    }
    // A classfile container for the cache check, never submitted before.
    let probe = containers.len();
    containers.push(new_container(&mut rng, dir, probe, true, 0)?);
    Ok(Plan {
        containers,
        jobs,
        open,
        probe,
    })
}

/// A running daemon process; dropping it shuts the daemon down and waits
/// for the process to end.
struct Daemon {
    child: Child,
    client: Client,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(serviced: &Path, state_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(serviced)
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", serviced.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = String::new();
        let read = stdout.read_line(&mut addr);
        let daemon = Daemon {
            child,
            client: Client::connect(addr.trim()),
            _stdout: stdout,
        };
        match read {
            Ok(n) if n > 0 && daemon.client.wait_ready(Duration::from_secs(10)) => Ok(daemon),
            _ => Err("the daemon did not start".to_owned()),
        }
    }

    fn stats(&self) -> Result<Json, String> {
        self.client.stats().map_err(|e| format!("stats: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The run's scratch directory inside the checkout, removed on drop
/// together with its parent once no other run uses that.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What the load learned about one job; a shed job has no result.
#[derive(Default, Clone)]
struct JobRecord {
    result: Option<Json>,
    /// Open loop only: scheduled send → terminal event.
    latency_ms: f64,
}

/// Waits up to `timeout` for one event; a terminal event comes back as
/// `(id, result)`, any other as `None`.
fn poll_terminal(conn: &mut Connection, timeout: Duration) -> Result<Option<(u64, Json)>, String> {
    let Some(event) = conn
        .poll_event(timeout)
        .map_err(|e| format!("events: {e}"))?
    else {
        return Ok(None);
    };
    match event.str_field("event") {
        Some("terminal") => {
            let id = event.u64_field("id").ok_or("terminal event without id")?;
            let result = event.get("result").cloned().unwrap_or(Json::Null);
            Ok(Some((id, result)))
        }
        Some("error") => Err(format!("daemon error: {}", event.render())),
        _ => Ok(None),
    }
}

/// Like [`poll_terminal`], failing once `deadline` has passed.
fn next_terminal(conn: &mut Connection, deadline: Instant) -> Result<Option<(u64, Json)>, String> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err("jobs did not finish in time".to_owned());
    }
    poll_terminal(conn, left.min(Duration::from_millis(200)))
}

/// What the open-loop phase measured.
struct OpenLoop {
    records: Vec<JobRecord>,
    /// Submit round trips, ms.
    rtts: Vec<f64>,
    /// How late each submit left after its scheduled time, ms.
    lags: Vec<f64>,
    /// Per job, how much slower than the reference machine this one ran
    /// around it, from a run of the yardstick after each submit: the
    /// job's own and the two on either side.
    slowdowns: Vec<f64>,
}

/// Open-loop phase: submits `jobs` at [`OPEN_RATE`] on one connection.
fn open_loop(addr: &str, plan: &Plan, jobs: &[usize]) -> Result<OpenLoop, String> {
    let mut conn = Connection::negotiate(addr, true).map_err(|e| format!("connect: {e}"))?;
    let mut records = vec![JobRecord::default(); jobs.len()];
    let mut rtts = Vec::with_capacity(jobs.len());
    let mut lags = Vec::with_capacity(jobs.len());
    let mut yardstick = Vec::with_capacity(jobs.len());
    let mut by_id = HashMap::new();
    let start = Instant::now();
    let due: Vec<Instant> = (0..jobs.len())
        .map(|j| start + Duration::from_secs_f64(j as f64 / OPEN_RATE))
        .collect();
    let mut finish = |by_id: &mut HashMap<u64, usize>, (id, result): (u64, Json)| {
        if let Some(j) = by_id.remove(&id) {
            records[j].latency_ms = due[j].elapsed().as_secs_f64() * 1e3;
            records[j].result = Some(result);
        }
    };
    for (j, &c) in jobs.iter().enumerate() {
        loop {
            let wait = due[j].saturating_duration_since(Instant::now());
            if wait.is_zero() {
                break;
            }
            if let Some(done) = poll_terminal(&mut conn, wait)? {
                finish(&mut by_id, done);
            }
        }
        let sent = Instant::now();
        lags.push((sent - due[j]).as_secs_f64() * 1e3);
        let submitted = conn
            .try_submit(&plan.containers[c].spec(), true)
            .map_err(|e| format!("submit: {e}"))?;
        rtts.push(sent.elapsed().as_secs_f64() * 1e3);
        // A shed job gets no result, so it counts as failed.
        if let Submitted::Accepted(id) = submitted {
            by_id.insert(id, j);
        }
        // The next send is a whole arrival interval away.
        yardstick.push(yardstick_secs());
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !by_id.is_empty() {
        if let Some(done) = next_terminal(&mut conn, deadline)? {
            finish(&mut by_id, done);
        }
    }
    Ok(OpenLoop {
        records,
        rtts,
        lags,
        slowdowns: (0..yardstick.len())
            .map(|j| slowdown(&yardstick[j.saturating_sub(2)..(j + 3).min(yardstick.len())]))
            .collect(),
    })
}

/// What the closed-loop phase measured.
struct ClosedLoop {
    records: Vec<JobRecord>,
    /// Jobs per wall-clock second: the median over windows of
    /// [`CLOSED_WINDOW`] completions, so a short stall elsewhere on the
    /// machine moves it less.
    wall_jobs_per_s: f64,
    /// How much slower than the reference machine this one ran during
    /// the phase, from a run of the yardstick after each completion one
    /// connection sees.
    slowdown: f64,
}

/// Closed-loop phase: [`WORKERS`] connections, each keeping
/// [`CLOSED_INFLIGHT`] jobs in flight, share `jobs`.
fn closed_loop(addr: &str, plan: &Plan, jobs: &[usize]) -> Result<ClosedLoop, String> {
    let next = AtomicUsize::new(0);
    type Done = Vec<(usize, Json, Instant)>;
    let connection = |sample: bool| -> Result<(Done, Vec<f64>), String> {
        let mut conn = Connection::negotiate(addr, true).map_err(|e| format!("connect: {e}"))?;
        let mut by_id = HashMap::new();
        let mut done = Vec::new();
        let mut yardstick = Vec::new();
        // Submits the next unclaimed job; false once none is left.
        let submit_next =
            |conn: &mut Connection, by_id: &mut HashMap<u64, usize>| -> Result<bool, String> {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(&c) = jobs.get(j) else {
                    return Ok(false);
                };
                let submitted = conn
                    .try_submit(&plan.containers[c].spec(), true)
                    .map_err(|e| format!("submit: {e}"))?;
                if let Submitted::Accepted(id) = submitted {
                    by_id.insert(id, j);
                }
                Ok(true)
            };
        for _ in 0..CLOSED_INFLIGHT {
            if !submit_next(&mut conn, &mut by_id)? {
                break;
            }
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !by_id.is_empty() {
            if let Some((id, result)) = next_terminal(&mut conn, deadline)? {
                if let Some(j) = by_id.remove(&id) {
                    done.push((j, result, Instant::now()));
                    submit_next(&mut conn, &mut by_id)?;
                    if sample {
                        yardstick.push(yardstick_secs());
                    }
                }
            }
        }
        Ok((done, yardstick))
    };
    let start = Instant::now();
    let (mine, theirs) = std::thread::scope(|s| {
        let other = s.spawn(|| connection(false));
        let mine = connection(true);
        (
            mine,
            other
                .join()
                .expect("closed-loop connection thread panicked"),
        )
    });
    let secs = start.elapsed().as_secs_f64();
    let mut records = vec![JobRecord::default(); jobs.len()];
    let mut times = vec![start];
    let (mine, yardstick) = mine?;
    for (j, result, at) in mine.into_iter().chain(theirs?.0) {
        records[j].result = Some(result);
        times.push(at);
    }
    times.sort();
    let rates: Vec<f64> = times
        .windows(CLOSED_WINDOW + 1)
        .step_by(CLOSED_WINDOW)
        .map(|w| CLOSED_WINDOW as f64 / (w[CLOSED_WINDOW] - w[0]).as_secs_f64())
        .collect();
    let jobs_per_s = if rates.is_empty() {
        (times.len() - 1) as f64 / secs
    } else {
        median(&rates)
    };
    Ok(ClosedLoop {
        records,
        wall_jobs_per_s: jobs_per_s,
        slowdown: slowdown(&yardstick),
    })
}

/// Persistent-cache `(hits, misses)` from a stats document.
fn cache_counts(stats: &Json) -> (u64, u64) {
    let field = |k| stats.get("cache").and_then(|c| c.u64_field(k)).unwrap_or(0);
    (field("hits"), field("misses"))
}

/// A number in a stats group, e.g. `("net", "frames_in")`.
fn stat(stats: &Json, group: &str, key: &str) -> f64 {
    stats
        .get(group)
        .and_then(|g| g.f64_field(key))
        .unwrap_or(0.0)
}

/// Submits one container alone; returns its result and the cache
/// `(hits, misses)` it caused.
fn submit_alone(daemon: &Daemon, container: &Container) -> Result<(Json, u64, u64), String> {
    let (h0, m0) = cache_counts(&daemon.stats()?);
    let id = daemon
        .client
        .submit(&container.spec())
        .map_err(|e| format!("submit: {e}"))?;
    let result = daemon
        .client
        .wait_result(id)
        .map_err(|e| format!("result: {e}"))?;
    let (h1, m1) = cache_counts(&daemon.stats()?);
    Ok((result, h1 - h0, m1 - m0))
}

/// Reduces every container in-process with its strategy, from the bytes
/// the daemon read, plainly or through the timing wrappers.
fn references(plan: &Plan, traced: bool) -> Result<Vec<Reduction>, String> {
    let mut samples = Vec::with_capacity(plan.containers.len() + 1);
    let mut refs = plan
        .containers
        .iter()
        .map(|c| {
            samples.push(yardstick_secs());
            let strategy = STRATEGIES[c.strategy].1;
            Ok(if c.format == "classfile" {
                let program: Program = read_program(&c.bytes).map_err(|e| e.to_string())?;
                let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
                reduce_case(program, &oracle, strategy, traced)
            } else {
                let module = <Module as Input>::from_bytes(&c.bytes)?;
                let oracle = StackOracle::new(&module, StackBugSet::lowering_a());
                reduce_case(module, &oracle, strategy, traced)
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    samples.push(yardstick_secs());
    inproc::set_slowdowns(&mut refs, &samples);
    Ok(refs)
}

fn reduce_case<I: Input, O: InputOracle<I>>(
    input: I,
    oracle: &O,
    strategy: &str,
    traced: bool,
) -> Reduction {
    if traced {
        inproc::reduce(&Timed(input), &TimedOracle(oracle), strategy)
    } else {
        inproc::reduce(&input, oracle, strategy)
    }
}

/// Whether a job's result is a real (not replayed) reduction that matches
/// the in-process reference exactly.
fn job_ok(record: &JobRecord, reference: &Reduction) -> bool {
    let Some(result) = &record.result else {
        return false;
    };
    let fingerprint = || {
        Some(Fingerprint {
            calls: result.u64_field("predicate_calls")?,
            final_bytes: result.u64_field("final_bytes")?,
            digest: u64::from_str_radix(result.str_field("trace_digest")?, 16).ok()?,
        })
    };
    result.str_field("status") == Some("done")
        && result.bool_field("replayed") != Some(true)
        && reference.error.is_none()
        && fingerprint() == Some(reference.fp)
}

/// An open-loop job that finished.
struct Finished<'a> {
    /// Its container's first submission.
    first: bool,
    result: &'a Json,
    latency_ms: f64,
}

impl Finished<'_> {
    /// The job's reduction time, as the daemon reports it.
    fn wall_ms(&self) -> f64 {
        self.result.f64_field("wall_secs").unwrap_or(0.0) * 1e3
    }
}

/// The `service-mixed` workload.
pub fn service_mixed(args: &Args) -> Result<Outcome, String> {
    let root = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".perfbench")
        .join(format!("run-{}", std::process::id()));
    let inputs = root.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(|e| format!("create {}: {e}", inputs.display()))?;
    let workdir = WorkDir(root);
    let mut starts = 0;
    let ((plan, daemon), setup) = inproc::setup(|| {
        let plan = plan(args.seed, args.seconds, &inputs)?;
        starts += 1;
        let daemon = Daemon::start(&args.serviced, &workdir.0.join(format!("state-{starts}")))?;
        Ok((plan, daemon))
    })?;
    let state_dir = workdir.0.join(format!("state-{starts}"));
    let addr = daemon.client.addr().to_owned();

    // The load.
    let before = daemon.stats()?;
    let OpenLoop {
        records: open,
        rtts,
        lags,
        slowdowns,
    } = open_loop(&addr, &plan, &plan.jobs[..plan.open])?;
    let after_open = daemon.stats()?;
    let cache_file_bytes =
        std::fs::metadata(state_dir.join("oracle.cache")).map_or(0.0, |m| m.len() as f64);
    let cpu0 = process_cpu_secs(daemon.child.id())?;
    let ClosedLoop {
        records: closed,
        wall_jobs_per_s,
        slowdown: closed_slowdown,
    } = closed_loop(&addr, &plan, &plan.jobs[plan.open..])?;
    let daemon_cpu = process_cpu_secs(daemon.child.id())? - cpu0;
    let probe = &plan.containers[plan.probe];
    let (first, first_hits, first_misses) = submit_alone(&daemon, probe)?;
    let (repeat, repeat_hits, repeat_misses) = submit_alone(&daemon, probe)?;
    let replayed = stat(&daemon.stats()?, "jobs", "replayed");
    let rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    drop(daemon);

    // The check, after the load.
    let refs = references(&plan, false)?;
    let alone = [first, repeat].map(|result| JobRecord {
        result: Some(result),
        latency_ms: 0.0,
    });
    let checked: Vec<(usize, &JobRecord)> = plan
        .jobs
        .iter()
        .copied()
        .zip(open.iter().chain(&closed))
        .chain(alone.iter().map(|r| (plan.probe, r)))
        .collect();
    let mut failed = 0u64;
    for (c, record) in &checked {
        if !job_ok(record, &refs[*c]) {
            let got = record
                .result
                .as_ref()
                .map_or("no result".into(), Json::render);
            eprintln!("container {c}: {got} does not match {:?}", refs[*c].fp);
            failed += 1;
        }
    }
    let cache_split = first_misses > 0 && repeat_hits > 0 && repeat_misses < first_misses;
    if replayed != 0.0 || !cache_split {
        eprintln!(
            "jobs replayed: {replayed}; alone, first run {first_hits} cache hits / \
             {first_misses} misses, repeat {repeat_hits} / {repeat_misses}"
        );
    }
    let mut correct = failed == 0 && replayed == 0.0 && cache_split;

    let mut seen = vec![false; plan.containers.len()];
    let finished: Vec<Finished<'_>> = plan.jobs[..plan.open]
        .iter()
        .zip(&open)
        .filter_map(|(&c, r)| {
            let first = !std::mem::replace(&mut seen[c], true);
            Some(Finished {
                first,
                result: r.result.as_ref()?,
                latency_ms: r.latency_ms,
            })
        })
        .collect();
    let mut attempted = checked.len() as u64;
    let mut m = Metrics::default();
    if args.trace {
        let mismatches = traced_layers(&mut m, &plan, &refs)?;
        attempted += refs.len() as u64;
        failed += mismatches;
        correct &= mismatches == 0;
        let values = service_layers(
            &finished,
            &rtts,
            &lags,
            &before,
            &after_open,
            cache_file_bytes,
            wall_jobs_per_s,
        );
        for ((name, unit), value) in SERVICE_LAYERS.iter().zip(values) {
            m.push(*name, value, unit);
        }
    } else {
        m.push("setup_s", setup.wall, "s");
        m.push("peak_rss_mb", rss_mb, "MiB");
        m.push(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
        // The `<s>_*` metrics describe the run's input set, as on the
        // in-process workloads: the time from the in-process reference
        // run, calls and bytes from each container's first daemon result,
        // which the check above found equal to the reference's.
        let field = |r: &Json, key: &str| r.f64_field(key).unwrap_or(0.0);
        let mut firsts: Vec<Option<&Json>> = vec![None; plan.containers.len()];
        for (&c, r) in plan.jobs.iter().zip(open.iter().chain(&closed)) {
            firsts[c] = firsts[c].or(r.result.as_ref());
        }
        for (k, (label, _)) in STRATEGIES.iter().enumerate() {
            let secs: f64 = plan
                .containers
                .iter()
                .zip(&refs)
                .filter(|(c, _)| c.strategy == k)
                .map(|(_, r)| r.reference_secs())
                .sum();
            let results: Vec<&Json> = plan
                .containers
                .iter()
                .zip(&firsts)
                .filter(|(c, _)| c.strategy == k)
                .filter_map(|(_, r)| *r)
                .collect();
            let calls: f64 = results.iter().map(|r| field(r, "predicate_calls")).sum();
            let kept: Vec<f64> = results
                .iter()
                .map(|r| field(r, "final_bytes") / field(r, "initial_bytes").max(1.0))
                .collect();
            m.push(format!("{label}_wall_s"), secs, "s");
            m.push(format!("{label}_calls"), calls, "count");
            m.push(format!("{label}_bytes_pct"), 100.0 * geo_mean(&kept), "%");
        }
        // Latencies at reference speed; a shed or failed job misses every
        // latency limit.
        let latencies: Vec<f64> = open
            .iter()
            .zip(&slowdowns)
            .map(|(r, s)| {
                r.result
                    .as_ref()
                    .map_or(f64::INFINITY, |_| r.latency_ms / s)
            })
            .collect();
        m.push("p50_ms", percentile(&latencies, 0.50), "ms");
        m.push("p95_ms", percentile(&latencies, 0.95), "ms");
        // Closed-loop jobs per second of the daemon's CPU time per
        // worker, at reference speed.
        let completed = closed.iter().filter(|r| r.result.is_some()).count() as f64;
        let worker_secs = daemon_cpu / WORKERS as f64;
        m.push(
            "jobs_per_s",
            ratio(completed, worker_secs) * closed_slowdown,
            "1/s",
        );
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m.0,
    })
}

/// Reduces every container again through the timing wrappers, reports
/// the per-layer split per strategy, and returns how many traced
/// references differ from the plain ones.
fn traced_layers(m: &mut Metrics, plan: &Plan, refs: &[Reduction]) -> Result<u64, String> {
    let mut groups: [Vec<Reduction>; 2] = Default::default();
    let mut plain_s = [0.0; 2];
    let mut mismatches = 0;
    for ((c, plain), traced) in plan
        .containers
        .iter()
        .zip(refs)
        .zip(references(plan, true)?)
    {
        if traced.error.is_some() || traced.fp != plain.fp {
            mismatches += 1;
        }
        plain_s[c.strategy] += plain.reference_secs();
        groups[c.strategy].push(traced);
    }
    for (k, (label, _)) in STRATEGIES.iter().enumerate() {
        let traced_s: f64 = groups[k].iter().map(Reduction::reference_secs).sum();
        let overhead = 100.0 * ratio(traced_s - plain_s[k], plain_s[k]);
        layer_metrics(m, label, std::slice::from_ref(&groups[k]), overhead);
    }
    Ok(mismatches)
}

/// The service and load-generator layer metrics, in the order
/// [`service_layers`] computes them.
const SERVICE_LAYERS: [(&str, &str); 23] = [
    ("service.submit_rtt_p50_ms", "ms"),
    ("service.submit_rtt_p95_ms", "ms"),
    ("service.queue_wait_avg_ms", "ms"),
    ("service.queue_wait_max_ms", "ms"),
    ("service.job_wall_first_p50_ms", "ms"),
    ("service.job_wall_repeat_p50_ms", "ms"),
    ("service.job_wall_p95_ms", "ms"),
    ("service.p50_first_ms", "ms"),
    ("service.p50_repeat_ms", "ms"),
    ("service.delivery_avg_ms", "ms"),
    ("service.cache_hit_rate", "ratio"),
    ("service.cache_misses", "count"),
    ("service.cache_file_bytes", "bytes"),
    ("service.worker_util", "ratio"),
    ("service.shard_util_max", "ratio"),
    ("service.frames_in", "count"),
    ("service.frames_out", "count"),
    ("service.events_dropped", "count"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("service.closed_wall_jobs_per_s", "1/s"),
    ("loadgen.lag_p95_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
];

/// The open-loop phase's [`SERVICE_LAYERS`] values: client-side times,
/// per-job result fields, deltas of the daemon's `stats` across the
/// phase, and the cache file's size after it.
fn service_layers(
    finished: &[Finished<'_>],
    rtts: &[f64],
    lags: &[f64],
    before: &Json,
    after: &Json,
    cache_file_bytes: f64,
    closed_wall_jobs_per_s: f64,
) -> [f64; 23] {
    let pick = |keep: fn(&Finished<'_>) -> bool, value: fn(&Finished<'_>) -> f64| -> Vec<f64> {
        finished.iter().filter(|f| keep(f)).map(value).collect()
    };
    let walls = pick(|_| true, |f| f.wall_ms());
    let latencies = pick(|_| true, |f| f.latency_ms);
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let delta = |group, key| stat(after, group, key) - stat(before, group, key);
    let queue_wait_avg = stat(after, "queue", "avg_wait_ms");
    let (h0, m0) = cache_counts(before);
    let (h1, m1) = cache_counts(after);
    let shard_util_max = after
        .get("net")
        .and_then(|n| n.get("shards"))
        .and_then(Json::as_arr)
        .map_or(0.0, |shards| {
            shards
                .iter()
                .filter_map(|s| s.f64_field("utilization"))
                .fold(0.0, f64::max)
        });
    [
        percentile(rtts, 0.50),
        percentile(rtts, 0.95),
        queue_wait_avg,
        stat(after, "queue", "max_wait_ms"),
        median(&pick(|f| f.first, |f| f.wall_ms())),
        median(&pick(|f| !f.first, |f| f.wall_ms())),
        percentile(&walls, 0.95),
        median(&pick(|f| f.first, |f| f.latency_ms)),
        median(&pick(|f| !f.first, |f| f.latency_ms)),
        mean(&latencies) - queue_wait_avg - mean(&walls),
        ratio((h1 - h0) as f64, (h1 - h0 + m1 - m0) as f64),
        (m1 - m0) as f64,
        cache_file_bytes,
        after.f64_field("worker_utilization").unwrap_or(0.0),
        shard_util_max,
        delta("net", "frames_in"),
        delta("net", "frames_out"),
        delta("net", "events_dropped"),
        delta("queue", "shed_queue_full") + delta("queue", "shed_client_cap"),
        stat(after, "jobs", "failed") + stat(after, "jobs", "cancelled"),
        closed_wall_jobs_per_s,
        percentile(lags, 0.95),
        lags.iter().copied().fold(0.0, f64::max),
    ]
}

/// The service and load-generator layers, which the in-process workloads
/// do not cross: they read 0 there.
pub fn absent_layer_metrics(m: &mut Metrics) {
    for (name, unit) in SERVICE_LAYERS {
        m.push(name, 0.0, unit);
    }
}
