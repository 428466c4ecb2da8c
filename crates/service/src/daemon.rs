//! The reduction daemon: an event-loop TCP service running GBR jobs.
//!
//! One daemon owns a *state directory* holding everything it needs to
//! survive a crash:
//!
//! ```text
//! state/
//!   daemon.addr        the bound 127.0.0.1:port, written atomically
//!   oracle.cache       the persistent probe cache, shared by all jobs
//!   job-7.spec.json    what job 7 asked for
//!   job-7.ckpt         job 7's latest resumable GBR snapshot
//!   job-7.result.json  job 7's terminal outcome (done / failed / cancelled)
//! ```
//!
//! Every file but the cache is written via
//! [`atomic_write`]; the cache is an
//! append-only log of committed batches (see [`crate::cache`]).
//! On startup the daemon rescans the directory: specs with a result file
//! become terminal records, specs without one are re-enqueued — with a
//! checkpoint file, the job resumes mid-search instead of starting over,
//! and the cache (saved alongside checkpoints) answers the replayed
//! probes warm.
//!
//! # I/O architecture
//!
//! The connection plane is a single acceptor plus N event-loop *shards*
//! (the private `shard` and `reactor` modules): every connection is
//! non-blocking and owned by one shard, so thousands of clients cost no
//! per-connection threads. Job execution stays on a separate worker pool
//! draining the bounded priority [`JobQueue`].
//!
//! The wire protocol carries one [`Json`] document per frame in either
//! framing of [`crate::frame`] — newline-delimited JSON or length-prefixed
//! binary, interleavable per frame on one connection. Responses that
//! cannot be answered immediately (`result` with `wait`, streamed
//! progress events) are *deferred*: the handler registers the connection
//! and the completing worker pushes the encoded frame back through the
//! owning shard's mailbox — no thread ever parks on a client's behalf.
//!
//! Admission control sheds load instead of stalling it: a full queue or
//! a client over its in-flight cap gets `{"ok":false,"shed":true,
//! "retry_after_ms":…}` immediately, with the retry hint derived from
//! queue depth and the observed mean job duration.

use crate::cache::{namespace_digest, PersistentOracleCache};
use crate::checkpoint::{load_checkpoint, save_checkpoint};
use crate::frame::{encode_doc, encode_event, Framing, WireFrame, OP_DOC};
use crate::fsio::{atomic_write, atomic_write_str};
use crate::job::{JobPhase, JobSpec};
use crate::json::Json;
use crate::queue::JobQueue;
use crate::shard::{run_shard, ShardHandle, ShardMsg};
use lbr_classfile::read_program;
use lbr_core::{GbrError, Input, InputOracle};
use lbr_decompiler::{BugSet, DecompilerOracle};
use lbr_jreduce::{
    strategy_catalog, strategy_registry, PipelineError, ReductionReport, ReductionSession,
    RunOptions,
};
use lbr_stackvm::{Module as StackModule, StackBugSet, StackOracle};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Most entries one `batch` request may carry.
const MAX_BATCH: usize = 256;

/// How a daemon is configured.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory for the address file, oracle cache, and per-job state.
    pub state_dir: PathBuf,
    /// Worker threads running jobs concurrently.
    pub workers: usize,
    /// Bound of the pending-job queue; submits beyond it are shed with a
    /// `retry_after_ms` hint.
    pub queue_capacity: usize,
    /// Event-loop shards multiplexing connections.
    pub shards: usize,
    /// Connections idle longer than this are closed (connections parked
    /// on a deferred reply — `result --wait`, event streams — are exempt).
    pub idle_timeout: Duration,
    /// Largest accepted frame or line, in bytes; bigger input closes the
    /// connection after one error response.
    pub max_frame_bytes: usize,
    /// Most unfinished jobs one connection may have in flight; submits
    /// beyond it are shed with `retry_after_ms`.
    pub max_inflight_per_client: usize,
    /// Minimum spacing between checkpoint (and cache) saves of a running
    /// job. The first checkpoint of a job is always written immediately;
    /// after that, saving is throttled to this interval — a crash can
    /// lose at most this much progress, never correctness.
    pub checkpoint_interval: Duration,
    /// Replay finished jobs from the content-addressed result store:
    /// a submit whose (input bytes, oracle, strategy, cost, probe
    /// configuration) digest matches an earlier *done* job is answered
    /// with that job's stored result and reduced container instead of
    /// re-running the search. Determinism makes this sound — an identical
    /// job can only ever produce the identical result — and replayed
    /// results carry `"replayed": true`. Off by default so cache-metric
    /// semantics (probe hit counters) stay those of a real run.
    pub memoize_results: bool,
}

impl DaemonConfig {
    /// A config with `workers` threads over `state_dir` and defaults for
    /// everything else: 64 queued jobs, 2 shards, 300 s idle timeout,
    /// 1 MiB frames, 64 in-flight jobs per client, 100 ms checkpoints.
    pub fn new(state_dir: impl Into<PathBuf>, workers: usize) -> Self {
        DaemonConfig {
            state_dir: state_dir.into(),
            workers: workers.max(1),
            queue_capacity: 64,
            shards: 2,
            idle_timeout: Duration::from_secs(300),
            max_frame_bytes: 1 << 20,
            max_inflight_per_client: 64,
            checkpoint_interval: Duration::from_millis(100),
            memoize_results: false,
        }
    }
}

/// One connection endpoint a deferred reply or event stream goes back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Peer {
    shard: usize,
    conn: u64,
    framing: Framing,
}

/// Connection-plane state shared between handlers, workers, and shards.
pub(crate) struct NetState {
    shards: Vec<Arc<ShardHandle>>,
    /// Job id → connections blocked in `result --wait`.
    waiters: Mutex<HashMap<u64, Vec<Peer>>>,
    /// Job id → connections streaming progress events.
    subscribers: Mutex<HashMap<u64, Vec<Peer>>>,
    /// (shard, conn) → unfinished jobs submitted over that connection.
    clients: Mutex<HashMap<(usize, u64), u64>>,
    shed_queue_full: AtomicU64,
    shed_client_cap: AtomicU64,
    events_sent: AtomicU64,
    queue_wait_nanos: AtomicU64,
    queue_wait_count: AtomicU64,
    queue_wait_max_nanos: AtomicU64,
    /// Total nanoseconds and count of finished jobs (retry-after input).
    job_nanos: AtomicU64,
    jobs_finished: AtomicU64,
}

/// What the daemon remembers about one job, in memory.
struct JobRecord {
    spec: JobSpec,
    phase: JobPhase,
    error: Option<String>,
    predicate_calls: u64,
    /// The job continued from a checkpoint (its own earlier life).
    resumed: bool,
    /// Cooperative cancel flag, polled between probes.
    cancel: Arc<AtomicBool>,
    /// The connection the job was submitted over, for the in-flight cap;
    /// taken (once) when the job reaches a terminal phase.
    client: Option<(usize, u64)>,
}

/// Shared daemon state: everything workers, handlers, and shards touch.
pub(crate) struct ServiceState {
    pub(crate) config: DaemonConfig,
    cache: Arc<PersistentOracleCache>,
    queue: JobQueue,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Nanoseconds workers have spent inside jobs (utilization numerator).
    busy_nanos: AtomicU64,
    /// Jobs answered from the result store instead of a fresh search.
    memo_replays: AtomicU64,
    started: Instant,
    submitted: AtomicU64,
    /// The bound address, for the shutdown self-connect.
    addr: SocketAddr,
    net: NetState,
}

impl ServiceState {
    fn job_file(&self, id: u64, suffix: &str) -> PathBuf {
        self.config.state_dir.join(format!("job-{id}.{suffix}"))
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn shard(&self, id: usize) -> Arc<ShardHandle> {
        Arc::clone(&self.net.shards[id])
    }

    /// Pushes pre-encoded bytes back to a peer through its shard.
    fn deliver(&self, peer: &Peer, bytes: Vec<u8>, ends_wait: bool, droppable: bool) {
        self.net.shards[peer.shard].send(ShardMsg::Deliver {
            conn: peer.conn,
            bytes,
            ends_wait,
            droppable,
        });
    }

    /// How long a shed client should back off: roughly the time for the
    /// current backlog to drain at the observed mean job duration.
    fn retry_after_ms(&self) -> u64 {
        let finished = self.net.jobs_finished.load(Ordering::Relaxed);
        let avg_ms = (self.net.job_nanos.load(Ordering::Relaxed))
            .checked_div(finished)
            .map_or(500, |per_job| (per_job / 1_000_000).max(1));
        let depth = self.queue.depth() as u64;
        let workers = self.config.workers.max(1) as u64;
        ((depth / workers + 1) * avg_ms).clamp(25, 30_000)
    }
}

/// Why [`execute_job`] did not produce a report.
enum JobStop {
    /// The cancel hook fired: user cancel, deadline, or daemon shutdown.
    Cancelled,
    /// A real failure — bad input, non-failing oracle, pipeline error.
    Failed(String),
}

/// A started (bound and recovered, but not yet serving) daemon.
pub struct Daemon {
    state: Arc<ServiceState>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Daemon {
    /// Creates the state directory, opens the cache, recovers persisted
    /// jobs, binds an ephemeral localhost port, and publishes it in
    /// `daemon.addr`. Call [`run`](Self::run) to serve.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&config.state_dir)?;
        let cache = Arc::new(PersistentOracleCache::open(
            config.state_dir.join("oracle.cache"),
        )?);
        let queue = JobQueue::new(config.queue_capacity);
        let mut jobs = HashMap::new();
        let mut max_id = 0u64;
        let mut recovered = Vec::new();
        for entry in std::fs::read_dir(&config.state_dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let Some(id) = name
                .strip_prefix("job-")
                .and_then(|rest| rest.strip_suffix(".spec.json"))
                .and_then(|id| id.parse::<u64>().ok())
            else {
                continue;
            };
            max_id = max_id.max(id);
            let spec_path = config.state_dir.join(name.as_ref());
            let text = std::fs::read_to_string(&spec_path)?;
            let spec = Json::parse(&text)
                .and_then(|j| JobSpec::from_json(&j, id))
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: {e}", spec_path.display()),
                    )
                })?;
            let result_path = config.state_dir.join(format!("job-{id}.result.json"));
            let record = match std::fs::read_to_string(&result_path) {
                Ok(text) => {
                    // Terminal in a previous life; keep it inspectable.
                    let doc = Json::parse(&text).unwrap_or(Json::Null);
                    let phase = match doc.str_field("status") {
                        Some("failed") => JobPhase::Failed,
                        Some("cancelled") => JobPhase::Cancelled,
                        _ => JobPhase::Done,
                    };
                    JobRecord {
                        spec,
                        phase,
                        error: doc.str_field("error").map(str::to_owned),
                        predicate_calls: doc.u64_field("predicate_calls").unwrap_or(0),
                        resumed: doc.bool_field("resumed").unwrap_or(false),
                        cancel: Arc::new(AtomicBool::new(false)),
                        client: None,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // Unfinished: re-enqueue. A checkpoint file means the
                    // search resumes rather than restarts.
                    let resumed = config.state_dir.join(format!("job-{id}.ckpt")).exists();
                    recovered.push((id, spec.priority));
                    JobRecord {
                        spec,
                        phase: JobPhase::Queued,
                        error: None,
                        predicate_calls: 0,
                        resumed,
                        cancel: Arc::new(AtomicBool::new(false)),
                        client: None,
                    }
                }
                Err(e) => return Err(e),
            };
            jobs.insert(id, record);
        }
        recovered.sort_unstable(); // deterministic re-enqueue order
        for (id, priority) in recovered {
            if queue.push(id, priority).is_err() {
                let job = jobs.get_mut(&id).expect("recovered job");
                job.phase = JobPhase::Failed;
                job.error = Some("queue full during recovery".to_owned());
            }
        }
        let submitted = jobs.len() as u64;
        let shards = (0..config.shards.max(1))
            .map(|_| ShardHandle::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        atomic_write_str(&config.state_dir.join("daemon.addr"), &format!("{addr}\n"))?;
        Ok(Daemon {
            state: Arc::new(ServiceState {
                config,
                cache,
                queue,
                jobs: Mutex::new(jobs),
                next_id: AtomicU64::new(max_id + 1),
                shutdown: AtomicBool::new(false),
                busy_nanos: AtomicU64::new(0),
                memo_replays: AtomicU64::new(0),
                started: Instant::now(),
                submitted: AtomicU64::new(submitted),
                addr,
                net: NetState {
                    shards,
                    waiters: Mutex::new(HashMap::new()),
                    subscribers: Mutex::new(HashMap::new()),
                    clients: Mutex::new(HashMap::new()),
                    shed_queue_full: AtomicU64::new(0),
                    shed_client_cap: AtomicU64::new(0),
                    events_sent: AtomicU64::new(0),
                    queue_wait_nanos: AtomicU64::new(0),
                    queue_wait_count: AtomicU64::new(0),
                    queue_wait_max_nanos: AtomicU64::new(0),
                    job_nanos: AtomicU64::new(0),
                    jobs_finished: AtomicU64::new(0),
                },
            }),
            listener,
            addr,
        })
    }

    /// The bound localhost address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `shutdown` request: the acceptor hands connections
    /// to event-loop shards round-robin, workers drain the job queue.
    /// Running jobs are asked to cancel (they checkpoint first, so a
    /// restart resumes them), the cache is saved, and `daemon.addr` is
    /// removed.
    pub fn run(self) -> io::Result<()> {
        let state = &self.state;
        std::thread::scope(|scope| {
            for shard_id in 0..state.net.shards.len() {
                let state = Arc::clone(state);
                std::thread::Builder::new()
                    .name(format!("lbr-shard-{shard_id}"))
                    .spawn_scoped(scope, move || run_shard(&state, shard_id))
                    .expect("spawn shard");
            }
            for worker in 0..state.config.workers {
                let state = Arc::clone(state);
                std::thread::Builder::new()
                    .name(format!("lbr-worker-{worker}"))
                    .spawn_scoped(scope, move || {
                        while let Some((id, waited)) = state.queue.pop() {
                            let nanos = waited.as_nanos() as u64;
                            state
                                .net
                                .queue_wait_nanos
                                .fetch_add(nanos, Ordering::Relaxed);
                            state.net.queue_wait_count.fetch_add(1, Ordering::Relaxed);
                            state
                                .net
                                .queue_wait_max_nanos
                                .fetch_max(nanos, Ordering::Relaxed);
                            run_job(&state, id, execute_job);
                        }
                    })
                    .expect("spawn worker");
            }
            let mut next_shard = 0usize;
            for stream in self.listener.incoming() {
                if state.shutting_down() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                state.net.shards[next_shard].send(ShardMsg::Conn(stream));
                next_shard = (next_shard + 1) % state.net.shards.len();
            }
            // Wake workers; running jobs observe the shutdown flag through
            // their cancel hook and checkpoint out.
            state.queue.close();
        });
        state.cache.save()?;
        let _ = std::fs::remove_file(state.config.state_dir.join("daemon.addr"));
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Request dispatch (runs on shard threads).
// ----------------------------------------------------------------------

/// What a request handler decided, before encoding.
struct Handled {
    /// The immediate response, if any; `None` means the reply is
    /// deferred and will arrive through the shard mailbox.
    response: Option<Json>,
    /// Deferred replies this request registered on the connection.
    defer: u32,
}

impl Handled {
    fn reply(doc: Json) -> Handled {
        Handled {
            response: Some(doc),
            defer: 0,
        }
    }

    fn deferred() -> Handled {
        Handled {
            response: None,
            defer: 1,
        }
    }
}

/// What the shard should do with one decoded frame.
pub(crate) struct Outcome {
    /// Encoded response bytes to queue on the connection, if any.
    pub reply: Option<Vec<u8>>,
    /// Deferred replies registered on the connection by this frame.
    pub defer: u32,
}

/// Handles one frame from connection `conn` of shard `shard`: decodes the
/// request, runs the handler, encodes the response in the frame's own
/// framing.
pub(crate) fn dispatch_frame(
    state: &ServiceState,
    shard: usize,
    conn: u64,
    frame: WireFrame,
) -> Outcome {
    let framing = frame.framing();
    let request = match frame {
        WireFrame::JsonLine(line) => match Json::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                return Outcome {
                    reply: Some(encode_doc(
                        framing,
                        &error_response(&format!("bad request: {e}")),
                    )),
                    defer: 0,
                }
            }
        },
        WireFrame::Binary { opcode, doc } if opcode == OP_DOC => doc,
        WireFrame::Binary { opcode, .. } => {
            return Outcome {
                reply: Some(encode_doc(
                    framing,
                    &error_response(&format!("bad request: unexpected opcode {opcode:#04x}")),
                )),
                defer: 0,
            }
        }
    };
    let ctx = ReqCtx {
        shard,
        conn,
        framing,
    };
    let handled = handle_request(state, &request, &ctx);
    Outcome {
        reply: handled.response.map(|doc| encode_doc(framing, &doc)),
        defer: handled.defer,
    }
}

/// Where a request came from, for deferred replies and fairness caps.
#[derive(Clone, Copy)]
struct ReqCtx {
    shard: usize,
    conn: u64,
    framing: Framing,
}

impl ReqCtx {
    fn peer(&self) -> Peer {
        Peer {
            shard: self.shard,
            conn: self.conn,
            framing: self.framing,
        }
    }
}

pub(crate) fn error_response(message: &str) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message))])
}

fn ok_response<const N: usize>(fields: [(&str, Json); N]) -> Json {
    let mut doc = vec![("ok".to_owned(), Json::Bool(true))];
    doc.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(doc.into_iter().collect())
}

fn handle_request(state: &ServiceState, request: &Json, ctx: &ReqCtx) -> Handled {
    match request.str_field("op") {
        Some("ping") => Handled::reply(ok_response([])),
        Some("hello") => Handled::reply(handle_hello(state)),
        Some("submit") => handle_submit(state, request, ctx),
        Some("batch") => handle_batch(state, request, ctx),
        Some("status") => Handled::reply(handle_status(state, request)),
        Some("result") => handle_result(state, request, ctx),
        Some("cancel") => Handled::reply(handle_cancel(state, request)),
        Some("stats") => Handled::reply(handle_stats(state)),
        Some("shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            state.queue.close();
            drain_deferred_on_shutdown(state);
            // Unblock the accept loop so `run` can wind down.
            let _ = TcpStream::connect(state.addr);
            Handled::reply(ok_response([]))
        }
        Some(other) => Handled::reply(error_response(&format!("unknown op {other:?}"))),
        None => Handled::reply(error_response("request has no \"op\"")),
    }
}

/// Capability negotiation: what this daemon speaks beyond the v1
/// line-JSON protocol. Old daemons answer `hello` with an unknown-op
/// error, which clients treat as "v1, JSON only".
fn handle_hello(state: &ServiceState) -> Json {
    ok_response([
        ("proto", Json::str("lbr/2")),
        (
            "framings",
            Json::Arr(vec![Json::str("json"), Json::str("binary")]),
        ),
        ("batch", Json::Bool(true)),
        ("events", Json::Bool(true)),
        (
            "max_frame_bytes",
            Json::count(state.config.max_frame_bytes as u64),
        ),
        (
            "max_inflight_per_client",
            Json::count(state.config.max_inflight_per_client as u64),
        ),
    ])
}

/// A load-shed rejection: not a protocol error, an explicit "come back
/// in `retry_after_ms`".
fn shed_response(state: &ServiceState, message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
        ("shed", Json::Bool(true)),
        ("retry_after_ms", Json::count(state.retry_after_ms())),
    ])
}

fn handle_submit(state: &ServiceState, request: &Json, ctx: &ReqCtx) -> Handled {
    if state.shutting_down() {
        return Handled::reply(error_response("daemon is shutting down"));
    }
    let key = (ctx.shard, ctx.conn);
    let over_cap = {
        let clients = state.net.clients.lock().expect("clients lock");
        clients.get(&key).copied().unwrap_or(0) >= state.config.max_inflight_per_client as u64
    };
    if over_cap {
        state.net.shed_client_cap.fetch_add(1, Ordering::Relaxed);
        return Handled::reply(shed_response(state, "client in-flight cap reached"));
    }
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    let spec = match JobSpec::from_json(request, id) {
        Ok(mut spec) => {
            spec.id = id;
            spec
        }
        Err(e) => return Handled::reply(error_response(&e)),
    };
    if let Err(e) = atomic_write_str(&state.job_file(id, "spec.json"), &spec.to_json().render()) {
        return Handled::reply(error_response(&format!("cannot persist spec: {e}")));
    }
    let subscribe = request.bool_field("events").unwrap_or(false);
    let priority = spec.priority;
    state.jobs.lock().expect("jobs lock").insert(
        id,
        JobRecord {
            spec,
            phase: JobPhase::Queued,
            error: None,
            predicate_calls: 0,
            resumed: false,
            cancel: Arc::new(AtomicBool::new(false)),
            client: Some(key),
        },
    );
    if subscribe {
        state
            .net
            .subscribers
            .lock()
            .expect("subscribers lock")
            .entry(id)
            .or_default()
            .push(ctx.peer());
    }
    if state.queue.push(id, priority).is_err() {
        state.jobs.lock().expect("jobs lock").remove(&id);
        let _ = std::fs::remove_file(state.job_file(id, "spec.json"));
        if subscribe {
            state
                .net
                .subscribers
                .lock()
                .expect("subscribers lock")
                .remove(&id);
        }
        state.net.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        return Handled::reply(shed_response(state, "queue full"));
    }
    *state
        .net
        .clients
        .lock()
        .expect("clients lock")
        .entry(key)
        .or_insert(0) += 1;
    state.submitted.fetch_add(1, Ordering::Relaxed);
    Handled {
        response: Some(ok_response([("id", Json::count(id))])),
        defer: u32::from(subscribe),
    }
}

/// Several requests in one frame, answered positionally in one response.
/// Identical `submit` entries coalesce to a single job — the duplicate
/// gets the same id back without a second run (the same idea as the
/// probe cache, lifted to whole jobs).
fn handle_batch(state: &ServiceState, request: &Json, ctx: &ReqCtx) -> Handled {
    let Some(Json::Arr(entries)) = request.get("requests") else {
        return Handled::reply(error_response("batch needs a \"requests\" array"));
    };
    if entries.len() > MAX_BATCH {
        return Handled::reply(error_response(&format!(
            "batch too large (max {MAX_BATCH} requests)"
        )));
    }
    let mut responses = Vec::with_capacity(entries.len());
    let mut defer = 0u32;
    let mut coalesced: HashMap<String, u64> = HashMap::new();
    for entry in entries {
        let response = match entry.str_field("op") {
            Some("submit") => {
                let spec_key = entry.render();
                if let Some(&id) = coalesced.get(&spec_key) {
                    ok_response([("id", Json::count(id)), ("coalesced", Json::Bool(true))])
                } else {
                    let handled = handle_submit(state, entry, ctx);
                    defer += handled.defer;
                    let response = handled
                        .response
                        .unwrap_or_else(|| error_response("submit produced no response"));
                    if response.bool_field("ok") == Some(true) {
                        if let Some(id) = response.u64_field("id") {
                            coalesced.insert(spec_key, id);
                        }
                    }
                    response
                }
            }
            Some("batch") => error_response("batch cannot nest"),
            Some("result") if entry.bool_field("wait").unwrap_or(false) => {
                error_response("result with \"wait\" is not allowed in a batch")
            }
            _ => {
                let handled = handle_request(state, entry, ctx);
                defer += handled.defer;
                handled
                    .response
                    .unwrap_or_else(|| error_response("request deferred inside a batch"))
            }
        };
        responses.push(response);
    }
    Handled {
        response: Some(ok_response([("responses", Json::Arr(responses))])),
        defer,
    }
}

fn handle_status(state: &ServiceState, request: &Json) -> Json {
    let Some(id) = request.u64_field("id") else {
        return error_response("status needs an \"id\"");
    };
    let jobs = state.jobs.lock().expect("jobs lock");
    match jobs.get(&id) {
        Some(job) => {
            let mut doc = vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("id".to_owned(), Json::count(id)),
                ("phase".to_owned(), Json::str(job.phase.name())),
                ("resumed".to_owned(), Json::Bool(job.resumed)),
            ];
            if let Some(e) = &job.error {
                doc.push(("error".to_owned(), Json::str(e)));
            }
            Json::Obj(doc.into_iter().collect())
        }
        None => error_response(&format!("no such job {id}")),
    }
}

/// The terminal result of `id` as a response document (file-backed, so
/// it survives restarts).
fn result_payload(state: &ServiceState, id: u64) -> Json {
    match std::fs::read_to_string(state.job_file(id, "result.json")) {
        Ok(text) => match Json::parse(&text) {
            Ok(doc) => ok_response([("result", doc)]),
            Err(e) => error_response(&format!("corrupt result file: {e}")),
        },
        Err(e) => error_response(&format!("cannot read result: {e}")),
    }
}

/// `result`: immediate if terminal; with `"wait": true` the connection is
/// parked as a *waiter* — no thread sleeps, the completing worker pushes
/// the encoded response through the owning shard's mailbox.
fn handle_result(state: &ServiceState, request: &Json, ctx: &ReqCtx) -> Handled {
    let Some(id) = request.u64_field("id") else {
        return Handled::reply(error_response("result needs an \"id\""));
    };
    let wait = request.bool_field("wait").unwrap_or(false);
    let phase = {
        let jobs = state.jobs.lock().expect("jobs lock");
        match jobs.get(&id) {
            Some(job) => job.phase,
            None => return Handled::reply(error_response(&format!("no such job {id}"))),
        }
    };
    if phase.is_terminal() {
        return Handled::reply(result_payload(state, id));
    }
    if !wait {
        return Handled::reply(error_response(&format!("job {id} is {}", phase.name())));
    }
    if state.shutting_down() {
        return Handled::reply(error_response("daemon is shutting down"));
    }
    let me = ctx.peer();
    state
        .net
        .waiters
        .lock()
        .expect("waiters lock")
        .entry(id)
        .or_default()
        .push(me);
    // Close the race with a completion that drained the waiter list
    // between our phase check and our registration: if the job is
    // terminal *now*, either the completion saw us (it owns the reply —
    // we just stay deferred) or it did not (our entry is still
    // registered — we remove it and reply ourselves).
    let phase = state
        .jobs
        .lock()
        .expect("jobs lock")
        .get(&id)
        .map(|job| job.phase);
    if phase.is_some_and(|p| p.is_terminal()) {
        let mut waiters = state.net.waiters.lock().expect("waiters lock");
        if let Some(list) = waiters.get_mut(&id) {
            if let Some(at) = list.iter().position(|p| *p == me) {
                list.remove(at);
                if list.is_empty() {
                    waiters.remove(&id);
                }
                drop(waiters);
                return Handled::reply(result_payload(state, id));
            }
        }
    }
    Handled::deferred()
}

fn handle_cancel(state: &ServiceState, request: &Json) -> Json {
    let Some(id) = request.u64_field("id") else {
        return error_response("cancel needs an \"id\"");
    };
    let queued_doc = {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        match jobs.get_mut(&id) {
            Some(job) if job.phase.is_terminal() => {
                return error_response(&format!("job {id} already {}", job.phase.name()))
            }
            Some(job) if job.phase == JobPhase::Queued => {
                // Finalize below; a worker that pops the id concurrently
                // sees the cancel flag and finalizes identically (the
                // `client` take in `notify_terminal` keeps the in-flight
                // accounting single-shot either way).
                job.cancel.store(true, Ordering::SeqCst);
                Some(terminal_result_doc(
                    id,
                    "cancelled",
                    Some("cancelled while queued"),
                ))
            }
            Some(job) => {
                job.cancel.store(true, Ordering::SeqCst);
                None
            }
            None => return error_response(&format!("no such job {id}")),
        }
    };
    if let Some(doc) = queued_doc {
        let _ = atomic_write_str(&state.job_file(id, "result.json"), &doc.render());
        {
            let mut jobs = state.jobs.lock().expect("jobs lock");
            if let Some(job) = jobs.get_mut(&id) {
                if !job.phase.is_terminal() {
                    job.phase = JobPhase::Cancelled;
                    job.error = Some("cancelled while queued".to_owned());
                }
            }
        }
        notify_terminal(state, id, &doc);
    }
    ok_response([("id", Json::count(id))])
}

fn handle_stats(state: &ServiceState) -> Json {
    let uptime = state.started.elapsed().as_secs_f64();
    let busy = state.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
    let utilization = if uptime > 0.0 {
        (busy / (uptime * state.config.workers as f64)).min(1.0)
    } else {
        0.0
    };
    let cache = state.cache.stats();
    let jobs = state.jobs.lock().expect("jobs lock");
    let mut counts = [0u64; 5];
    let mut per_job: Vec<(u64, &JobRecord)> = Vec::with_capacity(jobs.len());
    for (&id, job) in jobs.iter() {
        counts[match job.phase {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
            JobPhase::Done => 2,
            JobPhase::Failed => 3,
            JobPhase::Cancelled => 4,
        }] += 1;
        per_job.push((id, job));
    }
    per_job.sort_unstable_by_key(|(id, _)| *id);
    let per_job = Json::Arr(
        per_job
            .into_iter()
            .map(|(id, job)| {
                Json::obj([
                    ("id", Json::count(id)),
                    ("phase", Json::str(job.phase.name())),
                    ("predicate_calls", Json::count(job.predicate_calls)),
                    ("resumed", Json::Bool(job.resumed)),
                ])
            })
            .collect(),
    );
    drop(jobs);
    let wait_count = state.net.queue_wait_count.load(Ordering::Relaxed);
    let avg_wait_ms = if wait_count == 0 {
        0.0
    } else {
        state.net.queue_wait_nanos.load(Ordering::Relaxed) as f64 / wait_count as f64 / 1e6
    };
    let max_wait_ms = state.net.queue_wait_max_nanos.load(Ordering::Relaxed) as f64 / 1e6;
    let shards = Json::Arr(
        state
            .net
            .shards
            .iter()
            .map(|s| {
                let shard_busy = s.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                Json::obj([
                    (
                        "connections",
                        Json::count(s.open_conns.load(Ordering::Relaxed)),
                    ),
                    (
                        "utilization",
                        Json::Num(if uptime > 0.0 {
                            (shard_busy / uptime).min(1.0)
                        } else {
                            0.0
                        }),
                    ),
                ])
            })
            .collect(),
    );
    let sum = |f: fn(&ShardHandle) -> &AtomicU64| {
        state
            .net
            .shards
            .iter()
            .map(|s| f(s).load(Ordering::Relaxed))
            .sum::<u64>()
    };
    ok_response([
        ("uptime_secs", Json::Num(uptime)),
        ("workers", Json::count(state.config.workers as u64)),
        ("queue_depth", Json::count(state.queue.depth() as u64)),
        ("worker_utilization", Json::Num(utilization)),
        (
            "jobs",
            Json::obj([
                (
                    "submitted",
                    Json::count(state.submitted.load(Ordering::Relaxed)),
                ),
                ("queued", Json::count(counts[0])),
                ("running", Json::count(counts[1])),
                ("done", Json::count(counts[2])),
                ("failed", Json::count(counts[3])),
                ("cancelled", Json::count(counts[4])),
                (
                    "replayed",
                    Json::count(state.memo_replays.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "queue",
            Json::obj([
                ("depth", Json::count(state.queue.depth() as u64)),
                ("capacity", Json::count(state.queue.capacity() as u64)),
                ("avg_wait_ms", Json::Num(avg_wait_ms)),
                ("max_wait_ms", Json::Num(max_wait_ms)),
                (
                    "shed_queue_full",
                    Json::count(state.net.shed_queue_full.load(Ordering::Relaxed)),
                ),
                (
                    "shed_client_cap",
                    Json::count(state.net.shed_client_cap.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "net",
            Json::obj([
                ("open_connections", Json::count(sum(|s| &s.open_conns))),
                ("frames_in", Json::count(sum(|s| &s.frames_in))),
                ("frames_out", Json::count(sum(|s| &s.frames_out))),
                (
                    "events_sent",
                    Json::count(state.net.events_sent.load(Ordering::Relaxed)),
                ),
                ("events_dropped", Json::count(sum(|s| &s.events_dropped))),
                ("closed_idle", Json::count(sum(|s| &s.closed_idle))),
                ("closed_protocol", Json::count(sum(|s| &s.closed_protocol))),
                ("shards", shards),
            ]),
        ),
        (
            "strategies",
            // Enumerated from the strategy registry — the same single
            // source of truth the pipeline dispatches on, so clients
            // never hardcode strategy strings.
            Json::Arr(
                strategy_catalog()
                    .into_iter()
                    .map(|(name, caps)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("resumable", Json::Bool(caps.resumable)),
                            ("speculative", Json::Bool(caps.speculative)),
                            ("per_error", Json::Bool(caps.per_error)),
                            ("uses_model", Json::Bool(caps.uses_model)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cache",
            // The counter names come from the one shared `CacheStats`
            // serialization, so the daemon can never drift from the CSV
            // and JSON frontends.
            Json::Obj(
                cache
                    .fields()
                    .iter()
                    .map(|&(k, v)| (k.to_owned(), Json::count(v)))
                    .chain([
                        ("hit_rate".to_owned(), Json::Num(cache.hit_rate())),
                        ("saves".to_owned(), Json::count(state.cache.saves())),
                        (
                            "appended_bytes".to_owned(),
                            Json::count(state.cache.appended_bytes()),
                        ),
                    ])
                    .collect(),
            ),
        ),
        ("per_job", per_job),
    ])
}

// ----------------------------------------------------------------------
// Deferred-reply plumbing (runs on worker threads).
// ----------------------------------------------------------------------

/// Fans a job's terminal outcome out to every parked `result --wait`
/// and event subscriber, and releases the submitter's in-flight slot.
/// Must run *after* the result file is written and the in-memory phase is
/// terminal. Idempotent: a second call finds nothing left to drain.
fn notify_terminal(state: &ServiceState, id: u64, doc: &Json) {
    let waiters = state
        .net
        .waiters
        .lock()
        .expect("waiters lock")
        .remove(&id)
        .unwrap_or_default();
    for peer in waiters {
        let response = ok_response([("result", doc.clone())]);
        state.deliver(&peer, encode_doc(peer.framing, &response), true, false);
    }
    let subscribers = state
        .net
        .subscribers
        .lock()
        .expect("subscribers lock")
        .remove(&id)
        .unwrap_or_default();
    if !subscribers.is_empty() {
        let event = Json::obj([
            ("event", Json::str("terminal")),
            ("id", Json::count(id)),
            ("result", doc.clone()),
        ]);
        for peer in &subscribers {
            state.deliver(peer, encode_event(peer.framing, &event), true, false);
        }
        state
            .net
            .events_sent
            .fetch_add(subscribers.len() as u64, Ordering::Relaxed);
    }
    let client = state
        .jobs
        .lock()
        .expect("jobs lock")
        .get_mut(&id)
        .and_then(|job| job.client.take());
    if let Some(key) = client {
        let mut clients = state.net.clients.lock().expect("clients lock");
        if let Some(count) = clients.get_mut(&key) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                clients.remove(&key);
            }
        }
    }
}

/// Streams one non-terminal event to a job's subscribers (dropped, not
/// queued, for peers that are not keeping up).
fn publish_event(state: &ServiceState, id: u64, event: &Json) {
    let peers: Vec<Peer> = match state
        .net
        .subscribers
        .lock()
        .expect("subscribers lock")
        .get(&id)
    {
        Some(list) => list.clone(),
        None => return,
    };
    for peer in &peers {
        state.deliver(peer, encode_event(peer.framing, event), false, true);
    }
    state
        .net
        .events_sent
        .fetch_add(peers.len() as u64, Ordering::Relaxed);
}

fn publish_progress(state: &ServiceState, id: u64, ck: &lbr_core::GbrCheckpoint) {
    let event = Json::obj([
        ("event", Json::str("progress")),
        ("id", Json::count(id)),
        ("iterations", Json::count(ck.iterations as u64)),
        ("search_space", Json::count(ck.search_space.len() as u64)),
        (
            "best",
            ck.best
                .as_ref()
                .map_or(Json::Null, |b| Json::count(b.len() as u64)),
        ),
    ]);
    publish_event(state, id, &event);
}

/// On shutdown, every parked waiter gets an error response and every
/// subscriber an error event — nothing is left hanging on a connection
/// the shards are about to drop.
fn drain_deferred_on_shutdown(state: &ServiceState) {
    let waiters: Vec<Peer> = state
        .net
        .waiters
        .lock()
        .expect("waiters lock")
        .drain()
        .flat_map(|(_, peers)| peers)
        .collect();
    let doc = error_response("daemon is shutting down");
    for peer in waiters {
        state.deliver(&peer, encode_doc(peer.framing, &doc), true, false);
    }
    let subscribers: Vec<(u64, Vec<Peer>)> = state
        .net
        .subscribers
        .lock()
        .expect("subscribers lock")
        .drain()
        .collect();
    for (id, peers) in subscribers {
        let event = Json::obj([
            ("event", Json::str("error")),
            ("id", Json::count(id)),
            ("error", Json::str("daemon is shutting down")),
        ]);
        for peer in peers {
            state.deliver(&peer, encode_event(peer.framing, &event), true, false);
        }
    }
    for shard in &state.net.shards {
        shard.wake();
    }
}

// ----------------------------------------------------------------------
// Job execution (runs on worker threads).
// ----------------------------------------------------------------------

/// What a job runs: [`execute_job`], except in tests of the worker loop.
type Execute = fn(
    &ServiceState,
    &JobSpec,
    &AtomicBool,
    Instant,
) -> Result<(ReductionReport<Vec<u8>>, bool), JobStop>;

/// A worker picked job `id` off the queue: run it through `execute` and
/// persist the outcome. A panic inside the reduction fails the job like
/// any other error, so the worker lives on to take the next one.
fn run_job(state: &ServiceState, id: u64, execute: Execute) {
    let (spec, cancel) = {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        let Some(job) = jobs.get_mut(&id) else { return };
        if job.phase != JobPhase::Queued {
            return; // cancelled-while-queued jobs are finalized elsewhere
        }
        if job.cancel.load(Ordering::SeqCst) {
            let doc = terminal_result_doc(id, "cancelled", Some("cancelled while queued"));
            drop(jobs);
            let _ = atomic_write_str(&state.job_file(id, "result.json"), &doc.render());
            let mut jobs = state.jobs.lock().expect("jobs lock");
            if let Some(job) = jobs.get_mut(&id) {
                job.phase = JobPhase::Cancelled;
                job.error = Some("cancelled while queued".to_owned());
            }
            drop(jobs);
            notify_terminal(state, id, &doc);
            return;
        }
        job.phase = JobPhase::Running;
        (job.spec.clone(), Arc::clone(&job.cancel))
    };
    if state.shutting_down() {
        // Leave it Queued on disk; the next daemon re-enqueues it.
        let mut jobs = state.jobs.lock().expect("jobs lock");
        if let Some(job) = jobs.get_mut(&id) {
            job.phase = JobPhase::Queued;
        }
        return;
    }
    publish_event(
        state,
        id,
        &Json::obj([("event", Json::str("running")), ("id", Json::count(id))]),
    );
    let started = Instant::now();
    let memo = state
        .config
        .memoize_results
        .then(|| std::fs::read(&spec.input).ok())
        .flatten()
        .map(|bytes| job_memo_digest(&spec, &bytes));
    if let Some(digest) = memo {
        if let Some(doc) = try_replay(state, &spec, digest, started) {
            let elapsed = started.elapsed().as_nanos() as u64;
            state.busy_nanos.fetch_add(elapsed, Ordering::Relaxed);
            state.memo_replays.fetch_add(1, Ordering::Relaxed);
            state.net.job_nanos.fetch_add(elapsed, Ordering::Relaxed);
            state.net.jobs_finished.fetch_add(1, Ordering::Relaxed);
            let _ = atomic_write_str(&state.job_file(id, "result.json"), &doc.render());
            {
                let mut jobs = state.jobs.lock().expect("jobs lock");
                if let Some(job) = jobs.get_mut(&id) {
                    job.phase = JobPhase::Done;
                    job.predicate_calls = doc.u64_field("predicate_calls").unwrap_or(0);
                }
            }
            notify_terminal(state, id, &doc);
            return;
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(state, &spec, &cancel, started)))
        .unwrap_or_else(|payload| {
            let what = (payload.downcast_ref::<&str>().copied())
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Err(JobStop::Failed(format!("reduction panicked: {what}")))
        });
    let elapsed = started.elapsed().as_nanos() as u64;
    state.busy_nanos.fetch_add(elapsed, Ordering::Relaxed);
    let _ = state.cache.save();
    match outcome {
        Ok((report, resumed)) => {
            state.net.job_nanos.fetch_add(elapsed, Ordering::Relaxed);
            state.net.jobs_finished.fetch_add(1, Ordering::Relaxed);
            let doc = success_result_doc(&spec, &report, resumed);
            if let Some(digest) = memo {
                store_memo(state, digest, &doc, &report);
            }
            let _ = atomic_write_str(&state.job_file(id, "result.json"), &doc.render());
            let _ = std::fs::remove_file(state.job_file(id, "ckpt"));
            {
                let mut jobs = state.jobs.lock().expect("jobs lock");
                if let Some(job) = jobs.get_mut(&id) {
                    job.phase = JobPhase::Done;
                    job.predicate_calls = report.predicate_calls;
                    job.resumed = resumed;
                }
            }
            notify_terminal(state, id, &doc);
        }
        Err(JobStop::Cancelled) if state.shutting_down() => {
            // Checkpointed out for shutdown: stays resumable, not terminal.
            let mut jobs = state.jobs.lock().expect("jobs lock");
            if let Some(job) = jobs.get_mut(&id) {
                job.phase = JobPhase::Queued;
            }
        }
        Err(stop) => {
            let (status, error) = match stop {
                JobStop::Cancelled => ("cancelled", "cancelled by request".to_owned()),
                JobStop::Failed(e) => ("failed", e),
                // shutdown case handled above
            };
            let doc = terminal_result_doc(id, status, Some(&error));
            let _ = atomic_write_str(&state.job_file(id, "result.json"), &doc.render());
            {
                let mut jobs = state.jobs.lock().expect("jobs lock");
                if let Some(job) = jobs.get_mut(&id) {
                    job.phase = if status == "cancelled" {
                        JobPhase::Cancelled
                    } else {
                        JobPhase::Failed
                    };
                    job.error = Some(error);
                }
            }
            notify_terminal(state, id, &doc);
        }
    }
}

/// Runs the reduction itself: parses the container per `spec.format`,
/// builds the matching oracle, and hands both to the format-generic
/// [`run_reduction`]. `Ok` carries the report (with the reduced input
/// already serialized back to container bytes) and whether the run
/// continued from a checkpoint.
fn execute_job(
    state: &ServiceState,
    spec: &JobSpec,
    cancel: &AtomicBool,
    started: Instant,
) -> Result<(ReductionReport<Vec<u8>>, bool), JobStop> {
    let bytes = std::fs::read(&spec.input)
        .map_err(|e| JobStop::Failed(format!("cannot read {}: {e}", spec.input)))?;
    match spec.format.as_str() {
        "stackvm" => {
            let module = <StackModule as Input>::from_bytes(&bytes)
                .map_err(|e| JobStop::Failed(format!("bad container: {e}")))?;
            let bugs = match spec.decompiler.as_str() {
                "a" => StackBugSet::lowering_a(),
                "b" => StackBugSet::lowering_b(),
                "c" => StackBugSet::lowering_c(),
                _ => StackBugSet::all(),
            };
            let oracle = StackOracle::new(&module, bugs);
            run_reduction(state, spec, cancel, started, &bytes, &module, &oracle)
        }
        _ => {
            let program =
                read_program(&bytes).map_err(|e| JobStop::Failed(format!("bad container: {e}")))?;
            let bugs = match spec.decompiler.as_str() {
                "a" => BugSet::decompiler_a(),
                "b" => BugSet::decompiler_b(),
                "c" => BugSet::decompiler_c(),
                _ => BugSet::all(),
            };
            let oracle = DecompilerOracle::new(&program, bugs);
            run_reduction(state, spec, cancel, started, &bytes, &program, &oracle)
        }
    }
}

/// The format-generic body of [`execute_job`]: identical caching,
/// checkpointing, and cancellation plumbing for every frontend
/// behind the [`Input`] trait.
fn run_reduction<I: Input, O: InputOracle<I>>(
    state: &ServiceState,
    spec: &JobSpec,
    cancel: &AtomicBool,
    started: Instant,
    bytes: &[u8],
    input: &I,
    oracle: &O,
) -> Result<(ReductionReport<Vec<u8>>, bool), JobStop> {
    if !oracle.is_failing() {
        return Err(JobStop::Failed(format!(
            "input does not trigger decompiler {}'s bugs — nothing to reduce",
            spec.decompiler
        )));
    }
    let options = RunOptions {
        probe_threads: spec.probe_threads,
        probe_latency_micros: spec.probe_latency_micros,
        ..RunOptions::default()
    };
    let deadline = (spec.deadline_secs > 0.0).then(|| Duration::from_secs_f64(spec.deadline_secs));
    // The registry's capability flags decide the service path: resumable
    // strategies get checkpoint/resume; every
    // job shares the persistent probe cache (strategies that have no use
    // for it — per their caps — simply ignore the hook; the trace-guided
    // mode uses it as its cross-run trace store).
    let resumable = strategy_registry::<I>()
        .get(&spec.strategy)
        .is_some_and(|s| s.caps().resumable);
    let namespace = namespace_digest(&spec.decompiler, bytes);
    let scoped = state.cache.namespaced(namespace);
    let cancel_hook = move || {
        cancel.load(Ordering::SeqCst)
            || state.shutting_down()
            || deadline.is_some_and(|d| started.elapsed() > d)
    };
    let report = if resumable {
        // The service path: persistent cache + checkpoint/resume + cancel.
        let ckpt_path = state.job_file(spec.id, "ckpt");
        // A checkpoint torn mid-write (truncated file, garbage bytes),
        // otherwise unreadable (a universe above `MAX_UNIVERSE`) or taken
        // on another input (the file at `spec.input` was replaced since)
        // is discarded and the search restarts from scratch: determinism
        // guarantees the restarted run lands on the identical result, so
        // the only thing a bad checkpoint may ever cost is time.
        let resume = match load_checkpoint(&ckpt_path, namespace) {
            Ok(resume) => resume,
            Err(_) => {
                let _ = std::fs::remove_file(&ckpt_path);
                None
            }
        };
        let resumed = resume.is_some();
        // Checkpoint (with the cache alongside) on the first iteration,
        // then at most every `checkpoint_interval`: the fsync pair is the
        // dominant per-iteration cost of warm jobs, and throttling it
        // only widens the resume window — never the result. Progress
        // events stream on every iteration regardless.
        let interval = state.config.checkpoint_interval;
        let mut last_saved: Option<Instant> = None;
        let mut checkpoint_hook = |ck: &lbr_core::GbrCheckpoint| {
            publish_progress(state, spec.id, ck);
            if last_saved.is_none_or(|at| at.elapsed() >= interval) {
                let _ = save_checkpoint(&ckpt_path, ck, namespace);
                let _ = state.cache.save();
                last_saved = Some(Instant::now());
            }
        };
        let mut run = |resume: Option<lbr_core::GbrCheckpoint>| {
            let mut session = ReductionSession::new(input, oracle)
                .strategy(spec.strategy.clone())
                .cost_per_call(spec.cost)
                .options(options)
                .cache(&scoped)
                .cancel(&cancel_hook)
                .checkpoint(&mut checkpoint_hook);
            if let Some(ck) = resume {
                session = session.resume(ck);
            }
            session.run()
        };
        let mut report = run(resume);
        // An unbound (v1) checkpoint cannot be told apart from one of this
        // input until the search checks it against the instance: one that
        // does not fit is discarded like a corrupt file.
        let mut resumed = resumed;
        if resumed
            && matches!(
                report,
                Err(PipelineError::Gbr(GbrError::CheckpointMismatch))
            )
        {
            let _ = std::fs::remove_file(&ckpt_path);
            resumed = false;
            report = run(None);
        }
        (report.map_err(map_pipeline_error)?, resumed)
    } else {
        // Non-resumable strategies run uncheckpointed, but still share
        // the persistent cache and honor cancellation where their caps
        // wire it through.
        let report = ReductionSession::new(input, oracle)
            .strategy(spec.strategy.clone())
            .cost_per_call(spec.cost)
            .options(options)
            .cache(&scoped)
            .cancel(&cancel_hook)
            .run()
            .map_err(map_pipeline_error)?;
        (report, false)
    };
    let (report, resumed) = report;
    let report = report.map_reduced(|reduced| reduced.to_bytes());
    if let Some(out) = &spec.output {
        atomic_write(Path::new(out), &report.reduced)
            .map_err(|e| JobStop::Failed(format!("cannot write {out}: {e}")))?;
    }
    Ok((report, resumed))
}

fn map_pipeline_error(e: PipelineError) -> JobStop {
    match e {
        PipelineError::Gbr(GbrError::Cancelled) => JobStop::Cancelled,
        other => JobStop::Failed(other.to_string()),
    }
}

/// The result document of a successful job. The `trace_digest` is the
/// hex-rendered [`ReductionTrace::digest`](lbr_core::ReductionTrace) —
/// comparing it against an in-process run proves the daemon produced a
/// bit-identical reduction (JSON numbers cannot carry a full u64 exactly,
/// hence the string).
/// The content address of a job for the result store: a digest of the
/// input bytes and every spec field that can influence the reduction
/// (oracle, strategy, cost model, probe configuration). Scheduling-only
/// fields — priority, deadline, output path — are deliberately excluded.
fn job_memo_digest(spec: &JobSpec, input: &[u8]) -> u64 {
    let meta = format!(
        "{}|{}|{}|{}|{}|{}",
        spec.format,
        spec.decompiler,
        spec.strategy,
        spec.cost.to_bits(),
        spec.probe_threads,
        spec.probe_latency_micros
    );
    namespace_digest(&meta, input)
}

fn memo_file(state: &ServiceState, digest: u64, suffix: &str) -> PathBuf {
    state
        .config
        .state_dir
        .join("memo")
        .join(format!("{digest:016x}.{suffix}"))
}

/// Answers a job from the result store, if an identical job already ran:
/// writes the requested output from the stored reduced container and
/// returns the stored result document with this job's identity patched
/// in. Any missing or unreadable store file simply means "run it".
fn try_replay(state: &ServiceState, spec: &JobSpec, digest: u64, started: Instant) -> Option<Json> {
    let text = std::fs::read_to_string(memo_file(state, digest, "json")).ok()?;
    let Json::Obj(mut fields) = Json::parse(&text).ok()? else {
        return None;
    };
    let reduced = std::fs::read(memo_file(state, digest, "lbrc")).ok()?;
    if let Some(out) = &spec.output {
        atomic_write(Path::new(out), &reduced).ok()?;
        fields.insert("output".to_owned(), Json::str(out));
    }
    fields.insert("id".to_owned(), Json::count(spec.id));
    fields.insert("resumed".to_owned(), Json::Bool(false));
    fields.insert("replayed".to_owned(), Json::Bool(true));
    fields.insert(
        "wall_secs".to_owned(),
        Json::Num(started.elapsed().as_secs_f64()),
    );
    Some(Json::Obj(fields))
}

/// Persists a finished job into the result store: the reduced container
/// first, then the result document (so a present document always finds
/// its bytes), both atomically. Per-run fields are stripped; they are
/// re-stamped at replay time.
fn store_memo(state: &ServiceState, digest: u64, doc: &Json, report: &ReductionReport<Vec<u8>>) {
    let Json::Obj(mut fields) = doc.clone() else {
        return;
    };
    for per_run in ["id", "output", "wall_secs", "resumed", "replayed"] {
        fields.remove(per_run);
    }
    let dir = state.config.state_dir.join("memo");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if atomic_write(&memo_file(state, digest, "lbrc"), &report.reduced).is_err() {
        return;
    }
    let _ = atomic_write_str(
        &memo_file(state, digest, "json"),
        &Json::Obj(fields).render(),
    );
}

fn success_result_doc(spec: &JobSpec, report: &ReductionReport<Vec<u8>>, resumed: bool) -> Json {
    let mut fields = vec![
        ("id", Json::count(spec.id)),
        ("status", Json::str("done")),
        ("format", Json::str(&spec.format)),
        ("strategy", Json::str(&report.strategy)),
        (
            "initial_classes",
            Json::count(report.initial.classes as u64),
        ),
        ("initial_bytes", Json::count(report.initial.bytes as u64)),
        (
            "final_classes",
            Json::count(report.final_metrics.classes as u64),
        ),
        (
            "final_bytes",
            Json::count(report.final_metrics.bytes as u64),
        ),
        ("predicate_calls", Json::count(report.predicate_calls)),
        ("cache_hits", Json::count(report.cache_hits())),
        ("cache_misses", Json::count(report.cache_misses())),
        (
            "trace_digest",
            Json::str(format!("{:016x}", report.trace.digest())),
        ),
        ("resumed", Json::Bool(resumed)),
        ("errors_preserved", Json::Bool(report.errors_preserved)),
        ("still_valid", Json::Bool(report.still_valid)),
        ("modeled_secs", Json::Num(report.modeled_secs)),
        ("wall_secs", Json::Num(report.wall_secs)),
    ];
    if let Some(out) = &spec.output {
        fields.push(("output", Json::str(out)));
    }
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn terminal_result_doc(id: u64, status: &str, error: Option<&str>) -> Json {
    let mut fields = vec![("id", Json::count(id)), ("status", Json::str(status))];
    if let Some(e) = error {
        fields.push(("error", Json::str(e)));
    }
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_classfile::write_program;
    use lbr_workload::{generate, WorkloadConfig};
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

    /// The decompiler oracle, except that its tenth run panics.
    struct PanicsMidSearch {
        oracle: DecompilerOracle,
        runs: AtomicUsize,
    }

    impl InputOracle<lbr_classfile::Program> for PanicsMidSearch {
        fn baseline(&self) -> &BTreeSet<String> {
            self.oracle.baseline()
        }

        fn errors(&self, program: &lbr_classfile::Program) -> BTreeSet<String> {
            if self.runs.fetch_add(1, Ordering::Relaxed) == 9 {
                panic!("boom");
            }
            self.oracle.errors(program)
        }
    }

    /// A job body that runs the daemon's own reduction path (shared cache,
    /// checkpoints, cancel hook) with an oracle that panics mid-search.
    fn panicking_job(
        state: &ServiceState,
        spec: &JobSpec,
        cancel: &AtomicBool,
        started: Instant,
    ) -> Result<(ReductionReport<Vec<u8>>, bool), JobStop> {
        let bytes = std::fs::read(&spec.input).expect("input");
        let program = read_program(&bytes).expect("container");
        let oracle = PanicsMidSearch {
            oracle: DecompilerOracle::new(&program, BugSet::decompiler_a()),
            runs: AtomicUsize::new(0),
        };
        run_reduction(state, spec, cancel, started, &bytes, &program, &oracle)
    }

    fn result(state: &ServiceState, id: u64) -> Json {
        let text = std::fs::read_to_string(state.job_file(id, "result.json")).expect("result");
        Json::parse(&text).expect("result parses")
    }

    #[test]
    fn a_panicking_job_fails_and_its_worker_runs_the_next_job() {
        let dir = std::env::temp_dir().join(format!("lbr-daemon-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("state dir");
        let program = generate(&WorkloadConfig {
            seed: 3,
            classes: 10,
            plant: BugSet::decompiler_a().kinds().to_vec(),
            ..WorkloadConfig::default()
        });
        let input = dir.join("in.lbrc");
        std::fs::write(&input, write_program(&program)).expect("input");
        // Two persisted specs: the daemon recovers and enqueues both.
        for id in [1, 2] {
            let spec = Json::obj_from(vec![
                ("id", Json::count(id)),
                ("input", Json::str(input.display().to_string())),
                ("decompiler", Json::str("a")),
            ]);
            let spec = JobSpec::from_json(&spec, id).expect("spec");
            let path = dir.join(format!("job-{id}.spec.json"));
            std::fs::write(path, spec.to_json().render()).expect("spec file");
        }
        let daemon = Daemon::start(DaemonConfig::new(&dir, 1)).expect("daemon starts");
        let state = &daemon.state;

        // This thread is the worker: it runs both jobs, one after the other.
        let (first, _) = state.queue.pop().expect("first job");
        run_job(state, first, panicking_job);
        let doc = result(state, first);
        assert_eq!(doc.str_field("status"), Some("failed"));
        assert_eq!(doc.str_field("error"), Some("reduction panicked: boom"));
        assert_eq!(state.jobs.lock().unwrap()[&first].phase, JobPhase::Failed);

        // The next job reuses the cache the panicking one filled.
        let (second, _) = state.queue.pop().expect("second job");
        run_job(state, second, execute_job);
        let doc = result(state, second);
        assert_eq!(doc.str_field("status"), Some("done"), "{}", doc.render());
        assert!(doc.u64_field("cache_hits").unwrap_or(0) > 0);
        let jobs = handle_stats(state)
            .get("jobs")
            .cloned()
            .expect("job counts");
        assert_eq!(jobs.u64_field("failed"), Some(1), "{}", jobs.render());
        assert_eq!(jobs.u64_field("done"), Some(1), "{}", jobs.render());
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
