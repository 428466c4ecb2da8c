//! Blocking clients for the reduction daemon's wire protocol.
//!
//! [`Client`] is the simple, stateless face: each request opens one TCP
//! connection, sends one JSON line, and reads one JSON line back — a
//! client never holds a daemon resource across calls (the exception is
//! [`Client::wait_result`], whose single request stays parked server-side
//! until the job is terminal).
//!
//! [`Connection`] is the high-throughput face: one persistent connection
//! carrying many requests, with capability negotiation (`hello`), the
//! compact binary framing of [`crate::frame`], request batching, and
//! server-pushed progress events. Old daemons that answer `hello` with an
//! unknown-op error degrade transparently to line-JSON.

use crate::frame::{encode_doc, FrameDecoder, Framing, WireFrame, OP_EVENT};
use crate::json::Json;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// The outcome of a submit attempt, distinguishing admission-control
/// load shedding (an explicit "come back later", with the daemon's
/// backoff hint) from hard errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// The job was admitted under this id.
    Accepted(u64),
    /// The daemon shed the submit instead of queueing it.
    Shed {
        /// How long the daemon suggests backing off before retrying.
        retry_after_ms: u64,
        /// The daemon's reason (queue full, per-client cap, …).
        message: String,
    },
}

/// Classifies a raw submit response: accepted, shed, or a hard error.
fn classify_submit(response: Json) -> io::Result<Submitted> {
    if response.bool_field("ok") == Some(true) {
        return response
            .u64_field("id")
            .map(Submitted::Accepted)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "submit response without id")
            });
    }
    let message = response
        .str_field("error")
        .unwrap_or("unknown daemon error")
        .to_owned();
    if response.bool_field("shed") == Some(true) {
        return Ok(Submitted::Shed {
            retry_after_ms: response.u64_field("retry_after_ms").unwrap_or(0),
            message,
        });
    }
    Err(io::Error::other(message))
}

/// Builds the submit request document from a job spec object.
fn submit_request(spec: &Json, events: bool) -> io::Result<Json> {
    let mut request = match spec {
        Json::Obj(fields) => fields.clone(),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "spec must be an object",
            ))
        }
    };
    request.insert("op".to_owned(), Json::str("submit"));
    if events {
        request.insert("events".to_owned(), Json::Bool(true));
    }
    Ok(Json::Obj(request))
}

/// A handle on a running daemon.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for the daemon at `addr` (`host:port`).
    pub fn connect(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// A client for the daemon owning `state_dir`, via its `daemon.addr`
    /// file.
    pub fn from_state_dir(state_dir: &Path) -> io::Result<Client> {
        let addr = std::fs::read_to_string(state_dir.join("daemon.addr"))?;
        Ok(Client::connect(addr.trim()))
    }

    /// Sends one request document and returns the response document.
    pub fn request(&self, request: &Json) -> io::Result<Json> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.write_all(format!("{}\n", request.render()).as_bytes())?;
        stream.flush()?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        if line.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection without responding",
            ));
        }
        Json::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Like [`request`](Self::request), but a `{"ok": false}` response
    /// becomes an error carrying the daemon's message.
    pub fn expect_ok(&self, request: &Json) -> io::Result<Json> {
        let response = self.request(request)?;
        if response.bool_field("ok") == Some(true) {
            Ok(response)
        } else {
            let message = response
                .str_field("error")
                .unwrap_or("unknown daemon error");
            Err(io::Error::other(message.to_owned()))
        }
    }

    /// Submits a job described by `spec` (the fields of
    /// [`JobSpec`](crate::job::JobSpec), minus `id`) and returns the assigned
    /// job id. A shed submit comes back as an error mentioning the
    /// daemon's retry hint; use [`try_submit`](Self::try_submit) to
    /// handle shedding programmatically.
    pub fn submit(&self, spec: &Json) -> io::Result<u64> {
        match self.try_submit(spec)? {
            Submitted::Accepted(id) => Ok(id),
            Submitted::Shed {
                retry_after_ms,
                message,
            } => Err(io::Error::other(format!(
                "{message} (shed; retry after {retry_after_ms}ms)"
            ))),
        }
    }

    /// Submits a job, reporting load shedding as [`Submitted::Shed`]
    /// (with the daemon's `retry_after_ms` hint) instead of an error.
    pub fn try_submit(&self, spec: &Json) -> io::Result<Submitted> {
        classify_submit(self.request(&submit_request(spec, false)?)?)
    }

    /// The job's current status document.
    pub fn status(&self, id: u64) -> io::Result<Json> {
        self.expect_ok(&Json::obj([
            ("op", Json::str("status")),
            ("id", Json::count(id)),
        ]))
    }

    /// Blocks until the job is terminal and returns its result document.
    pub fn wait_result(&self, id: u64) -> io::Result<Json> {
        let response = self.expect_ok(&Json::obj([
            ("op", Json::str("result")),
            ("id", Json::count(id)),
            ("wait", Json::Bool(true)),
        ]))?;
        response
            .get("result")
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without result"))
    }

    /// Requests cooperative cancellation of a job.
    pub fn cancel(&self, id: u64) -> io::Result<()> {
        self.expect_ok(&Json::obj([
            ("op", Json::str("cancel")),
            ("id", Json::count(id)),
        ]))
        .map(|_| ())
    }

    /// The daemon's stats document (queue depth, per-job probe counts,
    /// cache hit rates, worker utilization).
    pub fn stats(&self) -> io::Result<Json> {
        self.expect_ok(&Json::obj([("op", Json::str("stats"))]))
    }

    /// Asks the daemon to shut down cleanly.
    pub fn shutdown(&self) -> io::Result<()> {
        self.expect_ok(&Json::obj([("op", Json::str("shutdown"))]))
            .map(|_| ())
    }

    /// Whether a daemon answers at this address.
    pub fn ping(&self) -> bool {
        self.request(&Json::obj([("op", Json::str("ping"))]))
            .map(|r| r.bool_field("ok") == Some(true))
            .unwrap_or(false)
    }

    /// Polls [`ping`](Self::ping) until the daemon answers or the timeout
    /// elapses. Used right after spawning a daemon process.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.ping() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// A persistent connection to the daemon: many requests over one socket,
/// optionally in binary framing, with batching and streamed events.
///
/// One request is in flight at a time ([`request`](Self::request) blocks
/// until its response arrives); events the server pushes in between are
/// buffered and drained with [`next_event`](Self::next_event).
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    framing: Framing,
    /// The daemon's `hello` capabilities; `None` on a v1 daemon.
    capabilities: Option<Json>,
    pending_events: VecDeque<Json>,
}

impl Connection {
    /// Opens a connection and negotiates capabilities: sends `hello` as a
    /// JSON line and, if `binary` is requested and the daemon offers it,
    /// switches all subsequent frames to binary framing. A daemon that
    /// answers `hello` with an error is treated as v1 (JSON only); one
    /// that sheds the connection (at its connection cap) is an error.
    pub fn negotiate(addr: &str, binary: bool) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut conn = Connection {
            stream,
            decoder: FrameDecoder::new(64 << 20),
            framing: Framing::Json,
            capabilities: None,
            pending_events: VecDeque::new(),
        };
        let hello = conn.request(&Json::obj([("op", Json::str("hello"))]))?;
        if hello.bool_field("shed") == Some(true) {
            // The daemon is at its connection cap and has closed this one.
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("daemon shed the connection: {}", hello.render()),
            ));
        }
        if hello.bool_field("ok") == Some(true) {
            let offers_binary = matches!(hello.get("framings"), Some(Json::Arr(fs))
                if fs.iter().any(|f| matches!(f, Json::Str(s) if s == "binary")));
            if binary && offers_binary {
                conn.framing = Framing::Binary;
            }
            conn.capabilities = Some(hello);
        }
        Ok(conn)
    }

    /// Like [`negotiate`](Self::negotiate), reading the address from the
    /// daemon's `daemon.addr` file.
    pub fn negotiate_state_dir(state_dir: &Path, binary: bool) -> io::Result<Connection> {
        let addr = std::fs::read_to_string(state_dir.join("daemon.addr"))?;
        Connection::negotiate(addr.trim(), binary)
    }

    /// The framing this connection settled on.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// The daemon's `hello` capability document, if it spoke `lbr/2`.
    pub fn capabilities(&self) -> Option<&Json> {
        self.capabilities.as_ref()
    }

    fn send_doc(&mut self, doc: &Json) -> io::Result<()> {
        self.stream.write_all(&encode_doc(self.framing, doc))
    }

    /// Reads the next frame, classifying it as an event or a response.
    fn read_frame(&mut self) -> io::Result<(bool, Json)> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(WireFrame::Binary { opcode, doc })) => {
                    return Ok((opcode == OP_EVENT, doc));
                }
                Ok(Some(WireFrame::JsonLine(line))) => {
                    let doc = Json::parse(&line).map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}"))
                    })?;
                    // JSON framing has no opcode: events carry an
                    // `"event"` field, responses carry `"ok"`.
                    let is_event = doc.get("event").is_some() && doc.get("ok").is_none();
                    return Ok((is_event, doc));
                }
                Ok(None) => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "daemon closed the connection",
                        ));
                    }
                    self.decoder.push(&chunk[..n]);
                }
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unframeable response: {e}"),
                    ))
                }
            }
        }
    }

    /// Sends one request and blocks for its response; events arriving in
    /// between are buffered for [`next_event`](Self::next_event).
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        self.send_doc(request)?;
        loop {
            let (is_event, doc) = self.read_frame()?;
            if is_event {
                self.pending_events.push_back(doc);
            } else {
                return Ok(doc);
            }
        }
    }

    /// Like [`request`](Self::request), but a `{"ok": false}` response
    /// becomes an error carrying the daemon's message.
    pub fn expect_ok(&mut self, request: &Json) -> io::Result<Json> {
        let response = self.request(request)?;
        if response.bool_field("ok") == Some(true) {
            Ok(response)
        } else {
            let message = response
                .str_field("error")
                .unwrap_or("unknown daemon error");
            Err(io::Error::other(message.to_owned()))
        }
    }

    /// The next server-pushed event — buffered ones first, then off the
    /// wire. Only meaningful after a submit with `"events": true`.
    pub fn next_event(&mut self) -> io::Result<Json> {
        if let Some(ev) = self.pending_events.pop_front() {
            return Ok(ev);
        }
        let (is_event, doc) = self.read_frame()?;
        if is_event {
            return Ok(doc);
        }
        // A response with no request outstanding is a protocol
        // violation; surface it rather than silently dropping it.
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response while reading events: {}", doc.render()),
        ))
    }

    /// Like [`next_event`](Self::next_event), but waits at most `timeout`
    /// and returns `Ok(None)` if no complete event arrived in time. Only
    /// valid while no request is outstanding (between requests).
    pub fn poll_event(&mut self, timeout: Duration) -> io::Result<Option<Json>> {
        if let Some(ev) = self.pending_events.pop_front() {
            return Ok(Some(ev));
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let outcome = self.poll_event_inner();
        let restore = self.stream.set_read_timeout(None);
        let outcome = outcome?;
        restore?;
        Ok(outcome)
    }

    fn poll_event_inner(&mut self) -> io::Result<Option<Json>> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(WireFrame::Binary { opcode, doc })) if opcode == OP_EVENT => {
                    return Ok(Some(doc));
                }
                Ok(Some(WireFrame::JsonLine(line))) => {
                    let doc = Json::parse(&line).map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad event: {e}"))
                    })?;
                    if doc.get("event").is_some() && doc.get("ok").is_none() {
                        return Ok(Some(doc));
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected response while polling events",
                    ));
                }
                Ok(Some(WireFrame::Binary { .. })) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected response while polling events",
                    ));
                }
                Ok(None) => {
                    let mut chunk = [0u8; 16 * 1024];
                    match self.stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "daemon closed the connection",
                            ))
                        }
                        Ok(n) => self.decoder.push(&chunk[..n]),
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            return Ok(None)
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unframeable event: {e}"),
                    ))
                }
            }
        }
    }

    /// Submits a job spec (see [`Client::submit`]); with `events` the
    /// daemon streams `running` / `progress` / `terminal` events for it
    /// over this connection.
    pub fn submit(&mut self, spec: &Json, events: bool) -> io::Result<u64> {
        match self.try_submit(spec, events)? {
            Submitted::Accepted(id) => Ok(id),
            Submitted::Shed {
                retry_after_ms,
                message,
            } => Err(io::Error::other(format!(
                "{message} (shed; retry after {retry_after_ms}ms)"
            ))),
        }
    }

    /// Submits a job, reporting load shedding as [`Submitted::Shed`]
    /// (with the daemon's `retry_after_ms` hint) instead of an error.
    pub fn try_submit(&mut self, spec: &Json, events: bool) -> io::Result<Submitted> {
        classify_submit(self.request(&submit_request(spec, events)?)?)
    }

    /// Sends several requests in one `batch` frame and returns their
    /// responses positionally.
    pub fn batch(&mut self, requests: &[Json]) -> io::Result<Vec<Json>> {
        let response = self.expect_ok(&Json::obj([
            ("op", Json::str("batch")),
            ("requests", Json::Arr(requests.to_vec())),
        ]))?;
        match response.get("responses") {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "batch response without responses",
            )),
        }
    }

    /// Blocks until the job is terminal and returns its result document
    /// (the connection parks server-side; no polling).
    pub fn wait_result(&mut self, id: u64) -> io::Result<Json> {
        let response = self.expect_ok(&Json::obj([
            ("op", Json::str("result")),
            ("id", Json::count(id)),
            ("wait", Json::Bool(true)),
        ]))?;
        response
            .get("result")
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without result"))
    }

    /// Requests cooperative cancellation of a job.
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        self.expect_ok(&Json::obj([
            ("op", Json::str("cancel")),
            ("id", Json::count(id)),
        ]))
        .map(|_| ())
    }

    /// The daemon's stats document.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.expect_ok(&Json::obj([("op", Json::str("stats"))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_classification_separates_shed_from_errors() {
        let ok = Json::obj([("ok", Json::Bool(true)), ("id", Json::count(7))]);
        assert_eq!(classify_submit(ok).unwrap(), Submitted::Accepted(7));

        let shed = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str("queue full")),
            ("shed", Json::Bool(true)),
            ("retry_after_ms", Json::count(250)),
        ]);
        assert_eq!(
            classify_submit(shed).unwrap(),
            Submitted::Shed {
                retry_after_ms: 250,
                message: "queue full".to_owned(),
            }
        );

        let hard = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str("no such input")),
        ]);
        let err = classify_submit(hard).unwrap_err();
        assert!(err.to_string().contains("no such input"));

        let missing_id = Json::obj([("ok", Json::Bool(true))]);
        assert!(classify_submit(missing_id).is_err());
    }
}
