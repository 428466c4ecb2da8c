//! The daemon's connection plane: two blocking threads per connection.
//!
//! The acceptor registers each new connection and starts its *reader*,
//! which also runs the connection's *writer* next to it. The reader
//! reads into the connection's [`FrameDecoder`] and answers each frame
//! through [`dispatch_frame`]; the writer drains the connection's
//! outbox. Every reply takes that one path: the reader's immediate
//! responses and the workers' deliveries (terminal results, progress
//! events) are appended to the outbox in order, and only the writer
//! touches the socket's write side, so no worker ever blocks on a peer.
//!
//! Protection, per connection:
//! * frames and lines are capped at `max_frame_bytes` — an unframeable
//!   stream is answered with one error and the connection closed;
//! * a connection idle past `idle_timeout` (a socket read timeout) is
//!   closed, unless it is parked on a deferred reply (`result --wait`,
//!   progress streams); a delivery counts as activity;
//! * progress events are dropped — counted, never blocking — once the
//!   outbox holds [`EVENT_BACKLOG_CAP`] bytes, and a backlog past
//!   [`HARD_BACKLOG_CAP`] closes the connection (a peer that stops
//!   reading cannot pin buffer memory);
//! * at most [`MAX_CONNECTIONS`] connections are served at once; the
//!   acceptor sheds the next one with a `retry_after_ms` line.

use crate::daemon::{dispatch_frame, error_response, shed_response, ServiceState};
use crate::frame::{encode_doc, FrameDecoder, Framing};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Connections a daemon serves at once. Each costs two threads, so the
/// count is bounded; the daemon's clients open a handful. The acceptor
/// answers a connection past it with one shed line and closes it.
pub const MAX_CONNECTIONS: usize = 64;
/// Outbox backlog (bytes) past which progress events are dropped.
const EVENT_BACKLOG_CAP: usize = 1 << 20;
/// Outbox backlog (bytes) past which the connection is closed.
const HARD_BACKLOG_CAP: usize = 16 << 20;
/// How long one blocked write may make no progress before a closing
/// connection gives up on its peer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// One connection: its socket and the outbox its writer drains.
pub(crate) struct Conn {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// Signals the writer: bytes queued, or the connection is closing.
    ready: Condvar,
}

struct Outbox {
    /// Bytes queued for the writer.
    bytes: Vec<u8>,
    /// Bytes the writer has taken but not yet written.
    writing: usize,
    /// Deferred replies parked on this connection (idle-close exempt
    /// while positive). Signed: a worker may deliver a reply before the
    /// reader has counted the request that deferred it.
    deferred: i64,
    last_activity: Instant,
    /// The reader is done (or the backlog overflowed): flush what is
    /// queued, then close.
    closing: bool,
}

impl Outbox {
    fn backlog(&self) -> usize {
        self.bytes.len() + self.writing
    }
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            outbox: Mutex::new(Outbox {
                bytes: Vec::new(),
                writing: 0,
                deferred: 0,
                last_activity: Instant::now(),
                closing: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn outbox(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().expect("outbox lock")
    }

    /// Queues one encoded frame for the writer — a reader's reply or a
    /// worker's delivery — unless the connection is closing. `ends_wait`
    /// completes a deferred reply; a `droppable` progress event is
    /// dropped (and counted) when the peer is backlogged.
    pub(crate) fn deliver(
        &self,
        state: &ServiceState,
        bytes: &[u8],
        ends_wait: bool,
        droppable: bool,
    ) {
        let mut out = self.outbox();
        if ends_wait {
            out.deferred -= 1;
        }
        if out.closing {
            return;
        }
        if droppable && out.backlog() > EVENT_BACKLOG_CAP {
            state.net.events_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        out.bytes.extend_from_slice(bytes);
        state.net.frames_out.fetch_add(1, Ordering::Relaxed);
        // A delivery is activity: the peer is being served.
        out.last_activity = Instant::now();
        if out.backlog() > HARD_BACKLOG_CAP {
            out.bytes = Vec::new();
            out.closing = true;
            state.net.closed_protocol.fetch_add(1, Ordering::Relaxed);
            // Unblocks a writer stuck on the peer, and the reader.
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        drop(out);
        self.ready.notify_one();
    }

    /// Asks the writer to flush what is queued and then close.
    fn close(&self) {
        self.outbox().closing = true;
        self.ready.notify_one();
    }

    /// Ends the reader (daemon shutdown): its blocked read returns end of
    /// stream, and the writer then flushes what the reader queued — the
    /// `shutdown` ack among it — before it closes the socket.
    pub(crate) fn stop_reading(&self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }
}

/// Serves one registered connection until it closes: runs the reader
/// here and the writer on a second thread, then unregisters it.
pub(crate) fn serve(state: &ServiceState, id: u64, conn: Arc<Conn>) {
    std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name(format!("lbr-conn-{id}-w"))
            .spawn_scoped(scope, || write_loop(&conn));
        if writer.is_ok() {
            read_loop(state, id, &conn);
        }
        conn.close();
    });
    state.net.conns.lock().expect("conns lock").remove(&id);
}

fn write_loop(conn: &Conn) {
    let _ = conn.stream.set_write_timeout(Some(WRITE_TIMEOUT));
    loop {
        let chunk = {
            let mut out = conn.outbox();
            while out.bytes.is_empty() && !out.closing {
                out = conn.ready.wait(out).expect("outbox lock");
            }
            if out.bytes.is_empty() {
                break; // closing, and everything queued is written
            }
            let chunk = std::mem::take(&mut out.bytes);
            out.writing = chunk.len();
            chunk
        };
        let mut written = 0;
        while written < chunk.len() {
            match (&conn.stream).write(&chunk[written..]) {
                Ok(0) => break,
                Ok(n) => {
                    written += n;
                    conn.outbox().writing = chunk.len() - written;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A stalled peer is waited on until its connection closes.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && !conn.outbox().closing => {}
                Err(_) => break,
            }
        }
        if written < chunk.len() {
            break;
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
}

fn read_loop(state: &ServiceState, id: u64, conn: &Conn) {
    let idle_timeout = state.config.idle_timeout;
    let mut decoder = FrameDecoder::new(state.config.max_frame_bytes);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Sleep in `read` no longer than the connection may stay idle.
        let idle_left = {
            let out = conn.outbox();
            if out.deferred > 0 {
                idle_timeout
            } else {
                idle_timeout.saturating_sub(out.last_activity.elapsed())
            }
        };
        if idle_left.is_zero() {
            state.net.closed_idle.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = conn.stream.set_read_timeout(Some(idle_left));
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                decoder.push(&chunk[..n]);
                conn.outbox().last_activity = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    state.net.frames_in.fetch_add(1, Ordering::Relaxed);
                    let outcome = dispatch_frame(state, id, frame);
                    conn.outbox().deferred += i64::from(outcome.defer);
                    if let Some(bytes) = outcome.reply {
                        conn.deliver(state, &bytes, false, false);
                    }
                    if state.shutting_down() {
                        return;
                    }
                }
                Err(e) => {
                    // The stream can no longer be framed: answer once (as
                    // a JSON line — both framings' decoders accept it),
                    // then close.
                    let doc = error_response(&format!("bad frame: {e}"));
                    conn.deliver(state, &encode_doc(Framing::Json, &doc), false, false);
                    state.net.closed_protocol.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// Turns away a connection past [`MAX_CONNECTIONS`]: one shed line that
/// carries `retry_after_ms`, then close.
pub(crate) fn shed(state: &ServiceState, mut stream: TcpStream) {
    let doc = shed_response(state, "connection limit reached");
    let _ = stream.write_all(&encode_doc(Framing::Json, &doc));
    let _ = stream.shutdown(Shutdown::Both);
}
