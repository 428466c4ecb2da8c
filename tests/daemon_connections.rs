//! The daemon's connection plane against hostile and excess clients: a
//! line nested far past the parser's depth bound and a line of garbage
//! bytes each draw an error on their own connection only, and the
//! connection past `MAX_CONNECTIONS` is shed with `retry_after_ms` until
//! a slot frees up.

use lbr_service::{Client, Connection, Daemon, DaemonConfig, Json, MAX_CONNECTIONS};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One raw JSON-lines connection.
struct Line {
    reader: BufReader<TcpStream>,
}

impl Line {
    fn open(addr: &str) -> Line {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Line {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.reader.get_mut().write_all(bytes).expect("write");
    }

    /// The next response line, parsed.
    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read a line");
        assert!(n > 0, "connection closed before a response");
        Json::parse(&line).expect("response parses")
    }

    fn request(&mut self, op: &str) -> Json {
        self.send(format!("{{\"op\":\"{op}\"}}\n").as_bytes());
        self.recv()
    }

    /// Asserts the daemon closed this connection (nothing more to read).
    fn assert_closed(&mut self) {
        let mut rest = Vec::new();
        let n = self.reader.read_to_end(&mut rest).expect("read to close");
        assert_eq!(n, 0, "unexpected bytes before close: {rest:?}");
    }
}

#[test]
fn hostile_lines_and_excess_connections_fail_alone() {
    let state = std::env::temp_dir().join(format!("lbr-daemon-conns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let daemon = Daemon::start(DaemonConfig::new(&state, 1)).expect("start daemon");
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run());
    let client = Client::connect(addr.clone());
    assert!(
        client.wait_ready(Duration::from_secs(5)),
        "daemon never came up"
    );

    let mut bystander = Line::open(&addr);
    assert_eq!(bystander.request("ping").bool_field("ok"), Some(true));

    // 100,000 unclosed brackets: a well-framed line that is not a JSON
    // document the daemon will parse. It draws a typed error, and the
    // connection stays usable.
    let mut deep = Line::open(&addr);
    deep.send(&[&b"["[..].repeat(100_000)[..], b"\n"].concat());
    let error = deep.recv();
    assert_eq!(error.bool_field("ok"), Some(false), "{}", error.render());
    assert!(
        error
            .str_field("error")
            .is_some_and(|e| e.contains("too deep")),
        "{}",
        error.render()
    );
    assert_eq!(deep.request("ping").bool_field("ok"), Some(true));

    // Bytes that are not UTF-8 cannot be framed at all: one error, then
    // the daemon closes that connection.
    let mut garbage = Line::open(&addr);
    garbage.send(b"\xff\xfe\x00garbage\xc3\n");
    let error = garbage.recv();
    assert_eq!(error.bool_field("ok"), Some(false), "{}", error.render());
    garbage.assert_closed();

    // Neither disturbed anyone else: the bystander and a fresh connection
    // still answer.
    assert_eq!(bystander.request("ping").bool_field("ok"), Some(true));
    let mut fresh = Line::open(&addr);
    assert_eq!(fresh.request("ping").bool_field("ok"), Some(true));

    // Fill the daemon to its cap with served connections: the bystander,
    // the deep one, the fresh one and as many more.
    let mut held = vec![bystander, deep, fresh];
    while held.len() < MAX_CONNECTIONS {
        let mut line = Line::open(&addr);
        assert_eq!(line.request("ping").bool_field("ok"), Some(true));
        held.push(line);
    }
    let open = |line: &mut Line| {
        let stats = line.request("stats");
        stats
            .get("net")
            .and_then(|net| net.u64_field("open_connections"))
            .expect("open_connections")
    };
    assert_eq!(open(&mut held[0]), MAX_CONNECTIONS as u64);

    // The one past the cap is shed with a retry hint, then closed.
    let mut excess = Line::open(&addr);
    let shed = excess.recv();
    assert_eq!(shed.bool_field("ok"), Some(false), "{}", shed.render());
    assert_eq!(shed.bool_field("shed"), Some(true), "{}", shed.render());
    assert!(
        shed.u64_field("retry_after_ms").is_some_and(|ms| ms > 0),
        "{}",
        shed.render()
    );
    excess.assert_closed();
    let refused = Connection::negotiate(&addr, false).expect_err("negotiated past the cap");
    assert!(refused.to_string().contains("retry_after_ms"), "{refused}");

    // Once one connection closes, a new one is served.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    while open(&mut held[0]) >= MAX_CONNECTIONS as u64 {
        assert!(
            Instant::now() < deadline,
            "a closed connection was never released"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut next = Line::open(&addr);
    assert_eq!(next.request("ping").bool_field("ok"), Some(true));

    // Shut down over a held connection: a new one could still find the
    // daemon full.
    assert_eq!(next.request("shutdown").bool_field("ok"), Some(true));
    drop((next, held));
    handle.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&state);
}
