//! The daemon's binary framing carries request documents under one
//! opcode only (`OP_DOC`). A binary frame with any other opcode — the
//! server-push event opcode, a retired one, or garbage — must draw a typed
//! `bad request: unexpected opcode` error on the same connection, leave
//! that connection usable, and never disturb other clients.

use lbr_service::{frame, Client, Connection, Daemon, DaemonConfig, FrameDecoder, Json, WireFrame};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Reads until the decoder yields one complete frame.
fn read_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> WireFrame {
    loop {
        if let Some(frame) = decoder.next_frame().expect("well-framed response") {
            return frame;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "daemon closed the connection");
        decoder.push(&chunk[..n]);
    }
}

/// Sends one binary frame and returns the binary response document.
fn binary_round_trip(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    opcode: u8,
    doc: &Json,
) -> Json {
    stream
        .write_all(&frame::encode_binary_frame(opcode, doc))
        .expect("write frame");
    match read_frame(stream, decoder) {
        WireFrame::Binary { opcode: reply, doc } => {
            assert_eq!(reply, frame::OP_DOC, "responses travel under OP_DOC");
            doc
        }
        WireFrame::JsonLine(line) => panic!("binary request answered in JSON: {line}"),
    }
}

#[test]
fn non_document_opcodes_get_a_typed_error_and_the_connection_survives() {
    let state = std::env::temp_dir().join(format!("lbr-wire-opcodes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let daemon = Daemon::start(DaemonConfig::new(&state, 1)).expect("start daemon");
    let addr = daemon.local_addr().to_string();
    let handle = std::thread::spawn(move || daemon.run());
    let client = Client::connect(addr.clone());
    assert!(
        client.wait_ready(Duration::from_secs(5)),
        "daemon never came up"
    );

    // Negotiate binary framing the way `Connection::negotiate` does: a
    // JSON `hello` whose reply must offer the binary framing.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut decoder = FrameDecoder::new(1 << 20);
    stream.write_all(b"{\"op\":\"hello\"}\n").expect("hello");
    let WireFrame::JsonLine(line) = read_frame(&mut stream, &mut decoder) else {
        panic!("JSON hello answered in binary");
    };
    let hello = Json::parse(&line).expect("parse hello reply");
    assert_eq!(hello.bool_field("ok"), Some(true), "hello: {line}");
    let framings = hello.get("framings").map(Json::render).unwrap_or_default();
    assert!(
        framings.contains("binary"),
        "no binary framing offered: {line}"
    );

    let ping = Json::obj([("op", Json::str("ping"))]);
    for opcode in [0x02u8, 0x03, 0xFF] {
        let reply = binary_round_trip(&mut stream, &mut decoder, opcode, &ping);
        assert_eq!(reply.bool_field("ok"), Some(false), "opcode {opcode:#04x}");
        assert_eq!(
            reply.str_field("error"),
            Some(format!("bad request: unexpected opcode {opcode:#04x}").as_str()),
            "opcode {opcode:#04x}: {}",
            reply.render()
        );
    }

    // The same connection still answers a well-formed request.
    let pong = binary_round_trip(&mut stream, &mut decoder, frame::OP_DOC, &ping);
    assert_eq!(pong.bool_field("ok"), Some(true), "ping: {}", pong.render());
    assert_eq!(decoder.pending(), 0, "no stray bytes after the replies");

    // And the daemon keeps serving other connections.
    let mut other = Connection::negotiate(&addr, true).expect("second connection");
    let stats = other.stats().expect("stats on a second connection");
    assert_eq!(stats.bool_field("ok"), Some(true));
    assert!(client.ping(), "one-shot client after the bad frames");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&state);
}
