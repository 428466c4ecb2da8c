//! Wire framing for the daemon protocol: newline-delimited JSON and a
//! compact length-prefixed binary option, decoded incrementally.
//!
//! A connection may interleave both framings frame-by-frame — the first
//! byte of every frame disambiguates. JSON documents start with `{` (or
//! whitespace); a binary frame starts with the magic byte `0xBF`, which
//! can never open a JSON document:
//!
//! ```text
//! offset  size  field
//! 0       1     magic, always 0xBF
//! 1       1     opcode: 0x01 = document (request or response),
//!               0x02 = server-pushed event
//! 2       4     payload length, u32 little-endian
//! 6       len   payload: one binary-encoded value (see below)
//! ```
//!
//! The payload encodes the same document model as [`Json`] — responses
//! are value-identical across framings, only the bytes differ. Value
//! encoding, one tag byte per value:
//!
//! ```text
//! tag    payload
//! 0x00   null
//! 0x01   false
//! 0x02   true
//! 0x03   number, f64 little-endian (8 bytes)
//! 0x04   non-negative integer, LEB128 varint (compact counters/ids)
//! 0x05   string: varint byte length + UTF-8 bytes
//! 0x06   array: varint element count + elements
//! 0x07   object: varint pair count + (string key, value) pairs,
//!        keys in ascending order (the canonical [`Json`] order)
//! ```
//!
//! [`FrameDecoder`] accumulates bytes from a non-blocking socket and
//! yields complete frames, enforcing a maximum frame/line size so a
//! malicious client cannot grow the buffer without bound.

use crate::json::{Json, MAX_DEPTH};

/// First byte of every binary frame.
pub const MAGIC: u8 = 0xBF;
/// Binary opcode: an ordinary request/response document.
pub const OP_DOC: u8 = 0x01;
/// Binary opcode: a server-pushed event document.
pub const OP_EVENT: u8 = 0x02;

/// Which framing a peer used for a frame (and thus what it gets back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// One JSON document per `\n`-terminated line.
    Json,
    /// Length-prefixed binary frames (see the module docs).
    Binary,
}

/// One complete frame off the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// A newline-delimited JSON line (unparsed; bad JSON is answered
    /// with an error response rather than dropping the connection).
    JsonLine(String),
    /// A binary frame, already decoded.
    Binary {
        /// [`OP_DOC`] or [`OP_EVENT`].
        opcode: u8,
        /// The decoded payload document.
        doc: Json,
    },
}

impl WireFrame {
    /// The framing this frame arrived in.
    pub fn framing(&self) -> Framing {
        match self {
            WireFrame::JsonLine(_) => Framing::Json,
            WireFrame::Binary { .. } => Framing::Binary,
        }
    }
}

/// Why a connection's byte stream cannot be framed any further. All of
/// these are terminal for the connection (unlike a well-framed but
/// malformed JSON document, which only fails the one request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A frame or line exceeded the configured maximum size.
    TooLarge {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// A binary frame's payload did not decode, or a JSON line was not
    /// valid UTF-8.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

// ----------------------------------------------------------------------
// Value encoding.
// ----------------------------------------------------------------------

fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut n = 0u64;
    for shift in (0..70).step_by(7) {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| WireError::Malformed("truncated varint".into()))?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(WireError::Malformed("varint overflows u64".into()));
        }
        n |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(n);
        }
    }
    Err(WireError::Malformed("varint too long".into()))
}

/// Appends the binary encoding of `value` to `out`.
pub fn encode_value(value: &Json, out: &mut Vec<u8>) {
    match value {
        Json::Null => out.push(0x00),
        Json::Bool(false) => out.push(0x01),
        Json::Bool(true) => out.push(0x02),
        Json::Num(n) => {
            // Counters and ids dominate the protocol; pack them tight.
            if n.fract() == 0.0 && *n >= 0.0 && *n < 9e15 {
                out.push(0x04);
                put_varint(*n as u64, out);
            } else {
                out.push(0x03);
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        Json::Str(s) => {
            out.push(0x05);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Json::Arr(items) => {
            out.push(0x06);
            put_varint(items.len() as u64, out);
            for item in items {
                encode_value(item, out);
            }
        }
        Json::Obj(map) => {
            out.push(0x07);
            put_varint(map.len() as u64, out);
            for (k, v) in map {
                put_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                encode_value(v, out);
            }
        }
    }
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = get_varint(bytes, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| WireError::Malformed("truncated string".into()))?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| WireError::Malformed("string is not UTF-8".into()))?
        .to_owned();
    *pos = end;
    Ok(s)
}

fn decode_at(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::Malformed("value nests too deep".into()));
    }
    let &tag = bytes
        .get(*pos)
        .ok_or_else(|| WireError::Malformed("truncated value".into()))?;
    *pos += 1;
    match tag {
        0x00 => Ok(Json::Null),
        0x01 => Ok(Json::Bool(false)),
        0x02 => Ok(Json::Bool(true)),
        0x03 => {
            let end = *pos + 8;
            let raw = bytes
                .get(*pos..end)
                .ok_or_else(|| WireError::Malformed("truncated f64".into()))?;
            *pos = end;
            Ok(Json::Num(f64::from_le_bytes(raw.try_into().unwrap())))
        }
        0x04 => Ok(Json::Num(get_varint(bytes, pos)? as f64)),
        0x05 => Ok(Json::Str(get_str(bytes, pos)?)),
        0x06 => {
            let count = get_varint(bytes, pos)? as usize;
            if count > bytes.len() - *pos {
                // Each element costs at least one byte; reject early so a
                // tiny frame cannot demand a huge allocation.
                return Err(WireError::Malformed("array count exceeds payload".into()));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_at(bytes, pos, depth + 1)?);
            }
            Ok(Json::Arr(items))
        }
        0x07 => {
            let count = get_varint(bytes, pos)? as usize;
            if count > bytes.len() - *pos {
                return Err(WireError::Malformed("object count exceeds payload".into()));
            }
            let mut map = std::collections::BTreeMap::new();
            for _ in 0..count {
                let key = get_str(bytes, pos)?;
                map.insert(key, decode_at(bytes, pos, depth + 1)?);
            }
            Ok(Json::Obj(map))
        }
        other => Err(WireError::Malformed(format!(
            "unknown value tag {other:#x}"
        ))),
    }
}

/// Decodes one value that must span the whole payload exactly.
pub fn decode_value(payload: &[u8]) -> Result<Json, WireError> {
    let mut pos = 0;
    let value = decode_at(payload, &mut pos, 0)?;
    if pos != payload.len() {
        return Err(WireError::Malformed(format!(
            "{} trailing payload bytes",
            payload.len() - pos
        )));
    }
    Ok(value)
}

// ----------------------------------------------------------------------
// Frame encoding.
// ----------------------------------------------------------------------

/// Encodes `doc` as one binary frame with the given opcode.
pub fn encode_binary_frame(opcode: u8, doc: &Json) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    encode_value(doc, &mut payload);
    let mut frame = Vec::with_capacity(payload.len() + 6);
    frame.push(MAGIC);
    frame.push(opcode);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Encodes a request/response document in the given framing.
pub fn encode_doc(framing: Framing, doc: &Json) -> Vec<u8> {
    match framing {
        Framing::Json => {
            let mut bytes = doc.render().into_bytes();
            bytes.push(b'\n');
            bytes
        }
        Framing::Binary => encode_binary_frame(OP_DOC, doc),
    }
}

/// Encodes a server-pushed event document in the given framing. In JSON
/// framing an event is an ordinary line; peers tell events from
/// responses by the `"event"` field (responses carry `"ok"` instead).
pub fn encode_event(framing: Framing, doc: &Json) -> Vec<u8> {
    match framing {
        Framing::Json => encode_doc(Framing::Json, doc),
        Framing::Binary => encode_binary_frame(OP_EVENT, doc),
    }
}

// ----------------------------------------------------------------------
// Incremental decoding.
// ----------------------------------------------------------------------

/// An incremental frame decoder over a byte stream carrying either
/// framing. Feed it reads with [`push`](Self::push), drain complete
/// frames with [`next_frame`](Self::next_frame).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl FrameDecoder {
    /// A decoder rejecting frames and lines larger than `max_frame`.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame: max_frame.max(64),
        }
    }

    /// Appends raw bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed. Errors are terminal: the stream can no longer be framed.
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, WireError> {
        // Skip blank separators between frames.
        while self
            .buf
            .get(self.start)
            .is_some_and(|b| matches!(b, b'\n' | b'\r' | b' ' | b'\t'))
        {
            self.start += 1;
        }
        let pending = &self.buf[self.start..];
        if pending.is_empty() {
            self.buf.clear();
            self.start = 0;
            return Ok(None);
        }
        if pending[0] == MAGIC {
            if pending.len() < 6 {
                return Ok(None);
            }
            let opcode = pending[1];
            let len = u32::from_le_bytes(pending[2..6].try_into().unwrap()) as usize;
            if len > self.max_frame {
                return Err(WireError::TooLarge {
                    limit: self.max_frame,
                });
            }
            if pending.len() < 6 + len {
                return Ok(None);
            }
            let doc = decode_value(&pending[6..6 + len])?;
            self.start += 6 + len;
            return Ok(Some(WireFrame::Binary { opcode, doc }));
        }
        match pending.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let line = std::str::from_utf8(&pending[..nl])
                    .map_err(|_| WireError::Malformed("line is not UTF-8".into()))?
                    .trim_end_matches('\r')
                    .to_owned();
                self.start += nl + 1;
                Ok(Some(WireFrame::JsonLine(line)))
            }
            None if pending.len() > self.max_frame => Err(WireError::TooLarge {
                limit: self.max_frame,
            }),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        Json::parse(
            r#"{"op":"submit","input":"/tmp/αβ.lbrc","priority":7,"cost":33.5,
                "nested":{"a":[1,2,3,null,true,false],"b":-0.125},"big":9007199254740992}"#,
        )
        .unwrap()
    }

    #[test]
    fn binary_value_round_trips() {
        let doc = sample_doc();
        let mut payload = Vec::new();
        encode_value(&doc, &mut payload);
        assert_eq!(decode_value(&payload).unwrap(), doc);
    }

    #[test]
    fn binary_is_more_compact_than_json_for_protocol_docs() {
        let doc = sample_doc();
        let mut payload = Vec::new();
        encode_value(&doc, &mut payload);
        assert!(payload.len() < doc.render().len());
    }

    #[test]
    fn decoder_handles_interleaved_framings_and_partial_frames() {
        let doc = sample_doc();
        let mut stream = Vec::new();
        stream.extend_from_slice(b"{\"op\":\"ping\"}\n");
        stream.extend_from_slice(&encode_binary_frame(OP_DOC, &doc));
        stream.extend_from_slice(b"\n{\"op\":\"stats\"}\r\n");
        stream.extend_from_slice(&encode_binary_frame(OP_EVENT, &doc));

        // Feed it one byte at a time: every prefix either yields a frame
        // or politely asks for more.
        let mut dec = FrameDecoder::new(1 << 20);
        let mut frames = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0], WireFrame::JsonLine("{\"op\":\"ping\"}".into()));
        assert_eq!(
            frames[1],
            WireFrame::Binary {
                opcode: OP_DOC,
                doc: doc.clone()
            }
        );
        assert_eq!(frames[2], WireFrame::JsonLine("{\"op\":\"stats\"}".into()));
        assert_eq!(
            frames[3],
            WireFrame::Binary {
                opcode: OP_EVENT,
                doc
            }
        );
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn oversize_binary_frame_is_rejected_from_its_header() {
        let mut dec = FrameDecoder::new(1024);
        let mut header = vec![MAGIC, OP_DOC];
        header.extend_from_slice(&(10_000u32).to_le_bytes());
        dec.push(&header);
        assert_eq!(dec.next_frame(), Err(WireError::TooLarge { limit: 1024 }));
    }

    #[test]
    fn oversize_json_line_is_rejected_without_a_newline() {
        let mut dec = FrameDecoder::new(128);
        dec.push(&[b'{'; 200]);
        assert_eq!(dec.next_frame(), Err(WireError::TooLarge { limit: 128 }));
    }

    #[test]
    fn torn_payloads_are_malformed_not_panics() {
        // A frame whose declared length cuts a value in half.
        let doc = sample_doc();
        let mut payload = Vec::new();
        encode_value(&doc, &mut payload);
        let cut = payload.len() / 2;
        let mut frame = vec![MAGIC, OP_DOC];
        frame.extend_from_slice(&(cut as u32).to_le_bytes());
        frame.extend_from_slice(&payload[..cut]);
        let mut dec = FrameDecoder::new(1 << 20);
        dec.push(&frame);
        assert!(matches!(dec.next_frame(), Err(WireError::Malformed(_))));

        // Garbage tags and hostile counts fail cleanly too.
        for payload in [
            vec![0xffu8],
            vec![0x06, 0xff, 0xff, 0xff, 0xff, 0x0f],
            vec![0x05, 0x7f],
        ] {
            assert!(decode_value(&payload).is_err(), "payload {payload:?}");
        }
    }

    #[test]
    fn encode_doc_matches_framing() {
        let doc = Json::obj([("ok", Json::Bool(true))]);
        assert_eq!(encode_doc(Framing::Json, &doc), b"{\"ok\":true}\n");
        let bin = encode_doc(Framing::Binary, &doc);
        assert_eq!(bin[0], MAGIC);
        assert_eq!(bin[1], OP_DOC);
        let mut dec = FrameDecoder::new(1 << 10);
        dec.push(&bin);
        assert_eq!(
            dec.next_frame().unwrap(),
            Some(WireFrame::Binary {
                opcode: OP_DOC,
                doc
            })
        );
    }

    #[test]
    fn varints_round_trip_at_the_edges() {
        for n in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            put_varint(n, &mut out);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), n);
            assert_eq!(pos, out.len());
        }
    }
}
