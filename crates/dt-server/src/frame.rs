//! The wire format: newline-delimited JSON tuple frames and control
//! commands.
//!
//! One frame per line:
//!
//! ```json
//! {"stream":"R","row":[17,4],"ts":1500000}
//! ```
//!
//! `stream` names a catalog stream, `row` is the tuple's integer
//! values in schema order, and `ts` (optional) is the arrival
//! timestamp in microseconds on the server's clock — omitted, the
//! server stamps the tuple with `Clock::now()` at ingest. An optional
//! `tenant` string tags the tuple for the stream's weighted-fair
//! shedding lanes (untagged traffic lands in the catch-all lane).
//!
//! A line carrying a `cmd` field is a **control command** instead of
//! a tuple; the server answers each one with a single JSON reply line
//! on the same connection:
//!
//! ```json
//! {"cmd":"register","sql":"SELECT a, COUNT(*) FROM R GROUP BY a",
//!  "tenant":"acme","delay_ms":50,"weight":2.0}
//! {"cmd":"unregister","id":3}
//! {"cmd":"list"}
//! ```

use dt_types::{DtError, DtResult, Json, Row, Timestamp, ToJson, Tuple};

/// One parsed ingest frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Catalog stream name.
    pub stream: String,
    /// Tuple values in schema order.
    pub row: Row,
    /// Arrival timestamp; `None` means "stamp at ingest".
    pub ts: Option<Timestamp>,
    /// Fair-shedding lane tag; `None` lands in the catch-all lane.
    pub tenant: Option<String>,
}

impl Frame {
    /// Stamp the frame into a [`Tuple`], defaulting to `now`.
    pub fn into_tuple(self, now: Timestamp) -> Tuple {
        Tuple::new(self.row, self.ts.unwrap_or(now))
    }
}

/// One parsed control command (a line with a `cmd` field).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Register a continuous query at runtime.
    Register {
        /// The TCQ-dialect statement.
        sql: String,
        /// Owning tenant, if any.
        tenant: Option<String>,
        /// Per-tenant delay constraint in milliseconds, if any.
        delay_ms: Option<u64>,
        /// Fair-share weight (defaults to 1 server-side).
        weight: Option<f64>,
    },
    /// Detach a registered query at the next window boundary.
    Unregister {
        /// The id `register` returned.
        id: u64,
    },
    /// List every query ever registered (active and detached).
    List,
}

impl Command {
    /// Render the command as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Command::Register {
                sql,
                tenant,
                delay_ms,
                weight,
            } => {
                let mut fields = vec![("cmd", "register".to_json()), ("sql", sql.to_json())];
                if let Some(t) = tenant {
                    fields.push(("tenant", t.to_json()));
                }
                if let Some(d) = delay_ms {
                    fields.push(("delay_ms", (*d as i64).to_json()));
                }
                if let Some(w) = weight {
                    fields.push(("weight", Json::Num(*w)));
                }
                dt_types::json::obj(fields).render()
            }
            Command::Unregister { id } => dt_types::json::obj(vec![
                ("cmd", "unregister".to_json()),
                ("id", (*id as i64).to_json()),
            ])
            .render(),
            Command::List => dt_types::json::obj(vec![("cmd", "list".to_json())]).render(),
        }
    }
}

/// One ingest line, classified: a tuple frame or a control command.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A data tuple for a stream.
    Tuple(Frame),
    /// A control-plane command expecting a reply line.
    Control(Command),
}

/// Parse one ingest line: a `cmd` field makes it a control command,
/// anything else is a tuple frame.
pub fn parse_incoming(line: &str) -> DtResult<Incoming> {
    let json = Json::parse(line)?;
    if json.get("cmd").is_none() {
        return frame_from(&json).map(Incoming::Tuple);
    }
    let bad = |what: &str| DtError::parse_at(format!("{what} (control command)"), 0);
    let cmd = json
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("'cmd' must be a string"))?;
    let command = match cmd {
        "register" => Command::Register {
            sql: json
                .get("sql")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("register needs a string field 'sql'"))?
                .to_string(),
            tenant: match json.get("tenant") {
                None => None,
                Some(t) => Some(
                    t.as_str()
                        .ok_or_else(|| bad("'tenant' must be a string"))?
                        .to_string(),
                ),
            },
            delay_ms: match json.get("delay_ms") {
                None => None,
                Some(d) => Some(
                    d.as_i64()
                        .filter(|&ms| ms >= 0)
                        .ok_or_else(|| bad("'delay_ms' must be a non-negative integer"))?
                        as u64,
                ),
            },
            weight: match json.get("weight") {
                None => None,
                Some(w) => Some(w.as_f64().ok_or_else(|| bad("'weight' must be a number"))?),
            },
        },
        "unregister" => Command::Unregister {
            id: json
                .get("id")
                .and_then(Json::as_i64)
                .filter(|&id| id >= 0)
                .ok_or_else(|| bad("unregister needs a non-negative integer field 'id'"))?
                as u64,
        },
        "list" => Command::List,
        other => return Err(bad(&format!("unknown command '{other}'"))),
    };
    Ok(Incoming::Control(command))
}

/// Parse one frame line.
pub fn parse_frame(line: &str) -> DtResult<Frame> {
    frame_from(&Json::parse(line)?)
}

fn frame_from(json: &Json) -> DtResult<Frame> {
    let bad = |what: &str| DtError::parse_at(format!("{what} (tuple frame)"), 0);
    let stream = json
        .get("stream")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'stream'"))?
        .to_string();
    let row = json
        .get("row")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing array field 'row'"))?;
    let values: Vec<i64> = row
        .iter()
        .map(|v| v.as_i64().ok_or_else(|| bad("row values must be integers")))
        .collect::<DtResult<_>>()?;
    if values.is_empty() {
        return Err(bad("row must not be empty"));
    }
    let ts = match json.get("ts") {
        None => None,
        Some(t) => Some(
            t.as_i64()
                .filter(|&us| us >= 0)
                .map(|us| Timestamp::from_micros(us as u64))
                .ok_or_else(|| bad("'ts' must be a non-negative integer"))?,
        ),
    };
    let tenant = match json.get("tenant") {
        None => None,
        Some(t) => Some(
            t.as_str()
                .ok_or_else(|| bad("'tenant' must be a string"))?
                .to_string(),
        ),
    };
    Ok(Frame {
        stream,
        row: Row::from_ints(&values),
        ts,
        tenant,
    })
}

/// Render one frame line (no trailing newline). Errors if a value is
/// not an integer.
pub fn render_frame(stream: &str, row: &Row, ts: Option<Timestamp>) -> DtResult<String> {
    render_frame_tagged(stream, row, ts, None)
}

/// Render one frame line with an optional tenant lane tag.
pub fn render_frame_tagged(
    stream: &str,
    row: &Row,
    ts: Option<Timestamp>,
    tenant: Option<&str>,
) -> DtResult<String> {
    let values: Vec<Json> = row
        .values()
        .iter()
        .map(|v| {
            v.as_i64()
                .map(|i| i.to_json())
                .ok_or_else(|| DtError::config(format!("frame values must be integers, got {v}")))
        })
        .collect::<DtResult<_>>()?;
    let mut fields = vec![("stream", stream.to_json()), ("row", Json::Arr(values))];
    if let Some(t) = ts {
        fields.push(("ts", (t.micros() as i64).to_json()));
    }
    if let Some(t) = tenant {
        fields.push(("tenant", t.to_json()));
    }
    Ok(dt_types::json::obj(fields).render())
}

/// The longest frame line the [`FrameAssembler`] buffers. A line
/// that grows past it without a newline is rejected and its bytes are
/// discarded through the next newline, so no byte stream can grow a
/// connection's buffer without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A frame line longer than [`MAX_FRAME_BYTES`]: its bytes were
/// discarded, and it counts as one rejected frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong;

/// Incremental NDJSON line splitter over raw socket reads.
///
/// The ingest loop feeds whatever byte chunks the socket yields —
/// which may split a frame mid-line or pack several frames per read —
/// and pulls complete lines out one at a time. Invalid UTF-8 is
/// replaced (the replacement characters then fail frame parsing and
/// count against the connection's error budget rather than killing
/// the read loop). Draining [`FrameAssembler::next_frame`] after every
/// push, as both ingest planes do, keeps the buffer within
/// [`MAX_FRAME_BYTES`] plus one chunk.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    pos: usize,
    /// Where the newline search resumes: `buf[pos..scan]` holds none,
    /// so a long fragment is scanned once, not once per push.
    scan: usize,
    /// Discarding a rejected oversized line through its newline.
    skip: bool,
}

impl FrameAssembler {
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Append a chunk of raw bytes from the socket.
    pub fn push(&mut self, mut chunk: &[u8]) {
        if self.skip {
            match chunk.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    self.skip = false;
                    chunk = &chunk[nl + 1..];
                }
                None => return,
            }
        }
        // Compact once the consumed prefix dominates, so a long-lived
        // connection doesn't grow the buffer without bound.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.scan -= self.pos;
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pull the next complete line (without its newline), or the
    /// rejection of a line longer than [`MAX_FRAME_BYTES`], if any.
    pub fn next_frame(&mut self) -> Option<Result<String, FrameTooLong>> {
        let Some(nl) = self.buf[self.scan..].iter().position(|&b| b == b'\n') else {
            if self.buf.len() - self.pos > MAX_FRAME_BYTES {
                // Drop the fragment now and the rest of the line as
                // it arrives.
                self.buf.clear();
                self.pos = 0;
                self.scan = 0;
                self.skip = true;
                return Some(Err(FrameTooLong));
            }
            self.scan = self.buf.len();
            return None;
        };
        let end = self.scan + nl;
        let mut line = &self.buf[self.pos..end];
        self.pos = end + 1;
        self.scan = self.pos;
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_FRAME_BYTES {
            return Some(Err(FrameTooLong));
        }
        Some(Ok(String::from_utf8_lossy(line).into_owned()))
    }

    /// Pull the next complete line, passing over oversized ones.
    pub fn next_line(&mut self) -> Option<String> {
        loop {
            if let Ok(line) = self.next_frame()? {
                return Some(line);
            }
        }
    }

    /// Take whatever trailing partial line remains (no newline seen).
    /// Used at EOF: a sender that died mid-frame leaves a fragment the
    /// connection still wants to count as a parse error.
    pub fn take_partial(&mut self) -> Option<String> {
        let rest = &self.buf[self.pos..];
        let out = if rest.is_empty() {
            None
        } else {
            Some(String::from_utf8_lossy(rest).into_owned())
        };
        self.buf.clear();
        self.pos = 0;
        self.scan = 0;
        self.skip = false;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        let row = Row::from_ints(&[17, 4]);
        let line = render_frame("R", &row, Some(Timestamp::from_micros(1_500_000))).unwrap();
        let f = parse_frame(&line).unwrap();
        assert_eq!(f.stream, "R");
        assert_eq!(f.row, row);
        assert_eq!(f.ts, Some(Timestamp::from_micros(1_500_000)));
        // Without a timestamp, stamping falls back to `now`.
        let line = render_frame("R", &row, None).unwrap();
        let f = parse_frame(&line).unwrap();
        assert_eq!(f.ts, None);
        let t = f.into_tuple(Timestamp::from_secs(9));
        assert_eq!(t.ts, Timestamp::from_secs(9));
    }

    #[test]
    fn rejects_malformed_frames() {
        assert!(parse_frame("not json").is_err());
        assert!(parse_frame("{}").is_err());
        assert!(parse_frame(r#"{"stream":"R"}"#).is_err());
        assert!(parse_frame(r#"{"stream":"R","row":[]}"#).is_err());
        assert!(parse_frame(r#"{"stream":"R","row":[1.5]}"#).is_err());
        assert!(parse_frame(r#"{"stream":"R","row":[1],"ts":-4}"#).is_err());
        assert!(parse_frame(r#"{"stream":7,"row":[1]}"#).is_err());
    }

    #[test]
    fn tenant_tags_roundtrip() {
        let row = Row::from_ints(&[3]);
        let line = render_frame_tagged("R", &row, None, Some("acme")).unwrap();
        let f = parse_frame(&line).unwrap();
        assert_eq!(f.tenant.as_deref(), Some("acme"));
        assert_eq!(
            parse_frame(r#"{"stream":"R","row":[1]}"#).unwrap().tenant,
            None
        );
        assert!(parse_frame(r#"{"stream":"R","row":[1],"tenant":7}"#).is_err());
    }

    #[test]
    fn incoming_classifies_tuples_and_commands() {
        match parse_incoming(r#"{"stream":"R","row":[1]}"#).unwrap() {
            Incoming::Tuple(f) => assert_eq!(f.stream, "R"),
            other => panic!("{other:?}"),
        }
        let cmd = Command::Register {
            sql: "SELECT a, COUNT(*) FROM R GROUP BY a".into(),
            tenant: Some("acme".into()),
            delay_ms: Some(50),
            weight: Some(2.0),
        };
        match parse_incoming(&cmd.render()).unwrap() {
            Incoming::Control(c) => assert_eq!(c, cmd),
            other => panic!("{other:?}"),
        }
        for cmd in [Command::Unregister { id: 3 }, Command::List] {
            match parse_incoming(&cmd.render()).unwrap() {
                Incoming::Control(c) => assert_eq!(c, cmd),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn incoming_rejects_malformed_commands() {
        assert!(parse_incoming(r#"{"cmd":"register"}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"register","sql":7}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"unregister"}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"unregister","id":-1}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"selfdestruct"}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":7}"#).is_err());
        let err = parse_incoming(r#"{"cmd":"register","sql":"x","weight":"heavy"}"#).unwrap_err();
        assert!(err.to_string().contains("weight"), "{err}");
    }

    #[test]
    fn render_rejects_non_integer_values() {
        use dt_types::Value;
        let row = Row::new(vec![Value::Str("x".into())]);
        assert!(render_frame("R", &row, None).is_err());
    }

    #[test]
    fn assembler_reassembles_lines_across_arbitrary_splits() {
        let text = "alpha\nbeta\r\ngamma\n";
        // Feed the same text one byte at a time, three bytes at a
        // time, and all at once — identical line streams.
        for step in [1usize, 3, text.len()] {
            let mut asm = FrameAssembler::new();
            let mut lines = Vec::new();
            for chunk in text.as_bytes().chunks(step) {
                asm.push(chunk);
                while let Some(l) = asm.next_line() {
                    lines.push(l);
                }
            }
            assert_eq!(lines, vec!["alpha", "beta", "gamma"], "step {step}");
            assert_eq!(asm.take_partial(), None);
        }
    }

    #[test]
    fn assembler_surfaces_trailing_fragment_at_eof() {
        let mut asm = FrameAssembler::new();
        asm.push(b"whole\n{\"stream\":\"R\",\"ro");
        assert_eq!(asm.next_line().as_deref(), Some("whole"));
        assert_eq!(asm.next_line(), None);
        assert_eq!(
            asm.take_partial().as_deref(),
            Some("{\"stream\":\"R\",\"ro")
        );
        // Taking the partial resets the buffer entirely.
        assert_eq!(asm.take_partial(), None);
    }

    #[test]
    fn assembler_replaces_invalid_utf8_instead_of_failing() {
        let mut asm = FrameAssembler::new();
        asm.push(&[0xff, 0xfe, b'\n']);
        let line = asm.next_line().unwrap();
        assert!(!line.is_empty());
        assert!(parse_frame(&line).is_err());
    }

    #[test]
    fn assembler_compacts_long_lived_buffers() {
        let mut asm = FrameAssembler::new();
        for i in 0..10_000 {
            asm.push(format!("line-{i}\n").as_bytes());
            assert!(asm.next_line().is_some());
        }
        // After 10k consumed lines the retained buffer must be far
        // smaller than the ~80 KiB that flowed through it.
        assert!(
            asm.buf.len() < 16 * 1024,
            "buffer grew to {}",
            asm.buf.len()
        );
    }

    #[test]
    fn assembler_caps_a_line_without_newline() {
        let mut asm = FrameAssembler::new();
        let chunk = [b'x'; 4096];
        let mut rejected = 0;
        for _ in 0..(8 << 20) / chunk.len() {
            asm.push(&chunk);
            while let Some(frame) = asm.next_frame() {
                assert_eq!(frame, Err(FrameTooLong));
                rejected += 1;
            }
            assert!(
                asm.buf.len() <= MAX_FRAME_BYTES + chunk.len(),
                "buffer grew to {}",
                asm.buf.len()
            );
        }
        assert_eq!(rejected, 1, "one oversized line is one rejected frame");
        // The rest of the oversized line ends at the next newline; the
        // line after it parses.
        asm.push(b"xxxx\n{\"stream\":\"R\",\"row\":[1]}\n");
        let line = asm.next_frame().expect("a line").expect("within the cap");
        assert_eq!(parse_frame(&line).unwrap().stream, "R");
        assert_eq!(asm.next_frame(), None);
        assert_eq!(asm.take_partial(), None);
    }

    #[test]
    fn assembler_rejects_a_complete_line_over_the_cap() {
        let mut asm = FrameAssembler::new();
        let mut long = vec![b'x'; MAX_FRAME_BYTES + 1];
        long.extend_from_slice(b"\nok\n");
        asm.push(&long);
        assert_eq!(asm.next_frame(), Some(Err(FrameTooLong)));
        assert_eq!(asm.next_frame(), Some(Ok("ok".to_string())));
        assert_eq!(asm.next_frame(), None);
    }
}
