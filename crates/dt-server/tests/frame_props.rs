//! Property tests for the NDJSON frame codec and the incremental
//! line assembler.
//!
//! The ingest boundary is the one place the server touches bytes it
//! does not control, so the codec's contract is checked adversarially:
//! `parse ∘ render` is the identity on every well-formed frame,
//! `parse_frame` never panics on arbitrary input (including every
//! prefix of a valid frame — the torn-write shapes the fault injector
//! produces), and the [`FrameAssembler`] yields the same line stream
//! no matter how reads split the bytes.

use dt_server::{parse_frame, parse_incoming, render_frame, FrameAssembler};
use dt_types::{Row, Timestamp};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rendering a frame and parsing it back reproduces the frame.
    /// Values stay inside ±2^53: JSON numbers travel as doubles, so
    /// that is the codec's documented exact-integer range.
    #[test]
    fn render_parse_roundtrip(
        name_sel in 0usize..4,
        values in prop::collection::vec(-(1i64 << 53)..(1i64 << 53), 1..6),
        ts in prop::option::of(0u64..10_000_000_000),
    ) {
        let stream = ["R", "S", "packets", "a_long_stream_name"][name_sel];
        let row = Row::from_ints(&values);
        let ts = ts.map(Timestamp::from_micros);
        let line = render_frame(stream, &row, ts).unwrap();
        let frame = parse_frame(&line).unwrap();
        prop_assert_eq!(frame.stream.as_str(), stream);
        prop_assert_eq!(frame.row, row);
        prop_assert_eq!(frame.ts, ts);
    }

    /// `parse_frame` returns Ok or Err but never panics, on fully
    /// arbitrary byte soup fed through the same lossy UTF-8 path the
    /// server uses.
    #[test]
    fn parse_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_frame(&text);
    }

    /// Every proper prefix of a valid frame is rejected without a
    /// panic — exactly the torn-write corruption the fault plan
    /// injects.
    #[test]
    fn truncated_frames_error_cleanly(
        values in prop::collection::vec(any::<i64>(), 1..4),
        ts in 0u64..1_000_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let row = Row::from_ints(&values);
        let line = render_frame("R", &row, Some(Timestamp::from_micros(ts))).unwrap();
        let cut = ((line.len() as f64) * cut_frac) as usize;
        let prefix = &line[..cut.min(line.len().saturating_sub(1))];
        prop_assert!(parse_frame(prefix).is_err(), "prefix parsed: {:?}", prefix);
    }

    /// The assembler is split-invariant: any chunking of the same
    /// bytes yields the same lines and the same trailing fragment.
    #[test]
    fn assembler_is_split_invariant(
        lines in prop::collection::vec(
            prop::collection::vec(32u8..127, 0..20),
            0..10,
        ),
        trailing in prop::collection::vec(32u8..127, 0..10),
        split_seed in any::<u64>(),
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        for l in &lines {
            // Interior newlines can't occur (range excludes b'\n').
            bytes.extend_from_slice(l);
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(&trailing);

        // Reference: one giant push.
        let mut whole = FrameAssembler::new();
        whole.push(&bytes);
        let mut want = Vec::new();
        while let Some(l) = whole.next_line() {
            want.push(l);
        }
        let want_partial = whole.take_partial();

        // Candidate: pseudo-random splits derived from the seed.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut rest = &bytes[..];
        let mut state = split_seed | 1;
        while !rest.is_empty() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let take = 1 + (state as usize) % rest.len().min(7);
            let (chunk, tail) = rest.split_at(take.min(rest.len()));
            asm.push(chunk);
            while let Some(l) = asm.next_line() {
                got.push(l);
            }
            rest = tail;
        }
        let got_partial = asm.take_partial();

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_partial, want_partial);
        prop_assert_eq!(want.len(), lines.len());
    }

    /// A stream of rendered frames split at arbitrary read boundaries
    /// — including zero-length chunks, which a readiness-layer read
    /// may legally deliver — reassembles and decodes bit-identically
    /// to a one-shot decode of the whole stream. This is the
    /// event-loop plane's core invariant: chopped reads
    /// (`FaultPlan::read_chop`) change only the chunking, never the
    /// decoded frames.
    #[test]
    fn chopped_frame_stream_decodes_identically(
        frames in prop::collection::vec(
            (prop::collection::vec(-(1i64 << 53)..(1i64 << 53), 1..4), 0u64..1_000_000),
            1..12,
        ),
        cuts in prop::collection::vec(any::<usize>(), 0..40),
        zeros in prop::collection::vec(0usize..40, 0..6),
    ) {
        let mut bytes = Vec::new();
        let mut rendered = Vec::new();
        for (values, ts) in &frames {
            let row = Row::from_ints(values);
            let ts = Timestamp::from_micros(*ts);
            let line = render_frame("R", &row, Some(ts)).unwrap();
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            rendered.push((row, ts));
        }

        // Reference: one-shot decode of the whole byte stream.
        let mut whole = FrameAssembler::new();
        whole.push(&bytes);
        let mut want = Vec::new();
        while let Some(l) = whole.next_line() {
            want.push(l);
        }
        prop_assert!(whole.take_partial().is_none());

        // Candidate: cut the stream anywhere (1..=n chunks), and
        // sprinkle zero-length reads between chunks.
        let mut points: Vec<usize> = cuts.iter().map(|i| i % (bytes.len() + 1)).collect();
        points.push(0);
        points.push(bytes.len());
        points.sort_unstable();
        points.dedup();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for (k, pair) in points.windows(2).enumerate() {
            if zeros.contains(&k) {
                asm.push(&[]); // a read that returned no bytes
            }
            asm.push(&bytes[pair[0]..pair[1]]);
            while let Some(l) = asm.next_line() {
                got.push(l);
            }
        }
        prop_assert_eq!(&got, &want);
        prop_assert!(asm.take_partial().is_none());
        // And the decoded frames match the rendered inputs exactly.
        prop_assert_eq!(got.len(), rendered.len());
        for (line, (row, ts)) in got.iter().zip(&rendered) {
            let f = parse_frame(line).unwrap();
            prop_assert_eq!(&f.row, row);
            prop_assert_eq!(f.ts, Some(*ts));
        }
    }
}

/// The reproduced wire-boundary crash: one line of 200k `[` used to
/// recurse once per bracket and overflow the decoding thread's stack.
/// The parser's nesting cap turns it into an ordinary parse error,
/// through both the bare JSON decoder and the ingest classifier.
#[test]
fn deeply_nested_line_is_an_error_not_a_stack_overflow() {
    let line = "[".repeat(200_000);
    assert!(dt_types::Json::parse(&line).is_err());
    assert!(parse_incoming(&line).is_err());
    let framed = format!("{{\"stream\":\"R\",\"row\":{line}");
    assert!(parse_incoming(&framed).is_err());
}
