//! The traced replay: the live run's inputs pushed single-threaded
//! through each layer's public functions, in the order the server
//! calls them, with a span around every call.
//!
//! Per window: decode the window's frames (`FrameAssembler` +
//! `parse_incoming`), ask the admission controller per tuple, fold
//! kept and shed tuples into `StreamTriage`, seal, then close the
//! window three ways — the exact engine (`QueryExecutor::exact_batch`,
//! the row path `close_ref` runs), the shadow estimate and merge
//! (`QueryExecutor::payload`), and the registry close
//! (`QueryRegistry::close_window`, which runs both again inside).
//!
//! Which tuples the live run shed is not observable, only how many per
//! window, so the replay sheds the live run's per-window `dropped`
//! count, spread evenly over the window's tuples in arrival order.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dt_obs::MetricsRegistry;
use dt_registry::{QueryRegistry, QuerySpec, RegistryConfig, WindowInputs};
use dt_server::{parse_incoming, FrameAssembler, Incoming};
use dt_triage::{
    merge_sealed, FairController, QueryExecutor, SharedController, ShedDecision, ShedMode,
    StreamTriage, SynPair, WindowPayload,
};
use dt_types::{DtError, DtResult, Row, Timestamp, Tuple, WindowId};

use crate::workload::{window_spec, Inputs, Workload};

/// Bytes pushed into the frame assembler per call (one socket read).
const READ_CHUNK: usize = 4096;
/// Tuples per controller / keep / shed span.
const FOLD_CHUNK: usize = 256;

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Frame,
    Decide,
    Keep,
    Shed,
    Seal,
    Exact,
    Shadow,
    Close,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Frame,
    Layer::Decide,
    Layer::Keep,
    Layer::Shed,
    Layer::Seal,
    Layer::Exact,
    Layer::Shadow,
    Layer::Close,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Frame => "frame.decode",
            Layer::Decide => "controller.decide",
            Layer::Keep => "triage.keep",
            Layer::Shed => "triage.shed",
            Layer::Seal => "triage.seal",
            Layer::Exact => "engine.exact",
            Layer::Shadow => "shadow.estimate",
            Layer::Close => "registry.close",
        }
    }
}

/// One recorded call: which layer, when (ns since replay start), how
/// long, how many items it handled, and the window it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub items: u64,
    pub window: WindowId,
}

/// Span recorder; with `on = false` it only runs the closures.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(&mut self, layer: Layer, window: WindowId, items: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start_ns: (t0 - self.origin).as_nanos() as u64,
            dur_ns,
            items,
            window,
        });
        out
    }
}

/// What one replay produced.
pub struct Replay {
    pub wall_ns: u64,
    pub spans: Vec<Span>,
    /// Per window: exact-engine input rows and output groups.
    pub engine_io: Vec<(u64, u64)>,
    /// Bytes decoded.
    pub frame_bytes: u64,
    /// Integrity failures, one line each.
    pub violations: Vec<String>,
}

/// Replay `inputs`, shedding per window as the live run did
/// (`live_counts`). `live_payloads` holds the live answer of every
/// window that shed nothing; the replay must reproduce those exactly.
pub fn run(
    wl: &Workload,
    inputs: &Inputs,
    live_counts: &BTreeMap<WindowId, (u64, u64)>,
    live_payloads: &BTreeMap<WindowId, &WindowPayload>,
    traced: bool,
) -> DtResult<Replay> {
    let cfg = wl.server_config()?;
    let spec = window_spec()?;
    let mode = ShedMode::DataTriage;
    let catalog = wl.catalog();
    let names: Vec<String> = catalog.streams().iter().map(|(n, _)| n.clone()).collect();
    let arities: Vec<usize> = catalog.streams().iter().map(|(_, s)| s.arity()).collect();
    let exec: QueryExecutor = cfg.compile()?;
    let registry = QueryRegistry::new(
        RegistryConfig {
            catalog,
            mode,
            spec,
            override_windows: true,
        },
        MetricsRegistry::disabled(),
    )?;
    registry.register(QuerySpec::new(wl.sql()))?;
    // The server's admission controller, primed from the same cost hint.
    let syn_us = cfg.cost_hint.synopsis_insert_time.micros() as f64;
    let main_us = cfg.cost_hint.service_time.micros() as f64 + syn_us;
    let base = Arc::new(SharedController::with_constraint(
        cfg.delay, main_us, syn_us,
    ));
    let admission = FairController::new(Arc::clone(&base), cfg.delay);

    let first = *inputs.windows.keys().next().expect("inputs are non-empty");
    // One worker triage per stream, in the merge mode the server's
    // workers use for mergeable synopses.
    let mut triages: Vec<StreamTriage> = arities
        .iter()
        .enumerate()
        .map(|(i, &arity)| {
            let mut t = StreamTriage::new(i, arity, mode, cfg.synopsis, spec).sharded(0);
            t.resume_from(first);
            t
        })
        .collect();
    let mut seqs = vec![0u64; names.len()];
    let mut tracer = Tracer {
        on: traced,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut out = Replay {
        wall_ns: 0,
        spans: Vec::new(),
        engine_io: Vec::new(),
        frame_bytes: 0,
        violations: Vec::new(),
    };
    let mut asm = FrameAssembler::new();
    let mut start = 0usize;
    let mut tuples: Vec<(usize, Tuple)> = Vec::new();
    for (&w, sent) in &inputs.windows {
        let end = start + sent.tuples as usize;
        // Decode: the window's bytes in socket-read-sized pushes.
        tuples.clear();
        let bytes = &inputs.bytes[inputs.offsets[start]..inputs.offsets[end]];
        out.frame_bytes += bytes.len() as u64;
        for chunk in bytes.chunks(READ_CHUNK) {
            // Every newline in the push completes one frame.
            let lines = chunk.iter().filter(|&&b| b == b'\n').count() as u64;
            tracer.span(Layer::Frame, w, lines, || -> DtResult<()> {
                asm.push(chunk);
                while let Some(line) = asm.next_line() {
                    let Incoming::Tuple(frame) = parse_incoming(&line)? else {
                        return Err(DtError::engine("replay decoded a control frame"));
                    };
                    let stream = names
                        .iter()
                        .position(|n| *n == frame.stream)
                        .ok_or_else(|| DtError::config("replay: unknown stream"))?;
                    tuples.push((stream, frame.into_tuple(Timestamp::ZERO)));
                }
                Ok(())
            })?;
        }
        if tuples.len() != end - start {
            out.violations.push(format!(
                "window {w}: decoded {} frames, sent {}",
                tuples.len(),
                end - start
            ));
        }
        start = end;

        // Admission: one decision per tuple, as ingest asks.
        for chunk in tuples.chunks(FOLD_CHUNK) {
            tracer.span(Layer::Decide, w, chunk.len() as u64, || {
                for _ in chunk {
                    if admission.decide(None) == ShedDecision::Keep {
                        base.on_enqueue();
                    }
                }
            });
        }

        // Split as the live run did: its dropped count, spread evenly.
        let n = tuples.len() as u64;
        let (live_kept, live_dropped) = live_counts.get(&w).copied().unwrap_or((n, 0));
        let dropped = live_dropped.min(n);
        let lossless = live_kept + live_dropped == n;
        let mut kept: Vec<Vec<(Tuple, u64)>> = vec![Vec::new(); names.len()];
        let mut shed: Vec<Vec<(Tuple, u64)>> = vec![Vec::new(); names.len()];
        for (k, (s, t)) in tuples.drain(..).enumerate() {
            let k = k as u64;
            let seq = seqs[s];
            seqs[s] += 1;
            if (k + 1) * dropped / n.max(1) > k * dropped / n.max(1) {
                shed[s].push((t, seq));
            } else {
                kept[s].push((t, seq));
            }
        }
        for (s, triage) in triages.iter_mut().enumerate() {
            for chunk in kept[s].chunks(FOLD_CHUNK) {
                tracer.span(Layer::Keep, w, chunk.len() as u64, || {
                    triage.keep_batch_seq(chunk)
                })?;
            }
            base.on_dequeue(kept[s].len());
            for chunk in shed[s].chunks(FOLD_CHUNK) {
                tracer.span(Layer::Shed, w, chunk.len() as u64, || -> DtResult<()> {
                    for (t, seq) in chunk {
                        triage.shed_seq(t, *seq)?;
                    }
                    Ok(())
                })?;
            }
        }

        // Seal every stream's window, as the merger's watermark does.
        let mut rows: Vec<Vec<Row>> = Vec::with_capacity(triages.len());
        let mut pairs: Vec<SynPair> = Vec::with_capacity(triages.len());
        let mut counts: Vec<(u64, u64)> = Vec::with_capacity(triages.len());
        for triage in &mut triages {
            let sealed = tracer.span(Layer::Seal, w, 1, || -> DtResult<_> {
                let mut parts = triage.seal_through(w)?;
                let part = parts
                    .pop()
                    .ok_or_else(|| DtError::engine("nothing sealed"))?;
                merge_sealed(vec![part])
            })?;
            counts.push((sealed.kept, sealed.dropped));
            rows.push(sealed.rows);
            pairs.push(
                sealed
                    .syn
                    .ok_or_else(|| DtError::engine("sealed window without synopses"))?,
            );
        }
        let (k, d) = counts
            .iter()
            .fold((0, 0), |(k, d), &(sk, sd)| (k + sk, d + sd));
        if lossless && (k, d) != (live_kept, live_dropped) {
            out.violations.push(format!(
                "window {w}: replay kept/dropped {k}/{d}, live {live_kept}/{live_dropped}"
            ));
        }

        // Close: exact engine, shadow estimate + merge, registry close.
        let exact = tracer.span(Layer::Exact, w, 1, || exec.exact_batch(0, &rows))?;
        let rows_in: u64 = rows.iter().map(|r| r.len() as u64).sum();
        out.engine_io.push((rows_in, exact.len() as u64));
        let payload = tracer.span(Layer::Shadow, w, 1, || exec.payload(0, exact, Some(&pairs)))?;
        let closes = tracer.span(Layer::Close, w, 1, || {
            registry.close_window(
                w,
                WindowInputs {
                    rows: &rows,
                    pairs: Some(&pairs),
                    counts: &counts,
                },
            )
        })?;
        if closes.len() != 1 || !same_payload(&closes[0].1.payload, &payload) {
            out.violations.push(format!(
                "window {w}: registry close differs from exact + payload"
            ));
        }
        if let Some(live) = live_payloads.get(&w) {
            if d == 0 && lossless && !same_payload(live, &payload) {
                out.violations.push(format!(
                    "window {w}: replay answer differs from the live answer"
                ));
            }
        }
    }
    out.wall_ns = tracer.origin.elapsed().as_nanos() as u64;
    out.spans = tracer.spans;
    Ok(out)
}

fn same_payload(a: &WindowPayload, b: &WindowPayload) -> bool {
    match (a, b) {
        (WindowPayload::Groups(a), WindowPayload::Groups(b)) => a == b,
        _ => false,
    }
}
