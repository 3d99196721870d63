//! Wall-clock benchmark for the Data Triage server: NDJSON frames in
//! over TCP, merged windows out, scored against the exact answer.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload agg-overload --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` adds the
//! single-threaded per-layer replay and a second live run with dt-obs
//! on, and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` next to this crate for the workloads and metrics.

mod live;
mod replay;
mod score;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use dt_types::{DtError, DtResult, WindowId};

use crate::live::LiveRun;
use crate::replay::{Layer, Replay, LAYERS};
use crate::score::Score;
use crate::workload::{Inputs, Workload};

/// Default workload seed; claims are checked again on the held-out
/// seed 1009 (see README.md).
const DEFAULT_SEED: u64 = 1;
/// Fresh servers started per batch to measure `setup_s`; a run times
/// three batches.
const SETUP_BATCH: usize = 200;
/// `setup_s` is this quantile of a run's start-up times. Start-ups
/// that a momentary stall on the host delays form the upper tail, and
/// a low quantile leaves them out.
const SETUP_QUANTILE: f64 = 0.1;
/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = "e2ebench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> DtResult<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| DtError::config(format!("{flag} needs a value")))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| DtError::config(format!("{flag}: '{v}' is not a whole number")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0,
            other => return Err(DtError::config(format!("unknown flag {other}"))),
        }
    }
    if args.workload.is_empty() {
        return Err(DtError::config("--workload is required"));
    }
    if args.seconds == 0 {
        return Err(DtError::config("--seconds must be at least 1"));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Out {
    metrics: Vec<Metric>,
}

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `name.p50` and `name.p90` of `samples`.
    fn dist(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        self.put(format!("{name}.p50"), quantile(&s, 0.5), unit);
        self.put(format!("{name}.p90"), quantile(&s, 0.9), unit);
    }

    /// [`Out::dist`] plus `name.count`.
    fn dist_n(&mut self, name: &str, samples: &[f64], unit: &'static str, count: u64) {
        self.dist(name, samples, unit);
        self.put(format!("{name}.count"), count as f64, "count");
    }
}

/// Linear-interpolated quantile of sorted samples (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, q)
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> DtResult<()> {
    let args = parse_args()?;
    let wl = Workload::by_name(&args.workload)?;
    // Set-up is timed in three batches spread over the run (before and
    // after generating inputs, and after the live run), so one quiet
    // or busy moment on the host does not set the figure.
    let mut setups: Vec<f64> = Vec::with_capacity(3 * SETUP_BATCH);
    if !args.trace {
        time_setups(&wl, &mut setups)?;
    }
    let inputs = Inputs::generate(&wl, args.seed, args.seconds)?;
    println!(
        "workload {} seed {}: {} tuples over {} s, offered {:.0} t/s, {} windows",
        wl.name,
        args.seed,
        inputs.due_us.len(),
        args.seconds,
        inputs.offered_rate,
        inputs.windows.len()
    );
    let mut out = Out::default();
    let (live, score, extra_violations) = if args.trace {
        traced(&wl, &inputs, &args, &mut out)?
    } else {
        time_setups(&wl, &mut setups)?;
        let live = live::run(&wl, &inputs, false)?;
        time_setups(&wl, &mut setups)?;
        let score = score::score(&wl, &inputs, &live);
        end_to_end(&mut out, &score, quantile_of(&setups, SETUP_QUANTILE));
        (live, score, Vec::new())
    };
    print_report(&wl, &inputs, &live, &score);

    let mut violations = score.violations.clone();
    violations.extend(extra_violations);
    if wl.exact && (score.shed_fraction != 0.0 || score.rms_error != 0.0) {
        violations.push(format!(
            "{}: shed fraction {} and RMS error {} must both be 0",
            wl.name, score.shed_fraction, score.rms_error
        ));
    }
    for v in &violations {
        println!("CHECK FAILED: {v}");
    }
    for m in &out.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", render_result(violations.is_empty(), &score, &out)?);
    Ok(())
}

/// Time [`SETUP_BATCH`] fresh server start-ups into `out`, seconds.
fn time_setups(wl: &Workload, out: &mut Vec<f64>) -> DtResult<()> {
    for _ in 0..SETUP_BATCH {
        out.push(live::measure_setup(wl)?.as_secs_f64());
    }
    Ok(())
}

/// The end-to-end metrics. Each is reported in a form that is never 0
/// on a healthy run (see README.md, "End-to-end metrics").
fn end_to_end(out: &mut Out, score: &Score, setup_s: f64) {
    let mut lat = score.latency_ms.clone();
    lat.sort_by(f64::total_cmp);
    out.put("latency_p50_ms", quantile(&lat, 0.5), "ms");
    out.put("latency_p90_ms", quantile(&lat, 0.9), "ms");
    out.put("kept_fraction", 1.0 - score.shed_fraction, "ratio");
    out.put("answer_accuracy", 1.0 / (1.0 + score.rms_error), "ratio");
    out.put(
        "deadline_met_fraction",
        1.0 - score.deadline_miss_fraction,
        "ratio",
    );
    out.put("delivered_fraction", 1.0 - score.lost_fraction, "ratio");
    out.put("setup_s", setup_s, "s");
}

/// The traced run: live (obs off), the replay without and with spans,
/// live again with dt-obs on. Fills the per-layer metrics.
fn traced(
    wl: &Workload,
    inputs: &Inputs,
    args: &Args,
    out: &mut Out,
) -> DtResult<(LiveRun, Score, Vec<String>)> {
    let live = live::run(wl, inputs, false)?;
    let score = score::score(wl, inputs, &live);
    let windows = &live.report.reports[0].windows;
    let live_payloads: BTreeMap<WindowId, &dt_triage::WindowPayload> = windows
        .iter()
        .filter(|w| w.dropped == 0)
        .map(|w| (w.window, &w.payload))
        .collect();

    // The same replay without spans, then with them: the difference
    // is the tracing overhead.
    let plain = replay::run(wl, inputs, &score.counts, &live_payloads, false)?;
    let rep = replay::run(wl, inputs, &score.counts, &live_payloads, true)?;
    let mut violations = rep.violations.clone();
    let items = |layer: Layer| -> u64 {
        rep.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.items)
            .sum()
    };
    let (kept, dropped) = score
        .counts
        .values()
        .fold((0, 0), |(k, d), &(wk, wd)| (k + wk, d + wd));
    if (items(Layer::Keep), items(Layer::Shed)) != (kept, dropped) {
        violations.push(format!(
            "replay kept/shed {}/{} != live kept/dropped {kept}/{dropped}",
            items(Layer::Keep),
            items(Layer::Shed)
        ));
    }
    write_spans(wl, args, &rep)?;

    let obs_live = live::run(wl, inputs, true)?;
    let cpu_per_tuple = |l: &LiveRun| l.server_cpu.as_nanos() as f64 / l.sent as f64;

    per_layer(out, inputs, &rep, &live, &score);
    out.put(
        "trace.overhead_pct",
        (rep.wall_ns as f64 / plain.wall_ns as f64 - 1.0) * 100.0,
        "%",
    );
    out.put(
        "obs.overhead_pct",
        (cpu_per_tuple(&obs_live) / cpu_per_tuple(&live) - 1.0) * 100.0,
        "%",
    );
    let samples = obs_live.samples.as_ref().expect("obs run samples gauges");
    let n_samples = samples.queue_depth.len() as u64;
    out.dist_n(
        "server.queue_depth",
        &samples.queue_depth,
        "count",
        n_samples,
    );
    out.dist_n(
        "server.sealer_lag_us",
        &samples.sealer_lag_us,
        "us",
        n_samples,
    );
    Ok((live, score, violations))
}

fn per_layer(out: &mut Out, inputs: &Inputs, rep: &Replay, live: &LiveRun, score: &Score) {
    let of = |layer: Layer| rep.spans.iter().filter(move |s| s.layer == layer);
    // Per-item layers: span time over the items it handled.
    for (layer, name) in [
        (Layer::Frame, "frame.decode_ns"),
        (Layer::Keep, "triage.keep_ns"),
        (Layer::Shed, "triage.shed_ns"),
        (Layer::Decide, "controller.decide_ns"),
    ] {
        let per_item: Vec<f64> = of(layer)
            .filter(|s| s.items > 0)
            .map(|s| s.dur_ns as f64 / s.items as f64)
            .collect();
        // The count is of items, so keep and shed counts can be held
        // against the live run's kept and dropped totals.
        out.dist_n(name, &per_item, "ns", of(layer).map(|s| s.items).sum());
    }
    out.put("frame.bytes", rep.frame_bytes as f64, "bytes");
    // Per-window layers.
    for (layer, name, scale, unit) in [
        (Layer::Seal, "triage.seal_us", 1e3, "us"),
        (Layer::Exact, "engine.exact_ms", 1e6, "ms"),
        (Layer::Shadow, "shadow.estimate_ms", 1e6, "ms"),
        (Layer::Close, "registry.close_ms", 1e6, "ms"),
    ] {
        let per_call: Vec<f64> = of(layer).map(|s| s.dur_ns as f64 / scale).collect();
        out.dist_n(name, &per_call, unit, per_call.len() as u64);
    }
    let rows: Vec<f64> = rep.engine_io.iter().map(|&(r, _)| r as f64).collect();
    let groups: Vec<f64> = rep.engine_io.iter().map(|&(_, g)| g as f64).collect();
    out.dist("engine.rows_in", &rows, "count");
    out.dist("engine.groups_out", &groups, "count");
    out.put(
        "synopsis.peak_units",
        live.report.reports[0].totals.peak_synopsis_units as f64,
        "count",
    );
    out.put("synopsis.kept_only_share", score.kept_only_share, "ratio");
    let covered: u64 = rep.spans.iter().map(|s| s.dur_ns).sum();
    out.put(
        "replay.uncovered_share",
        1.0 - covered as f64 / rep.wall_ns as f64,
        "ratio",
    );
    generator(out, inputs, live);
}

fn generator(out: &mut Out, inputs: &Inputs, live: &LiveRun) {
    let mut late: Vec<u32> = live.lateness_us.clone();
    late.sort_unstable();
    let p99 = late[(late.len() - 1) * 99 / 100];
    out.put("generator.lateness_p99_us", p99 as f64, "us");
    out.put(
        "generator.lateness_max_us",
        *late.last().unwrap_or(&0) as f64,
        "us",
    );
    out.put("generator.offered_rate", inputs.offered_rate, "1/s");
    out.put(
        "generator.write_blocked_ms",
        live.write_blocked.as_secs_f64() * 1e3,
        "ms",
    );
}

/// Write the traced replay's spans as JSON under [`TRACE_DIR`].
fn write_spans(wl: &Workload, args: &Args, rep: &Replay) -> DtResult<()> {
    let io = |e: std::io::Error| DtError::engine(format!("writing spans: {e}"));
    fs::create_dir_all(TRACE_DIR).map_err(io)?;
    let names: Vec<String> = LAYERS.iter().map(|l| format!("\"{}\"", l.name())).collect();
    let mut body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"wall_ns\":{},\"layers\":[{}],\
         \"columns\":[\"layer\",\"start_ns\",\"dur_ns\",\"items\",\"window\"],\"spans\":[",
        wl.name,
        args.seed,
        rep.wall_ns,
        names.join(",")
    );
    for (i, s) in rep.spans.iter().enumerate() {
        let layer = LAYERS
            .iter()
            .position(|&l| l == s.layer)
            .expect("known layer");
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "[{layer},{},{},{},{}]",
            s.start_ns, s.dur_ns, s.items, s.window
        ));
    }
    body.push_str("]}\n");
    let path = Path::new(TRACE_DIR).join(format!("spans-{}-{}.json", wl.name, args.seed));
    fs::write(&path, body).map_err(io)?;
    println!("spans: {} written to {}", rep.spans.len(), path.display());
    Ok(())
}

fn print_report(wl: &Workload, inputs: &Inputs, live: &LiveRun, score: &Score) {
    let mut late: Vec<u32> = live.lateness_us.clone();
    late.sort_unstable();
    println!(
        "live: sent {} frames, {} windows emitted, shed_fraction {:.4}, rms_error {:.4}",
        live.sent, live.report.windows_emitted, score.shed_fraction, score.rms_error
    );
    println!(
        "live: {} data windows, latency limit {} ms, deadline_miss_fraction {:.4}, \
         lost_fraction {:.6}",
        inputs.windows.len(),
        wl.latency_limit_ms,
        score.deadline_miss_fraction,
        score.lost_fraction
    );
    println!(
        "generator: offered {:.0} t/s, lateness p99 {} us max {} us, blocked in write {:?}",
        inputs.offered_rate,
        late[(late.len() - 1) * 99 / 100],
        late.last().unwrap_or(&0),
        live.write_blocked
    );
    println!(
        "server cpu: {:?} ({:.0} ns per frame sent)",
        live.server_cpu,
        live.server_cpu.as_nanos() as f64 / live.sent as f64
    );
}

/// The result line: every metric with its unit, full precision.
fn render_result(correct: bool, score: &Score, out: &Out) -> DtResult<String> {
    let mut metrics = Vec::with_capacity(out.metrics.len());
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(DtError::engine(format!("metric {} is {}", m.name, m.value)));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        score.attempted,
        score.failed,
        metrics.join(",")
    ))
}
