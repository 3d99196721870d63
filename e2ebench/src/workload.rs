//! The three workloads and their seeded inputs.
//!
//! Every workload uses 100 ms tumbling windows, 10 ms grace, sparse
//! synopses, one shard per stream and the paper's Gaussian values.
//! Rates are fixed constants; nothing is calibrated at run time.

use std::collections::BTreeMap;

use dt_metrics::{ideal_map, ResultMap};
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_server::{render_frame, ServerConfig};
use dt_synopsis::SynopsisConfig;
use dt_triage::DelayConstraint;
use dt_types::{DataType, DtError, DtResult, Schema, Timestamp, VDuration, WindowId, WindowSpec};
use dt_workload::{generate, ArrivalModel, Gaussian, StreamSpec, WorkloadConfig};

/// Window width shared by every workload, milliseconds.
pub const WINDOW_MS: u64 = 100;
/// Seal grace shared by every workload, milliseconds.
pub const GRACE_MS: u64 = 10;
/// Generated arrival times are shifted by this much past the clock's
/// epoch, so the server is up and connected before the first tuple is
/// due.
pub const START_OFFSET_US: u64 = 200_000;

const AGG_SQL: &str = "SELECT a, COUNT(*) FROM R GROUP BY a";
const JOIN_SQL: &str = "SELECT a, COUNT(*) FROM R, S, T WHERE R.a = S.b AND S.c = T.d GROUP BY a";

/// How a workload's arrival times are drawn.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The aggregate query on `R(a)` at a constant rate.
    AggConstant { rate: f64 },
    /// The aggregate query on `R(a)` under the paper's §6.2.2 bursty
    /// process (bursts 100x faster, values from a shifted Gaussian).
    AggBursty { base_rate: f64 },
    /// The Fig. 7 three-way join over `R(a)`, `S(b,c)`, `T(d)` at a
    /// constant total rate across the three streams.
    JoinConstant { rate: f64 },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    shape: Shape,
    /// Per-stream bounded channel capacity (the triage queue bound).
    pub channel_capacity: usize,
    /// Server delay constraint, if any.
    pub delay_ms: Option<u64>,
    /// A window whose latency exceeds this misses its deadline.
    pub latency_limit_ms: f64,
    /// The queue never fills, so nothing may shed and every answer
    /// must be exact.
    pub exact: bool,
}

/// Every workload, by name.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "agg-overload",
        // 125k t/s (8 µs gaps, exact in whole microseconds) leaves the
        // ingest path about twice the headroom it had at 250k t/s,
        // where a busy host let the socket backlog pass the grace and
        // lose tuples; the 50-tuple queue keeps the worker shedding.
        shape: Shape::AggConstant { rate: 125_000.0 },
        channel_capacity: 50,
        delay_ms: None,
        latency_limit_ms: 50.0,
        exact: false,
    },
    Workload {
        name: "join-exact",
        // 20k t/s (50 µs gaps). The join's cost grows steeply with the
        // rate: at 31k-40k t/s a busy host's slow phases moved latency
        // far more than its bound; here the close takes about 7 ms.
        shape: Shape::JoinConstant { rate: 20_000.0 },
        channel_capacity: 100_000,
        delay_ms: None,
        latency_limit_ms: 250.0,
        exact: true,
    },
    Workload {
        name: "agg-bursty",
        shape: Shape::AggBursty {
            base_rate: 40_000.0,
        },
        channel_capacity: 100,
        delay_ms: Some(20),
        latency_limit_ms: 50.0,
        exact: false,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> DtResult<Workload> {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .copied()
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                DtError::config(format!("unknown workload '{name}' (want one of {names:?})"))
            })
    }

    pub fn sql(&self) -> &'static str {
        match self.shape {
            Shape::JoinConstant { .. } => JOIN_SQL,
            _ => AGG_SQL,
        }
    }

    /// True when the query is a single-stream `COUNT(*) GROUP BY`, so
    /// every window's merged counts (exact + estimated) must add up to
    /// the tuples that arrived in it.
    pub fn counts_every_tuple(&self) -> bool {
        !matches!(self.shape, Shape::JoinConstant { .. })
    }

    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        let int = |cols: &[&str]| {
            let pairs: Vec<(&str, DataType)> = cols.iter().map(|&n| (n, DataType::Int)).collect();
            Schema::from_pairs(&pairs)
        };
        c.add_stream("R", int(&["a"]));
        if let Shape::JoinConstant { .. } = self.shape {
            c.add_stream("S", int(&["b", "c"]));
            c.add_stream("T", int(&["d"]));
        }
        c
    }

    /// The server configuration this workload runs under.
    pub fn server_config(&self) -> DtResult<ServerConfig> {
        let mut cfg = ServerConfig::new(self.sql(), self.catalog());
        cfg.synopsis = SynopsisConfig::default_sparse();
        cfg.window = Some(VDuration::from_millis(WINDOW_MS));
        cfg.grace = VDuration::from_millis(GRACE_MS);
        cfg.channel_capacity = self.channel_capacity;
        cfg.delay = self
            .delay_ms
            .map(DelayConstraint::from_millis)
            .transpose()?;
        cfg.shards = 1;
        Ok(cfg)
    }

    /// The query plan with the benchmark's window applied (for the
    /// offline ideal).
    pub fn plan(&self) -> DtResult<QueryPlan> {
        let mut plan = Planner::new(&self.catalog()).plan(&parse_select(self.sql())?)?;
        for s in &mut plan.streams {
            s.window = window_spec()?;
        }
        Ok(plan)
    }

    fn generator(&self, tuples: usize, seed: u64) -> WorkloadConfig {
        let g = Gaussian::paper_default();
        match self.shape {
            Shape::AggConstant { rate } => WorkloadConfig {
                streams: vec![StreamSpec::uniform_bursts(1, g)],
                arrival: ArrivalModel::Constant { rate },
                total_tuples: tuples,
                seed,
            },
            Shape::AggBursty { base_rate } => WorkloadConfig {
                streams: vec![StreamSpec::paper_bursty(1)],
                arrival: ArrivalModel::paper_bursty(base_rate),
                total_tuples: tuples,
                seed,
            },
            Shape::JoinConstant { rate } => WorkloadConfig::paper_constant(rate, tuples, seed),
        }
    }

    fn nominal_rate(&self) -> f64 {
        match self.shape {
            Shape::AggConstant { rate } | Shape::JoinConstant { rate } => rate,
            Shape::AggBursty { base_rate } => ArrivalModel::paper_bursty(base_rate).mean_rate(),
        }
    }
}

/// The window spec every workload runs on.
pub fn window_spec() -> DtResult<WindowSpec> {
    WindowSpec::new(VDuration::from_millis(WINDOW_MS))
}

/// Per-window facts about what the generator sends.
#[derive(Debug, Clone, Copy, Default)]
pub struct SentWindow {
    /// Tuples whose timestamp falls in the window.
    pub tuples: u64,
    /// The largest timestamp sent into the window (microseconds).
    pub max_ts: u64,
}

/// A workload's generated inputs, rendered to NDJSON before any clock
/// starts.
pub struct Inputs {
    /// Each tuple's scheduled send time (= its `ts`, shifted by
    /// [`START_OFFSET_US`]), microseconds, in send order.
    pub due_us: Vec<u64>,
    /// Every frame line, concatenated.
    pub bytes: Vec<u8>,
    /// `bytes[offsets[i]..offsets[i + 1]]` is tuple `i`'s line.
    pub offsets: Vec<usize>,
    /// Per-window send counts, keyed by window id.
    pub windows: BTreeMap<WindowId, SentWindow>,
    /// The exact answer over every generated tuple.
    pub ideal: ResultMap,
    /// Offered rate implied by the generated timestamps (tuples/s).
    pub offered_rate: f64,
}

impl Inputs {
    /// Generate `seconds` of arrivals for `wl` from `seed`, render the
    /// frames and compute the ideal answer.
    pub fn generate(wl: &Workload, seed: u64, seconds: u64) -> DtResult<Inputs> {
        let horizon_us = seconds * 1_000_000;
        // Bursty arrival times depend on the seed, so the count for a
        // fixed span is not known in advance: over-generate, then cut
        // at the horizon.
        let slack = match wl.shape {
            Shape::AggBursty { .. } => 1.25,
            _ => 1.0,
        };
        let want = (wl.nominal_rate() * seconds as f64 * slack).ceil() as usize + 16;
        let mut arrivals = generate(&wl.generator(want, seed))?;
        arrivals.retain(|(_, t)| t.ts.micros() < horizon_us);
        if arrivals.len() < 2 {
            return Err(DtError::config("workload generated fewer than two tuples"));
        }
        let names: Vec<String> = wl
            .catalog()
            .streams()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let spec = window_spec()?;
        let mut due_us = Vec::with_capacity(arrivals.len());
        let mut bytes = Vec::with_capacity(arrivals.len() * 40);
        let mut offsets = Vec::with_capacity(arrivals.len() + 1);
        let mut windows: BTreeMap<WindowId, SentWindow> = BTreeMap::new();
        offsets.push(0);
        for (stream, tuple) in &mut arrivals {
            let ts = tuple.ts.micros() + START_OFFSET_US;
            tuple.ts = Timestamp::from_micros(ts);
            due_us.push(ts);
            bytes.extend_from_slice(
                render_frame(&names[*stream], &tuple.row, Some(tuple.ts))?.as_bytes(),
            );
            bytes.push(b'\n');
            offsets.push(bytes.len());
            let w = windows.entry(spec.window_of(tuple.ts)).or_default();
            w.tuples += 1;
            w.max_ts = w.max_ts.max(ts);
        }
        let span_s = (due_us[due_us.len() - 1] - due_us[0]) as f64 / 1e6;
        let offered_rate = (arrivals.len() - 1) as f64 / span_s;
        let ideal = ideal_map(&wl.plan()?, &arrivals)?;
        Ok(Inputs {
            due_us,
            bytes,
            offsets,
            windows,
            ideal,
            offered_rate,
        })
    }
}
