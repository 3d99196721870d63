//! The runtime: ingest, workers, merger, control plane.
//!
//! [`Server::start`] compiles the configured queries, spawns one
//! triage worker per physical stream, a window merger, and (when an
//! address is given) a TCP acceptor for NDJSON tuple frames. The
//! [`ServerHandle`] is the cheap, cloneable ingest facade shared by
//! connection threads and in-process [`crate::Source`]s;
//! [`Server::shutdown`] runs the graceful drain and returns the final
//! [`ServerReport`].

use crate::config::ServerConfig;
use crate::fault::FaultPlan;
use crate::frame::{parse_frame, parse_incoming, Command, FrameAssembler, FrameTooLong, Incoming};
use crate::ingest::{IngestSession, LineVerdict};
use crate::obs::{ServerObs, WorkerObs, FAULT_PANIC, FAULT_STALL};
use crate::stats::query_info_json;
use crate::stats::{ServerReport, ServerStats};
use crate::worker::{run_worker, Ctl, SeqTuple, TriageFactory, WorkerCtx};
use crossbeam::channel::{unbounded, Receiver, Sender};
use dt_obs::MetricsRegistry;
use dt_registry::{QueryId, QueryInfo, QueryRegistry, QuerySpec, RegistryConfig};
use dt_synopsis::SynopsisConfig;
use dt_triage::{
    merge_sealed, ControllerGauges, DelayConstraint, FairController, RunReport, RunTotals,
    SealedWindow, ShardQueues, ShardRouter, SharedController, ShedDecision, ShedMode, SynPair,
    WindowResult,
};
use dt_types::{json, Json, ToJson};
use dt_types::{Clock, DtError, DtResult, Timestamp, Tuple, VDuration, WindowId, WindowSpec};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest the merger blocks on its inbox before re-reading the
/// clock, so the watchdog and virtual-clock tests are still looked at.
const MERGER_POLL: Duration = Duration::from_millis(2);
/// How often blocked connection reads re-check the stop flag.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Real time the watchdog waits after a watermark broadcast before it
/// may force-seal. A healthy worker answers a watermark in
/// microseconds; under a virtual clock a single `set` can make the
/// (virtual) watchdog deadline pass in the same instant the watermark
/// first goes out, and this guard keeps the watchdog from racing the
/// healthy seal already in flight.
const WATCHDOG_REAL_GRACE: Duration = Duration::from_millis(200);

/// The merger's one inbox: workers send their sealed partials,
/// `shutdown` sends `Stop` once every worker has drained and joined
/// (so every partial is already ahead of it in the queue).
pub(crate) enum MergerMsg {
    Sealed(Box<SealedWindow>),
    Stop,
}

/// State shared by every ingest path.
struct Inner {
    /// The query registry: the physical stream table and every
    /// registered query's compiled plan (see `dt-registry`).
    registry: Arc<QueryRegistry>,
    stats: Arc<ServerStats>,
    clock: Arc<dyn Clock>,
    mode: ShedMode,
    metrics: MetricsRegistry,
    obs: ServerObs,
    /// One shard-queue group per stream — the bounded triage queues
    /// the worker group pops (and steals) from. With `shards == 1`
    /// this is the classic single bounded queue.
    queues: Vec<Arc<ShardQueues<SeqTuple>>>,
    /// Per-stream shard routers: hash on the query's group key, or
    /// round-robin for keyless plans.
    routers: Vec<ShardRouter>,
    /// Per-stream ingest sequence counters. Every offered tuple —
    /// kept or shed — is stamped *before* shard routing, so the merge
    /// step can restore arrival order deterministically regardless of
    /// partitioning or stealing (DESIGN.md §15).
    seqs: Vec<AtomicU64>,
    /// Worker-group size per stream.
    shards: usize,
    /// Control lanes, one per (stream, shard), flat-indexed
    /// `stream * shards + shard`.
    ctl_tx: Vec<Sender<Ctl>>,
    /// One admission controller per stream, always present. Without a
    /// server-wide [`ServerConfig::delay`] and without tenant lanes
    /// the base controller is unconstrained — it keeps everything and
    /// channel overflow stays the only shed signal. Runtime
    /// registrations tighten it and add weighted-fair lanes.
    admission: Vec<FairController>,
    stop: AtomicBool,
    /// The active fault-injection schedule (disabled in production).
    fault: FaultPlan,
    /// Rejected frames tolerated per ingest connection before it is
    /// closed with a structured error frame.
    error_budget: u64,
    /// Ingest-connection ids, drawn lazily at a connection's first
    /// data line (HTTP probes never draw one, keeping the ids — and
    /// thus the fault schedule — deterministic for test harnesses).
    conn_seq: AtomicU64,
}

/// Cloneable ingest facade onto a running server.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// The physical stream index for a catalog stream name.
    pub fn stream_index(&self, name: &str) -> Option<usize> {
        self.inner
            .registry
            .streams()
            .iter()
            .position(|s| s.name == name)
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.inner.stats
    }

    /// The server's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// The (single) window spec every query shares.
    pub fn spec(&self) -> WindowSpec {
        self.inner.registry.spec()
    }

    /// Register a continuous query at runtime; it first appears in
    /// the next emitted window. Rebuilds the affected streams'
    /// fair-shedding lanes before returning.
    pub fn register(&self, spec: QuerySpec) -> DtResult<QueryId> {
        let id = self.inner.registry.register(spec)?;
        self.sync_lanes();
        Ok(id)
    }

    /// Detach query `id` at the next window boundary, returning the
    /// first window it no longer covers.
    pub fn unregister(&self, id: QueryId) -> DtResult<WindowId> {
        let boundary = self.inner.registry.unregister(id)?;
        self.sync_lanes();
        Ok(boundary)
    }

    /// Frozen views of every query ever registered, in id order.
    pub fn queries(&self) -> Vec<QueryInfo> {
        self.inner.registry.list()
    }

    /// Re-derive each stream's tenant lanes from the active query
    /// set. Lanes are derived state, so a failure here is impossible
    /// by construction (names are unique, weights validated at
    /// registration); `expect` documents that invariant.
    fn sync_lanes(&self) {
        for (p, fc) in self.inner.admission.iter().enumerate() {
            fc.set_lanes(&self.inner.registry.lanes_for_stream(p))
                .expect("registry-derived lanes are valid");
        }
    }

    /// Offer one tuple to a stream. This is the triage step: the
    /// tuple either enters the stream's bounded channel (kept) or,
    /// when the channel is full, is rerouted to the worker's control
    /// lane as a shed victim — it still reaches the window's dropped
    /// synopsis, it just skips exact processing.
    pub fn offer(&self, stream: usize, tuple: Tuple) -> DtResult<()> {
        self.offer_tagged(stream, tuple, None)
    }

    /// [`ServerHandle::offer`] with a tenant lane tag: the stream's
    /// [`FairController`] charges the shed decision to the tenant's
    /// lane (untagged tuples land in the catch-all lane).
    pub fn offer_tagged(&self, stream: usize, tuple: Tuple, tenant: Option<&str>) -> DtResult<()> {
        let inner = &*self.inner;
        let shared = inner
            .registry
            .streams()
            .get(stream)
            .ok_or_else(|| DtError::config(format!("no stream with index {stream}")))?;
        if tuple.arity() != shared.schema.arity() {
            return Err(DtError::schema(format!(
                "tuple arity {} does not match stream '{}' arity {}",
                tuple.arity(),
                shared.name,
                shared.schema.arity()
            )));
        }
        let counters = inner.stats.stream(stream);
        counters.offered.fetch_add(1, Ordering::SeqCst);
        // Stamp the per-stream ingest sequence *before* routing: kept
        // and shed tuples alike carry it, so the seal-time merge can
        // re-sort rows into arrival order whatever shard they landed
        // on (or were stolen to).
        let seq = inner.seqs[stream].fetch_add(1, Ordering::SeqCst);
        let shard = inner.routers[stream].route(&tuple.row);
        let ctl = &inner.ctl_tx[stream * inner.shards + shard];
        let shed = |t: Tuple| -> DtResult<()> {
            ctl.send(Ctl::Shed(t, seq))
                .map_err(|_| DtError::engine("stream worker is gone"))?;
            counters.shed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        match inner.mode {
            // Summarize-only never touches the engine at all.
            ShedMode::SummarizeOnly => shed(tuple),
            ShedMode::DropOnly | ShedMode::DataTriage => {
                // The adaptive controller sheds *before* the hard
                // channel bound: once the backlog could no longer
                // drain within the delay constraint, the tuple goes
                // straight to the control lane as a victim. The fair
                // controller charges the decision to the tenant's
                // lane when lanes are configured.
                let fc = &inner.admission[stream];
                if fc.decide(tenant) == ShedDecision::Shed {
                    return shed(tuple);
                }
                // The gauge is bumped *before* the push so a worker's
                // decrement can never observe a tuple whose increment
                // hasn't landed yet.
                let depth = &inner.obs.queue_depth[stream];
                depth.add(1);
                match inner.queues[stream].push(shard, (tuple, seq)) {
                    Ok(()) => {
                        fc.base().on_enqueue();
                        counters.kept.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }
                    Err((t, _)) => {
                        // The shard's queue is full — this tuple is the
                        // overflow victim (`Newest` policy, as ever).
                        depth.sub(1);
                        shed(t)
                    }
                }
            }
        }
    }

    /// Offer a frame line exactly as the TCP path does: resolve the
    /// stream by name, stamp a missing timestamp with `Clock::now()`.
    pub fn offer_frame(&self, line: &str) -> DtResult<()> {
        self.inner.obs.ingest_frames.inc();
        self.inner.obs.ingest_bytes.add(line.len() as u64);
        let frame = parse_frame(line)?;
        self.offer_parsed(frame)
    }

    fn offer_parsed(&self, frame: crate::frame::Frame) -> DtResult<()> {
        let stream = self
            .stream_index(&frame.stream)
            .ok_or_else(|| DtError::config(format!("unknown stream '{}'", frame.stream)))?;
        let tenant = frame.tenant.clone();
        let tuple = frame.into_tuple(self.inner.clock.now());
        self.offer_tagged(stream, tuple, tenant.as_deref())
    }

    /// Ingest one wire line: a tuple frame (no reply) or a control
    /// command (`Ok(Some(reply))` — the caller writes the reply line
    /// back on the connection). An `Err` means the line was
    /// malformed or unroutable and counts against the connection's
    /// error budget; a well-formed command that *fails* (bad SQL,
    /// unknown id) is still answered, as `{"error":…}`.
    pub fn ingest_line(&self, line: &str) -> DtResult<Option<String>> {
        self.inner.obs.ingest_frames.inc();
        self.inner.obs.ingest_bytes.add(line.len() as u64);
        match parse_incoming(line)? {
            Incoming::Tuple(frame) => self.offer_parsed(frame).map(|()| None),
            Incoming::Control(cmd) => Ok(Some(self.control(cmd).render())),
        }
    }

    /// Execute one control command, producing the reply document.
    fn control(&self, cmd: Command) -> Json {
        let err = |e: DtError| json::obj(vec![("error", Json::Str(e.to_string()))]);
        match cmd {
            Command::Register {
                sql,
                tenant,
                delay_ms,
                weight,
            } => {
                let delay = match delay_ms.map(DelayConstraint::from_millis).transpose() {
                    Ok(d) => d,
                    Err(e) => return err(e),
                };
                let mut spec = QuerySpec::new(sql);
                spec.tenant = tenant;
                spec.delay = delay;
                if let Some(w) = weight {
                    spec = spec.weight(w);
                }
                match self.register(spec) {
                    Ok(id) => json::obj(vec![
                        ("registered", (id as i64).to_json()),
                        (
                            "active_from",
                            (self.inner.registry.emit_cursor() as i64).to_json(),
                        ),
                    ]),
                    Err(e) => err(e),
                }
            }
            Command::Unregister { id } => match self.unregister(id) {
                Ok(boundary) => json::obj(vec![
                    ("unregistered", (id as i64).to_json()),
                    ("active_to", (boundary as i64).to_json()),
                ]),
                Err(e) => err(e),
            },
            Command::List => json::obj(vec![(
                "queries",
                Json::Arr(self.queries().iter().map(query_info_json).collect()),
            )]),
        }
    }

    // ---- crate-internal accessors for the ingest planes ----------

    /// Server-side instruments.
    pub(crate) fn obs(&self) -> &ServerObs {
        &self.inner.obs
    }

    /// The active fault-injection schedule.
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.inner.fault
    }

    /// Rejected frames tolerated per connection.
    pub(crate) fn error_budget(&self) -> u64 {
        self.inner.error_budget
    }

    /// Draw the next ingest-connection id (lazily, at a connection's
    /// first data line, so HTTP probes never consume one).
    pub(crate) fn next_conn_id(&self) -> u64 {
        self.inner.conn_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// True once shutdown has begun.
    pub(crate) fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// The `/stats` JSON body (newline-terminated).
    pub(crate) fn stats_body(&self) -> String {
        format!("{}\n", render_stats(&self.inner).render())
    }

    /// The `/metrics` Prometheus text exposition.
    pub(crate) fn metrics_body(&self) -> String {
        self.inner.metrics.render_prometheus()
    }

    /// Account one rejected ingest frame (malformed or unroutable).
    pub(crate) fn note_rejected_frame(&self) {
        let inner = &*self.inner;
        inner.obs.ingest_errors.inc();
        inner.obs.frames_rejected.inc();
        inner.stats.parse_errors.fetch_add(1, Ordering::SeqCst);
    }
}

/// A running server. Dropping it without [`Server::shutdown`] detaches
/// the threads; call `shutdown` to drain and collect the report.
pub struct Server {
    handle: ServerHandle,
    addr: Option<SocketAddr>,
    workers: Vec<JoinHandle<DtResult<()>>>,
    merger: Option<JoinHandle<DtResult<ServerReport>>>,
    merger_tx: Sender<MergerMsg>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// The event-loop plane's reactor pool (empty under `Threaded` or
    /// when serving no socket).
    #[cfg(target_os = "linux")]
    reactors: Arc<Vec<crate::reactor::Reactor>>,
}

impl Server {
    /// Compile `cfg` and start the runtime on `clock`. With
    /// `addr = Some("127.0.0.1:0")` an NDJSON TCP listener is bound
    /// (port 0 picks a free port — read it back with
    /// [`Server::addr`]); with `None` the server is in-process only.
    pub fn start(
        cfg: &ServerConfig,
        addr: Option<&str>,
        clock: Arc<dyn Clock>,
    ) -> DtResult<Server> {
        // Compile the configured queries the classic way first: this
        // validates the whole config (capacity, budget, SQL) and
        // discovers the shared window spec the registry enforces.
        let exec = cfg.compile()?;
        let spec = exec.spec();
        drop(exec);
        let registry = Arc::new(QueryRegistry::new(
            RegistryConfig {
                catalog: cfg.catalog.clone(),
                mode: cfg.mode,
                spec,
                override_windows: cfg.window.is_some(),
            },
            cfg.metrics.clone(),
        )?);
        // The configured queries become registrations 0..n, so their
        // results keep their positions in the final report.
        for sql in &cfg.queries {
            registry.register(QuerySpec::new(sql.clone()))?;
        }
        let names: Vec<String> = registry.streams().iter().map(|s| s.name.clone()).collect();
        let stats = Arc::new(ServerStats::new(&names));
        // Register every instrument up front: a scrape against an idle
        // server still returns the full (zero-valued) series set.
        let shards = cfg.shards.max(1);
        let obs = ServerObs::register(&cfg.metrics, &names, shards);

        // One admission controller per stream, unconditionally — a
        // runtime registration may tighten the constraint later. The
        // EWMAs are primed from the cost hint so the threshold is
        // meaningful from the first tuple; the workers replace the
        // hint with measured costs as they process. Without a
        // constraint the base controller keeps everything.
        let constraint = cfg.delay.filter(|_| cfg.mode.uses_engine());
        let syn_us = cfg.cost_hint.synopsis_insert_time.micros() as f64;
        let main_us = cfg.cost_hint.service_time.micros() as f64
            + if cfg.mode == ShedMode::DataTriage {
                syn_us
            } else {
                0.0
            };
        let triage_us = if cfg.mode.uses_synopses() {
            syn_us
        } else {
            0.0
        };
        let admission: Vec<FairController> = names
            .iter()
            .map(|name| {
                let mut base = SharedController::with_constraint(constraint, main_us, triage_us);
                // The Prometheus gauge surface stays keyed to the
                // configured constraint: an unconstrained server
                // exports no dt_triage_* series (runtime-registered
                // constraints still run and report through /stats).
                if constraint.is_some() {
                    base = base.with_gauges(ControllerGauges::register(&cfg.metrics, name));
                }
                FairController::new(Arc::new(base), constraint)
            })
            .collect();

        let mut queues = Vec::new();
        let mut routers = Vec::new();
        let mut ctl_tx = Vec::new();
        let mut workers = Vec::new();
        let (merger_tx, merger_rx) = unbounded::<MergerMsg>();
        for (i, s) in registry.streams().iter().enumerate() {
            // The whole group drains one backlog: the controller's
            // threshold scales with the number of drains.
            admission[i].base().set_drains(shards);
            // Partition on the active queries' group key when there is
            // exactly one; round-robin otherwise (DESIGN.md §15).
            routers.push(ShardRouter::new(shards, registry.group_key_col(i)));
            let q = Arc::new(
                ShardQueues::new(shards, cfg.channel_capacity)
                    .with_gauges(obs.shard_depth[i].clone()),
            );
            for k in 0..shards {
                let (ctx_tx, crx) = unbounded::<Ctl>();
                let factory = TriageFactory {
                    stream: i,
                    shard: k,
                    arity: s.schema.arity(),
                    mode: cfg.mode,
                    synopsis: cfg.synopsis,
                    spec,
                    metrics: cfg.metrics.clone(),
                    name: s.name.clone(),
                };
                let wctx = WorkerCtx {
                    stream: i,
                    shard: k,
                    factory,
                    queues: Arc::clone(&q),
                    ctl_rx: crx,
                    merger_tx: merger_tx.clone(),
                    clock: Arc::clone(&clock),
                    pace: cfg.pace_by_timestamp,
                    spec,
                    stats: Arc::clone(&stats),
                    obs: WorkerObs::register(
                        &cfg.metrics,
                        &s.name,
                        k,
                        shards,
                        obs.queue_depth[i].clone(),
                    ),
                    controller: Some(Arc::clone(admission[i].base())),
                    fault: cfg.fault.clone(),
                    fault_panic_ctr: obs.faults_injected[FAULT_PANIC].clone(),
                    fault_stall_ctr: obs.faults_injected[FAULT_STALL].clone(),
                };
                // Single-shard groups keep the classic thread name.
                let tname = if shards == 1 {
                    format!("dt-worker-{}", s.name)
                } else {
                    format!("dt-worker-{}-{k}", s.name)
                };
                workers.push(
                    std::thread::Builder::new()
                        .name(tname)
                        .spawn(move || run_worker(wctx))
                        .map_err(|e| DtError::engine(format!("spawn worker: {e}")))?,
                );
                ctl_tx.push(ctx_tx);
            }
            queues.push(q);
        }

        let inner = Arc::new(Inner {
            registry,
            stats: Arc::clone(&stats),
            clock: Arc::clone(&clock),
            mode: cfg.mode,
            metrics: cfg.metrics.clone(),
            obs,
            queues,
            routers,
            seqs: names.iter().map(|_| AtomicU64::new(0)).collect(),
            shards,
            ctl_tx,
            admission,
            stop: AtomicBool::new(false),
            fault: cfg.fault.clone(),
            error_budget: cfg.conn_error_budget,
            conn_seq: AtomicU64::new(0),
        });
        let handle = ServerHandle {
            inner: Arc::clone(&inner),
        };

        let merger_inner = Arc::clone(&inner);
        let synopsis = cfg.synopsis;
        let grace = cfg.grace;
        let watchdog = cfg.seal_watchdog;
        let merger = std::thread::Builder::new()
            .name("dt-merger".to_string())
            .spawn(move || run_merger(merger_inner, synopsis, grace, watchdog, merger_rx))
            .map_err(|e| DtError::engine(format!("spawn merger: {e}")))?;

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        #[cfg(target_os = "linux")]
        let mut reactor_pool: Arc<Vec<crate::reactor::Reactor>> = Arc::new(Vec::new());
        let (bound, acceptor) = match addr {
            None => (None, None),
            Some(spec_addr) => {
                let listener = TcpListener::bind(spec_addr)
                    .map_err(|e| DtError::config(format!("bind {spec_addr}: {e}")))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| DtError::config(format!("local_addr: {e}")))?;
                // Pick the socket plane. The event loop needs epoll,
                // so non-Linux targets silently fall back to the
                // threaded plane; both planes drive the same
                // [`IngestSession`], so sealed output is identical.
                let sink;
                #[cfg(target_os = "linux")]
                {
                    let pool = cfg.ingest.resolved_reactors();
                    if pool > 0 {
                        let mut reactors = Vec::with_capacity(pool);
                        for i in 0..pool {
                            reactors.push(crate::reactor::Reactor::spawn(
                                i,
                                handle.clone(),
                                crate::obs::ReactorObs::register(&cfg.metrics, i),
                            )?);
                        }
                        reactor_pool = Arc::new(reactors);
                        sink = ConnSink::Reactors(Arc::clone(&reactor_pool));
                    } else {
                        sink = ConnSink::Threaded(Arc::clone(&conns));
                    }
                }
                #[cfg(not(target_os = "linux"))]
                {
                    let _ = cfg.ingest;
                    sink = ConnSink::Threaded(Arc::clone(&conns));
                }
                let acc_handle = handle.clone();
                let acc = std::thread::Builder::new()
                    .name("dt-acceptor".to_string())
                    .spawn(move || run_acceptor(listener, acc_handle, sink))
                    .map_err(|e| DtError::engine(format!("spawn acceptor: {e}")))?;
                (Some(local), Some(acc))
            }
        };

        Ok(Server {
            handle,
            addr: bound,
            workers,
            merger: Some(merger),
            merger_tx,
            acceptor,
            conns,
            #[cfg(target_os = "linux")]
            reactors: reactor_pool,
        })
    }

    /// The ingest facade (clone it freely).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The bound TCP address, when serving a socket.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        self.handle.stats()
    }

    /// Graceful shutdown: stop accepting, drain every worker (all
    /// queued tuples are consumed, all open windows sealed), merge
    /// the remaining windows, and return the final report.
    pub fn shutdown(mut self) -> DtResult<ServerReport> {
        let inner = &self.handle.inner;
        inner.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr {
            // Unblock the acceptor with a throwaway connection.
            let _ = TcpStream::connect(addr);
        }
        if let Some(acc) = self.acceptor.take() {
            let _ = acc.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for c in conns {
            let _ = c.join();
        }
        // Reactors observe the stop flag at their next wakeup, drain
        // every connection (holdbacks flushed), and exit.
        #[cfg(target_os = "linux")]
        {
            for r in self.reactors.iter() {
                r.wake();
            }
            for r in self.reactors.iter() {
                r.join();
            }
        }
        for tx in &inner.ctl_tx {
            let _ = tx.send(Ctl::Stop);
        }
        let mut first_err = None;
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or_else(|| Some(DtError::engine("worker thread panicked")))
                }
            }
        }
        let _ = self.merger_tx.send(MergerMsg::Stop);
        let report = match self.merger.take().expect("merger running").join() {
            Ok(r) => r,
            Err(_) => Err(DtError::engine("merger thread panicked")),
        };
        match first_err {
            Some(e) => Err(e),
            None => report,
        }
    }
}

/// How a window's missing per-stream slots are treated at emission.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// Every stream must have sealed the window (normal emission).
    Strict,
    /// Synthesize clean empty seals — the stream was simply idle
    /// (shutdown drain, where workers have already sealed everything
    /// they ever opened).
    Idle,
    /// Synthesize *degraded* empty seals — the stream's worker is
    /// stalled and the watchdog is sealing past it.
    Forced,
}

/// The last window whose end plus `grace` has passed at clock reading
/// `now` — how far the seal watermark may reach — or `None` before
/// window 0 is due.
fn sealable_through(spec: WindowSpec, grace: VDuration, now: Timestamp) -> Option<WindowId> {
    let lag = (spec.width() + grace).micros();
    (now.micros() >= lag).then(|| (now.micros() - lag) / spec.slide().micros())
}

/// When the merger's next seal watermark falls due on the server
/// clock: the end of the first window not yet sealed, plus the grace
/// period — the first reading at which [`sealable_through`] passes
/// `last_seal`.
fn next_seal_due(spec: WindowSpec, grace: VDuration, last_seal: Option<WindowId>) -> Timestamp {
    spec.window_end(last_seal.map_or(0, |s| s + 1)) + grace
}

/// How long the merger may block on its inbox at clock reading `now`:
/// until the next watermark falls `due`, capped at [`MERGER_POLL`].
/// `frozen` means the clock did not move across the previous timed-out
/// wait — a virtual clock only moves when a test moves it, so the
/// distance to `due` says nothing about real time and the merger waits
/// the full poll instead of spinning on a short one.
fn merger_wait(due: Timestamp, now: Timestamp, frozen: bool) -> Duration {
    if frozen {
        return MERGER_POLL;
    }
    Duration::from_micros(due.micros().saturating_sub(now.micros())).min(MERGER_POLL)
}

/// The merger loop: collect sealed per-stream windows, emit each
/// window (strictly in id order) once every stream has sealed it,
/// drive the seal watermark off the clock, and force-seal past
/// stalled workers once the watchdog deadline passes. It blocks only
/// on its inbox, until the next partial arrives or the next watermark
/// falls due, so a window is emitted as soon as its last partial
/// lands.
fn run_merger(
    inner: Arc<Inner>,
    synopsis: SynopsisConfig,
    grace: VDuration,
    watchdog: Option<VDuration>,
    inbox: Receiver<MergerMsg>,
) -> DtResult<ServerReport> {
    let registry = &inner.registry;
    let spec = registry.spec();
    let n_streams = registry.streams().len();
    let shards = inner.shards;
    // One slot per (stream, shard) partial, flat-indexed
    // `stream * shards + shard`; `emit_window` folds each stream's
    // group of partials in ascending shard order.
    let n_slots = n_streams * shards;
    let mut pending: BTreeMap<WindowId, Vec<Option<SealedWindow>>> = BTreeMap::new();
    let mut results: BTreeMap<QueryId, Vec<WindowResult>> = BTreeMap::new();
    let mut peak_units: usize = 0;
    let mut next_emit: WindowId = 0;
    let mut last_seal: Option<WindowId> = None;
    let mut last_seal_sent = std::time::Instant::now();
    let mut frozen = false;

    loop {
        let waited_from = inner.clock.now();
        let wait = merger_wait(next_seal_due(spec, grace, last_seal), waited_from, frozen);
        let (stop, timed_out) = match inbox.recv_timeout(wait) {
            // Seals for windows below `next_emit` are *stale*: the
            // watchdog already force-sealed them, and a late
            // contribution must not resurrect an emitted window.
            Ok(MergerMsg::Sealed(s)) => {
                if s.window >= next_emit {
                    let (win, slot) = (s.window, s.stream * shards + s.shard);
                    pending.entry(win).or_insert_with(|| vec![None; n_slots])[slot] = Some(*s);
                }
                (false, false)
            }
            Ok(MergerMsg::Stop) => (true, false),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => (false, true),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => (true, false),
        };

        if stop {
            // Workers have drained and joined; every sealed window is
            // in hand. Streams seal independently, so a stream with no
            // traffic near the end may be missing windows other
            // streams emitted — synthesize its empty seals.
            let windows: Vec<WindowId> = pending.keys().copied().collect();
            for w in windows {
                emit_window(
                    &inner,
                    &synopsis,
                    &mut pending,
                    &mut results,
                    &mut peak_units,
                    w,
                    Fill::Idle,
                )?;
                next_emit = next_emit.max(w + 1);
            }
            break;
        }

        // Emit every window all streams have sealed. Workers seal
        // contiguously from window 0, so completeness is monotone and
        // emission order == id order.
        while let Some((&w, slots)) = pending.iter().next() {
            if w != next_emit || !slots.iter().all(Option::is_some) {
                break;
            }
            emit_window(
                &inner,
                &synopsis,
                &mut pending,
                &mut results,
                &mut peak_units,
                w,
                Fill::Strict,
            )?;
            next_emit = w + 1;
        }

        let now = inner.clock.now();
        frozen = timed_out && !wait.is_zero() && now == waited_from;

        // The sealer watchdog: the watermark has covered `next_emit`
        // (a healthy worker seals promptly on the watermark message),
        // yet some stream still hasn't sealed it well past the
        // deadline — force-seal from whatever contributions exist and
        // flag the result degraded, so one wedged worker degrades its
        // own windows instead of stalling every query's emission.
        if let Some(wd) = watchdog {
            while last_seal.is_some_and(|s| s >= next_emit)
                && last_seal_sent.elapsed() >= WATCHDOG_REAL_GRACE
                && now.micros()
                    >= spec.window_end(next_emit).micros() + grace.micros() + wd.micros()
            {
                inner.obs.windows_force_sealed.inc();
                // A force-seal means the measured costs understate
                // reality (a worker is wedged); double the controllers'
                // main-cost estimate so they shed harder until honest
                // measurements pull the EWMA back down.
                for fc in &inner.admission {
                    fc.base().penalize();
                }
                emit_window(
                    &inner,
                    &synopsis,
                    &mut pending,
                    &mut results,
                    &mut peak_units,
                    next_emit,
                    Fill::Forced,
                )?;
                next_emit += 1;
            }
        }

        // Advance the seal watermark: every window whose end (plus
        // grace) has passed gets sealed on all streams.
        if let Some(upto) = sealable_through(spec, grace, now) {
            if last_seal.is_none_or(|s| upto > s) {
                inner
                    .obs
                    .sealer_lag_us
                    .set(now.micros().saturating_sub(spec.window_end(upto).micros()) as i64);
                for tx in &inner.ctl_tx {
                    let _ = tx.send(Ctl::Seal(upto));
                }
                last_seal = Some(upto);
                last_seal_sent = std::time::Instant::now();
            }
        }
    }

    let snaps = inner.stats.snapshot();
    let totals = RunTotals {
        arrived: snaps.iter().map(|s| s.offered).sum(),
        kept: snaps.iter().map(|s| s.kept).sum(),
        dropped: snaps.iter().map(|s| s.shed).sum(),
        peak_synopsis_units: peak_units,
    };
    // One report slot per query id ever registered — ids are dense
    // and never reused, so the report index *is* the id. Queries that
    // never saw a window (registered late, or unregistered before the
    // first emission) report empty window lists.
    let queries = registry.list();
    let mut reports: Vec<RunReport> = queries
        .iter()
        .map(|_| RunReport {
            windows: Vec::new(),
            totals: totals.clone(),
            window_spec: spec,
        })
        .collect();
    for (id, windows) in results {
        reports[id as usize].windows = windows;
    }
    Ok(ServerReport {
        reports,
        queries,
        streams: snaps,
        windows_emitted: inner.stats.windows_emitted.load(Ordering::SeqCst),
        windows_degraded: inner.stats.windows_degraded.load(Ordering::SeqCst),
        // The drain-time snapshot: short-lived runs keep whatever the
        // last scrape interval would have shown.
        obs: inner.metrics.is_enabled().then(|| inner.metrics.snapshot()),
    })
}

/// Join one window across streams and fan it out through the
/// registry to every query active for it.
fn emit_window(
    inner: &Inner,
    synopsis: &SynopsisConfig,
    pending: &mut BTreeMap<WindowId, Vec<Option<SealedWindow>>>,
    results: &mut BTreeMap<QueryId, Vec<WindowResult>>,
    peak_units: &mut usize,
    w: WindowId,
    fill: Fill,
) -> DtResult<()> {
    let registry = &inner.registry;
    let spec = registry.spec();
    let n_streams = registry.streams().len();
    let shards = inner.shards;
    // A watchdog force-seal may fire before *any* shard sealed the
    // window; start from an all-missing row in that case.
    let mut slots = match pending.remove(&w) {
        Some(slots) => slots,
        None if fill == Fill::Forced => vec![None; n_streams * shards],
        None => return Err(DtError::engine("emitting an absent window")),
    };
    let mut shared_rows: Vec<Vec<dt_types::Row>> = Vec::with_capacity(n_streams);
    let mut pairs: Vec<SynPair> = Vec::new();
    let mut counts: Vec<(u64, u64)> = Vec::with_capacity(n_streams);
    let (mut arrived, mut kept, mut dropped) = (0u64, 0u64, 0u64);
    let mut degraded = false;
    for i in 0..n_streams {
        // Fold this stream's shard partials (ascending shard order —
        // `merge_sealed` sorts) into one per-stream seal. With
        // `shards == 1` a single complete part passes straight
        // through.
        let parts: Vec<SealedWindow> = slots[i * shards..(i + 1) * shards]
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        let missing = shards - parts.len();
        let sw = if parts.is_empty() {
            if fill == Fill::Strict {
                return Err(DtError::engine("emitting an incomplete window"));
            }
            // Synthesize the missing seal: empty rows plus freshly
            // sealed empty synopses. Under `Fill::Idle` the stream
            // was genuinely idle (clean); under `Fill::Forced` its
            // worker group is stalled and whatever it held for this
            // window is lost — degraded.
            let syn = if inner.mode.uses_synopses() {
                let arity = registry.streams()[i].schema.arity();
                let mut kept_syn = synopsis.build(arity)?;
                let mut dropped_syn = synopsis.build(arity)?;
                kept_syn.seal();
                dropped_syn.seal();
                Some(SynPair {
                    kept: kept_syn,
                    dropped: dropped_syn,
                })
            } else {
                None
            };
            SealedWindow {
                stream: i,
                shard: 0,
                window: w,
                rows: Vec::new(),
                seqs: Vec::new(),
                syn,
                arrived: 0,
                kept: 0,
                dropped: 0,
                degraded: fill == Fill::Forced,
            }
        } else {
            if missing > 0 && fill == Fill::Strict {
                return Err(DtError::engine("emitting an incomplete window"));
            }
            let mut sw = merge_sealed(parts)?;
            // A force-seal with shard partials still absent lost
            // whatever those shards held for this window.
            if missing > 0 && fill == Fill::Forced {
                sw.degraded = true;
            }
            sw
        };
        arrived += sw.arrived;
        kept += sw.kept;
        dropped += sw.dropped;
        degraded |= sw.degraded;
        counts.push((sw.kept, sw.dropped));
        shared_rows.push(sw.rows);
        if let Some(p) = sw.syn {
            pairs.push(p);
        }
    }
    let pairs = if inner.mode.uses_synopses() {
        if pairs.len() != shared_rows.len() {
            return Err(DtError::engine("sealed window missing synopses"));
        }
        let units: usize = pairs
            .iter()
            .map(|p| p.kept.memory_units() + p.dropped.memory_units())
            .sum();
        *peak_units = (*peak_units).max(units);
        Some(pairs)
    } else {
        None
    };
    let closes = registry.close_window(
        w,
        dt_registry::WindowInputs {
            rows: &shared_rows,
            pairs: pairs.as_deref(),
            counts: &counts,
        },
    )?;
    let emitted_at: Timestamp = inner.clock.now().max(spec.window_end(w));
    inner.obs.window_latency_us.observe(
        emitted_at
            .micros()
            .saturating_sub(spec.window_end(w).micros()),
    );
    inner.obs.windows_emitted.inc();
    for (id, close) in closes {
        results.entry(id).or_default().push(WindowResult {
            window: w,
            payload: close.payload,
            emitted_at,
            arrived,
            kept,
            dropped,
            degraded,
        });
    }
    inner.stats.windows_emitted.fetch_add(1, Ordering::SeqCst);
    if degraded {
        inner.stats.windows_degraded.fetch_add(1, Ordering::SeqCst);
    }
    Ok(())
}

/// The `/stats` document: the live counters, a `queries` array with
/// every registered query's state, plus — when delay constraints are
/// active (configured at startup or registered at runtime) — a
/// `controllers` array with each stream's current threshold (`null`
/// while unbounded), estimated worst-case delay, shed fraction, and
/// tenant lanes.
fn render_stats(inner: &Inner) -> Json {
    let mut doc = inner.stats.render_json();
    let queries: Vec<Json> = inner.registry.list().iter().map(query_info_json).collect();
    // The controllers block appears only once a constraint exists
    // somewhere — an unconstrained server's `/stats` stays the shape
    // it always had.
    let active = inner
        .admission
        .iter()
        .any(|fc| fc.base().constraint().is_some() || fc.has_lanes());
    let ctls: Vec<Json> = if !active {
        Vec::new()
    } else {
        inner
            .registry
            .streams()
            .iter()
            .zip(&inner.admission)
            .map(|(s, fc)| {
                let st = fc.base().state();
                let mut fields = vec![
                    ("stream", Json::Str(s.name.clone())),
                    (
                        "threshold",
                        if st.threshold == u64::MAX {
                            Json::Null
                        } else {
                            Json::Num(st.threshold as f64)
                        },
                    ),
                    (
                        "estimated_delay_ms",
                        Json::Num(st.estimated_delay.micros() as f64 / 1000.0),
                    ),
                    ("shed_fraction", Json::Num(st.shed_fraction)),
                ];
                let lanes: Vec<Json> = fc
                    .lane_states()
                    .into_iter()
                    .map(|l| {
                        json::obj(vec![
                            ("tenant", Json::Str(l.name)),
                            ("weight", Json::Num(l.weight)),
                            (
                                "delay_ms",
                                match l.constraint {
                                    Some(d) => Json::Num(d.micros() as f64 / 1000.0),
                                    None => Json::Null,
                                },
                            ),
                            ("rate", Json::Num(l.rate)),
                            ("shed_fraction", Json::Num(l.shed_fraction)),
                            ("kept", l.kept.to_json()),
                            ("shed", l.shed.to_json()),
                        ])
                    })
                    .collect();
                if !lanes.is_empty() {
                    fields.push(("lanes", Json::Arr(lanes)));
                }
                json::obj(fields)
            })
            .collect()
    };
    if let Json::Obj(fields) = &mut doc {
        fields.push(("queries".to_string(), Json::Arr(queries)));
        if !ctls.is_empty() {
            fields.push(("controllers".to_string(), Json::Arr(ctls)));
        }
    }
    doc
}

/// Where the acceptor routes a fresh connection: a per-connection
/// blocking thread (the original plane), or the event-loop plane's
/// reactor pool (round-robin by accept order, so a connection's
/// reactor — and the readiness-layer fault schedule keyed by accept
/// index — is deterministic).
enum ConnSink {
    Threaded(Arc<Mutex<Vec<JoinHandle<()>>>>),
    #[cfg(target_os = "linux")]
    Reactors(Arc<Vec<crate::reactor::Reactor>>),
}

/// Accept loop. A throwaway connection made by `shutdown` (after the
/// stop flag is set) unblocks `accept`.
fn run_acceptor(listener: TcpListener, handle: ServerHandle, sink: ConnSink) {
    let mut accept_idx: u64 = 0;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if handle.inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let idx = accept_idx;
        accept_idx += 1;
        match &sink {
            ConnSink::Threaded(conns) => {
                let conn_handle = handle.clone();
                if let Ok(h) = std::thread::Builder::new()
                    .name("dt-conn".to_string())
                    .spawn(move || serve_conn(stream, conn_handle))
                {
                    conns.lock().expect("conns lock").push(h);
                }
            }
            #[cfg(target_os = "linux")]
            ConnSink::Reactors(reactors) => {
                reactors[(idx % reactors.len() as u64) as usize].register(idx, stream);
            }
        }
    }
}

/// One client connection on the threaded plane: a blocking read loop
/// feeding the shared [`IngestSession`] state machine (HTTP probes,
/// control replies, fault injection, the error budget — see
/// `crate::ingest`). Replies accumulate in `out` and are written
/// after every completed line; the 50 ms read timeout doubles as the
/// idle tick that flushes fault-plan holdbacks and notices shutdown.
fn serve_conn(stream: TcpStream, handle: ServerHandle) {
    fn flush(writer: &mut TcpStream, out: &mut Vec<u8>) {
        if !out.is_empty() {
            let _ = writer.write_all(out);
            out.clear();
        }
    }
    let _ = stream.set_read_timeout(Some(CONN_READ_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = stream;
    let mut asm = FrameAssembler::new();
    let mut buf = [0u8; 16 * 1024];
    let mut session = IngestSession::new(handle.fault_plan().clone());
    let mut out: Vec<u8> = Vec::new();
    loop {
        match reader.read(&mut buf) {
            Ok(0) => {
                session.on_eof(&handle, asm.take_partial(), &mut out);
                flush(&mut writer, &mut out);
                return;
            }
            Ok(n) => {
                asm.push(&buf[..n]);
                while let Some(frame) = asm.next_frame() {
                    let verdict = match frame {
                        Ok(line) => session.on_line(&handle, &line, &mut out),
                        Err(FrameTooLong) => session.on_too_long(&handle, &mut out),
                    };
                    flush(&mut writer, &mut out);
                    if verdict == LineVerdict::Close {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let verdict = session.on_idle(&handle, &mut out);
                flush(&mut writer, &mut out);
                if verdict == LineVerdict::Close || handle.stopping() {
                    return;
                }
            }
            Err(_) => {
                session.on_error(&handle, &mut out);
                flush(&mut writer, &mut out);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_types::VirtualClock;

    fn specs() -> Vec<WindowSpec> {
        vec![
            WindowSpec::new(VDuration::from_millis(20)).unwrap(),
            WindowSpec::hopping(VDuration::from_millis(20), VDuration::from_millis(5)).unwrap(),
            WindowSpec::seconds(1).unwrap(),
        ]
    }

    #[test]
    fn seal_is_due_exactly_at_window_end_plus_grace() {
        let grace = VDuration::from_millis(5);
        for spec in specs() {
            for last_seal in [None, Some(0), Some(7), Some(1000)] {
                let next = last_seal.map_or(0, |s| s + 1);
                let due = next_seal_due(spec, grace, last_seal);
                assert_eq!(due, spec.window_end(next) + grace, "{spec:?}");
                // Never before the window's end plus grace: one
                // microsecond earlier the watermark cannot reach it,
                // at the due time it does.
                let before = Timestamp::from_micros(due.micros() - 1);
                assert!(sealable_through(spec, grace, before) < Some(next));
                assert_eq!(sealable_through(spec, grace, due), Some(next));
            }
        }
    }

    #[test]
    fn merger_wait_never_exceeds_the_poll() {
        let spec = specs()[0];
        let grace = VDuration::from_millis(5);
        let due = next_seal_due(spec, grace, Some(3));
        for ahead_us in [0, 1, 500, 1999, 2000, 2001, 10_000, 1_000_000] {
            let now = Timestamp::from_micros(due.micros().saturating_sub(ahead_us));
            let wait = merger_wait(due, now, false);
            assert!(wait <= MERGER_POLL, "{ahead_us} µs ahead: {wait:?}");
            assert_eq!(wait, Duration::from_micros(ahead_us).min(MERGER_POLL));
        }
        // A reading past the due time (a virtual clock jumped) does
        // not wait at all: the watermark is sent on this pass.
        let late = Timestamp::from_micros(due.micros() + 50);
        assert_eq!(merger_wait(due, late, false), Duration::ZERO);
    }

    #[test]
    fn frozen_virtual_clock_waits_the_full_poll() {
        let spec = specs()[1];
        let grace = VDuration::from_millis(5);
        let clock = VirtualClock::new();
        // Freeze the clock 100 µs short of the next due time.
        clock.set(Timestamp::from_micros(4 * 5_000 + 20_000 + 5_000 + 4_900));
        let last_seal = sealable_through(spec, grace, clock.now());
        let due = next_seal_due(spec, grace, last_seal);
        assert!(due > clock.now());
        // The first wait aims at the due time...
        let first = merger_wait(due, clock.now(), false);
        assert_eq!(first, Duration::from_micros(100));
        // ...but once a timed-out wait shows the clock did not move,
        // the merger waits the full poll, never a short or zero one.
        assert_eq!(merger_wait(due, clock.now(), true), MERGER_POLL);
    }
}
