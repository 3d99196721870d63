//! The chaos suite: a full server on a loopback socket, soaked under
//! seeded [`FaultPlan`] schedules.
//!
//! The plan is a *pure* decision function of `(seed, domain, a, b)`,
//! so the harness — which tracks exactly the indices the server uses
//! (connection number, line number) — can re-derive every injected
//! corruption after the fact. That prediction is what turns "the
//! server survived" into the much stronger determinism contract:
//! every window outside the blast radius is **bit-identical** to a
//! fault-free run, and every window inside it is flagged.
//!
//! Alongside the soak, targeted tests pin each degradation mechanism
//! in isolation: the merger's watchdog force-sealing past a stalled
//! sealer, the per-connection error budget and its structured error
//! frame, supervised worker restart after an injected panic, and the
//! client's typed timeouts and bounded retry loop.

use dt_query::Catalog;
use dt_server::{
    fetch_metrics, fetch_stats, fetch_stats_with, render_frame, Client, ClientConfig, FaultPlan,
    IngestPlane, MetricsRegistry, RetryPolicy, Server, ServerConfig, ServerReport, StatsReply,
    VirtualClock,
};
use dt_synopsis::SynopsisConfig;
use dt_triage::RunReport;
use dt_types::{DataType, Row, Schema, Timestamp, VDuration};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Windows in a soak run and frames per window. The channel capacity
/// stays far above one window's frames so no run ever sheds: every
/// count difference between runs is then attributable to a fault.
const WINDOWS: usize = 10;
const FRAMES: usize = 48;
const CAPACITY: usize = 256;

/// Injected worker panics are part of the experiment, not noise:
/// filter their reports, forward everything else to the default hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected worker panic") {
                prev(info);
            }
        }));
    });
}

fn poll(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if ready() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Sum of the first aggregate (COUNT(*)) across a window's groups.
fn total_count(report: &RunReport, w: usize) -> f64 {
    report.windows[w]
        .groups()
        .expect("aggregating query")
        .values()
        .map(|aggs| aggs[0])
        .sum()
}

/// Sum every sample of a counter family in a Prometheus exposition.
fn series_sum(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(name) && !l.starts_with("# "))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// The soak's ingest clients never self-heal: retries would open
/// server connections the harness didn't count, breaking its
/// (connection, line) bookkeeping. Recovery is the harness's job.
fn harness_client(addr: SocketAddr) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::none(),
        },
    )
    .expect("harness client connects")
}

/// Ingest lines the server has fully handled (offered or rejected).
/// Holdbacks flush on every close path, so once a connection is gone
/// this is always a *prefix* of the lines sent.
fn processed(addr: SocketAddr) -> u64 {
    let s = fetch_stats(addr).expect("stats");
    s.stream("R").expect("stream R").offered + s.parse_errors
}

/// Wait until the processed count stops moving (two idle-flush ticks
/// of quiet), then trust it as the resume point.
fn settled_processed(addr: SocketAddr) -> u64 {
    let mut p = processed(addr);
    let mut quiet = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let q = processed(addr);
        if q != p {
            p = q;
            quiet = Instant::now();
        } else if quiet.elapsed() >= Duration::from_millis(200) {
            return p;
        }
    }
}

/// Everything one soak run leaves behind for the assertions.
struct Soak {
    report: ServerReport,
    stats: StatsReply,
    metrics: String,
    /// Global frame index at which each ingest connection started —
    /// connection `c` processed exactly `frames[starts[c]..starts[c+1]]`.
    conn_starts: Vec<usize>,
    frames: usize,
}

/// Drive one full soak: `WINDOWS` windows of `FRAMES` frames each,
/// sent strictly after the clock passes the window's end (so pacing
/// never defers consumption and nothing sheds), waiting after every
/// window until the server has handled each line. A processing stall
/// means the connection died (an injected disconnect, usually): the
/// harness closes it, reads back how far the server got, and resends
/// the unprocessed suffix on a fresh connection — exactly what a
/// production producer with client-side buffering would do.
fn soak(plan: FaultPlan) -> Soak {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.channel_capacity = CAPACITY;
    cfg.metrics = MetricsRegistry::new();
    cfg.seal_watchdog = Some(VDuration::from_secs(2));
    cfg.fault = plan;

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");

    let mut frames: Vec<String> = Vec::with_capacity(WINDOWS * FRAMES);
    let mut conn_starts = vec![0usize];
    let mut client = Some(harness_client(addr));

    for w in 0..WINDOWS as u64 {
        clock.set(Timestamp::from_micros((w + 1) * 1_000_000));
        for i in 0..FRAMES as u64 {
            let ts = Timestamp::from_micros(w * 1_000_000 + 10_000 + i * 18_000);
            let a = ((i * 7 + w) % 5) as i64;
            let line = render_frame("R", &Row::from_ints(&[a]), Some(ts)).expect("render");
            if let Some(c) = client.as_mut() {
                // A dead socket is detected (and recovered) below.
                let _ = c.send_line(&line);
            }
            frames.push(line);
        }
        await_processed(addr, &frames, &mut client, &mut conn_starts);
    }

    let metrics = fetch_metrics(addr).expect("metrics scrape");
    let stats = fetch_stats(addr).expect("stats");
    if let Some(c) = client.take() {
        let _ = c.close();
    }
    let report = server.shutdown().expect("graceful shutdown — no deadlock");
    Soak {
        report,
        stats,
        metrics,
        conn_starts,
        frames: frames.len(),
    }
}

fn await_processed(
    addr: SocketAddr,
    frames: &[String],
    client: &mut Option<Client>,
    conn_starts: &mut Vec<usize>,
) {
    let target = frames.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = processed(addr);
    let mut last_change = Instant::now();
    while last < target {
        assert!(
            Instant::now() < deadline,
            "ingest deadlocked at {last}/{target} lines"
        );
        std::thread::sleep(Duration::from_millis(5));
        let p = processed(addr);
        if p != last {
            last = p;
            last_change = Instant::now();
            continue;
        }
        if last_change.elapsed() < Duration::from_millis(400) {
            continue;
        }
        // Stalled well past the idle-flush tick: the connection is
        // dead. Resynchronize from the server's own count.
        if let Some(c) = client.take() {
            let _ = c.close();
        }
        let resume = settled_processed(addr);
        assert!(resume <= target, "server processed lines never sent");
        conn_starts.push(resume as usize);
        let mut fresh = harness_client(addr);
        for line in &frames[resume as usize..] {
            let _ = fresh.send_line(line);
        }
        *client = Some(fresh);
        last = processed(addr);
        last_change = Instant::now();
    }
}

/// Re-derive the fault plan's corruption schedule from the harness's
/// connection bookkeeping: which lines were mangled, and therefore
/// which windows lost a frame.
fn predicted_corruption(
    plan: &FaultPlan,
    conn_starts: &[usize],
    total: usize,
) -> (u64, BTreeSet<u64>) {
    let mut errors = 0u64;
    let mut windows = BTreeSet::new();
    for (c, &start) in conn_starts.iter().enumerate() {
        let end = conn_starts.get(c + 1).copied().unwrap_or(total);
        for j in start..end {
            if plan.corrupt(c as u64, (j - start) as u64).is_some() {
                errors += 1;
                windows.insert((j / FRAMES) as u64);
            }
        }
    }
    (errors, windows)
}

/// The tentpole: three seeded fault schedules against one fault-free
/// baseline. (a) no deadlock, no dropped windows — every run emits
/// the full contiguous window range; (b) windows outside the blast
/// radius are bit-identical to the baseline; (c) windows inside it
/// are flagged (degraded, or short exactly where a corrupted frame
/// was predicted).
#[test]
fn chaos_soak_is_deterministic_outside_the_blast_radius() {
    quiet_injected_panics();

    let base = soak(FaultPlan::disabled());
    let base_run = &base.report.reports[0];
    let ids: Vec<u64> = base_run.windows.iter().map(|w| w.window).collect();
    assert_eq!(ids, (0..WINDOWS as u64).collect::<Vec<_>>());
    assert_eq!(base.stats.parse_errors, 0);
    assert_eq!(base.stats.windows_degraded, 0);
    for w in &base_run.windows {
        assert!(!w.degraded, "fault-free run degraded window {}", w.window);
        assert_eq!(w.arrived, FRAMES as u64);
        assert_eq!(w.dropped, 0, "capacity rules out shedding");
    }

    for seed in [11u64, 23, 42] {
        let plan = FaultPlan::seeded(seed);
        let out = soak(plan.clone());
        let run = &out.report.reports[0];

        // (a) Every window emitted exactly once, strictly in order.
        let ids: Vec<u64> = run.windows.iter().map(|w| w.window).collect();
        assert_eq!(
            ids,
            (0..WINDOWS as u64).collect::<Vec<_>>(),
            "seed {seed}: windows dropped or reordered"
        );

        // The harness's prediction must match the server's accounting
        // exactly — this is what "deterministic injection" buys.
        let (errors, corrupt_windows) = predicted_corruption(&plan, &out.conn_starts, out.frames);
        assert_eq!(
            out.stats.parse_errors, errors,
            "seed {seed}: predicted corruption diverged (conns {:?})",
            out.conn_starts
        );

        // Blast radius: windows that lost a corrupted frame, plus
        // windows the server itself flagged (worker panics, forced
        // seals — the harness can't predict those to the tuple, the
        // runtime must confess them).
        let mut impacted = corrupt_windows;
        for w in &run.windows {
            if w.degraded {
                impacted.insert(w.window);
            }
        }

        for w in 0..WINDOWS {
            let wf = &run.windows[w];
            if impacted.contains(&(w as u64)) {
                assert!(
                    wf.arrived <= FRAMES as u64,
                    "seed {seed} window {w}: more tuples than were sent"
                );
                continue;
            }
            // (b) Bit-identical to the fault-free run.
            let wb = &base_run.windows[w];
            assert!(!wf.degraded);
            assert_eq!(wf.arrived, wb.arrived, "seed {seed} window {w}");
            assert_eq!(wf.kept, wb.kept, "seed {seed} window {w}");
            assert_eq!(wf.dropped, wb.dropped, "seed {seed} window {w}");
            assert_eq!(
                wf.groups(),
                wb.groups(),
                "seed {seed} window {w}: fault-free window diverged"
            );
        }

        // (c) The degraded ledger is consistent end to end: live
        // stats, final report, and per-window flags all agree.
        let flagged = run.windows.iter().filter(|w| w.degraded).count() as u64;
        assert_eq!(out.stats.windows_degraded, flagged, "seed {seed}");
        assert_eq!(out.report.windows_degraded, flagged, "seed {seed}");

        // The fault counters are live on /metrics, and the schedule
        // actually fired (5% delay over ~500 lines cannot miss).
        assert!(
            out.metrics
                .contains("# TYPE dt_server_faults_injected_total counter"),
            "seed {seed}: {}",
            out.metrics
        );
        assert!(
            series_sum(&out.metrics, "dt_server_faults_injected_total") > 0,
            "seed {seed}: no fault ever fired"
        );
        assert_eq!(
            series_sum(&out.metrics, "dt_server_frames_rejected_total"),
            errors,
            "seed {seed}"
        );
    }
}

/// A sealer that swallows a watermark stalls its windows; the merger's
/// watchdog force-seals past it from whatever contributions exist and
/// flags the result degraded, so one wedged stream cannot stall every
/// query's emission forever.
#[test]
fn watchdog_force_seals_past_a_stalled_sealer() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.metrics = MetricsRegistry::new();
    // The watchdog must be able to fire before the *next* watermark
    // repairs the stall, so it is shorter than one window here.
    cfg.seal_watchdog = Some(VDuration::from_millis(500));
    cfg.fault = FaultPlan::disabled().inject_seal_stall(0, 0);

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut client = Client::connect(addr).expect("client connects");

    clock.set(Timestamp::from_micros(600_000));
    for i in 0..5u64 {
        let ts = Timestamp::from_micros(100_000 + i * 100_000);
        client
            .send("R", &Row::from_ints(&[1]), Some(ts))
            .expect("send");
    }
    poll("ingest", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 5
    });

    // Past window 0's end + grace + watchdog. The worker swallows the
    // Seal(0) watermark; after the real-time grace the merger seals
    // window 0 anyway — empty, degraded.
    clock.set(Timestamp::from_micros(1_700_000));
    poll("forced seal", || {
        fetch_stats(addr).unwrap().windows_emitted >= 1
    });
    let stats = fetch_stats(addr).expect("stats");
    assert_eq!(stats.windows_degraded, 1);
    let metrics = fetch_metrics(addr).expect("metrics");
    assert!(
        metrics.contains("dt_server_windows_force_sealed_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dt_server_faults_injected_total{kind=\"stall_seal\"} 1"),
        "{metrics}"
    );

    client.close().expect("client close");
    let report = server.shutdown().expect("graceful shutdown");
    let run = &report.reports[0];
    // Exactly one window: the forced one. The worker's own (stale)
    // seal of window 0 at drain must not resurrect it.
    assert_eq!(report.windows_emitted, 1);
    assert_eq!(report.windows_degraded, 1);
    assert_eq!(run.windows.len(), 1);
    assert!(run.windows[0].degraded, "forced window must be flagged");
    assert_eq!(
        total_count(run, 0),
        0.0,
        "the stalled stream's tuples were lost, not resurrected"
    );
}

/// Malformed lines are skipped, not fatal — until a connection
/// exhausts its error budget, at which point the server answers with
/// a structured error frame and closes only that connection.
#[test]
fn error_budget_closes_noisy_connections_with_a_structured_frame() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.metrics = MetricsRegistry::new();
    cfg.conn_error_budget = 3;

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");

    let mut noisy = Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::none(),
        },
    )
    .expect("client connects");

    // Two bad lines: within budget, each skipped, connection alive.
    noisy.send_line("not a frame").expect("send");
    noisy.send_line("{\"torn\":").expect("send");
    poll("bad lines counted", || {
        fetch_stats(addr).unwrap().parse_errors == 2
    });
    noisy
        .send(
            "R",
            &Row::from_ints(&[1]),
            Some(Timestamp::from_micros(100_000)),
        )
        .expect("send");
    poll("good frame still lands", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 1
    });

    // The third strike exhausts the budget: structured frame, close.
    noisy.send_line("@@garbage@@").expect("send");
    let frame = noisy
        .recv_line()
        .expect("error frame before close")
        .expect("frame, not bare EOF");
    assert!(
        frame.contains("\"error\":\"error budget exhausted\""),
        "{frame}"
    );
    assert!(frame.contains("\"rejected\":3"), "{frame}");
    assert!(frame.contains("\"budget\":3"), "{frame}");
    assert_eq!(noisy.recv_line().expect("EOF after frame"), None);

    // Only that connection died: a fresh producer is unaffected.
    let mut clean = Client::connect(addr).expect("second client");
    clean
        .send(
            "R",
            &Row::from_ints(&[2]),
            Some(Timestamp::from_micros(200_000)),
        )
        .expect("send");
    poll("fresh connection ingests", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 2
    });
    let metrics = fetch_metrics(addr).expect("metrics");
    assert!(
        metrics.contains("dt_server_frames_rejected_total 3"),
        "{metrics}"
    );

    clean.close().expect("client close");
    let report = server.shutdown().expect("graceful shutdown");
    // Parse errors never degrade windows — the frames were rejected
    // at the door, not lost from runtime state.
    assert_eq!(report.windows_degraded, 0);
    assert_eq!(total_count(&report.reports[0], 0), 2.0);
}

/// One frame nested 200k brackets deep used to overflow a reactor
/// thread's stack and abort the whole process. Now the JSON nesting
/// cap rejects it as an ordinary malformed frame — one strike against
/// the connection's error budget — and the server keeps serving that
/// connection and everyone else, on both ingest planes.
#[test]
fn deeply_nested_frame_is_rejected_and_the_server_keeps_serving() {
    for ingest in [IngestPlane::default(), IngestPlane::Threaded] {
        let mut catalog = Catalog::new();
        catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
        cfg.window = Some(VDuration::from_secs(1));
        cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
        cfg.metrics = MetricsRegistry::new();
        cfg.ingest = ingest;

        let clock = Arc::new(VirtualClock::new());
        let server =
            Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
        let addr = server.addr().expect("bound address");
        let mut client = Client::connect(addr).expect("client connects");
        let bomb = format!("{{\"stream\":\"R\",\"row\":{}", "[".repeat(200_000));
        client.send_line(&bomb).expect("send");
        poll("nested frame rejected", || {
            fetch_stats(addr).unwrap().parse_errors == 1
        });
        client
            .send(
                "R",
                &Row::from_ints(&[1]),
                Some(Timestamp::from_micros(100_000)),
            )
            .expect("send");
        poll("same connection still ingests", || {
            fetch_stats(addr).unwrap().stream("R").unwrap().offered == 1
        });
        let metrics = fetch_metrics(addr).expect("metrics");
        assert!(
            metrics.contains("dt_server_frames_rejected_total 1"),
            "{metrics}"
        );

        client.close().expect("client close");
        let report = server.shutdown().expect("graceful shutdown");
        assert_eq!(report.windows_degraded, 0);
        assert_eq!(total_count(&report.reports[0], 0), 1.0);
    }
}

/// A sender that streams 8 MiB without a newline cannot grow the
/// connection's buffer past the frame cap: the line is rejected as one
/// frame against the error budget as soon as it outgrows the cap, its
/// bytes are discarded through the next newline, and the same
/// connection keeps ingesting, on both ingest planes.
#[test]
fn oversized_frame_is_rejected_and_the_server_keeps_serving() {
    use std::io::Write;
    for ingest in [IngestPlane::default(), IngestPlane::Threaded] {
        let mut catalog = Catalog::new();
        catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
        cfg.window = Some(VDuration::from_secs(1));
        cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
        cfg.metrics = MetricsRegistry::new();
        cfg.ingest = ingest;

        let clock = Arc::new(VirtualClock::new());
        let server =
            Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
        let addr = server.addr().expect("bound address");
        let mut sock = std::net::TcpStream::connect(addr).expect("connects");
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..(8 << 20) / chunk.len() {
            sock.write_all(&chunk).expect("send");
        }
        // Rejected before any newline arrives.
        poll("oversized frame rejected", || {
            fetch_stats(addr).unwrap().parse_errors == 1
        });
        let frame = render_frame(
            "R",
            &Row::from_ints(&[1]),
            Some(Timestamp::from_micros(100_000)),
        )
        .expect("frame");
        sock.write_all(format!("tail\n{frame}\n").as_bytes())
            .expect("send");
        poll("same connection still ingests", || {
            fetch_stats(addr).unwrap().stream("R").unwrap().offered == 1
        });
        assert_eq!(fetch_stats(addr).unwrap().parse_errors, 1);
        let metrics = fetch_metrics(addr).expect("metrics");
        assert!(
            metrics.contains("dt_server_frames_rejected_total 1"),
            "{metrics}"
        );

        drop(sock);
        let report = server.shutdown().expect("graceful shutdown");
        assert_eq!(report.windows_degraded, 0);
        assert_eq!(total_count(&report.reports[0], 0), 1.0);
    }
}

/// An injected worker panic is confined: the supervisor restarts the
/// worker, the crashed window is emitted degraded with whatever
/// survived, and later windows are clean.
#[test]
fn worker_panic_recovers_into_a_degraded_window() {
    quiet_injected_panics();
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    cfg.metrics = MetricsRegistry::new();
    cfg.fault = FaultPlan::disabled().inject_worker_panic(0, 3);

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");
    let mut client = Client::connect(addr).expect("client connects");

    clock.set(Timestamp::from_micros(600_000));
    for i in 0..5u64 {
        let ts = Timestamp::from_micros(100_000 + i * 100_000);
        client
            .send("R", &Row::from_ints(&[1]), Some(ts))
            .expect("send");
    }
    // The worker panics after its 3rd consumed tuple; wait until the
    // restarted incarnation has drained the rest.
    poll("worker restarted and caught up", || {
        let m = fetch_metrics(addr).unwrap();
        m.contains("dt_server_worker_restarts_total{stream=\"R\"} 1")
            && m.contains("dt_server_queue_depth{stream=\"R\"} 0")
    });

    clock.set(Timestamp::from_micros(1_200_000));
    poll("window 0 emitted", || {
        fetch_stats(addr).unwrap().windows_emitted >= 1
    });
    assert_eq!(fetch_stats(addr).unwrap().windows_degraded, 1);
    let metrics = fetch_metrics(addr).expect("metrics");
    assert!(
        metrics.contains("dt_server_faults_injected_total{kind=\"panic\"} 1"),
        "{metrics}"
    );

    // Window 1 after the crash is clean.
    for i in 0..4u64 {
        let ts = Timestamp::from_micros(1_100_000 + i * 20_000);
        client
            .send("R", &Row::from_ints(&[2]), Some(ts))
            .expect("send");
    }
    poll("post-crash ingest", || {
        fetch_stats(addr).unwrap().stream("R").unwrap().offered == 9
    });

    client.close().expect("client close");
    let report = server.shutdown().expect("graceful shutdown");
    let run = &report.reports[0];
    assert_eq!(report.windows_degraded, 1);
    assert!(run.windows[0].degraded, "crashed window flagged");
    assert_eq!(
        total_count(run, 0),
        2.0,
        "tuples consumed after the restart survive; the crashed ones are lost"
    );
    assert!(!run.windows[1].degraded, "recovery is complete, not sticky");
    assert_eq!(total_count(run, 1), 4.0);
}

/// A server that accepts but never answers costs a deadline, not a
/// hang: reads surface as the typed [`DtError::Timeout`].
#[test]
fn client_reads_time_out_on_a_silent_server() {
    // Bound but never accepted: the OS completes the handshake into
    // the backlog and the socket then stays silent forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let err = fetch_stats_with(addr, Some(Duration::from_millis(150)))
        .expect_err("a silent server must not yield stats");
    assert!(err.is_timeout(), "typed timeout, got: {err}");

    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(150)),
            retry: RetryPolicy::none(),
        },
    )
    .expect("connect");
    let err = client.recv_line().expect_err("read must hit the deadline");
    assert!(err.is_timeout(), "typed timeout, got: {err}");
    drop(listener);
}

// ---------------------------------------------------------------
// Connection churn under readiness-layer faults (event-loop plane)
// ---------------------------------------------------------------

/// Churn-soak shape: short-lived producer connections, each sending a
/// few frames and vanishing.
const CHURN_WINDOWS: usize = 3;
const CHURN_CLIENTS: usize = 80;
const CHURN_LINES: usize = 3;

/// The frame script every churn run (wire or in-process) replays:
/// `CHURN_WINDOWS` windows of `CHURN_CLIENTS * CHURN_LINES` frames.
fn churn_frames() -> Vec<Vec<String>> {
    (0..CHURN_WINDOWS as u64)
        .map(|w| {
            (0..(CHURN_CLIENTS * CHURN_LINES) as u64)
                .map(|i| {
                    let ts = Timestamp::from_micros(w * 1_000_000 + 10_000 + i * 4_000);
                    let a = ((i * 7 + w) % 5) as i64;
                    render_frame("R", &Row::from_ints(&[a]), Some(ts)).expect("render")
                })
                .collect()
        })
        .collect()
}

fn churn_config(ingest: IngestPlane) -> ServerConfig {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };
    // Above the whole script: these tests pin plane equivalence, so
    // triage must never shed — an in-process run offers a window's
    // batch in microseconds while the wire runs take milliseconds,
    // and a bounded queue would shed differently in each.
    cfg.channel_capacity = 2 * CHURN_WINDOWS * CHURN_CLIENTS * CHURN_LINES;
    cfg.metrics = MetricsRegistry::new();
    cfg.ingest = ingest;
    cfg
}

/// The in-process reference: the same frame script offered straight
/// to the handle — no sockets, no faults. Ground truth for what every
/// wire run must seal.
fn churn_reference() -> ServerReport {
    let cfg = churn_config(IngestPlane::default());
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, None, clock.clone()).expect("reference server");
    let handle = server.handle();
    for (w, lines) in churn_frames().iter().enumerate() {
        clock.set(Timestamp::from_micros((w as u64 + 1) * 1_000_000));
        for line in lines {
            handle.offer_frame(line).expect("reference offer");
        }
    }
    server.shutdown().expect("reference shutdown")
}

fn churn_client(addr: SocketAddr) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(40)),
            retry: RetryPolicy::none(),
        },
    )
    .expect("churn client connects")
}

/// `processed` through a fault plan that also chops and tears stats
/// probes: a dead probe connection just gets retried.
fn churn_processed(addr: SocketAddr) -> u64 {
    for _ in 0..200 {
        if let Ok(s) = fetch_stats_with(addr, Some(Duration::from_millis(250))) {
            return s.stream("R").expect("stream R").offered + s.parse_errors;
        }
    }
    panic!("stats endpoint unreachable through the fault plan");
}

/// Deliver one line with at-least-once intent and exactly-once
/// effect: send, await the server's processed count, and on a dead
/// connection (injected tear or clean disconnect) resend on a fresh
/// one. Safe precisely because of the readiness-layer contract the
/// unit tests pin: a torn mid-frame fragment is dropped *uncounted*,
/// so a resent line can never double-process.
fn send_churn_line(addr: SocketAddr, client: &mut Option<Client>, line: &str, expect: u64) {
    let overall = Instant::now();
    let mut sent = false;
    loop {
        assert!(
            overall.elapsed() < Duration::from_secs(30),
            "churn line {expect} never acknowledged"
        );
        if client.is_none() {
            *client = Some(churn_client(addr));
            sent = false;
        }
        if !sent {
            let _ = client.as_mut().expect("client").send_line(line);
            sent = true;
        }
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            if churn_processed(addr) >= expect {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if churn_processed(addr) >= expect {
            return;
        }
        // No ack: probe liveness. EOF means the server dropped the
        // connection — retire it and resend. A read timeout means
        // it's alive and the ack is just slow; never resend on a
        // live connection.
        if matches!(client.as_mut().expect("client").recv_line(), Ok(None)) {
            *client = None;
        }
    }
}

/// The churn soak: hundreds of short-lived producers on the
/// event-loop plane under readiness-layer faults — chopped reads,
/// injected mid-frame disconnects, clean after-line disconnects —
/// with the harness resending unacknowledged lines. The sealed
/// windows must come out bit-identical to the in-process reference
/// run, and nothing may count against the error budget (chops are
/// lossless, torn fragments uncounted).
#[test]
fn connection_churn_with_readiness_faults_matches_the_reference() {
    let reference = churn_reference();

    let plan = {
        let mut p = FaultPlan::disabled().with_seed(7);
        p.read_chop_rate = 0.2; // lossless: only the chunking changes
        p.read_disconnect_rate = 0.006; // abrupt tears, fragment dropped
        p.disconnect_rate = 0.004; // clean close after a line
        p
    }
    // Two guaranteed tears early in the accept order.
    .inject_read_disconnect(4, 1)
    .inject_read_disconnect(9, 2);

    let mut cfg = churn_config(IngestPlane::EventLoop { reactors: 2 });
    cfg.fault = plan;
    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");

    let mut target = 0u64;
    for (w, lines) in churn_frames().iter().enumerate() {
        clock.set(Timestamp::from_micros((w as u64 + 1) * 1_000_000));
        let mut client: Option<Client> = None;
        for (i, line) in lines.iter().enumerate() {
            if i % CHURN_LINES == 0 {
                // Next short-lived producer: churn the connection.
                if let Some(c) = client.take() {
                    let _ = c.close();
                }
            }
            target += 1;
            send_churn_line(addr, &mut client, line, target);
        }
        if let Some(c) = client.take() {
            let _ = c.close();
        }
    }

    // The wire was genuinely hostile, and the reactor series are live.
    let metrics = {
        let mut m = None;
        for _ in 0..50 {
            if let Ok(text) = fetch_metrics(addr) {
                m = Some(text);
                break;
            }
        }
        m.expect("metrics scrape through the fault plan")
    };
    assert!(
        series_sum(
            &metrics,
            "dt_server_faults_injected_total{kind=\"read_chop\"}"
        ) > 0,
        "no chopped read ever fired"
    );
    assert!(
        series_sum(
            &metrics,
            "dt_server_faults_injected_total{kind=\"read_disconnect\"}"
        ) > 0,
        "no injected tear ever fired"
    );
    assert!(
        series_sum(&metrics, "dt_server_readiness_wakeups_total") > 0,
        "{metrics}"
    );
    assert!(metrics.contains("dt_server_reactor_conns"), "{metrics}");
    assert!(
        metrics.contains("dt_server_ingest_read_burst_bytes"),
        "{metrics}"
    );

    let stats = fetch_stats_with(addr, Some(Duration::from_secs(5))).expect("final stats");
    assert_eq!(stats.parse_errors, 0, "readiness faults must be lossless");
    assert_eq!(stats.stream("R").expect("stream R").offered, target);

    let report = server.shutdown().expect("graceful shutdown");
    let run = &report.reports[0];
    let ref_run = &reference.reports[0];
    assert_eq!(run.windows.len(), CHURN_WINDOWS);
    assert_eq!(ref_run.windows.len(), CHURN_WINDOWS);
    for w in 0..CHURN_WINDOWS {
        let (a, b) = (&run.windows[w], &ref_run.windows[w]);
        assert_eq!(a.window, b.window);
        assert!(!a.degraded && !b.degraded, "window {w} degraded");
        assert_eq!(a.arrived, b.arrived, "window {w}");
        assert_eq!(a.arrived, (CHURN_CLIENTS * CHURN_LINES) as u64);
        assert_eq!(a.kept, b.kept, "window {w}");
        assert_eq!(a.dropped, 0, "capacity rules out shedding");
        assert_eq!(
            a.groups(),
            b.groups(),
            "window {w}: churn run diverged from the in-process reference"
        );
    }
}

/// Fault-free A/B: the threaded and event-loop planes serve the same
/// wire workload and seal bit-identical windows — the shared
/// [`IngestSession`] makes the plane an implementation detail.
#[test]
fn ingest_planes_seal_identical_windows() {
    let mut reports = Vec::new();
    for ingest in [
        IngestPlane::Threaded,
        IngestPlane::EventLoop { reactors: 2 },
    ] {
        let cfg = churn_config(ingest);
        let clock = Arc::new(VirtualClock::new());
        let server =
            Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
        let addr = server.addr().expect("bound address");
        let mut clients: Vec<Client> = (0..3).map(|_| harness_client(addr)).collect();
        let mut sent = 0u64;
        for (w, lines) in churn_frames().iter().enumerate() {
            clock.set(Timestamp::from_micros((w as u64 + 1) * 1_000_000));
            for (i, line) in lines.iter().enumerate() {
                let k = i % clients.len();
                clients[k].send_line(line).expect("send");
                sent += 1;
            }
            poll("plane ingest", || processed(addr) >= sent);
        }
        for c in clients {
            let _ = c.close();
        }
        reports.push(server.shutdown().expect("graceful shutdown"));
    }
    let (t, e) = (&reports[0].reports[0], &reports[1].reports[0]);
    assert_eq!(t.windows.len(), e.windows.len());
    for (wt, we) in t.windows.iter().zip(&e.windows) {
        assert_eq!(wt.window, we.window);
        assert_eq!(wt.arrived, we.arrived, "window {}", wt.window);
        assert_eq!(wt.kept, we.kept, "window {}", wt.window);
        assert_eq!(wt.dropped, we.dropped, "window {}", wt.window);
        assert_eq!(wt.degraded, we.degraded, "window {}", wt.window);
        assert_eq!(
            wt.groups(),
            we.groups(),
            "planes diverged at window {}",
            wt.window
        );
    }
}

/// Sends retry with bounded reconnect-and-resend: when the server is
/// really gone the client performs exactly `max_retries` attempts,
/// counts them, and surfaces the final failure instead of hanging.
#[test]
fn client_retries_with_backoff_then_surfaces_the_failure() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_secs(1));
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };

    let clock = Arc::new(VirtualClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock.clone()).expect("server starts");
    let addr = server.addr().expect("bound address");

    let reg = MetricsRegistry::new();
    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(1)),
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                jitter_seed: 3,
            },
        },
    )
    .expect("connect")
    .with_metrics(&reg);
    client
        .send(
            "R",
            &Row::from_ints(&[1]),
            Some(Timestamp::from_micros(100_000)),
        )
        .expect("send while the server lives");

    server.shutdown().expect("server shuts down");

    // Writes to the dead socket may drain into OS buffers for a few
    // rounds; keep sending until the failure surfaces.
    let line = render_frame(
        "R",
        &Row::from_ints(&[1]),
        Some(Timestamp::from_micros(200_000)),
    )
    .expect("render");
    let mut failure = None;
    for _ in 0..200 {
        match client.send_line(&line) {
            Ok(()) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let err = failure.expect("sends to a dead server must fail");
    assert!(
        !err.is_timeout(),
        "a refused connect is not a timeout: {err}"
    );
    assert_eq!(
        client.retries(),
        2,
        "exactly max_retries reconnect attempts"
    );
    assert!(
        reg.render_prometheus()
            .contains("dt_client_retries_total 2"),
        "{}",
        reg.render_prometheus()
    );
}
