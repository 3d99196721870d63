//! The live run: the real server in-process on `127.0.0.1:0`, driven
//! by one open-loop generator thread over one TCP connection.
//!
//! The generator and the server share one `MonotonicClock`, so a
//! tuple's `ts` (its scheduled send time) and a window's `emitted_at`
//! are on the same time line. The generator never waits for the
//! server: each pass writes every frame that is due, in one write, and
//! records how late it was and how long the write blocked.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_obs::{Gauge, MetricsRegistry};
use dt_server::{Clock, MonotonicClock, Server, ServerReport};
use dt_types::{DtError, DtResult};

use crate::workload::{Inputs, Workload};

/// How long to wait for the last data window after the final frame.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// How often the generator samples the server's gauges (obs runs).
const SAMPLE_EVERY_US: u64 = 1_000;

/// What one live run produced.
pub struct LiveRun {
    pub report: ServerReport,
    /// Frames the generator wrote.
    pub sent: u64,
    /// Frames the server rejected.
    pub parse_errors: u64,
    /// Per-tuple generator lateness: write time minus scheduled time,
    /// microseconds.
    pub lateness_us: Vec<u32>,
    /// Total time the generator spent inside `write`.
    pub write_blocked: Duration,
    /// CPU time of the server's threads while the generator ran (the
    /// process's CPU time minus the generator thread's).
    pub server_cpu: Duration,
    /// Gauge samples, present when the run had dt-obs on.
    pub samples: Option<ObsSamples>,
}

/// Server gauges sampled from the generator loop.
#[derive(Default)]
pub struct ObsSamples {
    /// Ingest backlog depth, summed over streams.
    pub queue_depth: Vec<f64>,
    /// Last seal broadcast's lag past its window end, microseconds.
    pub sealer_lag_us: Vec<f64>,
}

/// Time from `Server::start` until the first connection has been
/// accepted and served (a `list` command answered).
pub fn measure_setup(wl: &Workload) -> DtResult<Duration> {
    let cfg = wl.server_config()?;
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let t0 = Instant::now();
    let server = Server::start(&cfg, Some("127.0.0.1:0"), clock)?;
    let sock = connect(server.addr())?;
    let setup = t0.elapsed();
    drop(sock);
    server.shutdown()?;
    Ok(setup)
}

/// Connect to the server and round-trip one `list` command, so the
/// connection is known to be accepted and served.
fn connect(addr: Option<SocketAddr>) -> DtResult<TcpStream> {
    let addr = addr.ok_or_else(|| DtError::config("server has no socket"))?;
    let io = |e: std::io::Error| DtError::engine(format!("benchmark connection: {e}"));
    let mut sock = TcpStream::connect(addr).map_err(io)?;
    sock.set_nodelay(true).map_err(io)?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(io)?;
    sock.write_all(b"{\"cmd\":\"list\"}\n").map_err(io)?;
    let mut buf = [0u8; 512];
    loop {
        let n = sock.read(&mut buf).map_err(io)?;
        if n == 0 {
            return Err(DtError::engine("server closed the connection"));
        }
        if buf[..n].contains(&b'\n') {
            return Ok(sock);
        }
    }
}

/// Run `inputs` through a fresh server. `obs` turns dt-obs on.
pub fn run(wl: &Workload, inputs: &Inputs, obs: bool) -> DtResult<LiveRun> {
    let mut cfg = wl.server_config()?;
    if obs {
        cfg.metrics = MetricsRegistry::new();
    }
    let gauges = obs.then(|| {
        let names: Vec<String> = wl
            .catalog()
            .streams()
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        let depth: Vec<Gauge> = names
            .iter()
            .map(|n| {
                cfg.metrics
                    .gauge("dt_server_queue_depth", "", &[("stream", n)])
            })
            .collect();
        (depth, cfg.metrics.gauge("dt_server_sealer_lag_us", "", &[]))
    });
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let server = Server::start(&cfg, Some("127.0.0.1:0"), Arc::clone(&clock))?;
    let stats = Arc::clone(server.stats());
    let mut sock = connect(server.addr())?;
    let io = |e: std::io::Error| DtError::engine(format!("benchmark send: {e}"));

    let cpu0 = cpu::process() - cpu::thread();
    let n = inputs.due_us.len();
    let mut lateness_us: Vec<u32> = Vec::with_capacity(n);
    let mut write_blocked = Duration::ZERO;
    let mut samples = ObsSamples::default();
    let mut next_sample = 0u64;
    let mut i = 0;
    while i < n {
        let now = clock.now().micros();
        if let Some((depth, lag)) = &gauges {
            if now >= next_sample {
                samples
                    .queue_depth
                    .push(depth.iter().map(Gauge::get).sum::<i64>() as f64);
                samples.sealer_lag_us.push(lag.get() as f64);
                next_sample = now + SAMPLE_EVERY_US;
            }
        }
        let due = inputs.due_us[i];
        if due > now {
            std::thread::sleep(Duration::from_micros(due - now));
            continue;
        }
        let j = i + inputs.due_us[i..].partition_point(|&d| d <= now);
        lateness_us.extend(inputs.due_us[i..j].iter().map(|&d| (now - d) as u32));
        let t = Instant::now();
        sock.write_all(&inputs.bytes[inputs.offsets[i]..inputs.offsets[j]])
            .map_err(io)?;
        write_blocked += t.elapsed();
        i = j;
    }
    sock.shutdown(Shutdown::Write).map_err(io)?;

    // Wait until the last data window is out; the server emits windows
    // in id order, so its emitted count covers every id below it.
    let last = *inputs
        .windows
        .keys()
        .next_back()
        .expect("inputs are non-empty");
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while stats.windows_emitted.load(Ordering::SeqCst) <= last && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let server_cpu = (cpu::process() - cpu::thread()).saturating_sub(cpu0);
    let parse_errors = stats.parse_errors.load(Ordering::SeqCst);
    let report = server.shutdown()?;
    drop(sock);
    Ok(LiveRun {
        report,
        sent: n as u64,
        parse_errors,
        lateness_us,
        write_blocked,
        server_cpu,
        samples: obs.then_some(samples),
    })
}

/// Process and thread CPU clocks (Linux `clock_gettime`).
mod cpu {
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    fn read(clock: i32) -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` with the
        // 64-bit layout of x86-64/aarch64 Linux, and both clock ids are
        // valid for the calling process, so the call only writes `ts`.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }

    /// CPU time of the whole process.
    pub fn process() -> Duration {
        read(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// CPU time of the calling thread.
    pub fn thread() -> Duration {
        read(CLOCK_THREAD_CPUTIME_ID)
    }
}
