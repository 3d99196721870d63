//! Emission latency on the wall clock: how long after a window falls
//! due (its end plus the grace period) the merger emits it.
//!
//! The merger blocks on its inbox until the next watermark is due and
//! an idle worker blocks on its control lane, so a window should leave
//! within a fraction of a millisecond of its due time. A fixed-period
//! poll on either side shows up here as milliseconds of lag. Run it
//! serially (`--test-threads=1`): it measures real time.

use dt_query::Catalog;
use dt_server::{Server, ServerConfig};
use dt_synopsis::SynopsisConfig;
use dt_types::{Clock, DataType, MonotonicClock, Row, Schema, Tuple, VDuration};
use std::sync::Arc;
use std::time::Duration;

const WINDOW_MS: u64 = 20;
const GRACE_MS: u64 = 5;
const WINDOWS: u64 = 40;

#[test]
fn windows_emit_promptly_after_they_fall_due() {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog);
    cfg.window = Some(VDuration::from_millis(WINDOW_MS));
    cfg.grace = VDuration::from_millis(GRACE_MS);
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 1 };

    let clock = Arc::new(MonotonicClock::new());
    let server = Server::start(&cfg, None, clock.clone()).expect("server starts");
    let handle = server.handle();
    let r = handle.stream_index("R").expect("stream R");
    // About one tuple a millisecond, stamped on the server's clock.
    let end = VDuration::from_millis(WINDOWS * WINDOW_MS);
    let mut i = 0i64;
    while clock.now().micros() < end.micros() {
        let t = Tuple::new(Row::from_ints(&[i % 4]), clock.now());
        handle.offer(r, t).expect("offer");
        i += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    let stopped_at = clock.now();
    let report = server.shutdown().expect("graceful shutdown");

    let spec = handle.spec();
    let grace = VDuration::from_millis(GRACE_MS);
    // Windows emitted during the shutdown drain were sealed by the
    // drain, not by their watermark; leave them out.
    let mut lags_us: Vec<u64> = report.reports[0]
        .windows
        .iter()
        .filter(|w| w.emitted_at < stopped_at)
        .map(|w| {
            let due = spec.window_end(w.window) + grace;
            w.emitted_at.micros().saturating_sub(due.micros())
        })
        .collect();
    assert!(
        lags_us.len() as u64 >= WINDOWS - 2,
        "only {} windows emitted before shutdown",
        lags_us.len()
    );
    lags_us.sort_unstable();
    let median = lags_us[lags_us.len() / 2];
    assert!(
        median < 1_500,
        "median emission lag {median} µs past window end + grace (all: {lags_us:?})"
    );
}
