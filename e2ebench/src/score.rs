//! Scoring a drained `ServerReport` against the offline ideal, and the
//! correctness checks that fail a run.

use std::collections::{BTreeMap, BTreeSet};

use dt_metrics::{report_to_map, rms_error};
use dt_triage::WindowResult;
use dt_types::WindowId;

use crate::live::LiveRun;
use crate::workload::{Inputs, Workload};

/// A run must emit at least this many data windows, so that the
/// latency p90 has at least ten samples beyond it.
pub const MIN_DATA_WINDOWS: usize = 100;

/// A scored live run.
pub struct Score {
    /// Per data window: `emitted_at` minus the largest `ts` sent into
    /// it, milliseconds. Missing windows have no entry.
    pub latency_ms: Vec<f64>,
    /// Tuples shed / tuples offered.
    pub shed_fraction: f64,
    /// RMS error of the merged answer against the ideal (paper §6.3).
    pub rms_error: f64,
    /// Data windows emitted late or never, over data windows.
    pub deadline_miss_fraction: f64,
    /// Tuples sent that reached no window, over tuples sent.
    pub lost_fraction: f64,
    /// Data windows (windows the generator sent into).
    pub attempted: u64,
    /// Data windows that missed the deadline, never appeared, or lost
    /// tuples.
    pub failed: u64,
    /// Windows whose kept synopsis was built but that shed nothing.
    pub kept_only_share: f64,
    /// Per window id: `(kept, dropped)` as the server counted them.
    pub counts: BTreeMap<WindowId, (u64, u64)>,
    /// Failed correctness checks, one line each (empty = correct).
    pub violations: Vec<String>,
}

pub fn score(wl: &Workload, inputs: &Inputs, live: &LiveRun) -> Score {
    let mut violations = Vec::new();
    let report = &live.report;
    let windows: &[WindowResult] = report.reports.first().map_or(&[], |r| &r.windows);
    let by_id: BTreeMap<WindowId, &WindowResult> = windows.iter().map(|w| (w.window, w)).collect();

    // Per-window conservation, and no tuple in a window nothing was
    // sent into.
    for w in windows {
        if w.arrived != w.kept + w.dropped {
            violations.push(format!(
                "window {}: arrived {} != kept {} + dropped {}",
                w.window, w.arrived, w.kept, w.dropped
            ));
        }
        let sent = inputs.windows.get(&w.window).map_or(0, |s| s.tuples);
        if w.arrived > sent {
            violations.push(format!(
                "window {}: {} arrived but only {sent} were sent",
                w.window, w.arrived
            ));
        }
    }
    // Mass conservation through the merge: exact counts plus the
    // shadow plan's estimate of the shed ones cover every arrival.
    if wl.counts_every_tuple() {
        for w in windows {
            if let Some(groups) = w.groups() {
                let total: f64 = groups.values().map(|v| v[0]).sum();
                if (total - w.arrived as f64).abs() > 1e-6 * (w.arrived as f64).max(1.0) {
                    violations.push(format!(
                        "window {}: merged counts sum to {total}, {} arrived",
                        w.window, w.arrived
                    ));
                }
            }
        }
    }
    // Whole-run conservation: every frame sent is in a window, late,
    // or rejected.
    let arrived: u64 = windows.iter().map(|w| w.arrived).sum();
    let late: u64 = report.streams.iter().map(|s| s.late).sum();
    if live.sent != arrived + late + live.parse_errors {
        violations.push(format!(
            "sent {} != arrived {arrived} + late {late} + parse errors {}",
            live.sent, live.parse_errors
        ));
    }
    if report.windows_degraded > 0 {
        violations.push(format!("{} degraded windows", report.windows_degraded));
    }

    // Windows that shed and lost nothing must equal the ideal exactly.
    let actual = report_to_map(&report.reports[0]);
    let exact: BTreeSet<WindowId> = windows
        .iter()
        .filter(|w| {
            w.dropped == 0 && inputs.windows.get(&w.window).map_or(0, |s| s.tuples) == w.arrived
        })
        .map(|w| w.window)
        .collect();
    let mut groups: BTreeMap<WindowId, (usize, usize)> = BTreeMap::new();
    let mut differs: BTreeSet<WindowId> = BTreeSet::new();
    for (key, v) in &inputs.ideal {
        if exact.contains(&key.0) {
            groups.entry(key.0).or_default().0 += 1;
            if actual.get(key) != Some(v) {
                differs.insert(key.0);
            }
        }
    }
    for key in actual.keys().filter(|k| exact.contains(&k.0)) {
        groups.entry(key.0).or_default().1 += 1;
    }
    differs.extend(groups.iter().filter(|(_, (i, a))| i != a).map(|(w, _)| *w));
    for w in differs {
        violations.push(format!(
            "window {w} shed nothing but differs from the ideal"
        ));
    }

    let limit_us = wl.latency_limit_ms * 1000.0;
    let mut latency_ms = Vec::with_capacity(inputs.windows.len());
    let (mut missed, mut failed, mut lost) = (0u64, 0u64, 0u64);
    for (w, sent) in &inputs.windows {
        let Some(res) = by_id.get(w) else {
            missed += 1;
            failed += 1;
            lost += sent.tuples;
            continue;
        };
        let lat_us = res.emitted_at.micros() as f64 - sent.max_ts as f64;
        latency_ms.push(lat_us / 1000.0);
        let lost_here = sent.tuples.saturating_sub(res.arrived);
        lost += lost_here;
        let late_window = lat_us > limit_us;
        missed += late_window as u64;
        failed += (late_window || lost_here > 0) as u64;
    }
    let offered: u64 = report.streams.iter().map(|s| s.offered).sum();
    let shed: u64 = report.streams.iter().map(|s| s.shed).sum();
    let attempted = inputs.windows.len() as u64;
    let data_windows: Vec<&&WindowResult> =
        inputs.windows.keys().filter_map(|w| by_id.get(w)).collect();
    if data_windows.len() < MIN_DATA_WINDOWS {
        violations.push(format!(
            "{} data windows emitted, fewer than the {MIN_DATA_WINDOWS} a run needs",
            data_windows.len()
        ));
    }
    let kept_only = data_windows.iter().filter(|w| w.dropped == 0).count();
    Score {
        latency_ms,
        shed_fraction: ratio(shed, offered),
        rms_error: rms_error(&inputs.ideal, &actual),
        deadline_miss_fraction: ratio(missed, attempted),
        lost_fraction: ratio(lost, live.sent),
        attempted,
        failed,
        kept_only_share: ratio(kept_only as u64, data_windows.len() as u64),
        counts: windows
            .iter()
            .map(|w| (w.window, (w.kept, w.dropped)))
            .collect(),
        violations,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
