//! Measurement plumbing: host spans around the bench's own calls into
//! the library, one round's results, and order statistics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Host-time span names, one per public entry point the bench calls.
/// Each is a `host.*` per-layer metric; with `host.other_s` (the rest
/// of the round) they partition a round's wall time exactly, because
/// spans are only ever opened around leaf calls, never nested.
pub mod span {
    /// `CheclSession::launch` (boot + fork).
    pub const LAUNCH: &str = "host.session.launch_s";
    /// `CheclSession::run`: the program through the CheCL shim.
    pub const CHECL: &str = "host.session.checl_s";
    /// `CheclSession::kill`.
    pub const KILL: &str = "host.session.kill_s";
    /// `CheclSession::checkpoint_with_policy` (`checl::snapshot`).
    pub const SNAPSHOT: &str = "host.engine.snapshot_s";
    /// `CheclSession::complete_live_drain`.
    pub const DRAIN: &str = "host.engine.drain_s";
    /// `checl::restore`: read, decode, fork a proxy, recreate objects.
    pub const RESTART: &str = "host.cpr.restart_s";
    /// `CheclSession::migrate_with_policy`.
    pub const MIGRATE: &str = "host.migrate_s";
    /// `fleet::run_fleet`, which cannot be split from outside.
    pub const RUN_FLEET: &str = "host.fleet.run_fleet_s";
    /// Checksum comparisons against the baselines.
    pub const VERIFY: &str = "host.verify_s";

    /// Every span, in report order.
    pub const ALL: [&str; 9] = [
        LAUNCH, CHECL, KILL, SNAPSHOT, DRAIN, RESTART, MIGRATE, RUN_FLEET, VERIFY,
    ];
}

/// Records host spans while on; a pass-through when off, so an
/// untraced round pays nothing for them.
pub struct Probe {
    on: bool,
    spans: BTreeMap<&'static str, Vec<Duration>>,
}

impl Probe {
    /// A probe that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            spans: BTreeMap::new(),
        }
    }

    /// Run `f`, charging its host time to span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.entry(name).or_default().push(start.elapsed());
        out
    }

    /// Total seconds charged to `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |d| d.iter().map(Duration::as_secs_f64).sum())
    }

    /// Median milliseconds of one call under `name` (0 when never
    /// called) and the number of calls.
    pub fn p50_ms(&self, name: &str) -> (f64, usize) {
        let ms: Vec<f64> = self.spans.get(name).map_or(Vec::new(), |d| {
            d.iter().map(|x| x.as_secs_f64() * 1e3).collect()
        });
        (median(&ms), ms.len())
    }
}

/// Deterministic per-layer values of one round: virtual time, bytes
/// and counts. Two rounds over the same inputs must agree exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Add `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Set metric `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// Value of `name`, 0 when never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded `(name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// What one pass over a workload's operations produced.
#[derive(Debug, Default, PartialEq)]
pub struct Round {
    /// Operations attempted: runs, checkpoints, restores, migrations,
    /// jobs.
    pub attempted: u64,
    /// Operations that errored or diverged from their baseline.
    pub failed: u64,
    /// Virtual latency of each of the workload's unit operations, ms.
    pub op_ms: Vec<f64>,
    /// Per-layer values.
    pub layers: Layers,
    /// Sample counts behind per-layer percentiles, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Round {
    /// Count one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Set percentile metric `name` to the nearest-rank `pct`-th
    /// percentile of `xs`, remembering the sample count.
    pub fn percentile(&mut self, name: &'static str, xs: &[f64], pct: usize) {
        self.layers.set(name, nearest_rank(xs, pct));
        self.samples.insert(name, xs.len());
    }
}

/// Nearest-rank `pct`-th percentile (0 for no samples), with the rank
/// in integer arithmetic as `fleet` computes its own. Deterministic and
/// always a member of the sample, which suits virtual-time values.
pub fn nearest_rank(xs: &[f64], pct: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * pct).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Median with the middle pair averaged (0 for no samples); used for
/// noisy host times.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(nearest_rank(&[], 50), 0.0);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 50), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 90), 4.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99), 99.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn spans_only_record_when_on() {
        let mut off = Probe::new(false);
        assert_eq!(off.span(span::VERIFY, || 7), 7);
        assert_eq!(off.p50_ms(span::VERIFY).1, 0);
        let mut on = Probe::new(true);
        on.span(span::VERIFY, || ());
        on.span(span::VERIFY, || ());
        assert_eq!(on.p50_ms(span::VERIFY).1, 2);
        assert!(on.total_s(span::VERIFY) >= 0.0);
    }
}
