//! Heartbeat-based failure detection primitives.
//!
//! A supervisor cannot ask a dead process whether it is dead; it can
//! only notice that the process stopped talking. This module models
//! that mechanism in virtual time: watched entities (the API proxy,
//! cluster nodes) emit periodic beats while alive, and a
//! [`HeartbeatMonitor`] turns the *absence* of beats into suspicion —
//! either after a fixed timeout, or when a phi-accrual score crosses a
//! threshold. Detection is therefore never instantaneous: a crash at
//! `t` is only suspected at `t + detection delay`, and that delay is
//! real downtime the supervision layer must account for.
//!
//! The phi-accrual detector follows Hayashibara et al.'s idea
//! (adapted to the deterministic simulation): with mean inter-beat
//! gap `m`, the suspicion level after `e` silent time is
//! `phi = e / (m · ln 10)` — the negative decimal log of the
//! probability that a beat is merely late under an exponential
//! inter-arrival model. No transcendental functions are evaluated at
//! runtime (`ln 10` is a constant), so detection times are
//! bit-reproducible.

use crate::ids::{NodeId, Pid};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// ln(10), so phi evaluation stays transcendental-free.
const LN_10: f64 = std::f64::consts::LN_10;

/// How many recent inter-beat gaps the phi detector remembers.
const PHI_WINDOW: usize = 16;

/// An entity the monitor watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum BeatSource {
    /// The API proxy process of a CheCL session.
    Proxy(Pid),
    /// A cluster node (all heartbeats from that machine).
    Node(NodeId),
}

impl std::fmt::Display for BeatSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeatSource::Proxy(pid) => write!(f, "proxy {pid}"),
            BeatSource::Node(node) => write!(f, "node {}", node.0),
        }
    }
}

/// How silence is turned into suspicion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DetectorPolicy {
    /// Suspect after a fixed silent window.
    Timeout(SimDuration),
    /// Suspect when the phi-accrual score crosses `threshold`
    /// (typically 1–16; 8 ≈ "one false positive per 10^8 beats").
    /// Falls back to `floor` as the silent window until enough gaps
    /// have been observed to estimate the mean.
    PhiAccrual {
        /// Suspicion threshold.
        threshold: f64,
        /// Timeout used before the window has `>= 2` samples.
        floor: SimDuration,
    },
}

/// Per-source beat history.
#[derive(Clone, Debug)]
struct BeatStream {
    last: SimTime,
    gaps: VecDeque<SimDuration>,
}

impl BeatStream {
    fn mean_gap(&self) -> Option<SimDuration> {
        if self.gaps.len() < 2 {
            return None;
        }
        let total: u64 = self.gaps.iter().map(|g| g.as_nanos()).sum();
        Some(SimDuration::from_nanos(total / self.gaps.len() as u64))
    }
}

/// A virtual-time failure detector over heartbeat streams.
#[derive(Clone, Debug)]
pub struct HeartbeatMonitor {
    policy: DetectorPolicy,
    streams: BTreeMap<BeatSource, BeatStream>,
}

impl HeartbeatMonitor {
    /// A monitor with no watched sources yet.
    pub fn new(policy: DetectorPolicy) -> HeartbeatMonitor {
        HeartbeatMonitor {
            policy,
            streams: BTreeMap::new(),
        }
    }

    /// The detection policy in force.
    pub fn policy(&self) -> DetectorPolicy {
        self.policy
    }

    /// Start watching `src`; `now` counts as its first beat.
    pub fn watch(&mut self, src: BeatSource, now: SimTime) {
        self.streams.insert(
            src,
            BeatStream {
                last: now,
                gaps: VecDeque::new(),
            },
        );
    }

    /// Stop watching `src` (e.g. the entity was deliberately retired).
    pub fn unwatch(&mut self, src: BeatSource) {
        self.streams.remove(&src);
    }

    /// Record a beat from `src` at `now`. Unwatched sources are
    /// ignored; beats never move time backwards.
    pub fn beat(&mut self, src: BeatSource, now: SimTime) {
        let Some(s) = self.streams.get_mut(&src) else {
            return;
        };
        if now <= s.last {
            return;
        }
        s.gaps.push_back(now.since(s.last));
        if s.gaps.len() > PHI_WINDOW {
            s.gaps.pop_front();
        }
        s.last = now;
    }

    /// The effective silent window after which `src` is suspected.
    fn window(&self, s: &BeatStream) -> SimDuration {
        match self.policy {
            DetectorPolicy::Timeout(t) => t,
            DetectorPolicy::PhiAccrual { threshold, floor } => match s.mean_gap() {
                // phi = e / (m·ln10) >= threshold  ⇔  e >= threshold·m·ln10
                Some(mean) => mean * (threshold * LN_10),
                None => floor,
            },
        }
    }

    /// Current phi-accrual suspicion score for `src` (0 when unwatched;
    /// under a plain timeout policy this reports elapsed/timeout so the
    /// score still crosses 1.0 exactly at suspicion time).
    pub fn phi(&self, src: BeatSource, now: SimTime) -> f64 {
        let Some(s) = self.streams.get(&src) else {
            return 0.0;
        };
        let elapsed = now.since(s.last).as_secs_f64();
        match self.policy {
            DetectorPolicy::Timeout(t) => elapsed / t.as_secs_f64().max(f64::MIN_POSITIVE),
            DetectorPolicy::PhiAccrual { floor, .. } => {
                let mean = s
                    .mean_gap()
                    .unwrap_or(floor)
                    .as_secs_f64()
                    .max(f64::MIN_POSITIVE);
                elapsed / (mean * LN_10)
            }
        }
    }

    /// `true` if `src` has been silent past the detection window.
    pub fn suspected(&self, src: BeatSource, now: SimTime) -> bool {
        match self.streams.get(&src) {
            Some(s) => now.since(s.last) >= self.window(s),
            None => false,
        }
    }

    /// Every watched source currently suspected, in source order.
    pub fn suspects(&self, now: SimTime) -> Vec<BeatSource> {
        self.streams
            .iter()
            .filter(|(_, s)| now.since(s.last) >= self.window(s))
            .map(|(src, _)| *src)
            .collect()
    }

    /// The virtual instant at which a silent `src` *will* cross the
    /// detection window (its last beat plus the window). This is what a
    /// supervision loop charges as detection latency: a crash is not
    /// known until this instant. `None` for unwatched sources.
    pub fn detection_time(&self, src: BeatSource) -> Option<SimTime> {
        self.streams.get(&src).map(|s| s.last + self.window(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn timeout_detector_suspects_after_silence() {
        let mut m = HeartbeatMonitor::new(DetectorPolicy::Timeout(SimDuration::from_millis(30)));
        let src = BeatSource::Proxy(Pid(7));
        m.watch(src, t(0));
        m.beat(src, t(10));
        assert!(!m.suspected(src, t(39)));
        assert!(m.suspected(src, t(40)));
        assert_eq!(m.detection_time(src), Some(t(40)));
        assert_eq!(m.suspects(t(45)), vec![src]);
        // A beat clears the suspicion.
        m.beat(src, t(45));
        assert!(!m.suspected(src, t(50)));
    }

    #[test]
    fn phi_detector_adapts_to_beat_cadence() {
        let policy = DetectorPolicy::PhiAccrual {
            threshold: 2.0,
            floor: SimDuration::from_millis(100),
        };
        let mut m = HeartbeatMonitor::new(policy);
        let src = BeatSource::Node(NodeId(1));
        m.watch(src, t(0));
        // Steady 5 ms cadence → window ≈ 2·5ms·ln10 ≈ 23 ms.
        for i in 1..=8 {
            m.beat(src, t(5 * i));
        }
        assert!(!m.suspected(src, t(60)));
        assert!(m.suspected(src, t(64)));
        assert!(m.phi(src, t(64)) >= 2.0);
        // A slower cadence widens the window.
        let mut slow = HeartbeatMonitor::new(policy);
        slow.watch(src, t(0));
        for i in 1..=8 {
            slow.beat(src, t(20 * i));
        }
        assert!(!slow.suspected(src, t(220)));
        assert!(slow.suspected(src, t(253)));
    }

    #[test]
    fn phi_floor_covers_the_cold_start() {
        let policy = DetectorPolicy::PhiAccrual {
            threshold: 2.0,
            floor: SimDuration::from_millis(40),
        };
        let mut m = HeartbeatMonitor::new(policy);
        let src = BeatSource::Proxy(Pid(3));
        m.watch(src, t(0));
        // One beat (one gap) is not enough for a mean: the floor rules.
        m.beat(src, t(5));
        assert!(!m.suspected(src, t(44)));
        assert!(m.suspected(src, t(45)));
    }

    #[test]
    fn unwatched_sources_are_never_suspected() {
        let mut m = HeartbeatMonitor::new(DetectorPolicy::Timeout(SimDuration::from_millis(10)));
        let src = BeatSource::Proxy(Pid(9));
        assert!(!m.suspected(src, t(1_000)));
        assert_eq!(m.phi(src, t(1_000)), 0.0);
        m.watch(src, t(0));
        m.unwatch(src);
        assert!(!m.suspected(src, t(1_000)));
        assert!(m.suspects(t(1_000)).is_empty());
    }
}
