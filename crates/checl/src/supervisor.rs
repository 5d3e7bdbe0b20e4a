//! The self-healing supervisor: failure detection, adaptive checkpoint
//! intervals, and repair escalation.
//!
//! The rest of the crate can recover *when asked* — respawn a dead
//! proxy, migrate off a crashed node, restore from a fallback dump.
//! This module supplies the control loop that does the asking. It is
//! deliberately split in two:
//!
//! * **decision machinery** (this module): a [`HeartbeatMonitor`]
//!   wrapper that notices silence, an [`IntervalController`] that turns
//!   observed checkpoint costs and failures into a Young/Daly optimal
//!   checkpoint cadence, a bounded-retry repair ladder with exponential
//!   backoff and a typed [`SupervisorError::Escalated`] when it is
//!   exhausted, and a [`SupervisorReport`] accounting for downtime and
//!   wasted (re-executed) work;
//! * **workload binding** (`workloads::supervise`): the loop that steps
//!   a real session, feeds beats and clocks into the machinery here and
//!   executes the repairs it decides on.
//!
//! ## The Young/Daly interval
//!
//! With checkpoint cost δ and mean time between failures *M*, the
//! first-order optimal checkpoint interval is `τ = sqrt(2 · δ · M)`
//! (Young 1974, refined by Daly 2006). Checkpointing more often than τ
//! wastes time writing dumps; less often wastes it re-executing lost
//! work. The [`IntervalController`] estimates δ online (an EWMA of
//! observed snapshot costs) and *M* from the supervised run itself
//! (elapsed time over observed failures, seeded with a configurable
//! prior while no failure has been seen), recomputing τ after every
//! checkpoint and every failure. All arithmetic is IEEE-exact
//! (`sqrt`, multiply, divide), so the schedule is bit-reproducible.
//!
//! Every supervision decision is one `"supervisor"` record
//! ([`obs::EventKind`]) — a ledger entry, and in a trace an instant —
//! except a repair sanction, which the ledger does not book and the
//! trace shows as a `supervisor.repair` instant in
//! [`telemetry::SUPERVISOR_CATEGORY`].

use osproc::{BeatSource, DetectorPolicy, HeartbeatMonitor};
use simcore::{obs, telemetry, SimDuration, SimTime};

/// Backoff before an incident's second repair attempt; it doubles per
/// further attempt.
pub const REPAIR_BACKOFF: SimDuration = SimDuration::from_millis(100);

/// Verified dump generations a supervised run's vault retains.
pub const KEEP_GENERATIONS: usize = 2;

/// Knobs for a supervised run.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// How silence is turned into suspicion.
    pub detector: DetectorPolicy,
    /// Heartbeat cadence of healthy components.
    pub heartbeat_every: SimDuration,
    /// Repair attempts per incident before escalating.
    pub max_repairs: u32,
    /// Total failures across the whole run before escalating — the
    /// backstop against fault storms that arrive faster than the
    /// re-execution they force can make progress.
    pub max_failures: u32,
    /// MTBF prior used by the Daly interval before any failure has been
    /// observed.
    pub initial_mtbf: SimDuration,
    /// Lower clamp on the checkpoint interval.
    pub min_interval: SimDuration,
    /// Upper clamp on the checkpoint interval.
    pub max_interval: SimDuration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            detector: DetectorPolicy::Timeout(SimDuration::from_millis(150)),
            heartbeat_every: SimDuration::from_millis(25),
            max_repairs: 4,
            max_failures: 64,
            initial_mtbf: SimDuration::from_secs(30),
            min_interval: SimDuration::from_millis(50),
            max_interval: SimDuration::from_secs(120),
        }
    }
}

/// How a supervision loop spaces its checkpoints in virtual time.
///
/// Enacted by the [`Supervisor`], not by [`crate::snapshot`] itself —
/// a single snapshot call has no cadence.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum IntervalPolicy {
    /// Checkpoint every fixed virtual-time interval.
    Fixed(SimDuration),
    /// Young/Daly optimal interval `sqrt(2 · δ · MTBF)` from the
    /// observed checkpoint cost δ and an online MTBF estimate,
    /// recomputed after every checkpoint and failure.
    #[default]
    DalyAdaptive,
}

/// Online Young/Daly checkpoint-interval calculator.
#[derive(Clone, Debug)]
pub struct IntervalController {
    policy: IntervalPolicy,
    initial_mtbf: SimDuration,
    min: SimDuration,
    max: SimDuration,
    /// EWMA (α = ½) of observed checkpoint costs; `None` until the
    /// first observation, when the minimum interval stands in as δ.
    ckpt_cost: Option<SimDuration>,
    failures: u32,
    current: SimDuration,
    history: Vec<SimDuration>,
}

impl IntervalController {
    /// A controller for `policy` under `cfg`'s prior and clamps.
    pub fn new(policy: IntervalPolicy, cfg: &SupervisorConfig) -> IntervalController {
        let mut c = IntervalController {
            policy,
            initial_mtbf: cfg.initial_mtbf,
            min: cfg.min_interval,
            max: cfg.max_interval,
            ckpt_cost: None,
            failures: 0,
            current: cfg.min_interval,
            history: Vec::new(),
        };
        c.recompute(SimDuration::ZERO);
        c
    }

    /// The interval currently in force.
    pub fn current(&self) -> SimDuration {
        self.current
    }

    /// Every interval the controller has put in force, in order.
    pub fn history(&self) -> &[SimDuration] {
        &self.history
    }

    /// Failures observed so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// The MTBF estimate the next recompute will use, given `elapsed`
    /// supervised virtual time.
    pub fn mtbf(&self, elapsed: SimDuration) -> SimDuration {
        if self.failures == 0 {
            self.initial_mtbf
        } else {
            SimDuration::from_nanos(elapsed.as_nanos() / self.failures as u64)
                .max(SimDuration::from_micros(1))
        }
    }

    /// Fold one observed checkpoint cost into the δ estimate and
    /// recompute.
    pub fn record_checkpoint(&mut self, cost: SimDuration, elapsed: SimDuration) {
        let cost_s = cost.as_secs_f64();
        self.ckpt_cost = Some(match self.ckpt_cost {
            None => cost,
            Some(prev) => SimDuration::from_secs_f64(0.5 * prev.as_secs_f64() + 0.5 * cost_s),
        });
        self.recompute(elapsed);
    }

    /// Count one failure into the MTBF estimate and recompute.
    pub fn record_failure(&mut self, elapsed: SimDuration) {
        self.failures += 1;
        self.recompute(elapsed);
    }

    /// Recompute the interval from the policy and current estimates.
    fn recompute(&mut self, elapsed: SimDuration) {
        let next = match self.policy {
            IntervalPolicy::Fixed(d) => d,
            IntervalPolicy::DalyAdaptive => {
                let delta = self.ckpt_cost.unwrap_or(self.min).as_secs_f64();
                let mtbf = self.mtbf(elapsed).as_secs_f64();
                // Young/Daly first-order optimum: τ = sqrt(2 δ M).
                let tau = (2.0 * delta * mtbf).sqrt();
                SimDuration::from_secs_f64(tau).clamp(self.min, self.max)
            }
        };
        self.current = next;
        if self.history.last() != Some(&next) {
            self.history.push(next);
        }
    }
}

/// What a supervised run cost beyond the fault-free execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisorReport {
    /// `true` if the workload ran to completion (escalation aborts
    /// leave this `false`).
    pub completed: bool,
    /// Checkpoints committed.
    pub checkpoints: u32,
    /// Failures detected (proxy deaths + node crashes).
    pub failures: u32,
    /// Repair actions executed (respawns + migrations), including
    /// failed attempts.
    pub repairs: u32,
    /// Virtual time lost to detection latency and repair execution.
    pub downtime: SimDuration,
    /// Application progress that had to be re-executed because it
    /// post-dated the last committed checkpoint.
    pub wasted_work: SimDuration,
    /// Suspicions that probing proved wrong: the component was alive,
    /// just slow (heartbeat loss, gray channel). No failure is counted
    /// — the process kept its progress — but the probe time is booked
    /// below.
    pub false_positives: u32,
    /// Virtual time the *supervisor itself* wasted probing live
    /// components it wrongly suspected. Kept apart from `wasted_work`
    /// so the Daly controller's MTBF estimate never sees a
    /// detector-induced blip as an application failure (which would
    /// over-stretch τ in the wrong direction).
    pub induced_overhead: SimDuration,
    /// Virtual time spent taking checkpoints (the price of the cadence).
    pub checkpoint_overhead: SimDuration,
    /// Every checkpoint interval the controller put in force.
    pub interval_history: Vec<SimDuration>,
    /// End-to-end supervised wall clock, in virtual time.
    pub wall_clock: SimDuration,
}

impl SupervisorReport {
    /// Everything the failures and the cadence cost on top of the
    /// fault-free run: re-executed work + checkpoint overhead +
    /// downtime + supervisor-induced probe time. The figure the
    /// interval policy is trying to minimize.
    pub fn total_overhead(&self) -> SimDuration {
        self.wasted_work + self.checkpoint_overhead + self.downtime + self.induced_overhead
    }
}

/// Why a supervised run gave up.
#[derive(Clone, Debug)]
pub enum SupervisorError {
    /// The repair ladder was exhausted: `repairs` attempts were made for
    /// the incident described by `detail`, none stuck.
    Escalated {
        /// Repair attempts made for the fatal incident.
        repairs: u32,
        /// Human-readable incident description (last underlying error).
        detail: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Escalated { repairs, detail } => write!(
                f,
                "supervision escalated after {repairs} repair attempt(s): {detail}"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// The supervision decision machinery: detector + interval controller +
/// repair ladder + accounting. Holds no session state — the workload
/// loop (`workloads::supervise`) feeds it observations and executes the
/// repairs it sanctions.
#[derive(Clone, Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    monitor: HeartbeatMonitor,
    intervals: IntervalController,
    /// Supervision clock: the maximum virtual time observed anywhere.
    /// Restarted processes come up with near-zero clocks, so the
    /// supervisor keeps its own monotonic cursor.
    now: SimTime,
    started: SimTime,
    /// Application progress at the last committed checkpoint.
    committed_progress: SimDuration,
    /// Repair attempts in the incident currently being handled.
    incident_repairs: u32,
    /// Source of the incident currently open in the obs ledger.
    incident_source: Option<String>,
    /// Downtime charged to the open incident so far. Every place
    /// `report.downtime` grows while an incident is open also grows
    /// this, so the ledger's per-incident downtimes sum to the
    /// report's total exactly.
    incident_downtime: SimDuration,
    report: SupervisorReport,
}

impl Supervisor {
    /// A supervisor applying `interval` under `cfg`, starting its clock
    /// at `now`.
    pub fn new(cfg: SupervisorConfig, interval: IntervalPolicy, now: SimTime) -> Supervisor {
        let intervals = IntervalController::new(interval, &cfg);
        let monitor = HeartbeatMonitor::new(cfg.detector);
        Supervisor {
            cfg,
            monitor,
            intervals,
            now,
            started: now,
            committed_progress: SimDuration::ZERO,
            incident_repairs: 0,
            incident_source: None,
            incident_downtime: SimDuration::ZERO,
            report: SupervisorReport::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// The detector, for watching/unwatching sources as components come
    /// and go.
    pub fn monitor_mut(&mut self) -> &mut HeartbeatMonitor {
        &mut self.monitor
    }

    /// The supervision clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Failures detected so far.
    pub fn failures(&self) -> u32 {
        self.report.failures
    }

    /// `true` once the failure-storm backstop has tripped; the caller
    /// must escalate instead of repairing again.
    pub fn storming(&self) -> bool {
        self.report.failures >= self.cfg.max_failures
    }

    /// Advance the supervision clock (monotonic: earlier times are
    /// ignored, which is how restarted processes' near-zero clocks are
    /// absorbed).
    pub fn advance(&mut self, to: SimTime) {
        self.now = self.now.max(to);
    }

    /// Record a heartbeat from `src` at the supervision clock.
    pub fn beat(&mut self, src: BeatSource) {
        self.monitor.beat(src, self.now);
    }

    /// The interval currently in force.
    pub fn interval(&self) -> SimDuration {
        self.intervals.current()
    }

    /// Whether `progress` (application progress since the last
    /// committed checkpoint) has reached the current interval.
    pub fn checkpoint_due(&self, progress_since_commit: SimDuration) -> bool {
        progress_since_commit >= self.intervals.current()
    }

    /// Account one committed checkpoint: `cost` is the virtual time the
    /// snapshot took, `progress` the application progress it captured.
    pub fn checkpoint_committed(&mut self, cost: SimDuration, progress: SimDuration) {
        self.report.checkpoints += 1;
        self.report.checkpoint_overhead += cost;
        self.committed_progress = progress;
        let elapsed = self.now.since(self.started);
        let interval_before = self.intervals.current();
        self.intervals.record_checkpoint(cost, elapsed);
        obs::emit(
            "supervisor",
            self.now,
            obs::EventKind::CheckpointAccounted {
                cost_ns: cost.as_nanos(),
                progress: progress.as_nanos(),
            },
        );
        self.emit_retune(interval_before, elapsed);
    }

    /// Account a detected failure of `src`. `progress_at_failure` is
    /// the application progress the failure destroyed (everything since
    /// the last committed checkpoint is wasted). Charges the detection
    /// latency as downtime, advances the supervision clock to the
    /// detection instant, and opens a repair incident.
    pub fn failure_detected(&mut self, src: BeatSource, progress_at_failure: SimDuration) {
        let detected_at = match self.monitor.detection_time(src) {
            Some(t) => t.max(self.now),
            None => self.now,
        };
        let latency = detected_at.since(self.now);
        self.now = detected_at;
        self.report.failures += 1;
        self.report.downtime += latency;
        let wasted = progress_at_failure.max(self.committed_progress) - self.committed_progress;
        self.report.wasted_work += wasted;
        let elapsed = self.now.since(self.started);
        let interval_before = self.intervals.current();
        self.intervals.record_failure(elapsed);
        // Defensive: the supervision loop handles incidents one at a
        // time, but if a new failure ever lands on an open incident,
        // close the old one first so downtime attribution stays exact.
        self.close_incident(0);
        self.incident_repairs = 0;
        self.incident_source = Some(src.to_string());
        self.incident_downtime = latency;
        obs::emit(
            "supervisor",
            self.now,
            obs::EventKind::IncidentOpened {
                source: src.to_string(),
                wasted_ns: wasted.as_nanos(),
                detect_ns: latency.as_nanos(),
            },
        );
        self.emit_retune(interval_before, elapsed);
    }

    /// Account a suspicion that probing disproved: `src` was alive,
    /// just slow (heartbeat loss, gray channel, partition). The probe
    /// time is booked as *supervisor-induced* overhead — not downtime,
    /// not wasted work, and crucially not a failure, so the Daly
    /// controller's MTBF estimate is untouched and τ does not stretch
    /// over a detector blip. The probe's fresh evidence of life also
    /// feeds the monitor as a beat, clearing the suspicion.
    pub fn false_positive(&mut self, src: BeatSource, probe_cost: SimDuration) {
        self.now += probe_cost;
        self.report.false_positives += 1;
        self.report.induced_overhead += probe_cost;
        self.monitor.beat(src, self.now);
        obs::emit(
            "supervisor",
            self.now,
            obs::EventKind::FalsePositive {
                source: src.to_string(),
                induced_ns: probe_cost.as_nanos(),
            },
        );
    }

    /// Sanction one repair attempt for the open incident. Returns the
    /// backoff to charge before the attempt, or `Err(Escalated)` when
    /// the ladder is exhausted. The backoff (zero for the first
    /// attempt, doubling thereafter) is also charged as downtime here.
    pub fn sanction_repair(&mut self, detail: &str) -> Result<SimDuration, SupervisorError> {
        if self.incident_repairs >= self.cfg.max_repairs {
            self.close_incident(0);
            return Err(SupervisorError::Escalated {
                repairs: self.incident_repairs,
                detail: detail.to_string(),
            });
        }
        self.incident_repairs += 1;
        self.report.repairs += 1;
        let backoff = if self.incident_repairs == 1 {
            SimDuration::ZERO
        } else {
            REPAIR_BACKOFF * (1u64 << (self.incident_repairs - 2).min(16))
        };
        self.now += backoff;
        self.report.downtime += backoff;
        self.incident_downtime += backoff;
        if telemetry::enabled() {
            let _scope = telemetry::track_scope(telemetry::Track::CLUSTER);
            telemetry::instant(
                telemetry::SUPERVISOR_CATEGORY,
                "supervisor.repair",
                self.now,
                vec![
                    ("attempt", (self.incident_repairs as u64).into()),
                    ("detail", detail.to_string().into()),
                ],
            );
        }
        Ok(backoff)
    }

    /// Charge repair execution time (respawn / migration / restore) as
    /// downtime and close the incident.
    pub fn repair_succeeded(&mut self, took: SimDuration) {
        self.now += took;
        self.report.downtime += took;
        self.incident_downtime += took;
        self.close_incident(1);
        self.incident_repairs = 0;
    }

    /// Charge a failed repair attempt's execution time as downtime; the
    /// incident stays open for the next [`Supervisor::sanction_repair`].
    pub fn repair_failed(&mut self, took: SimDuration) {
        self.now += took;
        self.report.downtime += took;
        self.incident_downtime += took;
    }

    /// Emit the ledger's IncidentClosed record for the open incident,
    /// if any. `resolved` is 1 when service was restored.
    fn close_incident(&mut self, resolved: u64) {
        if let Some(source) = self.incident_source.take() {
            obs::emit(
                "supervisor",
                self.now,
                obs::EventKind::IncidentClosed {
                    source,
                    downtime_ns: self.incident_downtime.as_nanos(),
                    repairs: self.incident_repairs as u64,
                    resolved,
                },
            );
            self.incident_downtime = SimDuration::ZERO;
        }
    }

    /// Emit an IntervalRetuned record when the controller's interval
    /// moved (one ledger record per entry the controller appends to its
    /// history after construction).
    fn emit_retune(&mut self, before: SimDuration, elapsed: SimDuration) {
        let current = self.intervals.current();
        if current != before {
            obs::emit(
                "supervisor",
                self.now,
                obs::EventKind::IntervalRetuned {
                    interval_ns: current.as_nanos(),
                    mtbf_ns: self.intervals.mtbf(elapsed).as_nanos(),
                },
            );
        }
    }

    /// Close the run and take the report. `completed` says whether the
    /// workload finished; `final_progress` is its total application
    /// progress (used only for the wall clock).
    pub fn finish(mut self, completed: bool) -> SupervisorReport {
        // An incident still open here ended the run without a repair
        // sticking — close it unresolved so ledger downtime stays
        // exact.
        self.close_incident(0);
        self.report.completed = completed;
        self.report.wall_clock = self.now.since(self.started);
        self.report.interval_history = self.intervals.history().to_vec();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osproc::Pid;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            initial_mtbf: SimDuration::from_secs(100),
            min_interval: SimDuration::from_millis(10),
            max_interval: SimDuration::from_secs(1_000),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn daly_interval_tracks_cost_and_mtbf() {
        let mut ctl = IntervalController::new(IntervalPolicy::DalyAdaptive, &cfg());
        // δ = 0.5 s, prior MTBF = 100 s → τ = sqrt(2·0.5·100) = 10 s.
        ctl.record_checkpoint(SimDuration::from_millis(500), SimDuration::from_secs(5));
        assert_eq!(ctl.current(), SimDuration::from_secs_f64(10.0));
        // One failure at 50 s elapsed → MTBF 50 s → τ = sqrt(2·0.5·50).
        ctl.record_failure(SimDuration::from_secs(50));
        assert_eq!(ctl.current(), SimDuration::from_secs_f64(50.0_f64.sqrt()));
        // Costs are EWMA-folded: a 1.5 s observation moves δ to 1.0 s.
        ctl.record_checkpoint(SimDuration::from_millis(1_500), SimDuration::from_secs(60));
        assert_eq!(
            ctl.current(),
            SimDuration::from_secs_f64((2.0_f64 * 1.0 * 60.0).sqrt())
        );
        assert!(ctl.history().len() >= 3);
    }

    #[test]
    fn daly_interval_respects_clamps() {
        let mut tight = cfg();
        tight.max_interval = SimDuration::from_secs(2);
        let mut ctl = IntervalController::new(IntervalPolicy::DalyAdaptive, &tight);
        ctl.record_checkpoint(SimDuration::from_secs(5), SimDuration::from_secs(1));
        assert_eq!(ctl.current(), SimDuration::from_secs(2), "upper clamp");
        let mut ctl = IntervalController::new(IntervalPolicy::DalyAdaptive, &cfg());
        for i in 1..=64 {
            ctl.record_failure(SimDuration::from_micros(10 * i));
        }
        assert_eq!(ctl.current(), cfg().min_interval, "lower clamp");
    }

    #[test]
    fn fixed_interval_never_moves() {
        let fixed = SimDuration::from_millis(700);
        let mut ctl = IntervalController::new(IntervalPolicy::Fixed(fixed), &cfg());
        ctl.record_checkpoint(SimDuration::from_secs(3), SimDuration::from_secs(9));
        ctl.record_failure(SimDuration::from_secs(10));
        assert_eq!(ctl.current(), fixed);
        assert_eq!(ctl.history(), &[fixed]);
    }

    #[test]
    fn repair_ladder_backs_off_and_escalates() {
        let mut sup = Supervisor::new(
            SupervisorConfig {
                max_repairs: 3,
                ..cfg()
            },
            IntervalPolicy::DalyAdaptive,
            SimTime::ZERO,
        );
        let src = BeatSource::Proxy(Pid(1));
        sup.monitor_mut().watch(src, SimTime::ZERO);
        sup.advance(SimTime::ZERO + SimDuration::from_secs(1));
        sup.failure_detected(src, SimDuration::from_millis(800));
        assert_eq!(
            sup.sanction_repair("proxy death").unwrap(),
            SimDuration::ZERO
        );
        sup.repair_failed(SimDuration::from_millis(10));
        assert_eq!(
            sup.sanction_repair("proxy death").unwrap(),
            SimDuration::from_millis(100)
        );
        sup.repair_failed(SimDuration::from_millis(10));
        assert_eq!(
            sup.sanction_repair("proxy death").unwrap(),
            SimDuration::from_millis(200)
        );
        sup.repair_failed(SimDuration::from_millis(10));
        let err = sup.sanction_repair("proxy death").unwrap_err();
        let SupervisorError::Escalated { repairs, detail } = err;
        assert_eq!(repairs, 3);
        assert!(detail.contains("proxy death"));
        let report = sup.finish(false);
        assert!(!report.completed);
        assert_eq!(report.failures, 1);
        assert_eq!(report.repairs, 3);
        // Downtime: detection latency + 2 backoffs + 3 failed attempts.
        assert!(report.downtime >= SimDuration::from_millis(330));
    }

    #[test]
    fn false_positive_books_induced_overhead_not_failure() {
        let mut sup = Supervisor::new(cfg(), IntervalPolicy::DalyAdaptive, SimTime::ZERO);
        let src = BeatSource::Proxy(Pid(3));
        sup.monitor_mut().watch(src, SimTime::ZERO);
        let tau_before = sup.interval();
        sup.advance(SimTime::ZERO + SimDuration::from_secs(1));
        sup.false_positive(src, SimDuration::from_millis(50));
        // The probe's evidence of life cleared the suspicion…
        let now = sup.now();
        assert!(sup.monitor_mut().suspects(now).is_empty());
        // …and the Daly controller never saw a failure: τ unmoved.
        assert_eq!(sup.interval(), tau_before);
        let report = sup.finish(true);
        assert_eq!(report.failures, 0, "a live process is not a failure");
        assert_eq!(report.false_positives, 1);
        assert_eq!(report.induced_overhead, SimDuration::from_millis(50));
        assert_eq!(report.downtime, SimDuration::ZERO);
        assert_eq!(report.wasted_work, SimDuration::ZERO);
        assert_eq!(report.total_overhead(), SimDuration::from_millis(50));
    }

    #[test]
    fn wasted_work_is_progress_past_the_last_commit() {
        let mut sup = Supervisor::new(cfg(), IntervalPolicy::DalyAdaptive, SimTime::ZERO);
        let src = BeatSource::Proxy(Pid(2));
        sup.monitor_mut().watch(src, SimTime::ZERO);
        sup.advance(SimTime::ZERO + SimDuration::from_secs(2));
        sup.checkpoint_committed(
            SimDuration::from_millis(40),
            SimDuration::from_millis(1_500),
        );
        sup.advance(SimTime::ZERO + SimDuration::from_secs(3));
        sup.failure_detected(src, SimDuration::from_millis(2_400));
        let report = sup.finish(true);
        assert_eq!(report.wasted_work, SimDuration::from_millis(900));
        assert_eq!(report.checkpoints, 1);
        assert_eq!(report.failures, 1);
        assert_eq!(
            report.total_overhead(),
            report.wasted_work + report.checkpoint_overhead + report.downtime
        );
    }
}
