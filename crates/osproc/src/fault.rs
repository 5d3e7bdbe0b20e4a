//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded, virtual-time-scheduled fault schedule
//! installed on a [`Cluster`](crate::Cluster). It can fail or mangle
//! filesystem writes (outright failure, short write, bit-flip
//! corruption), make the NFS mount unavailable for a window of virtual
//! time, crash whole nodes at scheduled instants, and deliver
//! process-level faults (API-proxy death, pipe breakage) that the
//! CheCL runtime polls for.
//!
//! Everything is driven either by explicit schedules (virtual-time
//! instants, one-shot counters) or by a [`SplitMix64`] stream seeded at
//! construction, so a plan replays bit-for-bit: the same seed over the
//! same workload injects the same faults at the same virtual times.
//! When no plan is installed the hooks are never consulted — fault
//! support is zero-cost when off.
//!
//! Every injected fault is appended to [`FaultPlan::log`] and emitted
//! as one `fault_injected` record ([`obs::EventKind::FaultInjected`]):
//! a ledger entry, and in a trace an instant.

use crate::fs::FsKind;
use crate::ids::NodeId;
use simcore::{obs, SimDuration, SimTime, SplitMix64};

/// The classes of fault the plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A filesystem write returns an error; nothing is stored.
    DiskWriteFail,
    /// A filesystem write silently stores a prefix of the data.
    ShortWrite,
    /// A filesystem write silently stores bit-flipped data.
    CorruptWrite,
    /// The NFS mount rejects reads and writes during a window.
    NfsOutage,
    /// A whole node fails; its processes die, local files survive.
    NodeCrash,
    /// The app↔proxy pipe breaks; calls fail until a respawn.
    PipeBreak,
    /// The API proxy process dies.
    ProxyDeath,
    /// A storage channel runs at reduced bandwidth for a window — the
    /// gray sibling of an outage: every I/O still succeeds, just
    /// slower.
    ChannelDegraded,
    /// Heartbeats are dropped for a window while the sender stays
    /// alive, stressing the failure detector with false positives.
    HeartbeatLoss,
    /// The supervisor loses network reachability to a set of nodes for
    /// a window that later heals; the nodes (and any writer on them)
    /// keep running.
    Partition,
}

impl FaultKind {
    /// Stable lower-case name used in telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DiskWriteFail => "disk_write_fail",
            FaultKind::ShortWrite => "short_write",
            FaultKind::CorruptWrite => "corrupt_write",
            FaultKind::NfsOutage => "nfs_outage",
            FaultKind::NodeCrash => "node_crash",
            FaultKind::PipeBreak => "pipe_break",
            FaultKind::ProxyDeath => "proxy_death",
            FaultKind::ChannelDegraded => "channel_degraded",
            FaultKind::HeartbeatLoss => "heartbeat_loss",
            FaultKind::Partition => "partition",
        }
    }
}

/// One fault that actually fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// What fired.
    pub kind: FaultKind,
    /// Virtual time of injection.
    pub at: SimTime,
    /// Human-readable context (path, node, …).
    pub detail: String,
}

/// What the plan decided about one filesystem write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Proceed untouched.
    None,
    /// Fail the write; store nothing.
    Fail,
    /// Store only the first `n` bytes, reporting success.
    Short(usize),
    /// XOR the given `(offset, mask)` flips into the data, reporting
    /// success.
    Corrupt(Vec<(usize, u8)>),
}

/// A seeded, deterministic fault schedule. Build with the `with_*` /
/// `schedule_*` combinators, then install via
/// [`Cluster::install_faults`](crate::Cluster::install_faults).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rng: SplitMix64,
    /// Probability each eligible write fails outright.
    write_fail_prob: f64,
    /// Probability each eligible write is stored short.
    short_write_prob: f64,
    /// Probability each eligible write is stored corrupted.
    corrupt_write_prob: f64,
    /// One-shot counters: the next N eligible writes fail / go short /
    /// corrupt. Checked before any probabilistic draw so tests can
    /// script exact fault sequences.
    fail_next_writes: u32,
    short_next_writes: u32,
    corrupt_next_writes: u32,
    /// When set, write faults only hit paths containing this substring
    /// (e.g. `".ckpt"` to target checkpoint files only).
    path_filter: Option<String>,
    /// When set, corruption bit flips land within the first N bytes of
    /// the data (the header / live-frame region of a checkpoint file);
    /// unset means uniform over the whole write.
    corrupt_prefix: Option<usize>,
    /// Half-open `[from, until)` windows during which NFS is down.
    nfs_outages: Vec<(SimTime, SimTime)>,
    /// Scheduled node crashes, delivered by `Cluster::poll_faults`.
    node_crashes: Vec<(SimTime, NodeId)>,
    /// Scheduled proxy deaths, polled by the CheCL session layer.
    proxy_deaths: Vec<SimTime>,
    /// Scheduled pipe breaks, polled by the CheCL session layer.
    pipe_breaks: Vec<SimTime>,
    /// Recurring proxy deaths: mean inter-arrival time, the next armed
    /// instant (armed lazily at the first poll), and a dedicated RNG
    /// stream so arming never perturbs the write-fault draws.
    proxy_death_rate: Option<RecurringFaults<()>>,
    /// Recurring node crashes: same shape, plus the candidate victims.
    node_crash_rate: Option<RecurringFaults<Vec<NodeId>>>,
    /// Gray-failure windows: storage running at reduced bandwidth.
    degradations: Vec<GrayWindow>,
    /// Gray-failure windows: heartbeats silently dropped while the
    /// sender stays alive.
    heartbeat_losses: Vec<GrayWindow>,
    /// Gray-failure windows: supervisor↔node partitions that heal.
    partitions: Vec<GrayWindow>,
    /// Named failure domains (rack/zone): members crash together when
    /// a domain crash is scheduled.
    domains: Vec<(String, Vec<NodeId>)>,
    /// Scheduled correlated crashes of a whole domain by name.
    domain_crashes: Vec<(SimTime, String)>,
    /// Torture-harness hook: once the obs ledger has recorded this
    /// many events, every subsequent filesystem mutation fails — the
    /// process "died" at exactly that event boundary.
    crash_at_event: Option<u64>,
    crash_tripped: bool,
    log: Vec<InjectedFault>,
}

/// One gray-failure window `[from, until)`. `percent` is the surviving
/// bandwidth for degradations (ignored for loss/partition windows);
/// `fs`/`nodes` scope the window; `recorded` makes the window log one
/// `FaultInjected` on first activation instead of one per poll.
#[derive(Clone, Debug)]
struct GrayWindow {
    from: SimTime,
    until: SimTime,
    percent: u32,
    fs: Option<FsKind>,
    nodes: Vec<NodeId>,
    recorded: bool,
}

impl GrayWindow {
    fn active(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// An open-ended stream of one fault class: arrivals are drawn one at
/// a time from a dedicated [`SplitMix64`] stream, uniformly jittered
/// in `[0.25, 1.75] × mean` so the mean inter-arrival time is exactly
/// `mean` while staying free of transcendental math (bit-identical
/// across platforms, which the golden-guarded benches rely on).
#[derive(Clone, Debug)]
struct RecurringFaults<T> {
    mean: SimDuration,
    next: Option<SimTime>,
    rng: SplitMix64,
    targets: T,
}

impl<T> RecurringFaults<T> {
    fn new(seed: u64, salt: u64, mean: SimDuration, targets: T) -> Self {
        RecurringFaults {
            mean: mean.max(SimDuration::from_micros(1)),
            next: None,
            rng: SplitMix64::new(seed ^ salt),
            targets,
        }
    }

    /// Draw the next inter-arrival gap.
    fn gap(&mut self) -> SimDuration {
        self.mean * (0.25 + 1.5 * self.rng.next_f64())
    }

    /// `true` when an arrival at or before `now` is due; the stream is
    /// armed on its first consult and re-armed after each delivery.
    fn due(&mut self, now: SimTime) -> bool {
        match self.next {
            None => {
                let gap = self.gap();
                self.next = Some(now + gap);
                false
            }
            Some(at) if at <= now => {
                let gap = self.gap();
                self.next = Some(at + gap.max(SimDuration::from_micros(1)));
                true
            }
            Some(_) => false,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing until combinators arm it.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rng: SplitMix64::new(seed),
            write_fail_prob: 0.0,
            short_write_prob: 0.0,
            corrupt_write_prob: 0.0,
            fail_next_writes: 0,
            short_next_writes: 0,
            corrupt_next_writes: 0,
            path_filter: None,
            corrupt_prefix: None,
            nfs_outages: Vec::new(),
            node_crashes: Vec::new(),
            proxy_deaths: Vec::new(),
            pipe_breaks: Vec::new(),
            proxy_death_rate: None,
            node_crash_rate: None,
            degradations: Vec::new(),
            heartbeat_losses: Vec::new(),
            partitions: Vec::new(),
            domains: Vec::new(),
            domain_crashes: Vec::new(),
            crash_at_event: None,
            crash_tripped: false,
            log: Vec::new(),
        }
    }

    /// Seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Each eligible write fails with probability `p`.
    pub fn with_write_fail_prob(mut self, p: f64) -> Self {
        self.write_fail_prob = p;
        self
    }

    /// Each eligible write is stored short with probability `p`.
    pub fn with_short_write_prob(mut self, p: f64) -> Self {
        self.short_write_prob = p;
        self
    }

    /// Each eligible write is stored corrupted with probability `p`.
    pub fn with_corrupt_write_prob(mut self, p: f64) -> Self {
        self.corrupt_write_prob = p;
        self
    }

    /// The next `n` eligible writes fail outright.
    pub fn fail_next_writes(mut self, n: u32) -> Self {
        self.fail_next_writes = n;
        self
    }

    /// The next `n` eligible writes are stored short.
    pub fn short_next_writes(mut self, n: u32) -> Self {
        self.short_next_writes = n;
        self
    }

    /// The next `n` eligible writes are stored corrupted.
    pub fn corrupt_next_writes(mut self, n: u32) -> Self {
        self.corrupt_next_writes = n;
        self
    }

    /// Restrict write faults to paths containing `substr`.
    pub fn only_paths_containing(mut self, substr: &str) -> Self {
        self.path_filter = Some(substr.to_string());
        self
    }

    /// Land corruption bit flips within the first `n` bytes of each
    /// write — the header / frame region of a checkpoint file, whose
    /// damage the frame checksum is guaranteed to notice. Without this
    /// the flips are uniform over the write (and may hit bytes only a
    /// byte-exact read-back verification can vouch for).
    pub fn corrupt_in_prefix(mut self, n: usize) -> Self {
        self.corrupt_prefix = Some(n);
        self
    }

    /// NFS is unavailable during `[from, until)`.
    pub fn schedule_nfs_outage(mut self, from: SimTime, until: SimTime) -> Self {
        self.nfs_outages.push((from, until));
        self
    }

    /// Crash `node` at virtual time `at` (delivered by
    /// [`Cluster::poll_faults`](crate::Cluster::poll_faults)).
    pub fn schedule_node_crash(mut self, at: SimTime, node: NodeId) -> Self {
        self.node_crashes.push((at, node));
        self
    }

    /// Kill the API proxy at virtual time `at` (polled by the session
    /// layer via [`FaultPlan::proxy_death_due`]).
    pub fn schedule_proxy_death(mut self, at: SimTime) -> Self {
        self.proxy_deaths.push(at);
        self
    }

    /// Break the app↔proxy pipe at virtual time `at`.
    pub fn schedule_pipe_break(mut self, at: SimTime) -> Self {
        self.pipe_breaks.push(at);
        self
    }

    /// Kill the API proxy *recurringly*, with mean inter-arrival time
    /// `mean` — an open-ended fault stream rather than a one-shot
    /// schedule, for testing supervision loops. Arrivals are drawn from
    /// a dedicated seeded stream; the first arrival is armed relative
    /// to the first [`FaultPlan::proxy_death_due`] poll, so installing
    /// the plan mid-run does not deliver a burst of back-dated deaths.
    pub fn with_proxy_death_rate(mut self, mean: SimDuration) -> Self {
        self.proxy_death_rate = Some(RecurringFaults::new(
            self.seed,
            0x70726f_78795f64, // "proxy_d"
            mean,
            (),
        ));
        self
    }

    /// Crash one of `nodes` (chosen uniformly per arrival) recurringly,
    /// with mean inter-arrival time `mean`. Delivered through
    /// [`Cluster::poll_faults`](crate::Cluster::poll_faults) exactly
    /// like the one-shot schedule.
    pub fn with_node_crash_rate(mut self, mean: SimDuration, nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "node crash rate needs >= 1 victim");
        self.node_crash_rate = Some(RecurringFaults::new(
            self.seed,
            0x6e6f64_655f6372, // "node_cr"
            mean,
            nodes.to_vec(),
        ));
        self
    }

    /// Mounts of kind `fs` (all kinds when `None`) run at `percent`%
    /// of their normal bandwidth during `[from, until)` — a brownout.
    /// I/O succeeds but each operation's cost inflates by
    /// `100/percent`. `percent` must be in `1..=99`.
    pub fn schedule_degradation(
        mut self,
        from: SimTime,
        until: SimTime,
        percent: u32,
        fs: Option<FsKind>,
    ) -> Self {
        assert!(
            (1..100).contains(&percent),
            "degradation percent must be in 1..=99, got {percent}"
        );
        self.degradations.push(GrayWindow {
            from,
            until,
            percent,
            fs,
            nodes: Vec::new(),
            recorded: false,
        });
        self
    }

    /// Heartbeats are silently dropped during `[from, until)` while
    /// every sender stays alive — the classic gray failure that turns
    /// a timeout detector into a false-positive machine.
    pub fn schedule_heartbeat_loss(mut self, from: SimTime, until: SimTime) -> Self {
        self.heartbeat_losses.push(GrayWindow {
            from,
            until,
            percent: 0,
            fs: None,
            nodes: Vec::new(),
            recorded: false,
        });
        self
    }

    /// The supervisor cannot reach `nodes` during `[from, until)`; the
    /// nodes and their processes keep running and the partition heals
    /// when the window closes.
    pub fn schedule_partition(mut self, from: SimTime, until: SimTime, nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "a partition needs >= 1 node");
        self.partitions.push(GrayWindow {
            from,
            until,
            percent: 0,
            fs: None,
            nodes: nodes.to_vec(),
            recorded: false,
        });
        self
    }

    /// Name a failure domain (rack/zone) containing `nodes`. Used both
    /// for correlated crashes ([`FaultPlan::schedule_domain_crash`])
    /// and for domain-aware failover-target selection
    /// ([`FaultPlan::domain_of`]).
    pub fn define_domain(mut self, name: &str, nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "a failure domain needs >= 1 node");
        self.domains.push((name.to_string(), nodes.to_vec()));
        self
    }

    /// Crash every member of the named domain together at `at`
    /// (delivered through `Cluster::poll_faults` like single-node
    /// crashes).
    pub fn schedule_domain_crash(mut self, at: SimTime, domain: &str) -> Self {
        assert!(
            self.domains.iter().any(|(n, _)| n == domain),
            "unknown failure domain {domain:?}"
        );
        self.domain_crashes.push((at, domain.to_string()));
        self
    }

    /// Torture-harness hook: once the obs ledger holds `n` events,
    /// every subsequent filesystem mutation (write, append, rename,
    /// delete) fails — the process died at exactly that obs-event
    /// boundary. Requires obs recording to be on; disarm by taking the
    /// plan off the cluster.
    pub fn crash_after_events(mut self, n: u64) -> Self {
        self.crash_at_event = Some(n);
        self
    }

    /// The failure domain `node` belongs to, if any.
    pub fn domain_of(&self, node: NodeId) -> Option<&str> {
        self.domains
            .iter()
            .find(|(_, members)| members.contains(&node))
            .map(|(name, _)| name.as_str())
    }

    /// Extra virtual time a filesystem operation of base cost `cost`
    /// pays right now on a mount of kind `fs` due to an active
    /// degradation window (zero when healthy). The first hit of each
    /// window records one `ChannelDegraded` fault.
    pub fn degradation_extra(
        &mut self,
        fs: FsKind,
        now: SimTime,
        cost: SimDuration,
    ) -> SimDuration {
        let hit = self
            .degradations
            .iter()
            .position(|w| w.active(now) && w.fs.is_none_or(|k| k == fs));
        let Some(i) = hit else {
            return SimDuration::ZERO;
        };
        let w = &mut self.degradations[i];
        let percent = w.percent as u64;
        let (from, until, first) = (w.from, w.until, !w.recorded);
        self.degradations[i].recorded = true;
        if first {
            self.record(
                FaultKind::ChannelDegraded,
                now,
                format!("{fs:?} at {percent}% bandwidth for {:?}..{:?}", from, until),
            );
        }
        SimDuration::from_nanos(cost.as_nanos() * (100 - percent) / percent)
    }

    /// `true` while heartbeats are being dropped (the supervise loop
    /// polls this and suppresses its beats). The first poll inside
    /// each window records one `HeartbeatLoss` fault.
    pub fn heartbeats_lost(&mut self, now: SimTime) -> bool {
        let hit = self.heartbeat_losses.iter().position(|w| w.active(now));
        let Some(i) = hit else { return false };
        let (from, until, first) = (
            self.heartbeat_losses[i].from,
            self.heartbeat_losses[i].until,
            !self.heartbeat_losses[i].recorded,
        );
        self.heartbeat_losses[i].recorded = true;
        if first {
            self.record(
                FaultKind::HeartbeatLoss,
                now,
                format!("heartbeats dropped {:?}..{:?}", from, until),
            );
        }
        true
    }

    /// `true` while the supervisor cannot reach `node`. The first poll
    /// inside each window records one `Partition` fault.
    pub fn partitioned(&mut self, node: NodeId, now: SimTime) -> bool {
        let hit = self
            .partitions
            .iter()
            .position(|w| w.active(now) && w.nodes.contains(&node));
        let Some(i) = hit else { return false };
        let (from, until, first) = (
            self.partitions[i].from,
            self.partitions[i].until,
            !self.partitions[i].recorded,
        );
        self.partitions[i].recorded = true;
        if first {
            let nodes = self.partitions[i].nodes.clone();
            self.record(
                FaultKind::Partition,
                now,
                format!("nodes {nodes:?} unreachable {:?}..{:?}", from, until),
            );
        }
        true
    }

    /// Torture-harness gate, called by every `Cluster` filesystem
    /// mutation: `true` once the armed obs-event boundary has been
    /// reached — the process is dead, every further effect must fail.
    pub fn crash_due(&mut self, now: SimTime) -> bool {
        if self.crash_tripped {
            return true;
        }
        let Some(n) = self.crash_at_event else {
            return false;
        };
        if obs::event_count() as u64 >= n {
            self.crash_tripped = true;
            self.record(
                FaultKind::NodeCrash,
                now,
                format!("torture crash at obs event boundary {n}"),
            );
            return true;
        }
        false
    }

    /// Everything injected so far, in injection order.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// How many faults of `kind` have fired.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.log.iter().filter(|f| f.kind == kind).count()
    }

    fn record(&mut self, kind: FaultKind, at: SimTime, detail: String) {
        // Every injection site funnels through here, so the ledger sees
        // one FaultInjected record per fault — the invariant that lets
        // `checl_inspect` reconcile injected faults against observed
        // incidents 1:1 — and the trace one instant.
        obs::emit(
            "fault",
            at,
            obs::EventKind::FaultInjected {
                fault: kind.name().to_string(),
                detail: detail.clone(),
            },
        );
        self.log.push(InjectedFault { kind, at, detail });
    }

    fn path_matches(&self, path: &str) -> bool {
        match &self.path_filter {
            Some(s) => path.contains(s.as_str()),
            None => true,
        }
    }

    fn in_nfs_outage(&self, now: SimTime) -> bool {
        self.nfs_outages
            .iter()
            .any(|(from, until)| now >= *from && now < *until)
    }

    /// Decide the fate of a write of `len` bytes to `path` on a mount
    /// of kind `fs`. Called by `Cluster::write_file`.
    pub fn on_write(&mut self, fs: FsKind, path: &str, now: SimTime, len: usize) -> WriteFault {
        if fs == FsKind::Nfs && self.in_nfs_outage(now) {
            self.record(FaultKind::NfsOutage, now, format!("write {path}"));
            return WriteFault::Fail;
        }
        if !self.path_matches(path) {
            return WriteFault::None;
        }
        if self.fail_next_writes > 0 {
            self.fail_next_writes -= 1;
            self.record(FaultKind::DiskWriteFail, now, path.to_string());
            return WriteFault::Fail;
        }
        if self.short_next_writes > 0 && len > 0 {
            self.short_next_writes -= 1;
            let kept = self.rng.next_below(len as u64) as usize;
            self.record(
                FaultKind::ShortWrite,
                now,
                format!("{path}: {kept}/{len} bytes"),
            );
            return WriteFault::Short(kept);
        }
        if self.corrupt_next_writes > 0 && len > 0 {
            self.corrupt_next_writes -= 1;
            return self.corrupt(path, now, len);
        }
        if self.write_fail_prob > 0.0 && self.rng.next_f64() < self.write_fail_prob {
            self.record(FaultKind::DiskWriteFail, now, path.to_string());
            return WriteFault::Fail;
        }
        if self.short_write_prob > 0.0 && len > 0 && self.rng.next_f64() < self.short_write_prob {
            let kept = self.rng.next_below(len as u64) as usize;
            self.record(
                FaultKind::ShortWrite,
                now,
                format!("{path}: {kept}/{len} bytes"),
            );
            return WriteFault::Short(kept);
        }
        if self.corrupt_write_prob > 0.0 && len > 0 && self.rng.next_f64() < self.corrupt_write_prob
        {
            return self.corrupt(path, now, len);
        }
        WriteFault::None
    }

    fn corrupt(&mut self, path: &str, now: SimTime, len: usize) -> WriteFault {
        let span = self
            .corrupt_prefix
            .map(|p| p.min(len))
            .unwrap_or(len)
            .max(1);
        let n = 1 + self.rng.next_below(3) as usize;
        let flips: Vec<(usize, u8)> = (0..n)
            .map(|_| {
                let pos = self.rng.next_below(span as u64) as usize;
                let mask = 1u8 << self.rng.next_below(8);
                (pos, mask)
            })
            .collect();
        self.record(
            FaultKind::CorruptWrite,
            now,
            format!("{path}: {} bit flip(s)", flips.len()),
        );
        WriteFault::Corrupt(flips)
    }

    /// `true` if a read from a mount of kind `fs` must fail right now
    /// (NFS outage window). Called by `Cluster::read_file`.
    pub fn on_read(&mut self, fs: FsKind, path: &str, now: SimTime) -> bool {
        if fs == FsKind::Nfs && self.in_nfs_outage(now) {
            self.record(FaultKind::NfsOutage, now, format!("read {path}"));
            return true;
        }
        false
    }

    /// Drain node crashes scheduled at or before `now` — one-shot
    /// schedule entries plus at most one recurring-rate arrival per
    /// poll.
    pub fn due_node_crashes(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut due = Vec::new();
        let mut remaining = Vec::new();
        for (at, node) in std::mem::take(&mut self.node_crashes) {
            if at <= now {
                due.push((at, node));
            } else {
                remaining.push((at, node));
            }
        }
        self.node_crashes = remaining;
        due.iter().for_each(|(at, node)| {
            self.record(FaultKind::NodeCrash, *at, format!("node {node:?}"))
        });
        let mut out: Vec<NodeId> = due.into_iter().map(|(_, node)| node).collect();
        // Correlated domain crashes: every member of the named domain
        // goes down together (one recorded fault per member, so the
        // blast radius is visible in the ledger).
        let mut due_domains = Vec::new();
        let mut later = Vec::new();
        for (at, name) in std::mem::take(&mut self.domain_crashes) {
            if at <= now {
                due_domains.push((at, name));
            } else {
                later.push((at, name));
            }
        }
        self.domain_crashes = later;
        for (at, name) in due_domains {
            let members = self
                .domains
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, m)| m.clone())
                .unwrap_or_default();
            for node in members {
                self.record(
                    FaultKind::NodeCrash,
                    at,
                    format!("node {node:?} (domain {name})"),
                );
                out.push(node);
            }
        }
        if let Some(rate) = self.node_crash_rate.as_mut() {
            if rate.due(now) {
                let victim = rate.targets[rate.rng.next_below(rate.targets.len() as u64) as usize];
                self.record(FaultKind::NodeCrash, now, format!("node {victim:?} (rate)"));
                out.push(victim);
            }
        }
        out
    }

    /// `true` if a proxy death scheduled at or before `now` is due
    /// (consumes it). A recurring rate armed with
    /// [`FaultPlan::with_proxy_death_rate`] delivers through the same
    /// poll.
    pub fn proxy_death_due(&mut self, now: SimTime) -> bool {
        if self.take_due(now, FaultKind::ProxyDeath) {
            return true;
        }
        if let Some(rate) = self.proxy_death_rate.as_mut() {
            if rate.due(now) {
                self.record(FaultKind::ProxyDeath, now, "(rate)".to_string());
                return true;
            }
        }
        false
    }

    /// `true` if a pipe break scheduled at or before `now` is due
    /// (consumes it).
    pub fn pipe_break_due(&mut self, now: SimTime) -> bool {
        self.take_due(now, FaultKind::PipeBreak)
    }

    fn take_due(&mut self, now: SimTime, kind: FaultKind) -> bool {
        let list = match kind {
            FaultKind::ProxyDeath => &mut self.proxy_deaths,
            FaultKind::PipeBreak => &mut self.pipe_breaks,
            _ => unreachable!("take_due only handles process faults"),
        };
        if let Some(i) = list.iter().position(|at| *at <= now) {
            let at = list.remove(i);
            self.record(kind, at, String::new());
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + simcore::SimDuration::from_millis(ms)
    }

    #[test]
    fn scripted_counters_fire_in_order() {
        let mut plan = FaultPlan::new(1).fail_next_writes(1).short_next_writes(1);
        assert_eq!(
            plan.on_write(FsKind::LocalDisk, "/local/a", t(0), 100),
            WriteFault::Fail
        );
        match plan.on_write(FsKind::LocalDisk, "/local/a", t(1), 100) {
            WriteFault::Short(n) => assert!(n < 100),
            other => panic!("expected short write, got {other:?}"),
        }
        assert_eq!(
            plan.on_write(FsKind::LocalDisk, "/local/a", t(2), 100),
            WriteFault::None
        );
        assert_eq!(plan.count(FaultKind::DiskWriteFail), 1);
        assert_eq!(plan.count(FaultKind::ShortWrite), 1);
    }

    #[test]
    fn path_filter_scopes_faults() {
        let mut plan = FaultPlan::new(2)
            .fail_next_writes(1)
            .only_paths_containing(".ckpt");
        assert_eq!(
            plan.on_write(FsKind::LocalDisk, "/local/data.bin", t(0), 10),
            WriteFault::None
        );
        assert_eq!(
            plan.on_write(FsKind::LocalDisk, "/local/app.ckpt", t(0), 10),
            WriteFault::Fail
        );
    }

    #[test]
    fn nfs_outage_window_blocks_reads_and_writes() {
        let mut plan = FaultPlan::new(3).schedule_nfs_outage(t(10), t(20));
        assert_eq!(
            plan.on_write(FsKind::Nfs, "/nfs/a", t(5), 10),
            WriteFault::None
        );
        assert_eq!(
            plan.on_write(FsKind::Nfs, "/nfs/a", t(15), 10),
            WriteFault::Fail
        );
        assert!(plan.on_read(FsKind::Nfs, "/nfs/a", t(19)));
        assert!(!plan.on_read(FsKind::Nfs, "/nfs/a", t(20)));
        // Local disks ride out the outage.
        assert_eq!(
            plan.on_write(FsKind::LocalDisk, "/local/a", t(15), 10),
            WriteFault::None
        );
        assert_eq!(plan.count(FaultKind::NfsOutage), 2);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed).with_write_fail_prob(0.3);
            (0..64)
                .map(|i| plan.on_write(FsKind::LocalDisk, "/local/x", t(i), 8) == WriteFault::Fail)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn scheduled_process_faults_are_consumed_once() {
        let mut plan = FaultPlan::new(4)
            .schedule_proxy_death(t(10))
            .schedule_pipe_break(t(30));
        assert!(!plan.proxy_death_due(t(5)));
        assert!(plan.proxy_death_due(t(10)));
        assert!(!plan.proxy_death_due(t(11)));
        assert!(!plan.pipe_break_due(t(29)));
        assert!(plan.pipe_break_due(t(31)));
        assert!(!plan.pipe_break_due(t(32)));
        assert_eq!(plan.log().len(), 2);
    }

    #[test]
    fn proxy_death_rate_is_recurring_and_replayable() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed).with_proxy_death_rate(SimDuration::from_millis(10));
            (0..400)
                .map(|i| plan.proxy_death_due(t(i)))
                .collect::<Vec<bool>>()
        };
        let a = run(11);
        let fired = a.iter().filter(|b| **b).count();
        // 400 ms of polling at a 10 ms mean: many arrivals, not one.
        assert!(fired > 10, "only {fired} recurring deaths fired");
        assert_eq!(a, run(11), "same seed must replay the same stream");
        assert_ne!(a, run(12));
    }

    #[test]
    fn node_crash_rate_hits_only_candidates() {
        let victims = [NodeId(1), NodeId(2)];
        let mut plan =
            FaultPlan::new(13).with_node_crash_rate(SimDuration::from_millis(5), &victims);
        let mut crashed = Vec::new();
        for i in 0..200 {
            crashed.extend(plan.due_node_crashes(t(i)));
        }
        assert!(crashed.len() > 5, "only {} crashes fired", crashed.len());
        assert!(crashed.iter().all(|n| victims.contains(n)));
        assert_eq!(plan.count(FaultKind::NodeCrash), crashed.len());
    }

    #[test]
    fn rate_arms_relative_to_first_poll() {
        let mut plan = FaultPlan::new(14).with_proxy_death_rate(SimDuration::from_millis(10));
        // First poll far into virtual time: arming, never a back-dated
        // burst.
        assert!(!plan.proxy_death_due(t(10_000)));
        let mut fired = 0;
        for i in 0..40 {
            if plan.proxy_death_due(t(10_000 + i)) {
                fired += 1;
            }
        }
        assert!(fired >= 1, "the stream must keep delivering after arming");
        assert!(fired <= 20, "a 10 ms mean cannot fire {fired}x in 40 ms");
    }

    #[test]
    fn degradation_window_inflates_cost_and_records_once() {
        let mut plan =
            FaultPlan::new(6).schedule_degradation(t(10), t(20), 25, Some(FsKind::LocalDisk));
        let cost = SimDuration::from_nanos(1000);
        // Healthy before the window and on other mounts.
        assert_eq!(
            plan.degradation_extra(FsKind::LocalDisk, t(5), cost),
            SimDuration::ZERO
        );
        assert_eq!(
            plan.degradation_extra(FsKind::Nfs, t(15), cost),
            SimDuration::ZERO
        );
        // 25% bandwidth → 4x cost → 3x extra.
        assert_eq!(
            plan.degradation_extra(FsKind::LocalDisk, t(15), cost),
            SimDuration::from_nanos(3000)
        );
        // Repeated hits keep inflating but record one fault total.
        assert_eq!(
            plan.degradation_extra(FsKind::LocalDisk, t(16), cost),
            SimDuration::from_nanos(3000)
        );
        assert_eq!(plan.count(FaultKind::ChannelDegraded), 1);
        // Healthy again after the window.
        assert_eq!(
            plan.degradation_extra(FsKind::LocalDisk, t(20), cost),
            SimDuration::ZERO
        );
    }

    #[test]
    fn heartbeat_loss_and_partition_windows_are_half_open() {
        let mut plan = FaultPlan::new(7)
            .schedule_heartbeat_loss(t(10), t(20))
            .schedule_partition(t(30), t(40), &[NodeId(1)]);
        assert!(!plan.heartbeats_lost(t(9)));
        assert!(plan.heartbeats_lost(t(10)));
        assert!(plan.heartbeats_lost(t(19)));
        assert!(!plan.heartbeats_lost(t(20)));
        assert!(!plan.partitioned(NodeId(1), t(29)));
        assert!(plan.partitioned(NodeId(1), t(35)));
        assert!(!plan.partitioned(NodeId(2), t(35)), "only listed nodes");
        assert!(!plan.partitioned(NodeId(1), t(40)), "the partition heals");
        assert_eq!(plan.count(FaultKind::HeartbeatLoss), 1);
        assert_eq!(plan.count(FaultKind::Partition), 1);
    }

    #[test]
    fn domain_crash_takes_every_member_together() {
        let rack = [NodeId(1), NodeId(2), NodeId(3)];
        let mut plan = FaultPlan::new(8)
            .define_domain("rack0", &rack)
            .define_domain("rack1", &[NodeId(4)])
            .schedule_domain_crash(t(50), "rack0");
        assert_eq!(plan.domain_of(NodeId(2)), Some("rack0"));
        assert_eq!(plan.domain_of(NodeId(4)), Some("rack1"));
        assert_eq!(plan.domain_of(NodeId(9)), None);
        assert!(plan.due_node_crashes(t(49)).is_empty());
        let crashed = plan.due_node_crashes(t(50));
        assert_eq!(crashed, rack.to_vec());
        assert_eq!(plan.count(FaultKind::NodeCrash), 3);
        assert!(plan.due_node_crashes(t(51)).is_empty(), "one-shot");
    }

    #[test]
    fn corrupt_flips_are_in_bounds() {
        let mut plan = FaultPlan::new(5).corrupt_next_writes(1);
        match plan.on_write(FsKind::RamDisk, "/ram/a", t(0), 16) {
            WriteFault::Corrupt(flips) => {
                assert!(!flips.is_empty() && flips.len() <= 3);
                for (pos, mask) in flips {
                    assert!(pos < 16);
                    assert_eq!(mask.count_ones(), 1);
                }
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }
}
