//! Fleet-scale multi-tenant scheduler on the `simcore::des` core.
//!
//! The paper pitches checkpointing as more than fault tolerance: it is
//! the mechanism that makes *scheduling* possible — a job that can be
//! checkpointed can be preempted, and a job that can be restored on a
//! different node can be migrated. This crate closes that loop. It
//! admits thousands of heterogeneous jobs from `workloads::catalog`,
//! bin-packs them onto a cluster of nodes with device slots, preempts
//! low-priority tenants *by checkpointing them* through the
//! `checl::engine` policy lattice when higher-priority work is waiting,
//! resumes them later (often on a different node — a cold migration),
//! live-migrates tenants off checkpoint-saturated nodes with
//! `migrate_with_policy`, and gang-schedules multi-rank `mpisim` jobs
//! with coordinated preemption at barriers.
//!
//! ## Scheduling model
//!
//! Tenants advance in *slices*: [`workloads::CheclSession::run_step`]
//! runs at most one quantum of virtual time and yields at `clFinish`
//! sync boundaries. A dispatched slice is executed optimistically and
//! its end posted to the event queue; scheduler decisions (preemption,
//! migration, completion) take effect at yield points, exactly where a
//! checkpoint is cheapest — at a [`YieldPoint::Sync`] the dump's sync
//! phase is nearly free, the Delayed-trigger observation of §III-C
//! promoted to a fleet-wide policy.
//!
//! ## Determinism
//!
//! Everything is virtual-time and seed-driven: the event queue breaks
//! ties by insertion sequence, job order comes from `(priority,
//! admission)` keys in B-trees, and the scheduler-overhead metric is a
//! *counted* quantity ([`EventQueue::ops`] plus set-operation counts),
//! not wall-clock. Replaying the same seed replays the same schedule
//! bit for bit.

use checl::cpr::RestoreTarget;
use checl::{CheclConfig, CprPolicy};
use osproc::{Cluster, NodeId};
use simcore::des::{ChannelMap, EventQueue, ProcSet, ProcState};
use simcore::{obs, SimDuration, SimTime, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};
use workloads::{workload_by_name, CheclSession, StopCondition, WorkloadCfg, YieldPoint};

use clspec::types::DeviceType;
use mpisim::MpiWorld;

/// One admitted job: what to run, when it arrives, how important it is.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Fleet-unique name (also the obs ledger key).
    pub name: String,
    /// `workloads::catalog` entry to run.
    pub workload: &'static str,
    /// Problem scale in thousandths (`100` = 0.1× paper size). Integer
    /// so specs hash and compare exactly.
    pub scale_milli: u32,
    /// Priority class, 0 = most important.
    pub priority: u8,
    /// Virtual arrival time.
    pub arrival: SimTime,
    /// 1 = solo tenant; >1 = gang of MPI ranks running the script SPMD.
    pub ranks: u32,
}

impl JobSpec {
    fn scale(&self) -> f64 {
        self.scale_milli as f64 / 1000.0
    }

    fn cfg(&self) -> WorkloadCfg {
        WorkloadCfg {
            device_mem: simcore::calib::tesla_c1060_memory(),
            scale: self.scale(),
            device_type: DeviceType::Gpu,
        }
    }

    fn script(&self) -> workloads::Script {
        workload_by_name(self.workload)
            .unwrap_or_else(|| panic!("unknown workload {}", self.workload))
            .script(&self.cfg())
    }
}

/// Slice quantum: the most virtual time a tenant runs between yields
/// (it may overshoot to the end of the op in flight).
pub const QUANTUM: SimDuration = SimDuration::from_micros(500);

/// SLO budget: a job should finish within this of its arrival.
pub const SLO: SimDuration = SimDuration::from_millis(250);

/// Checkpoint-channel backlog at which a node counts as hot and sheds
/// its least important solo tenant by live migration.
pub const HOT_BACKLOG: SimDuration = SimDuration::from_millis(2);

/// Preemption hysteresis: a tenant is immune until it has held its slot
/// this long since its last (re)start. Without it the fleet thrashes —
/// a resumed victim is re-flagged before it amortizes its own restore.
pub const PREEMPT_COOLDOWN: SimDuration = SimDuration::from_millis(60);

/// Hard cap on preemptions per job: past it the job runs to
/// completion, bounding its dump chain and guaranteeing progress.
pub const MAX_PREEMPTIONS_PER_JOB: u64 = 4;

/// Scheduler knobs. Every finished job's checksums are verified
/// against an uninterrupted solo run of the same spec (cached per
/// distinct spec).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Cluster width ([`Cluster::with_standard_nodes`]).
    pub nodes: usize,
    /// Device slots per node (concurrent tenants a node hosts).
    pub slots_per_node: usize,
    /// Backpressure rung 1 — *stretch*: while any node's `ckpt.disk`
    /// backlog sits at or above this, the preemption cooldown is
    /// multiplied by `backlog / threshold` (clamped to 8×). Young/Daly
    /// in fleet clothing: a brownout inflates the checkpoint cost δ, so
    /// τ = sqrt(2δM) says checkpoint *less often*, not queue harder.
    /// `None` disables the rung.
    pub stretch_backlog: Option<SimDuration>,
    /// Backpressure rung 2 — *shed*: a node whose `ckpt.disk` backlog
    /// reaches this sheds its least important tenant by
    /// checkpoint-preemption even when nothing is waiting, freeing the
    /// slot (and its I/O share) for later redispatch on a cooler node.
    /// `None` disables the rung.
    pub shed_backlog: Option<SimDuration>,
    /// Backpressure rung 3 — *reject*: a job arriving while any node's
    /// `ckpt.disk` backlog is at or above this is refused admission
    /// with a typed `admission_rejected` obs event instead of queueing
    /// into a fleet that cannot serve it. Rejected jobs are excluded
    /// from SLO accounting. `None` disables the rung.
    pub reject_backlog: Option<SimDuration>,
    /// Channel brownouts: `(node, from, until, percent)` windows during
    /// which the node's `ckpt.disk` channel runs at `percent`% of its
    /// bandwidth. This is what builds the backlog the ladder reacts to.
    pub brownouts: Vec<(usize, SimTime, SimTime, u32)>,
    /// Placement fences: `(node, from, until)` windows during which the
    /// node is partitioned from the scheduler (a rack outage, a network
    /// partition) — no *new* tenant is placed there while the window is
    /// open, unless it holds the only free slots left.
    pub drains: Vec<(usize, SimTime, SimTime)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 4,
            slots_per_node: 4,
            stretch_backlog: None,
            shed_backlog: None,
            reject_backlog: None,
            brownouts: Vec::new(),
            drains: Vec::new(),
        }
    }
}

/// The CprPolicy lattice points preemption rotates through, in dump
/// order. Every point lands a complete standalone-restorable dump (live
/// policies are excluded: a parked drain cannot outlive its process,
/// and a preemption kills the process right after the cut).
pub fn preempt_policies() -> Vec<CprPolicy> {
    vec![
        CprPolicy::sequential(),
        CprPolicy::pipelined(),
        CprPolicy::pipelined().dedup(true),
    ]
}

/// Light catalog subset the default mix draws from: small scripts that
/// keep a 10k-job sweep tractable while still mixing suites, buffer
/// shapes and op counts.
pub const MIX_WORKLOADS: [&str; 6] = [
    "oclVectorAdd",
    "oclDotProduct",
    "oclTranspose",
    "Triad",
    "Reduction",
    "oclDCT8x8",
];

/// Deterministic heterogeneous job mix: `jobs` specs with seeded
/// workloads, scales, priorities, arrival times and an occasional gang.
pub fn default_job_mix(jobs: usize, seed: u64, mean_gap: SimDuration) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut at = SimTime::ZERO;
    (0..jobs)
        .map(|i| {
            let workload = MIX_WORKLOADS[rng.next_below(MIX_WORKLOADS.len() as u64) as usize];
            let scale_milli = [10, 25, 60][rng.next_below(3) as usize];
            let priority = rng.next_below(4) as u8;
            // ~3% of jobs are 2–4-rank gangs.
            let ranks = if rng.next_below(100) < 3 {
                2 + rng.next_below(3) as u32
            } else {
                1
            };
            let gap = SimDuration::from_nanos(rng.next_below(2 * mean_gap.as_nanos().max(1)));
            at += gap;
            JobSpec {
                name: format!("j{i:05}.{workload}"),
                workload,
                scale_milli,
                priority,
                arrival: at,
                ranks,
            }
        })
        .collect()
}

/// Per-job outcome, in admission order.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Spec name.
    pub name: String,
    /// Priority class.
    pub priority: u8,
    /// Gang width (1 = solo).
    pub ranks: u32,
    /// Arrival-to-completion latency.
    pub latency: SimDuration,
    /// Times the job was checkpointed out of its slot.
    pub preemptions: u64,
    /// Times the job changed nodes (cold resumes + live migrations).
    pub migrations: u64,
    /// Live migrations among those.
    pub live_migrations: u64,
    /// Checkpoint generations written for the job.
    pub generations: u64,
    /// Checksum-identical to the uninterrupted solo baseline (`None`
    /// when verification was off).
    pub bit_exact: Option<bool>,
    /// Finished within the SLO budget.
    pub slo_ok: bool,
    /// Node the job finished on.
    pub node: usize,
}

/// What a fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Jobs offered to the fleet (admitted + rejected).
    pub jobs: usize,
    /// Jobs that ran to completion (always == jobs − rejected; the
    /// field keeps the invariant checkable).
    pub completed: usize,
    /// Jobs refused at admission by the backpressure ladder's reject
    /// rung. Excluded from latency and SLO accounting.
    pub rejected: usize,
    /// Cluster width.
    pub nodes: usize,
    /// Slots per node.
    pub slots_per_node: usize,
    /// First arrival to last completion.
    pub makespan: SimDuration,
    /// Completed jobs per virtual second.
    pub throughput_per_s: f64,
    /// Median arrival-to-completion latency.
    pub p50_latency: SimDuration,
    /// 99th-percentile latency (nearest-rank).
    pub p99_latency: SimDuration,
    /// Preemptions-by-checkpoint performed.
    pub preemptions: u64,
    /// Cold migrations (preempted job resumed on a different node).
    pub migrations_cold: u64,
    /// Live migrations (running tenant moved via `migrate_with_policy`).
    pub migrations_live: u64,
    /// Checkpoint generations written fleet-wide.
    pub generations: u64,
    /// Scheduler events processed (arrivals + queue pops).
    pub sched_events: u64,
    /// Deterministic scheduler work: event-queue heap traversals plus
    /// ready/running-set operations.
    pub sched_ops: u64,
    /// Jobs whose checksums were verified against a solo baseline.
    pub bit_exact_checked: u64,
    /// How many of those matched exactly.
    pub bit_exact_ok: u64,
    /// Jobs that met the SLO budget.
    pub slo_attained: u64,
    /// Jobs that blew through it.
    pub slo_missed: u64,
    /// Per-job outcomes in admission order.
    pub outcomes: Vec<JobOutcome>,
}

impl FleetReport {
    /// Scheduler overhead per event — the "no linear scans" witness:
    /// this stays O(log active-events) as the job count grows.
    pub fn ops_per_event(&self) -> f64 {
        if self.sched_events == 0 {
            0.0
        } else {
            self.sched_ops as f64 / self.sched_events as f64
        }
    }

    /// Every verified job restored bit-exact.
    pub fn all_bit_exact(&self) -> bool {
        self.bit_exact_checked == self.bit_exact_ok
    }
}

/// Event payloads on the fleet timeline.
enum Ev {
    /// A tenant's slice ended (it yielded; decide what happens next).
    Slice(u32),
    /// A job's SLO deadline came due (cancelled on timely completion —
    /// the hot path of `EventQueue::cancel`).
    Deadline(u32),
}

/// A job's live half: sessions occupying slots.
struct Tenant {
    sessions: Vec<CheclSession>,
    /// `(node, slot)` per rank.
    slots: Vec<(usize, usize)>,
    /// How the last slice ended.
    yielded: YieldPoint,
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum JobPhase {
    Waiting,
    Running,
    Done,
}

struct Job {
    spec: JobSpec,
    phase: JobPhase,
    active: Option<Tenant>,
    /// MPI topology, kept across suspensions (pids swapped on resume).
    world: Option<MpiWorld>,
    /// Latest dump path prefix to resume from.
    dump: Option<String>,
    /// Every dump file the job has written, deleted at completion.
    dump_files: Vec<String>,
    /// When the job last (re)gained its slots — the hysteresis anchor.
    last_start: SimTime,
    generations: u64,
    preemptions: u64,
    migrations: u64,
    live_migrations: u64,
    last_nodes: Vec<usize>,
    completed_at: Option<SimTime>,
    /// Census handle minted by `ProcSet::spawn` at admission.
    proc: Option<simcore::des::ProcId>,
    deadline: Option<simcore::des::EventId>,
    slo_missed: bool,
    bit_exact: Option<bool>,
    preempt_req: bool,
    migrate_req: Option<usize>,
    final_node: usize,
    /// Refused at admission by the backpressure reject rung.
    rejected: bool,
}

/// Ordering key in the ready/running sets: priority first, then
/// admission order — a total, deterministic order.
type Key = (u8, u32);

fn key(job: &Job, idx: u32) -> Key {
    (job.spec.priority, idx)
}

struct Sched {
    cfg: FleetConfig,
    cluster: Cluster,
    node_ids: Vec<NodeId>,
    jobs: Vec<Job>,
    procs: ProcSet,
    queue: EventQueue<Ev>,
    chans: ChannelMap,
    ready: BTreeSet<Key>,
    running: BTreeSet<Key>,
    /// `slots[node][slot]` = occupying job.
    slots: Vec<Vec<Option<u32>>>,
    free: Vec<usize>,
    total_free: usize,
    set_ops: u64,
    events: u64,
    /// Preemptions flagged but not yet executed at a yield.
    pending_preempts: usize,
    preemptions: u64,
    migrations_cold: u64,
    migrations_live: u64,
    generations: u64,
    baselines: BTreeMap<(&'static str, u32), Vec<u64>>,
    policies: Vec<CprPolicy>,
}

/// How many ready-queue candidates dispatch considers before giving up
/// on filling the remaining slots (bounds head-of-line blocking by wide
/// gangs without scanning the whole backlog).
const LOOKAHEAD: usize = 8;

impl Sched {
    fn new(cfg: FleetConfig, specs: Vec<JobSpec>) -> Sched {
        let cluster = Cluster::with_standard_nodes(cfg.nodes);
        let node_ids = cluster.node_ids();
        let slots = vec![vec![None; cfg.slots_per_node]; cfg.nodes];
        let free = vec![cfg.slots_per_node; cfg.nodes];
        let total_free = cfg.nodes * cfg.slots_per_node;
        let jobs = specs
            .into_iter()
            .map(|spec| Job {
                final_node: 0,
                spec,
                phase: JobPhase::Waiting,
                active: None,
                world: None,
                dump: None,
                dump_files: Vec::new(),
                last_start: SimTime::ZERO,
                generations: 0,
                preemptions: 0,
                migrations: 0,
                live_migrations: 0,
                last_nodes: Vec::new(),
                completed_at: None,
                proc: None,
                deadline: None,
                slo_missed: false,
                bit_exact: None,
                preempt_req: false,
                migrate_req: None,
                rejected: false,
            })
            .collect();
        let mut chans = ChannelMap::new(SimTime::ZERO);
        // Install brownout windows up front: the degraded `ckpt.disk`
        // channel is what every later placement (and the rebalancer's
        // backlog reads) sees.
        for &(node, from, until, percent) in &cfg.brownouts {
            let set = chans.node(node);
            let ch = set.channel("ckpt.disk");
            set.degrade(ch, from, until, percent);
        }
        Sched {
            cluster,
            node_ids,
            jobs,
            procs: ProcSet::new(),
            queue: EventQueue::new(),
            chans,
            ready: BTreeSet::new(),
            running: BTreeSet::new(),
            slots,
            free,
            total_free,
            set_ops: 0,
            events: 0,
            pending_preempts: 0,
            preemptions: 0,
            migrations_cold: 0,
            migrations_live: 0,
            generations: 0,
            baselines: BTreeMap::new(),
            policies: preempt_policies(),
            cfg,
        }
    }

    fn vendor() -> cldriver::VendorConfig {
        cldriver::vendor::nimbus()
    }

    /// The node with the most free slots (ties to the lowest index) —
    /// spreading load keeps nodes symmetric for gang admission. Nodes
    /// inside an open drain window (partition / rack fence) are
    /// avoided; they are used only when nothing else has a free slot,
    /// so admitted work always completes.
    fn best_node(&self, now: SimTime) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        let mut fenced_best: Option<(usize, usize)> = None;
        for (n, &f) in self.free.iter().enumerate() {
            if f == 0 {
                continue;
            }
            let slot = if self.node_fenced(n, now) {
                &mut fenced_best
            } else {
                &mut best
            };
            if slot.map(|(bf, _)| f > bf).unwrap_or(true) {
                *slot = Some((f, n));
            }
        }
        best.or(fenced_best).map(|(_, n)| n)
    }

    /// Whether `node` sits inside an open drain window at `now`.
    fn node_fenced(&self, node: usize, now: SimTime) -> bool {
        self.cfg
            .drains
            .iter()
            .any(|&(n, from, until)| n == node && now >= from && now < until)
    }

    /// `ckpt.disk` backlog of one node at `now` (zero if the channel
    /// has never been placed on).
    fn node_backlog(&self, node: usize, now: SimTime) -> SimDuration {
        self.chans
            .try_node(node)
            .and_then(|set| set.lookup("ckpt.disk").map(|ch| (set, ch)))
            .map(|(set, ch)| set.free_at(ch).max(now).since(now))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Worst `ckpt.disk` backlog across the fleet: the pressure signal
    /// every rung of the backpressure ladder reads.
    fn max_backlog(&self, now: SimTime) -> (SimDuration, usize) {
        let mut worst = (SimDuration::ZERO, 0usize);
        for n in 0..self.cfg.nodes {
            let b = self.node_backlog(n, now);
            if b > worst.0 {
                worst = (b, n);
            }
        }
        worst
    }

    /// Preemption cooldown after the stretch rung: under sustained
    /// backlog the cooldown grows with `backlog / threshold` (clamped
    /// to 8×) — checkpointing is exactly the I/O the hot channel does
    /// not have, so the cadence stretches instead of piling on.
    fn effective_cooldown(&self, now: SimTime) -> SimDuration {
        let base = PREEMPT_COOLDOWN;
        let Some(threshold) = self.cfg.stretch_backlog else {
            return base;
        };
        let (backlog, _) = self.max_backlog(now);
        if backlog < threshold || threshold.as_nanos() == 0 {
            return base;
        }
        base * (backlog.as_nanos() / threshold.as_nanos()).clamp(1, 8)
    }

    fn claim_slot(&mut self, node: usize, idx: u32) -> usize {
        let slot = self.slots[node]
            .iter()
            .position(|s| s.is_none())
            .expect("claim on full node");
        self.slots[node][slot] = Some(idx);
        self.free[node] -= 1;
        self.total_free -= 1;
        slot
    }

    fn release_slots(&mut self, tenant_slots: &[(usize, usize)]) {
        for &(node, slot) in tenant_slots {
            self.slots[node][slot] = None;
            self.free[node] += 1;
            self.total_free += 1;
        }
    }

    /// Run one slice of every rank and align gangs at a barrier.
    /// Returns the post-slice frontier (event time of the yield).
    fn run_slice(&mut self, idx: u32) -> SimTime {
        let job = &mut self.jobs[idx as usize];
        let tenant = job.active.as_mut().expect("slice without tenant");
        let mut yp = YieldPoint::Done;
        for (r, session) in tenant.sessions.iter_mut().enumerate() {
            let before = self.cluster.process(session.pid).clock;
            let rank_yp = session
                .run_step(&mut self.cluster, QUANTUM)
                .expect("fleet workload step failed");
            let after = self.cluster.process(session.pid).clock;
            let (node, slot) = tenant.slots[r];
            let set = self.chans.node(node);
            let ch = set.channel(SLOT_NAMES[slot.min(SLOT_NAMES.len() - 1)]);
            set.place(ch, before, after.since(before), "slice");
            // Gang aggregate: every rank must be done for Done; a
            // single non-sync rank demotes the gang cut to Quantum.
            yp = match (yp, rank_yp) {
                (YieldPoint::Done, r) => r,
                (YieldPoint::Sync, YieldPoint::Done) => YieldPoint::Sync,
                (YieldPoint::Sync, r) => r,
                (YieldPoint::Quantum, _) => YieldPoint::Quantum,
            };
        }
        if tenant.sessions.len() > 1 {
            // Coordinated yield: ranks align at an MPI barrier, so a
            // preemption here checkpoints a consistent global cut.
            let world = job.world.as_ref().expect("gang without world");
            world.barrier(&mut self.cluster);
        }
        tenant.yielded = if tenant.sessions.iter().all(|s| s.program.is_done()) {
            YieldPoint::Done
        } else if yp == YieldPoint::Done {
            YieldPoint::Quantum
        } else {
            yp
        };
        tenant
            .sessions
            .iter()
            .map(|s| self.cluster.process(s.pid).clock)
            .max()
            .expect("tenant has ranks")
    }

    /// Start (or resume) a job on freshly claimed slots at `now`.
    fn start_job(&mut self, idx: u32, now: SimTime) {
        let ranks = self.jobs[idx as usize].spec.ranks as usize;
        let mut placed: Vec<(usize, usize)> = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let node = self.best_node(now).expect("dispatch checked capacity");
            let slot = self.claim_slot(node, idx);
            placed.push((node, slot));
        }
        let resumed = self.jobs[idx as usize].dump.is_some();
        let sessions: Vec<CheclSession> = if resumed {
            self.resume_sessions(idx, &placed, now)
        } else {
            self.launch_sessions(idx, &placed, now)
        };
        let job = &mut self.jobs[idx as usize];
        // A resume that lands any rank on a new node is a migration:
        // the dump moved the tenant across the cluster.
        if resumed {
            let moved = placed
                .iter()
                .zip(job.last_nodes.iter())
                .any(|(&(n, _), &old)| n != old);
            if moved {
                job.migrations += 1;
                self.migrations_cold += 1;
                obs::emit(
                    "fleet",
                    now,
                    obs::EventKind::TenantMigrated {
                        job: job.spec.name.clone(),
                        from_node: job.last_nodes[0] as u64,
                        to_node: placed[0].0 as u64,
                        live: 0,
                    },
                );
            }
        }
        job.last_nodes = placed.iter().map(|&(n, _)| n).collect();
        job.last_start = now;
        job.active = Some(Tenant {
            sessions,
            slots: placed,
            yielded: YieldPoint::Quantum,
        });
        job.phase = JobPhase::Running;
        let proc = self.jobs[idx as usize].proc.expect("admitted job has proc");
        self.procs.set_state(proc, ProcState::Running);
        let k = key(&self.jobs[idx as usize], idx);
        self.running.insert(k);
        self.set_ops += 1;
        let frontier = self.run_slice(idx);
        self.queue.push(frontier, Ev::Slice(idx));
    }

    fn launch_sessions(
        &mut self,
        idx: u32,
        placed: &[(usize, usize)],
        now: SimTime,
    ) -> Vec<CheclSession> {
        let spec = self.jobs[idx as usize].spec.clone();
        let script = spec.script();
        if placed.len() == 1 {
            let pid = self.cluster.spawn(self.node_ids[placed[0].0]);
            self.cluster.process_mut(pid).clock = now;
            return vec![CheclSession::attach(
                &mut self.cluster,
                pid,
                Self::vendor(),
                CheclConfig::default(),
                script,
            )];
        }
        let rank_nodes: Vec<NodeId> = placed.iter().map(|&(n, _)| self.node_ids[n]).collect();
        let world = MpiWorld::init(&mut self.cluster, &rank_nodes, placed.len());
        let sessions = world
            .pids()
            .to_vec()
            .into_iter()
            .map(|pid| {
                self.cluster.process_mut(pid).clock = now;
                CheclSession::attach(
                    &mut self.cluster,
                    pid,
                    Self::vendor(),
                    CheclConfig::default(),
                    script.clone(),
                )
            })
            .collect();
        self.jobs[idx as usize].world = Some(world);
        sessions
    }

    fn resume_sessions(
        &mut self,
        idx: u32,
        placed: &[(usize, usize)],
        now: SimTime,
    ) -> Vec<CheclSession> {
        let prefix = self.jobs[idx as usize].dump.clone().expect("resume dump");
        let ranks = placed.len();
        let mut sessions = Vec::with_capacity(ranks);
        for (r, &(node, _)) in placed.iter().enumerate() {
            let path = rank_dump_path(&prefix, r, ranks);
            let session = CheclSession::restart(
                &mut self.cluster,
                self.node_ids[node],
                &path,
                Self::vendor(),
                RestoreTarget::default(),
            )
            .expect("fleet resume failed");
            // The restore charged its I/O from a zero clock; re-anchor
            // the tenant at the dispatch time plus that restore cost.
            let cost = self.cluster.process(session.pid).clock.since(SimTime::ZERO);
            self.cluster.process_mut(session.pid).clock = now + cost;
            if ranks > 1 {
                self.jobs[idx as usize]
                    .world
                    .as_mut()
                    .expect("gang world")
                    .replace_rank(r, session.pid);
            }
            sessions.push(session);
        }
        sessions
    }

    /// Fill free slots from the ready queue in priority order,
    /// considering at most [`LOOKAHEAD`] candidates.
    fn dispatch(&mut self, now: SimTime) {
        loop {
            if self.total_free == 0 {
                return;
            }
            let mut chosen: Option<Key> = None;
            for &k in self.ready.iter().take(LOOKAHEAD) {
                let ranks = self.jobs[k.1 as usize].spec.ranks as usize;
                if ranks <= self.total_free {
                    chosen = Some(k);
                    break;
                }
            }
            let Some(k) = chosen else { return };
            self.ready.remove(&k);
            self.set_ops += 1;
            self.start_job(k.1, now);
        }
    }

    /// If important work is waiting with no capacity, flag the least
    /// important strictly-lower-priority tenant for checkpoint-out at
    /// its next yield. At most one preemption is in flight fleet-wide,
    /// victims get a cooldown after every (re)start, and a job's total
    /// preemptions are capped — otherwise an oversubscribed fleet
    /// thrashes, spending all its time dumping and restoring.
    fn maybe_preempt(&mut self, now: SimTime) {
        if self.total_free > 0 || self.pending_preempts > 0 {
            return;
        }
        let Some(&(wait_prio, _)) = self.ready.first() else {
            return;
        };
        // Worst running tenant that is past its cooldown and under its
        // preemption budget. The cooldown is the stretch rung's lever:
        // under sustained checkpoint-channel backlog it grows, spacing
        // the dumps a preemption costs.
        let cooldown = self.effective_cooldown(now);
        let victim = self
            .running
            .iter()
            .rev()
            .find(|&&(p, j)| {
                let job = &self.jobs[j as usize];
                p > wait_prio
                    && !job.preempt_req
                    && job.preemptions < MAX_PREEMPTIONS_PER_JOB
                    && now.since(job.last_start) >= cooldown
            })
            .copied();
        if let Some((_, j)) = victim {
            self.jobs[j as usize].preempt_req = true;
            self.pending_preempts += 1;
        }
    }

    /// Backpressure shed rung: a node whose checkpoint channel is
    /// backlogged past the shed threshold checkpoints its least
    /// important tenant out *even with nothing waiting* — the slot (and
    /// the tenant's share of the hot channel) frees up, and redispatch
    /// places the job on a cooler node.
    fn maybe_shed(&mut self, now: SimTime) {
        let Some(threshold) = self.cfg.shed_backlog else {
            return;
        };
        if self.pending_preempts > 0 {
            return;
        }
        let (backlog, hot_n) = self.max_backlog(now);
        if backlog < threshold {
            return;
        }
        let cooldown = self.effective_cooldown(now);
        let victim = self
            .running
            .iter()
            .rev()
            .find(|&&(_, j)| {
                let job = &self.jobs[j as usize];
                !job.preempt_req
                    && job.preemptions < MAX_PREEMPTIONS_PER_JOB
                    && now.since(job.last_start) >= cooldown
                    && job.last_nodes.contains(&hot_n)
            })
            .copied();
        if let Some((_, j)) = victim {
            self.jobs[j as usize].preempt_req = true;
            self.pending_preempts += 1;
        }
    }

    /// Checkpoint a yielded tenant out of its slots and requeue it.
    fn preempt(&mut self, idx: u32, now: SimTime) {
        let policy = self.policies
            [(self.jobs[idx as usize].generations as usize) % self.policies.len()]
        .clone();
        let gen = self.jobs[idx as usize].generations;
        let prefix = format!("/nfs/fleet/{}.g{}", self.jobs[idx as usize].spec.name, gen);
        let mut tenant = self.jobs[idx as usize].active.take().expect("preempt idle");
        let ranks = tenant.sessions.len();
        let mut dump_files = Vec::with_capacity(ranks);
        for (r, mut session) in tenant.sessions.drain(..).enumerate() {
            let path = rank_dump_path(&prefix, r, ranks);
            let before = self.cluster.process(session.pid).clock;
            let outcome = session
                .checkpoint_with_policy(&mut self.cluster, &path, &policy)
                .expect("preemption checkpoint failed");
            // Account the dump's write phase on the node's checkpoint
            // channel: sustained preemption pressure builds a backlog
            // that the rebalancer reads as heat.
            let node = tenant.slots[r].0;
            let set = self.chans.node(node);
            let ch = set.channel("ckpt.disk");
            set.place(ch, before, outcome.report.write, "preempt.dump");
            session.kill(&mut self.cluster);
            dump_files.push(path);
        }
        self.release_slots(&tenant.slots);
        let job = &mut self.jobs[idx as usize];
        job.dump = Some(prefix);
        job.generations += 1;
        job.preemptions += 1;
        job.preempt_req = false;
        job.dump_files.append(&mut dump_files);
        self.pending_preempts -= 1;
        // Any pending migration target is stale once the job leaves its
        // slot — placement is re-decided at the next dispatch anyway.
        job.migrate_req = None;
        job.phase = JobPhase::Waiting;
        self.generations += 1;
        self.preemptions += 1;
        obs::emit(
            "fleet",
            now,
            obs::EventKind::TenantPreempted {
                job: job.spec.name.clone(),
                node: job.last_nodes[0] as u64,
                generation: job.generations,
                policy: policy.label(),
            },
        );
        let k = key(&self.jobs[idx as usize], idx);
        self.running.remove(&k);
        self.ready.insert(k);
        self.set_ops += 2;
        let proc = self.jobs[idx as usize].proc.expect("admitted job has proc");
        self.procs.set_state(proc, ProcState::Ready);
    }

    /// Live-migrate a yielded solo tenant to `target` and keep running.
    fn live_migrate(&mut self, idx: u32, target: usize, now: SimTime) {
        let mut tenant = self.jobs[idx as usize].active.take().expect("migrate idle");
        let session = tenant.sessions.pop().expect("solo tenant");
        let k = self.jobs[idx as usize].live_migrations;
        let path = format!("/nfs/fleet/{}.m{}", self.jobs[idx as usize].spec.name, k);
        let from = tenant.slots[0].0;
        self.release_slots(&tenant.slots);
        let slot = self.claim_slot(target, idx);
        let (new_session, report) = session
            .migrate_with_policy(
                &mut self.cluster,
                self.node_ids[target],
                Self::vendor(),
                &path,
                RestoreTarget::default(),
                &CprPolicy::pipelined(),
            )
            .expect("fleet live migration failed");
        // The destination pid's clock restarted from zero and read only
        // the restore cost; re-anchor it on the fleet timeline at the
        // yield point plus the full source+destination migration cost.
        self.cluster.process_mut(new_session.pid).clock = now + report.actual;
        let job = &mut self.jobs[idx as usize];
        job.migrations += 1;
        job.live_migrations += 1;
        job.migrate_req = None;
        job.last_nodes = vec![target];
        job.last_start = now;
        job.dump_files.push(path);
        self.migrations_live += 1;
        obs::emit(
            "fleet",
            now,
            obs::EventKind::TenantMigrated {
                job: job.spec.name.clone(),
                from_node: from as u64,
                to_node: target as u64,
                live: 1,
            },
        );
        tenant.sessions.push(new_session);
        tenant.slots = vec![(target, slot)];
        job.active = Some(tenant);
        let frontier = self.run_slice(idx);
        self.queue.push(frontier, Ev::Slice(idx));
    }

    /// A node whose checkpoint channel is backlogged past the threshold
    /// sheds its least important solo tenant to the coolest node with a
    /// free slot.
    fn maybe_rebalance(&mut self, now: SimTime) {
        if self.total_free == 0 {
            return;
        }
        let backlog = |set: Option<&simcore::channels::ChannelSet>, now: SimTime| {
            set.and_then(|s| s.lookup("ckpt.disk"))
                .map(|ch| {
                    let set = set.unwrap();
                    set.free_at(ch).max(now).since(now)
                })
                .unwrap_or(SimDuration::ZERO)
        };
        let mut hot: Option<(SimDuration, usize)> = None;
        let mut cool: Option<(SimDuration, usize)> = None;
        for n in 0..self.cfg.nodes {
            let b = backlog(self.chans.try_node(n), now);
            if b >= HOT_BACKLOG
                && self.free[n] < self.cfg.slots_per_node
                && hot.map(|(hb, _)| b > hb).unwrap_or(true)
            {
                hot = Some((b, n));
            }
            if self.free[n] > 0 && cool.map(|(cb, _)| b < cb).unwrap_or(true) {
                cool = Some((b, n));
            }
        }
        let (Some((hb, hot_n)), Some((cb, cool_n))) = (hot, cool) else {
            return;
        };
        if hot_n == cool_n || cb * 2 > hb {
            return;
        }
        // Least important running solo tenant on the hot node.
        let victim = self
            .running
            .iter()
            .rev()
            .find(|&&(_, j)| {
                let job = &self.jobs[j as usize];
                job.spec.ranks == 1
                    && !job.preempt_req
                    && job.migrate_req.is_none()
                    && job.last_nodes == [hot_n]
            })
            .copied();
        if let Some((_, j)) = victim {
            self.jobs[j as usize].migrate_req = Some(cool_n);
        }
    }

    fn baseline(&mut self, spec: &JobSpec) -> Vec<u64> {
        let bkey = (spec.workload, spec.scale_milli);
        if let Some(sums) = self.baselines.get(&bkey) {
            return sums.clone();
        }
        // Uninterrupted solo run of the same script in a scratch
        // cluster: the reference every interrupted execution must match.
        let mut scratch = Cluster::with_standard_nodes(1);
        let node = scratch.node_ids()[0];
        let mut session = CheclSession::launch(
            &mut scratch,
            node,
            Self::vendor(),
            CheclConfig::default(),
            spec.script(),
        );
        session
            .run(&mut scratch, StopCondition::Completion)
            .expect("baseline run failed");
        let sums = session.program.checksums.clone();
        self.baselines.insert(bkey, sums.clone());
        sums
    }

    fn complete(&mut self, idx: u32, now: SimTime) {
        let mut tenant = self.jobs[idx as usize]
            .active
            .take()
            .expect("complete idle");
        let spec = self.jobs[idx as usize].spec.clone();
        let expect = self.baseline(&spec);
        let bit_exact = tenant
            .sessions
            .iter()
            .all(|s| s.program.checksums == expect);
        if self.jobs[idx as usize].preempt_req {
            self.jobs[idx as usize].preempt_req = false;
            self.pending_preempts -= 1;
        }
        // The job's dumps are dead once it is done (each one only
        // mattered while another restore could happen); dropping them
        // keeps /nfs bounded over a 10k-job sweep.
        let dump_files = std::mem::take(&mut self.jobs[idx as usize].dump_files);
        let janitor = tenant.sessions[0].pid;
        for path in dump_files {
            let _ = self.cluster.delete_file(janitor, path.as_str());
        }
        for session in tenant.sessions.drain(..) {
            session.kill(&mut self.cluster);
        }
        self.release_slots(&tenant.slots);
        let k = key(&self.jobs[idx as usize], idx);
        self.running.remove(&k);
        self.set_ops += 1;
        let job = &mut self.jobs[idx as usize];
        job.phase = JobPhase::Done;
        job.completed_at = Some(now);
        job.bit_exact = Some(bit_exact);
        job.final_node = job.last_nodes[0];
        let proc = job.proc.expect("admitted job has proc");
        let deadline = job.deadline.take();
        let deadline_at = job.spec.arrival + SLO;
        self.procs.set_state(proc, ProcState::Done);
        // Timely completion revokes the pending deadline event — the
        // common case, so `cancel` is as hot as `push` here. A late
        // completion finds the event already popped (stale cancel is a
        // no-op) and records the miss.
        if let Some(ev) = deadline {
            self.queue.cancel(ev);
            if now > deadline_at {
                self.jobs[idx as usize].slo_missed = true;
            }
        }
        let job = &mut self.jobs[idx as usize];
        let slo_ok = !job.slo_missed && now.since(job.spec.arrival) <= SLO;
        obs::emit(
            "fleet",
            now,
            obs::EventKind::TenantCompleted {
                job: job.spec.name.clone(),
                node: job.final_node as u64,
                latency_ns: now.since(job.spec.arrival).as_nanos(),
                preemptions: job.preemptions,
                migrations: job.migrations,
                generations: job.generations,
                bit_exact: bit_exact as u64,
                slo_ok: slo_ok as u64,
            },
        );
    }

    fn admit(&mut self, idx: u32, now: SimTime) {
        let proc = self.procs.spawn();
        debug_assert_eq!(proc.index(), idx as usize);
        self.jobs[idx as usize].proc = Some(proc);
        // Backpressure reject rung: a fleet already drowning in
        // checkpoint backlog refuses new work with a typed rejection
        // instead of queueing it into an SLO it cannot meet.
        if let Some(threshold) = self.cfg.reject_backlog {
            let (backlog, _) = self.max_backlog(now);
            if backlog >= threshold {
                let job = &mut self.jobs[idx as usize];
                job.rejected = true;
                job.phase = JobPhase::Done;
                self.procs.set_state(proc, ProcState::Done);
                obs::emit(
                    "fleet",
                    now,
                    obs::EventKind::AdmissionRejected {
                        job: job.spec.name.clone(),
                        backlog_ns: backlog.as_nanos(),
                    },
                );
                return;
            }
        }
        let ev = self.queue.push(now + SLO, Ev::Deadline(idx));
        let job = &mut self.jobs[idx as usize];
        job.deadline = Some(ev);
        let k = key(&self.jobs[idx as usize], idx);
        self.ready.insert(k);
        self.set_ops += 1;
    }

    fn handle_slice(&mut self, idx: u32, now: SimTime) {
        let yielded = self.jobs[idx as usize]
            .active
            .as_ref()
            .expect("slice for idle job")
            .yielded;
        if yielded == YieldPoint::Done {
            self.complete(idx, now);
        } else if self.jobs[idx as usize].preempt_req {
            self.preempt(idx, now);
        } else if let Some(target) = self.jobs[idx as usize].migrate_req {
            // The request was flagged at rebalance time; the target may
            // have filled up since. Re-validate at the yield point and
            // drop stale requests instead of overpacking.
            let from = self.jobs[idx as usize].last_nodes[0];
            if target != from && self.free[target] > 0 {
                self.live_migrate(idx, target, now);
            } else {
                self.jobs[idx as usize].migrate_req = None;
                let frontier = self.run_slice(idx);
                self.queue.push(frontier, Ev::Slice(idx));
            }
        } else {
            let frontier = self.run_slice(idx);
            self.queue.push(frontier, Ev::Slice(idx));
        }
    }

    fn run(mut self) -> FleetReport {
        let arrivals: Vec<(SimTime, u32)> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.spec.arrival, i as u32))
            .collect();
        // Specs come pre-sorted from the mix generator; a custom list
        // is normalized here so admission order is arrival order.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| (arrivals[i].0, i));
        let mut cursor = 0usize;
        loop {
            let next_arrival = order.get(cursor).map(|&i| arrivals[i]);
            let next_event = self.queue.peek_time();
            let (now, is_arrival) = match (next_arrival, next_event) {
                (Some((ta, _)), Some(te)) if ta <= te => (ta, true),
                (Some((ta, _)), None) => (ta, true),
                (_, Some(te)) => (te, false),
                (None, None) => break,
            };
            self.events += 1;
            if std::env::var_os("FLEET_DEBUG").is_some() && self.events.is_multiple_of(1000) {
                eprintln!(
                    "ev={} now={:?} ready={} running={} free={} preempts={} gens={}",
                    self.events,
                    now,
                    self.ready.len(),
                    self.running.len(),
                    self.total_free,
                    self.preemptions,
                    self.generations,
                );
            }
            if is_arrival {
                let (_, idx) = next_arrival.unwrap();
                cursor += 1;
                self.admit(idx, now);
            } else {
                match self.queue.pop() {
                    Some((_, _, Ev::Slice(idx))) => self.handle_slice(idx, now),
                    Some((_, _, Ev::Deadline(idx))) => {
                        let job = &mut self.jobs[idx as usize];
                        job.deadline = None;
                        if job.phase != JobPhase::Done {
                            job.slo_missed = true;
                        }
                    }
                    None => unreachable!("peeked event vanished"),
                }
            }
            self.maybe_preempt(now);
            self.maybe_shed(now);
            self.maybe_rebalance(now);
            self.dispatch(now);
        }
        assert!(self.ready.is_empty(), "jobs stranded in the ready queue");
        assert!(self.procs.all_done(), "fleet drained with live tenants");
        self.report()
    }

    fn report(self) -> FleetReport {
        let mut latencies: Vec<SimDuration> = Vec::with_capacity(self.jobs.len());
        let mut outcomes = Vec::with_capacity(self.jobs.len());
        let mut first_arrival: Option<SimTime> = None;
        let mut last_done = SimTime::ZERO;
        let mut bit_checked = 0u64;
        let mut bit_ok = 0u64;
        let mut slo_attained = 0u64;
        let mut slo_missed = 0u64;
        let mut completed = 0usize;
        let mut rejected = 0usize;
        for job in &self.jobs {
            if job.rejected {
                // Refused at the door: no latency, no SLO verdict, no
                // outcome row — the ledger's admission_rejected record
                // is the full accounting.
                rejected += 1;
                continue;
            }
            let done = job.completed_at.expect("fleet drained incomplete");
            completed += 1;
            let latency = done.since(job.spec.arrival);
            latencies.push(latency);
            first_arrival =
                Some(first_arrival.map_or(job.spec.arrival, |f| f.min(job.spec.arrival)));
            last_done = last_done.max(done);
            if let Some(ok) = job.bit_exact {
                bit_checked += 1;
                if ok {
                    bit_ok += 1;
                }
            }
            let slo_ok = !job.slo_missed && latency <= SLO;
            if slo_ok {
                slo_attained += 1;
            } else {
                slo_missed += 1;
            }
            outcomes.push(JobOutcome {
                name: job.spec.name.clone(),
                priority: job.spec.priority,
                ranks: job.spec.ranks,
                latency,
                preemptions: job.preemptions,
                migrations: job.migrations,
                live_migrations: job.live_migrations,
                generations: job.generations,
                bit_exact: job.bit_exact,
                slo_ok,
                node: job.final_node,
            });
        }
        latencies.sort();
        let pick = |q_num: usize, q_den: usize| -> SimDuration {
            if latencies.is_empty() {
                return SimDuration::ZERO;
            }
            let rank = (latencies.len() * q_num).div_ceil(q_den);
            latencies[rank.clamp(1, latencies.len()) - 1]
        };
        let makespan = last_done.since(first_arrival.unwrap_or(SimTime::ZERO));
        let secs = makespan.as_nanos() as f64 / 1e9;
        FleetReport {
            jobs: self.jobs.len(),
            completed,
            rejected,
            nodes: self.cfg.nodes,
            slots_per_node: self.cfg.slots_per_node,
            makespan,
            throughput_per_s: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            p50_latency: pick(1, 2),
            p99_latency: pick(99, 100),
            preemptions: self.preemptions,
            migrations_cold: self.migrations_cold,
            migrations_live: self.migrations_live,
            generations: self.generations,
            sched_events: self.events,
            sched_ops: self.queue.ops() + self.set_ops,
            bit_exact_checked: bit_checked,
            bit_exact_ok: bit_ok,
            slo_attained,
            slo_missed,
            outcomes,
        }
    }
}

/// Slot channel names (static so per-slice bookkeeping never formats).
const SLOT_NAMES: [&str; 16] = [
    "slot00", "slot01", "slot02", "slot03", "slot04", "slot05", "slot06", "slot07", "slot08",
    "slot09", "slot10", "slot11", "slot12", "slot13", "slot14", "slot15",
];

/// Per-rank dump path: solo jobs use the prefix itself, gang ranks get
/// a rank suffix.
fn rank_dump_path(prefix: &str, rank: usize, ranks: usize) -> String {
    if ranks == 1 {
        format!("{prefix}.ckpt")
    } else {
        format!("{prefix}.r{rank}.ckpt")
    }
}

/// Run `specs` through the fleet scheduler under `cfg`.
pub fn run_fleet(cfg: &FleetConfig, specs: Vec<JobSpec>) -> FleetReport {
    Sched::new(cfg.clone(), specs).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            nodes: 2,
            slots_per_node: 2,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn tiny_fleet_drains_and_verifies() {
        let specs = default_job_mix(12, 7, SimDuration::from_micros(50));
        let report = run_fleet(&small_cfg(), specs);
        assert_eq!(report.completed, 12);
        assert_eq!(report.bit_exact_checked, 12);
        assert!(report.all_bit_exact(), "a job diverged from its baseline");
        assert!(report.makespan > SimDuration::ZERO);
    }

    #[test]
    fn drain_window_fences_new_placements() {
        let cfg = FleetConfig {
            nodes: 2,
            slots_per_node: 2,
            drains: vec![(
                0,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(3600),
            )],
            ..FleetConfig::default()
        };
        let specs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec {
                name: format!("d{i}"),
                workload: "oclVectorAdd",
                scale_milli: 10,
                priority: 0,
                arrival: SimTime::ZERO,
                ranks: 1,
            })
            .collect();
        let report = run_fleet(&cfg, specs);
        assert_eq!(report.completed, 2);
        for o in &report.outcomes {
            assert_ne!(o.node, 0, "{} placed inside the fenced rack", o.name);
        }
    }

    #[test]
    fn brownout_ladder_completes_every_admitted_job() {
        // Node 0's checkpoint channel browns out to 5% for the whole
        // run; every rung of the ladder is armed. The invariants: no
        // admitted job is stranded, and SLO accounting stays drift-free
        // (attained + missed == completed, rejected jobs outside it).
        let cfg = FleetConfig {
            nodes: 2,
            slots_per_node: 2,
            stretch_backlog: Some(SimDuration::from_micros(500)),
            shed_backlog: Some(SimDuration::from_millis(1)),
            reject_backlog: Some(SimDuration::from_millis(4)),
            brownouts: vec![(
                0,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(3600),
                5,
            )],
            ..FleetConfig::default()
        };
        let specs = default_job_mix(16, 3, SimDuration::from_micros(20));
        let report = run_fleet(&cfg, specs);
        assert_eq!(report.completed + report.rejected, report.jobs);
        assert_eq!(
            report.slo_attained + report.slo_missed,
            report.completed as u64,
            "SLO accounting drifted"
        );
        assert_eq!(report.outcomes.len(), report.completed);
        assert!(report.all_bit_exact(), "a job diverged under the brownout");
    }

    #[test]
    fn backpressure_off_is_bitwise_the_baseline() {
        // The ladder knobs default to None/empty: a run with the
        // defaults must be indistinguishable from one predating them.
        let cfg = small_cfg();
        let a = run_fleet(&cfg, default_job_mix(12, 7, SimDuration::from_micros(50)));
        assert_eq!(a.rejected, 0);
        assert_eq!(a.completed, a.jobs);
    }

    #[test]
    fn seed_replay_is_bit_identical() {
        let cfg = small_cfg();
        let a = run_fleet(&cfg, default_job_mix(20, 11, SimDuration::from_micros(30)));
        let b = run_fleet(&cfg, default_job_mix(20, 11, SimDuration::from_micros(30)));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.migrations_cold, b.migrations_cold);
        assert_eq!(a.sched_ops, b.sched_ops);
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.preemptions, y.preemptions);
            assert_eq!(x.node, y.node);
        }
    }
}
