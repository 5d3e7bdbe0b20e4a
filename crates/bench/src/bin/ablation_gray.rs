//! Gray-failure & correlated-fault resilience ablation (ISSUE 10).
//!
//! Three sections, three layers of the hardening:
//!
//! 1. **Supervision under gray faults** — the iterative MD job driven
//!    to completion by [`run_supervised`] while the [`FaultPlan`] does
//!    everything *short* of a clean crash: disk/NFS brownouts (the
//!    channels run at k% bandwidth, so checkpoints get slower, not
//!    impossible), heartbeat-loss windows (the detector raises
//!    suspects with nothing actually wrong — the supervisor must book
//!    the probe as its own overhead, not as an application failure),
//!    a supervisor↔node partition that later heals (fenced failover;
//!    the healed writer's epoch is stale), and a whole-rack failure
//!    domain crashing together (the spare *inside* the domain is
//!    useless — the supervisor must pick the one outside it). Every
//!    completed cell is bit-exact against an undisturbed native run.
//!
//! 2. **Fleet backpressure ladder** — the multi-tenant scheduler
//!    offered the same job mix while one node's `ckpt.disk` channel
//!    browns out and another is drained by a partition fence. The
//!    three rungs (interval *stretch*, low-priority *shed*, typed
//!    admission *reject*) must keep the accounting drift-free:
//!    `completed + rejected == offered` and
//!    `SLO attained + missed == completed`, with every completed
//!    tenant bit-exact.
//!
//! 3. **Crash-point torture sweep** — a three-generation
//!    dump/drain/commit/GC sequence is run once to record its obs
//!    event ledger, then replayed once per event with
//!    [`FaultPlan::crash_after_events`] arming the filesystem to go
//!    dark at exactly that boundary. At 100% of the enumerated crash
//!    points the vault chain must restore a generation that finishes
//!    bit-exact, across the sequential / pipelined / dedup / live
//!    engine paths.

use std::collections::BTreeSet;

use checl::{CheclConfig, CprPolicy, RecoveryPolicy, RestoreTarget};
use checl_bench::{eval_targets, Cell, EvalTarget, FigureWriter, TraceSession};
use clspec::types::DeviceType;
use fleet::{default_job_mix, run_fleet, FleetConfig};
use osproc::{Cluster, DetectorPolicy, FaultPlan, FsKind, NodeId};
use simcore::{obs, SimDuration, SimTime};
use workloads::catalog::B;
use workloads::{
    run_supervised, BufInit, CheclSession, NativeSession, Op, Reg, Script, StopCondition,
    SuperviseSetup,
};

/// Base seed; each scenario derives its own plan from it.
const SEED: u64 = 20110704;

/// Particles in the iterative MD job (two 12-byte vectors each).
const PARTICLES: u64 = 1 << 16;

/// Relaxation steps, one `clFinish` sync per step.
const STEPS: usize = 24;

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    let mut fig = FigureWriter::new("ablation_gray");
    let golden = golden_checksums(target);

    fig.section(
        "Supervision under gray faults (iterative MD, Daly-adaptive interval)",
        &[
            "scenario",
            "completed",
            "failures",
            "false positives",
            "repairs",
            "wasted [s]",
            "induced [s]",
            "ckpt overhead [s]",
            "downtime [s]",
            "total overhead [s]",
            "bit-exact",
        ],
    );
    baseline_cell(&mut fig, target, &golden);
    degraded_disk_cell(&mut fig, target, &golden);
    heartbeat_loss_cell(&mut fig, target, &golden);
    partition_heal_cell(&mut fig, target, &golden);
    rack_crash_cell(&mut fig, target, &golden);
    fig.note(
        "gray faults degrade without killing: brownouts scale channel \
         bandwidth to k%, heartbeat-loss windows starve the detector \
         into false suspicion (the probe cost is booked as induced \
         overhead, never as an application failure, so the Young/Daly \
         controller's MTBF estimate stays honest), a partition fences \
         the unreachable node's writer by epoch before the spare takes \
         over, and a rack-domain crash forces failover placement \
         outside the failing domain",
    );

    fig.section(
        "Fleet backpressure ladder under brownout + drain",
        &[
            "scenario",
            "offered",
            "completed",
            "rejected",
            "preempts",
            "SLO attained",
            "SLO missed",
            "p99 [ms]",
            "bit-exact",
            "accounting",
        ],
    );
    let gap = SimDuration::from_micros(20);
    fleet_cell(&mut fig, "calm, ladder armed", false, true, None, gap);
    fleet_cell(
        &mut fig,
        "brownout+drain, ladder off",
        true,
        false,
        None,
        gap,
    );
    fleet_cell(
        &mut fig,
        "brownout+drain, full ladder",
        true,
        true,
        None,
        gap,
    );
    let rejected = fleet_cell(
        &mut fig,
        "overload, tight admission",
        true,
        true,
        Some(SimDuration::from_micros(50)),
        SimDuration::from_millis(50),
    );
    assert!(rejected > 0, "the tight admission cell must reject jobs");
    fig.note(
        "node 0's ckpt.disk channel runs at 5% bandwidth for the whole \
         run and node 1 is drained (partition-fenced for placement) for \
         its first half; the ladder's rungs are interval stretch, \
         low-priority shed by checkpoint-preemption, and typed \
         admission rejection; accounting must stay drift-free: \
         completed + rejected == offered and attained + missed == \
         completed, rejected jobs excluded from SLO accounting",
    );

    fig.section(
        "Crash-point torture sweep (three-generation dump/drain/commit/GC)",
        &[
            "engine path",
            "crash points",
            "survivors",
            "restores",
            "event kinds",
            "bit-exact",
        ],
    );
    for (label, policy) in [
        ("sequential", CprPolicy::sequential()),
        ("pipelined", CprPolicy::pipelined()),
        ("dedup", CprPolicy::pipelined().dedup(true)),
        ("live", CprPolicy::pipelined().live(true)),
    ] {
        torture_cell(&mut fig, label, &policy);
    }
    fig.note(
        "crash points = obs events in the un-armed baseline ledger; \
         each one is replayed with the filesystem going permanently \
         dark at that boundary. survivors completed past the arming \
         point; every other replay restored a committed generation \
         from the vault chain and ran it to the baseline checksums. \
         restores + survivors == crash points at every cell: 100% of \
         boundaries covered, across every event kind the sequence emits",
    );

    fig.finish().unwrap();
    trace.finish().unwrap();
}

// ---------------------------------------------------------------------
// Section 1: supervision under gray faults
// ---------------------------------------------------------------------

/// The iterative job: `STEPS` MD force evaluations with a `clFinish`
/// sync per step — enough boundaries for the interval policy and the
/// detector to act on.
fn iterative_md(target: &EvalTarget) -> Script {
    let cfg = target.cfg(1.0);
    let n = PARTICLES;
    let mut b = B::new(&cfg);
    let pos = b.buffer(
        n * 12,
        Some(BufInit::RandomF32 {
            seed: 7,
            lo: 0.0,
            hi: 20.0,
        }),
    );
    let force = b.buffer(n * 12, None);
    let k = b.prog_kernel("md", "md_forces");
    b.arg_mem(k, 0, pos);
    b.arg_mem(k, 1, force);
    b.arg_u32(k, 2, n as u32);
    b.arg_f32(k, 3, 5.0);
    for _ in 0..STEPS {
        b.launch1(k, n);
        b.finish();
    }
    b.read_checksum(force, n * 12);
    b.build()
}

fn golden_checksums(target: &EvalTarget) -> Vec<u64> {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = NativeSession::launch(&mut cluster, node, (target.vendor)(), iterative_md(target));
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    s.program.checksums
}

fn gray_setup(target: &EvalTarget) -> SuperviseSetup {
    let mut setup = SuperviseSetup::new((target.vendor)(), "/local/gray", "/nfs/gray");
    setup.config.detector = DetectorPolicy::Timeout(SimDuration::from_millis(400));
    setup.config.heartbeat_every = SimDuration::from_millis(50);
    setup.config.min_interval = SimDuration::from_millis(300);
    setup.config.max_interval = SimDuration::from_secs(8);
    setup.config.initial_mtbf = SimDuration::from_secs(5);
    setup.config.max_failures = 200;
    setup.policy = CprPolicy::sequential().with_recovery(RecoveryPolicy {
        retry: blcr::RetryPolicy::default(),
        fallback_targets: Vec::new(),
    });
    setup
}

/// Run one supervised scenario and emit its row. `plan` receives the
/// session's origin clock and the cluster's node list.
#[allow(clippy::too_many_arguments)]
fn gray_cell(
    fig: &mut FigureWriter,
    target: &EvalTarget,
    golden: &[u64],
    scenario: &str,
    nodes: usize,
    spare_idx: &[usize],
    quorum: bool,
    scrub_budget: Option<usize>,
    plan: impl FnOnce(SimTime, &[NodeId]) -> Option<FaultPlan>,
) -> checl::supervisor::SupervisorReport {
    let mut cluster = Cluster::with_standard_nodes(nodes);
    let node_ids = cluster.node_ids();
    let session = CheclSession::launch(
        &mut cluster,
        node_ids[0],
        (target.vendor)(),
        CheclConfig::default(),
        iterative_md(target),
    );
    let origin = cluster.process(session.pid).clock;
    if let Some(p) = plan(origin, &node_ids) {
        cluster.install_faults(p);
    }
    let mut setup = gray_setup(target);
    setup.spares = spare_idx.iter().map(|&i| node_ids[i]).collect();
    setup.quorum_restore = quorum;
    setup.scrub_budget = scrub_budget;
    let (s, report) = run_supervised(&mut cluster, session, &setup)
        .unwrap_or_else(|e| panic!("{scenario}: supervision escalated: {e:?}"));
    assert!(report.completed, "{scenario}: job did not complete");
    let exact = s.program.checksums == golden;
    assert!(exact, "{scenario}: supervised result diverged");
    fig.row(vec![
        scenario.into(),
        "yes".into(),
        (report.failures as u64).into(),
        (report.false_positives as u64).into(),
        (report.repairs as u64).into(),
        Cell::secs(report.wasted_work),
        Cell::secs(report.induced_overhead),
        Cell::secs(report.checkpoint_overhead),
        Cell::secs(report.downtime),
        Cell::secs(report.total_overhead()),
        "yes".into(),
    ]);
    report
}

fn baseline_cell(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let report = gray_cell(
        fig,
        target,
        golden,
        "baseline",
        2,
        &[1],
        false,
        None,
        |_, _| None,
    );
    assert_eq!(report.failures, 0);
    assert_eq!(report.false_positives, 0);
}

/// Disk and NFS brownouts for the whole run, plus one real proxy death
/// in the middle: the repair happens *under* the brownout, so the
/// quorum read and the budgeted scrub earn their keep.
fn degraded_disk_cell(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let report = gray_cell(
        fig,
        target,
        golden,
        "brownout 25% + proxy death",
        2,
        &[1],
        true,
        Some(2),
        |origin, _| {
            let horizon = origin + SimDuration::from_secs(600);
            Some(
                FaultPlan::new(SEED + 1)
                    .schedule_degradation(origin, horizon, 25, Some(FsKind::LocalDisk))
                    .schedule_degradation(origin, horizon, 25, Some(FsKind::Nfs))
                    .schedule_proxy_death(origin + SimDuration::from_secs(2)),
            )
        },
    );
    assert_eq!(report.failures, 1, "the proxy death must be detected");
}

/// Heartbeat-loss windows with nothing actually wrong: the detector
/// raises suspects, the supervisor probes, finds the node alive, and
/// books the probe as induced overhead — zero failures, zero respawns.
fn heartbeat_loss_cell(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let report = gray_cell(
        fig,
        target,
        golden,
        "heartbeat loss (slow, not dead)",
        2,
        &[1],
        false,
        None,
        |origin, _| {
            Some(
                FaultPlan::new(SEED + 2)
                    .schedule_heartbeat_loss(
                        origin + SimDuration::from_millis(800),
                        origin + SimDuration::from_millis(1500),
                    )
                    .schedule_heartbeat_loss(
                        origin + SimDuration::from_millis(2600),
                        origin + SimDuration::from_millis(3300),
                    ),
            )
        },
    );
    assert_eq!(
        report.failures, 0,
        "a slow node must not be booked as a failure"
    );
    assert!(
        report.false_positives > 0,
        "the detector never suspected the silent node"
    );
    assert!(report.induced_overhead > SimDuration::ZERO);
}

/// The worker node is partitioned from the supervisor mid-run; the
/// supervisor fences the unreachable writer (epoch bump) and fails
/// over to the spare. The partition heals afterwards — too late: the
/// old epoch is fenced out of the vault.
fn partition_heal_cell(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let report = gray_cell(
        fig,
        target,
        golden,
        "partition, heal after failover",
        2,
        &[1],
        false,
        None,
        |origin, nodes| {
            Some(FaultPlan::new(SEED + 3).schedule_partition(
                origin + SimDuration::from_millis(1500),
                origin + SimDuration::from_millis(2500),
                &[nodes[0]],
            ))
        },
    );
    assert!(
        report.failures >= 1,
        "the partition must trigger a fenced failover"
    );
}

/// A whole rack (nodes 0 and 1) crashes together. The spare list holds
/// one node inside the failing domain and one outside: the supervisor
/// must place the respawn outside the domain.
fn rack_crash_cell(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let report = gray_cell(
        fig,
        target,
        golden,
        "rack-domain crash, failover outside",
        3,
        &[1, 2],
        false,
        None,
        |origin, nodes| {
            Some(
                FaultPlan::new(SEED + 4)
                    .define_domain("rack0", &[nodes[0], nodes[1]])
                    .schedule_domain_crash(origin + SimDuration::from_secs(2), "rack0"),
            )
        },
    );
    assert!(report.failures >= 1, "the rack crash must be detected");
    assert!(report.repairs >= 1);
}

// ---------------------------------------------------------------------
// Section 2: fleet backpressure ladder
// ---------------------------------------------------------------------

fn fleet_cell(
    fig: &mut FigureWriter,
    scenario: &str,
    stressed: bool,
    ladder: bool,
    reject: Option<SimDuration>,
    gap: SimDuration,
) -> usize {
    let horizon = SimTime::ZERO + SimDuration::from_secs(3600);
    let cfg = FleetConfig {
        nodes: 2,
        slots_per_node: 2,
        stretch_backlog: ladder.then(|| SimDuration::from_micros(500)),
        shed_backlog: ladder.then(|| SimDuration::from_millis(1)),
        reject_backlog: reject.or(ladder.then(|| SimDuration::from_millis(4))),
        brownouts: if stressed {
            vec![(0, SimTime::ZERO, horizon, 5)]
        } else {
            Vec::new()
        },
        drains: if stressed {
            vec![(
                1,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_millis(2),
            )]
        } else {
            Vec::new()
        },
        ..FleetConfig::default()
    };
    let specs = default_job_mix(24, SEED + 5, gap);
    let report = run_fleet(&cfg, specs);
    let drift_free = report.completed + report.rejected == report.jobs
        && report.slo_attained + report.slo_missed == report.completed as u64;
    assert!(drift_free, "{scenario}: SLO accounting drifted");
    assert!(
        report.all_bit_exact(),
        "{scenario}: a tenant diverged under backpressure"
    );
    fig.row(vec![
        scenario.into(),
        report.jobs.into(),
        report.completed.into(),
        report.rejected.into(),
        report.preemptions.into(),
        report.slo_attained.into(),
        report.slo_missed.into(),
        Cell::num(report.p99_latency.as_secs_f64() * 1e3, 2),
        "yes".into(),
        "zero drift".into(),
    ]);
    report.rejected
}

// ---------------------------------------------------------------------
// Section 3: crash-point torture sweep
// ---------------------------------------------------------------------

const KIB: u64 = 1 << 10;

/// Three mutation waves over three buffers; the torture loop commits a
/// generation after each wave boundary.
fn torture_script() -> (Script, [u64; 3]) {
    let sizes: [u64; 3] = [256 * KIB, 192 * KIB, 128 * KIB];
    let mut ops = vec![
        Op::GetPlatform { out: 0 },
        Op::GetDevices {
            platform: 0,
            dtype: DeviceType::Gpu,
            out: 1,
            count: 1,
        },
        Op::CreateContext { device: 1, out: 2 },
        Op::CreateQueue {
            context: 2,
            device: 1,
            out: 3,
        },
    ];
    let buf0: Reg = 4;
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::CreateBuffer {
            context: 2,
            flags: clspec::types::MemFlags::READ_WRITE,
            size,
            init: Some(BufInit::RandomU32 {
                seed: 0x70_70 + i as u64,
            }),
            out: buf0 + i as Reg,
        });
    }
    let mut bounds = [0u64; 3];
    bounds[0] = ops.len() as u64;
    for wave in 1..3u64 {
        for (i, &size) in sizes.iter().enumerate() {
            ops.push(Op::WriteBuffer {
                queue: 3,
                buf: buf0 + i as Reg,
                size,
                init: BufInit::RandomU32 {
                    seed: 0xbad0 * wave + i as u64,
                },
            });
        }
        bounds[wave as usize] = ops.len() as u64;
    }
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
        });
    }
    (Script { ops }, bounds)
}

struct Wreckage {
    cluster: Cluster,
    vault: blcr::DumpVault,
    node: NodeId,
    outcome: Result<Vec<u64>, String>,
    ledger: Option<obs::Ledger>,
}

fn torture_run(policy: &CprPolicy, crash_after: Option<u64>) -> Wreckage {
    let (script, bounds) = torture_script();
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut session = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        script,
    );
    let mut vault = blcr::DumpVault::new("/local/graytorture", "/nfs/graytorture", 2);

    session
        .checkpoint_with_policy(&mut cluster, &vault.stage_path(), policy)
        .expect("gen 0 stage");
    if policy.live {
        session
            .complete_live_drain(&mut cluster)
            .expect("gen 0 drain")
            .expect("gen 0 drain parked");
    }
    vault
        .commit(&mut cluster, session.pid)
        .expect("gen 0 commit");

    obs::start_recording();
    if let Some(k) = crash_after {
        cluster.install_faults(FaultPlan::new(SEED + 6).crash_after_events(k));
    }
    let outcome = (|| {
        for &bound in &bounds {
            session
                .run(&mut cluster, StopCondition::AfterOps(bound))
                .map_err(|e| format!("run: {e:?}"))?;
            let stage = vault.stage_path();
            let out = session
                .checkpoint_with_policy(&mut cluster, &stage, policy)
                .map_err(|e| format!("checkpoint: {e:?}"))?;
            if policy.live {
                session
                    .run(&mut cluster, StopCondition::AfterOps(bound + 1))
                    .map_err(|e| format!("run: {e:?}"))?;
                session
                    .complete_live_drain(&mut cluster)
                    .map_err(|e| format!("drain: {e:?}"))?;
            }
            vault
                .commit_at(&mut cluster, session.pid, &out.path)
                .map_err(|e| format!("commit: {e:?}"))?;
        }
        session
            .run(&mut cluster, StopCondition::Completion)
            .map_err(|e| format!("run: {e:?}"))?;
        Ok(session.program.checksums.clone())
    })();
    let ledger = obs::stop_recording();
    Wreckage {
        cluster,
        vault,
        node,
        outcome,
        ledger,
    }
}

fn restore_and_finish(wreck: &mut Wreckage, context: &str) -> Vec<u64> {
    let chain = wreck.vault.restore_chain();
    for path in &chain {
        let restored = CheclSession::restart(
            &mut wreck.cluster,
            wreck.node,
            path,
            cldriver::vendor::nimbus(),
            RestoreTarget::default(),
        );
        if let Ok(mut s) = restored {
            s.run(&mut wreck.cluster, StopCondition::Completion)
                .unwrap_or_else(|e| panic!("{context}: restored run failed: {e:?}"));
            let sums = s.program.checksums.clone();
            s.kill(&mut wreck.cluster);
            return sums;
        }
    }
    panic!("{context}: no generation in {chain:?} restored");
}

fn torture_cell(fig: &mut FigureWriter, label: &str, policy: &CprPolicy) {
    let baseline = torture_run(policy, None);
    let golden = baseline
        .outcome
        .unwrap_or_else(|e| panic!("{label}: baseline failed: {e}"));
    let ledger = baseline.ledger.expect("baseline ledger");
    let total = ledger.len() as u64;
    let kinds: BTreeSet<&'static str> = ledger.events().iter().map(|e| e.kind.name()).collect();
    let mut survivors = 0u64;
    let mut restores = 0u64;
    for k in 1..=total {
        let ctx = format!("{label} @ boundary {k}/{total}");
        let mut wreck = torture_run(policy, Some(k));
        wreck.cluster.take_faults();
        match std::mem::replace(&mut wreck.outcome, Err(String::new())) {
            Ok(sums) => {
                assert_eq!(sums, golden, "{ctx}: survivor diverged");
                survivors += 1;
            }
            Err(_) => {
                let sums = restore_and_finish(&mut wreck, &ctx);
                assert_eq!(sums, golden, "{ctx}: restore diverged");
                restores += 1;
            }
        }
    }
    assert_eq!(survivors + restores, total, "{label}: a boundary was lost");
    assert!(restores > 0, "{label}: no boundary tripped the crash gate");
    fig.row(vec![
        label.into(),
        total.into(),
        survivors.into(),
        restores.into(),
        (kinds.len() as u64).into(),
        "100%".into(),
    ]);
}
