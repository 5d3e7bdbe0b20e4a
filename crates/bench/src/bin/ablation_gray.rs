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

use checl::{CheclConfig, CprPolicy};
use checl_bench::torture::{engine_paths, torture_sweep, TortureBed};
use checl_bench::{
    eval_targets, iterative_md, md_setup, native_checksums, Cell, EvalTarget, FigureWriter,
    TraceSession, SEED,
};
use fleet::{default_job_mix, run_fleet, FleetConfig};
use osproc::{Cluster, FaultPlan, FsKind, NodeId};
use simcore::{SimDuration, SimTime};
use workloads::{run_supervised, CheclSession};

/// Relaxation steps of this ablation's MD job, one `clFinish` sync per
/// step: fewer than the supervisor sweep's, still enough boundaries
/// for the interval policy and the detector to act on.
const STEPS: usize = 24;

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    let mut fig = FigureWriter::new("ablation_gray");
    let golden = native_checksums((target.vendor)(), iterative_md(target, STEPS));

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
    for (label, policy) in engine_paths() {
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
        iterative_md(target, STEPS),
    );
    let origin = cluster.process(session.pid).clock;
    if let Some(p) = plan(origin, &node_ids) {
        cluster.install_faults(p);
    }
    let mut setup = md_setup(target, "/local/gray", "/nfs/gray");
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

fn torture_cell(fig: &mut FigureWriter, label: &str, policy: &CprPolicy) {
    let bed = TortureBed {
        primary: "/local/graytorture",
        mirror: "/nfs/graytorture",
        seed: SEED + 6,
    };
    let tally = torture_sweep(bed, label, policy);
    assert_eq!(
        tally.survivors + tally.restores,
        tally.crash_points,
        "{label}: a boundary was lost"
    );
    assert!(
        tally.restores > 0,
        "{label}: no boundary tripped the crash gate"
    );
    fig.row(vec![
        label.into(),
        tally.crash_points.into(),
        tally.survivors.into(),
        tally.restores.into(),
        (tally.kinds.len() as u64).into(),
        "100%".into(),
    ]);
}
