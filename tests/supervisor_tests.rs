//! Self-healing supervisor system tests: a [`run_supervised`] workload
//! under an arbitrary seeded [`FaultPlan`] — proxy deaths, pipe breaks,
//! node crashes (scripted and recurring), write mangling, NFS outages —
//! either completes with buffer contents bit-exact to an undisturbed
//! run or returns a typed [`SupervisorError::Escalated`]. It never
//! panics, never hangs, never silently corrupts, and the whole ordeal
//! replays bit-for-bit under the same seed.

use checl::supervisor::{SupervisorError, SupervisorReport};
use checl::{CheckpointMode, CprPolicy, RecoveryPolicy};
use checl_repro as _;
use osproc::{Cluster, FaultPlan, InjectedFault, NodeId};
use simcore::qcheck::{qcheck, Gen};
use simcore::{SimDuration, SimTime};
use workloads::{
    run_supervised, workload_by_name, CheclSession, NativeSession, PolicyRunOutcome, StopCondition,
    SuperviseSetup, WorkloadCfg,
};

fn quick() -> WorkloadCfg {
    WorkloadCfg {
        scale: 1.0 / 64.0,
        ..WorkloadCfg::default()
    }
}

fn launch_on(cluster: &mut Cluster, node: NodeId) -> CheclSession {
    let w = workload_by_name("oclVectorAdd").unwrap();
    CheclSession::launch(
        cluster,
        node,
        cldriver::vendor::nimbus(),
        checl::CheclConfig::default(),
        w.script(&quick()),
    )
}

/// Final checksums of the same program run natively, undisturbed.
fn golden_checksums() -> Vec<u64> {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let w = workload_by_name("oclVectorAdd").unwrap();
    let mut s = NativeSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        w.script(&quick()),
    );
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    s.program.checksums
}

/// A supervised setup sized for the 1/64-scale workload: short
/// intervals so checkpoints land mid-run, a tight MTBF prior, and a
/// failure-storm backstop low enough to keep adversarial cases quick.
fn test_setup(spares: Vec<NodeId>) -> SuperviseSetup {
    let mut setup = SuperviseSetup::new(cldriver::vendor::nimbus(), "/local/sup", "/nfs/sup");
    setup.spares = spares;
    setup.config.min_interval = SimDuration::from_millis(5);
    setup.config.max_interval = SimDuration::from_secs(2);
    setup.config.initial_mtbf = SimDuration::from_millis(200);
    setup.config.max_failures = 24;
    setup.policy = CprPolicy::sequential().with_recovery(RecoveryPolicy {
        retry: blcr::RetryPolicy::default(),
        fallback_targets: Vec::new(),
    });
    setup
}

/// Draw an adversarial plan for a supervised run: everything the fault
/// tests throw, plus recurring proxy-death and node-crash rates over
/// every node in the cluster (spares included — the supervisor must
/// survive its failover targets dying too).
fn arbitrary_supervised_plan(g: &mut Gen, origin: SimTime, nodes: &[NodeId]) -> FaultPlan {
    let mut plan = FaultPlan::new(g.u64());
    if g.bool() {
        plan = plan.with_write_fail_prob(g.f32_in(0.0, 0.2) as f64);
    }
    plan = plan
        .fail_next_writes(g.range(0, 2) as u32)
        .corrupt_next_writes(g.range(0, 2) as u32);
    if g.bool() {
        let from = origin + SimDuration::from_millis(g.range(0, 40));
        plan = plan.schedule_nfs_outage(from, from + SimDuration::from_millis(g.range(1, 100)));
    }
    for _ in 0..g.usize_in(0, 2) {
        plan = plan.schedule_proxy_death(origin + SimDuration::from_millis(g.range(0, 40)));
    }
    if g.bool() {
        plan = plan.with_proxy_death_rate(SimDuration::from_millis(g.range(20, 200)));
    }
    if g.bool() {
        plan = plan.with_node_crash_rate(SimDuration::from_millis(g.range(50, 400)), nodes);
    }
    if g.bool() {
        let victim = nodes[g.usize_in(0, nodes.len() - 1)];
        plan = plan.schedule_node_crash(origin + SimDuration::from_millis(g.range(0, 60)), victim);
    }
    plan
}

/// Run the supervised gauntlet from a fresh generator: 3-node cluster,
/// app on node 0, the other two as spares, adversarial plan over all
/// three. Returns the fault log, the final checksums (`None` when the
/// run escalated) and the report.
#[allow(clippy::type_complexity)]
fn supervised_gauntlet(
    g: &mut Gen,
) -> (
    Vec<InjectedFault>,
    Option<Vec<u64>>,
    Option<SupervisorReport>,
) {
    let mut cluster = Cluster::with_standard_nodes(3);
    let nodes = cluster.node_ids();
    let session = launch_on(&mut cluster, nodes[0]);
    let origin = cluster.process(session.pid).clock;
    let plan = arbitrary_supervised_plan(g, origin, &nodes);
    cluster.install_faults(plan);
    let setup = test_setup(vec![nodes[1], nodes[2]]);
    let (sums, report) = match run_supervised(&mut cluster, session, &setup) {
        Ok((s, report)) => (Some(s.program.checksums.clone()), Some(report)),
        Err(SupervisorError::Escalated { .. }) => (None, None),
    };
    let log = cluster.take_faults().unwrap().log().to_vec();
    (log, sums, report)
}

/// An undisturbed supervised run completes, checkpoints on cadence, and
/// its buffers match the native run bit for bit.
#[test]
fn supervised_clean_run_matches_native() {
    let golden = golden_checksums();
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let session = launch_on(&mut cluster, nodes[0]);
    let setup = test_setup(vec![nodes[1]]);
    let (s, report) =
        run_supervised(&mut cluster, session, &setup).expect("a clean run must complete");
    assert!(report.completed);
    assert_eq!(report.failures, 0, "no faults were installed");
    assert!(report.checkpoints >= 1, "generation 0 is always committed");
    assert!(
        !report.interval_history.is_empty(),
        "the adaptive controller must have put an interval in force"
    );
    assert_eq!(s.program.checksums, golden);
}

/// A proxy killed mid-run is detected and repaired automatically — no
/// manual recovery calls — and the result is still bit-exact.
#[test]
fn supervised_run_heals_proxy_death_bit_exact() {
    let golden = golden_checksums();
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let session = launch_on(&mut cluster, nodes[0]);
    let origin = cluster.process(session.pid).clock;
    cluster.install_faults(
        FaultPlan::new(7).schedule_proxy_death(origin + SimDuration::from_millis(3)),
    );
    let setup = test_setup(vec![nodes[1]]);
    let (s, report) =
        run_supervised(&mut cluster, session, &setup).expect("one proxy death must be survivable");
    assert!(report.completed);
    assert!(report.failures >= 1, "the scheduled death must have fired");
    assert!(report.repairs >= 1, "the repair ladder must have run");
    assert!(
        report.downtime > SimDuration::ZERO,
        "detection and repair take time"
    );
    assert_eq!(s.program.checksums, golden);
}

/// A node crash fails the session over to a healthy spare from the NFS
/// mirror replica, re-seeds local replicas by scrubbing, and finishes
/// bit-exact.
#[test]
fn supervised_run_fails_over_to_a_spare_node() {
    let golden = golden_checksums();
    let mut cluster = Cluster::with_standard_nodes(3);
    let nodes = cluster.node_ids();
    let session = launch_on(&mut cluster, nodes[0]);
    let origin = cluster.process(session.pid).clock;
    cluster.install_faults(
        FaultPlan::new(11).schedule_node_crash(origin + SimDuration::from_millis(4), nodes[0]),
    );
    let setup = test_setup(vec![nodes[1], nodes[2]]);
    let (s, report) =
        run_supervised(&mut cluster, session, &setup).expect("failover to a spare must succeed");
    assert!(report.completed);
    assert!(report.failures >= 1);
    assert_ne!(
        cluster.process(s.pid).node,
        nodes[0],
        "the session must have moved off the crashed node"
    );
    assert_eq!(s.program.checksums, golden);
}

/// With no spare to fail over to, a node crash exhausts repair and
/// surfaces as the typed escalation — not a panic, not a hang.
#[test]
fn exhausted_repair_escalates_with_a_typed_error() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let nodes = cluster.node_ids();
    let session = launch_on(&mut cluster, nodes[0]);
    let origin = cluster.process(session.pid).clock;
    cluster.install_faults(
        FaultPlan::new(13).schedule_node_crash(origin + SimDuration::from_millis(2), nodes[0]),
    );
    let setup = test_setup(Vec::new());
    match run_supervised(&mut cluster, session, &setup) {
        Err(SupervisorError::Escalated { detail, .. }) => {
            assert!(
                detail.contains("spare"),
                "escalation must say why: {detail}"
            );
        }
        Ok(_) => panic!("a crash with no spare cannot complete"),
    }
}

/// The acceptance property: under *any* seeded plan the supervised run
/// either completes bit-identical to the fault-free golden or returns
/// the typed escalation. No third outcome exists.
#[test]
fn supervised_gauntlet_completes_or_escalates() {
    let golden = golden_checksums();
    qcheck("supervised_gauntlet_completes_or_escalates", 16, |g| {
        let (_log, sums, report) = supervised_gauntlet(g);
        match (sums, report) {
            (Some(sums), Some(report)) => {
                assert!(report.completed);
                assert_eq!(sums, golden, "a completed supervised run must be bit-exact");
            }
            (None, None) => {} // typed escalation — acceptable by contract
            other => panic!("checksums and report must agree: {other:?}"),
        }
    });
}

/// The same seed drives the same detections, repairs, failovers and
/// checkpoints at the same virtual times — supervised runs replay
/// bit-for-bit.
#[test]
fn supervised_replay_is_deterministic() {
    qcheck("supervised_replay_is_deterministic", 8, |g| {
        let seed = g.u64();
        let run = |seed: u64| {
            let mut inner = Gen::new(seed);
            supervised_gauntlet(&mut inner)
        };
        let (log_a, sums_a, report_a) = run(seed);
        let (log_b, sums_b, report_b) = run(seed);
        assert_eq!(log_a, log_b, "fault logs must replay identically");
        assert_eq!(sums_a, sums_b, "results must replay identically");
        assert_eq!(report_a, report_b, "accounting must replay identically");
    });
}

/// Satellite property: a `CheckpointMode::Delayed` snapshot taken while
/// faults fire inside the delay window still restores bit-identically.
/// The trigger arms immediately after launch; write bursts and an NFS
/// outage land on the commit at the next sync point; commit hardening
/// rides them out or fails typed — and every committed snapshot
/// restores to the golden result.
#[test]
fn delayed_checkpoint_under_faults_restores_bit_exact() {
    let golden = golden_checksums();
    qcheck(
        "delayed_checkpoint_under_faults_restores_bit_exact",
        12,
        |g| {
            let mut cluster = Cluster::with_standard_nodes(2);
            let node = cluster.node_ids()[0];
            let mut session = launch_on(&mut cluster, node);
            // Arm the delayed trigger before the first op: the whole run up
            // to the next sync point is the delay window.
            cluster.signal(session.pid, osproc::Signal::Usr1);
            let origin = cluster.process(session.pid).clock;
            let mut plan = FaultPlan::new(g.u64())
                .fail_next_writes(g.range(0, 2) as u32)
                .short_next_writes(g.range(0, 1) as u32)
                .corrupt_next_writes(g.range(0, 1) as u32);
            if g.bool() {
                let from = origin + SimDuration::from_micros(g.range(0, 2_000));
                plan =
                    plan.schedule_nfs_outage(from, from + SimDuration::from_millis(g.range(1, 50)));
            }
            cluster.install_faults(plan);
            let policy = CprPolicy::sequential().with_recovery(RecoveryPolicy {
                retry: blcr::RetryPolicy::default(),
                fallback_targets: vec!["/local/d.fb.ckpt".into()],
            });
            let snap = match session.run_with_cpr_policy(
                &mut cluster,
                CheckpointMode::Delayed,
                &policy,
                "/nfs/d.ckpt",
            ) {
                Ok(PolicyRunOutcome::Checkpointed(snap)) => snap,
                Ok(PolicyRunOutcome::Done) => panic!("an armed trigger cannot end in Done"),
                // Hardening exhausted under this draw — a typed error, and
                // nothing to restore. The property holds vacuously.
                Err(_) => return,
            };
            // The delayed trigger must have fired at a sync point (or at
            // exit with queues drained) — never mid-command.
            let program = &session.program;
            assert!(
                program.is_done()
                    || matches!(
                        program.script.ops[program.pc as usize],
                        workloads::Op::Finish { .. }
                    ),
                "Delayed must commit at a sync point"
            );
            cluster.take_faults();
            let mut restored = CheclSession::restart(
                &mut cluster,
                node,
                &snap.path,
                cldriver::vendor::nimbus(),
                checl::RestoreTarget::default(),
            )
            .expect("a committed delayed snapshot must restore");
            restored
                .run(&mut cluster, StopCondition::Completion)
                .unwrap();
            assert_eq!(
                restored.program.checksums, golden,
                "restore from a delay-window snapshot must be bit-exact"
            );
        },
    );
}
