//! Cross-crate system scenarios: the paper's end-to-end stories.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_repro as _;
use osproc::Cluster;
use simcore::SimDuration;
use workloads::{workload_by_name, CheclSession, NativeSession, StopCondition, WorkloadCfg};

fn quick() -> WorkloadCfg {
    WorkloadCfg {
        scale: 1.0 / 64.0,
        ..WorkloadCfg::default()
    }
}

/// §II: a conventional CPR system fails on a native OpenCL process but
/// succeeds on the same program under CheCL.
#[test]
fn blcr_fails_native_succeeds_under_checl() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let w = workload_by_name("oclVectorAdd").unwrap();

    let mut native = NativeSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        w.script(&quick()),
    );
    native
        .run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    assert!(matches!(
        blcr::checkpoint(&mut cluster, native.pid, "/local/native.ckpt"),
        Err(blcr::CprError::DeviceMapped { .. })
    ));

    let mut shim = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w.script(&quick()),
    );
    shim.run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    shim.checkpoint_with_policy(&mut cluster, "/local/checl.ckpt", &CprPolicy::sequential())
        .unwrap();
}

/// §V: DMTCP checkpoints process trees, so it fails while the API proxy
/// lives; the paper's workaround (kill the proxy first, refork after)
/// works end to end, including object restoration.
#[test]
fn dmtcp_workflow_with_proxy_kill_and_refork() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let w = workload_by_name("oclReduction").unwrap();
    let mut s = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w.script(&quick()),
    );
    s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();

    // Stock DMTCP chokes on the tree: the proxy maps devices.
    assert!(matches!(
        blcr::dmtcp_checkpoint(&mut cluster, s.pid, "/local/tree.ckpt"),
        Err(blcr::CprError::ChildDeviceMapped { .. })
    ));

    // Paper workaround. First drain + save device data while the proxy
    // is still alive (CheCL's preprocess), then kill the proxy, then
    // let DMTCP dump the now-clean tree.
    s.drain(&mut cluster);
    // Use the regular CheCL checkpoint to capture buffers + state...
    s.checkpoint_with_policy(&mut cluster, "/local/pre.ckpt", &CprPolicy::sequential())
        .unwrap();
    // ...then kill the proxy and let the DMTCP-style tree dump succeed.
    checl::boot::kill_proxy(&mut cluster, &mut s.lib);
    blcr::dmtcp_checkpoint(&mut cluster, s.pid, "/local/tree.ckpt").unwrap();

    // "Restarted right after checkpointing": refork the proxy, restore
    // objects, and keep running in place.
    checl::boot::refork_proxy(&mut cluster, &mut s.lib, s.pid, cldriver::vendor::nimbus());
    let mut now = cluster.process(s.pid).clock;
    checl::restore_checl(&mut s.lib, &mut now, RestoreTarget::default()).unwrap();
    cluster.process_mut(s.pid).clock = now;
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    assert!(!s.program.checksums.is_empty());
}

/// The init overhead appears once per process: CheCL costs ~80 ms at
/// load time (§IV-A), visible as the clock delta right after launch.
#[test]
fn init_overhead_is_once_per_process() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let w = workload_by_name("QueueDelay").unwrap();
    let native = NativeSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        w.script(&quick()),
    );
    let t_native0 = native.elapsed(&cluster);
    let checl_run = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w.script(&quick()),
    );
    let t_checl0 = checl_run.elapsed(&cluster);
    assert_eq!(t_native0, SimDuration::ZERO);
    assert_eq!(t_checl0, simcore::calib::checl_init_overhead());
}

/// Two independent jobs on one cluster don't interfere: separate
/// processes, proxies and object databases.
#[test]
fn concurrent_jobs_are_isolated() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let w1 = workload_by_name("oclHistogram").unwrap();
    let w2 = workload_by_name("FFT").unwrap();
    let mut a = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w1.script(&quick()),
    );
    let mut b = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::crimson(),
        CheclConfig::default(),
        w2.script(&quick()),
    );
    // Interleave.
    a.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
    b.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
    a.run(&mut cluster, StopCondition::Completion).unwrap();
    b.run(&mut cluster, StopCondition::Completion).unwrap();
    assert_ne!(a.lib.proxy_pid(), b.lib.proxy_pid());
    assert!(!a.program.checksums.is_empty());
    assert!(!b.program.checksums.is_empty());
}

/// Checkpoint files are host-independent (§IV-C): the same file
/// restarts on any node that can read it, regardless of where it was
/// written.
#[test]
fn checkpoint_files_are_host_independent() {
    let mut cluster = Cluster::with_standard_nodes(3);
    let nodes = cluster.node_ids();
    let w = workload_by_name("oclDotProduct").unwrap();
    let mut s = CheclSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w.script(&quick()),
    );
    s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
    s.checkpoint_with_policy(&mut cluster, "/nfs/anynode.ckpt", &CprPolicy::sequential())
        .unwrap();
    s.kill(&mut cluster);

    // Restart on node 1, then checkpoint again and hop to node 2.
    let mut s = CheclSession::restart(
        &mut cluster,
        nodes[1],
        "/nfs/anynode.ckpt",
        cldriver::vendor::nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    s.checkpoint_with_policy(&mut cluster, "/nfs/hop2.ckpt", &CprPolicy::sequential())
        .unwrap();
    s.kill(&mut cluster);
    let mut s = CheclSession::restart(
        &mut cluster,
        nodes[2],
        "/nfs/hop2.ckpt",
        cldriver::vendor::crimson(),
        RestoreTarget::default(),
    )
    .unwrap();
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    assert!(!s.program.checksums.is_empty());
}

/// Repeated checkpoint/restart cycles keep producing correct results
/// (no state leaks between generations).
#[test]
fn many_generations_of_restart() {
    let cfg = quick();
    let w = workload_by_name("Stencil2D").unwrap();
    let golden = {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = NativeSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            w.script(&cfg),
        );
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        s.program.checksums
    };

    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let mut s = CheclSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        w.script(&cfg),
    );
    let mut kernel_target = 2;
    for gen in 0..5 {
        if s.run(&mut cluster, StopCondition::AfterKernel(kernel_target))
            .unwrap()
            == workloads::RunStatus::Done
        {
            break;
        }
        let path = format!("/nfs/gen{gen}.ckpt");
        s.checkpoint_with_policy(&mut cluster, &path, &CprPolicy::sequential())
            .unwrap();
        s.kill(&mut cluster);
        let vendor = if gen % 2 == 0 {
            cldriver::vendor::crimson()
        } else {
            cldriver::vendor::nimbus()
        };
        s = CheclSession::restart(
            &mut cluster,
            nodes[gen % 2],
            &path,
            vendor,
            RestoreTarget::default(),
        )
        .unwrap();
        kernel_target += 2;
    }
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    assert_eq!(s.program.checksums, golden);
}
