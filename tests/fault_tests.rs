//! Fault-injection system tests: whatever a seeded [`FaultPlan`]
//! throws at a CheCL application, the run terminates, replays
//! bit-for-bit under the same seed, and — when a checkpoint was
//! committed — recovers the exact buffer contents of an undisturbed
//! run.

use blcr::RetryPolicy;
use checl::{CprPolicy, RecoveryPolicy};
use checl_repro as _;
use osproc::{Cluster, FaultPlan, InjectedFault, Pid};
use simcore::qcheck::{qcheck, Gen};
use simcore::{SimDuration, SimTime};
use workloads::{workload_by_name, CheclSession, NativeSession, StopCondition, WorkloadCfg};

fn quick() -> WorkloadCfg {
    WorkloadCfg {
        scale: 1.0 / 64.0,
        ..WorkloadCfg::default()
    }
}

fn launch(cluster: &mut Cluster) -> CheclSession {
    let node = cluster.node_ids()[0];
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

/// Draw an adversarial fault plan: random probabilistic write mangling,
/// scripted one-shot faults, NFS outage windows and scheduled process
/// faults, all from the generator's stream.
fn arbitrary_plan(g: &mut Gen, origin: SimTime) -> FaultPlan {
    let mut plan = FaultPlan::new(g.u64());
    if g.bool() {
        plan = plan.with_write_fail_prob(g.f32_in(0.0, 0.6) as f64);
    }
    if g.bool() {
        plan = plan.with_short_write_prob(g.f32_in(0.0, 0.4) as f64);
    }
    if g.bool() {
        plan = plan.with_corrupt_write_prob(g.f32_in(0.0, 0.4) as f64);
    }
    plan = plan
        .fail_next_writes(g.range(0, 3) as u32)
        .short_next_writes(g.range(0, 2) as u32)
        .corrupt_next_writes(g.range(0, 2) as u32);
    if g.bool() {
        let from = origin + SimDuration::from_millis(g.range(0, 40));
        plan = plan.schedule_nfs_outage(from, from + SimDuration::from_millis(g.range(1, 200)));
    }
    for _ in 0..g.usize_in(0, 3) {
        plan = plan.schedule_proxy_death(origin + SimDuration::from_millis(g.range(0, 30)));
    }
    for _ in 0..g.usize_in(0, 3) {
        plan = plan.schedule_pipe_break(origin + SimDuration::from_millis(g.range(0, 30)));
    }
    plan
}

/// Run the gauntlet: checkpoint under the plan, then run to completion
/// with recovery enabled. Both steps may fail — what matters is that
/// they *return*. Yields the fault log, the final program checksums
/// (empty when the run failed) and the final clock.
fn gauntlet(plan: FaultPlan) -> (Vec<InjectedFault>, Vec<u64>, SimTime) {
    let mut cluster = Cluster::with_standard_nodes(2);
    let mut session = launch(&mut cluster);
    session
        .run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    // The safety net is written before faults arm, so recovery always
    // has a good file to fall back on.
    session
        .checkpoint_with_policy(&mut cluster, "/local/net.ckpt", &CprPolicy::sequential())
        .unwrap();
    cluster.install_faults(plan);
    let hardened = CprPolicy::sequential().with_recovery(RecoveryPolicy {
        retry: RetryPolicy::default(),
        fallback_targets: vec!["/local/g.ckpt".to_string()],
    });
    let _ = session.checkpoint_with_policy(&mut cluster, "/nfs/g.ckpt", &hardened);
    let vendor = cldriver::vendor::nimbus();
    let outcome = session.run_with_recovery(
        &mut cluster,
        StopCondition::Completion,
        "/local/net.ckpt",
        &vendor,
        6,
    );
    let checksums = match outcome {
        Ok(_) => session.program.checksums.clone(),
        Err(_) => Vec::new(),
    };
    let clock = cluster.process(session.pid).clock;
    (
        cluster.take_faults().unwrap().log().to_vec(),
        checksums,
        clock,
    )
}

/// Any seeded fault plan — probabilistic mangling, scripted bursts,
/// outage windows, process faults — leaves the run terminating
/// normally: every fault either recovers or surfaces as a typed error.
#[test]
fn any_fault_plan_terminates() {
    qcheck("any_fault_plan_terminates", 24, |g| {
        let plan = arbitrary_plan(g, SimTime::ZERO);
        let (_log, _sums, _clock) = gauntlet(plan);
    });
}

/// The same seed injects the same faults at the same virtual times and
/// ends in the same state — fault runs are replayable.
#[test]
fn same_seed_replays_bit_for_bit() {
    qcheck("same_seed_replays_bit_for_bit", 12, |g| {
        let seed = g.u64();
        let mk = |seed: u64| {
            let mut inner = Gen::new(seed);
            arbitrary_plan(&mut inner, SimTime::ZERO)
        };
        let (log_a, sums_a, clock_a) = gauntlet(mk(seed));
        let (log_b, sums_b, clock_b) = gauntlet(mk(seed));
        assert_eq!(log_a, log_b, "fault logs must replay identically");
        assert_eq!(sums_a, sums_b, "results must replay identically");
        assert_eq!(clock_a, clock_b, "virtual time must replay identically");
    });
}

/// A run that loses its API proxy at least once and recovers from a
/// committed checkpoint finishes with buffer contents bit-exact to an
/// undisturbed run.
#[test]
fn recovered_run_is_bit_exact() {
    let golden = golden_checksums();
    qcheck("recovered_run_is_bit_exact", 12, |g| {
        let mut cluster = Cluster::with_standard_nodes(1);
        let mut session = launch(&mut cluster);
        session
            .run(&mut cluster, StopCondition::AfterKernel(1))
            .unwrap();
        session
            .checkpoint_with_policy(&mut cluster, "/local/r.ckpt", &CprPolicy::sequential())
            .unwrap();
        let now = cluster.process(session.pid).clock;
        // At least one proxy death due immediately; maybe more later.
        let mut plan = FaultPlan::new(g.u64()).schedule_proxy_death(now);
        for _ in 0..g.usize_in(0, 2) {
            plan = plan.schedule_proxy_death(now + SimDuration::from_millis(g.range(1, 20)));
        }
        cluster.install_faults(plan);
        let vendor = cldriver::vendor::nimbus();
        let report = session
            .run_with_recovery(
                &mut cluster,
                StopCondition::Completion,
                "/local/r.ckpt",
                &vendor,
                8,
            )
            .expect("recovery from a committed checkpoint must succeed");
        assert!(report.respawns >= 1, "the scheduled death must have fired");
        assert_eq!(
            session.program.checksums, golden,
            "recovered contents must match the undisturbed run"
        );
    });
}

// ---------------------------------------------------------------------
// Degraded-host restore: errors, never panics
// ---------------------------------------------------------------------

/// Restarting on a host whose OpenCL installation enumerates no
/// platforms (and hence no devices) is a typed error, not an underflow
/// panic in the object-recreation path.
#[test]
fn restore_on_headless_host_errors() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let mut session = launch(&mut cluster);
    session
        .run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    session
        .checkpoint_with_policy(&mut cluster, "/nfs/h.ckpt", &CprPolicy::sequential())
        .unwrap();
    let peer = cluster.node_ids()[1];
    let err = match checl::restore(
        &mut cluster,
        peer,
        "/nfs/h.ckpt",
        cldriver::vendor::headless(),
        checl::RestoreTarget::default(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("restore on a headless host must fail"),
    };
    match err {
        checl::CheclCprError::NoSuchDevice { available, .. } => assert_eq!(available, 0),
        other => panic!("expected NoSuchDevice, got {other}"),
    }
}

/// Requesting a device type the restore host cannot offer (CPU restore
/// on a GPU-only box) also surfaces as [`NoSuchDevice`].
///
/// [`NoSuchDevice`]: checl::CheclCprError::NoSuchDevice
#[test]
fn restore_with_unavailable_device_type_errors() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let mut session = launch(&mut cluster);
    session
        .run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    session
        .checkpoint_with_policy(&mut cluster, "/nfs/t.ckpt", &CprPolicy::sequential())
        .unwrap();
    let peer = cluster.node_ids()[1];
    let err = match checl::restore(
        &mut cluster,
        peer,
        "/nfs/t.ckpt",
        cldriver::vendor::nimbus(), // GPU-only vendor
        checl::RestoreTarget {
            device_type: Some(clspec::types::DeviceType::Cpu),
        },
    ) {
        Err(e) => e,
        Ok(_) => panic!("CPU restore on a GPU-only host must fail"),
    };
    match err {
        checl::CheclCprError::NoSuchDevice { available, .. } => assert_eq!(available, 0),
        other => panic!("expected NoSuchDevice, got {other}"),
    }
}

/// A restart that fails on a degraded host must not leak a half-born
/// process: the spawned pid is reaped.
#[test]
fn failed_restore_reaps_the_process() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let mut session = launch(&mut cluster);
    session
        .run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    session
        .checkpoint_with_policy(&mut cluster, "/nfs/p.ckpt", &CprPolicy::sequential())
        .unwrap();
    let live = |c: &Cluster| -> Vec<Pid> {
        c.pids()
            .into_iter()
            .filter(|p| c.process(*p).is_alive())
            .collect()
    };
    let before = live(&cluster);
    let peer = cluster.node_ids()[1];
    assert!(checl::restore(
        &mut cluster,
        peer,
        "/nfs/p.ckpt",
        cldriver::vendor::headless(),
        checl::RestoreTarget::default(),
    )
    .is_err());
    assert_eq!(
        live(&cluster),
        before,
        "no live process may remain from the failed restart"
    );
}
