//! A dynamic job scheduler for a heterogeneous GPU cluster, built on
//! CheCL migration and the `Tm = αM + Tr + β` cost model (§IV-C).
//!
//! ```text
//! cargo run --example scheduler
//! ```
//!
//! Node 0 has a fast NVIDIA-like GPU, node 1 a slower (for this
//! compute-bound job mix) CPU-class device. Jobs arrive over time; when
//! a high-priority job claims the fast GPU, the scheduler decides —
//! using the migration-cost model — whether evicting and migrating the
//! running job pays off, exactly the policy loop the paper proposes
//! CheCL as an infrastructure for.

use checl::{CheclConfig, CprPolicy, MigrationModel, RestoreTarget};
use clspec::api::ClApi;
use osproc::{Cluster, FsKind};
use simcore::SimDuration;
use workloads::{workload_by_name, CheclSession, StopCondition, WorkloadCfg};

fn main() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let cfg = WorkloadCfg {
        scale: 2.0,
        ..WorkloadCfg::default()
    };

    // A long-running matrix job occupies the fast GPU on node 0.
    let batch = workload_by_name("oclMatrixMul").unwrap();
    let mut batch_job = CheclSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        batch.script(&cfg),
    );
    batch_job
        .run(&mut cluster, StopCondition::AfterKernel(12))
        .unwrap();
    println!(
        "batch job on node0/{}: {} of {} kernels done",
        batch_job.lib.impl_name(),
        batch_job.program.kernels_launched,
        batch_job.program.script.kernel_launches(),
    );

    // An urgent job arrives and wants node 0's GPU. The batch job must
    // vacate either way; drain its queue first so the clock reflects
    // the work already banked on the device.
    batch_job.drain(&mut cluster);

    // Should the batch job be migrated to node 1 (Crimson), or killed
    // and re-run from scratch later?
    let file_estimate = simcore::calib::base_process_image() + simcore::ByteSize::mib(3); // its buffers
    let tr = checl::migrate::estimate_recompile_time(&batch_job.lib, &cldriver::vendor::crimson());
    let model = MigrationModel::for_medium(FsKind::Nfs);
    let migration_cost = model.predict(file_estimate, tr);
    // Restarting from scratch forfeits the finished work: estimate it
    // as the virtual time already spent computing.
    let rerun_cost = batch_job.elapsed(&cluster);
    println!("decision inputs:");
    println!("  predicted migration cost (NFS): {migration_cost}");
    println!("  cost of killing + re-running  : {rerun_cost}");

    let migrate = migration_cost < rerun_cost + SimDuration::from_millis(500);
    assert!(migrate, "with these sizes migration should win");
    println!("→ scheduler migrates the batch job to node1\n");

    let (mut batch_job, report) = batch_job
        .migrate_with_policy(
            &mut cluster,
            nodes[1],
            cldriver::vendor::crimson(),
            "/nfs/sched.ckpt",
            RestoreTarget::default(),
            &CprPolicy::sequential(),
        )
        .unwrap();
    println!(
        "migration done: actual {} vs predicted {} ({}% error)",
        report.actual,
        report.predicted,
        ((report.predicted.as_secs_f64() - report.actual.as_secs_f64()).abs()
            / report.actual.as_secs_f64()
            * 100.0)
            .round(),
    );

    // The urgent job gets the freed GPU.
    let urgent = workload_by_name("mri-q_small").unwrap();
    let mut urgent_job = CheclSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        urgent.script(&cfg),
    );
    urgent_job
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    println!(
        "urgent job finished on node0 in {}",
        urgent_job.elapsed(&cluster)
    );

    // Meanwhile the batch job completes on node 1.
    batch_job
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    println!(
        "batch job finished on node1 [{}] with checksums {:x?}",
        batch_job.lib.impl_name(),
        batch_job.program.checksums
    );
    println!("✓ both jobs completed; no work was lost");
}
