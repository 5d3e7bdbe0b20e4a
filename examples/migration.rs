//! Cross-node, cross-vendor process migration (§IV-C).
//!
//! ```text
//! cargo run --example migration
//! ```
//!
//! A Black-Scholes pricing job starts on a node with an NVIDIA-like
//! GPU, is migrated mid-run through the shared NFS mount to a node with
//! an AMD-like GPU, and finishes there — same results, different
//! vendor. The migration-cost model `Tm = αM + Tr + β` is evaluated
//! against the measured cost.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use clspec::api::ClApi;
use osproc::Cluster;
use workloads::{workload_by_name, CheclSession, NativeSession, StopCondition, WorkloadCfg};

fn main() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let cfg = WorkloadCfg {
        scale: 1.0 / 4.0,
        ..WorkloadCfg::default()
    };
    let workload = workload_by_name("oclBlackScholes").unwrap();

    // Golden result from an uninterrupted native run.
    let mut golden = NativeSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        workload.script(&cfg),
    );
    golden.run(&mut cluster, StopCondition::Completion).unwrap();

    // Start the job under CheCL on the Nimbus node.
    let mut job = CheclSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        workload.script(&cfg),
    );
    job.run(&mut cluster, StopCondition::AfterKernel(2))
        .unwrap();
    println!(
        "job running on node0 [{}], {} kernels done",
        job.lib.impl_name(),
        job.program.kernels_launched
    );

    // Migrate to the Crimson node through NFS.
    let (mut job, report) = job
        .migrate_with_policy(
            &mut cluster,
            nodes[1],
            cldriver::vendor::crimson(),
            "/nfs/migration.ckpt",
            RestoreTarget::default(),
            &CprPolicy::sequential(),
        )
        .unwrap();
    println!("migrated to node1 [{}]", job.lib.impl_name());
    println!("  checkpoint file : {}", report.checkpoint.file_size);
    println!("  actual cost     : {}", report.actual);
    println!("  model Tm=αM+Tr+β: {}", report.predicted);
    println!("  restore breakdown:");
    for (kind, d) in &report.restore.per_kind {
        println!(
            "    {:<10} {:>12}  (x{})",
            kind.short_name(),
            d.to_string(),
            report.restore.counts[kind]
        );
    }

    // Finish on the new vendor and verify.
    job.run(&mut cluster, StopCondition::Completion).unwrap();
    assert_eq!(job.program.checksums, golden.program.checksums);
    println!("✓ results after cross-vendor migration match the native run");
}
