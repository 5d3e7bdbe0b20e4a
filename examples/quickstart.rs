//! Quickstart: transparently checkpoint and restart an OpenCL
//! application.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The "application" is ordinary OpenCL host code (vector addition).
//! It is launched twice — once linked against the native vendor
//! library and once against CheCL — and produces identical results.
//! The CheCL run is then checkpointed mid-flight, its processes are
//! killed, and it resumes from the checkpoint file on the same node,
//! finishing with the same checksums.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use clspec::api::ClApi;
use osproc::Cluster;
use workloads::{workload_by_name, CheclSession, NativeSession, StopCondition, WorkloadCfg};

fn main() {
    // A two-node cluster, each with /local, /ram and a shared /nfs.
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let cfg = WorkloadCfg {
        scale: 1.0 / 8.0,
        ..WorkloadCfg::default()
    };
    let workload = workload_by_name("oclVectorAdd").expect("catalog entry");

    // --- 1. Run natively -------------------------------------------------
    let mut native = NativeSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        workload.script(&cfg),
    );
    native.run(&mut cluster, StopCondition::Completion).unwrap();
    println!(
        "native   [{}]: {} (checksums {:x?})",
        native.driver.impl_name(),
        native.elapsed(&cluster),
        native.program.checksums,
    );
    let golden = native.program.checksums.clone();

    // A native OpenCL process cannot be checkpointed: the driver mapped
    // device regions into its address space.
    match blcr::checkpoint(&mut cluster, native.pid, "/local/native.ckpt") {
        Err(e) => println!("plain BLCR on the native process fails:   {e}"),
        Ok(_) => unreachable!("BLCR must refuse device-mapped processes"),
    }

    // --- 2. Same unmodified program under CheCL --------------------------
    let mut session = CheclSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        workload.script(&cfg),
    );
    // Pause with the kernel still in flight...
    session
        .run(&mut cluster, StopCondition::AfterKernel(1))
        .unwrap();
    // ...and checkpoint. The application process is clean; only the API
    // proxy holds GPU state, and CheCL knows how to rebuild it.
    let report = session
        .checkpoint_with_policy(
            &mut cluster,
            "/nfs/quickstart.ckpt",
            &CprPolicy::sequential(),
        )
        .unwrap()
        .report;
    println!(
        "checkpoint: sync {} + preprocess {} + write {} + postprocess {} = {} ({} file)",
        report.sync,
        report.preprocess,
        report.write,
        report.postprocess,
        report.total(),
        report.file_size,
    );

    // Simulate a crash: application and proxy die, GPU state is lost.
    session.kill(&mut cluster);

    // --- 3. Restart on the *other* node ----------------------------------
    let mut resumed = CheclSession::restart(
        &mut cluster,
        nodes[1],
        "/nfs/quickstart.ckpt",
        cldriver::vendor::nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    resumed
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    println!(
        "restarted [{}] on {:?}: checksums {:x?}",
        resumed.lib.impl_name(),
        cluster.process(resumed.pid).node,
        resumed.program.checksums,
    );

    assert_eq!(resumed.program.checksums, golden);
    println!("✓ results identical to the uninterrupted native run");
}
