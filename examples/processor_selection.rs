//! Runtime processor selection (§IV-C): moving a running job between
//! the GPU and the CPU of the *same* machine through the RAM disk.
//!
//! ```text
//! cargo run --example processor_selection
//! ```
//!
//! "CheCL allows an OpenCL process to stop using the GPU at runtime by
//! recreating all OpenCL objects so as to use a CPU as a compute
//! device … use of the RAM disk can significantly reduce the cost of
//! changing the compute device from one to another."

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use clspec::types::DeviceType;
use osproc::Cluster;
use workloads::{workload_by_name, CheclSession, StopCondition, WorkloadCfg};

fn main() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let cfg = WorkloadCfg {
        scale: 1.0 / 4.0,
        ..WorkloadCfg::default()
    };
    let workload = workload_by_name("Stencil2D").unwrap();

    // Start on the Crimson GPU.
    let mut job = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::crimson(),
        CheclConfig::default(),
        workload.script(&cfg),
    );
    job.run(&mut cluster, StopCondition::AfterKernel(4))
        .unwrap();
    println!(
        "phase 1: {} kernels on the GPU",
        job.program.kernels_launched
    );

    // The GPU is wanted by a higher-priority job: fall back to the CPU
    // via a RAM-disk checkpoint.
    let (mut job, to_cpu) = job
        .migrate_with_policy(
            &mut cluster,
            node,
            cldriver::vendor::crimson(),
            "/ram/switch1.ckpt",
            RestoreTarget {
                device_type: Some(DeviceType::Cpu),
            },
            &CprPolicy::sequential(),
        )
        .unwrap();
    println!(
        "switched GPU→CPU in {} (file {}, RAM disk)",
        to_cpu.actual, to_cpu.checkpoint.file_size
    );

    job.run(&mut cluster, StopCondition::AfterKernel(8))
        .unwrap();
    println!(
        "phase 2: {} kernels total, now on the CPU",
        job.program.kernels_launched
    );

    // GPU freed up again: switch back.
    let (mut job, to_gpu) = job
        .migrate_with_policy(
            &mut cluster,
            node,
            cldriver::vendor::crimson(),
            "/ram/switch2.ckpt",
            RestoreTarget {
                device_type: Some(DeviceType::Gpu),
            },
            &CprPolicy::sequential(),
        )
        .unwrap();
    println!("switched CPU→GPU in {}", to_gpu.actual);

    job.run(&mut cluster, StopCondition::Completion).unwrap();
    println!(
        "phase 3: finished on the GPU with checksums {:x?}",
        job.program.checksums
    );

    // Show why the RAM disk matters: predict the same switch via disk.
    let via_disk = checl::predict_migration_time(
        &job.lib,
        &cldriver::vendor::crimson(),
        osproc::FsKind::LocalDisk,
        to_cpu.checkpoint.file_size,
    );
    println!(
        "\nswitch cost via RAM disk: {} — via hard disk it would be ≈ {}",
        to_cpu.actual, via_disk
    );
}
