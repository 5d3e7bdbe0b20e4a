//! Ablation (§IV-C): runtime processor selection — moving a running
//! process between the Crimson GPU and CPU devices, comparing the cost
//! of doing so through the RAM disk, the local disk, and NFS.
//!
//! "use of the RAM disk can significantly reduce the cost of changing
//! the compute device from one to another."

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_bench::{eval_targets, Cell, FigureWriter, TraceSession, HARNESS_SCALE};
use clspec::types::DeviceType;
use osproc::Cluster;
use workloads::{workload_by_name, CheclSession, StopCondition};

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[1]; // Crimson GPU as the starting point
    let w = workload_by_name("SGEMM").unwrap();

    let mut fig = FigureWriter::new("ablation_procsel");
    fig.section(
        "Ablation: runtime processor selection GPU→CPU (SGEMM)",
        &["medium", "switch [s]", "predicted [s]", "file [MB]"],
    );

    for (label, path) in [
        ("RAM disk", "/ram/procsel.ckpt"),
        ("local disk", "/local/procsel.ckpt"),
        ("NFS", "/nfs/procsel.ckpt"),
    ] {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            (target.vendor)(),
            CheclConfig::default(),
            w.script(&target.cfg(HARNESS_SCALE)),
        );
        s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
        let (mut resumed, report) = s
            .migrate_with_policy(
                &mut cluster,
                node, // same machine: only the device changes
                (target.vendor)(),
                path,
                RestoreTarget {
                    device_type: Some(DeviceType::Cpu),
                },
                &CprPolicy::sequential(),
            )
            .expect("processor switch failed");
        // Prove the app now really runs on the CPU and still finishes.
        resumed
            .run(&mut cluster, StopCondition::Completion)
            .unwrap();
        fig.row(vec![
            label.into(),
            Cell::secs(report.actual),
            Cell::secs(report.predicted),
            Cell::mib(report.checkpoint.file_size),
        ]);
    }
    fig.note(
        "expectation: the RAM disk switch is far cheaper than disk/NFS — \
         the enabler for aggressive runtime processor selection",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
