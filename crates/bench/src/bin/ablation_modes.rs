//! Ablation (§III-C / §IV-B): delayed vs immediate checkpointing mode.
//!
//! A long pipeline of MaxFlops kernels is in flight when the
//! checkpoint signal arrives. Immediate mode synchronizes right away
//! and eats the wait; delayed mode postpones to the application's next
//! `clFinish`, so the synchronization phase of the checkpoint itself is
//! nearly free.

use checl::{CheclConfig, CprPolicy};
use checl_bench::{eval_targets, Cell, FigureWriter, TraceSession, HARNESS_SCALE};
use osproc::Cluster;
use workloads::{workload_by_name, CheclSession, StopCondition};

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    let w = workload_by_name("MaxFlops").unwrap();

    let mut fig = FigureWriter::new("ablation_modes");
    fig.section(
        "Ablation: delayed vs immediate checkpointing (MaxFlops)",
        &[
            "mode",
            "sync[s]",
            "preproc[s]",
            "write[s]",
            "total[s]",
            "kernels in flight",
        ],
    );

    for (mode, kernels_before_ckpt, drain_first) in
        [("immediate", 8u64, false), ("delayed", 8u64, true)]
    {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            (target.vendor)(),
            CheclConfig::default(),
            w.script(&target.cfg(HARNESS_SCALE)),
        );
        s.run(
            &mut cluster,
            StopCondition::AfterKernel(kernels_before_ckpt),
        )
        .unwrap();
        if drain_first {
            // Delayed mode: the signal is held until the app reaches
            // its own clFinish — model by draining before checkpoint.
            s.drain(&mut cluster);
        }
        let report = s
            .checkpoint_with_policy(&mut cluster, "/local/modes.ckpt", &CprPolicy::sequential())
            .unwrap()
            .report;
        fig.row(vec![
            mode.into(),
            Cell::secs(report.sync),
            Cell::secs(report.preprocess),
            Cell::secs(report.write),
            Cell::secs(report.total()),
            if drain_first {
                0u64.into()
            } else {
                kernels_before_ckpt.into()
            },
        ]);
    }
    fig.note(
        "expectation: the sync phase collapses in delayed mode; the other \
         phases are unchanged (the synchronization wait moves into the \
         application's own execution instead of the checkpoint)",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
