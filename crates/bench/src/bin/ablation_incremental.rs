//! Ablation (§IV-D future work): incremental checkpointing.
//!
//! An iterative BlackScholes run is checkpointed every few kernels,
//! full vs incremental. The incremental variant is the dedup data path
//! (`CprPolicy::pipelined().dedup(true)`): its price/strike/expiry
//! inputs are bound through pointer-to-const parameters, so after the
//! first checkpoint no write touches them and they re-emit their
//! previous chunk maps without a device read, while the rewritten
//! call/put outputs hash to chunks the store already holds. Both the
//! preprocessing phase and the written file shrink — "as a result of
//! reducing the data written to a checkpoint file, the checkpoint time
//! will be significantly shortened" — and every dump stays standalone.

use checl::{CheclConfig, CprPolicy};
use checl_bench::{eval_targets, Cell, FigureWriter, TraceSession, HARNESS_SCALE};
use osproc::Cluster;
use simcore::ByteSize;
use workloads::{workload_by_name, CheclSession, StopCondition};

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    // BlackScholes: three const inputs, two written outputs.
    let w = workload_by_name("oclBlackScholes").unwrap();

    let mut fig = FigureWriter::new("ablation_incremental");
    fig.section(
        "Ablation: full vs incremental (dedup) checkpointing (BlackScholes)",
        &[
            "mode",
            "ckpt#",
            "preproc[s]",
            "write[s]",
            "total[s]",
            "file[MB]",
            "store[MB]",
        ],
    );

    for (mode, policy) in [
        ("full", CprPolicy::sequential()),
        ("dedup", CprPolicy::pipelined().dedup(true)),
    ] {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            (target.vendor)(),
            CheclConfig::default(),
            w.script(&target.cfg(HARNESS_SCALE * 8.0)),
        );
        for i in 0..4u64 {
            s.run(&mut cluster, StopCondition::AfterKernel(2 * (i + 1)))
                .unwrap();
            let path = format!("/local/inc-{mode}-{i}.ckpt");
            let report = s
                .checkpoint_with_policy(&mut cluster, &path, &policy)
                .unwrap()
                .report;
            fig.row(vec![
                mode.into(),
                i.into(),
                Cell::secs(report.preprocess),
                Cell::secs(report.write),
                Cell::secs(report.total()),
                Cell::mib(report.file_size),
                match report.dedup {
                    Some(d) => Cell::mib(ByteSize::bytes(d.stored_bytes)),
                    None => Cell::Na,
                },
            ]);
        }
    }
    fig.note(
        "expectation: dedup checkpoints after the first skip the device read \
         of the three const input buffers (s, x, t) and re-emit their chunk \
         maps; the recomputed call/put outputs dedup against the store, so \
         later files shrink by the whole payload and store appends drop to \
         zero. file[MB] is the dump file; store[MB] is what the checkpoint \
         appended to the shared chunk store (n/a for full dumps).",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
