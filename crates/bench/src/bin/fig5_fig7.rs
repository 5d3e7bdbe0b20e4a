//! Regenerates Fig. 5 and Fig. 7 from one pass over the programs.
//!
//! Fig. 5: timing overheads for synchronizing, preprocessing, writing
//! and postprocessing, plus checkpoint file sizes. Fig. 7: timing
//! results for re-creating OpenCL objects on restart, broken down by
//! object kind (platform / device / context / cmd_que / mem / sampler /
//! prog / kernel / event).
//!
//! Protocol per the paper, shared by both figures: each
//! kernel-executing benchmark is run until its last kernel is in
//! flight, then checkpointed once to the local disk (the Fig. 5 row);
//! its processes are killed and the application is restarted on the
//! same node from that file, the restore engine reporting how long each
//! object class took to re-create (the Fig. 7 row). Benchmarks with no
//! kernel (oclBandwidthTest, BusSpeed*, KernelCompile) are excluded, as
//! in the paper.

use checl::{CprPolicy, RestoreTarget};
use checl_bench::{
    eval_targets, session_at_last_kernel, Cell, FigureWriter, TraceSession, HARNESS_SCALE,
};
use clspec::handles::HandleKind;
use workloads::all_workloads;

fn main() {
    let trace = TraceSession::from_args();
    let mut fig5 = FigureWriter::new("fig5_checkpoint");
    let mut fig7 = FigureWriter::new("fig7_restart");
    let mut fig7_cols = vec!["benchmark"];
    fig7_cols.extend(HandleKind::RESTORE_ORDER.iter().map(|k| k.short_name()));
    fig7_cols.push("total[s]");
    for target in eval_targets() {
        fig5.section(
            &format!("Fig. 5: Checkpoint overheads — {}", target.label),
            &[
                "benchmark",
                "sync[s]",
                "preproc[s]",
                "write[s]",
                "postproc[s]",
                "total[s]",
                "file[MB]",
            ],
        );
        fig7.section(
            &format!(
                "Fig. 7: Object recreation time on restart — {}",
                target.label
            ),
            &fig7_cols,
        );
        let mut pairs: Vec<(f64, f64)> = Vec::new(); // (file MB, total s)
        for w in all_workloads() {
            if w.script(&target.cfg(HARNESS_SCALE)).kernel_launches() == 0 {
                continue;
            }
            let Ok((mut cluster, mut session)) = session_at_last_kernel(&w, &target, HARNESS_SCALE)
            else {
                fig5.row(std::iter::once(w.name.into()).chain(na(6)).collect());
                fig7.row(
                    std::iter::once(w.name.into())
                        .chain(na(fig7_cols.len() - 1))
                        .collect(),
                );
                continue;
            };
            let ckpt = session
                .checkpoint_with_policy(&mut cluster, "/local/fig5.ckpt", &CprPolicy::sequential())
                .expect("checkpoint failed")
                .report;
            fig5.row(vec![
                w.name.into(),
                Cell::secs(ckpt.sync),
                Cell::secs(ckpt.preprocess),
                Cell::secs(ckpt.write),
                Cell::secs(ckpt.postprocess),
                Cell::secs(ckpt.total()),
                Cell::mib(ckpt.file_size),
            ]);
            pairs.push((ckpt.file_size.as_mib_f64(), ckpt.total().as_secs_f64()));

            let node = cluster.process(session.pid).node;
            session.kill(&mut cluster);
            let (_lib, _pid, restore) = checl::restore(
                &mut cluster,
                node,
                "/local/fig5.ckpt",
                (target.vendor)(),
                RestoreTarget::default(),
            )
            .expect("restart failed");
            let mut row: Vec<Cell> = vec![w.name.into()];
            for kind in HandleKind::RESTORE_ORDER {
                let d = restore
                    .per_kind
                    .get(&kind)
                    .copied()
                    .unwrap_or(simcore::SimDuration::ZERO);
                row.push(Cell::secs(d));
            }
            row.push(Cell::secs(restore.total()));
            fig7.row(row);
        }
        fig5.note(correlation_line(&pairs));
    }
    fig5.note(
        "paper reference: writing dominates; total checkpoint time strongly \
         correlated with file size (r = 0.99); postprocessing negligible",
    );
    fig7.note(
        "paper reference: mem (data upload) and prog (recompilation) dominate; \
         Crimson/AMD recompiles slower than Nimbus/NVIDIA; S3D with its 27 \
         program objects is the recompilation outlier",
    );
    fig5.finish().unwrap();
    fig7.finish().unwrap();
    trace.finish().unwrap();
}

/// `n` not-applicable cells: the rest of a non-portable program's row.
fn na(n: usize) -> impl Iterator<Item = Cell> {
    std::iter::repeat_with(|| Cell::Na).take(n)
}

/// Pearson correlation between file size and total checkpoint time.
fn correlation_line(pairs: &[(f64, f64)]) -> String {
    let n = pairs.len() as f64;
    let (mx, my) = (
        pairs.iter().map(|p| p.0).sum::<f64>() / n,
        pairs.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let cov: f64 = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = pairs.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vy: f64 = pairs.iter().map(|p| (p.1 - my).powi(2)).sum();
    let r = cov / (vx.sqrt() * vy.sqrt());
    format!("correlation(file size, total checkpoint time) = {r:.3}")
}
