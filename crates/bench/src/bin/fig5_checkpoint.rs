//! Regenerates Fig. 5: timing overheads for synchronizing,
//! preprocessing, writing and postprocessing, plus checkpoint file
//! sizes.
//!
//! Protocol per the paper: each kernel-executing benchmark is run until
//! a kernel is in flight, then checkpointed once to the local disk.
//! Benchmarks with no kernel (oclBandwidthTest, BusSpeed*,
//! KernelCompile) are excluded, as in the paper.

use checl::CprPolicy;
use checl_bench::{
    eval_targets, session_at_last_kernel, Cell, FigureWriter, TraceSession, HARNESS_SCALE,
};
use workloads::all_workloads;

fn main() {
    let trace = TraceSession::from_args();
    let mut fig = FigureWriter::new("fig5_checkpoint");
    for target in eval_targets() {
        fig.section(
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
        let mut pairs: Vec<(f64, f64)> = Vec::new(); // (file MB, total s)
        for w in all_workloads() {
            if w.script(&target.cfg(HARNESS_SCALE)).kernel_launches() == 0 {
                continue;
            }
            let Ok((mut cluster, mut session)) = session_at_last_kernel(&w, &target, HARNESS_SCALE)
            else {
                fig.row(vec![
                    w.name.into(),
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                    Cell::Na,
                ]);
                continue;
            };
            let report = session
                .checkpoint_with_policy(&mut cluster, "/local/fig5.ckpt", &CprPolicy::sequential())
                .expect("checkpoint failed")
                .report;
            fig.row(vec![
                w.name.into(),
                Cell::secs(report.sync),
                Cell::secs(report.preprocess),
                Cell::secs(report.write),
                Cell::secs(report.postprocess),
                Cell::secs(report.total()),
                Cell::mib(report.file_size),
            ]);
            pairs.push((report.file_size.as_mib_f64(), report.total().as_secs_f64()));
        }
        fig.note(correlation_line(&pairs));
    }
    fig.note(
        "paper reference: writing dominates; total checkpoint time strongly \
         correlated with file size (r = 0.99); postprocessing negligible",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
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
