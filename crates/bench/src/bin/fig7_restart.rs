//! Regenerates Fig. 7: timing results for re-creating OpenCL objects
//! on restart, broken down by object kind (platform / device / context
//! / cmd_que / mem / sampler / prog / kernel / event).
//!
//! Each benchmark is checkpointed mid-run, its processes are killed,
//! and the application is restarted on the same node; the restore
//! engine reports how long each object class took to re-create.

use checl::{CprPolicy, RestoreTarget};
use checl_bench::{
    eval_targets, session_at_last_kernel, Cell, FigureWriter, TraceSession, HARNESS_SCALE,
};
use clspec::handles::HandleKind;
use workloads::all_workloads;

fn main() {
    let trace = TraceSession::from_args();
    let mut fig = FigureWriter::new("fig7_restart");
    for target in eval_targets() {
        let mut cols = vec!["benchmark"];
        cols.extend(HandleKind::RESTORE_ORDER.iter().map(|k| k.short_name()));
        cols.push("total[s]");
        fig.section(
            &format!(
                "Fig. 7: Object recreation time on restart — {}",
                target.label
            ),
            &cols,
        );

        for w in all_workloads() {
            if w.script(&target.cfg(HARNESS_SCALE)).kernel_launches() == 0 {
                continue;
            }
            let Ok((mut cluster, mut session)) = session_at_last_kernel(&w, &target, HARNESS_SCALE)
            else {
                fig.row(
                    std::iter::once(Cell::from(w.name))
                        .chain((0..cols.len() - 1).map(|_| Cell::Na))
                        .collect(),
                );
                continue;
            };
            session
                .checkpoint_with_policy(&mut cluster, "/local/fig7.ckpt", &CprPolicy::sequential())
                .expect("checkpoint failed");
            let node = cluster.process(session.pid).node;
            session.kill(&mut cluster);
            let (_lib, _pid, report) = checl::restore(
                &mut cluster,
                node,
                "/local/fig7.ckpt",
                (target.vendor)(),
                RestoreTarget::default(),
            )
            .expect("restart failed");

            let mut row: Vec<Cell> = vec![w.name.into()];
            for kind in HandleKind::RESTORE_ORDER {
                let d = report
                    .per_kind
                    .get(&kind)
                    .copied()
                    .unwrap_or(simcore::SimDuration::ZERO);
                row.push(Cell::secs(d));
            }
            row.push(Cell::secs(report.total()));
            fig.row(row);
        }
    }
    fig.note(
        "paper reference: mem (data upload) and prog (recompilation) dominate; \
         Crimson/AMD recompiles slower than Nimbus/NVIDIA; S3D with its 27 \
         program objects is the recompilation outlier",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
