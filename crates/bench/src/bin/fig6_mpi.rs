//! Regenerates Fig. 6: checkpoint time of the MPI-version MD program,
//! varying problem size and the number of computing nodes.
//!
//! Each rank is a CheCL application running the MD workload on its
//! node's GPU; a coordinated checkpoint aggregates the per-rank local
//! snapshots into a global snapshot on the shared NFS mount (Hursey et
//! al.), whose single server serializes the writes.

use checl::{CheclConfig, CprPolicy};
use checl_bench::{eval_targets, Cell, FigureWriter, TraceSession};
use mpisim::{coordinated_checkpoint, MpiWorld};
use osproc::Cluster;
use workloads::{workload_by_name, CheclSession, StopCondition};

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0]; // NVIDIA nodes, as in the paper
    let md = workload_by_name("MD").unwrap();

    let mut fig = FigureWriter::new("fig6_mpi");
    fig.section(
        "Fig. 6: Checkpoint Time for MPI Application (MD)",
        &["problem", "nodes", "global ckpt [s]", "snapshot [MB]"],
    );

    for &scale in &[0.25f64, 0.5, 1.0, 2.0] {
        for &n_nodes in &[1usize, 2, 4] {
            let mut cluster = Cluster::with_standard_nodes(n_nodes);
            let nodes = cluster.node_ids();
            let world = MpiWorld::init(&mut cluster, &nodes, n_nodes);

            // Each rank runs MD on its share of the problem.
            // Per-rank MD problem: tens of MB of particle state, as in
            // the paper's MPI evaluation.
            let cfg = target.cfg(scale * 32.0);
            let mut sessions: Vec<CheclSession> = (0..world.size())
                .map(|rank| {
                    CheclSession::attach(
                        &mut cluster,
                        world.rank_pid(rank),
                        (target.vendor)(),
                        CheclConfig::default(),
                        md.script(&cfg),
                    )
                })
                .collect();
            for s in &mut sessions {
                s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
                s.persist_program(&mut cluster);
            }

            // Coordinated global snapshot: rank i's closure checkpoints
            // its own CheCL state.
            let mut libs: Vec<_> = sessions.iter_mut().map(|s| &mut s.lib).collect();
            let mut idx = 0;
            let snapshot = coordinated_checkpoint(
                &mut cluster,
                &world,
                &format!("/nfs/md-s{scale}-n{n_nodes}"),
                |cluster, pid, path| {
                    let lib = &mut libs[idx];
                    idx += 1;
                    checl::snapshot(lib, cluster, pid, path, &CprPolicy::sequential())
                        .map(|o| o.report.file_size)
                },
            )
            .expect("coordinated checkpoint failed");

            fig.row(vec![
                format!("{scale:.2}x").into(),
                n_nodes.into(),
                Cell::secs(snapshot.elapsed),
                Cell::mib(snapshot.total_size()),
            ]);
        }
    }
    fig.note(
        "paper reference: checkpoint time increases with the problem size \
         (file size ∝ memory usage) and with the number of nodes \
         (local snapshots aggregated into one NFS global snapshot)",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
