//! MPI molecular dynamics with coordinated CheCL checkpointing
//! (§IV-B, Fig. 6).
//!
//! ```text
//! cargo run --example mpi_md
//! ```
//!
//! Four MPI ranks spread over two nodes each run an MD force
//! computation on the GPU through CheCL. After a synchronised step, a
//! coordinated checkpoint aggregates per-rank local snapshots into a
//! global snapshot on the shared NFS mount. One rank is then killed and
//! recovered from its snapshot, and the job completes with the same
//! per-rank results.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use mpisim::{coordinated_checkpoint, MpiWorld};
use osproc::Cluster;
use simcore::ByteSize;
use workloads::{workload_by_name, CheclSession, StopCondition, WorkloadCfg};

fn main() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let world = MpiWorld::init(&mut cluster, &nodes, 4);
    let md = workload_by_name("MD").unwrap();
    let cfg = WorkloadCfg {
        scale: 2.0,
        ..WorkloadCfg::default()
    };

    // Each rank runs its share of the MD system under CheCL.
    let mut sessions: Vec<CheclSession> = (0..world.size())
        .map(|rank| {
            CheclSession::attach(
                &mut cluster,
                world.rank_pid(rank),
                cldriver::vendor::nimbus(),
                CheclConfig::default(),
                md.script(&cfg),
            )
        })
        .collect();

    // Step the simulation, then exchange halo data and synchronize.
    for s in &mut sessions {
        s.run(&mut cluster, StopCondition::AfterKernel(2)).unwrap();
        s.persist_program(&mut cluster);
    }
    world.allreduce(&mut cluster, ByteSize::kib(64));
    println!("4 ranks stepped and synchronized");

    // Coordinated global snapshot on NFS.
    let mut libs: Vec<_> = sessions.iter_mut().map(|s| &mut s.lib).collect();
    let mut idx = 0;
    let snapshot =
        coordinated_checkpoint(&mut cluster, &world, "/nfs/md-global", |c, pid, path| {
            let lib = &mut libs[idx];
            idx += 1;
            checl::snapshot(lib, c, pid, path, &CprPolicy::sequential()).map(|o| o.report.file_size)
        })
        .unwrap();
    println!(
        "global snapshot: {} across {} ranks in {}",
        snapshot.total_size(),
        snapshot.sizes.len(),
        snapshot.elapsed
    );

    // Rank 2's node hiccups: kill and recover it from the snapshot.
    let victim = 2;
    let dead = sessions.remove(victim);
    dead.kill(&mut cluster);
    let recovered = CheclSession::restart(
        &mut cluster,
        nodes[0],
        &snapshot.files[victim],
        cldriver::vendor::nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    sessions.insert(victim, recovered);
    println!("rank {victim} recovered from {}", snapshot.files[victim]);

    // Everyone finishes; all ranks computed the same MD system, so all
    // checksum logs agree.
    for (rank, s) in sessions.iter_mut().enumerate() {
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        println!("rank {rank}: checksums {:x?}", s.program.checksums);
    }
    let first = sessions[0].program.checksums.clone();
    for s in &sessions {
        assert_eq!(s.program.checksums, first);
    }
    println!("✓ all ranks agree, including the recovered one");
}
