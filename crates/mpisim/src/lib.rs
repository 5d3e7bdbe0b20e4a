//! `mpisim` — MPI-like ranks and coordinated global snapshots.
//!
//! The paper demonstrates CheCL on MPI programs (Open MPI + the Hursey
//! et al. coordinated checkpointing: "the checkpoint files of
//! individual computing nodes, called local snapshots, are aggregated
//! into a global snapshot, and stored in an NFS file. Therefore, the
//! checkpoint time also increases with the number of nodes", §IV-B /
//! Fig. 6). This crate provides exactly that substrate:
//!
//! * [`MpiWorld`] — a set of rank processes spread over cluster nodes,
//!   with barrier/allreduce collectives that advance the ranks'
//!   virtual clocks through a gigabit-Ethernet cost model;
//! * [`coordinated_checkpoint`] — barrier, then per-rank local
//!   snapshots serialized onto the shared NFS server (one writer at a
//!   time — the contention that makes global snapshot time grow with
//!   rank count).
//!
//! The checkpoint mechanism itself is injected as a closure, so the
//! same machinery snapshots plain CPU ranks via `blcr` and CheCL ranks
//! via `checl` without a dependency cycle.

use osproc::{Cluster, NodeId, Pid};
use simcore::{calib, obs, telemetry, ByteSize, SimDuration, SimTime};

/// A communicator: rank index → process.
#[derive(Clone, Debug)]
pub struct MpiWorld {
    ranks: Vec<Pid>,
}

impl MpiWorld {
    /// Launch `n_ranks` processes round-robin across `nodes`
    /// (`mpirun -np n`).
    pub fn init(cluster: &mut Cluster, nodes: &[NodeId], n_ranks: usize) -> MpiWorld {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(n_ranks > 0, "need at least one rank");
        let ranks: Vec<Pid> = (0..n_ranks)
            .map(|i| cluster.spawn(nodes[i % nodes.len()]))
            .collect();
        if telemetry::enabled() {
            for (i, &p) in ranks.iter().enumerate() {
                telemetry::name_process(p.0 as u64, &format!("rank {i} ({p})"));
            }
        }
        MpiWorld { ranks }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The process behind a rank.
    pub fn rank_pid(&self, rank: usize) -> Pid {
        self.ranks[rank]
    }

    /// All rank pids in rank order.
    pub fn pids(&self) -> &[Pid] {
        &self.ranks
    }

    /// Replace a rank's process (after restart/migration).
    pub fn replace_rank(&mut self, rank: usize, pid: Pid) {
        self.ranks[rank] = pid;
    }

    /// The latest clock among all ranks.
    pub fn max_clock(&self, cluster: &Cluster) -> SimTime {
        self.ranks
            .iter()
            .map(|&p| cluster.process(p).clock)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// `MPI_Barrier`: all ranks synchronize to the slowest, paying a
    /// log₂(n)-deep exchange over the interconnect.
    pub fn barrier(&self, cluster: &mut Cluster) {
        let rounds = (self.size().max(2) as f64).log2().ceil() as u64;
        let cost = calib::gige_link().cost_empty() * rounds;
        let target = self.max_clock(cluster) + cost;
        self.collective(cluster, "mpi.barrier", target, None);
    }

    /// `MPI_Allreduce` on `bytes` of payload: a barrier-equivalent
    /// exchange that also moves data every round.
    pub fn allreduce(&self, cluster: &mut Cluster, bytes: ByteSize) {
        let rounds = (self.size().max(2) as f64).log2().ceil() as u64;
        let per_round = calib::gige_link().cost(bytes);
        let target = self.max_clock(cluster) + per_round * rounds;
        self.collective(cluster, "mpi.allreduce", target, Some(bytes));
    }

    /// Advance every rank to `target`, tracing one wait span per rank
    /// (ranks that arrived early show longer waits on their timeline).
    fn collective(
        &self,
        cluster: &mut Cluster,
        name: &'static str,
        target: SimTime,
        bytes: Option<ByteSize>,
    ) {
        let trace = telemetry::enabled();
        for &p in &self.ranks {
            let arrived = cluster.process(p).clock;
            cluster.process_mut(p).clock = target;
            if trace {
                let _rank = telemetry::track_scope(telemetry::Track::process(p.0 as u64));
                let mut args = vec![("ranks", (self.size() as u64).into())];
                if let Some(b) = bytes {
                    args.push(("bytes", b.as_u64().into()));
                }
                telemetry::span_begin("mpi", name, arrived, args);
                telemetry::span_end(
                    "mpi",
                    name,
                    target,
                    vec![("wait_ns", target.since(arrived).into())],
                );
            }
        }
        if trace {
            telemetry::counter_add("mpi.collectives", 1);
        }
    }

    /// Point-to-point send: advances both clocks past the transfer.
    pub fn send(&self, cluster: &mut Cluster, from: usize, to: usize, bytes: ByteSize) {
        let cost = calib::gige_link().cost(bytes);
        let sender = self.ranks[from];
        let receiver = self.ranks[to];
        let depart = cluster.process(sender).clock + cost;
        cluster.process_mut(sender).clock = depart;
        let r = cluster.process_mut(receiver);
        r.clock = r.clock.max(depart);
        if telemetry::enabled() {
            let arrive = cluster.process(receiver).clock;
            {
                let _s = telemetry::track_scope(telemetry::Track::process(sender.0 as u64));
                telemetry::instant(
                    "mpi",
                    "mpi.send",
                    depart,
                    vec![("to", (to as u64).into()), ("bytes", bytes.as_u64().into())],
                );
            }
            {
                let _r = telemetry::track_scope(telemetry::Track::process(receiver.0 as u64));
                telemetry::instant(
                    "mpi",
                    "mpi.recv",
                    arrive,
                    vec![
                        ("from", (from as u64).into()),
                        ("bytes", bytes.as_u64().into()),
                    ],
                );
            }
            telemetry::counter_add("mpi.messages", 1);
            telemetry::counter_add("mpi.bytes", bytes.as_u64());
        }
    }
}

/// The result of one coordinated (global) checkpoint.
#[derive(Clone, Debug)]
pub struct GlobalSnapshot {
    /// Per-rank snapshot file paths (on the shared mount).
    pub files: Vec<String>,
    /// Per-rank snapshot sizes.
    pub sizes: Vec<ByteSize>,
    /// Wall time from the coordination barrier to the last local
    /// snapshot landing in the global store.
    pub elapsed: SimDuration,
}

impl GlobalSnapshot {
    /// Total global snapshot size.
    pub fn total_size(&self) -> ByteSize {
        self.sizes.iter().copied().sum()
    }
}

/// Coordinated checkpointing (Hursey et al.): barrier all ranks, then
/// write each rank's local snapshot into the shared store under
/// `prefix`. The shared NFS server admits one snapshot writer at a
/// time, so elapsed time grows with both snapshot size *and* rank
/// count — the two trends of Fig. 6.
///
/// `ckpt_rank(cluster, pid, path)` performs one rank's snapshot and
/// returns its file size; it is `blcr::checkpoint` for plain ranks or
/// a `checl` checkpoint for OpenCL ranks.
pub fn coordinated_checkpoint<E>(
    cluster: &mut Cluster,
    world: &MpiWorld,
    prefix: &str,
    ckpt_rank: impl FnMut(&mut Cluster, Pid, &str) -> Result<ByteSize, E>,
) -> Result<GlobalSnapshot, E> {
    coordinated_core(cluster, world, prefix, false, ckpt_rank).map_err(|abort| abort.error)
}

/// The single serialized-writer loop behind both coordination flavors.
///
/// With `rollback_on_error` the failure path is the atomic contract:
/// delete the local snapshots already landed, trace the abort, close
/// the global-snapshot span. Without it the error propagates
/// immediately — earlier rank files stay on disk and the span stays
/// open, exactly as a `?` out of the loop would leave things.
fn coordinated_core<E>(
    cluster: &mut Cluster,
    world: &MpiWorld,
    prefix: &str,
    rollback_on_error: bool,
    mut ckpt_rank: impl FnMut(&mut Cluster, Pid, &str) -> Result<ByteSize, E>,
) -> Result<GlobalSnapshot, SnapshotAbort<E>> {
    world.barrier(cluster);
    let start = world.max_clock(cluster);
    if telemetry::enabled() {
        let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
        telemetry::span_begin(
            "mpi",
            "mpi.global_snapshot",
            start,
            vec![
                ("ranks", (world.size() as u64).into()),
                ("prefix", prefix.into()),
            ],
        );
    }
    let mut files = Vec::with_capacity(world.size());
    let mut sizes = Vec::with_capacity(world.size());
    // One writer at a time on the shared server: each rank may begin
    // its write only when the previous rank's write has finished.
    let mut server_free = start;
    for rank in 0..world.size() {
        let pid = world.rank_pid(rank);
        {
            let p = cluster.process_mut(pid);
            p.clock = p.clock.max(server_free);
        }
        let path = format!("{prefix}.rank{rank}.ckpt");
        match ckpt_rank(cluster, pid, &path) {
            Ok(size) => {
                server_free = cluster.process(pid).clock;
                files.push(path);
                sizes.push(size);
            }
            Err(error) => {
                if !rollback_on_error {
                    return Err(SnapshotAbort { rank, error });
                }
                server_free = cluster.process(pid).clock.max(server_free);
                // Roll back the ranks that did land. Deletion may itself
                // fail mid-outage; a leftover local snapshot under a
                // rank-file name is harmless without its siblings.
                for (r, f) in files.iter().enumerate() {
                    let _ = cluster.delete_file(world.rank_pid(r), f);
                }
                if telemetry::enabled() {
                    let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
                    telemetry::instant(
                        telemetry::RECOVERY_CATEGORY,
                        "recovery.snapshot_abort",
                        server_free,
                        vec![
                            ("rank", (rank as u64).into()),
                            ("rolled_back", (files.len() as u64).into()),
                        ],
                    );
                    telemetry::span_end(
                        "mpi",
                        "mpi.global_snapshot",
                        server_free,
                        vec![("aborted_rank", (rank as u64).into())],
                    );
                    telemetry::counter_add("recovery.snapshot_aborts", 1);
                }
                return Err(SnapshotAbort { rank, error });
            }
        }
    }
    let snapshot = GlobalSnapshot {
        files,
        sizes,
        elapsed: server_free.since(start),
    };
    if telemetry::enabled() {
        let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
        telemetry::span_end(
            "mpi",
            "mpi.global_snapshot",
            server_free,
            vec![("elapsed_ns", snapshot.elapsed.into())],
        );
        // The global snapshot is itself a dump whose provenance is the
        // set of per-rank files: a node with `bases` pointing at each
        // rank's checkpoint, so `lineage(prefix)` walks the whole
        // coordinated set.
        obs::emit(
            "mpi",
            server_free,
            obs::EventKind::CheckpointCommitted {
                path: prefix.to_string(),
                format: "coordinated".to_string(),
                policy: "coordinated".to_string(),
                bases: snapshot.files.clone(),
                buffers: world.size() as u64,
                chunks: snapshot.files.len() as u64,
                logical_bytes: snapshot.total_size().as_u64(),
                file_bytes: snapshot.total_size().as_u64(),
                sync_ns: 0,
                preprocess_ns: 0,
                write_ns: snapshot.elapsed.as_nanos(),
                postprocess_ns: 0,
                cost_ns: snapshot.elapsed.as_nanos(),
            },
        );
    }
    Ok(snapshot)
}

/// A coordinated checkpoint that aborted at one rank's local snapshot.
/// The partial global snapshot has been rolled back — local snapshots
/// already on the shared store are deleted — because a global snapshot
/// missing any rank is unrestartable and worse than none: a restart
/// chain must not be tempted by it.
#[derive(Debug)]
pub struct SnapshotAbort<E> {
    /// The rank whose local snapshot failed.
    pub rank: usize,
    /// The underlying per-rank failure.
    pub error: E,
}

impl<E: std::fmt::Display> std::fmt::Display for SnapshotAbort<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "global snapshot aborted at rank {}: {}",
            self.rank, self.error
        )
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for SnapshotAbort<E> {}

/// [`coordinated_checkpoint`] with abort/rollback semantics: if any
/// rank's local snapshot fails (disk fault, NFS outage), the local
/// snapshots already written under `prefix` are deleted and the whole
/// attempt reports a [`SnapshotAbort`] naming the failed rank. Either a
/// complete global snapshot lands or nothing does.
pub fn coordinated_checkpoint_atomic<E>(
    cluster: &mut Cluster,
    world: &MpiWorld,
    prefix: &str,
    ckpt_rank: impl FnMut(&mut Cluster, Pid, &str) -> Result<ByteSize, E>,
) -> Result<GlobalSnapshot, SnapshotAbort<E>> {
    coordinated_core(cluster, world, prefix, true, ckpt_rank)
}

/// Retry [`coordinated_checkpoint_atomic`] up to `max_attempts` times
/// with doubling virtual-time backoff charged to every rank — the
/// job-level answer to a transient storage fault (an NFS outage window
/// ends, the retry lands).
pub fn coordinated_checkpoint_with_retry<E>(
    cluster: &mut Cluster,
    world: &MpiWorld,
    prefix: &str,
    max_attempts: u32,
    backoff: SimDuration,
    mut ckpt_rank: impl FnMut(&mut Cluster, Pid, &str) -> Result<ByteSize, E>,
) -> Result<GlobalSnapshot, SnapshotAbort<E>> {
    assert!(max_attempts >= 1, "need at least one attempt");
    let mut last: Option<SnapshotAbort<E>> = None;
    for attempt in 0..max_attempts {
        if attempt > 0 {
            let wait = backoff * (1u64 << (attempt - 1).min(16));
            for &p in world.pids() {
                cluster.process_mut(p).clock += wait;
            }
            if telemetry::enabled() {
                let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
                telemetry::instant(
                    telemetry::RECOVERY_CATEGORY,
                    "recovery.snapshot_retry",
                    world.max_clock(cluster),
                    vec![("attempt", (u64::from(attempt) + 1).into())],
                );
                telemetry::counter_add("recovery.actions", 1);
            }
        }
        match coordinated_checkpoint_atomic(cluster, world, prefix, &mut ckpt_rank) {
            Ok(snapshot) => return Ok(snapshot),
            Err(abort) => last = Some(abort),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// Restart every rank of a failed job from a global snapshot,
/// round-robin across `nodes`, returning the new world.
///
/// `restart_rank(cluster, node, path)` restores one rank (plain
/// `blcr::restart`, or a CheCL restart for OpenCL ranks).
pub fn restart_world<E>(
    cluster: &mut Cluster,
    snapshot: &GlobalSnapshot,
    nodes: &[NodeId],
    mut restart_rank: impl FnMut(&mut Cluster, NodeId, &str) -> Result<Pid, E>,
) -> Result<MpiWorld, E> {
    assert!(!nodes.is_empty(), "need at least one node");
    let mut ranks = Vec::with_capacity(snapshot.files.len());
    for (i, file) in snapshot.files.iter().enumerate() {
        let node = nodes[i % nodes.len()];
        ranks.push(restart_rank(cluster, node, file)?);
    }
    Ok(MpiWorld { ranks })
}

/// The outcome of migrating one rank to another node.
#[derive(Clone, Debug)]
pub struct RankMigration {
    /// The migrated rank index.
    pub rank: usize,
    /// Node the rank left.
    pub from_node: NodeId,
    /// Node the rank now runs on.
    pub to_node: NodeId,
    /// The torn-down source process.
    pub old_pid: Pid,
    /// The restarted destination process (now behind `rank`).
    pub new_pid: Pid,
    /// The migration checkpoint file on the shared store.
    pub file: String,
    /// Size of that checkpoint file.
    pub size: ByteSize,
    /// Wall time from the coordination barrier until the destination
    /// process is ready to rejoin collectives.
    pub elapsed: SimDuration,
}

/// Migrate one rank of a live job to `dest_node`: barrier the world
/// (so no in-flight message targets the moving rank), dump the rank to
/// `{prefix}.rank{N}.migrate.ckpt`, restart it on the destination, and
/// splice the new process into the communicator.
///
/// `ckpt_rank` / `restart_rank` are injected exactly as in
/// [`coordinated_checkpoint`] and [`restart_world`] — `blcr` for plain
/// ranks, a `checl` policy-driven snapshot/restore pair for OpenCL
/// ranks — so a single rank can hop vendors mid-job. On any failure
/// the source rank is left alive and in place: the world is unchanged
/// and the job may simply continue (or retry toward another node).
pub fn migrate_rank<E>(
    cluster: &mut Cluster,
    world: &mut MpiWorld,
    rank: usize,
    dest_node: NodeId,
    prefix: &str,
    ckpt_rank: impl FnOnce(&mut Cluster, Pid, &str) -> Result<ByteSize, E>,
    restart_rank: impl FnOnce(&mut Cluster, NodeId, &str) -> Result<Pid, E>,
) -> Result<RankMigration, E> {
    assert!(rank < world.size(), "rank out of range");
    world.barrier(cluster);
    let old_pid = world.rank_pid(rank);
    let from_node = cluster.process(old_pid).node;
    let start = world.max_clock(cluster);
    if telemetry::enabled() {
        let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
        telemetry::span_begin(
            "mpi",
            "mpi.migrate_rank",
            start,
            vec![("rank", (rank as u64).into()), ("prefix", prefix.into())],
        );
    }
    let file = format!("{prefix}.rank{rank}.migrate.ckpt");
    let size = match ckpt_rank(cluster, old_pid, &file) {
        Ok(size) => size,
        Err(error) => {
            if telemetry::enabled() {
                let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
                telemetry::span_end(
                    "mpi",
                    "mpi.migrate_rank",
                    cluster.process(old_pid).clock,
                    vec![("failed_phase", "checkpoint".into())],
                );
            }
            return Err(error);
        }
    };
    let dump_done = cluster.process(old_pid).clock;
    let new_pid = match restart_rank(cluster, dest_node, &file) {
        Ok(pid) => pid,
        Err(error) => {
            // The restart never came up; the source rank is still alive
            // and the communicator still points at it.
            if telemetry::enabled() {
                let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
                telemetry::span_end(
                    "mpi",
                    "mpi.migrate_rank",
                    dump_done,
                    vec![("failed_phase", "restart".into())],
                );
            }
            return Err(error);
        }
    };
    // The destination clock started at zero and now reads the restart
    // cost; in wall time that work began only once the dump landed.
    let dest_side = cluster.process(new_pid).clock.since(SimTime::ZERO);
    let ready = dump_done + dest_side;
    cluster.process_mut(new_pid).clock = ready;
    cluster.kill(old_pid);
    world.replace_rank(rank, new_pid);
    let migration = RankMigration {
        rank,
        from_node,
        to_node: dest_node,
        old_pid,
        new_pid,
        file,
        size,
        elapsed: ready.since(start),
    };
    if telemetry::enabled() {
        let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
        telemetry::span_end(
            "mpi",
            "mpi.migrate_rank",
            ready,
            vec![
                ("elapsed_ns", migration.elapsed.into()),
                ("file_bytes", migration.size.as_u64().into()),
            ],
        );
        telemetry::counter_add("mpi.rank_migrations", 1);
    }
    Ok(migration)
}

/// Re-create a *dead* rank on `spare` from its file in the last global
/// snapshot and splice the new process into the communicator — the
/// node-crash half of supervision, where [`migrate_rank`] is
/// impossible because there is no live source to dump.
///
/// The respawned rank's clock is pushed up to the world's frontier:
/// the survivors kept computing while the rank was down, and the
/// replacement cannot rejoin collectives in their past. The rank then
/// re-executes from the snapshot, which is exactly the wasted work the
/// supervisor accounts for.
pub fn respawn_rank_on_spare<E>(
    cluster: &mut Cluster,
    world: &mut MpiWorld,
    rank: usize,
    snapshot: &GlobalSnapshot,
    spare: NodeId,
    restart_rank: impl FnOnce(&mut Cluster, NodeId, &str) -> Result<Pid, E>,
) -> Result<Pid, E> {
    assert!(rank < world.size(), "rank out of range");
    assert!(rank < snapshot.files.len(), "snapshot lacks this rank");
    let frontier = world.max_clock(cluster);
    let new_pid = restart_rank(cluster, spare, &snapshot.files[rank])?;
    let restore_cost = cluster.process(new_pid).clock.since(SimTime::ZERO);
    let ready = frontier + restore_cost;
    cluster.process_mut(new_pid).clock = ready;
    world.replace_rank(rank, new_pid);
    if telemetry::enabled() {
        let _cluster_track = telemetry::track_scope(telemetry::Track::CLUSTER);
        telemetry::instant(
            "mpi",
            "mpi.respawn_rank",
            ready,
            vec![
                ("rank", (rank as u64).into()),
                ("file", snapshot.files[rank].as_str().into()),
            ],
        );
        telemetry::counter_add("mpi.rank_respawns", 1);
    }
    Ok(new_pid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_and_world(nodes: usize, ranks: usize) -> (Cluster, MpiWorld) {
        let mut cluster = Cluster::with_standard_nodes(nodes);
        let node_ids = cluster.node_ids();
        let world = MpiWorld::init(&mut cluster, &node_ids, ranks);
        (cluster, world)
    }

    #[test]
    fn ranks_distributed_round_robin() {
        let (cluster, world) = cluster_and_world(2, 4);
        assert_eq!(world.size(), 4);
        let n0 = cluster.process(world.rank_pid(0)).node;
        let n1 = cluster.process(world.rank_pid(1)).node;
        let n2 = cluster.process(world.rank_pid(2)).node;
        assert_ne!(n0, n1);
        assert_eq!(n0, n2);
    }

    #[test]
    fn dead_rank_respawns_on_a_spare_at_the_frontier() {
        let (mut cluster, mut world) = cluster_and_world(3, 2);
        for (i, &p) in world.pids().iter().enumerate() {
            cluster.process_mut(p).image.put("rank", vec![i as u8; 8]);
        }
        let snap =
            coordinated_checkpoint(&mut cluster, &world, "/nfs/w", blcr::checkpoint).unwrap();
        // Rank 1's node dies; the survivor computes on.
        let dead_node = cluster.process(world.rank_pid(1)).node;
        cluster.fail_node(dead_node);
        cluster.process_mut(world.rank_pid(0)).clock += SimDuration::from_millis(40);
        let frontier = world.max_clock(&cluster);
        let spare = cluster.node_ids()[2];
        let new_pid =
            respawn_rank_on_spare(&mut cluster, &mut world, 1, &snap, spare, blcr::restart)
                .unwrap();
        assert_eq!(world.rank_pid(1), new_pid);
        assert_eq!(cluster.process(new_pid).node, spare);
        assert!(cluster.process(new_pid).is_alive());
        // State is from the snapshot, clock is past the frontier.
        assert_eq!(
            cluster.process(new_pid).image.get("rank"),
            Some(&vec![1u8; 8][..])
        );
        assert!(cluster.process(new_pid).clock > frontier);
        // The world can barrier again.
        world.barrier(&mut cluster);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let (mut cluster, world) = cluster_and_world(2, 4);
        cluster.process_mut(world.rank_pid(2)).clock += SimDuration::from_millis(5);
        world.barrier(&mut cluster);
        let clocks: Vec<SimTime> = world
            .pids()
            .iter()
            .map(|&p| cluster.process(p).clock)
            .collect();
        assert!(clocks.windows(2).all(|w| w[0] == w[1]));
        assert!(clocks[0] > SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn allreduce_costs_more_with_payload() {
        let (mut cluster, world) = cluster_and_world(2, 4);
        world.allreduce(&mut cluster, ByteSize::mib(1));
        let t1 = world.max_clock(&cluster);
        world.allreduce(&mut cluster, ByteSize::mib(8));
        let t2 = world.max_clock(&cluster);
        assert!(t2.since(t1) > t1.since(SimTime::ZERO));
    }

    #[test]
    fn send_advances_receiver() {
        let (mut cluster, world) = cluster_and_world(2, 2);
        world.send(&mut cluster, 0, 1, ByteSize::mib(4));
        let s = cluster.process(world.rank_pid(0)).clock;
        let r = cluster.process(world.rank_pid(1)).clock;
        assert_eq!(s, r);
        assert!(s > SimTime::ZERO);
    }

    #[test]
    fn global_snapshot_grows_with_ranks_and_size() {
        let snap = |ranks: usize, bytes: usize| {
            let (mut cluster, world) = cluster_and_world(2, ranks);
            for &p in world.pids() {
                cluster.process_mut(p).image.put("data", vec![0u8; bytes]);
            }
            coordinated_checkpoint(&mut cluster, &world, "/nfs/job", blcr::checkpoint).unwrap()
        };
        let small_few = snap(2, 1 << 20);
        let small_many = snap(4, 1 << 20);
        let big_few = snap(2, 8 << 20);
        // More ranks → longer (serialized NFS writes).
        assert!(small_many.elapsed > small_few.elapsed);
        // Bigger problem → longer.
        assert!(big_few.elapsed > small_few.elapsed);
        // And the snapshot sizes add up.
        assert_eq!(small_many.sizes.len(), 4);
        assert!(small_many.total_size() > small_few.total_size());
    }

    #[test]
    fn whole_world_restart() {
        let (mut cluster, world) = cluster_and_world(2, 4);
        for (i, &p) in world.pids().iter().enumerate() {
            cluster
                .process_mut(p)
                .image
                .put("rank", vec![i as u8 + 1; 16]);
        }
        let snap =
            coordinated_checkpoint(&mut cluster, &world, "/nfs/w", blcr::checkpoint).unwrap();
        // The whole job dies.
        for &p in world.pids() {
            cluster.kill(p);
        }
        // Bring it back on one surviving node.
        let nodes = [cluster.node_ids()[0]];
        let new_world = restart_world(&mut cluster, &snap, &nodes, blcr::restart).unwrap();
        assert_eq!(new_world.size(), 4);
        for (i, &p) in new_world.pids().iter().enumerate() {
            assert_eq!(
                cluster.process(p).image.get("rank"),
                Some(&vec![i as u8 + 1; 16][..]),
                "rank {i} state"
            );
            assert_eq!(cluster.process(p).node, nodes[0]);
        }
    }

    #[test]
    fn aborted_snapshot_rolls_back_earlier_ranks() {
        let (mut cluster, world) = cluster_and_world(2, 3);
        // Rank 1's local snapshot fails; ranks write in rank order, so
        // rank 0's file is already on the shared store by then.
        cluster.install_faults(
            osproc::FaultPlan::new(21)
                .fail_next_writes(u32::MAX)
                .only_paths_containing(".rank1."),
        );
        let abort =
            coordinated_checkpoint_atomic(&mut cluster, &world, "/nfs/job", |c, p, path| {
                blcr::checkpoint(c, p, path)
            })
            .unwrap_err();
        assert_eq!(abort.rank, 1);
        // Rank 0's partial contribution must be gone.
        let node0 = cluster.process(world.rank_pid(0)).node;
        assert_eq!(cluster.file_size_on(node0, "/nfs/job.rank0.ckpt"), None);
    }

    #[test]
    fn snapshot_retry_survives_transient_faults() {
        let (mut cluster, world) = cluster_and_world(2, 2);
        // Exactly one write fails: the first attempt aborts at rank 0,
        // the retry lands a complete global snapshot.
        cluster.install_faults(osproc::FaultPlan::new(22).fail_next_writes(1));
        let t0 = world.max_clock(&cluster);
        let snap = coordinated_checkpoint_with_retry(
            &mut cluster,
            &world,
            "/nfs/job",
            3,
            SimDuration::from_millis(50),
            blcr::checkpoint,
        )
        .unwrap();
        assert_eq!(snap.files.len(), 2);
        // The retry's backoff shows up as virtual time.
        assert!(world.max_clock(&cluster).since(t0) > SimDuration::from_millis(50));
        // And the snapshot restarts.
        let node0 = cluster.node_ids()[0];
        blcr::restart(&mut cluster, node0, &snap.files[1]).unwrap();
    }

    #[test]
    fn snapshot_retry_gives_up_after_max_attempts() {
        let (mut cluster, world) = cluster_and_world(1, 2);
        cluster.install_faults(osproc::FaultPlan::new(23).fail_next_writes(u32::MAX));
        let abort = coordinated_checkpoint_with_retry(
            &mut cluster,
            &world,
            "/nfs/job",
            2,
            SimDuration::from_millis(10),
            blcr::checkpoint,
        )
        .unwrap_err();
        assert_eq!(abort.rank, 0);
    }

    #[test]
    fn migrate_rank_moves_one_rank_and_preserves_state() {
        let (mut cluster, mut world) = cluster_and_world(2, 4);
        for (i, &p) in world.pids().iter().enumerate() {
            cluster
                .process_mut(p)
                .image
                .put("rank-data", vec![i as u8 + 10; 32]);
        }
        let node0 = cluster.node_ids()[0];
        let old_pid = world.rank_pid(1);
        let from_node = cluster.process(old_pid).node;
        assert_ne!(from_node, node0, "rank 1 starts off node 0");
        let mig = migrate_rank(
            &mut cluster,
            &mut world,
            1,
            node0,
            "/nfs/job",
            blcr::checkpoint,
            blcr::restart,
        )
        .unwrap();
        assert_eq!(mig.rank, 1);
        assert_eq!(mig.from_node, from_node);
        assert_eq!(mig.to_node, node0);
        assert_eq!(mig.file, "/nfs/job.rank1.migrate.ckpt");
        assert!(mig.elapsed > SimDuration::ZERO);
        // The communicator now routes rank 1 to the new process…
        assert_eq!(world.rank_pid(1), mig.new_pid);
        assert_ne!(mig.new_pid, mig.old_pid);
        assert_eq!(cluster.process(mig.new_pid).node, node0);
        assert_eq!(
            cluster.process(mig.new_pid).image.get("rank-data"),
            Some(&[11u8; 32][..])
        );
        // …the old one is dead, and collectives still work.
        assert!(!cluster.process(mig.old_pid).is_alive());
        world.barrier(&mut cluster);
        world.allreduce(&mut cluster, ByteSize::mib(1));
        // The migrated rank's clock includes both dump and restart.
        assert!(world.max_clock(&cluster) > SimTime::ZERO + mig.elapsed);
    }

    #[test]
    fn migrate_rank_failure_leaves_source_rank_alive() {
        let (mut cluster, mut world) = cluster_and_world(2, 2);
        cluster.install_faults(
            osproc::FaultPlan::new(31)
                .fail_next_writes(u32::MAX)
                .only_paths_containing(".migrate."),
        );
        let node0 = cluster.node_ids()[0];
        let old_pid = world.rank_pid(1);
        migrate_rank(
            &mut cluster,
            &mut world,
            1,
            node0,
            "/nfs/job",
            blcr::checkpoint,
            blcr::restart,
        )
        .unwrap_err();
        // The dump failed, so nothing moved: the rank is intact and the
        // job keeps running.
        assert_eq!(world.rank_pid(1), old_pid);
        assert!(cluster.process(old_pid).is_alive());
        world.barrier(&mut cluster);
    }

    #[test]
    fn global_snapshot_restartable_per_rank() {
        let (mut cluster, world) = cluster_and_world(2, 2);
        for (i, &p) in world.pids().iter().enumerate() {
            cluster
                .process_mut(p)
                .image
                .put("rank-data", vec![i as u8; 64]);
        }
        let snap =
            coordinated_checkpoint(&mut cluster, &world, "/nfs/md", blcr::checkpoint).unwrap();
        // Restart rank 1 on node 0 (cross-node via NFS).
        let node0 = cluster.node_ids()[0];
        let new_pid = blcr::restart(&mut cluster, node0, &snap.files[1]).unwrap();
        assert_eq!(
            cluster.process(new_pid).image.get("rank-data"),
            Some(&[1u8; 64][..])
        );
    }
}
