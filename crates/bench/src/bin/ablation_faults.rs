//! Fault-injection ablation: one scenario per fault class, each driven
//! by a fixed-seed [`FaultPlan`], demonstrating the recovery policy
//! that answers it.
//!
//! | fault class        | recovery demonstrated |
//! |--------------------|-----------------------|
//! | disk write failure | bounded retry with virtual-time backoff |
//! | short write        | post-write verification rejects, rewrite |
//! | corrupt write      | frame checksum rejects, rewrite |
//! | NFS outage         | fallback across filesystem targets |
//! | proxy death        | proxy respawn + object-graph re-creation |
//! | pipe break         | same in-place restart procedure |
//! | node crash         | restart from NFS checkpoint on a peer |
//! | corrupt checkpoint | restart chain falls back to older file |
//! | MPI rank failure   | global-snapshot rollback + retry |
//!
//! Every committed checkpoint is proven good by actually restarting
//! from it; end-to-end scenarios compare final buffer checksums
//! against an undisturbed native run — recovery must be bit-exact, not
//! merely crash-free. All timings are virtual, so the emitted JSON is
//! byte-identical across runs of the same seed.

use blcr::RetryPolicy;
use checl::{restart_checl_chain, CheclConfig, CprPolicy, RecoveryPolicy, RestoreTarget};
use checl_bench::{
    eval_targets, native_checksums, session_at_first_kernel, Cell, EvalTarget, FigureWriter,
    TraceSession, SEED,
};
use mpisim::{coordinated_checkpoint_with_retry, restart_world, MpiWorld};
use osproc::{Cluster, FaultKind, FaultPlan, Pid};
use simcore::SimDuration;
use workloads::{workload_by_name, CheclSession, StopCondition};

/// Problem scale: small enough for a smoke-test, large enough that a
/// checkpoint spans several virtual milliseconds of writing.
const SCALE: f64 = 1.0 / 64.0;

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0]; // NVIDIA column, as in Fig. 5
    let mut fig = FigureWriter::new("ablation_faults");

    fig.section(
        "Fault ablation: checkpoint-path faults (oclVectorAdd)",
        &[
            "scenario",
            "fault class",
            "injected",
            "attempts",
            "fallbacks",
            "committed to",
            "elapsed [s]",
        ],
    );
    checkpoint_scenario(
        &mut fig,
        target,
        "disk-write-fail",
        FaultKind::DiskWriteFail,
        FaultPlan::new(SEED)
            .fail_next_writes(2)
            .only_paths_containing(".ckpt"),
        &["/local/vadd.ckpt"],
    );
    checkpoint_scenario(
        &mut fig,
        target,
        "short-write",
        FaultKind::ShortWrite,
        FaultPlan::new(SEED + 1)
            .short_next_writes(1)
            .only_paths_containing(".ckpt"),
        &["/local/vadd.ckpt"],
    );
    checkpoint_scenario(
        &mut fig,
        target,
        "corrupt-write",
        FaultKind::CorruptWrite,
        FaultPlan::new(SEED + 2)
            .corrupt_next_writes(1)
            .corrupt_in_prefix(64),
        &["/local/vadd.ckpt"],
    );
    nfs_outage_scenario(&mut fig, target);
    fig.note(
        "every committed checkpoint is proven good by restarting a fresh \
         process from it; 'attempts' counts checkpoint writes including \
         the one that committed",
    );

    fig.section(
        "Fault ablation: process & node faults (oclVectorAdd)",
        &[
            "scenario",
            "fault class",
            "injected",
            "recoveries",
            "outcome",
        ],
    );
    let w = workload_by_name("oclVectorAdd").unwrap();
    let golden = native_checksums((target.vendor)(), w.script(&target.cfg(SCALE)));
    proxy_death_scenario(&mut fig, target, &golden);
    restart_chain_scenario(&mut fig, target);
    node_crash_scenario(&mut fig, target, &golden);
    fig.note(
        "recovery is bit-exact: final buffer checksums are compared \
         against an undisturbed native run of the same program",
    );

    fig.section(
        "Fault ablation: MPI coordinated snapshot (MD)",
        &[
            "scenario",
            "fault class",
            "injected",
            "committed on attempt",
            "ranks",
            "snapshot [MB]",
            "outcome",
        ],
    );
    mpi_rank_failure_scenario(&mut fig, target);
    fig.note(format!(
        "all scenarios use FaultPlan seeds {SEED}..{}; virtual-time \
         results are deterministic, so this file is byte-identical \
         across runs",
        SEED + 7
    ));

    fig.finish().unwrap();
    trace.finish().unwrap();
}

/// The sequential engine with the full recovery policy: verify, retry,
/// then fall through `fallbacks` in order.
fn hardened(fallbacks: &[&str]) -> CprPolicy {
    CprPolicy::sequential().with_recovery(RecoveryPolicy {
        retry: RetryPolicy::default(),
        fallback_targets: fallbacks.iter().map(|t| t.to_string()).collect(),
    })
}

/// Checkpoint once under `plan` with the full recovery policy, then
/// prove the committed file by restarting from it.
fn checkpoint_scenario(
    fig: &mut FigureWriter,
    target: &EvalTarget,
    name: &str,
    class: FaultKind,
    plan: FaultPlan,
    targets: &[&str],
) {
    let w = workload_by_name("oclVectorAdd").unwrap();
    let (mut cluster, mut session) = session_at_first_kernel(&w, target, SCALE).unwrap();
    cluster.install_faults(plan);
    let out = session
        .checkpoint_with_policy(&mut cluster, targets[0], &hardened(&targets[1..]))
        .expect("recovery exhausted every target")
        .recovery
        .expect("a hardened snapshot reports its recovery");
    let injected = cluster.faults().unwrap().count(class);
    let node = cluster.process(session.pid).node;
    CheclSession::restart(
        &mut cluster,
        node,
        &out.path,
        (target.vendor)(),
        RestoreTarget::default(),
    )
    .expect("committed checkpoint must restore");
    fig.row(vec![
        name.into(),
        class.name().into(),
        injected.into(),
        (out.attempts as u64).into(),
        (out.fallbacks as u64).into(),
        out.path.into(),
        Cell::secs(out.elapsed),
    ]);
}

/// NFS is down for the whole checkpoint; the target list falls back to
/// the local disk.
fn nfs_outage_scenario(fig: &mut FigureWriter, target: &EvalTarget) {
    let w = workload_by_name("oclVectorAdd").unwrap();
    let (mut cluster, mut session) = session_at_first_kernel(&w, target, SCALE).unwrap();
    let now = cluster.process(session.pid).clock;
    cluster.install_faults(
        FaultPlan::new(SEED + 3).schedule_nfs_outage(now, now + SimDuration::from_millis(600_000)),
    );
    let out = session
        .checkpoint_with_policy(
            &mut cluster,
            "/nfs/vadd.ckpt",
            &hardened(&["/local/vadd.ckpt"]),
        )
        .expect("local fallback must commit")
        .recovery
        .expect("a hardened snapshot reports its recovery");
    let injected = cluster.faults().unwrap().count(FaultKind::NfsOutage);
    let node = cluster.process(session.pid).node;
    CheclSession::restart(
        &mut cluster,
        node,
        &out.path,
        (target.vendor)(),
        RestoreTarget::default(),
    )
    .expect("committed checkpoint must restore");
    fig.row(vec![
        "nfs-outage".into(),
        FaultKind::NfsOutage.name().into(),
        injected.into(),
        (out.attempts as u64).into(),
        (out.fallbacks as u64).into(),
        out.path.into(),
        Cell::secs(out.elapsed),
    ]);
}

/// The API proxy dies mid-run (and the pipe breaks a little later);
/// the session respawns the proxy, re-creates the object graph from
/// the last checkpoint, rolls the program back, and still finishes
/// with the right answers.
fn proxy_death_scenario(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let w = workload_by_name("oclVectorAdd").unwrap();
    let (mut cluster, mut session) = session_at_first_kernel(&w, target, SCALE).unwrap();
    session
        .checkpoint_with_policy(&mut cluster, "/local/vadd.ckpt", &CprPolicy::sequential())
        .unwrap();
    let now = cluster.process(session.pid).clock;
    cluster.install_faults(
        FaultPlan::new(SEED + 4)
            .schedule_proxy_death(now)
            .schedule_pipe_break(now + SimDuration::from_millis(1)),
    );
    let report = session
        .run_with_recovery(
            &mut cluster,
            StopCondition::Completion,
            "/local/vadd.ckpt",
            &(target.vendor)(),
            8,
        )
        .expect("run must survive the proxy faults");
    let plan = cluster.faults().unwrap();
    let injected = plan.count(FaultKind::ProxyDeath) + plan.count(FaultKind::PipeBreak);
    assert_eq!(
        session.program.checksums, golden,
        "recovered run must be bit-exact"
    );
    fig.row(vec![
        "proxy-death".into(),
        "proxy_death+pipe_break".into(),
        injected.into(),
        (report.respawns as u64).into(),
        "completed; checksums bit-exact with undisturbed run".into(),
    ]);
}

/// The newest of two checkpoints lands corrupted; the restart chain
/// rejects it and falls back to the older generation.
fn restart_chain_scenario(fig: &mut FigureWriter, target: &EvalTarget) {
    let w = workload_by_name("oclVectorAdd").unwrap();
    let (mut cluster, mut session) = session_at_first_kernel(&w, target, SCALE).unwrap();
    session
        .checkpoint_with_policy(&mut cluster, "/local/gen1.ckpt", &CprPolicy::sequential())
        .unwrap();
    cluster.install_faults(
        FaultPlan::new(SEED + 5)
            .corrupt_next_writes(1)
            .corrupt_in_prefix(64),
    );
    session
        .checkpoint_with_policy(&mut cluster, "/local/gen2.ckpt", &CprPolicy::sequential())
        .unwrap();
    let injected = cluster.faults().unwrap().count(FaultKind::CorruptWrite);
    let node = cluster.process(session.pid).node;
    let vendor = (target.vendor)();
    let (_lib, _pid, _report, generation) = restart_checl_chain(
        &mut cluster,
        node,
        &["/local/gen2.ckpt", "/local/gen1.ckpt"],
        &vendor,
        RestoreTarget::default(),
    )
    .expect("older generation must restore");
    assert_eq!(generation, 1, "the corrupt newest file must be skipped");
    fig.row(vec![
        "restart-chain".into(),
        FaultKind::CorruptWrite.name().into(),
        injected.into(),
        generation.into(),
        "newest rejected; restarted from previous generation".into(),
    ]);
}

/// The application's node crashes after a checkpoint to NFS; the
/// session restarts on the surviving node and runs to completion.
fn node_crash_scenario(fig: &mut FigureWriter, target: &EvalTarget, golden: &[u64]) {
    let w = workload_by_name("oclVectorAdd").unwrap();
    let (mut cluster, mut session) = session_at_first_kernel(&w, target, SCALE).unwrap();
    session
        .checkpoint_with_policy(&mut cluster, "/nfs/vadd.ckpt", &CprPolicy::sequential())
        .unwrap();
    let now = cluster.process(session.pid).clock;
    let home = cluster.process(session.pid).node;
    cluster.install_faults(FaultPlan::new(SEED + 6).schedule_node_crash(now, home));
    let crashed = cluster.poll_faults(now);
    assert_eq!(crashed, vec![home], "the home node must crash");
    let peer = cluster
        .node_ids()
        .into_iter()
        .find(|n| *n != home)
        .expect("a surviving node");
    let mut restored = CheclSession::restart(
        &mut cluster,
        peer,
        "/nfs/vadd.ckpt",
        (target.vendor)(),
        RestoreTarget::default(),
    )
    .expect("restart on the surviving node must work");
    restored
        .run(&mut cluster, StopCondition::Completion)
        .expect("restored run must finish");
    let injected = cluster.faults().unwrap().count(FaultKind::NodeCrash);
    assert_eq!(
        restored.program.checksums, golden,
        "restarted run must be bit-exact"
    );
    fig.row(vec![
        "node-crash".into(),
        FaultKind::NodeCrash.name().into(),
        injected.into(),
        1usize.into(),
        "restarted on surviving node; checksums bit-exact".into(),
    ]);
}

/// One rank's local snapshot write fails during a coordinated
/// checkpoint; the partial global snapshot is rolled back and the
/// retry commits, after which the whole world restarts from it.
fn mpi_rank_failure_scenario(fig: &mut FigureWriter, target: &EvalTarget) {
    let md = workload_by_name("MD").unwrap();
    let n_ranks = 2;
    let mut cluster = Cluster::with_standard_nodes(n_ranks);
    let nodes = cluster.node_ids();
    let world = MpiWorld::init(&mut cluster, &nodes, n_ranks);
    let cfg = target.cfg(SCALE * 32.0);
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
    cluster.install_faults(
        FaultPlan::new(SEED + 7)
            .fail_next_writes(1)
            .only_paths_containing(".rank1."),
    );
    let pids: Vec<Pid> = world.pids().to_vec();
    let mut libs: Vec<_> = sessions.iter_mut().map(|s| &mut s.lib).collect();
    let snapshot = coordinated_checkpoint_with_retry(
        &mut cluster,
        &world,
        "/nfs/md-ablate",
        3,
        SimDuration::from_millis(50),
        |cluster, pid, path| {
            let rank = pids.iter().position(|p| *p == pid).unwrap();
            checl::snapshot(libs[rank], cluster, pid, path, &CprPolicy::sequential())
                .map(|o| o.report.file_size)
        },
    )
    .expect("the retry must commit a full global snapshot");
    let injected = cluster.faults().unwrap().count(FaultKind::DiskWriteFail);
    let attempt = injected + 1; // one write failure aborts one attempt
    let vendor = (target.vendor)();
    restart_world(&mut cluster, &snapshot, &nodes, |cluster, node, file| {
        checl::restore(
            cluster,
            node,
            file,
            vendor.clone(),
            RestoreTarget::default(),
        )
        .map(|(_, pid, _)| pid)
    })
    .expect("the committed global snapshot must restart every rank");
    fig.row(vec![
        "mpi-rank-snapshot-fail".into(),
        FaultKind::DiskWriteFail.name().into(),
        injected.into(),
        attempt.into(),
        n_ranks.into(),
        Cell::mib(snapshot.total_size()),
        "partial snapshot rolled back; retry committed; world restarted".into(),
    ]);
}
