//! The supervised run: a CheCL workload driven to completion under an
//! adversarial [`FaultPlan`](osproc::FaultPlan) with no manual recovery
//! calls.
//!
//! This is the workload-side half of the self-healing supervisor; the
//! decision machinery (detector, Young/Daly interval controller, repair
//! ladder, accounting) lives in [`checl::supervisor`]. The loop here:
//!
//! 1. steps the program one op at a time, feeding heartbeats from the
//!    app node and the API proxy into the failure detector;
//! 2. checkpoints into a replicated [`DumpVault`] (local primary + NFS
//!    mirror, generation GC) whenever the controller's interval has
//!    elapsed;
//! 3. on **proxy death** respawns the proxy and restores the object
//!    graph from the newest healthy replica (rolling the program back
//!    to the checkpointed pc);
//! 4. on **node crash** restarts the whole session from the vault on a
//!    healthy spare and re-seeds the spare's local replicas by
//!    scrubbing;
//! 5. escalates with a typed [`SupervisorError::Escalated`] when the
//!    per-incident repair ladder or the global failure-storm backstop
//!    is exhausted — never a panic, never silent corruption.

use crate::session::{program_from_dump, CheclSession};
use blcr::DumpVault;
use checl::cpr::{CheclCprError, RestoreTarget};
use checl::supervisor::{
    Supervisor, SupervisorConfig, SupervisorError, SupervisorReport, KEEP_GENERATIONS,
};
use checl::{CprPolicy, IntervalPolicy};
use cldriver::VendorConfig;
use osproc::{BeatSource, Cluster, NodeId};
use simcore::{SimDuration, SimTime};

/// Everything a supervised run needs beyond the session itself.
#[derive(Clone, Debug)]
pub struct SuperviseSetup {
    /// Detector, repair ladder and retention knobs.
    pub config: SupervisorConfig,
    /// Snapshot policy — data path, dedup, live cut, commit hardening.
    pub policy: CprPolicy,
    /// Checkpoint cadence the supervisor enacts.
    pub interval: IntervalPolicy,
    /// Vendor used for proxy respawns and spare-node restarts.
    pub vendor: VendorConfig,
    /// Device selection on restore.
    pub restore: RestoreTarget,
    /// Primary replica base (node-local fast storage), e.g.
    /// `/local/app`.
    pub primary_base: String,
    /// Mirror replica base on a crash-surviving mount, e.g. `/nfs/app`.
    pub mirror_base: String,
    /// Healthy nodes a node-crash failover may restart onto. When the
    /// FaultPlan names failure domains, a failover prefers a spare
    /// *outside* the failed node's domain — a rack-correlated outage
    /// must not land the replacement in the same blast radius.
    pub spares: Vec<NodeId>,
    /// Restore through [`DumpVault::verified_chain`] (each replica
    /// read back and hash-checked, corrupt ones skipped) instead of the
    /// free [`DumpVault::restore_chain`]. Costs one read per replica,
    /// so it is off by default; turn it on under brownout FaultPlans
    /// where silent replica corruption is live.
    pub quorum_restore: bool,
    /// Cap the post-failover re-seeding scrub at this many generations
    /// (newest first). `None` scrubs the whole vault. Under a degraded
    /// channel every scrub read pays the brownout tax, so capping keeps
    /// repair downtime bounded.
    pub scrub_budget: Option<usize>,
}

impl SuperviseSetup {
    /// A setup with the default supervisor knobs, sequential snapshots
    /// and the Young/Daly interval.
    pub fn new(vendor: VendorConfig, primary_base: &str, mirror_base: &str) -> SuperviseSetup {
        SuperviseSetup {
            config: SupervisorConfig::default(),
            policy: CprPolicy::sequential(),
            interval: IntervalPolicy::DalyAdaptive,
            vendor,
            restore: RestoreTarget::default(),
            primary_base: primary_base.to_string(),
            mirror_base: mirror_base.to_string(),
            spares: Vec::new(),
            quorum_restore: false,
            scrub_budget: None,
        }
    }
}

fn escalate(repairs: u32, detail: impl Into<String>) -> SupervisorError {
    SupervisorError::Escalated {
        repairs,
        detail: detail.into(),
    }
}

/// Commit `path` into the vault under the writer's fencing epoch. A
/// fence (the epoch moved — a failover happened while this writer was
/// staging) surfaces as an ordinary commit failure: the staged file is
/// already gone, and the loop's incident path rolls the session back
/// to the generation the *current* writer committed.
fn vault_commit(
    vault: &mut DumpVault,
    cluster: &mut Cluster,
    session: &CheclSession,
    path: &str,
    epoch: u64,
) -> Result<(), CheclCprError> {
    match vault.commit_fenced(cluster, session.pid, path, epoch) {
        Ok(_) => Ok(()),
        Err(blcr::CommitError::Fs(e)) => Err(CheclCprError::Cpr(blcr::CprError::Fs(e))),
        Err(blcr::CommitError::Fenced { .. }) => Err(CheclCprError::Cpr(blcr::CprError::Fs(
            osproc::FsError::WriteFailed(path.to_string()),
        ))),
    }
}

/// Seal a parked live drain: drive the background writer to
/// completion, hand the sealed file to the vault, and charge the
/// supervisor for the *stall* window only. The drain time the
/// application outran is not an interruption — counting it would make
/// the Young/Daly controller adapt τ to a cost the app never paid.
fn seal_live(
    cluster: &mut Cluster,
    session: &mut CheclSession,
    vault: &mut DumpVault,
    sup: &mut Supervisor,
    pending: &mut Option<String>,
    epoch: u64,
) -> Result<(), CheclCprError> {
    let Some(path) = pending.take() else {
        return Ok(());
    };
    let drained = session.complete_live_drain(cluster)?;
    vault_commit(vault, cluster, session, &path, epoch)?;
    sup.advance(cluster.process(session.pid).clock);
    let stall = drained
        .map(|d| d.stall.total() + d.fork_stall)
        .unwrap_or(SimDuration::ZERO);
    sup.checkpoint_committed(stall, SimDuration::ZERO);
    Ok(())
}

/// Checkpoint the session into the vault's next generation and account
/// it with the supervisor. Progress is reported in the "since last
/// commit" frame the loop uses throughout.
///
/// Under a live policy the snapshot returns at the cut with the
/// payload still draining; the vault commit (which needs the sealed
/// file) and the supervisor's overhead charge are deferred to
/// [`seal_live`], which runs before the next checkpoint, at program
/// completion, or not at all if an incident rolls the session back
/// first.
fn commit_checkpoint(
    cluster: &mut Cluster,
    session: &mut CheclSession,
    vault: &mut DumpVault,
    sup: &mut Supervisor,
    policy: &CprPolicy,
    pending: &mut Option<String>,
    epoch: u64,
) -> Result<SimTime, CheclCprError> {
    // Seal the previous generation first: the engine would otherwise
    // force-complete the drain inside `snapshot` and the vault would
    // never learn about the sealed file.
    seal_live(cluster, session, vault, sup, pending, epoch)?;
    let before = cluster.process(session.pid).clock;
    let stage = vault.stage_path();
    let outcome = session.checkpoint_with_policy(cluster, &stage, policy)?;
    if policy.live {
        pending.replace(outcome.path);
        let after = cluster.process(session.pid).clock;
        sup.advance(after);
        return Ok(after);
    }
    vault_commit(vault, cluster, session, &outcome.path, epoch)?;
    let after = cluster.process(session.pid).clock;
    sup.advance(after);
    sup.checkpoint_committed(after.since(before), SimDuration::ZERO);
    Ok(after)
}

/// Run `session` to completion under supervision. Returns the finished
/// session and the supervisor's accounting, or a typed
/// [`SupervisorError::Escalated`] when repair is exhausted.
pub fn run_supervised(
    cluster: &mut Cluster,
    mut session: CheclSession,
    setup: &SuperviseSetup,
) -> Result<(CheclSession, SupervisorReport), SupervisorError> {
    let start = cluster.process(session.pid).clock;
    let mut sup = Supervisor::new(setup.config.clone(), setup.interval, start);
    let mut vault = DumpVault::new(&setup.primary_base, &setup.mirror_base, KEEP_GENERATIONS);
    let mut spares = setup.spares.clone();
    let mut node = cluster.process(session.pid).node;
    sup.monitor_mut().watch(BeatSource::Node(node), start);
    if let Some(proxy) = session.lib.proxy_pid() {
        sup.monitor_mut().watch(BeatSource::Proxy(proxy), start);
    }

    // Live-policy generation whose cut is taken but whose background
    // drain has not yet sealed into the vault.
    let mut pending_live: Option<String> = None;

    // Fencing epoch this writer holds; every failover advances the
    // vault's epoch so a commit staged before the failover (a healed
    // partition's stale supervisor) is refused.
    let mut epoch = vault.epoch();

    // `true` when the detector gave up on a partitioned node: the
    // process may well be alive on the far side, but the supervisor
    // cannot tell — it fences the old writer and fails over.
    let mut partition_fenced = false;

    // Generation 0: a supervised run must always have a restore point,
    // or the first failure is unrecoverable by construction.
    let mut commit_clock = commit_checkpoint(
        cluster,
        &mut session,
        &mut vault,
        &mut sup,
        &setup.policy,
        &mut pending_live,
        epoch,
    )
    .map_err(|e| escalate(0, format!("initial checkpoint: {e}")))?;

    loop {
        if session.program.is_done() {
            // Don't exit with a drain in flight: the last generation
            // must land in the vault before the report freezes.
            seal_live(
                cluster,
                &mut session,
                &mut vault,
                &mut sup,
                &mut pending_live,
                epoch,
            )
            .map_err(|e| escalate(sup.failures(), format!("final drain: {e}")))?;
            sup.advance(cluster.process(session.pid).clock);
            return Ok((session, sup.finish(true)));
        }

        // Deliver cluster faults that have come due at the app's clock.
        let now = cluster.process(session.pid).clock;
        let crashed = cluster.poll_faults(now);
        spares.retain(|s| !crashed.contains(s));
        let node_dead = crashed.contains(&node) || !cluster.process(session.pid).is_alive();
        if !node_dead {
            session.deliver_proxy_faults(cluster, now);
        }

        if node_dead || partition_fenced {
            // ---- node-crash (or fenced-partition) incident: failover
            // to a spare ----
            let fenced = std::mem::take(&mut partition_fenced);
            sup.advance(now);
            if sup.storming() {
                return Err(escalate(sup.failures(), "failure storm: too many failures"));
            }
            // An in-flight drain dies with the node: its generation
            // never reached the vault, so the chain rolls back one
            // further. The stage temp on the dead node is unreachable
            // and stays orphaned.
            pending_live = None;
            let old_proxy = session.lib.proxy_pid();
            sup.failure_detected(BeatSource::Node(node), now.since(commit_clock));
            // Fence the old writer *before* the replacement starts: if
            // the node was partitioned rather than dead, its process is
            // still running over there and may try to commit the dump
            // it was staging once the partition heals. The epoch bump
            // turns that into a refused, deleted commit instead of a
            // split-brain double-commit.
            epoch = vault.advance_epoch();
            // A rack-correlated outage must not land the replacement in
            // the same blast radius: prefer a spare outside the failed
            // node's failure domain when the FaultPlan names one.
            let failed_domain = cluster
                .faults()
                .and_then(|p| p.domain_of(node))
                .map(str::to_string);
            let mut last_err = if fenced {
                format!("node {} partitioned from supervisor", node.0)
            } else {
                format!("node {} crashed", node.0)
            };
            session = loop {
                sup.sanction_repair(&last_err)?;
                let candidates: Vec<NodeId> =
                    spares.iter().copied().filter(|s| *s != node).collect();
                let pick = match &failed_domain {
                    Some(fd) => candidates
                        .iter()
                        .copied()
                        .find(|s| {
                            cluster.faults().and_then(|p| p.domain_of(*s)) != Some(fd.as_str())
                        })
                        .or_else(|| candidates.first().copied()),
                    None => candidates.first().copied(),
                };
                let Some(spare) = pick else {
                    return Err(escalate(sup.failures(), "no healthy spare node left"));
                };
                let chain = if setup.quorum_restore {
                    // Quorum read from the spare's vantage point: a
                    // short-lived probe process pays the verify reads.
                    let probe = cluster.spawn(spare);
                    let chain = vault.verified_chain(cluster, probe);
                    sup.advance(cluster.process(probe).clock);
                    cluster.kill(probe);
                    chain
                } else {
                    vault.restore_chain()
                };
                let mut restored: Option<CheclSession> = None;
                for path in &chain {
                    match CheclSession::restart(
                        cluster,
                        spare,
                        path,
                        setup.vendor.clone(),
                        setup.restore,
                    ) {
                        Ok(s) => {
                            restored = Some(s);
                            break;
                        }
                        Err(e) => last_err = format!("restart from {path}: {e}"),
                    }
                }
                match restored {
                    Some(s) => {
                        // Re-seed the spare's local replicas from the
                        // surviving mirrors; the scrub I/O is part of the
                        // repair and lands in downtime. Under a brownout
                        // the caller may cap how many generations the
                        // re-seed verifies (newest first) so repair
                        // downtime stays bounded.
                        match setup.scrub_budget {
                            Some(b) => {
                                vault.scrub_budgeted(cluster, s.pid, b);
                            }
                            None => {
                                vault.scrub(cluster, s.pid);
                            }
                        }
                        let took = cluster.process(s.pid).clock.since(SimTime::ZERO);
                        sup.repair_succeeded(took);
                        // The replacement cannot live in the cluster's
                        // past: push its clock up to the supervision
                        // cursor (restore + scrub costs included).
                        let p = cluster.process_mut(s.pid);
                        p.clock = p.clock.max(sup.now());
                        sup.monitor_mut().unwatch(BeatSource::Node(node));
                        if let Some(p) = old_proxy {
                            sup.monitor_mut().unwatch(BeatSource::Proxy(p));
                        }
                        node = spare;
                        let at = sup.now();
                        sup.monitor_mut().watch(BeatSource::Node(node), at);
                        if let Some(p) = s.lib.proxy_pid() {
                            sup.monitor_mut().watch(BeatSource::Proxy(p), at);
                        }
                        commit_clock = cluster.process(s.pid).clock;
                        break s;
                    }
                    None => sup.repair_failed(SimDuration::from_millis(1)),
                }
            };
            continue;
        }

        if session.lib.pipe_broken() || !session.lib.has_proxy() {
            // ---- proxy-death incident: respawn + rollback ----
            sup.advance(now);
            if sup.storming() {
                return Err(escalate(sup.failures(), "failure storm: too many failures"));
            }
            // The parked drain's cut refers to vendor handles of the
            // dead proxy: abort it (deleting the temp) before the
            // rollback rebuilds the object graph. The previous vault
            // generation is the restore target either way.
            if pending_live.take().is_some() {
                checl::abort_live_drain(&mut session.lib, cluster, session.pid);
            }
            let proxy_src = session.lib.proxy_pid().map(BeatSource::Proxy);
            if let Some(src) = proxy_src {
                sup.failure_detected(src, now.since(commit_clock));
            } else {
                sup.failure_detected(BeatSource::Node(node), now.since(commit_clock));
            }
            let mut last_err = String::from("api proxy died");
            loop {
                sup.sanction_repair(&last_err)?;
                let chain = if setup.quorum_restore {
                    vault.verified_chain(cluster, session.pid)
                } else {
                    vault.restore_chain()
                };
                let before = cluster.process(session.pid).clock;
                let mut ok = false;
                for path in &chain {
                    let respawned = checl::respawn_proxy_and_restore(
                        cluster,
                        &mut session.lib,
                        session.pid,
                        path,
                        setup.vendor.clone(),
                        setup.restore,
                    )
                    .and_then(|_| {
                        // Host state must come from the same generation
                        // as the object graph just re-created.
                        session.program = program_from_dump(cluster, session.pid, path)?;
                        Ok(())
                    });
                    match respawned {
                        Ok(()) => {
                            ok = true;
                            break;
                        }
                        Err(e) => last_err = format!("respawn from {path}: {e}"),
                    }
                }
                let after = cluster.process(session.pid).clock;
                if ok {
                    if let Some(src) = proxy_src {
                        sup.monitor_mut().unwatch(src);
                    }
                    sup.repair_succeeded(after.since(before));
                    let at = sup.now();
                    if let Some(p) = session.lib.proxy_pid() {
                        sup.monitor_mut().watch(BeatSource::Proxy(p), at);
                    }
                    commit_clock = after;
                    break;
                }
                sup.repair_failed(after.since(before).max(SimDuration::from_millis(1)));
            }
            continue;
        }

        // ---- healthy: beats, cadence, one op ----
        sup.advance(now);
        let (beats_lost, node_partitioned) = match cluster.faults_mut() {
            Some(plan) => (plan.heartbeats_lost(now), plan.partitioned(node, now)),
            None => (false, false),
        };
        if !beats_lost && !node_partitioned {
            sup.beat(BeatSource::Node(node));
            if let Some(p) = session.lib.proxy_pid() {
                sup.beat(BeatSource::Proxy(p));
            }
        } else {
            // Gray territory: the components are alive but their beats
            // are not arriving. Once the detector turns suspicious the
            // supervisor must distinguish slow-from-dead instead of
            // burning a restore on a live process.
            let sup_now = sup.now();
            let suspects = sup.monitor_mut().suspects(sup_now);
            if !suspects.is_empty() {
                if node_partitioned {
                    // Can't probe across a partition. Give the detector
                    // its verdict: fence the (possibly alive) writer and
                    // fail over outside the partition.
                    partition_fenced = true;
                    continue;
                }
                // Beats lost but the path to the node is up: a probe
                // (one heartbeat round-trip) proves the component
                // alive. Booked as supervisor-induced overhead, never
                // as an app failure — τ must not stretch over this.
                for src in suspects {
                    sup.false_positive(src, setup.config.heartbeat_every);
                }
            }
        }
        if sup.checkpoint_due(now.since(commit_clock)) {
            match commit_checkpoint(
                cluster,
                &mut session,
                &mut vault,
                &mut sup,
                &setup.policy,
                &mut pending_live,
                epoch,
            ) {
                Ok(t) => {
                    commit_clock = t;
                    continue;
                }
                Err(_) => {
                    // A checkpoint that cannot commit is an incident
                    // like any other: mark the proxy path broken and
                    // let the repair ladder roll the session back.
                    session.lib.break_pipe();
                    sup.advance(cluster.process(session.pid).clock);
                    continue;
                }
            }
        }

        match session.step(cluster) {
            Ok(()) => {}
            Err(clspec::error::ClError::DeviceNotAvailable) => {
                // The proxy died under the op; the pc did not advance.
                session.lib.break_pipe();
            }
            Err(e) => return Err(escalate(sup.failures(), format!("unrecoverable: {e}"))),
        }
    }
}
