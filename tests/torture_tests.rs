//! Crash-point torture harness (ISSUE 10 tentpole cap).
//!
//! A supervised run is a dump → drain → commit → GC sequence; every
//! obs-event boundary inside it is a place the node can die. The
//! harness makes that literal: a baseline pass records the full event
//! ledger of a three-generation checkpointed run, then the same run is
//! replayed once *per event*, armed with
//! [`FaultPlan::crash_after_events`] so the filesystem goes dark at
//! exactly that boundary. Whatever the wreckage — a torn chunk store,
//! an unsealed live drain, a half-mirrored generation, a GC that
//! deleted the old dump but died before the new one sealed — the vault
//! chain must still restore a generation that runs to the bit-exact
//! baseline checksums. Swept across the sequential, pipelined, dedup
//! and live engine paths.
//!
//! A qcheck property closes the fencing story: under any random
//! partition-heal schedule, exactly one writer commits each generation
//! (stale-epoch writers are fenced and their staged dumps deleted), at
//! every point of the [`CprPolicy`] lattice.

use std::collections::BTreeSet;

use blcr::{CommitError, DumpVault};
use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_repro as _;
use clspec::types::DeviceType;
use osproc::{Cluster, FaultPlan, NodeId};
use simcore::obs;
use simcore::qcheck::{qcheck, Gen};
use workloads::{BufInit, CheclSession, Op, Reg, Script, StopCondition};

const KIB: u64 = 1 << 10;

/// Three mutation waves over three buffers, with checksums at the end.
/// Returns the script and the op-count boundaries after each wave —
/// the torture loop cuts a generation at each boundary, so every
/// committed generation snapshots genuinely different buffer bytes.
fn torture_script() -> (Script, [u64; 3]) {
    let sizes: [u64; 3] = [256 * KIB, 192 * KIB, 128 * KIB];
    let mut ops = vec![
        Op::GetPlatform { out: 0 },
        Op::GetDevices {
            platform: 0,
            dtype: DeviceType::Gpu,
            out: 1,
            count: 1,
        },
        Op::CreateContext { device: 1, out: 2 },
        Op::CreateQueue {
            context: 2,
            device: 1,
            out: 3,
        },
    ];
    let buf0: Reg = 4;
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::CreateBuffer {
            context: 2,
            flags: clspec::types::MemFlags::READ_WRITE,
            size,
            init: Some(BufInit::RandomU32 {
                seed: 0x70_70 + i as u64,
            }),
            out: buf0 + i as Reg,
        });
    }
    let mut bounds = [0u64; 3];
    bounds[0] = ops.len() as u64;
    for wave in 1..3u64 {
        for (i, &size) in sizes.iter().enumerate() {
            ops.push(Op::WriteBuffer {
                queue: 3,
                buf: buf0 + i as Reg,
                size,
                init: BufInit::RandomU32 {
                    seed: 0xbad0 * wave + i as u64,
                },
            });
        }
        bounds[wave as usize] = ops.len() as u64;
    }
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
        });
    }
    (Script { ops }, bounds)
}

fn launch(cluster: &mut Cluster, node: NodeId, script: Script) -> CheclSession {
    CheclSession::launch(
        cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        script,
    )
}

/// What one torture run leaves behind: the cluster (with whatever the
/// crash tore), the vault metadata, and either the completed run's
/// checksums or the error that surfaced the crash.
struct Wreckage {
    cluster: Cluster,
    vault: DumpVault,
    node: NodeId,
    outcome: Result<Vec<u64>, String>,
    ledger: Option<obs::Ledger>,
}

/// Drive one full dump/drain/commit/GC sequence under `policy`,
/// optionally armed to crash after the `crash_after`-th obs event.
///
/// Generation 0 is committed *before* recording starts (and before the
/// fault arms), mirroring supervised runs: a job under supervision
/// always has a restore point, so "crash at the very first boundary"
/// restores gen 0 rather than having nowhere to go. The torture loop
/// then cuts three more generations at the wave boundaries; with
/// `keep = 2` the later commits GC the early ones, putting delete
/// boundaries in the sweep too.
fn torture_run(policy: &CprPolicy, crash_after: Option<u64>) -> Wreckage {
    let (script, bounds) = torture_script();
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut session = launch(&mut cluster, node, script);
    let mut vault = DumpVault::new("/local/torture", "/nfs/torture", 2);

    session
        .checkpoint_with_policy(&mut cluster, &vault.stage_path(), policy)
        .expect("gen 0 stage");
    if policy.live {
        session
            .complete_live_drain(&mut cluster)
            .expect("gen 0 drain")
            .expect("gen 0 drain parked");
    }
    vault
        .commit(&mut cluster, session.pid)
        .expect("gen 0 commit");

    obs::start_recording();
    if let Some(k) = crash_after {
        cluster.install_faults(FaultPlan::new(0xD0C).crash_after_events(k));
    }

    let outcome = (|| {
        for &bound in &bounds {
            session
                .run(&mut cluster, StopCondition::AfterOps(bound))
                .map_err(|e| format!("run: {e:?}"))?;
            let stage = vault.stage_path();
            let out = session
                .checkpoint_with_policy(&mut cluster, &stage, policy)
                .map_err(|e| format!("checkpoint: {e:?}"))?;
            if policy.live {
                // Let the drain race a slice of the next wave before
                // sealing, as a real live cut would.
                session
                    .run(&mut cluster, StopCondition::AfterOps(bound + 1))
                    .map_err(|e| format!("run: {e:?}"))?;
                session
                    .complete_live_drain(&mut cluster)
                    .map_err(|e| format!("drain: {e:?}"))?;
            }
            vault
                .commit_at(&mut cluster, session.pid, &out.path)
                .map_err(|e| format!("commit: {e:?}"))?;
        }
        session
            .run(&mut cluster, StopCondition::Completion)
            .map_err(|e| format!("run: {e:?}"))?;
        Ok(session.program.checksums.clone())
    })();

    let ledger = obs::stop_recording();
    Wreckage {
        cluster,
        vault,
        node,
        outcome,
        ledger,
    }
}

/// Walk the vault chain newest-first and restore the first generation
/// that still restarts, then run it to completion.
fn restore_and_finish(wreck: &mut Wreckage, context: &str) -> Vec<u64> {
    let chain = wreck.vault.restore_chain();
    assert!(!chain.is_empty(), "{context}: empty restore chain");
    for path in &chain {
        let restored = CheclSession::restart(
            &mut wreck.cluster,
            wreck.node,
            path,
            cldriver::vendor::nimbus(),
            RestoreTarget::default(),
        );
        if let Ok(mut s) = restored {
            s.run(&mut wreck.cluster, StopCondition::Completion)
                .unwrap_or_else(|e| panic!("{context}: restored run failed: {e:?}"));
            let sums = s.program.checksums.clone();
            s.kill(&mut wreck.cluster);
            return sums;
        }
    }
    panic!("{context}: no generation in {chain:?} restored");
}

fn torture_policies() -> Vec<(&'static str, CprPolicy)> {
    vec![
        ("sequential", CprPolicy::sequential()),
        ("pipelined", CprPolicy::pipelined()),
        ("dedup", CprPolicy::pipelined().dedup(true)),
        ("live", CprPolicy::pipelined().live(true)),
    ]
}

/// The tentpole sweep: for every engine path, kill the run at *every*
/// obs-event boundary of the baseline ledger and prove a committed
/// generation restores to the bit-exact baseline checksums.
#[test]
fn every_crash_point_restores_bit_exact() {
    for (label, policy) in torture_policies() {
        let baseline = torture_run(&policy, None);
        let golden = baseline
            .outcome
            .unwrap_or_else(|e| panic!("{label}: baseline failed: {e}"));
        let ledger = baseline.ledger.expect("baseline ledger");
        let total = ledger.len() as u64;
        assert!(total > 0, "{label}: baseline emitted no events");
        let kinds: BTreeSet<String> = ledger
            .events()
            .iter()
            .map(|e| e.kind.name().to_string())
            .collect();
        assert!(
            kinds.len() >= 2,
            "{label}: ledger too uniform to be a real boundary sweep: {kinds:?}"
        );

        let mut crashed = 0u64;
        for k in 1..=total {
            let ctx = format!("{label} @ boundary {k}/{total}");
            let mut wreck = torture_run(&policy, Some(k));
            // Disarm: the node is "replaced", the filesystem works again.
            wreck.cluster.take_faults();
            match std::mem::replace(&mut wreck.outcome, Err(String::new())) {
                // The boundary fell after the last filesystem write —
                // the run outlived the arming point and must be clean.
                Ok(sums) => assert_eq!(sums, golden, "{ctx}: survivor diverged"),
                Err(_) => {
                    crashed += 1;
                    let sums = restore_and_finish(&mut wreck, &ctx);
                    assert_eq!(sums, golden, "{ctx}: restore diverged");
                }
            }
        }
        assert!(
            crashed > 0,
            "{label}: no boundary actually tripped the crash gate"
        );
    }
}

/// Satellite: after any partition-heal schedule, exactly one writer
/// commits each generation. A writer holds the epoch it observed when
/// it last attached; failovers advance the vault epoch; a healed
/// (stale) writer's commit must be fenced and its staged dump deleted
/// — no double-commit, no orphan tmp file — at every point of the
/// [`CprPolicy`] lattice.
#[test]
fn partition_heal_commits_each_generation_exactly_once() {
    qcheck(
        "partition_heal_commits_each_generation_exactly_once",
        24,
        |g: &mut Gen| {
            let mut policy = CprPolicy::sequential();
            if g.bool() {
                policy = CprPolicy::pipelined();
            }
            policy = policy.dedup(g.bool());
            // Live composes with neither dedup nor recovery.
            if g.bool() && policy.pipelined && !policy.dedup {
                policy = policy.live(true);
            }

            let (script, _bounds) = torture_script();
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut session = launch(&mut cluster, node, script);
            let mut vault = DumpVault::new("/local/fence", "/nfs/fence", 3);

            // The writer's view of the vault epoch: refreshed when it
            // (re)attaches, stale after a failover it has not seen.
            let mut held = vault.epoch();
            let mut committed: Vec<u64> = Vec::new();
            let mut fenced_stages: Vec<String> = Vec::new();

            for _ in 0..g.usize_in(4, 10) {
                match g.usize_in(0, 2) {
                    // Failover elsewhere: the vault epoch advances but
                    // this writer does not hear about it (partition).
                    0 => {
                        vault.advance_epoch();
                    }
                    // The partition heals: the writer re-attaches and
                    // observes the current epoch.
                    1 => {
                        held = vault.epoch();
                    }
                    // The writer stages a dump and tries to commit
                    // under whatever epoch it still holds.
                    _ => {
                        let stage = vault.stage_path();
                        let out = session
                            .checkpoint_with_policy(&mut cluster, &stage, &policy)
                            .expect("stage");
                        if policy.live {
                            session.complete_live_drain(&mut cluster).expect("drain");
                        }
                        let stale = held != vault.epoch();
                        let res = vault.commit_fenced(&mut cluster, session.pid, &out.path, held);
                        if stale {
                            match res {
                                Err(CommitError::Fenced { held: h, current }) => {
                                    assert_eq!(h, held);
                                    assert_eq!(current, vault.epoch());
                                }
                                other => {
                                    panic!("stale writer was not fenced: {other:?}")
                                }
                            }
                            assert!(
                                cluster.peek_file_on(node, &out.path).is_none(),
                                "fenced stage {} survived as an orphan",
                                out.path
                            );
                            fenced_stages.push(out.path);
                        } else {
                            let generation = res.expect("current-epoch commit was refused");
                            committed.push(generation.gen);
                        }
                    }
                }
            }

            // Every committed generation number is unique and
            // consecutive: a fenced writer never burned or reused one.
            for (i, gen) in committed.iter().enumerate() {
                assert_eq!(*gen, i as u64, "generation numbers not dense");
            }
            // The vault retains the newest `keep` of them, and no
            // fenced staging path is a live replica.
            let retained = vault.generations().len();
            assert_eq!(retained, committed.len().min(3));
            for g in vault.generations() {
                assert!(
                    cluster.peek_file_on(node, &g.primary).is_some(),
                    "retained primary {} missing",
                    g.primary
                );
            }
            session.kill(&mut cluster);
        },
    );
}
