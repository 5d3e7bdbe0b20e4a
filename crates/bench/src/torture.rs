//! The crash-point torture fixture shared by `ablation_gray` and
//! `tests/torture_tests.rs`.
//!
//! A supervised run is a dump → drain → commit → GC sequence; every
//! obs-event boundary inside it is a place the node can die. A baseline
//! pass records the full event ledger of a three-generation
//! checkpointed run, then the same run is replayed once *per event*,
//! armed with [`FaultPlan::crash_after_events`] so the filesystem goes
//! dark at exactly that boundary. Whatever the wreckage — a torn chunk
//! store, an unsealed live drain, a half-mirrored generation, a GC that
//! deleted the old dump but died before the new one sealed — the vault
//! chain must still restore a generation that runs to the bit-exact
//! baseline checksums.
//!
//! Callers pass their own vault bases and fault seed: a dump path's
//! length is part of the dumped state, so it moves file sizes and
//! virtual times.

use std::collections::BTreeSet;

use blcr::DumpVault;
use checl::{CheclConfig, CprPolicy, RestoreTarget};
use clspec::types::DeviceType;
use osproc::{Cluster, FaultPlan, NodeId};
use simcore::obs;
use workloads::{BufInit, CheclSession, Op, Reg, Script, StopCondition};

const KIB: u64 = 1 << 10;

/// Three mutation waves over three buffers, with checksums at the end.
/// Returns the script and the op-count boundaries after each wave —
/// the torture loop cuts a generation at each boundary, so every
/// committed generation snapshots genuinely different buffer bytes.
pub fn torture_script() -> (Script, [u64; 3]) {
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

/// Launch `script` under CheCL on `node` with the Nimbus vendor, the
/// torture runs' only target.
pub fn launch_nimbus(cluster: &mut Cluster, node: NodeId, script: Script) -> CheclSession {
    CheclSession::launch(
        cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        script,
    )
}

/// Where a torture run keeps its vault, and the seed of its fault plan.
#[derive(Clone, Copy, Debug)]
pub struct TortureBed<'a> {
    /// Primary replica base, e.g. `/local/torture`.
    pub primary: &'a str,
    /// Mirror replica base, e.g. `/nfs/torture`.
    pub mirror: &'a str,
    /// Seed of the crash-arming [`FaultPlan`].
    pub seed: u64,
}

/// What one torture run leaves behind: the cluster (with whatever the
/// crash tore), the vault metadata, and either the completed run's
/// checksums or the error that surfaced the crash.
pub struct Wreckage {
    /// The cluster, faults still installed.
    pub cluster: Cluster,
    /// The vault the run committed into.
    pub vault: DumpVault,
    /// The node the run lived on.
    pub node: NodeId,
    /// The final checksums, or the error the crash surfaced as.
    pub outcome: Result<Vec<u64>, String>,
    /// The obs ledger from the arming point on.
    pub ledger: Option<obs::Ledger>,
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
pub fn torture_run(bed: TortureBed, policy: &CprPolicy, crash_after: Option<u64>) -> Wreckage {
    let (script, bounds) = torture_script();
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut session = launch_nimbus(&mut cluster, node, script);
    let mut vault = DumpVault::new(bed.primary, bed.mirror, 2);

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
        cluster.install_faults(FaultPlan::new(bed.seed).crash_after_events(k));
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
pub fn restore_and_finish(wreck: &mut Wreckage, context: &str) -> Vec<u64> {
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

/// The engine paths a sweep covers, with their labels.
pub fn engine_paths() -> [(&'static str, CprPolicy); 4] {
    [
        ("sequential", CprPolicy::sequential()),
        ("pipelined", CprPolicy::pipelined()),
        ("dedup", CprPolicy::pipelined().dedup(true)),
        ("live", CprPolicy::pipelined().live(true)),
    ]
}

/// The tally of one policy's crash-point sweep.
pub struct TortureTally {
    /// Obs events in the un-armed baseline ledger: one crash point each.
    pub crash_points: u64,
    /// Replays that completed past their arming point.
    pub survivors: u64,
    /// Replays that crashed and restored a committed generation.
    pub restores: u64,
    /// Distinct event kinds the baseline emitted.
    pub kinds: BTreeSet<&'static str>,
}

/// Kill the run at *every* obs-event boundary of the baseline ledger
/// under `policy`. Every survivor, and every crashed run restored from
/// the vault chain and run to completion, must reproduce the
/// baseline's checksums bit-exact.
pub fn torture_sweep(bed: TortureBed, label: &str, policy: &CprPolicy) -> TortureTally {
    let baseline = torture_run(bed, policy, None);
    let golden = baseline
        .outcome
        .unwrap_or_else(|e| panic!("{label}: baseline failed: {e}"));
    let ledger = baseline.ledger.expect("baseline ledger");
    let mut tally = TortureTally {
        crash_points: ledger.len() as u64,
        survivors: 0,
        restores: 0,
        kinds: ledger.events().iter().map(|e| e.kind.name()).collect(),
    };
    for k in 1..=tally.crash_points {
        let ctx = format!("{label} @ boundary {k}/{}", tally.crash_points);
        let mut wreck = torture_run(bed, policy, Some(k));
        // Disarm: the node is "replaced", the filesystem works again.
        wreck.cluster.take_faults();
        match std::mem::replace(&mut wreck.outcome, Err(String::new())) {
            // The boundary fell after the last filesystem write — the
            // run outlived the arming point and must be clean.
            Ok(sums) => {
                assert_eq!(sums, golden, "{ctx}: survivor diverged");
                tally.survivors += 1;
            }
            Err(_) => {
                let sums = restore_and_finish(&mut wreck, &ctx);
                assert_eq!(sums, golden, "{ctx}: restore diverged");
                tally.restores += 1;
            }
        }
    }
    tally
}
