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
//! and live engine paths. The run and the sweep are
//! `checl_bench::torture`, which `ablation_gray` drives too.
//!
//! A qcheck property closes the fencing story: under any random
//! partition-heal schedule, exactly one writer commits each generation
//! (stale-epoch writers are fenced and their staged dumps deleted), at
//! every point of the [`CprPolicy`] lattice.

use blcr::{CommitError, DumpVault};
use checl::CprPolicy;
use checl_bench::torture::{
    engine_paths, launch_nimbus, torture_script, torture_sweep, TortureBed,
};
use checl_repro as _;
use osproc::Cluster;
use simcore::qcheck::{qcheck, Gen};

/// The tentpole sweep: for every engine path, kill the run at *every*
/// obs-event boundary of the baseline ledger and prove a committed
/// generation restores to the bit-exact baseline checksums.
#[test]
fn every_crash_point_restores_bit_exact() {
    let bed = TortureBed {
        primary: "/local/torture",
        mirror: "/nfs/torture",
        seed: 0xD0C,
    };
    for (label, policy) in engine_paths() {
        let tally = torture_sweep(bed, label, &policy);
        assert!(
            tally.crash_points > 0,
            "{label}: baseline emitted no events"
        );
        assert!(
            tally.kinds.len() >= 2,
            "{label}: ledger too uniform to be a real boundary sweep: {:?}",
            tally.kinds
        );
        assert!(
            tally.restores > 0,
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
            let mut session = launch_nimbus(&mut cluster, node, script);
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
