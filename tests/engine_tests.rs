//! Property tests for the unified checkpoint/restore engine
//! ([`checl::engine`]): every [`checl::CprPolicy`] combination restores
//! bit-identically, pipelining never costs wall-clock against the
//! sequential data path, a mid-dump fault during migration leaves the
//! previous checkpoint generation restorable, and a pipelined + robust
//! migration survives a transient disk fault across a vendor switch.

use blcr::RetryPolicy;
use checl::{CheclConfig, CprPolicy, RecoveryPolicy, RestoreTarget};
use checl_repro as _;
use clspec::types::DeviceType;
use osproc::{Cluster, FaultPlan};
use simcore::codec::Codec;
use simcore::qcheck::{qcheck, Gen};
use simcore::SimTime;
use workloads::{AppProgram, BufInit, CheclSession, Op, Reg, Script, StopCondition, APP_SEGMENT};

const KIB: u64 = 1 << 10;

/// Single-device script: seeded buffers, a pause after creation, a
/// rewrite of half the buffers (dirtying them), a second pause — the
/// snapshot under test lands here — then a checksum per buffer.
fn dirty_script(sizes: &[u64]) -> (Script, u64, u64) {
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
                seed: 0xe9e + i as u64,
            }),
            out: buf0 + i as Reg,
        });
    }
    let stop_create = ops.len() as u64;
    for (i, &size) in sizes.iter().enumerate().take(sizes.len().div_ceil(2)) {
        ops.push(Op::WriteBuffer {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
            init: BufInit::RandomU32 {
                seed: 0xd1a7 + i as u64,
            },
        });
    }
    let stop_dirty = ops.len() as u64;
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
        });
    }
    (Script { ops }, stop_create, stop_dirty)
}

/// Draw 2–5 buffer sizes of at least 512 KiB (the regime the pipelined
/// engine is built for — overlap must amortise its fixed framing and
/// commit overhead).
fn arbitrary_sizes(g: &mut Gen) -> Vec<u64> {
    (0..g.usize_in(2, 5))
        .map(|_| g.range(512, 2048) * KIB)
        .collect()
}

/// Draw one point of the policy lattice: pipelined × dedup × recovery
/// (with and without read-back verification).
fn arbitrary_policy(g: &mut Gen) -> CprPolicy {
    let mut policy = CprPolicy::sequential();
    if g.bool() {
        policy.pipelined = true;
    }
    policy = policy.dedup(g.bool());
    if g.bool() {
        policy = policy.with_recovery(RecoveryPolicy {
            retry: RetryPolicy {
                verify: g.bool(),
                ..RetryPolicy::default()
            },
            fallback_targets: Vec::new(),
        });
    }
    policy
}

/// Resume `path` and replay the rest of the script; the restart side
/// always goes through the sniffing entry point, so sequential and
/// streamed dumps are told apart by the file itself.
fn resumed_checksums(cluster: &mut Cluster, node: osproc::NodeId, path: &str) -> Vec<u64> {
    let mut s = CheclSession::restart(
        cluster,
        node,
        path,
        cldriver::vendor::nimbus(),
        RestoreTarget::default(),
    )
    .expect("restart failed");
    s.run(cluster, StopCondition::Completion).unwrap();
    let sums = s.program.checksums.clone();
    s.kill(cluster);
    sums
}

/// Every point of the policy lattice snapshots to a file that resumes
/// to a checksum-identical run — pipelining, content-addressed payloads
/// and commit hardening never change restored bytes.
#[test]
fn every_policy_combination_restores_bit_identical() {
    qcheck("every_policy_combination_restores_bit_identical", 16, |g| {
        let sizes = arbitrary_sizes(g);
        let policy = arbitrary_policy(g);
        let (script, stop_create, stop_dirty) = dirty_script(&sizes);
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            script,
        );
        s.run(&mut cluster, StopCondition::AfterOps(stop_create))
            .unwrap();
        // Baseline generation under the same policy: a dedup snapshot
        // re-emits the untouched half of the buffers from its chunk
        // lists without reading them back.
        s.checkpoint_with_policy(&mut cluster, "/nfs/engine-base.ckpt", &policy)
            .unwrap();
        s.run(&mut cluster, StopCondition::AfterOps(stop_dirty))
            .unwrap();
        let outcome = s
            .checkpoint_with_policy(&mut cluster, "/nfs/engine-under-test.ckpt", &policy)
            .unwrap_or_else(|e| panic!("snapshot failed under {policy:?}: {e}"));
        assert_eq!(outcome.path, "/nfs/engine-under-test.ckpt");
        assert_eq!(outcome.recovery.is_some(), policy.recovery.is_some());
        // The undisturbed session finishes; its checksum log is golden.
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        let golden = s.program.checksums.clone();
        s.kill(&mut cluster);
        let sums = resumed_checksums(&mut cluster, node, &outcome.path);
        assert_eq!(sums, golden, "restore diverged under {policy:?}");
    });
}

/// The overlapped data path is a pure optimisation: for the same
/// session state a pipelined snapshot's wall-clock never exceeds the
/// sequential snapshot's.
#[test]
fn pipelined_never_exceeds_sequential_wall_clock() {
    qcheck("pipelined_never_exceeds_sequential_wall_clock", 16, |g| {
        let sizes = arbitrary_sizes(g);
        let (script, _stop_create, stop_dirty) = dirty_script(&sizes);
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            script,
        );
        s.run(&mut cluster, StopCondition::AfterOps(stop_dirty))
            .unwrap();
        let seq = s
            .checkpoint_with_policy(
                &mut cluster,
                "/local/engine-seq.ckpt",
                &CprPolicy::sequential(),
            )
            .unwrap();
        let pipe = s
            .checkpoint_with_policy(
                &mut cluster,
                "/local/engine-pipe.ckpt",
                &CprPolicy::pipelined(),
            )
            .unwrap();
        assert!(
            pipe.report.total() <= seq.report.total(),
            "pipelined {:?} exceeded sequential {:?} on {} buffers",
            pipe.report.total(),
            seq.report.total(),
            sizes.len()
        );
        s.kill(&mut cluster);
    });
}

/// A fault injected mid-dump during migration must not orphan the job:
/// the migration reports the error with the source generation intact,
/// and restarting from the previous checkpoint reproduces the
/// undisturbed run exactly.
#[test]
fn failed_migration_leaves_previous_generation_restorable() {
    qcheck(
        "failed_migration_leaves_previous_generation_restorable",
        8,
        |g| {
            let sizes = arbitrary_sizes(g);
            let (script, stop_create, stop_dirty) = dirty_script(&sizes);
            // Golden: the same program, undisturbed, to completion.
            let golden = {
                let mut cluster = Cluster::with_standard_nodes(1);
                let node = cluster.node_ids()[0];
                let mut s = CheclSession::launch(
                    &mut cluster,
                    node,
                    cldriver::vendor::nimbus(),
                    CheclConfig::default(),
                    script.clone(),
                );
                s.run(&mut cluster, StopCondition::Completion).unwrap();
                let sums = s.program.checksums.clone();
                s.kill(&mut cluster);
                sums
            };
            let mut cluster = Cluster::with_standard_nodes(2);
            let nodes = cluster.node_ids();
            let mut s = CheclSession::launch(
                &mut cluster,
                nodes[0],
                cldriver::vendor::nimbus(),
                CheclConfig::default(),
                script,
            );
            s.run(&mut cluster, StopCondition::AfterOps(stop_create))
                .unwrap();
            s.checkpoint_with_policy(
                &mut cluster,
                "/nfs/engine-gen1.ckpt",
                &CprPolicy::sequential(),
            )
            .unwrap();
            s.run(&mut cluster, StopCondition::AfterOps(stop_dirty))
                .unwrap();
            // The migration dump dies mid-write (hard failure or short
            // write, fault-plan-seeded); no recovery policy, so the error
            // must propagate out of the migration.
            let seed = g.u64();
            let plan = if g.bool() {
                FaultPlan::new(seed).fail_next_writes(1)
            } else {
                FaultPlan::new(seed).short_next_writes(1)
            }
            .only_paths_containing("/nfs/engine-mig");
            cluster.install_faults(plan);
            let failed = s.migrate_with_policy(
                &mut cluster,
                nodes[1],
                cldriver::vendor::crimson(),
                "/nfs/engine-mig.ckpt",
                RestoreTarget::default(),
                &CprPolicy::pipelined(),
            );
            assert!(failed.is_err(), "mid-dump fault must fail the migration");
            // The generation-1 file is untouched and still restores the
            // exact bytes of the undisturbed run.
            let sums = resumed_checksums(&mut cluster, nodes[0], "/nfs/engine-gen1.ckpt");
            assert_eq!(
                sums, golden,
                "previous generation diverged after failed migration"
            );
        },
    );
}

/// The PR's acceptance scenario: a pipelined + robust migration from
/// the Tesla platform to the Radeon platform (randomly onto its GPU or
/// its CPU device) completes bit-identically even though the first
/// dump write fails transiently.
#[test]
fn robust_pipelined_migration_survives_transient_fault_across_vendors() {
    qcheck(
        "robust_pipelined_migration_survives_transient_fault_across_vendors",
        6,
        |g| {
            let sizes = arbitrary_sizes(g);
            let (script, _stop_create, stop_dirty) = dirty_script(&sizes);
            let golden = {
                let mut cluster = Cluster::with_standard_nodes(1);
                let node = cluster.node_ids()[0];
                let mut s = CheclSession::launch(
                    &mut cluster,
                    node,
                    cldriver::vendor::nimbus(),
                    CheclConfig::default(),
                    script.clone(),
                );
                s.run(&mut cluster, StopCondition::Completion).unwrap();
                let sums = s.program.checksums.clone();
                s.kill(&mut cluster);
                sums
            };
            let mut cluster = Cluster::with_standard_nodes(2);
            let nodes = cluster.node_ids();
            let mut s = CheclSession::launch(
                &mut cluster,
                nodes[0],
                cldriver::vendor::nimbus(),
                CheclConfig::default(),
                script,
            );
            s.run(&mut cluster, StopCondition::AfterOps(stop_dirty))
                .unwrap();
            cluster.install_faults(FaultPlan::new(g.u64()).fail_next_writes(1));
            let policy = CprPolicy::pipelined().with_recovery(RecoveryPolicy {
                retry: RetryPolicy::default(),
                fallback_targets: Vec::new(),
            });
            let device_type = if g.bool() {
                Some(DeviceType::Cpu)
            } else {
                None
            };
            let (mut resumed, report) = s
                .migrate_with_policy(
                    &mut cluster,
                    nodes[1],
                    cldriver::vendor::crimson(),
                    "/nfs/engine-robust-mig.ckpt",
                    RestoreTarget { device_type },
                    &policy,
                )
                .expect("robust migration must survive one transient fault");
            let recovery = report.recovery.expect("recovery accounting present");
            assert!(
                recovery.attempts >= 2,
                "the transient fault must have cost a retry"
            );
            resumed
                .run(&mut cluster, StopCondition::Completion)
                .unwrap();
            assert_eq!(
                resumed.program.checksums, golden,
                "cross-vendor migration diverged onto {device_type:?}"
            );
            resumed.kill(&mut cluster);
        },
    );
}

/// A sequential dump is restored by the process that read and sniffed
/// it: `checl::restore` reads the file exactly once, and the restart's
/// virtual cost and the restored bytes are those of the classic BLCR
/// restart.
#[test]
fn sequential_restore_reads_the_dump_once() {
    let sizes = [512 * KIB, 768 * KIB];
    let (script, _, stop_dirty) = dirty_script(&sizes);
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let vendor = cldriver::vendor::nimbus;
    let mut baseline = CheclSession::launch(
        &mut cluster,
        node,
        vendor(),
        CheclConfig::default(),
        script.clone(),
    );
    baseline
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    let expected = baseline.program.checksums.clone();
    baseline.kill(&mut cluster);

    let path = "/local/once.ckpt";
    let mut s = CheclSession::launch(&mut cluster, node, vendor(), CheclConfig::default(), script);
    s.run(&mut cluster, StopCondition::AfterOps(stop_dirty))
        .unwrap();
    s.checkpoint_with_policy(&mut cluster, path, &CprPolicy::sequential())
        .unwrap();
    s.kill(&mut cluster);

    let (fs, _) = cluster.node(node).resolve(path).unwrap();
    let reads = cluster.fs(fs).stats().reads;
    let (lib, pid, _) =
        checl::restore(&mut cluster, node, path, vendor(), RestoreTarget::default()).unwrap();
    assert_eq!(
        cluster.fs(fs).stats().reads - reads,
        1,
        "one read of the dump"
    );
    // Virtual time is deterministic: one file read, the proxy fork and
    // the object re-creation add up to the same restart cost every run.
    let restart = cluster.process(pid).clock.since(SimTime::ZERO);
    assert_eq!(restart.as_nanos(), 373_383_985);

    let state = cluster.process(pid).image.get(APP_SEGMENT).unwrap();
    let program = AppProgram::from_bytes(state).unwrap();
    let mut resumed = CheclSession { pid, lib, program };
    resumed
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    assert_eq!(resumed.program.checksums, expected);
}
