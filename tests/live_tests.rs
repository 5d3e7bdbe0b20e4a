//! Property tests for the live copy-on-write checkpoint mode
//! ([`checl::CprPolicy::live`]): a live cut restores bit-identically
//! to its quiesce point no matter how the application mutates buffers
//! while the background drain is in flight, at every point of the
//! policy lattice; a mid-drain fault leaves the previous generation
//! restorable; the live stall never exceeds the stop-the-world
//! sequential total for the same session state; and the combinations
//! a live drain cannot honour are refused with a typed error.

use checl::{CheclConfig, CheclCprError, CprPolicy, RecoveryPolicy, RestoreTarget};
use checl_repro as _;
use clspec::types::DeviceType;
use osproc::{Cluster, FaultPlan};
use simcore::qcheck::{qcheck, Gen};
use workloads::{BufInit, CheclSession, Op, Reg, Script, StopCondition};

const KIB: u64 = 1 << 10;

/// Single-device script shaped for a mid-run cut: seeded buffers, a
/// first mutation wave (the cut lands after it), then a *post-cut*
/// wave that rewrites every buffer — whole-buffer writes on the second
/// half, prefix writes on the first half — so a live drain is always
/// racing concurrent mutation. Checksums of every buffer close it out.
fn live_script(sizes: &[u64]) -> (Script, u64, u64) {
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
                seed: 0x11fe + i as u64,
            }),
            out: buf0 + i as Reg,
        });
    }
    let stop_create = ops.len() as u64;
    let half = sizes.len().div_ceil(2);
    for (i, &size) in sizes.iter().enumerate().take(half) {
        ops.push(Op::WriteBuffer {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
            init: BufInit::RandomU32 {
                seed: 0xd1a7 + i as u64,
            },
        });
    }
    let stop_cut = ops.len() as u64;
    // Post-cut wave: these ops race the background drain and must
    // trigger copy-on-write forks of the not-yet-drained cut bytes.
    for (i, &size) in sizes.iter().enumerate() {
        let write = if i < half { (size / 2).max(4) } else { size };
        ops.push(Op::WriteBuffer {
            queue: 3,
            buf: buf0 + i as Reg,
            size: write,
            init: BufInit::RandomU32 {
                seed: 0xc0c0 + i as u64,
            },
        });
    }
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
        });
    }
    (Script { ops }, stop_create, stop_cut)
}

/// Draw 2–5 buffer sizes of at least 256 KiB (several 64 KiB COW
/// grains each, so forks exercise partial coverage).
fn arbitrary_sizes(g: &mut Gen) -> Vec<u64> {
    (0..g.usize_in(2, 5))
        .map(|_| g.range(256, 1024) * KIB)
        .collect()
}

/// Draw one live point of the policy lattice: pipelined or not, with
/// the live axis on (live composes with neither dedup nor recovery).
fn arbitrary_live_policy(g: &mut Gen) -> CprPolicy {
    let mut policy = CprPolicy::sequential();
    if g.bool() {
        policy.pipelined = true;
    }
    policy.live(true)
}

fn launch(cluster: &mut Cluster, node: osproc::NodeId, script: Script) -> CheclSession {
    CheclSession::launch(
        cluster,
        node,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        script,
    )
}

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

/// At every live point of the policy lattice, a cut taken mid-run
/// restores bit-identically to its quiesce point even though every
/// buffer is overwritten while the drain is still in flight — and the
/// cut itself never perturbs the application's own results.
#[test]
fn live_restores_bit_identical_under_concurrent_mutation() {
    qcheck(
        "live_restores_bit_identical_under_concurrent_mutation",
        16,
        |g| {
            let sizes = arbitrary_sizes(g);
            let policy = arbitrary_live_policy(g);
            let (script, _stop_create, stop_cut) = live_script(&sizes);
            // Golden: the same program, never checkpointed.
            let golden = {
                let mut cluster = Cluster::with_standard_nodes(1);
                let node = cluster.node_ids()[0];
                let mut s = launch(&mut cluster, node, script.clone());
                s.run(&mut cluster, StopCondition::Completion).unwrap();
                let sums = s.program.checksums.clone();
                s.kill(&mut cluster);
                sums
            };
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s = launch(&mut cluster, node, script);
            s.run(&mut cluster, StopCondition::AfterOps(stop_cut))
                .unwrap();
            let outcome = s
                .checkpoint_with_policy(&mut cluster, "/nfs/live-cut.ckpt", &policy)
                .unwrap_or_else(|e| panic!("live snapshot failed under {policy:?}: {e}"));
            // The cut returns before the payload hits the disk.
            assert_eq!(
                outcome.report.write,
                simcore::SimDuration::ZERO,
                "a live cut must not charge the write phase to the stall"
            );
            // Concurrent mutation: every buffer is overwritten while
            // the drain races it.
            s.run(&mut cluster, StopCondition::Completion).unwrap();
            let own = s.program.checksums.clone();
            assert_eq!(own, golden, "the live cut perturbed the run ({policy:?})");
            let drained = s
                .complete_live_drain(&mut cluster)
                .unwrap_or_else(|e| panic!("drain failed under {policy:?}: {e}"))
                .expect("a live drain was parked");
            assert_eq!(drained.path, "/nfs/live-cut.ckpt");
            s.kill(&mut cluster);
            let sums = resumed_checksums(&mut cluster, node, &drained.path);
            assert_eq!(sums, golden, "live restore diverged under {policy:?}");
        },
    );
}

/// A fault that kills the background drain mid-flight must not orphan
/// the job: the seal fails loudly, the sealed previous generation
/// still restores the exact bytes of the undisturbed run, and the
/// half-written temp never shadows the committed path.
#[test]
fn failed_drain_leaves_previous_generation_restorable() {
    qcheck(
        "failed_drain_leaves_previous_generation_restorable",
        8,
        |g| {
            let sizes = arbitrary_sizes(g);
            let (script, _stop_create, stop_cut) = live_script(&sizes);
            let golden = {
                let mut cluster = Cluster::with_standard_nodes(1);
                let node = cluster.node_ids()[0];
                let mut s = launch(&mut cluster, node, script.clone());
                s.run(&mut cluster, StopCondition::Completion).unwrap();
                let sums = s.program.checksums.clone();
                s.kill(&mut cluster);
                sums
            };
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s = launch(&mut cluster, node, script);
            s.run(&mut cluster, StopCondition::AfterOps(stop_cut))
                .unwrap();
            // Generation 1: a sealed live checkpoint (cut + full drain).
            let policy = CprPolicy::pipelined().live(true);
            s.checkpoint_with_policy(&mut cluster, "/nfs/live-gen1.ckpt", &policy)
                .unwrap();
            s.complete_live_drain(&mut cluster)
                .unwrap()
                .expect("generation 1 drain parked");
            // Generation 2 cuts, then its drain dies on the temp file
            // (hard failure or short write, fault-plan-seeded).
            s.checkpoint_with_policy(&mut cluster, "/nfs/live-gen2.ckpt", &policy)
                .unwrap();
            s.run(&mut cluster, StopCondition::Completion).unwrap();
            let seed = g.u64();
            let plan = if g.bool() {
                FaultPlan::new(seed).fail_next_writes(1)
            } else {
                FaultPlan::new(seed).short_next_writes(1)
            }
            .only_paths_containing("/nfs/live-gen2");
            cluster.install_faults(plan);
            let failed = s.complete_live_drain(&mut cluster);
            assert!(failed.is_err(), "mid-drain fault must fail the seal");
            s.kill(&mut cluster);
            // The committed path was never created by the aborted drain…
            assert!(
                cluster.peek_file_on(node, "/nfs/live-gen2.ckpt").is_none(),
                "an aborted drain must not publish its target path"
            );
            // …and generation 1 still restores the undisturbed bytes.
            let sums = resumed_checksums(&mut cluster, node, "/nfs/live-gen1.ckpt");
            assert_eq!(
                sums, golden,
                "previous generation diverged after failed drain"
            );
        },
    );
}

/// The live mode is a pure stall optimisation: for the same session
/// state, the cut's interruption (quiesce + stamping + every COW fork
/// the drain later charges) never exceeds the stop-the-world
/// sequential snapshot's total.
#[test]
fn live_stall_never_exceeds_sequential_total() {
    qcheck("live_stall_never_exceeds_sequential_total", 16, |g| {
        let sizes = arbitrary_sizes(g);
        let (script, _stop_create, stop_cut) = live_script(&sizes);
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = launch(&mut cluster, node, script);
        s.run(&mut cluster, StopCondition::AfterOps(stop_cut))
            .unwrap();
        let seq = s
            .checkpoint_with_policy(
                &mut cluster,
                "/local/live-seq.ckpt",
                &CprPolicy::sequential(),
            )
            .unwrap();
        s.checkpoint_with_policy(
            &mut cluster,
            "/local/live-live.ckpt",
            &CprPolicy::pipelined().live(true),
        )
        .unwrap();
        // Mutate everything while the drain runs, then seal.
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        let drained = s
            .complete_live_drain(&mut cluster)
            .unwrap()
            .expect("a live drain was parked");
        let stall = drained.stall.total() + drained.fork_stall;
        assert!(
            stall <= seq.report.total(),
            "live stall {:?} exceeded sequential total {:?} on {} buffers",
            stall,
            seq.report.total(),
            sizes.len()
        );
        s.kill(&mut cluster);
    });
}

/// A live drain writes its payload inline under its own temp-and-rename
/// commit, so `live + dedup` and `live + recovery` are refused up front
/// with one typed error — nothing is quiesced, written or parked — and
/// the session goes on to checkpoint and restore normally.
#[test]
fn live_rejects_dedup_and_recovery() {
    let (script, _stop_create, stop_cut) = live_script(&[256 * KIB, 512 * KIB]);
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = launch(&mut cluster, node, script.clone());
    s.run(&mut cluster, StopCondition::AfterOps(stop_cut))
        .unwrap();
    let live = CprPolicy::pipelined().live(true);
    for policy in [
        live.clone().dedup(true),
        live.clone().with_recovery(RecoveryPolicy::default()),
        live.dedup(true).with_recovery(RecoveryPolicy::default()),
    ] {
        let before = cluster.process(s.pid).clock;
        match s.checkpoint_with_policy(&mut cluster, "/nfs/live-bad.ckpt", &policy) {
            Err(CheclCprError::UnsupportedPolicy(label)) => assert_eq!(label, policy.label()),
            other => panic!("{} was not refused: {other:?}", policy.label()),
        }
        assert_eq!(
            cluster.process(s.pid).clock,
            before,
            "a refusal costs no time"
        );
        assert!(cluster.peek_file_on(node, "/nfs/live-bad.ckpt").is_none());
        assert!(cluster
            .peek_file_on(node, "/nfs/live-bad.ckpt.tmp")
            .is_none());
    }
    let out = s
        .checkpoint_with_policy(&mut cluster, "/nfs/live-ok.ckpt", &CprPolicy::pipelined())
        .unwrap();
    s.run(&mut cluster, StopCondition::Completion).unwrap();
    let golden = s.program.checksums.clone();
    s.kill(&mut cluster);
    assert_eq!(resumed_checksums(&mut cluster, node, &out.path), golden);
}
