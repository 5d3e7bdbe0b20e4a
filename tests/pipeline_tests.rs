//! Property tests for the overlapped (pipelined) checkpoint engine:
//! pipelining never costs wall-clock versus the sequential §III-C
//! procedure, streamed files restart to bit-identical sessions, the
//! channel scheduler never double-books a resource, and a disk fault
//! mid-stream leaves the previous checkpoint generation restorable.

use checl::CprPolicy;
use checl_repro as _;
use osproc::{Cluster, FaultPlan};
use simcore::channels::ChannelSet;
use simcore::qcheck::{qcheck, Gen};
use simcore::{SimDuration, SimTime};
use workloads::{BufInit, CheclSession, Op, Reg, Script, StopCondition};

const KIB: u64 = 1 << 10;

/// A single-device script with `bufs` seeded buffers of the given
/// sizes, a checkpoint stop point, then a checksum read per buffer.
fn buffer_script(sizes: &[u64]) -> (Script, u64) {
    let mut ops = vec![
        Op::GetPlatform { out: 0 },
        Op::GetDevices {
            platform: 0,
            dtype: clspec::types::DeviceType::Gpu,
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
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::CreateBuffer {
            context: 2,
            flags: clspec::types::MemFlags::READ_WRITE,
            size,
            init: Some(BufInit::RandomU32 {
                seed: 0xace0 + i as u64,
            }),
            out: 4 + i as Reg,
        });
    }
    let stop = ops.len() as u64;
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: 4 + i as Reg,
            size,
        });
    }
    (Script { ops }, stop)
}

/// Draw 2–6 buffer sizes of at least 512 KiB (the regime the pipelined
/// engine is built for — overlap must amortise its fixed framing and
/// commit overhead).
fn arbitrary_sizes(g: &mut Gen) -> Vec<u64> {
    (0..g.usize_in(2, 6))
        .map(|_| g.range(512 * KIB, 4096 * KIB))
        .collect()
}

/// Launch, run to the stop point, and hand back session + cluster.
fn session_at_stop(sizes: &[u64]) -> (Cluster, CheclSession, u64) {
    let (script, stop) = buffer_script(sizes);
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let s = CheclSession::launch(
        &mut cluster,
        node,
        cldriver::vendor::nimbus(),
        checl::CheclConfig::default(),
        script,
    );
    (cluster, s, stop)
}

/// (a) On every seeded multi-buffer workload the pipelined engine's
/// wall-clock never exceeds the sequential engine's.
#[test]
fn pipelined_never_slower_than_sequential() {
    qcheck("pipelined_never_slower", 30, |g| {
        let sizes = arbitrary_sizes(g);
        let (mut cluster, mut s, stop) = session_at_stop(&sizes);
        s.run(&mut cluster, StopCondition::AfterOps(stop)).unwrap();
        let seq = s
            .checkpoint_with_policy(&mut cluster, "/local/q-seq.ckpt", &CprPolicy::sequential())
            .unwrap()
            .report;
        let pipe = s
            .checkpoint_with_policy(&mut cluster, "/local/q-pipe.ckpt", &CprPolicy::pipelined())
            .unwrap()
            .report;
        assert!(
            pipe.total() <= seq.total(),
            "pipelined {:?} > sequential {:?} on sizes {sizes:?}",
            pipe.total(),
            seq.total()
        );
        assert!(pipe.overlap_saved > SimDuration::ZERO);
        // The serialized-equivalent accounting says the same thing:
        // busy time is conserved, only the schedule differs.
        assert_eq!(pipe.total() + pipe.overlap_saved, pipe.serialized_total());
    });
}

/// (b) A pipelined checkpoint file restarts to a session whose replayed
/// checksums are identical to one restarted from a sequential dump of
/// the same moment.
#[test]
fn pipelined_file_restarts_bit_identical() {
    qcheck("pipelined_restart_identical", 20, |g| {
        let sizes = arbitrary_sizes(g);
        let (mut cluster, mut s, stop) = session_at_stop(&sizes);
        let node = cluster.node_ids()[0];
        s.run(&mut cluster, StopCondition::AfterOps(stop)).unwrap();
        s.checkpoint_with_policy(&mut cluster, "/local/q-seq.ckpt", &CprPolicy::sequential())
            .unwrap();
        s.checkpoint_with_policy(&mut cluster, "/local/q-pipe.ckpt", &CprPolicy::pipelined())
            .unwrap();
        s.kill(&mut cluster);

        let mut from_seq = CheclSession::restart(
            &mut cluster,
            node,
            "/local/q-seq.ckpt",
            cldriver::vendor::nimbus(),
            checl::RestoreTarget::default(),
        )
        .unwrap();
        from_seq
            .run(&mut cluster, StopCondition::Completion)
            .unwrap();
        let mut from_pipe = CheclSession::restart(
            &mut cluster,
            node,
            "/local/q-pipe.ckpt",
            cldriver::vendor::nimbus(),
            checl::RestoreTarget::default(),
        )
        .unwrap();
        from_pipe
            .run(&mut cluster, StopCondition::Completion)
            .unwrap();
        assert_eq!(
            from_seq.program.checksums, from_pipe.program.checksums,
            "file kinds diverged on sizes {sizes:?}"
        );
        from_seq.kill(&mut cluster);
        from_pipe.kill(&mut cluster);
    });
}

/// (c) The channel scheduler never overlaps two placements on the same
/// channel, for any interleaving of ready times and costs.
#[test]
fn same_channel_work_never_overlaps() {
    qcheck("channel_no_overlap", 200, |g| {
        let origin = SimTime::ZERO + SimDuration::from_nanos(g.range(0, 1_000_000));
        let mut set = ChannelSet::new(origin);
        let names = ["pcie.dev0", "pcie.dev1", "disk.local", "ipc"];
        let mut placed = Vec::new();
        for i in 0..g.usize_in(2, 40) {
            let ch = set.channel(names[g.usize_in(0, names.len() - 1)]);
            let ready = origin + SimDuration::from_nanos(g.range(0, 5_000_000));
            let cost = SimDuration::from_nanos(g.range(0, 2_000_000));
            placed.push(set.place(ch, ready, cost, &format!("op{i}")));
        }
        for (i, a) in set.placements().iter().enumerate() {
            for b in &set.placements()[i + 1..] {
                if a.channel == b.channel {
                    // Two intervals on one channel may touch but never
                    // intersect.
                    assert!(
                        a.end <= b.start || b.end <= a.start,
                        "overlap on shared channel: {a:?} vs {b:?}"
                    );
                }
            }
        }
        // `overlap_saved` is clamped: idle gaps (late ready times) can
        // make wall-clock exceed busy time, but never make "saved"
        // negative.
        assert!(set.total_busy() >= set.overlap_saved());
        assert_eq!(placed.len(), set.placements().len());
    });
}

/// (d) A disk fault striking mid-stream aborts the pipelined checkpoint
/// but leaves the previous generation fully restorable — the tmp+rename
/// commit point is unchanged from the sequential engine.
#[test]
fn mid_stream_fault_leaves_previous_generation_restorable() {
    qcheck("mid_stream_fault_rollback", 20, |g| {
        let sizes = arbitrary_sizes(g);
        let (mut cluster, mut s, stop) = session_at_stop(&sizes);
        let node = cluster.node_ids()[0];
        s.run(&mut cluster, StopCondition::AfterOps(stop)).unwrap();
        // Generation 0 commits before faults arm; alternate its format
        // so rollback is proven onto both file kinds.
        let gen0_pipelined = g.bool();
        let gen0 = if gen0_pipelined {
            CprPolicy::pipelined()
        } else {
            CprPolicy::sequential()
        };
        s.checkpoint_with_policy(&mut cluster, "/local/q-gen0.ckpt", &gen0)
            .unwrap();

        // Arm detectable write faults (hard failures and short writes —
        // both are caught in-line, failures by the append itself and
        // short writes by the stream writer's size probe). They can
        // strike the header frame, any chunk append, or the sealing
        // trailer.
        let mut plan = FaultPlan::new(g.u64())
            .with_write_fail_prob(g.f32_in(0.0, 0.5) as f64)
            .with_short_write_prob(g.f32_in(0.0, 0.4) as f64);
        if g.bool() {
            plan = plan.fail_next_writes(1);
        }
        cluster.install_faults(plan);
        let res =
            s.checkpoint_with_policy(&mut cluster, "/local/q-gen1.ckpt", &CprPolicy::pipelined());
        cluster.take_faults();
        // Either the stream committed and is itself restorable, or the
        // abort left no gen-1 file — never a torn half-commit.
        let restore_from = if res.is_ok() {
            assert!(cluster.file_size_on(node, "/local/q-gen1.ckpt").is_some());
            "/local/q-gen1.ckpt"
        } else {
            assert!(
                cluster.file_size_on(node, "/local/q-gen1.ckpt").is_none(),
                "aborted checkpoint must not leave a committed gen-1 file"
            );
            "/local/q-gen0.ckpt"
        };
        s.kill(&mut cluster);

        let mut revived = CheclSession::restart(
            &mut cluster,
            node,
            restore_from,
            cldriver::vendor::nimbus(),
            checl::RestoreTarget::default(),
        )
        .unwrap();
        revived
            .run(&mut cluster, StopCondition::Completion)
            .unwrap();
        assert_eq!(
            revived.program.checksums.len(),
            sizes.len(),
            "revived run must replay every checksum read"
        );
        revived.kill(&mut cluster);
    });
}
