//! Dump files carry the process-baseline padding as a run of zeros kept
//! as a length. Both dump formats are checked for the two things that
//! must not depend on it: a restore reads and costs the file as if the
//! zeros were real bytes, and a flipped byte in the padding is ignored
//! by the restore (no frame covers it) but caught by the vault's
//! whole-file hash, in the lineage walk and the scrub.

use blcr::{DumpVault, ScrubReport};
use checl::obs::{verify_lineage, LineageError};
use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_repro as _;
use clspec::types::DeviceType;
use osproc::FileBytes;
use osproc::{Cluster, NodeId};
use simcore::obs::{self, ProvenanceGraph};
use simcore::qcheck::qcheck;
use workloads::{BufInit, CheclSession, Op, Reg, Script, StopCondition};

const KIB: u64 = 1 << 10;

/// Seeded buffers, a pause (where the dump lands), then a checksum per
/// buffer.
fn script() -> (Script, u64) {
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
    let sizes = [256 * KIB, 96 * KIB];
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::CreateBuffer {
            context: 2,
            flags: clspec::types::MemFlags::READ_WRITE,
            size,
            init: Some(BufInit::RandomU32 {
                seed: 0x7a11 + i as u64,
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

fn resumed_checksums(cluster: &mut Cluster, node: NodeId, path: &str) -> Vec<u64> {
    let mut s = CheclSession::restart(
        cluster,
        node,
        path,
        cldriver::vendor::nimbus(),
        RestoreTarget::default(),
    )
    .expect("a flip in the padding must not fail the restore");
    s.run(cluster, StopCondition::Completion).unwrap();
    let sums = s.program.checksums.clone();
    s.kill(cluster);
    sums
}

#[test]
fn dense_and_sparse_copies_restore_alike() {
    for policy in [CprPolicy::sequential(), CprPolicy::pipelined()] {
        let (script, stop) = script();
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            script,
        );
        s.run(&mut cluster, StopCondition::AfterOps(stop)).unwrap();
        s.checkpoint_with_policy(&mut cluster, "/local/sparse.ckpt", &policy)
            .unwrap();
        s.kill(&mut cluster);
        let sparse = cluster.peek_file_on(node, "/local/sparse.ckpt").unwrap();
        assert!(sparse.zero_tail() > 0);
        let dense = FileBytes::from(sparse.to_vec());
        let writer = cluster.spawn(node);
        cluster
            .write_file(writer, "/local/dense.ckpt", dense)
            .unwrap();
        let mut restored = Vec::new();
        for path in ["/local/sparse.ckpt", "/local/dense.ckpt"] {
            let (_, pid, report) = checl::restore(
                &mut cluster,
                node,
                path,
                cldriver::vendor::nimbus(),
                RestoreTarget::default(),
            )
            .unwrap();
            restored.push((report, cluster.process(pid).clock));
            cluster.kill(pid);
        }
        assert_eq!(restored[0], restored[1], "{}", policy.label());
    }
}

#[test]
fn tail_flips_are_harmless_to_restore_and_visible_to_the_vault() {
    qcheck("tail_flips_are_harmless_to_restore", 4, |g| {
        for policy in [CprPolicy::sequential(), CprPolicy::pipelined()] {
            let (script, stop) = script();
            let mut cluster = Cluster::with_standard_nodes(1);
            let node = cluster.node_ids()[0];
            let mut s = CheclSession::launch(
                &mut cluster,
                node,
                cldriver::vendor::nimbus(),
                CheclConfig::default(),
                script,
            );
            s.run(&mut cluster, StopCondition::AfterOps(stop)).unwrap();
            let mut vault = DumpVault::new("/local/tail", "/nfs/tail", 2);
            obs::start_recording();
            let outcome = s
                .checkpoint_with_policy(&mut cluster, &vault.stage_path(), &policy)
                .unwrap();
            let generation = vault.commit_at(&mut cluster, s.pid, &outcome.path).unwrap();
            let graph = ProvenanceGraph::from_ledger(&obs::stop_recording().unwrap());
            verify_lineage(&cluster, node, &graph, &generation.primary).unwrap();
            s.run(&mut cluster, StopCondition::Completion).unwrap();
            let golden = s.program.checksums.clone();
            s.kill(&mut cluster);

            // Flip one bit of the primary's padding, out of band.
            let mut file = cluster
                .peek_file_on(node, &generation.primary)
                .unwrap()
                .clone();
            let body = file.body().len() as u64;
            let pos = body + g.range(0, file.len() - body);
            file.flip(pos, 1 << g.range(0, 8));
            let intruder = cluster.spawn(node);
            cluster
                .write_file(intruder, &generation.primary, file)
                .unwrap();

            let err = verify_lineage(&cluster, node, &graph, &generation.primary)
                .expect_err("a tail flip must not verify");
            match err {
                LineageError::ChecksumMismatch { path, .. } => {
                    assert_eq!(path, generation.primary, "{}", policy.label())
                }
                other => panic!("expected a checksum mismatch, got {other}"),
            }

            let sums = resumed_checksums(&mut cluster, node, &generation.primary);
            assert_eq!(sums, golden, "restore diverged ({})", policy.label());

            let report = vault.scrub(&mut cluster, intruder);
            assert_eq!(
                report,
                ScrubReport {
                    verified: 1,
                    repaired: 1,
                    lost: 0
                },
                "{}",
                policy.label()
            );
            let repaired = cluster.peek_file_on(node, &generation.primary).unwrap();
            assert_eq!(repaired.fnv64(), generation.hash);
            verify_lineage(&cluster, node, &graph, &generation.primary).unwrap();
        }
    });
}
