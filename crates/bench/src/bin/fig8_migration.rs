//! Regenerates Fig. 8: migration cost prediction — actual migration
//! time vs the model `Tm = α·M + Tr + β`, alongside checkpoint file
//! size.
//!
//! Each benchmark is migrated from node 0 to node 1 through the shared
//! NFS mount; the model is fitted from Table I bandwidths and the
//! destination compiler's recompilation estimate.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_bench::{eval_targets, Cell, FigureWriter, TraceSession, HARNESS_SCALE};
use clspec::types::{DeviceType, MemFlags};
use osproc::Cluster;
use workloads::{all_workloads, BufInit, CheclSession, Op, Reg, Script, StopCondition};

const MIB: u64 = 1 << 20;

/// Multi-buffer migration script: seeded buffers, a pause at the
/// migration point, then a checksum of every buffer — executed on the
/// destination after the move, so the log proves the dump carried the
/// device data across the vendor switch intact.
fn migration_script(bufs: usize, size: u64) -> (Script, u64) {
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
    for i in 0..bufs {
        ops.push(Op::CreateBuffer {
            context: 2,
            flags: MemFlags::READ_WRITE,
            size,
            init: Some(BufInit::RandomU32 {
                seed: 0xf18a + i as u64,
            }),
            out: buf0 + i as Reg,
        });
    }
    let stop_setup = ops.len() as u64;
    for i in 0..bufs {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
        });
    }
    (Script { ops }, stop_setup)
}

/// Migrate one scenario nimbus → crimson under `policy` and finish the
/// script on the destination; returns the report plus the destination
/// run's checksum log.
fn migrate_scenario(
    bufs: usize,
    size: u64,
    path: &str,
    policy: &CprPolicy,
) -> (checl::MigrationReport, Vec<u64>) {
    let (script, stop_setup) = migration_script(bufs, size);
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let mut s = CheclSession::launch(
        &mut cluster,
        nodes[0],
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
        script,
    );
    s.run(&mut cluster, StopCondition::AfterOps(stop_setup))
        .unwrap();
    let (mut resumed, report) = s
        .migrate_with_policy(
            &mut cluster,
            nodes[1],
            cldriver::vendor::crimson(),
            path,
            RestoreTarget::default(),
            policy,
        )
        .expect("migration failed");
    resumed
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    let sums = resumed.program.checksums.clone();
    resumed.kill(&mut cluster);
    (report, sums)
}

fn main() {
    let trace = TraceSession::from_args();
    let mut fig = FigureWriter::new("fig8_migration");
    for target in eval_targets() {
        fig.section(
            &format!("Fig. 8: Migration cost prediction — {}", target.label),
            &[
                "benchmark",
                "actual [s]",
                "predicted [s]",
                "error",
                "file [MB]",
            ],
        );
        let mut errs = Vec::new();
        for w in all_workloads() {
            if w.script(&target.cfg(HARNESS_SCALE)).kernel_launches() == 0 {
                continue;
            }
            let mut cluster = Cluster::with_standard_nodes(2);
            let nodes = cluster.node_ids();
            let mut s = CheclSession::launch(
                &mut cluster,
                nodes[0],
                (target.vendor)(),
                CheclConfig::default(),
                w.script(&target.cfg(HARNESS_SCALE)),
            );
            // Migration is scheduler-initiated at a synchronization
            // point (delayed mode): the program has run its course and
            // its queues are drained, so the measured cost is pure
            // checkpoint + transfer + restore, which is what the model
            // predicts.
            if s.run(&mut cluster, StopCondition::Completion).is_err() {
                fig.row(vec![w.name.into(), Cell::Na, Cell::Na, Cell::Na, Cell::Na]);
                continue;
            }
            s.persist_program(&mut cluster);
            let (_resumed, report) = s
                .migrate_with_policy(
                    &mut cluster,
                    nodes[1],
                    (target.vendor)(),
                    "/nfs/fig8.ckpt",
                    RestoreTarget::default(),
                    &CprPolicy::sequential(),
                )
                .expect("migration failed");
            let err = (report.predicted.as_secs_f64() - report.actual.as_secs_f64()).abs()
                / report.actual.as_secs_f64();
            errs.push(err);
            fig.row(vec![
                w.name.into(),
                Cell::secs(report.actual),
                Cell::secs(report.predicted),
                Cell::Pct(err * 100.0),
                Cell::mib(report.checkpoint.file_size),
            ]);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        fig.note(format!(
            "mean relative prediction error: {:.1}%",
            mean * 100.0
        ));
    }
    fig.note(
        "paper reference: the total of checkpoint and restart time is \
         estimated well by the simple linear model Tm = αM + Tr + β",
    );

    fig.section(
        "Migration engine: sequential vs pipelined dump (nimbus → crimson over NFS)",
        &[
            "mode",
            "bufs",
            "MiB/buf",
            "dump[s]",
            "saved[s]",
            "actual[s]",
            "file[MB]",
        ],
    );
    let scenarios: &[(usize, u64)] = &[
        (1, 4 * MIB),
        (2, 4 * MIB),
        (4, 4 * MIB),
        (8, 4 * MIB),
        (4, 16 * MIB),
    ];
    for (i, &(bufs, size)) in scenarios.iter().enumerate() {
        let seq_path = format!("/nfs/fig8-mig-seq-{i}.ckpt");
        let pipe_path = format!("/nfs/fig8-mig-pipe-{i}.ckpt");
        let (seq, seq_sums) = migrate_scenario(bufs, size, &seq_path, &CprPolicy::sequential());
        let (pipe, pipe_sums) = migrate_scenario(bufs, size, &pipe_path, &CprPolicy::pipelined());
        for (mode, r) in [("sequential", &seq), ("pipelined", &pipe)] {
            fig.row(vec![
                mode.into(),
                (bufs as u64).into(),
                Cell::num(size as f64 / MIB as f64, 1),
                Cell::secs(r.checkpoint.total()),
                Cell::secs(r.checkpoint.overlap_saved),
                Cell::secs(r.actual),
                Cell::mib(r.checkpoint.file_size),
            ]);
        }
        // Both engines must land the run on the Radeon board with the
        // exact bytes the Tesla held: the destination checksum logs are
        // identical between engines (and to each other across runs).
        assert_eq!(
            seq_sums, pipe_sums,
            "migration engines diverged on {bufs}x{size}"
        );
        if bufs > 1 {
            assert!(
                pipe.actual < seq.actual,
                "pipelined migration must beat sequential on multi-buffer scenario {bufs}x{size}"
            );
        }
    }
    fig.note(
        "expectation: a pipelined dump hides each D2H copy behind the previous \
         buffer's streamed NFS write, so end-to-end migration time drops on \
         every multi-buffer scenario (the dump-side gap reported as saved[s]) \
         while both engines restore bit-identical state on the other vendor",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
