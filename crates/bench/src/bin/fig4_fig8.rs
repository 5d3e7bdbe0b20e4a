//! Regenerates Fig. 4 and Fig. 8 from one pass over the programs.
//!
//! Fig. 4: runtime overhead caused by the CheCL runtime system. Every
//! benchmark runs twice per target — linked against the native vendor
//! library and against CheCL — with no checkpoint taken. The reported
//! value is CheCL time normalised to native time (1.00 = no overhead).
//! Non-portable combinations print `n/a`, like oclSortingNetworks on
//! the AMD GPU in the paper. Wherever both runs complete, CheCL must
//! read back what the native run read back: the binary panics on any
//! checksum that differs.
//!
//! Fig. 8: migration cost prediction — actual migration time vs the
//! model `Tm = α·M + Tr + β`, alongside checkpoint file size. The same
//! CheCL run, once complete, is migrated from node 0 to node 1 through
//! the shared NFS mount; the model is fitted from Table I bandwidths
//! and the destination compiler's recompilation estimate. Benchmarks
//! with no kernel are left out of Fig. 8.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_bench::{
    eval_targets, launch_checl, run_native, Cell, FigureWriter, TraceSession, HARNESS_SCALE,
};
use clspec::types::{DeviceType, MemFlags};
use osproc::Cluster;
use workloads::{all_workloads, BufInit, CheclSession, Op, Reg, Script, StopCondition};

const MIB: u64 = 1 << 20;

fn main() {
    let trace = TraceSession::from_args();
    let targets = eval_targets();
    let workloads = all_workloads();
    let mut fig4 = FigureWriter::new("fig4_overhead");
    let mut fig8 = FigureWriter::new("fig8_migration");

    // Fig. 4 is one table, a row per program and a column per target,
    // so its rows fill in across the per-target passes below.
    let mut fig4_rows: Vec<Vec<Cell>> = workloads.iter().map(|w| vec![w.name.into()]).collect();
    let mut fig4_avgs = Vec::new();

    for target in &targets {
        fig8.section(
            &format!("Fig. 8: Migration cost prediction — {}", target.label),
            &[
                "benchmark",
                "actual [s]",
                "predicted [s]",
                "error",
                "file [MB]",
            ],
        );
        let mut ratios = Vec::new();
        let mut errs = Vec::new();
        for (w, fig4_row) in workloads.iter().zip(&mut fig4_rows) {
            let native = run_native(w, target, HARNESS_SCALE);
            let (mut cluster, mut s) = launch_checl(w, target, HARNESS_SCALE);
            let checl = s.run(&mut cluster, StopCondition::Completion);
            match (&native, &checl) {
                (Ok(native), Ok(_)) => {
                    assert_eq!(
                        s.program.checksums, native.checksums,
                        "{} on {}: CheCL read back other bytes than the native run",
                        w.name, target.label
                    );
                    let ratio = s.elapsed(&cluster).as_secs_f64() / native.elapsed.as_secs_f64();
                    ratios.push(ratio);
                    fig4_row.push(Cell::num(ratio, 3));
                }
                _ => fig4_row.push(Cell::Na),
            }

            if s.program.script.kernel_launches() == 0 {
                continue;
            }
            if checl.is_err() {
                fig8.row(vec![w.name.into(), Cell::Na, Cell::Na, Cell::Na, Cell::Na]);
                continue;
            }
            // Migration is scheduler-initiated at a synchronization
            // point (delayed mode): the program has run its course and
            // its queues are drained, so the measured cost is pure
            // checkpoint + transfer + restore, which is what the model
            // predicts.
            let nodes = cluster.node_ids();
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
            fig8.row(vec![
                w.name.into(),
                Cell::secs(report.actual),
                Cell::secs(report.predicted),
                Cell::Pct(err * 100.0),
                Cell::mib(report.checkpoint.file_size),
            ]);
        }
        fig4_avgs.push(ratios.iter().sum::<f64>() / ratios.len() as f64);
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        fig8.note(format!(
            "mean relative prediction error: {:.1}%",
            mean * 100.0
        ));
    }
    fig8.note(
        "paper reference: the total of checkpoint and restart time is \
         estimated well by the simple linear model Tm = αM + Tr + β",
    );

    let mut cols = vec!["benchmark"];
    cols.extend(targets.iter().map(|t| t.label));
    fig4.section(
        "Fig. 4: Timing Overhead Caused by CheCL Runtime System \
         (normalized execution time: CheCL / native; 1.00 = no overhead)",
        &cols,
    );
    for row in fig4_rows {
        fig4.row(row);
    }
    fig4.row(
        std::iter::once("AVERAGE".into())
            .chain(fig4_avgs.iter().map(|&avg| Cell::num(avg, 3)))
            .collect(),
    );
    for (t, avg) in targets.iter().zip(&fig4_avgs) {
        fig4.note(format!(
            "average runtime overhead on {}: {:.1}%",
            t.label,
            (avg - 1.0) * 100.0
        ));
    }
    fig4.note(
        "paper reference: 10.1% (NVIDIA), 19.0% (AMD GPU), 12.2% (AMD CPU); \
         transfer-bound and API-chatty programs dominate the tail",
    );

    migration_engines(&mut fig8);
    fig4.finish().unwrap();
    fig8.finish().unwrap();
    trace.finish().unwrap();
}

/// The "Migration engine: sequential vs pipelined" section of Fig. 8.
/// Both engines must land every scenario with the same checksums, and
/// pipelined must beat sequential wherever there is more than one
/// buffer to overlap.
fn migration_engines(fig: &mut FigureWriter) {
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
}

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
