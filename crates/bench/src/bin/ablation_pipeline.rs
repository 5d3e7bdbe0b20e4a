//! Ablation: overlapped (pipelined) checkpointing vs the sequential
//! §III-C engine.
//!
//! The pipelined engine places each per-buffer D2H copy on its device's
//! PCIe channel and streams every completed buffer into the chunked
//! checkpoint file while the next copy is still in flight, so distinct
//! resources (PCIe vs local disk) overlap instead of adding up. Two
//! engines are swept over buffer counts, buffer sizes and 1–4 GPUs:
//!
//! * `sequential` — copy everything, then write one dump.
//! * `pipelined` — overlapped copies + streamed chunk writes.
//!
//! Every scenario then proves bit-exactness: the checkpointed session
//! runs on, the run is resumed from the sequential dump and the
//! streamed dump, and all three must reproduce a native run's
//! checksums.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use checl_bench::{eval_targets, native_checksums, Cell, FigureWriter, TraceSession};
use clspec::types::{DeviceType, MemFlags};
use osproc::Cluster;
use workloads::{BufInit, CheclSession, Op, Reg, Script, StopCondition};

const MIB: u64 = 1 << 20;

/// Single-device script: create `bufs` seeded buffers, pause
/// (`stop_create`), rewrite half of them, pause again (`stop_dirty` —
/// the measured checkpoint lands here), then checksum every buffer.
fn sweep_script(bufs: usize, size: u64) -> (Script, u64, u64) {
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
                seed: 0x51ee7 + i as u64,
            }),
            out: buf0 + i as Reg,
        });
    }
    let stop_create = ops.len() as u64;
    for i in 0..bufs.div_ceil(2) {
        ops.push(Op::WriteBuffer {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
            init: BufInit::RandomU32 {
                seed: 0xd1127 + i as u64,
            },
        });
    }
    let stop_dirty = ops.len() as u64;
    for i in 0..bufs {
        ops.push(Op::ReadBufferChecksum {
            queue: 3,
            buf: buf0 + i as Reg,
            size,
        });
    }
    (Script { ops }, stop_create, stop_dirty)
}

/// Multi-GPU script: per device its own context, queue and two seeded
/// buffers; pause after setup, then checksum everything.
fn multi_gpu_script(devices: u16, size: u64) -> (Script, u64) {
    let mut ops = vec![
        Op::GetPlatform { out: 0 },
        Op::GetDevices {
            platform: 0,
            dtype: DeviceType::Gpu,
            out: 1,
            count: devices,
        },
    ];
    let mut next: Reg = 1 + devices;
    let mut checks = Vec::new();
    for d in 0..devices {
        let ctx = next;
        let queue = next + 1;
        next += 2;
        ops.push(Op::CreateContext {
            device: 1 + d,
            out: ctx,
        });
        ops.push(Op::CreateQueue {
            context: ctx,
            device: 1 + d,
            out: queue,
        });
        for i in 0..2u64 {
            let buf = next;
            next += 1;
            ops.push(Op::CreateBuffer {
                context: ctx,
                flags: MemFlags::READ_WRITE,
                size,
                init: Some(BufInit::RandomU32 {
                    seed: 0xbeef + ((d as u64) << 8) + i,
                }),
                out: buf,
            });
            checks.push(Op::ReadBufferChecksum { queue, buf, size });
        }
    }
    let stop_setup = ops.len() as u64;
    ops.extend(checks);
    (Script { ops }, stop_setup)
}

/// A Nimbus-like platform exposing `n` Tesla C1060 boards.
fn multi_gpu_vendor(n: usize) -> cldriver::VendorConfig {
    let mut v = cldriver::vendor::nimbus();
    v.devices = (0..n).map(|_| cldriver::device::tesla_c1060()).collect();
    v
}

/// Resume a checkpoint file and replay the remaining script; returns
/// the checksum log of the resumed run.
fn resumed_checksums(
    cluster: &mut Cluster,
    node: osproc::NodeId,
    path: &str,
    vendor: cldriver::VendorConfig,
) -> Vec<u64> {
    let mut s = CheclSession::restart(cluster, node, path, vendor, RestoreTarget::default())
        .expect("restart failed");
    s.run(cluster, StopCondition::Completion).unwrap();
    let sums = s.program.checksums.clone();
    s.kill(cluster);
    sums
}

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];

    let mut fig = FigureWriter::new("ablation_pipeline");
    fig.section(
        "Checkpoint engine: sequential vs pipelined (1 GPU)",
        &[
            "mode",
            "bufs",
            "MiB/buf",
            "preproc[s]",
            "write[s]",
            "total[s]",
            "saved[s]",
            "file[MB]",
        ],
    );

    // (buffer count, buffer size) sweep on one device.
    let scenarios: &[(usize, u64)] = &[
        (1, 4 * MIB),
        (2, 4 * MIB),
        (4, 4 * MIB),
        (8, 4 * MIB),
        (4, MIB),
        (4, 16 * MIB),
    ];
    let mut equivalence: Vec<(String, &'static str, bool)> = Vec::new();
    for (i, &(bufs, size)) in scenarios.iter().enumerate() {
        let (script, stop_create, stop_dirty) = sweep_script(bufs, size);
        let golden = native_checksums((target.vendor)(), script.clone());
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            (target.vendor)(),
            CheclConfig::default(),
            script,
        );
        s.run(&mut cluster, StopCondition::AfterOps(stop_create))
            .unwrap();
        // An earlier generation before the rewrite stage, so the
        // measured dumps below capture a session that has checkpointed
        // before (its rewritten buffers carry precise dirty regions).
        let base = format!("/local/pl-base-{i}.ckpt");
        s.checkpoint_with_policy(&mut cluster, &base, &CprPolicy::sequential())
            .unwrap();
        s.run(&mut cluster, StopCondition::AfterOps(stop_dirty))
            .unwrap();

        let seq_path = format!("/local/pl-seq-{i}.ckpt");
        let pipe_path = format!("/local/pl-pipe-{i}.ckpt");
        let seq = s
            .checkpoint_with_policy(&mut cluster, &seq_path, &CprPolicy::sequential())
            .unwrap()
            .report;
        let pipe = s
            .checkpoint_with_policy(&mut cluster, &pipe_path, &CprPolicy::pipelined())
            .unwrap()
            .report;
        for (mode, r) in [("sequential", &seq), ("pipelined", &pipe)] {
            fig.row(vec![
                mode.into(),
                (bufs as u64).into(),
                Cell::num(size as f64 / MIB as f64, 1),
                Cell::secs(r.preprocess),
                Cell::secs(r.write),
                Cell::secs(r.total()),
                Cell::secs(r.overlap_saved),
                Cell::mib(r.file_size),
            ]);
        }
        if bufs > 1 {
            assert!(
                pipe.total() < seq.total(),
                "pipelined must beat sequential on multi-buffer scenario {bufs}x{size}"
            );
        }

        // Bit-exactness: the checkpointed session and a resume from each
        // file kind reproduce the native checksum log.
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        assert_eq!(
            s.program.checksums, golden,
            "checkpointing perturbed {bufs}x{size}"
        );
        s.kill(&mut cluster);
        let label = format!("{bufs}x{}MiB", size / MIB);
        for (kind, path) in [("sequential", &seq_path), ("pipelined", &pipe_path)] {
            let sums = resumed_checksums(&mut cluster, node, path, (target.vendor)());
            assert_eq!(sums, golden, "restart from {kind} file diverged ({label})");
            equivalence.push((label.clone(), kind, true));
        }
    }

    fig.section(
        "Multi-GPU overlap: one PCIe channel per device (2 x 8 MiB buffers each)",
        &[
            "mode",
            "gpus",
            "preproc[s]",
            "write[s]",
            "total[s]",
            "saved[s]",
            "file[MB]",
        ],
    );
    for devices in 1..=4u16 {
        let (script, stop_setup) = multi_gpu_script(devices, 8 * MIB);
        let golden = native_checksums(multi_gpu_vendor(devices as usize), script.clone());
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            multi_gpu_vendor(devices as usize),
            CheclConfig::default(),
            script,
        );
        s.run(&mut cluster, StopCondition::AfterOps(stop_setup))
            .unwrap();
        let seq_path = format!("/local/pl-mgpu-seq-{devices}.ckpt");
        let pipe_path = format!("/local/pl-mgpu-pipe-{devices}.ckpt");
        let seq = s
            .checkpoint_with_policy(&mut cluster, &seq_path, &CprPolicy::sequential())
            .unwrap()
            .report;
        let pipe = s
            .checkpoint_with_policy(&mut cluster, &pipe_path, &CprPolicy::pipelined())
            .unwrap()
            .report;
        for (mode, r) in [("sequential", &seq), ("pipelined", &pipe)] {
            fig.row(vec![
                mode.into(),
                (devices as u64).into(),
                Cell::secs(r.preprocess),
                Cell::secs(r.write),
                Cell::secs(r.total()),
                Cell::secs(r.overlap_saved),
                Cell::mib(r.file_size),
            ]);
        }
        assert!(
            pipe.total() < seq.total(),
            "pipelined must beat sequential on {devices} GPUs"
        );

        s.run(&mut cluster, StopCondition::Completion).unwrap();
        assert_eq!(
            s.program.checksums, golden,
            "checkpointing perturbed {devices} GPUs"
        );
        s.kill(&mut cluster);
        let label = format!("{devices}gpu");
        for (kind, path) in [("sequential", &seq_path), ("pipelined", &pipe_path)] {
            let sums =
                resumed_checksums(&mut cluster, node, path, multi_gpu_vendor(devices as usize));
            assert_eq!(sums, golden, "restart from {kind} file diverged ({label})");
            equivalence.push((label.clone(), kind, true));
        }
    }

    fig.section(
        "Restart equivalence: resumed runs reproduce the undisturbed checksums",
        &["scenario", "file kind", "identical"],
    );
    for (label, kind, ok) in &equivalence {
        fig.row(vec![
            label.as_str().into(),
            (*kind).into(),
            if *ok { "yes" } else { "NO" }.into(),
        ]);
    }

    fig.note(
        "expectation: pipelined total stays strictly below sequential on every \
         multi-buffer scenario (the D2H copy of buffer k+1 hides behind the \
         streamed chunk write of buffer k), the gap reported as saved[s]; \
         adding GPUs adds parallel PCIe channels and widens it; both \
         file kinds resume to checksum-identical runs",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
