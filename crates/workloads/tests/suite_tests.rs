//! Suite-wide transparency and CPR correctness tests.
//!
//! The paper's headline demonstration: "CheCL can properly execute all
//! the benchmark programs … without any modification and
//! recompilation" (§IV-A), and checkpointed programs resume with
//! correct results. We verify with per-buffer checksums on real data.

use checl::cpr::RestoreTarget;
use checl::{CheclConfig, CprPolicy};
use cldriver::vendor::{crimson, nimbus};
use clspec::error::ClError;
use clspec::types::DeviceType;
use osproc::Cluster;
use workloads::{
    all_workloads, workload_by_name, CheclSession, NativeSession, RunStatus, StopCondition,
    Workload, WorkloadCfg,
};

/// Small problem sizes keep the full-suite tests quick; shapes are
/// unaffected because the same scripts are generated for both runs.
fn quick_cfg() -> WorkloadCfg {
    WorkloadCfg {
        scale: 1.0 / 64.0,
        ..WorkloadCfg::default()
    }
}

fn native_checksums(w: &Workload, cfg: &WorkloadCfg) -> Vec<u64> {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = NativeSession::launch(&mut cluster, node, nimbus(), w.script(cfg));
    let status = s.run(&mut cluster, StopCondition::Completion).unwrap();
    assert_eq!(status, RunStatus::Done);
    s.program.checksums
}

#[test]
fn all_workloads_run_natively() {
    let cfg = quick_cfg();
    for w in all_workloads() {
        let sums = native_checksums(&w, &cfg);
        // Every workload that reads back data produced checksums.
        if w.name != "KernelCompile" && w.name != "QueueDelay" && w.name != "BusSpeedDownload" {
            assert!(!sums.is_empty(), "{} produced no checksums", w.name);
        }
    }
}

#[test]
fn checl_is_transparent_for_every_workload() {
    // Identical checksums under CheCL — the application cannot tell.
    let cfg = quick_cfg();
    for w in all_workloads() {
        let golden = native_checksums(&w, &cfg);
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            nimbus(),
            CheclConfig::default(),
            w.script(&cfg),
        );
        let status = s.run(&mut cluster, StopCondition::Completion).unwrap();
        assert_eq!(status, RunStatus::Done, "{}", w.name);
        assert_eq!(
            s.program.checksums, golden,
            "{} diverged under CheCL",
            w.name
        );
    }
}

#[test]
fn checl_adds_overhead_but_not_too_much() {
    // Fig. 4's aggregate claim: CheCL costs some runtime (IPC + extra
    // copies) but stays within a small factor for compute-heavy
    // programs.
    let cfg = quick_cfg();
    let w = workload_by_name("oclMatrixMul").unwrap();
    let mut cn = Cluster::with_standard_nodes(1);
    let node = cn.node_ids()[0];
    let mut native = NativeSession::launch(&mut cn, node, nimbus(), w.script(&cfg));
    native.run(&mut cn, StopCondition::Completion).unwrap();
    let t_native = native.elapsed(&cn);

    let mut cc = Cluster::with_standard_nodes(1);
    let node = cc.node_ids()[0];
    let mut checl_run = CheclSession::launch(
        &mut cc,
        node,
        nimbus(),
        CheclConfig::default(),
        w.script(&cfg),
    );
    checl_run.run(&mut cc, StopCondition::Completion).unwrap();
    let t_checl = checl_run.elapsed(&cc);

    assert!(t_checl > t_native, "CheCL must cost something");
    assert!(
        t_checl.as_secs_f64() < t_native.as_secs_f64() * 3.0,
        "overhead out of range: native {t_native}, checl {t_checl}"
    );
}

#[test]
fn every_kernel_workload_survives_midrun_checkpoint() {
    // Checkpoint right after the first kernel launch (command in
    // flight, per the Fig. 5 protocol), kill everything, restart,
    // finish, and compare checksums with an uninterrupted run.
    let cfg = quick_cfg();
    for w in all_workloads() {
        let script = w.script(&cfg);
        if script.kernel_launches() == 0 {
            continue; // same exclusion as the paper's Fig. 5
        }
        let golden = native_checksums(&w, &cfg);

        let mut cluster = Cluster::with_standard_nodes(2);
        let nodes = cluster.node_ids();
        let mut s = CheclSession::launch(
            &mut cluster,
            nodes[0],
            nimbus(),
            CheclConfig::default(),
            script,
        );
        let status = s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
        assert_eq!(status, RunStatus::Paused, "{}", w.name);
        s.checkpoint_with_policy(&mut cluster, "/nfs/suite.ckpt", &CprPolicy::sequential())
            .unwrap_or_else(|e| panic!("{}: checkpoint failed: {e}", w.name));
        s.kill(&mut cluster);

        let mut resumed = CheclSession::restart(
            &mut cluster,
            nodes[1],
            "/nfs/suite.ckpt",
            nimbus(),
            RestoreTarget::default(),
        )
        .unwrap_or_else(|e| panic!("{}: restart failed: {e}", w.name));
        let status = resumed
            .run(&mut cluster, StopCondition::Completion)
            .unwrap_or_else(|e| panic!("{}: resume failed: {e}", w.name));
        assert_eq!(status, RunStatus::Done, "{}", w.name);
        assert_eq!(
            resumed.program.checksums, golden,
            "{} diverged after checkpoint/restart",
            w.name
        );
    }
}

#[test]
fn cross_vendor_suite_spotcheck() {
    // A representative subset migrates Nimbus → Crimson mid-run and
    // still matches the native checksums (kernels are deterministic
    // and device-independent).
    let cfg = quick_cfg();
    for name in ["oclVectorAdd", "S3D", "MD", "oclScan", "mri-q_small"] {
        let w = workload_by_name(name).unwrap();
        let golden = native_checksums(&w, &cfg);
        let mut cluster = Cluster::with_standard_nodes(2);
        let nodes = cluster.node_ids();
        let mut s = CheclSession::launch(
            &mut cluster,
            nodes[0],
            nimbus(),
            CheclConfig::default(),
            w.script(&cfg),
        );
        s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
        let (mut resumed, report) = s
            .migrate_with_policy(
                &mut cluster,
                nodes[1],
                crimson(),
                "/nfs/xv.ckpt",
                RestoreTarget::default(),
                &CprPolicy::sequential(),
            )
            .unwrap();
        assert!(report.actual.as_secs_f64() > 0.0);
        resumed
            .run(&mut cluster, StopCondition::Completion)
            .unwrap();
        assert_eq!(resumed.program.checksums, golden, "{name} diverged");
    }
}

#[test]
fn sorting_networks_portability_failure_reproduced() {
    // §IV-A: oclSortingNetworks "can run on the CPU but not on the AMD
    // GPU" because of the 256 work-item group limit.
    let cfg = WorkloadCfg {
        scale: 1.0 / 8.0,
        ..WorkloadCfg::default()
    };
    let w = workload_by_name("oclSortingNetworks").unwrap();

    // AMD GPU: fails with CL_INVALID_WORK_GROUP_SIZE even natively.
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = NativeSession::launch(&mut cluster, node, crimson(), w.script(&cfg));
    let err = s.run(&mut cluster, StopCondition::Completion).unwrap_err();
    assert_eq!(err, ClError::InvalidWorkGroupSize);

    // AMD CPU device: runs fine.
    let cpu_cfg = WorkloadCfg {
        device_type: DeviceType::Cpu,
        ..cfg
    };
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = NativeSession::launch(&mut cluster, node, crimson(), w.script(&cpu_cfg));
    assert_eq!(
        s.run(&mut cluster, StopCondition::Completion).unwrap(),
        RunStatus::Done
    );
}

#[test]
fn amd_cpu_runs_suite_subset() {
    // "each program is executed on the CPU and the AMD GPU" (§IV-A).
    let cfg = WorkloadCfg {
        scale: 1.0 / 64.0,
        device_type: DeviceType::Cpu,
        ..WorkloadCfg::default()
    };
    for name in ["oclVectorAdd", "Triad", "Stencil2D", "oclReduction"] {
        let w = workload_by_name(name).unwrap();
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            crimson(),
            CheclConfig::default(),
            w.script(&cfg),
        );
        assert_eq!(
            s.run(&mut cluster, StopCondition::Completion).unwrap(),
            RunStatus::Done,
            "{name} failed on the CPU device"
        );
    }
}

#[test]
fn image_workload_survives_midrun_checkpoint() {
    // A hand-built application using images + samplers: the full
    // Fig. 2 object population (platform, device, context, queue, mem,
    // sampler, program, kernel, event) survives CPR.
    use workloads::{BufInit, Op, Script};
    let script = Script {
        ops: vec![
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
            Op::CreateImage {
                context: 2,
                width: 32,
                height: 16,
                init: Some(BufInit::RandomF32 {
                    seed: 77,
                    lo: 0.0,
                    hi: 1.0,
                }),
                out: 4,
            },
            Op::CreateBuffer {
                context: 2,
                flags: clspec::types::MemFlags::READ_WRITE,
                size: 32 * 16 * 4,
                init: None,
                out: 5,
            },
            Op::CreateSampler { context: 2, out: 6 },
            Op::CreateProgram {
                name: "image_demo".into(),
                context: 2,
                out: 7,
            },
            Op::BuildProgram { prog: 7 },
            Op::CreateKernel {
                prog: 7,
                name: "image_scale".into(),
                out: 8,
            },
            Op::SetArgMem {
                kernel: 8,
                index: 0,
                buf: 4,
            },
            Op::SetArgSampler {
                kernel: 8,
                index: 1,
                sampler: 6,
            },
            Op::SetArgMem {
                kernel: 8,
                index: 2,
                buf: 5,
            },
            Op::SetArgU32 {
                kernel: 8,
                index: 3,
                value: 32,
            },
            Op::SetArgU32 {
                kernel: 8,
                index: 4,
                value: 16,
            },
            Op::Marker { queue: 3, out: 9 },
            Op::Launch {
                kernel: 8,
                queue: 3,
                global: [32, 16, 1],
                local: None,
            },
            Op::Finish { queue: 3 },
            Op::WaitEvent { event: 9 },
            Op::ReadImageChecksum { queue: 3, image: 4 },
            Op::ReadBufferChecksum {
                queue: 3,
                buf: 5,
                size: 32 * 16 * 4,
            },
        ],
    };

    // Golden run, uninterrupted under CheCL.
    let golden = {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            nimbus(),
            CheclConfig::default(),
            script.clone(),
        );
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        s.program.checksums
    };
    assert_eq!(golden.len(), 2);

    // Checkpoint mid-run (kernel in flight), migrate across vendors.
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let mut s = CheclSession::launch(
        &mut cluster,
        nodes[0],
        nimbus(),
        CheclConfig::default(),
        script,
    );
    s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
    s.checkpoint_with_policy(
        &mut cluster,
        "/nfs/img-suite.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap();
    s.kill(&mut cluster);
    let mut resumed = CheclSession::restart(
        &mut cluster,
        nodes[1],
        "/nfs/img-suite.ckpt",
        crimson(),
        checl::RestoreTarget::default(),
    )
    .unwrap();
    resumed
        .run(&mut cluster, StopCondition::Completion)
        .unwrap();
    assert_eq!(resumed.program.checksums, golden);
}

#[test]
fn scripts_are_deterministic() {
    // The same workload + config must generate byte-identical scripts —
    // restart correctness depends on deterministic input regeneration.
    use simcore::codec::Codec;
    let cfg = quick_cfg();
    for w in all_workloads() {
        let a = w.script(&cfg).to_bytes();
        let b = w.script(&cfg).to_bytes();
        assert_eq!(a, b, "{} script not deterministic", w.name);
    }
}

#[test]
fn any_session_runs_both_ways() {
    use workloads::session::AnySession;
    let cfg = quick_cfg();
    let w = workload_by_name("oclVectorAdd").unwrap();
    let mut results = Vec::new();
    for native in [true, false] {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = if native {
            AnySession::Native(Box::new(NativeSession::launch(
                &mut cluster,
                node,
                nimbus(),
                w.script(&cfg),
            )))
        } else {
            AnySession::Checl(Box::new(CheclSession::launch(
                &mut cluster,
                node,
                nimbus(),
                CheclConfig::default(),
                w.script(&cfg),
            )))
        };
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        assert!(s.elapsed(&cluster).as_secs_f64() > 0.0);
        results.push((s.impl_name(), s.program().checksums.clone()));
    }
    assert_ne!(results[0].0, results[1].0);
    assert_eq!(results[0].1, results[1].1);
}
