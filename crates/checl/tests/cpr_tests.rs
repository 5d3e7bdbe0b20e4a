//! End-to-end checkpoint/restart/migration tests.
//!
//! These are the paper's core claims, exercised on real data: an
//! application using OpenCL through CheCL can be checkpointed by a
//! conventional CPR system, restarted — on the same node, a different
//! node, a different vendor, or a different device type — and continue
//! producing bit-identical results.

use checl::runtime::ChecLib;
use checl::{
    boot_checl, restore, restore_checl, snapshot, CheclConfig, CprPolicy, ObjectRecord,
    RestoreTarget, StructArgPolicy,
};
use cldriver::vendor::{crimson, nimbus};
use clspec::api::ClApi;
use clspec::error::ClError;
use clspec::types::{DeviceType, MemFlags, NDRange, QueueProps};
use clspec::{ApiRequest, ArgValue, Kernel, Mem, Ocl, RawHandle};
use osproc::Cluster;
use simcore::{fnv1a64, SimDuration};

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Set up a CheCL app with a vec_add pipeline: buffers a, b, c and a
/// kernel with args bound. Returns the handles the "application" holds.
struct App {
    ctx: clspec::Context,
    queue: clspec::CommandQueue,
    a: Mem,
    #[allow(dead_code)]
    b: Mem,
    c: Mem,
    kernel: Kernel,
    n: u32,
}

fn build_app(lib: &mut ChecLib, now: &mut simcore::SimTime, n: u32) -> App {
    let mut ocl = Ocl::new(lib, now);
    let platforms = ocl.get_platform_ids().unwrap();
    let devices = ocl.get_device_ids(platforms[0], DeviceType::All).unwrap();
    let dev = devices[0];
    let ctx = ocl.create_context(&[dev]).unwrap();
    let queue = ocl
        .create_command_queue(ctx, dev, QueueProps::default())
        .unwrap();
    let av: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let bv: Vec<f32> = (0..n).map(|i| 10.0 * i as f32).collect();
    let a = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_ONLY | MemFlags::COPY_HOST_PTR,
            (n * 4) as u64,
            Some(f32s(&av).into()),
        )
        .unwrap();
    let b = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_ONLY | MemFlags::COPY_HOST_PTR,
            (n * 4) as u64,
            Some(f32s(&bv).into()),
        )
        .unwrap();
    let c = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, (n * 4) as u64, None)
        .unwrap();
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let kernel = ocl.create_kernel(prog, "vec_add").unwrap();
    ocl.set_arg_mem(kernel, 0, a).unwrap();
    ocl.set_arg_mem(kernel, 1, b).unwrap();
    ocl.set_arg_mem(kernel, 2, c).unwrap();
    ocl.set_arg_scalar(kernel, 3, n).unwrap();
    App {
        ctx,
        queue,
        a,
        b,
        c,
        kernel,
        n,
    }
}

fn run_kernel_and_read(lib: &mut ChecLib, now: &mut simcore::SimTime, app: &App) -> Vec<u8> {
    let mut ocl = Ocl::new(lib, now);
    ocl.enqueue_nd_range(app.queue, app.kernel, NDRange::d1(app.n as u64), None, &[])
        .unwrap();
    ocl.finish(app.queue).unwrap();
    let (data, _) = ocl
        .enqueue_read_buffer(app.queue, app.c, true, 0, (app.n * 4) as u64, &[])
        .unwrap();
    data.into_vec()
}

#[test]
fn checkpoint_restart_preserves_results_bit_exactly() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let app_pid = cluster.spawn(nodes[0]);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;

    let app = build_app(&mut booted.lib, &mut now, 512);
    // Run once before checkpointing so device memory holds real state.
    let before = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    let golden = fnv1a64(&before);
    cluster.process_mut(app_pid).clock = now;

    // Checkpoint to the shared NFS mount.
    let report = snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/nfs/app.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap()
    .report;
    assert!(report.file_size.as_u64() > 0);

    // Crash the node: app and proxy die, all vendor objects vanish.
    let proxy = booted.lib.proxy_pid().unwrap();
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    drop(booted);

    // Restart on the *other* node (same vendor available there).
    let (mut lib2, pid2, restore_report) = restore(
        &mut cluster,
        nodes[1],
        "/nfs/app.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    assert_ne!(pid2, app_pid);
    assert!(restore_report.total() > SimDuration::ZERO);
    assert!(!cluster.process(proxy).is_alive());

    // The application resumes with its *old CheCL handles* — they are
    // from the dumped register file and must still work.
    let mut now2 = cluster.process(pid2).clock;
    let after = run_kernel_and_read(&mut lib2, &mut now2, &app);
    assert_eq!(fnv1a64(&after), golden, "results must survive restart");

    // Buffer contents written before the checkpoint also survived.
    let mut ocl = Ocl::new(&mut lib2, &mut now2);
    let (a_data, _) = ocl
        .enqueue_read_buffer(app.queue, app.a, true, 0, (app.n * 4) as u64, &[])
        .unwrap();
    assert_eq!(
        a_data,
        f32s(&(0..app.n).map(|i| i as f32).collect::<Vec<_>>()).into()
    );
}

#[test]
fn vendor_handles_change_but_checl_handles_do_not() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 16);
    cluster.process_mut(app_pid).clock = now;

    let vendor_before = booted.lib.db.vendor_of(app.ctx.raw().0).unwrap();

    snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/x.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap();
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);

    let (lib2, _pid2, _) = restore(
        &mut cluster,
        node,
        "/local/x.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    let vendor_after = lib2.db.vendor_of(app.ctx.raw().0).unwrap();
    // Same CheCL handle, different vendor handle underneath: the
    // application never notices (§III-B).
    assert_ne!(vendor_before, vendor_after);
}

#[test]
fn cross_vendor_migration_nimbus_to_crimson() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let app_pid = cluster.spawn(nodes[0]);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 256);
    let golden = fnv1a64(&run_kernel_and_read(&mut booted.lib, &mut now, &app));
    cluster.process_mut(app_pid).clock = now;

    let report = checl::migrate_process(
        &mut cluster,
        booted.lib,
        app_pid,
        nodes[1],
        crimson(),
        "/nfs/mig.ckpt",
        RestoreTarget::default(),
        &checl::CprPolicy::sequential(),
    )
    .unwrap();
    assert!(report.actual > SimDuration::ZERO);

    let mut lib2 = report.new_lib;
    let mut now2 = cluster.process(report.new_pid).clock;
    // The restored context now lives on a Crimson device.
    assert!(lib2.impl_name().contains("Crimson"));
    let after = run_kernel_and_read(&mut lib2, &mut now2, &app);
    assert_eq!(fnv1a64(&after), golden, "cross-vendor results identical");
}

#[test]
fn runtime_processor_selection_gpu_to_cpu() {
    // §IV-C: "CheCL with AMD OpenCL can achieve runtime processor
    // selection by changing the compute device from a CPU to a GPU, and
    // vice versa", via a RAM-disk checkpoint.
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, crimson(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;

    // Build explicitly on the GPU.
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap()[0];
    let gpus = ocl.get_device_ids(p, DeviceType::Gpu).unwrap();
    let info = ocl.get_device_info(gpus[0]).unwrap();
    assert_eq!(info.device_type, DeviceType::Gpu);
    let _ = ocl;
    let app = {
        // Re-use build_app's shape but we already created the device
        // query; build_app queries All which maps to the same first
        // device (the GPU) on Crimson.
        build_app(&mut booted.lib, &mut now, 128)
    };
    let golden = fnv1a64(&run_kernel_and_read(&mut booted.lib, &mut now, &app));
    cluster.process_mut(app_pid).clock = now;

    // Switch to the CPU via the RAM disk (fast medium).
    let report = checl::migrate_process(
        &mut cluster,
        booted.lib,
        app_pid,
        node,
        crimson(),
        "/ram/switch.ckpt",
        RestoreTarget {
            device_type: Some(DeviceType::Cpu),
        },
        &checl::CprPolicy::sequential(),
    )
    .unwrap();
    let mut lib2 = report.new_lib;
    let mut now2 = cluster.process(report.new_pid).clock;
    let after = run_kernel_and_read(&mut lib2, &mut now2, &app);
    assert_eq!(fnv1a64(&after), golden, "CPU reproduces GPU results");

    // RAM-disk switching is much cheaper than it would be via disk.
    let ram_pred = checl::predict_migration_time(
        &lib2,
        &crimson(),
        osproc::FsKind::RamDisk,
        report.checkpoint.file_size,
    );
    let disk_pred = checl::predict_migration_time(
        &lib2,
        &crimson(),
        osproc::FsKind::LocalDisk,
        report.checkpoint.file_size,
    );
    assert!(disk_pred > ram_pred);
}

#[test]
fn checkpoint_phase_breakdown_is_sane() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    // 8 MiB of buffer data so write dominates.
    let app = build_app(&mut booted.lib, &mut now, 1 << 21);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let r = snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/big.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap()
    .report;
    // Write phase dominates (Fig. 5's headline observation).
    assert!(
        r.write > r.preprocess,
        "write {:?} vs preprocess {:?}",
        r.write,
        r.preprocess
    );
    assert!(r.write > r.sync);
    assert!(r.postprocess < r.preprocess);
    // Three 8 MiB buffers plus the 24 MiB baseline.
    assert!(r.file_size.as_u64() > 44 << 20);
    // After postprocessing the host copies are gone.
    assert_eq!(booted.lib.db.saved_data_bytes(), 0);
}

#[test]
fn delayed_mode_is_cheaper_when_kernel_in_flight() {
    // A long kernel is in flight. Immediate mode pays the sync wait;
    // delayed mode (checkpoint at the app's own clFinish) does not add
    // that wait to the checkpoint itself.
    let build = || {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app_pid = cluster.spawn(node);
        let booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
        (cluster, app_pid, booted)
    };

    // Immediate: enqueue a pipeline of kernels, checkpoint right away
    // with all of them still in flight.
    let (mut cluster, app_pid, mut booted) = build();
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 20);
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    for _ in 0..10 {
        ocl.enqueue_nd_range(app.queue, app.kernel, NDRange::d1(app.n as u64), None, &[])
            .unwrap();
    }
    let _ = ocl;
    cluster.process_mut(app_pid).clock = now;
    let immediate = snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/ram/i.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap()
    .report;

    // Delayed: same, but the app reaches its natural clFinish first.
    let (mut cluster, app_pid, mut booted) = build();
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 20);
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    for _ in 0..10 {
        ocl.enqueue_nd_range(app.queue, app.kernel, NDRange::d1(app.n as u64), None, &[])
            .unwrap();
    }
    ocl.finish(app.queue).unwrap(); // the app's own sync point
    let _ = ocl;
    cluster.process_mut(app_pid).clock = now;
    let delayed = snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/ram/d.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap()
    .report;

    assert!(
        immediate.sync > delayed.sync * 10,
        "immediate sync {:?} should dwarf delayed sync {:?}",
        immediate.sync,
        delayed.sync
    );
}

#[test]
fn restore_breakdown_charges_programs_and_mem() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, crimson(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 20);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/r.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap();
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    let (_lib2, _pid2, report) = restore(
        &mut cluster,
        node,
        "/local/r.ckpt",
        crimson(),
        RestoreTarget::default(),
    )
    .unwrap();
    use clspec::handles::HandleKind;
    // mem and prog dominate the recreation time (Fig. 7).
    let mem = report.per_kind[&HandleKind::Mem];
    let prog = report.per_kind[&HandleKind::Program];
    let ctx = report.per_kind[&HandleKind::Context];
    assert!(mem > ctx);
    assert!(prog > ctx);
    assert_eq!(report.counts[&HandleKind::Mem], 3);
    assert_eq!(report.counts[&HandleKind::Program], 1);
    assert_eq!(report.counts[&HandleKind::Kernel], 1);
}

#[test]
fn dummy_events_substitute_for_old_events() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 64);

    // The app keeps an event from a pre-checkpoint command.
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    let old_event = ocl
        .enqueue_nd_range(app.queue, app.kernel, NDRange::d1(64), None, &[])
        .unwrap();
    ocl.finish(app.queue).unwrap();
    let _ = ocl;
    cluster.process_mut(app_pid).clock = now;

    snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/ram/e.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap();
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    let (mut lib2, pid2, _) = restore(
        &mut cluster,
        node,
        "/ram/e.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();

    // Using the old event in a wait list must not fail or block: it is
    // now a completed dummy marker event (Fig. 3).
    let mut now2 = cluster.process(pid2).clock;
    let mut ocl2 = Ocl::new(&mut lib2, &mut now2);
    let status = ocl2.get_event_status(old_event).unwrap();
    assert_eq!(status, clspec::types::EventStatus::Complete);
    ocl2.enqueue_nd_range(app.queue, app.kernel, NDRange::d1(64), None, &[old_event])
        .unwrap();
    ocl2.finish(app.queue).unwrap();
}

#[test]
fn struct_args_fail_passthrough_succeed_with_extension() {
    let struct_src = r#"
typedef struct {
    __global float* data;
    uint n;
} VecDesc;

__kernel void null_kernel(__global float* buf) { }
"#;
    // PassThrough: the handle inside the struct is overlooked; when it
    // reaches the vendor driver inside the blob, the launch fails
    // because the vendor sees an unknown handle value.
    let run = |policy: StructArgPolicy| -> Result<(), ClError> {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app_pid = cluster.spawn(node);
        let mut booted = boot_checl(
            &mut cluster,
            app_pid,
            nimbus(),
            CheclConfig {
                struct_arg_policy: policy,
            },
        );
        let mut now = cluster.process(app_pid).clock;
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        let p = ocl.get_platform_ids()?;
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu)?;
        let ctx = ocl.create_context(&d)?;
        let q = ocl.create_command_queue(ctx, d[0], QueueProps::default())?;
        let buf = ocl.create_buffer(ctx, MemFlags::READ_WRITE, 64, None)?;

        // A second program whose kernel takes the struct by value.
        let src2 = r#"
typedef struct {
    __global float* data;
    uint n;
} VecDesc;

__kernel void consume(VecDesc d, __global float* out) { }
"#;
        let _ = struct_src;
        let prog = ocl.create_program_with_source(ctx, src2)?;
        ocl.build_program(prog, "")?;
        let k = ocl.create_kernel(prog, "consume")?;
        // struct { handle; u32 n; pad } — 16 bytes.
        let mut blob = Vec::new();
        blob.extend_from_slice(&buf.raw().0.to_le_bytes());
        blob.extend_from_slice(&16u32.to_le_bytes());
        blob.extend_from_slice(&0u32.to_le_bytes());
        ocl.set_kernel_arg(k, 0, ArgValue::Bytes(blob))?;
        ocl.set_arg_mem(k, 1, buf)?;
        ocl.enqueue_nd_range(q, k, NDRange::d1(16), None, &[])?;
        Ok(())
    };

    // With the paper's behaviour the launch fails…
    let err = run(StructArgPolicy::PassThrough).unwrap_err();
    assert!(
        matches!(err, ClError::InvalidMemObject | ClError::InvalidArgValue),
        "unexpected error {err}"
    );
    // …with the extension parser it succeeds.
    run(StructArgPolicy::ScanAndTranslate).unwrap();
}

#[test]
fn binary_program_restore_fails_cross_vendor() {
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let app_pid = cluster.spawn(nodes[0]);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let _q = ocl
        .create_command_queue(ctx, d[0], QueueProps::default())
        .unwrap();
    // Build from source, extract the binary, re-create from binary —
    // the deprecated path.
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog_src = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog_src, "").unwrap();
    let binary = ocl.get_program_binary(prog_src).unwrap();
    ocl.release_program(prog_src).unwrap();
    let prog_bin = ocl.create_program_with_binary(ctx, d[0], binary).unwrap();
    ocl.build_program(prog_bin, "").unwrap();
    let _ = ocl;
    cluster.process_mut(app_pid).clock = now;

    snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/nfs/bin.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap();
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);

    // Restoring on a Crimson node rejects the Nimbus binary.
    match restore(
        &mut cluster,
        nodes[1],
        "/nfs/bin.ckpt",
        crimson(),
        RestoreTarget::default(),
    ) {
        Err(checl::cpr::CheclCprError::BinaryNotPortable) => {}
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("cross-vendor binary restore must fail"),
    }

    // Same vendor works.
    restore(
        &mut cluster,
        nodes[1],
        "/nfs/bin.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
}

#[test]
fn address_guessing_translates_binary_program_args() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let q = ocl
        .create_command_queue(ctx, d[0], QueueProps::default())
        .unwrap();
    let n = 64u32;
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, (n * 4) as u64, None)
        .unwrap();
    let src = clkernels::program_source("null").unwrap().source;
    let prog_src = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog_src, "").unwrap();
    let binary = ocl.get_program_binary(prog_src).unwrap();
    let prog = ocl.create_program_with_binary(ctx, d[0], binary).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "null_kernel").unwrap();
    // No signature available: the 8-byte handle blob must be detected
    // by address guessing and still translated correctly.
    ocl.set_kernel_arg(k, 0, ArgValue::handle(buf.raw()))
        .unwrap();
    ocl.enqueue_nd_range(q, k, NDRange::d1(n as u64), None, &[])
        .unwrap();
    ocl.finish(q).unwrap();
    let _ = ocl;
    assert!(booted.lib.stats().guessed_args >= 1);
}

#[test]
fn ipc_overhead_visible_in_stats() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1024);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    let stats = booted.lib.stats();
    assert!(stats.forwarded_calls > 10);
    assert!(stats.ipc_bytes > 3 * 1024 * 4); // at least the buffer traffic
    assert!(stats.handle_translations > 5);
}

#[test]
fn no_proxy_is_a_clean_error() {
    let mut lib = ChecLib::new(CheclConfig::default());
    let mut now = simcore::SimTime::ZERO;
    assert_eq!(
        lib.call(&mut now, ApiRequest::GetPlatformIds).unwrap_err(),
        ClError::DeviceNotAvailable
    );
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let pid = cluster.spawn(node);
    assert!(matches!(
        snapshot(
            &mut lib,
            &mut cluster,
            pid,
            "/ram/x",
            &CprPolicy::sequential()
        ),
        Err(checl::cpr::CheclCprError::NoProxy)
    ));
    assert!(matches!(
        restore_checl(&mut lib, &mut now, RestoreTarget::default()),
        Err(checl::cpr::CheclCprError::NoProxy)
    ));
}

/// A restore that fails part-way through the buffers leaves the saved
/// bytes of every buffer after the failing one in place, so a caller
/// that keeps the process alive (a proxy respawn) loses no saved data.
#[test]
fn a_failed_restore_keeps_the_saved_data_of_buffers_not_yet_restored() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::All).unwrap();
    let ctx = ocl.create_context(&d[..1]).unwrap();
    ocl.create_command_queue(ctx, d[0], QueueProps::default())
        .unwrap();
    // No queue drives this context, so its buffer's upload fails.
    let bare = ocl.create_context(&d[..1]).unwrap();
    let rw = MemFlags::READ_WRITE;
    let first = ocl.create_buffer(ctx, rw, 64, None).unwrap();
    let stuck = ocl.create_buffer(bare, rw, 64, None).unwrap();
    let last = ocl.create_buffer(ctx, rw, 64, None).unwrap();
    let bytes = |m: Mem| vec![m.raw().0 as u8; 64];
    for m in [first, stuck, last] {
        if let ObjectRecord::Mem { saved_data, .. } =
            &mut booted.lib.db.get_mut(m.raw().0).unwrap().record
        {
            *saved_data = Some(bytes(m).into());
        }
    }

    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.process_mut(app_pid).clock = now;
    checl::boot::refork_proxy(&mut cluster, &mut booted.lib, app_pid, nimbus());
    let mut now = cluster.process(app_pid).clock;
    assert!(matches!(
        restore_checl(&mut booted.lib, &mut now, RestoreTarget::default()),
        Err(checl::cpr::CheclCprError::Cl(ClError::InvalidContext))
    ));
    let saved = |m: Mem| match &booted.lib.db.get(m.raw().0).unwrap().record {
        ObjectRecord::Mem { saved_data, .. } => saved_data.as_deref().map(<[u8]>::to_vec),
        _ => unreachable!("a buffer's record"),
    };
    assert_eq!(saved(first), None, "uploaded, so handed to the device");
    assert_eq!(saved(last), Some(bytes(last)));
}

#[test]
fn use_host_ptr_works_but_degrades_performance() {
    // §IV-D: USE_HOST_PTR is supported "but usually causes severe
    // performance degradation" from the redundant transfers.
    let run = |flags: MemFlags| {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app_pid = cluster.spawn(node);
        let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
        let mut now = cluster.process(app_pid).clock;
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
        let ctx = ocl.create_context(&d).unwrap();
        let q = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let n = 1u32 << 20; // 4 MiB
        let init = vec![0u8; (n * 4) as usize];
        let buf = ocl
            .create_buffer(ctx, flags, (n * 4) as u64, Some(init.into()))
            .unwrap();
        // null_kernel does no device work, so the redundant
        // host↔device traffic of USE_HOST_PTR is fully exposed.
        let src = clkernels::program_source("null").unwrap().source;
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        ocl.build_program(prog, "").unwrap();
        let k = ocl.create_kernel(prog, "null_kernel").unwrap();
        ocl.set_arg_mem(k, 0, buf).unwrap();
        let t0 = ocl.now();
        for _ in 0..4 {
            ocl.enqueue_nd_range(q, k, NDRange::d1(n as u64), None, &[])
                .unwrap();
            ocl.finish(q).unwrap();
        }
        ocl.now().since(t0)
    };
    let plain = run(MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR);
    let host_ptr = run(MemFlags::READ_WRITE | MemFlags::USE_HOST_PTR);
    assert!(
        host_ptr > plain * 2,
        "USE_HOST_PTR {host_ptr} should be much slower than plain {plain}"
    );
}

#[test]
fn false_positive_scalar_matching_checl_handle() {
    // The documented hazard of address guessing (§IV-D): a u64 scalar
    // that happens to equal a live CheCL handle gets "translated".
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 64, None)
        .unwrap();
    let src = clkernels::program_source("null").unwrap().source;
    let prog_src = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog_src, "").unwrap();
    let binary = ocl.get_program_binary(prog_src).unwrap();
    let prog = ocl.create_program_with_binary(ctx, d[0], binary).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "null_kernel").unwrap();
    // The app passes a *scalar* that coincides with the buffer's CheCL
    // handle value. With no signature, CheCL misclassifies it.
    let unlucky: u64 = buf.raw().0;
    ocl.set_kernel_arg(k, 0, ArgValue::Bytes(unlucky.to_le_bytes().to_vec()))
        .unwrap();
    let _ = ocl;
    assert_eq!(booted.lib.stats().guessed_args, 1);
    // The recorded arg is a Handle — i.e. it *was* (mis)classified.
    let entry = booted.lib.db.get(k.raw().0).unwrap();
    match &entry.record {
        checl::ObjectRecord::Kernel { args, .. } => {
            assert!(matches!(args[&0], checl::RecordedArg::Handle(h) if h == unlucky));
        }
        _ => panic!("not a kernel record"),
    }
    let _ = RawHandle(unlucky);
}

#[test]
fn images_survive_checkpoint_and_cross_vendor_restart() {
    // clCreateImage2D objects are cl_mem with 2-D layout; their texels
    // must survive CPR and migration exactly like buffers.
    let mut cluster = Cluster::with_standard_nodes(2);
    let nodes = cluster.node_ids();
    let app_pid = cluster.spawn(nodes[0]);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let mut ocl = Ocl::new(&mut booted.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let q = ocl
        .create_command_queue(ctx, d[0], QueueProps::default())
        .unwrap();
    let (w, h) = (64u64, 32u64);
    let texels: Vec<u8> = (0..w * h * 4).map(|i| (i % 251) as u8).collect();
    let img = ocl
        .create_image2d(ctx, MemFlags::READ_WRITE, w, h, Some(texels.clone().into()))
        .unwrap();
    // A plain buffer handle must not bind to an image2d_t parameter.
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 256, None)
        .unwrap();
    let src = r#"
__kernel void peek(image2d_t img, __global float* out) { }
"#;
    let prog = ocl.create_program_with_source(ctx, src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "peek").unwrap();
    ocl.set_arg_mem(k, 0, buf).unwrap(); // wrong flavour
    ocl.set_arg_mem(k, 1, buf).unwrap();
    assert_eq!(
        ocl.enqueue_nd_range(q, k, NDRange::d1(1), None, &[])
            .unwrap_err(),
        ClError::InvalidArgValue
    );
    let _ = ocl;
    cluster.process_mut(app_pid).clock = now;

    snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/nfs/img.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap();
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);

    let (mut lib2, pid2, _) = restore(
        &mut cluster,
        nodes[1],
        "/nfs/img.ckpt",
        crimson(),
        RestoreTarget::default(),
    )
    .unwrap();
    let mut now2 = cluster.process(pid2).clock;
    let mut ocl2 = Ocl::new(&mut lib2, &mut now2);
    let (back, _) = ocl2.enqueue_read_image(q, img, true, &[]).unwrap();
    assert_eq!(
        back,
        texels.into(),
        "texels must survive cross-vendor migration"
    );
}

#[test]
fn restore_after_db_corruption_is_detected() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let _app = build_app(&mut booted.lib, &mut now, 1 << 10);
    cluster.process_mut(app_pid).clock = now;
    snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/c.ckpt",
        &CprPolicy::sequential(),
    )
    .unwrap();

    // Flip a byte inside the frame (not the padding): detected by the
    // frame checksum at restart.
    let reader = cluster.spawn(node);
    let mut bytes = cluster.read_file(reader, "/local/c.ckpt").unwrap();
    bytes.flip(64, 0xff);
    cluster.write_file(reader, "/local/c.ckpt", bytes).unwrap();
    match restore(
        &mut cluster,
        node,
        "/local/c.ckpt",
        nimbus(),
        RestoreTarget::default(),
    ) {
        Err(checl::cpr::CheclCprError::Cpr(blcr::CprError::Corrupt(_))) => {}
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("corruption must not restart"),
    }
}
