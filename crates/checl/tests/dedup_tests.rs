//! Content-addressed dedup checkpoint tests: the chunk-store data path
//! must restore bit-exactly at every policy lattice point, cost near
//! zero bytes for unchanged buffers across generations, skip the device
//! read of a buffer no write touched (the §IV-D incremental fast path),
//! re-read every buffer after a faulted attempt, survive a mid-dump
//! abort without damaging earlier generations, and refuse a chunk map
//! whose recorded length its chunks do not back. Sealed streamed dumps
//! whose payload frames lie (a dropped frame, an unknown handle, a
//! wrong length) are corruption on every read path, and a dedup policy
//! records the one streamed lattice point it runs.

use blcr::CprError;
use checl::runtime::ChecLib;
use checl::{boot_checl, CheclConfig, CheclCprError, CprPolicy, RecoveryPolicy, RestoreTarget};
use cldriver::vendor::nimbus;
use clspec::types::{DeviceType, MemFlags, NDRange, QueueProps};
use clspec::{Kernel, Mem, Ocl};
use osproc::{Cluster, FaultPlan};
use simcore::fnv1a64;

struct App {
    queue: clspec::CommandQueue,
    a: Mem,
    b: Mem,
    c: Mem,
    kernel: Kernel,
    n: u32,
}

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn build_app(lib: &mut ChecLib, now: &mut simcore::SimTime, n: u32) -> App {
    let mut ocl = Ocl::new(lib, now);
    let platforms = ocl.get_platform_ids().unwrap();
    let devices = ocl.get_device_ids(platforms[0], DeviceType::All).unwrap();
    let ctx = ocl.create_context(&[devices[0]]).unwrap();
    let queue = ocl
        .create_command_queue(ctx, devices[0], QueueProps::default())
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

/// Read every live buffer's device contents — the state a checkpoint
/// must preserve.
fn device_state_checksum(lib: &mut ChecLib, now: &mut simcore::SimTime, app: &App) -> u64 {
    let mut ocl = Ocl::new(lib, now);
    let mut acc: u64 = 0;
    for m in [app.a, app.b, app.c] {
        let (data, _) = ocl
            .enqueue_read_buffer(app.queue, m, true, 0, (app.n * 4) as u64, &[])
            .unwrap();
        acc ^= fnv1a64(&data);
    }
    acc
}

#[test]
fn dedup_snapshot_restores_bit_exactly() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 14);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let policy = CprPolicy::pipelined().dedup(true);
    let outcome = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/dd.ckpt",
        &policy,
    )
    .unwrap();
    let stats = outcome.report.dedup.expect("dedup policy reports stats");
    assert!(stats.chunks_total > 0, "payload must have been chunked");
    assert!(stats.stored_bytes > 0, "first generation stores novel data");
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    drop(booted);

    let (mut lib2, pid2, _) = checl::restore(
        &mut cluster,
        node,
        "/local/dd.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    let mut now2 = cluster.process(pid2).clock;
    let after = device_state_checksum(&mut lib2, &mut now2, &app);
    assert_eq!(after, golden, "dedup'd snapshot must restore bit-exactly");
}

#[test]
fn unchanged_buffers_cost_near_zero_bytes_across_generations() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 14);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let policy = CprPolicy::pipelined().dedup(true);
    let gen0 = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/g0.ckpt",
        &policy,
    )
    .unwrap();
    let s0 = gen0.report.dedup.unwrap();
    assert!(s0.stored_bytes > 0);

    // Nothing touched the buffers: the second generation must dedup
    // every chunk, and dirty-region tracking must prove every chunk
    // clean without rescanning.
    let gen1 = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/g1.ckpt",
        &policy,
    )
    .unwrap();
    let s1 = gen1.report.dedup.unwrap();
    assert_eq!(s1.stored_bytes, 0, "no novel bytes in an unchanged run");
    assert_eq!(s1.chunks_deduped, s1.chunks_total);
    assert_eq!(
        s1.chunks_region_clean, s1.chunks_total,
        "region tracking must prove every chunk clean"
    );
    assert_eq!(s1.compress_ns, 0, "clean chunks skip the hashing pass");

    // A partial write re-dirties only the touched chunks.
    let mut now = cluster.process(app_pid).clock;
    {
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        ocl.enqueue_write_buffer(app.queue, app.a, true, 0, vec![0xA5u8; 512].into(), &[])
            .unwrap();
        ocl.finish(app.queue).unwrap();
    }
    cluster.process_mut(app_pid).clock = now;
    let gen2 = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/g2.ckpt",
        &policy,
    )
    .unwrap();
    let s2 = gen2.report.dedup.unwrap();
    assert!(
        s2.chunks_region_clean > 0,
        "untouched buffers stay region-clean"
    );
    assert!(
        s2.chunks_region_clean < s2.chunks_total,
        "the patched chunk must be rescanned"
    );
    assert!(
        s2.stored_bytes < s0.stored_bytes / 4,
        "a 512-byte patch must not re-store the working set \
         (gen2 stored {} vs gen0 {})",
        s2.stored_bytes,
        s0.stored_bytes
    );
}

#[test]
fn dedup_restores_bit_exactly_across_policy_lattice() {
    // Every lattice point that can carry dedup: {plain | pipelined} ×
    // {raw | recovery-hardened}, with or without a write between the
    // two generations. Each must restore the same device state the
    // baseline preserves.
    simcore::qcheck::qcheck("dedup_policy_lattice_roundtrip", 10, |g| {
        let pipelined = g.bool();
        let recovery = g.bool();
        let mutate = g.bool();
        let n = 1u32 << g.range(10, 13);

        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app_pid = cluster.spawn(node);
        let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
        let mut now = cluster.process(app_pid).clock;
        let app = build_app(&mut booted.lib, &mut now, n);
        let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
        cluster.process_mut(app_pid).clock = now;

        let mut policy = if pipelined {
            CprPolicy::pipelined()
        } else {
            CprPolicy::sequential()
        }
        .dedup(true);
        if recovery {
            policy = policy.with_recovery(RecoveryPolicy::default());
        }
        // Two generations so the clean-buffer fast path is live; an
        // optional patch in between mixes it with re-chunking.
        checl::snapshot(
            &mut booted.lib,
            &mut cluster,
            app_pid,
            "/local/lat0.ckpt",
            &policy,
        )
        .unwrap();
        let mut now = cluster.process(app_pid).clock;
        if mutate {
            patch(&mut booted.lib, &mut now, &app, app.b);
        }
        let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
        cluster.process_mut(app_pid).clock = now;
        let outcome = checl::snapshot(
            &mut booted.lib,
            &mut cluster,
            app_pid,
            "/local/lat1.ckpt",
            &policy,
        )
        .unwrap();
        checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
        cluster.kill(app_pid);
        drop(booted);

        let (mut lib2, pid2, _) = checl::restore(
            &mut cluster,
            node,
            &outcome.path,
            nimbus(),
            RestoreTarget::default(),
        )
        .unwrap();
        let mut now2 = cluster.process(pid2).clock;
        let after = device_state_checksum(&mut lib2, &mut now2, &app);
        assert_eq!(
            after,
            golden,
            "policy {} must restore bit-exactly",
            policy.label()
        );
    });
}

#[test]
fn mid_dump_abort_leaves_previous_generation_intact() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 13);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let policy = CprPolicy::pipelined().dedup(true);
    checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/keep.ckpt",
        &policy,
    )
    .unwrap();

    // Mutate a buffer so the next generation has novel chunks to write,
    // then make every write fail mid-dump.
    let mut now = cluster.process(app_pid).clock;
    {
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        ocl.enqueue_write_buffer(app.queue, app.a, true, 0, vec![0x5Au8; 4096].into(), &[])
            .unwrap();
        ocl.finish(app.queue).unwrap();
    }
    cluster.process_mut(app_pid).clock = now;
    cluster.install_faults(FaultPlan::new(11).fail_next_writes(u32::MAX));
    let doomed = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/doomed.ckpt",
        &policy,
    );
    assert!(
        doomed.is_err(),
        "a dump under total write failure must fail"
    );
    cluster.install_faults(FaultPlan::new(11)); // lift the fault

    // The aborted attempt must not have damaged the committed
    // generation or the chunks it references in the shared store.
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    drop(booted);
    let (mut lib2, pid2, _) = checl::restore(
        &mut cluster,
        node,
        "/local/keep.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    let mut now2 = cluster.process(pid2).clock;
    let after = device_state_checksum(&mut lib2, &mut now2, &app);
    assert_eq!(
        after, golden,
        "previous generation must survive a mid-dump abort"
    );
}

/// Overwrite the first 512 bytes of `mem` from the host.
fn patch(lib: &mut ChecLib, now: &mut simcore::SimTime, app: &App, mem: Mem) {
    let mut ocl = Ocl::new(lib, now);
    ocl.enqueue_write_buffer(app.queue, mem, true, 0, vec![0xA5u8; 512].into(), &[])
        .unwrap();
    ocl.finish(app.queue).unwrap();
}

/// Take one dedup snapshot at `path`, returning the dedup stats and
/// how many device reads it forwarded.
fn dedup_gen(
    lib: &mut ChecLib,
    cluster: &mut Cluster,
    pid: osproc::Pid,
    path: &str,
) -> (checl::DedupStats, u64) {
    simcore::telemetry::start_recording();
    let out = checl::snapshot(lib, cluster, pid, path, &CprPolicy::pipelined().dedup(true))
        .unwrap_or_else(|e| panic!("dedup snapshot at {path} failed: {e}"));
    let calls = simcore::telemetry::stop_recording().unwrap().metrics;
    (
        out.report.dedup.expect("dedup stats"),
        calls.counter("checl.calls.clEnqueueReadBuffer"),
    )
}

/// Kill the app, restore `path` and return its device-state checksum.
fn restored_checksum(
    cluster: &mut Cluster,
    mut lib: ChecLib,
    pid: osproc::Pid,
    path: &str,
    app: &App,
) -> u64 {
    let node = cluster.process(pid).node;
    checl::boot::kill_proxy(cluster, &mut lib);
    cluster.kill(pid);
    let (mut lib2, pid2, _) =
        checl::restore(cluster, node, path, nimbus(), RestoreTarget::default()).unwrap();
    let mut now = cluster.process(pid2).clock;
    device_state_checksum(&mut lib2, &mut now, app)
}

#[test]
fn untouched_buffers_skip_the_device_read() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 13);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    // Generation 0 reads all three buffers off the device.
    let (s0, r0) = dedup_gen(&mut booted.lib, &mut cluster, app_pid, "/local/cl0.ckpt");
    assert_eq!(r0, 3);
    // Generation 1, nothing written since: no device read at all, and
    // exactly the chunk accounting a region-clean rescan would give.
    let (s1, r1) = dedup_gen(&mut booted.lib, &mut cluster, app_pid, "/local/cl1.ckpt");
    assert_eq!(r1, 0, "an untouched buffer must not be read back");
    assert_eq!(s1.chunks_total, s0.chunks_total);
    assert_eq!(s1.raw_bytes, s0.raw_bytes);
    assert_eq!(s1.chunks_region_clean, s1.chunks_total);
    assert_eq!(s1.deduped_bytes, s1.raw_bytes);
    assert_eq!((s1.stored_bytes, s1.compress_ns), (0, 0));
    // Generation 2 after a host write to `a`: only `a` is read back.
    let mut now = cluster.process(app_pid).clock;
    patch(&mut booted.lib, &mut now, &app, app.a);
    let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;
    let (_, r2) = dedup_gen(&mut booted.lib, &mut cluster, app_pid, "/local/cl2.ckpt");
    assert_eq!(r2, 1, "only the patched buffer is read back");

    let after = restored_checksum(&mut cluster, booted.lib, app_pid, "/local/cl2.ckpt", &app);
    assert_eq!(
        after, golden,
        "re-emitted chunk maps must restore bit-exactly"
    );
}

#[test]
fn faulted_dedup_attempt_redirties_its_buffers() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 13);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    dedup_gen(&mut booted.lib, &mut cluster, app_pid, "/local/fz0.ckpt");
    cluster.install_faults(FaultPlan::new(7).fail_next_writes(u32::MAX));
    let faulted = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/fz1.ckpt",
        &CprPolicy::pipelined().dedup(true),
    );
    assert!(
        faulted.is_err(),
        "a dump under total write failure must fail"
    );
    cluster.install_faults(FaultPlan::new(7));
    // The faulted attempt forgot its chunk lists: the next generation
    // reads every buffer back and trusts nothing from the abandoned one.
    let (s2, r2) = dedup_gen(&mut booted.lib, &mut cluster, app_pid, "/local/fz2.ckpt");
    assert_eq!(r2, 3, "every buffer of the faulted attempt is re-read");
    assert_eq!(s2.chunks_region_clean, 0);

    let after = restored_checksum(&mut cluster, booted.lib, app_pid, "/local/fz2.ckpt", &app);
    assert_eq!(
        after, golden,
        "the generation after a fault restores bit-exactly"
    );
}

#[test]
fn oversized_chunk_map_restores_to_a_typed_error() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 12);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;
    dedup_gen(&mut booted.lib, &mut cluster, app_pid, "/local/ok.ckpt");

    // Re-seal the same dump with one map claiming a terabyte: every
    // frame checksum holds, only the recorded length lies.
    let bytes = cluster.read_file(app_pid, "/local/ok.ckpt").unwrap();
    let parsed = blcr::parse_stream(bytes.body()).unwrap();
    cluster.process_mut(app_pid).image = parsed.header.image.clone();
    let mut w = blcr::StreamWriter::begin(&mut cluster, app_pid, "/local/lying.ckpt").unwrap();
    for (i, map) in parsed.maps.iter().enumerate() {
        let total_len = if i == 0 { 1 << 40 } else { map.total_len };
        w.append_chunk_map(
            &mut cluster,
            map.handle,
            &map.store,
            total_len,
            map.segments.clone(),
        )
        .unwrap();
    }
    w.finish(&mut cluster).unwrap();
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);

    match checl::restore(
        &mut cluster,
        node,
        "/local/lying.ckpt",
        nimbus(),
        RestoreTarget::default(),
    ) {
        Err(CheclCprError::Cpr(CprError::Corrupt(_))) => {}
        Err(other) => panic!("expected a typed corruption error, got {other}"),
        Ok(_) => panic!("a lying chunk map must not restore"),
    }
}

#[test]
fn every_streamed_point_is_labelled_and_runs_pipelined() {
    // `pipelined` adds nothing once dedup is on: both policies take the
    // same data path, so they must record the same lattice point and
    // produce the same report.
    let run = |policy: &CprPolicy| {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app_pid = cluster.spawn(node);
        let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
        let mut now = cluster.process(app_pid).clock;
        let app = build_app(&mut booted.lib, &mut now, 1 << 12);
        let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
        cluster.process_mut(app_pid).clock = now;
        checl::snapshot(
            &mut booted.lib,
            &mut cluster,
            app_pid,
            "/local/l.ckpt",
            policy,
        )
        .unwrap()
        .report
    };
    let bare = CprPolicy::sequential().dedup(true);
    let piped = CprPolicy::pipelined().dedup(true);
    assert_eq!(bare.label(), "streamed+pipelined+dedup");
    assert_eq!(bare.label(), piped.label());
    assert_eq!(run(&bare), run(&piped));
    assert_eq!(
        CprPolicy::sequential().live(true).label(),
        CprPolicy::pipelined().live(true).label()
    );
}

/// Re-emit the streamed dump at `from` as `to` through a fresh
/// `StreamWriter`, with its inline chunk frames passed through `edit`:
/// every frame checksum and the trailer seal hold, only the payloads
/// lie. `pid`'s image is left as it was.
fn reseal(
    cluster: &mut Cluster,
    pid: osproc::Pid,
    from: &str,
    to: &str,
    edit: impl FnOnce(&mut Vec<blcr::StreamChunk>),
) {
    let bytes = cluster.read_file(pid, from).unwrap();
    let mut parsed = blcr::parse_stream(bytes.body()).unwrap();
    let image = std::mem::replace(&mut cluster.process_mut(pid).image, parsed.header.image);
    let mut w = blcr::StreamWriter::begin(cluster, pid, to).unwrap();
    edit(&mut parsed.chunks);
    for chunk in parsed.chunks {
        w.append_chunk(cluster, chunk.handle, chunk.data).unwrap();
    }
    w.finish(cluster).unwrap();
    cluster.process_mut(pid).image = image;
}

#[test]
fn sealed_dumps_that_lie_about_payloads_are_corrupt() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 12);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;
    checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/ok.ckpt",
        &CprPolicy::pipelined(),
    )
    .unwrap();

    let lies = [
        "/local/dropped.ckpt",
        "/local/unknown.ckpt",
        "/local/short.ckpt",
    ];
    reseal(&mut cluster, app_pid, "/local/ok.ckpt", lies[0], |chunks| {
        chunks.remove(1);
    });
    reseal(&mut cluster, app_pid, "/local/ok.ckpt", lies[1], |chunks| {
        chunks[0].handle = 0xdead_beef;
    });
    reseal(&mut cluster, app_pid, "/local/ok.ckpt", lies[2], |chunks| {
        let mut short = chunks[2].data.clone().into_vec();
        short.pop();
        chunks[2].data = short.into();
    });

    let is_corrupt =
        |r: Result<(), CheclCprError>| matches!(r, Err(CheclCprError::Cpr(CprError::Corrupt(_))));
    for path in lies {
        let restored = checl::restore(&mut cluster, node, path, nimbus(), RestoreTarget::default())
            .map(|_| ());
        assert!(is_corrupt(restored), "restore of {path} must be corrupt");
    }
    // The proxy-respawn path decodes through the post-write verify
    // step's decoder.
    for path in lies {
        let respawned = checl::respawn_proxy_and_restore(
            &mut cluster,
            &mut booted.lib,
            app_pid,
            path,
            nimbus(),
            RestoreTarget::default(),
        )
        .map(|_| ());
        assert!(is_corrupt(respawned), "respawn from {path} must be corrupt");
    }
    // The honest dump still restores in place.
    checl::respawn_proxy_and_restore(
        &mut cluster,
        &mut booted.lib,
        app_pid,
        "/local/ok.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
}
