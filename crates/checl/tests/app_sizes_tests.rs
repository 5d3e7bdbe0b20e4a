//! Sizes and offsets an application supplies are data, not trust: out
//! of range they are refused with an OpenCL error, never a panic or a
//! wrapped size. A rejected enqueue does no work. Each case runs on a
//! native driver and through the CheCL shim, and both must agree.

use checl::{boot_checl, ChecLib, CheclConfig, CprPolicy, ObjectRecord};
use cldriver::vendor::nimbus;
use cldriver::Driver;
use clspec::api::ClApi;
use clspec::error::ClError;
use clspec::types::{DeviceType, MemFlags, NDRange, QueueProps};
use clspec::{CommandQueue, Context, Event, Mem, Ocl};
use osproc::Cluster;

/// Run `check` natively and through the shim, each on a fresh nimbus
/// GPU with a context and an in-order queue.
fn on_both(check: impl Fn(&mut Ocl<'_>, Context, CommandQueue)) {
    let mut cluster = Cluster::with_standard_nodes(1);
    let app = cluster.spawn(cluster.node_ids()[0]);
    let mut shim = boot_checl(&mut cluster, app, nimbus(), CheclConfig::default());
    let mut native = Driver::new(nimbus(), app);
    let apis: [&mut dyn ClApi; 2] = [&mut native, &mut shim.lib];
    for api in apis {
        let mut now = cluster.process(app).clock;
        let mut ocl = Ocl::new(api, &mut now);
        let (ctx, q) = gpu_queue(&mut ocl);
        check(&mut ocl, ctx, q);
    }
}

/// A context and an in-order queue on the first GPU.
fn gpu_queue(ocl: &mut Ocl<'_>) -> (Context, CommandQueue) {
    let platforms = ocl.get_platform_ids().unwrap();
    let dev = ocl.get_device_ids(platforms[0], DeviceType::Gpu).unwrap()[0];
    let ctx = ocl.create_context(&[dev]).unwrap();
    let q = ocl
        .create_command_queue(ctx, dev, QueueProps::default())
        .unwrap();
    (ctx, q)
}

fn buffer(ocl: &mut Ocl<'_>, ctx: Context, bytes: &[u8]) -> Mem {
    let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
    ocl.create_buffer(ctx, flags, bytes.len() as u64, Some(bytes.to_vec().into()))
        .unwrap()
}

/// An event that was once valid and has been released.
fn dead_event(ocl: &mut Ocl<'_>, q: CommandQueue) -> Event {
    let ev = ocl.enqueue_marker(q).unwrap();
    ocl.release_event(ev).unwrap();
    ev
}

#[test]
fn a_read_past_u64_max_is_invalid_value() {
    on_both(|ocl, ctx, q| {
        let b = buffer(ocl, ctx, &[1; 16]);
        for (offset, size) in [(u64::MAX, 8), (8, u64::MAX), (u64::MAX, u64::MAX)] {
            let err = ocl.enqueue_read_buffer(q, b, true, offset, size, &[]);
            assert_eq!(err.unwrap_err(), ClError::InvalidValue);
        }
    });
}

#[test]
fn a_write_past_u64_max_is_invalid_value() {
    on_both(|ocl, ctx, q| {
        let b = buffer(ocl, ctx, &[1; 16]);
        let err = ocl.enqueue_write_buffer(q, b, true, u64::MAX, vec![7; 8].into(), &[]);
        assert_eq!(err.unwrap_err(), ClError::InvalidValue);
        let (data, _) = ocl.enqueue_read_buffer(q, b, true, 0, 16, &[]).unwrap();
        assert_eq!(data, vec![1; 16].into());
    });
}

#[test]
fn a_copy_past_u64_max_is_invalid_value() {
    on_both(|ocl, ctx, q| {
        let src = buffer(ocl, ctx, &[1; 16]);
        let dst = buffer(ocl, ctx, &[2; 16]);
        for (src_offset, dst_offset, size) in [(u64::MAX, 0, 8), (0, u64::MAX, 8), (8, 8, u64::MAX)]
        {
            let err = ocl.enqueue_copy_buffer(q, src, dst, src_offset, dst_offset, size, &[]);
            assert_eq!(err.unwrap_err(), ClError::InvalidValue);
        }
        let (data, _) = ocl.enqueue_read_buffer(q, dst, true, 0, 16, &[]).unwrap();
        assert_eq!(data, vec![2; 16].into());
    });
}

/// A write into 16-byte `dst` and copies between `src` and `dst`, each
/// ending 4 bytes past a buffer's end: all `InvalidValue`.
fn refuse_spans_past_the_end(ocl: &mut Ocl<'_>, q: CommandQueue, src: Mem, dst: Mem) {
    let err = ocl.enqueue_write_buffer(q, dst, true, 12, vec![7; 8].into(), &[]);
    assert_eq!(err.unwrap_err(), ClError::InvalidValue);
    for (src_offset, dst_offset) in [(12, 0), (0, 12)] {
        let err = ocl.enqueue_copy_buffer(q, src, dst, src_offset, dst_offset, 8, &[]);
        assert_eq!(err.unwrap_err(), ClError::InvalidValue);
    }
}

/// A write or copy whose span passes its buffer's end is refused before
/// it does any work. Natively and through the shim both buffers keep
/// their bytes; in the shim the destination also stays clean with its
/// regions as they were, and a pending live cut forks nothing for it.
#[test]
fn a_span_past_the_buffer_end_does_no_work() {
    on_both(|ocl, ctx, q| {
        let src = buffer(ocl, ctx, &[1; 16]);
        let dst = buffer(ocl, ctx, &[2; 16]);
        refuse_spans_past_the_end(ocl, q, src, dst);
        for (mem, fill) in [(src, 1), (dst, 2)] {
            let (data, _) = ocl.enqueue_read_buffer(q, mem, true, 0, 16, &[]).unwrap();
            assert_eq!(data, vec![fill; 16].into());
        }
    });

    let mut cluster = Cluster::with_standard_nodes(1);
    let app = cluster.spawn(cluster.node_ids()[0]);
    let mut shim = boot_checl(&mut cluster, app, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app).clock;
    let (q, src, dst) = {
        let mut ocl = Ocl::new(&mut shim.lib, &mut now);
        let (ctx, q) = gpu_queue(&mut ocl);
        (
            q,
            buffer(&mut ocl, ctx, &[1; 16]),
            buffer(&mut ocl, ctx, &[2; 16]),
        )
    };
    cluster.process_mut(app).clock = now;
    let live = CprPolicy::sequential().live(true);
    checl::snapshot(&mut shim.lib, &mut cluster, app, "/local/span.ckpt", &live).unwrap();
    let dirt = |lib: &ChecLib| match &lib.db.get(dst.raw().0).unwrap().record {
        ObjectRecord::Mem {
            dirty,
            dirty_regions,
            ..
        } => (*dirty, dirty_regions.clone()),
        other => panic!("not a buffer: {other:?}"),
    };
    let before = dirt(&shim.lib);
    assert!(!before.0, "the snapshot leaves the destination clean");
    let mut now = cluster.process(app).clock;
    refuse_spans_past_the_end(&mut Ocl::new(&mut shim.lib, &mut now), q, src, dst);
    assert_eq!(
        dirt(&shim.lib),
        before,
        "a refused call dirtied its destination"
    );
    cluster.process_mut(app).clock = now;
    let drained = checl::complete_live_drain(&mut shim.lib, &mut cluster, app)
        .unwrap()
        .expect("the live cut was pending");
    assert_eq!((drained.forked_chunks, drained.forked_bytes), (0, 0));
}

#[test]
fn an_allocation_past_u64_max_fails() {
    on_both(|ocl, ctx, _| {
        // 16 bytes in use: one more `u64::MAX - 8` wraps the gauge.
        buffer(ocl, ctx, &[0; 16]);
        let err = ocl.create_buffer(ctx, MemFlags::READ_WRITE, u64::MAX - 8, None);
        assert_eq!(err.unwrap_err(), ClError::MemObjectAllocationFailure);
    });
}

#[test]
fn an_image_size_past_u64_max_is_invalid_value() {
    on_both(|ocl, ctx, _| {
        // 2^62 texels of 4 bytes wrap to a 0-byte image.
        for (width, height) in [(1 << 62, 1), (1 << 32, 1 << 32), (u64::MAX, u64::MAX)] {
            let err = ocl.create_image2d(ctx, MemFlags::READ_ONLY, width, height, None);
            assert_eq!(err.unwrap_err(), ClError::InvalidValue);
        }
    });
}

#[test]
fn a_write_rejected_for_its_wait_list_changes_nothing() {
    on_both(|ocl, ctx, q| {
        let b = buffer(ocl, ctx, &[0; 8]);
        let dead = dead_event(ocl, q);
        let err = ocl.enqueue_write_buffer(q, b, true, 0, vec![7; 8].into(), &[dead]);
        assert_eq!(err.unwrap_err(), ClError::InvalidEvent);
        let (data, _) = ocl.enqueue_read_buffer(q, b, true, 0, 8, &[]).unwrap();
        assert_eq!(data, vec![0; 8].into());
    });
}

#[test]
fn a_copy_rejected_for_its_wait_list_changes_nothing() {
    on_both(|ocl, ctx, q| {
        let src = buffer(ocl, ctx, &[7; 8]);
        let dst = buffer(ocl, ctx, &[0; 8]);
        let dead = dead_event(ocl, q);
        let err = ocl.enqueue_copy_buffer(q, src, dst, 0, 0, 8, &[dead]);
        assert_eq!(err.unwrap_err(), ClError::InvalidEvent);
        let (data, _) = ocl.enqueue_read_buffer(q, dst, true, 0, 8, &[]).unwrap();
        assert_eq!(data, vec![0; 8].into());
    });
}

#[test]
fn a_launch_rejected_for_its_wait_list_changes_nothing() {
    on_both(|ocl, ctx, q| {
        let a = buffer(ocl, ctx, &1f32.to_le_bytes().repeat(4));
        let b = buffer(ocl, ctx, &2f32.to_le_bytes().repeat(4));
        let c = buffer(ocl, ctx, &[0; 16]);
        let src = clkernels::program_source("vector_add").unwrap().source;
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        ocl.build_program(prog, "").unwrap();
        let k = ocl.create_kernel(prog, "vec_add").unwrap();
        for (i, m) in [a, b, c].into_iter().enumerate() {
            ocl.set_arg_mem(k, i as u32, m).unwrap();
        }
        ocl.set_arg_scalar(k, 3, 4u32).unwrap();
        let dead = dead_event(ocl, q);
        let err = ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[dead]);
        assert_eq!(err.unwrap_err(), ClError::InvalidEvent);
        let (data, _) = ocl.enqueue_read_buffer(q, c, true, 0, 16, &[]).unwrap();
        assert_eq!(data, vec![0; 16].into());
    });
}
