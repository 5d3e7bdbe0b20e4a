//! Integration tests: vendor drivers behave like OpenCL.

use cldriver::vendor::{crimson, nimbus};
use cldriver::Driver;
use clspec::api::ClApi;
use clspec::error::ClError;
use clspec::types::{ArgValue, DeviceType, EventStatus, MemFlags, NDRange, QueueProps};
use clspec::{Context, DeviceId, Mem, Ocl};
use osproc::Pid;
use simcore::{Payload, SimDuration, SimTime};

/// Standard setup: platform → device → context → queue.
fn setup(
    api: &mut dyn ClApi,
    now: &mut SimTime,
    device_type: DeviceType,
) -> (Context, DeviceId, clspec::CommandQueue) {
    let mut ocl = Ocl::new(api, now);
    let platforms = ocl.get_platform_ids().unwrap();
    assert_eq!(platforms.len(), 1);
    let devices = ocl.get_device_ids(platforms[0], device_type).unwrap();
    let dev = devices[0];
    let ctx = ocl.create_context(&[dev]).unwrap();
    let q = ocl
        .create_command_queue(ctx, dev, QueueProps::default())
        .unwrap();
    (ctx, dev, q)
}

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn to_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn end_to_end_vector_add() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);

    let n = 1024u32;
    let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
    let buf_a = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_ONLY | MemFlags::COPY_HOST_PTR,
            (n * 4) as u64,
            Some(f32s(&a).into()),
        )
        .unwrap();
    let buf_b = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_ONLY | MemFlags::COPY_HOST_PTR,
            (n * 4) as u64,
            Some(f32s(&b).into()),
        )
        .unwrap();
    let buf_c = ocl
        .create_buffer(ctx, MemFlags::WRITE_ONLY, (n * 4) as u64, None)
        .unwrap();

    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let kernel = ocl.create_kernel(prog, "vec_add").unwrap();
    ocl.set_arg_mem(kernel, 0, buf_a).unwrap();
    ocl.set_arg_mem(kernel, 1, buf_b).unwrap();
    ocl.set_arg_mem(kernel, 2, buf_c).unwrap();
    ocl.set_arg_scalar(kernel, 3, n).unwrap();
    let ev = ocl
        .enqueue_nd_range(q, kernel, NDRange::d1(n as u64), None, &[])
        .unwrap();
    ocl.finish(q).unwrap();
    assert_eq!(ocl.get_event_status(ev).unwrap(), EventStatus::Complete);

    let (data, _) = ocl
        .enqueue_read_buffer(q, buf_c, true, 0, (n * 4) as u64, &[])
        .unwrap();
    let c = to_f32(&data);
    for (i, v) in c.iter().enumerate().take(n as usize) {
        assert_eq!(*v, 3.0 * i as f32);
    }
}

#[test]
fn clock_advances_with_work() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let after_setup = now;
    let mut ocl = Ocl::new(&mut drv, &mut now);

    // 32 MB write at ~5.35 GB/s should cost ~6 ms of virtual time.
    let size = 32 * 1024 * 1024u64;
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, size, None)
        .unwrap();
    ocl.enqueue_write_buffer(q, buf, true, 0, vec![0u8; size as usize].into(), &[])
        .unwrap();
    let took = now.since(after_setup).as_secs_f64();
    assert!((0.004..0.012).contains(&took), "HtoD took {took}s");
}

#[test]
fn queue_serializes_kernels() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);

    let n = 1u64 << 18;
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, n * 4, None)
        .unwrap();
    let src = clkernels::program_source("max_flops").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "max_flops").unwrap();
    ocl.set_arg_mem(k, 0, buf).unwrap();
    ocl.set_arg_scalar(k, 1, n as u32).unwrap();
    ocl.set_arg_scalar(k, 2, 16u32).unwrap();

    let e1 = ocl
        .enqueue_nd_range(q, k, NDRange::d1(n), None, &[])
        .unwrap();
    let e2 = ocl
        .enqueue_nd_range(q, k, NDRange::d1(n), None, &[])
        .unwrap();
    let p1 = ocl.get_event_profiling(e1).unwrap();
    let p2 = ocl.get_event_profiling(e2).unwrap();
    // In-order queue: the second kernel starts when the first ends.
    assert!(
        p2.start >= p1.end,
        "p2.start {} < p1.end {}",
        p2.start,
        p1.end
    );
    // Enqueue returned immediately: host clock is far behind completion.
    assert!(ocl.now().as_nanos() < p2.end);
    ocl.finish(q).unwrap();
    assert!(ocl.now().as_nanos() >= p2.end);
}

#[test]
fn wait_list_orders_across_queues() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, dev, q1) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let q2 = ocl
        .create_command_queue(ctx, dev, QueueProps::default())
        .unwrap();

    let n = 1u64 << 16;
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, n * 4, None)
        .unwrap();
    let src = clkernels::program_source("max_flops").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "max_flops").unwrap();
    ocl.set_arg_mem(k, 0, buf).unwrap();
    ocl.set_arg_scalar(k, 1, n as u32).unwrap();
    ocl.set_arg_scalar(k, 2, 64u32).unwrap();

    let e1 = ocl
        .enqueue_nd_range(q1, k, NDRange::d1(n), None, &[])
        .unwrap();
    let e2 = ocl
        .enqueue_nd_range(q2, k, NDRange::d1(n), None, &[e1])
        .unwrap();
    let p1 = ocl.get_event_profiling(e1).unwrap();
    let p2 = ocl.get_event_profiling(e2).unwrap();
    assert!(p2.start >= p1.end);
    ocl.wait_for_events(&[e2]).unwrap();
    assert!(ocl.now().as_nanos() >= p2.end);
}

#[test]
fn marker_completes_with_queue() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (_ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    // Marker on an empty queue completes immediately.
    let m = ocl.enqueue_marker(q).unwrap();
    assert_eq!(ocl.get_event_status(m).unwrap(), EventStatus::Complete);
}

#[test]
fn handles_differ_between_driver_instances() {
    let mut d1 = Driver::new(nimbus(), Pid(1));
    let mut d2 = Driver::new(nimbus(), Pid(2));
    let mut t1 = SimTime::ZERO;
    let mut t2 = SimTime::ZERO;
    let (ctx1, ..) = setup(&mut d1, &mut t1, DeviceType::Gpu);
    let (ctx2, ..) = setup(&mut d2, &mut t2, DeviceType::Gpu);
    // Same creation sequence in two processes, different handle values:
    // the reason CheCL cannot hand vendor handles to the application.
    assert_ne!(ctx1.raw(), ctx2.raw());
}

#[test]
fn crimson_exposes_cpu_device_nimbus_does_not() {
    let mut nim = Driver::new(nimbus(), Pid(1));
    let mut cri = Driver::new(crimson(), Pid(1));
    let mut now = SimTime::ZERO;
    let mut ocl = Ocl::new(&mut nim, &mut now);
    let p = ocl.get_platform_ids().unwrap()[0];
    assert_eq!(
        ocl.get_device_ids(p, DeviceType::Cpu).unwrap_err(),
        ClError::DeviceNotFound
    );
    let mut now2 = SimTime::ZERO;
    let mut ocl2 = Ocl::new(&mut cri, &mut now2);
    let p2 = ocl2.get_platform_ids().unwrap()[0];
    let cpus = ocl2.get_device_ids(p2, DeviceType::Cpu).unwrap();
    assert_eq!(cpus.len(), 1);
    let info = ocl2.get_device_info(cpus[0]).unwrap();
    assert_eq!(info.device_type, DeviceType::Cpu);
    assert_eq!(info.name, "Core i7 920");
}

#[test]
fn radeon_rejects_oversized_work_groups() {
    // oclSortingNetworks "can run on the CPU but not on the AMD GPU,
    // because the number of work items in the x-dimension of a work
    // group is limited to 256 in the AMD GPU and to 1024 in the CPU".
    let mut drv = Driver::new(crimson(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let src = clkernels::program_source("sorting_networks")
        .unwrap()
        .source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "bitonic_sort").unwrap();
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 4096 * 4, None)
        .unwrap();
    ocl.set_arg_mem(k, 0, buf).unwrap();
    ocl.set_arg_scalar(k, 1, 4096u32).unwrap();
    ocl.set_arg_scalar(k, 2, 0u32).unwrap();
    ocl.set_arg_scalar(k, 3, 0u32).unwrap();
    let err = ocl
        .enqueue_nd_range(q, k, NDRange::d1(4096), Some(NDRange::d1(1024)), &[])
        .unwrap_err();
    assert_eq!(err, ClError::InvalidWorkGroupSize);
    // The CPU device accepts the same launch.
    let mut drv2 = Driver::new(crimson(), Pid(1));
    let mut now2 = SimTime::ZERO;
    let (ctx2, _d2, q2) = setup(&mut drv2, &mut now2, DeviceType::Cpu);
    let mut ocl2 = Ocl::new(&mut drv2, &mut now2);
    let prog2 = ocl2.create_program_with_source(ctx2, &src).unwrap();
    ocl2.build_program(prog2, "").unwrap();
    let k2 = ocl2.create_kernel(prog2, "bitonic_sort").unwrap();
    let buf2 = ocl2
        .create_buffer(ctx2, MemFlags::READ_WRITE, 4096 * 4, None)
        .unwrap();
    ocl2.set_arg_mem(k2, 0, buf2).unwrap();
    ocl2.set_arg_scalar(k2, 1, 4096u32).unwrap();
    ocl2.set_arg_scalar(k2, 2, 0u32).unwrap();
    ocl2.set_arg_scalar(k2, 3, 0u32).unwrap();
    ocl2.enqueue_nd_range(q2, k2, NDRange::d1(4096), Some(NDRange::d1(1024)), &[])
        .unwrap();
}

#[test]
fn device_memory_capacity_enforced() {
    // Radeon HD5870 has 1 GB: a 1.5 GB buffer must fail, and the
    // failure is how oclFDTD3d sizes itself down on the AMD GPU.
    let mut drv = Driver::new(crimson(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, ..) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let err = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 1_500_000_000, None)
        .unwrap_err();
    assert_eq!(err, ClError::MemObjectAllocationFailure);
    // Several small buffers accumulate against the same budget.
    let a = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 600_000_000, None)
        .unwrap();
    assert!(ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 600_000_000, None)
        .is_err());
    // Releasing frees the budget.
    ocl.release_mem(a).unwrap();
    ocl.create_buffer(ctx, MemFlags::READ_WRITE, 600_000_000, None)
        .unwrap();
}

#[test]
fn program_binary_roundtrip_same_vendor_only() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, dev, _q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let binary = ocl.get_program_binary(prog).unwrap();

    // Same vendor: accepted, kernels available, build is fast.
    let prog2 = ocl
        .create_program_with_binary(ctx, dev, binary.clone())
        .unwrap();
    let before = ocl.now();
    ocl.build_program(prog2, "").unwrap();
    let build_cost = ocl.now().since(before);
    assert!(build_cost < SimDuration::from_millis(1));
    ocl.create_kernel(prog2, "vec_add").unwrap();

    // Other vendor: rejected as an invalid binary.
    let mut other = Driver::new(crimson(), Pid(1));
    let mut now2 = SimTime::ZERO;
    let (ctx2, dev2, _) = setup(&mut other, &mut now2, DeviceType::Gpu);
    let mut ocl2 = Ocl::new(&mut other, &mut now2);
    assert_eq!(
        ocl2.create_program_with_binary(ctx2, dev2, binary)
            .unwrap_err(),
        ClError::InvalidBinary
    );
}

#[test]
fn crimson_builds_slower_than_nimbus() {
    let src = clkernels::program_source("mri_fhd").unwrap().source;
    let time_build = |cfg: cldriver::VendorConfig| {
        let mut drv = Driver::new(cfg, Pid(1));
        let mut now = SimTime::ZERO;
        let (ctx, ..) = setup(&mut drv, &mut now, DeviceType::Gpu);
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        let t0 = ocl.now();
        ocl.build_program(prog, "").unwrap();
        ocl.now().since(t0)
    };
    let n = time_build(nimbus());
    let c = time_build(crimson());
    assert!(c > n, "crimson {c} should compile slower than nimbus {n}");
}

#[test]
fn stale_handles_are_rejected() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 64, None)
        .unwrap();
    ocl.release_mem(buf).unwrap();
    // The handle value is now dangling.
    let err = ocl
        .enqueue_read_buffer(q, buf, true, 0, 64, &[])
        .unwrap_err();
    assert_eq!(err, ClError::InvalidMemObject);
    let bogus = Mem::from_raw(clspec::RawHandle(0x1234));
    assert_eq!(
        ocl.enqueue_read_buffer(q, bogus, true, 0, 4, &[])
            .unwrap_err(),
        ClError::InvalidMemObject
    );
}

#[test]
fn kernel_arg_validation() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "vec_add").unwrap();
    // Unknown kernel name.
    assert_eq!(
        ocl.create_kernel(prog, "no_such").unwrap_err(),
        ClError::InvalidKernelName
    );
    // Arg index out of range.
    assert_eq!(
        ocl.set_kernel_arg(k, 9, ArgValue::scalar(1u32))
            .unwrap_err(),
        ClError::InvalidArgIndex
    );
    // Launch with missing args.
    assert_eq!(
        ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
            .unwrap_err(),
        ClError::InvalidKernelArgs
    );
    // Local-mem value for a global pointer param.
    assert_eq!(
        ocl.set_kernel_arg(k, 0, ArgValue::LocalMem(64))
            .unwrap_err(),
        ClError::InvalidArgValue
    );
}

#[test]
fn unbuilt_program_cannot_make_kernels() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, ..) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    assert_eq!(
        ocl.create_kernel(prog, "vec_add").unwrap_err(),
        ClError::InvalidProgramExecutable
    );
}

#[test]
fn profiling_timestamps_are_ordered() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 1 << 20, None)
        .unwrap();
    let ev = ocl
        .enqueue_write_buffer(q, buf, false, 0, vec![0u8; 1 << 20].into(), &[])
        .unwrap();
    let p = ocl.get_event_profiling(ev).unwrap();
    assert!(p.queued <= p.submit);
    assert!(p.submit <= p.start);
    assert!(p.start < p.end);
}

#[test]
fn device_files_reported_for_mapping() {
    let drv = Driver::new(nimbus(), Pid(1));
    let files = drv.device_files();
    assert_eq!(files.len(), 1);
    assert_eq!(files[0].0, "/dev/nimbus0");
    let crim = Driver::new(crimson(), Pid(1));
    assert_eq!(crim.device_files().len(), 2);
}

#[test]
fn stats_track_activity() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 1024, None)
        .unwrap();
    ocl.enqueue_write_buffer(q, buf, true, 0, vec![1u8; 1024].into(), &[])
        .unwrap();
    ocl.enqueue_read_buffer(q, buf, true, 0, 1024, &[]).unwrap();
    let s = drv.stats();
    assert!(s.api_calls >= 6);
    assert_eq!(s.bytes_htod, 1024);
    assert_eq!(s.bytes_dtoh, 1024);
}

#[test]
fn offset_reads_and_writes() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 16, None)
        .unwrap();
    ocl.enqueue_write_buffer(q, buf, true, 4, vec![7u8; 4].into(), &[])
        .unwrap();
    let (data, _) = ocl.enqueue_read_buffer(q, buf, true, 0, 16, &[]).unwrap();
    assert_eq!(&data[4..8], &[7, 7, 7, 7]);
    assert_eq!(&data[0..4], &[0, 0, 0, 0]);
    // Out-of-bounds rejected.
    assert_eq!(
        ocl.enqueue_read_buffer(q, buf, true, 12, 8, &[])
            .unwrap_err(),
        ClError::InvalidValue
    );
}

#[test]
fn copy_buffer_moves_device_data() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let src = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR,
            8,
            Some(vec![1, 2, 3, 4, 5, 6, 7, 8].into()),
        )
        .unwrap();
    let dst = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 8, None)
        .unwrap();
    ocl.enqueue_copy_buffer(q, src, dst, 2, 0, 4, &[]).unwrap();
    ocl.finish(q).unwrap();
    let (data, _) = ocl.enqueue_read_buffer(q, dst, true, 0, 8, &[]).unwrap();
    assert_eq!(data, vec![3, 4, 5, 6, 0, 0, 0, 0].into());
}

#[test]
fn cpu_device_transfers_have_no_pcie_cost() {
    // DtoH of 8 MB: GPU pays PCIe (~1.6ms), CPU device pays memcpy
    // (~1ms at 8GB/s) — but critically GPU latency includes the
    // PCIe round trip; assert CPU is faster.
    let size = 8 * 1024 * 1024u64;
    let run = |dt: DeviceType| {
        let mut drv = Driver::new(crimson(), Pid(1));
        let mut now = SimTime::ZERO;
        let (ctx, _dev, q) = setup(&mut drv, &mut now, dt);
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let buf = ocl
            .create_buffer(ctx, MemFlags::READ_WRITE, size, None)
            .unwrap();
        let t0 = ocl.now();
        ocl.enqueue_read_buffer(q, buf, true, 0, size, &[]).unwrap();
        ocl.now().since(t0)
    };
    let gpu = run(DeviceType::Gpu);
    let cpu = run(DeviceType::Cpu);
    assert!(cpu < gpu, "cpu {cpu} should beat gpu {gpu}");
}

#[test]
fn out_of_order_queue_overlaps_compute_and_dma() {
    // In-order: a kernel then a big DtoH read serialize. Out-of-order:
    // the read (DMA engine) overlaps the kernel (compute engine)
    // because nothing orders them.
    let run = |ooo: bool| {
        let mut drv = Driver::new(nimbus(), Pid(1));
        let mut now = SimTime::ZERO;
        let (ctx, dev, _q0) = setup(&mut drv, &mut now, DeviceType::Gpu);
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let q = ocl
            .create_command_queue(
                ctx,
                dev,
                QueueProps {
                    out_of_order: ooo,
                    profiling: true,
                },
            )
            .unwrap();
        let n = 1u64 << 20;
        let buf = ocl
            .create_buffer(ctx, MemFlags::READ_WRITE, n * 4, None)
            .unwrap();
        let src = clkernels::program_source("max_flops").unwrap().source;
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        ocl.build_program(prog, "").unwrap();
        let k = ocl.create_kernel(prog, "max_flops").unwrap();
        ocl.set_arg_mem(k, 0, buf).unwrap();
        ocl.set_arg_scalar(k, 1, n as u32).unwrap();
        ocl.set_arg_scalar(k, 2, 1u32).unwrap();
        let e1 = ocl
            .enqueue_nd_range(q, k, NDRange::d1(n), None, &[])
            .unwrap();
        let (_, e2) = ocl
            .enqueue_read_buffer(q, buf, false, 0, n * 4, &[])
            .unwrap();
        let p1 = ocl.get_event_profiling(e1).unwrap();
        let p2 = ocl.get_event_profiling(e2).unwrap();
        ocl.finish(q).unwrap();
        let finish_at = ocl.now().as_nanos();
        (p1, p2, finish_at)
    };
    let (k_in, r_in, _) = run(false);
    assert!(r_in.start >= k_in.end, "in-order must serialize");
    let (k_ooo, r_ooo, finish) = run(true);
    assert!(
        r_ooo.start < k_ooo.end,
        "out-of-order read should overlap the kernel"
    );
    // clFinish still waited for both.
    assert!(finish >= k_ooo.end && finish >= r_ooo.end);
    // And an explicit wait list restores ordering even on an OOO queue.
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, dev, _q0) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let q = ocl
        .create_command_queue(
            ctx,
            dev,
            QueueProps {
                out_of_order: true,
                profiling: true,
            },
        )
        .unwrap();
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 1 << 20, None)
        .unwrap();
    let e1 = ocl
        .enqueue_write_buffer(q, buf, false, 0, vec![0u8; 1 << 20].into(), &[])
        .unwrap();
    let (_, e2) = ocl
        .enqueue_read_buffer(q, buf, false, 0, 1 << 20, &[e1])
        .unwrap();
    let p1 = ocl.get_event_profiling(e1).unwrap();
    let p2 = ocl.get_event_profiling(e2).unwrap();
    assert!(p2.start >= p1.end);
}

#[test]
fn image2d_end_to_end_with_sampler() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let (w, h) = (16u64, 8u64);
    let texels: Vec<f32> = (0..w * h).map(|i| i as f32).collect();
    let img = ocl
        .create_image2d(ctx, MemFlags::READ_ONLY, w, h, Some(f32s(&texels).into()))
        .unwrap();
    let out = ocl
        .create_buffer(ctx, MemFlags::WRITE_ONLY, w * h * 4, None)
        .unwrap();
    let smp = ocl
        .create_sampler(
            ctx,
            clspec::types::SamplerDesc {
                normalized_coords: false,
                addressing_mode: 0,
                filter_mode: 0,
            },
        )
        .unwrap();
    let src = clkernels::program_source("image_demo").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "image_scale").unwrap();
    ocl.set_arg_mem(k, 0, img).unwrap();
    ocl.set_arg_sampler(k, 1, smp).unwrap();
    ocl.set_arg_mem(k, 2, out).unwrap();
    ocl.set_arg_scalar(k, 3, w as u32).unwrap();
    ocl.set_arg_scalar(k, 4, h as u32).unwrap();
    ocl.enqueue_nd_range(q, k, NDRange::d2(w, h), None, &[])
        .unwrap();
    ocl.finish(q).unwrap();
    let (data, _) = ocl
        .enqueue_read_buffer(q, out, true, 0, w * h * 4, &[])
        .unwrap();
    let result = to_f32(&data);
    for (i, v) in result.iter().enumerate() {
        assert_eq!(*v, 2.0 * i as f32);
    }
    // Whole-image read returns the original texels.
    let (back, _) = ocl.enqueue_read_image(q, img, true, &[]).unwrap();
    assert_eq!(back, f32s(&texels).into());
    // Image write replaces them.
    let new_texels: Vec<f32> = (0..w * h).map(|i| -(i as f32)).collect();
    ocl.enqueue_write_image(q, img, true, f32s(&new_texels).into(), &[])
        .unwrap();
    let (back, _) = ocl.enqueue_read_image(q, img, true, &[]).unwrap();
    assert_eq!(back, f32s(&new_texels).into());
    // Size-mismatched write rejected.
    assert_eq!(
        ocl.enqueue_write_image(q, img, true, vec![0u8; 4].into(), &[])
            .unwrap_err(),
        ClError::InvalidValue
    );
    // Image memory counts against the device budget.
    let _ = ocl;
    assert!(drv.device_mem_used(0) >= w * h * 4);
}

/// Launch `kernel` of `program` over fresh `f32` buffers holding
/// `bufs`: kernel arg `i` is bound to buffer `binds[i]`, and the args
/// after those take `scalars`. Returns the launch result and every
/// buffer's contents afterwards.
fn launch_over(
    program: &str,
    kernel: &str,
    bufs: &[&[f32]],
    binds: &[usize],
    scalars: &[ArgValue],
) -> (Result<(), ClError>, Vec<Vec<f32>>) {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let mems: Vec<Mem> = bufs
        .iter()
        .map(|b| {
            let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
            ocl.create_buffer(ctx, flags, b.len() as u64 * 4, Some(f32s(b).into()))
                .unwrap()
        })
        .collect();
    let src = clkernels::program_source(program).unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, kernel).unwrap();
    for (i, &b) in binds.iter().enumerate() {
        ocl.set_arg_mem(k, i as u32, mems[b]).unwrap();
    }
    for (i, v) in scalars.iter().enumerate() {
        ocl.set_kernel_arg(k, (binds.len() + i) as u32, v.clone())
            .unwrap();
    }
    let launched = ocl
        .enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
        .map(|_| ());
    ocl.finish(q).unwrap();
    let after = mems
        .iter()
        .zip(bufs)
        .map(|(&m, b)| {
            let len = b.len() as u64 * 4;
            to_f32(&ocl.enqueue_read_buffer(q, m, true, 0, len, &[]).unwrap().0)
        })
        .collect();
    (launched, after)
}

#[test]
fn output_aliasing_an_input_gets_the_result() {
    // `vec_add(a, b, a)`: the one buffer ends as `a + b`.
    let (r, after) = launch_over(
        "vector_add",
        "vec_add",
        &[&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0, 30.0, 40.0]],
        &[0, 1, 0],
        &[ArgValue::scalar(4u32)],
    );
    r.unwrap();
    assert_eq!(after[0], vec![11.0, 22.0, 33.0, 44.0]);
    assert_eq!(after[1], vec![10.0, 20.0, 30.0, 40.0]);
}

#[test]
fn a_later_aliased_input_wins_over_an_earlier_output() {
    // `triad(x, x, c)` writes `x + s*c` into arg 0, but arg 1 is the
    // same `cl_mem` and the later index's (unchanged) bytes win.
    let x: &[f32] = &[1.0, 2.0, 3.0, 4.0];
    let (r, after) = launch_over(
        "triad",
        "triad",
        &[x, &[10.0, 20.0, 30.0, 40.0]],
        &[0, 0, 1],
        &[ArgValue::scalar(0.5f32), ArgValue::scalar(4u32)],
    );
    r.unwrap();
    assert_eq!(after[0], x);
}

#[test]
fn a_failed_launch_leaves_every_buffer_intact() {
    // `c` is too small for n = 4; args 0 and 1 pass their checks first.
    let bufs: [&[f32]; 3] = [&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], &[9.0, 9.5]];
    let (r, after) = launch_over(
        "vector_add",
        "vec_add",
        &bufs,
        &[0, 1, 2],
        &[ArgValue::scalar(4u32)],
    );
    assert_eq!(r, Err(ClError::InvalidArgSize));
    assert_eq!(after, bufs.map(<[f32]>::to_vec));
}

/// A kernel of a freshly built program of the corpus.
fn kernel_of(ocl: &mut Ocl, ctx: Context, program: &str, kernel: &str) -> clspec::Kernel {
    let src = clkernels::program_source(program).unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    ocl.create_kernel(prog, kernel).unwrap()
}

/// A fresh driver with `vec_add(a, b, c)` bound over 4 lanes and
/// launched once: the driver, its clock, the context, the queue, the
/// kernel and `[a, b, c]`.
fn vec_add_launched_once() -> (
    Driver,
    SimTime,
    Context,
    clspec::CommandQueue,
    clspec::Kernel,
    [Mem; 3],
) {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
    let mems = [[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0], [0.0; 4]].map(|v| {
        ocl.create_buffer(ctx, flags, 16, Some(f32s(&v).into()))
            .unwrap()
    });
    let k = kernel_of(&mut ocl, ctx, "vector_add", "vec_add");
    for (i, m) in mems.iter().enumerate() {
        ocl.set_arg_mem(k, i as u32, *m).unwrap();
    }
    ocl.set_arg_scalar(k, 3, 4u32).unwrap();
    ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
        .unwrap();
    (drv, now, ctx, q, k, mems)
}

fn read_f32(ocl: &mut Ocl, q: clspec::CommandQueue, m: Mem) -> Vec<f32> {
    to_f32(&ocl.enqueue_read_buffer(q, m, true, 0, 16, &[]).unwrap().0)
}

#[test]
fn an_unchanged_relaunch_is_elided_and_still_scheduled() {
    let (mut drv, mut now, ctx, q, k, [a, _, c]) = vec_add_launched_once();
    assert_eq!(drv.stats().kernels_elided, 0);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    // Setting an argument to the value it holds keeps the stamp.
    ocl.set_arg_mem(k, 0, a).unwrap();
    ocl.set_arg_scalar(k, 3, 4u32).unwrap();
    let events: Vec<_> = (0..3)
        .map(|_| {
            ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
                .unwrap()
        })
        .collect();
    ocl.finish(q).unwrap();
    assert_eq!(read_f32(&mut ocl, q, c), [11.0, 22.0, 33.0, 44.0]);
    // Each elided launch takes its place on the queue for the time the
    // cost model gives it, after the one before.
    let spans: Vec<_> = events
        .iter()
        .map(|&e| ocl.get_event_profiling(e).unwrap())
        .collect();
    for pair in spans.windows(2) {
        assert!(pair[1].start >= pair[0].end);
        assert_eq!(pair[1].end - pair[1].start, pair[0].end - pair[0].start);
    }
    // A kernel that is not rerun-safe runs every time: `max_flops`
    // iterates its buffer in place.
    let data = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 16, Some(f32s(&[1.0; 4]).into()))
        .unwrap();
    let flops = kernel_of(&mut ocl, ctx, "max_flops", "max_flops");
    ocl.set_arg_mem(flops, 0, data).unwrap();
    ocl.set_arg_scalar(flops, 1, 4u32).unwrap();
    ocl.set_arg_scalar(flops, 2, 1u32).unwrap();
    let mut seen = Vec::new();
    for _ in 0..2 {
        ocl.enqueue_nd_range(q, flops, NDRange::d1(4), None, &[])
            .unwrap();
        seen.push(read_f32(&mut ocl, q, data));
    }
    assert_ne!(seen[0], seen[1]);
    let stats = drv.stats();
    assert_eq!((stats.kernels_launched, stats.kernels_elided), (6, 3));
}

#[test]
fn a_relaunch_runs_again_after_anything_touches_its_buffers() {
    type Touch = fn(&mut Ocl, Context, clspec::CommandQueue, clspec::Kernel, [Mem; 3]);
    let touches: [(&str, Touch, [f32; 4]); 5] = [
        (
            "a write into an input",
            |ocl, _, q, _, [a, ..]| {
                ocl.enqueue_write_buffer(q, a, true, 4, f32s(&[5.0]).into(), &[])
                    .unwrap();
            },
            [11.0, 25.0, 33.0, 44.0],
        ),
        (
            "a copy into an input",
            |ocl, _, q, _, [a, b, _]| {
                ocl.enqueue_copy_buffer(q, a, b, 0, 0, 16, &[]).unwrap();
            },
            [2.0, 4.0, 6.0, 8.0],
        ),
        (
            "another kernel writing an input",
            |ocl, ctx, q, _, [a, b, _]| {
                let copy = kernel_of(ocl, ctx, "device_copy", "copy_buf");
                ocl.set_arg_mem(copy, 0, a).unwrap();
                ocl.set_arg_mem(copy, 1, b).unwrap();
                ocl.set_arg_scalar(copy, 2, 4u32).unwrap();
                ocl.enqueue_nd_range(q, copy, NDRange::d1(4), None, &[])
                    .unwrap();
            },
            [2.0, 4.0, 6.0, 8.0],
        ),
        (
            "clSetKernelArg to a value it did not hold",
            |ocl, _, _, k, _| ocl.set_arg_scalar(k, 3, 2u32).unwrap(),
            [11.0, 22.0, 33.0, 44.0],
        ),
        (
            // `vec_add(a, b, a)` accumulates: each run adds `b` again.
            "a double binding",
            |ocl, _, q, k, [a, ..]| {
                ocl.set_arg_mem(k, 2, a).unwrap();
                ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
                    .unwrap();
            },
            [21.0, 42.0, 63.0, 84.0],
        ),
    ];
    for (what, touch, want) in touches {
        let (mut drv, mut now, ctx, q, k, mems) = vec_add_launched_once();
        let mut ocl = Ocl::new(&mut drv, &mut now);
        touch(&mut ocl, ctx, q, k, mems);
        ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
            .unwrap();
        let out = if what == "a double binding" {
            mems[0]
        } else {
            mems[2]
        };
        assert_eq!(read_f32(&mut ocl, q, out), want, "{what}");
        assert_eq!(drv.stats().kernels_elided, 0, "{what}");
    }
}

#[test]
fn an_elidable_relaunch_still_validates_its_sampler() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let out = ocl
        .create_buffer(ctx, MemFlags::WRITE_ONLY, 16, None)
        .unwrap();
    let sampler = ocl
        .create_sampler(
            ctx,
            clspec::types::SamplerDesc {
                normalized_coords: false,
                addressing_mode: 0,
                filter_mode: 0,
            },
        )
        .unwrap();
    let k = kernel_of(&mut ocl, ctx, "sampler_demo", "sampler_scale");
    ocl.set_arg_mem(k, 0, out).unwrap();
    ocl.set_arg_sampler(k, 1, sampler).unwrap();
    ocl.set_arg_scalar(k, 2, 4u32).unwrap();
    for _ in 0..2 {
        ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
            .unwrap();
    }
    let _ = ocl;
    assert_eq!(drv.stats().kernels_elided, 1);
    drv.call(&mut now, clspec::ApiRequest::ReleaseSampler { sampler })
        .unwrap();
    let mut ocl = Ocl::new(&mut drv, &mut now);
    assert_eq!(
        ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[]),
        Err(ClError::InvalidSampler)
    );
    let stats = drv.stats();
    assert_eq!((stats.kernels_launched, stats.kernels_elided), (2, 1));
}

#[test]
fn elided_relaunches_leave_what_running_every_launch_leaves() {
    // (program, kernel, buffer arguments first, then these scalars).
    let u = |v: u32| ArgValue::scalar(v);
    let f = |v: f32| ArgValue::scalar(v);
    let specs = [
        ("vector_add", "vec_add", 3, vec![u(4)]),
        ("device_copy", "copy_buf", 2, vec![u(4)]),
        ("triad", "triad", 3, vec![f(0.5), u(4)]),
        ("max_flops", "max_flops", 1, vec![u(4), u(2)]),
        ("sgemm", "sgemm", 3, vec![u(2), u(2), u(2), f(1.5), f(0.5)]),
    ];
    const BUFS: usize = 4;
    let mut elided = 0;
    simcore::qcheck::qcheck("elision_model", 48, |g| {
        let mut drv = Driver::new(nimbus(), Pid(1));
        let mut now = SimTime::ZERO;
        let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let lanes = |g: &mut simcore::qcheck::Gen| {
            f32s(&std::array::from_fn::<f32, 4, _>(|_| g.f32_in(-2.0, 2.0)))
        };
        // The model: each buffer's bytes, and every launch executed.
        let mut model: Vec<Vec<u8>> = (0..BUFS).map(|_| lanes(g)).collect();
        let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
        let mems: Vec<Mem> = model
            .iter()
            .map(|b| {
                ocl.create_buffer(ctx, flags, 16, Some(b.clone().into()))
                    .unwrap()
            })
            .collect();
        let mut kernels: Vec<(clspec::Kernel, Vec<usize>)> = specs
            .iter()
            .map(|(program, name, bufs, scalars)| {
                let k = kernel_of(&mut ocl, ctx, program, name);
                let binds: Vec<usize> = (0..*bufs).map(|_| g.usize_in(0, BUFS)).collect();
                for (i, &b) in binds.iter().enumerate() {
                    ocl.set_arg_mem(k, i as u32, mems[b]).unwrap();
                }
                for (j, v) in scalars.iter().enumerate() {
                    ocl.set_kernel_arg(k, (bufs + j) as u32, v.clone()).unwrap();
                }
                (k, binds)
            })
            .collect();
        for _ in 0..40 {
            let ki = g.usize_in(0, specs.len());
            match g.usize_in(0, 8) {
                0 => {
                    let (b, data) = (g.usize_in(0, BUFS), lanes(g));
                    ocl.enqueue_write_buffer(q, mems[b], true, 0, data.clone().into(), &[])
                        .unwrap();
                    model[b] = data;
                }
                1 => {
                    let (s, d) = (g.usize_in(0, BUFS), g.usize_in(0, BUFS));
                    ocl.enqueue_copy_buffer(q, mems[s], mems[d], 0, 0, 16, &[])
                        .unwrap();
                    model[d] = model[s].clone();
                }
                2 => {
                    let (arg, b) = (g.usize_in(0, specs[ki].2), g.usize_in(0, BUFS));
                    ocl.set_arg_mem(kernels[ki].0, arg as u32, mems[b]).unwrap();
                    kernels[ki].1[arg] = b;
                }
                _ => {
                    let (k, binds) = &kernels[ki];
                    ocl.enqueue_nd_range(q, *k, NDRange::d1(4), None, &[])
                        .unwrap();
                    // Each binding sees the pre-launch bytes; on return
                    // the last binding of a buffer wins.
                    let mut args: Vec<clkernels::ArgData> = binds
                        .iter()
                        .map(|&b| clkernels::ArgData::buffer_of(model[b].clone()))
                        .collect();
                    args.extend(specs[ki].3.iter().map(|v| match v {
                        ArgValue::Bytes(b) => clkernels::ArgData::Scalar(b.clone()),
                        other => panic!("not a scalar: {other:?}"),
                    }));
                    clkernels::execute(specs[ki].1, &mut args).unwrap();
                    for (i, &b) in binds.iter().enumerate() {
                        model[b] = args[i].buffer().unwrap().to_vec();
                    }
                }
            }
        }
        for (&m, want) in mems.iter().zip(&model) {
            let (got, _) = ocl.enqueue_read_buffer(q, m, true, 0, 16, &[]).unwrap();
            assert_eq!(*got, **want);
        }
        let _ = ocl;
        elided += drv.stats().kernels_elided;
    });
    assert!(elided > 0);
}

/// oclConvolutionSeparable's loop: each round sets all six arguments of
/// `conv_rows` (`src` into `tmp`) and of `conv_cols` (`tmp` into `dst`)
/// to the values they hold, then launches both. Neither kernel writes
/// what the other's stamp records, so every round after the first
/// elides both, and the outputs are those of one run of each.
#[test]
fn a_convolution_relaunch_pair_elides_bit_identical() {
    let (w, h, radius) = (16u32, 8u32, 2u32);
    let size = (w * h) as u64 * 4;
    let src: Vec<f32> = (0..w * h).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
    let filter: Vec<f32> = (0..2 * radius + 1).map(|i| 0.1 * (i + 1) as f32).collect();
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
    let src_m = ocl
        .create_buffer(ctx, flags, size, Some(f32s(&src).into()))
        .unwrap();
    let [tmp, dst] = [(); 2].map(|_| {
        ocl.create_buffer(ctx, MemFlags::READ_WRITE, size, None)
            .unwrap()
    });
    let filter_m = ocl
        .create_buffer(
            ctx,
            flags,
            filter.len() as u64 * 4,
            Some(f32s(&filter).into()),
        )
        .unwrap();
    let rows = kernel_of(&mut ocl, ctx, "convolution_separable", "conv_rows");
    let cols = kernel_of(&mut ocl, ctx, "convolution_separable", "conv_cols");
    for _ in 0..3 {
        for (k, s, d) in [(rows, src_m, tmp), (cols, tmp, dst)] {
            ocl.set_arg_mem(k, 0, s).unwrap();
            ocl.set_arg_mem(k, 1, d).unwrap();
            ocl.set_arg_mem(k, 2, filter_m).unwrap();
            for (index, value) in [(3, w), (4, h), (5, radius)] {
                ocl.set_arg_scalar(k, index, value).unwrap();
            }
            ocl.enqueue_nd_range(q, k, NDRange::d2(w as u64, h as u64), None, &[])
                .unwrap();
        }
    }
    let read = |ocl: &mut Ocl, m| {
        ocl.enqueue_read_buffer(q, m, true, 0, size, &[])
            .unwrap()
            .0
            .to_vec()
    };
    let (got_tmp, got_dst) = (read(&mut ocl, tmp), read(&mut ocl, dst));
    let _ = ocl;
    let stats = drv.stats();
    assert_eq!((stats.kernels_launched, stats.kernels_elided), (6, 4));

    // One run of each, straight through the engine.
    let scalar = |v: u32| clkernels::ArgData::Scalar(v.to_le_bytes().to_vec());
    let zeros = || clkernels::ArgData::buffer_of(vec![0u8; size as usize]);
    let conv = |name, input: Vec<u8>| {
        let mut args = [
            clkernels::ArgData::buffer_of(input),
            zeros(),
            clkernels::ArgData::buffer_of(f32s(&filter)),
            scalar(w),
            scalar(h),
            scalar(radius),
        ];
        clkernels::execute(name, &mut args).unwrap();
        args[1].buffer().unwrap().to_vec()
    };
    let want_tmp = conv("conv_rows", f32s(&src));
    assert_eq!(got_tmp, want_tmp);
    assert_eq!(got_dst, conv("conv_cols", want_tmp));
}

/// A launch stamps only the buffers the kernel wrote; a buffer bound
/// twice and written through either binding always runs again, and one
/// bound twice and only read may elide.
#[test]
fn a_written_double_binding_never_elides() {
    let relaunch = |program: &str, kernel: &str, binds: &[usize], scalars: &[ArgValue]| {
        let mut drv = Driver::new(nimbus(), Pid(1));
        let mut now = SimTime::ZERO;
        let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
        let mems = [[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]].map(|v| {
            ocl.create_buffer(ctx, flags, 16, Some(f32s(&v).into()))
                .unwrap()
        });
        let k = kernel_of(&mut ocl, ctx, program, kernel);
        for (i, &b) in binds.iter().enumerate() {
            ocl.set_arg_mem(k, i as u32, mems[b]).unwrap();
        }
        for (i, v) in scalars.iter().enumerate() {
            ocl.set_kernel_arg(k, (binds.len() + i) as u32, v.clone())
                .unwrap();
        }
        for _ in 0..2 {
            ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
                .unwrap();
        }
        let out = mems.map(|m| read_f32(&mut ocl, q, m));
        let _ = ocl;
        (drv.stats().kernels_elided, out)
    };
    let n = || ArgValue::scalar(4u32);
    // `triad(x, x, c)`: the write through the first binding is undone
    // by the second, yet it stamps `x` twice.
    let (elided, [x, _]) = relaunch(
        "triad",
        "triad",
        &[0, 0, 1],
        &[ArgValue::scalar(0.5f32), n()],
    );
    assert_eq!((elided, x), (0, vec![1.0, 2.0, 3.0, 4.0]));
    // `vec_add(a, b, a)` accumulates.
    let (elided, [a, _]) = relaunch("vector_add", "vec_add", &[0, 1, 0], &[n()]);
    assert_eq!((elided, a), (0, vec![21.0, 42.0, 63.0, 84.0]));
    // `vec_add(a, a, b)` only reads `a`.
    let (elided, [a, b]) = relaunch("vector_add", "vec_add", &[0, 0, 1], &[n()]);
    assert_eq!(elided, 1);
    assert_eq!((a, b), (vec![1.0, 2.0, 3.0, 4.0], vec![2.0, 4.0, 6.0, 8.0]));
}

/// A whole read shares the device bytes, and a whole write hands its
/// payload to the device: neither copy the caller holds changes when a
/// kernel, a whole write or a partial write then changes the buffer.
#[test]
fn held_payloads_are_unchanged_by_later_writes() {
    let (mut drv, mut now, _ctx, q, k, [a, b, c]) = vec_add_launched_once();
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let read = |ocl: &mut Ocl, m| ocl.enqueue_read_buffer(q, m, true, 0, 16, &[]).unwrap().0;
    let held_read = read(&mut ocl, c);
    let written = Payload::from(f32s(&[5.0, 6.0, 7.0, 8.0]));
    ocl.enqueue_write_buffer(q, a, true, 0, written.clone(), &[])
        .unwrap();
    let held_a = read(&mut ocl, a);
    type Step = fn(&mut Ocl, clspec::CommandQueue, clspec::Kernel, [Mem; 3]);
    let steps: [(&str, Step); 3] = [
        ("a kernel launch", |ocl, q, k, _| {
            ocl.enqueue_nd_range(q, k, NDRange::d1(4), None, &[])
                .map(|_| ())
                .unwrap()
        }),
        ("a whole write", |ocl, q, _, [a, _, c]| {
            for m in [a, c] {
                ocl.enqueue_write_buffer(q, m, true, 0, f32s(&[9.0; 4]).into(), &[])
                    .unwrap();
            }
        }),
        ("a partial write", |ocl, q, _, [a, _, c]| {
            for m in [a, c] {
                ocl.enqueue_write_buffer(q, m, true, 4, f32s(&[-1.0]).into(), &[])
                    .unwrap();
            }
        }),
    ];
    for (what, step) in steps {
        step(&mut ocl, q, k, [a, b, c]);
        assert_eq!(to_f32(&held_read), [11.0, 22.0, 33.0, 44.0], "{what}");
        assert_eq!(to_f32(&written), [5.0, 6.0, 7.0, 8.0], "{what}");
        assert_eq!(held_a, written, "{what}");
    }
    assert_eq!(read_f32(&mut ocl, q, a), [9.0, -1.0, 9.0, 9.0]);
    assert_eq!(read_f32(&mut ocl, q, c), [9.0, -1.0, 9.0, 9.0]);
}

/// The image path under the same checks: an image created from a
/// payload the caller holds, read whole, read by a kernel and then
/// written whole leaves both held payloads as they were.
#[test]
fn held_image_payloads_are_unchanged_by_later_writes() {
    let mut drv = Driver::new(nimbus(), Pid(1));
    let mut now = SimTime::ZERO;
    let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
    let mut ocl = Ocl::new(&mut drv, &mut now);
    let (w, h) = (4u64, 2u64);
    let texels: Vec<f32> = (0..w * h).map(|i| i as f32).collect();
    let created = Payload::from(f32s(&texels));
    let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
    let img = ocl
        .create_image2d(ctx, flags, w, h, Some(created.clone()))
        .unwrap();
    let (held_read, _) = ocl.enqueue_read_image(q, img, true, &[]).unwrap();
    assert_eq!(held_read, created);
    let out = ocl
        .create_buffer(ctx, MemFlags::WRITE_ONLY, w * h * 4, None)
        .unwrap();
    let smp = ocl
        .create_sampler(
            ctx,
            clspec::types::SamplerDesc {
                normalized_coords: false,
                addressing_mode: 0,
                filter_mode: 0,
            },
        )
        .unwrap();
    let k = kernel_of(&mut ocl, ctx, "image_demo", "image_scale");
    ocl.set_arg_mem(k, 0, img).unwrap();
    ocl.set_arg_sampler(k, 1, smp).unwrap();
    ocl.set_arg_mem(k, 2, out).unwrap();
    ocl.set_arg_scalar(k, 3, w as u32).unwrap();
    ocl.set_arg_scalar(k, 4, h as u32).unwrap();
    let new_texels: Vec<f32> = texels.iter().map(|t| -t).collect();
    for data in [f32s(&new_texels), f32s(&texels)] {
        ocl.enqueue_nd_range(q, k, NDRange::d2(w, h), None, &[])
            .unwrap();
        ocl.enqueue_write_image(q, img, true, data.into(), &[])
            .unwrap();
    }
    ocl.enqueue_write_image(q, img, true, f32s(&new_texels).into(), &[])
        .unwrap();
    let (back, _) = ocl.enqueue_read_image(q, img, true, &[]).unwrap();
    assert_eq!(to_f32(&back), new_texels);
    let (scaled, _) = ocl
        .enqueue_read_buffer(q, out, true, 0, w * h * 4, &[])
        .unwrap();
    assert_eq!(
        to_f32(&scaled),
        texels.iter().map(|t| -2.0 * t).collect::<Vec<_>>()
    );
    assert_eq!(to_f32(&created), texels);
    assert_eq!(to_f32(&held_read), texels);
}

/// Random sequences of creates (some from one shared payload, as input
/// memo hits are), whole and partial writes (whole ones from shared
/// payloads too), reads held to the end, copies and kernel launches,
/// against a model that copies every `Vec`. Every buffer reads back as
/// the model says, and no payload the caller shares with the device,
/// read or written, ever changes.
#[test]
fn shared_payloads_match_a_model_that_copies_everything() {
    let specs = [
        ("vector_add", "vec_add", 3, vec![ArgValue::scalar(4u32)]),
        ("device_copy", "copy_buf", 2, vec![ArgValue::scalar(4u32)]),
        (
            "max_flops",
            "max_flops",
            1,
            vec![ArgValue::scalar(4u32), ArgValue::scalar(2u32)],
        ),
        ("null", "null_kernel", 1, vec![]),
    ];
    simcore::qcheck::qcheck("shared_payloads_model", 48, |g| {
        let mut drv = Driver::new(nimbus(), Pid(1));
        let mut now = SimTime::ZERO;
        let (ctx, _dev, q) = setup(&mut drv, &mut now, DeviceType::Gpu);
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let lanes = |g: &mut simcore::qcheck::Gen| {
            f32s(&std::array::from_fn::<f32, 4, _>(|_| g.f32_in(-2.0, 2.0)))
        };
        // Payloads the caller shares with the device, each with the
        // bytes it must keep.
        let sources: Vec<Payload> = (0..3).map(|_| Payload::from(lanes(g))).collect();
        let mut held: Vec<(Payload, Vec<u8>)> =
            sources.iter().map(|p| (p.clone(), p.to_vec())).collect();
        let mut mems: Vec<Mem> = Vec::new();
        let mut model: Vec<Vec<u8>> = Vec::new();
        let kernels: Vec<clspec::Kernel> = specs
            .iter()
            .map(|(program, name, ..)| kernel_of(&mut ocl, ctx, program, name))
            .collect();
        for _ in 0..40 {
            let from = |g: &mut simcore::qcheck::Gen| match g.usize_in(0, 2) {
                0 => sources[g.usize_in(0, sources.len())].clone(),
                _ => Payload::from(lanes(g)),
            };
            match g.usize_in(0, if mems.is_empty() { 1 } else { 6 }) {
                0 => {
                    let data = from(g);
                    let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
                    mems.push(
                        ocl.create_buffer(ctx, flags, 16, Some(data.clone()))
                            .unwrap(),
                    );
                    model.push(data.to_vec());
                }
                1 => {
                    let (b, data) = (g.usize_in(0, mems.len()), from(g));
                    ocl.enqueue_write_buffer(q, mems[b], true, 0, data.clone(), &[])
                        .unwrap();
                    model[b] = data.to_vec();
                    held.push((data.clone(), data.to_vec()));
                }
                2 => {
                    let (b, at) = (g.usize_in(0, mems.len()), g.usize_in(0, 4) * 4);
                    let data = f32s(&[g.f32_in(-2.0, 2.0)]);
                    ocl.enqueue_write_buffer(q, mems[b], true, at as u64, data.clone().into(), &[])
                        .unwrap();
                    model[b][at..at + 4].copy_from_slice(&data);
                }
                3 => {
                    let b = g.usize_in(0, mems.len());
                    let (got, _) = ocl
                        .enqueue_read_buffer(q, mems[b], true, 0, 16, &[])
                        .unwrap();
                    assert_eq!(*got, *model[b]);
                    held.push((got, model[b].clone()));
                }
                4 => {
                    let (s, d) = (g.usize_in(0, mems.len()), g.usize_in(0, mems.len()));
                    ocl.enqueue_copy_buffer(q, mems[s], mems[d], 0, 0, 16, &[])
                        .unwrap();
                    model[d] = model[s].clone();
                }
                _ => {
                    let ki = g.usize_in(0, specs.len());
                    let (_, name, bufs, scalars) = &specs[ki];
                    let binds: Vec<usize> = (0..*bufs).map(|_| g.usize_in(0, mems.len())).collect();
                    for (i, &b) in binds.iter().enumerate() {
                        ocl.set_arg_mem(kernels[ki], i as u32, mems[b]).unwrap();
                    }
                    for (j, v) in scalars.iter().enumerate() {
                        ocl.set_kernel_arg(kernels[ki], (bufs + j) as u32, v.clone())
                            .unwrap();
                    }
                    ocl.enqueue_nd_range(q, kernels[ki], NDRange::d1(4), None, &[])
                        .unwrap();
                    let mut args: Vec<clkernels::ArgData> = binds
                        .iter()
                        .map(|&b| clkernels::ArgData::buffer_of(model[b].clone()))
                        .collect();
                    args.extend(scalars.iter().map(|v| match v {
                        ArgValue::Bytes(b) => clkernels::ArgData::Scalar(b.clone()),
                        other => panic!("not a scalar: {other:?}"),
                    }));
                    clkernels::execute(name, &mut args).unwrap();
                    for (i, &b) in binds.iter().enumerate() {
                        model[b] = args[i].buffer().unwrap().to_vec();
                    }
                }
            }
        }
        for (&m, want) in mems.iter().zip(&model) {
            let (got, _) = ocl.enqueue_read_buffer(q, m, true, 0, 16, &[]).unwrap();
            assert_eq!(*got, **want);
        }
        for (payload, bytes) in &held {
            assert_eq!(**payload, **bytes);
        }
    });
}
