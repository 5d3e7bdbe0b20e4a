//! Property-based tests on the driver's command scheduling and memory
//! accounting, driven by the dependency-free `simcore::qcheck` harness.

use cldriver::vendor::nimbus;
use cldriver::Driver;
use clspec::types::{DeviceType, MemFlags, NDRange, QueueProps};
use clspec::Ocl;
use osproc::Pid;
use simcore::qcheck::{qcheck, Gen};
use simcore::SimTime;

/// Random launch plan: per-launch work size exponent.
fn gen_launches(g: &mut Gen) -> Vec<u32> {
    (0..g.usize_in(1, 12))
        .map(|_| g.range(8, 16) as u32)
        .collect()
}

/// In-order queue invariant: for any launch sequence, event
/// profiling shows non-overlapping, monotonically ordered command
/// execution, and clFinish advances the host past the last end.
#[test]
fn in_order_queue_never_overlaps() {
    qcheck("in_order_queue_never_overlaps", 32, |g| {
        let sizes = gen_launches(g);
        let mut drv = Driver::new(nimbus(), Pid(1));
        let mut now = SimTime::ZERO;
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
        let ctx = ocl.create_context(&d).unwrap();
        let q = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let n_max = 1u64 << 16;
        let buf = ocl
            .create_buffer(ctx, MemFlags::READ_WRITE, n_max * 4, None)
            .unwrap();
        let src = clkernels::program_source("max_flops").unwrap().source;
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        ocl.build_program(prog, "").unwrap();
        let k = ocl.create_kernel(prog, "max_flops").unwrap();
        ocl.set_arg_mem(k, 0, buf).unwrap();
        ocl.set_arg_scalar(k, 2, 1u32).unwrap();

        let mut events = Vec::new();
        for &e in &sizes {
            let n = 1u64 << e;
            ocl.set_arg_scalar(k, 1, n as u32).unwrap();
            events.push(
                ocl.enqueue_nd_range(q, k, NDRange::d1(n), None, &[])
                    .unwrap(),
            );
        }
        let mut last_end = 0u64;
        for ev in &events {
            let prof = ocl.get_event_profiling(*ev).unwrap();
            assert!(prof.queued <= prof.submit);
            assert!(prof.submit <= prof.start);
            assert!(prof.start < prof.end);
            assert!(prof.start >= last_end, "commands overlap");
            last_end = prof.end;
        }
        ocl.finish(q).unwrap();
        assert!(ocl.now().as_nanos() >= last_end);
    });
}

/// Device memory accounting: for any interleaving of creates and
/// releases, used memory equals the sum of live buffer sizes, and
/// it returns to zero when everything is released.
#[test]
fn memory_accounting_balances() {
    qcheck("memory_accounting_balances", 48, |g| {
        let plan: Vec<(u64, bool)> = (0..g.usize_in(1, 30))
            .map(|_| (g.range(1, 512), g.bool()))
            .collect();
        let mut drv = Driver::new(nimbus(), Pid(1));
        let mut now = SimTime::ZERO;
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
        let ctx = ocl.create_context(&d).unwrap();
        let mut live: Vec<(clspec::Mem, u64)> = Vec::new();
        let mut expect = 0u64;
        for (kib, release_one) in plan {
            let size = kib * 1024;
            let m = ocl
                .create_buffer(ctx, MemFlags::READ_WRITE, size, None)
                .unwrap();
            live.push((m, size));
            expect += size;
            if release_one && !live.is_empty() {
                let (victim, sz) = live.remove(live.len() / 2);
                ocl.release_mem(victim).unwrap();
                expect -= sz;
            }
        }
        // Check against the driver gauge.
        for (m, sz) in live.drain(..) {
            ocl.release_mem(m).unwrap();
            expect -= sz;
        }
        assert_eq!(expect, 0);
        let _ = ocl;
        assert_eq!(drv.device_mem_used(0), 0);
    });
}

/// Wait lists are honoured across queues for any dependency chain:
/// each command starts no earlier than its predecessor's end.
#[test]
fn wait_list_chains() {
    qcheck("wait_list_chains", 48, |g| {
        let hops: Vec<u8> = (0..g.usize_in(1, 8)).map(|_| g.range(0, 2) as u8).collect();
        let mut drv = Driver::new(nimbus(), Pid(1));
        let mut now = SimTime::ZERO;
        let mut ocl = Ocl::new(&mut drv, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
        let ctx = ocl.create_context(&d).unwrap();
        let q1 = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let q2 = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let buf = ocl
            .create_buffer(ctx, MemFlags::READ_WRITE, 1 << 16, None)
            .unwrap();

        let mut prev: Option<clspec::Event> = None;
        let mut prev_end = 0u64;
        for hop in hops {
            let q = if hop == 0 { q1 } else { q2 };
            let wait: Vec<clspec::Event> = prev.into_iter().collect();
            let ev = ocl
                .enqueue_write_buffer(q, buf, false, 0, vec![0u8; 1 << 16].into(), &wait)
                .unwrap();
            let prof = ocl.get_event_profiling(ev).unwrap();
            assert!(prof.start >= prev_end, "dependency violated");
            prev_end = prof.end;
            prev = Some(ev);
        }
    });
}
