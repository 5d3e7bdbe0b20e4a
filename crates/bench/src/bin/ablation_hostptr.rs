//! Ablation (§IV-D): `CL_MEM_USE_HOST_PTR` under CheCL.
//!
//! The cached host copy must be pushed to the device before every
//! kernel that uses the buffer and pulled back afterwards — "usually
//! causes severe performance degradation" compared to a plain
//! `COPY_HOST_PTR` buffer.

use checl::CheclConfig;
use checl_bench::{eval_targets, Cell, FigureWriter, TraceSession, HARNESS_SCALE};
use clspec::api::ClApi;
use clspec::types::{MemFlags, NDRange, QueueProps};
use clspec::{DeviceType, Ocl};
use osproc::Cluster;

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    let mut fig = FigureWriter::new("ablation_hostptr");
    fig.section(
        "Ablation: CL_MEM_USE_HOST_PTR degradation (null kernel x8)",
        &["buffer flags", "time [s]"],
    );

    for (label, flags) in [
        (
            "COPY_HOST_PTR",
            MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR,
        ),
        (
            "USE_HOST_PTR",
            MemFlags::READ_WRITE | MemFlags::USE_HOST_PTR,
        ),
    ] {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let pid = cluster.spawn(node);
        let mut booted =
            checl::boot_checl(&mut cluster, pid, (target.vendor)(), CheclConfig::default());
        let mut now = cluster.process(pid).clock;
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
        let ctx = ocl.create_context(&d).unwrap();
        let q = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let n = ((4 << 20) as f64 * HARNESS_SCALE) as u64 & !3;
        let buf = ocl
            .create_buffer(ctx, flags, n, Some(vec![0u8; n as usize].into()))
            .unwrap();
        let src = clkernels::program_source("null").unwrap().source;
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        ocl.build_program(prog, "").unwrap();
        let k = ocl.create_kernel(prog, "null_kernel").unwrap();
        ocl.set_arg_mem(k, 0, buf).unwrap();
        let t0 = ocl.now();
        for _ in 0..8 {
            ocl.enqueue_nd_range(q, k, NDRange::d1(n / 4), None, &[])
                .unwrap();
            ocl.finish(q).unwrap();
        }
        let elapsed = ocl.now().since(t0);
        fig.row(vec![label.into(), Cell::secs(elapsed)]);
        let _ = ocl;
        let _ = booted.lib.impl_name();
    }
    fig.note(
        "expectation: USE_HOST_PTR pays two extra transfers per launch \
         (host cache → device before, device → host cache after)",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
