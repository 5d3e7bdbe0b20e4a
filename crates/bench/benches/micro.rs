//! Micro-benchmarks of the CheCL stack's hot paths.
//!
//! Unlike the `fig*` harnesses (which report *virtual-clock* results),
//! these measure real wall-clock performance of the implementation:
//! the checkpoint codec, its FNV-1a checksums and frame seals, the
//! costliest catalog kernels, a driver's whole-buffer write and read,
//! the workload model's memoised input generation and read-back
//! checksum, the kernel-signature parser, the handle translation
//! layer, the forwarding path, and a full checkpoint/restart cycle.
//!
//! The harness is dependency-free (`harness = false`): each benchmark
//! is warmed up, then timed over enough iterations to fill a fixed
//! measurement window, and the mean ns/iter (plus throughput where a
//! byte count applies) is printed. Pass a substring argument to run a
//! subset, e.g. `cargo bench --bench micro -- codec`.

use checl::{CheclConfig, CprPolicy, RestoreTarget};
use osproc::Cluster;
use simcore::codec::Codec;
use simcore::{Payload, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::{
    readback_checksum, workload_by_name, BufInit, CheclSession, NativeSession, StopCondition,
    WorkloadCfg,
};

const WARMUP: Duration = Duration::from_millis(150);
const MEASURE: Duration = Duration::from_millis(500);

/// Run `f` repeatedly for roughly [`MEASURE`] after a warmup, printing
/// mean time per iteration (and MiB/s when `bytes` is known).
fn bench(filter: &str, name: &str, bytes: Option<u64>, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    // Warmup: also discovers a rough per-iter cost for batch sizing.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP {
        f();
        warm_iters += 1;
    }
    let per_iter = WARMUP.as_nanos() as u64 / warm_iters.max(1);
    let batch = (1_000_000 / per_iter.max(1)).clamp(1, 10_000);

    let mut iters = 0u64;
    let mut elapsed = Duration::ZERO;
    while elapsed < MEASURE {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        elapsed += t.elapsed();
        iters += batch;
    }
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    let thpt = bytes
        .map(|b| {
            let mib_s = b as f64 / (ns / 1e9) / (1 << 20) as f64;
            format!("  {mib_s:>10.1} MiB/s")
        })
        .unwrap_or_default();
    println!("{name:<40}{:>14.1} ns/iter{thpt}   ({iters} iters)", ns);
}

/// The content checksum (one FNV-1a state) over 1 MiB, against the
/// XXH64 seal that every dumped byte passes through once.
fn bench_checksum(filter: &str) {
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i * 31 + 7) as u8).collect();
    let len = data.len() as u64;
    bench(filter, "checksum/fnv1a64_1mib", Some(len), || {
        black_box(simcore::fnv1a64(black_box(&data)));
    });
    bench(filter, "checksum/xxh64_1mib", Some(len), || {
        black_box(simcore::xxh64(black_box(&data)));
    });
}

fn u32_buf(v: impl IntoIterator<Item = u32>) -> clkernels::ArgData {
    clkernels::ArgData::buffer_of(
        v.into_iter()
            .flat_map(u32::to_le_bytes)
            .collect::<Vec<u8>>(),
    )
}

fn f32_buf(v: impl IntoIterator<Item = f32>) -> clkernels::ArgData {
    clkernels::ArgData::buffer_of(
        v.into_iter()
            .flat_map(f32::to_le_bytes)
            .collect::<Vec<u8>>(),
    )
}

fn scalar(v: u32) -> clkernels::ArgData {
    clkernels::ArgData::Scalar(v.to_le_bytes().to_vec())
}

/// The costliest kernels: those of `interpose` at the sizes its
/// 1/16-scale programs launch them (`fdtd3d` at both of its targets'
/// volumes), `fleet`'s two costliest at its jobs' sizes, and the
/// paper-scale figures' costliest at theirs, each called the way the
/// driver calls it. A kernel that works in place gets its input back
/// before every launch (a copy of well under a tenth of its cost), so
/// each iteration sorts, transforms or iterates the same data.
fn bench_kernels(filter: &str) {
    fn launch(name: &str, args: &mut [clkernels::ArgData]) {
        clkernels::execute(name, black_box(args)).unwrap();
    }
    const N: u32 = 262_144;
    let mut g = simcore::qcheck::Gen::new(0x50_47);
    let random = u32_buf((0..N).map(|_| g.u32()));
    let mut args = [random.clone(), scalar(N)];
    bench(filter, "kernel/radix_sort_random_262144", None, || {
        args[0].clone_from(&random);
        launch("radix_sort", &mut args);
    });
    let mut args = [u32_buf(0..N), scalar(N)];
    bench(filter, "kernel/radix_sort_sorted_262144", None, || {
        launch("radix_sort", &mut args);
    });
    let mut args = [u32_buf((0..N).map(|_| 0)), scalar(N)];
    bench(filter, "kernel/quasirandom_262144", None, || {
        launch("quasirandom", &mut args);
    });
    let mut args = [
        f32_buf((0..N).map(|_| g.f32_in(0.0, 1.0))),
        u32_buf([0; 64]),
        clkernels::ArgData::Local(256),
        scalar(N),
    ];
    bench(filter, "kernel/histogram64_262144", None, || {
        launch("histogram64", &mut args);
    });
    const FFT_N: u32 = 4096;
    let signal = [
        f32_buf((0..FFT_N).map(|_| g.f32_in(-1.0, 1.0))),
        f32_buf((0..FFT_N).map(|_| g.f32_in(-1.0, 1.0))),
        scalar(FFT_N),
    ];
    let mut args = signal.clone();
    bench(filter, "kernel/fft_radix2_4096", None, || {
        args.clone_from(&signal);
        launch("fft_radix2", &mut args);
    });
    const SIDE: u32 = 512;
    let mut args = [
        f32_buf((0..SIDE * SIDE).map(|_| g.f32_in(0.0, 255.0))),
        f32_buf((0..SIDE * SIDE).map(|_| 0.0)),
        scalar(SIDE),
        scalar(SIDE),
    ];
    bench(filter, "kernel/dct8x8_512x512", None, || {
        launch("dct8x8", &mut args);
    });
    // `fleet`'s two costliest kernels, at its jobs' sizes.
    const FLEET_N: u32 = 524_288;
    let mut args = [
        f32_buf((0..FLEET_N).map(|_| g.f32_in(0.0, 1.0))),
        f32_buf((0..FLEET_N).map(|_| g.f32_in(0.0, 1.0))),
        f32_buf((0..FLEET_N).map(|_| 0.0)),
        scalar(FLEET_N),
    ];
    bench(filter, "kernel/vec_add_524288", None, || {
        launch("vec_add", &mut args);
    });
    bench_relaunch(filter, &args);
    let mut args = [
        f32_buf((0..FLEET_N).map(|_| g.f32_in(0.0, 1.0))),
        f32_buf([0.0]),
        clkernels::ArgData::Local(1024),
        scalar(FLEET_N),
    ];
    bench(filter, "kernel/reduce_sum_524288", None, || {
        launch("reduce_sum", &mut args);
    });
    // The paper-scale figures' costliest kernels that the sizes above
    // leave out, at the sizes those programs launch them.
    const CONV: u32 = 1024;
    let taps = f32_buf((0..17).map(|_| g.f32_in(0.0, 0.1)));
    for name in ["conv_rows", "conv_cols"] {
        let mut args = [
            f32_buf((0..CONV * CONV).map(|_| g.f32_in(0.0, 1.0))),
            f32_buf((0..CONV * CONV).map(|_| 0.0)),
            taps.clone(),
            scalar(CONV),
            scalar(CONV),
            scalar(8),
        ];
        bench(filter, &format!("kernel/{name}_1024x1024_r8"), None, || {
            launch(name, &mut args);
        });
    }
    const ATOMS: u32 = 256;
    const GRID: u32 = 512;
    let mut args = [
        f32_buf((0..ATOMS * 4).map(|_| g.f32_in(0.0, 64.0))),
        f32_buf((0..GRID * GRID).map(|_| 0.0)),
        scalar(ATOMS),
        scalar(GRID),
        scalar(GRID),
    ];
    bench(filter, "kernel/cp_potential_256_512x512", None, || {
        launch("cp_potential", &mut args);
    });
    const MD_N: u32 = 131_072;
    let mut args = [
        f32_buf((0..MD_N * 3).map(|_| g.f32_in(0.0, 20.0))),
        f32_buf((0..MD_N * 3).map(|_| 0.0)),
        scalar(MD_N),
        clkernels::ArgData::Scalar(5.0f32.to_le_bytes().to_vec()),
    ];
    bench(filter, "kernel/md_forces_131072", None, || {
        launch("md_forces", &mut args);
    });
    let (nk, nx) = (1024u32, 4096u32);
    let mut args: Vec<clkernels::ArgData> = [nk, nk, nk, nk, nk, nx, nx, nx]
        .into_iter()
        .map(|n| f32_buf((0..n).map(|_| g.f32_in(-1.0, 1.0))))
        .chain([f32_buf((0..nx).map(|_| 0.0)), f32_buf((0..nx).map(|_| 0.0))])
        .chain([scalar(nk), scalar(nx)])
        .collect();
    bench(filter, "kernel/mri_fhd_1024x4096", None, || {
        launch("mri_fhd", &mut args);
    });
    // `interpose`'s other costly kernels, drawn last so the inputs above
    // stay as they were.
    for dim in [50u32, 73] {
        let vol = dim * dim * dim;
        let mut args = [
            f32_buf((0..vol).map(|_| g.f32_in(0.0, 1.0))),
            f32_buf((0..vol).map(|_| 0.0)),
            scalar(dim),
            scalar(dim),
            scalar(dim),
        ];
        let name = format!("kernel/fdtd3d_{dim}x{dim}x{dim}");
        bench(filter, &name, None, || launch("fdtd3d", &mut args));
    }
    const FLOPS_N: u32 = 65_536;
    let lanes = [
        f32_buf((0..FLOPS_N).map(|_| g.f32_in(0.5, 1.5))),
        scalar(FLOPS_N),
        scalar(8),
    ];
    let mut args = lanes.clone();
    bench(filter, "kernel/max_flops_65536", None, || {
        args[0].clone_from(&lanes[0]);
        launch("max_flops", &mut args);
    });
    const STENCIL: u32 = 64;
    let mut args = [
        f32_buf((0..STENCIL * STENCIL).map(|_| g.f32_in(0.0, 1.0))),
        f32_buf((0..STENCIL * STENCIL).map(|_| 0.0)),
        scalar(STENCIL),
        scalar(STENCIL),
    ];
    bench(filter, "kernel/stencil2d_64x64", None, || {
        launch("stencil2d", &mut args);
    });
}

/// `vec_add` over `args` (`a`, `b`, `c`, `n`) launched through a
/// driver, then relaunched over buffers nothing has written since: the
/// driver validates, schedules and charges each relaunch, and skips
/// executing it.
fn bench_relaunch(filter: &str, args: &[clkernels::ArgData]) {
    use clspec::types::{MemFlags, NDRange};
    let mut driver = cldriver::Driver::new(cldriver::vendor::nimbus(), osproc::Pid(1));
    let mut now = SimTime::ZERO;
    let mut ocl = clspec::Ocl::new(&mut driver, &mut now);
    let (ctx, q) = gpu_queue(&mut ocl);
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let k = ocl.create_kernel(prog, "vec_add").unwrap();
    for (i, arg) in args[..3].iter().enumerate() {
        let bytes = Payload::from(arg.buffer().unwrap().to_vec());
        let flags = MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR;
        let mem = ocl
            .create_buffer(ctx, flags, bytes.len() as u64, Some(bytes))
            .unwrap();
        ocl.set_arg_mem(k, i as u32, mem).unwrap();
    }
    let n = args[3].scalar_u32().unwrap();
    ocl.set_arg_scalar(k, 3, n).unwrap();
    let global = NDRange::d1(n as u64);
    ocl.enqueue_nd_range(q, k, global, None, &[]).unwrap();
    bench(
        filter,
        "kernel/vec_add_524288_relaunch_unchanged",
        None,
        || {
            let ev = ocl.enqueue_nd_range(q, k, global, None, &[]).unwrap();
            ocl.release_event(black_box(ev)).unwrap();
        },
    );
}

/// A context and an in-order queue on the first GPU behind `ocl`.
fn gpu_queue(ocl: &mut clspec::Ocl) -> (clspec::Context, clspec::CommandQueue) {
    let platform = ocl.get_platform_ids().unwrap()[0];
    let dev = ocl
        .get_device_ids(platform, clspec::DeviceType::Gpu)
        .unwrap()[0];
    let ctx = ocl.create_context(&[dev]).unwrap();
    let queue = ocl
        .create_command_queue(ctx, dev, clspec::types::QueueProps::default())
        .unwrap();
    (ctx, queue)
}

/// One whole-buffer write of 1 MiB and one whole-buffer read of it,
/// straight into a driver: the write hands the payload to the device
/// and the read shares the device's bytes, so neither copies them.
fn bench_driver(filter: &str) {
    const MIB: u64 = 1 << 20;
    let mut driver = cldriver::Driver::new(cldriver::vendor::nimbus(), osproc::Pid(1));
    let mut now = SimTime::ZERO;
    let mut ocl = clspec::Ocl::new(&mut driver, &mut now);
    let (ctx, q) = gpu_queue(&mut ocl);
    let mem = ocl
        .create_buffer(ctx, clspec::MemFlags::READ_WRITE, MIB, None)
        .unwrap();
    let data = Payload::from(vec![7u8; MIB as usize]);
    bench(
        filter,
        "driver/write_read_whole_1mib",
        Some(2 * MIB),
        || {
            let ev = ocl
                .enqueue_write_buffer(q, mem, true, 0, data.clone(), &[])
                .unwrap();
            ocl.release_event(ev).unwrap();
            let (back, ev) = ocl.enqueue_read_buffer(q, mem, true, 0, MIB, &[]).unwrap();
            ocl.release_event(ev).unwrap();
            black_box(back);
        },
    );
}

/// The workload model's two memoised byte functions over 1 MiB. A miss
/// computes the bytes and files them in the thread's memo, evicting the
/// oldest entries once it is full; a hit shares the memo's bytes
/// (`generate`) or compares the bytes with its copy
/// (`readback_checksum`).
fn bench_workload_memos(filter: &str) {
    const MIB: u64 = 1 << 20;
    let f32_init = |seed| BufInit::RandomF32 {
        seed,
        lo: -1.0,
        hi: 1.0,
    };
    let mut seed = 0;
    bench(filter, "workload/generate_f32_1mib_miss", Some(MIB), || {
        seed += 1;
        black_box(f32_init(seed).generate(MIB));
    });
    bench(filter, "workload/generate_f32_1mib_hit", Some(MIB), || {
        black_box(f32_init(0).generate(MIB));
    });
    let mut data = f32_init(0).generate(MIB).into_vec();
    let mut fresh = 0u64;
    bench(
        filter,
        "workload/readback_checksum_1mib_miss",
        Some(MIB),
        || {
            // The first 8 bytes are in every fingerprint: a new key.
            fresh += 1;
            data[..8].copy_from_slice(&fresh.to_le_bytes());
            black_box(readback_checksum(black_box(&data)));
        },
    );
    bench(
        filter,
        "workload/readback_checksum_1mib_hit",
        Some(MIB),
        || {
            black_box(readback_checksum(black_box(&data)));
        },
    );
    // Working sets that come back in a cycle, as `interpose`'s do one
    // target pass later. Each fits its memo's ring, and hits after the
    // first lap; a 20 MiB FIFO would miss every time.
    let mut turn = 0;
    bench(
        filter,
        "workload/generate_f32_2mib_cycle_48mib",
        Some(2 * MIB),
        || {
            turn = (turn + 1) % 24;
            black_box(f32_init(1 << 20 | turn).generate(2 * MIB));
        },
    );
    let cycle: Vec<Payload> = (0..12)
        .map(|i| f32_init(2 << 20 | i).generate(2 * MIB))
        .collect();
    let mut turn = 0;
    bench(
        filter,
        "workload/readback_checksum_2mib_cycle_24mib",
        Some(2 * MIB),
        || {
            turn = (turn + 1) % cycle.len();
            black_box(readback_checksum(black_box(&cycle[turn])));
        },
    );
}

fn bench_codec(filter: &str) {
    let image = {
        let mut img = osproc::MemImage::new();
        img.put("data", vec![0xabu8; 1 << 20]);
        img.put("small", vec![1u8; 128]);
        img
    };
    let bytes = image.to_bytes();
    let len = bytes.len() as u64;
    bench(filter, "codec/memimage_encode_1mib", Some(len), || {
        black_box(image.to_bytes());
    });
    bench(filter, "codec/memimage_decode_1mib", Some(len), || {
        black_box(osproc::MemImage::from_bytes(&bytes).unwrap());
    });

    // The CheCL object database with one buffer's saved device data:
    // the state segment every checkpoint encodes and every restore
    // decodes.
    let mut db = checl::CheclDb::new();
    db.insert(
        clspec::handles::RawHandle(1),
        checl::ObjectRecord::Mem {
            context: 0,
            flags: clspec::types::MemFlags::READ_WRITE,
            size: 1 << 20,
            saved_data: Some(vec![0xabu8; 1 << 20].into()),
            host_cache: None,
            dirty: false,
            saved_in: None,
            image_dims: None,
            dirty_regions: Vec::new(),
            saved_chunks: None,
            cut_epoch: 0,
        },
    );
    let bytes = db.to_bytes();
    let len = bytes.len() as u64;
    bench(filter, "codec/checl_state_encode_1mib", Some(len), || {
        black_box(db.to_bytes());
    });
    bench(filter, "codec/checl_state_decode_1mib", Some(len), || {
        black_box(checl::CheclDb::from_bytes(&bytes).unwrap());
    });
}

fn bench_parser(filter: &str) {
    let big_source: String = clkernels::corpus::all_program_names()
        .iter()
        .map(|n| clkernels::program_source(n).unwrap().source)
        .collect();
    let len = big_source.len() as u64;
    bench(filter, "sig_parser/parse_full_corpus", Some(len), || {
        black_box(clspec::sig::parse_kernel_sigs(&big_source).unwrap());
    });
}

fn bench_forward_path(filter: &str) {
    // Real cost of one interposed API call end to end (translate,
    // pipe accounting, driver dispatch, wrap).
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let pid = cluster.spawn(node);
    let mut booted = checl::boot_checl(
        &mut cluster,
        pid,
        cldriver::vendor::nimbus(),
        CheclConfig::default(),
    );
    let mut now = SimTime::ZERO;
    use clspec::api::ClApi;
    let platforms = booted
        .lib
        .call(&mut now, clspec::ApiRequest::GetPlatformIds)
        .unwrap()
        .into_platforms()
        .unwrap();
    bench(filter, "forward/get_platform_ids_interposed", None, || {
        black_box(
            booted
                .lib
                .call(&mut now, clspec::ApiRequest::GetPlatformIds)
                .unwrap(),
        );
    });
    bench(filter, "forward/get_platform_info_interposed", None, || {
        black_box(
            booted
                .lib
                .call(
                    &mut now,
                    clspec::ApiRequest::GetPlatformInfo {
                        platform: platforms[0],
                    },
                )
                .unwrap(),
        );
    });
    // A data call: a queue, a buffer and a 2-event wait list translated,
    // 4 KiB carried. Each write's event is released again, so the object
    // tables stay the same size however long the bench runs.
    const PAYLOAD: u64 = 4096;
    let mut ocl = clspec::Ocl::new(&mut booted.lib, &mut now);
    let dev = ocl
        .get_device_ids(platforms[0], clspec::DeviceType::Gpu)
        .unwrap()[0];
    let ctx = ocl.create_context(&[dev]).unwrap();
    let q = ocl
        .create_command_queue(ctx, dev, clspec::QueueProps::default())
        .unwrap();
    let mem = ocl
        .create_buffer(ctx, clspec::MemFlags::READ_WRITE, PAYLOAD, None)
        .unwrap();
    let waits = [
        ocl.enqueue_marker(q).unwrap(),
        ocl.enqueue_marker(q).unwrap(),
    ];
    let data = Payload::from(vec![7u8; PAYLOAD as usize]);
    bench(
        filter,
        "forward/enqueue_write_buffer_interposed",
        Some(PAYLOAD),
        || {
            let ev = ocl
                .enqueue_write_buffer(q, mem, false, 0, data.clone(), &waits)
                .unwrap();
            ocl.release_event(black_box(ev)).unwrap();
        },
    );
}

fn bench_workload_run(filter: &str) {
    let cfg = WorkloadCfg {
        scale: 1.0 / 256.0,
        ..WorkloadCfg::default()
    };
    let w = workload_by_name("oclVectorAdd").unwrap();
    bench(filter, "workload/vecadd_native", None, || {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = NativeSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            w.script(&cfg),
        );
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        black_box(&s.program.checksums);
    });
    bench(filter, "workload/vecadd_checl", None, || {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            w.script(&cfg),
        );
        s.run(&mut cluster, StopCondition::Completion).unwrap();
        black_box(&s.program.checksums);
    });
}

fn bench_cpr_cycle(filter: &str) {
    let cfg = WorkloadCfg {
        scale: 1.0 / 256.0,
        ..WorkloadCfg::default()
    };
    let w = workload_by_name("oclMatrixMul").unwrap();
    bench(filter, "cpr/checkpoint_restart_cycle", None, || {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            w.script(&cfg),
        );
        s.run(&mut cluster, StopCondition::AfterKernel(1)).unwrap();
        s.checkpoint_with_policy(&mut cluster, "/ram/bench.ckpt", &CprPolicy::sequential())
            .unwrap();
        s.kill(&mut cluster);
        let mut resumed = CheclSession::restart(
            &mut cluster,
            node,
            "/ram/bench.ckpt",
            cldriver::vendor::nimbus(),
            RestoreTarget::default(),
        )
        .unwrap();
        resumed
            .run(&mut cluster, StopCondition::Completion)
            .unwrap();
        black_box(&resumed.program.checksums);
    });
}

fn main() {
    // `cargo bench` passes `--bench`; any other argument is a filter.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_default();
    bench_checksum(&filter);
    bench_kernels(&filter);
    bench_driver(&filter);
    bench_workload_memos(&filter);
    bench_codec(&filter);
    bench_parser(&filter);
    bench_forward_path(&filter);
    bench_workload_run(&filter);
    bench_cpr_cycle(&filter);
}
