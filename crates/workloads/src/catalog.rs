//! The benchmark roster of §IV: NVIDIA GPU Computing SDK 3.0 samples,
//! the SHOC 0.9.1 suite (serial versions; Spmv excluded as in the
//! paper), and the three Parboil ports (cp, mri-fhd, mri-q — the
//! latter two in small and large problem sizes).
//!
//! Per the paper's methodology, the CPU-side result-verification code
//! of the original samples is omitted "to avoid underestimating the
//! timing overhead in the GPU computation part": the scripts contain
//! only the OpenCL host calls plus final checksum reads.

use crate::script::{BufInit, Op, Reg, Script};
use clspec::types::{DeviceType, MemFlags};
use simcore::ByteSize;

/// Which suite a workload comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// NVIDIA GPU Computing SDK 3.0 OpenCL samples.
    NvidiaSdk,
    /// SHOC benchmark suite 0.9.1.
    Shoc,
    /// Parboil ports.
    Parboil,
}

/// Configuration a script is generated against.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadCfg {
    /// Device memory of the target (oclFDTD3d and oclMatVecMul size
    /// their problems from it, §IV-B).
    pub device_mem: ByteSize,
    /// Scale factor on element counts (1.0 = paper-proportional).
    pub scale: f64,
    /// Device class the application requests.
    pub device_type: DeviceType,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            device_mem: ByteSize::gib(4),
            scale: 1.0,
            device_type: DeviceType::Gpu,
        }
    }
}

impl WorkloadCfg {
    fn n(&self, base: u64) -> u64 {
        ((base as f64 * self.scale) as u64).max(16)
    }

    fn n_pow2(&self, base: u64) -> u64 {
        let n = self.n(base);
        1u64 << (63 - n.leading_zeros() as u64)
    }
}

/// One benchmark program.
#[derive(Clone)]
pub struct Workload {
    /// Name as it appears on the paper's figure axes.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    build: fn(&WorkloadCfg) -> Script,
}

impl Workload {
    /// Generate the script for a configuration.
    pub fn script(&self, cfg: &WorkloadCfg) -> Script {
        (self.build)(cfg)
    }
}

// ---------------------------------------------------------------------
// Script builder helper
// ---------------------------------------------------------------------

/// Fluent builder with a register allocator and the standard
/// platform/device/context/queue prelude.
pub struct B {
    ops: Vec<Op>,
    next: Reg,
    /// Platform register.
    pub platform: Reg,
    /// First device register.
    pub device: Reg,
    /// Context register.
    pub ctx: Reg,
    /// Default queue register.
    pub queue: Reg,
}

impl B {
    /// Standard prelude against the configured device type.
    pub fn new(cfg: &WorkloadCfg) -> B {
        let mut b = B {
            ops: Vec::new(),
            next: 0,
            platform: 0,
            device: 0,
            ctx: 0,
            queue: 0,
        };
        b.platform = b.alloc();
        b.ops.push(Op::GetPlatform { out: b.platform });
        b.device = b.alloc();
        let _second_device = b.alloc(); // reserved slot for device[1]
        b.ops.push(Op::GetDevices {
            platform: b.platform,
            dtype: cfg.device_type,
            out: b.device,
            count: 2,
        });
        b.ctx = b.alloc();
        b.ops.push(Op::CreateContext {
            device: b.device,
            out: b.ctx,
        });
        b.queue = b.alloc();
        b.ops.push(Op::CreateQueue {
            context: b.ctx,
            device: b.device,
            out: b.queue,
        });
        b
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next;
        self.next += 1;
        assert!(
            (self.next as usize) < crate::script::NUM_REGS,
            "register file exhausted"
        );
        r
    }

    /// Extra in-order queue on the same device.
    pub fn extra_queue(&mut self) -> Reg {
        let q = self.alloc();
        self.ops.push(Op::CreateQueue {
            context: self.ctx,
            device: self.device,
            out: q,
        });
        q
    }

    /// Read-write device buffer, optionally initialised.
    pub fn buffer(&mut self, size: u64, init: Option<BufInit>) -> Reg {
        let r = self.alloc();
        self.ops.push(Op::CreateBuffer {
            context: self.ctx,
            flags: MemFlags::READ_WRITE,
            size,
            init,
            out: r,
        });
        r
    }

    /// Create and build a corpus program.
    pub fn program(&mut self, name: &str) -> Reg {
        let r = self.alloc();
        self.ops.push(Op::CreateProgram {
            name: name.to_string(),
            context: self.ctx,
            out: r,
        });
        self.ops.push(Op::BuildProgram { prog: r });
        r
    }

    /// Create a kernel from a program.
    pub fn kernel(&mut self, prog: Reg, name: &str) -> Reg {
        let r = self.alloc();
        self.ops.push(Op::CreateKernel {
            prog,
            name: name.to_string(),
            out: r,
        });
        r
    }

    /// Program + single kernel shorthand.
    pub fn prog_kernel(&mut self, prog_name: &str, kernel_name: &str) -> Reg {
        let p = self.program(prog_name);
        self.kernel(p, kernel_name)
    }

    /// Bind a buffer argument.
    pub fn arg_mem(&mut self, kernel: Reg, index: u32, buf: Reg) {
        self.ops.push(Op::SetArgMem { kernel, index, buf });
    }

    /// Bind a u32 scalar argument.
    pub fn arg_u32(&mut self, kernel: Reg, index: u32, value: u32) {
        self.ops.push(Op::SetArgU32 {
            kernel,
            index,
            value,
        });
    }

    /// Bind an f32 scalar argument.
    pub fn arg_f32(&mut self, kernel: Reg, index: u32, value: f32) {
        self.ops.push(Op::SetArgF32 {
            kernel,
            index,
            value,
        });
    }

    /// Declare local scratch.
    pub fn arg_local(&mut self, kernel: Reg, index: u32, size: u64) {
        self.ops.push(Op::SetArgLocal {
            kernel,
            index,
            size,
        });
    }

    /// 1-D launch on the default queue.
    pub fn launch1(&mut self, kernel: Reg, n: u64) {
        self.ops.push(Op::Launch {
            kernel,
            queue: self.queue,
            global: [n, 1, 1],
            local: None,
        });
    }

    /// 2-D launch.
    pub fn launch2(&mut self, kernel: Reg, x: u64, y: u64) {
        self.ops.push(Op::Launch {
            kernel,
            queue: self.queue,
            global: [x, y, 1],
            local: None,
        });
    }

    /// 3-D launch.
    pub fn launch3(&mut self, kernel: Reg, x: u64, y: u64, z: u64) {
        self.ops.push(Op::Launch {
            kernel,
            queue: self.queue,
            global: [x, y, z],
            local: None,
        });
    }

    /// Launch with an explicit work-group shape.
    pub fn launch_wg(&mut self, kernel: Reg, queue: Reg, global: [u64; 3], local: [u64; 3]) {
        self.ops.push(Op::Launch {
            kernel,
            queue,
            global,
            local: Some(local),
        });
    }

    /// `clFinish` the default queue.
    pub fn finish(&mut self) {
        self.ops.push(Op::Finish { queue: self.queue });
    }

    /// Blocking write of generated data.
    pub fn write(&mut self, buf: Reg, size: u64, init: BufInit) {
        self.ops.push(Op::WriteBuffer {
            queue: self.queue,
            buf,
            size,
            init,
        });
    }

    /// Blocking checksum read.
    pub fn read_checksum(&mut self, buf: Reg, size: u64) {
        self.ops.push(Op::ReadBufferChecksum {
            queue: self.queue,
            buf,
            size,
        });
    }

    /// Finalize.
    pub fn build(mut self) -> Script {
        // Every program ends with a full drain, like the samples do.
        self.finish();
        Script { ops: self.ops }
    }
}

// ---------------------------------------------------------------------
// NVIDIA SDK samples
// ---------------------------------------------------------------------

fn ocl_vector_add(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 23);
    let mut b = B::new(cfg);
    let a = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 1,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let bb = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 2,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let c = b.buffer(n * 4, None);
    let k = b.prog_kernel("vector_add", "vec_add");
    b.arg_mem(k, 0, a);
    b.arg_mem(k, 1, bb);
    b.arg_mem(k, 2, c);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..50 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(c, n * 4);
    b.build()
}

fn ocl_bandwidth_test(cfg: &WorkloadCfg) -> Script {
    // Pure transfer benchmark: no kernels at all.
    let size = cfg.n(32 << 20);
    let mut b = B::new(cfg);
    let buf = b.buffer(size, None);
    for i in 0..5 {
        b.write(buf, size, BufInit::RandomU32 { seed: 100 + i });
        b.read_checksum(buf, size);
    }
    b.build()
}

fn ocl_black_scholes(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 18);
    let mut b = B::new(cfg);
    let call = b.buffer(n * 4, None);
    let put = b.buffer(n * 4, None);
    let s = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 3,
            lo: 10.0,
            hi: 100.0,
        }),
    );
    let x = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 4,
            lo: 10.0,
            hi: 100.0,
        }),
    );
    let t = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 5,
            lo: 0.25,
            hi: 5.0,
        }),
    );
    let k = b.prog_kernel("black_scholes", "black_scholes");
    b.arg_mem(k, 0, call);
    b.arg_mem(k, 1, put);
    b.arg_mem(k, 2, s);
    b.arg_mem(k, 3, x);
    b.arg_mem(k, 4, t);
    b.arg_f32(k, 5, 0.02);
    b.arg_f32(k, 6, 0.30);
    b.arg_u32(k, 7, n as u32);
    for _ in 0..32 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(call, n * 4);
    b.read_checksum(put, n * 4);
    b.build()
}

fn ocl_convolution_separable(cfg: &WorkloadCfg) -> Script {
    let w = cfg.n_pow2(1024);
    let h = w;
    let radius = 8u32;
    let taps = (2 * radius + 1) as u64;
    let mut b = B::new(cfg);
    let src = b.buffer(
        w * h * 4,
        Some(BufInit::RandomF32 {
            seed: 6,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let tmp = b.buffer(w * h * 4, None);
    let dst = b.buffer(w * h * 4, None);
    let filter = b.buffer(
        taps * 4,
        Some(BufInit::RandomF32 {
            seed: 7,
            lo: 0.0,
            hi: 0.1,
        }),
    );
    let p = b.program("convolution_separable");
    let k_rows = b.kernel(p, "conv_rows");
    let k_cols = b.kernel(p, "conv_cols");
    for _ in 0..8 {
        for (k, s, d) in [(k_rows, src, tmp), (k_cols, tmp, dst)] {
            b.arg_mem(k, 0, s);
            b.arg_mem(k, 1, d);
            b.arg_mem(k, 2, filter);
            b.arg_u32(k, 3, w as u32);
            b.arg_u32(k, 4, h as u32);
            b.arg_u32(k, 5, radius);
            b.launch2(k, w, h);
        }
    }
    b.finish();
    b.read_checksum(dst, w * h * 4);
    b.build()
}

fn ocl_dct8x8(cfg: &WorkloadCfg) -> Script {
    let w = cfg.n_pow2(512);
    let h = w;
    let mut b = B::new(cfg);
    let src = b.buffer(
        w * h * 4,
        Some(BufInit::RandomF32 {
            seed: 8,
            lo: 0.0,
            hi: 255.0,
        }),
    );
    let dst = b.buffer(w * h * 4, None);
    let k = b.prog_kernel("dct8x8", "dct8x8");
    b.arg_mem(k, 0, src);
    b.arg_mem(k, 1, dst);
    b.arg_u32(k, 2, w as u32);
    b.arg_u32(k, 3, h as u32);
    for _ in 0..16 {
        b.launch2(k, w, h);
    }
    b.finish();
    b.read_checksum(dst, w * h * 4);
    b.build()
}

fn ocl_dxt_compression(cfg: &WorkloadCfg) -> Script {
    let w = cfg.n_pow2(512);
    let h = w;
    let blocks = w * h / 16;
    let mut b = B::new(cfg);
    let src = b.buffer(
        w * h * 4,
        Some(BufInit::RandomF32 {
            seed: 9,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let dst = b.buffer(blocks * 8, None);
    let k = b.prog_kernel("dxtc", "dxt_compress");
    b.arg_mem(k, 0, src);
    b.arg_mem(k, 1, dst);
    b.arg_u32(k, 2, w as u32);
    b.arg_u32(k, 3, h as u32);
    for _ in 0..16 {
        b.launch1(k, blocks);
    }
    b.finish();
    b.read_checksum(dst, blocks * 8);
    b.build()
}

fn ocl_dot_product(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 16); // float4 elements
    let mut b = B::new(cfg);
    let a = b.buffer(
        n * 16,
        Some(BufInit::RandomF32 {
            seed: 10,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let bb = b.buffer(
        n * 16,
        Some(BufInit::RandomF32 {
            seed: 11,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let c = b.buffer(n * 4, None);
    let k = b.prog_kernel("dot_product", "dot_product");
    b.arg_mem(k, 0, a);
    b.arg_mem(k, 1, bb);
    b.arg_mem(k, 2, c);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..32 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(c, n * 4);
    b.build()
}

fn ocl_fdtd3d(cfg: &WorkloadCfg) -> Script {
    // Problem size determined from the device memory (§IV-B): two
    // dim³ f32 volumes targeting ~1/1024 of device memory each.
    let target = cfg.n(cfg.device_mem.as_u64() / 256);
    let dim = (((target / 8) as f64).cbrt() as u64).clamp(16, 192);
    let vol = dim * dim * dim;
    let mut b = B::new(cfg);
    let ping = b.buffer(
        vol * 4,
        Some(BufInit::RandomF32 {
            seed: 12,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let pong = b.buffer(vol * 4, None);
    let k = b.prog_kernel("fdtd3d", "fdtd3d");
    for step in 0..8 {
        let (src, dst) = if step % 2 == 0 {
            (ping, pong)
        } else {
            (pong, ping)
        };
        b.arg_mem(k, 0, src);
        b.arg_mem(k, 1, dst);
        b.arg_u32(k, 2, dim as u32);
        b.arg_u32(k, 3, dim as u32);
        b.arg_u32(k, 4, dim as u32);
        b.launch3(k, dim, dim, dim);
    }
    b.finish();
    b.read_checksum(ping, vol * 4);
    b.build()
}

fn ocl_histogram(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let data = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 13,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let hist = b.buffer(64 * 4, None);
    let k = b.prog_kernel("histogram", "histogram64");
    b.arg_mem(k, 0, data);
    b.arg_mem(k, 1, hist);
    b.arg_local(k, 2, 64 * 4);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..32 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(hist, 64 * 4);
    b.build()
}

fn ocl_matvecmul(cfg: &WorkloadCfg) -> Script {
    // Also sized from device memory (§IV-B): the matrix targets
    // ~1/1024 of device memory.
    let target = cfg.n(cfg.device_mem.as_u64() / 256);
    let dim = (((target / 4) as f64).sqrt() as u64).clamp(64, 4096);
    let mut b = B::new(cfg);
    let mat = b.buffer(
        dim * dim * 4,
        Some(BufInit::RandomF32 {
            seed: 14,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let vec = b.buffer(
        dim * 4,
        Some(BufInit::RandomF32 {
            seed: 15,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let out = b.buffer(dim * 4, None);
    let k = b.prog_kernel("matvec", "matvec");
    b.arg_mem(k, 0, mat);
    b.arg_mem(k, 1, vec);
    b.arg_mem(k, 2, out);
    b.arg_u32(k, 3, dim as u32);
    b.arg_u32(k, 4, dim as u32);
    for _ in 0..16 {
        b.launch1(k, dim);
    }
    b.finish();
    b.read_checksum(out, dim * 4);
    b.build()
}

fn ocl_matrixmul(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(128);
    let mut b = B::new(cfg);
    let a = b.buffer(
        n * n * 4,
        Some(BufInit::RandomF32 {
            seed: 16,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let bb = b.buffer(
        n * n * 4,
        Some(BufInit::RandomF32 {
            seed: 17,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let c = b.buffer(n * n * 4, None);
    let k = b.prog_kernel("matmul", "matmul");
    b.arg_mem(k, 0, a);
    b.arg_mem(k, 1, bb);
    b.arg_mem(k, 2, c);
    b.arg_u32(k, 3, n as u32);
    b.arg_u32(k, 4, n as u32);
    b.arg_u32(k, 5, n as u32);
    for _ in 0..16 {
        b.launch2(k, n, n);
    }
    b.finish();
    b.read_checksum(c, n * n * 4);
    b.build()
}

fn ocl_mersenne_twister(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(4096);
    let per = 512u64;
    let mut b = B::new(cfg);
    let seeds = b.buffer(n * 4, Some(BufInit::RandomU32 { seed: 18 }));
    let out = b.buffer(n * per * 4, None);
    let k = b.prog_kernel("mersenne_twister", "mersenne_twister");
    b.arg_mem(k, 0, seeds);
    b.arg_mem(k, 1, out);
    b.arg_u32(k, 2, n as u32);
    b.arg_u32(k, 3, per as u32);
    for _ in 0..16 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(out, n * per * 4);
    b.build()
}

fn ocl_quasirandom(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let out = b.buffer(n * 4, None);
    let k = b.prog_kernel("quasirandom", "quasirandom");
    b.arg_mem(k, 0, out);
    b.arg_u32(k, 1, n as u32);
    for _ in 0..32 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(out, n * 4);
    b.build()
}

fn ocl_radix_sort(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let keys = b.buffer(n * 4, Some(BufInit::RandomU32 { seed: 19 }));
    let k = b.prog_kernel("radix_sort", "radix_sort");
    b.arg_mem(k, 0, keys);
    b.arg_u32(k, 1, n as u32);
    for _ in 0..8 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(keys, n * 4);
    b.build()
}

fn ocl_reduction(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let input = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 20,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let output = b.buffer(4, None);
    let k = b.prog_kernel("reduction", "reduce_sum");
    b.arg_mem(k, 0, input);
    b.arg_mem(k, 1, output);
    b.arg_local(k, 2, 256 * 4);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..32 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(output, 4);
    b.build()
}

fn ocl_scan(cfg: &WorkloadCfg) -> Script {
    // "some programs such as Scan … invoke API functions many times
    // without any time-consuming computation" (§IV-A).
    let n = cfg.n_pow2(1 << 16);
    let mut b = B::new(cfg);
    let input = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 21,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let output = b.buffer(n * 4, None);
    let k = b.prog_kernel("scan", "scan_exclusive");
    b.arg_mem(k, 0, input);
    b.arg_mem(k, 1, output);
    b.arg_local(k, 2, 512 * 4);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..24 {
        b.launch1(k, n);
        b.finish();
    }
    b.read_checksum(output, n * 4);
    b.build()
}

fn ocl_simple_multi_gpu(cfg: &WorkloadCfg) -> Script {
    // Two command queues splitting the work (on one device per queue
    // when the platform has several).
    let n = cfg.n_pow2(1 << 19);
    let mut b = B::new(cfg);
    let q2 = b.extra_queue();
    let a = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 22,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let bb = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 23,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let c1 = b.buffer(n * 4, None);
    let c2 = b.buffer(n * 4, None);
    let p = b.program("vector_add");
    let k1 = b.kernel(p, "vec_add");
    let k2 = b.kernel(p, "vec_add");
    b.arg_mem(k1, 0, a);
    b.arg_mem(k1, 1, bb);
    b.arg_mem(k1, 2, c1);
    b.arg_u32(k1, 3, n as u32);
    b.arg_mem(k2, 0, bb);
    b.arg_mem(k2, 1, a);
    b.arg_mem(k2, 2, c2);
    b.arg_u32(k2, 3, n as u32);
    b.launch1(k1, n);
    b.launch_wg(k2, q2, [n, 1, 1], [256, 1, 1]);
    b.ops.push(Op::Finish { queue: q2 });
    b.finish();
    b.read_checksum(c1, n * 4);
    b.read_checksum(c2, n * 4);
    b.build()
}

fn ocl_sorting_networks(cfg: &WorkloadCfg) -> Script {
    // Bitonic sort: O(log² n) separate kernel launches, each a single
    // compare-exchange pass — extremely API-chatty. The 512-wide work
    // groups run on the Tesla (512) and the CPU (1024) but not on the
    // Radeon (256): the paper's portability failure.
    let n = cfg.n_pow2(1 << 13);
    let log_n = n.trailing_zeros();
    let mut b = B::new(cfg);
    let keys = b.buffer(n * 4, Some(BufInit::RandomU32 { seed: 24 }));
    let k = b.prog_kernel("sorting_networks", "bitonic_sort");
    b.arg_mem(k, 0, keys);
    b.arg_u32(k, 1, n as u32);
    for stage in 0..log_n {
        for pass in (0..=stage).rev() {
            b.arg_u32(k, 2, stage);
            b.arg_u32(k, 3, pass);
            b.launch_wg(k, b.queue, [n, 1, 1], [512.min(n), 1, 1]);
        }
    }
    b.finish();
    b.read_checksum(keys, n * 4);
    b.build()
}

fn ocl_transpose(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1024);
    let mut b = B::new(cfg);
    let input = b.buffer(
        n * n * 4,
        Some(BufInit::RandomF32 {
            seed: 25,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let output = b.buffer(n * n * 4, None);
    let k = b.prog_kernel("transpose", "transpose");
    b.arg_mem(k, 0, input);
    b.arg_mem(k, 1, output);
    b.arg_u32(k, 2, n as u32);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..16 {
        b.launch2(k, n, n);
    }
    b.finish();
    b.read_checksum(output, n * n * 4);
    b.build()
}

// ---------------------------------------------------------------------
// SHOC
// ---------------------------------------------------------------------

fn shoc_bus_speed_download(cfg: &WorkloadCfg) -> Script {
    let size = cfg.n(32 << 20);
    let mut b = B::new(cfg);
    let buf = b.buffer(size, None);
    for i in 0..8 {
        b.write(buf, size, BufInit::RandomU32 { seed: 200 + i });
    }
    b.build()
}

fn shoc_bus_speed_readback(cfg: &WorkloadCfg) -> Script {
    let size = cfg.n(32 << 20);
    let mut b = B::new(cfg);
    let buf = b.buffer(size, Some(BufInit::RandomU32 { seed: 26 }));
    for _ in 0..8 {
        b.read_checksum(buf, size);
    }
    b.build()
}

fn shoc_device_memory(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let src = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 27,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let dst = b.buffer(n * 4, None);
    let k = b.prog_kernel("device_copy", "copy_buf");
    b.arg_mem(k, 0, src);
    b.arg_mem(k, 1, dst);
    b.arg_u32(k, 2, n as u32);
    for _ in 0..16 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(dst, n * 4);
    b.build()
}

fn shoc_fft(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 16);
    let mut b = B::new(cfg);
    let re = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 28,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let im = b.buffer(n * 4, Some(BufInit::Zero));
    let k = b.prog_kernel("fft", "fft_radix2");
    b.arg_mem(k, 0, re);
    b.arg_mem(k, 1, im);
    b.arg_u32(k, 2, n as u32);
    for _ in 0..16 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(re, n * 4);
    b.read_checksum(im, n * 4);
    b.build()
}

fn shoc_kernel_compile(cfg: &WorkloadCfg) -> Script {
    // Measures clBuildProgram throughput: compiles, never launches.
    let mut b = B::new(cfg);
    for name in [
        "vector_add",
        "matmul",
        "fft",
        "scan",
        "reduction",
        "stencil2d",
    ] {
        b.program(name);
    }
    b.build()
}

fn shoc_max_flops(cfg: &WorkloadCfg) -> Script {
    // Deliberately long-running kernels: the benchmark whose
    // checkpoint is dominated by the synchronization phase in Fig. 5.
    let n = cfg.n_pow2(1 << 20);
    let mut b = B::new(cfg);
    let data = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 29,
            lo: 0.5,
            hi: 1.5,
        }),
    );
    let k = b.prog_kernel("max_flops", "max_flops");
    b.arg_mem(k, 0, data);
    b.arg_u32(k, 1, n as u32);
    b.arg_u32(k, 2, 8);
    for _ in 0..16 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(data, n * 4);
    b.build()
}

fn shoc_md(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 17);
    let mut b = B::new(cfg);
    let pos = b.buffer(
        n * 12,
        Some(BufInit::RandomF32 {
            seed: 30,
            lo: 0.0,
            hi: 20.0,
        }),
    );
    let force = b.buffer(n * 12, None);
    let k = b.prog_kernel("md", "md_forces");
    b.arg_mem(k, 0, pos);
    b.arg_mem(k, 1, force);
    b.arg_u32(k, 2, n as u32);
    b.arg_f32(k, 3, 5.0);
    for _ in 0..8 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(force, n * 12);
    b.build()
}

/// SHOC MD with a slowly-mutating position buffer: each step rewrites
/// a `mutation_rate` prefix of the atoms (fresh per-step seed) before
/// re-running `md_forces`. Because the force kernel only reads a small
/// neighbour window, the untouched position suffix reproduces its
/// force suffix bit-for-bit — the workload the dedup chunk store is
/// built for. Not on the roster; `ablation_dedup` drives it directly.
pub fn md_mutating(cfg: &WorkloadCfg, mutation_rate: f64, steps: u32) -> Script {
    let n = cfg.n_pow2(1 << 17);
    let mut b = B::new(cfg);
    let pos = b.buffer(
        n * 12,
        Some(BufInit::RandomF32 {
            seed: 30,
            lo: 0.0,
            hi: 20.0,
        }),
    );
    let force = b.buffer(n * 12, None);
    let k = b.prog_kernel("md", "md_forces");
    b.arg_mem(k, 0, pos);
    b.arg_mem(k, 1, force);
    b.arg_u32(k, 2, n as u32);
    b.arg_f32(k, 3, 5.0);
    let touched = ((n as f64 * mutation_rate).ceil() as u64).min(n);
    for step in 0..steps {
        if touched > 0 {
            b.write(
                pos,
                touched * 12,
                BufInit::RandomF32 {
                    seed: 500 + step as u64,
                    lo: 0.0,
                    hi: 20.0,
                },
            );
        }
        b.launch1(k, n);
        b.finish();
    }
    b.read_checksum(pos, n * 12);
    b.read_checksum(force, n * 12);
    b.build()
}

/// Parameterized workload for the live-checkpoint ablation: `bufs`
/// float buffers of `bytes_each`, stepped by rotating triad launches
/// that each rewrite only the first eighth of one buffer (plus a
/// host write of the first sixteenth). The 1D regular-stride kernel
/// keeps the dirty ranges *precise*, so a live cut taken mid-run only
/// has to copy-on-write the small prefixes the later steps touch —
/// the access pattern the live mode is built for. Not on the roster;
/// `ablation_live` drives it directly.
pub fn live_mutating(cfg: &WorkloadCfg, bufs: usize, bytes_each: u64, steps: u32) -> Script {
    assert!(bufs >= 1 && bytes_each >= 64);
    let n = bytes_each / 4; // f32 elements
    let mut b = B::new(cfg);
    let handles: Vec<Reg> = (0..bufs)
        .map(|i| {
            b.buffer(
                bytes_each,
                Some(BufInit::RandomF32 {
                    seed: 700 + i as u64,
                    lo: -1.0,
                    hi: 1.0,
                }),
            )
        })
        .collect();
    let k = b.prog_kernel("triad", "triad");
    for step in 0..steps {
        let t = step as usize % bufs;
        // Host-side rewrite of a sixteenth of the rotating target.
        b.write(
            handles[t],
            (n / 16).max(16) * 4,
            BufInit::RandomF32 {
                seed: 900 + step as u64,
                lo: -1.0,
                hi: 1.0,
            },
        );
        // Device-side rewrite of an eighth: a[i] = b[i] + s*c[i] over
        // gid 0..n/8 only, which the stride analysis narrows to the
        // exact written prefix.
        let sub = (n / 8).max(16);
        b.arg_mem(k, 0, handles[t]);
        b.arg_mem(k, 1, handles[(t + 1) % bufs]);
        b.arg_mem(k, 2, handles[(t + 2) % bufs]);
        b.arg_f32(k, 3, 0.5 + step as f32);
        b.arg_u32(k, 4, sub as u32);
        b.launch1(k, sub);
        b.finish();
    }
    for &h in &handles {
        b.read_checksum(h, bytes_each);
    }
    b.build()
}

fn shoc_queue_delay(cfg: &WorkloadCfg) -> Script {
    // Minimal kernels, one Finish per launch: pure API latency.
    let mut b = B::new(cfg);
    let buf = b.buffer(64, Some(BufInit::Zero));
    let k = b.prog_kernel("null", "null_kernel");
    b.arg_mem(k, 0, buf);
    for _ in 0..64 {
        b.launch1(k, 1);
        b.finish();
    }
    b.build()
}

fn shoc_reduction(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let input = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 31,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let output = b.buffer(4, None);
    let k = b.prog_kernel("reduction", "reduce_sum");
    b.arg_mem(k, 0, input);
    b.arg_mem(k, 1, output);
    b.arg_local(k, 2, 256 * 4);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..32 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(output, 4);
    b.build()
}

fn shoc_s3d(cfg: &WorkloadCfg) -> Script {
    // 27 separate cl_program objects — the restart outlier of Fig. 7.
    let n = cfg.n_pow2(1 << 16);
    let mut b = B::new(cfg);
    let state = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 32,
            lo: 0.5,
            hi: 2.0,
        }),
    );
    let rates = b.buffer(n * 4, None);
    for kidx in 0..27 {
        let prog = b.program(&format!("s3d_{kidx}"));
        let k = b.kernel(prog, &format!("rate_{kidx}"));
        b.arg_mem(k, 0, state);
        b.arg_mem(k, 1, rates);
        b.arg_u32(k, 2, n as u32);
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(rates, n * 4);
    b.build()
}

fn shoc_sgemm(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(128);
    let mut b = B::new(cfg);
    let a = b.buffer(
        n * n * 4,
        Some(BufInit::RandomF32 {
            seed: 33,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let bb = b.buffer(
        n * n * 4,
        Some(BufInit::RandomF32 {
            seed: 34,
            lo: -1.0,
            hi: 1.0,
        }),
    );
    let c = b.buffer(n * n * 4, Some(BufInit::Zero));
    let k = b.prog_kernel("sgemm", "sgemm");
    b.arg_mem(k, 0, a);
    b.arg_mem(k, 1, bb);
    b.arg_mem(k, 2, c);
    b.arg_u32(k, 3, n as u32);
    b.arg_u32(k, 4, n as u32);
    b.arg_u32(k, 5, n as u32);
    b.arg_f32(k, 6, 1.0);
    b.arg_f32(k, 7, 0.5);
    for _ in 0..16 {
        b.launch2(k, n, n);
    }
    b.finish();
    b.read_checksum(c, n * n * 4);
    b.build()
}

fn shoc_scan(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 16);
    let mut b = B::new(cfg);
    let input = b.buffer(
        n * 4,
        Some(BufInit::RandomF32 {
            seed: 35,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let output = b.buffer(n * 4, None);
    let k = b.prog_kernel("scan", "scan_exclusive");
    b.arg_mem(k, 0, input);
    b.arg_mem(k, 1, output);
    b.arg_local(k, 2, 512 * 4);
    b.arg_u32(k, 3, n as u32);
    for _ in 0..32 {
        b.launch1(k, n);
        b.finish();
    }
    b.read_checksum(output, n * 4);
    b.build()
}

fn shoc_sort(cfg: &WorkloadCfg) -> Script {
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let keys = b.buffer(n * 4, Some(BufInit::RandomU32 { seed: 36 }));
    let k = b.prog_kernel("radix_sort", "radix_sort");
    b.arg_mem(k, 0, keys);
    b.arg_u32(k, 1, n as u32);
    for _ in 0..8 {
        b.launch1(k, n);
    }
    b.finish();
    b.read_checksum(keys, n * 4);
    b.build()
}

fn shoc_stencil2d(cfg: &WorkloadCfg) -> Script {
    // Chatty *and* compute-light: overhead shows under CheCL (§IV-A).
    let n = cfg.n_pow2(1024);
    let mut b = B::new(cfg);
    let ping = b.buffer(
        n * n * 4,
        Some(BufInit::RandomF32 {
            seed: 37,
            lo: 0.0,
            hi: 1.0,
        }),
    );
    let pong = b.buffer(n * n * 4, None);
    let k = b.prog_kernel("stencil2d", "stencil2d");
    for step in 0..32 {
        let (s, d) = if step % 2 == 0 {
            (ping, pong)
        } else {
            (pong, ping)
        };
        b.arg_mem(k, 0, s);
        b.arg_mem(k, 1, d);
        b.arg_u32(k, 2, n as u32);
        b.arg_u32(k, 3, n as u32);
        b.launch2(k, n, n);
        b.finish();
    }
    b.read_checksum(ping, n * n * 4);
    b.build()
}

fn shoc_triad(cfg: &WorkloadCfg) -> Script {
    // Streaming triad: data transfer dominates the total time, so the
    // proxy's extra copy is maximally visible (Fig. 4).
    let n = cfg.n_pow2(1 << 22);
    let mut b = B::new(cfg);
    let a = b.buffer(n * 4, None);
    let bb = b.buffer(n * 4, None);
    let c = b.buffer(n * 4, None);
    let k = b.prog_kernel("triad", "triad");
    b.arg_mem(k, 0, a);
    b.arg_mem(k, 1, bb);
    b.arg_mem(k, 2, c);
    b.arg_f32(k, 3, 1.75);
    b.arg_u32(k, 4, n as u32);
    for i in 0..8 {
        b.write(
            bb,
            n * 4,
            BufInit::RandomF32 {
                seed: 300 + i,
                lo: 0.0,
                hi: 1.0,
            },
        );
        b.write(
            c,
            n * 4,
            BufInit::RandomF32 {
                seed: 400 + i,
                lo: 0.0,
                hi: 1.0,
            },
        );
        b.launch1(k, n);
        b.read_checksum(a, n * 4);
    }
    b.build()
}

// ---------------------------------------------------------------------
// Parboil
// ---------------------------------------------------------------------

fn parboil_cp(cfg: &WorkloadCfg) -> Script {
    let natoms = cfg.n(256);
    let gw = cfg.n_pow2(512);
    let gh = gw;
    let mut b = B::new(cfg);
    let atoms = b.buffer(
        natoms * 16,
        Some(BufInit::RandomF32 {
            seed: 38,
            lo: 0.0,
            hi: 64.0,
        }),
    );
    let grid = b.buffer(gw * gh * 4, None);
    let k = b.prog_kernel("cp", "cp_potential");
    b.arg_mem(k, 0, atoms);
    b.arg_mem(k, 1, grid);
    b.arg_u32(k, 2, natoms as u32);
    b.arg_u32(k, 3, gw as u32);
    b.arg_u32(k, 4, gh as u32);
    for _ in 0..4 {
        b.launch2(k, gw, gh);
    }
    b.finish();
    b.read_checksum(grid, gw * gh * 4);
    b.build()
}

fn parboil_mri(cfg: &WorkloadCfg, fhd: bool, large: bool) -> Script {
    let (nk, nx) = if large {
        (cfg.n_pow2(1024), cfg.n_pow2(4096))
    } else {
        (cfg.n_pow2(256), cfg.n_pow2(1024))
    };
    let mut b = B::new(cfg);
    let mk_buf = |b: &mut B, n: u64, seed: u64| {
        b.buffer(
            n * 4,
            Some(BufInit::RandomF32 {
                seed,
                lo: -1.0,
                hi: 1.0,
            }),
        )
    };
    if fhd {
        let rphi = mk_buf(&mut b, nk, 40);
        let iphi = mk_buf(&mut b, nk, 41);
        let kx = mk_buf(&mut b, nk, 42);
        let ky = mk_buf(&mut b, nk, 43);
        let kz = mk_buf(&mut b, nk, 44);
        let x = mk_buf(&mut b, nx, 45);
        let y = mk_buf(&mut b, nx, 46);
        let z = mk_buf(&mut b, nx, 47);
        let rfhd = b.buffer(nx * 4, None);
        let ifhd = b.buffer(nx * 4, None);
        let k = b.prog_kernel("mri_fhd", "mri_fhd");
        for (i, buf) in [rphi, iphi, kx, ky, kz, x, y, z, rfhd, ifhd]
            .iter()
            .enumerate()
        {
            b.arg_mem(k, i as u32, *buf);
        }
        b.arg_u32(k, 10, nk as u32);
        b.arg_u32(k, 11, nx as u32);
        for _ in 0..4 {
            b.launch1(k, nx);
        }
        b.finish();
        b.read_checksum(rfhd, nx * 4);
        b.read_checksum(ifhd, nx * 4);
    } else {
        let phi = mk_buf(&mut b, nk, 50);
        let kx = mk_buf(&mut b, nk, 51);
        let ky = mk_buf(&mut b, nk, 52);
        let kz = mk_buf(&mut b, nk, 53);
        let x = mk_buf(&mut b, nx, 54);
        let y = mk_buf(&mut b, nx, 55);
        let z = mk_buf(&mut b, nx, 56);
        let qr = b.buffer(nx * 4, None);
        let qi = b.buffer(nx * 4, None);
        let k = b.prog_kernel("mri_q", "mri_q");
        for (i, buf) in [phi, kx, ky, kz, x, y, z, qr, qi].iter().enumerate() {
            b.arg_mem(k, i as u32, *buf);
        }
        b.arg_u32(k, 9, nk as u32);
        b.arg_u32(k, 10, nx as u32);
        for _ in 0..4 {
            b.launch1(k, nx);
        }
        b.finish();
        b.read_checksum(qr, nx * 4);
        b.read_checksum(qi, nx * 4);
    }
    b.build()
}

// ---------------------------------------------------------------------
// Roster
// ---------------------------------------------------------------------

macro_rules! workload {
    ($name:literal, $suite:expr, $f:expr) => {
        Workload {
            name: $name,
            suite: $suite,
            build: $f,
        }
    };
}

/// Every benchmark in figure-axis order.
pub fn all_workloads() -> Vec<Workload> {
    use Suite::*;
    vec![
        workload!("oclBandwidthTest", NvidiaSdk, ocl_bandwidth_test),
        workload!("oclBlackScholes", NvidiaSdk, ocl_black_scholes),
        workload!(
            "oclConvolutionSeparable",
            NvidiaSdk,
            ocl_convolution_separable
        ),
        workload!("oclDCT8x8", NvidiaSdk, ocl_dct8x8),
        workload!("oclDXTCompression", NvidiaSdk, ocl_dxt_compression),
        workload!("oclDotProduct", NvidiaSdk, ocl_dot_product),
        workload!("oclFDTD3d", NvidiaSdk, ocl_fdtd3d),
        workload!("oclHistogram", NvidiaSdk, ocl_histogram),
        workload!("oclMatVecMul", NvidiaSdk, ocl_matvecmul),
        workload!("oclMatrixMul", NvidiaSdk, ocl_matrixmul),
        workload!("oclMersenneTwister", NvidiaSdk, ocl_mersenne_twister),
        workload!("oclQuasirandomGenerator", NvidiaSdk, ocl_quasirandom),
        workload!("oclRadixSort", NvidiaSdk, ocl_radix_sort),
        workload!("oclReduction", NvidiaSdk, ocl_reduction),
        workload!("oclScan", NvidiaSdk, ocl_scan),
        workload!("oclSimpleMultiGPU", NvidiaSdk, ocl_simple_multi_gpu),
        workload!("oclSortingNetworks", NvidiaSdk, ocl_sorting_networks),
        workload!("oclTranspose", NvidiaSdk, ocl_transpose),
        workload!("oclVectorAdd", NvidiaSdk, ocl_vector_add),
        workload!("BusSpeedDownload", Shoc, shoc_bus_speed_download),
        workload!("BusSpeedReadback", Shoc, shoc_bus_speed_readback),
        workload!("DeviceMemory", Shoc, shoc_device_memory),
        workload!("FFT", Shoc, shoc_fft),
        workload!("KernelCompile", Shoc, shoc_kernel_compile),
        workload!("MaxFlops", Shoc, shoc_max_flops),
        workload!("MD", Shoc, shoc_md),
        workload!("QueueDelay", Shoc, shoc_queue_delay),
        workload!("Reduction", Shoc, shoc_reduction),
        workload!("S3D", Shoc, shoc_s3d),
        workload!("SGEMM", Shoc, shoc_sgemm),
        workload!("Scan", Shoc, shoc_scan),
        workload!("Sort", Shoc, shoc_sort),
        workload!("Stencil2D", Shoc, shoc_stencil2d),
        workload!("Triad", Shoc, shoc_triad),
        workload!("cp_default", Parboil, |c| parboil_cp(c)),
        workload!("mri-fhd_small", Parboil, |c| parboil_mri(c, true, false)),
        workload!("mri-fhd_large", Parboil, |c| parboil_mri(c, true, true)),
        workload!("mri-q_small", Parboil, |c| parboil_mri(c, false, false)),
        workload!("mri-q_large", Parboil, |c| parboil_mri(c, false, true)),
    ]
}

/// Look up a workload by its figure-axis name.
pub fn workload_by_name(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper_counts() {
        let all = all_workloads();
        let nv = all.iter().filter(|w| w.suite == Suite::NvidiaSdk).count();
        let shoc = all.iter().filter(|w| w.suite == Suite::Shoc).count();
        let parboil = all.iter().filter(|w| w.suite == Suite::Parboil).count();
        assert_eq!(nv, 19, "19 NVIDIA SDK samples (§IV)");
        assert_eq!(shoc, 15, "SHOC roster incl. BusSpeed*/KernelCompile");
        assert_eq!(parboil, 5, "cp + mri-fhd/mri-q in two sizes");
    }

    #[test]
    fn every_script_generates() {
        let cfg = WorkloadCfg {
            scale: 0.01,
            ..WorkloadCfg::default()
        };
        for w in all_workloads() {
            let script = w.script(&cfg);
            assert!(!script.ops.is_empty(), "{} is empty", w.name);
        }
    }

    #[test]
    fn device_memory_changes_fdtd_problem_size() {
        // The Radeon's 1 GB shrinks the problem (and later the
        // checkpoint file), as the paper observes.
        let big = ocl_fdtd3d(&WorkloadCfg {
            device_mem: ByteSize::gib(4),
            ..WorkloadCfg::default()
        });
        let small = ocl_fdtd3d(&WorkloadCfg {
            device_mem: ByteSize::gib(1),
            ..WorkloadCfg::default()
        });
        let buf_size = |s: &Script| {
            s.ops
                .iter()
                .filter_map(|o| match o {
                    Op::CreateBuffer { size, .. } => Some(*size),
                    _ => None,
                })
                .sum::<u64>()
        };
        assert!(buf_size(&big) > buf_size(&small));
    }

    #[test]
    fn chatty_workloads_have_many_launches() {
        let cfg = WorkloadCfg::default();
        let sn = workload_by_name("oclSortingNetworks").unwrap().script(&cfg);
        assert!(sn.kernel_launches() > 50, "{}", sn.kernel_launches());
        let qd = workload_by_name("QueueDelay").unwrap().script(&cfg);
        assert_eq!(qd.kernel_launches(), 64);
        let bw = workload_by_name("oclBandwidthTest").unwrap().script(&cfg);
        assert_eq!(bw.kernel_launches(), 0);
    }

    #[test]
    fn s3d_builds_27_programs() {
        let s = workload_by_name("S3D")
            .unwrap()
            .script(&WorkloadCfg::default());
        let programs = s
            .ops
            .iter()
            .filter(|o| matches!(o, Op::CreateProgram { .. }))
            .count();
        assert_eq!(programs, 27);
    }

    #[test]
    fn names_are_unique() {
        let all = all_workloads();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }
}
