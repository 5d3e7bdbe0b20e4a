//! The kernel execution engine.
//!
//! Every kernel in the corpus has a deterministic Rust implementation
//! here, operating on the resolved [`ArgData`] list. The engine is the
//! ground truth the checkpoint/restart tests verify against: a workload
//! run that is checkpointed, migrated across vendors, and resumed must
//! produce byte-identical buffers to an uninterrupted run.
//!
//! Implementations are sequential and in a fixed order, so
//! floating-point results are reproducible across runs and platforms
//! (`f32` arithmetic on the host is IEEE-754 and unaffected by the
//! virtual-time model). Each kernel reads its inputs through
//! little-endian lane views and writes each output lane straight into
//! its buffer's bytes. Every argument is validated before the first
//! write, so a failed launch leaves every buffer as it was.
//!
//! A kernel rewritten for speed keeps each output lane's floating-point
//! operations and their order, so its output stays bit-exact: a value
//! hoisted out of a loop into a table comes from the same expression
//! (the DCT's cosines) or one equal to it bit for bit (the FFT's
//! twiddles); a compute-bound kernel may carry many outputs through one
//! pass over its input, decoded into lanes once; and a work skip (a
//! sorted buffer is its own sort) or an integer shortcut
//! (`quasirandom`'s truncation for `floor`) holds for every input. Each
//! rewrite is tested against a copy of the loop it replaced.

use crate::args::{ArgData, ExecError};
use crate::cost::CostSpec;
use crate::f32util::{
    clamped_rows, f32_at, f32s, put_f32s, put_u32s, set_f32, swap_lanes, u32_at, u32s,
};

/// Outputs a compute-bound kernel carries through one pass over its
/// shared input, each in its own accumulator: wide enough for packed
/// `sqrt`, `div` and `mul`, and short enough to stay in registers.
const LANES: usize = 8;

/// A kernel's body: it validates its arguments, then writes its
/// outputs in place.
type Body = fn(&mut [ArgData]) -> Result<(), ExecError>;

/// A kernel's rerun safety, as [`KernelEntry::rerun_safe`] gives it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Rerun {
    /// Rerun-safe: every output lane is computed from buffers the
    /// kernel does not write (or a constant), or the kernel is an
    /// in-place pass whose result is its own fixpoint (a sort, one
    /// bitonic compare-exchange pass).
    Safe,
    /// The kernel reads lanes it writes, so a second run moves them.
    Unsafe,
}

use Rerun::{Safe, Unsafe};

/// Every kernel of the corpus but the `rate_<k>` family: its name, its
/// body, whether it is rerun-safe, and its per-work-item `(flops,
/// bytes)` before [`CostSpec::scaled`].
#[rustfmt::skip]
const KERNELS: &[(&str, Body, Rerun, (f64, f64))] = &[
    ("vec_add", k_vec_add, Safe, (2_500.0, 192.0)),
    ("triad", k_triad, Safe, (2_000.0, 256.0)),
    ("copy_buf", k_copy_buf, Safe, (0.0, 2_000.0)),
    ("null_kernel", k_null, Safe, (0.0, 0.0)),
    // Iterates each lane from its own value. Deliberately compute-bound
    // and long-running: the benchmark whose checkpoint is dominated by
    // the synchronisation phase in Fig. 5.
    ("max_flops", k_max_flops, Unsafe, (100_000.0, 8.0)),
    ("reduce_sum", k_reduce_sum, Safe, (14_000.0, 64.0)),
    ("scan_exclusive", k_scan_exclusive, Safe, (140_000.0, 128.0)),
    // After one pass every pair is in order, so a second swaps none but
    // equal keys.
    ("bitonic_sort", k_bitonic_sort, Safe, (900_000.0, 256.0)),
    ("radix_sort", k_radix_sort, Safe, (40_000.0, 512.0)),
    ("transpose", k_transpose, Safe, (0.0, 2_000.0)),
    // Zeroes `c` before it accumulates into it.
    ("matmul", k_matmul, Safe, (2_300_000.0, 4_096.0)),
    // Adds `beta * c` to a product it writes back into `c`.
    ("sgemm", k_sgemm, Unsafe, (2_300_000.0, 4_096.0)),
    ("matvec", k_matvec, Safe, (36_000_000.0, 8_192.0)),
    ("black_scholes", k_black_scholes, Safe, (110_000.0, 448.0)),
    ("dot_product", k_dot_product, Safe, (300_000.0, 576.0)),
    ("conv_rows", |args| k_conv(args, true), Safe, (110_000.0, 320.0)),
    ("conv_cols", |args| k_conv(args, false), Safe, (110_000.0, 320.0)),
    ("dct8x8", k_dct8x8, Safe, (430_000.0, 128.0)),
    ("dxt_compress", k_dxt_compress, Safe, (4_500_000.0, 1_152.0)),
    ("histogram64", k_histogram64, Safe, (20_000.0, 128.0)),
    ("mersenne_twister", k_mersenne_twister, Safe, (7_000_000.0, 1_088.0)),
    ("quasirandom", k_quasirandom, Safe, (15_000.0, 64.0)),
    ("fdtd3d", k_fdtd3d, Safe, (40_000.0, 512.0)),
    ("stencil2d", k_stencil2d, Safe, (50_000.0, 640.0)),
    ("md_forces", k_md_forces, Safe, (1_500_000.0, 3_520.0)),
    // Transforms its signal in place.
    ("fft_radix2", k_fft_radix2, Unsafe, (350_000.0, 256.0)),
    ("cp_potential", k_cp_potential, Safe, (400_000.0, 64.0)),
    ("mri_fhd", k_mri_fhd, Safe, (50_000_000.0, 128.0)),
    ("mri_q", k_mri_q, Safe, (40_000_000.0, 128.0)),
    ("sampler_scale", k_sampler_scale, Safe, (1_000.0, 64.0)),
    ("consume", k_consume, Safe, (100.0, 16.0)),
    ("image_scale", k_image_scale, Safe, (2_000.0, 512.0)),
];

/// A corpus kernel, looked up by name: how to run it, whether a
/// relaunch may be skipped, and what one work item costs.
#[derive(Clone, Copy, Debug)]
pub struct KernelEntry {
    body: Run,
    /// Whether the kernel is rerun-safe: two successful runs over the
    /// same buffers and scalars, each buffer bound once, leave every
    /// buffer byte as one run does. A relaunch of such a kernel over
    /// buffers nothing has written since its last run may be skipped,
    /// bit-exact.
    pub rerun_safe: bool,
    /// What one work item costs.
    pub cost: CostSpec,
}

#[derive(Clone, Copy, Debug)]
enum Run {
    Table(Body),
    /// S3D's reaction-rate kernel `rate_<k>`.
    Rate(u32),
}

impl KernelEntry {
    /// Run the kernel over `args`. Buffer arguments are mutated in
    /// place.
    pub fn run(&self, args: &mut [ArgData]) -> Result<(), ExecError> {
        match self.body {
            Run::Table(body) => body(args),
            Run::Rate(k) => k_s3d_rate(k, args),
        }
    }
}

/// The corpus kernel called `name`, or `None` for an unknown name.
pub fn lookup(name: &str) -> Option<KernelEntry> {
    let (body, rerun, (flops, bytes)) = match name.strip_prefix("rate_") {
        // A short polynomial per item, but evaluated for a full
        // chemistry grid; every `k` computes its rates from a state it
        // only reads.
        Some(k) => (Run::Rate(k.parse().ok()?), Safe, (200_000.0, 64.0)),
        None => {
            let &(_, body, rerun, cost) = KERNELS.iter().find(|&&(n, ..)| n == name)?;
            (Run::Table(body), rerun, cost)
        }
    };
    Some(KernelEntry {
        body,
        rerun_safe: rerun == Safe,
        cost: CostSpec::scaled(flops, bytes),
    })
}

/// Execute kernel `name` with the given arguments. Each kernel takes
/// its problem size from its arguments; buffer arguments are mutated in
/// place.
pub fn execute(name: &str, args: &mut [ArgData]) -> Result<(), ExecError> {
    lookup(name)
        .ok_or_else(|| ExecError::UnknownKernel(name.to_string()))?
        .run(args)
}

/// The arguments of a kernel that takes exactly `N`, each borrowable
/// on its own.
fn arity<const N: usize>(args: &mut [ArgData]) -> Result<&mut [ArgData; N], ExecError> {
    let got = args.len();
    args.try_into()
        .map_err(|_| ExecError::ArgCount { expected: N, got })
}

fn check_len(arg_index: usize, buf: &[u8], needed: usize) -> Result<(), ExecError> {
    if buf.len() < needed {
        return Err(ExecError::BufferTooSmall {
            arg_index,
            needed,
            actual: buf.len(),
        });
    }
    Ok(())
}

/// The first `needed` bytes of buffer argument `arg_index`, to read.
fn input(arg_index: usize, arg: &ArgData, needed: usize) -> Result<&[u8], ExecError> {
    let buf = arg.buffer()?;
    check_len(arg_index, buf, needed)?;
    Ok(&buf[..needed])
}

/// The first `needed` bytes of buffer argument `arg_index`, to write.
fn output(arg_index: usize, arg: &mut ArgData, needed: usize) -> Result<&mut [u8], ExecError> {
    let buf = arg.buffer_mut()?;
    check_len(arg_index, buf, needed)?;
    Ok(&mut buf[..needed])
}

/// Require an opaque by-value argument of exactly `len` bytes.
fn expect_blob(arg: &ArgData, len: usize, expected: &'static str) -> Result<(), ExecError> {
    match arg {
        ArgData::Scalar(b) if b.len() == len => Ok(()),
        _ => Err(ExecError::ArgType {
            expected,
            got: "other",
        }),
    }
}

// ---------------------------------------------------------------------
// Streaming / memory kernels
// ---------------------------------------------------------------------

fn k_vec_add(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [a, b, c, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let (a, b) = (input(0, a, n * 4)?, input(1, b, n * 4)?);
    let c = output(2, c, n * 4)?;
    put_f32s(c, f32s(a).zip(f32s(b)).map(|(a, b)| a + b));
    Ok(())
}

fn k_triad(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [a, b, c, s, n] = arity(args)?;
    let s = s.scalar_f32()?;
    let n = n.scalar_u32()? as usize;
    let a = output(0, a, n * 4)?;
    let (b, c) = (input(1, b, n * 4)?, input(2, c, n * 4)?);
    put_f32s(a, f32s(b).zip(f32s(c)).map(|(b, c)| b + s * c));
    Ok(())
}

fn k_copy_buf(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [src, dst, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let src = input(0, src, n * 4)?;
    output(1, dst, n * 4)?.copy_from_slice(src);
    Ok(())
}

fn k_null(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [buf] = arity(args)?;
    buf.buffer()?;
    Ok(())
}

fn k_max_flops(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [data, n, iters] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let iters = iters.scalar_u32()?;
    let data = output(0, data, n * 4)?;
    // Each lane iterates on its own value, so a block of lanes steps
    // together: iterations outer, lanes inner. A step's multiply and add
    // wait on the step before, and 64 lanes keep enough of those chains
    // in flight to cover that wait. Lanes past `n` in the last block are
    // never stored.
    const BLOCK: usize = 64;
    for block in data.chunks_mut(4 * BLOCK) {
        let mut v = [0.0f32; BLOCK];
        for (v, lane) in v.iter_mut().zip(f32s(block)) {
            *v = lane;
        }
        for _ in 0..iters {
            for v in &mut v {
                *v = *v * 1.000_001 + 0.000_000_1;
            }
        }
        put_f32s(block, v);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Reductions, scans and sorts
// ---------------------------------------------------------------------

fn k_reduce_sum(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [input_arg, out, scratch, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let data = input(0, input_arg, n * 4)?;
    let out = output(1, out, 4)?;
    if !matches!(scratch, ArgData::Local(_)) {
        return Err(ExecError::ArgType {
            expected: "local scratch",
            got: scratch.kind_name(),
        });
    }
    set_f32(out, 0, f32s(data).sum());
    Ok(())
}

fn k_scan_exclusive(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [input_arg, out, _scratch, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let data = input(0, input_arg, n * 4)?;
    let out = output(1, out, n * 4)?;
    let mut acc = 0.0f32;
    put_f32s(
        out,
        f32s(data).map(|v| {
            let before = acc;
            acc += v;
            before
        }),
    );
    Ok(())
}

fn k_bitonic_sort(args: &mut [ArgData]) -> Result<(), ExecError> {
    // One compare-exchange pass of the bitonic network; the benchmark
    // launches O(log² n) of these — making oclSortingNetworks one of the
    // "API-chatty" programs whose proxy overhead Fig. 4 highlights.
    let [keys, n, stage, pass] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let stage = stage.scalar_u32()?;
    let pass = pass.scalar_u32()?;
    let keys = output(0, keys, n * 4)?;
    let block = 1usize << (stage + 1);
    let dist = 1usize << pass;
    for i in 0..n {
        let partner = i ^ dist;
        if partner > i && partner < n {
            let ascending = (i & block) == 0;
            if (u32_at(keys, i) > u32_at(keys, partner)) == ascending {
                swap_lanes(keys, i, partner);
            }
        }
    }
    Ok(())
}

fn k_radix_sort(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [buf, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let buf = output(0, buf, n * 4)?;
    // oclRadixSort and SHOC Sort launch the sort repeatedly on one
    // buffer, so most launches find it sorted already, and a sorted
    // buffer is its own sort.
    let Some(mut keys) = unsorted_keys(buf) else {
        return Ok(());
    };
    // LSD radix, 8 bits per pass — the actual algorithm, not a stand-in.
    // Every pass permutes the whole array, so the keys are decoded once.
    // A pass only permutes, so one sweep counts all four digits.
    let mut aux = vec![0u32; n];
    let mut counts = [[0usize; 256]; 4];
    for &k in &keys {
        for (pass, c) in counts.iter_mut().enumerate() {
            c[((k >> (8 * pass)) & 0xff) as usize] += 1;
        }
    }
    for (shift, counts) in [0u32, 8, 16, 24].into_iter().zip(&counts) {
        let mut offsets = [0usize; 256];
        let mut acc = 0;
        for (o, c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        for &k in &keys {
            let d = ((k >> shift) & 0xff) as usize;
            aux[offsets[d]] = k;
            offsets[d] += 1;
        }
        std::mem::swap(&mut keys, &mut aux);
    }
    put_u32s(buf, keys);
    Ok(())
}

/// The `u32` keys of `buf`, or `None` when they are already in
/// non-decreasing order. The order check stops at the first descent,
/// so unsorted keys cost it a few lanes and sorted ones no allocation.
fn unsorted_keys(buf: &[u8]) -> Option<Vec<u32>> {
    let mut lanes = u32s(buf);
    let first = lanes.next()?;
    let sorted = lanes.try_fold(first, |prev, k| (prev <= k).then_some(k));
    sorted.is_none().then(|| u32s(buf).collect())
}

// ---------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------

fn k_transpose(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [src, dst, w, h] = arity(args)?;
    let w = w.scalar_u32()? as usize;
    let h = h.scalar_u32()? as usize;
    let src = input(0, src, w * h * 4)?;
    let dst = output(1, dst, w * h * 4)?;
    for y in 0..h {
        for x in 0..w {
            set_f32(dst, x * h + y, f32_at(src, y * w + x));
        }
    }
    Ok(())
}

/// `c = alpha * a·b + beta * c`, with `c` read and written in place.
#[allow(clippy::too_many_arguments)] // the BLAS gemm signature
fn gemm_core(
    a: &[u8],
    b: &[u8],
    c: &mut [u8],
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
) {
    for row in 0..m {
        for col in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += f32_at(a, row * k + l) * f32_at(b, l * n + col);
            }
            let i = row * n + col;
            set_f32(c, i, alpha * acc + beta * f32_at(c, i));
        }
    }
}

fn k_matmul(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [a, b, c, m, n, k] = arity(args)?;
    let m = m.scalar_u32()? as usize;
    let n = n.scalar_u32()? as usize;
    let k = k.scalar_u32()? as usize;
    let (a, b) = (input(0, a, m * k * 4)?, input(1, b, k * n * 4)?);
    let c = output(2, c, m * n * 4)?;
    // Zeroed first, so `0.0 * c` adds nothing whatever `c` held.
    c.fill(0);
    gemm_core(a, b, c, m, n, k, 1.0, 0.0);
    Ok(())
}

fn k_sgemm(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [a, b, c, m, n, k, alpha, beta] = arity(args)?;
    let m = m.scalar_u32()? as usize;
    let n = n.scalar_u32()? as usize;
    let k = k.scalar_u32()? as usize;
    let alpha = alpha.scalar_f32()?;
    let beta = beta.scalar_f32()?;
    let (a, b) = (input(0, a, m * k * 4)?, input(1, b, k * n * 4)?);
    let c = output(2, c, m * n * 4)?;
    gemm_core(a, b, c, m, n, k, alpha, beta);
    Ok(())
}

fn k_matvec(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [mat, vec, out, rows, cols] = arity(args)?;
    let rows = rows.scalar_u32()? as usize;
    let cols = cols.scalar_u32()? as usize;
    let mat = input(0, mat, rows * cols * 4)?;
    let vec = input(1, vec, cols * 4)?;
    let out = output(2, out, rows * 4)?;
    put_f32s(
        out,
        (0..rows).map(|r| {
            let row = &mat[r * cols * 4..(r + 1) * cols * 4];
            f32s(row).zip(f32s(vec)).map(|(m, v)| m * v).sum()
        }),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Finance / math kernels
// ---------------------------------------------------------------------

/// `(cnd(d), cnd(-d))` of the cumulative normal distribution, from one
/// `exp`: `k`, `poly` and `w` depend on `d` only through `|d|` and
/// `d * d`, so both values share them bit for bit, and only the sign
/// of `d` picks which one is `1 - w`.
fn cnd_pair(d: f32) -> (f32, f32) {
    const A1: f32 = 0.319_381_53;
    const A2: f32 = -0.356_563_78;
    const A3: f32 = 1.781_477_9;
    const A4: f32 = -1.821_256;
    const A5: f32 = 1.330_274_4;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let w = 1.0 - 0.398_942_3 * (-0.5 * d * d).exp() * poly;
    if d < 0.0 {
        (1.0 - w, w)
    } else if d > 0.0 {
        (w, 1.0 - w)
    } else {
        // ±0 and NaN: neither `d` nor `-d` is below zero.
        (w, w)
    }
}

fn k_black_scholes(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [call, put, s, x, t, r, v, n] = arity(args)?;
    let r = r.scalar_f32()?;
    let v = v.scalar_f32()?;
    let n = n.scalar_u32()? as usize;
    let call = output(0, call, n * 4)?;
    let put = output(1, put, n * 4)?;
    let s = input(2, s, n * 4)?;
    let x = input(3, x, n * 4)?;
    let t = input(4, t, n * 4)?;
    for (i, ((s, x), t)) in f32s(s).zip(f32s(x)).zip(f32s(t)).enumerate() {
        let sq = t.sqrt();
        let d1 = ((s / x).ln() + (r + 0.5 * v * v) * t) / (v * sq);
        let d2 = d1 - v * sq;
        let e = x * (-r * t).exp();
        let ((cnd_d1, cnd_neg_d1), (cnd_d2, cnd_neg_d2)) = (cnd_pair(d1), cnd_pair(d2));
        set_f32(call, i, s * cnd_d1 - e * cnd_d2);
        set_f32(put, i, e * cnd_neg_d2 - s * cnd_neg_d1);
    }
    Ok(())
}

fn k_dot_product(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [a, b, c, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let (a, b) = (input(0, a, n * 16)?, input(1, b, n * 16)?);
    let c = output(2, c, n * 4)?;
    let dots = a.chunks_exact(16).zip(b.chunks_exact(16));
    put_f32s(
        c,
        dots.map(|(a, b)| f32s(a).zip(f32s(b)).map(|(a, b)| a * b).sum()),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Image / stencil kernels
// ---------------------------------------------------------------------

fn k_conv(args: &mut [ArgData], rows: bool) -> Result<(), ExecError> {
    let [src, dst, filter, w, h, radius] = arity(args)?;
    let w = w.scalar_u32()? as usize;
    let h = h.scalar_u32()? as usize;
    let radius = radius.scalar_u32()? as i64;
    let src = input(0, src, w * h * 4)?;
    let dst = output(1, dst, w * h * 4)?;
    let filter = input(2, filter, (2 * radius as usize + 1) * 4)?;
    if w * h == 0 {
        return Ok(());
    }
    // A whole row of pixels per pass, each summing its taps in order
    // into its own accumulator. A row pass reads tap `k` of pixel `x`
    // from lane `x + k` of its row widened by `radius` clamped lanes
    // either side (one row at a time, so a wide radius costs one wide
    // row); a column pass reads lane `x` of the clamped row `y + k`.
    let taps: Vec<f32> = f32s(filter).collect();
    let r = radius as usize;
    let lanes: Vec<f32> = if rows {
        Vec::new()
    } else {
        f32s(src).collect()
    };
    let mut acc = vec![0.0f32; w];
    let rows_in = src.chunks_exact(4 * w).zip(dst.chunks_exact_mut(4 * w));
    for (y, (src_row, dst_row)) in rows_in.enumerate() {
        let padded = if rows {
            clamped_rows(src_row, w, r)
        } else {
            Vec::new()
        };
        acc.fill(0.0);
        for (k, &tap) in taps.iter().enumerate() {
            let from = if rows {
                &padded[k..k + w]
            } else {
                &lanes[(y + k).saturating_sub(r).min(h - 1) * w..][..w]
            };
            for (a, &v) in acc.iter_mut().zip(from) {
                *a += v * tap;
            }
        }
        put_f32s(dst_row, acc.iter().copied());
    }
    Ok(())
}

fn k_dct8x8(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [src, dst, w, h] = arity(args)?;
    let w = w.scalar_u32()? as usize;
    let h = h.scalar_u32()? as usize;
    let src = input(0, src, w * h * 4)?;
    let dst = output(1, dst, w * h * 4)?;
    // Pixels outside whole 8x8 blocks come out zero.
    dst.fill(0);
    let bw = w / 8;
    let bh = h / 8;
    let pi = std::f32::consts::PI;
    // `cos[u][x]`, the DCT-II basis. The sums multiply
    // `px * cos[u][ix] * cos[v][iy]` left to right; that order fixes
    // their rounding.
    let cos: [[f32; 8]; 8] = std::array::from_fn(|u| {
        std::array::from_fn(|x| ((2 * x + 1) as f32 * u as f32 * pi / 16.0).cos())
    });
    for by in 0..bh {
        for bx in 0..bw {
            let block: [[f32; 8]; 8] = std::array::from_fn(|iy| {
                std::array::from_fn(|ix| f32_at(src, (by * 8 + iy) * w + bx * 8 + ix))
            });
            for u in 0..8 {
                for v in 0..8 {
                    let cu = if u == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
                    let cv = if v == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
                    let mut acc = 0.0f32;
                    for (iy, row) in block.iter().enumerate() {
                        for (ix, &px) in row.iter().enumerate() {
                            acc += px * cos[u][ix] * cos[v][iy];
                        }
                    }
                    set_f32(dst, (by * 8 + v) * w + bx * 8 + u, 0.25 * cu * cv * acc);
                }
            }
        }
    }
    Ok(())
}

fn k_dxt_compress(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [src, dst, w, h] = arity(args)?;
    let w = w.scalar_u32()? as usize;
    let h = h.scalar_u32()? as usize;
    let n = w * h;
    let blocks = n / 16;
    let src = input(0, src, n * 4)?;
    let dst = output(1, dst, blocks * 8)?;
    for (block, ends) in src.chunks_exact(64).zip(dst.chunks_exact_mut(8)) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for px in f32s(block) {
            lo = lo.min(px);
            hi = hi.max(px);
        }
        put_f32s(ends, [lo, hi]);
    }
    Ok(())
}

fn k_histogram64(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [data, out, _scratch, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let data = input(0, data, n * 4)?;
    let out = output(1, out, 64 * 4)?;
    let mut hist = [0u32; 64];
    for v in f32s(data) {
        let bin = ((v * 64.0) as i64).clamp(0, 63) as usize;
        hist[bin] += 1;
    }
    put_u32s(out, hist);
    Ok(())
}

fn k_fdtd3d(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [src, dst, dx, dy, dz] = arity(args)?;
    let dx = dx.scalar_u32()? as usize;
    let dy = dy.scalar_u32()? as usize;
    let dz = dz.scalar_u32()? as usize;
    let n = dx * dy * dz;
    let src = input(0, src, n * 4)?;
    let dst = output(1, dst, n * 4)?;
    if n == 0 {
        return Ok(());
    }
    // A whole x row per pass. Each row is widened by one clamped lane
    // either side, so `x - 1`, `x` and `x + 1` of row `(y, z)` are its
    // lanes `x`, `x + 1` and `x + 2`; the four other neighbours are the
    // clamped rows' lane `x + 1`.
    let rows = clamped_rows(src, dx, 1);
    let pitch = dx + 2;
    let row = |y: usize, z: usize| &rows[(z * dy + y) * pitch..][..pitch];
    let mut out = vec![0.0f32; dx];
    for (yz, dst_row) in dst.chunks_exact_mut(4 * dx).enumerate() {
        let (y, z) = (yz % dy, yz / dy);
        let c = row(y, z);
        let ym = &row(y.saturating_sub(1), z)[1..];
        let yp = &row((y + 1).min(dy - 1), z)[1..];
        let zm = &row(y, z.saturating_sub(1))[1..];
        let zp = &row(y, (z + 1).min(dz - 1))[1..];
        for (x, o) in out.iter_mut().enumerate() {
            let (xm, xp) = (c[x], c[x + 2]);
            *o = 0.4 * c[x + 1] + 0.1 * (xm + xp + ym[x] + yp[x] + zm[x] + zp[x]);
        }
        put_f32s(dst_row, out.iter().copied());
    }
    Ok(())
}

fn k_stencil2d(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [src, dst, w, h] = arity(args)?;
    let w = w.scalar_u32()? as usize;
    let h = h.scalar_u32()? as usize;
    let src = input(0, src, w * h * 4)?;
    let dst = output(1, dst, w * h * 4)?;
    if w * h == 0 {
        return Ok(());
    }
    // A whole row per pass: rows `y - 1`, `y` and `y + 1`, clamped, each
    // widened by one clamped lane either side, so the taps of pixel `x`
    // are lanes `x`, `x + 1` and `x + 2` of each, summed in that order.
    const WEIGHTS: [[f32; 3]; 3] = [[0.0625; 3], [0.0625, 0.5, 0.0625], [0.0625; 3]];
    let rows = clamped_rows(src, w, 1);
    let pitch = w + 2;
    let row = |y: usize| &rows[y * pitch..][..pitch];
    let mut out = vec![0.0f32; w];
    for (y, dst_row) in dst.chunks_exact_mut(4 * w).enumerate() {
        let near = [row(y.saturating_sub(1)), row(y), row((y + 1).min(h - 1))];
        for (x, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (r, weights) in near.iter().zip(&WEIGHTS) {
                for (d, &wgt) in weights.iter().enumerate() {
                    acc += r[x + d] * wgt;
                }
            }
            *o = acc;
        }
        put_f32s(dst_row, out.iter().copied());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Physics / simulation kernels
// ---------------------------------------------------------------------

fn k_md_forces(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [pos, force, n, cutoff] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let cutoff = cutoff.scalar_f32()?;
    let pos = input(0, pos, n * 12)?;
    let force = output(1, force, n * 12)?;
    let cutoff2 = cutoff * cutoff;
    // Neighbour-window Lennard-Jones: deterministic and O(n). Atom `i`
    // sums over `j` from `i - WINDOW` to `i + WINDOW` in order, skipping
    // itself, atoms outside `0..n` and those beyond the cutoff.
    const WINDOW: usize = 8;
    // `LANES` atoms per pass, with each coordinate decoded into its own
    // array behind `WINDOW` lanes of padding, so atom `i`'s neighbour
    // `i + d - WINDOW` sits at `i + d`. A skipped neighbour adds `+0.0`,
    // which leaves an accumulator that starts at `+0.0` bit-identical.
    let lanes: Vec<f32> = f32s(pos).collect();
    let coord = |c: usize| {
        let mut v = vec![0.0f32; WINDOW];
        v.extend(lanes.iter().skip(c).step_by(3));
        v.resize(n + 2 * WINDOW + LANES, 0.0);
        v
    };
    let xyz = [coord(0), coord(1), coord(2)];
    for (block, out) in force.chunks_mut(12 * LANES).enumerate() {
        let i0 = block * LANES;
        let at =
            |c: usize, d: usize| -> [f32; LANES] { xyz[c][i0 + d..][..LANES].try_into().unwrap() };
        let (xi, yi, zi) = (at(0, WINDOW), at(1, WINDOW), at(2, WINDOW));
        let mut f = [[0.0f32; LANES]; 3];
        for d in (0..=2 * WINDOW).filter(|&d| d != WINDOW) {
            let (xj, yj, zj) = (at(0, d), at(1, d), at(2, d));
            // Lanes `lo..hi` are atoms whose neighbour is in `0..n`.
            let lo = WINDOW.saturating_sub(i0 + d).min(LANES) as u32;
            let hi = (n + WINDOW).saturating_sub(i0 + d).min(n - i0).min(LANES) as u32;
            for l in 0..LANES {
                let in_range = (lo..hi).contains(&(l as u32));
                let dx = xi[l] - xj[l];
                let dy = yi[l] - yj[l];
                let dz = zi[l] - zj[l];
                let r2 = (dx * dx + dy * dy + dz * dz).max(0.01);
                let inv_r2 = 1.0 / r2;
                let inv_r6 = inv_r2 * inv_r2 * inv_r2;
                let s = 24.0 * inv_r2 * inv_r6 * (2.0 * inv_r6 - 1.0);
                let beyond_cutoff = r2 > cutoff2;
                let (tx, ty, tz) = if in_range && !beyond_cutoff {
                    (s * dx, s * dy, s * dz)
                } else {
                    (0.0, 0.0, 0.0)
                };
                f[0][l] += tx;
                f[1][l] += ty;
                f[2][l] += tz;
            }
        }
        put_f32s(out, (0..LANES).flat_map(|l| [f[0][l], f[1][l], f[2][l]]));
    }
    Ok(())
}

fn k_fft_radix2(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [re, im, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    if n == 0 || !n.is_power_of_two() {
        return Err(ExecError::ArgType {
            expected: "power-of-two n",
            got: "non-power-of-two n",
        });
    }
    let re = output(0, re, n * 4)?;
    let im = output(1, im, n * 4)?;
    // Bit-reversal permutation. At n = 1 an index has no bits, and
    // the shift by the full word width is checked, not wrapped.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i
            .reverse_bits()
            .checked_shr(usize::BITS - bits)
            .unwrap_or(0);
        if j > i {
            swap_lanes(re, i, j);
            swap_lanes(im, i, j);
        }
    }
    // Iterative Cooley-Tukey over one twiddle table, the last stage's.
    // Stage `len` takes every `n / len`-th entry: its angle
    // `-2π/len · k` equals `-2π/n · (k · n/len)` bit for bit, since the
    // two differ only by powers of two in each factor.
    let ang = -2.0 * std::f32::consts::PI / n as f32;
    let twiddles: Vec<(f32, f32)> = (0..n / 2)
        .map(|k| ((ang * k as f32).cos(), (ang * k as f32).sin()))
        .collect();
    let mut len = 2;
    while len <= n {
        for start in (0..n).step_by(len) {
            for (k, &(wr, wi)) in twiddles.iter().step_by(n / len).enumerate() {
                let (i, j) = (start + k, start + k + len / 2);
                let (rj, ij) = (f32_at(re, j), f32_at(im, j));
                let (tr, ti) = (rj * wr - ij * wi, rj * wi + ij * wr);
                let (ri, ii) = (f32_at(re, i), f32_at(im, i));
                set_f32(re, j, ri - tr);
                set_f32(im, j, ii - ti);
                set_f32(re, i, ri + tr);
                set_f32(im, i, ii + ti);
            }
        }
        len <<= 1;
    }
    Ok(())
}

fn k_s3d_rate(k: u32, args: &mut [ArgData]) -> Result<(), ExecError> {
    let [state, rates, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let state = input(0, state, n * 4)?;
    let rates = output(1, rates, n * 4)?;
    let (c0, c1, c2) = ((k + 1) as f32, (k + 2) as f32, (k + 3) as f32);
    put_f32s(rates, f32s(state).map(|t| c0 + c1 * t + c2 * t * t));
    Ok(())
}

fn k_cp_potential(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [atoms, grid, natoms, gw, gh] = arity(args)?;
    let natoms = natoms.scalar_u32()? as usize;
    let gw = gw.scalar_u32()? as usize;
    let gh = gh.scalar_u32()? as usize;
    let atoms = input(0, atoms, natoms * 16)?;
    let grid = output(1, grid, gw * gh * 4)?;
    if gw * gh == 0 {
        return Ok(());
    }
    // `LANES` grid points of a row per pass over the atoms, each summing
    // the atoms in order; lanes past the row's end are never stored.
    let atoms: Vec<[f32; 4]> = atoms
        .chunks_exact(16)
        .map(|a| std::array::from_fn(|c| f32_at(a, c)))
        .collect();
    for (gy, row) in grid.chunks_exact_mut(4 * gw).enumerate() {
        for (block, out) in row.chunks_mut(4 * LANES).enumerate() {
            let gx: [f32; LANES] = std::array::from_fn(|l| (block * LANES + l) as f32);
            let mut acc = [0.0f32; LANES];
            for &[ax, ay, dz, q] in &atoms {
                let dy = ay - gy as f32;
                for (acc, &gx) in acc.iter_mut().zip(&gx) {
                    let dx = ax - gx;
                    *acc += q / (dx * dx + dy * dy + dz * dz + 1.0).sqrt();
                }
            }
            put_f32s(out, acc);
        }
    }
    Ok(())
}

/// MRI reconstruction over `p` phase inputs (real and imaginary for
/// FHd, one magnitude for Q), then kx, ky, kz (nk long) and x, y, z (nx
/// long), two nx-long outputs, nk and nx.
fn mri_core(args: &mut [ArgData], p: usize) -> Result<(), ExecError> {
    let nk = args[p + 8].scalar_u32()? as usize;
    let nx = args[p + 9].scalar_u32()? as usize;
    let (ins, outs) = args.split_at_mut(p + 6);
    let ins: Vec<&[u8]> = (ins.iter().enumerate())
        .map(|(i, a)| input(i, a, if i < p + 3 { nk * 4 } else { nx * 4 }))
        .collect::<Result<_, _>>()?;
    let [re_out, im_out, ..] = outs else {
        unreachable!("arity checked by the caller")
    };
    let re_out = output(p + 6, re_out, nx * 4)?;
    let im_out = output(p + 7, im_out, nx * 4)?;
    // Each k-space sample decoded once, with a zero imaginary phase for
    // Q, which never reads it.
    let lanes: Vec<Vec<f32>> = ins.iter().map(|b| f32s(b).collect()).collect();
    let samples: Vec<[f32; 5]> = (0..nk)
        .map(|k| {
            let im = if p == 2 { lanes[1][k] } else { 0.0 };
            [
                lanes[0][k],
                im,
                lanes[p][k],
                lanes[p + 1][k],
                lanes[p + 2][k],
            ]
        })
        .collect();
    let [x, y, z] = [&lanes[p + 3], &lanes[p + 4], &lanes[p + 5]];
    let tau = 2.0 * std::f32::consts::PI;
    // `LANES` voxels per pass over k-space, each summing the samples in
    // order; lanes past `nx` are never stored.
    let blocks = re_out
        .chunks_mut(4 * LANES)
        .zip(im_out.chunks_mut(4 * LANES));
    for (block, (re_block, im_block)) in blocks.enumerate() {
        let voxel = |c: &[f32]| -> [f32; LANES] {
            std::array::from_fn(|l| c.get(block * LANES + l).copied().unwrap_or(0.0))
        };
        let (xs, ys, zs) = (voxel(x), voxel(y), voxel(z));
        let (mut rr, mut ii) = ([0.0f32; LANES], [0.0f32; LANES]);
        for &[re, im, kx, ky, kz] in &samples {
            for l in 0..LANES {
                let e = tau * (kx * xs[l] + ky * ys[l] + kz * zs[l]);
                let (s, c) = e.sin_cos();
                if p == 2 {
                    rr[l] += re * c - im * s;
                    ii[l] += im * c + re * s;
                } else {
                    rr[l] += re * c;
                    ii[l] += re * s;
                }
            }
        }
        put_f32s(re_block, rr);
        put_f32s(im_block, ii);
    }
    Ok(())
}

fn k_mri_fhd(args: &mut [ArgData]) -> Result<(), ExecError> {
    mri_core(arity::<12>(args)?, 2)
}

fn k_mri_q(args: &mut [ArgData]) -> Result<(), ExecError> {
    mri_core(arity::<11>(args)?, 1)
}

// ---------------------------------------------------------------------
// Miscellaneous
// ---------------------------------------------------------------------

fn k_mersenne_twister(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [seeds, out, n, per] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let per = per.scalar_u32()? as usize;
    let seeds = input(0, seeds, n * 4)?;
    let out = output(1, out, n * per * 4)?;
    let mut lanes = out.chunks_exact_mut(4);
    for mut state in u32s(seeds) {
        for lane in lanes.by_ref().take(per) {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            lane.copy_from_slice(&((state >> 8) as f32 / 16_777_216.0).to_le_bytes());
        }
    }
    Ok(())
}

fn k_quasirandom(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [out, n] = arity(args)?;
    let n = n.scalar_u32()?;
    let out = output(0, out, n as usize * 4)?;
    put_f32s(out, (0..n).map(quasirandom_lane));
    Ok(())
}

/// Lane `i` of the golden-ratio sequence: the fractional part of
/// `i * PHI`. `v` lies in `[0, 2^32)`, where truncation to `i64` is
/// exact and equals `v.floor()`, without a libm call.
fn quasirandom_lane(i: u32) -> f32 {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let v = i as f64 * PHI;
    (v - (v as i64) as f64) as f32
}

fn k_sampler_scale(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [out, sampler, n] = arity(args)?;
    let n = n.scalar_u32()? as usize;
    let out = output(0, out, n * 4)?;
    // The sampler handle arrives as an 8-byte opaque scalar; its value
    // does not affect the computation (as with a real const sampler).
    expect_blob(sampler, 8, "8-byte sampler handle")?;
    put_f32s(out, (0..n).map(|i| i as f32 * 0.5));
    Ok(())
}

fn k_image_scale(args: &mut [ArgData]) -> Result<(), ExecError> {
    let [img, sampler, out, w, h] = arity(args)?;
    let w = w.scalar_u32()? as usize;
    let h = h.scalar_u32()? as usize;
    expect_blob(sampler, 8, "8-byte sampler handle")?;
    let img = input(0, img, w * h * 4)?;
    let out = output(2, out, w * h * 4)?;
    put_f32s(out, f32s(img).map(|v| v * 2.0));
    Ok(())
}

fn k_consume(args: &mut [ArgData]) -> Result<(), ExecError> {
    // Takes a by-value struct (opaque 16-byte blob holding a device
    // pointer the driver has already validated) plus an output buffer.
    let [blob, out] = arity(args)?;
    expect_blob(blob, 16, "16-byte struct")?;
    let out = out.buffer_mut()?;
    if out.len() >= 4 {
        set_f32(out, 0, 1.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf_f32(v: &[f32]) -> ArgData {
        ArgData::buffer_of(v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>())
    }

    fn buf_u32(v: &[u32]) -> ArgData {
        ArgData::buffer_of(v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>())
    }

    fn scalar_u32(v: u32) -> ArgData {
        ArgData::Scalar(v.to_le_bytes().to_vec())
    }

    fn scalar_f32(v: f32) -> ArgData {
        ArgData::Scalar(v.to_le_bytes().to_vec())
    }

    fn out_f32(args: &[ArgData], idx: usize) -> Vec<f32> {
        f32s(args[idx].buffer().unwrap()).collect()
    }

    #[test]
    fn vec_add_adds() {
        let mut args = vec![
            buf_f32(&[1.0, 2.0, 3.0]),
            buf_f32(&[10.0, 20.0, 30.0]),
            buf_f32(&[0.0; 3]),
            scalar_u32(3),
        ];
        execute("vec_add", &mut args).unwrap();
        assert_eq!(out_f32(&args, 2), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn triad_fma() {
        let mut args = vec![
            buf_f32(&[0.0; 2]),
            buf_f32(&[1.0, 2.0]),
            buf_f32(&[10.0, 20.0]),
            scalar_f32(0.5),
            scalar_u32(2),
        ];
        execute("triad", &mut args).unwrap();
        assert_eq!(out_f32(&args, 0), vec![6.0, 12.0]);
    }

    #[test]
    fn reduce_and_scan() {
        let mut args = vec![
            buf_f32(&[1.0, 2.0, 3.0, 4.0]),
            buf_f32(&[0.0]),
            ArgData::Local(64),
            scalar_u32(4),
        ];
        execute("reduce_sum", &mut args).unwrap();
        assert_eq!(out_f32(&args, 1), vec![10.0]);

        let mut args = vec![
            buf_f32(&[1.0, 2.0, 3.0, 4.0]),
            buf_f32(&[0.0; 4]),
            ArgData::Local(64),
            scalar_u32(4),
        ];
        execute("scan_exclusive", &mut args).unwrap();
        assert_eq!(out_f32(&args, 1), vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn full_bitonic_schedule_sorts() {
        let n: usize = 64;
        let mut keys: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 1000)
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        let mut buf = buf_u32(&keys);
        let log_n = n.trailing_zeros();
        for stage in 0..log_n {
            for pass in (0..=stage).rev() {
                let mut args = vec![
                    buf.clone(),
                    scalar_u32(n as u32),
                    scalar_u32(stage),
                    scalar_u32(pass),
                ];
                execute("bitonic_sort", &mut args).unwrap();
                buf = args.swap_remove(0);
            }
        }
        keys = u32s(buf.buffer().unwrap()).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn radix_sort_matches_sort_unstable() {
        let seeded: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let sorted: Vec<u32> = (0..4096u32).map(|i| i * 1_000_003).collect();
        let mut last_descends = sorted.clone();
        last_descends[4095] = last_descends[4094] - 1;
        let cases: [(&str, Vec<u32>); 12] = [
            ("n = 0", vec![]),
            ("n = 1", vec![0xdead_beef]),
            ("n = 2, ascending", vec![3, 0xdead_beef]),
            ("n = 2, equal", vec![7, 7]),
            ("n = 2, descending", vec![0xdead_beef, 3]),
            ("all equal", vec![0x5a5a_5a5a; 4096]),
            ("one descent at the end", last_descends),
            ("duplicates", seeded.iter().map(|k| k % 37).collect()),
            ("already sorted", sorted.clone()),
            ("reversed", sorted.into_iter().rev().collect()),
            ("below 2^16", seeded.iter().map(|k| k >> 16).collect()),
            ("seeded", seeded),
        ];
        for (name, keys) in cases {
            let mut expected = keys.clone();
            expected.sort_unstable();
            let n = keys.len() as u32;
            let mut args = vec![buf_u32(&keys), scalar_u32(n)];
            // The sort is skipped exactly when the keys are in order, and
            // then the buffer comes back byte for byte as it went in.
            let in_order = keys == expected;
            assert_eq!(
                unsorted_keys(args[0].buffer().unwrap()).is_none(),
                in_order,
                "{name}"
            );
            execute("radix_sort", &mut args).unwrap();
            let got: Vec<u32> = u32s(args[0].buffer().unwrap()).collect();
            assert_eq!(got, expected, "{name}");
            if in_order {
                assert_eq!(args[0].buffer(), buf_u32(&keys).buffer(), "{name}");
            }
        }
    }

    /// The cumulative normal distribution, one `exp` per value.
    fn cnd(d: f32) -> f32 {
        const A1: f32 = 0.319_381_53;
        const A2: f32 = -0.356_563_78;
        const A3: f32 = 1.781_477_9;
        const A4: f32 = -1.821_256;
        const A5: f32 = 1.330_274_4;
        let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
        let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
        let w = 1.0 - 0.398_942_3 * (-0.5 * d * d).exp() * poly;
        if d < 0.0 {
            1.0 - w
        } else {
            w
        }
    }

    #[test]
    fn cnd_pair_is_two_cnds_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0xb1ac);
        let edges = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-30,
            -1e-30,
        ];
        let drawn = (0..16384).map(|_| g.f32_in(-12.0, 12.0));
        for d in edges.into_iter().chain(drawn) {
            let (pos, neg) = cnd_pair(d);
            assert_eq!(
                (pos.to_bits(), neg.to_bits()),
                (cnd(d).to_bits(), cnd(-d).to_bits()),
                "d = {d}"
            );
        }
    }

    #[test]
    fn radix_sort_sorts() {
        let keys: Vec<u32> = (0..200u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        let mut args = vec![buf_u32(&keys), scalar_u32(200)];
        execute("radix_sort", &mut args).unwrap();
        assert_eq!(
            u32s(args[0].buffer().unwrap()).collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn transpose_involution() {
        let w = 3usize;
        let h = 2usize;
        let input: Vec<f32> = (0..(w * h)).map(|i| i as f32).collect();
        let mut args = vec![
            buf_f32(&input),
            buf_f32(&vec![0.0; w * h]),
            scalar_u32(w as u32),
            scalar_u32(h as u32),
        ];
        execute("transpose", &mut args).unwrap();
        let t = out_f32(&args, 1);
        // Transpose of transpose restores the original.
        let mut args2 = vec![
            buf_f32(&t),
            buf_f32(&vec![0.0; w * h]),
            scalar_u32(h as u32),
            scalar_u32(w as u32),
        ];
        execute("transpose", &mut args2).unwrap();
        assert_eq!(out_f32(&args2, 1), input);
    }

    #[test]
    fn matmul_identity() {
        let m = 4usize;
        let mut ident = vec![0.0f32; m * m];
        for i in 0..m {
            ident[i * m + i] = 1.0;
        }
        let a: Vec<f32> = (0..m * m).map(|i| i as f32).collect();
        let mut args = vec![
            buf_f32(&a),
            buf_f32(&ident),
            buf_f32(&vec![0.0; m * m]),
            scalar_u32(m as u32),
            scalar_u32(m as u32),
            scalar_u32(m as u32),
        ];
        execute("matmul", &mut args).unwrap();
        assert_eq!(out_f32(&args, 2), a);
    }

    #[test]
    fn sgemm_alpha_beta() {
        // 1x1 case: c = alpha*a*b + beta*c.
        let mut args = vec![
            buf_f32(&[2.0]),
            buf_f32(&[3.0]),
            buf_f32(&[10.0]),
            scalar_u32(1),
            scalar_u32(1),
            scalar_u32(1),
            scalar_f32(2.0),
            scalar_f32(0.5),
        ];
        execute("sgemm", &mut args).unwrap();
        assert_eq!(out_f32(&args, 2), vec![17.0]);
    }

    #[test]
    fn black_scholes_sane() {
        // At-the-money call with positive rates is worth more than zero
        // and less than the stock.
        let mut args = vec![
            buf_f32(&[0.0]),
            buf_f32(&[0.0]),
            buf_f32(&[100.0]),
            buf_f32(&[100.0]),
            buf_f32(&[1.0]),
            scalar_f32(0.05),
            scalar_f32(0.2),
            scalar_u32(1),
        ];
        execute("black_scholes", &mut args).unwrap();
        let call = out_f32(&args, 0)[0];
        let put = out_f32(&args, 1)[0];
        assert!(call > 5.0 && call < 20.0, "call {call}");
        assert!(put > 0.0 && put < call, "put {put}");
        // Put-call parity: C - P = S - X e^{-rT}.
        let parity = 100.0 - 100.0 * (-0.05f32).exp();
        assert!((call - put - parity).abs() < 0.05);
    }

    #[test]
    fn histogram_counts_everything() {
        let data: Vec<f32> = (0..128).map(|i| (i % 64) as f32 / 64.0).collect();
        let mut args = vec![
            buf_f32(&data),
            buf_u32(&[0; 64]),
            ArgData::Local(256),
            scalar_u32(128),
        ];
        execute("histogram64", &mut args).unwrap();
        let hist: Vec<u32> = u32s(args[1].buffer().unwrap()).collect();
        assert_eq!(hist.iter().sum::<u32>(), 128);
        assert!(hist.iter().all(|&c| c == 2));
    }

    #[test]
    fn fft_roundtrip_via_parseval() {
        // FFT of a unit impulse is flat with magnitude 1 in every bin.
        let n = 16usize;
        let mut re = vec![0.0f32; n];
        re[0] = 1.0;
        let im = vec![0.0f32; n];
        let mut args = vec![buf_f32(&re), buf_f32(&im), scalar_u32(n as u32)];
        execute("fft_radix2", &mut args).unwrap();
        let re_out = out_f32(&args, 0);
        let im_out = out_f32(&args, 1);
        for k in 0..n {
            let mag = (re_out[k] * re_out[k] + im_out[k] * im_out[k]).sqrt();
            assert!((mag - 1.0).abs() < 1e-5, "bin {k} mag {mag}");
        }
    }

    /// The FFT as it was before its twiddles were tabled: each
    /// butterfly computes its own.
    fn fft_with_twiddles_per_butterfly(re: &mut [u8], im: &mut [u8], n: usize) {
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i
                .reverse_bits()
                .checked_shr(usize::BITS - bits)
                .unwrap_or(0);
            if j > i {
                swap_lanes(re, i, j);
                swap_lanes(im, i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f32::consts::PI / len as f32;
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let (wr, wi) = ((ang * k as f32).cos(), (ang * k as f32).sin());
                    let (i, j) = (start + k, start + k + len / 2);
                    let (rj, ij) = (f32_at(re, j), f32_at(im, j));
                    let (tr, ti) = (rj * wr - ij * wi, rj * wi + ij * wr);
                    let (ri, ii) = (f32_at(re, i), f32_at(im, i));
                    set_f32(re, j, ri - tr);
                    set_f32(im, j, ii - ti);
                    set_f32(re, i, ri + tr);
                    set_f32(im, i, ii + ti);
                }
            }
            len <<= 1;
        }
    }

    #[test]
    fn fft_matches_per_butterfly_twiddles_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0xff7);
        for n in (0..=12).map(|b| 1usize << b) {
            let re = lanes_with_nans(&mut g, n, -1.0, 1.0);
            let im: Vec<f32> = (0..n).map(|_| g.f32_in(-1.0, 1.0)).collect();
            let mut args = vec![buf_f32(&re), buf_f32(&im), scalar_u32(n as u32)];
            execute("fft_radix2", &mut args).unwrap();
            let [mut re, mut im] = [buf_f32(&re), buf_f32(&im)];
            let (re, im) = (re.buffer_mut().unwrap(), im.buffer_mut().unwrap());
            fft_with_twiddles_per_butterfly(re, im, n);
            assert_eq!(args[0].buffer().unwrap(), re, "re, n = {n}");
            assert_eq!(args[1].buffer().unwrap(), im, "im, n = {n}");
        }
    }

    /// `n` lanes drawn from `[lo, hi)`, about one in sixteen of them
    /// NaN.
    fn lanes_with_nans(g: &mut simcore::qcheck::Gen, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if g.usize_in(0, 16) == 0 {
                    f32::NAN
                } else {
                    g.f32_in(lo, hi)
                }
            })
            .collect()
    }

    /// Run kernel `name` and `reference` over copies of `args`, and
    /// require every buffer to come out byte for byte the same.
    fn assert_matches(name: &str, reference: Body, args: Vec<ArgData>, case: &str) {
        let mut got = args.clone();
        execute(name, &mut got).unwrap();
        let mut want = args;
        reference(&mut want).unwrap();
        assert!(buffers(&got) == buffers(&want), "{name}: {case}");
    }

    // The multi-lane kernels as they were before their rewrites: one
    // output at a time, every input lane read from its bytes.

    fn max_flops_per_lane(args: &mut [ArgData]) -> Result<(), ExecError> {
        let [data, n, iters] = arity(args)?;
        let n = n.scalar_u32()? as usize;
        let iters = iters.scalar_u32()?;
        let data = output(0, data, n * 4)?;
        for i in 0..n {
            let mut v = f32_at(data, i);
            for _ in 0..iters {
                v = v * 1.000_001 + 0.000_000_1;
            }
            set_f32(data, i, v);
        }
        Ok(())
    }

    fn conv_per_pixel(args: &mut [ArgData], rows: bool) -> Result<(), ExecError> {
        let [src, dst, filter, w, h, radius] = arity(args)?;
        let w = w.scalar_u32()? as usize;
        let h = h.scalar_u32()? as usize;
        let radius = radius.scalar_u32()? as i64;
        let src = input(0, src, w * h * 4)?;
        let dst = output(1, dst, w * h * 4)?;
        let filter = input(2, filter, (2 * radius as usize + 1) * 4)?;
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let mut acc = 0.0f32;
                for k in -radius..=radius {
                    let (xx, yy) = if rows {
                        ((x + k).clamp(0, w as i64 - 1), y)
                    } else {
                        (x, (y + k).clamp(0, h as i64 - 1))
                    };
                    acc += f32_at(src, (yy * w as i64 + xx) as usize)
                        * f32_at(filter, (k + radius) as usize);
                }
                set_f32(dst, (y * w as i64 + x) as usize, acc);
            }
        }
        Ok(())
    }

    fn fdtd3d_per_cell(args: &mut [ArgData]) -> Result<(), ExecError> {
        let [src, dst, dx, dy, dz] = arity(args)?;
        let dx = dx.scalar_u32()? as usize;
        let dy = dy.scalar_u32()? as usize;
        let dz = dz.scalar_u32()? as usize;
        let n = dx * dy * dz;
        let src = input(0, src, n * 4)?;
        let dst = output(1, dst, n * 4)?;
        let idx = |x: usize, y: usize, z: usize| (z * dy + y) * dx + x;
        let at = |x, y, z| f32_at(src, idx(x, y, z));
        for z in 0..dz {
            for y in 0..dy {
                for x in 0..dx {
                    let c = at(x, y, z);
                    let xm = at(x.saturating_sub(1), y, z);
                    let xp = at((x + 1).min(dx - 1), y, z);
                    let ym = at(x, y.saturating_sub(1), z);
                    let yp = at(x, (y + 1).min(dy - 1), z);
                    let zm = at(x, y, z.saturating_sub(1));
                    let zp = at(x, y, (z + 1).min(dz - 1));
                    set_f32(
                        dst,
                        idx(x, y, z),
                        0.4 * c + 0.1 * (xm + xp + ym + yp + zm + zp),
                    );
                }
            }
        }
        Ok(())
    }

    fn stencil2d_per_pixel(args: &mut [ArgData]) -> Result<(), ExecError> {
        let [src, dst, w, h] = arity(args)?;
        let w = w.scalar_u32()? as usize;
        let h = h.scalar_u32()? as usize;
        let src = input(0, src, w * h * 4)?;
        let dst = output(1, dst, w * h * 4)?;
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let xx = (x as i64 + dx).clamp(0, w as i64 - 1) as usize;
                        let yy = (y as i64 + dy).clamp(0, h as i64 - 1) as usize;
                        let wgt = if dx == 0 && dy == 0 { 0.5 } else { 0.0625 };
                        acc += f32_at(src, yy * w + xx) * wgt;
                    }
                }
                set_f32(dst, y * w + x, acc);
            }
        }
        Ok(())
    }

    fn md_forces_per_atom(args: &mut [ArgData]) -> Result<(), ExecError> {
        let [pos, force, n, cutoff] = arity(args)?;
        let n = n.scalar_u32()? as usize;
        let cutoff = cutoff.scalar_f32()?;
        let pos = input(0, pos, n * 12)?;
        let force = output(1, force, n * 12)?;
        let cutoff2 = cutoff * cutoff;
        const WINDOW: usize = 8;
        for i in 0..n {
            let (mut fx, mut fy, mut fz) = (0.0f32, 0.0f32, 0.0f32);
            let (xi, yi, zi) = (
                f32_at(pos, 3 * i),
                f32_at(pos, 3 * i + 1),
                f32_at(pos, 3 * i + 2),
            );
            for j in i.saturating_sub(WINDOW)..=(i + WINDOW).min(n - 1) {
                if j == i {
                    continue;
                }
                let dx = xi - f32_at(pos, 3 * j);
                let dy = yi - f32_at(pos, 3 * j + 1);
                let dz = zi - f32_at(pos, 3 * j + 2);
                let r2 = (dx * dx + dy * dy + dz * dz).max(0.01);
                if r2 > cutoff2 {
                    continue;
                }
                let inv_r2 = 1.0 / r2;
                let inv_r6 = inv_r2 * inv_r2 * inv_r2;
                let f = 24.0 * inv_r2 * inv_r6 * (2.0 * inv_r6 - 1.0);
                fx += f * dx;
                fy += f * dy;
                fz += f * dz;
            }
            put_f32s(&mut force[12 * i..], [fx, fy, fz]);
        }
        Ok(())
    }

    fn cp_potential_per_point(args: &mut [ArgData]) -> Result<(), ExecError> {
        let [atoms, grid, natoms, gw, gh] = arity(args)?;
        let natoms = natoms.scalar_u32()? as usize;
        let gw = gw.scalar_u32()? as usize;
        let gh = gh.scalar_u32()? as usize;
        let atoms = input(0, atoms, natoms * 16)?;
        let grid = output(1, grid, gw * gh * 4)?;
        for gy in 0..gh {
            for gx in 0..gw {
                let mut acc = 0.0f32;
                for atom in atoms.chunks_exact(16) {
                    let dx = f32_at(atom, 0) - gx as f32;
                    let dy = f32_at(atom, 1) - gy as f32;
                    let dz = f32_at(atom, 2);
                    acc += f32_at(atom, 3) / (dx * dx + dy * dy + dz * dz + 1.0).sqrt();
                }
                set_f32(grid, gy * gw + gx, acc);
            }
        }
        Ok(())
    }

    fn mri_per_voxel(args: &mut [ArgData], p: usize) -> Result<(), ExecError> {
        let nk = args[p + 8].scalar_u32()? as usize;
        let nx = args[p + 9].scalar_u32()? as usize;
        let (ins, outs) = args.split_at_mut(p + 6);
        let ins: Vec<&[u8]> = (ins.iter().enumerate())
            .map(|(i, a)| input(i, a, if i < p + 3 { nk * 4 } else { nx * 4 }))
            .collect::<Result<_, _>>()?;
        let [re_out, im_out, ..] = outs else {
            unreachable!("arity checked by the caller")
        };
        let re_out = output(p + 6, re_out, nx * 4)?;
        let im_out = output(p + 7, im_out, nx * 4)?;
        let [kx, ky, kz, x, y, z] = ins[p..] else {
            unreachable!("six coordinate inputs")
        };
        let tau = 2.0 * std::f32::consts::PI;
        for i in 0..nx {
            let (mut rr, mut ii) = (0.0f32, 0.0f32);
            for k in 0..nk {
                let e = tau
                    * (f32_at(kx, k) * f32_at(x, i)
                        + f32_at(ky, k) * f32_at(y, i)
                        + f32_at(kz, k) * f32_at(z, i));
                let (s, c) = e.sin_cos();
                let re = f32_at(ins[0], k);
                if p == 2 {
                    let im = f32_at(ins[1], k);
                    rr += re * c - im * s;
                    ii += im * c + re * s;
                } else {
                    rr += re * c;
                    ii += re * s;
                }
            }
            set_f32(re_out, i, rr);
            set_f32(im_out, i, ii);
        }
        Ok(())
    }

    /// Sides of 2-D and 3-D problems: 1 and 2 lanes, odd and unequal
    /// sides, and some wider than a block of `LANES`.
    const SIDES: [(u32, u32, u32); 8] = [
        (1, 1, 1),
        (1, 2, 3),
        (2, 1, 2),
        (2, 2, 1),
        (3, 5, 2),
        (7, 3, 4),
        (17, 9, 5),
        (33, 20, 3),
    ];

    #[test]
    fn max_flops_matches_the_per_lane_loop_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0xf10);
        for n in [0usize, 1, 2, 15, 16, 17, 33, 100] {
            for iters in [0, 1, 8, 300] {
                let data = f32_lanes(lanes_with_nans(&mut g, n + 1, 0.5, 1.5));
                let args = vec![data, scalar_u32(n as u32), scalar_u32(iters)];
                assert_matches(
                    "max_flops",
                    max_flops_per_lane,
                    args,
                    &format!("n = {n}, iters = {iters}"),
                );
            }
        }
    }

    #[test]
    fn conv_matches_the_per_pixel_loop_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0xc0);
        for (name, reference) in [
            ("conv_rows", (|a| conv_per_pixel(a, true)) as Body),
            ("conv_cols", |a| conv_per_pixel(a, false)),
        ] {
            for (w, h, _) in SIDES.into_iter().chain([(0, 3, 0), (4, 0, 0)]) {
                for radius in [0u32, 1, 3, 8] {
                    let src = f32_lanes(lanes_with_nans(&mut g, (w * h) as usize, 0.0, 1.0));
                    let taps = lanes_with_nans(&mut g, 2 * radius as usize + 1, -0.5, 0.5);
                    let dst = f32_lanes((0..w * h).map(|_| g.f32_in(-1.0, 1.0)));
                    let args = vec![
                        src,
                        dst,
                        f32_lanes(taps),
                        scalar_u32(w),
                        scalar_u32(h),
                        scalar_u32(radius),
                    ];
                    assert_matches(name, reference, args, &format!("{w}x{h}, radius {radius}"));
                }
            }
        }
    }

    #[test]
    fn fdtd3d_and_stencil2d_match_the_per_cell_loops_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0xfd7d);
        for (dx, dy, dz) in SIDES.into_iter().chain([(0, 2, 2), (4, 4, 0)]) {
            let n = (dx * dy * dz) as usize;
            let src = f32_lanes(lanes_with_nans(&mut g, n, 0.0, 1.0));
            let dst = f32_lanes((0..n).map(|_| g.f32_in(-1.0, 1.0)));
            let case = format!("{dx}x{dy}x{dz}");
            let sizes = [dx, dy, dz].map(scalar_u32);
            let args = [src.clone(), dst.clone()]
                .into_iter()
                .chain(sizes)
                .collect();
            assert_matches("fdtd3d", fdtd3d_per_cell, args, &case);
            let args = vec![src, dst, scalar_u32(dx), scalar_u32(dy * dz)];
            assert_matches("stencil2d", stencil2d_per_pixel, args, &case);
        }
    }

    #[test]
    fn md_forces_matches_the_per_atom_loop_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0x3d);
        for n in [0usize, 1, 2, 7, 8, 9, 17, 40, 100] {
            for cutoff in [0.05f32, 2.5, 100.0, f32::NAN] {
                // Close enough that some pairs fall inside the cutoff and
                // some inside the 0.01 floor on `r2`.
                let pos = f32_lanes(lanes_with_nans(&mut g, 3 * n, 0.0, 2.0));
                let force = f32_lanes((0..3 * n).map(|_| g.f32_in(-1.0, 1.0)));
                let args = vec![pos, force, scalar_u32(n as u32), scalar_f32(cutoff)];
                assert_matches(
                    "md_forces",
                    md_forces_per_atom,
                    args,
                    &format!("n = {n}, cutoff {cutoff}"),
                );
            }
        }
    }

    #[test]
    fn cp_potential_matches_the_per_point_loop_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0xc9);
        for (gw, gh, natoms) in SIDES.into_iter().chain([(0, 3, 2), (5, 4, 0)]) {
            let atoms = f32_lanes(lanes_with_nans(&mut g, 4 * natoms as usize, 0.0, 40.0));
            let grid = f32_lanes((0..gw * gh).map(|_| g.f32_in(-1.0, 1.0)));
            let args = vec![
                atoms,
                grid,
                scalar_u32(natoms),
                scalar_u32(gw),
                scalar_u32(gh),
            ];
            assert_matches(
                "cp_potential",
                cp_potential_per_point,
                args,
                &format!("{gw}x{gh}, {natoms} atoms"),
            );
        }
    }

    #[test]
    fn mri_matches_the_per_voxel_loop_bit_for_bit() {
        let mut g = simcore::qcheck::Gen::new(0x3e1);
        for (name, phases, reference) in [
            ("mri_fhd", 2, (|a| mri_per_voxel(a, 2)) as Body),
            ("mri_q", 1, |a| mri_per_voxel(a, 1)),
        ] {
            for (nk, nx) in [(0u32, 3u32), (3, 0), (1, 1), (2, 9), (5, 8), (13, 17)] {
                let mut args: Vec<ArgData> = (0..phases + 3)
                    .map(|_| f32_lanes(lanes_with_nans(&mut g, nk as usize, -1.0, 1.0)))
                    .collect();
                args.extend(
                    (0..3).map(|_| f32_lanes(lanes_with_nans(&mut g, nx as usize, -1.0, 1.0))),
                );
                args.extend((0..2).map(|_| f32_lanes((0..nx).map(|_| g.f32_in(-1.0, 1.0)))));
                args.extend([scalar_u32(nk), scalar_u32(nx)]);
                assert_matches(name, reference, args, &format!("nk = {nk}, nx = {nx}"));
            }
        }
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut args = vec![buf_f32(&[0.0; 12]), buf_f32(&[0.0; 12]), scalar_u32(12)];
        assert!(execute("fft_radix2", &mut args).is_err());
    }

    #[test]
    fn s3d_rates_differ_by_program() {
        let state = vec![2.0f32];
        let mut a0 = vec![buf_f32(&state), buf_f32(&[0.0]), scalar_u32(1)];
        execute("rate_0", &mut a0).unwrap();
        let mut a5 = vec![buf_f32(&state), buf_f32(&[0.0]), scalar_u32(1)];
        execute("rate_5", &mut a5).unwrap();
        // rate_0: 1 + 2t + 3t² = 17; rate_5: 6 + 7t + 8t² = 52.
        assert_eq!(out_f32(&a0, 1), vec![17.0]);
        assert_eq!(out_f32(&a5, 1), vec![52.0]);
    }

    #[test]
    fn md_forces_antisymmetric_for_pair() {
        // Two atoms on the x axis: forces are equal and opposite.
        let pos = vec![0.0f32, 0.0, 0.0, 1.5, 0.0, 0.0];
        let mut args = vec![
            buf_f32(&pos),
            buf_f32(&[0.0; 6]),
            scalar_u32(2),
            scalar_f32(3.0),
        ];
        execute("md_forces", &mut args).unwrap();
        let f = out_f32(&args, 1);
        assert!((f[0] + f[3]).abs() < 1e-5);
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 0.0);
        assert_ne!(f[0], 0.0);
    }

    #[test]
    fn quasirandom_in_unit_interval() {
        let mut args = vec![buf_f32(&vec![0.0; 100]), scalar_u32(100)];
        execute("quasirandom", &mut args).unwrap();
        let out = out_f32(&args, 0);
        assert!(out.iter().all(|&v| (0.0..1.0).contains(&v)));
        assert_eq!(out[0], 0.0);
        assert!(out[1] > 0.6 && out[1] < 0.63);
    }

    #[test]
    fn quasirandom_lane_is_the_fractional_part_bit_for_bit() {
        const PHI: f64 = 0.618_033_988_749_894_9;
        let edges = (1..32).flat_map(|k| [(1u32 << k) - 1, 1 << k, (1 << k) + 1]);
        for i in [0, u32::MAX].into_iter().chain(edges) {
            let v = i as f64 * PHI;
            let floored = (v - v.floor()) as f32;
            assert_eq!(quasirandom_lane(i).to_bits(), floored.to_bits(), "i = {i}");
        }
    }

    #[test]
    fn mersenne_deterministic() {
        let seeds = vec![1u32, 2];
        let run = || {
            let mut args = vec![
                buf_u32(&seeds),
                buf_f32(&[0.0; 8]),
                scalar_u32(2),
                scalar_u32(4),
            ];
            execute("mersenne_twister", &mut args).unwrap();
            out_f32(&args, 1)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn dxt_endpoints_are_min_max() {
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut args = vec![
            buf_f32(&src),
            buf_f32(&[0.0, 0.0]),
            scalar_u32(4),
            scalar_u32(4),
        ];
        execute("dxt_compress", &mut args).unwrap();
        assert_eq!(out_f32(&args, 1), vec![0.0, 15.0]);
    }

    #[test]
    fn dct_preserves_energy_of_dc_block() {
        // A constant 8x8 block transforms to a single DC coefficient.
        let src = vec![1.0f32; 64];
        let mut args = vec![
            buf_f32(&src),
            buf_f32(&vec![0.0; 64]),
            scalar_u32(8),
            scalar_u32(8),
        ];
        execute("dct8x8", &mut args).unwrap();
        let out = out_f32(&args, 1);
        assert!((out[0] - 8.0).abs() < 1e-4, "DC {}", out[0]);
        assert!(out[1..].iter().all(|&v| v.abs() < 1e-4));
    }

    /// The DCT as it was before its basis was tabled: each product
    /// computes both of its cosines.
    fn dct_with_cosines_per_product(src: &[u8], dst: &mut [u8], w: usize, h: usize) {
        dst.fill(0);
        let pi = std::f32::consts::PI;
        for by in 0..h / 8 {
            for bx in 0..w / 8 {
                for u in 0..8 {
                    for v in 0..8 {
                        let cu = if u == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
                        let cv = if v == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
                        let mut acc = 0.0f32;
                        for iy in 0..8 {
                            for ix in 0..8 {
                                let px = f32_at(src, (by * 8 + iy) * w + bx * 8 + ix);
                                acc += px
                                    * ((2 * ix + 1) as f32 * u as f32 * pi / 16.0).cos()
                                    * ((2 * iy + 1) as f32 * v as f32 * pi / 16.0).cos();
                            }
                        }
                        set_f32(dst, (by * 8 + v) * w + bx * 8 + u, 0.25 * cu * cv * acc);
                    }
                }
            }
        }
    }

    #[test]
    fn dct_matches_per_product_cosines_bit_for_bit() {
        // Neither side a multiple of 8: the partial blocks come out zero.
        let (w, h) = (37usize, 21usize);
        let mut g = simcore::qcheck::Gen::new(0xdc7);
        let src: Vec<f32> = (0..w * h).map(|_| g.f32_in(0.0, 255.0)).collect();
        let mut args = vec![
            buf_f32(&src),
            buf_f32(&vec![1.0; w * h]),
            scalar_u32(w as u32),
            scalar_u32(h as u32),
        ];
        execute("dct8x8", &mut args).unwrap();
        let mut expected = vec![0u8; w * h * 4];
        dct_with_cosines_per_product(args[0].buffer().unwrap(), &mut expected, w, h);
        assert_eq!(args[1].buffer().unwrap(), &expected[..]);
    }

    #[test]
    fn conv_identity_filter() {
        let src: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut args = vec![
            buf_f32(&src),
            buf_f32(&[0.0; 12]),
            buf_f32(&[0.0, 1.0, 0.0]),
            scalar_u32(4),
            scalar_u32(3),
            scalar_u32(1),
        ];
        execute("conv_rows", &mut args).unwrap();
        assert_eq!(out_f32(&args, 1), src);
        let mut args = vec![
            buf_f32(&src),
            buf_f32(&[0.0; 12]),
            buf_f32(&[0.0, 1.0, 0.0]),
            scalar_u32(4),
            scalar_u32(3),
            scalar_u32(1),
        ];
        execute("conv_cols", &mut args).unwrap();
        assert_eq!(out_f32(&args, 1), src);
    }

    #[test]
    fn stencil_preserves_constant_field() {
        let src = vec![2.0f32; 16];
        let mut args = vec![
            buf_f32(&src),
            buf_f32(&[0.0; 16]),
            scalar_u32(4),
            scalar_u32(4),
        ];
        execute("stencil2d", &mut args).unwrap();
        for v in out_f32(&args, 1) {
            assert!((v - 2.0).abs() < 1e-5);
        }
        // FDTD coefficients also sum to 1.0.
        let src3 = vec![3.0f32; 27];
        let mut args = vec![
            buf_f32(&src3),
            buf_f32(&[0.0; 27]),
            scalar_u32(3),
            scalar_u32(3),
            scalar_u32(3),
        ];
        execute("fdtd3d", &mut args).unwrap();
        for v in out_f32(&args, 1) {
            assert!((v - 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mri_q_single_sample() {
        // One k-space sample at the origin: q = phi * (cos 0, sin 0).
        let mut args = vec![
            buf_f32(&[2.0]), // phi_mag
            buf_f32(&[0.0]), // kx
            buf_f32(&[0.0]), // ky
            buf_f32(&[0.0]), // kz
            buf_f32(&[1.0]), // x
            buf_f32(&[1.0]), // y
            buf_f32(&[1.0]), // z
            buf_f32(&[0.0]), // qr
            buf_f32(&[0.0]), // qi
            scalar_u32(1),
            scalar_u32(1),
        ];
        execute("mri_q", &mut args).unwrap();
        assert_eq!(out_f32(&args, 7), vec![2.0]);
        assert_eq!(out_f32(&args, 8), vec![0.0]);
    }

    #[test]
    fn cp_potential_positive_charges() {
        let atoms = vec![0.0f32, 0.0, 1.0, 5.0]; // one atom, charge 5
        let mut args = vec![
            buf_f32(&atoms),
            buf_f32(&[0.0; 4]),
            scalar_u32(1),
            scalar_u32(2),
            scalar_u32(2),
        ];
        execute("cp_potential", &mut args).unwrap();
        let grid = out_f32(&args, 1);
        assert!(grid.iter().all(|&v| v > 0.0));
        // Closest grid point (0,0) sees the highest potential.
        assert!(grid[0] >= grid[3]);
    }

    #[test]
    fn mri_rejects_undersized_buffers() {
        // Regression: only the first 4 bytes used to be validated.
        let mut args = vec![
            buf_f32(&[1.0]), // phi_mag: 1 element but nk = 8
            buf_f32(&[0.0]),
            buf_f32(&[0.0]),
            buf_f32(&[0.0]),
            buf_f32(&[1.0]),
            buf_f32(&[1.0]),
            buf_f32(&[1.0]),
            buf_f32(&[0.0]),
            buf_f32(&[0.0]),
            scalar_u32(8),
            scalar_u32(1),
        ];
        assert!(matches!(
            execute("mri_q", &mut args),
            Err(ExecError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn errors_for_bad_launches() {
        assert!(matches!(
            execute("no_such_kernel", &mut []),
            Err(ExecError::UnknownKernel(_))
        ));
        let mut args = vec![buf_f32(&[1.0])];
        assert!(matches!(
            execute("vec_add", &mut args),
            Err(ExecError::ArgCount {
                expected: 4,
                got: 1
            })
        ));
        // Buffer too small for requested n.
        let mut args = vec![
            buf_f32(&[1.0]),
            buf_f32(&[1.0]),
            buf_f32(&[1.0]),
            scalar_u32(100),
        ];
        assert!(matches!(
            execute("vec_add", &mut args),
            Err(ExecError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn sampler_scale_requires_sampler_arg() {
        let mut ok = vec![
            buf_f32(&[0.0; 4]),
            ArgData::Scalar(vec![0u8; 8]),
            scalar_u32(4),
        ];
        execute("sampler_scale", &mut ok).unwrap();
        assert_eq!(out_f32(&ok, 0), vec![0.0, 0.5, 1.0, 1.5]);
        let mut bad = vec![buf_f32(&[0.0; 4]), scalar_u32(1), scalar_u32(4)];
        assert!(execute("sampler_scale", &mut bad).is_err());
    }

    /// Seeded arguments for one launch of kernel `name`: buffers of
    /// random lanes in `[-4, 4)`, each a few lanes longer than the
    /// kernel needs, and sizes that fit them. Panics for a name it does
    /// not know, so every kernel in the table needs a case here.
    fn rerun_args(name: &str, g: &mut simcore::qcheck::Gen) -> Vec<ArgData> {
        let buf = |g: &mut simcore::qcheck::Gen, lanes: u32| {
            let slack = g.usize_in(0, 3) as u32;
            ArgData::buffer_of(
                (0..lanes + slack)
                    .flat_map(|_| g.f32_in(-4.0, 4.0).to_le_bytes())
                    .collect::<Vec<u8>>(),
            )
        };
        let u = scalar_u32;
        let n = g.usize_in(1, 48) as u32;
        // Sides of a 2-D problem: whole 8x8 blocks for the DCT, 4x4
        // for DXT.
        let (w, h) = (8 * g.usize_in(1, 4) as u32, 8 * g.usize_in(1, 4) as u32);
        let (nk, nx) = (g.usize_in(1, 16) as u32, g.usize_in(1, 16) as u32);
        match name {
            "vec_add" => vec![buf(g, n), buf(g, n), buf(g, n), u(n)],
            "triad" => vec![buf(g, n), buf(g, n), buf(g, n), scalar_f32(1.5), u(n)],
            "copy_buf" => vec![buf(g, n), buf(g, n), u(n)],
            "null_kernel" => vec![buf(g, n)],
            "max_flops" => vec![buf(g, n), u(n), u(3)],
            "reduce_sum" | "scan_exclusive" => {
                let out = if name == "reduce_sum" { 1 } else { n };
                vec![buf(g, n), buf(g, out), ArgData::Local(256), u(n)]
            }
            "bitonic_sort" => {
                let (stage, pass) = (g.usize_in(0, 5) as u32, g.usize_in(0, 5) as u32);
                vec![buf(g, n), u(n), u(stage), u(pass.min(stage))]
            }
            "radix_sort" | "quasirandom" => vec![buf(g, n), u(n)],
            "transpose" | "dct8x8" | "stencil2d" => vec![buf(g, w * h), buf(g, w * h), u(w), u(h)],
            "matmul" | "sgemm" => {
                let (m, k) = (g.usize_in(1, 8) as u32, g.usize_in(1, 8) as u32);
                let mut args = vec![
                    buf(g, m * k),
                    buf(g, k * n),
                    buf(g, m * n),
                    u(m),
                    u(n),
                    u(k),
                ];
                if name == "sgemm" {
                    args.extend([scalar_f32(0.5), scalar_f32(0.25)]);
                }
                args
            }
            "matvec" => vec![buf(g, w * h), buf(g, h), buf(g, w), u(w), u(h)],
            "black_scholes" => {
                let mut args = vec![buf(g, n), buf(g, n)];
                // Spot, strike and expiry: positive, as real options are.
                args.extend((0..3).map(|_| f32_lanes((0..n).map(|_| g.f32_in(0.5, 4.0)))));
                args.extend([scalar_f32(0.02), scalar_f32(0.3), u(n)]);
                args
            }
            "dot_product" => vec![buf(g, 4 * n), buf(g, 4 * n), buf(g, n), u(n)],
            "conv_rows" | "conv_cols" => {
                let radius = g.usize_in(0, 4) as u32;
                let filter = buf(g, 2 * radius + 1);
                vec![buf(g, w * h), buf(g, w * h), filter, u(w), u(h), u(radius)]
            }
            "dxt_compress" => vec![buf(g, w * h), buf(g, w * h / 8), u(w), u(h)],
            "histogram64" => vec![buf(g, n), buf(g, 64), ArgData::Local(256), u(n)],
            "mersenne_twister" => {
                let per = g.usize_in(1, 6) as u32;
                vec![buf(g, n), buf(g, n * per), u(n), u(per)]
            }
            "fdtd3d" => {
                let d = g.usize_in(1, 6) as u32;
                vec![buf(g, w * h * d), buf(g, w * h * d), u(w), u(h), u(d)]
            }
            "md_forces" => vec![buf(g, 3 * n), buf(g, 3 * n), u(n), scalar_f32(2.5)],
            "fft_radix2" => {
                let len = 1 << g.usize_in(0, 6);
                vec![buf(g, len), buf(g, len), u(len)]
            }
            "cp_potential" => vec![buf(g, 4 * n), buf(g, w * h), u(n), u(w), u(h)],
            "mri_fhd" | "mri_q" => {
                let phases = if name == "mri_fhd" { 2 } else { 1 };
                let mut args: Vec<ArgData> = (0..phases + 3).map(|_| buf(g, nk)).collect();
                args.extend((0..5).map(|_| buf(g, nx)));
                args.extend([u(nk), u(nx)]);
                args
            }
            "sampler_scale" => vec![buf(g, n), ArgData::Scalar(vec![7; 8]), u(n)],
            "image_scale" => vec![
                buf(g, w * h),
                ArgData::Scalar(vec![7; 8]),
                buf(g, w * h),
                u(w),
                u(h),
            ],
            "consume" => vec![ArgData::Scalar(vec![7; 16]), buf(g, n)],
            _ if name.starts_with("rate_") => vec![buf(g, n), buf(g, n), u(n)],
            _ => panic!("no seeded arguments for kernel {name}"),
        }
    }

    fn f32_lanes(v: impl IntoIterator<Item = f32>) -> ArgData {
        ArgData::buffer_of(
            v.into_iter()
                .flat_map(f32::to_le_bytes)
                .collect::<Vec<u8>>(),
        )
    }

    /// Every buffer argument's bytes, in argument order.
    fn buffers(args: &[ArgData]) -> Vec<Vec<u8>> {
        args.iter()
            .filter_map(|a| a.buffer().ok().map(<[u8]>::to_vec))
            .collect()
    }

    /// The rerun-safe names: every table entry marked so, and two of
    /// the `rate_<k>` family.
    fn rerun_safe_names() -> Vec<&'static str> {
        let mut names: Vec<&str> = KERNELS
            .iter()
            .filter(|&&(_, _, r, _)| r == Safe)
            .map(|&(n, ..)| n)
            .collect();
        names.extend(["rate_0", "rate_21"]);
        names
    }

    #[test]
    fn a_rerun_safe_kernel_run_twice_leaves_what_one_run_leaves() {
        for name in rerun_safe_names() {
            assert!(lookup(name).unwrap().rerun_safe, "{name}");
            simcore::qcheck::qcheck(&format!("rerun_{name}"), 24, |g| {
                let mut once = rerun_args(name, g);
                execute(name, &mut once).unwrap();
                let mut twice = once.clone();
                execute(name, &mut twice).unwrap();
                assert!(buffers(&once) == buffers(&twice), "{name}");
            });
        }
    }

    #[test]
    fn the_kernels_left_off_the_rerun_list_move_on_a_second_run() {
        let unsafe_names: Vec<&str> = KERNELS
            .iter()
            .filter(|&&(_, _, r, _)| r == Unsafe)
            .map(|&(n, ..)| n)
            .collect();
        assert_eq!(unsafe_names, ["max_flops", "sgemm", "fft_radix2"]);
        assert!(lookup("no_such_kernel").is_none());
        assert!(lookup("rate_x").is_none());
        let cases = [
            (
                "max_flops",
                vec![buf_f32(&[1.0]), scalar_u32(1), scalar_u32(1)],
            ),
            // [1, 0] transforms to [1, 1], and that to [2, 0].
            (
                "fft_radix2",
                vec![buf_f32(&[1.0, 0.0]), buf_f32(&[0.0, 0.0]), scalar_u32(2)],
            ),
            // beta = 1: c = a·b + c.
            (
                "sgemm",
                vec![
                    buf_f32(&[1.0]),
                    buf_f32(&[2.0]),
                    buf_f32(&[0.0]),
                    scalar_u32(1),
                    scalar_u32(1),
                    scalar_u32(1),
                    scalar_f32(1.0),
                    scalar_f32(1.0),
                ],
            ),
        ];
        for (name, args) in cases {
            assert!(!lookup(name).unwrap().rerun_safe, "{name}");
            let mut once = args;
            execute(name, &mut once).unwrap();
            let mut twice = once.clone();
            execute(name, &mut twice).unwrap();
            assert!(buffers(&once) != buffers(&twice), "{name}");
        }
    }
}
