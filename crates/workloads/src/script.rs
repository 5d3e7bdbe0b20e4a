//! The op-script application model and its interpreter.
//!
//! A script is host code flattened into a serializable instruction
//! list. Handles returned by the API land in a register file as opaque
//! `u64`s — exactly how a C program holds `cl_mem` variables on its
//! stack/heap. The interpreter advances one op at a time so a
//! checkpoint can land at any instruction boundary (in particular,
//! right after a kernel launch, with the command still in flight — the
//! Fig. 5 measurement protocol).
//!
//! The model's two pure byte functions, [`BufInit::generate`] and
//! [`readback_checksum`], go through per-thread memos: a suite or a
//! fleet runs the same few scripts many times, so most of their inputs
//! and read-backs repeat byte for byte. A memo hit returns what a fresh
//! computation would, bit for bit (see [`readback_checksum`]). An input
//! hit shares the memo's [`Payload`], which a buffer created or written
//! from it shares in turn until a kernel writes it.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use clspec::api::{ApiRequest, ClApi};
use clspec::error::ClResult;
use clspec::handles::{CommandQueue, Context, DeviceId, Event, Kernel, Mem, Program, RawHandle};
use clspec::types::{ArgValue, DeviceType, MemFlags, NDRange, QueueProps, SamplerDesc};
use simcore::{fnv1a64, impl_codec_enum, impl_codec_struct, Payload, SimTime, SplitMix64};

/// A register index in the application's handle file.
pub type Reg = u16;

/// Number of registers every application gets.
pub const NUM_REGS: usize = 96;

/// How a buffer (or a `WriteBuffer`'s payload) is filled.
///
/// Data is generated deterministically from the seed so that a restart
/// replays identical inputs and checksums are comparable across runs,
/// vendors and devices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BufInit {
    /// All zeroes.
    Zero,
    /// Uniform `f32` values in `[lo, hi)`.
    RandomF32 {
        /// Generator seed.
        seed: u64,
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Uniform random `u32` values.
    RandomU32 {
        /// Generator seed.
        seed: u64,
    },
    /// `0.0, 1.0, 2.0, …` ramp of `f32`s.
    Ramp,
}

impl BufInit {
    /// `size` bytes of data, shared with this thread's input memo when
    /// the same descriptor and size were generated before.
    pub fn generate(&self, size: u64) -> Payload {
        let key = match *self {
            BufInit::Zero => return vec![0u8; size as usize].into(),
            BufInit::RandomF32 { seed, lo, hi } => (1, seed, lo.to_bits(), hi.to_bits(), size),
            BufInit::RandomU32 { seed } => (2, seed, 0, 0, size),
            BufInit::Ramp => (3, 0, 0, 0, size),
        };
        MEMOS.with_borrow_mut(|m| {
            if let Some(bytes) = m.inputs.get(&key) {
                return bytes.clone();
            }
            let bytes = Payload::from(self.materialise(size));
            m.inputs.insert(key, bytes.clone());
            bytes
        })
    }

    /// Compute `size` bytes of data from scratch.
    fn materialise(&self, size: u64) -> Vec<u8> {
        let size = size as usize;
        match self {
            BufInit::Zero => vec![0u8; size],
            BufInit::RandomF32 { seed, lo, hi } => {
                let mut rng = SplitMix64::new(*seed);
                let mut out = Vec::with_capacity(size);
                for _ in 0..size / 4 {
                    let v = lo + (hi - lo) * rng.next_f32();
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.resize(size, 0);
                out
            }
            BufInit::RandomU32 { seed } => {
                let mut rng = SplitMix64::new(*seed);
                let mut out = Vec::with_capacity(size);
                for _ in 0..size / 4 {
                    out.extend_from_slice(&rng.next_u32().to_le_bytes());
                }
                out.resize(size, 0);
                out
            }
            BufInit::Ramp => {
                let mut out = Vec::with_capacity(size);
                for i in 0..size / 4 {
                    out.extend_from_slice(&(i as f32).to_le_bytes());
                }
                out.resize(size, 0);
                out
            }
        }
    }
}

impl_codec_enum!(BufInit, "BufInit tag", {
    0 => Zero,
    1 => RandomF32 { seed, lo, hi },
    2 => RandomU32 { seed },
    3 => Ramp,
});

/// Byte budget of the input memo. `interpose` generates each program's
/// inputs again one target pass (39 programs) later: a FIFO of 48 MiB
/// hits none of them and one of 64 MiB hits all.
const INPUT_MEMO_BUDGET: usize = 64 << 20;

/// A map from `K` to shared byte strings of at most `budget` bytes in
/// all, evicted oldest first. A string longer than a quarter of the
/// budget, or empty, is never filed, so one oversize working set cannot
/// flush the memo. An entry is shared, never copied, in and out; an
/// evicted one lives on in whatever still holds it.
struct PayloadFifo<K> {
    budget: usize,
    /// Bytes of the entries in `index`.
    held: usize,
    index: HashMap<K, Payload>,
    /// The keys of `index`, oldest first.
    order: VecDeque<K>,
}

impl<K: Copy + Eq + Hash> PayloadFifo<K> {
    fn new(budget: usize) -> Self {
        PayloadFifo {
            budget,
            held: 0,
            index: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The bytes filed under `key`.
    fn get(&self, key: &K) -> Option<&Payload> {
        self.index.get(key)
    }

    /// File `bytes` under `key` as the newest entry, in place of what
    /// `key` held, evicting the oldest entries it does not fit beside. A
    /// string the admission rule turns away only drops `key`'s earlier
    /// entry.
    fn insert(&mut self, key: K, bytes: Payload) {
        if let Some(old) = self.index.remove(&key) {
            self.held -= old.len();
            self.order.retain(|k| *k != key);
        }
        let len = bytes.len();
        if len == 0 || len > self.budget / 4 {
            return;
        }
        while self.held + len > self.budget {
            let oldest = self.order.pop_front().expect("held bytes have an entry");
            self.held -= self.index.remove(&oldest).expect("listed").len();
        }
        self.held += len;
        self.order.push_back(key);
        self.index.insert(key, bytes);
    }
}

/// Byte budget of the read-back memo. `interpose`'s read-backs come
/// back after the same pass, and every one hits from 24 MiB up.
const READBACK_MEMO_BUDGET: usize = 32 << 20;

/// Read-backs shorter than this are hashed directly: hashing them costs
/// little more than the lookup would.
const MEMO_MIN_READBACK: usize = 4 << 10;

/// Words of a read-back that [`fingerprint`] samples.
const FINGERPRINT_WORDS: usize = 32;

/// Where a [`ByteRing`] entry's bytes lie, and its tag.
struct Slot {
    at: usize,
    len: usize,
    tag: u64,
}

/// A map from `K` to a byte string and a `u64` tag, whose strings lie
/// in one ring of at most `budget` bytes. The ring's allocation is
/// reserved once and is written front to back, so its pages become
/// resident as it fills. A string that does not fit before the end wraps to the
/// front, and each write evicts the entries it overlaps: the oldest,
/// since entries lie in filing order. A string longer than a quarter of
/// the budget, or empty, is never filed, so one oversize working set
/// cannot flush the ring.
struct ByteRing<K> {
    budget: usize,
    ring: Vec<u8>,
    /// Where the next string goes, unless it must wrap.
    head: usize,
    index: HashMap<K, Slot>,
    /// Every entry whose bytes are not yet overwritten, as (key, offset,
    /// length), oldest first. It also lists a re-filed key's earlier
    /// entry, which [`ByteRing::index`] no longer points at.
    order: VecDeque<(K, usize, usize)>,
}

impl<K: Copy + Eq + Hash> ByteRing<K> {
    fn new(budget: usize) -> Self {
        ByteRing {
            budget,
            ring: Vec::new(),
            head: 0,
            index: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The bytes and tag filed under `key`.
    fn get(&self, key: &K) -> Option<(&[u8], &u64)> {
        self.index
            .get(key)
            .map(|s| (&self.ring[s.at..s.at + s.len], &s.tag))
    }

    /// File a copy of `bytes` under `key` at the ring's tail, in place of
    /// what `key` held. A string the admission rule turns away only
    /// drops `key`'s earlier entry.
    fn insert(&mut self, key: K, bytes: &[u8], tag: u64) {
        self.index.remove(&key);
        let len = bytes.len();
        if len == 0 || len > self.budget / 4 {
            return;
        }
        let at = if self.head + len <= self.budget {
            self.head
        } else {
            // Whatever lies past the head is from the previous lap, and
            // older than anything at the front.
            let head = self.head;
            self.evict_while(|at, _| at >= head);
            0
        };
        self.evict_while(|e_at, e_len| e_at < at + len && at < e_at + e_len);
        if at + len > self.ring.len() {
            if self.ring.capacity() == 0 {
                self.ring.reserve_exact(self.budget);
            }
            // Every entry past `at` overlapped this one and is gone.
            self.ring.truncate(at);
            self.ring.extend_from_slice(bytes);
        } else {
            self.ring[at..at + len].copy_from_slice(bytes);
        }
        self.head = at + len;
        self.order.push_back((key, at, len));
        self.index.insert(key, Slot { at, len, tag });
    }

    /// Drop the oldest entries while `hit(offset, length)` holds for the
    /// oldest.
    fn evict_while(&mut self, hit: impl Fn(usize, usize) -> bool) {
        while let Some(&(key, at, len)) = self.order.front() {
            if !hit(at, len) {
                return;
            }
            self.order.pop_front();
            if self.index.get(&key).is_some_and(|s| s.at == at) {
                self.index.remove(&key);
            }
        }
    }

    /// Bytes held by the entries that [`ByteRing::get`] can return.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.index.values().map(|s| s.len).sum()
    }
}

/// This thread's memos of the model's two pure byte functions.
struct Memos {
    /// [`BufInit::generate`] on (variant, seed, `lo` bits, `hi` bits,
    /// size).
    inputs: PayloadFifo<(u8, u64, u32, u32, u64)>,
    /// [`readback_checksum`] on (length, [`fingerprint`]), tagged with
    /// the FNV-1a of the bytes held. It keeps a copy of its own: were it
    /// to share the read-back's payload, which is the device buffer's,
    /// the next kernel to write that buffer would have to copy it.
    readbacks: ByteRing<(usize, u64)>,
}

impl Default for Memos {
    fn default() -> Self {
        Memos {
            inputs: PayloadFifo::new(INPUT_MEMO_BUDGET),
            readbacks: ByteRing::new(READBACK_MEMO_BUDGET),
        }
    }
}

thread_local! {
    static MEMOS: RefCell<Memos> = RefCell::default();
}

/// The offsets of the [`FINGERPRINT_WORDS`] 8-byte words a fingerprint
/// of `len` bytes reads, first and last included (`len >= 8`).
fn fingerprint_offsets(len: usize) -> impl Iterator<Item = usize> {
    (0..FINGERPRINT_WORDS).map(move |i| i * (len - 8) / (FINGERPRINT_WORDS - 1))
}

/// A cheap hash of `data`'s length and a few sampled words: it picks the
/// one memo entry that may hold `data`, and never stands in for a byte
/// comparison.
fn fingerprint(data: &[u8]) -> u64 {
    fingerprint_offsets(data.len()).fold(data.len() as u64, |h, at| {
        let word = u64::from_le_bytes(data[at..at + 8].try_into().expect("an 8-byte slice"));
        (h ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    })
}

/// The FNV-1a checksum of a read-back buffer, as [`fnv1a64`] computes
/// it. A buffer of at least 4 KiB goes through this thread's read-back
/// memo: an entry with the same length and fingerprint (a few sampled
/// words) answers only if its bytes equal `data`, so a fingerprint
/// collision costs a fresh hash, never a wrong checksum.
pub fn readback_checksum(data: &[u8]) -> u64 {
    if data.len() < MEMO_MIN_READBACK {
        return fnv1a64(data);
    }
    let key = (data.len(), fingerprint(data));
    MEMOS.with_borrow_mut(|m| {
        if let Some((bytes, hash)) = m.readbacks.get(&key) {
            if bytes == data {
                return *hash;
            }
        }
        let hash = fnv1a64(data);
        m.readbacks.insert(key, data, hash);
        hash
    })
}

/// One host-code operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `clGetPlatformIDs`; stores the first platform.
    GetPlatform { out: Reg },
    /// `clGetDeviceIDs`; stores up to `count` devices in consecutive
    /// registers starting at `out` (missing slots repeat the first).
    GetDevices {
        platform: Reg,
        dtype: DeviceType,
        out: Reg,
        count: u16,
    },
    /// `clCreateContext` over one device.
    CreateContext { device: Reg, out: Reg },
    /// `clCreateCommandQueue`.
    CreateQueue { context: Reg, device: Reg, out: Reg },
    /// `clCreateBuffer`, optionally initialised via `COPY_HOST_PTR`.
    CreateBuffer {
        context: Reg,
        flags: MemFlags,
        size: u64,
        init: Option<BufInit>,
        out: Reg,
    },
    /// `clEnqueueWriteBuffer` (blocking) with generated data.
    WriteBuffer {
        queue: Reg,
        buf: Reg,
        size: u64,
        init: BufInit,
    },
    /// `clEnqueueReadBuffer` (blocking); the FNV-64 of the bytes is
    /// appended to the application's checksum log.
    ReadBufferChecksum { queue: Reg, buf: Reg, size: u64 },
    /// `clCreateProgramWithSource` from the named corpus program.
    CreateProgram {
        name: String,
        context: Reg,
        out: Reg,
    },
    /// `clBuildProgram`.
    BuildProgram { prog: Reg },
    /// `clCreateKernel`.
    CreateKernel { prog: Reg, name: String, out: Reg },
    /// `clCreateSampler`.
    CreateSampler { context: Reg, out: Reg },
    /// `clSetKernelArg` with a buffer handle.
    SetArgMem { kernel: Reg, index: u32, buf: Reg },
    /// `clSetKernelArg` with a sampler handle.
    SetArgSampler {
        kernel: Reg,
        index: u32,
        sampler: Reg,
    },
    /// `clSetKernelArg` with a `u32` scalar.
    SetArgU32 { kernel: Reg, index: u32, value: u32 },
    /// `clSetKernelArg` with an `f32` scalar.
    SetArgF32 { kernel: Reg, index: u32, value: f32 },
    /// `clSetKernelArg` declaring `__local` scratch.
    SetArgLocal { kernel: Reg, index: u32, size: u64 },
    /// `clEnqueueNDRangeKernel`.
    Launch {
        kernel: Reg,
        queue: Reg,
        global: [u64; 3],
        local: Option<[u64; 3]>,
    },
    /// `clFinish`.
    Finish { queue: Reg },
    /// `clEnqueueMarker`, event stored.
    Marker { queue: Reg, out: Reg },
    /// `clWaitForEvents` on one stored event.
    WaitEvent { event: Reg },
    /// `clReleaseMemObject`.
    ReleaseMem { buf: Reg },
    /// `clCreateImage2D` (single-channel float texels).
    CreateImage {
        context: Reg,
        width: u64,
        height: u64,
        init: Option<BufInit>,
        out: Reg,
    },
    /// `clEnqueueReadImage` (whole image, blocking) with checksum.
    ReadImageChecksum { queue: Reg, image: Reg },
}

impl_codec_enum!(Op, "Op tag", {
    0 => GetPlatform { out },
    1 => GetDevices { platform, dtype, out, count },
    2 => CreateContext { device, out },
    3 => CreateQueue { context, device, out },
    4 => CreateBuffer { context, flags, size, init, out },
    5 => WriteBuffer { queue, buf, size, init },
    6 => ReadBufferChecksum { queue, buf, size },
    7 => CreateProgram { name, context, out },
    8 => BuildProgram { prog },
    9 => CreateKernel { prog, name, out },
    10 => CreateSampler { context, out },
    11 => SetArgMem { kernel, index, buf },
    12 => SetArgSampler { kernel, index, sampler },
    13 => SetArgU32 { kernel, index, value },
    14 => SetArgF32 { kernel, index, value },
    15 => SetArgLocal { kernel, index, size },
    16 => Launch { kernel, queue, global, local },
    17 => Finish { queue },
    18 => Marker { queue, out },
    19 => WaitEvent { event },
    20 => ReleaseMem { buf },
    21 => CreateImage { context, width, height, init, out },
    22 => ReadImageChecksum { queue, image },
});

/// A complete benchmark program.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Script {
    /// Instructions in execution order.
    pub ops: Vec<Op>,
}

impl Script {
    /// Number of `Launch` ops in the script.
    pub fn kernel_launches(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Launch { .. }))
            .count()
    }
}

impl_codec_struct!(Script { ops });

/// The live (and checkpointable) state of a running application.
#[derive(Clone, Debug, PartialEq)]
pub struct AppProgram {
    /// The program text.
    pub script: Script,
    /// Program counter: next op to execute.
    pub pc: u64,
    /// Handle register file.
    pub regs: Vec<u64>,
    /// Checksum log from `ReadBufferChecksum` ops.
    pub checksums: Vec<u64>,
    /// Kernel launches executed so far.
    pub kernels_launched: u64,
}

impl_codec_struct!(AppProgram {
    script,
    pc,
    regs,
    checksums,
    kernels_launched
});

impl AppProgram {
    /// Load a script, ready to run from the first op.
    pub fn new(script: Script) -> Self {
        AppProgram {
            script,
            pc: 0,
            regs: vec![0; NUM_REGS],
            checksums: Vec::new(),
            kernels_launched: 0,
        }
    }

    /// `true` once every op has executed.
    pub fn is_done(&self) -> bool {
        self.pc as usize >= self.script.ops.len()
    }

    fn reg(&self, r: Reg) -> u64 {
        self.regs[r as usize]
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r as usize] = v;
    }

    /// Execute exactly one op against `api`, advancing `now`.
    pub fn step(&mut self, api: &mut dyn ClApi, now: &mut SimTime) -> ClResult<()> {
        let op = self.script.ops[self.pc as usize].clone();
        self.exec(api, now, &op)?;
        self.pc += 1;
        Ok(())
    }

    /// Run until `stop` is satisfied (or the script ends).
    pub fn run_until(
        &mut self,
        api: &mut dyn ClApi,
        now: &mut SimTime,
        stop: StopCondition,
    ) -> ClResult<RunStatus> {
        while !self.is_done() {
            self.step(api, now)?;
            if stop.reached(self) {
                return Ok(RunStatus::Paused);
            }
        }
        Ok(RunStatus::Done)
    }

    fn exec(&mut self, api: &mut dyn ClApi, now: &mut SimTime, op: &Op) -> ClResult<()> {
        match op {
            Op::GetPlatform { out } => {
                let platforms = api
                    .call(now, ApiRequest::GetPlatformIds)?
                    .into_platforms()?;
                self.set_reg(*out, platforms[0].raw().0);
            }
            Op::GetDevices {
                platform,
                dtype,
                out,
                count,
            } => {
                let devices = api
                    .call(
                        now,
                        ApiRequest::GetDeviceIds {
                            platform: clspec::PlatformId::from_raw(RawHandle(self.reg(*platform))),
                            device_type: *dtype,
                        },
                    )?
                    .into_devices()?;
                for i in 0..*count {
                    let dev = devices.get(i as usize).unwrap_or(&devices[0]);
                    self.set_reg(out + i, dev.raw().0);
                }
            }
            Op::CreateContext { device, out } => {
                let ctx = api
                    .call(
                        now,
                        ApiRequest::CreateContext {
                            devices: vec![DeviceId::from_raw(RawHandle(self.reg(*device)))],
                        },
                    )?
                    .into_context()?;
                self.set_reg(*out, ctx.raw().0);
            }
            Op::CreateQueue {
                context,
                device,
                out,
            } => {
                let q = api
                    .call(
                        now,
                        ApiRequest::CreateCommandQueue {
                            context: Context::from_raw(RawHandle(self.reg(*context))),
                            device: DeviceId::from_raw(RawHandle(self.reg(*device))),
                            props: QueueProps::default(),
                        },
                    )?
                    .into_queue()?;
                self.set_reg(*out, q.raw().0);
            }
            Op::CreateBuffer {
                context,
                flags,
                size,
                init,
                out,
            } => {
                let host_data = init.as_ref().map(|i| i.generate(*size));
                let mut flags = *flags;
                if host_data.is_some() && !flags.contains(MemFlags::USE_HOST_PTR) {
                    flags = flags | MemFlags::COPY_HOST_PTR;
                }
                let mem = api
                    .call(
                        now,
                        ApiRequest::CreateBuffer {
                            context: Context::from_raw(RawHandle(self.reg(*context))),
                            flags,
                            size: *size,
                            host_data,
                        },
                    )?
                    .into_mem()?;
                self.set_reg(*out, mem.raw().0);
            }
            Op::WriteBuffer {
                queue,
                buf,
                size,
                init,
            } => {
                let data = init.generate(*size);
                let ev = api
                    .call(
                        now,
                        ApiRequest::EnqueueWriteBuffer {
                            queue: CommandQueue::from_raw(RawHandle(self.reg(*queue))),
                            mem: Mem::from_raw(RawHandle(self.reg(*buf))),
                            blocking: true,
                            offset: 0,
                            data,
                            wait_list: vec![],
                        },
                    )?
                    .into_event()?;
                api.call(now, ApiRequest::ReleaseEvent { event: ev })?;
            }
            Op::ReadBufferChecksum { queue, buf, size } => {
                let (data, ev) = api
                    .call(
                        now,
                        ApiRequest::EnqueueReadBuffer {
                            queue: CommandQueue::from_raw(RawHandle(self.reg(*queue))),
                            mem: Mem::from_raw(RawHandle(self.reg(*buf))),
                            blocking: true,
                            offset: 0,
                            size: *size,
                            wait_list: vec![],
                        },
                    )?
                    .into_data_event()?;
                api.call(now, ApiRequest::ReleaseEvent { event: ev })?;
                self.checksums.push(readback_checksum(&data));
            }
            Op::CreateProgram { name, context, out } => {
                let source = clkernels::program_source(name)
                    .unwrap_or_else(|| panic!("unknown corpus program {name}"))
                    .source;
                let p = api
                    .call(
                        now,
                        ApiRequest::CreateProgramWithSource {
                            context: Context::from_raw(RawHandle(self.reg(*context))),
                            source,
                        },
                    )?
                    .into_program()?;
                self.set_reg(*out, p.raw().0);
            }
            Op::BuildProgram { prog } => {
                api.call(
                    now,
                    ApiRequest::BuildProgram {
                        program: Program::from_raw(RawHandle(self.reg(*prog))),
                        options: String::new(),
                    },
                )?;
            }
            Op::CreateKernel { prog, name, out } => {
                let k = api
                    .call(
                        now,
                        ApiRequest::CreateKernel {
                            program: Program::from_raw(RawHandle(self.reg(*prog))),
                            name: name.clone(),
                        },
                    )?
                    .into_kernel()?;
                self.set_reg(*out, k.raw().0);
            }
            Op::CreateSampler { context, out } => {
                let s = api
                    .call(
                        now,
                        ApiRequest::CreateSampler {
                            context: Context::from_raw(RawHandle(self.reg(*context))),
                            desc: SamplerDesc {
                                normalized_coords: true,
                                addressing_mode: 0,
                                filter_mode: 0,
                            },
                        },
                    )?
                    .into_sampler()?;
                self.set_reg(*out, s.raw().0);
            }
            Op::SetArgMem { kernel, index, buf } => {
                self.set_arg(
                    api,
                    now,
                    *kernel,
                    *index,
                    ArgValue::handle(RawHandle(self.reg(*buf))),
                )?;
            }
            Op::SetArgSampler {
                kernel,
                index,
                sampler,
            } => {
                self.set_arg(
                    api,
                    now,
                    *kernel,
                    *index,
                    ArgValue::handle(RawHandle(self.reg(*sampler))),
                )?;
            }
            Op::SetArgU32 {
                kernel,
                index,
                value,
            } => {
                self.set_arg(api, now, *kernel, *index, ArgValue::scalar(*value))?;
            }
            Op::SetArgF32 {
                kernel,
                index,
                value,
            } => {
                self.set_arg(api, now, *kernel, *index, ArgValue::scalar(*value))?;
            }
            Op::SetArgLocal {
                kernel,
                index,
                size,
            } => {
                self.set_arg(api, now, *kernel, *index, ArgValue::LocalMem(*size))?;
            }
            Op::Launch {
                kernel,
                queue,
                global,
                local,
            } => {
                let nd = |s: &[u64; 3]| NDRange {
                    dims: if s[2] > 1 {
                        3
                    } else if s[1] > 1 {
                        2
                    } else {
                        1
                    },
                    sizes: *s,
                };
                let ev = api
                    .call(
                        now,
                        ApiRequest::EnqueueNDRangeKernel {
                            queue: CommandQueue::from_raw(RawHandle(self.reg(*queue))),
                            kernel: Kernel::from_raw(RawHandle(self.reg(*kernel))),
                            global: nd(global),
                            local: local.as_ref().map(nd),
                            wait_list: vec![],
                        },
                    )?
                    .into_event()?;
                api.call(now, ApiRequest::ReleaseEvent { event: ev })?;
                self.kernels_launched += 1;
            }
            Op::Finish { queue } => {
                api.call(
                    now,
                    ApiRequest::Finish {
                        queue: CommandQueue::from_raw(RawHandle(self.reg(*queue))),
                    },
                )?;
            }
            Op::Marker { queue, out } => {
                let ev = api
                    .call(
                        now,
                        ApiRequest::EnqueueMarker {
                            queue: CommandQueue::from_raw(RawHandle(self.reg(*queue))),
                        },
                    )?
                    .into_event()?;
                self.set_reg(*out, ev.raw().0);
            }
            Op::WaitEvent { event } => {
                api.call(
                    now,
                    ApiRequest::WaitForEvents {
                        events: vec![Event::from_raw(RawHandle(self.reg(*event)))],
                    },
                )?;
            }
            Op::ReleaseMem { buf } => {
                api.call(
                    now,
                    ApiRequest::ReleaseMemObject {
                        mem: Mem::from_raw(RawHandle(self.reg(*buf))),
                    },
                )?;
            }
            Op::CreateImage {
                context,
                width,
                height,
                init,
                out,
            } => {
                let host_data = init.as_ref().map(|i| i.generate(width * height * 4));
                let flags = if host_data.is_some() {
                    MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR
                } else {
                    MemFlags::READ_WRITE
                };
                let mem = api
                    .call(
                        now,
                        ApiRequest::CreateImage2D {
                            context: Context::from_raw(RawHandle(self.reg(*context))),
                            flags,
                            width: *width,
                            height: *height,
                            host_data,
                        },
                    )?
                    .into_mem()?;
                self.set_reg(*out, mem.raw().0);
            }
            Op::ReadImageChecksum { queue, image } => {
                let (data, ev) = api
                    .call(
                        now,
                        ApiRequest::EnqueueReadImage {
                            queue: CommandQueue::from_raw(RawHandle(self.reg(*queue))),
                            image: Mem::from_raw(RawHandle(self.reg(*image))),
                            blocking: true,
                            wait_list: vec![],
                        },
                    )?
                    .into_data_event()?;
                api.call(now, ApiRequest::ReleaseEvent { event: ev })?;
                self.checksums.push(readback_checksum(&data));
            }
        }
        Ok(())
    }

    fn set_arg(
        &self,
        api: &mut dyn ClApi,
        now: &mut SimTime,
        kernel: Reg,
        index: u32,
        value: ArgValue,
    ) -> ClResult<()> {
        api.call(
            now,
            ApiRequest::SetKernelArg {
                kernel: Kernel::from_raw(RawHandle(self.reg(kernel))),
                index,
                value,
            },
        )?
        .into_unit()
    }
}

/// Where to pause execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// Run the whole script.
    Completion,
    /// Stop right after the n-th kernel launch (1-based), leaving the
    /// command in flight.
    AfterKernel(u64),
    /// Stop after `n` ops.
    AfterOps(u64),
}

impl StopCondition {
    /// Whether `program` has reached this stop point
    /// ([`StopCondition::Completion`] never pauses).
    pub fn reached(&self, program: &AppProgram) -> bool {
        match *self {
            StopCondition::Completion => false,
            StopCondition::AfterKernel(n) => program.kernels_launched >= n,
            StopCondition::AfterOps(n) => program.pc >= n,
        }
    }
}

/// Result of a `run_until`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Script completed.
    Done,
    /// Stop condition hit; more ops remain.
    Paused,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Codec;

    #[test]
    fn bufinit_deterministic() {
        let a = BufInit::RandomF32 {
            seed: 7,
            lo: 0.0,
            hi: 1.0,
        }
        .generate(64);
        let b = BufInit::RandomF32 {
            seed: 7,
            lo: 0.0,
            hi: 1.0,
        }
        .generate(64);
        assert_eq!(a, b);
        let c = BufInit::RandomF32 {
            seed: 8,
            lo: 0.0,
            hi: 1.0,
        }
        .generate(64);
        assert_ne!(a, c);
        assert_eq!(*BufInit::Zero.generate(16), [0u8; 16]);
        let ramp = BufInit::Ramp.generate(12);
        assert_eq!(f32::from_le_bytes(ramp[4..8].try_into().unwrap()), 1.0);
    }

    /// Every variant, sizes that are not a multiple of 4, `lo` at `0.0`
    /// and `-0.0`, and one seed at two sizes: the memo's first and second
    /// answer both equal a fresh materialisation.
    #[test]
    fn memoised_generate_equals_fresh_materialisation() {
        let inits = [
            BufInit::Zero,
            BufInit::Ramp,
            BufInit::RandomU32 { seed: 11 },
            BufInit::RandomF32 {
                seed: 11,
                lo: 0.0,
                hi: 1.0,
            },
            BufInit::RandomF32 {
                seed: 11,
                lo: -0.0,
                hi: 1.0,
            },
            BufInit::RandomF32 {
                seed: 11,
                lo: -0.0,
                hi: -0.0,
            },
        ];
        for init in inits {
            for size in [0, 1, 6, 4097, 4099, 65536, 65538] {
                let fresh = init.materialise(size);
                assert_eq!(fresh.len(), size as usize);
                assert_eq!(*init.generate(size), *fresh, "{init:?} at {size} (miss)");
                assert_eq!(*init.generate(size), *fresh, "{init:?} at {size} (hit)");
            }
        }
    }

    #[test]
    fn memoised_generate_is_exact() {
        simcore::qcheck::qcheck("memoised_generate_is_exact", 64, |g| {
            // A few seeds and bounds, so that cases meet memo entries.
            let seed = g.range(0, 4);
            let bounds = [0.0f32, -0.0, 1.0, -3.5];
            let init = match g.range(0, 4) {
                0 => BufInit::Zero,
                1 => BufInit::Ramp,
                2 => BufInit::RandomU32 { seed },
                _ => BufInit::RandomF32 {
                    seed,
                    lo: *g.pick(&bounds),
                    hi: *g.pick(&bounds),
                },
            };
            let size = g.range(0, 20_000);
            assert_eq!(*init.generate(size), *init.materialise(size));
        });
    }

    #[test]
    fn readback_checksum_equals_fnv1a64() {
        simcore::qcheck::qcheck("readback_checksum_equals_fnv1a64", 48, |g| {
            let len = g.usize_in(0, 3 * MEMO_MIN_READBACK);
            let data = g.bytes(len);
            // A miss, then a hit.
            assert_eq!(readback_checksum(&data), fnv1a64(&data));
            assert_eq!(readback_checksum(&data), fnv1a64(&data));
            // Same length, one byte changed anywhere: a fresh entry or a
            // collision with `data`'s, never `data`'s checksum.
            let mut edited = data.clone();
            if len > 0 {
                let at = g.usize_in(0, len);
                edited[at] = edited[at].wrapping_add(1);
            }
            for buf in [&edited, &data, &edited] {
                assert_eq!(readback_checksum(buf), fnv1a64(buf));
            }
        });
    }

    /// Same-length buffers that differ in one byte the fingerprint does
    /// not read, interleaved.
    #[test]
    fn readback_checksum_compares_bytes_on_a_fingerprint_match() {
        let mut g = simcore::qcheck::Gen::new(0xc011);
        for len in [MEMO_MIN_READBACK, 3 * MEMO_MIN_READBACK + 5, 1 << 20] {
            let a = g.bytes(len);
            let sampled: Vec<usize> = fingerprint_offsets(len).collect();
            let at = (0..len)
                .find(|&i| !sampled.iter().any(|&s| (s..s + 8).contains(&i)))
                .expect("a fingerprint reads few words");
            let mut b = a.clone();
            b[at] ^= 0x5a;
            assert_eq!(fingerprint(&a), fingerprint(&b));
            for buf in [&a, &b, &a, &b] {
                assert_eq!(readback_checksum(buf), fnv1a64(buf), "len {len}");
            }
        }
    }

    #[test]
    fn readback_checksum_after_eviction() {
        // Quarter-budget buffers, the largest the memo admits, one more
        // than the ring holds.
        let len = READBACK_MEMO_BUDGET / 4;
        let bufs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; len]).collect();
        for buf in bufs.iter().chain(&bufs) {
            assert_eq!(readback_checksum(buf), fnv1a64(buf));
        }
        MEMOS.with_borrow(|m| {
            let r = &m.readbacks;
            assert!(r.held() <= READBACK_MEMO_BUDGET);
            assert!(r.ring.len() <= READBACK_MEMO_BUDGET);
            assert!(r.index.len() < bufs.len());
            for (key, slot) in &r.index {
                assert!(r.order.contains(&(*key, slot.at, slot.len)));
            }
        });
    }

    /// A read-back over a quarter of the budget is hashed and returned,
    /// and the full ring it would have flushed stays as it was.
    #[test]
    fn an_oversize_readback_evicts_nothing() {
        let len = READBACK_MEMO_BUDGET / 4;
        let held: Vec<Vec<u8>> = (1..5u8).map(|i| vec![i; len]).collect();
        for buf in &held {
            assert_eq!(readback_checksum(buf), fnv1a64(buf));
        }
        let state = || {
            MEMOS.with_borrow(|m| {
                let r = &m.readbacks;
                let mut keys: Vec<_> = r.index.keys().copied().collect();
                keys.sort_unstable();
                (r.head, r.order.len(), keys)
            })
        };
        let before = state();
        assert_eq!(before.2.len(), held.len(), "the ring is full");
        let oversize = vec![9u8; len + 1];
        for _ in 0..2 {
            assert_eq!(readback_checksum(&oversize), fnv1a64(&oversize));
            assert_eq!(state(), before);
        }
        for buf in &held {
            let key = (buf.len(), fingerprint(buf));
            MEMOS.with_borrow(|m| {
                let (bytes, hash) = m.readbacks.get(&key).expect("still held");
                assert_eq!(bytes, buf.as_slice());
                assert_eq!(*hash, fnv1a64(buf));
            });
            assert_eq!(readback_checksum(buf), fnv1a64(buf));
        }
    }

    /// A ring driven through random filings, re-filings (some turned
    /// away) and wrap-arounds, against a plain FIFO of every admitted
    /// filing and a map of each key's latest. The ring lists the newest
    /// filings in order, so eviction takes the oldest first. Once it has
    /// evicted, they span more than the budget less two admission limits
    /// (the gap left before a wrap and the one in front of the head).
    /// Each key hits exactly when its latest filing is listed, and a hit
    /// equals a fresh computation.
    #[test]
    fn byte_ring_matches_a_fifo_model() {
        simcore::qcheck::qcheck("byte_ring_matches_a_fifo_model", 64, |g| {
            let budget = g.usize_in(64, 4096);
            let limit = budget / 4;
            let mut ring: ByteRing<u8> = ByteRing::new(budget);
            let keys = g.usize_in(1, 16) as u8;
            // Admitted filings, oldest first, as (key, length), and each
            // key's latest as (version, length, filing number).
            let mut fifo: VecDeque<(u8, usize)> = VecDeque::new();
            let mut latest: HashMap<u8, (u64, usize, usize)> = HashMap::new();
            let (mut filed, mut evicted) = (0, 0);
            let bytes_of = |key: u8, version: u64, len: usize| {
                let seed = (key as u64) << 32 | version;
                BufInit::RandomU32 { seed }.materialise(len as u64)
            };
            for version in 0..g.range(1, 300) {
                let key = g.range(0, keys as u64) as u8;
                // A re-filed key may change its length, as neither memo's
                // keys can.
                let len = match g.range(0, 8) {
                    0 => limit + g.usize_in(1, limit + 2),
                    1 => limit,
                    _ => g.usize_in(0, limit + 1),
                };
                let bytes = bytes_of(key, version, len);
                ring.insert(key, &bytes, fnv1a64(&bytes));
                latest.remove(&key);
                if len > 0 && len <= limit {
                    fifo.push_back((key, len));
                    latest.insert(key, (version, len, filed));
                    filed += 1;
                }

                let listed: Vec<(u8, usize)> = ring.order.iter().map(|&(k, _, l)| (k, l)).collect();
                let dropped = fifo
                    .len()
                    .checked_sub(listed.len())
                    .expect("listed ⊆ filed");
                assert!(
                    fifo.iter().skip(dropped).eq(listed.iter()),
                    "not the newest filings"
                );
                fifo.drain(..dropped);
                evicted += dropped;
                let span: usize = listed.iter().map(|&(_, l)| l).sum();
                assert!(span <= budget && ring.ring.capacity() <= budget);
                assert!(ring.held() <= span);
                if evicted > 0 {
                    assert!(
                        span + 2 * limit > budget,
                        "evicted early: {span} of {budget}"
                    );
                }
                for k in 0..keys {
                    let want = latest.get(&k).filter(|&&(_, _, n)| n >= evicted);
                    match (ring.get(&k), want) {
                        (None, None) => {}
                        (Some((bytes, &hash)), Some(&(v, len, _))) => {
                            assert_eq!(bytes, bytes_of(k, v, len));
                            assert_eq!(hash, fnv1a64(bytes));
                        }
                        (got, _) => panic!("key {k}: hit {} against {want:?}", got.is_some()),
                    }
                }
            }
        });
    }

    #[test]
    fn script_codec_roundtrip() {
        let script = Script {
            ops: vec![
                Op::GetPlatform { out: 0 },
                Op::GetDevices {
                    platform: 0,
                    dtype: DeviceType::Gpu,
                    out: 1,
                    count: 2,
                },
                Op::CreateContext { device: 1, out: 3 },
                Op::CreateBuffer {
                    context: 3,
                    flags: MemFlags::READ_WRITE,
                    size: 1024,
                    init: Some(BufInit::Ramp),
                    out: 4,
                },
                Op::CreateProgram {
                    name: "vector_add".into(),
                    context: 3,
                    out: 5,
                },
                Op::SetArgF32 {
                    kernel: 6,
                    index: 3,
                    value: 2.5,
                },
                Op::Launch {
                    kernel: 6,
                    queue: 7,
                    global: [1024, 1, 1],
                    local: Some([256, 1, 1]),
                },
                Op::Finish { queue: 7 },
            ],
        };
        let bytes = script.to_bytes();
        assert_eq!(Script::from_bytes(&bytes).unwrap(), script);
        assert_eq!(script.kernel_launches(), 1);
    }

    #[test]
    fn app_program_codec_roundtrip_mid_run() {
        let mut app = AppProgram::new(Script {
            ops: vec![Op::GetPlatform { out: 0 }, Op::Finish { queue: 1 }],
        });
        app.pc = 1;
        app.regs[0] = 0xdead;
        app.checksums.push(42);
        app.kernels_launched = 3;
        let back = AppProgram::from_bytes(&app.to_bytes()).unwrap();
        assert_eq!(back, app);
        assert!(!back.is_done());
    }

    #[test]
    fn runs_against_a_driver() {
        let mut drv = cldriver::Driver::new(cldriver::vendor::nimbus(), osproc::Pid(1));
        let mut now = SimTime::ZERO;
        let mut app = AppProgram::new(Script {
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
                Op::CreateBuffer {
                    context: 2,
                    flags: MemFlags::READ_WRITE,
                    size: 64,
                    init: Some(BufInit::Ramp),
                    out: 4,
                },
                Op::ReadBufferChecksum {
                    queue: 3,
                    buf: 4,
                    size: 64,
                },
            ],
        });
        let status = app
            .run_until(&mut drv, &mut now, StopCondition::Completion)
            .unwrap();
        assert_eq!(status, RunStatus::Done);
        assert_eq!(app.checksums.len(), 1);
        assert_eq!(app.checksums[0], fnv1a64(&BufInit::Ramp.generate(64)));
    }

    /// A buffer created from an input-memo hit, and one written from
    /// another, are each written in place by a kernel; an image created
    /// from a hit is read by one. Every read-back is the kernels'
    /// result, and the memo still holds, unchanged, the bytes it filed.
    #[test]
    fn kernel_writes_leave_the_input_memo_intact() {
        let (n, w, h) = (1024u32, 32u32, 16u32);
        let (size, image_size) = (n as u64 * 4, (w * h) as u64 * 4);
        let buf_init = BufInit::RandomF32 {
            seed: 0x3e30,
            lo: -1.0,
            hi: 1.0,
        };
        let image_init = BufInit::RandomF32 {
            seed: 0x3e31,
            lo: 0.0,
            hi: 4.0,
        };
        // Filed now, so that every generate of the script hits.
        let filed =
            [(buf_init, size), (image_init, image_size)].map(|(i, s)| (i, s, i.generate(s)));
        let u32_arg = |kernel, index, value| Op::SetArgU32 {
            kernel,
            index,
            value,
        };
        let mut ops = vec![
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
            Op::CreateBuffer {
                context: 2,
                flags: MemFlags::READ_WRITE,
                size,
                init: Some(buf_init),
                out: 4,
            },
            Op::CreateBuffer {
                context: 2,
                flags: MemFlags::READ_WRITE,
                size,
                init: None,
                out: 5,
            },
            Op::WriteBuffer {
                queue: 3,
                buf: 5,
                size,
                init: buf_init,
            },
            Op::CreateProgram {
                name: "max_flops".into(),
                context: 2,
                out: 6,
            },
            Op::BuildProgram { prog: 6 },
            Op::CreateKernel {
                prog: 6,
                name: "max_flops".into(),
                out: 7,
            },
        ];
        for buf in [4, 5] {
            ops.extend([
                Op::SetArgMem {
                    kernel: 7,
                    index: 0,
                    buf,
                },
                u32_arg(7, 1, n),
                u32_arg(7, 2, 3),
                Op::Launch {
                    kernel: 7,
                    queue: 3,
                    global: [n as u64, 1, 1],
                    local: None,
                },
                Op::ReadBufferChecksum {
                    queue: 3,
                    buf,
                    size,
                },
            ]);
        }
        ops.extend([
            Op::CreateImage {
                context: 2,
                width: w as u64,
                height: h as u64,
                init: Some(image_init),
                out: 8,
            },
            Op::CreateBuffer {
                context: 2,
                flags: MemFlags::READ_WRITE,
                size: image_size,
                init: None,
                out: 9,
            },
            Op::CreateProgram {
                name: "image_demo".into(),
                context: 2,
                out: 10,
            },
            Op::BuildProgram { prog: 10 },
            Op::CreateKernel {
                prog: 10,
                name: "image_scale".into(),
                out: 11,
            },
            Op::CreateSampler {
                context: 2,
                out: 12,
            },
            Op::SetArgMem {
                kernel: 11,
                index: 0,
                buf: 8,
            },
            Op::SetArgSampler {
                kernel: 11,
                index: 1,
                sampler: 12,
            },
            Op::SetArgMem {
                kernel: 11,
                index: 2,
                buf: 9,
            },
            u32_arg(11, 3, w),
            u32_arg(11, 4, h),
            Op::Launch {
                kernel: 11,
                queue: 3,
                global: [w as u64, h as u64, 1],
                local: None,
            },
            Op::ReadImageChecksum { queue: 3, image: 8 },
            Op::ReadBufferChecksum {
                queue: 3,
                buf: 9,
                size: image_size,
            },
        ]);
        let mut drv = cldriver::Driver::new(cldriver::vendor::nimbus(), osproc::Pid(1));
        let mut now = SimTime::ZERO;
        let mut app = AppProgram::new(Script { ops });
        let status = app
            .run_until(&mut drv, &mut now, StopCondition::Completion)
            .unwrap();
        assert_eq!(status, RunStatus::Done);

        let scalar = |v: u32| clkernels::ArgData::Scalar(v.to_le_bytes().to_vec());
        let mut flops = [
            clkernels::ArgData::buffer_of(buf_init.materialise(size)),
            scalar(n),
            scalar(3),
        ];
        clkernels::execute("max_flops", &mut flops).unwrap();
        let flopped = fnv1a64(flops[0].buffer().unwrap());
        assert_ne!(flopped, fnv1a64(&filed[0].2), "the kernel wrote");
        let image = image_init.materialise(image_size);
        let mut scale = [
            clkernels::ArgData::buffer_of(image.clone()),
            clkernels::ArgData::Scalar(vec![0; 8]),
            clkernels::ArgData::buffer_of(vec![0u8; image_size as usize]),
            scalar(w),
            scalar(h),
        ];
        clkernels::execute("image_scale", &mut scale).unwrap();
        let scaled = fnv1a64(scale[2].buffer().unwrap());
        assert_eq!(app.checksums, [flopped, flopped, fnv1a64(&image), scaled]);
        for (init, size, bytes) in &filed {
            let again = init.generate(*size);
            assert!(again.ptr_eq(bytes), "{init:?}: still filed");
            assert_eq!(*again, *init.materialise(*size), "{init:?}");
        }
    }

    #[test]
    fn pause_after_kernel_leaves_work_in_flight() {
        let mut drv = cldriver::Driver::new(cldriver::vendor::nimbus(), osproc::Pid(1));
        let mut now = SimTime::ZERO;
        let mut app = AppProgram::new(Script {
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
                Op::CreateBuffer {
                    context: 2,
                    flags: MemFlags::READ_WRITE,
                    size: 4096,
                    init: Some(BufInit::Ramp),
                    out: 4,
                },
                Op::CreateProgram {
                    name: "max_flops".into(),
                    context: 2,
                    out: 5,
                },
                Op::BuildProgram { prog: 5 },
                Op::CreateKernel {
                    prog: 5,
                    name: "max_flops".into(),
                    out: 6,
                },
                Op::SetArgMem {
                    kernel: 6,
                    index: 0,
                    buf: 4,
                },
                Op::SetArgU32 {
                    kernel: 6,
                    index: 1,
                    value: 1024,
                },
                Op::SetArgU32 {
                    kernel: 6,
                    index: 2,
                    value: 4,
                },
                Op::Launch {
                    kernel: 6,
                    queue: 3,
                    global: [1024, 1, 1],
                    local: None,
                },
                Op::Finish { queue: 3 },
            ],
        });
        let status = app
            .run_until(&mut drv, &mut now, StopCondition::AfterKernel(1))
            .unwrap();
        assert_eq!(status, RunStatus::Paused);
        assert_eq!(app.kernels_launched, 1);
        assert!(!app.is_done()); // Finish not yet executed
                                 // Resume.
        let status = app
            .run_until(&mut drv, &mut now, StopCondition::Completion)
            .unwrap();
        assert_eq!(status, RunStatus::Done);
    }
}
