//! The vendor driver: a full `ClApi` implementation.

use crate::device::DeviceProfile;
use crate::vendor::{VendorConfig, VendorKind, BINARY_VERSION};
use clkernels::{ArgData, KernelEntry};
use clspec::api::{ApiRequest, ApiResponse, ClApi, RefOp};
use clspec::error::{ClError, ClResult};
use clspec::handles::{
    CommandQueue, Context, DeviceId, Event, HandleKind, Kernel, Mem, PlatformId, Program,
    RawHandle, Sampler,
};
use clspec::sig::{parse_kernel_sigs, KernelSig, ParamKind};
use clspec::types::{
    byte_span, image2d_bytes, ArgValue, DeviceType, EventStatus, MemFlags, NDRange, ProfilingInfo,
    QueueProps,
};
use osproc::Pid;
use simcore::codec::{decode_framed, encode_framed};
use simcore::{telemetry, ByteSize, Payload, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::mem;

/// Cumulative driver statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// API calls served.
    pub api_calls: u64,
    /// Kernels launched.
    pub kernels_launched: u64,
    /// Of those, the launches whose execution was skipped: relaunches
    /// of a rerun-safe kernel over buffers unchanged since its last
    /// launch.
    pub kernels_elided: u64,
    /// Bytes moved host→device.
    pub bytes_htod: u64,
    /// Bytes moved device→host.
    pub bytes_dtoh: u64,
    /// Programs compiled from source.
    pub programs_built: u64,
}

#[derive(Debug)]
struct DeviceState {
    profile: DeviceProfile,
    handle: RawHandle,
    /// When the device's compute engine frees up.
    compute_busy: SimTime,
    /// When the DMA engine frees up.
    dma_busy: SimTime,
    mem_used: u64,
}

#[derive(Debug)]
struct CtxObj {
    devices: Vec<usize>,
    refs: u32,
}

#[derive(Debug)]
struct QueueObj {
    device: usize,
    props: QueueProps,
    /// Completion time of the last command enqueued here (in-order
    /// queue semantics).
    busy_until: SimTime,
    refs: u32,
}

#[derive(Debug)]
struct BufObj {
    device: usize,
    size: u64,
    /// The device memory, shared with whoever else holds these bytes (a
    /// memo, a request, a read-back) until one of them writes.
    data: Payload,
    /// `Some((w, h))` when this mem object is a 2-D image (single
    /// channel, f32 texels); `None` for plain buffers.
    image_dims: Option<(u64, u64)>,
    /// The driver's write clock when `data` last changed.
    version: u64,
    refs: u32,
}

impl BufObj {
    /// Hand out the bytes to change or replace, stamping the buffer with
    /// the next tick of the driver's write clock. Every change to a
    /// buffer's bytes goes through here, so an unchanged `version`
    /// means unchanged bytes.
    fn written(&mut self, clock: &mut u64) -> &mut Payload {
        *clock += 1;
        self.version = *clock;
        &mut self.data
    }
}

#[derive(Debug)]
struct SamplerObj {
    refs: u32,
}

#[derive(Debug)]
struct ProgObj {
    source_len: usize,
    sigs: Vec<KernelSig>,
    /// User-defined struct types whose members contain handles: a real
    /// compiler knows these, and the device faults if a kernel
    /// dereferences a bogus embedded pointer.
    handle_structs: Vec<String>,
    built: bool,
    build_log: String,
    refs: u32,
}

#[derive(Debug)]
struct KernelObj {
    sig: KernelSig,
    handle_structs: Vec<String>,
    args: BTreeMap<u32, ArgValue>,
    /// The last successful launch of a rerun-safe kernel, cleared when
    /// an argument is set to a value it did not hold.
    last_launch: Option<LaunchStamp>,
    refs: u32,
}

/// What a launch ran over: its global size and each bound buffer's
/// `(handle, version)` after it, in argument order.
#[derive(Debug)]
struct LaunchStamp {
    global: [u64; 3],
    buffers: Vec<(u64, u64)>,
}

#[derive(Debug)]
struct EventObj {
    profiling: ProfilingInfo,
    end: SimTime,
    refs: u32,
}

enum EngineKind {
    Compute,
    Dma,
}

/// `(argument index, vendor buffer handle)` pairs whose device bytes
/// are lent to the engine for a launch and returned after it.
type LentList = Vec<(usize, u64)>;

/// A vendor OpenCL driver instance.
///
/// One instance corresponds to one loaded `libOpenCL.so` + device
/// driver in one process. Dropping the instance models process death:
/// every object it owned is gone.
pub struct Driver {
    cfg: VendorConfig,
    salt: u64,
    next_serial: u64,
    platform: RawHandle,
    devices: Vec<DeviceState>,
    contexts: BTreeMap<u64, CtxObj>,
    queues: BTreeMap<u64, QueueObj>,
    buffers: BTreeMap<u64, BufObj>,
    samplers: BTreeMap<u64, SamplerObj>,
    programs: BTreeMap<u64, ProgObj>,
    kernels: BTreeMap<u64, KernelObj>,
    events: BTreeMap<u64, EventObj>,
    /// Ticks once per change to any buffer's bytes ([`BufObj::written`]).
    write_clock: u64,
    stats: DriverStats,
    initialized: bool,
}

impl Driver {
    /// Load a driver for the given vendor into process `host`. Its
    /// handles carry the low 16 bits of `host`'s pid, so an object that
    /// a restart re-creates through a new proxy (§III-C) gets a
    /// *different* handle value: why CheCL keeps its own (§III-B).
    pub fn new(cfg: VendorConfig, host: Pid) -> Self {
        let mut d = Driver {
            salt: u64::from(host.0) & 0xffff,
            platform: RawHandle::NULL,
            devices: Vec::new(),
            contexts: BTreeMap::new(),
            queues: BTreeMap::new(),
            buffers: BTreeMap::new(),
            samplers: BTreeMap::new(),
            programs: BTreeMap::new(),
            kernels: BTreeMap::new(),
            events: BTreeMap::new(),
            write_clock: 0,
            stats: DriverStats::default(),
            next_serial: 0,
            initialized: false,
            cfg,
        };
        d.platform = d.fresh_handle();
        let profiles = d.cfg.devices.clone();
        for profile in profiles {
            let handle = d.fresh_handle();
            d.devices.push(DeviceState {
                profile,
                handle,
                compute_busy: SimTime::ZERO,
                dma_busy: SimTime::ZERO,
                mem_used: 0,
            });
        }
        d
    }

    /// The vendor configuration in force.
    pub fn vendor(&self) -> &VendorConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Device regions this driver maps into its hosting process.
    /// The runner registers these with `osproc` so a conventional CPR
    /// system can observe (and choke on) them.
    pub fn device_files(&self) -> Vec<(String, ByteSize)> {
        self.devices
            .iter()
            .map(|d| {
                // Mapped BAR window: 64 MiB, bounded by device memory.
                let window = ByteSize::mib(64).as_u64().min(d.profile.memory.as_u64());
                (self.cfg.device_file.clone(), ByteSize::bytes(window))
            })
            .collect()
    }

    fn fresh_handle(&mut self) -> RawHandle {
        self.next_serial += 1;
        // vendor id | host pid salt | scrambled serial: distinct across
        // processes and never equal to a small scalar.
        let scrambled = self.next_serial.wrapping_mul(0x9e37_79b9) & 0xffff_ffff;
        RawHandle(((self.cfg.kind.id() as u64) << 56) | (self.salt << 40) | (scrambled << 4) | 0x8)
    }

    fn device_slot(&self, dev: DeviceId) -> ClResult<usize> {
        self.devices
            .iter()
            .position(|d| d.handle == dev.raw())
            .ok_or(ClError::InvalidDevice)
    }

    fn ctx(&self, h: Context) -> ClResult<&CtxObj> {
        self.contexts.get(&h.raw().0).ok_or(ClError::InvalidContext)
    }

    fn queue_mut(&mut self, h: CommandQueue) -> ClResult<&mut QueueObj> {
        self.queues
            .get_mut(&h.raw().0)
            .ok_or(ClError::InvalidCommandQueue)
    }

    fn queue(&self, h: CommandQueue) -> ClResult<&QueueObj> {
        self.queues
            .get(&h.raw().0)
            .ok_or(ClError::InvalidCommandQueue)
    }

    fn buffer(&self, h: Mem) -> ClResult<&BufObj> {
        self.buffers
            .get(&h.raw().0)
            .ok_or(ClError::InvalidMemObject)
    }

    fn program(&self, h: Program) -> ClResult<&ProgObj> {
        self.programs.get(&h.raw().0).ok_or(ClError::InvalidProgram)
    }

    fn kernel(&self, h: Kernel) -> ClResult<&KernelObj> {
        self.kernels.get(&h.raw().0).ok_or(ClError::InvalidKernel)
    }

    fn event(&self, h: Event) -> ClResult<&EventObj> {
        self.events.get(&h.raw().0).ok_or(ClError::InvalidEvent)
    }

    /// Wait-list dependency resolution: latest completion time.
    fn wait_list_end(&self, wait_list: &[Event]) -> ClResult<SimTime> {
        let mut end = SimTime::ZERO;
        for e in wait_list {
            end = end.max(self.event(*e)?.end);
        }
        Ok(end)
    }

    /// The 32-bit serial of a vendor handle, without the host-pid salt.
    /// The trace track already names the application process; without
    /// the salt, a queue that a restarted proxy re-creates in the same
    /// order keeps its tid.
    fn stable_id(h: RawHandle) -> u64 {
        (h.0 >> 4) & 0xffff_ffff
    }

    /// Place a command on a queue's timeline and mint its event. `deps`
    /// is its wait list's [`Self::wait_list_end`], resolved by the
    /// caller before the command has any effect.
    fn schedule(
        &mut self,
        queue_h: CommandQueue,
        now: SimTime,
        engine: EngineKind,
        duration: SimDuration,
        deps: SimTime,
        cmd: &'static str,
    ) -> ClResult<(Event, SimTime)> {
        let q = self.queue(queue_h)?;
        let device = q.device;
        // An out-of-order queue (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE)
        // imposes no ordering between its own commands: only wait lists
        // and engine availability constrain the start time.
        let queue_free = if q.props.out_of_order {
            SimTime::ZERO
        } else {
            q.busy_until
        };
        let engine_free = match engine {
            EngineKind::Compute => self.devices[device].compute_busy,
            EngineKind::Dma => self.devices[device].dma_busy,
        };
        let submit = now;
        let start = submit.max(queue_free).max(deps).max(engine_free);
        let end = start + duration;
        {
            let q = self.queue_mut(queue_h)?;
            // clFinish still waits for everything ever enqueued here.
            q.busy_until = q.busy_until.max(end);
        }
        match engine {
            EngineKind::Compute => self.devices[device].compute_busy = end,
            EngineKind::Dma => self.devices[device].dma_busy = end,
        }
        let eh = self.fresh_handle();
        self.events.insert(
            eh.0,
            EventObj {
                profiling: ProfilingInfo {
                    queued: submit.as_nanos(),
                    submit: submit.as_nanos(),
                    start: start.as_nanos(),
                    end: end.as_nanos(),
                },
                end,
                refs: 1,
            },
        );
        if telemetry::enabled() {
            // Device-side command lifetime: an async pair on the owning
            // process's queue row, spanning start..end of the command as
            // the existing profiling timestamps report them.
            let track = telemetry::current_track().with_tid(Self::stable_id(queue_h.raw()));
            telemetry::name_thread(
                track.pid,
                track.tid,
                &format!("queue {:#x} ({})", track.tid, self.cfg.platform.name),
            );
            let id = Self::stable_id(eh);
            telemetry::async_begin(
                "queue",
                cmd,
                start,
                track,
                id,
                vec![
                    ("submit_ns", submit.as_nanos().into()),
                    ("queue_wait_ns", start.since(submit).into()),
                    ("duration_ns", duration.into()),
                    (
                        "engine",
                        match engine {
                            EngineKind::Compute => "compute",
                            EngineKind::Dma => "dma",
                        }
                        .into(),
                    ),
                ],
            );
            telemetry::async_end("queue", cmd, end, track, id, Vec::new());
            telemetry::counter_add("driver.commands", 1);
            telemetry::observe("driver.command_ns", duration.as_nanos());
        }
        Ok((Event::from_raw(eh), end))
    }

    fn enqueue_cost(&self) -> SimDuration {
        simcore::calib::native_call_latency() + SimDuration::from_micros(2)
    }

    // -----------------------------------------------------------------
    // Request handlers
    // -----------------------------------------------------------------

    fn get_platform_ids(&mut self, now: &mut SimTime) -> ClResult<ApiResponse> {
        if !self.initialized {
            *now += self.cfg.init_cost;
            self.initialized = true;
        }
        // A platform with no devices is not enumerable — the ICD
        // behaves as if no implementation were installed at all.
        if self.devices.is_empty() {
            return Ok(ApiResponse::Platforms(vec![]));
        }
        Ok(ApiResponse::Platforms(vec![PlatformId::from_raw(
            self.platform,
        )]))
    }

    fn get_device_ids(
        &mut self,
        platform: PlatformId,
        device_type: DeviceType,
    ) -> ClResult<ApiResponse> {
        if platform.raw() != self.platform {
            return Err(ClError::InvalidPlatform);
        }
        let ids: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|d| match device_type {
                DeviceType::All => true,
                t => d.profile.device_type == t,
            })
            .map(|d| DeviceId::from_raw(d.handle))
            .collect();
        if ids.is_empty() {
            return Err(ClError::DeviceNotFound);
        }
        Ok(ApiResponse::Devices(ids))
    }

    fn create_context(&mut self, devices: &[DeviceId]) -> ClResult<ApiResponse> {
        if devices.is_empty() {
            return Err(ClError::InvalidValue);
        }
        let slots = devices
            .iter()
            .map(|d| self.device_slot(*d))
            .collect::<ClResult<Vec<_>>>()?;
        let h = self.fresh_handle();
        self.contexts.insert(
            h.0,
            CtxObj {
                devices: slots,
                refs: 1,
            },
        );
        Ok(ApiResponse::Context(Context::from_raw(h)))
    }

    fn create_queue(
        &mut self,
        context: Context,
        device: DeviceId,
        props: QueueProps,
    ) -> ClResult<ApiResponse> {
        let ctx = self.ctx(context)?;
        let slot = self.device_slot(device)?;
        if !ctx.devices.contains(&slot) {
            return Err(ClError::InvalidDevice);
        }
        let h = self.fresh_handle();
        self.queues.insert(
            h.0,
            QueueObj {
                device: slot,
                props,
                busy_until: SimTime::ZERO,
                refs: 1,
            },
        );
        Ok(ApiResponse::Queue(CommandQueue::from_raw(h)))
    }

    fn create_buffer(
        &mut self,
        now: &mut SimTime,
        context: Context,
        flags: MemFlags,
        size: u64,
        host_data: Option<Payload>,
    ) -> ClResult<ApiResponse> {
        if size == 0 {
            return Err(ClError::InvalidBufferSize);
        }
        let needs_host =
            flags.contains(MemFlags::COPY_HOST_PTR) || flags.contains(MemFlags::USE_HOST_PTR);
        if needs_host && host_data.is_none() {
            return Err(ClError::InvalidValue);
        }
        if let Some(d) = &host_data {
            if d.len() as u64 != size {
                return Err(ClError::InvalidValue);
            }
        }
        let slot = self.ctx(context)?.devices[0];
        let dev = self.allocate(slot, size)?;
        let data = match host_data {
            Some(d) => {
                // Initialising from host memory costs an HtoD transfer.
                *now += dev.profile.htod.cost(ByteSize::bytes(size));
                self.stats.bytes_htod += size;
                d
            }
            None => vec![0u8; size as usize].into(),
        };
        Ok(self.insert_buffer(slot, data, None))
    }

    /// Register a new `cl_mem` on device `slot`, holding `data`.
    fn insert_buffer(
        &mut self,
        slot: usize,
        data: Payload,
        image_dims: Option<(u64, u64)>,
    ) -> ApiResponse {
        let h = self.fresh_handle();
        let mut buf = BufObj {
            device: slot,
            size: data.len() as u64,
            data: Payload::default(),
            image_dims,
            version: 0,
            refs: 1,
        };
        *buf.written(&mut self.write_clock) = data;
        self.buffers.insert(h.0, buf);
        ApiResponse::Mem(Mem::from_raw(h))
    }

    /// Charge `size` bytes to device `slot`'s memory, or fail with
    /// `MemObjectAllocationFailure` when they do not fit.
    fn allocate(&mut self, slot: usize, size: u64) -> ClResult<&mut DeviceState> {
        let dev = &mut self.devices[slot];
        dev.mem_used = dev
            .mem_used
            .checked_add(size)
            .filter(|&used| used <= dev.profile.memory.as_u64())
            .ok_or(ClError::MemObjectAllocationFailure)?;
        Ok(dev)
    }

    /// `clCreateImage2D`: an image is a `cl_mem` with a 2-D layout; we
    /// model single-channel float texels (4 bytes each).
    fn create_image2d(
        &mut self,
        now: &mut SimTime,
        context: Context,
        width: u64,
        height: u64,
        host_data: Option<Payload>,
    ) -> ClResult<ApiResponse> {
        if width == 0 || height == 0 {
            return Err(ClError::InvalidValue);
        }
        let size = image2d_bytes(width, height).ok_or(ClError::InvalidValue)?;
        if let Some(d) = &host_data {
            if d.len() as u64 != size {
                return Err(ClError::InvalidValue);
            }
        }
        let slot = self.ctx(context)?.devices[0];
        let dev = self.allocate(slot, size)?;
        let data = match host_data {
            Some(d) => {
                *now += dev.profile.htod.cost(ByteSize::bytes(size));
                self.stats.bytes_htod += size;
                d
            }
            None => vec![0u8; size as usize].into(),
        };
        Ok(self.insert_buffer(slot, data, Some((width, height))))
    }

    fn create_sampler(&mut self, context: Context) -> ClResult<ApiResponse> {
        self.ctx(context)?;
        let h = self.fresh_handle();
        self.samplers.insert(h.0, SamplerObj { refs: 1 });
        Ok(ApiResponse::Sampler(Sampler::from_raw(h)))
    }

    fn create_program_source(&mut self, context: Context, source: &str) -> ClResult<ApiResponse> {
        self.ctx(context)?;
        let sigs = parse_kernel_sigs(source).map_err(|_| ClError::InvalidValue)?;
        let handle_structs = clspec::sig::parse_struct_defs(source)
            .into_iter()
            .filter(|(_, has)| *has)
            .map(|(name, _)| name)
            .collect();
        let h = self.fresh_handle();
        self.programs.insert(
            h.0,
            ProgObj {
                source_len: source.len(),
                sigs,
                handle_structs,
                built: false,
                build_log: String::new(),
                refs: 1,
            },
        );
        Ok(ApiResponse::Program(Program::from_raw(h)))
    }

    fn create_program_binary(
        &mut self,
        context: Context,
        device: DeviceId,
        binary: &[u8],
    ) -> ClResult<ApiResponse> {
        self.ctx(context)?;
        self.device_slot(device)?;
        let (source_len, sigs): (u64, Vec<KernelSig>) =
            decode_framed(self.cfg.kind.binary_magic(), BINARY_VERSION, binary)
                .map_err(|_| ClError::InvalidBinary)?;
        let h = self.fresh_handle();
        self.programs.insert(
            h.0,
            ProgObj {
                source_len: source_len as usize,
                sigs,
                handle_structs: Vec::new(),
                // Binaries are pre-compiled: building them is nearly free.
                built: true,
                build_log: "loaded from binary".into(),
                refs: 1,
            },
        );
        Ok(ApiResponse::Program(Program::from_raw(h)))
    }

    fn build_program(&mut self, now: &mut SimTime, program: Program) -> ClResult<ApiResponse> {
        let compile = self.cfg.compile;
        let p = self
            .programs
            .get_mut(&program.raw().0)
            .ok_or(ClError::InvalidProgram)?;
        if p.built {
            // Rebuild of an already-built program (or binary) is fast.
            *now += SimDuration::from_micros(200);
            return Ok(ApiResponse::Unit);
        }
        let cost = compile.compile_time(p.source_len, p.sigs.len());
        *now += cost;
        p.built = true;
        p.build_log = format!(
            "{}: build OK ({} kernels, {} bytes of source)",
            match self.cfg.kind {
                VendorKind::Nimbus => "nimbus-clc",
                VendorKind::Crimson => "crimson-clc",
            },
            p.sigs.len(),
            p.source_len
        );
        self.stats.programs_built += 1;
        Ok(ApiResponse::Unit)
    }

    fn get_program_binary(&self, program: Program) -> ClResult<ApiResponse> {
        let p = self.program(program)?;
        if !p.built {
            return Err(ClError::InvalidProgramExecutable);
        }
        let payload = (p.source_len as u64, p.sigs.clone());
        Ok(ApiResponse::Binary(encode_framed(
            self.cfg.kind.binary_magic(),
            BINARY_VERSION,
            &payload,
        )))
    }

    fn create_kernel(&mut self, program: Program, name: &str) -> ClResult<ApiResponse> {
        let p = self.program(program)?;
        if !p.built {
            return Err(ClError::InvalidProgramExecutable);
        }
        let sig = p
            .sigs
            .iter()
            .find(|s| s.name == name)
            .ok_or(ClError::InvalidKernelName)?
            .clone();
        let handle_structs = p.handle_structs.clone();
        let h = self.fresh_handle();
        self.kernels.insert(
            h.0,
            KernelObj {
                sig,
                handle_structs,
                args: BTreeMap::new(),
                last_launch: None,
                refs: 1,
            },
        );
        Ok(ApiResponse::Kernel(Kernel::from_raw(h)))
    }

    fn set_kernel_arg(
        &mut self,
        kernel: Kernel,
        index: u32,
        value: ArgValue,
    ) -> ClResult<ApiResponse> {
        let k = self
            .kernels
            .get_mut(&kernel.raw().0)
            .ok_or(ClError::InvalidKernel)?;
        if index as usize >= k.sig.params.len() {
            return Err(ClError::InvalidArgIndex);
        }
        let kind = &k.sig.params[index as usize].kind;
        match (kind, &value) {
            (ParamKind::LocalPtr, ArgValue::LocalMem(_)) => {}
            (ParamKind::LocalPtr, _) => return Err(ClError::InvalidArgValue),
            (_, ArgValue::LocalMem(_)) => return Err(ClError::InvalidArgValue),
            _ => {}
        }
        // The stamp does not record scalars: a new value voids it, and the
        // value an argument already holds leaves it.
        if k.args.get(&index) != Some(&value) {
            k.args.insert(index, value);
            k.last_launch = None;
        }
        Ok(ApiResponse::Unit)
    }

    /// Validate the bound arguments against the kernel signature,
    /// returning engine-ready data plus the buffers to lend it (as
    /// `(arg index, vendor buffer handle)` pairs, in argument order).
    /// Each buffer argument is an empty placeholder until
    /// [`Self::execute_kernel`] lends the buffer's bytes.
    fn resolve_args(&self, kernel: Kernel) -> ClResult<(Vec<ArgData>, LentList)> {
        let k = self
            .kernels
            .get(&kernel.raw().0)
            .ok_or(ClError::InvalidKernel)?;
        let mut out = Vec::with_capacity(k.sig.params.len());
        let mut lent: LentList = Vec::new();
        for (i, p) in k.sig.params.iter().enumerate() {
            let v = k.args.get(&(i as u32)).ok_or(ClError::InvalidKernelArgs)?;
            match &p.kind {
                ParamKind::GlobalPtr
                | ParamKind::ConstantPtr
                | ParamKind::Image2d
                | ParamKind::Image3d => {
                    let h = v.as_handle().ok_or(ClError::InvalidArgValue)?;
                    let buf = self.buffers.get(&h.0).ok_or(ClError::InvalidMemObject)?;
                    // Buffers and images are distinct cl_mem flavours:
                    // binding one where the kernel expects the other is
                    // rejected, as real drivers do.
                    let wants_image = matches!(p.kind, ParamKind::Image2d | ParamKind::Image3d);
                    if wants_image != buf.image_dims.is_some() {
                        return Err(ClError::InvalidArgValue);
                    }
                    lent.push((i, h.0));
                    out.push(ArgData::buffer_of(Payload::default()));
                }
                ParamKind::Sampler => {
                    let h = v.as_handle().ok_or(ClError::InvalidArgValue)?;
                    if !self.samplers.contains_key(&h.0) {
                        return Err(ClError::InvalidSampler);
                    }
                    out.push(ArgData::Scalar(h.0.to_le_bytes().to_vec()));
                }
                ParamKind::LocalPtr => match v {
                    ArgValue::LocalMem(sz) => out.push(ArgData::Local(*sz)),
                    _ => return Err(ClError::InvalidArgValue),
                },
                ParamKind::Scalar(ty) => match v {
                    ArgValue::Bytes(b) => {
                        // A struct whose members include device pointers
                        // is dereferenced on the device: if the embedded
                        // handle is not a live buffer of this driver,
                        // the launch faults (the fate of CheCL's
                        // overlooked struct handles, §IV-D).
                        if k.handle_structs.contains(ty) {
                            if b.len() < 8 {
                                return Err(ClError::InvalidArgSize);
                            }
                            let word = u64::from_le_bytes(b[..8].try_into().unwrap());
                            if !self.buffers.contains_key(&word) {
                                return Err(ClError::InvalidMemObject);
                            }
                        }
                        out.push(ArgData::Scalar(b.clone()))
                    }
                    _ => return Err(ClError::InvalidArgValue),
                },
            }
        }
        Ok((out, lent))
    }

    /// Whether `kernel`'s last launch stamp still holds for a launch
    /// over `global` and the buffers `lent`: each bound buffer is the
    /// one stamped and has not been written since.
    fn unchanged_since_last_launch(
        &self,
        kernel: Kernel,
        global: [u64; 3],
        lent: &LentList,
    ) -> bool {
        let Some(stamp) = self
            .kernels
            .get(&kernel.raw().0)
            .and_then(|k| k.last_launch.as_ref())
        else {
            return false;
        };
        stamp.global == global
            && stamp.buffers.len() == lent.len()
            && stamp
                .buffers
                .iter()
                .zip(lent)
                .all(|(&(h, version), &(_, lent_h))| {
                    h == lent_h && self.buffers.get(&h).is_some_and(|b| b.version == version)
                })
    }

    /// Run kernel `entry` over validated `args`, lending it the bytes of
    /// the buffers in `lent`, and stamp the kernel with the launch when
    /// it ran and is rerun-safe.
    ///
    /// Each bound buffer's bytes are lent to the engine with
    /// `mem::take`, not copied, and put back after the launch, whether
    /// it ran or failed. Putting back an argument the engine asked to
    /// write ([`ArgData::buffer_mut`]) stamps its buffer written; a
    /// buffer the kernel only read keeps its version. A `cl_mem` bound
    /// to several arguments is lent to the first and shared with each
    /// later one, so every argument sees the pre-launch bytes, a write
    /// through one copies them, and, on return, the last index's bytes
    /// win, as if each argument had its own copy. Once one binding of
    /// such a buffer is stamped, every later binding is too, so the
    /// version a written buffer's earlier binding records is stale at
    /// once, and a relaunch over it always runs.
    fn execute_kernel(
        &mut self,
        kernel: Kernel,
        entry: KernelEntry,
        global: [u64; 3],
        mut args: Vec<ArgData>,
        lent: LentList,
    ) -> Result<(), clkernels::ExecError> {
        for (n, &(i, h)) in lent.iter().enumerate() {
            args[i] = match lent[..n].iter().find(|&&(_, earlier)| earlier == h) {
                Some(&(first, _)) => args[first].clone(),
                None => {
                    let buf = self.buffers.get_mut(&h).expect("validated above");
                    ArgData::buffer_of(mem::take(&mut buf.data))
                }
            };
        }
        let ran = entry.run(&mut args);
        // Put every lent buffer back, in argument order, on success and
        // failure alike. A version past the clock at launch marks a
        // buffer an earlier binding of this launch has stamped.
        let clock_at_launch = self.write_clock;
        let mut stamped = Vec::with_capacity(lent.len());
        for (arg_idx, buf_h) in lent {
            if let ArgData::Buffer { bytes, written } = &mut args[arg_idx] {
                let buf = self.buffers.get_mut(&buf_h).expect("buffer vanished");
                let bytes = mem::take(bytes);
                if *written || buf.version > clock_at_launch {
                    *buf.written(&mut self.write_clock) = bytes;
                } else {
                    buf.data = bytes;
                }
                stamped.push((buf_h, buf.version));
            }
        }
        let stamp = (ran.is_ok() && entry.rerun_safe).then_some(LaunchStamp {
            global,
            buffers: stamped,
        });
        self.kernels
            .get_mut(&kernel.raw().0)
            .expect("validated above")
            .last_launch = stamp;
        ran
    }

    fn enqueue_nd_range(
        &mut self,
        now: &mut SimTime,
        queue: CommandQueue,
        kernel: Kernel,
        global: NDRange,
        local: Option<NDRange>,
        wait_list: &[Event],
    ) -> ClResult<ApiResponse> {
        let q = self.queue(queue)?;
        let dev_slot = q.device;
        let profile = self.devices[dev_slot].profile.clone();
        if let Some(l) = local {
            if l.total() > profile.max_work_group_size || l.sizes[0] > profile.max_work_group_size {
                // E.g. oclSortingNetworks requesting 1024-wide groups on
                // the Radeon (max 256): the paper's portability failure.
                return Err(ClError::InvalidWorkGroupSize);
            }
        }
        let entry = clkernels::lookup(&self.kernel(kernel)?.sig.name);
        let deps = self.wait_list_end(wait_list)?;
        let (args, lent) = self.resolve_args(kernel)?;
        let entry = entry.ok_or(ClError::InvalidKernelName)?;
        // A rerun-safe kernel relaunched over buffers nothing has written
        // since its last launch would write the bytes they hold: only
        // the execution is skipped, and the launch is validated,
        // scheduled and charged as any other.
        if self.unchanged_since_last_launch(kernel, global.sizes, &lent) {
            self.stats.kernels_elided += 1;
        } else {
            self.execute_kernel(kernel, entry, global.sizes, args, lent)
                .map_err(|e| match e {
                    clkernels::ExecError::UnknownKernel(_) => ClError::InvalidKernelName,
                    clkernels::ExecError::ArgCount { .. } => ClError::InvalidKernelArgs,
                    clkernels::ExecError::ArgType { .. } => ClError::InvalidArgValue,
                    clkernels::ExecError::BufferTooSmall { .. } => ClError::InvalidArgSize,
                })?;
        }

        let items = global.total();
        let cost = entry.cost;
        let duration = profile.kernel_time(cost.total_flops(items), cost.total_bytes(items))
            + profile.launch_overhead;
        let (event, _end) =
            self.schedule(queue, *now, EngineKind::Compute, duration, deps, "kernel")?;
        *now += self.enqueue_cost();
        self.stats.kernels_launched += 1;
        Ok(ApiResponse::Event(event))
    }

    /// The byte range `[offset, offset + size)` of `buf`, or
    /// `InvalidValue` when any of it lies outside the buffer.
    fn span(offset: u64, size: u64, buf: &BufObj) -> ClResult<std::ops::Range<usize>> {
        let span = byte_span(offset, size, buf.size).ok_or(ClError::InvalidValue)?;
        Ok(span.start as usize..span.end as usize)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the clEnqueue* C signature
    fn enqueue_read(
        &mut self,
        now: &mut SimTime,
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        size: u64,
        wait_list: &[Event],
    ) -> ClResult<ApiResponse> {
        let dev_slot = self.queue(queue)?.device;
        let link = self.devices[dev_slot].profile.dtoh;
        let buf = self.buffer(mem)?;
        let range = Self::span(offset, size, buf)?;
        let deps = self.wait_list_end(wait_list)?;
        // A whole-buffer read shares the device bytes; a part is copied.
        let data = if range.len() as u64 == buf.size {
            buf.data.clone()
        } else {
            buf.data[range].to_vec().into()
        };
        let duration = link.cost(ByteSize::bytes(size));
        let (event, end) = self.schedule(queue, *now, EngineKind::Dma, duration, deps, "read")?;
        *now += self.enqueue_cost();
        if blocking {
            *now = (*now).max(end);
        }
        self.stats.bytes_dtoh += size;
        Ok(ApiResponse::DataEvent { data, event })
    }

    #[allow(clippy::too_many_arguments)] // mirrors the clEnqueue* C signature
    fn enqueue_write(
        &mut self,
        now: &mut SimTime,
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        data: Payload,
        wait_list: &[Event],
    ) -> ClResult<ApiResponse> {
        let dev_slot = self.queue(queue)?.device;
        let link = self.devices[dev_slot].profile.htod;
        let size = data.len() as u64;
        let range = Self::span(offset, size, self.buffer(mem)?)?;
        let deps = self.wait_list_end(wait_list)?;
        let buf = self.buffers.get_mut(&mem.raw().0).expect("validated above");
        // A whole-buffer write takes the payload in; only a part is
        // copied into the bytes the buffer holds.
        if size == buf.size {
            *buf.written(&mut self.write_clock) = data;
        } else {
            buf.written(&mut self.write_clock).make_mut()[range].copy_from_slice(&data);
        }
        let duration = link.cost(ByteSize::bytes(size));
        let (event, end) = self.schedule(queue, *now, EngineKind::Dma, duration, deps, "write")?;
        *now += self.enqueue_cost();
        if blocking {
            *now = (*now).max(end);
        }
        self.stats.bytes_htod += size;
        Ok(ApiResponse::Event(event))
    }

    #[allow(clippy::too_many_arguments)] // mirrors the clEnqueue* C signature
    fn enqueue_copy(
        &mut self,
        now: &mut SimTime,
        queue: CommandQueue,
        src: Mem,
        dst: Mem,
        src_offset: u64,
        dst_offset: u64,
        size: u64,
        wait_list: &[Event],
    ) -> ClResult<ApiResponse> {
        let dev_slot = self.queue(queue)?.device;
        let bw = self.devices[dev_slot].profile.mem_bandwidth;
        let src_range = Self::span(src_offset, size, self.buffer(src)?)?;
        let dst_range = Self::span(dst_offset, size, self.buffer(dst)?)?;
        let deps = self.wait_list_end(wait_list)?;
        let chunk = self.buffer(src)?.data[src_range].to_vec();
        let dst = self.buffers.get_mut(&dst.raw().0).expect("validated above");
        dst.written(&mut self.write_clock).make_mut()[dst_range].copy_from_slice(&chunk);
        let duration = bw.transfer_time(ByteSize::bytes(size));
        let (event, _) = self.schedule(queue, *now, EngineKind::Dma, duration, deps, "copy")?;
        *now += self.enqueue_cost();
        Ok(ApiResponse::Event(event))
    }

    fn enqueue_marker(&mut self, now: &mut SimTime, queue: CommandQueue) -> ClResult<ApiResponse> {
        // A marker completes when everything before it completes; it
        // consumes no engine time. clEnqueueMarker "immediately returns
        // with an event object" — the dummy-event source of §III-C.
        let (event, _) = self.schedule(
            queue,
            *now,
            EngineKind::Compute,
            SimDuration::ZERO,
            SimTime::ZERO,
            "marker",
        )?;
        *now += self.enqueue_cost();
        Ok(ApiResponse::Event(event))
    }

    fn finish(&mut self, now: &mut SimTime, queue: CommandQueue) -> ClResult<ApiResponse> {
        let busy = self.queue(queue)?.busy_until;
        *now = (*now).max(busy);
        *now += self.enqueue_cost();
        Ok(ApiResponse::Unit)
    }

    fn wait_for_events(&mut self, now: &mut SimTime, events: &[Event]) -> ClResult<ApiResponse> {
        if events.is_empty() {
            return Err(ClError::InvalidEventWaitList);
        }
        let end = self.wait_list_end(events)?;
        *now = (*now).max(end);
        Ok(ApiResponse::Unit)
    }

    fn event_status(&self, now: SimTime, event: Event) -> ClResult<ApiResponse> {
        let e = self.event(event)?;
        let status = if now >= e.end {
            EventStatus::Complete
        } else if now.as_nanos() >= e.profiling.start {
            EventStatus::Running
        } else {
            EventStatus::Submitted
        };
        Ok(ApiResponse::EventStatus(status))
    }

    /// Used-memory gauge of a device slot (tests, capacity planning).
    pub fn device_mem_used(&self, slot: usize) -> u64 {
        self.devices[slot].mem_used
    }

    /// `clRetain*` / `clRelease*` on the object `h` of `kind`. The last
    /// release destroys the object, and a buffer's bytes leave its
    /// device's `mem_used` with it.
    fn adjust_refs(&mut self, kind: HandleKind, h: RawHandle, op: RefOp) -> ClResult<ApiResponse> {
        let h = h.0;
        let found = match kind {
            HandleKind::Context => step_refs(&mut self.contexts, h, op, |o| &mut o.refs).is_some(),
            HandleKind::CommandQueue => {
                step_refs(&mut self.queues, h, op, |o| &mut o.refs).is_some()
            }
            HandleKind::Mem => match step_refs(&mut self.buffers, h, op, |o| &mut o.refs) {
                Some(Some(buf)) => {
                    self.devices[buf.device].mem_used -= buf.size;
                    true
                }
                step => step.is_some(),
            },
            HandleKind::Sampler => step_refs(&mut self.samplers, h, op, |o| &mut o.refs).is_some(),
            HandleKind::Program => step_refs(&mut self.programs, h, op, |o| &mut o.refs).is_some(),
            HandleKind::Kernel => step_refs(&mut self.kernels, h, op, |o| &mut o.refs).is_some(),
            HandleKind::Event => step_refs(&mut self.events, h, op, |o| &mut o.refs).is_some(),
            // OpenCL 1.0 has no refcount on platforms and devices.
            HandleKind::Platform | HandleKind::Device => false,
        };
        if !found {
            return Err(ClError::invalid_handle(kind));
        }
        Ok(ApiResponse::Unit)
    }
}

/// Apply `op` to the refcount of `table[h]`: `None` for an unknown
/// handle, `Some(Some(obj))` when the last release removes the object.
fn step_refs<T>(
    table: &mut BTreeMap<u64, T>,
    h: u64,
    op: RefOp,
    refs: impl Fn(&mut T) -> &mut u32,
) -> Option<Option<T>> {
    let r = refs(table.get_mut(&h)?);
    match op {
        RefOp::Retain => *r += 1,
        RefOp::Release => *r -= 1,
    }
    Some(if *r == 0 { table.remove(&h) } else { None })
}

impl ClApi for Driver {
    fn call(&mut self, now: &mut SimTime, req: ApiRequest) -> ClResult<ApiResponse> {
        self.stats.api_calls += 1;
        // Every native call pays the ICD dispatch latency.
        *now += simcore::calib::native_call_latency();
        use ApiRequest::*;
        match req {
            GetPlatformIds => self.get_platform_ids(now),
            GetPlatformInfo { platform } => {
                if platform.raw() != self.platform {
                    return Err(ClError::InvalidPlatform);
                }
                Ok(ApiResponse::PlatformInfo(self.cfg.platform.clone()))
            }
            GetDeviceIds {
                platform,
                device_type,
            } => self.get_device_ids(platform, device_type),
            GetDeviceInfo { device } => {
                let slot = self.device_slot(device)?;
                Ok(ApiResponse::DeviceInfo(Box::new(
                    self.devices[slot].profile.info(&self.cfg.platform.vendor),
                )))
            }
            CreateContext { devices } => self.create_context(&devices),
            CreateCommandQueue {
                context,
                device,
                props,
            } => self.create_queue(context, device, props),
            CreateBuffer {
                context,
                flags,
                size,
                host_data,
            } => self.create_buffer(now, context, flags, size, host_data),
            CreateImage2D {
                context,
                width,
                height,
                host_data,
                ..
            } => self.create_image2d(now, context, width, height, host_data),
            EnqueueReadImage {
                queue,
                image,
                blocking,
                wait_list,
            } => {
                let size = self.buffer(image)?.size;
                self.enqueue_read(now, queue, image, blocking, 0, size, &wait_list)
            }
            EnqueueWriteImage {
                queue,
                image,
                blocking,
                data,
                wait_list,
            } => {
                if data.len() as u64 != self.buffer(image)?.size {
                    return Err(ClError::InvalidValue);
                }
                self.enqueue_write(now, queue, image, blocking, 0, data, &wait_list)
            }
            CreateSampler { context, .. } => self.create_sampler(context),
            CreateProgramWithSource { context, source } => {
                self.create_program_source(context, &source)
            }
            CreateProgramWithBinary {
                context,
                device,
                binary,
            } => self.create_program_binary(context, device, &binary),
            BuildProgram { program, .. } => self.build_program(now, program),
            GetProgramBuildLog { program } => Ok(ApiResponse::BuildLog(
                self.program(program)?.build_log.clone(),
            )),
            GetProgramBinary { program } => self.get_program_binary(program),
            CreateKernel { program, name } => self.create_kernel(program, &name),
            SetKernelArg {
                kernel,
                index,
                value,
            } => self.set_kernel_arg(kernel, index, value),
            EnqueueNDRangeKernel {
                queue,
                kernel,
                global,
                local,
                wait_list,
            } => self.enqueue_nd_range(now, queue, kernel, global, local, &wait_list),
            EnqueueReadBuffer {
                queue,
                mem,
                blocking,
                offset,
                size,
                wait_list,
            } => self.enqueue_read(now, queue, mem, blocking, offset, size, &wait_list),
            EnqueueWriteBuffer {
                queue,
                mem,
                blocking,
                offset,
                data,
                wait_list,
            } => self.enqueue_write(now, queue, mem, blocking, offset, data, &wait_list),
            EnqueueCopyBuffer {
                queue,
                src,
                dst,
                src_offset,
                dst_offset,
                size,
                wait_list,
            } => self.enqueue_copy(
                now, queue, src, dst, src_offset, dst_offset, size, &wait_list,
            ),
            EnqueueMarker { queue } => self.enqueue_marker(now, queue),
            Flush { queue } => {
                self.queue(queue)?;
                Ok(ApiResponse::Unit)
            }
            Finish { queue } => self.finish(now, queue),
            WaitForEvents { events } => self.wait_for_events(now, &events),
            GetEventStatus { event } => self.event_status(*now, event),
            GetEventProfiling { event } => Ok(ApiResponse::Profiling(self.event(event)?.profiling)),
            // Every call left is a retain or a release.
            _ => match req.refcount() {
                Some((kind, h, op)) => self.adjust_refs(kind, h, op),
                None => unreachable!("{} has no driver arm", req.api_name()),
            },
        }
    }

    fn impl_name(&self) -> String {
        self.cfg.platform.name.clone()
    }
}
