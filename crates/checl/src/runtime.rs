//! The interposed `libOpenCL.so`: record, translate, forward.
//!
//! [`ChecLib`] implements [`ClApi`] — the application cannot tell it
//! apart from a vendor library. Every call takes one generic path:
//!
//! 1. **noted** — the CheCL-space facts are read off the request while
//!    its handles are still CheCL handles: the record a creation call or
//!    an enqueue leaves ([`ObjectRecord::created_by`]), the buffer spans
//!    a write or copy reads and overwrites, the program a build
//!    configures, and the object a retain or release acts on
//!    ([`ApiRequest::refcount`]);
//! 2. **translated** — [`ApiRequest::try_map_handles`] swaps each CheCL
//!    handle for the vendor handle the database wraps, checking liveness
//!    and kind. The first bad handle rejects the call before any effect,
//!    and so does a span past its buffer's end (`InvalidValue`, by the
//!    driver's own [`byte_span`] rule);
//! 3. **forwarded** — after the pre-effects (fork a pending live cut,
//!    mark the buffer dirty, keep a `USE_HOST_PTR` cache coherent), one
//!    trip over the app↔proxy pipe, paying the IPC latency plus an extra
//!    host-memory copy of any bulk payload (§IV-A: this is the measured
//!    runtime overhead of Fig. 4);
//! 4. **recorded and wrapped** — retains and releases mirror the
//!    refcount, `clBuildProgram` records its options, and a returned
//!    vendor handle is wrapped in a fresh CheCL object before the
//!    application sees it.
//!
//! The handle visitor and the refcount roles both come from clspec's
//! `cl_api!` table, which declares each OpenCL call once; this path
//! names only the writes whose span it dirties, `clBuildProgram`, and
//! the four requests below.
//!
//! Four requests keep hand-written arms, because their logic is their
//! own. `clGetPlatformIDs` and `clGetDeviceIDs` wrap idempotently: a
//! repeated query returns the same CheCL handles, and the record holds a
//! position in the answer, which the request does not carry.
//! `clSetKernelArg` decides from the kernel signature (or, for a binary
//! program, by address guessing) whether its blob is a handle (§III-B).
//! `clEnqueueNDRangeKernel` dirties the buffers bound to writable
//! parameters, and pushes and pulls `USE_HOST_PTR` caches around the
//! launch (§IV-D).

use crate::guess::{guess_handle, rewrite_handles_in_struct};
use crate::objects::{CheclDb, ObjectRecord, RecordedArg};
use cldriver::Driver;
use clspec::api::{ApiRequest, ApiResponse, ClApi, RefOp};
use clspec::error::{ClError, ClResult};
use clspec::handles::{CommandQueue, DeviceId, HandleKind, Kernel, Mem, PlatformId, RawHandle};
use clspec::sig::{parse_struct_defs, ParamKind};
use clspec::types::{byte_span, ArgValue, NDRange};
use osproc::{Pid, Pipe};
use simcore::codec::Codec;
use simcore::{telemetry, SimTime};

/// What to do with a by-value struct argument that contains handles —
/// the limitation of §IV-D.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StructArgPolicy {
    /// Paper behaviour: CheCL "overlooks the handles in the structure";
    /// the unconverted CheCL handles reach the vendor driver and the
    /// launch fails.
    #[default]
    PassThrough,
    /// Extension (the paper's in-development parser): scan the blob for
    /// words matching live CheCL handles and translate them.
    ScanAndTranslate,
}

/// CheCL configuration knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheclConfig {
    /// Struct-argument handling policy.
    pub struct_arg_policy: StructArgPolicy,
}

/// Cumulative CheCL bookkeeping statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheclStats {
    /// API calls forwarded to the proxy.
    pub forwarded_calls: u64,
    /// Bytes moved over the app↔proxy pipe (both directions).
    pub ipc_bytes: u64,
    /// CheCL→vendor handle translations performed.
    pub handle_translations: u64,
    /// `clSetKernelArg` blobs classified by address guessing (binary
    /// programs only).
    pub guessed_args: u64,
    /// Build callbacks the application registered and CheCL ignored
    /// (§IV-D).
    pub callbacks_ignored: u64,
}

/// The live connection to an API proxy process.
pub struct ProxyLink {
    /// The vendor driver the proxy loaded. Owned here for simulation
    /// convenience; *logically* it lives in the proxy's address space —
    /// the proxy pid is the process that carries its device mappings.
    pub driver: Driver,
    /// The forwarding pipe.
    pub pipe: Pipe,
    /// Pid of the proxy process.
    pub proxy_pid: Pid,
}

/// The CheCL shim library, as loaded into one application process.
pub struct ChecLib {
    /// The CheCL object database (application host memory).
    pub db: CheclDb,
    config: CheclConfig,
    stats: CheclStats,
    proxy: Option<ProxyLink>,
    /// The app↔proxy pipe has failed (SIGPIPE territory). Set by fault
    /// injection; cleared when a fresh proxy is attached. Not part of
    /// the dumped state — a restart always begins with a working pipe.
    pipe_broken: bool,
    /// Kernel handle → `(program handle, index into its `sigs`)`,
    /// resolved once per kernel so the hot `clSetKernelArg`/launch
    /// paths stop re-scanning the program's signature list per call.
    /// Kernel name and program binding are immutable after creation and
    /// handles are never reused, so entries never go stale. Not part of
    /// the dumped state — rebuilt lazily after a restart.
    sig_cache: std::collections::HashMap<u64, Option<(u64, usize)>>,
    /// Program handle → parsed struct definitions (`type name →
    /// contains-handles`), so struct-argument classification stops
    /// cloning and re-parsing the program source per `clSetKernelArg`.
    /// Same lifetime rules (and non-serialisation) as `sig_cache`.
    struct_defs_cache: std::collections::HashMap<u64, std::collections::BTreeMap<String, bool>>,
    /// Ordinal of the next dedup checkpoint this shim commits, stamped
    /// into the per-generation `ChunkDeduped`/`ChunkCompressed` ledger
    /// events. Not part of the dumped state — a restored process starts
    /// a fresh dedup lineage.
    pub(crate) dedup_generation: u64,
    /// The open chunk store's in-memory hash index, kept between
    /// checkpoints so each dedup snapshot doesn't re-scan the store
    /// file. Not part of the dumped state — reopening after a restart
    /// rescans once.
    pub(crate) chunk_store: Option<blcr::ChunkStore>,
    /// In-flight live checkpoint: the logically captured cut whose
    /// bytes are still draining to disk in the background. Enqueue
    /// paths that would overwrite un-serialized cut data fork the
    /// affected chunks through here first. Not part of the dumped
    /// state — the drain is completed (or aborted) before any dump.
    pub(crate) live_drain: Option<Box<crate::engine::LiveDrain>>,
    /// Monotonic epoch stamped onto each buffer's `cut_epoch` when a
    /// live snapshot captures it, so COW hooks can tell "belongs to
    /// the pending cut" from "already re-captured".
    pub(crate) live_epoch: u64,
}

impl ChecLib {
    /// A shim with no proxy attached yet (use [`crate::boot::boot_checl`]
    /// for the full fork-and-attach sequence).
    pub fn new(config: CheclConfig) -> Self {
        ChecLib {
            db: CheclDb::new(),
            config,
            stats: CheclStats::default(),
            proxy: None,
            pipe_broken: false,
            sig_cache: std::collections::HashMap::new(),
            struct_defs_cache: std::collections::HashMap::new(),
            dedup_generation: 0,
            chunk_store: None,
            live_drain: None,
            live_epoch: 0,
        }
    }

    /// Attach a freshly forked proxy.
    pub fn attach_proxy(&mut self, link: ProxyLink) {
        assert!(self.proxy.is_none(), "proxy already attached");
        self.proxy = Some(link);
        self.pipe_broken = false;
    }

    /// Sever the app↔proxy pipe without detaching the proxy: every
    /// subsequent forward fails with `DeviceNotAvailable` until a new
    /// proxy is attached. This is what a fault-injected `SIGPIPE` /
    /// proxy wedge looks like from the application side.
    pub fn break_pipe(&mut self) {
        self.pipe_broken = true;
    }

    /// `true` once the pipe has been severed by fault injection.
    pub fn pipe_broken(&self) -> bool {
        self.pipe_broken
    }

    /// Detach (e.g. the proxy is being killed for checkpointing under
    /// DMTCP, or the process is migrating away).
    pub fn detach_proxy(&mut self) -> Option<ProxyLink> {
        self.proxy.take()
    }

    /// `true` while a proxy is attached and calls can be forwarded.
    pub fn has_proxy(&self) -> bool {
        self.proxy.is_some()
    }

    /// Pid of the attached proxy process.
    pub fn proxy_pid(&self) -> Option<Pid> {
        self.proxy.as_ref().map(|p| p.proxy_pid)
    }

    /// Statistics so far.
    pub fn stats(&self) -> CheclStats {
        self.stats
    }

    /// Configuration in force.
    pub fn config(&self) -> CheclConfig {
        self.config
    }

    /// Record that the application registered a build callback, which
    /// CheCL ignores (§IV-D: "CheCL just ignores those callback
    /// functions").
    pub fn ignore_build_callback(&mut self) {
        self.stats.callbacks_ignored += 1;
    }

    /// Serialize the CheCL state that lives in application host memory
    /// (and therefore inside the BLCR dump).
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.db.encode(&mut out);
        (self.config.struct_arg_policy == StructArgPolicy::ScanAndTranslate).encode(&mut out);
        out
    }

    /// Rebuild the shim from a dumped state segment. No proxy is
    /// attached; the restart procedure forks a new one.
    pub fn decode_state(bytes: &[u8]) -> Result<ChecLib, simcore::CodecError> {
        let mut r = simcore::Reader::new(bytes);
        let db = CheclDb::decode(&mut r)?;
        let scan = bool::decode(&mut r)?;
        Ok(ChecLib {
            db,
            config: CheclConfig {
                struct_arg_policy: if scan {
                    StructArgPolicy::ScanAndTranslate
                } else {
                    StructArgPolicy::PassThrough
                },
            },
            stats: CheclStats::default(),
            proxy: None,
            pipe_broken: false,
            sig_cache: std::collections::HashMap::new(),
            struct_defs_cache: std::collections::HashMap::new(),
            dedup_generation: 0,
            chunk_store: None,
            live_drain: None,
            live_epoch: 0,
        })
    }

    // -----------------------------------------------------------------
    // Forwarding and translation machinery
    // -----------------------------------------------------------------

    /// Ship one request to the proxy and return its response, paying
    /// the IPC costs on both legs.
    pub(crate) fn forward(&mut self, now: &mut SimTime, req: ApiRequest) -> ClResult<ApiResponse> {
        if self.pipe_broken {
            return Err(ClError::DeviceNotAvailable);
        }
        let link = self.proxy.as_mut().ok_or(ClError::DeviceNotAvailable)?;
        // Forwarded calls per OpenCL entry point (the "API-chatty"
        // programs of Fig. 4 show up here), counted while recording.
        if telemetry::enabled() {
            telemetry::counter_add(&format!("checl.calls.{}", req.api_name()), 1);
        }
        let req_size = req.wire_size();
        link.pipe.transfer(now, req_size);
        let resp = link.driver.call(now, req)?;
        let resp_size = resp.wire_size();
        link.pipe.transfer(now, resp_size);
        self.stats.forwarded_calls += 1;
        self.stats.ipc_bytes += req_size + resp_size;
        if telemetry::enabled() {
            telemetry::counter_add("checl.forwarded_calls", 1);
            telemetry::counter_add("checl.ipc_bytes", req_size + resp_size);
        }
        Ok(resp)
    }

    /// Translate one CheCL handle to the wrapped vendor handle,
    /// checking liveness and kind.
    pub(crate) fn xlate(&mut self, checl: u64, kind: HandleKind) -> ClResult<RawHandle> {
        let entry = self
            .db
            .get(checl)
            .ok_or_else(|| ClError::invalid_handle(kind))?;
        if entry.refs == 0 || entry.record.kind() != kind {
            return Err(ClError::invalid_handle(kind));
        }
        self.stats.handle_translations += 1;
        Ok(entry.vendor)
    }

    /// `InvalidValue` unless `[offset, offset + len)` lies inside
    /// buffer `checl_mem`, checked against its record's size with the
    /// driver's own [`byte_span`] rule.
    fn check_span(&self, checl_mem: u64, offset: u64, len: u64) -> ClResult<()> {
        match self.db.get(checl_mem).map(|e| &e.record) {
            Some(ObjectRecord::Mem { size, .. }) if byte_span(offset, len, *size).is_none() => {
                Err(ClError::InvalidValue)
            }
            _ => Ok(()),
        }
    }

    /// Dirty-region lists longer than this collapse to one whole-buffer
    /// span — past that point, region bookkeeping costs more than the
    /// chunker could ever save.
    const MAX_DIRTY_REGIONS: usize = 64;

    /// Copy-on-write guard for the live checkpoint drain: when a live
    /// snapshot's cut still holds this buffer's un-serialized bytes,
    /// lazily fork the chunks the imminent write would clobber before
    /// forwarding it (`len == u64::MAX` forks the whole buffer). The
    /// fork's D2H read is charged to the app clock — that is the only
    /// stall a live checkpoint imposes after the quiesce point. No-op
    /// when no live drain is in flight.
    pub(crate) fn cow_guard(
        &mut self,
        now: &mut SimTime,
        checl_mem: u64,
        offset: u64,
        len: u64,
    ) -> ClResult<()> {
        let Some(mut drain) = self.live_drain.take() else {
            return Ok(());
        };
        let r = drain.cow_fork(self, now, checl_mem, offset, len);
        self.live_drain = Some(drain);
        r
    }

    /// Pre-effect of a write to `[offset, offset + len)` of a buffer:
    /// fork the span out of a pending live cut, then mark it modified
    /// since its last save (drives dedup's clean-buffer fast path). With
    /// `len == u64::MAX` the footprint is unknown (kernel and image
    /// writes) and the whole extent is dirtied; a precise span lets the
    /// dedup checkpointer skip hashing chunks outside every region.
    fn overwrite(&mut self, now: &mut SimTime, mem: u64, offset: u64, len: u64) -> ClResult<()> {
        self.cow_guard(now, mem, offset, len)?;
        let Some(ObjectRecord::Mem {
            size,
            dirty,
            dirty_regions,
            ..
        }) = self.db.get_mut(mem).map(|e| &mut e.record)
        else {
            return Ok(());
        };
        let whole = len == u64::MAX;
        // A dirty buffer with an empty region list means "unknown
        // extent"; adding a precise span to it would silently *shrink*
        // the dirty footprint.
        if !whole && *dirty && dirty_regions.is_empty() {
            return Ok(());
        }
        *dirty = true;
        if !whole {
            dirty_regions.push((offset, len.min(size.saturating_sub(offset))));
        }
        if whole || dirty_regions.len() > Self::MAX_DIRTY_REGIONS {
            dirty_regions.clear();
            dirty_regions.push((0, *size));
        }
        Ok(())
    }

    /// Wrap the object handle `resp` returns in a fresh CheCL object
    /// holding `record`, so the application only ever sees CheCL handles.
    fn wrap(&mut self, mut resp: ApiResponse, record: Option<ObjectRecord>) -> ApiResponse {
        if let (Some(record), Some(h)) = (record, resp.object_mut()) {
            *h = RawHandle(self.db.insert(*h, record));
        }
        resp
    }

    // -----------------------------------------------------------------
    // Per-call handlers needing real logic
    // -----------------------------------------------------------------

    fn get_platform_ids(&mut self, now: &mut SimTime) -> ClResult<ApiResponse> {
        // Idempotent wrapping: repeated queries return the same CheCL
        // handles, as applications expect platform ids to be stable.
        let existing: Vec<u64> = self
            .db
            .live_of_kind(HandleKind::Platform)
            .map(|e| e.checl)
            .collect();
        if !existing.is_empty() {
            return Ok(ApiResponse::Platforms(
                existing
                    .into_iter()
                    .map(|h| PlatformId::from_raw(RawHandle(h)))
                    .collect(),
            ));
        }
        let vendor_ids = self
            .forward(now, ApiRequest::GetPlatformIds)?
            .into_platforms()?;
        let out = vendor_ids
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let index = i as u32;
                PlatformId::from_raw(RawHandle(
                    self.db.insert(p.raw(), ObjectRecord::Platform { index }),
                ))
            })
            .collect();
        Ok(ApiResponse::Platforms(out))
    }

    fn get_device_ids(
        &mut self,
        now: &mut SimTime,
        platform: PlatformId,
        device_type: clspec::types::DeviceType,
    ) -> ClResult<ApiResponse> {
        let checl_platform = platform.raw().0;
        let vendor_platform = self.xlate(checl_platform, HandleKind::Platform)?;
        // Idempotent for a repeated identical query.
        let existing: Vec<u64> = self
            .db
            .live_of_kind(HandleKind::Device)
            .filter(|e| {
                matches!(
                    e.record,
                    ObjectRecord::Device { platform: p, query_type: qt, .. }
                        if p == checl_platform && qt == device_type
                )
            })
            .map(|e| e.checl)
            .collect();
        if !existing.is_empty() {
            return Ok(ApiResponse::Devices(
                existing
                    .into_iter()
                    .map(|h| DeviceId::from_raw(RawHandle(h)))
                    .collect(),
            ));
        }
        let vendor_devs = self
            .forward(
                now,
                ApiRequest::GetDeviceIds {
                    platform: PlatformId::from_raw(vendor_platform),
                    device_type,
                },
            )?
            .into_devices()?;
        let out = vendor_devs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                DeviceId::from_raw(RawHandle(self.db.insert(
                    d.raw(),
                    ObjectRecord::Device {
                        platform: checl_platform,
                        query_type: device_type,
                        index: i as u32,
                    },
                )))
            })
            .collect();
        Ok(ApiResponse::Devices(out))
    }

    /// Cached lookup of a kernel's signature: `(program handle, index
    /// into the program's `sigs`)`. Scans the signature list only the
    /// first time each kernel handle is seen.
    fn sig_index_of_kernel(&mut self, kernel_checl: u64) -> Option<(u64, usize)> {
        if let Some(cached) = self.sig_cache.get(&kernel_checl) {
            return *cached;
        }
        let resolved = (|| {
            let kentry = self.db.get(kernel_checl)?;
            let ObjectRecord::Kernel { program, name, .. } = &kentry.record else {
                return None;
            };
            let pentry = self.db.get(*program)?;
            let ObjectRecord::Program { sigs, .. } = &pentry.record else {
                return None;
            };
            sigs.iter()
                .position(|s| &s.name == name)
                .map(|i| (*program, i))
        })();
        self.sig_cache.insert(kernel_checl, resolved);
        resolved
    }

    /// Cached "does this named type contain handles" classification for
    /// one program's source. Parses the struct definitions only the
    /// first time each program handle is seen.
    fn is_handle_struct_type(&mut self, program: u64, ty: &str) -> bool {
        if !self.struct_defs_cache.contains_key(&program) {
            let defs = match self.db.get(program).map(|e| &e.record) {
                Some(ObjectRecord::Program {
                    source: Some(src), ..
                }) => parse_struct_defs(src),
                _ => std::collections::BTreeMap::new(),
            };
            self.struct_defs_cache.insert(program, defs);
        }
        self.struct_defs_cache[&program].get(ty) == Some(&true)
    }

    /// Decide how to record + translate one `clSetKernelArg` value.
    fn classify_and_translate_arg(
        &mut self,
        kernel_checl: u64,
        index: u32,
        value: &ArgValue,
    ) -> ClResult<(RecordedArg, ArgValue)> {
        // Pull what we need from the kernel/program records first.
        let sig_loc = self.sig_index_of_kernel(kernel_checl);
        let (param_kind, program) = {
            let kentry = self.db.get(kernel_checl).ok_or(ClError::InvalidKernel)?;
            let program = match &kentry.record {
                ObjectRecord::Kernel { program, .. } => *program,
                _ => return Err(ClError::InvalidKernel),
            };
            let pentry = self.db.get(program).ok_or(ClError::InvalidProgram)?;
            let ObjectRecord::Program { sigs, .. } = &pentry.record else {
                return Err(ClError::InvalidProgram);
            };
            let kind = sig_loc
                .and_then(|(_, i)| sigs.get(i))
                .and_then(|s| s.params.get(index as usize))
                .map(|p| p.kind.clone());
            (kind, program)
        };

        match (param_kind, value) {
            // Source unavailable (binary program): guess by address.
            (None, ArgValue::Bytes(b)) => {
                if let Some(h) = guess_handle(&self.db, b) {
                    self.stats.guessed_args += 1;
                    let entry = self.db.get(h).expect("guessed handle is live");
                    let vendor = entry.vendor;
                    Ok((
                        RecordedArg::Handle(h),
                        ArgValue::Bytes(vendor.0.to_le_bytes().to_vec()),
                    ))
                } else {
                    Ok((RecordedArg::Bytes(b.clone()), value.clone()))
                }
            }
            (None, ArgValue::LocalMem(n)) => Ok((RecordedArg::Local(*n), value.clone())),
            (Some(ParamKind::LocalPtr), ArgValue::LocalMem(n)) => {
                Ok((RecordedArg::Local(*n), value.clone()))
            }
            (Some(ParamKind::LocalPtr), _) => Err(ClError::InvalidArgValue),
            (Some(kind), ArgValue::Bytes(b)) if kind.is_handle() => {
                let checl_h = ArgValue::Bytes(b.clone())
                    .as_handle()
                    .ok_or(ClError::InvalidArgValue)?
                    .0;
                let want = match kind {
                    ParamKind::Sampler => HandleKind::Sampler,
                    _ => HandleKind::Mem,
                };
                let vendor = self.xlate(checl_h, want)?;
                Ok((
                    RecordedArg::Handle(checl_h),
                    ArgValue::Bytes(vendor.0.to_le_bytes().to_vec()),
                ))
            }
            (Some(ParamKind::Scalar(ty)), ArgValue::Bytes(b)) => {
                // Is this a user-defined struct containing handles?
                let is_handle_struct = self.is_handle_struct_type(program, &ty);
                if is_handle_struct {
                    match self.config.struct_arg_policy {
                        StructArgPolicy::PassThrough => {
                            // Paper behaviour: the handles inside are
                            // overlooked and reach the vendor raw.
                            Ok((RecordedArg::Bytes(b.clone()), value.clone()))
                        }
                        StructArgPolicy::ScanAndTranslate => {
                            let mut blob = b.clone();
                            let db = &self.db;
                            let mut translations = 0u64;
                            rewrite_handles_in_struct(db, &mut blob, |h| {
                                translations += 1;
                                db.vendor_of(h).map(|v| v.0)
                            });
                            self.stats.handle_translations += translations;
                            Ok((RecordedArg::Bytes(b.clone()), ArgValue::Bytes(blob)))
                        }
                    }
                } else {
                    Ok((RecordedArg::Bytes(b.clone()), value.clone()))
                }
            }
            (Some(_), ArgValue::LocalMem(_)) => Err(ClError::InvalidArgValue),
            // Handle kinds and scalars are fully covered above; the
            // compiler cannot see through the `is_handle()` guard.
            (Some(_), ArgValue::Bytes(_)) => unreachable!("param kind not classified"),
        }
    }

    fn set_kernel_arg(
        &mut self,
        now: &mut SimTime,
        kernel: Kernel,
        index: u32,
        value: ArgValue,
    ) -> ClResult<ApiResponse> {
        let kernel_checl = kernel.raw().0;
        let vendor_kernel = self.xlate(kernel_checl, HandleKind::Kernel)?;
        let (recorded, translated) =
            self.classify_and_translate_arg(kernel_checl, index, &value)?;
        let resp = self.forward(
            now,
            ApiRequest::SetKernelArg {
                kernel: Kernel::from_raw(vendor_kernel),
                index,
                value: translated,
            },
        )?;
        if let Some(entry) = self.db.get_mut(kernel_checl) {
            if let ObjectRecord::Kernel { args, .. } = &mut entry.record {
                args.insert(index, recorded);
            }
        }
        Ok(resp)
    }

    /// CheCL handles of `USE_HOST_PTR` buffers currently bound to the
    /// kernel's arguments.
    fn host_ptr_args_of_kernel(&self, kernel_checl: u64) -> Vec<(u64, u64)> {
        let Some(entry) = self.db.get(kernel_checl) else {
            return Vec::new();
        };
        let ObjectRecord::Kernel { args, .. } = &entry.record else {
            return Vec::new();
        };
        args.values()
            .filter_map(|a| match a {
                RecordedArg::Handle(h) => self.db.get(*h),
                _ => None,
            })
            .filter_map(|e| match &e.record {
                ObjectRecord::Mem {
                    host_cache: Some(c),
                    ..
                } => Some((e.checl, c.len() as u64)),
                _ => None,
            })
            .collect()
    }

    /// `clEnqueueNDRangeKernel`: `req` still in CheCL handle space, with
    /// its queue, kernel and global range.
    fn enqueue_nd_range(
        &mut self,
        now: &mut SimTime,
        mut req: ApiRequest,
        queue: u64,
        checl_kernel: u64,
        global: NDRange,
    ) -> ClResult<ApiResponse> {
        let event = ObjectRecord::created_by(&req);
        req.try_map_handles(|kind, h| self.xlate(h.0, kind))?;
        let event = event.transpose()?;
        let vendor_queue = CommandQueue::from_raw(
            self.db
                .vendor_of(queue)
                .expect("the queue translated above"),
        );

        // A launch may write any buffer bound through a *writable*
        // parameter. Pointer-to-const and __constant parameters cannot
        // be written, so their buffers stay clean — the per-parameter
        // modification tracking the paper lists as future work, which
        // is what lets dedup's incremental fast path skip them.
        let sig_loc = self.sig_index_of_kernel(checl_kernel);
        let bound_mems: Vec<(u64, Option<u64>)> = {
            let sig = sig_loc.and_then(|(p, i)| match self.db.get(p).map(|e| &e.record) {
                Some(ObjectRecord::Program { sigs, .. }) => sigs.get(i),
                _ => None,
            });
            let param_of = |idx: u32| sig.and_then(|s| s.params.get(idx as usize));
            match self.db.get(checl_kernel).map(|e| &e.record) {
                Some(ObjectRecord::Kernel { args, .. }) => args
                    .iter()
                    .filter_map(|(idx, a)| match a {
                        RecordedArg::Handle(h) => {
                            let p = param_of(*idx);
                            // Unknown signature (binary program):
                            // conservative.
                            let writable = p.is_none_or(|p| {
                                !p.is_const
                                    && !matches!(
                                        p.kind,
                                        ParamKind::ConstantPtr | ParamKind::Sampler
                                    )
                            });
                            if !writable {
                                return None;
                            }
                            // A provably gid-strided parameter of a 1-D
                            // launch writes at most the first
                            // `items * elem` bytes — record that instead
                            // of whole-dirtying the buffer.
                            let precise = p.and_then(|p| {
                                if p.gid_stride && global.dims == 1 {
                                    p.elem_bytes.map(|e| global.sizes[0].saturating_mul(e))
                                } else {
                                    None
                                }
                            });
                            Some((*h, precise))
                        }
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        for (m, precise) in bound_mems {
            self.overwrite(now, m, 0, precise.unwrap_or(u64::MAX))?;
        }

        // CL_MEM_USE_HOST_PTR: the cached host copy is pushed to the
        // device before the kernel and pulled back afterwards — "usually
        // causes severe performance degradation" (§IV-D).
        let host_ptr_mems = self.host_ptr_args_of_kernel(checl_kernel);
        for (mem_checl, _) in &host_ptr_mems {
            let cache = match self.db.get(*mem_checl) {
                Some(e) => match &e.record {
                    ObjectRecord::Mem {
                        host_cache: Some(c),
                        ..
                    } => c.clone(),
                    _ => continue,
                },
                None => continue,
            };
            let vendor_mem = Mem::from_raw(self.xlate(*mem_checl, HandleKind::Mem)?);
            self.forward(
                now,
                ApiRequest::EnqueueWriteBuffer {
                    queue: vendor_queue,
                    mem: vendor_mem,
                    blocking: true,
                    offset: 0,
                    data: cache,
                    wait_list: vec![],
                },
            )?;
        }

        let resp = self.forward(now, req)?;

        for (mem_checl, size) in &host_ptr_mems {
            let vendor_mem = Mem::from_raw(self.xlate(*mem_checl, HandleKind::Mem)?);
            let (data, _ev) = self
                .forward(
                    now,
                    ApiRequest::EnqueueReadBuffer {
                        queue: vendor_queue,
                        mem: vendor_mem,
                        blocking: true,
                        offset: 0,
                        size: *size,
                        wait_list: vec![],
                    },
                )?
                .into_data_event()?;
            if let Some(e) = self.db.get_mut(*mem_checl) {
                if let ObjectRecord::Mem { host_cache, .. } = &mut e.record {
                    *host_cache = Some(data);
                }
            }
        }
        Ok(self.wrap(resp, event))
    }
}

impl ChecLib {
    /// The translate/forward/record pipeline behind [`ClApi::call`]: one
    /// generic path for every request but the four with logic of their
    /// own (enumeration, `clSetKernelArg`, `clEnqueueNDRangeKernel`).
    fn dispatch(&mut self, now: &mut SimTime, mut req: ApiRequest) -> ClResult<ApiResponse> {
        use ApiRequest::*;
        match req {
            GetPlatformIds => return self.get_platform_ids(now),
            GetDeviceIds {
                platform,
                device_type,
            } => return self.get_device_ids(now, platform, device_type),
            SetKernelArg {
                kernel,
                index,
                value,
            } => return self.set_kernel_arg(now, kernel, index, value),
            EnqueueNDRangeKernel {
                queue,
                kernel,
                global,
                ..
            } => {
                let (queue, kernel) = (queue.raw().0, kernel.raw().0);
                return self.enqueue_nd_range(now, req, queue, kernel, global);
            }
            _ => {}
        }
        // 1. The CheCL-space facts, noted before translation rewrites the
        //    handles they name: the record the call creates, the buffer
        //    spans it reads and overwrites, and the refcount it moves.
        let created = ObjectRecord::created_by(&req);
        let (copied, overwritten) = match &req {
            EnqueueWriteBuffer {
                mem, offset, data, ..
            } => (None, Some((mem.raw().0, *offset, data.len() as u64))),
            EnqueueWriteImage { image, .. } => (None, Some((image.raw().0, 0, u64::MAX))),
            EnqueueCopyBuffer {
                src,
                dst,
                src_offset,
                dst_offset,
                size,
                ..
            } => (
                Some((src.raw().0, *src_offset, *size)),
                Some((dst.raw().0, *dst_offset, *size)),
            ),
            _ => (None, None),
        };
        let refcount = req.refcount();
        let build_options = match &req {
            BuildProgram { program, options } => Some((program.raw().0, options.clone())),
            _ => None,
        };

        // 2. Translate every input handle. The first bad one rejects the
        //    call before it has any effect.
        req.try_map_handles(|kind, h| self.xlate(h.0, kind))?;
        let record = created.transpose()?;
        //    So does a span past its buffer's end, the driver's
        //    `InvalidValue` (a whole-object write, `u64::MAX`, has none).
        for (mem, offset, len) in copied.into_iter().chain(overwritten) {
            if len != u64::MAX {
                self.check_span(mem, offset, len)?;
            }
        }

        // 3. Pre-effects: fork a pending live cut, mark dirty, and keep
        //    a USE_HOST_PTR cache coherent with the app's write.
        if let Some((mem, offset, len)) = overwritten {
            self.overwrite(now, mem, offset, len)?;
            if let (EnqueueWriteBuffer { data, .. }, Some(e)) = (&req, self.db.get_mut(mem)) {
                if let ObjectRecord::Mem {
                    host_cache: Some(c),
                    ..
                } = &mut e.record
                {
                    let end = offset.saturating_add(data.len() as u64);
                    if end <= c.len() as u64 {
                        c.make_mut()[offset as usize..end as usize].copy_from_slice(data);
                    }
                }
            }
        }
        if let Some((HandleKind::Mem, mem, RefOp::Release)) = refcount {
            // A released buffer's device copy is gone — fork the whole
            // object into the pending cut first so the drain never has
            // to read a dead handle.
            self.cow_guard(now, mem.0, 0, u64::MAX)?;
        }

        // 4. One forward, then the post-effects: mirror the refcount,
        //    record the build options, wrap the returned handle.
        let resp = self.forward(now, req)?;
        match refcount {
            Some((_, h, RefOp::Retain)) => {
                self.db.retain(h.0);
            }
            Some((_, h, RefOp::Release)) => {
                self.db.release(h.0);
            }
            None => {}
        }
        if let Some((program, options)) = build_options {
            if let Some(ObjectRecord::Program { build_options, .. }) =
                self.db.get_mut(program).map(|e| &mut e.record)
            {
                *build_options = Some(options);
            }
        }
        Ok(self.wrap(resp, record))
    }
}

impl ClApi for ChecLib {
    fn call(&mut self, now: &mut SimTime, req: ApiRequest) -> ClResult<ApiResponse> {
        if !telemetry::enabled() {
            return self.dispatch(now, req);
        }
        // One span per application-facing API call. CPR-internal
        // traffic goes through `forward` directly and never opens an
        // `api` span, which is what makes the checkpoint-quiescence
        // invariant of `telemetry::validate` checkable.
        let api = req.api_name();
        let t0 = *now;
        let before = self.stats;
        telemetry::span_begin(telemetry::API_CATEGORY, api, t0, Vec::new());
        let result = self.dispatch(now, req);
        let after = self.stats;
        telemetry::counter_add("checl.api_calls", 1);
        telemetry::span_end(
            telemetry::API_CATEGORY,
            api,
            *now,
            vec![
                ("ipc_bytes", (after.ipc_bytes - before.ipc_bytes).into()),
                (
                    "translations",
                    (after.handle_translations - before.handle_translations).into(),
                ),
                (
                    "forwards",
                    (after.forwarded_calls - before.forwarded_calls).into(),
                ),
                ("ok", u64::from(result.is_ok()).into()),
            ],
        );
        result
    }

    fn impl_name(&self) -> String {
        match &self.proxy {
            Some(p) => format!("CheCL (proxy: {})", p.driver.impl_name()),
            None => "CheCL (no proxy)".to_string(),
        }
    }
}
