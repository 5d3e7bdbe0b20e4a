//! CheCL objects: wrapper records for every OpenCL object.
//!
//! "CheCL uses a wrapper class instead of an OpenCL object, called a
//! CheCL object. … every API function … records the actual OpenCL
//! handle and arguments in a CheCL object, and then returns its pointer
//! called a CheCL handle" (§III-B).
//!
//! The database of CheCL objects is ordinary host memory: it rides
//! inside the BLCR dump, which is how the restart procedure knows what
//! to re-create. Everything here is therefore [`Codec`].
//!
//! A record and the request that creates its object are each other's
//! inverse: the shim builds every record from a request with
//! [`ObjectRecord::created_by`], and a restart turns it back into one
//! with [`ObjectRecord::recreate_request`].

use clspec::api::ApiRequest;
use clspec::error::{ClError, ClResult};
use clspec::handles::{CommandQueue, Context, DeviceId, HandleKind, Program, RawHandle};
use clspec::sig::{parse_kernel_sigs, KernelSig};
use clspec::types::{image2d_bytes, DeviceType, MemFlags, QueueProps, SamplerDesc};
use simcore::codec::{Codec, CodecError, Reader};
use simcore::{impl_codec_enum, impl_codec_struct, Payload};
use std::collections::{BTreeMap, HashMap};

/// A recorded `clSetKernelArg` value, in CheCL-handle space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordedArg {
    /// The blob held a CheCL handle (decided by signature parsing or
    /// address guessing); we store the CheCL handle so the argument can
    /// be replayed after the underlying object is re-created.
    Handle(u64),
    /// Plain by-value bytes.
    Bytes(Vec<u8>),
    /// `__local` size.
    Local(u64),
}

impl_codec_enum!(RecordedArg, "RecordedArg tag", {
    0 => Handle(handle),
    1 => Bytes(bytes),
    2 => Local(size),
});

/// Restore information for one object, by kind.
///
/// Cross-references between objects use *CheCL handles* (`u64`), which
/// are stable across restarts — only the wrapped vendor handles change.
#[derive(Clone, Debug, PartialEq)]
pub enum ObjectRecord {
    /// `clGetPlatformIDs` result, identified by position.
    Platform {
        /// Index in the platform list.
        index: u32,
    },
    /// `clGetDeviceIDs` result.
    Device {
        /// CheCL handle of the owning platform.
        platform: u64,
        /// Device type used in the query.
        query_type: DeviceType,
        /// Index within the query result.
        index: u32,
    },
    /// `clCreateContext` arguments.
    Context {
        /// CheCL handles of the devices.
        devices: Vec<u64>,
    },
    /// `clCreateCommandQueue` arguments.
    Queue {
        /// CheCL handle of the context.
        context: u64,
        /// CheCL handle of the device.
        device: u64,
        /// Queue properties.
        props: QueueProps,
    },
    /// `clCreateBuffer` arguments plus data captured at checkpoint.
    Mem {
        /// CheCL handle of the context.
        context: u64,
        /// Creation flags.
        flags: MemFlags,
        /// Buffer size in bytes.
        size: u64,
        /// Device data saved in the preprocessing phase; present only
        /// between checkpoint and postprocessing/restart.
        saved_data: Option<Payload>,
        /// Host-side cached copy for `CL_MEM_USE_HOST_PTR` buffers.
        host_cache: Option<Payload>,
        /// `true` if the device copy may have changed since the last
        /// checkpoint (kernel wrote to it, or the host wrote it).
        dirty: bool,
        /// Checkpoint file the most recent snapshot saved this buffer
        /// into (bookkeeping only; restores never chase it).
        saved_in: Option<String>,
        /// `Some((w, h))` when the object is a 2-D image rather than a
        /// plain buffer (created via `clCreateImage2D`).
        image_dims: Option<(u64, u64)>,
        /// Byte ranges `(offset, len)` written since the last save —
        /// the sub-buffer dirty map behind the dedup chunker's
        /// region-clean fast path. An *empty* list while `dirty` is set
        /// means the extent is unknown (fresh buffer, invalidated
        /// save): the whole buffer is treated as dirty.
        dirty_regions: Vec<(u64, u64)>,
        /// The `(chunk hash, len)` segment list the most recent dedup
        /// checkpoint stored for this buffer, in buffer order. Live
        /// bookkeeping for the *next* checkpoint only — restores read
        /// the chunk-map frames in the stream, never this field.
        saved_chunks: Option<Vec<(u64, u64)>>,
        /// Epoch stamp of the most recent live-snapshot cut this buffer
        /// belongs to. A mutation while the engine's pending cut carries
        /// the same epoch must COW-fork the affected chunks first.
        cut_epoch: u64,
    },
    /// `clCreateSampler` arguments.
    Sampler {
        /// CheCL handle of the context.
        context: u64,
        /// Creation descriptor.
        desc: SamplerDesc,
    },
    /// `clCreateProgramWith{Source,Binary}` arguments.
    Program {
        /// CheCL handle of the context.
        context: u64,
        /// Kernel source, if created from source.
        source: Option<String>,
        /// Vendor binary, if created from binary (deprecated path).
        binary: Option<Vec<u8>>,
        /// `clBuildProgram` options, recorded when the app builds.
        build_options: Option<String>,
        /// Parsed kernel signatures (empty for binary programs — the
        /// source is unavailable, forcing address-guessing, §IV-D).
        sigs: Vec<KernelSig>,
    },
    /// `clCreateKernel` arguments plus the argument history.
    Kernel {
        /// CheCL handle of the program.
        program: u64,
        /// Kernel function name.
        name: String,
        /// Latest value set for each argument index.
        args: BTreeMap<u32, RecordedArg>,
    },
    /// An event returned by some enqueue. Cannot be re-created; the
    /// restart procedure substitutes a dummy `clEnqueueMarker` event
    /// (§III-C, Fig. 3).
    Event {
        /// CheCL handle of the queue the command went to.
        queue: u64,
    },
}

impl ObjectRecord {
    /// The object kind this record restores.
    pub fn kind(&self) -> HandleKind {
        match self {
            ObjectRecord::Platform { .. } => HandleKind::Platform,
            ObjectRecord::Device { .. } => HandleKind::Device,
            ObjectRecord::Context { .. } => HandleKind::Context,
            ObjectRecord::Queue { .. } => HandleKind::CommandQueue,
            ObjectRecord::Mem { .. } => HandleKind::Mem,
            ObjectRecord::Sampler { .. } => HandleKind::Sampler,
            ObjectRecord::Program { .. } => HandleKind::Program,
            ObjectRecord::Kernel { .. } => HandleKind::Kernel,
            ObjectRecord::Event { .. } => HandleKind::Event,
        }
    }

    /// The record a successful `req` leaves behind, read off the request
    /// while its handles are still CheCL handles; `None` for a call that
    /// creates nothing. This is the one place the shim builds a record.
    /// A `USE_HOST_PTR` buffer shares its host data as its cache; a program
    /// from source has its kernel signatures parsed here (§III-B), which
    /// fails with `InvalidValue` on unparsable source. Enumerated
    /// platforms and devices are recorded by position, which the request
    /// does not carry, so they are not built here.
    pub fn created_by(req: &ApiRequest) -> Option<ClResult<ObjectRecord>> {
        use ApiRequest::*;
        Some(Ok(match req {
            CreateContext { devices } => ObjectRecord::Context {
                devices: devices.iter().map(|d| d.raw().0).collect(),
            },
            CreateCommandQueue {
                context,
                device,
                props,
            } => ObjectRecord::Queue {
                context: context.raw().0,
                device: device.raw().0,
                props: *props,
            },
            CreateBuffer {
                context,
                flags,
                host_data,
                ..
            }
            | CreateImage2D {
                context,
                flags,
                host_data,
                ..
            } => {
                let (size, image_dims) = match *req {
                    CreateImage2D { width, height, .. } => match image2d_bytes(width, height) {
                        Some(size) => (size, Some((width, height))),
                        None => return Some(Err(ClError::InvalidValue)),
                    },
                    CreateBuffer { size, .. } => (size, None),
                    _ => unreachable!("matched a buffer or an image above"),
                };
                ObjectRecord::Mem {
                    context: context.raw().0,
                    flags: *flags,
                    size,
                    saved_data: None,
                    host_cache: host_data
                        .as_ref()
                        .filter(|_| flags.contains(MemFlags::USE_HOST_PTR))
                        .cloned(),
                    dirty: true,
                    saved_in: None,
                    image_dims,
                    dirty_regions: Vec::new(),
                    saved_chunks: None,
                    cut_epoch: 0,
                }
            }
            CreateSampler { context, desc } => ObjectRecord::Sampler {
                context: context.raw().0,
                desc: *desc,
            },
            CreateProgramWithSource { context, source } => {
                return Some(
                    parse_kernel_sigs(source)
                        .map_err(|_| ClError::InvalidValue)
                        .map(|sigs| ObjectRecord::Program {
                            context: context.raw().0,
                            source: Some(source.clone()),
                            binary: None,
                            build_options: None,
                            sigs,
                        }),
                )
            }
            CreateProgramWithBinary {
                context, binary, ..
            } => ObjectRecord::Program {
                context: context.raw().0,
                source: None,
                binary: Some(binary.clone()),
                build_options: None,
                sigs: Vec::new(),
            },
            CreateKernel { program, name } => ObjectRecord::Kernel {
                program: program.raw().0,
                name: name.clone(),
                args: BTreeMap::new(),
            },
            EnqueueReadImage { queue, .. }
            | EnqueueWriteImage { queue, .. }
            | EnqueueReadBuffer { queue, .. }
            | EnqueueWriteBuffer { queue, .. }
            | EnqueueCopyBuffer { queue, .. }
            | EnqueueNDRangeKernel { queue, .. }
            | EnqueueMarker { queue } => ObjectRecord::Event {
                queue: queue.raw().0,
            },
            _ => return None,
        }))
    }

    /// The request that re-creates this object on a fresh proxy, in
    /// CheCL-handle space — the inverse of [`ObjectRecord::created_by`].
    /// A buffer comes back empty, with its access flags only: host-pointer
    /// flags are creation-time concepts, and the restore uploads the
    /// saved data itself. An event comes back as the dummy
    /// `clEnqueueMarker` event of §III-C (Fig. 3). `None` for the
    /// enumerated platforms and devices and for a program built from a
    /// binary: re-creating those needs the restore host's devices.
    pub fn recreate_request(&self) -> Option<ApiRequest> {
        let ctx = |h: &u64| Context::from_raw(RawHandle(*h));
        Some(match self {
            ObjectRecord::Platform { .. }
            | ObjectRecord::Device { .. }
            | ObjectRecord::Program { source: None, .. } => return None,
            ObjectRecord::Context { devices } => ApiRequest::CreateContext {
                devices: devices
                    .iter()
                    .map(|d| DeviceId::from_raw(RawHandle(*d)))
                    .collect(),
            },
            ObjectRecord::Queue {
                context,
                device,
                props,
            } => ApiRequest::CreateCommandQueue {
                context: ctx(context),
                device: DeviceId::from_raw(RawHandle(*device)),
                props: *props,
            },
            ObjectRecord::Mem {
                context,
                flags,
                size,
                image_dims,
                ..
            } => {
                let flags = [
                    MemFlags::READ_WRITE,
                    MemFlags::READ_ONLY,
                    MemFlags::WRITE_ONLY,
                ]
                .into_iter()
                .filter(|f| flags.contains(*f))
                .fold(MemFlags::empty(), MemFlags::union);
                match *image_dims {
                    Some((width, height)) => ApiRequest::CreateImage2D {
                        context: ctx(context),
                        flags,
                        width,
                        height,
                        host_data: None,
                    },
                    None => ApiRequest::CreateBuffer {
                        context: ctx(context),
                        flags,
                        size: *size,
                        host_data: None,
                    },
                }
            }
            ObjectRecord::Sampler { context, desc } => ApiRequest::CreateSampler {
                context: ctx(context),
                desc: *desc,
            },
            ObjectRecord::Program {
                context,
                source: Some(source),
                ..
            } => ApiRequest::CreateProgramWithSource {
                context: ctx(context),
                source: source.clone(),
            },
            ObjectRecord::Kernel { program, name, .. } => ApiRequest::CreateKernel {
                program: Program::from_raw(RawHandle(*program)),
                name: name.clone(),
            },
            ObjectRecord::Event { queue } => ApiRequest::EnqueueMarker {
                queue: CommandQueue::from_raw(RawHandle(*queue)),
            },
        })
    }
}

/// Merge a raw dirty-region list into sorted, disjoint, non-adjacent
/// `(offset, len)` spans — the canonical form the dedup chunker tests
/// chunk extents against.
pub fn merge_regions(mut regions: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    regions.retain(|&(_, len)| len > 0);
    regions.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(regions.len());
    for (off, len) in regions {
        match out.last_mut() {
            Some((o, l)) if off <= *o + *l => *l = (off + len).max(*o + *l) - *o,
            _ => out.push((off, len)),
        }
    }
    out
}

/// `true` when `[off, off+len)` intersects any of the (merged,
/// sorted) `regions`.
pub fn intersects_regions(regions: &[(u64, u64)], off: u64, len: u64) -> bool {
    regions.iter().any(|&(o, l)| off < o + l && o < off + len)
}

impl_codec_enum!(ObjectRecord, "ObjectRecord tag", {
    0 => Platform { index },
    1 => Device { platform, query_type, index },
    2 => Context { devices },
    3 => Queue { context, device, props },
    4 => Mem {
        context,
        flags,
        size,
        saved_data,
        host_cache,
        dirty,
        saved_in,
        image_dims,
        dirty_regions,
        saved_chunks,
        cut_epoch,
    },
    5 => Sampler { context, desc },
    6 => Program { context, source, binary, build_options, sigs },
    7 => Kernel { program, name, args },
    8 => Event { queue },
});

/// One database entry: a CheCL object.
#[derive(Clone, Debug, PartialEq)]
pub struct CheclEntry {
    /// The CheCL handle the application holds (stable forever).
    pub checl: u64,
    /// The vendor handle currently wrapped. Changes on every restore;
    /// meaningless while no proxy is attached.
    pub vendor: RawHandle,
    /// Restore information.
    pub record: ObjectRecord,
    /// OpenCL reference count mirrored from the app's retain/release
    /// calls. 0 means released — kept for diagnostics, not restored.
    pub refs: u32,
}

impl_codec_struct!(CheclEntry {
    checl,
    vendor,
    record,
    refs
});

/// The CheCL object database (§III-C: "a database is managed to hold
/// the pointers to all CheCL objects").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheclDb {
    /// Entries in creation order — which is also a valid dependency
    /// order within each kind.
    entries: Vec<CheclEntry>,
    /// checl handle → index in `entries`. A hash map, so `get`,
    /// `get_mut`, `vendor_of` and `is_live_handle` are O(1) — these sit
    /// on the per-API-call translation path. Never iterated (iteration
    /// order would be non-deterministic) and never serialised: the codec
    /// writes `entries` only and rebuilds the map on decode.
    index: HashMap<u64, usize>,
    next_handle: u64,
}

/// CheCL handles live in a recognisable range so tests (and the
/// address-guessing heuristic) can tell them from vendor handles.
const CHECL_HANDLE_BASE: u64 = 0x6000_0000_0000_0000;

impl CheclDb {
    /// Empty database.
    pub fn new() -> Self {
        CheclDb::default()
    }

    /// Register a new object; returns its CheCL handle.
    pub fn insert(&mut self, vendor: RawHandle, record: ObjectRecord) -> u64 {
        self.next_handle += 1;
        let checl = CHECL_HANDLE_BASE | (self.next_handle << 4);
        self.index.insert(checl, self.entries.len());
        self.entries.push(CheclEntry {
            checl,
            vendor,
            record,
            refs: 1,
        });
        checl
    }

    /// Look up by CheCL handle.
    pub fn get(&self, checl: u64) -> Option<&CheclEntry> {
        self.index.get(&checl).map(|&i| &self.entries[i])
    }

    /// Mutable lookup by CheCL handle.
    pub fn get_mut(&mut self, checl: u64) -> Option<&mut CheclEntry> {
        let i = *self.index.get(&checl)?;
        Some(&mut self.entries[i])
    }

    /// The vendor handle currently wrapped by `checl`, if the object is
    /// live.
    pub fn vendor_of(&self, checl: u64) -> Option<RawHandle> {
        self.get(checl).filter(|e| e.refs > 0).map(|e| e.vendor)
    }

    /// `true` if `value` is a live CheCL handle (used both for argument
    /// translation and for address-guessing).
    pub fn is_live_handle(&self, value: u64) -> bool {
        self.get(value).map(|e| e.refs > 0).unwrap_or(false)
    }

    /// Iterate live entries in creation order.
    pub fn live_entries(&self) -> impl Iterator<Item = &CheclEntry> {
        self.entries.iter().filter(|e| e.refs > 0)
    }

    /// Iterate live entries of one kind, in creation order.
    pub fn live_of_kind(&self, kind: HandleKind) -> impl Iterator<Item = &CheclEntry> {
        self.live_entries().filter(move |e| e.record.kind() == kind)
    }

    /// Mutable iteration over all entries (restore rewrites vendor
    /// handles in place).
    pub fn entries_mut(&mut self) -> impl Iterator<Item = &mut CheclEntry> {
        self.entries.iter_mut()
    }

    /// Retain: bump the mirrored refcount.
    pub fn retain(&mut self, checl: u64) -> bool {
        match self.get_mut(checl) {
            Some(e) if e.refs > 0 => {
                e.refs += 1;
                true
            }
            _ => false,
        }
    }

    /// Release: drop the mirrored refcount. Returns the new count, or
    /// `None` for an unknown/dead handle.
    pub fn release(&mut self, checl: u64) -> Option<u32> {
        let e = self.get_mut(checl)?;
        if e.refs == 0 {
            return None;
        }
        e.refs -= 1;
        Some(e.refs)
    }

    /// Count of live objects per kind, in restore order — the Fig. 7
    /// category breakdown.
    pub fn live_counts(&self) -> BTreeMap<HandleKind, usize> {
        let mut m = BTreeMap::new();
        for e in self.live_entries() {
            *m.entry(e.record.kind()).or_insert(0) += 1;
        }
        m
    }

    /// Total bytes of saved buffer data currently held (checkpoint
    /// payload size contribution).
    pub fn saved_data_bytes(&self) -> u64 {
        self.live_entries()
            .map(|e| match &e.record {
                ObjectRecord::Mem {
                    saved_data: Some(d),
                    ..
                } => d.len() as u64,
                _ => 0,
            })
            .sum()
    }
}

impl Codec for CheclDb {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
        self.next_handle.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let entries: Vec<CheclEntry> = Vec::decode(r)?;
        let next_handle = u64::decode(r)?;
        let mut index = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            index.insert(e.checl, i);
        }
        Ok(CheclDb {
            entries,
            index,
            next_handle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_distinct() {
        let mut db = CheclDb::new();
        let a = db.insert(RawHandle(100), ObjectRecord::Platform { index: 0 });
        let b = db.insert(RawHandle(200), ObjectRecord::Platform { index: 1 });
        assert_ne!(a, b);
        assert!(a & CHECL_HANDLE_BASE == CHECL_HANDLE_BASE);
        assert_eq!(db.vendor_of(a), Some(RawHandle(100)));
        assert_eq!(db.vendor_of(b), Some(RawHandle(200)));
    }

    #[test]
    fn refcounts_mirror_retain_release() {
        let mut db = CheclDb::new();
        let h = db.insert(RawHandle(1), ObjectRecord::Context { devices: vec![] });
        assert!(db.retain(h));
        assert_eq!(db.release(h), Some(1));
        assert_eq!(db.release(h), Some(0));
        assert!(!db.is_live_handle(h));
        assert_eq!(db.vendor_of(h), None);
        assert_eq!(db.release(h), None);
        assert!(!db.retain(h));
    }

    #[test]
    fn live_counts_by_kind() {
        let mut db = CheclDb::new();
        db.insert(RawHandle(1), ObjectRecord::Platform { index: 0 });
        let ctx = db.insert(RawHandle(2), ObjectRecord::Context { devices: vec![] });
        db.insert(
            RawHandle(3),
            ObjectRecord::Mem {
                context: ctx,
                flags: MemFlags::READ_WRITE,
                size: 64,
                saved_data: None,
                host_cache: None,
                dirty: true,
                saved_in: None,
                image_dims: None,
                dirty_regions: Vec::new(),
                saved_chunks: None,
                cut_epoch: 0,
            },
        );
        db.insert(
            RawHandle(4),
            ObjectRecord::Mem {
                context: ctx,
                flags: MemFlags::READ_WRITE,
                size: 64,
                saved_data: None,
                host_cache: None,
                dirty: true,
                saved_in: None,
                image_dims: None,
                dirty_regions: Vec::new(),
                saved_chunks: None,
                cut_epoch: 0,
            },
        );
        let counts = db.live_counts();
        assert_eq!(counts[&HandleKind::Mem], 2);
        assert_eq!(counts[&HandleKind::Context], 1);
        assert_eq!(counts.get(&HandleKind::Kernel), None);
    }

    #[test]
    fn db_codec_roundtrip() {
        let mut db = CheclDb::new();
        let p = db.insert(RawHandle(1), ObjectRecord::Platform { index: 0 });
        let d = db.insert(
            RawHandle(2),
            ObjectRecord::Device {
                platform: p,
                query_type: DeviceType::Gpu,
                index: 0,
            },
        );
        let c = db.insert(RawHandle(3), ObjectRecord::Context { devices: vec![d] });
        let prog = db.insert(
            RawHandle(4),
            ObjectRecord::Program {
                context: c,
                source: Some("__kernel void k(__global float* x) {}".into()),
                binary: None,
                build_options: Some("-O2".into()),
                sigs: clspec::sig::parse_kernel_sigs("__kernel void k(__global float* x) {}")
                    .unwrap(),
            },
        );
        let mut args = BTreeMap::new();
        args.insert(0, RecordedArg::Handle(c));
        args.insert(1, RecordedArg::Bytes(vec![1, 2, 3, 4]));
        args.insert(2, RecordedArg::Local(128));
        db.insert(
            RawHandle(5),
            ObjectRecord::Kernel {
                program: prog,
                name: "k".into(),
                args,
            },
        );
        db.release(p); // dead entries must survive serialization too
        let bytes = db.to_bytes();
        let back = CheclDb::from_bytes(&bytes).unwrap();
        assert_eq!(back, db);
        // Handle allocation continues without collisions after decode.
        let mut back = back;
        let newest = back.insert(RawHandle(9), ObjectRecord::Platform { index: 0 });
        assert!(back.get(newest).is_some());
        assert!(db.get(newest).is_none());
    }

    #[test]
    fn saved_data_accounting() {
        let mut db = CheclDb::new();
        let c = db.insert(RawHandle(1), ObjectRecord::Context { devices: vec![] });
        db.insert(
            RawHandle(2),
            ObjectRecord::Mem {
                context: c,
                flags: MemFlags::READ_WRITE,
                size: 100,
                saved_data: Some(vec![0u8; 100].into()),
                host_cache: None,
                dirty: true,
                saved_in: None,
                image_dims: None,
                dirty_regions: Vec::new(),
                saved_chunks: None,
                cut_epoch: 0,
            },
        );
        assert_eq!(db.saved_data_bytes(), 100);
    }
}
