//! The API call model: requests, responses, and the `ClApi` trait.
//!
//! Real OpenCL exposes ~90 C entry points through an ICD dispatch table.
//! CheCL's architecture treats each entry point as a *forwardable
//! message*: the interposed `libOpenCL.so` packages the call, rewrites
//! CheCL handles to vendor handles, ships it over a pipe to the API
//! proxy, and the proxy replays it against the vendor driver (§III-A).
//!
//! [`ApiRequest`] is that message. A vendor driver implements
//! [`ClApi::call`] by interpreting requests directly; CheCL implements
//! it by recording + forwarding. Applications never see this layer —
//! they use the typed wrappers in [`crate::ocl`].
//!
//! The `cl_api!` table below declares each call once: its variant, its
//! C name, its refcount role and its fields. The request's name, wire
//! size, handle visitor and [`ApiRequest::refcount`] are all generated
//! from it, and each field's type says what it costs on the wire and
//! which handles it carries, through the `ApiField` trait.

use crate::error::{ClError, ClResult};
use crate::handles::{
    CommandQueue, Context, DeviceId, Event, HandleKind, Kernel, Mem, PlatformId, Program,
    RawHandle, Sampler,
};
use crate::types::{
    ArgValue, DeviceInfo, DeviceType, EventStatus, MemFlags, NDRange, PlatformInfo, ProfilingInfo,
    QueueProps, SamplerDesc,
};
use simcore::{Payload, SimTime};

/// What a retain or release call does to its object's reference count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefOp {
    /// `clRetain*`: one more reference.
    Retain,
    /// `clRelease*`: one fewer; the last one destroys the object.
    Release,
}

/// One field of an [`ApiRequest`]: the payload bytes it adds on the
/// app↔proxy pipe, and the handles it carries. Plain data costs nothing
/// and carries none, so its impl is empty.
pub(crate) trait ApiField {
    /// Bytes this field adds to [`ApiRequest::wire_size`].
    fn wire_bytes(&self) -> u64 {
        0
    }

    /// Map each handle this field carries through `f`, in order,
    /// stopping at the first `Err`.
    fn try_map_handles<E>(
        &mut self,
        _f: &mut impl FnMut(HandleKind, RawHandle) -> Result<RawHandle, E>,
    ) -> Result<(), E> {
        Ok(())
    }
}

impl<T: ApiField> ApiField for Option<T> {
    fn wire_bytes(&self) -> u64 {
        self.as_ref().map_or(0, T::wire_bytes)
    }

    fn try_map_handles<E>(
        &mut self,
        f: &mut impl FnMut(HandleKind, RawHandle) -> Result<RawHandle, E>,
    ) -> Result<(), E> {
        self.as_mut().map_or(Ok(()), |v| v.try_map_handles(f))
    }
}

/// Program binaries: bulk payload, byte for byte.
impl ApiField for Vec<u8> {
    fn wire_bytes(&self) -> u64 {
        self.len() as u64
    }
}

/// Buffer and image data: bulk payload, byte for byte, though the host
/// shares the bytes rather than copying them.
impl ApiField for Payload {
    fn wire_bytes(&self) -> u64 {
        self.len() as u64
    }
}

/// A wait list costs one pointer per event.
impl ApiField for Vec<Event> {
    fn wire_bytes(&self) -> u64 {
        8 * self.len() as u64
    }

    fn try_map_handles<E>(
        &mut self,
        f: &mut impl FnMut(HandleKind, RawHandle) -> Result<RawHandle, E>,
    ) -> Result<(), E> {
        self.iter_mut().try_for_each(|e| e.try_map_handles(f))
    }
}

/// A context's device list rides in the fixed header.
impl ApiField for Vec<DeviceId> {
    fn try_map_handles<E>(
        &mut self,
        f: &mut impl FnMut(HandleKind, RawHandle) -> Result<RawHandle, E>,
    ) -> Result<(), E> {
        self.iter_mut().try_for_each(|d| d.try_map_handles(f))
    }
}

/// A `clSetKernelArg` blob costs its bytes, a local size one word. The
/// bytes are never visited: whether they hold a handle needs the kernel
/// signature (§III-B), and CheCL's `clSetKernelArg` wrapper decides it.
impl ApiField for ArgValue {
    fn wire_bytes(&self) -> u64 {
        match self {
            ArgValue::Bytes(b) => b.len() as u64,
            ArgValue::LocalMem(_) => 8,
        }
    }
}

/// Kernel names and build options ride in the fixed header; a field
/// marked `#[payload]` in the table (program source) costs its bytes.
impl ApiField for String {}

// Plain data carries no handle and rides in the fixed header.
impl ApiField for bool {}
impl ApiField for u32 {}
impl ApiField for u64 {}
impl ApiField for DeviceType {}
impl ApiField for MemFlags {}
impl ApiField for QueueProps {}
impl ApiField for SamplerDesc {}
impl ApiField for NDRange {}

/// Declares the OpenCL call table once. Each entry is
/// `Variant = "clName" [Role] { field: Type, .. }`; the role (`Retain`
/// or `Release`) and the fields are optional. A variant's doc opens
/// with its C name, and any doc lines before the entry follow it. A
/// role's entry has one field, the handle it acts on. A field marked
/// `#[payload]` costs its length on the wire in place of its type's
/// [`ApiField::wire_bytes`].
macro_rules! cl_api {
    (@wire [] $field:ident) => {
        ApiField::wire_bytes($field)
    };
    (@wire [payload] $field:ident) => {
        $field.len() as u64
    };
    (@subject $variant:ident [] $($field:ident),*) => {
        ApiRequest::$variant { .. }
    };
    (@subject $variant:ident [$op:ident] $field:ident) => {
        ApiRequest::$variant { $field }
    };
    (@refcount [] $($field:ident : $ty:ty),*) => {
        None
    };
    (@refcount [$op:ident] $field:ident : $ty:ty) => {
        Some((<$ty>::kind(), $field.raw(), RefOp::$op))
    };
    ($(
        $(#[$attr:meta])*
        $variant:ident = $name:literal $([$op:ident])?
            $({ $($(#[$mark:ident])? $field:ident : $ty:ty),* $(,)? })?
    ),* $(,)?) => {
        /// One OpenCL API call, with all by-reference arguments inlined.
        #[derive(Clone, Debug, PartialEq)]
        pub enum ApiRequest {
            $(
                #[doc = concat!("`", $name, "`.")]
                $(#[$attr])*
                $variant $({ $($field: $ty),* })?,
            )*
        }

        impl ApiRequest {
            /// The OpenCL entry-point name of this request, for tracing
            /// and per-call statistics.
            pub fn api_name(&self) -> &'static str {
                match self {
                    $(ApiRequest::$variant { .. } => $name,)*
                }
            }

            /// Approximate size of the request on the app↔proxy pipe, in
            /// bytes: a 64-byte header plus each field's payload.
            ///
            /// Fixed arguments ride in the header; bulk payloads (buffer
            /// data, program source) dominate — they are what makes
            /// proxied data transfers slower than native ones (§IV-A).
            pub fn wire_size(&self) -> u64 {
                match self {
                    $(ApiRequest::$variant { $($($field),*)? } => {
                        64 $($(+ cl_api!(@wire [$($mark)?] $field))*)?
                    })*
                }
            }

            /// Map every *input* handle in the request through `f`, in
            /// field order, so an interposer can rewrite it (CheCL handle →
            /// vendor handle). Stops at the first `Err`: later handles are
            /// neither visited nor rewritten, so a call rejected at one
            /// handle has done no work for the handles after it.
            ///
            /// `SetKernelArg` byte blobs are deliberately **not** visited:
            /// the request does not carry enough information to know
            /// whether they hold a handle. That decision needs the kernel
            /// signature (§III-B), and is made by CheCL's `clSetKernelArg`
            /// wrapper before forwarding.
            pub fn try_map_handles<E>(
                &mut self,
                mut f: impl FnMut(HandleKind, RawHandle) -> Result<RawHandle, E>,
            ) -> Result<(), E> {
                match self {
                    $(ApiRequest::$variant { $($($field),*)? } => {
                        $($(ApiField::try_map_handles($field, &mut f)?;)*)?
                    })*
                }
                Ok(())
            }

            /// The object a retain or release acts on, with its kind and
            /// the refcount step; `None` for every other call.
            pub fn refcount(&self) -> Option<(HandleKind, RawHandle, RefOp)> {
                match self {
                    $(cl_api!(@subject $variant [$($op)?] $($($field),*)?) => {
                        cl_api!(@refcount [$($op)?] $($($field: $ty),*)?)
                    })*
                }
            }
        }
    };
}

cl_api! {
    GetPlatformIds = "clGetPlatformIDs",
    GetPlatformInfo = "clGetPlatformInfo" { platform: PlatformId },
    GetDeviceIds = "clGetDeviceIDs" { platform: PlatformId, device_type: DeviceType },
    GetDeviceInfo = "clGetDeviceInfo" { device: DeviceId },
    CreateContext = "clCreateContext" { devices: Vec<DeviceId> },
    RetainContext = "clRetainContext" [Retain] { context: Context },
    ReleaseContext = "clReleaseContext" [Release] { context: Context },
    CreateCommandQueue = "clCreateCommandQueue" {
        context: Context,
        device: DeviceId,
        props: QueueProps,
    },
    RetainCommandQueue = "clRetainCommandQueue" [Retain] { queue: CommandQueue },
    ReleaseCommandQueue = "clReleaseCommandQueue" [Release] { queue: CommandQueue },
    /// `host_data` carries the `host_ptr` contents for `COPY_HOST_PTR` /
    /// `USE_HOST_PTR`.
    CreateBuffer = "clCreateBuffer" {
        context: Context,
        flags: MemFlags,
        size: u64,
        host_data: Option<Payload>,
    },
    /// A single-channel float image (CL_R / CL_FLOAT), the format every
    /// image workload here uses.
    CreateImage2D = "clCreateImage2D" {
        context: Context,
        flags: MemFlags,
        width: u64,
        height: u64,
        host_data: Option<Payload>,
    },
    /// The whole image.
    EnqueueReadImage = "clEnqueueReadImage" {
        queue: CommandQueue,
        image: Mem,
        blocking: bool,
        wait_list: Vec<Event>,
    },
    /// The whole image.
    EnqueueWriteImage = "clEnqueueWriteImage" {
        queue: CommandQueue,
        image: Mem,
        blocking: bool,
        data: Payload,
        wait_list: Vec<Event>,
    },
    RetainMemObject = "clRetainMemObject" [Retain] { mem: Mem },
    ReleaseMemObject = "clReleaseMemObject" [Release] { mem: Mem },
    CreateSampler = "clCreateSampler" { context: Context, desc: SamplerDesc },
    RetainSampler = "clRetainSampler" [Retain] { sampler: Sampler },
    ReleaseSampler = "clReleaseSampler" [Release] { sampler: Sampler },
    CreateProgramWithSource = "clCreateProgramWithSource" {
        context: Context,
        #[payload] source: String,
    },
    /// Deprecated under CheCL (§IV-D).
    CreateProgramWithBinary = "clCreateProgramWithBinary" {
        context: Context,
        device: DeviceId,
        binary: Vec<u8>,
    },
    /// Callback functions are not modelled; CheCL ignores them (§IV-D).
    BuildProgram = "clBuildProgram" { program: Program, options: String },
    /// The `CL_PROGRAM_BUILD_LOG` query.
    GetProgramBuildLog = "clGetProgramBuildInfo" { program: Program },
    /// The `CL_PROGRAM_BINARIES` query.
    GetProgramBinary = "clGetProgramInfo" { program: Program },
    RetainProgram = "clRetainProgram" [Retain] { program: Program },
    ReleaseProgram = "clReleaseProgram" [Release] { program: Program },
    CreateKernel = "clCreateKernel" { program: Program, name: String },
    RetainKernel = "clRetainKernel" [Retain] { kernel: Kernel },
    ReleaseKernel = "clReleaseKernel" [Release] { kernel: Kernel },
    /// The value is an opaque byte blob or a local-memory size — whether
    /// the blob is a handle is *not* recoverable from the call itself.
    SetKernelArg = "clSetKernelArg" { kernel: Kernel, index: u32, value: ArgValue },
    EnqueueNDRangeKernel = "clEnqueueNDRangeKernel" {
        queue: CommandQueue,
        kernel: Kernel,
        global: NDRange,
        local: Option<NDRange>,
        wait_list: Vec<Event>,
    },
    EnqueueReadBuffer = "clEnqueueReadBuffer" {
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        size: u64,
        wait_list: Vec<Event>,
    },
    EnqueueWriteBuffer = "clEnqueueWriteBuffer" {
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        data: Payload,
        wait_list: Vec<Event>,
    },
    EnqueueCopyBuffer = "clEnqueueCopyBuffer" {
        queue: CommandQueue,
        src: Mem,
        dst: Mem,
        src_offset: u64,
        dst_offset: u64,
        size: u64,
        wait_list: Vec<Event>,
    },
    /// The dummy-event source used by the restart procedure (§III-C,
    /// Fig. 3).
    EnqueueMarker = "clEnqueueMarker" { queue: CommandQueue },
    Flush = "clFlush" { queue: CommandQueue },
    Finish = "clFinish" { queue: CommandQueue },
    WaitForEvents = "clWaitForEvents" { events: Vec<Event> },
    /// The `CL_EVENT_COMMAND_EXECUTION_STATUS` query.
    GetEventStatus = "clGetEventInfo" { event: Event },
    GetEventProfiling = "clGetEventProfilingInfo" { event: Event },
    RetainEvent = "clRetainEvent" [Retain] { event: Event },
    ReleaseEvent = "clReleaseEvent" [Release] { event: Event },
}

/// The result payload of a successful API call.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiResponse {
    /// Calls that return only a status code.
    Unit,
    /// `clGetPlatformIDs`.
    Platforms(Vec<PlatformId>),
    /// `clGetPlatformInfo`.
    PlatformInfo(PlatformInfo),
    /// `clGetDeviceIDs`.
    Devices(Vec<DeviceId>),
    /// `clGetDeviceInfo`.
    DeviceInfo(Box<DeviceInfo>),
    /// `clCreateContext`.
    Context(Context),
    /// `clCreateCommandQueue`.
    Queue(CommandQueue),
    /// `clCreateBuffer`.
    Mem(Mem),
    /// `clCreateSampler`.
    Sampler(Sampler),
    /// `clCreateProgramWith{Source,Binary}`.
    Program(Program),
    /// `clCreateKernel`.
    Kernel(Kernel),
    /// Enqueue operations that return an event.
    Event(Event),
    /// `clEnqueueReadBuffer`: the bytes read plus the completion event.
    DataEvent { data: Payload, event: Event },
    /// `clGetProgramBuildInfo`.
    BuildLog(String),
    /// `clGetProgramInfo(CL_PROGRAM_BINARIES)`.
    Binary(Vec<u8>),
    /// `clGetEventInfo`.
    EventStatus(EventStatus),
    /// `clGetEventProfilingInfo`.
    Profiling(ProfilingInfo),
}

impl ApiResponse {
    /// Approximate size of the response on the proxy→app pipe, in bytes.
    pub fn wire_size(&self) -> u64 {
        const HDR: u64 = 32;
        use ApiResponse::*;
        HDR + match self {
            DataEvent { data, .. } => data.len() as u64,
            Binary(b) => b.len() as u64,
            BuildLog(s) => s.len() as u64,
            Platforms(v) => 8 * v.len() as u64,
            Devices(v) => 8 * v.len() as u64,
            _ => 0,
        }
    }

    /// The one object handle this response returns — a created object,
    /// or an enqueue's event — for an interposer to read or rewrite.
    /// `None` for responses that return no handle, or a list of them.
    pub fn object_mut(&mut self) -> Option<&mut RawHandle> {
        use ApiResponse as R;
        match self {
            R::Context(Context(h))
            | R::Queue(CommandQueue(h))
            | R::Mem(Mem(h))
            | R::Sampler(Sampler(h))
            | R::Program(Program(h))
            | R::Kernel(Kernel(h))
            | R::Event(Event(h))
            | R::DataEvent {
                event: Event(h), ..
            } => Some(h),
            _ => None,
        }
    }
}

/// One `into_*` accessor per response variant that wraps one value:
/// the value, or a panic naming the broken API contract.
macro_rules! response_accessors {
    ($($fn_name:ident: $variant:ident => $ty:ty),* $(,)?) => {
        impl ApiResponse {
            $(
                #[doc = concat!("Unwrap [`ApiResponse::", stringify!($variant), "`].")]
                pub fn $fn_name(self) -> ClResult<$ty> {
                    match self {
                        ApiResponse::$variant(v) => Ok(v),
                        other => panic!(
                            concat!(
                                "API contract violation: expected ",
                                stringify!($variant),
                                " response, got {:?}"
                            ),
                            other
                        ),
                    }
                }
            )*
        }
    };
}

response_accessors! {
    into_platforms: Platforms => Vec<PlatformId>,
    into_devices: Devices => Vec<DeviceId>,
    into_context: Context => Context,
    into_queue: Queue => CommandQueue,
    into_mem: Mem => Mem,
    into_sampler: Sampler => Sampler,
    into_program: Program => Program,
    into_kernel: Kernel => Kernel,
    into_event: Event => Event,
}

impl ApiResponse {
    /// Unwrap a `DataEvent` response.
    pub fn into_data_event(self) -> ClResult<(Payload, Event)> {
        match self {
            ApiResponse::DataEvent { data, event } => Ok((data, event)),
            other => panic!("API contract violation: expected DataEvent, got {other:?}"),
        }
    }

    /// Unwrap a `Unit` response.
    pub fn into_unit(self) -> ClResult<()> {
        match self {
            ApiResponse::Unit => Ok(()),
            other => panic!("API contract violation: expected Unit, got {other:?}"),
        }
    }
}

/// The `libOpenCL.so` interface an application process is linked
/// against.
///
/// Implementations:
/// * `cldriver::Driver` — a vendor driver executing requests directly.
/// * `checl::ChecLib` — the interposed CheCL shim: record, translate,
///   forward to the API proxy.
///
/// `now` is the calling process's virtual clock; every implementation
/// advances it by the call's cost.
pub trait ClApi {
    /// Execute one API call on behalf of the process whose clock is
    /// `now`.
    fn call(&mut self, now: &mut SimTime, req: ApiRequest) -> ClResult<ApiResponse>;

    /// Human-readable implementation name (e.g. `"Nimbus OpenCL"`,
    /// `"CheCL"`), for logs and tests.
    fn impl_name(&self) -> String;
}

/// Convenience for tests and guards: an implementation that fails every
/// call, standing in for "no OpenCL library present".
pub struct NoOpenCl;

impl ClApi for NoOpenCl {
    fn call(&mut self, _now: &mut SimTime, _req: ApiRequest) -> ClResult<ApiResponse> {
        Err(ClError::DeviceNotAvailable)
    }
    fn impl_name(&self) -> String {
        "no-opencl".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_scales_with_payload() {
        let small = ApiRequest::Finish {
            queue: CommandQueue::from_raw(RawHandle(1)),
        };
        let big = ApiRequest::EnqueueWriteBuffer {
            queue: CommandQueue::from_raw(RawHandle(1)),
            mem: Mem::from_raw(RawHandle(2)),
            blocking: true,
            offset: 0,
            data: vec![0u8; 1 << 20].into(),
            wait_list: vec![],
        };
        assert!(big.wire_size() > small.wire_size() + (1 << 20) - 1);
    }

    fn copy_request() -> ApiRequest {
        ApiRequest::EnqueueCopyBuffer {
            queue: CommandQueue::from_raw(RawHandle(10)),
            src: Mem::from_raw(RawHandle(20)),
            dst: Mem::from_raw(RawHandle(30)),
            src_offset: 0,
            dst_offset: 0,
            size: 4,
            wait_list: vec![Event::from_raw(RawHandle(40))],
        }
    }

    #[test]
    fn try_map_handles_rewrites_all_inputs() {
        let mut req = copy_request();
        let mut seen = Vec::new();
        req.try_map_handles(|kind, h| {
            seen.push((kind, h.0));
            Ok::<_, ()>(RawHandle(h.0 + 1))
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (HandleKind::CommandQueue, 10),
                (HandleKind::Mem, 20),
                (HandleKind::Mem, 30),
                (HandleKind::Event, 40),
            ]
        );
        let mut want = copy_request();
        if let ApiRequest::EnqueueCopyBuffer {
            queue,
            src,
            dst,
            wait_list,
            ..
        } = &mut want
        {
            *queue = CommandQueue::from_raw(RawHandle(11));
            *src = Mem::from_raw(RawHandle(21));
            *dst = Mem::from_raw(RawHandle(31));
            wait_list[0] = Event::from_raw(RawHandle(41));
        }
        assert_eq!(req, want);
    }

    #[test]
    fn try_map_handles_stops_at_the_first_error() {
        // The second handle (`src`) fails: `dst` and the wait list are
        // neither visited nor rewritten, and only `queue` is.
        let mut req = copy_request();
        let mut seen = Vec::new();
        let err = req
            .try_map_handles(|kind, h| {
                seen.push(h.0);
                match kind {
                    HandleKind::Mem => Err(h.0),
                    _ => Ok(RawHandle(h.0 + 1)),
                }
            })
            .unwrap_err();
        assert_eq!(err, 20);
        assert_eq!(seen, vec![10, 20]);
        let mut want = copy_request();
        if let ApiRequest::EnqueueCopyBuffer { queue, .. } = &mut want {
            *queue = CommandQueue::from_raw(RawHandle(11));
        }
        assert_eq!(req, want);
    }

    #[test]
    fn set_kernel_arg_bytes_not_visited() {
        // The blob may hold a handle, but the request-level visitor must
        // not touch it — that is the parser's job.
        let inner = RawHandle(0x1234);
        let mut req = ApiRequest::SetKernelArg {
            kernel: Kernel::from_raw(RawHandle(1)),
            index: 0,
            value: ArgValue::handle(inner),
        };
        req.try_map_handles(|_, h| Ok::<_, ()>(RawHandle(h.0 + 100)))
            .unwrap();
        match req {
            ApiRequest::SetKernelArg { kernel, value, .. } => {
                assert_eq!(kernel.raw().0, 101);
                assert_eq!(value.as_handle(), Some(inner));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn refcount_names_the_object_of_each_retain_and_release() {
        use ApiRequest::*;
        let h = RawHandle(7);
        let calls = [
            RetainContext {
                context: Context(h),
            },
            ReleaseContext {
                context: Context(h),
            },
            RetainCommandQueue {
                queue: CommandQueue(h),
            },
            ReleaseCommandQueue {
                queue: CommandQueue(h),
            },
            RetainMemObject { mem: Mem(h) },
            ReleaseMemObject { mem: Mem(h) },
            RetainSampler {
                sampler: Sampler(h),
            },
            ReleaseSampler {
                sampler: Sampler(h),
            },
            RetainProgram {
                program: Program(h),
            },
            ReleaseProgram {
                program: Program(h),
            },
            RetainKernel { kernel: Kernel(h) },
            ReleaseKernel { kernel: Kernel(h) },
            RetainEvent { event: Event(h) },
            ReleaseEvent { event: Event(h) },
        ];
        for mut req in calls {
            let mut kinds = Vec::new();
            req.try_map_handles(|kind, h| {
                kinds.push(kind);
                Ok::<_, ()>(h)
            })
            .unwrap();
            let op = if req.api_name().starts_with("clRetain") {
                RefOp::Retain
            } else {
                RefOp::Release
            };
            assert_eq!(req.refcount(), Some((kinds[0], h, op)), "{req:?}");
        }
        assert_eq!(GetPlatformIds.refcount(), None);
        assert_eq!(copy_request().refcount(), None);
        assert_eq!(
            BuildProgram {
                program: Program(h),
                options: String::new(),
            }
            .refcount(),
            None
        );
    }

    #[test]
    fn object_mut_names_the_returned_handle() {
        let mut resp = ApiResponse::DataEvent {
            data: vec![1, 2].into(),
            event: Event::from_raw(RawHandle(7)),
        };
        *resp.object_mut().unwrap() = RawHandle(8);
        assert_eq!(
            resp,
            ApiResponse::DataEvent {
                data: vec![1, 2].into(),
                event: Event::from_raw(RawHandle(8)),
            }
        );
        assert_eq!(ApiResponse::Platforms(vec![]).object_mut(), None);
    }

    #[test]
    fn api_names_cover_create_calls() {
        let req = ApiRequest::CreateBuffer {
            context: Context::from_raw(RawHandle(1)),
            flags: MemFlags::READ_WRITE,
            size: 16,
            host_data: None,
        };
        assert_eq!(req.api_name(), "clCreateBuffer");
    }

    #[test]
    #[should_panic(expected = "API contract violation")]
    fn accessor_panics_on_wrong_variant() {
        let _ = ApiResponse::Unit.into_mem();
    }

    #[test]
    fn no_opencl_fails_everything() {
        let mut api = NoOpenCl;
        let mut now = SimTime::ZERO;
        let err = api.call(&mut now, ApiRequest::GetPlatformIds).unwrap_err();
        assert_eq!(err, ClError::DeviceNotAvailable);
    }
}
