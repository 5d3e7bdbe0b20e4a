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

use crate::error::{ClError, ClResult};
use crate::handles::{
    CommandQueue, Context, DeviceId, Event, HandleKind, Kernel, Mem, PlatformId, Program,
    RawHandle, Sampler,
};
use crate::types::{
    ArgValue, DeviceInfo, DeviceType, EventStatus, MemFlags, NDRange, PlatformInfo, ProfilingInfo,
    QueueProps, SamplerDesc,
};
use simcore::SimTime;

/// One OpenCL API call, with all by-reference arguments inlined.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiRequest {
    /// `clGetPlatformIDs`.
    GetPlatformIds,
    /// `clGetPlatformInfo`.
    GetPlatformInfo { platform: PlatformId },
    /// `clGetDeviceIDs`.
    GetDeviceIds {
        platform: PlatformId,
        device_type: DeviceType,
    },
    /// `clGetDeviceInfo`.
    GetDeviceInfo { device: DeviceId },
    /// `clCreateContext`.
    CreateContext { devices: Vec<DeviceId> },
    /// `clRetainContext`.
    RetainContext { context: Context },
    /// `clReleaseContext`.
    ReleaseContext { context: Context },
    /// `clCreateCommandQueue`.
    CreateCommandQueue {
        context: Context,
        device: DeviceId,
        props: QueueProps,
    },
    /// `clRetainCommandQueue`.
    RetainCommandQueue { queue: CommandQueue },
    /// `clReleaseCommandQueue`.
    ReleaseCommandQueue { queue: CommandQueue },
    /// `clCreateBuffer`. `host_data` carries the `host_ptr` contents for
    /// `COPY_HOST_PTR` / `USE_HOST_PTR`.
    CreateBuffer {
        context: Context,
        flags: MemFlags,
        size: u64,
        host_data: Option<Vec<u8>>,
    },
    /// `clCreateImage2D` — a single-channel float image (CL_R /
    /// CL_FLOAT), the format every image workload here uses.
    CreateImage2D {
        context: Context,
        flags: MemFlags,
        width: u64,
        height: u64,
        host_data: Option<Vec<u8>>,
    },
    /// `clEnqueueReadImage` (whole image).
    EnqueueReadImage {
        queue: CommandQueue,
        image: Mem,
        blocking: bool,
        wait_list: Vec<Event>,
    },
    /// `clEnqueueWriteImage` (whole image).
    EnqueueWriteImage {
        queue: CommandQueue,
        image: Mem,
        blocking: bool,
        data: Vec<u8>,
        wait_list: Vec<Event>,
    },
    /// `clRetainMemObject`.
    RetainMemObject { mem: Mem },
    /// `clReleaseMemObject`.
    ReleaseMemObject { mem: Mem },
    /// `clCreateSampler`.
    CreateSampler { context: Context, desc: SamplerDesc },
    /// `clRetainSampler`.
    RetainSampler { sampler: Sampler },
    /// `clReleaseSampler`.
    ReleaseSampler { sampler: Sampler },
    /// `clCreateProgramWithSource`.
    CreateProgramWithSource { context: Context, source: String },
    /// `clCreateProgramWithBinary` (deprecated under CheCL, §IV-D).
    CreateProgramWithBinary {
        context: Context,
        device: DeviceId,
        binary: Vec<u8>,
    },
    /// `clBuildProgram`. Callback functions are not modelled; CheCL
    /// ignores them (§IV-D).
    BuildProgram { program: Program, options: String },
    /// `clGetProgramBuildInfo(CL_PROGRAM_BUILD_LOG)`.
    GetProgramBuildLog { program: Program },
    /// `clGetProgramInfo(CL_PROGRAM_BINARIES)`.
    GetProgramBinary { program: Program },
    /// `clRetainProgram`.
    RetainProgram { program: Program },
    /// `clReleaseProgram`.
    ReleaseProgram { program: Program },
    /// `clCreateKernel`.
    CreateKernel { program: Program, name: String },
    /// `clRetainKernel`.
    RetainKernel { kernel: Kernel },
    /// `clReleaseKernel`.
    ReleaseKernel { kernel: Kernel },
    /// `clSetKernelArg`. The value is an opaque byte blob or a
    /// local-memory size — whether the blob is a handle is *not*
    /// recoverable from the call itself.
    SetKernelArg {
        kernel: Kernel,
        index: u32,
        value: ArgValue,
    },
    /// `clEnqueueNDRangeKernel`.
    EnqueueNDRangeKernel {
        queue: CommandQueue,
        kernel: Kernel,
        global: NDRange,
        local: Option<NDRange>,
        wait_list: Vec<Event>,
    },
    /// `clEnqueueReadBuffer`.
    EnqueueReadBuffer {
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        size: u64,
        wait_list: Vec<Event>,
    },
    /// `clEnqueueWriteBuffer`.
    EnqueueWriteBuffer {
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        data: Vec<u8>,
        wait_list: Vec<Event>,
    },
    /// `clEnqueueCopyBuffer`.
    EnqueueCopyBuffer {
        queue: CommandQueue,
        src: Mem,
        dst: Mem,
        src_offset: u64,
        dst_offset: u64,
        size: u64,
        wait_list: Vec<Event>,
    },
    /// `clEnqueueMarker` — the dummy-event source used by the restart
    /// procedure (§III-C, Fig. 3).
    EnqueueMarker { queue: CommandQueue },
    /// `clFlush`.
    Flush { queue: CommandQueue },
    /// `clFinish`.
    Finish { queue: CommandQueue },
    /// `clWaitForEvents`.
    WaitForEvents { events: Vec<Event> },
    /// `clGetEventInfo(CL_EVENT_COMMAND_EXECUTION_STATUS)`.
    GetEventStatus { event: Event },
    /// `clGetEventProfilingInfo`.
    GetEventProfiling { event: Event },
    /// `clRetainEvent`.
    RetainEvent { event: Event },
    /// `clReleaseEvent`.
    ReleaseEvent { event: Event },
}

impl ApiRequest {
    /// The OpenCL entry-point name of this request, for tracing and
    /// per-call statistics.
    pub fn api_name(&self) -> &'static str {
        use ApiRequest::*;
        match self {
            GetPlatformIds => "clGetPlatformIDs",
            GetPlatformInfo { .. } => "clGetPlatformInfo",
            GetDeviceIds { .. } => "clGetDeviceIDs",
            GetDeviceInfo { .. } => "clGetDeviceInfo",
            CreateContext { .. } => "clCreateContext",
            RetainContext { .. } => "clRetainContext",
            ReleaseContext { .. } => "clReleaseContext",
            CreateCommandQueue { .. } => "clCreateCommandQueue",
            RetainCommandQueue { .. } => "clRetainCommandQueue",
            ReleaseCommandQueue { .. } => "clReleaseCommandQueue",
            CreateBuffer { .. } => "clCreateBuffer",
            CreateImage2D { .. } => "clCreateImage2D",
            EnqueueReadImage { .. } => "clEnqueueReadImage",
            EnqueueWriteImage { .. } => "clEnqueueWriteImage",
            RetainMemObject { .. } => "clRetainMemObject",
            ReleaseMemObject { .. } => "clReleaseMemObject",
            CreateSampler { .. } => "clCreateSampler",
            RetainSampler { .. } => "clRetainSampler",
            ReleaseSampler { .. } => "clReleaseSampler",
            CreateProgramWithSource { .. } => "clCreateProgramWithSource",
            CreateProgramWithBinary { .. } => "clCreateProgramWithBinary",
            BuildProgram { .. } => "clBuildProgram",
            GetProgramBuildLog { .. } => "clGetProgramBuildInfo",
            GetProgramBinary { .. } => "clGetProgramInfo",
            RetainProgram { .. } => "clRetainProgram",
            ReleaseProgram { .. } => "clReleaseProgram",
            CreateKernel { .. } => "clCreateKernel",
            RetainKernel { .. } => "clRetainKernel",
            ReleaseKernel { .. } => "clReleaseKernel",
            SetKernelArg { .. } => "clSetKernelArg",
            EnqueueNDRangeKernel { .. } => "clEnqueueNDRangeKernel",
            EnqueueReadBuffer { .. } => "clEnqueueReadBuffer",
            EnqueueWriteBuffer { .. } => "clEnqueueWriteBuffer",
            EnqueueCopyBuffer { .. } => "clEnqueueCopyBuffer",
            EnqueueMarker { .. } => "clEnqueueMarker",
            Flush { .. } => "clFlush",
            Finish { .. } => "clFinish",
            WaitForEvents { .. } => "clWaitForEvents",
            GetEventStatus { .. } => "clGetEventInfo",
            GetEventProfiling { .. } => "clGetEventProfilingInfo",
            RetainEvent { .. } => "clRetainEvent",
            ReleaseEvent { .. } => "clReleaseEvent",
        }
    }

    /// Approximate size of the request on the app↔proxy pipe, in bytes.
    ///
    /// Fixed arguments cost a small constant; bulk payloads (buffer
    /// data, program source) dominate — they are what makes proxied data
    /// transfers slower than native ones (§IV-A).
    pub fn wire_size(&self) -> u64 {
        const HDR: u64 = 64;
        use ApiRequest::*;
        HDR + match self {
            CreateBuffer { host_data, .. } | CreateImage2D { host_data, .. } => {
                host_data.as_ref().map_or(0, |d| d.len() as u64)
            }
            EnqueueWriteImage {
                data, wait_list, ..
            } => data.len() as u64 + 8 * wait_list.len() as u64,
            EnqueueReadImage { wait_list, .. } => 8 * wait_list.len() as u64,
            CreateProgramWithSource { source, .. } => source.len() as u64,
            CreateProgramWithBinary { binary, .. } => binary.len() as u64,
            SetKernelArg { value, .. } => match value {
                ArgValue::Bytes(b) => b.len() as u64,
                ArgValue::LocalMem(_) => 8,
            },
            EnqueueWriteBuffer {
                data, wait_list, ..
            } => data.len() as u64 + 8 * wait_list.len() as u64,
            EnqueueNDRangeKernel { wait_list, .. }
            | EnqueueReadBuffer { wait_list, .. }
            | EnqueueCopyBuffer { wait_list, .. } => 8 * wait_list.len() as u64,
            WaitForEvents { events } => 8 * events.len() as u64,
            _ => 0,
        }
    }

    /// Map every *input* handle in the request through `f`, in field
    /// order, so an interposer can rewrite it (CheCL handle → vendor
    /// handle). Stops at the first `Err`: later handles are neither
    /// visited nor rewritten, so a call rejected at one handle has done
    /// no work for the handles after it.
    ///
    /// `SetKernelArg` byte blobs are deliberately **not** visited: the
    /// request does not carry enough information to know whether they
    /// hold a handle. That decision needs the kernel signature
    /// (§III-B), and is made by CheCL's `clSetKernelArg` wrapper before
    /// forwarding.
    pub fn try_map_handles<E>(
        &mut self,
        mut f: impl FnMut(HandleKind, RawHandle) -> Result<RawHandle, E>,
    ) -> Result<(), E> {
        use ApiRequest::*;
        use HandleKind as K;
        let mut map = |kind: HandleKind, h: &mut RawHandle| -> Result<(), E> {
            *h = f(kind, *h)?;
            Ok(())
        };
        match self {
            GetPlatformIds => Ok(()),
            GetPlatformInfo { platform } | GetDeviceIds { platform, .. } => {
                map(K::Platform, &mut platform.0)
            }
            GetDeviceInfo { device } => map(K::Device, &mut device.0),
            CreateContext { devices } => devices
                .iter_mut()
                .try_for_each(|d| map(K::Device, &mut d.0)),
            RetainContext { context }
            | ReleaseContext { context }
            | CreateBuffer { context, .. }
            | CreateImage2D { context, .. }
            | CreateSampler { context, .. }
            | CreateProgramWithSource { context, .. } => map(K::Context, &mut context.0),
            CreateCommandQueue {
                context, device, ..
            }
            | CreateProgramWithBinary {
                context, device, ..
            } => {
                map(K::Context, &mut context.0)?;
                map(K::Device, &mut device.0)
            }
            RetainCommandQueue { queue }
            | ReleaseCommandQueue { queue }
            | EnqueueMarker { queue }
            | Flush { queue }
            | Finish { queue } => map(K::CommandQueue, &mut queue.0),
            EnqueueReadImage {
                queue,
                image: mem,
                wait_list,
                ..
            }
            | EnqueueWriteImage {
                queue,
                image: mem,
                wait_list,
                ..
            }
            | EnqueueReadBuffer {
                queue,
                mem,
                wait_list,
                ..
            }
            | EnqueueWriteBuffer {
                queue,
                mem,
                wait_list,
                ..
            } => {
                map(K::CommandQueue, &mut queue.0)?;
                map(K::Mem, &mut mem.0)?;
                wait_list
                    .iter_mut()
                    .try_for_each(|e| map(K::Event, &mut e.0))
            }
            EnqueueCopyBuffer {
                queue,
                src,
                dst,
                wait_list,
                ..
            } => {
                map(K::CommandQueue, &mut queue.0)?;
                map(K::Mem, &mut src.0)?;
                map(K::Mem, &mut dst.0)?;
                wait_list
                    .iter_mut()
                    .try_for_each(|e| map(K::Event, &mut e.0))
            }
            EnqueueNDRangeKernel {
                queue,
                kernel,
                wait_list,
                ..
            } => {
                map(K::CommandQueue, &mut queue.0)?;
                map(K::Kernel, &mut kernel.0)?;
                wait_list
                    .iter_mut()
                    .try_for_each(|e| map(K::Event, &mut e.0))
            }
            RetainMemObject { mem } | ReleaseMemObject { mem } => map(K::Mem, &mut mem.0),
            RetainSampler { sampler } | ReleaseSampler { sampler } => {
                map(K::Sampler, &mut sampler.0)
            }
            BuildProgram { program, .. }
            | GetProgramBuildLog { program }
            | GetProgramBinary { program }
            | RetainProgram { program }
            | ReleaseProgram { program }
            | CreateKernel { program, .. } => map(K::Program, &mut program.0),
            RetainKernel { kernel } | ReleaseKernel { kernel } | SetKernelArg { kernel, .. } => {
                map(K::Kernel, &mut kernel.0)
            }
            WaitForEvents { events } => events.iter_mut().try_for_each(|e| map(K::Event, &mut e.0)),
            GetEventStatus { event }
            | GetEventProfiling { event }
            | RetainEvent { event }
            | ReleaseEvent { event } => map(K::Event, &mut event.0),
        }
    }
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
    DataEvent { data: Vec<u8>, event: Event },
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
}

impl ApiResponse {
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

macro_rules! response_accessor {
    ($(#[$doc:meta])* $fn_name:ident, $variant:ident, $ty:ty) => {
        $(#[$doc])*
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
    };
}

impl ApiResponse {
    response_accessor!(
        /// Unwrap a `Platforms` response.
        into_platforms,
        Platforms,
        Vec<PlatformId>
    );
    response_accessor!(
        /// Unwrap a `Devices` response.
        into_devices,
        Devices,
        Vec<DeviceId>
    );
    response_accessor!(
        /// Unwrap a `Context` response.
        into_context,
        Context,
        Context
    );
    response_accessor!(
        /// Unwrap a `Queue` response.
        into_queue,
        Queue,
        CommandQueue
    );
    response_accessor!(
        /// Unwrap a `Mem` response.
        into_mem,
        Mem,
        Mem
    );
    response_accessor!(
        /// Unwrap a `Sampler` response.
        into_sampler,
        Sampler,
        Sampler
    );
    response_accessor!(
        /// Unwrap a `Program` response.
        into_program,
        Program,
        Program
    );
    response_accessor!(
        /// Unwrap a `Kernel` response.
        into_kernel,
        Kernel,
        Kernel
    );
    response_accessor!(
        /// Unwrap an `Event` response.
        into_event,
        Event,
        Event
    );

    /// Unwrap a `DataEvent` response.
    pub fn into_data_event(self) -> ClResult<(Vec<u8>, Event)> {
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
            data: vec![0u8; 1 << 20],
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
    fn object_mut_names_the_returned_handle() {
        let mut resp = ApiResponse::DataEvent {
            data: vec![1, 2],
            event: Event::from_raw(RawHandle(7)),
        };
        *resp.object_mut().unwrap() = RawHandle(8);
        assert_eq!(
            resp,
            ApiResponse::DataEvent {
                data: vec![1, 2],
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
