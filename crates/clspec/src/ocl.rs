//! Typed host-code wrapper over [`ClApi`].
//!
//! Examples, tests and workloads use this so their bodies read like
//! ordinary OpenCL host code. The wrapper is implementation-agnostic:
//! bind it to a vendor driver and the program runs natively; bind it to
//! CheCL and the *same unmodified code* becomes checkpointable — the
//! transparency property the paper demonstrates.

use crate::api::{ApiRequest, ApiResponse, ClApi};
use crate::error::ClResult;
use crate::handles::{
    CommandQueue, Context, DeviceId, Event, Kernel, Mem, PlatformId, Program, Sampler,
};
use crate::types::{
    ArgValue, DeviceInfo, DeviceType, EventStatus, MemFlags, NDRange, PlatformInfo, ProfilingInfo,
    QueueProps, SamplerDesc,
};
use simcore::{Payload, SimTime};

/// A borrowed view of "this process linked against some libOpenCL",
/// pairing the API implementation with the process's virtual clock.
pub struct Ocl<'a> {
    api: &'a mut dyn ClApi,
    now: &'a mut SimTime,
}

impl<'a> Ocl<'a> {
    /// Bind an API implementation and a process clock.
    pub fn new(api: &'a mut dyn ClApi, now: &'a mut SimTime) -> Self {
        Ocl { api, now }
    }

    /// The process clock after the calls made so far.
    pub fn now(&self) -> SimTime {
        *self.now
    }

    /// Issue a raw request (escape hatch; prefer the typed methods).
    pub fn call(&mut self, req: ApiRequest) -> ClResult<ApiResponse> {
        self.api.call(self.now, req)
    }

    /// `clGetPlatformIDs`.
    pub fn get_platform_ids(&mut self) -> ClResult<Vec<PlatformId>> {
        self.call(ApiRequest::GetPlatformIds)?.into_platforms()
    }

    /// `clGetPlatformInfo`.
    pub fn get_platform_info(&mut self, platform: PlatformId) -> ClResult<PlatformInfo> {
        match self.call(ApiRequest::GetPlatformInfo { platform })? {
            ApiResponse::PlatformInfo(i) => Ok(i),
            other => panic!("API contract violation: expected PlatformInfo, got {other:?}"),
        }
    }

    /// `clGetDeviceIDs`.
    pub fn get_device_ids(
        &mut self,
        platform: PlatformId,
        device_type: DeviceType,
    ) -> ClResult<Vec<DeviceId>> {
        self.call(ApiRequest::GetDeviceIds {
            platform,
            device_type,
        })?
        .into_devices()
    }

    /// `clGetDeviceInfo`.
    pub fn get_device_info(&mut self, device: DeviceId) -> ClResult<DeviceInfo> {
        match self.call(ApiRequest::GetDeviceInfo { device })? {
            ApiResponse::DeviceInfo(i) => Ok(*i),
            other => panic!("API contract violation: expected DeviceInfo, got {other:?}"),
        }
    }

    /// `clCreateContext`.
    pub fn create_context(&mut self, devices: &[DeviceId]) -> ClResult<Context> {
        self.call(ApiRequest::CreateContext {
            devices: devices.to_vec(),
        })?
        .into_context()
    }

    /// `clReleaseContext`.
    pub fn release_context(&mut self, context: Context) -> ClResult<()> {
        self.call(ApiRequest::ReleaseContext { context })?
            .into_unit()
    }

    /// `clCreateCommandQueue`.
    pub fn create_command_queue(
        &mut self,
        context: Context,
        device: DeviceId,
        props: QueueProps,
    ) -> ClResult<CommandQueue> {
        self.call(ApiRequest::CreateCommandQueue {
            context,
            device,
            props,
        })?
        .into_queue()
    }

    /// `clReleaseCommandQueue`.
    pub fn release_command_queue(&mut self, queue: CommandQueue) -> ClResult<()> {
        self.call(ApiRequest::ReleaseCommandQueue { queue })?
            .into_unit()
    }

    /// `clCreateBuffer`.
    pub fn create_buffer(
        &mut self,
        context: Context,
        flags: MemFlags,
        size: u64,
        host_data: Option<Payload>,
    ) -> ClResult<Mem> {
        self.call(ApiRequest::CreateBuffer {
            context,
            flags,
            size,
            host_data,
        })?
        .into_mem()
    }

    /// `clCreateImage2D` (single-channel float texels).
    pub fn create_image2d(
        &mut self,
        context: Context,
        flags: MemFlags,
        width: u64,
        height: u64,
        host_data: Option<Payload>,
    ) -> ClResult<Mem> {
        self.call(ApiRequest::CreateImage2D {
            context,
            flags,
            width,
            height,
            host_data,
        })?
        .into_mem()
    }

    /// `clEnqueueReadImage` (whole image, blocking optional).
    pub fn enqueue_read_image(
        &mut self,
        queue: CommandQueue,
        image: Mem,
        blocking: bool,
        wait_list: &[Event],
    ) -> ClResult<(Payload, Event)> {
        self.call(ApiRequest::EnqueueReadImage {
            queue,
            image,
            blocking,
            wait_list: wait_list.to_vec(),
        })?
        .into_data_event()
    }

    /// `clEnqueueWriteImage` (whole image).
    pub fn enqueue_write_image(
        &mut self,
        queue: CommandQueue,
        image: Mem,
        blocking: bool,
        data: Payload,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        self.call(ApiRequest::EnqueueWriteImage {
            queue,
            image,
            blocking,
            data,
            wait_list: wait_list.to_vec(),
        })?
        .into_event()
    }

    /// `clReleaseMemObject`.
    pub fn release_mem(&mut self, mem: Mem) -> ClResult<()> {
        self.call(ApiRequest::ReleaseMemObject { mem })?.into_unit()
    }

    /// `clCreateSampler`.
    pub fn create_sampler(&mut self, context: Context, desc: SamplerDesc) -> ClResult<Sampler> {
        self.call(ApiRequest::CreateSampler { context, desc })?
            .into_sampler()
    }

    /// `clCreateProgramWithSource`.
    pub fn create_program_with_source(
        &mut self,
        context: Context,
        source: &str,
    ) -> ClResult<Program> {
        self.call(ApiRequest::CreateProgramWithSource {
            context,
            source: source.to_string(),
        })?
        .into_program()
    }

    /// `clCreateProgramWithBinary`.
    pub fn create_program_with_binary(
        &mut self,
        context: Context,
        device: DeviceId,
        binary: Vec<u8>,
    ) -> ClResult<Program> {
        self.call(ApiRequest::CreateProgramWithBinary {
            context,
            device,
            binary,
        })?
        .into_program()
    }

    /// `clBuildProgram`.
    pub fn build_program(&mut self, program: Program, options: &str) -> ClResult<()> {
        self.call(ApiRequest::BuildProgram {
            program,
            options: options.to_string(),
        })?
        .into_unit()
    }

    /// `clGetProgramInfo(CL_PROGRAM_BINARIES)`.
    pub fn get_program_binary(&mut self, program: Program) -> ClResult<Vec<u8>> {
        match self.call(ApiRequest::GetProgramBinary { program })? {
            ApiResponse::Binary(b) => Ok(b),
            other => panic!("API contract violation: expected Binary, got {other:?}"),
        }
    }

    /// `clReleaseProgram`.
    pub fn release_program(&mut self, program: Program) -> ClResult<()> {
        self.call(ApiRequest::ReleaseProgram { program })?
            .into_unit()
    }

    /// `clCreateKernel`.
    pub fn create_kernel(&mut self, program: Program, name: &str) -> ClResult<Kernel> {
        self.call(ApiRequest::CreateKernel {
            program,
            name: name.to_string(),
        })?
        .into_kernel()
    }

    /// `clReleaseKernel`.
    pub fn release_kernel(&mut self, kernel: Kernel) -> ClResult<()> {
        self.call(ApiRequest::ReleaseKernel { kernel })?.into_unit()
    }

    /// `clSetKernelArg` with an explicit [`ArgValue`].
    pub fn set_kernel_arg(&mut self, kernel: Kernel, index: u32, value: ArgValue) -> ClResult<()> {
        self.call(ApiRequest::SetKernelArg {
            kernel,
            index,
            value,
        })?
        .into_unit()
    }

    /// `clSetKernelArg` passing a buffer handle, as `&mem` in C.
    pub fn set_arg_mem(&mut self, kernel: Kernel, index: u32, mem: Mem) -> ClResult<()> {
        self.set_kernel_arg(kernel, index, ArgValue::handle(mem.raw()))
    }

    /// `clSetKernelArg` passing a sampler handle.
    pub fn set_arg_sampler(&mut self, kernel: Kernel, index: u32, s: Sampler) -> ClResult<()> {
        self.set_kernel_arg(kernel, index, ArgValue::handle(s.raw()))
    }

    /// `clSetKernelArg` passing a POD scalar.
    pub fn set_arg_scalar<T: crate::types::ScalarArg>(
        &mut self,
        kernel: Kernel,
        index: u32,
        v: T,
    ) -> ClResult<()> {
        self.set_kernel_arg(kernel, index, ArgValue::scalar(v))
    }

    /// `clEnqueueNDRangeKernel`.
    pub fn enqueue_nd_range(
        &mut self,
        queue: CommandQueue,
        kernel: Kernel,
        global: NDRange,
        local: Option<NDRange>,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        self.call(ApiRequest::EnqueueNDRangeKernel {
            queue,
            kernel,
            global,
            local,
            wait_list: wait_list.to_vec(),
        })?
        .into_event()
    }

    /// `clEnqueueReadBuffer`.
    pub fn enqueue_read_buffer(
        &mut self,
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        size: u64,
        wait_list: &[Event],
    ) -> ClResult<(Payload, Event)> {
        self.call(ApiRequest::EnqueueReadBuffer {
            queue,
            mem,
            blocking,
            offset,
            size,
            wait_list: wait_list.to_vec(),
        })?
        .into_data_event()
    }

    /// `clEnqueueWriteBuffer`.
    pub fn enqueue_write_buffer(
        &mut self,
        queue: CommandQueue,
        mem: Mem,
        blocking: bool,
        offset: u64,
        data: Payload,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        self.call(ApiRequest::EnqueueWriteBuffer {
            queue,
            mem,
            blocking,
            offset,
            data,
            wait_list: wait_list.to_vec(),
        })?
        .into_event()
    }

    /// `clEnqueueCopyBuffer`.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_copy_buffer(
        &mut self,
        queue: CommandQueue,
        src: Mem,
        dst: Mem,
        src_offset: u64,
        dst_offset: u64,
        size: u64,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        self.call(ApiRequest::EnqueueCopyBuffer {
            queue,
            src,
            dst,
            src_offset,
            dst_offset,
            size,
            wait_list: wait_list.to_vec(),
        })?
        .into_event()
    }

    /// `clEnqueueMarker`.
    pub fn enqueue_marker(&mut self, queue: CommandQueue) -> ClResult<Event> {
        self.call(ApiRequest::EnqueueMarker { queue })?.into_event()
    }

    /// `clFlush`.
    pub fn flush(&mut self, queue: CommandQueue) -> ClResult<()> {
        self.call(ApiRequest::Flush { queue })?.into_unit()
    }

    /// `clFinish`.
    pub fn finish(&mut self, queue: CommandQueue) -> ClResult<()> {
        self.call(ApiRequest::Finish { queue })?.into_unit()
    }

    /// `clWaitForEvents`.
    pub fn wait_for_events(&mut self, events: &[Event]) -> ClResult<()> {
        self.call(ApiRequest::WaitForEvents {
            events: events.to_vec(),
        })?
        .into_unit()
    }

    /// `clGetEventInfo(CL_EVENT_COMMAND_EXECUTION_STATUS)`.
    pub fn get_event_status(&mut self, event: Event) -> ClResult<EventStatus> {
        match self.call(ApiRequest::GetEventStatus { event })? {
            ApiResponse::EventStatus(s) => Ok(s),
            other => panic!("API contract violation: expected EventStatus, got {other:?}"),
        }
    }

    /// `clGetEventProfilingInfo`.
    pub fn get_event_profiling(&mut self, event: Event) -> ClResult<ProfilingInfo> {
        match self.call(ApiRequest::GetEventProfiling { event })? {
            ApiResponse::Profiling(p) => Ok(p),
            other => panic!("API contract violation: expected Profiling, got {other:?}"),
        }
    }

    /// `clReleaseEvent`.
    pub fn release_event(&mut self, event: Event) -> ClResult<()> {
        self.call(ApiRequest::ReleaseEvent { event })?.into_unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NoOpenCl;
    use crate::error::ClError;

    #[test]
    fn wrapper_threads_clock_through() {
        struct TickApi;
        impl ClApi for TickApi {
            fn call(&mut self, now: &mut SimTime, _req: ApiRequest) -> ClResult<ApiResponse> {
                *now += simcore::SimDuration::from_micros(1);
                Ok(ApiResponse::Platforms(vec![]))
            }
            fn impl_name(&self) -> String {
                "tick".into()
            }
        }
        let mut api = TickApi;
        let mut now = SimTime::ZERO;
        let mut ocl = Ocl::new(&mut api, &mut now);
        ocl.get_platform_ids().unwrap();
        ocl.get_platform_ids().unwrap();
        assert_eq!(
            ocl.now(),
            SimTime::ZERO + simcore::SimDuration::from_micros(2)
        );
    }

    #[test]
    fn errors_propagate() {
        let mut api = NoOpenCl;
        let mut now = SimTime::ZERO;
        let mut ocl = Ocl::new(&mut api, &mut now);
        assert_eq!(
            ocl.get_platform_ids().unwrap_err(),
            ClError::DeviceNotAvailable
        );
    }
}
