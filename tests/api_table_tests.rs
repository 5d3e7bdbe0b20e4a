//! The OpenCL call table, pinned. One instance of each of the 42
//! `ApiRequest` variants keeps its entry-point name, its wire size and
//! the exact `(kind, handle)` sequence `try_map_handles` visits. Wire
//! sizes drive the app↔proxy pipe's virtual time in every golden, and
//! the visit order decides which bad handle names a rejected call's
//! error.

use checl_repro as _;
use clspec::handles::{
    CommandQueue, Context, DeviceId, Event, HandleKind, Kernel, Mem, PlatformId, Program,
    RawHandle, Sampler,
};
use clspec::types::{ArgValue, DeviceType, MemFlags, NDRange, QueueProps, SamplerDesc};
use clspec::ApiRequest;
use simcore::Payload;
use std::collections::BTreeSet;
use HandleKind as K;

const P: u64 = 0x11;
const D1: u64 = 0x21;
const D2: u64 = 0x22;
const C: u64 = 0x31;
const Q: u64 = 0x41;
const M1: u64 = 0x51;
const M2: u64 = 0x52;
const S: u64 = 0x61;
const PR: u64 = 0x71;
const KN: u64 = 0x81;
const E1: u64 = 0x91;
const E2: u64 = 0x92;

/// One request with its pinned name, wire size and handle visits.
struct Pin {
    req: ApiRequest,
    name: &'static str,
    wire: u64,
    visits: &'static [(HandleKind, u64)],
}

fn pin(
    req: ApiRequest,
    name: &'static str,
    wire: u64,
    visits: &'static [(HandleKind, u64)],
) -> Pin {
    Pin {
        req,
        name,
        wire,
        visits,
    }
}

fn h(raw: u64) -> RawHandle {
    RawHandle(raw)
}

fn waits() -> Vec<Event> {
    vec![Event::from_raw(h(E1)), Event::from_raw(h(E2))]
}

fn pins() -> Vec<Pin> {
    use ApiRequest::*;
    let p = PlatformId::from_raw(h(P));
    let d = DeviceId::from_raw(h(D1));
    let ctx = Context::from_raw(h(C));
    let q = CommandQueue::from_raw(h(Q));
    let m = Mem::from_raw(h(M1));
    let m2 = Mem::from_raw(h(M2));
    let s = Sampler::from_raw(h(S));
    let pr = Program::from_raw(h(PR));
    let k = Kernel::from_raw(h(KN));
    let ev = Event::from_raw(h(E1));
    let desc = SamplerDesc {
        normalized_coords: true,
        addressing_mode: 1,
        filter_mode: 0,
    };
    // 36 bytes of source, 12 of binary, 16 of host data.
    let source = "__kernel void k(__global float* a){}".to_string();
    let binary = vec![0xb1; 12];
    let host = Some(Payload::from(vec![1u8; 16]));
    vec![
        pin(GetPlatformIds, "clGetPlatformIDs", 64, &[]),
        pin(
            GetPlatformInfo { platform: p },
            "clGetPlatformInfo",
            64,
            &[(K::Platform, P)],
        ),
        pin(
            GetDeviceIds {
                platform: p,
                device_type: DeviceType::Gpu,
            },
            "clGetDeviceIDs",
            64,
            &[(K::Platform, P)],
        ),
        pin(
            GetDeviceInfo { device: d },
            "clGetDeviceInfo",
            64,
            &[(K::Device, D1)],
        ),
        // A device list rides in the fixed header: 0 payload bytes.
        pin(
            CreateContext {
                devices: vec![d, DeviceId::from_raw(h(D2))],
            },
            "clCreateContext",
            64,
            &[(K::Device, D1), (K::Device, D2)],
        ),
        pin(
            RetainContext { context: ctx },
            "clRetainContext",
            64,
            &[(K::Context, C)],
        ),
        pin(
            ReleaseContext { context: ctx },
            "clReleaseContext",
            64,
            &[(K::Context, C)],
        ),
        pin(
            CreateCommandQueue {
                context: ctx,
                device: d,
                props: QueueProps::default(),
            },
            "clCreateCommandQueue",
            64,
            &[(K::Context, C), (K::Device, D1)],
        ),
        pin(
            RetainCommandQueue { queue: q },
            "clRetainCommandQueue",
            64,
            &[(K::CommandQueue, Q)],
        ),
        pin(
            ReleaseCommandQueue { queue: q },
            "clReleaseCommandQueue",
            64,
            &[(K::CommandQueue, Q)],
        ),
        pin(
            CreateBuffer {
                context: ctx,
                flags: MemFlags::COPY_HOST_PTR,
                size: 16,
                host_data: host.clone(),
            },
            "clCreateBuffer",
            80,
            &[(K::Context, C)],
        ),
        pin(
            CreateBuffer {
                context: ctx,
                flags: MemFlags::READ_WRITE,
                size: 16,
                host_data: None,
            },
            "clCreateBuffer",
            64,
            &[(K::Context, C)],
        ),
        pin(
            CreateImage2D {
                context: ctx,
                flags: MemFlags::COPY_HOST_PTR,
                width: 2,
                height: 2,
                host_data: host,
            },
            "clCreateImage2D",
            80,
            &[(K::Context, C)],
        ),
        pin(
            CreateImage2D {
                context: ctx,
                flags: MemFlags::READ_ONLY,
                width: 2,
                height: 2,
                host_data: None,
            },
            "clCreateImage2D",
            64,
            &[(K::Context, C)],
        ),
        pin(
            EnqueueReadImage {
                queue: q,
                image: m,
                blocking: true,
                wait_list: waits(),
            },
            "clEnqueueReadImage",
            80,
            &[
                (K::CommandQueue, Q),
                (K::Mem, M1),
                (K::Event, E1),
                (K::Event, E2),
            ],
        ),
        pin(
            EnqueueWriteImage {
                queue: q,
                image: m,
                blocking: false,
                data: vec![2; 16].into(),
                wait_list: waits(),
            },
            "clEnqueueWriteImage",
            96,
            &[
                (K::CommandQueue, Q),
                (K::Mem, M1),
                (K::Event, E1),
                (K::Event, E2),
            ],
        ),
        pin(
            RetainMemObject { mem: m },
            "clRetainMemObject",
            64,
            &[(K::Mem, M1)],
        ),
        pin(
            ReleaseMemObject { mem: m },
            "clReleaseMemObject",
            64,
            &[(K::Mem, M1)],
        ),
        pin(
            CreateSampler { context: ctx, desc },
            "clCreateSampler",
            64,
            &[(K::Context, C)],
        ),
        pin(
            RetainSampler { sampler: s },
            "clRetainSampler",
            64,
            &[(K::Sampler, S)],
        ),
        pin(
            ReleaseSampler { sampler: s },
            "clReleaseSampler",
            64,
            &[(K::Sampler, S)],
        ),
        // Program source is bulk payload; kernel names and build
        // options ride in the fixed header.
        pin(
            CreateProgramWithSource {
                context: ctx,
                source,
            },
            "clCreateProgramWithSource",
            100,
            &[(K::Context, C)],
        ),
        pin(
            CreateProgramWithBinary {
                context: ctx,
                device: d,
                binary,
            },
            "clCreateProgramWithBinary",
            76,
            &[(K::Context, C), (K::Device, D1)],
        ),
        pin(
            BuildProgram {
                program: pr,
                options: "-cl-fast-relaxed-math".into(),
            },
            "clBuildProgram",
            64,
            &[(K::Program, PR)],
        ),
        pin(
            GetProgramBuildLog { program: pr },
            "clGetProgramBuildInfo",
            64,
            &[(K::Program, PR)],
        ),
        pin(
            GetProgramBinary { program: pr },
            "clGetProgramInfo",
            64,
            &[(K::Program, PR)],
        ),
        pin(
            RetainProgram { program: pr },
            "clRetainProgram",
            64,
            &[(K::Program, PR)],
        ),
        pin(
            ReleaseProgram { program: pr },
            "clReleaseProgram",
            64,
            &[(K::Program, PR)],
        ),
        pin(
            CreateKernel {
                program: pr,
                name: "vector_add".into(),
            },
            "clCreateKernel",
            64,
            &[(K::Program, PR)],
        ),
        pin(
            RetainKernel { kernel: k },
            "clRetainKernel",
            64,
            &[(K::Kernel, KN)],
        ),
        pin(
            ReleaseKernel { kernel: k },
            "clReleaseKernel",
            64,
            &[(K::Kernel, KN)],
        ),
        // The blob holds a handle, but only the kernel is visited: the
        // blob's meaning needs the kernel signature.
        pin(
            SetKernelArg {
                kernel: k,
                index: 0,
                value: ArgValue::handle(h(M2)),
            },
            "clSetKernelArg",
            72,
            &[(K::Kernel, KN)],
        ),
        pin(
            SetKernelArg {
                kernel: k,
                index: 1,
                value: ArgValue::LocalMem(4096),
            },
            "clSetKernelArg",
            72,
            &[(K::Kernel, KN)],
        ),
        pin(
            EnqueueNDRangeKernel {
                queue: q,
                kernel: k,
                global: NDRange::d1(64),
                local: Some(NDRange::d1(16)),
                wait_list: waits(),
            },
            "clEnqueueNDRangeKernel",
            80,
            &[
                (K::CommandQueue, Q),
                (K::Kernel, KN),
                (K::Event, E1),
                (K::Event, E2),
            ],
        ),
        pin(
            EnqueueReadBuffer {
                queue: q,
                mem: m,
                blocking: true,
                offset: 4,
                size: 8,
                wait_list: waits(),
            },
            "clEnqueueReadBuffer",
            80,
            &[
                (K::CommandQueue, Q),
                (K::Mem, M1),
                (K::Event, E1),
                (K::Event, E2),
            ],
        ),
        pin(
            EnqueueWriteBuffer {
                queue: q,
                mem: m,
                blocking: false,
                offset: 4,
                data: vec![3; 8].into(),
                wait_list: waits(),
            },
            "clEnqueueWriteBuffer",
            88,
            &[
                (K::CommandQueue, Q),
                (K::Mem, M1),
                (K::Event, E1),
                (K::Event, E2),
            ],
        ),
        pin(
            EnqueueCopyBuffer {
                queue: q,
                src: m,
                dst: m2,
                src_offset: 0,
                dst_offset: 8,
                size: 8,
                wait_list: waits(),
            },
            "clEnqueueCopyBuffer",
            80,
            &[
                (K::CommandQueue, Q),
                (K::Mem, M1),
                (K::Mem, M2),
                (K::Event, E1),
                (K::Event, E2),
            ],
        ),
        pin(
            EnqueueMarker { queue: q },
            "clEnqueueMarker",
            64,
            &[(K::CommandQueue, Q)],
        ),
        pin(Flush { queue: q }, "clFlush", 64, &[(K::CommandQueue, Q)]),
        pin(Finish { queue: q }, "clFinish", 64, &[(K::CommandQueue, Q)]),
        pin(
            WaitForEvents { events: waits() },
            "clWaitForEvents",
            80,
            &[(K::Event, E1), (K::Event, E2)],
        ),
        pin(
            GetEventStatus { event: ev },
            "clGetEventInfo",
            64,
            &[(K::Event, E1)],
        ),
        pin(
            GetEventProfiling { event: ev },
            "clGetEventProfilingInfo",
            64,
            &[(K::Event, E1)],
        ),
        pin(
            RetainEvent { event: ev },
            "clRetainEvent",
            64,
            &[(K::Event, E1)],
        ),
        pin(
            ReleaseEvent { event: ev },
            "clReleaseEvent",
            64,
            &[(K::Event, E1)],
        ),
    ]
}

/// Every handle `req` visits, in order, without rewriting any.
fn visits(req: &ApiRequest) -> Vec<(HandleKind, u64)> {
    let mut seen = Vec::new();
    req.clone()
        .try_map_handles(|kind, h| {
            seen.push((kind, h.0));
            Ok::<_, ()>(h)
        })
        .unwrap();
    seen
}

const REWRITE: u64 = 0x1000;

#[test]
fn every_variant_is_pinned() {
    let variants: BTreeSet<String> = pins()
        .iter()
        .map(|p| format!("{:?}", std::mem::discriminant(&p.req)))
        .collect();
    assert_eq!(variants.len(), 42);
}

#[test]
fn names_wire_sizes_and_handle_visits_match_the_pins() {
    let mut mismatches = Vec::new();
    for p in pins() {
        let got = (p.req.api_name(), p.req.wire_size(), visits(&p.req));
        let want = (p.name, p.wire, p.visits.to_vec());
        if got != want {
            mismatches.push(format!("got {got:?}, want {want:?}"));
        }
        // Every visited handle is rewritten in place, and nothing else.
        let mut req = p.req.clone();
        req.try_map_handles(|_, h| Ok::<_, ()>(RawHandle(h.0 + REWRITE)))
            .unwrap();
        let rewritten: Vec<_> = p.visits.iter().map(|&(k, h)| (k, h + REWRITE)).collect();
        if visits(&req) != rewritten || req.wire_size() != p.wire {
            mismatches.push(format!("{}: rewrite gave {req:?}", p.name));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Failing at the `n`-th handle stops the visit there: the handles
/// before it are rewritten, it and the ones after are not visited.
#[test]
fn a_failed_handle_stops_the_visit() {
    let mut mismatches = Vec::new();
    for p in pins() {
        for n in 0..p.visits.len() {
            let mut req = p.req.clone();
            let mut seen = 0;
            let err = req.try_map_handles(|_, h| {
                seen += 1;
                if seen > n {
                    Err(h.0)
                } else {
                    Ok(RawHandle(h.0 + REWRITE))
                }
            });
            let want: Vec<_> = p
                .visits
                .iter()
                .enumerate()
                .map(|(i, &(k, h))| (k, if i < n { h + REWRITE } else { h }))
                .collect();
            if err != Err(p.visits[n].1) || seen != n + 1 || visits(&req) != want {
                mismatches.push(format!("{} failing at {n}: got {req:?}", p.name));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
