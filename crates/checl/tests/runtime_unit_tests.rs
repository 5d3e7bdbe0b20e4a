//! Focused tests of the interposition layer's bookkeeping.

use checl::{boot_checl, ChecLib, CheclConfig, MigrationModel, StructArgPolicy};
use cldriver::vendor::{crimson, nimbus};
use clspec::error::ClError;
use clspec::handles::HandleKind;
use clspec::types::{DeviceType, MemFlags, QueueProps};
use clspec::{Ocl, RawHandle};
use osproc::{Cluster, FsKind};
use simcore::{ByteSize, SimDuration};

fn booted(cluster: &mut Cluster) -> (checl::BootedChecl, osproc::Pid) {
    let node = cluster.node_ids()[0];
    let app = cluster.spawn(node);
    let b = boot_checl(cluster, app, nimbus(), CheclConfig::default());
    (b, app)
}

#[test]
fn platform_and_device_queries_are_idempotent() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let (mut b, app) = booted(&mut cluster);
    let mut now = cluster.process(app).clock;
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    let p1 = ocl.get_platform_ids().unwrap();
    let p2 = ocl.get_platform_ids().unwrap();
    assert_eq!(p1, p2, "repeated queries return the same CheCL handles");
    let d1 = ocl.get_device_ids(p1[0], DeviceType::Gpu).unwrap();
    let d2 = ocl.get_device_ids(p1[0], DeviceType::Gpu).unwrap();
    assert_eq!(d1, d2);
    let _ = ocl;
    // Exactly one platform object and one device object were wrapped.
    assert_eq!(b.lib.db.live_of_kind(HandleKind::Platform).count(), 1);
    assert_eq!(b.lib.db.live_of_kind(HandleKind::Device).count(), 1);
}

#[test]
fn distinct_query_types_wrap_distinct_devices() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app = cluster.spawn(node);
    let mut b = boot_checl(&mut cluster, app, crimson(), CheclConfig::default());
    let mut now = cluster.process(app).clock;
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let gpus = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let cpus = ocl.get_device_ids(p[0], DeviceType::Cpu).unwrap();
    assert_ne!(gpus[0], cpus[0]);
    let alls = ocl.get_device_ids(p[0], DeviceType::All).unwrap();
    assert_eq!(alls.len(), 2);
}

#[test]
fn retain_release_roundtrip_keeps_object_alive() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let (mut b, app) = booted(&mut cluster);
    let mut now = cluster.process(app).clock;
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let q = ocl
        .create_command_queue(ctx, d[0], QueueProps::default())
        .unwrap();
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 64, None)
        .unwrap();
    ocl.call(clspec::ApiRequest::RetainMemObject { mem: buf })
        .unwrap();
    ocl.release_mem(buf).unwrap(); // refcount 2 -> 1: still alive
    ocl.enqueue_read_buffer(q, buf, true, 0, 64, &[]).unwrap();
    ocl.release_mem(buf).unwrap(); // 1 -> 0: gone
    assert_eq!(
        ocl.enqueue_read_buffer(q, buf, true, 0, 64, &[])
            .unwrap_err(),
        ClError::InvalidMemObject
    );
}

#[test]
fn state_encode_decode_preserves_db_and_policy() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app = cluster.spawn(node);
    let mut b = boot_checl(
        &mut cluster,
        app,
        nimbus(),
        CheclConfig {
            struct_arg_policy: StructArgPolicy::ScanAndTranslate,
        },
    );
    let mut now = cluster.process(app).clock;
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let _q = ocl
        .create_command_queue(ctx, d[0], QueueProps::default())
        .unwrap();
    let _ = ocl;

    let state = b.lib.encode_state();
    let restored = ChecLib::decode_state(&state).unwrap();
    assert_eq!(restored.db, b.lib.db);
    assert_eq!(
        restored.config().struct_arg_policy,
        StructArgPolicy::ScanAndTranslate
    );
    assert!(!restored.has_proxy());
}

#[test]
fn callbacks_are_counted_as_ignored() {
    let mut lib = ChecLib::new(CheclConfig::default());
    assert_eq!(lib.stats().callbacks_ignored, 0);
    lib.ignore_build_callback();
    lib.ignore_build_callback();
    assert_eq!(lib.stats().callbacks_ignored, 2);
}

#[test]
fn migration_model_ordering_matches_media() {
    let size = ByteSize::mib(100);
    let tr = SimDuration::from_millis(200);
    let ram = MigrationModel::for_medium(FsKind::RamDisk).predict(size, tr);
    let disk = MigrationModel::for_medium(FsKind::LocalDisk).predict(size, tr);
    let nfs = MigrationModel::for_medium(FsKind::Nfs).predict(size, tr);
    assert!(ram < disk, "{ram} < {disk}");
    assert!(disk < nfs, "{disk} < {nfs}");
    // Tr is additive: doubling it shifts every medium equally.
    let nfs2 = MigrationModel::for_medium(FsKind::Nfs).predict(size, tr + tr);
    assert_eq!(nfs2 - nfs, tr);
}

#[test]
fn recompile_estimate_counts_only_built_source_programs() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let (mut b, app) = booted(&mut cluster);
    let mut now = cluster.process(app).clock;
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let src = clkernels::program_source("vector_add").unwrap().source;
    // One built and one unbuilt program.
    let prog1 = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog1, "").unwrap();
    let _prog2 = ocl.create_program_with_source(ctx, &src).unwrap();
    let _ = ocl;

    let est = checl::migrate::estimate_recompile_time(&b.lib, &crimson());
    let one_compile = crimson().compile.compile_time(src.len(), 1);
    assert_eq!(est, one_compile, "only the built program recompiles");
}

#[test]
fn ipc_accounting_scales_with_transfer_size() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let (mut b, app) = booted(&mut cluster);
    let mut now = cluster.process(app).clock;
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
    let ctx = ocl.create_context(&d).unwrap();
    let q = ocl
        .create_command_queue(ctx, d[0], QueueProps::default())
        .unwrap();
    let buf = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 1 << 20, None)
        .unwrap();
    let _ = ocl;
    let before = b.lib.stats().ipc_bytes;
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    ocl.enqueue_write_buffer(q, buf, true, 0, vec![0u8; 1 << 20].into(), &[])
        .unwrap();
    let _ = ocl;
    let after = b.lib.stats().ipc_bytes;
    assert!(after - before >= 1 << 20, "payload crossed the pipe");
}

#[test]
fn call_counters_name_forwarded_entry_points() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let (mut b, app) = booted(&mut cluster);
    let mut now = cluster.process(app).clock;
    simcore::telemetry::start_recording();
    let mut ocl = Ocl::new(&mut b.lib, &mut now);
    let p = ocl.get_platform_ids().unwrap();
    ocl.get_platform_info(p[0]).unwrap();
    ocl.get_platform_info(p[0]).unwrap();
    let calls = simcore::telemetry::stop_recording().unwrap().metrics;
    assert_eq!(calls.counter("checl.calls.clGetPlatformIDs"), 1);
    assert_eq!(calls.counter("checl.calls.clGetPlatformInfo"), 2);
}

// ---------------------------------------------------------------------
// The per-call contract of the shim: one row per forwarded request.
// ---------------------------------------------------------------------

/// One handle of every kind: all live, all released (a never-issued
/// value for the kinds that cannot be released), or all of the wrong
/// kind.
#[derive(Clone)]
struct Set {
    plat: clspec::PlatformId,
    dev: clspec::DeviceId,
    ctx: clspec::Context,
    q: clspec::CommandQueue,
    /// A `USE_HOST_PTR` buffer bound to kernel argument 0.
    a: clspec::Mem,
    /// A plain buffer bound to kernel arguments 1 and 2.
    b: clspec::Mem,
    img: clspec::Mem,
    smp: clspec::Sampler,
    prog: clspec::Program,
    kern: clspec::Kernel,
    ev: clspec::Event,
    binary: Vec<u8>,
}

struct Fixture {
    live: Set,
    dead: Set,
    wrong: Set,
}

const FOREIGN: RawHandle = RawHandle(0xdede_dede);

fn objects(ocl: &mut Ocl<'_>, plat: clspec::PlatformId, dev: clspec::DeviceId) -> Set {
    use clspec::{ArgValue, SamplerDesc};
    let ctx = ocl.create_context(&[dev]).unwrap();
    let q = ocl
        .create_command_queue(ctx, dev, QueueProps::default())
        .unwrap();
    let a = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_WRITE | MemFlags::USE_HOST_PTR,
            64,
            Some(vec![1u8; 64].into()),
        )
        .unwrap();
    let b = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, 64, None)
        .unwrap();
    let img = ocl
        .create_image2d(ctx, MemFlags::READ_WRITE, 4, 4, None)
        .unwrap();
    let smp = ocl
        .create_sampler(
            ctx,
            SamplerDesc {
                normalized_coords: false,
                addressing_mode: 0,
                filter_mode: 0,
            },
        )
        .unwrap();
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "-O2").unwrap();
    let kern = ocl.create_kernel(prog, "vec_add").unwrap();
    ocl.set_arg_mem(kern, 0, a).unwrap();
    ocl.set_arg_mem(kern, 1, b).unwrap();
    ocl.set_arg_mem(kern, 2, b).unwrap();
    ocl.set_kernel_arg(kern, 3, ArgValue::scalar(16u32))
        .unwrap();
    let ev = ocl.enqueue_marker(q).unwrap();
    let binary = ocl.get_program_binary(prog).unwrap();
    Set {
        plat,
        dev,
        ctx,
        q,
        a,
        b,
        img,
        smp,
        prog,
        kern,
        ev,
        binary,
    }
}

fn fixture(lib: &mut ChecLib, now: &mut simcore::SimTime) -> Fixture {
    let mut ocl = Ocl::new(lib, now);
    let plat = ocl.get_platform_ids().unwrap()[0];
    let dev = ocl.get_device_ids(plat, DeviceType::Gpu).unwrap()[0];
    let live = objects(&mut ocl, plat, dev);
    let mut dead = objects(&mut ocl, plat, dev);
    ocl.release_event(dead.ev).unwrap();
    ocl.release_kernel(dead.kern).unwrap();
    ocl.release_program(dead.prog).unwrap();
    ocl.call(clspec::ApiRequest::ReleaseSampler { sampler: dead.smp })
        .unwrap();
    for m in [dead.a, dead.b, dead.img] {
        ocl.release_mem(m).unwrap();
    }
    ocl.release_command_queue(dead.q).unwrap();
    ocl.release_context(dead.ctx).unwrap();
    dead.plat = clspec::PlatformId::from_raw(FOREIGN);
    dead.dev = clspec::DeviceId::from_raw(FOREIGN);
    let c = live.ctx.raw();
    let wrong = Set {
        plat: clspec::PlatformId::from_raw(c),
        dev: clspec::DeviceId::from_raw(c),
        ctx: clspec::Context::from_raw(live.q.raw()),
        q: clspec::CommandQueue::from_raw(c),
        a: clspec::Mem::from_raw(c),
        b: clspec::Mem::from_raw(c),
        img: clspec::Mem::from_raw(c),
        smp: clspec::Sampler::from_raw(c),
        prog: clspec::Program::from_raw(c),
        kern: clspec::Kernel::from_raw(c),
        ev: clspec::Event::from_raw(c),
        binary: live.binary.clone(),
    };
    Fixture { live, dead, wrong }
}

/// `(checl handle, kind, refs)` of every database entry, dead ones too.
fn db_view(lib: &mut ChecLib) -> Vec<(u64, HandleKind, u32)> {
    lib.db
        .entries_mut()
        .map(|e| (e.checl, e.record.kind(), e.refs))
        .collect()
}

/// The CheCL handles a record names: records live in CheCL handle space,
/// so a restore can re-create them from any proxy.
fn references(record: &checl::ObjectRecord) -> Vec<u64> {
    use checl::{ObjectRecord as R, RecordedArg};
    match record {
        R::Platform { .. } => vec![],
        R::Device { platform, .. } => vec![*platform],
        R::Context { devices } => devices.clone(),
        R::Queue {
            context, device, ..
        } => vec![*context, *device],
        R::Mem { context, .. } | R::Sampler { context, .. } | R::Program { context, .. } => {
            vec![*context]
        }
        R::Kernel { program, args, .. } => std::iter::once(*program)
            .chain(args.values().filter_map(|a| match a {
                RecordedArg::Handle(h) => Some(*h),
                _ => None,
            }))
            .collect(),
        R::Event { queue } => vec![*queue],
    }
}

/// What one call on a fresh fixture did: its result, the deltas of
/// `(forwarded_calls, handle_translations, ipc_bytes)`, and the kind and
/// refcount of every record it created or changed the refcount of.
type Outcome = (Result<(), ClError>, (u64, u64, u64), Vec<(HandleKind, u32)>);

fn run_on_fixture(req: impl FnOnce(&Fixture) -> clspec::ApiRequest) -> Outcome {
    let mut cluster = Cluster::with_standard_nodes(1);
    let (mut b, app) = booted(&mut cluster);
    let mut now = cluster.process(app).clock;
    let fx = fixture(&mut b.lib, &mut now);
    let req = req(&fx);
    let before = db_view(&mut b.lib);
    let s0 = b.lib.stats();
    let result = clspec::ClApi::call(&mut b.lib, &mut now, req).map(|_| ());
    let s1 = b.lib.stats();
    for e in b.lib.db.live_entries() {
        for h in references(&e.record) {
            assert!(
                b.lib.db.get(h).is_some(),
                "{:?} names {h:#x}, which is not a CheCL handle",
                e.record
            );
        }
    }
    let left = db_view(&mut b.lib)
        .into_iter()
        .filter(|e| !before.contains(e))
        .map(|(_, kind, refs)| (kind, refs))
        .collect();
    let deltas = (
        s1.forwarded_calls - s0.forwarded_calls,
        s1.handle_translations - s0.handle_translations,
        s1.ipc_bytes - s0.ipc_bytes,
    );
    (result, deltas, left)
}

type Build = fn(&Set) -> clspec::ApiRequest;

/// One request the shim forwards, with its contract.
struct Row {
    req: Build,
    /// `(forwarded_calls, handle_translations, ipc_bytes)` deltas of
    /// the successful call on live handles.
    ok: (u64, u64, u64),
    /// Kind and refcount of each record the successful call leaves.
    leaves: &'static [(HandleKind, u32)],
    /// The error on the all-released and on the all-wrong-kind set;
    /// `None` for a request without handles.
    errs: Option<(ClError, ClError)>,
}

fn contract_table() -> Vec<(&'static str, Row)> {
    use clspec::ApiRequest::*;
    use clspec::{ArgValue, NDRange, SamplerDesc};
    use ClError::*;
    use HandleKind as K;
    fn row(
        req: Build,
        ok: (u64, u64, u64),
        leaves: &'static [(HandleKind, u32)],
        dead: ClError,
        wrong: ClError,
    ) -> Row {
        Row {
            req,
            ok,
            leaves,
            errs: Some((dead, wrong)),
        }
    }
    vec![
        (
            "GetPlatformIds",
            Row {
                req: |_| GetPlatformIds,
                ok: (0, 0, 0),
                leaves: &[],
                errs: None,
            },
        ),
        (
            "GetPlatformInfo",
            row(
                |s| GetPlatformInfo { platform: s.plat },
                (1, 1, 96),
                &[],
                InvalidPlatform,
                InvalidPlatform,
            ),
        ),
        (
            "GetDeviceIds (repeated)",
            row(
                |s| GetDeviceIds {
                    platform: s.plat,
                    device_type: DeviceType::Gpu,
                },
                (0, 1, 0),
                &[],
                InvalidPlatform,
                InvalidPlatform,
            ),
        ),
        (
            "GetDeviceIds (new query)",
            row(
                |s| GetDeviceIds {
                    platform: s.plat,
                    device_type: DeviceType::All,
                },
                (1, 1, 104),
                &[(K::Device, 1)],
                InvalidPlatform,
                InvalidPlatform,
            ),
        ),
        (
            "GetDeviceInfo",
            row(
                |s| GetDeviceInfo { device: s.dev },
                (1, 1, 96),
                &[],
                InvalidDevice,
                InvalidDevice,
            ),
        ),
        (
            "CreateContext",
            row(
                |s| CreateContext {
                    devices: vec![s.dev],
                },
                (1, 1, 96),
                &[(K::Context, 1)],
                InvalidDevice,
                InvalidDevice,
            ),
        ),
        (
            "RetainContext",
            row(
                |s| RetainContext { context: s.ctx },
                (1, 1, 96),
                &[(K::Context, 2)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "ReleaseContext",
            row(
                |s| ReleaseContext { context: s.ctx },
                (1, 1, 96),
                &[(K::Context, 0)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "CreateCommandQueue",
            row(
                |s| CreateCommandQueue {
                    context: s.ctx,
                    device: s.dev,
                    props: QueueProps::default(),
                },
                (1, 2, 96),
                &[(K::CommandQueue, 1)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "RetainCommandQueue",
            row(
                |s| RetainCommandQueue { queue: s.q },
                (1, 1, 96),
                &[(K::CommandQueue, 2)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "ReleaseCommandQueue",
            row(
                |s| ReleaseCommandQueue { queue: s.q },
                (1, 1, 96),
                &[(K::CommandQueue, 0)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "CreateBuffer",
            row(
                |s| CreateBuffer {
                    context: s.ctx,
                    flags: MemFlags::READ_WRITE,
                    size: 256,
                    host_data: None,
                },
                (1, 1, 96),
                &[(K::Mem, 1)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "CreateBuffer (USE_HOST_PTR)",
            row(
                |s| CreateBuffer {
                    context: s.ctx,
                    flags: MemFlags::READ_WRITE | MemFlags::USE_HOST_PTR,
                    size: 256,
                    host_data: Some(vec![7; 256].into()),
                },
                (1, 1, 352),
                &[(K::Mem, 1)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "CreateImage2D",
            row(
                |s| CreateImage2D {
                    context: s.ctx,
                    flags: MemFlags::READ_WRITE,
                    width: 8,
                    height: 8,
                    host_data: None,
                },
                (1, 1, 96),
                &[(K::Mem, 1)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "EnqueueReadImage",
            row(
                |s| EnqueueReadImage {
                    queue: s.q,
                    image: s.img,
                    blocking: true,
                    wait_list: vec![s.ev],
                },
                (1, 3, 168),
                &[(K::Event, 1)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "EnqueueWriteImage",
            row(
                |s| EnqueueWriteImage {
                    queue: s.q,
                    image: s.img,
                    blocking: true,
                    data: vec![3; 64].into(),
                    wait_list: vec![s.ev],
                },
                (1, 3, 168),
                &[(K::Event, 1)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "RetainMemObject",
            row(
                |s| RetainMemObject { mem: s.b },
                (1, 1, 96),
                &[(K::Mem, 2)],
                InvalidMemObject,
                InvalidMemObject,
            ),
        ),
        (
            "ReleaseMemObject",
            row(
                |s| ReleaseMemObject { mem: s.b },
                (1, 1, 96),
                &[(K::Mem, 0)],
                InvalidMemObject,
                InvalidMemObject,
            ),
        ),
        (
            "CreateSampler",
            row(
                |s| CreateSampler {
                    context: s.ctx,
                    desc: SamplerDesc {
                        normalized_coords: true,
                        addressing_mode: 1,
                        filter_mode: 1,
                    },
                },
                (1, 1, 96),
                &[(K::Sampler, 1)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "RetainSampler",
            row(
                |s| RetainSampler { sampler: s.smp },
                (1, 1, 96),
                &[(K::Sampler, 2)],
                InvalidSampler,
                InvalidSampler,
            ),
        ),
        (
            "ReleaseSampler",
            row(
                |s| ReleaseSampler { sampler: s.smp },
                (1, 1, 96),
                &[(K::Sampler, 0)],
                InvalidSampler,
                InvalidSampler,
            ),
        ),
        (
            "CreateProgramWithSource",
            row(
                |s| CreateProgramWithSource {
                    context: s.ctx,
                    source: clkernels::program_source("triad").unwrap().source,
                },
                (1, 1, 368),
                &[(K::Program, 1)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "CreateProgramWithBinary",
            row(
                |s| CreateProgramWithBinary {
                    context: s.ctx,
                    device: s.dev,
                    binary: s.binary.clone(),
                },
                (1, 2, 247),
                &[(K::Program, 1)],
                InvalidContext,
                InvalidContext,
            ),
        ),
        (
            "BuildProgram",
            row(
                |s| BuildProgram {
                    program: s.prog,
                    options: "-cl-fast-relaxed-math".into(),
                },
                (1, 1, 96),
                &[],
                InvalidProgram,
                InvalidProgram,
            ),
        ),
        (
            "GetProgramBuildLog",
            row(
                |s| GetProgramBuildLog { program: s.prog },
                (1, 1, 149),
                &[],
                InvalidProgram,
                InvalidProgram,
            ),
        ),
        (
            "GetProgramBinary",
            row(
                |s| GetProgramBinary { program: s.prog },
                (1, 1, 247),
                &[],
                InvalidProgram,
                InvalidProgram,
            ),
        ),
        (
            "RetainProgram",
            row(
                |s| RetainProgram { program: s.prog },
                (1, 1, 96),
                &[(K::Program, 2)],
                InvalidProgram,
                InvalidProgram,
            ),
        ),
        (
            "ReleaseProgram",
            row(
                |s| ReleaseProgram { program: s.prog },
                (1, 1, 96),
                &[(K::Program, 0)],
                InvalidProgram,
                InvalidProgram,
            ),
        ),
        (
            "CreateKernel",
            row(
                |s| CreateKernel {
                    program: s.prog,
                    name: "vec_add".into(),
                },
                (1, 1, 96),
                &[(K::Kernel, 1)],
                InvalidProgram,
                InvalidProgram,
            ),
        ),
        (
            "RetainKernel",
            row(
                |s| RetainKernel { kernel: s.kern },
                (1, 1, 96),
                &[(K::Kernel, 2)],
                InvalidKernel,
                InvalidKernel,
            ),
        ),
        (
            "ReleaseKernel",
            row(
                |s| ReleaseKernel { kernel: s.kern },
                (1, 1, 96),
                &[(K::Kernel, 0)],
                InvalidKernel,
                InvalidKernel,
            ),
        ),
        (
            "SetKernelArg (buffer)",
            row(
                |s| SetKernelArg {
                    kernel: s.kern,
                    index: 2,
                    value: ArgValue::handle(s.a.raw()),
                },
                (1, 2, 104),
                &[],
                InvalidKernel,
                InvalidKernel,
            ),
        ),
        (
            "SetKernelArg (scalar)",
            row(
                |s| SetKernelArg {
                    kernel: s.kern,
                    index: 3,
                    value: ArgValue::scalar(8u32),
                },
                (1, 1, 100),
                &[],
                InvalidKernel,
                InvalidKernel,
            ),
        ),
        (
            "EnqueueNDRangeKernel",
            row(
                |s| EnqueueNDRangeKernel {
                    queue: s.q,
                    kernel: s.kern,
                    global: NDRange::d1(16),
                    local: None,
                    wait_list: vec![s.ev],
                },
                (3, 5, 424),
                &[(K::Event, 1)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "EnqueueReadBuffer",
            row(
                |s| EnqueueReadBuffer {
                    queue: s.q,
                    mem: s.b,
                    blocking: true,
                    offset: 16,
                    size: 32,
                    wait_list: vec![s.ev],
                },
                (1, 3, 136),
                &[(K::Event, 1)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "EnqueueWriteBuffer",
            row(
                |s| EnqueueWriteBuffer {
                    queue: s.q,
                    mem: s.a,
                    blocking: true,
                    offset: 8,
                    data: vec![9; 16].into(),
                    wait_list: vec![s.ev],
                },
                (1, 3, 120),
                &[(K::Event, 1)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "EnqueueCopyBuffer",
            row(
                |s| EnqueueCopyBuffer {
                    queue: s.q,
                    src: s.a,
                    dst: s.b,
                    src_offset: 0,
                    dst_offset: 32,
                    size: 32,
                    wait_list: vec![s.ev],
                },
                (1, 4, 104),
                &[(K::Event, 1)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "EnqueueMarker",
            row(
                |s| EnqueueMarker { queue: s.q },
                (1, 1, 96),
                &[(K::Event, 1)],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "Flush",
            row(
                |s| Flush { queue: s.q },
                (1, 1, 96),
                &[],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "Finish",
            row(
                |s| Finish { queue: s.q },
                (1, 1, 96),
                &[],
                InvalidCommandQueue,
                InvalidCommandQueue,
            ),
        ),
        (
            "WaitForEvents",
            row(
                |s| WaitForEvents {
                    events: vec![s.ev, s.ev],
                },
                (1, 2, 112),
                &[],
                InvalidEvent,
                InvalidEvent,
            ),
        ),
        (
            "GetEventStatus",
            row(
                |s| GetEventStatus { event: s.ev },
                (1, 1, 96),
                &[],
                InvalidEvent,
                InvalidEvent,
            ),
        ),
        (
            "GetEventProfiling",
            row(
                |s| GetEventProfiling { event: s.ev },
                (1, 1, 96),
                &[],
                InvalidEvent,
                InvalidEvent,
            ),
        ),
        (
            "RetainEvent",
            row(
                |s| RetainEvent { event: s.ev },
                (1, 1, 96),
                &[(K::Event, 2)],
                InvalidEvent,
                InvalidEvent,
            ),
        ),
        (
            "ReleaseEvent",
            row(
                |s| ReleaseEvent { event: s.ev },
                (1, 1, 96),
                &[(K::Event, 0)],
                InvalidEvent,
                InvalidEvent,
            ),
        ),
    ]
}

/// Every request the shim forwards: its counters, the record it
/// leaves, and its error on a released and on a wrong-kind handle. A
/// rejected call forwards nothing, translates nothing, and leaves the
/// database as it was.
#[test]
fn per_call_contract_table() {
    let mut mismatches = Vec::new();
    for (name, row) in contract_table() {
        let got = run_on_fixture(|fx| (row.req)(&fx.live));
        let want: Outcome = (Ok(()), row.ok, row.leaves.to_vec());
        if got != want {
            mismatches.push(format!("{name}: live: got {got:?}, want {want:?}"));
        }
        let Some((dead, wrong)) = row.errs else {
            continue;
        };
        for (set, err) in [("released", dead), ("wrong-kind", wrong)] {
            let got = run_on_fixture(|fx| {
                (row.req)(if set == "released" {
                    &fx.dead
                } else {
                    &fx.wrong
                })
            });
            let want: Outcome = (Err(err), (0, 0, 0), Vec::new());
            if got != want {
                mismatches.push(format!("{name}: {set}: got {got:?}, want {want:?}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Requests with more than one bad handle, or a bad handle after good
/// ones: the first bad handle in field order names the error, and the
/// handles before it are still counted as translated.
#[test]
fn first_bad_handle_wins() {
    use clspec::ApiRequest::*;
    use clspec::{ArgValue, NDRange};
    use ClError::*;
    type Mixed = fn(&Fixture) -> clspec::ApiRequest;
    let rows: Vec<(&str, Mixed, ClError, u64)> = vec![
        (
            "queue: wrong-kind context before a released device",
            |f| CreateCommandQueue {
                context: f.wrong.ctx,
                device: f.dead.dev,
                props: QueueProps::default(),
            },
            InvalidContext,
            0,
        ),
        (
            "queue: live context, wrong-kind device",
            |f| CreateCommandQueue {
                context: f.live.ctx,
                device: f.wrong.dev,
                props: QueueProps::default(),
            },
            InvalidDevice,
            1,
        ),
        (
            "context: second device released",
            |f| CreateContext {
                devices: vec![f.live.dev, f.dead.dev],
            },
            InvalidDevice,
            1,
        ),
        (
            "finish: a foreign value",
            |_| Finish {
                queue: clspec::CommandQueue::from_raw(FOREIGN),
            },
            InvalidCommandQueue,
            0,
        ),
        (
            "read: released buffer on a live queue",
            |f| EnqueueReadBuffer {
                queue: f.live.q,
                mem: f.dead.b,
                blocking: true,
                offset: 0,
                size: 64,
                wait_list: vec![],
            },
            InvalidMemObject,
            1,
        ),
        (
            "write: wrong-kind buffer before a released event",
            |f| EnqueueWriteBuffer {
                queue: f.live.q,
                mem: f.wrong.a,
                blocking: true,
                offset: 0,
                data: vec![0; 8].into(),
                wait_list: vec![f.dead.ev],
            },
            InvalidMemObject,
            1,
        ),
        (
            "copy: released source before a wrong-kind destination",
            |f| EnqueueCopyBuffer {
                queue: f.live.q,
                src: f.dead.a,
                dst: f.wrong.b,
                src_offset: 0,
                dst_offset: 0,
                size: 8,
                wait_list: vec![f.dead.ev],
            },
            InvalidMemObject,
            1,
        ),
        (
            "copy: live buffers, released wait event",
            |f| EnqueueCopyBuffer {
                queue: f.live.q,
                src: f.live.a,
                dst: f.live.b,
                src_offset: 0,
                dst_offset: 0,
                size: 8,
                wait_list: vec![f.dead.ev],
            },
            InvalidEvent,
            3,
        ),
        (
            "launch: second wait event released",
            |f| EnqueueNDRangeKernel {
                queue: f.live.q,
                kernel: f.live.kern,
                global: NDRange::d1(16),
                local: None,
                wait_list: vec![f.live.ev, f.dead.ev],
            },
            InvalidEvent,
            3,
        ),
        (
            "wait: second event of the wrong kind",
            |f| WaitForEvents {
                events: vec![f.live.ev, f.wrong.ev],
            },
            InvalidEvent,
            1,
        ),
        (
            "kernel arg: a context where a buffer is declared",
            |f| SetKernelArg {
                kernel: f.live.kern,
                index: 2,
                value: ArgValue::handle(f.live.ctx.raw()),
            },
            InvalidMemObject,
            1,
        ),
        (
            "kernel arg: a released buffer",
            |f| SetKernelArg {
                kernel: f.live.kern,
                index: 2,
                value: ArgValue::handle(f.dead.b.raw()),
            },
            InvalidMemObject,
            1,
        ),
        (
            "program: released context before unparsable source",
            |f| CreateProgramWithSource {
                context: f.dead.ctx,
                source: "__kernel void".into(),
            },
            InvalidContext,
            0,
        ),
        (
            "program: live context, unparsable source",
            |f| CreateProgramWithSource {
                context: f.live.ctx,
                source: "__kernel void".into(),
            },
            InvalidValue,
            1,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, req, err, translated) in rows {
        let got = run_on_fixture(req);
        let want: Outcome = (Err(err), (0, translated, 0), Vec::new());
        if got != want {
            mismatches.push(format!("{name}: got {got:?}, want {want:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A call rejected at translation has no side effects: a copy whose
/// wait event was released neither dirties its destination nor, with a
/// live drain pending, forks it out of the cut on the app clock.
#[test]
fn rejected_copy_leaves_its_destination_untouched() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let (mut b, app) = booted(&mut cluster);
    let mut now = cluster.process(app).clock;
    let fx = fixture(&mut b.lib, &mut now);
    cluster.process_mut(app).clock = now;
    let policy = checl::CprPolicy::sequential().live(true);
    checl::snapshot(&mut b.lib, &mut cluster, app, "/local/copy.ckpt", &policy).unwrap();
    let mut now = cluster.process(app).clock;
    let dst = fx.live.b.raw().0;
    let dirt = |lib: &ChecLib| match &lib.db.get(dst).unwrap().record {
        checl::ObjectRecord::Mem {
            dirty,
            dirty_regions,
            ..
        } => (*dirty, dirty_regions.clone()),
        other => panic!("not a buffer: {other:?}"),
    };
    let before = dirt(&b.lib);
    assert!(!before.0, "the snapshot leaves the destination clean");
    let t0 = now;
    let copy = clspec::ApiRequest::EnqueueCopyBuffer {
        queue: fx.live.q,
        src: fx.live.a,
        dst: fx.live.b,
        src_offset: 0,
        dst_offset: 0,
        size: 32,
        wait_list: vec![fx.dead.ev],
    };
    assert_eq!(
        clspec::ClApi::call(&mut b.lib, &mut now, copy),
        Err(ClError::InvalidEvent)
    );
    assert_eq!(
        dirt(&b.lib),
        before,
        "a rejected copy dirtied its destination"
    );
    assert_eq!(now, t0, "a rejected copy forked its destination");
}
