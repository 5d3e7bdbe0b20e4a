//! Encodings that cover every shape of the checkpoint codec: each
//! tagged enum in every variant, both length-prefixed file layouts and
//! every stream frame kind. `codec_format_tests` pins their bytes;
//! `property_tests` mutates them.

use checl::{CheclDb, ObjectRecord, RecordedArg};
use clspec::handles::{HandleKind, RawHandle};
use clspec::sig::{KernelSig, ParamInfo, ParamKind};
use clspec::types::{
    ArgValue, BuildStatus, DeviceType, EventStatus, MemFlags, QueueProps, SamplerDesc,
};
use osproc::{Cluster, MemImage, Pid};
use simcore::codec::Codec;
use std::collections::BTreeMap;
use workloads::{AppProgram, BufInit, Op, Script};

/// Every `ParamKind`, in tag order.
pub fn param_kinds() -> Vec<ParamKind> {
    vec![
        ParamKind::GlobalPtr,
        ParamKind::ConstantPtr,
        ParamKind::LocalPtr,
        ParamKind::Image2d,
        ParamKind::Image3d,
        ParamKind::Sampler,
        ParamKind::Scalar("float4".into()),
    ]
}

/// Every `BufInit`, in tag order.
pub fn buf_inits() -> [BufInit; 4] {
    [
        BufInit::Zero,
        BufInit::RandomF32 {
            seed: 7,
            lo: -1.5,
            hi: 2.25,
        },
        BufInit::RandomU32 { seed: 0xfeed },
        BufInit::Ramp,
    ]
}

/// A database holding every `ObjectRecord` variant: a `Program` whose
/// signatures cover every `ParamKind`, a `Kernel` with all three
/// `RecordedArg` kinds, and a `Mem` with every field populated.
pub fn checl_db() -> CheclDb {
    let mut db = CheclDb::new();
    let platform = db.insert(RawHandle(0x10), ObjectRecord::Platform { index: 2 });
    let device = db.insert(
        RawHandle(0x20),
        ObjectRecord::Device {
            platform,
            query_type: DeviceType::Accelerator,
            index: 1,
        },
    );
    let context = db.insert(
        RawHandle(0x30),
        ObjectRecord::Context {
            devices: vec![device, device],
        },
    );
    let queue = db.insert(
        RawHandle(0x40),
        ObjectRecord::Queue {
            context,
            device,
            props: QueueProps {
                out_of_order: true,
                profiling: false,
            },
        },
    );
    let mem = db.insert(
        RawHandle(0x50),
        ObjectRecord::Mem {
            context,
            flags: MemFlags::READ_ONLY | MemFlags::USE_HOST_PTR,
            size: 96,
            saved_data: Some((0..96u8).collect::<Vec<u8>>().into()),
            host_cache: Some(vec![0xa5; 96].into()),
            dirty: true,
            saved_in: Some("/local/app.ckpt".into()),
            image_dims: Some((8, 12)),
            dirty_regions: vec![(0, 16), (48, 8)],
            saved_chunks: Some(vec![(0x1234_5678_9abc_def0, 96)]),
            cut_epoch: 3,
        },
    );
    db.insert(
        RawHandle(0x60),
        ObjectRecord::Sampler {
            context,
            desc: SamplerDesc {
                normalized_coords: true,
                addressing_mode: 0x1132,
                filter_mode: 0x1141,
            },
        },
    );
    let params = param_kinds()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| ParamInfo {
            name: format!("p{i}"),
            kind,
            is_const: i % 2 == 0,
            elem_bytes: (i < 2).then_some(16),
            gid_stride: i == 0,
        })
        .collect();
    let program = db.insert(
        RawHandle(0x70),
        ObjectRecord::Program {
            context,
            source: Some("__kernel void k(__global float4* p0) {}".into()),
            binary: Some(vec![0x7f, b'E', b'L', b'F']),
            build_options: Some("-cl-fast-relaxed-math".into()),
            sigs: vec![KernelSig {
                name: "k".into(),
                params,
            }],
        },
    );
    let mut args = BTreeMap::new();
    args.insert(0, RecordedArg::Handle(mem));
    args.insert(1, RecordedArg::Bytes(1.5f32.to_le_bytes().to_vec()));
    args.insert(2, RecordedArg::Local(4096));
    let kernel = db.insert(
        RawHandle(0x80),
        ObjectRecord::Kernel {
            program,
            name: "k".into(),
            args,
        },
    );
    db.insert(RawHandle(0x90), ObjectRecord::Event { queue });
    db.retain(kernel);
    db.release(platform);
    db
}

/// A program whose script uses every `Op` and every `BufInit`, caught
/// mid-run.
pub fn app_program() -> AppProgram {
    let [zero, random_f32, random_u32, ramp] = buf_inits();
    let ops = vec![
        Op::GetPlatform { out: 0 },
        Op::GetDevices {
            platform: 0,
            dtype: DeviceType::Gpu,
            out: 1,
            count: 2,
        },
        Op::CreateContext { device: 1, out: 3 },
        Op::CreateQueue {
            context: 3,
            device: 1,
            out: 4,
        },
        Op::CreateBuffer {
            context: 3,
            flags: MemFlags::READ_WRITE,
            size: 4096,
            init: Some(random_f32),
            out: 5,
        },
        Op::WriteBuffer {
            queue: 4,
            buf: 5,
            size: 4096,
            init: random_u32,
        },
        Op::ReadBufferChecksum {
            queue: 4,
            buf: 5,
            size: 4096,
        },
        Op::CreateProgram {
            name: "vec_add".into(),
            context: 3,
            out: 6,
        },
        Op::BuildProgram { prog: 6 },
        Op::CreateKernel {
            prog: 6,
            name: "vec_add".into(),
            out: 7,
        },
        Op::CreateSampler { context: 3, out: 8 },
        Op::SetArgMem {
            kernel: 7,
            index: 0,
            buf: 5,
        },
        Op::SetArgSampler {
            kernel: 7,
            index: 1,
            sampler: 8,
        },
        Op::SetArgU32 {
            kernel: 7,
            index: 2,
            value: 1024,
        },
        Op::SetArgF32 {
            kernel: 7,
            index: 3,
            value: 0.5,
        },
        Op::SetArgLocal {
            kernel: 7,
            index: 4,
            size: 256,
        },
        Op::Launch {
            kernel: 7,
            queue: 4,
            global: [1024, 2, 1],
            local: Some([64, 1, 1]),
        },
        Op::Finish { queue: 4 },
        Op::Marker { queue: 4, out: 9 },
        Op::WaitEvent { event: 9 },
        Op::ReleaseMem { buf: 5 },
        Op::CreateImage {
            context: 3,
            width: 16,
            height: 8,
            init: Some(ramp),
            out: 10,
        },
        Op::ReadImageChecksum {
            queue: 4,
            image: 10,
        },
        Op::CreateBuffer {
            context: 3,
            flags: MemFlags::empty(),
            size: 64,
            init: Some(zero),
            out: 11,
        },
        Op::Launch {
            kernel: 7,
            queue: 4,
            global: [64, 1, 1],
            local: None,
        },
    ];
    let mut app = AppProgram::new(Script { ops });
    app.pc = 17;
    app.regs[0] = 0x6000_0000_0000_0010;
    app.regs[95] = u64::MAX;
    app.checksums = vec![0xdead_beef, 42];
    app.kernels_launched = 1;
    app
}

/// Each value of every unit-only enum, plus every `ParamKind`,
/// `BufInit` and `ArgValue`, one encoding per type.
pub fn enum_values() -> Vec<(&'static str, Vec<u8>)> {
    fn all<T: Codec>(values: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in values {
            v.encode(&mut out);
        }
        out
    }
    vec![
        (
            "DeviceType",
            all(&[
                DeviceType::Cpu,
                DeviceType::Gpu,
                DeviceType::Accelerator,
                DeviceType::All,
            ]),
        ),
        ("HandleKind", all(&HandleKind::RESTORE_ORDER)),
        (
            "EventStatus",
            all(&[
                EventStatus::Queued,
                EventStatus::Submitted,
                EventStatus::Running,
                EventStatus::Complete,
            ]),
        ),
        (
            "BuildStatus",
            all(&[BuildStatus::None, BuildStatus::Success, BuildStatus::Error]),
        ),
        ("ParamKind", all(&param_kinds())),
        ("BufInit", all(&buf_inits())),
        (
            "ArgValue",
            all(&[
                ArgValue::Bytes(vec![1, 2, 3, 4, 5]),
                ArgValue::LocalMem(512),
            ]),
        ),
    ]
}

fn one_process() -> (Cluster, Pid) {
    let mut c = Cluster::with_standard_nodes(1);
    let p = c.spawn(c.node_ids()[0]);
    (c, p)
}

/// The body of a chunk-store file holding one raw and one RLE record.
pub fn chunk_store_file() -> Vec<u8> {
    let (mut c, p) = one_process();
    let mut store = blcr::ChunkStore::open(&mut c, p, "/local/pin.cas").unwrap();
    let noise: Vec<u8> = (0..600u32).map(|i| (i * 37 % 251) as u8).collect();
    store.put(&mut c, &noise).unwrap();
    store.put(&mut c, &[9u8; 3000]).unwrap();
    c.read_file(p, "/local/pin.cas").unwrap().body().to_vec()
}

/// The body of a streamed dump holding all five frame kinds: header,
/// an inline chunk, a dedup chunk map, a live-drain slice and the
/// trailer.
pub fn stream_file() -> Vec<u8> {
    let (mut c, p) = one_process();
    c.process_mut(p).image.put("heap", vec![3; 40]);
    c.process_mut(p).image.put("checl-state", vec![]);
    let mut w = blcr::StreamWriter::begin(&mut c, p, "/local/pin.ckpt").unwrap();
    w.append_chunk(&mut c, 0x6000_0000_0000_0050, vec![0xc3; 70])
        .unwrap();
    w.append_chunk_map(
        &mut c,
        0x6000_0000_0000_0060,
        "/local/pin.cas",
        9000,
        vec![(0x1111, 4000), (0x2222, 5000)],
    )
    .unwrap();
    w.append_slice(&mut c, 0x6000_0000_0000_0070, 128, vec![0x5a; 33])
        .unwrap();
    w.finish(&mut c).unwrap();
    c.read_file(p, "/local/pin.ckpt").unwrap().body().to_vec()
}

/// The body of a sequential dump of a two-segment image.
pub fn checkpoint_file() -> Vec<u8> {
    let mut image = MemImage::new();
    image.put("heap", (0..200u8).collect::<Vec<u8>>());
    image.put("script", vec![]);
    blcr::CheckpointFile {
        source_pid: 77,
        source_host: "nimbus".into(),
        image,
    }
    .to_file_bytes()
    .body()
    .to_vec()
}

/// Every pinned encoding, by name.
pub fn pinned_encodings() -> Vec<(&'static str, Vec<u8>)> {
    let mut out = vec![
        ("CheclDb", checl_db().to_bytes()),
        ("AppProgram", app_program().to_bytes()),
        ("chunk store file", chunk_store_file()),
        ("stream file", stream_file()),
        ("checkpoint file", checkpoint_file()),
    ];
    out.extend(enum_values());
    out
}
