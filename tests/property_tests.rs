//! Property-based tests over the core invariants, driven by the
//! dependency-free `simcore::qcheck` harness.

mod common;

use checl::CprPolicy;
use checl_repro as _;
use simcore::codec::Codec;
use simcore::qcheck::{qcheck, Gen};

// ---------------------------------------------------------------------
// Codec invariants
// ---------------------------------------------------------------------

/// Any MemImage round-trips through the checkpoint codec.
#[test]
fn memimage_roundtrip() {
    qcheck("memimage_roundtrip", 64, |g| {
        let mut img = osproc::MemImage::new();
        for _ in 0..g.usize_in(0, 6) {
            let name = g.ident(1, 12);
            let len = g.usize_in(0, 512);
            img.put(&name, g.bytes(len));
        }
        let back = osproc::MemImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(back, img);
    });
}

/// Any checkpoint file round-trips; any single-byte corruption of
/// the frame region is detected (never silently accepted as
/// different data).
#[test]
fn checkpoint_file_integrity() {
    qcheck("checkpoint_file_integrity", 64, |g| {
        let len = g.usize_in(1, 256);
        let data = g.bytes(len);
        let pid = g.u32();
        let flip = g.byte();
        let mut img = osproc::MemImage::new();
        img.put("seg", data);
        let ck = blcr::CheckpointFile {
            source_pid: pid,
            source_host: "pc0".into(),
            image: img,
        };
        let bytes = ck.to_file_bytes().body().to_vec();
        assert_eq!(
            blcr::CheckpointFile::from_file_bytes(&bytes).unwrap(),
            ck.clone()
        );

        // Corrupt one byte inside the frame (skip the trailing zero
        // padding, which is not covered by the checksum).
        let frame_len = 8 + u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        let pos = 8 + (flip as usize % (frame_len - 8));
        let mut bad = bytes.clone();
        bad[pos] ^= 0x55;
        match blcr::CheckpointFile::from_file_bytes(&bad) {
            Err(_) => {}
            Ok(parsed) => assert_eq!(parsed, ck),
        }
    });
}

/// The generic codec rejects truncation of any encoded stream
/// rather than panicking or looping.
#[test]
fn truncation_always_errors() {
    qcheck("truncation_always_errors", 64, |g| {
        let values: Vec<u64> = (0..g.usize_in(1, 20)).map(|_| g.u64()).collect();
        let bytes = values.to_bytes();
        let cut = g.usize_in(0, bytes.len());
        if cut < bytes.len() {
            assert!(Vec::<u64>::from_bytes(&bytes[..cut]).is_err());
        }
    });
}

/// Raw bytes sealed as a frame payload as they are, so a mutated
/// encoding reaches a frame decoder past the checksum.
struct Sealed(Vec<u8>);

impl Codec for Sealed {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn decode(_: &mut simcore::Reader<'_>) -> Result<Self, simcore::CodecError> {
        unreachable!("only encoded")
    }
}

/// A pinned encoding with random bits flipped, cut short, or spliced
/// onto random bytes.
fn mutate(g: &mut Gen, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match g.range(0, 3) {
        0 => {
            for _ in 0..g.usize_in(1, 9) {
                if !bytes.is_empty() {
                    let at = g.usize_in(0, bytes.len());
                    bytes[at] ^= 1 << g.range(0, 8);
                }
            }
        }
        1 => bytes.truncate(g.usize_in(0, bytes.len() + 1)),
        _ => {
            bytes.truncate(g.usize_in(0, bytes.len() + 1));
            let n = g.usize_in(0, 64);
            bytes.extend(g.bytes(n));
        }
    }
    bytes
}

/// Every enum decoder declared with `impl_codec_enum!`, the CheCL state
/// segment, the application program, the process image and the dump
/// sniffer each decode mutated pinned encodings to `Ok` or `Err`, never
/// a panic.
#[test]
fn generated_decoders_are_total() {
    use blcr::chunkstore::Encoding;
    use checl::{ChecLib, ObjectRecord, RecordedArg};
    use clspec::handles::HandleKind;
    use clspec::sig::ParamKind;
    use clspec::types::{ArgValue, BuildStatus, DeviceType, EventStatus};
    use workloads::{AppProgram, BufInit, Op};

    let mut seeds = common::pinned_encodings();
    let mut state = common::checl_db().to_bytes();
    true.encode(&mut state);
    seeds.push(("CheCL state", state));
    let dump = blcr::CheckpointFile::from_file_bytes(&common::checkpoint_file()).unwrap();
    seeds.push(("process image", dump.image.to_bytes()));
    qcheck("generated_decoders_are_total", 512, |g| {
        let (_, base) = &seeds[g.usize_in(0, seeds.len())];
        let bytes = mutate(g, base);
        let _ = ObjectRecord::from_bytes(&bytes);
        let _ = RecordedArg::from_bytes(&bytes);
        let _ = ParamKind::from_bytes(&bytes);
        let _ = HandleKind::from_bytes(&bytes);
        let _ = DeviceType::from_bytes(&bytes);
        let _ = ArgValue::from_bytes(&bytes);
        let _ = EventStatus::from_bytes(&bytes);
        let _ = BuildStatus::from_bytes(&bytes);
        let _ = BufInit::from_bytes(&bytes);
        let _ = Op::from_bytes(&bytes);
        let _ = Encoding::from_bytes(&bytes);
        let _ = ChecLib::decode_state(&bytes);
        let _ = AppProgram::from_bytes(&bytes);
        let _ = blcr::parse_stream(&bytes);
        let _ = blcr::CheckpointFile::from_file_bytes(&bytes);
        let _ = osproc::MemImage::from_bytes(&bytes);
        let zeros = g.range(0, 64);
        let _ = blcr::sniff_dump(&osproc::FileBytes::new(bytes.clone(), zeros));
        // The stream frame decoder itself, behind a valid seal.
        let sealed = simcore::codec::encode_prefixed_frame(
            blcr::STREAM_MAGIC,
            blcr::STREAM_VERSION,
            &Sealed(bytes),
        );
        assert!(blcr::parse_stream(&sealed).is_err());
    });
}

/// The ledger parser meets a real run's JSONL (`checl_inspect`'s
/// committed ledger) with random bit flips, truncation and trailing
/// garbage. It returns `Ok` or a typed `ObsError`, never a panic, and
/// whatever it accepts exports and parses back to the same JSONL.
#[test]
fn ledger_parser_is_total() {
    use simcore::obs::Ledger;
    let real = include_str!("../results/checl_inspect.ledger.jsonl");
    assert_eq!(Ledger::from_jsonl(real).unwrap().to_jsonl(), real);
    qcheck("ledger_parser_is_total", 512, |g| {
        let bytes = mutate(g, real.as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(ledger) = Ledger::from_jsonl(&text) {
            let export = ledger.to_jsonl();
            assert_eq!(Ledger::from_jsonl(&export).unwrap().to_jsonl(), export);
        }
    });
}

// ---------------------------------------------------------------------
// Signature parser invariants
// ---------------------------------------------------------------------

fn gen_param(g: &mut Gen) -> (String, clspec::sig::ParamKind) {
    use clspec::sig::ParamKind;
    let n = g.ident(1, 9);
    match g.range(0, 7) {
        0 => (format!("__global float* {n}"), ParamKind::GlobalPtr),
        1 => (format!("__constant float* {n}"), ParamKind::ConstantPtr),
        2 => (format!("__local float* {n}"), ParamKind::LocalPtr),
        3 => (format!("image2d_t {n}"), ParamKind::Image2d),
        4 => (format!("sampler_t {n}"), ParamKind::Sampler),
        5 => (format!("const uint {n}"), ParamKind::Scalar("uint".into())),
        _ => (format!("float {n}"), ParamKind::Scalar("float".into())),
    }
}

/// For any synthesized kernel declaration, the parser recovers the
/// kernel name, arity and per-parameter classification exactly.
#[test]
fn parser_recovers_synthesized_signatures() {
    qcheck("parser_recovers_synthesized_signatures", 64, |g| {
        let kname = g.ident(1, 13);
        let params: Vec<(String, clspec::sig::ParamKind)> =
            (0..g.usize_in(0, 8)).map(|_| gen_param(g)).collect();
        let list: Vec<String> = params.iter().map(|(d, _)| d.clone()).collect();
        let src = format!(
            "// synthesized\n__kernel void {kname}({}) {{ /* body */ }}\n",
            list.join(", ")
        );
        let sigs = clspec::sig::parse_kernel_sigs(&src).unwrap();
        assert_eq!(sigs.len(), 1);
        assert_eq!(&sigs[0].name, &kname);
        assert_eq!(sigs[0].params.len(), params.len());
        for (got, (_, want)) in sigs[0].params.iter().zip(&params) {
            assert_eq!(&got.kind, want);
        }
        // And the signature round-trips through the codec (it is part
        // of the CheCL database).
        let sig = sigs[0].clone();
        assert_eq!(
            clspec::sig::KernelSig::from_bytes(&sig.to_bytes()).unwrap(),
            sig
        );
    });
}

/// The parser never panics on arbitrary input.
#[test]
fn parser_total_on_garbage() {
    qcheck("parser_total_on_garbage", 96, |g| {
        // A mix of arbitrary bytes forced into UTF-8 and random ASCII
        // punctuation soup that resembles broken source.
        let src = if g.bool() {
            let len = g.usize_in(0, 300);
            String::from_utf8_lossy(&g.bytes(len)).into_owned()
        } else {
            const SOUP: &[u8] = b"__kernel void (){};*,/ \n\tconst uint float image2d_t";
            let len = g.usize_in(0, 300);
            (0..len)
                .map(|_| SOUP[g.usize_in(0, SOUP.len())] as char)
                .collect()
        };
        let _ = clspec::sig::parse_kernel_sigs(&src);
        let _ = clspec::sig::parse_struct_defs(&src);
    });
}

// ---------------------------------------------------------------------
// Kernel engine invariants
// ---------------------------------------------------------------------

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bytes_to_u32s(b: &[u8]) -> Vec<u32> {
    b.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// radix_sort agrees with the standard library sort on any input.
#[test]
fn radix_sort_correct() {
    qcheck("radix_sort_correct", 48, |g| {
        let mut keys: Vec<u32> = (0..g.usize_in(1, 300)).map(|_| g.u32()).collect();
        let n = keys.len() as u32;
        let mut args = vec![
            clkernels::ArgData::buffer_of(u32s_to_bytes(&keys)),
            clkernels::ArgData::Scalar(n.to_le_bytes().to_vec()),
        ];
        clkernels::execute("radix_sort", &mut args).unwrap();
        keys.sort_unstable();
        assert_eq!(bytes_to_u32s(args[0].buffer().unwrap()), keys);
    });
}

/// The full bitonic schedule sorts any power-of-two input.
#[test]
fn bitonic_schedule_correct() {
    qcheck("bitonic_schedule_correct", 32, |g| {
        let log_n = g.range(2, 9) as u32;
        let n = 1usize << log_n;
        let keys: Vec<u32> = (0..n).map(|_| g.u32()).collect();
        let mut buf = clkernels::ArgData::buffer_of(u32s_to_bytes(&keys));
        for stage in 0..log_n {
            for pass in (0..=stage).rev() {
                let mut args = vec![
                    buf.clone(),
                    clkernels::ArgData::Scalar((n as u32).to_le_bytes().to_vec()),
                    clkernels::ArgData::Scalar(stage.to_le_bytes().to_vec()),
                    clkernels::ArgData::Scalar(pass.to_le_bytes().to_vec()),
                ];
                clkernels::execute("bitonic_sort", &mut args).unwrap();
                buf = args.swap_remove(0);
            }
        }
        let mut expected = keys;
        expected.sort_unstable();
        assert_eq!(bytes_to_u32s(buf.buffer().unwrap()), expected);
    });
}

/// Exclusive scan and reduction are consistent:
/// scan[n-1] + input[n-1] == reduce(input).
#[test]
fn scan_reduce_consistent() {
    qcheck("scan_reduce_consistent", 48, |g| {
        let values: Vec<f32> = (0..g.usize_in(1, 200))
            .map(|_| g.f32_in(0.0, 10.0))
            .collect();
        let n = values.len() as u32;
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut scan_args = vec![
            clkernels::ArgData::buffer_of(bytes.clone()),
            clkernels::ArgData::buffer_of(vec![0u8; bytes.len()]),
            clkernels::ArgData::Local(64),
            clkernels::ArgData::Scalar(n.to_le_bytes().to_vec()),
        ];
        clkernels::execute("scan_exclusive", &mut scan_args).unwrap();
        let mut red_args = vec![
            clkernels::ArgData::buffer_of(bytes),
            clkernels::ArgData::buffer_of(vec![0u8; 4]),
            clkernels::ArgData::Local(64),
            clkernels::ArgData::Scalar(n.to_le_bytes().to_vec()),
        ];
        clkernels::execute("reduce_sum", &mut red_args).unwrap();

        let scan_out = scan_args[1].buffer().unwrap();
        let last_scan = f32::from_le_bytes(
            scan_out[(n as usize - 1) * 4..(n as usize) * 4]
                .try_into()
                .unwrap(),
        );
        let total = f32::from_le_bytes(red_args[1].buffer().unwrap()[..4].try_into().unwrap());
        let expected = last_scan + values[values.len() - 1];
        assert!((total - expected).abs() <= total.abs().max(1.0) * 1e-4);
    });
}

// ---------------------------------------------------------------------
// CheCL end-to-end invariant
// ---------------------------------------------------------------------

/// Arbitrary buffer contents survive checkpoint + cross-vendor
/// restart bit-exactly, whatever the bytes are.
#[test]
fn arbitrary_buffers_survive_cpr() {
    qcheck("arbitrary_buffers_survive_cpr", 12, |g| {
        use checl::{CheclConfig, RestoreTarget};
        use clspec::types::{DeviceType, MemFlags, QueueProps};
        use clspec::Ocl;
        use osproc::Cluster;

        let len = g.usize_in(64, 512);
        let raw = g.bytes(len);
        let size = (raw.len() & !3) as u64;
        let data = raw[..size as usize].to_vec();

        let mut cluster = Cluster::with_standard_nodes(2);
        let nodes = cluster.node_ids();
        let app = cluster.spawn(nodes[0]);
        let mut booted = checl::boot_checl(
            &mut cluster,
            app,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
        );
        let mut now = cluster.process(app).clock;
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        let p = ocl.get_platform_ids().unwrap();
        let d = ocl.get_device_ids(p[0], DeviceType::Gpu).unwrap();
        let ctx = ocl.create_context(&d).unwrap();
        // The application keeps this CheCL queue handle across the
        // checkpoint — handles are stable, only the wrapped vendor
        // handles change.
        let q = ocl
            .create_command_queue(ctx, d[0], QueueProps::default())
            .unwrap();
        let buf = ocl
            .create_buffer(
                ctx,
                MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR,
                size,
                Some(data.clone().into()),
            )
            .unwrap();
        let _ = ocl;
        cluster.process_mut(app).clock = now;

        checl::snapshot(
            &mut booted.lib,
            &mut cluster,
            app,
            "/nfs/prop.ckpt",
            &CprPolicy::sequential(),
        )
        .unwrap();
        checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
        cluster.kill(app);

        let (mut lib2, pid2, _) = checl::restore(
            &mut cluster,
            nodes[1],
            "/nfs/prop.ckpt",
            cldriver::vendor::crimson(),
            RestoreTarget::default(),
        )
        .unwrap();
        let mut now2 = cluster.process(pid2).clock;
        let mut ocl2 = Ocl::new(&mut lib2, &mut now2);
        let (back, _) = ocl2
            .enqueue_read_buffer(q, buf, true, 0, size, &[])
            .unwrap();
        assert_eq!(*back, *data);
    });
}
