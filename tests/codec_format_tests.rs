//! The checkpoint codec's byte format, pinned. Every encoding in
//! `common::pinned_encodings` must keep its exact length and FNV-1a 64,
//! and every tagged enum must keep its unknown-tag error: the dump
//! layout sets every file size and virtual write time in the goldens.
//! Two seeded streamed dumps, one pipelined and one live with slices,
//! keep their whole-file length and hash, and corrupted stream bytes
//! keep the exact error they are refused with. A stream frame edited
//! and resealed alone is refused by the trailer's chain of frame seals,
//! and every single-bit flip of a sealed frame is refused.

mod common;

use checl::{ObjectRecord, RecordedArg};
use checl_repro as _;
use clspec::handles::HandleKind;
use clspec::sig::ParamKind;
use clspec::types::{ArgValue, BuildStatus, DeviceType, EventStatus};
use simcore::codec::{encode_framed, Codec, CodecError};
use simcore::{fnv1a64, impl_codec_struct};
use workloads::{BufInit, Op};

/// `(name, encoded length, fnv1a64 of the encoding)`.
const PINNED: [(&str, usize, u64); 12] = [
    ("CheclDb", 954, 0xbcd78c5019c24321),
    ("AppProgram", 1165, 0x960ae9ba6a4b0743),
    ("chunk store file", 738, 0xdd293b2c46ade800),
    ("stream file", 528, 0xc273abb80fef75d8),
    ("checkpoint file", 300, 0x9619d33ebf94fdb2),
    ("DeviceType", 4, 0x4475327f98e05411),
    ("HandleKind", 9, 0xb11d013568a3b7cf),
    ("EventStatus", 4, 0x4475327f98e05411),
    ("BuildStatus", 3, 0xd949aa186c0c4928),
    ("ParamKind", 21, 0xff0145fc1e8adef0),
    ("BufInit", 28, 0x8eb05c33906bf772),
    ("ArgValue", 23, 0x1ba5f77b1e9c8836),
];

#[test]
fn encodings_match_the_pinned_lengths_and_hashes() {
    let got: Vec<(&str, usize, u64)> = common::pinned_encodings()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), fnv1a64(bytes)))
        .collect();
    assert_eq!(got, PINNED);
}

#[test]
fn pinned_encodings_roundtrip() {
    let db = common::checl_db();
    assert_eq!(checl::CheclDb::from_bytes(&db.to_bytes()).unwrap(), db);
    let app = common::app_program();
    assert_eq!(
        workloads::AppProgram::from_bytes(&app.to_bytes()).unwrap(),
        app
    );
}

fn tag_error<T: Codec + std::fmt::Debug>(tag: u8) -> CodecError {
    T::from_bytes(&[tag]).unwrap_err()
}

#[test]
fn unknown_tags_keep_their_messages() {
    let invalid = CodecError::Invalid;
    assert_eq!(tag_error::<ObjectRecord>(9), invalid("ObjectRecord tag"));
    assert_eq!(tag_error::<RecordedArg>(3), invalid("RecordedArg tag"));
    assert_eq!(tag_error::<ParamKind>(7), invalid("ParamKind tag"));
    assert_eq!(tag_error::<HandleKind>(9), invalid("HandleKind tag"));
    assert_eq!(tag_error::<DeviceType>(4), invalid("DeviceType tag"));
    assert_eq!(tag_error::<ArgValue>(2), invalid("ArgValue tag"));
    assert_eq!(tag_error::<EventStatus>(4), invalid("EventStatus tag"));
    assert_eq!(tag_error::<BuildStatus>(3), invalid("BuildStatus tag"));
    assert_eq!(tag_error::<BufInit>(4), invalid("BufInit tag"));
    assert_eq!(tag_error::<Op>(23), invalid("Op tag"));

    // A stream frame with an unknown kind.
    let frame = encode_framed(blcr::STREAM_MAGIC, blcr::STREAM_VERSION, &5u8);
    let mut file = (frame.len() as u64).to_bytes();
    file.extend_from_slice(&frame);
    assert_eq!(blcr::parse_stream(&file), Err(invalid("stream frame tag")));

    // A chunk-store record with an unknown encoding, followed by an
    // intact one so the bad record is not taken for a torn tail.
    struct Record {
        hash: u64,
        raw_len: u64,
        encoding: u8,
        payload: Vec<u8>,
    }
    impl_codec_struct!(Record {
        hash,
        raw_len,
        encoding,
        payload
    });
    let mut file = Vec::new();
    for encoding in [2u8, 0] {
        let rec = Record {
            hash: simcore::xxh64(&[1]),
            raw_len: 1,
            encoding,
            payload: vec![1],
        };
        let frame = encode_framed(
            blcr::chunkstore::STORE_MAGIC,
            blcr::chunkstore::STORE_VERSION,
            &rec,
        );
        (frame.len() as u64).encode(&mut file);
        file.extend_from_slice(&frame);
    }
    let mut c = osproc::Cluster::with_standard_nodes(1);
    let p = c.spawn(c.node_ids()[0]);
    c.write_file(p, "/local/bad.cas", file).unwrap();
    match blcr::ChunkStore::open(&mut c, p, "/local/bad.cas") {
        Err(blcr::CprError::Corrupt(e)) => assert_eq!(e, invalid("chunk store encoding tag")),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a bad encoding tag must not open"),
    }
}

/// A four-buffer program cut after its first write wave, whose second
/// wave rewrites half of every other buffer: under a live policy that
/// wave races the drain, so the dump holds forked slices.
fn dump_script() -> (workloads::Script, u64) {
    use clspec::types::MemFlags;
    let mut ops = vec![
        Op::GetPlatform { out: 0 },
        Op::GetDevices {
            platform: 0,
            dtype: DeviceType::Gpu,
            out: 1,
            count: 1,
        },
        Op::CreateContext { device: 1, out: 2 },
        Op::CreateQueue {
            context: 2,
            device: 1,
            out: 3,
        },
    ];
    let sizes = [256u64 << 10, 320 << 10, 192 << 10, 96 << 10];
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::CreateBuffer {
            context: 2,
            flags: MemFlags::READ_WRITE,
            size,
            init: Some(BufInit::RandomU32 {
                seed: 0x5eed + i as u64,
            }),
            out: 4 + i as u16,
        });
    }
    for (i, &size) in sizes.iter().enumerate() {
        ops.push(Op::WriteBuffer {
            queue: 3,
            buf: 4 + i as u16,
            size,
            init: BufInit::RandomU32 {
                seed: 0xd1a7 + i as u64,
            },
        });
    }
    let cut = ops.len() as u64;
    for (i, &size) in sizes.iter().enumerate().step_by(2) {
        ops.push(Op::WriteBuffer {
            queue: 3,
            buf: 4 + i as u16,
            size: size / 2,
            init: BufInit::RandomU32 {
                seed: 0xc0c0 + i as u64,
            },
        });
    }
    (workloads::Script { ops }, cut)
}

/// The whole dump file a seeded [`checl::snapshot`] of [`dump_script`]
/// writes under `policy`, completing a live drain after the program
/// runs on.
fn seeded_dump(policy: &checl::CprPolicy) -> osproc::FileBytes {
    let (script, cut) = dump_script();
    let mut c = osproc::Cluster::with_standard_nodes(1);
    let node = c.node_ids()[0];
    let mut s = workloads::CheclSession::launch(
        &mut c,
        node,
        cldriver::vendor::nimbus(),
        checl::CheclConfig::default(),
        script,
    );
    s.run(&mut c, workloads::StopCondition::AfterOps(cut))
        .unwrap();
    let path = "/local/seeded.ckpt";
    s.checkpoint_with_policy(&mut c, path, policy).unwrap();
    s.run(&mut c, workloads::StopCondition::Completion).unwrap();
    s.complete_live_drain(&mut c).unwrap();
    c.peek_file_on(node, path).unwrap().clone()
}

fn pipelined_dump() -> osproc::FileBytes {
    seeded_dump(&checl::CprPolicy::pipelined())
}

fn live_dump() -> osproc::FileBytes {
    seeded_dump(&checl::CprPolicy::pipelined().live(true))
}

#[test]
fn seeded_stream_dumps_match_the_pinned_lengths_and_hashes() {
    let pipelined = pipelined_dump();
    let parsed = blcr::parse_stream(pipelined.body()).unwrap();
    assert_eq!((parsed.chunks.len(), parsed.slices.len()), (4, 0));
    let live = live_dump();
    let parsed = blcr::parse_stream(live.body()).unwrap();
    assert!(!parsed.slices.is_empty(), "the live dump has no slices");
    let got = [
        ("pipelined", pipelined.len(), pipelined.fnv64()),
        ("live", live.len(), live.fnv64()),
    ];
    assert_eq!(
        got,
        [
            ("pipelined", 26052628, 0xbe35_d618_b0d7_5099),
            ("live", 26052782, 0x742c_bbbd_9e7f_7791),
        ]
    );
}

/// A dump's bytes depend only on its own cluster's history, not on
/// what ran on the thread before it: the driver salts its handles with
/// its host process's pid.
#[test]
fn seeded_dumps_do_not_depend_on_what_ran_before_them() {
    let (pipelined_first, live_second) = (pipelined_dump(), live_dump());
    let (live_first, pipelined_second) = (live_dump(), pipelined_dump());
    let same = |a: &osproc::FileBytes, b: &osproc::FileBytes| {
        (a.body(), a.zero_tail()) == (b.body(), b.zero_tail())
    };
    assert!(
        same(&pipelined_first, &pipelined_second),
        "pipelined dump moved"
    );
    assert!(same(&live_first, &live_second), "live dump moved");
}

/// `(offset, tag)` of every frame in a stream body: where its length
/// prefix starts, and the first byte of its payload body.
fn frames(body: &[u8]) -> Vec<(usize, u8)> {
    let mut r = simcore::codec::Reader::new(body);
    let mut out = Vec::new();
    while !r.is_empty() {
        let at = body.len() - r.remaining();
        out.push((at, r.take_frame().unwrap()[16]));
    }
    out
}

/// Parse `body` with the byte at `at` flipped.
fn flipped(body: &[u8], at: usize) -> CodecError {
    let mut bad = body.to_vec();
    bad[at] ^= 0x20;
    blcr::parse_stream(&bad).unwrap_err()
}

#[test]
fn flipped_stream_bytes_keep_their_errors() {
    // A frame is `len | magic | version | body len | body | seal`, and
    // its body starts with the frame tag.
    const MAGIC: usize = 8;
    const VERSION: usize = 12;
    const BODY: usize = 24;
    let pipelined = pipelined_dump();
    let body = pipelined.body();
    let (chunk, _) = frames(body)[2];
    let chunk_len = blcr::parse_stream(body).unwrap().chunks[1].data.len();
    let live = live_dump();
    let (slice, _) = *frames(live.body())
        .iter()
        .find(|&&(_, tag)| tag == 4)
        .expect("a slice frame");
    let got = [
        ("chunk payload", flipped(body, chunk + BODY + 21 + 1000)),
        (
            "chunk payload end",
            flipped(body, chunk + BODY + 21 + chunk_len - 1),
        ),
        ("slice payload", flipped(live.body(), slice + BODY + 29 + 7)),
        ("chunk tag", flipped(body, chunk + BODY)),
        ("chunk seq", flipped(body, chunk + BODY + 1)),
        ("chunk handle", flipped(body, chunk + BODY + 5)),
        ("chunk data length", flipped(body, chunk + BODY + 13)),
        ("slice offset", flipped(live.body(), slice + BODY + 13)),
        ("chunk magic", flipped(body, chunk + MAGIC)),
        ("chunk version", flipped(body, chunk + VERSION)),
        ("chunk body length", flipped(body, chunk + 16)),
        ("chunk frame length", flipped(body, chunk)),
    ];
    let eof = |needed, remaining| CodecError::UnexpectedEof { needed, remaining };
    let want = [
        ("chunk payload", CodecError::ChecksumMismatch),
        ("chunk payload end", CodecError::ChecksumMismatch),
        ("slice payload", CodecError::ChecksumMismatch),
        ("chunk tag", CodecError::ChecksumMismatch),
        ("chunk seq", CodecError::ChecksumMismatch),
        ("chunk handle", CodecError::ChecksumMismatch),
        ("chunk data length", CodecError::ChecksumMismatch),
        ("slice offset", CodecError::ChecksumMismatch),
        ("chunk magic", CodecError::BadMagic),
        ("chunk version", CodecError::BadVersion(36)),
        ("chunk body length", eof(327733, 327709)),
        ("chunk frame length", eof(327701, 327677)),
    ];
    assert_eq!(got, want);
}

#[test]
fn a_resealed_trailer_with_a_lying_checksum_is_refused() {
    for dump in [pipelined_dump(), live_dump()] {
        let body = dump.body();
        let parsed = blcr::parse_stream(body).unwrap();
        let trailer_at = body.len() - parsed.tail_bytes as usize;
        let mut lie = parsed.trailer.clone();
        lie.data_checksum ^= 1;
        // Tag 2 is the trailer frame.
        let frame = encode_framed(blcr::STREAM_MAGIC, blcr::STREAM_VERSION, &(2u8, lie));
        let mut bad = body[..trailer_at].to_vec();
        (frame.len() as u64).encode(&mut bad);
        bad.extend_from_slice(&frame);
        assert_eq!(blcr::parse_stream(&bad), Err(CodecError::ChecksumMismatch));
        // The same frame re-sealed with the true checksum parses.
        let frame = encode_framed(
            blcr::STREAM_MAGIC,
            blcr::STREAM_VERSION,
            &(2u8, parsed.trailer.clone()),
        );
        let mut good = body[..trailer_at].to_vec();
        (frame.len() as u64).encode(&mut good);
        good.extend_from_slice(&frame);
        assert_eq!(good, body);
    }
}

/// `body` as a length-prefixed `magic | version | len | body | seal`
/// frame, built by hand so that the test, not the codec, says which
/// function seals it.
fn frame_sealed_with(magic: &[u8], version: u32, body: &[u8], seal: fn(&[u8]) -> u64) -> Vec<u8> {
    let mut frame = magic.to_vec();
    version.encode(&mut frame);
    body.to_vec().encode(&mut frame);
    seal(body).encode(&mut frame);
    frame.to_bytes()
}

/// `body`'s length-prefixed frames as format v1 wrote them: the same
/// magic and payload, version 1 and a one-lane FNV-1a seal.
fn as_v1(body: &[u8]) -> Vec<u8> {
    as_version(body, 1, fnv1a64)
}

/// `body`'s length-prefixed frames with the same magic and payload,
/// relabelled `version` and sealed with `seal`.
fn as_version(body: &[u8], version: u32, seal: fn(&[u8]) -> u64) -> Vec<u8> {
    let mut out = Vec::new();
    for (magic, payload) in frame_magics(body).iter().zip(frame_bodies(body)) {
        out.extend(frame_sealed_with(magic, version, &payload, seal));
    }
    out
}

/// The magic of every length-prefixed frame of `body`, in order.
fn frame_magics(body: &[u8]) -> Vec<[u8; 4]> {
    let mut r = simcore::codec::Reader::new(body);
    let mut out = Vec::new();
    while !r.is_empty() {
        out.push(r.take_frame().unwrap()[..4].try_into().unwrap());
    }
    out
}

/// Write `old`, a chunk store relabelled to an older format, and check
/// that both `open` and `load_all` refuse it with `BadVersion(version)`
/// and leave its bytes as they were.
fn old_store_is_refused(version: u32, seal: fn(&[u8]) -> u64) {
    let mut c = osproc::Cluster::with_standard_nodes(1);
    let p = c.spawn(c.node_ids()[0]);
    let mut store = blcr::ChunkStore::open(&mut c, p, "/local/new.cas").unwrap();
    store.put(&mut c, &[3; 5000]).unwrap();
    let new = c.read_file(p, "/local/new.cas").unwrap();
    let old = osproc::FileBytes::new(as_version(new.body(), version, seal), 0);
    assert_eq!(old.len(), new.len());
    c.write_file(p, "/local/old.cas", old.body().to_vec())
        .unwrap();
    let want = CodecError::BadVersion(version);
    match blcr::ChunkStore::open(&mut c, p, "/local/old.cas") {
        Err(blcr::CprError::Corrupt(e)) => assert_eq!(e, want),
        Err(e) => panic!("wrong error: {e}"),
        Ok(s) => panic!("a v{version} store opened with {} chunks", s.len()),
    }
    match blcr::ChunkStore::load_all(&mut c, p, "/local/old.cas") {
        Err(blcr::CprError::Corrupt(e)) => assert_eq!(e, want),
        other => panic!("wrong result: {:?}", other.map(|all| all.len())),
    }
    assert_eq!(c.read_file(p, "/local/old.cas").unwrap(), old);
}

/// Dumps, stores and binaries of every older format are refused by
/// their version word, which is read before the seal: v1 files carry
/// their own one-lane FNV-1a seal, and the later versions, whose
/// four-lane FNV-1a seal no longer exists, carry the current one.
#[test]
fn version_1_dumps_and_binaries_are_refused_by_version() {
    let mut image = osproc::MemImage::new();
    image.put("seg", vec![5; 64]);
    let sequential = blcr::CheckpointFile {
        source_pid: 7,
        source_host: "node0".into(),
        image,
    }
    .to_file_bytes();
    let pipelined = pipelined_dump();
    let xxh64 = simcore::xxh64;
    let older = [
        (&sequential, 1, fnv1a64 as fn(&[u8]) -> u64),
        (&sequential, 2, xxh64),
        (&pipelined, 1, fnv1a64),
        (&pipelined, 2, xxh64),
        (&pipelined, 3, xxh64),
    ];
    for (dump, version, seal) in older {
        assert!(blcr::sniff_dump(dump).is_ok());
        let old = as_version(dump.body(), version, seal);
        let old = osproc::FileBytes::new(old, dump.zero_tail());
        assert_eq!(blcr::sniff_dump(&old), Err(CodecError::BadVersion(version)));
    }
    old_store_is_refused(2, xxh64);

    let mut driver = cldriver::Driver::new(cldriver::vendor::nimbus(), osproc::Pid(1));
    let mut now = simcore::SimTime::ZERO;
    let mut ocl = clspec::Ocl::new(&mut driver, &mut now);
    let platforms = ocl.get_platform_ids().unwrap();
    let dev = ocl.get_device_ids(platforms[0], DeviceType::Gpu).unwrap()[0];
    let ctx = ocl.create_context(&[dev]).unwrap();
    let program = ocl
        .create_program_with_source(ctx, "__kernel void k(__global float* a){}")
        .unwrap();
    ocl.build_program(program, "").unwrap();
    let binary = ocl.get_program_binary(program).unwrap();
    let v1 = as_v1(&binary.to_bytes())[8..].to_vec();
    let v2 = as_version(&binary.to_bytes(), 2, xxh64)[8..].to_vec();
    assert_eq!((v1.len(), v2.len()), (binary.len(), binary.len()));
    assert!(ocl.create_program_with_binary(ctx, dev, binary).is_ok());
    for old in [v1, v2] {
        assert_eq!(
            ocl.create_program_with_binary(ctx, dev, old).unwrap_err(),
            clspec::error::ClError::InvalidBinary
        );
    }
}

#[test]
fn a_version_1_chunk_store_is_refused_and_left_as_it_was() {
    old_store_is_refused(1, fnv1a64);
}

/// The payload body of every frame of a stream or chunk-store body, in
/// order.
fn frame_bodies(body: &[u8]) -> Vec<Vec<u8>> {
    let mut r = simcore::codec::Reader::new(body);
    let mut out = Vec::new();
    while !r.is_empty() {
        let frame = r.take_frame().unwrap();
        let payload = simcore::codec::Reader::new(&frame[8..])
            .take_frame()
            .unwrap();
        out.push(payload.to_vec());
    }
    out
}

/// Where a map body's `total_len` sits: after the tag, `seq`, `handle`
/// and the store path.
fn map_total_len_at(body: &[u8]) -> usize {
    21 + u64::from_le_bytes(body[13..21].try_into().unwrap()) as usize
}

/// A frame body sealed as a length-prefixed stream frame.
fn stream_frame(body: &[u8]) -> Vec<u8> {
    frame_sealed_with(
        &blcr::STREAM_MAGIC,
        blcr::STREAM_VERSION,
        body,
        simcore::xxh64,
    )
}

/// The seal of a length-prefixed frame: its last 8 bytes.
fn seal_of(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[frame.len() - 8..].try_into().unwrap())
}

/// The stream body of `bodies`, every seal recomputed: each frame's own
/// seal, and the trailer's payload count, inline chunk and slice bytes
/// and FNV-1a chain of the seals of the frames before it.
fn resealed(bodies: &[Vec<u8>]) -> Vec<u8> {
    let (mut seals, mut data_bytes, mut payloads) = (simcore::Fnv64::new(), 0u64, 0u32);
    let mut out = Vec::new();
    for body in bodies {
        let mut body = body.clone();
        match body[0] {
            1 => data_bytes += body.len() as u64 - 21,
            4 => data_bytes += body.len() as u64 - 29,
            2 => body = (2u8, payloads, (data_bytes, seals.finish())).to_bytes(),
            _ => {}
        }
        payloads += u32::from(body[0] != 0 && body[0] != 2);
        let frame = stream_frame(&body);
        seals.update_u64(seal_of(&frame));
        out.extend_from_slice(&frame);
    }
    out
}

/// Every "lying but sealed" edit of a payload frame's body: a field
/// (`seq`, a slice's `offset`, the data length or a map's `total_len`)
/// set to a neighbour or an extreme of its value.
fn lying_edits(body: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let fields = match body[0] {
        1 => vec![("seq", 1, 4), ("data length", 13, 8)],
        4 => vec![("seq", 1, 4), ("offset", 13, 8), ("data length", 21, 8)],
        3 => vec![("seq", 1, 4), ("total_len", map_total_len_at(body), 8)],
        _ => Vec::new(),
    };
    field_lies(body, fields)
}

/// Each `(name, offset, width)` field of `body` set to a neighbour or
/// an extreme of its value, one edit at a time.
fn field_lies(
    body: &[u8],
    fields: Vec<(&'static str, usize, usize)>,
) -> Vec<(&'static str, Vec<u8>)> {
    let mut edits = Vec::new();
    for (what, at, width) in fields {
        let mut old = [0u8; 8];
        old[..width].copy_from_slice(&body[at..at + width]);
        let old = u64::from_le_bytes(old);
        let max = u64::MAX >> (64 - 8 * width);
        for new in [old.wrapping_add(1), old.wrapping_sub(1), 0, max, 1 << 31] {
            let new = new & max;
            if new != old {
                let mut edited = body.to_vec();
                edited[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
                edits.push((what, edited));
            }
        }
    }
    edits
}

#[test]
fn lying_but_sealed_stream_edits_get_typed_errors() {
    let dedup = seeded_dump(&checl::CprPolicy::pipelined().dedup(true));
    let mut kinds = std::collections::BTreeSet::new();
    for dump in [pipelined_dump(), live_dump(), dedup] {
        let bodies = frame_bodies(dump.body());
        assert_eq!(resealed(&bodies), dump.body(), "resealing is the identity");
        for (i, body) in bodies.iter().enumerate() {
            for (what, edited) in lying_edits(body) {
                kinds.insert((body[0], what));
                let mut lie = bodies.clone();
                lie[i] = edited;
                let file = osproc::FileBytes::new(resealed(&lie), dump.zero_tail());
                let parsed = blcr::parse_stream(file.body()).map(|_| ());
                let sniffed = blcr::sniff_dump(&file).map(|_| ());
                assert_eq!(parsed, sniffed, "frame {i} {what}");
                assert_ne!(
                    parsed,
                    Err(CodecError::ChecksumMismatch),
                    "frame {i} {what}"
                );
                if what == "seq" {
                    let out_of_order = CodecError::Invalid("stream chunk out of order");
                    assert_eq!(parsed, Err(out_of_order), "frame {i}");
                }
            }
        }
    }
    // Every field of every payload frame kind was lied about.
    assert_eq!(kinds.len(), 7, "{kinds:?}");
}

/// One frame edited and sealed again on its own, the trailer left as
/// written: every field is under its frame's seal, and the trailer
/// chains the seals, so the edit cannot pass as a sealed stream.
#[test]
fn a_frame_resealed_alone_is_refused_by_the_trailer() {
    let dedup = seeded_dump(&checl::CprPolicy::pipelined().dedup(true));
    let mut places = std::collections::BTreeMap::new();
    for dump in [pipelined_dump(), live_dump(), dedup] {
        let body = dump.body();
        let starts = frames(body);
        for (i, frame) in frame_bodies(body).into_iter().enumerate() {
            // The header's last byte, a chunk's `handle`, a slice's
            // `offset` and a map's `store` path.
            let (what, at) = match frame[0] {
                0 => ("header last byte", frame.len() - 1),
                1 => ("chunk handle", 5),
                4 => ("slice offset", 13),
                3 => ("map store", 21),
                _ => continue,
            };
            let mut edited = frame;
            edited[at] ^= 0x20;
            let end = starts.get(i + 1).map_or(body.len(), |&(at, _)| at);
            let mut lie = body.to_vec();
            lie[starts[i].0..end].copy_from_slice(&stream_frame(&edited));
            let file = osproc::FileBytes::new(lie, dump.zero_tail());
            let refused = Err(CodecError::ChecksumMismatch);
            let parsed = blcr::parse_stream(file.body()).map(|_| ());
            assert_eq!(parsed, refused, "frame {i} {what}");
            assert_eq!(
                blcr::sniff_dump(&file).map(|_| ()),
                refused,
                "frame {i} {what}"
            );
            *places.entry(what).or_insert(0) += 1;
        }
    }
    let places: Vec<_> = places.into_iter().collect();
    assert_eq!(
        places,
        [
            ("chunk handle", 6),
            ("header last byte", 3),
            ("map store", 4),
            ("slice offset", 4)
        ]
    );
}

/// Flip each bit of `bytes` in `bits` (counted from bit 0 of byte 0),
/// one at a time, and read the result with `read`: each flip must be
/// refused.
fn every_bit_flip_is_refused(
    what: &str,
    bytes: &[u8],
    bits: std::ops::Range<usize>,
    mut read: impl FnMut(&[u8]) -> Result<(), CodecError>,
) {
    assert_eq!(read(bytes), Ok(()), "{what} reads back");
    let mut bad = bytes.to_vec();
    for bit in bits {
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(
            read(&bad).is_err(),
            "{what}: bit {bit} flipped reads as sealed"
        );
        bad[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Every single-bit flip of a sealed frame of about 1 KiB is refused
/// with a typed error, in each of the three dump formats: whatever
/// function seals a frame must keep this.
#[test]
fn every_single_bit_flip_of_a_sealed_frame_is_refused() {
    let noise = simcore::qcheck::Gen::new(0xf11b).bytes(1000);
    let mut image = osproc::MemImage::new();
    image.put("seg", noise.clone());
    let file = blcr::CheckpointFile {
        source_pid: 7,
        source_host: "node0".into(),
        image,
    }
    .to_file_bytes();
    every_bit_flip_is_refused("BLCR file", file.body(), 0..8 * file.body().len(), |b| {
        blcr::CheckpointFile::from_file_bytes(b).map(|_| ())
    });

    let mut c = osproc::Cluster::with_standard_nodes(1);
    let p = c.spawn(c.node_ids()[0]);
    let mut w = blcr::StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
    w.append_chunk(&mut c, 0x60, noise.clone()).unwrap();
    w.finish(&mut c).unwrap();
    let stream = c.read_file(p, "/local/s.ckpt").unwrap().body().to_vec();
    let starts = frames(&stream);
    let chunk = 8 * starts[1].0..8 * starts[2].0;
    every_bit_flip_is_refused("BLCS chunk", &stream, chunk, |b| {
        blcr::parse_stream(b).map(|_| ())
    });

    // The record is the first of two. A store reads a last record that
    // fails, or a length prefix within the longest record `put` writes
    // that runs past its end, as an append torn by a crash; so of the
    // record's length prefix only the bits above that bound are
    // flipped.
    let mut store = blcr::ChunkStore::open(&mut c, p, "/local/s.cas").unwrap();
    store.put(&mut c, &noise).unwrap();
    store.put(&mut c, &[3; 3000]).unwrap();
    let cas = c.read_file(p, "/local/s.cas").unwrap().body().to_vec();
    let mut read_store = |b: &[u8]| {
        c.write_file(p, "/local/flip.cas", b.to_vec()).unwrap();
        match blcr::ChunkStore::load_all(&mut c, p, "/local/flip.cas") {
            Ok(_) => Ok(()),
            Err(blcr::CprError::Corrupt(e)) => Err(e),
            Err(e) => panic!("BLCC record: refused untyped: {e}"),
        }
    };
    let record = 8 * 8..8 * frames(&cas)[1].0;
    every_bit_flip_is_refused("BLCC record", &cas, record, &mut read_store);
    let bound = blcr::chunkstore::MAX_RECORD_FRAME;
    let above = 64 - bound.leading_zeros() as usize..64;
    assert!(1u64 << above.start > bound && 1u64 << (above.start - 1) <= bound);
    every_bit_flip_is_refused("BLCC prefix", &cas, above, &mut read_store);
}

/// Chunk-store record bodies framed and sealed again, so that an edited
/// body reads as a record written whole.
fn resealed_store(bodies: &[Vec<u8>]) -> Vec<u8> {
    let (magic, version) = (
        blcr::chunkstore::STORE_MAGIC,
        blcr::chunkstore::STORE_VERSION,
    );
    bodies
        .iter()
        .flat_map(|b| frame_sealed_with(&magic, version, b, simcore::xxh64))
        .collect()
}

#[test]
fn lying_but_sealed_store_records_get_typed_errors() {
    let mut c = osproc::Cluster::with_standard_nodes(1);
    let p = c.spawn(c.node_ids()[0]);
    let mut store = blcr::ChunkStore::open(&mut c, p, "/local/s.cas").unwrap();
    let mut runs = vec![3u8; 5000];
    runs.extend([9u8; 3000]);
    let noise = simcore::qcheck::Gen::new(0x11e5).bytes(5000);
    for chunk in [noise, vec![3; 5000], runs] {
        store.put(&mut c, &chunk).unwrap();
    }
    let file = c.read_file(p, "/local/s.cas").unwrap();
    let bodies = frame_bodies(file.body());
    assert_eq!(
        resealed_store(&bodies),
        file.body(),
        "resealing is the identity"
    );
    let corrupt = |what: &str, r: Result<(), blcr::CprError>| match r {
        Err(blcr::CprError::Corrupt(e)) => assert_ne!(e, CodecError::ChecksumMismatch, "{what}"),
        other => panic!("{what}: {other:?}"),
    };
    let mut kinds = std::collections::BTreeSet::new();
    for (i, body) in bodies.iter().enumerate() {
        // hash | raw_len | encoding tag | payload length | payload
        let payload_len = u64::from_le_bytes(body[17..25].try_into().unwrap());
        assert_eq!(payload_len as usize, body.len() - 25);
        let fields = vec![
            ("address", 0, 8),
            ("raw length", 8, 8),
            ("payload length", 17, 8),
        ];
        for (what, edited) in field_lies(body, fields) {
            kinds.insert((body[16], what));
            let mut lie = bodies.clone();
            lie[i] = edited;
            let lie = resealed_store(&lie);
            c.write_file(p, "/local/lie.cas", lie.clone()).unwrap();
            let what = format!("record {i} {what}");
            corrupt(
                &what,
                blcr::ChunkStore::load_all(&mut c, p, "/local/lie.cas").map(|_| ()),
            );
            // Opening a store to dump into hashes every chunk too, so a
            // lying address is caught before a `put` can dedup against
            // it.
            corrupt(
                &what,
                blcr::ChunkStore::open(&mut c, p, "/local/lie.cas").map(|_| ()),
            );
            // No sealed record is mistaken for a torn append and cut.
            assert_eq!(
                c.read_file(p, "/local/lie.cas").unwrap().body(),
                &lie[..],
                "{what}"
            );
        }
    }
    // Every field of a raw and of an RLE record was lied about.
    assert_eq!(kinds.len(), 6, "{kinds:?}");
}
