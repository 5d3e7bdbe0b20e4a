//! The checkpoint codec's byte format, pinned. Every encoding in
//! `common::pinned_encodings` must keep its exact length and FNV-1a 64,
//! and every tagged enum must keep its unknown-tag error: the dump
//! layout sets every file size and virtual write time in the goldens.
//! Two seeded streamed dumps, one pipelined and one live with slices,
//! keep their whole-file length and hash, and corrupted stream bytes
//! keep the exact error they are refused with.

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
    ("chunk store file", 738, 0x4a8f7300588bc1f7),
    ("stream file", 528, 0xcbb44abde99f1fdb),
    ("checkpoint file", 300, 0xa9c504e8168054cd),
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
            hash: fnv1a64(&[1]),
            raw_len: 1,
            encoding,
            payload: vec![1],
        };
        let frame = encode_framed(blcr::chunkstore::STORE_MAGIC, 1, &rec);
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
            ("pipelined", 26052628, 0x1280_842f_f0d9_9f6e),
            ("live", 26052782, 0x342f_3c07_655d_a8da),
        ]
    );
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
        ("chunk version", CodecError::BadVersion(33)),
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
