//! The checkpoint codec's byte format, pinned. Every encoding in
//! `common::pinned_encodings` must keep its exact length and FNV-1a 64,
//! and every tagged enum must keep its unknown-tag error: the dump
//! layout sets every file size and virtual write time in the goldens.

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
