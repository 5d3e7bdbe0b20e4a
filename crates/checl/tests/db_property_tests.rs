//! Property-based tests on the CheCL object database, driven by the
//! dependency-free `simcore::qcheck` harness.

use checl::{CheclDb, ObjectRecord};
use clspec::handles::{HandleKind, RawHandle};
use simcore::codec::Codec;
use simcore::qcheck::qcheck;

/// The mirrored refcount behaves exactly like an OpenCL refcount:
/// alive while > 0, dead at 0, and dead forever after.
#[test]
fn refcount_model() {
    qcheck("refcount_model", 96, |g| {
        let mut db = CheclDb::new();
        let h = db.insert(RawHandle(7), ObjectRecord::Context { devices: vec![] });
        let mut model: i64 = 1;
        for _ in 0..g.usize_in(0, 24) {
            if g.bool() {
                let ok = db.retain(h);
                assert_eq!(ok, model > 0);
                if model > 0 {
                    model += 1;
                }
            } else {
                let res = db.release(h);
                if model > 0 {
                    model -= 1;
                    assert_eq!(res, Some(model as u32));
                } else {
                    assert_eq!(res, None);
                }
            }
            assert_eq!(db.is_live_handle(h), model > 0);
        }
    });
}

/// Databases round-trip through the codec for any mix of object
/// kinds, preserving handle values, order and liveness.
#[test]
fn db_roundtrip_any_population() {
    qcheck("db_roundtrip_any_population", 64, |g| {
        let mut db = CheclDb::new();
        let mut handles = Vec::new();
        let ctx_seed = db.insert(RawHandle(1), ObjectRecord::Context { devices: vec![] });
        for i in 0..g.usize_in(0, 30) {
            let rec = match g.range(0, 6) {
                0 => ObjectRecord::Platform { index: i as u32 },
                1 => ObjectRecord::Context { devices: vec![] },
                2 => ObjectRecord::Queue {
                    context: ctx_seed,
                    device: ctx_seed,
                    props: Default::default(),
                },
                3 => ObjectRecord::Mem {
                    context: ctx_seed,
                    flags: clspec::types::MemFlags::READ_WRITE,
                    size: (i as u64 + 1) * 16,
                    saved_data: (i % 2 == 0).then(|| vec![i as u8; 8].into()),
                    host_cache: None,
                    dirty: i % 3 == 0,
                    saved_in: (i % 4 == 0).then(|| format!("/ckpt/{i}")),
                    image_dims: (i % 5 == 0).then_some((8, 8)),
                    dirty_regions: if i % 2 == 0 {
                        vec![(0, 8), (16, 4)]
                    } else {
                        Vec::new()
                    },
                    saved_chunks: (i % 6 == 0).then(|| vec![(i as u64, 8u64)]),
                    cut_epoch: i as u64 % 3,
                },
                4 => ObjectRecord::Event { queue: ctx_seed },
                _ => ObjectRecord::Kernel {
                    program: ctx_seed,
                    name: format!("k{i}"),
                    args: Default::default(),
                },
            };
            handles.push(db.insert(RawHandle(100 + i as u64), rec));
        }
        for &h in &handles {
            if g.bool() {
                db.release(h);
            }
        }
        let back = CheclDb::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(&back, &db);
        for h in &handles {
            assert_eq!(back.is_live_handle(*h), db.is_live_handle(*h));
            assert_eq!(back.vendor_of(*h), db.vendor_of(*h));
        }
        assert_eq!(back.live_counts(), db.live_counts());
    });
}

/// Handle allocation never collides, even across serialize/decode
/// boundaries interleaved with inserts.
#[test]
fn handles_never_collide() {
    qcheck("handles_never_collide", 48, |g| {
        let mut db = CheclDb::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..g.usize_in(1, 5) {
            for _ in 0..g.usize_in(1, 8) {
                let h = db.insert(RawHandle(1), ObjectRecord::Platform { index: 0 });
                assert!(seen.insert(h), "collision on {h:#x}");
            }
            // Round-trip mid-stream (a checkpoint/restart boundary).
            db = CheclDb::from_bytes(&db.to_bytes()).unwrap();
        }
    });
}

/// live_of_kind partitions live_entries: every live entry appears
/// under exactly its own kind.
#[test]
fn kind_partition() {
    qcheck("kind_partition", 64, |g| {
        let mut db = CheclDb::new();
        for i in 0..g.usize_in(0, 20) {
            let rec = match g.range(0, 3) {
                0 => ObjectRecord::Platform { index: i as u32 },
                1 => ObjectRecord::Context { devices: vec![] },
                _ => ObjectRecord::Event { queue: 0 },
            };
            db.insert(RawHandle(i as u64 + 1), rec);
        }
        let total: usize = HandleKind::RESTORE_ORDER
            .iter()
            .map(|k| db.live_of_kind(*k).count())
            .sum();
        assert_eq!(total, db.live_entries().count());
    });
}
