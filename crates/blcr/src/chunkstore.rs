//! Content-addressed chunk store for dedup'd checkpoint streams.
//!
//! A dedup dump splits each buffer payload with **content-defined
//! chunking** (a gear rolling hash picks cut points from the bytes
//! themselves, so an insertion early in a buffer does not shift every
//! later chunk boundary), addresses each chunk by its [`xxh64`], and
//! appends only *novel* chunks — compressed — to an append-only `.cas`
//! file shared by every generation on the same mount. The stream file
//! then carries a [`crate::stream::StreamChunkMap`] of `(hash, len)`
//! references instead of the bytes, so a slowly-mutating buffer costs
//! near-zero stream bytes across generations.
//!
//! The store is crash-safe by construction: records are only ever
//! appended, and a reference published by a *committed* generation can
//! never dangle — a dump aborted mid-write leaves at most unreferenced
//! (harmless) records behind, never a missing one. Records carry the
//! same framed+checksummed codec as the stream format, so bit-rot is
//! caught when the store is scanned. This is format v3
//! ([`STORE_VERSION`]): each record is sealed with [`xxh64`], and the
//! same hash of the raw chunk bytes is its address. A record of any
//! other version or magic is refused with a typed error wherever it
//! sits in the file, never dropped as a torn tail, and so is a length
//! prefix longer than any record [`ChunkStore::put`] writes.
//!
//! Compression is a deterministic byte-level RLE with a raw fallback
//! (never expands). It is a *model* of a real codec: the simulator
//! cares that compressed bytes hit the disk channel and that the
//! compression work occupies a CPU `compress` resource channel, not
//! about ratio-chasing.

use crate::cpr::CprError;
use osproc::{Cluster, Pid};
use simcore::codec::{decode_framed, encode_prefixed_frame, Codec, CodecError, Reader};
use simcore::{impl_codec_enum, impl_codec_struct, obs, xxh64, SimDuration, SplitMix64};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Magic bytes of one chunk-store record frame.
pub const STORE_MAGIC: [u8; 4] = *b"BLCC";
/// Chunk-store format version.
pub const STORE_VERSION: u32 = 3;

/// Content-defined chunking bounds: no chunk smaller than this…
pub const CDC_MIN_CHUNK: usize = 2 << 10;
/// …none larger than this…
pub const CDC_MAX_CHUNK: usize = 64 << 10;
/// …and a cut wherever the gear hash masks to zero (≈ 8 KiB average).
pub const CDC_MASK: u64 = (1 << 13) - 1;

/// The longest frame [`ChunkStore::put`] appends behind its length
/// prefix: an incompressible [`CDC_MAX_CHUNK`]-byte chunk stored raw.
/// Magic, version and body length (16 bytes), the record's address,
/// raw length, encoding tag and payload length (25), the payload, and
/// the seal (8).
pub const MAX_RECORD_FRAME: u64 = (16 + 25 + CDC_MAX_CHUNK + 8) as u64;

fn gear_table() -> &'static [u64; 256] {
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Fixed seed: cut points must agree across runs and machines.
        let mut rng = SplitMix64::new(0x43686543_4c636173);
        let mut t = [0u64; 256];
        for v in t.iter_mut() {
            *v = rng.next_u64();
        }
        t
    })
}

/// Split `data` into content-defined chunks; returns `(offset, len)`
/// pairs covering the input exactly, in order. Deterministic in the
/// bytes alone.
pub fn cdc_chunks(data: &[u8]) -> Vec<(u64, u64)> {
    let table = gear_table();
    let mut cuts = Vec::new();
    let mut start = 0usize;
    let mut hash = 0u64;
    let mut i = 0usize;
    while i < data.len() {
        hash = (hash << 1).wrapping_add(table[data[i] as usize]);
        let len = i + 1 - start;
        if (len >= CDC_MIN_CHUNK && hash & CDC_MASK == 0) || len >= CDC_MAX_CHUNK {
            cuts.push((start as u64, len as u64));
            start = i + 1;
            hash = 0;
        }
        i += 1;
    }
    if start < data.len() || data.is_empty() {
        cuts.push((start as u64, (data.len() - start) as u64));
    }
    cuts
}

/// How a stored chunk's payload is encoded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Encoding {
    /// Bytes as-is.
    Raw,
    /// Byte-level run-length encoding (`[run_len, byte]` pairs).
    Rle,
}

impl_codec_enum!(Encoding, "chunk store encoding tag", {
    0 => Raw,
    1 => Rle,
});

/// Deterministic RLE with raw fallback: returns the smaller of the RLE
/// form and the input itself, so compression never expands a chunk.
pub fn compress(data: &[u8]) -> (Encoding, Vec<u8>) {
    let mut rle = Vec::with_capacity(data.len() / 2 + 2);
    let mut i = 0usize;
    while i < data.len() && rle.len() < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while run < 255 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        rle.push(run as u8);
        rle.push(b);
        i += run;
    }
    if i >= data.len() && rle.len() < data.len() {
        (Encoding::Rle, rle)
    } else {
        (Encoding::Raw, data.to_vec())
    }
}

/// Invert [`compress`].
pub fn decompress(encoding: Encoding, payload: &[u8], raw_len: u64) -> Result<Vec<u8>, CodecError> {
    match encoding {
        Encoding::Raw => {
            if payload.len() as u64 != raw_len {
                return Err(CodecError::Invalid("chunk raw length mismatch"));
            }
            Ok(payload.to_vec())
        }
        Encoding::Rle => {
            // Two payload bytes expand to at most 255, so a lying
            // `raw_len` reserves no more than the payload can fill.
            let mut out = Vec::with_capacity(raw_len.min(payload.len() as u64 / 2 * 255) as usize);
            let mut it = payload.chunks_exact(2);
            for pair in &mut it {
                out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
            }
            if !it.remainder().is_empty() || out.len() as u64 != raw_len {
                return Err(CodecError::Invalid("chunk RLE payload malformed"));
            }
            Ok(out)
        }
    }
}

/// One record of the append-only store file.
#[derive(Clone, Debug, PartialEq)]
struct StoreRecord {
    /// [`xxh64`] of the *raw* chunk bytes — the content address.
    hash: u64,
    /// Raw (decompressed) length.
    raw_len: u64,
    /// How `payload` is encoded.
    encoding: Encoding,
    /// Stored payload.
    payload: Vec<u8>,
}

impl_codec_struct!(StoreRecord {
    hash,
    raw_len,
    encoding,
    payload
});

/// Index entry for one stored chunk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkMeta {
    /// Raw (logical) chunk length.
    pub raw_len: u64,
    /// Bytes the record occupies on disk, framing included.
    pub stored_len: u64,
    /// Whether the payload is RLE-compressed.
    pub compressed: bool,
}

/// Outcome of offering one chunk to the store.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PutOutcome {
    /// The chunk was already present: zero new bytes.
    Deduped(ChunkMeta),
    /// The chunk was appended; `cost` is the I/O cost of the append.
    Stored(ChunkMeta, SimDuration),
}

/// A content-addressed chunk store: one append-only `.cas` file plus
/// an in-memory hash index rebuilt by scanning it.
pub struct ChunkStore {
    pid: Pid,
    path: String,
    index: BTreeMap<u64, ChunkMeta>,
}

/// What scanning a store file yielded.
struct ScanResult {
    /// Index of every intact record, keyed by chunk hash.
    index: BTreeMap<u64, ChunkMeta>,
    /// Decompressed payloads (only when `keep_payloads`).
    payloads: BTreeMap<u64, Vec<u8>>,
    /// Byte length of the longest prefix made of intact frames.
    valid_len: u64,
    /// `true` when the file ends in a torn frame — a crash landed
    /// mid-append. Everything before `valid_len` is still good.
    torn: bool,
}

/// `true` for the errors of a frame that is intact but not this
/// build's: the wrong magic or a format version it does not read.
fn is_foreign(e: &CodecError) -> bool {
    matches!(e, CodecError::BadMagic | CodecError::BadVersion(_))
}

/// A frame body left unread: decoding one checks only the frame.
struct Unread;

impl Codec for Unread {
    fn encode(&self, _: &mut Vec<u8>) {}
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take(r.remaining())?;
        Ok(Unread)
    }
}

/// `true` when `frame` is a store record frame whose seal holds: it was
/// written whole, so a record it fails to yield is a lie, not a tear.
fn sealed_whole(frame: &[u8]) -> bool {
    decode_framed::<Unread>(STORE_MAGIC, STORE_VERSION, frame).is_ok()
}

/// The length `payload` decodes to under `encoding`, counted without
/// decoding it; `None` for an RLE payload of odd length.
fn decoded_len(encoding: Encoding, payload: &[u8]) -> Option<u64> {
    match encoding {
        Encoding::Raw => Some(payload.len() as u64),
        Encoding::Rle => payload
            .len()
            .is_multiple_of(2)
            .then(|| payload.chunks_exact(2).map(|pair| u64::from(pair[0])).sum()),
    }
}

/// Scan the raw bytes of a store file; `keep_payloads` controls whether
/// chunk bytes are kept (restore) or only hashed and indexed (dump).
///
/// A *torn final frame* — the file ends inside a length prefix or
/// inside the last frame's bytes, the signature of a crash mid-append —
/// is not an error: the scan stops at the last intact frame and flags
/// `torn`, because an append-only store's committed references only
/// ever point at earlier, intact records. Corruption *before* the final
/// frame is still fatal (that is bit-rot, not a torn append, and
/// dropping mid-file records would dangle committed references), and a
/// foreign magic or version is fatal at any position. So is a length
/// prefix over [`MAX_RECORD_FRAME`]: a tear cuts a prefix short but
/// never lengthens one. So is a record whose seal holds but whose raw
/// length disagrees with its payload or whose address is not the
/// [`xxh64`] of its bytes: a sealed record was written whole, so it
/// lies.
fn scan(bytes: &[u8], keep_payloads: bool) -> Result<ScanResult, CodecError> {
    let mut index = BTreeMap::new();
    let mut payloads = BTreeMap::new();
    let mut r = Reader::new(bytes);
    let mut valid_len = 0u64;
    while !r.is_empty() {
        let frame = match r.take_frame() {
            Ok(frame) if frame.len() as u64 <= MAX_RECORD_FRAME => frame,
            // The length prefix or the frame body is cut short: torn
            // tail.
            Err(CodecError::UnexpectedEof { needed, .. }) if needed as u64 <= MAX_RECORD_FRAME => {
                return Ok(ScanResult {
                    index,
                    payloads,
                    valid_len,
                    torn: true,
                })
            }
            // A prefix no `put` writes, whether or not the file holds
            // that many bytes: bit-rot, wherever it sits.
            Ok(_) | Err(CodecError::UnexpectedEof { .. }) => {
                return Err(CodecError::Invalid("chunk store record length"))
            }
            Err(e) => return Err(e),
        };
        let parsed = (|| {
            let mut rec = decode_framed::<StoreRecord>(STORE_MAGIC, STORE_VERSION, frame)?;
            if decoded_len(rec.encoding, &rec.payload) != Some(rec.raw_len) {
                return Err(CodecError::Invalid("chunk raw length mismatch"));
            }
            let payload = match rec.encoding {
                // Its length is the raw length, checked above.
                Encoding::Raw => std::mem::take(&mut rec.payload),
                Encoding::Rle => decompress(rec.encoding, &rec.payload, rec.raw_len)?,
            };
            if xxh64(&payload) != rec.hash {
                return Err(CodecError::Invalid("chunk address mismatch"));
            }
            Ok((rec, keep_payloads.then_some(payload)))
        })();
        let (rec, payload) = match parsed {
            Ok(p) => p,
            // A garbled *final* frame is a torn append whose length
            // prefix happened to land inside the file; mid-file rot
            // stays fatal. So is a frame of another magic or version
            // anywhere: those lead the frame, where a tear cannot reach,
            // and dropping it would throw away a store this build cannot
            // read. A final frame whose seal holds is no tear either.
            Err(e) if r.is_empty() && !is_foreign(&e) && !sealed_whole(frame) => {
                return Ok(ScanResult {
                    index,
                    payloads,
                    valid_len,
                    torn: true,
                })
            }
            Err(e) => return Err(e),
        };
        if let Some(p) = payload {
            payloads.insert(rec.hash, p);
        }
        // Duplicate records (two writers racing an abort) are
        // harmless: content addressing makes them identical.
        index.insert(
            rec.hash,
            ChunkMeta {
                raw_len: rec.raw_len,
                stored_len: frame.len() as u64 + 8,
                compressed: rec.encoding == Encoding::Rle,
            },
        );
        valid_len = (bytes.len() - r.remaining()) as u64;
    }
    Ok(ScanResult {
        index,
        payloads,
        valid_len,
        torn: false,
    })
}

impl ChunkStore {
    /// Open (or create) the store at `path`, rebuilding the hash index
    /// by scanning any existing records. Reading the existing file
    /// charges `pid`'s clock like any other read. Every record's chunk
    /// is hashed against its address, so a sealed record that lies
    /// about it is refused here, before a [`put`](Self::put) can dedup
    /// against it.
    /// A store whose file ends in a *torn* final frame (crash
    /// mid-append) is recovered, not refused: the file is truncated
    /// back to the last intact frame — every committed reference points
    /// before it — and a `store_truncated` obs event records the
    /// dropped bytes.
    pub fn open(cluster: &mut Cluster, pid: Pid, path: &str) -> Result<ChunkStore, CprError> {
        let index = match cluster.read_file(pid, path) {
            Ok(bytes) => {
                let scanned = scan(bytes.body(), false).map_err(CprError::Corrupt)?;
                if scanned.torn {
                    let intact = bytes.body()[..scanned.valid_len as usize].to_vec();
                    let dropped = bytes.len() - scanned.valid_len;
                    cluster
                        .write_file(pid, path, intact)
                        .map_err(CprError::Fs)?;
                    obs::emit(
                        "chunkstore",
                        cluster.process(pid).clock,
                        obs::EventKind::StoreTruncated {
                            path: path.to_string(),
                            dropped,
                        },
                    );
                }
                scanned.index
            }
            Err(_) => BTreeMap::new(), // no store yet
        };
        Ok(ChunkStore {
            pid,
            path: path.to_string(),
            index,
        })
    }

    /// The store's on-cluster path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Whether a chunk with this content hash is already stored.
    pub fn contains(&self, hash: u64) -> bool {
        self.index.contains_key(&hash)
    }

    /// Metadata of a stored chunk.
    pub fn meta(&self, hash: u64) -> Option<ChunkMeta> {
        self.index.get(&hash).copied()
    }

    /// Number of distinct chunks stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no chunk has ever been stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Offer one raw chunk. A known hash dedups to zero I/O; a novel
    /// one is compressed and appended. The caller models the
    /// compression CPU cost separately (it depends on scheduling, not
    /// on the store). A chunk longer than [`CDC_MAX_CHUNK`] is refused
    /// with [`CprError::ChunkTooLong`], so no record outgrows
    /// [`MAX_RECORD_FRAME`].
    pub fn put(
        &mut self,
        cluster: &mut Cluster,
        data: &[u8],
    ) -> Result<(u64, PutOutcome), CprError> {
        if data.len() > CDC_MAX_CHUNK {
            return Err(CprError::ChunkTooLong(data.len() as u64));
        }
        let hash = xxh64(data);
        if let Some(meta) = self.index.get(&hash) {
            return Ok((hash, PutOutcome::Deduped(*meta)));
        }
        let (encoding, payload) = compress(data);
        let rec = StoreRecord {
            hash,
            raw_len: data.len() as u64,
            encoding,
            payload,
        };
        let framed = encode_prefixed_frame(STORE_MAGIC, STORE_VERSION, &rec);
        let meta = ChunkMeta {
            raw_len: rec.raw_len,
            stored_len: framed.len() as u64,
            compressed: encoding == Encoding::Rle,
        };
        let cost = cluster
            .append_file(self.pid, &self.path, &framed, 0)
            .map_err(CprError::Fs)?;
        self.index.insert(hash, meta);
        Ok((hash, PutOutcome::Stored(meta, cost)))
    }

    /// Read the whole store back, decompressing every chunk: the
    /// restore-side view. Charges `pid`'s clock for the file read. A
    /// torn final frame (crash mid-append) is tolerated read-only:
    /// every chunk a committed generation can reference lies before the
    /// tear, and restore must not need write access to the store mount.
    pub fn load_all(
        cluster: &mut Cluster,
        pid: Pid,
        path: &str,
    ) -> Result<BTreeMap<u64, Vec<u8>>, CprError> {
        let bytes = cluster.read_file(pid, path).map_err(CprError::Fs)?;
        Ok(scan(bytes.body(), true)
            .map_err(CprError::Corrupt)?
            .payloads)
    }

    /// Total on-disk bytes of the records referenced by `segments`
    /// (for migration-size accounting: the bytes that must cross the
    /// wire alongside the stream file).
    pub fn referenced_bytes(&self, segments: &[(u64, u64)]) -> u64 {
        let mut seen = std::collections::BTreeSet::new();
        segments
            .iter()
            .filter(|(h, _)| seen.insert(*h))
            .filter_map(|(h, _)| self.index.get(h).map(|m| m.stored_len))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::qcheck::qcheck;

    #[test]
    fn cdc_covers_input_exactly_and_is_deterministic() {
        qcheck("cdc_covers_input", 32, |g| {
            let len = g.usize_in(0, 300_000);
            let data = g.bytes(len);
            let cuts = cdc_chunks(&data);
            let again = cdc_chunks(&data);
            assert_eq!(cuts, again);
            let mut expect = 0u64;
            for (off, len) in &cuts {
                assert_eq!(*off, expect);
                expect += len;
                assert!(*len as usize <= CDC_MAX_CHUNK);
            }
            assert_eq!(expect, data.len() as u64);
        });
    }

    #[test]
    fn cdc_boundaries_resist_prefix_shift() {
        // Content-defined: appending a prefix leaves most later cut
        // points (as absolute content, not offsets) unchanged.
        let mut g = simcore::qcheck::Gen::new(42);
        let data = g.bytes(256 << 10);
        let mut shifted = vec![0xAB; 7];
        shifted.extend_from_slice(&data);
        let a: std::collections::BTreeSet<u64> = cdc_chunks(&data)
            .iter()
            .map(|(off, len)| xxh64(&data[*off as usize..(*off + *len) as usize]))
            .collect();
        let b: std::collections::BTreeSet<u64> = cdc_chunks(&shifted)
            .iter()
            .map(|(off, len)| xxh64(&shifted[*off as usize..(*off + *len) as usize]))
            .collect();
        let common = a.intersection(&b).count();
        assert!(
            common * 2 > a.len(),
            "only {common} of {} chunks survived a 7-byte prefix shift",
            a.len()
        );
    }

    #[test]
    fn compress_roundtrips_and_never_expands() {
        qcheck("compress_roundtrip", 64, |g| {
            let data = match g.usize_in(0, 3) {
                0 => {
                    let (b, n) = (g.byte(), g.usize_in(0, 4096));
                    vec![b; n] // runs
                }
                1 => {
                    let n = g.usize_in(0, 4096);
                    g.bytes(n) // noise
                }
                _ => {
                    let mut v = vec![0u8; g.usize_in(0, 2048)];
                    let n = g.usize_in(0, 2048);
                    v.extend(g.bytes(n));
                    v
                }
            };
            let (enc, payload) = compress(&data);
            assert!(payload.len() <= data.len().max(1));
            assert_eq!(decompress(enc, &payload, data.len() as u64).unwrap(), data);
            // A lying raw length is refused, and reserves no more than
            // the payload can fill.
            for lie in [data.len() as u64 + 1, u64::MAX] {
                assert!(decompress(enc, &payload, lie).is_err());
            }
        });
    }

    fn setup() -> (Cluster, Pid) {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        (c, p)
    }

    #[test]
    fn put_dedups_and_survives_reopen() {
        let (mut c, p) = setup();
        let mut s = ChunkStore::open(&mut c, p, "/local/a.cas").unwrap();
        let (h1, o1) = s.put(&mut c, &[7u8; 10_000]).unwrap();
        assert!(matches!(o1, PutOutcome::Stored(m, _) if m.compressed));
        let (h2, o2) = s.put(&mut c, &[7u8; 10_000]).unwrap();
        assert_eq!(h1, h2);
        assert!(matches!(o2, PutOutcome::Deduped(_)));
        // Reopen: the index rebuilds from the file alone.
        let s2 = ChunkStore::open(&mut c, p, "/local/a.cas").unwrap();
        assert!(s2.contains(h1));
        assert_eq!(s2.len(), 1);
        // And the payload restores bit-exact.
        let all = ChunkStore::load_all(&mut c, p, "/local/a.cas").unwrap();
        assert_eq!(all[&h1], vec![7u8; 10_000]);
    }

    #[test]
    fn open_recovers_a_torn_final_frame() {
        let (mut c, p) = setup();
        let mut s = ChunkStore::open(&mut c, p, "/local/t.cas").unwrap();
        let (h1, _) = s.put(&mut c, &[3u8; 9_000]).unwrap();
        let (h2, _) = s.put(&mut c, &[4u8; 9_000]).unwrap();
        let intact = c.read_file(p, "/local/t.cas").unwrap();
        // A crash mid-append: half of a third record's frame lands.
        let rec = StoreRecord {
            hash: 0xBEEF,
            raw_len: 64,
            encoding: Encoding::Raw,
            payload: vec![5u8; 64],
        };
        let framed = encode_prefixed_frame(STORE_MAGIC, STORE_VERSION, &rec);
        c.append_file(p, "/local/t.cas", &framed[..framed.len() / 2], 0)
            .unwrap();
        // Reopen: the intact records survive, the tear is truncated
        // away, and the file is byte-identical to the pre-crash state.
        let s2 = ChunkStore::open(&mut c, p, "/local/t.cas").unwrap();
        assert_eq!(s2.len(), 2);
        assert!(s2.contains(h1) && s2.contains(h2));
        assert_eq!(c.read_file(p, "/local/t.cas").unwrap(), intact);
        // Appends continue cleanly on the truncated file.
        let mut s2 = s2;
        let (h3, _) = s2.put(&mut c, &[6u8; 9_000]).unwrap();
        let all = ChunkStore::load_all(&mut c, p, "/local/t.cas").unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[&h3], vec![6u8; 9_000]);
    }

    #[test]
    fn torn_length_prefix_and_read_only_restore_are_tolerated() {
        let (mut c, p) = setup();
        let mut s = ChunkStore::open(&mut c, p, "/local/u.cas").unwrap();
        let (h, _) = s.put(&mut c, &[8u8; 5_000]).unwrap();
        // The tear cuts inside the 8-byte length prefix itself.
        c.append_file(p, "/local/u.cas", &[0x10, 0x00, 0x00], 0)
            .unwrap();
        // load_all is read-only tolerant: the intact chunk restores.
        let all = ChunkStore::load_all(&mut c, p, "/local/u.cas").unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[&h], vec![8u8; 5_000]);
        // Mid-file rot is still fatal, not silently truncated.
        let bytes = c.read_file(p, "/local/u.cas").unwrap().to_vec();
        let mut rotted = bytes.clone();
        rotted[12] ^= 0xFF;
        rotted.extend_from_slice(&bytes); // intact frame *after* the rot
        c.write_file(p, "/local/rot.cas", rotted).unwrap();
        assert!(ChunkStore::open(&mut c, p, "/local/rot.cas").is_err());
    }

    /// One flipped high bit in the first record's length prefix is
    /// bit-rot, not a torn append: both scans refuse it, and the store
    /// is not truncated.
    #[test]
    fn an_overlong_first_prefix_is_corrupt_not_torn() {
        let (mut c, p) = setup();
        let mut s = ChunkStore::open(&mut c, p, "/local/p.cas").unwrap();
        s.put(&mut c, &[1u8; 1000]).unwrap();
        s.put(&mut c, &[2u8; 1000]).unwrap();
        let mut bytes = c.read_file(p, "/local/p.cas").unwrap().to_vec();
        bytes[5] ^= 1; // bit 40 of the first prefix
        c.write_file(p, "/local/p.cas", bytes.clone()).unwrap();
        let refused = CodecError::Invalid("chunk store record length");
        assert!(matches!(
            ChunkStore::load_all(&mut c, p, "/local/p.cas"),
            Err(CprError::Corrupt(e)) if e == refused
        ));
        assert!(matches!(
            ChunkStore::open(&mut c, p, "/local/p.cas"),
            Err(CprError::Corrupt(e)) if e == refused
        ));
        assert_eq!(c.read_file(p, "/local/p.cas").unwrap().body(), &bytes[..]);
    }

    #[test]
    fn the_longest_record_fits_the_bound_and_longer_chunks_are_refused() {
        let (mut c, p) = setup();
        let mut s = ChunkStore::open(&mut c, p, "/local/m.cas").unwrap();
        let noise = simcore::qcheck::Gen::new(7).bytes(CDC_MAX_CHUNK + 1);
        let (_, out) = s.put(&mut c, &noise[..CDC_MAX_CHUNK]).unwrap();
        let PutOutcome::Stored(meta, _) = out else {
            panic!("novel chunk must store")
        };
        assert!(!meta.compressed);
        assert_eq!(meta.stored_len, MAX_RECORD_FRAME + 8);
        assert!(matches!(
            s.put(&mut c, &noise),
            Err(CprError::ChunkTooLong(len)) if len == CDC_MAX_CHUNK as u64 + 1
        ));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn referenced_bytes_counts_each_chunk_once() {
        let (mut c, p) = setup();
        let mut s = ChunkStore::open(&mut c, p, "/local/b.cas").unwrap();
        let (h, out) = s.put(&mut c, &[1u8; 5000]).unwrap();
        let PutOutcome::Stored(meta, _) = out else {
            panic!("novel chunk must store")
        };
        assert_eq!(s.referenced_bytes(&[(h, 5000), (h, 5000)]), meta.stored_len);
        assert_eq!(s.referenced_bytes(&[(0xdead, 8)]), 0);
    }
}
