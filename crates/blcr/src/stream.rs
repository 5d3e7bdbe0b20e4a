//! Chunked (streamed) checkpoint files for the pipelined data path.
//!
//! The classic [`crate::checkpoint`] serialises the whole process image
//! in memory and writes it in one shot, so the dump cannot begin until
//! every device buffer has reached the host. A [`StreamWriter`] instead
//! appends independently framed, checksummed pieces through
//! `osproc::fs` as they become available:
//!
//! ```text
//! | len | header frame | len | chunk 0 | len | chunk 1 | … | len | trailer + padding |
//! ```
//!
//! * the **header** carries the process image with buffer payloads
//!   stripped — it can be written while the first device→host copy is
//!   still in flight;
//! * each **chunk** carries one buffer's bytes, tagged with the CheCL
//!   handle it belongs to, appended in completion order (the writer is
//!   double-buffered: the chunk being written and the copy in flight
//!   own separate host buffers);
//! * the **trailer** seals the stream with the chunk count and an
//!   FNV-1a over the seals of every frame before it, followed by the
//!   usual process-baseline zero padding, appended as a length (the
//!   file's run of zeros, see [`osproc::FileBytes`]).
//!
//! Every frame reuses the framed+checksummed codec of the sequential
//! format (distinct magic), so torn or corrupted streams are detected
//! at parse time. Each frame's bytes are sealed once, by its own
//! [`simcore::xxh64`]; the trailer chains those 8-byte seals through
//! FNV-1a, so a frame edited and resealed alone still breaks the
//! stream. This is format v4 ([`STREAM_VERSION`]). A v3 stream (sealed
//! with four-lane FNV-1a), a v2 stream (whose trailer re-hashed the
//! chunk payloads) and a v1 stream (sealed with one-lane FNV-1a) are
//! refused with [`CodecError::BadVersion`]; no older reader is kept.
//! The commit protocol is unchanged from the robust sequential path:
//! everything is appended to `<target>.tmp` and a single atomic rename
//! publishes the checkpoint — a fault during any streamed chunk leaves
//! the previous generation at `target` intact.

use crate::cpr::CprError;
use osproc::{Cluster, FsError, MemImage, Pid};
use simcore::codec::{decode_framed, encode_prefixed_frame, CodecError, Reader};
use simcore::{calib, impl_codec_enum, impl_codec_struct, ByteSize, Fnv64, Payload, SimDuration};

/// Magic bytes of a streamed-checkpoint frame (the sequential format
/// uses `BLCR`; the first frame's magic is what tells the two apart).
pub const STREAM_MAGIC: [u8; 4] = *b"BLCS";
/// Streamed format version.
pub const STREAM_VERSION: u32 = 4;

/// First frame of a stream: everything the sequential
/// [`crate::CheckpointFile`] holds, minus the buffer payloads that
/// follow as chunks.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamHeader {
    /// Pid the dump was taken from (diagnostic only).
    pub source_pid: u32,
    /// Hostname of the source node (diagnostic only).
    pub source_host: String,
    /// The dumped host memory, with streamed buffer data stripped.
    pub image: MemImage,
}

impl_codec_struct!(StreamHeader {
    source_pid,
    source_host,
    image
});

/// One buffer's bytes, streamed as soon as its device→host copy lands.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamChunk {
    /// Position in the stream (0-based, write order).
    pub seq: u32,
    /// Opaque owner tag — CheCL stores the buffer's CheCL handle here
    /// so restore knows which object the bytes belong to.
    pub handle: u64,
    /// The buffer contents.
    pub data: Payload,
}

impl_codec_struct!(StreamChunk { seq, handle, data });

/// A dedup'd buffer: instead of inline bytes, a list of
/// content-addressed references into a chunk store file. The payload is
/// reassembled at restore by concatenating the referenced chunks.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamChunkMap {
    /// Position in the stream (0-based, shared numbering with inline
    /// chunks — write order across both frame kinds).
    pub seq: u32,
    /// Opaque owner tag, same meaning as [`StreamChunk::handle`].
    pub handle: u64,
    /// Path of the content-addressed chunk store holding the bytes.
    pub store: String,
    /// Total reassembled payload length.
    pub total_len: u64,
    /// `(XXH64 content address, raw chunk length)` references, in
    /// concatenation order.
    pub segments: Vec<(u64, u64)>,
}

impl_codec_struct!(StreamChunkMap {
    seq,
    handle,
    store,
    total_len,
    segments
});

/// A byte range of one buffer, streamed out of order by the live-dump
/// background drain. Unlike [`StreamChunk`] (always a whole buffer), a
/// slice covers `[offset, offset + data.len())` of its owner; restore
/// assembles a buffer from every slice carrying its handle. COW-forked
/// ranges and background device reads of the same buffer land as
/// separate slices in whatever order the drain completes them.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSlice {
    /// Position in the stream (0-based, shared numbering with chunks
    /// and chunk maps — write order across all payload frame kinds).
    pub seq: u32,
    /// Opaque owner tag, same meaning as [`StreamChunk::handle`].
    pub handle: u64,
    /// Byte offset of this slice within the owning buffer.
    pub offset: u64,
    /// The slice contents.
    pub data: Payload,
}

impl_codec_struct!(StreamSlice {
    seq,
    handle,
    offset,
    data
});

/// Final frame sealing the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamTrailer {
    /// Number of chunk frames that must precede this trailer.
    pub chunks: u32,
    /// Total inline chunk and slice payload bytes (a chunk map's bytes
    /// are in its store).
    pub data_bytes: u64,
    /// FNV-1a over the seal of every frame before this one, header
    /// included, in stream order: each seal as a little-endian `u64`.
    pub data_checksum: u64,
}

impl_codec_struct!(StreamTrailer {
    chunks,
    data_bytes,
    data_checksum
});

/// The frame kinds, as stored on disk.
#[derive(Clone, Debug, PartialEq)]
enum StreamFrame {
    Header(StreamHeader),
    Chunk(StreamChunk),
    Trailer(StreamTrailer),
    ChunkMap(StreamChunkMap),
    Slice(StreamSlice),
}

impl_codec_enum!(StreamFrame, "stream frame tag", {
    0 => Header(header),
    1 => Chunk(chunk),
    2 => Trailer(trailer),
    3 => ChunkMap(map),
    4 => Slice(slice),
});

impl StreamFrame {
    /// The `seq` of a payload frame (chunk, chunk map or slice).
    fn payload_seq(&self) -> Option<u32> {
        match self {
            StreamFrame::Chunk(c) => Some(c.seq),
            StreamFrame::ChunkMap(m) => Some(m.seq),
            StreamFrame::Slice(s) => Some(s.seq),
            StreamFrame::Header(_) | StreamFrame::Trailer(_) => None,
        }
    }
}

/// The seal of a frame that [`decode_framed`] accepted or
/// [`encode_prefixed_frame`] wrote: its last 8 bytes.
fn seal_of(frame: &[u8]) -> u64 {
    frame
        .last_chunk()
        .map_or(0, |&seal| u64::from_le_bytes(seal))
}

/// `true` if `bytes` look like a streamed checkpoint (as opposed to the
/// sequential [`crate::CheckpointFile`] format).
pub fn is_stream_file(bytes: &[u8]) -> bool {
    bytes.len() >= 12 && bytes[8..12] == STREAM_MAGIC
}

/// A fully parsed streamed checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedStream {
    /// The header frame.
    pub header: StreamHeader,
    /// Inline chunk frames, in stream (`seq`) order.
    pub chunks: Vec<StreamChunk>,
    /// Dedup'd chunk-map frames, in stream (`seq`) order. Empty for a
    /// non-dedup stream.
    pub maps: Vec<StreamChunkMap>,
    /// Out-of-order slice frames from a live drain, in stream (`seq`)
    /// order. Empty for a stop-the-world stream.
    pub slices: Vec<StreamSlice>,
    /// The sealing trailer.
    pub trailer: StreamTrailer,
    /// On-disk size of the header frame (with its length prefix).
    pub header_bytes: u64,
    /// On-disk size of each inline chunk frame, parallel to `chunks`.
    pub chunk_bytes: Vec<u64>,
    /// On-disk size of each chunk-map frame, parallel to `maps`.
    pub map_bytes: Vec<u64>,
    /// On-disk size of each slice frame, parallel to `slices`.
    pub slice_bytes: Vec<u64>,
    /// On-disk size of the trailer frame plus every byte after it.
    /// [`parse_stream`] sees only a file's body, so it counts the body
    /// bytes; [`crate::sniff_dump`] adds the file's run of zeros (the
    /// baseline padding, [`osproc::FileBytes::zero_tail`]).
    pub tail_bytes: u64,
}

/// Parse and fully validate the bytes of a streamed checkpoint file:
/// every frame's magic/version/checksum, the header-first /
/// trailer-last shape, contiguous `seq` numbering, and the trailer's
/// count, inline byte total and chain of frame seals. A stream missing
/// its trailer (torn mid-write) is rejected.
pub fn parse_stream(bytes: &[u8]) -> Result<ParsedStream, CodecError> {
    let mut r = Reader::new(bytes);
    let mut header: Option<(StreamHeader, u64)> = None;
    let mut chunks: Vec<StreamChunk> = Vec::new();
    let mut chunk_bytes: Vec<u64> = Vec::new();
    let mut maps: Vec<StreamChunkMap> = Vec::new();
    let mut map_bytes: Vec<u64> = Vec::new();
    let mut slices: Vec<StreamSlice> = Vec::new();
    let mut slice_bytes: Vec<u64> = Vec::new();
    let mut seals = Fnv64::new();
    let mut data_bytes: u64 = 0;
    loop {
        if r.is_empty() {
            // Ran off the end without seeing a trailer: torn stream.
            return Err(CodecError::Invalid("stream has no trailer"));
        }
        let frame = r.take_frame()?;
        let (on_disk, seal) = (frame.len() as u64 + 8, seal_of(frame));
        let frame = decode_framed::<StreamFrame>(STREAM_MAGIC, STREAM_VERSION, frame)?;
        if let Some(seq) = frame.payload_seq() {
            if header.is_none() {
                return Err(CodecError::Invalid("stream chunk before header"));
            }
            if seq as usize != chunks.len() + maps.len() + slices.len() {
                return Err(CodecError::Invalid("stream chunk out of order"));
            }
        }
        match frame {
            StreamFrame::Header(h) => {
                if header.is_some() {
                    return Err(CodecError::Invalid("duplicate stream header"));
                }
                if !chunks.is_empty() {
                    return Err(CodecError::Invalid("stream header after chunks"));
                }
                header = Some((h, on_disk));
            }
            StreamFrame::Chunk(c) => {
                data_bytes += c.data.len() as u64;
                chunk_bytes.push(on_disk);
                chunks.push(c);
            }
            StreamFrame::ChunkMap(m) => {
                map_bytes.push(on_disk);
                maps.push(m);
            }
            StreamFrame::Slice(s) => {
                data_bytes += s.data.len() as u64;
                slice_bytes.push(on_disk);
                slices.push(s);
            }
            StreamFrame::Trailer(t) => {
                let Some((header, header_bytes)) = header else {
                    return Err(CodecError::Invalid("stream trailer before header"));
                };
                if t.chunks as usize != chunks.len() + maps.len() + slices.len()
                    || t.data_bytes != data_bytes
                    || t.data_checksum != seals.finish()
                {
                    return Err(CodecError::ChecksumMismatch);
                }
                // Everything after the trailer is baseline padding.
                let tail_bytes = on_disk + r.remaining() as u64;
                return Ok(ParsedStream {
                    header,
                    chunks,
                    maps,
                    slices,
                    trailer: t,
                    header_bytes,
                    chunk_bytes,
                    map_bytes,
                    slice_bytes,
                    tail_bytes,
                });
            }
        }
        seals.update_u64(seal);
    }
}

/// Misuse of the [`StreamWriter`] lifecycle. Typed (instead of a
/// panic) so the engine's error path can roll back cleanly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// An append or a second `finish` after the stream was sealed and
    /// published.
    UseAfterFinish {
        /// The already-published target path.
        target: String,
    },
    /// An append or `finish` after `abort` discarded the stream.
    UseAfterAbort {
        /// The abandoned target path.
        target: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UseAfterFinish { target } => {
                write!(f, "stream writer for {target} already finished")
            }
            StreamError::UseAfterAbort { target } => {
                write!(f, "stream writer for {target} already aborted")
            }
        }
    }
}

impl std::error::Error for StreamError {}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WriterState {
    Open,
    Finished,
    Aborted,
}

/// Double-buffered streamed checkpoint writer.
///
/// Appends verified (framed + checksummed) chunks to `<target>.tmp` as
/// they arrive and atomically renames to `target` on
/// [`finish`](StreamWriter::finish). Any error leaves the previous
/// generation at `target` untouched; call [`abort`](StreamWriter::abort)
/// to clean up the temporary file. A writer dropped while still open
/// leaves its tmp behind, and the next [`begin`](StreamWriter::begin)
/// for the same target deletes it.
#[derive(Debug)]
pub struct StreamWriter {
    pid: Pid,
    target: String,
    tmp: String,
    /// Logical bytes appended so far, cross-checked against the file
    /// size after every append to catch short writes immediately.
    written: u64,
    chunks: u32,
    data_bytes: u64,
    /// The trailer's chain of the seals of every frame appended so far.
    seals: Fnv64,
    state: WriterState,
}

impl StreamWriter {
    /// Validate `pid` exactly like [`crate::checkpoint`] (alive, no
    /// device mappings) and open the stream: the header frame — the
    /// process image as it stands, buffer payloads excluded by the
    /// caller — is appended to `<target>.tmp` immediately, before any
    /// chunk data exists.
    pub fn begin(cluster: &mut Cluster, pid: Pid, target: &str) -> Result<StreamWriter, CprError> {
        let (image, host) = {
            let p = cluster.process(pid);
            if !p.is_alive() {
                return Err(CprError::ProcessDead(pid));
            }
            if p.has_device_mappings() {
                return Err(CprError::DeviceMapped {
                    pid,
                    mappings: p.device_mappings.clone(),
                });
            }
            (p.image.clone(), cluster.node(p.node).name.clone())
        };
        let tmp = format!("{target}.tmp");
        // A stale tmp from an earlier failed attempt must not be
        // appended to.
        let _ = cluster.delete_file(pid, &tmp);
        let mut w = StreamWriter {
            pid,
            target: target.to_string(),
            tmp,
            written: 0,
            chunks: 0,
            data_bytes: 0,
            seals: Fnv64::new(),
            state: WriterState::Open,
        };
        let header = StreamFrame::Header(StreamHeader {
            source_pid: pid.0,
            source_host: host,
            image,
        });
        w.append_frame(cluster, &header, 0)?;
        Ok(w)
    }

    /// Append `frame` and then `zero_tail` zeros to the tmp file, and
    /// chain the frame's seal into the trailer's checksum.
    fn append_frame(
        &mut self,
        cluster: &mut Cluster,
        frame: &StreamFrame,
        zero_tail: u64,
    ) -> Result<SimDuration, CprError> {
        let bytes = encode_prefixed_frame(STREAM_MAGIC, STREAM_VERSION, frame);
        self.seals.update_u64(seal_of(&bytes));
        let cost = cluster
            .append_file(self.pid, &self.tmp, &bytes, zero_tail)
            .map_err(CprError::Fs)?;
        self.written += bytes.len() as u64 + zero_tail;
        // Verified append: the cheap size probe catches injected short
        // writes at once; bit corruption is caught by the per-frame
        // checksum at parse time (same guarantee as the sequential
        // format).
        let node = cluster.process(self.pid).node;
        let on_disk = cluster
            .file_size_on(node, &self.tmp)
            .map(|s| s.as_u64())
            .unwrap_or(0);
        if on_disk != self.written {
            return Err(CprError::Fs(FsError::WriteFailed(self.tmp.clone())));
        }
        Ok(cost)
    }

    /// Typed guard: the writer must still be open.
    fn ensure_open(&self) -> Result<(), CprError> {
        match self.state {
            WriterState::Open => Ok(()),
            WriterState::Finished => Err(CprError::Stream(StreamError::UseAfterFinish {
                target: self.target.clone(),
            })),
            WriterState::Aborted => Err(CprError::Stream(StreamError::UseAfterAbort {
                target: self.target.clone(),
            })),
        }
    }

    /// Stream one completed buffer. Returns the append's I/O cost.
    pub fn append_chunk(
        &mut self,
        cluster: &mut Cluster,
        handle: u64,
        data: impl Into<Payload>,
    ) -> Result<SimDuration, CprError> {
        self.ensure_open()?;
        let data = data.into();
        self.data_bytes += data.len() as u64;
        let chunk = StreamFrame::Chunk(StreamChunk {
            seq: self.chunks,
            handle,
            data,
        });
        self.chunks += 1;
        self.append_frame(cluster, &chunk, 0)
    }

    /// Stream one dedup'd buffer as content-addressed references into
    /// `store` instead of inline bytes. Returns the append's I/O cost
    /// (tiny: only the refs hit the stream file).
    pub fn append_chunk_map(
        &mut self,
        cluster: &mut Cluster,
        handle: u64,
        store: &str,
        total_len: u64,
        segments: Vec<(u64, u64)>,
    ) -> Result<SimDuration, CprError> {
        self.ensure_open()?;
        let map = StreamChunkMap {
            seq: self.chunks,
            handle,
            store: store.to_string(),
            total_len,
            segments,
        };
        self.chunks += 1;
        self.append_frame(cluster, &StreamFrame::ChunkMap(map), 0)
    }

    /// Stream one byte range of a buffer out of order (live drain:
    /// COW-forked ranges and background reads land as they complete,
    /// not in buffer order). Returns the append's I/O cost.
    pub fn append_slice(
        &mut self,
        cluster: &mut Cluster,
        handle: u64,
        offset: u64,
        data: impl Into<Payload>,
    ) -> Result<SimDuration, CprError> {
        self.ensure_open()?;
        let data = data.into();
        self.data_bytes += data.len() as u64;
        let slice = StreamFrame::Slice(StreamSlice {
            seq: self.chunks,
            handle,
            offset,
            data,
        });
        self.chunks += 1;
        self.append_frame(cluster, &slice, 0)
    }

    /// Seal the stream (trailer + baseline padding) and atomically
    /// publish it at `target`. Returns `(file size, I/O cost of the
    /// tail append)` — the rename itself charges the process clock.
    pub fn finish(&mut self, cluster: &mut Cluster) -> Result<(ByteSize, SimDuration), CprError> {
        self.ensure_open()?;
        let trailer = StreamFrame::Trailer(StreamTrailer {
            chunks: self.chunks,
            data_bytes: self.data_bytes,
            data_checksum: self.seals.finish(),
        });
        let cost = self.append_frame(cluster, &trailer, calib::base_process_image().as_u64())?;
        cluster
            .rename_file(self.pid, &self.tmp, &self.target)
            .map_err(CprError::Fs)?;
        self.state = WriterState::Finished;
        Ok((ByteSize::bytes(self.written), cost))
    }

    /// Discard the temporary file after a mid-stream failure. The
    /// previous generation at `target` is untouched. Idempotent, and a
    /// no-op after a successful `finish` (the tmp no longer exists).
    pub fn abort(&mut self, cluster: &mut Cluster) {
        if self.state == WriterState::Open {
            let _ = cluster.delete_file(self.pid, &self.tmp);
            self.state = WriterState::Aborted;
        }
    }

    /// Bytes appended so far.
    pub fn written(&self) -> ByteSize {
        ByteSize::bytes(self.written)
    }

    /// The temporary path the stream is accumulating in.
    pub fn tmp_path(&self) -> &str {
        &self.tmp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osproc::FaultPlan;

    fn setup() -> (Cluster, Pid) {
        let mut c = Cluster::with_standard_nodes(1);
        let n = c.node_ids()[0];
        let p = c.spawn(n);
        c.process_mut(p).image.put("state", vec![9; 64]);
        (c, p)
    }

    #[test]
    fn stream_roundtrips_and_is_detectable() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![1, 2, 3]).unwrap();
        w.append_chunk(&mut c, 0x61, vec![4; 1000]).unwrap();
        let (size, _) = w.finish(&mut c).unwrap();
        let bytes = c.read_file(p, "/local/s.ckpt").unwrap();
        assert_eq!(bytes.len(), size.as_u64());
        assert!(is_stream_file(bytes.body()));
        let parsed = parse_stream(bytes.body()).unwrap();
        assert_eq!(parsed.header.image.get("state"), Some(&[9u8; 64][..]));
        assert_eq!(parsed.chunks.len(), 2);
        assert_eq!(parsed.chunks[0].handle, 0x60);
        assert_eq!(parsed.chunks[1].data[..], vec![4; 1000]);
        assert_eq!(parsed.trailer.chunks, 2);
        // The sequential format is NOT a stream.
        crate::checkpoint(&mut c, p, "/local/seq.ckpt").unwrap();
        let seq = c.read_file(p, "/local/seq.ckpt").unwrap();
        assert!(!is_stream_file(seq.body()));
        assert!(parse_stream(seq.body()).is_err());
    }

    #[test]
    fn file_size_includes_baseline_padding() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        let (size, _) = w.finish(&mut c).unwrap();
        assert!(size >= calib::base_process_image());
    }

    #[test]
    fn torn_stream_without_trailer_rejected() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![7; 32]).unwrap();
        // Never finished: inspect the tmp directly.
        let bytes = c.read_file(p, "/local/s.ckpt.tmp").unwrap();
        assert!(matches!(
            parse_stream(bytes.body()),
            Err(CodecError::Invalid("stream has no trailer"))
        ));
        w.abort(&mut c);
        assert!(c.read_file(p, "/local/s.ckpt.tmp").is_err());
    }

    #[test]
    fn corrupted_chunk_detected_at_parse() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![1; 256]).unwrap();
        let (_, _) = w.finish(&mut c).unwrap();
        let mut bytes = c.read_file(p, "/local/s.ckpt").unwrap().body().to_vec();
        // Flip a byte inside the chunk frame (right after the header).
        let pos = parse_stream(&bytes).unwrap().header_bytes as usize + 50;
        bytes[pos] ^= 0xff;
        assert!(parse_stream(&bytes).is_err());
    }

    #[test]
    fn short_write_fault_detected_immediately() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        c.install_faults(FaultPlan::new(11).short_next_writes(1));
        assert!(matches!(
            w.append_chunk(&mut c, 0x60, vec![5; 4096]),
            Err(CprError::Fs(FsError::WriteFailed(_)))
        ));
        w.abort(&mut c);
    }

    #[test]
    fn failed_append_leaves_previous_generation_intact() {
        let (mut c, p) = setup();
        // Generation 1 commits clean.
        let mut w = StreamWriter::begin(&mut c, p, "/local/g.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![1; 128]).unwrap();
        w.finish(&mut c).unwrap();
        // Generation 2 faults mid-stream.
        let mut w = StreamWriter::begin(&mut c, p, "/local/g.ckpt").unwrap();
        c.install_faults(FaultPlan::new(3).fail_next_writes(1));
        assert!(w.append_chunk(&mut c, 0x60, vec![2; 128]).is_err());
        w.abort(&mut c);
        // The committed generation still parses and holds gen-1 data.
        let bytes = c.read_file(p, "/local/g.ckpt").unwrap();
        let parsed = parse_stream(bytes.body()).unwrap();
        assert_eq!(parsed.chunks[0].data[..], vec![1; 128]);
    }

    #[test]
    fn stale_tmp_is_discarded_on_begin() {
        let (mut c, p) = setup();
        c.write_file(p, "/local/s.ckpt.tmp", vec![0xde; 100])
            .unwrap();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![3; 16]).unwrap();
        let (_, _) = w.finish(&mut c).unwrap();
        let bytes = c.read_file(p, "/local/s.ckpt").unwrap();
        parse_stream(bytes.body()).unwrap(); // stale junk did not leak in
    }

    #[test]
    fn append_after_finish_is_a_typed_error_not_a_panic() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![1; 8]).unwrap();
        w.finish(&mut c).unwrap();
        assert!(matches!(
            w.append_chunk(&mut c, 0x61, vec![2; 8]),
            Err(CprError::Stream(StreamError::UseAfterFinish { .. }))
        ));
        assert!(matches!(
            w.finish(&mut c),
            Err(CprError::Stream(StreamError::UseAfterFinish { .. }))
        ));
        // The published file is untouched by the misuse.
        let bytes = c.read_file(p, "/local/s.ckpt").unwrap();
        assert_eq!(parse_stream(bytes.body()).unwrap().chunks.len(), 1);
    }

    #[test]
    fn append_after_abort_is_a_typed_error() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/s.ckpt").unwrap();
        w.abort(&mut c);
        assert!(matches!(
            w.append_chunk(&mut c, 0x60, vec![1; 8]),
            Err(CprError::Stream(StreamError::UseAfterAbort { .. }))
        ));
    }

    #[test]
    fn finish_and_abort_leave_no_tmp() {
        let (mut c, p) = setup();
        let node = c.node_ids()[0];
        let tmps = |c: &Cluster| -> Vec<String> {
            c.paths_on(node)
                .into_iter()
                .filter(|path| path.ends_with(".tmp"))
                .collect()
        };
        let mut w = StreamWriter::begin(&mut c, p, "/local/ok.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![5; 64]).unwrap();
        assert_eq!(tmps(&c), ["/local/ok.ckpt.tmp"]);
        w.finish(&mut c).unwrap();
        assert!(tmps(&c).is_empty());
        let mut w = StreamWriter::begin(&mut c, p, "/local/ab.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![5; 64]).unwrap();
        w.abort(&mut c);
        assert!(tmps(&c).is_empty());
        // A writer dropped open leaves its tmp, and the next attempt at
        // the same target replaces it and cleans up after itself.
        drop(StreamWriter::begin(&mut c, p, "/local/re.ckpt").unwrap());
        assert_eq!(tmps(&c), ["/local/re.ckpt.tmp"]);
        let mut w = StreamWriter::begin(&mut c, p, "/local/re.ckpt").unwrap();
        w.finish(&mut c).unwrap();
        assert!(tmps(&c).is_empty());
    }

    #[test]
    fn chunk_map_roundtrips_and_seals_in_trailer() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/m.ckpt").unwrap();
        w.append_chunk(&mut c, 0x60, vec![1, 2, 3]).unwrap();
        w.append_chunk_map(
            &mut c,
            0x61,
            "/local/m.cas",
            9000,
            vec![(0xabc, 4000), (0xdef, 5000)],
        )
        .unwrap();
        w.append_chunk(&mut c, 0x62, vec![9; 10]).unwrap();
        w.finish(&mut c).unwrap();
        let bytes = c.read_file(p, "/local/m.ckpt").unwrap().body().to_vec();
        let parsed = parse_stream(&bytes).unwrap();
        assert_eq!(parsed.chunks.len(), 2);
        assert_eq!(parsed.maps.len(), 1);
        assert_eq!(parsed.map_bytes.len(), 1);
        let m = &parsed.maps[0];
        assert_eq!(m.seq, 1);
        assert_eq!(m.handle, 0x61);
        assert_eq!(m.store, "/local/m.cas");
        assert_eq!(m.total_len, 9000);
        assert_eq!(m.segments, vec![(0xabc, 4000), (0xdef, 5000)]);
        assert_eq!(parsed.trailer.chunks, 3);
        // Tampering with a map reference breaks its frame seal.
        let hdr = parsed.header_bytes as usize + parsed.chunk_bytes[0] as usize;
        let mut bad = bytes.clone();
        bad[hdr + 40] ^= 0xff;
        assert!(parse_stream(&bad).is_err());
    }

    #[test]
    fn slice_roundtrips_and_seals_in_trailer() {
        let (mut c, p) = setup();
        let mut w = StreamWriter::begin(&mut c, p, "/local/l.ckpt").unwrap();
        // Live drains interleave slice frames of different buffers in
        // completion order, alongside whole-buffer chunks.
        w.append_slice(&mut c, 0x70, 4096, vec![7; 512]).unwrap();
        w.append_chunk(&mut c, 0x71, vec![1, 2, 3]).unwrap();
        w.append_slice(&mut c, 0x70, 0, vec![8; 4096]).unwrap();
        w.finish(&mut c).unwrap();
        let bytes = c.read_file(p, "/local/l.ckpt").unwrap().body().to_vec();
        let parsed = parse_stream(&bytes).unwrap();
        assert_eq!(parsed.chunks.len(), 1);
        assert_eq!(parsed.slices.len(), 2);
        assert_eq!(parsed.slice_bytes.len(), 2);
        assert_eq!(parsed.slices[0].seq, 0);
        assert_eq!(parsed.slices[0].handle, 0x70);
        assert_eq!(parsed.slices[0].offset, 4096);
        assert_eq!(parsed.slices[0].data[..], vec![7; 512]);
        assert_eq!(parsed.slices[1].seq, 2);
        assert_eq!(parsed.slices[1].offset, 0);
        assert_eq!(parsed.trailer.chunks, 3);
        // Tampering with slice payload bytes breaks its frame seal.
        let mut bad = bytes.clone();
        let pos = parsed.header_bytes as usize + 40;
        bad[pos] ^= 0xff;
        assert!(parse_stream(&bad).is_err());
    }

    #[test]
    fn dead_or_mapped_process_refused() {
        let (mut c, p) = setup();
        c.process_mut(p)
            .map_device("/dev/nimbus0", ByteSize::mib(64));
        assert!(matches!(
            StreamWriter::begin(&mut c, p, "/local/s.ckpt"),
            Err(CprError::DeviceMapped { .. })
        ));
        c.process_mut(p).unmap_device("/dev/nimbus0");
        c.kill(p);
        assert!(matches!(
            StreamWriter::begin(&mut c, p, "/local/s.ckpt"),
            Err(CprError::ProcessDead(_))
        ));
    }
}
