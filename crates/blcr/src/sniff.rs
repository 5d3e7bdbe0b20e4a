//! The one place that tells the two on-disk checkpoint formats apart.
//!
//! Two writers exist — the sequential [`CheckpointFile`] dump (magic
//! `BLCR`) and the chunked stream dump (magic `BLCS`,
//! [`crate::stream`]) — and every reader used to re-implement the
//! header probe for itself. [`sniff_dump`] centralises it: probe the
//! magic, parse with the matching parser, hand back a typed
//! [`SniffedDump`].

use crate::ckptfile::CheckpointFile;
use crate::stream::{is_stream_file, parse_stream, ParsedStream};
use osproc::{FileBytes, MemImage};
use simcore::codec::CodecError;

/// A checkpoint file parsed according to its on-disk format.
#[derive(Clone, Debug, PartialEq)]
pub enum SniffedDump {
    /// A sequential [`crate::checkpoint`] dump: one framed process
    /// image (buffer payloads ride inside the dumped segments).
    Sequential(CheckpointFile),
    /// A streamed (pipelined) dump: header image + per-buffer chunk
    /// frames + sealing trailer. Boxed — [`ParsedStream`] is large.
    Streamed(Box<ParsedStream>),
}

impl SniffedDump {
    /// The dumped process image, whichever frame carried it.
    pub fn image(&self) -> &MemImage {
        match self {
            SniffedDump::Sequential(ck) => &ck.image,
            SniffedDump::Streamed(s) => &s.header.image,
        }
    }

    /// Consume the dump, keeping only the process image.
    pub fn into_image(self) -> MemImage {
        match self {
            SniffedDump::Sequential(ck) => ck.image,
            SniffedDump::Streamed(s) => s.header.image,
        }
    }

    /// `true` for the streamed (`BLCS`) format.
    pub fn is_streamed(&self) -> bool {
        matches!(self, SniffedDump::Streamed(_))
    }
}

/// Probe `bytes` for the stream magic and parse its body with the
/// format's own parser (frame checksums and stream structure are fully
/// validated either way). A stream's [`ParsedStream::tail_bytes`]
/// includes the file's run of zeros, which a restore reads like any
/// other byte. Callers map the [`CodecError`] into their own error
/// vocabulary; the probe itself lives only here.
pub fn sniff_dump(bytes: &FileBytes) -> Result<SniffedDump, CodecError> {
    let body = bytes.body();
    if is_stream_file(body) {
        let mut parsed = parse_stream(body)?;
        parsed.tail_bytes += bytes.zero_tail();
        Ok(SniffedDump::Streamed(Box::new(parsed)))
    } else {
        Ok(SniffedDump::Sequential(CheckpointFile::from_file_bytes(
            body,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamWriter;
    use osproc::Cluster;

    #[test]
    fn sniffs_sequential_dump() {
        let mut c = Cluster::with_standard_nodes(1);
        let p = c.spawn(c.node_ids()[0]);
        c.process_mut(p).image.put("seg", vec![1, 2, 3]);
        crate::checkpoint(&mut c, p, "/local/seq.ckpt").unwrap();
        let bytes = c.read_file(p, "/local/seq.ckpt").unwrap();
        let dump = sniff_dump(&bytes).unwrap();
        assert!(!dump.is_streamed());
        assert_eq!(dump.image().get("seg"), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn sniffs_streamed_dump() {
        let mut c = Cluster::with_standard_nodes(1);
        let p = c.spawn(c.node_ids()[0]);
        c.process_mut(p).image.put("seg", vec![7; 8]);
        let mut w = StreamWriter::begin(&mut c, p, "/local/str.ckpt").unwrap();
        w.append_chunk(&mut c, 42, vec![9; 64]).unwrap();
        w.finish(&mut c).unwrap();
        let bytes = c.read_file(p, "/local/str.ckpt").unwrap();
        let dump = sniff_dump(&bytes).unwrap();
        assert!(dump.is_streamed());
        assert_eq!(dump.image().get("seg"), Some(&[7u8; 8][..]));
        match dump {
            SniffedDump::Streamed(s) => {
                assert_eq!(s.chunks.len(), 1);
                assert_eq!(s.chunks[0].handle, 42);
                // The padding after the trailer counts, run of zeros
                // included.
                let body_tail = parse_stream(bytes.body()).unwrap().tail_bytes;
                assert!(bytes.zero_tail() > 0);
                assert_eq!(s.tail_bytes, body_tail + bytes.zero_tail());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn garbage_is_a_codec_error() {
        assert!(sniff_dump(&FileBytes::new(vec![0; 64], 0)).is_err());
        assert!(sniff_dump(&FileBytes::default()).is_err());
    }
}
