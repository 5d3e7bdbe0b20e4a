//! The on-disk checkpoint file layout.
//!
//! ```text
//! +----------------+------------------------------+-------------------+
//! | frame_len: u64 | framed payload (checksummed) | zero padding …    |
//! +----------------+------------------------------+-------------------+
//! |<------------ FileBytes::body ---------------->|<- zero_tail: u64 ->|
//! ```
//!
//! The framed payload holds the dumped [`MemImage`] plus metadata. The
//! zero padding stands in for the parts of a real dump that our
//! simulation has no bytes for — program text, stacks, libc, the
//! runtime heap outside named segments — sized by
//! [`simcore::calib::base_process_image`]. Fig. 5 of the paper shows
//! checkpoint files have exactly this structure: a benchmark-dependent
//! data part on top of a tens-of-MB process baseline. The padding is
//! carried as the file's run of zeros ([`FileBytes`]), a length rather
//! than bytes: it costs I/O time like data, and no parser reads it.
//!
//! This is format v3 ([`CKPT_VERSION`]): the frame is sealed with
//! [`simcore::xxh64`]. A v2 file (sealed with four-lane FNV-1a) and a v1
//! file (one-lane FNV-1a) are refused with [`CodecError::BadVersion`];
//! no older reader is kept.

use osproc::{FileBytes, MemImage};
use simcore::codec::{decode_framed, encode_prefixed_frame, CodecError, Reader};
use simcore::{calib, impl_codec_struct};

/// Magic bytes of a checkpoint frame.
pub const CKPT_MAGIC: [u8; 4] = *b"BLCR";
/// Format version.
pub const CKPT_VERSION: u32 = 3;

/// Decoded checkpoint contents.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointFile {
    /// Pid the dump was taken from (diagnostic only; a restarted
    /// process gets a fresh pid, as with real BLCR without pid
    /// restoration).
    pub source_pid: u32,
    /// Hostname of the source node (diagnostic only; the file must not
    /// carry host-*dependent* state, which is what makes migration
    /// possible, §IV-C).
    pub source_host: String,
    /// The dumped host memory.
    pub image: MemImage,
}

impl_codec_struct!(CheckpointFile {
    source_pid,
    source_host,
    image
});

impl CheckpointFile {
    /// Serialise to file bytes, the process-baseline padding carried as
    /// the run of zeros.
    pub fn to_file_bytes(&self) -> FileBytes {
        FileBytes::new(
            encode_prefixed_frame(CKPT_MAGIC, CKPT_VERSION, self),
            calib::base_process_image().as_u64(),
        )
    }

    /// Parse the body of a file written by
    /// [`CheckpointFile::to_file_bytes`].
    ///
    /// The leading `frame_len` is untrusted input (the file may be
    /// truncated, corrupted, or lying): [`Reader::take_frame`] checks it
    /// against the bytes actually present, so a bogus header yields a
    /// clean [`CodecError`] rather than a panic or over-read.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<CheckpointFile, CodecError> {
        let frame = Reader::new(bytes).take_frame()?;
        decode_framed(CKPT_MAGIC, CKPT_VERSION, frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointFile {
        let mut image = MemImage::new();
        image.put("heap", vec![1, 2, 3, 4]);
        image.put("script", vec![9; 100]);
        CheckpointFile {
            source_pid: 42,
            source_host: "pc0".into(),
            image,
        }
    }

    #[test]
    fn roundtrip() {
        let ck = sample();
        let file = ck.to_file_bytes();
        let back = CheckpointFile::from_file_bytes(file.body()).unwrap();
        assert_eq!(back, ck);
        // The file carries the process baseline on top of the frame,
        // and a bigger image makes it bigger, byte for byte.
        let base = calib::base_process_image().as_u64();
        assert_eq!(file.len(), file.body().len() as u64 + base);
        let mut big = ck.clone();
        big.image.put("extra", vec![0u8; 1_000_000]);
        assert!(big.to_file_bytes().len() >= file.len() + 1_000_000);
    }

    #[test]
    fn corrupt_frame_detected() {
        let ck = sample();
        let mut bytes = ck.to_file_bytes().body().to_vec();
        bytes[40] ^= 0xff; // flip a payload byte
        assert!(CheckpointFile::from_file_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_file_detected() {
        let ck = sample();
        let file = ck.to_file_bytes();
        assert!(CheckpointFile::from_file_bytes(&file.body()[..16]).is_err());
    }

    #[test]
    fn lying_frame_len_detected() {
        let ck = sample();
        let mut bytes = ck.to_file_bytes().body().to_vec();
        // Claim a frame far bigger than the file (would wrap a 32-bit
        // usize if cast before checking).
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            CheckpointFile::from_file_bytes(&bytes),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // Claim zero: the frame decoder must reject the empty frame.
        bytes[..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(CheckpointFile::from_file_bytes(&bytes).is_err());
    }

    #[test]
    fn arbitrary_mutations_never_panic() {
        // qcheck property (satellite of ISSUE 2): take a valid file and
        // apply random byte edits and truncations — the parser must
        // either succeed or return a clean CodecError, never panic or
        // over-read.
        let base = sample().to_file_bytes().to_vec();
        simcore::qcheck::qcheck("ckptfile_mutations_are_safe", 300, |g| {
            let mut bytes = base.clone();
            // Random truncation to any length (including past the
            // padding start and into the length prefix itself).
            if g.bool() {
                let keep = g.usize_in(0, bytes.len());
                bytes.truncate(keep);
            }
            // Up to 8 random byte overwrites.
            for _ in 0..g.usize_in(0, 8) {
                if bytes.is_empty() {
                    break;
                }
                let pos = g.usize_in(0, bytes.len());
                bytes[pos] = g.byte();
            }
            let _ = CheckpointFile::from_file_bytes(&bytes);
        });
    }
}
