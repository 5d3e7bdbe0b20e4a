//! The serializable host-memory image of a process.
//!
//! A real CPR system dumps the raw address space. We model the address
//! space as *named segments* — "script", "heap", "checl-state", … —
//! each an opaque byte blob owned by whatever runtime put it there.
//! BLCR serialises segments wholesale without understanding them, which
//! is exactly the transparency contract of the paper: CheCL's object
//! database rides along inside the dumped host memory. Each segment is
//! a [`Payload`], so copying an image (as a dump does) shares its bytes.

use simcore::{impl_codec_struct, ByteSize, Payload};
use std::collections::BTreeMap;

/// A process's host memory: named, opaque segments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemImage {
    segments: BTreeMap<String, Payload>,
}

impl MemImage {
    /// An empty image.
    pub fn new() -> Self {
        MemImage::default()
    }

    /// Install or replace a segment.
    pub fn put(&mut self, name: &str, data: impl Into<Payload>) {
        self.segments.insert(name.to_string(), data.into());
    }

    /// Read a segment.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.segments.get(name).map(|p| &p[..])
    }

    /// Remove a segment, returning its contents.
    pub fn take(&mut self, name: &str) -> Option<Payload> {
        self.segments.remove(name)
    }

    /// `true` if the segment exists.
    pub fn contains(&self, name: &str) -> bool {
        self.segments.contains_key(name)
    }

    /// Total bytes across all segments — what the CPR system will have
    /// to write. Checkpoint file size is this plus the fixed process
    /// baseline (text, stacks, libc; see `simcore::calib`).
    pub fn total_size(&self) -> ByteSize {
        ByteSize::bytes(self.segments.values().map(|v| v.len() as u64).sum())
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` if there are no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

// Laid out as a `BTreeMap<String, Vec<u8>>`.
impl_codec_struct!(MemImage { segments });

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Codec;

    #[test]
    fn put_get_take() {
        let mut img = MemImage::new();
        img.put("heap", vec![1, 2, 3]);
        img.put("script", vec![9]);
        assert_eq!(img.get("heap"), Some(&[1u8, 2, 3][..]));
        assert_eq!(img.total_size(), ByteSize::bytes(4));
        assert_eq!(img.take("heap").as_deref(), Some(&[1u8, 2, 3][..]));
        assert!(!img.contains("heap"));
        assert_eq!(img.len(), 1);
    }

    #[test]
    fn codec_roundtrip() {
        let mut img = MemImage::new();
        img.put("a", vec![0u8; 100]);
        img.put("b", b"hello".to_vec());
        let back = MemImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn a_cloned_image_shares_its_segments() {
        let mut img = MemImage::new();
        img.put("heap", vec![7u8; 4096]);
        let copy = img.clone();
        assert_eq!(copy, img);
        assert_eq!(
            copy.get("heap").unwrap().as_ptr(),
            img.get("heap").unwrap().as_ptr()
        );
    }

    #[test]
    fn empty_image_roundtrips() {
        let img = MemImage::new();
        assert!(img.is_empty());
        assert_eq!(MemImage::from_bytes(&img.to_bytes()).unwrap(), img);
    }
}
