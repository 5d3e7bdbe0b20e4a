//! Bulk bytes shared copy-on-write.
//!
//! The modelled system copies a buffer's bytes at every hop: from the
//! application into the proxy's request, across PCIe into device
//! memory, and back, and at a checkpoint into the dump file and out
//! again. The simulator charges each of those copies in virtual time by
//! length alone, so the host need not make them. A [`Payload`] is one
//! byte string that every hop shares, up to a file's body; it is copied
//! only when one holder changes it while another still holds it.

use crate::codec::{Codec, CodecError, Reader};
use std::ops::Deref;
use std::sync::{Arc, LazyLock};

/// A byte string shared between its holders and copied on write.
///
/// Cloning costs a reference count. [`Payload::make_mut`] copies the
/// bytes first when another holder shares them, so no holder ever sees
/// another's change. Its length never changes once made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload(Arc<Vec<u8>>);

impl Payload {
    /// The bytes, to change in place, copied first when shared.
    pub fn make_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.0).as_mut_slice()
    }

    /// The bytes as an owned `Vec`, copied only when shared.
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Whether `self` and `other` share one byte string.
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// No bytes. Every empty payload shares one allocation, so a
/// placeholder costs a reference count, not an allocation.
impl Default for Payload {
    fn default() -> Self {
        static EMPTY: LazyLock<Payload> = LazyLock::new(|| Payload::from(Vec::new()));
        EMPTY.clone()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(Arc::new(bytes))
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Laid out as the `Vec<u8>` it holds: a `u64` length, then the bytes.
impl Codec for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        u8::encode_run(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Vec::decode(r).map(Payload::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_copies_only_shared_bytes() {
        let mut a = Payload::from(vec![1, 2, 3]);
        let before = a.as_ptr();
        a.make_mut()[0] = 9;
        assert_eq!(a.as_ptr(), before, "a sole holder writes in place");
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        a.make_mut()[1] = 8;
        assert!(!a.ptr_eq(&b));
        assert_eq!((&a[..], &b[..]), (&[9, 8, 3][..], &[9, 2, 3][..]));
    }

    #[test]
    fn into_vec_copies_only_shared_bytes() {
        let a = Payload::from(vec![4, 5]);
        let before = a.as_ptr();
        let b = a.clone();
        assert_eq!(b.into_vec(), [4, 5]);
        let owned = a.into_vec();
        assert_eq!((owned.as_ptr(), owned), (before, vec![4, 5]));
    }

    #[test]
    fn codec_is_byte_identical_to_vec() {
        crate::qcheck::qcheck("payload_codec", 64, |g| {
            let len = g.usize_in(0, 4097);
            let bytes = g.bytes(len);
            let wire = bytes.to_bytes();
            let payload = Payload::from(bytes.clone());
            assert_eq!(payload.to_bytes(), wire);
            assert_eq!(Payload::from_bytes(&wire).unwrap(), payload);
            assert_eq!(Vec::<u8>::from_bytes(&payload.to_bytes()).unwrap(), bytes);
            let cut = &wire[..g.usize_in(0, wire.len())];
            assert_eq!(
                Payload::from_bytes(cut).unwrap_err(),
                Vec::<u8>::from_bytes(cut).unwrap_err()
            );
        });
    }
}
