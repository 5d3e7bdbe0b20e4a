//! The checkpoint image byte format.
//!
//! CheCL checkpoints are written by serialising a process image — op
//! script, register file, host heap, and (transparently) the CheCL
//! runtime state living inside the process — into a compact, framed,
//! checksummed binary stream. This module defines that stream format:
//! little-endian fixed-width primitives, `u64` length prefixes, and a
//! `magic | version | payload | xxh64` frame.
//!
//! The format is deliberately hand-rolled rather than pulled from an
//! external serialisation crate: the checkpoint file layout is part of
//! the artifact (it determines the measured file sizes in Fig. 5 and
//! Fig. 8), and its decoder must be robust against truncated or
//! corrupted files.
//!
//! There is one idiom per shape:
//! - a struct is declared with [`impl_codec_struct!`](crate::impl_codec_struct):
//!   its fields in order;
//! - a tagged enum is declared with [`impl_codec_enum!`](crate::impl_codec_enum):
//!   a `u8` tag per variant, then the variant's fields in order;
//! - a run of values (`Vec<T>`, `String`, arrays) goes through
//!   [`Codec::encode_run`] / [`Codec::decode_run`], which `u8`
//!   overrides with one copy, so a byte payload is a memcpy;
//! - a length-prefixed frame is written by [`encode_prefixed_frame`]
//!   and read by [`Reader::take_frame`], the one place a frame length
//!   is checked against the bytes present.
//!
//! A hand-written impl is left only where decoding validates
//! something: `NDRange`'s dimension count, `ClError`'s code, and
//! `CheclDb`'s index rebuild (plus the newtype wrappers).

use crate::checksum::xxh64;
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced while decoding a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before a value was fully read.
    UnexpectedEof {
        /// Bytes needed by the failed read.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Frame did not start with the expected magic bytes.
    BadMagic,
    /// Frame version not understood by this build.
    BadVersion(u32),
    /// Frame checksum did not match the payload.
    ChecksumMismatch,
    /// A decoded value was structurally invalid.
    Invalid(&'static str),
    /// Decoding finished but bytes were left over.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected EOF: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Cursor over an encoded byte stream.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume a `u64` length prefix and the frame of that many bytes
    /// after it, as written by [`encode_prefixed_frame`]. A prefix
    /// longer than the bytes left is [`CodecError::UnexpectedEof`],
    /// checked before any narrowing cast.
    pub fn take_frame(&mut self) -> Result<&'a [u8], CodecError> {
        let len = u64::decode(self)?;
        if len > self.remaining() as u64 {
            return Err(CodecError::UnexpectedEof {
                needed: len.min(usize::MAX as u64) as usize,
                remaining: self.remaining(),
            });
        }
        self.take(len as usize)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }
}

/// A type that can be written to / read from the checkpoint byte format.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Append the encodings of `items` in order, with no length.
    fn encode_run(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decode `n` values in order. The caller bounds `n` by the bytes
    /// present before calling.
    fn decode_run(n: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, CodecError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::decode(r)?);
        }
        Ok(v)
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a buffer, requiring it to be fully consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

macro_rules! impl_codec_prim {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::from_le_bytes(r.take_array()?))
            }
        }
    )+};
}

impl_codec_prim!(u16, u32, u64, u128, i8, i16, i32, i64, f32, f64);

/// A byte run is one copy each way.
impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)?[0])
    }
    fn encode_run(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_run(n: usize, r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("usize out of range"))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }
}

/// Laid out as its `Vec<u8>` of UTF-8 bytes.
impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        u8::encode_run(self.as_bytes(), out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        String::from_utf8(Vec::decode(r)?).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_run(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)? as usize;
        // A length prefix can never legitimately exceed the remaining
        // bytes (every element encodes to >= 1 byte), so reject early to
        // avoid huge allocations on corrupted input.
        if len > r.remaining() {
            return Err(CodecError::Invalid("vec length exceeds stream"));
        }
        T::decode_run(len, r)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)? as usize;
        if len > r.remaining() {
            return Err(CodecError::Invalid("map length exceeds stream"));
        }
        let mut m = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode_run(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::decode_run(N, r)?
            .try_into()
            .map_err(|_| CodecError::Invalid("array length"))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Codec for crate::time::SimDuration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::time::SimDuration::from_nanos(u64::decode(r)?))
    }
}

impl Codec for crate::time::SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::time::SimTime::from_nanos(u64::decode(r)?))
    }
}

impl Codec for crate::bytesize::ByteSize {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u64().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(crate::bytesize::ByteSize::bytes(u64::decode(r)?))
    }
}

/// Implement [`Codec`] for a struct by encoding its fields in order.
///
/// ```
/// use simcore::impl_codec_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// impl_codec_struct!(Point { x, y });
///
/// # use simcore::Codec;
/// let p = Point { x: 1, y: 2 };
/// assert_eq!(Point::from_bytes(&p.to_bytes()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Codec::encode(&self.$field, out);)+
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $($field: $crate::codec::Codec::decode(r)?),+ })
            }
        }
    };
}

/// Implement [`Codec`] for an enum: a `u8` tag, then the variant's
/// fields in order. Unit, struct and tuple variants mix freely; a tag
/// not in the table decodes to `CodecError::Invalid(message)`.
///
/// ```
/// use simcore::impl_codec_enum;
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Rect { w: u32, h: u32 }, Label(u8, String) }
/// impl_codec_enum!(Shape, "Shape tag", {
///     0 => Dot,
///     1 => Rect { w, h },
///     2 => Label(size, text),
/// });
///
/// # use simcore::{Codec, CodecError};
/// let rect = Shape::Rect { w: 3, h: 4 };
/// assert_eq!(rect.to_bytes(), [1, 3, 0, 0, 0, 4, 0, 0, 0]);
/// for s in [Shape::Dot, rect, Shape::Label(9, "x".into())] {
///     assert_eq!(Shape::from_bytes(&s.to_bytes()).unwrap(), s);
/// }
/// assert_eq!(Shape::from_bytes(&[3]), Err(CodecError::Invalid("Shape tag")));
/// ```
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ty, $what:literal, {
        $($tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($elem:ident),* $(,)? ))?
        ),+ $(,)?
    }) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($elem),* ))? => {
                        out.push($tag);
                        $($($crate::codec::Codec::encode($field, out);)*)?
                        $($($crate::codec::Codec::encode($elem, out);)*)?
                    })+
                }
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match <u8 as $crate::codec::Codec>::decode(r)? {
                    $($tag => Self::$variant
                        $({ $($field: $crate::codec::Codec::decode(r)?),* })?
                        $(( $({
                            let $elem = $crate::codec::Codec::decode(r)?;
                            $elem
                        }),* ))?,)+
                    _ => return Err($crate::codec::CodecError::Invalid($what)),
                })
            }
        }
    };
}

/// Append a `u64` length, then whatever `body` appends, to `out`.
fn put_prefixed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Append a `magic | version | len | payload | xxh64` frame to `out`.
fn put_framed<T: Codec>(out: &mut Vec<u8>, magic: [u8; 4], version: u32, payload: &T) {
    out.extend_from_slice(&magic);
    version.encode(out);
    let body = out.len() + 8;
    put_prefixed(out, |out| payload.encode(out));
    let sum = xxh64(&out[body..]);
    sum.encode(out);
}

/// Wrap a payload in a `magic | version | len | payload | xxh64` frame.
pub fn encode_framed<T: Codec>(magic: [u8; 4], version: u32, payload: &T) -> Vec<u8> {
    let mut out = Vec::new();
    put_framed(&mut out, magic, version, payload);
    out
}

/// [`encode_framed`] behind its own `u64` length: the record a dump
/// file, a stream or a chunk store appends, read back with
/// [`Reader::take_frame`].
pub fn encode_prefixed_frame<T: Codec>(magic: [u8; 4], version: u32, payload: &T) -> Vec<u8> {
    let mut out = Vec::new();
    put_prefixed(&mut out, |out| put_framed(out, magic, version, payload));
    out
}

/// Decode a frame produced by [`encode_framed`], validating magic,
/// version and seal, in that order.
pub fn decode_framed<T: Codec>(
    magic: [u8; 4],
    version: u32,
    bytes: &[u8],
) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != magic {
        return Err(CodecError::BadMagic);
    }
    let v = u32::decode(&mut r)?;
    if v != version {
        return Err(CodecError::BadVersion(v));
    }
    let body = r.take_frame()?;
    let sum = u64::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    if xxh64(body) != sum {
        return Err(CodecError::ChecksumMismatch);
    }
    T::from_bytes(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(
            u32::from_bytes(&0xdead_beefu32.to_bytes()).unwrap(),
            0xdead_beef
        );
        assert_eq!(i64::from_bytes(&(-42i64).to_bytes()).unwrap(), -42);
        assert_eq!(f64::from_bytes(&3.25f64.to_bytes()).unwrap(), 3.25);
        assert!(bool::from_bytes(&true.to_bytes()).unwrap());
        assert_eq!(
            String::from_bytes(&"héllo".to_string().to_bytes()).unwrap(),
            "héllo"
        );
    }

    #[test]
    fn container_roundtrips() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(Vec::<u32>::from_bytes(&v.to_bytes()).unwrap(), v);
        let o: Option<String> = Some("x".into());
        assert_eq!(Option::<String>::from_bytes(&o.to_bytes()).unwrap(), o);
        let n: Option<String> = None;
        assert_eq!(Option::<String>::from_bytes(&n.to_bytes()).unwrap(), n);
        let mut m = BTreeMap::new();
        m.insert(7u64, "seven".to_string());
        assert_eq!(
            BTreeMap::<u64, String>::from_bytes(&m.to_bytes()).unwrap(),
            m
        );
        let t = (1u8, "a".to_string(), 2u64);
        assert_eq!(<(u8, String, u64)>::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = 5u32.to_bytes();
        b.push(0);
        assert_eq!(u32::from_bytes(&b), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn truncation_reports_eof() {
        let b = 5u64.to_bytes();
        let err = u64::from_bytes(&b[..3]).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }));
    }

    #[test]
    fn hostile_length_rejected_without_alloc() {
        // A Vec claiming u64::MAX elements must not attempt allocation.
        let mut b = Vec::new();
        u64::MAX.encode(&mut b);
        assert_eq!(
            Vec::<u8>::from_bytes(&b),
            Err(CodecError::Invalid("vec length exceeds stream"))
        );
    }

    #[test]
    fn vec_u8_is_a_length_then_the_raw_bytes() {
        let data = vec![1u8, 2, 3, 4];
        let bytes = data.to_bytes();
        assert_eq!(bytes, [4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(Vec::<u8>::from_bytes(&bytes).unwrap(), data);
        // A String and a fixed array share the run layout.
        assert_eq!("\x01\x02\x03\x04".to_string().to_bytes(), bytes);
        assert_eq!([1u8, 2, 3, 4].to_bytes(), bytes[8..]);
        // A run cut short is refused before any copy.
        assert_eq!(
            Vec::<u8>::from_bytes(&bytes[..10]),
            Err(CodecError::Invalid("vec length exceeds stream"))
        );
    }

    #[test]
    fn prefixed_frame_is_the_length_then_the_frame() {
        let frame = encode_framed(*b"CKPT", 1, &7u32);
        let prefixed = encode_prefixed_frame(*b"CKPT", 1, &7u32);
        assert_eq!(prefixed, frame.to_bytes());
        let mut r = Reader::new(&prefixed);
        assert_eq!(r.take_frame().unwrap(), frame);
        assert!(r.is_empty());
        // A prefix longer than the bytes left is a short read.
        let mut r = Reader::new(&prefixed[..prefixed.len() - 1]);
        assert!(matches!(
            r.take_frame(),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn framing_roundtrip_and_validation() {
        let payload = vec![9u64, 8, 7];
        let frame = encode_framed(*b"CKPT", 1, &payload);
        let back: Vec<u64> = decode_framed(*b"CKPT", 1, &frame).unwrap();
        assert_eq!(back, payload);

        // Wrong magic.
        assert_eq!(
            decode_framed::<Vec<u64>>(*b"XXXX", 1, &frame),
            Err(CodecError::BadMagic)
        );
        // Wrong version.
        assert_eq!(
            decode_framed::<Vec<u64>>(*b"CKPT", 2, &frame),
            Err(CodecError::BadVersion(1))
        );
        // Corrupt payload byte -> checksum failure.
        let mut bad = frame.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        let res = decode_framed::<Vec<u64>>(*b"CKPT", 1, &bad);
        assert!(res.is_err());
    }

    #[test]
    fn struct_macro_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Demo {
            a: u32,
            b: String,
            c: Vec<u16>,
        }
        impl_codec_struct!(Demo { a, b, c });
        let d = Demo {
            a: 1,
            b: "two".into(),
            c: vec![3, 4],
        };
        assert_eq!(Demo::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn sim_types_roundtrip() {
        use crate::{ByteSize, SimDuration, SimTime};
        let d = SimDuration::from_millis(123);
        assert_eq!(SimDuration::from_bytes(&d.to_bytes()).unwrap(), d);
        let t = SimTime::from_nanos(456);
        assert_eq!(SimTime::from_bytes(&t.to_bytes()).unwrap(), t);
        let s = ByteSize::mib(7);
        assert_eq!(ByteSize::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}
