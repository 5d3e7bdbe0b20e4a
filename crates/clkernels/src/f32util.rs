//! Little-endian lane views over device buffer bytes.
//!
//! Device buffers are raw bytes; kernels read them as `f32`/`u32`
//! lanes and write result lanes back into the bytes (with no unsafe
//! transmutes). A bandwidth-bound kernel, which touches each lane once,
//! writes each result lane straight back with no typed copy in between.
//! A compute-bound kernel, which reads each input lane many times, may
//! decode its inputs into lanes once ([`f32s`], [`clamped_rows`]) and
//! compute from those. The little-endian layout is fixed so results are
//! platform-independent. Trailing bytes that don't fill a lane are
//! ignored, as on a real device.

macro_rules! lanes {
    ($t:ty, $at:ident, $all:ident, $put:ident) => {
        #[doc = concat!("Lane `i` of a `", stringify!($t), "` buffer.")]
        pub fn $at(bytes: &[u8], i: usize) -> $t {
            <$t>::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap())
        }

        #[doc = concat!("Every `", stringify!($t), "` lane of `bytes`, in order.")]
        pub fn $all(bytes: &[u8]) -> impl Iterator<Item = $t> + '_ {
            bytes
                .chunks_exact(4)
                .map(|c| <$t>::from_le_bytes(c.try_into().unwrap()))
        }

        /// Store `values` in successive lanes from lane 0, stopping at
        /// whichever runs out first.
        pub fn $put(bytes: &mut [u8], values: impl IntoIterator<Item = $t>) {
            for (lane, v) in bytes.chunks_exact_mut(4).zip(values) {
                lane.copy_from_slice(&v.to_le_bytes());
            }
        }
    };
}

lanes!(f32, f32_at, f32s, put_f32s);
lanes!(u32, u32_at, u32s, put_u32s);

/// Store `v` in lane `i` of an `f32` buffer.
pub fn set_f32(bytes: &mut [u8], i: usize, v: f32) {
    bytes[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
}

/// The `f32` lanes of `bytes` as rows of `w` lanes (`w > 0`), each row
/// widened by `pad` lanes on either side that repeat its first and last
/// lane. Rows are `w + 2 * pad` apart, and lane `x + d` of a row,
/// clamped to the row, sits at `x + pad + d` for `|d| <= pad`.
pub fn clamped_rows(bytes: &[u8], w: usize, pad: usize) -> Vec<f32> {
    let rows = bytes.chunks_exact(4 * w);
    let mut out = Vec::with_capacity(rows.len() * (w + 2 * pad));
    for row in rows {
        let (first, last) = (f32_at(row, 0), f32_at(row, w - 1));
        out.extend(std::iter::repeat_n(first, pad));
        out.extend(f32s(row));
        out.extend(std::iter::repeat_n(last, pad));
    }
    out
}

/// Swap lanes `i` and `j` of a buffer of 4-byte lanes.
pub fn swap_lanes(bytes: &mut [u8], i: usize, j: usize) {
    for b in 0..4 {
        bytes.swap(4 * i + b, 4 * j + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_little_endian_and_ignore_trailing_bytes() {
        let mut bytes = vec![0u8; 13];
        put_f32s(&mut bytes, [1.0, -2.5, 3.25, 9.0]);
        assert_eq!(&bytes[..4], &1.0f32.to_le_bytes());
        assert_eq!(f32s(&bytes).collect::<Vec<_>>(), [1.0, -2.5, 3.25]);
        put_u32s(&mut bytes, [7, 0xdead_beef]);
        swap_lanes(&mut bytes, 0, 1);
        assert_eq!(u32_at(&bytes, 0), 0xdead_beef);
        assert_eq!(u32_at(&bytes, 1), 7);
        set_f32(&mut bytes, 2, 1.0);
        assert_eq!(f32_at(&bytes, 2), 1.0);
        assert_eq!(bytes[12], 0);
    }

    #[test]
    fn clamped_rows_repeat_each_rows_edge_lanes() {
        let mut bytes = vec![0u8; 4 * 6 + 3];
        put_f32s(&mut bytes, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(
            clamped_rows(&bytes, 3, 2),
            [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 5.0, 6.0, 6.0, 6.0]
        );
        assert_eq!(clamped_rows(&bytes, 1, 0), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(clamped_rows(&bytes[..4], 1, 1), [1.0, 1.0, 1.0]);
    }
}
