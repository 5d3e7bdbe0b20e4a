//! FNV-1a content checksums and the four-lane frame seal.
//!
//! [`Fnv64`] is the content checksum: it lets tests and workloads
//! assert that buffer contents survive checkpoint / restart / migration
//! bit-exactly without storing full golden copies, and it addresses
//! chunk-store records. [`seal64`] seals each frame of the dump formats
//! once, where only integrity matters and speed does.

/// Streaming 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.0;
        for &b in data {
            h = step(h, b);
        }
        self.0 = h;
    }

    /// Absorb `n` zero bytes without touching them. FNV-1a's xor step
    /// is a no-op on a zero byte, so `n` of them multiply the state by
    /// `Pⁿ mod 2⁶⁴`, taken by square-and-multiply in `O(log n)`.
    pub fn update_zeros(&mut self, mut n: u64) {
        let mut factor = FNV_PRIME;
        let mut h = self.0;
        while n > 0 {
            if n & 1 == 1 {
                h = h.wrapping_mul(factor);
            }
            factor = factor.wrapping_mul(factor);
            n >>= 1;
        }
        self.0 = h;
    }

    /// Absorb a little-endian `u64` (handy for hashing lengths/ids).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One FNV-1a step: absorb `byte` into the state `h`.
#[inline(always)]
fn step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// The four-lane frame seal of `data`: byte `i` goes to FNV-1a lane
/// `i mod 4`, and the four lanes and the length are folded through one
/// FNV-1a into 8 bytes.
///
/// FNV-1a is bound by the latency of its multiply: one state is one
/// serial chain. Four lanes are four independent chains that the CPU
/// runs side by side, so a seal costs about a quarter of an [`Fnv64`]
/// pass over the same bytes.
pub fn seal64(data: &[u8]) -> u64 {
    let quads = data.chunks_exact(4);
    let tail = quads.remainder();
    let [mut a, mut b, mut c, mut d] = [FNV_OFFSET; 4];
    for q in quads {
        a = step(a, q[0]);
        b = step(b, q[1]);
        c = step(c, q[2]);
        d = step(d, q[3]);
    }
    let mut lanes = [a, b, c, d];
    // The tail starts at a multiple of 4, so its byte `j` is lane `j`'s.
    for (lane, &byte) in lanes.iter_mut().zip(tail) {
        *lane = step(*lane, byte);
    }
    let mut h = Fnv64::new();
    for lane in lanes {
        h.update_u64(lane);
    }
    h.update_u64(data.len() as u64);
    h.finish()
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn zero_runs_hash_like_zero_bytes() {
        for n in [0usize, 1, 2, 255, 256, 4097, 24 << 20] {
            let mut sparse = Fnv64::new();
            sparse.update(b"head");
            sparse.update_zeros(n as u64);
            let mut dense = Fnv64::new();
            dense.update(b"head");
            dense.update(&vec![0; n]);
            assert_eq!(sparse.finish(), dense.finish(), "n = {n}");
        }
    }

    #[test]
    fn interleaved_zero_runs_match_materialised_bytes() {
        crate::qcheck::qcheck("interleaved_zero_runs", 64, |g| {
            let mut sparse = Fnv64::new();
            let mut dense = Fnv64::new();
            for _ in 0..g.usize_in(1, 5) {
                let len = g.usize_in(0, 64);
                let body = g.bytes(len);
                sparse.update(&body);
                dense.update(&body);
                let zeros = g.usize_in(0, (1 << 20) + 1);
                sparse.update_zeros(zeros as u64);
                dense.update(&vec![0; zeros]);
            }
            assert_eq!(sparse.finish(), dense.finish());
        });
    }

    /// The four-lane seal of `data`, byte by byte: the definition
    /// [`seal64`]'s quad loop must agree with.
    fn reference_seal(data: &[u8]) -> u64 {
        let mut lanes = [FNV_OFFSET; 4];
        for (i, &b) in data.iter().enumerate() {
            lanes[i % 4] = step(lanes[i % 4], b);
        }
        let mut h = Fnv64::new();
        lanes.iter().for_each(|&l| h.update_u64(l));
        h.update_u64(data.len() as u64);
        h.finish()
    }

    #[test]
    fn seal_matches_the_lane_definition() {
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 100, 4098, 4099] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(seal64(&data), reference_seal(&data), "n = {n}");
        }
        // Lanes make the seal differ from plain FNV-1a, and from a
        // reordering of the same bytes.
        assert_ne!(seal64(b"foobar"), fnv1a64(b"foobar"));
        assert_ne!(seal64(b"ab"), seal64(b"ba"));
        assert_ne!(seal64(b""), seal64(b"\x00"));
    }

    #[test]
    fn flipping_any_byte_changes_the_seal() {
        crate::qcheck::qcheck("seal_flip", 128, |g| {
            let len = g.usize_in(1, 300);
            let data = g.bytes(len);
            let mut flipped = data.clone();
            let at = g.usize_in(0, len);
            flipped[at] ^= g.usize_in(1, 256) as u8;
            assert_ne!(seal64(&data), seal64(&flipped), "byte {at} of {len}");
        });
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_ne!(fnv1a64(b"\x00"), fnv1a64(b"\x00\x00"));
    }
}
