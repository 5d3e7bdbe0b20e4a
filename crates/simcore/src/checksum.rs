//! FNV-1a content checksums and the XXH64 seal.
//!
//! [`Fnv64`] is the content checksum: it lets tests and workloads
//! assert that buffer contents survive checkpoint / restart / migration
//! bit-exactly without storing full golden copies, it hashes runs of
//! zeros in closed form ([`Fnv64::update_zeros`]), and it chains the
//! 8-byte frame seals of a stream's trailer. [`xxh64`] seals each frame
//! of the dump formats once and addresses chunk-store records, where
//! every dumped byte passes through it and speed matters.

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

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One XXH64 round: absorb the word `w` into the lane `acc`.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The little-endian word of the first 8 bytes of `b`.
#[inline(always)]
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// XXH64 of `data` with seed 0: the frame seal of every dump format and
/// the address of every stored chunk.
///
/// Four lanes each absorb one 8-byte word of every 32-byte stripe, then
/// merge; the tail is taken a word, a half-word and a byte at a time,
/// and a final avalanche mixes every bit into every other. The lanes
/// are four independent multiply chains that step a word, not a byte,
/// at a time, so the hash runs about 8× faster than [`Fnv64`].
pub fn xxh64(data: &[u8]) -> u64 {
    let stripes = data.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if data.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for s in stripes {
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = round(*lane, word(&s[8 * i..]));
            }
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(data.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64;
        h = (h ^ half.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
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

    /// XXH64 known answers from the reference implementation
    /// (`XXH64(ptr, len, 0)` of libxxhash 0.8.1), covering every tail
    /// path: bytes only, a half-word, words, no stripe, one stripe and
    /// stripes with each kind of tail.
    #[test]
    fn xxh64_matches_the_reference() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        let ramp = |n: usize| -> Vec<u8> { (0..n).map(|i| (i * 31 + 7) as u8).collect() };
        let want = [
            (0, 0xef46_db37_51d8_e999),
            (1, 0xa96c_7f0c_e858_bbb7),
            (3, 0x56e6_9576_32a4_87f9),
            (4, 0xc60d_15b1_e3ff_8f04),
            (8, 0x3da5_c7aa_2696_83e0),
            (31, 0x4a74_f3a1_a39a_d4a1),
            (32, 0x8d57_d6a4_671c_c43d),
            (33, 0x62c9_fd21_ed85_7664),
            (100, 0xefa0_ad2d_3e70_c151),
            (4099, 0x9853_1e44_aa4f_969d),
        ];
        for (n, hash) in want {
            assert_eq!(xxh64(&ramp(n)), hash, "n = {n}");
        }
    }

    #[test]
    fn flipping_any_byte_changes_the_seal() {
        crate::qcheck::qcheck("seal_flip", 128, |g| {
            let len = g.usize_in(1, 300);
            let data = g.bytes(len);
            let mut flipped = data.clone();
            let at = g.usize_in(0, len);
            flipped[at] ^= g.usize_in(1, 256) as u8;
            assert_ne!(xxh64(&data), xxh64(&flipped), "byte {at} of {len}");
        });
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_ne!(fnv1a64(b"\x00"), fnv1a64(b"\x00\x00"));
    }
}
