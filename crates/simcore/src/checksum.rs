//! FNV-1a content checksums.
//!
//! Used to (a) validate checkpoint file integrity and (b) let tests and
//! workloads assert that buffer contents survive checkpoint / restart /
//! migration bit-exactly without storing full golden copies.

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
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorb bytes into this hasher and `other` in one pass. FNV-1a is
    /// bound by the latency of its multiply, so the second, independent
    /// state rides along at almost no cost: one pass here is cheaper
    /// than an `update` on each.
    pub fn update_with(&mut self, other: &mut Fnv64, data: &[u8]) {
        let (mut a, mut b) = (self.0, other.0);
        for &byte in data {
            a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = a;
        other.0 = b;
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

    #[test]
    fn one_pass_over_two_states_equals_two_updates() {
        crate::qcheck::qcheck("update_with", 64, |g| {
            let len = g.usize_in(0, 300);
            let data = g.bytes(len);
            let split = g.usize_in(0, len + 1);
            let (head, run) = data.split_at(split);
            let prior_len = g.usize_in(0, 16);
            let prior = g.bytes(prior_len);
            let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
            a.update(head);
            b.update(&prior);
            let (mut want_a, mut want_b) = (a, b);
            a.update_with(&mut b, run);
            want_a.update(run);
            want_b.update(run);
            assert_eq!((a.finish(), b.finish()), (want_a.finish(), want_b.finish()));
        });
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_ne!(fnv1a64(b"\x00"), fnv1a64(b"\x00\x00"));
    }
}
