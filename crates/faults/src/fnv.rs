//! FNV-1a (64-bit), the workspace's one content hash: fault-plan site
//! names, persistent-cache keys and entry checksums, load-table digests,
//! ledger CRCs and run fingerprints, simulator report digests and
//! property-test seeds all fold their bytes through it.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash. Words are folded as their little-endian bytes,
/// so a digest does not depend on the host's byte order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    #[must_use]
    pub const fn new() -> Self {
        Self(OFFSET)
    }

    /// Fold `bytes`, one byte at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold the eight little-endian bytes of `v`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything folded so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors_hold() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // A word folds as its little-endian bytes.
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
