//! FNV-1a, the workspace's one content hash.
//!
//! Every hash the pipeline persists or derives seeds from goes through
//! [`Fnv1a`]: synthetic-dataset seeds, split content hashes in provenance,
//! model-configuration fingerprints, and snapshot file names and integrity
//! trailers. All of those must be stable across runs, platforms and
//! releases, which FNV-1a is by construction. It is not collision-resistant
//! against an adversary; none of those uses needs that.

/// Incremental 64-bit FNV-1a. Feeding bytes in several [`Fnv1a::update`]
/// calls hashes exactly like one call over their concatenation, so a file
/// streamed in chunks hashes like the same bytes in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of one byte slice.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut hash = Fnv1a::default();
        hash.update(bytes);
        hash.finish()
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of every byte folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv1a;

    #[test]
    fn matches_the_reference_vectors_and_streams_like_one_slice() {
        // published FNV-1a 64-bit test vectors
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        let mut streamed = Fnv1a::default();
        for chunk in [b"fo".as_slice(), b"", b"obar"] {
            streamed.update(chunk);
        }
        assert_eq!(streamed.finish(), Fnv1a::hash(b"foobar"));
    }
}
