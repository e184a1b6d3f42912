//! Stable content hashing for artifact keys and integrity checks.
//!
//! Keys must be stable across processes and machine restarts, so the
//! std `Hasher` machinery (randomly seeded per process) is out. FNV-1a
//! is used instead: trivially implementable, well distributed for the
//! sizes involved, and deterministic by construction. Artifact keys use
//! a 128-bit digest (two independent FNV-1a streams with distinct offset
//! bases) rendered as 32 hex characters; integrity checksums use the
//! plain 64-bit variant.

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
/// A second, independent offset basis for the high half of the 128-bit
/// digest (the FNV-0 hash of "fgbs-store", fixed forever).
const FNV64_OFFSET_B: u64 = 0xa871_fb22_93fc_7d11;

/// FNV-1a over `bytes` starting from `state`.
fn fnv64_step(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV64_PRIME);
    }
    state
}

/// 64-bit FNV-1a digest of `bytes` (integrity checksums).
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_step(FNV64_OFFSET, bytes)
}

/// Incremental 128-bit stable hasher (two parallel FNV-1a streams).
#[derive(Debug, Clone)]
pub struct StableHasher {
    lo: u64,
    hi: u64,
}

impl StableHasher {
    /// Fresh hasher.
    pub fn new() -> StableHasher {
        StableHasher {
            lo: FNV64_OFFSET,
            hi: FNV64_OFFSET_B,
        }
    }

    /// Absorb raw bytes. Both streams advance in one loop: each is a
    /// chain of dependent multiplies, and interleaving them lets the CPU
    /// overlap the two chains.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let (mut lo, mut hi) = (self.lo, self.hi);
        for &b in bytes {
            lo = (lo ^ b as u64).wrapping_mul(FNV64_PRIME);
            hi = (hi ^ b as u64).wrapping_mul(FNV64_PRIME);
        }
        self.lo = lo;
        self.hi = hi;
        self
    }

    /// Absorb a length-delimited field (prevents `"ab"+"c"` colliding
    /// with `"a"+"bc"` across field boundaries).
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes)
    }

    /// Absorb a `u64` field.
    pub fn field_u64(&mut self, v: u64) -> &mut Self {
        self.field(&v.to_le_bytes())
    }

    /// Absorb an `f64` field by bit pattern.
    pub fn field_f64(&mut self, v: f64) -> &mut Self {
        self.field_u64(v.to_bits())
    }

    /// Absorb the `Debug` rendering of a value. `Debug` output derives
    /// mechanically from structure, so two structurally equal values hash
    /// equal and any structural change invalidates the key — exactly the
    /// invalidation rule the store wants.
    pub fn field_debug(&mut self, v: &impl std::fmt::Debug) -> &mut Self {
        self.field(format!("{v:?}").as_bytes())
    }

    /// Finish into a 32-character lowercase hex key.
    pub fn finish_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// One-shot 128-bit hex digest of a list of length-delimited fields.
pub fn hash_fields(fields: &[&[u8]]) -> String {
    let mut h = StableHasher::new();
    for f in fields {
        h.field(f);
    }
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn keys_are_32_hex_chars_and_stable() {
        let k = hash_fields(&[b"profile", b"nr", b"test"]);
        assert_eq!(k.len(), 32);
        assert!(k.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(k, hash_fields(&[b"profile", b"nr", b"test"]));
    }

    #[test]
    fn field_boundaries_matter() {
        assert_ne!(hash_fields(&[b"ab", b"c"]), hash_fields(&[b"a", b"bc"]));
        assert_ne!(hash_fields(&[b"abc"]), hash_fields(&[b"ab", b"c"]));
        assert_ne!(hash_fields(&[]), hash_fields(&[b""]));
    }

    #[test]
    fn typed_fields_round_into_the_digest() {
        let mut a = StableHasher::new();
        a.field_u64(1).field_f64(2.0).field_debug(&vec![3u8]);
        let mut b = StableHasher::new();
        b.field_u64(1).field_f64(2.0).field_debug(&vec![3u8]);
        assert_eq!(a.finish_hex(), b.finish_hex());
        let mut c = StableHasher::new();
        c.field_u64(1).field_f64(2.0).field_debug(&vec![4u8]);
        assert_ne!(a.finish_hex(), c.finish_hex());
    }

    /// The digest of `fields` as `update` computed it before the two
    /// streams were interleaved: the `lo` stream over each chunk, then
    /// the `hi` stream.
    fn two_pass_digest(fields: &[&[u8]]) -> String {
        let (mut lo, mut hi) = (FNV64_OFFSET, FNV64_OFFSET_B);
        for f in fields {
            for chunk in [&(f.len() as u64).to_le_bytes()[..], f] {
                lo = fnv64_step(lo, chunk);
                hi = fnv64_step(hi, chunk);
            }
        }
        format!("{hi:016x}{lo:016x}")
    }

    #[test]
    fn one_pass_update_matches_the_two_pass_formula() {
        // xorshift64: deterministic bytes and split points.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..=4096usize {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut cuts: Vec<usize> = (0..next() % 5)
                .map(|_| next() as usize % (len + 1))
                .collect();
            cuts.sort_unstable();
            let mut fields = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([len]) {
                fields.push(&bytes[start..cut]);
                start = cut;
            }
            assert_eq!(
                hash_fields(&fields),
                two_pass_digest(&fields),
                "length {len}"
            );
        }
    }

    #[test]
    fn negative_zero_and_nan_are_distinct_bit_patterns() {
        let mut a = StableHasher::new();
        a.field_f64(0.0);
        let mut b = StableHasher::new();
        b.field_f64(-0.0);
        assert_ne!(a.finish_hex(), b.finish_hex());
    }
}
