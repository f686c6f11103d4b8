//! Fast non-cryptographic hashing: the hot-path map hasher, and the one
//! 64-bit FNV-1a every determinism fingerprint in the tree is taken with.
//!
//! The demultiplex point of every layer is a map lookup keyed by a small
//! integer id (`VcId`, `Tsap`, room number). `std`'s default SipHash is
//! DoS-resistant but costs ~10× what these single-word keys need, and a
//! simulator feeding itself deterministic ids has no adversary. This is
//! the Fx multiply-rotate hash (as used by rustc): one rotate, one xor,
//! one multiply per word.
//!
//! Only use [`FastMap`]/[`FastSet`] where iteration order is never
//! observed — hasher choice changes bucket order, and determinism
//! everywhere else in this codebase relies on maps either being `BTreeMap`
//! or never being iterated.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for small integer keys (not DoS-resistant).
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = (self.state.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

/// Offset basis of the 64-bit FNV-1a.
pub(crate) const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue a 64-bit FNV-1a from `state` over `bytes`.
#[inline]
pub(crate) fn fnv1a64_from(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a of `bytes` — stable across platforms and runs, which the
/// keyed `std` hashers are not. Fingerprints (schedule, telemetry stream,
/// report) and the wire checksum use it; maps do not.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV1A64_OFFSET, bytes)
}

/// `HashMap` with the fast hasher — for id-keyed hot maps that are never
/// iterated.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with the fast hasher — same caveats as [`FastMap`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(7, "a");
        m.insert(7 + (1 << 32), "b");
        assert_eq!(m.get(&7), Some(&"a"));
        assert_eq!(m.get(&(7 + (1 << 32))), Some(&"b"));
        assert_eq!(m.remove(&7), Some("a"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn distinct_small_keys_do_not_collide_to_zero() {
        // Degenerate hashers map everything to the same bucket; make sure
        // nearby ids actually spread.
        let hashes: Vec<u64> = (0u64..64)
            .map(|k| {
                let mut h = FastHasher::default();
                h.write_u64(k);
                h.finish()
            })
            .collect();
        let mut uniq = hashes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), hashes.len());
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn byte_stream_matches_word_stream_for_aligned_input() {
        let mut a = FastHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FastHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
