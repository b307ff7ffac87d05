//! A deterministic, seedable, non-cryptographic hasher for per-transaction
//! hot paths.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 keyed by a random
//! per-process seed. That buys DoS resistance the simulation does not need
//! (every key is either an internal index or already a SHA-256 digest) and
//! costs both determinism (iteration order varies across processes) and
//! cycles (~1 ns/byte where an FxHash-style mix is ~0.2 ns/byte). This
//! module provides the standard Firefox `FxHasher` mix — multiply-rotate
//! over native words — behind an explicit, fixed seed so that
//!
//! 1. two runs of the same binary hash identically (no ambient
//!    randomness), and
//! 2. the seed can be *varied on purpose* to prove that no consensus
//!    output depends on map iteration order.
//!
//! This is **not** a cryptographic hash and must never feed signatures,
//! ids, or any value that crosses the wire; it only places keys in
//! buckets.
//!
//! It lives in this zero-dependency crate so that every layer — the
//! lifecycle tracker here, the ledger's tx index, the store, and the
//! governor's per-tx maps — shares one copy of the mix. The tracker uses
//! the default seed; anything order-sensitive that iterates its map
//! (e.g. `open_traces`) sorts explicitly rather than leaning on bucket
//! order.

use std::hash::{BuildHasher, Hasher};

/// 64-bit golden-ratio multiplier used by the Fx mix.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The default seed: hashes are deterministic but not all-zero-state.
pub const DEFAULT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiply-rotate hasher (the rustc / Firefox "FxHash"),
/// started from an explicit seed.
#[derive(Clone, Copy, Debug)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    /// A hasher whose initial state is derived from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        FxHasher {
            // splitmix64-style scramble so that seed 0 and seed 1 land in
            // unrelated states (the raw Fx mix is weak on tiny deltas).
            state: scramble(seed),
        }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

#[inline]
fn scramble(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().expect("4 bytes"),
            )));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: the raw Fx state keeps low-entropy high bits for
        // short inputs, which HashMap's bucket masking would expose.
        scramble(self.state)
    }
}

/// [`BuildHasher`] carrying the explicit seed. `Default` uses
/// [`DEFAULT_SEED`], so `FxMap::default()` is deterministic out of the box.
#[derive(Clone, Copy, Debug)]
pub struct FxSeed {
    seed: u64,
}

impl FxSeed {
    /// A build-hasher producing hashers seeded with `seed`.
    pub fn with_seed(seed: u64) -> Self {
        FxSeed { seed }
    }

    /// The seed this builder stamps onto every hasher.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for FxSeed {
    fn default() -> Self {
        FxSeed { seed: DEFAULT_SEED }
    }
}

impl BuildHasher for FxSeed {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::with_seed(self.seed)
    }
}

/// A `HashMap` using the deterministic seeded hasher.
pub type FxMap<K, V> = std::collections::HashMap<K, V, FxSeed>;

/// A `HashSet` using the deterministic seeded hasher.
pub type FxSet<K> = std::collections::HashSet<K, FxSeed>;

/// An empty [`FxMap`] with the default seed.
pub fn fx_map<K, V>() -> FxMap<K, V> {
    FxMap::with_hasher(FxSeed::default())
}

/// An empty [`FxMap`] seeded with `seed`.
pub fn fx_map_seeded<K, V>(seed: u64) -> FxMap<K, V> {
    FxMap::with_hasher(FxSeed::with_seed(seed))
}

/// An empty [`FxSet`] with the default seed.
pub fn fx_set<K>() -> FxSet<K> {
    FxSet::with_hasher(FxSeed::default())
}

/// An empty [`FxSet`] seeded with `seed`.
pub fn fx_set_seeded<K>(seed: u64) -> FxSet<K> {
    FxSet::with_hasher(FxSeed::with_seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(seed: u64, v: &T) -> u64 {
        let mut h = FxHasher::with_seed(seed);
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        let key = (7u32, [0xabu8; 32], 99u64);
        assert_eq!(hash_of(0, &key), hash_of(0, &key));
        assert_eq!(hash_of(DEFAULT_SEED, &key), hash_of(DEFAULT_SEED, &key),);
    }

    #[test]
    fn seed_changes_the_hash() {
        let key = 42u64;
        assert_ne!(hash_of(1, &key), hash_of(2, &key));
        // Adjacent seeds must not collapse to adjacent states.
        assert_ne!(hash_of(0, &key) ^ hash_of(1, &key), 0);
    }

    #[test]
    fn tail_bytes_are_significant() {
        // 9-byte inputs differing only in the last byte must differ.
        let a = [0u8; 9];
        let mut b = [0u8; 9];
        b[8] = 1;
        assert_ne!(hash_of(0, &a.as_slice()), hash_of(0, &b.as_slice()));
    }

    #[test]
    fn map_iteration_order_is_run_stable() {
        // Two maps built identically iterate identically — the property
        // SipHash's random keying denies.
        let build = || {
            let mut m = fx_map();
            for i in 0..1000u64 {
                m.insert(i.wrapping_mul(0x2545_f491_4f6c_dd1d), i);
            }
            m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn seeded_maps_iterate_differently() {
        // Different seeds place keys in different buckets: the iteration
        // order actually varies, so the ledger byte-identity test in
        // prb-core exercises a real degree of freedom.
        let build = |seed| {
            let mut m = fx_map_seeded(seed);
            for i in 0..256u64 {
                m.insert(i, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_ne!(build(1), build(2));
        let mut s = fx_set_seeded::<u64>(3);
        s.insert(1);
        assert!(s.contains(&1));
    }

    #[test]
    fn distribution_smoke_low_bits_spread() {
        // Sequential keys must not collide in the low bucket bits.
        let mut buckets = [0u32; 64];
        for i in 0..4096u64 {
            buckets[(hash_of(DEFAULT_SEED, &i) & 63) as usize] += 1;
        }
        let (min, max) = buckets
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        assert!(min > 0, "empty bucket: degenerate distribution");
        assert!(max < 4096 / 8, "bucket hot spot: {max} of 4096");
    }
}
