//! One seeded fast hasher for every per-frame table.
//!
//! The CAM, DAI's binding table, the detectors' databases and the host
//! stacks each do a lookup per frame, on keys of at most a few words
//! (`(VlanId, MacAddr)`, `Ipv4Addr`, a `&'static str`). std's SipHash
//! spends more on those short keys than the probe itself, so these
//! tables hash through [`FastState`] instead: a folded multiply, one
//! 64×64→128-bit product per 8-byte word.
//!
//! The keys are secret. They come from std's [`RandomState`], which
//! draws from the operating system, so a crafted capture fed to the
//! ingest path cannot aim collisions at a table whose keys it cannot
//! know. Every table gets its own pair of keys, so copying one table's
//! iteration order into another never clusters.
//!
//! Iteration order therefore differs from table to table and run to
//! run, exactly as it did under SipHash's random keys: no output may
//! depend on it. Order-free uses only — lookups, `retain`, sums, and
//! collect-then-remove.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A [`HashMap`] hashed through [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A [`HashSet`] hashed through [`FastState`].
pub type FastSet<T> = HashSet<T, FastState>;

/// Weyl step between consecutive tables' seeds (odd, so the sequence
/// only repeats after 2^64 tables).
const SEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplies `a` by `b` into 128 bits and XORs the two halves. The
/// high half carries every input bit into the top of the word, the low
/// half into the bottom, so one product mixes both ends.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Builds [`FastHasher`]s keyed by one table's secret pair `(k1, k2)`.
#[derive(Clone, Copy)]
pub struct FastState {
    k1: u64,
    k2: u64,
}

impl FastState {
    /// Fresh keys for one table: the thread's secret seed, drawn once
    /// from [`RandomState`], advanced one step per table. Costs a
    /// thread-local read and two multiplies — no more than std's own
    /// `RandomState::new`.
    pub fn new() -> Self {
        thread_local! {
            static SEED: Cell<[u64; 2]> = Cell::new({
                let std_keys = RandomState::new();
                [std_keys.hash_one(0u8), std_keys.hash_one(1u8)]
            });
        }
        SEED.with(|seed| {
            let [a, b] = seed.get();
            seed.set([a.wrapping_add(SEED_STEP), b]);
            FastState { k1: fold(a, b), k2: fold(a ^ SEED_STEP, b) }
        })
    }
}

/// Keeps the keys out of debug output, as std's `RandomState` does.
impl fmt::Debug for FastState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastState").finish_non_exhaustive()
    }
}

impl Default for FastState {
    fn default() -> Self {
        FastState::new()
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { acc: self.k2, k1: self.k1, k2: self.k2 }
    }
}

/// Absorbs each written word as `acc = fold(acc ^ word, k1)` and
/// finishes with `fold(acc, k2)`, so both the low bits (the bucket
/// index) and the top 7 bits (hashbrown's tag) depend on every input
/// bit.
#[derive(Clone, Copy)]
pub struct FastHasher {
    acc: u64,
    k1: u64,
    k2: u64,
}

impl fmt::Debug for FastHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastHasher").finish_non_exhaustive()
    }
}

impl FastHasher {
    #[inline(always)]
    fn absorb(&mut self, word: u64) {
        self.acc = fold(self.acc ^ word, self.k1);
    }
}

impl Hasher for FastHasher {
    /// Little-endian 8-byte words; a short tail is zero-padded with its
    /// length in the top byte, so `"ab"` and `"ab\0"` stay apart.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.absorb(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        let len = tail.len();
        // The tail's bytes in little-endian order, read without a copy:
        // two overlapping 4-byte reads, or first/middle/last byte.
        let word = match len {
            0 => return,
            1..=3 => {
                u64::from(tail[0])
                    | u64::from(tail[len / 2]) << (8 * (len / 2))
                    | u64::from(tail[len - 1]) << (8 * (len - 1))
            }
            _ => {
                let read = |at: usize| {
                    u64::from(u32::from_le_bytes(tail[at..at + 4].try_into().expect("4 bytes")))
                };
                read(0) | read(len - 4) << (8 * (len - 4))
            }
        };
        self.absorb(word | (len as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.absorb(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.absorb(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.absorb(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.absorb(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.absorb(n as u64);
        self.absorb((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.absorb(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.k2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_within_a_table() {
        let state = FastState::new();
        assert_eq!(state.hash_one((7u16, 0xDEAD_BEEFu32)), state.hash_one((7u16, 0xDEAD_BEEFu32)));
        assert_ne!(state.hash_one((7u16, 1u32)), state.hash_one((7u16, 2u32)));
    }

    #[test]
    fn every_table_draws_its_own_keys() {
        let (a, b) = (FastState::new(), FastState::new());
        assert_ne!((a.k1, a.k2), (b.k1, b.k2));
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64));
        assert_eq!(format!("{a:?}"), "FastState { .. }", "keys stay out of debug output");
    }

    #[test]
    fn short_tails_keep_their_length() {
        let state = FastState::new();
        let hash = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b""), hash(b"\0"));
        assert_ne!(hash(b"12345678"), hash(b"12345678\0"));
        // A tail hashes as its zero-padded little-endian word plus its
        // length, whichever reads assemble it.
        for len in 1..8 {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let mut word = [0u8; 8];
            word[..len].copy_from_slice(&bytes);
            word[7] = len as u8;
            let mut padded = state.build_hasher();
            padded.write_u64(u64::from_le_bytes(word));
            assert_eq!(hash(&bytes), padded.finish(), "tail of {len}");
        }
    }

    #[test]
    fn maps_and_sets_work_through_the_aliases() {
        let mut map: FastMap<&'static str, u64> = FastMap::default();
        *map.entry("dai").or_insert(0) += 3;
        *map.entry("dai").or_insert(0) += 4;
        assert_eq!(map.get("dai"), Some(&7));
        let set: FastSet<u32> = (0..1000).collect();
        assert!((0..1000).all(|n| set.contains(&n)));
        assert!(!set.contains(&1000));
    }
}
