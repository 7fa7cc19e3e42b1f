//! Deterministic pseudo-randomness for simulations.

/// A small, fast, seedable PRNG (SplitMix64).
///
/// The simulator deliberately does not use an external RNG crate: every
/// random draw in an experiment must replay identically from its seed
/// across platforms and dependency upgrades, and SplitMix64 is trivially
/// auditable. It is of course not cryptographically secure; nothing in the
/// simulator needs it to be.
///
/// ```rust
/// use arpshield_netsim::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Returns the next 32 pseudo-random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mixer. [`SimRng`]
/// applies it to its counter, and keyed draws (link impairment, the
/// scale fabric's station phases) apply it to their keys, so equal keys
/// always give equal outputs whatever else was drawn in between.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // The published SplitMix64 sequence for seed 0.
        let mut rng = SimRng::new(0);
        let drawn = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(drawn, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
