//! Deterministic link impairment: loss, duplication, jitter and flaps.
//!
//! Every impairment decision is a pure function of the simulator's
//! impairment seed, the impaired link direction, and that direction's
//! per-frame counter — never of heap order, thread count, or how many
//! random draws other links consumed. Each decision hashes its own
//! inputs (a SplitMix64-style finalizer) instead of advancing a shared
//! stream, so enabling loss on one link cannot shift the jitter draws
//! of another, and a run stays byte-identical across
//! `ARPSHIELD_THREADS` settings.

use std::time::Duration;

use crate::rng::splitmix64;
use crate::time::SimTime;

/// Domain-separation salts: one independent draw family per decision.
const SALT_LOSS: u64 = 0x4C4F_5353; // "LOSS"
const SALT_DUP: u64 = 0x4455_5050; // "DUPP"
const SALT_JITTER: u64 = 0x4A49_5454; // "JITT"

/// A periodic link outage schedule: the link is dead (frames silently
/// dropped) for `down_for` out of every `period`, starting at `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSchedule {
    /// When the first outage begins.
    pub offset: Duration,
    /// How long each outage lasts.
    pub down_for: Duration,
    /// Interval between outage starts (must exceed `down_for` for the
    /// link to ever come back).
    pub period: Duration,
}

impl FlapSchedule {
    /// Is the link down at simulated time `at`?
    pub fn is_down(&self, at: SimTime) -> bool {
        let t = at.as_nanos();
        let offset = self.offset.as_nanos() as u64;
        if t < offset || self.period.is_zero() {
            return false;
        }
        let phase = (t - offset) % self.period.as_nanos() as u64;
        phase < self.down_for.as_nanos() as u64
    }
}

/// Per-link impairment profile. The default is a perfect wire, which is
/// also what every link gets when no profile is supplied — existing
/// topologies behave exactly as before this module existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Probability a frame is silently dropped, per traversal.
    pub loss_prob: f64,
    /// Probability a delivered frame arrives twice.
    pub dup_prob: f64,
    /// Maximum extra delivery delay; each frame draws uniformly from
    /// `[0, jitter)` on top of the link latency.
    pub jitter: Duration,
    /// Optional periodic outage schedule.
    pub flap: Option<FlapSchedule>,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile::PERFECT
    }
}

impl LinkProfile {
    /// A lossless, duplicate-free, jitter-free, always-up wire.
    pub const PERFECT: LinkProfile =
        LinkProfile { loss_prob: 0.0, dup_prob: 0.0, jitter: Duration::ZERO, flap: None };

    /// A profile that only drops frames, with probability `loss_prob`.
    pub fn lossy(loss_prob: f64) -> Self {
        LinkProfile::PERFECT.with_loss(loss_prob)
    }

    /// Sets the per-frame loss probability (clamped to `[0, 1]`).
    pub fn with_loss(mut self, loss_prob: f64) -> Self {
        self.loss_prob = loss_prob.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-frame duplication probability (clamped to `[0, 1]`).
    pub fn with_dup(mut self, dup_prob: f64) -> Self {
        self.dup_prob = dup_prob.clamp(0.0, 1.0);
        self
    }

    /// Sets the jitter bound.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets a periodic outage schedule.
    pub fn with_flap(mut self, flap: FlapSchedule) -> Self {
        self.flap = Some(flap);
        self
    }

    /// True when this profile cannot alter any delivery.
    pub fn is_perfect(&self) -> bool {
        self.loss_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.jitter.is_zero()
            && self.flap.is_none()
    }
}

/// One SplitMix64 step keyed by `x`, used as a hash: unlike a stream
/// RNG, equal inputs always give equal outputs no matter how many other
/// draws happened in between.
fn mix(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// A uniform draw in `[0, 1)` keyed by (seed, link direction, frame
/// index, decision salt).
fn keyed_uniform(seed: u64, link_key: u64, frame_index: u64, salt: u64) -> f64 {
    let h = mix(seed ^ mix(link_key) ^ mix(frame_index.wrapping_mul(0x2545_F491_4F6C_DD1D)) ^ salt);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The fate of one frame traversal, fully determined by its key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fate {
    /// Frame is silently dropped (loss or link down).
    pub lost: bool,
    /// A second copy is delivered one link latency after the first.
    pub duplicated: bool,
    /// Extra delay added to the link latency.
    pub extra_delay: Duration,
}

/// Decides what happens to the `frame_index`-th frame sent over the link
/// direction identified by `link_key`, at simulated time `at`.
pub(crate) fn fate(
    profile: &LinkProfile,
    seed: u64,
    link_key: u64,
    frame_index: u64,
    at: SimTime,
) -> Fate {
    if let Some(flap) = &profile.flap {
        if flap.is_down(at) {
            return Fate { lost: true, duplicated: false, extra_delay: Duration::ZERO };
        }
    }
    let lost = profile.loss_prob > 0.0
        && keyed_uniform(seed, link_key, frame_index, SALT_LOSS) < profile.loss_prob;
    if lost {
        return Fate { lost: true, duplicated: false, extra_delay: Duration::ZERO };
    }
    let duplicated = profile.dup_prob > 0.0
        && keyed_uniform(seed, link_key, frame_index, SALT_DUP) < profile.dup_prob;
    let extra_delay = if profile.jitter.is_zero() {
        Duration::ZERO
    } else {
        profile.jitter.mul_f64(keyed_uniform(seed, link_key, frame_index, SALT_JITTER))
    };
    Fate { lost: false, duplicated, extra_delay }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_profile_never_alters_a_frame() {
        let p = LinkProfile::default();
        assert!(p.is_perfect());
        for i in 0..1000 {
            let f = fate(&p, 42, 7, i, SimTime::from_secs(1));
            assert_eq!(f, Fate { lost: false, duplicated: false, extra_delay: Duration::ZERO });
        }
    }

    #[test]
    fn zero_loss_draws_never_lose_even_with_other_impairments_active() {
        // loss_prob = 0 short-circuits: the loss decision is identical
        // to the perfect wire no matter what dup/jitter do.
        let p = LinkProfile::PERFECT.with_dup(0.5).with_jitter(Duration::from_millis(1));
        for i in 0..1000 {
            assert!(!fate(&p, 9, 3, i, SimTime::ZERO).lost);
        }
    }

    #[test]
    fn fate_is_a_pure_function_of_its_key() {
        let p = LinkProfile::lossy(0.3).with_dup(0.2).with_jitter(Duration::from_micros(50));
        let a = fate(&p, 1, 2, 3, SimTime::from_millis(5));
        let b = fate(&p, 1, 2, 3, SimTime::from_millis(5));
        assert_eq!(a, b);
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let p = LinkProfile::lossy(0.25);
        let lost = (0..10_000).filter(|&i| fate(&p, 11, 5, i, SimTime::ZERO).lost).count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn independent_links_draw_independently() {
        let p = LinkProfile::lossy(0.5);
        let fates_a: Vec<bool> = (0..64).map(|i| fate(&p, 42, 1, i, SimTime::ZERO).lost).collect();
        let fates_b: Vec<bool> = (0..64).map(|i| fate(&p, 42, 2, i, SimTime::ZERO).lost).collect();
        assert_ne!(fates_a, fates_b, "distinct links must not share a loss pattern");
    }

    #[test]
    fn flap_schedule_windows() {
        let flap = FlapSchedule {
            offset: Duration::from_secs(2),
            down_for: Duration::from_secs(1),
            period: Duration::from_secs(5),
        };
        assert!(!flap.is_down(SimTime::from_secs(1)));
        assert!(flap.is_down(SimTime::from_millis(2500)));
        assert!(!flap.is_down(SimTime::from_secs(4)));
        // Next period: down again at 7s..8s.
        assert!(flap.is_down(SimTime::from_millis(7500)));
        assert!(!flap.is_down(SimTime::from_millis(8500)));
    }

    #[test]
    fn clamping_keeps_probabilities_sane() {
        let p = LinkProfile::PERFECT.with_loss(3.0).with_dup(-1.0);
        assert_eq!(p.loss_prob, 1.0);
        assert_eq!(p.dup_prob, 0.0);
    }
}
