//! Simulated wall-clock time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulation clock, with nanosecond resolution.
///
/// `SimTime` is an absolute instant; deltas are expressed with the standard
/// [`std::time::Duration`], so `SimTime + Duration` and `SimTime - SimTime`
/// behave exactly like their `std::time::Instant` counterparts.
///
/// ```rust
/// use arpshield_netsim::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t - SimTime::from_secs(1), Duration::from_millis(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant, usable as "run forever".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since the epoch as a float, for plotting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`, zero when `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` past [`SimTime::MAX`] or when
    /// the duration overflows `u64` nanoseconds.
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        let nanos = u64::try_from(d.as_nanos()).ok()?;
        self.0.checked_add(nanos).map(SimTime)
    }

    /// Saturating addition of a duration: [`SimTime::MAX`] when the sum
    /// passes it. A timer's due time, so one scheduled "never" waits at
    /// the end of the clock instead of overflowing it.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        self.checked_add(d).unwrap_or(SimTime::MAX)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        self.checked_add(rhs).expect("SimTime overflow")
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + Duration::from_millis(250);
        assert_eq!(t.as_millis(), 1250);
        assert_eq!(t - SimTime::from_secs(1), Duration::from_millis(250));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.saturating_since(early), Duration::from_secs(1));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn checked_add_saturates_at_max() {
        assert!(SimTime::MAX.checked_add(Duration::from_nanos(1)).is_none());
        assert!(SimTime::ZERO.checked_add(Duration::from_secs(1)).is_some());
        assert_eq!(SimTime::from_secs(1).saturating_add(Duration::MAX), SimTime::MAX);
        assert_eq!(SimTime::MAX.saturating_add(Duration::from_nanos(1)), SimTime::MAX);
        let t = SimTime::from_secs(1).saturating_add(Duration::from_millis(5));
        assert_eq!(t, SimTime::from_millis(1005));
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }
}
