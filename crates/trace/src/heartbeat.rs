//! Periodic wall-clock progress lines on stderr.
//!
//! Long runs — a 100k-host `t6s` sweep point, a multi-GB `ingest` —
//! were previously silent (or used ad-hoc `eprintln!`s) until they
//! finished. A [`Heartbeat`] emits one structured line at most once a
//! wall-second, in a uniform format:
//!
//! ```text
//! arpshield t6s hosts=100000: heartbeat wall_s=1.00 sim_ms=812/2000 frames=412993 ...
//! arpshield t6s hosts=100000: done wall_s=2.41 frames=1020310 frames_per_wall_s=423365
//! ```
//!
//! Everything here is wall clock and therefore **stderr only** — the
//! same quarantine rule as [`profile`](crate::profile). `ARPSHIELD_QUIET=1`
//! suppresses all heartbeat output, which is what CI's byte-identity
//! diffs use to keep stderr clean.

use std::time::{Duration, Instant};

use crate::env_knob;

/// Wall time between heartbeat lines.
const INTERVAL: Duration = Duration::from_secs(1);

/// True when `ARPSHIELD_QUIET` is set truthy: all heartbeat output is
/// suppressed. Garbage values warn (via [`env_knob::report`]) and
/// default to not-quiet.
pub fn quiet() -> bool {
    let (quiet, warning) = env_knob::knob("ARPSHIELD_QUIET").flag();
    env_knob::report(warning);
    quiet
}

/// A per-task progress reporter. Construct one per long-running unit
/// (a sweep point, an ingest source), call [`Heartbeat::tick`] from the
/// work loop, and finish with [`Heartbeat::done`].
#[derive(Debug)]
pub struct Heartbeat {
    label: String,
    quiet: bool,
    started: Instant,
    last_emit: Instant,
    emitted: u64,
}

impl Heartbeat {
    /// Creates a reporter labelled `label` (shown on every line), with
    /// the quiet flag read from the environment.
    pub fn new(label: impl Into<String>) -> Self {
        let now = Instant::now();
        Heartbeat { label: label.into(), quiet: quiet(), started: now, last_emit: now, emitted: 0 }
    }

    /// Wall time since construction.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Heartbeat lines emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Estimated seconds to completion given the fraction of work done,
    /// extrapolating the rate so far. `None` until any progress exists.
    pub fn eta_secs(&self, fraction_done: f64) -> Option<f64> {
        if fraction_done.is_nan() || fraction_done <= 0.0 {
            return None;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        Some((elapsed * (1.0 - fraction_done.min(1.0)) / fraction_done).max(0.0))
    }

    /// Emits a heartbeat line when the interval has elapsed since the
    /// last one. `detail` is only invoked when a line is due, so tick
    /// is cheap to call from a loop (one `Instant` read); per-item hot
    /// loops should still decimate calls (e.g. every 4096 packets).
    /// Returns whether a line was emitted.
    pub fn tick(&mut self, detail: impl FnOnce(&Heartbeat) -> String) -> bool {
        if self.quiet || self.last_emit.elapsed() < INTERVAL {
            return false;
        }
        self.last_emit = Instant::now();
        self.emitted += 1;
        let line = detail(self);
        self.emit("heartbeat", &line);
        true
    }

    /// Emits the final summary line for this task (unconditionally,
    /// unless quiet).
    pub fn done(&self, detail: &str) {
        if self.quiet {
            return;
        }
        self.emit("done", detail);
    }

    fn emit(&self, event: &str, detail: &str) {
        let wall_s = self.started.elapsed().as_secs_f64();
        crate::stderr_line(format_args!(
            "arpshield {}: {event} wall_s={wall_s:.2} {detail}",
            self.label
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_respects_the_interval() {
        // Bypass env reading: construct by hand to avoid races with
        // other tests over ARPSHIELD_QUIET.
        let now = Instant::now();
        let mut hb = Heartbeat {
            label: "test".into(),
            quiet: false,
            started: now,
            last_emit: now,
            emitted: 0,
        };
        assert!(!hb.tick(|_| unreachable!("interval has not elapsed")));
        hb.last_emit = now - INTERVAL;
        assert!(hb.tick(|hb| format!("n={}", hb.emitted())));
        assert_eq!(hb.emitted(), 1);
    }

    #[test]
    fn quiet_suppresses_even_due_ticks() {
        let now = Instant::now();
        let mut hb = Heartbeat {
            label: "test".into(),
            quiet: true,
            started: now,
            last_emit: now - INTERVAL,
            emitted: 0,
        };
        assert!(!hb.tick(|_| unreachable!("quiet must short-circuit")));
        hb.done("never printed");
        assert_eq!(hb.emitted(), 0);
    }

    #[test]
    fn eta_extrapolates_from_progress() {
        let hb = Heartbeat {
            label: "test".into(),
            quiet: true,
            started: Instant::now() - Duration::from_secs(10),
            last_emit: Instant::now(),
            emitted: 0,
        };
        assert!(hb.eta_secs(0.0).is_none());
        assert!(hb.eta_secs(-1.0).is_none());
        assert!(hb.eta_secs(f64::NAN).is_none());
        let eta = hb.eta_secs(0.5).unwrap();
        assert!((eta - 10.0).abs() < 1.0, "half done after 10s -> ~10s left, got {eta}");
        assert_eq!(hb.eta_secs(1.0).unwrap(), 0.0);
    }
}
