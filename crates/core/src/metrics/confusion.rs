//! Outcome scoring for attack runs.

use std::time::Duration;

use arpshield_netsim::SimTime;

use crate::scenario::CompletedRun;

/// The scored result of one (scheme × attack) run — one cell of the
/// coverage matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// The victim's cache never held a forged binding after the attack
    /// began.
    pub prevented: bool,
    /// At least one alert tied to the attack fired after it began.
    pub detected: bool,
    /// Delay from the first attack emission to the first such alert.
    pub detection_latency: Option<Duration>,
    /// Fraction of post-attack samples in which the victim was poisoned.
    pub poisoned_fraction: f64,
    /// Victim's ping delivery ratio over the whole run (connectivity
    /// under attack / under defence).
    pub victim_delivery: f64,
    /// Total alerts raised during the run.
    pub alerts: usize,
}

impl AttackOutcome {
    /// The compact cell label used in coverage tables:
    /// `P` prevented, `D` detected, `P+D`, or `-` (missed).
    pub fn cell(&self) -> String {
        match (self.prevented, self.detected) {
            (true, true) => "P+D".to_string(),
            (true, false) => "P".to_string(),
            (false, true) => match self.detection_latency {
                Some(lat) => format!("D({}ms)", lat.as_millis()),
                None => "D".to_string(),
            },
            (false, false) => "-".to_string(),
        }
    }
}

/// Scores a completed attack run.
///
/// *Prevention* is judged from ground-truth cache samples: no post-attack
/// sample may show the victim poisoned. *Detection* is judged by matching
/// alerts against the attack: an alert counts if it fires at/after the
/// first attacker emission and names either the forged IP or the
/// attacker's claimed MAC. (An alert that blames the victim's legitimate
/// binding for the same IP still counts — it rang about the right
/// incident, even if attribution is inverted; the passive monitor's
/// learning-window weakness shows up this way.)
pub fn score_attack_run(run: &CompletedRun) -> AttackOutcome {
    let first_emission: Option<SimTime> = run.lan.truth.events().first().map(|e| e.at);
    let samples = run.samples.borrow();
    let poisoned_fraction = samples.poisoned_fraction_since(run.attack_start);
    let prevented = !samples.ever_poisoned();

    let events = run.lan.truth.events();
    let forged_ips: Vec<_> = events.iter().filter_map(|e| e.forged_ip).collect();
    let claimed_macs: Vec<_> = events.iter().filter_map(|e| e.claimed_mac).collect();

    let mut detection_at: Option<SimTime> = None;
    if let Some(start) = first_emission {
        for alert in run.lan.alerts.alerts() {
            if alert.at < start {
                continue;
            }
            let names_ip = alert.subject_ip.map(|ip| forged_ips.contains(&ip)).unwrap_or(false);
            let names_mac = alert.observed_mac.map(|m| claimed_macs.contains(&m)).unwrap_or(false);
            if names_ip || names_mac {
                detection_at = Some(alert.at);
                break;
            }
        }
    }

    let victim_delivery = run.lan.pings[0].borrow().delivery_ratio();

    AttackOutcome {
        prevented,
        detected: detection_at.is_some(),
        detection_latency: detection_at.zip(first_emission).map(|(d, s)| d.saturating_since(s)),
        poisoned_fraction,
        victim_delivery,
        alerts: run.lan.alerts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(prevented: bool, detected: bool) -> AttackOutcome {
        AttackOutcome {
            prevented,
            detected,
            detection_latency: detected.then(|| Duration::from_millis(7)),
            poisoned_fraction: 0.0,
            victim_delivery: 1.0,
            alerts: 0,
        }
    }

    #[test]
    fn cell_labels() {
        assert_eq!(outcome(true, true).cell(), "P+D");
        assert_eq!(outcome(true, false).cell(), "P");
        assert_eq!(outcome(false, true).cell(), "D(7ms)");
        assert_eq!(outcome(false, false).cell(), "-");
    }

    // Whole-run scoring is exercised through the scenario tests and the
    // coverage-matrix experiment.
}
