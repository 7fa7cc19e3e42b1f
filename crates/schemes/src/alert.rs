//! The shared alert log every scheme reports into.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use arpshield_netsim::SimTime;
use arpshield_packet::{Ipv4Addr, MacAddr};
use arpshield_trace::profile;
use arpshield_trace::Tracer;

use crate::SchemeKind;

/// What a scheme believes it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// An IP's binding changed to a different MAC.
    BindingChanged,
    /// A reply arrived with no matching request on the wire.
    UnsolicitedReply,
    /// A reply's sender fields contradict the request it answers.
    ReplyMismatch,
    /// An active probe contradicted a claimed binding.
    ProbeContradiction,
    /// Two different MACs answered for the same IP.
    DuplicateResponders,
    /// A signature failed to verify (S-ARP).
    SignatureInvalid,
    /// An unsigned/legacy ARP reply was rejected on an S-ARP host.
    UnsignedReply,
    /// A host-side policy agent rejected a binding change (Antidote).
    ReplaceRejected,
    /// The switch dropped an ARP packet failing DAI validation.
    DaiViolation,
    /// ARP request rate suggests scanning/poisoning activity.
    RateAnomaly,
}

impl AlertKind {
    /// Stable lower-snake label, used as the trace counter suffix.
    pub fn label(self) -> &'static str {
        &verdict_counter(self)[VERDICT_PREFIX.len()..]
    }
}

/// One detection event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// When the scheme raised it.
    pub at: SimTime,
    /// Which scheme raised it (stable label from its descriptor).
    pub scheme: &'static str,
    /// Category.
    pub kind: AlertKind,
    /// The IP whose binding is in question.
    pub subject_ip: Option<Ipv4Addr>,
    /// The MAC observed in the suspicious claim.
    pub observed_mac: Option<MacAddr>,
    /// The MAC previously/expectedly bound.
    pub expected_mac: Option<MacAddr>,
}

/// The namespace of [`verdict_counter`]'s names.
const VERDICT_PREFIX: &str = "scheme.verdict.";

/// The trace counter bumped for each [`AlertKind`]: [`VERDICT_PREFIX`]
/// followed by the kind's [`label`](AlertKind::label).
fn verdict_counter(kind: AlertKind) -> &'static str {
    match kind {
        AlertKind::BindingChanged => "scheme.verdict.binding_changed",
        AlertKind::UnsolicitedReply => "scheme.verdict.unsolicited_reply",
        AlertKind::ReplyMismatch => "scheme.verdict.reply_mismatch",
        AlertKind::ProbeContradiction => "scheme.verdict.probe_contradiction",
        AlertKind::DuplicateResponders => "scheme.verdict.duplicate_responders",
        AlertKind::SignatureInvalid => "scheme.verdict.signature_invalid",
        AlertKind::UnsignedReply => "scheme.verdict.unsigned_reply",
        AlertKind::ReplaceRejected => "scheme.verdict.replace_rejected",
        AlertKind::DaiViolation => "scheme.verdict.dai_violation",
        AlertKind::RateAnomaly => "scheme.verdict.rate_anomaly",
    }
}

#[derive(Debug, Default)]
struct Inner {
    alerts: Vec<Alert>,
    /// Work units per scheme, indexed by [`SchemeKind`] discriminant.
    work: [u64; SchemeKind::all().len()],
    tracer: Tracer,
}

/// Shared, append-only alert log with per-scheme work accounting.
///
/// Cheap to clone; all clones share state (single-threaded simulation).
#[derive(Debug, Clone, Default)]
pub struct AlertLog {
    inner: Rc<RefCell<Inner>>,
}

impl AlertLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AlertLog::default()
    }

    /// Routes every raised verdict (with its evidence) into `tracer`.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.borrow_mut().tracer = tracer;
    }

    /// Records an alert. The capture frame being dispatched (if any)
    /// is pinned and cited as the verdict's provenance.
    pub fn raise(&self, alert: Alert) {
        self.raise_with_frames(alert, &[]);
    }

    /// Records an alert citing extra `evidence` capture frames beyond
    /// the one currently being dispatched — e.g. the frame that
    /// established the binding a [`AlertKind::BindingChanged`] verdict
    /// says was overwritten. Every cited frame is pinned so it
    /// survives flight-recorder eviction; the triggering frame leads
    /// the citation list, historical evidence follows.
    pub fn raise_with_frames(&self, alert: Alert, evidence: &[u64]) {
        let _s = profile::span("scheme.verdict");
        let mut inner = self.inner.borrow_mut();
        inner.tracer.count(verdict_counter(alert.kind), 1);
        let mut frames: Vec<u64> = inner.tracer.current_frame().into_iter().collect();
        for &id in evidence {
            if !frames.contains(&id) {
                frames.push(id);
            }
        }
        for &id in &frames {
            inner.tracer.pin_frame(id);
        }
        inner.tracer.event_frames(alert.at.as_nanos(), "scheme.verdict", || {
            let fmt_ip =
                |ip: Option<Ipv4Addr>| ip.map(|i| i.to_string()).unwrap_or_else(|| "-".to_string());
            let fmt_mac = |mac: Option<MacAddr>| {
                mac.map(|m| m.to_string()).unwrap_or_else(|| "-".to_string())
            };
            (
                alert.scheme.to_string(),
                format!(
                    "kind={} subject_ip={} observed_mac={} expected_mac={}",
                    alert.kind.label(),
                    fmt_ip(alert.subject_ip),
                    fmt_mac(alert.observed_mac),
                    fmt_mac(alert.expected_mac),
                ),
                frames,
            )
        });
        inner.alerts.push(alert);
    }

    /// Pins the capture frame currently being dispatched (the packet a
    /// scheme is inspecting) and returns its id, so schemes can keep a
    /// provenance handle to evidence they may only alert on later.
    pub fn pin_current_frame(&self) -> Option<u64> {
        self.inner.borrow().tracer.pin_current()
    }

    /// Charges `units` of abstract CPU work to `scheme`.
    pub fn add_work(&self, scheme: SchemeKind, units: u64) {
        self.inner.borrow_mut().work[scheme as usize] += units;
    }

    /// Snapshot of all alerts so far.
    pub fn alerts(&self) -> Vec<Alert> {
        self.inner.borrow().alerts.clone()
    }

    /// Number of alerts.
    pub fn len(&self) -> usize {
        self.inner.borrow().alerts.len()
    }

    /// True when nothing was raised.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().alerts.is_empty()
    }

    /// Time of the first alert matching `pred`.
    pub fn first_time(&self, pred: impl Fn(&Alert) -> bool) -> Option<SimTime> {
        self.inner.borrow().alerts.iter().find(|a| pred(a)).map(|a| a.at)
    }

    /// Alert counts keyed by verdict label, counted in place.
    pub fn verdict_histogram(&self) -> BTreeMap<&'static str, u64> {
        self.inner.borrow().alerts.iter().fold(BTreeMap::new(), |mut histogram, alert| {
            *histogram.entry(alert.kind.label()).or_insert(0) += 1;
            histogram
        })
    }

    /// Work units charged to the scheme labelled `scheme`.
    pub fn work_of(&self, scheme: &str) -> u64 {
        SchemeKind::from_label(scheme).map_or(0, |kind| self.inner.borrow().work[kind as usize])
    }

    /// Total work across schemes.
    pub fn total_work(&self) -> u64 {
        self.inner.borrow().work.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(ms: u64, kind: AlertKind) -> Alert {
        Alert {
            at: SimTime::from_millis(ms),
            scheme: "test",
            kind,
            subject_ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
            observed_mac: Some(MacAddr::from_index(66)),
            expected_mac: Some(MacAddr::from_index(1)),
        }
    }

    #[test]
    fn log_shared_across_clones() {
        let log = AlertLog::new();
        let clone = log.clone();
        clone.raise(alert(10, AlertKind::BindingChanged));
        assert_eq!(log.len(), 1);
        assert_eq!(
            log.first_time(|a| a.kind == AlertKind::BindingChanged),
            Some(SimTime::from_millis(10))
        );
        assert_eq!(log.first_time(|a| a.kind == AlertKind::DaiViolation), None);
    }

    #[test]
    fn labels_are_the_verdict_counters_without_their_prefix() {
        let kinds = [
            (AlertKind::BindingChanged, "binding_changed"),
            (AlertKind::UnsolicitedReply, "unsolicited_reply"),
            (AlertKind::ReplyMismatch, "reply_mismatch"),
            (AlertKind::ProbeContradiction, "probe_contradiction"),
            (AlertKind::DuplicateResponders, "duplicate_responders"),
            (AlertKind::SignatureInvalid, "signature_invalid"),
            (AlertKind::UnsignedReply, "unsigned_reply"),
            (AlertKind::ReplaceRejected, "replace_rejected"),
            (AlertKind::DaiViolation, "dai_violation"),
            (AlertKind::RateAnomaly, "rate_anomaly"),
        ];
        for (kind, label) in kinds {
            assert_eq!(kind.label(), label);
            assert_eq!(verdict_counter(kind), format!("scheme.verdict.{label}"));
        }
    }

    #[test]
    fn work_accounting() {
        let log = AlertLog::new();
        log.add_work(SchemeKind::Passive, 3);
        log.add_work(SchemeKind::Passive, 4);
        log.add_work(SchemeKind::SArp, 900);
        assert_eq!(log.work_of("passive"), 7);
        assert_eq!(log.work_of("sarp"), 900);
        assert_eq!(log.work_of("nobody"), 0);
        assert_eq!(log.total_work(), 907);
    }

    /// Each scheme that charges work reads it back through its label,
    /// and the total is their sum.
    #[test]
    fn every_charging_kind_resolves_by_its_label() {
        let charging = [
            (SchemeKind::Passive, "passive"),
            (SchemeKind::Stateful, "stateful"),
            (SchemeKind::ActiveProbe, "active-probe"),
            (SchemeKind::RateMonitor, "rate-monitor"),
            (SchemeKind::Dai, "dai"),
            (SchemeKind::SArp, "sarp"),
        ];
        let log = AlertLog::new();
        for (units, (kind, label)) in (1..).zip(charging) {
            assert_eq!(kind.label(), label);
            log.add_work(kind, units);
            log.add_work(kind, units);
        }
        for (units, (kind, _)) in (1..).zip(charging) {
            assert_eq!(log.work_of(kind.label()), 2 * units, "{kind}");
        }
        assert_eq!(log.total_work(), 2 * (1..=6).sum::<u64>());
        for kind in SchemeKind::all() {
            if !charging.iter().any(|(charged, _)| *charged == kind) {
                assert_eq!(log.work_of(kind.label()), 0, "{kind}");
            }
        }
    }

    #[test]
    fn verdict_histogram_counts_by_kind() {
        let log = AlertLog::new();
        log.raise(alert(1, AlertKind::BindingChanged));
        log.raise(alert(2, AlertKind::RateAnomaly));
        log.raise(alert(3, AlertKind::BindingChanged));
        let histogram = log.verdict_histogram();
        assert_eq!(
            histogram.into_iter().collect::<Vec<_>>(),
            [("binding_changed", 2), ("rate_anomaly", 1)]
        );
    }
}
