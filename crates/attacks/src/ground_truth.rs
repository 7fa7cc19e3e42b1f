//! Ground truth: the attacker's own log of what it perpetrated and when,
//! used to score detections.

use std::cell::RefCell;
use std::rc::Rc;

use arpshield_netsim::SimTime;
use arpshield_packet::{Ipv4Addr, MacAddr};

use crate::poison::PoisonVariant;

/// What category of attack an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// An ARP-cache-poisoning emission.
    ArpPoison(PoisonVariant),
    /// A burst of CAM-flooding frames.
    MacFlood,
    /// A forged DHCP DISCOVER (starvation).
    DhcpStarvation,
    /// A rogue DHCP OFFER/ACK.
    RogueDhcp,
    /// One probe of an ARP reconnaissance sweep.
    ArpScan,
}

/// One attacker action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackEvent {
    /// When the frames left the attacker.
    pub at: SimTime,
    /// Category.
    pub kind: AttackKind,
    /// For poisoning: the IP whose binding was forged.
    pub forged_ip: Option<Ipv4Addr>,
    /// For poisoning: the MAC the forged binding points at.
    pub claimed_mac: Option<MacAddr>,
}

/// Shared, append-only log of attacker actions.
///
/// Cloning is cheap (reference-counted); every attack device and the
/// experiment harness hold the same log.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    events: Rc<RefCell<Vec<AttackEvent>>>,
}

impl GroundTruth {
    /// Creates an empty log.
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Appends an event.
    pub fn record(&self, event: AttackEvent) {
        self.events.borrow_mut().push(event);
    }

    /// Snapshot of all events so far.
    pub fn events(&self) -> Vec<AttackEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when no attack has acted yet.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Time of the first event matching `pred`, if any — the reference
    /// point for detection-latency measurements.
    pub fn first_time(&self, pred: impl Fn(&AttackEvent) -> bool) -> Option<SimTime> {
        self.events.borrow().iter().find(|e| pred(e)).map(|e| e.at)
    }

    /// Time of the first ARP-poisoning event, if any.
    pub fn first_poison_at(&self) -> Option<SimTime> {
        self.first_time(|e| matches!(e.kind, AttackKind::ArpPoison(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at_ms: u64) -> AttackEvent {
        AttackEvent {
            at: SimTime::from_millis(at_ms),
            kind: AttackKind::ArpPoison(PoisonVariant::GratuitousReply),
            forged_ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
            claimed_mac: Some(MacAddr::from_index(66)),
        }
    }

    #[test]
    fn log_is_shared_across_clones() {
        let truth = GroundTruth::new();
        let clone = truth.clone();
        assert!(truth.is_empty());
        clone.record(event(100));
        assert_eq!(truth.len(), 1);
        assert_eq!(truth.first_poison_at(), Some(SimTime::from_millis(100)));
    }

    #[test]
    fn first_time_filters() {
        let truth = GroundTruth::new();
        truth.record(AttackEvent {
            at: SimTime::from_millis(5),
            kind: AttackKind::MacFlood,
            forged_ip: None,
            claimed_mac: None,
        });
        truth.record(event(10));
        assert_eq!(truth.first_poison_at(), Some(SimTime::from_millis(10)));
        assert_eq!(
            truth.first_time(|e| matches!(e.kind, AttackKind::MacFlood)),
            Some(SimTime::from_millis(5))
        );
        assert_eq!(truth.first_time(|e| matches!(e.kind, AttackKind::RogueDhcp)), None);
    }
}
