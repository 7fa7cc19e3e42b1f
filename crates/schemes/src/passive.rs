//! The arpwatch-style passive monitor.

use arpshield_netsim::hash::FastMap;
use arpshield_netsim::{Device, DeviceCtx, PortId, SimTime};
use arpshield_packet::{ArpPacket, EtherType, EthernetView, Ipv4Addr, MacAddr};

use crate::work;
use crate::{Alert, AlertKind, AlertLog, SchemeKind};

const SCHEME: SchemeKind = SchemeKind::Passive;

/// Suppress repeat alerts for the same (ip, mac) pair within this
/// window, mirroring arpwatch's report throttling.
const DEDUP_WINDOW: std::time::Duration = std::time::Duration::from_secs(10);

/// Passive monitor knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveConfig {
    /// Also alert the first time a station is seen (arpwatch's "new
    /// station" report). Off by default: on a busy LAN it is pure noise.
    pub alert_on_new_station: bool,
}

/// A monitored binding: the believed MAC plus the capture frame that
/// established the belief (pinned in the flight recorder, so a later
/// `BindingChanged` verdict can still cite the original octets).
#[derive(Debug, Clone, Copy)]
struct Binding {
    mac: MacAddr,
    frame: Option<u64>,
}

/// An arpwatch-style sniffer for a switch mirror port.
///
/// It builds a database of IP→MAC pairs from every ARP packet it sees and
/// raises [`AlertKind::BindingChanged`] when a pair flips. Its two
/// structural weaknesses — faithfully reproduced — are (a) the learning
/// window: a binding forged *before* the monitor first sees the true one
/// is recorded as truth, and (b) benign churn (DHCP reassignment, NIC
/// swaps) is indistinguishable from poisoning.
#[derive(Debug)]
pub struct PassiveMonitor {
    config: PassiveConfig,
    log: AlertLog,
    db: FastMap<Ipv4Addr, Binding>,
    last_alert: FastMap<(Ipv4Addr, MacAddr), SimTime>,
}

impl PassiveMonitor {
    /// Creates a monitor reporting into `log`.
    pub fn new(config: PassiveConfig, log: AlertLog) -> Self {
        PassiveMonitor { config, log, db: FastMap::default(), last_alert: FastMap::default() }
    }

    /// The database's current belief for `ip`.
    pub fn binding(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.db.get(&ip).map(|b| b.mac)
    }

    /// Feeds one observed sender binding into the database, as if the
    /// ARP packet carrying it had been sniffed. Public so captures from
    /// other sources (or benchmarks) can drive the monitor directly.
    pub fn observe(&mut self, now: SimTime, ip: Ipv4Addr, mac: MacAddr) {
        if ip.is_unspecified() {
            return; // ARP probes carry no binding
        }
        self.log.add_work(SCHEME, work::DB_OP);
        match self.db.get(&ip).copied() {
            None => {
                // Pin the frame that establishes the baseline belief:
                // when poisoning later flips this binding, the verdict
                // cites these original octets as its evidence.
                let frame = self.log.pin_current_frame();
                self.db.insert(ip, Binding { mac, frame });
                if self.config.alert_on_new_station {
                    self.log.raise(Alert {
                        at: now,
                        scheme: SCHEME.label(),
                        kind: AlertKind::BindingChanged,
                        subject_ip: Some(ip),
                        observed_mac: Some(mac),
                        expected_mac: None,
                    });
                }
            }
            Some(previous) if previous.mac != mac => {
                let frame = self.log.pin_current_frame();
                self.db.insert(ip, Binding { mac, frame });
                let key = (ip, mac);
                let throttled = self
                    .last_alert
                    .get(&key)
                    .map(|t| now.saturating_since(*t) < DEDUP_WINDOW)
                    .unwrap_or(false);
                if !throttled {
                    self.last_alert.insert(key, now);
                    let evidence: Vec<u64> = previous.frame.into_iter().collect();
                    self.log.raise_with_frames(
                        Alert {
                            at: now,
                            scheme: SCHEME.label(),
                            kind: AlertKind::BindingChanged,
                            subject_ip: Some(ip),
                            observed_mac: Some(mac),
                            expected_mac: Some(previous.mac),
                        },
                        &evidence,
                    );
                }
            }
            // A same-MAC refresh keeps the frame that first
            // established the binding: it remains the provenance.
            Some(_) => {}
        }
    }
}

impl Device for PassiveMonitor {
    fn name(&self) -> &str {
        "passive-monitor"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        // Lenient borrowed-view parse: no per-frame allocation, and
        // VLAN-tagged or jumbo ARP stays visible off a real capture.
        let Ok(eth) = EthernetView::parse(frame) else {
            return;
        };
        if eth.ethertype() != EtherType::ARP {
            return;
        }
        let Ok(arp) = ArpPacket::parse(eth.payload()) else {
            return;
        };
        self.log.add_work(SCHEME, work::INSPECT);
        self.observe(ctx.now(), arp.sender_ip, arp.sender_mac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> (PassiveMonitor, AlertLog) {
        let log = AlertLog::new();
        (PassiveMonitor::new(PassiveConfig::default(), log.clone()), log)
    }

    #[test]
    fn learns_then_alerts_on_flip() {
        let (mut m, log) = monitor();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        m.observe(SimTime::from_secs(1), ip, MacAddr::from_index(1));
        assert!(log.is_empty(), "first sighting is silent by default");
        m.observe(SimTime::from_secs(2), ip, MacAddr::from_index(1));
        assert!(log.is_empty(), "stable binding is silent");
        m.observe(SimTime::from_secs(3), ip, MacAddr::from_index(66));
        assert_eq!(log.len(), 1);
        let alert = &log.alerts()[0];
        assert_eq!(alert.kind, AlertKind::BindingChanged);
        assert_eq!(alert.expected_mac, Some(MacAddr::from_index(1)));
        assert_eq!(alert.observed_mac, Some(MacAddr::from_index(66)));
    }

    #[test]
    fn learning_window_blindness() {
        // The structural weakness: if the forged binding arrives first,
        // it IS the baseline — and the *legitimate* traffic later raises
        // the alert (pointing at the victim).
        let (mut m, log) = monitor();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        m.observe(SimTime::from_secs(1), ip, MacAddr::from_index(66)); // forged first
        assert!(log.is_empty());
        m.observe(SimTime::from_secs(2), ip, MacAddr::from_index(1)); // truth second
        assert_eq!(log.len(), 1);
        assert_eq!(log.alerts()[0].observed_mac, Some(MacAddr::from_index(1)));
    }

    #[test]
    fn alert_throttling() {
        let (mut m, log) = monitor();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        m.observe(SimTime::from_secs(1), ip, MacAddr::from_index(1));
        for s in 2..8 {
            m.observe(SimTime::from_secs(s), ip, MacAddr::from_index(66));
            m.observe(SimTime::from_secs(s), ip, MacAddr::from_index(1));
        }
        // Flip-flop every second for 6 s with a 10 s dedup window: one
        // alert per direction.
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn probes_are_ignored() {
        let (mut m, log) = monitor();
        m.observe(SimTime::from_secs(1), Ipv4Addr::UNSPECIFIED, MacAddr::from_index(5));
        assert_eq!(m.binding(Ipv4Addr::UNSPECIFIED), None);
        assert!(log.is_empty());
    }

    #[test]
    fn new_station_alerts_when_enabled() {
        let log = AlertLog::new();
        let mut m = PassiveMonitor::new(PassiveConfig { alert_on_new_station: true }, log.clone());
        m.observe(SimTime::from_secs(1), Ipv4Addr::new(10, 0, 0, 1), MacAddr::from_index(1));
        assert_eq!(log.len(), 1);
    }
}
