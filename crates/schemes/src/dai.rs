//! DHCP snooping + Dynamic ARP Inspection, as a switch ingress filter.
//!
//! The switch watches DHCP traffic on trusted ports to learn which
//! `(IP, MAC)` leases are legitimate, then validates the sender fields of
//! every ARP packet arriving on untrusted ports against that table.
//! Forged bindings never cross the switch — prevention at the fabric —
//! but only where the fabric supports it, and only for hosts whose
//! bindings the switch can learn (DHCP leases or static entries).

use std::cell::RefCell;
use std::rc::Rc;

use arpshield_netsim::hash::{FastMap, FastSet};
use arpshield_netsim::{FrameInspector, InspectVerdict, PortId, SimTime, VlanId};
use arpshield_packet::{
    ArpPacket, DhcpMessage, DhcpMessageType, EtherType, EthernetView, IpProtocol, Ipv4Addr,
    Ipv4Packet, MacAddr, UdpDatagram, DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
};
use arpshield_trace::profile;

use crate::work;
use crate::{Alert, AlertKind, AlertLog, SchemeKind};

const SCHEME: SchemeKind = SchemeKind::Dai;

/// DAI configuration.
#[derive(Debug, Clone)]
pub struct DaiConfig {
    /// Ports exempt from validation (uplinks, the DHCP server port).
    pub trusted_ports: FastSet<PortId>,
    /// Statically configured `(vlan, ip, mac)` bindings for non-DHCP
    /// hosts. VID 0 is the untagged domain of a VLAN-unaware switch.
    pub static_bindings: Vec<(VlanId, Ipv4Addr, MacAddr)>,
}

impl DaiConfig {
    /// A typical deployment: `trusted` ports uplink to infrastructure.
    pub fn new(trusted: impl IntoIterator<Item = PortId>) -> Self {
        DaiConfig { trusted_ports: trusted.into_iter().collect(), static_bindings: Vec::new() }
    }

    /// Adds a static binding for a non-DHCP host in the untagged (VID 0)
    /// domain.
    pub fn with_static(self, ip: Ipv4Addr, mac: MacAddr) -> Self {
        self.with_static_on(0, ip, mac)
    }

    /// Adds a static binding scoped to one VLAN.
    pub fn with_static_on(mut self, vlan: VlanId, ip: Ipv4Addr, mac: MacAddr) -> Self {
        self.static_bindings.push((vlan, ip, mac));
        self
    }
}

/// The snooping/inspection engine, installed into a
/// [`Switch`](arpshield_netsim::Switch) via
/// [`Switch::set_inspector`](arpshield_netsim::Switch::set_inspector).
#[derive(Debug)]
pub struct DaiInspector {
    config: DaiConfig,
    log: AlertLog,
    /// Bindings keyed per VLAN: a lease snooped on VLAN A says nothing
    /// about VLAN B, exactly as on real hardware where the snooping
    /// database is `(vlan, ip) -> mac`.
    bindings: Rc<RefCell<FastMap<(VlanId, Ipv4Addr), MacAddr>>>,
}

impl DaiInspector {
    /// Creates an inspector reporting into `log`.
    ///
    /// The static bindings move into the live table; the config keeps
    /// no second copy of them.
    pub fn new(mut config: DaiConfig, log: AlertLog) -> Self {
        let bindings: FastMap<(VlanId, Ipv4Addr), MacAddr> =
            std::mem::take(&mut config.static_bindings)
                .into_iter()
                .map(|(vlan, ip, mac)| ((vlan, ip), mac))
                .collect();
        DaiInspector { config, log, bindings: Rc::new(RefCell::new(bindings)) }
    }

    /// A shared handle onto the live `(vlan, ip) -> mac` binding table.
    pub fn table(&self) -> Rc<RefCell<FastMap<(VlanId, Ipv4Addr), MacAddr>>> {
        Rc::clone(&self.bindings)
    }

    fn deny(
        &self,
        now: SimTime,
        kind: AlertKind,
        vlan: VlanId,
        ip: Ipv4Addr,
        mac: MacAddr,
        reason: &'static str,
    ) -> InspectVerdict {
        self.log.raise(Alert {
            at: now,
            scheme: SCHEME.label(),
            kind,
            subject_ip: Some(ip),
            observed_mac: Some(mac),
            expected_mac: self.bindings.borrow().get(&(vlan, ip)).copied(),
        });
        InspectVerdict::Deny { reason }
    }

    fn snoop_dhcp(
        &self,
        eth: &EthernetView<'_>,
        trusted: bool,
        vlan: VlanId,
        now: SimTime,
    ) -> Option<InspectVerdict> {
        let pkt = Ipv4Packet::parse(eth.payload()).ok()?;
        if pkt.protocol != IpProtocol::Udp {
            return None;
        }
        let dgram = UdpDatagram::parse(pkt.payload, pkt.src, pkt.dst).ok()?;
        let is_server_msg =
            dgram.src_port == DHCP_SERVER_PORT || dgram.dst_port == DHCP_CLIENT_PORT;
        let is_client_msg = dgram.dst_port == DHCP_SERVER_PORT;
        if !is_server_msg && !is_client_msg {
            return None;
        }
        let msg = DhcpMessage::parse(dgram.payload).ok()?;
        // Drop DHCP *server* messages (OFFER/ACK/NAK) arriving on
        // untrusted ports — the rogue-DHCP-server guard that real DHCP
        // snooping provides.
        if is_server_msg && !trusted {
            return Some(self.deny(
                now,
                AlertKind::DaiViolation,
                vlan,
                pkt.src,
                eth.src(),
                "dhcp server message on untrusted port",
            ));
        }
        if trusted
            && msg.message_type() == Some(DhcpMessageType::Ack)
            && !msg.yiaddr.is_unspecified()
        {
            self.bindings.borrow_mut().insert((vlan, msg.yiaddr), msg.chaddr);
        }
        if msg.message_type() == Some(DhcpMessageType::Release) {
            // Trust releases only when the lease matches the releasing MAC.
            let matches = self
                .bindings
                .borrow()
                .get(&(vlan, msg.ciaddr))
                .map(|m| *m == msg.chaddr)
                .unwrap_or(false);
            if matches {
                self.bindings.borrow_mut().remove(&(vlan, msg.ciaddr));
            }
        }
        None
    }
}

impl FrameInspector for DaiInspector {
    fn inspect(
        &mut self,
        now: SimTime,
        ingress: PortId,
        vlan: VlanId,
        eth: &EthernetView<'_>,
    ) -> InspectVerdict {
        let _s = profile::span("dai.inspect");
        let trusted = self.config.trusted_ports.contains(&ingress);
        match eth.ethertype() {
            EtherType::Ipv4 => {
                self.log.add_work(SCHEME, work::INSPECT);
                if let Some(verdict) = self.snoop_dhcp(eth, trusted, vlan, now) {
                    return verdict;
                }
                InspectVerdict::Permit
            }
            EtherType::ARP => {
                self.log.add_work(SCHEME, work::INSPECT + work::DB_OP);
                if trusted {
                    return InspectVerdict::Permit;
                }
                let Ok(arp) = ArpPacket::parse(eth.payload()) else {
                    return InspectVerdict::Deny { reason: "unparseable arp" };
                };
                if arp.sender_ip.is_unspecified() {
                    return InspectVerdict::Permit; // probes carry no claim
                }
                let bound = self.bindings.borrow().get(&(vlan, arp.sender_ip)).copied();
                match bound {
                    Some(mac) if mac == arp.sender_mac && eth.src() == arp.sender_mac => {
                        InspectVerdict::Permit
                    }
                    Some(_) => self.deny(
                        now,
                        AlertKind::DaiViolation,
                        vlan,
                        arp.sender_ip,
                        arp.sender_mac,
                        "arp sender does not match binding table",
                    ),
                    None => self.deny(
                        now,
                        AlertKind::DaiViolation,
                        vlan,
                        arp.sender_ip,
                        arp.sender_mac,
                        "no binding for arp sender",
                    ),
                }
            }
            _ => InspectVerdict::Permit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arpshield_packet::{EthernetEmit, WireEmit};

    fn arp_frame(src: MacAddr, sender_ip: Ipv4Addr, sender_mac: MacAddr) -> Vec<u8> {
        let arp = ArpPacket::request(sender_mac, sender_ip, Ipv4Addr::new(10, 0, 0, 99));
        let mut arp = arp;
        arp.sender_mac = sender_mac;
        EthernetEmit::new(MacAddr::BROADCAST, src, EtherType::ARP, &arp).encode()
    }

    fn view(bytes: &[u8]) -> EthernetView<'_> {
        EthernetView::parse(bytes).unwrap()
    }

    const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);

    fn inspector() -> (DaiInspector, AlertLog) {
        let log = AlertLog::new();
        let config = DaiConfig::new([PortId(0)]).with_static(IP, MacAddr::from_index(5));
        (DaiInspector::new(config, log.clone()), log)
    }

    #[test]
    fn matching_binding_permits() {
        let (mut dai, log) = inspector();
        let frame = arp_frame(MacAddr::from_index(5), IP, MacAddr::from_index(5));
        assert_eq!(dai.inspect(SimTime::ZERO, PortId(1), 0, &view(&frame)), InspectVerdict::Permit);
        assert!(log.is_empty());
    }

    #[test]
    fn forged_binding_denied() {
        let (mut dai, log) = inspector();
        let frame = arp_frame(MacAddr::from_index(66), IP, MacAddr::from_index(66));
        assert!(matches!(
            dai.inspect(SimTime::ZERO, PortId(1), 0, &view(&frame)),
            InspectVerdict::Deny { .. }
        ));
        assert_eq!(log.alerts()[0].kind, AlertKind::DaiViolation);
        assert_eq!(log.alerts()[0].expected_mac, Some(MacAddr::from_index(5)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn l2_spoof_of_valid_binding_denied() {
        let (mut dai, _log) = inspector();
        // Correct ARP fields but the frame's L2 source is someone else.
        let frame = arp_frame(MacAddr::from_index(66), IP, MacAddr::from_index(5));
        assert!(matches!(
            dai.inspect(SimTime::ZERO, PortId(1), 0, &view(&frame)),
            InspectVerdict::Deny { .. }
        ));
    }

    #[test]
    fn unknown_binding_denied_probes_permitted() {
        let (mut dai, _) = inspector();
        let unknown =
            arp_frame(MacAddr::from_index(9), Ipv4Addr::new(10, 0, 0, 9), MacAddr::from_index(9));
        assert!(matches!(
            dai.inspect(SimTime::ZERO, PortId(1), 0, &view(&unknown)),
            InspectVerdict::Deny { .. }
        ));
        let probe =
            arp_frame(MacAddr::from_index(9), Ipv4Addr::UNSPECIFIED, MacAddr::from_index(9));
        assert_eq!(dai.inspect(SimTime::ZERO, PortId(1), 0, &view(&probe)), InspectVerdict::Permit);
    }

    #[test]
    fn trusted_port_bypasses() {
        let (mut dai, log) = inspector();
        let forged = arp_frame(MacAddr::from_index(66), IP, MacAddr::from_index(66));
        assert_eq!(
            dai.inspect(SimTime::ZERO, PortId(0), 0, &view(&forged)),
            InspectVerdict::Permit
        );
        assert!(log.is_empty());
    }

    #[test]
    fn bindings_are_scoped_per_vlan() {
        // The binding for IP lives on VLAN 10 only.
        let log = AlertLog::new();
        let config = DaiConfig::new([PortId(0)]).with_static_on(10, IP, MacAddr::from_index(5));
        let mut dai = DaiInspector::new(config, log.clone());
        let frame = arp_frame(MacAddr::from_index(5), IP, MacAddr::from_index(5));
        // The genuine claim validates on its own VLAN...
        assert_eq!(
            dai.inspect(SimTime::ZERO, PortId(1), 10, &view(&frame)),
            InspectVerdict::Permit
        );
        // ...but the identical frame on VLAN 20 finds no binding there:
        // a lease on one VLAN must not validate ARP on another.
        assert!(matches!(
            dai.inspect(SimTime::ZERO, PortId(1), 20, &view(&frame)),
            InspectVerdict::Deny { .. }
        ));
        assert_eq!(log.len(), 1);
        assert_eq!(log.alerts()[0].expected_mac, None, "no cross-VLAN expectation leaked");
    }

    // DHCP snooping behaviour (lease learning, rogue-server blocking) is
    // exercised in the crate integration tests with live DHCP traffic.
}
