//! The rogue DHCP server: the follow-on attack after starvation.
//!
//! Once the legitimate server's pool is exhausted, the attacker answers
//! DISCOVERs itself, handing out addresses whose default gateway (and
//! DNS) point at the attacker — a poisoning-free way to become the man
//! in the middle.

use std::time::Duration;

use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId};
use arpshield_packet::{
    DhcpMessage, DhcpMessageType, EtherType, EthernetView, IpProtocol, Ipv4Addr, Ipv4Packet,
    MacAddr, UdpDatagram, DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
};

use crate::ground_truth::{AttackEvent, AttackKind, GroundTruth};

/// Rogue server parameters.
#[derive(Debug, Clone, Copy)]
pub struct RogueDhcpServerConfig {
    /// Attacker hardware address (the rogue server answers from it).
    pub attacker_mac: MacAddr,
    /// IP the rogue server claims for itself.
    pub server_ip: Ipv4Addr,
    /// First address of the rogue pool.
    pub pool_start: Ipv4Addr,
    /// Rogue pool size.
    pub pool_size: u32,
    /// The malicious default gateway handed to victims (typically the
    /// attacker itself).
    pub evil_gateway: Ipv4Addr,
    /// Activation delay — rogue servers typically wait until the real
    /// server is starved so their offers win.
    pub start_delay: Duration,
}

/// A rogue DHCP server device.
#[derive(Debug)]
pub struct RogueDhcpServer {
    config: RogueDhcpServerConfig,
    truth: GroundTruth,
    active: bool,
    next_ip: u32,
}

const TICK_ACTIVATE: u64 = 1;

impl RogueDhcpServer {
    /// Creates a rogue server reporting into `truth`.
    pub fn new(config: RogueDhcpServerConfig, truth: GroundTruth) -> Self {
        RogueDhcpServer { config, truth, active: false, next_ip: 0 }
    }

    fn reply(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        kind: DhcpMessageType,
        client: &DhcpMessage<&[u8]>,
        yiaddr: Ipv4Addr,
    ) {
        let msg = DhcpMessage::reply(
            kind,
            client,
            yiaddr,
            self.config.server_ip,
            3600,
            Ipv4Addr::new(255, 255, 255, 0),
            self.config.evil_gateway,
        );
        let dgram = UdpDatagram::new(
            DHCP_SERVER_PORT,
            DHCP_CLIENT_PORT,
            self.config.server_ip,
            Ipv4Addr::BROADCAST,
            &msg,
        );
        let pkt =
            Ipv4Packet::new(self.config.server_ip, Ipv4Addr::BROADCAST, IpProtocol::Udp, &dgram);
        ctx.send(
            PortId(0),
            eth_frame(client.chaddr, self.config.attacker_mac, EtherType::Ipv4, &pkt),
        );
        self.truth.record(AttackEvent {
            at: ctx.now(),
            kind: AttackKind::RogueDhcp,
            forged_ip: Some(yiaddr),
            claimed_mac: Some(client.chaddr),
        });
    }
}

impl Device for RogueDhcpServer {
    fn name(&self) -> &str {
        "rogue-dhcp"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(self.config.start_delay, TICK_ACTIVATE);
    }

    fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == TICK_ACTIVATE {
            self.active = true;
        }
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        if !self.active {
            return;
        }
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
        if dgram.dst_port != DHCP_SERVER_PORT {
            return; // only client->server traffic interests us
        }
        let Ok(msg) = DhcpMessage::parse(dgram.payload) else {
            return;
        };
        // Ignore our own accomplice's forged clients (starver tag 06:66).
        if msg.chaddr.octets()[0] == 0x06 && msg.chaddr.octets()[1] == 0x66 {
            return;
        }
        match msg.message_type() {
            Some(DhcpMessageType::Discover) if self.next_ip < self.config.pool_size => {
                let ip = Ipv4Addr::from_u32(self.config.pool_start.to_u32() + self.next_ip);
                self.next_ip += 1;
                self.reply(ctx, DhcpMessageType::Offer, &msg, ip);
            }
            // Ack any request naming us as the server.
            Some(DhcpMessageType::Request) if msg.server_id() == Some(self.config.server_ip) => {
                let ip = msg.requested_ip().unwrap_or(msg.ciaddr);
                self.reply(ctx, DhcpMessageType::Ack, &msg, ip);
            }
            _ => {}
        }
    }
}

// End-to-end capture behaviour (victim binds to the evil gateway) is
// exercised in the crate integration tests.
