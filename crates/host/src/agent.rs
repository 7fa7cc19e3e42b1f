//! The one extension interface of a host: the [`HostAgent`] trait, and
//! the [`HostApi`] facade every agent drives the host through.

use std::time::Duration;

use arpshield_netsim::{eth_frame, DeviceCtx, Frame, PortId};
use arpshield_packet::{
    ArpPacket, EtherType, EthernetView, IcmpMessage, Ipv4Addr, Ipv4Cidr, MacAddr, UdpDatagram,
};

use crate::arp::EntryOrigin;
use crate::stack::{tokens, HostCore};

/// An agent's decision about an incoming ARP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpVerdict {
    /// Let processing continue (later agents, then the policy).
    Continue,
    /// Suppress the packet entirely: no cache write, no auto-reply.
    Drop,
}

/// An agent's decision about an arbitrary incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    /// Let processing continue (later agents, then the stack).
    Continue,
    /// The agent consumed the frame (e.g. an S-ARP signed reply).
    Consumed,
}

/// Something a host runs beside its own protocols: a scheme agent
/// (kernel ARP hardening, the S-ARP daemon), an application workload, or
/// the built-in DHCP client and server.
///
/// Every callback defaults to a no-op. A host walks its agents in
/// installation order, the DHCP client and server (when configured)
/// first. Frame and ARP callbacks run *before* the host's own
/// processing, and an agent that returns [`FrameVerdict::Consumed`] or
/// [`ArpVerdict::Drop`] stops the walk and the stack.
pub trait HostAgent {
    /// Called once at simulation start.
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        let _ = api;
    }

    /// Called when a timer this agent scheduled via
    /// [`HostApi::schedule`] fires.
    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, payload: u32) {
        let _ = (api, payload);
    }

    /// Called for every received frame of *any* ethertype (before ARP/IP
    /// dispatch). Lets schemes define their own wire formats.
    fn on_frame_rx(&mut self, api: &mut HostApi<'_, '_>, eth: &EthernetView<'_>) -> FrameVerdict {
        let _ = (api, eth);
        FrameVerdict::Continue
    }

    /// Called for every received ARP packet before the policy sees it.
    fn on_arp_rx(&mut self, api: &mut HostApi<'_, '_>, arp: &ArpPacket) -> ArpVerdict {
        let _ = (api, arp);
        ArpVerdict::Continue
    }

    /// Called for every UDP datagram delivered to this host (every agent
    /// sees every datagram; filter on `dst_port`).
    fn on_udp(
        &mut self,
        api: &mut HostApi<'_, '_>,
        src: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        let _ = (api, src, src_port, dst_port, payload);
    }

    /// Called when an ICMP echo reply arrives.
    fn on_icmp_reply(&mut self, api: &mut HostApi<'_, '_>, src: Ipv4Addr, sequence: u16) {
        let _ = (api, src, sequence);
    }
}

/// The facade through which an agent drives the host.
///
/// It wraps the host core and the simulator context for the duration of
/// one callback, and the serving agent's index, to which its timers are
/// routed back.
#[derive(Debug)]
pub struct HostApi<'a, 'b> {
    pub(crate) core: &'a mut HostCore,
    pub(crate) ctx: &'a mut DeviceCtx<'b>,
    agent: u16,
}

impl<'a, 'b> HostApi<'a, 'b> {
    /// The facade for the agent at `agent` in the host's list.
    pub(crate) fn new(core: &'a mut HostCore, ctx: &'a mut DeviceCtx<'b>, agent: usize) -> Self {
        HostApi { core, ctx, agent: agent as u16 }
    }

    /// Current simulation time.
    pub fn now(&self) -> arpshield_netsim::SimTime {
        self.ctx.now()
    }

    /// This host's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.core.iface.borrow().mac()
    }

    /// This host's IP, if configured.
    pub fn ip(&self) -> Option<Ipv4Addr> {
        self.core.iface.borrow().ip()
    }

    /// This host's subnet, if configured.
    pub fn subnet(&self) -> Option<Ipv4Cidr> {
        self.core.iface.borrow().subnet()
    }

    /// A deterministic random draw.
    pub fn rand_u64(&mut self) -> u64 {
        self.ctx.rng().next_u64()
    }

    /// Sends a built Ethernet frame as is.
    pub fn send_frame(&mut self, frame: Frame) {
        self.ctx.send(PortId(0), frame);
    }

    /// Broadcasts an ARP request for `target_ip` from this host.
    pub fn send_arp_request(&mut self, target_ip: Ipv4Addr) {
        self.core.send_arp_request(self.ctx, target_ip);
    }

    /// Sends an ARP probe (RFC 5227 style: zero sender IP) for
    /// `target_ip`. Probes never pollute caches, which is why active
    /// verification schemes use them.
    pub fn send_arp_probe(&mut self, target_ip: Ipv4Addr) {
        let mac = self.mac();
        let probe = ArpPacket::request(mac, Ipv4Addr::UNSPECIFIED, target_ip);
        self.ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, mac, EtherType::ARP, &probe));
        self.core.stats.borrow_mut().arp_requests_sent += 1;
    }

    /// Sends a unicast ICMP echo request to `dst` (resolving it first if
    /// needed).
    pub fn send_ping(&mut self, dst: Ipv4Addr, identifier: u16, sequence: u16) {
        let msg = IcmpMessage::echo_request(identifier, sequence, &[0x61; 16]);
        self.core.send_ipv4(self.ctx, dst, arpshield_packet::IpProtocol::Icmp, &msg);
    }

    /// Sends a UDP datagram to `dst` (resolving it first if needed).
    pub fn send_udp(&mut self, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: &[u8]) {
        let src_ip = self.ip().unwrap_or(Ipv4Addr::UNSPECIFIED);
        let dgram = UdpDatagram::new(src_port, dst_port, src_ip, dst, payload);
        self.core.send_ipv4(self.ctx, dst, arpshield_packet::IpProtocol::Udp, &dgram);
    }

    /// Schedules a callback to this agent after `delay`, with an opaque
    /// payload.
    pub fn schedule(&mut self, delay: Duration, payload: u32) {
        self.ctx.schedule_in(delay, tokens::encode(tokens::CLASS_AGENT, self.agent, payload));
    }

    /// Looks up a live cache binding.
    pub fn cache_lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.core.cache.borrow().lookup(self.ctx.now(), ip)
    }

    /// Installs a *verified* binding (used by S-ARP / probing schemes
    /// after authentication) and flushes any packets queued behind it.
    pub fn install_verified_binding(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        let now = self.ctx.now();
        self.core.cache.borrow_mut().insert_dynamic(now, ip, mac, EntryOrigin::Verified);
        self.core.flush_pending(self.ctx, ip, mac);
    }

    /// Installs a static binding.
    pub fn install_static_binding(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        let now = self.ctx.now();
        self.core.cache.borrow_mut().insert_static(now, ip, mac);
    }

    /// True when this host has an outstanding ARP request for `ip`.
    pub fn is_resolving(&self, ip: Ipv4Addr) -> bool {
        self.core.resolver.is_outstanding(ip)
    }

    /// Charges abstract work units to this host (the CPU-cost proxy used
    /// by the evaluation: e.g. one unit per inspected packet, hundreds
    /// per signature operation).
    pub fn add_work(&mut self, units: u64) {
        self.core.stats.borrow_mut().work_units += units;
    }
}
