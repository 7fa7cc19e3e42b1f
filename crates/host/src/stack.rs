//! The [`Host`] device: a full end-station stack on one simulated NIC.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId};
use arpshield_packet::{
    ArpOp, ArpPacket, EtherType, EthernetView, IcmpMessage, IcmpType, IpProtocol, Ipv4Addr,
    Ipv4Cidr, Ipv4Packet, MacAddr, UdpDatagram, WireEmit,
};

use crate::agent::{ArpVerdict, FrameVerdict, HostAgent, HostApi};
use crate::arp::{
    AdmitContext, ArpCache, ArpPolicy, CacheVerdict, Enqueued, EntryOrigin, PendingPacket,
    Resolver, RetryPolicy, RetryTick,
};
use crate::dhcp::{
    DhcpClient, DhcpClientConfig, DhcpClientInfo, DhcpServer, DhcpServerConfig, DhcpServerState,
};
use crate::iface::Interface;
use crate::stats::HostStats;

/// Timer-token encoding shared by all host subsystems.
///
/// A token packs `class << 56 | index << 32 | payload`, letting one
/// `on_timer` entry point demultiplex resolver retransmits, cache sweeps
/// and per-agent timers.
pub mod tokens {
    /// Resolver retransmit; payload is the IPv4 address being resolved.
    pub const CLASS_RESOLVER: u8 = 1;
    /// Periodic ARP-cache sweep.
    pub const CLASS_CACHE_SWEEP: u8 = 2;
    /// Agent timer; index selects the agent.
    pub const CLASS_AGENT: u8 = 3;

    /// Builds a token.
    pub fn encode(class: u8, index: u16, payload: u32) -> u64 {
        (u64::from(class) << 56) | (u64::from(index) << 32) | u64::from(payload)
    }

    /// Splits a token into `(class, index, payload)`.
    pub fn decode(token: u64) -> (u8, u16, u32) {
        ((token >> 56) as u8, (token >> 32) as u16, token as u32)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip() {
            let t = encode(CLASS_AGENT, 7, 0xdead_beef);
            assert_eq!(decode(t), (CLASS_AGENT, 7, 0xdead_beef));
            assert_eq!(decode(encode(CLASS_RESOLVER, 0, 9)), (CLASS_RESOLVER, 0, 9));
        }
    }
}

/// Construction parameters for a [`Host`].
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host name (diagnostics and reports).
    pub name: String,
    /// NIC hardware address.
    pub mac: MacAddr,
    /// Static IP configuration, if not DHCP-managed.
    pub static_ip: Option<(Ipv4Addr, Ipv4Cidr)>,
    /// Default gateway.
    pub gateway: Option<Ipv4Addr>,
    /// ARP acceptance policy.
    pub policy: ArpPolicy,
    /// Dynamic ARP entry lifetime.
    pub arp_timeout: Duration,
    /// DHCP client, for unconfigured hosts.
    pub dhcp_client: Option<DhcpClientConfig>,
    /// DHCP server (typically on the gateway).
    pub dhcp_server: Option<DhcpServerConfig>,
    /// Whether the host announces itself with gratuitous ARP on
    /// configuration (boot or DHCP bind) — benign traffic monitors must
    /// not misread.
    pub announce_gratuitous: bool,
    /// ARP retransmit policy (defaults to the classic fixed schedule).
    pub resolver_retry: RetryPolicy,
}

impl HostConfig {
    /// A statically addressed host.
    pub fn static_ip(
        name: impl Into<String>,
        mac: MacAddr,
        ip: Ipv4Addr,
        subnet: Ipv4Cidr,
    ) -> Self {
        HostConfig {
            name: name.into(),
            mac,
            static_ip: Some((ip, subnet)),
            gateway: None,
            policy: ArpPolicy::default(),
            arp_timeout: Duration::from_secs(60),
            dhcp_client: None,
            dhcp_server: None,
            announce_gratuitous: false,
            resolver_retry: RetryPolicy::default(),
        }
    }

    /// A DHCP-managed host.
    pub fn dhcp(name: impl Into<String>, mac: MacAddr, client: DhcpClientConfig) -> Self {
        HostConfig {
            name: name.into(),
            mac,
            static_ip: None,
            gateway: None,
            policy: ArpPolicy::default(),
            arp_timeout: Duration::from_secs(60),
            dhcp_client: Some(client),
            dhcp_server: None,
            announce_gratuitous: false,
            resolver_retry: RetryPolicy::default(),
        }
    }

    /// Sets the ARP acceptance policy.
    pub fn with_policy(mut self, policy: ArpPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the dynamic ARP entry lifetime.
    pub fn with_arp_timeout(mut self, timeout: Duration) -> Self {
        self.arp_timeout = timeout;
        self
    }

    /// Attaches a DHCP server.
    pub fn with_dhcp_server(mut self, server: DhcpServerConfig) -> Self {
        self.dhcp_server = Some(server);
        self
    }

    /// Enables gratuitous-ARP self-announcement.
    pub fn with_gratuitous_announce(mut self) -> Self {
        self.announce_gratuitous = true;
        self
    }

    /// Sets the ARP retransmit policy.
    pub fn with_resolver_retry(mut self, policy: RetryPolicy) -> Self {
        self.resolver_retry = policy;
        self
    }
}

/// The mutable core every subsystem operates through.
#[derive(Debug)]
pub struct HostCore {
    pub(crate) name: String,
    pub(crate) iface: Rc<RefCell<Interface>>,
    pub(crate) policy: ArpPolicy,
    pub(crate) cache: Rc<RefCell<ArpCache>>,
    pub(crate) resolver: Resolver,
    pub(crate) stats: Rc<RefCell<HostStats>>,
    pub(crate) announce_gratuitous: bool,
}

impl HostCore {
    pub(crate) fn send_arp_request(&mut self, ctx: &mut DeviceCtx<'_>, target_ip: Ipv4Addr) {
        let (mac, ip) = {
            let iface = self.iface.borrow();
            (iface.mac(), iface.ip().unwrap_or(Ipv4Addr::UNSPECIFIED))
        };
        let arp = ArpPacket::request(mac, ip, target_ip);
        self.stats.borrow_mut().arp_requests_sent += 1;
        ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, mac, EtherType::ARP, &arp));
    }

    pub(crate) fn maybe_announce(&mut self, ctx: &mut DeviceCtx<'_>) {
        if !self.announce_gratuitous {
            return;
        }
        let (mac, ip) = {
            let iface = self.iface.borrow();
            (iface.mac(), iface.ip())
        };
        if let Some(ip) = ip {
            let arp = ArpPacket::gratuitous(ArpOp::Request, mac, ip);
            self.stats.borrow_mut().arp_requests_sent += 1;
            ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, mac, EtherType::ARP, &arp));
        }
    }

    fn transmit_ipv4<P: WireEmit + ?Sized>(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        protocol: IpProtocol,
        payload: &P,
    ) {
        let (mac, src_ip) = {
            let iface = self.iface.borrow();
            (iface.mac(), iface.ip().unwrap_or(Ipv4Addr::UNSPECIFIED))
        };
        let pkt = Ipv4Packet::new(src_ip, dst_ip, protocol, payload);
        self.stats.borrow_mut().ipv4_sent += 1;
        ctx.send(PortId(0), eth_frame(dst_mac, mac, EtherType::Ipv4, &pkt));
    }

    /// Sends an IPv4 payload toward `dst`, resolving the next hop through
    /// ARP (queuing behind an outstanding resolution when necessary).
    /// The payload is encoded straight into the frame; only a packet
    /// that must wait for a resolution is encoded on its own.
    pub(crate) fn send_ipv4<P: WireEmit + ?Sized>(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: &P,
    ) {
        if dst.is_limited_broadcast() {
            self.transmit_ipv4(ctx, MacAddr::BROADCAST, dst, protocol, payload);
            return;
        }
        let next_hop = self.iface.borrow().next_hop(dst);
        let Some(next_hop) = next_hop else {
            self.stats.borrow_mut().ipv4_send_failures += 1;
            return;
        };
        let cached = self.cache.borrow().lookup(ctx.now(), next_hop);
        match cached {
            Some(mac) => self.transmit_ipv4(ctx, mac, dst, protocol, payload),
            None => {
                let packet = || PendingPacket { dst_ip: dst, protocol, payload: payload.encode() };
                match self.resolver.enqueue(ctx.now(), next_hop, packet) {
                    Enqueued::Fresh => {
                        self.send_arp_request(ctx, next_hop);
                        ctx.schedule_in(
                            self.resolver.first_delay(),
                            tokens::encode(tokens::CLASS_RESOLVER, 0, next_hop.to_u32()),
                        );
                    }
                    Enqueued::Queued => {}
                    Enqueued::Overflow => self.stats.borrow_mut().ipv4_send_failures += 1,
                }
            }
        }
    }

    pub(crate) fn send_udp_broadcast<P: WireEmit + ?Sized>(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        src_port: u16,
        dst_port: u16,
        payload: &P,
    ) {
        let src_ip = self.iface.borrow().ip().unwrap_or(Ipv4Addr::UNSPECIFIED);
        let dgram = UdpDatagram::new(src_port, dst_port, src_ip, Ipv4Addr::BROADCAST, payload);
        self.transmit_ipv4(ctx, MacAddr::BROADCAST, Ipv4Addr::BROADCAST, IpProtocol::Udp, &dgram);
    }

    pub(crate) fn send_udp_to_mac<P: WireEmit + ?Sized>(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &P,
    ) {
        let src_ip = self.iface.borrow().ip().unwrap_or(Ipv4Addr::UNSPECIFIED);
        let dgram = UdpDatagram::new(src_port, dst_port, src_ip, dst_ip, payload);
        self.transmit_ipv4(ctx, dst_mac, dst_ip, IpProtocol::Udp, &dgram);
    }

    /// Flushes packets queued behind the now-resolved `ip`.
    pub(crate) fn flush_pending(&mut self, ctx: &mut DeviceCtx<'_>, ip: Ipv4Addr, mac: MacAddr) {
        if let Some((packets, first_requested)) = self.resolver.complete(ip) {
            {
                let mut stats = self.stats.borrow_mut();
                stats.resolutions_completed += 1;
                stats.resolution_latency_total += ctx.now().saturating_since(first_requested);
            }
            ctx.tracer().observe(
                "host.resolution_latency_ns",
                ctx.now().saturating_since(first_requested).as_nanos() as u64,
            );
            for p in packets {
                self.transmit_ipv4(ctx, mac, p.dst_ip, p.protocol, &p.payload[..]);
            }
        }
    }
}

/// Shared inspection handle for a [`Host`].
#[derive(Debug, Clone)]
pub struct HostHandle {
    name: String,
    /// The live ARP cache.
    pub cache: Rc<RefCell<ArpCache>>,
    /// Live counters.
    pub stats: Rc<RefCell<HostStats>>,
    /// The live interface configuration.
    pub iface_ref: Rc<RefCell<Interface>>,
    /// DHCP client state, when the host runs one.
    pub dhcp_client: Option<Rc<RefCell<DhcpClientInfo>>>,
    /// DHCP server state, when the host runs one.
    pub dhcp_server: Option<Rc<RefCell<DhcpServerState>>>,
}

impl HostHandle {
    /// Host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot of the interface configuration.
    pub fn iface(&self) -> Interface {
        *self.iface_ref.borrow()
    }

    /// The hardware address.
    pub fn mac(&self) -> MacAddr {
        self.iface_ref.borrow().mac()
    }

    /// The current IP, if configured.
    pub fn ip(&self) -> Option<Ipv4Addr> {
        self.iface_ref.borrow().ip()
    }
}

/// A simulated end host.
pub struct Host {
    core: HostCore,
    /// Every agent the host runs, in installation order.
    agents: Vec<Box<dyn HostAgent>>,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("name", &self.core.name)
            .field("agents", &self.agents.len())
            .finish()
    }
}

impl Host {
    /// Builds a host from its configuration; returns the device and a
    /// shared inspection handle.
    pub fn new(config: HostConfig) -> (Self, HostHandle) {
        let mut iface = Interface::unconfigured(config.mac);
        if let Some((ip, subnet)) = config.static_ip {
            iface.configure(ip, subnet, config.gateway);
        }
        let iface = Rc::new(RefCell::new(iface));
        let cache = Rc::new(RefCell::new(ArpCache::new(config.arp_timeout)));
        let stats = Rc::new(RefCell::new(HostStats::default()));
        // The DHCP client and server are the first agents, so UDP
        // reaches them before any the caller installs.
        let mut agents: Vec<Box<dyn HostAgent>> = Vec::new();
        let client_info = config.dhcp_client.map(|cfg| {
            let (client, info) = DhcpClient::new(cfg);
            agents.push(Box::new(client));
            info
        });
        let server_state = config.dhcp_server.map(|cfg| {
            let (server, state) = DhcpServer::new(cfg);
            agents.push(Box::new(server));
            state
        });
        let handle = HostHandle {
            name: config.name.clone(),
            cache: Rc::clone(&cache),
            stats: Rc::clone(&stats),
            iface_ref: Rc::clone(&iface),
            dhcp_client: client_info,
            dhcp_server: server_state,
        };
        (
            Host {
                core: HostCore {
                    name: config.name,
                    iface,
                    policy: config.policy,
                    cache,
                    resolver: Resolver::new(config.resolver_retry),
                    stats,
                    announce_gratuitous: config.announce_gratuitous,
                },
                agents,
            },
            handle,
        )
    }

    /// Installs an agent: a scheme agent or an application workload.
    /// Agents see every callback in installation order, after the DHCP
    /// client and server.
    pub fn add_agent(&mut self, agent: Box<dyn HostAgent>) {
        self.agents.push(agent);
    }

    /// The host's ARP policy.
    pub fn policy(&self) -> ArpPolicy {
        self.core.policy
    }

    fn handle_arp(core: &mut HostCore, ctx: &mut DeviceCtx<'_>, arp: &ArpPacket) {
        let (my_mac, my_ip) = {
            let iface = core.iface.borrow();
            (iface.mac(), iface.ip())
        };
        if arp.sender_mac == my_mac {
            return; // our own chatter reflected by a hub
        }
        let is_reply = arp.op == ArpOp::Reply;
        let addressed_to_us = if is_reply {
            arp.target_mac == my_mac || (my_ip.is_some() && Some(arp.target_ip) == my_ip)
        } else {
            my_ip.is_some() && Some(arp.target_ip) == my_ip
        };
        let admit_ctx = AdmitContext {
            have_entry: core.cache.borrow().entry(arp.sender_ip).is_some(),
            outstanding_request: core.resolver.is_outstanding(arp.sender_ip),
            addressed_to_us,
            is_reply,
        };
        let verdict = core.policy.admit(arp, admit_ctx);
        let origin = if is_reply {
            if admit_ctx.outstanding_request {
                EntryOrigin::SolicitedReply
            } else {
                EntryOrigin::UnsolicitedReply
            }
        } else {
            EntryOrigin::Request
        };
        let tracer = ctx.tracer();
        let learned = match verdict {
            CacheVerdict::CreateOrUpdate => core.cache.borrow_mut().insert_dynamic(
                ctx.now(),
                arp.sender_ip,
                arp.sender_mac,
                origin,
            ),
            CacheVerdict::UpdateOnly => {
                admit_ctx.have_entry
                    && core.cache.borrow_mut().insert_dynamic(
                        ctx.now(),
                        arp.sender_ip,
                        arp.sender_mac,
                        origin,
                    )
            }
            CacheVerdict::Ignore => false,
        };
        if learned {
            let category =
                if admit_ctx.have_entry { "host.cache.update" } else { "host.cache.create" };
            // A frame that rewrote an ARP cache is forensic evidence
            // whether or not a scheme ever alerts on it: pin it so a
            // capture's timeline can always show the octets behind
            // every cache mutation.
            tracer.pin_current();
            tracer.count(category, 1);
            tracer.event(ctx.now().as_nanos(), category, || {
                (
                    core.name.clone(),
                    format!("ip={} mac={} origin={:?}", arp.sender_ip, arp.sender_mac, origin),
                )
            });
        } else if is_reply || addressed_to_us {
            tracer.count("host.policy.reject", 1);
            tracer.event(ctx.now().as_nanos(), "host.policy.reject", || {
                (
                    core.name.clone(),
                    format!(
                        "ip={} mac={} origin={:?} policy={:?}",
                        arp.sender_ip, arp.sender_mac, origin, core.policy
                    ),
                )
            });
        }
        if admit_ctx.outstanding_request && learned {
            core.flush_pending(ctx, arp.sender_ip, arp.sender_mac);
        }
        // Answer requests (including RFC 5227 probes) for our address.
        if !is_reply && my_ip.is_some() && Some(arp.target_ip) == my_ip {
            let reply = ArpPacket::reply_to(arp, my_mac);
            core.stats.borrow_mut().arp_replies_sent += 1;
            ctx.send(PortId(0), eth_frame(arp.sender_mac, my_mac, EtherType::ARP, &reply));
        }
    }

    fn handle_ipv4(
        core: &mut HostCore,
        agents: &mut [Box<dyn HostAgent>],
        ctx: &mut DeviceCtx<'_>,
        eth: &EthernetView<'_>,
    ) {
        let Ok(pkt) = Ipv4Packet::parse(eth.payload()) else {
            return;
        };
        let (my_mac, my_ip, subnet) = {
            let iface = core.iface.borrow();
            (iface.mac(), iface.ip(), iface.subnet())
        };
        let for_me = Some(pkt.dst) == my_ip;
        let broadcast = pkt.dst.is_limited_broadcast()
            || subnet.map(|s| s.broadcast() == pkt.dst).unwrap_or(false);
        if !for_me && !broadcast {
            return; // hosts are not routers
        }
        match pkt.protocol {
            IpProtocol::Icmp => {
                let Ok(icmp) = IcmpMessage::parse(pkt.payload) else {
                    return;
                };
                match icmp.icmp_type {
                    IcmpType::EchoRequest if for_me => {
                        let reply = IcmpMessage::reply_to(&icmp);
                        // Reply along the reverse L2 path the request took.
                        let ip_reply =
                            Ipv4Packet::new(my_ip.unwrap(), pkt.src, IpProtocol::Icmp, &reply);
                        core.stats.borrow_mut().icmp_echoes_answered += 1;
                        core.stats.borrow_mut().ipv4_sent += 1;
                        let frame = eth_frame(eth.src(), my_mac, EtherType::Ipv4, &ip_reply);
                        ctx.send(PortId(0), frame);
                    }
                    IcmpType::EchoReply if for_me => {
                        core.stats.borrow_mut().icmp_replies_received += 1;
                        for (i, agent) in agents.iter_mut().enumerate() {
                            let mut api = HostApi::new(core, ctx, i);
                            agent.on_icmp_reply(&mut api, pkt.src, icmp.sequence);
                        }
                    }
                    _ => {}
                }
            }
            IpProtocol::Udp => {
                let Ok(dgram) = UdpDatagram::parse(pkt.payload, pkt.src, pkt.dst) else {
                    return;
                };
                core.stats.borrow_mut().udp_delivered += 1;
                for (i, agent) in agents.iter_mut().enumerate() {
                    let mut api = HostApi::new(core, ctx, i);
                    agent.on_udp(&mut api, pkt.src, dgram.src_port, dgram.dst_port, dgram.payload);
                }
            }
            _ => {}
        }
    }
}

impl Device for Host {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        let Host { core, agents } = self;
        let sweep = (core.cache.borrow().timeout() / 2).max(Duration::from_secs(1));
        ctx.schedule_in(sweep, tokens::encode(tokens::CLASS_CACHE_SWEEP, 0, 0));
        core.maybe_announce(ctx);
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.on_start(&mut HostApi::new(core, ctx, i));
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        let Host { core, agents } = self;
        let (class, index, payload) = tokens::decode(token);
        match class {
            tokens::CLASS_RESOLVER => {
                let ip = Ipv4Addr::from_u32(payload);
                let tracer = ctx.tracer();
                match core.resolver.tick_retry(ip) {
                    Some(RetryTick::Retransmit { next_delay }) => {
                        tracer.count("host.resolver.retransmit", 1);
                        tracer.event(ctx.now().as_nanos(), "host.resolver.retransmit", || {
                            (
                                core.name.clone(),
                                format!("ip={ip} next_delay_ns={}", next_delay.as_nanos()),
                            )
                        });
                        core.send_arp_request(ctx, ip);
                        ctx.schedule_in(next_delay, token);
                    }
                    Some(RetryTick::Exhausted { dropped }) => {
                        let mut stats = core.stats.borrow_mut();
                        stats.resolutions_failed += 1;
                        stats.ipv4_send_failures += dropped as u64;
                        drop(stats);
                        tracer.count("host.resolver.giveup", 1);
                        tracer.event(ctx.now().as_nanos(), "host.resolver.giveup", || {
                            (core.name.clone(), format!("ip={ip} dropped_packets={dropped}"))
                        });
                    }
                    None => {}
                }
            }
            tokens::CLASS_CACHE_SWEEP => {
                core.cache.borrow_mut().sweep(ctx.now());
                let sweep = (core.cache.borrow().timeout() / 2).max(Duration::from_secs(1));
                ctx.schedule_in(sweep, token);
            }
            tokens::CLASS_AGENT => {
                let index = usize::from(index);
                if let Some(agent) = agents.get_mut(index) {
                    agent.on_timer(&mut HostApi::new(core, ctx, index), payload);
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        let Host { core, agents } = self;
        let Ok(eth) = EthernetView::parse_strict(frame) else {
            return;
        };
        let my_mac = core.iface.borrow().mac();
        let dst = eth.dst();
        if dst != my_mac && !dst.is_broadcast() && !dst.is_multicast() {
            return; // NIC filter: not for us
        }
        for (i, agent) in agents.iter_mut().enumerate() {
            if agent.on_frame_rx(&mut HostApi::new(core, ctx, i), &eth) == FrameVerdict::Consumed {
                return;
            }
        }
        match eth.ethertype() {
            EtherType::ARP => {
                let Ok(arp) = ArpPacket::parse(eth.payload()) else {
                    return;
                };
                for (i, agent) in agents.iter_mut().enumerate() {
                    if agent.on_arp_rx(&mut HostApi::new(core, ctx, i), &arp) == ArpVerdict::Drop {
                        core.stats.borrow_mut().hook_drops += 1;
                        return;
                    }
                }
                Host::handle_arp(core, ctx, &arp);
            }
            EtherType::Ipv4 => Host::handle_ipv4(core, agents, ctx, &eth),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::apps::{PingApp, UdpEchoServer};
    use arpshield_netsim::{SimTime, Simulator, Switch, SwitchConfig};
    use arpshield_trace::{install, TraceCollector, Tracer};

    fn cidr() -> Ipv4Cidr {
        Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)
    }

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// Builds a switched LAN with `n` static hosts 10.0.0.1..=n; returns
    /// (sim, handles). Host i is on switch port i-1, configured by
    /// `build(i, config)` and then changed by `mutate(i, host)`.
    fn lan(
        n: u8,
        build: impl Fn(u8, HostConfig) -> HostConfig,
        mut mutate: impl FnMut(u8, &mut Host),
    ) -> (Simulator, Vec<HostHandle>) {
        let mut sim = Simulator::new(7);
        let (sw, _) =
            Switch::new("sw", SwitchConfig { ports: usize::from(n) + 2, ..Default::default() });
        let sw = sim.add_device(Box::new(sw));
        let mut handles = Vec::new();
        for i in 1..=n {
            let config = build(
                i,
                HostConfig::static_ip(
                    format!("h{i}"),
                    MacAddr::from_index(u32::from(i)),
                    ip(i),
                    cidr(),
                ),
            );
            let (mut host, handle) = Host::new(config);
            mutate(i, &mut host);
            let id = sim.add_device(Box::new(host));
            sim.connect(id, PortId(0), sw, PortId(u16::from(i) - 1), Duration::from_micros(5))
                .unwrap();
            handles.push(handle);
        }
        (sim, handles)
    }

    fn lan_with_hosts(n: u8, mutate: impl FnMut(u8, &mut Host)) -> (Simulator, Vec<HostHandle>) {
        lan(n, |_, config| config, mutate)
    }

    #[test]
    fn ping_resolves_and_round_trips() {
        let mut sim = Simulator::new(1);
        let (sw, _) = Switch::new("sw", SwitchConfig::default());
        let sw = sim.add_device(Box::new(sw));
        let (mut alice, alice_h) =
            Host::new(HostConfig::static_ip("alice", MacAddr::from_index(1), ip(1), cidr()));
        let (ping, ping_stats) = PingApp::new(ip(2), Duration::from_millis(100));
        alice.add_agent(Box::new(ping));
        let (bob, bob_h) =
            Host::new(HostConfig::static_ip("bob", MacAddr::from_index(2), ip(2), cidr()));
        let a = sim.add_device(Box::new(alice));
        let b = sim.add_device(Box::new(bob));
        sim.connect(a, PortId(0), sw, PortId(0), Duration::from_micros(5)).unwrap();
        sim.connect(b, PortId(0), sw, PortId(1), Duration::from_micros(5)).unwrap();
        sim.run_until(SimTime::from_secs(2));

        let stats = ping_stats.borrow();
        assert!(stats.sent >= 15, "sent {}", stats.sent);
        assert_eq!(stats.sent, stats.received, "all pings should be answered");
        assert!(stats.mean_rtt().unwrap() < Duration::from_millis(1));
        // ARP resolved once, cached thereafter.
        assert_eq!(alice_h.stats.borrow().resolutions_completed, 1);
        assert_eq!(
            alice_h.cache.borrow().lookup(SimTime::from_secs(2), ip(2)),
            Some(MacAddr::from_index(2))
        );
        // Bob learned alice from her request (addressed to him).
        assert_eq!(
            bob_h.cache.borrow().lookup(SimTime::from_secs(2), ip(1)),
            Some(MacAddr::from_index(1))
        );
        assert!(bob_h.stats.borrow().icmp_echoes_answered >= 15);
    }

    #[test]
    fn resolution_failure_gives_up_after_retries() {
        // Ping a dead address: requests retransmit, then the queue drops.
        let (mut sim, handles) = lan_with_hosts(1, |_, host| {
            let (ping, _) = PingApp::new(ip(99), Duration::from_millis(500));
            host.add_agent(Box::new(ping));
        });
        sim.run_until(SimTime::from_secs(10));
        let stats = handles[0].stats.borrow();
        assert!(stats.resolutions_failed >= 1);
        assert!(stats.ipv4_send_failures >= 1);
        assert!(
            stats.arp_requests_sent >= 4,
            "initial + 3 retries, got {}",
            stats.arp_requests_sent
        );
        assert_eq!(stats.resolutions_completed, 0);
    }

    #[test]
    fn exponential_backoff_spaces_retransmissions_and_counts_give_up() {
        // One datagram toward a dead address at t = 100 ms under an
        // exponential policy: the request goes out at 100 ms, retries
        // follow after 0.5 s, 1 s, 2 s, 2 s (capped), then give-up at
        // 7.6 s. Five requests on the wire, four of them retries, one
        // abandoned resolution.
        struct OneShot;
        impl HostAgent for OneShot {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.schedule(Duration::from_millis(100), 0);
            }
            fn on_timer(&mut self, api: &mut HostApi<'_, '_>, _: u32) {
                api.send_udp(Ipv4Addr::new(10, 0, 0, 99), 5555, 7000, b"void");
            }
        }
        let policy =
            RetryPolicy::exponential(Duration::from_millis(500), 4, Duration::from_secs(2));
        let mut sim = Simulator::new(9);
        let (sw, _) = Switch::new("sw", SwitchConfig::default());
        let sw = sim.add_device(Box::new(sw));
        let (mut host, handle) = Host::new(
            HostConfig::static_ip("h", MacAddr::from_index(1), ip(1), cidr())
                .with_resolver_retry(policy),
        );
        host.add_agent(Box::new(OneShot));
        let id = sim.add_device(Box::new(host));
        sim.connect(id, PortId(0), sw, PortId(0), Duration::from_micros(5)).unwrap();

        let collector = Arc::new(TraceCollector::new());
        {
            let _guard = install(Arc::clone(&collector));
            sim.set_tracer(Tracer::for_current_run("backoff"));
        }

        // Before the first backoff interval only the initial request is out.
        sim.run_until(SimTime::from_millis(550));
        assert_eq!(handle.stats.borrow().arp_requests_sent, 1);
        // 0.6 s and 1.6 s marks: first and second retransmissions.
        sim.run_until(SimTime::from_millis(1100));
        assert_eq!(handle.stats.borrow().arp_requests_sent, 2);
        sim.run_until(SimTime::from_millis(2100));
        assert_eq!(handle.stats.borrow().arp_requests_sent, 3);
        // Run out the schedule: 3.6 s and 5.6 s retries, 7.6 s give-up.
        sim.run_until(SimTime::from_secs(10));
        drop(sim); // the last tracer handle flushes the run
        let stats = handle.stats.borrow();
        assert_eq!(stats.arp_requests_sent, 5);
        assert_eq!(stats.resolutions_failed, 1, "give-up must be counted once");
        assert_eq!(stats.ipv4_send_failures, 1, "the queued datagram was dropped");
        let retransmits =
            collector.manifest("backoff").totals.get("host.resolver.retransmit").copied();
        assert_eq!(retransmits, Some(4));
    }

    #[test]
    fn udp_echo_round_trip() {
        let (mut sim, handles) = lan_with_hosts(2, |i, host| {
            if i == 2 {
                host.add_agent(Box::new(UdpEchoServer::new(7000)));
            } else {
                let (ping, _) = PingApp::new(ip(2), Duration::from_secs(10)); // keep cache warm
                host.add_agent(Box::new(ping));
                struct Sender {
                    got: u64,
                }
                impl HostAgent for Sender {
                    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                        api.schedule(Duration::from_millis(50), 0);
                    }
                    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, _: u32) {
                        api.send_udp(Ipv4Addr::new(10, 0, 0, 2), 5555, 7000, b"hello");
                    }
                    fn on_udp(
                        &mut self,
                        _api: &mut HostApi<'_, '_>,
                        _src: Ipv4Addr,
                        _sp: u16,
                        dp: u16,
                        payload: &[u8],
                    ) {
                        if dp == 5555 && payload == b"hello" {
                            self.got += 1;
                        }
                    }
                }
                host.add_agent(Box::new(Sender { got: 0 }));
            }
        });
        sim.run_until(SimTime::from_secs(1));
        // Echo delivered back: sender host received one UDP datagram.
        assert!(handles[0].stats.borrow().udp_delivered >= 1);
        assert!(handles[1].stats.borrow().udp_delivered >= 1);
    }

    #[test]
    fn static_only_policy_never_learns() {
        // Host 2 pings host 1. Static-only host 1 answers the request
        // addressed to it and, to answer the echo, asks for host 2 in
        // turn, yet learns neither host 2's request nor its reply.
        let static_only = |i, config: HostConfig| {
            if i == 1 {
                config.with_policy(ArpPolicy::StaticOnly)
            } else {
                config
            }
        };
        let (mut sim, handles) = lan(2, static_only, |i, host| {
            if i == 2 {
                let (ping, _) = PingApp::new(ip(1), Duration::from_millis(200));
                host.add_agent(Box::new(ping));
            }
        });
        let collector = Arc::new(TraceCollector::new());
        {
            let _guard = install(Arc::clone(&collector));
            sim.set_tracer(Tracer::for_current_run("static-only"));
        }
        sim.run_until(SimTime::from_secs(1));
        drop(sim); // the last tracer handle flushes the run
        assert!(
            handles[0].cache.borrow().iter().all(|(_, entry)| entry.is_static()),
            "host 1 learned a dynamic entry"
        );
        assert!(handles[0].stats.borrow().arp_replies_sent > 0, "host 1 answered host 2");
        let rejections =
            collector.manifest("static-only").totals.get("host.policy.reject").copied();
        assert!(rejections.is_some_and(|n| n > 0), "host.policy.reject read {rejections:?}");
    }

    #[test]
    fn static_entry_enables_resolution_without_arp() {
        let (mut sim, handles) = lan_with_hosts(2, |i, host| {
            if i == 1 {
                let (ping, _) = PingApp::new(ip(2), Duration::from_millis(100));
                host.add_agent(Box::new(ping));
            }
        });
        // Seed a static entry before the run.
        handles[0].cache.borrow_mut().insert_static(SimTime::ZERO, ip(2), MacAddr::from_index(2));
        sim.run_until(SimTime::from_secs(1));
        let stats = handles[0].stats.borrow();
        assert_eq!(stats.arp_requests_sent, 0, "static entry must suppress ARP");
        assert!(stats.icmp_replies_received > 0);
    }

    #[test]
    fn gratuitous_announce_updates_peers_with_entries() {
        // h2 knows h1; h1 re-announces with gratuitous ARP after its NIC
        // "changes" — peers holding an entry update it (Standard policy).
        let (mut sim, handles) = lan_with_hosts(2, |i, host| {
            if i == 2 {
                let (ping, _) = PingApp::new(ip(1), Duration::from_millis(100));
                host.add_agent(Box::new(ping));
            }
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            handles[1].cache.borrow().lookup(SimTime::from_secs(1), ip(1)),
            Some(MacAddr::from_index(1))
        );
        let origin = handles[1].cache.borrow().entry(ip(1)).unwrap().origin;
        assert_eq!(origin, EntryOrigin::SolicitedReply);
    }

    #[test]
    fn dhcp_full_acquisition() {
        let mut sim = Simulator::new(3);
        let (sw, _) = Switch::new("sw", SwitchConfig::default());
        let sw = sim.add_device(Box::new(sw));
        let gw_ip = Ipv4Addr::new(192, 168, 88, 1);
        let server_cfg = DhcpServerConfig::home_router(Ipv4Addr::new(192, 168, 88, 100), 8, gw_ip);
        let (gateway, gw_h) = Host::new(
            HostConfig::static_ip("gw", MacAddr::from_index(100), gw_ip, Ipv4Cidr::new(gw_ip, 24))
                .with_dhcp_server(server_cfg),
        );
        let (client, client_h) = Host::new(HostConfig::dhcp(
            "laptop",
            MacAddr::from_index(1),
            DhcpClientConfig::default(),
        ));
        let g = sim.add_device(Box::new(gateway));
        let c = sim.add_device(Box::new(client));
        sim.connect(g, PortId(0), sw, PortId(0), Duration::from_micros(5)).unwrap();
        sim.connect(c, PortId(0), sw, PortId(1), Duration::from_micros(5)).unwrap();
        sim.run_until(SimTime::from_secs(5));

        let info = client_h.dhcp_client.as_ref().unwrap().borrow().clone();
        assert_eq!(info.acquisitions, 1);
        let (bound_ip, _) = info.bound.unwrap();
        assert_eq!(bound_ip, Ipv4Addr::new(192, 168, 88, 100));
        assert_eq!(client_h.ip(), Some(bound_ip));
        assert_eq!(client_h.iface().gateway(), Some(gw_ip));
        let server = gw_h.dhcp_server.as_ref().unwrap().borrow().offers_sent;
        assert_eq!(server, 1);
    }

    #[test]
    fn dhcp_pool_exhaustion() {
        let mut sim = Simulator::new(4);
        let (sw, _) = Switch::new("sw", SwitchConfig { ports: 8, ..Default::default() });
        let sw = sim.add_device(Box::new(sw));
        let gw_ip = Ipv4Addr::new(192, 168, 88, 1);
        // Pool of 2 addresses, 3 clients: one starves.
        let server_cfg = DhcpServerConfig::home_router(Ipv4Addr::new(192, 168, 88, 100), 2, gw_ip);
        let (gateway, gw_h) = Host::new(
            HostConfig::static_ip("gw", MacAddr::from_index(100), gw_ip, Ipv4Cidr::new(gw_ip, 24))
                .with_dhcp_server(server_cfg),
        );
        let g = sim.add_device(Box::new(gateway));
        sim.connect(g, PortId(0), sw, PortId(0), Duration::from_micros(5)).unwrap();
        let mut client_handles = Vec::new();
        for i in 1..=3u16 {
            let (client, h) = Host::new(HostConfig::dhcp(
                format!("c{i}"),
                MacAddr::from_index(u32::from(i)),
                DhcpClientConfig::default(),
            ));
            let c = sim.add_device(Box::new(client));
            sim.connect(c, PortId(0), sw, PortId(i), Duration::from_micros(5)).unwrap();
            client_handles.push(h);
        }
        sim.run_until(SimTime::from_secs(10));
        let bound = client_handles
            .iter()
            .filter(|h| h.dhcp_client.as_ref().unwrap().borrow().bound.is_some())
            .count();
        assert_eq!(bound, 2, "only pool_size clients can bind");
        assert!(gw_h.dhcp_server.as_ref().unwrap().borrow().exhaustion_events > 0);
    }

    #[test]
    fn dhcp_lease_churn_releases_and_reacquires() {
        let mut sim = Simulator::new(5);
        let (sw, _) = Switch::new("sw", SwitchConfig::default());
        let sw = sim.add_device(Box::new(sw));
        let gw_ip = Ipv4Addr::new(192, 168, 88, 1);
        let server_cfg = DhcpServerConfig::home_router(Ipv4Addr::new(192, 168, 88, 100), 4, gw_ip);
        let (gateway, _gw_h) = Host::new(
            HostConfig::static_ip("gw", MacAddr::from_index(100), gw_ip, Ipv4Cidr::new(gw_ip, 24))
                .with_dhcp_server(server_cfg),
        );
        let client_cfg = DhcpClientConfig {
            lease_hold: Some(Duration::from_secs(5)),
            ..DhcpClientConfig::default()
        };
        let (client, client_h) =
            Host::new(HostConfig::dhcp("roamer", MacAddr::from_index(1), client_cfg));
        let g = sim.add_device(Box::new(gateway));
        let c = sim.add_device(Box::new(client));
        sim.connect(g, PortId(0), sw, PortId(0), Duration::from_micros(5)).unwrap();
        sim.connect(c, PortId(0), sw, PortId(1), Duration::from_micros(5)).unwrap();
        sim.run_until(SimTime::from_secs(30));
        let info = client_h.dhcp_client.as_ref().unwrap().borrow().clone();
        assert!(info.acquisitions >= 3, "expected churn, got {} acquisitions", info.acquisitions);
    }

    #[test]
    fn resolution_queue_overflow_counts_every_dropped_datagram() {
        // Forty datagrams toward an address that never answers, sent at
        // once: sixteen wait on the resolution and are dropped when it
        // gives up, the other twenty-four find the queue full. Each is
        // one send failure.
        struct Burst;
        impl HostAgent for Burst {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.schedule(Duration::from_millis(100), 0);
            }
            fn on_timer(&mut self, api: &mut HostApi<'_, '_>, _: u32) {
                for _ in 0..40 {
                    api.send_udp(ip(99), 5555, 7000, b"void");
                }
            }
        }
        let (mut sim, handles) = lan_with_hosts(1, |_, host| host.add_agent(Box::new(Burst)));
        sim.run_until(SimTime::from_secs(10));
        let stats = handles[0].stats.borrow();
        assert_eq!(stats.resolutions_failed, 1);
        assert_eq!(stats.ipv4_send_failures, 40);
    }

    /// Logs every callback it sees as `"<tag> <callback>"` and answers
    /// frames and ARP packets with the verdicts it was built with.
    struct Recorder {
        tag: &'static str,
        log: Rc<RefCell<Vec<String>>>,
        frame: FrameVerdict,
        arp: ArpVerdict,
        /// What the log notes beside each UDP datagram.
        udp_note: Box<dyn Fn(&HostApi<'_, '_>) -> String>,
    }

    impl Recorder {
        fn new(tag: &'static str, log: &Rc<RefCell<Vec<String>>>) -> Self {
            Recorder {
                tag,
                log: Rc::clone(log),
                frame: FrameVerdict::Continue,
                arp: ArpVerdict::Continue,
                udp_note: Box::new(|_| String::new()),
            }
        }

        fn record(&self, event: String) {
            self.log.borrow_mut().push(format!("{} {event}", self.tag));
        }
    }

    impl HostAgent for Recorder {
        fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
            self.record("start".into());
            // Every recorder asks for the same payload at the same time.
            api.schedule(Duration::from_millis(10), 7);
        }
        fn on_timer(&mut self, _api: &mut HostApi<'_, '_>, payload: u32) {
            self.record(format!("timer {payload}"));
        }
        fn on_frame_rx(
            &mut self,
            _api: &mut HostApi<'_, '_>,
            _eth: &EthernetView<'_>,
        ) -> FrameVerdict {
            self.record("frame".into());
            self.frame
        }
        fn on_arp_rx(&mut self, _api: &mut HostApi<'_, '_>, _arp: &ArpPacket) -> ArpVerdict {
            self.record("arp".into());
            self.arp
        }
        fn on_udp(
            &mut self,
            api: &mut HostApi<'_, '_>,
            _src: Ipv4Addr,
            _src_port: u16,
            dst_port: u16,
            _payload: &[u8],
        ) {
            self.record(format!("udp {dst_port} {}", (self.udp_note)(api)));
        }
        fn on_icmp_reply(&mut self, _api: &mut HostApi<'_, '_>, _src: Ipv4Addr, _seq: u16) {
            self.record("icmp-reply".into());
        }
    }

    #[test]
    fn agents_see_callbacks_in_installation_order_after_dhcp() {
        let mut sim = Simulator::new(11);
        let (sw, _) = Switch::new("sw", SwitchConfig { ports: 8, ..Default::default() });
        let sw = sim.add_device(Box::new(sw));
        let attach = |sim: &mut Simulator, host: Host, port: u16| {
            let id = sim.add_device(Box::new(host));
            sim.connect(id, PortId(0), sw, PortId(port), Duration::from_micros(5)).unwrap();
        };
        let log = || Rc::new(RefCell::new(Vec::<String>::new()));

        // A DHCP server with two recorders that note, at each datagram,
        // how many offers the server has made.
        let (gw_log, laptop_log, dropper_log, eater_log) = (log(), log(), log(), log());
        let (mut gw, gw_h) = Host::new(
            HostConfig::static_ip("gw", MacAddr::from_index(100), ip(1), cidr())
                .with_dhcp_server(DhcpServerConfig::home_router(ip(100), 4, ip(1))),
        );
        for tag in ["a", "b"] {
            let state = Rc::clone(gw_h.dhcp_server.as_ref().unwrap());
            let note = move |_: &HostApi<'_, '_>| format!("offers={}", state.borrow().offers_sent);
            gw.add_agent(Box::new(Recorder {
                udp_note: Box::new(note),
                ..Recorder::new(tag, &gw_log)
            }));
        }
        attach(&mut sim, gw, 0);

        // A DHCP client with two recorders that note whether the host is
        // bound yet.
        let (mut laptop, laptop_h) = Host::new(HostConfig::dhcp(
            "laptop",
            MacAddr::from_index(1),
            DhcpClientConfig::default(),
        ));
        for tag in ["c", "d"] {
            let note = |api: &HostApi<'_, '_>| format!("bound={}", api.ip().is_some());
            laptop.add_agent(Box::new(Recorder {
                udp_note: Box::new(note),
                ..Recorder::new(tag, &laptop_log)
            }));
        }
        attach(&mut sim, laptop, 1);

        // Two stations the pinger resolves: one whose first agent drops
        // every ARP packet, one whose first agent consumes every frame.
        let (mut dropper, dropper_h) =
            Host::new(HostConfig::static_ip("dropper", MacAddr::from_index(2), ip(2), cidr()));
        for tag in ["p", "q"] {
            dropper.add_agent(Box::new(Recorder {
                arp: ArpVerdict::Drop,
                ..Recorder::new(tag, &dropper_log)
            }));
        }
        attach(&mut sim, dropper, 2);
        let (mut eater, eater_h) =
            Host::new(HostConfig::static_ip("eater", MacAddr::from_index(3), ip(3), cidr()));
        eater.add_agent(Box::new(Recorder {
            frame: FrameVerdict::Consumed,
            ..Recorder::new("e", &eater_log)
        }));
        eater.add_agent(Box::new(Recorder::new("f", &eater_log)));
        attach(&mut sim, eater, 3);
        let (mut pinger, _) =
            Host::new(HostConfig::static_ip("pinger", MacAddr::from_index(4), ip(4), cidr()));
        for target in [2, 3] {
            pinger.add_agent(Box::new(PingApp::new(ip(target), Duration::from_millis(200)).0));
        }
        attach(&mut sim, pinger, 4);
        sim.run_until(SimTime::from_secs(3));

        let count = |log: &Rc<RefCell<Vec<String>>>, entry: &str| {
            log.borrow().iter().filter(|e| *e == entry).count()
        };
        for (log, first, second) in
            [(&gw_log, "a", "b"), (&laptop_log, "c", "d"), (&dropper_log, "p", "q")]
        {
            // Installation order within every callback: each entry of the
            // first recorder is followed at once by the second's (ARP
            // excepted on the dropper, whose first recorder stops it).
            let entries = log.borrow();
            assert_eq!(entries[..2], [format!("{first} start"), format!("{second} start")]);
            for (i, entry) in entries.iter().enumerate() {
                let Some(event) = entry.strip_prefix(first).map(str::trim_start) else {
                    continue;
                };
                if event != "arp" {
                    assert_eq!(entries[i + 1], format!("{second} {event}"), "{entries:?}");
                }
            }
            drop(entries);
            // Both asked for payload 7 at once: each got its own timer.
            assert_eq!(count(log, &format!("{first} timer 7")), 1, "{first}");
            assert_eq!(count(log, &format!("{second} timer 7")), 1, "{second}");
        }

        // The DHCP server answered each datagram before the recorders saw
        // it, so none saw the DISCOVER before its offer; the client bound
        // on the ACK before they saw it.
        assert_eq!(gw_h.dhcp_server.as_ref().unwrap().borrow().offers_sent, 1);
        assert!(count(&gw_log, "a udp 67 offers=1") >= 2, "{:?}", gw_log.borrow());
        assert_eq!(count(&gw_log, "a udp 67 offers=0"), 0);
        assert!(laptop_h.ip().is_some());
        assert_eq!(count(&laptop_log, "c udp 68 bound=true"), 1, "{:?}", laptop_log.borrow());

        // `ArpVerdict::Drop` from the first agent stops the second and
        // the stack, and counts once per packet.
        let drops = dropper_h.stats.borrow().hook_drops;
        assert!(drops > 0);
        assert_eq!(count(&dropper_log, "p arp") as u64, drops);
        assert_eq!(count(&dropper_log, "q arp"), 0);
        assert_eq!(dropper_h.stats.borrow().arp_replies_sent, 0);
        assert!(dropper_h.cache.borrow().is_empty());

        // `FrameVerdict::Consumed` from the first agent stops the second
        // and the stack before ARP dispatch.
        assert!(count(&eater_log, "e frame") > 0);
        assert_eq!(count(&eater_log, "f frame"), 0);
        assert_eq!(count(&eater_log, "e arp"), 0);
        assert_eq!(count(&eater_log, "f timer 7"), 1);
        let eater = eater_h.stats.borrow();
        assert_eq!((eater.hook_drops, eater.arp_replies_sent), (0, 0));
        assert!(eater_h.cache.borrow().is_empty());
    }

    #[test]
    fn hook_can_drop_arp() {
        struct DropAllArp;
        impl HostAgent for DropAllArp {
            fn on_arp_rx(&mut self, _api: &mut HostApi<'_, '_>, _arp: &ArpPacket) -> ArpVerdict {
                ArpVerdict::Drop
            }
        }
        let (mut sim, handles) = lan_with_hosts(2, |i, host| {
            if i == 1 {
                host.add_agent(Box::new(DropAllArp));
            } else {
                let (ping, _) = PingApp::new(ip(1), Duration::from_millis(100));
                host.add_agent(Box::new(ping));
            }
        });
        sim.run_until(SimTime::from_secs(2));
        // Host 1 never learned or answered: host 2's pings all failed.
        assert!(handles[0].cache.borrow().is_empty());
        assert!(handles[0].stats.borrow().hook_drops > 0);
        assert_eq!(handles[0].stats.borrow().arp_replies_sent, 0);
        assert_eq!(handles[1].stats.borrow().icmp_replies_received, 0);
    }

    #[test]
    fn per_host_counters_track_arp_traffic() {
        let (mut sim, handles) = lan_with_hosts(2, |i, host| {
            if i == 1 {
                let (ping, _) = PingApp::new(ip(2), Duration::from_millis(250));
                host.add_agent(Box::new(ping));
            }
        });
        sim.run_until(SimTime::from_secs(2));
        let h1 = handles[0].stats.borrow();
        let h2 = handles[1].stats.borrow();
        assert_eq!(h1.arp_requests_sent, 1);
        assert_eq!(h2.arp_replies_sent, 1);
        assert!(h1.mean_resolution_latency().unwrap() > Duration::ZERO);
    }
}
