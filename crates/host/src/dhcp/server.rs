//! The DHCP server subsystem: pool allocation, leases, expiry — and the
//! exhaustibility DHCP starvation attacks.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_netsim::hash::{FastMap, FastSet};
use arpshield_netsim::SimTime;
use arpshield_packet::{
    DhcpMessage, DhcpMessageType, Ipv4Addr, MacAddr, DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
};

use crate::agent::{HostAgent, HostApi};

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct DhcpServerConfig {
    /// First address of the pool.
    pub pool_start: Ipv4Addr,
    /// Number of addresses in the pool.
    pub pool_size: u32,
    /// Lease duration handed to clients.
    pub lease: Duration,
    /// Subnet mask for replies.
    pub mask: Ipv4Addr,
    /// Default router offered (typically the server/gateway itself).
    pub router: Ipv4Addr,
    /// How long an un-acked OFFER reserves its address.
    pub offer_hold: Duration,
}

impl DhcpServerConfig {
    /// A typical home-router setup: pool of `size` addresses starting at
    /// `start`, 10-minute leases.
    pub fn home_router(start: Ipv4Addr, size: u32, router: Ipv4Addr) -> Self {
        DhcpServerConfig {
            pool_start: start,
            pool_size: size,
            lease: Duration::from_secs(600),
            mask: Ipv4Addr::new(255, 255, 255, 0),
            router,
            offer_hold: Duration::from_secs(10),
        }
    }
}

/// One active lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The leased address.
    pub ip: Ipv4Addr,
    /// When the lease lapses.
    pub expires: SimTime,
}

/// Observable server state shared with experiments (pool pressure is the
/// DHCP-starvation metric).
#[derive(Debug, Default)]
pub struct DhcpServerState {
    /// Active leases by client hardware address.
    pub leases: FastMap<MacAddr, Lease>,
    /// Reverse index of leased addresses.
    pub by_ip: FastMap<Ipv4Addr, MacAddr>,
    /// Outstanding offers by client hardware address.
    pub offers: FastMap<MacAddr, Lease>,
    /// OFFERs sent.
    pub offers_sent: u64,
    /// DISCOVERs that found the pool empty.
    pub exhaustion_events: u64,
}

impl DhcpServerState {
    /// Addresses currently taken (leased or offered).
    pub fn taken(&self) -> usize {
        let offered_not_leased =
            self.offers.values().filter(|o| !self.by_ip.contains_key(&o.ip)).count();
        self.by_ip.len() + offered_not_leased
    }
}

const TICK_SWEEP: u32 = 0;
const SWEEP_EVERY: Duration = Duration::from_secs(5);

/// A DHCP server bound to one host (typically the gateway).
#[derive(Debug)]
pub struct DhcpServer {
    config: DhcpServerConfig,
    state: Rc<RefCell<DhcpServerState>>,
}

impl DhcpServer {
    /// Creates a server and a shared handle onto its state.
    pub fn new(config: DhcpServerConfig) -> (Self, Rc<RefCell<DhcpServerState>>) {
        let state = Rc::new(RefCell::new(DhcpServerState::default()));
        (DhcpServer { config, state: Rc::clone(&state) }, state)
    }

    fn allocate(&self, now: SimTime, chaddr: MacAddr) -> Option<Ipv4Addr> {
        let st = self.state.borrow();
        // Sticky allocation: a client with a live lease or offer keeps it.
        if let Some(lease) = st.leases.get(&chaddr) {
            return Some(lease.ip);
        }
        if let Some(offer) = st.offers.get(&chaddr) {
            if offer.expires > now {
                return Some(offer.ip);
            }
        }
        let offered: FastSet<Ipv4Addr> =
            st.offers.values().filter(|o| o.expires > now).map(|o| o.ip).collect();
        (0..self.config.pool_size)
            .map(|i| Ipv4Addr::from_u32(self.config.pool_start.to_u32() + i))
            .find(|ip| !st.by_ip.contains_key(ip) && !offered.contains(ip))
    }

    fn reply(
        &self,
        api: &mut HostApi<'_, '_>,
        kind: DhcpMessageType,
        client: &DhcpMessage<&[u8]>,
        yiaddr: Ipv4Addr,
    ) {
        let server_id = api.ip().unwrap_or(self.config.router);
        let msg = DhcpMessage::reply(
            kind,
            client,
            yiaddr,
            server_id,
            self.config.lease.as_secs() as u32,
            self.config.mask,
            self.config.router,
        );
        // Reply directly to the client's hardware address; the client has
        // no IP yet, so the L3 destination is the limited broadcast.
        api.core.send_udp_to_mac(
            api.ctx,
            client.chaddr,
            Ipv4Addr::BROADCAST,
            DHCP_SERVER_PORT,
            DHCP_CLIENT_PORT,
            &msg,
        );
    }
}

impl HostAgent for DhcpServer {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.schedule(SWEEP_EVERY, TICK_SWEEP);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, payload: u32) {
        if payload != TICK_SWEEP {
            return;
        }
        let now = api.now();
        {
            let mut st = self.state.borrow_mut();
            let expired: Vec<MacAddr> =
                st.leases.iter().filter(|(_, l)| l.expires <= now).map(|(m, _)| *m).collect();
            for mac in expired {
                if let Some(lease) = st.leases.remove(&mac) {
                    st.by_ip.remove(&lease.ip);
                }
            }
            st.offers.retain(|_, o| o.expires > now);
        }
        api.schedule(SWEEP_EVERY, TICK_SWEEP);
    }

    fn on_udp(
        &mut self,
        api: &mut HostApi<'_, '_>,
        _src: Ipv4Addr,
        _src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        if dst_port != DHCP_SERVER_PORT {
            return;
        }
        let Ok(msg) = DhcpMessage::parse(payload) else {
            return;
        };
        let now = api.now();
        match msg.message_type() {
            Some(DhcpMessageType::Discover) => match self.allocate(now, msg.chaddr) {
                Some(ip) => {
                    {
                        let mut st = self.state.borrow_mut();
                        st.offers.insert(
                            msg.chaddr,
                            Lease { ip, expires: now.saturating_add(self.config.offer_hold) },
                        );
                        st.offers_sent += 1;
                    }
                    self.reply(api, DhcpMessageType::Offer, &msg, ip);
                }
                None => {
                    self.state.borrow_mut().exhaustion_events += 1;
                }
            },
            Some(DhcpMessageType::Request) => {
                // RFC 2131 §4.3.2: a REQUEST naming another server means the
                // client chose that server — release our offer and stay
                // silent rather than NAK.
                let our_id = api.ip().unwrap_or(self.config.router);
                if let Some(chosen) = msg.server_id() {
                    if chosen != our_id {
                        self.state.borrow_mut().offers.remove(&msg.chaddr);
                        return;
                    }
                }
                let requested = msg.requested_ip().unwrap_or(msg.ciaddr);
                let valid = {
                    let st = self.state.borrow();
                    let offered =
                        st.offers.get(&msg.chaddr).map(|o| o.ip == requested).unwrap_or(false);
                    let leased =
                        st.leases.get(&msg.chaddr).map(|l| l.ip == requested).unwrap_or(false);
                    (offered || leased) && !requested.is_unspecified()
                };
                if valid {
                    {
                        let mut st = self.state.borrow_mut();
                        st.offers.remove(&msg.chaddr);
                        st.leases.insert(
                            msg.chaddr,
                            Lease { ip: requested, expires: now.saturating_add(self.config.lease) },
                        );
                        st.by_ip.insert(requested, msg.chaddr);
                    }
                    self.reply(api, DhcpMessageType::Ack, &msg, requested);
                } else {
                    self.reply(api, DhcpMessageType::Nak, &msg, Ipv4Addr::UNSPECIFIED);
                }
            }
            Some(DhcpMessageType::Release) => {
                let mut st = self.state.borrow_mut();
                if let Some(lease) = st.leases.remove(&msg.chaddr) {
                    st.by_ip.remove(&lease.ip);
                }
            }
            _ => {}
        }
    }
}

// Behavioural tests (full handshake, exhaustion, lease reuse) live in
// `stack.rs` tests and the cross-crate integration suite.
