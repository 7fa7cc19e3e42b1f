//! The DHCP client state machine.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_netsim::SimTime;
use arpshield_packet::{
    DhcpMessage, DhcpMessageType, Ipv4Addr, Ipv4Cidr, WireEmit, DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
};

use crate::agent::{HostAgent, HostApi};

/// DHCP client behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct DhcpClientConfig {
    /// Delay before the first DISCOVER (staggers fleet boots).
    pub start_delay: Duration,
    /// If set, the client voluntarily RELEASEs its lease after holding it
    /// this long and re-acquires from scratch — the lease-churn workload
    /// behind the false-positive experiments.
    pub lease_hold: Option<Duration>,
}

impl Default for DhcpClientConfig {
    fn default() -> Self {
        DhcpClientConfig { start_delay: Duration::from_millis(100), lease_hold: None }
    }
}

/// Observable client state, shared with experiments.
#[derive(Debug, Default, Clone)]
pub struct DhcpClientInfo {
    /// Currently bound address and when it was acquired.
    pub bound: Option<(Ipv4Addr, SimTime)>,
    /// Leases successfully acquired over the run.
    pub acquisitions: u64,
    /// NAKs received.
    pub naks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Init,
    Selecting { xid: u32 },
    Requesting { xid: u32, offered: Ipv4Addr, server: Ipv4Addr },
    Bound { server: Ipv4Addr, addr: Ipv4Addr },
}

/// Retry interval while discovering/requesting.
const RETRY_INTERVAL: Duration = Duration::from_secs(2);

// Timer payloads.
const TICK_START: u32 = 0;
const TICK_RETRY: u32 = 1;
const TICK_RENEW: u32 = 2;
const TICK_CHURN: u32 = 3;

/// A DHCP client bound to one host.
#[derive(Debug)]
pub struct DhcpClient {
    config: DhcpClientConfig,
    state: State,
    info: Rc<RefCell<DhcpClientInfo>>,
}

impl DhcpClient {
    /// Creates a client and a shared handle onto its observable state.
    pub fn new(config: DhcpClientConfig) -> (Self, Rc<RefCell<DhcpClientInfo>>) {
        let info = Rc::new(RefCell::new(DhcpClientInfo::default()));
        (DhcpClient { config, state: State::Init, info: Rc::clone(&info) }, info)
    }

    fn send_discover(&mut self, api: &mut HostApi<'_, '_>) {
        let xid = api.rand_u64() as u32;
        self.state = State::Selecting { xid };
        let msg = DhcpMessage::discover(xid, api.mac());
        self.broadcast(api, &msg);
        api.schedule(RETRY_INTERVAL, TICK_RETRY);
    }

    fn broadcast(&self, api: &mut HostApi<'_, '_>, msg: &impl WireEmit) {
        api.core.send_udp_broadcast(api.ctx, DHCP_CLIENT_PORT, DHCP_SERVER_PORT, msg);
    }
}

impl HostAgent for DhcpClient {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.schedule(self.config.start_delay, TICK_START);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, payload: u32) {
        match (payload, self.state) {
            (TICK_START, State::Init) | (TICK_RETRY, State::Selecting { .. }) => {
                self.send_discover(api)
            }
            (TICK_RETRY, State::Requesting { .. }) => {
                // Offer went stale; start over.
                self.state = State::Init;
                self.send_discover(api);
            }
            (TICK_RENEW, State::Bound { server, addr }) => {
                let msg = DhcpMessage::request(api.rand_u64() as u32, api.mac(), addr, server);
                self.broadcast(api, &msg);
                api.schedule(RETRY_INTERVAL, TICK_RETRY);
                self.state = State::Requesting { xid: msg.xid, offered: addr, server };
            }
            (TICK_CHURN, State::Bound { server, addr }) => {
                let msg = DhcpMessage::release(api.rand_u64() as u32, api.mac(), addr, server);
                self.broadcast(api, &msg);
                api.core.iface.borrow_mut().deconfigure();
                self.info.borrow_mut().bound = None;
                self.state = State::Init;
                // Rest briefly, then rejoin — as a laptop leaving and
                // re-entering the office would.
                api.schedule(Duration::from_secs(1), TICK_START);
            }
            _ => {} // stale timer for a state we already left
        }
    }

    fn on_udp(
        &mut self,
        api: &mut HostApi<'_, '_>,
        _src: Ipv4Addr,
        _src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        if dst_port != DHCP_CLIENT_PORT {
            return;
        }
        let Ok(msg) = DhcpMessage::parse(payload) else {
            return;
        };
        if msg.chaddr != api.mac() {
            return; // broadcast replies addressed to another client
        }
        match (msg.message_type(), self.state) {
            (Some(DhcpMessageType::Offer), State::Selecting { xid }) if msg.xid == xid => {
                let Some(server) = msg.server_id() else { return };
                let offered = msg.yiaddr;
                let req = DhcpMessage::request(xid, api.mac(), offered, server);
                self.broadcast(api, &req);
                self.state = State::Requesting { xid, offered, server };
            }
            (Some(DhcpMessageType::Ack), State::Requesting { xid, offered, server })
                if msg.xid == xid =>
            {
                let addr = if msg.yiaddr.is_unspecified() { offered } else { msg.yiaddr };
                let mask = msg.subnet_mask().unwrap_or(Ipv4Addr::new(255, 255, 255, 0));
                let prefix = mask.to_u32().count_ones() as u8;
                api.core.iface.borrow_mut().configure(
                    addr,
                    Ipv4Cidr::new(addr, prefix),
                    msg.router(),
                );
                let lease = Duration::from_secs(u64::from(msg.lease_time().unwrap_or(600)));
                {
                    let mut info = self.info.borrow_mut();
                    info.bound = Some((addr, api.now()));
                    info.acquisitions += 1;
                }
                // Real clients announce the fresh binding with gratuitous
                // ARP (when the host enables announcements).
                api.core.maybe_announce(api.ctx);
                self.state = State::Bound { server, addr };
                api.schedule(lease / 2, TICK_RENEW);
                if let Some(hold) = self.config.lease_hold {
                    api.schedule(hold, TICK_CHURN);
                }
            }
            (Some(DhcpMessageType::Nak), State::Requesting { xid, .. }) if msg.xid == xid => {
                self.info.borrow_mut().naks += 1;
                self.state = State::Init;
                api.schedule(RETRY_INTERVAL, TICK_START);
            }
            _ => {}
        }
    }
}

// Behavioural tests for the client live in `stack.rs` and the dhcp
// integration tests, where a server and a LAN exist.
