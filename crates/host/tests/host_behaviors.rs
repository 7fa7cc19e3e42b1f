//! End-station behaviours under less-happy paths: DHCP contention and
//! renewal, resolution under cache expiry, policy differences observed
//! at the stack level.

use std::time::Duration;

use arpshield_host::apps::PingApp;
use arpshield_host::dhcp::{DhcpClientConfig, DhcpServerConfig};
use arpshield_host::{ArpPolicy, Host, HostConfig, HostHandle};
use arpshield_netsim::{DeviceId, PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield_packet::{Ipv4Addr, Ipv4Cidr, MacAddr};

fn cidr() -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

struct Net {
    sim: Simulator,
    switch: DeviceId,
    next_port: u16,
}

impl Net {
    fn new(seed: u64) -> Self {
        let mut sim = Simulator::new(seed);
        let (sw, _) = Switch::new("sw", SwitchConfig { ports: 16, ..Default::default() });
        let switch = sim.add_device(Box::new(sw));
        Net { sim, switch, next_port: 0 }
    }

    fn add(&mut self, host: Host) -> u16 {
        let id = self.sim.add_device(Box::new(host));
        let port = self.next_port;
        self.next_port += 1;
        self.sim
            .connect(id, PortId(0), self.switch, PortId(port), Duration::from_micros(5))
            .unwrap();
        port
    }
}

fn dhcp_gateway(pool: u32) -> (Host, HostHandle) {
    let gw_ip = ip(1);
    Host::new(
        HostConfig::static_ip("gw", MacAddr::from_index(100), gw_ip, cidr()).with_dhcp_server(
            DhcpServerConfig {
                pool_start: ip(100),
                pool_size: pool,
                lease: Duration::from_secs(8),
                mask: Ipv4Addr::new(255, 255, 255, 0),
                router: gw_ip,
                offer_hold: Duration::from_secs(4),
            },
        ),
    )
}

#[test]
fn dhcp_renewal_keeps_the_same_address() {
    let mut net = Net::new(1);
    let (gw, gw_h) = dhcp_gateway(4);
    net.add(gw);
    let (client, client_h) =
        Host::new(HostConfig::dhcp("laptop", MacAddr::from_index(1), DhcpClientConfig::default()));
    net.add(client);
    // Lease is 8 s; run 30 s → at least three renewals.
    net.sim.run_until(SimTime::from_secs(30));
    let info = client_h.dhcp_client.as_ref().unwrap().borrow().clone();
    assert!(info.acquisitions >= 3, "expected renewals, got {}", info.acquisitions);
    assert_eq!(client_h.ip(), Some(ip(100)), "sticky allocation must hold across renewals");
    assert_eq!(info.naks, 0);
    let server = gw_h.dhcp_server.as_ref().unwrap().borrow();
    assert_eq!(server.by_ip.len(), 1, "one client, one lease");
}

#[test]
fn two_clients_never_share_an_address() {
    let mut net = Net::new(2);
    let (gw, _) = dhcp_gateway(4);
    net.add(gw);
    let mut handles = Vec::new();
    for i in 0..2u32 {
        let cfg = DhcpClientConfig {
            start_delay: Duration::from_millis(100 + 40 * u64::from(i)),
            ..Default::default()
        };
        let (client, h) =
            Host::new(HostConfig::dhcp(format!("c{i}"), MacAddr::from_index(10 + i), cfg));
        net.add(client);
        handles.push(h);
    }
    net.sim.run_until(SimTime::from_secs(10));
    let a = handles[0].ip().expect("c0 bound");
    let b = handles[1].ip().expect("c1 bound");
    assert_ne!(a, b, "offer reservation must prevent double allocation");
}

#[test]
fn resolution_survives_cache_expiry_and_repeats() {
    let mut net = Net::new(3);
    let (gw, _) = Host::new(HostConfig::static_ip("gw", MacAddr::from_index(100), ip(1), cidr()));
    net.add(gw);
    let (mut h, handle) = Host::new(
        HostConfig::static_ip("h", MacAddr::from_index(2), ip(2), cidr())
            .with_arp_timeout(Duration::from_secs(3)),
    );
    let (ping, stats) = PingApp::new(ip(1), Duration::from_millis(200));
    h.add_agent(Box::new(ping));
    net.add(h);
    net.sim.run_until(SimTime::from_secs(15));
    let s = handle.stats.borrow();
    // With a 3 s timeout over 15 s, several re-resolutions happen…
    assert!(s.resolutions_completed >= 3, "got {}", s.resolutions_completed);
    // …yet no ping is lost: expiry happens between transmissions and the
    // queue holds the packet through the one-hop re-resolution.
    let p = stats.borrow();
    assert_eq!(p.sent, p.received, "{}/{}", p.received, p.sent);
    drop(p);
    drop(s);
}

#[test]
fn policies_differ_observably_at_the_stack_level() {
    // One gratuitous announcement crosses the LAN; who learns from it?
    for (policy, should_learn) in [
        (ArpPolicy::Promiscuous, true),
        (ArpPolicy::Standard, false), // no prior entry, not addressed to us
        (ArpPolicy::NoUnsolicited, false),
        (ArpPolicy::StaticOnly, false),
    ] {
        let mut net = Net::new(4);
        let (announcer, _) = Host::new(
            HostConfig::static_ip("ann", MacAddr::from_index(9), ip(9), cidr())
                .with_gratuitous_announce(),
        );
        net.add(announcer);
        let (listener, handle) = Host::new(
            HostConfig::static_ip("lis", MacAddr::from_index(2), ip(2), cidr()).with_policy(policy),
        );
        net.add(listener);
        net.sim.run_until(SimTime::from_secs(1));
        let learned = handle.cache.borrow().lookup(net.sim.now(), ip(9)).is_some();
        assert_eq!(learned, should_learn, "{policy}: learned={learned}");
    }
}

#[test]
fn broadcast_ipv4_reaches_every_station() {
    use arpshield_host::{HostAgent, HostApi};

    struct Shouter;
    impl HostAgent for Shouter {
        fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
            api.schedule(Duration::from_millis(50), 0);
        }
        fn on_timer(&mut self, api: &mut HostApi<'_, '_>, _p: u32) {
            api.send_udp(Ipv4Addr::BROADCAST, 7777, 7777, b"hello all");
        }
    }
    let mut net = Net::new(6);
    let (mut shouter, _) =
        Host::new(HostConfig::static_ip("s", MacAddr::from_index(1), ip(1), cidr()));
    shouter.add_agent(Box::new(Shouter));
    net.add(shouter);
    let mut handles = Vec::new();
    for i in 2..=4u32 {
        let (h, handle) = Host::new(HostConfig::static_ip(
            format!("h{i}"),
            MacAddr::from_index(i),
            ip(i as u8),
            cidr(),
        ));
        net.add(h);
        handles.push(handle);
    }
    net.sim.run_until(SimTime::from_secs(1));
    for (i, h) in handles.iter().enumerate() {
        assert_eq!(h.stats.borrow().udp_delivered, 1, "station {i} missed the broadcast");
    }
}
