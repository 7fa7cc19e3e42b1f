//! End-to-end attack behaviour against real victim hosts on a switched
//! LAN.

use std::sync::Arc;
use std::time::Duration;

use arpshield_attacks::{
    ArpPoisoner, DhcpStarver, DhcpStarverConfig, GroundTruth, MitmRelay, MitmRelayConfig,
    PoisonConfig, PoisonVariant, RogueDhcpServer, RogueDhcpServerConfig,
};
use arpshield_host::apps::PingApp;
use arpshield_host::dhcp::{DhcpClientConfig, DhcpServerConfig};
use arpshield_host::{ArpPolicy, Host, HostConfig, HostHandle};
use arpshield_netsim::{DeviceId, PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield_packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
use arpshield_trace::{install, TraceCollector, Tracer};

fn cidr() -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

fn mac(n: u32) -> MacAddr {
    MacAddr::from_index(n)
}

struct Lan {
    sim: Simulator,
    switch: DeviceId,
    next_port: u16,
}

impl Lan {
    fn new(seed: u64) -> Self {
        let mut sim = Simulator::new(seed);
        let (sw, _) = Switch::new("sw", SwitchConfig { ports: 16, ..Default::default() });
        let switch = sim.add_device(Box::new(sw));
        Lan { sim, switch, next_port: 0 }
    }

    fn attach(&mut self, device: Box<dyn arpshield_netsim::Device>) -> DeviceId {
        let id = self.sim.add_device(device);
        let port = self.next_port;
        self.next_port += 1;
        self.sim
            .connect(id, PortId(0), self.switch, PortId(port), Duration::from_micros(5))
            .unwrap();
        id
    }

    fn add_host(&mut self, config: HostConfig) -> HostHandle {
        let (host, handle) = Host::new(config);
        self.attach(Box::new(host));
        handle
    }
}

/// The classic scenario: victim pings the gateway; the attacker rebinds
/// the gateway IP to itself in the victim's cache.
#[test]
fn gratuitous_reply_poisons_standard_policy_with_existing_entry() {
    let mut lan = Lan::new(1);
    let gw = lan.add_host(HostConfig::static_ip("gw", mac(100), ip(1), cidr()));
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Standard),
    );
    let (ping, _) = PingApp::new(ip(1), Duration::from_millis(200));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));

    let truth = GroundTruth::new();
    let poisoner = ArpPoisoner::new(
        PoisonConfig {
            attacker_mac: mac(66),
            variant: PoisonVariant::GratuitousReply,
            victim_ip: ip(1),
            claimed_mac: mac(66),
            target: Some((ip(2), mac(2))),
            start_delay: Duration::from_secs(2), // after the entry exists
            repeat: None,
        },
        truth.clone(),
    );
    lan.attach(Box::new(poisoner));
    lan.sim.run_until(SimTime::from_secs(4));

    let now = lan.sim.now();
    assert!(victim_h.cache.borrow().is_poisoned(now, ip(1), mac(100)));
    assert_eq!(victim_h.cache.borrow().lookup(now, ip(1)), Some(mac(66)));
    assert_eq!(truth.len(), 1);
    let _ = gw;
}

/// Without an existing entry, a Standard-policy victim ignores the same
/// unsolicited broadcast reply.
#[test]
fn gratuitous_reply_fails_without_existing_entry() {
    let mut lan = Lan::new(2);
    lan.add_host(HostConfig::static_ip("gw", mac(100), ip(1), cidr()));
    let victim_h = lan.add_host(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Standard),
    );
    let truth = GroundTruth::new();
    let poisoner = ArpPoisoner::new(
        PoisonConfig {
            attacker_mac: mac(66),
            variant: PoisonVariant::GratuitousReply,
            victim_ip: ip(1),
            claimed_mac: mac(66),
            target: Some((ip(2), mac(2))),
            start_delay: Duration::from_millis(100),
            repeat: None,
        },
        truth,
    );
    lan.attach(Box::new(poisoner));
    let collector = Arc::new(TraceCollector::new());
    {
        let _guard = install(Arc::clone(&collector));
        lan.sim.set_tracer(Tracer::for_current_run("lan"));
    }
    lan.sim.run_until(SimTime::from_secs(2));
    assert_eq!(victim_h.cache.borrow().lookup(lan.sim.now(), ip(1)), None);
    drop(lan); // the last tracer handle flushes the run
    let rejections = collector.manifest("lan").totals.get("host.policy.reject").copied();
    assert_eq!(rejections, Some(1));
}

/// The reply-race variant defeats even the no-unsolicited kernel policy:
/// the forged reply answers a genuine request.
#[test]
fn reply_race_defeats_no_unsolicited_policy() {
    let mut lan = Lan::new(3);
    // Put the attacker on a *lower* port so tie-broken event ordering
    // favours it — and give the real gateway extra link latency so the
    // race is realistic.
    let truth = GroundTruth::new();
    let poisoner = ArpPoisoner::new(
        PoisonConfig {
            attacker_mac: mac(66),
            variant: PoisonVariant::ReplyToRequestRace,
            victim_ip: ip(1),
            claimed_mac: mac(66),
            target: None,
            start_delay: Duration::ZERO,
            repeat: None,
        },
        truth.clone(),
    );
    lan.attach(Box::new(poisoner));
    // Gateway farther away (higher latency) than the attacker.
    let (gw_host, _gw_h) = Host::new(HostConfig::static_ip("gw", mac(100), ip(1), cidr()));
    let gw_id = lan.sim.add_device(Box::new(gw_host));
    let port = lan.next_port;
    lan.next_port += 1;
    lan.sim.connect(gw_id, PortId(0), lan.switch, PortId(port), Duration::from_millis(2)).unwrap();

    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr())
            .with_policy(ArpPolicy::NoUnsolicited),
    );
    let (ping, _) = PingApp::new(ip(1), Duration::from_millis(500));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));

    lan.sim.run_until(SimTime::from_secs(3));
    let now = lan.sim.now();
    assert_eq!(
        victim_h.cache.borrow().lookup(now, ip(1)),
        Some(mac(66)),
        "forged reply should win the race"
    );
    assert!(!truth.is_empty());
}

/// Full-duplex MITM: both victims' caches point at the attacker, yet
/// pings keep flowing (covert interception), through the relay.
#[test]
fn mitm_relay_intercepts_while_preserving_connectivity() {
    let mut lan = Lan::new(4);
    let gw_h = lan.add_host(
        HostConfig::static_ip("gw", mac(100), ip(1), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    let (ping, ping_stats) = PingApp::new(ip(1), Duration::from_millis(100));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));

    let truth = GroundTruth::new();
    let relay = MitmRelay::new(
        MitmRelayConfig {
            attacker_mac: mac(66),
            side_a: (ip(1), mac(100)),
            side_b: (ip(2), mac(2)),
            start_delay: Duration::from_millis(500),
            repeat: Duration::from_secs(5),
        },
        truth.clone(),
    );
    lan.attach(Box::new(relay));
    lan.sim.run_until(SimTime::from_secs(10));

    let now = lan.sim.now();
    // Both sides poisoned toward the attacker.
    assert_eq!(victim_h.cache.borrow().lookup(now, ip(1)), Some(mac(66)));
    assert_eq!(gw_h.cache.borrow().lookup(now, ip(2)), Some(mac(66)));
    // And yet the ping stream still completes — the covert property.
    let stats = ping_stats.borrow();
    assert!(stats.sent > 50);
    let ratio = stats.received as f64 / stats.sent as f64;
    assert!(ratio > 0.9, "delivery ratio {ratio} too low for a covert MITM");
    // Ground truth shows repeated re-poisoning rounds.
    assert!(truth.len() >= 4);
}

/// Blackhole DoS: victim's traffic to the poisoned IP goes nowhere.
#[test]
fn blackhole_dos_breaks_connectivity() {
    let mut lan = Lan::new(5);
    lan.add_host(HostConfig::static_ip("gw", mac(100), ip(1), cidr()));
    let (mut victim, _victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    let (ping, ping_stats) = PingApp::new(ip(1), Duration::from_millis(100));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));
    let truth = GroundTruth::new();
    let poisoner = ArpPoisoner::new(
        PoisonConfig {
            attacker_mac: mac(66),
            variant: PoisonVariant::BlackholeDos,
            victim_ip: ip(1),
            claimed_mac: MacAddr::new([0x02, 0xde, 0xad, 0xbe, 0xef, 0x01]), // nobody
            target: Some((ip(2), mac(2))),
            start_delay: Duration::from_secs(2),
            repeat: Some(Duration::from_secs(2)),
        },
        truth,
    );
    lan.attach(Box::new(poisoner));
    lan.sim.run_until(SimTime::from_secs(12));
    let stats = ping_stats.borrow();
    assert!(stats.sent > 80);
    let lost = stats.sent - stats.received;
    assert!(lost > 30, "expected sustained loss, lost only {lost} of {}", stats.sent);
}

/// DHCP starvation empties the pool so a legitimate latecomer cannot
/// bind; the rogue server then captures it.
#[test]
fn starvation_then_rogue_capture() {
    let mut lan = Lan::new(6);
    let gw_ip = ip(1);
    let server_cfg = DhcpServerConfig {
        pool_start: ip(100),
        pool_size: 6,
        lease: Duration::from_secs(600),
        mask: Ipv4Addr::new(255, 255, 255, 0),
        router: gw_ip,
        offer_hold: Duration::from_secs(10),
    };
    let gw_h = lan.add_host(
        HostConfig::static_ip("gw", mac(100), gw_ip, cidr()).with_dhcp_server(server_cfg),
    );

    let truth = GroundTruth::new();
    let starver = DhcpStarver::new(
        DhcpStarverConfig {
            start_delay: Duration::from_millis(100),
            rate_per_sec: 50,
            total: Some(40),
        },
        truth.clone(),
    );
    lan.attach(Box::new(starver));

    let rogue = RogueDhcpServer::new(
        RogueDhcpServerConfig {
            attacker_mac: mac(67),
            server_ip: ip(250),
            pool_start: ip(200),
            pool_size: 8,
            evil_gateway: ip(250),
            start_delay: Duration::from_secs(5),
        },
        truth.clone(),
    );
    lan.attach(Box::new(rogue));

    // A legitimate client arrives after the pool is gone.
    let late_client = {
        let cfg =
            DhcpClientConfig { start_delay: Duration::from_secs(6), ..DhcpClientConfig::default() };
        lan.add_host(HostConfig::dhcp("late", mac(7), cfg))
    };

    lan.sim.run_until(SimTime::from_secs(20));

    let server = gw_h.dhcp_server.as_ref().unwrap().borrow();
    assert_eq!(server.by_ip.len(), 6, "pool fully stolen");
    assert!(server.exhaustion_events > 0);
    // The latecomer got an address — from the rogue.
    let info = late_client.dhcp_client.as_ref().unwrap().borrow();
    let (bound, _) = info.bound.expect("victim should have bound to the rogue");
    assert!(bound.to_u32() >= ip(200).to_u32(), "bound {bound} should be from rogue pool");
    assert_eq!(late_client.iface().gateway(), Some(ip(250)), "evil gateway installed");
}
