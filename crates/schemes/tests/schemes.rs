//! Live behaviour of every scheme against real hosts and real attacks.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Duration;

use arpshield_attacks::{ArpPoisoner, GroundTruth, PoisonConfig, PoisonVariant};
use arpshield_crypto::{Akd, KeyPair};
use arpshield_host::apps::PingApp;
use arpshield_host::dhcp::{DhcpClientConfig, DhcpServerConfig};
use arpshield_host::{ArpPolicy, Host, HostConfig, HostHandle};
use arpshield_netsim::{DeviceId, PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield_packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
use arpshield_schemes::{
    ActiveProbeConfig, ActiveProbeMonitor, AkdApp, Alert, AlertKind, AlertLog, AnticapHook,
    AntidoteHook, DaiConfig, DaiInspector, PassiveConfig, PassiveMonitor, SArpConfig, SArpHook,
    StatefulConfig, StatefulMonitor,
};

fn cidr() -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

fn mac(n: u32) -> MacAddr {
    MacAddr::from_index(n)
}

/// LAN fixture: switch with mirror port 15 (monitors attach there).
struct Lan {
    sim: Simulator,
    switch: DeviceId,
    next_port: u16,
}

impl Lan {
    fn new(seed: u64, config: SwitchConfig) -> (Self, arpshield_netsim::SwitchHandle) {
        let mut sim = Simulator::new(seed);
        let (sw, handle) = Switch::new("sw", config);
        let switch = sim.add_device(Box::new(sw));
        (Lan { sim, switch, next_port: 0 }, handle)
    }

    fn mirrored(seed: u64) -> Self {
        let (lan, _) = Lan::new(
            seed,
            SwitchConfig { ports: 16, mirror_to: Some(PortId(15)), ..Default::default() },
        );
        lan
    }

    fn attach(&mut self, device: Box<dyn arpshield_netsim::Device>) -> DeviceId {
        let port = self.next_port;
        self.next_port += 1;
        self.attach_at(device, port)
    }

    fn attach_at(&mut self, device: Box<dyn arpshield_netsim::Device>, port: u16) -> DeviceId {
        let id = self.sim.add_device(device);
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

fn poisoner(variant: PoisonVariant, start_secs: u64, truth: &GroundTruth) -> ArpPoisoner {
    ArpPoisoner::new(
        PoisonConfig {
            attacker_mac: mac(66),
            variant,
            victim_ip: ip(1),
            claimed_mac: mac(66),
            target: Some((ip(2), mac(2))),
            start_delay: Duration::from_secs(start_secs),
            repeat: None,
        },
        truth.clone(),
    )
}

/// Victim pings the gateway so both legitimate bindings circulate before
/// the attack.
fn standard_victim_and_gw(lan: &mut Lan) -> (HostHandle, HostHandle) {
    let gw = lan.add_host(
        HostConfig::static_ip("gw", mac(100), ip(1), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    let (ping, _) = PingApp::new(ip(1), Duration::from_millis(250));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));
    (gw, victim_h)
}

#[test]
fn passive_monitor_detects_poisoning_on_mirror_port() {
    let mut lan = Lan::mirrored(11);
    let (_gw, _victim) = standard_victim_and_gw(&mut lan);
    let truth = GroundTruth::new();
    lan.attach(Box::new(poisoner(PoisonVariant::GratuitousReply, 3, &truth)));

    let log = AlertLog::new();
    let monitor = PassiveMonitor::new(PassiveConfig::default(), log.clone());
    lan.attach_at(Box::new(monitor), 15);

    lan.sim.run_until(SimTime::from_secs(6));
    let attack_at = truth.first_poison_at().unwrap();
    let detected_at = log
        .first_time(|a| a.kind == AlertKind::BindingChanged && a.observed_mac == Some(mac(66)))
        .expect("passive monitor should flag the flip");
    assert!(detected_at >= attack_at);
    assert!(detected_at.saturating_since(attack_at) < Duration::from_millis(10));
}

#[test]
fn passive_monitor_misses_pre_learning_forgery_until_truth_reappears() {
    let mut lan = Lan::mirrored(12);
    // The attack fires at 100 ms — before the victims have exchanged any
    // genuine ARP (ping app starts later).
    let truth = GroundTruth::new();
    let p = ArpPoisoner::new(
        PoisonConfig {
            attacker_mac: mac(66),
            variant: PoisonVariant::GratuitousRequest,
            victim_ip: ip(1),
            claimed_mac: mac(66),
            target: None,
            start_delay: Duration::from_millis(100),
            repeat: None,
        },
        truth.clone(),
    );
    lan.attach(Box::new(p));
    let (_gw, _victim) = standard_victim_and_gw(&mut lan);
    let log = AlertLog::new();
    lan.attach_at(Box::new(PassiveMonitor::new(PassiveConfig::default(), log.clone())), 15);
    lan.sim.run_until(SimTime::from_secs(3));
    // An alert fires only when the legitimate gateway later speaks — and
    // blames the *gateway's* MAC, the classic attribution inversion.
    let alerts = log.alerts();
    assert!(!alerts.is_empty());
    assert_eq!(alerts[0].observed_mac, Some(mac(100)));
    assert_eq!(alerts[0].expected_mac, Some(mac(66)));
}

#[test]
fn stateful_monitor_flags_unsolicited_reply() {
    let mut lan = Lan::mirrored(13);
    let (_gw, _victim) = standard_victim_and_gw(&mut lan);
    let truth = GroundTruth::new();
    lan.attach(Box::new(poisoner(PoisonVariant::UnicastReply, 3, &truth)));
    let log = AlertLog::new();
    lan.attach_at(Box::new(StatefulMonitor::new(StatefulConfig::default(), log.clone())), 15);
    lan.sim.run_until(SimTime::from_secs(6));
    assert!(
        log.alerts()
            .iter()
            .any(|a: &Alert| a.kind == AlertKind::UnsolicitedReply
                && a.observed_mac == Some(mac(66))),
        "alerts: {:?}",
        log.alerts()
    );
}

#[test]
fn active_probe_contradicts_forged_claim() {
    let mut lan = Lan::mirrored(14);
    let (_gw, _victim) = standard_victim_and_gw(&mut lan);
    let truth = GroundTruth::new();
    lan.attach(Box::new(poisoner(PoisonVariant::GratuitousReply, 3, &truth)));
    let log = AlertLog::new();
    let monitor = ActiveProbeMonitor::new(ActiveProbeConfig::new(mac(200)), log.clone());
    lan.attach_at(Box::new(monitor), 15);
    lan.sim.run_until(SimTime::from_secs(6));
    // The probe reaches the real gateway, which answers truthfully; the
    // forged claim is contradicted.
    assert!(
        log.alerts().iter().any(|a| matches!(
            a.kind,
            AlertKind::ProbeContradiction | AlertKind::DuplicateResponders
        ) && a.subject_ip == Some(ip(1))),
        "alerts: {:?}",
        log.alerts()
    );
}

#[test]
fn anticap_blocks_unsolicited_but_not_race() {
    // Unsolicited reply: blocked.
    let mut lan = Lan::mirrored(15);
    let log = AlertLog::new();
    let gw = lan.add_host(HostConfig::static_ip("gw", mac(100), ip(1), cidr()));
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    victim.add_agent(Box::new(AnticapHook::new(log.clone())));
    let (ping, _) = PingApp::new(ip(1), Duration::from_millis(250));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));
    let truth = GroundTruth::new();
    lan.attach(Box::new(poisoner(PoisonVariant::UnicastReply, 3, &truth)));
    lan.sim.run_until(SimTime::from_secs(6));
    let now = lan.sim.now();
    assert_eq!(
        victim_h.cache.borrow().lookup(now, ip(1)),
        Some(mac(100)),
        "anticap must keep the genuine binding"
    );
    assert!(log.alerts().iter().any(|a| a.kind == AlertKind::UnsolicitedReply));
    let _ = gw;

    // Race variant: passes (the forged reply is solicited).
    let mut lan = Lan::mirrored(16);
    let truth = GroundTruth::new();
    let racer = ArpPoisoner::new(
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
    lan.attach(Box::new(racer)); // port 0: wins ties
                                 // Slow gateway.
    let (gw_host, _) = Host::new(HostConfig::static_ip("gw", mac(100), ip(1), cidr()));
    let gw_id = lan.sim.add_device(Box::new(gw_host));
    lan.sim.connect(gw_id, PortId(0), lan.switch, PortId(1), Duration::from_millis(2)).unwrap();
    lan.next_port = 2;
    let log2 = AlertLog::new();
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr())
            .with_policy(ArpPolicy::NoUnsolicited),
    );
    victim.add_agent(Box::new(AnticapHook::new(log2.clone())));
    let (ping, _) = PingApp::new(ip(1), Duration::from_millis(500));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));
    lan.sim.run_until(SimTime::from_secs(4));
    assert_eq!(
        victim_h.cache.borrow().lookup(lan.sim.now(), ip(1)),
        Some(mac(66)),
        "the race defeats anticap"
    );
}

#[test]
fn antidote_rejects_takeover_of_live_binding() {
    let mut lan = Lan::mirrored(17);
    let log = AlertLog::new();
    let _gw = lan.add_host(HostConfig::static_ip("gw", mac(100), ip(1), cidr()));
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    victim.add_agent(Box::new(AntidoteHook::new(log.clone())));
    let (ping, ping_stats) = PingApp::new(ip(1), Duration::from_millis(250));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));
    let truth = GroundTruth::new();
    lan.attach(Box::new(ArpPoisoner::new(
        PoisonConfig {
            attacker_mac: mac(66),
            variant: PoisonVariant::UnicastReply,
            victim_ip: ip(1),
            claimed_mac: mac(66),
            target: Some((ip(2), mac(2))),
            start_delay: Duration::from_secs(3),
            repeat: Some(Duration::from_secs(2)),
        },
        truth.clone(),
    )));
    lan.sim.run_until(SimTime::from_secs(10));
    let now = lan.sim.now();
    assert_eq!(
        victim_h.cache.borrow().lookup(now, ip(1)),
        Some(mac(100)),
        "antidote must defend the live incumbent"
    );
    assert!(log
        .alerts()
        .iter()
        .any(|a| a.kind == AlertKind::ReplaceRejected && a.observed_mac == Some(mac(66))));
    // Connectivity preserved throughout.
    let stats = ping_stats.borrow();
    assert!(stats.received as f64 / stats.sent as f64 > 0.9);
}

#[test]
fn sarp_prevents_poisoning_and_resolves_signed() {
    let mut lan = Lan::mirrored(18);
    let log = AlertLog::new();
    let akd_registry = Rc::new(RefCell::new(Akd::new()));
    let akd_keypair = KeyPair::from_seed(9000);

    // Enrol three principals: AKD (10.0.0.9), gw (10.0.0.1), victim (10.0.0.2).
    let keys: Vec<(u8, u32, KeyPair)> = vec![
        (9, 109, KeyPair::from_seed(9)),
        (1, 100, KeyPair::from_seed(1)),
        (2, 2, KeyPair::from_seed(2)),
    ];
    for (ip_n, _, kp) in &keys {
        akd_registry.borrow_mut().register(ip(*ip_n).to_u32(), kp.public_key());
    }

    let sarp_config = |seed_ip: u8, local: bool| SArpConfig {
        keypair: keys.iter().find(|(n, _, _)| *n == seed_ip).unwrap().2.clone(),
        akd_ip: ip(9),
        akd_mac: mac(109),
        akd_key: akd_keypair.public_key(),
        local_akd: local.then(|| Rc::clone(&akd_registry)),
        key_fetch_retries: 0,
    };

    // The AKD host.
    let (mut akd_host, _akd_h) = Host::new(
        HostConfig::static_ip("akd", mac(109), ip(9), cidr()).with_policy(ArpPolicy::StaticOnly),
    );
    akd_host.add_agent(Box::new(SArpHook::new(sarp_config(9, true), log.clone())));
    akd_host.add_agent(Box::new(AkdApp::new(
        Rc::clone(&akd_registry),
        akd_keypair.clone(),
        log.clone(),
    )));
    lan.attach(Box::new(akd_host));

    // Gateway.
    let (mut gw, gw_h) = Host::new(
        HostConfig::static_ip("gw", mac(100), ip(1), cidr()).with_policy(ArpPolicy::StaticOnly),
    );
    gw.add_agent(Box::new(SArpHook::new(sarp_config(1, false), log.clone())));
    lan.attach(Box::new(gw));

    // Victim, pinging the gateway.
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::StaticOnly),
    );
    victim.add_agent(Box::new(SArpHook::new(sarp_config(2, false), log.clone())));
    let (ping, ping_stats) = PingApp::new(ip(1), Duration::from_millis(250));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));

    // Attacker tries everything.
    let truth = GroundTruth::new();
    for (i, variant) in [
        PoisonVariant::GratuitousReply,
        PoisonVariant::UnicastReply,
        PoisonVariant::ReplyToRequestRace,
    ]
    .into_iter()
    .enumerate()
    {
        lan.attach(Box::new(ArpPoisoner::new(
            PoisonConfig {
                attacker_mac: mac(66),
                variant,
                victim_ip: ip(1),
                claimed_mac: mac(66),
                target: Some((ip(2), mac(2))),
                start_delay: Duration::from_secs(2 + i as u64),
                repeat: Some(Duration::from_secs(3)),
            },
            truth.clone(),
        )));
    }

    lan.sim.run_until(SimTime::from_secs(12));
    let now = lan.sim.now();
    // Signed resolution worked: pings flow.
    let stats = ping_stats.borrow();
    assert!(stats.sent > 30);
    assert!(
        stats.received as f64 / stats.sent as f64 > 0.9,
        "S-ARP resolution should work: {}/{}",
        stats.received,
        stats.sent
    );
    // And the cache never held the attacker.
    assert_eq!(victim_h.cache.borrow().lookup(now, ip(1)), Some(mac(100)));
    // Plain forged replies were dropped and logged.
    assert!(log
        .alerts()
        .iter()
        .any(|a| a.kind == AlertKind::UnsignedReply && a.observed_mac == Some(mac(66))));
    let _ = gw_h;
}

#[test]
fn dai_blocks_forged_arp_and_snoops_leases() {
    let log = AlertLog::new();
    // Switch with DAI; port 0 (gateway/DHCP server) is trusted.
    let dai = DaiInspector::new(
        DaiConfig::new([PortId(0)])
            .with_static(ip(1), mac(100)) // gateway static binding
            .with_static(ip(2), mac(2)), // victim static binding
        log.clone(),
    );
    let table = dai.table();
    let mut sim = Simulator::new(19);
    let (mut sw, sw_handle) = Switch::new("sw", SwitchConfig { ports: 16, ..Default::default() });
    sw.set_inspector(Box::new(dai));
    let switch = sim.add_device(Box::new(sw));
    let mut lan = Lan { sim, switch, next_port: 0 };

    let gw_cfg = HostConfig::static_ip("gw", mac(100), ip(1), cidr())
        .with_dhcp_server(DhcpServerConfig::home_router(ip(100), 8, ip(1)));
    let _gw = lan.add_host(gw_cfg);
    let (mut victim, victim_h) = Host::new(
        HostConfig::static_ip("victim", mac(2), ip(2), cidr()).with_policy(ArpPolicy::Promiscuous),
    );
    let (ping, ping_stats) = PingApp::new(ip(1), Duration::from_millis(250));
    victim.add_agent(Box::new(ping));
    lan.attach(Box::new(victim));

    // A DHCP client joins: its lease must be snooped into the table.
    let dhcp_h = lan.add_host(HostConfig::dhcp("laptop", mac(3), DhcpClientConfig::default()));

    let truth = GroundTruth::new();
    lan.attach(Box::new(poisoner(PoisonVariant::GratuitousReply, 4, &truth)));
    lan.attach(Box::new(poisoner(PoisonVariant::UnicastReply, 5, &truth)));

    lan.sim.run_until(SimTime::from_secs(10));
    let now = lan.sim.now();
    // Forged frames died at the switch.
    assert_eq!(victim_h.cache.borrow().lookup(now, ip(1)), Some(mac(100)));
    assert!(sw_handle.stats.borrow().dropped_inspector >= 2);
    assert!(log.alerts().iter().any(|a| a.kind == AlertKind::DaiViolation));
    // Legitimate traffic unharmed.
    let stats = ping_stats.borrow();
    assert!(stats.received as f64 / stats.sent as f64 > 0.9);
    // Lease snooped.
    let leased = dhcp_h.ip().expect("dhcp client should bind through DAI");
    assert_eq!(table.borrow().get(&(0, leased)), Some(&mac(3)));
}

#[test]
fn dai_blocks_rogue_dhcp_server() {
    let log = AlertLog::new();
    let dai = DaiInspector::new(DaiConfig::new([PortId(0)]), log.clone());
    let mut sim = Simulator::new(20);
    let (mut sw, _) = Switch::new("sw", SwitchConfig { ports: 16, ..Default::default() });
    sw.set_inspector(Box::new(dai));
    let switch = sim.add_device(Box::new(sw));
    let mut lan = Lan { sim, switch, next_port: 0 };

    let _gw = lan.add_host(
        HostConfig::static_ip("gw", mac(100), ip(1), cidr())
            .with_dhcp_server(DhcpServerConfig::home_router(ip(100), 4, ip(1))),
    );
    // Rogue server on an untrusted port, active immediately.
    let truth = GroundTruth::new();
    lan.attach(Box::new(arpshield_attacks::RogueDhcpServer::new(
        arpshield_attacks::RogueDhcpServerConfig {
            attacker_mac: mac(66),
            server_ip: ip(250),
            pool_start: ip(200),
            pool_size: 8,
            evil_gateway: ip(250),
            start_delay: Duration::ZERO,
        },
        truth.clone(),
    )));
    let client = lan.add_host(HostConfig::dhcp("laptop", mac(3), DhcpClientConfig::default()));
    lan.sim.run_until(SimTime::from_secs(8));
    // The client bound — to the legitimate server, because the rogue's
    // offers were dropped at the switch.
    let bound = client.ip().expect("client should bind");
    assert_eq!(bound, ip(100), "must bind from the legitimate pool, got {bound}");
    assert_eq!(client.iface().gateway(), Some(ip(1)));
    assert!(log.alerts().iter().any(|a| a.kind == AlertKind::DaiViolation));
}

#[test]
fn port_security_contains_mac_flooding() {
    let mut sim = Simulator::new(21);
    let (sw, handle) = Switch::new(
        "sw",
        SwitchConfig {
            ports: 16,
            cam_capacity: 256,
            port_security: Some(arpshield_schemes::PORT_SECURITY),
            ..Default::default()
        },
    );
    let switch = sim.add_device(Box::new(sw));
    let mut lan = Lan { sim, switch, next_port: 0 };
    let truth = GroundTruth::new();
    lan.attach(Box::new(arpshield_attacks::MacFlooder::new(
        arpshield_attacks::MacFlooderConfig::macof_rate(),
        truth.clone(),
    )));
    lan.sim.run_until(SimTime::from_secs(5));
    let stats = handle.stats.borrow();
    assert!(stats.shutdown_ports.contains(&PortId(0)), "flooding port must be err-disabled");
    assert!(
        handle.cam.borrow().occupancy() <= 3,
        "CAM stays tiny: {} entries",
        handle.cam.borrow().occupancy()
    );
}

#[test]
fn schemes_quiet_on_benign_traffic() {
    // No attacker: passive + stateful + probes see a healthy LAN with
    // pings and DHCP and must stay silent.
    let mut lan = Lan::mirrored(22);
    let _gw = lan.add_host(
        HostConfig::static_ip("gw", mac(100), ip(1), cidr())
            .with_dhcp_server(DhcpServerConfig::home_router(ip(100), 8, ip(1))),
    );
    for i in 2..=4u8 {
        let (mut h, _) =
            Host::new(HostConfig::static_ip(format!("h{i}"), mac(u32::from(i)), ip(i), cidr()));
        let (ping, _) = PingApp::new(ip(1), Duration::from_millis(300));
        h.add_agent(Box::new(ping));
        lan.attach(Box::new(h));
    }
    let _laptop = lan.add_host(HostConfig::dhcp("laptop", mac(7), DhcpClientConfig::default()));
    let log = AlertLog::new();
    lan.attach_at(Box::new(PassiveMonitor::new(PassiveConfig::default(), log.clone())), 15);
    // Put stateful+probe monitors on their own (non-mirror) ports: they
    // still see all broadcasts.
    lan.attach(Box::new(StatefulMonitor::new(StatefulConfig::default(), log.clone())));
    lan.attach(Box::new(ActiveProbeMonitor::new(ActiveProbeConfig::new(mac(201)), log.clone())));
    lan.sim.run_until(SimTime::from_secs(10));
    let alerts = log.alerts();
    let false_positives: HashSet<_> = alerts.iter().map(|a| a.kind).collect();
    assert!(alerts.is_empty(), "benign run must be silent, got {false_positives:?}");
}
