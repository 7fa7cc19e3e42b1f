//! A full man-in-the-middle interception, built by hand from the
//! substrate APIs (no scenario helpers): victim ⇄ gateway traffic is
//! steered through the attacker, relayed covertly, and counted.
//!
//! ```text
//! cargo run --example mitm_interception
//! ```

use std::time::Duration;

use arpshield::attacks::{GroundTruth, MitmRelay, MitmRelayConfig};
use arpshield::host::apps::PingApp;
use arpshield::host::{ArpPolicy, Host, HostConfig};
use arpshield::netsim::{PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield::packet::{Ipv4Addr, Ipv4Cidr, MacAddr};

fn main() {
    let subnet = Ipv4Cidr::new(Ipv4Addr::new(192, 168, 88, 0), 24);
    let gw_ip = Ipv4Addr::new(192, 168, 88, 1);
    let victim_ip = Ipv4Addr::new(192, 168, 88, 250);
    let gw_mac = MacAddr::from_index(100);
    let victim_mac = MacAddr::from_index(2);
    let attacker_mac = MacAddr::from_index(66);

    let mut sim = Simulator::new(1);
    let (switch, switch_handle) =
        Switch::new("sw", SwitchConfig { ports: 8, ..Default::default() });
    let switch = sim.add_device(Box::new(switch));

    // The gateway.
    let (gateway, gw_handle) = Host::new(
        HostConfig::static_ip("gw", gw_mac, gw_ip, subnet).with_policy(ArpPolicy::Promiscuous),
    );
    let g = sim.add_device(Box::new(gateway));
    sim.connect(g, PortId(0), switch, PortId(0), Duration::from_micros(5)).unwrap();

    // The victim, pinging the gateway ten times a second.
    let (mut victim, victim_handle) = Host::new(
        HostConfig::static_ip("victim", victim_mac, victim_ip, subnet)
            .with_policy(ArpPolicy::Promiscuous),
    );
    let (ping, ping_stats) = PingApp::new(gw_ip, Duration::from_millis(100));
    victim.add_agent(Box::new(ping));
    let v = sim.add_device(Box::new(victim));
    sim.connect(v, PortId(0), switch, PortId(1), Duration::from_micros(5)).unwrap();

    // The attacker: poisons both directions, then relays.
    let truth = GroundTruth::new();
    let relay = MitmRelay::new(
        MitmRelayConfig {
            attacker_mac,
            side_a: (gw_ip, gw_mac),
            side_b: (victim_ip, victim_mac),
            start_delay: Duration::from_secs(2),
            repeat: Duration::from_secs(5),
        },
        truth.clone(),
    );
    let a = sim.add_device(Box::new(relay));
    sim.connect(a, PortId(0), switch, PortId(2), Duration::from_micros(2)).unwrap();

    println!("== MITM interception demo ==\n");
    println!("t=0s   victim starts pinging the gateway");
    sim.run_until(SimTime::from_secs(2));
    println!(
        "t=2s   victim's cache: gateway {} -> {:?} (genuine)",
        gw_ip,
        victim_handle.cache.borrow().lookup(sim.now(), gw_ip).unwrap()
    );

    sim.run_until(SimTime::from_secs(20));
    let now = sim.now();
    println!("t=2s   attacker poisons both caches and begins relaying...");
    println!("\n== after 20 simulated seconds ==");
    println!(
        "victim's cache:  gateway {} -> {:?}  (attacker!)",
        gw_ip,
        victim_handle.cache.borrow().lookup(now, gw_ip).unwrap()
    );
    println!(
        "gateway's cache: victim  {} -> {:?}  (attacker!)",
        victim_ip,
        gw_handle.cache.borrow().lookup(now, victim_ip).unwrap()
    );
    let stats = ping_stats.borrow();
    println!(
        "\nand yet the victim noticed nothing: {}/{} pings answered ({:.1}%)",
        stats.received,
        stats.sent,
        stats.received as f64 / stats.sent as f64 * 100.0
    );
    println!(
        "mean RTT {:?} — doubled by the extra attacker hop, the only observable tell",
        stats.mean_rtt().unwrap()
    );
    println!("\nattacker ground truth: {} poisoning frames emitted", truth.len());
    println!(
        "switch CAM table holds {} stations; nothing looked wrong at L2",
        switch_handle.cam.borrow().occupancy()
    );
}
