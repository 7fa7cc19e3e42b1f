//! An S-ARP deployment from first principles: keypairs, the AKD host,
//! per-host agents, signed resolution, and an attacker whose forgeries
//! bounce off.
//!
//! ```text
//! cargo run --example sarp_network
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield::attacks::{ArpPoisoner, GroundTruth, PoisonConfig, PoisonVariant};
use arpshield::crypto::{Akd, KeyPair};
use arpshield::host::apps::PingApp;
use arpshield::host::{ArpPolicy, Host, HostConfig};
use arpshield::netsim::{PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield::packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
use arpshield::schemes::{AkdApp, AlertLog, SArpConfig, SArpHook};

fn main() {
    let subnet = Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24);
    let akd_ip = Ipv4Addr::new(10, 0, 0, 250);
    let akd_mac = MacAddr::from_index(250);

    // --- Enrolment (out of band, at provisioning time) ---
    let akd_keypair = KeyPair::from_seed(0xA4D);
    let registry = Rc::new(RefCell::new(Akd::new()));
    let stations: Vec<(&str, Ipv4Addr, MacAddr, KeyPair)> = vec![
        ("gw", Ipv4Addr::new(10, 0, 0, 1), MacAddr::from_index(100), KeyPair::from_seed(1)),
        ("alice", Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_index(2), KeyPair::from_seed(2)),
        ("bob", Ipv4Addr::new(10, 0, 0, 3), MacAddr::from_index(3), KeyPair::from_seed(3)),
        ("akd", akd_ip, akd_mac, KeyPair::from_seed(250)),
    ];
    for (_, ip, _, kp) in &stations {
        registry.borrow_mut().register(ip.to_u32(), kp.public_key());
    }
    println!("== S-ARP network ==");
    println!("enrolled {} principals with the AKD\n", registry.borrow().len());

    // --- The LAN ---
    let mut sim = Simulator::new(7);
    let (switch, _) = Switch::new("sw", SwitchConfig { ports: 8, ..Default::default() });
    let switch = sim.add_device(Box::new(switch));
    let alerts = AlertLog::new();

    let mut ping_stats = None;
    let mut host_handles = Vec::new();
    for (port, (name, ip, mac, keypair)) in stations.iter().enumerate() {
        let (mut host, handle) = Host::new(
            HostConfig::static_ip(*name, *mac, *ip, subnet).with_policy(ArpPolicy::StaticOnly),
        );
        host.add_agent(Box::new(SArpHook::new(
            SArpConfig {
                keypair: keypair.clone(),
                akd_ip,
                akd_mac,
                akd_key: akd_keypair.public_key(),
                local_akd: (*name == "akd").then(|| Rc::clone(&registry)),
                key_fetch_retries: 0,
            },
            alerts.clone(),
        )));
        if *name == "akd" {
            host.add_agent(Box::new(AkdApp::new(
                Rc::clone(&registry),
                akd_keypair.clone(),
                alerts.clone(),
            )));
        }
        if *name == "alice" {
            let (ping, stats) =
                PingApp::new(Ipv4Addr::new(10, 0, 0, 1), Duration::from_millis(200));
            host.add_agent(Box::new(ping));
            ping_stats = Some(stats);
        }
        let id = sim.add_device(Box::new(host));
        sim.connect(id, PortId(0), switch, PortId(port as u16), Duration::from_micros(5)).unwrap();
        host_handles.push(handle);
    }

    // --- The attacker: tries the classic and the race ---
    let truth = GroundTruth::new();
    for (i, variant) in
        [PoisonVariant::GratuitousReply, PoisonVariant::ReplyToRequestRace].into_iter().enumerate()
    {
        let poisoner = ArpPoisoner::new(
            PoisonConfig {
                attacker_mac: MacAddr::from_index(66),
                variant,
                victim_ip: Ipv4Addr::new(10, 0, 0, 1),
                claimed_mac: MacAddr::from_index(66),
                target: Some((Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_index(2))),
                start_delay: Duration::from_secs(2 + i as u64),
                repeat: Some(Duration::from_secs(3)),
            },
            truth.clone(),
        );
        let id = sim.add_device(Box::new(poisoner));
        sim.connect(id, PortId(0), switch, PortId(4 + i as u16), Duration::from_micros(1)).unwrap();
    }

    sim.run_until(SimTime::from_secs(15));

    let stats = ping_stats.unwrap();
    let stats = stats.borrow();
    println!("alice pinged the gateway through signed resolution:");
    println!(
        "  {}/{} answered ({:.1}%), mean RTT {:?}",
        stats.received,
        stats.sent,
        stats.received as f64 / stats.sent as f64 * 100.0,
        stats.mean_rtt().unwrap()
    );
    println!(
        "\nattacker emitted {} forged frames; S-ARP raised {} alerts:",
        truth.len(),
        alerts.len()
    );
    let mut counts = std::collections::BTreeMap::new();
    for a in alerts.alerts() {
        *counts.entry(format!("{:?}", a.kind)).or_insert(0u32) += 1;
    }
    for (kind, n) in counts {
        println!("  {kind}: {n}");
    }
    let crypto_work: u64 = host_handles.iter().map(|h| h.stats.borrow().work_units).sum::<u64>()
        + alerts.work_of("sarp");
    println!("\ntotal S-ARP work: {crypto_work} units (signatures dominate; one unit ≈ one header inspection)");
    println!("the victim's cache never held the attacker's MAC — prevention, not detection.");
}
