//! DHCP starvation followed by a rogue DHCP server — the L2 attack pair
//! the thesis that cites this paper studies — and how DHCP snooping
//! (half of the DAI scheme) shuts the rogue down.
//!
//! ```text
//! cargo run --example dhcp_attacks
//! ```

use std::time::Duration;

use arpshield::attacks::{
    DhcpStarver, DhcpStarverConfig, GroundTruth, RogueDhcpServer, RogueDhcpServerConfig,
};
use arpshield::host::dhcp::{DhcpClientConfig, DhcpServerConfig};
use arpshield::host::{Host, HostConfig};
use arpshield::netsim::{PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield::packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
use arpshield::schemes::{AlertLog, DaiConfig, DaiInspector};

fn build_and_run(protected: bool) {
    let gw_ip = Ipv4Addr::new(192, 168, 88, 1);
    let subnet = Ipv4Cidr::new(gw_ip, 24);
    let mut sim = Simulator::new(11);
    let alerts = AlertLog::new();

    let (mut switch, _) = Switch::new("sw", SwitchConfig { ports: 8, ..Default::default() });
    if protected {
        switch.set_inspector(Box::new(DaiInspector::new(
            DaiConfig::new([PortId(0)]),
            alerts.clone(),
        )));
    }
    let switch = sim.add_device(Box::new(switch));

    // Home router: DHCP pool of 10 on the trusted port.
    let (gateway, gw_handle) = Host::new(
        HostConfig::static_ip("gw", MacAddr::from_index(100), gw_ip, subnet).with_dhcp_server(
            DhcpServerConfig::home_router(Ipv4Addr::new(192, 168, 88, 100), 10, gw_ip),
        ),
    );
    let g = sim.add_device(Box::new(gateway));
    sim.connect(g, PortId(0), switch, PortId(0), Duration::from_micros(5)).unwrap();

    // The starver and the rogue server, both on untrusted ports.
    let truth = GroundTruth::new();
    let starver = DhcpStarver::new(
        DhcpStarverConfig {
            start_delay: Duration::from_millis(200),
            rate_per_sec: 40,
            total: Some(60),
        },
        truth.clone(),
    );
    let s = sim.add_device(Box::new(starver));
    sim.connect(s, PortId(0), switch, PortId(1), Duration::from_micros(5)).unwrap();

    let rogue = RogueDhcpServer::new(
        RogueDhcpServerConfig {
            attacker_mac: MacAddr::from_index(67),
            server_ip: Ipv4Addr::new(192, 168, 88, 250),
            pool_start: Ipv4Addr::new(192, 168, 88, 200),
            pool_size: 8,
            evil_gateway: Ipv4Addr::new(192, 168, 88, 250),
            start_delay: Duration::from_secs(4),
        },
        truth.clone(),
    );
    let r = sim.add_device(Box::new(rogue));
    sim.connect(r, PortId(0), switch, PortId(2), Duration::from_micros(5)).unwrap();

    // A legitimate laptop arrives after the pool is drained.
    let (laptop, laptop_handle) = Host::new(HostConfig::dhcp(
        "laptop",
        MacAddr::from_index(7),
        DhcpClientConfig { start_delay: Duration::from_secs(5), ..Default::default() },
    ));
    let l = sim.add_device(Box::new(laptop));
    sim.connect(l, PortId(0), switch, PortId(3), Duration::from_micros(5)).unwrap();

    sim.run_until(SimTime::from_secs(20));

    let server = gw_handle.dhcp_server.as_ref().unwrap().borrow();
    println!(
        "  legitimate pool: {}/{} leases stolen, {} exhaustion events",
        server.by_ip.len(),
        10,
        server.exhaustion_events
    );
    match laptop_handle.ip() {
        Some(ip) => {
            let evil = laptop_handle.iface().gateway() == Some(Ipv4Addr::new(192, 168, 88, 250));
            println!(
                "  late laptop bound to {ip} via {} gateway {:?}",
                if evil { "the ROGUE's" } else { "the legitimate" },
                laptop_handle.iface().gateway().unwrap()
            );
        }
        None => println!("  late laptop failed to obtain any address"),
    }
    if protected {
        println!("  DAI/snooping drops logged: {}", alerts.len());
    }
}

fn main() {
    println!("== DHCP starvation + rogue server ==\n");
    println!("--- unprotected switch ---");
    build_and_run(false);
    println!("\n--- with DHCP snooping (DAI) on the switch ---");
    build_and_run(true);
    println!("\nThe starvation itself succeeds either way (the discovers are");
    println!("well-formed client traffic), but snooping stops the follow-on");
    println!("rogue server, which is where the actual interception came from.");
}
