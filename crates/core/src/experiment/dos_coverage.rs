//! T6: coverage of the volumetric L2 attacks (MAC flooding, DHCP
//! starvation) — the flank the binding-verification schemes do not see.

use std::time::Duration;

use arpshield_attacks::{
    ArpScanner, ArpScannerConfig, DhcpStarver, DhcpStarverConfig, GroundTruth, MacFlooder,
    MacFlooderConfig,
};
use arpshield_host::dhcp::DhcpServerConfig;
use arpshield_host::{Host, HostConfig};
use arpshield_netsim::{PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield_packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
use arpshield_schemes::{
    AlertLog, DaiConfig, DaiInspector, RateConfig, RateMonitor, SchemeKind, PORT_SECURITY,
};
use arpshield_trace::Tracer;

use crate::report::Table;

/// The switch-or-monitor defences T6 compares.
fn dos_schemes() -> Vec<SchemeKind> {
    vec![SchemeKind::None, SchemeKind::PortSecurity, SchemeKind::Dai, SchemeKind::RateMonitor]
}

struct DosRun {
    contained: bool,
    detected: bool,
}

/// A simulator and alert log sharing one run tracer named after the
/// run's parameters, disabled unless a trace collector is installed.
fn traced_run(attack: &str, scheme: SchemeKind, seed: u64) -> (Simulator, AlertLog) {
    let tracer = Tracer::for_current_run(format!("attack={attack} scheme={scheme} seed={seed}"));
    let alerts = AlertLog::new();
    alerts.set_tracer(tracer.clone());
    let mut sim = Simulator::new(seed);
    sim.set_tracer(tracer);
    (sim, alerts)
}

fn flood_run(seed: u64, scheme: SchemeKind) -> DosRun {
    let (mut sim, alerts) = traced_run("mac-flood", scheme, seed);
    let mut config = SwitchConfig { ports: 8, cam_capacity: 512, ..Default::default() };
    if scheme == SchemeKind::PortSecurity {
        config.port_security = Some(PORT_SECURITY);
    }
    // Mirror to the monitor port for the rate monitor.
    if scheme == SchemeKind::RateMonitor {
        config.mirror_to = Some(PortId(7));
    }
    let (mut sw, handle) = Switch::new("sw", config);
    if scheme == SchemeKind::Dai {
        sw.set_inspector(Box::new(DaiInspector::new(DaiConfig::new([PortId(0)]), alerts.clone())));
    }
    let sw = sim.add_device(Box::new(sw));
    if scheme == SchemeKind::RateMonitor {
        let m = sim.add_device(Box::new(RateMonitor::new(RateConfig::default(), alerts.clone())));
        sim.connect(m, PortId(0), sw, PortId(7), Duration::from_micros(2)).unwrap();
    }
    let flooder = MacFlooder::new(MacFlooderConfig::macof_rate(), GroundTruth::new());
    let f = sim.add_device(Box::new(flooder));
    sim.connect(f, PortId(0), sw, PortId(1), Duration::from_micros(5)).unwrap();
    sim.run_until(SimTime::from_secs(3));
    let contained = !handle.cam.borrow().is_full();
    DosRun { contained, detected: !alerts.is_empty() }
}

fn starve_run(seed: u64, scheme: SchemeKind) -> DosRun {
    let (mut sim, alerts) = traced_run("dhcp-starvation", scheme, seed);
    let gw_ip = Ipv4Addr::new(192, 168, 88, 1);
    let pool = 16u32;
    let mut config = SwitchConfig { ports: 8, ..Default::default() };
    if scheme == SchemeKind::PortSecurity {
        config.port_security = Some(PORT_SECURITY);
    }
    if scheme == SchemeKind::RateMonitor {
        config.mirror_to = Some(PortId(7));
    }
    let (mut sw, _) = Switch::new("sw", config);
    if scheme == SchemeKind::Dai {
        sw.set_inspector(Box::new(DaiInspector::new(DaiConfig::new([PortId(0)]), alerts.clone())));
    }
    let sw = sim.add_device(Box::new(sw));
    if scheme == SchemeKind::RateMonitor {
        let m = sim.add_device(Box::new(RateMonitor::new(RateConfig::default(), alerts.clone())));
        sim.connect(m, PortId(0), sw, PortId(7), Duration::from_micros(2)).unwrap();
    }
    let (gateway, gw_handle) = Host::new(
        HostConfig::static_ip("gw", MacAddr::from_index(100), gw_ip, Ipv4Cidr::new(gw_ip, 24))
            .with_dhcp_server(DhcpServerConfig::home_router(
                Ipv4Addr::new(192, 168, 88, 100),
                pool,
                gw_ip,
            )),
    );
    let g = sim.add_device(Box::new(gateway));
    sim.connect(g, PortId(0), sw, PortId(0), Duration::from_micros(5)).unwrap();
    let starver = DhcpStarver::new(
        DhcpStarverConfig {
            start_delay: Duration::from_millis(200),
            rate_per_sec: 50,
            total: None,
        },
        GroundTruth::new(),
    );
    let s = sim.add_device(Box::new(starver));
    sim.connect(s, PortId(0), sw, PortId(1), Duration::from_micros(5)).unwrap();
    sim.run_until(SimTime::from_secs(5));
    let taken = gw_handle.dhcp_server.as_ref().unwrap().borrow().taken() as u32;
    DosRun { contained: taken < pool, detected: !alerts.is_empty() }
}

fn scan_run(seed: u64, scheme: SchemeKind) -> DosRun {
    let (mut sim, alerts) = traced_run("arp-scan", scheme, seed);
    let subnet = Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 26); // 62 hosts to sweep
    let mut config = SwitchConfig { ports: 12, ..Default::default() };
    if scheme == SchemeKind::PortSecurity {
        config.port_security = Some(PORT_SECURITY);
    }
    if scheme == SchemeKind::RateMonitor {
        config.mirror_to = Some(PortId(11));
    }
    let (mut sw, _) = Switch::new("sw", config);
    if scheme == SchemeKind::Dai {
        // The legitimate stations are registered; the scanner is not.
        let mut dai = DaiConfig::new([PortId(0)]);
        for i in 0..3usize {
            dai = dai.with_static(
                Ipv4Addr::new(10, 0, 0, 2 + i as u8),
                MacAddr::from_index(1000 + i as u32),
            );
        }
        sw.set_inspector(Box::new(DaiInspector::new(dai, alerts.clone())));
    }
    let sw = sim.add_device(Box::new(sw));
    if scheme == SchemeKind::RateMonitor {
        // Lower the request threshold to a small-LAN level.
        let m = sim.add_device(Box::new(RateMonitor::new(
            RateConfig { max_arp_requests: 20, ..Default::default() },
            alerts.clone(),
        )));
        sim.connect(m, PortId(0), sw, PortId(11), Duration::from_micros(2)).unwrap();
    }
    // Three quiet stations the scanner could discover.
    let mut station_port = 1u16;
    for i in 0..3usize {
        let (host, _) = Host::new(HostConfig::static_ip(
            format!("h{i}"),
            MacAddr::from_index(1000 + i as u32),
            Ipv4Addr::new(10, 0, 0, 2 + i as u8),
            subnet,
        ));
        let h = sim.add_device(Box::new(host));
        sim.connect(h, PortId(0), sw, PortId(station_port), Duration::from_micros(5)).unwrap();
        station_port += 1;
    }
    let (scanner, scan) = ArpScanner::new(
        ArpScannerConfig {
            attacker_mac: MacAddr::from_index(66),
            source_ip: Ipv4Addr::new(10, 0, 0, 60),
            subnet,
            rate_per_sec: 100,
            start_delay: Duration::from_millis(100),
        },
        GroundTruth::new(),
    );
    let s = sim.add_device(Box::new(scanner));
    sim.connect(s, PortId(0), sw, PortId(station_port), Duration::from_micros(5)).unwrap();
    sim.run_until(SimTime::from_secs(3));
    let contained = scan.borrow().discovered.is_empty();
    DosRun { contained, detected: !alerts.is_empty() }
}

fn cell(run: DosRun) -> String {
    match (run.contained, run.detected) {
        (true, true) => "contained+D".to_string(),
        (true, false) => "contained".to_string(),
        (false, true) => "D".to_string(),
        (false, false) => "-".to_string(),
    }
}

/// T6: scheme × volumetric attack. `contained` = the resource (CAM /
/// DHCP pool) survived; `D` = an alert fired; `-` = the attack succeeded
/// unnoticed.
pub fn t6_dos_coverage(seed: u64) -> Table {
    let mut table = Table::new(
        "T6: volumetric/recon L2 attack coverage (contained = attack goal denied, D = detected)",
        &["scheme \\ attack", "mac-flood", "dhcp-starvation", "arp-scan"],
    );
    for scheme in dos_schemes() {
        table.row([
            scheme.label().to_string(),
            cell(flood_run(seed, scheme)),
            cell(starve_run(seed, scheme)),
            cell(scan_run(seed, scheme)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dos_coverage_shape() {
        let t = t6_dos_coverage(13);
        let cell_of = |name: &str, col: usize| -> String {
            for r in 0..t.len() {
                if t.cell(r, 0) == Some(name) {
                    return t.cell(r, col).unwrap().to_string();
                }
            }
            panic!("no row {name}");
        };
        // Baseline: both attacks succeed silently.
        assert_eq!(cell_of("none", 1), "-");
        assert_eq!(cell_of("none", 2), "-");
        // Port security contains both (the starver's forged chaddrs are
        // also forged L2 sources on one port).
        assert!(cell_of("port-security", 1).starts_with("contained"));
        assert!(cell_of("port-security", 2).starts_with("contained"));
        // The rate monitor detects both but contains neither.
        assert_eq!(cell_of("rate-monitor", 1), "D");
        assert_eq!(cell_of("rate-monitor", 2), "D");
        // DAI does not address flooding; starvation passes through it
        // too (the discovers are valid client traffic). But it *does*
        // contain scans from unregistered stations — and logs them.
        assert_eq!(cell_of("dai", 1), "-");
        assert!(cell_of("dai", 3).starts_with("contained"));
        // The rate monitor sees the sweep's request rate.
        assert!(cell_of("rate-monitor", 3).contains('D'));
        // The baseline scanner enumerates freely.
        assert_eq!(cell_of("none", 3), "-");
    }
}
