//! F6: attack dynamics — CAM fill under MAC flooding and DHCP-pool
//! drain under starvation, with and without the switch-level defences.

use std::time::Duration;

use arpshield_attacks::{
    DhcpStarver, DhcpStarverConfig, GroundTruth, MacFlooder, MacFlooderConfig,
};
use arpshield_host::dhcp::DhcpServerConfig;
use arpshield_host::{Host, HostConfig};
use arpshield_netsim::{PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield_packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
use arpshield_schemes::PORT_SECURITY;
use arpshield_trace::Tracer;

use crate::report::Series;

/// F6a: CAM-table occupancy over time under `macof`-rate flooding, with
/// the plain switch vs one running port security.
///
/// The plain switch fills to capacity within seconds (and from then on
/// floods unknown traffic — the fail-open eavesdropping window); port
/// security err-disables the offending port almost immediately.
pub fn f6_flood_dynamics(seed: u64) -> Vec<Series> {
    let mut out = Vec::new();
    for (label, secured) in [("plain-switch", false), ("port-security", true)] {
        let mut sim = Simulator::new(seed);
        sim.set_tracer(Tracer::for_current_run(format!("mac-flood switch={label} seed={seed}")));
        let config = SwitchConfig {
            ports: 8,
            cam_capacity: 1024,
            port_security: secured.then_some(PORT_SECURITY),
            ..Default::default()
        };
        let (switch, handle) = Switch::new("sw", config);
        let switch = sim.add_device(Box::new(switch));
        let flooder = MacFlooder::new(MacFlooderConfig::macof_rate(), GroundTruth::new());
        let f = sim.add_device(Box::new(flooder));
        sim.connect(f, PortId(0), switch, PortId(1), Duration::from_micros(5)).unwrap();

        let mut series = Series::new(
            format!("F6a[{label}]: CAM occupancy vs time under MAC flooding"),
            "time_s",
            "cam_entries",
        );
        for step in 0..=40u64 {
            sim.run_until(SimTime::from_millis(step * 100));
            series.push(step as f64 * 0.1, handle.cam.borrow().occupancy() as f64);
        }
        out.push(series);
    }
    out
}

/// F6b: free DHCP-pool addresses over time under starvation (pool of
/// 20, handshake-completing starver at 50 discovers/s).
pub fn f6_starvation_dynamics(seed: u64) -> Series {
    let mut sim = Simulator::new(seed);
    sim.set_tracer(Tracer::for_current_run(format!("dhcp-starvation seed={seed}")));
    let (switch, _) = Switch::new("sw", SwitchConfig { ports: 8, ..Default::default() });
    let switch = sim.add_device(Box::new(switch));

    let gw_ip = Ipv4Addr::new(192, 168, 88, 1);
    let pool_size = 20u32;
    let (gateway, gw_handle) = Host::new(
        HostConfig::static_ip("gw", MacAddr::from_index(100), gw_ip, Ipv4Cidr::new(gw_ip, 24))
            .with_dhcp_server(DhcpServerConfig::home_router(
                Ipv4Addr::new(192, 168, 88, 100),
                pool_size,
                gw_ip,
            )),
    );
    let g = sim.add_device(Box::new(gateway));
    sim.connect(g, PortId(0), switch, PortId(0), Duration::from_micros(5)).unwrap();

    let starver = DhcpStarver::new(
        DhcpStarverConfig {
            start_delay: Duration::from_millis(500),
            rate_per_sec: 50,
            total: None,
        },
        GroundTruth::new(),
    );
    let s = sim.add_device(Box::new(starver));
    sim.connect(s, PortId(0), switch, PortId(1), Duration::from_micros(5)).unwrap();

    let server = gw_handle.dhcp_server.as_ref().unwrap().clone();
    let mut series =
        Series::new("F6b: free DHCP pool addresses vs time under starvation", "time_s", "free");
    for step in 0..=20u64 {
        sim.run_until(SimTime::from_millis(step * 200));
        let free = pool_size as usize - server.borrow().taken().min(pool_size as usize);
        series.push(step as f64 * 0.2, free as f64);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_fills_plain_switch_but_not_secured_one() {
        let series = f6_flood_dynamics(6);
        let plain_final = series[0].points().last().unwrap().1;
        let secured_final = series[1].points().last().unwrap().1;
        assert!(plain_final >= 1024.0, "plain CAM should fill: {plain_final}");
        assert!(secured_final <= 3.0, "port security should contain: {secured_final}");
    }

    #[test]
    fn starvation_drains_the_pool() {
        let series = f6_starvation_dynamics(6);
        let first = series.points().first().unwrap().1;
        let last = series.points().last().unwrap().1;
        assert_eq!(first, 20.0);
        assert_eq!(last, 0.0, "pool should be empty by the end");
    }
}
