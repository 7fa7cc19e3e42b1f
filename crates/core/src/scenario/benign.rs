//! Benign-churn scenarios for false-positive measurement (T4).
//!
//! Three legitimate events look exactly like poisoning to naive
//! monitors:
//!
//! 1. **DHCP lease churn** — an address expires on one machine and is
//!    later leased to another: the IP's MAC "changes".
//! 2. **NIC replacement** — a host comes back with a new adapter (or a
//!    spoofed-but-legitimate MAC change): same IP, new MAC, often
//!    announced by gratuitous ARP.
//! 3. **Gratuitous boot announcements** — unsolicited traffic that
//!    reply-filtering hosts may reject outright.

use std::time::Duration;

use arpshield_host::dhcp::{DhcpClientConfig, DhcpServerConfig};
use arpshield_host::{Host, HostConfig, HostHandle};
use arpshield_netsim::SimTime;
use arpshield_packet::MacAddr;

use crate::scenario::lan::{addr, build, BuiltLan, ScenarioConfig};

/// Roaming DHCP clients that release and re-acquire leases.
const DHCP_ROAMERS: usize = 3;
/// Size of the DHCP pool serving them (small pools force address reuse
/// across different MACs — the FP trigger).
const POOL_SIZE: u32 = 2;
/// How long each roamer holds a lease before releasing.
const LEASE_HOLD: Duration = Duration::from_secs(4);
/// Replace the victim host's NIC at this point in the run.
const NIC_SWAP_AT: Duration = Duration::from_secs(10);

/// A benign run's residue.
#[derive(Debug)]
pub struct BenignRun {
    /// The LAN after the run.
    pub lan: BuiltLan,
    /// Roaming client handles.
    pub roamers: Vec<HostHandle>,
    /// Every alert in a benign run is by definition a false positive.
    pub false_positives: usize,
}

/// A benign scenario: the standard LAN plus churn, no attacker.
#[derive(Debug, Clone, Copy)]
pub struct BenignScenario {
    /// LAN parameters.
    pub config: ScenarioConfig,
}

impl BenignScenario {
    /// Creates a benign scenario.
    pub fn new(config: ScenarioConfig) -> Self {
        BenignScenario { config }
    }

    /// Builds, injects churn, runs, and counts false positives.
    pub fn run(self) -> BenignRun {
        let mut lan = build(self.config);
        lan.sim.tracer().annotate("workload", "benign-churn");

        // The roamers' DHCP server attaches to the first expansion port,
        // which `lan::build` reserves as trusted infrastructure
        // (`infrastructure_port`), so under DAI the switch snoops its leases.
        let server_cfg = DhcpServerConfig {
            pool_start: arpshield_packet::Ipv4Addr::new(10, 0, 0, 200),
            pool_size: POOL_SIZE,
            lease: Duration::from_secs(600),
            mask: arpshield_packet::Ipv4Addr::new(255, 255, 255, 0),
            router: addr::GATEWAY_IP,
            offer_hold: Duration::from_secs(5),
        };
        let (server_host, _server_handle) = Host::new(
            HostConfig::static_ip(
                "dhcp-server",
                MacAddr::from_index(3000),
                arpshield_packet::Ipv4Addr::new(10, 0, 0, 199),
                addr::subnet(),
            )
            .with_dhcp_server(server_cfg),
        );
        lan.attach(Box::new(server_host));

        let mut roamers = Vec::new();
        for i in 0..DHCP_ROAMERS {
            let client_cfg = DhcpClientConfig {
                start_delay: Duration::from_millis(200 + 700 * i as u64),
                lease_hold: Some(LEASE_HOLD + Duration::from_millis(900 * i as u64)),
            };
            let (mut roamer, handle) = Host::new(
                HostConfig::dhcp(
                    format!("roamer{i}"),
                    MacAddr::from_index(4000 + i as u32),
                    client_cfg,
                )
                .with_gratuitous_announce(),
            );
            // Roamers talk to the gateway like any station would, so their
            // (churning) bindings circulate in ARP traffic.
            let (ping, _) =
                arpshield_host::apps::PingApp::new(addr::GATEWAY_IP, Duration::from_millis(500));
            roamer.add_agent(Box::new(ping));
            lan.attach(Box::new(roamer));
            roamers.push(handle);
        }

        if NIC_SWAP_AT < self.config.duration {
            lan.sim.run_until(SimTime::ZERO + NIC_SWAP_AT);
            // Replace the victim's NIC: same IP, brand-new MAC. The link
            // bounce flushes its ARP cache, so its next ping re-resolves
            // the gateway with the new source MAC — which is how the
            // changed binding reaches the wire.
            lan.hosts[0].iface_ref.borrow_mut().set_mac(MacAddr::from_index(5000));
            lan.hosts[0].cache.borrow_mut().remove(addr::GATEWAY_IP);
        }
        lan.sim.run_until(SimTime::ZERO + self.config.duration);

        let false_positives = lan.alerts.len();
        BenignRun { lan, roamers, false_positives }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arpshield_schemes::SchemeKind;

    #[test]
    fn churn_actually_churns() {
        let config = ScenarioConfig::new(8).with_hosts(2).with_duration(Duration::from_secs(25));
        let run = BenignScenario::new(config).run();
        let total_acquisitions: u64 =
            run.roamers.iter().map(|r| r.dhcp_client.as_ref().unwrap().borrow().acquisitions).sum();
        assert!(total_acquisitions >= 4, "expected lease churn, got {total_acquisitions}");
    }

    #[test]
    fn passive_monitor_pays_false_positives_under_churn() {
        let config = ScenarioConfig::new(9)
            .with_hosts(2)
            .with_scheme(SchemeKind::Passive)
            .with_duration(Duration::from_secs(30));
        let run = BenignScenario::new(config).run();
        assert!(
            run.false_positives > 0,
            "DHCP reuse + NIC swap must look like poisoning to arpwatch"
        );
    }

    #[test]
    fn baseline_has_no_alerts() {
        let config = ScenarioConfig::new(10).with_hosts(2).with_duration(Duration::from_secs(20));
        let run = BenignScenario::new(config).run();
        assert_eq!(run.false_positives, 0);
    }
}
