//! The scheme factory: one uniform way to deploy any [`SchemeKind`].
//!
//! Scenario builders used to wire every scheme by hand — a `match` arm
//! per kind deciding which host agents, monitors, inspectors, and auxiliary
//! stations to create. That knowledge belongs to the schemes crate:
//! [`SchemeKind::instantiate`] turns a kind plus a description of the
//! LAN ([`LanPlan`]) into a [`SchemeInstallation`], a flat list of
//! *mechanisms* the builder applies without knowing which scheme asked
//! for them.
//!
//! The factory is deterministic: for a fixed plan it performs the same
//! key generation and enrolment operations in the same order as the
//! hand-rolled wiring it replaced, so experiment outputs are
//! byte-identical.

use std::cell::RefCell;
use std::rc::Rc;

use arpshield_crypto::{Akd, KeyPair};
use arpshield_host::{ArpPolicy, HostAgent};
use arpshield_netsim::{
    Device, FrameInspector, PortId, PortSecurityConfig, SimTime, ViolationAction,
};
use arpshield_packet::{Ipv4Addr, MacAddr};

use crate::{
    ActiveProbeConfig, ActiveProbeMonitor, AkdApp, AlertLog, AnticapHook, AntidoteHook, DaiConfig,
    DaiInspector, PassiveConfig, PassiveMonitor, RateConfig, RateMonitor, SArpConfig, SArpHook,
    SchemeKind, StatefulConfig, StatefulMonitor, TarpConfig, TarpHook, Ticket,
};

/// Fault-tolerance knobs the schemes expose for lossy links.
///
/// All zero by default: on a perfect wire no retry timer is ever armed
/// and behaviour is identical to the pre-retry implementations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeHardening {
    /// Extra probes [`ActiveProbeMonitor`] and [`AntidoteHook`] re-issue
    /// when a probe window elapses unanswered.
    pub probe_retries: u32,
    /// AKD lookups [`SArpHook`] re-issues when a key fetch goes
    /// unanswered.
    pub key_fetch_retries: u32,
}

impl SchemeHardening {
    /// A sensible hardened profile for impaired links: a couple of probe
    /// re-issues, a few key-fetch retries.
    pub fn lossy() -> Self {
        SchemeHardening { probe_retries: 2, key_fetch_retries: 3 }
    }
}

/// The switch hardening [`SchemeKind::PortSecurity`] deploys: at most
/// two source MACs per access port, and a port that learns a third is
/// shut down.
pub const PORT_SECURITY: PortSecurityConfig =
    PortSecurityConfig { max_macs_per_port: 2, violation: ViolationAction::ShutdownPort };

/// Seed of the TARP local ticketing agency's keypair.
const TARP_LTA_SEED: u64 = 0x17A;
/// Seed of the AKD's signing keypair.
const AKD_KEY_SEED: u64 = 0xA4D;
/// Lifetime of issued TARP tickets.
const TICKET_LIFETIME: SimTime = SimTime::from_secs(86_400);

/// The facts about a LAN a scheme needs in order to deploy onto it.
///
/// Built once by the scenario builder and handed to
/// [`SchemeKind::instantiate`].
#[derive(Debug, Clone)]
pub struct LanPlan {
    /// The gateway's binding.
    pub gateway: (Ipv4Addr, MacAddr),
    /// Workload-host bindings, in attachment order.
    pub hosts: Vec<(Ipv4Addr, MacAddr)>,
    /// Where the S-ARP key distributor lives (attached only when the
    /// S-ARP scheme is deployed).
    pub akd: (Ipv4Addr, MacAddr),
    /// Switch ports DAI treats as trusted (gateway + infrastructure).
    pub trusted_ports: Vec<PortId>,
    /// Source MAC the active-probe monitor probes from.
    pub probe_source_mac: MacAddr,
    /// Fault-tolerance knobs (all zero on perfect wires).
    pub hardening: SchemeHardening,
}

impl LanPlan {
    /// Per-principal signing-key seed (the convention every S-ARP
    /// deployment in this codebase uses).
    pub fn key_seed(ip: Ipv4Addr) -> u64 {
        u64::from(ip.to_u32())
    }
}

/// An extra infrastructure station a scheme needs on the LAN (the
/// S-ARP key distributor).
pub struct AuxStation {
    /// Station name.
    pub name: &'static str,
    /// Its IPv4 address.
    pub ip: Ipv4Addr,
    /// Its MAC address.
    pub mac: MacAddr,
    /// Agents to install on it, in installation order.
    pub agents: Vec<Box<dyn HostAgent>>,
}

impl std::fmt::Debug for AuxStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuxStation").field("name", &self.name).field("ip", &self.ip).finish()
    }
}

/// Factory for the per-host scheme agent, called once per protected
/// station in attachment order.
pub type HostAgentFn = Box<dyn Fn(Ipv4Addr, MacAddr) -> Box<dyn HostAgent>>;

/// Everything a scenario builder must apply to deploy one scheme.
///
/// Each field is a *mechanism*; the builder applies whichever are
/// present without a single per-scheme branch.
#[derive(Default)]
pub struct SchemeInstallation {
    /// ARP acceptance policy forced on protected hosts (`None` keeps the
    /// scenario's configured policy).
    pub policy_override: Option<ArpPolicy>,
    /// Per-host agent factory (kernel patches, protocol agents).
    pub host_agent: Option<HostAgentFn>,
    /// Mirror-port monitors, in attachment order.
    pub monitors: Vec<Box<dyn Device>>,
    /// In-switch ingress inspector (DAI).
    pub inspector: Option<Box<dyn FrameInspector>>,
    /// Switch port-security hardening.
    pub port_security: Option<PortSecurityConfig>,
    /// Static bindings to preload into every protected host's cache.
    pub static_bindings: Option<Vec<(Ipv4Addr, MacAddr)>>,
    /// Extra infrastructure station to attach.
    pub aux_station: Option<AuxStation>,
}

impl std::fmt::Debug for SchemeInstallation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeInstallation")
            .field("policy_override", &self.policy_override)
            .field("monitors", &self.monitors.len())
            .field("has_inspector", &self.inspector.is_some())
            .field("port_security", &self.port_security)
            .field("has_aux_station", &self.aux_station.is_some())
            .finish()
    }
}

impl SchemeKind {
    /// Instantiates this scheme against the LAN described by `plan`,
    /// returning the mechanisms to apply; every mechanism reports into
    /// `alerts`.
    pub fn instantiate(self, plan: &LanPlan, alerts: &AlertLog) -> SchemeInstallation {
        // Host-agent factories outlive this call, so they own a handle.
        let alerts = alerts.clone();
        let hardening = plan.hardening;
        let mut install = SchemeInstallation::default();
        match self {
            SchemeKind::None => {}
            SchemeKind::StaticArp => {
                install.policy_override = Some(ArpPolicy::StaticOnly);
                let mut bindings = vec![plan.gateway];
                bindings.extend(plan.hosts.iter().copied());
                install.static_bindings = Some(bindings);
            }
            SchemeKind::Passive => {
                install
                    .monitors
                    .push(Box::new(PassiveMonitor::new(PassiveConfig::default(), alerts)));
            }
            SchemeKind::Stateful => {
                install
                    .monitors
                    .push(Box::new(StatefulMonitor::new(StatefulConfig::default(), alerts)));
            }
            SchemeKind::ActiveProbe => {
                install.monitors.push(Box::new(ActiveProbeMonitor::new(
                    ActiveProbeConfig::new(plan.probe_source_mac)
                        .with_probe_retries(hardening.probe_retries),
                    alerts,
                )));
            }
            SchemeKind::RateMonitor => {
                install.monitors.push(Box::new(RateMonitor::new(RateConfig::default(), alerts)));
            }
            SchemeKind::Hybrid => {
                install.monitors.push(Box::new(StatefulMonitor::new(
                    StatefulConfig::default(),
                    alerts.clone(),
                )));
                install.monitors.push(Box::new(ActiveProbeMonitor::new(
                    ActiveProbeConfig::new(plan.probe_source_mac)
                        .with_probe_retries(hardening.probe_retries),
                    alerts,
                )));
            }
            SchemeKind::Anticap => {
                install.host_agent = Some(Box::new(move |_, _| {
                    Box::new(AnticapHook::new(alerts.clone())) as Box<dyn HostAgent>
                }));
            }
            SchemeKind::Antidote => {
                let retries = hardening.probe_retries;
                install.host_agent = Some(Box::new(move |_, _| {
                    Box::new(AntidoteHook::new(alerts.clone()).with_probe_retries(retries))
                        as Box<dyn HostAgent>
                }));
            }
            SchemeKind::PortSecurity => {
                install.port_security = Some(PORT_SECURITY);
            }
            SchemeKind::Dai => {
                let mut config = DaiConfig::new(plan.trusted_ports.iter().copied())
                    .with_static(plan.gateway.0, plan.gateway.1);
                for &(ip, mac) in &plan.hosts {
                    config = config.with_static(ip, mac);
                }
                install.inspector = Some(Box::new(DaiInspector::new(config, alerts)));
            }
            SchemeKind::SArp => {
                install.policy_override = Some(ArpPolicy::StaticOnly);
                let registry = Rc::new(RefCell::new(Akd::new()));
                let akd_keypair = KeyPair::from_seed(AKD_KEY_SEED);
                // Enrolment order (gateway, AKD, hosts) is part of the
                // deterministic construction contract.
                let enrol = |ip: Ipv4Addr| {
                    let kp = KeyPair::from_seed(LanPlan::key_seed(ip));
                    registry.borrow_mut().register(ip.to_u32(), kp.public_key());
                };
                enrol(plan.gateway.0);
                enrol(plan.akd.0);
                for &(ip, _) in &plan.hosts {
                    enrol(ip);
                }
                let (akd_ip, akd_mac) = plan.akd;
                let sarp_config = {
                    let registry = Rc::clone(&registry);
                    let akd_key = akd_keypair.public_key();
                    move |ip: Ipv4Addr, local: bool| SArpConfig {
                        keypair: KeyPair::from_seed(LanPlan::key_seed(ip)),
                        akd_ip,
                        akd_mac,
                        akd_key,
                        local_akd: local.then(|| Rc::clone(&registry)),
                        key_fetch_retries: hardening.key_fetch_retries,
                    }
                };
                install.aux_station = Some(AuxStation {
                    name: "akd",
                    ip: akd_ip,
                    mac: akd_mac,
                    agents: vec![
                        Box::new(SArpHook::new(sarp_config(akd_ip, true), alerts.clone())),
                        Box::new(AkdApp::new(registry, akd_keypair, alerts.clone())),
                    ],
                });
                install.host_agent = Some(Box::new(move |ip, _| {
                    Box::new(SArpHook::new(sarp_config(ip, false), alerts.clone()))
                        as Box<dyn HostAgent>
                }));
            }
            SchemeKind::Tarp => {
                install.policy_override = Some(ArpPolicy::StaticOnly);
                let lta = KeyPair::from_seed(TARP_LTA_SEED);
                install.host_agent = Some(Box::new(move |ip, mac| {
                    Box::new(TarpHook::new(
                        TarpConfig {
                            ticket: Ticket::issue(&lta, ip, mac, TICKET_LIFETIME),
                            lta_key: lta.public_key(),
                        },
                        alerts.clone(),
                    )) as Box<dyn HostAgent>
                }));
            }
        }
        install
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> LanPlan {
        LanPlan {
            gateway: (Ipv4Addr::new(10, 0, 0, 1), MacAddr::from_index(100)),
            hosts: (0..4)
                .map(|i| (Ipv4Addr::new(10, 0, 0, 2 + i), MacAddr::from_index(1000 + u32::from(i))))
                .collect(),
            akd: (Ipv4Addr::new(10, 0, 0, 250), MacAddr::from_index(2500)),
            trusted_ports: vec![PortId(0), PortId(5)],
            probe_source_mac: MacAddr::from_index(9000),
            hardening: SchemeHardening::default(),
        }
    }

    #[test]
    fn every_kind_instantiates() {
        for kind in SchemeKind::all() {
            let install = kind.instantiate(&plan(), &AlertLog::new());
            // Every scheme must install *some* mechanism, except the
            // baseline.
            let has_any = install.policy_override.is_some()
                || install.host_agent.is_some()
                || !install.monitors.is_empty()
                || install.inspector.is_some()
                || install.port_security.is_some()
                || install.static_bindings.is_some()
                || install.aux_station.is_some();
            assert_eq!(has_any, kind != SchemeKind::None, "{kind:?}");
        }
    }

    #[test]
    fn monitor_schemes_declare_monitors() {
        for kind in SchemeKind::all() {
            let n = kind.instantiate(&plan(), &AlertLog::new()).monitors.len();
            let expected = match kind {
                SchemeKind::Passive
                | SchemeKind::Stateful
                | SchemeKind::ActiveProbe
                | SchemeKind::RateMonitor => 1,
                SchemeKind::Hybrid => 2,
                _ => 0,
            };
            assert_eq!(n, expected, "{kind:?}");
        }
    }

    #[test]
    fn static_arp_binds_gateway_and_hosts() {
        let install = SchemeKind::StaticArp.instantiate(&plan(), &AlertLog::new());
        let bindings = install.static_bindings.unwrap();
        assert_eq!(bindings.len(), 5);
        assert_eq!(bindings[0], (Ipv4Addr::new(10, 0, 0, 1), MacAddr::from_index(100)));
        assert_eq!(install.policy_override, Some(ArpPolicy::StaticOnly));
    }

    #[test]
    fn sarp_installs_aux_station_and_agents() {
        let install = SchemeKind::SArp.instantiate(&plan(), &AlertLog::new());
        let aux = install.aux_station.unwrap();
        assert_eq!(aux.ip, Ipv4Addr::new(10, 0, 0, 250));
        assert_eq!(aux.agents.len(), 2);
        assert!(install.host_agent.is_some());
    }

    #[test]
    fn hardening_flows_into_agents() {
        let mut hardened = plan();
        hardened.hardening = SchemeHardening::lossy();
        let alerts = AlertLog::new();
        // Smoke: instantiation with hardened knobs succeeds for the
        // schemes that consume them.
        for kind in [SchemeKind::ActiveProbe, SchemeKind::Antidote, SchemeKind::SArp] {
            let _ = kind.instantiate(&hardened, &alerts);
        }
    }
}
