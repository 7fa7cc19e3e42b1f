//! The standard experimental LAN and per-scheme deployment wiring.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_attacks::GroundTruth;
use arpshield_host::apps::{PingApp, PingStats};
use arpshield_host::{ArpPolicy, Host, HostConfig, HostHandle, RetryPolicy};
use arpshield_netsim::{
    DeviceId, Hub, LinkProfile, PortId, Simulator, Switch, SwitchConfig, SwitchHandle,
};
use arpshield_packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
use arpshield_schemes::{static_arp, AlertLog, LanPlan, SchemeHardening, SchemeKind};
use arpshield_trace::Tracer;

/// Addressing constants of the standard LAN.
pub mod addr {
    use super::*;

    /// The /24 all scenarios use.
    pub fn subnet() -> Ipv4Cidr {
        Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)
    }

    /// Gateway: `10.0.0.1`.
    pub const GATEWAY_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    /// Gateway MAC.
    pub fn gateway_mac() -> MacAddr {
        MacAddr::from_index(100)
    }
    /// Workload host `i` (0-based): `10.0.0.(2+i)`.
    pub fn host_ip(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2 + i as u8)
    }
    /// Workload host `i`'s MAC.
    pub fn host_mac(i: usize) -> MacAddr {
        MacAddr::from_index(1000 + i as u32)
    }
    /// The S-ARP key distributor: `10.0.0.250`.
    pub const AKD_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 250);
    /// AKD MAC.
    pub fn akd_mac() -> MacAddr {
        MacAddr::from_index(2500)
    }
    /// The attacker's NIC.
    pub fn attacker_mac() -> MacAddr {
        MacAddr::from_index(6666)
    }
}

/// Parameters of the standard experimental LAN.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Determinism seed.
    pub seed: u64,
    /// Number of workload hosts (excluding gateway/AKD/attacker).
    pub n_hosts: usize,
    /// The defence under test.
    pub scheme: SchemeKind,
    /// ARP policy of unprotected hosts (schemes may override).
    pub policy: ArpPolicy,
    /// Dynamic ARP entry lifetime.
    pub arp_timeout: Duration,
    /// Total simulated run length.
    pub duration: Duration,
    impairment: LinkProfile,
    resolver_retry: RetryPolicy,
    hardening: SchemeHardening,
}

impl ScenarioConfig {
    /// Defaults: 8 hosts, `Standard` policy, no scheme, 12 s run with the
    /// attack at 3 s, perfect wires, legacy resolver retries.
    pub fn new(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            n_hosts: 8,
            scheme: SchemeKind::None,
            policy: ArpPolicy::Standard,
            arp_timeout: Duration::from_secs(60),
            duration: Duration::from_secs(12),
            impairment: LinkProfile::PERFECT,
            resolver_retry: RetryPolicy::default(),
            hardening: SchemeHardening::default(),
        }
    }

    /// Selects the defence scheme.
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the unprotected-host ARP policy.
    pub fn with_policy(mut self, policy: ArpPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the workload size.
    pub fn with_hosts(mut self, n: usize) -> Self {
        assert!((1..=200).contains(&n), "host count must be in 1..=200");
        self.n_hosts = n;
        self
    }

    /// Sets the run length.
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the ARP cache timeout.
    pub fn with_arp_timeout(mut self, timeout: Duration) -> Self {
        self.arp_timeout = timeout;
        self
    }

    /// Applies a link impairment profile to every link in the LAN.
    pub fn with_impairment(mut self, profile: LinkProfile) -> Self {
        self.impairment = profile;
        self
    }

    /// Sets the ARP resolver retransmission policy of every host.
    pub fn with_resolver_retry(mut self, policy: RetryPolicy) -> Self {
        self.resolver_retry = policy;
        self
    }

    /// Sets the schemes' fault-tolerance knobs (probe re-issues,
    /// key-fetch retries) for lossy runs.
    pub fn with_hardening(mut self, hardening: SchemeHardening) -> Self {
        self.hardening = hardening;
        self
    }

    /// The link impairment profile applied to the LAN.
    pub fn impairment(&self) -> LinkProfile {
        self.impairment
    }

    /// The host resolver retransmission policy.
    pub fn resolver_retry(&self) -> RetryPolicy {
        self.resolver_retry
    }

    /// The schemes' fault-tolerance knobs.
    pub fn hardening(&self) -> SchemeHardening {
        self.hardening
    }
}

/// A constructed (not yet run) experimental LAN.
pub struct BuiltLan {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Live switch state.
    pub switch: SwitchHandle,
    /// The switch's device id.
    pub switch_id: DeviceId,
    /// The gateway host.
    pub gateway: HostHandle,
    /// Workload hosts; index 0 is the designated victim.
    pub hosts: Vec<HostHandle>,
    /// Per-host gateway-ping statistics (same order as `hosts`).
    pub pings: Vec<Rc<RefCell<PingStats>>>,
    /// Scheme alerts.
    pub alerts: AlertLog,
    /// Attacker ground truth.
    pub truth: GroundTruth,
    next_free_port: u16,
    config: ScenarioConfig,
}

impl std::fmt::Debug for BuiltLan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltLan")
            .field("hosts", &self.hosts.len())
            .field("scheme", &self.config.scheme)
            .finish()
    }
}

impl BuiltLan {
    /// The scenario parameters this LAN was built from.
    pub fn config(&self) -> ScenarioConfig {
        self.config
    }

    /// The designated victim host (`hosts[0]`).
    pub fn victim(&self) -> &HostHandle {
        &self.hosts[0]
    }

    /// Attaches a device to the next free access port; returns its id.
    pub fn attach(&mut self, device: Box<dyn arpshield_netsim::Device>) -> DeviceId {
        self.attach_with_latency(device, Duration::from_micros(5))
    }

    /// Attaches a device with a chosen link latency.
    ///
    /// Attack scenarios use a shorter latency for the attacker than the
    /// 5 µs host links: poisoning tools answer from a userspace sniff
    /// loop with no protocol stack in the path, which is what lets them
    /// win reply races against legitimate responders.
    pub fn attach_with_latency(
        &mut self,
        device: Box<dyn arpshield_netsim::Device>,
        latency: Duration,
    ) -> DeviceId {
        let id = self.sim.add_device(device);
        let port = self.next_free_port;
        self.next_free_port += 1;
        self.sim
            .connect(id, PortId(0), self.switch_id, PortId(port), latency)
            .expect("scenario switch ran out of ports");
        id
    }
}

/// Host ping interval toward the gateway.
const PING_INTERVAL: Duration = Duration::from_millis(250);

/// Builds the standard LAN with `config.scheme` deployed.
///
/// Topology: one switch; gateway on port 0 (the DAI-trusted port), the
/// `n_hosts` workload hosts next, every host pinging the gateway. For
/// monitor-based schemes the switch mirrors all ingress traffic to a
/// fan-out hub carrying the monitors. `hosts[0]` is the designated
/// victim of any subsequently attached attack.
///
/// All scheme-specific wiring comes from
/// [`SchemeKind::instantiate`]: this builder only applies the
/// mechanisms the returned
/// [`SchemeInstallation`](arpshield_schemes::SchemeInstallation)
/// declares, with no per-scheme branches.
pub fn build(config: ScenarioConfig) -> BuiltLan {
    // One recorder per run, labelled with the full parameter tuple so
    // cells that share a seed across policies/schemes stay distinct in
    // the manifest. Disabled (and allocation-free from here on) unless
    // the caller installed a trace collector. The simulator owns it and
    // hands it to every device; scenario wrappers annotate it through
    // `sim.tracer()`.
    let tracer = Tracer::for_current_run(format!(
        "scheme={} policy={:?} hosts={} seed={} duration_ms={}",
        config.scheme,
        config.policy,
        config.n_hosts,
        config.seed,
        config.duration.as_millis()
    ));
    let alerts = AlertLog::new();
    alerts.set_tracer(tracer.clone());
    let truth = GroundTruth::new();

    // --- Scheme instantiation ---
    // Trusted ports: the gateway's (0) and the first expansion port,
    // reserved for trusted infrastructure (benign scenarios attach their
    // DHCP server there; attack scenarios put the passive sampler there,
    // which transmits nothing).
    let infrastructure_port = PortId(1 + config.n_hosts as u16);
    let plan = LanPlan {
        gateway: (addr::GATEWAY_IP, addr::gateway_mac()),
        hosts: (0..config.n_hosts).map(|i| (addr::host_ip(i), addr::host_mac(i))).collect(),
        akd: (addr::AKD_IP, addr::akd_mac()),
        trusted_ports: vec![PortId(0), infrastructure_port],
        probe_source_mac: MacAddr::from_index(9000),
        hardening: config.hardening,
    };
    let installation = config.scheme.instantiate(&plan, &alerts);

    let needs_monitor = !installation.monitors.is_empty();
    let ports = config.n_hosts + 12;
    let mirror_port = (ports - 1) as u16;

    // --- Switch ---
    let switch_config = SwitchConfig {
        ports,
        cam_capacity: 1024,
        cam_aging: Duration::from_secs(300),
        mirror_to: needs_monitor.then_some(PortId(mirror_port)),
        port_security: installation.port_security,
        ..Default::default()
    };
    let mut sim = Simulator::new(config.seed);
    sim.set_default_impairment(config.impairment);
    // Anchor every timeline with the wiring facts an inspector needs
    // to read the frame endpoints that follow.
    tracer.event(0, "scenario.topology", || {
        (
            "lan".to_string(),
            format!(
                "switch_ports={ports} hosts={} scheme={} policy={:?} mirror={}",
                config.n_hosts, config.scheme, config.policy, needs_monitor
            ),
        )
    });
    sim.set_tracer(tracer);
    let (mut switch, switch_handle) = Switch::new("sw", switch_config);
    if let Some(inspector) = installation.inspector {
        switch.set_inspector(inspector);
    }
    let switch_id = sim.add_device(Box::new(switch));

    // --- Hosts ---
    let host_policy = installation.policy_override.unwrap_or(config.policy);
    let host_config = |name: String, mac: MacAddr, ip: Ipv4Addr| {
        HostConfig::static_ip(name, mac, ip, addr::subnet())
            .with_policy(host_policy)
            .with_arp_timeout(config.arp_timeout)
            .with_resolver_retry(config.resolver_retry)
    };
    let install_agent = |host: &mut Host, ip: Ipv4Addr, mac: MacAddr| {
        if let Some(agent) = &installation.host_agent {
            host.add_agent(agent(ip, mac));
        }
    };

    // --- Gateway (port 0) ---
    let (mut gateway, gateway_handle) =
        Host::new(host_config("gw".into(), addr::gateway_mac(), addr::GATEWAY_IP));
    install_agent(&mut gateway, addr::GATEWAY_IP, addr::gateway_mac());
    let gw_id = sim.add_device(Box::new(gateway));
    sim.connect(gw_id, PortId(0), switch_id, PortId(0), Duration::from_micros(5)).unwrap();

    // --- Workload hosts (ports 1..=n) ---
    let mut hosts = Vec::with_capacity(config.n_hosts);
    let mut pings = Vec::with_capacity(config.n_hosts);
    for i in 0..config.n_hosts {
        let ip = addr::host_ip(i);
        let (mut host, handle) = Host::new(host_config(format!("h{i}"), addr::host_mac(i), ip));
        install_agent(&mut host, ip, addr::host_mac(i));
        let (ping, ping_stats) = PingApp::new(addr::GATEWAY_IP, PING_INTERVAL);
        host.add_agent(Box::new(ping));
        let id = sim.add_device(Box::new(host));
        sim.connect(id, PortId(0), switch_id, PortId(1 + i as u16), Duration::from_micros(5))
            .unwrap();
        hosts.push(handle);
        pings.push(ping_stats);
    }
    let mut next_free_port = 1 + config.n_hosts as u16;

    // --- Auxiliary infrastructure station (the S-ARP AKD) ---
    if let Some(aux) = installation.aux_station {
        let (mut aux_host, _) = Host::new(
            HostConfig::static_ip(aux.name, aux.mac, aux.ip, addr::subnet())
                .with_policy(ArpPolicy::StaticOnly)
                .with_arp_timeout(config.arp_timeout)
                .with_resolver_retry(config.resolver_retry),
        );
        for agent in aux.agents {
            aux_host.add_agent(agent);
        }
        let id = sim.add_device(Box::new(aux_host));
        sim.connect(id, PortId(0), switch_id, PortId(next_free_port), Duration::from_micros(5))
            .unwrap();
        next_free_port += 1;
    }

    // --- Static entries ---
    if let Some(bindings) = &installation.static_bindings {
        static_arp(&gateway_handle, bindings);
        for handle in &hosts {
            static_arp(handle, bindings);
        }
    }

    // --- Monitor fan-out hub + monitors ---
    if needs_monitor {
        let hub_id = sim.add_device(Box::new(Hub::new("monitor-hub", 6)));
        sim.connect(hub_id, PortId(0), switch_id, PortId(mirror_port), Duration::from_micros(2))
            .unwrap();
        for (port, monitor) in (1..).zip(installation.monitors) {
            let id = sim.add_device(monitor);
            sim.connect(id, PortId(0), hub_id, PortId(port), Duration::from_micros(2)).unwrap();
        }
    }

    BuiltLan {
        sim,
        switch: switch_handle,
        switch_id,
        gateway: gateway_handle,
        hosts,
        pings,
        alerts,
        truth,
        next_free_port,
        config,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use arpshield_netsim::SimTime;
    use arpshield_trace::{install, TraceCollector};

    #[test]
    fn baseline_lan_runs_and_pings_flow() {
        let mut lan = build(ScenarioConfig::new(1));
        lan.sim.run_until(SimTime::from_secs(5));
        for (i, ping) in lan.pings.iter().enumerate() {
            let p = ping.borrow();
            assert!(p.sent > 10, "host {i} sent {}", p.sent);
            assert!(
                p.received as f64 / p.sent as f64 > 0.95,
                "host {i} delivery {}/{}",
                p.received,
                p.sent
            );
        }
        assert!(lan.alerts.is_empty());
    }

    #[test]
    fn every_scheme_deploys_and_stays_quiet_when_benign() {
        for scheme in SchemeKind::all() {
            let mut lan = build(ScenarioConfig::new(2).with_scheme(scheme).with_hosts(4));
            lan.sim.run_until(SimTime::from_secs(6));
            let p = lan.pings[0].borrow();
            assert!(
                p.received as f64 / p.sent.max(1) as f64 > 0.9,
                "{scheme}: victim connectivity broken ({}/{})",
                p.received,
                p.sent
            );
            assert!(
                lan.alerts.is_empty(),
                "{scheme}: false positives on benign traffic: {:?}",
                lan.alerts.alerts()
            );
        }
    }

    #[test]
    fn static_arp_lan_sends_no_arp() {
        let mut lan =
            build(ScenarioConfig::new(3).with_scheme(SchemeKind::StaticArp).with_hosts(3));
        lan.sim.run_until(SimTime::from_secs(5));
        for h in &lan.hosts {
            assert_eq!(h.stats.borrow().arp_requests_sent, 0);
        }
    }

    #[test]
    fn attach_uses_free_ports() {
        let mut lan = build(ScenarioConfig::new(4).with_hosts(2));
        struct Dummy;
        impl arpshield_netsim::Device for Dummy {
            fn name(&self) -> &str {
                "dummy"
            }
            fn port_count(&self) -> usize {
                1
            }
            fn on_frame(&mut self, _: &mut arpshield_netsim::DeviceCtx<'_>, _: PortId, _: &[u8]) {}
        }
        let a = lan.attach(Box::new(Dummy));
        let b = lan.attach(Box::new(Dummy));
        assert_ne!(a, b);
    }

    #[test]
    fn impaired_lan_still_pings_with_hardened_retries() {
        let collector = Arc::new(TraceCollector::new());
        let mut lan = {
            let _guard = install(Arc::clone(&collector));
            build(
                ScenarioConfig::new(5)
                    .with_hosts(3)
                    .with_impairment(LinkProfile::default().with_loss(0.05))
                    .with_resolver_retry(RetryPolicy::exponential(
                        Duration::from_millis(500),
                        5,
                        Duration::from_secs(2),
                    ))
                    .with_hardening(SchemeHardening::lossy()),
            )
        };
        lan.sim.run_until(SimTime::from_secs(6));
        let p = lan.pings[0].borrow().clone();
        assert!(p.sent > 10);
        assert!(
            p.received as f64 / p.sent as f64 > 0.7,
            "lossy delivery collapsed: {}/{}",
            p.received,
            p.sent
        );
        drop(lan); // the last tracer handle flushes the run
        let lost = collector.manifest("lan").totals.get("wire.drop.lost").copied().unwrap_or(0);
        assert!(lost > 0, "losses must actually occur");
    }
}
