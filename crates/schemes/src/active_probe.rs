//! XArp/ArpON-style active verification: probe suspicious claims.

use std::time::Duration;

use arpshield_netsim::hash::FastMap;
use arpshield_netsim::{eth_frame, Device, DeviceCtx, PortId, SimTime};
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetView, Ipv4Addr, MacAddr};

use crate::work;
use crate::{Alert, AlertKind, AlertLog, SchemeKind};

const SCHEME: SchemeKind = SchemeKind::ActiveProbe;

/// How long to collect probe answers before judging.
const PROBE_WINDOW: Duration = Duration::from_millis(300);
/// Re-verify a binding at most this often (limits wire overhead).
const REVERIFY_COOLDOWN: Duration = Duration::from_secs(5);

/// Active prober knobs.
#[derive(Debug, Clone, Copy)]
pub struct ActiveProbeConfig {
    /// The prober's own hardware address (probes are sourced from it).
    pub mac: MacAddr,
    /// Extra probes re-issued when a verification window closes with no
    /// answer at all — a lost probe (or lost reply) otherwise turns into
    /// a silently trusted claim. 0 reproduces the classic single-probe
    /// behaviour.
    pub probe_retries: u32,
}

impl ActiveProbeConfig {
    /// A classic single-probe prober sourcing its probes from `mac`.
    pub fn new(mac: MacAddr) -> Self {
        ActiveProbeConfig { mac, probe_retries: 0 }
    }

    /// Enables probe re-issue on silent verification windows (for lossy
    /// links).
    pub fn with_probe_retries(mut self, retries: u32) -> Self {
        self.probe_retries = retries;
        self
    }
}

/// The distinct MACs that answered a probe, as far as judging needs:
/// none, exactly one, or several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answers {
    Silent,
    One(MacAddr),
    Several,
}

impl Answers {
    fn record(&mut self, mac: MacAddr) {
        *self = match *self {
            Answers::Silent => Answers::One(mac),
            Answers::One(first) if first == mac => Answers::One(first),
            _ => Answers::Several,
        };
    }
}

#[derive(Debug)]
struct ProbeState {
    claimed: MacAddr,
    answers: Answers,
    previous: Option<MacAddr>,
    /// Silent-window re-probes still allowed for this verification.
    retries_left: u32,
}

/// A monitor that verifies ARP claims by asking the network.
///
/// On every claim that is *new* or *contradicts* its database, it emits
/// an RFC 5227 ARP probe (zero sender IP, so it never pollutes caches)
/// for the claimed address and waits a window for answers:
///
/// * the claimed MAC answers, alone → claim verified, DB updated;
/// * a different MAC answers → [`AlertKind::ProbeContradiction`];
/// * multiple distinct MACs answer → [`AlertKind::DuplicateResponders`]
///   (two stations think they own the IP — a live poisoning fight).
///
/// The probe traffic itself is the scheme's cost, measured in experiment
/// F2.
#[derive(Debug)]
pub struct ActiveProbeMonitor {
    config: ActiveProbeConfig,
    log: AlertLog,
    db: FastMap<Ipv4Addr, MacAddr>,
    last_verified: FastMap<Ipv4Addr, SimTime>,
    pending: FastMap<Ipv4Addr, ProbeState>,
}

impl ActiveProbeMonitor {
    /// Creates a prober reporting into `log`.
    pub fn new(config: ActiveProbeConfig, log: AlertLog) -> Self {
        ActiveProbeMonitor {
            config,
            log,
            db: FastMap::default(),
            last_verified: FastMap::default(),
            pending: FastMap::default(),
        }
    }

    /// The database's current belief for `ip`.
    pub fn binding(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.db.get(&ip).copied()
    }

    fn start_probe(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        ip: Ipv4Addr,
        claimed: MacAddr,
        contradiction: bool,
    ) {
        if self.pending.contains_key(&ip) {
            return; // verification already in flight
        }
        // The cooldown only throttles re-probing of *new* stations; a
        // claim that contradicts an established binding is always worth a
        // probe — that is the scheme's whole point.
        if !contradiction {
            if let Some(at) = self.last_verified.get(&ip) {
                if ctx.now().saturating_since(*at) < REVERIFY_COOLDOWN {
                    return;
                }
            }
        }
        let previous = self.db.get(&ip).copied();
        self.pending.insert(
            ip,
            ProbeState {
                claimed,
                answers: Answers::Silent,
                previous,
                retries_left: self.config.probe_retries,
            },
        );
        self.emit_probe(ctx, ip);
    }

    fn emit_probe(&mut self, ctx: &mut DeviceCtx<'_>, ip: Ipv4Addr) {
        let probe = ArpPacket::request(self.config.mac, Ipv4Addr::UNSPECIFIED, ip);
        ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, self.config.mac, EtherType::ARP, &probe));
        self.log.add_work(SCHEME, work::PROBE);
        ctx.schedule_in(PROBE_WINDOW, u64::from(ip.to_u32()));
    }

    fn judge(&mut self, now: SimTime, ip: Ipv4Addr) {
        let Some(state) = self.pending.remove(&ip) else {
            return;
        };
        self.last_verified.insert(ip, now);
        match state.answers {
            Answers::Silent => {
                // Nobody defends the IP. The claim might be a station that
                // is simply quiet, or a forged binding for a live-but-mute
                // host. Record it provisionally (XArp behaves likewise).
                self.db.insert(ip, state.claimed);
            }
            Answers::One(answer) => {
                self.db.insert(ip, answer);
                if answer != state.claimed {
                    self.log.raise(Alert {
                        at: now,
                        scheme: SCHEME.label(),
                        kind: AlertKind::ProbeContradiction,
                        subject_ip: Some(ip),
                        observed_mac: Some(state.claimed),
                        expected_mac: Some(answer),
                    });
                }
            }
            Answers::Several => {
                self.log.raise(Alert {
                    at: now,
                    scheme: SCHEME.label(),
                    kind: AlertKind::DuplicateResponders,
                    subject_ip: Some(ip),
                    observed_mac: Some(state.claimed),
                    expected_mac: state.previous,
                });
            }
        }
    }
}

impl Device for ActiveProbeMonitor {
    fn name(&self) -> &str {
        "active-probe-monitor"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        let Ok(eth) = EthernetView::parse(frame) else {
            return;
        };
        if eth.ethertype() != EtherType::ARP {
            return;
        }
        let Ok(arp) = ArpPacket::parse(eth.payload()) else {
            return;
        };
        if arp.sender_mac == self.config.mac {
            return; // our own probes, mirrored back
        }
        self.log.add_work(SCHEME, work::INSPECT);
        if arp.sender_ip.is_unspecified() {
            return; // someone else's probe
        }
        // Answers to an in-flight probe: replies for the probed IP.
        if arp.op == ArpOp::Reply {
            if let Some(state) = self.pending.get_mut(&arp.sender_ip) {
                state.answers.record(arp.sender_mac);
                return; // judged when the window closes
            }
        }
        match self.db.get(&arp.sender_ip) {
            Some(known) if *known == arp.sender_mac => {} // stable claim
            Some(_) => self.start_probe(ctx, arp.sender_ip, arp.sender_mac, true),
            None => self.start_probe(ctx, arp.sender_ip, arp.sender_mac, false),
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        let ip = Ipv4Addr::from_u32(token as u32);
        // A window that closed without a single answer may mean the
        // probe (or every reply) was lost on an impaired link; burn a
        // retry before concluding anything.
        if let Some(state) = self.pending.get_mut(&ip) {
            if state.answers == Answers::Silent && state.retries_left > 0 {
                state.retries_left -= 1;
                self.emit_probe(ctx, ip);
                return;
            }
        }
        self.judge(ctx.now(), ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prober() -> (ActiveProbeMonitor, AlertLog) {
        let log = AlertLog::new();
        (
            ActiveProbeMonitor::new(ActiveProbeConfig::new(MacAddr::from_index(200)), log.clone()),
            log,
        )
    }

    const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// Opens a verification of `claimed` for [`IP`] that collected
    /// replies from `answers`, in order.
    fn pending(m: &mut ActiveProbeMonitor, claimed: u32, answers: &[u32], previous: Option<u32>) {
        let mut record = Answers::Silent;
        for &answer in answers {
            record.record(MacAddr::from_index(answer));
        }
        m.pending.insert(
            IP,
            ProbeState {
                claimed: MacAddr::from_index(claimed),
                answers: record,
                previous: previous.map(MacAddr::from_index),
                retries_left: 0,
            },
        );
    }

    #[test]
    fn contradicted_claim_alerts() {
        let (mut m, log) = prober();
        pending(&mut m, 66, &[1], None);
        m.judge(SimTime::from_secs(1), IP);
        assert_eq!(log.alerts()[0].kind, AlertKind::ProbeContradiction);
        assert_eq!(m.binding(IP), Some(MacAddr::from_index(1)), "probe answer wins");
    }

    #[test]
    fn confirmed_claim_is_silent() {
        let (mut m, log) = prober();
        pending(&mut m, 1, &[1], None);
        m.judge(SimTime::from_secs(1), IP);
        assert!(log.is_empty());
        assert_eq!(m.binding(IP), Some(MacAddr::from_index(1)));
    }

    #[test]
    fn repeated_answers_from_one_station_are_one_responder() {
        let (mut m, log) = prober();
        pending(&mut m, 1, &[1, 1, 1], None);
        m.judge(SimTime::from_secs(1), IP);
        assert!(log.is_empty(), "alerts: {:?}", log.alerts());
        assert_eq!(m.binding(IP), Some(MacAddr::from_index(1)));
    }

    #[test]
    fn duplicate_responders_alert() {
        let (mut m, log) = prober();
        pending(&mut m, 66, &[1, 66], Some(1));
        m.judge(SimTime::from_secs(1), IP);
        assert_eq!(log.alerts()[0].kind, AlertKind::DuplicateResponders);
    }

    #[test]
    fn three_responders_alert_once_and_keep_the_binding() {
        let (mut m, log) = prober();
        pending(&mut m, 66, &[1, 66, 1, 2], Some(1));
        m.judge(SimTime::from_secs(1), IP);
        let alerts = log.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::DuplicateResponders);
        assert_eq!(alerts[0].observed_mac, Some(MacAddr::from_index(66)));
        assert_eq!(alerts[0].expected_mac, Some(MacAddr::from_index(1)));
        assert_eq!(m.binding(IP), None, "a contested IP is not learned");
    }

    #[test]
    fn silent_ip_recorded_provisionally() {
        let (mut m, log) = prober();
        pending(&mut m, 7, &[], None);
        m.judge(SimTime::from_secs(1), IP);
        assert!(log.is_empty());
        assert_eq!(m.binding(IP), Some(MacAddr::from_index(7)));
    }

    // Wire-level behaviour (probe emission, cooldown, live contradiction
    // against real hosts) is exercised in the crate integration tests.
}
