//! The rate and stateful monitors keep their window state at constant
//! cost per frame. These properties drive both with random streams and
//! compare every alert against reference models kept here, which hold
//! the same state the plain way: a distinct-source set rebuilt on every
//! frame, and a request table swept on every frame.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use arpshield_netsim::{eth_frame, PortId, SimTime, StandaloneDriver};
use arpshield_packet::{
    ArpOp, ArpPacket, DhcpMessage, EtherType, IpProtocol, Ipv4Addr, Ipv4Packet, MacAddr,
    UdpDatagram, WireEmit, DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
};
use arpshield_schemes::{
    Alert, AlertKind, AlertLog, RateConfig, RateMonitor, StatefulConfig, StatefulMonitor,
};
use arpshield_testkit::prelude::*;

/// Moves the clock relative to a window `w`: a repeat, small steps,
/// steps landing on and just past the window edge, and regressions.
fn advance(now: SimTime, step: u8, w: Duration) -> SimTime {
    let (now, w) = (now.as_nanos(), w.as_nanos() as u64);
    SimTime::from_nanos(match step {
        0 => now,
        1 => now + 1,
        2 => now + w / 8,
        3 => now + w / 3,
        4 => now + w,
        5 => now + w + 1,
        6 => now + 3 * w,
        7 => now.saturating_sub(w / 4),
        _ => now.saturating_sub(w + 1),
    })
}

fn rate_alert(at: SimTime) -> Alert {
    Alert {
        at,
        scheme: "rate-monitor",
        kind: AlertKind::RateAnomaly,
        subject_ip: None,
        observed_mac: None,
        expected_mac: None,
    }
}

/// What a frame carries, as far as the rate monitor counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carries {
    Other,
    Request,
    Probe,
    Reply,
    Discover,
}

const CARRIES: [Carries; 5] =
    [Carries::Other, Carries::Request, Carries::Probe, Carries::Reply, Carries::Discover];

/// Twenty unicast sources, then the zero, broadcast and a multicast
/// address, which the monitor must not count.
fn source(index: u8) -> MacAddr {
    match index {
        0..20 => MacAddr::from_index(u32::from(index) + 1),
        20 => MacAddr::ZERO,
        21 => MacAddr::BROADCAST,
        _ => MacAddr::new([0x01, 0x00, 0x5E, 0x00, 0x00, index]),
    }
}

fn rate_payload(carries: Carries, src: MacAddr) -> (EtherType, Vec<u8>) {
    let me = Ipv4Addr::new(10, 0, 0, 1);
    let peer = Ipv4Addr::new(10, 0, 0, 2);
    match carries {
        Carries::Other => (EtherType::Other(0x1234), vec![0; 46]),
        Carries::Request => (EtherType::ARP, ArpPacket::request(src, me, peer).encode()),
        Carries::Probe => {
            (EtherType::ARP, ArpPacket::request(src, Ipv4Addr::UNSPECIFIED, peer).encode())
        }
        Carries::Reply => {
            let request = ArpPacket::request(MacAddr::from_index(99), peer, me);
            (EtherType::ARP, ArpPacket::reply_to(&request, src).encode())
        }
        Carries::Discover => {
            let msg = DhcpMessage::discover(7, src);
            let (from, to) = (Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST);
            let dgram = UdpDatagram::new(DHCP_CLIENT_PORT, DHCP_SERVER_PORT, from, to, &msg);
            (EtherType::Ipv4, Ipv4Packet::new(from, to, IpProtocol::Udp, &dgram).encode())
        }
    }
}

/// The rate monitor's window kept the plain way: every event queued,
/// distinct sources counted by a set rebuilt on every frame.
struct ReferenceRate {
    config: RateConfig,
    sources: VecDeque<(SimTime, MacAddr)>,
    discovers: VecDeque<SimTime>,
    requests: VecDeque<SimTime>,
    last_alert: [Option<SimTime>; 3],
    alerts: Vec<Alert>,
}

impl ReferenceRate {
    fn new(config: RateConfig) -> Self {
        ReferenceRate {
            config,
            sources: VecDeque::new(),
            discovers: VecDeque::new(),
            requests: VecDeque::new(),
            last_alert: [None; 3],
            alerts: Vec::new(),
        }
    }

    fn observe(&mut self, now: SimTime, src: MacAddr, carries: Carries) {
        let window = self.config.window;
        let expired = |t: SimTime| now.saturating_since(t) > window;
        while self.sources.front().is_some_and(|(t, _)| expired(*t)) {
            self.sources.pop_front();
        }
        while self.discovers.front().is_some_and(|t| expired(*t)) {
            self.discovers.pop_front();
        }
        while self.requests.front().is_some_and(|t| expired(*t)) {
            self.requests.pop_front();
        }
        if src.is_unicast() && !src.is_zero() {
            self.sources.push_back((now, src));
        }
        match carries {
            Carries::Request => self.requests.push_back(now),
            Carries::Discover => self.discovers.push_back(now),
            _ => {}
        }
        let distinct: HashSet<MacAddr> = self.sources.iter().map(|(_, mac)| *mac).collect();
        let over = [
            distinct.len() > self.config.max_new_macs,
            self.discovers.len() > self.config.max_dhcp_discovers,
            self.requests.len() > self.config.max_arp_requests,
        ];
        for (which, over) in over.into_iter().enumerate() {
            let cooldown = self.config.alert_cooldown;
            let cooled = self.last_alert[which].is_none_or(|t| now.saturating_since(t) >= cooldown);
            if over && cooled {
                self.last_alert[which] = Some(now);
                self.alerts.push(rate_alert(now));
            }
        }
    }
}

/// Requests above which the reference sweeps its table on every frame.
const SWEEP_ABOVE: usize = 4096;
/// Distinct requests a bulk prefix asks: more than [`SWEEP_ABOVE`].
const BULK: u32 = 4_200;

/// The stateful monitor kept the plain way: requests, with the
/// requester's MAC, in a table swept on every frame above 4,096 entries.
struct ReferenceStateful {
    config: StatefulConfig,
    outstanding: HashMap<(Ipv4Addr, Ipv4Addr), (SimTime, MacAddr)>,
    bindings: HashMap<Ipv4Addr, MacAddr>,
    alerts: Vec<Alert>,
}

impl ReferenceStateful {
    fn new(config: StatefulConfig) -> Self {
        ReferenceStateful {
            config,
            outstanding: HashMap::new(),
            bindings: HashMap::new(),
            alerts: Vec::new(),
        }
    }

    fn raise(
        &mut self,
        at: SimTime,
        kind: AlertKind,
        ip: Ipv4Addr,
        mac: MacAddr,
        expected: Option<MacAddr>,
    ) {
        self.alerts.push(Alert {
            at,
            scheme: "stateful",
            kind,
            subject_ip: Some(ip),
            observed_mac: Some(mac),
            expected_mac: expected,
        });
    }

    fn track_binding(&mut self, now: SimTime, ip: Ipv4Addr, mac: MacAddr) {
        if !self.config.track_bindings || ip.is_unspecified() {
            return;
        }
        if let Some(previous) = self.bindings.insert(ip, mac) {
            if previous != mac {
                self.raise(now, AlertKind::BindingChanged, ip, mac, Some(previous));
            }
        }
    }

    fn inspect(&mut self, now: SimTime, l2_src: MacAddr, arp: &ArpPacket) {
        if self.config.check_l2_consistency && !arp.sender_mac.is_zero() && l2_src != arp.sender_mac
        {
            self.raise(now, AlertKind::ReplyMismatch, arp.sender_ip, arp.sender_mac, Some(l2_src));
        }
        match arp.op {
            ArpOp::Request => {
                self.outstanding.insert((arp.sender_ip, arp.target_ip), (now, arp.sender_mac));
            }
            ArpOp::Reply => {
                let window = self.config.request_window;
                let solicited = match self.outstanding.get(&(arp.target_ip, arp.sender_ip)) {
                    Some((asked_at, _)) => now.saturating_since(*asked_at) <= window,
                    None => false,
                };
                if !solicited {
                    self.raise(
                        now,
                        AlertKind::UnsolicitedReply,
                        arp.sender_ip,
                        arp.sender_mac,
                        None,
                    );
                }
            }
        }
        self.track_binding(now, arp.sender_ip, arp.sender_mac);
        if self.outstanding.len() > SWEEP_ABOVE {
            let window = self.config.request_window;
            self.outstanding.retain(|_, (t, _)| now.saturating_since(*t) <= window);
        }
    }
}

/// Request windows the stateful property draws from: the default, a
/// short one, one whose sweep period is 2 ns, and zero.
const REQUEST_WINDOWS: [Duration; 4] =
    [Duration::from_secs(2), Duration::from_millis(1), Duration::from_nanos(16), Duration::ZERO];

fn host(index: u8) -> (Ipv4Addr, MacAddr) {
    (Ipv4Addr::new(10, 0, 0, index + 1), MacAddr::from_index(u32::from(index) + 1))
}

const ATTACKER: MacAddr = MacAddr::from_index(66);

fn bulk_requester(index: u32) -> (Ipv4Addr, MacAddr) {
    (Ipv4Addr::from_u32(0x0A01_0000 + index), MacAddr::from_index(1_000 + index))
}

/// The one station every bulk request asks for.
fn bulk_target() -> (Ipv4Addr, MacAddr) {
    (Ipv4Addr::new(10, 2, 0, 1), MacAddr::from_index(999))
}

/// Feeds frames to the monitor through a [`StandaloneDriver`], as the
/// ingest path does, and to the reference at the driver's clock. A
/// regressing timestamp reaches a device as the driver's monotonic
/// clock, so the reference sees that clock too.
struct StatefulPair {
    monitor: StatefulMonitor,
    driver: StandaloneDriver,
    reference: ReferenceStateful,
}

impl StatefulPair {
    fn deliver(&mut self, at: SimTime, l2_src: MacAddr, arp: ArpPacket) {
        let frame = eth_frame(MacAddr::BROADCAST, l2_src, EtherType::ARP, &arp);
        self.driver.deliver(&mut self.monitor, at, PortId(0), &frame);
        self.reference.inspect(self.driver.now(), l2_src, &arp);
    }
}

properties! {
    /// Same-source bursts, equal and regressing timestamps, steps onto
    /// and past the window edge, and frames the monitor must not count.
    #[test]
    fn rate_monitor_matches_a_per_frame_distinct_set(
        window_ms in 1u64..2_000,
        limits in (1usize..12, 1usize..6, 1usize..10),
        cooldown_ms in prop_oneof![Just(0u64), 1u64..3_000],
        frames in collection::vec((0u8..9, 0u8..24, 0u8..5, 1u8..6), 0..120),
    ) {
        let config = RateConfig {
            window: Duration::from_millis(window_ms),
            max_new_macs: limits.0,
            max_dhcp_discovers: limits.1,
            max_arp_requests: limits.2,
            alert_cooldown: Duration::from_millis(cooldown_ms),
        };
        let log = AlertLog::new();
        let mut monitor = RateMonitor::new(config, log.clone());
        let mut reference = ReferenceRate::new(config);
        let mut now = SimTime::from_secs(10);
        for (step, src, carries, burst) in frames {
            let src = source(src);
            let carries = CARRIES[usize::from(carries)];
            let (ethertype, payload) = rate_payload(carries, src);
            for _ in 0..burst {
                now = advance(now, step, config.window);
                monitor.observe_parts(now, src, ethertype, &payload);
                reference.observe(now, src, carries);
            }
        }
        prop_assert_eq!(log.alerts(), reference.alerts);
    }

    /// Optionally more than 4,096 live requests up front, then requests,
    /// replies inside, at and past the window edge of a chosen request,
    /// forgeries, gratuitous claims, probes and L2 mismatches.
    #[test]
    fn stateful_monitor_matches_a_table_swept_every_frame(
        window in 0usize..REQUEST_WINDOWS.len(),
        checks in (any::<bool>(), any::<bool>()),
        bulk in any::<bool>(),
        ops in collection::vec((0u8..8, 0u8..12, 0u8..12, 0u8..9, 0u8..16), 0..100),
    ) {
        let config = StatefulConfig {
            request_window: REQUEST_WINDOWS[window],
            track_bindings: checks.0,
            check_l2_consistency: checks.1,
        };
        let log = AlertLog::new();
        let mut pair = StatefulPair {
            monitor: StatefulMonitor::new(config, log.clone()),
            driver: StandaloneDriver::new(1),
            reference: ReferenceStateful::new(config),
        };
        pair.driver.start(&mut pair.monitor);
        let w = config.request_window;
        let mut now = SimTime::from_secs(10);
        if bulk {
            // Spread over half a window, so the tail sees them go stale
            // a few at a time.
            let gap = w.as_nanos() as u64 / u64::from(2 * BULK);
            let (target, _) = bulk_target();
            for i in 0..BULK {
                let (ip, mac) = bulk_requester(i);
                pair.deliver(now, mac, ArpPacket::request(mac, ip, target));
                now = SimTime::from_nanos(now.as_nanos() + gap);
            }
        }
        let mut asked: Vec<(SimTime, u8, u8)> = Vec::new();
        for (op, a, b, step, pick) in ops {
            let ((a_ip, a_mac), (b_ip, b_mac)) = (host(a), host(b));
            let at = advance(now, step, w);
            match op {
                0 => {
                    pair.deliver(at, a_mac, ArpPacket::request(a_mac, a_ip, b_ip));
                    asked.push((pair.driver.now(), a, b));
                }
                1 if !asked.is_empty() => {
                    // Answer a chosen request, `step` picking where in
                    // its window the answer lands.
                    let (asked_at, asker, target) = asked[usize::from(pick) % asked.len()];
                    let ((ip, mac), (their_ip, their_mac)) = (host(asker), host(target));
                    let request = ArpPacket::request(mac, ip, their_ip);
                    let answer_at = advance(asked_at, step.min(6), w);
                    pair.deliver(answer_at, their_mac, ArpPacket::reply_to(&request, their_mac));
                }
                1 | 2 => {
                    let request = ArpPacket::request(a_mac, a_ip, b_ip);
                    pair.deliver(at, b_mac, ArpPacket::reply_to(&request, b_mac));
                }
                3 => {
                    let forged = ArpPacket {
                        op: ArpOp::Reply,
                        sender_mac: ATTACKER,
                        sender_ip: b_ip,
                        target_mac: a_mac,
                        target_ip: a_ip,
                    };
                    pair.deliver(at, ATTACKER, forged);
                }
                4 => pair.deliver(at, a_mac, ArpPacket::gratuitous(ArpOp::Request, a_mac, a_ip)),
                5 => pair.deliver(at, ATTACKER, ArpPacket::request(a_mac, a_ip, b_ip)),
                6 => pair.deliver(at, a_mac, ArpPacket::request(a_mac, Ipv4Addr::UNSPECIFIED, b_ip)),
                _ => {
                    // The asked-for station answers one of the bulk requests.
                    let index = (u32::from(a) << 8 | u32::from(b) << 4 | u32::from(pick)) % BULK;
                    let (ip, mac) = bulk_requester(index);
                    let (target, target_mac) = bulk_target();
                    let request = ArpPacket::request(mac, ip, target);
                    pair.deliver(at, target_mac, ArpPacket::reply_to(&request, target_mac));
                }
            }
            now = pair.driver.now();
        }
        prop_assert_eq!(log.alerts(), pair.reference.alerts);
    }
}
