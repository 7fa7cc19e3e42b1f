//! Snort-style stateful ARP inspection: match replies to requests.
//!
//! # Cost
//!
//! Each ARP frame costs amortised O(1). Requests sit in a table keyed
//! by (requester IP, target IP) that holds only when each was asked.
//! Once the table holds more than 4,096 entries, stale requests are
//! swept at most once per `request_window / 8` of sim time, not on
//! every frame, so the frames of one sweep period share one sweep's
//! cost. The table then holds the live requests plus at most one sweep
//! period of inserts.
//!
//! Deferring the sweep cannot change a verdict. A reply counts only a
//! request asked at most `request_window` ago, so a stale entry already
//! fails that check. The device clock never runs backwards, so a stale
//! entry never turns live again. A new request for the same pair
//! overwrites it whether or not it was swept.

use std::time::Duration;

use arpshield_netsim::hash::FastMap;
use arpshield_netsim::{Device, DeviceCtx, PortId, SimTime};
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetView, Ipv4Addr, MacAddr};

use crate::work;
use crate::{Alert, AlertKind, AlertLog, SchemeKind};

const SCHEME: SchemeKind = SchemeKind::Stateful;

/// Outstanding requests the table may hold before stale ones are swept.
const SWEEP_ABOVE: usize = 4096;
/// Sweeps run at most this many times per `request_window` of sim time.
const SWEEPS_PER_WINDOW: u32 = 8;

/// Stateful monitor knobs.
#[derive(Debug, Clone, Copy)]
pub struct StatefulConfig {
    /// How long an observed request justifies a subsequent reply.
    pub request_window: Duration,
    /// Also keep a binding DB (like the passive monitor) and alert on
    /// changes — catches request-based poisoning that pure reply
    /// matching misses.
    pub track_bindings: bool,
    /// Alert when the Ethernet source differs from the ARP sender MAC —
    /// a classic forgery tell.
    pub check_l2_consistency: bool,
}

impl Default for StatefulConfig {
    fn default() -> Self {
        StatefulConfig {
            request_window: Duration::from_secs(2),
            track_bindings: true,
            check_l2_consistency: true,
        }
    }
}

/// A mirror-port monitor that models the ARP state machine: every reply
/// must answer a recent request, addressed back to the requester.
///
/// This is the detection core of the "middleware"/IDS approach the paper
/// analyzes: stronger than pure passive diffing (it catches unsolicited
/// replies even during the learning window) but still evadable by the
/// reply-race variant, which *is* solicited.
#[derive(Debug)]
pub struct StatefulMonitor {
    config: StatefulConfig,
    log: AlertLog,
    /// Requests seen: (requester ip, target ip) -> when last asked.
    outstanding: FastMap<(Ipv4Addr, Ipv4Addr), SimTime>,
    /// Earliest time the next sweep of stale requests may run.
    next_sweep: SimTime,
    bindings: FastMap<Ipv4Addr, MacAddr>,
}

impl StatefulMonitor {
    /// Creates a monitor reporting into `log`.
    pub fn new(config: StatefulConfig, log: AlertLog) -> Self {
        StatefulMonitor {
            config,
            log,
            outstanding: FastMap::default(),
            next_sweep: SimTime::ZERO,
            bindings: FastMap::default(),
        }
    }

    fn raise(&self, now: SimTime, kind: AlertKind, arp: &ArpPacket, expected: Option<MacAddr>) {
        self.log.raise(Alert {
            at: now,
            scheme: SCHEME.label(),
            kind,
            subject_ip: Some(arp.sender_ip),
            observed_mac: Some(arp.sender_mac),
            expected_mac: expected,
        });
    }

    fn track_binding(&mut self, now: SimTime, ip: Ipv4Addr, mac: MacAddr) {
        if !self.config.track_bindings || ip.is_unspecified() {
            return;
        }
        self.log.add_work(SCHEME, work::DB_OP);
        if let Some(previous) = self.bindings.insert(ip, mac) {
            if previous != mac {
                self.log.raise(Alert {
                    at: now,
                    scheme: SCHEME.label(),
                    kind: AlertKind::BindingChanged,
                    subject_ip: Some(ip),
                    observed_mac: Some(mac),
                    expected_mac: Some(previous),
                });
            }
        }
    }

    fn inspect(&mut self, now: SimTime, l2_src: MacAddr, arp: &ArpPacket) {
        self.log.add_work(SCHEME, work::INSPECT);
        if self.config.check_l2_consistency && !arp.sender_mac.is_zero() && l2_src != arp.sender_mac
        {
            self.raise(now, AlertKind::ReplyMismatch, arp, Some(l2_src));
        }
        match arp.op {
            ArpOp::Request => {
                // Probes (unspecified sender) are tracked too: their
                // answers must not read as unsolicited.
                self.outstanding.insert((arp.sender_ip, arp.target_ip), now);
                self.track_binding(now, arp.sender_ip, arp.sender_mac);
            }
            ArpOp::Reply => {
                // A reply from X to Y answers a request (Y -> X).
                let key = (arp.target_ip, arp.sender_ip);
                let solicited = self.outstanding.get(&key).is_some_and(|asked_at| {
                    now.saturating_since(*asked_at) <= self.config.request_window
                });
                // The request is deliberately NOT consumed on match: a
                // mirrored or retransmitted duplicate of a legitimate
                // reply must stay solicited. Entries lapse by window.
                if !solicited {
                    self.raise(now, AlertKind::UnsolicitedReply, arp, None);
                }
                self.track_binding(now, arp.sender_ip, arp.sender_mac);
            }
        }
        // Bound state: sweep stale requests, at most once per period.
        if self.outstanding.len() > SWEEP_ABOVE && now >= self.next_sweep {
            let window = self.config.request_window;
            self.outstanding.retain(|_, asked_at| now.saturating_since(*asked_at) <= window);
            self.next_sweep = now.saturating_add(window / SWEEPS_PER_WINDOW);
        }
    }
}

impl Device for StatefulMonitor {
    fn name(&self) -> &str {
        "stateful-monitor"
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
        self.inspect(ctx.now(), eth.src(), &arp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> (StatefulMonitor, AlertLog) {
        let log = AlertLog::new();
        (StatefulMonitor::new(StatefulConfig::default(), log.clone()), log)
    }

    fn request(from: u32, from_ip: u8, for_ip: u8) -> ArpPacket {
        ArpPacket::request(
            MacAddr::from_index(from),
            Ipv4Addr::new(10, 0, 0, from_ip),
            Ipv4Addr::new(10, 0, 0, for_ip),
        )
    }

    #[test]
    fn solicited_reply_is_silent() {
        let (mut m, log) = monitor();
        let req = request(1, 1, 2);
        m.inspect(SimTime::from_secs(1), req.sender_mac, &req);
        let reply = ArpPacket::reply_to(&req, MacAddr::from_index(2));
        m.inspect(SimTime::from_millis(1100), reply.sender_mac, &reply);
        assert!(log.is_empty(), "alerts: {:?}", log.alerts());
    }

    #[test]
    fn unsolicited_reply_detected_even_with_empty_db() {
        let (mut m, log) = monitor();
        let forged = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::from_index(66),
            sender_ip: Ipv4Addr::new(10, 0, 0, 1),
            target_mac: MacAddr::from_index(2),
            target_ip: Ipv4Addr::new(10, 0, 0, 2),
        };
        m.inspect(SimTime::from_secs(5), forged.sender_mac, &forged);
        assert_eq!(log.alerts()[0].kind, AlertKind::UnsolicitedReply);
    }

    #[test]
    fn reply_outside_window_is_unsolicited() {
        let (mut m, log) = monitor();
        let req = request(1, 1, 2);
        m.inspect(SimTime::from_secs(1), req.sender_mac, &req);
        let reply = ArpPacket::reply_to(&req, MacAddr::from_index(2));
        m.inspect(SimTime::from_secs(10), reply.sender_mac, &reply);
        assert_eq!(log.alerts()[0].kind, AlertKind::UnsolicitedReply);
    }

    #[test]
    fn race_variant_evades_reply_matching_but_binding_db_catches_flip() {
        let (mut m, log) = monitor();
        // Victim asks for gw.
        let req = request(2, 2, 1);
        m.inspect(SimTime::from_secs(1), req.sender_mac, &req);
        // Attacker's forged reply wins the race — it is solicited.
        let forged = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::from_index(66),
            sender_ip: Ipv4Addr::new(10, 0, 0, 1),
            target_mac: MacAddr::from_index(2),
            target_ip: Ipv4Addr::new(10, 0, 0, 2),
        };
        m.inspect(SimTime::from_millis(1010), forged.sender_mac, &forged);
        assert!(log.is_empty(), "solicited forgery passes reply matching");
        // The genuine reply lands second: binding DB flags the flip.
        let genuine = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::from_index(1),
            sender_ip: Ipv4Addr::new(10, 0, 0, 1),
            target_mac: MacAddr::from_index(2),
            target_ip: Ipv4Addr::new(10, 0, 0, 2),
        };
        m.inspect(SimTime::from_millis(1020), genuine.sender_mac, &genuine);
        let kinds: Vec<_> = log.alerts().iter().map(|a| a.kind).collect();
        // The genuine reply is now "unsolicited" (request consumed) and
        // the binding flip fires: the race is *noticed*, but attribution
        // points at the victim's legitimate gateway — a documented
        // weakness of the approach.
        assert!(kinds.contains(&AlertKind::BindingChanged));
    }

    #[test]
    fn l2_inconsistency_detected() {
        let (mut m, log) = monitor();
        let forged = request(66, 1, 2); // claims sender mac 66...
                                        // ...but the frame is sourced from 99.
        m.inspect(SimTime::from_secs(1), MacAddr::from_index(99), &forged);
        assert!(log.alerts().iter().any(|a| a.kind == AlertKind::ReplyMismatch));
    }

    #[test]
    fn a_steady_stream_keeps_the_table_within_one_sweep_period() {
        let (mut m, log) = monitor();
        let window = m.config.request_window;
        // 4,000 new requests per simulated second: 8,001 live in the
        // 2 s window, well above the sweep threshold.
        let gap = Duration::from_micros(250);
        let live_max = window.as_nanos() / gap.as_nanos() + 1;
        let per_period = (window / SWEEPS_PER_WINDOW).as_nanos() / gap.as_nanos();
        let mut now = SimTime::from_secs(1);
        let mut largest = 0;
        for i in 0..40_000u32 {
            let asker = Ipv4Addr::from_u32(0x0A00_0000 + i);
            let req =
                ArpPacket::request(MacAddr::from_index(i), asker, Ipv4Addr::new(10, 255, 0, 1));
            m.inspect(now, req.sender_mac, &req);
            let live = (u128::from(i) + 1).min(live_max);
            let held = m.outstanding.len() as u128;
            assert!(held <= live + per_period, "{held} entries for {live} live at request {i}");
            largest = largest.max(held);
            now += gap;
        }
        assert!(largest > SWEEP_ABOVE as u128, "the stream must reach the sweeping regime");
        assert!(log.is_empty(), "alerts: {:?}", log.alerts());
    }

    #[test]
    fn gratuitous_request_poisoning_caught_by_binding_db() {
        let (mut m, log) = monitor();
        let honest = request(1, 1, 2);
        m.inspect(SimTime::from_secs(1), honest.sender_mac, &honest);
        let forged = ArpPacket::gratuitous(
            ArpOp::Request,
            MacAddr::from_index(66),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        m.inspect(SimTime::from_secs(2), forged.sender_mac, &forged);
        assert!(log.alerts().iter().any(|a| a.kind == AlertKind::BindingChanged));
    }
}
