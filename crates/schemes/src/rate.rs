//! Threshold-counter anomaly detection for the volumetric L2 attacks
//! (MAC flooding, DHCP starvation, ARP sweeps).
//!
//! Binding-verification schemes are blind to attacks that do not forge
//! bindings at all; this monitor covers that flank with the
//! sliding-window counters practical IDS deployments use: distinct
//! source MACs per window (flooding), DHCP DISCOVERs per window
//! (starvation), and ARP requests per window (scanning). The detection
//! logic is deliberately simple — and so are its limits: thresholds must
//! be sized to the LAN, and a slow attacker ducks under them (measured
//! in experiment T6).
//!
//! # Cost
//!
//! Each frame costs amortised O(1), however full the window is. The
//! event queues hold what the window holds and expire from the front.
//! The distinct-source count is the size of a per-MAC count map kept
//! beside the source queue, not a set rebuilt per frame. Consecutive
//! frames from one source share one queue entry stamped with the run's
//! latest time. The run leaves the window exactly when its last frame
//! would have, so the count is unchanged. A DHCP server's ACK burst
//! thus costs one entry, not one per ACK.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::time::Duration;

use arpshield_netsim::hash::FastMap;
use arpshield_netsim::{Device, DeviceCtx, PortId, SimTime};
use arpshield_packet::{
    DhcpMessage, DhcpMessageType, EtherType, EthernetView, IpProtocol, Ipv4Packet, MacAddr,
    UdpDatagram, DHCP_SERVER_PORT,
};

use crate::work;
use crate::{Alert, AlertKind, AlertLog, SchemeKind};

const SCHEME: SchemeKind = SchemeKind::RateMonitor;

/// Rate-monitor thresholds, all per [`RateConfig::window`].
#[derive(Debug, Clone, Copy)]
pub struct RateConfig {
    /// Sliding window length.
    pub window: Duration,
    /// Distinct source MACs tolerated per window before flooding is
    /// suspected. Size to the station population plus headroom.
    pub max_new_macs: usize,
    /// DHCP DISCOVERs tolerated per window before starvation is
    /// suspected (a whole office powering on is the false-positive
    /// hazard).
    pub max_dhcp_discovers: usize,
    /// ARP requests tolerated per window before a sweep is suspected.
    pub max_arp_requests: usize,
    /// Re-alert suppression: one alert per kind per this interval.
    pub alert_cooldown: Duration,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            window: Duration::from_secs(1),
            max_new_macs: 30,
            max_dhcp_discovers: 10,
            max_arp_requests: 60,
            alert_cooldown: Duration::from_secs(5),
        }
    }
}

/// A mirror-port monitor running sliding-window threshold counters.
#[derive(Debug)]
pub struct RateMonitor {
    config: RateConfig,
    log: AlertLog,
    /// Unicast sources in arrival order, a run of frames from one source
    /// coalesced into one entry carrying the run's latest time.
    mac_events: VecDeque<(SimTime, MacAddr)>,
    /// Entries per source in `mac_events`; its size is the window's
    /// distinct-source count.
    mac_counts: FastMap<MacAddr, u32>,
    discover_events: VecDeque<SimTime>,
    arp_request_events: VecDeque<SimTime>,
    last_alert: [Option<SimTime>; 3],
}

impl RateMonitor {
    /// Creates a monitor reporting into `log`.
    pub fn new(config: RateConfig, log: AlertLog) -> Self {
        RateMonitor {
            config,
            log,
            mac_events: VecDeque::new(),
            mac_counts: FastMap::default(),
            discover_events: VecDeque::new(),
            arp_request_events: VecDeque::new(),
            last_alert: [None; 3],
        }
    }

    /// Pops events that fell out of the window, oldest first. A queue
    /// stops at its first live entry, as a plain FIFO would.
    fn expire(&mut self, now: SimTime) {
        let w = self.config.window;
        let expired = |t: SimTime| now.saturating_since(t) > w;
        while let Some((_, mac)) = self.mac_events.pop_front_if(|(t, _)| expired(*t)) {
            if let Entry::Occupied(mut count) = self.mac_counts.entry(mac) {
                *count.get_mut() -= 1;
                if *count.get() == 0 {
                    count.remove();
                }
            }
        }
        while self.discover_events.pop_front_if(|t| expired(*t)).is_some() {}
        while self.arp_request_events.pop_front_if(|t| expired(*t)).is_some() {}
    }

    /// Queues a source, extending the newest entry when it is the same
    /// source. The entry keeps the run's latest time: the run stays in
    /// the window until that frame expires, as it would entry by entry.
    fn record_source(&mut self, now: SimTime, src: MacAddr) {
        match self.mac_events.back_mut() {
            Some((latest, mac)) if *mac == src => *latest = (*latest).max(now),
            _ => {
                self.mac_events.push_back((now, src));
                *self.mac_counts.entry(src).or_insert(0) += 1;
            }
        }
    }

    fn maybe_alert(&mut self, now: SimTime, which: usize, kind: AlertKind) {
        let cooled = self.last_alert[which]
            .map(|t| now.saturating_since(t) >= self.config.alert_cooldown)
            .unwrap_or(true);
        if cooled {
            self.last_alert[which] = Some(now);
            self.log.raise(Alert {
                at: now,
                scheme: SCHEME.label(),
                kind,
                subject_ip: None,
                observed_mac: None,
                expected_mac: None,
            });
        }
    }

    fn check_thresholds(&mut self, now: SimTime) {
        if self.mac_counts.len() > self.config.max_new_macs {
            self.maybe_alert(now, 0, AlertKind::RateAnomaly);
        }
        if self.discover_events.len() > self.config.max_dhcp_discovers {
            self.maybe_alert(now, 1, AlertKind::RateAnomaly);
        }
        if self.arp_request_events.len() > self.config.max_arp_requests {
            self.maybe_alert(now, 2, AlertKind::RateAnomaly);
        }
    }

    /// Feeds one sniffed frame through the counters, given the pieces an
    /// [`EthernetView`] hands out.
    pub fn observe_parts(
        &mut self,
        now: SimTime,
        src: MacAddr,
        ethertype: EtherType,
        payload: &[u8],
    ) {
        self.log.add_work(SCHEME, work::INSPECT);
        self.expire(now);
        if src.is_unicast() && !src.is_zero() {
            self.record_source(now, src);
        }
        match ethertype {
            EtherType::ARP => {
                if let Ok(arp) = arpshield_packet::ArpPacket::parse(payload) {
                    if arp.op == arpshield_packet::ArpOp::Request && !arp.is_probe() {
                        self.arp_request_events.push_back(now);
                    }
                }
            }
            EtherType::Ipv4 => {
                if let Ok(pkt) = Ipv4Packet::parse(payload) {
                    if pkt.protocol == IpProtocol::Udp {
                        if let Ok(dgram) = UdpDatagram::parse(pkt.payload, pkt.src, pkt.dst) {
                            if dgram.dst_port == DHCP_SERVER_PORT {
                                if let Ok(msg) = DhcpMessage::parse(dgram.payload) {
                                    if msg.message_type() == Some(DhcpMessageType::Discover) {
                                        self.discover_events.push_back(now);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        self.check_thresholds(now);
    }
}

impl Device for RateMonitor {
    fn name(&self) -> &str {
        "rate-monitor"
    }

    fn port_count(&self) -> usize {
        1
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        if let Ok(eth) = EthernetView::parse(frame) {
            self.observe_parts(ctx.now(), eth.src(), eth.ethertype(), eth.payload());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arpshield_packet::MacAddr;

    /// Feeds one opaque frame from `MacAddr::from_index(src)`.
    fn observe_from(m: &mut RateMonitor, now: SimTime, src: u32) {
        m.observe_parts(now, MacAddr::from_index(src), EtherType::Other(0x1234), &[0; 46]);
    }

    #[test]
    fn mac_flood_threshold_fires_once_per_cooldown() {
        let log = AlertLog::new();
        let mut m =
            RateMonitor::new(RateConfig { max_new_macs: 5, ..Default::default() }, log.clone());
        for i in 0..50u32 {
            observe_from(&mut m, SimTime::from_millis(u64::from(i) * 10), i);
        }
        assert_eq!(log.len(), 1, "cooldown must throttle repeats");
        assert_eq!(log.alerts()[0].kind, AlertKind::RateAnomaly);
    }

    #[test]
    fn stable_population_is_silent() {
        let log = AlertLog::new();
        let mut m =
            RateMonitor::new(RateConfig { max_new_macs: 5, ..Default::default() }, log.clone());
        for i in 0..200u32 {
            observe_from(&mut m, SimTime::from_millis(u64::from(i) * 10), i % 4);
        }
        assert!(log.is_empty());
    }

    #[test]
    fn window_expiry_forgets_old_macs() {
        let log = AlertLog::new();
        let mut m =
            RateMonitor::new(RateConfig { max_new_macs: 5, ..Default::default() }, log.clone());
        // Five distinct MACs per second, but spread so no window holds
        // more than five: silent.
        for i in 0..50u32 {
            observe_from(&mut m, SimTime::from_millis(u64::from(i) * 250), i);
        }
        assert!(log.is_empty());
    }

    #[test]
    fn a_single_source_burst_is_one_window_entry() {
        let log = AlertLog::new();
        let mut m = RateMonitor::new(RateConfig::default(), log.clone());
        for i in 0..8_192u64 {
            observe_from(&mut m, SimTime::from_micros(i * 25), 7);
        }
        assert_eq!((m.mac_events.len(), m.mac_counts.len()), (1, 1));
        // The run leaves the window with its last frame, not its first.
        let last = SimTime::from_micros(8_191 * 25);
        let window = m.config.window;
        observe_from(&mut m, last + window, 8);
        assert_eq!(m.mac_counts.len(), 2, "the burst's last frame is still in the window");
        observe_from(&mut m, last + window + Duration::from_nanos(1), 8);
        assert_eq!(m.mac_counts.len(), 1, "the burst expired with its last frame");
        assert_eq!(m.mac_events.len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn discover_burst_fires() {
        use arpshield_packet::{Ipv4Addr, WireEmit, DHCP_CLIENT_PORT};
        let log = AlertLog::new();
        let mut m = RateMonitor::new(
            RateConfig { max_dhcp_discovers: 3, ..Default::default() },
            log.clone(),
        );
        for i in 0..6u32 {
            let msg = DhcpMessage::discover(i, MacAddr::from_index(i));
            let (src, dst) = (Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST);
            let dgram = UdpDatagram::new(DHCP_CLIENT_PORT, DHCP_SERVER_PORT, src, dst, &msg);
            let pkt = Ipv4Packet::new(src, dst, IpProtocol::Udp, &dgram).encode();
            let at = SimTime::from_millis(u64::from(i) * 50);
            m.observe_parts(at, MacAddr::from_index(i), EtherType::Ipv4, &pkt);
        }
        assert_eq!(log.len(), 1);
    }
}
