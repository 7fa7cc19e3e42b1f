//! Running a scheme as a standalone online detector.
//!
//! The simulator evaluates every scheme inside a full LAN; this module
//! flips the direction: frames come from *outside* (a pcapng capture, a
//! pipe) and a [`Detector`] drives one scheme's inspection surface
//! frame-by-frame — the shape of Barbhuiya et al.'s host-based ARP IDS,
//! with arpshield's schemes as the interchangeable engine.
//!
//! Built on the PR-3 factory: [`SchemeKind::instantiate`] runs against a
//! *blank* [`LanPlan`] (no gateway, no host inventory — a detector
//! parachuted into an unknown LAN), and whatever monitors and inspectors
//! the installation declares are driven through a
//! [`StandaloneDriver`] per monitor. Schemes whose mechanism lives in
//! host stacks or switch fabric (static ARP, Anticap/Antidote, S-ARP,
//! TARP, port security) have no single-vantage inspection surface and
//! are rejected up front.
//!
//! DAI is a special case: its inspector normally sits in a switch with
//! trusted and untrusted ports. Standalone, IPv4 traffic is presented on
//! a *trusted* port (so DHCP snooping learns leases from the capture,
//! as if mirrored from the server uplink) and ARP on an *untrusted*
//! port (so sender claims are validated against the snooped table).
//!
//! Alerts, verdict counters, and work units flow through the same
//! [`AlertLog`]/`Tracer` machinery as a live run, so re-ingesting a
//! simulator capture from a monitor's vantage point reproduces the live
//! run's verdict counters exactly.

use std::collections::BTreeMap;

use arpshield_netsim::{Device, FrameInspector, InspectVerdict, PortId, SimTime, StandaloneDriver};
use arpshield_packet::{EtherType, EthernetView, ETHERNET_MAX_PAYLOAD};
use arpshield_trace::profile;
use arpshield_trace::{FrameKind, Tracer};

use crate::alert::{Alert, AlertLog};
use crate::factory::LanPlan;
use crate::SchemeKind;

/// Port the DAI inspector trusts (IPv4/DHCP snooping side).
const TRUSTED_PORT: PortId = PortId(0);
/// Port the DAI inspector validates (ARP side).
const UNTRUSTED_PORT: PortId = PortId(1);
/// Base seed for per-monitor deterministic randomness.
const DRIVER_SEED: u64 = 0x1DE7_EC70;
/// How far past the last frame [`Detector::finish`] advances the clock,
/// closing probe windows that straddle the capture's end.
const FINISH_GRACE: std::time::Duration = std::time::Duration::from_secs(1);

/// Counters the ingest path keeps per detector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames offered via [`Detector::observe`].
    pub frames: u64,
    /// Their total length in bytes.
    pub bytes: u64,
    /// Frames carrying ARP (including the S-ARP/TARP variants).
    pub arp: u64,
    /// Well-formed frames of any other ethertype.
    pub non_arp: u64,
    /// Frames that carried an 802.1Q/802.1ad tag.
    pub vlan_tagged: u64,
    /// Frames whose payload exceeds the standard MTU (processed anyway).
    pub jumbo: u64,
    /// Frames skipped because even lenient Ethernet parsing failed.
    pub unparseable: u64,
    /// Frames an inspector (DAI) would have dropped at the fabric.
    pub denied: u64,
    /// Frames the scheme tried to transmit (active probes). They go
    /// nowhere — there is no wire — but are counted as the scheme's
    /// on-LAN footprint.
    pub probes_emitted: u64,
    /// Scheme timers fired between frames.
    pub timers_fired: u64,
}

/// One scheme instance fed frame-by-frame from an external source.
pub struct Detector {
    kind: SchemeKind,
    alerts: AlertLog,
    tracer: Tracer,
    monitors: Vec<(Box<dyn Device>, StandaloneDriver)>,
    inspector: Option<Box<dyn FrameInspector>>,
    stats: IngestStats,
    last_at: SimTime,
    finished: bool,
}

impl std::fmt::Debug for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Detector")
            .field("kind", &self.kind)
            .field("monitors", &self.monitors.len())
            .field("has_inspector", &self.inspector.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Detector {
    /// Instantiates `kind` as a standalone detector with a disabled
    /// tracer (counters and provenance off; alerts still collected).
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for schemes with no single-vantage
    /// inspection surface — see [`Detector::supported`].
    pub fn new(kind: SchemeKind) -> Result<Self, String> {
        Self::with_tracer(kind, Tracer::disabled())
    }

    /// Like [`Detector::new`], but alerts raise verdict counters and
    /// provenance events through `tracer`, exactly as a live run would.
    pub fn with_tracer(kind: SchemeKind, tracer: Tracer) -> Result<Self, String> {
        let alerts = AlertLog::new();
        alerts.set_tracer(tracer.clone());
        let installation = kind.instantiate(&Self::blank_plan(), &alerts);
        if installation.monitors.is_empty() && installation.inspector.is_none() {
            return Err(format!(
                "scheme '{kind}' has no standalone inspection surface (its mechanism lives in \
                 host stacks or switch fabric); supported schemes: {}",
                Self::supported().iter().map(|k| k.label()).collect::<Vec<_>>().join(", ")
            ));
        }
        let monitors = installation
            .monitors
            .into_iter()
            .enumerate()
            .map(|(index, mut device)| {
                let mut driver = StandaloneDriver::new(DRIVER_SEED + index as u64);
                driver.start(device.as_mut());
                (device, driver)
            })
            .collect();
        Ok(Detector {
            kind,
            alerts,
            tracer,
            monitors,
            inspector: installation.inspector,
            stats: IngestStats::default(),
            last_at: SimTime::ZERO,
            finished: false,
        })
    }

    /// The plan a detector deploys against: an unknown LAN. No gateway
    /// or host inventory (nothing to whitelist), no trusted ports, a
    /// locally-administered probe source MAC.
    fn blank_plan() -> LanPlan {
        LanPlan {
            gateway: (arpshield_packet::Ipv4Addr::UNSPECIFIED, arpshield_packet::MacAddr::ZERO),
            hosts: Vec::new(),
            akd: (arpshield_packet::Ipv4Addr::UNSPECIFIED, arpshield_packet::MacAddr::ZERO),
            trusted_ports: vec![TRUSTED_PORT],
            probe_source_mac: arpshield_packet::MacAddr::from_index(0x00D7_EC70),
            hardening: Default::default(),
        }
    }

    /// Scheme kinds [`Detector::new`] accepts: the network-monitor and
    /// fabric-inspection classes.
    pub fn supported() -> Vec<SchemeKind> {
        SchemeKind::all().into_iter().filter(|kind| Self::is_supported(*kind)).collect()
    }

    /// Whether `kind` has a standalone inspection surface.
    pub fn is_supported(kind: SchemeKind) -> bool {
        matches!(
            kind,
            SchemeKind::Passive
                | SchemeKind::Stateful
                | SchemeKind::ActiveProbe
                | SchemeKind::RateMonitor
                | SchemeKind::Hybrid
                | SchemeKind::Dai
        )
    }

    /// The scheme this detector runs.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Feeds one frame observed at `at` with anonymous provenance.
    pub fn observe(&mut self, at: SimTime, bytes: &[u8]) {
        self.observe_from(at, bytes, "wire", "detector");
    }

    /// Feeds one frame, attributing it to `src`/`dst` endpoints in the
    /// capture provenance (used when re-ingesting an arpshield capture,
    /// which records both). The endpoint strings are only materialized
    /// when a flight recorder is armed.
    pub fn observe_from(&mut self, at: SimTime, bytes: &[u8], src: &str, dst: &str) {
        let _s = profile::span("ingest.observe");
        self.stats.frames += 1;
        self.stats.bytes += bytes.len() as u64;
        self.last_at = self.last_at.max(at);
        let view = match EthernetView::parse(bytes) {
            Ok(view) => view,
            Err(_) => {
                self.stats.unparseable += 1;
                return;
            }
        };
        if view.vlan().is_some() {
            self.stats.vlan_tagged += 1;
        }
        if view.payload().len() > ETHERNET_MAX_PAYLOAD {
            self.stats.jumbo += 1;
        }
        match view.ethertype() {
            EtherType::ARP | EtherType::SArp | EtherType::Tarp => self.stats.arp += 1,
            _ => self.stats.non_arp += 1,
        }
        // Same provenance protocol as the simulator: record the frame,
        // mark it current so verdicts cite it, dispatch, unmark.
        let frame_id = self.tracer.record_frame(at.as_nanos(), FrameKind::Delivered, bytes, || {
            (src.to_string(), dst.to_string())
        });
        self.tracer.set_current_frame(frame_id);
        for (device, driver) in &mut self.monitors {
            driver.deliver(device.as_mut(), at, PortId(0), bytes);
        }
        let now = self.monitor_now(at);
        if let Some(inspector) = &mut self.inspector {
            // The borrowed view over the capture bytes is the same
            // zero-copy contract the in-switch fast path hands its
            // inspector.
            let port =
                if view.ethertype() == EtherType::ARP { UNTRUSTED_PORT } else { TRUSTED_PORT };
            // Captures carry the wire tag (if any); untagged traffic
            // lands in the VID-0 domain, matching the switch contract.
            let vlan = view.vlan().unwrap_or(0);
            if let InspectVerdict::Deny { .. } = inspector.inspect(now, port, vlan, &view) {
                self.stats.denied += 1;
            }
        }
        self.tracer.set_current_frame(None);
        self.collect_driver_effects();
    }

    /// The monotonic clock frames are dispatched at (drivers refuse to
    /// move backwards on unsorted captures).
    fn monitor_now(&self, at: SimTime) -> SimTime {
        self.monitors.iter().map(|(_, driver)| driver.now()).max().unwrap_or(at).max(at)
    }

    fn collect_driver_effects(&mut self) {
        let sends = self.monitors.iter_mut().map(|(_, driver)| driver.drain_sends().len());
        self.stats.probes_emitted += sends.sum::<usize>() as u64;
    }

    /// Closes out the stream: advances scheme clocks a grace period past
    /// the last frame (judging probe windows still open at end of
    /// capture) and flushes ingest counters to the tracer. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let deadline = self.last_at.saturating_add(FINISH_GRACE);
        for (device, driver) in &mut self.monitors {
            driver.advance_to(device.as_mut(), deadline);
        }
        self.collect_driver_effects();
        let stats = self.stats();
        let flush = |name: &'static str, value: u64| {
            if value > 0 {
                self.tracer.count(name, value);
            }
        };
        flush("ingest.frames", stats.frames);
        flush("ingest.bytes", stats.bytes);
        flush("ingest.frames.arp", stats.arp);
        flush("ingest.frames.non_arp", stats.non_arp);
        flush("ingest.frames.vlan_tagged", stats.vlan_tagged);
        flush("ingest.frames.jumbo", stats.jumbo);
        flush("ingest.skip.unparseable", stats.unparseable);
        flush("ingest.denied", stats.denied);
        flush("ingest.probes_emitted", stats.probes_emitted);
        flush("ingest.timers_fired", stats.timers_fired);
    }

    /// Counters so far. [`IngestStats::timers_fired`] settles after
    /// [`finish`](Self::finish).
    pub fn stats(&self) -> IngestStats {
        let mut stats = self.stats;
        stats.timers_fired = self.monitors.iter().map(|(_, driver)| driver.timers_fired).sum();
        stats
    }

    /// Every alert the scheme raised, in order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.alerts.alerts()
    }

    /// Alert counts keyed by verdict label — the per-scheme histogram
    /// the ingest summary prints.
    pub fn verdict_histogram(&self) -> BTreeMap<&'static str, u64> {
        self.alerts.verdict_histogram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlertKind;
    use arpshield_packet::{ArpOp, ArpPacket, EthernetEmit, Ipv4Addr, MacAddr, WireEmit};

    fn arp_frame(sender_mac: MacAddr, sender_ip: Ipv4Addr) -> Vec<u8> {
        let arp = ArpPacket::gratuitous(ArpOp::Reply, sender_mac, sender_ip);
        EthernetEmit::new(MacAddr::BROADCAST, sender_mac, EtherType::ARP, &arp).encode()
    }

    #[test]
    fn every_supported_kind_constructs_and_the_rest_explain_why_not() {
        for kind in SchemeKind::all() {
            match Detector::new(kind) {
                Ok(_) => {
                    assert!(Detector::is_supported(kind), "{kind} unexpectedly constructed")
                }
                Err(message) => {
                    assert!(!Detector::is_supported(kind), "{kind} unexpectedly rejected");
                    assert!(message.contains("passive"), "error lists alternatives: {message}");
                }
            }
        }
    }

    #[test]
    fn passive_detector_flags_a_binding_flip() {
        let mut detector = Detector::new(SchemeKind::Passive).unwrap();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        detector.observe(SimTime::from_secs(1), &arp_frame(MacAddr::from_index(1), ip));
        detector.observe(SimTime::from_secs(2), &arp_frame(MacAddr::from_index(66), ip));
        detector.finish();
        let alerts = detector.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::BindingChanged);
        assert_eq!(detector.verdict_histogram().get("binding_changed"), Some(&1));
        let stats = detector.stats();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.arp, 2);
        assert_eq!(stats.unparseable, 0);
    }

    #[test]
    fn vlan_tagged_arp_is_inspected_not_opaque() {
        let mut detector = Detector::new(SchemeKind::Passive).unwrap();
        let ip = Ipv4Addr::new(10, 0, 0, 9);
        let tagged = |mac: MacAddr| {
            let arp = ArpPacket::gratuitous(ArpOp::Reply, mac, ip);
            EthernetEmit::new(MacAddr::BROADCAST, mac, EtherType::ARP, &arp).with_vlan(100).encode()
        };
        detector.observe(SimTime::from_secs(1), &tagged(MacAddr::from_index(1)));
        detector.observe(SimTime::from_secs(2), &tagged(MacAddr::from_index(66)));
        detector.finish();
        assert_eq!(detector.stats().vlan_tagged, 2);
        assert_eq!(detector.alerts().len(), 1, "the flip is seen through the tag");
    }

    #[test]
    fn garbage_and_jumbo_frames_are_counted_not_fatal() {
        let mut detector = Detector::new(SchemeKind::Stateful).unwrap();
        detector.observe(SimTime::from_secs(1), &[0u8; 5]); // runt
        let jumbo = EthernetEmit::new(
            MacAddr::ZERO,
            MacAddr::from_index(3),
            EtherType::Ipv4,
            &[0u8; 3000][..],
        )
        .encode();
        detector.observe(SimTime::from_secs(2), &jumbo);
        detector.finish();
        let stats = detector.stats();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.unparseable, 1);
        assert_eq!(stats.jumbo, 1);
    }

    #[test]
    fn active_probe_emits_probes_and_judges_at_finish() {
        // The second base sits half a second before the end of the
        // clock: the grace period past it saturates, so the open probe
        // window is still judged.
        for base in [SimTime::from_secs(1), SimTime::from_nanos(u64::MAX - 500_000_000)] {
            let mut detector = Detector::new(SchemeKind::ActiveProbe).unwrap();
            let ip = Ipv4Addr::new(10, 0, 0, 5);
            detector.observe(base, &arp_frame(MacAddr::from_index(1), ip));
            // A second MAC claims the same IP inside the first probe window.
            let later = base + std::time::Duration::from_millis(10);
            detector.observe(later, &arp_frame(MacAddr::from_index(66), ip));
            detector.finish();
            let stats = detector.stats();
            assert!(stats.probes_emitted >= 1, "claims trigger probes at {base}: {stats:?}");
            assert!(stats.timers_fired >= 1, "probe windows close at finish at {base}: {stats:?}");
        }
    }

    #[test]
    fn dai_detector_snoops_nothing_and_denies_unknown_claims() {
        let mut detector = Detector::new(SchemeKind::Dai).unwrap();
        detector.observe(
            SimTime::from_secs(1),
            &arp_frame(MacAddr::from_index(5), Ipv4Addr::new(10, 0, 0, 5)),
        );
        detector.finish();
        assert_eq!(detector.stats().denied, 1, "no snooped lease, claim denied");
        assert_eq!(detector.alerts()[0].kind, AlertKind::DaiViolation);
    }

    #[test]
    fn finishing_twice_records_what_finishing_once_does() {
        use arpshield_trace::{install, TraceCollector};
        use std::sync::Arc;

        let counters = |finishes: usize| {
            let collector = Arc::new(TraceCollector::new());
            let _guard = install(Arc::clone(&collector));
            let tracer = Tracer::for_current_run("ingest");
            let mut detector = Detector::with_tracer(SchemeKind::ActiveProbe, tracer).unwrap();
            let ip = Ipv4Addr::new(10, 0, 0, 5);
            detector.observe(SimTime::from_secs(1), &arp_frame(MacAddr::from_index(1), ip));
            detector.observe(SimTime::from_millis(1010), &arp_frame(MacAddr::from_index(66), ip));
            for _ in 0..finishes {
                detector.finish();
            }
            drop(detector);
            collector.manifest("ingest").runs.remove(0).counters
        };
        let once = counters(1);
        assert_eq!(once.get("ingest.frames"), Some(&2));
        assert!(once.contains_key("ingest.timers_fired"), "{once:?}");
        assert_eq!(counters(2), once);
    }
}
