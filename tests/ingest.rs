//! Streaming capture ingest, end to end:
//!
//! 1. **Real-world frames don't break the pipeline**: VLAN-tagged ARP
//!    is inspected through the tag, jumbo and runt frames are counted
//!    and skipped, a truncated tail keeps every complete packet, and
//!    multi-section files restart interface numbering per section.
//! 2. **Streaming is faithful**: the bounded-memory reader yields
//!    exactly the packets the writer wrote, on arbitrary captures.
//! 3. **Re-ingest reproduces a live run**: feeding a monitor's recorded
//!    vantage back through a standalone detector yields the identical
//!    alert list and verdict counters the live simulation produced.

use std::sync::Arc;

use arpshield::analysis::scenario::{AttackScenario, ScenarioConfig};
use arpshield::attacks::PoisonVariant;
use arpshield::netsim::SimTime;
use arpshield::packet::{ArpOp, ArpPacket, EtherType, EthernetEmit, Ipv4Addr, MacAddr, WireEmit};
use arpshield::schemes::{Detector, SchemeKind};
use arpshield::trace::pcapng::{PcapngStream, PcapngWriter};
use arpshield::trace::{install, FrameComment, TraceCollector, Tracer};
use arpshield_testkit::prelude::*;

/// A broadcast gratuitous ARP reply claiming `ip` for `mac`, optionally
/// 802.1Q-tagged.
fn gratuitous(mac: MacAddr, ip: Ipv4Addr, vlan: Option<u16>) -> Vec<u8> {
    let arp = ArpPacket::gratuitous(ArpOp::Reply, mac, ip);
    EthernetEmit { vlan, ..EthernetEmit::new(MacAddr::BROADCAST, mac, EtherType::ARP, &arp) }
        .encode()
}

/// Streams `capture` through a fresh detector of `kind`, feeding every
/// packet regardless of interface.
fn ingest_all(capture: &[u8], kind: SchemeKind) -> (Detector, Vec<String>) {
    let mut stream = PcapngStream::new(capture);
    let mut detector = Detector::new(kind).expect("supported scheme");
    while let Some(pkt) = stream.next_packet().expect("fixture must stream") {
        detector.observe(SimTime::from_nanos(pkt.ts_ns), pkt.bytes);
    }
    detector.finish();
    (detector, stream.warnings().to_vec())
}

#[test]
fn vlan_tagged_capture_detects_a_flip_through_the_tag() {
    let ip = Ipv4Addr::new(10, 0, 0, 7);
    let mut writer = PcapngWriter::new("fixture");
    let wire = writer.add_interface("wire");
    writer.add_packet(wire, 1_000, &gratuitous(MacAddr::from_index(1), ip, Some(42)), "");
    writer.add_packet(wire, 2_000, &gratuitous(MacAddr::from_index(66), ip, Some(42)), "");
    let (detector, warnings) = ingest_all(&writer.finish(), SchemeKind::Passive);
    assert!(warnings.is_empty());
    let stats = detector.stats();
    assert_eq!(stats.frames, 2);
    assert_eq!(stats.vlan_tagged, 2);
    assert_eq!(stats.arp, 2, "tagged ARP must be classified as ARP, not Other");
    let alerts = detector.alerts();
    assert_eq!(alerts.len(), 1, "the flip is visible through the 802.1Q tag");
    assert_eq!(alerts[0].subject_ip, Some(ip));
}

#[test]
fn jumbo_and_runt_frames_are_counted_not_fatal() {
    let ip = Ipv4Addr::new(10, 0, 0, 8);
    let mut writer = PcapngWriter::new("fixture");
    let wire = writer.add_interface("wire");
    // A jumbo-payload ARP-carrying frame, a runt, then a normal flip:
    // the detector must survive the weird ones and still judge the
    // normal ones.
    let mut body = ArpPacket::gratuitous(ArpOp::Reply, MacAddr::from_index(1), ip).encode();
    body.resize(4000, 0);
    let jumbo =
        EthernetEmit::new(MacAddr::BROADCAST, MacAddr::from_index(1), EtherType::ARP, &body[..]);
    writer.add_packet(wire, 1_000, &jumbo.encode(), "");
    writer.add_packet(wire, 2_000, &[0xDE, 0xAD, 0xBE], "");
    writer.add_packet(wire, 3_000, &gratuitous(MacAddr::from_index(66), ip, None), "");
    let (detector, warnings) = ingest_all(&writer.finish(), SchemeKind::Passive);
    assert!(warnings.is_empty());
    let stats = detector.stats();
    assert_eq!(stats.frames, 3);
    assert_eq!(stats.jumbo, 1);
    assert_eq!(stats.unparseable, 1);
    assert_eq!(detector.alerts().len(), 1, "the flip after the weird frames is still caught");
}

#[test]
fn truncated_capture_keeps_complete_packets_and_warns() {
    let ip = Ipv4Addr::new(10, 0, 0, 9);
    let mut writer = PcapngWriter::new("fixture");
    let wire = writer.add_interface("wire");
    writer.add_packet(wire, 1_000, &gratuitous(MacAddr::from_index(1), ip, None), "");
    writer.add_packet(wire, 2_000, &gratuitous(MacAddr::from_index(66), ip, None), "");
    let full = writer.finish();
    // Cut mid-way through the final block, as a capture interrupted by
    // a crash or a full disk would be.
    let cut = &full[..full.len() - 7];
    let (detector, warnings) = ingest_all(cut, SchemeKind::Passive);
    assert_eq!(warnings.len(), 1, "the cut surfaces as a warning: {warnings:?}");
    assert!(warnings[0].contains("truncated"), "{warnings:?}");
    assert_eq!(detector.stats().frames, 1, "the complete packet before the cut is kept");
}

#[test]
fn multi_section_capture_restarts_interface_numbering() {
    let ip = Ipv4Addr::new(10, 0, 0, 10);
    let mut first = PcapngWriter::new("day-one");
    let a = first.add_interface("alpha");
    first.add_packet(a, 1_000, &gratuitous(MacAddr::from_index(1), ip, None), "");
    let mut second = PcapngWriter::new("day-two");
    let b = second.add_interface("beta");
    // Local interface 0 again — in section two it must resolve to the
    // global "beta", not back to "alpha".
    second.add_packet(b, 2_000, &gratuitous(MacAddr::from_index(66), ip, None), "");
    let mut joined = first.finish();
    joined.extend_from_slice(&second.finish());

    let mut stream = PcapngStream::new(joined.as_slice());
    let mut seen = Vec::new();
    while let Some(pkt) = stream.next_packet().expect("concatenation must stream") {
        seen.push(pkt.interface);
    }
    assert_eq!(stream.interfaces(), ["alpha", "beta"]);
    assert_eq!(seen, [0, 1]);
    assert_eq!(stream.stats().sections, 2);

    // Both sections' frames reach a detector: the flip spans the files.
    let (detector, _) = ingest_all(&joined, SchemeKind::Passive);
    assert_eq!(detector.stats().frames, 2);
    assert_eq!(detector.alerts().len(), 1);
}

properties! {
    #[test]
    fn streaming_reader_yields_what_the_writer_wrote(
        packets in collection::vec(
            (any::<bool>(), any::<u32>(), collection::vec(any::<u8>(), 0..120),
             collection::vec(any::<u8>(), 0..16)),
            0..24),
    ) {
        let mut writer = PcapngWriter::new("property");
        let a = writer.add_interface("a");
        let b = writer.add_interface("b");
        // What went in, as the stream should lend it back.
        let mut written = Vec::new();
        for (second, ts, bytes, comment) in &packets {
            let comment: String =
                comment.iter().map(|c| char::from(b'a' + c % 26)).collect();
            let interface = if *second { b } else { a };
            writer.add_packet(interface, u64::from(*ts), bytes, &comment);
            written.push((interface as usize, u64::from(*ts), bytes.clone(), comment));
        }
        let capture = writer.finish();
        let mut stream = PcapngStream::new(capture.as_slice());
        let mut streamed = Vec::new();
        while let Some(pkt) = stream.next_packet().unwrap() {
            streamed.push((pkt.interface, pkt.ts_ns, pkt.bytes.to_vec(), pkt.comment.to_string()));
        }
        prop_assert_eq!(stream.interfaces(), ["a", "b"]);
        prop_assert!(stream.warnings().is_empty());
        prop_assert_eq!(streamed, written);
        prop_assert_eq!(stream.stats().bytes, capture.len() as u64);
    }
}

/// Each monitor scheme and the device whose vantage it replays. Hybrid's
/// stateful and active-probe monitors share the monitor hub, so the
/// stateful monitor's vantage is theirs.
const VANTAGES: [(SchemeKind, &str); 5] = [
    (SchemeKind::Passive, "passive-monitor"),
    (SchemeKind::Stateful, "stateful-monitor"),
    (SchemeKind::ActiveProbe, "active-probe-monitor"),
    (SchemeKind::RateMonitor, "rate-monitor"),
    (SchemeKind::Hybrid, "stateful-monitor"),
];

/// Sums the verdict counters of the runs whose label holds `marker`.
fn verdict_sum(csv: &str, marker: &str) -> u64 {
    csv.lines()
        .filter(|line| line.contains(marker) && line.contains(",scheme.verdict."))
        .filter_map(|line| line.rsplit(',').next()?.parse::<u64>().ok())
        .sum()
}

/// Every (scheme, vantage) pair × poisoning variant × seed: a live run
/// under a flight recorder sized so nothing is evicted, then its
/// monitor's recorded vantage (exactly the frames the simulation
/// delivered to it, at the times it received them) streamed through a
/// standalone detector. The alert lists and verdict-counter sums must
/// agree in every cell. The rate monitor detects volume, not forged
/// bindings, so its cells raise nothing; every other cell must alert,
/// so the matrix cannot pass vacuously.
#[test]
fn reingesting_a_live_capture_reproduces_every_monitors_verdicts() {
    let mut failures = Vec::new();
    let mut cells = 0;
    for (kind, vantage) in VANTAGES {
        for variant in PoisonVariant::all() {
            for seed in [31, 32, 33] {
                cells += 1;
                let cell = format!("{kind} × {variant} × seed {seed}");
                let collector = Arc::new(TraceCollector::with_capture(1 << 20));
                let live_alerts = {
                    let _guard = install(collector.clone());
                    let config = ScenarioConfig::new(seed).with_hosts(3).with_scheme(kind);
                    AttackScenario::poisoning(config, variant).run().lan.alerts.alerts()
                };
                let manifest = collector.manifest("live");
                let capture = manifest.to_pcapng();

                let reingest_collector = Arc::new(TraceCollector::new());
                let detector_alerts = {
                    let _guard = install(reingest_collector.clone());
                    let tracer = Tracer::for_current_run("reingest");
                    let mut detector = Detector::with_tracer(kind, tracer).expect("supported");
                    let mut stream = PcapngStream::new(capture.as_slice());
                    while let Some(pkt) = stream.next_packet().expect("own captures must stream") {
                        if FrameComment::parse(pkt.comment).dst.contains(vantage) {
                            detector.observe(SimTime::from_nanos(pkt.ts_ns), pkt.bytes);
                        }
                    }
                    detector.finish();
                    detector.alerts()
                };

                let mut problems = Vec::new();
                if live_alerts.is_empty() != (kind == SchemeKind::RateMonitor) {
                    problems.push(format!("{} live alerts", live_alerts.len()));
                }
                if detector_alerts != live_alerts {
                    let (replayed, live) = (detector_alerts.len(), live_alerts.len());
                    problems.push(format!("alerts differ: {replayed} re-ingested, {live} live"));
                }
                let live = verdict_sum(&manifest.to_counters_csv(), &format!("scheme={kind} "));
                let csv = reingest_collector.manifest("reingest").to_counters_csv();
                let reingested = verdict_sum(&csv, "reingest");
                if live != reingested || live != live_alerts.len() as u64 {
                    problems.push(format!("verdicts {reingested} re-ingested, {live} live"));
                }
                if !problems.is_empty() {
                    failures.push(format!("{cell}: {}", problems.join("; ")));
                }
            }
        }
    }
    assert_eq!(cells, 90);
    assert!(failures.is_empty(), "{} cells disagree:\n{}", failures.len(), failures.join("\n"));
}
