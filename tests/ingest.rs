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

#[test]
fn reingesting_a_live_capture_reproduces_passive_verdicts() {
    // Live run: passive monitor watching a gratuitous-reply poisoning,
    // with the flight recorder sized so nothing is evicted.
    let collector = Arc::new(TraceCollector::with_capture(1 << 20));
    let live_alerts = {
        let _guard = install(collector.clone());
        let run = AttackScenario::poisoning(
            ScenarioConfig::new(31).with_hosts(3).with_scheme(SchemeKind::Passive),
            PoisonVariant::GratuitousReply,
        )
        .run();
        run.lan.alerts.alerts()
    };
    assert!(!live_alerts.is_empty(), "the live run must detect the forgery");
    let manifest = collector.manifest("live");
    let capture = manifest.to_pcapng();

    // Re-ingest from the passive monitor's vantage point: exactly the
    // frames the live simulation delivered to it, at the times it
    // received them.
    let reingest_collector = Arc::new(TraceCollector::new());
    let detector_alerts = {
        let _guard = install(reingest_collector.clone());
        let mut detector =
            Detector::with_tracer(SchemeKind::Passive, Tracer::for_current_run("reingest"))
                .expect("passive is supported");
        let mut stream = PcapngStream::new(capture.as_slice());
        while let Some(pkt) = stream.next_packet().expect("own captures must stream") {
            if !FrameComment::parse(pkt.comment).dst.contains("passive-monitor") {
                continue;
            }
            detector.observe(SimTime::from_nanos(pkt.ts_ns), pkt.bytes);
        }
        detector.finish();
        detector.alerts()
    };

    assert_eq!(
        detector_alerts, live_alerts,
        "re-ingesting the monitor's vantage must reproduce the live alerts exactly"
    );

    // The verdict counters agree too, manifest to manifest.
    let verdict_sum = |csv: &str, label_marker: &str| -> u64 {
        csv.lines()
            .filter(|line| line.contains(label_marker) && line.contains(",scheme.verdict."))
            .filter_map(|line| line.rsplit(',').next()?.parse::<u64>().ok())
            .sum()
    };
    let live_csv = manifest.to_counters_csv();
    let reingest_csv = reingest_collector.manifest("reingest").to_counters_csv();
    let live_verdicts = verdict_sum(&live_csv, "scheme=passive");
    assert!(live_verdicts > 0);
    assert_eq!(verdict_sum(&reingest_csv, "reingest"), live_verdicts);
}
