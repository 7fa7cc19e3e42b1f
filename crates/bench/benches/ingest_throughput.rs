//! Streaming-ingest throughput: pcapng blocks off a `Read` source,
//! through the zero-copy `EthernetView` parse, into a standalone
//! detector — the `reproduce ingest` hot path end to end.
//!
//! Three captures:
//!
//! * `passive/synthetic16k`: gratuitous ARP from 64 stations (every
//!   fourth frame 802.1Q-tagged, a handful of binding flips so the
//!   detector raises a realistic trickle of alerts). The acceptance
//!   floor for this path is one million frames per second sustained.
//! * `rate-monitor/lan8k` and `stateful/lan8k`: request/reply pairs
//!   across 8,192 stations, so every detector window holds more than
//!   4,096 distinct sources and outstanding requests. They pin the
//!   window detectors' constant per-frame cost at a size where a
//!   per-frame window scan would dominate.
//! * `<scheme>/mixed`, one row per supported detector: 2,048 stations
//!   leased by DHCP ACKs, then resolving each other over ARP, with an
//!   `opt_comment` on every packet and each station untagged, 802.1Q-
//!   or QinQ-tagged — every receive path the ingest hot loop has,
//!   DHCP snooping and comment lookup included.
//!
//! Alongside the timing this bench counts heap allocations per ingested
//! frame with a counting global allocator and writes them to
//! `results/bench/ingest_throughput_allocs.json`, pinning the
//! near-zero-allocation claim the borrowed-view parse makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use arpshield_netsim::SimTime;
use arpshield_packet::{
    ArpOp, ArpPacket, DhcpMessage, DhcpMessageType, EtherType, EthernetEmit, EthernetViewMut,
    IpProtocol, Ipv4Addr, Ipv4Packet, MacAddr, UdpDatagram, WireEmit, DHCP_CLIENT_PORT,
    DHCP_SERVER_PORT, ETHERNET_HEADER_LEN, ETHERNET_MIN_PAYLOAD, ETHERNET_VLAN_TAG_LEN,
};
use arpshield_schemes::{Detector, SchemeKind};
use arpshield_testkit::{Criterion, Throughput};
use arpshield_trace::json;
use arpshield_trace::pcapng::{PcapngStream, PcapngWriter};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FRAMES: u64 = 16_384;
const HOSTS: u32 = 64;
const FLIPS: u64 = 8;

/// Stations on the large-LAN capture: every window holds more than
/// 4,096 distinct sources and outstanding requests.
const LAN_STATIONS: u32 = 8_192;
/// Request/reply pairs on it, one every 250 µs: 4,000 per second, so
/// the rate monitor's 1 s window holds 8,000 sources and a request
/// goes stale (2 s) just before its pair is asked again.
const LAN_PAIRS: u32 = 16_384;
const LAN_PAIR_GAP_NS: u64 = 250_000;
/// Every this many pairs, the reply is forged from a foreign MAC.
const LAN_FORGE_EVERY: u32 = 2_048;

/// Stations on the mixed capture, each leased by one DHCP ACK.
const MIXED_STATIONS: u32 = 2_048;
/// ARP request/reply pairs after the leases, one every 250 µs.
const MIXED_PAIRS: u32 = 8_192;
/// Every this many pairs, the reply is forged from a foreign MAC.
const MIXED_FORGE_EVERY: u32 = 1_024;
/// The DHCP server the leases come from.
const SERVER: (MacAddr, Ipv4Addr) =
    (MacAddr::new([2, 0, 0, 0, 0xFF, 1]), Ipv4Addr::new(10, 9, 0, 1));

/// One detector over one capture.
struct Case {
    id: &'static str,
    kind: SchemeKind,
    capture: Vec<u8>,
    frames: u64,
    tagged: u64,
}

/// A capture of `FRAMES` gratuitous ARP announcements from `HOSTS`
/// stable bindings, with `FLIPS` frames claiming a foreign MAC (the
/// poisonings the detector should flag) and every fourth frame tagged.
fn synthetic_capture() -> Vec<u8> {
    let mut writer = PcapngWriter::new("arpshield-bench");
    let interface = writer.add_interface("synthetic");
    for i in 0..FRAMES {
        let host = (i as u32) % HOSTS;
        let ip = Ipv4Addr::new(10, 0, (host >> 8) as u8, host as u8);
        let flip = i % (FRAMES / FLIPS) == FRAMES / FLIPS - 1;
        let mac = if flip { MacAddr::from_index(0xBAD) } else { MacAddr::from_index(host) };
        let arp = ArpPacket::gratuitous(ArpOp::Reply, mac, ip);
        let mut eth = EthernetEmit::new(MacAddr::BROADCAST, mac, EtherType::ARP, &arp);
        if i % 4 == 0 {
            eth = eth.with_vlan(100);
        }
        writer.add_packet(interface, i * 1_000, &eth.encode(), "");
    }
    writer.finish()
}

/// A large LAN resolving its neighbours: pair `p` is a request from
/// station `p mod 8,192` for the station half the LAN away, then its
/// reply. Sources and requests stay above 4,096 per window, the load
/// that made a per-frame window scan the detectors' dominant cost.
fn lan_capture() -> Vec<u8> {
    let station = |index: u32| {
        let index = index % LAN_STATIONS;
        (MacAddr::from_index(index + 1), Ipv4Addr::from_u32(0x0A00_0000 + index + 1))
    };
    let mut writer = PcapngWriter::new("arpshield-bench");
    let interface = writer.add_interface("lan");
    for pair in 0..LAN_PAIRS {
        let (asker_mac, asker_ip) = station(pair);
        let (target_mac, target_ip) = station(pair + LAN_STATIONS / 2);
        let request = ArpPacket::request(asker_mac, asker_ip, target_ip);
        let answer_mac = if pair % LAN_FORGE_EVERY == LAN_FORGE_EVERY - 1 {
            MacAddr::from_index(0xBAD)
        } else {
            target_mac
        };
        let reply = ArpPacket::reply_to(&request, answer_mac);
        let at = u64::from(pair) * LAN_PAIR_GAP_NS;
        let asked = EthernetEmit::new(MacAddr::BROADCAST, asker_mac, EtherType::ARP, &request);
        let answered = EthernetEmit::new(asker_mac, answer_mac, EtherType::ARP, &reply);
        writer.add_packet(interface, at, &asked.encode(), "");
        writer.add_packet(interface, at + 1_000, &answered.encode(), "");
    }
    writer.finish()
}

/// The tags station `index` sends under, outermost first: a quarter
/// each untagged, 802.1Q VID 10, QinQ (service VID 100 over customer
/// VID 10) and 802.1Q VID 20. A pair's two stations, half the LAN
/// apart, always share a class.
fn mixed_tags(index: u32) -> &'static [(EtherType, u16)] {
    const CLASSES: [&[(EtherType, u16)]; 4] = [
        &[],
        &[(EtherType::Vlan, 10)],
        &[(EtherType::QinQ, 100), (EtherType::Vlan, 10)],
        &[(EtherType::Vlan, 20)],
    ];
    CLASSES[index as usize % CLASSES.len()]
}

/// An Ethernet frame carrying `payload` under `tags`, padded to the
/// minimum payload.
fn tagged_frame(
    dst: MacAddr,
    src: MacAddr,
    tags: &[(EtherType, u16)],
    ethertype: EtherType,
    payload: &impl WireEmit,
) -> Vec<u8> {
    let header = ETHERNET_HEADER_LEN + tags.len() * ETHERNET_VLAN_TAG_LEN;
    let mut frame = vec![0u8; header + payload.wire_len().max(ETHERNET_MIN_PAYLOAD)];
    let mut view = EthernetViewMut::new(&mut frame);
    view.set_dst(dst);
    view.set_src(src);
    for &(tpid, vid) in tags {
        view.push_tag(tpid, vid);
    }
    view.set_ethertype(ethertype);
    payload.emit(view.payload_mut());
    frame
}

/// The mixed capture and how many of its frames are tagged: one DHCP
/// ACK per station from [`SERVER`], then [`MIXED_PAIRS`] request/reply
/// pairs as in [`lan_capture`], a few replies forged. Every packet
/// carries a provenance comment like arpshield's own captures.
fn mixed_capture() -> (Vec<u8>, u64) {
    let station = |index: u32| {
        let index = index % MIXED_STATIONS;
        (MacAddr::from_index(index + 1), Ipv4Addr::from_u32(0x0A09_0100 + index), mixed_tags(index))
    };
    let mut writer = PcapngWriter::new("arpshield-bench");
    let interface = writer.add_interface("mixed");
    let (mut id, mut tagged) = (0u64, 0u64);
    let mut add = |at: u64, tags: &[(EtherType, u16)], frame: &[u8], src: MacAddr, dst: MacAddr| {
        id += 1;
        tagged += u64::from(!tags.is_empty());
        writer.add_packet(
            interface,
            at,
            frame,
            &format!("id={id} kind=deliver src={src} dst={dst}"),
        );
    };
    for index in 0..MIXED_STATIONS {
        let (mac, ip, tags) = station(index);
        let discover = DhcpMessage::discover(index, mac);
        let (server_mac, server_ip) = SERVER;
        let mask = Ipv4Addr::new(255, 255, 0, 0);
        let ack = DhcpMessage::reply(
            DhcpMessageType::Ack,
            &discover,
            ip,
            server_ip,
            600,
            mask,
            server_ip,
        );
        let dgram = UdpDatagram::new(
            DHCP_SERVER_PORT,
            DHCP_CLIENT_PORT,
            server_ip,
            Ipv4Addr::BROADCAST,
            &ack,
        );
        let pkt = Ipv4Packet::new(server_ip, Ipv4Addr::BROADCAST, IpProtocol::Udp, &dgram);
        let frame = tagged_frame(mac, server_mac, tags, EtherType::Ipv4, &pkt);
        add(u64::from(index) * 10_000, tags, &frame, server_mac, mac);
    }
    let start = u64::from(MIXED_STATIONS) * 10_000;
    for pair in 0..MIXED_PAIRS {
        let (asker_mac, asker_ip, tags) = station(pair);
        let (target_mac, target_ip, _) = station(pair + MIXED_STATIONS / 2);
        let request = ArpPacket::request(asker_mac, asker_ip, target_ip);
        let answer_mac = if pair % MIXED_FORGE_EVERY == MIXED_FORGE_EVERY - 1 {
            MacAddr::from_index(0xBAD)
        } else {
            target_mac
        };
        let reply = ArpPacket::reply_to(&request, answer_mac);
        let at = start + u64::from(pair) * LAN_PAIR_GAP_NS;
        let asked = tagged_frame(MacAddr::BROADCAST, asker_mac, tags, EtherType::ARP, &request);
        let answered = tagged_frame(asker_mac, answer_mac, tags, EtherType::ARP, &reply);
        add(at, tags, &asked, asker_mac, MacAddr::BROADCAST);
        add(at + 1_000, tags, &answered, answer_mac, asker_mac);
    }
    (writer.finish(), tagged)
}

fn cases() -> Vec<Case> {
    let lan = lan_capture();
    let lan_case = |id, kind| Case {
        id,
        kind,
        capture: lan.clone(),
        frames: 2 * u64::from(LAN_PAIRS),
        tagged: 0,
    };
    let mut cases = vec![
        Case {
            id: "passive/synthetic16k",
            kind: SchemeKind::Passive,
            capture: synthetic_capture(),
            frames: FRAMES,
            tagged: FRAMES.div_ceil(4),
        },
        lan_case("rate-monitor/lan8k", SchemeKind::RateMonitor),
        lan_case("stateful/lan8k", SchemeKind::Stateful),
    ];
    let (mixed, tagged) = mixed_capture();
    for (id, kind) in [
        ("passive/mixed", SchemeKind::Passive),
        ("stateful/mixed", SchemeKind::Stateful),
        ("active-probe/mixed", SchemeKind::ActiveProbe),
        ("rate-monitor/mixed", SchemeKind::RateMonitor),
        ("hybrid/mixed", SchemeKind::Hybrid),
        ("dai/mixed", SchemeKind::Dai),
    ] {
        let frames = u64::from(MIXED_STATIONS + 2 * MIXED_PAIRS);
        cases.push(Case { id, kind, capture: mixed.clone(), frames, tagged });
    }
    cases
}

/// Streams the case's capture through a fresh detector; returns frames
/// ingested (checked against the case so the workload can't silently
/// shrink).
fn ingest(case: &Case) -> u64 {
    let mut stream = PcapngStream::new(&case.capture[..]);
    let mut detector = Detector::new(case.kind).expect("the case's scheme is supported");
    while let Some(pkt) = stream.next_packet().expect("synthetic capture is well-formed") {
        detector.observe(SimTime::from_nanos(pkt.ts_ns), pkt.bytes);
    }
    detector.finish();
    let stats = detector.stats();
    assert_eq!(stats.frames, case.frames, "every frame must reach the detector");
    assert_eq!(stats.unparseable, 0);
    assert_eq!(stats.vlan_tagged, case.tagged);
    assert!(!detector.alerts().is_empty(), "{}: the anomalies must be flagged", case.id);
    if case.kind == SchemeKind::Dai {
        // Snooping learned every lease through its tags: exactly the
        // forged replies are denied.
        assert_eq!(stats.denied, u64::from(MIXED_PAIRS / MIXED_FORGE_EVERY));
    }
    stats.frames
}

fn bench_ingest(c: &mut Criterion, cases: &[Case]) {
    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(15);
    for case in cases {
        group.throughput(Throughput::Elements(case.frames));
        group.bench_function(case.id, |b| b.iter(|| ingest(case)));
    }
    group.finish();
}

fn write_alloc_report(cases: &[Case]) {
    let mut results = Vec::new();
    for case in cases {
        // Warm once so lazy one-time allocations don't pollute the count.
        let frames = ingest(case);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let again = ingest(case);
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(frames, again, "workload must be deterministic");
        let per_frame = allocs as f64 / frames as f64;
        println!(
            "ingest_throughput/{}  {allocs} allocations / {frames} frames = {per_frame:.4} \
             allocs/frame",
            case.id
        );
        let mut obj = BTreeMap::new();
        obj.insert("id".to_string(), json::Value::Str(case.id.to_string()));
        obj.insert("allocations".to_string(), json::Value::Num(allocs as f64));
        obj.insert("frames_ingested".to_string(), json::Value::Num(frames as f64));
        obj.insert("allocs_per_frame".to_string(), json::Value::Num(per_frame));
        results.push(json::Value::Obj(obj));
    }
    let mut doc = BTreeMap::new();
    doc.insert("schema".to_string(), json::Value::Str("arpshield-allocs-v1".to_string()));
    doc.insert("results".to_string(), json::Value::Arr(results));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let dir = root.join("results").join("bench");
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("ingest_throughput_allocs.json");
    let mut text = json::Value::Obj(doc).to_string();
    text.push('\n');
    match std::fs::write(&path, text) {
        Ok(()) => println!("alloc report written to {}", path.display()),
        Err(e) => eprintln!("failed to write alloc report: {e}"),
    }
}

fn main() {
    let cases = cases();
    let mut criterion = Criterion::default();
    bench_ingest(&mut criterion, &cases);
    criterion.final_summary();
    write_alloc_report(&cases);
}
