//! What the hot paths cost the allocator, counted and bounded.
//!
//! One thread-local counting allocator serves four sets of floors:
//!
//! * **Frame delivery.** A 16-port hub, the same hub in front of 15 full
//!   host stacks, a 16-port switch, a VLAN-aware switch across access
//!   and trunk ports, and a 1,025-port switch shaped like a T6S leaf
//!   each flood 64 broadcasts. Only the last of four delivery runs is
//!   counted, not the fabric's construction.
//! * **A resolution queue's overflow.** A host sends 40 datagrams at
//!   once toward an address nobody holds; only the 16 its queue takes
//!   are encoded.
//! * **Capture ingest.** pcapng blocks stream through the borrowed
//!   Ethernet view into a standalone detector, the `reproduce ingest`
//!   hot path. Only the second pass over each capture is counted, so
//!   lazy one-time allocations stay out.
//! * **The scale fabric's build.** At 100k stations every per-station
//!   allocation is 100k allocator calls, so a station's only
//!   allocation is its device box.
//!
//! Every count is deterministic: a seeded simulator, a warmed frame
//! pool and fixed captures. Each floor is the count the workload makes
//! today, so any new allocation on a counted path fails its test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use arpshield::analysis::scenario::scale::{self, ScaleConfig, LEAF_CAPACITY};
use arpshield::host::{Host, HostAgent, HostApi, HostConfig};
use arpshield::netsim::{
    eth_frame, Device, DeviceCtx, Hub, PortId, PortVlan, SimTime, Simulator, Switch, SwitchConfig,
    VlanSet,
};
use arpshield::packet::{
    ArpOp, ArpPacket, DhcpMessage, DhcpMessageType, EtherType, EthernetEmit, EthernetViewMut,
    IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet, MacAddr, UdpDatagram, WireEmit, DHCP_CLIENT_PORT,
    DHCP_SERVER_PORT, ETHERNET_HEADER_LEN, ETHERNET_MIN_PAYLOAD, ETHERNET_VLAN_TAG_LEN,
};
use arpshield::schemes::{Detector, SchemeKind};
use arpshield::trace::pcapng::{PcapngStream, PcapngWriter};

/// Counts the calling thread's allocations and the bytes they hold, so
/// the test harness's own threads never show up in a count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to the calling thread's live bytes.
fn track(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; the thread-local
// counters have no destructor and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const PORTS: usize = 16;
const FRAMES: u64 = 64;
/// Ports of the leaf-shaped switch: 1,024 stations plus an uplink.
const LEAF_PORTS: usize = 1025;

/// Emits `FRAMES` broadcast frames of 256 bytes, one per microsecond,
/// encoding each in place into a recycled pool buffer: at steady state
/// transmission allocates nothing per frame.
struct Blaster {
    remaining: u64,
    /// Send UDP datagrams to an unbound port instead of opaque frames.
    udp: bool,
}

impl Device for Blaster {
    fn name(&self) -> &str {
        "blaster"
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(Duration::from_micros(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _token: u64) {
        let src = MacAddr::from_index(1);
        let frame = if self.udp {
            let (from, to) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::BROADCAST);
            let dgram = UdpDatagram::new(40_000, 9, from, to, [0xAB; 214].as_slice());
            let pkt = Ipv4Packet::new(from, to, IpProtocol::Udp, &dgram);
            eth_frame(MacAddr::BROADCAST, src, EtherType::Ipv4, &pkt)
        } else {
            eth_frame(MacAddr::BROADCAST, src, EtherType::Other(0x1234), [0xAB; 242].as_slice())
        };
        ctx.send(PortId(0), frame);
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.schedule_in(Duration::from_micros(1), 0);
        }
    }
    fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
}

struct Sink;

impl Device for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
        std::hint::black_box(frame.len());
    }
}

/// A simulator with a blaster on port 0 of `fabric` and a station on
/// every other port: a sink, or with `hosts` a full host stack that
/// takes each broadcast UDP datagram through Ethernet, IPv4 and UDP
/// parsing to a port nobody listens on, so the count covers that path.
fn fabric(fabric: Box<dyn Device>, ports: usize, hosts: bool) -> Simulator {
    let subnet = Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24);
    let mut sim = Simulator::new(1);
    let fabric = sim.add_device(fabric);
    let src = sim.add_device(Box::new(Blaster { remaining: FRAMES, udp: hosts }));
    sim.connect(src, PortId(0), fabric, PortId(0), Duration::from_micros(1)).unwrap();
    for p in 1..ports as u16 {
        let station: Box<dyn Device> = if hosts {
            let ip = Ipv4Addr::new(10, 0, 0, p as u8 + 1);
            let mac = MacAddr::from_index(u32::from(p) + 1);
            Box::new(Host::new(HostConfig::static_ip(format!("h{p}"), mac, ip, subnet)).0)
        } else {
            Box::new(Sink)
        };
        let s = sim.add_device(station);
        sim.connect(s, PortId(0), fabric, PortId(p), Duration::from_micros(1)).unwrap();
    }
    sim
}

fn switch_flood(ports: usize) -> Simulator {
    let (sw, _) = Switch::new("sw", SwitchConfig { ports, ..Default::default() });
    fabric(Box::new(sw), ports, false)
}

/// Untagged ingress on an access port fans out to 7 more access ports
/// (shared buffer, ingress bytes) and 8 trunk ports (one pooled re-tag
/// per ingress frame, then shared).
fn switch_vlan_flood() -> Simulator {
    let mut vlans = vec![PortVlan::Access { pvid: 10 }; PORTS / 2];
    vlans.extend(std::iter::repeat_n(
        PortVlan::Trunk { allowed: VlanSet::Only(vec![10]) },
        PORTS / 2,
    ));
    let (sw, _) =
        Switch::new("sw", SwitchConfig { ports: PORTS, vlans: Some(vlans), ..Default::default() });
    fabric(Box::new(sw), PORTS, false)
}

/// Builds one delivery workload's simulator.
type Workload = fn() -> Simulator;

/// Runs `workload` four times and returns the allocations of the last
/// delivery run alone. The first run fills the thread's frame pool, and
/// runs 2–4 must count the same: a pooled buffer has room for a VLAN
/// re-tag, so which buffers the free list hands out cannot matter.
fn delivery_allocations(workload: Workload, ports: usize) -> u64 {
    let mut made = [0; 4];
    for count in &mut made {
        let mut sim = workload();
        let before = allocations();
        sim.run_until(SimTime::from_secs(1));
        *count = allocations() - before;
        // One ingress plus (ports - 1) egress copies per emitted frame.
        assert_eq!(sim.wire_stats().frames, FRAMES * ports as u64);
    }
    let warm = &made[1..];
    assert!(warm.iter().all(|&n| n == warm[0]), "runs 2-4 allocated {warm:?}");
    warm[0]
}

/// 64 broadcasts make 1,024 deliveries on the 16-port fabrics and
/// 65,600 on the leaf, where each is one fan-out event of 1,024 copies
/// through the simulator's reusable target arena. The hub's 4
/// allocations are 0.004 a frame, well under the 0.02 a frame its
/// zero-copy transmit path promises.
#[test]
fn frame_delivery_stays_within_its_allocation_floors() {
    let rows: [(&str, Workload, usize, u64); 5] = [
        ("hub16/broadcast", || fabric(Box::new(Hub::new("hub", PORTS)), PORTS, false), PORTS, 4),
        ("hub16/host_rx", || fabric(Box::new(Hub::new("hub", PORTS)), PORTS, true), PORTS, 9),
        ("switch16/flood", || switch_flood(PORTS), PORTS, 5),
        ("switch16/vlan_flood", switch_vlan_flood, PORTS, 7),
        ("switch1025/flood", || switch_flood(LEAF_PORTS), LEAF_PORTS, 5),
    ];
    for (id, workload, ports, floor) in rows {
        let made = delivery_allocations(workload, ports);
        assert!(made <= floor, "{id}: {made} allocations, at most {floor} allowed");
    }
}

/// Datagrams in one burst toward an address nobody holds.
const BURST: u64 = 40;
/// How many of them wait on its resolution; the rest find the queue
/// full and are dropped.
const QUEUED: u64 = 16;

/// Sends `BURST` UDP datagrams at once to 10.0.0.99 at 100 ms, and
/// again at 20 s, after the first burst's resolution has given up.
struct Burst;

impl HostAgent for Burst {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.schedule(Duration::from_millis(100), 0);
        api.schedule(Duration::from_secs(20), 0);
    }
    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, _: u32) {
        for _ in 0..BURST {
            api.send_udp(Ipv4Addr::new(10, 0, 0, 99), 5555, 7000, b"void");
        }
    }
}

/// The second of two bursts, once the first has warmed the frame pool,
/// the wheel and the switch: each queued datagram is encoded into a
/// buffer of its own (16 allocations) and the queue grows from one
/// packet to sixteen (4 more), while a datagram the full queue drops is
/// never encoded. Encoding before the queue check made it 44.
#[test]
fn a_resolution_queue_overflow_stays_within_its_allocation_floor() {
    const FLOOR: u64 = 20;
    let subnet = Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24);
    let mut sim = Simulator::new(1);
    let (sw, _) = Switch::new("sw", SwitchConfig { ports: 2, ..Default::default() });
    let sw = sim.add_device(Box::new(sw));
    let config =
        HostConfig::static_ip("h1", MacAddr::from_index(1), Ipv4Addr::new(10, 0, 0, 1), subnet);
    let (mut host, handle) = Host::new(config);
    host.add_agent(Box::new(Burst));
    let host = sim.add_device(Box::new(host));
    sim.connect(host, PortId(0), sw, PortId(0), Duration::from_micros(1)).unwrap();
    sim.run_until(SimTime::from_secs(19));
    assert_eq!(handle.stats.borrow().ipv4_send_failures, BURST, "the first burst gave up");
    let before = allocations();
    sim.run_until(SimTime::from_secs(21));
    let made = allocations() - before;
    assert_eq!(handle.stats.borrow().ipv4_send_failures, 2 * BURST - QUEUED);
    assert!(made <= FLOOR, "{made} allocations, at most {FLOOR} allowed");
}

const SYNTHETIC_FRAMES: u64 = 16_384;
const SYNTHETIC_HOSTS: u32 = 64;
const SYNTHETIC_FLIPS: u64 = 8;

/// Stations on the large LAN: every detector window holds more than
/// 4,096 distinct sources and outstanding requests, the load that made
/// a per-frame window scan the detectors' dominant cost.
const LAN_STATIONS: u32 = 8_192;
/// Request/reply pairs on it, one every 250 µs: 4,000 per second, so
/// the rate monitor's 1 s window holds 8,000 sources and a request
/// goes stale (2 s) just before its pair is asked again.
const LAN_PAIRS: u32 = 16_384;
/// Stations on the mixed capture, each leased by one DHCP ACK.
const MIXED_STATIONS: u32 = 2_048;
const MIXED_PAIRS: u32 = 8_192;
/// Every this many pairs on the mixed capture, the reply is forged.
const MIXED_FORGE_EVERY: u32 = 1_024;
/// The DHCP server the mixed capture's leases come from.
const SERVER: (MacAddr, Ipv4Addr) =
    (MacAddr::new([2, 0, 0, 0, 0xFF, 1]), Ipv4Addr::new(10, 9, 0, 1));

/// One detector over one capture, with what its stats must read.
struct Case {
    id: &'static str,
    kind: SchemeKind,
    capture: Vec<u8>,
    frames: u64,
    tagged: u64,
    floor: u64,
}

/// `SYNTHETIC_FRAMES` gratuitous ARP announcements from
/// `SYNTHETIC_HOSTS` stable bindings, with `SYNTHETIC_FLIPS` frames
/// claiming a foreign MAC (the poisonings the detector should flag) and
/// every fourth frame tagged.
fn synthetic_capture() -> Vec<u8> {
    let mut writer = PcapngWriter::new("arpshield-test");
    let interface = writer.add_interface("synthetic");
    let flip_every = SYNTHETIC_FRAMES / SYNTHETIC_FLIPS;
    for i in 0..SYNTHETIC_FRAMES {
        let host = (i as u32) % SYNTHETIC_HOSTS;
        let ip = Ipv4Addr::new(10, 0, (host >> 8) as u8, host as u8);
        let flip = i % flip_every == flip_every - 1;
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

/// An Ethernet frame carrying `payload` under `tags`, outermost first,
/// padded to the minimum payload.
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

/// A LAN of `stations` resolving its neighbours, and how many of its
/// frames are tagged. Pair `p` of `pairs`, one every 250 µs, is a
/// request from station `p mod stations` for the station half the LAN
/// away, then its reply; every `forge_every`th reply comes from a
/// foreign MAC. The large LAN is untagged and uncommented. The mixed
/// one leases every station by DHCP ACK first; a quarter of its
/// stations each send untagged, 802.1Q VID 10, QinQ (service VID 100
/// over customer VID 10) and 802.1Q VID 20; and every packet carries a
/// provenance comment like arpshield's own captures: every receive path
/// the ingest loop has, DHCP snooping and comment lookup included.
fn lan_capture(stations: u32, pairs: u32, forge_every: u32, mixed: bool) -> (Vec<u8>, u64) {
    const CLASSES: [&[(EtherType, u16)]; 4] = [
        &[],
        &[(EtherType::Vlan, 10)],
        &[(EtherType::QinQ, 100), (EtherType::Vlan, 10)],
        &[(EtherType::Vlan, 20)],
    ];
    let station = |index: u32| {
        let index = index % stations;
        let mac = MacAddr::from_index(index + 1);
        match mixed {
            true => (mac, Ipv4Addr::from_u32(0x0A09_0100 + index), CLASSES[index as usize % 4]),
            false => (mac, Ipv4Addr::from_u32(0x0A00_0000 + index + 1), CLASSES[0]),
        }
    };
    let mut writer = PcapngWriter::new("arpshield-test");
    let interface = writer.add_interface(if mixed { "mixed" } else { "lan" });
    let (mut id, mut tagged) = (0u64, 0u64);
    let mut add = |at: u64, tags: &[(EtherType, u16)], frame: &[u8], src: MacAddr, dst: MacAddr| {
        id += 1;
        tagged += u64::from(!tags.is_empty());
        let comment =
            if mixed { format!("id={id} kind=deliver src={src} dst={dst}") } else { "".into() };
        writer.add_packet(interface, at, frame, &comment);
    };
    let leases = if mixed { stations } else { 0 };
    let (server_mac, server_ip) = SERVER;
    for index in 0..leases {
        let (mac, ip, tags) = station(index);
        let discover = DhcpMessage::discover(index, mac);
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
        let to = Ipv4Addr::BROADCAST;
        let dgram = UdpDatagram::new(DHCP_SERVER_PORT, DHCP_CLIENT_PORT, server_ip, to, &ack);
        let pkt = Ipv4Packet::new(server_ip, to, IpProtocol::Udp, &dgram);
        let frame = tagged_frame(mac, server_mac, tags, EtherType::Ipv4, &pkt);
        add(u64::from(index) * 10_000, tags, &frame, server_mac, mac);
    }
    let start = u64::from(leases) * 10_000;
    for pair in 0..pairs {
        let (asker_mac, asker_ip, tags) = station(pair);
        let (target_mac, target_ip, _) = station(pair + stations / 2);
        let request = ArpPacket::request(asker_mac, asker_ip, target_ip);
        let forged = pair % forge_every == forge_every - 1;
        let answer_mac = if forged { MacAddr::from_index(0xBAD) } else { target_mac };
        let reply = ArpPacket::reply_to(&request, answer_mac);
        let at = start + u64::from(pair) * 250_000;
        let asked = tagged_frame(MacAddr::BROADCAST, asker_mac, tags, EtherType::ARP, &request);
        let answered = tagged_frame(asker_mac, answer_mac, tags, EtherType::ARP, &reply);
        add(at, tags, &asked, asker_mac, MacAddr::BROADCAST);
        add(at + 1_000, tags, &answered, answer_mac, asker_mac);
    }
    (writer.finish(), tagged)
}

/// Every case with its floor: `passive/synthetic16k` over the
/// synthetic capture, the two window detectors over the large LAN, and
/// each supported detector over the mixed capture.
fn cases() -> Vec<Case> {
    let mut cases = vec![Case {
        id: "passive/synthetic16k",
        kind: SchemeKind::Passive,
        capture: synthetic_capture(),
        frames: SYNTHETIC_FRAMES,
        tagged: SYNTHETIC_FRAMES.div_ceil(4),
        floor: 19,
    }];
    let (lan, _) = lan_capture(LAN_STATIONS, LAN_PAIRS, 2_048, false);
    for (id, kind, floor) in [
        ("rate-monitor/lan8k", SchemeKind::RateMonitor, 48),
        ("stateful/lan8k", SchemeKind::Stateful, 40),
    ] {
        let frames = 2 * u64::from(LAN_PAIRS);
        cases.push(Case { id, kind, capture: lan.clone(), frames, tagged: 0, floor });
    }
    let (mixed, tagged) = lan_capture(MIXED_STATIONS, MIXED_PAIRS, MIXED_FORGE_EVERY, true);
    for (id, kind, floor) in [
        ("passive/mixed", SchemeKind::Passive, 26),
        ("stateful/mixed", SchemeKind::Stateful, 37),
        ("active-probe/mixed", SchemeKind::ActiveProbe, 59),
        ("rate-monitor/mixed", SchemeKind::RateMonitor, 47),
        ("hybrid/mixed", SchemeKind::Hybrid, 84),
        ("dai/mixed", SchemeKind::Dai, 26),
    ] {
        let frames = u64::from(MIXED_STATIONS + 2 * MIXED_PAIRS);
        cases.push(Case { id, kind, capture: mixed.clone(), frames, tagged, floor });
    }
    cases
}

/// Streams the case's capture through a fresh detector and checks what
/// it saw, so the workload cannot silently shrink: every frame, none
/// unparseable, the tagged ones counted, the anomalies flagged, and
/// under DAI exactly the forged replies denied.
fn ingest(case: &Case) {
    let mut stream = PcapngStream::new(&case.capture[..]);
    let mut detector = Detector::new(case.kind).expect("the case's scheme is supported");
    while let Some(pkt) = stream.next_packet().expect("the capture is well-formed") {
        detector.observe(SimTime::from_nanos(pkt.ts_ns), pkt.bytes);
    }
    detector.finish();
    let stats = detector.stats();
    assert_eq!(stats.frames, case.frames, "{}: every frame must reach the detector", case.id);
    assert_eq!(stats.unparseable, 0, "{}", case.id);
    assert_eq!(stats.vlan_tagged, case.tagged, "{}", case.id);
    assert!(!detector.alerts().is_empty(), "{}: the anomalies must be flagged", case.id);
    if case.kind == SchemeKind::Dai {
        // Snooping learned every lease through its tags.
        assert_eq!(stats.denied, u64::from(MIXED_PAIRS / MIXED_FORGE_EVERY), "{}", case.id);
    }
}

/// Counts the whole second pass, detector construction, stats and the
/// alert list included.
#[test]
fn ingest_stays_within_its_allocation_floors() {
    for case in cases() {
        ingest(&case);
        let before = allocations();
        ingest(&case);
        let (made, floor) = (allocations() - before, case.floor);
        assert!(made <= floor, "{}: {made} allocations, at most {floor} allowed", case.id);
    }
}

/// Allocations a leaf may add: its switch, CAM, VLAN port table, DAI
/// inspector and binding table, and its share of the root's and the
/// simulator's growing tables. Four leaves of DAI fabric make 154 such
/// allocations in all.
const PER_LEAF: u64 = 64;

/// Live bytes a station may hold after the build: its 40-byte device
/// box, a 24-byte device entry, two 12-byte link slots, a 4-byte VLAN
/// port mode, and its bindings in the leaf and root DAI tables. Left
/// to grow by doubling, the link and device tables and a leaf's VLAN
/// port table (24 bytes a port, 2,048 ports for 1,025) held 249 bytes
/// a station; sized once and packed they hold 189, and with latency
/// and impairment moved into shared link classes, 165. Every byte the
/// build leaves live is held for the whole run.
const LIVE_BYTES_PER_STATION: i64 = 170;

/// Four full leaves of the defended VLAN fabric, with spoofers. A name
/// built with `format!` would add two allocations per station (its
/// buffer and one growth), about 12,400 in all, and break the bound.
#[test]
fn a_dai_fabric_build_allocates_once_per_station_plus_a_fixed_amount_per_leaf() {
    const HOSTS: usize = 4096;
    let config = ScaleConfig::new(20_070_625, HOSTS).with_dai().with_spoofers(8);
    let (before, live_before) = (allocations(), live_bytes());
    let lan = scale::build(config);
    let (made, live) = (allocations() - before, live_bytes() - live_before);
    let leaves = HOSTS.div_ceil(LEAF_CAPACITY) as u64;
    let allowed = HOSTS as u64 + PER_LEAF * leaves;
    assert!(made <= allowed, "{made} allocations for {HOSTS} stations, at most {allowed} allowed");
    let per_station = live / HOSTS as i64;
    assert!(
        per_station <= LIVE_BYTES_PER_STATION,
        "{live} live bytes, {per_station} a station, at most {LIVE_BYTES_PER_STATION} allowed"
    );
    assert_eq!(lan.n_hosts, HOSTS);
}
