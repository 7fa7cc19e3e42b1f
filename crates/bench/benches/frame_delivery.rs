//! Per-frame delivery cost on broadcast-heavy topologies — the hot path
//! the shared-`Frame` substrate work targets.
//!
//! Five workloads: a 16-port hub repeating every ingress frame to 15
//! egress ports, the same hub in front of 15 full host stacks that parse
//! every frame up to UDP, a 16-port switch flooding broadcasts, a
//! VLAN-aware switch flooding across mixed access/trunk ports (each
//! ingress frame is re-tagged at most once, then shared), and a
//! 1,025-port switch — the T6S fabric's leaf shape — flooding to 1,024
//! stations, so one flood is one fan-out event of 1,024 copies. Alongside the
//! timed records this bench counts heap allocations per delivered frame
//! (via a counting global allocator) and writes them to
//! `results/bench/frame_delivery_allocs.json`, so the allocation
//! trajectory is tracked the same way the latency trajectory is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use arpshield_host::{Host, HostConfig};
use arpshield_netsim::{
    eth_frame, Device, DeviceCtx, Hub, PortId, PortVlan, SimTime, Simulator, Switch, SwitchConfig,
    VlanSet,
};
use arpshield_packet::{
    EtherType, IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet, MacAddr, UdpDatagram,
};
use arpshield_testkit::{Criterion, Throughput};
use arpshield_trace::json;

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

const PORTS: usize = 16;
const FRAMES: u64 = 64;

/// Emits `FRAMES` broadcast frames of 256 bytes, one per microsecond,
/// encoding each in place into a recycled pool buffer: at steady state
/// transmission allocates nothing per frame.
struct Blaster {
    remaining: u64,
    /// Send UDP datagrams to an unbound port instead of opaque frames.
    udp: bool,
}

impl Blaster {
    fn new() -> Self {
        Blaster { remaining: FRAMES, udp: false }
    }

    fn udp() -> Self {
        Blaster { remaining: FRAMES, udp: true }
    }
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

/// Ports of the leaf-shaped switch: 1,024 stations plus an uplink.
const LEAF_PORTS: usize = 1025;

/// One ingress + (ports - 1) egress copies per emitted frame.
fn delivered_frames(ports: usize) -> u64 {
    FRAMES * ports as u64
}

/// Runs a built fabric and returns (allocations during delivery, frames
/// delivered). Fabric construction is excluded from the count: the gate
/// tracks the steady-state per-frame path, and setup costs would
/// otherwise drown it at this frame count.
fn deliver(mut sim: Simulator) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(SimTime::from_secs(1));
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocs, sim.wire_stats().frames)
}

fn run_hub_broadcast() -> (u64, u64) {
    let mut sim = Simulator::new(1);
    let hub = sim.add_device(Box::new(Hub::new("hub", PORTS)));
    let src = sim.add_device(Box::new(Blaster::new()));
    sim.connect(src, PortId(0), hub, PortId(0), Duration::from_micros(1)).unwrap();
    for p in 1..PORTS as u16 {
        let s = sim.add_device(Box::new(Sink));
        sim.connect(s, PortId(0), hub, PortId(p), Duration::from_micros(1)).unwrap();
    }
    deliver(sim)
}

/// Host receive path: every hub port holds a full host stack that takes
/// each broadcast datagram through Ethernet, IPv4 and UDP parsing to a
/// port nobody listens on, so the count covers that path alone.
fn run_hub_host_rx() -> (u64, u64) {
    let mut sim = Simulator::new(1);
    let hub = sim.add_device(Box::new(Hub::new("hub", PORTS)));
    let src = sim.add_device(Box::new(Blaster::udp()));
    sim.connect(src, PortId(0), hub, PortId(0), Duration::from_micros(1)).unwrap();
    let subnet = Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24);
    for p in 1..PORTS as u16 {
        let ip = Ipv4Addr::new(10, 0, 0, p as u8 + 1);
        let mac = MacAddr::from_index(u32::from(p) + 1);
        let (host, _) = Host::new(HostConfig::static_ip(format!("h{p}"), mac, ip, subnet));
        let h = sim.add_device(Box::new(host));
        sim.connect(h, PortId(0), hub, PortId(p), Duration::from_micros(1)).unwrap();
    }
    deliver(sim)
}

/// A `ports`-port switch with the blaster on port 0 and a sink on
/// every other port.
fn run_switch_flood_over(ports: usize) -> (u64, u64) {
    let mut sim = Simulator::new(1);
    let (sw, _) = Switch::new("sw", SwitchConfig { ports, ..Default::default() });
    let sw = sim.add_device(Box::new(sw));
    let src = sim.add_device(Box::new(Blaster::new()));
    sim.connect(src, PortId(0), sw, PortId(0), Duration::from_micros(1)).unwrap();
    for p in 1..ports as u16 {
        let s = sim.add_device(Box::new(Sink));
        sim.connect(s, PortId(0), sw, PortId(p), Duration::from_micros(1)).unwrap();
    }
    deliver(sim)
}

fn run_switch_flood() -> (u64, u64) {
    run_switch_flood_over(PORTS)
}

/// The fabric's leaf shape: every broadcast fans out to 1,024 stations
/// in one event, through the simulator's reusable target arena.
fn run_leaf_flood() -> (u64, u64) {
    run_switch_flood_over(LEAF_PORTS)
}

/// VLAN flood: untagged ingress on an access port fans out to 7 more
/// access ports (shared buffer, ingress bytes) and 8 trunk ports (one
/// pooled re-tag per ingress frame, then shared). The per-frame cost
/// of the tag rebuild is what this workload pins.
fn run_switch_vlan_flood() -> (u64, u64) {
    let mut sim = Simulator::new(1);
    let mut vlans = vec![PortVlan::Access { pvid: 10 }; PORTS / 2];
    vlans.extend(std::iter::repeat_n(
        PortVlan::Trunk { allowed: VlanSet::Only(vec![10]) },
        PORTS / 2,
    ));
    let (sw, _) =
        Switch::new("sw", SwitchConfig { ports: PORTS, vlans: Some(vlans), ..Default::default() });
    let sw = sim.add_device(Box::new(sw));
    let src = sim.add_device(Box::new(Blaster::new()));
    sim.connect(src, PortId(0), sw, PortId(0), Duration::from_micros(1)).unwrap();
    for p in 1..PORTS as u16 {
        let s = sim.add_device(Box::new(Sink));
        sim.connect(s, PortId(0), sw, PortId(p), Duration::from_micros(1)).unwrap();
    }
    deliver(sim)
}

fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_delivery");
    group.sample_size(15);
    group.throughput(Throughput::Elements(delivered_frames(PORTS)));
    group.bench_function("hub16/broadcast", |b| b.iter(run_hub_broadcast));
    group.bench_function("hub16/host_rx", |b| b.iter(run_hub_host_rx));
    group.bench_function("switch16/flood", |b| b.iter(run_switch_flood));
    group.bench_function("switch16/vlan_flood", |b| b.iter(run_switch_vlan_flood));
    group.throughput(Throughput::Elements(delivered_frames(LEAF_PORTS)));
    group.bench_function("switch1025/flood", |b| b.iter(run_leaf_flood));
    group.finish();
}

/// Runs `workload` once and reports heap allocations per delivered frame.
fn measure_allocs(workload: fn() -> (u64, u64)) -> (u64, u64) {
    // Warm once so the frame pool and other lazy one-time allocations
    // don't pollute the count.
    let (_, frames) = workload();
    let (allocs, again) = workload();
    assert_eq!(frames, again, "workload must be deterministic");
    (allocs, frames)
}

fn write_alloc_report() {
    let mut results = Vec::new();
    for (id, workload) in [
        ("hub16/broadcast", run_hub_broadcast as fn() -> (u64, u64)),
        ("hub16/host_rx", run_hub_host_rx),
        ("switch16/flood", run_switch_flood),
        ("switch16/vlan_flood", run_switch_vlan_flood),
        ("switch1025/flood", run_leaf_flood),
    ] {
        let (allocs, frames) = measure_allocs(workload);
        let mut obj = BTreeMap::new();
        obj.insert("id".to_string(), json::Value::Str(id.to_string()));
        obj.insert("allocations".to_string(), json::Value::Num(allocs as f64));
        obj.insert("frames_delivered".to_string(), json::Value::Num(frames as f64));
        obj.insert("allocs_per_frame".to_string(), json::Value::Num(allocs as f64 / frames as f64));
        println!(
            "frame_delivery/{id}  {allocs} allocations / {frames} frames = {:.2} allocs/frame",
            allocs as f64 / frames as f64
        );
        results.push(json::Value::Obj(obj));
    }
    let mut doc = BTreeMap::new();
    doc.insert("schema".to_string(), json::Value::Str("arpshield-allocs-v1".to_string()));
    doc.insert("results".to_string(), json::Value::Arr(results));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let dir = root.join("results").join("bench");
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join("frame_delivery_allocs.json");
    let mut text = json::Value::Obj(doc).to_string();
    text.push('\n');
    match std::fs::write(&path, text) {
        Ok(()) => println!("alloc report written to {}", path.display()),
        Err(e) => eprintln!("failed to write alloc report: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_delivery(&mut criterion);
    criterion.final_summary();
    write_alloc_report();
}
