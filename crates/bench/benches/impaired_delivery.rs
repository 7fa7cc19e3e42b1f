//! Cost of the link-impairment layer on the frame delivery hot path.
//!
//! Three workloads over the same 16-port hub broadcast storm:
//! a perfect wire (the `is_perfect()` fast path — must stay as fast as
//! before impairments existed), an inert profile (a flap schedule that
//! never fires, forcing the impaired delivery path with zero-probability
//! draws), and a 10% lossy + duplicating + jittered profile (every draw
//! taken on every frame). The spread between the first two is the fixed
//! tax of the feature; the third bounds its worst case.

use std::time::Duration;

use arpshield_netsim::{
    Device, DeviceCtx, FlapSchedule, Hub, LinkProfile, PortId, SimTime, Simulator,
};
use arpshield_packet::{EtherType, EthernetEmit, MacAddr, WireEmit};
use arpshield_testkit::{Criterion, Throughput};

const PORTS: usize = 16;
const FRAMES: u64 = 64;

/// Emits `FRAMES` broadcast frames, one per microsecond.
struct Blaster {
    remaining: u64,
    payload: Vec<u8>,
}

impl Blaster {
    fn new() -> Self {
        let payload = EthernetEmit::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            EtherType::Other(0x1234),
            &[0xAB; 242][..],
        )
        .encode();
        Blaster { remaining: FRAMES, payload }
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
        ctx.send(PortId(0), self.payload.clone());
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

fn run_hub_broadcast(profile: Option<LinkProfile>) -> u64 {
    let mut sim = Simulator::new(1);
    if let Some(p) = profile {
        sim.set_default_impairment(p);
    }
    let hub = sim.add_device(Box::new(Hub::new("hub", PORTS)));
    let src = sim.add_device(Box::new(Blaster::new()));
    sim.connect(src, PortId(0), hub, PortId(0), Duration::from_micros(1)).unwrap();
    for p in 1..PORTS as u16 {
        let s = sim.add_device(Box::new(Sink));
        sim.connect(s, PortId(0), hub, PortId(p), Duration::from_micros(1)).unwrap();
    }
    sim.run_until(SimTime::from_secs(1));
    sim.wire_stats().frames
}

fn inert_profile() -> LinkProfile {
    // Not `is_perfect()` — the flap forces the impaired path — but no
    // draw can ever alter a delivery.
    LinkProfile::default().with_flap(FlapSchedule {
        offset: Duration::from_secs(3600),
        down_for: Duration::from_secs(1),
        period: Duration::from_secs(7200),
    })
}

fn lossy_profile() -> LinkProfile {
    LinkProfile::default().with_loss(0.10).with_dup(0.05).with_jitter(Duration::from_micros(3))
}

fn bench_impaired(c: &mut Criterion) {
    let mut group = c.benchmark_group("impaired_delivery");
    group.sample_size(15);
    group.throughput(Throughput::Elements(FRAMES * PORTS as u64));
    group.bench_function("hub16/perfect_wire", |b| b.iter(|| run_hub_broadcast(None)));
    group.bench_function("hub16/inert_profile", |b| {
        b.iter(|| run_hub_broadcast(Some(inert_profile())))
    });
    group.bench_function("hub16/lossy_10pct", |b| {
        b.iter(|| run_hub_broadcast(Some(lossy_profile())))
    });
    group.finish();
}

fn main() {
    // Sanity: the inert profile must deliver exactly what the perfect
    // wire does, and the lossy one must actually drop frames.
    assert_eq!(run_hub_broadcast(None), run_hub_broadcast(Some(inert_profile())));
    assert!(run_hub_broadcast(Some(lossy_profile())) < run_hub_broadcast(None));

    let mut criterion = Criterion::default();
    bench_impaired(&mut criterion);
    criterion.final_summary();
}
