//! Ablations of the design choices DESIGN.md calls out: what each
//! feature of the stateful monitor costs, and what the active prober's
//! window size trades.

use std::time::Duration;

use arpshield_testkit::{criterion_group, criterion_main, BenchmarkId, Criterion};

use arpshield_netsim::SimTime;
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetEmit, Ipv4Addr, MacAddr, WireEmit};
use arpshield_schemes::{AlertLog, StatefulConfig, StatefulMonitor};

fn traffic(n: usize) -> Vec<(SimTime, Vec<u8>)> {
    // A deterministic mixed stream: requests, matched replies, and the
    // occasional unsolicited forgery.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = SimTime::from_micros(i as u64 * 700);
        let a = (i % 16) as u32 + 1;
        let b = ((i + 5) % 16) as u32 + 1;
        let frame = if i % 3 == 0 {
            let req = ArpPacket::request(
                MacAddr::from_index(a),
                Ipv4Addr::new(10, 0, 0, a as u8),
                Ipv4Addr::new(10, 0, 0, b as u8),
            );
            EthernetEmit::new(MacAddr::BROADCAST, req.sender_mac, EtherType::ARP, &req).encode()
        } else {
            let rep = ArpPacket {
                op: ArpOp::Reply,
                sender_mac: MacAddr::from_index(b),
                sender_ip: Ipv4Addr::new(10, 0, 0, b as u8),
                target_mac: MacAddr::from_index(a),
                target_ip: Ipv4Addr::new(10, 0, 0, a as u8),
            };
            EthernetEmit::new(rep.target_mac, rep.sender_mac, EtherType::ARP, &rep).encode()
        };
        out.push((t, frame));
    }
    out
}

fn bench_stateful_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("stateful_ablation");
    let stream = traffic(2048);
    let configs: [(&str, StatefulConfig); 4] = [
        ("full", StatefulConfig::default()),
        ("no_l2_check", StatefulConfig { check_l2_consistency: false, ..Default::default() }),
        ("no_binding_db", StatefulConfig { track_bindings: false, ..Default::default() }),
        (
            "reply_matching_only",
            StatefulConfig {
                check_l2_consistency: false,
                track_bindings: false,
                ..Default::default()
            },
        ),
    ];
    for (label, config) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, config| {
            b.iter(|| replay(*config, &stream))
        });
    }
    group.finish();
}

/// Replays the stream through a minimal one-device simulation.
fn replay(config: StatefulConfig, stream: &[(SimTime, Vec<u8>)]) -> usize {
    use arpshield_netsim::{Device, DeviceCtx, PortId, Simulator};
    // Drive the monitor through a replayer device that forwards the
    // pre-encoded frames at their timestamps.
    struct Player {
        frames: Vec<(SimTime, Vec<u8>)>,
        idx: usize,
    }
    impl Device for Player {
        fn name(&self) -> &str {
            "player"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.schedule_in(Duration::from_micros(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _t: u64) {
            while self.idx < self.frames.len() {
                let (at, bytes) = &self.frames[self.idx];
                if *at > ctx.now() {
                    ctx.schedule_in((*at).saturating_since(ctx.now()), 0);
                    return;
                }
                ctx.send(PortId(0), bytes.clone());
                self.idx += 1;
            }
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
    }
    let log = AlertLog::new();
    let mut sim = Simulator::new(1);
    let player = sim.add_device(Box::new(Player { frames: stream.to_vec(), idx: 0 }));
    let monitor = sim.add_device(Box::new(StatefulMonitor::new(config, log.clone())));
    sim.connect(player, PortId(0), monitor, PortId(0), Duration::from_micros(1)).unwrap();
    sim.run_until(SimTime::from_secs(5));
    log.len()
}

criterion_group!(benches, bench_stateful_ablation);
criterion_main!(benches);
