//! CAM-table mechanics under flood load: learn/sweep micro-costs and a
//! full one-second macof burst through the simulator (figure F6's
//! wall-clock companion).

use std::time::Duration;

use arpshield_testkit::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use arpshield_attacks::{GroundTruth, MacFlooder, MacFlooderConfig};
use arpshield_netsim::{CamTable, PortId, SimTime, Simulator, Switch, SwitchConfig};
use arpshield_packet::MacAddr;

fn bench_cam(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_table");

    group.bench_function("learn_fresh_into_full_1024", |b| {
        let mut cam = CamTable::new(1024, Duration::from_secs(300));
        for i in 0..1024u32 {
            cam.learn(SimTime::ZERO, MacAddr::from_index(i), PortId(0));
        }
        let mut n = 1024u32;
        b.iter(|| {
            n += 1;
            black_box(cam.learn(SimTime::from_secs(1), MacAddr::from_index(n), PortId(1)))
        })
    });

    group.bench_function("sweep_1024_live", |b| {
        let mut cam = CamTable::new(1024, Duration::from_secs(300));
        for i in 0..1024u32 {
            cam.learn(SimTime::from_secs(1), MacAddr::from_index(i), PortId(0));
        }
        b.iter(|| black_box(cam.sweep(SimTime::from_secs(2))))
    });

    group.bench_function("macof_one_second", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(3);
            let (sw, handle) = Switch::new("sw", SwitchConfig { ports: 4, ..Default::default() });
            let sw = sim.add_device(Box::new(sw));
            let flooder = MacFlooder::new(MacFlooderConfig::macof_rate(), GroundTruth::new());
            let f = sim.add_device(Box::new(flooder));
            sim.connect(f, PortId(0), sw, PortId(0), Duration::from_micros(1)).unwrap();
            sim.run_until(SimTime::from_secs(1));
            let occupancy = handle.cam.borrow().occupancy();
            occupancy
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cam);
criterion_main!(benches);
