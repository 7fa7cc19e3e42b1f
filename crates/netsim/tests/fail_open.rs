//! The eavesdropping payoff of MAC flooding: once the CAM is full, a
//! switch in fail-open mode degrades to a hub and third parties see
//! unicast conversations that were previously private.

use std::time::Duration;

use arpshield_netsim::{
    eth_frame, Device, DeviceCtx, FailMode, PortId, SimTime, Simulator, Switch, SwitchConfig,
};
use arpshield_packet::{EtherType, EthernetView, MacAddr};

/// Sends one unicast frame to a peer every 10 ms.
struct Talker {
    me: MacAddr,
    peer: MacAddr,
}

impl Device for Talker {
    fn name(&self) -> &str {
        "talker"
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(Duration::from_millis(10), 1);
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _t: u64) {
        let frame = eth_frame(self.peer, self.me, EtherType::Other(0x4242), b"secret".as_slice());
        ctx.send(PortId(0), frame);
        ctx.schedule_in(Duration::from_millis(10), 1);
    }
    fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
}

/// Counts frames of the private conversation it overhears.
struct Eavesdropper {
    overheard: std::rc::Rc<std::cell::RefCell<u64>>,
}

impl Device for Eavesdropper {
    fn name(&self) -> &str {
        "eavesdropper"
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
        if let Ok(eth) = EthernetView::parse_strict(frame) {
            if eth.ethertype() == EtherType::Other(0x4242) {
                *self.overheard.borrow_mut() += 1;
            }
        }
    }
}

/// Emits frames from `count` forged sources, then stops.
struct SourceForger {
    count: u32,
    sent: u32,
}

impl Device for SourceForger {
    fn name(&self) -> &str {
        "forger"
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(Duration::from_millis(1), 1);
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _t: u64) {
        if self.sent >= self.count {
            return;
        }
        self.sent += 1;
        let src = MacAddr::from_index(10_000 + self.sent);
        let frame = eth_frame(MacAddr::BROADCAST, src, EtherType::Other(0x9999), &[0u8; 46][..]);
        ctx.send(PortId(0), frame);
        ctx.schedule_in(Duration::from_millis(1), 1);
    }
    fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
}

fn run(fail_mode: FailMode, flood: bool) -> (u64, u64) {
    let mut sim = Simulator::new(5);
    let (sw, handle) = Switch::new(
        "sw",
        SwitchConfig { ports: 8, cam_capacity: 8, fail_mode, ..Default::default() },
    );
    let sw = sim.add_device(Box::new(sw));
    let a = MacAddr::from_index(1);
    let b = MacAddr::from_index(2);
    let t1 = sim.add_device(Box::new(Talker { me: a, peer: b }));
    let t2 = sim.add_device(Box::new(Talker { me: b, peer: a }));
    let overheard = std::rc::Rc::new(std::cell::RefCell::new(0u64));
    let spy = sim.add_device(Box::new(Eavesdropper { overheard: std::rc::Rc::clone(&overheard) }));
    sim.connect(t1, PortId(0), sw, PortId(0), Duration::from_micros(5)).unwrap();
    sim.connect(t2, PortId(0), sw, PortId(1), Duration::from_micros(5)).unwrap();
    sim.connect(spy, PortId(0), sw, PortId(2), Duration::from_micros(5)).unwrap();
    if flood {
        let f = sim.add_device(Box::new(SourceForger { count: 64, sent: 0 }));
        sim.connect(f, PortId(0), sw, PortId(3), Duration::from_micros(5)).unwrap();
    }
    // Let the talkers establish their CAM entries first? No — the forger
    // races them, exactly like a real attack. Run and observe.
    sim.run_until(SimTime::from_secs(2));
    let cam = handle.cam.borrow().occupancy() as u64;
    let n = *overheard.borrow();
    (n, cam)
}

#[test]
fn without_flooding_unicast_stays_private() {
    let (overheard, _) = run(FailMode::FloodOpen, false);
    // Only the first frame of each direction (unknown destination)
    // floods; everything after is switched point-to-point.
    assert!(overheard <= 2, "private conversation leaked {overheard} frames");
}

#[test]
fn fail_open_flood_exposes_unicast_traffic() {
    let (overheard, cam) = run(FailMode::FloodOpen, true);
    assert_eq!(cam, 8, "CAM must be pinned full");
    // The talkers' entries age out / can't re-learn; their conversation
    // floods to the eavesdropper — the attack's entire point.
    assert!(overheard > 50, "expected a leak, overheard only {overheard}");
}

#[test]
fn drop_new_mode_contains_the_flood() {
    let (overheard, _) = run(FailMode::DropNew, true);
    // With DropNew, unlearnable sources are dropped; the talkers that
    // got in first keep their entries and privacy. (If the forger won
    // the race instead, the talkers would be the ones cut off — the
    // availability-for-confidentiality trade DropNew makes.)
    assert!(overheard <= 2, "DropNew should preserve privacy, leaked {overheard}");
}
