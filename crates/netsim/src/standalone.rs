//! Driving a single [`Device`] without a simulation.
//!
//! The capture-ingest path feeds recorded frames straight into a scheme's
//! monitors: there is no wire, no topology — just "this frame arrived at
//! this timestamp". [`StandaloneDriver`] supplies the small slice of
//! simulator the [`Device`] contract needs for that: a [`DeviceCtx`] per
//! callback over the simulator's own scheduler, with no links behind
//! it. Its timers therefore keep the simulator's deterministic ordering
//! (due time, then scheduling sequence), and whatever the device
//! transmits, having no link to leave by, is collected for
//! [`drain_sends`](StandaloneDriver::drain_sends).
//!
//! Steady state allocates nothing: the send buffer is reused across
//! frames, and timers live in the same [`TimingWheel`](crate::TimingWheel)
//! the simulator dispatches from, whose node arena and index-linked slot
//! chains only grow to the high-water mark of concurrently pending
//! timers.

use arpshield_trace::Tracer;

use crate::device::{Device, DeviceCtx, PortId};
use crate::frame::Frame;
use crate::sim::{EventKind, Scheduler};
use crate::time::SimTime;

/// Drives one device's callbacks from an external frame source.
#[derive(Debug)]
pub struct StandaloneDriver {
    /// The device's scheduler: its wheel holds the pending timers and
    /// its unlinked-send list what the device transmitted.
    sched: Scheduler,
    /// What [`DeviceCtx::tracer`] hands the device: always disabled,
    /// since a driven device's findings flow through its own channels
    /// (a scheme's alert log).
    tracer: Tracer,
    /// Timers fired so far.
    pub timers_fired: u64,
}

impl StandaloneDriver {
    /// Creates a driver with deterministic randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sched = Scheduler::new(seed);
        sched.unlinked = Some(Vec::new());
        StandaloneDriver { sched, tracer: Tracer::disabled(), timers_fired: 0 }
    }

    /// The driver's current time: the latest timestamp seen.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Invokes [`Device::on_start`] at the current time.
    pub fn start(&mut self, device: &mut dyn Device) {
        device.on_start(&mut self.ctx(None));
    }

    /// Advances time to `to` (never backwards), firing every timer due on
    /// the way in (due, sequence) order — including timers those firings
    /// schedule, as long as they are due by `to`.
    pub fn advance_to(&mut self, device: &mut dyn Device, to: SimTime) {
        while let Some((due, event)) = self.sched.queue.pop_until(to) {
            self.sched.now = self.sched.now.max(due);
            // With no links, a driven device queues nothing but timers.
            if let EventKind::Timer { token, .. } = event {
                self.timers_fired += 1;
                device.on_timer(&mut self.ctx(None), token);
            }
        }
        self.sched.now = self.sched.now.max(to);
    }

    /// Delivers `bytes` to `port` at time `at`, firing due timers first.
    /// Timestamps may regress (captures are not always sorted); delivery
    /// then happens at the driver's monotonic clock instead.
    pub fn deliver(&mut self, device: &mut dyn Device, at: SimTime, port: PortId, bytes: &[u8]) {
        self.advance_to(device, at);
        device.on_frame(&mut self.ctx(None), port, bytes);
    }

    /// Frames the device transmitted since the last call, oldest first.
    /// They went nowhere — the caller decides whether to count, inspect,
    /// or drop them.
    pub fn drain_sends(&mut self) -> std::vec::Drain<'_, (PortId, Frame)> {
        self.sched.unlinked.as_mut().expect("a driver keeps its device's sends").drain(..)
    }

    /// The context of one callback of the driven device, delivering
    /// `incoming` if it is a frame's.
    pub(crate) fn ctx<'a>(&'a mut self, incoming: Option<&'a Frame>) -> DeviceCtx<'a> {
        DeviceCtx::new(&mut self.sched, &[], 0, incoming, &self.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Egress;
    use std::time::Duration;

    /// Records every callback; schedules a chain of timers on start.
    struct Probe {
        events: Vec<String>,
    }

    impl Device for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            self.events.push("start".into());
            ctx.schedule_in(Duration::from_millis(10), 1);
            ctx.schedule_in(Duration::from_millis(10), 2); // same due: seq breaks the tie
            ctx.schedule_in(Duration::from_millis(30), 3);
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
            self.events.push(format!(
                "frame@{} port{} len{}",
                ctx.now().as_nanos(),
                port.0,
                frame.len()
            ));
            ctx.send(PortId(0), frame.to_vec());
        }
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
            self.events.push(format!("timer{token}@{}", ctx.now().as_nanos()));
            if token == 1 {
                // A timer scheduling another timer inside the advance window.
                ctx.schedule_in(Duration::from_millis(5), 4);
            }
        }
    }

    #[test]
    fn timers_fire_in_due_then_sequence_order() {
        let mut dev = Probe { events: Vec::new() };
        let mut driver = StandaloneDriver::new(7);
        driver.start(&mut dev);
        assert_eq!(driver.timers_fired, 0);
        driver.advance_to(&mut dev, SimTime::from_millis(20));
        assert_eq!(
            dev.events,
            vec!["start", "timer1@10000000", "timer2@10000000", "timer4@15000000"],
            "due order, sequence tie-break, and nested scheduling"
        );
        assert_eq!(driver.timers_fired, 3, "the 30 ms timer is still pending");
        driver.advance_to(&mut dev, SimTime::from_millis(40));
        assert_eq!(dev.events.last().map(String::as_str), Some("timer3@30000000"));
        assert_eq!(driver.timers_fired, 4);
        assert_eq!(driver.now(), SimTime::from_millis(40));
    }

    #[test]
    fn deliver_fires_due_timers_first_and_collects_sends() {
        let mut dev = Probe { events: Vec::new() };
        let mut driver = StandaloneDriver::new(7);
        driver.start(&mut dev);
        driver.deliver(&mut dev, SimTime::from_millis(12), PortId(0), &[0xAB; 60]);
        assert_eq!(
            dev.events,
            vec!["start", "timer1@10000000", "timer2@10000000", "frame@12000000 port0 len60"]
        );
        let sends: Vec<_> = driver.drain_sends().collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].1.as_slice(), &[0xAB; 60]);
        assert!(driver.drain_sends().next().is_none(), "drain empties the buffer");
    }

    /// Floods each frame out of ports 0–3, port 3 tagged (standing in
    /// for the re-tagged form as a run of 0xEE).
    struct Flooder;

    impl Device for Flooder {
        fn name(&self) -> &str {
            "flooder"
        }
        fn port_count(&self) -> usize {
            4
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
            let ports = (0..4).map(|p| Egress { port: PortId(p), tagged: p == 3 });
            ctx.flood(ports, port, [Frame::from(frame), Frame::from([0xEE; 64])]);
        }
    }

    /// A flood leaves a driven device as one send per listed port but
    /// the ingress, in list order, each in its port's form.
    #[test]
    fn a_flood_drains_as_one_send_per_egress_port() {
        let mut driver = StandaloneDriver::new(7);
        driver.deliver(&mut Flooder, SimTime::ZERO, PortId(1), &[0x5A; 60]);
        let sends: Vec<_> = driver.drain_sends().map(|(p, f)| (p.0, f.to_vec())).collect();
        let (plain, tagged) = (vec![0x5A; 60], vec![0xEE; 64]);
        assert_eq!(sends, [(0, plain.clone()), (2, plain), (3, tagged)]);
    }

    #[test]
    fn time_never_regresses_on_unsorted_input() {
        let mut dev = Probe { events: Vec::new() };
        let mut driver = StandaloneDriver::new(7);
        driver.deliver(&mut dev, SimTime::from_secs(5), PortId(0), &[0; 14]);
        driver.deliver(&mut dev, SimTime::from_secs(1), PortId(0), &[0; 14]);
        assert_eq!(driver.now(), SimTime::from_secs(5));
        assert_eq!(
            dev.events,
            vec!["frame@5000000000 port0 len14", "frame@5000000000 port0 len14"],
            "the regressed frame is delivered at the monotonic clock"
        );
    }
}
