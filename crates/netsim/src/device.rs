//! The device abstraction: anything attached to the simulated segment.

use std::time::Duration;

use arpshield_trace::Tracer;

use crate::frame::Frame;
use crate::rng::SimRng;
use crate::sim::{Scheduler, Slot};
use crate::time::SimTime;

/// Identifies a device within one [`Simulator`](crate::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

/// Identifies a port on a device. Hosts have a single port `PortId(0)`;
/// switches and hubs have many.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// One port of a flood domain: a copy leaves `port`, 802.1Q-tagged when
/// `tagged` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Egress {
    pub(crate) port: PortId,
    pub(crate) tagged: bool,
}

/// Execution context handed to every [`Device`] callback.
///
/// Devices never touch the simulator directly; they send frames and
/// set timers through this context. A send or timer is scheduled the
/// moment it is called, so what one callback schedules keeps the order
/// of its calls; the device table stays out of reach, which makes
/// callbacks re-entrancy-free by construction.
#[derive(Debug)]
pub struct DeviceCtx<'a> {
    sched: &'a mut Scheduler,
    /// The device's link slots, port 0 first; a driven device has none.
    links: &'a [Slot],
    /// The device's id, which its timers return to.
    id: u32,
    incoming: Option<&'a Frame>,
    tracer: &'a Tracer,
}

impl<'a> DeviceCtx<'a> {
    pub(crate) fn new(
        sched: &'a mut Scheduler,
        links: &'a [Slot],
        id: u32,
        incoming: Option<&'a Frame>,
        tracer: &'a Tracer,
    ) -> Self {
        DeviceCtx { sched, links, id, incoming, tracer }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Sends a frame out of `port`. If the port is not connected the
    /// frame is silently dropped (and counted in
    /// [`WireStats`](crate::WireStats)).
    ///
    /// Accepts anything convertible into a [`Frame`]: a freshly encoded
    /// `Vec<u8>`, or a cheap clone of an existing shared buffer
    /// (fan-out devices forward [`incoming_frame`](Self::incoming_frame)
    /// copies without re-allocating).
    pub fn send(&mut self, port: PortId, bytes: impl Into<Frame>) {
        self.sched.send(self.links, port, bytes.into(), self.tracer);
    }

    /// Sends one copy out of every port of `ports` except `skip`, in
    /// list order, exactly as one [`send`](Self::send) per port would:
    /// an untagged port gets `forms[0]`, a tagged one `forms[1]`. Each
    /// run of copies that arrive together is queued as one event.
    pub(crate) fn flood(
        &mut self,
        ports: impl IntoIterator<Item = Egress>,
        skip: PortId,
        forms: [Frame; 2],
    ) {
        self.sched.flood(self.links, ports.into_iter(), skip, forms, self.tracer);
    }

    /// The shared buffer of the frame currently being delivered.
    ///
    /// Inside [`Device::on_frame`] this is the same bytes as the `frame`
    /// argument, but as a clonable [`Frame`] handle: repeating or
    /// flooding it to N ports shares one allocation instead of making N
    /// copies. Outside `on_frame` (start/timer callbacks) it is `None`.
    pub fn incoming_frame(&self) -> Option<Frame> {
        self.incoming.cloned()
    }

    /// Schedules [`Device::on_timer`] with `token` after `delay`.
    pub fn schedule_in(&mut self, delay: Duration, token: u64) {
        self.sched.schedule(self.id, delay, token);
    }

    /// Deterministic randomness scoped to the whole simulation.
    pub fn rng(&mut self) -> &mut SimRng {
        self.sched.rng()
    }

    /// The run's tracer, shared by every device of the simulation
    /// (disabled unless one was set with
    /// [`Simulator::set_tracer`](crate::Simulator::set_tracer)). The
    /// borrow outlives `self`, so a device can record while it sends.
    pub fn tracer(&self) -> &'a Tracer {
        self.tracer
    }
}

/// A device attached to the simulated network.
///
/// Implementations are event-driven: the simulator invokes [`on_start`]
/// once when the run begins, [`on_frame`] for every delivered frame, and
/// [`on_timer`] for timers the device scheduled. All side effects go
/// through the [`DeviceCtx`].
///
/// [`on_start`]: Device::on_start
/// [`on_frame`]: Device::on_frame
/// [`on_timer`]: Device::on_timer
pub trait Device {
    /// Human-readable name, used in traces and error messages.
    fn name(&self) -> &str;

    /// Number of ports this device exposes. Connecting to a port at or
    /// beyond this count is rejected.
    fn port_count(&self) -> usize;

    /// Called once when the simulation starts (before any frame delivery).
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        let _ = ctx;
    }

    /// Called for every frame delivered to one of this device's ports.
    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]);

    /// Called when a timer scheduled via [`DeviceCtx::schedule_in`] fires.
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::StandaloneDriver;

    /// Logs the tokens of the timers it gets.
    struct Timers(Rc<RefCell<Vec<u64>>>);

    impl Device for Timers {
        fn name(&self) -> &str {
            "timers"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
        fn on_timer(&mut self, _: &mut DeviceCtx<'_>, token: u64) {
            self.0.borrow_mut().push(token);
        }
    }

    #[test]
    fn ctx_sends_and_schedules_through_its_driver() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut device = Timers(Rc::clone(&fired));
        let mut driver = StandaloneDriver::new(1);
        driver.advance_to(&mut device, SimTime::from_secs(5));
        let mut ctx = driver.ctx(None);
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        assert!(ctx.incoming_frame().is_none());
        ctx.send(PortId(0), vec![1, 2, 3]);
        ctx.schedule_in(Duration::from_millis(10), 42);
        let _ = ctx.rng().next_u64();
        let sends: Vec<_> = driver.drain_sends().map(|(p, f)| (p, f.to_vec())).collect();
        assert_eq!(sends, [(PortId(0), vec![1, 2, 3])]);
        driver.advance_to(&mut device, SimTime::from_millis(5_009));
        assert!(fired.borrow().is_empty());
        driver.advance_to(&mut device, SimTime::from_millis(5_010));
        assert_eq!(*fired.borrow(), [42]);
    }

    #[test]
    fn incoming_frame_shares_the_delivered_buffer() {
        let mut driver = StandaloneDriver::new(1);
        let delivered = Frame::from(vec![7u8; 64]);
        let mut ctx = driver.ctx(Some(&delivered));
        let shared = ctx.incoming_frame().expect("incoming frame set");
        assert!(std::ptr::eq(shared.as_slice(), delivered.as_slice()));
        ctx.send(PortId(0), shared);
        let sends: Vec<_> = driver.drain_sends().collect();
        assert!(
            std::ptr::eq(sends[0].1.as_slice(), delivered.as_slice()),
            "send passes on a shared handle, not a copy"
        );
    }

    /// A flood sends one copy per listed port but `skip`, in list order
    /// and in its port's form, between the sends around it.
    #[test]
    fn a_flood_sends_its_egress_list_in_order_without_skip() {
        let mut driver = StandaloneDriver::new(1);
        let mut ctx = driver.ctx(None);
        let forms = || [Frame::from(&[0u8][..]), Frame::from(&[1u8][..])];
        let egress = |p: u16| Egress { port: PortId(p), tagged: p == 2 };
        ctx.flood((0..3).map(egress), PortId(1), forms());
        ctx.send(PortId(3), vec![9]);
        ctx.flood((3..5).map(egress), PortId(4), forms());
        let sends: Vec<_> = driver.drain_sends().map(|(p, f)| (p.0, f[0])).collect();
        assert_eq!(sends, [(0, 0), (2, 1), (3, 9), (3, 0)]);
    }

    #[test]
    fn ids_display() {
        assert_eq!(DeviceId(7).to_string(), "dev7");
        assert_eq!(PortId(2).to_string(), "port2");
    }
}
