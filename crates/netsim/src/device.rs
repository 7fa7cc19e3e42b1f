//! The device abstraction: anything attached to the simulated segment.

use std::ops::Range;
use std::time::Duration;

use arpshield_trace::Tracer;

use crate::frame::Frame;
use crate::rng::SimRng;
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

/// Deferred side effects a device requests during a callback. A flood
/// sends one copy out of every port of `ports` (a range of
/// [`Outbox::egress`]) but `skip`, in list order; an untagged port takes
/// `forms[0]`, a tagged one `forms[1]`.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    Send { port: PortId, bytes: Frame },
    Flood { ports: Range<u32>, skip: PortId, forms: [Frame; 2] },
    Schedule { delay: Duration, token: u64 },
}

/// What a device queues during one callback, applied once it returns.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) actions: Vec<Action>,
    /// The egress lists of the callback's floods, back to back.
    pub(crate) egress: Vec<Egress>,
}

/// Execution context handed to every [`Device`] callback.
///
/// Devices never touch the simulator directly; they queue transmissions and
/// timers through this context, which the simulator applies after the
/// callback returns. That makes callbacks re-entrancy-free by construction.
#[derive(Debug)]
pub struct DeviceCtx<'a> {
    now: SimTime,
    out: &'a mut Outbox,
    rng: &'a mut SimRng,
    incoming: Option<&'a Frame>,
    tracer: &'a Tracer,
}

impl<'a> DeviceCtx<'a> {
    pub(crate) fn new(
        now: SimTime,
        out: &'a mut Outbox,
        rng: &'a mut SimRng,
        incoming: Option<&'a Frame>,
        tracer: &'a Tracer,
    ) -> Self {
        DeviceCtx { now, out, rng, incoming, tracer }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues a frame for transmission out of `port`. If the port is not
    /// connected the frame is silently dropped (and counted in
    /// [`WireStats`](crate::WireStats)).
    ///
    /// Accepts anything convertible into a [`Frame`]: a freshly encoded
    /// `Vec<u8>`, or a cheap clone of an existing shared buffer
    /// (fan-out devices forward [`incoming_frame`](Self::incoming_frame)
    /// copies without re-allocating).
    pub fn send(&mut self, port: PortId, bytes: impl Into<Frame>) {
        self.out.actions.push(Action::Send { port, bytes: bytes.into() });
    }

    /// Queues one copy out of every port of `ports` except `skip`, in
    /// list order, exactly as one [`send`](Self::send) per port would:
    /// an untagged port gets `forms[0]`, a tagged one `forms[1]`. The
    /// simulator queues each run of copies that arrive together as one
    /// event.
    pub(crate) fn flood(
        &mut self,
        ports: impl IntoIterator<Item = Egress>,
        skip: PortId,
        forms: [Frame; 2],
    ) {
        let egress = &mut self.out.egress;
        let start = egress.len() as u32;
        egress.extend(ports);
        let ports = start..egress.len() as u32;
        self.out.actions.push(Action::Flood { ports, skip, forms });
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
        self.out.actions.push(Action::Schedule { delay, token });
    }

    /// Deterministic randomness scoped to the whole simulation.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
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
    use super::*;

    #[test]
    fn ctx_queues_actions() {
        let (mut out, mut rng, tracer) = (Outbox::default(), SimRng::new(1), Tracer::disabled());
        let mut ctx = DeviceCtx::new(SimTime::from_secs(5), &mut out, &mut rng, None, &tracer);
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        assert!(ctx.incoming_frame().is_none());
        ctx.send(PortId(0), vec![1, 2, 3]);
        ctx.schedule_in(Duration::from_millis(10), 42);
        let _ = ctx.rng().next_u64();
        assert_eq!(out.actions.len(), 2);
        assert!(
            matches!(&out.actions[0], Action::Send { port: PortId(0), bytes } if bytes.as_slice() == [1, 2, 3])
        );
        assert!(matches!(&out.actions[1], Action::Schedule { token: 42, .. }));
    }

    #[test]
    fn incoming_frame_shares_the_delivered_buffer() {
        let (mut out, mut rng, tracer) = (Outbox::default(), SimRng::new(1), Tracer::disabled());
        let delivered = Frame::from(vec![7u8; 64]);
        let mut ctx = DeviceCtx::new(SimTime::ZERO, &mut out, &mut rng, Some(&delivered), &tracer);
        let shared = ctx.incoming_frame().expect("incoming frame set");
        assert!(std::ptr::eq(shared.as_slice(), delivered.as_slice()));
        ctx.send(PortId(0), shared);
        let Action::Send { bytes, .. } = &out.actions[0] else { panic!("a send") };
        assert!(
            std::ptr::eq(bytes.as_slice(), delivered.as_slice()),
            "send queues a shared handle, not a copy"
        );
    }

    #[test]
    fn a_flood_is_one_action_over_its_egress_list() {
        let (mut out, mut rng, tracer) = (Outbox::default(), SimRng::new(1), Tracer::disabled());
        let mut ctx = DeviceCtx::new(SimTime::ZERO, &mut out, &mut rng, None, &tracer);
        let frame = Frame::from(vec![7u8; 64]);
        let egress = |p: u16| Egress { port: PortId(p), tagged: p == 2 };
        ctx.flood((0..3).map(egress), PortId(1), [frame.clone(), frame.clone()]);
        ctx.send(PortId(3), frame.clone());
        ctx.flood((3..5).map(egress), PortId(4), [frame.clone(), frame]);
        assert_eq!(out.egress, (0..3).chain(3..5).map(egress).collect::<Vec<_>>());
        assert!(
            matches!(&out.actions[0], Action::Flood { ports, skip: PortId(1), .. } if *ports == (0..3))
        );
        assert!(matches!(&out.actions[1], Action::Send { port: PortId(3), .. }));
        assert!(
            matches!(&out.actions[2], Action::Flood { ports, skip: PortId(4), .. } if *ports == (3..5))
        );
    }

    #[test]
    fn ids_display() {
        assert_eq!(DeviceId(7).to_string(), "dev7");
        assert_eq!(PortId(2).to_string(), "port2");
    }
}
