//! The discrete-event simulation engine.

use std::collections::BTreeMap;
use std::time::Duration;

use arpshield_trace::profile;
use arpshield_trace::{FrameKind, Tracer};

use crate::device::{Device, DeviceCtx, DeviceId, Egress, PortId};
use crate::error::NetsimError;
use crate::frame::Frame;
use crate::impair::{self, LinkProfile};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::wheel::TimingWheel;

/// Aggregate counters over everything that crossed the wire.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Frames delivered over links.
    pub frames: u64,
    /// Bytes delivered over links.
    pub bytes: u64,
    /// Frames sent out of unconnected ports (dropped).
    pub dropped_no_link: u64,
    /// Timer events dispatched.
    pub timers: u64,
}

/// Domain separation between the impairment hash and the event RNG, so
/// `Simulator::new(seed)` feeds them unrelated key material.
const IMPAIR_SEED_SALT: u64 = 0x1A7E_0F1C_5EED_11D0;

/// `Slot::peer` of a port with no link attached. [`Simulator::add_device`]
/// never hands out this id, so it cannot name a real device.
const NO_PEER: u32 = u32::MAX;

/// One direction of a link, holding only what is its own (12 bytes):
/// what it shares with other directions lives in its class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Receiving device, or [`NO_PEER`].
    peer: u32,
    /// Index into `Scheduler::classes`; never read while `peer` is
    /// [`NO_PEER`].
    class: u32,
    peer_port: PortId,
}

impl Slot {
    const UNLINKED: Slot = Slot { peer: NO_PEER, class: 0, peer_port: PortId(0) };

    /// The slot behind `port` among a device's `links`; a port past
    /// them reads as unlinked.
    fn of(links: &[Slot], port: PortId) -> Slot {
        links.get(usize::from(port.0)).copied().unwrap_or(Slot::UNLINKED)
    }
}

/// What a send reads after its slot. Perfect wires of equal latency
/// share one class, so a topology has a handful of them. An impaired
/// direction's class is its own: its draws are keyed on its own key
/// and frame counter.
#[derive(Debug, Clone)]
struct LinkClass {
    /// One-way latency in nanoseconds.
    latency_ns: u64,
    /// `None` for a perfect wire.
    impairment: Option<ImpairedDirection>,
}

/// The state only an impaired link direction needs.
#[derive(Debug, Clone)]
struct ImpairedDirection {
    /// Impairment profile for this direction of the link.
    profile: LinkProfile,
    /// Stable identity of this direction, for keyed impairment draws.
    key: u64,
    /// Frames sent into this direction so far — the per-event index the
    /// impairment draws are keyed on.
    sent: u64,
}

/// A queued event. Device ids are `u32`, as in the link slots, and a
/// fan-out's length fits 16 bits, so an event is 16 bytes.
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    /// A frame arriving at `port` of device `dst`. The sender is the
    /// peer in that port's link slot, so the event does not carry it.
    Deliver {
        dst: u32,
        port: PortId,
        bytes: Frame,
        /// True for impairment-injected duplicate copies, so the
        /// flight recorder can label them distinctly.
        dup: bool,
    },
    /// One flooded frame arriving at each of targets `0..=last` in
    /// fan-out `slot`, in list order.
    Fanout {
        bytes: Frame,
        slot: u32,
        last: u16,
    },
    Timer {
        dst: u32,
        token: u64,
    },
}

/// Where one copy of a fan-out lands.
#[derive(Debug, Clone, Copy)]
struct Target {
    dst: u32,
    port: PortId,
}

/// Power-of-two size classes of fan-out target lists: a flood out of a
/// 65 536-port device reaches at most 65 535 targets.
const FANOUT_CLASSES: usize = 17;

/// The most targets one fan-out event holds: its largest size class, and
/// every `last` index a `u16` can name. A longer run queues as several.
const MAX_FANOUT: usize = 1 << (FANOUT_CLASSES - 1);

/// Free-chain terminator of [`FanoutArena`].
const NO_SLOT: u32 = u32::MAX;

/// The target lists of queued fan-out events. Size class `c` keeps one
/// slab of `2^c`-target slots. A list takes a slot of the smallest class
/// that holds it, and a spent slot joins its class's free chain, linked
/// through its first target. Slabs grow by doubling, so a run allocates
/// a few times per class and then never again.
#[derive(Debug)]
struct FanoutArena {
    slabs: [Vec<Target>; FANOUT_CLASSES],
    /// Head of each class's free chain, or [`NO_SLOT`].
    free: [u32; FANOUT_CLASSES],
}

impl FanoutArena {
    fn new() -> Self {
        FanoutArena { slabs: std::array::from_fn(|_| Vec::new()), free: [NO_SLOT; FANOUT_CLASSES] }
    }

    /// The size class of a `len`-target list.
    fn class(len: u32) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    /// Copies `targets` into a free slot and returns the slot.
    fn store(&mut self, targets: &[Target]) -> u32 {
        let class = Self::class(targets.len() as u32);
        let slab = &mut self.slabs[class];
        let slot = match self.free[class] {
            NO_SLOT => {
                let slot = (slab.len() >> class) as u32;
                slab.resize(slab.len() + (1 << class), Target { dst: NO_PEER, port: PortId(0) });
                slot
            }
            slot => {
                self.free[class] = slab[(slot as usize) << class].dst;
                slot
            }
        };
        let start = (slot as usize) << class;
        slab[start..start + targets.len()].copy_from_slice(targets);
        slot
    }

    /// Target `i` of the `len`-target list in `slot`.
    fn target(&self, slot: u32, len: u32, i: usize) -> Target {
        let class = Self::class(len);
        self.slabs[class][((slot as usize) << class) + i]
    }

    /// Puts the `len`-target list's `slot` back on its free chain.
    fn release(&mut self, slot: u32, len: u32) {
        let class = Self::class(len);
        self.slabs[class][(slot as usize) << class].dst = self.free[class];
        self.free[class] = slot;
    }
}

/// One attached device and its ports' run of link slots, 24 bytes: a
/// send reads the entry its dispatch just loaded, then one slot and its
/// class.
#[derive(Debug)]
struct DeviceEntry {
    device: Box<dyn Device>,
    /// The device's port 0 is link slot `first_link`.
    first_link: u32,
    ports: u32,
}

impl DeviceEntry {
    /// The link slot behind `port`, or `None` past the device's count.
    fn slot(&self, port: PortId) -> Option<usize> {
        let port = u32::from(port.0);
        (port < self.ports).then(|| (self.first_link + port) as usize)
    }
}

/// A frame an impaired link lost during the running callback. Its
/// capture record and `wire.drop.*` event name both ends of the link,
/// and the device table that names them is out of reach while the
/// callback runs, so they are written once it returns.
#[derive(Debug)]
struct LostFrame {
    port: PortId,
    peer: u32,
    peer_port: PortId,
    /// The frame's index among its direction's sends.
    index: u64,
    link_down: bool,
    bytes: Frame,
}

/// What a device callback schedules through: the clock, the link
/// classes, the event wheel, the RNG, the wire counters and the fan-out
/// arena. [`Simulator`] lends it to each callback beside the device, so
/// a send resolves its link and joins the wheel the moment it is made;
/// a [`StandaloneDriver`](crate::StandaloneDriver) lends its own, with
/// no links behind it.
#[derive(Debug)]
pub(crate) struct Scheduler {
    pub(crate) now: SimTime,
    /// The event core: a hierarchical timing wheel preserving the
    /// `(timestamp, insertion)` dispatch order the heap gave.
    pub(crate) queue: TimingWheel<EventKind>,
    /// Link classes, indexed by `Slot::class`.
    classes: Vec<LinkClass>,
    rng: SimRng,
    impair_seed: u64,
    stats: WireStats,
    /// Target lists of the queued fan-out events.
    fanouts: FanoutArena,
    /// The run of flood copies being gathered into one fan-out event.
    flood_run: Vec<Target>,
    /// The running callback's lost frames, in send order.
    lost: Vec<LostFrame>,
    /// Frames sent out of ports with no link: `None` counts and drops
    /// them, as the simulator does; a standalone driver keeps them.
    pub(crate) unlinked: Option<Vec<(PortId, Frame)>>,
}

impl Scheduler {
    /// A scheduler at time zero whose RNG and impairment draws derive
    /// from `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: TimingWheel::new(),
            classes: Vec::new(),
            rng: SimRng::new(seed),
            impair_seed: seed ^ IMPAIR_SEED_SALT,
            stats: WireStats::default(),
            fanouts: FanoutArena::new(),
            flood_run: Vec::new(),
            lost: Vec::new(),
            unlinked: None,
        }
    }

    pub(crate) fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Sends `bytes` out of `port`, whose slot `links` holds: a perfect
    /// wire queues its delivery, an impaired one draws its fate.
    pub(crate) fn send(&mut self, links: &[Slot], port: PortId, bytes: Frame, tracer: &Tracer) {
        let link = Slot::of(links, port);
        if link.peer == NO_PEER {
            self.unlinked(port, bytes);
        } else if let Some(at) = self.arrival(link) {
            let (dst, port) = (link.peer, link.peer_port);
            self.queue.push(at, EventKind::Deliver { dst, port, bytes, dup: false });
        } else {
            self.send_impaired(port, link, bytes, tracer);
        }
    }

    /// Queues a flood's copies in the order one send per port would.
    /// Each maximal run of perfect-wire copies with one arrival time and
    /// one form becomes a single fan-out event. The copies of a run are
    /// pushed back to back, holding consecutive sequence numbers, so
    /// nothing can be ordered between them and the event dispatches
    /// exactly as they would. Impaired links end the run and take the
    /// per-frame path; unlinked ports queue nothing.
    pub(crate) fn flood(
        &mut self,
        links: &[Slot],
        ports: impl Iterator<Item = Egress>,
        skip: PortId,
        forms: [Frame; 2],
        tracer: &Tracer,
    ) {
        let mut run = std::mem::take(&mut self.flood_run);
        run.reserve(ports.size_hint().0);
        let (mut run_at, mut run_form) = (SimTime::ZERO, 0);
        for egress in ports.filter(|e| e.port != skip) {
            let form = usize::from(egress.tagged);
            let link = Slot::of(links, egress.port);
            if link.peer == NO_PEER {
                self.unlinked(egress.port, forms[form].clone());
                continue;
            }
            let Some(at) = self.arrival(link) else {
                self.queue_run(&mut run, run_at, &forms[run_form]);
                self.send_impaired(egress.port, link, forms[form].clone(), tracer);
                continue;
            };
            if (at, form) != (run_at, run_form) {
                self.queue_run(&mut run, run_at, &forms[run_form]);
                (run_at, run_form) = (at, form);
            }
            run.push(Target { dst: link.peer, port: link.peer_port });
        }
        self.queue_run(&mut run, run_at, &forms[run_form]);
        self.flood_run = run;
    }

    /// Schedules device `id`'s timer `token` after `delay`.
    pub(crate) fn schedule(&mut self, id: u32, delay: Duration, token: u64) {
        let at = self.now.saturating_add(delay);
        self.queue.push(at, EventKind::Timer { dst: id, token });
    }

    /// Drops `bytes`, sent out of a port with no link, or keeps it.
    fn unlinked(&mut self, port: PortId, bytes: Frame) {
        match &mut self.unlinked {
            Some(sends) => sends.push((port, bytes)),
            None => self.stats.dropped_no_link += 1,
        }
    }

    /// When a frame sent now over `link` arrives if it is a perfect wire
    /// (like a timer's due time, [`SimTime::MAX`] if the sum passes it),
    /// or `None` if it is impaired and each frame draws its own fate.
    fn arrival(&self, link: Slot) -> Option<SimTime> {
        let class = &self.classes[link.class as usize];
        let at = SimTime::from_nanos(self.now.as_nanos().saturating_add(class.latency_ns));
        class.impairment.is_none().then_some(at)
    }

    /// Queues the copies of `run` arriving at `at` and empties it: one
    /// plain delivery for a single copy, else one fan-out event per
    /// [`MAX_FANOUT`] copies. The events hold consecutive sequence
    /// numbers, so they dispatch exactly as one would.
    fn queue_run(&mut self, run: &mut Vec<Target>, at: SimTime, bytes: &Frame) {
        if let [one] = run[..] {
            let (dst, port) = (one.dst, one.port);
            self.queue.push(at, EventKind::Deliver { dst, port, bytes: bytes.clone(), dup: false });
        } else {
            for targets in run.chunks(MAX_FANOUT) {
                let (slot, last) = (self.fanouts.store(targets), (targets.len() - 1) as u16);
                self.queue.push(at, EventKind::Fanout { bytes: bytes.clone(), slot, last });
            }
        }
        run.clear();
    }

    /// Sends `bytes` out of `port` over the impaired `link`: draws its
    /// fate, then drops, delays or duplicates it. A dropped frame waits
    /// in `lost` for the callback to return.
    fn send_impaired(&mut self, port: PortId, link: Slot, bytes: Frame, tracer: &Tracer) {
        let (peer, peer_port) = (link.peer, link.peer_port);
        let class = &mut self.classes[link.class as usize];
        let latency = Duration::from_nanos(class.latency_ns);
        let direction = class.impairment.as_mut().expect("only impaired classes draw fates");
        let (profile, key, index) = (direction.profile, direction.key, direction.sent);
        direction.sent += 1;
        let fate = impair::fate(&profile, self.impair_seed, key, index, self.now);
        if fate.lost {
            let link_down = profile.flap.is_some_and(|f| f.is_down(self.now));
            self.lost.push(LostFrame { port, peer, peer_port, index, link_down, bytes });
            return;
        }
        let at = self.now.saturating_add(latency).saturating_add(fate.extra_delay);
        // The duplicate trails the original by one more propagation
        // delay, sharing its buffer.
        let dup = fate.duplicated.then(|| (at.saturating_add(latency), bytes.clone()));
        self.queue.push(at, EventKind::Deliver { dst: peer, port: peer_port, bytes, dup: false });
        if let Some((dup_at, copy)) = dup {
            tracer.count("wire.duplicated", 1);
            self.queue.push(
                dup_at,
                EventKind::Deliver { dst: peer, port: peer_port, bytes: copy, dup: true },
            );
        }
    }
}

/// A deterministic single-segment network simulator.
///
/// Add devices, connect their ports with latencied links, and run. Events
/// with equal timestamps are dispatched in insertion order, so a run is a
/// pure function of its seed and topology.
#[derive(Debug)]
pub struct Simulator {
    started: bool,
    devices: Vec<DeviceEntry>,
    /// Index-addressed link arena: each device's ports occupy the run of
    /// slots its entry names. The dispatch hot path resolves a send with
    /// one array index instead of a hash lookup per frame.
    links: Vec<Slot>,
    /// Everything a callback schedules through, lent to it beside its
    /// device.
    sched: Scheduler,
    default_profile: LinkProfile,
    /// The last perfect-wire class handed out, with its latency:
    /// topologies are wired in runs of equal links, so most connects
    /// reuse it without a map lookup.
    last_wire: Option<(u64, u32)>,
    /// Every perfect-wire class by latency, for the connects that do not.
    wires: BTreeMap<u64, u32>,
    /// The run's one tracer: wire outcomes and the flight recorder go
    /// here, and every device reaches it through its `DeviceCtx`.
    /// Disabled by default.
    run_tracer: Tracer,
}

impl std::fmt::Debug for dyn Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Device({})", self.name())
    }
}

impl Simulator {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            started: false,
            devices: Vec::new(),
            links: Vec::new(),
            sched: Scheduler::new(seed),
            default_profile: LinkProfile::PERFECT,
            last_wire: None,
            wires: BTreeMap::new(),
            run_tracer: Tracer::disabled(),
        }
    }

    /// Sets the impairment profile applied to every link connected from
    /// now on. Links already connected keep the profile they were
    /// created with; call before wiring the topology to impair a whole
    /// segment.
    pub fn set_default_impairment(&mut self, profile: LinkProfile) {
        self.default_profile = profile;
    }

    /// Reserves room for `devices` more devices with `ports` ports
    /// between them, as [`Vec::reserve_exact`] does: a topology that
    /// adds exactly that many keeps no spare capacity.
    pub fn reserve(&mut self, devices: usize, ports: usize) {
        self.devices.reserve_exact(devices);
        self.links.reserve_exact(ports);
    }

    /// Attaches a device and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on the 2^32-th device, or when the devices' ports together
    /// pass 2^32 − 1: link slots address peers and ports in 32 bits.
    pub fn add_device(&mut self, device: Box<dyn Device>) -> DeviceId {
        let id = self.devices.len();
        assert!(id < NO_PEER as usize, "device id space exhausted");
        // `links.len()` is the last add's checked end, so it fits.
        let first_link = self.links.len() as u32;
        let next = self.links.len() + device.port_count();
        let end = u32::try_from(next).expect("port slot space exhausted");
        self.links.resize(next, Slot::UNLINKED);
        self.devices.push(DeviceEntry { device, first_link, ports: end - first_link });
        DeviceId(id)
    }

    /// Connects two device ports with a full-duplex link of the given
    /// one-way latency.
    ///
    /// # Errors
    ///
    /// Returns a [`NetsimError`] if either endpoint is unknown, the port is
    /// out of range or already linked, or the two endpoints are the same
    /// device.
    pub fn connect(
        &mut self,
        a: DeviceId,
        a_port: PortId,
        b: DeviceId,
        b_port: PortId,
        latency: Duration,
    ) -> Result<(), NetsimError> {
        let profile = self.default_profile;
        self.connect_impaired(a, a_port, b, b_port, latency, profile)
    }

    /// Like [`connect`](Simulator::connect), but with an explicit
    /// impairment profile instead of the simulator default.
    ///
    /// # Errors
    ///
    /// Same conditions as [`connect`](Simulator::connect).
    pub fn connect_impaired(
        &mut self,
        a: DeviceId,
        a_port: PortId,
        b: DeviceId,
        b_port: PortId,
        latency: Duration,
        profile: LinkProfile,
    ) -> Result<(), NetsimError> {
        if a == b {
            return Err(NetsimError::SelfLink(a));
        }
        for (dev, port) in [(a, a_port), (b, b_port)] {
            let entry = self.devices.get(dev.0).ok_or(NetsimError::UnknownDevice(dev))?;
            let Some(slot) = entry.slot(port) else {
                return Err(NetsimError::BadPort {
                    device: dev,
                    port,
                    count: entry.ports as usize,
                });
            };
            if self.links[slot].peer != NO_PEER {
                return Err(NetsimError::PortInUse { device: dev, port });
            }
        }
        let latency_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let wire = profile.is_perfect().then(|| self.wire_class(latency_ns));
        for (from, from_port, to, to_port) in [(a, a_port, b, b_port), (b, b_port, a, a_port)] {
            let class = wire.unwrap_or_else(|| {
                // Each direction gets a stable key derived from its
                // sending endpoint — topology, not insertion order — so
                // impairment draws survive any change in how links
                // happen to be wired up.
                let key = ((from.0 as u64) << 16) | u64::from(from_port.0);
                let impairment = Some(ImpairedDirection { profile, key, sent: 0 });
                self.sched.classes.push(LinkClass { latency_ns, impairment });
                (self.sched.classes.len() - 1) as u32
            });
            let slot = self.devices[from.0].slot(from_port).expect("checked above");
            self.links[slot] = Slot { peer: to.0 as u32, class, peer_port: to_port };
        }
        Ok(())
    }

    /// The class of a perfect wire of `latency_ns`: the previous wire's
    /// when the latency matches, else the one the map holds, else a new
    /// one.
    fn wire_class(&mut self, latency_ns: u64) -> u32 {
        if let Some((_, class)) = self.last_wire.filter(|&(ns, _)| ns == latency_ns) {
            return class;
        }
        let classes = &mut self.sched.classes;
        let next = classes.len() as u32;
        let class = *self.wires.entry(latency_ns).or_insert(next);
        if class == next {
            classes.push(LinkClass { latency_ns, impairment: None });
        }
        self.last_wire = Some((latency_ns, class));
        class
    }

    /// Makes `tracer` the run's tracer: wire outcomes (loss, outage
    /// drops, duplication) and captured frames are recorded into it,
    /// and every device reads it through [`DeviceCtx::tracer`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.run_tracer = tracer;
    }

    /// The run's tracer (disabled unless [`set_tracer`](Self::set_tracer)
    /// was called).
    pub fn tracer(&self) -> &Tracer {
        &self.run_tracer
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Aggregate wire statistics.
    pub fn wire_stats(&self) -> WireStats {
        self.sched.stats
    }

    /// Pending events across the timing wheel's slots and ready batch —
    /// the `wheel.occupancy` gauge source. A queued fan-out counts once,
    /// however many copies it will deliver.
    pub fn queue_depth(&self) -> usize {
        self.sched.queue.len()
    }

    /// Immutable access to a device, for post-run inspection.
    pub fn device(&self, id: DeviceId) -> Option<&dyn Device> {
        self.devices.get(id.0).map(|d| d.device.as_ref())
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.devices.len() as u32 {
            self.dispatch(id, None, |device, ctx| device.on_start(ctx));
        }
    }

    /// Runs one callback of device `id`, lending it the scheduler, then
    /// writes what it lost.
    fn dispatch(
        &mut self,
        id: u32,
        incoming: Option<&Frame>,
        callback: impl FnOnce(&mut dyn Device, &mut DeviceCtx<'_>),
    ) {
        let entry = &mut self.devices[id as usize];
        let first = entry.first_link as usize;
        let links = &self.links[first..first + entry.ports as usize];
        let mut ctx = DeviceCtx::new(&mut self.sched, links, id, incoming, &self.run_tracer);
        callback(entry.device.as_mut(), &mut ctx);
        if !self.sched.lost.is_empty() {
            self.write_lost(id);
        }
    }

    /// Records the frames the callback of device `from` lost, in send
    /// order: each one's capture record and `wire.drop.*` event, which
    /// cites the doomed octets and, when the send happened inside a
    /// delivery, the frame that caused it.
    fn write_lost(&mut self, from: u32) {
        let (tracer, now) = (&self.run_tracer, self.sched.now.as_nanos());
        let name = |id: u32| self.devices[id as usize].device.name();
        for lost in self.sched.lost.drain(..) {
            let (category, kind) = if lost.link_down {
                ("wire.drop.link_down", FrameKind::DroppedLinkDown)
            } else {
                ("wire.drop.lost", FrameKind::DroppedLost)
            };
            tracer.count(category, 1);
            let cause = tracer.current_frame();
            let dropped = tracer.record_frame(now, kind, &lost.bytes, || {
                let (port, peer_port) = (lost.port.0, lost.peer_port.0);
                (format!("{}:{port}", name(from)), format!("{}:{peer_port}", name(lost.peer)))
            });
            tracer.event_frames(now, category, || {
                (
                    name(from).to_string(),
                    format!("port={} frame_index={}", lost.port.0, lost.index),
                    dropped.into_iter().chain(cause).collect(),
                )
            });
        }
    }

    /// The link slot behind `port` of `from`; a port past the device's
    /// count reads as unlinked.
    fn link(&self, from: DeviceId, port: PortId) -> Slot {
        self.devices[from.0].slot(port).map_or(Slot::UNLINKED, |slot| self.links[slot])
    }

    /// Dispatches the next event, every copy of it for a fan-out.
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        self.step_until(SimTime::MAX)
    }

    /// [`step`](Self::step) for an event due by `deadline`; `false` if none is.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        let Some((at, kind)) = self.sched.queue.pop_until(deadline) else {
            return false;
        };
        debug_assert!(at >= self.sched.now, "event queue went backwards");
        self.sched.now = at;
        match kind {
            EventKind::Deliver { dst, port, bytes, dup } => {
                let kind = if dup { FrameKind::DuplicateDelivered } else { FrameKind::Delivered };
                self.deliver(dst, port, &bytes, kind);
            }
            EventKind::Fanout { bytes, slot, last } => {
                let len = u32::from(last) + 1;
                for i in 0..len as usize {
                    let Target { dst, port } = self.sched.fanouts.target(slot, len, i);
                    self.deliver(dst, port, &bytes, FrameKind::Delivered);
                }
                self.sched.fanouts.release(slot, len);
            }
            EventKind::Timer { dst, token } => {
                let _s = profile::span("sim.timer");
                self.sched.stats.timers += 1;
                self.dispatch(dst, None, |device, ctx| device.on_timer(ctx, token));
            }
        }
        true
    }

    /// Hands one arriving copy of `bytes` to `port` of device `dst`.
    fn deliver(&mut self, dst: u32, port: PortId, bytes: &Frame, kind: FrameKind) {
        let _s = profile::span("sim.deliver");
        self.sched.stats.frames += 1;
        self.sched.stats.bytes += bytes.len() as u64;
        let now = self.sched.now.as_nanos();
        let frame_id = self.run_tracer.record_frame(now, kind, bytes, || {
            // The receiving port's slot names the sender.
            let from = self.link(DeviceId(dst as usize), port);
            let sender = self.devices[from.peer as usize].device.name();
            (
                format!("{sender}:{}", from.peer_port.0),
                format!("{}:{}", self.devices[dst as usize].device.name(), port.0),
            )
        });
        // While this frame is dispatched — including the sends it
        // triggers — every traced event cites it.
        self.run_tracer.set_current_frame(frame_id);
        self.dispatch(dst, Some(bytes), |device, ctx| device.on_frame(ctx, port, bytes));
        self.run_tracer.set_current_frame(None);
    }

    /// Runs until the queue drains or the clock reaches `deadline`,
    /// whichever comes first. Events scheduled beyond the deadline stay
    /// queued; the clock is advanced to exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while self.step_until(deadline) {}
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;
    use std::sync::Arc;

    use arpshield_trace::{install, RunSection, TraceCollector};

    use super::*;
    use crate::impair::FlapSchedule;

    /// Runs `sim` for one simulated second under an armed flight
    /// recorder; returns its wire stats and the run's trace section:
    /// its counters and every captured frame.
    fn captured(mut sim: Simulator) -> (WireStats, RunSection) {
        let collector = Arc::new(TraceCollector::with_capture(4096));
        {
            let _guard = install(Arc::clone(&collector));
            sim.set_tracer(Tracer::for_current_run("sim"));
        }
        sim.run_until(SimTime::from_secs(1));
        let stats = sim.wire_stats();
        drop(sim); // the last tracer handle flushes the run
        (stats, collector.manifest("sim").runs.remove(0))
    }

    /// The run's count of `name`; a counter never bumped reads 0.
    fn counter(run: &RunSection, name: &str) -> u64 {
        run.counters.get(name).copied().unwrap_or(0)
    }

    /// Echoes every received frame back out the same port after 1 ms, up to
    /// a bounce budget encoded in the first byte.
    struct Echo {
        received: Vec<(SimTime, Vec<u8>)>,
    }

    impl Echo {
        fn new() -> Self {
            Echo { received: Vec::new() }
        }
    }

    impl Device for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
            self.received.push((ctx.now(), frame.to_vec()));
            if frame[0] > 0 {
                let mut next = frame.to_vec();
                next[0] -= 1;
                ctx.send(port, next);
            }
        }
    }

    struct Kickoff {
        budget: u8,
    }

    impl Device for Kickoff {
        fn name(&self) -> &str {
            "kickoff"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send(PortId(0), vec![self.budget]);
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
            if frame[0] > 0 {
                let mut next = frame.to_vec();
                next[0] -= 1;
                ctx.send(port, next);
            }
        }
    }

    #[test]
    fn frames_bounce_with_latency() {
        let mut sim = Simulator::new(1);
        let k = sim.add_device(Box::new(Kickoff { budget: 4 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
        sim.run_until(SimTime::from_secs(1));
        // budget 4: k->e, e->k, k->e, e->k, k->e = frames at 1,2,3,4,5 ms.
        assert_eq!(sim.wire_stats().frames, 5);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn deadline_pauses_without_losing_events() {
        let mut sim = Simulator::new(1);
        let k = sim.add_device(Box::new(Kickoff { budget: 200 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(10)).unwrap();
        sim.run_until(SimTime::from_millis(35));
        let mid = sim.wire_stats().frames;
        assert_eq!(mid, 3);
        sim.run_until(SimTime::from_millis(75));
        assert_eq!(sim.wire_stats().frames, 7);
    }

    #[test]
    fn unconnected_port_drops_and_counts() {
        let mut sim = Simulator::new(1);
        let _ = sim.add_device(Box::new(Kickoff { budget: 1 }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.wire_stats().frames, 0);
        assert_eq!(sim.wire_stats().dropped_no_link, 1);
    }

    #[test]
    fn connect_validates_topology() {
        let mut sim = Simulator::new(1);
        let a = sim.add_device(Box::new(Echo::new()));
        let b = sim.add_device(Box::new(Echo::new()));
        assert_eq!(
            sim.connect(a, PortId(0), a, PortId(0), Duration::ZERO),
            Err(NetsimError::SelfLink(a))
        );
        assert!(matches!(
            sim.connect(a, PortId(1), b, PortId(0), Duration::ZERO),
            Err(NetsimError::BadPort { .. })
        ));
        assert!(matches!(
            sim.connect(DeviceId(9), PortId(0), b, PortId(0), Duration::ZERO),
            Err(NetsimError::UnknownDevice(DeviceId(9)))
        ));
        sim.connect(a, PortId(0), b, PortId(0), Duration::ZERO).unwrap();
        let c = sim.add_device(Box::new(Echo::new()));
        assert!(matches!(
            sim.connect(a, PortId(0), c, PortId(0), Duration::ZERO),
            Err(NetsimError::PortInUse { .. })
        ));
    }

    /// Sends `left` frames filled with its name's first byte out of
    /// `port`, one every 2 ms; receives silently.
    struct Talker {
        name: &'static str,
        ports: usize,
        port: PortId,
        left: u32,
    }

    impl Device for Talker {
        fn name(&self) -> &str {
            self.name
        }
        fn port_count(&self) -> usize {
            self.ports
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.schedule_in(Duration::ZERO, 0);
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _: u64) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(self.port, vec![self.name.as_bytes()[0]; 60]);
                ctx.schedule_in(Duration::from_millis(2), 0);
            }
        }
    }

    /// Every frame captured on an impaired link names its real sender
    /// and receiver, whatever its fate: a delivery reads the sender from
    /// the receiving port's link slot, a drop from the sending one.
    #[test]
    fn capture_names_both_ends_of_every_frame_on_an_impaired_link() {
        let mut sim = Simulator::new(3);
        let talker = |name, ports, port| Talker { name, ports, port: PortId(port), left: 150 };
        let left = sim.add_device(Box::new(talker("left", 2, 1)));
        let right = sim.add_device(Box::new(talker("right", 1, 0)));
        let profile = LinkProfile::lossy(0.2).with_dup(0.3).with_flap(FlapSchedule {
            offset: Duration::from_millis(50),
            down_for: Duration::from_millis(30),
            period: Duration::from_millis(100),
        });
        sim.connect_impaired(left, PortId(1), right, PortId(0), Duration::from_millis(1), profile)
            .unwrap();
        let (stats, run) = captured(sim);
        let frames = &run.frames;

        let mut seen = BTreeSet::new();
        for frame in frames {
            let ends = match frame.bytes[0] {
                b'l' => ("left:1", "right:0"),
                _ => ("right:0", "left:1"),
            };
            assert_eq!((frame.src.as_str(), frame.dst.as_str()), ends, "{frame:?}");
            seen.insert((frame.bytes[0], frame.kind));
        }
        for talker in [b'l', b'r'] {
            for kind in [
                FrameKind::Delivered,
                FrameKind::DuplicateDelivered,
                FrameKind::DroppedLost,
                FrameKind::DroppedLinkDown,
            ] {
                assert!(seen.contains(&(talker, kind)), "no {kind:?} from {}", talker as char);
            }
        }
        let count = |kind| frames.iter().filter(|f| f.kind == kind).count() as u64;
        assert_eq!(
            count(FrameKind::Delivered) + count(FrameKind::DuplicateDelivered),
            stats.frames
        );
        assert_eq!(count(FrameKind::DuplicateDelivered), counter(&run, "wire.duplicated"));
        assert_eq!(count(FrameKind::DroppedLost), counter(&run, "wire.drop.lost"));
        assert_eq!(count(FrameKind::DroppedLinkDown), counter(&run, "wire.drop.link_down"));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let k = sim.add_device(Box::new(Kickoff { budget: 50 }));
            let e = sim.add_device(Box::new(Echo::new()));
            sim.connect(k, PortId(0), e, PortId(0), Duration::from_micros(137)).unwrap();
            sim.run_until(SimTime::from_secs(1));
            (sim.wire_stats(), sim.now())
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn lossy_link_drops_and_counts() {
        let run = |loss: f64| {
            let mut sim = Simulator::new(7);
            sim.set_default_impairment(LinkProfile::lossy(loss));
            let k = sim.add_device(Box::new(Kickoff { budget: 200 }));
            let e = sim.add_device(Box::new(Echo::new()));
            sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
            captured(sim)
        };
        let (perfect, perfect_run) = run(0.0);
        assert_eq!(counter(&perfect_run, "wire.drop.lost"), 0);
        let (lossy, lossy_run) = run(0.5);
        assert!(counter(&lossy_run, "wire.drop.lost") >= 1, "a 50% link must lose something");
        // Each bounce needs the previous delivery, so losses shorten the
        // chain: strictly fewer frames than the perfect wire.
        assert!(lossy.frames < perfect.frames);
    }

    #[test]
    fn duplicating_link_delivers_copies() {
        let mut sim = Simulator::new(7);
        sim.set_default_impairment(LinkProfile::PERFECT.with_dup(1.0));
        let k = sim.add_device(Box::new(Kickoff { budget: 0 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
        let (stats, run) = captured(sim);
        assert_eq!(counter(&run, "wire.duplicated"), 1);
        assert_eq!(stats.frames, 2, "one send, two deliveries");
    }

    #[test]
    fn flapping_link_goes_dark_on_schedule() {
        let mut sim = Simulator::new(7);
        sim.set_default_impairment(LinkProfile::PERFECT.with_flap(FlapSchedule {
            offset: Duration::from_millis(50),
            down_for: Duration::from_millis(1000),
            period: Duration::from_millis(2000),
        }));
        let k = sim.add_device(Box::new(Kickoff { budget: 200 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(10)).unwrap();
        // The bounce chain dies at the first outage and nothing restarts it.
        let (stats, run) = captured(sim);
        assert_eq!(counter(&run, "wire.drop.link_down"), 1);
        assert!(stats.frames <= 6, "chain must stop at the 50 ms outage");
    }

    #[test]
    fn jitter_delays_but_never_reorders_a_single_flow_run() {
        let mut sim = Simulator::new(7);
        sim.set_default_impairment(LinkProfile::PERFECT.with_jitter(Duration::from_micros(500)));
        let k = sim.add_device(Box::new(Kickoff { budget: 20 }));
        let e = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), e, PortId(0), Duration::from_millis(1)).unwrap();
        // All 21 frames still get through; they just take longer.
        let (stats, run) = captured(sim);
        assert_eq!(stats.frames, 21);
        assert_eq!(counter(&run, "wire.drop.lost"), 0);
    }

    /// The crux of the determinism contract: a profile whose draws can
    /// never fire (loss 0, dup 0, jitter 0, flap that never goes down)
    /// exercises the impaired delivery path yet must replay the exact
    /// event schedule of an untouched wire.
    #[test]
    fn inert_profile_is_byte_identical_to_perfect_wire() {
        let run = |profile: Option<LinkProfile>| {
            let mut sim = Simulator::new(99);
            if let Some(p) = profile {
                sim.set_default_impairment(p);
            }
            let k = sim.add_device(Box::new(Kickoff { budget: 50 }));
            let e = sim.add_device(Box::new(Echo::new()));
            sim.connect(k, PortId(0), e, PortId(0), Duration::from_micros(137)).unwrap();
            let (stats, run) = captured(sim);
            let schedule: Vec<(u64, FrameKind, String, Vec<u8>)> =
                run.frames.into_iter().map(|f| (f.at_ns, f.kind, f.src, f.bytes)).collect();
            (stats, schedule)
        };
        let inert = LinkProfile::PERFECT.with_flap(FlapSchedule {
            offset: Duration::from_secs(3600),
            down_for: Duration::from_secs(1),
            period: Duration::from_secs(7200),
        });
        assert!(!inert.is_perfect(), "must exercise the impaired path");
        assert_eq!(run(None), run(Some(inert)));
    }

    /// Latency and impairment live in the slot's class, so a slot holds
    /// only its peer, its class and its peer's port.
    #[test]
    fn a_link_slot_fits_in_12_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 12, "{} bytes", std::mem::size_of::<Slot>());
    }

    /// A device's entry holds its box and its run of link slots, so a
    /// send needs no second array.
    #[test]
    fn a_device_entry_fits_in_24_bytes() {
        let size = std::mem::size_of::<DeviceEntry>();
        assert!(size <= 24, "{size} bytes");
    }

    /// A topology added after a matching `reserve` leaves no slack in
    /// the device or link tables, and a port past a device's count,
    /// whose slot index belongs to the next device or lies past the
    /// table's end, reads as unlinked. Links of one latency share a
    /// class, and another latency opens a second.
    #[test]
    fn a_reserved_topology_fills_its_tables_exactly() {
        let mut sim = Simulator::new(1);
        sim.reserve(4, 9);
        let hub = sim.add_device(Box::new(crate::Hub::new("hub", 6)));
        let k = sim.add_device(Box::new(Kickoff { budget: 0 }));
        let e = sim.add_device(Box::new(Echo::new()));
        let f = sim.add_device(Box::new(Echo::new()));
        sim.connect(k, PortId(0), hub, PortId(0), Duration::from_micros(1)).unwrap();
        sim.connect(e, PortId(0), hub, PortId(1), Duration::from_micros(1)).unwrap();
        assert_eq!(sim.sched.classes.len(), 1, "the two 1 µs links share one class");
        sim.connect(f, PortId(0), hub, PortId(2), Duration::from_micros(3)).unwrap();
        assert_eq!(sim.sched.classes.len(), 2, "a 3 µs link gets a second class");
        let class = |device, port| sim.link(device, PortId(port)).class;
        assert_eq!([class(k, 0), class(hub, 0), class(e, 0), class(hub, 1)], [0; 4]);
        assert_eq!([class(f, 0), class(hub, 2)], [1; 2]);
        assert_eq!((sim.devices.len(), sim.devices.capacity()), (4, 4));
        assert_eq!((sim.links.len(), sim.links.capacity()), (9, 9));
        assert_eq!(sim.link(hub, PortId(0)).peer, k.0 as u32);
        for (device, port) in [(hub, PortId(6)), (k, PortId(1)), (f, PortId(1)), (f, PortId(9))] {
            assert_eq!(sim.link(device, port).peer, NO_PEER, "{device:?} {port:?}");
        }
    }

    /// A queued delivery carries no sender facts (the link slot holds
    /// them), and device ids and fan-out lengths take 32 and 16 bits,
    /// which keeps every pending event, and the `Option` a wheel node
    /// holds it in, at 16 bytes.
    #[test]
    fn a_queued_event_fits_in_16_bytes() {
        let size = std::mem::size_of::<Option<EventKind>>();
        assert!(size <= 16, "{size} bytes");
    }

    /// Sends `count` numbered frames at start and logs which arrive.
    struct Burst {
        count: u8,
        got: Rc<RefCell<Vec<u8>>>,
    }

    impl Device for Burst {
        fn name(&self) -> &str {
            "burst"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            for i in 0..self.count {
                ctx.send(PortId(0), vec![i; 60]);
            }
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
            self.got.borrow_mut().push(frame[0]);
        }
    }

    /// Perfect and lossy links of one latency wired in alternation, each
    /// lossy link with its own loss rate: every lossy direction must
    /// drop exactly what it drops when it is the only link wired, and
    /// what its own key and counter draw, so the class each slot holds
    /// names its own direction's profile, key and frame counter.
    #[test]
    fn interleaved_lossy_links_drop_as_they_do_alone() {
        const PAIRS: usize = 8;
        let profile = |pair: usize| (pair % 2 == 1).then(|| LinkProfile::lossy(pair as f64 / 10.0));
        // Pair `p` joins devices 2p and 2p+1; `only` wires one pair and
        // leaves the rest unconnected, so device ids and keys match.
        let run = |only: Option<usize>| {
            let mut sim = Simulator::new(5);
            let logs: Vec<_> = (0..2 * PAIRS)
                .map(|_| {
                    let got = Rc::new(RefCell::new(Vec::new()));
                    sim.add_device(Box::new(Burst { count: 64, got: Rc::clone(&got) }));
                    got
                })
                .collect();
            for pair in (0..PAIRS).filter(|&p| only.is_none_or(|o| o == p)) {
                let (a, b) = (DeviceId(2 * pair), DeviceId(2 * pair + 1));
                let latency = Duration::from_micros(10);
                match profile(pair) {
                    Some(p) => sim.connect_impaired(a, PortId(0), b, PortId(0), latency, p),
                    None => sim.connect(a, PortId(0), b, PortId(0), latency),
                }
                .unwrap();
            }
            sim.run_until(SimTime::from_secs(1));
            logs.iter().map(|got| got.borrow().clone()).collect::<Vec<_>>()
        };
        let together = run(None);
        for pair in 0..PAIRS {
            let ends = [2 * pair, 2 * pair + 1];
            if profile(pair).is_none() {
                assert!(ends.iter().all(|&d| together[d].len() == 64), "perfect pair {pair}");
                continue;
            }
            let alone = run(Some(pair));
            for (sender, d) in [(ends[1], ends[0]), (ends[0], ends[1])] {
                assert!(together[d].len() < 64, "pair {pair} must lose frames");
                assert_eq!(together[d], alone[d], "pair {pair}, device {d}");
                // And what arrives is what the sender's own key and
                // frame counter decide (all 64 sends happen at t = 0).
                let (seed, key) = (5 ^ IMPAIR_SEED_SALT, (sender as u64) << 16);
                let kept: Vec<u8> = (0..64u8)
                    .filter(|&i| {
                        !impair::fate(&profile(pair).unwrap(), seed, key, i.into(), SimTime::ZERO)
                            .lost
                    })
                    .collect();
                assert_eq!(together[d], kept, "pair {pair}, device {d}");
            }
        }
    }

    /// A flood queues one event per run of copies with one arrival
    /// time: latencies 1, 1, 2, 1, 1 µs behind ports 1–5 make the runs
    /// {1, 2}, {3} and {4, 5}.
    #[test]
    fn a_flood_queues_one_event_per_arrival_run() {
        let mut sim = Simulator::new(1);
        let hub = sim.add_device(Box::new(crate::Hub::new("hub", 6)));
        let kickoff = sim.add_device(Box::new(Kickoff { budget: 0 }));
        sim.connect(kickoff, PortId(0), hub, PortId(0), Duration::from_micros(1)).unwrap();
        for (p, us) in [1, 1, 2, 1, 1].into_iter().enumerate() {
            let echo = sim.add_device(Box::new(Echo::new()));
            let port = PortId(p as u16 + 1);
            sim.connect(echo, PortId(0), hub, port, Duration::from_micros(us)).unwrap();
        }
        assert!(sim.step(), "the hub receives the kickoff frame");
        assert_eq!(sim.queue_depth(), 3);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.wire_stats().frames, 6, "one frame in, five copies out");
    }

    /// Floods `copies` copies out of port 1, all to the one peer there.
    struct Flooder {
        copies: usize,
    }

    impl Device for Flooder {
        fn name(&self) -> &str {
            "flooder"
        }
        fn port_count(&self) -> usize {
            2
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            let egress = Egress { port: PortId(1), tagged: false };
            let frame = Frame::from(&[0u8; 60][..]);
            ctx.flood(std::iter::repeat_n(egress, self.copies), PortId(0), [frame.clone(), frame]);
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
    }

    /// A fan-out event names its last target in 16 bits: a run of
    /// 65,536 copies is one event, and one more copy queues a second
    /// that dispatches right after it.
    #[test]
    fn a_run_past_16_bits_of_targets_splits_into_fanouts() {
        for (copies, events) in [(MAX_FANOUT, 1), (MAX_FANOUT + 1, 2)] {
            let mut sim = Simulator::new(1);
            let flooder = sim.add_device(Box::new(Flooder { copies }));
            let sink = sim.add_device(Box::new(Talker {
                name: "sink",
                ports: 1,
                port: PortId(0),
                left: 0,
            }));
            sim.connect(flooder, PortId(1), sink, PortId(0), Duration::from_micros(1)).unwrap();
            sim.run_until(SimTime::ZERO);
            assert_eq!(sim.queue_depth(), events, "{copies} copies");
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(sim.wire_stats().frames, copies as u64);
        }
        assert_eq!(MAX_FANOUT, 65_536);
    }

    #[test]
    fn the_fanout_arena_reuses_spent_slots_by_size_class() {
        let targets =
            |n: u32| (0..n).map(|dst| Target { dst, port: PortId(0) }).collect::<Vec<_>>();
        let mut arena = FanoutArena::new();
        let (a, b) = (arena.store(&targets(3)), arena.store(&targets(4)));
        assert_eq!((a, b), (0, 1), "3 and 4 targets share the 4-target class");
        assert_eq!(arena.store(&targets(5)), 0, "5 targets open the 8-target class");
        arena.release(a, 3);
        let c = arena.store(&targets(4));
        assert_eq!(c, a, "a spent slot is reused before the slab grows");
        assert_eq!(arena.slabs[2].len(), 8);
        assert_eq!((0..4).map(|i| arena.target(c, 4, i).dst).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    /// What the devices of the one-instant rig log: the time, the
    /// logging device, and the two bytes that name a frame or timer.
    type Log = Rc<RefCell<Vec<(u64, &'static str, u8, u8)>>>;

    /// Logs every frame it receives.
    struct Sink {
        name: &'static str,
        log: Log,
    }

    impl Device for Sink {
        fn name(&self) -> &str {
            self.name
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
            let entry = (ctx.now().as_nanos(), self.name, frame[0], frame[1]);
            self.log.borrow_mut().push(entry);
        }
    }

    /// On the frame it receives, does in one callback everything a
    /// callback can: four sends over the lossy duplicating link behind
    /// port 1, a trace event of its own, a send over the perfect link
    /// behind port 2, a flood over all seven ports (two of them lossy,
    /// port 3 tagged, port 6 unlinked) and a timer.
    struct Mixer {
        log: Log,
    }

    impl Device for Mixer {
        fn name(&self) -> &str {
            "mixer"
        }
        fn port_count(&self) -> usize {
            7
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, _: &[u8]) {
            for i in 0..4 {
                ctx.send(PortId(1), vec![b'a', i]);
            }
            let at = ctx.now().as_nanos();
            ctx.tracer().event(at, "mixer.mark", || ("mixer".into(), "after the sends".into()));
            ctx.send(PortId(2), vec![b'b', 0]);
            let egress = (0..7).map(|p| Egress { port: PortId(p), tagged: p == 3 });
            let forms = [Frame::from(&[b'f', 0][..]), Frame::from(&[b'f', 1][..])];
            ctx.flood(egress, port, forms);
            ctx.schedule_in(Duration::from_micros(1), 9);
        }
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
            self.log.borrow_mut().push((ctx.now().as_nanos(), "mixer", b't', token as u8));
        }
    }

    /// A callback that mixes lossy, perfect and unlinked egress at one
    /// instant under an armed capture: the deliveries keep the order in
    /// which the callback sent them, a lost frame's capture record and
    /// `wire.drop.lost` event follow the device's own event, and every
    /// frame id stays where it is.
    #[test]
    fn one_callback_mixing_links_keeps_its_send_order() {
        let log = Log::default();
        let mut sim = Simulator::new(7);
        let kick = sim.add_device(Box::new(Kickoff { budget: 0 }));
        let mixer = sim.add_device(Box::new(Mixer { log: Rc::clone(&log) }));
        let lossy = LinkProfile::lossy(0.4).with_dup(0.5);
        let us = Duration::from_micros;
        sim.connect(kick, PortId(0), mixer, PortId(0), us(1)).unwrap();
        for (port, name, latency, profile) in [
            (1, "lossy", us(2), lossy),
            (2, "plain", us(3), LinkProfile::PERFECT),
            (3, "tagged", us(1), LinkProfile::PERFECT),
            (4, "lossy2", us(1), lossy),
            (5, "near", us(1), LinkProfile::PERFECT),
        ] {
            let sink = sim.add_device(Box::new(Sink { name, log: Rc::clone(&log) }));
            sim.connect_impaired(mixer, PortId(port), sink, PortId(0), latency, profile).unwrap();
        }
        let (stats, run) = captured(sim);
        let at = |us: u64| us * 1_000;
        assert_eq!(
            *log.borrow(),
            [
                (at(2), "tagged", b'f', 1),
                (at(2), "near", b'f', 0),
                (at(2), "mixer", b't', 9),
                (at(3), "lossy", b'a', 1),
                (at(3), "lossy", b'a', 2),
                (at(3), "lossy", b'f', 0),
                (at(4), "plain", b'b', 0),
                (at(4), "plain", b'f', 0),
                (at(5), "lossy", b'a', 2),
            ]
        );
        assert_eq!((stats.frames, stats.dropped_no_link, stats.timers), (9, 1, 1));
        assert_eq!([counter(&run, "wire.drop.lost"), counter(&run, "wire.duplicated")], [3, 1]);
        let doc = arpshield_trace::json::parse(&run.body).expect("a run body is JSON");
        let events: Vec<_> = doc
            .get("events")
            .and_then(|v| v.as_arr())
            .expect("an event list")
            .iter()
            .map(|e| {
                let text = |key| e.get(key).and_then(|v| v.as_str()).unwrap_or_default();
                let cited = e.get("frames").and_then(|v| v.as_arr()).unwrap_or_default();
                let cited: Vec<u64> =
                    cited.iter().filter_map(|v| v.as_num()).map(|n| n as u64).collect();
                (text("category").to_string(), text("detail").to_string(), cited)
            })
            .collect();
        let event = |category: &str, detail: &str, cited: &[u64]| {
            (category.to_string(), detail.to_string(), cited.to_vec())
        };
        assert_eq!(
            events,
            [
                event("mixer.mark", "after the sends", &[1]),
                event("wire.drop.lost", "port=1 frame_index=0", &[2, 1]),
                event("wire.drop.lost", "port=1 frame_index=3", &[3, 1]),
                event("wire.drop.lost", "port=4 frame_index=0", &[4, 1]),
            ]
        );
        let frames: Vec<_> = run
            .frames
            .iter()
            .map(|f| format!("{} {:?} {} {} {:?}", f.id, f.kind, f.src, f.dst, f.bytes))
            .collect();
        assert_eq!(
            frames,
            [
                "1 Delivered kickoff:0 mixer:0 [0]",
                "2 DroppedLost mixer:1 lossy:0 [97, 0]",
                "3 DroppedLost mixer:1 lossy:0 [97, 3]",
                "4 DroppedLost mixer:4 lossy2:0 [102, 0]",
                "5 Delivered mixer:3 tagged:0 [102, 1]",
                "6 Delivered mixer:5 near:0 [102, 0]",
                "7 Delivered mixer:1 lossy:0 [97, 1]",
                "8 Delivered mixer:1 lossy:0 [97, 2]",
                "9 Delivered mixer:1 lossy:0 [102, 0]",
                "10 Delivered mixer:2 plain:0 [98, 0]",
                "11 Delivered mixer:2 plain:0 [102, 0]",
                "12 DuplicateDelivered mixer:1 lossy:0 [97, 2]",
            ]
        );
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerDev {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Device for TimerDev {
            fn name(&self) -> &str {
                "timers"
            }
            fn port_count(&self) -> usize {
                0
            }
            fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
                // A timer set "never" waits at the end of the clock.
                ctx.schedule_in(Duration::MAX, 99);
                ctx.schedule_in(Duration::from_millis(30), 3);
                ctx.schedule_in(Duration::from_millis(10), 1);
                ctx.schedule_in(Duration::from_millis(20), 2);
                // Equal timestamps dispatch in insertion order.
                ctx.schedule_in(Duration::from_millis(10), 10);
            }
            fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
            fn on_timer(&mut self, _: &mut DeviceCtx<'_>, token: u64) {
                self.fired.borrow_mut().push(token);
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_device(Box::new(TimerDev { fired: Rc::clone(&fired) }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*fired.borrow(), [1, 10, 2, 3]);
        assert_eq!(sim.queue_depth(), 1);
        sim.run_until(SimTime::MAX);
        assert_eq!(*fired.borrow(), [1, 10, 2, 3, 99]);
        assert_eq!((sim.wire_stats().timers, sim.now()), (5, SimTime::MAX));
    }

    #[test]
    fn a_frame_sent_at_the_end_of_the_clock_arrives_there() {
        /// Sends one frame when its "never" timer fires.
        struct LastWord;
        impl Device for LastWord {
            fn name(&self) -> &str {
                "last-word"
            }
            fn port_count(&self) -> usize {
                1
            }
            fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
                ctx.schedule_in(Duration::MAX, 0);
            }
            fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _: u64) {
                ctx.send(PortId(0), vec![0]);
            }
        }
        for (profile, copies) in
            [(LinkProfile::PERFECT, 1), (LinkProfile::PERFECT.with_dup(1.0), 2)]
        {
            let mut sim = Simulator::new(1);
            let sender = sim.add_device(Box::new(LastWord));
            let echo = sim.add_device(Box::new(Echo::new()));
            let latency = Duration::from_micros(5);
            sim.connect_impaired(sender, PortId(0), echo, PortId(0), latency, profile).unwrap();
            let collector = Arc::new(TraceCollector::new());
            {
                let _guard = install(Arc::clone(&collector));
                sim.set_tracer(Tracer::for_current_run("sim"));
            }
            sim.run_until(SimTime::MAX);
            assert_eq!(sim.now(), SimTime::MAX);
            let frames = sim.wire_stats().frames;
            drop(sim);
            let run = collector.manifest("sim").runs.remove(0);
            let duplicated = counter(&run, "wire.duplicated");
            assert_eq!((frames, duplicated), (copies, copies - 1), "{profile:?}");
        }
    }
}
