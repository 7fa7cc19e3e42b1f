//! A learning Ethernet switch with a bounded CAM table, aging, fail-open
//! behaviour, port security, port mirroring, and a pluggable frame
//! inspector (the hook the DAI scheme uses).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_packet::{
    EthernetView, EthernetViewMut, MacAddr, ETHERNET_HEADER_LEN, ETHERNET_MIN_PAYLOAD,
    ETHERNET_VLAN_TAG_LEN,
};
use arpshield_trace::profile;

use crate::device::{Device, DeviceCtx, Egress, PortId};
use crate::frame::Frame;
use crate::hash::{FastMap, FastSet};
use crate::time::SimTime;

/// An 802.1Q VLAN identifier (12 significant bits).
///
/// VID 0 is the "untagged" domain: a VLAN-unaware switch classifies every
/// frame into it, which keeps the legacy single-domain behaviour and the
/// VLAN-aware code on one path.
pub type VlanId = u16;

/// The set of VLANs a trunk port carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VlanSet {
    /// Carries every VLAN (an uplink toward the core).
    All,
    /// Carries only the listed VIDs (typically one per leaf uplink).
    Only(Vec<VlanId>),
}

impl VlanSet {
    /// True when `vid` is carried by this set.
    pub fn contains(&self, vid: VlanId) -> bool {
        match self {
            VlanSet::All => true,
            VlanSet::Only(vids) => vids.contains(&vid),
        }
    }
}

/// Per-port VLAN mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortVlan {
    /// Untagged member of exactly one VLAN: ingress frames must arrive
    /// untagged and are classified into the PVID; egress frames leave
    /// untagged. Tagged arrivals are dropped (and counted).
    Access {
        /// The port VLAN id frames are classified into.
        pvid: VlanId,
    },
    /// Tagged member of every VID in `allowed`: ingress classification
    /// comes from the outermost tag and the tag stack passes through
    /// intact (QinQ included). Untagged or non-member arrivals are
    /// dropped (and counted).
    Trunk {
        /// VIDs carried on this trunk.
        allowed: VlanSet,
    },
}

/// A port's VLAN mode as a switch keeps it: [`PortVlan`] in 4 bytes,
/// with each trunk's VID set held once in [`VlanTable::trunks`].
#[derive(Debug, Clone, Copy)]
enum PortMode {
    Access(VlanId),
    /// Index into [`VlanTable::trunks`].
    Trunk(u16),
}

/// A switch's per-port VLAN modes, built once from
/// [`SwitchConfig::vlans`], so classifying a frame or listing a flood
/// domain reads 4 bytes per port.
#[derive(Debug)]
struct VlanTable {
    modes: Box<[PortMode]>,
    trunks: Vec<VlanSet>,
}

impl VlanTable {
    fn new(ports: Vec<PortVlan>) -> Self {
        let mut trunks = Vec::new();
        let modes = ports
            .into_iter()
            .map(|mode| match mode {
                PortVlan::Access { pvid } => PortMode::Access(pvid),
                PortVlan::Trunk { allowed } => {
                    let trunk = u16::try_from(trunks.len()).expect("at most 65,536 ports");
                    trunks.push(allowed);
                    PortMode::Trunk(trunk)
                }
            })
            .collect();
        VlanTable { modes, trunks }
    }
}

/// Whether `vid` may egress through `port` of a switch with `vlans`:
/// `Some(tagged)` when the port is a member (`tagged` selects the egress
/// encapsulation), `None` when the port is outside the VLAN's flood
/// domain. Every port of a VLAN-unaware switch egresses untagged.
fn egress_mode(vlans: Option<&VlanTable>, port: PortId, vid: VlanId) -> Option<bool> {
    let Some(vlans) = vlans else { return Some(false) };
    match vlans.modes[usize::from(port.0)] {
        PortMode::Access(pvid) => (pvid == vid).then_some(false),
        PortMode::Trunk(trunk) => vlans.trunks[usize::from(trunk)].contains(vid).then_some(true),
    }
}

/// One CAM-table binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamEntry {
    /// Port the address was learned on.
    pub port: PortId,
    /// Time of the most recent frame from this address.
    pub last_seen: SimTime,
}

/// The switch's MAC-address table.
///
/// Capacity-bounded with inactivity aging — exactly the properties MAC
/// flooding exploits. Entries are keyed by `(VLAN, MAC)`, so the same
/// address on two VLANs holds two independent bindings: it neither flaps
/// between ports nor leaks across broadcast domains. The VLAN-unaware
/// [`learn`](CamTable::learn)/[`lookup`](CamTable::lookup) pair operates on
/// VID 0, matching a switch with no VLAN configuration.
#[derive(Debug, Clone)]
pub struct CamTable {
    entries: FastMap<(VlanId, MacAddr), CamEntry>,
    capacity: usize,
    aging: Duration,
    /// A lower bound on every entry's `last_seen`. While `now` is within
    /// `aging` of it no entry can be stale, so [`sweep`](CamTable::sweep)
    /// answers 0 without walking the table — the check every learn into
    /// a full table makes.
    floor: SimTime,
}

/// Result of a learning attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnOutcome {
    /// Newly learned.
    Learned,
    /// Already present on the same port; timestamp refreshed.
    Refreshed,
    /// Present but on a different port; moved (station relocation or
    /// spoofing).
    Moved {
        /// Port the address was previously bound to.
        from: PortId,
    },
    /// Table at capacity; not learned.
    Full,
}

impl CamTable {
    /// Creates a table with the given capacity and aging interval.
    pub fn new(capacity: usize, aging: Duration) -> Self {
        CamTable { entries: FastMap::default(), capacity, aging, floor: SimTime::MAX }
    }

    /// Attempts to learn or refresh `mac` on `port` at time `now`, in the
    /// untagged (VID 0) domain.
    pub fn learn(&mut self, now: SimTime, mac: MacAddr, port: PortId) -> LearnOutcome {
        self.learn_vlan(now, 0, mac, port)
    }

    /// Attempts to learn or refresh `mac` on `port` within VLAN `vid`.
    pub fn learn_vlan(
        &mut self,
        now: SimTime,
        vid: VlanId,
        mac: MacAddr,
        port: PortId,
    ) -> LearnOutcome {
        self.floor = self.floor.min(now);
        if let Some(entry) = self.entries.get_mut(&(vid, mac)) {
            entry.last_seen = now;
            if entry.port == port {
                return LearnOutcome::Refreshed;
            }
            let from = entry.port;
            entry.port = port;
            return LearnOutcome::Moved { from };
        }
        if self.entries.len() >= self.capacity {
            // A table full of *stale* entries must not lock out fresh
            // learning between sweep ticks: age out inline before
            // declaring the table full.
            self.sweep(now);
        }
        if self.entries.len() >= self.capacity {
            return LearnOutcome::Full;
        }
        self.entries.insert((vid, mac), CamEntry { port, last_seen: now });
        LearnOutcome::Learned
    }

    /// Looks up the egress port for `mac` in the untagged (VID 0) domain.
    pub fn lookup(&self, mac: MacAddr) -> Option<PortId> {
        self.lookup_vlan(0, mac)
    }

    /// Looks up the egress port for `mac` within VLAN `vid`.
    pub fn lookup_vlan(&self, vid: VlanId, mac: MacAddr) -> Option<PortId> {
        self.entries.get(&(vid, mac)).map(|e| e.port)
    }

    /// Evicts entries idle longer than the aging interval; returns how many
    /// were removed.
    ///
    /// Walks the table only when the floor says an entry may be stale,
    /// and then tightens the floor to the oldest survivor (or to `now`
    /// once the table is empty).
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let aging = self.aging;
        if now.saturating_since(self.floor) < aging {
            return 0;
        }
        let before = self.entries.len();
        let mut oldest = now;
        self.entries.retain(|_, e| {
            let fresh = now.saturating_since(e.last_seen) < aging;
            if fresh {
                oldest = oldest.min(e.last_seen);
            }
            fresh
        });
        self.floor = oldest;
        before - self.entries.len()
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when no more addresses can be learned.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Iterates over live `((vlan, mac), entry)` bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&(VlanId, MacAddr), &CamEntry)> {
        self.entries.iter()
    }
}

/// Behaviour when the CAM table is full and an unknown source appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailMode {
    /// The classic (insecure) behaviour: the frame is still forwarded, and
    /// since its source cannot be learned the *reverse* traffic floods to
    /// every port — the hub-like degradation MAC flooding aims for.
    #[default]
    FloodOpen,
    /// The defensive behaviour: frames from unlearnable sources are dropped.
    DropNew,
}

/// Per-port limit on learned addresses, modelling Cisco-style
/// `port security`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSecurityConfig {
    /// Maximum distinct source addresses allowed per access port.
    pub max_macs_per_port: usize,
    /// What to do when a port exceeds its limit.
    pub violation: ViolationAction,
}

/// Action taken on a port-security violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationAction {
    /// Drop the offending frame, keep the port up (restrict mode).
    DropFrame,
    /// Err-disable the port: all subsequent traffic on it is dropped.
    ShutdownPort,
}

/// Verdict returned by a [`FrameInspector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InspectVerdict {
    /// Forward normally.
    Permit,
    /// Drop the frame; `reason` is recorded in the `switch.drop.inspector`
    /// trace event.
    Deny {
        /// Human-readable drop reason, one of the inspector's fixed
        /// strings, so a denial allocates nothing.
        reason: &'static str,
    },
}

/// A pluggable ingress filter, invoked on every frame before learning and
/// forwarding. Dynamic ARP Inspection is implemented as one of these in
/// `arpshield-schemes`.
///
/// The frame arrives as a borrowed [`EthernetView`] over the wire bytes:
/// inspection sits on the switch's per-frame fast path, where an owned
/// parse would cost an allocation per ingress frame.
pub trait FrameInspector {
    /// Inspects a frame arriving on `ingress`, already classified into
    /// `vlan` (0 on a VLAN-unaware switch); returning
    /// [`InspectVerdict::Deny`] drops it.
    ///
    /// The classified VID — not the raw tag — is passed so schemes can
    /// scope their state per broadcast domain: a DAI binding snooped on
    /// VLAN A must not validate ARP on VLAN B.
    fn inspect(
        &mut self,
        now: SimTime,
        ingress: PortId,
        vlan: VlanId,
        frame: &EthernetView<'_>,
    ) -> InspectVerdict;
}

/// Counters exposed by a running switch.
#[derive(Debug, Default, Clone)]
pub struct SwitchStats {
    /// Frames forwarded to exactly one known port.
    pub forwarded: u64,
    /// Frames flooded to all ports (broadcast/multicast/unknown dst).
    pub flooded: u64,
    /// Frames dropped by the inspector.
    pub dropped_inspector: u64,
    /// Frames dropped by VLAN ingress rules (tagged arrival on an access
    /// port, untagged or non-member VID on a trunk).
    pub dropped_vlan: u64,
    /// Times a learn attempt found the table full.
    pub cam_full_events: u64,
    /// Ports currently err-disabled by port security.
    pub shutdown_ports: FastSet<PortId>,
}

/// Shared inspection handle into a live switch.
///
/// The simulator owns devices as `Box<dyn Device>`; the handle gives
/// experiments read access to the CAM table and counters without
/// downcasting. The simulation is single-threaded, so `Rc<RefCell>` is the
/// right tool.
#[derive(Debug, Clone)]
pub struct SwitchHandle {
    /// The live CAM table.
    pub cam: Rc<RefCell<CamTable>>,
    /// Live counters.
    pub stats: Rc<RefCell<SwitchStats>>,
}

/// Switch construction parameters.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Number of ports.
    pub ports: usize,
    /// CAM capacity (the MikroTik hAP lite class of device holds 1024).
    pub cam_capacity: usize,
    /// CAM inactivity aging.
    pub cam_aging: Duration,
    /// Full-table behaviour.
    pub fail_mode: FailMode,
    /// Copy every ingress frame to this port (SPAN/mirror). The mirror
    /// port is excluded from normal flooding.
    pub mirror_to: Option<PortId>,
    /// Optional per-port MAC limit.
    pub port_security: Option<PortSecurityConfig>,
    /// Per-port VLAN modes, indexed by port number; the length must equal
    /// `ports`. `None` keeps the switch VLAN-unaware: one broadcast
    /// domain, and any tag stacks forward opaquely as payload bytes.
    /// [`Switch::new`] packs them into 4 bytes per port.
    pub vlans: Option<Vec<PortVlan>>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 8,
            cam_capacity: 1024,
            cam_aging: Duration::from_secs(300),
            fail_mode: FailMode::FloodOpen,
            mirror_to: None,
            port_security: None,
            vlans: None,
        }
    }
}

const SWEEP_TOKEN: u64 = 0xCA11_5EE9;

/// A learning Ethernet switch.
#[derive(Debug)]
pub struct Switch {
    name: String,
    ports: usize,
    /// The CAM aging sweep's period: a quarter of the aging time, and at
    /// least 100 ms.
    sweep_every: Duration,
    fail_mode: FailMode,
    /// Excluded from floods; every ingress frame is copied to it.
    mirror_to: Option<PortId>,
    port_security: Option<PortSecurityConfig>,
    /// `None` on a VLAN-unaware switch.
    vlans: Option<VlanTable>,
    cam: Rc<RefCell<CamTable>>,
    stats: Rc<RefCell<SwitchStats>>,
    per_port_macs: FastMap<PortId, FastSet<MacAddr>>,
    inspector: Option<Box<dyn FrameInspector>>,
    /// Flood domains by VID, each built on its VID's first flood; all
    /// are dropped when port security err-disables a port.
    flood_domains: FastMap<VlanId, FloodDomain>,
    /// The domains' egress lists, back to back.
    flood_ports: Vec<Egress>,
}

/// One VLAN's flood domain: `flood_ports[start..end]` lists every port a
/// flood leaves by, in port order, minus the mirror port and
/// err-disabled ports. The ingress port stays listed; the flood skips
/// it.
#[derive(Debug, Clone, Copy)]
struct FloodDomain {
    start: u32,
    end: u32,
    /// Whether some port egresses untagged (`[0]`) or tagged (`[1]`).
    encaps: [bool; 2],
}

impl std::fmt::Debug for dyn FrameInspector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameInspector")
    }
}

/// Outcome of ingress VLAN classification.
enum Classified {
    /// Frame admitted into `vid`; `tagged` records whether it carries an
    /// outer tag on the wire, which drives egress re-tagging.
    Member { vid: VlanId, tagged: bool },
    /// Frame violates the ingress port's VLAN mode.
    Drop,
}

/// `shared`, which arrived with an outer tag when `ingress_tagged`, as it
/// leaves a port whose egress is `tagged`: the shared buffer itself when
/// the encapsulations match, else a copy re-tagged for `vid`.
fn egress_form(shared: &Frame, ingress_tagged: bool, tagged: bool, vid: VlanId) -> Frame {
    match (ingress_tagged, tagged) {
        (false, true) => tag_frame(shared, vid),
        (true, false) => untag_frame(shared),
        _ => shared.clone(),
    }
}

/// Builds a copy of `frame` with an 802.1Q tag for `vid` pushed after the
/// addresses — access-to-trunk egress. The rest of the frame (including
/// any inner tags, making QinQ stacking fall out for free) shifts right by
/// one tag length.
fn tag_frame(frame: &Frame, vid: VlanId) -> Frame {
    let len = frame.len() + ETHERNET_VLAN_TAG_LEN;
    Frame::build(len, |buf| {
        buf[..12].copy_from_slice(&frame[..12]);
        EthernetViewMut::new(buf).push_vlan(vid);
        buf[12 + ETHERNET_VLAN_TAG_LEN..].copy_from_slice(&frame[12..]);
        len
    })
}

/// Builds a copy of `frame` with the outermost tag stripped — trunk-to-
/// access egress — padded back up to the Ethernet minimum if the removal
/// would make a runt (the pool buffer is pre-zeroed, so the padding is
/// already in place).
fn untag_frame(frame: &Frame) -> Frame {
    let stripped = frame.len() - ETHERNET_VLAN_TAG_LEN;
    let len = stripped.max(ETHERNET_HEADER_LEN + ETHERNET_MIN_PAYLOAD);
    Frame::build(len, |buf| {
        buf[..12].copy_from_slice(&frame[..12]);
        buf[12..stripped].copy_from_slice(&frame[12 + ETHERNET_VLAN_TAG_LEN..]);
        len
    })
}

impl Switch {
    /// Creates a switch and its inspection handle.
    ///
    /// # Panics
    ///
    /// Panics if a VLAN table is configured whose length differs from the
    /// port count.
    pub fn new(name: impl Into<String>, config: SwitchConfig) -> (Self, SwitchHandle) {
        if let Some(vlans) = &config.vlans {
            assert_eq!(vlans.len(), config.ports, "per-port VLAN table must cover every port");
        }
        let cam = Rc::new(RefCell::new(CamTable::new(config.cam_capacity, config.cam_aging)));
        let stats = Rc::new(RefCell::new(SwitchStats::default()));
        let handle = SwitchHandle { cam: Rc::clone(&cam), stats: Rc::clone(&stats) };
        (
            Switch {
                name: name.into(),
                ports: config.ports,
                sweep_every: (config.cam_aging / 4).max(Duration::from_millis(100)),
                fail_mode: config.fail_mode,
                mirror_to: config.mirror_to,
                port_security: config.port_security,
                vlans: config.vlans.map(VlanTable::new),
                cam,
                stats,
                per_port_macs: FastMap::default(),
                inspector: None,
                // Room for one domain over every port, so a single-VLAN
                // switch builds its domain mid-run without allocating.
                flood_domains: FastMap::with_capacity_and_hasher(1, Default::default()),
                flood_ports: Vec::with_capacity(config.ports),
            },
            handle,
        )
    }

    /// Installs an ingress [`FrameInspector`] (e.g. Dynamic ARP Inspection).
    pub fn set_inspector(&mut self, inspector: Box<dyn FrameInspector>) {
        self.inspector = Some(inspector);
    }

    /// Classifies an ingress frame into a VLAN according to the port's
    /// mode. A VLAN-unaware switch admits everything into VID 0 with the
    /// bytes treated as opaque (no re-tagging ever happens).
    fn classify(&self, port: PortId, eth: &EthernetView<'_>) -> Classified {
        let Some(vlans) = &self.vlans else {
            return Classified::Member { vid: 0, tagged: false };
        };
        match vlans.modes[usize::from(port.0)] {
            PortMode::Access(pvid) => match eth.vlan() {
                None => Classified::Member { vid: pvid, tagged: false },
                Some(_) => Classified::Drop,
            },
            PortMode::Trunk(trunk) => match eth.vlan() {
                Some(vid) if vlans.trunks[usize::from(trunk)].contains(vid) => {
                    Classified::Member { vid, tagged: true }
                }
                _ => Classified::Drop,
            },
        }
    }

    /// `vid`'s flood domain, built on first use.
    fn flood_domain(&mut self, vid: VlanId) -> FloodDomain {
        if let Some(domain) = self.flood_domains.get(&vid) {
            return *domain;
        }
        let (vlans, stats) = (self.vlans.as_ref(), self.stats.borrow());
        let start = self.flood_ports.len();
        // `ports` may legitimately be 65536 (every PortId addressable),
        // so iterate the usize range and narrow per port.
        self.flood_ports.extend(
            (0..self.ports)
                .map(|p| PortId(p as u16))
                .filter(|p| Some(*p) != self.mirror_to && !stats.shutdown_ports.contains(p))
                .filter_map(|port| {
                    egress_mode(vlans, port, vid).map(|tagged| Egress { port, tagged })
                }),
        );
        let listed = &self.flood_ports[start..];
        let encaps = [false, true].map(|tagged| listed.iter().any(|e| e.tagged == tagged));
        let end = self.flood_ports.len() as u32;
        let domain = FloodDomain { start: start as u32, end, encaps };
        self.flood_domains.insert(vid, domain);
        domain
    }

    /// Floods `shared` within `vid` as one call over the VLAN's flood
    /// domain. The form the ingress encapsulation does not match is
    /// built once, and only when some port of the domain takes it.
    fn flood(
        &mut self,
        ctx: &mut DeviceCtx<'_>,
        ingress: PortId,
        shared: Frame,
        vid: VlanId,
        ingress_tagged: bool,
    ) {
        let domain = self.flood_domain(vid);
        let other = !ingress_tagged;
        let rebuilt = if domain.encaps[usize::from(other)] {
            egress_form(&shared, ingress_tagged, other, vid)
        } else {
            shared.clone()
        };
        let forms = if ingress_tagged { [rebuilt, shared] } else { [shared, rebuilt] };
        let ports = &self.flood_ports[domain.start as usize..domain.end as usize];
        ctx.flood(ports.iter().copied(), ingress, forms);
    }
}

impl Device for Switch {
    fn name(&self) -> &str {
        &self.name
    }

    fn port_count(&self) -> usize {
        self.ports
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(self.sweep_every, SWEEP_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == SWEEP_TOKEN {
            let evicted = self.cam.borrow_mut().sweep(ctx.now());
            if evicted > 0 {
                ctx.tracer().count("switch.cam.aged_out", evicted as u64);
            }
            // The aging sweep doubles as the CAM-size sampling point:
            // it already fires periodically on every switch, so the
            // gauge costs nothing new on the frame path.
            profile::gauge("switch.cam.size", self.cam.borrow().occupancy() as u64);
            ctx.schedule_in(self.sweep_every, SWEEP_TOKEN);
        }
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
        let tracer = ctx.tracer();
        // Err-disabled ports drop everything.
        if self.stats.borrow().shutdown_ports.contains(&port) {
            return;
        }

        let Ok(eth) = EthernetView::parse_strict(frame) else {
            // Unparseable garbage is dropped — but never silently: the
            // drop is counted and attributable to its ingress port.
            tracer.count("switch.drop.unparseable", 1);
            tracer.event(ctx.now().as_nanos(), "switch.drop.unparseable", || {
                (self.name.clone(), format!("port={} len={}", port.0, frame.len()))
            });
            return;
        };

        // VLAN ingress classification, ahead of everything else: a frame
        // outside the port's configured domain never reaches the
        // inspector, the CAM, or a flood.
        let classified = {
            let _s = profile::span("switch.classify");
            self.classify(port, &eth)
        };
        let (vid, ingress_tagged) = match classified {
            Classified::Member { vid, tagged } => (vid, tagged),
            Classified::Drop => {
                self.stats.borrow_mut().dropped_vlan += 1;
                tracer.count("switch.drop.vlan", 1);
                tracer.event(ctx.now().as_nanos(), "switch.drop.vlan", || {
                    (
                        self.name.clone(),
                        format!("port={} src={} tag={:?}", port.0, eth.src(), eth.vlan()),
                    )
                });
                return;
            }
        };

        // Ingress inspection (DAI etc.), scoped to the classified VLAN.
        if let Some(inspector) = &mut self.inspector {
            let _s = profile::span("switch.inspect");
            if let InspectVerdict::Deny { reason } = inspector.inspect(ctx.now(), port, vid, &eth) {
                tracer.count("switch.drop.inspector", 1);
                tracer.event(ctx.now().as_nanos(), "switch.drop.inspector", || {
                    (
                        self.name.clone(),
                        format!("port={} src={} reason={reason}", port.0, eth.src()),
                    )
                });
                self.stats.borrow_mut().dropped_inspector += 1;
                return;
            }
        }

        // Port security accounting on the *source* address.
        if let Some(ps) = self.port_security {
            if eth.src().is_unicast() && !eth.src().is_zero() {
                let known = self.per_port_macs.entry(port).or_default();
                if !known.contains(&eth.src()) {
                    if known.len() >= ps.max_macs_per_port {
                        tracer.count("switch.drop.port_security", 1);
                        tracer.event(
                            ctx.now().as_nanos(),
                            "switch.port_security.violation",
                            || {
                                (
                                    self.name.clone(),
                                    format!(
                                        "port={} src={} action={:?}",
                                        port.0,
                                        eth.src(),
                                        ps.violation
                                    ),
                                )
                            },
                        );
                        if matches!(ps.violation, ViolationAction::ShutdownPort) {
                            self.stats.borrow_mut().shutdown_ports.insert(port);
                            self.flood_domains.clear();
                            self.flood_ports.clear();
                        }
                        return;
                    }
                    known.insert(eth.src());
                }
            }
        }

        // Source learning, scoped to the classified VLAN.
        if eth.src().is_unicast() && !eth.src().is_zero() {
            let outcome = self.cam.borrow_mut().learn_vlan(ctx.now(), vid, eth.src(), port);
            match outcome {
                LearnOutcome::Learned => tracer.count("switch.learn.new", 1),
                LearnOutcome::Refreshed => tracer.count("switch.learn.refreshed", 1),
                LearnOutcome::Moved { from } => {
                    tracer.count("switch.learn.moved", 1);
                    tracer.event(ctx.now().as_nanos(), "switch.cam.moved", || {
                        (
                            self.name.clone(),
                            format!("src={} moved port {}->{}", eth.src(), from.0, port.0),
                        )
                    });
                }
                LearnOutcome::Full => {
                    tracer.count("switch.learn.full", 1);
                    tracer.event(ctx.now().as_nanos(), "switch.cam.full", || {
                        (
                            self.name.clone(),
                            format!(
                                "src={} port={} occupancy={} fail_mode={:?}",
                                eth.src(),
                                port.0,
                                self.cam.borrow().occupancy(),
                                self.fail_mode
                            ),
                        )
                    });
                }
            }
            if outcome == LearnOutcome::Full {
                self.stats.borrow_mut().cam_full_events += 1;
                if self.fail_mode == FailMode::DropNew {
                    return;
                }
            }
        }

        // Forwarding decision first, so the mirror copy can be skipped
        // when the frame's own egress *is* the mirror port (it would
        // otherwise arrive twice there).
        let _s = profile::span("switch.forward");
        let unicast_out = if eth.dst().is_unicast() {
            self.cam.borrow().lookup_vlan(vid, eth.dst())
        } else {
            None
        };

        // Every egress copy below — mirror, unicast forward, flood —
        // shares the ingress frame's buffer; only a tag/untag boundary
        // builds one fresh frame, reused for every port of that kind.
        let shared = ctx.incoming_frame().expect("on_frame always carries a frame");

        // Mirror a copy of every (accepted) ingress frame, exactly as it
        // arrived — SPAN shows wire reality, not the egress rewrite.
        if let Some(mirror) = self.mirror_to {
            if mirror != port && unicast_out != Some(mirror) {
                ctx.send(mirror, shared.clone());
            }
        }

        if eth.dst().is_unicast() {
            if let Some(out) = unicast_out {
                if out != port && !self.stats.borrow().shutdown_ports.contains(&out) {
                    if let Some(tagged) = egress_mode(self.vlans.as_ref(), out, vid) {
                        ctx.send(out, egress_form(&shared, ingress_tagged, tagged, vid));
                        self.stats.borrow_mut().forwarded += 1;
                        tracer.count("switch.forwarded", 1);
                    }
                }
                return;
            }
        }
        self.stats.borrow_mut().flooded += 1;
        tracer.count("switch.flooded", 1);
        self.flood(ctx, port, shared, vid, ingress_tagged);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::sim::Simulator;
    use crate::time::SimTime;
    use arpshield_packet::{EtherType, EthernetEmit, WireEmit};
    use arpshield_trace::{install, RunSection, TraceCollector, Tracer};

    fn frame(src: MacAddr, dst: MacAddr) -> Vec<u8> {
        EthernetEmit::new(dst, src, EtherType::Other(0x1234), &[0u8; 46][..]).encode()
    }

    /// Sends a list of (delay_ms, frame) pairs; records frames received.
    ///
    /// The plan holds shared [`Frame`]s, so replaying an injection on a
    /// timer fire clones a handle instead of copying the payload.
    struct Station {
        plan: Vec<(u64, Frame)>,
        received: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl Station {
        fn new(plan: Vec<(u64, Vec<u8>)>) -> (Self, Rc<RefCell<Vec<Vec<u8>>>>) {
            let received = Rc::new(RefCell::new(Vec::new()));
            let plan = plan.into_iter().map(|(at, bytes)| (at, Frame::from(bytes))).collect();
            (Station { plan, received: Rc::clone(&received) }, received)
        }
    }

    impl Device for Station {
        fn name(&self) -> &str {
            "station"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            for (i, (delay, _)) in self.plan.iter().enumerate() {
                ctx.schedule_in(Duration::from_millis(*delay), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
            ctx.send(PortId(0), self.plan[token as usize].1.clone());
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
            self.received.borrow_mut().push(frame.to_vec());
        }
    }

    /// Runs `sim` for one simulated second under a trace collector and
    /// returns the run's trace section.
    fn traced(mut sim: Simulator) -> RunSection {
        let collector = Arc::new(TraceCollector::new());
        {
            let _guard = install(Arc::clone(&collector));
            sim.set_tracer(Tracer::for_current_run("sw"));
        }
        sim.run_until(SimTime::from_secs(1));
        drop(sim); // the last tracer handle flushes the run
        collector.manifest("sw").runs.remove(0)
    }

    fn wire(
        sim: &mut Simulator,
        station: Station,
        sw: crate::device::DeviceId,
        port: u16,
    ) -> crate::device::DeviceId {
        let id = sim.add_device(Box::new(station));
        sim.connect(id, PortId(0), sw, PortId(port), Duration::from_micros(2)).unwrap();
        id
    }

    #[test]
    fn learns_and_stops_flooding() {
        let mac_a = MacAddr::from_index(1);
        let mac_b = MacAddr::from_index(2);
        let mut sim = Simulator::new(1);
        let (sw, handle) = Switch::new("sw", SwitchConfig { ports: 4, ..Default::default() });
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, frame(mac_a, mac_b)), (20, frame(mac_a, mac_b))]);
        let (b, b_rx) = Station::new(vec![(10, frame(mac_b, mac_a))]);
        let (c, c_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        wire(&mut sim, c, sw, 2);
        sim.run_until(SimTime::from_secs(1));
        // First a->b frame floods (b unknown): b and c both see it.
        // After b talks, the second a->b frame is forwarded only to b.
        assert_eq!(b_rx.borrow().len(), 2);
        assert_eq!(c_rx.borrow().len(), 1);
        assert_eq!(handle.cam.borrow().occupancy(), 2);
        assert_eq!(handle.stats.borrow().forwarded, 2); // b->a and second a->b
        assert_eq!(handle.stats.borrow().flooded, 1);
    }

    #[test]
    fn broadcast_always_floods() {
        let mac_a = MacAddr::from_index(1);
        let mut sim = Simulator::new(1);
        let (sw, handle) = Switch::new("sw", SwitchConfig { ports: 4, ..Default::default() });
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, frame(mac_a, MacAddr::BROADCAST))]);
        let (b, b_rx) = Station::new(vec![]);
        let (c, c_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        wire(&mut sim, c, sw, 2);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(b_rx.borrow().len(), 1);
        assert_eq!(c_rx.borrow().len(), 1);
        assert_eq!(handle.stats.borrow().flooded, 1);
    }

    #[test]
    fn cam_capacity_and_fail_open() {
        let mut sim = Simulator::new(1);
        let config = SwitchConfig { ports: 4, cam_capacity: 3, ..Default::default() };
        let (sw, handle) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        // Station on port 0 emits frames from 5 distinct sources.
        let plan: Vec<_> = (10..15u32)
            .enumerate()
            .map(|(i, n)| ((i as u64 + 1) * 10, frame(MacAddr::from_index(n), MacAddr::BROADCAST)))
            .collect();
        let (a, _) = Station::new(plan);
        let (b, _) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(handle.cam.borrow().occupancy(), 3);
        assert!(handle.cam.borrow().is_full());
        assert_eq!(handle.stats.borrow().cam_full_events, 2);
    }

    #[test]
    fn drop_new_fail_mode_blocks_unknown_sources() {
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 4,
            cam_capacity: 1,
            fail_mode: FailMode::DropNew,
            ..Default::default()
        };
        let (sw, _) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![
            (1, frame(MacAddr::from_index(1), MacAddr::BROADCAST)),
            (10, frame(MacAddr::from_index(2), MacAddr::BROADCAST)),
        ]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        sim.run_until(SimTime::from_secs(1));
        // Only the first source fits; the second is dropped entirely.
        assert_eq!(b_rx.borrow().len(), 1);
    }

    #[test]
    fn cam_aging_evicts_idle_entries() {
        let mut cam = CamTable::new(10, Duration::from_secs(60));
        cam.learn(SimTime::ZERO, MacAddr::from_index(1), PortId(0));
        cam.learn(SimTime::from_secs(30), MacAddr::from_index(2), PortId(1));
        assert_eq!(cam.sweep(SimTime::from_secs(59)), 0);
        assert_eq!(cam.sweep(SimTime::from_secs(61)), 1);
        assert_eq!(cam.occupancy(), 1);
        assert_eq!(cam.lookup(MacAddr::from_index(1)), None);
        assert_eq!(cam.lookup(MacAddr::from_index(2)), Some(PortId(1)));
    }

    /// An entry holds what lookups and aging read, so a 100k-station
    /// CAM's bucket (8-byte key, entry) is 24 bytes.
    #[test]
    fn a_cam_entry_fits_in_16_bytes() {
        let size = std::mem::size_of::<CamEntry>();
        assert!(size <= 16, "{size} bytes");
    }

    /// Classification and flood-domain builds read one mode per port,
    /// so a 1,025-port leaf's VLAN table is 4,100 bytes.
    #[test]
    fn a_port_vlan_mode_fits_in_4_bytes() {
        let size = std::mem::size_of::<PortMode>();
        assert!(size <= 4, "{size} bytes");
    }

    /// A switch keeps only what it reads after construction: no CAM
    /// capacity, which the table holds, and no unpacked VLAN modes.
    #[test]
    fn a_switch_fits_in_264_bytes() {
        let size = std::mem::size_of::<Switch>();
        assert!(size <= 264, "{size} bytes");
    }

    #[test]
    fn full_table_of_stale_entries_does_not_lock_out_learning() {
        let mut cam = CamTable::new(2, Duration::from_secs(60));
        cam.learn(SimTime::ZERO, MacAddr::from_index(1), PortId(0));
        cam.learn(SimTime::from_secs(90), MacAddr::from_index(2), PortId(1));
        assert!(cam.is_full());
        // Between sweep ticks, a fresh source arriving after entry 1
        // aged out must evict it inline, not bounce off a stale Full.
        assert_eq!(
            cam.learn(SimTime::from_secs(100), MacAddr::from_index(3), PortId(2)),
            LearnOutcome::Learned
        );
        assert_eq!(cam.occupancy(), 2);
        assert_eq!(cam.lookup(MacAddr::from_index(1)), None, "stale entry evicted");
        assert_eq!(cam.lookup(MacAddr::from_index(2)), Some(PortId(1)), "fresh entry kept");
        // When every entry is genuinely fresh, Full still stands.
        assert_eq!(
            cam.learn(SimTime::from_secs(101), MacAddr::from_index(4), PortId(3)),
            LearnOutcome::Full
        );
    }

    #[test]
    fn unparseable_frames_are_counted_not_silent() {
        let mut sim = Simulator::new(1);
        let (sw, _) = Switch::new("sw", SwitchConfig { ports: 4, ..Default::default() });
        let sw = sim.add_device(Box::new(sw));
        // A runt frame (shorter than an Ethernet header) and one valid frame.
        let (a, _) = Station::new(vec![
            (1, vec![0xde, 0xad, 0xbe]),
            (10, frame(MacAddr::from_index(1), MacAddr::BROADCAST)),
        ]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        let run = traced(sim);
        assert_eq!(run.counters.get("switch.drop.unparseable"), Some(&1));
        assert_eq!(b_rx.borrow().len(), 1, "only the valid frame got through");
    }

    #[test]
    fn station_move_is_tracked() {
        let mut cam = CamTable::new(10, Duration::from_secs(60));
        let mac = MacAddr::from_index(5);
        assert_eq!(cam.learn(SimTime::ZERO, mac, PortId(0)), LearnOutcome::Learned);
        assert_eq!(cam.learn(SimTime::from_secs(1), mac, PortId(0)), LearnOutcome::Refreshed);
        assert_eq!(
            cam.learn(SimTime::from_secs(2), mac, PortId(3)),
            LearnOutcome::Moved { from: PortId(0) }
        );
        assert_eq!(cam.lookup(mac), Some(PortId(3)));
    }

    #[test]
    fn port_security_drop_frame() {
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 4,
            port_security: Some(PortSecurityConfig {
                max_macs_per_port: 1,
                violation: ViolationAction::DropFrame,
            }),
            ..Default::default()
        };
        let (sw, handle) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![
            (1, frame(MacAddr::from_index(1), MacAddr::BROADCAST)),
            (10, frame(MacAddr::from_index(2), MacAddr::BROADCAST)), // violation
            (20, frame(MacAddr::from_index(1), MacAddr::BROADCAST)), // still ok
        ]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        let run = traced(sim);
        assert_eq!(b_rx.borrow().len(), 2);
        assert_eq!(run.counters.get("switch.drop.port_security"), Some(&1));
        assert!(handle.stats.borrow().shutdown_ports.is_empty());
    }

    #[test]
    fn port_security_shutdown() {
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 4,
            port_security: Some(PortSecurityConfig {
                max_macs_per_port: 1,
                violation: ViolationAction::ShutdownPort,
            }),
            ..Default::default()
        };
        let (sw, handle) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![
            (1, frame(MacAddr::from_index(1), MacAddr::BROADCAST)),
            (10, frame(MacAddr::from_index(2), MacAddr::BROADCAST)), // violation -> shutdown
            (20, frame(MacAddr::from_index(1), MacAddr::BROADCAST)), // dropped: port down
        ]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(b_rx.borrow().len(), 1);
        assert!(handle.stats.borrow().shutdown_ports.contains(&PortId(0)));
    }

    /// Flood domains are cached per VLAN; err-disabling a port must
    /// drop it from every later flood.
    #[test]
    fn floods_skip_a_port_err_disabled_after_the_domain_was_built() {
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 3,
            port_security: Some(PortSecurityConfig {
                max_macs_per_port: 1,
                violation: ViolationAction::ShutdownPort,
            }),
            ..Default::default()
        };
        let (sw, _) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![
            (1, frame(MacAddr::from_index(1), MacAddr::BROADCAST)),
            (20, frame(MacAddr::from_index(1), MacAddr::BROADCAST)),
        ]);
        let (b, b_rx) = Station::new(vec![]);
        let (c, c_rx) = Station::new(vec![
            (5, frame(MacAddr::from_index(3), MacAddr::BROADCAST)),
            (10, frame(MacAddr::from_index(4), MacAddr::BROADCAST)), // violation -> shutdown
        ]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        wire(&mut sim, c, sw, 2);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(b_rx.borrow().len(), 3, "both of a's floods and c's first frame");
        assert_eq!(c_rx.borrow().len(), 1, "only the flood from before the shutdown");
    }

    #[test]
    fn mirror_port_sees_everything() {
        let mac_a = MacAddr::from_index(1);
        let mac_b = MacAddr::from_index(2);
        let mut sim = Simulator::new(1);
        let config = SwitchConfig { ports: 4, mirror_to: Some(PortId(3)), ..Default::default() };
        let (sw, _) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, frame(mac_a, mac_b)), (20, frame(mac_a, mac_b))]);
        let (b, _) = Station::new(vec![(10, frame(mac_b, mac_a))]);
        let (mon, mon_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        wire(&mut sim, mon, sw, 3);
        sim.run_until(SimTime::from_secs(1));
        // Every ingress frame is mirrored exactly once, including the
        // unicast a->b at t=20ms that the monitor would otherwise miss.
        assert_eq!(mon_rx.borrow().len(), 3);
    }

    /// Denies every frame for the reason `test`.
    struct DenyAll;

    impl FrameInspector for DenyAll {
        fn inspect(
            &mut self,
            _: SimTime,
            _: PortId,
            _: VlanId,
            _: &EthernetView<'_>,
        ) -> InspectVerdict {
            InspectVerdict::Deny { reason: "test" }
        }
    }

    #[test]
    fn inspector_can_drop_frames() {
        let mut sim = Simulator::new(1);
        let (mut sw, handle) = Switch::new("sw", SwitchConfig { ports: 4, ..Default::default() });
        sw.set_inspector(Box::new(DenyAll));
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, frame(MacAddr::from_index(1), MacAddr::BROADCAST))]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        let run = traced(sim);
        assert_eq!(b_rx.borrow().len(), 0);
        assert_eq!(handle.stats.borrow().dropped_inspector, 1);
        let doc = arpshield_trace::json::parse(&run.body).expect("a run body is JSON");
        let events = doc.get("events").and_then(|v| v.as_arr()).expect("an event list");
        let details: Vec<_> = events
            .iter()
            .filter(|e| e.get("category").and_then(|v| v.as_str()) == Some("switch.drop.inspector"))
            .filter_map(|e| e.get("detail").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(details.len(), 1);
        assert!(details[0].ends_with(" reason=test"), "{}", details[0]);
    }

    #[test]
    fn inspector_counts_every_denial() {
        let mut sim = Simulator::new(1);
        let (mut sw, handle) = Switch::new("sw", SwitchConfig { ports: 4, ..Default::default() });
        sw.set_inspector(Box::new(DenyAll));
        let sw = sim.add_device(Box::new(sw));
        let plan = (0..40u64)
            .map(|i| (i + 1, frame(MacAddr::from_index(1), MacAddr::BROADCAST)))
            .collect();
        let (a, _) = Station::new(plan);
        wire(&mut sim, a, sw, 0);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(handle.stats.borrow().dropped_inspector, 40);
    }

    fn access(pvid: VlanId) -> PortVlan {
        PortVlan::Access { pvid }
    }

    fn trunk(vids: &[VlanId]) -> PortVlan {
        PortVlan::Trunk { allowed: VlanSet::Only(vids.to_vec()) }
    }

    fn tagged_frame(src: MacAddr, dst: MacAddr, vid: VlanId) -> Vec<u8> {
        EthernetEmit::new(dst, src, EtherType::Other(0x1234), &[0u8; 46][..])
            .with_vlan(vid)
            .encode()
    }

    #[test]
    fn vlan_flood_domains_are_isolated() {
        // Ports 0-1 on VID 10, ports 2-3 on VID 20: a broadcast entering
        // VID 10 must reach its peer and nobody on VID 20.
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 4,
            vlans: Some(vec![access(10), access(10), access(20), access(20)]),
            ..Default::default()
        };
        let (sw, _) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, frame(MacAddr::from_index(1), MacAddr::BROADCAST))]);
        let (b, b_rx) = Station::new(vec![]);
        let (c, c_rx) = Station::new(vec![]);
        let (d, d_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        wire(&mut sim, c, sw, 2);
        wire(&mut sim, d, sw, 3);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(b_rx.borrow().len(), 1, "same-VLAN peer sees the broadcast");
        assert_eq!(c_rx.borrow().len(), 0, "VID 20 port is outside the flood domain");
        assert_eq!(d_rx.borrow().len(), 0);
    }

    #[test]
    fn access_to_trunk_egress_tags_golden_bytes() {
        let src = MacAddr::from_index(1);
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 2,
            vlans: Some(vec![access(7), trunk(&[7])]),
            ..Default::default()
        };
        let (sw, _) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, frame(src, MacAddr::BROADCAST))]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        sim.run_until(SimTime::from_secs(1));
        let got = b_rx.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], tagged_frame(src, MacAddr::BROADCAST, 7), "PVID tag pushed on egress");
    }

    #[test]
    fn trunk_to_access_egress_untags() {
        let src = MacAddr::from_index(1);
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 2,
            vlans: Some(vec![trunk(&[7]), access(7)]),
            ..Default::default()
        };
        let (sw, _) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, tagged_frame(src, MacAddr::BROADCAST, 7))]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        sim.run_until(SimTime::from_secs(1));
        let got = b_rx.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], frame(src, MacAddr::BROADCAST), "tag stripped, padding restored");
    }

    #[test]
    fn trunk_to_trunk_passes_qinq_stack_through_untouched() {
        // Hand-spliced QinQ frame: 802.1ad S-tag (VID 0xFFE) outermost,
        // 802.1Q C-tag (VID 2) inside — same fixture the wire writers pin.
        let mut qinq = Vec::new();
        qinq.extend_from_slice(MacAddr::BROADCAST.as_bytes());
        qinq.extend_from_slice(MacAddr::from_index(7).as_bytes());
        qinq.extend_from_slice(&[0x88, 0xa8, 0x0F, 0xFE]);
        qinq.extend_from_slice(&[0x81, 0x00, 0x00, 0x02]);
        qinq.extend_from_slice(&[0x08, 0x06]);
        qinq.extend_from_slice(&[0u8; 46]);

        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 2,
            vlans: Some(vec![trunk(&[0xFFE]), trunk(&[0xFFE])]),
            ..Default::default()
        };
        let (sw, _) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, qinq.clone())]);
        let (b, b_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        sim.run_until(SimTime::from_secs(1));
        let got = b_rx.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], qinq, "trunk egress forwards the full tag stack byte-for-byte");
    }

    #[test]
    fn vlan_ingress_violations_are_dropped_and_counted() {
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 3,
            vlans: Some(vec![access(10), trunk(&[10]), access(10)]),
            ..Default::default()
        };
        let (sw, handle) = Switch::new("sw", config);
        let sw = sim.add_device(Box::new(sw));
        // Tagged frame on an access port, untagged on a trunk, and a
        // non-member VID on the trunk: all three must die at ingress.
        let (a, _) =
            Station::new(vec![(1, tagged_frame(MacAddr::from_index(1), MacAddr::BROADCAST, 10))]);
        let (b, _) = Station::new(vec![
            (2, frame(MacAddr::from_index(2), MacAddr::BROADCAST)),
            (3, tagged_frame(MacAddr::from_index(2), MacAddr::BROADCAST, 99)),
        ]);
        let (c, c_rx) = Station::new(vec![]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        wire(&mut sim, c, sw, 2);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(handle.stats.borrow().dropped_vlan, 3);
        assert_eq!(c_rx.borrow().len(), 0);
    }

    #[test]
    fn same_mac_on_two_vlans_neither_flaps_nor_leaks() {
        let mac = MacAddr::from_index(5);
        let mut cam = CamTable::new(10, Duration::from_secs(60));
        assert_eq!(cam.learn_vlan(SimTime::ZERO, 10, mac, PortId(0)), LearnOutcome::Learned);
        assert_eq!(
            cam.learn_vlan(SimTime::from_secs(1), 20, mac, PortId(3)),
            LearnOutcome::Learned,
            "a second VLAN is a fresh binding, not a station move"
        );
        assert_eq!(cam.lookup_vlan(10, mac), Some(PortId(0)));
        assert_eq!(cam.lookup_vlan(20, mac), Some(PortId(3)));
        assert_eq!(cam.lookup_vlan(30, mac), None, "no leak into unrelated VLANs");
        assert_eq!(cam.occupancy(), 2);
    }

    #[test]
    fn inspector_sees_the_classified_vid() {
        struct RecordVids(Rc<RefCell<Vec<VlanId>>>);
        impl FrameInspector for RecordVids {
            fn inspect(
                &mut self,
                _: SimTime,
                _: PortId,
                vlan: VlanId,
                _: &EthernetView<'_>,
            ) -> InspectVerdict {
                self.0.borrow_mut().push(vlan);
                InspectVerdict::Permit
            }
        }
        let vids = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let config = SwitchConfig {
            ports: 2,
            vlans: Some(vec![access(42), trunk(&[42])]),
            ..Default::default()
        };
        let (mut sw, _) = Switch::new("sw", config);
        sw.set_inspector(Box::new(RecordVids(Rc::clone(&vids))));
        let sw = sim.add_device(Box::new(sw));
        let (a, _) = Station::new(vec![(1, frame(MacAddr::from_index(1), MacAddr::BROADCAST))]);
        let (b, _) =
            Station::new(vec![(2, tagged_frame(MacAddr::from_index(2), MacAddr::BROADCAST, 42))]);
        wire(&mut sim, a, sw, 0);
        wire(&mut sim, b, sw, 1);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            *vids.borrow(),
            vec![42, 42],
            "access PVID and trunk tag both classify to the VID"
        );
    }
}
