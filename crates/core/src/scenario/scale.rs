//! Enterprise-scale two-tier switched fabric for the T6S sweep.
//!
//! The legacy `lan` builder instantiates full host stacks (resolver,
//! cache policy, retry machinery) and tops out around 200 stations.
//! Scaling the simulator itself to 10^5 hosts needs the opposite
//! trade: a minimal station model that exercises the *simulator* —
//! timer pressure, fan-out, CAM capacity — without paying a full ARP
//! stack per station.
//!
//! Topology: one root switch with the gateway on port 0 and up to
//! [`LEAF_CAPACITY`]-host leaf switches on the remaining ports (a
//! `PortId` is 16-bit, so a single flat switch caps at 65 536 ports —
//! real enterprise access/distribution tiers have the same shape).
//! Every station knows the gateway binding up front, the way a DHCP
//! lease hands it out, so background traffic is *unicast*: each
//! station periodically refreshes its gateway entry with a directed
//! ARP request (RFC 1122 §2.3.2.1 style) and the gateway answers. A
//! small fixed-size set of "churners" models DHCP lease turnover: a
//! broadcast gratuitous announcement per renewal, at a global rate
//! that stays constant as the LAN grows — otherwise broadcast fan-out
//! would swamp the sweep with O(hosts²) deliveries and measure
//! nothing but itself.
//!
//! # Fabric variants
//!
//! [`Fabric::Flat`] is the legacy single-broadcast-domain build and
//! stays bit-identical to the published T6S baseline. [`Fabric::Vlan`]
//! puts each leaf on its own access VLAN behind 802.1Q trunk uplinks,
//! the way an enterprise access tier segments a campus: station ports
//! are access ports on the leaf's VID, leaf→root uplinks trunk exactly
//! that VID, and the gateway hangs off a trunk-all root port answering
//! on whichever VLAN asked. With `defend` set, dynamic ARP inspection
//! runs *inside* the fabric — on the root and on every leaf uplink —
//! keyed per VLAN, which is what the defended T6S sweep measures. A
//! fixed small set of "spoofers" (mirroring the churner trick) forges
//! the gateway's binding so defended runs have real violations to
//! count without changing the offered-load shape.

use std::time::Duration;

use arpshield_netsim::{
    eth_frame, splitmix64, Device, DeviceCtx, Frame, PortId, PortVlan, Simulator, Switch,
    SwitchConfig, SwitchHandle, VlanId, VlanSet,
};
use arpshield_packet::{
    ArpOp, ArpPacket, EtherType, EthernetEmit, EthernetView, Ipv4Addr, MacAddr, WireEmit,
};
use arpshield_schemes::{AlertLog, DaiConfig, DaiInspector};
use arpshield_trace::Tracer;

/// Hosts per leaf switch; the uplink rides on one extra port.
pub const LEAF_CAPACITY: usize = 1024;

/// First access VLAN id; leaf `l` is VLAN `FIRST_VID + l`.
const FIRST_VID: VlanId = 10;

/// Per-station gateway-refresh period.
const CHAT_PERIOD: Duration = Duration::from_secs(2);
/// Stations that cycle DHCP leases: a fixed, small set, so the global
/// broadcast rate does not grow with the station count.
const CHURNERS: usize = 8;
/// Per-churner lease-turnover period.
const CHURN_PERIOD: Duration = Duration::from_secs(1);
/// Per-spoofer forge period.
const SPOOF_PERIOD: Duration = Duration::from_secs(1);

const CHAT_TOKEN: u64 = 1;
const CHURN_TOKEN: u64 = 2;
const SPOOF_TOKEN: u64 = 3;

/// Locally-administered MAC for station `i`.
fn station_mac(i: usize) -> MacAddr {
    let b = (i as u32).to_be_bytes();
    MacAddr::new([0x02, 0x10, b[0], b[1], b[2], b[3]])
}

/// Station `i` lives at 10.x.y.z in one flat /8 — a /24 only holds 254.
fn station_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::from_u32(0x0A00_0000 + 2 + i as u32)
}

const GATEWAY_MAC: MacAddr = MacAddr::new([0x02, 0xFF, 0, 0, 0, 1]);
const GATEWAY_IP: Ipv4Addr = Ipv4Addr::from_u32(0x0A00_0001);

/// Root port count for `n_hosts` stations: one uplink per leaf plus
/// the gateway on port 0.
///
/// # Panics
///
/// Panics when the root would need more than 65 536 ports. `PortId` is
/// a `u16`, so ids `0..=65535` are all addressable and a 65 536-port
/// root (65 535 leaves, ~67M hosts) is the largest valid build.
fn root_port_count(n_hosts: usize) -> usize {
    let n_leaves = n_hosts.div_ceil(LEAF_CAPACITY);
    let ports = n_leaves + 1;
    assert!(ports <= 65_536, "root port space exhausted");
    ports
}

/// The access VLAN for leaf `leaf` in the [`Fabric::Vlan`] build.
fn leaf_vid(leaf: usize) -> VlanId {
    FIRST_VID + leaf as VlanId
}

/// Which fabric [`build`] wires up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// One untagged broadcast domain — the legacy T6S baseline.
    Flat,
    /// Each leaf is its own access VLAN behind 802.1Q trunks.
    Vlan {
        /// Install per-VLAN DAI inspectors on the root and every leaf.
        defend: bool,
    },
}

impl Fabric {
    /// The most stations [`build`] can wire on this fabric. The root's
    /// 16-bit port space holds the gateway and 65 535 leaf uplinks; on
    /// the VLAN fabric each leaf also takes one VID of `10..=4094`
    /// (802.1Q VIDs are 12-bit, and 1..=9 and 4095 are reserved here).
    pub const fn max_hosts(self) -> usize {
        let leaves = match self {
            Fabric::Flat => 65_535,
            Fabric::Vlan { .. } => (4095 - FIRST_VID) as usize,
        };
        leaves * LEAF_CAPACITY
    }
}

/// Root CAM capacity: every station plus headroom, and on the VLAN
/// fabric also the gateway once per access VLAN, since it answers on
/// each of them.
fn root_cam_capacity(n_hosts: usize, fabric: Fabric) -> usize {
    let gateway_entries = match fabric {
        Fabric::Flat => 0,
        Fabric::Vlan { .. } => n_hosts.div_ceil(LEAF_CAPACITY),
    };
    n_hosts + gateway_entries + 64
}

/// Knobs for one scale-sweep point.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Determinism seed.
    pub seed: u64,
    /// Station count (excluding the gateway).
    pub n_hosts: usize,
    /// Simulated run length (timers stagger across it).
    pub duration: Duration,
    /// Fabric variant (flat legacy domain or per-leaf VLANs).
    pub fabric: Fabric,
    /// Stations that forge the gateway's binding once a second — poison
    /// attempts for the defended sweep. Fixed and small, like the
    /// churners, so the attack rate does not scale with the LAN. The
    /// last `spoofers` station indices are used, keeping them disjoint
    /// from the churners (the first eight).
    pub spoofers: usize,
}

impl ScaleConfig {
    /// Defaults: a 10 s run on the flat legacy fabric with no spoofers.
    /// Every station refreshes its gateway entry every 2 s, and the
    /// first eight renew a lease once a second.
    pub fn new(seed: u64, n_hosts: usize) -> Self {
        ScaleConfig {
            seed,
            n_hosts,
            duration: Duration::from_secs(10),
            fabric: Fabric::Flat,
            spoofers: 0,
        }
    }

    /// Overrides the simulated run length.
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Switches to the per-leaf VLAN fabric (undefended).
    pub fn with_vlan_fabric(mut self) -> Self {
        self.fabric = Fabric::Vlan { defend: false };
        self
    }

    /// VLAN fabric with DAI deployed on the root and every leaf.
    pub fn with_dai(mut self) -> Self {
        self.fabric = Fabric::Vlan { defend: true };
        self
    }

    /// Adds `n` stations that forge the gateway binding.
    pub fn with_spoofers(mut self, n: usize) -> Self {
        self.spoofers = n;
        self
    }
}

/// Emits an Ethernet frame, 802.1Q-tagged when `vid` is set.
fn vlan_frame<P: WireEmit + ?Sized>(
    dst: MacAddr,
    src: MacAddr,
    vid: Option<VlanId>,
    ethertype: EtherType,
    payload: &P,
) -> Frame {
    let mut emit = EthernetEmit::new(dst, src, ethertype, payload);
    emit.vlan = vid;
    Frame::from_wire(&emit)
}

/// Station `i`'s name, `h{i}`, right-aligned in nine bytes, and where it
/// starts: the flat fabric's largest index, 67,107,839, takes 8 digits.
fn station_name(mut i: usize) -> ([u8; 9], u8) {
    let (mut bytes, mut first) = ([b'h'; 9], 9);
    while first == 9 || i > 0 {
        first -= 1;
        bytes[first] = b'0' + (i % 10) as u8;
        i /= 10;
    }
    (bytes, first as u8 - 1)
}

/// A minimal station: refreshes its preconfigured gateway entry on a
/// timer, and (when a churner) broadcasts a gratuitous announcement
/// per simulated lease renewal. Replies are absorbed without parsing —
/// the station model must stay lighter than the fabric it loads. A
/// spoofer additionally broadcasts forged claims to the gateway's IP,
/// the classic cache-poison attempt DAI exists to stop. A 100k fabric
/// boxes 100k of these, so nothing here lives on the heap, and each
/// phase is `u32` nanoseconds below its period.
struct ScaleHost {
    name: [u8; 9],
    name_start: u8,
    mac: MacAddr,
    ip: Ipv4Addr,
    chat_phase: u32,
    /// First lease renewal, for a churner.
    churn_phase: Option<u32>,
    /// First forgery, for a spoofer.
    spoof_phase: Option<u32>,
}

impl Device for ScaleHost {
    fn name(&self) -> &str {
        std::str::from_utf8(&self.name[usize::from(self.name_start)..]).expect("an ASCII name")
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.schedule_in(Duration::from_nanos(self.chat_phase.into()), CHAT_TOKEN);
        if let Some(phase) = self.churn_phase {
            ctx.schedule_in(Duration::from_nanos(phase.into()), CHURN_TOKEN);
        }
        if let Some(phase) = self.spoof_phase {
            ctx.schedule_in(Duration::from_nanos(phase.into()), SPOOF_TOKEN);
        }
    }
    fn on_frame(&mut self, _ctx: &mut DeviceCtx<'_>, _port: PortId, _frame: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match token {
            CHAT_TOKEN => {
                // Directed refresh of a cache entry we already hold:
                // unicast to the gateway, no flood.
                let arp = ArpPacket::request(self.mac, self.ip, GATEWAY_IP);
                ctx.send(PortId(0), eth_frame(GATEWAY_MAC, self.mac, EtherType::ARP, &arp));
                ctx.schedule_in(CHAT_PERIOD, CHAT_TOKEN);
            }
            CHURN_TOKEN => {
                // A fresh lease announces its binding to the segment.
                let arp = ArpPacket::gratuitous(ArpOp::Reply, self.mac, self.ip);
                ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, self.mac, EtherType::ARP, &arp));
                ctx.schedule_in(CHURN_PERIOD, CHURN_TOKEN);
            }
            SPOOF_TOKEN => {
                // "I am the gateway" — sender binding forged to steer
                // the segment's traffic through this station.
                let arp = ArpPacket::gratuitous(ArpOp::Reply, self.mac, GATEWAY_IP);
                ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, self.mac, EtherType::ARP, &arp));
                ctx.schedule_in(SPOOF_PERIOD, SPOOF_TOKEN);
            }
            _ => {}
        }
    }
}

/// The default router: answers directed ARP requests for its address
/// and announces itself once at boot so every leaf CAM learns the
/// uplink path before the first station asks. On the VLAN fabric it
/// sits on a trunk-all root port: boot announcements go out tagged
/// once per access VLAN, and replies carry the VID the request
/// arrived on — a router-on-a-stick in miniature.
struct ScaleGateway {
    /// Access VLANs served; empty on the flat fabric (untagged).
    vlans: Vec<VlanId>,
}

impl Device for ScaleGateway {
    fn name(&self) -> &str {
        "gateway"
    }
    fn port_count(&self) -> usize {
        1
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        let arp = ArpPacket::gratuitous(ArpOp::Reply, GATEWAY_MAC, GATEWAY_IP);
        if self.vlans.is_empty() {
            ctx.send(PortId(0), eth_frame(MacAddr::BROADCAST, GATEWAY_MAC, EtherType::ARP, &arp));
        } else {
            for &vid in &self.vlans {
                let frame =
                    vlan_frame(MacAddr::BROADCAST, GATEWAY_MAC, Some(vid), EtherType::ARP, &arp);
                ctx.send(PortId(0), frame);
            }
        }
    }
    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
        let Ok(view) = EthernetView::parse(frame) else { return };
        if view.ethertype() != EtherType::ARP {
            return;
        }
        let Ok(arp) = ArpPacket::parse(view.payload()) else { return };
        if arp.op == ArpOp::Request && arp.target_ip == GATEWAY_IP && !arp.is_gratuitous() {
            let reply = ArpPacket::reply_to(&arp, GATEWAY_MAC);
            let frame =
                vlan_frame(arp.sender_mac, GATEWAY_MAC, view.vlan(), EtherType::ARP, &reply);
            ctx.send(PortId(0), frame);
        }
    }
}

/// A built scale fabric, ready to run.
pub struct ScaleLan {
    /// The simulation; run it to `config.duration`.
    pub sim: Simulator,
    /// Station count.
    pub n_hosts: usize,
    /// Root-switch handle (CAM holds every station that spoke).
    pub root: SwitchHandle,
    /// Leaf-switch handles, in leaf order.
    pub leaves: Vec<SwitchHandle>,
    /// Alert log shared by the in-fabric DAI inspectors; present only
    /// on the defended VLAN fabric.
    pub alerts: Option<AlertLog>,
}

impl ScaleLan {
    /// Frames dropped by in-fabric inspectors, summed over the root
    /// and every leaf.
    pub fn inspector_drops(&self) -> u64 {
        let leaf_drops: u64 = self.leaves.iter().map(|l| l.stats.borrow().dropped_inspector).sum();
        self.root.stats.borrow().dropped_inspector + leaf_drops
    }
}

/// Builds the two-tier fabric for `config`.
///
/// # Panics
///
/// Panics if `n_hosts` is zero or above [`Fabric::max_hosts`]: a root
/// switch's 16-bit port space caps the flat fabric near 67M hosts, and
/// the VLAN fabric's one 802.1Q VID per leaf caps it near 4.18M.
pub fn build(config: ScaleConfig) -> ScaleLan {
    assert!(config.n_hosts > 0, "a scale LAN needs at least one station");
    let n = config.n_hosts;
    let n_leaves = n.div_ceil(LEAF_CAPACITY);
    let root_ports = root_port_count(n);
    let (vlan_fabric, defend) = match config.fabric {
        Fabric::Flat => (false, false),
        Fabric::Vlan { defend } => (true, defend),
    };
    if vlan_fabric {
        assert!(n <= config.fabric.max_hosts(), "VLAN id space exhausted");
    }
    let first_spoofer = n - config.spoofers.min(n);

    // One recorder per run, disabled unless a collector is installed.
    let tracer = Tracer::for_current_run(format!("{config:?}"));
    let mut sim = Simulator::new(config.seed);
    // The root, the gateway, every leaf and every station; each leaf
    // has a port per station plus its uplink.
    sim.reserve(2 + n_leaves + n, root_ports + 1 + (n + n_leaves) + n);
    let host_leaf_latency = Duration::from_micros(5);
    let leaf_root_latency = Duration::from_micros(10);
    // CAM sizing: the root eventually holds every station (and the
    // gateway once per VLAN); aging must outlive the run or re-floods
    // would dominate the measurement.
    let aging = config.duration * 2 + Duration::from_secs(60);

    let alerts = defend.then(AlertLog::new);
    if let Some(log) = &alerts {
        log.set_tracer(tracer.clone());
    }
    sim.set_tracer(tracer);
    // The root trunks every access VLAN: port 0 (gateway) carries all
    // of them, port l+1 carries exactly leaf l's VID — mis-wired tags
    // die at the trunk instead of leaking across leaves.
    let root_vlans = vlan_fabric.then(|| {
        let uplinks =
            (0..n_leaves).map(|l| PortVlan::Trunk { allowed: VlanSet::Only(vec![leaf_vid(l)]) });
        std::iter::once(PortVlan::Trunk { allowed: VlanSet::All }).chain(uplinks).collect()
    });
    let (mut root, root_handle) = Switch::new(
        "root",
        SwitchConfig {
            ports: root_ports,
            cam_capacity: root_cam_capacity(n, config.fabric),
            cam_aging: aging,
            vlans: root_vlans,
            ..SwitchConfig::default()
        },
    );
    if let Some(log) = &alerts {
        // Root DAI: the gateway port is trusted, every leaf uplink is
        // validated against the full per-VLAN station table — the
        // second layer behind the leaf inspectors.
        let mut dai = DaiConfig::new([PortId(0)]);
        for i in 0..n {
            dai = dai.with_static_on(leaf_vid(i / LEAF_CAPACITY), station_ip(i), station_mac(i));
        }
        root.set_inspector(Box::new(DaiInspector::new(dai, log.clone())));
    }
    let root_id = sim.add_device(Box::new(root));
    let gateway_vlans =
        if vlan_fabric { (0..n_leaves).map(leaf_vid).collect() } else { Vec::new() };
    let gateway_id = sim.add_device(Box::new(ScaleGateway { vlans: gateway_vlans }));
    sim.connect(gateway_id, PortId(0), root_id, PortId(0), leaf_root_latency)
        .expect("gateway uplink");

    let mut leaf_handles = Vec::with_capacity(n_leaves);
    for leaf in 0..n_leaves {
        let leaf_hosts = LEAF_CAPACITY.min(n - leaf * LEAF_CAPACITY);
        let vid = leaf_vid(leaf);
        // Station ports are access ports on the leaf's VID; the uplink
        // trunks that VID (tagged) toward the root.
        let leaf_vlans = vlan_fabric.then(|| {
            let access = std::iter::repeat_n(PortVlan::Access { pvid: vid }, leaf_hosts);
            access.chain([PortVlan::Trunk { allowed: VlanSet::Only(vec![vid]) }]).collect()
        });
        let (mut leaf_switch, leaf_handle) = Switch::new(
            format!("leaf{leaf}"),
            SwitchConfig {
                ports: leaf_hosts + 1,
                cam_capacity: leaf_hosts + 64,
                cam_aging: aging,
                vlans: leaf_vlans,
                ..SwitchConfig::default()
            },
        );
        if let Some(log) = &alerts {
            // Leaf DAI: the uplink (where gateway replies arrive) is
            // trusted; station ports are validated against this leaf's
            // bindings plus the gateway's, all scoped to the leaf VID.
            let mut dai = DaiConfig::new([PortId(leaf_hosts as u16)]).with_static_on(
                vid,
                GATEWAY_IP,
                GATEWAY_MAC,
            );
            for p in 0..leaf_hosts {
                let i = leaf * LEAF_CAPACITY + p;
                dai = dai.with_static_on(vid, station_ip(i), station_mac(i));
            }
            leaf_switch.set_inspector(Box::new(DaiInspector::new(dai, log.clone())));
        }
        let leaf_id = sim.add_device(Box::new(leaf_switch));
        leaf_handles.push(leaf_handle);
        // Uplink on the leaf's last port, root ports 1..=n_leaves.
        sim.connect(
            leaf_id,
            PortId(leaf_hosts as u16),
            root_id,
            PortId((leaf + 1) as u16),
            leaf_root_latency,
        )
        .expect("leaf uplink");

        for p in 0..leaf_hosts {
            let i = leaf * LEAF_CAPACITY + p;
            // A salted per-station offset into the first period.
            let phase = |salt: u64, period: Duration| {
                let key = config.seed ^ salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let ns = splitmix64(key) % period.as_nanos() as u64;
                u32::try_from(ns).expect("every period is at most 2 s")
            };
            let (name, name_start) = station_name(i);
            let host = ScaleHost {
                name,
                name_start,
                mac: station_mac(i),
                ip: station_ip(i),
                chat_phase: phase(0, CHAT_PERIOD),
                churn_phase: (i < CHURNERS).then(|| phase(0xC0DE, CHURN_PERIOD)),
                spoof_phase: (i >= first_spoofer).then(|| phase(0x5D00F, SPOOF_PERIOD)),
            };
            let host_id = sim.add_device(Box::new(host));
            sim.connect(host_id, PortId(0), leaf_id, PortId(p as u16), host_leaf_latency)
                .expect("host link");
        }
    }

    ScaleLan { sim, n_hosts: n, root: root_handle, leaves: leaf_handles, alerts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arpshield_netsim::hash::FastState;
    use arpshield_netsim::SimTime;
    use std::hash::BuildHasher;

    /// Distinct values of the low 17 bits (the bucket index of a table
    /// near 100k entries) and of the top 7 bits (hashbrown's tag).
    fn spread(hashes: impl Iterator<Item = u64>) -> (usize, usize) {
        let (mut low, mut tags) = (vec![false; 1 << 17], [false; 128]);
        for h in hashes {
            low[(h & ((1 << 17) - 1)) as usize] = true;
            tags[(h >> 57) as usize] = true;
        }
        (low.iter().filter(|&&b| b).count(), tags.iter().filter(|&&b| b).count())
    }

    /// The per-frame tables key the 100k fabric's sequential station
    /// addresses by VLAN: the CAM on `(VlanId, MacAddr)`, DAI on
    /// `(VlanId, Ipv4Addr)`. A random function puts 100,000 keys into
    /// ~70k of 2^17 buckets; a hash that leaves its top bits unmixed,
    /// like one returning the key itself, collapses the tags.
    #[test]
    fn fast_hash_spreads_the_fabric_keys() {
        const N: usize = 100_000;
        let vid = |i: usize| leaf_vid(i / LEAF_CAPACITY);
        let state = FastState::new();
        for (name, (low, tags)) in [
            ("mac", spread((0..N).map(|i| state.hash_one((vid(i), station_mac(i)))))),
            ("ip", spread((0..N).map(|i| state.hash_one((vid(i), station_ip(i)))))),
        ] {
            assert!(low >= 60_000, "{name}: low 17 bits take only {low} values");
            assert_eq!(tags, 128, "{name}: top 7 bits hit only {tags} tags");
        }
        let identity =
            spread((0..N).map(|i| (u64::from(vid(i)) << 32) | u64::from(station_ip(i).to_u32())));
        assert!(identity.1 < 128, "the key itself must fail the tag check");
    }

    /// One 48-byte allocator chunk per station.
    #[test]
    fn a_station_fits_in_40_bytes() {
        let size = std::mem::size_of::<ScaleHost>();
        assert!(size <= 40, "{size} bytes");
    }

    /// The inline name spells `h{i}` up to the flat fabric's last station.
    #[test]
    fn station_names_match_the_decimal_index_up_to_the_largest_flat_one() {
        let name = |i| {
            let (bytes, start) = station_name(i);
            String::from_utf8(bytes[usize::from(start)..].to_vec()).unwrap()
        };
        let last = Fabric::Flat.max_hosts() - 1;
        assert_eq!(name(last), "h67107839");
        let edges = (0..=10).flat_map(|d| [10usize.pow(d) - 1, 10usize.pow(d)]);
        for i in (0..2000).chain(edges.filter(|&i| i <= last)).chain([last - 1, last]) {
            assert_eq!(name(i), format!("h{i}"));
        }
    }

    #[test]
    fn stations_chat_and_the_gateway_answers() {
        let config = ScaleConfig::new(7, 2500).with_duration(Duration::from_secs(3));
        let mut lan = build(config);
        lan.sim.run_until(SimTime::ZERO + config.duration);
        let stats = lan.sim.wire_stats();
        assert!(stats.frames > 0);
        // Every station spoke at least once, so the root CAM saw all
        // of them plus the gateway and never overflowed.
        let cam = lan.root.cam.borrow();
        assert!(cam.occupancy() >= 2500, "root CAM holds {} entries", cam.occupancy());
        assert_eq!(lan.root.stats.borrow().cam_full_events, 0);
        // No unlinked ports exist in the fabric.
        assert_eq!(stats.dropped_no_link, 0);
    }

    #[test]
    fn same_seed_same_wire_counters() {
        let run = |seed| {
            let config = ScaleConfig::new(seed, 600).with_duration(Duration::from_secs(2));
            let mut lan = build(config);
            lan.sim.run_until(SimTime::ZERO + config.duration);
            lan.sim.wire_stats()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).frames, 0);
    }

    #[test]
    fn root_port_count_accepts_the_full_16_bit_port_space() {
        // 65 535 leaves + the gateway port = 65 536 ports, exactly the
        // number of ids a u16 can address (0..=65535). The old bound
        // `n_leaves + 1 <= u16::MAX` rejected this valid maximum.
        assert_eq!(root_port_count(65_535 * LEAF_CAPACITY), 65_536);
        assert_eq!(root_port_count(1), 2);
    }

    #[test]
    #[should_panic(expected = "root port space exhausted")]
    fn root_port_count_rejects_a_65537th_port() {
        root_port_count(65_535 * LEAF_CAPACITY + 1);
    }

    /// `max_hosts` is exactly where each fabric's address space runs
    /// out: the flat root's last port (one station more is the 65,537th
    /// port above), and the VLAN fabric's last VID.
    #[test]
    fn max_hosts_is_the_largest_buildable_station_count() {
        let flat = Fabric::Flat.max_hosts();
        assert_eq!(root_port_count(flat), 65_536);
        assert_eq!(flat + 1, 65_535 * LEAF_CAPACITY + 1);

        let vlan = Fabric::Vlan { defend: true }.max_hosts();
        assert_eq!(vlan, Fabric::Vlan { defend: false }.max_hosts());
        assert_eq!(vlan, 4_183_040);
        assert_eq!(leaf_vid(vlan.div_ceil(LEAF_CAPACITY) - 1), 4094);
    }

    #[test]
    #[should_panic(expected = "VLAN id space exhausted")]
    fn vlan_fabric_rejects_a_station_past_its_last_vid() {
        build(
            ScaleConfig::new(1, Fabric::Vlan { defend: false }.max_hosts() + 1).with_vlan_fabric(),
        );
    }

    /// The VLAN root learns the gateway once per access VLAN on top of
    /// every station; at 100k stations (98 VLANs) that outgrew the old
    /// `hosts + 64` and refused learns. The flat root learns it once.
    #[test]
    fn root_cam_holds_every_station_and_the_gateway_per_vlan() {
        let vlan = Fabric::Vlan { defend: true };
        for n in [1, 1024, 1025, 100_000, vlan.max_hosts()] {
            let learnable = n + n.div_ceil(LEAF_CAPACITY);
            assert_eq!(root_cam_capacity(n, vlan), learnable + 64, "{n} stations");
            assert_eq!(root_cam_capacity(n, Fabric::Flat), n + 64, "{n} stations");
        }
        assert_eq!(root_cam_capacity(100_000, vlan), 100_162);
        let lan = build(ScaleConfig::new(1, 3000).with_dai());
        assert_eq!(lan.root.cam.borrow().capacity(), 3000 + 3 + 64);
    }

    #[test]
    fn vlan_fabric_still_chats_and_counts_match_across_reruns() {
        let run = || {
            let config =
                ScaleConfig::new(13, 2500).with_duration(Duration::from_secs(3)).with_vlan_fabric();
            let mut lan = build(config);
            lan.sim.run_until(SimTime::ZERO + config.duration);
            let occupancy = lan.root.cam.borrow().occupancy();
            (lan.sim.wire_stats(), occupancy)
        };
        let (stats, cam) = run();
        assert!(stats.frames > 0);
        assert_eq!(stats.dropped_no_link, 0);
        // The root CAM still learns every station, now under per-leaf
        // VIDs carried across the trunks.
        assert!(cam >= 2500, "root CAM holds {cam} entries");
        assert_eq!(run().0, stats);
    }

    #[test]
    fn dai_in_fabric_stops_spoofers_and_leaves_chat_alone() {
        let build_pair = |defend: bool| {
            let mut config =
                ScaleConfig::new(21, 2100).with_duration(Duration::from_secs(3)).with_spoofers(4);
            config.fabric = Fabric::Vlan { defend };
            let mut lan = build(config);
            lan.sim.run_until(SimTime::ZERO + config.duration);
            lan
        };

        let defended = build_pair(true);
        // Spoofed gateway claims die at the leaf DAI: every drop is
        // alerted, and nothing leaks through to the root inspector.
        let drops = defended.inspector_drops();
        assert!(drops > 0, "spoofers should trip the leaf DAI");
        let log = defended.alerts.as_ref().expect("defended fabric logs alerts");
        assert_eq!(log.len() as u64, drops);
        assert_eq!(defended.root.stats.borrow().dropped_inspector, 0);
        // Legitimate refresh traffic is untouched: the CAM still saw
        // every station.
        assert!(defended.root.cam.borrow().occupancy() >= 2100);

        let undefended = build_pair(false);
        assert_eq!(undefended.inspector_drops(), 0);
        assert!(undefended.alerts.is_none());
        // The forged frames that DAI absorbed were real offered load:
        // the undefended fabric carries more frames end to end.
        let defended_frames = defended.sim.wire_stats().frames;
        let undefended_frames = undefended.sim.wire_stats().frames;
        assert!(
            undefended_frames > defended_frames,
            "undefended {undefended_frames} vs defended {defended_frames}"
        );
    }
}
