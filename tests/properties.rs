//! Property-based tests over the workspace's foundational invariants:
//! codec round-trips on arbitrary inputs, parser totality on garbage,
//! crypto soundness, and data-structure invariants.
//!
//! Runs under the in-tree `arpshield-testkit` runner: every case derives
//! deterministically from a fixed base seed (`TESTKIT_SEED` replays a
//! failure, `TESTKIT_CASES` adjusts depth), and failing inputs are
//! greedily shrunk before being reported.

use arpshield_testkit::prelude::*;

use arpshield::crypto::{KeyPair, Signature};
use arpshield::netsim::{CamTable, PortId, SimTime};
use arpshield::packet::{
    ArpOp, ArpPacket, DhcpMessage, DhcpMessageType, DhcpOp, EtherType, EthernetEmit, EthernetView,
    IcmpMessage, IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet, MacAddr, UdpDatagram, WireEmit,
};
use std::time::Duration;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from_u32)
}

/// A DHCP message's fixed BOOTP fields, whichever form its options take.
fn dhcp_fixed<O>(m: &DhcpMessage<O>) -> (DhcpOp, u32, Ipv4Addr, Ipv4Addr, Ipv4Addr, MacAddr) {
    (m.op, m.xid, m.ciaddr, m.yiaddr, m.siaddr, m.chaddr)
}

properties! {
    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), ethertype in any::<u16>(),
                          vid in any::<u16>(),
                          payload in collection::vec(any::<u8>(), 0..1500)) {
        // Tag TPIDs (0x8100/0x88a8) are unwrapped by the parser, not
        // carried as a payload protocol; steer them to plain values.
        let ethertype = if EtherType::from_u16(ethertype).is_vlan_tag() {
            EtherType::ARP
        } else {
            EtherType::from_u16(ethertype)
        };
        let mut frame = EthernetEmit::new(dst, src, ethertype, &payload[..]);
        if vid % 2 == 0 {
            frame = frame.with_vlan(vid);
        }
        let bytes = frame.encode();
        let parsed = EthernetView::parse_strict(&bytes).unwrap();
        prop_assert_eq!(parsed.dst(), dst);
        prop_assert_eq!(parsed.src(), src);
        prop_assert_eq!(parsed.ethertype(), ethertype);
        prop_assert_eq!(parsed.vlan(), frame.vlan);
        // Padding may extend short payloads; the prefix must survive.
        prop_assert_eq!(&parsed.payload()[..payload.len()], &payload[..]);
        prop_assert!(parsed.payload().len() >= 46 || payload.len() >= 46);
        prop_assert_eq!(parsed.header_len() + parsed.payload().len(), bytes.len());
    }

    #[test]
    fn arp_roundtrip(op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
                     smac in arb_mac(), sip in arb_ip(), tmac in arb_mac(), tip in arb_ip()) {
        let pkt = ArpPacket { op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip };
        prop_assert_eq!(ArpPacket::parse(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_ip(), dst in arb_ip(), ttl in any::<u8>(), ident in any::<u16>(),
                      proto in any::<u8>(), payload in collection::vec(any::<u8>(), 0..600)) {
        let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::from_u8(proto), &payload[..]);
        pkt.ttl = ttl;
        pkt.identification = ident;
        let bytes = pkt.encode();
        prop_assert_eq!(Ipv4Packet::parse(&bytes).unwrap(), pkt);
    }

    #[test]
    fn udp_roundtrip(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(),
                     payload in collection::vec(any::<u8>(), 0..600)) {
        let dgram = UdpDatagram::new(sp, dp, src, dst, &payload[..]);
        let bytes = dgram.encode();
        prop_assert_eq!(UdpDatagram::parse(&bytes, src, dst).unwrap(), dgram);
    }

    #[test]
    fn icmp_roundtrip(ident in any::<u16>(), seq in any::<u16>(),
                      payload in collection::vec(any::<u8>(), 0..400)) {
        let msg = IcmpMessage::echo_request(ident, seq, &payload);
        let bytes = msg.encode();
        prop_assert_eq!(IcmpMessage::parse(&bytes).unwrap(), msg);
    }

    /// Emit, then parse as a view: the view reads back the same fixed
    /// fields and walks out the same typed options, in order.
    #[test]
    fn dhcp_roundtrip(xid in any::<u32>(), chaddr in arb_mac(), requested in arb_ip(), server in arb_ip(),
                      lease in any::<u32>()) {
        let discover = DhcpMessage::discover(xid, chaddr);
        let request = DhcpMessage::request(xid, chaddr, requested, server);
        let release = DhcpMessage::release(xid, chaddr, requested, server);
        let ack = DhcpMessage::reply(DhcpMessageType::Ack, &request, requested, server, lease,
                                     Ipv4Addr::new(255, 255, 0, 0), server);
        for (bytes, fixed, options) in [
            (discover.encode(), dhcp_fixed(&discover), discover.options.to_vec()),
            (request.encode(), dhcp_fixed(&request), request.options.to_vec()),
            (release.encode(), dhcp_fixed(&release), release.options.to_vec()),
            (ack.encode(), dhcp_fixed(&ack), ack.options.to_vec()),
        ] {
            let view = DhcpMessage::parse(&bytes).unwrap();
            prop_assert_eq!(dhcp_fixed(&view), fixed);
            prop_assert_eq!(view.options().collect::<Vec<_>>(), options);
        }
    }

    /// Every parser is total: arbitrary bytes never panic, they parse or
    /// return an error. (Detection schemes feed attacker-controlled bytes
    /// straight in.)
    #[test]
    fn parsers_are_total_on_garbage(bytes in collection::vec(any::<u8>(), 0..200)) {
        // The view reads its fields lazily, so its accessors must be
        // total too, not just the parse.
        if let Ok(view) = EthernetView::parse(&bytes) {
            let _ = (view.dst(), view.src(), view.payload(), view.is_broadcast());
        }
        let _ = EthernetView::parse_strict(&bytes);
        let _ = ArpPacket::parse(&bytes);
        let _ = Ipv4Packet::parse(&bytes);
        let _ = IcmpMessage::parse(&bytes);
        let _ = DhcpMessage::parse(&bytes);
        let _ = UdpDatagram::parse(&bytes, Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST);
        let _ = Signature::from_bytes(&bytes);
    }

    /// Single-bit corruption of a checksummed packet is always caught.
    #[test]
    fn ipv4_header_bitflips_detected(bit in 0usize..(20 * 8)) {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            &[1u8, 2, 3][..],
        );
        let mut bytes = pkt.encode();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the checksum fires or another structural check does; a
        // silently different-but-accepted header is only possible when the
        // flip hits... nothing: every header bit is covered by the
        // checksum, so any flip must be rejected.
        prop_assert!(Ipv4Packet::parse(&bytes).is_err(), "bit {} undetected", bit);
    }

    #[test]
    fn signatures_bind_message_and_key(seed1 in any::<u64>(), seed2 in any::<u64>(),
                                       msg1 in collection::vec(any::<u8>(), 1..64),
                                       msg2 in collection::vec(any::<u8>(), 1..64)) {
        let kp1 = KeyPair::from_seed(seed1);
        let sig = kp1.sign(&msg1);
        prop_assert!(kp1.public_key().verify(&msg1, &sig).is_ok());
        if msg1 != msg2 {
            prop_assert!(kp1.public_key().verify(&msg2, &sig).is_err());
        }
        if seed1 != seed2 {
            let kp2 = KeyPair::from_seed(seed2);
            prop_assert!(kp2.public_key().verify(&msg1, &sig).is_err());
        }
    }

    /// Signatures survive their wire round-trip: `to_bytes`/`from_bytes`
    /// is lossless and the reparsed signature still verifies.
    #[test]
    fn signature_wire_roundtrip(seed in any::<u64>(), msg in collection::vec(any::<u8>(), 1..64)) {
        let kp = KeyPair::from_seed(seed);
        let sig = kp.sign(&msg);
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        prop_assert_eq!(parsed.to_bytes(), sig.to_bytes());
        prop_assert!(kp.public_key().verify(&msg, &parsed).is_ok());
    }

    /// CAM capacity is an invariant under arbitrary learn/sweep schedules.
    #[test]
    fn cam_never_exceeds_capacity(ops in collection::vec((any::<u32>(), 0u16..8, any::<bool>()), 1..200),
                                  capacity in 1usize..64) {
        let mut cam = CamTable::new(capacity, Duration::from_secs(60));
        let mut t = 0u64;
        for (mac, port, sweep) in ops {
            t += 1;
            if sweep {
                cam.sweep(SimTime::from_secs(t));
            } else {
                cam.learn(SimTime::from_secs(t), MacAddr::from_index(mac % 100), PortId(port));
            }
            prop_assert!(cam.occupancy() <= capacity);
        }
    }

    /// A station moving between ports: the CAM always reports the port of
    /// the *latest* learn, and re-learning an existing MAC never grows
    /// the table (the mechanism a switch relies on when hosts roam — and
    /// the one MAC flooding abuses).
    #[test]
    fn cam_learn_move_tracks_latest_port(mac_idx in any::<u32>(),
                                         moves in collection::vec(0u16..8, 1..50)) {
        let mac = MacAddr::from_index(mac_idx % 1000);
        let mut cam = CamTable::new(16, Duration::from_secs(60));
        for (i, port) in moves.iter().enumerate() {
            cam.learn(SimTime::from_secs(i as u64), mac, PortId(*port));
            prop_assert_eq!(cam.lookup(mac), Some(PortId(*port)));
            prop_assert_eq!(cam.occupancy(), 1);
        }
    }

    /// CIDR membership is consistent with host enumeration.
    #[test]
    fn cidr_hosts_are_members(base in arb_ip(), prefix in 8u8..=30, n in 1u32..64) {
        let net = Ipv4Cidr::new(base, prefix);
        if let Some(host) = net.host(n) {
            prop_assert!(net.contains(host));
            prop_assert_ne!(host, net.network());
            prop_assert_ne!(host, net.broadcast());
        }
    }

    /// MAC text form round-trips for arbitrary addresses.
    #[test]
    fn mac_display_roundtrip(mac in arb_mac()) {
        let text = mac.to_string();
        prop_assert_eq!(text.parse::<MacAddr>().unwrap(), mac);
    }
}

// --- crypto field and ticket properties ---

properties! {
    /// The fast Mersenne multiply agrees with the generic shift-add
    /// multiply on arbitrary field elements.
    #[test]
    fn field_mul_matches_reference(a in any::<u128>(), b in any::<u128>()) {
        use arpshield::crypto::field::{mul, mulmod, P};
        let a = a % P;
        let b = b % P;
        prop_assert_eq!(mul(a, b), mulmod(a, b, P));
    }

    /// Exponentiation laws hold: g^(a+b) = g^a · g^b (mod p).
    #[test]
    fn field_pow_is_homomorphic(a in 0u128..1u128 << 64, b in 0u128..1u128 << 64) {
        use arpshield::crypto::field::{mul, pow};
        let g = 3u128;
        prop_assert_eq!(pow(g, a + b), mul(pow(g, a), pow(g, b)));
    }

    /// An impairment profile with `loss_prob = 0` (and every other knob
    /// inert) must replay the exact frame schedule of a perfect wire for
    /// any seed — the impaired delivery path may not perturb timing,
    /// ordering, or byte counts when it has nothing to do.
    #[test]
    fn inert_impairment_is_byte_identical(seed in any::<u64>(), latency_us in 1u64..50) {
        use arpshield::netsim::{
            Device, DeviceCtx, FlapSchedule, LinkProfile, PortId, SimTime, Simulator,
        };
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Bounces a counter frame back and forth a fixed number of
        /// hops, logging when each hop arrives.
        struct Bouncer {
            serve: bool,
            log: Rc<RefCell<Vec<(u64, u8)>>>,
        }
        impl Device for Bouncer {
            fn name(&self) -> &str {
                "bouncer"
            }
            fn port_count(&self) -> usize {
                1
            }
            fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
                if self.serve {
                    ctx.send(PortId(0), vec![0]);
                }
            }
            fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, _port: PortId, frame: &[u8]) {
                self.log.borrow_mut().push((ctx.now().as_nanos(), frame[0]));
                if frame[0] < 40 {
                    ctx.send(PortId(0), vec![frame[0] + 1]);
                }
            }
        }

        let fingerprint = |profile: Option<LinkProfile>| -> Vec<(u64, u8)> {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(seed);
            let a = sim.add_device(Box::new(Bouncer { serve: true, log: Rc::clone(&log) }));
            let b = sim.add_device(Box::new(Bouncer { serve: false, log: Rc::clone(&log) }));
            let latency = Duration::from_micros(latency_us);
            match profile {
                Some(p) => sim.connect_impaired(a, PortId(0), b, PortId(0), latency, p).unwrap(),
                None => sim.connect(a, PortId(0), b, PortId(0), latency).unwrap(),
            }
            sim.run_until(SimTime::from_secs(1));
            log.take()
        };

        // A profile that is *not* `is_perfect()` (the flap forces the
        // impaired delivery path) but whose draws can never fire: the
        // outage starts long after the run ends.
        let inert = LinkProfile::default().with_loss(0.0).with_dup(0.0).with_flap(FlapSchedule {
            offset: Duration::from_secs(3600),
            down_for: Duration::from_secs(1),
            period: Duration::from_secs(7200),
        });
        prop_assert_eq!(fingerprint(Some(inert)), fingerprint(None));
    }

    /// TARP tickets round-trip and never verify under the wrong key or
    /// after expiry.
    #[test]
    fn tarp_ticket_properties(seed in any::<u64>(), ip in any::<u32>(), mac in any::<[u8; 6]>(),
                              expiry_s in 1u64..1_000_000) {
        use arpshield::crypto::KeyPair;
        use arpshield::netsim::SimTime;
        use arpshield::schemes::Ticket;
        let lta = KeyPair::from_seed(seed);
        let ticket = Ticket::issue(
            &lta,
            Ipv4Addr::from_u32(ip),
            MacAddr::new(mac),
            SimTime::from_secs(expiry_s),
        );
        let parsed = Ticket::from_bytes(&ticket.to_bytes()).unwrap();
        prop_assert_eq!(parsed, ticket);
        prop_assert!(ticket.verify(&lta.public_key(), SimTime::from_secs(expiry_s - 1)));
        prop_assert!(!ticket.verify(&lta.public_key(), SimTime::from_secs(expiry_s)));
        let other = KeyPair::from_seed(seed.wrapping_add(1));
        prop_assert!(!ticket.verify(&other.public_key(), SimTime::ZERO));
    }

    /// The empirical CDF is a valid distribution function for any sample
    /// set: sorted x, monotone y, ending at exactly 1.
    #[test]
    fn series_cdf_is_valid(samples in collection::vec(0.0f64..1e9, 1..200)) {
        use arpshield::analysis::Series;
        let s = Series::cdf("p", "x", samples.clone());
        let pts = s.points();
        prop_assert_eq!(pts.len(), samples.len());
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    /// ARP cache: static entries survive any sequence of dynamic writes.
    #[test]
    fn static_entries_are_immovable(writes in collection::vec((any::<u32>(), any::<u32>()), 0..100)) {
        use arpshield::host::{ArpCache, EntryOrigin};
        use arpshield::netsim::SimTime;
        let protected_ip = Ipv4Addr::new(10, 0, 0, 1);
        let protected_mac = MacAddr::from_index(1);
        let mut cache = ArpCache::new(std::time::Duration::from_secs(60));
        cache.insert_static(SimTime::ZERO, protected_ip, protected_mac);
        for (i, (ip, mac)) in writes.iter().enumerate() {
            cache.insert_dynamic(
                SimTime::from_secs(i as u64),
                Ipv4Addr::from_u32(*ip),
                MacAddr::from_index(*mac),
                EntryOrigin::UnsolicitedReply,
            );
        }
        prop_assert_eq!(
            cache.lookup(SimTime::from_secs(1_000_000), protected_ip),
            Some(protected_mac)
        );
    }
}

/// Fan-out devices (hub repeat, switch flood) forward *shared* frame
/// buffers instead of per-copy clones; these properties pin down that
/// the optimisation is invisible on the wire — every delivered copy is
/// byte-equal to the frame the sender emitted, exactly as the old
/// clone-per-copy substrate behaved.
mod frame_sharing {
    use super::*;
    use arpshield::netsim::{Device, DeviceCtx, Hub, Simulator, Switch, SwitchConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    /// Emits one fixed frame at start-up.
    struct Sender {
        bytes: Vec<u8>,
    }

    impl Device for Sender {
        fn name(&self) -> &str {
            "sender"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send(PortId(0), self.bytes.clone());
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {}
    }

    /// Records every delivered frame's bytes.
    struct Sink {
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl Device for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
            self.got.borrow_mut().push(frame.to_vec());
        }
    }

    /// Wires `ports - 1` sinks to a fan-out device, fires one frame into
    /// port 0, and returns what every sink saw.
    fn deliver(
        device: Box<dyn Device>,
        ports: usize,
        bytes: Vec<u8>,
    ) -> Vec<Rc<RefCell<Vec<Vec<u8>>>>> {
        let mut sim = Simulator::new(1);
        let fanout = sim.add_device(device);
        let src = sim.add_device(Box::new(Sender { bytes }));
        sim.connect(src, PortId(0), fanout, PortId(0), Duration::from_micros(1)).unwrap();
        let mut sinks = Vec::new();
        for p in 1..ports as u16 {
            let got = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.add_device(Box::new(Sink { got: Rc::clone(&got) }));
            sim.connect(sink, PortId(0), fanout, PortId(p), Duration::from_micros(1)).unwrap();
            sinks.push(got);
        }
        sim.run_until(SimTime::from_secs(1));
        sinks
    }

    properties! {
        #[test]
        fn hub_repeat_is_byte_identical(payload in collection::vec(any::<u8>(), 1..600),
                                        ports in 2usize..9) {
            let sinks = deliver(Box::new(Hub::new("hub", ports)), ports, payload.clone());
            for got in &sinks {
                let got = got.borrow();
                prop_assert_eq!(got.as_slice(), std::slice::from_ref(&payload));
            }
        }

        #[test]
        fn switch_flood_is_byte_identical(inner in collection::vec(any::<u8>(), 0..600),
                                          src_idx in 1u32..1000, ports in 2usize..9) {
            let encoded = EthernetEmit::new(
                MacAddr::BROADCAST,
                MacAddr::from_index(src_idx),
                EtherType::Other(0x1234),
                &inner[..],
            )
            .encode();
            let (sw, _) = Switch::new("sw", SwitchConfig { ports, ..Default::default() });
            let sinks = deliver(Box::new(sw), ports, encoded.clone());
            for got in &sinks {
                let got = got.borrow();
                prop_assert_eq!(got.as_slice(), std::slice::from_ref(&encoded));
            }
        }
    }
}

/// The trace layer's aggregation invariants: bucketing is monotone and
/// total, merging is associative/commutative (so worker interleaving
/// cannot change a manifest), and CSV escaping round-trips any field.
mod trace_invariants {
    use super::*;
    use arpshield::trace::{bucket_of, bucket_range, csv_escape, Histogram, BUCKETS};

    /// Minimal CSV field unquoter (the inverse of `csv_escape`).
    fn csv_unescape(field: &str) -> String {
        match field.strip_prefix('"').and_then(|f| f.strip_suffix('"')) {
            Some(inner) => inner.replace("\"\"", "\""),
            None => field.to_string(),
        }
    }

    properties! {
        #[test]
        fn histogram_bucketing_is_monotone_and_total(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(bucket_of(lo) <= bucket_of(hi), "bucketing must be monotone");
            prop_assert!(bucket_of(hi) < BUCKETS, "every u64 lands in a bucket");
            let (lo_bound, hi_bound) = bucket_range(bucket_of(a));
            prop_assert!(lo_bound <= a && a <= hi_bound, "value lies in its bucket's range");
        }

        #[test]
        fn histogram_merge_is_associative_and_commutative(
            xs in collection::vec(any::<u64>(), 0..40),
            ys in collection::vec(any::<u64>(), 0..40),
            zs in collection::vec(any::<u64>(), 0..40),
        ) {
            let hist = |vals: &[u64]| {
                let mut h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (x, y, z) = (hist(&xs), hist(&ys), hist(&zs));

            // (x + y) + z == x + (y + z): worker scheduling order is moot.
            let mut left = x.clone();
            left.merge(&y);
            left.merge(&z);
            let mut right_tail = y.clone();
            right_tail.merge(&z);
            let mut right = x.clone();
            right.merge(&right_tail);
            prop_assert_eq!(&left, &right);

            // x + y == y + x.
            let mut xy = x.clone();
            xy.merge(&y);
            let mut yx = y.clone();
            yx.merge(&x);
            prop_assert_eq!(&xy, &yx);

            // Merging equals recording the concatenation directly.
            let mut all = xs.clone();
            all.extend(&ys);
            all.extend(&zs);
            prop_assert_eq!(&left, &hist(&all));
        }

        /// The 65-bin histogram's quantile bounds always bracket the
        /// exact sample quantile (nearest-rank definition), and the
        /// exported p50/p90/p99 estimate is the bracket's upper bound.
        #[test]
        fn histogram_quantiles_bracket_exact(samples in collection::vec(any::<u64>(), 1..400)) {
            let mut h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let (lo, hi) = h.quantile_bounds(q).unwrap();
                prop_assert!(
                    lo <= exact && exact <= hi,
                    "q={} exact={} outside bounds [{}, {}]", q, exact, lo, hi
                );
                prop_assert_eq!(h.quantile_estimate(q), Some(hi));
            }
        }

        #[test]
        fn counter_total_merge_is_order_independent(
            counts in collection::vec((0u8..4, 0u64..1_000_000), 0..30),
        ) {
            // Counter merge is per-name addition; any grouping of the
            // per-run deltas must produce the same totals.
            use std::collections::BTreeMap;
            let names = ["a", "b", "c", "d"];
            let mut forward: BTreeMap<&str, u64> = BTreeMap::new();
            for &(which, n) in &counts {
                *forward.entry(names[which as usize]).or_insert(0) += n;
            }
            let mut backward: BTreeMap<&str, u64> = BTreeMap::new();
            for &(which, n) in counts.iter().rev() {
                *backward.entry(names[which as usize]).or_insert(0) += n;
            }
            prop_assert_eq!(forward, backward);
        }

        #[test]
        fn csv_escape_roundtrips_any_field(field in collection::vec(any::<u8>(), 0..80)) {
            let field: String = field.into_iter().map(|b| b as char).collect();
            let escaped = csv_escape(&field);
            // An escaped field never leaks a bare separator or newline.
            if escaped == field {
                prop_assert!(!field.contains([',', '\n', '\r', '"']));
            } else {
                prop_assert!(escaped.starts_with('"') && escaped.ends_with('"'));
            }
            prop_assert_eq!(csv_unescape(&escaped), field);
        }
    }
}

/// The wheel scheduler and the recycling frame pool are the structures
/// the 100k-host scale-up rests on; these properties pin the contracts
/// the rest of the workspace assumes of them.
mod scheduler_and_pool {
    use arpshield_testkit::prelude::*;

    properties! {
        /// The timing wheel is observationally a *stable* min-heap on
        /// `(timestamp, insertion order)`: any interleaving of pushes,
        /// pops and deadline-bounded pops replays exactly the sequence a
        /// seq-tagged `BinaryHeap` reference produces — including
        /// timestamp ties, day-long entries, pushes right after a
        /// deadline fell short of the next entry, and any time up to
        /// `SimTime::MAX`, before and after it pops.
        #[test]
        fn timing_wheel_matches_heap_order(
            ops in collection::vec((any::<u64>(), any::<u8>()), 1..200),
        ) {
            use arpshield::netsim::{SimTime, TimingWheel};
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;

            let mut wheel: TimingWheel<usize> = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            let mut clock = 0u64;
            let mut seq = 0u64;
            for (i, &(raw, kind)) in ops.iter().enumerate() {
                if kind % 4 == 0 {
                    // Half the pops carry a deadline from the clock to
                    // twice the next entry's distance.
                    let front = heap.peek().map(|Reverse((at, ..))| *at);
                    let deadline = match (kind % 8, front) {
                        (4, Some(front)) => {
                            clock.saturating_add(raw % (front - clock).saturating_mul(2).max(1))
                        }
                        _ => u64::MAX,
                    };
                    let got = wheel.pop_until(SimTime::from_nanos(deadline));
                    let got = got.map(|(at, item)| (at.as_nanos(), item));
                    let want = match front {
                        Some(front) if front <= deadline => {
                            heap.pop().map(|Reverse((at, _, item))| (at, item))
                        }
                        _ => None,
                    };
                    prop_assert_eq!(got, want);
                    match (got, front) {
                        (Some((at, _)), _) => clock = at,
                        // The wheel has pumped ahead to the next entry's
                        // window: push before it.
                        (None, Some(front)) => {
                            let at = clock + (raw >> 8) % (front - clock);
                            wheel.push(SimTime::from_nanos(at), i);
                            heap.push(Reverse((at, seq, i)));
                            seq += 1;
                        }
                        (None, None) => {}
                    }
                } else {
                    // Spread delays across wheel levels: frequent ties,
                    // second-scale scatter, day-scale jumps, and jumps
                    // of any size, which often saturate at the top of
                    // the clock.
                    let delay = match kind % 8 {
                        1 | 5 => raw % 4,
                        2 | 6 => raw % 10_000_000_000,
                        3 => raw % 200_000_000_000_000,
                        _ => raw,
                    };
                    let at = clock.saturating_add(delay);
                    wheel.push(SimTime::from_nanos(at), i);
                    heap.push(Reverse((at, seq, i)));
                    seq += 1;
                }
            }
            loop {
                let got = wheel.pop().map(|(at, item)| (at.as_nanos(), item));
                let want = heap.pop().map(|Reverse((at, _, item))| (at, item));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }

        /// A recycled frame buffer is byte-identical to its new
        /// payload: nothing a previous frame left in the allocation
        /// ever leaks through, and a buffer still shared by a live
        /// clone is never handed to a new frame.
        #[test]
        fn frame_recycling_never_leaks_stale_bytes(
            poison in collection::vec(any::<u8>(), 0..2000),
            payload in collection::vec(any::<u8>(), 0..2000),
        ) {
            use arpshield::netsim::Frame;

            let dirty = Frame::from(poison.clone());
            prop_assert_eq!(dirty.as_slice(), &poison[..]);
            drop(dirty);
            let fresh = Frame::from(payload.clone());
            prop_assert_eq!(fresh.len(), payload.len());
            prop_assert_eq!(fresh.as_slice(), &payload[..]);
            // A live clone pins the buffer: dropping one handle must
            // not recycle it out from under the survivor.
            let keep = fresh.clone();
            drop(fresh);
            let churn = Frame::from(poison);
            prop_assert_eq!(keep.as_slice(), &payload[..]);
            prop_assert!(churn.len() <= 2000);
        }
    }
}

/// Byte-identity of the in-place wire writers against independent
/// reference encoders.
///
/// The legacy `encode()` methods are now thin shims over the mutable
/// view writers, so comparing `encode()` to itself would prove nothing.
/// Each reference encoder below re-implements the original Vec-building
/// serialization (including an independent ones'-complement checksum)
/// from the wire-format spec; any drift the redesign introduced into
/// header layout, padding, or checksums shows up here as a shrunk
/// counterexample.
mod wire_emit_identity {
    use super::*;
    use arpshield::netsim::{eth_frame, Frame};
    use arpshield::packet::DhcpOption;

    /// Independent RFC 1071 checksum over a contiguous byte string (odd
    /// trailing byte zero-padded).
    fn ref_checksum(bytes: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        for chunk in bytes.chunks(2) {
            let word = if chunk.len() == 2 {
                u16::from_be_bytes([chunk[0], chunk[1]])
            } else {
                u16::from_be_bytes([chunk[0], 0])
            };
            sum += u32::from(word);
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    fn pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&src.octets());
        out.extend_from_slice(&dst.octets());
        out.push(0);
        out.push(protocol);
        out.extend_from_slice(&len.to_be_bytes());
        out
    }

    fn ref_ethernet(f: &EthernetEmit<'_, [u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(f.dst.as_bytes());
        out.extend_from_slice(f.src.as_bytes());
        if let Some(vid) = f.vlan {
            out.extend_from_slice(&0x8100u16.to_be_bytes());
            out.extend_from_slice(&(vid & 0x0FFF).to_be_bytes());
        }
        out.extend_from_slice(&f.ethertype.to_u16().to_be_bytes());
        out.extend_from_slice(f.payload);
        out.resize(out.len() + 46usize.saturating_sub(f.payload.len()), 0);
        out
    }

    fn ref_arp(p: &ArpPacket) -> Vec<u8> {
        let mut out = vec![0, 1, 8, 0, 6, 4]; // htype 1, ptype 0x0800, hlen, plen
        out.extend_from_slice(&p.op.to_u16().to_be_bytes());
        out.extend_from_slice(p.sender_mac.as_bytes());
        out.extend_from_slice(&p.sender_ip.octets());
        out.extend_from_slice(p.target_mac.as_bytes());
        out.extend_from_slice(&p.target_ip.octets());
        out
    }

    fn ref_ipv4(p: &Ipv4Packet) -> Vec<u8> {
        let total = 20 + p.payload.len();
        let mut h = vec![0u8; 20];
        h[0] = 0x45;
        h[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        h[4..6].copy_from_slice(&p.identification.to_be_bytes());
        h[8] = p.ttl;
        h[9] = p.protocol.to_u8();
        h[12..16].copy_from_slice(&p.src.octets());
        h[16..20].copy_from_slice(&p.dst.octets());
        let ck = ref_checksum(&h);
        h[10..12].copy_from_slice(&ck.to_be_bytes());
        h.extend_from_slice(p.payload);
        h
    }

    fn ref_udp(d: &UdpDatagram) -> Vec<u8> {
        let len = (8 + d.payload.len()) as u16;
        let mut out = Vec::new();
        out.extend_from_slice(&d.src_port.to_be_bytes());
        out.extend_from_slice(&d.dst_port.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(d.payload);
        let mut covered = pseudo_header(d.src, d.dst, 17, len);
        covered.extend_from_slice(&out);
        let mut ck = ref_checksum(&covered);
        if ck == 0 {
            ck = 0xffff;
        }
        out[6..8].copy_from_slice(&ck.to_be_bytes());
        out
    }

    fn ref_icmp(m: &IcmpMessage) -> Vec<u8> {
        let mut out = vec![m.icmp_type.to_u8(), 0, 0, 0];
        out.extend_from_slice(&m.identifier.to_be_bytes());
        out.extend_from_slice(&m.sequence.to_be_bytes());
        out.extend_from_slice(m.payload);
        let ck = ref_checksum(&out);
        out[2..4].copy_from_slice(&ck.to_be_bytes());
        out
    }

    fn ref_dhcp(m: &DhcpMessage<Vec<DhcpOption<'_>>>) -> Vec<u8> {
        let mut out = vec![0u8; 236];
        out[0] = m.op.to_u8();
        out[1] = 1; // htype: ethernet
        out[2] = 6; // hlen
        out[4..8].copy_from_slice(&m.xid.to_be_bytes());
        out[10] = 0x80; // broadcast flag
        out[12..16].copy_from_slice(&m.ciaddr.octets());
        out[16..20].copy_from_slice(&m.yiaddr.octets());
        out[20..24].copy_from_slice(&m.siaddr.octets());
        out[28..34].copy_from_slice(m.chaddr.as_bytes());
        out.extend_from_slice(&[99, 130, 83, 99]);
        for opt in &m.options {
            match opt {
                DhcpOption::SubnetMask(a) => push_addr_opt(&mut out, 1, *a),
                DhcpOption::Router(a) => push_addr_opt(&mut out, 3, *a),
                DhcpOption::DnsServer(a) => push_addr_opt(&mut out, 6, *a),
                DhcpOption::RequestedIp(a) => push_addr_opt(&mut out, 50, *a),
                DhcpOption::LeaseTime(t) => {
                    out.extend_from_slice(&[51, 4]);
                    out.extend_from_slice(&t.to_be_bytes());
                }
                DhcpOption::MessageType(t) => out.extend_from_slice(&[53, 1, t.to_u8()]),
                DhcpOption::ServerId(a) => push_addr_opt(&mut out, 54, *a),
                DhcpOption::Other(code, data) => {
                    out.push(*code);
                    out.push(data.len() as u8);
                    out.extend_from_slice(data);
                }
            }
        }
        out.push(255);
        out
    }

    fn push_addr_opt(out: &mut Vec<u8>, code: u8, addr: Ipv4Addr) {
        out.push(code);
        out.push(4);
        out.extend_from_slice(&addr.octets());
    }

    /// A generated option. An unknown option's bytes are owned here and
    /// lent to the message, which borrows them.
    #[derive(Debug, Clone)]
    enum ArbOption {
        Typed(DhcpOption<'static>),
        Other(u8, Vec<u8>),
    }

    impl ArbOption {
        fn lend(&self) -> DhcpOption<'_> {
            match self {
                ArbOption::Typed(option) => *option,
                ArbOption::Other(code, data) => DhcpOption::Other(*code, data),
            }
        }
    }

    fn arb_dhcp_option() -> impl Strategy<Value = ArbOption> {
        prop_oneof![
            arb_ip().prop_map(|a| ArbOption::Typed(DhcpOption::SubnetMask(a))),
            arb_ip().prop_map(|a| ArbOption::Typed(DhcpOption::Router(a))),
            arb_ip().prop_map(|a| ArbOption::Typed(DhcpOption::DnsServer(a))),
            arb_ip().prop_map(|a| ArbOption::Typed(DhcpOption::RequestedIp(a))),
            any::<u32>().prop_map(|t| ArbOption::Typed(DhcpOption::LeaseTime(t))),
            prop_oneof![
                Just(DhcpMessageType::Discover),
                Just(DhcpMessageType::Offer),
                Just(DhcpMessageType::Request),
                Just(DhcpMessageType::Ack),
                Just(DhcpMessageType::Nak),
                Just(DhcpMessageType::Release),
            ]
            .prop_map(|t| ArbOption::Typed(DhcpOption::MessageType(t))),
            arb_ip().prop_map(|a| ArbOption::Typed(DhcpOption::ServerId(a))),
            (1u8..=254, collection::vec(any::<u8>(), 0..40))
                .prop_map(|(code, data)| ArbOption::Other(code, data)),
        ]
    }

    properties! {
        #[test]
        fn ethernet_emit_matches_reference(dst in arb_mac(), src in arb_mac(),
                                           ethertype in any::<u16>(), vid in any::<u16>(),
                                           payload in collection::vec(any::<u8>(), 0..1500)) {
            let ethertype = if EtherType::from_u16(ethertype).is_vlan_tag() {
                EtherType::ARP
            } else {
                EtherType::from_u16(ethertype)
            };
            let mut frame = EthernetEmit::new(dst, src, ethertype, &payload[..]);
            if vid % 2 == 0 {
                frame = frame.with_vlan(vid);
            }
            prop_assert_eq!(frame.encode(), ref_ethernet(&frame));
        }

        #[test]
        fn arp_emit_matches_reference(op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
                                      smac in arb_mac(), sip in arb_ip(),
                                      tmac in arb_mac(), tip in arb_ip()) {
            let pkt = ArpPacket {
                op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip,
            };
            prop_assert_eq!(pkt.encode(), ref_arp(&pkt));
        }

        #[test]
        fn ipv4_emit_matches_reference(src in arb_ip(), dst in arb_ip(), ttl in any::<u8>(),
                                       ident in any::<u16>(), proto in any::<u8>(),
                                       payload in collection::vec(any::<u8>(), 0..600)) {
            let mut pkt = Ipv4Packet::new(src, dst, IpProtocol::from_u8(proto), &payload[..]);
            pkt.ttl = ttl;
            pkt.identification = ident;
            prop_assert_eq!(pkt.encode(), ref_ipv4(&pkt));
        }

        #[test]
        fn udp_emit_matches_reference(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(),
                                      dp in any::<u16>(),
                                      payload in collection::vec(any::<u8>(), 0..600)) {
            let dgram = UdpDatagram::new(sp, dp, src, dst, &payload[..]);
            prop_assert_eq!(dgram.encode(), ref_udp(&dgram));
        }

        #[test]
        fn icmp_emit_matches_reference(ident in any::<u16>(), seq in any::<u16>(),
                                       payload in collection::vec(any::<u8>(), 0..200)) {
            let req = IcmpMessage::echo_request(ident, seq, &payload);
            prop_assert_eq!(req.encode(), ref_icmp(&req));
            let rep = IcmpMessage::reply_to(&req);
            prop_assert_eq!(rep.encode(), ref_icmp(&rep));
        }

        #[test]
        fn dhcp_emit_matches_reference(op in prop_oneof![Just(DhcpOp::BootRequest),
                                                         Just(DhcpOp::BootReply)],
                                       xid in any::<u32>(), ci in arb_ip(), yi in arb_ip(),
                                       si in arb_ip(), chaddr in arb_mac(),
                                       options in collection::vec(arb_dhcp_option(), 0..8)) {
            let options = options.iter().map(ArbOption::lend).collect();
            let msg = DhcpMessage {
                op, xid, ciaddr: ci, yiaddr: yi, siaddr: si, chaddr, options,
            };
            prop_assert_eq!(msg.encode(), ref_dhcp(&msg));
        }

        /// The pooled TX constructor hands out recycled buffers; whatever a
        /// previous tenant wrote must never show through, and the closure's
        /// bytes must come back exactly.
        #[test]
        fn frame_build_never_exposes_stale_bytes(poison in collection::vec(1u8..=255, 1..1500),
                                                 len in 0usize..1500, fill in any::<u8>(),
                                                 written in 0usize..1500) {
            let written = written.min(len);
            let tenant = Frame::from(poison);
            drop(tenant); // recycled: the next build reuses this buffer
            let frame = Frame::build(len, |buf| {
                buf[..written].fill(fill);
                buf.len()
            });
            prop_assert_eq!(frame.len(), len);
            prop_assert!(frame[..written].iter().all(|&b| b == fill));
            // Everything the closure did not touch reads back as zero —
            // the pre-zeroing that doubles as Ethernet padding.
            prop_assert!(frame[written..].iter().all(|&b| b == 0));
        }

        /// The netsim TX one-liner, which emits into a pooled frame buffer,
        /// produces exactly the bytes of the owned `encode`.
        #[test]
        fn eth_frame_matches_owned_encoder(dst in arb_mac(), src in arb_mac(),
                                           ethertype in any::<u16>(),
                                           payload in collection::vec(any::<u8>(), 0..600)) {
            let ethertype = if EtherType::from_u16(ethertype).is_vlan_tag() {
                EtherType::ARP
            } else {
                EtherType::from_u16(ethertype)
            };
            let owned = EthernetEmit::new(dst, src, ethertype, &payload[..]).encode();
            let pooled = eth_frame(dst, src, ethertype, &payload[..]);
            prop_assert_eq!(pooled.as_slice(), &owned[..]);
        }

        /// Streaming a byte string through `Checksum::add_bytes` in
        /// arbitrary chunks — odd-length ones included — folds to what
        /// the 16-bit `ref_checksum` does over the whole buffer, though
        /// the checksum sums eight bytes per step. The incremental
        /// checksum must carry a dangling odd byte *across* calls, not
        /// pad each chunk independently. Half the buffers are all 0xFF,
        /// whose every add carries, and words from `add_u16`/`add_u32`
        /// fall between the chunks, as UDP's pseudo-header interleaves
        /// them.
        #[test]
        fn checksum_chunking_is_split_invariant(
            bytes in collection::vec(any::<u8>(), 0..1601),
            all_ones in any::<bool>(),
            cuts in collection::vec((any::<u16>(), any::<u32>(), 0u8..3), 0..12),
        ) {
            use arpshield::packet::Checksum;

            let bytes = if all_ones { vec![0xff; bytes.len()] } else { bytes };
            let mut whole = Checksum::new();
            whole.add_bytes(&bytes);

            // Random split points, sorted and clamped into range; runs
            // of equal cuts feed empty slices through the stream too.
            let mut cuts: Vec<(usize, u32, u8)> = cuts
                .iter()
                .map(|&(cut, word, kind)| (cut as usize % (bytes.len() + 1), word, kind))
                .collect();
            cuts.sort_unstable_by_key(|&(cut, ..)| cut);
            let mut chunked = Checksum::new();
            // The words sum as if appended, word-aligned, to the bytes.
            let mut words = Vec::new();
            let mut start = 0;
            for (cut, word, kind) in cuts {
                chunked.add_bytes(&bytes[start..cut]);
                start = cut;
                match kind {
                    1 => {
                        chunked.add_u16(word as u16);
                        words.extend_from_slice(&(word as u16).to_be_bytes());
                    }
                    2 => {
                        chunked.add_u32(word);
                        words.extend_from_slice(&word.to_be_bytes());
                    }
                    _ => {}
                }
            }
            chunked.add_bytes(&bytes[start..]);
            prop_assert_eq!(whole.finish(), ref_checksum(&bytes));
            let mut reference = bytes.clone();
            if reference.len() % 2 == 1 {
                reference.push(0);
            }
            reference.extend_from_slice(&words);
            prop_assert_eq!(chunked.finish(), ref_checksum(&reference));
        }
    }
}

/// VLAN flood-domain isolation on the switch: a broadcast classified
/// into one VLAN is delivered to every other member port of that VLAN
/// and to *no* port outside it, for arbitrary access-port VID layouts.
mod vlan_isolation {
    use super::*;
    use arpshield::netsim::{
        Device, DeviceCtx, PortVlan, Simulator, Switch, SwitchConfig, VlanSet,
    };
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    /// Sends one broadcast at start-up, records everything delivered.
    struct Station {
        emit: Option<Vec<u8>>,
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl Device for Station {
        fn name(&self) -> &str {
            "station"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            if let Some(bytes) = self.emit.take() {
                ctx.send(PortId(0), bytes);
            }
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, frame: &[u8]) {
            self.got.borrow_mut().push(frame.to_vec());
        }
    }

    properties! {
        /// Ports are assigned to VID 10 or VID 20 by an arbitrary mask
        /// (one trunk carrying only VID 10 rides along); a broadcast
        /// from a VID-10 access port reaches exactly the other VID-10
        /// members — never an access port on VID 20.
        #[test]
        fn broadcasts_never_cross_vlans(mask in any::<u8>(), src_idx in any::<u8>(),
                                        payload in collection::vec(any::<u8>(), 0..200)) {
            let ports = 8usize;
            let vids: Vec<u16> =
                (0..ports).map(|p| if mask & (1 << p) != 0 { 10 } else { 20 }).collect();
            // The sender sits on some VID-10 access port; force one to exist.
            let mut vids = vids;
            vids[src_idx as usize % ports] = 10;
            let src_port = src_idx as usize % ports;

            let mut vlans: Vec<PortVlan> =
                vids.iter().map(|&pvid| PortVlan::Access { pvid }).collect();
            vlans.push(PortVlan::Trunk { allowed: VlanSet::Only(vec![10]) });
            let (sw, _) = Switch::new(
                "sw",
                SwitchConfig { ports: ports + 1, vlans: Some(vlans), ..Default::default() },
            );

            let mut sim = Simulator::new(1);
            let sw = sim.add_device(Box::new(sw));
            let frame = EthernetEmit::new(
                MacAddr::BROADCAST,
                MacAddr::from_index(99),
                EtherType::Other(0x1234),
                &payload[..],
            )
            .encode();
            let mut sinks = Vec::new();
            for p in 0..=ports {
                let got = Rc::new(RefCell::new(Vec::new()));
                let emit = (p == src_port).then(|| frame.clone());
                let station = sim.add_device(Box::new(Station { emit, got: Rc::clone(&got) }));
                sim.connect(station, PortId(0), sw, PortId(p as u16), Duration::from_micros(1))
                    .unwrap();
                sinks.push(got);
            }
            sim.run_until(SimTime::from_secs(1));

            for (p, got) in sinks.iter().enumerate() {
                let got = got.borrow();
                if p == src_port {
                    prop_assert!(got.is_empty(), "sender port {} heard its own flood", p);
                } else if p == ports {
                    // The trunk carries VID 10, so the copy arrives tagged.
                    prop_assert_eq!(got.len(), 1);
                    let parsed = EthernetView::parse_strict(&got[0]).unwrap();
                    prop_assert_eq!(parsed.vlan(), Some(10));
                } else if vids[p] == 10 {
                    prop_assert_eq!(got.len(), 1);
                    // Access egress is untagged: the sender's bytes verbatim.
                    prop_assert_eq!(&got[0][..], &frame[..]);
                } else {
                    prop_assert!(got.is_empty(), "VID-20 access port {} leaked a frame", p);
                }
            }
        }
    }
}

/// Captures are untrusted input. One made by the writer and then cut
/// short, bit-flipped, or given a false block length must come back
/// from the reader as packets or an error, never a panic, and every
/// packet block wholly before the first damaged byte must still come
/// back exactly as written.
mod capture_robustness {
    use super::*;
    use arpshield::trace::pcapng::{PcapngStream, PcapngWriter};

    /// Offset of every block in a well-formed capture.
    fn block_starts(capture: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut at = 0;
        while at < capture.len() {
            starts.push(at);
            at += u32::from_le_bytes(capture[at + 4..at + 8].try_into().unwrap()) as usize;
        }
        starts
    }

    properties! {
        #[test]
        fn damaged_captures_never_panic(
            frames in collection::vec(collection::vec(any::<u8>(), 0..80), 0..6),
            damage in 0u8..3,
            at in any::<u32>(),
            value in any::<u32>(),
        ) {
            let mut writer = PcapngWriter::new("fuzz");
            let interface = writer.add_interface("wire");
            for (i, frame) in frames.iter().enumerate() {
                writer.add_packet(interface, i as u64, frame, "id=1 kind=deliver");
            }
            let mut capture = writer.finish();
            let (starts, total) = (block_starts(&capture), capture.len());
            let at = at as usize;
            // The first byte the damage touches.
            let damaged = match damage {
                0 => {
                    capture.truncate(at % capture.len());
                    capture.len()
                }
                1 => {
                    let bit = at % (capture.len() * 8);
                    capture[bit / 8] ^= 1 << (bit % 8);
                    bit / 8
                }
                _ => {
                    // Lie in the leading or the trailing length of one
                    // block: anything, near the truth and 4-aligned (so
                    // the lie reaches the read), or small.
                    let starts = block_starts(&capture);
                    let start = starts[at % starts.len()];
                    let len = u32::from_le_bytes(capture[start + 4..start + 8].try_into().unwrap());
                    let lie = match value % 3 {
                        0 => value,
                        1 => len.wrapping_add((value >> 2) % 64 * 4).wrapping_sub(128),
                        _ => (value >> 2) % 256,
                    };
                    let field = if value & 4 == 0 { start + 4 } else { start + len as usize - 4 };
                    capture[field..field + 4].copy_from_slice(&lie.to_le_bytes());
                    field
                }
            };
            let mut stream = PcapngStream::new(capture.as_slice());
            let mut streamed = Vec::new();
            while let Ok(Some(packet)) = stream.next_packet() {
                streamed.push(packet.bytes.to_vec());
            }
            // Blocks 0 and 1 are the section and interface headers;
            // block 2 + i holds frame i and ends where the next begins.
            let block_end = |i: usize| starts.get(i + 1).copied().unwrap_or(total);
            let intact = (0..frames.len()).take_while(|&i| block_end(i + 2) <= damaged).count();
            prop_assert!(streamed.len() >= intact, "{} of {} intact frames", streamed.len(), intact);
            prop_assert_eq!(&streamed[..intact], &frames[..intact]);
            prop_assert!(stream.stats().bytes <= capture.len() as u64);
        }
    }
}

/// A flood leaves the simulator's queue as one fan-out event per run of
/// copies that arrive together. These oracles hold it to what one send
/// per port did: a hub must replay a reference repeater exactly, and a
/// switch must land each broadcast once per flood-domain port, by
/// arrival time and then by port, in the port's encapsulation.
mod fanout_order {
    use super::*;
    use arpshield::netsim::{
        Device, DeviceCtx, Hub, LinkProfile, PortSecurityConfig, PortVlan, Simulator, Switch,
        SwitchConfig, ViolationAction, VlanSet,
    };
    use arpshield::trace::{install, FrameKind, RecordedFrame, TraceCollector, Tracer};
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;
    use std::sync::Arc;

    /// What a station received: `(time ns, port, bytes)` per frame.
    type Log = Rc<RefCell<Vec<(u64, u16, Vec<u8>)>>>;

    /// Sends each planned frame at its time in ns and logs what arrives.
    /// A frame whose first byte is nonzero is echoed back with that
    /// byte decremented, so copies trigger sends mid-fan-out.
    struct Station {
        name: String,
        plan: Vec<(u64, Vec<u8>)>,
        echo: bool,
        log: Log,
    }

    impl Device for Station {
        fn name(&self) -> &str {
            &self.name
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            for (i, (at, _)) in self.plan.iter().enumerate() {
                ctx.schedule_in(Duration::from_nanos(*at), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
            ctx.send(PortId(0), self.plan[token as usize].1.clone());
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, frame: &[u8]) {
            self.log.borrow_mut().push((ctx.now().as_nanos(), port.0, frame.to_vec()));
            if self.echo && frame[0] > 0 {
                let mut echo = frame.to_vec();
                echo[0] -= 1;
                ctx.send(port, echo);
            }
        }
    }

    /// The reference repeat: one `send` per port.
    struct Repeater {
        ports: usize,
    }

    impl Device for Repeater {
        fn name(&self) -> &str {
            "hub"
        }
        fn port_count(&self) -> usize {
            self.ports
        }
        fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, _: &[u8]) {
            let shared = ctx.incoming_frame().expect("on_frame carries a frame");
            for p in (0..self.ports as u16).filter(|&p| p != port.0) {
                ctx.send(PortId(p), shared.clone());
            }
        }
    }

    /// Runs `sim` for one simulated second under an armed flight
    /// recorder and returns every captured frame.
    fn captured(mut sim: Simulator) -> Vec<RecordedFrame> {
        let collector = Arc::new(TraceCollector::with_capture(1 << 16));
        {
            let _guard = install(Arc::clone(&collector));
            sim.set_tracer(Tracer::for_current_run("fanout"));
        }
        sim.run_until(SimTime::from_secs(1));
        drop(sim); // the last tracer handle flushes the run
        collector.manifest("fanout").runs.remove(0).frames
    }

    /// The port number in a `device:port` capture endpoint.
    fn port_of(endpoint: &str) -> usize {
        endpoint.rsplit(':').next().and_then(|p| p.parse().ok()).expect("device:port")
    }

    /// Station `p`'s MAC; the second identity is what the violator forges.
    fn mac(p: usize, second: bool) -> MacAddr {
        MacAddr::from_index(1 + p as u32 + if second { 1000 } else { 0 })
    }

    /// A broadcast from `src` whose payload opens with `marker`.
    fn broadcast(src: MacAddr, marker: u8, len: usize, vid: Option<u16>) -> Vec<u8> {
        let mut payload = vec![0xA5; len];
        payload[0] = marker;
        let frame =
            EthernetEmit::new(MacAddr::BROADCAST, src, EtherType::Other(0x1234), &payload[..]);
        match vid {
            Some(vid) => frame.with_vlan(vid).encode(),
            None => frame.encode(),
        }
    }

    properties! {
        /// Latencies of 0–3 µs make runs of equal arrival times (and
        /// zero-latency copies arrive while their fan-out is walked);
        /// one lossy, duplicating link splits runs and takes the
        /// per-frame path; echoes send mid-walk. Every station's log and
        /// the whole capture must match the one-send-per-port repeater.
        #[test]
        fn hub_fanout_replays_one_send_per_port(
            latencies in collection::vec(0u64..4, 2..9),
            impaired in any::<u8>(),
            plans in collection::vec((any::<u8>(), 0u64..20, 0u8..3), 1..8),
        ) {
            let ports = latencies.len();
            let impaired = usize::from(impaired) % ports;
            let run = |hub: Box<dyn Device>| {
                let mut sim = Simulator::new(7);
                let hub = sim.add_device(hub);
                let mut logs = Vec::new();
                for (p, latency) in latencies.iter().enumerate() {
                    let plan = plans
                        .iter()
                        .enumerate()
                        .filter(|(_, (who, ..))| usize::from(*who) % ports == p)
                        .map(|(i, &(_, at_us, budget))| {
                            let mut bytes = vec![0u8; 60];
                            bytes[..2].copy_from_slice(&[budget, i as u8]);
                            (at_us * 1000, bytes)
                        })
                        .collect();
                    let log = Log::default();
                    let name = format!("s{p}");
                    let station = Station { name, plan, echo: true, log: Rc::clone(&log) };
                    let id = sim.add_device(Box::new(station));
                    let latency = Duration::from_micros(*latency);
                    let profile = if p == impaired {
                        LinkProfile::lossy(0.3).with_dup(0.5)
                    } else {
                        LinkProfile::PERFECT
                    };
                    sim.connect_impaired(id, PortId(0), hub, PortId(p as u16), latency, profile)
                        .unwrap();
                    logs.push(log);
                }
                let frames = captured(sim);
                let logs: Vec<_> = logs.iter().map(|log| log.take()).collect();
                (logs, frames)
            };
            let (hub_logs, hub_frames) = run(Box::new(Hub::new("hub", ports)));
            let (ref_logs, ref_frames) = run(Box::new(Repeater { ports }));
            prop_assert_eq!(hub_logs, ref_logs);
            prop_assert_eq!(hub_frames, ref_frames);
        }

        /// A switch, VLAN-unaware or with access ports on VIDs 10 and 20
        /// and trunks on VID 10, with a mirror port and one station that
        /// forges a second MAC mid-run and gets its port err-disabled.
        /// A model walks the capture's arrivals at the switch in order
        /// and predicts each broadcast's copies: one per port of its
        /// flood domain as of that arrival, in arrival-then-port order,
        /// tagged toward trunks, plus the mirror's verbatim copy.
        #[test]
        fn switch_flood_lands_once_per_domain_port_in_order(
            layout in collection::vec((0u64..4, 0u8..3), 4..10),
            vlan_aware in any::<bool>(),
            mirror in any::<u8>(),
            violator in any::<u8>(),
            sends in collection::vec((any::<u8>(), 0u64..30), 1..12),
            violate_at in 1u64..30,
            len in 46usize..80,
        ) {
            let ports = layout.len();
            let mirror = usize::from(mirror) % ports;
            let violator = (mirror + 1 + usize::from(violator) % (ports - 1)) % ports;
            let latency = |p: usize| layout[p].0 * 1000;
            // Mode 0: access VID 10; 1: trunk carrying VID 10; 2: access VID 20.
            let mode = |p: usize| if vlan_aware { layout[p].1 } else { 0 };
            let vlans = vlan_aware.then(|| {
                layout
                    .iter()
                    .map(|&(_, m)| match m {
                        1 => PortVlan::Trunk { allowed: VlanSet::Only(vec![10]) },
                        2 => PortVlan::Access { pvid: 20 },
                        _ => PortVlan::Access { pvid: 10 },
                    })
                    .collect::<Vec<_>>()
            });
            let ingress_tag = |p: usize| (mode(p) == 1).then_some(10);

            // Plans: every `sends` entry from its port (the monitor on
            // the mirror port only listens), and the violator's honest
            // frame at 0 then its forged one at `violate_at`.
            let mut plans: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); ports];
            let mut marker = 0u8;
            let mut plan = |p: usize, at_us: u64, second: bool| {
                plans[p].push((at_us * 1000, broadcast(mac(p, second), marker, len, ingress_tag(p))));
                marker += 1;
            };
            plan(violator, 0, false);
            plan(violator, violate_at, true);
            for &(who, at_us) in &sends {
                let p = usize::from(who) % ports;
                if p != mirror {
                    plan(p, at_us, false);
                }
            }

            let mut sim = Simulator::new(3);
            let config = SwitchConfig {
                ports,
                mirror_to: Some(PortId(mirror as u16)),
                port_security: Some(PortSecurityConfig {
                    max_macs_per_port: 1,
                    violation: ViolationAction::ShutdownPort,
                }),
                vlans,
                ..Default::default()
            };
            let (sw, handle) = Switch::new("sw", config);
            let sw = sim.add_device(Box::new(sw));
            for (p, plan) in plans.into_iter().enumerate() {
                let name = format!("s{p}");
                let station = Station { name, plan, echo: false, log: Log::default() };
                let id = sim.add_device(Box::new(station));
                let link = Duration::from_nanos(latency(p));
                sim.connect(id, PortId(0), sw, PortId(p as u16), link).unwrap();
            }
            let frames = captured(sim);
            prop_assert!(handle.stats.borrow().shutdown_ports.contains(&PortId(violator as u16)));

            // Copies out of the switch, grouped by broadcast marker, in
            // capture (dispatch) order.
            let mut copies: BTreeMap<u8, Vec<&RecordedFrame>> = BTreeMap::new();
            for frame in frames.iter().filter(|f| f.src.starts_with("sw:")) {
                prop_assert_eq!(frame.kind, FrameKind::Delivered);
                let marker = EthernetView::parse_strict(&frame.bytes).unwrap().payload()[0];
                copies.entry(marker).or_default().push(frame);
            }

            let (mut shutdown, mut known) = (BTreeSet::new(), vec![BTreeSet::new(); ports]);
            let arrivals = frames.iter().filter(|f| f.dst.starts_with("sw:"));
            for arrival in arrivals {
                let p = port_of(&arrival.dst);
                let eth = EthernetView::parse_strict(&arrival.bytes).unwrap();
                let marker = eth.payload()[0];
                let got = copies.remove(&marker).unwrap_or_default();
                let vid = match mode(p) {
                    2 => 20,
                    _ => 10,
                };
                let learns = known[p].contains(&eth.src()) || known[p].is_empty();
                if shutdown.contains(&p) || !learns {
                    // Err-disabled, or the violation that disables it.
                    shutdown.insert(p);
                    prop_assert!(got.is_empty(), "dropped frame {} was copied", marker);
                    continue;
                }
                known[p].insert(eth.src());
                let untagged = broadcast(eth.src(), marker, len, None);
                let tagged = broadcast(eth.src(), marker, len, Some(10));
                let mut want: Vec<(u64, usize, &[u8])> = (0..ports)
                    .filter(|&q| q != p && q != mirror && !shutdown.contains(&q))
                    .filter(|&q| !vlan_aware || [10, 10, 20][usize::from(mode(q))] == vid)
                    .map(|q| {
                        let bytes = if mode(q) == 1 { &tagged } else { &untagged };
                        (arrival.at_ns + latency(q), q, bytes.as_slice())
                    })
                    .collect();
                want.sort_by_key(|&(at, q, _)| (at, q));
                let (mirrored, flooded): (Vec<_>, Vec<_>) =
                    got.into_iter().partition(|f| port_of(&f.src) == mirror);
                let flooded: Vec<(u64, usize, &[u8])> = flooded
                    .iter()
                    .map(|f| (f.at_ns, port_of(&f.src), f.bytes.as_slice()))
                    .collect();
                prop_assert!(
                    flooded == want,
                    "broadcast {} from port {}: copies {:?}, want {:?}",
                    marker,
                    p,
                    flooded,
                    want
                );
                let mirrored: Vec<_> = mirrored.iter().map(|f| (f.at_ns, &f.bytes)).collect();
                let mirror_copy = (arrival.at_ns + latency(mirror), &arrival.bytes);
                prop_assert!(
                    mirrored == vec![mirror_copy],
                    "broadcast {}: mirror copies {:?}",
                    marker,
                    mirrored
                );
            }
            prop_assert!(copies.is_empty(), "copies of frames that never arrived: {:?}", copies);
        }
    }
}
