//! In-place wire emission: the TX half of every codec.
//!
//! Each wire format has one type that its parser returns and that TX
//! emits; this module holds the TX half. A [`WireEmit`] value knows its
//! exact on-wire length and serializes itself into a caller-provided
//! `&mut [u8]` — typically a recycled frame-pool buffer — so a TX site
//! never materializes an intermediate `Vec<u8>` per packet. Types that
//! carry a payload ([`EthernetEmit`], [`Ipv4Packet`], [`UdpDatagram`])
//! borrow any `WireEmit` payload, so nested encodings (DHCP in UDP in
//! IPv4 in Ethernet) compose into a single pass over one buffer.
//! [`WireEmit::encode`] is the allocating form for tests and cold paths.
//!
//! Ethernet is the one format with a separate RX type: the switch reads
//! frames lazily through [`EthernetView`] and re-tags them in place
//! through [`EthernetViewMut`], while TX builds an [`EthernetEmit`].
//!
//! The property suite pins every emitter against an independent
//! reference encoder.
//!
//! [`EthernetView`]: crate::EthernetView

use crate::arp::{ArpPacket, ARP_WIRE_LEN};
use crate::checksum::internet_checksum;
use crate::dhcp::{DhcpMessage, DhcpOption, DHCP_FIXED_LEN, DHCP_MAGIC_COOKIE};
use crate::ether::{EtherType, ETHERNET_HEADER_LEN, ETHERNET_MIN_PAYLOAD, ETHERNET_VLAN_TAG_LEN};
use crate::icmp::IcmpMessage;
use crate::ipv4::{Ipv4Packet, IPV4_HEADER_LEN};
use crate::mac::MacAddr;
use crate::udp::{udp_pseudo_header, UdpDatagram, UDP_HEADER_LEN};

/// A value with an exact on-wire length that can serialize itself into a
/// caller-provided buffer.
///
/// `emit` writes exactly [`wire_len`](Self::wire_len) bytes starting at
/// `buf[0]` and returns that count; callers hand it a slice at least that
/// long (frame-pool buffers are sized exactly). Implementations overwrite
/// every byte they claim — including zero padding — so a dirty buffer never
/// leaks through.
pub trait WireEmit {
    /// Exact number of bytes `emit` will write.
    fn wire_len(&self) -> usize;

    /// Serializes into the front of `buf`, returning the bytes written
    /// (always equal to [`wire_len`](Self::wire_len)).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`wire_len`](Self::wire_len).
    fn emit(&self, buf: &mut [u8]) -> usize;

    /// Serializes into a freshly allocated, exactly sized buffer. TX hot
    /// paths emit straight into pool buffers instead.
    fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.wire_len()];
        let written = self.emit(&mut buf);
        debug_assert_eq!(written, buf.len(), "emit must fill its stated wire_len");
        buf
    }
}

/// Raw bytes emit as themselves; this is what lets an already-serialized
/// payload (or an opaque one, like a signature blob) slot into the nested
/// emitters.
impl WireEmit for [u8] {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        buf[..self.len()].copy_from_slice(self);
        self.len()
    }
}

impl<T: WireEmit + ?Sized> WireEmit for &T {
    fn wire_len(&self) -> usize {
        (**self).wire_len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        (**self).emit(buf)
    }
}

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

/// A mutable view over an Ethernet II frame being written in place.
///
/// Field setters write directly into the borrowed buffer. VLAN tags shift
/// where the ethertype lives, so the write order is: addresses in any order,
/// then tags outermost-first via [`push_vlan`](Self::push_vlan) /
/// [`push_tag`](Self::push_tag), then [`set_ethertype`](Self::set_ethertype),
/// then the payload through [`payload_mut`](Self::payload_mut).
pub struct EthernetViewMut<'a> {
    buf: &'a mut [u8],
    tag_len: usize,
}

impl<'a> EthernetViewMut<'a> {
    /// Wraps `buf`, which must hold at least the 14-byte header.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`ETHERNET_HEADER_LEN`].
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert!(
            buf.len() >= ETHERNET_HEADER_LEN,
            "ethernet view needs at least {ETHERNET_HEADER_LEN} bytes, got {}",
            buf.len()
        );
        EthernetViewMut { buf, tag_len: 0 }
    }

    /// Writes the destination hardware address.
    pub fn set_dst(&mut self, dst: MacAddr) {
        self.buf[0..6].copy_from_slice(dst.as_bytes());
    }

    /// Writes the source hardware address.
    pub fn set_src(&mut self, src: MacAddr) {
        self.buf[6..12].copy_from_slice(src.as_bytes());
    }

    /// Appends an 802.1Q customer tag (TPID `0x8100`) with the low 12 bits
    /// of `vid`, growing the header by four bytes. Call before
    /// [`set_ethertype`](Self::set_ethertype); stack outermost-first for
    /// QinQ.
    pub fn push_vlan(&mut self, vid: u16) {
        self.push_tag(EtherType::Vlan, vid);
    }

    /// Appends a tag with an explicit TPID — [`EtherType::QinQ`] for an
    /// 802.1ad service tag — enabling full QinQ stacks. The RX parser
    /// unwraps such stacks and reports the outermost VID.
    ///
    /// # Panics
    ///
    /// Panics if `tpid` is not a VLAN tag TPID or the buffer cannot hold the
    /// enlarged header.
    pub fn push_tag(&mut self, tpid: EtherType, vid: u16) {
        assert!(tpid.is_vlan_tag(), "tag TPID must be 802.1Q or 802.1ad, got {tpid}");
        let at = 12 + self.tag_len;
        assert!(
            self.buf.len() >= at + ETHERNET_VLAN_TAG_LEN + 2,
            "buffer too short for another VLAN tag"
        );
        self.buf[at..at + 2].copy_from_slice(&tpid.to_u16().to_be_bytes());
        self.buf[at + 2..at + 4].copy_from_slice(&(vid & 0x0FFF).to_be_bytes());
        self.tag_len += ETHERNET_VLAN_TAG_LEN;
    }

    /// Writes the payload ethertype after any pushed tags.
    pub fn set_ethertype(&mut self, ethertype: EtherType) {
        let at = 12 + self.tag_len;
        self.buf[at..at + 2].copy_from_slice(&ethertype.to_u16().to_be_bytes());
    }

    /// Header length including any pushed tags.
    pub fn header_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.tag_len
    }

    /// The payload region after the header and tags; its length is whatever
    /// the caller sized the buffer for (padding included).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let at = self.header_len();
        &mut self.buf[at..]
    }
}

/// Ethernet header fields bound to a borrowed payload: the composable
/// emitter behind the netsim frame builder.
///
/// Emission zero-pads the payload to the 46-byte minimum and writes a
/// single 802.1Q tag when `vlan` is set.
pub struct EthernetEmit<'a, P: WireEmit + ?Sized> {
    /// Destination hardware address.
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// Payload protocol (the innermost ethertype when a tag is present).
    pub ethertype: EtherType,
    /// Optional 802.1Q VLAN id (low 12 bits are kept).
    pub vlan: Option<u16>,
    /// Borrowed payload to emit after the header.
    pub payload: &'a P,
}

impl<'a, P: WireEmit + ?Sized> EthernetEmit<'a, P> {
    /// Creates an untagged frame emitter.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &'a P) -> Self {
        EthernetEmit { dst, src, ethertype, vlan: None, payload }
    }

    /// Tags the frame with an 802.1Q VLAN id (low 12 bits are kept).
    #[must_use]
    pub fn with_vlan(mut self, vid: u16) -> Self {
        self.vlan = Some(vid & 0x0FFF);
        self
    }
}

impl<P: WireEmit + ?Sized> WireEmit for EthernetEmit<'_, P> {
    fn wire_len(&self) -> usize {
        let tag_len = if self.vlan.is_some() { ETHERNET_VLAN_TAG_LEN } else { 0 };
        ETHERNET_HEADER_LEN + tag_len + self.payload.wire_len().max(ETHERNET_MIN_PAYLOAD)
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let mut view = EthernetViewMut::new(&mut buf[..total]);
        view.set_dst(self.dst);
        view.set_src(self.src);
        if let Some(vid) = self.vlan {
            view.push_vlan(vid);
        }
        view.set_ethertype(self.ethertype);
        let payload_len = self.payload.wire_len();
        let body = view.payload_mut();
        self.payload.emit(&mut body[..payload_len]);
        // Zero the min-payload padding explicitly: the buffer may be dirty.
        body[payload_len..].fill(0);
        total
    }
}

// ---------------------------------------------------------------------------
// ARP
// ---------------------------------------------------------------------------

impl WireEmit for ArpPacket {
    fn wire_len(&self) -> usize {
        ARP_WIRE_LEN
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let buf = &mut buf[..ARP_WIRE_LEN];
        buf[0..2].copy_from_slice(&1u16.to_be_bytes()); // htype: Ethernet
        buf[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // ptype: IPv4
        buf[4] = 6; // hlen
        buf[5] = 4; // plen
        buf[6..8].copy_from_slice(&self.op.to_u16().to_be_bytes());
        buf[8..14].copy_from_slice(self.sender_mac.as_bytes());
        buf[14..18].copy_from_slice(&self.sender_ip.octets());
        buf[18..24].copy_from_slice(self.target_mac.as_bytes());
        buf[24..28].copy_from_slice(&self.target_ip.octets());
        ARP_WIRE_LEN
    }
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

impl<P: WireEmit + ?Sized> WireEmit for Ipv4Packet<'_, P> {
    fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.wire_len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        assert!(total <= usize::from(u16::MAX), "ipv4 total length overflows 16 bits");
        let buf = &mut buf[..total];
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = 0; // DSCP/ECN
        buf[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        buf[4..6].copy_from_slice(&self.identification.to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]); // flags + fragment offset
        buf[8] = self.ttl;
        buf[9] = self.protocol.to_u8();
        buf[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let ck = internet_checksum(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        self.payload.emit(&mut buf[IPV4_HEADER_LEN..]);
        total
    }
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

impl<P: WireEmit + ?Sized> WireEmit for UdpDatagram<'_, P> {
    fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.wire_len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        assert!(total <= usize::from(u16::MAX), "udp length overflows 16 bits");
        let buf = &mut buf[..total];
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&(total as u16).to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]); // checksum placeholder
        self.payload.emit(&mut buf[UDP_HEADER_LEN..]);
        // The checksum covers the payload, so it comes last. RFC 768: an
        // all-zero result is transmitted as 0xffff.
        let mut ck = udp_pseudo_header(self.src, self.dst, total as u16);
        ck.add_bytes(buf);
        let sum = match ck.finish() {
            0 => 0xffff,
            sum => sum,
        };
        buf[6..8].copy_from_slice(&sum.to_be_bytes());
        total
    }
}

// ---------------------------------------------------------------------------
// ICMP
// ---------------------------------------------------------------------------

impl WireEmit for IcmpMessage<'_> {
    fn wire_len(&self) -> usize {
        8 + self.payload.len()
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let buf = &mut buf[..total];
        buf[0] = self.icmp_type.to_u8();
        buf[1] = 0; // code
        buf[2..4].copy_from_slice(&[0, 0]); // checksum placeholder
        buf[4..6].copy_from_slice(&self.identifier.to_be_bytes());
        buf[6..8].copy_from_slice(&self.sequence.to_be_bytes());
        buf[8..].copy_from_slice(self.payload);
        let ck = internet_checksum(buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        total
    }
}

// ---------------------------------------------------------------------------
// DHCP
// ---------------------------------------------------------------------------

impl<'a, O: AsRef<[DhcpOption<'a>]>> WireEmit for DhcpMessage<O> {
    fn wire_len(&self) -> usize {
        let options = self.options.as_ref();
        DHCP_FIXED_LEN + 4 + options.iter().map(DhcpOption::encoded_len).sum::<usize>() + 1
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        let total = self.wire_len();
        let buf = &mut buf[..total];
        buf[0] = self.op.to_u8();
        buf[1] = 1; // htype Ethernet
        buf[2] = 6; // hlen
        buf[3] = 0; // hops
        buf[4..8].copy_from_slice(&self.xid.to_be_bytes());
        buf[8..10].copy_from_slice(&[0, 0]); // secs
        buf[10..12].copy_from_slice(&[0x80, 0]); // flags: broadcast
        buf[12..16].copy_from_slice(&self.ciaddr.octets());
        buf[16..20].copy_from_slice(&self.yiaddr.octets());
        buf[20..24].copy_from_slice(&self.siaddr.octets());
        buf[24..28].fill(0); // giaddr
        buf[28..34].copy_from_slice(self.chaddr.as_bytes());
        // chaddr padding, sname and file: written as zeros so a dirty
        // buffer cannot leak through the large constant regions.
        buf[34..DHCP_FIXED_LEN].fill(0);
        buf[DHCP_FIXED_LEN..DHCP_FIXED_LEN + 4].copy_from_slice(&DHCP_MAGIC_COOKIE);
        let mut at = DHCP_FIXED_LEN + 4;
        for option in self.options.as_ref() {
            at += option.emit_at(buf, at);
        }
        buf[at] = 255; // end marker
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ether::EthernetView;

    /// The emitter can only express a single 802.1Q tag; the view
    /// writer stacks arbitrary tags. Golden bytes mirror the hand-spliced
    /// QinQ fixture the RX parser is tested against: 802.1ad service tag
    /// outermost, 802.1Q customer tag inside, then the real ethertype.
    #[test]
    fn qinq_stack_written_in_place_matches_golden_bytes() {
        let mut buf = vec![0u8; ETHERNET_HEADER_LEN + 2 * ETHERNET_VLAN_TAG_LEN + 46];
        let mut view = EthernetViewMut::new(&mut buf);
        view.set_dst(MacAddr::BROADCAST);
        view.set_src(MacAddr::from_index(7));
        view.push_tag(EtherType::QinQ, 0xFFE);
        view.push_vlan(2);
        view.set_ethertype(EtherType::ARP);
        assert_eq!(view.header_len(), ETHERNET_HEADER_LEN + 2 * ETHERNET_VLAN_TAG_LEN);
        assert_eq!(view.payload_mut().len(), 46);

        let mut golden = Vec::new();
        golden.extend_from_slice(MacAddr::BROADCAST.as_bytes());
        golden.extend_from_slice(MacAddr::from_index(7).as_bytes());
        golden.extend_from_slice(&[0x88, 0xa8, 0x0F, 0xFE]); // S-tag, VID 0xFFE
        golden.extend_from_slice(&[0x81, 0x00, 0x00, 0x02]); // C-tag, VID 2
        golden.extend_from_slice(&[0x08, 0x06]);
        golden.extend_from_slice(&[0u8; 46]);
        assert_eq!(buf, golden);

        // And the RX side unwraps the stack to the outermost VID.
        let parsed = EthernetView::parse_strict(&buf).unwrap();
        assert_eq!(parsed.vlan(), Some(0xFFE));
        assert_eq!(parsed.ethertype(), EtherType::ARP);
    }

    /// `push_vlan` and the single-tag emitter's owned `encode` agree byte
    /// for byte.
    #[test]
    fn single_vlan_tag_matches_owned_encoder() {
        let golden = EthernetEmit::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::ARP,
            [0xaa; 46].as_slice(),
        )
        .with_vlan(0x123)
        .encode();

        let mut buf = vec![0u8; golden.len()];
        let mut view = EthernetViewMut::new(&mut buf);
        view.set_dst(MacAddr::from_index(1));
        view.set_src(MacAddr::from_index(2));
        view.push_vlan(0x123);
        view.set_ethertype(EtherType::ARP);
        view.payload_mut().fill(0xaa);
        assert_eq!(buf, golden);
    }

    #[test]
    #[should_panic(expected = "tag TPID must be 802.1Q or 802.1ad")]
    fn push_tag_rejects_non_tag_tpid() {
        let mut buf = vec![0u8; 64];
        EthernetViewMut::new(&mut buf).push_tag(EtherType::ARP, 1);
    }
}
