//! IPv4 addresses, CIDR prefixes, and the IPv4 header.

use std::fmt;
use std::str::FromStr;

use crate::checksum::{internet_checksum, Checksum};
use crate::error::ParseError;

/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// A 32-bit IPv4 address.
///
/// A local type (rather than `std::net::Ipv4Addr`) so the whole workspace
/// shares one set of trait impls and helpers tuned for simulation (indexed
/// generation, subnet math).
///
/// ```rust
/// use arpshield_packet::Ipv4Addr;
///
/// let a: Ipv4Addr = "192.168.88.254".parse().unwrap();
/// assert_eq!(a.octets(), [192, 168, 88, 254]);
/// assert_eq!(a.to_string(), "192.168.88.254");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);
    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr(u32::MAX);

    /// Creates an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Creates an address from its 32-bit big-endian value.
    pub const fn from_u32(value: u32) -> Self {
        Ipv4Addr(value)
    }

    /// Returns the 32-bit big-endian value.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// Returns the four octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Parses an address from the first four bytes of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if fewer than four bytes are given.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < 4 {
            return Err(ParseError::Truncated { what: "ipv4 addr", needed: 4, got: buf.len() });
        }
        Ok(Ipv4Addr(u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]])))
    }

    /// True for `0.0.0.0`.
    pub const fn is_unspecified(self) -> bool {
        self.0 == 0
    }

    /// True for `255.255.255.255`.
    pub const fn is_limited_broadcast(self) -> bool {
        self.0 == u32::MAX
    }

    /// True for multicast space `224.0.0.0/4`.
    pub const fn is_multicast(self) -> bool {
        self.0 >> 28 == 0b1110
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(o: [u8; 4]) -> Self {
        Ipv4Addr::new(o[0], o[1], o[2], o[3])
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr(v)
    }
}

impl FromStr for Ipv4Addr {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in octets.iter_mut() {
            let part = parts.next().ok_or(ParseError::InvalidField {
                what: "ipv4 addr",
                field: "text",
                value: 0,
            })?;
            *slot = part.parse().map_err(|_| ParseError::InvalidField {
                what: "ipv4 addr",
                field: "octet",
                value: 0,
            })?;
        }
        if parts.next().is_some() {
            return Err(ParseError::InvalidField { what: "ipv4 addr", field: "text", value: 0 });
        }
        Ok(octets.into())
    }
}

/// An IPv4 network in CIDR form, e.g. `10.0.0.0/24`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Cidr {
    network: Ipv4Addr,
    prefix: u8,
}

impl Ipv4Cidr {
    /// Creates a CIDR block, masking `addr` down to its network address.
    ///
    /// # Panics
    ///
    /// Panics if `prefix > 32`.
    pub fn new(addr: Ipv4Addr, prefix: u8) -> Self {
        assert!(prefix <= 32, "CIDR prefix must be at most 32, got {prefix}");
        Ipv4Cidr { network: Ipv4Addr(addr.to_u32() & Self::mask_u32(prefix)), prefix }
    }

    const fn mask_u32(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// Returns the network address.
    pub const fn network(&self) -> Ipv4Addr {
        self.network
    }

    /// Returns the prefix length.
    pub const fn prefix(&self) -> u8 {
        self.prefix
    }

    /// Returns the subnet mask as an address.
    pub const fn mask(&self) -> Ipv4Addr {
        Ipv4Addr(Self::mask_u32(self.prefix))
    }

    /// Returns the directed broadcast address of the block.
    pub const fn broadcast(&self) -> Ipv4Addr {
        Ipv4Addr(self.network.to_u32() | !Self::mask_u32(self.prefix))
    }

    /// True when `addr` falls within the block.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        addr.to_u32() & Self::mask_u32(self.prefix) == self.network.to_u32()
    }

    /// Returns the `n`-th usable host address (1-based; 0 would be the
    /// network address itself). Returns `None` past the directed broadcast.
    pub fn host(&self, n: u32) -> Option<Ipv4Addr> {
        let candidate = self.network.to_u32().checked_add(n)?;
        let addr = Ipv4Addr(candidate);
        if self.contains(addr) && addr != self.broadcast() && n != 0 {
            Some(addr)
        } else {
            None
        }
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.prefix)
    }
}

/// IP protocol numbers carried in the IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP, protocol 1.
    Icmp,
    /// TCP, protocol 6.
    Tcp,
    /// UDP, protocol 17.
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// Returns the 8-bit wire value.
    pub const fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Builds from the 8-bit wire value.
    pub const fn from_u8(value: u8) -> Self {
        match value {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// An IPv4 packet: the header fields (no options) plus a borrowed payload.
///
/// [`parse`](Ipv4Packet::parse) returns the `P = [u8]` form, borrowing the
/// payload from the received buffer. TX builds the same type around any
/// [`WireEmit`](crate::WireEmit) payload, so a transport message nests
/// into the header without an intermediate buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Ipv4Packet<'a, P: ?Sized = [u8]> {
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Datagram identification field.
    pub identification: u16,
    /// Payload bytes, or the payload emitter on TX.
    pub payload: &'a P,
}

impl<'a, P: ?Sized> Ipv4Packet<'a, P> {
    /// Creates a packet with the default TTL of 64 and identification 0.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: &'a P) -> Self {
        Ipv4Packet { ttl: 64, protocol, src, dst, identification: 0, payload }
    }
}

impl<'a> Ipv4Packet<'a> {
    /// Parses a packet, verifying version, IHL, length, and header checksum.
    ///
    /// Ethernet padding past the IP total length is trimmed.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on truncation, version/IHL mismatch, a total
    /// length inconsistent with the buffer, or a failed header checksum.
    pub fn parse(buf: &'a [u8]) -> Result<Self, ParseError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated {
                what: "ipv4",
                needed: IPV4_HEADER_LEN,
                got: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ParseError::InvalidField {
                what: "ipv4",
                field: "version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            // Options are not used anywhere in the simulator; reject rather
            // than silently misparse.
            return Err(ParseError::InvalidField { what: "ipv4", field: "ihl", value: ihl as u64 });
        }
        let total_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total_len < IPV4_HEADER_LEN || total_len > buf.len() {
            return Err(ParseError::InvalidField {
                what: "ipv4",
                field: "total_length",
                value: total_len as u64,
            });
        }
        let computed = internet_checksum(&buf[..IPV4_HEADER_LEN]);
        if computed != 0 {
            let found = u16::from_be_bytes([buf[10], buf[11]]);
            let mut ck = Checksum::new();
            ck.add_bytes(&buf[..10]);
            ck.add_bytes(&buf[12..IPV4_HEADER_LEN]);
            return Err(ParseError::BadChecksum { what: "ipv4", found, expected: ck.finish() });
        }
        Ok(Ipv4Packet {
            ttl: buf[8],
            protocol: IpProtocol::from_u8(buf[9]),
            src: Ipv4Addr::parse(&buf[12..16])?,
            dst: Ipv4Addr::parse(&buf[16..20])?,
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            payload: &buf[IPV4_HEADER_LEN..total_len],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireEmit;

    #[test]
    fn addr_text_roundtrip() {
        let a: Ipv4Addr = "10.0.3.200".parse().unwrap();
        assert_eq!(a.to_string(), "10.0.3.200");
        assert!("10.0.3".parse::<Ipv4Addr>().is_err());
        assert!("10.0.3.200.1".parse::<Ipv4Addr>().is_err());
        assert!("10.0.3.999".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn cidr_membership_and_broadcast() {
        let net = Ipv4Cidr::new("192.168.88.17".parse().unwrap(), 24);
        assert_eq!(net.network().to_string(), "192.168.88.0");
        assert_eq!(net.mask().to_string(), "255.255.255.0");
        assert_eq!(net.broadcast().to_string(), "192.168.88.255");
        assert!(net.contains("192.168.88.254".parse().unwrap()));
        assert!(!net.contains("192.168.89.1".parse().unwrap()));
        assert_eq!(net.to_string(), "192.168.88.0/24");
    }

    #[test]
    fn cidr_host_enumeration() {
        let net = Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 30);
        assert_eq!(net.host(0), None); // network address
        assert_eq!(net.host(1), Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(net.host(2), Some(Ipv4Addr::new(10, 0, 0, 2)));
        assert_eq!(net.host(3), None); // broadcast
        assert_eq!(net.host(4), None); // outside
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn cidr_rejects_long_prefix() {
        let _ = Ipv4Cidr::new(Ipv4Addr::UNSPECIFIED, 33);
    }

    #[test]
    fn packet_roundtrip() {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            &[9u8; 33][..],
        );
        let bytes = pkt.encode();
        let parsed = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn trims_ethernet_padding() {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProtocol::Icmp,
            &[7u8; 4][..],
        );
        let mut bytes = pkt.encode();
        bytes.extend_from_slice(&[0u8; 22]); // simulated L2 padding
        let parsed = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(parsed.payload, &[7; 4]);
    }

    #[test]
    fn detects_corrupted_header() {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProtocol::Udp,
            &[0u8; 0][..],
        );
        let mut bytes = pkt.encode();
        bytes[8] ^= 0xff; // flip TTL
        assert!(matches!(
            Ipv4Packet::parse(&bytes),
            Err(ParseError::BadChecksum { what: "ipv4", .. })
        ));
    }

    #[test]
    fn rejects_wrong_version_and_options() {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            IpProtocol::Udp,
            &[0u8; 0][..],
        );
        let mut v6 = pkt.encode();
        v6[0] = 0x65;
        assert!(Ipv4Packet::parse(&v6).is_err());
        let mut opts = pkt.encode();
        opts[0] = 0x46; // IHL 6 => options present
        assert!(Ipv4Packet::parse(&opts).is_err());
    }

    #[test]
    fn protocol_u8_roundtrip() {
        for v in [1u8, 6, 17, 89] {
            assert_eq!(IpProtocol::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn classification_helpers() {
        assert!(Ipv4Addr::UNSPECIFIED.is_unspecified());
        assert!(Ipv4Addr::BROADCAST.is_limited_broadcast());
        assert!(Ipv4Addr::new(224, 0, 0, 251).is_multicast());
        assert!(!Ipv4Addr::new(10, 1, 1, 1).is_multicast());
    }
}
