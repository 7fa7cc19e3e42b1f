//! The Address Resolution Protocol (RFC 826) for IPv4-over-Ethernet.

use std::fmt;

use crate::error::ParseError;
use crate::ipv4::Ipv4Addr;
use crate::mac::MacAddr;

/// On-wire length of an IPv4-over-Ethernet ARP packet.
pub const ARP_WIRE_LEN: usize = 28;

/// The ARP operation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArpOp {
    /// `1` — who-has request.
    Request,
    /// `2` — is-at reply.
    Reply,
}

impl ArpOp {
    /// Returns the 16-bit wire value.
    pub const fn to_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        }
    }

    /// Builds from the 16-bit wire value.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidField`] for codes other than 1 and 2
    /// (RARP and friends are out of scope).
    pub fn from_u16(value: u16) -> Result<Self, ParseError> {
        match value {
            1 => Ok(ArpOp::Request),
            2 => Ok(ArpOp::Reply),
            other => Err(ParseError::InvalidField {
                what: "arp",
                field: "oper",
                value: u64::from(other),
            }),
        }
    }
}

impl fmt::Display for ArpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArpOp::Request => write!(f, "request"),
            ArpOp::Reply => write!(f, "reply"),
        }
    }
}

/// An ARP packet for IPv4 over Ethernet.
///
/// This is the protocol unit at the heart of the whole workspace: the
/// *claim* `sender_ip is-at sender_mac` is unauthenticated, and everything
/// in `arpshield-attacks` and `arpshield-schemes` is about forging or
/// vetting that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArpPacket {
    /// Operation: request or reply.
    pub op: ArpOp,
    /// Hardware address of the sender — the (possibly forged) claim.
    pub sender_mac: MacAddr,
    /// Protocol address of the sender — the (possibly forged) claim.
    pub sender_ip: Ipv4Addr,
    /// Hardware address of the target (zero in requests).
    pub target_mac: MacAddr,
    /// Protocol address being resolved.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Builds a broadcast who-has request for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds the is-at reply answering `request`.
    pub fn reply_to(request: &ArpPacket, my_mac: MacAddr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Builds a gratuitous ARP announcement (`sender_ip == target_ip`),
    /// as hosts legitimately emit on boot or address change — and as
    /// attackers emit to poison caches.
    pub fn gratuitous(op: ArpOp, mac: MacAddr, ip: Ipv4Addr) -> Self {
        ArpPacket {
            op,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: if matches!(op, ArpOp::Request) {
                MacAddr::ZERO
            } else {
                MacAddr::BROADCAST
            },
            target_ip: ip,
        }
    }

    /// True when this packet announces its own binding (`sender_ip ==
    /// target_ip`).
    pub fn is_gratuitous(&self) -> bool {
        self.sender_ip == self.target_ip && !self.sender_ip.is_unspecified()
    }

    /// True for an ARP probe (RFC 5227): a request with an unspecified
    /// sender IP, used for duplicate-address detection without polluting
    /// caches.
    pub fn is_probe(&self) -> bool {
        matches!(self.op, ArpOp::Request) && self.sender_ip.is_unspecified()
    }

    /// Parses the 28-byte wire form, ignoring Ethernet padding beyond it.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on truncation or when hardware/protocol
    /// type and length fields are not Ethernet/IPv4.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < ARP_WIRE_LEN {
            return Err(ParseError::Truncated {
                what: "arp",
                needed: ARP_WIRE_LEN,
                got: buf.len(),
            });
        }
        let htype = u16::from_be_bytes([buf[0], buf[1]]);
        if htype != 1 {
            return Err(ParseError::InvalidField {
                what: "arp",
                field: "htype",
                value: u64::from(htype),
            });
        }
        let ptype = u16::from_be_bytes([buf[2], buf[3]]);
        if ptype != 0x0800 {
            return Err(ParseError::InvalidField {
                what: "arp",
                field: "ptype",
                value: u64::from(ptype),
            });
        }
        if buf[4] != 6 {
            return Err(ParseError::InvalidField {
                what: "arp",
                field: "hlen",
                value: u64::from(buf[4]),
            });
        }
        if buf[5] != 4 {
            return Err(ParseError::InvalidField {
                what: "arp",
                field: "plen",
                value: u64::from(buf[5]),
            });
        }
        Ok(ArpPacket {
            op: ArpOp::from_u16(u16::from_be_bytes([buf[6], buf[7]]))?,
            sender_mac: MacAddr::parse(&buf[8..14])?,
            sender_ip: Ipv4Addr::parse(&buf[14..18])?,
            target_mac: MacAddr::parse(&buf[18..24])?,
            target_ip: Ipv4Addr::parse(&buf[24..28])?,
        })
    }
}

impl fmt::Display for ArpPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            ArpOp::Request => {
                write!(
                    f,
                    "who-has {} tell {} ({})",
                    self.target_ip, self.sender_ip, self.sender_mac
                )
            }
            ArpOp::Reply => write!(f, "{} is-at {}", self.sender_ip, self.sender_mac),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireEmit;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::from_index(1), MacAddr::from_index(2))
    }

    #[test]
    fn request_reply_roundtrip() {
        let (a, b) = macs();
        let req = ArpPacket::request(a, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(ArpPacket::parse(&req.encode()).unwrap(), req);
        let rep = ArpPacket::reply_to(&req, b);
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.sender_mac, b);
        assert_eq!(rep.target_mac, a);
        assert_eq!(ArpPacket::parse(&rep.encode()).unwrap(), rep);
    }

    #[test]
    fn encodes_to_exact_wire_length() {
        let (a, _) = macs();
        let req = ArpPacket::request(a, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 2));
        assert_eq!(req.encode().len(), ARP_WIRE_LEN);
    }

    #[test]
    fn parse_ignores_padding() {
        let (a, _) = macs();
        let req = ArpPacket::request(a, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 2));
        let mut bytes = req.encode();
        bytes.extend_from_slice(&[0u8; 18]); // Ethernet min-payload padding
        assert_eq!(ArpPacket::parse(&bytes).unwrap(), req);
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let (a, _) = macs();
        let base = ArpPacket::request(a, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 2));
        for (idx, bad) in [(1usize, 6u8), (3, 0xdd), (4, 8), (5, 16)] {
            let mut bytes = base.encode();
            bytes[idx] = bad;
            assert!(ArpPacket::parse(&bytes).is_err(), "index {idx} should be validated");
        }
    }

    #[test]
    fn rejects_unknown_opcode() {
        let (a, _) = macs();
        let mut bytes =
            ArpPacket::request(a, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 2)).encode();
        bytes[7] = 3; // RARP request
        assert!(matches!(
            ArpPacket::parse(&bytes),
            Err(ParseError::InvalidField { field: "oper", .. })
        ));
    }

    #[test]
    fn gratuitous_detection() {
        let (a, _) = macs();
        let g = ArpPacket::gratuitous(ArpOp::Reply, a, Ipv4Addr::new(10, 0, 0, 9));
        assert!(g.is_gratuitous());
        assert!(!g.is_probe());
        let req = ArpPacket::request(a, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        assert!(!req.is_gratuitous());
    }

    #[test]
    fn probe_detection() {
        let (a, _) = macs();
        let probe = ArpPacket::request(a, Ipv4Addr::UNSPECIFIED, Ipv4Addr::new(10, 0, 0, 7));
        assert!(probe.is_probe());
        assert!(!probe.is_gratuitous());
    }

    #[test]
    fn display_formats() {
        let (a, b) = macs();
        let req = ArpPacket::request(a, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        assert!(req.to_string().starts_with("who-has 10.0.0.2"));
        let rep = ArpPacket::reply_to(&req, b);
        assert!(rep.to_string().contains("is-at"));
    }
}
