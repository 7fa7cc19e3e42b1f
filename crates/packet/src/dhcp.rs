//! DHCP (RFC 2131) messages over BOOTP framing, with the option subset the
//! simulator's client, server, starvation attack, and snooping schemes need.

use std::fmt;

use crate::error::ParseError;
use crate::ipv4::Ipv4Addr;
use crate::mac::MacAddr;

/// UDP port the DHCP server listens on.
pub const DHCP_SERVER_PORT: u16 = 67;
/// UDP port the DHCP client listens on.
pub const DHCP_CLIENT_PORT: u16 = 68;

pub(crate) const DHCP_MAGIC_COOKIE: [u8; 4] = [99, 130, 83, 99];
pub(crate) const DHCP_FIXED_LEN: usize = 236;

const MAGIC_COOKIE: [u8; 4] = DHCP_MAGIC_COOKIE;
const FIXED_LEN: usize = DHCP_FIXED_LEN;

/// BOOTP op field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DhcpOp {
    /// Client-to-server (`1`).
    BootRequest,
    /// Server-to-client (`2`).
    BootReply,
}

impl DhcpOp {
    /// Returns the wire byte.
    pub const fn to_u8(self) -> u8 {
        match self {
            DhcpOp::BootRequest => 1,
            DhcpOp::BootReply => 2,
        }
    }

    /// Builds from the wire byte.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidField`] for any other value.
    pub fn from_u8(value: u8) -> Result<Self, ParseError> {
        match value {
            1 => Ok(DhcpOp::BootRequest),
            2 => Ok(DhcpOp::BootReply),
            other => {
                Err(ParseError::InvalidField { what: "dhcp", field: "op", value: u64::from(other) })
            }
        }
    }
}

/// DHCP message type (option 53).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DhcpMessageType {
    /// Client broadcast to locate servers.
    Discover,
    /// Server offer of parameters.
    Offer,
    /// Client request of offered parameters.
    Request,
    /// Server declines the request.
    Nak,
    /// Server commits the lease.
    Ack,
    /// Client releases its lease.
    Release,
}

impl DhcpMessageType {
    /// Returns the option-53 wire byte.
    pub const fn to_u8(self) -> u8 {
        match self {
            DhcpMessageType::Discover => 1,
            DhcpMessageType::Offer => 2,
            DhcpMessageType::Request => 3,
            DhcpMessageType::Nak => 6,
            DhcpMessageType::Ack => 5,
            DhcpMessageType::Release => 7,
        }
    }

    /// Builds from the option-53 wire byte.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidField`] for unsupported type codes
    /// (Decline and Inform are not generated anywhere in the simulator).
    pub fn from_u8(value: u8) -> Result<Self, ParseError> {
        match value {
            1 => Ok(DhcpMessageType::Discover),
            2 => Ok(DhcpMessageType::Offer),
            3 => Ok(DhcpMessageType::Request),
            5 => Ok(DhcpMessageType::Ack),
            6 => Ok(DhcpMessageType::Nak),
            7 => Ok(DhcpMessageType::Release),
            other => Err(ParseError::InvalidField {
                what: "dhcp",
                field: "message_type",
                value: u64::from(other),
            }),
        }
    }
}

impl fmt::Display for DhcpMessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DhcpMessageType::Discover => "DISCOVER",
            DhcpMessageType::Offer => "OFFER",
            DhcpMessageType::Request => "REQUEST",
            DhcpMessageType::Nak => "NAK",
            DhcpMessageType::Ack => "ACK",
            DhcpMessageType::Release => "RELEASE",
        };
        write!(f, "{name}")
    }
}

/// A decoded DHCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhcpOption {
    /// Option 1: subnet mask.
    SubnetMask(Ipv4Addr),
    /// Option 3: default router.
    Router(Ipv4Addr),
    /// Option 6: DNS server.
    DnsServer(Ipv4Addr),
    /// Option 50: requested IP address.
    RequestedIp(Ipv4Addr),
    /// Option 51: lease time in seconds.
    LeaseTime(u32),
    /// Option 53: message type (always present in valid DHCP).
    MessageType(DhcpMessageType),
    /// Option 54: server identifier.
    ServerId(Ipv4Addr),
    /// Any other option, carried verbatim.
    Other(u8, Vec<u8>),
}

impl DhcpOption {
    /// Encoded length including the code and length bytes.
    pub(crate) fn encoded_len(&self) -> usize {
        match self {
            DhcpOption::SubnetMask(_)
            | DhcpOption::Router(_)
            | DhcpOption::DnsServer(_)
            | DhcpOption::RequestedIp(_)
            | DhcpOption::ServerId(_)
            | DhcpOption::LeaseTime(_) => 6,
            DhcpOption::MessageType(_) => 3,
            DhcpOption::Other(_, data) => 2 + data.len(),
        }
    }

    /// Writes the option at `buf[at..]`, returning its encoded length.
    pub(crate) fn emit_at(&self, buf: &mut [u8], at: usize) -> usize {
        let len = self.encoded_len();
        let out = &mut buf[at..at + len];
        match self {
            DhcpOption::SubnetMask(a) => emit_addr(out, 1, *a),
            DhcpOption::Router(a) => emit_addr(out, 3, *a),
            DhcpOption::DnsServer(a) => emit_addr(out, 6, *a),
            DhcpOption::RequestedIp(a) => emit_addr(out, 50, *a),
            DhcpOption::LeaseTime(t) => {
                out[0] = 51;
                out[1] = 4;
                out[2..6].copy_from_slice(&t.to_be_bytes());
            }
            DhcpOption::MessageType(t) => out.copy_from_slice(&[53, 1, t.to_u8()]),
            DhcpOption::ServerId(a) => emit_addr(out, 54, *a),
            DhcpOption::Other(code, data) => {
                out[0] = *code;
                out[1] = data.len() as u8;
                out[2..].copy_from_slice(data);
            }
        }
        len
    }
}

fn emit_addr(out: &mut [u8], code: u8, addr: Ipv4Addr) {
    out[0] = code;
    out[1] = 4;
    out[2..6].copy_from_slice(&addr.octets());
}

/// A DHCP message.
///
/// Field names follow RFC 2131 (`xid`, `ciaddr`, `yiaddr`, `siaddr`,
/// `chaddr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage {
    /// BOOTP op.
    pub op: DhcpOp,
    /// Transaction identifier chosen by the client.
    pub xid: u32,
    /// Client's current address (renewals), else unspecified.
    pub ciaddr: Ipv4Addr,
    /// "Your" address — the address the server assigns.
    pub yiaddr: Ipv4Addr,
    /// Next-server address.
    pub siaddr: Ipv4Addr,
    /// Client hardware address. For DHCP starvation this is the forged
    /// field: every discover carries a fresh random `chaddr`.
    pub chaddr: MacAddr,
    /// Options in order of appearance.
    pub options: Vec<DhcpOption>,
}

impl DhcpMessage {
    /// Builds a client DISCOVER.
    pub fn discover(xid: u32, chaddr: MacAddr) -> Self {
        DhcpMessage {
            op: DhcpOp::BootRequest,
            xid,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            options: vec![DhcpOption::MessageType(DhcpMessageType::Discover)],
        }
    }

    /// Builds a client REQUEST for `requested` from `server`.
    pub fn request(xid: u32, chaddr: MacAddr, requested: Ipv4Addr, server: Ipv4Addr) -> Self {
        DhcpMessage {
            op: DhcpOp::BootRequest,
            xid,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            options: vec![
                DhcpOption::MessageType(DhcpMessageType::Request),
                DhcpOption::RequestedIp(requested),
                DhcpOption::ServerId(server),
            ],
        }
    }

    /// Builds a client RELEASE of `addr` back to `server`.
    pub fn release(xid: u32, chaddr: MacAddr, addr: Ipv4Addr, server: Ipv4Addr) -> Self {
        DhcpMessage {
            op: DhcpOp::BootRequest,
            xid,
            ciaddr: addr,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            options: vec![
                DhcpOption::MessageType(DhcpMessageType::Release),
                DhcpOption::ServerId(server),
            ],
        }
    }

    /// Builds a server reply (OFFER/ACK/NAK) mirroring a client message.
    pub fn reply(
        message_type: DhcpMessageType,
        client: &DhcpMessage,
        yiaddr: Ipv4Addr,
        server_id: Ipv4Addr,
        lease_secs: u32,
        mask: Ipv4Addr,
        router: Ipv4Addr,
    ) -> Self {
        DhcpMessage {
            op: DhcpOp::BootReply,
            xid: client.xid,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr,
            siaddr: server_id,
            chaddr: client.chaddr,
            options: vec![
                DhcpOption::MessageType(message_type),
                DhcpOption::ServerId(server_id),
                DhcpOption::LeaseTime(lease_secs),
                DhcpOption::SubnetMask(mask),
                DhcpOption::Router(router),
            ],
        }
    }

    /// Returns the message type from option 53, if present.
    pub fn message_type(&self) -> Option<DhcpMessageType> {
        self.options.iter().find_map(|o| match o {
            DhcpOption::MessageType(t) => Some(*t),
            _ => None,
        })
    }

    /// Returns the requested IP (option 50), if present.
    pub fn requested_ip(&self) -> Option<Ipv4Addr> {
        self.options.iter().find_map(|o| match o {
            DhcpOption::RequestedIp(a) => Some(*a),
            _ => None,
        })
    }

    /// Returns the server identifier (option 54), if present.
    pub fn server_id(&self) -> Option<Ipv4Addr> {
        self.options.iter().find_map(|o| match o {
            DhcpOption::ServerId(a) => Some(*a),
            _ => None,
        })
    }

    /// Returns the lease time (option 51), if present.
    pub fn lease_time(&self) -> Option<u32> {
        self.options.iter().find_map(|o| match o {
            DhcpOption::LeaseTime(t) => Some(*t),
            _ => None,
        })
    }

    /// Returns the default router (option 3), if present.
    pub fn router(&self) -> Option<Ipv4Addr> {
        self.options.iter().find_map(|o| match o {
            DhcpOption::Router(a) => Some(*a),
            _ => None,
        })
    }

    /// Parses a DHCP message.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on truncation, a missing magic cookie, or a
    /// malformed options area.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < FIXED_LEN + 4 {
            return Err(ParseError::Truncated {
                what: "dhcp",
                needed: FIXED_LEN + 4,
                got: buf.len(),
            });
        }
        if buf[FIXED_LEN..FIXED_LEN + 4] != MAGIC_COOKIE {
            return Err(ParseError::InvalidField {
                what: "dhcp",
                field: "magic_cookie",
                value: u64::from(u32::from_be_bytes([
                    buf[FIXED_LEN],
                    buf[FIXED_LEN + 1],
                    buf[FIXED_LEN + 2],
                    buf[FIXED_LEN + 3],
                ])),
            });
        }
        let mut options = Vec::new();
        let mut i = FIXED_LEN + 4;
        while i < buf.len() {
            let code = buf[i];
            match code {
                0 => {
                    i += 1; // pad
                }
                255 => break,
                _ => {
                    if i + 1 >= buf.len() {
                        return Err(ParseError::MalformedOptions { what: "dhcp", offset: i });
                    }
                    let len = usize::from(buf[i + 1]);
                    let start = i + 2;
                    let end = start + len;
                    if end > buf.len() {
                        return Err(ParseError::MalformedOptions { what: "dhcp", offset: i });
                    }
                    options.push(decode_option(code, &buf[start..end], i)?);
                    i = end;
                }
            }
        }
        Ok(DhcpMessage {
            op: DhcpOp::from_u8(buf[0])?,
            xid: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ciaddr: Ipv4Addr::parse(&buf[12..16])?,
            yiaddr: Ipv4Addr::parse(&buf[16..20])?,
            siaddr: Ipv4Addr::parse(&buf[20..24])?,
            chaddr: MacAddr::parse(&buf[28..34])?,
            options,
        })
    }
}

fn decode_option(code: u8, data: &[u8], offset: usize) -> Result<DhcpOption, ParseError> {
    let addr = |data: &[u8]| -> Result<Ipv4Addr, ParseError> {
        if data.len() != 4 {
            return Err(ParseError::MalformedOptions { what: "dhcp", offset });
        }
        Ipv4Addr::parse(data)
    };
    Ok(match code {
        1 => DhcpOption::SubnetMask(addr(data)?),
        3 => DhcpOption::Router(addr(data)?),
        6 => DhcpOption::DnsServer(addr(data)?),
        50 => DhcpOption::RequestedIp(addr(data)?),
        51 => {
            if data.len() != 4 {
                return Err(ParseError::MalformedOptions { what: "dhcp", offset });
            }
            DhcpOption::LeaseTime(u32::from_be_bytes([data[0], data[1], data[2], data[3]]))
        }
        53 => {
            if data.len() != 1 {
                return Err(ParseError::MalformedOptions { what: "dhcp", offset });
            }
            DhcpOption::MessageType(DhcpMessageType::from_u8(data[0])?)
        }
        54 => DhcpOption::ServerId(addr(data)?),
        other => DhcpOption::Other(other, data.to_vec()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireEmit;

    #[test]
    fn discover_roundtrip() {
        let msg = DhcpMessage::discover(0x643c_9869, MacAddr::from_index(3));
        let parsed = DhcpMessage::parse(&msg.encode()).unwrap();
        assert_eq!(parsed, msg);
        assert_eq!(parsed.message_type(), Some(DhcpMessageType::Discover));
    }

    #[test]
    fn full_handshake_fields() {
        let chaddr = MacAddr::from_index(9);
        let server = Ipv4Addr::new(192, 168, 88, 1);
        let offered = Ipv4Addr::new(192, 168, 88, 250);
        let discover = DhcpMessage::discover(7, chaddr);
        let offer = DhcpMessage::reply(
            DhcpMessageType::Offer,
            &discover,
            offered,
            server,
            600,
            Ipv4Addr::new(255, 255, 255, 0),
            server,
        );
        let parsed = DhcpMessage::parse(&offer.encode()).unwrap();
        assert_eq!(parsed.yiaddr, offered);
        assert_eq!(parsed.server_id(), Some(server));
        assert_eq!(parsed.lease_time(), Some(600));
        assert_eq!(parsed.router(), Some(server));
        assert_eq!(parsed.xid, 7);
        assert_eq!(parsed.chaddr, chaddr);

        let request = DhcpMessage::request(7, chaddr, offered, server);
        let parsed = DhcpMessage::parse(&request.encode()).unwrap();
        assert_eq!(parsed.requested_ip(), Some(offered));
        assert_eq!(parsed.server_id(), Some(server));
    }

    #[test]
    fn release_carries_ciaddr() {
        let msg = DhcpMessage::release(
            1,
            MacAddr::from_index(4),
            Ipv4Addr::new(10, 0, 0, 50),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let parsed = DhcpMessage::parse(&msg.encode()).unwrap();
        assert_eq!(parsed.ciaddr, Ipv4Addr::new(10, 0, 0, 50));
        assert_eq!(parsed.message_type(), Some(DhcpMessageType::Release));
    }

    #[test]
    fn rejects_missing_cookie() {
        let msg = DhcpMessage::discover(1, MacAddr::from_index(1));
        let mut bytes = msg.encode();
        bytes[FIXED_LEN] = 0;
        assert!(matches!(
            DhcpMessage::parse(&bytes),
            Err(ParseError::InvalidField { field: "magic_cookie", .. })
        ));
    }

    #[test]
    fn rejects_truncated_option() {
        let msg = DhcpMessage::discover(1, MacAddr::from_index(1));
        let mut bytes = msg.encode();
        bytes.pop(); // drop end marker
        bytes.push(51); // lease-time option with no length byte
        assert!(matches!(DhcpMessage::parse(&bytes), Err(ParseError::MalformedOptions { .. })));
    }

    #[test]
    fn skips_pad_and_preserves_unknown_options() {
        let mut msg = DhcpMessage::discover(1, MacAddr::from_index(1));
        msg.options.push(DhcpOption::Other(12, b"hostname".to_vec()));
        let mut bytes = msg.encode();
        // Insert pad bytes just after the cookie.
        bytes.insert(FIXED_LEN + 4, 0);
        bytes.insert(FIXED_LEN + 4, 0);
        let parsed = DhcpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.options.len(), 2);
        assert_eq!(parsed.options[1], DhcpOption::Other(12, b"hostname".to_vec()));
    }

    #[test]
    fn option_length_mismatch_rejected() {
        let msg = DhcpMessage::discover(1, MacAddr::from_index(1));
        let mut bytes = msg.encode();
        bytes.pop();
        bytes.extend_from_slice(&[54, 2, 1, 2]); // server id must be 4 bytes
        bytes.push(255);
        assert!(DhcpMessage::parse(&bytes).is_err());
    }

    #[test]
    fn message_type_codes_roundtrip() {
        for t in [
            DhcpMessageType::Discover,
            DhcpMessageType::Offer,
            DhcpMessageType::Request,
            DhcpMessageType::Ack,
            DhcpMessageType::Nak,
            DhcpMessageType::Release,
        ] {
            assert_eq!(DhcpMessageType::from_u8(t.to_u8()).unwrap(), t);
        }
        assert!(DhcpMessageType::from_u8(99).is_err());
    }
}
