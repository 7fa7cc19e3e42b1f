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
/// Where the options region starts: after the fixed fields and cookie.
const OPTIONS_AT: usize = FIXED_LEN + 4;

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

/// A decoded DHCP option. [`Other`](DhcpOption::Other) borrows its
/// bytes: from the received buffer when walked out of a parsed message,
/// from the caller on TX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhcpOption<'a> {
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
    Other(u8, &'a [u8]),
}

impl DhcpOption<'_> {
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

/// A DHCP message: the fixed BOOTP fields by value plus its options `O`.
///
/// [`parse`](DhcpMessage::parse) returns the `O = &[u8]` form: the
/// options stay the validated region of the received buffer after the
/// magic cookie, walked on demand by [`options`](DhcpMessage::options)
/// and the typed getters, so receiving allocates nothing. TX builds the
/// same type around typed options (the constructors use fixed arrays;
/// any `AsRef<[DhcpOption]>` emits) and serializes it through
/// [`WireEmit`](crate::WireEmit).
///
/// Field names follow RFC 2131 (`xid`, `ciaddr`, `yiaddr`, `siaddr`,
/// `chaddr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage<O> {
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
    /// The options region on RX; typed options, in order, on TX.
    pub options: O,
}

/// A client message's fixed fields around typed options.
fn client_message<O>(xid: u32, chaddr: MacAddr, ciaddr: Ipv4Addr, options: O) -> DhcpMessage<O> {
    DhcpMessage {
        op: DhcpOp::BootRequest,
        xid,
        ciaddr,
        yiaddr: Ipv4Addr::UNSPECIFIED,
        siaddr: Ipv4Addr::UNSPECIFIED,
        chaddr,
        options,
    }
}

impl DhcpMessage<[DhcpOption<'static>; 1]> {
    /// Builds a client DISCOVER.
    pub fn discover(xid: u32, chaddr: MacAddr) -> Self {
        let options = [DhcpOption::MessageType(DhcpMessageType::Discover)];
        client_message(xid, chaddr, Ipv4Addr::UNSPECIFIED, options)
    }
}

impl DhcpMessage<[DhcpOption<'static>; 3]> {
    /// Builds a client REQUEST for `requested` from `server`.
    pub fn request(xid: u32, chaddr: MacAddr, requested: Ipv4Addr, server: Ipv4Addr) -> Self {
        let options = [
            DhcpOption::MessageType(DhcpMessageType::Request),
            DhcpOption::RequestedIp(requested),
            DhcpOption::ServerId(server),
        ];
        client_message(xid, chaddr, Ipv4Addr::UNSPECIFIED, options)
    }
}

impl DhcpMessage<[DhcpOption<'static>; 2]> {
    /// Builds a client RELEASE of `addr` back to `server`.
    pub fn release(xid: u32, chaddr: MacAddr, addr: Ipv4Addr, server: Ipv4Addr) -> Self {
        let options =
            [DhcpOption::MessageType(DhcpMessageType::Release), DhcpOption::ServerId(server)];
        client_message(xid, chaddr, addr, options)
    }
}

impl DhcpMessage<[DhcpOption<'static>; 5]> {
    /// Builds a server reply (OFFER/ACK/NAK) mirroring a client message.
    pub fn reply<C>(
        message_type: DhcpMessageType,
        client: &DhcpMessage<C>,
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
            options: [
                DhcpOption::MessageType(message_type),
                DhcpOption::ServerId(server_id),
                DhcpOption::LeaseTime(lease_secs),
                DhcpOption::SubnetMask(mask),
                DhcpOption::Router(router),
            ],
        }
    }
}

impl<'a> DhcpMessage<&'a [u8]> {
    /// Parses a DHCP message as a view over `buf`: the fixed fields are
    /// read, and every option is validated but none is copied.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on truncation, a missing magic cookie, a
    /// malformed options area (an option running past the buffer, an
    /// address or lease option of the wrong length, an unknown message
    /// type), or an unknown BOOTP op.
    pub fn parse(buf: &'a [u8]) -> Result<Self, ParseError> {
        if buf.len() < OPTIONS_AT {
            return Err(ParseError::Truncated { what: "dhcp", needed: OPTIONS_AT, got: buf.len() });
        }
        if buf[FIXED_LEN..OPTIONS_AT] != MAGIC_COOKIE {
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
        let options = &buf[OPTIONS_AT..];
        let mut walk = DhcpOptions { region: options, at: 0 };
        while let Some(option) = walk.step() {
            option?;
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

    /// The options in order of appearance, decoded as they are walked.
    pub fn options(&self) -> DhcpOptions<'a> {
        DhcpOptions { region: self.options, at: 0 }
    }

    /// Returns the message type from option 53, if present.
    pub fn message_type(&self) -> Option<DhcpMessageType> {
        self.options().find_map(|o| match o {
            DhcpOption::MessageType(t) => Some(t),
            _ => None,
        })
    }

    /// Returns the requested IP (option 50), if present.
    pub fn requested_ip(&self) -> Option<Ipv4Addr> {
        self.options().find_map(|o| match o {
            DhcpOption::RequestedIp(a) => Some(a),
            _ => None,
        })
    }

    /// Returns the server identifier (option 54), if present.
    pub fn server_id(&self) -> Option<Ipv4Addr> {
        self.options().find_map(|o| match o {
            DhcpOption::ServerId(a) => Some(a),
            _ => None,
        })
    }

    /// Returns the lease time (option 51), if present.
    pub fn lease_time(&self) -> Option<u32> {
        self.options().find_map(|o| match o {
            DhcpOption::LeaseTime(t) => Some(t),
            _ => None,
        })
    }

    /// Returns the default router (option 3), if present.
    pub fn router(&self) -> Option<Ipv4Addr> {
        self.options().find_map(|o| match o {
            DhcpOption::Router(a) => Some(a),
            _ => None,
        })
    }

    /// Returns the subnet mask (option 1), if present.
    pub fn subnet_mask(&self) -> Option<Ipv4Addr> {
        self.options().find_map(|o| match o {
            DhcpOption::SubnetMask(a) => Some(a),
            _ => None,
        })
    }
}

/// The options of a parsed [`DhcpMessage`], decoded one at a time from
/// the borrowed region; pad options are skipped and the end marker
/// stops the walk.
#[derive(Debug, Clone)]
pub struct DhcpOptions<'a> {
    region: &'a [u8],
    at: usize,
}

impl<'a> DhcpOptions<'a> {
    /// Decodes the next option, reporting a malformed one with its
    /// offset in the whole message. `None` at the end marker or the end
    /// of the region.
    fn step(&mut self) -> Option<Result<DhcpOption<'a>, ParseError>> {
        loop {
            let code = *self.region.get(self.at)?;
            match code {
                0 => self.at += 1, // pad
                255 => {
                    self.at = self.region.len();
                    return None;
                }
                _ => {
                    let offset = OPTIONS_AT + self.at;
                    let start = self.at + 2;
                    let data = self
                        .region
                        .get(self.at + 1)
                        .and_then(|&len| self.region.get(start..start + usize::from(len)));
                    let Some(data) = data else {
                        self.at = self.region.len();
                        return Some(Err(ParseError::MalformedOptions { what: "dhcp", offset }));
                    };
                    self.at = start + data.len();
                    return Some(decode_option(code, data, offset));
                }
            }
        }
    }
}

/// Walks a region [`DhcpMessage::parse`] already validated, so every
/// step decodes.
impl<'a> Iterator for DhcpOptions<'a> {
    type Item = DhcpOption<'a>;

    fn next(&mut self) -> Option<DhcpOption<'a>> {
        self.step()?.ok()
    }
}

fn decode_option(code: u8, data: &[u8], offset: usize) -> Result<DhcpOption<'_>, ParseError> {
    let malformed = || ParseError::MalformedOptions { what: "dhcp", offset };
    let word = || <[u8; 4]>::try_from(data).map_err(|_| malformed());
    Ok(match code {
        1 => DhcpOption::SubnetMask(word()?.into()),
        3 => DhcpOption::Router(word()?.into()),
        6 => DhcpOption::DnsServer(word()?.into()),
        50 => DhcpOption::RequestedIp(word()?.into()),
        51 => DhcpOption::LeaseTime(u32::from_be_bytes(word()?)),
        53 => match data {
            [t] => DhcpOption::MessageType(DhcpMessageType::from_u8(*t)?),
            _ => return Err(malformed()),
        },
        54 => DhcpOption::ServerId(word()?.into()),
        other => DhcpOption::Other(other, data),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireEmit;

    #[test]
    fn discover_roundtrip() {
        let msg = DhcpMessage::discover(0x643c_9869, MacAddr::from_index(3));
        let bytes = msg.encode();
        let parsed = DhcpMessage::parse(&bytes).unwrap();
        assert_eq!((parsed.op, parsed.xid, parsed.chaddr), (msg.op, msg.xid, msg.chaddr));
        assert_eq!(parsed.options().collect::<Vec<_>>(), msg.options);
        assert_eq!(parsed.message_type(), Some(DhcpMessageType::Discover));
    }

    #[test]
    fn full_handshake_fields() {
        let chaddr = MacAddr::from_index(9);
        let server = Ipv4Addr::new(192, 168, 88, 1);
        let offered = Ipv4Addr::new(192, 168, 88, 250);
        let mask = Ipv4Addr::new(255, 255, 255, 0);
        let discover = DhcpMessage::discover(7, chaddr);
        let offer = DhcpMessage::reply(
            DhcpMessageType::Offer,
            &discover,
            offered,
            server,
            600,
            mask,
            server,
        );
        let bytes = offer.encode();
        let parsed = DhcpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.yiaddr, offered);
        assert_eq!(parsed.server_id(), Some(server));
        assert_eq!(parsed.lease_time(), Some(600));
        assert_eq!(parsed.router(), Some(server));
        assert_eq!(parsed.subnet_mask(), Some(mask));
        assert_eq!(parsed.xid, 7);
        assert_eq!(parsed.chaddr, chaddr);

        let request = DhcpMessage::request(7, chaddr, offered, server);
        let bytes = request.encode();
        let parsed = DhcpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.requested_ip(), Some(offered));
        assert_eq!(parsed.server_id(), Some(server));
        assert_eq!(parsed.lease_time(), None);
    }

    #[test]
    fn release_carries_ciaddr() {
        let msg = DhcpMessage::release(
            1,
            MacAddr::from_index(4),
            Ipv4Addr::new(10, 0, 0, 50),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let bytes = msg.encode();
        let parsed = DhcpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.ciaddr, Ipv4Addr::new(10, 0, 0, 50));
        assert_eq!(parsed.message_type(), Some(DhcpMessageType::Release));
    }

    /// A discover's bytes with its end marker replaced by `tail`: the
    /// spliced option starts at offset 243, after the cookie and the
    /// three-byte message-type option.
    fn discover_then(tail: &[u8]) -> Vec<u8> {
        let mut bytes = DhcpMessage::discover(1, MacAddr::from_index(1)).encode();
        bytes.pop();
        bytes.extend_from_slice(tail);
        bytes
    }

    /// A discover's bytes with byte `at` overwritten.
    fn discover_with(at: usize, byte: u8) -> Vec<u8> {
        let mut bytes = DhcpMessage::discover(1, MacAddr::from_index(1)).encode();
        bytes[at] = byte;
        bytes
    }

    fn malformed(offset: usize) -> Result<DhcpMessage<&'static [u8]>, ParseError> {
        Err(ParseError::MalformedOptions { what: "dhcp", offset })
    }

    fn invalid(field: &'static str, value: u64) -> Result<DhcpMessage<&'static [u8]>, ParseError> {
        Err(ParseError::InvalidField { what: "dhcp", field, value })
    }

    // The rejection tests below pin the exact error for each input: the
    // first violated constraint, checked in the order length, cookie,
    // options, then op.

    #[test]
    fn rejects_missing_cookie() {
        assert_eq!(
            DhcpMessage::parse(&discover_with(FIXED_LEN, 0)),
            invalid("magic_cookie", 0x825363)
        );
        let short = &discover_with(0, 1)[..OPTIONS_AT - 1];
        assert_eq!(
            DhcpMessage::parse(short),
            Err(ParseError::Truncated { what: "dhcp", needed: OPTIONS_AT, got: OPTIONS_AT - 1 })
        );
    }

    #[test]
    fn rejects_truncated_option() {
        // A lease-time option with no length byte, then one whose length
        // runs past the buffer.
        assert_eq!(DhcpMessage::parse(&discover_then(&[51])), malformed(243));
        assert_eq!(DhcpMessage::parse(&discover_then(&[12, 10, 1, 2])), malformed(243));
    }

    #[test]
    fn option_length_mismatch_rejected() {
        for option in
            [&[54, 2, 1, 2][..], &[51, 3, 0, 0, 9], &[53, 2, 1, 1], &[1, 5, 0, 0, 0, 0, 0]]
        {
            let bytes = discover_then(&[option, &[255]].concat());
            assert_eq!(DhcpMessage::parse(&bytes), malformed(243), "{option:?}");
        }
    }

    #[test]
    fn rejects_unknown_message_type_and_op() {
        // Byte 242 is the message-type option's value; 4 is DECLINE.
        assert_eq!(DhcpMessage::parse(&discover_with(242, 4)), invalid("message_type", 4));
        assert_eq!(DhcpMessage::parse(&discover_with(0, 3)), invalid("op", 3));
        // A malformed option outranks a bad op.
        let mut both = discover_then(&[54, 2, 1, 2, 255]);
        both[0] = 3;
        assert_eq!(DhcpMessage::parse(&both), malformed(243));
    }

    #[test]
    fn skips_pad_and_preserves_unknown_options() {
        let discover = DhcpOption::MessageType(DhcpMessageType::Discover);
        let options = [discover, DhcpOption::Other(12, b"hostname")];
        let msg = client_message(1, MacAddr::from_index(1), Ipv4Addr::UNSPECIFIED, options);
        let mut bytes = msg.encode();
        // Insert pad bytes just after the cookie.
        bytes.insert(OPTIONS_AT, 0);
        bytes.insert(OPTIONS_AT, 0);
        let parsed = DhcpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.options().collect::<Vec<_>>(), msg.options);
        assert_eq!(parsed.message_type(), Some(DhcpMessageType::Discover));
    }

    #[test]
    fn the_end_marker_stops_the_walk() {
        let mut bytes = discover_then(&[255, 54, 2, 1, 2]);
        assert_eq!(DhcpMessage::parse(&bytes).unwrap().options().count(), 1);
        bytes.truncate(bytes.len() - 5); // no end marker at all
        assert_eq!(DhcpMessage::parse(&bytes).unwrap().options().count(), 1);
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
