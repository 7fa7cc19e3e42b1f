//! ICMP echo request/reply, the probe primitive used by active-verification
//! schemes and by background ping workloads.

use crate::checksum::internet_checksum;
use crate::error::ParseError;

/// ICMP message types used in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Echo reply (type 0).
    EchoReply,
    /// Echo request (type 8).
    EchoRequest,
}

impl IcmpType {
    /// Returns the wire type byte.
    pub const fn to_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::EchoRequest => 8,
        }
    }

    /// Builds from the wire type byte.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidField`] for ICMP types other than echo
    /// request/reply (nothing else is generated in the simulator).
    pub fn from_u8(value: u8) -> Result<Self, ParseError> {
        match value {
            0 => Ok(IcmpType::EchoReply),
            8 => Ok(IcmpType::EchoRequest),
            other => Err(ParseError::InvalidField {
                what: "icmp",
                field: "type",
                value: u64::from(other),
            }),
        }
    }
}

/// An ICMP echo message with a borrowed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpMessage<'a> {
    /// Echo request or reply.
    pub icmp_type: IcmpType,
    /// Identifier distinguishing ping sessions.
    pub identifier: u16,
    /// Sequence number within a session.
    pub sequence: u16,
    /// Echo payload.
    pub payload: &'a [u8],
}

impl<'a> IcmpMessage<'a> {
    /// Creates an echo request.
    pub fn echo_request(identifier: u16, sequence: u16, payload: &'a [u8]) -> Self {
        IcmpMessage { icmp_type: IcmpType::EchoRequest, identifier, sequence, payload }
    }

    /// Creates the reply answering `request`, echoing (and borrowing) its
    /// payload.
    pub fn reply_to(request: &IcmpMessage<'a>) -> Self {
        IcmpMessage { icmp_type: IcmpType::EchoReply, ..*request }
    }

    /// Parses and verifies the checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on truncation, unsupported type/code, or a
    /// checksum mismatch.
    pub fn parse(buf: &'a [u8]) -> Result<Self, ParseError> {
        if buf.len() < 8 {
            return Err(ParseError::Truncated { what: "icmp", needed: 8, got: buf.len() });
        }
        if internet_checksum(buf) != 0 {
            let found = u16::from_be_bytes([buf[2], buf[3]]);
            return Err(ParseError::BadChecksum { what: "icmp", found, expected: 0 });
        }
        if buf[1] != 0 {
            return Err(ParseError::InvalidField {
                what: "icmp",
                field: "code",
                value: u64::from(buf[1]),
            });
        }
        Ok(IcmpMessage {
            icmp_type: IcmpType::from_u8(buf[0])?,
            identifier: u16::from_be_bytes([buf[4], buf[5]]),
            sequence: u16::from_be_bytes([buf[6], buf[7]]),
            payload: &buf[8..],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireEmit;

    #[test]
    fn request_reply_roundtrip() {
        let req = IcmpMessage::echo_request(0x1234, 7, b"probe");
        let bytes = req.encode();
        assert_eq!(IcmpMessage::parse(&bytes).unwrap(), req);
        let rep = IcmpMessage::reply_to(&req);
        assert_eq!(rep.icmp_type, IcmpType::EchoReply);
        assert_eq!(rep.identifier, req.identifier);
        assert_eq!(rep.sequence, req.sequence);
        assert_eq!(rep.payload, req.payload);
        let bytes = rep.encode();
        assert_eq!(IcmpMessage::parse(&bytes).unwrap(), rep);
    }

    #[test]
    fn corrupt_message_detected() {
        let mut bytes = IcmpMessage::echo_request(1, 1, &[0; 12]).encode();
        bytes[6] ^= 0x80;
        assert!(matches!(
            IcmpMessage::parse(&bytes),
            Err(ParseError::BadChecksum { what: "icmp", .. })
        ));
    }

    #[test]
    fn rejects_unsupported_type() {
        let mut bytes = IcmpMessage::echo_request(1, 1, &[]).encode();
        bytes[0] = 3; // destination unreachable
                      // Fix up checksum so only the type check fires.
        bytes[2] = 0;
        bytes[3] = 0;
        let ck = internet_checksum(&bytes);
        bytes[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            IcmpMessage::parse(&bytes),
            Err(ParseError::InvalidField { field: "type", .. })
        ));
    }

    #[test]
    fn rejects_truncated() {
        assert!(IcmpMessage::parse(&[8, 0, 0]).is_err());
    }

    #[test]
    fn empty_payload_ok() {
        let bytes = IcmpMessage::echo_request(9, 9, &[]).encode();
        assert!(IcmpMessage::parse(&bytes).unwrap().payload.is_empty());
    }
}
