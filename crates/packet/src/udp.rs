//! UDP datagrams with pseudo-header checksums.

use crate::checksum::Checksum;
use crate::error::ParseError;
use crate::ipv4::Ipv4Addr;

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram: ports, the enclosing IPv4 addresses, and a borrowed
/// payload.
///
/// The checksum covers the IPv4 pseudo-header, so the datagram carries
/// the two addresses [`parse`](UdpDatagram::parse) verifies against and
/// emission checksums over. `parse` returns the `P = [u8]` form, borrowing
/// the payload from the received buffer; TX builds the same type around
/// any [`WireEmit`](crate::WireEmit) payload.
#[derive(Debug, PartialEq, Eq)]
pub struct UdpDatagram<'a, P: ?Sized = [u8]> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Enclosing source address, for the pseudo-header.
    pub src: Ipv4Addr,
    /// Enclosing destination address, for the pseudo-header.
    pub dst: Ipv4Addr,
    /// Application payload, or the payload emitter on TX.
    pub payload: &'a P,
}

impl<'a, P: ?Sized> UdpDatagram<'a, P> {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, src: Ipv4Addr, dst: Ipv4Addr, payload: &'a P) -> Self {
        UdpDatagram { src_port, dst_port, src, dst, payload }
    }
}

impl<'a> UdpDatagram<'a> {
    /// Parses a datagram, verifying length and (when present) the checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on truncation, an impossible length field,
    /// or a checksum mismatch.
    pub fn parse(buf: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, ParseError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated {
                what: "udp",
                needed: UDP_HEADER_LEN,
                got: buf.len(),
            });
        }
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < UDP_HEADER_LEN || len > buf.len() {
            return Err(ParseError::InvalidField {
                what: "udp",
                field: "length",
                value: len as u64,
            });
        }
        let stored = u16::from_be_bytes([buf[6], buf[7]]);
        if stored != 0 {
            let mut ck = udp_pseudo_header(src, dst, len as u16);
            ck.add_bytes(&buf[..len]);
            let verified = ck.finish();
            if verified != 0 {
                return Err(ParseError::BadChecksum { what: "udp", found: stored, expected: 0 });
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            src,
            dst,
            payload: &buf[UDP_HEADER_LEN..len],
        })
    }
}

pub(crate) fn udp_pseudo_header(src: Ipv4Addr, dst: Ipv4Addr, len: u16) -> Checksum {
    let mut ck = Checksum::new();
    ck.add_u32(src.to_u32());
    ck.add_u32(dst.to_u32());
    ck.add_u16(17); // protocol
    ck.add_u16(len);
    ck
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireEmit;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn roundtrip() {
        let dg = UdpDatagram::new(68, 67, SRC, DST, b"discover".as_slice());
        let bytes = dg.encode();
        assert_eq!(UdpDatagram::parse(&bytes, SRC, DST).unwrap(), dg);
    }

    #[test]
    fn checksum_binds_addresses() {
        let bytes = UdpDatagram::new(1000, 2000, SRC, DST, [1u8, 2, 3].as_slice()).encode();
        // Parsing with a different pseudo-header must fail.
        assert!(UdpDatagram::parse(&bytes, SRC, Ipv4Addr::new(10, 0, 0, 3)).is_err());
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = UdpDatagram::new(5, 6, SRC, DST, [0xaau8; 16].as_slice()).encode();
        bytes[12] ^= 0x01;
        assert!(matches!(
            UdpDatagram::parse(&bytes, SRC, DST),
            Err(ParseError::BadChecksum { what: "udp", .. })
        ));
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let mut bytes = UdpDatagram::new(5, 6, SRC, DST, [1u8].as_slice()).encode();
        bytes[6] = 0;
        bytes[7] = 0;
        assert!(UdpDatagram::parse(&bytes, SRC, DST).is_ok());
    }

    #[test]
    fn rejects_bad_length_field() {
        let mut bytes = UdpDatagram::new(5, 6, SRC, DST, [1u8, 2].as_slice()).encode();
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(UdpDatagram::parse(&bytes, SRC, DST).is_err());
        bytes[4] = 0;
        bytes[5] = 3; // < header length
        assert!(UdpDatagram::parse(&bytes, SRC, DST).is_err());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = UdpDatagram::new(53, 53, SRC, DST, [0u8; 0].as_slice()).encode();
        let parsed = UdpDatagram::parse(&bytes, SRC, DST).unwrap();
        assert!(parsed.payload.is_empty());
    }

    #[test]
    fn parse_ignores_trailing_padding() {
        let mut bytes = UdpDatagram::new(68, 67, SRC, DST, [9u8; 3].as_slice()).encode();
        bytes.extend_from_slice(&[0; 10]);
        let parsed = UdpDatagram::parse(&bytes, SRC, DST).unwrap();
        assert_eq!(parsed.payload, &[9; 3]);
    }
}
