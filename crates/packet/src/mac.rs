//! 48-bit IEEE 802 MAC addresses.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::ParseError;

/// A 48-bit Ethernet hardware address.
///
/// `MacAddr` is a plain value type: `Copy`, ordered, hashable, and
/// convertible to and from its canonical colon-separated text form.
///
/// ```rust
/// use arpshield_packet::MacAddr;
///
/// let mac: MacAddr = "02:00:00:00:00:2a".parse().unwrap();
/// assert_eq!(mac.to_string(), "02:00:00:00:00:2a");
/// assert!(mac.is_locally_administered());
/// assert!(!mac.is_multicast());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct MacAddr([u8; 6]);

/// Hashes as one zero-extended little-endian `u64`, not as a
/// length-prefixed byte slice: the CAM and the detectors key tables on
/// addresses every frame, and a single word is one hasher step.
impl Hash for MacAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d, e, f] = self.0;
        state.write_u64(u64::from_le_bytes([a, b, c, d, e, f, 0, 0]));
    }
}

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used by DHCP clients before configuration and
    /// by ARP probes as a null target.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Deterministically derives a locally-administered unicast address from
    /// an index, useful for assigning stable addresses to simulated hosts.
    ///
    /// The first octet is always `0x02` (locally administered, unicast), so
    /// generated addresses can never collide with [`MacAddr::BROADCAST`] or
    /// multicast space.
    pub const fn from_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns the six octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Returns the address as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Parses an address from the first six bytes of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if `buf` is shorter than six bytes.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < 6 {
            return Err(ParseError::Truncated { what: "mac", needed: 6, got: buf.len() });
        }
        let mut o = [0u8; 6];
        o.copy_from_slice(&buf[..6]);
        Ok(MacAddr(o))
    }

    /// True for the all-ones broadcast address.
    pub const fn is_broadcast(&self) -> bool {
        matches!(self.0, [0xff, 0xff, 0xff, 0xff, 0xff, 0xff])
    }

    /// True when the group bit (least-significant bit of the first octet) is
    /// set, i.e. multicast or broadcast.
    pub const fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for unicast addresses (group bit clear).
    pub const fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// True when the locally-administered bit is set.
    pub const fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// True for the all-zero address.
    pub const fn is_zero(&self) -> bool {
        matches!(self.0, [0, 0, 0, 0, 0, 0])
    }

    /// Returns the 24-bit organizationally unique identifier (vendor prefix).
    pub const fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(mac: MacAddr) -> Self {
        mac.0
    }
}

impl AsRef<[u8]> for MacAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl FromStr for MacAddr {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split([':', '-']);
        for slot in octets.iter_mut() {
            let part = parts.next().ok_or(ParseError::InvalidField {
                what: "mac",
                field: "text",
                value: 0,
            })?;
            *slot = u8::from_str_radix(part, 16).map_err(|_| ParseError::InvalidField {
                what: "mac",
                field: "octet",
                value: 0,
            })?;
        }
        if parts.next().is_some() {
            return Err(ParseError::InvalidField { what: "mac", field: "text", value: 0 });
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_as_one_word() {
        use std::collections::hash_map::DefaultHasher;
        let (mut mac, mut word) = (DefaultHasher::new(), DefaultHasher::new());
        MacAddr::new([1, 2, 3, 4, 5, 6]).hash(&mut mac);
        word.write_u64(0x0000_0605_0403_0201);
        assert_eq!(mac.finish(), word.finish());
    }

    #[test]
    fn display_roundtrip() {
        let mac = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        let text = mac.to_string();
        assert_eq!(text, "de:ad:be:ef:00:01");
        assert_eq!(text.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn parses_dash_separated() {
        let mac: MacAddr = "4C-34-88-5E-EA-85".parse().unwrap();
        assert_eq!(mac.octets(), [0x4c, 0x34, 0x88, 0x5e, 0xea, 0x85]);
    }

    #[test]
    fn rejects_malformed_text() {
        assert!("not-a-mac".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("zz:11:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());
        assert!(!MacAddr::ZERO.is_broadcast());
        assert!(MacAddr::ZERO.is_zero());
    }

    #[test]
    fn from_index_is_stable_unicast() {
        let a = MacAddr::from_index(7);
        let b = MacAddr::from_index(7);
        let c = MacAddr::from_index(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_unicast());
        assert!(a.is_locally_administered());
    }

    #[test]
    fn parse_requires_six_bytes() {
        assert!(MacAddr::parse(&[1, 2, 3]).is_err());
        assert_eq!(MacAddr::parse(&[1, 2, 3, 4, 5, 6, 7]).unwrap().octets(), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn oui_is_first_three_octets() {
        let mac = MacAddr::new([0x00, 0x1b, 0x44, 0x11, 0x3a, 0xb7]);
        assert_eq!(mac.oui(), [0x00, 0x1b, 0x44]);
    }
}
