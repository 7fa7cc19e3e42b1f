//! Byte-accurate wire formats for the arpshield LAN simulator.
//!
//! This crate implements the encodings every other layer of arpshield speaks:
//! Ethernet II framing, ARP, IPv4, UDP, ICMP echo, and DHCP (BOOTP framing
//! with options). Each format has one type that its parser returns and that
//! TX emits through [`WireEmit`]; parsed values borrow their payload from
//! the received buffer, so receiving copies no bytes. Encodings are exactly
//! what would appear on a real segment, so detection schemes inspect the
//! same bytes they would sniff from a NIC.
//!
//! # Example
//!
//! ```rust
//! use arpshield_packet::{
//!     ArpOp, ArpPacket, EtherType, EthernetEmit, EthernetView, Ipv4Addr, MacAddr, WireEmit,
//! };
//!
//! # fn main() -> Result<(), arpshield_packet::ParseError> {
//! let sender = MacAddr::new([0x02, 0, 0, 0, 0, 1]);
//! let arp = ArpPacket::request(sender, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
//! let bytes = EthernetEmit::new(MacAddr::BROADCAST, sender, EtherType::ARP, &arp).encode();
//!
//! let parsed = EthernetView::parse_strict(&bytes)?;
//! assert_eq!(parsed.ethertype(), EtherType::ARP);
//! assert_eq!(ArpPacket::parse(parsed.payload())?.op, ArpOp::Request);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arp;
mod checksum;
mod dhcp;
mod error;
mod ether;
mod icmp;
mod ipv4;
mod mac;
mod udp;
mod wire;

pub use arp::{ArpOp, ArpPacket, ARP_WIRE_LEN};
pub use checksum::{internet_checksum, Checksum};
pub use dhcp::{
    DhcpMessage, DhcpMessageType, DhcpOp, DhcpOption, DhcpOptions, DHCP_CLIENT_PORT,
    DHCP_SERVER_PORT,
};
pub use error::ParseError;
pub use ether::{
    EtherType, EthernetView, ETHERNET_HEADER_LEN, ETHERNET_MAX_PAYLOAD, ETHERNET_MIN_PAYLOAD,
    ETHERNET_VLAN_TAG_LEN,
};
pub use icmp::{IcmpMessage, IcmpType};
pub use ipv4::{IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet, IPV4_HEADER_LEN};
pub use mac::MacAddr;
pub use udp::{UdpDatagram, UDP_HEADER_LEN};
pub use wire::{EthernetEmit, EthernetViewMut, WireEmit};
