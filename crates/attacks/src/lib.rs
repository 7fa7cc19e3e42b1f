//! The attacker toolkit: every attack the analysis evaluates, implemented
//! as simulated devices that forge raw frames.
//!
//! The centrepiece is [`ArpPoisoner`], which implements the full catalogue
//! of ARP-cache-poisoning variants the literature distinguishes
//! ([`PoisonVariant`]). Around it sit the follow-on and sibling attacks:
//! a man-in-the-middle relay ([`MitmRelay`]) that keeps intercepted
//! traffic flowing, a CAM-table flooder ([`MacFlooder`]), a DHCP-pool
//! starver ([`DhcpStarver`]), and a rogue DHCP server ([`RogueDhcpServer`]).
//!
//! Every attack reports what it did, and when, into a shared
//! [`GroundTruth`] log so experiments can score detections against what
//! actually happened.
//!
//! # Example
//!
//! ```rust
//! use arpshield_attacks::{ArpPoisoner, PoisonConfig, PoisonVariant, GroundTruth};
//! use arpshield_packet::{Ipv4Addr, MacAddr};
//! use std::time::Duration;
//!
//! let truth = GroundTruth::new();
//! let poisoner = ArpPoisoner::new(
//!     PoisonConfig {
//!         attacker_mac: MacAddr::from_index(66),
//!         variant: PoisonVariant::GratuitousReply,
//!         victim_ip: Ipv4Addr::new(10, 0, 0, 1),      // IP being hijacked
//!         claimed_mac: MacAddr::from_index(66),        // rebound to attacker
//!         target: None,                                // broadcast to all
//!         start_delay: Duration::from_secs(1),
//!         repeat: Some(Duration::from_secs(5)),
//!     },
//!     truth.clone(),
//! );
//! # let _ = poisoner;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dhcp_starve;
mod flood;
mod ground_truth;
mod mitm;
mod poison;
mod rogue_dhcp;
mod scan;

pub use dhcp_starve::{DhcpStarver, DhcpStarverConfig};
pub use flood::{MacFlooder, MacFlooderConfig};
pub use ground_truth::{AttackEvent, AttackKind, GroundTruth};
pub use mitm::{MitmRelay, MitmRelayConfig};
pub use poison::{ArpPoisoner, PoisonConfig, PoisonVariant};
pub use rogue_dhcp::{RogueDhcpServer, RogueDhcpServerConfig};
pub use scan::{ArpScanner, ArpScannerConfig, ScanStats};
