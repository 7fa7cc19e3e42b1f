//! Simulated end-host network stacks.
//!
//! A [`Host`] is a single-NIC station attached to the simulated LAN. It
//! owns an ARP cache with a pluggable acceptance [`ArpPolicy`] (the axis of
//! the paper's attack-susceptibility matrix), an IPv4 send/receive path
//! with a pending-resolution queue and a built-in ICMP echo responder.
//! Everything else a host runs is a [`HostAgent`] in one list, walked in
//! installation order: the DHCP client and server, host-resident defence
//! schemes (kernel policies, S-ARP and TARP agents) that intercept ARP
//! processing, and application workloads ([`apps`]).
//!
//! All mutable state that experiments need to observe afterwards — the ARP
//! cache, counters — is shared through a [`HostHandle`], since the
//! simulator owns devices as trait objects.
//!
//! # Example
//!
//! ```rust
//! use arpshield_host::{Host, HostConfig, ArpPolicy};
//! use arpshield_packet::{Ipv4Addr, Ipv4Cidr, MacAddr};
//!
//! let config = HostConfig::static_ip(
//!     "alice",
//!     MacAddr::from_index(1),
//!     Ipv4Addr::new(10, 0, 0, 1),
//!     Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24),
//! ).with_policy(ArpPolicy::Standard);
//! let (host, handle) = Host::new(config);
//! assert_eq!(handle.iface().ip(), Some(Ipv4Addr::new(10, 0, 0, 1)));
//! # let _ = host;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
pub mod apps;
pub mod arp;
pub mod dhcp;
mod iface;
mod stack;
mod stats;

pub use agent::{ArpVerdict, FrameVerdict, HostAgent, HostApi};
pub use arp::{ArpCache, ArpEntry, ArpPolicy, CacheVerdict, EntryOrigin, RetryPolicy};
pub use iface::Interface;
pub use stack::{tokens, Host, HostConfig, HostCore, HostHandle};
pub use stats::HostStats;
