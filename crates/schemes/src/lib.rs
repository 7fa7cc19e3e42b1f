//! The detection and prevention schemes the paper analyzes, implemented
//! against the simulated LAN.
//!
//! Each scheme in the survey maps to a concrete mechanism here:
//!
//! | Scheme | Literature exemplar | Mechanism |
//! |---|---|---|
//! | [`StaticArp`](static_arp) | manual `arp -s` | static cache entries + static-only policy |
//! | [`PassiveMonitor`] | arpwatch | mirror-port DB of IP↔MAC pairs, alert on change |
//! | [`ActiveProbeMonitor`] | XArp, ArpON | probe suspicious claims with RFC 5227 ARP probes |
//! | [`StatefulMonitor`] | Snort ARP preprocessor | request/reply matching, unsolicited-reply detection |
//! | [`AnticapHook`] / [`AntidoteHook`] | Anticap, Antidote kernel patches | host-side reply filtering / probe-before-replace |
//! | [`SArpHook`] + [`AkdApp`] | S-ARP | signed replies, key distributor, verified-only cache |
//! | [`dai::DaiInspector`] | Cisco DHCP snooping + Dynamic ARP Inspection | switch-level ARP validation against a snooped binding table |
//! | [`TarpHook`] + [`Ticket`] | TARP | LTA-signed tickets on replies; verify-only clients |
//! | [`RateMonitor`] | threshold IDS | sliding-window counters for flooding/starvation/scans |
//! | port security | Cisco port security | per-port MAC limits (in `arpshield-netsim`) |
//!
//! Detections flow into a shared [`AlertLog`]; per-scheme CPU cost is
//! charged in abstract work units through the same log, so experiments
//! can compare overheads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active_probe;
mod alert;
mod antidote;
pub mod dai;
mod descriptor;
mod detector;
mod factory;
mod passive;
mod rate;
pub mod sarp;
mod stateful;
mod static_arp;
pub mod tarp;

pub use active_probe::{ActiveProbeConfig, ActiveProbeMonitor};
pub use alert::{Alert, AlertKind, AlertLog};
pub use antidote::{AnticapHook, AntidoteHook};
pub use dai::{DaiConfig, DaiInspector};
pub use descriptor::{Activity, DeployCost, Mode, SchemeClass, SchemeDescriptor, SchemeKind};
pub use detector::{Detector, IngestStats};
pub use factory::{
    AuxStation, HostAgentFn, LanPlan, SchemeHardening, SchemeInstallation, PORT_SECURITY,
};
pub use passive::{PassiveConfig, PassiveMonitor};
pub use rate::{RateConfig, RateMonitor};
pub use sarp::{AkdApp, SArpConfig, SArpHook};
pub use stateful::{StatefulConfig, StatefulMonitor};
pub use static_arp::static_arp;
pub use tarp::{TarpConfig, TarpHook, Ticket};

/// Calibrated work-unit costs (the CPU proxy used in the cost analysis).
/// One unit ≈ one packet-header inspection. The signature constants model
/// era-appropriate DSA on commodity hosts (verification ~1.5× the cost of
/// signing, both two to three orders of magnitude above a header
/// inspection — the ratio the S-ARP literature reports). The experiments
/// use these constants, not the wall time of this crate's 127-bit toy
/// group, so results do not depend on host speed.
pub mod work {
    /// Inspecting one sniffed packet.
    pub const INSPECT: u64 = 1;
    /// One binding-database lookup/insert.
    pub const DB_OP: u64 = 2;
    /// Emitting one active probe.
    pub const PROBE: u64 = 5;
    /// Producing one Schnorr signature.
    pub const SIGN: u64 = 600;
    /// Verifying one Schnorr signature.
    pub const VERIFY: u64 = 900;
    /// One AKD key lookup round trip (server side).
    pub const KEY_LOOKUP: u64 = 10;
}
