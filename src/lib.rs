//! # arpshield
//!
//! A simulation-grade reproduction of *"An Analysis on the Schemes for
//! Detecting and Preventing ARP Cache Poisoning Attacks"* (Abad &
//! Bonilla, ICDCSW'07): a deterministic switched-LAN simulator, full
//! host ARP/IP/DHCP stacks, the complete catalogue of ARP-poisoning
//! attack variants, implementations of every defence scheme class the
//! paper surveys, and the experiment harness that scores them against
//! each other.
//!
//! This crate is the umbrella: it re-exports the workspace's public API
//! under stable module names and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! ## Layering
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`packet`] | `arpshield-packet` | Ethernet/ARP/IPv4/UDP/ICMP/DHCP codecs |
//! | [`netsim`] | `arpshield-netsim` | discrete-event LAN: switch (CAM, mirroring, port security), hub, links |
//! | [`crypto`] | `arpshield-crypto` | SHA-256, HMAC, Schnorr signatures, the S-ARP key distributor |
//! | [`host`] | `arpshield-host` | end-host stacks: ARP cache + policies, resolver, and one `HostAgent` list for DHCP, scheme agents and apps |
//! | [`attacks`] | `arpshield-attacks` | poisoning variants, MITM relay, MAC flooding, DHCP starvation, rogue DHCP |
//! | [`schemes`] | `arpshield-schemes` | static ARP, arpwatch-, XArp-, Snort-, Anticap/Antidote-, S-ARP-, port-security- and DAI-style defences |
//! | [`trace`] | `arpshield-trace` | deterministic observability: sim-time events, counters/histograms, run manifests |
//! | [`analysis`] | `arpshield-core` | scenarios, metrics, the T1–T5/F1–F6 experiments, report rendering |
//!
//! ## Quickstart
//!
//! ```rust
//! use arpshield::analysis::scenario::{AttackScenario, ScenarioConfig};
//! use arpshield::analysis::metrics::score_attack_run;
//! use arpshield::attacks::PoisonVariant;
//! use arpshield::schemes::SchemeKind;
//!
//! // One cell of the coverage matrix: arpwatch vs classic arpspoof.
//! let config = ScenarioConfig::new(42).with_scheme(SchemeKind::Passive);
//! let run = AttackScenario::poisoning(config, PoisonVariant::GratuitousReply).run();
//! let outcome = score_attack_run(&run);
//! assert!(outcome.detected && !outcome.prevented);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arpshield_attacks as attacks;
pub use arpshield_core as analysis;
pub use arpshield_crypto as crypto;
pub use arpshield_host as host;
pub use arpshield_netsim as netsim;
pub use arpshield_packet as packet;
pub use arpshield_schemes as schemes;
pub use arpshield_trace as trace;
