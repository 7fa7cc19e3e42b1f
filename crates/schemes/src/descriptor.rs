//! The taxonomy: how the paper classifies each scheme.

/// Where the scheme's logic runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeClass {
    /// Per-host configuration or kernel modification.
    HostBased,
    /// A sniffer on a mirror/tap port.
    NetworkMonitor,
    /// A feature of the switching fabric.
    SwitchBased,
    /// A modified, authenticated ARP protocol.
    Cryptographic,
}

/// Whether the scheme detects, prevents, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Raises alerts only.
    Detection,
    /// Stops the attack outright.
    Prevention,
    /// Stops what it can, alerts on the rest.
    Both,
}

/// Whether the scheme injects traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Observation only.
    Passive,
    /// Sends probes or protocol messages.
    Active,
}

/// Qualitative deployment cost, the axis the paper weighs hardest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeployCost {
    /// Turn it on and forget it.
    Low,
    /// Requires a monitoring point or moderate configuration.
    Medium,
    /// Per-host configuration, key enrolment, or special hardware.
    High,
}

/// Static description of one scheme, the row source for taxonomy table T1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeDescriptor {
    /// Stable label used in alerts, work accounting, and reports.
    pub name: &'static str,
    /// Literature exemplar.
    pub exemplar: &'static str,
    /// Where it runs.
    pub class: SchemeClass,
    /// Detects and/or prevents.
    pub mode: Mode,
    /// Passive or active.
    pub activity: Activity,
    /// Deployment cost class.
    pub cost: DeployCost,
    /// One-line summary for the table.
    pub summary: &'static str,
}

/// Enumeration of every scheme the analysis covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No defence (the baseline row).
    None,
    /// Static ARP entries everywhere.
    StaticArp,
    /// arpwatch-style passive monitoring.
    Passive,
    /// XArp/ArpON-style probe verification.
    ActiveProbe,
    /// Snort-style request/reply stateful inspection.
    Stateful,
    /// Anticap-style kernel reply filtering.
    Anticap,
    /// Antidote-style probe-before-replace kernel patch.
    Antidote,
    /// S-ARP: signed replies with an AKD.
    SArp,
    /// Switch port security (per-port MAC limits).
    PortSecurity,
    /// DHCP snooping + Dynamic ARP Inspection.
    Dai,
    /// Stateful inspection with probe confirmation (hybrid).
    Hybrid,
    /// TARP: LTA-issued tickets attached to replies.
    Tarp,
    /// Threshold counters for volumetric L2 attacks (flood/starvation).
    RateMonitor,
}

impl SchemeKind {
    /// All schemes, in the order the report tables list them.
    pub const fn all() -> [SchemeKind; 13] {
        [
            SchemeKind::None,
            SchemeKind::StaticArp,
            SchemeKind::Passive,
            SchemeKind::ActiveProbe,
            SchemeKind::Stateful,
            SchemeKind::Anticap,
            SchemeKind::Antidote,
            SchemeKind::SArp,
            SchemeKind::Tarp,
            SchemeKind::PortSecurity,
            SchemeKind::Dai,
            SchemeKind::RateMonitor,
            SchemeKind::Hybrid,
        ]
    }

    /// The static description for this scheme.
    pub fn descriptor(&self) -> SchemeDescriptor {
        use Activity::*;
        use DeployCost::*;
        use Mode::*;
        use SchemeClass::*;
        match self {
            SchemeKind::None => SchemeDescriptor {
                name: "none",
                exemplar: "—",
                class: HostBased,
                mode: Detection,
                activity: Passive,
                cost: Low,
                summary: "baseline: unmodified ARP, no monitoring",
            },
            SchemeKind::StaticArp => SchemeDescriptor {
                name: "static-arp",
                exemplar: "arp -s",
                class: HostBased,
                mode: Prevention,
                activity: Passive,
                cost: High,
                summary: "immutable per-host entries; O(n^2) management, breaks DHCP",
            },
            SchemeKind::Passive => SchemeDescriptor {
                name: "passive",
                exemplar: "arpwatch",
                class: NetworkMonitor,
                mode: Detection,
                activity: Passive,
                cost: Medium,
                summary: "IP<->MAC database diffing on a mirror port; blind during learning window",
            },
            SchemeKind::ActiveProbe => SchemeDescriptor {
                name: "active-probe",
                exemplar: "XArp / ArpON",
                class: NetworkMonitor,
                mode: Detection,
                activity: Active,
                cost: Medium,
                summary: "verifies suspicious claims with ARP probes; extra wire traffic",
            },
            SchemeKind::Stateful => SchemeDescriptor {
                name: "stateful",
                exemplar: "Snort ARP preprocessor",
                class: NetworkMonitor,
                mode: Detection,
                activity: Passive,
                cost: Medium,
                summary: "matches replies to observed requests; flags unsolicited/mismatched",
            },
            SchemeKind::Anticap => SchemeDescriptor {
                name: "anticap",
                exemplar: "Anticap",
                class: HostBased,
                mode: Prevention,
                activity: Passive,
                cost: High,
                summary: "kernel drops unsolicited replies; loses legitimate gratuitous updates",
            },
            SchemeKind::Antidote => SchemeDescriptor {
                name: "antidote",
                exemplar: "Antidote",
                class: HostBased,
                mode: Both,
                activity: Active,
                cost: High,
                summary: "probes the previous MAC before accepting a rebinding",
            },
            SchemeKind::SArp => SchemeDescriptor {
                name: "sarp",
                exemplar: "S-ARP",
                class: Cryptographic,
                mode: Prevention,
                activity: Active,
                cost: High,
                summary:
                    "signed replies + key distributor; full prevention, latency & enrolment cost",
            },
            SchemeKind::PortSecurity => SchemeDescriptor {
                name: "port-security",
                exemplar: "Cisco port security",
                class: SwitchBased,
                mode: Prevention,
                activity: Passive,
                cost: Medium,
                summary: "per-port MAC limits; stops flooding, not binding forgery",
            },
            SchemeKind::Dai => SchemeDescriptor {
                name: "dai",
                exemplar: "DHCP snooping + DAI",
                class: SwitchBased,
                mode: Both,
                activity: Passive,
                cost: Medium,
                summary: "switch validates ARP against snooped leases; needs capable switches",
            },
            SchemeKind::Tarp => SchemeDescriptor {
                name: "tarp",
                exemplar: "TARP",
                class: Cryptographic,
                mode: Prevention,
                activity: Passive,
                cost: Medium,
                summary:
                    "LTA-issued tickets on replies; one verify, no per-host keys, slow revocation",
            },
            SchemeKind::RateMonitor => SchemeDescriptor {
                name: "rate-monitor",
                exemplar: "threshold IDS",
                class: NetworkMonitor,
                mode: Detection,
                activity: Passive,
                cost: Low,
                summary: "sliding-window counters for flooding/starvation; blind to quiet forgery",
            },
            SchemeKind::Hybrid => SchemeDescriptor {
                name: "hybrid",
                exemplar: "stateful + probes",
                class: NetworkMonitor,
                mode: Detection,
                activity: Active,
                cost: Medium,
                summary: "stateful prefilter with probe confirmation; fewer false positives",
            },
        }
    }

    /// Stable label (shorthand for `descriptor().name`).
    pub fn label(&self) -> &'static str {
        self.descriptor().name
    }

    /// Resolves a stable label (as printed by [`label`](Self::label))
    /// back to its kind — the CLI's `--scheme` parser.
    pub fn from_label(label: &str) -> Option<SchemeKind> {
        SchemeKind::all().into_iter().find(|kind| kind.label() == label)
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            SchemeKind::all().iter().map(|s| s.label()).collect();
        assert_eq!(names.len(), SchemeKind::all().len());
    }

    #[test]
    fn cryptographic_schemes_prevent() {
        assert_eq!(SchemeKind::SArp.descriptor().mode, Mode::Prevention);
        assert_eq!(SchemeKind::SArp.descriptor().class, SchemeClass::Cryptographic);
    }

    #[test]
    fn cost_ordering_reflects_the_analysis() {
        // The paper's central trade-off: the only full preventions are the
        // expensive ones.
        for kind in [SchemeKind::StaticArp, SchemeKind::SArp] {
            assert_eq!(kind.descriptor().cost, DeployCost::High);
            assert_ne!(kind.descriptor().mode, Mode::Detection);
        }
        assert!(SchemeKind::Passive.descriptor().cost < DeployCost::High);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(SchemeKind::Dai.to_string(), "dai");
    }
}
