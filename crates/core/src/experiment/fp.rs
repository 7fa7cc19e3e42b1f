//! T4: false positives under benign churn.

use std::collections::BTreeMap;
use std::time::Duration;

use arpshield_schemes::SchemeKind;

use crate::parallel::run_indexed;
use crate::report::Table;
use crate::scenario::{BenignScenario, ScenarioConfig};

/// T4: alerts raised by each scheme on an attack-free LAN with DHCP
/// lease churn, roaming clients, gratuitous boot announcements, and one
/// NIC replacement.
///
/// Every alert here is a false positive. The expected shape: binding-
/// database schemes (passive, stateful, hybrid) pay for churn; probing
/// schemes pay less (the probe answer matches the new reality); S-ARP
/// and DAI pay nothing for *churn* but can deny service to unenrolled
/// stations instead (visible in their columns).
pub fn t4_false_positives(seed: u64) -> Table {
    let mut table = Table::new(
        "T4: false positives under benign churn (30 s, 3 DHCP roamers, pool=2, 1 NIC swap)",
        &["scheme", "false-positives", "dominant-alert-kinds"],
    );
    // One 30 s benign-churn run per scheme, fanned out.
    let jobs: Vec<_> = SchemeKind::all()
        .map(|scheme| {
            move || {
                let config = ScenarioConfig::new(seed)
                    .with_hosts(3)
                    .with_scheme(scheme)
                    .with_duration(Duration::from_secs(30));
                let run = BenignScenario::new(config).run();
                let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
                for alert in run.lan.alerts.alerts() {
                    *kinds.entry(format!("{:?}", alert.kind)).or_insert(0) += 1;
                }
                let breakdown = if kinds.is_empty() {
                    "—".to_string()
                } else {
                    kinds.iter().map(|(k, n)| format!("{k}×{n}")).collect::<Vec<_>>().join(" ")
                };
                [scheme.label().to_string(), run.false_positives.to_string(), breakdown]
            }
        })
        .into_iter()
        .collect();
    for row in run_indexed(jobs) {
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_key_contrasts() {
        let t = t4_false_positives(7);
        assert_eq!(t.len(), SchemeKind::all().len());
        let fp_of = |name: &str| -> usize {
            for r in 0..t.len() {
                if t.cell(r, 0) == Some(name) {
                    return t.cell(r, 1).unwrap().parse().unwrap();
                }
            }
            panic!("no row for {name}");
        };
        assert_eq!(fp_of("none"), 0);
        assert_eq!(fp_of("static-arp"), 0);
        assert!(fp_of("passive") > 0, "churn must trip arpwatch");
    }
}
