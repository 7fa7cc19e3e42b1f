//! T5: the per-scheme cost ledger (CPU proxy, wire footprint).

use std::time::Duration;

use arpshield_attacks::PoisonVariant;
use arpshield_schemes::SchemeKind;

use crate::report::Table;
use crate::scenario::{AttackScenario, ScenarioConfig};

/// T5: what each scheme costs, measured over an identical 15-second
/// workload (6 hosts pinging the gateway, one persistent unicast-reply
/// poisoner).
///
/// Columns:
/// * `work-units` — abstract CPU charged by the scheme (1 ≈ one header
///   inspection; a signature verification is ~900, see
///   [`arpshield_schemes::work`]);
/// * `host-work` — work charged inside host stacks (scheme agents,
///   S-ARP signing);
/// * `wire-frames`/`wire-kB` — total frames/bytes the LAN carried, so
///   active schemes' probe and key traffic shows up as the delta over
///   the `none` row.
pub fn t5_cost(seed: u64) -> Table {
    let mut table = Table::new(
        "T5: per-scheme cost over an identical 15 s attacked workload",
        &["scheme", "work-units", "host-work", "wire-frames", "wire-kB"],
    );
    for scheme in SchemeKind::all() {
        let config = ScenarioConfig::new(seed)
            .with_hosts(6)
            .with_scheme(scheme)
            .with_duration(Duration::from_secs(15));
        let run = AttackScenario::poisoning(config, PoisonVariant::UnicastReply).run();
        let scheme_work = run.lan.alerts.total_work();
        let host_work: u64 = run.lan.hosts.iter().map(|h| h.stats.borrow().work_units).sum::<u64>()
            + run.lan.gateway.stats.borrow().work_units;
        let wire = run.lan.sim.wire_stats();
        table.row([
            scheme.label().to_string(),
            scheme_work.to_string(),
            host_work.to_string(),
            wire.frames.to_string(),
            format!("{:.1}", wire.bytes as f64 / 1024.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_dominates_cost() {
        let t = t5_cost(3);
        let col = |name: &str, c: usize| -> f64 {
            for r in 0..t.len() {
                if t.cell(r, 0) == Some(name) {
                    return t.cell(r, c).unwrap().parse().unwrap();
                }
            }
            panic!("no row {name}");
        };
        // S-ARP's signature work dwarfs the passive monitor's header
        // inspections — the paper's central cost contrast.
        let sarp_total = col("sarp", 1) + col("sarp", 2);
        let passive_total = col("passive", 1) + col("passive", 2);
        assert!(sarp_total > 5.0 * passive_total, "sarp {sarp_total} vs passive {passive_total}");
        // The baseline spends nothing.
        assert_eq!(col("none", 1), 0.0);
        assert_eq!(col("none", 2), 0.0);
    }
}
