//! The observability layer's two core promises, pinned end to end:
//!
//! 1. **Tracing is inert**: running an experiment under an installed
//!    trace collector produces byte-identical tables/figures to running
//!    it without one. Observation must never perturb the simulation.
//! 2. **Manifests are deterministic**: the manifest a traced experiment
//!    produces is byte-identical at any `ARPSHIELD_THREADS` setting —
//!    per-run recorders plus sorted sections erase scheduling order.

use std::sync::Arc;

use arpshield::analysis::experiment::{
    f6_flood_dynamics, f6_starvation_dynamics, t2_susceptibility, t3_coverage, t6_dos_coverage,
    t6_scale, t6_scale_defended,
};
use arpshield::analysis::scenario::{AttackScenario, BenignScenario, ScenarioConfig};
use arpshield::analysis::Series;
use arpshield::attacks::PoisonVariant;
use arpshield::schemes::SchemeKind;
use arpshield::trace::json::{self, Value};
use arpshield::trace::{install, TraceCollector};

/// Runs one experiment and renders its CSV.
type Experiment = fn() -> String;

fn series_csv(series: Vec<Series>) -> String {
    series.iter().map(Series::to_csv).collect()
}

/// Every experiment family's builder opens a run tracer: the LAN
/// scenarios (t2), the volumetric-attack runs (t6), the scale fabric
/// (t6s, t6sd) and the attack dynamics (f6).
#[test]
fn tracing_does_not_perturb_experiment_output() {
    let experiments: [(&str, Experiment); 5] = [
        ("t2", || t2_susceptibility(21).to_csv()),
        ("t6", || t6_dos_coverage(21).to_csv()),
        ("t6s", || series_csv(t6_scale(21, &[300]))),
        ("t6sd", || series_csv(t6_scale_defended(21, &[300]))),
        ("f6", || {
            let mut series = f6_flood_dynamics(21);
            series.push(f6_starvation_dynamics(21));
            series_csv(series)
        }),
    ];
    for (id, run) in experiments {
        let plain = run();
        let collector = Arc::new(TraceCollector::new());
        let traced = {
            let _guard = install(collector.clone());
            run()
        };
        assert_eq!(plain, traced, "{id}: observation must never change the observed simulation");
        assert!(!collector.is_empty(), "{id}: the traced runs must leave run sections");
    }
}

#[test]
fn manifest_is_thread_count_independent() {
    let manifest = |threads: &str| {
        std::env::set_var("ARPSHIELD_THREADS", threads);
        let collector = Arc::new(TraceCollector::new());
        let csv = {
            let _guard = install(collector.clone());
            t3_coverage(21).to_csv()
        };
        std::env::remove_var("ARPSHIELD_THREADS");
        (csv, collector.manifest("t3").to_json())
    };
    let (csv_seq, manifest_seq) = manifest("1");
    let (csv_par, manifest_par) = manifest("4");
    assert_eq!(csv_seq, csv_par, "the experiment itself is thread-count independent");
    assert_eq!(manifest_seq, manifest_par, "and so is its trace manifest, byte for byte");
    assert!(manifest_seq.contains("scheme.verdict"), "defended cells must log verdicts");
}

#[test]
fn attack_run_manifest_carries_the_evidence_chain() {
    let collector = Arc::new(TraceCollector::new());
    {
        let _guard = install(collector.clone());
        let run = AttackScenario::poisoning(
            ScenarioConfig::new(31).with_hosts(3).with_scheme(SchemeKind::Passive),
            PoisonVariant::GratuitousReply,
        )
        .run();
        assert!(!run.lan.alerts.is_empty(), "passive scheme must detect the forgery");
    }
    let manifest = collector.manifest("attack-smoke");
    let json = manifest.to_json();
    assert_eq!(manifest.runs.len(), 1, "one simulated run, one manifest section");
    assert!(
        manifest.runs[0].label.contains("attack=gratuitous-reply"),
        "run label names the attack: {}",
        manifest.runs[0].label
    );
    for needle in [
        "\"scheme.verdict.binding_changed\"",
        "\"switch.learn.new\"",
        "\"host.cache.create\"",
        "subject_ip=10.0.0.1",
        "\"host.resolution_latency_ns\"",
    ] {
        assert!(json.contains(needle), "manifest must carry {needle}:\n{json}");
    }
    assert!(json.contains("\"at_ns\":"), "events must carry sim-time stamps");
}

#[test]
fn disabled_tracing_records_nothing() {
    // No collector installed: the whole layer must stay dormant.
    let run = AttackScenario::poisoning(
        ScenarioConfig::new(31).with_hosts(3).with_scheme(SchemeKind::Passive),
        PoisonVariant::GratuitousReply,
    )
    .run();
    assert!(!run.lan.sim.tracer().is_enabled());
    assert!(!run.lan.alerts.is_empty());
}

/// Hosts a scenario attaches after `lan::build` record into the run's
/// one tracer like the built-in ones: the benign churn's roaming DHCP
/// clients show up as `host.*` actors.
#[test]
fn hosts_attached_after_build_are_traced() {
    let collector = Arc::new(TraceCollector::new());
    {
        let _guard = install(collector.clone());
        let config = ScenarioConfig::new(8).with_hosts(2);
        BenignScenario::new(config).run();
    }
    let manifest = json::parse(&collector.manifest("benign").to_json()).expect("JSON");
    let runs = manifest.get("runs").and_then(Value::as_arr).expect("a runs array");
    let events = runs[0].get("events").and_then(Value::as_arr).expect("an events array");
    fn field<'a>(event: &'a Value, key: &str) -> &'a str {
        event.get(key).and_then(Value::as_str).unwrap_or_default()
    }
    let actors: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|event| field(event, "category").starts_with("host."))
        .map(|event| field(event, "actor"))
        .collect();
    for roamer in ["roamer0", "roamer1", "roamer2"] {
        assert!(actors.contains(roamer), "{roamer} missing from host actors {actors:?}");
    }
}
