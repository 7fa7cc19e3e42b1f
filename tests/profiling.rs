//! Profiler invariants: arming the wall-clock profiler cannot change a
//! single deterministic byte, its merged tree has the same shape at any
//! worker count, and merging per-thread trees is order-independent —
//! the property that makes the merged profile scheduling-proof.

use std::sync::Arc;

use arpshield::analysis::experiment::{t2_susceptibility, t3_coverage};
use arpshield::trace::profile;
use arpshield::trace::{ProfileCollector, ProfileData, SpanStats};
use arpshield_testkit::prelude::*;

/// A run under the profiler must render the same CSV as a bare run, and
/// must actually have recorded spans (the instrumentation is live, not
/// compiled away).
#[test]
fn legacy_csvs_identical_with_and_without_profiler() {
    let plain = t2_susceptibility(9).to_csv();
    let collector = Arc::new(ProfileCollector::new());
    let profiled = {
        let _guard = profile::install(collector.clone());
        t2_susceptibility(9).to_csv()
    };
    assert_eq!(plain, profiled, "profiling must not perturb experiment output");
    let data = collector.snapshot();
    assert!(!data.spans.is_empty(), "the profiled run records spans");
    assert!(
        data.spans.keys().any(|path| path.starts_with("sim.")),
        "simulator spans present: {:?}",
        data.spans.keys().collect::<Vec<_>>(),
    );
}

/// The merged profile's *shape* — span paths and call counts — is a
/// deterministic function of the workload, independent of how jobs were
/// scheduled across workers. Only the wall-clock figures may differ.
///
/// Setting `ARPSHIELD_THREADS` here cannot perturb the other tests in
/// this binary even though they share the process: thread count never
/// affects deterministic output (see `determinism.rs`), and the CSV
/// comparison below pins that down again under the profiler.
#[test]
fn profile_shape_is_thread_count_invariant() {
    let run = |threads: &str| {
        std::env::set_var("ARPSHIELD_THREADS", threads);
        let collector = Arc::new(ProfileCollector::new());
        let csv = {
            let _guard = profile::install(collector.clone());
            t3_coverage(13).to_csv()
        };
        std::env::remove_var("ARPSHIELD_THREADS");
        (csv, collector.snapshot())
    };
    let (csv_seq, data_seq) = run("1");
    let (csv_par, data_par) = run("4");
    assert_eq!(csv_seq, csv_par, "profiled CSVs must not depend on the worker count");
    let shape = |data: &ProfileData| -> Vec<(String, u64)> {
        data.spans.iter().map(|(path, stats)| (path.clone(), stats.count)).collect()
    };
    assert_eq!(shape(&data_seq), shape(&data_par), "span paths and counts are scheduling-proof");
}

// ---------------------------------------------------------------------
// Merge algebra.
// ---------------------------------------------------------------------

/// Builds a [`ProfileData`] from compact generated tuples. Span paths
/// and gauge names draw from a small alphabet so generated profiles
/// genuinely collide on keys — the interesting case for merging.
fn profile_from(spans: &[[u32; 4]], gauges: &[[u32; 2]]) -> ProfileData {
    const NAMES: [&str; 4] = ["sim.run", "sim.run/wheel.pop", "switch.forward", "pool.acquire"];
    let mut data = ProfileData::default();
    for &[name, count, total, child] in spans {
        let entry = data
            .spans
            .entry(NAMES[name as usize % NAMES.len()].to_string())
            .or_insert(SpanStats { count: 0, total_ns: 0, child_ns: 0 });
        entry.count += u64::from(count);
        entry.total_ns += u64::from(total);
        // Keep the self-time invariant (child <= total) per contribution.
        entry.child_ns += u64::from(child.min(total));
    }
    for &[name, value] in gauges {
        data.gauges.entry(format!("gauge.{}", name % 3)).or_default().record(u64::from(value));
    }
    data
}

fn merged(parts: &[&ProfileData]) -> ProfileData {
    let mut out = ProfileData::default();
    for part in parts {
        out.merge(part);
    }
    out
}

properties! {
    /// Flushing thread-local trees into the shared collector happens in
    /// whatever order threads finish, so the merge must be associative
    /// and commutative — otherwise `ARPSHIELD_THREADS` would leak into
    /// the report.
    #[test]
    fn profile_merge_is_associative_and_commutative(
        sa in collection::vec(any::<[u32; 4]>(), 0..8),
        sb in collection::vec(any::<[u32; 4]>(), 0..8),
        sc in collection::vec(any::<[u32; 4]>(), 0..8),
        ga in collection::vec(any::<[u32; 2]>(), 0..6),
        gb in collection::vec(any::<[u32; 2]>(), 0..6),
        gc in collection::vec(any::<[u32; 2]>(), 0..6),
    ) {
        let a = profile_from(&sa, &ga);
        let b = profile_from(&sb, &gb);
        let c = profile_from(&sc, &gc);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let left = merged(&[&merged(&[&a, &b]), &c]);
        let right = merged(&[&a, &merged(&[&b, &c])]);
        prop_assert_eq!(&left, &right);

        // Commutativity: every permutation of three parts agrees.
        let forward = merged(&[&a, &b, &c]);
        let backward = merged(&[&c, &b, &a]);
        let rotated = merged(&[&b, &c, &a]);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &rotated);

        // The identity merges in from either side.
        let empty = ProfileData::default();
        prop_assert_eq!(&merged(&[&a, &empty]), &a);
        prop_assert_eq!(&merged(&[&empty, &a]), &a);
    }
}
