//! A criterion-lite bench harness.
//!
//! Exposes the subset of the `criterion` API the workspace's seven
//! `harness = false` benches use — [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Throughput`], `sample_size`, `bench_function`,
//! `bench_with_input`, and the
//! [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros — so a bench ports
//! by rewriting its `use criterion::...` line to `use arpshield_testkit::...`.
//!
//! Measurement model: one calibration call sizes the per-sample
//! iteration count so a sample lasts roughly
//! [`BenchConfig::target_sample_nanos`]; after a warmup call, each of
//! `samples` timed calls records a per-iteration figure. Median, mean,
//! min/max, and standard deviation land in
//! `results/bench/<bench-name>.json` (see [`Criterion::final_summary`]),
//! which is the repo's perf-trajectory feed. Set `TESTKIT_BENCH_SMOKE=1`
//! for a 1-iteration × 1-sample smoke run (CI), `TESTKIT_BENCH_SAMPLES`
//! to adjust depth.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use arpshield_trace::json;

/// Measurement depth configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Timed samples per benchmark (a group's `sample_size` overrides).
    pub samples: usize,
    /// Target wall-clock per sample; sets the per-sample iteration count.
    pub target_sample_nanos: u128,
    /// Fixed per-sample iteration count; skips calibration when set.
    pub fixed_iters: Option<u64>,
    /// Skip the warmup call (smoke mode).
    pub skip_warmup: bool,
}

impl BenchConfig {
    /// Full-fidelity defaults: 20 samples targeting ~5 ms each.
    pub fn measured() -> Self {
        BenchConfig {
            samples: 20,
            target_sample_nanos: 5_000_000,
            fixed_iters: None,
            skip_warmup: false,
        }
    }

    /// 1 iteration × 1 sample, no warmup: verifies every bench *runs*
    /// and emits its JSON, in seconds instead of minutes.
    pub fn smoke() -> Self {
        BenchConfig { samples: 1, target_sample_nanos: 0, fixed_iters: Some(1), skip_warmup: true }
    }

    /// `smoke()` under `TESTKIT_BENCH_SMOKE=1`, otherwise `measured()`
    /// with `TESTKIT_BENCH_SAMPLES` applied.
    pub fn from_env() -> Self {
        if std::env::var("TESTKIT_BENCH_SMOKE").is_ok_and(|v| v == "1") {
            return BenchConfig::smoke();
        }
        let mut config = BenchConfig::measured();
        if let Ok(samples) = std::env::var("TESTKIT_BENCH_SAMPLES") {
            if let Ok(n) = samples.parse::<usize>() {
                config.samples = n.max(1);
            }
        }
        config
    }
}

/// Units-processed-per-iteration annotation, for derived rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// Identifies one benchmark within a group, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: Option<String>,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A named benchmark with a parameter, rendered `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { name: Some(name.into()), parameter: Some(parameter.to_string()) }
    }

    /// A benchmark identified by its parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { name: None, parameter: Some(parameter.to_string()) }
    }

    fn render(&self) -> String {
        match (&self.name, &self.parameter) {
            (Some(n), Some(p)) => format!("{n}/{p}"),
            (Some(n), None) => n.clone(),
            (None, Some(p)) => p.clone(),
            (None, None) => "bench".to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId { name: Some(name.to_string()), parameter: None }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { name: Some(name), parameter: None }
    }
}

/// Times the measured routine. Passed to every bench closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs the routine `iters` times and records the wall-clock total.
    /// The routine's output is passed through [`std::hint::black_box`] so
    /// the optimizer cannot delete the work.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// One benchmark's statistics, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// The owning group's name.
    pub group: String,
    /// The rendered benchmark id within the group.
    pub id: String,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Mean ns/iteration across samples.
    pub mean_ns: f64,
    /// Median ns/iteration across samples.
    pub median_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
    /// Slowest sample's ns/iteration.
    pub max_ns: f64,
    /// Population standard deviation of ns/iteration.
    pub stddev_ns: f64,
    /// The group's throughput annotation at registration time.
    pub throughput: Option<Throughput>,
}

impl BenchRecord {
    fn to_json(&self) -> json::Value {
        let mut obj = BTreeMap::new();
        obj.insert("group".into(), json::Value::Str(self.group.clone()));
        obj.insert("id".into(), json::Value::Str(self.id.clone()));
        obj.insert("iters_per_sample".into(), json::Value::Num(self.iters_per_sample as f64));
        obj.insert("samples".into(), json::Value::Num(self.samples as f64));
        obj.insert("mean_ns".into(), json::Value::Num(self.mean_ns));
        obj.insert("median_ns".into(), json::Value::Num(self.median_ns));
        obj.insert("min_ns".into(), json::Value::Num(self.min_ns));
        obj.insert("max_ns".into(), json::Value::Num(self.max_ns));
        obj.insert("stddev_ns".into(), json::Value::Num(self.stddev_ns));
        if let Some(throughput) = self.throughput {
            let (kind, per_iter) = match throughput {
                Throughput::Bytes(n) => ("bytes", n),
                Throughput::Elements(n) => ("elements", n),
            };
            let per_sec =
                if self.median_ns > 0.0 { per_iter as f64 * 1e9 / self.median_ns } else { 0.0 };
            let mut t = BTreeMap::new();
            t.insert("kind".into(), json::Value::Str(kind.into()));
            t.insert("per_iter".into(), json::Value::Num(per_iter as f64));
            t.insert("per_sec".into(), json::Value::Num(per_sec));
            obj.insert("throughput".into(), json::Value::Obj(t));
        }
        json::Value::Obj(obj)
    }
}

/// The harness: collects benchmark registrations and their statistics,
/// then writes the per-binary JSON summary.
pub struct Criterion {
    config: BenchConfig,
    records: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::with_config(BenchConfig::from_env())
    }
}

impl Criterion {
    /// A harness with an explicit measurement configuration.
    pub fn with_config(config: BenchConfig) -> Self {
        Criterion { config, records: Vec::new() }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: None, throughput: None }
    }

    /// Registers a group-less benchmark (criterion parity; the group
    /// name doubles as the id).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let record = self.measure(id.to_string(), id.to_string(), None, None, f);
        self.records.push(record);
        self
    }

    /// All statistics collected so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    fn measure<F: FnMut(&mut Bencher)>(
        &self,
        group: String,
        id: String,
        sample_size: Option<usize>,
        throughput: Option<Throughput>,
        mut f: F,
    ) -> BenchRecord {
        let config = &self.config;
        let mut bencher = Bencher { iters: 1, elapsed: Duration::ZERO };

        // Calibrate: one iteration tells us roughly what one costs.
        f(&mut bencher);
        let single_ns = bencher.elapsed.as_nanos().max(1);
        let iters = config.fixed_iters.unwrap_or_else(|| {
            (config.target_sample_nanos / single_ns).clamp(1, 1_000_000_000) as u64
        });

        if !config.skip_warmup {
            bencher.iters = iters;
            f(&mut bencher);
        }

        // A group's sample_size tunes *measured* runs; fixed-iteration
        // (smoke) runs keep their minimal depth regardless.
        let samples = if config.fixed_iters.is_some() {
            config.samples
        } else {
            sample_size.unwrap_or(config.samples)
        }
        .max(1);
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            bencher.iters = iters;
            f(&mut bencher);
            per_iter_ns.push(bencher.elapsed.as_nanos() as f64 / iters as f64);
        }

        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter_ns.len();
        let mean = per_iter_ns.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            per_iter_ns[n / 2]
        } else {
            (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
        };
        let variance = per_iter_ns.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;

        let record = BenchRecord {
            group,
            id,
            iters_per_sample: iters,
            samples: n,
            mean_ns: mean,
            median_ns: median,
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[n - 1],
            stddev_ns: variance.sqrt(),
            throughput,
        };
        println!(
            "{}/{}  median {}  mean {}  ({} samples x {} iters)",
            record.group,
            record.id,
            human_time(record.median_ns),
            human_time(record.mean_ns),
            record.samples,
            record.iters_per_sample,
        );
        record
    }

    /// The JSON summary document for everything run so far.
    pub fn summary_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("schema".into(), json::Value::Str("arpshield-bench-v1".into()));
        obj.insert(
            "results".into(),
            json::Value::Arr(self.records.iter().map(BenchRecord::to_json).collect()),
        );
        let mut out = json::Value::Obj(obj).to_string();
        out.push('\n');
        out
    }

    /// Writes the summary to `results/bench/<name>.json` under the
    /// workspace root and returns the path.
    pub fn write_summary(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = workspace_root().join("results").join("bench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.summary_json())?;
        Ok(path)
    }

    /// Writes the summary named after the running bench binary. Called by
    /// [`criterion_main!`](crate::criterion_main) after all groups run.
    pub fn final_summary(&self) {
        let name = bench_binary_name();
        match self.write_summary(&name) {
            Ok(path) => println!("bench summary written to {}", path.display()),
            Err(e) => eprintln!("failed to write bench summary for {name}: {e}"),
        }
    }
}

/// A set of related benchmarks sharing a name prefix, sample size, and
/// throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = Some(samples);
        self
    }

    /// Sets the throughput annotation for subsequently registered
    /// benchmarks in this group.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Registers and immediately measures one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let record = self.criterion.measure(
            self.name.clone(),
            id.into().render(),
            self.sample_size,
            self.throughput,
            f,
        );
        self.criterion.records.push(record);
        self
    }

    /// Registers one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (statistics were recorded as each bench ran).
    pub fn finish(self) {}
}

fn human_time(ns: f64) -> String {
    let mut out = String::new();
    if ns < 1_000.0 {
        let _ = write!(out, "{ns:.1} ns");
    } else if ns < 1_000_000.0 {
        let _ = write!(out, "{:.2} µs", ns / 1_000.0);
    } else if ns < 1_000_000_000.0 {
        let _ = write!(out, "{:.2} ms", ns / 1_000_000.0);
    } else {
        let _ = write!(out, "{:.2} s", ns / 1_000_000_000.0);
    }
    out
}

/// The bench binary's name with cargo's `-<16 hex>` disambiguator
/// stripped: `packet_codec-3fa0b…` → `packet_codec`.
fn bench_binary_name() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()));
    let Some(stem) = stem else {
        return "bench".to_string();
    };
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem,
    }
}

/// Locates the workspace root (the directory whose `Cargo.toml` declares
/// `[workspace]`), so bench JSON always lands in the repo's `results/`
/// regardless of the invoking package's working directory.
fn workspace_root() -> PathBuf {
    let candidates = [
        std::env::var("CARGO_MANIFEST_DIR").ok(),
        Some(env!("CARGO_MANIFEST_DIR").to_string()),
        std::env::current_dir().ok().map(|p| p.to_string_lossy().into_owned()),
    ];
    for start in candidates.into_iter().flatten() {
        for dir in Path::new(&start).ancestors() {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir.to_path_buf();
                }
            }
        }
    }
    PathBuf::from(".")
}

/// Bundles bench functions into one registration function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::bench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Expands to `fn main()` running the given groups and writing the JSON
/// summary. Ignores harness CLI arguments (`--bench` etc.).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::bench::Criterion::default();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_runs_exactly_one_iteration_per_sample() {
        let mut criterion = Criterion::with_config(BenchConfig::smoke());
        let mut calls = 0u64;
        {
            let mut group = criterion.benchmark_group("g");
            group.bench_function("one", |b| b.iter(|| calls += 1));
            group.finish();
        }
        // Calibration (1) + sample (1); warmup skipped.
        assert_eq!(calls, 2);
        let record = &criterion.records()[0];
        assert_eq!((record.iters_per_sample, record.samples), (1, 1));
    }

    #[test]
    fn summary_json_is_valid_and_complete() {
        let mut criterion = Criterion::with_config(BenchConfig::smoke());
        {
            let mut group = criterion.benchmark_group("codec");
            group.throughput(Throughput::Bytes(64));
            group.bench_function(BenchmarkId::new("parse", 7), |b| {
                b.iter(|| std::hint::black_box(3u64 * 7))
            });
            group.finish();
        }
        let doc = json::parse(&criterion.summary_json()).expect("summary must be valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("arpshield-bench-v1"));
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.get("group").unwrap().as_str(), Some("codec"));
        assert_eq!(r.get("id").unwrap().as_str(), Some("parse/7"));
        for key in ["mean_ns", "median_ns", "min_ns", "max_ns", "stddev_ns"] {
            assert!(r.get(key).unwrap().as_num().unwrap() >= 0.0, "missing {key}");
        }
        let throughput = r.get("throughput").unwrap();
        assert_eq!(throughput.get("kind").unwrap().as_str(), Some("bytes"));
        assert_eq!(throughput.get("per_iter").unwrap().as_num(), Some(64.0));
    }

    #[test]
    fn statistics_are_ordered_sanely() {
        let mut criterion = Criterion::with_config(BenchConfig {
            samples: 9,
            target_sample_nanos: 0,
            fixed_iters: Some(3),
            skip_warmup: true,
        });
        criterion
            .bench_function("spin", |b| b.iter(|| std::hint::black_box((0..100u32).sum::<u32>())));
        let r = &criterion.records()[0];
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
        assert_eq!(r.iters_per_sample, 3);
        assert_eq!(r.samples, 9);
    }

    #[test]
    fn benchmark_ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("stable", 100).render(), "stable/100");
        assert_eq!(BenchmarkId::from_parameter("passive").render(), "passive");
        assert_eq!(BenchmarkId::from("plain").render(), "plain");
    }

    #[test]
    fn binary_name_strips_cargo_hash() {
        // Indirect: the current test binary is `arpshield_testkit-<hash>`,
        // so the stripped name must not contain a 16-hex suffix.
        let name = bench_binary_name();
        assert!(!name.is_empty());
        if let Some((_, tail)) = name.rsplit_once('-') {
            assert!(!(tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit())));
        }
    }

    #[test]
    fn workspace_root_contains_workspace_manifest() {
        let root = workspace_root();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
    }
}
