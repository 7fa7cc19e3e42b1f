//! The process-side sink: a [`TraceCollector`] gathers finished run
//! sections (from any worker thread) and exports them as a
//! deterministic [`RunManifest`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use crate::csv::csv_escape;
use crate::hist::Histogram;
use crate::json::quote;
use crate::pcapng::PcapngWriter;
use crate::profile::ProfileReport;
use crate::recorder::{FrameComment, RecordedFrame};

/// One flushed run: its label, its counters (kept structured so the
/// manifest can merge totals), its serialized JSON body, and the
/// structured histograms and frames behind that body, kept so the
/// manifest can export them as CSV and pcapng without re-parsing its
/// own JSON.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSection {
    /// The run label chosen at [`crate::Tracer::for_current_run`] time
    /// plus any annotations.
    pub label: String,
    /// Final counter values for the run.
    pub counters: BTreeMap<String, u64>,
    /// Final histogram state for the run, by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Captured frames (pinned survivors plus ring remainder), sorted
    /// by id. Empty unless the collector had a capture capacity.
    pub frames: Vec<RecordedFrame>,
    /// The run serialized as a single-line JSON object: counters,
    /// histograms, events with their frame citations and, under
    /// capture, the count of frames lost to ring eviction.
    pub body: String,
}

/// Collects run sections and warnings from every thread participating
/// in an experiment. `Send + Sync`; workers reach it through the
/// thread-local installed by [`install`].
#[derive(Debug, Default)]
pub struct TraceCollector {
    sections: Mutex<Vec<RunSection>>,
    warnings: Mutex<Vec<String>>,
    /// Flight-recorder ring capacity each run should allocate; `None`
    /// leaves frame capture off (the default).
    capture: Option<usize>,
}

thread_local! {
    static CURRENT: RefCell<Vec<Arc<TraceCollector>>> = const { RefCell::new(Vec::new()) };
}

/// Installs `collector` as this thread's current trace sink until the
/// returned guard drops. Installs nest (the innermost wins), so
/// concurrently running tests in one process cannot cross-contaminate.
/// Worker pools must capture [`current`] on the submitting thread and
/// re-[`install`] it inside each worker for tracing to propagate.
#[must_use = "the collector is uninstalled when the guard drops"]
pub fn install(collector: Arc<TraceCollector>) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(collector));
    InstallGuard { _not_send: PhantomData }
}

/// The collector currently installed on this thread, if any.
pub fn current() -> Option<Arc<TraceCollector>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// RAII guard returned by [`install`]; uninstalls on drop. Not `Send`:
/// it must drop on the thread that installed.
#[derive(Debug)]
pub struct InstallGuard {
    _not_send: PhantomData<Rc<()>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A collector whose runs each record wire frames into a flight
    /// recorder ring of `capacity` frames (see
    /// [`crate::FrameRecorder`]).
    pub fn with_capture(capacity: usize) -> Self {
        TraceCollector { capture: Some(capacity), ..Self::default() }
    }

    /// The per-run flight-recorder capacity, `None` when capture is
    /// off.
    pub fn capture_capacity(&self) -> Option<usize> {
        self.capture
    }

    /// True when no run has flushed yet.
    pub fn is_empty(&self) -> bool {
        self.sections.lock().expect("trace sections poisoned").is_empty()
    }

    /// Records an out-of-band warning (e.g. a rejected environment
    /// variable) into the manifest instead of stderr.
    pub fn warn(&self, message: impl Into<String>) {
        self.warnings.lock().expect("trace warnings poisoned").push(message.into());
    }

    pub(crate) fn push_section(&self, section: RunSection) {
        self.sections.lock().expect("trace sections poisoned").push(section);
    }

    /// Snapshots everything collected so far into a manifest for
    /// `experiment`. Sections are sorted by `(label, body)` and
    /// warnings sorted and deduplicated, so the result is
    /// byte-identical no matter which worker finished first.
    pub fn manifest(&self, experiment: &str) -> RunManifest {
        let mut runs = self.sections.lock().expect("trace sections poisoned").clone();
        // Frames break any (label, body) tie so section order can
        // never depend on which worker finished first.
        runs.sort_by(|a, b| (&a.label, &a.body, &a.frames).cmp(&(&b.label, &b.body, &b.frames)));
        let mut warnings = self.warnings.lock().expect("trace warnings poisoned").clone();
        warnings.sort();
        warnings.dedup();
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for run in &runs {
            for (name, value) in &run.counters {
                *totals.entry(name.clone()).or_insert(0) += value;
            }
        }
        RunManifest {
            experiment: experiment.to_string(),
            totals,
            warnings,
            runs,
            capture: self.capture,
            wall: None,
        }
    }
}

/// The per-experiment artifact: every run's section plus merged
/// counter totals, and, when the experiment ran under the profiler,
/// where its wall clock went. Exported as JSON and CSV under
/// `results/trace/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Experiment id the manifest belongs to (e.g. `t2`).
    pub experiment: String,
    /// All run counters merged by per-name addition.
    pub totals: BTreeMap<String, u64>,
    /// Out-of-band warnings, sorted and deduplicated.
    pub warnings: Vec<String>,
    /// The flushed runs, sorted by `(label, body)`.
    pub runs: Vec<RunSection>,
    /// The flight-recorder ring capacity the runs recorded under,
    /// `None` when frame capture was off.
    pub capture: Option<usize>,
    /// The wall-clock profile of the experiment, `None` unless it ran
    /// under the profiler.
    pub wall: Option<ProfileReport>,
}

impl RunManifest {
    /// Serializes the manifest as JSON: deterministic key order, one
    /// run object per line so manifests diff readably. `ring_capacity`
    /// appears only under capture and `wall` only under profiling, so a
    /// plain trace manifest has neither; every byte outside `wall` is
    /// identical at any `ARPSHIELD_THREADS`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"arpshield-trace/1\",");
        let _ = writeln!(out, "  \"experiment\": {},", quote(&self.experiment));
        let _ = writeln!(out, "  \"time_unit\": \"ns\",");
        if let Some(capacity) = self.capture {
            let _ = writeln!(out, "  \"ring_capacity\": {capacity},");
        }
        out.push_str("  \"totals\": {");
        for (i, (name, value)) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {value}", quote(name));
        }
        out.push_str(if self.totals.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"warnings\": [");
        for (i, warning) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}", quote(warning));
        }
        out.push_str(if self.warnings.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"runs\": [");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&run.body);
        }
        out.push_str(if self.runs.is_empty() { "]" } else { "\n  ]" });
        if let Some(wall) = &self.wall {
            out.push_str(",\n  \"wall\": ");
            write_wall(&mut out, wall);
        }
        out.push_str("\n}\n");
        out
    }

    /// Serializes the counters as CSV (`run,counter,value`), one row
    /// per run counter plus merged totals under the pseudo-run
    /// `__total__`. Fields go through [`csv_escape`].
    pub fn to_counters_csv(&self) -> String {
        let mut out = String::from("run,counter,value\n");
        for run in &self.runs {
            for (name, value) in &run.counters {
                let _ = writeln!(out, "{},{},{value}", csv_escape(&run.label), csv_escape(name));
            }
        }
        for (name, value) in &self.totals {
            let _ = writeln!(out, "__total__,{},{value}", csv_escape(name));
        }
        out
    }

    /// Serializes per-run histogram summaries as CSV
    /// (`run,histogram,count,sum,min,max,p50,p90,p99`).
    pub fn to_histograms_csv(&self) -> String {
        let mut out = String::from("run,histogram,count,sum,min,max,p50,p90,p99\n");
        for run in &self.runs {
            for (name, hist) in &run.histograms {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{}",
                    csv_escape(&run.label),
                    csv_escape(name),
                    hist.count(),
                    hist.sum(),
                    hist.min().unwrap_or(0),
                    hist.max().unwrap_or(0),
                    hist.quantile_estimate(0.50).unwrap_or(0),
                    hist.quantile_estimate(0.90).unwrap_or(0),
                    hist.quantile_estimate(0.99).unwrap_or(0),
                );
            }
        }
        out
    }

    /// Exports every captured frame as a pcapng file openable in
    /// Wireshark/tshark: one Ethernet interface per run (named after
    /// the run label, nanosecond timestamps), frames in capture-id
    /// order, each carrying its [`FrameComment`] (id, kind, endpoints,
    /// pin state). Runs that captured nothing still get their
    /// interface, so the interface list always mirrors the run list.
    pub fn to_pcapng(&self) -> Vec<u8> {
        let mut writer = PcapngWriter::new("arpshield reproduce");
        for run in &self.runs {
            let interface = writer.add_interface(&run.label);
            for frame in &run.frames {
                let comment = FrameComment::of(frame).to_string();
                writer.add_packet(interface, frame.at_ns, &frame.bytes, &comment);
            }
        }
        writer.finish()
    }
}

/// Writes the `wall` object: the independently measured wall time, the
/// sum of span self times, and the span and gauge tables, path- and
/// name-sorted. All times are wall-clock nanoseconds, the one part of
/// the manifest that differs from run to run.
fn write_wall(out: &mut String, wall: &ProfileReport) {
    let _ = writeln!(out, "{{\n    \"wall_ns\": {},", wall.wall_ns);
    let _ = writeln!(out, "    \"self_total_ns\": {},", wall.data.self_total_ns());
    out.push_str("    \"spans\": [");
    for (i, (path, s)) in wall.data.spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let name = path.rsplit('/').next().unwrap_or(path);
        let _ = write!(
            out,
            "      {{\"path\": {}, \"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"child_ns\": {}}}",
            quote(path),
            quote(name),
            s.count,
            s.total_ns,
            s.self_ns(),
            s.child_ns,
        );
    }
    out.push_str(if wall.data.spans.is_empty() { "],\n" } else { "\n    ],\n" });
    out.push_str("    \"gauges\": [");
    for (i, (name, g)) in wall.data.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "      {{\"name\": {}, \"samples\": {}, \"min\": {}, \"max\": {}, \"sum\": {}}}",
            quote(name),
            g.count(),
            g.min().unwrap_or(0),
            g.max().unwrap_or(0),
            g.sum(),
        );
    }
    out.push_str(if wall.data.gauges.is_empty() { "]\n  }" } else { "\n    ]\n  }" });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::profile::{ProfileData, SpanStats};
    use crate::recorder::FrameKind;
    use crate::Tracer;

    fn section(label: &str, counter: &str, value: u64) -> RunSection {
        let mut counters = BTreeMap::new();
        counters.insert(counter.to_string(), value);
        RunSection {
            label: label.to_string(),
            counters,
            body: format!("{{\"label\":{}}}", quote(label)),
            ..RunSection::default()
        }
    }

    #[test]
    fn manifest_sorts_runs_and_merges_totals() {
        let collector = TraceCollector::new();
        collector.push_section(section("b-run", "drops", 3));
        collector.push_section(section("a-run", "drops", 4));
        collector.warn("w2");
        collector.warn("w1");
        collector.warn("w1");
        let manifest = collector.manifest("tX");
        assert_eq!(manifest.runs[0].label, "a-run");
        assert_eq!(manifest.runs[1].label, "b-run");
        assert_eq!(manifest.totals.get("drops"), Some(&7));
        assert_eq!(manifest.warnings, vec!["w1".to_string(), "w2".to_string()]);
    }

    #[test]
    fn nested_install_restores_outer() {
        assert!(current().is_none());
        let outer = Arc::new(TraceCollector::new());
        let g1 = install(Arc::clone(&outer));
        {
            let inner = Arc::new(TraceCollector::new());
            let _g2 = install(Arc::clone(&inner));
            assert!(Arc::ptr_eq(&current().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        drop(g1);
        assert!(current().is_none());
    }

    #[test]
    fn json_shape() {
        let collector = TraceCollector::new();
        collector.push_section(section("r", "c", 1));
        collector.warn("a \"quoted\" warning");
        let json = collector.manifest("t9").to_json();
        assert!(json.starts_with("{\n  \"schema\": \"arpshield-trace/1\""));
        assert!(json.contains("\"experiment\": \"t9\""));
        assert!(json.contains("\"time_unit\": \"ns\""));
        assert!(json.contains("\"totals\": {"));
        assert!(json.contains("\"runs\": ["));
        let doc = json::parse(&json).expect("the manifest is JSON");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("arpshield-trace/1"));
        assert_eq!(doc.get("totals").and_then(|t| t.get("c")), Some(&Value::Num(1.0)));
        let warnings = doc.get("warnings").and_then(Value::as_arr).unwrap();
        assert_eq!(warnings, [Value::Str("a \"quoted\" warning".into())]);
        let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
        assert_eq!(runs[0].get("label").and_then(Value::as_str), Some("r"));
        let empty = TraceCollector::new().manifest("t0").to_json();
        assert!(empty.contains("\"runs\": []"));
        assert!(empty.contains("\"warnings\": []"));
        assert!(json::parse(&empty).is_ok());
    }

    /// Records run `label` through a real tracer, so its body is the
    /// one a simulation writes: `frames` delivered frames, the first
    /// pinned and cited by a verdict. Without capture nothing is
    /// recorded and the verdict cites no frame.
    fn record_run(label: &str, frames: u64) {
        let tracer = Tracer::for_current_run(label);
        for n in 1..=frames {
            let endpoints = || ("h0:0".to_string(), "sw:1".to_string());
            let id = tracer.record_frame(n * 1_000, FrameKind::Delivered, &[0xAB; 60], endpoints);
            if n == 1 {
                if let Some(id) = id {
                    tracer.pin_frame(id);
                }
                tracer.event_frames(n * 1_000, "scheme.verdict", || {
                    ("passive".into(), "kind=binding_changed".into(), id.into_iter().collect())
                });
            }
        }
    }

    #[test]
    fn capture_exports_cover_every_run() {
        let collector = Arc::new(TraceCollector::with_capture(16));
        assert_eq!(collector.capture_capacity(), Some(16));
        {
            let _guard = install(Arc::clone(&collector));
            record_run("run-b", 1);
            record_run("run-a", 0);
        }
        let manifest = collector.manifest("tX");
        assert_eq!(manifest.capture, Some(16));

        let pcap = manifest.to_pcapng();
        let mut stream = crate::pcapng::PcapngStream::new(pcap.as_slice());
        let packet = stream.next_packet().unwrap().expect("one captured frame");
        assert_eq!(packet.interface, 1, "frameless runs still hold their interface slot");
        assert_eq!(packet.ts_ns, 1_000);
        assert_eq!(packet.bytes, [0xAB; 60]);
        assert_eq!(packet.comment, "id=1 kind=deliver src=h0:0 dst=sw:1 pinned");
        assert!(stream.next_packet().unwrap().is_none());
        assert_eq!(stream.interfaces(), ["run-a", "run-b"]);
    }

    /// Neither capture nor profiling: none of the optional keys appear.
    #[test]
    fn plain_manifest_has_no_optional_sections() {
        let collector = Arc::new(TraceCollector::new());
        {
            let _guard = install(Arc::clone(&collector));
            record_run("r", 3);
        }
        let json = collector.manifest("t0").to_json();
        for key in ["ring_capacity", "frames_evicted", "wall", "\"frames\":"] {
            assert!(!json.contains(key), "{key} in a plain manifest:\n{json}");
        }
        let doc = json::parse(&json).expect("the manifest is JSON");
        let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].get("events").and_then(Value::as_arr).is_some_and(|e| e.len() == 1));
    }

    /// Capture and profiling together: the manifest parses back with
    /// the ring capacity, each run's eviction count, the verdict's
    /// frame citation and the wall section.
    #[test]
    fn capture_and_profile_manifest_carries_all_three() {
        let collector = Arc::new(TraceCollector::with_capture(2));
        {
            let _guard = install(Arc::clone(&collector));
            // Frame 1 is pinned; 2 and 3 are evicted to make room for 4 and 5.
            record_run("r", 5);
        }
        let mut data = ProfileData::default();
        data.spans.insert("job/step".into(), SpanStats { count: 2, total_ns: 700, child_ns: 200 });
        data.gauges.entry("depth".into()).or_default().record(5);
        let mut manifest = collector.manifest("t0");
        manifest.wall = Some(ProfileReport { wall_ns: 1_000, data });
        let doc = json::parse(&manifest.to_json()).expect("the manifest is JSON");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("arpshield-trace/1"));
        assert_eq!(doc.get("ring_capacity").and_then(Value::as_num), Some(2.0));
        let run = &doc.get("runs").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(run.get("frames_evicted").and_then(Value::as_num), Some(2.0));
        assert!(run.get("frames").is_none(), "the frames live in the pcapng alone");
        let event = &run.get("events").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(event.get("detail").and_then(Value::as_str), Some("kind=binding_changed"));
        assert_eq!(event.get("frames"), Some(&Value::Arr(vec![Value::Num(1.0)])));
        let wall = doc.get("wall").expect("a wall section");
        assert_eq!(wall.get("wall_ns").and_then(Value::as_num), Some(1_000.0));
        assert_eq!(wall.get("self_total_ns").and_then(Value::as_num), Some(500.0));
        let span = &wall.get("spans").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(span.get("path").and_then(Value::as_str), Some("job/step"));
        assert_eq!(span.get("name").and_then(Value::as_str), Some("step"));
        let gauge = &wall.get("gauges").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(gauge.get("samples").and_then(Value::as_num), Some(1.0));
    }

    #[test]
    fn histograms_csv_carries_quantiles() {
        let collector = TraceCollector::new();
        let mut with_hist = section("r", "c", 1);
        let mut hist = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            hist.record(v);
        }
        with_hist.histograms.insert("latency_ns".into(), hist);
        collector.push_section(with_hist);
        let csv = collector.manifest("t").to_histograms_csv();
        assert!(csv.starts_with("run,histogram,count,sum,min,max,p50,p90,p99\n"));
        assert!(csv.contains("r,latency_ns,4,100,10,40,"));
    }

    #[test]
    fn counters_csv_escapes_labels() {
        let collector = TraceCollector::new();
        collector.push_section(section("scheme=a, attack=b", "drops", 2));
        let csv = collector.manifest("t").to_counters_csv();
        assert!(csv.starts_with("run,counter,value\n"));
        assert!(csv.contains("\"scheme=a, attack=b\",drops,2\n"));
        assert!(csv.contains("__total__,drops,2\n"));
    }
}
