//! Regenerates every table and figure of the evaluation.
//!
//! ```text
//! reproduce                   # run everything
//! reproduce t3 f1             # run a subset by id
//! reproduce --out DIR         # also write CSVs (default: results/)
//! reproduce t6s --defend      # also run the DAI-defended scale sweep (id t6sd)
//! reproduce --trace t2        # additionally write results/trace/t2.{json,csv,hist.csv}
//! reproduce --capture t2      # as --trace, plus the frames in results/trace/t2.pcapng
//! reproduce --profile t6s     # additionally write the wall section of results/trace/t6s.json
//! reproduce validate-trace P… # check manifests (files and/or directories) and exit
//! reproduce inspect FILE      # decode a .pcapng capture into a forensic timeline
//! reproduce ingest FILE…      # stream captures through the schemes as online detectors
//! reproduce profile-report F  # render a manifest's wall section as a self-time table
//! ```
//!
//! Each experiment writes one manifest, `<out>/trace/<id>.json`. Under
//! `--trace` every simulated run flushes its sim-time-stamped counters,
//! histograms, and events into it. `--capture` implies `--trace` and
//! arms the flight recorder: every wire frame lands in a bounded
//! per-run ring (capacity via `ARPSHIELD_RECORD_FRAMES`), exported as a
//! standard pcapng (openable in Wireshark) beside the manifest, whose
//! events cite the frames behind each scheme verdict. The experiment
//! CSVs themselves are byte-identical with and without either flag.
//!
//! `--profile` wraps each experiment in the span-scoped wall-clock
//! profiler from `crates/trace`: hierarchical self/total times and
//! call counts for the simulator, switch, scheme, and pool hot paths,
//! plus sampled runtime gauges. Wall-clock data is quarantined to the
//! manifest's `wall` section and stderr — the experiment CSVs and the
//! rest of the manifest stay byte-identical with and without
//! `--profile` at any thread count.
//!
//! `inspect` streams a capture and joins it with the manifest beside it
//! (`X.json` for `X.pcapng`) into a per-run timeline interleaving
//! frames, cache/CAM mutations, and scheme verdicts; `--host S`,
//! `--mac S`, and `--verdict S` narrow it.
//!
//! `ingest` streams pcapng files (arpshield's own or foreign ones)
//! through any monitor-class scheme running standalone; the reader
//! holds one block and a capped interface table, whatever the file.
//! `--scheme K` picks detectors (default: all supported), `--vantage S`
//! replays only frames a live run delivered to device `S` — from a
//! monitor's vantage point this reproduces the live run's verdict
//! counters byte-for-byte — and `--capture` re-records the ingested
//! frames with the new detectors' alert provenance.

use std::collections::HashMap;
use std::fs;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use arpshield_core::experiment::{
    f1_detection_latency, f2_overhead, f3_resolution_latency, f4_poisoned_time, f5_passive_scale,
    f6_flood_dynamics, f6_starvation_dynamics, t2_susceptibility, t3_coverage, t4_false_positives,
    t5_cost, t5_resilience, t6_dos_coverage, t6_scale, t6_scale_defended, T6S_SIZES,
};
use arpshield_core::scenario::scale::Fabric;
use arpshield_core::{taxonomy, Series, Table};
use arpshield_netsim::SimTime;
use arpshield_packet::{ArpOp, ArpPacket, EtherType, EthernetView};
use arpshield_schemes::{Detector, SchemeKind};
use arpshield_trace::env_knob::{self, EnvKnob};
use arpshield_trace::pcapng::{PcapngStream, MAX_INTERFACE_NAME};
use arpshield_trace::{
    profile, stderr_line, FrameComment, Heartbeat, ProfileCollector, TraceCollector, Tracer,
};

const SEED: u64 = 20070625; // the venue's year, as a nod

/// Prints a line through [`emit`], the one writer of every subcommand's
/// report.
macro_rules! outln {
    () => {
        emit(format_args!(""))
    };
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// Prints a line through [`stderr_line`], the one writer of every
/// warning, error and usage line.
macro_rules! errln {
    ($($arg:tt)*) => {
        stderr_line(format_args!($($arg)*))
    };
}

/// Writes `line` and a newline to stdout. A reader that closes the pipe
/// early, as `| head` does, ends the command quietly with exit 0; any
/// other write error ends it with a message and exit 1.
fn emit(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        errln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

struct Output {
    out_dir: PathBuf,
    /// `--trace`, which `--capture` implies.
    trace: bool,
    /// Flight-recorder ring capacity; `Some` arms `--capture`.
    capture: Option<usize>,
    profile: bool,
}

impl Output {
    /// Runs one experiment under the requested telemetry and writes its
    /// manifest to `<out>/trace/<id>.json`: with the counter and
    /// histogram CSVs beside it under `--trace`, the pcapng
    /// `<id>.pcapng` under `--capture`, and the `wall` section under
    /// `--profile`.
    fn traced<T>(&self, id: &str, f: impl FnOnce() -> T) -> T {
        if !self.trace && !self.profile {
            return f();
        }
        let collector = Arc::new(match self.capture {
            Some(capacity) => TraceCollector::with_capture(capacity),
            None => TraceCollector::new(),
        });
        // The profiler wraps the trace collector so worker threads see
        // both. No root span opens here: the per-job spans inside each
        // experiment are the tree roots, so profile paths are identical
        // whether jobs run inline (ARPSHIELD_THREADS=1) or on workers.
        let profiler = self.profile.then(|| Arc::new(ProfileCollector::new()));
        let started = Instant::now();
        let result = {
            let _profile = profiler.clone().map(profile::install);
            let _trace = self.trace.then(|| arpshield_trace::install(collector.clone()));
            f()
        };
        let wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut manifest = collector.manifest(id);
        manifest.wall = profiler.map(|profiler| profiler.report(wall_ns));
        // A directory that cannot be made shows as a warning per file.
        let dir = self.out_dir.join("trace");
        fs::create_dir_all(&dir).ok();
        write_file(&dir.join(format!("{id}.json")), manifest.to_json());
        if self.trace {
            write_file(&dir.join(format!("{id}.csv")), manifest.to_counters_csv());
            write_file(&dir.join(format!("{id}.hist.csv")), manifest.to_histograms_csv());
        }
        if self.capture.is_some() {
            write_file(&dir.join(format!("{id}.pcapng")), manifest.to_pcapng());
        }
        result
    }

    fn table(&self, id: &str, make: impl FnOnce() -> Table) {
        // The CSV is written first, so a reader that closes stdout
        // early does not cost the experiment its file.
        let table = self.traced(id, make);
        write_file(&self.out_dir.join(format!("{id}.csv")), table.to_csv());
        outln!("{}", table.render());
    }

    fn series(&self, id: &str, make: impl FnOnce() -> Vec<Series>) {
        let series = self.traced(id, make);
        for (i, s) in series.iter().enumerate() {
            write_file(&self.out_dir.join(format!("{id}_{i}.csv")), s.to_csv());
            outln!("{}", s.render());
        }
    }
}

/// Writes `body` to `path`, warning on stderr when it cannot.
fn write_file(path: &Path, body: impl AsRef<[u8]>) {
    if let Err(e) = fs::write(path, body) {
        errln!("warning: could not write {}: {e}", path.display());
    }
}

/// The one reader of the manifests `reproduce` writes, shared by
/// `validate-trace`, `profile-report` and `inspect`. A manifest may come
/// from anywhere, so the reader never indexes, overflows or panics.
#[deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod manifest {
    use std::fs;

    use arpshield_trace::json::{self, Value};

    /// What the readers take from an `arpshield-trace/1` manifest.
    pub struct Manifest {
        pub experiment: String,
        pub runs: Vec<Run>,
        /// The wall-clock profile, from a run under `--profile`.
        pub wall: Option<Wall>,
    }

    pub struct Run {
        pub label: String,
        /// Frames lost to ring eviction; 0 when capture was off.
        pub frames_evicted: u64,
        pub events: Vec<Event>,
    }

    pub struct Event {
        pub at_ns: u64,
        pub category: String,
        pub actor: String,
        pub detail: String,
        /// Capture ids of the frames the event cites.
        pub frames: Vec<u64>,
    }

    pub struct Wall {
        pub wall_ns: f64,
        pub self_total_ns: f64,
        pub spans: Vec<Span>,
        pub gauges: Vec<Gauge>,
    }

    pub struct Span {
        pub path: String,
        pub count: u64,
        pub total_ns: f64,
        pub self_ns: f64,
    }

    pub struct Gauge {
        pub name: String,
        pub samples: f64,
        pub min: f64,
        pub max: f64,
        pub sum: f64,
    }

    /// Reads the manifest at `path`, returning a message naming the
    /// first violated invariant: the schema tag, a required field that
    /// is missing or has the wrong type, or a malformed optional
    /// section (`ring_capacity`, a run's `frames_evicted`, `wall`).
    pub fn load(path: &str) -> Result<Manifest, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = str_field(&doc, "schema")?;
        if schema != "arpshield-trace/1" {
            return Err(format!("unknown schema {schema:?}"));
        }
        let experiment = str_field(&doc, "experiment")?.to_string();
        let unit = str_field(&doc, "time_unit")?;
        if unit != "ns" {
            return Err(format!("unexpected time_unit {unit:?}"));
        }
        doc.get("totals").ok_or("missing field `totals`")?;
        arr_field(&doc, "warnings")?;
        opt_num(&doc, "ring_capacity")?;
        let runs = each(&doc, "runs", "run", load_run)?;
        let wall = doc.get("wall").map(|wall| load_wall(wall).map_err(|e| format!("wall: {e}")));
        Ok(Manifest { experiment, runs, wall: wall.transpose()? })
    }

    fn load_run(run: &Value) -> Result<Run, String> {
        let label = str_field(run, "label")?.to_string();
        run.get("counters").ok_or("missing field `counters`")?;
        let frames_evicted = opt_num(run, "frames_evicted")?.unwrap_or(0.0) as u64;
        let events = each(run, "events", "event", load_event)?;
        Ok(Run { label, frames_evicted, events })
    }

    fn load_event(event: &Value) -> Result<Event, String> {
        let frames = match event.get("frames") {
            None => Vec::new(),
            Some(ids) => ids
                .as_arr()
                .and_then(|ids| ids.iter().map(|id| id.as_num().map(|id| id as u64)).collect())
                .ok_or("field `frames` is not an array of numbers")?,
        };
        Ok(Event {
            at_ns: num_field(event, "at_ns")? as u64,
            category: str_field(event, "category")?.to_string(),
            actor: str_field(event, "actor")?.to_string(),
            detail: str_field(event, "detail")?.to_string(),
            frames,
        })
    }

    fn load_wall(wall: &Value) -> Result<Wall, String> {
        let spans = each(wall, "spans", "span", |span| {
            Ok(Span {
                path: str_field(span, "path")?.to_string(),
                count: num_field(span, "count")? as u64,
                total_ns: num_field(span, "total_ns")?,
                self_ns: num_field(span, "self_ns")?,
            })
        })?;
        let gauges = each(wall, "gauges", "gauge", |gauge| {
            Ok(Gauge {
                name: str_field(gauge, "name")?.to_string(),
                samples: num_field(gauge, "samples")?,
                min: num_field(gauge, "min")?,
                max: num_field(gauge, "max")?,
                sum: num_field(gauge, "sum")?,
            })
        })?;
        let wall_ns = num_field(wall, "wall_ns")?;
        Ok(Wall { wall_ns, self_total_ns: num_field(wall, "self_total_ns")?, spans, gauges })
    }

    /// Loads every element of array field `key` with `load`, naming a
    /// failing element `{what} {index}`.
    fn each<T>(
        obj: &Value,
        key: &str,
        what: &str,
        load: fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = arr_field(obj, key)?.iter().enumerate();
        items.map(|(i, item)| load(item).map_err(|e| format!("{what} {i}: {e}"))).collect()
    }

    fn str_field<'a>(obj: &'a Value, key: &str) -> Result<&'a str, String> {
        obj.get(key).and_then(Value::as_str).ok_or_else(|| format!("missing string field `{key}`"))
    }

    fn num_field(obj: &Value, key: &str) -> Result<f64, String> {
        obj.get(key).and_then(Value::as_num).ok_or_else(|| format!("missing numeric field `{key}`"))
    }

    fn arr_field<'a>(obj: &'a Value, key: &str) -> Result<&'a [Value], String> {
        obj.get(key).and_then(Value::as_arr).ok_or_else(|| format!("missing array field `{key}`"))
    }

    /// A numeric field that may be absent.
    fn opt_num(obj: &Value, key: &str) -> Result<Option<f64>, String> {
        obj.get(key)
            .map(|v| v.as_num().ok_or_else(|| format!("field `{key}` is not a number")))
            .transpose()
    }
}

/// Expands a mix of file and directory arguments into the sorted list
/// of manifest files to validate: directories contribute every
/// `*.json` beneath them (recursively), explicit files pass through.
fn collect_manifest_paths(arg: &Path, found: &mut Vec<PathBuf>) -> Result<(), String> {
    if !arg.is_dir() {
        found.push(arg.to_path_buf());
        return Ok(());
    }
    let entries = fs::read_dir(arg).map_err(|e| format!("cannot read {}: {e}", arg.display()))?;
    let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        if child.is_dir() {
            collect_manifest_paths(&child, found)?;
        } else if child.extension().is_some_and(|ext| ext == "json") {
            found.push(child);
        }
    }
    Ok(())
}

fn run_validate_trace(paths: &[String]) -> i32 {
    let mut files = Vec::new();
    for arg in paths {
        if let Err(e) = collect_manifest_paths(Path::new(arg), &mut files) {
            errln!("error: {e}");
            return 1;
        }
    }
    if files.is_empty() {
        errln!("error: no manifest files found under the given paths");
        return 1;
    }
    let mut failed = 0usize;
    for file in &files {
        let path = file.display().to_string();
        match manifest::load(&path) {
            Ok(m) => {
                outln!("{path}: valid arpshield-trace/1 manifest with {} run(s)", m.runs.len())
            }
            Err(e) => {
                errln!("error: {path}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        errln!("{failed} of {} manifest(s) failed validation", files.len());
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------
// `profile-report`: render a manifest's wall section as a self-time table.
// ---------------------------------------------------------------------

/// Loads a manifest and prints its `wall` section's spans sorted by
/// self time (where the wall clock actually went), then the sampled
/// runtime gauges. A manifest without `wall` is an error.
fn run_profile_report(path: &str) -> Result<(), String> {
    let manifest = manifest::load(path).map_err(|e| format!("{path}: {e}"))?;
    let Some(mut wall) = manifest.wall else {
        return Err(format!("{path}: no `wall` section; run the experiment with --profile"));
    };
    wall.spans.sort_by(|a, b| b.self_ns.total_cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    let (wall_ns, self_total_ns, rows) = (wall.wall_ns, wall.self_total_ns, &wall.spans);

    let wall_s = wall_ns / 1e9;
    let coverage = if wall_ns > 0.0 { 100.0 * self_total_ns / wall_ns } else { 0.0 };
    outln!("profile: {} (wall section of {path})", manifest.experiment);
    outln!(
        "wall {wall_s:.3}s; {} span path(s) accounting {:.3}s self time ({coverage:.1}% coverage)\n",
        rows.len(),
        self_total_ns / 1e9,
    );
    let path_width = rows.iter().map(|r| r.path.len()).fold("span".len(), usize::max);
    outln!(
        "{:<path_width$}  {:>12}  {:>12}  {:>12}  {:>7}",
        "span",
        "count",
        "total_ms",
        "self_ms",
        "self_%"
    );
    for row in rows {
        let pct = if wall_ns > 0.0 { 100.0 * row.self_ns / wall_ns } else { 0.0 };
        outln!(
            "{:<path_width$}  {:>12}  {:>12.3}  {:>12.3}  {:>6.1}%",
            row.path,
            row.count,
            row.total_ns / 1e6,
            row.self_ns / 1e6,
            pct,
        );
    }
    if !wall.gauges.is_empty() {
        outln!();
        outln!(
            "{:<path_width$}  {:>12}  {:>12}  {:>12}  {:>12}",
            "gauge",
            "samples",
            "min",
            "max",
            "mean"
        );
        for gauge in &wall.gauges {
            let mean = if gauge.samples > 0.0 { gauge.sum / gauge.samples } else { 0.0 };
            outln!(
                "{:<path_width$}  {:>12}  {:>12}  {:>12}  {mean:>12.1}",
                gauge.name,
                gauge.samples as u64,
                gauge.min as u64,
                gauge.max as u64,
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `inspect`: the forensic timeline.
// ---------------------------------------------------------------------

/// One frame's summary row, built from a pcapng packet and its
/// comment as the capture streams past; the octets are not kept.
struct FrameLine {
    id: u64,
    at_ns: u64,
    kind: String,
    src: String,
    dst: String,
    len: usize,
    pinned: bool,
    decoded: String,
}

/// One-line protocol decode of a captured frame, via `crates/packet`.
fn decode_frame(bytes: &[u8]) -> String {
    let Ok(eth) = EthernetView::parse_strict(bytes) else {
        return "unparseable ethernet frame".to_string();
    };
    match eth.ethertype() {
        EtherType::ARP => match ArpPacket::parse(eth.payload()) {
            Ok(arp) => {
                if arp.is_probe() {
                    format!("ARP probe who-has {} (from {})", arp.target_ip, arp.sender_mac)
                } else if arp.is_gratuitous() {
                    format!("gratuitous ARP {} is-at {}", arp.sender_ip, arp.sender_mac)
                } else if arp.op == ArpOp::Request {
                    format!("ARP who-has {} tell {}", arp.target_ip, arp.sender_ip)
                } else {
                    format!("ARP {} is-at {} (to {})", arp.sender_ip, arp.sender_mac, arp.target_ip)
                }
            }
            Err(_) => format!("malformed ARP from {}", eth.src()),
        },
        // Authenticated variants carry scheme-specific payloads behind
        // the plain header; name the protocol and the endpoints.
        other => format!("{other} {} -> {}", eth.src(), eth.dst()),
    }
}

fn fmt_ts(at_ns: u64) -> String {
    format!("{}.{:09}", at_ns / 1_000_000_000, at_ns % 1_000_000_000)
}

struct InspectFilter {
    host: Option<String>,
    mac: Option<String>,
    verdict: Option<String>,
}

impl InspectFilter {
    fn frame_matches(&self, f: &FrameLine) -> bool {
        let host_ok = self
            .host
            .as_ref()
            .map(|h| f.src.contains(h.as_str()) || f.dst.contains(h.as_str()))
            .unwrap_or(true);
        let mac_ok = self.mac.as_ref().map(|m| f.decoded.contains(m.as_str())).unwrap_or(true);
        host_ok && mac_ok
    }

    fn event_matches(&self, e: &manifest::Event) -> bool {
        let host_ok = self
            .host
            .as_ref()
            .map(|h| e.actor.contains(h.as_str()) || e.detail.contains(h.as_str()))
            .unwrap_or(true);
        let mac_ok = self.mac.as_ref().map(|m| e.detail.contains(m.as_str())).unwrap_or(true);
        let verdict_ok = self
            .verdict
            .as_ref()
            .map(|v| e.category.starts_with("scheme.verdict") && e.detail.contains(v.as_str()))
            .unwrap_or(true);
        host_ok && mac_ok && verdict_ok
    }
}

/// Loads the manifest beside the capture at `path` (`X.json` for
/// `X.pcapng`) for its runs' events and eviction counts. A capture
/// without one still inspects (frames only), so hand-copied pcapng
/// files work.
fn load_sidecar(path: &str) -> Result<Vec<manifest::Run>, String> {
    let sidecar = match path.strip_suffix(".pcapng") {
        Some(stem) => format!("{stem}.json"),
        None => format!("{path}.json"),
    };
    if !Path::new(&sidecar).is_file() {
        errln!("note: no manifest at {sidecar}; timeline will show frames only");
        return Ok(Vec::new());
    }
    manifest::load(&sidecar).map(|m| m.runs).map_err(|e| format!("{sidecar}: {e}"))
}

const INSPECT_USAGE: &str = "usage: reproduce inspect FILE [--host S] [--mac S] [--verdict S]";

/// Parses `inspect`'s command line into the capture path and the
/// timeline filter.
fn parse_inspect_args(args: &[String]) -> Result<(String, InspectFilter), String> {
    let mut path = None;
    let mut filter = InspectFilter { host: None, mac: None, verdict: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--host" => filter.host = Some(flag_value(arg, &mut it)?),
            "--mac" => filter.mac = Some(flag_value(arg, &mut it)?),
            "--verdict" => filter.verdict = Some(flag_value(arg, &mut it)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok((path.ok_or("no capture FILE given")?, filter))
}

/// Streams the capture at `path`, keeping one summary row per frame,
/// and prints it joined with its index as per-run timelines. A capture
/// cut mid-block shows its complete packets and a warning.
fn run_inspect(path: &str, filter: &InspectFilter) -> Result<(), String> {
    let file = fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut stream = PcapngStream::new(BufReader::new(file));
    let mut frames_by_run: HashMap<usize, Vec<FrameLine>> = HashMap::new();
    let mut seq = 0;
    while let Some(pkt) = stream.next_packet().map_err(|e| format!("{path}: {e}"))? {
        seq += 1;
        let comment = FrameComment::parse(pkt.comment);
        frames_by_run.entry(pkt.interface).or_default().push(FrameLine {
            id: comment.id.unwrap_or(seq),
            at_ns: pkt.ts_ns,
            kind: comment.kind.to_string(),
            src: comment.src.to_string(),
            dst: comment.dst.to_string(),
            len: pkt.bytes.len(),
            pinned: comment.pinned,
            decoded: decode_frame(pkt.bytes),
        });
    }
    for warning in stream.warnings() {
        errln!("warning: {path}: {warning}");
    }
    let labels = stream.interfaces();
    let runs = load_sidecar(path)?;
    let runs: HashMap<&str, &manifest::Run> = runs.iter().map(|r| (r.label.as_str(), r)).collect();

    let (mut frames_shown, mut frames_total) = (0usize, 0usize);
    let (mut events_shown, mut events_total) = (0usize, 0usize);
    for (run, label) in labels.iter().enumerate() {
        let frames = frames_by_run.get(&run).map(Vec::as_slice).unwrap_or_default();
        let sidecar_run = runs.get(label.as_str());
        let events = sidecar_run.map(|r| r.events.as_slice()).unwrap_or_default();
        frames_total += frames.len();
        events_total += events.len();

        // With --verdict, frames appear only as verdict provenance.
        let cited: Option<std::collections::HashSet<u64>> = filter.verdict.as_ref().map(|_| {
            events
                .iter()
                .filter(|e| filter.event_matches(e))
                .flat_map(|e| e.frames.iter().copied())
                .collect()
        });
        let visible_frames: Vec<&FrameLine> = frames
            .iter()
            .filter(|f| cited.as_ref().map(|set| set.contains(&f.id)).unwrap_or(true))
            .filter(|f| filter.frame_matches(f))
            .collect();
        let visible_events: Vec<&manifest::Event> =
            events.iter().filter(|e| filter.event_matches(e)).collect();
        if visible_frames.is_empty() && visible_events.is_empty() {
            continue;
        }

        let evicted = sidecar_run.map_or(0, |r| r.frames_evicted);
        outln!(
            "== run: {label} ({} frame(s) captured, {evicted} evicted, {} event(s)) ==",
            frames.len(),
            events.len(),
        );
        // Merge-sort frames and events into one timeline: by sim time,
        // frames before events at the same instant (an event at t was
        // caused by a frame dispatched at t), then record order.
        enum Entry<'a> {
            Frame(&'a FrameLine),
            Event(&'a manifest::Event),
        }
        let mut timeline: Vec<(u64, u8, u64, Entry<'_>)> = Vec::new();
        for f in &visible_frames {
            timeline.push((f.at_ns, 0, f.id, Entry::Frame(f)));
        }
        for (seq, e) in visible_events.iter().enumerate() {
            timeline.push((e.at_ns, 1, seq as u64, Entry::Event(e)));
        }
        timeline.sort_by_key(|(at, class, seq, _)| (*at, *class, *seq));
        for (_, _, _, entry) in &timeline {
            match entry {
                Entry::Frame(f) => {
                    frames_shown += 1;
                    outln!(
                        "  {}  #{:<5} {:<14} {} -> {}  {}B  {}{}",
                        fmt_ts(f.at_ns),
                        f.id,
                        f.kind,
                        f.src,
                        f.dst,
                        f.len,
                        f.decoded,
                        if f.pinned { "  [pinned]" } else { "" },
                    );
                }
                Entry::Event(e) => {
                    events_shown += 1;
                    let refs = if e.frames.is_empty() {
                        String::new()
                    } else {
                        let ids: Vec<String> = e.frames.iter().map(|id| format!("#{id}")).collect();
                        format!("  <= frames {}", ids.join(" "))
                    };
                    outln!(
                        "  {}  * {:<22} {:<16} {}{}",
                        fmt_ts(e.at_ns),
                        e.category,
                        e.actor,
                        e.detail,
                        refs,
                    );
                }
            }
        }
        outln!();
    }
    outln!(
        "{} run(s); showing {frames_shown}/{frames_total} frame(s), \
         {events_shown}/{events_total} event(s)",
        labels.len(),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// `ingest`: streaming capture replay through standalone detectors.
// ---------------------------------------------------------------------

const INGEST_USAGE: &str = "usage: reproduce ingest FILE... [--stdin] [--scheme K]... \
     [--vantage S] [--out DIR] [--capture] [--profile]";

struct IngestOptions {
    sources: Vec<String>,
    stdin: bool,
    schemes: Vec<SchemeKind>,
    vantage: Option<String>,
    out_dir: PathBuf,
    capture: bool,
    profile: bool,
}

fn parse_ingest_args(args: &[String]) -> Result<IngestOptions, String> {
    let mut opts = IngestOptions {
        sources: Vec::new(),
        stdin: false,
        schemes: Vec::new(),
        vantage: None,
        out_dir: PathBuf::from("results"),
        capture: false,
        profile: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdin" => opts.stdin = true,
            "--capture" => opts.capture = true,
            "--profile" => opts.profile = true,
            "--vantage" => opts.vantage = Some(flag_value(arg, &mut it)?),
            "--out" => opts.out_dir = flag_value(arg, &mut it)?.into(),
            "--scheme" => {
                let label = flag_value(arg, &mut it)?;
                let kind = SchemeKind::from_label(&label)
                    .ok_or_else(|| format!("unknown scheme {label:?}"))?;
                if !Detector::is_supported(kind) {
                    return Err(format!(
                        "scheme '{label}' cannot run as a standalone detector; supported: {}",
                        supported_labels().join(", ")
                    ));
                }
                opts.schemes.push(kind);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            source => opts.sources.push(source.to_string()),
        }
    }
    if opts.sources.is_empty() && !opts.stdin {
        return Err("no capture FILE or --stdin given".to_string());
    }
    if opts.schemes.is_empty() {
        opts.schemes = Detector::supported();
    }
    Ok(opts)
}

fn supported_labels() -> Vec<&'static str> {
    Detector::supported().iter().map(|k| k.label()).collect()
}

/// Streams one pcapng source through a detector per (capture run ×
/// scheme), printing per-run verdicts and whole-source throughput.
/// Detectors are created lazily on the first frame that passes the
/// vantage filter, so capture runs that never touched the requested
/// vantage point contribute no runs to the manifest.
fn ingest_source(
    name: &str,
    input: &mut dyn Read,
    opts: &IngestOptions,
) -> Result<(u64, u64), String> {
    let stem = Path::new(name)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| name.to_string());
    let started = Instant::now();
    let mut hb = Heartbeat::new(format!("ingest {stem}"));
    let mut stream = PcapngStream::new(input);
    // Each run keeps the label its trace section was opened under.
    let mut detectors: HashMap<(usize, usize), (String, Detector)> = HashMap::new();
    let mut filtered = 0u64;
    let mut pulled = 0u64;
    // Reused scratch so the per-frame copy out of the stream's block
    // buffer never allocates in steady state.
    let mut frame = Vec::new();
    let mut comment = String::new();
    loop {
        // The interval check is decimated to every HEARTBEAT_EVERY
        // packets so a million-packet stream never pays a clock read
        // per frame; a slow trickle still heartbeats at each batch.
        const HEARTBEAT_EVERY: u64 = 4096;
        if pulled.is_multiple_of(HEARTBEAT_EVERY) && pulled > 0 {
            let stats = stream.stats();
            hb.tick(|hb| {
                let wall_s = hb.elapsed().as_secs_f64().max(1e-9);
                format!(
                    "packets={} bytes={} packets_per_wall_s={:.0} mb_per_wall_s={:.1}",
                    stats.packets,
                    stats.bytes,
                    stats.packets as f64 / wall_s,
                    stats.bytes as f64 / wall_s / 1e6,
                )
            });
        }
        let next = {
            let _s = profile::span("ingest.read");
            stream.next_packet()
        };
        let (interface, ts_ns) = match next {
            Err(e) => return Err(format!("{name}: {e}")),
            Ok(None) => break,
            Ok(Some(pkt)) => {
                frame.clear();
                frame.extend_from_slice(pkt.bytes);
                comment.clear();
                comment.push_str(pkt.comment);
                (pkt.interface, pkt.ts_ns)
            }
        };
        pulled += 1;
        let FrameComment { src, dst, .. } = FrameComment::parse(&comment);
        // Only arpshield's own comments name a `dst=` endpoint. A foreign
        // capture's frames, uncommented or free-form, are all "what the
        // detector saw", whatever the vantage.
        let provenance = !dst.is_empty();
        if provenance && opts.vantage.as_ref().is_some_and(|v| !dst.contains(v.as_str())) {
            filtered += 1;
            continue;
        }
        let (src, dst) = if provenance { (src, dst) } else { ("wire", "detector") };
        let at = SimTime::from_nanos(ts_ns);
        for (index, kind) in opts.schemes.iter().enumerate() {
            let (_, detector) = detectors.entry((interface, index)).or_insert_with(|| {
                let label = stream
                    .interfaces()
                    .get(interface)
                    .filter(|l| !l.is_empty())
                    .cloned()
                    .unwrap_or_else(|| format!("if{interface}"));
                let tracer =
                    Tracer::for_current_run(format!("ingest={stem} detector={kind} run={label}"));
                let detector = Detector::with_tracer(*kind, tracer)
                    .expect("scheme support validated at argument parse");
                (label, detector)
            });
            detector.observe_from(at, &frame, src, dst);
        }
    }
    for warning in stream.warnings() {
        errln!("warning: {name}: {warning}");
        if let Some(collector) = arpshield_trace::current() {
            collector.warn(format!("{name}: {warning}"));
        }
    }
    let stats = stream.stats();
    let mut runs: Vec<_> = detectors.into_iter().collect();
    runs.sort_by_key(|((interface, scheme), _)| (*interface, *scheme));
    outln!(
        "== ingest: {name} ({} section(s), {} block(s), {} packet(s), {} unknown block(s)) ==",
        stats.sections,
        stats.blocks,
        stats.packets,
        stats.unknown_blocks
    );
    if filtered > 0 {
        let vantage = opts.vantage.as_deref().unwrap_or_default();
        outln!(
            "  vantage '{vantage}': {filtered} frame(s) recorded at other vantage points skipped"
        );
    }
    if stats.truncated_names > 0 {
        outln!("  {} interface name(s) cut to {MAX_INTERFACE_NAME} bytes", stats.truncated_names);
    }
    for (_, (label, detector)) in &mut runs {
        detector.finish();
        let ingest = detector.stats();
        let histogram = detector.verdict_histogram();
        let alerts: u64 = histogram.values().sum();
        let verdicts =
            histogram.iter().map(|(kind, n)| format!("{kind}={n}")).collect::<Vec<_>>().join(" ");
        outln!(
            "  run {label}  detector={}  frames={} arp={} vlan={} jumbo={} unparseable={} \
             denied={} probes={}  alerts={}{}",
            detector.kind(),
            ingest.frames,
            ingest.arp,
            ingest.vlan_tagged,
            ingest.jumbo,
            ingest.unparseable,
            ingest.denied,
            ingest.probes_emitted,
            alerts,
            if verdicts.is_empty() { String::new() } else { format!("  [{verdicts}]") },
        );
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    outln!(
        "  {} packet(s), {} byte(s) in {:.3}s: {:.0} frames/s, {:.1} MB/s\n",
        stats.packets,
        stats.bytes,
        elapsed,
        stats.packets as f64 / elapsed,
        stats.bytes as f64 / elapsed / 1e6,
    );
    hb.done(&format!(
        "packets={} bytes={} packets_per_wall_s={:.0}",
        stats.packets,
        stats.bytes,
        stats.packets as f64 / elapsed,
    ));
    // Dropping the detectors flushes their run sections into the
    // installed collector, making them visible to `manifest`.
    drop(runs);
    Ok((stats.packets, filtered))
}

/// Streams every source through the detectors under one `ingest`
/// trace (and, with `--capture`/`--profile`, capture and profile) run.
/// Every file opens before any is read, so a missing one writes
/// nothing; a capture that fails mid-stream stops the ingest, and the
/// manifests record what was read before it.
fn run_ingest(opts: &IngestOptions) -> Result<(), String> {
    let files = opts
        .sources
        .iter()
        .map(|source| fs::File::open(source).map_err(|e| format!("cannot open {source}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let out = Output {
        out_dir: opts.out_dir.clone(),
        trace: true,
        capture: opts.capture.then(capture_capacity),
        profile: opts.profile,
    };
    outln!(
        "arpshield capture ingest: scheme(s) [{}] as online detector(s)\n",
        opts.schemes.iter().map(|k| k.label()).collect::<Vec<_>>().join(", ")
    );
    let (packets, filtered) = out.traced("ingest", || {
        let (mut packets, mut filtered) = (0u64, 0u64);
        for (source, file) in opts.sources.iter().zip(files) {
            let (p, f) = ingest_source(source, &mut BufReader::new(file), opts)?;
            packets += p;
            filtered += f;
        }
        if opts.stdin {
            let (p, f) = ingest_source("stdin", &mut std::io::stdin().lock(), opts)?;
            packets += p;
            filtered += f;
        }
        Ok::<_, String>((packets, filtered))
    })?;
    outln!(
        "{} packet(s) ingested ({filtered} filtered by vantage); manifest: {}",
        packets,
        out.out_dir.join("trace").join("ingest.json").display(),
    );
    Ok(())
}

/// Host counts for the T6S scalability sweep on `fabric`.
/// `ARPSHIELD_T6S_HOSTS` (comma-separated) overrides the published
/// 1k–100k grid so CI can smoke the experiment at small sizes.
fn t6s_sizes(fabric: Fabric) -> Vec<usize> {
    let (sizes, warning) = t6s_sizes_from(&env_knob::knob("ARPSHIELD_T6S_HOSTS"), fabric);
    env_knob::report(warning);
    sizes
}

/// Parses a T6S host list, falling back to the published grid with a
/// warning when any count is one `fabric` cannot build.
fn t6s_sizes_from(knob: &EnvKnob, fabric: Fabric) -> (Vec<usize>, Option<String>) {
    let max = fabric.max_hosts();
    knob.parse_list_or(
        T6S_SIZES.to_vec(),
        &format!("a comma-separated list of host counts from 1 to {max}"),
        |n: &usize| (1..=max).contains(n),
    )
}

/// The value after flag `name`. A missing or empty value, or one that
/// starts with `-` (the next flag), is a usage error: no flag is ever
/// taken as a value, and no value is silently dropped.
fn flag_value<'a>(name: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<String, String> {
    match it.next() {
        Some(value) if !value.is_empty() && !value.starts_with('-') => Ok(value.clone()),
        _ => Err(format!("{name} needs a value")),
    }
}

/// Reports a malformed command line with its form's usage and exits 2.
fn usage_error(error: &str, usage: &str) -> ! {
    errln!("error: {error}\n{usage}");
    std::process::exit(2);
}

/// The flight-recorder ring capacity `--capture` arms, from
/// `ARPSHIELD_RECORD_FRAMES`.
fn capture_capacity() -> usize {
    let (capacity, warning) = arpshield_trace::ring_capacity_from_env();
    if let Some(w) = warning {
        errln!("warning: {w}");
    }
    capacity
}

/// Every experiment id the run form accepts.
const EXPERIMENT_IDS: [&str; 15] =
    ["t1", "t2", "t3", "t4", "t5", "t5r", "t6", "t6s", "t6sd", "f1", "f2", "f3", "f4", "f5", "f6"];

const RUN_USAGE: &str =
    "usage: reproduce [--out DIR] [--trace] [--capture] [--profile] [--defend] [ID...]";

/// The run form's command line.
#[derive(Debug, Default, PartialEq)]
struct RunArgs {
    out_dir: PathBuf,
    trace: bool,
    capture: bool,
    profile: bool,
    defend: bool,
    /// Lower-cased experiment ids; none selects every default one.
    ids: Vec<String>,
}

/// Parses the run form. An unknown id or flag, or an `--out` without a
/// directory, is a usage error, not a silent empty, unprofiled or
/// misdirected run.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs { out_dir: PathBuf::from("results"), ..RunArgs::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => run.out_dir = flag_value(arg, &mut it)?.into(),
            "--trace" => run.trace = true,
            "--capture" => run.capture = true,
            "--profile" => run.profile = true,
            "--defend" => run.defend = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id => {
                let id = id.to_lowercase();
                if !EXPERIMENT_IDS.contains(&id.as_str()) {
                    return Err(format!("unknown experiment id {arg:?}"));
                }
                run.ids.push(id);
            }
        }
    }
    Ok(run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("validate-trace") {
        if args.len() < 2 {
            errln!("usage: reproduce validate-trace FILE_OR_DIR...");
            std::process::exit(2);
        }
        std::process::exit(run_validate_trace(&args[1..]));
    }

    if args.first().map(String::as_str) == Some("inspect") {
        let (path, filter) =
            parse_inspect_args(&args[1..]).unwrap_or_else(|e| usage_error(&e, INSPECT_USAGE));
        if let Err(e) = run_inspect(&path, &filter) {
            errln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }

    if args.first().map(String::as_str) == Some("ingest") {
        let opts = parse_ingest_args(&args[1..]).unwrap_or_else(|e| usage_error(&e, INGEST_USAGE));
        if let Err(e) = run_ingest(&opts) {
            errln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }

    if args.first().map(String::as_str) == Some("profile-report") {
        let Some(path) = args.get(1) else {
            errln!("usage: reproduce profile-report FILE");
            std::process::exit(2);
        };
        match run_profile_report(path) {
            Ok(()) => return,
            Err(e) => {
                errln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let run = parse_run_args(&args).unwrap_or_else(|e| usage_error(&e, RUN_USAGE));
    let capture = run.capture.then(capture_capacity);
    fs::create_dir_all(&run.out_dir).ok();
    let out = Output {
        out_dir: run.out_dir,
        trace: run.trace || run.capture,
        capture,
        profile: run.profile,
    };
    let (selected, defend) = (run.ids, run.defend);
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    outln!("arpshield reproduction harness (seed {SEED})");
    outln!(
        "every experiment is deterministic; CSVs land in {}/; \
         independent runs fan out over {} worker thread(s) \
         (ARPSHIELD_THREADS overrides; output is identical at any count)\n",
        out.out_dir.display(),
        arpshield_core::parallel::thread_count(),
    );
    let started = Instant::now();

    if want("t1") {
        out.table("t1", taxonomy::table);
    }
    if want("t2") {
        out.table("t2", || t2_susceptibility(SEED));
    }
    if want("t3") {
        out.table("t3", || t3_coverage(SEED));
    }
    if want("t4") {
        out.table("t4", || t4_false_positives(SEED));
    }
    if want("t5") {
        out.table("t5", || t5_cost(SEED));
    }
    if want("t5r") {
        out.table("t5r", || t5_resilience(SEED));
    }
    if want("t6") {
        out.table("t6", || t6_dos_coverage(SEED));
    }
    if want("t6s") {
        out.series("t6s", || t6_scale(SEED, &t6s_sizes(Fabric::Flat)));
    }
    // The defended scale sweep rides behind `t6s --defend` (or its own
    // `t6sd` id) so the default full run — and its committed CSVs —
    // keep the published undefended shape.
    if selected.iter().any(|s| s == "t6sd") || (want("t6s") && defend) {
        out.series("t6sd", || t6_scale_defended(SEED, &t6s_sizes(Fabric::Vlan { defend: true })));
    }
    if want("f1") {
        out.series("f1", || f1_detection_latency(SEED, 30));
    }
    if want("f2") {
        out.series("f2", || f2_overhead(SEED, &[5, 10, 20, 40, 80]));
    }
    if want("f3") {
        out.table("f3", || f3_resolution_latency(SEED));
    }
    if want("f4") {
        out.table("f4", || f4_poisoned_time(SEED));
    }
    if want("f5") {
        out.series("f5", || f5_passive_scale(SEED, &[5, 10, 20, 40, 80]));
    }
    if want("f6") {
        out.series("f6a", || f6_flood_dynamics(SEED));
        out.series("f6b", || vec![f6_starvation_dynamics(SEED)]);
    }

    outln!("done in {:.1}s", started.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host count the fabric cannot build (which used to panic deep
    /// in `scale::build`) falls back to the published grid with a
    /// warning; counts up to the fabric's limit pass through.
    #[test]
    fn t6s_sizes_reject_counts_the_fabric_cannot_build() {
        const VAR: &str = "ARPSHIELD_TEST_T6S_HOSTS";
        let parse = |raw: &str, fabric| {
            std::env::set_var(VAR, raw);
            t6s_sizes_from(&env_knob::knob(VAR), fabric)
        };
        let (flat, vlan) = (Fabric::Flat, Fabric::Vlan { defend: true });
        assert_eq!(parse("300, 900", vlan), (vec![300, 900], None));
        let limits = [(flat, flat.max_hosts()), (vlan, vlan.max_hosts())];
        for (fabric, max) in limits {
            assert_eq!(parse(&max.to_string(), fabric), (vec![max], None));
        }
        let rejected = [
            (flat, "70000000".to_string()),
            (flat, "1000,0".to_string()),
            (vlan, format!("1000,{}", vlan.max_hosts() + 1)),
        ];
        for (fabric, raw) in rejected {
            let (sizes, warning) = parse(&raw, fabric);
            assert_eq!(sizes, T6S_SIZES, "{raw}");
            let warning = warning.expect("a rejected list warns");
            assert!(warning.contains(&raw), "{warning}");
            assert!(warning.contains(&fabric.max_hosts().to_string()), "{warning}");
        }
        std::env::remove_var(VAR);
    }

    fn strings(line: &[&str]) -> Vec<String> {
        line.iter().map(|a| a.to_string()).collect()
    }

    fn run_args(line: &[&str]) -> Result<RunArgs, String> {
        parse_run_args(&strings(line))
    }

    /// Unknown ids and flags and a valueless `--out` are usage errors;
    /// known ones parse in any order and case.
    #[test]
    fn run_args_reject_unknown_ids_flags_and_a_bare_out() {
        let run =
            run_args(&["--out", "D", "T3", "--trace", "t6s", "--defend", "--capture", "--profile"]);
        let want = RunArgs {
            out_dir: "D".into(),
            trace: true,
            capture: true,
            profile: true,
            defend: true,
            ids: vec!["t3".into(), "t6s".into()],
        };
        assert_eq!(run, Ok(want));
        assert_eq!(run_args(&[]).map(|r| r.out_dir), Ok(PathBuf::from("results")));
        for bad in [
            &["t7"][..],
            &["--profiel", "t1"],
            &["t1", "--out"],
            &["--out", "--trace", "t1"],
            &["--out", "", "t1"],
            &["t1", "-x"],
            &["--out=D", "t1"],
        ] {
            assert!(run_args(bad).is_err(), "{bad:?}");
        }
    }

    /// `ingest` and `inspect` take flag values the way the run form
    /// does: a missing or empty value, or one that is the next flag, is
    /// a usage error, and an unknown flag is never taken as a capture.
    #[test]
    fn ingest_and_inspect_reject_missing_values_and_unknown_flags() {
        let line = ["C", "--out", "D", "--capture", "--scheme", "passive", "--vantage", "mon"];
        let opts = parse_ingest_args(&strings(&line)).expect("a well-formed line");
        assert_eq!(opts.sources, ["C"]);
        assert_eq!(opts.out_dir, PathBuf::from("D"));
        assert!(opts.capture && !opts.profile);
        assert_eq!(opts.schemes, [SchemeKind::Passive]);
        assert_eq!(opts.vantage.as_deref(), Some("mon"));
        for bad in [
            &["C", "--out", "--capture"][..],
            &["C", "--out"],
            &["C", "--vantage", ""],
            &["--scheme", "-x", "C"],
            &["--scheme", "nonesuch", "C"],
            &["--hots", "C"],
            &["C", "-"],
            &[],
        ] {
            assert!(parse_ingest_args(&strings(bad)).is_err(), "ingest {bad:?}");
        }
        let line = ["C", "--host", "h1", "--mac", "02:00", "--verdict", "spoof"];
        let (path, filter) = parse_inspect_args(&strings(&line)).expect("a well-formed line");
        assert_eq!(path, "C");
        assert_eq!(filter.host.as_deref(), Some("h1"));
        assert_eq!(filter.mac.as_deref(), Some("02:00"));
        assert_eq!(filter.verdict.as_deref(), Some("spoof"));
        for bad in [
            &["--hots", "C"][..],
            &["C", "--host"],
            &["C", "--mac", "--verdict", "spoof"],
            &["C", "--verdict", ""],
            &["C", "D"],
            &[],
        ] {
            assert!(parse_inspect_args(&strings(bad)).is_err(), "inspect {bad:?}");
        }
    }

    /// Random argument lists over a vocabulary of good and bad tokens
    /// never panic, and parse exactly when every token is a known id or
    /// flag and every `--out` is followed by a directory.
    #[test]
    fn run_args_survive_garbage_lists() {
        let vocabulary = [
            "t1",
            "T5R",
            "f6",
            "t6sd",
            "t7",
            "t1 t2",
            "dir",
            "é",
            "\u{0}",
            "",
            "--out",
            "--trace",
            "--defend",
            "--profiel",
            "--out=x",
            "-",
            "--",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for _ in 0..5000 {
            let line: Vec<&str> =
                (0..next(6)).map(|_| vocabulary[next(vocabulary.len())]).collect();
            let mut valid = true;
            let mut tokens = line.iter();
            while let Some(&token) = tokens.next() {
                valid &= match token {
                    "--out" => tokens.next().is_some_and(|d| !d.is_empty() && !d.starts_with('-')),
                    "--trace" | "--defend" => true,
                    id => EXPERIMENT_IDS.contains(&id.to_lowercase().as_str()),
                };
            }
            assert_eq!(run_args(&line).is_ok(), valid, "{line:?}");
        }
    }

    /// Only a comment that names a `dst=` endpoint is arpshield
    /// provenance. `--vantage` keeps every frame of a foreign capture,
    /// free-form comments included, and still skips arpshield frames
    /// recorded at another device. With or without `--vantage`, a
    /// foreign frame is re-captured as wire→detector and an arpshield
    /// frame keeps its recorded endpoints.
    #[test]
    fn vantage_skips_only_frames_recorded_at_other_devices() {
        use arpshield_netsim::eth_frame;
        use arpshield_packet::{Ipv4Addr, MacAddr};
        use arpshield_trace::pcapng::PcapngWriter;
        use arpshield_trace::{install, TraceCollector};

        // Two replies claiming 10.0.0.1 from different stations.
        let capture = |comment: &str| {
            let mut writer = PcapngWriter::new("foreign");
            let interface = writer.add_interface("office");
            for (at_ms, station) in [(1, 1), (2, 66)] {
                let mac = MacAddr::from_index(station);
                let arp = ArpPacket::gratuitous(ArpOp::Reply, mac, Ipv4Addr::new(10, 0, 0, 1));
                let frame = eth_frame(MacAddr::BROADCAST, mac, EtherType::ARP, &arp);
                writer.add_packet(interface, at_ms * 1_000_000, &frame, comment);
            }
            writer.finish()
        };
        let plain = ["--stdin", "--scheme", "passive"];
        let vantage = ["--stdin", "--scheme", "passive", "--vantage", "passive-monitor"];
        let plain = parse_ingest_args(&strings(&plain)).expect("a well-formed line");
        let vantage = parse_ingest_args(&strings(&vantage)).expect("a well-formed line");
        for (comment, endpoints, skipped) in [
            ("", "src=wire dst=detector", 0),
            ("captured on office switch", "src=wire dst=detector", 0),
            (
                "id=1 kind=deliver src=mirror:0 dst=passive-monitor:0",
                "src=mirror:0 dst=passive-monitor:0",
                0,
            ),
            ("id=1 kind=deliver src=h0:0 dst=sw:1", "src=h0:0 dst=sw:1", 2),
        ] {
            for (opts, skipped) in [(&plain, 0), (&vantage, skipped)] {
                let collector = Arc::new(TraceCollector::with_capture(16));
                let bytes = capture(comment);
                let counts = {
                    let _guard = install(collector.clone());
                    ingest_source("office.pcapng", &mut bytes.as_slice(), opts)
                };
                let context = format!("comment {comment:?}, vantage {:?}", opts.vantage);
                assert_eq!(counts, Ok((2, skipped)), "{context}");
                let recaptured = collector.manifest("ingest").to_pcapng();
                let mut stream = PcapngStream::new(recaptured.as_slice());
                let mut frames = 0;
                while let Some(pkt) = stream.next_packet().expect("own captures must stream") {
                    let wanted = format!(" {endpoints}");
                    assert!(pkt.comment.contains(&wanted), "{context}: {:?}", pkt.comment);
                    frames += 1;
                }
                assert_eq!(frames, 2 - skipped, "{context}");
            }
        }
    }
}
