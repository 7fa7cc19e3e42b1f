//! Per-run recording: the [`Tracer`] handle the instrumented crates
//! hold and the [`RunRecorder`] it writes into.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use crate::collect::{self, RunSection, TraceCollector};
use crate::hist::Histogram;
use crate::json::quote;
use crate::recorder::{FrameKind, FrameRecorder};

/// One structured trace event, stamped with simulated nanoseconds
/// (never wall clock).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Simulation time of the event, in nanoseconds since run start.
    pub at_ns: u64,
    /// Stable dotted event name, e.g. `switch.cam.moved`.
    pub category: &'static str,
    /// The entity the event happened at (device name, scheme name).
    pub actor: String,
    /// Human-readable evidence: what was observed and why it mattered.
    pub detail: String,
    /// Capture frame ids this event cites: the frame whose dispatch
    /// produced it, plus any explicit evidence frames. Empty unless a
    /// capture is active.
    pub frames: Vec<u64>,
}

/// Hard cap on stored events per run. Runs past the cap keep counting
/// (the `events_truncated` field of the section) but stop storing,
/// bounding manifest size for event-heavy grids while staying fully
/// deterministic.
pub const MAX_EVENTS_PER_RUN: usize = 4096;

/// Accumulates one run's events, counters, and histograms. Created via
/// [`Tracer::for_current_run`]; when the last [`Tracer`] clone goes
/// away it serializes itself and flushes into the [`TraceCollector`]
/// it was born under.
#[derive(Debug)]
pub struct RunRecorder {
    label: String,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: Vec<Event>,
    events_truncated: u64,
    /// The flight recorder, present only when the collector was built
    /// with [`TraceCollector::with_capture`].
    frames: Option<FrameRecorder>,
    /// The frame currently being dispatched by the simulator; events
    /// recorded while it is set cite it automatically.
    current_frame: Option<u64>,
    collector: Arc<TraceCollector>,
}

impl RunRecorder {
    fn new(label: String, collector: Arc<TraceCollector>) -> Self {
        RunRecorder {
            label,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: Vec::new(),
            events_truncated: 0,
            frames: collector.capture_capacity().map(FrameRecorder::new),
            current_frame: None,
            collector,
        }
    }

    fn push_event(&mut self, event: Event) {
        if self.events.len() < MAX_EVENTS_PER_RUN {
            self.events.push(event);
        } else {
            self.events_truncated += 1;
        }
    }

    /// Serializes the run to its single-line JSON section body.
    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"label\":");
        out.push_str(&quote(&self.label));
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", quote(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"bins\":[",
                quote(name),
                hist.count(),
                hist.sum(),
                hist.min().unwrap_or(0),
                hist.max().unwrap_or(0),
                hist.quantile_estimate(0.50).unwrap_or(0),
                hist.quantile_estimate(0.90).unwrap_or(0),
                hist.quantile_estimate(0.99).unwrap_or(0),
            );
            for (j, (bucket, count)) in hist.nonzero_bins().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bucket},{count}]");
            }
            out.push_str("]}");
        }
        let _ = write!(out, "}},\"events_truncated\":{},\"events\":[", self.events_truncated);
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_ns\":{},\"category\":{},\"actor\":{},\"detail\":{}",
                ev.at_ns,
                quote(ev.category),
                quote(&ev.actor),
                quote(&ev.detail),
            );
            // Emitted only when present, so manifests without an
            // active capture stay byte-identical to older ones.
            if !ev.frames.is_empty() {
                out.push_str(",\"frames\":[");
                for (k, id) in ev.frames.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{id}");
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push(']');
        // Present only under capture, so trace-only manifests stay
        // byte-identical to older ones.
        if let Some(frames) = &self.frames {
            let _ = write!(out, ",\"frames_evicted\":{}", frames.evicted());
        }
        out.push('}');
        out
    }
}

impl Drop for RunRecorder {
    fn drop(&mut self) {
        // Serialize before moving the structured fields out: the body
        // is part of the section's deterministic sort key.
        let body = self.to_json();
        let section = RunSection {
            label: self.label.clone(),
            counters: self.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            frames: self.frames.take().map(FrameRecorder::into_frames).unwrap_or_default(),
            body,
        };
        self.collector.push_section(section);
    }
}

/// The handle instrumented code records through. Cloning is cheap
/// (an `Option<Rc>`); all clones of one tracer feed the same
/// [`RunRecorder`]. A disabled tracer (the default) makes every
/// record call a single `None` branch — no allocation, no formatting.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<RunRecorder>>>,
}

impl Tracer {
    /// The no-op tracer.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Opens a recorder for a new run under the collector currently
    /// installed on this thread ([`crate::install`]). Returns a
    /// disabled tracer when none is installed — which is how tracing
    /// stays opt-in end to end.
    pub fn for_current_run(label: impl Into<String>) -> Self {
        match collect::current() {
            Some(collector) => Tracer {
                inner: Some(Rc::new(RefCell::new(RunRecorder::new(label.into(), collector)))),
            },
            None => Tracer { inner: None },
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends ` key=value` to the run label (used to tag a run with
    /// context discovered after the tracer was created, e.g. the
    /// attack variant).
    pub fn annotate(&self, key: &str, value: &str) {
        if let Some(inner) = &self.inner {
            let mut rec = inner.borrow_mut();
            let _ = write!(rec.label, " {key}={value}");
        }
    }

    // The record methods below split into an `#[inline(always)]`
    // enabled-check and an `#[inline(never)]` recording body. The hint
    // alone is not enough: LLVM keeps the whole method out-of-line at
    // some call sites, and a real call in the switch's per-frame path
    // shows up in the fabric workloads' `netsim.ns_per_event`. Forcing
    // the split keeps the disabled path at exactly one predictable
    // branch.

    /// Adds `n` to the named counter.
    #[inline(always)]
    pub fn count(&self, name: &'static str, n: u64) {
        if self.inner.is_some() {
            self.count_impl(name, n);
        }
    }

    #[inline(never)]
    fn count_impl(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            *inner.borrow_mut().counters.entry(name).or_insert(0) += n;
        }
    }

    /// Records one sample into the named histogram.
    #[inline(always)]
    pub fn observe(&self, name: &'static str, value: u64) {
        if self.inner.is_some() {
            self.observe_impl(name, value);
        }
    }

    #[inline(never)]
    fn observe_impl(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().histograms.entry(name).or_default().record(value);
        }
    }

    /// Records a structured event. The `(actor, detail)` pair is built
    /// by the closure only when tracing is enabled, so the disabled
    /// path never formats or allocates.
    #[inline(always)]
    pub fn event(
        &self,
        at_ns: u64,
        category: &'static str,
        make: impl FnOnce() -> (String, String),
    ) {
        if self.inner.is_some() {
            self.event_impl(at_ns, category, make());
        }
    }

    #[inline(never)]
    fn event_impl(&self, at_ns: u64, category: &'static str, (actor, detail): (String, String)) {
        if let Some(inner) = &self.inner {
            let mut rec = inner.borrow_mut();
            let frames = rec.current_frame.into_iter().collect();
            rec.push_event(Event { at_ns, category, actor, detail, frames });
        }
    }

    /// Like [`event`](Tracer::event), but with an explicit list of
    /// capture frame ids the event cites (the closure builds
    /// `(actor, detail, frames)`); the current frame is *not* attached
    /// implicitly, so callers control the citation order. Used by the
    /// wire-drop and scheme-verdict paths.
    #[inline(always)]
    pub fn event_frames(
        &self,
        at_ns: u64,
        category: &'static str,
        make: impl FnOnce() -> (String, String, Vec<u64>),
    ) {
        if self.inner.is_some() {
            self.event_frames_impl(at_ns, category, make());
        }
    }

    #[inline(never)]
    fn event_frames_impl(
        &self,
        at_ns: u64,
        category: &'static str,
        (actor, detail, frames): (String, String, Vec<u64>),
    ) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().push_event(Event { at_ns, category, actor, detail, frames });
        }
    }

    /// Records one wire frame into the run's flight recorder and
    /// returns its capture id. The `(src, dst)` endpoint strings are
    /// built by the closure — and the octets copied — only when a
    /// capture is actually active; with tracing on but capture off
    /// this still costs nothing beyond the borrow, and returns `None`.
    #[inline(always)]
    pub fn record_frame(
        &self,
        at_ns: u64,
        kind: FrameKind,
        bytes: &[u8],
        make: impl FnOnce() -> (String, String),
    ) -> Option<u64> {
        if self.inner.is_some() {
            self.record_frame_impl(at_ns, kind, bytes, make)
        } else {
            None
        }
    }

    #[inline(never)]
    fn record_frame_impl(
        &self,
        at_ns: u64,
        kind: FrameKind,
        bytes: &[u8],
        make: impl FnOnce() -> (String, String),
    ) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut rec = inner.borrow_mut();
        let recorder = rec.frames.as_mut()?;
        let (src, dst) = make();
        Some(recorder.record(at_ns, kind, src, dst, bytes))
    }

    /// Sets (or clears) the frame the simulator is currently
    /// dispatching. While set, every plain [`event`](Tracer::event)
    /// cites it — which is how CAM updates, cache writes, and scheme
    /// verdicts acquire provenance without any call-site changes.
    #[inline(always)]
    pub fn set_current_frame(&self, frame: Option<u64>) {
        if self.inner.is_some() {
            self.set_current_frame_impl(frame);
        }
    }

    #[inline(never)]
    fn set_current_frame_impl(&self, frame: Option<u64>) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().current_frame = frame;
        }
    }

    /// The capture id of the frame currently being dispatched, if any.
    pub fn current_frame(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|inner| inner.borrow().current_frame)
    }

    /// Pins capture frame `id` so it survives ring eviction. A no-op
    /// without an active capture.
    pub fn pin_frame(&self, id: u64) {
        if let Some(inner) = &self.inner {
            if let Some(recorder) = inner.borrow_mut().frames.as_mut() {
                recorder.pin(id);
            }
        }
    }

    /// Pins the frame currently being dispatched and returns its id —
    /// the one-liner for "this frame just became evidence".
    #[inline(always)]
    pub fn pin_current(&self) -> Option<u64> {
        if self.inner.is_some() {
            self.pin_current_impl()
        } else {
            None
        }
    }

    #[inline(never)]
    fn pin_current_impl(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut rec = inner.borrow_mut();
        let id = rec.current_frame?;
        if let Some(recorder) = rec.frames.as_mut() {
            recorder.pin(id);
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{install, TraceCollector};

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.count("x", 1);
        t.observe("y", 2);
        t.event(3, "cat", || panic!("must not be called when disabled"));
    }

    #[test]
    fn run_flushes_on_last_drop() {
        let collector = Arc::new(TraceCollector::new());
        let _guard = install(Arc::clone(&collector));
        let t = Tracer::for_current_run("run-a");
        assert!(t.is_enabled());
        let t2 = t.clone();
        t.count("switch.learn.new", 2);
        t2.observe("latency_ns", 1500);
        t2.event(42, "switch.cam.moved", || ("sw0".into(), "mac moved p1->p2".into()));
        t.annotate("attack", "poison");
        assert!(collector.is_empty(), "flush happens only after the last clone drops");
        drop(t);
        drop(t2);
        let manifest = collector.manifest("unit");
        assert_eq!(manifest.runs.len(), 1);
        assert_eq!(manifest.runs[0].label, "run-a attack=poison");
        assert_eq!(manifest.runs[0].counters.get("switch.learn.new"), Some(&2));
        assert!(manifest.runs[0].body.contains("\"at_ns\":42"));
        assert!(manifest.runs[0].body.contains("mac moved p1->p2"));
    }

    #[test]
    fn event_cap_counts_overflow() {
        let collector = Arc::new(TraceCollector::new());
        let _guard = install(Arc::clone(&collector));
        let t = Tracer::for_current_run("capped");
        for i in 0..(MAX_EVENTS_PER_RUN as u64 + 5) {
            t.event(i, "spam", || (String::new(), String::new()));
        }
        drop(t);
        let manifest = collector.manifest("unit");
        assert!(manifest.runs[0].body.contains("\"events_truncated\":5"));
    }
}
