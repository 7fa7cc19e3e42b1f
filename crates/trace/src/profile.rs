//! Span-scoped wall-clock self-profiler.
//!
//! Unlike everything else in this crate, the profiler measures **wall
//! clock** — where the host CPU's cycles went, not where simulated time
//! went. Its output is therefore quarantined the same way the scale
//! experiments quarantine their timing: profile data only ever reaches
//! the `wall` section of the experiment's manifest
//! (`results/trace/<id>.json`) and stderr, never a deterministic CSV
//! or another manifest byte.
//!
//! ## Model
//!
//! Instrumented code brackets a region with [`span`]:
//!
//! ```
//! let _s = arpshield_trace::profile::span("switch.forward");
//! // ... work ...
//! // guard drop closes the span
//! ```
//!
//! Each thread keeps a stack of open spans and a calling-context tree:
//! the same label reached through different parents is a distinct node,
//! so the `wall` section of `results/trace/t6s.json` distinguishes
//! `pool.acquire` under `packet.encode` from `pool.acquire` under
//! `sim.deliver`. Every node accumulates a call count, *total* time
//! (span enter → exit) and *child* time (total of directly nested
//! spans); **self** time is their difference, and summing self over
//! all nodes reproduces the total of the root spans — which is what
//! lets CI assert that the instrumentation accounts for ≥90% of a
//! run's measured wall time.
//!
//! [`gauge`] records point-in-time samples (wheel occupancy, pool hit
//! counts, CAM size, recorder ring fill) into [`Histogram`]s, whose
//! merge is order-free, so merged gauges are independent of thread
//! interleaving.
//!
//! ## Collection
//!
//! A [`ProfileCollector`] is [`install`]ed per thread (mirroring
//! [`TraceCollector`](crate::TraceCollector)); worker pools re-install
//! the submitting thread's collector so per-worker trees merge into one
//! report. Flushing keys nodes by their slash-joined path and adds
//! counters per key — an associative, commutative merge, so the merged
//! profile is a set union regardless of scheduling (the *times* vary
//! run to run, of course; only the shape and counts are stable).
//!
//! ## Disabled-path cost
//!
//! [`span`] and [`gauge`] follow the [`Tracer`](crate::Tracer) pattern:
//! an `#[inline(always)]` wrapper checks one relaxed atomic load of the
//! global active-install count and bails; the recording body is
//! `#[inline(never)]` so the hot path inlines to a single predictable
//! branch. No collector installed — as in every legacy run — means no
//! clock read, no TLS access, no allocation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;

/// Count of live [`install`] guards across all threads. Zero means
/// profiling is off everywhere and [`span`]/[`gauge`] cost one branch.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

const NO_PARENT: u32 = u32::MAX;

thread_local! {
    /// Stack of per-thread profiles; [`span`] records into the top.
    static THREAD: RefCell<Vec<ThreadProfile>> = const { RefCell::new(Vec::new()) };
}

/// One thread's calling-context tree plus its open-span stack.
struct ThreadProfile {
    collector: Arc<ProfileCollector>,
    nodes: Vec<Node>,
    /// Indices into `nodes`; the top is the innermost open span.
    stack: Vec<u32>,
    gauges: BTreeMap<&'static str, Histogram>,
}

struct Node {
    name: &'static str,
    parent: u32,
    children: Vec<u32>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

impl ThreadProfile {
    fn new(collector: Arc<ProfileCollector>) -> Self {
        ThreadProfile { collector, nodes: Vec::new(), stack: Vec::new(), gauges: BTreeMap::new() }
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        // Root spans are rare (job-level), so the linear scan over all
        // nodes for the parentless case never runs hot.
        let found = match parent {
            NO_PARENT => (0..self.nodes.len() as u32).find(|&i| {
                let n = &self.nodes[i as usize];
                n.parent == NO_PARENT && n.name == name
            }),
            p => self.nodes[p as usize]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c as usize].name == name),
        };
        let idx = match found {
            Some(idx) => idx,
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node {
                    name,
                    parent,
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                    child_ns: 0,
                });
                if parent != NO_PARENT {
                    self.nodes[parent as usize].children.push(idx);
                }
                idx
            }
        };
        self.stack.push(idx);
    }

    fn exit(&mut self, elapsed_ns: u64) {
        let Some(idx) = self.stack.pop() else { return };
        let node = &mut self.nodes[idx as usize];
        node.count += 1;
        node.total_ns += elapsed_ns;
        let parent = node.parent;
        if parent != NO_PARENT {
            self.nodes[parent as usize].child_ns += elapsed_ns;
        }
    }

    /// Converts the tree into path-keyed stats and merges them into the
    /// owning collector. Open spans (enter without exit) contribute
    /// their node with whatever completed iterations accumulated.
    fn flush(self) {
        let mut data = ProfileData::default();
        // Nodes are created parents-first, so one forward pass can
        // build every path.
        let mut paths: Vec<String> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let path = match node.parent {
                NO_PARENT => node.name.to_string(),
                p => format!("{}/{}", paths[p as usize], node.name),
            };
            paths.push(path);
        }
        for (node, path) in self.nodes.iter().zip(paths) {
            let entry = data.spans.entry(path).or_default();
            entry.count += node.count;
            entry.total_ns += node.total_ns;
            entry.child_ns += node.child_ns;
        }
        data.gauges = self.gauges.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        self.collector.absorb(data);
    }
}

/// RAII guard closing a profiling span on drop. Returned by [`span`];
/// deliberately `!Send` — a span must close on the thread that opened
/// it.
pub struct SpanGuard {
    /// `None` when profiling was off at construction: drop is one branch.
    start: Option<Instant>,
    _not_send: PhantomData<Rc<()>>,
}

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            exit_impl(start);
        }
    }
}

/// Opens a wall-clock span named `name`, closed when the returned guard
/// drops. With no profiler installed anywhere this is one branch.
#[inline(always)]
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return SpanGuard { start: None, _not_send: PhantomData };
    }
    enter_impl(name)
}

#[inline(never)]
fn enter_impl(name: &'static str) -> SpanGuard {
    THREAD.with(|t| {
        let mut stack = t.borrow_mut();
        match stack.last_mut() {
            // Another thread's profiler tripped the global check, but
            // this thread has none installed: stay inert.
            None => SpanGuard { start: None, _not_send: PhantomData },
            Some(profile) => {
                profile.enter(name);
                // Read the clock *after* bookkeeping so tree maintenance
                // is excluded from the span's own time.
                SpanGuard { start: Some(Instant::now()), _not_send: PhantomData }
            }
        }
    })
}

#[inline(never)]
fn exit_impl(start: Instant) {
    let elapsed = start.elapsed().as_nanos() as u64;
    THREAD.with(|t| {
        if let Some(profile) = t.borrow_mut().last_mut() {
            profile.exit(elapsed);
        }
    });
}

/// Records one point-in-time sample of gauge `name`. With no profiler
/// installed anywhere this is one branch.
#[inline(always)]
pub fn gauge(name: &'static str, value: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    gauge_impl(name, value);
}

#[inline(never)]
fn gauge_impl(name: &'static str, value: u64) {
    THREAD.with(|t| {
        if let Some(profile) = t.borrow_mut().last_mut() {
            profile.gauges.entry(name).or_default().record(value);
        }
    });
}

/// The collector installed on the current thread, if any. Worker pools
/// capture this on the submitting thread and [`install`] it inside
/// each worker, mirroring [`crate::current`] for tracing.
pub fn current() -> Option<Arc<ProfileCollector>> {
    THREAD.with(|t| t.borrow().last().map(|p| p.collector.clone()))
}

/// Installs `collector` as the current thread's profile sink until the
/// returned guard drops (which flushes this thread's tree into it).
/// Installs nest; spans always record into the innermost.
#[must_use = "profiling deactivates (and the thread tree flushes) when the guard drops"]
pub fn install(collector: Arc<ProfileCollector>) -> ProfileGuard {
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    THREAD.with(|t| t.borrow_mut().push(ThreadProfile::new(collector)));
    ProfileGuard { _not_send: PhantomData }
}

/// Uninstalls (and flushes) the matching [`install`] on drop.
pub struct ProfileGuard {
    _not_send: PhantomData<Rc<()>>,
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
        if let Some(profile) = THREAD.with(|t| t.borrow_mut().pop()) {
            profile.flush();
        }
    }
}

/// Accumulated statistics for one span path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed enter/exit pairs.
    pub count: u64,
    /// Wall nanoseconds between enter and exit, summed over calls.
    pub total_ns: u64,
    /// Wall nanoseconds spent in directly nested spans.
    pub child_ns: u64,
}

impl SpanStats {
    /// Time attributed to this span alone: total minus nested child
    /// time (saturating — clock jitter can make children sum slightly
    /// past the parent).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A merged profile: span stats keyed by slash-joined calling-context
/// path, plus gauge samples keyed by gauge name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProfileData {
    /// Span statistics keyed by path (`"t6s.job/sim.run/sim.deliver"`).
    pub spans: BTreeMap<String, SpanStats>,
    /// Gauge samples keyed by name.
    pub gauges: BTreeMap<String, Histogram>,
}

impl ProfileData {
    /// Merges `other` in by per-key addition (and per-bin gauge
    /// histogram merges). Associative and commutative, so any flush order —
    /// i.e. any worker scheduling — produces the same merged data for
    /// the same set of per-thread trees.
    pub fn merge(&mut self, other: &ProfileData) {
        for (path, stats) in &other.spans {
            let entry = self.spans.entry(path.clone()).or_default();
            entry.count += stats.count;
            entry.total_ns += stats.total_ns;
            entry.child_ns += stats.child_ns;
        }
        for (name, stats) in &other.gauges {
            self.gauges.entry(name.clone()).or_default().merge(stats);
        }
    }

    /// Sum of self time over all span paths — the profiler's coverage
    /// of the run (compare against independently measured wall time).
    pub fn self_total_ns(&self) -> u64 {
        self.spans.values().map(SpanStats::self_ns).sum()
    }
}

/// The shared sink per-thread profiles flush into.
#[derive(Debug, Default)]
pub struct ProfileCollector {
    merged: Mutex<ProfileData>,
}

impl ProfileCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        ProfileCollector::default()
    }

    /// Merges one flushed per-thread profile in.
    pub fn absorb(&self, data: ProfileData) {
        self.merged.lock().expect("profile merge poisoned").merge(&data);
    }

    /// A copy of everything merged so far.
    pub fn snapshot(&self) -> ProfileData {
        self.merged.lock().expect("profile merge poisoned").clone()
    }

    /// Freezes the merged data into a report. `wall_ns` is the
    /// caller's independent wall-clock measurement of the profiled
    /// region (span self-times should sum close to it).
    pub fn report(&self, wall_ns: u64) -> ProfileReport {
        ProfileReport { wall_ns, data: self.snapshot() }
    }
}

/// One experiment's profile: the `wall` section of its
/// [`RunManifest`](crate::RunManifest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Independently measured wall time of the profiled region.
    pub wall_ns: u64,
    /// The merged span/gauge data.
    pub data: ProfileData,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn spans_without_install_are_inert() {
        let _a = span("never.recorded");
        gauge("never.sampled", 1);
        // Nothing to assert beyond "does not panic / leak state": an
        // install after the fact must observe an empty tree.
        let collector = Arc::new(ProfileCollector::new());
        {
            let _g = install(collector.clone());
        }
        assert!(collector.snapshot().spans.is_empty());
    }

    #[test]
    fn nesting_builds_calling_context_paths() {
        let collector = Arc::new(ProfileCollector::new());
        {
            let _g = install(collector.clone());
            for _ in 0..3 {
                let _outer = span("outer");
                spin(40_000);
                {
                    let _inner = span("inner");
                    spin(40_000);
                }
            }
            // The same label under a different parent is a different path.
            let _other = span("other");
            let _inner = span("inner");
        }
        let data = collector.snapshot();
        let paths: Vec<&str> = data.spans.keys().map(String::as_str).collect();
        assert_eq!(paths, vec!["other", "other/inner", "outer", "outer/inner"]);
        let outer = &data.spans["outer"];
        let inner = &data.spans["outer/inner"];
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 3);
        assert!(outer.total_ns >= inner.total_ns, "parent total covers child");
        assert!(outer.child_ns >= inner.total_ns.saturating_sub(outer.total_ns / 10));
        assert!(outer.self_ns() > 0, "outer spun outside the child span");
    }

    #[test]
    fn self_times_sum_to_root_totals() {
        let collector = Arc::new(ProfileCollector::new());
        {
            let _g = install(collector.clone());
            let _root = span("root");
            spin(50_000);
            for _ in 0..4 {
                let _child = span("work");
                spin(25_000);
            }
        }
        // Locals drop in reverse declaration order, so `_root` closes
        // before `_g` flushes: the flush sees a fully closed tree.
        let data = collector.snapshot();
        let root_total = data.spans["root"].total_ns;
        let self_sum = data.self_total_ns();
        // Exact identity: sum(self) telescopes to sum(root totals).
        assert_eq!(self_sum, root_total);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |specs: &[(&str, u64, u64, u64)], gauges: &[(&str, u64)]| {
            let mut d = ProfileData::default();
            for &(path, count, total, child) in specs {
                d.spans.insert(
                    path.to_string(),
                    SpanStats { count, total_ns: total, child_ns: child },
                );
            }
            for &(name, v) in gauges {
                d.gauges.entry(name.to_string()).or_default().record(v);
            }
            d
        };
        let a = mk(&[("x", 1, 100, 40), ("x/y", 2, 40, 0)], &[("g", 3)]);
        let b = mk(&[("x", 2, 300, 100), ("z", 1, 9, 0)], &[("g", 9), ("h", 1)]);
        let c = mk(&[("x/y", 5, 70, 10)], &[]);

        let merge = |lhs: &ProfileData, rhs: &ProfileData| {
            let mut out = lhs.clone();
            out.merge(rhs);
            out
        };
        let ab_c = merge(&merge(&a, &b), &c);
        let a_bc = merge(&a, &merge(&b, &c));
        assert_eq!(ab_c, a_bc, "associative");
        assert_eq!(merge(&a, &b), merge(&b, &a), "commutative");
        assert_eq!(ab_c.spans["x"].count, 3);
        assert_eq!(ab_c.spans["x"].total_ns, 400);
        assert_eq!(ab_c.gauges["g"].count(), 2);
        assert_eq!(ab_c.gauges["g"].min(), Some(3));
        assert_eq!(ab_c.gauges["g"].max(), Some(9));
    }

    #[test]
    fn worker_trees_merge_into_one_report() {
        let collector = Arc::new(ProfileCollector::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let collector = collector.clone();
                std::thread::spawn(move || {
                    let _g = install(collector);
                    let _job = span("job");
                    let _step = span("step");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let data = collector.snapshot();
        assert_eq!(data.spans["job"].count, 4);
        assert_eq!(data.spans["job/step"].count, 4);
    }

    #[test]
    fn report_serialises_schema_and_tables() {
        let collector = Arc::new(ProfileCollector::new());
        {
            let _g = install(collector.clone());
            {
                let _s = span("alpha");
                let _t = span("beta");
            }
            gauge("depth", 5);
            gauge("depth", 11);
        }
        let mut manifest = crate::TraceCollector::new().manifest("t0");
        manifest.wall = Some(collector.report(123_456));
        let json = manifest.to_json();
        assert!(json.contains("\"schema\": \"arpshield-trace/1\""));
        assert!(json.contains("\"experiment\": \"t0\""));
        assert!(json.contains("\"wall\": {\n    \"wall_ns\": 123456,"));
        assert!(json.contains("\"path\": \"alpha/beta\""));
        assert!(json.contains("\"name\": \"beta\""));
        assert!(json
            .contains("\"name\": \"depth\", \"samples\": 2, \"min\": 5, \"max\": 11, \"sum\": 16"));
        let doc = crate::json::parse(&json).expect("the manifest is JSON");
        let wall = doc.get("wall").expect("a wall section");
        assert_eq!(wall.get("wall_ns").and_then(|v| v.as_num()), Some(123_456.0));
        let spans = wall.get("spans").and_then(|v| v.as_arr()).unwrap();
        assert!(spans.iter().any(|s| s.get("path").and_then(|v| v.as_str()) == Some("alpha/beta")));
    }

    #[test]
    fn nested_installs_record_into_the_innermost() {
        let outer = Arc::new(ProfileCollector::new());
        let inner = Arc::new(ProfileCollector::new());
        {
            let _og = install(outer.clone());
            {
                let _s = span("outer.only");
            }
            {
                let _ig = install(inner.clone());
                let _s = span("inner.only");
            }
        }
        assert!(outer.snapshot().spans.contains_key("outer.only"));
        assert!(!outer.snapshot().spans.contains_key("inner.only"));
        assert!(inner.snapshot().spans.contains_key("inner.only"));
    }
}
