//! The bounded flight recorder: a per-run ring of raw frames with
//! pin-on-evict survival for alert evidence.
//!
//! Every delivered/dropped/duplicated frame the simulator dispatches
//! can be recorded here (octets copied once, stamped with simulated
//! nanoseconds). The ring bounds memory for arbitrarily long runs;
//! frames cited by scheme verdicts are *pinned* so eviction moves them
//! to a survivors list instead of discarding them — which is what
//! keeps every `scheme.verdict.*` event decodable back to the exact
//! bytes that triggered it, no matter how much traffic followed.

use std::collections::VecDeque;
use std::fmt;

/// Default ring capacity when `ARPSHIELD_RECORD_FRAMES` is unset.
pub const DEFAULT_RECORD_FRAMES: usize = 4096;

/// What happened to a frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameKind {
    /// Delivered to its destination port.
    Delivered,
    /// An impairment-injected duplicate copy, delivered.
    DuplicateDelivered,
    /// Dropped by a loss draw on an impaired link.
    DroppedLost,
    /// Dropped because a flapping link was down.
    DroppedLinkDown,
}

impl FrameKind {
    /// Stable label used in pcapng comments.
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::Delivered => "deliver",
            FrameKind::DuplicateDelivered => "deliver.dup",
            FrameKind::DroppedLost => "drop.lost",
            FrameKind::DroppedLinkDown => "drop.link_down",
        }
    }
}

/// One captured frame: its run-local id, sim-time stamp, fate, wire
/// endpoints (`device:port`), and the raw octets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecordedFrame {
    /// Run-local frame id, assigned 1, 2, 3, … in dispatch order. Ids
    /// keep counting past evicted frames, so an id is a stable
    /// reference even after its frame leaves the ring.
    pub id: u64,
    /// Simulation time of the record, in nanoseconds since run start.
    pub at_ns: u64,
    /// What happened to the frame.
    pub kind: FrameKind,
    /// Sending endpoint as `device:port`.
    pub src: String,
    /// Receiving (or intended) endpoint as `device:port`.
    pub dst: String,
    /// The raw octets as they crossed the wire.
    pub bytes: Vec<u8>,
    /// Whether an alert cited this frame (pinned frames survive ring
    /// eviction).
    pub pinned: bool,
}

/// A captured frame's pcapng comment, `id=N kind=K src=S dst=D` plus
/// ` pinned` when pinned: [`Display`](fmt::Display) writes it and
/// [`parse`](Self::parse) reads it back, borrowing its fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameComment<'a> {
    /// [`RecordedFrame::id`]; `None` when the comment names none.
    pub id: Option<u64>,
    /// [`FrameKind::label`].
    pub kind: &'a str,
    /// [`RecordedFrame::src`].
    pub src: &'a str,
    /// [`RecordedFrame::dst`].
    pub dst: &'a str,
    /// [`RecordedFrame::pinned`].
    pub pinned: bool,
}

impl<'a> FrameComment<'a> {
    /// The comment `frame` is exported with.
    pub fn of(frame: &'a RecordedFrame) -> Self {
        FrameComment {
            id: Some(frame.id),
            kind: frame.kind.label(),
            src: &frame.src,
            dst: &frame.dst,
            pinned: frame.pinned,
        }
    }

    /// Splits `comment` into its fields. Unknown tokens are skipped, so
    /// a foreign capture's free-form comment reads as empty fields.
    pub fn parse(comment: &'a str) -> Self {
        let mut fields = FrameComment::default();
        for token in comment.split_whitespace() {
            match token.split_once('=') {
                Some(("id", v)) => fields.id = v.parse().ok(),
                Some(("kind", v)) => fields.kind = v,
                Some(("src", v)) => fields.src = v,
                Some(("dst", v)) => fields.dst = v,
                _ => fields.pinned |= token == "pinned",
            }
        }
        fields
    }
}

impl fmt::Display for FrameComment<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(id) = self.id {
            write!(f, "id={id} ")?;
        }
        write!(f, "kind={} src={} dst={}", self.kind, self.src, self.dst)?;
        if self.pinned {
            f.write_str(" pinned")?;
        }
        Ok(())
    }
}

/// A bounded ring of [`RecordedFrame`]s with pin-on-evict migration.
///
/// One recorder per run, owned by the run's
/// [`RunRecorder`](crate::RunRecorder), so captures are byte-identical
/// at any worker-thread count.
#[derive(Debug)]
pub struct FrameRecorder {
    capacity: usize,
    next_id: u64,
    ring: VecDeque<RecordedFrame>,
    /// Pinned frames that were evicted from the ring.
    survivors: Vec<RecordedFrame>,
    evicted: u64,
}

impl FrameRecorder {
    /// Creates a recorder holding at most `capacity` unpinned frames
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        FrameRecorder {
            capacity: capacity.max(1),
            next_id: 1,
            ring: VecDeque::new(),
            survivors: Vec::new(),
            evicted: 0,
        }
    }

    /// Records one frame and returns its id. When the ring is full the
    /// oldest frame makes room: pinned frames migrate to the survivors
    /// list, unpinned ones are counted and dropped.
    pub fn record(
        &mut self,
        at_ns: u64,
        kind: FrameKind,
        src: String,
        dst: String,
        bytes: &[u8],
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.ring.len() == self.capacity {
            let oldest = self.ring.pop_front().expect("full ring has a front");
            if oldest.pinned {
                self.survivors.push(oldest);
            } else {
                self.evicted += 1;
            }
        }
        self.ring.push_back(RecordedFrame {
            id,
            at_ns,
            kind,
            src,
            dst,
            bytes: bytes.to_vec(),
            pinned: false,
        });
        // Ring-fill gauge for `--profile` runs, decimated so a capture
        // without profiling pays one branch per 1024 frames.
        if id.is_multiple_of(1024) {
            crate::profile::gauge("recorder.ring_fill", self.len() as u64);
        }
        id
    }

    /// Marks frame `id` as alert evidence. Returns `false` when the
    /// frame was already evicted unpinned (too late to save it).
    pub fn pin(&mut self, id: u64) -> bool {
        // Recent frames get pinned most often; scan the ring backwards.
        if let Some(frame) = self.ring.iter_mut().rev().find(|f| f.id == id) {
            frame.pinned = true;
            return true;
        }
        self.survivors.iter().any(|f| f.id == id)
    }

    /// Frames currently retained (ring plus pinned survivors).
    pub fn len(&self) -> usize {
        self.ring.len() + self.survivors.len()
    }

    /// True when nothing has been recorded or retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unpinned frames lost to eviction so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Consumes the recorder into its frames, sorted by id.
    pub fn into_frames(self) -> Vec<RecordedFrame> {
        let mut frames = self.survivors;
        frames.extend(self.ring);
        frames.sort_by_key(|f| f.id);
        frames
    }
}

/// Reads the ring capacity from `ARPSHIELD_RECORD_FRAMES`, returning
/// `(capacity, warning)`. A missing variable yields the default
/// silently; a malformed one yields the default plus a warning string
/// for the caller to surface.
pub fn ring_capacity_from_env() -> (usize, Option<String>) {
    crate::env_knob::knob("ARPSHIELD_RECORD_FRAMES").parse_or(
        DEFAULT_RECORD_FRAMES,
        "a positive integer",
        |n| *n >= 1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(rec: &mut FrameRecorder, n: u64) -> u64 {
        rec.record(n * 10, FrameKind::Delivered, format!("a:{n}"), "b:0".into(), &[n as u8; 4])
    }

    #[test]
    fn ids_are_sequential_from_one() {
        let mut rec = FrameRecorder::new(8);
        assert_eq!(frame(&mut rec, 1), 1);
        assert_eq!(frame(&mut rec, 2), 2);
        assert_eq!(frame(&mut rec, 3), 3);
    }

    #[test]
    fn eviction_preserves_pinned_frames() {
        let mut rec = FrameRecorder::new(4);
        for n in 1..=4 {
            frame(&mut rec, n);
        }
        assert!(rec.pin(2), "frame 2 is still in the ring");
        for n in 5..=10 {
            frame(&mut rec, n);
        }
        // Ring holds 7..=10; 1, 3, 4, 5, 6 evicted unpinned; 2 survived.
        assert_eq!(rec.evicted(), 5);
        let frames = rec.into_frames();
        let ids: Vec<u64> = frames.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![2, 7, 8, 9, 10]);
        let saved = &frames[0];
        assert!(saved.pinned);
        assert_eq!(saved.bytes, vec![2u8; 4]);
        assert_eq!(saved.at_ns, 20);
    }

    #[test]
    fn pinning_an_evicted_frame_reports_loss() {
        let mut rec = FrameRecorder::new(2);
        for n in 1..=4 {
            frame(&mut rec, n);
        }
        assert!(!rec.pin(1), "frame 1 is gone; pin must report failure");
        assert!(rec.pin(4));
        assert!(rec.pin(4), "re-pinning a live frame stays true");
    }

    #[test]
    fn pinned_survivor_remains_pinnable() {
        let mut rec = FrameRecorder::new(1);
        frame(&mut rec, 1);
        rec.pin(1);
        frame(&mut rec, 2); // evicts frame 1 into the survivors list
        assert!(rec.pin(1), "survivors still count as retained evidence");
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut rec = FrameRecorder::new(0);
        frame(&mut rec, 1);
        frame(&mut rec, 2);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.evicted(), 1);
    }

    /// What the writer prints, the parser reads back field for field,
    /// pinned or not; a foreign comment reads as empty fields.
    #[test]
    fn frame_comment_round_trips() {
        let mut rec = FrameRecorder::new(4);
        frame(&mut rec, 1);
        frame(&mut rec, 2);
        rec.pin(2);
        let frames = rec.into_frames();
        let written: Vec<String> = frames.iter().map(|f| FrameComment::of(f).to_string()).collect();
        assert_eq!(
            written,
            ["id=1 kind=deliver src=a:1 dst=b:0", "id=2 kind=deliver src=a:2 dst=b:0 pinned"]
        );
        for (frame, text) in frames.iter().zip(&written) {
            assert_eq!(FrameComment::parse(text), FrameComment::of(frame));
        }
        assert_eq!(FrameComment::parse("captured on office switch"), FrameComment::default());
        assert_eq!(FrameComment::parse("id=x dst=m:0").id, None);
    }

    #[test]
    fn env_capacity_parses_and_warns() {
        // Serialized within this test to avoid env races with siblings.
        std::env::remove_var("ARPSHIELD_RECORD_FRAMES");
        assert_eq!(ring_capacity_from_env(), (DEFAULT_RECORD_FRAMES, None));
        std::env::set_var("ARPSHIELD_RECORD_FRAMES", "128");
        assert_eq!(ring_capacity_from_env(), (128, None));
        std::env::set_var("ARPSHIELD_RECORD_FRAMES", "zero");
        let (cap, warning) = ring_capacity_from_env();
        assert_eq!(cap, DEFAULT_RECORD_FRAMES);
        assert!(warning.unwrap().contains("zero"));
        std::env::set_var("ARPSHIELD_RECORD_FRAMES", "0");
        let (cap, warning) = ring_capacity_from_env();
        assert_eq!(cap, DEFAULT_RECORD_FRAMES);
        assert!(warning.is_some());
        std::env::remove_var("ARPSHIELD_RECORD_FRAMES");
    }
}
