//! Event-queue churn: the timing wheel against the binary heap it
//! replaced.
//!
//! The simulator's scheduler sees one workload shape almost
//! exclusively: a bounded set of in-flight events (frames on wires,
//! pending timers) where every pop schedules a successor a short delay
//! ahead — classic hold-model churn. A binary heap pays O(log n) in
//! comparisons *and* cache misses per operation at every size; the
//! hierarchical wheel pays O(1) slot arithmetic with an occasional
//! cascade. Both contenders live in this one bench so the committed
//! baseline pins the heap-vs-wheel ratio, not just the wheel's own
//! trajectory.
//!
//! Three shapes:
//! - `steady_churn` keeps every delay a link latency ahead (1–25 µs),
//!   the wheel's level-0 and level-1 fast path;
//! - `mixed_horizon` sends one push in 16 about a day out, onto the
//!   wheel's level 6, the way a ticket lifetime rides alongside
//!   microsecond frame deliveries;
//! - `scale_timers` is the 100k-station fabric's pattern: one refresh
//!   timer per station pending up to 2 s ahead. A timer's pop sends a
//!   frame 5 or 10 µs out, each delivery pushes the next hop the same
//!   way, and the last hop re-arms the station's timer 2 s ahead.
//!
//! Every run folds the popped sequence into a checksum, and the two
//! implementations must produce the same one — the bench doubles as an
//! end-to-end ordering-equivalence check at a scale the unit tests
//! don't reach.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use arpshield_netsim::{SimTime, TimingWheel};
use arpshield_testkit::{Criterion, Throughput};

const IN_FLIGHT: usize = 4096;
const OPS: usize = 65_536;

/// Stations in `scale_timers`, one refresh timer each.
const STATIONS: u32 = 100_000;
/// Deliveries per refresh before the station re-arms.
const HOPS: u32 = 3;
/// Station refresh period, in ns.
const REFRESH: u64 = 2_000_000_000;
/// Pops in `scale_timers`: one refresh cycle of every station.
const SCALE_OPS: u32 = STATIONS * (HOPS + 1);

/// xorshift64*: cheap, deterministic op-stream generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The simulator schedules almost everything a link latency ahead, and
/// a LAN has a handful of configured latencies, not a continuum — which
/// is why equal-timestamp batches dominate real runs.
const LATENCIES: [u64; 4] = [1_000, 5_000, 10_000, 25_000];

/// Delay for one push: a configured link latency, with an optional
/// 1-in-16 day-long tail (a ticket lifetime riding alongside
/// microsecond frame deliveries).
fn delay(rng: &mut Lcg, far_tail: bool) -> u64 {
    let raw = rng.next();
    if far_tail && raw.is_multiple_of(16) {
        // ~1 day out: six levels up.
        86_400_000_000_000 + raw % 1_000_000_000
    } else {
        LATENCIES[(raw % 4) as usize]
    }
}

/// What both contenders offer the op streams.
trait Queue: Default {
    fn push(&mut self, at: u64, item: u32);
    fn pop(&mut self) -> Option<(u64, u32)>;
}

/// The scheduler the wheel replaced: a min-heap on `(at, seq)`, the
/// sequence number supplying the equal-timestamp insertion-order
/// guarantee.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl Queue for HeapQueue {
    fn push(&mut self, at: u64, item: u32) {
        self.heap.push(Reverse((at, self.seq, item)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        self.heap.pop().map(|Reverse((at, _, item))| (at, item))
    }
}

impl Queue for TimingWheel<u32> {
    fn push(&mut self, at: u64, item: u32) {
        TimingWheel::push(self, SimTime::from_nanos(at), item);
    }
    fn pop(&mut self) -> Option<(u64, u32)> {
        TimingWheel::pop(self).map(|(at, item)| (at.as_nanos(), item))
    }
}

fn fold(acc: u64, at: u64, item: u32) -> u64 {
    (acc ^ at.wrapping_add(u64::from(item))).rotate_left(7)
}

/// Pops everything left, folding it into `acc`.
fn drain(q: &mut impl Queue, mut acc: u64) -> u64 {
    while let Some((at, item)) = q.pop() {
        acc = fold(acc, at, item);
    }
    acc
}

/// Hold-model churn: fill to `IN_FLIGHT`, then pop one / push one for
/// `OPS` operations, then drain.
fn churn<Q: Queue>(far_tail: bool) -> u64 {
    let mut rng = Lcg(0x5EED_0001);
    let mut q = Q::default();
    let mut acc = 0u64;
    for i in 0..IN_FLIGHT {
        q.push(delay(&mut rng, far_tail), i as u32);
    }
    for i in 0..OPS {
        let (at, item) = q.pop().expect("queue stays full during churn");
        acc = fold(acc, at, item);
        q.push(at + delay(&mut rng, far_tail), i as u32);
    }
    drain(&mut q, acc)
}

/// The fabric's refresh cycle: `STATIONS` timers at uniform phases over
/// one period, then `SCALE_OPS` pops, each pushing its successor (item
/// `station * (HOPS + 1) + hop`, hop 0 being the timer), then drain.
fn scale_timers<Q: Queue>() -> u64 {
    let mut rng = Lcg(0x5EED_0002);
    let mut q = Q::default();
    for station in 0..STATIONS {
        q.push(rng.next() % REFRESH, station * (HOPS + 1));
    }
    let mut acc = 0u64;
    for _ in 0..SCALE_OPS {
        let (at, item) = q.pop().expect("every pop pushes a successor");
        acc = fold(acc, at, item);
        let (station, hop) = (item / (HOPS + 1), item % (HOPS + 1));
        if hop == HOPS {
            q.push(at + REFRESH, station * (HOPS + 1));
        } else {
            q.push(at + [5_000, 10_000][(rng.next() % 2) as usize], item + 1);
        }
    }
    drain(&mut q, acc)
}

fn bench_churn(c: &mut Criterion) {
    // The wheel must agree with the reference ordering exactly; a
    // checksum mismatch here means the scheduler broke the determinism
    // contract, and no timing numbers would matter.
    type Wheel = TimingWheel<u32>;
    let steady = churn::<Wheel>(false);
    assert_eq!(steady, churn::<HeapQueue>(false), "steady_churn ordering diverged");
    let mixed = churn::<Wheel>(true);
    assert_eq!(mixed, churn::<HeapQueue>(true), "mixed_horizon ordering diverged");
    assert_eq!(scale_timers::<Wheel>(), scale_timers::<HeapQueue>(), "scale_timers diverged");

    let mut group = c.benchmark_group("event_queue_churn");
    group.sample_size(15);
    group.throughput(Throughput::Elements((IN_FLIGHT + OPS) as u64));
    for (shape, far_tail) in [("steady_churn", false), ("mixed_horizon", true)] {
        group.bench_function(format!("wheel/{shape}"), |b| {
            b.iter(|| std::hint::black_box(churn::<Wheel>(far_tail)))
        });
        group.bench_function(format!("heap/{shape}"), |b| {
            b.iter(|| std::hint::black_box(churn::<HeapQueue>(far_tail)))
        });
    }
    group.throughput(Throughput::Elements(u64::from(STATIONS + SCALE_OPS)));
    group.bench_function("wheel/scale_timers", |b| {
        b.iter(|| std::hint::black_box(scale_timers::<Wheel>()))
    });
    group.bench_function("heap/scale_timers", |b| {
        b.iter(|| std::hint::black_box(scale_timers::<HeapQueue>()))
    });
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_churn(&mut criterion);
    criterion.final_summary();
}
