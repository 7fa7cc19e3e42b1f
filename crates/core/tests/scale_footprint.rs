//! What building the scale fabric costs the allocator. At 100k stations
//! every per-station heap allocation is 100k allocator calls and their
//! chunk headers, so a station's only allocation is its device box; the
//! switches, inspectors and tables add a fixed number per leaf. Every
//! byte the build leaves live is held for the whole run, so the tables
//! it sizes hold no growth slack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arpshield_core::scenario::scale::{self, ScaleConfig, LEAF_CAPACITY};

/// Counts the calling thread's allocations and the bytes they hold, so
/// the test harness's own threads never show up in a count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to the calling thread's live bytes.
fn track(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; the thread-local
// counters have no destructor and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Allocations a leaf may add: its switch, CAM, VLAN port table, DAI
/// inspector and binding table, and its share of the root's and the
/// simulator's growing tables. Four leaves of DAI fabric make 154 such
/// allocations in all.
const PER_LEAF: u64 = 64;

/// Live bytes a station may hold after the build: its 40-byte device
/// box, a 24-byte device entry, two 24-byte link slots, a 4-byte VLAN
/// port mode, and its bindings in the leaf and root DAI tables. Left
/// to grow by doubling, the link and device tables and a leaf's VLAN
/// port table (24 bytes a port, 2,048 ports for 1,025) held 249 bytes
/// a station; sized once and packed they hold 189.
const LIVE_BYTES_PER_STATION: i64 = 200;

/// Four full leaves of the defended VLAN fabric, with spoofers. A name
/// built with `format!` would add two allocations per station (its
/// buffer and one growth), about 12,400 in all, and break the bound.
#[test]
fn a_dai_fabric_build_allocates_once_per_station_plus_a_fixed_amount_per_leaf() {
    const HOSTS: usize = 4096;
    let config = ScaleConfig::new(20_070_625, HOSTS).with_dai().with_spoofers(8);
    let (before, live_before) = (allocations(), live_bytes());
    let lan = scale::build(config);
    let (made, live) = (allocations() - before, live_bytes() - live_before);
    let leaves = HOSTS.div_ceil(LEAF_CAPACITY) as u64;
    let allowed = HOSTS as u64 + PER_LEAF * leaves;
    assert!(made <= allowed, "{made} allocations for {HOSTS} stations, at most {allowed} allowed");
    let per_station = live / HOSTS as i64;
    assert!(
        per_station <= LIVE_BYTES_PER_STATION,
        "{live} live bytes, {per_station} a station, at most {LIVE_BYTES_PER_STATION} allowed"
    );
    assert_eq!(lan.n_hosts, HOSTS);
}
