//! A recycling arena for frame buffers.
//!
//! Every [`Frame`](crate::Frame) wraps an `Rc<Vec<u8>>`. When the
//! last handle drops, the buffer — bytes *and* the `Rc` allocation
//! — goes onto a thread-local free list instead of back to the
//! allocator, and the next frame construction pops it, clears the
//! bytes, and copies the new payload in place. At steady state a
//! simulation therefore allocates nothing per frame: the frame-delivery
//! floors in `tests/alloc_floors.rs` count every allocation a delivery
//! run makes and gate that claim.
//!
//! The free list is thread-local, as frames are: it needs no lock, and
//! reuse is deterministic per thread, which tests rely on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use arpshield_trace::profile;

/// Free-list bound: beyond this the buffers go back to the allocator.
/// 4096 MTU-sized buffers is ~6 MB per thread, far above any
/// steady-state in-flight high-water mark the simulator produces.
const MAX_FREE: usize = 4096;

/// Spare capacity of a fresh buffer: a QinQ tag pair, so a re-tag never grows a recycled one.
const HEADROOM: usize = 8;

thread_local! {
    static FREE: RefCell<Vec<Rc<Vec<u8>>>> = const { RefCell::new(Vec::new()) };
    static HITS: Cell<u64> = const { Cell::new(0) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's pool effectiveness counters: acquisitions served from
/// the free list (`recycled`) vs fresh allocations (`fresh`). Always
/// on — two thread-local increments per acquisition — and per-thread,
/// matching the free list itself. The profiler samples these into its
/// `pool.*` gauges during scale sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions that reused a recycled buffer.
    pub recycled: u64,
    /// Acquisitions that hit the allocator.
    pub fresh: u64,
}

impl PoolStats {
    /// Recycled fraction of all acquisitions, 0.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.recycled + self.fresh;
        if total == 0 {
            0.0
        } else {
            self.recycled as f64 / total as f64
        }
    }
}

/// Reads this thread's [`PoolStats`] counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        recycled: HITS.try_with(Cell::get).unwrap_or(0),
        fresh: MISSES.try_with(Cell::get).unwrap_or(0),
    }
}

/// Pops a unique recycled buffer, or `None` when the list is empty or
/// unreachable (thread teardown), counting the hit or miss either way.
fn pop_free() -> Option<Rc<Vec<u8>>> {
    let popped = FREE.try_with(|free| free.borrow_mut().pop()).ok().flatten();
    let counter = if popped.is_some() { &HITS } else { &MISSES };
    let _ = counter.try_with(|c| c.set(c.get() + 1));
    popped
}

/// Builds a zeroed `len`-byte buffer in place and hands it to `f` to
/// fill, reusing a recycled buffer (bytes and control block) when one is
/// available. This is the pool's one acquisition path: in-place wire
/// writers encode straight into the pool allocation with no
/// intermediate `Vec`, and the `From` conversions copy into it. The
/// closure returns the byte count it wrote, which must equal `len`
/// (debug-asserted) — the pre-zeroing both guarantees stale bytes from
/// the previous tenant never show through and provides Ethernet's
/// min-payload padding.
pub(crate) fn build(len: usize, f: impl FnOnce(&mut [u8]) -> usize) -> Rc<Vec<u8>> {
    // The acquire span covers only buffer acquisition; the caller's
    // encode closure is attributed to the caller's own span.
    let acquire = profile::span("pool.acquire");
    // The free list only holds unique handles, so `get_mut` cannot fail
    // today; allocating fresh keeps a shared handle harmless if weak
    // references ever appear. It is the one uniqueness check per frame:
    // a fresh buffer is filled before it is shared.
    if let Some(mut rc) = pop_free() {
        if let Some(buf) = Rc::get_mut(&mut rc) {
            buf.clear();
            buf.resize(len, 0);
            drop(acquire);
            fill(buf, f);
            return rc;
        }
    }
    // Zeroed by the allocator as before: `Vec::with_capacity` raised peak memory 2% at 100k hosts.
    let mut buf = vec![0; len + HEADROOM];
    buf.truncate(len);
    drop(acquire);
    fill(&mut buf, f);
    Rc::new(buf)
}

/// Runs a [`build`] closure over its zeroed buffer.
fn fill(bytes: &mut [u8], f: impl FnOnce(&mut [u8]) -> usize) {
    let written = f(bytes);
    debug_assert_eq!(written, bytes.len(), "Frame::build closure must fill the stated length");
}

/// Returns a buffer to the free list if `rc` is the last handle and
/// the list has room; otherwise the allocation is simply released.
pub(crate) fn recycle(rc: Rc<Vec<u8>>) {
    // A count above one means another handle still owns the buffer,
    // and this drop is a no-op.
    if Rc::strong_count(&rc) != 1 {
        return;
    }
    let _s = profile::span("pool.recycle");
    let _ = FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        if free.len() < MAX_FREE {
            free.push(rc);
        }
    });
}
