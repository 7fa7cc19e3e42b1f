//! The CAM keeps a floor under every entry's `last_seen`, so a sweep
//! while nothing can be stale answers 0 without walking the table. This
//! property drives `CamTable` with random learn, lookup and sweep
//! sequences and compares every answer against a reference table kept
//! here, which walks every entry on every sweep.

use std::collections::HashMap;
use std::time::Duration;

use arpshield_netsim::{CamTable, LearnOutcome, PortId, SimTime, VlanId};
use arpshield_packet::MacAddr;
use arpshield_testkit::prelude::*;

/// A binding as `(port, last_seen)`.
type Binding = (PortId, SimTime);

/// Every binding, sorted by key.
type Contents = Vec<((VlanId, MacAddr), Binding)>;

/// The table the plain way: no floor, every sweep a full walk.
struct ReferenceCam {
    entries: HashMap<(VlanId, MacAddr), Binding>,
    capacity: usize,
    aging: Duration,
}

impl ReferenceCam {
    fn learn(&mut self, now: SimTime, vid: VlanId, mac: MacAddr, port: PortId) -> LearnOutcome {
        if let Some((bound, last_seen)) = self.entries.get_mut(&(vid, mac)) {
            *last_seen = now;
            if *bound == port {
                return LearnOutcome::Refreshed;
            }
            let from = *bound;
            *bound = port;
            return LearnOutcome::Moved { from };
        }
        if self.entries.len() >= self.capacity {
            self.sweep(now);
        }
        if self.entries.len() >= self.capacity {
            return LearnOutcome::Full;
        }
        self.entries.insert((vid, mac), (port, now));
        LearnOutcome::Learned
    }

    fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, (_, last_seen)| now.saturating_since(*last_seen) < self.aging);
        before - self.entries.len()
    }

    fn contents(&self) -> Contents {
        let mut all: Vec<_> = self.entries.iter().map(|(k, v)| (*k, *v)).collect();
        all.sort();
        all
    }
}

fn contents(cam: &CamTable) -> Contents {
    let mut all: Vec<_> = cam.iter().map(|(k, e)| (*k, (e.port, e.last_seen))).collect();
    all.sort();
    all
}

/// Moves the clock relative to the aging interval `a` (in ns): repeats,
/// single steps, landings on and just past the aging edge, long jumps
/// and regressions.
fn advance(now: u64, step: u8, a: u64) -> u64 {
    match step {
        0 => now,
        1 => now + 1,
        2 => now + a / 2,
        3 => now + a.saturating_sub(1),
        4 => now + a,
        5 => now + a + 1,
        6 => now + 3 * a + 2,
        7 => now.saturating_sub(1),
        _ => now.saturating_sub(a + 1),
    }
}

properties! {
    /// Tiny capacities and agings (zero included), equal and repeated
    /// timestamps, moves across ports, and one station on several VLANs.
    #[test]
    fn floored_sweeps_match_a_table_that_always_walks(
        capacity in 0usize..6,
        aging_ns in 0u64..40,
        ops in collection::vec((0u8..4, 0u16..3, 0u8..6, 0u16..4, 0u8..9), 0..160),
    ) {
        let aging = Duration::from_nanos(aging_ns);
        let mut cam = CamTable::new(capacity, aging);
        let mut reference = ReferenceCam { entries: HashMap::new(), capacity, aging };
        let mut now = 1_000u64;
        for (op, vid, station, port, step) in ops {
            now = advance(now, step, aging_ns);
            let at = SimTime::from_nanos(now);
            let mac = MacAddr::from_index(u32::from(station) + 1);
            match op {
                0 | 1 => prop_assert_eq!(
                    cam.learn_vlan(at, vid, mac, PortId(port)),
                    reference.learn(at, vid, mac, PortId(port))
                ),
                2 => prop_assert_eq!(
                    cam.lookup_vlan(vid, mac),
                    reference.entries.get(&(vid, mac)).map(|(bound, _)| *bound)
                ),
                _ => prop_assert_eq!(cam.sweep(at), reference.sweep(at)),
            }
            prop_assert_eq!(cam.occupancy(), reference.entries.len());
        }
        prop_assert_eq!(contents(&cam), reference.contents());
    }
}
