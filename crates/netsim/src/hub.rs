//! A dumb repeating hub.

use crate::device::{Device, DeviceCtx, Egress, PortId};

/// A multiport repeater: every ingress frame is copied to every other port.
///
/// Hubs make eavesdropping trivial — any attached station sees all traffic
/// — which is why the paper's threat model centres on *switched* segments
/// where the attacker must poison ARP caches to see third-party frames.
/// The hub exists here as the degenerate baseline topology.
#[derive(Debug)]
pub struct Hub {
    name: String,
    ports: usize,
}

impl Hub {
    /// Creates a hub with `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(name: impl Into<String>, ports: usize) -> Self {
        assert!(ports > 0, "a hub needs at least one port");
        Hub { name: name.into(), ports }
    }
}

impl Device for Hub {
    fn name(&self) -> &str {
        &self.name
    }

    fn port_count(&self) -> usize {
        self.ports
    }

    fn on_frame(&mut self, ctx: &mut DeviceCtx<'_>, port: PortId, _frame: &[u8]) {
        // Only the count: per-frame events are left to the flight
        // recorder, since a mirror hub repeats every LAN frame.
        ctx.tracer().count("hub.repeated", 1);
        // Repeat the shared buffer to every port but the ingress: one
        // allocation total regardless of how many egress copies the
        // repeat fans out to. No port is tagged, so the second form is
        // never taken. `ports` may be 65536 (every PortId addressable),
        // so iterate the usize range and narrow per port.
        let shared = ctx.incoming_frame().expect("on_frame always carries a frame");
        let ports = (0..self.ports).map(|p| Egress { port: PortId(p as u16), tagged: false });
        ctx.flood(ports, port, [shared.clone(), shared]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::time::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    /// Counts the frames delivered to it; sends one at start when
    /// `speaks`.
    struct Station {
        speaks: bool,
        got: Rc<Cell<u64>>,
    }
    impl Device for Station {
        fn name(&self) -> &str {
            "station"
        }
        fn port_count(&self) -> usize {
            1
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            if self.speaks {
                ctx.send(PortId(0), vec![0; 60]);
            }
        }
        fn on_frame(&mut self, _: &mut DeviceCtx<'_>, _: PortId, _: &[u8]) {
            self.got.set(self.got.get() + 1);
        }
    }

    /// Puts a speaking station on `src` and silent ones on `sinks` of a
    /// `ports`-port hub, runs, and returns what the speaker and each
    /// sink received.
    fn repeat(ports: usize, src: u16, sinks: &[u16]) -> (u64, Vec<u64>) {
        let mut sim = Simulator::new(1);
        let hub = sim.add_device(Box::new(Hub::new("hub", ports)));
        let mut attach = |port: u16, speaks: bool| {
            let got = Rc::new(Cell::new(0));
            let id = sim.add_device(Box::new(Station { speaks, got: Rc::clone(&got) }));
            sim.connect(id, PortId(0), hub, PortId(port), Duration::from_micros(1)).unwrap();
            got
        };
        let echoed = attach(src, true);
        let got: Vec<_> = sinks.iter().map(|&p| attach(p, false)).collect();
        sim.run_until(SimTime::from_secs(1));
        (echoed.get(), got.iter().map(|g| g.get()).collect())
    }

    #[test]
    fn repeats_to_all_other_ports() {
        // One copy to every sink, nothing echoed back to the source port.
        assert_eq!(repeat(4, 0, &[1, 2, 3]), (0, vec![1, 1, 1]));
    }

    #[test]
    fn a_hub_spanning_the_whole_port_space_repeats() {
        // 65 536 ports address every PortId, so the last one is real.
        assert_eq!(repeat(65_536, 65_535, &[0]), (0, vec![1]));
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        let _ = Hub::new("bad", 0);
    }
}
