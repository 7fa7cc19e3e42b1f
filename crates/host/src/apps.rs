//! Application workloads that generate the traffic schemes must not
//! misclassify; each is a [`HostAgent`].

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use arpshield_netsim::SimTime;
use arpshield_packet::Ipv4Addr;

use crate::agent::{HostAgent, HostApi};

/// Observable results of a [`PingApp`].
#[derive(Debug, Default, Clone)]
pub struct PingStats {
    /// Echo requests sent.
    pub sent: u64,
    /// Echo replies received.
    pub received: u64,
    /// Sum of round-trip times for averaging.
    pub rtt_total: Duration,
}

impl PingStats {
    /// Fraction of pings answered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.received as f64 / self.sent as f64
        }
    }

    /// Mean round-trip time over answered pings.
    pub fn mean_rtt(&self) -> Option<Duration> {
        if self.received == 0 {
            None
        } else {
            Some(self.rtt_total / self.received as u32)
        }
    }
}

/// Periodically pings a target and records delivery and RTT — the
/// workload used to measure what a victim experiences while poisoned.
#[derive(Debug)]
pub struct PingApp {
    target: Ipv4Addr,
    interval: Duration,
    identifier: u16,
    next_seq: u16,
    in_flight: Vec<(u16, SimTime)>,
    stats: Rc<RefCell<PingStats>>,
}

impl PingApp {
    /// Creates a pinger and a shared handle onto its statistics.
    pub fn new(target: Ipv4Addr, interval: Duration) -> (Self, Rc<RefCell<PingStats>>) {
        let stats = Rc::new(RefCell::new(PingStats::default()));
        (
            PingApp {
                target,
                interval,
                identifier: 0x5049, // "PI"
                next_seq: 0,
                in_flight: Vec::new(),
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }
}

impl HostAgent for PingApp {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        // Stagger starts so a fleet of pingers does not synchronize.
        let jitter = Duration::from_micros(api.rand_u64() % 50_000);
        api.schedule(self.interval / 2 + jitter, 0);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, _payload: u32) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.in_flight.push((seq, api.now()));
        if self.in_flight.len() > 64 {
            self.in_flight.remove(0);
        }
        self.stats.borrow_mut().sent += 1;
        api.send_ping(self.target, self.identifier, seq);
        api.schedule(self.interval, 0);
    }

    fn on_icmp_reply(&mut self, api: &mut HostApi<'_, '_>, src: Ipv4Addr, sequence: u16) {
        if src != self.target {
            return;
        }
        if let Some(pos) = self.in_flight.iter().position(|(s, _)| *s == sequence) {
            let (_, sent_at) = self.in_flight.remove(pos);
            let mut stats = self.stats.borrow_mut();
            stats.received += 1;
            stats.rtt_total += api.now().saturating_since(sent_at);
        }
    }
}

/// Echoes every UDP datagram arriving on its port back to the sender.
#[derive(Debug)]
pub struct UdpEchoServer {
    port: u16,
}

impl UdpEchoServer {
    /// Creates an echo server on `port`.
    pub fn new(port: u16) -> Self {
        UdpEchoServer { port }
    }
}

impl HostAgent for UdpEchoServer {
    fn on_udp(
        &mut self,
        api: &mut HostApi<'_, '_>,
        src: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        if dst_port == self.port {
            api.send_udp(src, self.port, src_port, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_stats_math() {
        let mut s = PingStats::default();
        assert_eq!(s.delivery_ratio(), 0.0);
        assert_eq!(s.mean_rtt(), None);
        s.sent = 10;
        s.received = 5;
        s.rtt_total = Duration::from_millis(50);
        assert!((s.delivery_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(s.mean_rtt(), Some(Duration::from_millis(10)));
    }

    // Behavioural tests for the apps live in `stack.rs`, where a full
    // simulated LAN is available.
}
