//! Per-host counters shared with experiments.

use std::time::Duration;

/// Counters a [`Host`](crate::Host) maintains while running.
///
/// Shared through [`HostHandle`](crate::HostHandle) so experiments can
/// read them during and after a run.
#[derive(Debug, Default, Clone)]
pub struct HostStats {
    /// ARP requests transmitted.
    pub arp_requests_sent: u64,
    /// ARP replies transmitted.
    pub arp_replies_sent: u64,
    /// ARP packets an agent dropped ([`ArpVerdict::Drop`](crate::ArpVerdict::Drop)).
    pub hook_drops: u64,
    /// Resolutions completed (reply matched an outstanding request).
    pub resolutions_completed: u64,
    /// Sum of resolution latencies, for averaging.
    pub resolution_latency_total: Duration,
    /// Resolutions abandoned after retry exhaustion (give-ups).
    pub resolutions_failed: u64,
    /// IPv4 packets sent (including queued-then-flushed).
    pub ipv4_sent: u64,
    /// IPv4 packets that could not be sent (no next hop, a full
    /// resolution queue, or resolution failure).
    pub ipv4_send_failures: u64,
    /// UDP datagrams delivered to applications.
    pub udp_delivered: u64,
    /// ICMP echo requests answered.
    pub icmp_echoes_answered: u64,
    /// ICMP echo replies received by the ping client path.
    pub icmp_replies_received: u64,
    /// Abstract work units consumed by scheme agents on this host
    /// (signature verifications, database lookups…), the paper's
    /// CPU-cost proxy.
    pub work_units: u64,
}

impl HostStats {
    /// Mean ARP resolution latency, if any resolution completed.
    pub fn mean_resolution_latency(&self) -> Option<Duration> {
        if self.resolutions_completed == 0 {
            None
        } else {
            Some(self.resolution_latency_total / self.resolutions_completed as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency() {
        let mut s = HostStats::default();
        assert_eq!(s.mean_resolution_latency(), None);
        s.resolutions_completed = 4;
        s.resolution_latency_total = Duration::from_millis(20);
        assert_eq!(s.mean_resolution_latency(), Some(Duration::from_millis(5)));
    }
}
