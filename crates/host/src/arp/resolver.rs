//! The pending-resolution queue: packets waiting for an ARP answer.

use std::time::Duration;

use arpshield_netsim::hash::FastMap;
use arpshield_netsim::SimTime;
use arpshield_packet::{IpProtocol, Ipv4Addr};

use crate::arp::RetryPolicy;

/// Packets that may wait on one address; a send beyond them is dropped.
const MAX_QUEUE_PER_IP: usize = 16;

/// An L3 payload parked until its next hop resolves.
#[derive(Debug, Clone)]
pub(crate) struct PendingPacket {
    pub dst_ip: Ipv4Addr,
    pub protocol: IpProtocol,
    pub payload: Vec<u8>,
}

#[derive(Debug)]
struct Pending {
    packets: Vec<PendingPacket>,
    /// Retransmissions already sent for this resolution.
    attempts: u32,
    first_requested: SimTime,
}

/// Where [`Resolver::enqueue`] put a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enqueued {
    /// Behind a new resolution: the caller transmits the first ARP
    /// request and arms the retransmit timer.
    Fresh,
    /// Behind a resolution already outstanding.
    Queued,
    /// Nowhere: the address's queue was full, and the packet is dropped.
    Overflow,
}

/// What to do when a resolution's retransmit timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetryTick {
    /// Retransmit the request and re-arm the timer after `next_delay`.
    Retransmit { next_delay: Duration },
    /// The resolution was abandoned; `dropped` packets were queued
    /// behind it.
    Exhausted { dropped: usize },
}

/// Tracks outstanding ARP requests and the packets queued behind them.
#[derive(Debug)]
pub(crate) struct Resolver {
    pending: FastMap<Ipv4Addr, Pending>,
    pub policy: RetryPolicy,
}

impl Resolver {
    pub fn new(policy: RetryPolicy) -> Self {
        Resolver { pending: FastMap::default(), policy }
    }

    /// The delay before the first retransmission, armed alongside the
    /// initial request.
    pub fn first_delay(&self) -> Duration {
        self.policy.interval_for(0)
    }

    /// True when a request for `ip` is outstanding.
    pub fn is_outstanding(&self, ip: Ipv4Addr) -> bool {
        self.pending.contains_key(&ip)
    }

    /// Queues the packet `build` makes behind the resolution of
    /// `next_hop`, at most [`MAX_QUEUE_PER_IP`] to an address. A packet
    /// the queue has no room for is never built.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        next_hop: Ipv4Addr,
        build: impl FnOnce() -> PendingPacket,
    ) -> Enqueued {
        match self.pending.get_mut(&next_hop) {
            Some(p) if p.packets.len() < MAX_QUEUE_PER_IP => {
                p.packets.push(build());
                Enqueued::Queued
            }
            Some(_) => Enqueued::Overflow,
            None => {
                self.pending.insert(
                    next_hop,
                    Pending { packets: vec![build()], attempts: 0, first_requested: now },
                );
                Enqueued::Fresh
            }
        }
    }

    /// Completes a resolution, returning the queued packets and the time
    /// the first request went out (for latency accounting).
    pub fn complete(&mut self, ip: Ipv4Addr) -> Option<(Vec<PendingPacket>, SimTime)> {
        self.pending.remove(&ip).map(|p| (p.packets, p.first_requested))
    }

    /// Burns one retry for `ip`. Returns `None` if nothing was
    /// outstanding; otherwise whether to retransmit (and after what
    /// backoff) or give up (the queue has been dropped).
    pub fn tick_retry(&mut self, ip: Ipv4Addr) -> Option<RetryTick> {
        let p = self.pending.get_mut(&ip)?;
        if p.attempts >= self.policy.max_retries {
            let dropped = self.pending.remove(&ip).map(|p| p.packets.len()).unwrap_or(0);
            return Some(RetryTick::Exhausted { dropped });
        }
        p.attempts += 1;
        // The timer that just fired waited `interval_for(attempts - 1)`;
        // the next one waits the next step of the backoff curve.
        Some(RetryTick::Retransmit { next_delay: self.policy.interval_for(p.attempts) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);

    fn pkt(n: u8) -> impl FnOnce() -> PendingPacket {
        move || PendingPacket { dst_ip: IP, protocol: IpProtocol::Udp, payload: vec![n] }
    }

    fn resolver() -> Resolver {
        Resolver::new(RetryPolicy::default())
    }

    #[test]
    fn first_enqueue_triggers_request() {
        let mut r = resolver();
        assert_eq!(r.enqueue(SimTime::ZERO, IP, pkt(1)), Enqueued::Fresh);
        assert_eq!(r.enqueue(SimTime::ZERO, IP, pkt(2)), Enqueued::Queued);
        assert!(r.is_outstanding(IP));
        let (packets, first) = r.complete(IP).unwrap();
        assert_eq!(packets.len(), 2);
        assert_eq!(first, SimTime::ZERO);
        assert!(!r.is_outstanding(IP));
    }

    #[test]
    fn queue_is_bounded() {
        let mut r = resolver();
        let mut built = 0;
        let overflowed = (0..40)
            .filter(|&n| {
                let build = || {
                    built += 1;
                    pkt(n)()
                };
                r.enqueue(SimTime::ZERO, IP, build) == Enqueued::Overflow
            })
            .count();
        assert_eq!(overflowed, 40 - MAX_QUEUE_PER_IP);
        assert_eq!(built, MAX_QUEUE_PER_IP, "an overflowing packet is never built");
        let (packets, _) = r.complete(IP).unwrap();
        assert_eq!(packets.len(), MAX_QUEUE_PER_IP);
    }

    #[test]
    fn retries_exhaust() {
        let mut r = resolver();
        r.enqueue(SimTime::ZERO, IP, pkt(1));
        r.enqueue(SimTime::ZERO, IP, pkt(2));
        let fixed = RetryTick::Retransmit { next_delay: Duration::from_secs(1) };
        assert_eq!(r.tick_retry(IP), Some(fixed));
        assert_eq!(r.tick_retry(IP), Some(fixed));
        assert_eq!(r.tick_retry(IP), Some(fixed));
        // Exhausted: the give-up reports how many packets it stranded.
        assert_eq!(r.tick_retry(IP), Some(RetryTick::Exhausted { dropped: 2 }));
        assert_eq!(r.tick_retry(IP), None);
        assert!(!r.is_outstanding(IP));
    }

    #[test]
    fn exponential_policy_schedules_growing_backoff() {
        let mut r = Resolver::new(RetryPolicy::exponential(
            Duration::from_millis(500),
            4,
            Duration::from_secs(2),
        ));
        assert_eq!(r.first_delay(), Duration::from_millis(500));
        r.enqueue(SimTime::ZERO, IP, pkt(1));
        let delays: Vec<Duration> = std::iter::from_fn(|| match r.tick_retry(IP) {
            Some(RetryTick::Retransmit { next_delay }) => Some(next_delay),
            _ => None,
        })
        .collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_secs(1),
                Duration::from_secs(2),
                Duration::from_secs(2),
                Duration::from_secs(2),
            ]
        );
        assert_eq!(r.tick_retry(IP), None, "give-up dropped the entry");
    }
}
