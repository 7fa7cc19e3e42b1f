//! The ARP cache: the data structure the whole paper is about poisoning.

use std::time::Duration;

use arpshield_netsim::hash::FastMap;
use arpshield_netsim::SimTime;
use arpshield_packet::{Ipv4Addr, MacAddr};

/// How an entry got into the cache, for forensics and ground-truth checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryOrigin {
    /// Statically configured by the administrator (never expires, never
    /// overwritten dynamically).
    Static,
    /// Learned from a reply to a request this host sent.
    SolicitedReply,
    /// Learned from an unsolicited reply (including gratuitous replies).
    UnsolicitedReply,
    /// Learned from a sniffed or received request's sender fields.
    Request,
    /// Installed by a verification scheme (S-ARP, active probe) after it
    /// authenticated the binding.
    Verified,
}

/// One IP-to-MAC binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpEntry {
    /// The hardware address the IP currently maps to.
    pub mac: MacAddr,
    /// When the binding was last written.
    pub updated_at: SimTime,
    /// Provenance of the current binding.
    pub origin: EntryOrigin,
}

impl ArpEntry {
    /// True for statically configured entries.
    pub fn is_static(&self) -> bool {
        self.origin == EntryOrigin::Static
    }
}

/// A per-host ARP cache with entry timeout.
///
/// The cache itself is policy-free: *whether* a given ARP packet may
/// create or overwrite an entry is decided by
/// [`ArpPolicy`](crate::ArpPolicy); the cache only enforces the one
/// invariant every implementation shares — static entries are never
/// displaced dynamically.
#[derive(Debug, Clone)]
pub struct ArpCache {
    entries: FastMap<Ipv4Addr, ArpEntry>,
    timeout: Duration,
}

impl ArpCache {
    /// Creates a cache whose dynamic entries expire after `timeout`.
    pub fn new(timeout: Duration) -> Self {
        ArpCache { entries: FastMap::default(), timeout }
    }

    /// The configured entry timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Looks up a live binding. Expired dynamic entries return `None`.
    pub fn lookup(&self, now: SimTime, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries.get(&ip).and_then(|e| {
            if e.is_static() || now.saturating_since(e.updated_at) < self.timeout {
                Some(e.mac)
            } else {
                None
            }
        })
    }

    /// Returns the full entry (including expired ones), for inspection.
    pub fn entry(&self, ip: Ipv4Addr) -> Option<&ArpEntry> {
        self.entries.get(&ip)
    }

    /// Inserts or overwrites a dynamic binding. Static entries win: the
    /// write is refused (returns `false`) if a static entry exists.
    pub fn insert_dynamic(
        &mut self,
        now: SimTime,
        ip: Ipv4Addr,
        mac: MacAddr,
        origin: EntryOrigin,
    ) -> bool {
        debug_assert!(origin != EntryOrigin::Static, "use insert_static");
        match self.entries.get(&ip) {
            Some(e) if e.is_static() => false,
            _ => {
                self.entries.insert(ip, ArpEntry { mac, updated_at: now, origin });
                true
            }
        }
    }

    /// Installs a static binding, displacing anything dynamic.
    pub fn insert_static(&mut self, now: SimTime, ip: Ipv4Addr, mac: MacAddr) {
        self.entries.insert(ip, ArpEntry { mac, updated_at: now, origin: EntryOrigin::Static });
    }

    /// Removes a binding (static or not). Returns the removed entry.
    pub fn remove(&mut self, ip: Ipv4Addr) -> Option<ArpEntry> {
        self.entries.remove(&ip)
    }

    /// Drops expired dynamic entries; returns how many were evicted.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let timeout = self.timeout;
        let before = self.entries.len();
        self.entries.retain(|_, e| e.is_static() || now.saturating_since(e.updated_at) < timeout);
        before - self.entries.len()
    }

    /// Number of entries, including expired-but-unswept ones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(ip, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Addr, &ArpEntry)> {
        self.entries.iter()
    }

    /// Ground-truth helper for experiments: is `ip` currently bound to a
    /// MAC *other* than `legitimate` (i.e. poisoned)?
    pub fn is_poisoned(&self, now: SimTime, ip: Ipv4Addr, legitimate: MacAddr) -> bool {
        matches!(self.lookup(now, ip), Some(mac) if mac != legitimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const MAC_A: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 1]);
    const MAC_B: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 2]);

    fn cache() -> ArpCache {
        ArpCache::new(Duration::from_secs(60))
    }

    #[test]
    fn dynamic_entries_expire() {
        let mut c = cache();
        c.insert_dynamic(SimTime::ZERO, IP, MAC_A, EntryOrigin::SolicitedReply);
        assert_eq!(c.lookup(SimTime::from_secs(59), IP), Some(MAC_A));
        assert_eq!(c.lookup(SimTime::from_secs(60), IP), None);
    }

    #[test]
    fn static_entries_never_expire() {
        let mut c = cache();
        c.insert_static(SimTime::ZERO, IP, MAC_A);
        assert_eq!(c.lookup(SimTime::from_secs(1_000_000), IP), Some(MAC_A));
    }

    #[test]
    fn static_entries_resist_dynamic_overwrite() {
        let mut c = cache();
        c.insert_static(SimTime::ZERO, IP, MAC_A);
        assert!(!c.insert_dynamic(SimTime::ZERO, IP, MAC_B, EntryOrigin::UnsolicitedReply));
        assert_eq!(c.lookup(SimTime::ZERO, IP), Some(MAC_A));
    }

    #[test]
    fn dynamic_overwrite_updates_origin() {
        let mut c = cache();
        c.insert_dynamic(SimTime::ZERO, IP, MAC_A, EntryOrigin::Request);
        assert!(c.insert_dynamic(SimTime::from_secs(1), IP, MAC_B, EntryOrigin::UnsolicitedReply));
        let e = c.entry(IP).unwrap();
        assert_eq!(e.mac, MAC_B);
        assert_eq!(e.origin, EntryOrigin::UnsolicitedReply);
        assert_eq!(e.updated_at, SimTime::from_secs(1));
    }

    #[test]
    fn sweep_removes_only_expired_dynamics() {
        let mut c = cache();
        c.insert_static(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 1), MAC_A);
        c.insert_dynamic(SimTime::ZERO, IP, MAC_A, EntryOrigin::Request);
        c.insert_dynamic(
            SimTime::from_secs(30),
            Ipv4Addr::new(10, 0, 0, 3),
            MAC_B,
            EntryOrigin::Request,
        );
        assert_eq!(c.sweep(SimTime::from_secs(61)), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn poisoned_detection() {
        let mut c = cache();
        assert!(!c.is_poisoned(SimTime::ZERO, IP, MAC_A)); // no entry = not poisoned
        c.insert_dynamic(SimTime::ZERO, IP, MAC_A, EntryOrigin::SolicitedReply);
        assert!(!c.is_poisoned(SimTime::ZERO, IP, MAC_A));
        c.insert_dynamic(SimTime::ZERO, IP, MAC_B, EntryOrigin::UnsolicitedReply);
        assert!(c.is_poisoned(SimTime::ZERO, IP, MAC_A));
    }

    #[test]
    fn remove_returns_entry() {
        let mut c = cache();
        c.insert_dynamic(SimTime::ZERO, IP, MAC_A, EntryOrigin::Request);
        let removed = c.remove(IP).unwrap();
        assert_eq!(removed.mac, MAC_A);
        assert!(c.is_empty());
        assert!(c.remove(IP).is_none());
    }
}
