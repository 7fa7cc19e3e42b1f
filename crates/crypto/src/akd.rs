//! The Authoritative Key Distributor (AKD) from S-ARP.
//!
//! S-ARP assumes one trusted host per LAN that maps protocol addresses to
//! public keys. This module is the registry itself; the *networked* AKD
//! host (answering lookups over UDP, with caching on the clients) lives in
//! `arpshield-schemes::sarp`, layered on top of this.
//!
//! Principals are identified by an opaque `u32` so this crate stays free
//! of packet-format dependencies; the S-ARP scheme uses the IPv4 address
//! in big-endian form.

use std::collections::HashMap;

use crate::error::CryptoError;
use crate::schnorr::PublicKey;

/// A registry mapping principal ids (IPv4 addresses as `u32`) to public
/// keys.
#[derive(Debug, Default, Clone)]
pub struct Akd {
    keys: HashMap<u32, PublicKey>,
}

impl Akd {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Akd::default()
    }

    /// Registers (or replaces) the key for a principal. Returns the
    /// previous key if one was registered.
    ///
    /// In S-ARP, enrolment happens out of band at host-provisioning time —
    /// which is exactly the management cost the paper's analysis charges
    /// the scheme with.
    pub fn register(&mut self, principal: u32, key: PublicKey) -> Option<PublicKey> {
        self.keys.insert(principal, key)
    }

    /// Removes a principal's key.
    pub fn revoke(&mut self, principal: u32) -> Option<PublicKey> {
        self.keys.remove(&principal)
    }

    /// Looks up the key for a principal.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownPrincipal`] when no key is registered.
    pub fn lookup(&self, principal: u32) -> Result<PublicKey, CryptoError> {
        self.keys.get(&principal).copied().ok_or(CryptoError::UnknownPrincipal(principal))
    }

    /// Number of enrolled principals.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no principals are enrolled.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::KeyPair;

    #[test]
    fn register_lookup_revoke() {
        let mut akd = Akd::new();
        assert!(akd.is_empty());
        let kp = KeyPair::from_seed(1);
        assert_eq!(akd.register(10, kp.public_key()), None);
        assert_eq!(akd.len(), 1);
        assert_eq!(akd.lookup(10), Ok(kp.public_key()));
        assert_eq!(akd.lookup(11), Err(CryptoError::UnknownPrincipal(11)));
        assert_eq!(akd.revoke(10), Some(kp.public_key()));
        assert_eq!(akd.lookup(10), Err(CryptoError::UnknownPrincipal(10)));
    }

    #[test]
    fn re_registration_returns_old_key() {
        let mut akd = Akd::new();
        let old = KeyPair::from_seed(1);
        let new = KeyPair::from_seed(2);
        akd.register(7, old.public_key());
        assert_eq!(akd.register(7, new.public_key()), Some(old.public_key()));
        assert_eq!(akd.lookup(7), Ok(new.public_key()));
    }

    #[test]
    fn attacker_key_does_not_verify_as_victim() {
        // The property S-ARP's prevention rests on: the AKD binds the IP to
        // the victim's key, so the attacker's signature over a forged
        // binding fails verification.
        let mut akd = Akd::new();
        let victim = KeyPair::from_seed(1);
        let attacker = KeyPair::from_seed(2);
        akd.register(0x0a00_0001, victim.public_key());
        let forged = attacker.sign(b"0a000001 is-at attacker-mac");
        let key = akd.lookup(0x0a00_0001).unwrap();
        assert!(key.verify(b"0a000001 is-at attacker-mac", &forged).is_err());
    }
}
