//! Schnorr signatures over `GF(2^127 - 1)*` with deterministic nonces.
//!
//! The scheme is the textbook one: for keypair `(x, y = g^x)`,
//! a signature on `m` is `(e, s)` where `r = g^k`, `e = H(r ‖ m)`,
//! `s = k - x·e (mod n)`. Verification recomputes `r' = g^s · y^e` and
//! accepts iff `H(r' ‖ m) = e`. Nonces are derived RFC 6979-style as
//! `k = HMAC(x, m)`, so signing needs no RNG and can never reuse a nonce
//! across distinct messages.

use crate::error::CryptoError;
use crate::field::{self, mulmod, pow, pow_g, submod, N, P};
use crate::hmac::hmac_sha256;
use crate::sha256::Sha256;

/// Serialized signature length in bytes (`e` ‖ `s`, 16 bytes each).
pub const SIGNATURE_LEN: usize = 32;

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The hash challenge.
    pub e: u128,
    /// The response scalar.
    pub s: u128,
}

impl Signature {
    /// Serializes to 32 bytes (`e` then `s`, big-endian).
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..16].copy_from_slice(&self.e.to_be_bytes());
        out[16..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses from bytes produced by [`Signature::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedSignature`] if `bytes` is not exactly
    /// [`SIGNATURE_LEN`] long or encodes out-of-range scalars.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != SIGNATURE_LEN {
            return Err(CryptoError::MalformedSignature);
        }
        let mut e = [0u8; 16];
        let mut s = [0u8; 16];
        e.copy_from_slice(&bytes[..16]);
        s.copy_from_slice(&bytes[16..]);
        let e = u128::from_be_bytes(e);
        let s = u128::from_be_bytes(s);
        if e >= N || s >= N {
            return Err(CryptoError::MalformedSignature);
        }
        Ok(Signature { e, s })
    }
}

/// A public verification key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    y: u128,
}

impl PublicKey {
    /// Builds a public key from its group element.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedSignature`] for out-of-group values.
    pub fn from_element(y: u128) -> Result<Self, CryptoError> {
        if y == 0 || y >= P {
            return Err(CryptoError::MalformedSignature);
        }
        Ok(PublicKey { y })
    }

    /// The raw group element.
    pub fn element(&self) -> u128 {
        self.y
    }

    /// Serializes to 16 bytes.
    pub fn to_bytes(&self) -> [u8; 16] {
        self.y.to_be_bytes()
    }

    /// Parses 16 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedSignature`] for truncated or
    /// out-of-group encodings.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let arr: [u8; 16] = bytes.try_into().map_err(|_| CryptoError::MalformedSignature)?;
        PublicKey::from_element(u128::from_be_bytes(arr))
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if the signature does not
    /// verify.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        // r' = g^s · y^e
        let r = field::mul(pow_g(signature.s), pow(self.y, signature.e));
        let e = challenge(r, message);
        if e == signature.e {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

/// A signing keypair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    x: u128,
    public: PublicKey,
}

impl KeyPair {
    /// Deterministically derives a keypair from a seed (hosts in the
    /// simulator key themselves off their device index).
    pub fn from_seed(seed: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"arpshield-keygen");
        h.update(&seed.to_be_bytes());
        let digest = h.finalize();
        let mut x_bytes = [0u8; 16];
        x_bytes.copy_from_slice(&digest[..16]);
        // x in [1, N)
        let x = (u128::from_be_bytes(x_bytes) % (N - 1)) + 1;
        let y = pow_g(x);
        KeyPair { x, public: PublicKey { y } }
    }

    /// The verification half.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let k_tag = hmac_sha256(&self.x.to_be_bytes(), message);
        let mut k_bytes = [0u8; 16];
        k_bytes.copy_from_slice(&k_tag[..16]);
        let k = (u128::from_be_bytes(k_bytes) % (N - 1)) + 1;
        let r = pow_g(k);
        let e = challenge(r, message);
        // s = k - x·e (mod n)
        let s = submod(k, mulmod(self.x, e, N), N);
        Signature { e, s }
    }
}

fn challenge(r: u128, message: &[u8]) -> u128 {
    let mut h = Sha256::new();
    h.update(&r.to_be_bytes());
    h.update(message);
    let digest = h.finalize();
    let mut e_bytes = [0u8; 16];
    e_bytes.copy_from_slice(&digest[..16]);
    u128::from_be_bytes(e_bytes) % N
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(42);
        let sig = kp.sign(b"10.0.0.1 is-at 02:00:00:00:00:2a");
        assert!(kp.public_key().verify(b"10.0.0.1 is-at 02:00:00:00:00:2a", &sig).is_ok());
    }

    #[test]
    fn rejects_tampered_message() {
        let kp = KeyPair::from_seed(1);
        let sig = kp.sign(b"binding A");
        assert_eq!(kp.public_key().verify(b"binding B", &sig), Err(CryptoError::InvalidSignature));
    }

    #[test]
    fn rejects_wrong_key() {
        let alice = KeyPair::from_seed(1);
        let mallory = KeyPair::from_seed(666);
        let sig = mallory.sign(b"forged claim");
        assert!(alice.public_key().verify(b"forged claim", &sig).is_err());
    }

    #[test]
    fn rejects_tampered_signature() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"msg");
        let bad_e = Signature { e: sig.e ^ 1, s: sig.s };
        let bad_s = Signature { e: sig.e, s: (sig.s + 1) % N };
        assert!(kp.public_key().verify(b"msg", &bad_e).is_err());
        assert!(kp.public_key().verify(b"msg", &bad_s).is_err());
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = KeyPair::from_seed(9);
        let sig = kp.sign(b"serialize me");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(kp.public_key().verify(b"serialize me", &parsed).is_ok());
    }

    #[test]
    fn malformed_signature_bytes_rejected() {
        assert_eq!(Signature::from_bytes(&[0; 31]), Err(CryptoError::MalformedSignature));
        assert_eq!(Signature::from_bytes(&[0xff; 32]), Err(CryptoError::MalformedSignature));
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let kp = KeyPair::from_seed(3);
        let pk = PublicKey::from_bytes(&kp.public_key().to_bytes()).unwrap();
        assert_eq!(pk, kp.public_key());
        assert!(PublicKey::from_bytes(&[0u8; 16]).is_err()); // zero not in group
        assert!(PublicKey::from_bytes(&[0u8; 15]).is_err());
    }

    #[test]
    fn deterministic_signing() {
        let kp = KeyPair::from_seed(5);
        assert_eq!(kp.sign(b"same message"), kp.sign(b"same message"));
        assert_ne!(kp.sign(b"message 1"), kp.sign(b"message 2"));
    }

    /// Round trips would pass with a generator table built from a wrong
    /// base; these bytes come from square-and-multiply `pow(G, _)`,
    /// which reads no table.
    #[test]
    fn keys_and_signatures_match_known_answers() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let cases: [(u64, &[u8], &str, &str); 4] = [
            (
                0,
                b"10.0.0.1 is-at 02:00:00:00:00:01",
                "4aa76d900f1cf197a397014f869a9305",
                "3aad39ce299826a54fa8f2a7f9da10cf60a111069a8fbeae9fe82e5bea2bad96",
            ),
            (
                42,
                b"binding A",
                "25afbfe179a4b9215c6f6a56b55e598e",
                "1610fcd7803462839d813f5ffc0102be49a67cffbb810eb3e4025345e0440744",
            ),
            (
                0xdead_beef_cafe,
                b"",
                "2997f9236bc89b190bd5ee87341bcbed",
                "64e53c068bcbd0df59d253dbb140ff7c6b0f16d7d27648d6d4dfaa03ab9a1212",
            ),
            (
                u64::MAX,
                b"arpshield",
                "01cef8b2e673c88b36c3b2263613b33e",
                "3ce8f968cb7c26abbefa5f8386e4cc68099f360db9a62f4c36c1ce2dbc74977f",
            ),
        ];
        for (seed, message, public, signature) in cases {
            let kp = KeyPair::from_seed(seed);
            assert_eq!(hex(&kp.public_key().to_bytes()), public, "seed {seed}");
            let sig = kp.sign(message);
            assert_eq!(hex(&sig.to_bytes()), signature, "seed {seed}");
            assert!(kp.public_key().verify(message, &sig).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = KeyPair::from_seed(1);
        let b = KeyPair::from_seed(2);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn many_roundtrips() {
        for seed in 0..20u64 {
            let kp = KeyPair::from_seed(seed);
            let msg = seed.to_be_bytes();
            let sig = kp.sign(&msg);
            assert!(kp.public_key().verify(&msg, &sig).is_ok(), "seed {seed}");
        }
    }
}
