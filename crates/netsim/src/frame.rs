//! Shared, immutable frame buffers.

use std::ops::Deref;
use std::rc::Rc;

use arpshield_packet::{EtherType, EthernetEmit, MacAddr, WireEmit};
use arpshield_trace::profile;

use crate::pool;

/// An immutable, reference-counted frame payload.
///
/// The simulator's hot path is fan-out: a hub repeats every ingress
/// frame to all other ports, and a switch floods broadcasts and copies
/// mirror spans. With `Vec<u8>` payloads each of those copies
/// re-allocated and re-copied the same bytes; a `Frame` makes every
/// copy a reference-count bump sharing one allocation. `Deref<Target = [u8]>` keeps all parsing code unchanged.
///
/// Buffers come from a recycling pool ([`crate::pool_stats`]): dropping
/// the last handle parks the allocation on a thread-local free list
/// and the next construction reuses it, so steady-state traffic
/// allocates nothing per frame. A frame stays on the thread that built
/// it, so the handle counts sharers with `Rc`, not atomics, and is not `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<arpshield_netsim::Frame>();
/// ```
///
/// Frames are immutable by construction — mutating a delivered payload
/// would retroactively rewrite the in-flight copies sharing it — so
/// devices that transform a frame build a fresh one.
pub struct Frame(Option<Rc<Vec<u8>>>);

impl Frame {
    /// The backing buffer. Only [`Drop`] vacates the slot, so every
    /// other method can rely on it being present.
    #[inline]
    fn buf(&self) -> &Rc<Vec<u8>> {
        self.0.as_ref().expect("frame buffer only vacated during drop")
    }

    /// Builds a frame by encoding in place into a recycled pool buffer.
    ///
    /// The closure receives a zeroed `len`-byte slice — the TX frame's
    /// final resting place — and returns the byte count it wrote, which
    /// must equal `len` (debug-asserted). With the in-place wire writers
    /// from `arpshield-packet` this is the zero-copy TX path: headers and
    /// payload are serialized straight into the pool allocation, so
    /// steady-state transmission allocates nothing per frame. The
    /// pre-zeroing doubles as Ethernet min-payload padding and guarantees
    /// a recycled buffer never exposes its previous tenant's bytes.
    pub fn build(len: usize, f: impl FnOnce(&mut [u8]) -> usize) -> Frame {
        // Every TX site funnels through here, so this one span covers
        // packet encode/emit for the whole workspace (the nested
        // pool.acquire span separates buffer acquisition from the
        // in-place encoding itself).
        let _s = profile::span("packet.encode");
        Frame(Some(pool::build(len, f)))
    }

    /// Encodes any in-place wire writer into a pooled frame.
    pub fn from_wire<P: WireEmit + ?Sized>(value: &P) -> Frame {
        Frame::build(value.wire_len(), |buf| value.emit(buf))
    }

    /// The payload length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.buf().len()
    }

    /// True for zero-length payloads.
    pub fn is_empty(&self) -> bool {
        self.buf().is_empty()
    }

    /// The payload as a byte slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[u8] {
        self.buf()
    }
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        Frame(self.0.clone())
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if let Some(rc) = self.0.take() {
            pool::recycle(rc);
        }
    }
}

impl Deref for Frame {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.buf()
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for Frame {
    fn from(bytes: &[u8]) -> Frame {
        Frame(Some(pool::build(bytes.len(), |buf| {
            buf.copy_from_slice(bytes);
            bytes.len()
        })))
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Frame {
        Frame::from(bytes.as_slice())
    }
}

impl<const N: usize> From<[u8; N]> for Frame {
    fn from(bytes: [u8; N]) -> Frame {
        Frame::from(bytes.as_slice())
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Frame {}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Frame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.as_slice() == other[..]
    }
}

/// Builds an Ethernet frame around any in-place payload writer, encoding
/// header, payload, and min-payload padding straight into a recycled pool
/// buffer — the one-liner every TX site uses:
///
/// ```rust
/// use arpshield_netsim::eth_frame;
/// use arpshield_packet::{ArpPacket, EtherType, Ipv4Addr, MacAddr};
///
/// let mac = MacAddr::from_index(1);
/// let arp = ArpPacket::request(mac, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
/// let frame = eth_frame(MacAddr::BROADCAST, mac, EtherType::ARP, &arp);
/// assert_eq!(frame.len(), 60); // 14-byte header + 28-byte ARP + padding
/// ```
pub fn eth_frame<P: WireEmit + ?Sized>(
    dst: MacAddr,
    src: MacAddr,
    ethertype: EtherType,
    payload: &P,
) -> Frame {
    Frame::from_wire(&EthernetEmit::new(dst, src, ethertype, payload))
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frame({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_buffer() {
        let a = Frame::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
    }

    #[test]
    fn derefs_like_a_slice() {
        let f = Frame::from(vec![9u8; 60]);
        assert_eq!(f.len(), 60);
        assert!(!f.is_empty());
        assert_eq!(f[0], 9);
        assert_eq!(&f[..3], &[9, 9, 9]);
        assert_eq!(f, vec![9u8; 60]);
        assert_eq!(f, *[9u8; 60].as_slice());
    }

    #[test]
    fn conversions_cover_common_sources() {
        let from_vec = Frame::from(vec![1, 2]);
        let from_slice = Frame::from([1u8, 2].as_slice());
        let from_array = Frame::from([1u8, 2]);
        assert_eq!(from_vec, from_slice);
        assert_eq!(from_vec, from_array);
        assert_eq!(format!("{from_vec:?}"), "Frame(2 bytes)");
    }

    /// Each test runs on its own thread, so the thread-local free list
    /// here is fully deterministic: last-dropped is first-reused.
    #[test]
    fn dropping_the_last_handle_recycles_the_buffer() {
        let first = Frame::from(vec![0xFF; 1500]);
        let ptr = first.as_slice().as_ptr();
        drop(first);
        let recycled = pool::pool_stats().recycled;
        let second = Frame::from(vec![0x01; 64]);
        assert!(std::ptr::eq(ptr, second.as_slice().as_ptr()), "allocation was reused");
        assert_eq!(pool::pool_stats().recycled, recycled + 1);
    }

    #[test]
    fn recycled_buffers_never_leak_stale_bytes() {
        let poison = Frame::from(vec![0xFF; 1500]);
        let ptr = poison.as_slice().as_ptr();
        drop(poison);
        let fresh = Frame::from(vec![0x01; 64]);
        assert!(std::ptr::eq(ptr, fresh.as_slice().as_ptr()), "buffer came from the pool");
        assert_eq!(fresh.len(), 64, "length is the new payload's, not the old capacity");
        assert!(fresh.iter().all(|&b| b == 0x01), "no stale poison bytes visible");
    }

    #[test]
    fn shared_buffers_are_not_recycled_until_the_last_drop() {
        let a = Frame::from(vec![7u8; 128]);
        let b = a.clone();
        drop(a);
        // `b` still owns the buffer: a new frame must not steal it.
        let c = Frame::from(vec![8u8; 16]);
        assert!(!std::ptr::eq(b.as_slice().as_ptr(), c.as_slice().as_ptr()));
        assert_eq!(b, vec![7u8; 128]);
    }
}
