//! The RFC 1071 Internet checksum used by IPv4, ICMP and UDP.

/// Incremental Internet-checksum accumulator.
///
/// Feed it header and payload slices (and pseudo-header words) in any order,
/// then call [`Checksum::finish`] for the one's-complement result.
///
/// ```rust
/// use arpshield_packet::Checksum;
///
/// let mut sum = Checksum::new();
/// sum.add_bytes(&[0x45, 0x00, 0x00, 0x1c]);
/// sum.add_u16(0x1234);
/// let _folded: u16 = sum.finish();
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    /// One's-complement sum with end-around carry. Since `2^64 - 1` is
    /// a multiple of `2^16 - 1`, it folds to the same 16 bits as a sum
    /// of the words it was fed, whatever their width.
    sum: u64,
    /// High byte of a half-filled word: an odd trailing byte from
    /// [`Checksum::add_bytes`] waits here for the next call's first byte,
    /// so a buffer fed in slices sums identically at any split points.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        Checksum { sum: 0, pending: None }
    }

    /// Adds one big-endian 16-bit word.
    ///
    /// Word-granular additions (including the pseudo-header helpers) are
    /// independent of the byte stream: they do not consume or disturb a
    /// pending odd byte from [`Checksum::add_bytes`].
    pub fn add_u16(&mut self, word: u16) {
        self.add_u64(u64::from(word));
    }

    /// Adds a 32-bit value as two 16-bit words (used for pseudo-header
    /// addresses).
    pub fn add_u32(&mut self, value: u32) {
        self.add_u16((value >> 16) as u16);
        self.add_u16((value & 0xffff) as u16);
    }

    /// Adds a byte slice. An odd trailing byte is carried into the next
    /// `add_bytes` call, so chunked feeding matches the whole-buffer sum
    /// regardless of where the splits fall; a byte still pending at
    /// [`Checksum::finish`] is zero-padded per RFC 1071.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        if let Some(high) = self.pending.take() {
            match bytes.split_first() {
                Some((low, rest)) => {
                    self.add_u16(u16::from_be_bytes([high, *low]));
                    bytes = rest;
                }
                None => {
                    self.pending = Some(high);
                    return;
                }
            }
        }
        let (chunks, rest) = bytes.as_chunks::<8>();
        for chunk in chunks {
            self.add_u64(u64::from_be_bytes(*chunk));
        }
        let (words, rest) = rest.as_chunks::<2>();
        for word in words {
            self.add_u16(u16::from_be_bytes(*word));
        }
        if let [last] = rest {
            self.pending = Some(*last);
        }
    }

    /// Adds `value` with end-around carry: four big-endian words at
    /// once, or a single one.
    fn add_u64(&mut self, value: u64) {
        let (sum, carry) = self.sum.overflowing_add(value);
        self.sum = sum + u64::from(carry);
    }

    /// Folds carries and returns the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(high) = self.pending.take() {
            self.add_u16(u16::from_be_bytes([high, 0]));
        }
        while self.sum >> 16 != 0 {
            self.sum = (self.sum & 0xffff) + (self.sum >> 16);
        }
        !(self.sum as u16)
    }
}

/// Computes the Internet checksum of a single buffer.
///
/// A buffer containing a correct checksum field verifies to zero:
///
/// ```rust
/// use arpshield_packet::internet_checksum;
///
/// let mut header = vec![0x45u8, 0x00, 0x00, 0x14, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2];
/// let ck = internet_checksum(&header);
/// header[10..12].copy_from_slice(&ck.to_be_bytes());
/// assert_eq!(internet_checksum(&header), 0);
/// ```
pub fn internet_checksum(bytes: &[u8]) -> u16 {
    let mut sum = Checksum::new();
    sum.add_bytes(bytes);
    sum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_reference_vector() {
        // Example from RFC 1071 section 3: words 0x0001 0xf203 0xf4f5 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // The running sum is 0x2ddf0 -> folded 0xddf2 -> complement 0x220d.
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn empty_buffer_checksums_to_all_ones() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn verifying_includes_the_stored_checksum() {
        let mut buf = vec![0x12, 0x34, 0x00, 0x00, 0x56, 0x78];
        let ck = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).collect();
        let mut inc = Checksum::new();
        inc.add_bytes(&data[..100]);
        inc.add_bytes(&data[100..101]); // odd split: byte carried, not padded
        inc.add_bytes(&data[101..]);
        assert_eq!(inc.finish(), internet_checksum(&data));
        let mut even = Checksum::new();
        even.add_bytes(&data[..100]);
        even.add_bytes(&data[100..]);
        assert_eq!(even.finish(), internet_checksum(&data));
    }

    #[test]
    fn odd_splits_carry_across_calls() {
        // 0xab 0xcd fed one byte at a time must sum as the word 0xabcd,
        // not as two padded words 0xab00 + 0xcd00.
        let mut inc = Checksum::new();
        inc.add_bytes(&[0xab]);
        inc.add_bytes(&[0xcd]);
        assert_eq!(inc.finish(), internet_checksum(&[0xab, 0xcd]));
        // An empty slice between odd chunks keeps the pending byte intact.
        let mut inc = Checksum::new();
        inc.add_bytes(&[0xab]);
        inc.add_bytes(&[]);
        inc.add_bytes(&[0xcd, 0xef]);
        assert_eq!(inc.finish(), internet_checksum(&[0xab, 0xcd, 0xef]));
    }

    #[test]
    fn pending_byte_pads_at_finish() {
        let mut inc = Checksum::new();
        inc.add_bytes(&[0x12, 0x34, 0x56]);
        assert_eq!(inc.finish(), internet_checksum(&[0x12, 0x34, 0x56]));
    }

    #[test]
    fn add_u32_equals_two_words() {
        let mut a = Checksum::new();
        a.add_u32(0xc0a80001);
        let mut b = Checksum::new();
        b.add_u16(0xc0a8);
        b.add_u16(0x0001);
        assert_eq!(a.finish(), b.finish());
    }
}
