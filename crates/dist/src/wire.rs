//! Byte-level primitives of the shard-state wire format: little-endian
//! fixed-width integers, bit-exact `f64` transport, and the XXH64
//! checksum. Everything here treats its input as untrusted — reads are
//! bounds-checked and report [`DistError::Truncated`] instead of panicking.

use crate::DistError;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte lane"))
}

/// One accumulator round of XXH64: folds an 8-byte lane into `acc`.
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

/// Merges one of the four stripe accumulators into the hash.
fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 with seed 0 over a byte slice — the file checksum and the digest
/// of the campaign fingerprint. XXH64 is not cryptographic; it guards
/// against truncation and bit rot, not tampering.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = xxh_round(*acc, le64(lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &acc| xxh_merge(h, acc))
    } else {
        PRIME64_5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let rest = words.remainder();
    for word in words {
        h = (h ^ xxh_round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    // `rest` holds 0–7 bytes: a 4-byte step if it can, then 1-byte steps.
    let (word4, rest) = rest.split_at(rest.len() & 4);
    if let Ok(word4) = <[u8; 4]>::try_from(word4) {
        h = (h ^ u64::from(u32::from_le_bytes(word4)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Appends a `u16` in little-endian order.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (lossless for every value,
/// including subnormals, infinities, and NaN payloads).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Bounds-checked cursor over untrusted shard-state bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes `n` bytes, failing with [`DistError::Truncated`] (naming
    /// `context`) if fewer are left.
    pub fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], DistError> {
        if self.remaining() < n {
            return Err(DistError::Truncated {
                context: context.to_string(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &str) -> Result<u16, DistError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, context: &str) -> Result<u8, DistError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &str) -> Result<u32, DistError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &str) -> Result<u64, DistError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` transported as its bit pattern.
    pub fn f64(&mut self, context: &str) -> Result<f64, DistError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Guards a length-prefixed allocation: `count` elements of `elem_size`
    /// bytes must still be present in the input. Called before any
    /// `Vec::with_capacity` driven by untrusted counts, so a forged length
    /// cannot trigger an absurd allocation.
    pub fn expect_elements(
        &self,
        count: usize,
        elem_size: usize,
        context: &str,
    ) -> Result<(), DistError> {
        let needed = count.checked_mul(elem_size).ok_or_else(|| {
            DistError::Malformed(format!("{context}: element count {count} overflows"))
        })?;
        if self.remaining() < needed {
            return Err(DistError::Truncated {
                context: context.to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_reference_vectors() {
        // Published XXH64 (seed 0) answers; the short inputs take only the
        // tail steps, the 43-byte one a stripe, an 8-byte and 1-byte steps.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
        // 39 bytes: a stripe, then the 4-byte step and three 1-byte steps.
        // The low 32 bits match the content checksum `zstd --check` writes.
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy"),
            0xE015_09EC_7BDD_4B5E
        );
    }

    #[test]
    fn integers_round_trip() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, 0x0123_4567_89AB_CDEF);
        put_f64(&mut out, -0.0);
        put_f64(&mut out, f64::NAN);
        let mut r = Reader::new(&out);
        assert_eq!(r.u16("a").unwrap(), 0xBEEF);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64("e").unwrap().is_nan());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_reads_are_truncated_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u32("field"),
            Err(DistError::Truncated { context }) if context == "field"
        ));
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn element_guard_blocks_forged_counts() {
        let r = Reader::new(&[0u8; 16]);
        assert!(r.expect_elements(2, 8, "ok").is_ok());
        assert!(matches!(
            r.expect_elements(3, 8, "big"),
            Err(DistError::Truncated { .. })
        ));
        assert!(matches!(
            r.expect_elements(usize::MAX, 8, "overflow"),
            Err(DistError::Malformed(_))
        ));
    }
}
