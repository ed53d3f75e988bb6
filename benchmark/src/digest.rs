//! Word-wise reply digests.
//!
//! Expected replies are computed through the independent `kron_core`
//! oracle path *before* the clock starts and kept only as 64-bit
//! digests; on receipt the harness digests the reply and compares two
//! words. Oracle work therefore never lands in a timed window, and the
//! check still covers every byte of every reply.

const K: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn step(h: u64, w: u64) -> u64 {
    (h.rotate_left(23) ^ w).wrapping_mul(K)
}

#[inline]
fn finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of a row of `u64` words (length included).
pub fn words(ws: &[u64]) -> u64 {
    let mut h = step(K, ws.len() as u64);
    for &w in ws {
        h = step(h, w);
    }
    finish(h)
}

/// Digest of a byte string (length included), read as little-endian
/// words with a zero-padded tail.
pub fn bytes(b: &[u8]) -> u64 {
    let mut h = step(K, b.len() as u64);
    let mut chunks = b.chunks_exact(8);
    for c in &mut chunks {
        h = step(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    finish(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_every_word_and_the_length() {
        assert_ne!(words(&[1, 2, 3]), words(&[1, 2, 4]));
        assert_ne!(words(&[1, 2, 3]), words(&[1, 3, 2]));
        assert_ne!(words(&[0]), words(&[0, 0]));
        assert_ne!(bytes(&[0; 9]), bytes(&[0; 10]));
        let mut b = vec![7u8; 33];
        let d = bytes(&b);
        b[32] ^= 1;
        assert_ne!(bytes(&b), d);
    }
}
