//! Fast 64-bit page checksums.
//!
//! The disk path must *detect* torn writes and bit rot rather than decode
//! garbage into triples (§4's disk-based runtime access is only viable if
//! a bad page is an error, not silent wrong answers). The checksum runs on
//! every page decode, so it must cost a small fraction of the decode
//! itself: this one processes the page as little-endian `u64` words with a
//! multiply-xor mix (SplitMix-style finalizer per word), touching each
//! byte once — roughly 1 mul + 2 xors per 8 bytes, far below the per-
//! triple cost of decoding.

/// Checksums `data` into 64 bits. Stable across platforms (little-endian
/// word reads by construction) and sensitive to single-bit flips anywhere
/// in the input.
///
/// Four independent accumulator lanes process 32 bytes per iteration so
/// the multiplies pipeline instead of forming one serial dependency
/// chain — that alone is ~4× over the naive word-at-a-time loop, and is
/// what keeps verification a small part of a cold block fetch. Each lane step is `(h ^ w) * odd-constant`,
/// which is invertible in `w`, so any single-word change flips its lane
/// and therefore the combined hash.
pub fn page_checksum(data: &[u8]) -> u64 {
    const M0: u64 = 0xBF58_476D_1CE4_E5B9;
    const M1: u64 = 0x94D0_49BB_1331_11EB;
    const M2: u64 = 0x2545_F491_4F6C_DD1D;
    const M3: u64 = 0x9E37_79B9_7F4A_7C15;
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("exact 8-byte chunk"));
    let mut h0: u64 = M3 ^ (data.len() as u64);
    let mut h1: u64 = 0x6A09_E667_F3BC_C909;
    let mut h2: u64 = 0xBB67_AE85_84CA_A73B;
    let mut h3: u64 = 0x3C6E_F372_FE94_F82B;
    let mut blocks = data.chunks_exact(32);
    for b in &mut blocks {
        h0 = (h0 ^ word(&b[0..8])).wrapping_mul(M0);
        h1 = (h1 ^ word(&b[8..16])).wrapping_mul(M1);
        h2 = (h2 ^ word(&b[16..24])).wrapping_mul(M2);
        h3 = (h3 ^ word(&b[24..32])).wrapping_mul(M3);
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for c in &mut chunks {
        h0 ^= word(c);
        h0 = h0.wrapping_mul(M0);
        h0 ^= h0 >> 29;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h0 ^= u64::from_le_bytes(tail);
        h0 = h0.wrapping_mul(M1);
        h0 ^= h0 >> 32;
    }
    // Fold the lanes together; each step is invertible in either input.
    let mut h = h0;
    h = (h ^ h1).wrapping_mul(M0);
    h ^= h >> 29;
    h = (h ^ h2).wrapping_mul(M1);
    h ^= h >> 31;
    h = (h ^ h3).wrapping_mul(M2);
    // Final avalanche so trailing-zero pages don't collapse.
    h = (h ^ (h >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let page = vec![7u8; 8192];
        assert_eq!(page_checksum(&page), page_checksum(&page));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let page = vec![0u8; 8192];
        let base = page_checksum(&page);
        // Positions cover every accumulator lane (0/8/16/24-byte offsets
        // within a 32-byte block) plus the scalar tail.
        for pos in [0usize, 1, 7, 8, 15, 16, 23, 24, 31, 4095, 8191] {
            let mut flipped = page.clone();
            flipped[pos] ^= 1;
            assert_ne!(base, page_checksum(&flipped), "flip at {pos} undetected");
        }
    }

    #[test]
    fn length_is_part_of_the_hash() {
        assert_ne!(page_checksum(&[0u8; 16]), page_checksum(&[0u8; 24]));
    }

    #[test]
    fn scalar_remainder_words_hash() {
        // 40 bytes = one 32-byte block + one scalar word.
        let base = vec![3u8; 40];
        let mut flipped = base.clone();
        flipped[36] ^= 1;
        assert_ne!(page_checksum(&base), page_checksum(&flipped));
    }

    #[test]
    fn non_multiple_of_eight_tails_hash() {
        let a = page_checksum(b"hello world");
        let mut v = b"hello world".to_vec();
        v[10] ^= 0x40;
        assert_ne!(a, page_checksum(&v));
    }
}
