//! The workspace's one 64-bit mixing hash: SplitMix64 (Steele, Lea and
//! Flood, 2014).
//!
//! [`mix64`] is the stateless form — a bijective, well-avalanched
//! `u64 → u64` used for seeded placement (`HashOwner`), edge rejection
//! (`EdgeHash`), fault schedules and cache set indices. [`splitmix64`]
//! is the stream form that drives seeded eviction. Both are `#[inline]`
//! because callers in other crates invoke them once per arc.

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output for state `x`: adds the golden gamma, then applies
/// the two xor-shift-multiply rounds of the finalizer.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Next value of the SplitMix64 stream at `state`, advancing it.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GAMMA);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_values() {
        // The reference SplitMix64 stream seeded with 0.
        let mut state = 0u64;
        let stream: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        let want = [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F];
        assert_eq!(stream, want);
        assert_eq!(state, GAMMA.wrapping_mul(3));
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(mix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }
}
