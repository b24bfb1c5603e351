//! Deterministic randomness plumbing.
//!
//! Every experiment in the workspace must be exactly reproducible, so
//! all randomness flows from explicit seeds. Sub-seeds are derived with
//! a SplitMix64 step so that independent components (LWE matrix
//! expansion, noise sampling, corpus generation, …) never share a
//! stream.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::simd;
use crate::zq::Word;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Expands a seed into words in bulk: `out[i]` is `W::from_u64` of the
/// `i`-th `u64` that `seeded_rng(seed)` yields (a `u32` word is the
/// truncation of one `u64`), produced by the dispatched multi-block
/// keystream kernel without constructing the generator. This is how
/// the RLWE `a` polynomials are streamed from their seeds; `MatrixA`
/// reads the same stream from a row's block on.
pub fn expand_seed<W: Word>(seed: u64, out: &mut [W]) {
    simd::keystream(simd::tier(), &StdRng::key_from_u64(seed), 0, out);
}

/// Derives an independent sub-seed from a parent seed and a domain tag.
///
/// Uses the SplitMix64 finalizer, which is a bijective mixer with full
/// avalanche; distinct `(seed, tag)` pairs give unrelated streams.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn expand_seed_is_the_seeded_stream() {
        let mut rng = seeded_rng(42);
        let want: Vec<u64> = (0..100).map(|_| rng.gen()).collect();
        let mut wide = vec![0u64; 100];
        let mut narrow = vec![0u32; 100];
        expand_seed(42, &mut wide);
        expand_seed(42, &mut narrow);
        assert_eq!(wide, want);
        assert_eq!(narrow, want.iter().map(|&w| w as u32).collect::<Vec<_>>());
    }

    #[test]
    fn different_tags_give_different_seeds() {
        let s = 1234567;
        let derived: Vec<u64> = (0..32).map(|t| derive_seed(s, t)).collect();
        let mut unique = derived.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), derived.len());
    }

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }
}
