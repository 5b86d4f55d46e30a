//! Deterministic seed derivation.
//!
//! Every experiment derives all of its randomness from one master `u64`
//! through SplitMix64, so reruns are bit-identical and trials are
//! statistically independent streams.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step: maps a state to the next pseudo-random output.
///
/// This is the standard finalizer from Steele, Lea & Flood (2014); it is a
/// bijection on `u64` with excellent avalanche behaviour, making it a good
/// key-derivation function for RNG seeds.
#[inline]
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream of derived seeds rooted at a master seed.
///
/// `SeedSequence::new(master).nth_seed(i)` is a pure function of
/// `(master, i)`: trial `i` always sees the same randomness no matter how
/// trials are scheduled (sequentially or across threads).
///
/// # Example
///
/// ```
/// use randcast_stats::seed::SeedSequence;
///
/// let s = SeedSequence::new(7);
/// assert_eq!(s.nth_seed(3), SeedSequence::new(7).nth_seed(3));
/// assert_ne!(s.nth_seed(3), s.nth_seed(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    #[must_use]
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed.
    #[must_use]
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the `i`-th seed.
    #[must_use]
    pub fn nth_seed(&self, i: u64) -> u64 {
        // Two rounds decorrelate (master, i) thoroughly.
        splitmix64(splitmix64(self.master ^ 0xA076_1D64_78BD_642F).wrapping_add(i))
    }

    /// Builds the RNG for trial `i`.
    #[must_use]
    pub fn nth_rng(&self, i: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.nth_seed(i))
    }

    /// Derives a child sequence for a named sub-experiment, so that two
    /// sub-experiments never share trial seeds.
    #[must_use]
    pub fn child(&self, label: u64) -> SeedSequence {
        SeedSequence {
            master: splitmix64(self.master.wrapping_add(0x9E37_79B9_7F4A_7C15 ^ label)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_known_values_differ() {
        // Bijection sanity: distinct inputs map to distinct outputs.
        let outs: Vec<u64> = (0..100).map(splitmix64).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
    }

    #[test]
    fn nth_seed_is_pure() {
        let s = SeedSequence::new(123);
        for i in 0..50 {
            assert_eq!(s.nth_seed(i), SeedSequence::new(123).nth_seed(i));
        }
    }

    #[test]
    fn different_masters_diverge() {
        let a = SeedSequence::new(1);
        let b = SeedSequence::new(2);
        assert_ne!(a.nth_seed(0), b.nth_seed(0));
    }

    #[test]
    fn children_do_not_collide_with_parent() {
        let s = SeedSequence::new(99);
        let c1 = s.child(1);
        let c2 = s.child(2);
        assert_ne!(c1.nth_seed(0), c2.nth_seed(0));
        assert_ne!(c1.nth_seed(0), s.nth_seed(0));
    }

    #[test]
    fn rng_is_reproducible() {
        let s = SeedSequence::new(5);
        let x: u64 = s.nth_rng(7).gen();
        let y: u64 = s.nth_rng(7).gen();
        assert_eq!(x, y);
    }
}
