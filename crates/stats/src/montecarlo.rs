//! Trial runners for Monte-Carlo experiments.
//!
//! Trial `i` observes the RNG stream `seeds.nth_rng(i)`, so an outcome
//! depends on its trial index alone, never on which other trials ran
//! or in what order. Running trials in parallel is the sweep driver's
//! job (`randcast_core::sweep`).

use rand::rngs::SmallRng;

use crate::seed::SeedSequence;

/// Runs `trials` independent trials sequentially, collecting each outcome.
///
/// # Example
///
/// ```
/// use randcast_stats::{montecarlo, seed::SeedSequence};
/// use rand::Rng;
///
/// let outcomes = montecarlo::run_trials(100, SeedSequence::new(1), |rng| rng.gen_bool(0.5));
/// assert_eq!(outcomes.len(), 100);
/// ```
pub fn run_trials<T, F>(trials: usize, seeds: SeedSequence, mut trial: F) -> Vec<T>
where
    F: FnMut(&mut SmallRng) -> T,
{
    (0..trials)
        .map(|i| {
            let mut rng = seeds.nth_rng(i as u64);
            trial(&mut rng)
        })
        .collect()
}

/// Convenience: count of `true` outcomes over `trials` boolean trials.
pub fn success_count<F>(trials: usize, seeds: SeedSequence, trial: F) -> usize
where
    F: FnMut(&mut SmallRng) -> bool,
{
    run_trials(trials, seeds, trial)
        .into_iter()
        .filter(|&b| b)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn sequential_is_deterministic() {
        let a = run_trials(50, SeedSequence::new(3), |rng| rng.gen::<u64>());
        let b = run_trials(50, SeedSequence::new(3), |rng| rng.gen::<u64>());
        assert_eq!(a, b);
    }

    /// A parallel runner (the sweep driver) hands each worker a
    /// contiguous range of trial indices and runs trial `j` on
    /// `nth_rng(j)`; ranges finished in any order rebuild the
    /// sequential outcome vector.
    #[test]
    fn parallel_matches_sequential() {
        let seeds = SeedSequence::new(9);
        let seq = run_trials(101, seeds, |rng| rng.gen::<u64>());
        for workers in [1usize, 2, 3, 8] {
            let chunk = 101usize.div_ceil(workers);
            let mut par = vec![0u64; 101];
            for (w, slot) in par.chunks_mut(chunk).enumerate().rev() {
                for (off, out) in slot.iter_mut().enumerate() {
                    *out = seeds.nth_rng((w * chunk + off) as u64).gen();
                }
            }
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn success_count_tracks_probability() {
        let c = success_count(2000, SeedSequence::new(17), |rng| rng.gen_bool(0.25));
        let rate = c as f64 / 2000.0;
        assert!((rate - 0.25).abs() < 0.05, "rate={rate}");
    }

    #[test]
    fn zero_trials_is_empty() {
        let v: Vec<bool> = run_trials(0, SeedSequence::new(0), |_| true);
        assert!(v.is_empty());
    }
}
