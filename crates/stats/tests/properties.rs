//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use randcast_stats::chernoff::{
    binomial_upper_tail, hoeffding_majority_error, ln_choose, phase_len_malicious_mp,
    phase_len_malicious_radio, phase_len_omission,
};
use randcast_stats::estimate::{Running, SuccessEstimate};
use randcast_stats::montecarlo::run_trials;
use randcast_stats::seed::{splitmix64, SeedSequence};

proptest! {
    #[test]
    fn splitmix_is_injective_on_samples(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(a == b, splitmix64(a) == splitmix64(b));
    }

    #[test]
    fn seed_sequence_is_pure(master in any::<u64>(), i in 0u64..10_000) {
        let s = SeedSequence::new(master);
        prop_assert_eq!(s.nth_seed(i), SeedSequence::new(master).nth_seed(i));
    }

    #[test]
    fn child_sequences_diverge(master in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let s = SeedSequence::new(master);
        prop_assert_ne!(s.child(a).nth_seed(0), s.child(b).nth_seed(0));
    }

    #[test]
    fn wilson_interval_is_sane(s in 0usize..=500, extra in 0usize..500, z in 0.1f64..4.0) {
        let t = s + extra + 1;
        let est = SuccessEstimate::new(s, t);
        let (lo, hi) = est.wilson_interval(z);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= est.rate() + 1e-12);
        prop_assert!(est.rate() <= hi + 1e-12);
        // Wider z ⇒ wider interval.
        let (lo2, hi2) = est.wilson_interval(z + 0.5);
        prop_assert!(lo2 <= lo + 1e-12 && hi <= hi2 + 1e-12);
    }

    #[test]
    fn binomial_tail_monotonicity(n in 1u64..60, k in 0u64..60, p in 0.0f64..1.0) {
        prop_assume!(k <= n);
        let t = binomial_upper_tail(n, k, p);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&t));
        if k > 0 {
            prop_assert!(binomial_upper_tail(n, k - 1, p) >= t - 1e-12);
        }
        // Monotone in p.
        let p2 = (p + 0.1).min(1.0);
        prop_assert!(binomial_upper_tail(n, k, p2) >= t - 1e-9);
    }

    #[test]
    fn binomial_tail_complements_sum_to_one(n in 1u64..40, p in 0.0f64..1.0) {
        // P(X >= 0) = 1 and P(X >= k) - P(X >= k+1) = P(X = k) >= 0.
        prop_assert!((binomial_upper_tail(n, 0, p) - 1.0).abs() < 1e-9);
        for k in 0..=n {
            let diff = binomial_upper_tail(n, k, p) - binomial_upper_tail(n, k + 1, p);
            prop_assert!(diff >= -1e-9);
        }
    }

    #[test]
    fn ln_choose_symmetry(n in 0u64..300, k in 0u64..300) {
        prop_assume!(k <= n);
        prop_assert!((ln_choose(n, k) - ln_choose(n, n - k)).abs() < 1e-6);
    }

    #[test]
    fn omission_phase_len_is_minimal_and_sufficient(
        n in 2usize..100_000,
        p in 0.01f64..0.99,
    ) {
        let m = phase_len_omission(n, p);
        let bound = 1.0 / (n as f64 * n as f64);
        prop_assert!(p.powi(m as i32) <= bound * (1.0 + 1e-9));
        if m > 1 {
            prop_assert!(p.powi(m as i32 - 1) > bound * (1.0 - 1e-9));
        }
    }

    #[test]
    fn malicious_mp_phase_len_is_sufficient(n in 2usize..100_000, p in 0.0f64..0.49) {
        let m = phase_len_malicious_mp(n, p);
        prop_assert!(m % 2 == 1);
        prop_assert!(
            hoeffding_majority_error(m as u64, p) <= 1.0 / (n as f64 * n as f64) + 1e-12
        );
    }

    #[test]
    fn malicious_radio_phase_len_is_odd_and_grows(
        n in 2usize..10_000,
        delta in 0usize..6,
    ) {
        // Pick p safely inside the feasible region.
        let p = randcast_stats::chernoff::make_odd(1) as f64 * 0.0 + 0.02;
        let m = phase_len_malicious_radio(n, p, delta);
        prop_assert!(m % 2 == 1);
        if delta > 0 {
            prop_assert!(phase_len_malicious_radio(n, p, delta - 1) <= m);
        }
    }

    #[test]
    fn parallel_trials_match_sequential(
        trials in 0usize..200,
        workers in 1usize..8,
        master in any::<u64>(),
    ) {
        use rand::Rng as _;
        // Contiguous trial ranges, as the sweep driver's workers take
        // them, run in reverse and each trial on `nth_rng(j)`.
        let seeds = SeedSequence::new(master);
        let seq = run_trials(trials, seeds, |rng| rng.gen::<u32>());
        let chunk = trials.div_ceil(workers).max(1);
        let mut par = vec![0u32; trials];
        for (w, slot) in par.chunks_mut(chunk).enumerate().rev() {
            for (off, out) in slot.iter_mut().enumerate() {
                *out = seeds.nth_rng((w * chunk + off) as u64).gen();
            }
        }
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn running_matches_naive_mean_variance(xs in proptest::collection::vec(-1e3f64..1e3, 2..50)) {
        let acc: Running = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((acc.mean() - mean).abs() < 1e-6);
        prop_assert!((acc.sample_variance() - var).abs() < 1e-4);
        prop_assert_eq!(acc.count(), xs.len() as u64);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(acc.min(), min);
        prop_assert_eq!(acc.max(), max);
    }
}
