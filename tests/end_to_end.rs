//! End-to-end integration tests: every algorithm on every graph family,
//! exercised through the facade crate's public API exactly as a
//! downstream user would.

use randcast::core::experiment::run_success_trials;
use randcast::prelude::*;

/// Small graph zoo shared by the tests.
fn zoo() -> Vec<(&'static str, Graph)> {
    let mut seq = SeedSequence::new(7);
    let mut rng = seq.nth_rng(0);
    seq = seq.child(1);
    let mut rng2 = seq.nth_rng(0);
    vec![
        ("path", generators::path(12)),
        ("cycle", generators::cycle(13)),
        ("star", generators::star(9)),
        ("grid", generators::grid(4, 5)),
        ("torus", generators::torus(4, 4)),
        ("hypercube", generators::hypercube(4)),
        ("tree", generators::balanced_tree(3, 2)),
        ("broom", generators::broom(6, 5)),
        ("caterpillar", generators::caterpillar(5, 2)),
        ("binomial", generators::binomial_tree(4)),
        ("random-tree", generators::random_tree(25, &mut rng)),
        ("gnp", generators::gnp_connected(20, 0.15, &mut rng2)),
        ("lower-bound", generators::lower_bound_graph(4)),
    ]
}

#[test]
fn simple_omission_mp_is_almost_safe_on_all_families() {
    for (name, g) in zoo() {
        let p = 0.5;
        let plan = SimplePlan::omission_with_p(&g, g.node(0), p);
        let est = run_success_trials(60, SeedSequence::new(1), |seed| {
            plan.run_mp(&g, FaultConfig::omission(p), SilentMpAdversary, seed, true)
                .all_correct(true)
        });
        assert!(
            est.rate() >= 1.0 - 2.0 / g.node_count() as f64 - 0.05,
            "{name}: rate {}",
            est.rate()
        );
    }
}

#[test]
fn simple_omission_radio_is_almost_safe_on_all_families() {
    for (name, g) in zoo() {
        let p = 0.5;
        let plan = SimplePlan::omission_with_p(&g, g.node(0), p);
        let est = run_success_trials(60, SeedSequence::new(2), |seed| {
            plan.run_radio(
                &g,
                FaultConfig::omission(p),
                SilentRadioAdversary,
                seed,
                true,
            )
            .all_correct(true)
        });
        assert!(
            est.rate() >= 1.0 - 2.0 / g.node_count() as f64 - 0.05,
            "{name}: rate {}",
            est.rate()
        );
    }
}

#[test]
fn simple_malicious_mp_survives_flip_on_all_families() {
    for (name, g) in zoo() {
        let p = 0.3;
        let plan = SimplePlan::malicious_mp(&g, g.node(0), p);
        let est = run_success_trials(60, SeedSequence::new(3), |seed| {
            plan.run_mp(&g, FaultConfig::malicious(p), FlipMpAdversary, seed, true)
                .all_correct(true)
        });
        assert!(est.rate() >= 0.9, "{name}: rate {}", est.rate());
    }
}

#[test]
fn flood_completes_within_horizon_on_all_families() {
    for (name, g) in zoo() {
        let p = 0.4;
        let plan = FloodPlan::new(&g, g.node(0), p);
        let est = run_success_trials(60, SeedSequence::new(4), |seed| {
            plan.run(&g, FaultConfig::omission(p), seed).complete()
        });
        assert!(est.rate() >= 0.95, "{name}: rate {}", est.rate());
    }
}

#[test]
fn kucera_broadcast_succeeds_on_all_families() {
    for (name, g) in zoo() {
        let p = 0.35;
        let kb = KuceraBroadcast::new(&g, g.node(0), p).expect("p < 1/2 is feasible");
        let est = run_success_trials(40, SeedSequence::new(5), |seed| {
            kb.run(p, FailureBehavior::Flip, seed, true)
                .all_correct(true)
        });
        assert!(est.rate() >= 0.9, "{name}: rate {}", est.rate());
    }
}

#[test]
fn expanded_radio_omission_succeeds_on_all_families() {
    for (name, g) in zoo() {
        let p = 0.4;
        let base = greedy_schedule(&g, g.node(0));
        base.validate(&g, g.node(0)).expect(name);
        let plan = ExpandedPlan::omission(&g, g.node(0), &base, p);
        let est = run_success_trials(60, SeedSequence::new(6), |seed| {
            plan.run(
                &g,
                FaultConfig::omission(p),
                SilentRadioAdversary,
                seed,
                true,
            )
            .all_correct(true)
        });
        assert!(est.rate() >= 0.9, "{name}: rate {}", est.rate());
    }
}

#[test]
fn expanded_radio_malicious_survives_lie_or_jam() {
    for (name, g) in zoo() {
        let p_star = radio_threshold(g.max_degree());
        let p = p_star * 0.3;
        let base = greedy_schedule(&g, g.node(0));
        let plan = ExpandedPlan::malicious(&g, g.node(0), &base, p);
        let est = run_success_trials(40, SeedSequence::new(7), |seed| {
            plan.run(
                &g,
                FaultConfig::malicious(p),
                LieOrJamAdversary::new(true),
                seed,
                true,
            )
            .all_correct(true)
        });
        assert!(est.rate() >= 0.85, "{name}: rate {}", est.rate());
    }
}

#[test]
fn feasibility_predicates_match_thresholds() {
    // The three regimes agree with the paper's table of results.
    assert!(omission_feasible(0.99));
    assert!(malicious_mp_feasible(0.49));
    assert!(!malicious_mp_feasible(0.5));
    for delta in [1usize, 4, 16] {
        let t = radio_threshold(delta);
        assert!(malicious_radio_feasible(t * 0.99, delta));
        assert!(!malicious_radio_feasible(t * 1.01, delta));
    }
}

#[test]
fn fault_free_everything_succeeds_deterministically() {
    for (name, g) in zoo() {
        let source = g.node(0);
        let plan = SimplePlan::with_phase_len(&g, source, 1, VoteMode::Any);
        assert!(
            plan.run_mp(&g, FaultConfig::fault_free(), SilentMpAdversary, 0, true)
                .all_correct(true),
            "{name} mp"
        );
        assert!(
            plan.run_radio(&g, FaultConfig::fault_free(), SilentRadioAdversary, 0, true)
                .all_correct(true),
            "{name} radio"
        );
        let flood = FloodPlan::new(&g, source, 0.0);
        assert!(
            flood.run(&g, FaultConfig::fault_free(), 0).complete(),
            "{name} flood"
        );
    }
}

#[test]
fn both_source_bits_are_broadcast_faithfully() {
    let g = generators::grid(4, 4);
    let p = 0.3;
    let plan = SimplePlan::malicious_mp(&g, g.node(0), p);
    for bit in [false, true] {
        let est = run_success_trials(40, SeedSequence::new(8), |seed| {
            plan.run_mp(&g, FaultConfig::malicious(p), FlipMpAdversary, seed, bit)
                .all_correct(bit)
        });
        assert!(est.rate() >= 0.9, "bit={bit}: rate {}", est.rate());
    }
}
