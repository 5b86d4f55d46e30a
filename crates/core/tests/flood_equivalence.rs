//! Statistical equivalence of the bitset fast-path flood engine
//! (`randcast_engine::flood_fast`) and the general `MpNetwork` flood
//! (`randcast_core::flood::FloodPlan`).
//!
//! The two engines draw different RNG streams, so per-seed outcomes
//! differ; what must agree is the *distribution*: each round, each
//! informed node's transmitter works independently with probability
//! `1 − p` and informs all of its targets. These tests run ≥ 200
//! fixed-seed trials per engine per scenario and compare mean
//! completion rounds under a Welch-style confidence tolerance (4
//! standard errors — with fixed seeds the tests are deterministic, and
//! the margin makes the pinned draws comfortably interior).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_core::flood::{theorem_horizon, FloodPlan, FloodVariant};
use randcast_core::scenario::{
    Algorithm, GraphFamily, Model, Scenario, ShardSpec, FLOOD_FAST_MIN_N,
};
use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_graph::{generators, Graph};

const TRIALS: u64 = 250;

struct Sample {
    mean: f64,
    var: f64,
    n: f64,
}

fn summarize(rounds: &[f64]) -> Sample {
    let n = rounds.len() as f64;
    let mean = rounds.iter().sum::<f64>() / n;
    let var = rounds.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (n - 1.0);
    Sample { mean, var, n }
}

/// Welch tolerance: |m₁ − m₂| within 4 standard errors (plus a hair for
/// degenerate zero-variance cases like p = 0).
fn assert_means_close(label: &str, a: &Sample, b: &Sample) {
    let se = (a.var / a.n + b.var / b.n).sqrt();
    let tol = 4.0 * se + 1e-9;
    assert!(
        (a.mean - b.mean).abs() <= tol,
        "{label}: mp mean {:.3} vs fast mean {:.3} (tol {:.3})",
        a.mean,
        b.mean,
        tol
    );
}

fn compare_engines(label: &str, g: &Graph, p: f64, variant: FloodVariant) {
    let source = g.node(0);
    // Generous horizon so effectively every trial completes and the
    // mean is over the same (full) support for both engines.
    let horizon = 3 * theorem_horizon(g, source, p) + 60;
    let mp_plan = FloodPlan::with_horizon(g, source, horizon, variant);
    let fast_variant = match variant {
        FloodVariant::Tree => FastFloodVariant::Tree,
        FloodVariant::Graph => FastFloodVariant::Graph,
    };
    let fast_plan = FastFlood::new(g, source, horizon, fast_variant);

    let mp_rounds: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            mp_plan
                .run(g, FaultConfig::omission(p), seed)
                .completion_round()
                .unwrap_or_else(|| panic!("{label}: mp trial {seed} incomplete")) as f64
        })
        .collect();
    let fast_rounds: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            let out = fast_plan.run(p, seed);
            assert!(
                (out.informed_fraction() - 1.0).abs() < 1e-12,
                "{label}: fast trial {seed} incomplete"
            );
            out.completion_round().expect("complete") as f64
        })
        .collect();
    assert_means_close(label, &summarize(&mp_rounds), &summarize(&fast_rounds));
}

#[test]
fn tree_flood_means_agree_on_grid() {
    let g = generators::grid(8, 8);
    compare_engines("grid8x8 p=0.3", &g, 0.3, FloodVariant::Tree);
}

#[test]
fn tree_flood_means_agree_on_path_at_high_p() {
    // p = 0.8 exercises the geometric-skip sampler against MpNetwork.
    let g = generators::path(30);
    compare_engines("path30 p=0.8", &g, 0.8, FloodVariant::Tree);
}

#[test]
fn tree_flood_means_agree_on_random_graph() {
    let g = generators::gnp_connected(300, 0.02, &mut SmallRng::seed_from_u64(5));
    compare_engines("gnp300 p=0.2", &g, 0.2, FloodVariant::Tree);
}

#[test]
fn graph_flood_means_agree_on_cycle() {
    let g = generators::cycle(60);
    compare_engines("cycle60 p=0.5 graph-variant", &g, 0.5, FloodVariant::Graph);
}

#[test]
fn fault_free_engines_agree_exactly() {
    // At p = 0 both engines are deterministic and must agree per seed,
    // not just in distribution.
    for g in [
        generators::grid(7, 9),
        generators::balanced_tree(3, 4),
        generators::gnp_connected(200, 0.03, &mut SmallRng::seed_from_u64(8)),
    ] {
        let source = g.node(0);
        let horizon = theorem_horizon(&g, source, 0.0);
        let mp = FloodPlan::with_horizon(&g, source, horizon, FloodVariant::Tree)
            .run(&g, FaultConfig::fault_free(), 3)
            .completion_round();
        let fast = FastFlood::new(&g, source, horizon, FastFloodVariant::Tree)
            .run(0.0, 3)
            .completion_round();
        assert_eq!(mp, fast);
    }
}

#[test]
fn scenario_level_fast_and_general_floods_agree() {
    // End to end through the Scenario layer: the same spec executed by
    // the forced fast path and by the general engine (below the
    // auto-switch threshold) must produce matching mean times.
    let n = 400;
    let graph = GraphFamily::Gnp {
        n,
        avg_deg: 6,
        seed: 21,
    };
    assert!(n < FLOOD_FAST_MIN_N, "must exercise the general engine");
    let p = 0.4;
    let general = Scenario {
        graph,
        algorithm: Algorithm::Flood { horizon_scale: 3 },
        model: Model::Mp,
        fault: FaultConfig::omission(p),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid");
    assert!(!general.uses_fast_path());
    let fast = Scenario {
        graph,
        algorithm: Algorithm::FloodFast { horizon_scale: 3 },
        model: Model::Mp,
        fault: FaultConfig::omission(p),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid");
    assert!(fast.uses_fast_path());
    assert_eq!(general.rounds(), fast.rounds(), "same horizon prescription");

    let collect = |prep: &randcast_core::scenario::PreparedScenario| {
        (0..TRIALS)
            .map(|seed| {
                let out = prep.trial(seed);
                assert!(out.success, "trial {seed} incomplete");
                out.rounds.expect("completed trials report rounds")
            })
            .collect::<Vec<f64>>()
    };
    let (g_rounds, f_rounds) = (collect(&general), collect(&fast));
    assert_means_close(
        "scenario gnp400 p=0.4",
        &summarize(&g_rounds),
        &summarize(&f_rounds),
    );
}
