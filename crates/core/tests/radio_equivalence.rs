//! Statistical equivalence of the bitset fast-path radio kernel
//! (`randcast_engine::radio_fast`) and the trait-object Decay protocol
//! on `RadioNetwork` (`randcast_core::decay`).
//!
//! The two engines share the per-node Decay coin tapes
//! (`radio_fast::decay_tapes` / `decay_coin`), so their participation
//! schedules are identical per seed; only the omission-fault coins come
//! from different RNG streams. Consequences these tests pin:
//!
//! * at `p = 0` the engines agree **exactly, per seed** — same informed
//!   set, same per-round growth curve, same completion round;
//! * at `p > 0` per-seed outcomes differ but every distribution
//!   matches: 250 fixed-seed trials per engine per scenario, with mean
//!   completion rounds (or mean informed counts at a fixed horizon)
//!   compared under a Welch-style confidence tolerance (4 standard
//!   errors — with fixed seeds the tests are deterministic, and the
//!   margin makes the pinned draws comfortably interior).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_core::decay::{run_decay, DecayConfig};
use randcast_core::scenario::{
    Algorithm, GraphFamily, Model, Scenario, ShardSpec, RADIO_FAST_MIN_N,
};
use randcast_engine::fault::FaultConfig;
use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule};
use randcast_graph::{generators, traversal, Graph};

const TRIALS: u64 = 250;

struct Sample {
    mean: f64,
    var: f64,
    n: f64,
}

fn summarize(values: &[f64]) -> Sample {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (n - 1.0);
    Sample { mean, var, n }
}

/// Welch tolerance: |m₁ − m₂| within 4 standard errors (plus a hair for
/// degenerate zero-variance cases).
fn assert_means_close(label: &str, a: &Sample, b: &Sample) {
    let se = (a.var / a.n + b.var / b.n).sqrt();
    let tol = 4.0 * se + 1e-9;
    assert!(
        (a.mean - b.mean).abs() <= tol,
        "{label}: trait mean {:.3} vs fast mean {:.3} (tol {:.3})",
        a.mean,
        b.mean,
        tol
    );
}

fn classical_scaled(g: &Graph, factor: usize) -> DecayConfig {
    let mut cfg = DecayConfig::classical(g.node_count(), traversal::radius_from(g, g.node(0)));
    cfg.epochs *= factor;
    cfg
}

fn fast_plan(g: &Graph, cfg: DecayConfig) -> FastRadio {
    FastRadio::new(
        g,
        g.node(0),
        cfg.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: cfg.epoch_len,
        },
    )
}

/// Compares mean completion rounds; the horizon (via `factor`) must be
/// generous enough that every pinned trial completes on both engines.
fn compare_completion_means(label: &str, g: &Graph, p: f64, factor: usize) {
    let cfg = classical_scaled(g, factor);
    let fast = fast_plan(g, cfg);
    let trait_rounds: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            run_decay(g, g.node(0), cfg, FaultConfig::omission(p), seed)
                .completion_round()
                .unwrap_or_else(|| panic!("{label}: trait trial {seed} incomplete"))
                as f64
        })
        .collect();
    let fast_rounds: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            fast.run(p, seed)
                .completion_round()
                .unwrap_or_else(|| panic!("{label}: fast trial {seed} incomplete"))
                as f64
        })
        .collect();
    assert_means_close(label, &summarize(&trait_rounds), &summarize(&fast_rounds));
}

/// Compares mean informed *counts* at the end of a fixed horizon — no
/// completion requirement, so this works at high `p` where the horizon
/// would otherwise have to be enormous.
fn compare_informed_count_means(label: &str, g: &Graph, p: f64, factor: usize) {
    let cfg = classical_scaled(g, factor);
    let fast = fast_plan(g, cfg);
    let trait_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            run_decay(g, g.node(0), cfg, FaultConfig::omission(p), seed)
                .informed_at
                .iter()
                .filter(|i| i.is_some())
                .count() as f64
        })
        .collect();
    let fast_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| fast.run(p, seed).informed_count() as f64)
        .collect();
    assert_means_close(label, &summarize(&trait_counts), &summarize(&fast_counts));
}

#[test]
fn decay_means_agree_on_grid() {
    let g = generators::grid(6, 6);
    compare_completion_means("grid6x6 p=0.3", &g, 0.3, 3);
}

#[test]
fn decay_means_agree_on_random_graph() {
    let g = generators::gnp_connected(200, 0.03, &mut SmallRng::seed_from_u64(5));
    compare_completion_means("gnp200 p=0.2", &g, 0.2, 3);
}

#[test]
fn decay_means_agree_under_contention() {
    // Complete bipartite: maximal collision pressure — the regime the
    // back-off exists for.
    let g = generators::complete_bipartite(8, 8);
    compare_completion_means("K8,8 p=0.3", &g, 0.3, 4);
}

#[test]
fn decay_means_agree_at_high_p() {
    // p = 0.8 exercises the geometric-skip fault sampler against the
    // per-node coins of RadioNetwork; compare the transient (informed
    // count at a fixed horizon) instead of demanding completion.
    let g = generators::grid(5, 5);
    compare_informed_count_means("grid5x5 p=0.8 transient", &g, 0.8, 2);
}

#[test]
fn fault_free_engines_agree_exactly() {
    // At p = 0 no fault coin is ever drawn, the shared tapes fully
    // determine both executions, and the engines must agree per seed —
    // same informed set, growth curve, and completion round.
    for g in [
        generators::grid(7, 5),
        generators::path(20),
        generators::complete_bipartite(6, 9),
        generators::gnp_connected(150, 0.03, &mut SmallRng::seed_from_u64(8)),
    ] {
        let cfg = classical_scaled(&g, 2);
        let fast = fast_plan(&g, cfg);
        for seed in 0..10 {
            let reference = run_decay(&g, g.node(0), cfg, FaultConfig::fault_free(), seed);
            let out = fast.run(0.0, seed);
            assert_eq!(
                reference.completion_round(),
                out.completion_round(),
                "n={} seed={seed}",
                g.node_count()
            );
            for v in g.nodes() {
                assert_eq!(
                    reference.informed_at[v.index()].is_some(),
                    out.is_informed(v),
                    "n={} seed={seed} node {v}",
                    g.node_count()
                );
            }
            // Per-round growth curves: the fast kernel may stop early,
            // after which its count is constant.
            let curve = out.informed_by_round();
            for k in 0..=cfg.total_rounds() {
                let trait_count = reference
                    .informed_at
                    .iter()
                    .filter(|r| r.is_some_and(|at| at <= k))
                    .count();
                let fast_count = curve[k.min(curve.len() - 1)];
                assert_eq!(
                    trait_count,
                    fast_count,
                    "n={} seed={seed} round {k}",
                    g.node_count()
                );
            }
        }
    }
}

#[test]
fn scenario_level_decay_paths_agree() {
    // End to end through the Scenario layer: the same spec executed by
    // the forced fast path and by the trait-object engine (below the
    // auto-switch threshold) must produce matching mean times.
    let n = 200;
    let graph = GraphFamily::Gnp {
        n,
        avg_deg: 6,
        seed: 21,
    };
    assert!(n < RADIO_FAST_MIN_N, "must exercise the general engine");
    let p = 0.3;
    let general = Scenario {
        graph,
        algorithm: Algorithm::Decay { epoch_factor: 3 },
        model: Model::Radio,
        fault: FaultConfig::omission(p),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid");
    assert!(!general.uses_fast_path());
    let fast = Scenario {
        graph,
        algorithm: Algorithm::DecayFast { epoch_factor: 3 },
        model: Model::Radio,
        fault: FaultConfig::omission(p),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid");
    assert!(fast.uses_fast_path());
    assert_eq!(general.rounds(), fast.rounds(), "same classical horizon");

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
        "scenario gnp200 p=0.3",
        &summarize(&g_rounds),
        &summarize(&f_rounds),
    );
}
