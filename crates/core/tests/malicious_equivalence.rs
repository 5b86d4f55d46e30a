//! Equivalence suite for the malicious fast-path kernels: the
//! [`FaultModel`]-driven bitset engines against the trait-object
//! adversary engines (`FlipMpAdversary` / `LieOrJamAdversary` /
//! `FlipRadioAdversary` behind `MpNetwork` / `RadioNetwork`).
//!
//! The engines draw corruption coins from different RNG streams, so at
//! `p > 0` per-seed outcomes differ; what must agree is the law. These
//! tests pin:
//!
//! * at `p = 0` no corruption coin ever fires and the executions agree
//!   **exactly** — the model kernels collapse byte-for-byte onto the
//!   plain-`p` omission lane replays, and the trait engines onto their
//!   fault-free runs;
//! * at `p > 0`, 250 fixed-seed trials per engine per scenario compare
//!   mean correct-node counts (Simple), correct informed counts at a
//!   fixed horizon (flood, Decay), under a Welch-style confidence
//!   tolerance (4 standard errors — with fixed seeds the tests are
//!   deterministic, and the margin makes the pinned draws comfortably
//!   interior);
//! * lane exactness: `run_batch_model` agrees lane for lane with
//!   `run_lane_model`, for the i.i.d. instances and for preprocessed
//!   [`WorstCasePlacement`] masks;
//! * shard neutrality: kernels over 2-, 3- and 7-shard stores reproduce
//!   their one-shard twins byte-for-byte under placement masks.
//!
//! [`FaultModel`]: randcast_engine::kernel::FaultModel
//! [`WorstCasePlacement`]: randcast_engine::kernel::WorstCasePlacement

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_core::decay::{run_decay, DecayConfig};
use randcast_core::flood::{theorem_horizon, FloodPlan, FloodVariant};
use randcast_core::scenario::{
    Algorithm, GraphFamily, Model, Scenario, ShardSpec, SIMPLE_FAST_MIN_N,
};
use randcast_core::simple::SimplePlan;
use randcast_engine::adversary::{FlipMpAdversary, LieOrJamAdversary};
use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_engine::kernel::{
    CorruptionKind, FaultModel, FlipFault, LieOrJamFault, Omission, WorstCasePlacement, LANES,
};
use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule};
use randcast_engine::simple_fast::FastSimple;
use randcast_graph::shard::ShardPlan;
use randcast_graph::{generators, traversal, Graph};

const TRIALS: u64 = 250;
const SOURCE_BIT: bool = true;

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

/// Mean correct-node counts: `SimplePlan` (majority vote) under the
/// given adversary vs `FastSimple` under the matching [`FaultModel`],
/// both with the same Theorem 2.2/2.4 phase length.
fn compare_simple_means<M: FaultModel>(
    label: &str,
    g: &Graph,
    plan: &SimplePlan,
    fault: FaultConfig,
    model: Model,
    fast_model: &M,
) {
    let fast = FastSimple::new(g, g.node(0), plan.phase_len());
    assert_eq!(fast.total_rounds(), plan.total_rounds(), "{label}");
    let trait_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            let out = match model {
                Model::Mp => plan.run_mp(g, fault, FlipMpAdversary, seed, SOURCE_BIT),
                Model::Radio => plan.run_radio(
                    g,
                    fault,
                    LieOrJamAdversary::new(SOURCE_BIT),
                    seed,
                    SOURCE_BIT,
                ),
            };
            out.correct_count(SOURCE_BIT) as f64
        })
        .collect();
    let fast_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| fast.run_lane_model(fast_model, seed, 0).correct_count() as f64)
        .collect();
    assert_means_close(label, &summarize(&trait_counts), &summarize(&fast_counts));
}

#[test]
fn simple_mp_malicious_means_agree_on_grid() {
    let g = generators::grid(6, 6);
    let p = 0.3;
    let plan = SimplePlan::malicious_mp(&g, g.node(0), p);
    compare_simple_means(
        "grid6x6 mp malicious p=0.3",
        &g,
        &plan,
        FaultConfig::malicious(p),
        Model::Mp,
        &FlipFault::new(p),
    );
}

#[test]
fn simple_mp_limited_malicious_means_agree_on_random_graph() {
    // The flip adversary never exceeds its intended targets, so the
    // limited clamp is a no-op and the same FlipFault law must hold.
    let g = generators::gnp_connected(120, 0.04, &mut SmallRng::seed_from_u64(5));
    let p = 0.25;
    let plan = SimplePlan::malicious_mp(&g, g.node(0), p);
    compare_simple_means(
        "gnp120 mp limited-malicious p=0.25",
        &g,
        &plan,
        FaultConfig::limited_malicious(p),
        Model::Mp,
        &FlipFault::new(p),
    );
}

#[test]
fn simple_radio_limited_malicious_means_agree() {
    // Under the limited clamp the lie-or-jam adversary reduces to the
    // lie rule — exactly the per-round law LieOrJamFault samples.
    let g = generators::grid(6, 6);
    let p = 0.05;
    let plan = SimplePlan::malicious_radio(&g, g.node(0), p);
    compare_simple_means(
        "grid6x6 radio limited-malicious p=0.05",
        &g,
        &plan,
        FaultConfig::limited_malicious(p),
        Model::Radio,
        &LieOrJamFault::new(p),
    );
}

/// Mean *correct* informed counts at the full horizon: trait flood
/// (flip adversary, correct-set reporting) vs the FlipFault fast path.
/// Under the flip adversary deliveries always succeed, so there is no
/// completion requirement to satisfy — the count is the statistic.
fn compare_flood_means(label: &str, g: &Graph, p: f64, variant: FloodVariant) {
    let source = g.node(0);
    let horizon = theorem_horizon(g, source, p);
    let mp_plan = FloodPlan::with_horizon(g, source, horizon, variant);
    let fast_variant = match variant {
        FloodVariant::Tree => FastFloodVariant::Tree,
        FloodVariant::Graph => FastFloodVariant::Graph,
    };
    let fast = FastFlood::new(g, source, horizon, fast_variant);
    let model = FlipFault::new(p);
    let trait_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            mp_plan
                .run(g, FaultConfig::malicious(p), seed)
                .informed_at
                .iter()
                .filter(|r| r.is_some())
                .count() as f64
        })
        .collect();
    let fast_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| fast.run_lane_model(&model, seed, 0).informed_count() as f64)
        .collect();
    assert_means_close(label, &summarize(&trait_counts), &summarize(&fast_counts));
}

#[test]
fn tree_flood_malicious_means_agree_on_random_graph() {
    let g = generators::gnp_connected(300, 0.02, &mut SmallRng::seed_from_u64(5));
    compare_flood_means("gnp300 malicious p=0.3", &g, 0.3, FloodVariant::Tree);
}

#[test]
fn graph_flood_malicious_means_agree_on_cycle() {
    // The cycle informs every non-antipodal node twice per level on
    // the graph variant, exercising the AND-composition of informing
    // contributions.
    let g = generators::cycle(60);
    compare_flood_means("cycle60 malicious p=0.4", &g, 0.4, FloodVariant::Graph);
}

#[test]
fn decay_limited_malicious_means_agree() {
    // The flip adversary preserves the fault-free participation and
    // collision schedule, so the compared statistic is the correct
    // informed count at a fixed horizon.
    let g = generators::grid(6, 6);
    let p = 0.3;
    let mut cfg = DecayConfig::classical(g.node_count(), traversal::radius_from(&g, g.node(0)));
    cfg.epochs *= 2;
    let fast = FastRadio::new(
        &g,
        g.node(0),
        cfg.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: cfg.epoch_len,
        },
    );
    let model = FlipFault::new(p);
    let trait_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            run_decay(&g, g.node(0), cfg, FaultConfig::limited_malicious(p), seed)
                .informed_at
                .iter()
                .filter(|r| r.is_some())
                .count() as f64
        })
        .collect();
    let fast_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| fast.run_lane_model(&model, seed, 0).informed_count() as f64)
        .collect();
    assert_means_close(
        "grid6x6 decay limited-malicious p=0.3",
        &summarize(&trait_counts),
        &summarize(&fast_counts),
    );
}

#[test]
fn omission_instance_is_byte_identical_to_the_wired_kernels() {
    // The trait layer's compatibility contract: running the `Omission`
    // instance through the model entry points must reproduce the plain-p
    // omission lane replays byte-for-byte, at any rate — the i.i.d.
    // Silent delegation plus site-addressed coin sharing make this
    // exact, not statistical.
    let lanes = [0u32, 31, 63];
    let g = generators::grid(5, 6);

    let simple = FastSimple::new(&g, g.node(0), 9);
    let flood = FastFlood::new(&g, g.node(0), 40, FastFloodVariant::Tree);
    let radio = FastRadio::new(
        &g,
        g.node(0),
        180,
        FastRadioSchedule::Decay { epoch_len: 6 },
    );
    for p in [0.0, 0.3, 0.76] {
        let model = Omission::new(p);
        for seed in 0..10u64 {
            for lane in lanes {
                assert_eq!(
                    simple.run_lane_model(&model, seed, lane),
                    simple.run_lane(p, seed, lane),
                    "simple p={p} seed {seed} lane {lane}"
                );
                assert_eq!(
                    flood.run_lane_model(&model, seed, lane),
                    flood.run_lane(p, seed, lane),
                    "flood p={p} seed {seed} lane {lane}"
                );
                assert_eq!(
                    radio.run_lane_model(&model, seed, lane),
                    radio.run_lane(p, seed, lane),
                    "radio p={p} seed {seed} lane {lane}"
                );
            }
        }
    }
}

#[test]
fn malicious_kernels_agree_with_omission_lanes_at_p_zero() {
    // At p = 0 a malicious model never corrupts, so every model lane
    // replay reaches the same correct set as the plain-p omission
    // replay of the same block. Timing conventions legitimately differ
    // for Simple — a majority vote settles at the end of its phase
    // while an omission adoption lands on the first clean transmission
    // — so the Simple check compares sets; the flood and Decay
    // schedules are round-exact and must match byte-for-byte.
    let lanes = [0u32, 31, 63];
    let g = generators::grid(5, 6);

    let simple = FastSimple::new(&g, g.node(0), 9);
    let flood = FastFlood::new(&g, g.node(0), 40, FastFloodVariant::Tree);
    let radio = FastRadio::new(
        &g,
        g.node(0),
        180,
        FastRadioSchedule::Decay { epoch_len: 6 },
    );
    for seed in 0..10u64 {
        for lane in lanes {
            let wired = simple.run_lane(0.0, seed, lane);
            for model in [
                &FlipFault::new(0.0) as &dyn FaultModel,
                &LieOrJamFault::new(0.0),
            ] {
                let out = simple.run_lane_model(model, seed, lane);
                assert!(out.complete(), "simple {} seed {seed}", model.name());
                for v in g.nodes() {
                    assert_eq!(
                        out.is_correct(v),
                        wired.is_correct(v),
                        "simple {} seed {seed} lane {lane} node {v}",
                        model.name()
                    );
                }
            }
            assert_eq!(
                flood.run_lane_model(&FlipFault::new(0.0), seed, lane),
                flood.run_lane(0.0, seed, lane),
                "flood seed {seed} lane {lane}"
            );
            assert_eq!(
                radio.run_lane_model(&FlipFault::new(0.0), seed, lane),
                radio.run_lane(0.0, seed, lane),
                "radio seed {seed} lane {lane}"
            );
        }
    }
}

#[test]
fn trait_and_fast_engines_agree_exactly_at_p_zero() {
    // With no faulty nodes the adversaries never fire: Simple and
    // flood are fully deterministic (every engine completes the same
    // schedule), and Decay's shared coin tapes make the trait run
    // coincide with the scalar fast run per seed.
    let g = generators::grid(5, 4);
    let source = g.node(0);

    for (model, fault) in [
        (Model::Mp, FaultConfig::malicious(0.0)),
        (Model::Radio, FaultConfig::limited_malicious(0.0)),
    ] {
        let plan = match model {
            Model::Mp => SimplePlan::malicious_mp(&g, source, 0.0),
            Model::Radio => SimplePlan::malicious_radio(&g, source, 0.0),
        };
        let fast = FastSimple::new(&g, source, plan.phase_len());
        for seed in 0..5 {
            let out = match model {
                Model::Mp => plan.run_mp(&g, fault, FlipMpAdversary, seed, SOURCE_BIT),
                Model::Radio => plan.run_radio(
                    &g,
                    fault,
                    LieOrJamAdversary::new(SOURCE_BIT),
                    seed,
                    SOURCE_BIT,
                ),
            };
            assert_eq!(out.correct_count(SOURCE_BIT), g.node_count(), "{model}");
            assert_eq!(out.rounds, plan.total_rounds());
            let fm: Box<dyn FaultModel> = match model {
                Model::Mp => Box::new(FlipFault::new(0.0)),
                Model::Radio => Box::new(LieOrJamFault::new(0.0)),
            };
            let fast_out = fast.run_lane_model(fm.as_ref(), seed, 0);
            assert!(fast_out.complete(), "{model} seed {seed}");
            assert_eq!(fast_out.completion_round(), Some(plan.total_rounds()));
        }
    }

    let horizon = theorem_horizon(&g, source, 0.0);
    let flood_plan = FloodPlan::with_horizon(&g, source, horizon, FloodVariant::Tree);
    let fast_flood = FastFlood::new(&g, source, horizon, FastFloodVariant::Tree);
    for seed in 0..5 {
        let reference = flood_plan.run(&g, FaultConfig::malicious(0.0), seed);
        let out = fast_flood.run_lane_model(&FlipFault::new(0.0), seed, 0);
        assert_eq!(reference.completion_round(), out.completion_round());
        for v in g.nodes() {
            assert_eq!(
                reference.informed_at[v.index()].is_some(),
                out.is_informed(v),
                "seed {seed} node {v}"
            );
        }
    }

    let cfg = DecayConfig::classical(g.node_count(), traversal::radius_from(&g, source));
    let fast_decay = FastRadio::new(
        &g,
        source,
        cfg.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: cfg.epoch_len,
        },
    );
    for seed in 0..5 {
        let reference = run_decay(&g, source, cfg, FaultConfig::limited_malicious(0.0), seed);
        let out = fast_decay.run(0.0, seed);
        assert_eq!(reference.completion_round(), out.completion_round());
        for v in g.nodes() {
            assert_eq!(
                reference.informed_at[v.index()].is_some(),
                out.is_informed(v),
                "seed {seed} node {v}"
            );
        }
    }
}

/// The malicious model instances exercised by the lane and shard
/// contracts: the two i.i.d. laws plus a preprocessed placement mask
/// per corruption kind.
fn placed(frac: f64, kind: CorruptionKind) -> WorstCasePlacement {
    WorstCasePlacement::new(frac, kind)
}

#[test]
fn malicious_batches_agree_lane_for_lane() {
    let g = generators::grid(5, 6);
    let seeds = [3u64, 77, 2005];

    let simple = FastSimple::new(&g, g.node(0), 9);
    let mut simple_placed = placed(0.25, CorruptionKind::Flip);
    simple.preprocess(&mut simple_placed);
    let simple_models: [&dyn FaultModel; 3] = [
        &FlipFault::new(0.3),
        &LieOrJamFault::new(0.2),
        &simple_placed,
    ];
    for model in simple_models {
        for &bs in &seeds {
            let batch = simple.run_batch_model(model, bs, !0);
            for lane in 0..LANES as u32 {
                assert_eq!(
                    batch.lane_outcome(lane),
                    simple.run_lane_model(model, bs, lane),
                    "simple {} block {bs} lane {lane}",
                    model.name()
                );
            }
        }
    }

    let flood = FastFlood::new(&g, g.node(0), 40, FastFloodVariant::Graph);
    let mut flood_placed = placed(0.25, CorruptionKind::Lie);
    flood.preprocess(&mut flood_placed);
    let flood_models: [&dyn FaultModel; 2] = [&FlipFault::new(0.4), &flood_placed];
    for model in flood_models {
        for &bs in &seeds {
            let batch = flood.run_batch_model(model, bs, !0);
            for lane in 0..LANES as u32 {
                assert_eq!(
                    batch.lane_outcome(lane),
                    flood.run_lane_model(model, bs, lane),
                    "flood {} block {bs} lane {lane}",
                    model.name()
                );
            }
        }
    }

    let radio = FastRadio::new(
        &g,
        g.node(0),
        180,
        FastRadioSchedule::Decay { epoch_len: 6 },
    );
    let mut radio_placed = placed(0.3, CorruptionKind::Flip);
    radio.preprocess(&mut radio_placed);
    let radio_models: [&dyn FaultModel; 2] = [&FlipFault::new(0.3), &radio_placed];
    for model in radio_models {
        for &bs in &seeds {
            let batch = radio.run_batch_model(model, bs, !0);
            for lane in 0..LANES as u32 {
                assert_eq!(
                    batch.lane_outcome(lane),
                    radio.run_lane_model(model, bs, lane),
                    "radio {} block {bs} lane {lane}",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn malicious_shards_are_neutral() {
    // Sharded execution is a traversal-order detail: a kernel over a
    // k-shard store must reproduce the same kernel over a one-shard
    // store byte-for-byte, including for placement masks whose
    // corrupted set was pinned by preprocessing, and for radio's
    // value-plane models. (The i.i.d. malicious laws are pinned at the
    // scenario level in shard_equivalence.rs.)
    let g = generators::grid(5, 6);
    let n = g.node_count();
    let bs = 2005u64;
    let lane = 5u32;
    let decay = FastRadioSchedule::Decay { epoch_len: 6 };

    let simple = FastSimple::new(&g, g.node(0), 9);
    let mut simple_placed = placed(0.25, CorruptionKind::Flip);
    simple.preprocess(&mut simple_placed);
    let flood = FastFlood::new(&g, g.node(0), 40, FastFloodVariant::Tree);
    let mut flood_placed = placed(0.25, CorruptionKind::Flip);
    flood.preprocess(&mut flood_placed);
    let radio = FastRadio::new(&g, g.node(0), 180, decay);
    let mut radio_placed = placed(0.3, CorruptionKind::Silent);
    radio.preprocess(&mut radio_placed);
    let radio_flip = FlipFault::new(0.3);
    let radio_lie = LieOrJamFault::new(0.3);
    let radio_models: [&dyn FaultModel; 3] = [&radio_placed, &radio_flip, &radio_lie];

    for shards in [2usize, 3, 7] {
        let plan = ShardPlan::uniform(n, shards);
        let sharded_simple = FastSimple::new(&g, g.node(0), 9).with_shard_plan(plan.clone());
        assert_eq!(
            sharded_simple.run_batch_model(&simple_placed, bs, !0),
            simple.run_batch_model(&simple_placed, bs, !0),
            "simple shards {shards}"
        );
        assert_eq!(
            sharded_simple.run_lane_model(&simple_placed, bs, lane),
            simple.run_lane_model(&simple_placed, bs, lane),
            "simple shards {shards} lane"
        );
        let sharded_flood =
            FastFlood::new(&g, g.node(0), 40, FastFloodVariant::Tree).with_shard_plan(plan.clone());
        assert_eq!(
            sharded_flood.run_batch_model(&flood_placed, bs, !0),
            flood.run_batch_model(&flood_placed, bs, !0),
            "flood shards {shards}"
        );
        assert_eq!(
            sharded_flood.run_lane_model(&flood_placed, bs, lane),
            flood.run_lane_model(&flood_placed, bs, lane),
            "flood shards {shards} lane"
        );
        let sharded_radio = FastRadio::new(&g, g.node(0), 180, decay).with_shard_plan(plan);
        for model in radio_models {
            assert_eq!(
                sharded_radio.run_batch_model(model, bs, !0),
                radio.run_batch_model(model, bs, !0),
                "radio {} shards {shards}",
                model.name()
            );
            assert_eq!(
                sharded_radio.run_lane_model(model, bs, lane),
                radio.run_lane_model(model, bs, lane),
                "radio {} shards {shards} lane",
                model.name()
            );
        }
    }
}

#[test]
fn scenario_level_malicious_simple_paths_agree() {
    // End to end through the Scenario layer: the same malicious spec
    // executed by the forced fast path and by the trait-object engine
    // (below the auto-switch threshold) must use the same Theorem 2.2
    // phase length and produce matching success rates.
    let n = 64;
    let graph = GraphFamily::Grid(8, 8);
    assert!(n < SIMPLE_FAST_MIN_N, "must exercise the general engine");
    let p = 0.3;
    let general = Scenario {
        graph,
        algorithm: Algorithm::Simple,
        model: Model::Mp,
        fault: FaultConfig::malicious(p),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid");
    assert!(!general.uses_fast_path());
    let fast = Scenario {
        graph,
        algorithm: Algorithm::SimpleFast { phase_len: None },
        model: Model::Mp,
        fault: FaultConfig::malicious(p),
        shards: ShardSpec::Auto,
    }
    .try_prepare()
    .expect("valid");
    assert!(fast.uses_fast_path());
    assert_eq!(general.phase_len(), fast.phase_len(), "same Theorem 2.2 m");
    assert_eq!(general.rounds(), fast.rounds());

    let rates = |prep: &randcast_core::scenario::PreparedScenario| {
        (0..TRIALS)
            .map(|seed| f64::from(u8::from(prep.trial(seed).success)))
            .collect::<Vec<f64>>()
    };
    let (g_rates, f_rates) = (rates(&general), rates(&fast));
    assert_means_close(
        "scenario grid8x8 mp malicious p=0.3",
        &summarize(&g_rates),
        &summarize(&f_rates),
    );
}
