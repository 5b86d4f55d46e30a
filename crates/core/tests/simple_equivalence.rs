//! Statistical equivalence of the geometric-draw fast-path Simple
//! kernel (`randcast_engine::simple_fast`) and the trait-object
//! `SimplePlan` automata on both general engines.
//!
//! Under omission faults the Simple schedule has a closed per-edge
//! structure (one transmitter per round, per-(node, round) fault coins
//! silencing all of a node's messages at once), which the fast kernel
//! samples directly. Consequences these tests pin:
//!
//! * at `p = 0` no fault coin is ever drawn and all three executions —
//!   `SimplePlan` on `MpNetwork`, `SimplePlan` on `RadioNetwork`, and
//!   `FastSimple` — agree **exactly, per seed**: every node holds the
//!   source bit and the schedule runs its full `n · m` rounds;
//! * at `p > 0` per-seed outcomes differ (different RNG streams) but
//!   every distribution matches: 250 fixed-seed trials per engine per
//!   scenario, comparing mean correct-node counts (and scenario-level
//!   success rates) under a Welch-style confidence tolerance (4
//!   standard errors — with fixed seeds the tests are deterministic,
//!   and the margin makes the pinned draws comfortably interior);
//! * the trait-object plan keeps the exact per-edge relay law on the
//!   tree it holds: a decided node's children all adopt its bit in its
//!   phase with probability `q = 1 − p^m`, independently across parents;
//! * under malicious faults its Majority vote makes the same per-edge
//!   events the two-state chain that `exact_laws.rs` checks on the fast
//!   kernel.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_core::scenario::{
    Algorithm, GraphFamily, Model, Scenario, ShardSpec, SIMPLE_FAST_MIN_N,
};
use randcast_core::simple::{SimplePlan, VoteMode};
use randcast_engine::adversary::FlipMpAdversary;
use randcast_engine::fault::FaultConfig;
use randcast_engine::mp::SilentMpAdversary;
use randcast_engine::radio::SilentRadioAdversary;
use randcast_engine::simple_fast::FastSimple;
use randcast_graph::{generators, Graph};
use randcast_stats::chernoff::{self, binomial_upper_tail};

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

/// Compares mean correct-node counts: `SimplePlan` in the given model
/// vs `FastSimple`, both with the Theorem 2.1 phase length for `p`.
fn compare_correct_count_means(label: &str, g: &Graph, p: f64, model: Model) {
    let plan = SimplePlan::omission_with_p(g, g.node(0), p);
    let fast = FastSimple::new(g, g.node(0), plan.phase_len());
    assert_eq!(fast.total_rounds(), plan.total_rounds(), "{label}");
    let trait_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| {
            let out = match model {
                Model::Mp => plan.run_mp(
                    g,
                    FaultConfig::omission(p),
                    SilentMpAdversary,
                    seed,
                    SOURCE_BIT,
                ),
                Model::Radio => plan.run_radio(
                    g,
                    FaultConfig::omission(p),
                    SilentRadioAdversary,
                    seed,
                    SOURCE_BIT,
                ),
            };
            out.correct_count(SOURCE_BIT) as f64
        })
        .collect();
    let fast_counts: Vec<f64> = (0..TRIALS)
        .map(|seed| fast.run(p, seed).correct_count() as f64)
        .collect();
    assert_means_close(label, &summarize(&trait_counts), &summarize(&fast_counts));
}

#[test]
fn correct_counts_agree_on_grid_mp() {
    let g = generators::grid(6, 6);
    compare_correct_count_means("grid6x6 p=0.3 mp", &g, 0.3, Model::Mp);
}

#[test]
fn correct_counts_agree_on_grid_radio() {
    let g = generators::grid(6, 6);
    compare_correct_count_means("grid6x6 p=0.3 radio", &g, 0.3, Model::Radio);
}

#[test]
fn correct_counts_agree_on_path_at_high_p() {
    // A path maximizes chain depth (every edge is load-bearing), and
    // p = 0.6 exercises real per-phase failure mass.
    let g = generators::path(15);
    compare_correct_count_means("path15 p=0.6 mp", &g, 0.6, Model::Mp);
}

#[test]
fn correct_counts_agree_on_random_graph() {
    let g = generators::gnp_connected(120, 0.04, &mut SmallRng::seed_from_u64(5));
    compare_correct_count_means("gnp120 p=0.4 mp", &g, 0.4, Model::Mp);
}

#[test]
fn correct_counts_agree_on_star_radio() {
    // Star from the center: one internal node, so the success law is
    // the sharpest possible check on the per-phase geometric draw.
    let g = generators::star(12);
    compare_correct_count_means("star12 p=0.5 radio", &g, 0.5, Model::Radio);
}

#[test]
fn fault_free_engines_agree_exactly() {
    // At p = 0 no fault coin is ever drawn: all three executions are
    // deterministic and must agree per seed — every node correct, full
    // n · m schedule.
    for g in [
        generators::grid(5, 4),
        generators::path(12),
        generators::star(9),
        generators::gnp_connected(80, 0.04, &mut SmallRng::seed_from_u64(8)),
    ] {
        let m = chernoff::phase_len_omission(g.node_count().max(2), 0.0);
        let plan = SimplePlan::omission_with_p(&g, g.node(0), 0.0);
        assert_eq!(plan.phase_len(), m);
        let fast = FastSimple::new(&g, g.node(0), m);
        for seed in 0..10 {
            let out = fast.run(0.0, seed);
            assert!(out.complete());
            assert_eq!(out.completion_round(), Some(plan.total_rounds()));
            let mp = plan.run_mp(
                &g,
                FaultConfig::fault_free(),
                SilentMpAdversary,
                seed,
                SOURCE_BIT,
            );
            let radio = plan.run_radio(
                &g,
                FaultConfig::fault_free(),
                SilentRadioAdversary,
                seed,
                SOURCE_BIT,
            );
            assert_eq!(mp.rounds, plan.total_rounds());
            assert_eq!(radio.rounds, plan.total_rounds());
            for v in g.nodes() {
                assert_eq!(
                    mp.values[v.index()],
                    Some(SOURCE_BIT),
                    "n={}",
                    g.node_count()
                );
                assert_eq!(radio.values[v.index()], Some(SOURCE_BIT));
                assert!(out.is_correct(v));
            }
        }
    }
}

#[test]
fn scenario_level_simple_paths_agree() {
    // End to end through the Scenario layer: the same spec executed by
    // the forced fast path and by the trait-object engine (below the
    // auto-switch threshold) must produce matching success rates.
    let n = 100;
    let graph = GraphFamily::Gnp {
        n,
        avg_deg: 6,
        seed: 21,
    };
    assert!(n < SIMPLE_FAST_MIN_N, "must exercise the general engine");
    let p = 0.55;
    for model in [Model::Mp, Model::Radio] {
        let general = Scenario {
            graph,
            algorithm: Algorithm::Simple,
            model,
            fault: FaultConfig::omission(p),
            shards: ShardSpec::Auto,
        }
        .try_prepare()
        .expect("valid");
        assert!(!general.uses_fast_path());
        let fast = Scenario {
            graph,
            algorithm: Algorithm::SimpleFast { phase_len: None },
            model,
            fault: FaultConfig::omission(p),
            shards: ShardSpec::Auto,
        }
        .try_prepare()
        .expect("valid");
        assert!(fast.uses_fast_path());
        assert_eq!(general.phase_len(), fast.phase_len(), "same Theorem 2.1 m");
        assert_eq!(general.rounds(), fast.rounds());

        let rates = |prep: &randcast_core::scenario::PreparedScenario| {
            (0..TRIALS)
                .map(|seed| f64::from(u8::from(prep.trial(seed).success)))
                .collect::<Vec<f64>>()
        };
        let (g_rates, f_rates) = (rates(&general), rates(&fast));
        assert_means_close(
            &format!("scenario gnp{n} p={p} {model}"),
            &summarize(&g_rates),
            &summarize(&f_rates),
        );
    }
}

/// Runs of the per-edge relay law per model, on fixed seeds.
const RELAY_RUNS: u64 = 400;

/// The per-edge relay law of `SimplePlan` under omission with
/// [`VoteMode::Any`], read off the plan's own tree. In its phase a node
/// sends its bit (the default 0 if undecided) to all of its children at
/// once, and a failed step silences every send, so the children share
/// the node's `m` fault coins: given a decided node holding `b`, all of
/// its children adopt `b` with probability `q = 1 − p^m`, or none does.
/// The coins are independent across nodes, so over every decided
/// internal node of every run the adoptions are `Bin(trials, q)`.
/// Returns the binomial z-score.
fn relay_law_z(model: Model) -> f64 {
    let g = generators::grid(8, 8);
    let (m, q) = (8, 0.3);
    let p = (1.0f64 - q).powf(1.0 / m as f64);
    let plan = SimplePlan::with_phase_len(&g, g.node(0), m, VoteMode::Any);
    let tree = plan.tree();
    let (mut trials, mut hits) = (0u64, 0u64);
    for seed in 0..RELAY_RUNS {
        let fault = FaultConfig::omission(p);
        let values = match model {
            Model::Mp => plan.run_mp(&g, fault, SilentMpAdversary, seed, SOURCE_BIT),
            Model::Radio => plan.run_radio(&g, fault, SilentRadioAdversary, seed, SOURCE_BIT),
        }
        .values;
        for &v in tree.order() {
            let (children, Some(bit)) = (tree.children_of(v as usize), values[v as usize]) else {
                continue;
            };
            let Some(&first) = children.first() else {
                continue;
            };
            let adopted = values[first as usize];
            for &c in children {
                assert_eq!(values[c as usize], adopted, "siblings under {v} disagree");
            }
            assert!(
                adopted.is_none() || adopted == Some(bit),
                "{v}'s child flipped"
            );
            trials += 1;
            hits += u64::from(adopted.is_some());
        }
    }
    binomial_z(trials, hits, q)
}

#[test]
fn trait_simple_relay_law_holds_per_edge_mp() {
    let z = relay_law_z(Model::Mp);
    assert!(z.abs() <= 4.5, "mp relay law: z = {z:.2}");
}

#[test]
fn trait_simple_relay_law_holds_per_edge_radio() {
    let z = relay_law_z(Model::Radio);
    assert!(z.abs() <= 4.5, "radio relay law: z = {z:.2}");
}

/// The binomial z-score of `hits` successes in `trials` at rate `q`.
fn binomial_z(trials: u64, hits: u64, q: f64) -> f64 {
    let t = trials as f64;
    (hits as f64 - t * q) / (t * q * (1.0 - q)).sqrt()
}

/// The per-edge law of `SimplePlan`'s [`VoteMode::Majority`] vote under
/// [`FlipMpAdversary`] at rate `p`. A child hears all `m` of its
/// parent's sends, `k ~ Bin(m, p)` of them flipped, and its siblings
/// hear the same bits. Under a correct parent the child ends correct
/// iff `k < m − ⌊m/2⌋` (α); under a wrong parent iff `k ≥ ⌊m/2⌋ + 1`
/// (β), a tie deciding `false`. Counts one event per internal node of
/// every run and returns the z-scores under α and β.
fn majority_chain_z(m: usize, p: f64) -> [f64; 2] {
    let g = generators::grid(8, 8);
    let plan = SimplePlan::with_phase_len(&g, g.node(0), m, VoteMode::Majority);
    let tree = plan.tree();
    // [under a correct parent, under a wrong one]: (events, correct children)
    let mut laws = [(0u64, 0u64); 2];
    for seed in 0..RELAY_RUNS {
        let fault = FaultConfig::malicious(p);
        let values = plan
            .run_mp(&g, fault, FlipMpAdversary, seed, SOURCE_BIT)
            .values;
        let correct = |v: u32| values[v as usize].expect("Majority decides") == SOURCE_BIT;
        for &v in tree.order() {
            let Some(&first) = tree.children_of(v as usize).first() else {
                continue;
            };
            let child = correct(first);
            for &c in tree.children_of(v as usize) {
                assert_eq!(correct(c), child, "siblings under {v} disagree");
            }
            let law = &mut laws[usize::from(!correct(v))];
            law.0 += 1;
            law.1 += u64::from(child);
        }
    }
    let alpha = 1.0 - binomial_upper_tail(m as u64, (m - m / 2) as u64, p);
    let beta = binomial_upper_tail(m as u64, (m / 2 + 1) as u64, p);
    [(laws[0], alpha), (laws[1], beta)].map(|((trials, hits), q)| {
        assert!(trials > 1_000, "m = {m}: {trials} events");
        binomial_z(trials, hits, q)
    })
}

#[test]
fn trait_simple_majority_chain_holds_per_edge_mp() {
    for m in [3, 4] {
        let [alpha_z, beta_z] = majority_chain_z(m, 0.3);
        assert!(
            alpha_z.abs() <= 4.5,
            "m = {m}, correct parents: z = {alpha_z:.2}"
        );
        assert!(
            beta_z.abs() <= 4.5,
            "m = {m}, wrong parents: z = {beta_z:.2}"
        );
    }
}
