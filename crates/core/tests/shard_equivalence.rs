//! Sharded-vs-monolithic equivalence suite for the shard-at-a-time
//! fast paths.
//!
//! For 250 fixed block seeds per engine, a [`PreparedScenario`] with
//! `shards: ShardSpec::Fixed(k)` (k ∈ {2, 3, 7}) must agree
//! **element-wise, byte-for-byte** with the monolithic
//! `ShardSpec::Fixed(1)` prepare of the same scenario — for the batched
//! [`trial_block`] entry point and for the scalar [`trial_lane`] replay.
//! This is the outcome-neutrality contract of the shard knob: coins are
//! site-addressed pure functions and each round's evolution is
//! set-based, so partitioning the frontier passes by node range can
//! never change a bit (see `DESIGN.md`, *Shard-view substrate*).
//!
//! The seeds cycle over graph family × fault × failure probability ×
//! shard count cells (grid / G(n,p) / random-geometric × p ∈ {0, 0.3,
//! 0.76, 0.9} × k ∈ {2, 3, 7}), so the suite covers the p = 0 exact
//! curve, the heavy-failure corner, and a possibly-disconnected
//! random-geometric cell whose source component stops short of the
//! shard bounds. Each engine runs omission cells plus the malicious
//! cells of its `FaultModel`: flip flood and flip Simple in MP,
//! limited-malicious (flip) Decay, and lie-or-jam Simple in radio.
//!
//! [`PreparedScenario`]: randcast_core::scenario::PreparedScenario
//! [`trial_block`]: randcast_core::scenario::PreparedScenario::trial_block
//! [`trial_lane`]: randcast_core::scenario::PreparedScenario::trial_lane

use rand::rngs::SmallRng;
use rand::SeedableRng;
use randcast_core::scenario::{
    Algorithm, GraphFamily, Model, PreparedScenario, Scenario, ShardSpec,
};
use randcast_core::sweep::BATCH_LANES;
use randcast_engine::fault::{FaultConfig, FaultKind};
use randcast_engine::flood_fast::ShardedFlood;
use randcast_engine::radio_fast::{FastRadioSchedule, ShardedRadio};
use randcast_engine::simple_fast::ShardedSimple;
use randcast_graph::generators::gnp_connected;
use randcast_graph::shard::{
    default_scratch_dir, ShardPlan, ShardStore, ShardedBfsTree, SpillSink,
};
use randcast_graph::CsrGraph;
use randcast_stats::seed::SeedSequence;

const SEEDS: usize = 250;
const PS: [f64; 4] = [0.0, 0.3, 0.76, 0.9];
const SHARDS: [usize; 3] = [2, 3, 7];

const FLOOD: Algorithm = Algorithm::FloodFast { horizon_scale: 1 };
const DECAY: Algorithm = Algorithm::DecayFast { epoch_factor: 2 };
const SIMPLE: Algorithm = Algorithm::SimpleFast { phase_len: None };
/// Simple with an explicit phase length, so the votes stay defined at
/// every p of [`PS`] (the Theorem 2.2 / 2.4 prescriptions reject p past
/// their feasibility thresholds).
const SIMPLE_VOTE: Algorithm = Algorithm::SimpleFast { phase_len: Some(9) };

fn families() -> [GraphFamily; 3] {
    [
        GraphFamily::Grid(5, 6),
        GraphFamily::Gnp {
            n: 40,
            avg_deg: 6,
            seed: 3,
        },
        // Sparse enough to be disconnected: exercises shards whose
        // node range the broadcast never reaches.
        GraphFamily::RandomGeometric {
            n: 40,
            deg: 6,
            seed: 3,
        },
    ]
}

fn prepare(
    family: GraphFamily,
    algorithm: Algorithm,
    model: Model,
    fault: FaultConfig,
    k: usize,
) -> PreparedScenario {
    let prepared = Scenario {
        graph: family,
        algorithm,
        model,
        fault,
        shards: ShardSpec::Fixed(k),
    }
    .try_prepare()
    .expect("valid scenario");
    assert_eq!(
        prepared.shard_plan().is_some(),
        k > 1,
        "Fixed({k}) must shard exactly when k > 1"
    );
    prepared
}

/// Runs the 250-seed comparison over every family × `faults` × p × k
/// cell of one engine.
fn check_engine(name: &str, faults: &[(Algorithm, Model, FaultKind)]) {
    let seeds = SeedSequence::new(0x07AD_0250);
    let mut cells = Vec::new();
    for family in families() {
        for &(algorithm, model, kind) in faults {
            for p in PS {
                let fault = FaultConfig::new(kind, p).expect("valid probability");
                for k in SHARDS {
                    let mono = prepare(family, algorithm, model, fault, 1);
                    let sharded = prepare(family, algorithm, model, fault, k);
                    let label = format!("{name} {model} {kind} on {}", family.label());
                    cells.push((label, p, k, mono, sharded));
                }
            }
        }
    }
    for s in 0..SEEDS {
        let (label, p, k, mono, sharded) = &cells[s % cells.len()];
        let block_seed = seeds.nth_seed(s as u64);
        let reference = mono.trial_block(block_seed, !0);
        assert_eq!(reference.len(), BATCH_LANES);
        assert_eq!(
            sharded.trial_block(block_seed, !0),
            reference,
            "{label} at p={p}, {k} shards: seed #{s} batch diverged"
        );
        for lane in [0usize, 21, BATCH_LANES - 1] {
            assert_eq!(
                sharded.trial_lane(block_seed, lane as u32),
                mono.trial_lane(block_seed, lane as u32),
                "{label} at p={p}, {k} shards: seed #{s} lane {lane} diverged"
            );
        }
    }
}

#[test]
fn sharded_flood_blocks_match_monolithic_element_wise() {
    check_engine(
        "flood",
        &[
            (FLOOD, Model::Mp, FaultKind::Omission),
            (FLOOD, Model::Mp, FaultKind::Malicious),
        ],
    );
}

#[test]
fn sharded_decay_blocks_match_monolithic_element_wise() {
    check_engine(
        "decay",
        &[
            (DECAY, Model::Radio, FaultKind::Omission),
            (DECAY, Model::Radio, FaultKind::LimitedMalicious),
        ],
    );
}

#[test]
fn sharded_simple_blocks_match_monolithic_element_wise() {
    check_engine(
        "simple",
        &[
            (SIMPLE, Model::Mp, FaultKind::Omission),
            (SIMPLE_VOTE, Model::Mp, FaultKind::Malicious),
            (SIMPLE_VOTE, Model::Radio, FaultKind::LimitedMalicious),
        ],
    );
}

/// Builds a disk-backed copy of `csr` under `plan` (segment files in
/// the scratch dir, freed when the returned store drops).
fn disk_store(csr: &CsrGraph, plan: ShardPlan) -> ShardStore {
    let mut sink = SpillSink::create(default_scratch_dir(), plan).expect("spill sink");
    for v in 0..csr.node_count() {
        for &t in csr.neighbors_of(v) {
            if (v as u32) < t {
                sink.push(v as u64, u64::from(t)).expect("spill edge");
            }
        }
    }
    ShardStore::Disk(sink.finalize().expect("finalize"))
}

/// The `--prefetch` leg of the outcome-neutrality contract: on
/// disk-backed stores, the pipelined background reader must be byte-
/// invisible — for all 250 seeds × 3 out-of-core engines, a scalar
/// lane replayed with prefetch **on** must equal the same lane with
/// prefetch **off** (and, every 25th seed, the whole 64-lane batched
/// block must too). The graph is connected and small; each engine gets
/// its own 3-segment disk store so every pass crosses segment bounds.
#[test]
fn prefetch_toggle_is_byte_invisible_on_disk_stores() {
    let n = 400;
    let g = gnp_connected(n, 0.018, &mut SmallRng::seed_from_u64(0x0F0E));
    let csr = CsrGraph::from(&g);
    let plan = ShardPlan::uniform(n, 3);
    let seeds = SeedSequence::new(0x07AD_0251);

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let epoch_len = (n as f64).log2().ceil() as usize + 1;
    let mut flood = ShardedFlood::new(disk_store(&csr, plan.clone()), 0, 600);
    let mut radio = ShardedRadio::new(
        disk_store(&csr, plan.clone()),
        0,
        1200,
        FastRadioSchedule::Decay { epoch_len },
    );
    let simple_base = disk_store(&csr, plan);
    let tree = ShardedBfsTree::build(&simple_base, 0, default_scratch_dir()).expect("BFS tree");
    assert_eq!(tree.reachable(), n, "gnp_connected source component");
    let (order, children) = tree.into_parts();
    let mut simple = ShardedSimple::new(ShardStore::Disk(children), order, 0, 3);

    for s in 0..SEEDS {
        let p = PS[s % PS.len()];
        let block_seed = seeds.nth_seed(s as u64);
        let lane = (s % BATCH_LANES) as u32;
        let check_batch = s % 25 == 0;

        flood = flood.with_prefetch(true);
        let f_lane = flood.run_lane(p, block_seed, lane).expect("flood on");
        let f_batch = check_batch.then(|| flood.run_batch(p, block_seed, n).expect("flood batch"));
        flood = flood.with_prefetch(false);
        assert_eq!(
            f_lane,
            flood.run_lane(p, block_seed, lane).expect("flood off"),
            "flood: seed #{s} p={p} lane={lane} diverged across prefetch"
        );
        if let Some(batch) = f_batch {
            assert_eq!(
                batch,
                flood.run_batch(p, block_seed, n).expect("flood batch off"),
                "flood: seed #{s} p={p} batch diverged across prefetch"
            );
        }

        radio = radio.with_prefetch(true);
        let r_lane = radio.run_lane(p, block_seed, lane).expect("radio on");
        let r_batch = check_batch.then(|| radio.run_batch(p, block_seed).expect("radio batch"));
        radio = radio.with_prefetch(false);
        assert_eq!(
            r_lane,
            radio.run_lane(p, block_seed, lane).expect("radio off"),
            "radio: seed #{s} p={p} lane={lane} diverged across prefetch"
        );
        if let Some(batch) = r_batch {
            assert_eq!(
                batch,
                radio.run_batch(p, block_seed).expect("radio batch off"),
                "radio: seed #{s} p={p} batch diverged across prefetch"
            );
        }

        simple = simple.with_prefetch(true);
        let s_lane = simple.run_lane(p, block_seed, lane).expect("simple on");
        let s_batch = check_batch.then(|| simple.run_batch(p, block_seed).expect("simple batch"));
        simple = simple.with_prefetch(false);
        assert_eq!(
            s_lane,
            simple.run_lane(p, block_seed, lane).expect("simple off"),
            "simple: seed #{s} p={p} lane={lane} diverged across prefetch"
        );
        if let Some(batch) = s_batch {
            assert_eq!(
                batch,
                simple.run_batch(p, block_seed).expect("simple batch off"),
                "simple: seed #{s} p={p} batch diverged across prefetch"
            );
        }
    }
}

#[test]
fn p_zero_sharded_curves_are_exact() {
    // At p = 0 every transmission works, so the per-round informed
    // counts are a deterministic function of the graph: sharding must
    // reproduce the exact fault-free curve, not merely match another
    // stochastic run.
    let family = GraphFamily::Grid(5, 6);
    let fault = FaultConfig::omission(0.0);
    let mono = prepare(family, FLOOD, Model::Mp, fault, 1);
    let reference = mono.trial_block(12345, !0);
    for out in &reference {
        assert!(out.success, "p = 0 flood must complete");
    }
    for k in SHARDS {
        let sharded = prepare(family, FLOOD, Model::Mp, fault, k);
        assert_eq!(sharded.trial_block(12345, !0), reference, "{k} shards");
    }
}
