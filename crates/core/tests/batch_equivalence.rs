//! Lane-exact equivalence suite for the bit-sliced batch path.
//!
//! For 250 fixed block seeds per engine, a batched
//! [`PreparedScenario::trial_block`] run must agree **byte-for-byte**,
//! lane by lane, with the scalar lane replay
//! [`PreparedScenario::trial_lane`] of the same block seed — the
//! coupling contract the engines promise (`run_batch` ≡ `run_lane`
//! per lane) lifted to the scenario layer where sweeps consume it.
//! The seeds cycle over graph family × failure probability cells
//! (grid / G(n,p) / random-geometric × p ∈ {0, 0.3, 0.76, 0.9}) so
//! every cell sees ~21 distinct blocks, including the p = 0 and
//! heavy-failure corners and a possibly-disconnected family.
//!
//! [`PreparedScenario::trial_block`]: randcast_core::scenario::PreparedScenario::trial_block
//! [`PreparedScenario::trial_lane`]: randcast_core::scenario::PreparedScenario::trial_lane

use randcast_core::scenario::{Algorithm, GraphFamily, Model, Scenario, ShardSpec};
use randcast_core::sweep::BATCH_LANES;
use randcast_engine::fault::FaultConfig;
use randcast_stats::seed::SeedSequence;

const SEEDS: usize = 250;
const PS: [f64; 4] = [0.0, 0.3, 0.76, 0.9];

fn families() -> [GraphFamily; 3] {
    [
        GraphFamily::Grid(5, 6),
        GraphFamily::Gnp {
            n: 40,
            avg_deg: 6,
            seed: 3,
        },
        GraphFamily::RandomGeometric {
            n: 40,
            deg: 6,
            seed: 3,
        },
    ]
}

fn check_engine(name: &str, algorithm: Algorithm, model: Model) {
    let seeds = SeedSequence::new(0x0250_BA7C);
    let mut cells = Vec::new();
    for family in families() {
        for p in PS {
            let scenario = Scenario {
                graph: family,
                algorithm,
                model,
                fault: FaultConfig::omission(p),
                shards: ShardSpec::Auto,
            };
            let prepared = scenario.try_prepare().expect("valid scenario");
            assert!(prepared.supports_batch(), "{name} must be batch-capable");
            cells.push((family.label(), p, prepared));
        }
    }
    for s in 0..SEEDS {
        let (label, p, prepared) = &cells[s % cells.len()];
        let block_seed = seeds.nth_seed(s as u64);
        let block = prepared.trial_block(block_seed, !0);
        assert_eq!(block.len(), BATCH_LANES);
        for (lane, out) in block.iter().enumerate() {
            let scalar = prepared.trial_lane(block_seed, lane as u32);
            assert_eq!(
                *out, scalar,
                "{name} on {label} at p={p}: seed #{s} lane {lane} diverged"
            );
        }
    }
}

#[test]
fn flood_blocks_agree_lane_for_lane_with_scalar_replays() {
    check_engine(
        "flood",
        Algorithm::FloodFast { horizon_scale: 1 },
        Model::Mp,
    );
}

#[test]
fn radio_blocks_agree_lane_for_lane_with_scalar_replays() {
    check_engine(
        "radio",
        Algorithm::DecayFast { epoch_factor: 2 },
        Model::Radio,
    );
}

#[test]
fn simple_blocks_agree_lane_for_lane_with_scalar_replays() {
    check_engine(
        "simple",
        Algorithm::SimpleFast { phase_len: None },
        Model::Mp,
    );
}
