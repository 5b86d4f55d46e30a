//! Trait-object engine golden: the Simple plan's per-node outcomes on
//! `MpNetwork` and `RadioNetwork` must not move.
//!
//! Every standard family runs a short Simple plan through both engines,
//! four seeds per cell, and each outcome's `values` (`None`, `Some(false)`,
//! `Some(true)` as 0, 1, 2) are folded into one FNV-1a digest per family
//! and model. The digests are pinned as literals. A change to the order or
//! the law of the engines' fault coins, to how an adversary's replacement
//! is resolved, or to delivery order moves a digest.
//!
//! The omission cells use phase length 2 with `VoteMode::Any`, so many
//! children never hear their parent and the values vary; with one
//! speaker per round both engines draw the same coins there, so the two
//! models' omission digests agree. The malicious cells use phase length
//! 5 with `VoteMode::Majority` against the engines' worst-case
//! adversaries.

mod common;

use common::{fnv, FNV_OFFSET};
use randcast_core::scenario::standard_families;
use randcast_core::simple::{BroadcastOutcome, SimplePlan, VoteMode};
use randcast_engine::adversary::{FlipMpAdversary, LieOrJamAdversary};
use randcast_engine::fault::FaultConfig;
use randcast_engine::mp::SilentMpAdversary;
use randcast_engine::radio::SilentRadioAdversary;
use randcast_graph::{Graph, NodeId};

const SEEDS: [u64; 4] = [11, 12, 13, 14];

fn fold(h: u64, out: &BroadcastOutcome) -> u64 {
    let mut h = fnv(h, out.rounds as u64);
    for v in &out.values {
        h = fnv(h, v.map_or(0, |b| 1 + u64::from(b)));
    }
    h
}

/// Digests `(mp, radio)` of every family's runs under `run`, which gets
/// the graph, its plan source, the model (`true` = radio) and a seed.
fn digests(run: impl Fn(&Graph, NodeId, bool, u64) -> Vec<BroadcastOutcome>) -> Vec<(u64, u64)> {
    standard_families()
        .iter()
        .map(|family| {
            let g = family.build();
            let digest = |radio: bool| {
                SEEDS.iter().fold(FNV_OFFSET, |h, &seed| {
                    run(&g, g.node(0), radio, seed).iter().fold(h, fold)
                })
            };
            (digest(false), digest(true))
        })
        .collect()
}

fn assert_pinned(got: &[(u64, u64)], want: &[(u64, u64)]) {
    let listing: Vec<String> = got
        .iter()
        .map(|(mp, radio)| format!("(0x{mp:016x}, 0x{radio:016x})"))
        .collect();
    assert_eq!(got, want, "got [{}]", listing.join(", "));
}

#[test]
fn simple_omission_outcomes_keep_their_digests() {
    let got = digests(|g, source, radio, seed| {
        let plan = SimplePlan::with_phase_len(g, source, 2, VoteMode::Any);
        [0.3, 0.6, 0.9]
            .into_iter()
            .map(|p| {
                let fault = FaultConfig::omission(p);
                if radio {
                    plan.run_radio(g, fault, SilentRadioAdversary, seed, true)
                } else {
                    plan.run_mp(g, fault, SilentMpAdversary, seed, true)
                }
            })
            .collect()
    });
    let want = [
        (0xc2b2_b099_c83a_cae6, 0xc2b2_b099_c83a_cae6), // Path(32)
        (0xcd56_545c_a0e4_7be5, 0xcd56_545c_a0e4_7be5), // Grid(8, 8)
        (0x5de8_28f8_d628_3525, 0x5de8_28f8_d628_3525), // BalancedTree(2, 6)
        (0x14b5_f2ae_6056_1224, 0x14b5_f2ae_6056_1224), // Hypercube(6)
        (0xf6c1_c8c5_8116_c7c7, 0xf6c1_c8c5_8116_c7c7), // RandomTree { n: 64, seed: 12345 }
        (0xcd74_dc47_1b7a_fde4, 0xcd74_dc47_1b7a_fde4), // LowerBound(5)
    ];
    assert_pinned(&got, &want);
}

#[test]
fn simple_malicious_outcomes_keep_their_digests() {
    let got = digests(|g, source, radio, seed| {
        let plan = SimplePlan::with_phase_len(g, source, 5, VoteMode::Majority);
        [
            FaultConfig::malicious(0.3),
            FaultConfig::limited_malicious(0.3),
        ]
        .into_iter()
        .map(|fault| {
            if radio {
                plan.run_radio(g, fault, LieOrJamAdversary::new(true), seed, true)
            } else {
                plan.run_mp(g, fault, FlipMpAdversary, seed, true)
            }
        })
        .collect()
    });
    let want = [
        (0x8039_b869_2d74_29e5, 0xee06_63fd_9420_5366), // Path(32)
        (0x91d2_f8cb_8e79_8f5d, 0x9c37_b684_5406_4b0e), // Grid(8, 8)
        (0x0ff5_1640_7f20_8bd5, 0x0d80_ca36_f139_ea3a), // BalancedTree(2, 6)
        (0x0669_0638_7154_0fb5, 0xf861_06ca_1ead_b836), // Hypercube(6)
        (0x9186_2872_7976_3685, 0x8bb0_8d29_177b_6a3d), // RandomTree { n: 64, seed: 12345 }
        (0x08b3_7d17_1e32_0c65, 0x45a8_18dd_a5f0_2aa6), // LowerBound(5)
    ];
    assert_pinned(&got, &want);
}
