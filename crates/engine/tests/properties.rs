//! Property-based tests for the simulation engines: model semantics that
//! must hold for *every* graph, seed, and failure probability.

use proptest::prelude::*;
use rand::rngs::SmallRng;

use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_engine::kernel::{
    mask_lanes, BatchBernoulli, BatchTape, FaultModel, FlipFault, LieOrJamFault, Omission,
    FAULT_STREAM, LANES,
};
use randcast_engine::mp::{MpAdversary, MpNetwork, MpNode, MpRoundCtx, Outgoing};
use randcast_engine::radio::{
    RadioAction, RadioAdversary, RadioNetwork, RadioNode, RadioRoundCtx, RadioStats,
};
use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule};
use randcast_engine::simple_fast::FastSimple;
use randcast_graph::{Graph, GraphBuilder, NodeId};

fn connected_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..20,
        proptest::collection::vec((0usize..20, 0usize..20), 0..30),
    )
        .prop_map(|(n, extra)| {
            let mut b = GraphBuilder::new(n);
            for v in 1..n {
                b.edge((v * 5 + 1) % v, v);
            }
            for (u, v) in extra {
                let (u, v) = (u % n, v % n);
                if u != v {
                    b.edge(u, v);
                }
            }
            b.finish().expect("valid construction")
        })
}

/// Flooding automaton recording when it was informed.
struct Flood {
    informed_at: Option<usize>,
}

impl MpNode for Flood {
    type Msg = bool;
    fn send(&mut self, _round: usize) -> Outgoing<bool> {
        if self.informed_at.is_some() {
            Outgoing::Broadcast(true)
        } else {
            Outgoing::Silent
        }
    }
    fn recv(&mut self, round: usize, _from: NodeId, _msg: bool) {
        if self.informed_at.is_none() {
            self.informed_at = Some(round);
        }
    }
}

/// Radio automaton: transmits its own id on a fixed round, records
/// everything heard.
struct Script {
    id: u8,
    transmit_round: Option<usize>,
    heard: Vec<Option<u8>>,
}

impl RadioNode for Script {
    type Msg = u8;
    fn act(&mut self, round: usize) -> RadioAction<u8> {
        if self.transmit_round == Some(round) {
            RadioAction::Transmit(self.id)
        } else {
            RadioAction::Listen
        }
    }
    fn recv(&mut self, _round: usize, heard: Option<u8>) {
        self.heard.push(heard);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mp_execution_is_deterministic(
        g in connected_graph(),
        p in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut net = MpNetwork::new(&g, FaultConfig::omission(p), seed, |v| Flood {
                informed_at: (v.index() == 0).then_some(0),
            });
            net.run(12);
            (g.nodes().map(|v| net.node(v).informed_at).collect::<Vec<_>>(), net.stats())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn mp_fault_free_floods_by_distance(g in connected_graph()) {
        let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 0, |v| Flood {
            informed_at: (v.index() == 0).then_some(0),
        });
        net.run(g.node_count());
        let dist = randcast_graph::traversal::bfs_distances(&g, g.node(0));
        for v in g.nodes() {
            // recv at round r means informed at distance r+1; node at
            // distance d is informed at round d-1.
            let expect = if v.index() == 0 { 0 } else { dist[v.index()] - 1 };
            prop_assert_eq!(net.node(v).informed_at, Some(expect));
        }
    }

    #[test]
    fn mp_omission_never_corrupts_content(
        g in connected_graph(),
        p in 0.0f64..0.95,
        seed in any::<u64>(),
    ) {
        // Under omission faults every delivered message is genuine: the
        // flood only ever sends `true`, so nothing else can arrive —
        // completion is the only observable difference.
        struct Check {
            informed_at: Option<usize>,
        }
        impl MpNode for Check {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                if self.informed_at.is_some() {
                    Outgoing::Broadcast(true)
                } else {
                    Outgoing::Silent
                }
            }
            fn recv(&mut self, round: usize, _from: NodeId, msg: bool) {
                assert!(msg, "omission faults must not alter content");
                if self.informed_at.is_none() {
                    self.informed_at = Some(round);
                }
            }
        }
        let mut net = MpNetwork::new(&g, FaultConfig::omission(p), seed, |v| Check {
            informed_at: (v.index() == 0).then_some(0),
        });
        net.run(20);
    }

    #[test]
    fn radio_reception_rule_is_exact(
        g in connected_graph(),
        transmitters in proptest::collection::vec(0usize..20, 1..6),
    ) {
        // All chosen transmitters fire in round 0, each sending its own
        // id; fault-free. Verify the exact reception predicate, the
        // sender heard, and the counters for every node.
        let tx: Vec<usize> = transmitters.iter().map(|t| t % g.node_count()).collect();
        let mut net = RadioNetwork::new(&g, FaultConfig::fault_free(), 0, |v| Script {
            id: v.index() as u8,
            transmit_round: tx.contains(&v.index()).then_some(0),
            heard: Vec::new(),
        });
        net.step();
        let mut expect_stats = RadioStats { rounds: 1, ..RadioStats::default() };
        for v in g.nodes() {
            let transmitting = tx.contains(&v.index());
            let tx_neighbors: Vec<NodeId> = g
                .neighbors(v)
                .filter(|u| tx.contains(&u.index()))
                .collect();
            let expect = match tx_neighbors[..] {
                [u] if !transmitting => Some(u.index() as u8),
                _ => None,
            };
            prop_assert_eq!(net.node(v).heard[0], expect, "node {}", v);
            if transmitting {
                expect_stats.transmissions += 1;
            } else if tx_neighbors.len() == 1 {
                expect_stats.receptions += 1;
            } else if tx_neighbors.len() > 1 {
                expect_stats.collisions += 1;
            }
        }
        prop_assert_eq!(net.stats(), expect_stats);
    }

    #[test]
    fn radio_execution_is_deterministic(
        g in connected_graph(),
        p in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut net = RadioNetwork::new(&g, FaultConfig::omission(p), seed, |v| Script {
                id: v.index() as u8,
                transmit_round: Some(v.index() % 5),
                heard: Vec::new(),
            });
            net.run(5);
            g.nodes().map(|v| net.node(v).heard.clone()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn limited_malicious_never_speaks_out_of_turn_mp(
        g in connected_graph(),
        p in 0.1f64..0.95,
        seed in any::<u64>(),
    ) {
        // An adversary that tries to broadcast from every faulty node.
        struct Loud;
        impl MpAdversary<bool> for Loud {
            fn corrupt_round(
                &mut self,
                ctx: MpRoundCtx<'_, bool>,
                _rng: &mut SmallRng,
            ) -> Vec<(NodeId, Outgoing<bool>)> {
                ctx.faulty
                    .iter()
                    .map(|&v| (v, Outgoing::Broadcast(false)))
                    .collect()
            }
        }
        // Nobody ever intends to send, so nobody may ever receive.
        struct Mute {
            got: usize,
        }
        impl MpNode for Mute {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                Outgoing::Silent
            }
            fn recv(&mut self, _round: usize, _from: NodeId, _msg: bool) {
                self.got += 1;
            }
        }
        let mut net = MpNetwork::with_adversary(
            &g,
            FaultConfig::limited_malicious(p),
            Loud,
            seed,
            |_| Mute { got: 0 },
        );
        net.run(15);
        for v in g.nodes() {
            prop_assert_eq!(net.node(v).got, 0);
        }
    }

    #[test]
    fn limited_malicious_never_speaks_out_of_turn_radio(
        g in connected_graph(),
        p in 0.1f64..0.95,
        seed in any::<u64>(),
    ) {
        struct LoudR;
        impl RadioAdversary<u8> for LoudR {
            fn corrupt_round(
                &mut self,
                ctx: RadioRoundCtx<'_, u8>,
                _rng: &mut SmallRng,
            ) -> Vec<(NodeId, RadioAction<u8>)> {
                ctx.faulty
                    .iter()
                    .map(|&v| (v, RadioAction::Transmit(9)))
                    .collect()
            }
        }
        let mut net = RadioNetwork::with_adversary(
            &g,
            FaultConfig::limited_malicious(p),
            LoudR,
            seed,
            |_| Script {
                id: 0,
                transmit_round: None,
                heard: Vec::new(),
            },
        );
        net.run(15);
        prop_assert_eq!(net.stats().transmissions, 0);
        for v in g.nodes() {
            prop_assert!(net.node(v).heard.iter().all(Option::is_none));
        }
    }

    #[test]
    fn p_zero_malicious_equals_fault_free(
        g in connected_graph(),
        seed in any::<u64>(),
    ) {
        // With p = 0 the adversary is never consulted: executions under
        // any fault kind coincide with the fault-free reference.
        let run = |fault: FaultConfig| {
            let mut net = MpNetwork::new(&g, fault, seed, |v| Flood {
                informed_at: (v.index() == 0).then_some(0),
            });
            net.run(10);
            g.nodes().map(|v| net.node(v).informed_at).collect::<Vec<_>>()
        };
        let reference = run(FaultConfig::fault_free());
        prop_assert_eq!(run(FaultConfig::malicious(0.0)), reference.clone());
        prop_assert_eq!(run(FaultConfig::limited_malicious(0.0)), reference);
    }

    #[test]
    fn fast_flood_informed_set_is_monotone(
        g in connected_graph(),
        p in 0.0f64..0.95,
        seed in any::<u64>(),
        tree in any::<bool>(),
    ) {
        let variant = if tree {
            FastFloodVariant::Tree
        } else {
            FastFloodVariant::Graph
        };
        let ff = FastFlood::new(&g, g.node(0), 4 * g.node_count() + 40, variant);
        let out = ff.run(p, seed);
        let counts = out.informed_by_round();
        prop_assert_eq!(counts[0], 1);
        prop_assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*counts.last().unwrap(), out.informed_count());
        prop_assert!(out.informed_count() <= g.node_count());
        // The informed bitset agrees with the count.
        let set_bits = g.nodes().filter(|&v| out.is_informed(v)).count();
        prop_assert_eq!(set_bits, out.informed_count());
        prop_assert!(out.is_informed(g.node(0)));
    }

    #[test]
    fn fast_flood_p_zero_completes_in_eccentricity_rounds(
        g in connected_graph(),
        seed in any::<u64>(),
    ) {
        let d = randcast_graph::traversal::radius_from(&g, g.node(0));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = FastFlood::new(&g, g.node(0), g.node_count() + 1, variant);
            let out = ff.run(0.0, seed);
            prop_assert_eq!(out.completion_round(), Some(d));
            prop_assert!((out.informed_fraction() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fast_flood_is_deterministic_per_seed(
        g in connected_graph(),
        p in 0.0f64..0.95,
        seed in any::<u64>(),
    ) {
        let ff = FastFlood::new(&g, g.node(0), 50, FastFloodVariant::Graph);
        prop_assert_eq!(ff.run(p, seed), ff.run(p, seed));
    }

    #[test]
    fn fast_radio_informed_set_is_monotone(
        g in connected_graph(),
        p in 0.0f64..0.95,
        seed in any::<u64>(),
        decay in any::<bool>(),
    ) {
        let schedule = if decay {
            let epoch_len = (g.node_count() as f64).log2().ceil() as usize + 1;
            FastRadioSchedule::Decay { epoch_len }
        } else {
            FastRadioSchedule::AllInformed
        };
        let plan = FastRadio::new(&g, g.node(0), 30 * g.node_count() + 60, schedule);
        let out = plan.run(p, seed);
        let counts = out.informed_by_round();
        prop_assert_eq!(counts[0], 1);
        prop_assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*counts.last().unwrap(), out.informed_count());
        prop_assert!(out.informed_count() <= g.node_count());
        // The informed bitset agrees with the count, and a completion
        // claim agrees with the curve.
        let set_bits = g.nodes().filter(|&v| out.is_informed(v)).count();
        prop_assert_eq!(set_bits, out.informed_count());
        prop_assert!(out.is_informed(g.node(0)));
        if let Some(t) = out.completion_round() {
            prop_assert_eq!(out.round_reaching(g.node_count()), Some(t));
        }
    }

    #[test]
    fn fast_radio_is_deterministic_per_seed(
        g in connected_graph(),
        p in 0.0f64..0.95,
        seed in any::<u64>(),
        decay in any::<bool>(),
    ) {
        let schedule = if decay {
            FastRadioSchedule::Decay { epoch_len: 5 }
        } else {
            FastRadioSchedule::AllInformed
        };
        let plan = FastRadio::new(&g, g.node(0), 60, schedule);
        prop_assert_eq!(plan.run(p, seed), plan.run(p, seed));
    }

    #[test]
    fn fast_simple_is_deterministic_per_seed(
        g in connected_graph(),
        p in 0.0f64..0.95,
        seed in any::<u64>(),
        m in 1usize..6,
    ) {
        let fs = FastSimple::new(&g, g.node(0), m);
        let out = fs.run(p, seed);
        prop_assert_eq!(&out, &fs.run(p, seed));
        // The correct bitset always agrees with the count, and the
        // source is always correct.
        let set_bits = g.nodes().filter(|&v| out.is_correct(v)).count();
        prop_assert_eq!(set_bits, out.correct_count());
        prop_assert!(out.is_correct(g.node(0)));
    }

    #[test]
    fn fast_simple_p_zero_completes_in_exactly_total_rounds(
        g in connected_graph(),
        seed in any::<u64>(),
        m in 1usize..6,
    ) {
        // Simple is a fixed-length schedule: at p = 0 the broadcast is
        // fully correct and completes in exactly n · m rounds.
        let fs = FastSimple::new(&g, g.node(0), m);
        let out = fs.run(0.0, seed);
        prop_assert!(out.complete());
        prop_assert_eq!(out.total_rounds(), g.node_count() * m);
        prop_assert_eq!(out.completion_round(), Some(g.node_count() * m));
        prop_assert!((out.correct_fraction() - 1.0).abs() < 1e-12);
        prop_assert!(out.last_adoption_round() <= out.total_rounds());
    }

    #[test]
    fn fast_simple_correct_count_is_monotone_in_p(
        g in connected_graph(),
        seed in any::<u64>(),
        m in 1usize..5,
    ) {
        // The per-(seed, node) uniform is mapped monotonically through
        // p, so the correct set can only shrink as p grows.
        let fs = FastSimple::new(&g, g.node(0), m);
        let mut prev = usize::MAX;
        for p in [0.0, 0.15, 0.35, 0.55, 0.75, 0.9, 0.99] {
            let c = fs.run(p, seed).correct_count();
            prop_assert!(c <= prev, "p={}: {} > {}", p, c, prev);
            prev = c;
        }
    }

    #[test]
    fn batch_fault_masks_match_lane_draws_bit_for_bit(
        block_seed in any::<u64>(),
        p in 0.0f64..1.0,
        sites in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        // The whole-word coin draws and the per-lane scalar draws read
        // the same tape words, so bit k of every mask must equal lane
        // k's stream draw — the coupling the equivalence suite builds
        // on, checked draw-for-draw at the kernel level.
        let tape = BatchTape::new(block_seed, FAULT_STREAM);
        let bern = BatchBernoulli::new(p);
        for &site in &sites {
            let mask = bern.mask(&tape, site, !0u64);
            let fair = tape.fair_mask(site);
            for lane in 0..LANES as u32 {
                prop_assert_eq!(mask >> lane & 1 == 1, bern.lane(&tape, site, lane));
                prop_assert_eq!(fair >> lane & 1 == 1, tape.fair_lane(site, lane));
            }
        }
    }

    #[test]
    fn batch_flood_lanes_are_monotone_per_round(
        g in connected_graph(),
        p in 0.0f64..0.95,
        block_seed in any::<u64>(),
        tree in any::<bool>(),
    ) {
        let variant = if tree {
            FastFloodVariant::Tree
        } else {
            FastFloodVariant::Graph
        };
        let ff = FastFlood::new(&g, g.node(0), 4 * g.node_count() + 40, variant);
        let batch = ff.run_batch_model(&Omission::new(p), block_seed, !0);
        for lane in [0u32, 1, 17, 40, 63] {
            let out = batch.lane_outcome(lane);
            let counts = out.informed_by_round();
            prop_assert_eq!(counts[0], 1);
            prop_assert!(counts.windows(2).all(|w| w[0] <= w[1]), "lane {}", lane);
            prop_assert_eq!(*counts.last().unwrap(), batch.informed_count(lane));
        }
    }

    #[test]
    fn batch_popcounts_equal_scalar_lane_count_sums(
        g in connected_graph(),
        p in 0.0f64..0.95,
        block_seed in any::<u64>(),
    ) {
        // The batched per-node lane words aggregate by popcount: the
        // informed total over all 64 lanes must equal the sum of the 64
        // independent scalar lane replays, for every engine.
        let src = g.node(0);
        let ff = FastFlood::new(&g, src, 2 * g.node_count() + 20, FastFloodVariant::Graph);
        let fb = ff.run_batch_model(&Omission::new(p), block_seed, !0);
        let batched: usize = (0..LANES as u32).map(|l| fb.informed_count(l)).sum();
        let scalar: usize = (0..LANES as u32)
            .map(|l| ff.run_lane_model(&Omission::new(p), block_seed, l).informed_count())
            .sum();
        prop_assert_eq!(batched, scalar, "flood");
        let fr = FastRadio::new(&g, src, 8 * g.node_count() + 30, FastRadioSchedule::Decay { epoch_len: 4 });
        let rb = fr.run_batch_model(&Omission::new(p), block_seed, !0);
        let batched: usize = (0..LANES as u32).map(|l| rb.informed_count(l)).sum();
        let scalar: usize = (0..LANES as u32)
            .map(|l| fr.run_lane_model(&Omission::new(p), block_seed, l).informed_count())
            .sum();
        prop_assert_eq!(batched, scalar, "radio");
        let fs = FastSimple::new(&g, src, 2);
        let sb = fs.run_batch_model(&Omission::new(p), block_seed, !0);
        let batched: usize = (0..LANES as u32).map(|l| sb.correct_count(l)).sum();
        let scalar: usize = (0..LANES as u32)
            .map(|l| fs.run_lane_model(&Omission::new(p), block_seed, l).correct_count())
            .sum();
        prop_assert_eq!(batched, scalar, "simple");
    }

    #[test]
    fn batch_early_stop_never_changes_outcomes(
        g in connected_graph(),
        p in 0.0f64..0.95,
        block_seed in any::<u64>(),
    ) {
        // Per-lane early-stop (and the global break once every lane is
        // done) must be outcome-neutral: a lane that completes within a
        // short horizon reports identical metrics under a horizon three
        // times as long, because coin sites are addressed by (round,
        // node), never by horizon or by which lanes are still live.
        let src = g.node(0);
        let h = 2 * g.node_count() + 20;
        let short = FastFlood::new(&g, src, h, FastFloodVariant::Graph).run_batch_model(&Omission::new(p), block_seed, !0);
        let long = FastFlood::new(&g, src, 3 * h, FastFloodVariant::Graph).run_batch_model(&Omission::new(p), block_seed, !0);
        for lane in 0..LANES as u32 {
            if short.completion_round(lane).is_some() {
                prop_assert_eq!(short.completion_round(lane), long.completion_round(lane));
                prop_assert_eq!(short.almost_complete_round(lane), long.almost_complete_round(lane));
                prop_assert_eq!(short.informed_count(lane), long.informed_count(lane));
            }
        }
        let hr = 6 * g.node_count() + 24;
        let schedule = FastRadioSchedule::Decay { epoch_len: 4 };
        let short = FastRadio::new(&g, src, hr, schedule).run_batch_model(&Omission::new(p), block_seed, !0);
        let long = FastRadio::new(&g, src, 3 * hr, schedule).run_batch_model(&Omission::new(p), block_seed, !0);
        for lane in 0..LANES as u32 {
            if short.completion_round(lane).is_some() {
                prop_assert_eq!(short.completion_round(lane), long.completion_round(lane));
                prop_assert_eq!(short.almost_complete_round(lane), long.almost_complete_round(lane));
                prop_assert_eq!(short.informed_count(lane), long.informed_count(lane));
            }
        }
    }

    #[test]
    fn masked_block_lanes_match_lane_replays(
        g in connected_graph(),
        p in 0.0f64..0.95,
        block_seed in any::<u64>(),
        lanes in 1u64..=u64::MAX,
    ) {
        // Masking a block to any live-lane set must leave every live
        // lane byte-identical to its scalar replay, for every kernel's
        // 64-lane pass under omission and both corrupted-value models.
        let src = g.node(0);
        let n = g.node_count();
        let (omission, flip, lie) = (Omission::new(p), FlipFault::new(p), LieOrJamFault::new(p));
        let models: [&dyn FaultModel; 3] = [&omission, &flip, &lie];
        let tree = FastFlood::new(&g, src, 2 * n + 20, FastFloodVariant::Tree);
        let graph = FastFlood::new(&g, src, 2 * n + 20, FastFloodVariant::Graph);
        let radio = FastRadio::new(&g, src, 8 * n + 30, FastRadioSchedule::Decay { epoch_len: 4 });
        let simple = FastSimple::new(&g, src, 3);
        for model in models {
            for ff in [&tree, &graph] {
                let masked = ff.run_batch_model(model, block_seed, lanes);
                for lane in mask_lanes(lanes) {
                    prop_assert_eq!(masked.lane_outcome(lane), ff.run_lane_model(model, block_seed, lane));
                }
            }
            let masked = radio.run_batch_model(model, block_seed, lanes);
            for lane in mask_lanes(lanes) {
                prop_assert_eq!(masked.lane_outcome(lane), radio.run_lane_model(model, block_seed, lane));
            }
            let masked = simple.run_batch_model(model, block_seed, lanes);
            for lane in mask_lanes(lanes) {
                prop_assert_eq!(masked.lane_outcome(lane), simple.run_lane_model(model, block_seed, lane));
            }
        }
    }
}
