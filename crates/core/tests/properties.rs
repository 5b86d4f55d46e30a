//! Property-based tests for the paper's algorithms: invariants that must
//! hold for every graph, composition, and parameter choice.

use proptest::prelude::*;
use randcast_core::feasibility::radio_threshold;
use randcast_core::kucera::{FailureBehavior, Plan};
use randcast_core::lower_bound::LayerSchedule;
use randcast_core::radio_sched::greedy_schedule;
use randcast_core::simple::{SimplePlan, VoteMode};
use randcast_engine::fault::FaultConfig;
use randcast_engine::mp::SilentMpAdversary;
use randcast_engine::radio::SilentRadioAdversary;
use randcast_graph::{Graph, GraphBuilder};

fn connected_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..24,
        proptest::collection::vec((0usize..24, 0usize..24), 0..30),
    )
        .prop_map(|(n, extra)| {
            let mut b = GraphBuilder::new(n);
            for v in 1..n {
                b.edge((v * 3 + 1) % v, v);
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

/// Random Kučera composition trees (bounded size).
fn plan_strategy() -> impl Strategy<Value = Plan> {
    let base = (0.01f64..0.45).prop_map(Plan::basic);
    base.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), 2usize..4).prop_map(|(p, rho)| p.serial(rho)),
            (inner, prop_oneof![Just(3usize), Just(5)]).prop_map(|(p, k)| p.repeat(k)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fault_free_simple_broadcast_always_succeeds(
        g in connected_graph(),
        m in 1usize..4,
        bit in any::<bool>(),
        majority in any::<bool>(),
    ) {
        let mode = if majority { VoteMode::Majority } else { VoteMode::Any };
        let plan = SimplePlan::with_phase_len(&g, g.node(0), m, mode);
        let mp = plan.run_mp(&g, FaultConfig::fault_free(), SilentMpAdversary, 0, bit);
        prop_assert!(mp.all_correct(bit));
        let radio = plan.run_radio(&g, FaultConfig::fault_free(), SilentRadioAdversary, 0, bit);
        prop_assert!(radio.all_correct(bit));
    }

    #[test]
    fn greedy_schedule_always_validates(g in connected_graph()) {
        let s = greedy_schedule(&g, g.node(0));
        prop_assert!(s.validate(&g, g.node(0)).is_ok());
        // Reception map covers every non-source node.
        let map = s.reception_map(&g, g.node(0));
        prop_assert!(map[0].is_none());
        for v in g.nodes().skip(1) {
            prop_assert!(map[v.index()].is_some(), "node {}", v);
        }
    }

    #[test]
    fn greedy_schedule_is_at_least_the_radius(g in connected_graph()) {
        // Information travels one hop per round at best.
        let s = greedy_schedule(&g, g.node(0));
        let d = randcast_graph::traversal::radius_from(&g, g.node(0));
        prop_assert!(s.len() >= d);
    }

    #[test]
    fn kucera_metrics_invariants(plan in plan_strategy()) {
        let m = plan.metrics();
        prop_assert!(m.len >= 1);
        prop_assert!(m.time >= m.len, "time at least one round per hop");
        prop_assert!(m.delay >= 1);
        prop_assert!((0.0..=1.0).contains(&m.error_bound));
    }

    #[test]
    fn kucera_compile_has_no_conflicts_and_fault_free_correct(
        plan in plan_strategy(),
        bit in any::<bool>(),
    ) {
        // compile() itself asserts the no-conflict invariant.
        let c = plan.compile();
        prop_assert_eq!(c.time(), plan.time());
        // Fault-free execution on a line of exactly the plan's length
        // delivers the bit everywhere.
        let tree = randcast_graph::generators::path(plan.len()).bfs_tree(0);
        let out = c.run_tree(&tree, 0.0, FailureBehavior::Flip, 0, bit);
        prop_assert!(out.all_correct(bit));
    }

    #[test]
    fn kucera_amplification_reduces_error(plan in plan_strategy()) {
        let q = plan.error_bound();
        prop_assume!(q > 1e-9);
        let amplified = plan.repeat(3);
        // For q < 1/2, the CO2 tail strictly improves.
        if q < 0.5 {
            prop_assert!(amplified.error_bound() < q + 1e-12);
        }
    }

    #[test]
    fn kucera_planner_meets_spec(len in 1usize..80, p in 0.01f64..0.45) {
        let plan = Plan::for_line(len, p, 1e-4).expect("p < 1/2 is feasible");
        prop_assert!(plan.len() >= len);
        prop_assert!(plan.error_bound() <= 1e-4);
    }

    #[test]
    fn layer_schedule_hits_bounds(
        m in 1usize..10,
        rounds in proptest::collection::vec(any::<u32>(), 1..30),
    ) {
        let full = (1u32 << m) - 1;
        let rounds: Vec<u32> = rounds.into_iter().map(|r| r & full).collect();
        let s = LayerSchedule::new(m, rounds.clone());
        for v in 1..=full {
            let h = s.hits(v);
            prop_assert!(h <= rounds.len());
        }
        // Union bound at p = 0 counts exactly the never-hit nodes.
        let zero_miss = s.union_bound_failure(0.0);
        let unhit = (1..=full).filter(|&v| s.hits(v) == 0).count() as f64;
        prop_assert!((zero_miss - unhit).abs() < 1e-9);
    }

    #[test]
    fn layer_schedule_union_bound_monotone_in_reps(
        m in 2usize..8,
        reps in 1usize..12,
        p in 0.05f64..0.95,
    ) {
        let a = LayerSchedule::singletons(m, reps).union_bound_failure(p);
        let b = LayerSchedule::singletons(m, reps + 1).union_bound_failure(p);
        prop_assert!(b <= a + 1e-12);
    }

    #[test]
    fn radio_threshold_brackets(delta in 0usize..40) {
        let t = radio_threshold(delta);
        prop_assert!((0.0..=0.5).contains(&t));
        // Fixed point within tolerance.
        prop_assert!((t - (1.0 - t).powi(delta as i32 + 1)).abs() < 1e-9);
    }

    #[test]
    fn simple_plan_rounds_partition(g in connected_graph(), m in 1usize..5) {
        let plan = SimplePlan::with_phase_len(&g, g.node(0), m, VoteMode::Any);
        prop_assert_eq!(plan.total_rounds(), g.node_count() * m);
    }
}
