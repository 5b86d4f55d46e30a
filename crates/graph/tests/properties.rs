//! Property-based tests for graph invariants.

use proptest::prelude::*;
use randcast_graph::{generators, traversal, Graph, GraphBuilder, NodeId, SpanningTree};

/// Strategy: a random connected graph as (n, extra edge pairs).
fn connected_graph() -> impl Strategy<Value = randcast_graph::Graph> {
    (
        2usize..40,
        proptest::collection::vec((0usize..40, 0usize..40), 0..60),
    )
        .prop_map(|(n, extra)| {
            let mut b = GraphBuilder::new(n);
            // Recursive-tree skeleton keeps it connected and deterministic.
            for v in 1..n {
                b.edge((v * 7 + 3) % v, v);
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

proptest! {
    #[test]
    fn degree_sum_is_twice_edge_count(g in connected_graph()) {
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.edge_count());
    }

    #[test]
    fn neighbors_are_sorted_and_unique(g in connected_graph()) {
        for v in g.nodes() {
            let nb = g.targets_of(u32::from(v));
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric(g in connected_graph()) {
        for u in g.nodes() {
            for v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn bfs_distances_are_consistent(g in connected_graph()) {
        let d = traversal::bfs_distances(&g, g.node(0));
        prop_assert_eq!(d[0], 0);
        // Edge endpoints differ by at most one level.
        for (u, v) in g.edges() {
            let (du, dv) = (d[u.index()], d[v.index()]);
            prop_assert!(du.abs_diff(dv) <= 1, "edge {}-{}", u, v);
        }
        // Every non-source node has a strictly closer neighbor.
        for v in g.nodes().skip(1) {
            prop_assert!(g
                .neighbors(v)
                .any(|u| d[u.index()] + 1 == d[v.index()]));
        }
    }

    #[test]
    fn radius_equals_max_distance(g in connected_graph()) {
        let d = traversal::bfs_distances(&g, g.node(0));
        let r = traversal::radius_from(&g, g.node(0));
        prop_assert_eq!(r, d.iter().copied().max().unwrap());
    }

    #[test]
    fn bfs_tree_matches_bfs_levels(g in connected_graph()) {
        let t = SpanningTree::bfs(&g, g.node(0));
        let d = traversal::bfs_distances(&g, g.node(0));
        for v in g.nodes() {
            prop_assert_eq!(t.level(v), d[v.index()]);
            if let Some(p) = t.parent(v) {
                prop_assert!(g.has_edge(p, v));
                prop_assert_eq!(t.level(p) + 1, t.level(v));
            } else {
                prop_assert_eq!(v, g.node(0));
            }
        }
        prop_assert_eq!(t.depth(), traversal::radius_from(&g, g.node(0)));
    }

    #[test]
    fn tree_children_are_inverse_of_parent(g in connected_graph()) {
        let t = SpanningTree::bfs(&g, g.node(0));
        let mut child_count = 0usize;
        for v in g.nodes() {
            for &c in t.children(v) {
                prop_assert_eq!(t.parent(c), Some(v));
                child_count += 1;
            }
        }
        // Every node except the root is someone's child exactly once.
        prop_assert_eq!(child_count, g.node_count() - 1);
    }

    #[test]
    fn level_order_is_sorted_by_level(g in connected_graph()) {
        let t = SpanningTree::bfs(&g, g.node(0));
        let order = t.level_order();
        prop_assert_eq!(order.len(), g.node_count());
        for w in order.windows(2) {
            prop_assert!(t.level(w[0]) <= t.level(w[1]));
        }
        prop_assert_eq!(order[0], g.node(0));
    }

    #[test]
    fn branches_partition_leaves(g in connected_graph()) {
        let t = SpanningTree::bfs(&g, g.node(0));
        let branches = t.branches();
        let mut leaf_ends: Vec<NodeId> =
            branches.iter().map(|b| *b.last().unwrap()).collect();
        leaf_ends.sort();
        leaf_ends.dedup();
        let mut leaves: Vec<NodeId> = g.nodes().filter(|&v| t.is_leaf(v)).collect();
        leaves.sort();
        prop_assert_eq!(leaf_ends, leaves);
        for b in &branches {
            prop_assert!(b.len() <= t.depth() + 1);
        }
    }

    #[test]
    fn random_tree_has_tree_shape(n in 1usize..200, seed in any::<u64>()) {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let g = generators::random_tree(n, &mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n - 1);
        prop_assert!(traversal::is_connected(&g));
    }

    #[test]
    fn gnp_connected_is_connected(n in 2usize..60, q in 0.0f64..0.3, seed in any::<u64>()) {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, q, &mut rng);
        prop_assert!(traversal::is_connected(&g));
    }

    #[test]
    fn lower_bound_graph_degrees(m in 1usize..10) {
        let g = generators::lower_bound_graph(m);
        // Layer-3 node with value v has degree = popcount(v).
        for value in 1usize..(1 << m) {
            let node = generators::lb::value_node(m, value);
            prop_assert_eq!(g.degree(node), value.count_ones() as usize);
        }
    }

    #[test]
    fn gnp_is_deterministic_and_bounded(n in 1usize..80, q in 0.0f64..=1.0, seed in any::<u64>()) {
        use rand::SeedableRng as _;
        let build = || {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            generators::gnp(n, q, &mut rng)
        };
        let g = build();
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
        // Determinism per seed: identical adjacency.
        let h = build();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn random_geometric_is_deterministic_and_simple(
        n in 1usize..80,
        radius in 0.01f64..0.7,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng as _;
        let build = || {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            generators::random_geometric(n, radius, &mut rng)
        };
        let g = build();
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.max_degree() < n);
        let h = build();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn preferential_attachment_invariants(
        n in 1usize..150,
        m in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng as _;
        let build = || {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            generators::preferential_attachment(n, m, &mut rng)
        };
        let g = build();
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(traversal::is_connected(&g));
        // Node v contributes exactly min(m, v) distinct edges, so both
        // the total and the per-node degree floor are exact.
        let expected: usize = (1..n).map(|v| m.min(v)).sum();
        prop_assert_eq!(g.edge_count(), expected);
        for v in 1..n {
            prop_assert!(g.degree(g.node(v)) >= m.min(v));
        }
        let h = build();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn csr_round_trip_preserves_adjacency(g in connected_graph()) {
        // Graph → `u32` edge list → Graph must be lossless on arbitrary
        // graphs, and the typed and raw rows must agree.
        let edges: Vec<(u32, u32)> =
            g.edges().map(|(u, v)| (u32::from(u), u32::from(v))).collect();
        prop_assert_eq!(edges.len(), g.edge_count());
        for v in g.nodes() {
            let typed: Vec<u32> = g.neighbors(v).map(u32::from).collect();
            prop_assert_eq!(g.targets_of(u32::from(v)), typed.as_slice());
        }
        let back = Graph::from_edges(g.node_count(), &edges);
        prop_assert_eq!(back, g);
    }

    #[test]
    fn csr_bfs_tree_matches_spanning_tree(g in connected_graph()) {
        let tree = g.bfs_tree(0);
        let reference = SpanningTree::bfs(&g, g.node(0));
        let ref_order: Vec<u32> =
            reference.level_order().iter().map(|&v| u32::from(v)).collect();
        prop_assert_eq!(tree.order(), ref_order.as_slice());
        for v in g.nodes() {
            let expect: Vec<u32> =
                reference.children(v).iter().map(|&c| u32::from(c)).collect();
            prop_assert_eq!(tree.children_of(v.index()), expect.as_slice());
        }
    }

    #[test]
    fn random_connected_edge_count_is_exact(
        n in 2usize..40,
        extra_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng as _;
        let capacity = n * (n - 1) / 2 - (n - 1);
        let extra = (extra_frac * capacity as f64) as usize;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        prop_assert_eq!(g.edge_count(), n - 1 + extra);
        prop_assert!(traversal::is_connected(&g));
    }
}
