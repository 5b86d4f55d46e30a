//! Breadth-first traversal utilities: distances, radius, diameter,
//! connectivity.
//!
//! The paper measures broadcast time against `D`, "the radius of `G` with
//! respect to `s`, namely the largest distance from `s` to any node in `G`"
//! — that quantity is [`radius_from`].

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Distance marker for unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: usize = usize::MAX;

/// Single-source BFS distances from `source`.
///
/// Returns a vector indexed by node id; unreachable nodes get
/// [`UNREACHABLE`].
///
/// # Example
///
/// ```
/// use randcast_graph::{generators, traversal};
///
/// let g = generators::path(5); // v0 - v1 - ... - v5
/// let d = traversal::bfs_distances(&g, g.node(0));
/// assert_eq!(d[5], 5);
/// ```
#[must_use]
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<usize> {
    let mut dist = vec![UNREACHABLE; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for v in graph.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The paper's `D`: the largest distance from `source` to any node.
///
/// # Panics
///
/// Panics if some node is unreachable from `source`; the broadcast problem
/// is only defined on graphs connected to the source.
#[must_use]
pub fn radius_from(graph: &Graph, source: NodeId) -> usize {
    bfs_distances(graph, source)
        .into_iter()
        .inspect(|&d| {
            assert_ne!(d, UNREACHABLE, "graph is not connected to the source");
        })
        .max()
        .expect("graph has at least one node")
}

/// The largest distance from `source` to any node *reachable* from it.
///
/// Unlike [`radius_from`], this is defined on disconnected graphs (the
/// almost-complete broadcast regime runs on the source's component and
/// measures the informed fraction); on connected graphs the two agree.
#[must_use]
pub fn reachable_radius(graph: &Graph, source: NodeId) -> usize {
    bfs_distances(graph, source)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .expect("graph has at least one node")
}

/// Number of nodes reachable from `source` (including `source` itself).
#[must_use]
pub fn reachable_count(graph: &Graph, source: NodeId) -> usize {
    bfs_distances(graph, source)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .count()
}

/// Whether every node is reachable from node 0 (and hence, by symmetry of
/// undirected graphs, the graph is connected).
#[must_use]
pub fn is_connected(graph: &Graph) -> bool {
    bfs_distances(graph, graph.node(0))
        .iter()
        .all(|&d| d != UNREACHABLE)
}

/// The diameter: the maximum over sources of [`radius_from`].
///
/// Runs one BFS per node (`O(n · m)`); intended for the moderate graph
/// sizes used in experiments.
///
/// # Panics
///
/// Panics if the graph is disconnected.
#[must_use]
pub fn diameter(graph: &Graph) -> usize {
    graph
        .nodes()
        .map(|s| radius_from(graph, s))
        .max()
        .expect("graph has at least one node")
}

/// Nodes grouped by BFS distance from `source`: `layers()[d]` holds every
/// node at distance exactly `d`, each layer sorted by node id.
///
/// Layer 0 is `[source]`. Unreachable nodes are absent.
#[must_use]
pub fn bfs_layers(graph: &Graph, source: NodeId) -> Vec<Vec<NodeId>> {
    let dist = bfs_distances(graph, source);
    let depth = dist
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .max()
        .copied()
        .unwrap_or(0);
    let mut layers = vec![Vec::new(); depth + 1];
    for (i, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE {
            layers[d].push(NodeId::new(i));
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn path_distances() {
        let g = generators::path(4);
        let d = bfs_distances(&g, g.node(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert_eq!(radius_from(&g, g.node(0)), 4);
        assert_eq!(radius_from(&g, g.node(2)), 2);
        assert_eq!(diameter(&g), 4);
    }

    #[test]
    fn cycle_radius() {
        let g = generators::cycle(6);
        assert_eq!(radius_from(&g, g.node(0)), 3);
        assert_eq!(diameter(&g), 3);
    }

    #[test]
    fn star_is_radius_one_from_center() {
        let g = generators::star(7);
        assert_eq!(radius_from(&g, g.node(0)), 1);
        assert_eq!(radius_from(&g, g.node(1)), 2);
        assert_eq!(diameter(&g), 2);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(2, 3);
        let g = b.finish().unwrap();
        assert!(!is_connected(&g));
        let d = bfs_distances(&g, g.node(0));
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn radius_panics_on_disconnected() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1);
        let g = b.finish().unwrap();
        let _ = radius_from(&g, g.node(0));
    }

    #[test]
    fn reachable_radius_on_disconnected_graph() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(3, 4);
        let g = b.finish().unwrap();
        assert_eq!(reachable_radius(&g, g.node(0)), 2);
        assert_eq!(reachable_count(&g, g.node(0)), 3);
        assert_eq!(reachable_radius(&g, g.node(3)), 1);
        assert_eq!(reachable_count(&g, g.node(3)), 2);
        // Agrees with radius_from on connected graphs.
        let p = generators::path(6);
        assert_eq!(reachable_radius(&p, p.node(0)), radius_from(&p, p.node(0)));
        assert_eq!(reachable_count(&p, p.node(0)), 7);
    }

    #[test]
    fn layers_partition_nodes() {
        let g = generators::grid(3, 3);
        let layers = bfs_layers(&g, g.node(0));
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, g.node_count());
        assert_eq!(layers[0], vec![g.node(0)]);
        // Every node in layer d has a neighbor in layer d-1.
        let dist = bfs_distances(&g, g.node(0));
        for (d, layer) in layers.iter().enumerate().skip(1) {
            for &v in layer {
                assert!(g.neighbors(v).any(|u| dist[u.index()] == d - 1));
            }
        }
    }

    #[test]
    fn hypercube_radius_is_dimension() {
        let g = generators::hypercube(4);
        assert_eq!(radius_from(&g, g.node(0)), 4);
        assert_eq!(g.max_degree(), 4);
    }
}
