//! The flat `u32` compressed-sparse-row machinery behind [`Graph`]:
//! its counting sort, that sort's typed errors, and the BFS child-list
//! tree the fast kernels share.
//!
//! `u32` ids address 4 × 10⁹ nodes, which covers the 10⁸ scale tier with
//! room to spare. Every [`Graph`] constructor — [`GraphBuilder`], the
//! edge-list entry points, and the generators that build straight from
//! their `_edges` streams — runs the one counting sort here, which
//! skips any normalized edge-list copy and keeps peak build memory at
//! the edge list plus the CSR arrays.
//!
//! Edge endpoints wider than the `u32` word are a **typed error**
//! ([`CsrError::EndpointOverflow`]), never a silent truncation: the
//! width check runs before the range check, so a `u64` endpoint that
//! cannot fit the word is reported as exactly that.
//!
//! [`CsrTree`] is the BFS spanning structure the kernels share: the
//! level order of the source's component plus per-parent child lists in
//! one flat CSR, computed without touching nodes outside the component
//! (so disconnected graphs are fine — the almost-complete broadcast
//! regime).
//!
//! [`GraphBuilder`]: crate::GraphBuilder

use std::fmt;

use crate::Graph;

/// Largest usable node id or adjacency length of the `u32` word: the
/// all-ones value `u32::MAX` is reserved as a sentinel by the traversal
/// kernels.
pub(crate) const MAX_INDEX: u64 = (u32::MAX as u64) - 1;

/// A typed rejection of a graph's size or edges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CsrError {
    /// The graph would have no nodes.
    EmptyGraph,
    /// `n` does not fit the target word (ids `0..n` must be usable).
    TooManyNodes {
        /// Requested node count.
        n: u64,
        /// Largest usable index for the word.
        max: u64,
    },
    /// An edge endpoint does not fit the target word — the silent
    /// `u64 → u32` truncation this variant exists to prevent.
    EndpointOverflow {
        /// The offending endpoint value.
        endpoint: u64,
        /// Largest usable index for the word.
        max: u64,
    },
    /// An edge joins a node to itself; the network model has no
    /// self-loops.
    SelfLoop {
        /// The offending node.
        node: u64,
    },
    /// An edge endpoint is `>= n`.
    OutOfRange {
        /// The offending endpoint value.
        endpoint: u64,
        /// The node count it must stay below.
        n: u64,
    },
    /// The directed adjacency (2 entries per undirected edge) does not
    /// fit the target word's offset range.
    AdjacencyOverflow {
        /// Largest usable index for the word.
        max: u64,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CsrError::EmptyGraph => write!(f, "graph must have at least one node"),
            CsrError::TooManyNodes { n, max } => {
                write!(f, "node count {n} exceeds the width's usable range ({max})")
            }
            CsrError::EndpointOverflow { endpoint, max } => write!(
                f,
                "edge endpoint {endpoint} exceeds the target word (max usable index {max})"
            ),
            CsrError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            CsrError::OutOfRange { endpoint, n } => {
                write!(f, "edge endpoint {endpoint} out of range (n = {n})")
            }
            CsrError::AdjacencyOverflow { max } => {
                write!(f, "adjacency exceeds the width's offset range ({max})")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// The counting-sort CSR build of the undirected simple graph on `n`
/// nodes: degree pass, prefix sums, scatter, then per-row sort + dedup,
/// returning `(offsets, targets)`. `runs()` must yield the same edge
/// sequence on both passes (degree count, then scatter).
pub(crate) fn build<I, F>(n: usize, runs: F) -> Result<(Vec<u32>, Vec<u32>), CsrError>
where
    F: Fn() -> I,
    I: Iterator<Item = (u64, u64)>,
{
    if n == 0 {
        return Err(CsrError::EmptyGraph);
    }
    let n64 = n as u64;
    if n64 > MAX_INDEX {
        return Err(CsrError::TooManyNodes {
            n: n64,
            max: MAX_INDEX,
        });
    }
    let check = |e: u64| -> Result<(), CsrError> {
        if e > MAX_INDEX {
            return Err(CsrError::EndpointOverflow {
                endpoint: e,
                max: MAX_INDEX,
            });
        }
        if e >= n64 {
            return Err(CsrError::OutOfRange {
                endpoint: e,
                n: n64,
            });
        }
        Ok(())
    };
    let mut degree = vec![0u64; n];
    for (u, v) in runs() {
        check(u)?;
        check(v)?;
        if u == v {
            return Err(CsrError::SelfLoop { node: u });
        }
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for &d in &degree {
        acc += d;
        if acc > MAX_INDEX {
            return Err(CsrError::AdjacencyOverflow { max: MAX_INDEX });
        }
        offsets.push(acc as u32);
    }
    drop(degree);
    // Endpoints and cursors are checked against MAX_INDEX above, so
    // every narrowing below is exact.
    let mut targets = vec![0u32; acc as usize];
    let mut cursor: Vec<u32> = offsets.clone();
    for (u, v) in runs() {
        let (u, v) = (u as usize, v as usize);
        targets[cursor[u] as usize] = v as u32;
        cursor[u] += 1;
        targets[cursor[v] as usize] = u as u32;
        cursor[v] += 1;
    }
    drop(cursor);
    // Sort each row, drop duplicate edges, and compact in place.
    let mut write = 0usize;
    let mut compact_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    compact_offsets.push(0);
    for v in 0..n {
        let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
        targets[start..end].sort_unstable();
        let mut prev: Option<u32> = None;
        for i in start..end {
            let t = targets[i];
            if prev != Some(t) {
                targets[write] = t;
                write += 1;
                prev = Some(t);
            }
        }
        compact_offsets.push(write as u32);
    }
    targets.truncate(write);
    Ok((compact_offsets, targets))
}

/// The BFS spanning structure of one source component: the paper's
/// `v1..vn` level-order enumeration plus flat per-parent child lists —
/// everything the fast broadcast kernels need from a spanning tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrTree {
    /// The source component in the paper's enumeration order:
    /// nondecreasing BFS level, ties broken by node id (`order[0]` is
    /// the source). Nodes outside the component do not appear.
    order: Vec<u32>,
    /// `n + 1` row boundaries into `children`, indexed by graph node id.
    child_offsets: Vec<u32>,
    /// Concatenated child lists, ascending per parent.
    children: Vec<u32>,
}

impl CsrTree {
    /// The BFS tree of `graph` rooted at `source` (see
    /// [`Graph::bfs_tree`]).
    pub(crate) fn bfs(graph: &Graph, source: u32) -> CsrTree {
        let n = graph.node_count();
        assert!((source as usize) < n, "source out of range");
        const UNSET: u32 = u32::MAX;
        let mut parent = vec![UNSET; n];
        let mut level = vec![0u32; n];
        let mut order: Vec<u32> = Vec::new();
        parent[source as usize] = source;
        order.push(source);
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &v in graph.targets_of(u) {
                if parent[v as usize] == UNSET {
                    parent[v as usize] = u;
                    level[v as usize] = level[u as usize] + 1;
                    order.push(v);
                }
            }
        }
        // The paper's enumeration `v1..vn`: nondecreasing level, ties
        // broken by node id (matching `SpanningTree::level_order`).
        order.sort_unstable_by_key(|&v| (level[v as usize], v));
        let mut degree = vec![0u32; n];
        for (v, &p) in parent.iter().enumerate() {
            if p != UNSET && p as usize != v {
                degree[p as usize] += 1;
            }
        }
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        child_offsets.push(0);
        for &d in &degree {
            acc += d;
            child_offsets.push(acc);
        }
        let mut children = vec![0u32; acc as usize];
        let mut cursor = child_offsets.clone();
        // Children in BFS-discovery order (== ascending node id per
        // parent, since neighbor rows are sorted).
        for &v in &order {
            let p = parent[v as usize];
            if p != v {
                children[cursor[p as usize] as usize] = v;
                cursor[p as usize] += 1;
            }
        }
        CsrTree {
            order,
            child_offsets,
            children,
        }
    }

    /// The source component in nondecreasing-level order (ties by node
    /// id) — the paper's `v1..vn` enumeration restricted to reachable
    /// nodes.
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of nodes reachable from the source (component size).
    #[must_use]
    pub fn component_size(&self) -> usize {
        self.order.len()
    }

    /// The children of node `v` (empty for leaves and for nodes outside
    /// the source's component).
    #[must_use]
    pub fn children_of(&self, v: usize) -> &[u32] {
        &self.children[self.child_offsets[v] as usize..self.child_offsets[v + 1] as usize]
    }

    /// Consumes the tree into its `(child_offsets, children)` CSR
    /// arrays — the transmission-target structure of tree-based
    /// broadcast kernels.
    #[must_use]
    pub fn into_children_csr(self) -> (Vec<u32>, Vec<u32>) {
        (self.child_offsets, self.children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{EdgeSink, ShardError};
    use crate::{generators, SpanningTree};

    #[test]
    fn from_edges_sorts_and_merges_duplicates() {
        let g = Graph::from_edges(4, &[(2, 0), (0, 1), (1, 0), (3, 1), (0, 2)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.targets_of(0), &[1, 2]);
        assert_eq!(g.targets_of(1), &[0, 3]);
        assert_eq!(g.targets_of(2), &[0]);
        assert_eq!(g.targets_of(3), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_edges_rejects_self_loops() {
        let _ = Graph::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = Graph::from_edges(3, &[(0, 3)]);
    }

    #[test]
    fn try_from_edges_reports_typed_errors() {
        assert_eq!(Graph::try_from_edges(0, &[]), Err(CsrError::EmptyGraph));
        assert_eq!(
            Graph::try_from_edges(3, &[(2, 2)]),
            Err(CsrError::SelfLoop { node: 2 })
        );
        assert_eq!(
            Graph::try_from_edges(3, &[(0, 7)]),
            Err(CsrError::OutOfRange { endpoint: 7, n: 3 })
        );
    }

    /// The satellite boundary: a `u64` endpoint at or past the `u32`
    /// sentinel must come back as the typed overflow — checked *before*
    /// the range check, so it can never be mistaken for (or silently
    /// truncated into) an in-range id.
    #[test]
    fn u64_endpoints_past_the_u32_word_are_typed_overflow() {
        let max = MAX_INDEX;
        for endpoint in [u32::MAX as u64, u32::MAX as u64 + 1, 1u64 << 40, u64::MAX] {
            assert_eq!(
                Graph::try_from_edges64(10, &[(0, endpoint)]),
                Err(CsrError::EndpointOverflow { endpoint, max }),
                "endpoint {endpoint}"
            );
            // Symmetric in the first endpoint.
            assert_eq!(
                Graph::try_from_edges64(10, &[(endpoint, 0)]),
                Err(CsrError::EndpointOverflow { endpoint, max }),
            );
        }
        // One below the sentinel fits the word, so the *range* check
        // fires instead — proving the width gate sits in front.
        let below = (u32::MAX as u64) - 1;
        assert_eq!(
            Graph::try_from_edges64(10, &[(0, below)]),
            Err(CsrError::OutOfRange {
                endpoint: below,
                n: 10
            })
        );
        // The in-RAM edge sink applies the same width gate.
        let mut sink: Vec<(u32, u32)> = Vec::new();
        for endpoint in [u32::MAX as u64, 1u64 << 40] {
            for (u, v) in [(0, endpoint), (endpoint, 0)] {
                assert!(matches!(
                    sink.edge(u, v),
                    Err(ShardError::Graph(CsrError::EndpointOverflow { endpoint: e, max: m }))
                        if e == endpoint && m == max
                ));
            }
        }
        sink.edge(below, 0).expect("fits the word");
        assert_eq!(sink, [(u32::MAX - 1, 0)]);
    }

    #[test]
    fn u64_runs_match_u32_from_edges() {
        let edges32: Vec<(u32, u32)> = vec![(2, 0), (0, 1), (1, 0), (3, 1), (0, 2)];
        let edges64: Vec<(u64, u64)> = edges32.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
        assert_eq!(
            Graph::from_edges(4, &edges32),
            Graph::try_from_edges64(4, &edges64).expect("in range")
        );
    }

    /// Edge runs of the `u64` streaming width build the `u32` CSR and
    /// read back unchanged.
    #[test]
    fn u64_width_builds_and_reads_back() {
        let g = Graph::try_from_edges64(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).expect("valid");
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.targets_of(0), &[1, 3]);
        assert_eq!(g.targets_of(3), &[0, 2]);
        let (offsets, targets) = g.into_raw_parts();
        assert_eq!(offsets.len(), 5);
        assert_eq!(targets.len(), 8);
    }

    #[test]
    fn graph_round_trip_preserves_adjacency() {
        // Graphs frozen through `GraphBuilder` read back through their
        // edges and rebuild through the `u32` edge list unchanged.
        for g in [
            generators::grid(5, 7),
            generators::star(9),
            generators::lower_bound_graph(4),
            generators::path(0),
        ] {
            let edges: Vec<(u32, u32)> = g
                .edges()
                .map(|(u, v)| (u32::from(u), u32::from(v)))
                .collect();
            assert_eq!(edges.len(), g.edge_count());
            for v in g.nodes() {
                let typed: Vec<u32> = g.neighbors(v).map(u32::from).collect();
                assert_eq!(g.targets_of(u32::from(v)), typed.as_slice());
            }
            let back = Graph::from_edges(g.node_count(), &edges);
            assert_eq!(back, g, "round trip must be lossless");
        }
    }

    #[test]
    fn bfs_tree_matches_spanning_tree() {
        let g = generators::grid(4, 6);
        let tree = g.bfs_tree(0);
        let reference = SpanningTree::bfs(&g, g.node(0));
        let ref_order: Vec<u32> = reference
            .level_order()
            .iter()
            .map(|&v| u32::from(v))
            .collect();
        assert_eq!(tree.order(), ref_order.as_slice());
        assert_eq!(tree.component_size(), g.node_count());
        for v in g.nodes() {
            let expect: Vec<u32> = reference
                .children(v)
                .iter()
                .map(|&c| u32::from(c))
                .collect();
            assert_eq!(tree.children_of(v.index()), expect.as_slice(), "{v}");
        }
    }

    #[test]
    fn bfs_tree_covers_only_the_source_component() {
        // Triangle {0,1,2} plus the far edge {3,4}.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let tree = g.bfs_tree(0);
        assert_eq!(tree.component_size(), 3);
        assert_eq!(tree.order(), &[0, 1, 2]);
        assert_eq!(tree.children_of(0), &[1, 2]);
        assert!(tree.children_of(3).is_empty());
        let far = g.bfs_tree(3);
        assert_eq!(far.order(), &[3, 4]);
        assert_eq!(far.children_of(3), &[4]);
        let (offsets, children) = far.into_children_csr();
        assert_eq!(offsets.len(), 6);
        assert_eq!(children, vec![4]);
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.targets_of(0).is_empty());
        let tree = g.bfs_tree(0);
        assert_eq!(tree.component_size(), 1);
    }
}
