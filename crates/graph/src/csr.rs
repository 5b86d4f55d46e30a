//! Flat compressed-sparse-row adjacency — the shared simulation
//! substrate of the large-`n` fast-path engines.
//!
//! [`Graph`] already stores CSR internally, but with `usize` offsets and
//! a validating, edge-list-buffering builder that was designed for
//! correctness at experiment sizes, not for `n = 10⁶` construction.
//! [`CsrGraph`] is the lean sibling over `u32` words — `u32` ids address
//! 4 × 10⁹ nodes, which covers the 10⁸ scale tier with room to spare. It
//! is built either losslessly from a [`Graph`] (both directions preserve
//! adjacency exactly) or *directly* from an edge list by counting sort —
//! the path the scalable generators ([`crate::generators::gnp_csr`] and
//! friends) use to skip the 16-byte-per-edge builder buffer and roughly
//! halve peak build memory.
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

use std::fmt;

use crate::{Graph, NodeId};

/// Largest usable node id or adjacency length of the `u32` word: the
/// all-ones value `u32::MAX` is reserved as a sentinel by the traversal
/// kernels.
pub(crate) const MAX_INDEX: u64 = (u32::MAX as u64) - 1;

/// A typed rejection from the CSR builders.
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
    /// An edge joins a node to itself.
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

/// An undirected simple graph as flat `u32` CSR arrays — the substrate
/// of the fast-path engines. `u32` ids and offsets bound it at
/// ~4 × 10⁹ nodes and adjacency entries, far beyond the
/// 10⁸ scale tier.
///
/// Node ids are dense `0..n`; `targets[offsets[v]..offsets[v+1]]` are
/// `v`'s neighbors in ascending order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CsrGraph {
    /// `n + 1` row boundaries into `targets`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists (each undirected edge appears
    /// twice).
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds the CSR adjacency for the undirected simple graph on `n`
    /// nodes with the given edges, by counting sort: degree pass,
    /// prefix sums, scatter, then per-row sort + dedup. Duplicate edges
    /// merge; peak memory is the edge list plus the arrays themselves.
    ///
    /// # Panics
    ///
    /// Panics on any [`CsrError`] (see [`try_from_edges`](Self::try_from_edges)
    /// for the non-panicking entry point).
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::try_from_edges(n, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`from_edges`](Self::from_edges), rejecting invalid input with a
    /// typed [`CsrError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError`] on an empty graph, a node count or
    /// adjacency volume beyond the word, self-loops, or out-of-range
    /// endpoints.
    pub fn try_from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, CsrError> {
        Self::build(n, || {
            edges.iter().map(|&(u, v)| (u64::from(u), u64::from(v)))
        })
    }

    /// Builds from `(u64, u64)` edge runs — the streaming-generator
    /// format — rejecting endpoints that don't fit the `u32` word with
    /// the typed [`CsrError::EndpointOverflow`] (**never** silently
    /// truncating). The width check runs before the range check, so an
    /// endpoint `>= u32::MAX` reports as overflow even when it is also
    /// `>= n`.
    ///
    /// # Errors
    ///
    /// As [`try_from_edges`](Self::try_from_edges), plus
    /// [`CsrError::EndpointOverflow`].
    pub fn try_from_edges64(n: usize, edges: &[(u64, u64)]) -> Result<Self, CsrError> {
        Self::build(n, || edges.iter().copied())
    }

    /// The shared counting-sort builder: `runs()` must yield the same
    /// edge sequence on both passes (degree count, then scatter).
    fn build<I, F>(n: usize, runs: F) -> Result<Self, CsrError>
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
        Ok(CsrGraph {
            offsets: compact_offsets,
            targets,
        })
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// The sorted neighbor list of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn neighbors_of(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The degree of node `v`.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors_of(v).len()
    }

    /// The row-boundary array (`n + 1` entries).
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated neighbor lists.
    #[must_use]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Consumes the graph into its `(offsets, targets)` CSR arrays, so
    /// engines that own their adjacency can take it without copying.
    #[must_use]
    pub fn into_raw_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.targets)
    }

    /// The BFS spanning structure rooted at `source`: level order and
    /// per-parent child lists over the source's component only, so the
    /// graph may be disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    #[must_use]
    pub fn bfs_tree(&self, source: u32) -> CsrTree {
        let n = self.node_count();
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
            for &v in self.neighbors_of(u as usize) {
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
}

impl From<&Graph> for CsrGraph {
    /// Lossless structural copy — [`Graph`] is CSR internally with the
    /// same sorted-row invariant, so no re-sorting happens.
    fn from(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0u32);
        for v in graph.nodes() {
            targets.extend(graph.neighbors(v).iter().map(|&t| u32::from(t)));
            let len = u32::try_from(targets.len()).expect("adjacency exceeds u32::MAX");
            offsets.push(len);
        }
        CsrGraph { offsets, targets }
    }
}

impl From<&CsrGraph> for Graph {
    /// Lossless widening copy: adjacency rows are already sorted and
    /// deduplicated, so the conversion is two linear passes.
    fn from(csr: &CsrGraph) -> Self {
        let offsets: Vec<usize> = csr.offsets.iter().map(|&o| o as usize).collect();
        let adjacency: Vec<NodeId> = csr.targets.iter().map(|&t| NodeId::from(t)).collect();
        let edge_count = csr.edge_count();
        Graph::from_csr_parts(offsets, adjacency, edge_count)
    }
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
    use crate::{generators, SpanningTree};

    #[test]
    fn from_edges_sorts_and_merges_duplicates() {
        let csr = CsrGraph::from_edges(4, &[(2, 0), (0, 1), (1, 0), (3, 1), (0, 2)]);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.neighbors_of(0), &[1, 2]);
        assert_eq!(csr.neighbors_of(1), &[0, 3]);
        assert_eq!(csr.neighbors_of(2), &[0]);
        assert_eq!(csr.neighbors_of(3), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_edges_rejects_self_loops() {
        let _ = CsrGraph::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = CsrGraph::from_edges(3, &[(0, 3)]);
    }

    #[test]
    fn try_from_edges_reports_typed_errors() {
        assert_eq!(CsrGraph::try_from_edges(0, &[]), Err(CsrError::EmptyGraph));
        assert_eq!(
            CsrGraph::try_from_edges(3, &[(2, 2)]),
            Err(CsrError::SelfLoop { node: 2 })
        );
        assert_eq!(
            CsrGraph::try_from_edges(3, &[(0, 7)]),
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
                CsrGraph::try_from_edges64(10, &[(0, endpoint)]),
                Err(CsrError::EndpointOverflow { endpoint, max }),
                "endpoint {endpoint}"
            );
            // Symmetric in the first endpoint.
            assert_eq!(
                CsrGraph::try_from_edges64(10, &[(endpoint, 0)]),
                Err(CsrError::EndpointOverflow { endpoint, max }),
            );
        }
        // One below the sentinel fits the word, so the *range* check
        // fires instead — proving the width gate sits in front.
        let below = (u32::MAX as u64) - 1;
        assert_eq!(
            CsrGraph::try_from_edges64(10, &[(0, below)]),
            Err(CsrError::OutOfRange {
                endpoint: below,
                n: 10
            })
        );
    }

    #[test]
    fn u64_runs_match_u32_from_edges() {
        let edges32: Vec<(u32, u32)> = vec![(2, 0), (0, 1), (1, 0), (3, 1), (0, 2)];
        let edges64: Vec<(u64, u64)> = edges32.iter().map(|&(u, v)| (u as u64, v as u64)).collect();
        assert_eq!(
            CsrGraph::from_edges(4, &edges32),
            CsrGraph::try_from_edges64(4, &edges64).expect("in range")
        );
    }

    /// Edge runs of the `u64` streaming width build the `u32` CSR and
    /// read back unchanged.
    #[test]
    fn u64_width_builds_and_reads_back() {
        let csr = CsrGraph::try_from_edges64(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).expect("valid");
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.neighbors_of(0), &[1, 3]);
        assert_eq!(csr.neighbors_of(3), &[0, 2]);
        let (offsets, targets) = csr.into_raw_parts();
        assert_eq!(offsets.len(), 5);
        assert_eq!(targets.len(), 8);
    }

    #[test]
    fn graph_round_trip_preserves_adjacency() {
        for g in [
            generators::grid(5, 7),
            generators::star(9),
            generators::lower_bound_graph(4),
            generators::path(0),
        ] {
            let csr = CsrGraph::from(&g);
            assert_eq!(csr.node_count(), g.node_count());
            assert_eq!(csr.edge_count(), g.edge_count());
            for v in g.nodes() {
                let expect: Vec<u32> = g.neighbors(v).iter().map(|&t| u32::from(t)).collect();
                assert_eq!(csr.neighbors_of(v.index()), expect.as_slice());
            }
            let back = Graph::from(&csr);
            assert_eq!(back, g, "round trip must be lossless");
        }
    }

    #[test]
    fn bfs_tree_matches_spanning_tree() {
        let g = generators::grid(4, 6);
        let csr = CsrGraph::from(&g);
        let tree = csr.bfs_tree(0);
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
        let csr = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let tree = csr.bfs_tree(0);
        assert_eq!(tree.component_size(), 3);
        assert_eq!(tree.order(), &[0, 1, 2]);
        assert_eq!(tree.children_of(0), &[1, 2]);
        assert!(tree.children_of(3).is_empty());
        let far = csr.bfs_tree(3);
        assert_eq!(far.order(), &[3, 4]);
        assert_eq!(far.children_of(3), &[4]);
        let (offsets, children) = far.into_children_csr();
        assert_eq!(offsets.len(), 6);
        assert_eq!(children, vec![4]);
    }

    #[test]
    fn single_node_graph() {
        let csr = CsrGraph::from_edges(1, &[]);
        assert_eq!(csr.node_count(), 1);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.neighbors_of(0).is_empty());
        let tree = csr.bfs_tree(0);
        assert_eq!(tree.component_size(), 1);
    }
}
