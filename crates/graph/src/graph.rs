use crate::csr::{self, CsrError, CsrTree};
use crate::NodeId;

/// Incremental, validating builder for [`Graph`].
///
/// Duplicate edges are merged silently (the network model is a simple
/// graph); self-loops and out-of-range endpoints are rejected by
/// [`finish`](GraphBuilder::finish).
///
/// # Example
///
/// ```
/// use randcast_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.edge(0, 1).edge(1, 2).edge(0, 1); // duplicate is fine
/// let g = b.finish().unwrap();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    nodes: usize,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `nodes` nodes and no edges.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        GraphBuilder {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`. Returns `self` for chaining.
    pub fn edge(&mut self, u: usize, v: usize) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Adds every edge in `iter`.
    pub fn edges<I: IntoIterator<Item = (usize, usize)>>(&mut self, iter: I) -> &mut Self {
        self.edges.extend(iter);
        self
    }

    /// Validates and freezes the graph with the same counting sort as
    /// [`Graph::from_edges`].
    ///
    /// # Errors
    ///
    /// Returns [`CsrError::EmptyGraph`] for zero nodes,
    /// [`CsrError::SelfLoop`] for an edge `{u, u}`,
    /// [`CsrError::OutOfRange`] for endpoints `>= nodes`, and the
    /// word-width variants for graphs beyond the `u32` CSR.
    pub fn finish(&self) -> Result<Graph, CsrError> {
        Graph::build(self.nodes, || {
            self.edges.iter().map(|&(u, v)| (u as u64, v as u64))
        })
    }
}

/// An undirected simple graph as flat `u32` compressed-sparse-row
/// arrays — the one adjacency type of the trait-object engines and the
/// fast kernels alike. `u32` ids and offsets bound it at ~4 × 10⁹ nodes
/// and adjacency entries, far beyond the 10⁸ scale tier.
///
/// Nodes are identified by dense [`NodeId`]s `0..n`;
/// `targets[offsets[v]..offsets[v+1]]` are `v`'s neighbors in ascending
/// order. The representation is immutable after construction (through
/// [`GraphBuilder`] or [`Graph::from_edges`]), which keeps every
/// simulation run free of accidental topology mutation.
///
/// # Example
///
/// ```
/// use randcast_graph::generators;
///
/// let g = generators::star(4); // center v0 plus 4 leaves
/// assert_eq!(g.node_count(), 5);
/// assert_eq!(g.degree(g.node(0)), 4);
/// assert_eq!(g.max_degree(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Graph {
    /// `n + 1` row boundaries into `targets`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists (each undirected edge appears
    /// twice).
    targets: Vec<u32>,
}

impl Graph {
    /// Builds the graph on `n` nodes with the given edges by counting
    /// sort: degree pass, prefix sums, scatter, then per-row sort +
    /// dedup. Duplicate edges merge; peak memory is the edge list plus
    /// the arrays themselves.
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

    /// The one counting sort behind every constructor: `runs()` must yield
    /// the same edge sequence on both of `csr::build`'s passes.
    fn build<I, F>(n: usize, runs: F) -> Result<Self, CsrError>
    where
        F: Fn() -> I,
        I: Iterator<Item = (u64, u64)>,
    {
        let (offsets, targets) = csr::build(n, runs)?;
        Ok(Graph { offsets, targets })
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

    /// The [`NodeId`] for dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.node_count()`.
    #[must_use]
    pub fn node(&self, index: usize) -> NodeId {
        assert!(index < self.node_count(), "node index out of range");
        NodeId::new(index)
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// The neighbors of `v`, in ascending order.
    pub fn neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.targets_of(u32::from(v))
            .iter()
            .map(|&t| NodeId::from(t))
    }

    /// The sorted neighbor row of node `v` as raw `u32` ids — the
    /// kernels' view of [`neighbors`](Self::neighbors).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    #[must_use]
    pub fn targets_of(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The degree of `v`.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.targets_of(u32::from(v)).len()
    }

    /// The maximum degree `Δ` of the graph — the parameter of the radio
    /// feasibility threshold `p < (1 − p)^{Δ+1}` (Theorem 2.4).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.targets_of(u32::from(u))
            .binary_search(&u32::from(v))
            .is_ok()
    }

    /// Iterates over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The row-boundary array (`n + 1` entries).
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated neighbor rows.
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
        CsrTree::bfs(self, source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_empty() {
        assert_eq!(GraphBuilder::new(0).finish(), Err(CsrError::EmptyGraph));
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.edge(1, 1);
        assert_eq!(b.finish(), Err(CsrError::SelfLoop { node: 1 }));
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 2);
        assert_eq!(b.finish(), Err(CsrError::OutOfRange { endpoint: 2, n: 2 }));
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 0).edge(0, 1).edge(2, 1);
        let g = b.finish().unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(g.node(1)), 2);
        assert!(g.has_edge(g.node(0), g.node(1)));
        assert!(!g.has_edge(g.node(0), g.node(2)));
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = GraphBuilder::new(5);
        b.edge(2, 4).edge(2, 0).edge(2, 3).edge(2, 1);
        let g = b.finish().unwrap();
        let nb: Vec<usize> = g.neighbors(g.node(2)).map(|v| v.index()).collect();
        assert_eq!(nb, vec![0, 1, 3, 4]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(1, 2).edge(2, 3).edge(3, 0);
        let g = b.finish().unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn single_node_graph_is_valid() {
        let g = GraphBuilder::new(1).finish().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CsrError::OutOfRange { endpoint: 9, n: 3 };
        assert!(e.to_string().contains('9'));
        assert!(CsrError::SelfLoop { node: 2 }.to_string().contains('2'));
        assert!(!CsrError::EmptyGraph.to_string().is_empty());
    }
}
