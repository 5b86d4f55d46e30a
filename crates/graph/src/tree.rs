use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// A spanning tree of a [`Graph`], rooted at the broadcast source.
///
/// The paper's algorithms (`Simple-Omission`, `Simple-Malicious`, the
/// flooding and Kučera-based schemes of Section 3) all operate on a
/// spanning tree "constructed centrally in a preprocessing stage". This
/// type captures that preprocessing output:
///
/// * `parent(v)` — the node from which `v` receives the source message,
/// * `children(v)` — the nodes `v` relays to,
/// * [`level_order`](SpanningTree::level_order) — the enumeration
///   `v1, …, vn` "ordered by nondecreasing distance from `s` in `T`"
///   (Section 2.1),
/// * [`branches`](SpanningTree::branches) — root-to-leaf paths, the "lines"
///   on which the Diks–Pelc and Kučera line algorithms run (Section 3).
///
/// # Example
///
/// ```
/// use randcast_graph::{generators, SpanningTree};
///
/// let g = generators::grid(3, 3);
/// let t = SpanningTree::bfs(&g, g.node(0));
/// assert_eq!(t.root(), g.node(0));
/// assert_eq!(t.parent(t.root()), None);
/// assert_eq!(t.depth(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanningTree {
    root: NodeId,
    /// `parent[v] == v` encodes the root.
    parent: Vec<NodeId>,
    children: Vec<Vec<NodeId>>,
    level: Vec<usize>,
    depth: usize,
}

impl SpanningTree {
    /// Builds the breadth-first spanning tree of `graph` rooted at `root`.
    ///
    /// BFS trees minimize every node's depth, so the tree's depth equals
    /// the paper's `D` (the radius of the graph w.r.t. the source).
    /// Neighbor exploration order is by node id, making the tree
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if some node is unreachable from `root`.
    #[must_use]
    pub fn bfs(graph: &Graph, root: NodeId) -> Self {
        let n = graph.node_count();
        let mut parent = vec![None::<NodeId>; n];
        let mut level = vec![usize::MAX; n];
        let mut children = vec![Vec::new(); n];
        let mut queue = VecDeque::new();
        level[root.index()] = 0;
        parent[root.index()] = Some(root);
        queue.push_back(root);
        let mut depth = 0;
        while let Some(u) = queue.pop_front() {
            for v in graph.neighbors(u) {
                if parent[v.index()].is_none() {
                    parent[v.index()] = Some(u);
                    level[v.index()] = level[u.index()] + 1;
                    depth = depth.max(level[v.index()]);
                    children[u.index()].push(v);
                    queue.push_back(v);
                }
            }
        }
        let parent: Vec<NodeId> = parent
            .into_iter()
            .map(|p| p.expect("graph is not connected to the root"))
            .collect();
        SpanningTree {
            root,
            parent,
            children,
            level,
            depth,
        }
    }

    /// The root (broadcast source) of the tree.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The parent of `v` in the tree; `None` for the root.
    #[must_use]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != v).then_some(p)
    }

    /// The children of `v` (in node-id order).
    #[must_use]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// The depth (level) of `v`: distance from the root along the tree.
    #[must_use]
    pub fn level(&self, v: NodeId) -> usize {
        self.level[v.index()]
    }

    /// The tree depth: the maximum level; for a BFS tree this equals the
    /// paper's `D`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether `v` is a leaf (no children).
    #[must_use]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children(v).is_empty()
    }

    /// The paper's enumeration `v1, …, vn`: all nodes ordered by
    /// nondecreasing level (ties broken by node id). `level_order()[0]` is
    /// the root.
    #[must_use]
    pub fn level_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.node_count()).map(NodeId::new).collect();
        order.sort_by_key(|v| (self.level[v.index()], v.index()));
        order
    }

    /// All root-to-leaf paths ("branches"), each starting at the root.
    ///
    /// The Section 3 algorithms run a line algorithm along every branch in
    /// parallel; adding dummy nodes to equalize branch lengths is the
    /// paper's analysis device and is not needed at execution time.
    #[must_use]
    pub fn branches(&self) -> Vec<Vec<NodeId>> {
        let mut result = Vec::new();
        let mut stack = vec![(self.root, vec![self.root])];
        while let Some((v, path)) = stack.pop() {
            if self.is_leaf(v) {
                result.push(path);
                continue;
            }
            for &c in self.children(v).iter().rev() {
                let mut next = path.clone();
                next.push(c);
                stack.push((c, next));
            }
        }
        result
    }

    /// The path from the root to `v`, inclusive.
    #[must_use]
    pub fn path_from_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_tree_on_path_is_the_path() {
        let g = generators::path(4);
        let t = SpanningTree::bfs(&g, g.node(0));
        assert_eq!(t.depth(), 4);
        for i in 1..=4 {
            assert_eq!(t.parent(g.node(i)), Some(g.node(i - 1)));
        }
        assert_eq!(t.children(g.node(2)), &[g.node(3)]);
        assert!(t.is_leaf(g.node(4)));
    }

    #[test]
    fn level_order_respects_levels() {
        let g = generators::grid(3, 3);
        let t = SpanningTree::bfs(&g, g.node(0));
        let order = t.level_order();
        assert_eq!(order[0], t.root());
        for w in order.windows(2) {
            assert!(t.level(w[0]) <= t.level(w[1]));
        }
        assert_eq!(order.len(), g.node_count());
    }

    #[test]
    fn path_from_root_is_consistent() {
        let g = generators::balanced_tree(2, 3);
        let t = SpanningTree::bfs(&g, g.node(0));
        for v in g.nodes() {
            let p = t.path_from_root(v);
            assert_eq!(p[0], t.root());
            assert_eq!(*p.last().unwrap(), v);
            assert_eq!(p.len(), t.level(v) + 1);
            for w in p.windows(2) {
                assert_eq!(t.parent(w[1]), Some(w[0]));
            }
        }
    }

    #[test]
    fn branches_cover_all_leaves() {
        let g = generators::balanced_tree(3, 2);
        let t = SpanningTree::bfs(&g, g.node(0));
        let branches = t.branches();
        let leaves: usize = g.nodes().filter(|&v| t.is_leaf(v)).count();
        assert_eq!(branches.len(), leaves);
        for b in &branches {
            assert_eq!(b[0], t.root());
            assert!(t.is_leaf(*b.last().unwrap()));
            for w in b.windows(2) {
                assert_eq!(t.parent(w[1]), Some(w[0]));
            }
        }
    }

    #[test]
    fn star_tree_depth_one() {
        let g = generators::star(5);
        let t = SpanningTree::bfs(&g, g.node(0));
        assert_eq!(t.depth(), 1);
        assert_eq!(t.children(g.node(0)).len(), 5);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn bfs_panics_on_disconnected() {
        let mut b = crate::GraphBuilder::new(3);
        b.edge(0, 1);
        let g = b.finish().unwrap();
        let _ = SpanningTree::bfs(&g, g.node(0));
    }
}
