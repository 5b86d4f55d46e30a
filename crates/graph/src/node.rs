use std::fmt;

/// Identifier of a node in a [`Graph`](crate::Graph).
///
/// Node ids are dense indices `0..n`; they are assigned by the
/// [`GraphBuilder`](crate::GraphBuilder) in construction order. The newtype
/// prevents accidental mixing of node ids with other integer quantities
/// (round numbers, hit counts, …).
///
/// # Example
///
/// ```
/// use randcast_graph::NodeId;
///
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32` (graphs in this crate are
    /// bounded by `u32::MAX` nodes).
    #[inline]
    #[must_use]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the dense index of this node.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

impl From<NodeId> for u32 {
    fn from(value: NodeId) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for i in [0usize, 1, 17, 65_535] {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId::new(42).to_string(), "v42");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(7), NodeId::from(7u32));
        assert_eq!(u32::from(NodeId::new(9)), 9);
    }
}
