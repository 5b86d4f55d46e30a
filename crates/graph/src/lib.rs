//! Graph substrate for the `randcast` project.
//!
//! This crate provides the (undirected, simple, connected) network graphs on
//! which the broadcasting protocols of Pelc & Peleg, *"Feasibility and
//! complexity of broadcasting with random transmission failures"*
//! (PODC 2005 / TCS 2007), operate:
//!
//! * [`Graph`] — a compact adjacency-list representation with a validating
//!   [`GraphBuilder`],
//! * [`CsrGraph`] / [`CsrTree`] — the flat `u32` CSR substrate shared by
//!   the large-`n` fast-path engines, with lossless `Graph ↔ CsrGraph`
//!   conversion and direct construction from edge lists (the memory-lean
//!   path the scalable generators use),
//! * [`shard`] — node-range shard plans, views, and the out-of-core
//!   spill/segment store that carry one trial to `n = 10⁸` under a fixed
//!   RAM budget,
//! * [`generators`] — the graph families used throughout the paper's analysis
//!   (paths, stars, grids, hypercubes, random trees, …) including the
//!   three-layer lower-bound construction of Theorem 3.3
//!   ([`generators::lower_bound_graph`]),
//! * [`traversal`] — BFS distances, source radius (the paper's `D`),
//!   diameter and connectivity,
//! * [`SpanningTree`] — rooted BFS spanning trees with the level-order
//!   enumeration `v1..vn` and root-to-leaf branches used by the algorithms
//!   of Sections 2 and 3,
//! * [`dot`] — Graphviz export for debugging and figures.
//!
//! # Example
//!
//! ```
//! use randcast_graph::{generators, traversal, SpanningTree};
//!
//! let g = generators::grid(4, 5);
//! let source = g.node(0);
//! assert!(traversal::is_connected(&g));
//!
//! let tree = SpanningTree::bfs(&g, source);
//! assert_eq!(tree.depth(), traversal::radius_from(&g, source));
//! // The paper's enumeration v1..vn respects BFS levels:
//! let order = tree.level_order();
//! assert_eq!(order[0], source);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod graph;
mod node;
mod tree;

pub mod dot;
pub mod generators;
pub mod shard;
pub mod traversal;

pub use csr::{CsrError, CsrGraph, CsrTree};
pub use graph::{Graph, GraphBuilder, GraphError};
pub use node::NodeId;
pub use tree::SpanningTree;
