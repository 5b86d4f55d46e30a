//! Graph substrate for the `randcast` project.
//!
//! This crate provides the (undirected, simple, connected) network graphs on
//! which the broadcasting protocols of Pelc & Peleg, *"Feasibility and
//! complexity of broadcasting with random transmission failures"*
//! (PODC 2005 / TCS 2007), operate:
//!
//! * [`Graph`] — the one adjacency type: flat `u32` CSR arrays that the
//!   trait-object engines read as typed [`NodeId`] neighbors and the
//!   large-`n` fast-path kernels read as raw rows, built by one
//!   counting sort from a validating [`GraphBuilder`] or straight from
//!   an edge list (the memory-lean path the scalable generators use),
//! * [`CsrTree`] — the rooted BFS spanning tree every tree protocol runs
//!   on ([`Graph::bfs_tree`]): the level-order enumeration `v1..vn` of
//!   Sections 2 and 3, each node's parent, and per-parent child lists,
//! * [`shard`] — node-range shard plans, views, and the out-of-core
//!   spill/segment store that carry one trial to `n = 10⁸` under a fixed
//!   RAM budget,
//! * [`generators`] — the graph families used throughout the paper's analysis
//!   (paths, stars, grids, hypercubes, random trees, …) including the
//!   three-layer lower-bound construction of Theorem 3.3
//!   ([`generators::lower_bound_graph`]),
//! * [`traversal`] — BFS distances, source radius (the paper's `D`),
//!   diameter and connectivity,
//! * [`dot`] — Graphviz export for debugging and figures.
//!
//! # Example
//!
//! ```
//! use randcast_graph::{generators, traversal};
//!
//! let g = generators::grid(4, 5);
//! let source = g.node(0);
//! assert!(traversal::is_connected(&g));
//!
//! let tree = g.bfs_tree(0);
//! assert_eq!(tree.depth(), traversal::radius_from(&g, source));
//! // The paper's enumeration v1..vn starts at the source and spans the
//! // graph:
//! assert_eq!(tree.order()[0], 0);
//! assert_eq!(tree.component_size(), g.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod graph;
mod node;

pub mod dot;
pub mod generators;
pub mod shard;
pub mod traversal;

pub use csr::{CsrError, CsrTree};
pub use graph::{Graph, GraphBuilder};
pub use node::NodeId;
