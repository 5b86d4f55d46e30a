//! Synchronous network simulators with probabilistic transmission failures.
//!
//! This crate implements the two communication models of Pelc & Peleg
//! (PODC 2005 / TCS 2007) together with the paper's failure model:
//!
//! * **Message passing** ([`mp`]): in each step a node may send arbitrary,
//!   possibly different messages to all of its neighbors simultaneously,
//!   and receives every message sent to it.
//! * **Radio** ([`radio`]): a node transmits at most one message per step,
//!   delivered to all neighbors; a node *hears* a message iff it is silent
//!   and exactly one neighbor transmits. Collisions are indistinguishable
//!   from silence (no collision detection).
//!
//! **Failure model** ([`fault`]): in every step the *transmitter component*
//! of each node fails independently with a fixed probability `p < 1`
//! (one coin per node per step — a node's transmissions within a step all
//! share the same fate). The failure type decides what a failed
//! transmitter does:
//!
//! * *node-omission* — the node sends nothing that step;
//! * *limited malicious* — transmissions may be corrupted or dropped, but
//!   the node cannot speak out of turn (the weaker model under which
//!   Theorem 3.2 and the §2.2.2 datalink protocol operate);
//! * *malicious* — the transmitter behaves arbitrarily, as decided by an
//!   adaptive [`adversary`], including speaking out of turn (which, in the
//!   radio model, manufactures collisions).
//!
//! A failed node's *internal state is untouched* — only its outgoing
//! transmissions for that step are affected, exactly as in the paper.
//!
//! # Example: fault-free flooding in the message-passing model
//!
//! ```
//! use randcast_engine::mp::{MpNetwork, MpNode, Outgoing};
//! use randcast_engine::fault::FaultConfig;
//! use randcast_graph::{generators, NodeId};
//!
//! struct Flood {
//!     has: bool,
//! }
//! impl MpNode for Flood {
//!     type Msg = bool;
//!     fn send(&mut self, _round: usize) -> Outgoing<bool> {
//!         if self.has {
//!             Outgoing::Broadcast(true)
//!         } else {
//!             Outgoing::Silent
//!         }
//!     }
//!     fn recv(&mut self, _round: usize, _from: NodeId, _msg: bool) {
//!         self.has = true;
//!     }
//! }
//!
//! let g = generators::path(3);
//! let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 1, |v| Flood {
//!     has: v.index() == 0,
//! });
//! net.run(3);
//! assert!(net.nodes().all(|n| n.has));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod fault;
pub mod flood_fast;
pub mod growth;
pub mod kernel;
pub mod mp;
pub mod radio;
pub mod radio_fast;
pub mod simple_fast;
pub mod trace;

pub use fault::{FailureProb, FaultConfig, FaultKind};
