//! # randcast — broadcasting with random transmission failures
//!
//! A full reproduction of Pelc & Peleg, *"Feasibility and complexity of
//! broadcasting with random transmission failures"* (PODC 2005 extended
//! abstract; Theoretical Computer Science 370 (2007) 279–292), as a Rust
//! library: synchronous message-passing and radio network simulators with
//! per-step probabilistic transmitter faults, the paper's broadcast
//! algorithms, its worst-case adversaries, and a benchmark harness
//! regenerating each of its results.
//!
//! This crate is a facade over the workspace:
//!
//! * [`graph`] ([`randcast_graph`]) — graphs, generators (including the
//!   Theorem 3.3 lower-bound construction), and the one BFS spanning-tree
//!   type ([`CsrTree`](randcast_graph::CsrTree)) every tree protocol runs
//!   on.
//! * [`engine`] ([`randcast_engine`]) — the two synchronous communication
//!   models with omission / limited-malicious / malicious transmitter
//!   faults and adaptive adversaries.
//! * [`core`] ([`randcast_core`]) — the algorithms: `Simple-Omission`,
//!   `Simple-Malicious`, BFS-tree flooding (`Θ(D + log n)`), Kučera
//!   composition broadcasting (`O(D + log^α n)`), fault-free radio
//!   scheduling, `Omission-Radio` / `Malicious-Radio` (`O(opt · log n)`),
//!   feasibility thresholds, and the `G(m)` hit-count analysis.
//! * [`stats`] ([`randcast_stats`]) — Monte-Carlo harness, Wilson
//!   intervals, Chernoff parameter formulas.
//!
//! # Quickstart
//!
//! ```
//! use randcast::prelude::*;
//!
//! // A 5×5 sensor grid with a lossy transmitter at every node (p = 0.3).
//! let g = generators::grid(5, 5);
//! let source = g.node(0);
//!
//! // Theorem 3.1: flood along the BFS tree for O(D + log n) rounds.
//! let plan = FloodPlan::new(&g, source, 0.3);
//! let outcome = plan.run(&g, FaultConfig::omission(0.3), 42);
//! assert!(outcome.complete());
//!
//! // Theorem 2.4 feasibility check before trusting a radio protocol:
//! let p_star = radio_threshold(g.max_degree());
//! assert!(0.05 < p_star);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! experiment binaries that regenerate the paper's results (E1–E10 in
//! `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use randcast_core as core;
pub use randcast_engine as engine;
pub use randcast_graph as graph;
pub use randcast_stats as stats;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use randcast_core::datalink::{run_hello, run_two_node_majority};
    pub use randcast_core::decay::{run_decay, DecayConfig, DecayOutcome};
    pub use randcast_core::feasibility::{
        malicious_mp_feasible, malicious_radio_feasible, omission_feasible, radio_threshold,
    };
    pub use randcast_core::flood::{theorem_horizon, FloodPlan, FloodVariant};
    pub use randcast_core::gossip::{GossipOutcome, GossipPlan};
    pub use randcast_core::kucera::{FailureBehavior, KuceraBroadcast, Plan as KuceraPlan};
    pub use randcast_core::lower_bound::LayerSchedule;
    pub use randcast_core::radio_robust::ExpandedPlan;
    pub use randcast_core::radio_sched::{greedy_schedule, path_schedule, RadioSchedule};
    pub use randcast_core::scenario::{
        Algorithm, GraphFamily, Model, Scenario, ScenarioError, FLOOD_FAST_MIN_N, RADIO_FAST_MIN_N,
    };
    pub use randcast_core::selftimed::{SelfTimedMode, SelfTimedPlan};
    pub use randcast_core::simple::{BroadcastOutcome, SimplePlan, VoteMode};
    pub use randcast_engine::adversary::{
        AntiTruthMpAdversary, FlipMpAdversary, FlipRadioAdversary, JamRadioAdversary,
        LieOrJamAdversary, RandomBitMpAdversary, Throttled,
    };
    pub use randcast_engine::fault::{FailureProb, FaultConfig, FaultKind};
    pub use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
    pub use randcast_engine::growth::{GrowthBatch, GrowthOutcome};
    pub use randcast_engine::mp::{MpNetwork, MpNode, Outgoing, SilentMpAdversary};
    pub use randcast_engine::radio::{RadioAction, RadioNetwork, RadioNode, SilentRadioAdversary};
    pub use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule};
    pub use randcast_engine::trace::{TraceEvent, TraceLog, Traced};
    pub use randcast_graph::{generators, traversal, CsrTree, Graph, GraphBuilder, NodeId};
    pub use randcast_stats::estimate::{SuccessEstimate, Verdict};
    pub use randcast_stats::quantile::{quantile, QuantileSummary};
    pub use randcast_stats::seed::SeedSequence;
}
