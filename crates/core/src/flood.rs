//! `Flood-Omission` (Theorem 3.1): optimal-time `O(D + log n)` broadcast
//! under node-omission failures in the message-passing model.
//!
//! Following the paper's adaptation of Diks–Pelc (Lemma 3.1): build a BFS
//! spanning tree of depth `D` and let every informed node transmit to its
//! children simultaneously in every step for `O(D + log n)` steps. Along
//! each root-to-leaf branch the message front advances one hop whenever
//! the frontier node's transmitter works, so completion time is a sum of
//! geometric delays that concentrates at `O(D)`; the `+ log n` in the
//! horizon buys a per-branch Chernoff exponent strong enough to
//! union-bound over all branches.
//!
//! The module also offers full-graph flooding ([`FloodVariant::Graph`]),
//! which dominates tree flooding (more disjoint paths) — an ablation, not
//! part of the paper's analysis.

use randcast_engine::adversary::FlipMpAdversary;
use randcast_engine::fault::{FaultConfig, FaultKind};
use randcast_engine::mp::{MpNetwork, MpNode, Outgoing};
use randcast_graph::{traversal, Graph, NodeId, SpanningTree};
use randcast_stats::chernoff;

/// Which edges carry the flood.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FloodVariant {
    /// Transmit only to spanning-tree children (the paper's analyzed
    /// algorithm).
    Tree,
    /// Transmit to all neighbors (dominates tree flooding; ablation).
    Graph,
}

/// Outcome of one flooding execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FloodOutcome {
    /// Round (1-based: "informed by end of round r") at which each node
    /// first became informed; `None` if never. The source is `Some(0)`.
    pub informed_at: Vec<Option<usize>>,
    /// The horizon that was run.
    pub rounds: usize,
}

impl FloodOutcome {
    /// Whether every node was informed within the horizon.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.informed_at.iter().all(Option::is_some)
    }

    /// The broadcast completion time: the round by which the last node
    /// was informed (`None` if incomplete).
    #[must_use]
    pub fn completion_round(&self) -> Option<usize> {
        self.informed_at
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()
            .map(|rs| rs.into_iter().max().unwrap_or(0))
    }

    /// Number of informed nodes.
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed_at.iter().filter(|r| r.is_some()).count()
    }
}

/// The Theorem 3.1 horizon `τ = ⌈2(D + 4 ln n)/(1 − p)⌉ = O(D + log n)`
/// for flooding `graph` from `source` under failure probability `p`:
/// per-branch failure `≤ 1/n²`, hence overall failure `≤ 1/n`.
///
/// Defined on graphs disconnected from the source (`D` is the radius of
/// the source's component) so the fast-path engine can use it in the
/// almost-complete broadcast regime.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1)`.
#[must_use]
pub fn theorem_horizon(graph: &Graph, source: NodeId, p: f64) -> usize {
    let d = traversal::reachable_radius(graph, source);
    let n = graph.node_count().max(2);
    chernoff::flood_horizon(d, p, 4.0 * (n as f64).ln()).max(1)
}

/// A compiled flooding plan: spanning tree plus horizon.
#[derive(Clone, Debug)]
pub struct FloodPlan {
    children: Vec<Vec<NodeId>>,
    neighbors: Vec<Vec<NodeId>>,
    source: NodeId,
    horizon: usize,
    variant: FloodVariant,
}

impl FloodPlan {
    /// Plan with the Theorem 3.1 horizon
    /// `τ = ⌈2(D + 4 ln n)/(1 − p)⌉ = O(D + log n)`:
    /// per-branch failure `≤ 1/n²`, hence overall failure `≤ 1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)` or the graph is disconnected from `source`.
    #[must_use]
    pub fn new(graph: &Graph, source: NodeId, p: f64) -> Self {
        let horizon = theorem_horizon(graph, source, p);
        Self::with_horizon(graph, source, horizon, FloodVariant::Tree)
    }

    /// Plan with an explicit horizon and flood variant (ablations and
    /// time-measurement experiments).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected from `source`.
    #[must_use]
    pub fn with_horizon(
        graph: &Graph,
        source: NodeId,
        horizon: usize,
        variant: FloodVariant,
    ) -> Self {
        let tree = SpanningTree::bfs(graph, source);
        FloodPlan {
            children: graph.nodes().map(|v| tree.children(v).to_vec()).collect(),
            neighbors: graph
                .nodes()
                .map(|v| graph.neighbors(v).collect())
                .collect(),
            source,
            horizon,
            variant,
        }
    }

    /// The horizon (number of rounds executed).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Executes the flood in the message-passing model, reporting per-node
    /// informing times. Runs up to the horizon, stopping early once every
    /// node is informed — further rounds cannot change any `informed_at`,
    /// so the outcome is identical to running the full horizon.
    ///
    /// Under [`FaultKind::Omission`] a faulty transmitter is silent for
    /// the step. Under the malicious kinds the flood faces the Theorem
    /// 2.3 flip adversary ([`FlipMpAdversary`]): deliveries always happen
    /// on the fault-free schedule, but a faulty transmitter sends the
    /// complement of its adopted bit, and a node conjoins every bit
    /// delivered in its informing round. `informed_at` then records
    /// *correct* informing times — a node that adopted a corrupted bit is
    /// reported as never informed, matching the correct-set semantics of
    /// the fast kernels.
    #[must_use]
    pub fn run(&self, graph: &Graph, fault: FaultConfig, seed: u64) -> FloodOutcome {
        if fault.kind == FaultKind::Omission {
            self.run_omission(graph, fault, seed)
        } else {
            self.run_malicious(graph, fault, seed)
        }
    }

    fn targets_of(&self, v: NodeId) -> Vec<NodeId> {
        match self.variant {
            FloodVariant::Tree => self.children[v.index()].clone(),
            FloodVariant::Graph => self.neighbors[v.index()].clone(),
        }
    }

    fn run_omission(&self, graph: &Graph, fault: FaultConfig, seed: u64) -> FloodOutcome {
        let mut net = MpNetwork::new(graph, fault, seed, |v| FloodNode {
            targets: self.targets_of(v),
            informed_at: (v == self.source).then_some(0),
        });
        for _ in 0..self.horizon {
            net.step();
            if net.nodes().all(|node| node.informed_at.is_some()) {
                break;
            }
        }
        FloodOutcome {
            informed_at: graph.nodes().map(|v| net.node(v).informed_at).collect(),
            rounds: self.horizon,
        }
    }

    fn run_malicious(&self, graph: &Graph, fault: FaultConfig, seed: u64) -> FloodOutcome {
        let mut net =
            MpNetwork::with_adversary(graph, fault, FlipMpAdversary, seed, |v| FloodValueNode {
                targets: self.targets_of(v),
                informed_at: (v == self.source).then_some(0),
                value: true,
            });
        for _ in 0..self.horizon {
            net.step();
            if net.nodes().all(|node| node.informed_at.is_some()) {
                break;
            }
        }
        FloodOutcome {
            informed_at: graph
                .nodes()
                .map(|v| {
                    let node = net.node(v);
                    node.informed_at.filter(|_| node.value)
                })
                .collect(),
            rounds: self.horizon,
        }
    }
}

/// Flooding automaton: once informed, transmit to targets every round.
#[derive(Clone, Debug)]
struct FloodNode {
    targets: Vec<NodeId>,
    informed_at: Option<usize>,
}

impl MpNode for FloodNode {
    type Msg = bool;

    fn send(&mut self, _round: usize) -> Outgoing<bool> {
        if self.informed_at.is_some() && !self.targets.is_empty() {
            Outgoing::Directed(self.targets.iter().map(|&c| (c, true)).collect())
        } else {
            Outgoing::Silent
        }
    }

    fn recv(&mut self, round: usize, _from: NodeId, _msg: bool) {
        if self.informed_at.is_none() {
            self.informed_at = Some(round + 1);
        }
    }
}

/// Value-carrying flooding automaton for the malicious kinds: once
/// informed, relay the adopted bit to targets every round. All bits
/// delivered in the informing round are conjoined, so one corrupted
/// parent-level transmitter poisons the node; bits delivered after the
/// informing round are ignored (the adopted value is final).
#[derive(Clone, Debug)]
struct FloodValueNode {
    targets: Vec<NodeId>,
    informed_at: Option<usize>,
    value: bool,
}

impl MpNode for FloodValueNode {
    type Msg = bool;

    fn send(&mut self, _round: usize) -> Outgoing<bool> {
        if self.informed_at.is_some() && !self.targets.is_empty() {
            Outgoing::Directed(self.targets.iter().map(|&c| (c, self.value)).collect())
        } else {
            Outgoing::Silent
        }
    }

    fn recv(&mut self, round: usize, _from: NodeId, msg: bool) {
        match self.informed_at {
            None => {
                self.informed_at = Some(round + 1);
                self.value = msg;
            }
            Some(at) if at == round + 1 => self.value &= msg,
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_graph::generators;

    #[test]
    fn fault_free_flood_takes_exactly_d_rounds() {
        let g = generators::path(7);
        let plan = FloodPlan::with_horizon(&g, g.node(0), 10, FloodVariant::Tree);
        let out = plan.run(&g, FaultConfig::fault_free(), 0);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(7));
        // Node i informed exactly at round i.
        for i in 0..=7 {
            assert_eq!(out.informed_at[i], Some(i));
        }
    }

    #[test]
    fn default_horizon_suffices_with_high_probability() {
        let g = generators::grid(5, 5);
        let p = 0.4;
        let plan = FloodPlan::new(&g, g.node(0), p);
        let mut complete = 0;
        for seed in 0..20 {
            if plan.run(&g, FaultConfig::omission(p), seed).complete() {
                complete += 1;
            }
        }
        assert_eq!(complete, 20, "horizon {} too short", plan.horizon());
    }

    #[test]
    fn short_horizon_fails() {
        let g = generators::path(20);
        // Horizon 5 cannot inform a node at distance 20.
        let plan = FloodPlan::with_horizon(&g, g.node(0), 5, FloodVariant::Tree);
        let out = plan.run(&g, FaultConfig::fault_free(), 0);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 6);
        assert_eq!(out.completion_round(), None);
    }

    #[test]
    fn graph_variant_dominates_tree_variant_on_cycle() {
        // On a cycle, the BFS tree cuts one edge; graph flooding uses
        // both directions and should never be slower.
        let g = generators::cycle(9);
        for seed in 0..10 {
            let tree = FloodPlan::with_horizon(&g, g.node(0), 60, FloodVariant::Tree).run(
                &g,
                FaultConfig::omission(0.5),
                seed,
            );
            let graph = FloodPlan::with_horizon(&g, g.node(0), 60, FloodVariant::Graph).run(
                &g,
                FaultConfig::omission(0.5),
                seed,
            );
            if let (Some(t), Some(gr)) = (tree.completion_round(), graph.completion_round()) {
                assert!(gr <= t, "seed={seed}: graph {gr} vs tree {t}");
            }
        }
    }

    #[test]
    fn horizon_scales_like_d_plus_log_n() {
        // Doubling D roughly doubles the horizon; fixed p.
        let g1 = generators::path(50);
        let g2 = generators::path(100);
        let h1 = FloodPlan::new(&g1, g1.node(0), 0.2).horizon();
        let h2 = FloodPlan::new(&g2, g2.node(0), 0.2).horizon();
        assert!(h2 > h1);
        assert!((h2 as f64) < 2.5 * h1 as f64);
    }

    #[test]
    fn malicious_at_p_zero_matches_omission_exactly() {
        // With no faults the flip adversary never fires, and every node
        // adopts the true bit — the correct-set outcome coincides with
        // the omission outcome per seed.
        let g = generators::grid(4, 4);
        for variant in [FloodVariant::Tree, FloodVariant::Graph] {
            let plan = FloodPlan::with_horizon(&g, g.node(0), 30, variant);
            for seed in 0..5 {
                let omission = plan.run(&g, FaultConfig::fault_free(), seed);
                let malicious = plan.run(&g, FaultConfig::malicious(0.0), seed);
                assert_eq!(omission, malicious, "variant {variant:?} seed {seed}");
            }
        }
    }

    #[test]
    fn flip_adversary_poisons_but_never_slows() {
        // Under the flip adversary deliveries always succeed, so every
        // node hears *something* on the fault-free BFS schedule: each
        // reported informing time is exactly the node's BFS depth, with
        // poisoned nodes reported as never (correctly) informed.
        let g = generators::path(6);
        let plan = FloodPlan::with_horizon(&g, g.node(0), 20, FloodVariant::Tree);
        let mut poisoned = 0usize;
        for seed in 0..20 {
            let out = plan.run(&g, FaultConfig::malicious(0.5), seed);
            assert_eq!(out.informed_at[0], Some(0));
            for (i, at) in out.informed_at.iter().enumerate() {
                match at {
                    Some(r) => assert_eq!(*r, i, "seed {seed}"),
                    None => poisoned += 1,
                }
            }
        }
        assert!(poisoned > 0, "p = 0.5 never corrupted a relay");
    }

    #[test]
    fn malicious_flood_is_deterministic_given_seed() {
        let g = generators::grid(4, 4);
        let plan = FloodPlan::with_horizon(&g, g.node(0), 30, FloodVariant::Graph);
        let a = plan.run(&g, FaultConfig::limited_malicious(0.3), 7);
        let b = plan.run(&g, FaultConfig::limited_malicious(0.3), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn outcome_on_single_node() {
        let g = generators::path(0);
        let plan = FloodPlan::with_horizon(&g, g.node(0), 1, FloodVariant::Tree);
        let out = plan.run(&g, FaultConfig::fault_free(), 0);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(0));
    }
}
