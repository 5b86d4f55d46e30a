//! Algorithms `Simple-Omission` and `Simple-Malicious` (Section 2).
//!
//! Broadcasting proceeds along a BFS spanning tree `T` rooted at the
//! source. Nodes are enumerated `v1, …, vn` by nondecreasing distance from
//! the source; phase `i` consists of `m = ⌈c log n⌉` consecutive steps in
//! which only `v_i` transmits and all other nodes remain silent (so, in
//! the radio model, there are never collisions among correct nodes).
//!
//! * `Simple-Omission` (Theorem 2.1): `v_i` transmits the source message
//!   (or the default `0` if it has not received it); a child adopts *any*
//!   bit received from its parent during the parent's phase.
//! * `Simple-Malicious` (Theorems 2.2 / 2.4): a child takes the
//!   *majority* of the bits received from its parent during the parent's
//!   phase (default `0` on a tie or empty vote).
//!
//! Both variants run in the message-passing and radio models; the phase
//! lengths differ per model and failure type and are chosen by the
//! explicit Chernoff constants in [`randcast_stats::chernoff`].

use randcast_engine::fault::FaultConfig;
use randcast_engine::mp::{MpAdversary, MpNetwork, MpNode, Outgoing};
use randcast_engine::radio::{RadioAction, RadioAdversary, RadioNetwork, RadioNode};
use randcast_graph::{CsrTree, Graph, NodeId};
use randcast_stats::chernoff;

/// How a node aggregates the bits heard during its parent's phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VoteMode {
    /// Adopt any received bit (sound under omission failures, where
    /// received information can be trusted).
    Any,
    /// Adopt the majority bit, defaulting to `false` on ties or an empty
    /// vote (required under malicious failures).
    Majority,
}

/// The result of one broadcast execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BroadcastOutcome {
    /// Each node's final value (`None` = never decided, for
    /// [`VoteMode::Any`] nodes that heard nothing).
    pub values: Vec<Option<bool>>,
    /// Rounds executed.
    pub rounds: usize,
}

impl BroadcastOutcome {
    /// Whether every node ended with the source bit — the paper's
    /// success criterion.
    #[must_use]
    pub fn all_correct(&self, source_bit: bool) -> bool {
        self.values.iter().all(|v| *v == Some(source_bit))
    }

    /// Number of nodes holding the correct bit.
    #[must_use]
    pub fn correct_count(&self, source_bit: bool) -> usize {
        self.values
            .iter()
            .filter(|v| **v == Some(source_bit))
            .count()
    }
}

/// The BFS spanning tree of `graph` rooted at `source`, which the tree
/// protocols require to span the whole graph.
///
/// # Panics
///
/// Panics if some node is unreachable from `source`.
pub(crate) fn spanning_tree(graph: &Graph, source: NodeId) -> CsrTree {
    let tree = graph.bfs_tree(u32::from(source));
    assert!(
        tree.component_size() == graph.node_count(),
        "graph is not connected to the source"
    );
    tree
}

/// `bit` sent to each node of `targets` (a tree or graph row); silent
/// for an empty row.
#[inline]
pub(crate) fn relay(targets: &[u32], bit: bool) -> Outgoing<bool> {
    if targets.is_empty() {
        return Outgoing::Silent;
    }
    Outgoing::Directed(targets.iter().map(|&c| (NodeId::from(c), bit)).collect())
}

/// A compiled schedule for `Simple-Omission` / `Simple-Malicious`:
/// the spanning tree, whose order is the phase order `v1..vn`, and the
/// phase length.
#[derive(Clone, Debug)]
pub struct SimplePlan {
    tree: CsrTree,
    /// Phase index of each node (indexed by node id), the inverse of
    /// the tree's order: node with phase `k` transmits during rounds
    /// `[k·m, (k+1)·m)`.
    phase_of: Vec<usize>,
    mode: VoteMode,
    m: usize,
}

impl SimplePlan {
    /// Plan for node-omission failures (Theorem 2.1): phase length
    /// `m = ⌈2 ln n / ln(1/p)⌉` so that `p^m ≤ 1/n²`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or `p ∉ [0, 1)`.
    #[must_use]
    pub fn omission_with_p(graph: &Graph, source: NodeId, p: f64) -> Self {
        let m = chernoff::phase_len_omission(graph.node_count().max(2), p);
        Self::with_phase_len(graph, source, m, VoteMode::Any)
    }

    /// Plan for node-omission failures with a representative default
    /// failure probability of `p = 0.5` (callers that know `p` should
    /// prefer [`omission_with_p`](Self::omission_with_p)).
    #[must_use]
    pub fn omission(graph: &Graph, source: NodeId) -> Self {
        Self::omission_with_p(graph, source, 0.5)
    }

    /// Plan for malicious failures in the message-passing model
    /// (Theorem 2.2): phase length `m = ⌈ln n / (1/2 − p)²⌉` (odd).
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ 1/2` (infeasible, Theorem 2.3) or the graph is
    /// disconnected.
    #[must_use]
    pub fn malicious_mp(graph: &Graph, source: NodeId, p: f64) -> Self {
        let m = chernoff::phase_len_malicious_mp(graph.node_count().max(2), p);
        Self::with_phase_len(graph, source, m, VoteMode::Majority)
    }

    /// Plan for malicious failures in the radio model (Theorem 2.4):
    /// phase length from the `q = (1−p)^{Δ+1}` margin.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ (1−p)^{Δ+1}` (infeasible) or the graph is
    /// disconnected.
    #[must_use]
    pub fn malicious_radio(graph: &Graph, source: NodeId, p: f64) -> Self {
        let m =
            chernoff::phase_len_malicious_radio(graph.node_count().max(2), p, graph.max_degree());
        Self::with_phase_len(graph, source, m, VoteMode::Majority)
    }

    /// Plan with an explicit phase length (ablation entry point).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or the graph is disconnected from `source`.
    #[must_use]
    pub fn with_phase_len(graph: &Graph, source: NodeId, m: usize, mode: VoteMode) -> Self {
        assert!(m > 0, "phase length must be positive");
        let tree = spanning_tree(graph, source);
        let mut phase_of = vec![0usize; graph.node_count()];
        for (k, &v) in tree.order().iter().enumerate() {
            phase_of[v as usize] = k;
        }
        SimplePlan {
            tree,
            phase_of,
            mode,
            m,
        }
    }

    /// The BFS spanning tree the plan relays along; its order is the
    /// phase order.
    #[must_use]
    pub fn tree(&self) -> &CsrTree {
        &self.tree
    }

    /// The phase length `m`.
    #[must_use]
    pub fn phase_len(&self) -> usize {
        self.m
    }

    /// The vote mode.
    #[must_use]
    pub fn mode(&self) -> VoteMode {
        self.mode
    }

    /// Total rounds: `n · m`.
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.phase_of.len() * self.m
    }

    /// Builds the automaton for node `v` with the given source bit.
    fn node(&self, v: NodeId, source_bit: bool) -> SimpleNode<'_> {
        let parent = self.tree.parent(v.index());
        SimpleNode {
            start: self.phase_of[v.index()] * self.m,
            parent: parent.map(|p| (NodeId::from(p), self.phase_of[p as usize] * self.m)),
            m: self.m,
            children: self.tree.children_of(v.index()),
            mode: self.mode,
            value: parent.is_none().then_some(source_bit),
            ones: 0,
            votes: 0,
        }
    }

    /// Executes the plan in the message-passing model.
    pub fn run_mp<A: MpAdversary<bool>>(
        &self,
        graph: &Graph,
        fault: FaultConfig,
        adversary: A,
        seed: u64,
        source_bit: bool,
    ) -> BroadcastOutcome {
        let mut net =
            MpNetwork::with_adversary(graph, fault, adversary, seed, |v| self.node(v, source_bit));
        net.run(self.total_rounds());
        BroadcastOutcome {
            values: graph.nodes().map(|v| net.node(v).final_value()).collect(),
            rounds: self.total_rounds(),
        }
    }

    /// Executes the plan in the radio model.
    pub fn run_radio<A: RadioAdversary<bool>>(
        &self,
        graph: &Graph,
        fault: FaultConfig,
        adversary: A,
        seed: u64,
        source_bit: bool,
    ) -> BroadcastOutcome {
        let mut net = RadioNetwork::with_adversary(graph, fault, adversary, seed, |v| {
            self.node(v, source_bit)
        });
        net.run(self.total_rounds());
        BroadcastOutcome {
            values: graph.nodes().map(|v| net.node(v).final_value()).collect(),
            rounds: self.total_rounds(),
        }
    }
}

/// Majority of `votes` bits of which `ones` are `true`; `false` on a
/// tie or an empty vote (the paper's default-0 rule).
fn majority(ones: usize, votes: usize) -> bool {
    2 * ones > votes
}

/// The per-node automaton shared by both algorithm variants and both
/// communication models; it reads its children from the plan's tree.
///
/// Outside its own phase and its parent's, a node's every call costs
/// one unsigned compare, `round.wrapping_sub(start) < m`.
#[derive(Clone, Debug)]
struct SimpleNode<'t> {
    /// First round of this node's phase `[start, start + m)`.
    start: usize,
    /// The parent and the first round of its phase; `None` at the
    /// source.
    parent: Option<(NodeId, usize)>,
    m: usize,
    children: &'t [u32],
    mode: VoteMode,
    /// The source's bit, or under [`VoteMode::Any`] the first bit heard
    /// in the parent's phase.
    value: Option<bool>,
    /// [`VoteMode::Majority`]: the `true` bits and all bits heard in the
    /// parent's phase. That phase ends before the node's own phase and
    /// before the last round, so the counts are final whenever the
    /// value is read.
    ones: usize,
    votes: usize,
}

impl SimpleNode<'_> {
    /// Whether `round` falls in the phase starting at `start`.
    fn in_phase(&self, start: usize, round: usize) -> bool {
        round.wrapping_sub(start) < self.m
    }

    /// Accepts a bit heard during the parent's phase; the source never
    /// observes.
    fn observe(&mut self, round: usize, bit: bool) {
        let Some((_, parent_start)) = self.parent else {
            return;
        };
        if !self.in_phase(parent_start, round) {
            return;
        }
        match self.mode {
            VoteMode::Any => {
                if self.value.is_none() {
                    self.value = Some(bit);
                }
            }
            VoteMode::Majority => {
                self.ones += usize::from(bit);
                self.votes += 1;
            }
        }
    }

    /// The bit this node transmits during its phase (the paper's
    /// "Ms, or 0 if it has not received Ms").
    fn transmit_bit(&self) -> bool {
        self.final_value().unwrap_or(false)
    }

    fn final_value(&self) -> Option<bool> {
        if self.mode == VoteMode::Majority && self.parent.is_some() {
            Some(majority(self.ones, self.votes))
        } else {
            self.value
        }
    }
}

impl MpNode for SimpleNode<'_> {
    type Msg = bool;

    #[inline]
    fn send(&mut self, round: usize) -> Outgoing<bool> {
        if self.in_phase(self.start, round) {
            relay(self.children, self.transmit_bit())
        } else {
            Outgoing::Silent
        }
    }

    #[inline]
    fn recv(&mut self, round: usize, from: NodeId, msg: bool) {
        if self.parent.is_some_and(|(parent, _)| parent == from) {
            self.observe(round, msg);
        }
    }
}

impl RadioNode for SimpleNode<'_> {
    type Msg = bool;

    #[inline]
    fn act(&mut self, round: usize) -> RadioAction<bool> {
        if self.in_phase(self.start, round) {
            RadioAction::Transmit(self.transmit_bit())
        } else {
            RadioAction::Listen
        }
    }

    #[inline]
    fn recv(&mut self, round: usize, heard: Option<bool>) {
        // In the radio model the receiver cannot name the sender; it
        // trusts the schedule: during the parent's phase only the parent
        // is *supposed* to transmit. (Malicious faults may violate that —
        // exactly the attack surface Theorem 2.4 quantifies.)
        if let Some(bit) = heard {
            self.observe(round, bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_engine::adversary::{FlipMpAdversary, JamRadioAdversary};
    use randcast_engine::mp::SilentMpAdversary;
    use randcast_engine::radio::SilentRadioAdversary;
    use randcast_graph::generators;

    #[test]
    #[should_panic(expected = "not connected")]
    fn plan_panics_on_disconnected() {
        let mut b = randcast_graph::GraphBuilder::new(3);
        b.edge(0, 1);
        let g = b.finish().unwrap();
        let _ = SimplePlan::with_phase_len(&g, g.node(0), 1, VoteMode::Any);
    }

    #[test]
    fn majority_defaults_to_false() {
        assert!(!majority(0, 0));
        assert!(!majority(1, 2));
        assert!(majority(2, 3));
        assert!(!majority(1, 3));
    }

    /// Feeds `(round, bit)` pairs to `v` as if from its parent, in both
    /// models, and checks the value each node ends with.
    fn assert_heard(plan: &SimplePlan, v: NodeId, bits: &[(usize, bool)], want: Option<bool>) {
        let mut mp = plan.node(v, true);
        let mut radio = plan.node(v, true);
        let (parent, _) = mp.parent.expect("not the source");
        for &(round, bit) in bits {
            MpNode::recv(&mut mp, round, parent, bit);
            RadioNode::recv(&mut radio, round, Some(bit));
        }
        let got = [mp.final_value(), radio.final_value()];
        assert_eq!(got, [want; 2], "{v} heard {bits:?}");
    }

    #[test]
    fn only_bits_heard_in_the_parents_phase_count() {
        // Path 0–1–2–3 with m = 4: node 2's parent has phase [4, 8);
        // node 1's parent, the source, has phase [0, 4), where the
        // wrapping compare has no round below it.
        let g = generators::path(3);
        let (v1, v2) = (g.node(1), g.node(2));
        let (t, f) = (true, false);
        let vote = SimplePlan::with_phase_len(&g, g.node(0), 4, VoteMode::Majority);
        // An even split decides `false`, whatever is heard just outside
        // the phase.
        let split = [(3, t), (4, t), (5, f), (6, t), (7, f), (8, t)];
        assert_heard(&vote, v2, &split, Some(f));
        assert_heard(&vote, v2, &[(3, t), (4, t), (8, t)], Some(t));
        assert_heard(&vote, v2, &[(3, t), (8, t)], Some(f));
        let split = [(0, t), (1, t), (2, f), (3, f), (4, t)];
        assert_heard(&vote, v1, &split, Some(f));
        assert_heard(&vote, v1, &[(0, t), (4, f), (5, f)], Some(t));

        // `Any` adopts the first bit heard in the parent's phase.
        let any = SimplePlan::with_phase_len(&g, g.node(0), 4, VoteMode::Any);
        assert_heard(&any, v2, &[(3, t), (4, f), (5, t)], Some(f));
        assert_heard(&any, v2, &[(3, t), (8, t)], None);
    }

    #[test]
    fn bits_from_a_non_parent_are_ignored() {
        let g = generators::path(3);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 4, VoteMode::Any);
        let mut node = plan.node(g.node(2), true);
        MpNode::recv(&mut node, 4, g.node(3), false);
        assert_eq!(node.final_value(), None);
        MpNode::recv(&mut node, 5, g.node(1), true);
        assert_eq!(node.final_value(), Some(true));
    }

    #[test]
    fn fault_free_mp_broadcast_succeeds_both_bits() {
        let g = generators::grid(3, 4);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 1, VoteMode::Any);
        for bit in [false, true] {
            let out = plan.run_mp(&g, FaultConfig::fault_free(), SilentMpAdversary, 0, bit);
            assert!(out.all_correct(bit), "bit={bit}");
        }
    }

    #[test]
    fn fault_free_radio_broadcast_succeeds() {
        let g = generators::lower_bound_graph(3);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 1, VoteMode::Any);
        let out = plan.run_radio(&g, FaultConfig::fault_free(), SilentRadioAdversary, 0, true);
        assert!(out.all_correct(true));
    }

    #[test]
    fn fault_free_majority_mode_succeeds() {
        let g = generators::balanced_tree(2, 3);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 3, VoteMode::Majority);
        let out = plan.run_mp(&g, FaultConfig::fault_free(), SilentMpAdversary, 0, true);
        assert!(out.all_correct(true));
        let out = plan.run_radio(&g, FaultConfig::fault_free(), SilentRadioAdversary, 0, true);
        assert!(out.all_correct(true));
    }

    #[test]
    fn omission_broadcast_usually_succeeds_at_high_p() {
        // p = 0.6 < 1: feasible (Theorem 2.1). With the prescribed m,
        // failure probability is at most 1/n per run.
        // Empirical success rate is ~0.95 (matching the n·p^m union
        // bound); 85/100 leaves ~5σ of slack so fixed seeds can't flake.
        let g = generators::path(15);
        let plan = SimplePlan::omission_with_p(&g, g.node(0), 0.6);
        let mut successes = 0;
        for seed in 0..100 {
            let out = plan.run_mp(
                &g,
                FaultConfig::omission(0.6),
                SilentMpAdversary,
                seed,
                true,
            );
            successes += usize::from(out.all_correct(true));
        }
        assert!(successes >= 85, "successes={successes}");
    }

    #[test]
    fn omission_radio_matches_mp_structure() {
        let g = generators::star(6);
        let plan = SimplePlan::omission_with_p(&g, g.node(0), 0.5);
        let out = plan.run_radio(
            &g,
            FaultConfig::omission(0.5),
            SilentRadioAdversary,
            3,
            true,
        );
        // Not asserting success (randomized) but shape: rounds = n * m.
        assert_eq!(out.rounds, plan.total_rounds());
        assert_eq!(out.values.len(), g.node_count());
    }

    #[test]
    fn malicious_mp_survives_flip_adversary_below_half() {
        let g = generators::grid(3, 3);
        let p = 0.3;
        let plan = SimplePlan::malicious_mp(&g, g.node(0), p);
        let mut successes = 0;
        for seed in 0..20 {
            let out = plan.run_mp(&g, FaultConfig::malicious(p), FlipMpAdversary, seed, true);
            successes += usize::from(out.all_correct(true));
        }
        assert!(successes >= 18, "successes={successes}");
    }

    #[test]
    fn malicious_radio_survives_jam_below_threshold() {
        // Star with Δ = 3 (3 leaves + center... center degree 3):
        // threshold p*(3) ≈ 0.2; take p well below.
        let g = generators::star(3);
        let p = 0.05;
        let plan = SimplePlan::malicious_radio(&g, g.node(0), p);
        let mut successes = 0;
        for seed in 0..20 {
            let out = plan.run_radio(
                &g,
                FaultConfig::malicious(p),
                JamRadioAdversary::new(false),
                seed,
                true,
            );
            successes += usize::from(out.all_correct(true));
        }
        assert!(successes >= 18, "successes={successes}");
    }

    #[test]
    fn phase_windows_do_not_overlap() {
        let g = generators::path(5);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 4, VoteMode::Any);
        // All six nodes have disjoint windows covering 24 rounds.
        let mut seen = vec![false; plan.total_rounds()];
        for v in g.nodes() {
            let start = plan.node(v, true).start;
            for (r, slot) in seen.iter_mut().enumerate().skip(start).take(plan.m) {
                assert!(!*slot, "round {r} double-booked");
                *slot = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn source_keeps_its_bit_under_majority() {
        // Even with an adversary, the source's own value never changes.
        let g = generators::path(3);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 5, VoteMode::Majority);
        let out = plan.run_mp(&g, FaultConfig::malicious(0.4), FlipMpAdversary, 1, true);
        assert_eq!(out.values[0], Some(true));
    }

    #[test]
    fn source_keeps_its_bit_under_majority_in_radio() {
        // The source's one neighbor jams `false` whenever it is faulty,
        // and the source, listening outside its phase, hears it.
        let g = generators::path(3);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 5, VoteMode::Majority);
        let jam = JamRadioAdversary::new(false);
        let out = plan.run_radio(&g, FaultConfig::malicious(0.4), jam, 1, true);
        assert_eq!(out.values[0], Some(true));
    }

    #[test]
    fn outcome_counters() {
        let g = generators::path(2);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 1, VoteMode::Any);
        let out = plan.run_mp(&g, FaultConfig::fault_free(), SilentMpAdversary, 0, true);
        assert_eq!(out.correct_count(true), 3);
        assert!(!out.all_correct(false));
    }

    #[test]
    fn total_rounds_is_n_times_m() {
        let g = generators::cycle(7);
        let plan = SimplePlan::with_phase_len(&g, g.node(0), 9, VoteMode::Any);
        assert_eq!(plan.total_rounds(), 63);
        assert_eq!(plan.phase_len(), 9);
        assert_eq!(plan.mode(), VoteMode::Any);
    }
}
