//! Self-timed (assumption-free) variants of the Section 2 algorithms.
//!
//! `Simple-Omission` and `Simple-Malicious` as stated assume every node
//! knows its index `v_i` and a global clock, so that phase `i` can be
//! scheduled at rounds `[i·m, (i+1)·m)`. The paper notes (§2.1 and
//! §2.2.2) that in the **message-passing model** both assumptions can be
//! discarded:
//!
//! * **Omission** (§2.1): "a node will start its window of transmissions
//!   upon receiving the message for the first time." Since received
//!   information can be trusted, a node simply relays for `m` rounds
//!   starting right after its first reception. Broadcast completes in
//!   `O(D · m)` worst-case rounds instead of `n · m` — and typically far
//!   faster, since subtrees progress in parallel.
//!
//! * **Malicious** (§2.2.2): a failure can make a link speak out of
//!   turn, so a receiver cannot trust timing alone. The paper's fix:
//!   each node listens on its parent link *at all times* and accepts a
//!   message as genuine once `m/2` identical copies arrived within the
//!   last `m` rounds, then starts its own transmission window. "By
//!   Chernoff's bound, the probability of receiving `m/2` (or more)
//!   identical copies of a false message over some link during a window
//!   of `m` rounds is exponentially small."
//!
//! Both variants run on the BFS spanning tree like their scheduled
//! counterparts; only the *timing* is self-organized.

use std::collections::VecDeque;

use randcast_engine::fault::FaultConfig;
use randcast_engine::mp::{MpAdversary, MpNetwork, MpNode, Outgoing};
use randcast_graph::{CsrTree, Graph, NodeId};
use randcast_stats::chernoff;

use crate::simple::{relay, spanning_tree, BroadcastOutcome};

/// A compiled self-timed plan (tree + window length + horizon).
#[derive(Clone, Debug)]
pub struct SelfTimedPlan {
    tree: CsrTree,
    m: usize,
    horizon: usize,
    mode: SelfTimedMode,
}

/// Which acceptance rule the receivers use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelfTimedMode {
    /// Trust the first received bit (omission failures).
    FirstReception,
    /// Accept once `≥ m/2` identical copies arrived within the last `m`
    /// rounds (malicious failures, the §2.2.2 sliding-window rule).
    SlidingMajority,
}

impl SelfTimedPlan {
    /// Self-timed omission plan: window `m = ⌈2 ln n / ln(1/p)⌉`, horizon
    /// `(D + 1) · m` (each level delays at most one window behind its
    /// parent, except with probability `≤ 1/n²` per node).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)` or the graph is disconnected from `source`.
    #[must_use]
    pub fn omission(graph: &Graph, source: NodeId, p: f64) -> Self {
        let m = chernoff::phase_len_omission(graph.node_count().max(2), p);
        Self::with_window(graph, source, m, SelfTimedMode::FirstReception)
    }

    /// Self-timed malicious plan: sliding-window acceptance. The window
    /// uses the Theorem 2.2 length enlarged by the horizon union bound
    /// (every round starts a fresh window, so the per-window error must
    /// be divided among `O(D · m)` windows).
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ 1/2` or the graph is disconnected from `source`.
    #[must_use]
    pub fn malicious(graph: &Graph, source: NodeId, p: f64) -> Self {
        let n = graph.node_count().max(2);
        // Base window from Theorem 2.2, then pad for the sliding union
        // bound: error per window exp(-2m(1/2-p)²) must be ≤ 1/(n²·τ);
        // τ ≤ n·m ⇒ an extra ln(n·m)/(2(1/2-p)²) ≈ half the base again.
        let base = chernoff::phase_len_malicious_mp(n, p);
        let gap = 0.5 - p;
        let pad = (((n * base) as f64).ln() / (2.0 * gap * gap)).ceil() as usize;
        let m = chernoff::make_odd(base + pad);
        Self::with_window(graph, source, m, SelfTimedMode::SlidingMajority)
    }

    /// Explicit window length (ablation entry point).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or the graph is disconnected from `source`.
    #[must_use]
    pub fn with_window(graph: &Graph, source: NodeId, m: usize, mode: SelfTimedMode) -> Self {
        assert!(m > 0, "window length must be positive");
        let tree = spanning_tree(graph, source);
        let horizon = (tree.depth() + 1) * m;
        SelfTimedPlan {
            tree,
            m,
            horizon,
            mode,
        }
    }

    /// The window length `m`.
    #[must_use]
    pub fn window(&self) -> usize {
        self.m
    }

    /// The execution horizon `(D + 1) · m`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Executes the plan in the message-passing model.
    pub fn run<A: MpAdversary<bool>>(
        &self,
        graph: &Graph,
        fault: FaultConfig,
        adversary: A,
        seed: u64,
        source_bit: bool,
    ) -> BroadcastOutcome {
        let mut net = MpNetwork::with_adversary(graph, fault, adversary, seed, |v| {
            let parent = self.tree.parent(v.index()).map(NodeId::from);
            let is_source = parent.is_none();
            SelfTimedNode {
                parent,
                children: self.tree.children_of(v.index()),
                m: self.m,
                mode: self.mode,
                value: is_source.then_some(source_bit),
                window_from: is_source.then_some(0),
                history: VecDeque::with_capacity(self.m),
            }
        });
        net.run(self.horizon);
        BroadcastOutcome {
            values: graph.nodes().map(|v| net.node(v).value).collect(),
            rounds: self.horizon,
        }
    }
}

/// Self-timed automaton; it reads its children from the plan's tree.
#[derive(Clone, Debug)]
struct SelfTimedNode<'t> {
    parent: Option<NodeId>,
    children: &'t [u32],
    m: usize,
    mode: SelfTimedMode,
    value: Option<bool>,
    /// Round at which this node's transmission window starts.
    window_from: Option<usize>,
    /// Per-round parent-link observations within the last `m` rounds
    /// (`None` = silence that round).
    history: VecDeque<Option<bool>>,
}

impl SelfTimedNode<'_> {
    /// Sliding-majority acceptance check over the last `m` observations.
    fn sliding_accept(&self) -> Option<bool> {
        for bit in [true, false] {
            let copies = self.history.iter().filter(|o| **o == Some(bit)).count();
            if 2 * copies >= self.m {
                return Some(bit);
            }
        }
        None
    }
}

impl MpNode for SelfTimedNode<'_> {
    type Msg = bool;

    fn send(&mut self, round: usize) -> Outgoing<bool> {
        // The engine calls `send` for every node before any delivery of
        // this round, so the history holds exactly the last completed
        // rounds: evaluate acceptance first, then open this round's slot.
        if self.mode == SelfTimedMode::SlidingMajority && self.value.is_none() {
            if let Some(bit) = self.sliding_accept() {
                self.value = Some(bit);
                self.window_from = Some(round);
            } else {
                if self.history.len() == self.m {
                    self.history.pop_front();
                }
                self.history.push_back(None);
            }
        }
        match (self.value, self.window_from) {
            (Some(bit), Some(from)) if round >= from && round < from + self.m => {
                relay(self.children, bit)
            }
            _ => Outgoing::Silent,
        }
    }

    fn recv(&mut self, round: usize, from: NodeId, msg: bool) {
        if Some(from) != self.parent {
            return;
        }
        match self.mode {
            SelfTimedMode::FirstReception => {
                if self.value.is_none() {
                    self.value = Some(msg);
                    self.window_from = Some(round + 1);
                }
            }
            SelfTimedMode::SlidingMajority => {
                if self.value.is_none() {
                    if let Some(slot) = self.history.back_mut() {
                        *slot = Some(msg);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_engine::adversary::FlipMpAdversary;
    use randcast_engine::mp::SilentMpAdversary;
    use randcast_graph::{generators, traversal};

    #[test]
    fn fault_free_self_timed_completes_in_d_plus_one_windows() {
        let g = generators::path(6);
        let plan = SelfTimedPlan::with_window(&g, g.node(0), 3, SelfTimedMode::FirstReception);
        let out = plan.run(&g, FaultConfig::fault_free(), SilentMpAdversary, 0, true);
        assert!(out.all_correct(true));
        assert_eq!(out.rounds, 7 * 3);
    }

    #[test]
    fn self_timed_omission_is_almost_safe() {
        let g = generators::grid(4, 4);
        let p = 0.5;
        let plan = SelfTimedPlan::omission(&g, g.node(0), p);
        let mut ok = 0;
        for seed in 0..30 {
            let out = plan.run(&g, FaultConfig::omission(p), SilentMpAdversary, seed, true);
            ok += usize::from(out.all_correct(true));
        }
        assert!(ok >= 28, "ok={ok}");
    }

    #[test]
    fn self_timed_is_much_faster_than_indexed() {
        // Horizon (D+1)·m vs n·m: on a balanced tree D ≪ n.
        let g = generators::balanced_tree(3, 4); // n = 121, D = 4
        let p = 0.4;
        let st = SelfTimedPlan::omission(&g, g.node(0), p);
        let indexed = crate::simple::SimplePlan::omission_with_p(&g, g.node(0), p);
        assert!(st.horizon() * 5 < indexed.total_rounds());
        let d = traversal::radius_from(&g, g.node(0));
        assert_eq!(st.horizon(), (d + 1) * st.window());
    }

    #[test]
    fn sliding_majority_survives_flip_adversary() {
        let g = generators::path(5);
        let p = 0.25;
        let plan = SelfTimedPlan::malicious(&g, g.node(0), p);
        let mut ok = 0;
        for seed in 0..30 {
            let out = plan.run(&g, FaultConfig::malicious(p), FlipMpAdversary, seed, true);
            ok += usize::from(out.all_correct(true));
        }
        assert!(ok >= 28, "ok={ok}");
    }

    #[test]
    fn sliding_majority_fault_free_accepts_quickly() {
        let g = generators::path(3);
        let plan = SelfTimedPlan::with_window(&g, g.node(0), 5, SelfTimedMode::SlidingMajority);
        let out = plan.run(&g, FaultConfig::fault_free(), SilentMpAdversary, 0, false);
        assert!(out.all_correct(false));
    }

    #[test]
    fn sliding_majority_never_accepts_from_silence() {
        // With the source permanently silenced (p -> omission at huge
        // rate), children must not accept anything.
        let g = generators::path(2);
        let plan = SelfTimedPlan::with_window(&g, g.node(0), 7, SelfTimedMode::SlidingMajority);
        let out = plan.run(&g, FaultConfig::omission(0.99), SilentMpAdversary, 3, true);
        // Node 2 (grandchild) almost surely undecided at this rate.
        assert_eq!(out.values[2], None);
    }

    #[test]
    fn both_bits_survive(/* symmetry check */) {
        let g = generators::star(6);
        let p = 0.3;
        let plan = SelfTimedPlan::malicious(&g, g.node(0), p);
        for bit in [false, true] {
            let mut ok = 0;
            for seed in 0..20 {
                let out = plan.run(&g, FaultConfig::malicious(p), FlipMpAdversary, seed, bit);
                ok += usize::from(out.all_correct(bit));
            }
            assert!(ok >= 18, "bit={bit} ok={ok}");
        }
    }
}
