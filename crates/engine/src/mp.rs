//! The synchronous message-passing model.
//!
//! In each step every node may send arbitrary, possibly different,
//! messages to its neighbors, and receives all messages addressed to it in
//! that step. Failed transmitters are handled per the
//! [`FaultConfig`]: omission faults silence the node
//! for the step; (limited-)malicious faults hand control of the node's
//! transmissions to an [`MpAdversary`].

use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_graph::{Graph, NodeId};

use crate::fault::{FaultCoin, FaultConfig, FaultKind};

/// What a node's transmitter does in one step of the message-passing
/// model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outgoing<M> {
    /// Send nothing.
    Silent,
    /// Send the same message to every neighbor.
    Broadcast(M),
    /// Send (possibly different) messages to the listed neighbors.
    Directed(Vec<(NodeId, M)>),
}

impl<M> Outgoing<M> {
    /// Whether nothing is sent.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        match self {
            Outgoing::Silent => true,
            Outgoing::Broadcast(_) => false,
            Outgoing::Directed(list) => list.is_empty(),
        }
    }
}

/// A node automaton in the message-passing model.
///
/// The engine calls [`send`](MpNode::send) once per round for every node
/// (collecting all intended transmissions before any delivery, so the
/// round is properly synchronous), then delivers messages via
/// [`recv`](MpNode::recv).
pub trait MpNode {
    /// The message type exchanged by this protocol.
    type Msg: Clone + Eq + fmt::Debug;

    /// Decide this round's transmissions.
    fn send(&mut self, round: usize) -> Outgoing<Self::Msg>;

    /// Deliver a message that arrived this round from neighbor `from`.
    fn recv(&mut self, round: usize, from: NodeId, msg: Self::Msg);
}

/// Per-round context handed to a message-passing adversary.
#[derive(Debug)]
pub struct MpRoundCtx<'a, M> {
    /// The current round.
    pub round: usize,
    /// The network graph.
    pub graph: &'a Graph,
    /// Nodes whose transmitter failed this round (ascending order).
    pub faulty: &'a [NodeId],
    /// Every node's intended transmission this round (indexed by node id).
    /// Adaptive adversaries may inspect all of it.
    pub intended: &'a [Outgoing<M>],
}

/// An adaptive adversary controlling maliciously failed transmitters in
/// the message-passing model.
///
/// Once per round the engine reports which transmitters failed and what
/// every node intended to send; the adversary returns replacement
/// behaviors for (a subset of) the faulty nodes. Faulty nodes without a
/// replacement stay silent.
///
/// Under [`FaultKind::LimitedMalicious`] the engine clamps replacements
/// so a faulty node can only reach targets it intended to reach (content
/// may be corrupted, messages may be dropped — but no out-of-turn links).
pub trait MpAdversary<M> {
    /// Choose the actual behavior of this round's faulty transmitters.
    fn corrupt_round(
        &mut self,
        ctx: MpRoundCtx<'_, M>,
        rng: &mut SmallRng,
    ) -> Vec<(NodeId, Outgoing<M>)>;
}

/// The trivial adversary: faulty nodes stay silent. Under malicious fault
/// kinds this makes malicious behave exactly like omission — useful as a
/// baseline and as the default for omission-only experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentMpAdversary;

impl<M> MpAdversary<M> for SilentMpAdversary {
    fn corrupt_round(
        &mut self,
        _ctx: MpRoundCtx<'_, M>,
        _rng: &mut SmallRng,
    ) -> Vec<(NodeId, Outgoing<M>)> {
        Vec::new()
    }
}

/// Counters accumulated over an execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MpStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Node-steps in which a (post-fault) transmission occurred.
    pub transmissions: u64,
    /// Point-to-point messages delivered.
    pub deliveries: u64,
    /// Node-steps in which the transmitter failed.
    pub faults: u64,
}

/// A synchronous message-passing network executing one [`MpNode`] automaton
/// per graph node.
///
/// See the [crate-level example](crate) for basic usage.
pub struct MpNetwork<'g, P: MpNode, A = SilentMpAdversary> {
    graph: &'g Graph,
    nodes: Vec<P>,
    fault: FaultConfig,
    adversary: A,
    rng: SmallRng,
    round: usize,
    stats: MpStats,
    // Per-step buffers, sized to n once and overwritten every round.
    // `intended` holds the actual behaviors once the faults are resolved,
    // `fault_mask` and the prefix of `faulty` the faulty nodes (never
    // written at p = 0), and `senders` the nodes that may deliver.
    intended: Vec<Outgoing<P::Msg>>,
    fault_mask: Vec<bool>,
    faulty: Vec<NodeId>,
    senders: Vec<NodeId>,
}

impl<'g, P: MpNode> MpNetwork<'g, P, SilentMpAdversary> {
    /// Creates a network with the default silent adversary (sufficient for
    /// fault-free and omission executions).
    ///
    /// `factory(v)` builds the automaton for node `v`.
    pub fn new<F>(graph: &'g Graph, fault: FaultConfig, seed: u64, factory: F) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        Self::with_adversary(graph, fault, SilentMpAdversary, seed, factory)
    }
}

impl<'g, P: MpNode, A: MpAdversary<P::Msg>> MpNetwork<'g, P, A> {
    /// Creates a network with an explicit adversary controlling malicious
    /// faults.
    pub fn with_adversary<F>(
        graph: &'g Graph,
        fault: FaultConfig,
        adversary: A,
        seed: u64,
        mut factory: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        let nodes: Vec<P> = graph.nodes().map(&mut factory).collect();
        let n = nodes.len();
        MpNetwork {
            graph,
            nodes,
            fault,
            adversary,
            rng: SmallRng::seed_from_u64(seed),
            round: 0,
            stats: MpStats::default(),
            intended: (0..n).map(|_| Outgoing::Silent).collect(),
            fault_mask: vec![false; n],
            faulty: vec![NodeId::default(); n],
            senders: Vec::new(),
        }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The current round (number of completed steps).
    #[must_use]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Execution counters.
    #[must_use]
    pub fn stats(&self) -> MpStats {
        self.stats
    }

    /// The automaton of node `v`.
    #[must_use]
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Mutable access to the automaton of node `v`.
    pub fn node_mut(&mut self, v: NodeId) -> &mut P {
        &mut self.nodes[v.index()]
    }

    /// Iterates over all automata in node-id order.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Executes one synchronous round.
    ///
    /// # Panics
    ///
    /// Panics if the adversary returns a replacement for a non-faulty
    /// node, or if any transmission targets a non-neighbor.
    pub fn step(&mut self) {
        let n = self.graph.node_count();
        let round = self.round;

        // 1. One pass in node order: each node's intention, then its fault
        //    coin, marked and appended to `faulty` without a branch; healthy
        //    nodes that mean to send are the senders. Automata cannot reach
        //    the RNG, so the coins are drawn as if intentions came first.
        let coin = FaultCoin::new(self.fault.p.get());
        let mut faults = 0;
        self.senders.clear();
        let slots = self.intended.iter_mut().zip(&mut self.fault_mask);
        for ((u, node), (out, failed)) in self.nodes.iter_mut().enumerate().zip(slots) {
            *out = node.send(round);
            if coin.0 != 0 {
                *failed = coin.fails(&mut self.rng);
                self.faulty[faults] = NodeId::new(u);
                faults += usize::from(*failed);
            }
            if !out.is_silent() && !*failed {
                // the coin last: it is unpredictable
                self.senders.push(NodeId::new(u));
            }
        }
        self.stats.faults += faults as u64;

        // 2. Resolve actual behavior of faulty transmitters. The
        //    adversary reads the intentions before anything changes, and
        //    its replacements are clamped against them. Only then is
        //    every faulty node silenced in place and the replacements
        //    written over it, in order, so the last one per node wins.
        //    A replacement may send out of turn, so after one the senders
        //    are listed again from the actual behaviors. Without one the
        //    faulty nodes are not senders, so their slots stay as they are.
        let mut overrides = Vec::new();
        if self.fault.kind != FaultKind::Omission && faults > 0 {
            let ctx = MpRoundCtx {
                round,
                graph: self.graph,
                faulty: &self.faulty[..faults],
                intended: &self.intended,
            };
            overrides = self.adversary.corrupt_round(ctx, &mut self.rng);
            for (v, behavior) in &mut overrides {
                assert!(
                    self.fault_mask[v.index()],
                    "adversary tried to control non-faulty node {v}"
                );
                if self.fault.kind == FaultKind::LimitedMalicious {
                    let replacement = std::mem::replace(behavior, Outgoing::Silent);
                    *behavior =
                        clamp_to_intended(self.graph, *v, &self.intended[v.index()], replacement);
                }
            }
        }
        if !overrides.is_empty() {
            for &v in &self.faulty[..faults] {
                self.intended[v.index()] = Outgoing::Silent;
            }
            for (v, behavior) in overrides {
                self.intended[v.index()] = behavior;
            }
            self.senders.clear();
            self.senders.extend(
                (0..n)
                    .filter(|&u| !self.intended[u].is_silent())
                    .map(NodeId::new),
            );
        }

        // 3. Deliver, in deterministic (sender, target) order. Only the
        //    senders can deliver, and none of them holds an empty list; a
        //    faulty node is a sender only by a replacement.
        let graph = self.graph;
        for &u in &self.senders {
            match std::mem::replace(&mut self.intended[u.index()], Outgoing::Silent) {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => {
                    self.stats.transmissions += 1;
                    for v in graph.neighbors(u) {
                        self.stats.deliveries += 1;
                        self.nodes[v.index()].recv(round, u, m.clone());
                    }
                }
                Outgoing::Directed(mut list) => {
                    self.stats.transmissions += 1;
                    // Deliver in ascending-target order with last-wins
                    // duplicate handling, in place (no per-node map).
                    list.sort_by_key(|&(v, _)| v);
                    list.dedup_by(|later, earlier| {
                        if later.0 == earlier.0 {
                            std::mem::swap(later, earlier);
                            true
                        } else {
                            false
                        }
                    });
                    for (v, m) in list {
                        assert!(graph.has_edge(u, v), "node {u} sent to non-neighbor {v}");
                        self.stats.deliveries += 1;
                        self.nodes[v.index()].recv(round, u, m);
                    }
                }
            }
        }

        self.round += 1;
        self.stats.rounds += 1;
    }

    /// Executes `rounds` synchronous rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }
}

/// Enforces the limited-malicious containment rule: the actual behavior
/// may only reach targets the intended behavior reached (with arbitrary
/// content), and may drop any of them.
fn clamp_to_intended<M: Clone>(
    graph: &Graph,
    v: NodeId,
    intended: &Outgoing<M>,
    actual: Outgoing<M>,
) -> Outgoing<M> {
    let mut allowed: Vec<NodeId> = match intended {
        Outgoing::Silent => Vec::new(),
        Outgoing::Broadcast(_) => graph.neighbors(v).collect(),
        Outgoing::Directed(list) => list.iter().map(|&(t, _)| t).collect(),
    };
    allowed.sort_unstable();
    allowed.dedup(); // a list may name a neighbor twice
    if allowed.is_empty() {
        return Outgoing::Silent;
    }
    match actual {
        Outgoing::Silent => Outgoing::Silent,
        Outgoing::Broadcast(m) => {
            if allowed.iter().copied().eq(graph.neighbors(v)) {
                Outgoing::Broadcast(m)
            } else {
                Outgoing::Directed(allowed.into_iter().map(|t| (t, m.clone())).collect())
            }
        }
        Outgoing::Directed(list) => Outgoing::Directed(
            list.into_iter()
                .filter(|(t, _)| allowed.contains(t))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AntiTruthMpAdversary, FlipMpAdversary, RandomBitMpAdversary};
    use crate::trace::{TraceLog, Traced};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use randcast_graph::generators;

    /// Floods `true` once informed; counts received messages.
    struct Flood {
        informed: bool,
        received: usize,
    }

    impl Flood {
        fn new(informed: bool) -> Self {
            Flood {
                informed,
                received: 0,
            }
        }
    }

    impl MpNode for Flood {
        type Msg = bool;
        fn send(&mut self, _round: usize) -> Outgoing<bool> {
            if self.informed {
                Outgoing::Broadcast(true)
            } else {
                Outgoing::Silent
            }
        }
        fn recv(&mut self, _round: usize, _from: NodeId, _msg: bool) {
            self.informed = true;
            self.received += 1;
        }
    }

    #[test]
    fn fault_free_flood_advances_one_hop_per_round() {
        let g = generators::path(5);
        let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 0, |v| {
            Flood::new(v.index() == 0)
        });
        for t in 1..=5 {
            net.step();
            let frontier = (0..=5).filter(|&i| net.node(g.node(i)).informed).count();
            assert_eq!(frontier, t + 1, "after round {t}");
        }
    }

    #[test]
    fn omission_p_half_still_completes_eventually() {
        let g = generators::path(8);
        let mut net = MpNetwork::new(&g, FaultConfig::omission(0.5), 42, |v| {
            Flood::new(v.index() == 0)
        });
        net.run(200);
        assert!(net.nodes().all(|n| n.informed));
    }

    #[test]
    fn determinism_given_seed() {
        let g = generators::grid(4, 4);
        let run = |seed: u64| {
            let mut net = MpNetwork::new(&g, FaultConfig::omission(0.4), seed, |v| {
                Flood::new(v.index() == 0)
            });
            net.run(30);
            net.nodes().map(|n| n.received).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7),
            run(8),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn stats_count_deliveries() {
        let g = generators::star(3);
        let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 0, |v| {
            Flood::new(v.index() == 0)
        });
        net.step(); // center broadcasts to 3 leaves
        let s = net.stats();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.transmissions, 1);
        assert_eq!(s.deliveries, 3);
        assert_eq!(s.faults, 0);
    }

    /// Sends one directed message from node 0 to node 1 in round 0.
    struct OneShot {
        me: NodeId,
        inbox: Vec<(NodeId, u64)>,
    }

    impl MpNode for OneShot {
        type Msg = u64;
        fn send(&mut self, round: usize) -> Outgoing<u64> {
            if round == 0 && self.me.index() == 0 {
                Outgoing::Directed(vec![(NodeId::new(1), 99)])
            } else {
                Outgoing::Silent
            }
        }
        fn recv(&mut self, _round: usize, from: NodeId, msg: u64) {
            self.inbox.push((from, msg));
        }
    }

    #[test]
    fn directed_delivery_reaches_only_target() {
        let g = generators::path(2); // 0 - 1 - 2
        let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 0, |v| OneShot {
            me: v,
            inbox: Vec::new(),
        });
        net.step();
        assert_eq!(net.node(g.node(1)).inbox, vec![(g.node(0), 99)]);
        assert!(net.node(g.node(2)).inbox.is_empty());
        assert!(net.node(g.node(0)).inbox.is_empty());
    }

    #[test]
    fn duplicate_directed_targets_keep_last_message() {
        struct Dup {
            me: NodeId,
            inbox: Vec<(NodeId, u64)>,
        }
        impl MpNode for Dup {
            type Msg = u64;
            fn send(&mut self, round: usize) -> Outgoing<u64> {
                if round == 0 && self.me.index() == 0 {
                    Outgoing::Directed(vec![
                        (NodeId::new(1), 1),
                        (NodeId::new(1), 2),
                        (NodeId::new(1), 3),
                    ])
                } else {
                    Outgoing::Silent
                }
            }
            fn recv(&mut self, _round: usize, from: NodeId, msg: u64) {
                self.inbox.push((from, msg));
            }
        }
        let g = generators::path(1);
        let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 0, |v| Dup {
            me: v,
            inbox: Vec::new(),
        });
        net.step();
        // Map semantics: one delivery per target, last message wins.
        assert_eq!(net.node(g.node(1)).inbox, vec![(g.node(0), 3)]);
        assert_eq!(net.stats().deliveries, 1);
    }

    /// Adversary that rebroadcasts `false` from every faulty node.
    struct LiarAdversary;
    impl MpAdversary<bool> for LiarAdversary {
        fn corrupt_round(
            &mut self,
            ctx: MpRoundCtx<'_, bool>,
            _rng: &mut SmallRng,
        ) -> Vec<(NodeId, Outgoing<bool>)> {
            ctx.faulty
                .iter()
                .map(|&v| (v, Outgoing::Broadcast(false)))
                .collect()
        }
    }

    #[test]
    fn malicious_adversary_can_speak_out_of_turn() {
        // Node 1 never intends to send, but when faulty the liar makes it
        // broadcast `false` (allowed under full malicious).
        struct Quiet {
            heard: Vec<bool>,
        }
        impl MpNode for Quiet {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                Outgoing::Silent
            }
            fn recv(&mut self, _round: usize, _from: NodeId, msg: bool) {
                self.heard.push(msg);
            }
        }
        let g = generators::path(1);
        // p = 0.9: node 1 fails most rounds.
        let mut net =
            MpNetwork::with_adversary(&g, FaultConfig::malicious(0.9), LiarAdversary, 3, |_| {
                Quiet { heard: Vec::new() }
            });
        net.run(50);
        assert!(
            !net.node(g.node(0)).heard.is_empty(),
            "liar should have spoken out of turn"
        );
        assert!(net.node(g.node(0)).heard.iter().all(|&b| !b));
    }

    #[test]
    fn limited_malicious_cannot_speak_out_of_turn() {
        struct Quiet {
            heard: Vec<bool>,
        }
        impl MpNode for Quiet {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                Outgoing::Silent
            }
            fn recv(&mut self, _round: usize, _from: NodeId, msg: bool) {
                self.heard.push(msg);
            }
        }
        let g = generators::path(1);
        let mut net = MpNetwork::with_adversary(
            &g,
            FaultConfig::limited_malicious(0.9),
            LiarAdversary,
            3,
            |_| Quiet { heard: Vec::new() },
        );
        net.run(50);
        assert!(
            net.node(g.node(0)).heard.is_empty(),
            "limited malicious must not create out-of-turn transmissions"
        );
    }

    #[test]
    fn limited_malicious_can_corrupt_intended_sends() {
        struct Talker {
            me: NodeId,
            heard: Vec<bool>,
        }
        impl MpNode for Talker {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                if self.me.index() == 0 {
                    Outgoing::Broadcast(true)
                } else {
                    Outgoing::Silent
                }
            }
            fn recv(&mut self, _round: usize, _from: NodeId, msg: bool) {
                self.heard.push(msg);
            }
        }
        let g = generators::path(1);
        let mut net = MpNetwork::with_adversary(
            &g,
            FaultConfig::limited_malicious(0.5),
            LiarAdversary,
            11,
            |v| Talker {
                me: v,
                heard: Vec::new(),
            },
        );
        net.run(100);
        let heard = &net.node(g.node(1)).heard;
        assert!(heard.contains(&true), "fault-free rounds deliver the truth");
        assert!(heard.contains(&false), "faulty rounds deliver the lie");
    }

    #[test]
    fn limited_malicious_clamp_counts_distinct_targets() {
        // Node 1 of 0-1-2-3 names neighbor 0 twice, which is as many
        // entries as it has neighbors; a broadcast replacement must
        // still reach node 0 alone.
        struct Repeat {
            me: NodeId,
            heard: Vec<bool>,
        }
        impl MpNode for Repeat {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                if self.me.index() == 1 {
                    Outgoing::Directed(vec![(NodeId::new(0), true), (NodeId::new(0), false)])
                } else {
                    Outgoing::Silent
                }
            }
            fn recv(&mut self, _round: usize, _from: NodeId, msg: bool) {
                self.heard.push(msg);
            }
        }
        let g = generators::path(3);
        for seed in 0..50 {
            let mut net = MpNetwork::with_adversary(
                &g,
                FaultConfig::limited_malicious(0.9),
                AntiTruthMpAdversary::new(true),
                seed,
                |v| Repeat {
                    me: v,
                    heard: Vec::new(),
                },
            );
            net.step();
            assert!(net.node(g.node(2)).heard.is_empty(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn directed_send_to_non_neighbor_panics() {
        struct Bad;
        impl MpNode for Bad {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                Outgoing::Directed(vec![(NodeId::new(2), true)])
            }
            fn recv(&mut self, _round: usize, _from: NodeId, _msg: bool) {}
        }
        let g = generators::path(2); // 0-1-2: 0 and 2 are not adjacent
        let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 0, |_| Bad);
        net.step();
    }

    #[test]
    fn empty_directed_counts_as_silent() {
        struct Empty;
        impl MpNode for Empty {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                Outgoing::Directed(Vec::new())
            }
            fn recv(&mut self, _round: usize, _from: NodeId, _msg: bool) {}
        }
        let g = generators::path(1);
        let mut net = MpNetwork::new(&g, FaultConfig::fault_free(), 0, |_| Empty);
        net.run(5);
        assert_eq!(net.stats().transmissions, 0);
        assert_eq!(net.stats().deliveries, 0);
        assert!(Outgoing::<bool>::Directed(Vec::new()).is_silent());
        assert!(Outgoing::<bool>::Silent.is_silent());
        assert!(!Outgoing::Broadcast(true).is_silent());
    }

    /// Adversary that only overrides the lowest-id faulty node; the rest
    /// must default to silence.
    struct PartialAdversary;
    impl MpAdversary<bool> for PartialAdversary {
        fn corrupt_round(
            &mut self,
            ctx: MpRoundCtx<'_, bool>,
            _rng: &mut SmallRng,
        ) -> Vec<(NodeId, Outgoing<bool>)> {
            ctx.faulty
                .first()
                .map(|&v| (v, Outgoing::Broadcast(false)))
                .into_iter()
                .collect()
        }
    }

    #[test]
    fn unoverridden_faulty_nodes_stay_silent() {
        struct Count {
            heard: usize,
        }
        impl MpNode for Count {
            type Msg = bool;
            fn send(&mut self, _round: usize) -> Outgoing<bool> {
                Outgoing::Silent
            }
            fn recv(&mut self, _round: usize, _from: NodeId, msg: bool) {
                assert!(!msg, "only the adversary's false broadcasts exist");
                self.heard += 1;
            }
        }
        // Complete graph: every fault is observable if it speaks.
        let g = generators::complete(4);
        let mut net = MpNetwork::with_adversary(
            &g,
            FaultConfig::malicious(0.5),
            PartialAdversary,
            11,
            |_| Count { heard: 0 },
        );
        net.run(100);
        // Each round at most one (the overridden) node broadcasts to its
        // 3 neighbors: deliveries ≤ 300.
        assert!(net.stats().deliveries <= 300);
        assert!(net.stats().deliveries > 0);
    }

    #[test]
    fn fault_rate_is_sampled_per_node_step() {
        let g = generators::complete(4);
        let mut net = MpNetwork::new(&g, FaultConfig::omission(0.25), 5, |v| {
            Flood::new(v.index() == 0)
        });
        net.run(500);
        let s = net.stats();
        let rate = s.faults as f64 / (500.0 * 4.0);
        assert!((rate - 0.25).abs() < 0.05, "rate={rate}");
    }

    /// The step as first written, visiting every node in the delivery
    /// loop and looking faulty ones up in a sorted replacement table:
    /// the oracle for `step_matches_the_reference_step`. The body is
    /// kept as it was, except that the table and the fault mask are
    /// locals instead of fields, and the mask is drawn by the test copy
    /// of `sample_step_into`, which draws the same coins.
    impl<P: MpNode, A: MpAdversary<P::Msg>> MpNetwork<'_, P, A> {
        fn reference_step(&mut self) {
            let n = self.graph.node_count();
            let round = self.round;
            let mut overrides: Vec<(NodeId, Outgoing<P::Msg>)> = Vec::new();
            let mut fault_mask = Vec::new();

            // 1. Collect intentions (into the reusable buffer).
            self.intended.clear();
            for node in &mut self.nodes {
                self.intended.push(node.send(round));
            }

            // 2. Sample transmitter faults (one coin per node).
            self.fault
                .sample_step_into(n, &mut self.rng, &mut fault_mask);
            self.faulty.clear();
            self.faulty
                .extend((0..n).filter(|&i| fault_mask[i]).map(NodeId::new));
            self.stats.faults += self.faulty.len() as u64;

            // 3. Resolve actual behavior of faulty transmitters. Faulty
            //    nodes are silent unless the adversary supplies a
            //    replacement; replacements are kept in a sorted side table
            //    (last one per node wins) instead of cloning the whole
            //    intention vector.
            overrides.clear();
            if self.fault.kind != FaultKind::Omission && !self.faulty.is_empty() {
                let ctx = MpRoundCtx {
                    round,
                    graph: self.graph,
                    faulty: &self.faulty,
                    intended: &self.intended,
                };
                let replacements = self.adversary.corrupt_round(ctx, &mut self.rng);
                for (v, behavior) in replacements {
                    assert!(
                        fault_mask[v.index()],
                        "adversary tried to control non-faulty node {v}"
                    );
                    let behavior = if self.fault.kind == FaultKind::LimitedMalicious {
                        clamp_to_intended(self.graph, v, &self.intended[v.index()], behavior)
                    } else {
                        behavior
                    };
                    overrides.push((v, behavior));
                }
                overrides.sort_by_key(|&(v, _)| v);
                overrides.dedup_by(|later, earlier| {
                    if later.0 == earlier.0 {
                        // Keep the later replacement, matching sequential
                        // overwrite semantics.
                        std::mem::swap(later, earlier);
                        true
                    } else {
                        false
                    }
                });
            }

            // 4. Deliver, in deterministic (sender, target) order.
            let graph = self.graph;
            for u in graph.nodes() {
                let out = if fault_mask[u.index()] {
                    match overrides.binary_search_by_key(&u, |&(v, _)| v) {
                        Ok(i) => std::mem::replace(&mut overrides[i].1, Outgoing::Silent),
                        Err(_) => Outgoing::Silent,
                    }
                } else {
                    std::mem::replace(&mut self.intended[u.index()], Outgoing::Silent)
                };
                match out {
                    Outgoing::Silent => {}
                    Outgoing::Broadcast(m) => {
                        self.stats.transmissions += 1;
                        for v in graph.neighbors(u) {
                            self.stats.deliveries += 1;
                            self.nodes[v.index()].recv(round, u, m.clone());
                        }
                    }
                    Outgoing::Directed(mut list) => {
                        if list.is_empty() {
                            continue;
                        }
                        self.stats.transmissions += 1;
                        // Deliver in ascending-target order with last-wins
                        // duplicate handling, in place (no per-node map).
                        list.sort_by_key(|&(v, _)| v);
                        list.dedup_by(|later, earlier| {
                            if later.0 == earlier.0 {
                                std::mem::swap(later, earlier);
                                true
                            } else {
                                false
                            }
                        });
                        for (v, m) in list {
                            assert!(graph.has_edge(u, v), "node {u} sent to non-neighbor {v}");
                            self.stats.deliveries += 1;
                            self.nodes[v.index()].recv(round, u, m);
                        }
                    }
                }
            }

            self.round += 1;
            self.stats.rounds += 1;
        }
    }

    /// Pseudo-random bits from three counters (a splitmix64 finalizer),
    /// so the test automata's choices depend on what they have received.
    fn mix(a: usize, b: usize, c: usize) -> u64 {
        let mut x = ((a as u64) << 40) ^ ((b as u64) << 20) ^ c as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Each round, by its history, stays silent, broadcasts its bit,
    /// sends an empty list, or sends a directed list with duplicate
    /// targets and conflicting bits in either target order. Every
    /// message received is folded into the bit.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Chatter {
        me: NodeId,
        neighbors: Vec<NodeId>,
        bit: bool,
        inbox: Vec<(usize, NodeId, bool)>,
    }

    impl MpNode for Chatter {
        type Msg = bool;
        fn send(&mut self, round: usize) -> Outgoing<bool> {
            let h = mix(self.me.index(), round, self.inbox.len());
            match h % 5 {
                0 | 1 => Outgoing::Silent,
                2 => Outgoing::Broadcast(self.bit),
                3 => Outgoing::Directed(Vec::new()),
                _ => {
                    let mut list = Vec::new();
                    for (k, &t) in self.neighbors.iter().enumerate() {
                        let pick = mix(k, round, h as usize);
                        if pick & 1 == 1 {
                            list.push((t, self.bit));
                        }
                        if pick & 2 == 2 {
                            list.push((t, !self.bit));
                        }
                    }
                    if h & 8 == 8 {
                        list.reverse();
                    }
                    Outgoing::Directed(list)
                }
            }
        }
        fn recv(&mut self, round: usize, from: NodeId, msg: bool) {
            self.bit ^= msg;
            self.inbox.push((round, from, msg));
        }
    }

    /// Replaces every faulty node twice, in descending node order: first
    /// with silence, then with a random broadcast. The second one must
    /// win.
    #[derive(Clone)]
    struct Twice;
    impl MpAdversary<bool> for Twice {
        fn corrupt_round(
            &mut self,
            ctx: MpRoundCtx<'_, bool>,
            rng: &mut SmallRng,
        ) -> Vec<(NodeId, Outgoing<bool>)> {
            ctx.faulty
                .iter()
                .rev()
                .flat_map(|&v| {
                    let bit = rng.gen_bool(0.5);
                    [(v, Outgoing::Silent), (v, Outgoing::Broadcast(bit))]
                })
                .collect()
        }
    }

    /// One small graph per seed, cycling through six families.
    fn test_family(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        match seed % 6 {
            0 => generators::path(6 + (seed % 5) as usize),
            1 => generators::star(6),
            2 => generators::grid(3, 4),
            3 => generators::hypercube(3),
            4 => generators::random_tree(12, &mut rng),
            _ => generators::gnp(12, 0.3, &mut rng),
        }
    }

    /// Runs `step` and `reference_step` side by side and compares the
    /// stats, the traced send/recv log and every automaton's final state.
    fn assert_matches_reference<A: MpAdversary<bool> + Clone>(
        g: &Graph,
        fault: FaultConfig,
        adversary: A,
        seed: u64,
    ) {
        let run = |reference: bool| {
            let log = TraceLog::new();
            let mut net = MpNetwork::with_adversary(g, fault, adversary.clone(), seed, |v| {
                let chatter = Chatter {
                    me: v,
                    neighbors: g.neighbors(v).collect(),
                    bit: v.index() == 0,
                    inbox: Vec::new(),
                };
                Traced::new(v, chatter, log.clone())
            });
            for _ in 0..24 {
                if reference {
                    net.reference_step();
                } else {
                    net.step();
                }
            }
            let states: Vec<Chatter> = net.nodes().map(|t| t.inner().clone()).collect();
            (net.stats(), log.events(), states)
        };
        assert_eq!(run(false), run(true), "seed {seed}, {fault:?}");
    }

    #[test]
    fn step_matches_the_reference_step() {
        let faults = [
            FaultConfig::fault_free(),
            FaultConfig::omission(0.3),
            FaultConfig::omission(0.9),
            FaultConfig::malicious(0.4),
            FaultConfig::limited_malicious(0.4),
        ];
        for seed in 0..300u64 {
            let g = test_family(seed);
            let fault = faults[(seed / 6 % 5) as usize];
            match seed / 30 % 5 {
                0 => assert_matches_reference(&g, fault, SilentMpAdversary, seed),
                1 => assert_matches_reference(&g, fault, AntiTruthMpAdversary::new(true), seed),
                2 => assert_matches_reference(&g, fault, RandomBitMpAdversary, seed),
                3 => assert_matches_reference(&g, fault, FlipMpAdversary, seed),
                _ => assert_matches_reference(&g, fault, Twice, seed),
            }
        }
    }
}
