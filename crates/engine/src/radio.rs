//! The synchronous radio model.
//!
//! A node transmits at most one message per step; the message reaches all
//! neighbors. A node *hears* a message in a step iff it does not transmit
//! itself and **exactly one** of its neighbors transmits. Otherwise —
//! silence or a collision of two or more transmitters — it hears nothing,
//! and cannot distinguish the two cases (no collision detection).
//!
//! Under malicious faults, failed transmitters may transmit out of turn;
//! in this model that is a powerful attack because it *creates
//! collisions*, which is precisely the mechanism behind the paper's
//! radio infeasibility threshold `p ≥ (1 − p)^{Δ+1}` (Theorem 2.4).

use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_graph::{Graph, NodeId};

use crate::fault::{FaultConfig, FaultKind};

/// What a node does in one radio step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RadioAction<M> {
    /// Stay silent and listen.
    Listen,
    /// Transmit one message to all neighbors.
    Transmit(M),
}

impl<M> RadioAction<M> {
    /// Whether this action transmits.
    #[must_use]
    pub fn is_transmit(&self) -> bool {
        matches!(self, RadioAction::Transmit(_))
    }

    /// The transmitted message, if any.
    fn message(&self) -> Option<&M> {
        match self {
            RadioAction::Listen => None,
            RadioAction::Transmit(m) => Some(m),
        }
    }
}

/// A node automaton in the radio model.
///
/// Each round the engine collects every node's [`act`](RadioNode::act),
/// resolves faults and collisions, then reports the reception outcome to
/// every node via [`recv`](RadioNode::recv) — `None` meaning "silence or
/// collision" (indistinguishable), `Some(msg)` meaning a clean reception.
pub trait RadioNode {
    /// The message type exchanged by this protocol.
    type Msg: Clone + Eq + fmt::Debug;

    /// Decide this round's action.
    fn act(&mut self, round: usize) -> RadioAction<Self::Msg>;

    /// Observe this round's reception outcome.
    fn recv(&mut self, round: usize, heard: Option<Self::Msg>);
}

/// Per-round context handed to a radio adversary.
#[derive(Debug)]
pub struct RadioRoundCtx<'a, M> {
    /// The current round.
    pub round: usize,
    /// The network graph.
    pub graph: &'a Graph,
    /// Nodes whose transmitter failed this round (ascending order).
    pub faulty: &'a [NodeId],
    /// Every node's intended action this round (indexed by node id).
    pub intended: &'a [RadioAction<M>],
}

/// An adaptive adversary controlling maliciously failed transmitters in
/// the radio model.
///
/// Returns replacement actions for (a subset of) this round's faulty
/// nodes; faulty nodes without a replacement stay silent. Under
/// [`FaultKind::LimitedMalicious`] a node that intended to listen is
/// forced to keep listening (no out-of-turn transmissions), while an
/// intended transmission may be altered or suppressed.
pub trait RadioAdversary<M> {
    /// Choose the actual behavior of this round's faulty transmitters.
    fn corrupt_round(
        &mut self,
        ctx: RadioRoundCtx<'_, M>,
        rng: &mut SmallRng,
    ) -> Vec<(NodeId, RadioAction<M>)>;
}

/// The trivial adversary: faulty transmitters stay silent (malicious
/// degrades to omission).
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentRadioAdversary;

impl<M> RadioAdversary<M> for SilentRadioAdversary {
    fn corrupt_round(
        &mut self,
        _ctx: RadioRoundCtx<'_, M>,
        _rng: &mut SmallRng,
    ) -> Vec<(NodeId, RadioAction<M>)> {
        Vec::new()
    }
}

/// Counters accumulated over a radio execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RadioStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Node-steps with an actual transmission.
    pub transmissions: u64,
    /// Clean receptions (exactly one transmitting neighbor, listener
    /// silent).
    pub receptions: u64,
    /// Listener-steps lost to collisions (two or more transmitting
    /// neighbors).
    pub collisions: u64,
    /// Node-steps in which the transmitter failed.
    pub faults: u64,
}

/// A synchronous radio network executing one [`RadioNode`] automaton per
/// graph node.
///
/// # Example
///
/// ```
/// use randcast_engine::radio::{RadioAction, RadioNetwork, RadioNode};
/// use randcast_engine::fault::FaultConfig;
/// use randcast_graph::generators;
///
/// /// Node 0 transmits every round; others listen.
/// struct Beacon {
///     id: usize,
///     heard: usize,
/// }
/// impl RadioNode for Beacon {
///     type Msg = u8;
///     fn act(&mut self, _round: usize) -> RadioAction<u8> {
///         if self.id == 0 {
///             RadioAction::Transmit(7)
///         } else {
///             RadioAction::Listen
///         }
///     }
///     fn recv(&mut self, _round: usize, heard: Option<u8>) {
///         if heard == Some(7) {
///             self.heard += 1;
///         }
///     }
/// }
///
/// let g = generators::star(4);
/// let mut net = RadioNetwork::new(&g, FaultConfig::fault_free(), 0, |v| Beacon {
///     id: v.index(),
///     heard: 0,
/// });
/// net.run(10);
/// // Only the star center (node 0's sole neighbor set) hears it cleanly…
/// // here node 0 *is* the center, so all leaves hear all 10 beacons.
/// for i in 1..=4 {
///     assert_eq!(net.node(g.node(i)).heard, 10);
/// }
/// ```
pub struct RadioNetwork<'g, P: RadioNode, A = SilentRadioAdversary> {
    graph: &'g Graph,
    nodes: Vec<P>,
    fault: FaultConfig,
    adversary: A,
    rng: SmallRng,
    round: usize,
    stats: RadioStats,
    // Reusable per-step buffers, cleared and refilled every round, so a
    // round allocates nothing beyond what the automata and the
    // adversary hand out. `actions` holds the intended actions until the
    // faults are resolved and the actual actions after.
    actions: Vec<RadioAction<P::Msg>>,
    fault_mask: Vec<bool>,
    faulty: Vec<NodeId>,
    // Per node: its transmitting neighbors this round, saturating at 2
    // (reset to 0 as the outcomes are reported), and the last of them,
    // which is the only one when the count is 1.
    tx_neighbors: Vec<u8>,
    last_sender: Vec<NodeId>,
}

impl<'g, P: RadioNode> RadioNetwork<'g, P, SilentRadioAdversary> {
    /// Creates a network with the default silent adversary.
    pub fn new<F>(graph: &'g Graph, fault: FaultConfig, seed: u64, factory: F) -> Self
    where
        F: FnMut(NodeId) -> P,
    {
        Self::with_adversary(graph, fault, SilentRadioAdversary, seed, factory)
    }
}

impl<'g, P: RadioNode, A: RadioAdversary<P::Msg>> RadioNetwork<'g, P, A> {
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
        RadioNetwork {
            graph,
            nodes,
            fault,
            adversary,
            rng: SmallRng::seed_from_u64(seed),
            round: 0,
            stats: RadioStats::default(),
            actions: Vec::with_capacity(n),
            fault_mask: Vec::with_capacity(n),
            faulty: Vec::new(),
            tx_neighbors: vec![0; n],
            last_sender: vec![NodeId::default(); n],
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
    pub fn stats(&self) -> RadioStats {
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
    /// Panics if the adversary returns an action for a non-faulty node.
    pub fn step(&mut self) {
        let n = self.graph.node_count();
        let round = self.round;

        // 1. Collect intended actions.
        self.actions.clear();
        for node in &mut self.nodes {
            self.actions.push(node.act(round));
        }

        // 2. Sample transmitter faults.
        self.fault
            .sample_step_into(n, &mut self.rng, &mut self.fault_mask);
        self.faulty.clear();
        self.faulty
            .extend((0..n).filter(|&i| self.fault_mask[i]).map(NodeId::new));
        self.stats.faults += self.faulty.len() as u64;

        // 3. Resolve actual actions of faulty transmitters. The adversary
        //    reads the intentions before anything changes, and its
        //    replacements are clamped against them. Only then is every
        //    faulty node silenced in place and the replacements written
        //    over it, in order, so the last one per node wins.
        let mut overrides = Vec::new();
        if self.fault.kind != FaultKind::Omission && !self.faulty.is_empty() {
            let ctx = RadioRoundCtx {
                round,
                graph: self.graph,
                faulty: &self.faulty,
                intended: &self.actions,
            };
            overrides = self.adversary.corrupt_round(ctx, &mut self.rng);
            for (v, action) in &mut overrides {
                assert!(
                    self.fault_mask[v.index()],
                    "adversary tried to control non-faulty node {v}"
                );
                if self.fault.kind == FaultKind::LimitedMalicious
                    && !self.actions[v.index()].is_transmit()
                {
                    *action = RadioAction::Listen; // cannot speak out of turn
                }
            }
        }
        for &v in &self.faulty {
            self.actions[v.index()] = RadioAction::Listen;
        }
        for (v, action) in overrides {
            self.actions[v.index()] = action;
        }

        // 4. Count receptions from the senders' side: each transmitter,
        //    in ascending order, bumps its neighbors' counts.
        let graph = self.graph;
        for (u, action) in self.actions.iter().enumerate() {
            if action.is_transmit() {
                self.stats.transmissions += 1;
                let u = NodeId::new(u);
                for v in graph.neighbors(u) {
                    let count = &mut self.tx_neighbors[v.index()];
                    *count = (*count + 1).min(2);
                    self.last_sender[v.index()] = u;
                }
            }
        }

        // 5. Report every node's outcome in node order: a silent node
        //    hears its unique transmitting neighbor, if any; collisions
        //    are silence, and a transmitter hears nothing.
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let count = std::mem::take(&mut self.tx_neighbors[i]);
            let heard = if self.actions[i].is_transmit() {
                None
            } else {
                match count {
                    0 => None,
                    1 => {
                        self.stats.receptions += 1;
                        self.actions[self.last_sender[i].index()].message().cloned()
                    }
                    _ => {
                        self.stats.collisions += 1;
                        None
                    }
                }
            };
            node.recv(round, heard);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FlipRadioAdversary, JamRadioAdversary, LieOrJamAdversary};
    use crate::trace::{TraceLog, Traced};
    use rand::Rng;
    use randcast_graph::generators;

    /// Transmits `msg` on rounds in `when`; records everything heard.
    struct Scripted {
        msg: u8,
        when: Vec<usize>,
        heard: Vec<(usize, Option<u8>)>,
    }

    impl Scripted {
        fn new(msg: u8, when: Vec<usize>) -> Self {
            Scripted {
                msg,
                when,
                heard: Vec::new(),
            }
        }
    }

    impl RadioNode for Scripted {
        type Msg = u8;
        fn act(&mut self, round: usize) -> RadioAction<u8> {
            if self.when.contains(&round) {
                RadioAction::Transmit(self.msg)
            } else {
                RadioAction::Listen
            }
        }
        fn recv(&mut self, round: usize, heard: Option<u8>) {
            self.heard.push((round, heard));
        }
    }

    #[test]
    fn single_transmitter_is_heard() {
        let g = generators::path(2); // 0 - 1 - 2
        let mut net = RadioNetwork::new(&g, FaultConfig::fault_free(), 0, |v| {
            Scripted::new(
                v.index() as u8,
                if v.index() == 0 { vec![0] } else { vec![] },
            )
        });
        net.step();
        assert_eq!(net.node(g.node(1)).heard, vec![(0, Some(0))]);
        assert_eq!(net.node(g.node(2)).heard, vec![(0, None)]); // not a neighbor
        assert_eq!(net.stats().receptions, 1);
    }

    #[test]
    fn collision_is_silence() {
        // 0 and 2 both transmit; 1 (adjacent to both) gets a collision.
        let g = generators::path(2);
        let mut net = RadioNetwork::new(&g, FaultConfig::fault_free(), 0, |v| {
            Scripted::new(
                v.index() as u8,
                if v.index() != 1 { vec![0] } else { vec![] },
            )
        });
        net.step();
        assert_eq!(net.node(g.node(1)).heard, vec![(0, None)]);
        assert_eq!(net.stats().collisions, 1);
    }

    #[test]
    fn transmitter_hears_nothing() {
        // 0 and 1 adjacent, both transmit: each hears nothing even though
        // the other is its unique transmitting neighbor.
        let g = generators::path(1);
        let mut net = RadioNetwork::new(&g, FaultConfig::fault_free(), 0, |v| {
            Scripted::new(v.index() as u8, vec![0])
        });
        net.step();
        assert_eq!(net.node(g.node(0)).heard, vec![(0, None)]);
        assert_eq!(net.node(g.node(1)).heard, vec![(0, None)]);
    }

    #[test]
    fn omission_silences_faulty_transmitter() {
        let g = generators::path(1);
        // p = 0.999…: effectively always faulty; receiver hears nothing.
        let mut net = RadioNetwork::new(&g, FaultConfig::omission(0.99), 1, |v| {
            Scripted::new(
                7,
                if v.index() == 0 {
                    (0..100).collect()
                } else {
                    vec![]
                },
            )
        });
        net.run(100);
        let heard_some = net
            .node(g.node(1))
            .heard
            .iter()
            .filter(|(_, h)| h.is_some())
            .count();
        // ~1% of 100 rounds succeed; allow generous slack but far below 100.
        assert!(heard_some < 20, "heard_some={heard_some}");
    }

    /// Adversary that makes every faulty node transmit garbage (jamming).
    struct Jammer;
    impl RadioAdversary<u8> for Jammer {
        fn corrupt_round(
            &mut self,
            ctx: RadioRoundCtx<'_, u8>,
            _rng: &mut SmallRng,
        ) -> Vec<(NodeId, RadioAction<u8>)> {
            ctx.faulty
                .iter()
                .map(|&v| (v, RadioAction::Transmit(255)))
                .collect()
        }
    }

    #[test]
    fn malicious_jamming_creates_collisions() {
        // Star: center 0 transmits each round; leaves 1..=3 listen. A
        // jamming leaf collides at the center's other... actually leaves
        // are only adjacent to the center, so a jamming leaf collides at
        // the *center* only. To create leaf-side collisions the jammer
        // must be the center — use path 0-1-2: 0 transmits to 1; jamming 2
        // collides at 1.
        let g = generators::path(2);
        let mut net =
            RadioNetwork::with_adversary(&g, FaultConfig::malicious(0.5), Jammer, 9, |v| {
                Scripted::new(
                    1,
                    if v.index() == 0 {
                        (0..200).collect()
                    } else {
                        vec![]
                    },
                )
            });
        net.run(200);
        assert!(
            net.stats().collisions > 10,
            "jammer should collide at node 1: {:?}",
            net.stats()
        );
        // Node 1 must sometimes hear garbage 255 directly (0 faulty+silent,
        // 2 jamming).
        let heard_garbage = net
            .node(g.node(1))
            .heard
            .iter()
            .any(|(_, h)| *h == Some(255));
        assert!(heard_garbage);
    }

    #[test]
    fn limited_malicious_cannot_jam_from_silence() {
        let g = generators::path(2);
        let mut net =
            RadioNetwork::with_adversary(&g, FaultConfig::limited_malicious(0.7), Jammer, 9, |v| {
                Scripted::new(
                    1,
                    if v.index() == 0 {
                        (0..100).collect()
                    } else {
                        vec![]
                    },
                )
            });
        net.run(100);
        // Node 2 never intended to transmit, so no collisions at node 1;
        // node 1's receptions are either Some(1) (0 clean) or Some(255)
        // (0 faulty, corrupted in-turn) or None (0 dropped).
        assert_eq!(net.stats().collisions, 0);
    }

    #[test]
    fn determinism_given_seed() {
        let g = generators::grid(3, 3);
        let run = |seed: u64| {
            let mut net = RadioNetwork::new(&g, FaultConfig::omission(0.3), seed, |v| {
                Scripted::new(v.index() as u8, vec![v.index()])
            });
            net.run(9);
            net.nodes().map(|s| s.heard.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn recv_called_every_round_for_every_node() {
        let g = generators::cycle(5);
        let mut net = RadioNetwork::new(&g, FaultConfig::fault_free(), 0, |_| {
            Scripted::new(0, vec![])
        });
        net.run(7);
        for v in g.nodes() {
            assert_eq!(net.node(v).heard.len(), 7);
        }
    }

    /// The step as first written, resolving receptions by scanning every
    /// listener's whole neighborhood over a fresh copy of the actions:
    /// the oracle for `step_matches_the_reference_step`. The body is
    /// kept as it was, except that the fault mask is drawn by
    /// `sample_step_into`, which draws the same coins.
    impl<P: RadioNode, A: RadioAdversary<P::Msg>> RadioNetwork<'_, P, A> {
        fn reference_step(&mut self) {
            let n = self.graph.node_count();
            let round = self.round;

            // 1. Collect intended actions.
            let intended: Vec<RadioAction<P::Msg>> =
                self.nodes.iter_mut().map(|p| p.act(round)).collect();

            // 2. Sample transmitter faults.
            let mut fault_mask = Vec::new();
            self.fault
                .sample_step_into(n, &mut self.rng, &mut fault_mask);
            let faulty: Vec<NodeId> = (0..n).filter(|&i| fault_mask[i]).map(NodeId::new).collect();
            self.stats.faults += faulty.len() as u64;

            // 3. Resolve actual actions of faulty transmitters.
            let mut actual = intended.clone();
            for &v in &faulty {
                actual[v.index()] = RadioAction::Listen;
            }
            if self.fault.kind != FaultKind::Omission && !faulty.is_empty() {
                let ctx = RadioRoundCtx {
                    round,
                    graph: self.graph,
                    faulty: &faulty,
                    intended: &intended,
                };
                let overrides = self.adversary.corrupt_round(ctx, &mut self.rng);
                for (v, action) in overrides {
                    assert!(
                        fault_mask[v.index()],
                        "adversary tried to control non-faulty node {v}"
                    );
                    let clamped = if self.fault.kind == FaultKind::LimitedMalicious
                        && !intended[v.index()].is_transmit()
                    {
                        RadioAction::Listen // cannot speak out of turn
                    } else {
                        action
                    };
                    actual[v.index()] = clamped;
                }
            }

            // 4. Resolve receptions: a silent node hears the unique
            //    transmitting neighbor, if any; collisions are silence.
            self.stats.transmissions += actual.iter().filter(|a| a.is_transmit()).count() as u64;
            let outcomes: Vec<Option<P::Msg>> = (0..n)
                .map(|i| {
                    if actual[i].is_transmit() {
                        return None; // a transmitter hears nothing
                    }
                    let v = NodeId::new(i);
                    let mut heard: Option<&P::Msg> = None;
                    let mut count = 0usize;
                    for u in self.graph.neighbors(v) {
                        if let RadioAction::Transmit(m) = &actual[u.index()] {
                            count += 1;
                            heard = Some(m);
                        }
                    }
                    match count {
                        1 => {
                            self.stats.receptions += 1;
                            heard.cloned()
                        }
                        0 => None,
                        _ => {
                            self.stats.collisions += 1;
                            None
                        }
                    }
                })
                .collect();

            for (i, heard) in outcomes.into_iter().enumerate() {
                self.nodes[i].recv(round, heard);
            }

            self.round += 1;
            self.stats.rounds += 1;
        }
    }

    /// Pseudo-random bits from three counters (a splitmix64 finalizer),
    /// so the test automata's choices depend on what they have heard.
    fn mix(a: usize, b: usize, c: usize) -> u64 {
        let mut x = ((a as u64) << 40) ^ ((b as u64) << 20) ^ c as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Even rounds have one scheduled speaker (as in Simple), odd rounds
    /// a history-dependent third of the nodes. Each clean reception is
    /// folded into the node's bit, which is what it transmits.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Relay {
        id: usize,
        n: usize,
        bit: bool,
        heard: Vec<Option<bool>>,
    }

    impl RadioNode for Relay {
        type Msg = bool;
        fn act(&mut self, round: usize) -> RadioAction<bool> {
            let receptions = self.heard.iter().flatten().count();
            let speaks = if round.is_multiple_of(2) {
                (round / 2) % self.n == self.id
            } else {
                mix(self.id, round, receptions).is_multiple_of(3)
            };
            if speaks {
                RadioAction::Transmit(self.bit)
            } else {
                RadioAction::Listen
            }
        }
        fn recv(&mut self, _round: usize, heard: Option<bool>) {
            if let Some(b) = heard {
                self.bit ^= b;
            }
            self.heard.push(heard);
        }
    }

    /// Replaces every faulty node twice, in descending node order: first
    /// with silence, then with a random bit. The second one must win.
    #[derive(Clone)]
    struct Twice;
    impl RadioAdversary<bool> for Twice {
        fn corrupt_round(
            &mut self,
            ctx: RadioRoundCtx<'_, bool>,
            rng: &mut SmallRng,
        ) -> Vec<(NodeId, RadioAction<bool>)> {
            ctx.faulty
                .iter()
                .rev()
                .flat_map(|&v| {
                    let bit = rng.gen_bool(0.5);
                    [(v, RadioAction::Listen), (v, RadioAction::Transmit(bit))]
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
    /// stats, the traced act/recv log and every automaton's final state.
    fn assert_matches_reference<A: RadioAdversary<bool> + Clone>(
        g: &Graph,
        fault: FaultConfig,
        adversary: A,
        seed: u64,
    ) {
        let run = |reference: bool| {
            let log = TraceLog::new();
            let mut net = RadioNetwork::with_adversary(g, fault, adversary.clone(), seed, |v| {
                let relay = Relay {
                    id: v.index(),
                    n: g.node_count(),
                    bit: v.index() == 0,
                    heard: Vec::new(),
                };
                Traced::new(v, relay, log.clone())
            });
            for _ in 0..24 {
                if reference {
                    net.reference_step();
                } else {
                    net.step();
                }
            }
            let states: Vec<Relay> = net.nodes().map(|t| t.inner().clone()).collect();
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
                0 => assert_matches_reference(&g, fault, SilentRadioAdversary, seed),
                1 => assert_matches_reference(&g, fault, JamRadioAdversary::new(true), seed),
                2 => assert_matches_reference(&g, fault, LieOrJamAdversary::new(true), seed),
                3 => assert_matches_reference(&g, fault, FlipRadioAdversary, seed),
                _ => assert_matches_reference(&g, fault, Twice, seed),
            }
        }
    }
}
