//! Fault-free radio broadcast schedules (the paper's `opt` benchmark).
//!
//! A schedule lists, for each round, the set of nodes that transmit. In
//! the fault-free radio model a node hears a message iff it is silent and
//! exactly one of its neighbors transmits; the schedule *completes* if
//! every node ends up informed. The optimal fault-free broadcast time
//! `opt` is the natural complexity benchmark for almost-safe radio
//! broadcasting (Section 3).
//!
//! Provided here:
//!
//! * [`RadioSchedule`] — representation, fault-free simulation,
//!   validation, and schedule "parents" (who informs whom — needed by the
//!   robust expansion of Theorem 3.4);
//! * [`greedy_schedule`] — a layered greedy set-cover scheduler (upper
//!   bound on `opt` for arbitrary graphs);
//! * [`path_schedule`] — the exact `D`-round schedule for lines;
//! * [`optimal_broadcast_time`] / [`optimal_schedule`] — brute-force exact
//!   optimum for tiny graphs, used to certify Lemma 3.3 exhaustively.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use randcast_graph::{traversal, Graph, NodeId};

/// Why a schedule failed validation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScheduleError {
    /// A scheduled transmitter had not yet received the message.
    UninformedTransmitter {
        /// The round of the violation.
        round: usize,
        /// The offending node.
        node: NodeId,
    },
    /// The schedule ends with some nodes still uninformed.
    Incomplete {
        /// Number of uninformed nodes at the end.
        uninformed: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UninformedTransmitter { round, node } => {
                write!(f, "round {round}: transmitter {node} is uninformed")
            }
            ScheduleError::Incomplete { uninformed } => {
                write!(f, "schedule leaves {uninformed} nodes uninformed")
            }
        }
    }
}

impl Error for ScheduleError {}

/// A fault-free radio broadcast schedule: `rounds[t]` is the set of nodes
/// transmitting in round `t`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RadioSchedule {
    rounds: Vec<Vec<NodeId>>,
}

impl RadioSchedule {
    /// Wraps round transmitter sets (each set is deduplicated and
    /// sorted).
    #[must_use]
    pub fn new(rounds: Vec<Vec<NodeId>>) -> Self {
        let rounds = rounds
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        RadioSchedule { rounds }
    }

    /// Number of rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the schedule has no rounds.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The transmitter sets.
    #[must_use]
    pub fn rounds(&self) -> &[Vec<NodeId>] {
        &self.rounds
    }

    /// Fault-free simulation: returns, for each node, the round after
    /// which it became informed (`Some(0)` for the source = before round
    /// 0; `Some(t+1)` = informed by hearing in round `t`; `None` = never).
    ///
    /// An *uninformed* scheduled transmitter still occupies the channel
    /// (it transmits junk), so it causes collisions but informs nobody.
    #[must_use]
    pub fn simulate(&self, graph: &Graph, source: NodeId) -> Vec<Option<usize>> {
        let n = graph.node_count();
        let mut informed_at = vec![None; n];
        informed_at[source.index()] = Some(0);
        for (t, set) in self.rounds.iter().enumerate() {
            let mut transmitting = vec![false; n];
            for &u in set {
                transmitting[u.index()] = true;
            }
            let mut newly = Vec::new();
            for v in graph.nodes() {
                if transmitting[v.index()] || informed_at[v.index()].is_some() {
                    continue;
                }
                let heard: Vec<NodeId> = graph
                    .neighbors(v)
                    .filter(|u| transmitting[u.index()])
                    .collect();
                if heard.len() == 1 && informed_at[heard[0].index()].is_some() {
                    newly.push(v);
                }
            }
            for v in newly {
                informed_at[v.index()] = Some(t + 1);
            }
        }
        informed_at
    }

    /// Whether the schedule informs every node.
    #[must_use]
    pub fn completes(&self, graph: &Graph, source: NodeId) -> bool {
        self.simulate(graph, source).iter().all(Option::is_some)
    }

    /// Validates that every scheduled transmitter is informed when it
    /// speaks and that the schedule completes.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScheduleError`] encountered.
    pub fn validate(&self, graph: &Graph, source: NodeId) -> Result<(), ScheduleError> {
        let n = graph.node_count();
        let mut informed = vec![false; n];
        informed[source.index()] = true;
        for (t, set) in self.rounds.iter().enumerate() {
            for &u in set {
                if !informed[u.index()] {
                    return Err(ScheduleError::UninformedTransmitter { round: t, node: u });
                }
            }
            let mut transmitting = vec![false; n];
            for &u in set {
                transmitting[u.index()] = true;
            }
            let mut newly = Vec::new();
            for v in graph.nodes() {
                if transmitting[v.index()] || informed[v.index()] {
                    continue;
                }
                let count = graph
                    .neighbors(v)
                    .filter(|u| transmitting[u.index()])
                    .count();
                if count == 1 {
                    newly.push(v);
                }
            }
            for v in newly {
                informed[v.index()] = true;
            }
        }
        let uninformed = informed.iter().filter(|&&b| !b).count();
        if uninformed > 0 {
            return Err(ScheduleError::Incomplete { uninformed });
        }
        Ok(())
    }

    /// For each node, the `(round, sender)` of its first clean reception
    /// in the fault-free execution — the "`p(v)` gets the message from" map
    /// used by `Omission-Radio` / `Malicious-Radio` (Theorem 3.4).
    /// The source maps to `None`.
    #[must_use]
    pub fn reception_map(&self, graph: &Graph, source: NodeId) -> Vec<Option<(usize, NodeId)>> {
        let n = graph.node_count();
        let mut informed = vec![false; n];
        let mut first = vec![None; n];
        informed[source.index()] = true;
        for (t, set) in self.rounds.iter().enumerate() {
            let mut transmitting = vec![false; n];
            for &u in set {
                transmitting[u.index()] = true;
            }
            let mut newly = Vec::new();
            for v in graph.nodes() {
                if transmitting[v.index()] || informed[v.index()] {
                    continue;
                }
                let heard: Vec<NodeId> = graph
                    .neighbors(v)
                    .filter(|u| transmitting[u.index()])
                    .collect();
                if heard.len() == 1 && informed[heard[0].index()] {
                    newly.push((v, t, heard[0]));
                }
            }
            for (v, t, u) in newly {
                informed[v.index()] = true;
                first[v.index()] = Some((t, u));
            }
        }
        first
    }
}

/// Layered greedy scheduler: processes BFS layers outward; within a
/// layer-to-layer step it repeatedly schedules rounds, greedily packing
/// compatible transmitters (adding a transmitter only if it increases the
/// number of cleanly covered nodes).
///
/// The result is always a valid, complete schedule; its length upper
/// bounds `opt`.
///
/// # Panics
///
/// Panics if the graph is disconnected from `source`.
#[must_use]
pub fn greedy_schedule(graph: &Graph, source: NodeId) -> RadioSchedule {
    let layers = traversal::bfs_layers(graph, source);
    let n = graph.node_count();
    let mut rounds: Vec<Vec<NodeId>> = Vec::new();
    let mut covered = vec![false; n];
    covered[source.index()] = true;
    for d in 0..layers.len().saturating_sub(1) {
        let senders = &layers[d];
        let mut uncovered: Vec<NodeId> = layers[d + 1].clone();
        while !uncovered.is_empty() {
            // Build one round greedily.
            let mut round: Vec<NodeId> = Vec::new();
            let clean_cover = |round: &[NodeId]| -> usize {
                uncovered
                    .iter()
                    .filter(|v| graph.neighbors(**v).filter(|u| round.contains(u)).count() == 1)
                    .count()
            };
            // Candidates sorted by raw coverage, descending (ties by id).
            let mut candidates: Vec<NodeId> = senders
                .iter()
                .copied()
                .filter(|u| graph.neighbors(*u).any(|v| uncovered.contains(&v)))
                .collect();
            candidates.sort_by_key(|u| {
                let cov = graph
                    .neighbors(*u)
                    .filter(|v| uncovered.contains(v))
                    .count();
                (usize::MAX - cov, u.index())
            });
            let mut best = 0usize;
            for u in candidates {
                round.push(u);
                let score = clean_cover(&round);
                if score > best {
                    best = score;
                } else {
                    round.pop();
                }
            }
            debug_assert!(best > 0, "greedy round must cover something");
            let newly: Vec<NodeId> = uncovered
                .iter()
                .copied()
                .filter(|v| graph.neighbors(*v).filter(|u| round.contains(u)).count() == 1)
                .collect();
            for v in &newly {
                covered[v.index()] = true;
            }
            uncovered.retain(|v| !covered[v.index()]);
            rounds.push(round);
        }
    }
    RadioSchedule::new(rounds)
}

/// The exact optimal schedule for a path of `len` edges with the source
/// at position 0: node `t` transmits in round `t` (`opt = len`).
#[must_use]
pub fn path_schedule(len: usize) -> RadioSchedule {
    RadioSchedule::new((0..len).map(|t| vec![NodeId::new(t)]).collect())
}

/// Brute-force optimal fault-free broadcast time by breadth-first search
/// over informed-set states, trying every subset of "useful" informed
/// nodes each round.
///
/// Returns `None` if no schedule of length `≤ max_rounds` completes.
///
/// # Panics
///
/// Panics if the graph has more than 20 nodes (state space is `2^n`).
#[must_use]
pub fn optimal_broadcast_time(graph: &Graph, source: NodeId, max_rounds: usize) -> Option<usize> {
    optimal_schedule(graph, source, max_rounds).map(|s| s.len())
}

/// Brute-force optimal schedule (see [`optimal_broadcast_time`]).
///
/// # Panics
///
/// Panics if the graph has more than 20 nodes.
#[must_use]
pub fn optimal_schedule(graph: &Graph, source: NodeId, max_rounds: usize) -> Option<RadioSchedule> {
    let n = graph.node_count();
    assert!(n <= 20, "brute force limited to 20 nodes");
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let start: u32 = 1 << source.index();

    // Precompute neighbor masks.
    let nbr: Vec<u32> = (0..n)
        .map(|i| {
            graph
                .neighbors(NodeId::new(i))
                .fold(0u32, |acc, v| acc | (1 << v.index()))
        })
        .collect();

    // One fault-free round: informed mask + transmitter mask -> new mask.
    let apply = |informed: u32, tx: u32| -> u32 {
        let mut out = informed;
        for (v, mask) in nbr.iter().enumerate() {
            let bit = 1u32 << v;
            if informed & bit != 0 || tx & bit != 0 {
                continue;
            }
            if (mask & tx).count_ones() == 1 {
                out |= bit;
            }
        }
        out
    };

    // BFS over states; parent pointers reconstruct the schedule.
    let mut dist: HashMap<u32, usize> = HashMap::new();
    let mut parent: HashMap<u32, (u32, u32)> = HashMap::new(); // state -> (prev, tx)
    let mut frontier = vec![start];
    dist.insert(start, 0);
    if start == full {
        return Some(RadioSchedule::new(Vec::new()));
    }
    for round in 0..max_rounds {
        let mut next_frontier = Vec::new();
        for &state in &frontier {
            // Useful transmitters: informed nodes with uninformed
            // neighbors.
            let useful: Vec<usize> = (0..n)
                .filter(|&v| state & (1 << v) != 0 && nbr[v] & !state & full != 0)
                .collect();
            let k = useful.len();
            for subset in 1u32..(1 << k) {
                let tx = useful
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| subset & (1 << j) != 0)
                    .fold(0u32, |acc, (_, &v)| acc | (1 << v));
                let new_state = apply(state, tx);
                if new_state == state || dist.contains_key(&new_state) {
                    continue;
                }
                dist.insert(new_state, round + 1);
                parent.insert(new_state, (state, tx));
                if new_state == full {
                    // Reconstruct.
                    let mut sched = Vec::new();
                    let mut cur = full;
                    while cur != start {
                        let (prev, tx) = parent[&cur];
                        sched.push(
                            (0..n)
                                .filter(|&v| tx & (1 << v) != 0)
                                .map(NodeId::new)
                                .collect(),
                        );
                        cur = prev;
                    }
                    sched.reverse();
                    return Some(RadioSchedule::new(sched));
                }
                next_frontier.push(new_state);
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_graph::generators;

    #[test]
    fn path_schedule_is_valid_and_tight() {
        let g = generators::path(5);
        let s = path_schedule(5);
        assert_eq!(s.len(), 5);
        s.validate(&g, g.node(0)).unwrap();
        // And it is optimal: distance-5 node needs 5 rounds.
        assert_eq!(optimal_broadcast_time(&g, g.node(0), 8), Some(5));
    }

    #[test]
    fn simulate_reports_informing_rounds() {
        let g = generators::path(3);
        let s = path_schedule(3);
        let at = s.simulate(&g, g.node(0));
        assert_eq!(at, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn collision_blocks_information() {
        // Path 0-1-2-3; schedule both 0 and 2 in round 0: node 1 gets a
        // collision (0 and 2 both neighbors), node 3 hears 2 — but 2 is
        // uninformed, so nothing is learned there either.
        let g = generators::path(3);
        let s = RadioSchedule::new(vec![vec![g.node(0), g.node(2)]]);
        let at = s.simulate(&g, g.node(0));
        assert_eq!(at[1], None);
        assert_eq!(at[3], None);
    }

    #[test]
    fn validate_rejects_uninformed_transmitter() {
        let g = generators::path(2);
        let s = RadioSchedule::new(vec![vec![g.node(2)]]);
        assert_eq!(
            s.validate(&g, g.node(0)),
            Err(ScheduleError::UninformedTransmitter {
                round: 0,
                node: g.node(2)
            })
        );
    }

    #[test]
    fn validate_rejects_incomplete() {
        let g = generators::path(2);
        let s = RadioSchedule::new(vec![vec![g.node(0)]]);
        assert_eq!(
            s.validate(&g, g.node(0)),
            Err(ScheduleError::Incomplete { uninformed: 1 })
        );
    }

    #[test]
    fn reception_map_names_parents() {
        let g = generators::path(3);
        let s = path_schedule(3);
        let map = s.reception_map(&g, g.node(0));
        assert_eq!(map[0], None);
        assert_eq!(map[1], Some((0, g.node(0))));
        assert_eq!(map[2], Some((1, g.node(1))));
        assert_eq!(map[3], Some((2, g.node(2))));
    }

    #[test]
    fn greedy_schedule_valid_on_families() {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let graphs = vec![
            generators::path(6),
            generators::star(5),
            generators::grid(3, 4),
            generators::balanced_tree(2, 3),
            generators::lower_bound_graph(3),
            generators::random_tree(20, &mut rng),
        ];
        for g in &graphs {
            let s = greedy_schedule(g, g.node(0));
            s.validate(g, g.node(0))
                .unwrap_or_else(|e| panic!("greedy invalid: {e}"));
        }
    }

    #[test]
    fn greedy_on_star_takes_one_round_from_center() {
        let g = generators::star(6);
        let s = greedy_schedule(&g, g.node(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn brute_force_matches_known_optimum_on_star_leaf_source() {
        // Source = leaf: round 0 leaf -> center, round 1 center -> leaves.
        let g = generators::star(4);
        assert_eq!(optimal_broadcast_time(&g, g.node(1), 4), Some(2));
    }

    #[test]
    fn brute_force_respects_cap() {
        let g = generators::path(6);
        assert_eq!(optimal_broadcast_time(&g, g.node(0), 3), None);
    }

    #[test]
    fn greedy_never_beats_brute_force() {
        let graphs = vec![
            generators::path(4),
            generators::cycle(6),
            generators::star(4),
            generators::grid(2, 4),
        ];
        for g in &graphs {
            let greedy = greedy_schedule(g, g.node(0)).len();
            let opt = optimal_broadcast_time(g, g.node(0), greedy).expect("opt within greedy len");
            assert!(opt <= greedy);
        }
    }

    #[test]
    fn empty_schedule_on_single_node() {
        let g = generators::path(0);
        let s = greedy_schedule(&g, g.node(0));
        assert!(s.is_empty());
        s.validate(&g, g.node(0)).unwrap();
        assert_eq!(optimal_broadcast_time(&g, g.node(0), 0), Some(0));
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::Incomplete { uninformed: 3 };
        assert!(e.to_string().contains('3'));
    }
}
