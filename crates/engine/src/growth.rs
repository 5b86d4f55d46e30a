//! The growth record of the two round-by-round fast kernels, flooding
//! ([`crate::flood_fast`]) and Decay ([`crate::radio_fast`]): which
//! nodes end up informed, how many by the end of each round, and the
//! round the broadcast completed and first reached an almost-complete
//! (`≥ n − 1`) set — Pelc and Peleg's broadcast time and the
//! almost-complete time of rapid almost-complete broadcasting
//! (Královič & Královič).
//!
//! [`GrowthOutcome`] is one trial's record and [`GrowthBatch`] a 64-lane
//! block's. A batch records the round at which each lane's replay
//! stopped — completion, Decay's participant exhaustion, flood reaching
//! its source component, or the last round the block executed — and
//! [`GrowthBatch::lane_outcome`] cuts every lane's curve there, so a
//! lane view is byte-identical to the lane replay of the same block
//! seed and lane. Under a corrupted-value model (`Flip` / `Lie`) the
//! informed set is the set of *correctly* informed nodes.

use randcast_graph::NodeId;

use crate::kernel::{BatchedInformedSet, InformedSet, LaneCounter, LaneMask, LANES};

/// Outcome of one fast-path flood or Decay trial: the informed set, its
/// growth curve, and derived completion metrics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GrowthOutcome {
    n: usize,
    horizon: usize,
    informed: InformedSet,
    /// `informed_by_round[r]` = nodes informed by the end of round `r`
    /// (`[0] == 1`, the source). The run stops early once nothing can
    /// change, so the vector may be shorter than `horizon + 1`; counts
    /// are constant from its last entry onward.
    informed_by_round: Vec<usize>,
}

impl GrowthOutcome {
    /// A trial's record from its final informed set and the informed
    /// count after each executed round.
    pub(crate) fn new(
        n: usize,
        horizon: usize,
        informed: InformedSet,
        informed_by_round: Vec<usize>,
    ) -> Self {
        GrowthOutcome {
            n,
            horizon,
            informed,
            informed_by_round,
        }
    }

    /// Number of nodes in the graph.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The horizon the plan was allowed to run.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Whether every node (not just the source's component) was
    /// informed within the horizon.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.completion_round().is_some()
    }

    /// The round by which the last node was informed, `None` if the
    /// broadcast never completed (too few rounds, or the graph is
    /// disconnected from the source).
    #[must_use]
    pub fn completion_round(&self) -> Option<usize> {
        self.round_reaching(self.n)
    }

    /// Number of informed nodes at the end of the run.
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed.count()
    }

    /// Informed fraction `informed / n` at the end of the run.
    #[must_use]
    pub fn informed_fraction(&self) -> f64 {
        self.informed.count() as f64 / self.n as f64
    }

    /// Whether node `v` ended the run informed.
    #[must_use]
    pub fn is_informed(&self, v: NodeId) -> bool {
        self.informed.contains(u32::from(v))
    }

    /// The per-round cumulative informed counts (see the field docs).
    #[must_use]
    pub fn informed_by_round(&self) -> &[usize] {
        &self.informed_by_round
    }

    /// The first round by which at least `count` nodes were informed.
    #[must_use]
    pub fn round_reaching(&self, count: usize) -> Option<usize> {
        self.informed_by_round.iter().position(|&c| c >= count)
    }

    /// The first round by which an *almost-complete* set — at least
    /// `⌈(1 − 1/n)·n⌉ = n − 1` nodes — was informed; the metric of the
    /// rapid almost-complete broadcasting regime.
    #[must_use]
    pub fn almost_complete_round(&self) -> Option<usize> {
        self.round_reaching(self.n.saturating_sub(1).max(1))
    }
}

/// How a batch stores the per-lane growth curves, as `width`-word
/// bit-plane chunks.
#[derive(Clone, PartialEq, Debug)]
enum Curve {
    /// A round-by-round pass: chunk `r` holds the per-lane informed
    /// counts after round `r + 1`.
    Counts { width: usize, planes: Vec<u64> },
    /// The round-free tree pass: chunk `v` holds node `v`'s per-lane
    /// inform round (`horizon + 1` = never informed).
    Schedule { width: usize, planes: Vec<u64> },
}

/// Outcome of one 64-lane flood or Decay block. Lane `k`'s views are
/// byte-identical to the lane replay of the same block seed and lane;
/// for a lane outside the live mask of a masked block they are
/// unspecified.
#[derive(Clone, PartialEq, Debug)]
pub struct GrowthBatch {
    horizon: usize,
    informed: BatchedInformedSet,
    completion_round: Vec<Option<usize>>,
    almost_round: Vec<Option<usize>>,
    /// The rounds each lane's replay executed: the last index of its
    /// growth curve.
    stop_round: Vec<usize>,
    curve: Curve,
}

impl GrowthBatch {
    /// A batch of the round-free tree pass, from each node's per-lane
    /// inform round (`horizon + 1` = never) in `width`-plane chunks.
    pub(crate) fn from_schedule(
        informed: BatchedInformedSet,
        horizon: usize,
        completion_round: Vec<Option<usize>>,
        almost_round: Vec<Option<usize>>,
        stop_round: Vec<usize>,
        width: usize,
        planes: Vec<u64>,
    ) -> Self {
        GrowthBatch {
            horizon,
            informed,
            completion_round,
            almost_round,
            stop_round,
            curve: Curve::Schedule { width, planes },
        }
    }

    /// Number of nodes in the graph.
    #[must_use]
    pub fn n(&self) -> usize {
        self.informed.n()
    }

    /// Lane `k`'s completion round (`None` if that trial never
    /// completed).
    #[must_use]
    pub fn completion_round(&self, lane: u32) -> Option<usize> {
        self.completion_round[lane as usize]
    }

    /// Lane `k`'s first round with an almost-complete (`≥ n − 1`)
    /// informed set.
    #[must_use]
    pub fn almost_complete_round(&self, lane: u32) -> Option<usize> {
        self.almost_round[lane as usize]
    }

    /// Lane `k`'s final informed count.
    #[must_use]
    pub fn informed_count(&self, lane: u32) -> usize {
        self.informed.count(lane)
    }

    /// Lane `k`'s final informed fraction.
    #[must_use]
    pub fn informed_fraction(&self, lane: u32) -> f64 {
        self.informed.count(lane) as f64 / self.n() as f64
    }

    /// The lanes in which node `v` ended informed (correctly informed
    /// under `Flip` / `Lie`).
    #[must_use]
    pub fn lanes(&self, v: u32) -> LaneMask {
        self.informed.lanes(v)
    }

    /// Reconstructs lane `k`'s full outcome, its curve cut at the
    /// lane's recorded stop round.
    #[must_use]
    pub fn lane_outcome(&self, lane: u32) -> GrowthOutcome {
        let n = self.n();
        let mut informed = InformedSet::new(n);
        for v in 0..n as u32 {
            if self.informed.lane_contains(v, lane) {
                informed.insert(v);
            }
        }
        let last = self.stop_round[lane as usize];
        let informed_by_round = match &self.curve {
            Curve::Counts { width, planes } => {
                let mut curve = Vec::with_capacity(last + 1);
                curve.push(1);
                curve.extend(
                    planes
                        .chunks_exact(*width)
                        .take(last)
                        .map(|counts| LaneCounter::get_in(counts, lane) as usize),
                );
                curve
            }
            Curve::Schedule { width, planes } => counting_curve(
                planes
                    .chunks_exact(*width)
                    .map(|s| LaneCounter::get_in(s, lane) as usize),
                last,
            ),
        };
        GrowthOutcome::new(n, self.horizon, informed, informed_by_round)
    }
}

/// One lane's growth curve through round `last`, by counting sort of
/// its nodes' inform rounds: entry `r` counts the rounds `≤ r`. Every
/// informed node's round is `≤ last` (the lane's stop round); larger
/// rounds mark nodes never informed and are skipped.
pub(crate) fn counting_curve(rounds: impl IntoIterator<Item = usize>, last: usize) -> Vec<usize> {
    let mut curve = vec![0usize; last + 1];
    for r in rounds {
        if r <= last {
            curve[r] += 1;
        }
    }
    for r in 1..=last {
        curve[r] += curve[r - 1];
    }
    curve
}

/// Records `round` as the crossing round for every lane set in `mask`.
#[inline]
fn record_crossings(mask: LaneMask, round: usize, rounds: &mut [Option<usize>]) {
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        rounds[lane] = Some(round);
        m &= m - 1;
    }
}

/// The per-lane round record of a 64-lane pass that advances round by
/// round: each lane's completion (count `= n`) and almost-complete
/// (count `≥ n − 1`) crossing rounds, the round at which each lane's
/// replay stopped, and one snapshot of the count planes per executed
/// round, from which a lane's growth curve is rebuilt.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct LaneRounds {
    n: usize,
    almost_done: LaneMask,
    stopped: LaneMask,
    completion_round: Vec<Option<usize>>,
    almost_round: Vec<Option<usize>>,
    stop_round: Vec<usize>,
    /// Words per count snapshot.
    plane_width: usize,
    /// `executed × plane_width` words: the per-lane counts after each
    /// executed round.
    count_arena: Vec<u64>,
    executed: usize,
}

impl LaneRounds {
    /// The record of `n` nodes before round 1: a lone node is complete
    /// (and so stopped), and with `n ≤ 2` the source alone is
    /// almost-complete, at round 0.
    pub(crate) fn new(n: usize) -> Self {
        let mut rounds = LaneRounds {
            n,
            almost_done: 0,
            stopped: 0,
            completion_round: vec![None; LANES],
            almost_round: vec![None; LANES],
            stop_round: vec![0; LANES],
            plane_width: (usize::BITS - n.leading_zeros()) as usize,
            count_arena: Vec::new(),
            executed: 0,
        };
        if n == 1 {
            rounds.stopped = !0;
            rounds.completion_round.fill(Some(0));
        }
        if n <= 2 {
            rounds.almost_done = !0;
            rounds.almost_round.fill(Some(0));
        }
        rounds
    }

    /// The lanes whose replay still executes rounds.
    pub(crate) fn live(&self) -> LaneMask {
        !self.stopped
    }

    /// Stops the live lanes of `lanes` after the rounds executed so far.
    pub(crate) fn stop(&mut self, lanes: LaneMask) {
        let mut m = lanes & !self.stopped;
        while m != 0 {
            self.stop_round[m.trailing_zeros() as usize] = self.executed;
            m &= m - 1;
        }
        self.stopped |= lanes;
    }

    /// Ends executed round `round`: snapshots `counts` and, when
    /// `changed` (a count moved this round), records the lanes whose
    /// count first reached `n` or `n − 1`. A lane that completes stops.
    pub(crate) fn end_round(&mut self, counts: &LaneCounter, round: usize, changed: bool) {
        self.executed += 1;
        self.count_arena.extend_from_slice(counts.planes());
        self.count_arena.resize(self.executed * self.plane_width, 0);
        if !changed {
            return;
        }
        let comp = counts.eq_mask(self.n as u64) & !self.stopped;
        record_crossings(comp, round, &mut self.completion_round);
        self.stop(comp);
        if self.almost_done != !0 {
            let target = self.n.saturating_sub(1).max(1) as u64;
            let almost = counts.ge_mask(target) & !self.almost_done;
            record_crossings(almost, round, &mut self.almost_round);
            self.almost_done |= almost;
        }
    }

    /// The block's batch: lanes still live stop at the last executed
    /// round.
    pub(crate) fn into_batch(
        mut self,
        informed: BatchedInformedSet,
        horizon: usize,
    ) -> GrowthBatch {
        self.stop(!0);
        GrowthBatch {
            horizon,
            informed,
            completion_round: self.completion_round,
            almost_round: self.almost_round,
            stop_round: self.stop_round,
            curve: Curve::Counts {
                width: self.plane_width,
                planes: self.count_arena,
            },
        }
    }
}
