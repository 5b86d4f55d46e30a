//! A specialized large-`n` fast path for flooding under independent
//! per-(node, step) transmitter faults.
//!
//! The general [`MpNetwork`](crate::mp::MpNetwork) engine pays for its
//! generality on every round: per-node automaton dispatch, intention
//! buffers, and one fault coin for *all* `n` nodes whether or not they
//! have anything to say. Flooding needs none of that — a node's whole
//! behavior is "once informed, transmit to my targets every round until
//! they are all informed", and a round's outcome depends only on which
//! *frontier* transmitters succeed. [`FastFlood`] exploits this on the
//! shared [`kernel`](crate::kernel) substrate:
//!
//! * the informed set is a word-level
//!   [`InformedSet`] bitmask,
//! * transmission targets are the flat `u32` CSR arrays of a
//!   [`Graph`] (the graph's adjacency, or its
//!   [`bfs_tree`](Graph::bfs_tree) child lists for the paper's
//!   tree-flooding variant), held as an in-RAM [`ShardStore`] — the
//!   engine builds no adjacency of its own,
//! * fault sampling is the aggregate
//!   [`FaultSampler`]: one Bernoulli coin
//!   per *frontier* node per round, or a geometric skip between
//!   successful transmitters when `p > 0.75`,
//! * a transmitter leaves the frontier the moment it can no longer
//!   inform anyone, and the run stops as soon as nothing can change.
//!
//! The sampled process is *statistically identical* to running the
//! flooding automaton on `MpNetwork` with omission faults (or any fault
//! kind under the silent adversary): each round, each informed node's
//! transmitter works independently with probability `1 − p`, and a
//! working transmitter informs all of its targets. Only the RNG stream
//! differs, so per-seed outcomes differ while every distribution
//! matches — `crates/core/tests/flood_equivalence.rs` pins this.
//!
//! The seeded scalar-lane and 64-lane frontier passes are written once,
//! against [`ShardStore`]: [`FastFlood`] runs them over its in-RAM store
//! (one shard, or `k` node-range shards — outcome-neutral), and
//! [`ShardedFlood`] runs the same passes over any store, disk segments
//! included — the `n = 10⁸` path. Both passes are parametric in a
//! [`FaultModel`]: `Silent` models (i.i.d.
//! omission, throttled mixtures, worst-case placement) supply the
//! per-site suppression masks, and the plain-`p` entry points are the
//! [`Omission`] instance. Corrupted-*value*
//! models (`Flip` / `Lie`, the paper's malicious transmitters) run a
//! deterministic-timing value pass instead: every delivery succeeds,
//! node `v` is informed at its BFS depth, and the outcome tracks which
//! nodes end up *correctly* informed.
//!
//! Unlike the general engine, the fast path is **defined on graphs that
//! are disconnected from the source**: it floods the source's component
//! and reports the informed *fraction* and the time to reach an
//! almost-complete (`1 − 1/n`) informed set, the regime of rapid
//! almost-complete broadcasting. A single trial at `n = 10⁵`, average
//! degree 8, `p = 0.3` runs in well under a second in release mode.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_graph::shard::{PassLoader, RamShards, ShardError, ShardPlan, ShardStore};
use randcast_graph::{Graph, NodeId};

use crate::kernel::{
    lane_popcounts, planes_add_one_masked, planes_assign, planes_eq_mask, planes_gt_mask,
    planes_le_mask, BatchedInformedSet, CorruptionKind, FaultModel, FaultSampler, FaultTapes,
    InformedSet, LaneCounter, LaneMask, LaneRounds, Omission, ShardFrontier, LANES,
};

/// The fault-coin site of `(node, index)`: the index (a 1-based round
/// for the graph-variant passes, a 0-based attempt number for the
/// tree variant) and a `u32` node id pack losslessly into one `u64`.
fn fault_site(index: usize, v: u32) -> u64 {
    (index as u64) << 32 | u64::from(v)
}

/// Which edges carry the fast flood (mirrors
/// `randcast_core::flood::FloodVariant` without the crate dependency).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FastFloodVariant {
    /// Transmit only to BFS-spanning-tree children (the paper's
    /// analyzed algorithm; children are computed on the source's
    /// component only, so disconnected graphs are fine).
    Tree,
    /// Transmit to all neighbors (dominates tree flooding).
    Graph,
}

/// A compiled fast-path flooding plan: the transmission targets as an
/// in-RAM [`ShardStore`] plus a horizon. The target arrays come straight
/// from the [`Graph`] / [`CsrTree`](randcast_graph::CsrTree)
/// substrate.
pub struct FastFlood {
    /// The store-backed frontier passes over the transmission targets.
    passes: ShardedFlood,
    variant: FastFloodVariant,
    /// Nodes reachable from the source along transmission targets, in
    /// BFS order (parents before children) — computed once at plan
    /// build so every batched block reuses it.
    order: Vec<u32>,
}

impl FastFlood {
    /// Compiles a plan transmitting along the given variant's edges for
    /// `horizon` rounds. A `horizon` of 0 is allowed (the run reports
    /// only the source informed); a graph disconnected from `source` is
    /// allowed (the flood covers the source's component). The
    /// [`FastFloodVariant::Graph`] plan copies the graph's CSR arrays
    /// into a one-shard store; the tree variant builds its BFS child
    /// lists straight from the borrowed graph.
    #[must_use]
    pub fn new(graph: &Graph, source: NodeId, horizon: usize, variant: FastFloodVariant) -> Self {
        let n = graph.node_count();
        let (offsets, targets) = match variant {
            FastFloodVariant::Graph => graph.clone().into_raw_parts(),
            FastFloodVariant::Tree => graph.bfs_tree(u32::from(source)).into_children_csr(),
        };
        let store = ShardStore::Ram(RamShards::new(offsets, targets, ShardPlan::uniform(n, 1)));
        let mut plan = FastFlood {
            passes: ShardedFlood::new(store, u32::from(source), horizon),
            variant,
            order: Vec::new(),
        };
        plan.order = plan.compute_bfs_order();
        plan
    }

    /// Re-cuts the target store along `plan`, so the frontier passes
    /// walk one node-range shard at a time. Outcome-neutral: every
    /// entry point returns the same bytes for every plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count.
    #[must_use]
    pub fn with_shard_plan(mut self, plan: ShardPlan) -> Self {
        let ShardStore::Ram(ram) = self.passes.store else {
            unreachable!("fast plans hold RAM stores")
        };
        self.passes.store = ShardStore::Ram(ram.with_plan(plan));
        self
    }

    /// The shard plan the frontier passes follow.
    #[must_use]
    pub fn shard_plan(&self) -> &ShardPlan {
        self.passes.store.plan()
    }

    /// The horizon (maximum number of rounds executed).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.passes.horizon
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.passes.node_count()
    }

    /// The whole target arrays, for the passes that read them in RAM.
    fn ram(&self) -> &RamShards {
        let ShardStore::Ram(ram) = &self.passes.store else {
            unreachable!("fast plans hold RAM stores")
        };
        ram
    }

    /// Executes one seeded flood with per-(node, round) transmitter
    /// failure probability `p`, running until the horizon or until no
    /// further round can change anything.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run(&self, p: f64, seed: u64) -> FastFloodOutcome {
        let sampler = FaultSampler::new(p);
        let ram = self.ram();
        let (n, source, horizon) = (self.node_count(), self.passes.source, self.horizon());
        let has_uninformed_target = |v: u32, informed: &InformedSet| {
            ram.targets_of(v).iter().any(|&t| !informed.contains(t))
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut informed = InformedSet::new(n);
        informed.insert(source);
        let mut informed_by_round = Vec::with_capacity(horizon.min(1024) + 1);
        informed_by_round.push(1);
        let mut completion_round = (n == 1).then_some(0);

        let mut frontier: Vec<u32> = Vec::new();
        if has_uninformed_target(source, &informed) {
            frontier.push(source);
        }
        let mut next_frontier: Vec<u32> = Vec::new();
        let mut successes: Vec<u32> = Vec::new();

        for round in 1..=horizon {
            if frontier.is_empty() {
                break; // nothing can ever change again
            }
            successes.clear();
            next_frontier.clear();
            // Failed transmitters stay in the frontier for next round.
            sampler.partition_into(&mut rng, &frontier, &mut successes, &mut next_frontier);

            for &u in &successes {
                for &t in ram.targets_of(u) {
                    if informed.insert(t) {
                        // The newly informed node starts transmitting
                        // next round if it can inform anyone.
                        next_frontier.push(t);
                    }
                }
            }

            informed_by_round.push(informed.count());
            if completion_round.is_none() && informed.count() == n {
                completion_round = Some(round);
            }

            // Keep only transmitters that can still inform someone; a
            // successful node informed all of its targets this round,
            // and a lingering failed node is dropped as soon as others
            // have covered its targets.
            frontier.clear();
            frontier.extend(
                next_frontier
                    .iter()
                    .copied()
                    .filter(|&u| has_uninformed_target(u, &informed)),
            );
        }

        FastFloodOutcome {
            n,
            horizon,
            completion_round,
            informed_by_round,
            informed,
        }
    }

    /// Scalar replay of lane `lane` of batched block `block_seed`: the
    /// same frontier algorithm as [`run`](Self::run), but every fault
    /// coin is bit `lane` of the site-addressed batch tape instead of a
    /// draw from a sequential RNG. Sites are per-(node, round) for the
    /// graph variant and per-(node, attempt) for the tree variant — the
    /// coins are i.i.d. Bernoulli(`p`) either way, so the sampled
    /// process is statistically identical to [`run`](Self::run), and
    /// the site addressing is what lets
    /// [`run_batch`](Self::run_batch) reproduce this outcome
    /// *exactly*, lane for lane — see
    /// [`FastFloodBatch::lane_outcome`].
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)` or `lane ≥ 64`.
    #[must_use]
    pub fn run_lane(&self, p: f64, block_seed: u64, lane: u32) -> FastFloodOutcome {
        self.run_lane_model(&Omission::new(p), block_seed, lane)
    }

    /// Runs all 64 trial lanes of block `block_seed` at once: the
    /// informed set is a lane word per node and every fault coin is a
    /// bit-sliced Bernoulli mask covering all lanes that draw it. Lane
    /// `k` of the result is byte-identical to
    /// [`run_lane`](Self::run_lane)`(p, block_seed, k)` — coins are
    /// site-addressed pure functions of the block seed, so the batched
    /// evolution reads exactly the bits the scalar replay reads.
    ///
    /// The tree variant runs round-free: each node's inform round obeys
    /// `s(child) = s(parent) + 1 + Geom(1 − p)`, so one topological
    /// pass resolves the whole block with the per-(node, attempt)
    /// geometric waits drawn as bit-sliced masks. The graph variant
    /// advances the 64-lane union frontier round by round, retiring
    /// lanes whose informed count has reached the source component's
    /// closure size.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run_batch(&self, p: f64, block_seed: u64) -> FastFloodBatch {
        self.run_batch_model(&Omission::new(p), block_seed, !0)
    }

    /// Runs the model's placement preprocessing against this plan's CSR
    /// arrays — the BFS-tree child lists for the tree variant, the full
    /// adjacency for the graph variant. Call once per plan before any
    /// `*_model` run of a placement-based model.
    pub fn preprocess<M: FaultModel + ?Sized>(&self, model: &mut M) {
        let ram = self.ram();
        let source = self.passes.source;
        match self.variant {
            FastFloodVariant::Tree => {
                model.preprocess_tree(ram.offsets(), ram.targets(), &self.order, source);
            }
            FastFloodVariant::Graph => model.preprocess_graph(ram.offsets(), ram.targets(), source),
        }
    }

    /// [`run_lane`](Self::run_lane) under an arbitrary [`FaultModel`].
    /// `Silent` models run the frontier replay (byte-identical to the
    /// plain entry point for [`Omission`]); corrupted-value models
    /// (`Flip` / `Lie`) run the deterministic-timing value pass — every
    /// transmission delivers, so node `v` is informed exactly at its
    /// BFS depth, and the adversary decides which lanes receive the
    /// *correct* value. The outcome's informed set and growth curve
    /// then track the **correctly informed** nodes.
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 64`.
    #[must_use]
    pub fn run_lane_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lane: u32,
    ) -> FastFloodOutcome {
        assert!((lane as usize) < LANES, "lane out of range");
        let tapes = FaultTapes::new(block_seed);
        match model.kind() {
            CorruptionKind::Silent => {
                let attempt_sites = self.variant == FastFloodVariant::Tree;
                self.passes
                    .lane_pass(self.passes.views(), model, &tapes, lane, attempt_sites)
                    .expect("RAM stores never fail a read")
            }
            _ => self.run_lane_values(model, &tapes, lane),
        }
    }

    /// [`run_batch`](Self::run_batch) under an arbitrary
    /// [`FaultModel`], over the live lanes `lanes` only: the source is
    /// seeded in those lanes alone, so a lane outside the mask is never
    /// informed and no walk, coin or count visits it, and the batch's
    /// views of it are unspecified. Live lane `k` is byte-identical to
    /// [`run_lane_model`](Self::run_lane_model)`(model, block_seed, k)`
    /// whatever the mask. See [`run_lane_model`](Self::run_lane_model)
    /// for the corrupted-value semantics.
    #[must_use]
    pub fn run_batch_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lanes: LaneMask,
    ) -> FastFloodBatch {
        let tapes = FaultTapes::new(block_seed);
        match (model.kind(), self.variant) {
            (CorruptionKind::Silent, FastFloodVariant::Tree) => {
                self.run_batch_tree(model, &tapes, lanes)
            }
            (CorruptionKind::Silent, FastFloodVariant::Graph) => self
                .passes
                .batch_pass(self.passes.views(), model, &tapes, self.order.len(), lanes)
                .expect("RAM stores never fail a read"),
            _ => self.run_batch_values(model, &tapes, lanes),
        }
    }

    fn compute_bfs_order(&self) -> Vec<u32> {
        let ram = self.ram();
        let source = self.passes.source;
        let mut seen = InformedSet::new(self.node_count());
        seen.insert(source);
        let mut order = vec![source];
        let mut i = 0;
        while i < order.len() {
            let v = order[i];
            i += 1;
            for &t in ram.targets_of(v) {
                if seen.insert(t) {
                    order.push(t);
                }
            }
        }
        order
    }

    /// Per-node BFS depth along transmission targets (`u32::MAX` for
    /// nodes unreachable from the source). First-write-wins over the
    /// BFS order, so graph-variant cross edges cannot inflate a depth —
    /// for trees this is simply the unique root distance.
    fn bfs_levels(&self) -> Vec<u32> {
        let ram = self.ram();
        let mut level = vec![u32::MAX; self.node_count()];
        level[self.passes.source as usize] = 0;
        for &v in &self.order {
            for &t in ram.targets_of(v) {
                if level[t as usize] == u32::MAX {
                    level[t as usize] = level[v as usize] + 1;
                }
            }
        }
        level
    }

    /// Tree-variant batch backend: one pass over the BFS order (parents
    /// before children), resolving every node's 64 inform rounds in
    /// bit-plane form (the source is seeded in `lanes` only, so no other
    /// lane resolves a round). It reads the whole child lists in RAM; every
    /// output is a per-node value or a multiset statistic, so the shard
    /// plan cannot change a bit.
    ///
    /// Because tree edges have unique parents, all of a node's children
    /// share its success round, so every per-node statistic (informed
    /// counts, max / second-max inform round, uninformed tally)
    /// collapses to one group-level update per *internal* node —
    /// leaves cost a plane copy and nothing else.
    fn run_batch_tree<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        tapes: &FaultTapes,
        lanes: LaneMask,
    ) -> FastFloodBatch {
        let ram = self.ram();
        let n = self.node_count();
        let h = self.horizon();
        let reach = self.order.len();
        // Sentinel inform round for "not informed within the horizon".
        let never = h as u64 + 1;
        let w = (64 - never.leading_zeros()) as usize;
        let never_template: Vec<u64> = (0..w)
            .map(|i| if never >> i & 1 == 1 { !0u64 } else { 0 })
            .collect();

        // Per-node inform rounds (bit planes), initialized to `never`;
        // the source is informed at round 0.
        let mut s_planes = Vec::with_capacity(n * w);
        for _ in 0..n {
            s_planes.extend_from_slice(&never_template);
        }
        let src = self.passes.source as usize;
        s_planes[src * w..(src + 1) * w].fill(0);

        // Lanes in which each node is informed (within the horizon):
        // exactly its parent's success mask, so it is free to maintain
        // and replaces every `≤ horizon` plane comparison downstream.
        let mut informed_masks = vec![0u64; n];
        informed_masks[src] = lanes;
        // Lanes where some eligible node attempted through the horizon
        // without success: their frontier stayed occupied to the end.
        let mut unfinished: LaneMask = 0;

        let mut su_buf = vec![0u64; w];
        // Per-lane success attempt index, accumulated plane-wise inside
        // the attempt loop; re-zeroed (used planes only) after each node.
        let mut a_planes = vec![0u64; w];
        // Internal nodes in BFS order: the reverse stats pass walks
        // exactly these (leaves are accounted through their parents).
        let mut groups: Vec<u32> = Vec::new();
        // Plane index such that values below `2^tight_plane` are at
        // least 65 attempt rounds short of the horizon.
        let tight_plane = if (h as u64) < 65 {
            0
        } else {
            (h as u64 - 64).ilog2() as usize
        };
        // Attempt-accumulator planes updated branch-free each attempt.
        let a_unroll = w.min(3);

        // Forward pass: resolve every internal node's 64 success rounds.
        for &u in &self.order {
            let ui = u as usize;
            let kids = ram.targets_of(u);
            if kids.is_empty() {
                continue;
            }
            groups.push(u);
            if h == 0 || informed_masks[ui] == 0 {
                continue;
            }
            su_buf.copy_from_slice(&s_planes[ui * w..(ui + 1) * w]);
            // `elig`: lanes whose first attempt round s(u) + 1 is
            // within the horizon — informed lanes minus those informed
            // at exactly the last round. `tight`: the eligible lanes
            // that could hit the horizon within the next 64 attempts —
            // while none survive, the per-attempt retirement comparison
            // below is skipped. Both derive from `hi`, the informed
            // lanes with any plane `≥ tight_plane` set: lanes outside
            // it sit at least 65 attempt rounds short of the horizon,
            // so when `hi` is empty (the common case once the horizon
            // comfortably exceeds the inform rounds) the exact
            // equality scan is provably zero and is skipped.
            let informed_u = informed_masks[ui];
            let (elig, tight);
            if (h as u64) < 65 {
                elig = informed_u & !planes_eq_mask(&su_buf, h as u64);
                tight = elig;
            } else {
                let mut hi = 0u64;
                for &pl in &su_buf[tight_plane..] {
                    hi |= pl;
                }
                hi &= informed_u;
                if hi == 0 {
                    elig = informed_u;
                    tight = 0;
                } else {
                    elig = informed_u & !planes_eq_mask(&su_buf, h as u64);
                    tight = elig & hi;
                }
            }
            if elig == 0 {
                continue;
            }
            let mut surviving = elig;
            let mut succeeded: LaneMask = 0;
            let mut a = 0u64;
            while surviving != 0 {
                let fail = model.corrupt_mask(tapes, fault_site(a as usize, u), u, surviving);
                let succ = surviving & !fail;
                succeeded |= succ;
                // Success sets are disjoint across attempts: OR the set
                // bits of `a` into the attempt accumulator and resolve
                // `s + 1 + a` in one ripple add afterwards. The low
                // planes are accumulated branch-free (a zero `succ` or
                // a clear bit of `a` just ORs in zero); eight or more
                // failed attempts at one node are rare enough to branch.
                for (i, pl) in a_planes.iter_mut().enumerate().take(a_unroll) {
                    *pl |= succ & 0u64.wrapping_sub(a >> i & 1);
                }
                if a >> a_unroll != 0 && succ != 0 {
                    let mut bits = a >> a_unroll;
                    while bits != 0 {
                        a_planes[a_unroll + bits.trailing_zeros() as usize] |= succ;
                        bits &= bits - 1;
                    }
                }
                a += 1;
                surviving = fail;
                // Retire lanes whose next attempt round s(u) + 1 + a
                // would pass the horizon. Exact only when needed: lanes
                // outside `tight` cannot retire for at least 64 attempts.
                if surviving != 0 && (a >= 64 || surviving & tight != 0) {
                    surviving = if a as usize > h - 1 {
                        0
                    } else {
                        surviving & planes_le_mask(&su_buf, h as u64 - 1 - a)
                    };
                }
            }
            unfinished |= elig & !succeeded;
            // Children inherit u's success round (only u can inform
            // them: tree edges have unique parents): resolve straight
            // into the first child's planes, siblings copy from it.
            let c0 = kids[0] as usize;
            planes_add_one_masked(
                &mut s_planes[c0 * w..(c0 + 1) * w],
                &su_buf,
                &a_planes,
                succeeded,
                &never_template,
            );
            informed_masks[c0] = succeeded;
            if a > 1 {
                let wa = (64 - (a - 1).leading_zeros()) as usize;
                a_planes[..wa.min(w)].fill(0);
            }
            for &c in &kids[1..] {
                let ci = c as usize * w;
                s_planes.copy_within(c0 * w..(c0 + 1) * w, ci);
                informed_masks[c as usize] = succeeded;
            }
        }

        // Reverse stats pass over the groups. Deep groups carry the
        // largest inform rounds, so visiting them first lets the
        // quick-reject comparison retire almost every later group in a
        // single plane scan.
        // Per-lane reach: lane-wise popcounts over the membership masks
        // (the source's all-ones mask included).
        let counts = LaneCounter::from_counts(&lane_popcounts(&informed_masks));
        // Max / second max (with multiplicity) of the per-lane inform
        // rounds over informed nodes, plus ≥1 / ≥2 uninformed tallies.
        let mut max_r = vec![0u64; w];
        let mut max_r2 = vec![0u64; w];
        let mut uninf1: LaneMask = 0;
        let mut uninf2: LaneMask = 0;
        for &u in groups.iter().rev() {
            let kids = ram.targets_of(u);
            let c0 = kids[0] as usize;
            let succ = informed_masks[c0];
            let miss = !succ;
            uninf2 |= if kids.len() >= 2 { miss } else { uninf1 & miss };
            uninf1 |= miss;
            if succ == 0 {
                continue;
            }
            let done_s = &s_planes[c0 * w..(c0 + 1) * w];
            let act = planes_gt_mask(done_s, &max_r2) & succ;
            if act == 0 {
                // done ≤ max2 ≤ max1 in every informed lane: even a
                // multi-child group cannot move either running max.
                continue;
            }
            let ge1 = !planes_gt_mask(&max_r, done_s) & succ;
            if kids.len() >= 2 {
                // A group of ≥ 2 children at or above the max occupies
                // both slots.
                planes_assign(&mut max_r2, done_s, ge1);
            } else {
                planes_assign(&mut max_r2, &max_r, ge1);
            }
            // `done > max2` but below the max: new second max.
            planes_assign(&mut max_r2, done_s, act & !ge1);
            planes_assign(&mut max_r, done_s, ge1);
        }

        let mut completion_round: Vec<Option<usize>> = vec![None; LANES];
        let mut almost_round: Vec<Option<usize>> = vec![None; LANES];
        let almost_target = n.saturating_sub(1).max(1);
        for lane in 0..LANES as u32 {
            let li = lane as usize;
            let uninformed1 = uninf1 >> lane & 1 == 1;
            let uninformed2 = uninf2 >> lane & 1 == 1;
            if reach == n && !uninformed1 {
                completion_round[li] = Some(LaneCounter::get_in(&max_r, lane) as usize);
            }
            almost_round[li] = if 1 >= almost_target {
                // n ≤ 2: the source alone is already almost-complete.
                Some(0)
            } else if reach == n {
                if !uninformed1 {
                    // Count hits n − 1 when the second-slowest learns.
                    Some(LaneCounter::get_in(&max_r2, lane) as usize)
                } else if !uninformed2 {
                    // Exactly one node missed: count peaks at n − 1
                    // when the slowest informed node learns.
                    Some(LaneCounter::get_in(&max_r, lane) as usize)
                } else {
                    None
                }
            } else if reach == almost_target && !uninformed1 {
                // Exactly n − 1 reachable: all of them must learn.
                Some(LaneCounter::get_in(&max_r, lane) as usize)
            } else {
                None
            };
        }

        FastFloodBatch {
            n,
            horizon: h,
            informed: BatchedInformedSet::from_parts(informed_masks, counts),
            completion_round,
            almost_round,
            curve: BatchCurve::Schedule {
                s_width: w,
                s_planes,
                max_round: max_r,
                unfinished,
            },
        }
    }

    /// Corrupted-value scalar backend: deliveries always succeed, so
    /// timing is the deterministic BFS schedule and only message
    /// *values* are at stake. Node `t` at depth `d` hears all of its
    /// depth-`d − 1` neighbors simultaneously at round `d` and ends up
    /// correctly informed iff every one of them delivered the true
    /// value — a `Flip` transmitter delivers its own value XOR the
    /// corruption coin, a `Lie` transmitter delivers the true value
    /// only when uncorrupted and holding it. The returned informed set
    /// and growth curve track the correctly informed nodes (the
    /// quantity the paper's malicious feasibility results are about).
    /// The pass touches each CSR row once and reads the whole arrays in
    /// RAM, so the shard plan has nothing to change.
    fn run_lane_values<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        tapes: &FaultTapes,
        lane: u32,
    ) -> FastFloodOutcome {
        let ram = self.ram();
        let n = self.node_count();
        let level = self.bfs_levels();
        let order = &self.order;
        let max_depth = order
            .iter()
            .map(|&v| level[v as usize] as usize)
            .max()
            .unwrap_or(0);
        let levels = max_depth.min(self.horizon());

        // Every reachable node within the horizon is informed at its
        // depth; values start true and parent contributions AND in.
        let mut val = vec![false; n];
        for &v in order {
            if (level[v as usize] as usize) <= levels {
                val[v as usize] = true;
            }
        }
        for &u in order {
            let du = level[u as usize] as usize;
            if du >= levels {
                break; // order is level-sorted: no transmitters left
            }
            let targets = ram.targets_of(u);
            if targets.is_empty() {
                continue;
            }
            let corrupt = model.corrupt_lane(tapes, fault_site(du + 1, u), u, lane);
            let c = match model.kind() {
                CorruptionKind::Flip => val[u as usize] ^ corrupt,
                _ => val[u as usize] && !corrupt,
            };
            for &t in targets {
                if level[t as usize] as usize == du + 1 {
                    val[t as usize] &= c;
                }
            }
        }

        let mut informed = InformedSet::new(n);
        informed.insert(self.passes.source);
        let mut informed_by_round = Vec::with_capacity(levels + 1);
        informed_by_round.push(1);
        let mut completion_round = (n == 1).then_some(0);
        let mut count = 1usize;
        let mut i = 1;
        for l in 1..=levels {
            while i < order.len() && level[order[i] as usize] as usize == l {
                let v = order[i];
                if val[v as usize] {
                    informed.insert(v);
                    count += 1;
                }
                i += 1;
            }
            informed_by_round.push(count);
            if completion_round.is_none() && count == n {
                completion_round = Some(l);
            }
        }

        FastFloodOutcome {
            n,
            horizon: self.horizon(),
            completion_round,
            informed_by_round,
            informed,
        }
    }

    /// Corrupted-value batch backend: the 64-lane value pass of
    /// [`run_lane_values`](Self::run_lane_values). Contributions are
    /// lane masks composed by AND over the level-sorted BFS order. The
    /// per-level counting pass snapshots the correct-count planes in
    /// the same arena layout as the graph-variant silent pass, so
    /// [`FastFloodBatch::lane_outcome`] reconstructs each lane's
    /// correct-count curve unchanged. Values and coins cover `lanes`
    /// only.
    fn run_batch_values<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        tapes: &FaultTapes,
        lanes: LaneMask,
    ) -> FastFloodBatch {
        let ram = self.ram();
        let n = self.node_count();
        let level = self.bfs_levels();
        let order = &self.order;
        let reach = order.len();
        let max_depth = order
            .iter()
            .map(|&v| level[v as usize] as usize)
            .max()
            .unwrap_or(0);
        let levels = max_depth.min(self.horizon());

        let mut value_masks = vec![0u64; n];
        for &v in order {
            if (level[v as usize] as usize) <= levels {
                value_masks[v as usize] = lanes;
            }
        }
        for &u in order {
            let du = level[u as usize] as usize;
            if du >= levels {
                break;
            }
            let targets = ram.targets_of(u);
            if targets.is_empty() {
                continue;
            }
            let corrupt = model.corrupt_mask(tapes, fault_site(du + 1, u), u, lanes);
            let c = match model.kind() {
                CorruptionKind::Flip => value_masks[u as usize] ^ corrupt,
                _ => value_masks[u as usize] & !corrupt,
            };
            for &t in targets {
                if level[t as usize] as usize == du + 1 {
                    value_masks[t as usize] &= c;
                }
            }
        }

        let mut rounds = LaneRounds::new(n);
        let mut counts = LaneCounter::new();
        counts.add_masked(lanes, 1); // the source holds the true value in every live lane
        let mut i = 1;
        for l in 1..=levels {
            while i < order.len() && level[order[i] as usize] as usize == l {
                counts.add_masked(value_masks[order[i] as usize], 1);
                i += 1;
            }
            rounds.end_round(&counts, l, true);
        }

        FastFloodBatch::from_rounds(
            BatchedInformedSet::from_parts(value_masks, counts),
            self.horizon(),
            reach,
            rounds,
        )
    }
}

/// Flooding over a [`ShardStore`] — RAM or disk segments — loading one
/// shard's CSR rows at a time, so peak RSS on disk stays near one shard
/// plus the node-level state: the `n = 10⁸` path. Its scalar-lane and
/// 64-lane passes are the ones [`FastFlood`] runs over its in-RAM store,
/// so outcomes are **bit-identical** to [`FastFlood::run_lane`] /
/// [`FastFlood::run_batch`] with [`FastFloodVariant::Graph`] on the same
/// adjacency, for every store, plan and prefetch setting.
///
/// Only the graph variant is offered over arbitrary stores: the tree
/// variant would first need a whole-graph BFS-tree construction, which
/// defeats the bounded-memory point.
pub struct ShardedFlood {
    store: ShardStore,
    source: u32,
    horizon: usize,
    prefetch: bool,
}

impl ShardedFlood {
    /// Wraps a shard store for flooding from `source` over at most
    /// `horizon` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    #[must_use]
    pub fn new(store: ShardStore, source: u32, horizon: usize) -> Self {
        assert!(
            (source as usize) < store.node_count(),
            "source out of range"
        );
        ShardedFlood {
            store,
            source,
            horizon,
            prefetch: true,
        }
    }

    /// Enables or disables the segment prefetch pipeline
    /// (outcome-neutral; only meaningful for disk stores).
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// The underlying shard store.
    #[must_use]
    pub fn store(&self) -> &ShardStore {
        &self.store
    }

    /// Unwraps the shard store, e.g. to hand the same on-disk segments
    /// to another kernel without rebuilding them.
    #[must_use]
    pub fn into_store(self) -> ShardStore {
        self.store
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// The horizon (maximum number of rounds executed).
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Scalar lane replay over the shard store; bit-identical to
    /// [`FastFlood::run_lane`] with [`FastFloodVariant::Graph`] on the
    /// same adjacency.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)` or `lane ≥ 64`.
    pub fn run_lane(
        &self,
        p: f64,
        block_seed: u64,
        lane: u32,
    ) -> Result<FastFloodOutcome, ShardError> {
        self.lane_pass(
            self.views(),
            &Omission::new(p),
            &FaultTapes::new(block_seed),
            lane,
            false,
        )
    }

    /// One batched 64-lane block over the shard store — the lane
    /// semantics of [`FastFlood::run_batch`] with
    /// [`FastFloodVariant::Graph`], with every segment read amortized
    /// across all 64 trials. `reach` is the size of the source's
    /// component (e.g.
    /// [`ShardedBfsTree::reachable`](randcast_graph::shard::ShardedBfsTree::reachable)):
    /// the batch
    /// needs it to retire lanes whose replay can no longer change,
    /// exactly as the in-RAM batch derives it from its own BFS order.
    /// Per-lane outcomes are byte-identical to 64 scalar
    /// [`run_lane`](Self::run_lane) replays of the same block seed.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn run_batch(
        &self,
        p: f64,
        block_seed: u64,
        reach: usize,
    ) -> Result<FastFloodBatch, ShardError> {
        self.batch_pass(
            self.views(),
            &Omission::new(p),
            &FaultTapes::new(block_seed),
            reach,
            !0,
        )
    }

    /// The per-pass segment reader over the store.
    fn views(&self) -> PassLoader<'_> {
        PassLoader::new(&self.store, self.prefetch)
    }

    /// The scalar lane pass under a `Silent` [`FaultModel`] (a
    /// corrupted transmission is suppressed). Each round makes one
    /// shard-at-a-time pass over the frontier, in the loader's shard
    /// order, reading each frontier row once: a node transmits only
    /// while it still has an uninformed target in the live informed
    /// set, a failed transmitter stays for the next round, and a node
    /// whose targets are all informed leaves without drawing its coin.
    /// That test drops only no-ops, so the evolution is the monolithic
    /// one with its round-boundary filter: until the first node of a
    /// round transmits, the live set *is* the end-of-round set, so a
    /// round runs exactly when some node would pass that filter. Coins
    /// are site-addressed and the round evolution is set-based, so the
    /// outcome is the same for every plan and every shard order. Sites
    /// are per-(node, round), or with `attempt_sites` per-(node,
    /// attempt) — the tree variant's addressing, where a node's attempts
    /// count from the round after it was informed. Disk passes are
    /// served by the [`PassLoader`]: held segments without a read, full
    /// segment reads overlapped with the previous shard's compute, or
    /// coalesced sparse row reads when a pass touches a small fraction
    /// of a shard — all outcome-invisible.
    fn lane_pass<M: FaultModel + ?Sized>(
        &self,
        mut views: PassLoader<'_>,
        model: &M,
        tapes: &FaultTapes,
        lane: u32,
        attempt_sites: bool,
    ) -> Result<FastFloodOutcome, ShardError> {
        assert!((lane as usize) < LANES, "lane out of range");
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut informed = InformedSet::new(n);
        informed.insert(self.source);
        // Each node's inform round, read only by attempt-indexed sites.
        let mut informed_round = if attempt_sites {
            vec![0u32; n]
        } else {
            Vec::new()
        };
        let mut informed_by_round = Vec::with_capacity(self.horizon.min(1024) + 1);
        informed_by_round.push(1);
        let mut completion_round = (n == 1).then_some(0);

        let mut frontier = ShardFrontier::new(k);
        let mut staged = ShardFrontier::new(k);
        frontier.push(plan.shard_of(self.source), self.source);

        for round in 1..=self.horizon {
            if frontier.is_empty() {
                break;
            }
            let mut ran = false;
            for s in views.begin_lists((0..k).map(|s| frontier.shard(s))) {
                let list = frontier.shard(s);
                if list.is_empty() {
                    continue;
                }
                let view = views.view_list(s, list)?;
                for &u in list {
                    let targets = view.targets_of(u);
                    if targets.iter().all(|&t| informed.contains(t)) {
                        continue;
                    }
                    ran = true;
                    let site = if attempt_sites {
                        fault_site(round - 1 - informed_round[u as usize] as usize, u)
                    } else {
                        fault_site(round, u)
                    };
                    if model.corrupt_lane(tapes, site, u, lane) {
                        // Failed transmitter: stays in the frontier.
                        staged.push(s, u);
                        continue;
                    }
                    for &t in targets {
                        if informed.insert(t) {
                            if attempt_sites {
                                informed_round[t as usize] = round as u32;
                            }
                            staged.push(plan.shard_of(t), t);
                        }
                    }
                }
            }
            if !ran {
                break;
            }
            informed_by_round.push(informed.count());
            if completion_round.is_none() && informed.count() == n {
                completion_round = Some(round);
            }
            std::mem::swap(&mut frontier, &mut staged);
            staged.clear();
        }

        Ok(FastFloodOutcome {
            n,
            horizon: self.horizon,
            completion_round,
            informed_by_round,
            informed,
        })
    }

    /// The 64-lane pass under a `Silent` [`FaultModel`]: the union
    /// frontier advances round by round, one list per shard, retiring
    /// lanes whose informed count has reached the closure size `reach`.
    /// Each round sorts every shard's list into node order and walks the
    /// shards in the loader's order. Before its coin, a node drops the
    /// lanes in which every target is already informed — the scalar
    /// pass's transmit-time test, lane by lane — and leaves the frontier
    /// when no lane is left. Restricting a coin mask to fewer lanes never
    /// changes an included lane's bit, and a dropped lane could only
    /// have made no-op transmissions. Lane-mask accumulation
    /// (`insert_masked`, pending unions, count planes) is value-based, so
    /// neither the shard order nor the walk order changes a word. The
    /// source is seeded in `lanes` only; the other lanes never join.
    fn batch_pass<M: FaultModel + ?Sized>(
        &self,
        mut views: PassLoader<'_>,
        model: &M,
        tapes: &FaultTapes,
        reach: usize,
        lanes: LaneMask,
    ) -> Result<FastFloodBatch, ShardError> {
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut informed = BatchedInformedSet::new(n);
        informed.insert_masked(self.source, lanes);
        let mut rounds = LaneRounds::new(n);

        // The union frontier: per shard, the nodes whose
        // `frontier_mask` has at least one live lane in which the node
        // may still transmit. Masks are supersets of the exact per-lane
        // frontiers: a lane stays set after a failed round even if
        // other transmitters informed all the node's targets meanwhile
        // (cleared by the next round's test), and is cleared on success,
        // on lane death, or when the node drains.
        let mut frontier: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut frontier_mask = vec![0u64; n];
        let mut in_frontier = vec![false; n];
        frontier[plan.shard_of(self.source)].push(self.source);
        frontier_mask[self.source as usize] = lanes;
        in_frontier[self.source as usize] = true;
        // Lanes newly informed this round join the frontier only for
        // the *next* round; stage them here.
        let mut pending = vec![0u64; n];
        let mut pending_nodes: Vec<u32> = Vec::new();

        // A lane is live (its replay still executes rounds) while its
        // informed count is below the closure size; only `lanes` start.
        let mut live: LaneMask = if reach > 1 { lanes } else { 0 };

        for round in 1..=self.horizon {
            if live == 0 {
                break;
            }
            pending_nodes.clear();
            let mut changed = false;

            for s in views.begin_lists(frontier.iter().map(Vec::as_slice)) {
                let list = &mut frontier[s];
                if list.is_empty() {
                    continue;
                }
                list.sort_unstable();
                let view = views.view_list(s, list)?;
                let mut write = 0usize;
                for i in 0..list.len() {
                    let v = list[i];
                    let targets = view.targets_of(v);
                    let mut fm = frontier_mask[v as usize] & live;
                    if fm != 0 {
                        // Keep only the lanes with an uninformed target.
                        let mut open: LaneMask = 0;
                        for &t in targets {
                            open |= !informed.lanes(t);
                            if open & fm == fm {
                                break;
                            }
                        }
                        fm &= open;
                    }
                    if fm == 0 {
                        frontier_mask[v as usize] = 0;
                        in_frontier[v as usize] = false;
                        continue;
                    }
                    let fail = model.corrupt_mask(tapes, fault_site(round, v), v, fm);
                    let succ = fm & !fail;
                    if succ != 0 {
                        for &t in targets {
                            let newly = informed.insert_masked(t, succ);
                            if newly != 0 {
                                changed = true;
                                if pending[t as usize] == 0 {
                                    pending_nodes.push(t);
                                }
                                pending[t as usize] |= newly;
                            }
                        }
                    }
                    // A successful lane informed all of v's targets: v
                    // leaves that lane's frontier. Failed lanes stay.
                    let keep = fm & fail;
                    frontier_mask[v as usize] = keep;
                    if keep != 0 {
                        list[write] = v;
                        write += 1;
                    } else {
                        in_frontier[v as usize] = false;
                    }
                }
                list.truncate(write);
            }
            // Merge the staged frontier masks after all of the round's
            // shard passes.
            for &t in &pending_nodes {
                frontier_mask[t as usize] |= pending[t as usize];
                pending[t as usize] = 0;
                if !in_frontier[t as usize] {
                    in_frontier[t as usize] = true;
                    frontier[plan.shard_of(t)].push(t);
                }
            }

            rounds.end_round(informed.counts(), round, changed);
            if changed {
                live &= !informed.counts().ge_mask(reach as u64);
            }
        }

        Ok(FastFloodBatch::from_rounds(
            informed,
            self.horizon,
            reach,
            rounds,
        ))
    }
}

/// Backend-specific data for reconstructing per-lane growth curves.
#[derive(Clone, PartialEq, Debug)]
enum BatchCurve {
    /// Graph-variant backend: per-round count-plane snapshots.
    Rounds {
        /// Size of the source's targets-closure component: a lane's
        /// replay stops recording once its count reaches this.
        reach: usize,
        plane_width: usize,
        /// `executed × plane_width` words: the per-lane informed counts
        /// after each executed round.
        count_arena: Vec<u64>,
        executed: usize,
    },
    /// Tree-variant backend: per-node inform rounds in bit-plane form.
    Schedule {
        s_width: usize,
        /// `n × s_width` words: node `v`'s per-lane inform round
        /// (`horizon + 1` = never informed).
        s_planes: Vec<u64>,
        /// Per-lane max inform round over informed nodes: the last
        /// executed round in lanes whose frontier drained in time.
        max_round: Vec<u64>,
        /// Lanes where some node attempted through the horizon without
        /// success: their last executed round is the horizon itself.
        unfinished: LaneMask,
    },
}

/// Outcome of one batched 64-lane flood block; per-lane views are
/// byte-identical to the corresponding [`FastFlood::run_lane`] replay.
#[derive(Clone, PartialEq, Debug)]
pub struct FastFloodBatch {
    n: usize,
    horizon: usize,
    informed: BatchedInformedSet,
    completion_round: Vec<Option<usize>>,
    almost_round: Vec<Option<usize>>,
    curve: BatchCurve,
}

impl FastFloodBatch {
    /// A batch of a round-by-round pass: per-round count snapshots
    /// over a source component of `reach` nodes.
    fn from_rounds(
        informed: BatchedInformedSet,
        horizon: usize,
        reach: usize,
        rounds: LaneRounds,
    ) -> Self {
        let LaneRounds {
            completion_round,
            almost_round,
            plane_width,
            count_arena,
            executed,
            ..
        } = rounds;
        FastFloodBatch {
            n: informed.n(),
            horizon,
            informed,
            completion_round,
            almost_round,
            curve: BatchCurve::Rounds {
                reach,
                plane_width,
                count_arena,
                executed,
            },
        }
    }

    /// Number of nodes in the graph.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
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
        self.informed.count(lane) as f64 / self.n as f64
    }

    /// Reconstructs lane `k`'s full scalar outcome — equal to
    /// [`FastFlood::run_lane`] with the same block seed and lane. For a
    /// lane outside the live mask of a
    /// [`run_batch_model`](FastFlood::run_batch_model) call this and every
    /// other per-lane view are unspecified.
    #[must_use]
    pub fn lane_outcome(&self, lane: u32) -> FastFloodOutcome {
        let mut informed = InformedSet::new(self.n);
        for v in 0..self.n as u32 {
            if self.informed.lane_contains(v, lane) {
                informed.insert(v);
            }
        }
        let informed_by_round = match &self.curve {
            BatchCurve::Rounds {
                reach,
                plane_width,
                count_arena,
                executed,
            } => {
                let mut curve = vec![1usize];
                let mut prev = 1usize;
                for r in 0..*executed {
                    if prev >= *reach {
                        // An empty frontier never refills: once the
                        // count hits the closure size, the lane's
                        // replay stopped here.
                        break;
                    }
                    let planes = &count_arena[r * plane_width..(r + 1) * plane_width];
                    let count = LaneCounter::get_in(planes, lane) as usize;
                    curve.push(count);
                    prev = count;
                }
                curve
            }
            BatchCurve::Schedule {
                s_width,
                s_planes,
                max_round,
                unfinished,
            } => {
                // Counting sort of the lane's inform rounds: every
                // informed node's round is ≤ the lane's last executed
                // round, so the prefix sums are the growth curve.
                let w = *s_width;
                let last = if unfinished >> lane & 1 == 1 {
                    self.horizon
                } else {
                    LaneCounter::get_in(max_round, lane) as usize
                };
                let mut curve = vec![0usize; last + 1];
                for v in 0..self.n {
                    let s = LaneCounter::get_in(&s_planes[v * w..(v + 1) * w], lane) as usize;
                    if s <= last {
                        curve[s] += 1;
                    }
                }
                for r in 1..=last {
                    curve[r] += curve[r - 1];
                }
                curve
            }
        };
        FastFloodOutcome {
            n: self.n,
            horizon: self.horizon,
            completion_round: self.completion_round[lane as usize],
            informed_by_round,
            informed,
        }
    }
}

/// Outcome of one fast-path flood: the informed set, its growth curve,
/// and derived completion metrics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FastFloodOutcome {
    n: usize,
    horizon: usize,
    informed: InformedSet,
    completion_round: Option<usize>,
    /// `informed_by_round[r]` = nodes informed by the end of round `r`
    /// (`[0] == 1`, the source). The run stops early once nothing can
    /// change, so the vector may be shorter than `horizon + 1`; counts
    /// are constant from its last entry onward.
    informed_by_round: Vec<usize>,
}

impl FastFloodOutcome {
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
        self.completion_round.is_some()
    }

    /// The round by which the last node was informed, `None` if the
    /// broadcast never completed (too few rounds, or the graph is
    /// disconnected from the source).
    #[must_use]
    pub fn completion_round(&self) -> Option<usize> {
        self.completion_round
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

    /// The first round by which at least `frac · n` nodes (rounded up)
    /// were informed.
    ///
    /// # Panics
    ///
    /// Panics if `frac ∉ [0, 1]`.
    #[must_use]
    pub fn time_to_fraction(&self, frac: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&frac), "fraction out of range");
        let target = (frac * self.n as f64).ceil() as usize;
        self.round_reaching(target.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_graph::{generators, traversal, Graph, GraphBuilder};

    fn plan(g: &Graph, horizon: usize, variant: FastFloodVariant) -> FastFlood {
        FastFlood::new(g, g.node(0), horizon, variant)
    }

    #[test]
    fn fault_free_tree_flood_takes_exactly_the_radius() {
        let g = generators::path(7);
        let ff = plan(&g, 32, FastFloodVariant::Tree);
        let out = ff.run(0.0, 1);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(7));
        assert_eq!(out.informed_by_round(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn fault_free_graph_flood_matches_bfs_layers() {
        let g = generators::grid(5, 7);
        let d = traversal::radius_from(&g, g.node(0));
        let ff = plan(&g, 100, FastFloodVariant::Graph);
        let out = ff.run(0.0, 3);
        assert_eq!(out.completion_round(), Some(d));
        // Each round informs exactly the next BFS layer.
        let layers = traversal::bfs_layers(&g, g.node(0));
        let mut cumulative = 0;
        for (r, layer) in layers.iter().enumerate() {
            cumulative += layer.len();
            assert_eq!(out.informed_by_round()[r], cumulative, "round {r}");
        }
    }

    #[test]
    fn informed_counts_are_monotone_and_bounded() {
        let g = generators::gnp_connected(300, 0.02, &mut rand::rngs::SmallRng::seed_from_u64(5));
        for p in [0.1, 0.5, 0.9] {
            let ff = plan(&g, 400, FastFloodVariant::Graph);
            let out = ff.run(p, 11);
            let counts = out.informed_by_round();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]), "p={p}");
            assert!(*counts.last().unwrap() <= out.n());
            assert_eq!(*counts.last().unwrap(), out.informed_count());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(9, 9);
        let ff = plan(&g, 200, FastFloodVariant::Tree);
        assert_eq!(ff.run(0.4, 7), ff.run(0.4, 7));
        assert_ne!(
            ff.run(0.4, 7).informed_by_round(),
            ff.run(0.4, 8).informed_by_round(),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn csr_and_graph_construction_agree() {
        // A generated graph and its copy frozen through the chainable
        // `GraphBuilder` compile to the same plan (and hence
        // bit-identical runs).
        let g = generators::gnp_connected(200, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(9));
        let mut b = GraphBuilder::new(g.node_count());
        b.edges(g.edges().map(|(u, v)| (u.index(), v.index())));
        let built = b.finish().expect("valid");
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let a = FastFlood::new(&built, g.node(0), 300, variant);
            let b = plan(&g, 300, variant);
            for seed in 0..5 {
                assert_eq!(a.run(0.4, seed), b.run(0.4, seed), "{variant:?}");
            }
        }
    }

    #[test]
    fn sparse_and_dense_samplers_agree_statistically() {
        // p just below and above the 0.75 sampler switch must produce
        // comparable completion-time distributions; calibrate both
        // against the same graph and compare means loosely.
        let g = generators::path(12);
        let trials = 400u64;
        let mean = |p: f64| {
            let ff = plan(&g, 2000, FastFloodVariant::Tree);
            let total: usize = (0..trials)
                .map(|s| ff.run(p, s).completion_round().expect("horizon ample"))
                .sum();
            total as f64 / trials as f64
        };
        // Expected completion ~ sum of 12 geometric(1-p) waits; the two
        // sampling paths sit on either side of the switch.
        let (m_dense, m_sparse) = (mean(0.74), mean(0.76));
        let expected_dense = 12.0 / (1.0 - 0.74);
        let expected_sparse = 12.0 / (1.0 - 0.76);
        assert!(
            (m_dense - expected_dense).abs() < 0.12 * expected_dense,
            "dense mean {m_dense} vs {expected_dense}"
        );
        assert!(
            (m_sparse - expected_sparse).abs() < 0.12 * expected_sparse,
            "sparse mean {m_sparse} vs {expected_sparse}"
        );
    }

    #[test]
    fn disconnected_graph_reports_partial_fraction() {
        // Two components: a triangle with the source and an isolated
        // edge.
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let g = b.finish().unwrap();
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 50, variant);
            let out = ff.run(0.0, 1);
            assert!(!out.complete(), "{variant:?}");
            assert_eq!(out.informed_count(), 3);
            assert!((out.informed_fraction() - 0.6).abs() < 1e-12);
            assert!(out.is_informed(g.node(2)));
            assert!(!out.is_informed(g.node(3)));
            // Almost-complete (n−1 = 4) is never reached either.
            assert_eq!(out.almost_complete_round(), None);
            // But 60% is reached at round 1.
            assert_eq!(out.time_to_fraction(0.6), Some(1));
        }
    }

    #[test]
    fn short_horizon_leaves_fraction_partial() {
        let g = generators::path(20);
        let ff = plan(&g, 5, FastFloodVariant::Tree);
        let out = ff.run(0.0, 0);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 6);
        assert_eq!(out.round_reaching(6), Some(5));
        assert_eq!(out.round_reaching(7), None);
    }

    #[test]
    fn single_node_graph_is_complete_at_round_zero() {
        let g = generators::path(0);
        let ff = plan(&g, 4, FastFloodVariant::Graph);
        let out = ff.run(0.3, 9);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(0));
        assert_eq!(out.almost_complete_round(), Some(0));
    }

    #[test]
    fn high_p_completes_eventually() {
        let g = generators::star(8);
        let ff = FastFlood::new(&g, g.node(1), 4000, FastFloodVariant::Graph);
        let mut completed = 0;
        for seed in 0..20 {
            completed += usize::from(ff.run(0.95, seed).complete());
        }
        assert_eq!(completed, 20);
    }

    #[test]
    fn tree_variant_from_non_source_root() {
        // Source at a leaf: the BFS tree re-roots there.
        let g = generators::star(5);
        let ff = FastFlood::new(&g, g.node(3), 50, FastFloodVariant::Tree);
        let out = ff.run(0.0, 0);
        assert_eq!(out.completion_round(), Some(2));
    }

    #[test]
    fn batch_lanes_match_scalar_lane_replay_exactly() {
        let g = generators::gnp_connected(120, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(2));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 300, variant);
            for p in [0.0, 0.3, 0.76, 0.9] {
                for block_seed in [0u64, 1, 0xDEAD_BEEF] {
                    let batch = ff.run_batch(p, block_seed);
                    for lane in 0..64u32 {
                        assert_eq!(
                            batch.lane_outcome(lane),
                            ff.run_lane(p, block_seed, lane),
                            "{variant:?} p={p} seed={block_seed} lane={lane}"
                        );
                        assert_eq!(
                            batch.completion_round(lane),
                            batch.lane_outcome(lane).completion_round()
                        );
                        assert_eq!(
                            batch.almost_complete_round(lane),
                            batch.lane_outcome(lane).almost_complete_round(),
                            "{variant:?} p={p} seed={block_seed} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_handles_disconnection_short_horizons_and_single_nodes() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let g = b.finish().unwrap();
        let ff = plan(&g, 50, FastFloodVariant::Graph);
        let batch = ff.run_batch(0.3, 9);
        for lane in 0..64u32 {
            assert_eq!(batch.lane_outcome(lane), ff.run_lane(0.3, 9, lane));
            assert_eq!(batch.informed_count(lane), 3);
            assert!(!batch.lane_outcome(lane).complete());
        }

        let short = plan(&generators::path(20), 5, FastFloodVariant::Tree);
        let batch = short.run_batch(0.5, 4);
        for lane in 0..64u32 {
            assert_eq!(batch.lane_outcome(lane), short.run_lane(0.5, 4, lane));
        }

        let single = plan(&generators::path(0), 4, FastFloodVariant::Graph);
        let batch = single.run_batch(0.3, 1);
        for lane in 0..64u32 {
            assert_eq!(batch.lane_outcome(lane), single.run_lane(0.3, 1, lane));
            assert_eq!(batch.completion_round(lane), Some(0));
            assert_eq!(batch.almost_complete_round(lane), Some(0));
        }
    }

    /// Asserts every live lane of `masked` (run over `lanes`) equals the
    /// full block's lane and the scalar replay `want`, through
    /// `lane_outcome` and the per-lane accessors the scenario layer
    /// reads.
    fn assert_live_lanes(
        masked: &FastFloodBatch,
        full: &FastFloodBatch,
        lanes: LaneMask,
        want: impl Fn(u32) -> FastFloodOutcome,
        label: &str,
    ) {
        for lane in crate::kernel::mask_lanes(lanes) {
            let want = want(lane);
            let label = format!("{label} lanes={lanes:#x} lane={lane}");
            assert_eq!(full.lane_outcome(lane), want, "{label} full block");
            assert_eq!(masked.lane_outcome(lane), want, "{label}");
            assert_eq!(
                masked.completion_round(lane),
                want.completion_round(),
                "{label}"
            );
            assert_eq!(
                masked.almost_complete_round(lane),
                want.almost_complete_round(),
                "{label}"
            );
            assert_eq!(
                masked.informed_count(lane),
                want.informed_count(),
                "{label}"
            );
        }
    }

    #[test]
    fn masked_blocks_match_full_blocks_and_lane_replays() {
        // A live lane's coins are site-addressed and its updates
        // lane-wise, so masking its siblings out of the pass — which
        // changes what they do, not just whether they are read — must
        // leave it byte-identical, for every pass: the round-free tree
        // batch, the graph frontier pass on one, three and three disk
        // shards, and the corrupted-value pass.
        use crate::kernel::{FlipFault, LieOrJamFault, TEST_LANE_MASKS};
        let g = generators::gnp_connected(120, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(4));
        let n = g.node_count();
        let p = 0.35;
        let (omission, flip, lie) = (Omission::new(p), FlipFault::new(p), LieOrJamFault::new(p));
        let models: [&dyn FaultModel; 3] = [&omission, &flip, &lie];
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let one = FastFlood::new(&g, g.node(0), 300, variant);
            let three = FastFlood::new(&g, g.node(0), 300, variant)
                .with_shard_plan(ShardPlan::uniform(n, 3));
            for model in models {
                for seed in [5u64, 6] {
                    let full = one.run_batch_model(model, seed, !0);
                    for lanes in TEST_LANE_MASKS {
                        for (plan, k) in [(&one, 1), (&three, 3)] {
                            assert_live_lanes(
                                &plan.run_batch_model(model, seed, lanes),
                                &full,
                                lanes,
                                |lane| one.run_lane_model(model, seed, lane),
                                &format!("{variant:?} {} k={k} seed={seed}", model.name()),
                            );
                        }
                    }
                }
            }
        }

        let one = FastFlood::new(&g, g.node(0), 300, FastFloodVariant::Graph);
        let disk = ShardedFlood::new(disk_copy(one.ram(), 3, false), 0, 300);
        for seed in [5u64, 6] {
            let full = one.run_batch(p, seed);
            for lanes in TEST_LANE_MASKS {
                let tapes = FaultTapes::new(seed);
                let masked =
                    disk.batch_pass(disk.views(), &omission, &tapes, one.order.len(), lanes);
                assert_live_lanes(
                    &masked.unwrap(),
                    &full,
                    lanes,
                    |lane| one.run_lane(p, seed, lane),
                    &format!("disk seed={seed}"),
                );
            }
        }
    }

    #[test]
    fn sharded_lane_and_batch_match_monolithic_exactly() {
        let g = generators::gnp_connected(140, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(6));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = FastFlood::new(&g, g.node(0), 300, variant);
            for shards in [2usize, 3, 7] {
                let sharded = FastFlood::new(&g, g.node(0), 300, variant)
                    .with_shard_plan(ShardPlan::uniform(g.node_count(), shards));
                assert_eq!(sharded.shard_plan().shard_count(), shards);
                for p in [0.0, 0.4, 0.9] {
                    let seed = 31 + shards as u64;
                    assert_eq!(
                        sharded.run_batch(p, seed),
                        ff.run_batch(p, seed),
                        "batch diverged: {variant:?} shards={shards} p={p}"
                    );
                    for lane in [0u32, 19, 63] {
                        assert_eq!(
                            sharded.run_lane(p, seed, lane),
                            ff.run_lane(p, seed, lane),
                            "lane diverged: {variant:?} shards={shards} p={p} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_core_flood_matches_the_monolithic_lane_replay() {
        use randcast_graph::shard::{default_scratch_dir, SpillSink};
        let g = generators::gnp_connected(130, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(8));
        let ff = FastFlood::new(&g, g.node(0), 400, FastFloodVariant::Graph);
        let plan = ShardPlan::uniform(g.node_count(), 3);

        let ram = ShardedFlood::new(
            ShardStore::Ram(RamShards::from_graph(g.clone(), plan.clone())),
            0,
            400,
        );
        let mut sink = SpillSink::create(default_scratch_dir(), plan).unwrap();
        for v in 0..g.node_count() {
            for &t in g.targets_of(v as u32) {
                if (v as u32) < t {
                    sink.push(v as u64, u64::from(t)).unwrap();
                }
            }
        }
        let disk = ShardedFlood::new(ShardStore::Disk(sink.finalize().unwrap()), 0, 400);

        for p in [0.0, 0.5] {
            for lane in [0u32, 7, 63] {
                let reference = ff.run_lane(p, 77, lane);
                assert_eq!(ram.run_lane(p, 77, lane).unwrap(), reference);
                assert_eq!(disk.run_lane(p, 77, lane).unwrap(), reference);
            }
        }
    }

    #[test]
    fn out_of_core_flood_batch_and_prefetch_are_byte_invisible() {
        use randcast_graph::shard::{default_scratch_dir, SpillSink};
        // Big enough that one-participant rounds go sparse on disk
        // while bulk rounds take full segment views.
        let g = generators::gnp_connected(900, 0.012, &mut rand::rngs::SmallRng::seed_from_u64(31));
        let n = g.node_count();
        let ff = FastFlood::new(&g, g.node(0), 400, FastFloodVariant::Graph);
        let reach = ff.order.len();
        let mono = ff.run_batch(0.3, 55);
        let plan = ShardPlan::uniform(n, 3);
        let mut sink = SpillSink::create(default_scratch_dir(), plan.clone()).unwrap();
        for v in 0..n {
            for &t in g.targets_of(v as u32) {
                if (v as u32) < t {
                    sink.push(v as u64, u64::from(t)).unwrap();
                }
            }
        }
        let stores = [
            (
                ShardStore::Ram(RamShards::from_graph(g.clone(), plan.clone())),
                "ram",
            ),
            (ShardStore::Disk(sink.finalize().unwrap()), "disk"),
        ];
        for (store, what) in stores {
            let mut flood = ShardedFlood::new(store, 0, 400);
            for prefetch in [true, false] {
                flood = flood.with_prefetch(prefetch);
                assert_eq!(
                    flood.run_batch(0.3, 55, reach).unwrap(),
                    mono,
                    "{what} batch diverged: prefetch={prefetch}"
                );
                for lane in [0u32, 63] {
                    assert_eq!(
                        flood.run_lane(0.3, 55, lane).unwrap(),
                        mono.lane_outcome(lane),
                        "{what} lane diverged: prefetch={prefetch} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn silent_models_route_through_the_byte_identical_omission_machinery() {
        let g = generators::gnp_connected(100, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(3));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 250, variant);
            let model = Omission::new(0.4);
            assert_eq!(ff.run_batch_model(&model, 99, !0), ff.run_batch(0.4, 99));
            for lane in [0u32, 17, 63] {
                assert_eq!(
                    ff.run_lane_model(&model, 99, lane),
                    ff.run_lane(0.4, 99, lane),
                    "{variant:?} lane={lane}"
                );
            }
        }
    }

    #[test]
    fn model_batch_lanes_match_model_lane_replays() {
        use crate::kernel::{FlipFault, LieOrJamFault};
        let g = generators::gnp_connected(90, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(12));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = plan(&g, 200, variant);
            for p in [0.0, 0.3, 0.76] {
                let models: [&dyn FaultModel; 2] = [&FlipFault::new(p), &LieOrJamFault::new(p)];
                for model in models {
                    let batch = ff.run_batch_model(model, 41, !0);
                    for lane in [0u32, 5, 31, 63] {
                        assert_eq!(
                            batch.lane_outcome(lane),
                            ff.run_lane_model(model, 41, lane),
                            "{variant:?} {} p={p} lane={lane}",
                            model.name()
                        );
                        assert_eq!(
                            batch.completion_round(lane),
                            batch.lane_outcome(lane).completion_round()
                        );
                        assert_eq!(
                            batch.almost_complete_round(lane),
                            batch.lane_outcome(lane).almost_complete_round(),
                            "{variant:?} {} p={p} lane={lane}",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flip_flood_at_p_zero_runs_on_the_exact_bfs_schedule() {
        use crate::kernel::FlipFault;
        let g = generators::grid(5, 7);
        let d = traversal::radius_from(&g, g.node(0));
        let ff = plan(&g, 100, FastFloodVariant::Graph);
        let out = ff.run_lane_model(&FlipFault::new(0.0), 1, 0);
        assert_eq!(out.completion_round(), Some(d));
        let layers = traversal::bfs_layers(&g, g.node(0));
        let mut cumulative = 0;
        for (r, layer) in layers.iter().enumerate() {
            cumulative += layer.len();
            assert_eq!(out.informed_by_round()[r], cumulative, "round {r}");
        }
    }

    #[test]
    fn sharded_model_runs_match_monolithic_exactly() {
        use crate::kernel::{CorruptionKind, FlipFault, WorstCasePlacement};
        let g = generators::gnp_connected(110, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(21));
        for variant in [FastFloodVariant::Tree, FastFloodVariant::Graph] {
            let ff = FastFlood::new(&g, g.node(0), 250, variant);
            let mut placed = WorstCasePlacement::new(0.1, CorruptionKind::Silent);
            ff.preprocess(&mut placed);
            let flip = FlipFault::new(0.35);
            let models: [&dyn FaultModel; 2] = [&placed, &flip];
            for model in models {
                for shards in [2usize, 3, 7] {
                    let sharded = FastFlood::new(&g, g.node(0), 250, variant)
                        .with_shard_plan(ShardPlan::uniform(g.node_count(), shards));
                    assert_eq!(
                        sharded.run_batch_model(model, 7, !0),
                        ff.run_batch_model(model, 7, !0),
                        "{variant:?} {} shards={shards}",
                        model.name()
                    );
                    for lane in [0u32, 9, 63] {
                        assert_eq!(
                            sharded.run_lane_model(model, 7, lane),
                            ff.run_lane_model(model, 7, lane),
                            "{variant:?} {} shards={shards} lane={lane}",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn placed_faults_sever_or_poison_exactly_the_placed_subtrees() {
        use crate::kernel::{CorruptionKind, WorstCasePlacement};
        let g = generators::path(4);
        let ff = plan(&g, 40, FastFloodVariant::Tree);

        // frac 0.25 of the 4 non-source nodes pins node 1, the root of
        // the largest subtree on the path 0 → 1 → 2 → 3 → 4.
        let mut silent = WorstCasePlacement::new(0.25, CorruptionKind::Silent);
        ff.preprocess(&mut silent);
        assert_eq!(silent.placed_count(), 1);
        assert!(silent.is_placed(1));
        let out = ff.run_lane_model(&silent, 5, 0);
        // Node 1 hears the source, but its own transmissions all fail:
        // everything behind it stays uninformed.
        assert_eq!(out.informed_count(), 2);
        assert!(!out.complete());

        let mut flip = WorstCasePlacement::new(0.25, CorruptionKind::Flip);
        ff.preprocess(&mut flip);
        let out = ff.run_lane_model(&flip, 5, 0);
        // Deliveries all land on the BFS schedule, but everything
        // behind the flipping node hears the wrong value.
        assert_eq!(out.informed_count(), 2);
        assert!(!out.complete());
        assert!(out.is_informed(g.node(1)));
        assert!(!out.is_informed(g.node(2)));
    }

    /// The lane round before the transmit-time test, kept as the
    /// reference: a transmit pass over the frontier, then a refilter of
    /// the staged frontier against the end-of-round informed set, both
    /// in ascending shard order through plain [`ShardStore::view`] loads.
    fn two_pass_lane(
        store: &ShardStore,
        source: u32,
        horizon: usize,
        (p, block_seed, lane): (f64, u64, u32),
        attempt_sites: bool,
    ) -> FastFloodOutcome {
        use randcast_graph::shard::ShardScratch;
        let model = Omission::new(p);
        let tapes = FaultTapes::new(block_seed);
        let plan = store.plan();
        let (n, k) = (plan.node_count(), plan.shard_count());
        let mut scratch = ShardScratch::new();
        let mut informed = InformedSet::new(n);
        informed.insert(source);
        let mut informed_round = vec![0u32; n];
        let mut informed_by_round = vec![1];
        let mut completion_round = (n == 1).then_some(0);
        let mut frontier: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut staged: Vec<Vec<u32>> = vec![Vec::new(); k];
        let src = plan.shard_of(source);
        let view = store.view(src, &mut scratch).unwrap();
        if view
            .targets_of(source)
            .iter()
            .any(|&t| !informed.contains(t))
        {
            frontier[src].push(source);
        }
        for round in 1..=horizon {
            if frontier.iter().all(Vec::is_empty) {
                break;
            }
            for s in 0..k {
                let view = store.view(s, &mut scratch).unwrap();
                for &u in &frontier[s] {
                    let site = if attempt_sites {
                        fault_site(round - 1 - informed_round[u as usize] as usize, u)
                    } else {
                        fault_site(round, u)
                    };
                    if model.corrupt_lane(&tapes, site, u, lane) {
                        staged[s].push(u);
                        continue;
                    }
                    for &t in view.targets_of(u) {
                        if informed.insert(t) {
                            informed_round[t as usize] = round as u32;
                            staged[plan.shard_of(t)].push(t);
                        }
                    }
                }
            }
            informed_by_round.push(informed.count());
            if completion_round.is_none() && informed.count() == n {
                completion_round = Some(round);
            }
            for s in 0..k {
                let view = store.view(s, &mut scratch).unwrap();
                frontier[s] = staged[s]
                    .drain(..)
                    .filter(|&u| view.targets_of(u).iter().any(|&t| !informed.contains(t)))
                    .collect();
            }
        }
        FastFloodOutcome {
            n,
            horizon,
            completion_round,
            informed_by_round,
            informed,
        }
    }

    /// `ram`'s target lists spilled to a `k`-segment disk store: every
    /// entry for a directed (tree) store, each edge once otherwise.
    fn disk_copy(ram: &RamShards, k: usize, directed: bool) -> ShardStore {
        use randcast_graph::shard::{default_scratch_dir, SpillSink};
        let n = ram.plan().node_count();
        let plan = ShardPlan::uniform(n, k);
        let mut sink = if directed {
            SpillSink::create_directed(default_scratch_dir(), plan)
        } else {
            SpillSink::create(default_scratch_dir(), plan)
        }
        .unwrap();
        for v in 0..n as u32 {
            for &t in ram.targets_of(v) {
                if directed || v < t {
                    sink.push(u64::from(v), u64::from(t)).unwrap();
                }
            }
        }
        ShardStore::Disk(sink.finalize().unwrap())
    }

    #[test]
    fn one_pass_lane_rounds_match_the_two_pass_reference() {
        // Families where transmitters turn into no-ops mid-round: every
        // node of a clique is covered by the first success, a star's
        // leaves by the hub, and G(n, p) mixes both.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(15);
        let families = [
            generators::complete(14),
            generators::star(24),
            generators::gnp_connected(70, 0.07, &mut rng),
        ];
        let horizon = 60;
        for g in &families {
            let n = g.node_count();
            // A leaf of the star: the hub is then informed in round one.
            let source = g.node(n - 1);
            let src = u32::from(source);
            for variant in [FastFloodVariant::Graph, FastFloodVariant::Tree] {
                let tree = variant == FastFloodVariant::Tree;
                let one = FastFlood::new(g, source, horizon, variant);
                let three = FastFlood::new(g, source, horizon, variant)
                    .with_shard_plan(ShardPlan::uniform(n, 3));
                let disk = ShardedFlood::new(disk_copy(one.ram(), 3, tree), src, horizon);
                let reference = |p: f64, seed: u64, lane: u32| {
                    two_pass_lane(&one.passes.store, src, horizon, (p, seed, lane), tree)
                };
                for seed in 0..250u64 {
                    for p in [0.2, 0.6] {
                        let lane = (seed % 64) as u32;
                        let want = reference(p, seed, lane);
                        let label = format!("{variant:?} n={n} p={p} seed={seed}");
                        assert_eq!(one.run_lane(p, seed, lane), want, "{label} k=1");
                        assert_eq!(three.run_lane(p, seed, lane), want, "{label} k=3");
                        let tapes = FaultTapes::new(seed);
                        let model = Omission::new(p);
                        let got = disk.lane_pass(disk.views(), &model, &tapes, lane, tree);
                        assert_eq!(got.unwrap(), want, "{label} disk");
                    }
                }
                for seed in 0..3u64 {
                    let p = 0.5;
                    let blocks = [one.run_batch(p, seed), three.run_batch(p, seed)];
                    for lane in 0..LANES as u32 {
                        let want = reference(p, seed, lane);
                        for block in &blocks {
                            assert_eq!(block.lane_outcome(lane), want, "{variant:?} lane={lane}");
                        }
                    }
                    if !tree {
                        let block = disk.run_batch(p, seed, one.order.len()).unwrap();
                        for lane in 0..LANES as u32 {
                            assert_eq!(block.lane_outcome(lane), reference(p, seed, lane));
                        }
                    }
                }
            }
        }
    }
}
