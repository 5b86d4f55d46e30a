//! A specialized large-`n` fast path for the paper's *Simple* broadcast
//! (`Simple-Omission`, Theorem 2.1) under omission faults, in both the
//! message-passing and radio models at once.
//!
//! The trait-object `SimplePlan` executes the full `n · m`-round
//! schedule on a general network engine: `n` automaton dispatches plus
//! `n` fault coins per round, `Θ(n² m)` work per trial. But under
//! omission faults the protocol's dynamics collapse to one draw per
//! *internal tree node*:
//!
//! * Only `v_i` transmits during phase `i` (rounds `[i·m, (i+1)·m)`),
//!   so there are never collisions among correct nodes — the radio and
//!   message-passing executions are **the same process**.
//! * Fault coins are per-(node, round) — a failed step silences *all*
//!   of a node's transmissions at once (`Outgoing::Directed` in MP, the
//!   single broadcast in radio). All children of `v_i` therefore hear
//!   in exactly the same rounds, and what they hear is `v_i`'s value,
//!   fixed before its phase starts (parents are enumerated first).
//! * A child adopts its parent's value iff at least one of the `m`
//!   transmissions works — the index of the first working one is
//!   Geometric(`1 − p`) truncated at `m`.
//!
//! [`FastSimple`] draws exactly that: one uniform per internal node of
//! the BFS spanning tree, in the paper's `v1..vn` enumeration order,
//! mapped through the inverse geometric CDF by the shared
//! [`FaultSampler`]. A node ends *correct*
//! iff its whole ancestor chain relayed successfully. The outcome
//! distribution (correct set, success indicator) is exactly that of
//! `SimplePlan` under the silent omission adversary in either model —
//! `crates/core/tests/simple_equivalence.rs` pins this with a 250-seed
//! Welch-tolerance suite plus exact `p = 0` agreement.
//!
//! Because the draw for node `v` is a *fixed* uniform per (seed,
//! position) mapped monotonically through `p`, the correct set for a
//! fixed seed **shrinks monotonically in `p`** — a coupling the
//! property tests exploit.
//!
//! The seeded scalar-lane and 64-lane passes are written once, against
//! a [`ShardStore`] of the tree's child lists: [`FastSimple`] runs them
//! over its in-RAM store, and [`ShardedSimple`] over any store, disk
//! segments included. Both passes take a [`FaultModel`]: i.i.d. `Silent`
//! models (the [`Omission`] instance behind the plain-`p` entry points)
//! take the one-draw-per-phase collapse above, and every other model
//! generalizes it — a malicious parent still owns its phase exclusively,
//! so the child-side majority vote over the `m` (possibly corrupted)
//! transmissions resolves from one per-phase corruption count. The
//! bit-sliced threshold counting runs Theorem 2.3's flip vote and
//! Theorem 2.4's limited lie vote at the omission kernel's cost;
//! `crates/core/tests/malicious_equivalence.rs` pins the malicious
//! instances against the trait engines.
//!
//! Like the other fast kernels, `FastSimple` is defined on graphs
//! disconnected from the source: unreachable nodes simply never adopt,
//! and the outcome reports the correct *fraction*. The schedule keeps
//! the trait engine's fixed length `n · m` (Simple has no early
//! termination — a node cannot know the broadcast is done), so the
//! completion round of a successful trial is `total_rounds` by
//! definition; [`last_adoption_round`](FastSimpleOutcome::last_adoption_round)
//! exposes the transient instead.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_graph::shard::{PassLoader, RamShards, ShardError, ShardPlan, ShardStore};
use randcast_graph::{Graph, NodeId};

use crate::kernel::{
    BatchBernoulli, BatchTape, BatchedInformedSet, CorruptionKind, FaultModel, FaultSampler,
    FaultTapes, InformedSet, LaneCounter, LaneMask, Omission, LANES,
};

/// The first-success index of one lane's phase draw under the omission
/// collapse, shared by the lane and batch passes so both read the
/// identical value.
///
/// The draw couples two stages to one 53-bit uniform `U` at site
/// `phase`: the *adoption* coin is the bit-sliced threshold compare
/// `U < ⌈(1 − p^m)·2^53⌉` ([`BatchBernoulli`] over the same planes),
/// and conditional on adoption the first working transmission index is
/// the inverse geometric CDF `⌊ln(1 − U)/ln p⌋` — given `U < 1 − p^m`
/// that is exactly the truncated Geometric(1 − p) the scalar sampler
/// draws. The clamp to `m − 1` guards the boundary where the float
/// evaluation lands on the far side of the integer threshold compare.
fn phase_t(tape: &BatchTape, site: u64, lane: u32, ln_p: f64, m: usize) -> usize {
    if ln_p == f64::NEG_INFINITY {
        // p = 0: the first transmission works.
        return 0;
    }
    let u = tape.uniform53(site, lane) as f64 / (1u64 << 53) as f64;
    (((1.0 - u).ln() / ln_p) as usize).min(m - 1)
}

/// Site key of transmission `t` of `v`'s phase on the fault tapes of
/// the vote. Unlike the omission collapse (one site per phase), the vote
/// draws one corruption coin per *round* of the phase; each node
/// transmits during exactly one phase, so `(t, v)` never collides.
fn vote_site(t: usize, v: u32) -> u64 {
    (t as u64) << 32 | u64::from(v)
}

/// How one phase resolves under a [`FaultModel`], for a block's coin
/// tapes: i.i.d. `Silent` models collapse to one adoption coin per
/// phase, every other model votes over the phase's per-round
/// corruption coins.
struct Phases<'a, M: ?Sized> {
    model: &'a M,
    tapes: FaultTapes,
    m: usize,
    /// The omission collapse: the Bernoulli(`1 − p^m`) adoption coin at
    /// site = phase index, and `ln p` for the first-success index.
    collapse: Option<(BatchBernoulli, f64)>,
}

impl<'a, M: FaultModel + ?Sized> Phases<'a, M> {
    fn new(model: &'a M, block_seed: u64, m: usize) -> Self {
        let collapse = match (model.kind(), model.iid_rate()) {
            (CorruptionKind::Silent, Some(p)) => {
                Some((BatchBernoulli::new(1.0 - p.powi(m as i32)), p.ln()))
            }
            _ => None,
        };
        Phases {
            model,
            tapes: FaultTapes::new(block_seed),
            m,
            collapse,
        }
    }

    /// Resolves phase `phase` of parent `u` for all lanes at once:
    /// returns the `(informed, correct)` child masks given the lanes
    /// `act` where `u` is informed and `val` where it is correct. The
    /// vote counts the phase's corrupt transmissions into `k` (one model
    /// coin per round, at site `(t << 32) | u`, shared by the whole
    /// sibling set — the trait engines draw one fault coin per
    /// transmitter per round) and applies the child-side rule of the
    /// model's [`CorruptionKind`]:
    ///
    /// * `Silent` — the child hears iff some transmission survives, and
    ///   inherits the parent's value (omission semantics on arbitrary,
    ///   e.g. placed, fault sites);
    /// * `Flip` — all `m` bits arrive, `k` of them inverted; the
    ///   majority vote keeps a true parent's value iff `k < m − ⌊m/2⌋`
    ///   and fabricates truth from a false parent iff `k ≥ ⌊m/2⌋ + 1`
    ///   (Theorem 2.3's opposite-behavior adversary);
    /// * `Lie` — corrupt rounds deliver the constant lie `false`, so
    ///   only a true parent with `k < m − ⌊m/2⌋` convinces the vote
    ///   (Theorem 2.4's radio adversary under the limited clamp).
    fn resolve(
        &self,
        k: &mut LaneCounter,
        phase: usize,
        u: u32,
        act: LaneMask,
        val: LaneMask,
    ) -> (LaneMask, LaneMask) {
        if let Some((adopt, _)) = &self.collapse {
            let heard = adopt.mask(&self.tapes.fault, phase as u64, act);
            return (heard, val & heard);
        }
        let m = self.m;
        k.clear();
        for t in 0..m {
            k.add_masked(
                self.model
                    .corrupt_mask(&self.tapes, vote_site(t, u), u, act),
                1,
            );
        }
        let hi = (m - m / 2) as u64;
        match self.model.kind() {
            CorruptionKind::Silent => {
                let heard = act & !k.ge_mask(m as u64);
                (heard, val & heard)
            }
            CorruptionKind::Flip => {
                let lo = (m / 2 + 1) as u64;
                (act, (val & !k.ge_mask(hi)) | (act & !val & k.ge_mask(lo)))
            }
            CorruptionKind::Lie => (act, val & !k.ge_mask(hi)),
        }
    }

    /// The round at which the children of `u`, the parent of phase
    /// `phase`, settle in lane `lane`: a majority vote needs the whole
    /// phase, while silent corruption adopts at the first clean
    /// transmission. The coins are pure functions of (site, lane), so
    /// resolving this lazily, after the walk, is exact.
    fn round(&self, phase: usize, u: u32, lane: u32) -> usize {
        let m = self.m;
        match (&self.collapse, self.model.kind()) {
            (Some((_, ln_p)), _) => {
                phase * m + phase_t(&self.tapes.fault, phase as u64, lane, *ln_p, m) + 1
            }
            (None, CorruptionKind::Silent) => {
                let t = (0..m)
                    .find(|&t| {
                        !self
                            .model
                            .corrupt_lane(&self.tapes, vote_site(t, u), u, lane)
                    })
                    .expect("an adopting phase has a clean transmission");
                phase * m + t + 1
            }
            (None, _) => (phase + 1) * m,
        }
    }
}

/// A compiled fast-path Simple plan: the BFS spanning structure of the
/// source component (from [`Graph::bfs_tree`]) — its child lists as
/// an in-RAM [`ShardStore`] — plus the phase length `m`.
pub struct FastSimple {
    /// The store-backed phase walks over the child lists.
    passes: ShardedSimple,
}

impl FastSimple {
    /// Compiles a plan broadcasting from `source` with phase length
    /// `m`. A graph disconnected from `source` is allowed (unreachable
    /// nodes never adopt; the outcome reports the correct fraction).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(graph: &Graph, source: NodeId, m: usize) -> Self {
        let n = graph.node_count();
        let (order, child_offsets, children) = graph.bfs_tree(u32::from(source)).into_parts();
        let store = ShardStore::Ram(RamShards::new(
            child_offsets,
            children,
            ShardPlan::uniform(n, 1),
        ));
        FastSimple {
            passes: ShardedSimple::new(store, order, u32::from(source), m),
        }
    }

    /// Re-cuts the child-list store along `plan`, so the phase walks
    /// visit one node-range shard at a time. Outcome-neutral: every
    /// entry point returns the same bytes for every plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count.
    #[must_use]
    pub fn with_shard_plan(mut self, plan: ShardPlan) -> Self {
        self.passes.runs = plan.runs(&self.passes.order);
        let ShardStore::Ram(ram) = self.passes.store else {
            unreachable!("fast plans hold RAM stores")
        };
        self.passes.store = ShardStore::Ram(ram.with_plan(plan));
        self
    }

    /// The phase length `m`.
    #[must_use]
    pub fn phase_len(&self) -> usize {
        self.passes.m
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.passes.n
    }

    /// Total rounds one execution takes: `n · m`, exactly as the
    /// trait-object `SimplePlan` (phases are scheduled for every node,
    /// reachable or not).
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.passes.total_rounds()
    }

    /// The whole child lists, for `run` and `preprocess`.
    fn ram(&self) -> &RamShards {
        let ShardStore::Ram(ram) = &self.passes.store else {
            unreachable!("fast plans hold RAM stores")
        };
        ram
    }

    /// Executes one seeded broadcast with per-(node, round) transmitter
    /// omission probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run(&self, p: f64, seed: u64) -> FastSimpleOutcome {
        let sampler = FaultSampler::new(p);
        let ram = self.ram();
        let (n, m) = (self.node_count(), self.phase_len());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut correct = InformedSet::new(n);
        correct.insert(self.passes.source);
        let almost_target = n.saturating_sub(1).max(1);
        let mut almost_round = (correct.count() >= almost_target).then_some(0);
        let mut last_adoption = 0usize;

        for (phase, &u) in self.passes.order.iter().enumerate() {
            let kids = ram.targets_of(u);
            if kids.is_empty() {
                continue;
            }
            // One draw per internal node, whether or not its subtree is
            // still in play: the draw count must not depend on `p` or
            // on earlier outcomes, or the per-seed monotone coupling
            // (and determinism of the stream) would break.
            let t = sampler.first_success(&mut rng);
            if t >= m || !correct.contains(u) {
                continue;
            }
            // All children hear the first working transmission of u's
            // phase simultaneously (rounds are 1-based).
            let round = phase * m + t + 1;
            for &c in kids {
                correct.insert(c);
            }
            last_adoption = round;
            if almost_round.is_none() && correct.count() >= almost_target {
                almost_round = Some(round);
            }
        }

        FastSimpleOutcome {
            n,
            m,
            almost_round,
            last_adoption,
            correct,
        }
    }

    /// Hands `model` the plan's broadcast-tree topology — call once
    /// before the first `*_model` run so placement instances
    /// ([`crate::kernel::WorstCasePlacement`]) can pin their node set;
    /// a no-op for the coin-only instances.
    pub fn preprocess<M: FaultModel + ?Sized>(&self, model: &mut M) {
        let ram = self.ram();
        model.preprocess_tree(
            ram.offsets(),
            ram.targets(),
            &self.passes.order,
            self.passes.source,
        );
    }

    /// Scalar replay of lane `lane` of batched block `block_seed` under
    /// `model` ([`Omission`] for plain i.i.d. omission at rate `p`) —
    /// see the vote rules of the phase resolution. I.i.d. `Silent`
    /// instances take the omission collapse: the same per-internal-node
    /// resolution as [`run`](Self::run), but the phase draw is lane
    /// `lane` of the site-addressed batch tape (site = phase index)
    /// instead of a draw from a sequential RNG — see `phase_t` for the
    /// two-stage coupling. The sampled process is statistically
    /// identical to [`run`](Self::run), and the site addressing is what
    /// lets [`run_batch_model`](Self::run_batch_model) reproduce this
    /// outcome *exactly*, lane for lane — see
    /// [`FastSimpleBatch::lane_outcome`].
    ///
    /// The outcome's `correct` set holds the nodes whose final value is
    /// the source bit: under malicious corruption a node can be
    /// informed yet *wrong*, and only correct nodes count toward
    /// completion and the almost-complete crossing.
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
    ) -> FastSimpleOutcome {
        self.passes
            .lane_pass(self.passes.views(), model, block_seed, lane)
            .expect("RAM stores never fail a read")
    }

    /// Runs the live lanes `lanes` of block `block_seed` under `model`:
    /// the correct set is a lane word per node, and per phase one
    /// bit-sliced corruption count over the `m` transmission coins
    /// resolves every live lane's majority vote at once. I.i.d. `Silent`
    /// instances take the omission collapse instead: each internal
    /// node's phase resolves as one bit-sliced adoption mask
    /// (Bernoulli(`1 − p^m`), restricted to lanes whose parent is
    /// correct). The source is seeded in the live lanes alone, so a lane
    /// outside the mask never adopts and no walk, coin or count visits
    /// it, and the batch's views of it are unspecified. Live lane `k` of
    /// the result is byte-identical to
    /// [`run_lane_model`](Self::run_lane_model)`(model, block_seed, k)`
    /// whatever the mask.
    ///
    /// Round *numbers* (the almost-complete crossing and the last
    /// adoption) need the within-phase transmission index `t`, which
    /// only matters for at most two phases per lane; those lanes'
    /// 53-bit uniforms are extracted lazily after the single forward
    /// pass instead of being resolved for every node.
    #[must_use]
    pub fn run_batch_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lanes: LaneMask,
    ) -> FastSimpleBatch {
        self.passes
            .batch_pass(self.passes.views(), model, block_seed, lanes)
            .expect("RAM stores never fail a read")
    }
}

/// Simple broadcasting over a [`ShardStore`] holding the BFS tree's
/// **child lists** — in RAM, or as directed disk segments built by
/// `randcast_graph::shard::ShardedBfsTree` without ever materializing
/// the monolithic tree. The walk follows the (level, id)-sorted phase
/// order in maximal same-shard runs — the order is already
/// segment-ordered, so sharding is a pure access-path change and
/// outcomes are **bit-identical** to [`FastSimple::run_lane_model`] /
/// [`FastSimple::run_batch_model`] on the same tree. Vote state (the correct
/// set, the almost-complete crossing, the last adoption phase) is
/// node-level and stays resident; only one shard's child rows are in
/// memory at a time.
pub struct ShardedSimple {
    store: ShardStore,
    order: Vec<u32>,
    source: u32,
    n: usize,
    m: usize,
    prefetch: bool,
    /// The shards the phase walk visits, one per same-shard run.
    runs: Vec<usize>,
}

impl ShardedSimple {
    /// Wraps a child-list store and its (level, id)-sorted phase order
    /// for Simple broadcasting from `source` with `m`-round phases.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero, `source` is out of range, or the order
    /// does not start at `source` (the phase walk requires the
    /// parents-before-children (level, id) sort, whose first entry is
    /// always the source).
    #[must_use]
    pub fn new(store: ShardStore, order: Vec<u32>, source: u32, m: usize) -> Self {
        assert!(m > 0, "phase length must be positive");
        let n = store.node_count();
        assert!((source as usize) < n, "source out of range");
        assert_eq!(order.first(), Some(&source), "order must start at source");
        let runs = store.plan().runs(&order);
        ShardedSimple {
            store,
            order,
            source,
            n,
            m,
            prefetch: true,
            runs,
        }
    }

    /// Enables or disables the segment prefetch pipeline
    /// (outcome-neutral; only meaningful for disk stores).
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Phase length `m`.
    #[must_use]
    pub fn phase_len(&self) -> usize {
        self.m
    }

    /// Total protocol rounds (`n · m`).
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.n * self.m
    }

    /// Scalar lane replay under omission at rate `p` over the shard
    /// store; bit-identical to [`FastSimple::run_lane_model`] with
    /// [`Omission`] on the same tree.
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
    ) -> Result<FastSimpleOutcome, ShardError> {
        self.lane_pass(self.views(), &Omission::new(p), block_seed, lane)
    }

    /// One batched 64-lane block under omission at rate `p` over the
    /// shard store — the lane semantics of
    /// [`FastSimple::run_batch_model`], with every segment read
    /// amortized across all 64 trials. Per-lane outcomes are
    /// byte-identical to 64 scalar [`run_lane`](Self::run_lane) replays
    /// of the same block seed.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn run_batch(&self, p: f64, block_seed: u64) -> Result<FastSimpleBatch, ShardError> {
        self.batch_pass(self.views(), &Omission::new(p), block_seed, !0)
    }

    /// The per-pass segment reader over the store.
    fn views(&self) -> PassLoader<'_> {
        PassLoader::new(&self.store, self.prefetch)
    }

    /// The scalar lane pass: one [`PassLoader::walk`] over the phase
    /// order. Rounds resolve after the walk, for the last correct
    /// adoption and the almost-complete crossing only.
    fn lane_pass<M: FaultModel + ?Sized>(
        &self,
        mut views: PassLoader<'_>,
        model: &M,
        block_seed: u64,
        lane: u32,
    ) -> Result<FastSimpleOutcome, ShardError> {
        assert!((lane as usize) < LANES, "lane out of range");
        let phases = Phases::new(model, block_seed, self.m);
        let bit: LaneMask = 1u64 << lane;
        let mut k = LaneCounter::new();
        let n = self.n;
        let mut informed = InformedSet::new(n);
        let mut correct = InformedSet::new(n);
        informed.insert(self.source);
        correct.insert(self.source);
        let almost_target = n.saturating_sub(1).max(1);
        let mut last_phase = None;
        let mut almost_phase = None;

        views.walk(&self.order, &self.runs, |phase, u, kids| {
            // Coins are pure functions of (site, lane): skipping a dead
            // subtree reads nothing.
            if !kids.is_empty() && informed.contains(u) {
                let val = if correct.contains(u) { bit } else { 0 };
                let (heard, right) = phases.resolve(&mut k, phase, u, bit, val);
                for &c in kids.iter().filter(|_| heard != 0) {
                    informed.insert(c);
                    if right != 0 {
                        correct.insert(c);
                    }
                }
                // A correct adoption implies a heard one.
                if right != 0 {
                    last_phase = Some(phase);
                    if almost_phase.is_none() && correct.count() >= almost_target {
                        almost_phase = Some(phase);
                    }
                }
            }
            true
        })?;

        let round = |phase: usize| phases.round(phase, self.order[phase], lane);
        Ok(FastSimpleOutcome {
            n,
            m: self.m,
            almost_round: if 1 >= almost_target {
                Some(0)
            } else {
                almost_phase.map(round)
            },
            last_adoption: last_phase.map_or(0, round),
            correct,
        })
    }

    /// The 64-lane pass: the lane pass's walk with every phase resolved
    /// for all lanes at once (restricted to lanes whose parent is
    /// informed). Each lane's last correct adoption phase is tracked
    /// forward — a phase adopting in all 64 lanes sets one shared mark,
    /// the others mark lane by lane — so no segment is read twice, and
    /// the rounds of the at most two stat-relevant phases per lane
    /// resolve lazily after the walk. The source is seeded in `lanes`
    /// only, so no phase resolves another lane.
    fn batch_pass<M: FaultModel + ?Sized>(
        &self,
        mut views: PassLoader<'_>,
        model: &M,
        block_seed: u64,
        lanes: LaneMask,
    ) -> Result<FastSimpleBatch, ShardError> {
        let phases = Phases::new(model, block_seed, self.m);
        let n = self.n;
        // Silent corruption never delivers a wrong value, so there a
        // node is informed exactly where it is correct and the value
        // masks track both.
        let silent = model.kind() == CorruptionKind::Silent;
        let mut value_masks: Vec<LaneMask> = vec![0; n];
        let mut heard_masks: Vec<LaneMask> = if silent { Vec::new() } else { vec![0; n] };
        value_masks[self.source as usize] = lanes;
        if !silent {
            heard_masks[self.source as usize] = lanes;
        }
        let mut counts = LaneCounter::new();
        counts.add_masked(lanes, 1);
        let almost_target = n.saturating_sub(1).max(1) as u64;
        let mut almost_done: LaneMask = if 1 >= almost_target { !0 } else { 0 };
        let mut almost_phase = [0u32; LANES];
        let mut last_phase = [0u32; LANES];
        let mut last_shared = 0u32;
        let mut adopted: LaneMask = 0;
        let mut k = LaneCounter::new();

        views.walk(&self.order, &self.runs, |phase, u, kids| {
            let act = if silent {
                value_masks[u as usize]
            } else {
                heard_masks[u as usize]
            };
            if kids.is_empty() || act == 0 {
                return true;
            }
            let (heard, right) = phases.resolve(&mut k, phase, u, act, value_masks[u as usize]);
            if heard == 0 {
                return true;
            }
            // Tree children have unique parents: each child's mask is
            // written exactly once, by its own parent's phase.
            for &c in kids {
                value_masks[c as usize] = right;
                if !silent {
                    heard_masks[c as usize] = heard;
                }
            }
            counts.add_masked(right, kids.len() as u64);
            if right == !0 {
                last_shared = phase as u32;
            } else {
                let mut bits = right;
                while bits != 0 {
                    last_phase[bits.trailing_zeros() as usize] = phase as u32;
                    bits &= bits - 1;
                }
            }
            adopted |= right;
            if almost_done != !0 {
                let mut bits = counts.ge_mask(almost_target) & !almost_done;
                almost_done |= bits;
                while bits != 0 {
                    almost_phase[bits.trailing_zeros() as usize] = phase as u32;
                    bits &= bits - 1;
                }
            }
            true
        })?;

        let round = |phase: u32, lane: u32| {
            let phase = phase as usize;
            phases.round(phase, self.order[phase], lane)
        };
        let mut last_adoption = vec![0usize; LANES];
        let mut almost_round: Vec<Option<usize>> = vec![None; LANES];
        for lane in 0..LANES as u32 {
            let li = lane as usize;
            if adopted >> lane & 1 == 1 {
                last_adoption[li] = round(last_phase[li].max(last_shared), lane);
            }
            almost_round[li] = if 1 >= almost_target {
                Some(0)
            } else if almost_done >> lane & 1 == 1 {
                Some(round(almost_phase[li], lane))
            } else {
                None
            };
        }

        Ok(FastSimpleBatch {
            n,
            m: self.m,
            correct: BatchedInformedSet::from_parts(value_masks, counts),
            almost_round,
            last_adoption,
        })
    }
}

/// Outcome of one batched 64-lane Simple block; per-lane views are
/// byte-identical to the corresponding [`FastSimple::run_lane_model`]
/// replay.
#[derive(Clone, PartialEq, Debug)]
pub struct FastSimpleBatch {
    n: usize,
    m: usize,
    correct: BatchedInformedSet,
    almost_round: Vec<Option<usize>>,
    last_adoption: Vec<usize>,
}

impl FastSimpleBatch {
    /// Number of nodes in the graph.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds the fixed schedule executes: `n · m`.
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.n * self.m
    }

    /// Whether lane `k`'s trial ended with every node correct.
    #[must_use]
    pub fn complete(&self, lane: u32) -> bool {
        self.correct.count(lane) == self.n
    }

    /// Lane `k`'s completion round: `total_rounds` for successful
    /// trials (Simple has no early termination), `None` otherwise.
    #[must_use]
    pub fn completion_round(&self, lane: u32) -> Option<usize> {
        self.complete(lane).then(|| self.total_rounds())
    }

    /// Lane `k`'s first round with an almost-complete (`≥ n − 1`)
    /// correct set.
    #[must_use]
    pub fn almost_complete_round(&self, lane: u32) -> Option<usize> {
        self.almost_round[lane as usize]
    }

    /// Lane `k`'s last successful adoption round (0 when only the
    /// source is correct).
    #[must_use]
    pub fn last_adoption_round(&self, lane: u32) -> usize {
        self.last_adoption[lane as usize]
    }

    /// Lane `k`'s final correct count.
    #[must_use]
    pub fn correct_count(&self, lane: u32) -> usize {
        self.correct.count(lane)
    }

    /// Lane `k`'s final correct fraction.
    #[must_use]
    pub fn correct_fraction(&self, lane: u32) -> f64 {
        self.correct.count(lane) as f64 / self.n as f64
    }

    /// The lanes in which node `v` ended correct.
    #[must_use]
    pub fn lanes(&self, v: u32) -> LaneMask {
        self.correct.lanes(v)
    }

    /// Reconstructs lane `k`'s full scalar outcome — equal to
    /// [`FastSimple::run_lane_model`] with the same block seed and lane. For a
    /// lane outside the live mask of a
    /// [`run_batch_model`](FastSimple::run_batch_model) call this and every
    /// other per-lane view are unspecified.
    #[must_use]
    pub fn lane_outcome(&self, lane: u32) -> FastSimpleOutcome {
        let mut correct = InformedSet::new(self.n);
        for v in 0..self.n as u32 {
            if self.correct.lane_contains(v, lane) {
                correct.insert(v);
            }
        }
        FastSimpleOutcome {
            n: self.n,
            m: self.m,
            almost_round: self.almost_round[lane as usize],
            last_adoption: self.last_adoption[lane as usize],
            correct,
        }
    }
}

/// Outcome of one fast-path Simple broadcast: the correct set plus
/// derived metrics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FastSimpleOutcome {
    n: usize,
    m: usize,
    correct: InformedSet,
    almost_round: Option<usize>,
    last_adoption: usize,
}

impl FastSimpleOutcome {
    /// Number of nodes in the graph.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The phase length the plan ran with.
    #[must_use]
    pub fn phase_len(&self) -> usize {
        self.m
    }

    /// Rounds the fixed schedule executes: `n · m`.
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.n * self.m
    }

    /// Whether every node ended holding the source bit — the paper's
    /// success criterion.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.correct.count() == self.n
    }

    /// The round by which the broadcast was (knowably) complete. Simple
    /// is a fixed-length protocol with no early termination, so this is
    /// exactly [`total_rounds`](Self::total_rounds) for successful
    /// trials and `None` otherwise; the last actual adoption happens at
    /// [`last_adoption_round`](Self::last_adoption_round).
    #[must_use]
    pub fn completion_round(&self) -> Option<usize> {
        self.complete().then(|| self.total_rounds())
    }

    /// The round of the last successful adoption along a correct chain
    /// (0 when only the source is correct) — the transient behind the
    /// fixed schedule.
    #[must_use]
    pub fn last_adoption_round(&self) -> usize {
        self.last_adoption
    }

    /// Number of nodes holding the source bit at the end.
    #[must_use]
    pub fn correct_count(&self) -> usize {
        self.correct.count()
    }

    /// Correct fraction `correct / n` — the Simple sibling of the
    /// flood kernels' informed fraction.
    #[must_use]
    pub fn correct_fraction(&self) -> f64 {
        self.correct.count() as f64 / self.n as f64
    }

    /// Whether node `v` ended holding the source bit.
    #[must_use]
    pub fn is_correct(&self, v: NodeId) -> bool {
        self.correct.contains(u32::from(v))
    }

    /// The first round by which at least `n − 1` nodes held the source
    /// bit — the almost-complete (`1 − 1/n`) metric.
    #[must_use]
    pub fn almost_complete_round(&self) -> Option<usize> {
        self.almost_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_graph::{generators, Graph, GraphBuilder};

    fn plan(g: &Graph, m: usize) -> FastSimple {
        FastSimple::new(g, g.node(0), m)
    }

    #[test]
    fn fault_free_broadcast_is_fully_correct() {
        for g in [
            generators::path(9),
            generators::grid(4, 5),
            generators::star(7),
            generators::lower_bound_graph(3),
        ] {
            let fs = plan(&g, 3);
            let out = fs.run(0.0, 1);
            assert!(out.complete());
            assert_eq!(out.correct_count(), g.node_count());
            assert_eq!(out.completion_round(), Some(3 * g.node_count()));
            assert_eq!(out.total_rounds(), 3 * g.node_count());
            // Every adoption happens in the first round of its parent's
            // phase at p = 0.
            assert_eq!(out.last_adoption_round() % 3, 1);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(6, 6);
        let fs = plan(&g, 4);
        assert_eq!(fs.run(0.6, 9), fs.run(0.6, 9));
        let reference = fs.run(0.9, 0);
        assert!(
            (1..20).any(|seed| fs.run(0.9, seed) != reference),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn star_success_rate_matches_analytic() {
        // Star from the center: one internal node, so
        // P(all correct) = 1 − p^m exactly.
        let g = generators::star(6);
        let (p, m) = (0.5, 3);
        let fs = plan(&g, m);
        let trials = 4000u64;
        let ok = (0..trials).filter(|&s| fs.run(p, s).complete()).count();
        let rate = ok as f64 / trials as f64;
        let expected = 1.0 - p.powi(m as i32);
        assert!((rate - expected).abs() < 0.02, "rate {rate} vs {expected}");
    }

    #[test]
    fn path_success_rate_matches_analytic() {
        // On a path every non-final node is internal:
        // P(all correct) = (1 − p^m)^(n−1).
        let (len, p, m) = (8usize, 0.4f64, 2usize);
        let g = generators::path(len);
        let fs = plan(&g, m);
        let trials = 4000u64;
        let ok = (0..trials).filter(|&s| fs.run(p, s).complete()).count();
        let rate = ok as f64 / trials as f64;
        let expected = (1.0 - p.powi(m as i32)).powi(len as i32);
        assert!((rate - expected).abs() < 0.03, "rate {rate} vs {expected}");
    }

    #[test]
    fn correct_count_is_monotone_in_p_per_seed() {
        let g = generators::grid(7, 7);
        let fs = plan(&g, 2);
        for seed in 0..40 {
            let mut prev = usize::MAX;
            for p in [0.0, 0.3, 0.6, 0.9, 0.99] {
                let c = fs.run(p, seed).correct_count();
                assert!(c <= prev, "seed={seed} p={p}: {c} > {prev}");
                prev = c;
            }
        }
    }

    #[test]
    fn disconnected_graph_reports_partial_fraction() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let g = b.finish().unwrap();
        let fs = plan(&g, 4);
        let out = fs.run(0.0, 1);
        assert!(!out.complete());
        assert_eq!(out.completion_round(), None);
        assert_eq!(out.correct_count(), 3);
        assert!((out.correct_fraction() - 0.6).abs() < 1e-12);
        assert!(out.is_correct(g.node(2)));
        assert!(!out.is_correct(g.node(4)));
        assert_eq!(out.almost_complete_round(), None);
        // The schedule length still covers all n nodes.
        assert_eq!(out.total_rounds(), 20);
    }

    #[test]
    fn single_node_graph_is_trivially_complete() {
        let g = generators::path(0);
        let fs = plan(&g, 5);
        let out = fs.run(0.3, 2);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(5));
        assert_eq!(out.almost_complete_round(), Some(0));
        assert_eq!(out.last_adoption_round(), 0);
    }

    #[test]
    fn almost_complete_precedes_last_adoption_on_success() {
        let g = generators::balanced_tree(2, 4);
        let fs = plan(&g, 6);
        for seed in 0..20 {
            let out = fs.run(0.3, seed);
            if out.complete() {
                let almost = out
                    .almost_complete_round()
                    .expect("complete implies almost");
                assert!(almost <= out.last_adoption_round());
                assert!(out.last_adoption_round() <= out.total_rounds());
            }
        }
    }

    #[test]
    fn adoption_rounds_sit_inside_the_parent_phase() {
        // With m = 1 the first working transmission must be round
        // phase·m + 1 — i.e. fault-free timing — whenever it works.
        let g = generators::path(10);
        let fs = plan(&g, 1);
        let out = fs.run(0.0, 0);
        assert!(out.complete());
        // Last internal node of the path is v9 (phase 9): adoption at
        // round 10 of the 11-round schedule.
        assert_eq!(out.last_adoption_round(), 10);
    }

    #[test]
    fn csr_and_graph_construction_agree() {
        // A generated graph and its copy frozen through the chainable
        // `GraphBuilder` compile to the same plan (and hence
        // bit-identical runs).
        let g = generators::gnp_connected(150, 0.03, &mut SmallRng::seed_from_u64(3));
        let mut b = GraphBuilder::new(g.node_count());
        b.edges(g.edges().map(|(u, v)| (u.index(), v.index())));
        let built = b.finish().expect("valid");
        let a = FastSimple::new(&built, g.node(0), 3);
        let b = plan(&g, 3);
        for seed in 0..5 {
            assert_eq!(a.run(0.5, seed), b.run(0.5, seed));
        }
    }

    #[test]
    fn batch_lanes_reproduce_scalar_lane_replays() {
        let graphs = [
            generators::grid(5, 5),
            generators::star(9),
            generators::path(11),
            generators::balanced_tree(3, 3),
        ];
        for g in &graphs {
            for m in [1usize, 3] {
                let fs = plan(g, m);
                for p in [0.0, 0.3, 0.76, 0.9] {
                    let seed = 2000 + (p * 100.0) as u64 + m as u64;
                    let batch = fs.run_batch_model(&Omission::new(p), seed, !0);
                    for lane in [0u32, 1, 17, 40, 63] {
                        let scalar = fs.run_lane_model(&Omission::new(p), seed, lane);
                        assert_eq!(
                            batch.lane_outcome(lane),
                            scalar,
                            "n={} m={m} p={p} lane={lane}",
                            g.node_count()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_summary_accessors_match_lane_outcomes() {
        let g = generators::grid(6, 5);
        let fs = plan(&g, 2);
        let batch = fs.run_batch_model(&Omission::new(0.55), 42, !0);
        for lane in 0..LANES as u32 {
            let out = batch.lane_outcome(lane);
            assert_eq!(batch.complete(lane), out.complete());
            assert_eq!(batch.completion_round(lane), out.completion_round());
            assert_eq!(
                batch.almost_complete_round(lane),
                out.almost_complete_round()
            );
            assert_eq!(batch.last_adoption_round(lane), out.last_adoption_round());
            assert_eq!(batch.correct_count(lane), out.correct_count());
        }
    }

    #[test]
    fn batch_handles_edge_case_graphs() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let disconnected = b.finish().unwrap();
        for g in [disconnected, generators::path(0), generators::path(1)] {
            let fs = plan(&g, 4);
            for p in [0.0, 0.5] {
                let batch = fs.run_batch_model(&Omission::new(p), 7, !0);
                for lane in [0u32, 31, 63] {
                    assert_eq!(
                        batch.lane_outcome(lane),
                        fs.run_lane_model(&Omission::new(p), 7, lane),
                        "n={} p={p} lane={lane}",
                        g.node_count()
                    );
                }
            }
        }
    }

    #[test]
    fn lane_replay_success_rate_matches_analytic() {
        // The star's single internal node makes P(complete) = 1 − p^m
        // exactly; the lane replays must hit it too (the batch draw is
        // a different but identically distributed coin stream).
        let g = generators::star(6);
        let (p, m) = (0.5, 3);
        let fs = plan(&g, m);
        let blocks = 64u64;
        let mut ok = 0usize;
        for b in 0..blocks {
            let batch = fs.run_batch_model(&Omission::new(p), b, !0);
            ok += (0..LANES as u32).filter(|&l| batch.complete(l)).count();
        }
        let rate = ok as f64 / (blocks as f64 * LANES as f64);
        let expected = 1.0 - p.powi(m as i32);
        assert!((rate - expected).abs() < 0.02, "rate {rate} vs {expected}");
    }

    #[test]
    fn phase_t_follows_the_truncated_geometric_law() {
        // Given adoption, the index of the first clean transmission is
        // Geometric(1 − p) truncated at m: P(t) = (1 − p) p^t / (1 − p^m).
        // Chi-square over 2¹⁶ adopting (site, lane) draws, tail bins
        // with an expected count under 5 pooled, failing beyond the 10⁻⁴
        // tail: the upper 10⁻⁴ quantiles of χ² at 1..=7 degrees of
        // freedom.
        use crate::kernel::{mask_lanes, FAULT_STREAM};
        const CHI2_TAIL: [f64; 7] = [15.137, 18.421, 21.108, 23.513, 25.745, 27.856, 29.878];
        let tape = BatchTape::new(0x7A5E, FAULT_STREAM);
        for p in [0.05f64, 0.3, 0.9] {
            for m in [3usize, 8] {
                let adoption = 1.0 - p.powi(m as i32);
                let adopt = BatchBernoulli::new(adoption);
                let mut counts = vec![0u64; m];
                let (mut draws, mut site) = (0u64, 0u64);
                while draws < 1 << 16 {
                    for lane in mask_lanes(adopt.mask(&tape, site, !0)) {
                        counts[phase_t(&tape, site, lane, p.ln(), m)] += 1;
                        draws += 1;
                    }
                    site += 1;
                }
                let mut bins: Vec<(f64, u64)> = (0..m)
                    .map(|t| {
                        let expected = (1.0 - p) * p.powi(t as i32) / adoption;
                        (draws as f64 * expected, counts[t])
                    })
                    .collect();
                while bins.last().is_some_and(|&(e, _)| e < 5.0) {
                    let (e, o) = bins.pop().unwrap();
                    let last = bins.last_mut().unwrap();
                    last.0 += e;
                    last.1 += o;
                }
                let chi2: f64 = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
                let bound = CHI2_TAIL[bins.len() - 2];
                assert!(
                    chi2 < bound,
                    "p={p} m={m}: χ² = {chi2:.2} over {} bins",
                    bins.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "phase length must be positive")]
    fn zero_phase_len_is_rejected() {
        let g = generators::path(3);
        let _ = plan(&g, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn p_one_is_rejected() {
        let g = generators::path(3);
        let _ = plan(&g, 2).run(1.0, 0);
    }

    #[test]
    fn sharded_lane_and_batch_match_monolithic_exactly() {
        let g = generators::gnp_connected(150, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(13));
        for m in [1usize, 3] {
            let fs = FastSimple::new(&g, g.node(0), m);
            for shards in [2usize, 3, 7] {
                let sharded = FastSimple::new(&g, g.node(0), m)
                    .with_shard_plan(ShardPlan::uniform(g.node_count(), shards));
                for p in [0.0, 0.4, 0.9] {
                    let seed = 17 + shards as u64;
                    assert_eq!(
                        sharded.run_batch_model(&Omission::new(p), seed, !0),
                        fs.run_batch_model(&Omission::new(p), seed, !0),
                        "batch diverged: m={m} shards={shards} p={p}"
                    );
                    for lane in [0u32, 19, 63] {
                        assert_eq!(
                            sharded.run_lane_model(&Omission::new(p), seed, lane),
                            fs.run_lane_model(&Omission::new(p), seed, lane),
                            "lane diverged: m={m} shards={shards} p={p} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_core_simple_matches_the_monolithic_lane_replay() {
        use randcast_graph::shard::{default_scratch_dir, ShardedBfsTree, SpillSink};
        let g = generators::gnp_connected(130, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(12));
        let n = g.node_count();
        let m = 4usize;
        let fs = FastSimple::new(&g, g.node(0), m);
        let plan = ShardPlan::uniform(n, 3);
        // Ram adjacency → disk child segments.
        let adj = ShardStore::Ram(RamShards::from_graph(g.clone(), plan.clone()));
        let tree = ShardedBfsTree::build(&adj, 0, default_scratch_dir()).expect("tree");
        let (order, children) = tree.into_parts();
        let ram_tree = ShardedSimple::new(ShardStore::Disk(children), order, 0, m);
        // Disk adjacency → disk child segments, exercising the full
        // spill pipeline end to end.
        let mut sink = SpillSink::create(default_scratch_dir(), plan).expect("sink");
        for v in 0..n {
            for &t in g.targets_of(v as u32) {
                if (v as u32) < t {
                    sink.push(v as u64, u64::from(t)).expect("push");
                }
            }
        }
        let disk_adj = ShardStore::Disk(sink.finalize().expect("finalize"));
        let tree2 = ShardedBfsTree::build(&disk_adj, 0, default_scratch_dir()).expect("tree");
        let (order2, children2) = tree2.into_parts();
        let disk_tree = ShardedSimple::new(ShardStore::Disk(children2), order2, 0, m);
        for p in [0.0, 0.5, 0.9] {
            for lane in [0u32, 7, 63] {
                let mono = fs.run_lane_model(&Omission::new(p), 99, lane);
                assert_eq!(
                    ram_tree.run_lane(p, 99, lane).expect("ram tree"),
                    mono,
                    "ram-adjacency tree p={p} lane={lane}"
                );
                assert_eq!(
                    disk_tree.run_lane(p, 99, lane).expect("disk tree"),
                    mono,
                    "disk-adjacency tree p={p} lane={lane}"
                );
            }
        }
    }

    #[test]
    fn out_of_core_simple_batch_and_prefetch_are_byte_invisible() {
        use randcast_graph::shard::{default_scratch_dir, ShardedBfsTree};
        let g = generators::gnp_connected(400, 0.02, &mut rand::rngs::SmallRng::seed_from_u64(17));
        let n = g.node_count();
        let m = 3usize;
        let fs = FastSimple::new(&g, g.node(0), m);
        let plan = ShardPlan::uniform(n, 3);
        let adj = ShardStore::Ram(RamShards::from_graph(g.clone(), plan.clone()));
        let tree = ShardedBfsTree::build(&adj, 0, default_scratch_dir()).expect("tree");
        let (order, children) = tree.into_parts();
        let mut simple = ShardedSimple::new(ShardStore::Disk(children), order, 0, m);
        for p in [0.0, 0.5, 0.9] {
            let mono = fs.run_batch_model(&Omission::new(p), 47, !0);
            for prefetch in [true, false] {
                simple = simple.with_prefetch(prefetch);
                assert_eq!(
                    simple.run_batch(p, 47).expect("batch"),
                    mono,
                    "batch diverged: p={p} prefetch={prefetch}"
                );
            }
            for lane in [0u32, 31, 63] {
                assert_eq!(
                    simple.run_lane(p, 47, lane).expect("lane"),
                    mono.lane_outcome(lane),
                    "lane diverged: p={p} lane={lane}"
                );
            }
        }
    }

    use crate::kernel::{
        CorruptionKind, FlipFault, LieOrJamFault, Omission, ThrottledFault, WorstCasePlacement,
    };

    #[test]
    fn model_batch_lanes_reproduce_model_lane_replays() {
        let graphs = [
            generators::grid(5, 5),
            generators::star(9),
            generators::path(11),
            generators::balanced_tree(3, 3),
        ];
        for g in &graphs {
            for m in [1usize, 3, 4] {
                let fs = plan(g, m);
                for p in [0.0, 0.3, 0.76] {
                    let flip = FlipFault::new(p);
                    let lie = LieOrJamFault::new(p);
                    let models: [&dyn FaultModel; 2] = [&flip, &lie];
                    for model in models {
                        let seed = 3000 + (p * 100.0) as u64 + m as u64;
                        let batch = fs.run_batch_model(model, seed, !0);
                        for lane in [0u32, 1, 17, 40, 63] {
                            let scalar = fs.run_lane_model(model, seed, lane);
                            assert_eq!(
                                batch.lane_outcome(lane),
                                scalar,
                                "{} n={} m={m} p={p} lane={lane}",
                                model.name(),
                                g.node_count()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn silent_iid_models_delegate_byte_identically_to_the_omission_kernel() {
        let g = generators::grid(6, 6);
        let fs = plan(&g, 3);
        let om = Omission::new(0.6);
        let throttled = ThrottledFault::try_new(Omission::new(0.9), 0.6).expect("feasible");
        let eff = throttled.iid_rate().expect("iid inner stays iid");
        assert!((eff - 0.6).abs() < 1e-12, "effective rate {eff}");
        for seed in 0..2 {
            assert_eq!(
                fs.run_batch_model(&throttled, seed, !0),
                fs.run_batch_model(&Omission::new(eff), seed, !0)
            );
        }
        // The throttled lanes, and the omission instance behind a trait
        // object (how scenarios run every other model), replay the
        // monomorphized omission kernel byte for byte.
        let boxed: &dyn FaultModel = &om;
        for seed in 0..4 {
            assert_eq!(
                fs.run_batch_model(&om, seed, !0),
                fs.run_batch_model(boxed, seed, !0)
            );
            for lane in [0u32, 33] {
                let want = fs.run_lane_model(&om, seed, lane);
                assert_eq!(fs.run_lane_model(boxed, seed, lane), want);
                assert_eq!(fs.run_lane_model(&throttled, seed, lane), want);
            }
        }
    }

    #[test]
    fn flip_vote_is_exact_and_end_of_phase_at_p_zero() {
        let g = generators::grid(4, 5);
        let fs = plan(&g, 3);
        let out = fs.run_lane_model(&FlipFault::new(0.0), 7, 5);
        assert!(out.complete());
        // Majority votes settle at the end of the parent's phase.
        assert_eq!(out.last_adoption_round() % 3, 0);
    }

    #[test]
    fn throttled_flip_matches_unthrottled_at_full_rate() {
        // keep_prob = 1: every keep coin keeps, so the corrupt sites are
        // exactly the inner model's and outcomes match lane for lane.
        let g = generators::balanced_tree(2, 4);
        let fs = plan(&g, 3);
        let inner = FlipFault::new(0.4);
        let throttled = ThrottledFault::try_new(inner, 0.4).expect("feasible");
        for seed in 0..4 {
            assert_eq!(
                fs.run_batch_model(&inner, seed, !0),
                fs.run_batch_model(&throttled, seed, !0)
            );
        }
    }

    #[test]
    fn placed_silent_faults_sever_exactly_the_placed_subtrees() {
        // Path 0-1-2-3-4 from 0: node 1 has the heaviest subtree, so a
        // 0.25 budget pins it; its transmissions all die and nodes 2..4
        // never hear anything, while node 1 itself still adopts.
        let g = generators::path(4);
        let fs = plan(&g, 3);
        let mut model = WorstCasePlacement::new(0.25, CorruptionKind::Silent);
        fs.preprocess(&mut model);
        assert_eq!(model.placed_count(), 1);
        assert!(model.is_placed(1));
        for seed in 0..3 {
            let out = fs.run_lane_model(&model, seed, 0);
            assert_eq!(out.correct_count(), 2);
            assert!(out.is_correct(g.node(1)));
            assert!(!out.is_correct(g.node(2)));
            // Clean parents adopt at the first round of the phase.
            assert_eq!(out.last_adoption_round() % 3, 1);
            let batch = fs.run_batch_model(&model, seed, !0);
            assert_eq!(batch.lane_outcome(17), fs.run_lane_model(&model, seed, 17));
        }
    }

    #[test]
    fn placed_flip_faults_poison_exactly_the_placed_subtrees() {
        // Same placement under Flip: node 1 adopts correctly but its
        // all-flipped phase hands nodes 2..4 the inverted bit — they
        // end informed yet wrong.
        let g = generators::path(4);
        let fs = plan(&g, 3);
        let mut model = WorstCasePlacement::new(0.25, CorruptionKind::Flip);
        fs.preprocess(&mut model);
        let out = fs.run_lane_model(&model, 0, 0);
        assert_eq!(out.correct_count(), 2);
        assert!(out.is_correct(g.node(1)));
        assert!(!out.is_correct(g.node(4)));
    }

    /// Asserts every live lane of `masked` (run over `lanes`) equals the
    /// full block's lane and the scalar replay `want`, through
    /// `lane_outcome` and the per-lane accessors the scenario layer
    /// reads.
    fn assert_live_lanes(
        masked: &FastSimpleBatch,
        full: &FastSimpleBatch,
        lanes: LaneMask,
        want: impl Fn(u32) -> FastSimpleOutcome,
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
            assert_eq!(masked.correct_count(lane), want.correct_count(), "{label}");
        }
    }

    #[test]
    fn masked_blocks_match_full_blocks_and_lane_replays() {
        // A masked-out lane never adopts, so no phase resolves it; each
        // live lane of a masked block must equal its full-block lane and
        // its lane replay under the omission collapse, the Flip and Lie
        // votes and a (throttled, so lane-varying) placed model, on
        // one, three and three disk shards.
        use crate::kernel::TEST_LANE_MASKS;
        use randcast_graph::shard::{default_scratch_dir, ShardedBfsTree};
        let g = generators::gnp_connected(150, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(29));
        let n = g.node_count();
        let m = 4;
        let one = FastSimple::new(&g, g.node(0), m);
        let three = FastSimple::new(&g, g.node(0), m).with_shard_plan(ShardPlan::uniform(n, 3));
        let adj = ShardStore::Ram(RamShards::from_graph(g.clone(), ShardPlan::uniform(n, 3)));
        let tree = ShardedBfsTree::build(&adj, 0, default_scratch_dir()).expect("tree");
        let (order, children) = tree.into_parts();
        let disk = ShardedSimple::new(ShardStore::Disk(children), order, 0, m);
        let p = 0.35;
        let mut placed = WorstCasePlacement::new(0.2, CorruptionKind::Silent);
        one.preprocess(&mut placed);
        let throttled = ThrottledFault::try_new(placed, 0.1).unwrap();
        let (omission, flip, lie) = (Omission::new(p), FlipFault::new(p), LieOrJamFault::new(p));
        let models: [&dyn FaultModel; 4] = [&omission, &flip, &lie, &throttled];
        for model in models {
            for seed in [5u64, 6] {
                let full = one.run_batch_model(model, seed, !0);
                for lanes in TEST_LANE_MASKS {
                    let disk_block = disk.batch_pass(disk.views(), model, seed, lanes).unwrap();
                    let blocks = [
                        (one.run_batch_model(model, seed, lanes), "k=1"),
                        (three.run_batch_model(model, seed, lanes), "k=3"),
                        (disk_block, "disk k=3"),
                    ];
                    for (masked, what) in &blocks {
                        assert_live_lanes(
                            masked,
                            &full,
                            lanes,
                            |lane| one.run_lane_model(model, seed, lane),
                            &format!("{} {what} seed={seed}", model.name()),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_model_runs_match_monolithic_exactly() {
        let g = generators::gnp_connected(150, 0.03, &mut rand::rngs::SmallRng::seed_from_u64(13));
        let fs = FastSimple::new(&g, g.node(0), 3);
        let flip = FlipFault::new(0.4);
        let lie = LieOrJamFault::new(0.2);
        let models: [&dyn FaultModel; 2] = [&flip, &lie];
        for shards in [2usize, 3, 7] {
            let sharded = FastSimple::new(&g, g.node(0), 3)
                .with_shard_plan(ShardPlan::uniform(g.node_count(), shards));
            for model in models {
                let seed = 17 + shards as u64;
                assert_eq!(
                    sharded.run_batch_model(model, seed, !0),
                    fs.run_batch_model(model, seed, !0),
                    "batch diverged: {} shards={shards}",
                    model.name()
                );
                for lane in [0u32, 19, 63] {
                    assert_eq!(
                        sharded.run_lane_model(model, seed, lane),
                        fs.run_lane_model(model, seed, lane),
                        "lane diverged: {} shards={shards} lane={lane}",
                        model.name()
                    );
                }
            }
        }
    }
}
