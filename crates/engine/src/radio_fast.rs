//! A specialized large-`n` fast path for the radio model: Decay (and
//! the all-informed-transmit baseline) under omission faults, without
//! per-node automata.
//!
//! The general [`RadioNetwork`](crate::radio::RadioNetwork) pays for
//! its generality every round: one `act` and one `recv` call per node,
//! an intention vector of `n` enum values, a fault coin for all `n`
//! nodes, and a reception count at every neighbor of every transmitter.
//! Informed-set dynamics need none of that. An uninformed node hears
//! iff **exactly one** of its neighbors transmits, and the only nodes
//! whose transmissions an uninformed node can hear are informed nodes
//! with at least one uninformed neighbor — the *frontier*. [`FastRadio`]
//! therefore simulates only the frontier, on the shared
//! [`kernel`](crate::kernel) substrate:
//!
//! * the informed set is a word-level
//!   [`InformedSet`] bitmask,
//! * adjacency is the flat `u32` CSR of a [`Graph`], held as an
//!   in-RAM [`ShardStore`] — the engine builds no adjacency of its own,
//! * per-round collision resolution is the
//!   [`CollisionCounter`]: saturating
//!   transmitter counts touched only at frontier neighborhoods (hear
//!   iff the count is exactly one), so a round costs `O(m_frontier)`,
//!   not `O(n + m)`,
//! * omission faults are sampled by the aggregate
//!   [`FaultSampler`] — one Bernoulli coin
//!   per participant, or a geometric skip between successful
//!   transmitters when `p > 0.75`,
//! * the run stops as soon as no informed node can ever inform anyone
//!   again (source component exhausted) or the broadcast completes.
//!
//! The [Decay schedule](FastRadioSchedule::Decay) draws its
//! participation coins from the **same per-node tapes** as the
//! trait-object protocol in `randcast_core::decay` ([`decay_tapes`] /
//! [`decay_coin`] are shared with it), so at `p = 0` — where fault
//! randomness vanishes — the two engines agree **exactly, per seed**,
//! not just in distribution. At `p > 0` only the fault coins come from
//! a different stream, so per-seed outcomes differ while every
//! distribution matches; `crates/core/tests/radio_equivalence.rs` pins
//! this with a 250-seed Welch-tolerance suite.
//!
//! Like [`flood_fast`](crate::flood_fast), the kernel is defined on
//! graphs disconnected from the source: it broadcasts over the source's
//! component and reports the informed *fraction* and the
//! almost-complete (`1 − 1/n`) time.
//!
//! The seeded scalar-lane and 64-lane frontier passes are written once,
//! against [`ShardStore`]: [`FastRadio`] runs them over its in-RAM store
//! (one shard, or `k` node-range shards — outcome-neutral), and
//! [`ShardedRadio`] runs the same passes over any store, disk segments
//! included. Both passes are parametric in a
//! [`FaultModel`] (the plain-`p` entry points
//! are the [`Omission`] instance). A `Silent`
//! model's coin silences the transmitter. Corrupted-*value* models
//! (`Flip` / `Lie`, the paper's limited-malicious transmitters) change
//! what a fault does: a corrupted transmitter still transmits — it
//! collides like any other — but the *message* it delivers is
//! corrupted, a sole receiver adopts whatever its one audible neighbor
//! sent, and wrong values propagate. For those the passes carry a value
//! plane — the set of **correctly informed** nodes, whose membership is
//! also the value a node holds, plus the value sent to each listener
//! this round, read only where it heard exactly one transmitter — and
//! the outcome tracks that set, while participation and exhaustion
//! still run on the heard set.
//! Full-malicious radio (lie *or jam*) still needs the adversary hooks
//! of the general engine.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_graph::shard::{PassLoader, RamShards, ShardError, ShardPlan, ShardStore};
use randcast_graph::{Graph, NodeId};
use randcast_stats::seed::{splitmix64, SeedSequence};

use crate::growth::{GrowthBatch, GrowthOutcome, LaneRounds};
use crate::kernel::{
    BatchTape, BatchedInformedSet, CollisionCounter, CorruptionKind, FaultModel, FaultSampler,
    FaultTapes, InformedSet, LaneMask, Omission, DECAY_STREAM, LANES,
};

/// Decay's trial outcome: the [`GrowthOutcome`] flooding and Decay
/// share.
pub type FastRadioOutcome = GrowthOutcome;

/// Decay's 64-lane block outcome: the [`GrowthBatch`] flooding and
/// Decay share.
pub type FastRadioBatch = GrowthBatch;

/// The coin site of `(0-based round, node)`: both the fault coin and
/// the batched Decay participation coin of a node are per-round, so the
/// pair packs losslessly into one `u64` site.
fn radio_site(r0: usize, v: u32) -> u64 {
    (r0 as u64) << 32 | u64::from(v)
}

/// Seed-sequence label under which the Decay protocol derives its
/// per-node coin tapes (shared between the trait-object protocol and
/// the fast kernel so the two stay in lockstep).
pub const DECAY_TAPE_LABEL: u64 = 0xDECA;

/// The per-node tape sequence for a Decay execution rooted at `seed`:
/// node `v`'s tape is `decay_tapes(seed).nth_seed(v)`.
#[must_use]
pub fn decay_tapes(seed: u64) -> SeedSequence {
    SeedSequence::new(seed).child(DECAY_TAPE_LABEL)
}

/// One fair Decay coin for `(tape, epoch, round-in-epoch)`: a node that
/// was active in round `j` of an epoch stays active for round `j + 1`
/// iff this coin is heads. A pure function, so both engines can
/// evaluate it in any order and still agree.
#[must_use]
pub fn decay_coin(tape: u64, epoch: usize, j: usize) -> bool {
    splitmix64(
        tape ^ (epoch as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (j as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
    ) & 1
        == 1
}

/// Which transmission schedule the fast radio kernel executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FastRadioSchedule {
    /// Bar-Yehuda–Goldreich–Itai *Decay*: epochs of `epoch_len` rounds;
    /// every informed node starts each epoch transmitting and halves
    /// its participation probability each round (transmit in round `j`
    /// with probability `2^{−j}`). Nodes informed mid-epoch join at the
    /// next epoch boundary.
    Decay {
        /// Rounds per epoch (the classical choice is `⌈log₂ n⌉ + 1`).
        epoch_len: usize,
    },
    /// The degenerate baseline: every informed node transmits every
    /// round (newly informed nodes join the next round). On any node
    /// with two or more informed neighbors this collides until omission
    /// faults happen to silence all but one transmitter — the
    /// contention pathology Decay exists to break.
    AllInformed,
}

impl FastRadioSchedule {
    /// Whether active nodes thin out by Decay coins, and the epoch
    /// length (every round is its own epoch for
    /// [`AllInformed`](Self::AllInformed): everyone re-activates).
    fn epochs(self) -> (bool, usize) {
        match self {
            FastRadioSchedule::Decay { epoch_len } => (true, epoch_len),
            FastRadioSchedule::AllInformed => (false, 1),
        }
    }
}

/// Decay thinning after round `r0` of an epoch: each node of the active
/// list stays active in a lane iff its fair coin at `(r0, v)` is heads
/// there (faults never touch the coin stream — a failed transmitter
/// still decays). Nodes whose mask empties leave the list, so the
/// epoch's later walks visit only nodes that can still transmit; the
/// survivors keep their order.
fn decay_thin(act: &mut [LaneMask], active: &mut Vec<u32>, decay_tape: &BatchTape, r0: usize) {
    active.retain(|&v| {
        let a = &mut act[v as usize];
        *a &= decay_tape.fair_mask(radio_site(r0, v));
        *a != 0
    });
}

/// A compiled fast-path radio plan: the CSR adjacency as an in-RAM
/// [`ShardStore`] plus a schedule and horizon. The adjacency arrays are
/// a copy of the [`Graph`]'s.
pub struct FastRadio {
    /// The store-backed frontier passes over the adjacency.
    passes: ShardedRadio,
}

impl FastRadio {
    /// Compiles a plan broadcasting from `source` for at most `horizon`
    /// rounds under `schedule`. A `horizon` of 0 is allowed (the run
    /// reports only the source informed); a graph disconnected from
    /// `source` is allowed (the broadcast covers the source's
    /// component). The plan copies the graph's CSR arrays into a
    /// one-shard store.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is [`FastRadioSchedule::Decay`] with
    /// `epoch_len == 0`.
    #[must_use]
    pub fn new(graph: &Graph, source: NodeId, horizon: usize, schedule: FastRadioSchedule) -> Self {
        let plan = ShardPlan::uniform(graph.node_count(), 1);
        let store = ShardStore::Ram(RamShards::from_graph(graph.clone(), plan));
        FastRadio {
            passes: ShardedRadio::new(store, u32::from(source), horizon, schedule),
        }
    }

    /// Re-cuts the adjacency store along `plan`, so the frontier passes
    /// walk one node-range shard at a time. Outcome-neutral: every entry
    /// point returns the same bytes for every plan.
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

    /// The whole adjacency arrays, for the passes that read them in RAM.
    fn ram(&self) -> &RamShards {
        let ShardStore::Ram(ram) = &self.passes.store else {
            unreachable!("fast plans hold RAM stores")
        };
        ram
    }

    /// Executes one seeded broadcast with per-(node, round) transmitter
    /// omission probability `p`, running until the horizon or until no
    /// further round can change anything.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn run(&self, p: f64, seed: u64) -> GrowthOutcome {
        let sampler = FaultSampler::new(p);
        let ram = self.ram();
        let (n, horizon) = (self.node_count(), self.horizon());
        let mut rng = SmallRng::seed_from_u64(seed);
        let tapes = decay_tapes(seed);
        let mut informed = InformedSet::new(n);
        informed.insert(self.passes.source);
        let mut informed_by_round = Vec::with_capacity(horizon.min(1024) + 1);
        informed_by_round.push(1);

        // Informed nodes that may still have uninformed neighbors;
        // re-filtered at every epoch boundary, and the only nodes the
        // kernel ever simulates (an informed node all of whose
        // neighbors are informed can neither inform nor collide at an
        // uninformed listener).
        let mut participants: Vec<u32> = vec![self.passes.source];
        let mut active: Vec<u32> = Vec::new();
        let mut transmitters: Vec<u32> = Vec::new();
        let mut counter = CollisionCounter::new(n);
        let (decay, epoch_len) = self.passes.schedule.epochs();

        for round in 1..=horizon {
            if informed.count() == n {
                break; // everyone informed: nothing can change
            }
            // `r0` is the trait-object engine's 0-based round index.
            let r0 = round - 1;
            let j = r0 % epoch_len;
            if j == 0 {
                participants.retain(|&u| ram.targets_of(u).iter().any(|&t| !informed.contains(t)));
                if participants.is_empty() {
                    break; // the source component is exhausted
                }
                active.clear();
                active.extend_from_slice(&participants);
            }

            // Omission faults: each active node's transmitter works
            // with probability 1 − p this round.
            transmitters.clear();
            sampler.successes_into(&mut rng, &active, &mut transmitters);

            // Collision resolution: an uninformed listener hears iff
            // exactly one neighbor transmits.
            for &u in &transmitters {
                for &v in ram.targets_of(u) {
                    if !informed.contains(v) {
                        counter.add(v);
                    }
                }
            }
            counter.drain_sole_receivers(|v| {
                informed.insert(v);
                // Joins the transmitters at the next epoch start.
                participants.push(v);
            });

            informed_by_round.push(informed.count());

            // Decay: a node active in round `j` stays active for round
            // `j + 1` iff its tape coin is heads (faults never touch
            // the coin stream — a failed transmitter still decays).
            if decay && j + 1 < epoch_len {
                let epoch = r0 / epoch_len;
                active.retain(|&u| decay_coin(tapes.nth_seed(u64::from(u)), epoch, j));
            }
        }

        GrowthOutcome::new(n, horizon, informed, informed_by_round)
    }

    /// Runs the model's placement preprocessing against this plan's
    /// CSR adjacency. Call once per plan before any `*_model` run of a
    /// placement-based model.
    pub fn preprocess<M: FaultModel + ?Sized>(&self, model: &mut M) {
        let ram = self.ram();
        model.preprocess_graph(ram.offsets(), ram.targets(), self.passes.source);
    }

    /// Scalar replay of lane `lane` of batched block `block_seed` under
    /// `model` ([`Omission`] for plain i.i.d. omission at rate `p`): the
    /// frontier algorithm of [`run`](Self::run), but every fault coin is
    /// bit `lane` of the site-addressed batch tape (site = per-(round,
    /// node)) and every Decay participation coin is bit `lane` of the
    /// [`DECAY_STREAM`] tape at the same site. Under [`Omission`] the
    /// coins are i.i.d. with the same marginals as [`run`](Self::run),
    /// so the sampled process is statistically identical; the site
    /// addressing is what lets [`run_batch_model`](Self::run_batch_model)
    /// reproduce this outcome *exactly*, lane for lane — see
    /// [`GrowthBatch::lane_outcome`].
    ///
    /// Under a corrupted-value model (`Flip` / `Lie`) a corrupted
    /// transmitter still transmits and collides, but delivers a
    /// corrupted message, and the outcome's informed set and growth
    /// curve track the **correctly informed** nodes.
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
    ) -> GrowthOutcome {
        self.passes
            .lane_pass(self.passes.views(), model, block_seed, lane)
            .expect("RAM stores never fail a read")
    }

    /// Runs the live lanes `lanes` of block `block_seed` under `model`
    /// at once, on one thread: the informed set is a lane word per node,
    /// fault coins are bit-sliced masks, Decay participation coins are
    /// raw fair-coin tape words, and collision resolution is a pair of
    /// saturating lane masks (`≥ 1` / `≥ 2` transmitting neighbors) per
    /// touched listener. The source is seeded in the live lanes alone,
    /// so a lane outside the mask is never informed and no walk, coin or
    /// count visits it, and the batch's views of it are unspecified.
    /// Live lane `k` is byte-identical to
    /// [`run_lane_model`](Self::run_lane_model)`(model, block_seed, k)`
    /// whatever the mask — coins are site-addressed pure functions of
    /// the block seed, so the batched evolution reads exactly the bits
    /// the scalar replay reads.
    ///
    /// A lane's replay stops executing rounds once it completes or once
    /// an epoch boundary finds it without participants; the batch keeps
    /// looping while *any* lane is live and records each lane's stop
    /// round so per-lane growth curves cut off exactly where the scalar
    /// replay's do. See [`run_lane_model`](Self::run_lane_model) for the
    /// corrupted-value semantics.
    #[must_use]
    pub fn run_batch_model<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lanes: LaneMask,
    ) -> GrowthBatch {
        self.passes
            .batch_pass(self.passes.views(), model, block_seed, lanes)
            .expect("RAM stores never fail a read")
    }
}

/// Radio broadcasting over a [`ShardStore`] — RAM or disk segments —
/// loading one shard's CSR rows at a time, so peak RSS on disk stays
/// near one shard plus the node-level state: the `n = 10⁸` path. Its
/// scalar-lane and 64-lane passes are the ones [`FastRadio`] runs over
/// its in-RAM store, so outcomes are **bit-identical** to
/// [`FastRadio::run_lane_model`] / [`FastRadio::run_batch_model`] on
/// the same adjacency: the coin tape and sites are the same, the collision
/// counts accumulate across every shard's transmit pass before the
/// round's single sole-receiver drain, and the epoch-exhaustion sweep
/// reads the participation union only after every shard's refilter has
/// been folded in — the same points in the round where a one-shard
/// pass reads them.
pub struct ShardedRadio {
    store: ShardStore,
    source: u32,
    horizon: usize,
    schedule: FastRadioSchedule,
    prefetch: bool,
}

impl ShardedRadio {
    /// Wraps a shard store for radio broadcasting from `source` over
    /// at most `horizon` rounds under `schedule`. Every pass runs on
    /// the calling thread, with segment prefetch on
    /// ([`with_prefetch`](Self::with_prefetch), outcome-invisible).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or the schedule is
    /// [`FastRadioSchedule::Decay`] with `epoch_len == 0`.
    #[must_use]
    pub fn new(
        store: ShardStore,
        source: u32,
        horizon: usize,
        schedule: FastRadioSchedule,
    ) -> Self {
        if let FastRadioSchedule::Decay { epoch_len } = schedule {
            assert!(epoch_len > 0, "decay epochs need at least one round");
        }
        assert!(
            (source as usize) < store.node_count(),
            "source out of range"
        );
        ShardedRadio {
            store,
            source,
            horizon,
            schedule,
            prefetch: true,
        }
    }

    /// Returns `self` unchanged: both passes run on the calling thread,
    /// so there is no worker count to set. Kept for callers written
    /// against the old drain-thread knob.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables or disables the background segment prefetcher
    /// (byte-outcome-invisible; on by default).
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
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

    /// Scalar lane replay under omission at rate `p` over the shard
    /// store; bit-identical to [`FastRadio::run_lane_model`] with
    /// [`Omission`] on the same adjacency.
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
    ) -> Result<GrowthOutcome, ShardError> {
        self.lane_pass(self.views(), &Omission::new(p), block_seed, lane)
    }

    /// One batched 64-lane block under omission at rate `p` over the
    /// shard store — the lane semantics of [`FastRadio::run_batch_model`],
    /// with every segment read amortized across all 64 trials. Per-lane outcomes are
    /// byte-identical to 64 scalar [`run_lane`](Self::run_lane)
    /// replays of the same block seed.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::SegmentIo`] (and friends) if a disk
    /// segment cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn run_batch(&self, p: f64, block_seed: u64) -> Result<GrowthBatch, ShardError> {
        self.batch_pass(self.views(), &Omission::new(p), block_seed, !0)
    }

    /// The per-pass segment reader over the store.
    fn views(&self) -> PassLoader<'_> {
        PassLoader::new(&self.store, self.prefetch)
    }

    /// The scalar lane pass under any [`FaultModel`]: a `Silent` coin
    /// silences the transmitter, and a `Flip` / `Lie` coin corrupts the
    /// value it sends, which the pass tracks in a value plane (see the
    /// module docs) that a `Silent` model never allocates. Each round
    /// makes one shard-at-a-time transmit pass (plus, at epoch
    /// boundaries, one refilter pass over participant lists first sorted
    /// into node order, as in [`batch_pass`](Self::batch_pass)), walking
    /// the shards in the [`PassLoader`]'s order; one
    /// [`CollisionCounter`] accumulates the counts of every shard and
    /// drains once per round, in first-touch order, routing each sole
    /// receiver to its shard's participant list. For disk
    /// stores each shard pass is served by a segment the loader still
    /// holds, by a full segment read overlapped with the previous
    /// shard's compute (the prefetch pipeline) or, when the pass touches
    /// a small fraction of the shard — the common case under Decay
    /// thinning — by coalesced sparse row reads. Neither choice, nor the
    /// shard order, can change a byte of the outcome: the drain order
    /// reaches only the participant lists, which the next epoch
    /// boundary sorts.
    fn lane_pass<M: FaultModel + ?Sized>(
        &self,
        mut views: PassLoader<'_>,
        model: &M,
        block_seed: u64,
        lane: u32,
    ) -> Result<GrowthOutcome, ShardError> {
        assert!((lane as usize) < LANES, "lane out of range");
        let tapes = FaultTapes::new(block_seed);
        let decay_tape = BatchTape::new(block_seed, DECAY_STREAM);
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut informed = InformedSet::new(n);
        informed.insert(self.source);
        let mut informed_by_round = Vec::with_capacity(self.horizon.min(1024) + 1);
        informed_by_round.push(1);
        // The value plane of a `Flip` / `Lie` model: `correct` holds the
        // correctly informed nodes (membership is also the value a heard
        // node holds) and `sent_to[v]` the value sent to `v` this round,
        // read only when `v` heard exactly one transmitter. `Silent`
        // models leave both empty.
        let kind = model.kind();
        let values = kind != CorruptionKind::Silent;
        let value_n = if values { n } else { 0 };
        let mut correct = InformedSet::new(value_n);
        let mut sent_to = vec![false; value_n];
        if values {
            correct.insert(self.source);
        }

        let mut participants: Vec<Vec<u32>> = vec![Vec::new(); k];
        participants[plan.shard_of(self.source)].push(self.source);
        let mut active: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut counter = CollisionCounter::new(n);
        let (decay, epoch_len) = self.schedule.epochs();

        for round in 1..=self.horizon {
            if informed_by_round.last() == Some(&n) {
                break;
            }
            let r0 = round - 1;
            let j = r0 % epoch_len;
            if j == 0 {
                let mut any = false;
                for s in views.begin_lists(participants.iter().map(Vec::as_slice)) {
                    let (parts, act_list) = (&mut participants[s], &mut active[s]);
                    act_list.clear();
                    if parts.is_empty() {
                        continue;
                    }
                    parts.sort_unstable();
                    let view = views.view_list(s, parts)?;
                    parts.retain(|&u| view.targets_of(u).iter().any(|&t| !informed.contains(t)));
                    act_list.extend_from_slice(parts);
                    any |= !parts.is_empty();
                }
                if !any {
                    break;
                }
            }

            for s in views.begin_lists(active.iter().map(Vec::as_slice)) {
                let act_list = &active[s];
                if act_list.is_empty() {
                    continue;
                }
                let view = views.view_list(s, act_list)?;
                for &u in act_list {
                    let coin = model.corrupt_lane(&tapes, radio_site(r0, u), u, lane);
                    let sent = match kind {
                        CorruptionKind::Silent if coin => continue,
                        CorruptionKind::Silent => false,
                        CorruptionKind::Flip => correct.contains(u) ^ coin,
                        CorruptionKind::Lie => correct.contains(u) && !coin,
                    };
                    for &v in view.targets_of(u) {
                        if !informed.contains(v) {
                            counter.add(v);
                            if values {
                                sent_to[v as usize] = sent;
                            }
                        }
                    }
                }
            }
            counter.drain_sole_receivers(|v| {
                informed.insert(v);
                // A sole receiver adopts its one transmitter's value.
                if values && sent_to[v as usize] {
                    correct.insert(v);
                }
                // Joins the transmitters at the next epoch start.
                participants[plan.shard_of(v)].push(v);
            });

            let count = if values {
                correct.count()
            } else {
                informed.count()
            };
            informed_by_round.push(count);

            if decay && j + 1 < epoch_len {
                for list in &mut active {
                    list.retain(|&u| decay_tape.fair_lane(radio_site(r0, u), lane));
                }
            }
        }

        Ok(GrowthOutcome::new(
            n,
            self.horizon,
            if values { correct } else { informed },
            informed_by_round,
        ))
    }

    /// The 64-lane pass under any [`FaultModel`], on one thread, with
    /// the lane pass's fault semantics and a lane-sliced value plane for
    /// `Flip` / `Lie` models. The union participant list is kept per
    /// shard; per-node lane state (`act`, informed words, collision
    /// accumulators) stays global. Each round
    /// runs the epoch refilter and the transmit pass one shard at a
    /// time, accumulating the `≥ 1` / `≥ 2` collision masks across all
    /// shards before the single sole-receiver drain, and the
    /// lane-exhaustion bookkeeping fires only after *every* shard's
    /// refilter has contributed to the round's participation union.
    /// Each epoch boundary sorts the participant lists into node order
    /// before the refilter, so every walk of the epoch reads CSR rows
    /// and lane words in ascending address order, and the transmit walk
    /// and Decay thinning visit only the active lists — participants
    /// whose mask is still nonzero. Both walks take the shards in the
    /// [`PassLoader`]'s order. Neither order can change an outcome:
    /// coins are site-addressed and the once/twice/informed updates
    /// commute (DESIGN.md, "Outcome-neutrality is a theorem here"); the
    /// values sent to a listener are read only on lanes where exactly one
    /// neighbor transmitted. The source is seeded in `lanes` only; every
    /// other lane has no participant and retires at the first refilter.
    fn batch_pass<M: FaultModel + ?Sized>(
        &self,
        mut views: PassLoader<'_>,
        model: &M,
        block_seed: u64,
        lanes: LaneMask,
    ) -> Result<GrowthBatch, ShardError> {
        let tapes = FaultTapes::new(block_seed);
        let decay_tape = BatchTape::new(block_seed, DECAY_STREAM);
        let plan = self.store.plan();
        let n = plan.node_count();
        let k = plan.shard_count();
        let mut informed = BatchedInformedSet::new(n);
        informed.insert_masked(self.source, lanes);
        // The lane-sliced value plane of a `Flip` / `Lie` model, as in
        // the lane pass: `correct` holds each node's correctly informed
        // lanes and `sent_to[t]` the OR of the values sent to `t` this
        // round, read only on lanes where `t` heard exactly one
        // transmitter. `Silent` models leave both empty.
        let kind = model.kind();
        let values = kind != CorruptionKind::Silent;
        let value_n = if values { n } else { 0 };
        let mut correct = BatchedInformedSet::new(value_n);
        let mut sent_to: Vec<LaneMask> = vec![0; value_n];
        if values {
            correct.insert_masked(self.source, lanes);
        }
        let mut rounds = LaneRounds::new(n);

        // Union participant lists: nodes with a nonzero per-lane
        // participation mask in some lane. `act` is the per-node lane
        // mask of *currently transmitting* participants — rebuilt at
        // every epoch boundary, thinned by Decay coins within an epoch.
        // Nodes informed mid-epoch join the list with an empty mask and
        // pick up their lanes at the next boundary, exactly as the
        // scalar pass's `participants` / `active` split. `active` holds,
        // per shard, the participants whose mask is nonzero.
        let mut plist: Vec<Vec<u32>> = vec![Vec::new(); k];
        plist[plan.shard_of(self.source)].push(self.source);
        let mut in_plist = vec![false; n];
        in_plist[self.source as usize] = true;
        let mut act: Vec<LaneMask> = vec![0; n];
        let mut active: Vec<Vec<u32>> = vec![Vec::new(); k];

        // Collision accumulators per listener: lanes with ≥ 1 and ≥ 2
        // transmitting neighbors this round, reset via the touched list.
        let mut once: Vec<LaneMask> = vec![0; n];
        let mut twice: Vec<LaneMask> = vec![0; n];
        let mut touched: Vec<u32> = Vec::new();
        let (decay, epoch_len) = self.schedule.epochs();

        for round in 1..=self.horizon {
            let live = rounds.live();
            if live == 0 {
                break;
            }
            let r0 = round - 1;
            let j = r0 % epoch_len;
            if j == 0 {
                let mut any: LaneMask = 0;
                for s in views.begin_lists(plist.iter().map(Vec::as_slice)) {
                    let (list, act_list) = (&mut plist[s], &mut active[s]);
                    act_list.clear();
                    if list.is_empty() {
                        continue;
                    }
                    list.sort_unstable();
                    let view = views.view_list(s, list)?;
                    list.retain(|&v| {
                        let vi = v as usize;
                        let inf_v = informed.lanes(v);
                        let mut un: LaneMask = 0;
                        for &t in view.targets_of(v) {
                            un |= !informed.lanes(t);
                            // Once every lane `v` knows the message in
                            // has an uninformed neighbor, more
                            // neighbors cannot widen the mask.
                            if un & inf_v == inf_v {
                                break;
                            }
                        }
                        let m = inf_v & un;
                        act[vi] = m;
                        any |= m;
                        if m == 0 {
                            in_plist[vi] = false;
                        }
                        m != 0
                    });
                    act_list.extend_from_slice(list);
                }
                // Lanes with no participants anywhere stop *before*
                // executing this round, exactly like the scalar replay.
                rounds.stop(live & !any);
                if live & any == 0 {
                    break;
                }
            }

            for s in views.begin_lists(active.iter().map(Vec::as_slice)) {
                let list = &active[s];
                if list.is_empty() {
                    continue;
                }
                let view = views.view_list(s, list)?;
                for &v in list {
                    let a = act[v as usize];
                    // Coins are site-addressed pure functions, so
                    // skipping the draw for a transmission no listener
                    // can use leaves every other lane read untouched.
                    // `useful` restricts the draw to lanes where some
                    // neighbor is still uninformed; the excluded lanes
                    // would contribute `need == 0` at every listener.
                    let mut un_v: LaneMask = 0;
                    for &t in view.targets_of(v) {
                        un_v |= !informed.lanes(t);
                        if un_v & a == a {
                            break;
                        }
                    }
                    let useful = a & un_v;
                    if useful == 0 {
                        continue;
                    }
                    let coin = model.corrupt_mask(&tapes, radio_site(r0, v), v, useful);
                    // A `Silent` coin silences its lanes; under a value
                    // model every useful lane transmits and the coin
                    // corrupts the value it sends.
                    let (tx, sent) = match kind {
                        CorruptionKind::Silent => (useful & !coin, 0),
                        CorruptionKind::Flip => (useful, correct.lanes(v) ^ coin),
                        CorruptionKind::Lie => (useful, correct.lanes(v) & !coin),
                    };
                    if tx == 0 {
                        continue;
                    }
                    for &t in view.targets_of(v) {
                        let ti = t as usize;
                        // Restrict collision tracking to the lanes where
                        // `t` is still uninformed — the scalar replay's
                        // `!informed.contains(v)` guard, lane-sliced.
                        // The informed words are frozen until the
                        // drain, so dropping the other lanes here leaves
                        // `hear` identical on every lane that counts.
                        let need = tx & !informed.lanes(t);
                        if need == 0 {
                            continue;
                        }
                        if once[ti] | twice[ti] == 0 {
                            touched.push(t);
                        }
                        if values {
                            sent_to[ti] |= sent & need;
                        }
                        twice[ti] |= once[ti] & need;
                        once[ti] |= need;
                    }
                }
            }

            let mut changed = false;
            for &t in &touched {
                let ti = t as usize;
                let hear = once[ti] & !twice[ti];
                once[ti] = 0;
                twice[ti] = 0;
                let value = if values {
                    std::mem::take(&mut sent_to[ti])
                } else {
                    0
                };
                if hear == 0 {
                    continue;
                }
                let newly = informed.insert_masked(t, hear);
                if newly != 0 {
                    changed = true;
                    if values {
                        // A sole receiver adopts its one transmitter's
                        // value.
                        correct.insert_masked(t, value & newly);
                    }
                    if !in_plist[ti] {
                        in_plist[ti] = true;
                        act[ti] = 0;
                        plist[plan.shard_of(t)].push(t);
                    }
                }
            }
            touched.clear();

            let counted = if values { &correct } else { &informed };
            rounds.end_round(counted.counts(), round, changed);

            if decay && j + 1 < epoch_len {
                for list in &mut active {
                    decay_thin(&mut act, list, &decay_tape, r0);
                }
            }
        }

        Ok(rounds.into_batch(if values { correct } else { informed }, self.horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaneCounter;
    use randcast_graph::{generators, Graph, GraphBuilder};

    fn plan(g: &Graph, horizon: usize, schedule: FastRadioSchedule) -> FastRadio {
        FastRadio::new(g, g.node(0), horizon, schedule)
    }

    fn decay_plan(g: &Graph, horizon: usize) -> FastRadio {
        let epoch_len = (g.node_count().max(2) as f64).log2().ceil() as usize + 1;
        plan(g, horizon, FastRadioSchedule::Decay { epoch_len })
    }

    #[test]
    fn fault_free_decay_completes_on_families() {
        for g in [
            generators::path(12),
            generators::star(16),
            generators::grid(5, 5),
            generators::complete(12),
        ] {
            let plan = decay_plan(&g, 4000);
            let mut ok = 0;
            for seed in 0..10 {
                ok += usize::from(plan.run(0.0, seed).complete());
            }
            assert!(ok >= 9, "n={} ok={ok}", g.node_count());
        }
    }

    #[test]
    fn decay_survives_omission_faults() {
        let g = generators::grid(5, 5);
        let plan = decay_plan(&g, 8000);
        let mut ok = 0;
        for seed in 0..20 {
            ok += usize::from(plan.run(0.5, seed).complete());
        }
        assert!(ok >= 18, "ok={ok}");
    }

    #[test]
    fn decay_breaks_high_contention() {
        // Complete bipartite: after one step all of side A is informed;
        // all-informed transmission then collides essentially forever,
        // while decay's back-off resolves it.
        let g = generators::complete_bipartite(8, 8);
        let decay = decay_plan(&g, 2000);
        let naive = plan(&g, 2000, FastRadioSchedule::AllInformed);
        let mut decay_ok = 0;
        let mut naive_ok = 0;
        for seed in 0..10 {
            decay_ok += usize::from(decay.run(0.0, seed).complete());
            naive_ok += usize::from(naive.run(0.0, seed).complete());
        }
        assert!(decay_ok >= 9, "decay_ok={decay_ok}");
        assert_eq!(naive_ok, 0, "fault-free collisions never resolve");
    }

    #[test]
    fn all_informed_on_a_path_is_plain_flooding() {
        // Along a path each uninformed node has exactly one informed
        // neighbor, so there are no collisions and the fault-free
        // all-informed schedule is BFS flooding.
        let g = generators::path(9);
        let plan = plan(&g, 100, FastRadioSchedule::AllInformed);
        let out = plan.run(0.0, 1);
        assert_eq!(out.completion_round(), Some(9));
        assert_eq!(out.informed_by_round(), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn interior_collisions_block_on_a_cycle_start() {
        // Cycle: round 1 informs both neighbors of the source; their
        // two transmissions then collide at nobody (each has a distinct
        // uninformed neighbor), so all-informed completes fault-free…
        // except the final node, which hears both ends of the cycle
        // simultaneously and collides forever on even cycles.
        let g = generators::cycle(6);
        let plan = plan(&g, 500, FastRadioSchedule::AllInformed);
        let out = plan.run(0.0, 2);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 5, "the antipode is blocked");
        // With faults the tie eventually breaks.
        let out = plan.run(0.3, 2);
        assert!(out.complete());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::grid(6, 6);
        let plan = decay_plan(&g, 2000);
        assert_eq!(plan.run(0.4, 7), plan.run(0.4, 7));
        assert_ne!(
            plan.run(0.4, 7).informed_by_round(),
            plan.run(0.4, 8).informed_by_round(),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn csr_and_graph_construction_agree() {
        // A generated graph and its copy frozen through the chainable
        // `GraphBuilder` compile to the same plan (and hence
        // bit-identical runs).
        let g = generators::preferential_attachment(
            180,
            3,
            &mut rand::rngs::SmallRng::seed_from_u64(4),
        );
        let mut b = GraphBuilder::new(g.node_count());
        b.edges(g.edges().map(|(u, v)| (u.index(), v.index())));
        let built = b.finish().expect("valid");
        let epoch_len = 9;
        let a = FastRadio::new(
            &built,
            g.node(0),
            900,
            FastRadioSchedule::Decay { epoch_len },
        );
        let b = plan(&g, 900, FastRadioSchedule::Decay { epoch_len });
        for seed in 0..5 {
            assert_eq!(a.run(0.3, seed), b.run(0.3, seed));
        }
    }

    #[test]
    fn counts_are_monotone_and_bounded() {
        let g = generators::grid(7, 5);
        for p in [0.0, 0.3, 0.9] {
            let plan = decay_plan(&g, 3000);
            let out = plan.run(p, 11);
            let counts = out.informed_by_round();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]), "p={p}");
            assert!(*counts.last().unwrap() <= out.n());
            assert_eq!(*counts.last().unwrap(), out.informed_count());
        }
    }

    #[test]
    fn disconnected_graph_reports_partial_fraction() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let g = b.finish().unwrap();
        let plan = decay_plan(&g, 2000);
        let out = plan.run(0.0, 1);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 3);
        assert!((out.informed_fraction() - 0.6).abs() < 1e-12);
        assert!(out.is_informed(g.node(2)));
        assert!(!out.is_informed(g.node(3)));
        assert_eq!(out.almost_complete_round(), None);
        // 60% (3 of 5 nodes) is reached.
        assert!(out.round_reaching(3).is_some());
        // And the run stopped long before the horizon: once the
        // component is saturated an epoch boundary breaks the loop.
        assert!(out.informed_by_round().len() < 100);
    }

    #[test]
    fn single_node_graph_is_complete_at_round_zero() {
        let g = generators::path(0);
        let plan = decay_plan(&g, 50);
        let out = plan.run(0.3, 9);
        assert!(out.complete());
        assert_eq!(out.completion_round(), Some(0));
        assert_eq!(out.almost_complete_round(), Some(0));
    }

    #[test]
    fn zero_horizon_reports_only_the_source() {
        let g = generators::path(5);
        let plan = decay_plan(&g, 0);
        let out = plan.run(0.2, 3);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 1);
        assert_eq!(out.informed_by_round(), &[1]);
    }

    #[test]
    fn high_p_star_completes_eventually() {
        // Star from the center: leaves have a single informed neighbor,
        // so every successful center transmission informs them all.
        let g = generators::star(8);
        let plan = plan(&g, 4000, FastRadioSchedule::AllInformed);
        for seed in 0..20 {
            assert!(plan.run(0.95, seed).complete(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_epoch_len_is_rejected() {
        let g = generators::path(3);
        let _ = plan(&g, 10, FastRadioSchedule::Decay { epoch_len: 0 });
    }

    #[test]
    fn batch_lanes_reproduce_scalar_lane_replays() {
        let graphs = [
            generators::grid(5, 5),
            generators::star(9),
            generators::cycle(6),
            generators::complete_bipartite(4, 5),
        ];
        for g in &graphs {
            let epoch_len = (g.node_count().max(2) as f64).log2().ceil() as usize + 1;
            for schedule in [
                FastRadioSchedule::Decay { epoch_len },
                FastRadioSchedule::AllInformed,
            ] {
                let plan = plan(g, 700, schedule);
                for p in [0.0, 0.3, 0.76, 0.9] {
                    let seed = 1000 + (p * 100.0) as u64;
                    let batch = plan.run_batch_model(&Omission::new(p), seed, !0);
                    for lane in [0u32, 1, 17, 40, 63] {
                        let scalar = plan.run_lane_model(&Omission::new(p), seed, lane);
                        assert_eq!(
                            batch.lane_outcome(lane),
                            scalar,
                            "n={} schedule={schedule:?} p={p} lane={lane}",
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
        let plan = decay_plan(&g, 2000);
        let batch = plan.run_batch_model(&Omission::new(0.4), 99, !0);
        for lane in 0..LANES as u32 {
            let out = batch.lane_outcome(lane);
            assert_eq!(batch.completion_round(lane), out.completion_round());
            assert_eq!(
                batch.almost_complete_round(lane),
                out.almost_complete_round(),
                "lane {lane}"
            );
            assert_eq!(batch.informed_count(lane), out.informed_count());
        }
    }

    #[test]
    fn batch_handles_edge_case_graphs() {
        // Disconnected component, single node, and a zero horizon: the
        // per-lane replays stop early and so must the batch curves.
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(1, 2).edge(0, 2).edge(3, 4);
        let disconnected = b.finish().unwrap();
        for (g, horizon) in [
            (disconnected, 2000),
            (generators::path(0), 50),
            (generators::path(5), 0),
            (generators::path(1), 40),
        ] {
            let plan = decay_plan(&g, horizon);
            for p in [0.0, 0.5] {
                let batch = plan.run_batch_model(&Omission::new(p), 7, !0);
                for lane in [0u32, 31, 63] {
                    assert_eq!(
                        batch.lane_outcome(lane),
                        plan.run_lane_model(&Omission::new(p), 7, lane),
                        "n={} horizon={horizon} p={p} lane={lane}",
                        plan.node_count()
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_and_dense_fault_samplers_agree_statistically() {
        // p on either side of the 0.75 sampler switch must produce
        // comparable completion-time distributions. Star center →
        // leaves under AllInformed: every successful center
        // transmission informs all leaves at once, so completion is the
        // first success — a Geometric(1 − p) wait with mean 1/(1 − p).
        let g = generators::star(8);
        let plan = plan(&g, 6000, FastRadioSchedule::AllInformed);
        let trials = 600u64;
        let mean = |p: f64| {
            let total: usize = (0..trials)
                .map(|s| plan.run(p, s).completion_round().expect("horizon ample"))
                .sum();
            total as f64 / trials as f64
        };
        for p in [0.74, 0.76] {
            let (m, e) = (mean(p), 1.0 / (1.0 - p));
            assert!((m - e).abs() < 0.08 * e, "p={p}: mean {m} vs {e}");
        }
    }

    /// The same plan re-cut into `shards` node-range shards.
    fn resharded(
        g: &Graph,
        horizon: usize,
        schedule: FastRadioSchedule,
        shards: usize,
    ) -> FastRadio {
        FastRadio::new(g, g.node(0), horizon, schedule)
            .with_shard_plan(ShardPlan::uniform(g.node_count(), shards))
    }

    #[test]
    fn sharded_lane_and_batch_match_monolithic_exactly() {
        let g = generators::gnp_connected(120, 0.04, &mut rand::rngs::SmallRng::seed_from_u64(11));
        for schedule in [
            FastRadioSchedule::Decay { epoch_len: 8 },
            FastRadioSchedule::AllInformed,
        ] {
            let fr = FastRadio::new(&g, g.node(0), 600, schedule);
            for shards in [2usize, 3, 7] {
                let sharded = resharded(&g, 600, schedule, shards);
                for p in [0.0, 0.3, 0.8] {
                    let seed = 53 + shards as u64;
                    assert_eq!(
                        sharded.run_batch_model(&Omission::new(p), seed, !0),
                        fr.run_batch_model(&Omission::new(p), seed, !0),
                        "batch diverged: {schedule:?} shards={shards} p={p}"
                    );
                    for lane in [0u32, 19, 63] {
                        assert_eq!(
                            sharded.run_lane_model(&Omission::new(p), seed, lane),
                            fr.run_lane_model(&Omission::new(p), seed, lane),
                            "lane diverged: {schedule:?} shards={shards} p={p} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    impl FastRadio {
        /// The corrupted-value scalar pass the lane pass's value plane
        /// replaced, kept as the reference: the whole adjacency in RAM.
        /// Faults never silence: every active node transmits, so the
        /// collision process is the fault-free one and only message
        /// *values* are at stake. A sole receiver adopts whatever its one
        /// audible neighbor sent — a `Flip` transmitter sends its own value
        /// XOR the corruption coin, a `Lie` transmitter sends the true value
        /// only when uncorrupted and holding it — and retransmits that value
        /// in later epochs. The returned informed set and growth curve track
        /// the correctly informed nodes (the quantity the paper's malicious
        /// feasibility results are about); participation and exhaustion
        /// bookkeeping run on the heard set, exactly like the silent replay.
        fn run_lane_values<M: FaultModel + ?Sized>(
            &self,
            model: &M,
            block_seed: u64,
            lane: u32,
        ) -> GrowthOutcome {
            assert!((lane as usize) < LANES, "lane out of range");
            let tapes = FaultTapes::new(block_seed);
            let decay_tape = BatchTape::new(block_seed, DECAY_STREAM);
            let ram = self.ram();
            let (n, source, horizon) = (self.node_count(), self.passes.source, self.horizon());
            let mut heard = InformedSet::new(n);
            heard.insert(source);
            let mut val = vec![false; n];
            val[source as usize] = true;
            let mut correct = InformedSet::new(n);
            correct.insert(source);
            let mut informed_by_round = Vec::with_capacity(horizon.min(1024) + 1);
            informed_by_round.push(1);

            let mut participants: Vec<u32> = vec![source];
            let mut active: Vec<u32> = Vec::new();
            // Sole-receiver resolution carrying the first transmitter's
            // value: `vonce[v]` is meaningful while `once[v]` is set.
            let mut once = vec![false; n];
            let mut twice = vec![false; n];
            let mut vonce = vec![false; n];
            let mut touched: Vec<u32> = Vec::new();
            let (decay, epoch_len) = self.passes.schedule.epochs();

            for round in 1..=horizon {
                if correct.count() == n {
                    break;
                }
                let r0 = round - 1;
                let j = r0 % epoch_len;
                if j == 0 {
                    participants.sort_unstable();
                    participants.retain(|&u| ram.targets_of(u).iter().any(|&t| !heard.contains(t)));
                    if participants.is_empty() {
                        break;
                    }
                    active.clear();
                    active.extend_from_slice(&participants);
                }

                for &u in &active {
                    let ui = u as usize;
                    // Coins are site-addressed pure functions, so skipping
                    // the draw for a transmission no listener can use
                    // leaves every other read untouched.
                    if !ram.targets_of(u).iter().any(|&t| !heard.contains(t)) {
                        continue;
                    }
                    let corrupt = model.corrupt_lane(&tapes, radio_site(r0, u), u, lane);
                    let txval = match model.kind() {
                        CorruptionKind::Flip => val[ui] ^ corrupt,
                        _ => val[ui] && !corrupt,
                    };
                    for &v in ram.targets_of(u) {
                        let vi = v as usize;
                        if heard.contains(v) {
                            continue;
                        }
                        if once[vi] {
                            twice[vi] = true;
                        } else {
                            once[vi] = true;
                            vonce[vi] = txval;
                            touched.push(v);
                        }
                    }
                }
                for &v in &touched {
                    let vi = v as usize;
                    if !twice[vi] {
                        heard.insert(v);
                        participants.push(v);
                        val[vi] = vonce[vi];
                        if val[vi] {
                            correct.insert(v);
                        }
                    }
                    once[vi] = false;
                    twice[vi] = false;
                }
                touched.clear();

                informed_by_round.push(correct.count());

                if decay && j + 1 < epoch_len {
                    active.retain(|&u| decay_tape.fair_lane(radio_site(r0, u), lane));
                }
            }

            GrowthOutcome::new(n, horizon, correct, informed_by_round)
        }

        /// The corrupted-value 64-lane pass the batch pass's value plane
        /// replaced, kept as the reference: the whole adjacency in RAM, and
        /// the machinery of the silent batch with the fault application
        /// moved from transmissions to values: `useful` lanes all transmit,
        /// the `≥ 1` / `≥ 2` collision masks gain a first-transmitter value
        /// mask, and a sole receiver adopts that value. Counts, crossings,
        /// and the final informed set track the correctly informed nodes;
        /// participation and exhaustion run on the heard set.
        fn run_batch_values<M: FaultModel + ?Sized>(
            &self,
            model: &M,
            block_seed: u64,
        ) -> GrowthBatch {
            let tapes = FaultTapes::new(block_seed);
            let decay_tape = BatchTape::new(block_seed, DECAY_STREAM);
            let ram = self.ram();
            let (n, source, horizon) = (self.node_count(), self.passes.source, self.horizon());
            let mut heard = BatchedInformedSet::new(n);
            heard.insert_masked(source, !0);
            let mut value_masks = vec![0u64; n];
            value_masks[source as usize] = !0;
            let mut correct_counts = LaneCounter::new();
            correct_counts.add_masked(!0, 1);
            let mut rounds = LaneRounds::new(n);

            let mut plist: Vec<u32> = vec![source];
            let mut in_plist = vec![false; n];
            in_plist[source as usize] = true;
            let mut act: Vec<LaneMask> = vec![0; n];
            let mut active: Vec<u32> = Vec::new();

            let mut once: Vec<LaneMask> = vec![0; n];
            let mut twice: Vec<LaneMask> = vec![0; n];
            let mut vonce: Vec<LaneMask> = vec![0; n];
            let mut touched: Vec<u32> = Vec::new();
            let (decay, epoch_len) = self.passes.schedule.epochs();

            for round in 1..=horizon {
                let live = rounds.live();
                if live == 0 {
                    break;
                }
                let r0 = round - 1;
                let j = r0 % epoch_len;
                if j == 0 {
                    let mut any: LaneMask = 0;
                    plist.sort_unstable();
                    plist.retain(|&v| {
                        let vi = v as usize;
                        let inf_v = heard.lanes(v);
                        let mut un: LaneMask = 0;
                        for &t in ram.targets_of(v) {
                            un |= !heard.lanes(t);
                            if un & inf_v == inf_v {
                                break;
                            }
                        }
                        let m = inf_v & un;
                        act[vi] = m;
                        any |= m;
                        if m == 0 {
                            in_plist[vi] = false;
                        }
                        m != 0
                    });
                    active.clone_from(&plist);
                    rounds.stop(live & !any);
                    if live & any == 0 {
                        break;
                    }
                }

                for &v in &active {
                    let a = act[v as usize];
                    let mut un_v: LaneMask = 0;
                    for &t in ram.targets_of(v) {
                        un_v |= !heard.lanes(t);
                        if un_v & a == a {
                            break;
                        }
                    }
                    let useful = a & un_v;
                    if useful == 0 {
                        continue;
                    }
                    // Every useful lane transmits; the coin corrupts the
                    // delivered value instead of the delivery.
                    let corrupt = model.corrupt_mask(&tapes, radio_site(r0, v), v, useful);
                    let txval = match model.kind() {
                        CorruptionKind::Flip => (value_masks[v as usize] ^ corrupt) & useful,
                        _ => value_masks[v as usize] & !corrupt & useful,
                    };
                    for &t in ram.targets_of(v) {
                        let ti = t as usize;
                        let need = useful & !heard.lanes(t);
                        if need == 0 {
                            continue;
                        }
                        if once[ti] | twice[ti] == 0 {
                            touched.push(t);
                        }
                        // Lanes where `v` is the first transmitter at `t`
                        // record `v`'s value; a second transmitter marks
                        // the collision and the value is moot.
                        let first = need & !once[ti];
                        vonce[ti] |= txval & first;
                        twice[ti] |= once[ti] & need;
                        once[ti] |= need;
                    }
                }

                let mut changed = false;
                for &t in &touched {
                    let ti = t as usize;
                    let hear = once[ti] & !twice[ti];
                    once[ti] = 0;
                    twice[ti] = 0;
                    let adopted = vonce[ti] & hear;
                    vonce[ti] = 0;
                    if hear == 0 {
                        continue;
                    }
                    let newly = heard.insert_masked(t, hear);
                    if newly != 0 {
                        changed = true;
                        value_masks[ti] |= adopted & newly;
                        correct_counts.add_masked(adopted & newly, 1);
                        if !in_plist[ti] {
                            in_plist[ti] = true;
                            act[ti] = 0;
                            plist.push(t);
                        }
                    }
                }
                touched.clear();

                rounds.end_round(&correct_counts, round, changed);

                if decay && j + 1 < epoch_len {
                    decay_thin(&mut act, &mut active, &decay_tape, r0);
                }
            }

            rounds.into_batch(
                BatchedInformedSet::from_parts(value_masks, correct_counts),
                horizon,
            )
        }
    }

    /// `g`'s edges spilled to a `k`-segment disk store.
    fn disk_copy(g: &Graph, k: usize) -> ShardStore {
        use randcast_graph::shard::{default_scratch_dir, SpillSink};
        let plan = ShardPlan::uniform(g.node_count(), k);
        let mut sink = SpillSink::create(default_scratch_dir(), plan).unwrap();
        for v in 0..g.node_count() {
            for &t in g.targets_of(v as u32) {
                if (v as u32) < t {
                    sink.push(v as u64, u64::from(t)).unwrap();
                }
            }
        }
        ShardStore::Disk(sink.finalize().unwrap())
    }

    #[test]
    fn value_plane_passes_match_the_value_reference() {
        use crate::kernel::{FlipFault, LieOrJamFault, WorstCasePlacement};
        // 250 seeds cycle over family × schedule × p × model cells. Each
        // seed runs one block and one lane of the folded passes over a
        // one-shard and a 3-shard RAM store and a 3-segment disk store
        // (prefetch on and off), and compares them with the reference.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(16);
        let families = [
            generators::grid(6, 7),
            generators::star(12),
            generators::complete(9),
            generators::gnp_connected(150, 0.04, &mut rng),
            generators::path(20),
        ];
        let horizon = 300;
        let mut setups = Vec::new();
        for g in &families {
            let epoch_len = (g.node_count() as f64).log2().ceil() as usize + 1;
            for schedule in [
                FastRadioSchedule::Decay { epoch_len },
                FastRadioSchedule::AllInformed,
            ] {
                let one = FastRadio::new(g, g.node(0), horizon, schedule);
                let three = resharded(g, horizon, schedule, 3);
                let disk = ShardedRadio::new(disk_copy(g, 3), 0, horizon, schedule);
                let label = format!("n={} {schedule:?}", g.node_count());
                setups.push((label, one, three, disk));
            }
        }
        let ps = [0.0, 0.1, 0.3, 0.6, 0.9];
        let mut cells = Vec::new();
        for setup in &setups {
            for p in ps {
                for model in 0..4 {
                    cells.push((setup, p, model));
                }
            }
        }
        for s in 0..250usize {
            let ((label, one, three, disk), p, m) = cells[s % cells.len()];
            let model: Box<dyn FaultModel> = match m {
                0 => Box::new(FlipFault::new(p)),
                1 => Box::new(LieOrJamFault::new(p)),
                _ => {
                    let kind = [CorruptionKind::Flip, CorruptionKind::Lie][m - 2];
                    let mut placed = WorstCasePlacement::new(p, kind);
                    one.preprocess(&mut placed);
                    Box::new(placed)
                }
            };
            let model = model.as_ref();
            let seed = 0x0DEC_A000 + s as u64;
            let lane = (s % LANES) as u32;
            let label = format!("{label} {} #{m} p={p} seed #{s}", model.name());
            let want_lane = one.run_lane_values(model, seed, lane);
            let want_block = one.run_batch_values(model, seed);
            for (plan, k) in [(one, 1), (three, 3)] {
                let lane_out = plan.run_lane_model(model, seed, lane);
                assert_eq!(lane_out, want_lane, "{label} k={k} lane {lane}");
                assert_eq!(
                    plan.run_batch_model(model, seed, !0),
                    want_block,
                    "{label} k={k}"
                );
            }
            for prefetch in [true, false] {
                let views = || PassLoader::new(&disk.store, prefetch);
                let lane_out = disk.lane_pass(views(), model, seed, lane).unwrap();
                assert_eq!(lane_out, want_lane, "{label} disk {prefetch} lane {lane}");
                let block = disk.batch_pass(views(), model, seed, !0).unwrap();
                assert_eq!(block, want_block, "{label} disk prefetch={prefetch}");
            }
        }
    }

    #[test]
    fn out_of_core_radio_matches_the_monolithic_lane_replay() {
        let g = generators::gnp_connected(110, 0.05, &mut rand::rngs::SmallRng::seed_from_u64(9));
        let n = g.node_count();
        let epoch_len = (n.max(2) as f64).log2().ceil() as usize + 1;
        let plan = ShardPlan::uniform(n, 3);
        for schedule in [
            FastRadioSchedule::Decay { epoch_len },
            FastRadioSchedule::AllInformed,
        ] {
            let fr = FastRadio::new(&g, g.node(0), 900, schedule);
            let ram = ShardedRadio::new(
                ShardStore::Ram(RamShards::from_graph(g.clone(), plan.clone())),
                0,
                900,
                schedule,
            );
            let disk = ShardedRadio::new(disk_copy(&g, 3), 0, 900, schedule);
            for p in [0.0, 0.5] {
                for lane in [0u32, 7, 63] {
                    let mono = fr.run_lane_model(&Omission::new(p), 77, lane);
                    assert_eq!(
                        ram.run_lane(p, 77, lane).unwrap(),
                        mono,
                        "ram p={p} lane={lane}"
                    );
                    assert_eq!(
                        disk.run_lane(p, 77, lane).unwrap(),
                        mono,
                        "disk p={p} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_core_batch_and_every_knob_are_byte_invisible() {
        // Big enough that early rounds (one or two participants per
        // shard) take the sparse row-read path while bulk rounds take
        // full segment views, so both loaders face the equality gate.
        let g = generators::gnp_connected(900, 0.012, &mut rand::rngs::SmallRng::seed_from_u64(21));
        let n = g.node_count();
        let epoch_len = (n.max(2) as f64).log2().ceil() as usize + 1;
        let plan = ShardPlan::uniform(n, 3);
        for schedule in [
            FastRadioSchedule::Decay { epoch_len },
            FastRadioSchedule::AllInformed,
        ] {
            let fr = FastRadio::new(&g, g.node(0), 1200, schedule);
            let mono = fr.run_batch_model(&Omission::new(0.3), 91, !0);
            let stores = [
                (
                    ShardStore::Ram(RamShards::from_graph(g.clone(), plan.clone())),
                    "ram",
                ),
                (disk_copy(&g, 3), "disk"),
            ];
            for (store, what) in stores {
                let mut radio = ShardedRadio::new(store, 0, 1200, schedule);
                for prefetch in [true, false] {
                    radio = radio.with_prefetch(prefetch);
                    assert_eq!(
                        radio.run_batch(0.3, 91).unwrap(),
                        mono,
                        "{what} batch diverged: {schedule:?} prefetch={prefetch}"
                    );
                    for lane in [0u32, 63] {
                        assert_eq!(
                            radio.run_lane(0.3, 91, lane).unwrap(),
                            mono.lane_outcome(lane),
                            "{what} lane diverged: {schedule:?} prefetch={prefetch} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn silent_models_route_through_the_byte_identical_omission_machinery() {
        let g = generators::grid(6, 6);
        let fr = decay_plan(&g, 2000);
        // The monomorphized omission instance and the same model behind
        // a trait object (how scenarios run every other model) take the
        // same passes, byte for byte.
        let model = Omission::new(0.4);
        let boxed: &dyn FaultModel = &model;
        assert_eq!(
            fr.run_batch_model(&model, 77, !0),
            fr.run_batch_model(boxed, 77, !0)
        );
        for lane in [0u32, 17, 63] {
            assert_eq!(
                fr.run_lane_model(&model, 77, lane),
                fr.run_lane_model(boxed, 77, lane),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn model_batch_lanes_match_model_lane_replays() {
        use crate::kernel::{FlipFault, LieOrJamFault};
        let graphs = [
            generators::grid(5, 5),
            generators::star(9),
            generators::complete_bipartite(4, 5),
        ];
        for g in &graphs {
            let epoch_len = (g.node_count().max(2) as f64).log2().ceil() as usize + 1;
            let fr = plan(g, 700, FastRadioSchedule::Decay { epoch_len });
            for p in [0.0, 0.3, 0.76] {
                let models: [&dyn FaultModel; 2] = [&FlipFault::new(p), &LieOrJamFault::new(p)];
                for model in models {
                    let batch = fr.run_batch_model(model, 41, !0);
                    for lane in [0u32, 5, 31, 63] {
                        assert_eq!(
                            batch.lane_outcome(lane),
                            fr.run_lane_model(model, 41, lane),
                            "n={} {} p={p} lane={lane}",
                            g.node_count(),
                            model.name()
                        );
                        assert_eq!(
                            batch.completion_round(lane),
                            batch.lane_outcome(lane).completion_round()
                        );
                        assert_eq!(
                            batch.almost_complete_round(lane),
                            batch.lane_outcome(lane).almost_complete_round(),
                            "n={} {} p={p} lane={lane}",
                            g.node_count(),
                            model.name()
                        );
                    }
                }
            }
        }
    }

    /// Asserts every live lane of `masked` (run over `lanes`) equals the
    /// full block's lane and the scalar replay `want`, through
    /// `lane_outcome` and the per-lane accessors the scenario layer
    /// reads.
    fn assert_live_lanes(
        masked: &GrowthBatch,
        full: &GrowthBatch,
        lanes: LaneMask,
        want: impl Fn(u32) -> GrowthOutcome,
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
        // Masked-out lanes never transmit, collide or thin, so each live
        // lane of a masked Decay block must equal its full-block lane
        // and its lane replay under every model the pass serves, on
        // one, three and three disk shards.
        use crate::kernel::{FlipFault, LieOrJamFault, TEST_LANE_MASKS};
        let g = generators::gnp_connected(90, 0.05, &mut rand::rngs::SmallRng::seed_from_u64(27));
        let schedule = FastRadioSchedule::Decay { epoch_len: 8 };
        let one = FastRadio::new(&g, g.node(0), 600, schedule);
        let three = resharded(&g, 600, schedule, 3);
        let disk = ShardedRadio::new(disk_copy(&g, 3), 0, 600, schedule);
        let p = 0.35;
        let (omission, flip, lie) = (Omission::new(p), FlipFault::new(p), LieOrJamFault::new(p));
        let models: [&dyn FaultModel; 3] = [&omission, &flip, &lie];
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
    fn flip_at_p_zero_matches_the_fault_free_omission_run_exactly() {
        use crate::kernel::FlipFault;
        // With no corruption anywhere, "everyone transmits their (true)
        // value" and "no transmission is ever silenced" are the same
        // process, coin for coin: the decay tapes drive participation
        // and the fault tape is never consulted.
        let g = generators::grid(5, 5);
        let fr = decay_plan(&g, 2000);
        for lane in [0u32, 9, 63] {
            assert_eq!(
                fr.run_lane_model(&FlipFault::new(0.0), 13, lane),
                fr.run_lane_model(&Omission::new(0.0), 13, lane),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn sharded_model_runs_match_monolithic_exactly() {
        use crate::kernel::{CorruptionKind, FlipFault, WorstCasePlacement};
        let g = generators::gnp_connected(100, 0.05, &mut rand::rngs::SmallRng::seed_from_u64(23));
        let schedule = FastRadioSchedule::Decay { epoch_len: 8 };
        let fr = FastRadio::new(&g, g.node(0), 600, schedule);
        let mut placed = WorstCasePlacement::new(0.1, CorruptionKind::Silent);
        fr.preprocess(&mut placed);
        let flip = FlipFault::new(0.3);
        let models: [&dyn FaultModel; 2] = [&placed, &flip];
        for model in models {
            for shards in [2usize, 3, 7] {
                let sharded = resharded(&g, 600, schedule, shards);
                assert_eq!(
                    sharded.run_batch_model(model, 7, !0),
                    fr.run_batch_model(model, 7, !0),
                    "{} shards={shards}",
                    model.name()
                );
                for lane in [0u32, 9, 63] {
                    assert_eq!(
                        sharded.run_lane_model(model, 7, lane),
                        fr.run_lane_model(model, 7, lane),
                        "{} shards={shards} lane={lane}",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    fn placed_flip_transmitter_poisons_its_listener() {
        use crate::kernel::{CorruptionKind, WorstCasePlacement};
        // Path 0-1-2: the placed flipping node 1 (the only non-source
        // node of degree 2) delivers the wrong value to node 2, which
        // is then heard-but-wrong: the correct count stays 2. (On a
        // longer path two placed nodes in series would cancel — a flip
        // of a flip restores the value.)
        let g = generators::path(2);
        let fr = decay_plan(&g, 2000);
        let mut flip = WorstCasePlacement::new(0.5, CorruptionKind::Flip);
        fr.preprocess(&mut flip);
        assert!(flip.is_placed(1));
        let out = fr.run_lane_model(&flip, 3, 0);
        assert!(!out.complete());
        assert_eq!(out.informed_count(), 2);
        assert!(out.is_informed(g.node(1)));
        assert!(!out.is_informed(g.node(2)));
    }
}
