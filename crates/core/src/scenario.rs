//! Declarative experiment scenarios: graph family × algorithm × model ×
//! fault, as plain data.
//!
//! A [`Scenario`] names everything needed to run one broadcast
//! experiment cell — which graph to build, which algorithm to plan,
//! which communication model to run it in, and which fault process (and
//! hence which worst-case adversary) to apply. [`Scenario::prepare`]
//! compiles it into a [`PreparedScenario`] holding the built graph and
//! plan, whose [`trial`](PreparedScenario::trial) method runs one
//! seeded execution. The sweep driver
//! ([`Sweep::scenario`](crate::sweep::Sweep::scenario)) accepts
//! scenarios directly, so experiment binaries reduce to data: a list of
//! scenarios plus trial counts.
//!
//! Adversary selection is part of the spec: each (model, fault-kind)
//! pair gets the binding worst case used throughout the paper's
//! experiments — silent transmitters for omission faults, the flip
//! adversary for (limited-)malicious message passing, and the
//! lie-or-jam adversary for malicious radio.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng as _;

use randcast_engine::adversary::{FlipMpAdversary, LieOrJamAdversary};
use randcast_engine::fault::{FaultConfig, FaultKind};
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_engine::growth::{GrowthBatch, GrowthOutcome};
use randcast_engine::kernel::{
    mask_lanes, FaultModel, FlipFault, LaneMask, LieOrJamFault, Omission, LANES,
};
use randcast_engine::mp::SilentMpAdversary;
use randcast_engine::radio::SilentRadioAdversary;
use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule};
use randcast_engine::simple_fast::FastSimple;
use randcast_graph::shard::ShardPlan;
use randcast_graph::{generators, Graph};
use randcast_stats::chernoff;

use crate::decay::{run_decay, DecayConfig};
use crate::flood::{theorem_horizon, FloodPlan, FloodVariant};
use crate::kucera::{FailureBehavior, KuceraBroadcast, KuceraError};
use crate::radio_robust::ExpandedPlan;
use crate::radio_sched::greedy_schedule;
use crate::selftimed::SelfTimedPlan;
use crate::simple::SimplePlan;
use crate::sweep::TrialOutcome;

/// The source bit broadcast in every scenario trial.
pub const SOURCE_BIT: bool = true;

/// Node count at or above which [`Algorithm::Flood`] in the
/// message-passing model is executed by the bitset fast path
/// ([`randcast_engine::flood_fast`]) instead of the general `MpNetwork`
/// engine. The two are statistically equivalent (pinned by
/// `tests/flood_equivalence.rs`) but draw different RNG streams, so the
/// threshold sits above every pre-existing experiment size to keep
/// their per-seed outcomes byte-stable.
pub const FLOOD_FAST_MIN_N: usize = 4096;

/// Node count at or above which [`Algorithm::Decay`] in the radio
/// model is executed by the bitset collision-counting fast path
/// ([`randcast_engine::radio_fast`]) instead of the per-node
/// `RadioNetwork` automata. The two engines share the Decay coin tapes
/// and are statistically equivalent (pinned by
/// `tests/radio_equivalence.rs`, exactly equal at `p = 0`), but their
/// fault coins come from different RNG streams, so the threshold sits
/// above every pre-existing experiment size to keep per-seed outcomes
/// byte-stable. Omission and limited-malicious (the flip rule) both
/// cross to the fast path; full-malicious Decay is rejected at every
/// size — jamming strategies need [`Algorithm::Expanded`].
pub const RADIO_FAST_MIN_N: usize = 4096;

/// Node count at or above which [`Algorithm::Simple`] is executed by
/// the geometric-draw / vote-counting fast path
/// ([`randcast_engine::simple_fast`]) instead of the per-node automata.
/// The two are statistically equivalent (pinned by
/// `tests/simple_equivalence.rs` and `tests/malicious_equivalence.rs`)
/// but draw different RNG streams, so the threshold sits above every
/// pre-existing experiment size to keep their per-seed outcomes
/// byte-stable. The fast kernel realizes omission (both models),
/// (limited-)malicious MP (the flip rule), and limited-malicious radio
/// (the clamped lie-or-jam speaker rule); only full-malicious radio
/// Simple stays on the general engine at every size — the jamming half
/// of the lie-or-jam adversary needs per-round adjacency scans.
pub const SIMPLE_FAST_MIN_N: usize = 4096;

/// Node count at or above which [`ShardSpec::Auto`] starts running
/// batched fast-path trials shard-at-a-time. Below it one frontier pass
/// touches at most a few hundred MB of CSR, so sharding only adds view
/// bookkeeping; above it the per-shard working set is what keeps peak
/// RSS inside [`SHARD_AUTO_BUDGET_BYTES`]. Sharded passes are
/// **bit-identical** to monolithic ones (the engines pin this), so the
/// threshold is a pure performance knob — crossing it never changes an
/// outcome vector.
pub const SHARD_AUTO_MIN_N: usize = 8 << 20;

/// Per-shard adjacency budget (bytes) that [`ShardSpec::Auto`] targets
/// when it engages: shards are sized so one shard's offsets + targets
/// stay under this, keeping the hot working set cache- and RSS-friendly
/// at `n = 10⁷`–`10⁸`.
pub const SHARD_AUTO_BUDGET_BYTES: usize = 1 << 30;

/// How a fast-path plan partitions its node range for shard-at-a-time
/// frontier passes. Sharding never changes outcomes — sharded and
/// monolithic passes are bit-identical for every plan
/// (`crates/core/tests/shard_equivalence.rs`) — so this knob tunes
/// locality and peak RSS only. It applies to the batched entry points
/// ([`PreparedScenario::trial_block`] /
/// [`PreparedScenario::trial_lane`]); scalar
/// [`trial`](PreparedScenario::trial) keeps its sequential RNG stream,
/// whose draw order cannot be sharded without changing it. The same
/// contract extends to the out-of-core kernels behind the scale
/// binaries: their store backend (`--store ram|disk`) and pipelined
/// segment prefetch (`--prefetch on|off`) are byte-invisible too, as
/// is the sweep's worker count (a trial runs on one thread), so any
/// `threads × shards × prefetch × store` combination replays the
/// identical trial. Deliberately **not** part of
/// [`PreparedScenario::params`]: two runs differing only in sharding
/// must produce identical reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShardSpec {
    /// One shard below [`SHARD_AUTO_MIN_N`] nodes; above it, enough
    /// shards to keep one shard's adjacency under
    /// [`SHARD_AUTO_BUDGET_BYTES`].
    #[default]
    Auto,
    /// Exactly this many node-range shards (clamped to the node count;
    /// `1` means monolithic). `Fixed(0)` is rejected by
    /// [`Scenario::validate`].
    Fixed(usize),
}

/// A named graph constructor; the broadcast source is always node 0.
/// `Hash`/`Eq` cover the full spec (including construction seeds), so a
/// family value is a usable cache key for its built graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphFamily {
    /// Path with `len` edges.
    Path(usize),
    /// Rows × columns grid.
    Grid(usize, usize),
    /// Balanced tree of the given arity and depth.
    BalancedTree(usize, usize),
    /// Hypercube of the given dimension.
    Hypercube(usize),
    /// Uniform random tree on `n` nodes, built from `seed`.
    RandomTree {
        /// Node count.
        n: usize,
        /// Construction seed (part of the spec, so labels are stable).
        seed: u64,
    },
    /// Star with the given number of leaves (center is node 0).
    Star(usize),
    /// Complete graph on `n` nodes.
    Complete(usize),
    /// The paper's three-layer lower-bound graph `G(m)`.
    LowerBound(usize),
    /// Erdős–Rényi `G(n, q)` conditioned on connectivity, with
    /// `q = avg_deg / (n − 1)` (a random recursive-tree skeleton adds
    /// at most 2 to the realized average degree). Built by geometric
    /// skip-sampling, so `n = 10⁶` is practical.
    Gnp {
        /// Node count.
        n: usize,
        /// Target average degree (before the connectivity skeleton).
        avg_deg: usize,
        /// Construction seed (part of the spec, so labels are stable).
        seed: u64,
    },
    /// Random geometric (unit-disk) graph with radius chosen so the
    /// expected degree is `deg` (`r = √(deg / (π(n−1)))`). **May be
    /// disconnected** below `deg ≈ ln n` — the almost-complete
    /// broadcast regime; only the fast kernels
    /// ([`Algorithm::FloodFast`], [`Algorithm::DecayFast`],
    /// [`Algorithm::SimpleFast`]) accept it.
    RandomGeometric {
        /// Node count.
        n: usize,
        /// Target expected degree.
        deg: usize,
        /// Construction seed.
        seed: u64,
    },
    /// Preferential-attachment (Barabási–Albert) graph: node `v`
    /// attaches to `min(m, v)` earlier nodes, degree-proportionally.
    /// Connected, with scale-free hubs.
    PreferentialAttachment {
        /// Node count.
        n: usize,
        /// Edges attached per arriving node.
        m: usize,
        /// Construction seed.
        seed: u64,
    },
}

impl GraphFamily {
    /// The family's table label (e.g. `grid-8x8`, `G(5)`).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            GraphFamily::Path(len) => format!("path-{len}"),
            GraphFamily::Grid(r, c) => format!("grid-{r}x{c}"),
            GraphFamily::BalancedTree(a, d) => format!("tree-{a}-{d}"),
            GraphFamily::Hypercube(dim) => format!("hypercube-{dim}"),
            GraphFamily::RandomTree { n, .. } => format!("rand-tree-{n}"),
            GraphFamily::Star(leaves) => format!("star-{leaves}"),
            GraphFamily::Complete(n) => format!("complete-{n}"),
            GraphFamily::LowerBound(m) => format!("G({m})"),
            GraphFamily::Gnp { n, avg_deg, .. } => format!("gnp-{n}-d{avg_deg}"),
            GraphFamily::RandomGeometric { n, deg, .. } => format!("rgg-{n}-d{deg}"),
            GraphFamily::PreferentialAttachment { n, m, .. } => format!("pa-{n}-m{m}"),
        }
    }

    /// Whether the built graph can be disconnected from the source —
    /// such families are only valid with algorithms that measure the
    /// informed fraction instead of assuming reachability
    /// ([`Algorithm::FloodFast`], [`Algorithm::DecayFast`],
    /// [`Algorithm::SimpleFast`]).
    #[must_use]
    pub fn may_be_disconnected(&self) -> bool {
        matches!(self, GraphFamily::RandomGeometric { .. })
    }

    /// Builds the graph.
    #[must_use]
    pub fn build(&self) -> Graph {
        match *self {
            GraphFamily::Path(len) => generators::path(len),
            GraphFamily::Grid(r, c) => generators::grid(r, c),
            GraphFamily::BalancedTree(a, d) => generators::balanced_tree(a, d),
            GraphFamily::Hypercube(dim) => generators::hypercube(dim),
            GraphFamily::RandomTree { n, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                generators::random_tree(n, &mut rng)
            }
            GraphFamily::Star(leaves) => generators::star(leaves),
            GraphFamily::Complete(n) => generators::complete(n),
            GraphFamily::LowerBound(m) => generators::lower_bound_graph(m),
            GraphFamily::Gnp { n, avg_deg, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let q = (avg_deg as f64 / (n.max(2) - 1) as f64).min(1.0);
                generators::gnp_connected(n, q, &mut rng)
            }
            GraphFamily::RandomGeometric { n, deg, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let radius = (deg as f64 / (std::f64::consts::PI * (n.max(2) - 1) as f64)).sqrt();
                generators::random_geometric(n, radius.min(1.0), &mut rng)
            }
            GraphFamily::PreferentialAttachment { n, m, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                generators::preferential_attachment(n, m, &mut rng)
            }
        }
    }
}

/// The standard six-graph suite shared by several experiments.
#[must_use]
pub fn standard_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Path(32),
        GraphFamily::Grid(8, 8),
        GraphFamily::BalancedTree(2, 6),
        GraphFamily::Hypercube(6),
        GraphFamily::RandomTree { n: 64, seed: 12345 },
        GraphFamily::LowerBound(5),
    ]
}

/// The communication model a scenario runs in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Model {
    /// Synchronous message passing.
    Mp,
    /// Radio (single shared channel, collision = silence).
    Radio,
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Model::Mp => "mp",
            Model::Radio => "radio",
        })
    }
}

/// Which broadcast algorithm the scenario plans. The fault kind on the
/// [`Scenario`] selects the omission or malicious variant where the
/// paper distinguishes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// `Simple-Omission` / `Simple-Malicious` (Theorems 2.1/2.2/2.4),
    /// per the fault kind; runs in both models. Under omission faults
    /// at `n ≥` [`SIMPLE_FAST_MIN_N`] the harness transparently selects
    /// the statistically equivalent geometric-draw fast path.
    Simple,
    /// The paper's Simple protocol forced onto the large-`n` fast path
    /// ([`randcast_engine::simple_fast`]) regardless of size — omission
    /// faults only, both models (under the Simple schedule the two
    /// models are the same process). Accepts possibly-disconnected
    /// families: trials additionally report the correct fraction and
    /// the almost-complete (`1 − 1/n`) time.
    SimpleFast {
        /// Explicit phase length `m`, or `None` for the Theorem 2.1
        /// prescription `⌈2 ln n / ln(1/p)⌉`. Fixing `m` while sweeping
        /// `p` exposes the completion collapse at `p* = n^{−1/m}` —
        /// the feasibility-threshold bracketing of `exp_scale_simple`.
        phase_len: Option<usize>,
    },
    /// BFS-tree flooding (Theorem 3.1, MP + omission). The horizon is
    /// the Theorem 3.1 prescription scaled by `horizon_scale`. At
    /// `n ≥` [`FLOOD_FAST_MIN_N`] the harness transparently selects the
    /// statistically equivalent bitset fast path.
    Flood {
        /// Multiplier on the prescribed horizon (1 = the theorem's).
        horizon_scale: usize,
    },
    /// BFS-tree flooding forced onto the large-`n` fast path
    /// ([`randcast_engine::flood_fast`]) regardless of size. The only
    /// algorithm accepting possibly-disconnected families: trials
    /// additionally report the informed fraction and the
    /// almost-complete (`1 − 1/n`) time.
    FloodFast {
        /// Multiplier on the prescribed Theorem 3.1 horizon.
        horizon_scale: usize,
    },
    /// Kučera composition broadcasting (Theorem 3.2, MP).
    Kucera,
    /// The self-timed sliding-majority variant (§2 remarks, MP).
    SelfTimed,
    /// `Omission-Radio` / `Malicious-Radio`: the Theorem 3.4 expansion
    /// of a greedy fault-free schedule (radio), per the fault kind.
    Expanded,
    /// The randomized Decay baseline (radio, omission only). At
    /// `n ≥` [`RADIO_FAST_MIN_N`] the harness transparently selects
    /// the statistically equivalent collision-counting fast path.
    Decay {
        /// Multiplier on the classical epoch count.
        epoch_factor: usize,
    },
    /// Decay forced onto the large-`n` radio fast path
    /// ([`randcast_engine::radio_fast`]) regardless of size. Together
    /// with [`Algorithm::FloodFast`] this is the only algorithm
    /// accepting possibly-disconnected families: trials additionally
    /// report the informed fraction and the almost-complete
    /// (`1 − 1/n`) time.
    DecayFast {
        /// Multiplier on the classical epoch count.
        epoch_factor: usize,
    },
}

impl Algorithm {
    /// The algorithm's table label.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Simple => "simple",
            Algorithm::SimpleFast { .. } => "simple-fast",
            Algorithm::Flood { .. } => "flood",
            Algorithm::FloodFast { .. } => "flood-fast",
            Algorithm::Kucera => "kucera",
            Algorithm::SelfTimed => "self-timed",
            Algorithm::Expanded => "expanded",
            Algorithm::Decay { .. } => "decay",
            Algorithm::DecayFast { .. } => "decay-fast",
        }
    }
}

/// Why a [`Scenario`] is invalid. Produced by [`Scenario::validate`] /
/// [`Scenario::try_prepare`] **before any trial runs**, so a
/// misconfigured sweep fails fast with a usable message instead of
/// aborting mid-run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ScenarioError {
    /// The algorithm does not run in the requested communication model.
    ModelMismatch {
        /// The algorithm's table name.
        algorithm: &'static str,
        /// The requested model.
        model: Model,
    },
    /// The algorithm rejects the requested fault kind.
    FaultMismatch {
        /// The algorithm's table name.
        algorithm: &'static str,
        /// What the algorithm tolerates.
        tolerates: &'static str,
        /// The rejected fault kind, so the message can point at the
        /// algorithms that do support it
        /// ([`algorithms_supporting`]).
        requested: FaultKind,
    },
    /// The graph family may be disconnected from the source, which only
    /// the informed-fraction-aware fast flood accepts.
    RequiresConnectivity {
        /// The algorithm's table name.
        algorithm: &'static str,
    },
    /// An algorithm parameter is out of its meaningful range.
    InvalidParameter(
        /// What is wrong with it.
        &'static str,
    ),
    /// Kučera planning failed (infeasible `p ≥ 1/2`, or amplification
    /// beyond the repetition cap).
    Kucera(
        /// The underlying planner error.
        KuceraError,
    ),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScenarioError::ModelMismatch { algorithm, model } => {
                write!(f, "{algorithm} does not run in the {model} model")
            }
            ScenarioError::FaultMismatch {
                algorithm,
                tolerates,
                requested,
            } => write!(
                f,
                "{algorithm} tolerates {tolerates}; {requested} faults are supported by: {}",
                algorithms_supporting(requested)
            ),
            ScenarioError::RequiresConnectivity { algorithm } => write!(
                f,
                "{algorithm} requires a graph connected to the source; only the \
                 fast kernels (flood-fast, decay-fast, simple-fast) accept \
                 possibly-disconnected families"
            ),
            ScenarioError::InvalidParameter(what) => f.write_str(what),
            ScenarioError::Kucera(e) => write!(f, "kucera planning failed: {e}"),
        }
    }
}

impl Error for ScenarioError {}

/// The algorithm table names that accept the given fault kind, so a
/// [`ScenarioError::FaultMismatch`] can point at what *would* work
/// instead of only naming what failed.
#[must_use]
pub fn algorithms_supporting(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Omission | FaultKind::LimitedMalicious => {
            "simple, simple-fast, flood, flood-fast, kucera, self-timed, \
             expanded, decay, decay-fast"
        }
        FaultKind::Malicious => {
            "simple, simple-fast (mp only), flood, flood-fast, kucera, \
             self-timed, expanded"
        }
    }
}

impl From<KuceraError> for ScenarioError {
    fn from(e: KuceraError) -> Self {
        ScenarioError::Kucera(e)
    }
}

/// A full declarative experiment cell spec.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Scenario {
    /// The graph family (source is node 0).
    pub graph: GraphFamily,
    /// The algorithm to plan.
    pub algorithm: Algorithm,
    /// The communication model.
    pub model: Model,
    /// The fault process (kind + probability).
    pub fault: FaultConfig,
    /// Shard-at-a-time execution of batched fast-path trials
    /// (outcome-neutral; see [`ShardSpec`]).
    pub shards: ShardSpec,
}

enum PlanKind {
    Simple(SimplePlan),
    SimpleFast(FastSimple),
    Flood(FloodPlan),
    FloodFast(FastFlood),
    Kucera(KuceraBroadcast),
    SelfTimed(SelfTimedPlan),
    Expanded(ExpandedPlan),
    Decay(DecayConfig),
    DecayFast(FastRadio),
}

/// A compiled scenario: graph + plan, ready to run seeded trials. The
/// graph is held behind an [`Arc`] so sweeps spanning several cells
/// over the same `(family, seed)` share one built copy. Fast-path plans
/// hold their adjacency as an in-RAM shard store cut along the
/// scenario's [`ShardSpec`].
pub struct PreparedScenario {
    scenario: Scenario,
    graph: Arc<Graph>,
    plan: PlanKind,
    shard_plan: Option<ShardPlan>,
}

impl Scenario {
    /// Checks the Algorithm × Model × fault-kind × graph-family
    /// combination *without building anything*, so sweeps can reject
    /// misconfigured cells up front.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] describing the first violated
    /// constraint. Kučera amplification limits that depend on the built
    /// graph are only caught by [`try_prepare`](Self::try_prepare); the
    /// parameter-level `p ≥ 1/2` infeasibility is caught here.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let name = self.algorithm.name();
        let mismatch = |model| {
            Err(ScenarioError::ModelMismatch {
                algorithm: name,
                model,
            })
        };
        match (self.algorithm, self.model) {
            (Algorithm::Simple, _) => {}
            (Algorithm::SimpleFast { phase_len }, model) => {
                // The fast kernel realizes the flip rule (MP, Theorem
                // 2.2) and the clamped lie-or-jam speaker rule
                // (limited-malicious radio, Theorem 2.4). Full-malicious
                // radio needs the general engine's jamming adversary —
                // the auto-fast path for plain Simple applies the same
                // restriction by construction.
                if model == Model::Radio && self.fault.kind == FaultKind::Malicious {
                    return Err(ScenarioError::FaultMismatch {
                        algorithm: name,
                        tolerates: "omission and limited-malicious faults in the radio \
                                    model (use simple for full-malicious radio)",
                        requested: self.fault.kind,
                    });
                }
                if phase_len == Some(0) {
                    return Err(ScenarioError::InvalidParameter(
                        "phase_len must be positive",
                    ));
                }
            }
            (
                Algorithm::Flood { horizon_scale } | Algorithm::FloodFast { horizon_scale },
                Model::Mp,
            ) => {
                if horizon_scale == 0 {
                    return Err(ScenarioError::InvalidParameter(
                        "horizon_scale must be positive",
                    ));
                }
            }
            (Algorithm::Kucera, Model::Mp) => {
                if self.fault.p.get() >= 0.5 {
                    return Err(ScenarioError::Kucera(KuceraError::ErrorBoundTooHigh {
                        q: self.fault.p.get(),
                    }));
                }
            }
            (Algorithm::SelfTimed, Model::Mp) => {}
            (Algorithm::Expanded, Model::Radio) => {}
            (
                Algorithm::Decay { epoch_factor } | Algorithm::DecayFast { epoch_factor },
                Model::Radio,
            ) => {
                // Decay tolerates omission and limited-malicious (the
                // flip rule: a corrupted transmitter still collides,
                // only its value lies). Full-malicious radio jamming
                // needs the Expanded plan's robust schedule — both
                // engines reject it identically at every size.
                if self.fault.kind == FaultKind::Malicious {
                    return Err(ScenarioError::FaultMismatch {
                        algorithm: name,
                        tolerates: "omission and limited-malicious faults \
                                    (use expanded for full-malicious radio)",
                        requested: self.fault.kind,
                    });
                }
                if epoch_factor == 0 {
                    return Err(ScenarioError::InvalidParameter(
                        "epoch_factor must be positive",
                    ));
                }
            }
            (_, model) => return mismatch(model),
        }
        if self.shards == ShardSpec::Fixed(0) {
            return Err(ScenarioError::InvalidParameter(
                "shards must be positive (use ShardSpec::Auto or Fixed(k ≥ 1))",
            ));
        }
        if self.graph.may_be_disconnected()
            && !matches!(
                self.algorithm,
                Algorithm::FloodFast { .. }
                    | Algorithm::DecayFast { .. }
                    | Algorithm::SimpleFast { .. }
            )
        {
            return Err(ScenarioError::RequiresConnectivity { algorithm: name });
        }
        Ok(())
    }

    /// Builds the graph and compiles the algorithm's plan.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for invalid combinations: MP-only
    /// algorithms in the radio model (and vice versa), Decay under
    /// full-malicious faults, possibly-disconnected families outside
    /// the fast flood, or parameters outside an algorithm's feasible
    /// range (e.g. Kučera at `p ≥ 1/2`).
    pub fn try_prepare(self) -> Result<PreparedScenario, ScenarioError> {
        let graph = self.graph.build();
        self.try_prepare_on(graph)
    }

    /// [`try_prepare_on`](Self::try_prepare_on) against a shared,
    /// already-built copy of this scenario's graph — the zero-copy
    /// entry point of the sweep driver's per-`(family, seed)` graph
    /// cache: every cell over the same family clones only the [`Arc`],
    /// not the graph.
    ///
    /// `graph` must be the graph `self.graph.build()` would produce —
    /// the structure is trusted, not re-derived.
    ///
    /// # Errors
    ///
    /// As [`try_prepare`](Self::try_prepare).
    pub fn try_prepare_shared(self, graph: Arc<Graph>) -> Result<PreparedScenario, ScenarioError> {
        self.validate()?;
        let source = graph.node(0);
        let p = self.fault.p.get();
        let malicious = self.fault.kind != FaultKind::Omission;
        let plan = match (self.algorithm, self.model) {
            (Algorithm::Simple, model) => {
                // Full-malicious radio Simple stays on the general
                // engine at every size (the jamming half of lie-or-jam
                // needs per-round adjacency scans); everything else
                // crosses to the statistically equivalent fast path at
                // scale, with the theorem's fault-kind phase length.
                let fast_capable =
                    !(model == Model::Radio && self.fault.kind == FaultKind::Malicious);
                if fast_capable && graph.node_count() >= SIMPLE_FAST_MIN_N {
                    PlanKind::SimpleFast(simple_fast_plan(&graph, self.fault, model, None))
                } else if malicious {
                    PlanKind::Simple(match model {
                        Model::Mp => SimplePlan::malicious_mp(&graph, source, p),
                        Model::Radio => SimplePlan::malicious_radio(&graph, source, p),
                    })
                } else {
                    PlanKind::Simple(SimplePlan::omission_with_p(&graph, source, p))
                }
            }
            (Algorithm::SimpleFast { phase_len }, model) => {
                // Full-malicious radio is rejected by validation;
                // defined on disconnected graphs (unreachable nodes
                // never adopt).
                PlanKind::SimpleFast(simple_fast_plan(&graph, self.fault, model, phase_len))
            }
            (Algorithm::Flood { horizon_scale }, Model::Mp) => {
                let horizon = theorem_horizon(&graph, source, p) * horizon_scale;
                if graph.node_count() >= FLOOD_FAST_MIN_N {
                    // Statistically equivalent fast path for large n.
                    PlanKind::FloodFast(FastFlood::new(
                        &graph,
                        source,
                        horizon,
                        FastFloodVariant::Tree,
                    ))
                } else {
                    PlanKind::Flood(FloodPlan::with_horizon(
                        &graph,
                        source,
                        horizon,
                        FloodVariant::Tree,
                    ))
                }
            }
            (Algorithm::FloodFast { horizon_scale }, Model::Mp) => {
                let horizon = theorem_horizon(&graph, source, p) * horizon_scale;
                PlanKind::FloodFast(FastFlood::new(
                    &graph,
                    source,
                    horizon,
                    FastFloodVariant::Tree,
                ))
            }
            (Algorithm::Kucera, Model::Mp) => {
                PlanKind::Kucera(KuceraBroadcast::new(&graph, source, p)?)
            }
            (Algorithm::SelfTimed, Model::Mp) => PlanKind::SelfTimed(if malicious {
                SelfTimedPlan::malicious(&graph, source, p)
            } else {
                SelfTimedPlan::omission(&graph, source, p)
            }),
            (Algorithm::Expanded, Model::Radio) => {
                let base = greedy_schedule(&graph, source);
                PlanKind::Expanded(if malicious {
                    ExpandedPlan::malicious(&graph, source, &base, p)
                } else {
                    ExpandedPlan::omission(&graph, source, &base, p)
                })
            }
            (Algorithm::Decay { epoch_factor }, Model::Radio) => {
                let d = randcast_graph::traversal::radius_from(&graph, source);
                let mut cfg = DecayConfig::classical(graph.node_count(), d);
                cfg.epochs *= epoch_factor;
                if graph.node_count() >= RADIO_FAST_MIN_N {
                    // Statistically equivalent fast path for large n.
                    PlanKind::DecayFast(decay_fast_plan(&graph, cfg))
                } else {
                    PlanKind::Decay(cfg)
                }
            }
            (Algorithm::DecayFast { epoch_factor }, Model::Radio) => {
                // Defined on disconnected graphs: parameterize by the
                // source component's radius (equal to the paper's `D`
                // on connected graphs).
                let d = randcast_graph::traversal::reachable_radius(&graph, source);
                let mut cfg = DecayConfig::classical(graph.node_count(), d);
                cfg.epochs *= epoch_factor;
                PlanKind::DecayFast(decay_fast_plan(&graph, cfg))
            }
            (alg, model) => {
                return Err(ScenarioError::ModelMismatch {
                    algorithm: alg.name(),
                    model,
                })
            }
        };
        // Resolve the shard plan once, at prepare time, and cut the fast
        // plans' stores along it; the general engines never shard.
        let n = graph.node_count();
        let shard_plan = match self.shards {
            ShardSpec::Fixed(k) => (k > 1 && n > 0).then(|| ShardPlan::uniform(n, k)),
            ShardSpec::Auto => (n >= SHARD_AUTO_MIN_N).then(|| {
                ShardPlan::for_budget(
                    n,
                    2 * graph.edge_count() as u64,
                    SHARD_AUTO_BUDGET_BYTES as u64,
                )
            }),
        };
        let (plan, shard_plan) = match (plan, shard_plan) {
            (PlanKind::FloodFast(f), Some(sp)) => {
                (PlanKind::FloodFast(f.with_shard_plan(sp.clone())), Some(sp))
            }
            (PlanKind::DecayFast(f), Some(sp)) => {
                (PlanKind::DecayFast(f.with_shard_plan(sp.clone())), Some(sp))
            }
            (PlanKind::SimpleFast(f), Some(sp)) => (
                PlanKind::SimpleFast(f.with_shard_plan(sp.clone())),
                Some(sp),
            ),
            (plan, _) => (plan, None),
        };
        Ok(PreparedScenario {
            scenario: self,
            graph,
            plan,
            shard_plan,
        })
    }

    /// [`try_prepare`](Self::try_prepare) against an already-built copy
    /// of this scenario's graph. Graph construction is deterministic per
    /// family spec, so sweeps spanning several fault levels over the
    /// same `(family, seed)` can call [`GraphFamily::build`] once and
    /// hand each cell a clone instead of rebuilding — at `n = 10⁶` the
    /// build (edge sampling + CSR sort) dominates sweep setup.
    ///
    /// `graph` must be the graph `self.graph.build()` would produce —
    /// the structure is trusted, not re-derived.
    ///
    /// # Errors
    ///
    /// As [`try_prepare`](Self::try_prepare).
    pub fn try_prepare_on(self, graph: Graph) -> Result<PreparedScenario, ScenarioError> {
        self.try_prepare_shared(Arc::new(graph))
    }

    /// [`try_prepare`](Self::try_prepare), panicking on invalid
    /// scenarios — the convenience entry point for experiment binaries
    /// whose scenarios are static.
    ///
    /// # Panics
    ///
    /// Panics with the [`ScenarioError`] message on any invalid
    /// combination.
    #[must_use]
    pub fn prepare(self) -> PreparedScenario {
        self.try_prepare()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }
}

/// Compiles the fast-path Decay kernel for a scenario graph (the
/// source is always node 0).
fn decay_fast_plan(graph: &Graph, cfg: DecayConfig) -> FastRadio {
    FastRadio::new(
        graph,
        graph.node(0),
        cfg.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: cfg.epoch_len,
        },
    )
}

/// Compiles the fast-path Simple kernel for a scenario graph (the
/// source is always node 0). Unless an explicit `m` is given, the
/// phase length is the theorem prescription for the fault kind —
/// Theorem 2.1 for omission, Theorem 2.2 for (limited-)malicious MP,
/// Theorem 2.4 for limited-malicious radio — exactly as the general
/// [`SimplePlan`] constructors compute it, so the two engines stay
/// parameter-identical. An explicit `m` bypasses the prescriptions'
/// feasibility asserts, which is how threshold sweeps trace across
/// `p*` without panicking.
fn simple_fast_plan(
    graph: &Graph,
    fault: FaultConfig,
    model: Model,
    phase_len: Option<usize>,
) -> FastSimple {
    let m = phase_len.unwrap_or_else(|| {
        let n = graph.node_count().max(2);
        let p = fault.p.get();
        match (fault.kind, model) {
            (FaultKind::Omission, _) => chernoff::phase_len_omission(n, p),
            (_, Model::Mp) => chernoff::phase_len_malicious_mp(n, p),
            (_, Model::Radio) => chernoff::phase_len_malicious_radio(n, p, graph.max_degree()),
        }
    });
    FastSimple::new(graph, graph.node(0), m)
}

impl PreparedScenario {
    /// The built graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph.as_ref()
    }

    /// The fast-kernel [`FaultModel`] realizing this scenario's
    /// malicious adversary, for the fast-path plans: the flip rule for
    /// (limited-)malicious MP and for limited-malicious Decay, the
    /// lie-or-jam speaker rule for limited-malicious radio Simple — the
    /// mapping of the scalar adversary table. Omission faults run the
    /// [`Omission`] instance directly.
    fn malicious_model(&self) -> Box<dyn FaultModel> {
        let p = self.scenario.fault.p.get();
        match (&self.plan, self.scenario.model) {
            (PlanKind::SimpleFast(_), Model::Radio) => Box::new(LieOrJamFault::new(p)),
            _ => Box::new(FlipFault::new(p)),
        }
    }

    /// The scenario this was compiled from.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Node count (the almost-safety `n`).
    #[must_use]
    pub fn n(&self) -> usize {
        self.graph.node_count()
    }

    /// Total rounds one trial executes.
    #[must_use]
    pub fn rounds(&self) -> usize {
        match &self.plan {
            PlanKind::Simple(plan) => plan.total_rounds(),
            PlanKind::SimpleFast(plan) => plan.total_rounds(),
            PlanKind::Flood(plan) => plan.horizon(),
            PlanKind::FloodFast(plan) => plan.horizon(),
            PlanKind::Kucera(kb) => kb.time(),
            PlanKind::SelfTimed(plan) => plan.horizon(),
            PlanKind::Expanded(plan) => plan.total_rounds(),
            PlanKind::Decay(cfg) => cfg.total_rounds(),
            PlanKind::DecayFast(plan) => plan.horizon(),
        }
    }

    /// Whether trials execute on a bitset fast path — forced via
    /// [`Algorithm::FloodFast`] / [`Algorithm::DecayFast`] /
    /// [`Algorithm::SimpleFast`], or auto-selected for
    /// [`Algorithm::Flood`] at `n ≥` [`FLOOD_FAST_MIN_N`],
    /// [`Algorithm::Decay`] at `n ≥` [`RADIO_FAST_MIN_N`], and
    /// omission [`Algorithm::Simple`] at `n ≥` [`SIMPLE_FAST_MIN_N`].
    #[must_use]
    pub fn uses_fast_path(&self) -> bool {
        matches!(
            self.plan,
            PlanKind::FloodFast(_) | PlanKind::DecayFast(_) | PlanKind::SimpleFast(_)
        )
    }

    /// The per-phase repetition length `m`, for algorithms that have
    /// one.
    #[must_use]
    pub fn phase_len(&self) -> Option<usize> {
        match &self.plan {
            PlanKind::Simple(plan) => Some(plan.phase_len()),
            PlanKind::SimpleFast(plan) => Some(plan.phase_len()),
            PlanKind::SelfTimed(plan) => Some(plan.window()),
            PlanKind::Expanded(plan) => Some(plan.phase_len()),
            PlanKind::Flood(_)
            | PlanKind::FloodFast(_)
            | PlanKind::Kucera(_)
            | PlanKind::Decay(_)
            | PlanKind::DecayFast(_) => None,
        }
    }

    /// The standard parameter columns: graph, n, algorithm, model,
    /// fault, p, m, rounds.
    #[must_use]
    pub fn params(&self) -> Vec<(String, String)> {
        let sc = &self.scenario;
        vec![
            ("graph".into(), sc.graph.label()),
            ("n".into(), self.n().to_string()),
            ("algorithm".into(), sc.algorithm.name().into()),
            ("model".into(), sc.model.to_string()),
            ("fault".into(), sc.fault.kind.to_string()),
            ("p".into(), fmt_p(sc.fault.p.get())),
            (
                "m".into(),
                self.phase_len()
                    .map_or_else(|| "-".into(), |m| m.to_string()),
            ),
            ("rounds".into(), self.rounds().to_string()),
        ]
    }

    /// Runs one trial from the given seed, against the binding
    /// adversary for the scenario's (model, fault-kind) pair.
    #[must_use]
    pub fn trial(&self, seed: u64) -> TrialOutcome {
        let fault = self.scenario.fault;
        let malicious = fault.kind != FaultKind::Omission;
        if malicious && self.uses_fast_path() {
            // Malicious fast trials run the model kernel as lane 0 of
            // block `seed`.
            return self.trial_lane(seed, 0);
        }
        let g = self.graph.as_ref();
        let bit = SOURCE_BIT;
        match &self.plan {
            PlanKind::Simple(plan) => match self.scenario.model {
                Model::Mp => TrialOutcome::pass(if malicious {
                    plan.run_mp(g, fault, FlipMpAdversary, seed, bit)
                        .all_correct(bit)
                } else {
                    plan.run_mp(g, fault, SilentMpAdversary, seed, bit)
                        .all_correct(bit)
                }),
                Model::Radio => TrialOutcome::pass(if malicious {
                    plan.run_radio(g, fault, LieOrJamAdversary::new(bit), seed, bit)
                        .all_correct(bit)
                } else {
                    plan.run_radio(g, fault, SilentRadioAdversary, seed, bit)
                        .all_correct(bit)
                }),
            },
            PlanKind::SimpleFast(plan) => {
                // Success iff every node holds the source bit; the
                // fraction and almost-complete round mirror the flood
                // metrics. Omission keeps the scalar geometric-draw
                // stream byte-stable.
                let out = plan.run(fault.p.get(), seed);
                TrialOutcome::flooded(
                    out.completion_round(),
                    out.correct_fraction(),
                    out.almost_complete_round(),
                )
            }
            PlanKind::Flood(plan) => {
                TrialOutcome::completed(plan.run(g, fault, seed).completion_round())
            }
            // Omission runs the byte-stable silent-fault frontier.
            PlanKind::FloodFast(plan) => growth_trial(&plan.run(fault.p.get(), seed)),
            PlanKind::Kucera(kb) => {
                let behavior = if malicious {
                    FailureBehavior::Flip
                } else {
                    FailureBehavior::Drop
                };
                TrialOutcome::pass(kb.run(fault.p.get(), behavior, seed, bit).all_correct(bit))
            }
            PlanKind::SelfTimed(plan) => TrialOutcome::pass(if malicious {
                plan.run(g, fault, FlipMpAdversary, seed, bit)
                    .all_correct(bit)
            } else {
                plan.run(g, fault, SilentMpAdversary, seed, bit)
                    .all_correct(bit)
            }),
            PlanKind::Expanded(plan) => TrialOutcome::pass(if malicious {
                plan.run(g, fault, LieOrJamAdversary::new(bit), seed, bit)
                    .all_correct(bit)
            } else {
                plan.run(g, fault, SilentRadioAdversary, seed, bit)
                    .all_correct(bit)
            }),
            PlanKind::Decay(cfg) => TrialOutcome::completed(
                run_decay(g, g.node(0), *cfg, fault, seed).completion_round(),
            ),
            // Omission keeps the byte-stable collision frontier.
            PlanKind::DecayFast(plan) => growth_trial(&plan.run(fault.p.get(), seed)),
        }
    }

    /// The shard plan resolved from the scenario's [`ShardSpec`] — the
    /// one the fast path's store is cut along: `None` when batched
    /// trials run the monolithic (one-shard) passes. A resolved plan may
    /// itself have one shard ([`ShardSpec::Auto`] on a graph within one
    /// shard's budget). Sharding is outcome-neutral, so this is
    /// diagnostic only (e.g. for benches reporting their shard-pass
    /// geometry).
    #[must_use]
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.shard_plan.as_ref()
    }

    /// Whether trials can execute in bit-sliced blocks of [`LANES`]
    /// coupled trials via [`trial_block`](Self::trial_block) — exactly
    /// the plans on a bitset fast path
    /// ([`uses_fast_path`](Self::uses_fast_path)).
    #[must_use]
    pub fn supports_batch(&self) -> bool {
        self.uses_fast_path()
    }

    /// Runs the live lanes `lanes` of the bit-sliced block of
    /// [`LANES`] trials rooted at `block_seed` in one pass and returns
    /// their outcomes in lane order (one per set bit). The outcome of
    /// lane `k` is byte-identical to
    /// [`trial_lane`](Self::trial_lane)`(block_seed, k)` whatever the
    /// mask — the engines' lane-coupling guarantee — and each lane is
    /// distributed exactly like a scalar [`trial`](Self::trial) from an
    /// independent seed. Lanes outside the mask cost nothing: the pass
    /// seeds the source in the live lanes only.
    ///
    /// # Panics
    ///
    /// Panics when the plan is not batch-capable
    /// ([`supports_batch`](Self::supports_batch)).
    #[must_use]
    pub fn trial_block(&self, block_seed: u64, lanes: LaneMask) -> Vec<TrialOutcome> {
        // Omission runs monomorphized, so its coins inline into the
        // passes; a malicious model costs one dynamic call per coin.
        if self.scenario.fault.kind == FaultKind::Omission {
            let model = Omission::new(self.scenario.fault.p.get());
            self.block_under(&model, block_seed, lanes)
        } else {
            self.block_under(self.malicious_model().as_ref(), block_seed, lanes)
        }
    }

    /// All 64 lanes of [`trial_block`](Self::trial_block), which it
    /// calls: every block runs on one thread, so `threads` is ignored.
    /// Kept for callers written against the thread-budget signature.
    ///
    /// # Panics
    ///
    /// Panics when the plan is not batch-capable
    /// ([`supports_batch`](Self::supports_batch)).
    #[must_use]
    pub fn trial_block_threads(&self, block_seed: u64, _threads: usize) -> Vec<TrialOutcome> {
        self.trial_block(block_seed, !0)
    }

    /// The fast plan's live lanes under `model`.
    fn block_under<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lanes: LaneMask,
    ) -> Vec<TrialOutcome> {
        // A batch's views of a lane outside `lanes` are unspecified, so
        // only the live lanes are converted.
        match &self.plan {
            PlanKind::SimpleFast(plan) => {
                let out = plan.run_batch_model(model, block_seed, lanes);
                mask_lanes(lanes)
                    .map(|lane| {
                        TrialOutcome::flooded(
                            out.completion_round(lane),
                            out.correct_fraction(lane),
                            out.almost_complete_round(lane),
                        )
                    })
                    .collect()
            }
            PlanKind::FloodFast(plan) => {
                growth_block(&plan.run_batch_model(model, block_seed, lanes), lanes)
            }
            PlanKind::DecayFast(plan) => {
                growth_block(&plan.run_batch_model(model, block_seed, lanes), lanes)
            }
            _ => panic!("trial_block requires a batch-capable fast-path plan"),
        }
    }

    /// Runs lane `lane` of block `block_seed` as one scalar trial —
    /// the reference semantics [`trial_block`](Self::trial_block)
    /// reproduces bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics when the plan is not batch-capable or
    /// `lane ≥ `[`LANES`].
    #[must_use]
    pub fn trial_lane(&self, block_seed: u64, lane: u32) -> TrialOutcome {
        assert!((lane as usize) < LANES, "lane {lane} out of range");
        // Monomorphized omission, as in `trial_block`.
        if self.scenario.fault.kind == FaultKind::Omission {
            let model = Omission::new(self.scenario.fault.p.get());
            self.lane_under(&model, block_seed, lane)
        } else {
            self.lane_under(self.malicious_model().as_ref(), block_seed, lane)
        }
    }

    /// The fast plan's lane under `model`.
    fn lane_under<M: FaultModel + ?Sized>(
        &self,
        model: &M,
        block_seed: u64,
        lane: u32,
    ) -> TrialOutcome {
        match &self.plan {
            PlanKind::SimpleFast(plan) => {
                let out = plan.run_lane_model(model, block_seed, lane);
                TrialOutcome::flooded(
                    out.completion_round(),
                    out.correct_fraction(),
                    out.almost_complete_round(),
                )
            }
            PlanKind::FloodFast(plan) => {
                growth_trial(&plan.run_lane_model(model, block_seed, lane))
            }
            PlanKind::DecayFast(plan) => {
                growth_trial(&plan.run_lane_model(model, block_seed, lane))
            }
            _ => panic!("trial_lane requires a batch-capable fast-path plan"),
        }
    }
}

/// A flood or Decay trial's row: success iff every node was informed,
/// plus the informed fraction and the almost-complete round.
fn growth_trial(out: &GrowthOutcome) -> TrialOutcome {
    TrialOutcome::flooded(
        out.completion_round(),
        out.informed_fraction(),
        out.almost_complete_round(),
    )
}

/// The rows of a flood or Decay block's live lanes `lanes`, each the
/// [`growth_trial`] row of its lane outcome.
fn growth_block(batch: &GrowthBatch, lanes: LaneMask) -> Vec<TrialOutcome> {
    mask_lanes(lanes)
        .map(|lane| {
            TrialOutcome::flooded(
                batch.completion_round(lane),
                batch.informed_fraction(lane),
                batch.almost_complete_round(lane),
            )
        })
        .collect()
}

/// Formats a probability compactly (at most 4 decimal places, no
/// trailing zeros beyond what `{}` prints for round values).
#[must_use]
pub fn fmt_p(p: f64) -> String {
    let rounded = (p * 1e4).round() / 1e4;
    format!("{rounded}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_is_connected_and_labelled() {
        for family in standard_families() {
            let g = family.build();
            assert!(g.node_count() >= 33, "{}", family.label());
            assert!(
                randcast_graph::traversal::is_connected(&g),
                "{}",
                family.label()
            );
            assert!(!family.label().is_empty());
        }
    }

    #[test]
    fn random_tree_build_is_deterministic() {
        let f = GraphFamily::RandomTree { n: 20, seed: 9 };
        let a = f.build();
        let b = f.build();
        assert_eq!(a, b);
    }

    #[test]
    fn simple_omission_scenario_runs_in_both_models() {
        for model in [Model::Mp, Model::Radio] {
            let prep = Scenario {
                graph: GraphFamily::Star(4),
                algorithm: Algorithm::Simple,
                model,
                fault: FaultConfig::omission(0.3),
                shards: ShardSpec::Auto,
            }
            .prepare();
            assert!(prep.rounds() > 0);
            assert!(prep.phase_len().is_some());
            // Deterministic per seed.
            assert_eq!(prep.trial(5), prep.trial(5));
        }
    }

    #[test]
    fn params_cover_the_spec() {
        let prep = Scenario {
            graph: GraphFamily::Grid(3, 3),
            algorithm: Algorithm::Flood { horizon_scale: 2 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.4),
            shards: ShardSpec::Auto,
        }
        .prepare();
        let params = prep.params();
        let keys: Vec<&str> = params.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "graph",
                "n",
                "algorithm",
                "model",
                "fault",
                "p",
                "m",
                "rounds"
            ]
        );
        assert_eq!(params[0].1, "grid-3x3");
        assert_eq!(params[5].1, "0.4");
    }

    #[test]
    fn flood_horizon_scales() {
        let base = Scenario {
            graph: GraphFamily::Path(8),
            algorithm: Algorithm::Flood { horizon_scale: 1 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.2),
            shards: ShardSpec::Auto,
        };
        let doubled = Scenario {
            algorithm: Algorithm::Flood { horizon_scale: 2 },
            ..base
        };
        assert_eq!(doubled.prepare().rounds(), 2 * base.prepare().rounds());
    }

    #[test]
    fn malicious_radio_uses_lie_or_jam_and_stays_feasible_below_threshold() {
        let delta = 4;
        let p = crate::feasibility::radio_threshold(delta) * 0.4;
        let prep = Scenario {
            graph: GraphFamily::Star(delta),
            algorithm: Algorithm::Simple,
            model: Model::Radio,
            fault: FaultConfig::malicious(p),
            shards: ShardSpec::Auto,
        }
        .prepare();
        let ok = (0..30).filter(|&s| prep.trial(s).success).count();
        assert!(
            ok >= 25,
            "feasible-side star should mostly succeed: {ok}/30"
        );
    }

    #[test]
    #[should_panic(expected = "does not run in the radio model")]
    fn invalid_model_combo_panics() {
        let _ = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::Kucera,
            model: Model::Radio,
            fault: FaultConfig::omission(0.1),
            shards: ShardSpec::Auto,
        }
        .prepare();
    }

    /// Every Algorithm × Model pairing, checked against the validity
    /// table — misconfigured sweeps must fail in `validate`, before any
    /// graph is built or trial runs.
    #[test]
    fn validate_enumerates_all_algorithm_model_pairs() {
        let algorithms = [
            Algorithm::Simple,
            Algorithm::SimpleFast { phase_len: None },
            Algorithm::Flood { horizon_scale: 1 },
            Algorithm::FloodFast { horizon_scale: 1 },
            Algorithm::Kucera,
            Algorithm::SelfTimed,
            Algorithm::Expanded,
            Algorithm::Decay { epoch_factor: 1 },
            Algorithm::DecayFast { epoch_factor: 1 },
        ];
        for algorithm in algorithms {
            for model in [Model::Mp, Model::Radio] {
                let scenario = Scenario {
                    graph: GraphFamily::Path(4),
                    algorithm,
                    model,
                    fault: FaultConfig::omission(0.1),
                    shards: ShardSpec::Auto,
                };
                let valid = match (algorithm, model) {
                    (Algorithm::Simple | Algorithm::SimpleFast { .. }, _) => true,
                    (
                        Algorithm::Flood { .. }
                        | Algorithm::FloodFast { .. }
                        | Algorithm::Kucera
                        | Algorithm::SelfTimed,
                        m,
                    ) => m == Model::Mp,
                    (
                        Algorithm::Expanded | Algorithm::Decay { .. } | Algorithm::DecayFast { .. },
                        m,
                    ) => m == Model::Radio,
                };
                match scenario.validate() {
                    Ok(()) => assert!(valid, "{}/{model} accepted", algorithm.name()),
                    Err(e) => {
                        assert!(!valid, "{}/{model} rejected: {e}", algorithm.name());
                        assert_eq!(
                            e,
                            ScenarioError::ModelMismatch {
                                algorithm: algorithm.name(),
                                model
                            }
                        );
                        // And try_prepare fails identically without
                        // running a trial.
                        assert_eq!(scenario.try_prepare().err(), Some(e));
                    }
                }
                if !valid {
                    continue;
                }
                // For every valid Algorithm × Model pair, sweep the
                // fault kinds against the tolerance table. The only
                // remaining rejections are full-malicious radio for
                // the Decay engines and the fast Simple kernel; each
                // FaultMismatch must name algorithms that *do* support
                // the requested kind.
                for kind in [
                    FaultKind::Omission,
                    FaultKind::LimitedMalicious,
                    FaultKind::Malicious,
                ] {
                    let cell = Scenario {
                        fault: FaultConfig::new(kind, 0.1).expect("valid p"),
                        ..scenario
                    };
                    let rejected = kind == FaultKind::Malicious
                        && (matches!(
                            algorithm,
                            Algorithm::Decay { .. } | Algorithm::DecayFast { .. }
                        ) || (model == Model::Radio
                            && matches!(algorithm, Algorithm::SimpleFast { .. })));
                    let fault_valid = !rejected;
                    match cell.validate() {
                        Ok(()) => {
                            assert!(fault_valid, "{}/{model}/{kind} accepted", algorithm.name())
                        }
                        Err(e) => {
                            assert!(
                                !fault_valid,
                                "{}/{model}/{kind} rejected: {e}",
                                algorithm.name()
                            );
                            assert!(matches!(e, ScenarioError::FaultMismatch { .. }), "{e:?}");
                            let msg = e.to_string();
                            assert!(
                                msg.contains(&format!(
                                    "{kind} faults are supported by: {}",
                                    algorithms_supporting(kind)
                                )),
                                "hint must list supporters: {msg}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validate_rejects_fault_and_parameter_misconfigurations() {
        let base = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::Decay { epoch_factor: 1 },
            model: Model::Radio,
            fault: FaultConfig::malicious(0.1),
            shards: ShardSpec::Auto,
        };
        assert!(matches!(
            base.validate(),
            Err(ScenarioError::FaultMismatch { .. })
        ));
        let kucera_infeasible = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::Kucera,
            model: Model::Mp,
            fault: FaultConfig::limited_malicious(0.6),
            shards: ShardSpec::Auto,
        };
        assert!(matches!(
            kucera_infeasible.validate(),
            Err(ScenarioError::Kucera(KuceraError::ErrorBoundTooHigh { .. }))
        ));
        let zero_scale = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::Flood { horizon_scale: 0 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.1),
            shards: ShardSpec::Auto,
        };
        assert!(matches!(
            zero_scale.validate(),
            Err(ScenarioError::InvalidParameter(_))
        ));
        // Disconnected-capable families are fast-flood only.
        let rgg = GraphFamily::RandomGeometric {
            n: 64,
            deg: 4,
            seed: 3,
        };
        assert!(rgg.may_be_disconnected());
        let rgg_flood = Scenario {
            graph: rgg,
            algorithm: Algorithm::Flood { horizon_scale: 1 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.1),
            shards: ShardSpec::Auto,
        };
        assert!(matches!(
            rgg_flood.validate(),
            Err(ScenarioError::RequiresConnectivity { .. })
        ));
        let rgg_fast = Scenario {
            algorithm: Algorithm::FloodFast { horizon_scale: 1 },
            ..rgg_flood
        };
        assert!(rgg_fast.validate().is_ok());
        assert!(rgg_fast.try_prepare().is_ok());
    }

    #[test]
    fn kucera_infeasible_p_is_an_error_not_a_panic() {
        let err = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::Kucera,
            model: Model::Mp,
            fault: FaultConfig::limited_malicious(0.5),
            shards: ShardSpec::Auto,
        }
        .try_prepare()
        .err()
        .expect("p = 0.5 is infeasible");
        assert!(err.to_string().contains("1/2"), "{err}");
    }

    #[test]
    fn new_families_build_and_label() {
        let cases = [
            (
                GraphFamily::Gnp {
                    n: 200,
                    avg_deg: 6,
                    seed: 1,
                },
                "gnp-200-d6",
            ),
            (
                GraphFamily::RandomGeometric {
                    n: 200,
                    deg: 9,
                    seed: 2,
                },
                "rgg-200-d9",
            ),
            (
                GraphFamily::PreferentialAttachment {
                    n: 200,
                    m: 3,
                    seed: 3,
                },
                "pa-200-m3",
            ),
        ];
        for (family, label) in cases {
            assert_eq!(family.label(), label);
            let g = family.build();
            assert_eq!(g.node_count(), 200);
            // Deterministic per seed.
            assert_eq!(g, family.build(), "{label}");
        }
        // Gnp and PA are connected by construction.
        assert!(randcast_graph::traversal::is_connected(
            &GraphFamily::Gnp {
                n: 300,
                avg_deg: 4,
                seed: 9
            }
            .build()
        ));
        assert!(randcast_graph::traversal::is_connected(
            &GraphFamily::PreferentialAttachment {
                n: 300,
                m: 2,
                seed: 9
            }
            .build()
        ));
    }

    #[test]
    fn flood_selects_fast_path_only_at_scale() {
        let small = Scenario {
            graph: GraphFamily::Grid(8, 8),
            algorithm: Algorithm::Flood { horizon_scale: 1 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(!small.uses_fast_path());
        let large = Scenario {
            graph: GraphFamily::Gnp {
                n: FLOOD_FAST_MIN_N,
                avg_deg: 6,
                seed: 4,
            },
            algorithm: Algorithm::Flood { horizon_scale: 1 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(large.uses_fast_path());
        let forced = Scenario {
            graph: GraphFamily::Grid(8, 8),
            algorithm: Algorithm::FloodFast { horizon_scale: 1 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(forced.uses_fast_path());
    }

    #[test]
    fn prepare_on_prebuilt_graph_matches_prepare() {
        let scenario = Scenario {
            graph: GraphFamily::Gnp {
                n: 120,
                avg_deg: 5,
                seed: 31,
            },
            algorithm: Algorithm::FloodFast { horizon_scale: 1 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        };
        let direct = scenario.try_prepare().expect("valid");
        let shared = scenario
            .try_prepare_on(scenario.graph.build())
            .expect("valid");
        assert_eq!(direct.rounds(), shared.rounds());
        for seed in 0..10 {
            assert_eq!(direct.trial(seed), shared.trial(seed));
        }
    }

    #[test]
    fn fast_path_trial_reports_fraction_and_almost_time() {
        let prep = Scenario {
            graph: GraphFamily::Grid(6, 6),
            algorithm: Algorithm::FloodFast { horizon_scale: 2 },
            model: Model::Mp,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        let out = prep.trial(17);
        assert!(out.success);
        let frac = out.informed_frac.expect("fast path reports fraction");
        assert!((frac - 1.0).abs() < 1e-12);
        let almost = out.almost_rounds.expect("almost-complete reached");
        let full = out.rounds.expect("completed");
        assert!(almost <= full);
        // Deterministic per seed.
        assert_eq!(prep.trial(17), out);
    }

    /// Batched execution rides the fast-path plans, so its fault-model
    /// surface is exactly theirs: the adversary kernels cover
    /// (limited-)malicious MP Simple, limited-malicious radio Simple,
    /// every flood kind, and limited-malicious Decay. The two
    /// remaining rejections — full-malicious radio for `simple-fast` /
    /// `decay-fast` — surface the typed [`FaultMismatch`] at validate
    /// time, and its message names the algorithms that *do* support
    /// the requested kind.
    ///
    /// [`FaultMismatch`]: ScenarioError::FaultMismatch
    #[test]
    fn batch_capable_plans_reject_malicious_like_their_scalar_twins() {
        for (algorithm, model) in [
            (Algorithm::SimpleFast { phase_len: None }, Model::Radio),
            (Algorithm::DecayFast { epoch_factor: 1 }, Model::Radio),
        ] {
            let err = Scenario {
                graph: GraphFamily::Path(4),
                algorithm,
                model,
                fault: FaultConfig::malicious(0.1),
                shards: ShardSpec::Auto,
            }
            .validate()
            .expect_err("full-malicious radio needs a jamming adversary");
            assert!(
                matches!(err, ScenarioError::FaultMismatch { .. }),
                "{err:?}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains("malicious faults are supported by: simple,"),
                "hint must list supporting algorithms: {msg}"
            );
            assert!(msg.contains("expanded"), "{msg}");
        }
        // Everything else is batch-capable under its malicious kinds.
        for (algorithm, model, fault) in [
            (
                Algorithm::SimpleFast { phase_len: None },
                Model::Mp,
                FaultConfig::malicious(0.2),
            ),
            (
                Algorithm::SimpleFast { phase_len: None },
                Model::Radio,
                FaultConfig::limited_malicious(0.05),
            ),
            (
                Algorithm::FloodFast { horizon_scale: 1 },
                Model::Mp,
                FaultConfig::malicious(0.1),
            ),
            (
                Algorithm::DecayFast { epoch_factor: 1 },
                Model::Radio,
                FaultConfig::limited_malicious(0.1),
            ),
        ] {
            let prep = Scenario {
                graph: GraphFamily::Path(4),
                algorithm,
                model,
                fault,
                shards: ShardSpec::Auto,
            }
            .prepare();
            assert!(prep.supports_batch(), "{} {model}", algorithm.name());
        }
    }

    /// `supports_batch` must track the fast path exactly: plain
    /// algorithms become batch-capable at the same `n ≥ 4096`
    /// threshold where the auto-fast selection engages, forced fast
    /// variants are batch-capable at every size, and general-engine
    /// plans never are.
    #[test]
    fn supports_batch_mirrors_the_auto_fast_threshold() {
        let omission = FaultConfig::omission(0.3);
        for (algorithm, model) in [
            (Algorithm::Flood { horizon_scale: 1 }, Model::Mp),
            (Algorithm::Decay { epoch_factor: 2 }, Model::Radio),
            (Algorithm::Simple, Model::Mp),
        ] {
            let small = Scenario {
                graph: GraphFamily::Grid(8, 8),
                algorithm,
                model,
                fault: omission,
                shards: ShardSpec::Auto,
            }
            .prepare();
            assert!(
                !small.supports_batch(),
                "{} below the threshold",
                algorithm.name()
            );
            let large = Scenario {
                graph: GraphFamily::Gnp {
                    n: FLOOD_FAST_MIN_N,
                    avg_deg: 6,
                    seed: 4,
                },
                algorithm,
                model,
                fault: omission,
                shards: ShardSpec::Auto,
            }
            .prepare();
            assert!(
                large.supports_batch(),
                "{} at the threshold",
                algorithm.name()
            );
            assert_eq!(large.supports_batch(), large.uses_fast_path());
        }
        for (algorithm, model) in [
            (Algorithm::FloodFast { horizon_scale: 1 }, Model::Mp),
            (Algorithm::DecayFast { epoch_factor: 1 }, Model::Radio),
            (Algorithm::SimpleFast { phase_len: None }, Model::Mp),
        ] {
            let forced = Scenario {
                graph: GraphFamily::Grid(4, 4),
                algorithm,
                model,
                fault: omission,
                shards: ShardSpec::Auto,
            }
            .prepare();
            assert!(forced.supports_batch(), "forced {}", algorithm.name());
        }
        let general = Scenario {
            graph: GraphFamily::Path(6),
            algorithm: Algorithm::SelfTimed,
            model: Model::Mp,
            fault: FaultConfig::omission(0.1),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(!general.supports_batch());
    }

    #[test]
    #[should_panic(expected = "batch-capable")]
    fn trial_block_panics_off_the_fast_path() {
        let prep = Scenario {
            graph: GraphFamily::Path(6),
            algorithm: Algorithm::SelfTimed,
            model: Model::Mp,
            fault: FaultConfig::omission(0.1),
            shards: ShardSpec::Auto,
        }
        .prepare();
        let _ = prep.trial_block(1, !0);
    }

    #[test]
    #[should_panic(expected = "decay tolerates omission and limited-malicious")]
    fn decay_rejects_full_malicious() {
        let _ = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::Decay { epoch_factor: 1 },
            model: Model::Radio,
            fault: FaultConfig::malicious(0.1),
            shards: ShardSpec::Auto,
        }
        .prepare();
    }

    /// Decay accepts limited-malicious (the flip rule) on both engines
    /// but rejects full-malicious jamming at every size, with a typed
    /// error whose message points at the supporting algorithms —
    /// before any graph is built.
    #[test]
    fn decay_fast_rejects_full_malicious_with_typed_error() {
        for algorithm in [
            Algorithm::DecayFast { epoch_factor: 1 },
            Algorithm::Decay { epoch_factor: 1 },
        ] {
            // Both below and above the auto-fast threshold.
            for graph in [
                GraphFamily::Path(4),
                GraphFamily::Gnp {
                    n: RADIO_FAST_MIN_N,
                    avg_deg: 6,
                    seed: 2,
                },
            ] {
                let scenario = Scenario {
                    graph,
                    algorithm,
                    model: Model::Radio,
                    fault: FaultConfig::malicious(0.1),
                    shards: ShardSpec::Auto,
                };
                let err = scenario
                    .validate()
                    .expect_err("full-malicious radio needs a jamming adversary");
                assert_eq!(
                    err,
                    ScenarioError::FaultMismatch {
                        algorithm: algorithm.name(),
                        tolerates: "omission and limited-malicious faults \
                                    (use expanded for full-malicious radio)",
                        requested: FaultKind::Malicious,
                    }
                );
                assert!(err.to_string().contains("supported by:"), "{err}");
                // …while limited-malicious is now valid.
                assert!(Scenario {
                    fault: FaultConfig::limited_malicious(0.1),
                    ..scenario
                }
                .validate()
                .is_ok());
            }
        }
    }

    #[test]
    fn decay_selects_fast_path_only_at_scale() {
        let small = Scenario {
            graph: GraphFamily::Grid(8, 8),
            algorithm: Algorithm::Decay { epoch_factor: 1 },
            model: Model::Radio,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(!small.uses_fast_path());
        let large = Scenario {
            graph: GraphFamily::Gnp {
                n: RADIO_FAST_MIN_N,
                avg_deg: 6,
                seed: 4,
            },
            algorithm: Algorithm::Decay { epoch_factor: 1 },
            model: Model::Radio,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(large.uses_fast_path());
        let forced = Scenario {
            graph: GraphFamily::Grid(8, 8),
            algorithm: Algorithm::DecayFast { epoch_factor: 1 },
            model: Model::Radio,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(forced.uses_fast_path());
        // Same classical parameterization on either path.
        assert_eq!(small.rounds(), forced.rounds());
    }

    #[test]
    fn decay_fast_accepts_disconnected_families_and_reports_fraction() {
        let rgg = GraphFamily::RandomGeometric {
            n: 64,
            deg: 4,
            seed: 3,
        };
        assert!(rgg.may_be_disconnected());
        // Plain decay must keep rejecting it…
        let decay = Scenario {
            graph: rgg,
            algorithm: Algorithm::Decay { epoch_factor: 1 },
            model: Model::Radio,
            fault: FaultConfig::omission(0.2),
            shards: ShardSpec::Auto,
        };
        assert!(matches!(
            decay.validate(),
            Err(ScenarioError::RequiresConnectivity { .. })
        ));
        // …while decay-fast measures the informed fraction.
        let prep = Scenario {
            algorithm: Algorithm::DecayFast { epoch_factor: 2 },
            ..decay
        }
        .try_prepare()
        .expect("valid");
        assert!(prep.uses_fast_path());
        let out = prep.trial(5);
        let frac = out.informed_frac.expect("fast path reports fraction");
        assert!(frac > 0.0 && frac <= 1.0);
        assert_eq!(out.success, (frac - 1.0).abs() < 1e-12);
        assert_eq!(prep.trial(5), out, "deterministic per seed");
    }

    #[test]
    fn simple_selects_fast_path_at_scale_for_all_but_full_malicious_radio() {
        let small = Scenario {
            graph: GraphFamily::Grid(8, 8),
            algorithm: Algorithm::Simple,
            model: Model::Mp,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(!small.uses_fast_path());
        for model in [Model::Mp, Model::Radio] {
            let large = Scenario {
                graph: GraphFamily::Gnp {
                    n: SIMPLE_FAST_MIN_N,
                    avg_deg: 6,
                    seed: 4,
                },
                algorithm: Algorithm::Simple,
                model,
                fault: FaultConfig::omission(0.3),
                shards: ShardSpec::Auto,
            }
            .prepare();
            assert!(large.uses_fast_path(), "{model}");
            // The fast plan keeps the Theorem 2.1 phase length.
            let m = randcast_stats::chernoff::phase_len_omission(SIMPLE_FAST_MIN_N, 0.3);
            assert_eq!(large.phase_len(), Some(m));
            assert_eq!(large.rounds(), SIMPLE_FAST_MIN_N * m);
        }
        // Malicious Simple crosses to the adversary kernels at scale
        // too: the flip rule in MP (with the Theorem 2.2 phase
        // length), the lie-or-jam speaker rule for limited-malicious
        // radio. Only full-malicious radio stays general.
        let large_gnp = GraphFamily::Gnp {
            n: SIMPLE_FAST_MIN_N,
            avg_deg: 6,
            seed: 4,
        };
        let malicious_mp = Scenario {
            graph: large_gnp,
            algorithm: Algorithm::Simple,
            model: Model::Mp,
            fault: FaultConfig::malicious(0.2),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(malicious_mp.uses_fast_path());
        assert_eq!(
            malicious_mp.phase_len(),
            Some(randcast_stats::chernoff::phase_len_malicious_mp(
                SIMPLE_FAST_MIN_N,
                0.2
            ))
        );
        let limited_radio = Scenario {
            graph: large_gnp,
            algorithm: Algorithm::Simple,
            model: Model::Radio,
            fault: FaultConfig::limited_malicious(0.001),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(limited_radio.uses_fast_path());
        let full_radio = Scenario {
            graph: large_gnp,
            algorithm: Algorithm::Simple,
            model: Model::Radio,
            fault: FaultConfig::malicious(0.001),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(!full_radio.uses_fast_path());
        // Below the threshold malicious Simple stays general.
        let small_malicious = Scenario {
            graph: GraphFamily::Grid(8, 8),
            algorithm: Algorithm::Simple,
            model: Model::Mp,
            fault: FaultConfig::malicious(0.2),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(!small_malicious.uses_fast_path());
    }

    #[test]
    fn simple_fast_forced_path_matches_simple_parameterization() {
        let base = Scenario {
            graph: GraphFamily::Grid(6, 6),
            algorithm: Algorithm::Simple,
            model: Model::Mp,
            fault: FaultConfig::omission(0.4),
            shards: ShardSpec::Auto,
        };
        let forced = Scenario {
            algorithm: Algorithm::SimpleFast { phase_len: None },
            ..base
        }
        .prepare();
        assert!(forced.uses_fast_path());
        assert_eq!(forced.phase_len(), base.prepare().phase_len());
        assert_eq!(forced.rounds(), base.prepare().rounds());
        // An explicit phase length overrides the prescription.
        let fixed = Scenario {
            algorithm: Algorithm::SimpleFast { phase_len: Some(7) },
            ..base
        }
        .prepare();
        assert_eq!(fixed.phase_len(), Some(7));
        assert_eq!(fixed.rounds(), 36 * 7);
        // Trials report the correct fraction and are deterministic.
        let out = fixed.trial(3);
        assert_eq!(out, fixed.trial(3));
        let frac = out.informed_frac.expect("fast path reports fraction");
        assert!(frac > 0.0 && frac <= 1.0);
        assert_eq!(out.success, (frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simple_fast_rejects_full_malicious_radio_and_zero_phase_len() {
        let err = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::SimpleFast { phase_len: None },
            model: Model::Radio,
            fault: FaultConfig::malicious(0.1),
            shards: ShardSpec::Auto,
        }
        .validate()
        .expect_err("full-malicious radio needs the jamming adversary");
        assert_eq!(
            err,
            ScenarioError::FaultMismatch {
                algorithm: "simple-fast",
                tolerates: "omission and limited-malicious faults in the radio \
                            model (use simple for full-malicious radio)",
                requested: FaultKind::Malicious,
            }
        );
        assert!(err.to_string().contains("supported by:"), "{err}");
        // MP malicious and radio limited-malicious are kernel-capable.
        for (model, fault) in [
            (Model::Mp, FaultConfig::malicious(0.1)),
            (Model::Mp, FaultConfig::limited_malicious(0.1)),
            (Model::Radio, FaultConfig::limited_malicious(0.05)),
        ] {
            assert!(Scenario {
                graph: GraphFamily::Path(4),
                algorithm: Algorithm::SimpleFast { phase_len: None },
                model,
                fault,
                shards: ShardSpec::Auto,
            }
            .validate()
            .is_ok());
        }
        assert!(matches!(
            Scenario {
                graph: GraphFamily::Path(4),
                algorithm: Algorithm::SimpleFast { phase_len: Some(0) },
                model: Model::Mp,
                fault: FaultConfig::omission(0.1),
                shards: ShardSpec::Auto,
            }
            .validate(),
            Err(ScenarioError::InvalidParameter(_))
        ));
    }

    #[test]
    fn simple_fast_accepts_disconnected_families_and_reports_fraction() {
        let rgg = GraphFamily::RandomGeometric {
            n: 64,
            deg: 4,
            seed: 3,
        };
        assert!(rgg.may_be_disconnected());
        // Plain simple must keep rejecting it…
        let simple = Scenario {
            graph: rgg,
            algorithm: Algorithm::Simple,
            model: Model::Mp,
            fault: FaultConfig::omission(0.2),
            shards: ShardSpec::Auto,
        };
        assert!(matches!(
            simple.validate(),
            Err(ScenarioError::RequiresConnectivity { .. })
        ));
        // …while simple-fast measures the correct fraction.
        let prep = Scenario {
            algorithm: Algorithm::SimpleFast { phase_len: None },
            ..simple
        }
        .try_prepare()
        .expect("valid");
        assert!(prep.uses_fast_path());
        let out = prep.trial(5);
        let frac = out.informed_frac.expect("fast path reports fraction");
        assert!(frac > 0.0 && frac < 1.0, "this rgg is disconnected");
        assert!(!out.success);
    }

    /// The malicious fast plans keep the engines' lane-coupling and
    /// shard-neutrality guarantees through the scenario layer: lane
    /// `k` of a block equals the lane replay, the scalar trial is lane
    /// 0 of block `seed`, and a fixed shard count changes nothing.
    #[test]
    fn malicious_fast_trials_couple_lanes_blocks_and_shards() {
        for (algorithm, model, fault) in [
            (
                Algorithm::SimpleFast { phase_len: Some(5) },
                Model::Mp,
                FaultConfig::malicious(0.3),
            ),
            (
                Algorithm::SimpleFast { phase_len: Some(5) },
                Model::Radio,
                FaultConfig::limited_malicious(0.05),
            ),
            (
                Algorithm::FloodFast { horizon_scale: 1 },
                Model::Mp,
                FaultConfig::malicious(0.3),
            ),
            (
                Algorithm::DecayFast { epoch_factor: 1 },
                Model::Radio,
                FaultConfig::limited_malicious(0.3),
            ),
        ] {
            let base = Scenario {
                graph: GraphFamily::Grid(6, 6),
                algorithm,
                model,
                fault,
                shards: ShardSpec::Auto,
            };
            let prep = base.prepare();
            let block = prep.trial_block(9, !0);
            for lane in [0u32, 7, 63] {
                assert_eq!(
                    block[lane as usize],
                    prep.trial_lane(9, lane),
                    "{} {model} lane {lane}",
                    algorithm.name()
                );
            }
            assert_eq!(prep.trial(9), block[0], "{}", algorithm.name());
            let sharded = Scenario {
                shards: ShardSpec::Fixed(3),
                ..base
            }
            .prepare();
            assert_eq!(sharded.trial_block(9, !0), block, "{}", algorithm.name());
        }
    }

    #[test]
    fn decay_selects_fast_path_for_limited_malicious_at_scale() {
        let small = Scenario {
            graph: GraphFamily::Grid(8, 8),
            algorithm: Algorithm::Decay { epoch_factor: 2 },
            model: Model::Radio,
            fault: FaultConfig::limited_malicious(0.2),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(!small.uses_fast_path());
        assert_eq!(small.trial(3), small.trial(3), "deterministic per seed");
        let large = Scenario {
            graph: GraphFamily::Gnp {
                n: RADIO_FAST_MIN_N,
                avg_deg: 6,
                seed: 4,
            },
            algorithm: Algorithm::Decay { epoch_factor: 2 },
            model: Model::Radio,
            fault: FaultConfig::limited_malicious(0.2),
            shards: ShardSpec::Auto,
        }
        .prepare();
        assert!(large.uses_fast_path());
        assert!(large.supports_batch());
    }

    #[test]
    fn prepare_shared_matches_prepare() {
        let scenario = Scenario {
            graph: GraphFamily::Gnp {
                n: 120,
                avg_deg: 5,
                seed: 31,
            },
            algorithm: Algorithm::SimpleFast { phase_len: None },
            model: Model::Mp,
            fault: FaultConfig::omission(0.3),
            shards: ShardSpec::Auto,
        };
        let direct = scenario.try_prepare().expect("valid");
        let graph = std::sync::Arc::new(scenario.graph.build());
        let shared = scenario
            .try_prepare_shared(std::sync::Arc::clone(&graph))
            .expect("valid");
        assert_eq!(direct.rounds(), shared.rounds());
        for seed in 0..10 {
            assert_eq!(direct.trial(seed), shared.trial(seed));
        }
    }

    #[test]
    fn fmt_p_truncates() {
        assert_eq!(fmt_p(0.3), "0.3");
        assert_eq!(fmt_p(0.123456), "0.1235");
        assert_eq!(fmt_p(0.0), "0");
    }
}
