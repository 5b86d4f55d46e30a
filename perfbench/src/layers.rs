//! Every call the benchmark makes into the randcast crates, one section
//! per layer. When a layer's public entry points change (the
//! out-of-core `Sharded*` kernels are the likeliest to go), the
//! benchmark ports here and nowhere else; the workloads only see the
//! types this module exports.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};

use randcast_core::decay::DecayConfig;
use randcast_core::scenario::{Algorithm, GraphFamily, PreparedScenario, Scenario};
use randcast_core::sweep::{Sweep, SweepResult, TrialOutcome, BATCH_MIN_TRIALS};
use randcast_engine::flood_fast::{FastFloodBatch, FastFloodOutcome, ShardedFlood};
use randcast_engine::kernel::{BatchBernoulli, BatchTape, FAULT_STREAM, LANES};
use randcast_engine::radio_fast::{
    FastRadioBatch, FastRadioOutcome, FastRadioSchedule, ShardedRadio,
};
use randcast_engine::simple_fast::{FastSimpleBatch, FastSimpleOutcome, ShardedSimple};
use randcast_engine::FaultKind;
use randcast_graph::generators::gnp_edges;
use randcast_graph::shard::{
    DiskShards, ShardError, ShardPlan, ShardStore, ShardedBfsTree, SpillSink,
};
use randcast_graph::Graph;
use randcast_stats::chernoff::phase_len_omission;
use randcast_stats::report::SweepReport;
use randcast_stats::seed::SeedSequence;

pub use randcast_core::scenario::{standard_families, Model, ShardSpec};
pub use randcast_engine::fault::FaultConfig;

/// Lanes of one bit-sliced block.
pub const BLOCK: usize = LANES;

/// Omission failure probability of every out-of-core trial.
pub const OC_P: f64 = 0.3;

/// The fast kernels the per-kernel metrics are named after.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kernel {
    Flood,
    Radio,
    Simple,
}

impl Kernel {
    pub const ALL: [Kernel; 3] = [Kernel::Flood, Kernel::Radio, Kernel::Simple];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Flood => "flood",
            Kernel::Radio => "radio",
            Kernel::Simple => "simple",
        }
    }
}

// ---------------------------------------------------------------- graph

/// `GraphFamily::build`, shared the way the sweep's graph cache shares it.
pub fn generate(family: &GraphFamily) -> Arc<Graph> {
    Arc::new(family.build())
}

/// Streams `G(n, 8/n)` edges from `seed` into a `shards`-way spill under
/// `dir`.
pub fn spill_gnp(dir: &Path, n: usize, shards: usize, seed: u64) -> Result<SpillSink, ShardError> {
    let q = (8.0 / (n as f64 - 1.0)).min(1.0);
    let mut sink = SpillSink::create(dir, ShardPlan::uniform(n, shards))?;
    gnp_edges(&mut sink, n, q, &mut SmallRng::seed_from_u64(seed))?;
    Ok(sink)
}

/// `SpillSink::finalize` into an on-disk store.
pub fn finalize(sink: SpillSink) -> Result<ShardStore, ShardError> {
    Ok(ShardStore::Disk(sink.finalize()?))
}

/// `ShardedBfsTree::build` from node 0, spilling child segments under
/// `dir`.
pub fn bfs_tree(store: &ShardStore, dir: &Path) -> Result<ShardedBfsTree, ShardError> {
    ShardedBfsTree::build(store, 0, dir)
}

/// Bytes of a store's segment payloads: one `u32` per row offset and
/// per adjacency entry.
fn disk_bytes(d: &DiskShards) -> u64 {
    4 * (d.entry_count() + d.node_count() as u64 + d.plan().shard_count() as u64)
}

// ----------------------------------------------------------------- core

/// One sweep cell: a scenario and its trial count.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub scenario: Scenario,
    pub trials: usize,
}

impl Cell {
    /// The fast kernel the cell runs on, or `None` for the trait-object
    /// engines.
    pub fn kernel(&self) -> Option<Kernel> {
        match self.scenario.algorithm {
            Algorithm::FloodFast { .. } => Some(Kernel::Flood),
            Algorithm::DecayFast { .. } => Some(Kernel::Radio),
            Algorithm::SimpleFast { .. } => Some(Kernel::Simple),
            _ => None,
        }
    }

    /// Whether the cell's fast kernel runs a `FaultModel` (malicious
    /// kinds) instead of the hard-wired omission passes.
    pub fn fault_model(&self) -> bool {
        self.kernel().is_some() && self.scenario.fault.kind != FaultKind::Omission
    }

    /// The trait-object engine label, e.g. `simple_mp` or `kucera`.
    pub fn general_label(&self) -> String {
        match self.scenario.algorithm {
            Algorithm::Kucera => "kucera".into(),
            a => format!("{}_{}", a.name().replace('-', "_"), self.scenario.model),
        }
    }
}

/// `Scenario::try_prepare_shared`.
pub fn prepare(cell: &Cell, graph: Arc<Graph>) -> PreparedScenario {
    cell.scenario
        .try_prepare_shared(graph)
        .unwrap_or_else(|e| panic!("benchmark scenario is invalid: {e}"))
}

/// One `Sweep::run` over `cells` at `threads` workers.
pub fn sweep(root_seed: u64, threads: usize, cells: &[Cell]) -> SweepResult {
    let mut sweep = Sweep::new("perfbench", SeedSequence::new(root_seed)).with_threads(threads);
    for c in cells {
        sweep
            .try_scenario(c.scenario, c.trials)
            .unwrap_or_else(|e| panic!("benchmark scenario is invalid: {e}"));
    }
    sweep.run()
}

/// Whether `Sweep::run` runs a cell of `trials` trials in bit-sliced
/// blocks.
pub fn batched(prepared: &PreparedScenario, trials: usize) -> bool {
    trials >= BATCH_MIN_TRIALS && prepared.supports_batch()
}

/// Seed-tree label of block seeds (the sweep module's documented
/// `BATCH_LABEL`).
const BATCH_LABEL: u64 = 0xB10C;

/// The seed `Sweep::run` gives block `block` of cell `cell`.
pub fn block_seed(root_seed: u64, cell: usize, block: usize) -> u64 {
    SeedSequence::new(root_seed)
        .child(cell as u64)
        .child(BATCH_LABEL)
        .nth_seed(block as u64)
}

/// The seed `Sweep::run` gives scalar trial `trial` of cell `cell`.
pub fn trial_seed(root_seed: u64, cell: usize, trial: usize) -> u64 {
    SeedSequence::new(root_seed)
        .child(cell as u64)
        .nth_rng(trial as u64)
        .gen::<u64>()
}

/// `PreparedScenario::trial_block_threads`.
pub fn block(prepared: &PreparedScenario, seed: u64, threads: usize) -> Vec<TrialOutcome> {
    prepared.trial_block_threads(seed, threads)
}

/// `PreparedScenario::trial_lane`.
pub fn lane(prepared: &PreparedScenario, seed: u64, lane: usize) -> TrialOutcome {
    prepared.trial_lane(seed, lane as u32)
}

/// `PreparedScenario::trial`.
pub fn trial(prepared: &PreparedScenario, seed: u64) -> TrialOutcome {
    prepared.trial(seed)
}

/// `PreparedScenario::rounds`, the per-trial round budget.
pub fn round_budget(prepared: &PreparedScenario) -> usize {
    prepared.rounds()
}

// -------------------------------------------------------- engine kernel

/// Draws one 64-lane Bernoulli(`p`) mask per site over `sites` sites of
/// one fault tape and returns how many coins came up true.
pub fn coin_masks(p: f64, seed: u64, sites: u64) -> u64 {
    let coin = BatchBernoulli::new(p);
    let tape = BatchTape::new(seed, FAULT_STREAM);
    (0..sites)
        .map(|site| u64::from(coin.mask(&tape, site, !0).count_ones()))
        .sum()
}

// -------------------------------------------------- engine, out of core

/// One scalar out-of-core trial, whichever kernel ran it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    Flood(FastFloodOutcome),
    Radio(FastRadioOutcome),
    Simple(FastSimpleOutcome),
}

impl Outcome {
    /// The round by which the trial reached its final informed (or
    /// correct) count: completion on a connected graph, the source
    /// component's coverage on `G(n, 8/n)`.
    pub fn settled_round(&self) -> Option<usize> {
        match self {
            Outcome::Flood(o) => o.round_reaching(o.informed_count()),
            Outcome::Radio(o) => o.round_reaching(o.informed_count()),
            Outcome::Simple(o) => Some(o.last_adoption_round()),
        }
    }

    /// Informed nodes (flood, radio) or nodes holding the source bit
    /// (Simple).
    pub fn informed_count(&self) -> usize {
        match self {
            Outcome::Flood(o) => o.informed_count(),
            Outcome::Radio(o) => o.informed_count(),
            Outcome::Simple(o) => o.correct_count(),
        }
    }
}

/// One 64-lane out-of-core block.
pub enum Batch {
    Flood(FastFloodBatch),
    Radio(FastRadioBatch),
    Simple(FastSimpleBatch),
}

impl Batch {
    pub fn lane_outcome(&self, lane: usize) -> Outcome {
        let lane = lane as u32;
        match self {
            Batch::Flood(b) => Outcome::Flood(b.lane_outcome(lane)),
            Batch::Radio(b) => Outcome::Radio(b.lane_outcome(lane)),
            Batch::Simple(b) => Outcome::Simple(b.lane_outcome(lane)),
        }
    }
}

/// The adjacency store, wrapped by whichever kernel ran last.
enum Adjacency {
    Flood(ShardedFlood),
    Radio(ShardedRadio),
}

/// The three out-of-core kernels over one spilled store and its BFS
/// tree, with prefetch on. Flood and radio hand the adjacency store to
/// each other without a rebuild; Simple walks the tree's child segments.
pub struct OutOfCore {
    adjacency: Option<Adjacency>,
    simple: ShardedSimple,
    reach: usize,
    n: usize,
    threads: usize,
    flood_horizon: usize,
    decay: DecayConfig,
    segment_bytes: u64,
}

impl OutOfCore {
    /// Wraps `store` and the tree built over it; radio's collision drain
    /// runs on `threads` workers.
    pub fn new(store: ShardStore, tree: ShardedBfsTree, threads: usize) -> Self {
        let n = store.node_count();
        let nf = n as f64;
        // The giant component of G(n, 8/n) has diameter about
        // ln n / ln 8; three times that is a generous estimate, and the
        // kernels stop early once nothing can change.
        let d_est = (3.0 * nf.ln() / 8f64.ln()).ceil() as usize;
        let flood_horizon =
            ((2.0 * (d_est as f64 + 4.0 * nf.ln()) / (1.0 - OC_P)).ceil() as usize).max(1);
        let reach = tree.reachable();
        let adjacency_bytes = match &store {
            ShardStore::Disk(d) => disk_bytes(d),
            ShardStore::Ram(_) => 0,
        };
        let segment_bytes = adjacency_bytes + disk_bytes(tree.children());
        let (order, children) = tree.into_parts();
        let m = phase_len_omission(n.max(2), OC_P);
        let simple =
            ShardedSimple::new(ShardStore::Disk(children), order, 0, m).with_prefetch(true);
        OutOfCore {
            adjacency: Some(Adjacency::Flood(
                ShardedFlood::new(store, 0, flood_horizon).with_prefetch(true),
            )),
            simple,
            reach,
            n,
            threads,
            flood_horizon,
            decay: DecayConfig::classical(n, d_est),
            segment_bytes,
        }
    }

    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Nodes reachable from the source: `ShardedBfsTree::reachable`.
    pub fn reachable(&self) -> usize {
        self.reach
    }

    /// Bytes of all segment payloads, adjacency plus tree.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// The round budget of one trial of `kernel`.
    pub fn round_budget(&self, kernel: Kernel) -> usize {
        match kernel {
            Kernel::Flood => self.flood_horizon,
            Kernel::Radio => self.decay.total_rounds(),
            Kernel::Simple => self.simple.total_rounds(),
        }
    }

    fn flood(&mut self) -> &ShardedFlood {
        self.adjacency = Some(match self.adjacency.take() {
            Some(Adjacency::Radio(r)) => Adjacency::Flood(
                ShardedFlood::new(r.into_store(), 0, self.flood_horizon).with_prefetch(true),
            ),
            held => held.expect("the adjacency store is held between calls"),
        });
        match &self.adjacency {
            Some(Adjacency::Flood(f)) => f,
            _ => unreachable!("adjacency was just wrapped for flood"),
        }
    }

    fn radio(&mut self) -> &ShardedRadio {
        let schedule = FastRadioSchedule::Decay {
            epoch_len: self.decay.epoch_len,
        };
        self.adjacency = Some(match self.adjacency.take() {
            Some(Adjacency::Flood(f)) => Adjacency::Radio(
                ShardedRadio::new(f.into_store(), 0, self.decay.total_rounds(), schedule)
                    .with_prefetch(true)
                    .with_threads(self.threads),
            ),
            held => held.expect("the adjacency store is held between calls"),
        });
        match &self.adjacency {
            Some(Adjacency::Radio(r)) => r,
            _ => unreachable!("adjacency was just wrapped for radio"),
        }
    }

    /// `Sharded*::run_lane` of `kernel`.
    pub fn lane(&mut self, kernel: Kernel, seed: u64, lane: usize) -> Result<Outcome, ShardError> {
        let lane = lane as u32;
        Ok(match kernel {
            Kernel::Flood => Outcome::Flood(self.flood().run_lane(OC_P, seed, lane)?),
            Kernel::Radio => Outcome::Radio(self.radio().run_lane(OC_P, seed, lane)?),
            Kernel::Simple => Outcome::Simple(self.simple.run_lane(OC_P, seed, lane)?),
        })
    }

    /// `Sharded*::run_batch` of `kernel`; flood's `reach` is the tree's
    /// reachable count.
    pub fn batch(&mut self, kernel: Kernel, seed: u64) -> Result<Batch, ShardError> {
        let reach = self.reach;
        Ok(match kernel {
            Kernel::Flood => Batch::Flood(self.flood().run_batch(OC_P, seed, reach)?),
            Kernel::Radio => Batch::Radio(self.radio().run_batch(OC_P, seed)?),
            Kernel::Simple => Batch::Simple(self.simple.run_batch(OC_P, seed)?),
        })
    }
}

// ---------------------------------------------------------------- stats

/// `SweepResult::report().to_json()`.
pub fn report_json(result: &SweepResult) -> String {
    result.report().to_json()
}

/// Cells of a JSON report, if it parses (`SweepReport::from_json`).
pub fn report_cells(json: &str) -> Option<usize> {
    SweepReport::from_json(json).ok().map(|r| r.cells.len())
}
