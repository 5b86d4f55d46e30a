//! The unified sweep harness: declarative cells, a cell-*and*-trial
//! parallel worker pool, structured results.
//!
//! A [`Sweep`] is an ordered list of *cells*. Each cell is one table row
//! of an experiment: a set of labelled parameters, a trial count, an
//! optional almost-safety target `n`, and a trial function — or, for
//! declarative [`Scenario`] cells, just the scenario spec itself, which
//! the driver compiles at run time. Running the sweep fans work across
//! one worker pool in three phases:
//!
//! 1. **graph cache** — each distinct [`GraphFamily`]
//!    (`(family, seed)` spec, which pins the built graph exactly) is
//!    built **once**, in parallel, and shared across all of its cells
//!    behind an `Arc` via
//!    [`Scenario::try_prepare_shared`] — at `n = 10⁶` the build
//!    dominates sweep setup, and a `p`-sweep would otherwise rebuild it
//!    per cell;
//! 2. **prepare** — scenario cells compile their plans in parallel;
//! 3. **execute** — every cell's trials are split into chunks and all
//!    `(cell, chunk)` tasks are fed to the pool, so the sweep
//!    parallelizes across cells *and* within them (a sweep of many
//!    small cells no longer serializes on the per-cell barrier, and a
//!    single huge cell still uses every worker).
//!
//! The collected [`SweepResult`] renders both the Markdown tables and
//! the JSON report from the same data.
//!
//! # Determinism
//!
//! All randomness derives from the sweep's root [`SeedSequence`]: cell
//! `i` owns the child sequence `seeds.child(i)`, and trial `j` within it
//! observes the RNG stream `child.nth_rng(j)` (plus a `u64` seed drawn
//! from that stream for engine entry points that take a seed). Because
//! RNG streams are indexed by `(cell, trial)` — never by worker or
//! chunk — **outcome vectors are bit-identical for every thread
//! count**; only `wall_ms` varies between runs. The property test in
//! `crates/core/tests/sweep_equivalence.rs` pins this across closure
//! and scenario cells.
//!
//! Batch-capable scenario cells (fast-path plans, see
//! [`PreparedScenario::supports_batch`]) with at least
//! [`BATCH_MIN_TRIALS`] trials execute bit-sliced: trial `j` is lane
//! `j % `[`BATCH_LANES`] of block `j / `[`BATCH_LANES`], whose seed is
//! the pure function `child.child(BATCH_LABEL).nth_seed(block)` of the
//! root seed, the cell index, and the block index. Chunks are aligned
//! to block boundaries, and a partial tail block (`trials %
//! `[`BATCH_LANES`]` != 0`) runs as one block masked to its occupied
//! lanes: the pass seeds only those lanes, so the tail costs what its
//! live lanes cost. The engines pin every live lane of a block, masked
//! or not, to its scalar lane replay, so the batched outcome vector is
//! also thread-count independent (`crates/core/tests/batch_equivalence.rs`
//! pins the lane-exact agreement; the sweep tests cover the
//! scheduling).
//!
//! # Example
//!
//! ```
//! use randcast_core::sweep::{Sweep, TrialOutcome};
//! use randcast_stats::seed::SeedSequence;
//!
//! let mut sweep = Sweep::new("demo", SeedSequence::new(7));
//! for p in [0.25, 0.75] {
//!     sweep.cell([("p", format!("{p}"))], 200, None, move |_seed, rng| {
//!         use rand::Rng;
//!         TrialOutcome::pass(rng.gen_bool(p))
//!     });
//! }
//! let result = sweep.run();
//! assert_eq!(result.cells.len(), 2);
//! assert!(result.cells[0].estimate.rate() < result.cells[1].estimate.rate());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng as _;

use randcast_engine::kernel::lane_mask_first;
use randcast_graph::Graph;
use randcast_stats::aggregate::OutcomeSummary;
use randcast_stats::estimate::SuccessEstimate;
pub use randcast_stats::report::CellKind;
use randcast_stats::report::{CellReport, SweepReport};
use randcast_stats::seed::SeedSequence;

use crate::experiment::AlmostSafeRow;
use crate::scenario::{GraphFamily, PreparedScenario, Scenario, ScenarioError, ShardSpec};

/// Lanes per bit-sliced trial block (re-exported from the engine
/// kernel so sweep consumers can size trial counts).
pub const BATCH_LANES: usize = randcast_engine::kernel::LANES;

/// Minimum trial count at which a batch-capable scenario cell runs in
/// bit-sliced blocks of [`BATCH_LANES`] trials instead of scalar
/// trials. Cells below one full block keep the per-trial
/// [`PreparedScenario::trial`] stream, so their outcome bytes stay
/// those of the scalar `run()` paths until those paths are retired.
pub const BATCH_MIN_TRIALS: usize = BATCH_LANES;

/// Seed-tree label under which a cell derives its block seeds: block
/// `b` of cell `i` is rooted at
/// `seeds.child(i).child(BATCH_LABEL).nth_seed(b)`, a pure function of
/// `(root, cell, block)` — never of worker or chunk.
const BATCH_LABEL: u64 = 0xB10C;

/// The result of one Monte-Carlo trial.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TrialOutcome {
    /// Whether the trial succeeded.
    pub success: bool,
    /// The completion round, for experiments that measure time.
    pub rounds: Option<f64>,
    /// The informed fraction at the end of the trial, for flood
    /// experiments in the almost-complete regime (`None` elsewhere).
    pub informed_frac: Option<f64>,
    /// The round by which an almost-complete (`1 − 1/n`) informed set
    /// was reached, when the trial measures it and it was reached.
    pub almost_rounds: Option<f64>,
}

impl TrialOutcome {
    /// A success/failure outcome with no time measurement.
    #[must_use]
    pub fn pass(success: bool) -> Self {
        TrialOutcome {
            success,
            rounds: None,
            informed_frac: None,
            almost_rounds: None,
        }
    }

    /// A timed outcome.
    #[must_use]
    pub fn with_rounds(success: bool, rounds: f64) -> Self {
        TrialOutcome {
            success,
            rounds: Some(rounds),
            informed_frac: None,
            almost_rounds: None,
        }
    }

    /// An outcome from an optional completion round: success iff the
    /// broadcast completed, with the round recorded when it did.
    #[must_use]
    pub fn completed(round: Option<usize>) -> Self {
        TrialOutcome {
            success: round.is_some(),
            rounds: round.map(|r| r as f64),
            informed_frac: None,
            almost_rounds: None,
        }
    }

    /// A flood outcome carrying the almost-complete regime metrics:
    /// success iff every node was informed, plus the informed fraction
    /// and (when reached) the `1 − 1/n` almost-complete round.
    #[must_use]
    pub fn flooded(
        completion: Option<usize>,
        informed_frac: f64,
        almost_round: Option<usize>,
    ) -> Self {
        TrialOutcome {
            success: completion.is_some(),
            rounds: completion.map(|r| r as f64),
            informed_frac: Some(informed_frac),
            almost_rounds: almost_round.map(|r| r as f64),
        }
    }
}

impl From<bool> for TrialOutcome {
    fn from(success: bool) -> Self {
        TrialOutcome::pass(success)
    }
}

type CellFn<'a> = Box<dyn Fn(u64, &mut SmallRng) -> TrialOutcome + Sync + 'a>;

/// What a cell executes: a closure with fixed labels, or a declarative
/// scenario compiled by the driver at run time (so its graph can come
/// from the shared cache).
enum CellWork<'a> {
    Closure {
        params: Vec<(String, String)>,
        n: Option<usize>,
        run: CellFn<'a>,
    },
    Scenario {
        scenario: Scenario,
        extra: Vec<(String, String)>,
    },
}

struct Cell<'a> {
    kind: CellKind,
    trials: usize,
    work: CellWork<'a>,
}

/// A declarative experiment sweep (see the module docs).
pub struct Sweep<'a> {
    experiment: String,
    seeds: SeedSequence,
    threads: usize,
    shards: Option<ShardSpec>,
    cells: Vec<Cell<'a>>,
}

impl<'a> Sweep<'a> {
    /// Creates an empty sweep rooted at `seeds`, defaulting to one
    /// worker thread per available CPU.
    #[must_use]
    pub fn new(experiment: &str, seeds: SeedSequence) -> Self {
        Sweep {
            experiment: experiment.to_owned(),
            seeds,
            threads: default_threads(),
            shards: None,
            cells: Vec::new(),
        }
    }

    /// Overrides the worker-thread count (the outcome vectors do not
    /// depend on it).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Overrides every scenario cell's [`ShardSpec`] at prepare time —
    /// the sweep-level shard knob (e.g. a `--shards` CLI flag).
    /// Sharded and monolithic passes are bit-identical, so the outcome
    /// vectors do not depend on this either; shard passes are simply
    /// scheduled inside the existing `(cell, chunk)` tasks on the
    /// worker pool. Cells added via [`prepared`](Self::prepared) are
    /// compiled before the sweep runs and keep their own spec.
    #[must_use]
    pub fn with_shards(mut self, shards: ShardSpec) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of cells added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds one cell. `params` label the cell in tables and JSON; `n`,
    /// when present, judges the measured rate against the almost-safety
    /// target `1 − 1/n`. The trial function receives a derived `u64`
    /// seed and the trial's RNG (both pure functions of the sweep root
    /// seed, the cell index, and the trial index).
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn cell<P, K, V, F>(&mut self, params: P, trials: usize, n: Option<usize>, run: F)
    where
        P: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
        F: Fn(u64, &mut SmallRng) -> TrialOutcome + Sync + 'a,
    {
        assert!(trials > 0, "need at least one trial per cell");
        self.cells.push(Cell {
            kind: CellKind::MonteCarlo,
            trials,
            work: CellWork::Closure {
                params: params
                    .into_iter()
                    .map(|(k, v)| (k.into(), v.into()))
                    .collect(),
                n: n.map(|n| n.max(2)),
                run: Box::new(run),
            },
        });
    }

    /// Adds a purely analytic table row: no trials run, and the cell is
    /// marked [`CellKind::Analytic`] so report consumers can tell it
    /// apart from a measured 100% success rate. All of its content
    /// lives in `params` (thresholds, plan sizes, ratios, …).
    pub fn analytic<P, K, V>(&mut self, params: P)
    where
        P: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        self.cells.push(Cell {
            kind: CellKind::Analytic,
            trials: 1,
            work: CellWork::Closure {
                params: params
                    .into_iter()
                    .map(|(k, v)| (k.into(), v.into()))
                    .collect(),
                n: None,
                run: Box::new(|_, _| TrialOutcome::pass(true)),
            },
        });
    }

    /// Adds a cell from a declarative [`Scenario`].
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid (see
    /// [`try_scenario`](Self::try_scenario) for the non-panicking
    /// entry point).
    pub fn scenario(&mut self, scenario: Scenario, trials: usize) {
        self.scenario_with(scenario, trials, Vec::new());
    }

    /// Adds a [`Scenario`] cell with extra parameter columns appended.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid.
    pub fn scenario_with(
        &mut self,
        scenario: Scenario,
        trials: usize,
        extra: Vec<(String, String)>,
    ) {
        self.try_scenario_with(scenario, trials, extra)
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    }

    /// Adds a cell from a declarative [`Scenario`], rejecting invalid
    /// specs instead of panicking — the entry point for sweep builders
    /// whose scenarios are data (config files, CLI input).
    ///
    /// The cell's graph comes from the driver's per-`(family, seed)`
    /// build cache at run time, so sweeps spanning several fault levels
    /// over one family build its graph once.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of [`Scenario::validate`].
    /// Graph-dependent planning failures (e.g. Kučera amplification
    /// beyond the cap on the *built* graph) are not detectable without
    /// building, and still abort the run itself.
    pub fn try_scenario(&mut self, scenario: Scenario, trials: usize) -> Result<(), ScenarioError> {
        self.try_scenario_with(scenario, trials, Vec::new())
    }

    /// [`try_scenario`](Self::try_scenario) with extra parameter
    /// columns appended.
    ///
    /// # Errors
    ///
    /// As [`try_scenario`](Self::try_scenario).
    pub fn try_scenario_with(
        &mut self,
        scenario: Scenario,
        trials: usize,
        extra: Vec<(String, String)>,
    ) -> Result<(), ScenarioError> {
        assert!(trials > 0, "need at least one trial per cell");
        scenario.validate()?;
        self.cells.push(Cell {
            kind: CellKind::MonteCarlo,
            trials,
            work: CellWork::Scenario { scenario, extra },
        });
        Ok(())
    }

    /// Adds a cell from an already-prepared scenario (lets callers
    /// inspect plan sizes — e.g. to scale trial counts — before
    /// committing the cell). Cells added this way hold their own
    /// prepared graph; use [`try_scenario`](Self::try_scenario) to
    /// share builds through the run-time cache instead.
    pub fn prepared(
        &mut self,
        prepared: PreparedScenario,
        trials: usize,
        extra: Vec<(String, String)>,
    ) {
        let mut params = prepared.params();
        params.extend(extra);
        let n = prepared.n();
        self.cell(params, trials, Some(n), move |seed, _rng| {
            prepared.trial(seed)
        });
    }

    /// Runs every cell, fanning the graph builds, the scenario
    /// compiles, and all `(cell, trial-chunk)` tasks across the worker
    /// pool.
    #[must_use]
    pub fn run(self) -> SweepResult {
        let threads = self.threads;
        let seeds = self.seeds;
        let shards = self.shards;
        let cells = self.cells;

        // Phase 1: build each distinct scenario graph once, in
        // parallel, keyed by the full family spec (which includes the
        // construction seed).
        let mut families: Vec<GraphFamily> = Vec::new();
        for cell in &cells {
            if let CellWork::Scenario { scenario, .. } = &cell.work {
                if !families.contains(&scenario.graph) {
                    families.push(scenario.graph);
                }
            }
        }
        let graph_slots: Vec<OnceLock<Arc<Graph>>> =
            (0..families.len()).map(|_| OnceLock::new()).collect();
        parallel_for_each(families.len(), threads, |i| {
            let built = Arc::new(families[i].build());
            graph_slots[i].set(built).expect("each family built once");
        });
        let graphs: HashMap<GraphFamily, Arc<Graph>> = families
            .iter()
            .zip(&graph_slots)
            .map(|(family, slot)| {
                (
                    *family,
                    Arc::clone(slot.get().expect("family build completed")),
                )
            })
            .collect();

        // Phase 2: compile scenario cells into runnable form, in
        // parallel (plan compilation does BFS and Chernoff sizing).
        let resolved_slots: Vec<OnceLock<ResolvedCell<'_, 'a>>> =
            (0..cells.len()).map(|_| OnceLock::new()).collect();
        parallel_for_each(cells.len(), threads, |i| {
            let resolved = match &cells[i].work {
                CellWork::Closure { params, n, run } => ResolvedCell {
                    params: params.clone(),
                    n: *n,
                    exec: CellExec::Closure(run),
                },
                CellWork::Scenario { scenario, extra } => {
                    let graph = Arc::clone(&graphs[&scenario.graph]);
                    let mut scenario = *scenario;
                    if let Some(spec) = shards {
                        scenario.shards = spec;
                    }
                    let prepared = scenario
                        .try_prepare_shared(graph)
                        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
                    let mut params = prepared.params();
                    params.extend(extra.iter().cloned());
                    ResolvedCell {
                        // Same clamp as `cell()`: a 1-node target would
                        // make the almost-safety bar 1 − 1/n = 0.
                        n: Some(prepared.n().max(2)),
                        params,
                        exec: CellExec::Scenario(Box::new(prepared)),
                    }
                }
            };
            let _ = resolved_slots[i].set(resolved);
        });

        // Phase 3: execute all (cell, chunk) tasks on the pool. Chunks
        // only partition work — trial RNG streams are indexed by
        // (cell, trial) and block seeds by (cell, block), so outcomes
        // cannot depend on scheduling. Batch-capable scenario cells
        // with at least one full block run bit-sliced: trial j is lane
        // j % BATCH_LANES of block j / BATCH_LANES, chunks are aligned
        // to block boundaries so whole blocks go to one worker, and a
        // partial tail block runs masked to its occupied lanes (the
        // engines pin each live lane to its scalar lane replay).
        struct Task {
            cell: usize,
            start: usize,
            len: usize,
            batched: bool,
        }
        let mut tasks: Vec<Task> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let resolved = resolved_slots[i]
                .get()
                .expect("phase 2 resolved every cell");
            let batched = cell.trials >= BATCH_MIN_TRIALS
                && match &resolved.exec {
                    CellExec::Scenario(prepared) => prepared.supports_batch(),
                    CellExec::Closure(_) => false,
                };
            let mut chunk = cell.trials.div_ceil(threads).max(1);
            if batched {
                chunk = chunk.next_multiple_of(BATCH_LANES);
            }
            let mut start = 0;
            while start < cell.trials {
                let len = chunk.min(cell.trials - start);
                tasks.push(Task {
                    cell: i,
                    start,
                    len,
                    batched,
                });
                start += len;
            }
        }
        let outcomes: Vec<Mutex<Vec<Option<TrialOutcome>>>> = cells
            .iter()
            .map(|c| Mutex::new(vec![None; c.trials]))
            .collect();
        let spans: Vec<Mutex<Option<(Instant, Instant)>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        parallel_for_each(tasks.len(), threads, |t| {
            let task = &tasks[t];
            let resolved = resolved_slots[task.cell]
                .get()
                .expect("phase 2 resolved every cell");
            let cell_seeds = seeds.child(task.cell as u64);
            let started = Instant::now();
            let mut local = Vec::with_capacity(task.len);
            match &resolved.exec {
                CellExec::Scenario(prepared) if task.batched => {
                    // One bit-sliced pass per block; the tail block
                    // (when trials % BATCH_LANES != 0) is masked to its
                    // occupied lanes, which are then the only lanes the
                    // pass seeds.
                    let block_seeds = cell_seeds.child(BATCH_LABEL);
                    let end = task.start + task.len;
                    for j in (task.start..end).step_by(BATCH_LANES) {
                        debug_assert_eq!(j % BATCH_LANES, 0, "tasks are block-aligned");
                        let block_seed = block_seeds.nth_seed((j / BATCH_LANES) as u64);
                        let lanes = lane_mask_first(end - j);
                        local.extend(
                            prepared
                                .trial_block(block_seed, lanes)
                                .into_iter()
                                .map(Some),
                        );
                    }
                }
                _ => {
                    for j in task.start..task.start + task.len {
                        let mut rng = cell_seeds.nth_rng(j as u64);
                        let seed = rng.gen::<u64>();
                        local.push(Some(match &resolved.exec {
                            CellExec::Closure(run) => run(seed, &mut rng),
                            CellExec::Scenario(prepared) => prepared.trial(seed),
                        }));
                    }
                }
            }
            let ended = Instant::now();
            outcomes[task.cell].lock().expect("outcome lock")[task.start..task.start + task.len]
                .clone_from_slice(&local);
            let mut span = spans[task.cell].lock().expect("span lock");
            *span = match *span {
                None => Some((started, ended)),
                Some((s, e)) => Some((s.min(started), e.max(ended))),
            };
        });

        // Collect, in cell order.
        let results = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let resolved = resolved_slots[i].get().expect("resolved");
                let outcomes: Vec<TrialOutcome> = outcomes[i]
                    .lock()
                    .expect("outcome lock")
                    .iter()
                    .map(|o| o.expect("all trials filled"))
                    .collect();
                let summary = OutcomeSummary::collect(
                    outcomes
                        .iter()
                        .map(|o| (o.success, o.rounds, o.informed_frac)),
                );
                let estimate = SuccessEstimate::new(summary.successes, summary.trials);
                let wall_ms = spans[i]
                    .lock()
                    .expect("span lock")
                    .map_or(0.0, |(s, e)| e.duration_since(s).as_secs_f64() * 1e3);
                CellResult {
                    kind: cell.kind,
                    params: resolved.params.clone(),
                    estimate,
                    row: resolved.n.map(|n| AlmostSafeRow::judge(estimate, n)),
                    mean_rounds: summary.mean_rounds,
                    mean_informed_frac: summary.mean_informed_frac,
                    wall_ms,
                    outcomes,
                }
            })
            .collect();
        SweepResult {
            experiment: self.experiment,
            cells: results,
        }
    }
}

/// How a resolved cell executes its trials.
enum CellExec<'c, 'a> {
    Closure(&'c CellFn<'a>),
    // Boxed: a prepared scenario (engine plan + optional shard plan)
    // dwarfs the closure variant.
    Scenario(Box<PreparedScenario>),
}

/// A cell after phase 2: labels, target `n`, and an executable.
struct ResolvedCell<'c, 'a> {
    params: Vec<(String, String)>,
    n: Option<usize>,
    exec: CellExec<'c, 'a>,
}

/// Runs `f(0..count)` across at most `threads` workers pulling from a
/// shared index — the sweep's one parallelism primitive. Results must
/// flow through `Sync` state owned by the caller; panics in `f`
/// propagate.
fn parallel_for_each(count: usize, threads: usize, f: impl Fn(usize) + Sync) {
    if threads <= 1 || count <= 1 {
        for i in 0..count {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(count) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                f(i);
            });
        }
    });
}

/// One worker per available CPU (the `Sweep` default).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The measured result of one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Monte-Carlo measurement or analytic row.
    pub kind: CellKind,
    /// The cell's parameter labels, as given.
    pub params: Vec<(String, String)>,
    /// Success estimate over the cell's trials.
    pub estimate: SuccessEstimate,
    /// Almost-safety judgement, when the cell declared a target `n`.
    pub row: Option<AlmostSafeRow>,
    /// Mean completion round over trials that reported one.
    pub mean_rounds: Option<f64>,
    /// Mean informed fraction over trials that reported one (the
    /// almost-complete broadcast metric).
    pub mean_informed_frac: Option<f64>,
    /// Wall-clock milliseconds spanned by the cell's trial tasks
    /// (first task start to last task end; tasks of other cells may
    /// interleave).
    pub wall_ms: f64,
    /// The per-trial outcome vector (thread-count independent).
    pub outcomes: Vec<TrialOutcome>,
}

impl CellResult {
    /// The table label of the almost-safety verdict, if judged.
    #[must_use]
    pub fn verdict_label(&self) -> Option<String> {
        self.row.as_ref().map(AlmostSafeRow::label)
    }
}

/// The measured result of a full sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Experiment identifier.
    pub experiment: String,
    /// Per-cell results, in sweep order.
    pub cells: Vec<CellResult>,
}

impl SweepResult {
    /// Converts to the structured report (the single source for both
    /// Markdown tables and JSON).
    #[must_use]
    pub fn report(&self) -> SweepReport {
        SweepReport {
            experiment: self.experiment.clone(),
            cells: self
                .cells
                .iter()
                .map(|c| CellReport {
                    kind: c.kind,
                    params: c.params.clone(),
                    successes: c.estimate.successes(),
                    trials: c.estimate.trials(),
                    rate: c.estimate.rate(),
                    verdict: c.verdict_label(),
                    mean_rounds: c.mean_rounds,
                    mean_informed_frac: c.mean_informed_frac,
                    wall_ms: c.wall_ms,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Algorithm, Model};
    use randcast_engine::fault::FaultConfig;

    fn outcome_vectors(threads: usize) -> Vec<Vec<TrialOutcome>> {
        let mut sweep = Sweep::new("t", SeedSequence::new(11)).with_threads(threads);
        for p in [0.2, 0.5, 0.8] {
            sweep.cell([("p", format!("{p}"))], 97, Some(16), move |seed, rng| {
                use rand::Rng;
                let flip = rng.gen_bool(p);
                TrialOutcome::with_rounds(flip, (seed % 7) as f64)
            });
        }
        sweep.run().cells.into_iter().map(|c| c.outcomes).collect()
    }

    #[test]
    fn outcomes_are_thread_count_independent() {
        let base = outcome_vectors(1);
        for threads in [2, 3, 8] {
            assert_eq!(outcome_vectors(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn cells_have_decorrelated_seed_streams() {
        let mut sweep = Sweep::new("t", SeedSequence::new(3)).with_threads(1);
        for _ in 0..2 {
            sweep.cell([("k", "v")], 10, None, |seed, _| {
                TrialOutcome::with_rounds(true, seed as f64)
            });
        }
        let result = sweep.run();
        assert_ne!(
            result.cells[0].outcomes, result.cells[1].outcomes,
            "identical cells must still draw distinct trial seeds"
        );
    }

    #[test]
    fn report_carries_measurements() {
        let mut sweep = Sweep::new("exp", SeedSequence::new(0)).with_threads(2);
        sweep.cell([("a", "1")], 50, Some(8), |_, _| TrialOutcome::pass(true));
        sweep.cell([("a", "2")], 50, None, |_, _| {
            TrialOutcome::with_rounds(false, 4.0)
        });
        let report = sweep.run().report();
        assert_eq!(report.experiment, "exp");
        assert_eq!(report.cells[0].successes, 50);
        assert_eq!(report.cells[0].verdict.as_deref(), Some("pass"));
        assert_eq!(report.cells[0].mean_rounds, None);
        assert_eq!(report.cells[1].rate, 0.0);
        assert_eq!(report.cells[1].verdict, None);
        assert_eq!(report.cells[1].mean_rounds, Some(4.0));
    }

    #[test]
    fn analytic_cells_are_marked() {
        let mut sweep = Sweep::new("a", SeedSequence::new(0)).with_threads(1);
        sweep.analytic([("p*", "0.276")]);
        sweep.cell([("x", "1")], 5, None, |_, _| TrialOutcome::pass(true));
        let report = sweep.run().report();
        assert_eq!(report.cells[0].kind, CellKind::Analytic);
        assert_eq!(report.cells[1].kind, CellKind::MonteCarlo);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trial_cells_are_rejected() {
        let mut sweep = Sweep::new("t", SeedSequence::new(0));
        sweep.cell([("k", "v")], 0, None, |_, _| TrialOutcome::pass(true));
    }

    #[test]
    fn try_scenario_rejects_invalid_cells_without_panicking() {
        let mut sweep = Sweep::new("t", SeedSequence::new(1));
        let bad = Scenario {
            graph: GraphFamily::Path(4),
            algorithm: Algorithm::Kucera,
            model: Model::Radio,
            fault: FaultConfig::omission(0.1),
            shards: ShardSpec::Auto,
        };
        let err = sweep.try_scenario(bad, 5).expect_err("invalid model combo");
        assert!(err.to_string().contains("radio"), "{err}");
        assert!(sweep.is_empty(), "rejected cells must not be added");
        // A valid scenario is accepted and runs.
        sweep
            .try_scenario(
                Scenario {
                    graph: GraphFamily::Path(4),
                    algorithm: Algorithm::Simple,
                    model: Model::Mp,
                    fault: FaultConfig::omission(0.1),
                    shards: ShardSpec::Auto,
                },
                5,
            )
            .expect("valid scenario");
        assert_eq!(sweep.len(), 1);
        let result = sweep.run();
        assert_eq!(result.cells[0].outcomes.len(), 5);
        assert_eq!(result.cells[0].params[0].1, "path-4");
    }

    #[test]
    fn scenario_cells_share_one_graph_build_per_family() {
        // Two p-cells over the same (family, seed) spec plus one over a
        // different seed: the cache must key on the full spec, and the
        // shared build must produce the same outcomes as independent
        // prepares.
        let family = GraphFamily::Gnp {
            n: 60,
            avg_deg: 4,
            seed: 9,
        };
        let other = GraphFamily::Gnp {
            n: 60,
            avg_deg: 4,
            seed: 10,
        };
        let mut sweep = Sweep::new("cache", SeedSequence::new(5)).with_threads(4);
        for (i, graph) in [family, family, other].into_iter().enumerate() {
            sweep.scenario_with(
                Scenario {
                    graph,
                    algorithm: Algorithm::FloodFast { horizon_scale: 2 },
                    model: Model::Mp,
                    fault: FaultConfig::omission(0.2),
                    shards: ShardSpec::Auto,
                },
                7,
                vec![("cell".into(), i.to_string())],
            );
        }
        let shared = sweep.run();
        // Reference: each cell prepared independently.
        let mut reference = Sweep::new("cache", SeedSequence::new(5)).with_threads(1);
        for (i, graph) in [family, family, other].into_iter().enumerate() {
            reference.prepared(
                Scenario {
                    graph,
                    algorithm: Algorithm::FloodFast { horizon_scale: 2 },
                    model: Model::Mp,
                    fault: FaultConfig::omission(0.2),
                    shards: ShardSpec::Auto,
                }
                .try_prepare()
                .expect("valid"),
                7,
                vec![("cell".into(), i.to_string())],
            );
        }
        let independent = reference.run();
        for (a, b) in shared.cells.iter().zip(&independent.cells) {
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.params, b.params);
        }
    }

    /// Forced-fast-path cells, batch-capable at any size: flood, Decay
    /// and Simple under omission, and Simple-Malicious under the flip
    /// adversary.
    fn batch_scenarios() -> [Scenario; 4] {
        let cell = |algorithm, model, fault| Scenario {
            graph: GraphFamily::Grid(6, 6),
            algorithm,
            model,
            fault,
            shards: ShardSpec::Auto,
        };
        let simple = Algorithm::SimpleFast { phase_len: None };
        [
            cell(
                Algorithm::FloodFast { horizon_scale: 2 },
                Model::Mp,
                FaultConfig::omission(0.3),
            ),
            cell(
                Algorithm::DecayFast { epoch_factor: 1 },
                Model::Radio,
                FaultConfig::omission(0.3),
            ),
            cell(simple, Model::Mp, FaultConfig::omission(0.3)),
            cell(simple, Model::Mp, FaultConfig::malicious(0.1)),
        ]
    }

    /// The flood omission cell of [`batch_scenarios`].
    fn batch_scenario() -> Scenario {
        batch_scenarios()[0]
    }

    /// Trial counts whose tail blocks hold 1, 8 and 63 lanes behind one
    /// full block, and 2 lanes behind two.
    const TAIL_TRIALS: [usize; 4] = [65, 72, 127, 130];

    fn batch_cell_outcomes(scenario: Scenario, trials: usize, threads: usize) -> Vec<TrialOutcome> {
        let mut sweep = Sweep::new("b", SeedSequence::new(21)).with_threads(threads);
        sweep.scenario(scenario, trials);
        sweep.run().cells.remove(0).outcomes
    }

    #[test]
    fn batched_scenario_outcomes_are_thread_count_independent() {
        // Full blocks plus a masked tail block of 1, 8, 63 or 2 lanes,
        // so this exercises block-aligned chunking and the tail.
        for scenario in batch_scenarios() {
            for trials in TAIL_TRIALS {
                let base = batch_cell_outcomes(scenario, trials, 1);
                for threads in [2, 3, 8] {
                    assert_eq!(
                        batch_cell_outcomes(scenario, trials, threads),
                        base,
                        "{} {} trials={trials} threads={threads}",
                        scenario.algorithm.name(),
                        scenario.fault.kind
                    );
                }
            }
        }
    }

    #[test]
    fn batched_cells_follow_the_block_lane_seed_contract() {
        // Trial j of a batched cell must be lane j % BATCH_LANES of
        // block j / BATCH_LANES under the cell's BATCH_LABEL child
        // sequence — the documented addressing, pinned against the
        // scalar lane replay, masked tail lanes included.
        let block_seeds = SeedSequence::new(21).child(0).child(BATCH_LABEL);
        for scenario in batch_scenarios() {
            let prepared = scenario.try_prepare().expect("valid scenario");
            assert!(prepared.supports_batch());
            for trials in TAIL_TRIALS {
                let outcomes = batch_cell_outcomes(scenario, trials, 3);
                assert_eq!(outcomes.len(), trials);
                for (j, out) in outcomes.iter().enumerate() {
                    let block_seed = block_seeds.nth_seed((j / BATCH_LANES) as u64);
                    let expected = prepared.trial_lane(block_seed, (j % BATCH_LANES) as u32);
                    assert_eq!(
                        *out,
                        expected,
                        "{} {} trials={trials} trial {j}",
                        scenario.algorithm.name(),
                        scenario.fault.kind
                    );
                }
            }
        }
    }

    #[test]
    fn batching_engages_exactly_at_one_full_block() {
        use rand::Rng;
        let prepared = batch_scenario().try_prepare().expect("valid scenario");
        let cell_seeds = SeedSequence::new(21).child(0);
        // Below a full block the cell runs the scalar (cell, trial)
        // RNG stream unchanged.
        let below = batch_cell_outcomes(batch_scenario(), BATCH_MIN_TRIALS - 1, 2);
        for (j, out) in below.iter().enumerate() {
            let mut rng = cell_seeds.nth_rng(j as u64);
            let seed = rng.gen::<u64>();
            assert_eq!(*out, prepared.trial(seed), "scalar trial {j}");
        }
        // From one full block on, the bit-sliced lane stream.
        let at = batch_cell_outcomes(batch_scenario(), BATCH_MIN_TRIALS, 2);
        let block_seed = cell_seeds.child(BATCH_LABEL).nth_seed(0);
        assert_eq!(at, prepared.trial_block(block_seed, !0));
    }

    #[test]
    fn single_heavy_cell_still_parallelizes_deterministically() {
        // One cell, many trials: chunking must not affect outcomes.
        let run = |threads| {
            let mut sweep = Sweep::new("one", SeedSequence::new(2)).with_threads(threads);
            sweep.cell([("k", "v")], 503, None, |seed, rng| {
                use rand::Rng;
                TrialOutcome::with_rounds(rng.gen_bool(0.5), (seed % 13) as f64)
            });
            sweep.run().cells.remove(0).outcomes
        };
        let base = run(1);
        for threads in [2, 5, 16] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }
}
