//! The three workloads. Each one sets up, measures for the requested
//! time, checks its outputs and fills a [`Run`] with metrics: the
//! end-to-end set with tracing off, the per-layer set with tracing on.
//!
//! * `ram-batch`: one `Sweep::run` of the 64-lane omission kernels over
//!   `G(10⁵, 8/n)`, all in RAM.
//! * `oc-disk`: the same `G(10⁵, 8/n)` out of core: spill, finalize,
//!   sharded BFS tree, then scalar lanes and 64-lane blocks per kernel
//!   streaming 4 segment files.
//! * `paper-cells`: one `Sweep::run` over many small cells: the paper's
//!   Simple and Kučera cells on the trait-object engines, malicious
//!   `FaultModel` cells and scalar omission cells on the fast kernels.

use std::collections::HashMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use randcast_core::scenario::{Algorithm, GraphFamily, PreparedScenario, Scenario};
use randcast_core::sweep::{SweepResult, TrialOutcome};
use randcast_graph::Graph;
use randcast_stats::seed::splitmix64;

use crate::layers::{self, Cell, FaultConfig, Kernel, Model, OutOfCore, ShardSpec, BLOCK, OC_P};
use crate::probe::{self, Counters, Scope};
use crate::trace::{Recorder, SpanId, Totals};

/// Worker threads of every sweep and of radio's out-of-core drain.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// `ram-batch` graph size and 64-lane blocks per kernel. The ~3.6 MB
/// CSR and the 64-lane state (8 bytes a node per mask) outgrow one
/// core's 4 MiB L2, and a pass (~0.7 s, radio's block) is short enough
/// for ~50 passes per run: on a shared 2-core box the same code runs up
/// to 2× slower for seconds at a time, and a run's best pass only reads
/// the same from run to run when passes are short and many. Radio's one
/// block is the longest task, so its cell goes first and the other
/// worker takes the rest.
const RAM_N: usize = 100_000;
const RAM_BLOCKS: [(Kernel, usize); 3] =
    [(Kernel::Radio, 1), (Kernel::Flood, 8), (Kernel::Simple, 40)];

/// `oc-disk` graph size and shard count: the same `n` as `ram-batch`,
/// so the two workloads price one graph in RAM and out of core.
const OC_N: usize = 100_000;
const OC_SHARDS: usize = 4;
/// `(lane, block)` pairs per kernel in one out-of-core pass. Radio's
/// pair costs ~0.7 s, flood's ~0.15 s and Simple's ~12 ms, so the
/// cheaper kernels run more pairs; a pass takes ~1.4 s.
const OC_REPS: [(Kernel, usize); 3] = [(Kernel::Flood, 4), (Kernel::Radio, 1), (Kernel::Simple, 8)];

/// `paper-cells` sizes: trials per general cell, fast-cell graph size,
/// blocks per malicious cell (sized to ~0.05–0.15 s each; the flip
/// flood is ~100× cheaper per block than the other two), tail lanes per
/// malicious cell, trials per scalar cell. A pass takes ~0.75 s.
const PAPER_TRIALS: usize = 8;
const PAPER_FAST_N: usize = 10_000;
const PAPER_MAL_BLOCKS: [(Kernel, usize); 3] = [
    (Kernel::Simple, 2),
    (Kernel::Flood, 256),
    (Kernel::Radio, 3),
];
const PAPER_TAIL: usize = 8;
const PAPER_SCALAR_TRIALS: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RamBatch,
    OcDisk,
    PaperCells,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ram-batch" => Some(Workload::RamBatch),
            "oc-disk" => Some(Workload::OcDisk),
            "paper-cells" => Some(Workload::PaperCells),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RamBatch => "ram-batch",
            Workload::OcDisk => "oc-disk",
            Workload::PaperCells => "paper-cells",
        }
    }
}

/// What one invocation asks for.
pub struct Args {
    pub workload: Workload,
    /// Input seed: graph construction.
    pub seed: u64,
    /// Trial seed: the coins of every trial.
    pub trial_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where scratch segments and the span dump go.
    pub out_dir: PathBuf,
}

/// The result of one invocation.
pub struct Run {
    pub rec: Recorder,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, &'static str, Option<f64>)>,
}

impl Run {
    fn new(trace: bool) -> Self {
        Run {
            rec: Recorder::new(trace),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts one checked operation, and a failure unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts `count` operations that all failed.
    fn fail_all(&mut self, count: usize, what: &str) {
        self.attempted += count as u64;
        self.failed += count as u64;
        eprintln!("{count} operations failed: {what}");
    }

    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: Option<f64>) {
        self.metrics.push((name.into(), unit, value));
    }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new(args.trace);
    match args.workload {
        Workload::RamBatch => sweep_workload(&mut run, args, &ram_batch_cells(args.seed)),
        Workload::PaperCells => sweep_workload(&mut run, args, &paper_cells(args.seed)),
        Workload::OcDisk => oc_disk(&mut run, args),
    }
    run
}

/// The best of a run's timing samples. Other tenants of a shared box
/// only ever slow a sample down, for seconds at a time, so the best of
/// many repeats of one piece of work is what reads the same from run
/// to run; a run's median moves with how busy the box was.
fn low(v: Vec<f64>) -> Option<f64> {
    v.into_iter().min_by(f64::total_cmp)
}

fn median(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A well-mixed index in `0..len` for sampling a lane to replay.
fn sample(seed: u64, a: usize, b: usize, len: usize) -> usize {
    let key = splitmix64(((a as u64) << 32) | b as u64);
    (splitmix64(seed ^ key) % len as u64) as usize
}

/// Runs `f(0..count)` on at most `threads` workers pulling from a shared
/// index, as `Sweep::run` schedules its phases.
fn parallel_for_each(count: usize, threads: usize, f: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(count).max(1) {
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

// ------------------------------------------------------------ cell lists

fn omission(graph: GraphFamily, algorithm: Algorithm, model: Model) -> Scenario {
    Scenario {
        graph,
        algorithm,
        model,
        fault: FaultConfig::omission(0.3),
        shards: ShardSpec::Auto,
    }
}

const FLOOD: Algorithm = Algorithm::FloodFast { horizon_scale: 1 };
const DECAY: Algorithm = Algorithm::DecayFast { epoch_factor: 1 };
const SIMPLE: Algorithm = Algorithm::SimpleFast { phase_len: None };

fn fast_algorithm(kernel: Kernel) -> (Algorithm, Model) {
    match kernel {
        Kernel::Flood => (FLOOD, Model::Mp),
        Kernel::Radio => (DECAY, Model::Radio),
        Kernel::Simple => (SIMPLE, Model::Mp),
    }
}

/// `G(10⁵, 8/n)` with each fast kernel in whole 64-lane blocks.
fn ram_batch_cells(seed: u64) -> Vec<Cell> {
    let graph = GraphFamily::Gnp {
        n: RAM_N,
        avg_deg: 8,
        seed,
    };
    RAM_BLOCKS
        .iter()
        .map(|&(kernel, blocks)| {
            let (algorithm, model) = fast_algorithm(kernel);
            Cell {
                scenario: omission(graph, algorithm, model),
                trials: blocks * BLOCK,
            }
        })
        .collect()
}

/// E1's Simple-omission cells and E7's Kučera cells on the standard
/// families (trait-object engines), malicious fast-kernel cells with a
/// partial tail block, and scalar omission fast cells.
fn paper_cells(seed: u64) -> Vec<Cell> {
    // Fast cells first, so both workers start them together and each
    // cell's `wall_ms` spans its own work, not a wait behind a long
    // trait-object chunk.
    let fast = GraphFamily::Gnp {
        n: PAPER_FAST_N,
        avg_deg: 8,
        seed,
    };
    let mut cells = Vec::new();
    for (kernel, blocks) in PAPER_MAL_BLOCKS {
        let (algorithm, model) = fast_algorithm(kernel);
        let mut scenario = omission(fast, algorithm, model);
        scenario.fault = match kernel {
            Kernel::Radio => FaultConfig::limited_malicious(0.3),
            Kernel::Flood | Kernel::Simple => FaultConfig::malicious(0.3),
        };
        cells.push(Cell {
            scenario,
            trials: blocks * BLOCK + PAPER_TAIL,
        });
    }
    for kernel in Kernel::ALL {
        let (algorithm, model) = fast_algorithm(kernel);
        cells.push(Cell {
            scenario: omission(fast, algorithm, model),
            trials: PAPER_SCALAR_TRIALS,
        });
    }
    for family in layers::standard_families() {
        for p in [0.3, 0.6, 0.9] {
            for model in [Model::Mp, Model::Radio] {
                let mut scenario = omission(family, Algorithm::Simple, model);
                scenario.fault = FaultConfig::omission(p);
                cells.push(Cell {
                    scenario,
                    trials: PAPER_TRIALS,
                });
            }
        }
        let mut kucera = omission(family, Algorithm::Kucera, Model::Mp);
        kucera.fault = FaultConfig::limited_malicious(0.3);
        cells.push(Cell {
            scenario: kucera,
            trials: PAPER_TRIALS,
        });
    }
    cells
}

// ------------------------------------------------------ sweep workloads

/// The sweep's phases 1 and 2 as `Sweep::run` runs them: each distinct
/// graph family built once, then every cell prepared, both fanned over
/// the worker pool.
fn setup(rec: &Recorder, parent: Option<SpanId>, cells: &[Cell]) -> Vec<PreparedScenario> {
    let mut families: Vec<GraphFamily> = Vec::new();
    for c in cells {
        if !families.contains(&c.scenario.graph) {
            families.push(c.scenario.graph);
        }
    }
    let graphs: Vec<OnceLock<Arc<Graph>>> = families.iter().map(|_| OnceLock::new()).collect();
    parallel_for_each(families.len(), threads(), |i| {
        let g = rec.span("graph.generate", parent, None, |_| {
            layers::generate(&families[i])
        });
        let _ = graphs[i].set(g);
    });
    let by_family: HashMap<GraphFamily, Arc<Graph>> = families
        .iter()
        .zip(&graphs)
        .map(|(f, g)| (*f, Arc::clone(g.get().expect("every family was built"))))
        .collect();
    let prepared: Vec<OnceLock<PreparedScenario>> = cells.iter().map(|_| OnceLock::new()).collect();
    parallel_for_each(cells.len(), threads(), |i| {
        let graph = Arc::clone(&by_family[&cells[i].scenario.graph]);
        let p = rec.span("core.prepare", parent, None, |_| {
            layers::prepare(&cells[i], graph)
        });
        let _ = prepared[i].set(p);
    });
    prepared
        .into_iter()
        .map(|p| p.into_inner().expect("every cell was prepared"))
        .collect()
}

/// Total trials of a cell list.
fn trial_count(cells: &[Cell]) -> usize {
    cells.iter().map(|c| c.trials).sum()
}

fn sweep_workload(run: &mut Run, args: &Args, cells: &[Cell]) {
    if args.trace {
        return traced_sweep(run, args, cells);
    }
    let off = Recorder::new(false);
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        prepared.clear(); // one set-up's graphs alive at a time
        let t = Instant::now();
        prepared = setup(&off, None, cells);
        setups.push(t.elapsed().as_secs_f64());
    }

    // Every pass runs the same coins, so the passes repeat one piece of
    // work and its best wall is not just its luckiest coins.
    let root = args.trial_seed;
    let mut walls = Vec::new();
    let mut trial_ms: HashMap<Kernel, Vec<f64>> = HashMap::new();
    let mut lane_ms = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    let mut iteration = 0u64;
    while iteration == 0 || start.elapsed().as_secs_f64() < args.seconds {
        iteration += 1;
        let t = Instant::now();
        let result = catch_unwind(|| layers::sweep(root, threads(), cells));
        let wall = t.elapsed().as_secs_f64();
        let Ok(result) = result else {
            run.fail_all(trial_count(cells), "Sweep::run panicked");
            continue;
        };
        run.attempted += trial_count(cells) as u64;
        walls.push(wall);
        for kernel in Kernel::ALL {
            let (wall_ms, trials) = cells
                .iter()
                .zip(&prepared)
                .zip(&result.cells)
                .filter(|((c, p), _)| c.kernel() == Some(kernel) && layers::batched(p, c.trials))
                .fold((0.0, 0), |(w, n), ((c, _), r)| {
                    (w + r.wall_ms, n + c.trials)
                });
            if trials > 0 {
                trial_ms
                    .entry(kernel)
                    .or_default()
                    .push(wall_ms / trials as f64);
            }
        }
        lane_ms.extend(replay_checks(run, root, cells, &prepared, &result));
        peak_rss = peak_rss.or_else(probe::peak_rss_mib);
    }

    let wall_s = low(walls);
    run.metric("wall_s", "s", wall_s);
    run.metric("setup_s", "s", median(setups));
    run.metric(
        "trials_per_s",
        "1/s",
        wall_s.map(|w| trial_count(cells) as f64 / w),
    );
    for kernel in Kernel::ALL {
        let ms = trial_ms.remove(&kernel).and_then(low);
        run.metric(format!("{}.trial_ms", kernel.name()), "ms", ms);
    }
    // Each replayed trial's best wall; a kernel's metric is their mean.
    let lane_ms = best_per_key(lane_ms.iter());
    for kernel in Kernel::ALL {
        run.metric(
            format!("{}.lane_ms", kernel.name()),
            "ms",
            mean_of_kernel(&lane_ms, kernel),
        );
    }
    run.metric("peak_rss_mib", "MiB", peak_rss);
}

/// Replays part of a finished sweep through the scalar entry points and
/// counts every mismatch as a failure: one sampled lane per 64-lane
/// block and per partial tail through `trial_lane`, every trial of a
/// scalar fast cell and one sampled trial per trait-object cell through
/// `trial`. Returns the wall of each replayed fast-kernel omission trial,
/// the scalar-lane cost of its kernel, keyed by kernel and the trial's
/// index over all cells.
fn replay_checks(
    run: &mut Run,
    root: u64,
    cells: &[Cell],
    prepared: &[PreparedScenario],
    result: &SweepResult,
) -> Vec<((Kernel, usize), f64)> {
    let mut lane_walls = Vec::new();
    let mut offset = 0;
    for (i, ((cell, p), got)) in cells.iter().zip(prepared).zip(&result.cells).enumerate() {
        let first = offset;
        offset += cell.trials;
        let replay = |run: &mut Run, j: usize, f: &dyn Fn() -> TrialOutcome| {
            let t = Instant::now();
            let ok = catch_unwind(AssertUnwindSafe(f)).is_ok_and(|o| o == got.outcomes[j]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            run.check(ok, || format!("cell {i} trial {j} differs from its replay"));
            ms
        };
        if layers::batched(p, cell.trials) {
            for b in 0..cell.trials.div_ceil(BLOCK) {
                let lanes = BLOCK.min(cell.trials - b * BLOCK);
                let l = sample(root, i, b, lanes);
                let seed = layers::block_seed(root, i, b);
                let j = b * BLOCK + l;
                let ms = replay(run, j, &|| layers::lane(p, seed, l));
                if !cell.fault_model() && lanes == BLOCK {
                    let kernel = cell.kernel().expect("batched cells are fast");
                    lane_walls.push(((kernel, first + j), ms));
                }
            }
        } else if let Some(kernel) = cell.kernel() {
            for j in 0..cell.trials {
                let seed = layers::trial_seed(root, i, j);
                let ms = replay(run, j, &|| layers::trial(p, seed));
                lane_walls.push(((kernel, first + j), ms));
            }
        } else {
            let j = sample(root, i, 0, cell.trials);
            let seed = layers::trial_seed(root, i, j);
            replay(run, j, &|| layers::trial(p, seed));
        }
    }
    lane_walls
}

/// The traced run of a sweep workload: one untraced `Sweep::run` for
/// the CPU utilization and its report, then the sweep's phases replayed
/// with a span around every layer call, then a second untraced
/// `Sweep::run`. The better of the two untraced walls is the reference
/// for the tracing overhead, so the ratio does not hinge on which pass
/// ran cold or in a slow spell.
fn traced_sweep(run: &mut Run, args: &Args, cells: &[Cell]) {
    let root = args.trial_seed;
    let threads = threads();
    kernel_probe(run, args);

    probe::reset_peak_rss();
    let before = Counters::read(Scope::Process);
    let t = Instant::now();
    let result = catch_unwind(|| layers::sweep(root, threads, cells));
    let untraced_wall = t.elapsed().as_secs_f64();
    let used = Counters::read(Scope::Process).since(&before);
    let sweep_rss = probe::peak_rss_mib();
    let Ok(result) = result else {
        run.fail_all(trial_count(cells), "Sweep::run panicked");
        return;
    };
    run.attempted += trial_count(cells) as u64;

    probe::reset_peak_rss();
    let report = run
        .rec
        .span("stats.report", None, Some(Scope::Process), |_| {
            layers::report_json(&result)
        });
    run.check(layers::report_cells(&report) == Some(cells.len()), || {
        "the sweep report does not parse back to every cell".into()
    });
    let report_rss = probe::peak_rss_mib();

    // The replay: phases 1 and 2, then phase 3's (cell, chunk) tasks.
    let rec = &run.rec;
    probe::reset_peak_rss();
    let t = Instant::now();
    let prepared = rec.span("setup", None, Some(Scope::Process), |id| {
        setup(rec, id, cells)
    });
    let setup_rss = probe::peak_rss_mib();
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        rec.span("trials", None, Some(Scope::Process), |id| {
            replay_tasks(rec, id, root, threads, cells, &prepared)
        })
    }));
    let traced_wall = t.elapsed().as_secs_f64();
    let trials_rss = probe::peak_rss_mib();
    let t = Instant::now();
    let again = catch_unwind(|| layers::sweep(root, threads, cells));
    let reference_wall = untraced_wall.min(t.elapsed().as_secs_f64());
    run.check(again.is_ok(), || "the second Sweep::run panicked".into());
    match replayed {
        Ok(outcomes) => {
            for (i, (got, want)) in outcomes.iter().zip(&result.cells).enumerate() {
                run.check(*got == want.outcomes, || {
                    format!("replayed cell {i} differs from Sweep::run")
                });
            }
        }
        Err(_) => run.fail_all(cells.len(), "the traced replay panicked"),
    }

    let spans = run.rec.spans();
    let sweep_util = used
        .cpu_s()
        .map(|cpu| cpu / (untraced_wall * threads as f64));
    let mut rounds = HashMap::new();
    let mut general_trials = HashMap::new();
    for ((cell, p), r) in cells.iter().zip(&prepared).zip(&result.cells) {
        if let Some(k) = cell.kernel() {
            let budget = layers::round_budget(p);
            let entry = rounds.entry(k).or_insert_with(Vec::new);
            entry.extend(
                r.outcomes
                    .iter()
                    .map(|o| (o.rounds.map(|r| r as usize), budget)),
            );
        } else {
            *general_trials.entry(cell.general_label()).or_insert(0) += cell.trials;
        }
    }
    layer_metrics(
        run,
        &spans,
        LayerExtras {
            sweep_cpu_util: sweep_util,
            segment_bytes: None,
            rounds,
            general_trials,
            rss: [
                ("setup", setup_rss),
                ("trials", trials_rss),
                ("sweep", sweep_rss),
                ("report", report_rss),
            ],
            overhead: traced_wall / reference_wall - 1.0,
        },
    );
}

/// Phase 3 of `Sweep::run`, task for task: every cell's trials split in
/// chunks of `trials / threads` (whole blocks for batched cells), all
/// `(cell, chunk)` tasks fed to one pool, spare threads handed to each
/// block. Returns each cell's outcome vector.
fn replay_tasks(
    rec: &Recorder,
    parent: Option<SpanId>,
    root: u64,
    threads: usize,
    cells: &[Cell],
    prepared: &[PreparedScenario],
) -> Vec<Vec<TrialOutcome>> {
    struct Task {
        cell: usize,
        start: usize,
        len: usize,
    }
    let mut tasks = Vec::new();
    for (i, (c, p)) in cells.iter().zip(prepared).enumerate() {
        let mut chunk = c.trials.div_ceil(threads).max(1);
        if layers::batched(p, c.trials) {
            chunk = chunk.next_multiple_of(BLOCK);
        }
        let mut start = 0;
        while start < c.trials {
            let len = chunk.min(c.trials - start);
            tasks.push(Task {
                cell: i,
                start,
                len,
            });
            start += len;
        }
    }
    let intra = (threads / tasks.len().max(1)).max(1);
    let outcomes: Vec<Mutex<Vec<Option<TrialOutcome>>>> = cells
        .iter()
        .map(|c| Mutex::new(vec![None; c.trials]))
        .collect();
    parallel_for_each(tasks.len(), threads, |t| {
        let Task {
            cell: i,
            start,
            len,
        } = tasks[t];
        let (c, p) = (&cells[i], &prepared[i]);
        let mut local = Vec::with_capacity(len);
        match c.kernel() {
            Some(kernel) if layers::batched(p, c.trials) => {
                let block_span = if c.fault_model() {
                    "engine.fault_model.block".to_owned()
                } else {
                    format!("engine.{}.block", kernel.name())
                };
                let lane_span = format!("engine.{}.lane", kernel.name());
                let mut j = start;
                while j < start + len {
                    let seed = layers::block_seed(root, i, j / BLOCK);
                    if start + len - j >= BLOCK {
                        let block = rec.span(&block_span, parent, Some(Scope::Thread), |_| {
                            layers::block(p, seed, intra)
                        });
                        local.extend(block);
                        j += BLOCK;
                    } else {
                        let lane = j % BLOCK;
                        let o = rec.span(&lane_span, parent, Some(Scope::Thread), |_| {
                            layers::lane(p, seed, lane)
                        });
                        local.push(o);
                        j += 1;
                    }
                }
            }
            Some(kernel) => {
                let lane_span = format!("engine.{}.lane", kernel.name());
                for j in start..start + len {
                    let seed = layers::trial_seed(root, i, j);
                    local.push(rec.span(&lane_span, parent, Some(Scope::Thread), |_| {
                        layers::trial(p, seed)
                    }));
                }
            }
            None => {
                let name = format!("engine.general.{}", c.general_label());
                rec.span(&name, parent, None, |_| {
                    for j in start..start + len {
                        local.push(layers::trial(p, layers::trial_seed(root, i, j)));
                    }
                });
            }
        }
        let mut slot = outcomes[i].lock().expect("an outcome writer panicked");
        for (k, o) in local.into_iter().enumerate() {
            slot[start + k] = Some(o);
        }
    });
    outcomes
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("an outcome writer panicked")
                .into_iter()
                .map(|o| o.expect("every trial was replayed"))
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------- oc-disk

/// Removes scratch directories left by killed runs: `pid<P>-*` entries
/// whose process `P` is gone.
fn sweep_stale_scratch(scratch: &Path) {
    let Ok(entries) = fs::read_dir(scratch) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let pid = name.strip_prefix("pid").and_then(|r| r.split('-').next());
        if let Some(pid) = pid {
            if pid != std::process::id().to_string() && !Path::new("/proc").join(pid).exists() {
                let _ = fs::remove_dir_all(e.path());
            }
        }
    }
}

/// Files (not directories) under `dir`, recursively.
fn files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .flat_map(|e| {
            let path = e.path();
            if path.is_dir() {
                files(&path)
            } else {
                vec![path]
            }
        })
        .collect()
}

/// One out-of-core set-up: spill, finalize and BFS tree under `dir`.
fn oc_setup(rec: &Recorder, dir: &Path, seed: u64) -> Result<OutOfCore, String> {
    let scope = Some(Scope::Process);
    let sink = rec
        .span("graph.spill", None, scope, |_| {
            layers::spill_gnp(&dir.join("adjacency"), OC_N, OC_SHARDS, seed)
        })
        .map_err(|e| format!("spill: {e}"))?;
    let store = rec
        .span("graph.finalize", None, scope, |_| layers::finalize(sink))
        .map_err(|e| format!("finalize: {e}"))?;
    let tree = rec
        .span("graph.bfs_tree", None, scope, |_| {
            layers::bfs_tree(&store, &dir.join("tree"))
        })
        .map_err(|e| format!("BFS tree: {e}"))?;
    Ok(OutOfCore::new(store, tree, threads()))
}

/// The walls of one out-of-core iteration, keyed by `(kernel, pair)`.
struct OcIteration {
    wall_s: f64,
    trials: usize,
    lane_ms: Vec<((Kernel, usize), f64)>,
    trial_ms: Vec<((Kernel, usize), f64)>,
    /// `(completion round, budget)` of every trial, per kernel.
    rounds: Vec<(Kernel, Option<usize>, usize)>,
}

/// Scalar lanes and 64-lane blocks in `(lane, block)` pairs per kernel,
/// flood → radio → Simple, each block checked against the lane on its
/// seed and every flood trial against the tree's reachable count. Every
/// iteration runs the same seeds, so the iterations repeat one piece of
/// work and a pair's best wall is not just its luckiest coins.
fn oc_iteration(run: &mut Run, oc: &mut OutOfCore, root: u64) -> OcIteration {
    let scope = Some(Scope::Process);
    let reach = oc.reachable();
    let mut it = OcIteration {
        wall_s: 0.0,
        trials: 0,
        lane_ms: Vec::new(),
        trial_ms: Vec::new(),
        rounds: Vec::new(),
    };
    for (k, (kernel, reps)) in OC_REPS.into_iter().enumerate() {
        for r in 0..reps {
            let seed = layers::block_seed(root, k, r);
            let name = kernel.name();
            let budget = oc.round_budget(kernel);

            let t = Instant::now();
            let lane = catch_unwind(AssertUnwindSafe(|| {
                run.rec
                    .span(&format!("engine.{name}.lane"), None, scope, |_| {
                        oc.lane(kernel, seed, 0)
                    })
            }));
            let lane_s = t.elapsed().as_secs_f64();
            let lane = match lane {
                Ok(Ok(o)) => o,
                Ok(Err(e)) => {
                    run.fail_all(1, &format!("{name} run_lane: {e}"));
                    continue;
                }
                Err(_) => {
                    run.fail_all(1, &format!("{name} run_lane panicked"));
                    continue;
                }
            };
            run.attempted += 1;

            let t = Instant::now();
            let batch = catch_unwind(AssertUnwindSafe(|| {
                run.rec
                    .span(&format!("engine.{name}.block"), None, scope, |_| {
                        oc.batch(kernel, seed)
                    })
            }));
            let block_s = t.elapsed().as_secs_f64();
            let batch = match batch {
                Ok(Ok(b)) => b,
                Ok(Err(e)) => {
                    run.fail_all(BLOCK, &format!("{name} run_batch: {e}"));
                    continue;
                }
                Err(_) => {
                    run.fail_all(BLOCK, &format!("{name} run_batch panicked"));
                    continue;
                }
            };
            run.attempted += BLOCK as u64;
            it.wall_s += lane_s + block_s;
            it.trials += 1 + BLOCK;
            it.lane_ms.push(((kernel, r), lane_s * 1e3));
            it.trial_ms.push(((kernel, r), block_s * 1e3 / BLOCK as f64));

            let lanes: Vec<_> = (0..BLOCK).map(|l| batch.lane_outcome(l)).collect();
            run.check(lanes[0] == lane, || {
                format!("{name} block lane 0 differs from run_lane(.., 0)")
            });
            if kernel == Kernel::Flood {
                for (l, o) in std::iter::once(&lane).chain(&lanes).enumerate() {
                    run.check(o.informed_count() == reach, || {
                        format!(
                            "flood trial {l} informed {} nodes, the giant component has {reach}",
                            o.informed_count()
                        )
                    });
                }
            }
            for o in std::iter::once(&lane).chain(&lanes) {
                it.rounds.push((kernel, o.settled_round(), budget));
            }
        }
    }
    it
}

fn oc_disk(run: &mut Run, args: &Args) {
    let scratch = args.out_dir.join("scratch");
    sweep_stale_scratch(&scratch);
    let pid = std::process::id();
    let dir = |k: usize| scratch.join(format!("pid{pid}-{k}"));

    if args.trace {
        kernel_probe(run, args);
    }
    // Set up several times; keep the last store for the trials.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut oc = None;
    if args.trace {
        probe::reset_peak_rss();
    }
    let setup_before = Counters::read(Scope::Process);
    for k in 0..reps {
        oc = None; // the previous store's files go before the next spill
        let t = Instant::now();
        match oc_setup(&run.rec, &dir(k), args.seed) {
            Ok(o) => oc = Some(o),
            Err(e) => run.fail_all(1, &format!("out-of-core set-up failed: {e}")),
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let Some(mut oc) = oc else {
        return;
    };
    // Write the segments back now, so the trials' reads do not queue
    // behind the set-up's dirty pages.
    for f in files(&dir(reps - 1)) {
        let synced = fs::File::open(&f).and_then(|f| f.sync_all());
        run.check(synced.is_ok(), || format!("cannot sync {}", f.display()));
    }
    let setup_io = Counters::read(Scope::Process).since(&setup_before);
    let setup_rss = probe::peak_rss_mib();
    run.check(oc.node_count() == OC_N, || "the store lost nodes".into());

    if args.trace {
        probe::reset_peak_rss();
    }
    let mut iterations = Vec::new();
    let mut untraced_wall = None;
    let mut peak_rss = None;
    let start = Instant::now();
    let mut iteration = 0u64;
    while iteration == 0 || (!args.trace && start.elapsed().as_secs_f64() < args.seconds) {
        if args.trace {
            // The reference wall for the tracing overhead, same seeds.
            let traced = std::mem::replace(&mut run.rec, Recorder::new(false));
            untraced_wall = Some(oc_iteration(run, &mut oc, args.trial_seed).wall_s);
            run.rec = traced;
        }
        iterations.push(oc_iteration(run, &mut oc, args.trial_seed));
        peak_rss = peak_rss.or_else(probe::peak_rss_mib);
        iteration += 1;
    }
    let trials_rss = probe::peak_rss_mib();
    let segment_bytes = oc.segment_bytes();
    drop(oc);
    for k in 0..reps {
        let left = files(&dir(k)).len();
        let _ = fs::remove_dir_all(dir(k));
        run.check(left == 0, || {
            format!("{left} scratch files left in {}", dir(k).display())
        });
    }

    if args.trace {
        let spans = run.rec.spans();
        let last = iterations.pop().expect("one traced iteration");
        let mut rounds: HashMap<Kernel, Vec<(Option<usize>, usize)>> = HashMap::new();
        for (k, r, b) in last.rounds {
            rounds.entry(k).or_default().push((r, b));
        }
        // The traced iteration's reads, not the reference iteration's.
        let read = Kernel::ALL.iter().try_fold(0u64, |acc, k| {
            let lane = Totals::of(&spans, &format!("engine.{}.lane", k.name())).rchar?;
            let block = Totals::of(&spans, &format!("engine.{}.block", k.name())).rchar?;
            Some(acc + lane + block)
        });
        layer_metrics(
            run,
            &spans,
            LayerExtras {
                sweep_cpu_util: Some(0.0),
                segment_bytes: Some((segment_bytes, read, setup_io.wchar)),
                rounds,
                general_trials: HashMap::new(),
                rss: [
                    ("setup", setup_rss),
                    ("trials", trials_rss),
                    ("sweep", Some(0.0)),
                    ("report", Some(0.0)),
                ],
                overhead: last.wall_s / untraced_wall.expect("reference iteration ran") - 1.0,
            },
        );
        return;
    }

    // Each pair's best wall over the iterations; a kernel's metric is the
    // mean over its pairs, and `wall_s` the pass those bests add up to.
    let lane_ms = best_per_key(iterations.iter().flat_map(|i| &i.lane_ms));
    let trial_ms = best_per_key(iterations.iter().flat_map(|i| &i.trial_ms));
    let wall_s = (lane_ms.values().sum::<f64>()
        + trial_ms.values().sum::<f64>() * BLOCK as f64)
        / 1e3;
    run.metric("wall_s", "s", Some(wall_s));
    run.metric("setup_s", "s", median(setups));
    // Every pass runs the same trials.
    let trials = iterations[0].trials as f64;
    run.metric("trials_per_s", "1/s", Some(trials / wall_s));
    for kernel in Kernel::ALL {
        run.metric(
            format!("{}.trial_ms", kernel.name()),
            "ms",
            mean_of_kernel(&trial_ms, kernel),
        );
    }
    for kernel in Kernel::ALL {
        run.metric(
            format!("{}.lane_ms", kernel.name()),
            "ms",
            mean_of_kernel(&lane_ms, kernel),
        );
    }
    run.metric("peak_rss_mib", "MiB", peak_rss);
}

/// The lowest sample of each key: an `oc-disk` `(kernel, pair)` or a
/// sweep's `(kernel, trial)`.
fn best_per_key<'a>(
    samples: impl Iterator<Item = &'a ((Kernel, usize), f64)>,
) -> HashMap<(Kernel, usize), f64> {
    let mut best: HashMap<(Kernel, usize), f64> = HashMap::new();
    for &(key, v) in samples {
        best.entry(key).and_modify(|b| *b = b.min(v)).or_insert(v);
    }
    best
}

/// The mean of `kernel`'s per-key values.
fn mean_of_kernel(best: &HashMap<(Kernel, usize), f64>, kernel: Kernel) -> Option<f64> {
    let v: Vec<f64> = best
        .iter()
        .filter(|((k, _), _)| *k == kernel)
        .map(|(_, v)| *v)
        .collect();
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

// ------------------------------------------------------------- per-layer

/// Coin sites the kernel probe draws.
const PROBE_SITES: u64 = 1 << 20;

/// Times the 64-lane Bernoulli sampler every fast kernel draws its
/// fault coins from, and checks its rate against `p`.
fn kernel_probe(run: &mut Run, args: &Args) {
    let p = OC_P;
    let t = Instant::now();
    let ones = run
        .rec
        .span("engine.kernel.mask", None, Some(Scope::Thread), |_| {
            layers::coin_masks(p, args.trial_seed, PROBE_SITES)
        });
    let ns = t.elapsed().as_secs_f64() * 1e9 / PROBE_SITES as f64;
    let coins = (PROBE_SITES * BLOCK as u64) as f64;
    let sigma = (p * (1.0 - p) / coins).sqrt();
    let rate = ones as f64 / coins;
    run.check((rate - p).abs() < 6.0 * sigma, || {
        format!("coin rate {rate} is not {p}")
    });
    run.metric("engine.kernel.mask_ns", "ns", Some(ns));
}

/// What the per-layer metrics need besides the spans.
struct LayerExtras {
    sweep_cpu_util: Option<f64>,
    /// Segment bytes, bytes read by the trials, bytes written by set-up.
    segment_bytes: Option<(u64, Option<u64>, Option<u64>)>,
    /// `(round the trial settled, round budget)` of every fast-kernel
    /// trial.
    rounds: HashMap<Kernel, Vec<(Option<usize>, usize)>>,
    /// Trials run on each trait-object engine.
    general_trials: HashMap<String, usize>,
    rss: [(&'static str, Option<f64>); 4],
    overhead: f64,
}

/// Trait-object engine labels reported by every workload.
const GENERAL: [&str; 3] = ["simple_mp", "simple_radio", "kucera"];

fn layer_metrics(run: &mut Run, spans: &[crate::trace::Span], x: LayerExtras) {
    let total = |name: &str| Totals::of(spans, name);
    for name in [
        "graph.generate",
        "graph.spill",
        "graph.finalize",
        "graph.bfs_tree",
    ] {
        run.metric(format!("{name}_s"), "s", Some(total(name).wall_s));
    }
    let (seg, read, written) = match x.segment_bytes {
        Some((seg, read, written)) => (seg, read, written),
        None => {
            // In-RAM workloads: what the trial replay read, what set-up wrote.
            let trials = total("trials");
            (0, trials.rchar, total("setup").wchar)
        }
    };
    run.metric("graph.io_read_bytes", "B", read.map(|r| r as f64));
    let per_store = if seg == 0 {
        Some(0.0)
    } else {
        read.map(|r| r as f64 / seg as f64)
    };
    run.metric("graph.reads_per_store", "count", per_store);
    run.metric("graph.io_write_bytes", "B", written.map(|w| w as f64));
    run.metric("core.prepare_s", "s", Some(total("core.prepare").wall_s));
    run.metric("core.sweep_cpu_util", "ratio", x.sweep_cpu_util);

    for kernel in Kernel::ALL {
        let k = kernel.name();
        let block = total(&format!("engine.{k}.block"));
        run.metric(format!("engine.{k}.block_s"), "s", Some(block.mean_s()));
        let cpu = block.user_s.zip(block.sys_s).map(|(u, s)| u + s);
        run.metric(format!("engine.{k}.cpu_s"), "s", block.mean_of(cpu));
        run.metric(format!("engine.{k}.sys_s"), "s", block.mean_of(block.sys_s));
        run.metric(
            format!("engine.{k}.lane_s"),
            "s",
            Some(total(&format!("engine.{k}.lane")).mean_s()),
        );
        let outcomes = x.rounds.get(&kernel).map_or(&[][..], Vec::as_slice);
        let rounds: usize = outcomes
            .iter()
            .map(|&(r, budget)| r.unwrap_or(budget))
            .sum();
        run.metric(format!("engine.{k}.rounds"), "count", Some(rounds as f64));
        let used: Vec<f64> = outcomes
            .iter()
            .filter_map(|&(r, b)| r.map(|r| r as f64 / b as f64))
            .collect();
        let mean = if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64
        };
        run.metric(format!("engine.{k}.horizon_used"), "ratio", Some(mean));
    }

    // Trait-object engines: seconds per trial, per engine and overall.
    let mut all = (0.0, 0usize);
    for label in GENERAL {
        let t = total(&format!("engine.general.{label}"));
        let trials = x.general_trials.get(label).copied().unwrap_or(0);
        all = (all.0 + t.wall_s, all.1 + trials);
        let per = if trials == 0 {
            0.0
        } else {
            t.wall_s / trials as f64
        };
        run.metric(format!("engine.general.{label}.trial_s"), "s", Some(per));
    }
    let per = if all.1 == 0 {
        0.0
    } else {
        all.0 / all.1 as f64
    };
    run.metric("engine.general.trial_s", "s", Some(per));
    run.metric(
        "engine.fault_model.block_s",
        "s",
        Some(total("engine.fault_model.block").mean_s()),
    );
    run.metric("stats.report_s", "s", Some(total("stats.report").wall_s));
    for (phase, mib) in x.rss {
        run.metric(format!("rss.{phase}_peak_mib"), "MiB", mib);
    }
    run.metric("trace.overhead_frac", "ratio", Some(x.overhead));
}
