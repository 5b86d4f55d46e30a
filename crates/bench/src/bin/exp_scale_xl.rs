//! SCALE-XL — sharded frontier passes and out-of-core CSR at the
//! 10⁷–10⁸ node scale, under explicit wall-clock and peak-RSS
//! reporting.
//!
//! Two parts:
//!
//! 1. **Sweep** (JSON-reported): Flood / Radio(Decay) / Simple fast
//!    paths on one `G(n, 8/n)` family through the standard sweep
//!    driver. At full scale the grid tops out at `n = 10⁷`, where
//!    `ShardSpec::Auto` (≥ ~8M nodes) resolves a plan sized to 1 GiB of
//!    adjacency per shard — one shard for this family; `--shards K`
//!    forces a count at any size — sharding
//!    is outcome-neutral, so the JSON is byte-identical either way
//!    (CI's shards-1-vs-4 determinism gate diffs exactly this
//!    report).
//! 2. **Out-of-core trials** (printed + JSON rows): one scalar trial
//!    plus one 64-lane batched block per kernel — flood, radio under
//!    the classical Decay schedule, and Simple over a sharded BFS tree
//!    — against a *single* shared adjacency store, handed from kernel
//!    to kernel without a rebuild. The batched blocks amortize every
//!    segment load over 64 bit-sliced trials, so their *per-trial*
//!    wall is the headline number of the part-2 table.
//!    With `--store disk` (the default) the adjacency *never resides
//!    in RAM*: `gnp_edges` streams the edge run into a [`SpillSink`],
//!    `finalize` counting-sorts it into per-shard CSR segment files,
//!    and the kernels replay trials loading one segment at a time
//!    (with `--prefetch on`, the default, a background reader overlaps
//!    the next segment's read with the current shard's compute).
//!    `--store ram` splits the same edge stream in memory
//!    ([`ShardStore::Ram`]) — the in-core control arm of CI's
//!    Ram-vs-Disk determinism gate, which diffs the normalized JSON of
//!    both runs byte-for-byte. At full scale this is the `n = 10⁸`
//!    (mean degree 8, ~4·10⁸ half-edges ≈ 13 GB of segments) block of
//!    the scale table in `README.md`; `--quick` shrinks it to
//!    `n = 2·10⁵` so CI still walks the spill → finalize → stream →
//!    BFS-tree path end to end.
//!
//! Peak RSS is reported from `VmHWM` (Linux; `-` elsewhere), which
//! captures the worst moment of the whole process — for part 2 that
//! is the widest counting-sort bucket plus the resident bitsets, NOT
//! the full adjacency, which is the point of the exercise.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use randcast_bench::{banner, cli, fmt_gib, peak_rss_bytes, write_json, Cli, StoreKind};
use randcast_core::decay::DecayConfig;
use randcast_core::scenario::{Algorithm, GraphFamily, Model, Scenario, ShardSpec};
use randcast_core::sweep::{CellKind, CellResult, TrialOutcome};
use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::ShardedFlood;
use randcast_engine::growth::{GrowthBatch, GrowthOutcome};
use randcast_engine::radio_fast::{FastRadioSchedule, ShardedRadio};
use randcast_engine::simple_fast::ShardedSimple;
use randcast_graph::generators::gnp_edges;
use randcast_graph::shard::{
    default_scratch_dir, RamShards, ShardError, ShardPlan, ShardStore, ShardedBfsTree, SpillSink,
};
use randcast_graph::Graph;
use randcast_stats::aggregate::OutcomeSummary;
use randcast_stats::chernoff::{flood_horizon, phase_len_omission};
use randcast_stats::estimate::SuccessEstimate;
use randcast_stats::quantile::QuantileSummary;
use randcast_stats::table::{fmt_f2, Table};

/// Failure probability for every XL cell — the mid-regime value the
/// smaller scale sweeps center on.
const P: f64 = 0.3;

fn main() {
    let cli = cli();
    banner(
        "SCALE-XL (sharded + out-of-core)",
        "Fast-path frontier passes at n = 10^6..10^7 through the sweep driver,\n\
         plus out-of-core flood/radio/Simple trials at n = 10^8 whose CSR streams from disk.",
    );
    let quick = cli.scale > 1;

    // Part 1: the sweep grid. ShardSpec::Auto keeps both sizes in one
    // shard; --shards K forces a count at any size (outcome-neutral).
    let sizes: &[usize] = if quick {
        &[100_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    let engines: [(&str, Algorithm, Model); 3] = [
        (
            "flood",
            Algorithm::FloodFast { horizon_scale: 1 },
            Model::Mp,
        ),
        (
            "radio",
            Algorithm::DecayFast { epoch_factor: 2 },
            Model::Radio,
        ),
        (
            "simple",
            Algorithm::SimpleFast { phase_len: None },
            Model::Mp,
        ),
    ];

    let mut sweep = cli.sweep("scale_xl");
    let mut specs = Vec::new();
    for &n in sizes {
        let family = GraphFamily::Gnp {
            n,
            avg_deg: 8,
            seed: 97,
        };
        // Trials shrink with n: one 64-lane block per 10^6 cell, a
        // pair of scalar-tail trials at 10^7 (an explicit --trials
        // wins, as everywhere).
        let trials = cli.cell_trials(if quick {
            cli.trials.min(4)
        } else if n >= 10_000_000 {
            2
        } else {
            64
        });
        for (label, algorithm, model) in engines {
            let scenario = Scenario {
                graph: family,
                algorithm,
                model,
                fault: FaultConfig::omission(P),
                shards: ShardSpec::Auto,
            };
            specs.push((label, scenario));
            sweep
                .try_scenario(scenario, trials)
                .unwrap_or_else(|e| panic!("invalid scale-xl scenario: {e}"));
        }
    }
    let sweep_start = Instant::now();
    let mut result = sweep.run();
    let sweep_wall = sweep_start.elapsed();

    println!("{}", xl_table(&specs, &result.cells).render());
    println!(
        "sweep wall {:.1}s, peak RSS so far {}",
        sweep_wall.as_secs_f64(),
        fmt_gib(peak_rss_bytes()),
    );
    println!();

    // Part 2: the out-of-core trials. --quick shrinks them rather than
    // skipping, so CI walks the spill -> finalize -> stream -> BFS-tree
    // path every run; --sweep-only skips them outright (CI's speedup
    // probe times part 1 at full scale without paying for 10^8). The
    // synthetic per-trial rows land in the same JSON report as part 1
    // (before write_json), so the Ram-vs-Disk and shards determinism
    // gates cover the out-of-core path end to end.
    if !cli.sweep_only {
        let n: usize = if quick { 200_000 } else { 100_000_000 };
        out_of_core_trials(&cli, n, quick, &mut result.cells);
    }
    write_json(&cli, &result);
}

/// Streams a `G(n, 8/n)` edge run into the store `--store` selects,
/// builds the sharded BFS tree for Simple, then runs one trial per
/// kernel against the same adjacency store — flood first, then radio
/// (Decay), with the store handed from kernel to kernel, and finally
/// Simple's phase walk over the directed child segments. Prints
/// wall/RSS metrics and appends one report row per trial to `cells`
/// (store- and shard-agnostic fields only, so CI's determinism gates
/// can diff the normalized JSON byte-for-byte).
fn out_of_core_trials(cli: &Cli, n: usize, quick: bool, cells: &mut Vec<CellResult>) {
    #[allow(clippy::cast_precision_loss)]
    let nf = n as f64;
    let q = (8.0 / (nf - 1.0)).min(1.0);
    // One shard per GiB of adjacency by default; --shards K overrides.
    // Quick runs force 3 shards so CI always walks a genuinely
    // multi-segment store (for_budget would pick 1 at 2·10^5).
    let plan = match cli.shards {
        Some(k) => ShardPlan::uniform(n, k),
        None if quick => ShardPlan::uniform(n, 3),
        None => ShardPlan::for_budget(n, 8 * n as u64, 1 << 30),
    };
    let shards = plan.shard_count();
    let store_label = match cli.store {
        StoreKind::Ram => "ram",
        StoreKind::Disk => "disk",
    };

    let build_start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(cli.seed ^ 0x0107_e8ed);
    let (store, edges) = match cli.store {
        StoreKind::Disk => {
            let mut sink = SpillSink::create(default_scratch_dir(), plan)
                .unwrap_or_else(|e| panic!("cannot create spill sink: {e}"));
            gnp_edges(&mut sink, n, q, &mut rng)
                .unwrap_or_else(|e| panic!("edge stream failed: {e}"));
            let disk = sink
                .finalize()
                .unwrap_or_else(|e| panic!("spill finalize failed: {e}"));
            let edges = disk.edge_count();
            (ShardStore::Disk(disk), edges)
        }
        StoreKind::Ram => {
            // The same edge stream the disk path spills, collected for a
            // monolithic CSR build split along the identical shard plan.
            let mut sink: Vec<(u32, u32)> = Vec::new();
            gnp_edges(&mut sink, n, q, &mut rng)
                .unwrap_or_else(|e| panic!("edge stream failed: {e}"));
            let graph = Graph::from_edges(n, &sink);
            drop(sink);
            let edges = graph.edge_count() as u64;
            (ShardStore::Ram(RamShards::from_graph(graph, plan)), edges)
        }
    };
    let build_wall = build_start.elapsed();

    // The BFS tree for Simple runs over the same store by reference
    // (level-synchronous shard passes), spilling directed child
    // segments of its own.
    let tree_start = Instant::now();
    let tree = ShardedBfsTree::build(&store, 0, default_scratch_dir())
        .unwrap_or_else(|e| panic!("sharded BFS build failed: {e}"));
    let tree_wall = tree_start.elapsed();
    let reachable = tree.reachable();
    let (order, children) = tree.into_parts();

    // Theorem 3.1 shape without a resident graph: estimate the
    // diameter of the giant component of G(n, 8/n) as 3·ln n / ln 8
    // (generous; the trials stop early once nothing can change).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let d_est = (3.0 * nf.ln() / 8f64.ln()).ceil() as usize;
    let horizon = flood_horizon(d_est, P, 4.0 * nf.ln()).max(1);

    let prefetch_label = if cli.prefetch { "on" } else { "off" };
    println!(
        "out-of-core trials: n = {n}, mean degree 8, p = {P}, {shards} shard(s), store = {store_label}, prefetch = {prefetch_label}"
    );
    let mut setup = Table::new(["build metric", "value"]);
    setup
        .row(["adjacency edges", &format!("{edges}")])
        .row([
            "segment bytes",
            &fmt_gib(Some(8 * edges + 4 * (n as u64 + shards as u64))),
        ])
        .row([
            "adjacency build wall",
            &format!("{:.1}s", build_wall.as_secs_f64()),
        ])
        .row(["BFS tree wall", &format!("{:.1}s", tree_wall.as_secs_f64())])
        .row(["tree reachable", &format!("{reachable}")])
        .row(["peak RSS so far", &fmt_gib(peak_rss_bytes())]);
    println!("{}", setup.render());

    let mut oc = OutOfCoreRows {
        table: Table::new([
            "kernel",
            "rounds budget",
            "wall",
            "per-trial wall",
            "prefetch",
            "completed round",
            "informed frac",
            "almost-complete",
            "peak RSS so far",
        ]),
        cells,
        n,
        prefetch: prefetch_label,
    };
    let seeds = cli.seeds();

    // Flood: the store moves in and comes back out for radio. Each
    // kernel's 64-lane block runs over the same store as its lane:
    // every segment load is amortized across the lanes, so the
    // per-trial wall collapses.
    let flood = ShardedFlood::new(store, 0, horizon).with_prefetch(cli.prefetch);
    oc.kernel(
        ("flood", "flood", horizon),
        || flood.run_lane(P, seeds.nth_seed(0), 0).map(growth_stats),
        || {
            flood
                .run_batch(P, seeds.nth_seed(3), reachable)
                .map(growth_block_stats)
        },
    );
    let store = flood.into_store();

    // Radio under the classical Decay schedule: epoch length
    // ⌈log₂ n⌉ + 1, epochs 2·(d + log₂ n) — the global collision
    // counter and epoch-exhaustion sweep run across segment loads.
    let decay = DecayConfig::classical(n, d_est);
    let radio = ShardedRadio::new(
        store,
        0,
        decay.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: decay.epoch_len,
        },
    )
    .with_prefetch(cli.prefetch);
    oc.kernel(
        ("radio", "radio/decay", decay.total_rounds()),
        || radio.run_lane(P, seeds.nth_seed(1), 0).map(growth_stats),
        || {
            radio
                .run_batch(P, seeds.nth_seed(4))
                .map(growth_block_stats)
        },
    );
    drop(radio); // releases the adjacency store (and its scratch dir)

    // Simple: the (level, id)-sorted phase walk over the directed
    // child segments the BFS build spilled.
    let m = phase_len_omission(n.max(2), P);
    let simple =
        ShardedSimple::new(ShardStore::Disk(children), order, 0, m).with_prefetch(cli.prefetch);
    oc.kernel(
        ("simple", "simple", simple.total_rounds()),
        || {
            let out = simple.run_lane(P, seeds.nth_seed(2), 0)?;
            Ok((
                out.completion_round(),
                out.correct_fraction(),
                out.almost_complete_round(),
            ))
        },
        || {
            let batch = simple.run_batch(P, seeds.nth_seed(5))?;
            Ok(lane_stats(|l| {
                (
                    batch.completion_round(l),
                    batch.correct_fraction(l),
                    batch.almost_complete_round(l),
                )
            }))
        },
    );

    println!("{}", oc.table.render());
    println!(
        "expected: the giant component of G(n, 8/n) covers ~0.9997 of the nodes; flood\n\
         covers it in ~D/(1-p) + O(log n) rounds, Decay in O((D + log n) log n), and\n\
         Simple's fixed n·m schedule ends almost-complete. Peak RSS stays near the\n\
         resident bitsets + one shard segment, far below the full adjacency."
    );
}

/// Per-lane `(completion round, informed/correct fraction,
/// almost-complete round)` of one trial.
type LaneStats = (Option<usize>, f64, Option<usize>);

/// Collects the per-lane stats of a 64-lane batched block.
fn lane_stats(per_lane: impl Fn(u32) -> LaneStats) -> Vec<LaneStats> {
    (0..64).map(per_lane).collect()
}

/// A flood or Decay trial's stats.
fn growth_stats(out: GrowthOutcome) -> LaneStats {
    (
        out.completion_round(),
        out.informed_fraction(),
        out.almost_complete_round(),
    )
}

/// The per-lane stats of a flood or Decay block.
fn growth_block_stats(batch: GrowthBatch) -> Vec<LaneStats> {
    lane_stats(|l| {
        (
            batch.completion_round(l),
            batch.informed_fraction(l),
            batch.almost_complete_round(l),
        )
    })
}

/// The out-of-core part's printed table and report rows.
struct OutOfCoreRows<'c> {
    table: Table,
    cells: &'c mut Vec<CellResult>,
    n: usize,
    prefetch: &'static str,
}

impl OutOfCoreRows<'_> {
    /// Times one kernel's scalar lane and its 64-lane block, and
    /// records a printed row and a report cell for each, under the
    /// report's engine name, the printed row label and the rounds
    /// budget.
    fn kernel(
        &mut self,
        (engine, label, budget): (&str, &str, usize),
        lane: impl FnOnce() -> Result<LaneStats, ShardError>,
        block: impl FnOnce() -> Result<Vec<LaneStats>, ShardError>,
    ) {
        let start = Instant::now();
        let stats = lane().unwrap_or_else(|e| panic!("out-of-core {engine} trial failed: {e}"));
        let wall = start.elapsed();
        self.row(label, budget, wall, &[stats]);
        let params = vec![
            ("engine".into(), format!("{engine}/out-of-core")),
            ("n".into(), format!("{}", self.n)),
        ];
        self.cells.push(oc_cell(params, &[stats], wall));

        let start = Instant::now();
        let lanes = block().unwrap_or_else(|e| panic!("out-of-core {engine} batch failed: {e}"));
        let wall = start.elapsed();
        self.row(&format!("{label} x64"), budget, wall, &lanes);
        let params = vec![
            ("engine".into(), format!("{engine}/out-of-core-batch")),
            ("n".into(), format!("{}", self.n)),
            ("lanes".into(), format!("{}", lanes.len())),
        ];
        self.cells.push(oc_cell(params, &lanes, wall));
    }

    /// One printed row: total and per-trial wall, the round columns (a
    /// block's lane medians), and the (mean) fraction.
    fn row(&mut self, kernel: &str, budget: usize, wall: Duration, lanes: &[LaneStats]) {
        let round_column = |pick: fn(&LaneStats) -> Option<usize>| match lanes {
            [one] => pick(one).map_or_else(|| "-".into(), |r| r.to_string()),
            _ => {
                #[allow(clippy::cast_precision_loss)]
                let rounds: Vec<f64> = lanes
                    .iter()
                    .filter_map(|l| pick(l).map(|r| r as f64))
                    .collect();
                QuantileSummary::from_unsorted(&rounds)
                    .map_or_else(|| "-".into(), |s| format!("p50 {}", fmt_f2(s.p50)))
            }
        };
        #[allow(clippy::cast_precision_loss)]
        let trials = lanes.len() as f64;
        let mean_frac = lanes.iter().map(|(_, f, _)| f).sum::<f64>() / trials;
        self.table.row([
            kernel.into(),
            format!("{budget}"),
            format!("{:.1}s", wall.as_secs_f64()),
            format!("{:.2}s", wall.as_secs_f64() / trials),
            self.prefetch.into(),
            round_column(|l| l.0),
            format!("{mean_frac:.6}"),
            round_column(|l| l.2),
            fmt_gib(peak_rss_bytes()),
        ]);
    }
}

/// One synthetic report row for an out-of-core lane or block: one
/// [`TrialOutcome`] per lane, reduced through [`OutcomeSummary`] as the
/// sweep driver reduces its cells. Only store-, shard-, thread- and
/// prefetch-agnostic fields, so the determinism gates diff the
/// normalized JSON byte-for-byte across every knob (`wall_ms` is zeroed
/// by `json_validate --normalize`).
fn oc_cell(params: Vec<(String, String)>, lanes: &[LaneStats], wall: Duration) -> CellResult {
    #[allow(clippy::cast_precision_loss)]
    let outcomes: Vec<TrialOutcome> = lanes
        .iter()
        .map(|&(completed, frac, almost)| TrialOutcome {
            success: completed.is_some(),
            rounds: completed.map(|r| r as f64),
            informed_frac: Some(frac),
            almost_rounds: almost.map(|r| r as f64),
        })
        .collect();
    let summary = OutcomeSummary::collect(
        outcomes
            .iter()
            .map(|o| (o.success, o.rounds, o.informed_frac)),
    );
    CellResult {
        kind: CellKind::MonteCarlo,
        params,
        estimate: SuccessEstimate::new(summary.successes, summary.trials),
        row: None,
        mean_rounds: summary.mean_rounds,
        mean_informed_frac: summary.mean_informed_frac,
        wall_ms: wall.as_secs_f64() * 1000.0,
        outcomes,
    }
}

/// One row per swept cell: engine, n, completion quantiles, informed
/// fraction, almost-complete median.
fn xl_table(specs: &[(&str, Scenario)], cells: &[CellResult]) -> Table {
    let mut table = Table::new([
        "engine",
        "n",
        "p",
        "horizon",
        "T p50",
        "T max",
        "informed frac",
        "almost-T p50",
    ]);
    for ((label, scenario), cell) in specs.iter().zip(cells) {
        let rounds: Vec<f64> = cell.outcomes.iter().filter_map(|o| o.rounds).collect();
        let almost: Vec<f64> = cell
            .outcomes
            .iter()
            .filter_map(|o| o.almost_rounds)
            .collect();
        let rq = QuantileSummary::from_unsorted(&rounds);
        let aq = QuantileSummary::from_unsorted(&almost);
        let fmt_q = |q: Option<QuantileSummary>, pick: fn(QuantileSummary) -> f64| {
            q.map_or_else(|| "-".into(), |s| fmt_f2(pick(s)))
        };
        let param = |key: &str| {
            cell.params
                .iter()
                .find(|(k, _)| k == key)
                .map_or_else(|| "-".into(), |(_, v)| v.clone())
        };
        table.row([
            (*label).to_owned(),
            param("n"),
            format!("{}", scenario.fault.p),
            param("rounds"),
            fmt_q(rq, |s| s.p50),
            fmt_q(rq, |s| s.max),
            cell.mean_informed_frac
                .map_or_else(|| "-".into(), |f| format!("{f:.5}")),
            fmt_q(aq, |s| s.p50),
        ]);
    }
    table
}
