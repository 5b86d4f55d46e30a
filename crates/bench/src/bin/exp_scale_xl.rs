//! SCALE-XL — sharded frontier passes and out-of-core CSR at the
//! 10⁷–10⁸ node scale, under explicit wall-clock and peak-RSS
//! reporting.
//!
//! Two parts:
//!
//! 1. **Sweep** (JSON-reported): Flood / Radio(Decay) / Simple fast
//!    paths on one `G(n, 8/n)` family through the standard sweep
//!    driver. At full scale the grid tops out at `n = 10⁷`, where the
//!    harness's auto-sharding (`ShardSpec::Auto`, ≥ ~8M nodes) engages
//!    on its own; `--shards K` forces a count at any size — sharding
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
use randcast_engine::radio_fast::{FastRadioSchedule, ShardedRadio};
use randcast_engine::simple_fast::ShardedSimple;
use randcast_graph::generators::gnp_edges;
use randcast_graph::shard::{
    default_scratch_dir, RamShards, ShardPlan, ShardStore, ShardedBfsTree, SpillSink,
};
use randcast_graph::Graph;
use randcast_stats::chernoff::phase_len_omission;
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
        "Shard-at-a-time frontier passes at n = 10^6..10^7 through the sweep driver,\n\
         plus out-of-core flood/radio/Simple trials at n = 10^8 whose CSR streams from disk.",
    );
    let quick = cli.scale > 1;

    // Part 1: the sweep grid. Auto-sharding engages by itself at 10^7;
    // --shards K forces the matter at any size (outcome-neutral).
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
    let d_est = (3.0 * nf.ln() / 8f64.ln()).ceil();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let horizon = ((2.0 * (d_est + 4.0 * nf.ln()) / (1.0 - P)).ceil() as usize).max(1);

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

    let mut trials = Table::new([
        "kernel",
        "rounds budget",
        "wall",
        "per-trial wall",
        "prefetch",
        "completed round",
        "informed frac",
        "almost-complete",
        "peak RSS so far",
    ]);
    let fmt_round = |r: Option<usize>| r.map_or_else(|| "-".into(), |r| r.to_string());

    // Flood: the store moves in and comes back out for radio.
    let flood = ShardedFlood::new(store, 0, horizon).with_prefetch(cli.prefetch);
    let flood_start = Instant::now();
    let fout = flood
        .run_lane(P, cli.seeds().nth_seed(0), 0)
        .unwrap_or_else(|e| panic!("out-of-core flood trial failed: {e}"));
    let flood_wall = flood_start.elapsed();
    trials.row([
        "flood".into(),
        format!("{horizon}"),
        format!("{:.1}s", flood_wall.as_secs_f64()),
        format!("{:.2}s", flood_wall.as_secs_f64()),
        prefetch_label.into(),
        fmt_round(fout.completion_round()),
        format!("{:.6}", fout.informed_fraction()),
        fmt_round(fout.almost_complete_round()),
        fmt_gib(peak_rss_bytes()),
    ]);
    cells.push(oc_cell(
        "flood",
        n,
        fout.completion_round(),
        fout.informed_fraction(),
        fout.almost_complete_round(),
        flood_wall,
    ));

    // 64-lane batched block over the same store: every segment load is
    // amortized across the lanes, so the per-trial wall collapses.
    let fb_start = Instant::now();
    let fbatch = flood
        .run_batch(P, cli.seeds().nth_seed(3), reachable)
        .unwrap_or_else(|e| panic!("out-of-core flood batch failed: {e}"));
    let fb_wall = fb_start.elapsed();
    let fb_lanes = lane_stats(|l| {
        (
            fbatch.completion_round(l),
            fbatch.informed_fraction(l),
            fbatch.almost_complete_round(l),
        )
    });
    batch_row(
        &mut trials,
        "flood x64",
        horizon,
        fb_wall,
        prefetch_label,
        &fb_lanes,
    );
    cells.push(oc_batch_cell("flood", n, &fb_lanes, fb_wall));
    let store = flood.into_store();

    // Radio under the classical Decay schedule: epoch length
    // ⌈log₂ n⌉ + 1, epochs 2·(d + log₂ n) — the global collision
    // counter and epoch-exhaustion sweep run across segment loads.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let decay = DecayConfig::classical(n, d_est as usize);
    let radio = ShardedRadio::new(
        store,
        0,
        decay.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: decay.epoch_len,
        },
    )
    .with_prefetch(cli.prefetch)
    .with_threads(cli.threads);
    let radio_start = Instant::now();
    let rout = radio
        .run_lane(P, cli.seeds().nth_seed(1), 0)
        .unwrap_or_else(|e| panic!("out-of-core radio trial failed: {e}"));
    let radio_wall = radio_start.elapsed();
    trials.row([
        "radio/decay".into(),
        format!("{}", decay.total_rounds()),
        format!("{:.1}s", radio_wall.as_secs_f64()),
        format!("{:.2}s", radio_wall.as_secs_f64()),
        prefetch_label.into(),
        fmt_round(rout.completion_round()),
        format!("{:.6}", rout.informed_fraction()),
        fmt_round(rout.almost_complete_round()),
        fmt_gib(peak_rss_bytes()),
    ]);
    cells.push(oc_cell(
        "radio",
        n,
        rout.completion_round(),
        rout.informed_fraction(),
        rout.almost_complete_round(),
        radio_wall,
    ));

    let rb_start = Instant::now();
    let rbatch = radio
        .run_batch(P, cli.seeds().nth_seed(4))
        .unwrap_or_else(|e| panic!("out-of-core radio batch failed: {e}"));
    let rb_wall = rb_start.elapsed();
    let rb_lanes = lane_stats(|l| {
        (
            rbatch.completion_round(l),
            rbatch.informed_fraction(l),
            rbatch.almost_complete_round(l),
        )
    });
    batch_row(
        &mut trials,
        "radio/decay x64",
        decay.total_rounds(),
        rb_wall,
        prefetch_label,
        &rb_lanes,
    );
    cells.push(oc_batch_cell("radio", n, &rb_lanes, rb_wall));
    drop(radio); // releases the adjacency store (and its scratch dir)

    // Simple: the (level, id)-sorted phase walk over the directed
    // child segments the BFS build spilled.
    let m = phase_len_omission(n.max(2), P);
    let simple =
        ShardedSimple::new(ShardStore::Disk(children), order, 0, m).with_prefetch(cli.prefetch);
    let simple_start = Instant::now();
    let sout = simple
        .run_lane(P, cli.seeds().nth_seed(2), 0)
        .unwrap_or_else(|e| panic!("out-of-core simple trial failed: {e}"));
    let simple_wall = simple_start.elapsed();
    trials.row([
        "simple".into(),
        format!("{}", sout.total_rounds()),
        format!("{:.1}s", simple_wall.as_secs_f64()),
        format!("{:.2}s", simple_wall.as_secs_f64()),
        prefetch_label.into(),
        fmt_round(sout.completion_round()),
        format!("{:.6}", sout.correct_fraction()),
        fmt_round(sout.almost_complete_round()),
        fmt_gib(peak_rss_bytes()),
    ]);
    cells.push(oc_cell(
        "simple",
        n,
        sout.completion_round(),
        sout.correct_fraction(),
        sout.almost_complete_round(),
        simple_wall,
    ));

    let sb_start = Instant::now();
    let sbatch = simple
        .run_batch(P, cli.seeds().nth_seed(5))
        .unwrap_or_else(|e| panic!("out-of-core simple batch failed: {e}"));
    let sb_wall = sb_start.elapsed();
    let sb_lanes = lane_stats(|l| {
        (
            sbatch.completion_round(l),
            sbatch.correct_fraction(l),
            sbatch.almost_complete_round(l),
        )
    });
    batch_row(
        &mut trials,
        "simple x64",
        sbatch.total_rounds(),
        sb_wall,
        prefetch_label,
        &sb_lanes,
    );
    cells.push(oc_batch_cell("simple", n, &sb_lanes, sb_wall));

    println!("{}", trials.render());
    println!(
        "expected: the giant component of G(n, 8/n) covers ~0.9997 of the nodes; flood\n\
         covers it in ~D/(1-p) + O(log n) rounds, Decay in O((D + log n) log n), and\n\
         Simple's fixed n·m schedule ends almost-complete. Peak RSS stays near the\n\
         resident bitsets + one shard segment, far below the full adjacency."
    );
}

/// One synthetic report row for an out-of-core trial. Only store- and
/// shard-agnostic fields: the Ram-vs-Disk and shards determinism gates
/// diff this JSON byte-for-byte (`wall_ms` is zeroed by
/// `json_validate --normalize`).
fn oc_cell(
    engine: &str,
    n: usize,
    completed: Option<usize>,
    informed_frac: f64,
    almost: Option<usize>,
    wall: Duration,
) -> CellResult {
    let success = completed.is_some();
    #[allow(clippy::cast_precision_loss)]
    let rounds = completed.map(|r| r as f64);
    #[allow(clippy::cast_precision_loss)]
    let almost_rounds = almost.map(|r| r as f64);
    CellResult {
        kind: CellKind::MonteCarlo,
        params: vec![
            ("engine".into(), format!("{engine}/out-of-core")),
            ("n".into(), format!("{n}")),
        ],
        estimate: SuccessEstimate::new(usize::from(success), 1),
        row: None,
        mean_rounds: rounds,
        mean_informed_frac: Some(informed_frac),
        wall_ms: wall.as_secs_f64() * 1000.0,
        outcomes: vec![TrialOutcome {
            success,
            rounds,
            informed_frac: Some(informed_frac),
            almost_rounds,
        }],
    }
}

/// Per-lane `(completion round, informed/correct fraction,
/// almost-complete round)` of one 64-lane batched block.
type LaneStats = (Option<usize>, f64, Option<usize>);

/// Collects the per-lane stats of a 64-lane batched block.
fn lane_stats(per_lane: impl Fn(u32) -> LaneStats) -> Vec<LaneStats> {
    (0..64).map(per_lane).collect()
}

/// One printed row for a batched block: total and per-trial wall, lane
/// medians for the round columns, lane mean for the fraction.
fn batch_row(
    trials: &mut Table,
    kernel: &str,
    budget: usize,
    wall: Duration,
    prefetch: &str,
    lanes: &[LaneStats],
) {
    #[allow(clippy::cast_precision_loss)]
    let completed: Vec<f64> = lanes
        .iter()
        .filter_map(|&(c, _, _)| c.map(|r| r as f64))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let almost: Vec<f64> = lanes
        .iter()
        .filter_map(|&(_, _, a)| a.map(|r| r as f64))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let mean_frac = lanes.iter().map(|(_, f, _)| f).sum::<f64>() / lanes.len() as f64;
    let fmt_p50 = |q: Option<QuantileSummary>| {
        q.map_or_else(|| "-".into(), |s| format!("p50 {}", fmt_f2(s.p50)))
    };
    #[allow(clippy::cast_precision_loss)]
    trials.row([
        kernel.into(),
        format!("{budget}"),
        format!("{:.1}s", wall.as_secs_f64()),
        format!("{:.2}s", wall.as_secs_f64() / lanes.len() as f64),
        prefetch.into(),
        fmt_p50(QuantileSummary::from_unsorted(&completed)),
        format!("{mean_frac:.6}"),
        fmt_p50(QuantileSummary::from_unsorted(&almost)),
        fmt_gib(peak_rss_bytes()),
    ]);
}

/// One synthetic report row for a 64-lane batched block: one
/// [`TrialOutcome`] per lane. Like [`oc_cell`], only store-, shard-,
/// thread-, and prefetch-agnostic fields, so the determinism gates
/// diff the normalized JSON byte-for-byte across every knob.
fn oc_batch_cell(engine: &str, n: usize, lanes: &[LaneStats], wall: Duration) -> CellResult {
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
    let successes = outcomes.iter().filter(|o| o.success).count();
    let rounds: Vec<f64> = outcomes.iter().filter_map(|o| o.rounds).collect();
    #[allow(clippy::cast_precision_loss)]
    let mean_rounds =
        (!rounds.is_empty()).then(|| rounds.iter().sum::<f64>() / rounds.len() as f64);
    #[allow(clippy::cast_precision_loss)]
    let mean_frac =
        outcomes.iter().filter_map(|o| o.informed_frac).sum::<f64>() / outcomes.len() as f64;
    CellResult {
        kind: CellKind::MonteCarlo,
        params: vec![
            ("engine".into(), format!("{engine}/out-of-core-batch")),
            ("n".into(), format!("{n}")),
            ("lanes".into(), format!("{}", lanes.len())),
        ],
        estimate: SuccessEstimate::new(successes, outcomes.len()),
        row: None,
        mean_rounds,
        mean_informed_frac: Some(mean_frac),
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
