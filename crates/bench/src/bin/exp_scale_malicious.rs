//! SCALE — malicious broadcasting at large `n` through the adversary
//! fast-path kernels (the [`FaultModel`] layer behind
//! `simple_fast` / `flood_fast` / `radio_fast`).
//!
//! Three sections:
//!
//! 1. **Scale grid** — `Simple-Malicious` (Theorem 2.2, majority
//!    voting), tree flooding under the flip adversary (the negative
//!    side of Theorem 2.3: flooding has no vote, so correctness decays
//!    geometrically with depth), and Decay under limited-malicious
//!    value corruption, on connected Erdős–Rényi and
//!    preferential-attachment graphs up to `n = 10⁶` (`--quick` caps
//!    at `n = 10⁴`). Every cell sits at `n ≥ 4096`, so the harness
//!    **auto-selects** the fast path — the same dispatch a user's
//!    `Algorithm::Simple` scenario takes.
//! 2. **Feasibility threshold** — with the phase length *fixed* at `m`
//!    instead of scaled with `p`, the Hoeffding bound on a corrupted
//!    majority puts the per-phase failure near
//!    `exp(−2 m (1/2 − p)²)`; the union bound collapses at the margin
//!    `(1/2 − p*) = sqrt(ln n / (2 m))`. Cells walk `p` across `p*`,
//!    tracing the success rate from ≈1 to ≈0 — the malicious analogue
//!    of `exp_scale_simple`'s omission bracket, honoring Theorem 2.2's
//!    `p < 1/2` wall.
//! 3. **Placement study** (stdout only, not part of the JSON report) —
//!    i.i.d. omission vs the cut-maximizing [`WorstCasePlacement`]
//!    adversary at the same corruption budget on tree flooding: an
//!    iid-silenced node merely retries next round, while a crash
//!    *placed* at a subtree-maximizing site severs its whole subtree,
//!    so the same mass concentrated adversarially destroys almost all
//!    of the informed set.
//!
//! [`FaultModel`]: randcast_engine::kernel::FaultModel
//! [`WorstCasePlacement`]: randcast_engine::kernel::WorstCasePlacement

use randcast_bench::{banner, cli, scale_table, write_json};
use randcast_core::scenario::{fmt_p, Algorithm, GraphFamily, Model, Scenario, ShardSpec};
use randcast_engine::fault::{FaultConfig, FaultKind};
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_engine::kernel::{CorruptionKind, FaultModel, Omission, WorstCasePlacement, LANES};
use randcast_graph::{generators, CsrGraph};
use randcast_stats::table::{fmt_f2, Table};

fn main() {
    let cli = cli();
    banner(
        "SCALE (malicious fast paths)",
        "Majority-vote Simple-Malicious, flip-adversary flooding, and limited-malicious \
         Decay on gnp / preferential-attachment graphs up to n = 10^6 through the \
         auto-selected adversary kernels, plus fixed-m cells bracketing the Theorem 2.2 \
         collapse at (1/2 - p*) = sqrt(ln n / 2m) and an iid-vs-placed corruption study.",
    );
    let quick = cli.scale > 1;
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut sweep = cli.sweep("scale_malicious");

    // Section 1: the scale grid. Families stay connected by
    // construction (the random-geometric family would force the
    // *Fast algorithms and bypass the auto-dispatch under test).
    // Simple's Theorem 2.2 schedule is n·m with m = ln n/(1/2-p)², so
    // its p list stays below the wall; flooding and Decay corrupt
    // values, not deliveries, and tolerate any rate.
    let cells: &[(Algorithm, Model, FaultKind, &[f64])] = &[
        (
            Algorithm::Simple,
            Model::Mp,
            FaultKind::Malicious,
            if quick { &[0.3] } else { &[0.1, 0.3] },
        ),
        (
            Algorithm::Flood { horizon_scale: 1 },
            Model::Mp,
            FaultKind::Malicious,
            if quick { &[0.3] } else { &[0.1, 0.3, 0.6] },
        ),
        (
            Algorithm::Decay { epoch_factor: 3 },
            Model::Radio,
            FaultKind::LimitedMalicious,
            if quick { &[0.3] } else { &[0.1, 0.3] },
        ),
    ];
    let mut specs = Vec::new();
    for &n in sizes {
        let families = [
            GraphFamily::Gnp {
                n,
                avg_deg: 8,
                seed: 67,
            },
            GraphFamily::PreferentialAttachment { n, m: 4, seed: 69 },
        ];
        // Simple-Malicious trials cost n·m model coins, the most
        // expensive cells here — counts scale down with n; an explicit
        // --trials wins as everywhere.
        let trials = cli.cell_trials(if quick {
            cli.trials.min(8)
        } else {
            (1_000_000 / n).clamp(4, 16)
        });
        for family in families {
            for &(algorithm, model, kind, ps) in cells {
                for &p in ps {
                    let scenario = Scenario {
                        graph: family,
                        algorithm,
                        model,
                        fault: FaultConfig::new(kind, p)
                            .unwrap_or_else(|e| panic!("invalid fault rate: {e}")),
                        shards: ShardSpec::Auto,
                    };
                    specs.push(scenario);
                    sweep
                        .try_scenario(scenario, trials)
                        .unwrap_or_else(|e| panic!("invalid scale-malicious scenario: {e}"));
                }
            }
        }
    }

    // Section 2: the fixed-m feasibility bracket (Theorem 2.2's p < 1/2
    // wall). With m fixed, the majority vote's per-phase failure is
    // ≈ exp(-2m(1/2-p)²); n phases collapse once the margin 1/2 - p
    // crosses sqrt(ln n / 2m). Explicit phase_len bypasses the
    // prescription (and its feasibility assertion) by design.
    let bracket_n = if quick { 10_000 } else { 1_000_000 };
    let m = if quick { 121 } else { 441 };
    let margin_star = ((bracket_n as f64).ln() / (2.0 * m as f64)).sqrt();
    let p_star = 0.5 - margin_star;
    let bracket_family = GraphFamily::Gnp {
        n: bracket_n,
        avg_deg: 8,
        seed: 67, // shares the main grid's built graph via the cache
    };
    let bracket_trials = cli.cell_trials(if quick { cli.trials.min(8) } else { 8 });
    let mut bracket_specs = Vec::new();
    for factor in [1.3, 1.15, 1.0, 0.85, 0.7] {
        let p = 0.5 - margin_star * factor;
        let scenario = Scenario {
            graph: bracket_family,
            algorithm: Algorithm::SimpleFast { phase_len: Some(m) },
            model: Model::Mp,
            fault: FaultConfig::malicious(p),
            shards: ShardSpec::Auto,
        };
        bracket_specs.push(scenario);
        sweep
            .try_scenario_with(
                scenario,
                bracket_trials,
                vec![
                    ("p*".into(), format!("{p_star:.4}")),
                    ("margin/margin*".into(), format!("{factor}")),
                ],
            )
            .unwrap_or_else(|e| panic!("invalid bracket scenario: {e}"));
    }

    let result = sweep.run();
    let (grid_cells, bracket_cells) = result.cells.split_at(specs.len());

    println!("{}", scale_table(&specs, grid_cells).render());

    let mut bracket = Table::new([
        "margin/margin*",
        "p",
        "m",
        "successes",
        "trials",
        "rate",
        "frac",
    ]);
    for (scenario, cell) in bracket_specs.iter().zip(bracket_cells) {
        let param = |key: &str| {
            cell.params
                .iter()
                .find(|(k, _)| k == key)
                .map_or_else(|| "-".into(), |(_, v)| v.clone())
        };
        bracket.row([
            param("margin/margin*"),
            fmt_p(scenario.fault.p.get()),
            param("m"),
            cell.estimate.successes().to_string(),
            cell.estimate.trials().to_string(),
            fmt_f2(cell.estimate.rate()),
            cell.mean_informed_frac
                .map_or_else(|| "-".into(), |f| format!("{f:.5}")),
        ]);
    }
    println!("{}", bracket.render());

    placement_study(if quick { 8 } else { 20 }, cli.seed);

    write_json(&cli, &result);
    println!(
        "expected: Simple-Malicious with the Theorem 2.2 schedule stays almost-safe at\n\
         every size while flip-adversary flooding — voteless — sees its correct\n\
         fraction collapse toward 1/2 with depth (Theorem 2.3's lesson) and\n\
         limited-malicious Decay loses exactly the poisoned adoptions; with m fixed\n\
         the success rate walks from ~1 to ~0 as the margin crosses\n\
         sqrt(ln n / 2m); and at equal budget the cut-maximizing crash placement\n\
         severs almost the whole tree while iid omission costs nothing."
    );
}

/// Section 3: iid flip corruption vs the cut-maximizing placement at
/// the same budget, on tree flooding over a 64×64 grid (n = 4096 — the
/// auto-dispatch floor). Stdout only: the placement adversary is a
/// study instrument, not part of the reproducible JSON surface.
fn placement_study(blocks: u64, seed: u64) {
    let g = generators::grid(64, 64);
    let n = g.node_count();
    let csr = CsrGraph::from(&g);
    let flood = FastFlood::new(csr, g.node(0), 256, FastFloodVariant::Tree);

    let mut table = Table::new(["budget", "iid informed frac", "placed informed frac"]);
    for &p in &[0.01, 0.03, 0.1] {
        // Silent corruption makes the leverage visible: an iid omission
        // node merely retries next round, while a *placed* crash at a
        // subtree-maximizing site severs its whole subtree for good.
        let iid = Omission::new(p);
        let mut placed = WorstCasePlacement::new(p, CorruptionKind::Silent);
        flood.preprocess(&mut placed);
        let mean_frac = |model: &dyn FaultModel| {
            let mut informed = 0usize;
            for block in 0..blocks {
                let batch = flood.run_batch_model(model, seed.wrapping_add(block), !0);
                for lane in 0..LANES as u32 {
                    informed += batch.informed_count(lane);
                }
            }
            informed as f64 / (blocks as usize * LANES * n) as f64
        };
        table.row([
            fmt_p(p),
            format!("{:.4}", mean_frac(&iid)),
            format!("{:.4}", mean_frac(&placed)),
        ]);
    }
    println!("iid vs worst-case placement (tree flood, grid 64x64):");
    println!("{}", table.render());
}
