//! Shared plumbing for the reproduction experiment binaries (`exp_e1` …
//! `exp_e10`) and the Criterion benches.
//!
//! Each binary regenerates one result of Pelc & Peleg (PODC'05 / TCS'07);
//! the mapping from binaries to theorems is the per-experiment index in
//! `DESIGN.md`. Every binary accepts the shared sweep CLI parsed by
//! [`Cli`]:
//!
//! ```text
//! --quick        reduced trial counts and sweep extents (smoke runs)
//! --trials N     Monte-Carlo trials per cell (overrides --quick's count)
//! --threads N    worker threads (default: one per CPU)
//! --shards K     frontier shards per trial (default: auto by graph size)
//! --store KIND   out-of-core store backend, `disk` (default) or `ram`
//! --prefetch V   overlap segment reads with compute, `on` (default) or `off`
//! --sweep-only   skip the out-of-core part of binaries that have one
//! --seed S       root seed; all cell/trial randomness derives from it
//! --json PATH    also write the structured JSON report to PATH
//! ```
//!
//! Unknown flags are rejected with usage text — a typo like `--qiuck`
//! aborts instead of silently running the full sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use randcast_core::scenario::{Algorithm, GraphFamily, Model, Scenario, ShardSpec};
use randcast_core::sweep::{default_threads, CellResult, Sweep, SweepResult};
use randcast_engine::fault::FaultConfig;
use randcast_stats::quantile::QuantileSummary;
use randcast_stats::seed::SeedSequence;
use randcast_stats::table::{fmt_f2, Table};

/// Root seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2005;

/// Trials per cell without `--quick` / `--trials`.
pub const DEFAULT_TRIALS: usize = 400;

/// Trials per cell under `--quick`.
pub const QUICK_TRIALS: usize = 60;

/// CLI usage text shared by all experiment binaries.
pub const USAGE: &str =
    "usage: exp_* [--quick] [--trials N] [--threads N] [--shards K] [--store ram|disk]
             [--prefetch on|off] [--sweep-only] [--seed S] [--json PATH] [--help]

  --quick        reduced trial counts and sweep extents (smoke runs)
  --trials N     Monte-Carlo trials per table cell (default 400; 60 with --quick)
  --threads N    worker threads for the sweep driver (default: one per CPU)
  --shards K     frontier shards per batched trial; outcome-neutral
                 (default: auto — monolithic below ~8M nodes)
  --store KIND   shard-store backend for the out-of-core trials of the
                 scale binaries: `disk` (segment files, the default) or
                 `ram` (in-memory split); outcome-neutral
  --prefetch V   `on` (default) overlaps the next segment read with the
                 current shard's compute in the out-of-core trials;
                 `off` loads segments synchronously; outcome-neutral
  --sweep-only   run only the sweep part of binaries with an extra
                 out-of-core part (CI's speedup probe times the sweep
                 without paying for the 10^8 trials)
  --seed S       root seed; every cell and trial derives from it (default 2005)
  --json PATH    also write the structured JSON report to PATH
  --help         print this message";

/// Shard-store backend selected by `--store` for the out-of-core
/// trials of the scale binaries. Ram-vs-Disk is outcome-neutral (the
/// engines pin bit-identity between the two), so the flag only moves
/// the peak-RSS/wall trade-off — and gives CI a lever to diff the two
/// paths' reports byte-for-byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StoreKind {
    /// In-RAM sharded adjacency (`ShardStore::Ram`).
    Ram,
    /// Disk-backed segment files (`ShardStore::Disk`) — the default,
    /// and the only backend that holds the 10⁸ RSS budget.
    #[default]
    Disk,
}

/// Parsed shared CLI for the experiment binaries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cli {
    /// Monte-Carlo trials per table cell.
    pub trials: usize,
    /// Whether `--trials` was given explicitly (an explicit count wins
    /// over per-binary floors/caps — see [`cell_trials`](Self::cell_trials)).
    pub trials_overridden: bool,
    /// Divisor for sweep extents (1 = full, 2 under `--quick`).
    pub scale: usize,
    /// Worker threads for the sweep driver.
    pub threads: usize,
    /// Frontier shards per batched trial (`None` = auto by graph
    /// size). Sharding is outcome-neutral, so this only moves the
    /// peak-RSS/wall trade-off.
    pub shards: Option<usize>,
    /// Shard-store backend for the out-of-core trials of the scale
    /// binaries (`--store ram|disk`; default disk). Outcome-neutral.
    pub store: StoreKind,
    /// Pipelined segment prefetch for the out-of-core trials of the
    /// scale binaries (`--prefetch on|off`; default on). A background
    /// reader overlaps the next segment's read with the current
    /// shard's compute; outcome-neutral either way.
    pub prefetch: bool,
    /// Skip the out-of-core part of binaries that have one
    /// (`--sweep-only`) — CI's multi-thread speedup probe times the
    /// sweep alone.
    pub sweep_only: bool,
    /// Root seed for all randomness.
    pub seed: u64,
    /// Where to write the JSON report, if requested.
    pub json: Option<PathBuf>,
}

/// A rejected command line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CliError {
    /// `--help` was requested.
    Help,
    /// The arguments were invalid; the payload explains why.
    Bad(String),
}

impl Cli {
    /// Parses the given arguments (program name already stripped).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Help`] for `--help`/`-h`, and
    /// [`CliError::Bad`] for unknown flags, missing values, or
    /// malformed numbers.
    pub fn parse<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut cli = Cli {
            trials: DEFAULT_TRIALS,
            trials_overridden: false,
            scale: 1,
            threads: default_threads(),
            shards: None,
            store: StoreKind::default(),
            prefetch: true,
            sweep_only: false,
            seed: DEFAULT_SEED,
            json: None,
        };
        let mut explicit_trials = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(CliError::Help),
                "--quick" => {
                    cli.trials = QUICK_TRIALS;
                    cli.scale = 2;
                }
                "--trials" => {
                    let n = parse_value(&arg, args.next())?;
                    if n == 0 {
                        return Err(CliError::Bad("--trials must be positive".into()));
                    }
                    explicit_trials = Some(n);
                }
                "--threads" => {
                    let n: usize = parse_value(&arg, args.next())?;
                    if n == 0 {
                        return Err(CliError::Bad("--threads must be positive".into()));
                    }
                    cli.threads = n;
                }
                "--shards" => {
                    let k: usize = parse_value(&arg, args.next())?;
                    if k == 0 {
                        return Err(CliError::Bad("--shards must be positive".into()));
                    }
                    cli.shards = Some(k);
                }
                "--store" => {
                    let raw = args
                        .next()
                        .ok_or_else(|| CliError::Bad("--store needs a value".into()))?;
                    cli.store = match raw.as_str() {
                        "ram" => StoreKind::Ram,
                        "disk" => StoreKind::Disk,
                        other => {
                            return Err(CliError::Bad(format!(
                                "invalid value `{other}` for --store (expected `ram` or `disk`)"
                            )));
                        }
                    };
                }
                "--prefetch" => {
                    let raw = args
                        .next()
                        .ok_or_else(|| CliError::Bad("--prefetch needs a value".into()))?;
                    cli.prefetch = match raw.as_str() {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(CliError::Bad(format!(
                                "invalid value `{other}` for --prefetch (expected `on` or `off`)"
                            )));
                        }
                    };
                }
                "--sweep-only" => cli.sweep_only = true,
                "--seed" => cli.seed = parse_value(&arg, args.next())?,
                "--json" => {
                    let path = args
                        .next()
                        .ok_or_else(|| CliError::Bad("--json needs a path".into()))?;
                    cli.json = Some(PathBuf::from(path));
                }
                other => {
                    return Err(CliError::Bad(format!("unknown argument `{other}`")));
                }
            }
        }
        if let Some(n) = explicit_trials {
            cli.trials = n;
            cli.trials_overridden = true;
        }
        Ok(cli)
    }

    /// The trial count for one cell. Binaries pass their `preferred`
    /// adjustment of [`trials`](Self::trials) (floors for
    /// weak-signal experiments, caps for expensive cells); an explicit
    /// `--trials N` on the command line wins over the adjustment, so
    /// the flag's contract — N trials per cell — always holds.
    #[must_use]
    pub fn cell_trials(&self, preferred: usize) -> usize {
        if self.trials_overridden {
            self.trials
        } else {
            preferred
        }
    }

    /// The root seed sequence all sweeps derive from.
    #[must_use]
    pub fn seeds(&self) -> SeedSequence {
        SeedSequence::new(self.seed)
    }

    /// Creates a [`Sweep`] configured with this CLI's seed root,
    /// thread count, and (if `--shards` was given) a fixed shard
    /// count for every cell's batched trials.
    #[must_use]
    pub fn sweep(&self, experiment: &str) -> Sweep<'static> {
        let mut sweep = Sweep::new(experiment, self.seeds()).with_threads(self.threads);
        if let Some(k) = self.shards {
            sweep = sweep.with_shards(ShardSpec::Fixed(k));
        }
        sweep
    }
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the probe is unavailable
/// (non-Linux platforms, or an unreadable/unparsable status file).
///
/// `VmHWM` is the kernel's high-water mark for resident pages, which
/// is exactly the number the scale experiments budget: it captures the
/// worst moment of the run (graph construction or the widest frontier
/// pass), not the instantaneous RSS at sample time.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kib * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Formats a byte count as GiB with two decimals, or `"-"` when the
/// probe was unavailable.
#[must_use]
pub fn fmt_gib(bytes: Option<u64>) -> String {
    #[allow(clippy::cast_precision_loss)]
    bytes.map_or_else(
        || "-".into(),
        |b| format!("{:.2} GiB", b as f64 / f64::from(1u32 << 30)),
    )
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, CliError> {
    let raw = value.ok_or_else(|| CliError::Bad(format!("{flag} needs a value")))?;
    raw.parse()
        .map_err(|_| CliError::Bad(format!("invalid value `{raw}` for {flag}")))
}

/// Parses `std::env::args()`, printing usage and exiting on `--help` or
/// bad arguments (exit code 2, matching conventional CLI behavior).
#[must_use]
pub fn cli() -> Cli {
    match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(CliError::Help) => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Err(CliError::Bad(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Prints the sweep's tables and writes the JSON report if `--json` was
/// given.
pub fn emit(cli: &Cli, result: &SweepResult) {
    print!("{}", result.report().render_tables());
    write_json(cli, result);
}

/// Writes the JSON report to the `--json` path (creating parent
/// directories), if one was given.
///
/// # Panics
///
/// Panics if the file cannot be written — experiment output is the
/// whole point of the run, so failures must be loud.
pub fn write_json(cli: &Cli, result: &SweepResult) {
    let Some(path) = &cli.json else { return };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, result.report().to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Populates `sweep` with the shared large-`n` scale grid: for every
/// `n` in `sizes`, the three scalable families — `Gnp` (avg. degree 8),
/// `RandomGeometric` (degree 12, possibly disconnected), and
/// `PreferentialAttachment` (m = 4), construction-seeded from `seeds`
/// — each swept over every `p` in `ps` as omission faults under
/// `algorithm` in `model`. Cells are added declaratively
/// ([`Sweep::try_scenario`]), so the sweep driver's per-`(family,
/// seed)` cache builds each graph **once**, in parallel, and shares it
/// across the family's `p` cells (at `n = 10⁶` the build dominates
/// sweep setup); `trials_for(n)` gives the per-cell trial count.
/// Returns the scenario list parallel to the sweep's cells, for
/// [`scale_table`].
///
/// Used by `exp_scale_flood`, `exp_scale_radio`, and
/// `exp_scale_simple`, which differ only in the algorithm/model,
/// construction seeds, trial scaling, and prose.
///
/// # Panics
///
/// Panics if the (algorithm, model, fault) combination is invalid for
/// the scale families (see `Scenario::validate`).
pub fn scale_sweep(
    sweep: &mut Sweep<'static>,
    sizes: &[usize],
    ps: &[f64],
    seeds: [u64; 3],
    algorithm: Algorithm,
    model: Model,
    trials_for: impl Fn(usize) -> usize,
) -> Vec<Scenario> {
    let mut specs = Vec::new();
    for &n in sizes {
        let families = [
            GraphFamily::Gnp {
                n,
                avg_deg: 8,
                seed: seeds[0],
            },
            GraphFamily::RandomGeometric {
                n,
                deg: 12,
                seed: seeds[1],
            },
            GraphFamily::PreferentialAttachment {
                n,
                m: 4,
                seed: seeds[2],
            },
        ];
        let trials = trials_for(n);
        for family in families {
            for &p in ps {
                let scenario = Scenario {
                    graph: family,
                    algorithm,
                    model,
                    fault: FaultConfig::omission(p),
                    shards: ShardSpec::Auto,
                };
                specs.push(scenario);
                sweep
                    .try_scenario(scenario, trials)
                    .unwrap_or_else(|e| panic!("invalid scale-sweep scenario: {e}"));
            }
        }
    }
    specs
}

/// Renders the shared large-`n` scale-sweep table (one row per cell):
/// completion-time quantiles, mean informed fraction, and the median
/// almost-complete (`1 − 1/n`) time. Used by `exp_scale_flood` and
/// `exp_scale_radio`, whose cells differ only in the algorithm swept.
///
/// `specs` must parallel `cells` (one scenario per swept cell, in
/// order).
#[must_use]
pub fn scale_table(specs: &[Scenario], cells: &[CellResult]) -> Table {
    let mut table = Table::new([
        "graph",
        "n",
        "p",
        "horizon",
        "T p50",
        "T p90",
        "T max",
        "informed frac",
        "almost-T p50",
    ]);
    for (scenario, cell) in specs.iter().zip(cells) {
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
            scenario.graph.label(),
            param("n"),
            format!("{}", scenario.fault.p),
            param("rounds"),
            fmt_q(rq, |s| s.p50),
            fmt_q(rq, |s| s.p90),
            fmt_q(rq, |s| s.max),
            cell.mean_informed_frac
                .map_or_else(|| "-".into(), |f| format!("{f:.5}")),
            fmt_q(aq, |s| s.p50),
        ]);
    }
    table
}

/// Prints the standard experiment header.
pub fn banner(id: &str, claim: &str) {
    println!("== {id} ==");
    println!("{claim}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_without_args() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.trials, DEFAULT_TRIALS);
        assert_eq!(cli.scale, 1);
        assert_eq!(cli.seed, DEFAULT_SEED);
        assert!(cli.threads >= 1);
        assert_eq!(cli.json, None);
    }

    #[test]
    fn quick_shrinks_effort() {
        let cli = parse(&["--quick"]).unwrap();
        assert_eq!(cli.trials, QUICK_TRIALS);
        assert_eq!(cli.scale, 2);
    }

    #[test]
    fn explicit_trials_override_quick_in_any_order() {
        let a = parse(&["--quick", "--trials", "17"]).unwrap();
        let b = parse(&["--trials", "17", "--quick"]).unwrap();
        assert_eq!(a.trials, 17);
        assert_eq!(b.trials, 17);
        assert_eq!(a.scale, 2);
    }

    #[test]
    fn all_flags_parse() {
        let cli = parse(&[
            "--trials",
            "99",
            "--threads",
            "3",
            "--seed",
            "7",
            "--json",
            "out/x.json",
        ])
        .unwrap();
        assert_eq!(cli.trials, 99);
        assert_eq!(cli.threads, 3);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.json, Some(PathBuf::from("out/x.json")));
    }

    /// Regression: a typo like `--qiuck` must abort with usage, not
    /// silently run the full 400-trial sweep.
    #[test]
    fn unknown_flags_are_rejected() {
        for bad in [&["--qiuck"][..], &["--quick", "--virbose"], &["extra"]] {
            match parse(bad) {
                Err(CliError::Bad(msg)) => assert!(msg.contains("unknown"), "{msg}"),
                other => panic!("{bad:?} not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn missing_and_malformed_values_are_rejected() {
        assert!(matches!(parse(&["--trials"]), Err(CliError::Bad(_))));
        assert!(matches!(
            parse(&["--trials", "zero"]),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(parse(&["--trials", "0"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--threads", "0"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--seed", "-1"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--json"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn help_is_distinguished() {
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
    }

    #[test]
    fn shards_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().shards, None);
        assert_eq!(parse(&["--shards", "4"]).unwrap().shards, Some(4));
        assert!(matches!(parse(&["--shards", "0"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--shards"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn store_flag_parses_and_rejects_junk() {
        assert_eq!(parse(&[]).unwrap().store, StoreKind::Disk);
        assert_eq!(parse(&["--store", "ram"]).unwrap().store, StoreKind::Ram);
        assert_eq!(parse(&["--store", "disk"]).unwrap().store, StoreKind::Disk);
        assert!(matches!(parse(&["--store", "tape"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--store"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn prefetch_flag_parses_and_rejects_junk() {
        assert!(parse(&[]).unwrap().prefetch);
        assert!(parse(&["--prefetch", "on"]).unwrap().prefetch);
        assert!(!parse(&["--prefetch", "off"]).unwrap().prefetch);
        assert!(matches!(
            parse(&["--prefetch", "maybe"]),
            Err(CliError::Bad(_))
        ));
        assert!(matches!(parse(&["--prefetch"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn sweep_only_flag_parses() {
        assert!(!parse(&[]).unwrap().sweep_only);
        assert!(parse(&["--sweep-only"]).unwrap().sweep_only);
    }

    #[test]
    fn rss_probe_reports_a_sane_high_water_mark() {
        let Some(bytes) = peak_rss_bytes() else {
            return; // non-Linux: the probe is an explicit no-op
        };
        // A running test binary resides in at least a mebibyte and
        // (here) well under a terabyte.
        assert!(bytes > 1 << 20, "VmHWM {bytes} implausibly small");
        assert!(bytes < 1 << 40, "VmHWM {bytes} implausibly large");
    }

    #[test]
    fn gib_formatting_handles_missing_probe() {
        assert_eq!(fmt_gib(None), "-");
        assert_eq!(fmt_gib(Some(3 << 29)), "1.50 GiB");
    }

    #[test]
    fn sweep_helper_uses_cli_settings() {
        let cli = parse(&["--threads", "2", "--seed", "5"]).unwrap();
        let sweep = cli.sweep("x");
        assert_eq!(sweep.threads(), 2);
        assert_eq!(cli.seeds(), SeedSequence::new(5));
    }

    /// Every flag `Cli::parse` matches on — read from its own source, so
    /// a new match arm cannot skip the help text — parses with a sample
    /// value and appears in both `USAGE`'s synopsis and its flag table.
    #[test]
    fn usage_lists_every_accepted_flag() {
        let samples = [
            ("--help", None),
            ("--quick", None),
            ("--trials", Some("3")),
            ("--threads", Some("2")),
            ("--shards", Some("2")),
            ("--store", Some("ram")),
            ("--prefetch", Some("off")),
            ("--sweep-only", None),
            ("--seed", Some("7")),
            ("--json", Some("out.json")),
        ];
        let src = include_str!("lib.rs");
        let parse_fn =
            &src[src.find("pub fn parse<I>").unwrap()..src.find("pub fn cell_trials").unwrap()];
        let mut accepted: Vec<&str> = parse_fn
            .split('"')
            .filter(|t| {
                t.starts_with("--") && t[2..].chars().all(|c| c.is_ascii_lowercase() || c == '-')
            })
            .collect();
        accepted.sort_unstable();
        accepted.dedup();
        let mut listed: Vec<&str> = samples.iter().map(|&(flag, _)| flag).collect();
        listed.sort_unstable();
        assert_eq!(accepted, listed, "sample every flag Cli::parse accepts");

        let (synopsis, table) = USAGE
            .split_once("\n\n")
            .expect("synopsis, blank line, table");
        for (flag, value) in samples {
            let args: Vec<&str> = std::iter::once(flag).chain(value).collect();
            let parsed = parse(&args);
            if flag == "--help" {
                assert_eq!(parsed, Err(CliError::Help));
            } else {
                assert!(parsed.is_ok(), "{flag}: {parsed:?}");
            }
            assert!(
                synopsis.contains(&format!("[{flag}")),
                "{flag} missing from the synopsis"
            );
            assert!(
                table.lines().any(|l| l.trim_start().starts_with(flag)),
                "{flag} missing from the flag table"
            );
        }
    }

    /// An explicit `--trials` beats the floors/caps binaries apply to
    /// the default count (e.g. E3's `.max(300)` signal floor).
    #[test]
    fn explicit_trials_win_over_binary_adjustments() {
        let default_cli = parse(&["--quick"]).unwrap();
        assert_eq!(default_cli.cell_trials(default_cli.trials.max(300)), 300);
        let explicit = parse(&["--trials", "10"]).unwrap();
        assert_eq!(explicit.cell_trials(explicit.trials.max(300)), 10);
        assert_eq!(explicit.cell_trials(explicit.trials.min(5)), 10);
    }
}
