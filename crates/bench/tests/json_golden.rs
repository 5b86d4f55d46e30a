//! Golden-file and CLI-contract tests against real experiment binaries.
//!
//! Runs an experiment binary with `--quick --threads 2 --seed 2005
//! --json …` as a subprocess and checks that the emitted JSON (with the
//! one nondeterministic field, `wall_ms`, normalized to zero) is
//! byte-identical to a committed golden file — locking in the schema,
//! the writer's format, and the determinism of the sweep outcomes from
//! the root seed. Thirteen reports are pinned:
//!
//! * `exp_e1_simple_omission`, whose 36 cells are all `SimplePlan` on
//!   the trait-object message-passing and radio engines, so a change to
//!   the Simple automaton moves a report;
//! * `exp_e4_datalink`, the cheapest Monte-Carlo binary, through the
//!   trait-object message-passing engine;
//! * `exp_decay_baseline`, whose Decay cells run on the trait-object
//!   radio engine, so every reception moves their `mean_rounds`;
//! * `exp_e5_radio_threshold`, whose near-threshold cells run the
//!   trait-object radio engine under the lie-or-jam adversary;
//! * `exp_scale_radio --trials 64`, six one-block cells of the batched
//!   Decay kernel, so a change that moves a 64-lane block and its lane
//!   replay together still fails a test;
//! * `exp_scale_flood`, `exp_scale_radio` and `exp_scale_simple` at
//!   `--trials 72`, whose cells each run one 64-lane block plus an
//!   8-lane tail block under omission, so the masked tail of every
//!   kernel's omission pass is in a report;
//! * `exp_scale_malicious --trials 72`, whose fast cells each run one
//!   64-lane block plus 8 tail lanes under malicious fault models, so
//!   radio's value-plane passes and flood's and Simple's malicious
//!   blocks and lanes are all in the report;
//! * `exp_scale_xl`, whose out-of-core rows run a scalar lane and a
//!   64-lane block of every kernel over a 3-segment disk store — the
//!   only pin on the graph-variant flood passes;
//! * `exp_e6_flood_time`, `exp_e7_kucera` and `exp_ablations`, whose
//!   Monte-Carlo cells run the trait-object `FloodPlan`, Kučera's tree
//!   lift and `SimplePlan` on the message-passing engine, so a change
//!   to the spanning tree those plans read moves a report.

use std::path::{Path, PathBuf};
use std::process::Command;

use randcast_stats::report::SweepReport;

const E4: &str = env!("CARGO_BIN_EXE_exp_e4_datalink");

fn run_binary(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn normalized(mut report: SweepReport) -> SweepReport {
    for cell in &mut report.cells {
        cell.wall_ms = 0.0;
    }
    report
}

/// Runs `bin --quick --threads 2 --seed 2005 <extra> --json <tmp>` and
/// parses the report it wrote.
fn quick_report(bin: &str, extra: &[&str]) -> SweepReport {
    let json_path = std::env::temp_dir().join(format!(
        "randcast_golden_{}_{}.json",
        Path::new(bin).file_name().unwrap().to_string_lossy(),
        std::process::id()
    ));
    let mut args = vec!["--quick", "--threads", "2", "--seed", "2005"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--json", json_path.to_str().unwrap()]);
    let out = run_binary(bin, &args);
    assert!(out.status.success(), "binary failed: {out:?}");

    let text = std::fs::read_to_string(&json_path).expect("read emitted json");
    let _ = std::fs::remove_file(&json_path);
    SweepReport::from_json(&text).expect("emitted JSON parses")
}

/// Asserts `report` equals `tests/golden/<golden>` with `wall_ms`
/// zeroed on both sides.
fn assert_matches_golden(report: SweepReport, golden: &str) {
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let golden_text = std::fs::read_to_string(&golden_path).expect("read golden file");
    let expected = SweepReport::from_json(&golden_text).expect("golden JSON parses");

    assert_eq!(
        normalized(report).to_json(),
        normalized(expected).to_json(),
        "emitted report diverged from tests/golden/{golden} \
         (if the change is intentional, regenerate the golden file)"
    );
}

#[test]
fn quick_json_output_matches_the_golden_file() {
    let report = quick_report(E4, &[]);

    // Schema sanity before byte comparison.
    assert_eq!(report.experiment, "e4_datalink");
    assert_eq!(report.cells.len(), 32, "4 p × 4 m × 2 bits");
    for cell in &report.cells {
        let keys: Vec<&str> = cell.params.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["p", "m", "bit", "analytic err"]);
        assert_eq!(cell.trials, 60);
        assert!(cell.successes <= cell.trials);
    }

    assert_matches_golden(report, "exp_e4_quick.json");
}

#[test]
fn simple_omission_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_e1_simple_omission"), &[]);

    assert_eq!(report.experiment, "e1_simple_omission");
    assert_eq!(report.cells.len(), 36, "6 graphs × 3 p × 2 models");
    for cell in &report.cells {
        assert_eq!(cell.trials, 60);
        assert!(cell.successes <= cell.trials);
    }

    assert_matches_golden(report, "exp_e1_quick.json");
}

#[test]
fn decay_baseline_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_decay_baseline"), &[]);

    assert_eq!(report.experiment, "decay_baseline");
    assert_eq!(report.cells.len(), 12);
    for cell in &report.cells {
        assert_eq!(cell.trials, 60);
        assert!(cell.successes <= cell.trials);
    }

    assert_matches_golden(report, "exp_decay_baseline_quick.json");
}

#[test]
fn radio_threshold_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_e5_radio_threshold"), &[]);

    assert_eq!(report.experiment, "e5_radio_threshold");
    assert_eq!(
        report.cells.len(),
        39,
        "6 analytic + 30 threshold + 3 Simple cells"
    );
    for cell in &report.cells {
        assert!(cell.successes <= cell.trials);
    }

    assert_matches_golden(report, "exp_e5_quick.json");
}

#[test]
fn batched_radio_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_scale_radio"), &["--trials", "64"]);

    assert_eq!(report.experiment, "scale_radio");
    assert_eq!(report.cells.len(), 6, "3 families × 2 sizes");
    for cell in &report.cells {
        assert_eq!(cell.trials, 64, "one whole 64-lane block per cell");
        assert!(cell.successes <= cell.trials);
    }

    assert_matches_golden(report, "exp_scale_radio_quick_t64.json");
}

/// The `--trials 72` report of a scale binary: every cell is one
/// 64-lane block plus an 8-lane tail block.
fn tail_report(bin: &str, experiment: &str, cells: usize) -> SweepReport {
    let report = quick_report(bin, &["--trials", "72"]);
    assert_eq!(report.experiment, experiment);
    assert_eq!(report.cells.len(), cells);
    for cell in &report.cells {
        assert_eq!(cell.trials, 72, "one 64-lane block plus 8 tail lanes");
        assert!(cell.successes <= cell.trials);
    }
    report
}

#[test]
fn flood_tail_quick_json_matches_the_golden_file() {
    let report = tail_report(env!("CARGO_BIN_EXE_exp_scale_flood"), "scale_flood", 6);
    assert_matches_golden(report, "exp_scale_flood_quick_t72.json");
}

#[test]
fn radio_tail_quick_json_matches_the_golden_file() {
    let report = tail_report(env!("CARGO_BIN_EXE_exp_scale_radio"), "scale_radio", 6);
    assert_matches_golden(report, "exp_scale_radio_quick_t72.json");
}

#[test]
fn simple_tail_quick_json_matches_the_golden_file() {
    let report = tail_report(env!("CARGO_BIN_EXE_exp_scale_simple"), "scale_simple", 11);
    assert_matches_golden(report, "exp_scale_simple_quick_t72.json");
}

#[test]
fn malicious_quick_json_matches_the_golden_file() {
    let report = tail_report(
        env!("CARGO_BIN_EXE_exp_scale_malicious"),
        "scale_malicious",
        11,
    );
    assert_matches_golden(report, "exp_scale_malicious_quick_t72.json");
}

#[test]
fn out_of_core_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_scale_xl"), &[]);

    assert_eq!(report.experiment, "scale_xl");
    assert_eq!(
        report.cells.len(),
        9,
        "3 sweep rows + a lane and a block per kernel out of core"
    );

    assert_matches_golden(report, "exp_scale_xl_quick.json");
}

#[test]
fn flood_time_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_e6_flood_time"), &[]);
    assert_eq!(report.experiment, "e6_flood_time");
    assert_eq!(report.cells.len(), 9);
    assert_matches_golden(report, "exp_e6_quick.json");
}

#[test]
fn kucera_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_e7_kucera"), &[]);
    assert_eq!(report.experiment, "e7_kucera");
    assert_eq!(report.cells.len(), 34);
    assert_matches_golden(report, "exp_e7_quick.json");
}

#[test]
fn ablations_quick_json_matches_the_golden_file() {
    let report = quick_report(env!("CARGO_BIN_EXE_exp_ablations"), &[]);
    assert_eq!(report.experiment, "ablations");
    assert_eq!(report.cells.len(), 17);
    assert_matches_golden(report, "exp_ablations_quick.json");
}

#[test]
fn unknown_flags_abort_with_usage_before_any_work() {
    let out = run_binary(E4, &["--qiuck"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(
        String::from_utf8_lossy(&out.stdout).is_empty(),
        "must abort before printing any experiment output"
    );
}

#[test]
fn help_exits_zero_with_usage() {
    let out = run_binary(E4, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}
