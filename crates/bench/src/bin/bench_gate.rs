//! Distills raw `cargo bench` output into the perf-trajectory JSON
//! artifact and gates it against a committed baseline.
//!
//! ```sh
//! cargo bench -p randcast_bench --bench engine_throughput | \
//!     bench_gate --groups flood_engines,radio_engines,mp_directed_rounds,simple_engines \
//!                --baseline crates/bench/baseline/BENCH_PR5.json \
//!                --out out/BENCH_PR5.json
//! ```
//!
//! Reads the bench transcript from stdin, keeps the benchmarks of the
//! requested criterion groups, writes the distilled
//! [`BenchReport`] to `--out`, and
//! — when `--baseline` is given — **fails (exit 1) if any baseline
//! benchmark is missing or slower than `--max-ratio` (default 2×)**.
//! New benchmarks are allowed; the trajectory grows. Without
//! `--baseline` (seeding a fresh trajectory) the gate always passes.
//!
//! `--bar SCALAR:BATCH:SCALE:MIN` (repeatable) additionally enforces a
//! **same-run** per-trial speedup bar: the `BATCH` benchmark runs
//! `SCALE` trials per iteration, and `SCALAR·SCALE/BATCH ≥ MIN` must
//! hold *within this transcript*. Both rows come from one run, so the
//! bar is immune to the machine-wide throughput drift that cross-run
//! baseline ratios absorb into `--max-ratio`. Bars apply even on
//! seeding runs (no `--baseline`).

use std::io::Read as _;

use randcast_stats::report::BenchReport;

const USAGE: &str = "usage: bench_gate [--groups a,b,c] [--baseline FILE.json] \
[--out FILE.json] [--max-ratio R] [--bar SCALAR:BATCH:SCALE:MIN]...  <  cargo-bench-output";

/// One `--bar SCALAR:BATCH:SCALE:MIN` same-run speedup requirement.
struct Bar {
    scalar: String,
    batch: String,
    scale: f64,
    min_ratio: f64,
}

fn parse_bar(raw: &str) -> Option<Bar> {
    let parts: Vec<&str> = raw.split(':').collect();
    let [scalar, batch, scale, min_ratio] = parts.as_slice() else {
        return None;
    };
    Some(Bar {
        scalar: (*scalar).to_owned(),
        batch: (*batch).to_owned(),
        scale: scale.parse().ok()?,
        min_ratio: min_ratio.parse().ok()?,
    })
}

fn main() {
    let mut groups: Option<Vec<String>> = None;
    let mut baseline_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut max_ratio = 2.0f64;
    let mut bars: Vec<Bar> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--groups" => {
                groups = Some(value("--groups").split(',').map(str::to_owned).collect());
            }
            "--baseline" => baseline_path = Some(value("--baseline")),
            "--out" => out_path = Some(value("--out")),
            "--max-ratio" => {
                let raw = value("--max-ratio");
                max_ratio = raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --max-ratio `{raw}`\n\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--bar" => {
                let raw = value("--bar");
                bars.push(parse_bar(&raw).unwrap_or_else(|| {
                    eprintln!(
                        "error: invalid --bar `{raw}` (want SCALAR:BATCH:SCALE:MIN)\n\n{USAGE}"
                    );
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let mut raw = String::new();
    std::io::stdin()
        .read_to_string(&mut raw)
        .expect("read bench output from stdin");
    let mut current = BenchReport::from_bench_lines(&raw);
    if let Some(groups) = &groups {
        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        current.retain_groups(&refs);
    }
    if current.benches.is_empty() {
        eprintln!("error: no benchmarks found on stdin (expected `<label> <ns> ns/iter` lines)");
        std::process::exit(1);
    }
    for b in &current.benches {
        println!("{:<55} {:>14.1} ns/iter", b.name, b.ns_per_iter);
    }

    if let Some(path) = &out_path {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
            }
        }
        std::fs::write(path, current.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path} ({} benches)", current.benches.len());
    }

    let mut failed = false;
    for bar in &bars {
        match current.check_bar(&bar.scalar, &bar.batch, bar.scale, bar.min_ratio) {
            Ok(ratio) => println!(
                "bar OK: {} is {ratio:.1}x per trial vs {} (min {}x)",
                bar.batch, bar.scalar, bar.min_ratio
            ),
            Err(v) => {
                eprintln!("BAR MISSED: {v}");
                failed = true;
            }
        }
    }

    if let Some(path) = &baseline_path {
        let baseline_text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = BenchReport::from_json(&baseline_text)
            .unwrap_or_else(|e| panic!("invalid baseline {path}: {e}"));
        let violations = current.gate_against(&baseline, max_ratio);
        if violations.is_empty() {
            println!(
                "gate OK: {} baseline benches within {max_ratio}x",
                baseline.benches.len()
            );
        } else {
            for v in &violations {
                eprintln!("REGRESSION: {v}");
            }
            failed = true;
        }
    } else {
        eprintln!("no --baseline given: seeding run, baseline gate passes vacuously");
    }
    if failed {
        std::process::exit(1);
    }
}
