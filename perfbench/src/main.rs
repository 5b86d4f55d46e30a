//! The randcast repository benchmark.
//!
//! ```text
//! perfbench --workload <ram-batch|oc-disk|paper-cells> --seed <n> --seconds <s> --trace <0|1>
//!           [--trial-seed <n>]
//! ```
//!
//! Runs one workload through the randcast crates' public entry points,
//! checks its outputs, and prints one JSON object as the last line of
//! standard output: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. `--seed` makes the inputs (graphs) and, unless
//! `--trial-seed` gives a second seed, the trial coins too. Traced runs
//! also write their spans to `perfbench/out/spans-<workload>-<seed>.json`.

mod layers;
mod probe;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Args, Workload};

const USAGE: &str = "usage: perfbench --workload <ram-batch|oc-disk|paper-cells> --seed <n> \
                     --seconds <s> --trace <0|1> [--trial-seed <n>]";

fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut trial_seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trial-seed" => trial_seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        trial_seed: trial_seed.unwrap_or(seed),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = workloads::run(&args);

    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(&run.rec.spans())));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    let mut metrics = String::new();
    for (name, unit, value) in &run.metrics {
        eprintln!(
            "{name:<32} {:>16} {unit}",
            value.map_or_else(|| "missing".into(), |v| format!("{v:.6}"))
        );
        if let Some(v) = value {
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed,
    );
    ExitCode::SUCCESS
}
