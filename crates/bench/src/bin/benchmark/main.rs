//! `benchmark` — the repository benchmark: four seeded workloads, every
//! end-to-end metric named with its clock, a separate traced run for the
//! per-layer numbers, and `compare` for the verdict between two commits.
//! `README.md` in this directory describes the workloads and metrics.
//!
//! ```text
//! benchmark [run|trace] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! benchmark compare <parent-runs> <change-runs>
//! ```
//!
//! A run prints `#` lines describing each metric, then one JSON result
//! object as its last line. It exits non-zero when an output check
//! fails.

mod compare;
mod host;
mod json;
mod probe;
mod rig;
mod run;
mod stats;

use std::process::ExitCode;

use json::Json;
use rig::Workload;
use run::Metric;

const USAGE: &str =
    "usage: benchmark [run|trace] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
       benchmark compare <parent-runs> <change-runs>
workloads: ycsb_a_foc, hash_big_fof, xshard_group, outage_resume";

/// Where a traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = "bench-traces";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_run(args: &[String], traced: Option<bool>) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced_flag = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                traced_flag = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let traced = match (traced, traced_flag) {
        (Some(a), Some(b)) if a != b => return Err("--trace contradicts the subcommand".to_owned()),
        (Some(t), _) | (None, Some(t)) => t,
        (None, None) => false,
    };
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn describe(m: &Metric) {
    println!(
        "# {:<34} {:>22} {:<6} clock={}",
        m.name, m.value, m.unit, m.clock
    );
}

fn bench(a: &RunArgs) -> ExitCode {
    let mode = if a.traced { "trace" } else { "run" };
    println!(
        "# benchmark workload={} seed={} seconds={} mode={mode}",
        a.workload.name(),
        a.seed,
        a.seconds
    );
    let outcome = match run::run(a.workload, a.seed, a.seconds, a.traced, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {} seed {}: {e}", a.workload.name(), a.seed);
            return ExitCode::FAILURE;
        }
    };
    outcome.end_to_end.iter().for_each(describe);
    outcome.per_layer.iter().for_each(describe);
    if a.traced {
        let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", a.workload.name(), a.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, outcome.probe.spans_jsonl()));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("# spans: {} in {path}", outcome.probe.spans().len());
    }
    for v in &outcome.violations {
        eprintln!("benchmark: output check failed: {v}");
    }
    let correct = outcome.violations.is_empty();
    let shown = if a.traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics = Json::obj(shown.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (traced, rest) = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("run") => (Some(false), &args[1..]),
        Some("trace") => (Some(true), &args[1..]),
        _ => (None, &args[..]),
    };
    match parse_run(rest, traced) {
        Ok(a) => bench(&a),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
