//! `bench` — the one driver for the recorded benchmark baselines.
//!
//! Each scenario in the registry measures one subject and is recorded in
//! one `BENCH_PR*.json` file at the repository root. A file's `gate`
//! object holds the quick-scale values its gates compare against.
//!
//! ```text
//! cargo run --release -p wsp-bench --bin bench -- run <scenario> [--quick]
//! cargo run --release -p wsp-bench --bin bench -- check [BENCH_PR*.json ...]
//! cargo run --release -p wsp-bench --bin bench -- trend
//! ```
//!
//! * `run` prints a scenario's report: its sections at full (or quick)
//!   scale, the `gate` object measured at quick scale, and notes.
//!   Redirect it into the scenario's file to re-record the baseline.
//! * `check` re-measures the gates of the named files, or of every
//!   registered file when none is named, and exits 1 when a value is
//!   worse than its limit: the recorded value less its clock's tolerance
//!   (10% simulated, 20% host), tightened by any hard floor or ceiling.
//!   A quantity that gates in several files is measured once.
//! * `trend` prints every recorded gate value with its clock and limit,
//!   file by file, without measuring anything.

mod measure;
mod registry;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use wsp_obs::json::Json;

use registry::{Gate, Quantity, Scenario, SCENARIOS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench run <scenario> [--quick] | bench check [BENCH_PR*.json ...] | bench trend"
    );
    eprintln!("scenarios:");
    for s in SCENARIOS {
        eprintln!("  {:<13} {} ({} gates)", s.name, s.file, s.gates.len());
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let Some(scenario) = args
                .get(1)
                .and_then(|name| SCENARIOS.iter().find(|s| s.name == name))
            else {
                return usage();
            };
            let quick = args.iter().any(|a| a == "--quick");
            print!("{}", run(scenario, quick).to_string_pretty());
            ExitCode::SUCCESS
        }
        Some("check") => check(&args[1..]),
        Some("trend") => trend(),
        _ => usage(),
    }
}

/// Each quantity's quick-scale value, measured on first use.
#[derive(Default)]
struct Measured(HashMap<Quantity, f64>);

impl Measured {
    fn get(&mut self, quantity: Quantity) -> f64 {
        *self.0.entry(quantity).or_insert_with(|| quantity.measure())
    }
}

fn run(scenario: &Scenario, quick: bool) -> Json {
    let mode = if quick { "quick" } else { "full" };
    eprintln!("bench {}: running {mode} suite", scenario.name);
    let mut doc = vec![
        ("schema".to_owned(), Json::from(scenario.schema)),
        ("mode".to_owned(), Json::from(mode)),
    ];
    for (key, section) in scenario.sections {
        doc.push(((*key).to_owned(), section(quick)));
    }
    eprintln!(
        "bench {}: measuring quick-scale gate quantities",
        scenario.name
    );
    let mut measured = Measured::default();
    let mut gate = Json::Obj(Vec::new());
    for g in scenario.gates {
        insert(&mut gate, g.key, g.quantity.json(measured.get(g.quantity)));
    }
    doc.push(("gate".to_owned(), gate));
    if !scenario.notes.is_empty() {
        let notes = scenario.notes.iter().map(|&n| Json::from(n)).collect();
        doc.push(("notes".to_owned(), Json::Arr(notes)));
    }
    Json::Obj(doc)
}

/// Sets `value` at the `/`-separated `key` path, creating objects on
/// the way.
fn insert(node: &mut Json, key: &str, value: Json) {
    let Json::Obj(pairs) = node else {
        panic!("gate key `{key}` descends into a non-object");
    };
    let Some((head, rest)) = key.split_once('/') else {
        pairs.push((key.to_owned(), value));
        return;
    };
    let index = pairs
        .iter()
        .position(|(k, _)| k == head)
        .unwrap_or_else(|| {
            pairs.push((head.to_owned(), Json::Obj(Vec::new())));
            pairs.len() - 1
        });
    insert(&mut pairs[index].1, rest, value);
}

/// The recorded value at `key` under the document's `gate` object;
/// flags read as 1 (true) or 0 (false).
fn recorded(doc: &Json, key: &str) -> Option<f64> {
    let node = key
        .split('/')
        .try_fold(doc.get("gate")?, |node, part| node.get(part))?;
    match node {
        Json::Bool(flag) => Some(f64::from(u8::from(*flag))),
        other => other.as_f64(),
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

/// One report line for a gate: file, key, clock, the current value when
/// measured, the recorded value and the limit.
fn gate_line(file: &str, gate: &Gate, recorded: f64, current: Option<f64>) -> String {
    let current = current.map_or(String::new(), |v| format!("current {}, ", num(v)));
    format!(
        "  {file:<15} {:<32} {:<4} {current}recorded {}, {} {}",
        gate.key,
        gate.quantity.clock().label(),
        num(recorded),
        gate.limit_name(),
        num(gate.limit(recorded)),
    )
}

fn num(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// The scenario each baseline path records, or every scenario's file in
/// the working directory when no path is given.
fn targets(paths: &[String]) -> Result<Vec<(&'static Scenario, String)>, String> {
    if paths.is_empty() {
        return Ok(SCENARIOS.iter().map(|s| (s, s.file.to_owned())).collect());
    }
    paths
        .iter()
        .map(|path| {
            let name = Path::new(path).file_name().and_then(|n| n.to_str());
            SCENARIOS
                .iter()
                .find(|s| Some(s.file) == name)
                .map(|s| (s, path.clone()))
                .ok_or_else(|| format!("{path}: no scenario records this file"))
        })
        .collect()
}

fn check(paths: &[String]) -> ExitCode {
    let targets = match targets(paths) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut measured = Measured::default();
    let mut failures = 0usize;
    let mut gates = 0usize;
    for (scenario, path) in targets {
        let doc = match load(Path::new(&path)) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("bench check: {e}");
                return ExitCode::FAILURE;
            }
        };
        for gate in scenario.gates {
            gates += 1;
            let Some(value) = recorded(&doc, gate.key) else {
                eprintln!("bench check: {path} records no gate value `{}`", gate.key);
                failures += 1;
                continue;
            };
            let current = measured.get(gate.quantity);
            let ok = gate.passes(current, gate.limit(value));
            eprintln!(
                "{}  [{}]",
                gate_line(scenario.file, gate, value, Some(current)),
                if ok { "ok" } else { "REGRESSED" }
            );
            failures += usize::from(!ok);
        }
    }
    if failures > 0 {
        eprintln!("bench check: {failures} of {gates} gates failed");
        ExitCode::FAILURE
    } else {
        eprintln!("bench check: all {gates} gates passed");
        ExitCode::SUCCESS
    }
}

fn trend() -> ExitCode {
    for scenario in SCENARIOS {
        let doc = match load(Path::new(scenario.file)) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("bench trend: {e}");
                return ExitCode::FAILURE;
            }
        };
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
        println!("{} ({schema}, scenario `{}`)", scenario.file, scenario.name);
        for gate in scenario.gates {
            match recorded(&doc, gate.key) {
                Some(value) => println!("{}", gate_line(scenario.file, gate, value, None)),
                None => println!("  {:<15} {:<32} (not recorded)", scenario.file, gate.key),
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> Json {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        load(&root.join(name)).expect("recorded baseline loads")
    }

    fn gate(file: &str, key: &str) -> &'static Gate {
        SCENARIOS
            .iter()
            .filter(|s| s.file == file)
            .flat_map(|s| s.gates)
            .find(|g| g.key == key)
            .unwrap_or_else(|| panic!("{file} gates `{key}`"))
    }

    #[test]
    fn every_gate_resolves_in_its_recorded_file_and_meets_its_own_limit() {
        for scenario in SCENARIOS {
            let doc = repo_file(scenario.file);
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some(scenario.schema),
                "{}",
                scenario.file
            );
            for gate in scenario.gates {
                let value = recorded(&doc, gate.key)
                    .unwrap_or_else(|| panic!("{}: no `{}`", scenario.file, gate.key));
                assert!(
                    gate.passes(value, gate.limit(value)),
                    "{}: `{}` fails its own limit",
                    scenario.file,
                    gate.key
                );
            }
        }
    }

    #[test]
    fn every_recorded_baseline_round_trips_through_json() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<_> = std::fs::read_dir(&root)
            .expect("repository root lists")
            .map(|entry| entry.expect("directory entry").file_name())
            .filter_map(|name| name.into_string().ok())
            .filter(|name| name.starts_with("BENCH_PR") && name.ends_with(".json"))
            .collect();
        files.sort();
        assert!(files.len() >= SCENARIOS.len(), "{files:?}");
        for name in files {
            let doc = repo_file(&name);
            let back = Json::parse(&doc.to_string_pretty())
                .unwrap_or_else(|e| panic!("{name} does not re-parse: {e}"));
            assert_eq!(back, doc, "{name}");
        }
    }

    #[test]
    fn scenario_names_and_files_are_unique() {
        for (i, a) in SCENARIOS.iter().enumerate() {
            for b in &SCENARIOS[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.file, b.file);
            }
        }
    }

    #[test]
    fn limits_follow_the_clock_tolerance_and_the_hard_bound() {
        let host = gate("BENCH_PR2.json", "hashtable_ops_per_sec/FoF");
        assert!((host.limit(1000.0) - 800.0).abs() < 1e-9, "0.8 x recorded");
        let floor = gate("BENCH_PR5.json", "kv_shard_scaling");
        assert!((floor.limit(4.0) - 3.6).abs() < 1e-12, "0.9 x recorded");
        assert_eq!(floor.limit(3.2), 3.0, "the hard floor wins");
        let ceiling = gate("BENCH_PR7.json", "xs_overhead_multiple");
        assert!((ceiling.limit(1.0) - 1.1).abs() < 1e-12, "1.1 x recorded");
        assert_eq!(ceiling.limit(2.0), 1.37, "the hard ceiling wins");
        assert!(ceiling.passes(1.37, 1.37) && !ceiling.passes(1.38, 1.37));
        let fixed = gate("BENCH_PR10.json", "coordinator_speedup");
        assert_eq!(fixed.limit(2.2), 1.8, "the recorded value is informational");
    }

    #[test]
    fn gate_keys_nest_into_the_recorded_layout() {
        let mut gate = Json::Obj(Vec::new());
        insert(&mut gate, "FoC + UL/triage_advantage", Json::from(1.5));
        insert(&mut gate, "FoC + UL/storm_full_coverage", Json::from(true));
        insert(&mut gate, "scaling_4t", Json::from(3.0));
        let doc = Json::object([("gate", gate)]);
        assert_eq!(recorded(&doc, "FoC + UL/triage_advantage"), Some(1.5));
        assert_eq!(recorded(&doc, "FoC + UL/storm_full_coverage"), Some(1.0));
        assert_eq!(recorded(&doc, "scaling_4t"), Some(3.0));
        assert_eq!(recorded(&doc, "FoC + STM/triage_advantage"), None);
        assert_eq!(
            doc.get("gate").and_then(Json::entries).map(<[_]>::len),
            Some(2)
        );
    }
}
