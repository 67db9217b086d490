//! `compare <parent-runs> <change-runs>`: the benchmark's verdict rule
//! applied to two directories of saved run outputs, one file per run
//! (the run's standard output: its `# benchmark` header line and the
//! JSON result as the last line). Runs pair up by seed.
//!
//! Per workload and end-to-end metric, with the bound from
//! `BENCHMARK.json`:
//! * `unresolved` — the parent's own spread (interquartile range over
//!   median) exceeds the bound, and not every change run reads better
//!   than every parent run;
//! * `worse` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `better` — the change wins at least 9 in 10 pairs (ties count for
//!   neither) and the medians differ by more than the parent's
//!   interquartile range;
//! * `same` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{median, quartiles};

/// One end-to-end metric's rule, from `BENCHMARK.json`.
struct Rule {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Runs of one side: workload → seed → metric → value.
type Runs = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn load_rules(path: &Path) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Reads every run file in `dir`.
fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let header = text.lines().find_map(|l| l.strip_prefix("# benchmark "));
        let field = |key: &str| {
            header.and_then(|h| h.split_whitespace().find_map(|kv| kv.strip_prefix(key)))
        };
        let (Some(workload), Some(seed)) = (
            field("workload="),
            field("seed=").and_then(|s| s.parse().ok()),
        ) else {
            eprintln!(
                "compare: skipping {} (no `# benchmark` header)",
                path.display()
            );
            continue;
        };
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result =
            Json::parse(last).map_err(|e| format!("{}: last line: {e}", path.display()))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: the run failed its output checks",
                path.display()
            ));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_owned())
            .or_default()
            .insert(seed, metrics);
    }
    Ok(runs)
}

/// The verdict for one workload and metric, and the pairs the change
/// won; `pairs` holds `(parent, change)` values of runs with the same
/// seed.
fn verdict(
    rule: &Rule,
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
) -> (&'static str, usize) {
    let better = |a: f64, b: f64| if rule.higher_is_better { a > b } else { a < b };
    let [pq1, pm, pq3] = quartiles(parent);
    let cm = median(change);
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let spread = (pq3 - pq1) / scale;
    let worse_by = if rule.higher_is_better {
        pm - cm
    } else {
        cm - pm
    } / scale;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let verdict = if spread > rule.bound && !all_better {
        "unresolved"
    } else if worse_by > rule.bound {
        "worse"
    } else if wins * 10 >= pairs.len() * 9
        && !pairs.is_empty()
        && better(cm, pm)
        && (cm - pm).abs() > pq3 - pq1
    {
        "better"
    } else {
        "same"
    };
    (verdict, wins)
}

fn compare(parent_dir: &Path, change_dir: &Path, spec: &Path) -> Result<bool, String> {
    let rules = load_rules(spec)?;
    let parent = load_runs(parent_dir)?;
    let change = load_runs(change_dir)?;
    println!(
        "{:<14} {:<18} {:>36} {:>36} {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "change",
        "wins",
        "bound"
    );
    let mut regressed = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload:<14} (no change runs)");
            continue;
        };
        for rule in &rules {
            let values = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                runs.values()
                    .filter_map(|m| m.get(&rule.name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|(seed, pm)| {
                    Some((*pm.get(&rule.name)?, *c_runs.get(seed)?.get(&rule.name)?))
                })
                .collect();
            let (v, wins) = verdict(rule, &p, &c, &pairs);
            regressed |= v == "worse";
            let [pq1, pm, pq3] = quartiles(&p);
            let [cq1, cm, cq3] = quartiles(&c);
            println!(
                "{workload:<14} {:<18} {:>36} {:>36} {:>+7.2}% {:>6} {:>6}  {v}",
                rule.name,
                format!("{pm:.6e} [{pq1:.4e}, {pq3:.4e}]"),
                format!("{cm:.6e} [{cq1:.4e}, {cq3:.4e}]"),
                (cm - pm) / pm.abs().max(f64::MIN_POSITIVE) * 100.0,
                format!("{wins}/{}", pairs.len()),
                rule.bound,
            );
        }
    }
    Ok(regressed)
}

/// Runs from the repository root, where `BENCHMARK.json` holds the
/// bounds.
pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: benchmark compare <parent-runs> <change-runs>");
        return ExitCode::from(2);
    };
    match compare(
        Path::new(parent),
        Path::new(change),
        Path::new("BENCHMARK.json"),
    ) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule {
            name: "m".to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let pair = |c: &[f64]| -> Vec<(f64, f64)> {
            parent.iter().copied().zip(c.iter().copied()).collect()
        };
        // 20 % slower on a lower-is-better metric with a 10 % bound.
        let slow: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&rule(false, 0.1), &parent, &slow, &pair(&slow)),
            ("worse", 0)
        );
        // Every run 5 % faster: better.
        let fast: Vec<f64> = parent.iter().map(|p| p * 0.95).collect();
        assert_eq!(
            verdict(&rule(false, 0.1), &parent, &fast, &pair(&fast)),
            ("better", 10)
        );
        // The same numbers: same.
        assert_eq!(
            verdict(&rule(true, 0.1), &parent, &parent, &pair(&parent)),
            ("same", 0)
        );
        // A parent spread wider than the bound leaves it unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + f64::from(i) * 10.0).collect();
        assert_eq!(
            verdict(&rule(true, 0.1), &noisy, &noisy, &[]).0,
            "unresolved"
        );
    }
}
