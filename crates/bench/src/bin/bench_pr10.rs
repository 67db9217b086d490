//! `bench_pr10` — group-decided 2PC: batched decision records and
//! concurrent coordinators sharing the decision log.
//!
//! Measures what PR 10 buys on the coordinator path: sealing N buffered
//! commit decisions under a *single* fenced group record instead of N
//! fenced records (the decision-fence amortization), and overlapping
//! independent transactions across concurrent coordinators on the
//! simulated clock (only the slowest coordinator in a group pays
//! unrebated time). Emits machine-readable JSON; `BENCH_PR10.json` at
//! the repository root records the numbers.
//!
//! ```text
//! cargo run --release -p wsp-bench --features bench --bin bench_pr10 -- run
//! cargo run --release -p wsp-bench --features bench --bin bench_pr10 -- run --quick
//! cargo run --release -p wsp-bench --features bench --bin bench_pr10 -- check BENCH_PR10.json
//! ```
//!
//! * `run` sweeps the decision group size over both flush-on-commit
//!   configurations at 100 % cross-shard, then sweeps the coordinator
//!   count at the headline group size.
//! * `check` re-measures the two gate ratios and fails (exit 1) below
//!   their *hard floors*: group-32 sealing must keep at least 2.0x the
//!   group-1 coordinator-path throughput, and four coordinators must
//!   reach at least 1.8x the single-coordinator simulated wall clock.

use std::process::ExitCode;
use std::time::Instant;

use wsp_microbench::json::Json;
use wsp_pheap::HeapConfig;
use wsp_units::ByteSize;
use wsp_workloads::CrossShardKvBench;

/// Decision group sizes the sweep exercises (1 = one fenced decision
/// record per transfer, the PR 6 protocol).
const GROUPS: [usize; 4] = [1, 4, 8, 32];

/// Coordinator counts the concurrency sweep exercises.
const COORDS: [usize; 3] = [1, 2, 4];

/// Hard floor for the group-batching gate: group-32 sealing must keep
/// at least this multiple of the group-1 coordinator-path throughput.
const GROUP_FLOOR: f64 = 2.0;

/// Hard floor for the concurrency gate: four coordinators must beat
/// one by at least this multiple on the simulated wall clock.
const COORD_FLOOR: f64 = 1.8;

/// Best-of reps for host wall-clock numbers (simulated numbers are
/// deterministic and measured once).
const HOST_REPS: usize = 3;

/// The headline group size the gates are recorded at.
const GROUP: usize = 32;

fn xs_bench(quick: bool, coordinators: usize, decision_group: usize) -> CrossShardKvBench {
    CrossShardKvBench {
        // Eight shards so four coordinators' two-participant transfers
        // can genuinely overlap (two txns can run concurrently on four
        // shards at best — the shards, not the pool, would be the
        // bottleneck).
        shards: 8,
        // A deep account pool keeps buffered write sets disjoint long
        // enough for real groups to form: conflicts drain the open
        // group early, so a shallow pool would re-serialize sealing.
        accounts_per_shard: 64,
        transfers: if quick { 200 } else { 1_000 },
        // Every transfer spans two shards: the full 2PC price.
        cross_shard_pct: 1.0,
        initial_balance: 10_000,
        region: ByteSize::mib(1),
        lose_shard: None,
        in_doubt_tail: false,
        coordinators,
        decision_group,
    }
}

/// One measured cell of the sweep.
struct Cell {
    /// Simulated ns spent on the shared decision log alone.
    coordinator_ns: f64,
    /// Transfers per simulated coordinator-path second.
    coord_txns_per_sec: f64,
    /// Simulated wall clock (slowest coordinator).
    wall_ns: f64,
    /// Fenced group records written.
    decision_groups: usize,
    /// Commits those records covered.
    committed: usize,
}

fn measure(quick: bool, config: HeapConfig, coordinators: usize, group: usize) -> Cell {
    let report = xs_bench(quick, coordinators, group)
        .run(config, 42)
        .expect("transfer run");
    assert!(report.balance_conserved, "{config}: balance must conserve");
    let coordinator_ns = report.coordinator_ns.as_secs_f64() * 1e9;
    Cell {
        coordinator_ns,
        coord_txns_per_sec: report.transfers as f64 / (coordinator_ns / 1e9).max(1e-12),
        wall_ns: report.wall.as_secs_f64() * 1e9,
        decision_groups: report.decision_groups,
        committed: report.committed,
    }
}

/// Host wall-clock transfers/sec for one cell (best of [`HOST_REPS`]).
fn host_txns_per_sec(quick: bool, config: HeapConfig, coordinators: usize, group: usize) -> f64 {
    let bench = xs_bench(quick, coordinators, group);
    (0..HOST_REPS)
        .map(|_| {
            let start = Instant::now();
            bench.run(config, 42).expect("transfer run");
            bench.transfers as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0f64, f64::max)
}

/// Gate quantity 1: coordinator-path throughput multiple of the
/// headline group size over group 1, both on the pool path (two
/// coordinators) so only the group size differs.
fn gate_group_batching(quick: bool) -> f64 {
    let g1 = measure(quick, HeapConfig::FocUndo, 2, 1);
    let gn = measure(quick, HeapConfig::FocUndo, 2, GROUP);
    gn.coord_txns_per_sec / g1.coord_txns_per_sec
}

/// Gate quantity 2: simulated-wall-clock speedup of four coordinators
/// over one, at the headline group size.
fn gate_coordinator_speedup(quick: bool) -> f64 {
    let w1 = measure(quick, HeapConfig::FocUndo, 1, GROUP);
    let w4 = measure(quick, HeapConfig::FocUndo, 4, GROUP);
    w1.wall_ns / w4.wall_ns
}

fn measure_group_sweep(quick: bool) -> Json {
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let mut rows = Vec::new();
        for group in GROUPS {
            let cell = measure(quick, config, 2, group);
            let host = host_txns_per_sec(quick, config, 2, group);
            eprintln!(
                "  group {:<9} size {group:>3}  {:>12.0} txn/s coord-path, {:>4} records for {:>4} commits, {host:>10.0} txn/s host",
                config.label(),
                cell.coord_txns_per_sec,
                cell.decision_groups,
                cell.committed,
            );
            rows.push(Json::object([
                ("decision_group", Json::from(group as u64)),
                ("sim_coordinator_ns", Json::from(cell.coordinator_ns)),
                ("coord_txns_per_sec", Json::from(cell.coord_txns_per_sec)),
                ("decision_records", Json::from(cell.decision_groups as u64)),
                ("committed", Json::from(cell.committed as u64)),
                ("host_txns_per_sec", Json::from(host)),
            ]));
        }
        per_config.push((config.label().to_owned(), Json::Arr(rows)));
    }
    let bench = xs_bench(quick, 2, 1);
    Json::object([
        ("shards", Json::from(bench.shards as u64)),
        ("transfers", Json::from(bench.transfers as u64)),
        ("accounts_per_shard", Json::from(bench.accounts_per_shard as u64)),
        ("coordinators", Json::from(2u64)),
        ("cross_shard_pct", Json::from(100u64)),
        ("seed", Json::from(42u64)),
        ("sweep", Json::Obj(per_config)),
    ])
}

fn measure_coordinator_sweep(quick: bool) -> Json {
    let group = GROUP;
    let base = measure(quick, HeapConfig::FocUndo, COORDS[0], group);
    let mut rows = Vec::new();
    for coordinators in COORDS {
        let cell = measure(quick, HeapConfig::FocUndo, coordinators, group);
        let speedup = base.wall_ns / cell.wall_ns;
        eprintln!(
            "  pool  {coordinators} coordinator(s)  wall {:>12.0} ns sim, speedup {speedup:.2}x",
            cell.wall_ns
        );
        rows.push(Json::object([
            ("coordinators", Json::from(coordinators as u64)),
            ("sim_wall_ns", Json::from(cell.wall_ns)),
            ("speedup_vs_one", Json::from(speedup)),
        ]));
    }
    Json::object([
        ("decision_group", Json::from(group as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

fn run_suite(quick: bool) -> Json {
    eprintln!(
        "bench_pr10: running {} suite (headline group {})",
        if quick { "quick" } else { "full" },
        GROUP
    );
    let group_sweep = measure_group_sweep(quick);
    let coordinator_sweep = measure_coordinator_sweep(quick);

    eprintln!("bench_pr10: measuring quick-mode gate quantities");
    let gate = Json::object([
        ("group_batching_speedup", Json::from(gate_group_batching(true))),
        ("group_batching_floor", Json::from(GROUP_FLOOR)),
        (
            "coordinator_speedup",
            Json::from(gate_coordinator_speedup(true)),
        ),
        ("coordinator_floor", Json::from(COORD_FLOOR)),
    ]);

    Json::object([
        ("schema", Json::from("wsp-bench-pr10/v1")),
        ("mode", Json::from(if quick { "quick" } else { "full" })),
        ("group_sweep", group_sweep),
        ("coordinator_sweep", coordinator_sweep),
        ("gate", gate),
        (
            "notes",
            Json::Arr(vec![
                Json::from(
                    "Group-decided commit buffers decided gtxids and seals them under one \
                     fenced GroupDecision record: N transactions pay one decision fence \
                     instead of N. coordinator_ns charges only the shared decision log, so \
                     the batching ratio isolates exactly the amortized fence.",
                ),
                Json::from(
                    "Transfers whose accounts collide with an open group drain it early to \
                     keep concurrently-prepared write sets disjoint (the undo flavour \
                     applies prepares in place), so recorded groups are shorter than the \
                     configured size; the gate ratio already includes that cost.",
                ),
                Json::from(
                    "Concurrent coordinators are modeled on the simulated clock: each owns \
                     a clock, shards and the shared log are resources with availability \
                     times, and the pool wall clock is the slowest coordinator. The \
                     speedup is bounded by shard contention (two participants per \
                     transfer), not by the shared decision log.",
                ),
            ]),
        ),
    ])
}

/// The `check` subcommand: both gate ratios against their hard floors
/// (the recorded values are informational — the floors are absolute).
fn check_against(baseline_path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_pr10: cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_pr10: {baseline_path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(gate) = doc.get("gate") else {
        eprintln!("bench_pr10: {baseline_path} has no gate section");
        return ExitCode::FAILURE;
    };

    let mut failed = false;

    let recorded_batching = gate
        .get("group_batching_speedup")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let batching = gate_group_batching(true);
    let verdict = if batching >= GROUP_FLOOR { "ok" } else { "REGRESSED" };
    eprintln!(
        "  gate group-batching  current {batching:.2}x, recorded {recorded_batching:.2}x, hard floor {GROUP_FLOOR:.1}x  [{verdict}]"
    );
    if batching < GROUP_FLOOR {
        failed = true;
    }

    let recorded_speedup = gate
        .get("coordinator_speedup")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let speedup = gate_coordinator_speedup(true);
    let verdict = if speedup >= COORD_FLOOR { "ok" } else { "REGRESSED" };
    eprintln!(
        "  gate coordinators    current {speedup:.2}x, recorded {recorded_speedup:.2}x, hard floor {COORD_FLOOR:.1}x  [{verdict}]"
    );
    if speedup < COORD_FLOOR {
        failed = true;
    }

    if failed {
        eprintln!("bench_pr10: group-decided 2PC gate failed against {baseline_path}");
        ExitCode::FAILURE
    } else {
        eprintln!("bench_pr10: group-decided 2PC gate passed");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let quick = args.iter().any(|a| a == "--quick");
            print!("{}", run_suite(quick).to_string_pretty());
            ExitCode::SUCCESS
        }
        Some("check") => match args.get(1) {
            Some(path) => check_against(path),
            None => {
                eprintln!("usage: bench_pr10 check <BENCH_PR10.json>");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: bench_pr10 run [--quick] | bench_pr10 check <baseline.json>");
            ExitCode::FAILURE
        }
    }
}
