//! `bench_pr6` — cross-shard two-phase-commit throughput baseline.
//!
//! Measures what PR 6 costs: transfer throughput through the two-phase
//! epoch seal as the cross-shard fraction rises from 0 % (single-
//! participant transactions — one PREPARED record, one decision, one
//! marker) to 100 % (every transfer spans two shards), and how a 2PC
//! transfer compares with the PR 5 single-shard serving-path baseline.
//! Emits machine-readable JSON; `BENCH_PR6.json` at the repository root
//! records the numbers.
//!
//! ```text
//! cargo run --release -p wsp-bench --features bench --bin bench_pr6 -- run
//! cargo run --release -p wsp-bench --features bench --bin bench_pr6 -- run --quick
//! cargo run --release -p wsp-bench --features bench --bin bench_pr6 -- check BENCH_PR6.json
//! ```
//!
//! * `run` sweeps the cross-shard fraction over both flush-on-commit
//!   configurations and records the PR 5 single-shard KV baseline next
//!   to the 2PC numbers.
//! * `check` re-measures the quick-mode gate quantities — all-cross-
//!   shard transfer throughput and the cross-shard overhead multiple —
//!   and fails (exit 1) on regression beyond tolerance.

use std::process::ExitCode;
use std::time::Instant;

use wsp_microbench::json::Json;
use wsp_pheap::HeapConfig;
use wsp_units::ByteSize;
use wsp_workloads::{CrossShardKvBench, ShardedKvBench, YcsbMix};

/// Cross-shard percentages the sweep exercises.
const PCTS: [u64; 5] = [0, 25, 50, 75, 100];

/// Regression tolerance for `check`: simulated ratios are deterministic,
/// so a modest margin only absorbs intentional-but-small model drift.
const GATE_TOLERANCE: f64 = 0.10;

/// Best-of reps for host wall-clock numbers (simulated numbers are
/// deterministic and measured once).
const HOST_REPS: usize = 3;

fn xs_bench(quick: bool, pct: f64) -> CrossShardKvBench {
    let transfers = if quick { 200 } else { 1_000 };
    CrossShardKvBench {
        shards: 4,
        accounts_per_shard: 8,
        transfers,
        cross_shard_pct: pct,
        // Deep balances so throughput measures the protocol, not
        // overdraft admission aborts.
        initial_balance: 10_000,
        region: ByteSize::mib(1),
        lose_shard: None,
        // Every transfer runs the full protocol to its commit markers.
        in_doubt_tail: false,
        coordinators: 1,
        decision_group: 1,
    }
}

/// The PR 5 single-shard serving-path baseline the 2PC numbers are
/// compared against.
fn kv_baseline(quick: bool) -> ShardedKvBench {
    ShardedKvBench {
        shards: 1,
        clients_per_shard: 4,
        ops_per_client: if quick { 500 } else { 2_000 },
        records_per_shard: if quick { 800 } else { 2_000 },
        region: ByteSize::mib(16),
        epoch_size: 32,
        mix: YcsbMix::A,
        zipf_theta: 0.99,
        in_shard_threads: 1,
    }
}

/// Simulated transfer throughput for one (config, cross-shard-%) cell.
fn sim_txns_per_sec(quick: bool, config: HeapConfig, pct: u64) -> f64 {
    let report = xs_bench(quick, pct as f64 / 100.0)
        .run(config, 42)
        .expect("transfer run");
    assert!(report.balance_conserved, "{config}: balance must conserve");
    report.txns_per_sec
}

/// Host wall-clock transfers/sec for one cell (best of [`HOST_REPS`]).
fn host_txns_per_sec(quick: bool, config: HeapConfig, pct: u64) -> f64 {
    let bench = xs_bench(quick, pct as f64 / 100.0);
    (0..HOST_REPS)
        .map(|_| {
            let start = Instant::now();
            bench.run(config, 42).expect("transfer run");
            bench.transfers as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0f64, f64::max)
}

/// Gate quantity 1: all-cross-shard simulated transfer throughput at
/// quick scale, flush-on-commit undo.
fn gate_xs_throughput() -> f64 {
    sim_txns_per_sec(true, HeapConfig::FocUndo, 100)
}

/// Gate quantity 2: the cross-shard overhead multiple — how much slower
/// an all-cross-shard run is than an all-single-shard run of the same
/// transfer workload (extra PREPARED seal + second commit marker).
fn gate_xs_overhead() -> f64 {
    let single = sim_txns_per_sec(true, HeapConfig::FocUndo, 0);
    let cross = sim_txns_per_sec(true, HeapConfig::FocUndo, 100);
    single / cross
}

fn measure_pct_sweep(quick: bool) -> Json {
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let mut rows = Vec::new();
        for pct in PCTS {
            let sim = sim_txns_per_sec(quick, config, pct);
            let host = host_txns_per_sec(quick, config, pct);
            eprintln!(
                "  2pc {:<9} cross-shard {pct:>3}%  {sim:>12.0} txn/s sim, {host:>10.0} txn/s host",
                config.label()
            );
            rows.push(Json::object([
                ("cross_shard_pct", Json::from(pct)),
                ("sim_txns_per_sec", Json::from(sim)),
                ("host_txns_per_sec", Json::from(host)),
            ]));
        }
        per_config.push((config.label().to_owned(), Json::Arr(rows)));
    }
    let bench = xs_bench(quick, 1.0);
    Json::object([
        ("shards", Json::from(bench.shards as u64)),
        ("transfers", Json::from(bench.transfers as u64)),
        ("accounts_per_shard", Json::from(bench.accounts_per_shard as u64)),
        ("seed", Json::from(42u64)),
        ("sweep", Json::Obj(per_config)),
    ])
}

fn measure_vs_pr5_baseline(quick: bool) -> Json {
    let kv = kv_baseline(quick)
        .run(HeapConfig::FocUndo, 42)
        .expect("KV baseline run");
    let xs = sim_txns_per_sec(quick, HeapConfig::FocUndo, 100);
    let cost_in_kv_ops = kv.aggregate_ops_per_sec / xs;
    eprintln!(
        "  baseline  single-shard KV {:>12.0} ops/sec; one cross-shard txn costs {cost_in_kv_ops:.1} KV ops",
        kv.aggregate_ops_per_sec
    );
    Json::object([
        ("kv_mix", Json::from(kv.mix.label())),
        ("kv_epoch_size", Json::from(kv.epoch_size)),
        (
            "single_shard_kv_ops_per_sec",
            Json::from(kv.aggregate_ops_per_sec),
        ),
        ("cross_shard_txns_per_sec", Json::from(xs)),
        ("txn_cost_in_kv_ops", Json::from(cost_in_kv_ops)),
    ])
}

fn run_suite(quick: bool) -> Json {
    eprintln!(
        "bench_pr6: running {} suite",
        if quick { "quick" } else { "full" }
    );
    let sweep = measure_pct_sweep(quick);
    let baseline = measure_vs_pr5_baseline(quick);

    eprintln!("bench_pr6: measuring quick-mode gate quantities");
    let gate = Json::object([
        ("xs_txns_per_sec", Json::from(gate_xs_throughput())),
        ("xs_overhead_multiple", Json::from(gate_xs_overhead())),
    ]);

    Json::object([
        ("schema", Json::from("wsp-bench-pr6/v1")),
        ("mode", Json::from(if quick { "quick" } else { "full" })),
        ("cross_shard_sweep", sweep),
        ("vs_pr5_single_shard", baseline),
        ("gate", gate),
        (
            "notes",
            Json::Arr(vec![
                Json::from(
                    "Every transfer runs presumed-abort 2PC: durable per-shard PREPARED \
                     records (one log record per coalesced address, one flush per line, \
                     fenced), a fenced coordinator decision record, then per-shard commit \
                     markers. Throughput is on the coordinator pool's wall clock. \
                     A 0% cross-shard run still pays one prepare+marker; the \
                     sweep isolates the marginal cost of the second participant.",
                ),
                Json::from(
                    "The overhead multiple is the protocol's price in simulated time, not \
                     host time: flush-on-commit charges every log append and line flush to \
                     the simulated clock, so the ratio is deterministic and gate-stable.",
                ),
                Json::from(
                    "txn_cost_in_kv_ops contextualizes a cross-shard transfer against the \
                     PR 5 single-shard serving path (YCSB-A, epoch 32): units differ (a \
                     transfer is two writes plus protocol), so it is recorded for scale, \
                     not gated.",
                ),
            ]),
        ),
    ])
}

/// The `check` subcommand: quick-mode cross-shard throughput and
/// overhead multiple vs the recorded gate.
fn check_against(baseline_path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_pr6: cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_pr6: {baseline_path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(gate) = doc.get("gate") else {
        eprintln!("bench_pr6: {baseline_path} has no gate section");
        return ExitCode::FAILURE;
    };

    let mut failed = false;

    let recorded_tput = gate
        .get("xs_txns_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let tput = gate_xs_throughput();
    let floor = recorded_tput * (1.0 - GATE_TOLERANCE);
    let verdict = if tput >= floor { "ok" } else { "REGRESSED" };
    eprintln!(
        "  gate xs-throughput  current {tput:.0} txn/s, recorded {recorded_tput:.0}, floor {floor:.0}  [{verdict}]"
    );
    if tput < floor {
        failed = true;
    }

    let recorded_overhead = gate
        .get("xs_overhead_multiple")
        .and_then(Json::as_f64)
        .unwrap_or(f64::INFINITY);
    let overhead = gate_xs_overhead();
    let ceiling = recorded_overhead * (1.0 + GATE_TOLERANCE);
    let verdict = if overhead <= ceiling { "ok" } else { "REGRESSED" };
    eprintln!(
        "  gate xs-overhead    current {overhead:.3}x, recorded {recorded_overhead:.3}x, ceiling {ceiling:.3}x  [{verdict}]"
    );
    if overhead > ceiling {
        failed = true;
    }

    if failed {
        eprintln!("bench_pr6: cross-shard 2PC throughput regressed against {baseline_path}");
        ExitCode::FAILURE
    } else {
        eprintln!("bench_pr6: cross-shard 2PC gate passed");
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
                eprintln!("usage: bench_pr6 check <BENCH_PR6.json>");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: bench_pr6 run [--quick] | bench_pr6 check <baseline.json>");
            ExitCode::FAILURE
        }
    }
}
