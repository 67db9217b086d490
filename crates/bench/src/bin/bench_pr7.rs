//! `bench_pr7` — FliT write elision and double-buffered seal baseline.
//!
//! Measures what PR 7 buys: how far per-word flush tracking plus seal
//! pipelining push the epoch group-commit sweep past the PR 5 STM
//! instrumentation floor, what fraction of flushes the FliT table
//! elides, and how prepare-phase overlap changes the cross-shard 2PC
//! overhead. Emits machine-readable JSON; `BENCH_PR7.json` at the
//! repository root records the numbers.
//!
//! ```text
//! cargo run --release -p wsp-bench --features bench --bin bench_pr7 -- run
//! cargo run --release -p wsp-bench --features bench --bin bench_pr7 -- run --quick
//! cargo run --release -p wsp-bench --features bench --bin bench_pr7 -- check BENCH_PR7.json
//! ```
//!
//! * `run` sweeps epoch sizes 1/8/32/128 over both flush-on-commit
//!   configurations with FliT on, records the elision counters per
//!   cell, compares elision-on vs reference mode at epoch 32, and
//!   re-runs the cross-shard overhead pair with participants preparing
//!   concurrently on the coordinator pool's clock.
//! * `check` re-measures the quick-mode gate quantities and fails
//!   (exit 1) on regression beyond tolerance, on the hard epoch-32
//!   FoC + STM floor of 1.8x, or if the cross-shard overhead multiple
//!   climbs back to the serial-participant 1.37x.

use std::process::ExitCode;
use std::time::Instant;

use wsp_microbench::json::Json;
use wsp_obs::{self as obs, Ctr};
use wsp_pheap::HeapConfig;
use wsp_units::ByteSize;
use wsp_workloads::{CrossShardKvBench, HashBenchmark};

/// Epoch sizes the sweep exercises (1 = per-transaction protocol).
const EPOCHS: [u64; 4] = [1, 8, 32, 128];

/// Regression tolerance for `check`: simulated ratios are deterministic,
/// so a modest margin only absorbs intentional-but-small model drift.
const GATE_TOLERANCE: f64 = 0.10;

/// Hard floor for the epoch-32 FoC + STM simulated speedup, from the PR
/// acceptance criteria: FliT barriers must break the ~1.26x STM
/// instrumentation ceiling the PR 5 notes recorded.
const STM_SPEEDUP_FLOOR: f64 = 1.8;

/// Hard ceiling for the all-cross-shard 2PC overhead multiple: with
/// prepare-phase overlap it must stay below the 1.37x the PR 6 baseline
/// measured with participants running one after another.
const XS_OVERHEAD_CEILING: f64 = 1.37;

/// Best-of reps for host wall-clock numbers (simulated numbers are
/// deterministic and measured once).
const HOST_REPS: usize = 3;

fn hash_bench(quick: bool) -> HashBenchmark {
    if quick {
        HashBenchmark {
            prepopulate: 2_000,
            ops: 10_000,
            region: ByteSize::mib(8),
        }
    } else {
        HashBenchmark {
            prepopulate: 20_000,
            ops: 50_000,
            region: ByteSize::mib(64),
        }
    }
}

fn xs_bench(quick: bool, pct: f64) -> CrossShardKvBench {
    CrossShardKvBench {
        shards: 4,
        accounts_per_shard: 8,
        transfers: if quick { 200 } else { 1_000 },
        cross_shard_pct: pct,
        initial_balance: 10_000,
        region: ByteSize::mib(1),
        lose_shard: None,
        in_doubt_tail: false,
        coordinators: 1,
        decision_group: 1,
    }
}

/// One measured cell: simulated ns/op plus the flush-elision counters
/// the new barriers emit.
struct Cell {
    sim_ns: f64,
    skipped: u64,
    issued: u64,
}

impl Cell {
    fn elision_rate(&self) -> f64 {
        let total = self.skipped + self.issued;
        if total == 0 {
            0.0
        } else {
            self.skipped as f64 / total as f64
        }
    }
}

/// Simulated time-per-op and elision counters for one
/// (config, epoch-size, flit) cell.
fn sim_cell(bench: &HashBenchmark, config: HeapConfig, epoch: u64, flit: bool) -> Cell {
    let (r, cap) = obs::capture(|| {
        bench
            .run_with_epoch_flit(config, 0.5, 42, epoch, flit)
            .expect("benchmark runs")
    });
    Cell {
        sim_ns: r.time_per_op.as_nanos() as f64,
        skipped: cap.metrics.counter(Ctr::FlushSkipped),
        issued: cap.metrics.counter(Ctr::FlushIssued),
    }
}

/// Host wall-clock ops/sec for one cell (best of [`HOST_REPS`]).
fn host_ops_per_sec(bench: &HashBenchmark, config: HeapConfig, epoch: u64) -> f64 {
    (0..HOST_REPS)
        .map(|_| {
            let start = Instant::now();
            bench
                .run_with_epoch(config, 0.5, 42, epoch)
                .expect("benchmark runs");
            (bench.prepopulate + bench.ops) as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0f64, f64::max)
}

/// The epoch-32 simulated speedup per FoC config at quick scale — the
/// deterministic quantity `check` gates on.
fn gate_epoch_speedups() -> Vec<(HeapConfig, f64)> {
    let bench = hash_bench(true);
    [HeapConfig::FocStm, HeapConfig::FocUndo]
        .into_iter()
        .map(|config| {
            let per_tx = sim_cell(&bench, config, 1, true).sim_ns;
            let epoch32 = sim_cell(&bench, config, 32, true).sim_ns;
            (config, per_tx / epoch32)
        })
        .collect()
}

/// The all-cross-shard 2PC overhead multiple at quick scale, with
/// participants overlapping on the pool's wall clock.
fn gate_xs_overhead() -> f64 {
    let run = |pct: f64| {
        let report = xs_bench(true, pct)
            .run(HeapConfig::FocUndo, 42)
            .expect("transfer run");
        assert!(report.balance_conserved, "balance must conserve");
        report.txns_per_sec
    };
    run(0.0) / run(1.0)
}

fn measure_epoch_sweep(quick: bool) -> Json {
    let bench = hash_bench(quick);
    let mut per_config = Vec::new();
    let mut speedups = Vec::new();
    for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
        let mut rows = Vec::new();
        let mut by_epoch = Vec::new();
        for epoch in EPOCHS {
            let cell = sim_cell(&bench, config, epoch, true);
            let host = host_ops_per_sec(&bench, config, epoch);
            eprintln!(
                "  epoch {:<9} e={epoch:<4} {:>8.1} ns/op sim, {host:>12.0} ops/sec host, \
                 {:>5.1}% flushes elided",
                config.label(),
                cell.sim_ns,
                cell.elision_rate() * 100.0,
            );
            by_epoch.push((epoch, cell.sim_ns, host));
            rows.push(Json::object([
                ("epoch", Json::from(epoch)),
                ("sim_ns_per_op", Json::from(cell.sim_ns)),
                ("sim_ops_per_sec", Json::from(1e9 / cell.sim_ns)),
                ("host_ops_per_sec", Json::from(host)),
                ("flushes_skipped", Json::from(cell.skipped)),
                ("flushes_issued", Json::from(cell.issued)),
                ("elision_rate", Json::from(cell.elision_rate())),
            ]));
        }
        let base = &by_epoch[0];
        let at32 = by_epoch
            .iter()
            .find(|(e, _, _)| *e == 32)
            .expect("epoch 32 is in the sweep");
        speedups.push((
            config.label().to_owned(),
            Json::object([
                ("sim", Json::from(base.1 / at32.1)),
                ("host", Json::from(at32.2 / base.2)),
            ]),
        ));
        per_config.push((config.label().to_owned(), Json::Arr(rows)));
    }

    Json::object([
        ("prepopulate", Json::from(bench.prepopulate)),
        ("ops", Json::from(bench.ops)),
        ("update_probability", Json::from(0.5)),
        ("seed", Json::from(42u64)),
        ("sweep", Json::Obj(per_config)),
        ("speedup_at_epoch32", Json::Obj(speedups)),
    ])
}

/// Elision-on vs reference (always-append) mode at the epoch-32
/// operating point: the isolated value of the FliT table.
fn measure_flit_ablation(quick: bool) -> Json {
    let bench = hash_bench(quick);
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
        let on = sim_cell(&bench, config, 32, true);
        let off = sim_cell(&bench, config, 32, false);
        eprintln!(
            "  flit  {:<9} on {:>7.1} ns/op, reference {:>7.1} ns/op ({:.2}x), \
             {:>5.1}% of flushes elided",
            config.label(),
            on.sim_ns,
            off.sim_ns,
            off.sim_ns / on.sim_ns,
            on.elision_rate() * 100.0,
        );
        per_config.push((
            config.label().to_owned(),
            Json::object([
                ("flit_on_sim_ns_per_op", Json::from(on.sim_ns)),
                ("flit_off_sim_ns_per_op", Json::from(off.sim_ns)),
                ("flit_speedup", Json::from(off.sim_ns / on.sim_ns)),
                ("flushes_skipped", Json::from(on.skipped)),
                ("flushes_issued", Json::from(on.issued)),
                ("elision_rate", Json::from(on.elision_rate())),
            ]),
        ));
    }
    Json::object([("epoch_size", Json::from(32u64)), ("by_config", Json::Obj(per_config))])
}

/// The cross-shard overhead pair, participants overlapping on the pool's
/// wall clock.
fn measure_cross_shard(quick: bool) -> Json {
    let run = |pct: f64| {
        let report = xs_bench(quick, pct)
            .run(HeapConfig::FocUndo, 42)
            .expect("transfer run");
        assert!(report.balance_conserved, "balance must conserve");
        report.txns_per_sec
    };
    let single = run(0.0);
    let cross = run(1.0);
    let overhead = single / cross;
    eprintln!(
        "  2pc   0% cross {single:>12.0} txn/s, 100% cross {cross:>12.0} txn/s \
         (overhead {overhead:.3}x)"
    );
    Json::object([
        ("config", Json::from(HeapConfig::FocUndo.label())),
        ("single_shard_txns_per_sec", Json::from(single)),
        ("cross_shard_txns_per_sec", Json::from(cross)),
        ("xs_overhead_multiple", Json::from(overhead)),
    ])
}

fn run_suite(quick: bool) -> Json {
    eprintln!(
        "bench_pr7: running {} suite",
        if quick { "quick" } else { "full" }
    );
    let epoch = measure_epoch_sweep(quick);
    let flit = measure_flit_ablation(quick);
    let xs = measure_cross_shard(quick);

    eprintln!("bench_pr7: measuring quick-mode gate quantities");
    let gate_speedups: Vec<(String, Json)> = gate_epoch_speedups()
        .into_iter()
        .map(|(c, s)| (c.label().to_owned(), Json::from(s)))
        .collect();
    let gate = Json::object([
        ("epoch32_sim_speedup", Json::Obj(gate_speedups)),
        ("xs_overhead_multiple", Json::from(gate_xs_overhead())),
    ]);

    Json::object([
        ("schema", Json::from("wsp-bench-pr7/v1")),
        ("mode", Json::from(if quick { "quick" } else { "full" })),
        ("epoch_group_commit", epoch),
        ("flit_ablation", flit),
        ("cross_shard", xs),
        ("gate", gate),
        (
            "notes",
            Json::Arr(vec![
                Json::from(
                    "FliT barriers replace the STM write-set scan and epoch-buffer lookup \
                     with one probe of an L1-resident per-word table (5 ns vs 35+ ns), and \
                     repeated writes to a hot word update the pending record in place \
                     instead of appending another — the elision counters above record the \
                     fraction of would-be flushes that never happen. This breaks the \
                     ~1.26x epoch-32 STM ceiling the PR 5 notes documented: the residual \
                     instrumentation was the floor, and the floor moved.",
                ),
                Json::from(
                    "Double-buffered seals stage a full generation and drain it while the \
                     next fills; the drain's overlap with foreground commits is credited \
                     back to the simulated clock (bounded by the time since handoff), and \
                     pheap.seal_stall_time records only the un-overlapped remainder. \
                     Durability lags one generation: a crash loses the open epoch AND a \
                     staged-but-undrained one, which the extended mid-seal crash sweep \
                     pins at every interleaving.",
                ),
                Json::from(
                    "Cross-shard 2PC charges each phase (prepare, phase-2 commit) only \
                     its slowest participant on the coordinator pool's wall clock, \
                     modelling shards that seal concurrently. The overhead multiple falls \
                     below 1.0: an all-cross-shard run spreads each transfer's seal work \
                     over two shards while an all-single-shard run serializes it on one. \
                     The gate only requires staying under the serial-participant 1.37x.",
                ),
            ]),
        ),
    ])
}

/// The `check` subcommand: quick-mode epoch-32 speedups and the
/// cross-shard overhead multiple vs the recorded gate, plus the hard
/// acceptance floors.
fn check_against(baseline_path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_pr7: cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_pr7: {baseline_path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(gate) = doc.get("gate") else {
        eprintln!("bench_pr7: {baseline_path} has no gate section");
        return ExitCode::FAILURE;
    };

    let mut failed = false;

    let recorded_speedups = gate
        .get("epoch32_sim_speedup")
        .and_then(Json::entries)
        .unwrap_or_default();
    let current = gate_epoch_speedups();
    for (label, recorded) in recorded_speedups {
        let recorded = recorded.as_f64().unwrap_or(0.0);
        let Some((config, now)) = current.iter().find(|(c, _)| c.label() == label) else {
            eprintln!("bench_pr7: unknown heap config `{label}` in gate; skipping");
            continue;
        };
        let mut floor = recorded * (1.0 - GATE_TOLERANCE);
        if *config == HeapConfig::FocStm {
            floor = floor.max(STM_SPEEDUP_FLOOR);
        }
        let verdict = if *now >= floor { "ok" } else { "REGRESSED" };
        eprintln!(
            "  gate epoch32 {label:<9} current {now:.3}x, recorded {recorded:.3}x, floor {floor:.3}x  [{verdict}]"
        );
        if *now < floor {
            failed = true;
        }
    }

    let recorded_overhead = gate
        .get("xs_overhead_multiple")
        .and_then(Json::as_f64)
        .unwrap_or(f64::INFINITY);
    let overhead = gate_xs_overhead();
    let ceiling = (recorded_overhead * (1.0 + GATE_TOLERANCE)).min(XS_OVERHEAD_CEILING);
    let verdict = if overhead <= ceiling { "ok" } else { "REGRESSED" };
    eprintln!(
        "  gate xs-overhead    current {overhead:.3}x, recorded {recorded_overhead:.3}x, ceiling {ceiling:.3}x  [{verdict}]"
    );
    if overhead > ceiling {
        failed = true;
    }

    if failed {
        eprintln!("bench_pr7: FliT/seal-pipeline throughput regressed against {baseline_path}");
        ExitCode::FAILURE
    } else {
        eprintln!("bench_pr7: FliT + seal-pipeline gate passed");
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
                eprintln!("usage: bench_pr7 check <BENCH_PR7.json>");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: bench_pr7 run [--quick] | bench_pr7 check <baseline.json>");
            ExitCode::FAILURE
        }
    }
}
