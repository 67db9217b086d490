//! Workload shapes, measurements and report sections for every scenario
//! in the registry.
//!
//! Simulated numbers are deterministic per `(workload, config, seed)`
//! and measured once; host numbers are the best of several wall-clock
//! runs, which absorbs scheduler noise on shared hardware. Every
//! section takes the run mode (`quick` or full scale); gate quantities
//! always measure at quick scale, so a recorded gate compares like with
//! like whatever mode recorded it.

use std::time::Instant;

use wsp_cache::{CacheHierarchy, CpuProfile, FlushMethod};
use wsp_core::{
    clean_failure_trace, domain_save, ladder_crash_points, node_save, priority_stage_window,
    sweep_lockfree, sweep_mid_transaction, sweep_power_storm, sweep_recovery_ladder,
    sweep_save_path, DomainBudget, DomainInput, LfStructure, LockfreeSweepReport, PowerStormReport, RestartStrategy, ShardVerdict,
    StormStats, STORM_BOUNDARIES,
};
use wsp_machine::{Machine, SystemLoad};
use wsp_obs::json::Json;
use wsp_obs::{self as obs, Ctr};
use wsp_pheap::lockfree::FlushPolicy;
use wsp_pheap::{HeapConfig, PersistentHeap};
use wsp_power::{PowerDomain, Psu, Ultracapacitor};
use wsp_units::{ByteSize, Farads, Nanos, Volts};
use wsp_workloads::{CrossShardKvBench, HashBenchmark, ShardedKvBench, ShardedKvReport, YcsbMix};

/// Seed of every measured run.
const SEED: u64 = 42;

/// Best-of repetitions for host wall-clock numbers.
const HOST_REPS: usize = 3;

/// Epoch sizes the group-commit sweep exercises (1 = per-transaction
/// protocol).
const EPOCHS: [u64; 4] = [1, 8, 32, 128];

/// Cross-shard percentages the 2PC sweep exercises.
const PCTS: [u64; 5] = [0, 25, 50, 75, 100];

/// Decision group sizes the group-decided 2PC sweep exercises (1 = one
/// fenced decision record per transfer).
const GROUPS: [usize; 4] = [1, 4, 8, 32];

/// Coordinator counts the concurrency sweep exercises.
const COORDS: [usize; 3] = [1, 2, 4];

/// The headline decision group size the 2PC gates are recorded at.
const GROUP: usize = 32;

/// Shards in the contended-save fleet.
const FLEET: usize = 3;

/// `f`'s result and the host seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The best rate, in `work` units per host second, over `reps` runs.
fn best_rate(reps: usize, work: f64, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| work / timed(&mut f).1)
        .fold(0.0, f64::max)
}

/// The shortest host time in milliseconds over `reps` runs.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| timed(&mut f).1 * 1e3)
        .fold(f64::INFINITY, f64::min)
}

/// The Figure-5 hash-table workload: the given prepopulated entries and
/// measured operations at quick scale, 20 k and 50 k at full scale.
fn hash_bench(quick: bool, (prepopulate, ops): (u64, u64)) -> HashBenchmark {
    if quick {
        HashBenchmark {
            prepopulate,
            ops,
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

/// Quick scale of the host-time hash-table gate.
const HOST_HASH_QUICK: (u64, u64) = (1_000, 4_000);

/// Quick scale of the epoch group-commit sweep.
const EPOCH_HASH_QUICK: (u64, u64) = (2_000, 10_000);

/// Bank transfers over four shards, every transfer run to its commit
/// markers, with balances deep enough that throughput measures the
/// protocol rather than overdraft aborts.
fn transfers(quick: bool, cross_shard_pct: f64) -> CrossShardKvBench {
    CrossShardKvBench {
        shards: 4,
        accounts_per_shard: 8,
        transfers: if quick { 200 } else { 1_000 },
        cross_shard_pct,
        initial_balance: 10_000,
        region: ByteSize::mib(1),
        lose_shard: None,
        in_doubt_tail: false,
        coordinators: 1,
        decision_group: 1,
    }
}

/// One shard, four YCSB-A clients at epoch 32: the single-shard serving
/// path the sharding and 2PC numbers are compared against.
fn kv_one_shard(quick: bool) -> ShardedKvBench {
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

// ---- Host hot paths (BENCH_PR2.json) ----

/// Host ops/sec of the hash-table workload for one heap configuration
/// (prepopulate plus measured phase, like the paper).
fn hash_ops_per_sec(bench: &HashBenchmark, config: HeapConfig, reps: usize) -> f64 {
    best_rate(reps, (bench.prepopulate + bench.ops) as f64, || {
        bench.run(config, 0.5, SEED).expect("benchmark runs");
    })
}

/// Gate: quick-scale host ops/sec for one heap configuration.
pub fn gate_hash_ops_per_sec(config: HeapConfig) -> f64 {
    hash_ops_per_sec(&hash_bench(true, HOST_HASH_QUICK), config, HOST_REPS)
}

pub fn hashtable(quick: bool) -> Json {
    const REPS: usize = 5;
    let bench = hash_bench(quick, HOST_HASH_QUICK);
    let mut rates = Vec::new();
    for config in HeapConfig::all() {
        let rate = hash_ops_per_sec(&bench, config, REPS);
        eprintln!(
            "  hashtable {:<9} {rate:>12.0} ops/sec (best of {REPS})",
            config.label()
        );
        rates.push((config.label().to_owned(), Json::from(rate)));
    }
    Json::object([
        ("prepopulate", Json::from(bench.prepopulate)),
        ("ops", Json::from(bench.ops)),
        ("update_probability", Json::from(0.5)),
        ("ops_per_sec", Json::Obj(rates)),
    ])
}

/// Wall-clock of the crash sweeps at the load the test suite puts on
/// them: the save-path sweep across both testbeds over several sentinel
/// seeds, and the mid-transaction sweep across every heap configuration.
pub fn crash_sweeps(quick: bool) -> Json {
    let (save_seeds, tx_seeds) = if quick { (2u64, 2u64) } else { (16, 32) };
    let save_path_ms = best_ms(HOST_REPS, || {
        for seed in 0..save_seeds {
            for (make, load) in testbeds() {
                let report = sweep_save_path(
                    make,
                    load,
                    RestartStrategy::RestorePathReinit,
                    seed * 31 + 42,
                );
                assert_eq!(report.locally_restored, 1);
            }
        }
    });
    let mid_tx_ms = best_ms(HOST_REPS, || {
        for seed in 0..tx_seeds {
            for config in HeapConfig::all() {
                assert!(sweep_mid_transaction(config, seed * 97 + 1234).crash_points > 0);
            }
        }
    });
    eprintln!("  sweeps    save-path {save_path_ms:.1} ms, mid-tx {mid_tx_ms:.1} ms");
    Json::object([
        ("save_path_seeds", Json::from(save_seeds)),
        ("mid_tx_seeds", Json::from(tx_seeds)),
        ("save_path_ms", Json::from(save_path_ms)),
        ("mid_tx_ms", Json::from(mid_tx_ms)),
        ("total_ms", Json::from(save_path_ms + mid_tx_ms)),
    ])
}

/// Host time of one `wbinvd` whole-hierarchy walk over 10 000 dirty
/// lines (best of 5, on fresh clones of a pre-dirtied hierarchy).
pub fn wbinvd(_quick: bool) -> Json {
    const DIRTY_LINES: u64 = 10_000;
    let mut template = CacheHierarchy::new(CpuProfile::intel_c5528());
    for i in 0..DIRTY_LINES {
        template.store(i * 64);
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut cache = template.clone();
        let start = Instant::now();
        let r = cache.wbinvd();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(r.writebacks.len() as u64, DIRTY_LINES);
    }
    eprintln!("  wbinvd    walk {best:.1} us host ({DIRTY_LINES} dirty lines)");
    Json::object([
        ("dirty_lines", Json::from(DIRTY_LINES)),
        ("walk_host_us", Json::from(best)),
    ])
}

fn testbeds() -> [(fn() -> Machine, SystemLoad); 2] {
    [
        (Machine::intel_testbed, SystemLoad::Busy),
        (Machine::amd_testbed, SystemLoad::Idle),
    ]
}

// ---- Recovery ladder (BENCH_PR3.json) ----

fn ladder_seeds(quick: bool) -> u64 {
    if quick {
        2
    } else {
        8
    }
}

/// Host ms of the full recovery-ladder sweep across both testbeds over
/// `seeds` sentinel seeds; the sweep's contract assertions run on every
/// pass.
fn ladder_sweep_ms(seeds: u64) -> f64 {
    best_ms(HOST_REPS, || {
        for seed in 0..seeds {
            for (make, load) in testbeds() {
                let report = sweep_recovery_ladder(make, load, seed * 31 + 42);
                assert_eq!(report.glitches_ignored, 2);
                assert_eq!(report.recovered, 4);
            }
        }
    })
}

/// Gate: the quick ladder sweep's host ms.
pub fn gate_ladder_sweep_ms() -> f64 {
    ladder_sweep_ms(ladder_seeds(true))
}

pub fn ladder(quick: bool) -> Json {
    let seeds = ladder_seeds(quick);
    let sweep_ms = ladder_sweep_ms(seeds);
    let points = ladder_crash_points(Machine::intel_testbed().nvram().dimms().len()).len();
    eprintln!(
        "  ladder    sweep {sweep_ms:.1} ms ({seeds} seeds x 2 testbeds, {points} points each)"
    );
    Json::object([
        ("seeds", Json::from(seeds)),
        ("points_per_sweep", Json::from(points as u64)),
        ("sweep_ms", Json::from(sweep_ms)),
    ])
}

// ---- Epoch group commit, FliT and sharded serving (BENCH_PR5/7.json) ----

/// One epoch-sweep cell: simulated ns/op plus the flush-elision
/// counters the FliT barriers emit.
struct EpochCell {
    sim_ns: f64,
    skipped: u64,
    issued: u64,
}

impl EpochCell {
    fn elision_rate(&self) -> f64 {
        let total = self.skipped + self.issued;
        if total == 0 {
            0.0
        } else {
            self.skipped as f64 / total as f64
        }
    }
}

fn epoch_cell(bench: &HashBenchmark, config: HeapConfig, epoch: u64, flit: bool) -> EpochCell {
    let (r, cap) = obs::capture(|| {
        bench
            .run_with_epoch_flit(config, 0.5, SEED, epoch, flit)
            .expect("benchmark runs")
    });
    EpochCell {
        sim_ns: r.time_per_op.as_nanos() as f64,
        skipped: cap.metrics.counter(Ctr::FlushSkipped),
        issued: cap.metrics.counter(Ctr::FlushIssued),
    }
}

/// Gate: the epoch-32 simulated speedup over per-transaction commit.
pub fn gate_epoch32_speedup(config: HeapConfig) -> f64 {
    let bench = hash_bench(true, EPOCH_HASH_QUICK);
    epoch_cell(&bench, config, 1, true).sim_ns / epoch_cell(&bench, config, 32, true).sim_ns
}

/// The epoch-size sweep over both flush-on-commit configurations, FliT
/// on: simulated and host throughput plus the elision counters per cell.
pub fn epoch_sweep(quick: bool) -> Json {
    let bench = hash_bench(quick, EPOCH_HASH_QUICK);
    let mut per_config = Vec::new();
    let mut speedups = Vec::new();
    for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
        let mut rows = Vec::new();
        let mut by_epoch = Vec::new();
        for epoch in EPOCHS {
            let cell = epoch_cell(&bench, config, epoch, true);
            let host = best_rate(HOST_REPS, (bench.prepopulate + bench.ops) as f64, || {
                bench
                    .run_with_epoch(config, 0.5, SEED, epoch)
                    .expect("benchmark runs");
            });
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
        let base = by_epoch[0];
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
        ("seed", Json::from(SEED)),
        ("sweep", Json::Obj(per_config)),
        ("speedup_at_epoch32", Json::Obj(speedups)),
    ])
}

/// Flush-on-fail has no per-transaction durability work to amortise:
/// epoch mode must be exactly inert there.
pub fn fof_epoch_inert(_quick: bool) -> Json {
    let bench = hash_bench(true, EPOCH_HASH_QUICK);
    let inert = epoch_cell(&bench, HeapConfig::FofStm, 32, true).sim_ns
        == epoch_cell(&bench, HeapConfig::FofStm, 1, true).sim_ns;
    assert!(
        inert,
        "epoch mode must be a no-op for flush-on-fail configs"
    );
    Json::from(inert)
}

/// Elision-on vs reference (always-append) barriers at the epoch-32
/// operating point: the isolated value of the FliT table.
pub fn flit_ablation(quick: bool) -> Json {
    let bench = hash_bench(quick, EPOCH_HASH_QUICK);
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
        let on = epoch_cell(&bench, config, 32, true);
        let off = epoch_cell(&bench, config, 32, false);
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
    Json::object([
        ("epoch_size", Json::from(32u64)),
        ("by_config", Json::Obj(per_config)),
    ])
}

/// The 1-shard and 4-shard runs of the same total clients, per-client
/// work and store size: their ratio is pure serving-path scaling.
fn kv_scaling_pair(quick: bool) -> (f64, f64, ShardedKvBench, [u64; 2]) {
    let one = kv_one_shard(quick);
    let four = ShardedKvBench {
        shards: 4,
        clients_per_shard: 1,
        records_per_shard: one.records_per_shard / 4,
        ..one
    };
    let r1 = one.run(HeapConfig::FocUndo, SEED).expect("1-shard run");
    let r4 = four.run(HeapConfig::FocUndo, SEED).expect("4-shard run");
    let p99 = |r: &ShardedKvReport| r.latencies.percentile(99.0).as_nanos();
    (
        r1.aggregate_ops_per_sec,
        r4.aggregate_ops_per_sec,
        one,
        [p99(&r1), p99(&r4)],
    )
}

/// Gate: 4-shard over 1-shard aggregate simulated throughput.
pub fn gate_kv_shard_scaling() -> f64 {
    let (one, four, _, _) = kv_scaling_pair(true);
    four / one
}

pub fn sharded_kv(quick: bool) -> Json {
    let (r1, r4, one, [p99_1, p99_4]) = kv_scaling_pair(quick);
    let scaling = r4 / r1;
    eprintln!(
        "  kv        1 shard {r1:>12.0} ops/sec, 4 shards {r4:>12.0} ops/sec ({scaling:.2}x)"
    );
    Json::object([
        ("mix", Json::from(one.mix.label())),
        ("config", Json::from(HeapConfig::FocUndo.label())),
        ("epoch_size", Json::from(one.epoch_size)),
        ("clients_total", Json::from(4u64)),
        ("ops_per_client", Json::from(one.ops_per_client)),
        ("records_total", Json::from(one.records_per_shard)),
        ("one_shard_ops_per_sec", Json::from(r1)),
        ("four_shard_ops_per_sec", Json::from(r4)),
        ("one_shard_p99_ns", Json::from(p99_1)),
        ("four_shard_p99_ns", Json::from(p99_4)),
        ("scaling", Json::from(scaling)),
    ])
}

// ---- Cross-shard 2PC (BENCH_PR6/7.json) ----

/// Simulated transfers/sec on the coordinator pool's wall clock.
fn xs_txns_per_sec(quick: bool, config: HeapConfig, cross_shard_pct: f64) -> f64 {
    let report = transfers(quick, cross_shard_pct)
        .run(config, SEED)
        .expect("transfer run");
    assert!(report.balance_conserved, "{config}: balance must conserve");
    report.txns_per_sec
}

/// Gate: all-cross-shard simulated transfer throughput, FoC + UL.
pub fn gate_xs_txns_per_sec() -> f64 {
    xs_txns_per_sec(true, HeapConfig::FocUndo, 1.0)
}

/// Gate: how much slower an all-cross-shard run is than an
/// all-single-shard run of the same transfer workload.
pub fn gate_xs_overhead() -> f64 {
    xs_txns_per_sec(true, HeapConfig::FocUndo, 0.0) / gate_xs_txns_per_sec()
}

pub fn xs_pct_sweep(quick: bool) -> Json {
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let mut rows = Vec::new();
        for pct in PCTS {
            let sim = xs_txns_per_sec(quick, config, pct as f64 / 100.0);
            let bench = transfers(quick, pct as f64 / 100.0);
            let host = best_rate(HOST_REPS, bench.transfers as f64, || {
                bench.run(config, SEED).expect("transfer run");
            });
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
    let bench = transfers(quick, 1.0);
    Json::object([
        ("shards", Json::from(bench.shards as u64)),
        ("transfers", Json::from(bench.transfers as u64)),
        (
            "accounts_per_shard",
            Json::from(bench.accounts_per_shard as u64),
        ),
        ("seed", Json::from(SEED)),
        ("sweep", Json::Obj(per_config)),
    ])
}

/// One cross-shard transfer priced in single-shard KV operations.
pub fn xs_vs_kv(quick: bool) -> Json {
    let kv = kv_one_shard(quick)
        .run(HeapConfig::FocUndo, SEED)
        .expect("KV baseline run");
    let xs = xs_txns_per_sec(quick, HeapConfig::FocUndo, 1.0);
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

// ---- Shared power domain (BENCH_PR8.json) ----

fn verdict_score(complete: usize, partial: usize) -> u64 {
    (2 * complete + partial) as u64
}

/// An uneven fleet: shard 0 carries a deep committed history (a large
/// priority stage), shards 1–2 are light. Exactly the case where a
/// global window beats private slices — the light shards' surplus can
/// pay for the heavy shard's priority stage.
fn contended_fleet(config: HeapConfig) -> Vec<PersistentHeap> {
    (0..FLEET)
        .map(|shard| {
            let mut heap = PersistentHeap::create(ByteSize::kib(512), config);
            let txns = if shard == 0 { 160 } else { 4 };
            for t in 0..txns {
                let mut tx = heap.begin();
                let p = tx.alloc(64).expect("fleet seed allocation");
                tx.write_word(p, (shard as u64) << 32 | t)
                    .expect("seed write");
                if t == 0 {
                    tx.set_root(p).expect("root");
                }
                tx.commit().expect("seed commit");
            }
            heap
        })
        .collect()
}

fn loaded_machine() -> Machine {
    let mut machine = Machine::intel_testbed();
    machine.apply_load(SystemLoad::Busy, SEED);
    machine
}

/// The shared window the comparison runs under: one fixed detection
/// cost plus the heaviest shard's priority stage plus one light full
/// save — enough for the triage to seal most of the fleet, far too
/// little for three private slices to each re-pay detection.
fn contention_window(machine: &Machine, heaps: &[PersistentHeap]) -> Nanos {
    let per_shard: Vec<Nanos> = heaps
        .iter()
        .map(|h| priority_stage_window(machine, h))
        .collect();
    let heaviest = per_shard.iter().copied().max().unwrap_or(Nanos::ZERO);
    let lightest = per_shard.iter().copied().min().unwrap_or(Nanos::ZERO);
    let share = machine.flush_analysis().flush_time(
        FlushMethod::Wbinvd,
        machine.dirty_estimate(SystemLoad::Busy) / FLEET as u64,
    );
    heaviest + lightest + share
}

struct TriageOutcome {
    complete: usize,
    partial: usize,
    sacrificed: usize,
    window: Nanos,
    used: Nanos,
}

impl TriageOutcome {
    fn score(&self) -> u64 {
        verdict_score(self.complete, self.partial)
    }

    fn json(&self) -> Json {
        Json::object([
            ("complete", Json::from(self.complete as u64)),
            ("partial", Json::from(self.partial as u64)),
            ("sacrificed", Json::from(self.sacrificed as u64)),
            ("score", Json::from(self.score())),
            ("window_ns", Json::from(self.window.as_nanos())),
            ("used_ns", Json::from(self.used.as_nanos())),
        ])
    }
}

/// The contended save through the domain supervisor: one global window,
/// urgency-ranked staged budgets.
fn global_triage(config: HeapConfig) -> TriageOutcome {
    let mut machine = loaded_machine();
    let mut heaps = contended_fleet(config);
    let window = contention_window(&machine, &heaps);
    let mut domain = PowerDomain::new(
        Psu::atx_750w(),
        Ultracapacitor::new(Farads::new(2.0), Volts::new(12.0), Volts::new(6.0)),
        machine.power_draw(SystemLoad::Busy),
        FLEET,
    );
    let report = domain_save(DomainInput {
        machine: &mut machine,
        domain: &mut domain,
        heaps: &mut heaps,
        staleness: &[Nanos::ZERO; FLEET],
        load: SystemLoad::Busy,
        trace: &clean_failure_trace(),
        budget: DomainBudget {
            window_cap: Some(window),
        },
    })
    .expect("domain save yields a verdict");
    TriageOutcome {
        complete: report.count(ShardVerdict::Complete),
        partial: report.count(ShardVerdict::PartialPriority),
        sacrificed: report.count(ShardVerdict::Sacrificed),
        window: report.window,
        used: report.used,
    }
}

/// The same fleet and the same total window, but split into private
/// slices — each heap saved over its own machine's private domain, so
/// every slice re-pays its own detection and context costs, and no
/// shard can borrow a neighbour's surplus.
fn private_split(config: HeapConfig) -> TriageOutcome {
    let heaps = contended_fleet(config);
    let window = contention_window(&loaded_machine(), &heaps);
    let mut outcome = TriageOutcome {
        complete: 0,
        partial: 0,
        sacrificed: 0,
        window,
        used: Nanos::ZERO,
    };
    for mut heap in heaps {
        let mut machine = loaded_machine();
        let budget = DomainBudget {
            window_cap: Some(window / FLEET as u64),
        };
        let report = node_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            budget,
        )
        .expect("private save yields a verdict");
        match report.shards[0].verdict {
            ShardVerdict::Complete => outcome.complete += 1,
            ShardVerdict::PartialPriority => outcome.partial += 1,
            ShardVerdict::Sacrificed => outcome.sacrificed += 1,
        }
        outcome.used = outcome.used.saturating_add(report.used);
    }
    outcome
}

fn advantage(triaged: &TriageOutcome, split: &TriageOutcome) -> f64 {
    triaged.score() as f64 / (split.score() as f64).max(1.0)
}

/// Gate: global-triage score over private-split score.
pub fn gate_triage_advantage(config: HeapConfig) -> f64 {
    advantage(&global_triage(config), &private_split(config))
}

pub fn triage(_quick: bool) -> Json {
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let (t, s) = (global_triage(config), private_split(config));
        eprintln!(
            "  triage {:<9} global {}C/{}P/{}S (score {}), private split \
             {}C/{}P/{}S (score {}), advantage {:.2}x",
            config.label(),
            t.complete,
            t.partial,
            t.sacrificed,
            t.score(),
            s.complete,
            s.partial,
            s.sacrificed,
            s.score(),
            advantage(&t, &s),
        );
        per_config.push((
            config.label().to_owned(),
            Json::object([
                ("global_triage", t.json()),
                ("private_split", s.json()),
                ("advantage", Json::from(advantage(&t, &s))),
            ]),
        ));
    }
    Json::object([
        ("shards", Json::from(FLEET as u64)),
        ("scoring", Json::from("complete=2 partial=1 sacrificed=0")),
        ("by_config", Json::Obj(per_config)),
    ])
}

/// The sealed-shard fraction of one storm sweep.
fn sealed_fraction(report: &PowerStormReport) -> f64 {
    let (mut sealed, mut total) = (0usize, 0usize);
    for point in &report.points {
        sealed += point.stats.complete + point.stats.partial;
        total += point.stats.complete + point.stats.partial + point.stats.sacrificed;
    }
    sealed as f64 / (total as f64).max(1.0)
}

/// Every save boundary and every crash rung was exercised.
fn full_coverage(report: &PowerStormReport) -> bool {
    report.decision_cuts_covered == STORM_BOUNDARIES && report.crash_rungs_covered == 3
}

/// Gate: sealed fraction of the seed-42 storm.
pub fn gate_storm_sealed_fraction(config: HeapConfig) -> f64 {
    sealed_fraction(&sweep_power_storm(config, SEED))
}

/// Gate: the seed-42 storm covered every cut and rung and rebuilt at
/// least one sacrificed shard.
pub fn gate_storm_full_coverage(config: HeapConfig) -> bool {
    let sweep = sweep_power_storm(config, SEED);
    full_coverage(&sweep) && sweep.rebuilt > 0
}

pub fn storm(quick: bool) -> Json {
    let seeds: &[u64] = if quick { &[42] } else { &[42, 7, 4242] };
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let (sweeps, host) = timed(|| {
            seeds
                .iter()
                .map(|&seed| sweep_power_storm(config, seed))
                .collect::<Vec<_>>()
        });
        let stat = |f: fn(&StormStats) -> usize| {
            sweeps
                .iter()
                .flat_map(|s| &s.points)
                .map(|p| f(&p.stats))
                .sum::<usize>() as u64
        };
        let outages: usize = sweeps.iter().map(|s| s.outages).sum();
        let rebuilt: usize = sweeps.iter().map(|s| s.rebuilt).sum();
        let rerouted: u64 = sweeps.iter().map(|s| s.rerouted_writes).sum();
        let fraction =
            sweeps.iter().map(sealed_fraction).sum::<f64>() / (sweeps.len() as f64).max(1.0);
        let sacrificed = stat(|s| s.sacrificed);
        eprintln!(
            "  storm  {:<9} {outages} outages across {} sweeps: {:.1}% shard-epochs sealed, \
             {sacrificed} sacrificed / {rebuilt} rebuilt, {rerouted} words rerouted ({host:.2}s host)",
            config.label(),
            sweeps.len(),
            fraction * 100.0,
        );
        per_config.push((
            config.label().to_owned(),
            Json::object([
                (
                    "seeds",
                    Json::Arr(seeds.iter().map(|&s| Json::from(s)).collect()),
                ),
                ("outages", Json::from(outages as u64)),
                ("committed_txns", Json::from(stat(|s| s.committed_txns))),
                ("presumed_aborts", Json::from(stat(|s| s.presumed_aborts))),
                ("sealed_fraction", Json::from(fraction)),
                ("sacrificed", Json::from(sacrificed)),
                ("rebuilt", Json::from(rebuilt as u64)),
                ("rerouted_writes", Json::from(rerouted)),
                (
                    "coordinator_shard_sacrifices",
                    Json::from(stat(|s| s.coordinator_shard_sacrifices)),
                ),
                (
                    "reclimbs_verified",
                    Json::from(stat(|s| s.reclimbs_verified)),
                ),
                (
                    "full_coverage",
                    Json::from(sweeps.iter().all(full_coverage)),
                ),
                ("host_secs", Json::from(host)),
            ]),
        ));
    }
    Json::object([("by_config", Json::Obj(per_config))])
}

// ---- Concurrent detectable structures (BENCH_PR9.json) ----

/// One shard with `threads` in-shard clients splitting a fixed total op
/// count over a contended record set.
fn concurrent_bench(quick: bool, threads: usize) -> ShardedKvBench {
    let (total_ops, records) = if quick { (2_000, 512) } else { (8_000, 1_024) };
    ShardedKvBench {
        shards: 1,
        clients_per_shard: 1,
        ops_per_client: total_ops / threads as u64,
        records_per_shard: records,
        region: ByteSize::mib(16),
        epoch_size: 32,
        mix: YcsbMix::A,
        zipf_theta: 0.99,
        in_shard_threads: threads,
    }
}

/// Simulated ops/s of the concurrent serving path.
fn concurrent_ops_per_sec(quick: bool, threads: usize, config: HeapConfig) -> f64 {
    concurrent_bench(quick, threads)
        .run_concurrent(config, SEED)
        .expect("concurrent kv run")
        .aggregate_ops_per_sec
}

/// Gate: 4-thread over 1-thread in-shard throughput, FoC + UL.
pub fn gate_in_shard_scaling() -> f64 {
    concurrent_ops_per_sec(true, 4, HeapConfig::FocUndo)
        / concurrent_ops_per_sec(true, 1, HeapConfig::FocUndo)
}

/// Gate: FoF over FoC + UL throughput at 4 contended threads.
pub fn gate_fof_advantage() -> f64 {
    concurrent_ops_per_sec(true, 4, HeapConfig::Fof)
        / concurrent_ops_per_sec(true, 4, HeapConfig::FocUndo)
}

pub fn in_shard_scaling(quick: bool) -> Json {
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocUndo, HeapConfig::Fof] {
        let base = concurrent_ops_per_sec(quick, 1, config);
        let mut points = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let thr = concurrent_ops_per_sec(quick, threads, config);
            let scaling = thr / base;
            eprintln!(
                "  scaling {:<9} {threads} in-shard threads: {thr:>12.0} ops/s ({scaling:.2}x)",
                config.label(),
            );
            points.push(Json::object([
                ("threads", Json::from(threads as u64)),
                ("ops_per_sec", Json::from(thr)),
                ("scaling", Json::from(scaling)),
            ]));
        }
        per_config.push((config.label().to_owned(), Json::Arr(points)));
    }
    Json::object([
        ("mix", Json::from("A")),
        ("zipf_theta", Json::from(0.99)),
        ("by_config", Json::Obj(per_config)),
    ])
}

fn lockfree_json(report: &LockfreeSweepReport, host_secs: f64) -> Json {
    Json::object([
        ("schedules", Json::from(report.schedules)),
        ("crash_points", Json::from(report.crash_points)),
        ("cas_points", Json::from(report.cas_points)),
        ("flush_points", Json::from(report.flush_points)),
        ("fence_points", Json::from(report.fence_points)),
        ("completed", Json::from(report.completed)),
        ("not_started", Json::from(report.not_started)),
        ("resolved", Json::from(report.resolved)),
        ("helps", Json::from(report.helps)),
        ("cas_conflicts", Json::from(report.conflicts)),
        (
            "fingerprint",
            Json::from(format!("{:016x}", report.fingerprint)),
        ),
        ("host_secs", Json::from(host_secs)),
    ])
}

pub fn lockfree_sweeps(_quick: bool) -> Json {
    let mut per_pair = Vec::new();
    for structure in [LfStructure::Stack, LfStructure::Hash] {
        for policy in [FlushPolicy::FlushOnCommit, FlushPolicy::FlushOnFail] {
            let (report, host) = timed(|| sweep_lockfree(structure, policy, SEED));
            eprintln!(
                "  sweep   {:<5} {:<3} {:>9} schedules, {:>9} crash points \
                 ({} completed / {} not-started / {} resolved) ({host:.2}s host)",
                structure.label(),
                policy.label(),
                report.schedules,
                report.crash_points,
                report.completed,
                report.not_started,
                report.resolved,
            );
            per_pair.push((
                format!("{}_{}", structure.label(), policy.label()),
                lockfree_json(&report, host),
            ));
        }
    }
    Json::object([("seed", Json::from(SEED)), ("by_pair", Json::Obj(per_pair))])
}

// ---- Group-decided 2PC (BENCH_PR10.json) ----

/// Eight shards, so four coordinators' two-participant transfers can
/// genuinely overlap, and a deep account pool, so buffered write sets
/// stay disjoint long enough for real groups to form; every transfer
/// spans two shards.
fn group_transfers(quick: bool, coordinators: usize, decision_group: usize) -> CrossShardKvBench {
    CrossShardKvBench {
        shards: 8,
        accounts_per_shard: 64,
        coordinators,
        decision_group,
        ..transfers(quick, 1.0)
    }
}

/// One measured cell of the group-decided sweep.
struct GroupCell {
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

fn group_cell(quick: bool, config: HeapConfig, coordinators: usize, group: usize) -> GroupCell {
    let report = group_transfers(quick, coordinators, group)
        .run(config, SEED)
        .expect("transfer run");
    assert!(report.balance_conserved, "{config}: balance must conserve");
    let coordinator_ns = report.coordinator_ns.as_secs_f64() * 1e9;
    GroupCell {
        coordinator_ns,
        coord_txns_per_sec: report.transfers as f64 / (coordinator_ns / 1e9).max(1e-12),
        wall_ns: report.wall.as_secs_f64() * 1e9,
        decision_groups: report.decision_groups,
        committed: report.committed,
    }
}

/// Gate: coordinator-path throughput of the headline group size over
/// group 1, both with two coordinators so only the group size differs.
pub fn gate_group_batching() -> f64 {
    group_cell(true, HeapConfig::FocUndo, 2, GROUP).coord_txns_per_sec
        / group_cell(true, HeapConfig::FocUndo, 2, 1).coord_txns_per_sec
}

/// Gate: simulated-wall-clock speedup of four coordinators over one at
/// the headline group size.
pub fn gate_coordinator_speedup() -> f64 {
    group_cell(true, HeapConfig::FocUndo, 1, GROUP).wall_ns
        / group_cell(true, HeapConfig::FocUndo, 4, GROUP).wall_ns
}

pub fn group_sweep(quick: bool) -> Json {
    let mut per_config = Vec::new();
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let mut rows = Vec::new();
        for group in GROUPS {
            let cell = group_cell(quick, config, 2, group);
            let bench = group_transfers(quick, 2, group);
            let host = best_rate(HOST_REPS, bench.transfers as f64, || {
                bench.run(config, SEED).expect("transfer run");
            });
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
    let bench = group_transfers(quick, 2, 1);
    Json::object([
        ("shards", Json::from(bench.shards as u64)),
        ("transfers", Json::from(bench.transfers as u64)),
        (
            "accounts_per_shard",
            Json::from(bench.accounts_per_shard as u64),
        ),
        ("coordinators", Json::from(2u64)),
        ("cross_shard_pct", Json::from(100u64)),
        ("seed", Json::from(SEED)),
        ("sweep", Json::Obj(per_config)),
    ])
}

pub fn coordinator_sweep(quick: bool) -> Json {
    let base = group_cell(quick, HeapConfig::FocUndo, COORDS[0], GROUP);
    let mut rows = Vec::new();
    for coordinators in COORDS {
        let cell = group_cell(quick, HeapConfig::FocUndo, coordinators, GROUP);
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
        ("decision_group", Json::from(GROUP as u64)),
        ("rows", Json::Arr(rows)),
    ])
}
