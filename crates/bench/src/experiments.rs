//! One driver per paper table/figure, returning structured results.

use wsp_det::{DetRng, Rng};
use wsp_cache::{CpuProfile, FlushAnalysis, FlushMethod};
use wsp_cluster::{AvailabilityReport, ClusterSpec, FleetTimeline, OutageScenario, StormReport};
use wsp_core::{feasibility_matrix, CapacitanceTradeoff, FeasibilityRow, RestartStrategy, TradeoffPoint};
use wsp_machine::{DeviceModel, HybridMemory, Machine, PlacementPolicy, SystemLoad};
use wsp_nvram::{NvDimm, SaveTracePoint};
use wsp_power::{AgingModel, EnergyCell, Oscilloscope, Psu, ScopeTrace};
use wsp_pheap::{HeapConfig, HeapError, PersistentHeap};
use wsp_units::{ByteSize, Nanos, OnlineStats, Summary, Watts};
use wsp_workloads::{
    HashBenchmark, LdapBenchmark, PmAvlTree, PmBTree, PmHashTable, YcsbDriver, YcsbMix, YcsbResult,
};

/// One row of Table 1 (OpenLDAP update throughput).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// System label ("Mnemosyne" / "WSP").
    pub system: &'static str,
    /// Heap configuration used.
    pub config: HeapConfig,
    /// Updates/s over the runs (mean, stdev, min, max).
    pub throughput: Summary,
}

/// Table 1: insert `entries` random directory entries, `runs` times per
/// system, single-threaded closed-loop.
pub fn table1(entries: u64, runs: u32) -> Vec<Table1Row> {
    let bench = LdapBenchmark {
        entries,
        ..LdapBenchmark::paper()
    };
    let systems = [
        ("Mnemosyne", HeapConfig::FocStm),
        ("WSP", HeapConfig::Fof),
    ];
    systems
        .iter()
        .map(|&(system, config)| {
            let stats: OnlineStats = (0..runs)
                .map(|seed| {
                    bench
                        .run(config, u64::from(seed) + 1)
                        .expect("benchmark runs")
                        .updates_per_sec
                })
                .collect();
            Table1Row {
                system,
                config,
                throughput: stats.summary(),
            }
        })
        .collect()
}

/// One row of Table 2 (worst-case cache flush times).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Machine label.
    pub machine: String,
    /// `wbinvd` with every line dirty.
    pub wbinvd: Nanos,
    /// Back-to-back `clflush` of every line.
    pub clflush: Nanos,
    /// Theoretical best (cache bytes at memory bandwidth).
    pub theoretical_best: Nanos,
}

/// Table 2: worst-case flush times for the two testbeds.
#[must_use]
pub fn table2() -> Vec<Table2Row> {
    [CpuProfile::intel_c5528(), CpuProfile::amd_4180()]
        .into_iter()
        .map(|p| {
            let a = FlushAnalysis::new(p);
            Table2Row {
                machine: a.profile().name.clone(),
                wbinvd: a.worst_case(FlushMethod::Wbinvd),
                clflush: a.worst_case(FlushMethod::Clflush),
                theoretical_best: a.worst_case(FlushMethod::TheoreticalBest),
            }
        })
        .collect()
}

/// One point of Figure 1 (capacitance fade vs charge/discharge cycles).
#[derive(Debug, Clone, Copy)]
pub struct Fig1Point {
    /// Cycles at elevated temperature and voltage.
    pub cycles: u64,
    /// Ultracap best case, % of fresh capacitance.
    pub ultracap_best: f64,
    /// Ultracap worst case / data-sheet value.
    pub ultracap_worst: f64,
    /// Rechargeable battery, for contrast.
    pub battery: f64,
}

/// Figure 1: aging sweep to 100 k cycles.
#[must_use]
pub fn fig1() -> Vec<Fig1Point> {
    [0u64, 100, 300, 1_000, 3_000, 10_000, 30_000, 60_000, 100_000]
        .into_iter()
        .map(|cycles| Fig1Point {
            cycles,
            ultracap_best: AgingModel::UltracapBest.capacity_fraction(cycles) * 100.0,
            ultracap_worst: AgingModel::UltracapWorst.capacity_fraction(cycles) * 100.0,
            battery: AgingModel::Battery.capacity_fraction(cycles) * 100.0,
        })
        .collect()
}

/// Figure 2: voltage and power on a 1 GiB NVDIMM's ultracap during a
/// save, sampled every `step`.
#[must_use]
pub fn fig2(step: Nanos) -> Vec<SaveTracePoint> {
    NvDimm::agiga(ByteSize::gib(1)).save_trace(step)
}

/// One point of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Heap configuration.
    pub config: HeapConfig,
    /// Update probability.
    pub update_probability: f64,
    /// Time per operation in nanoseconds (mean/min/max over runs).
    pub time_per_op_ns: Summary,
}

/// Figure 5 sweep parameters.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Pre-populated entries.
    pub prepopulate: u64,
    /// Measured operations per run.
    pub ops: u64,
    /// Runs per point (paper: 10, with min-max error bars).
    pub runs: u32,
    /// Update probabilities to sweep.
    pub probs: Vec<f64>,
}

impl Fig5Config {
    /// The paper's configuration (slow: ~55 M simulated operations).
    #[must_use]
    pub fn paper() -> Self {
        Fig5Config {
            prepopulate: 100_000,
            ops: 1_000_000,
            runs: 10,
            probs: (0..=10).map(|i| f64::from(i) / 10.0).collect(),
        }
    }

    /// A faster sweep preserving the shape.
    #[must_use]
    pub fn quick() -> Self {
        Fig5Config {
            prepopulate: 20_000,
            ops: 100_000,
            runs: 3,
            probs: vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        }
    }
}

/// Figure 5: the hash-table microbenchmark across all five heap
/// configurations.
pub fn fig5(cfg: &Fig5Config) -> Vec<Fig5Point> {
    let bench = HashBenchmark {
        prepopulate: cfg.prepopulate,
        ops: cfg.ops,
        region: ByteSize::mib(64),
    };
    let mut out = Vec::new();
    for config in HeapConfig::all() {
        for &p in &cfg.probs {
            let stats: OnlineStats = (0..cfg.runs)
                .map(|seed| {
                    bench
                        .run(config, p, u64::from(seed) * 7 + 1)
                        .expect("benchmark runs")
                        .time_per_op
                        .as_nanos() as f64
                })
                .collect();
            out.push(Fig5Point {
                config,
                update_probability: p,
                time_per_op_ns: stats.summary(),
            });
        }
    }
    out
}

/// Figure 6: the oscilloscope capture on the Intel testbed (1050 W PSU,
/// busy) and the window the paper's detector reports.
#[must_use]
pub fn fig6() -> (ScopeTrace, Option<Nanos>) {
    let scope = Oscilloscope::at_100khz();
    let trace = scope.capture(&Psu::atx_1050w(), Watts::new(350.0), Nanos::from_millis(100));
    let window = trace.measured_window();
    (trace, window)
}

/// One bar of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Testbed label.
    pub testbed: &'static str,
    /// PSU label.
    pub psu: String,
    /// Load label.
    pub load: &'static str,
    /// Worst (lowest) window over the runs.
    pub window: Nanos,
}

/// Figure 7: residual windows for the four PSU/testbed pairings, worst
/// of `runs` measurements with ±3 % load jitter (the paper reports the
/// worst of 3).
pub fn fig7(runs: u32) -> Vec<Fig7Row> {
    let mut rng = DetRng::seed_from_u64(7);
    let cases: Vec<(&'static str, Psu, f64, f64)> = vec![
        ("AMD", Psu::atx_400w(), 120.0, 60.0),
        ("AMD", Psu::atx_525w(), 120.0, 60.0),
        ("Intel", Psu::atx_750w(), 350.0, 200.0),
        ("Intel", Psu::atx_1050w(), 350.0, 200.0),
    ];
    let mut out = Vec::new();
    for (testbed, psu, busy_w, idle_w) in cases {
        for (load, watts) in [("Busy", busy_w), ("Idle", idle_w)] {
            let worst = (0..runs)
                .map(|_| {
                    let jitter = 1.0 + rng.gen_range(-0.03..0.03);
                    psu.residual_window(Watts::new(watts * jitter))
                })
                .fold(Nanos::MAX, Nanos::min);
            out.push(Fig7Row {
                testbed,
                psu: psu.name.clone(),
                load,
                window: worst,
            });
        }
    }
    out
}

/// One curve of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Series {
    /// Machine label.
    pub machine: String,
    /// (dirty bytes, state save time) points.
    pub points: Vec<(ByteSize, Nanos)>,
}

/// Figure 8: context save + cache flush time vs dirty bytes on the four
/// CPUs (128 B to 16 MiB, doubling).
#[must_use]
pub fn fig8() -> Vec<Fig8Series> {
    CpuProfile::paper_testbeds()
        .into_iter()
        .map(|profile| {
            let analysis = FlushAnalysis::new(profile);
            let mut points = Vec::new();
            let mut dirty = 128u64;
            while dirty <= 16 * 1024 * 1024 {
                let size = ByteSize::new(dirty);
                points.push((
                    size,
                    analysis.state_save_time(FlushMethod::Wbinvd, size),
                ));
                dirty *= 4;
            }
            Fig8Series {
                machine: analysis.profile().name.clone(),
                points,
            }
        })
        .collect()
}

/// One bar of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Testbed label.
    pub testbed: String,
    /// Load label.
    pub load: &'static str,
    /// Total ACPI D3 device save time.
    pub suspend_time: Nanos,
}

/// Figure 9: device state save time (ACPI D3 strawman) on both
/// testbeds, busy and idle.
#[must_use]
pub fn fig9() -> Vec<Fig9Row> {
    let mut out = Vec::new();
    for make in [Machine::amd_testbed, Machine::intel_testbed] {
        for load in SystemLoad::both() {
            let mut machine = make();
            machine.apply_load(load, 9);
            let t: Nanos = machine
                .devices()
                .iter()
                .map(DeviceModel::suspend_time)
                .sum();
            out.push(Fig9Row {
                testbed: machine.profile().name.clone(),
                load: load.label(),
                suspend_time: t,
            });
        }
    }
    out
}

/// §5.4 feasibility: save time as a fraction of the window.
#[must_use]
pub fn feasibility() -> Vec<FeasibilityRow> {
    feasibility_matrix()
}

/// §2/§6 recovery storms: back-end vs WSP recovery for growing
/// correlated failures.
#[must_use]
pub fn recovery_storm() -> Vec<StormReport> {
    let cluster = ClusterSpec::memcache_tier(100);
    [1usize, 10, 50, 100]
        .into_iter()
        .map(|failed| {
            cluster.recovery_report(&OutageScenario::rack_power(Nanos::from_secs(30), failed))
        })
        .collect()
}

/// End-to-end outage drills per restart strategy (save fit, data
/// preserved, downtime).
#[derive(Debug, Clone)]
pub struct DrillRow {
    /// Strategy label.
    pub strategy: &'static str,
    /// Whether the save fit in the residual window.
    pub save_completed: bool,
    /// Whether memory contents survived.
    pub data_preserved: bool,
    /// Local downtime (save + NVDIMM save + restore).
    pub local_downtime: Option<Nanos>,
}

/// Runs a busy-load power-failure drill on the Intel testbed under every
/// restart strategy.
#[must_use]
pub fn strategy_drills() -> Vec<DrillRow> {
    RestartStrategy::all()
        .into_iter()
        .map(|strategy| {
            let mut system = wsp_core::WspSystem::new(Machine::intel_testbed());
            let report = system.power_failure_drill(SystemLoad::Busy, strategy, 21);
            DrillRow {
                strategy: strategy.label(),
                save_completed: report.save.completed,
                data_preserved: report.data_preserved,
                local_downtime: report.restore.is_some().then_some(report.local_downtime),
            }
        })
        .collect()
}

/// Extension: YCSB mixes across the five heap configurations.
pub fn ycsb_matrix(driver: &YcsbDriver) -> Vec<YcsbResult> {
    let mut out = Vec::new();
    for mix in YcsbMix::all() {
        for config in HeapConfig::all() {
            out.push(driver.run(mix, config, 5).expect("driver runs"));
        }
    }
    out
}

/// Extension (paper §6 future work): the capacitance/downtime trade-off
/// curve for a marginal system.
#[must_use]
pub fn capacitance_curve() -> Vec<TradeoffPoint> {
    // A marginal deployment: Intel machine on the tight 750 W supply,
    // high window variance, four outages a year, ten-minute back-end
    // recovery.
    let machine = Machine::intel_testbed().with_psu(wsp_power::Psu::atx_750w());
    let mut tradeoff = CapacitanceTradeoff::for_machine(
        &machine,
        SystemLoad::Busy,
        4.0,
        Nanos::from_secs(600),
    );
    tradeoff.window_spread = 0.95;
    tradeoff.sweep(&[0.0, 0.05, 0.1, 0.25, 0.5, 1.0])
}

/// Extension (paper §6 "Hybrid systems"): placement-policy latency table.
#[must_use]
pub fn hybrid_placement() -> Vec<(PlacementPolicy, Nanos, f64)> {
    let hybrid = HybridMemory::typical(
        wsp_units::ByteSize::gib(32),
        wsp_units::ByteSize::gib(256),
    );
    PlacementPolicy::all()
        .into_iter()
        .map(|p| (p, hybrid.average_latency(p), hybrid.dram_hit_share(p)))
        .collect()
}

/// Extension: a simulated year of fleet power events, back-end-only vs
/// WSP recovery.
#[must_use]
pub fn fleet_year() -> (AvailabilityReport, AvailabilityReport) {
    FleetTimeline::typical_year(2012).compare(&ClusterSpec::memcache_tier(100))
}

/// Ablation (paper §6 "SCM-based NVRAMs"): the Figure-4 state save
/// (`wbinvd` with 6 MiB dirty) on the AMD testbed as SCM write penalty
/// grows, as `(write penalty, save time)` rows. Penalty 1 is DRAM.
#[must_use]
pub fn scm_penalty_ablation() -> Vec<(f64, Nanos)> {
    [1.0, 10.0, 100.0]
        .into_iter()
        .map(|penalty| {
            let analysis = FlushAnalysis::new(CpuProfile::amd_4180().with_scm(penalty));
            (
                penalty,
                analysis.state_save_time(FlushMethod::Wbinvd, ByteSize::mib(6)),
            )
        })
        .collect()
}

/// Ablation (index structure): simulated FoC + STM time to create each
/// persistent index and insert 2 000 keys, as `(structure, time)` rows.
/// The B-tree is the CDDS-style store with two-cache-line nodes.
#[must_use]
pub fn index_structure_ablation() -> Vec<(&'static str, Nanos)> {
    fn timed<T>(
        create: impl FnOnce(&mut PersistentHeap) -> Result<T, HeapError>,
        insert: impl Fn(&T, &mut PersistentHeap, u64) -> Result<Option<u64>, HeapError>,
    ) -> Nanos {
        let mut heap = PersistentHeap::create(ByteSize::mib(8), HeapConfig::FocStm);
        let index = create(&mut heap).expect("index fits the heap");
        for key in 0..2_000 {
            insert(&index, &mut heap, key).expect("2000 keys fit the heap");
        }
        heap.elapsed()
    }
    vec![
        (
            "hash table",
            timed(|h| PmHashTable::create(h, 512), |t, h, k| t.insert(h, k, k)),
        ),
        (
            "AVL tree",
            timed(PmAvlTree::create, |t, h, k| t.insert(h, k, k)),
        ),
        (
            "B-tree",
            timed(PmBTree::create, |t, h, k| t.insert(h, k, k)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_both_testbeds() {
        let rows = table2();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.theoretical_best < r.wbinvd));
    }

    #[test]
    fn fig1_endpoints_match_paper() {
        let points = fig1();
        let last = points.last().unwrap();
        assert_eq!(last.cycles, 100_000);
        assert!(last.ultracap_worst >= 89.5 && last.ultracap_worst <= 91.0);
        assert!(last.battery <= 15.0);
    }

    #[test]
    fn fig7_has_eight_bars_in_paper_range() {
        let rows = fig7(3);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            let ms = r.window.as_millis_f64();
            assert!((8.0..450.0).contains(&ms), "{}: {ms} ms", r.psu);
        }
    }

    #[test]
    fn fig8_curves_are_flat_and_under_5ms() {
        for series in fig8() {
            let first = series.points.first().unwrap().1;
            let last = series.points.last().unwrap().1;
            assert!(last.as_millis_f64() < 5.0, "{}", series.machine);
            let spread = last.as_secs_f64() / first.as_secs_f64();
            assert!(spread < 1.05, "{} not flat", series.machine);
        }
    }

    #[test]
    fn fig9_is_seconds_scale() {
        for row in fig9() {
            let s = row.suspend_time.as_secs_f64();
            assert!((4.5..7.5).contains(&s), "{} {}: {s}", row.testbed, row.load);
        }
    }

    #[test]
    fn strategy_drills_separate_acpi_from_the_rest() {
        let rows = strategy_drills();
        assert_eq!(rows.len(), 4);
        for row in rows {
            if row.strategy.contains("ACPI") {
                assert!(!row.save_completed);
            } else {
                assert!(row.save_completed && row.data_preserved, "{}", row.strategy);
            }
        }
    }

    #[test]
    fn storm_reports_monotone_in_failures() {
        let reports = recovery_storm();
        assert!(reports
            .windows(2)
            .all(|w| w[1].backend_time >= w[0].backend_time));
    }

    #[test]
    fn ablation_tables_have_their_shape() {
        let scm = scm_penalty_ablation();
        assert_eq!(scm.len(), 3);
        assert!(
            scm.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "{scm:?}"
        );
        let index = index_structure_ablation();
        assert_eq!(index.len(), 3);
        assert!(index.iter().all(|(_, t)| *t > Nanos::ZERO), "{index:?}");
    }
}
