//! The paper's headline quantitative claims, asserted against the
//! reproduction at reduced (but shape-preserving) scale. Each test names
//! the claim it checks.

use wsp_repro::cache::{CpuProfile, FlushAnalysis, FlushMethod};
use wsp_repro::cluster::ClusterSpec;
use wsp_repro::machine::{Machine, SystemLoad};
use wsp_repro::obs::{self, Ctr, Gauge, Hist};
use wsp_repro::pheap::{HeapConfig, PersistentHeap};
use wsp_repro::power::Psu;
use wsp_repro::units::{ByteSize, Nanos, Watts};
use wsp_repro::wsp::{
    clean_failure_trace, feasibility_matrix, supervised_save, SaveBudget, SaveVerdict,
};
use wsp_repro::workloads::{HashBenchmark, LdapBenchmark};

fn hash_bench() -> HashBenchmark {
    HashBenchmark {
        prepopulate: 20_000,
        ops: 60_000,
        region: ByteSize::mib(64),
    }
}

/// Abstract: "this approach has 1.6–13 times better runtime performance
/// than a persistent heap" — the ratio band of Figure 5.
#[test]
fn abstract_claim_1_6_to_13x() {
    let bench = hash_bench();
    let fof = |p: f64| bench.run(HeapConfig::Fof, p, 1).unwrap().time_per_op;
    let lo = bench.run(HeapConfig::FocUndo, 0.0, 1).unwrap().time_per_op;
    let hi = bench.run(HeapConfig::FocStm, 1.0, 1).unwrap().time_per_op;
    let low_ratio = lo.as_nanos() as f64 / fof(0.0).as_nanos() as f64;
    let high_ratio = hi.as_nanos() as f64 / fof(1.0).as_nanos() as f64;
    assert!(
        (1.3..2.2).contains(&low_ratio),
        "cheapest persistent config ~1.6x: got {low_ratio:.2}"
    );
    assert!(
        (9.0..17.0).contains(&high_ratio),
        "most expensive ~13x: got {high_ratio:.2}"
    );
}

/// §5.1: "the FoC + STM configuration is 6–13x slower than FoF", growing
/// with the update ratio.
#[test]
fn foc_stm_six_to_thirteen_x() {
    let bench = hash_bench();
    let mut last = 0.0f64;
    for p in [0.0, 0.5, 1.0] {
        let foc = bench.run(HeapConfig::FocStm, p, 2).unwrap().time_per_op;
        let fof = bench.run(HeapConfig::Fof, p, 2).unwrap().time_per_op;
        let ratio = foc.as_nanos() as f64 / fof.as_nanos() as f64;
        assert!(
            (4.5..17.0).contains(&ratio),
            "p={p}: ratio {ratio:.1} outside the paper band"
        );
        assert!(ratio > last, "penalty must grow with update ratio");
        last = ratio;
    }
}

/// §5.1: read-only FoC + UL overhead is ~60% (transactional-context
/// creation dominates short read-only operations).
#[test]
fn foc_undo_read_only_overhead_sixty_percent() {
    let bench = hash_bench();
    let ul = bench.run(HeapConfig::FocUndo, 0.0, 3).unwrap().time_per_op;
    let fof = bench.run(HeapConfig::Fof, 0.0, 3).unwrap().time_per_op;
    let overhead = ul.as_nanos() as f64 / fof.as_nanos() as f64 - 1.0;
    assert!(
        (0.35..0.95).contains(&overhead),
        "read-only undo overhead ~60%: got {:.0}%",
        overhead * 100.0
    );
}

/// Table 1: WSP ~2.4x Mnemosyne on the OpenLDAP insert workload.
#[test]
fn table1_wsp_2_4x_mnemosyne() {
    let bench = LdapBenchmark {
        entries: 4_000,
        region: ByteSize::mib(32),
        per_op_overhead: Nanos::new(10_000),
    };
    let mnemosyne = bench.run(HeapConfig::FocStm, 4).unwrap();
    let wsp = bench.run(HeapConfig::Fof, 4).unwrap();
    let speedup = wsp.updates_per_sec / mnemosyne.updates_per_sec;
    assert!(
        (1.8..3.2).contains(&speedup),
        "paper: 2.4x; got {speedup:.2}x"
    );
}

/// Table 2 + §5.3: worst-case flushes of 1.3–2.8 ms, always under 5 ms,
/// and 2.5–80x smaller than the measured windows.
#[test]
fn save_times_within_windows() {
    for profile in CpuProfile::paper_testbeds() {
        let t = FlushAnalysis::new(profile.clone())
            .state_save_time(FlushMethod::Wbinvd, profile.machine_cache());
        assert!(t.as_millis_f64() < 5.0, "{}: {t}", profile.name);
    }
    for row in feasibility_matrix() {
        let ratio = row.window.as_secs_f64() / row.save_time.as_secs_f64();
        assert!(
            (2.5..400.0).contains(&ratio),
            "{} + {}: window/save {ratio:.1}",
            row.machine,
            row.psu
        );
    }
}

/// Abstract: "flush-on-fail can complete safely within 2–35% of the
/// residual energy window" (we allow the AMD 400 W unit's roomier
/// window to push below 2%).
#[test]
fn save_fraction_band() {
    for row in feasibility_matrix() {
        let f = row.fraction.unwrap();
        assert!(f < 0.35, "{} + {}: {f:.3}", row.machine, row.psu);
        assert!(row.fits);
    }
}

/// §5.2: measured windows span 10–400 ms depending on PSU and load.
#[test]
fn fig7_window_range() {
    let mut windows: Vec<f64> = Vec::new();
    for psu in Psu::paper_psus() {
        let loads = if psu.rated.get() >= 700.0 {
            [350.0, 200.0]
        } else {
            [120.0, 60.0]
        };
        for w in loads {
            windows.push(psu.residual_window(Watts::new(w)).as_millis_f64());
        }
    }
    let min = windows.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = windows.iter().cloned().fold(0.0, f64::max);
    assert!((9.0..12.0).contains(&min), "min window {min} ms");
    assert!((300.0..430.0).contains(&max), "max window {max} ms");
}

/// §2: a single 256 GB server at 0.5 GB/s takes over 8 minutes to
/// recover from the back end.
#[test]
fn intro_recovery_arithmetic() {
    let mut spec = ClusterSpec::memcache_tier(1);
    spec.replay_overhead = 1.0;
    assert!(spec.backend_recovery_time(1).as_secs_f64() > 8.0 * 60.0);
}

/// §6 (SCMs): slower-writing memories widen flush-on-fail's advantage —
/// the flush-on-commit penalty grows with the write penalty while the
/// save-path cost grows only with cache size.
#[test]
fn scm_widen_fof_advantage() {
    let bench = HashBenchmark {
        prepopulate: 2_000,
        ops: 6_000,
        region: ByteSize::mib(8),
    };
    let dram_profile = CpuProfile::intel_c5528();
    let scm_profile = CpuProfile::intel_c5528().with_scm(10.0);
    let ratio_on = |profile: CpuProfile| {
        let run = |config| {
            let mut heap = wsp_repro::pheap::PersistentHeap::create_with(
                ByteSize::mib(8),
                config,
                profile.clone(),
            );
            let table = wsp_repro::workloads::PmHashTable::create(&mut heap, 512).unwrap();
            let t0 = heap.elapsed();
            for k in 0..bench.ops {
                table.insert(&mut heap, k % 2_000, k).unwrap();
            }
            (heap.elapsed() - t0).as_nanos() as f64
        };
        run(HeapConfig::FocUndo) / run(HeapConfig::Fof)
    };
    let dram_ratio = ratio_on(dram_profile);
    let scm_ratio = ratio_on(scm_profile);
    assert!(
        scm_ratio > dram_ratio * 1.3,
        "SCM should widen the gap: DRAM {dram_ratio:.1}x vs SCM {scm_ratio:.1}x"
    );
}

/// Builds the small committed heap the supervised-save claims run over.
fn claims_heap() -> PersistentHeap {
    let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FofUndo);
    let mut tx = heap.begin();
    let p = tx.alloc(16).unwrap();
    tx.write_word(p, 1).unwrap();
    tx.set_root(p).unwrap();
    tx.commit().unwrap();
    heap
}

/// Table 3, re-asserted through the observability layer: on every paper
/// testbed and load, the *traced* supervised save — context save,
/// priority flush, bulk cache flush, NVDIMM arm — fits inside the
/// *traced* residual-energy window, using well under the abstract's 35%
/// bound.
#[test]
fn traced_supervised_save_fits_the_residual_window() {
    for make in [Machine::intel_testbed, Machine::amd_testbed] {
        for load in SystemLoad::both() {
            let mut machine = make();
            machine.apply_load(load, 13);
            let name = machine.profile().name.clone();
            let mut heap = claims_heap();
            let ((), cap) = obs::capture(|| {
                let report = supervised_save(
                    &mut machine,
                    &mut heap,
                    load,
                    &clean_failure_trace(),
                    SaveBudget::trusting(),
                )
                .unwrap();
                assert_eq!(report.verdict, SaveVerdict::Complete);
            });
            assert_eq!(cap.metrics.counter(Ctr::SupervisedComplete), 1);
            let window = cap.metrics.gauge(Gauge::ResidualWindow);
            assert!(window > 0, "{name} {}", load.label());
            let used = cap.metrics.hist(Hist::SupervisorUsed).max().as_nanos() as i64;
            assert!(used <= window, "{name} {}: used {used} > window {window}", load.label());
            assert!(
                (used as f64) < 0.35 * window as f64,
                "{name} {}: {:.1}% of the window",
                load.label(),
                100.0 * used as f64 / window as f64
            );
            // Both flush stages are individually metered and together
            // stay inside the total the supervisor reported.
            let stages = cap.metrics.hist(Hist::StageA).max() + cap.metrics.hist(Hist::StageB).max();
            assert!(stages.as_nanos() as i64 <= used, "{name} {}", load.label());
        }
    }
}

/// §4's staging contract, visible in the event stream: the heap's
/// priority lines (log + metadata) are flushed in stage A strictly
/// before the bulk stage-B flush runs, and the line counts show up in
/// the counters.
#[test]
fn priority_lines_flush_first_in_the_trace() {
    let mut machine = Machine::intel_testbed();
    machine.apply_load(SystemLoad::Busy, 17);
    let mut heap = claims_heap();
    let ((), cap) = obs::capture(|| {
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget::trusting(),
        )
        .unwrap();
        assert_eq!(report.verdict, SaveVerdict::Complete);
    });
    let events = cap.trace.events();
    let pos = |sub: &str, name: &str| {
        events
            .iter()
            .position(|e| e.subsystem == sub && e.name == name)
            .unwrap_or_else(|| panic!("no {sub}/{name} event in the save trace"))
    };
    let priority = pos("pheap", "priority_flush");
    let stage_a = pos("supervisor", "stage_a_flushed");
    let stage_b = pos("supervisor", "stage_b_flushed");
    assert!(
        priority < stage_a && stage_a < stage_b,
        "staging order: priority_flush@{priority}, stage_a@{stage_a}, stage_b@{stage_b}"
    );
    assert_eq!(cap.metrics.counter(Ctr::PriorityFlushes), 1);
    assert!(cap.metrics.counter(Ctr::PriorityLinesFlushed) > 0);
}
