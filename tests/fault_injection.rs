//! The fault-injection engine, driven end to end: every save-path
//! crash point on both testbeds at both loads, and every
//! mid-transaction crash point in every heap configuration, across
//! randomized seeds under the deterministic harness.

use wsp_det::{gen, Forall};
use wsp_repro::machine::{Machine, SystemLoad};
use wsp_repro::obs;
use wsp_repro::pheap::HeapConfig;
use wsp_repro::wsp::{
    ladder_crash_points, save_path_crash_points, sweep_mid_transaction, sweep_recovery_ladder,
    sweep_save_path, LadderFault, LadderRung, RecoveryOutcome, RestartStrategy, SaveFault,
    SaveStep, FLUSH_BATCHES,
};

/// The sweep enumerates one point per Figure-4 step (the ACPI suspend
/// step only on the strawman strategy), one per cache-flush batch, and
/// one ultracap brown-out per NVDIMM module.
#[test]
fn crash_point_enumeration_is_exhaustive() {
    let machine = Machine::intel_testbed();
    let modules = machine.nvram().dimms().len();
    let points = save_path_crash_points(RestartStrategy::RestorePathReinit, modules);
    assert_eq!(points.len(), 9 + FLUSH_BATCHES + modules);
    // Every injectable Figure-4 step is present.
    for step in [
        SaveStep::PowerFailInterrupt,
        SaveStep::InterruptAllProcessors,
        SaveStep::SaveContexts,
        SaveStep::FlushCaches,
        SaveStep::HaltOthers,
        SaveStep::SetupResumeBlock,
        SaveStep::MarkImageValid,
        SaveStep::InitiateNvdimmSave,
        SaveStep::Halt,
    ] {
        assert!(points.contains(&SaveFault::BeforeStep(step)), "{step:?}");
    }
}

/// The all-or-nothing invariant holds at every crash point on both
/// testbeds, at both loads, for randomized sentinel seeds. The sweep
/// itself panics on any violation; exactly one injection point (power
/// dying after the NVDIMM arm) may recover locally.
#[test]
fn save_path_sweep_holds_across_testbeds_loads_and_seeds() {
    Forall::new(gen::triple(
        gen::any::<u64>(),
        gen::any::<bool>(),
        gen::any::<bool>(),
    ))
    .cases(8)
    .check(|&(seed, intel, busy)| {
        let make = if intel {
            Machine::intel_testbed
        } else {
            Machine::amd_testbed
        };
        let load = if busy {
            SystemLoad::Busy
        } else {
            SystemLoad::Idle
        };
        let report = sweep_save_path(make, load, RestartStrategy::RestorePathReinit, seed);
        assert_eq!(report.locally_restored, 1);
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.locally_restored == o.fault.recoverable()));
    });
}

/// Every heap configuration survives a crash after every prefix of an
/// open transaction, across seeds: FoC+STM and FoF+STM never leak
/// buffered writes, FoC+UL and FoF+UL roll back from the undo log, and
/// the plain FoF heap keeps exactly the prefix that ran.
#[test]
fn mid_transaction_sweep_holds_for_every_config_and_seed() {
    Forall::new(gen::any::<u64>()).cases(6).check(|&seed| {
        for config in HeapConfig::all() {
            let report = sweep_mid_transaction(config, seed);
            assert!(report.crash_points >= 2, "{config}");
        }
    });
}

/// The ladder sweep enumerates every degraded-mode fault class: glitch
/// storms, both window shortfalls, a mid-save brown-out, aged cells,
/// save-command flakes and dead commands, a crash at each recovery
/// rung, plus a torn save and a cell brown-out per NVDIMM module.
#[test]
fn ladder_fault_enumeration_is_exhaustive() {
    let machine = Machine::intel_testbed();
    let modules = machine.nvram().dimms().len();
    let points = ladder_crash_points(modules);
    assert_eq!(points.len(), 11 + 2 * modules);
    for fault in [
        LadderFault::GlitchStorm { dips: 3 },
        LadderFault::WindowShortfall { fatal: false },
        LadderFault::WindowShortfall { fatal: true },
        LadderFault::BrownOutMidSave,
        LadderFault::AgedUltracap { cycles: 150_000 },
        LadderFault::SaveCommandFlake {
            module: 0,
            failures: 2,
        },
        LadderFault::SaveCommandStuck { module: 0 },
        LadderFault::CrashDuringRestore {
            rung: LadderRung::LocalWsp,
        },
        LadderFault::CrashDuringRestore {
            rung: LadderRung::HeapLogReplay,
        },
        LadderFault::CrashDuringRestore {
            rung: LadderRung::ClusterRebuild,
        },
    ] {
        assert!(points.contains(&fault), "{fault:?}");
    }
    for module in 0..modules {
        assert!(points.contains(&LadderFault::TornSave { module }));
        assert!(points.contains(&LadderFault::UltracapBrownOut { module }));
    }
}

/// The degraded-mode contract holds for every fault class on both
/// testbeds, at both loads, across randomized seeds: the sweep itself
/// panics on any violation, so reaching the count assertions means
/// every injection ended in `Recovered` or a typed `Degraded` verdict —
/// zero panics, zero data loss without detection. Exactly the two
/// glitch storms are absorbed without an outage, and exactly four
/// classes recover (the partial-window save via log replay, the
/// save-command flake, and the crashes during the two recovering
/// rungs); every other class degrades with the loss quantified.
#[test]
fn recovery_ladder_sweep_holds_across_testbeds_loads_and_seeds() {
    Forall::new(gen::triple(
        gen::any::<u64>(),
        gen::any::<bool>(),
        gen::any::<bool>(),
    ))
    .cases(6)
    .check(|&(seed, intel, busy)| {
        let make = if intel {
            Machine::intel_testbed
        } else {
            Machine::amd_testbed
        };
        let load = if busy {
            SystemLoad::Busy
        } else {
            SystemLoad::Idle
        };
        let report = sweep_recovery_ladder(make, load, seed);
        assert_eq!(report.glitches_ignored, 2);
        assert_eq!(report.recovered, 4);
        assert_eq!(
            report.recovered + report.degraded + report.glitches_ignored,
            report.outcomes.len()
        );
        for point in &report.outcomes {
            match (&point.outcome, point.fault) {
                (None, LadderFault::GlitchStorm { .. }) => {}
                (None, fault) => panic!("{fault:?} produced no recovery outcome"),
                (Some(RecoveryOutcome::Recovered { .. }), _) => {}
                (Some(RecoveryOutcome::Degraded { rung, reason, .. }), fault) => {
                    assert_eq!(*rung, LadderRung::ClusterRebuild, "{fault:?}");
                    assert!(!reason.is_empty(), "{fault:?}: untyped degradation");
                }
            }
        }
    });
}

/// Bitwise reproducibility: the same seed yields an identical sweep —
/// outcome by outcome — on repeated runs, regardless of how
/// `WSP_FAULTSIM_THREADS` shards the points (per-point PRNGs are split
/// serially before dispatch, so sharding cannot perturb them).
#[test]
fn recovery_ladder_sweep_is_reproducible() {
    let a = sweep_recovery_ladder(Machine::intel_testbed, SystemLoad::Busy, 0xd15ea5e);
    let b = sweep_recovery_ladder(Machine::intel_testbed, SystemLoad::Busy, 0xd15ea5e);
    assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.glitches_ignored, b.glitches_ignored);
}

/// The cross-shard 2PC sweep covers every protocol-step family —
/// coordinator-side and shard-side — and every point lands on one of
/// the two legal verdicts (plus exactly one typed degraded shard for
/// the lost-image point). ISSUE acceptance: at least six distinct
/// families, all-or-nothing everywhere.
#[test]
fn cross_shard_sweep_covers_every_protocol_step() {
    use wsp_repro::wsp::{sweep_cross_shard_2pc, TxnPointVerdict};

    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        for seed in [7u64, 42] {
            let report = sweep_cross_shard_2pc(config, seed);
            let families = report.families();
            assert!(
                families.len() >= 6,
                "{config} seed {seed}: only {families:?}"
            );
            for family in [
                "group-boundary",
                "interleaved-split",
                "torn-group-record",
                "coord-pre-prepare",
                "between-prepares",
                "post-prepare-no-decision",
                "post-decision-pre-commit",
                "between-shard-commits",
                "shard-mid-prepare",
                "shard-mid-commit",
                "shard-image-lost",
            ] {
                assert!(families.contains(&family), "{config} seed {seed}: {family}");
            }
            // Every point resolved all-or-nothing per transaction (the
            // in-sweep asserts already checked cell contents); the
            // verdict accounting is structural: pre-decision points
            // abort, post-decision points commit, exactly one lost
            // image degrades, and every interleaved prefix seal splits.
            assert_eq!(report.outcomes.len(), report.crash_points, "{config}");
            assert_eq!(
                report.committed + report.aborted + report.degraded + report.split,
                report.crash_points,
                "{config} seed {seed}"
            );
            assert_eq!(report.degraded, 1, "{config} seed {seed}");
            assert!(report.split > 0, "{config} seed {seed}");
            for (point, verdict) in &report.outcomes {
                match verdict {
                    TxnPointVerdict::CommittedEverywhere => {
                        assert!(point.decision_durable(), "{config}: {point:?}");
                    }
                    TxnPointVerdict::AbortedEverywhere => {
                        assert!(!point.decision_durable(), "{config}: {point:?}");
                    }
                    TxnPointVerdict::DegradedShard { .. } => {
                        assert_eq!(point.family(), "shard-image-lost", "{config}");
                    }
                    TxnPointVerdict::SplitResolved { committed, aborted } => {
                        assert_eq!(point.family(), "interleaved-split", "{config}");
                        assert!(*committed > 0 && *aborted > 0, "{config}: {point:?}");
                    }
                }
            }
        }
    }
}

/// The cross-shard sweep is deterministic for a given seed and varies
/// across seeds only in payload values, never in structure.
#[test]
fn cross_shard_sweep_is_reproducible() {
    use wsp_repro::wsp::sweep_cross_shard_2pc;

    let a = sweep_cross_shard_2pc(HeapConfig::FocUndo, 4242);
    let b = sweep_cross_shard_2pc(HeapConfig::FocUndo, 4242);
    assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
    assert_eq!(a.metrics.first_difference(&b.metrics), None);
    Forall::new(gen::any::<u64>()).cases(4).check(|&seed| {
        let r = sweep_cross_shard_2pc(HeapConfig::FocStm, seed);
        assert_eq!(r.families().len(), 11, "seed {seed}");
        assert_eq!(r.degraded, 1, "seed {seed}");
    });
}

/// The power-storm sweep: 6 storms (3 rung phases x 2 triage biases) of
/// 27 sequential micro-outages each, every one landing mid-recovery of
/// the one before. Coverage must be total — every global-triage
/// decision point cut at least once, every recovery rung interrupted —
/// and survival absolute: every sacrificed shard-epoch rebuilt, every
/// committed cross-shard transaction present afterwards (the sweep
/// panics internally on any lost cell or divergent re-climb).
#[test]
fn power_storm_survives_with_full_triage_coverage() {
    use wsp_repro::wsp::{domain_decision_points, sweep_power_storm};

    let seed = std::env::var("WSP_DET_SEED")
        .ok()
        .map_or(42, |v| v.parse().expect("WSP_DET_SEED must be a u64"));
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let report = sweep_power_storm(config, seed);
        assert_eq!(report.points.len(), 6, "{config}");
        assert_eq!(
            report.decision_cuts_covered,
            domain_decision_points(3),
            "{config} seed {seed}: every triage decision point crashed"
        );
        assert_eq!(report.crash_rungs_covered, 3, "{config} seed {seed}");
        for point in &report.points {
            let stats = &point.stats;
            assert!(stats.outages >= 24, "{config}: {:?}", point.point);
            assert!(stats.complete > 0, "{config}: {:?}", point.point);
            assert!(stats.partial > 0, "{config}: {:?}", point.point);
            assert!(stats.sacrificed > 0, "{config}: {:?}", point.point);
            assert_eq!(
                stats.rebuilt, stats.sacrificed,
                "{config}: {:?}: a sacrifice without a rebuild",
                point.point
            );
            assert!(
                stats.coordinator_shard_sacrifices >= 3,
                "{config}: {:?}: the coordinator's own shard was sacrificed \
                 with transactions in doubt",
                point.point
            );
            assert!(stats.presumed_aborts > 0, "{config}: {:?}", point.point);
            assert!(stats.rerouted_writes > 0, "{config}: {:?}", point.point);
            assert!(
                stats.reclimbs_verified > 0,
                "{config}: {:?}: interrupted recoveries re-climbed",
                point.point
            );
        }
    }
}

/// The multi-seed soak the roadmap's verify gate runs: full coverage
/// and a clean survival verdict on every seed, for the workload-level
/// driver too.
#[test]
fn power_storm_soak_scorecard_survives() {
    use wsp_repro::workloads::PowerStormBench;

    let report = PowerStormBench::quick(HeapConfig::FocUndo).run();
    assert!(report.survived);
    assert_eq!(report.rebuilt, report.sacrificed);
    assert!(report.rerouted_writes > 0);
    assert!(report.coordinator_shard_sacrifices > 0);
}

// ---- sweep digest corpus ------------------------------------------------

/// FNV-1a over a string: a stable, dependency-free digest for the
/// corpus lines below.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One corpus line for one sweep run, identified by sweep, case
/// (testbed or heap configuration) and seed: crash points, a digest of
/// the outcome list's `Debug` form (the summary fields for sweeps that
/// only assert), the merged trace's event count and JSONL digest, and
/// the merged metrics' JSON digest.
fn digest_line(
    (sweep, case, seed): (&str, &str, u64),
    crash_points: usize,
    outcomes: &dyn std::fmt::Debug,
    trace: &obs::Trace,
    metrics: &obs::MetricsSnapshot,
) -> String {
    format!(
        "{{\"sweep\":\"{sweep}\",\"case\":\"{case}\",\"seed\":{seed},\"crash_points\":{crash_points},\
         \"outcomes\":\"{:016x}\",\"events\":{},\"trace\":\"{:016x}\",\"metrics\":\"{:016x}\"}}\n",
        fnv(&format!("{outcomes:?}")),
        trace.len(),
        fnv(&obs::trace_to_jsonl(trace)),
        fnv(&metrics.to_json()),
    )
}

/// A save-path or ladder testbed: corpus label, machine, load.
type Testbed = (&'static str, fn() -> Machine, SystemLoad);

/// Every corpus line, in a fixed order: the five crash sweeps and the
/// power-storm sweep at seeds 7 and 42, per testbed or heap
/// configuration.
fn sweep_digest_corpus() -> String {
    use wsp_repro::wsp::{sweep_cross_shard_2pc, sweep_mid_epoch, sweep_power_storm};

    let testbeds: [Testbed; 2] = [
        ("intel_busy", Machine::intel_testbed, SystemLoad::Busy),
        ("amd_idle", Machine::amd_testbed, SystemLoad::Idle),
    ];
    let foc = [HeapConfig::FocUndo, HeapConfig::FocStm];
    let mut out = String::new();
    for seed in [7u64, 42] {
        for (case, make, load) in testbeds {
            let r = sweep_save_path(make, load, RestartStrategy::RestorePathReinit, seed);
            let id = ("save_path", case, seed);
            out += &digest_line(id, r.outcomes.len(), &r.outcomes, &r.trace, &r.metrics);
        }
        for config in HeapConfig::all() {
            let r = sweep_mid_transaction(config, seed);
            let id = ("mid_transaction", &*format!("{config:?}"), seed);
            let summary = (r.config, r.crash_points);
            out += &digest_line(id, r.crash_points, &summary, &r.trace, &r.metrics);
        }
        for config in foc {
            let r = sweep_mid_epoch(config, seed);
            let id = ("mid_epoch", &*format!("{config:?}"), seed);
            let summary = (r.config, r.epoch_size, r.crash_points);
            out += &digest_line(id, r.crash_points, &summary, &r.trace, &r.metrics);
        }
        for config in foc {
            let r = sweep_cross_shard_2pc(config, seed);
            let id = ("cross_shard_2pc", &*format!("{config:?}"), seed);
            out += &digest_line(id, r.crash_points, &r.outcomes, &r.trace, &r.metrics);
        }
        for (case, make, load) in testbeds {
            let r = sweep_recovery_ladder(make, load, seed);
            let id = ("recovery_ladder", case, seed);
            out += &digest_line(id, r.outcomes.len(), &r.outcomes, &r.trace, &r.metrics);
        }
        for config in foc {
            let r = sweep_power_storm(config, seed);
            let id = ("power_storm", &*format!("{config:?}"), seed);
            out += &digest_line(id, r.points.len(), &r.points, &r.trace, &r.metrics);
        }
    }
    out
}

/// Pins each sweep's outcomes, merged trace and merged metrics across
/// commits (and, run under different `WSP_FAULTSIM_THREADS` values,
/// across worker counts). Re-record after an intentional change with
/// `WSP_UPDATE_GOLDEN=1 cargo test --test fault_injection sweep_digests`.
#[test]
fn sweep_digests_are_pinned() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/sweep_digests.jsonl");
    let got = sweep_digest_corpus();
    if obs::update_mode() {
        std::fs::write(&path, &got).expect("record sweep digests");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing corpus {} ({e}); record with WSP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "sweep digest line {} diverged", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "sweep digest line count"
    );
}
