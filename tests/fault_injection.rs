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
    sweep_save_path, LadderFault, LadderRung, RecoveryOutcome, RestartStrategy, SaveCrashPoint,
};

/// The sweep cuts power before every durable event of the Figure-4 save
/// (its NVDIMM save command is the only one) and after the last, and
/// drains one ultracap per NVDIMM module, on both testbeds at both
/// loads.
#[test]
fn crash_point_enumeration_is_exhaustive() {
    for make in [Machine::intel_testbed, Machine::amd_testbed] {
        for load in SystemLoad::both() {
            let machine = make();
            let modules = machine.nvram().dimms().len();
            let points = save_path_crash_points(&machine, load, RestartStrategy::RestorePathReinit);
            let cut = |events| SaveCrashPoint::Cut { events };
            let mut want = vec![cut(0), cut(1)];
            want.extend((0..modules).map(|module| SaveCrashPoint::UltracapShortfall { module }));
            assert_eq!(points, want, "{} {load:?}", machine.profile().name);
        }
    }
}

/// The all-or-nothing invariant holds at every crash point on both
/// testbeds, at both loads, for randomized sentinel seeds. The sweep
/// itself panics on any violation; exactly one injection point (power
/// failing after the NVDIMM arm) may recover locally.
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
        let past_arm = SaveCrashPoint::Cut { events: 1 };
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.locally_restored == (o.point == past_arm)));
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
fn mid_commit_sweep_holds_for_foc_configs_and_seeds() {
    use wsp_repro::wsp::sweep_mid_commit;
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        for seed in [7u64, 42, 1337] {
            let report = sweep_mid_commit(config, seed);
            // Each run has at least one record and its marker.
            assert!(report.crash_points > 2 * 6, "{config} seed {seed}: {}", report.crash_points);
        }
    }
}

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

/// Planning a save is not flushing: the ladder sweep's stage-A cost
/// probes run off the trace, so every recorded `pheap priority_flush`
/// event (and every `PriorityFlushes` count) is a live stage A — one
/// per `domain shard_flushed`, none on the glitch points where nothing
/// is touched.
#[test]
fn ladder_sweep_records_only_live_priority_flushes() {
    let r = sweep_recovery_ladder(Machine::intel_testbed, SystemLoad::Busy, 7);
    let events = |subsystem: &str, name: &str| {
        r.trace
            .events()
            .iter()
            .filter(|e| e.subsystem == subsystem && e.name == name)
            .count()
    };
    let live = events("domain", "shard_flushed");
    assert!(live > 0, "the sweep runs stage A somewhere");
    assert_eq!(events("pheap", "priority_flush"), live);
    assert_eq!(r.metrics.counter(obs::Ctr::PriorityFlushes), live as u64);
}

/// Checks the structure of a cross-shard 2PC sweep: every point landed
/// on a legal verdict; in each run nothing is decided before the first
/// durable event, the decided count only grows event by event, and
/// everything is decided after the last; grouped runs that seal a proper
/// prefix first resolve split in between (run `s` in `1..=txns` splits
/// at `s`, the routed run after them at 2); exactly one point — the lost
/// image — degrades.
fn assert_2pc_structure(report: &wsp_repro::wsp::CrossShard2pcReport, at: &str) {
    use wsp_repro::wsp::TxnPointVerdict;

    assert_eq!(report.outcomes.len(), report.crash_points, "{at}");
    assert_eq!(
        report.committed + report.aborted + report.degraded + report.split,
        report.crash_points,
        "{at}"
    );
    let txns = report.txns;
    for run in 0..=txns + 1 {
        let split = if run > txns { 2 } else { run };
        let decided: Vec<usize> = report
            .outcomes
            .iter()
            .filter(|(p, _)| p.run == run && p.lost.is_none())
            .map(|(p, v)| match *v {
                TxnPointVerdict::AbortedEverywhere => 0,
                TxnPointVerdict::CommittedEverywhere => txns,
                TxnPointVerdict::SplitResolved { committed, aborted } => {
                    assert_eq!(committed + aborted, txns, "{at}: {p:?}");
                    committed
                }
                TxnPointVerdict::DegradedShard { .. } => panic!("{at}: {p:?} degraded"),
            })
            .collect();
        assert!(decided.len() > 1, "{at}: run {run} has no points");
        assert_eq!(decided[0], 0, "{at}: run {run} first point");
        assert_eq!(decided[decided.len() - 1], txns, "{at}: run {run} last point");
        assert!(decided.is_sorted(), "{at}: run {run} decided by event {decided:?}");
        if split > 0 && split < txns {
            assert!(decided.contains(&split), "{at}: run {run} never split");
        }
    }
    let degraded: Vec<_> = report
        .outcomes
        .iter()
        .filter(|(_, v)| matches!(v, TxnPointVerdict::DegradedShard { .. }))
        .collect();
    assert_eq!(degraded.len(), 1, "{at}: {degraded:?}");
    assert_eq!(report.degraded, 1, "{at}");
    assert!(degraded[0].0.lost.is_some(), "{at}: {degraded:?}");
}

/// The cross-shard 2PC sweep crashes the whole fleet at every durable
/// event of every run — prepares, decision seals, routing appends and
/// phase-2 markers — and every point lands on a legal, all-or-nothing
/// verdict (the in-sweep asserts already checked cell contents).
#[test]
fn cross_shard_sweep_covers_every_protocol_step() {
    use wsp_repro::wsp::sweep_cross_shard_2pc;

    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        for seed in [7u64, 42] {
            let report = sweep_cross_shard_2pc(config, seed);
            assert_2pc_structure(&report, &format!("{config} seed {seed}"));
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
        assert_2pc_structure(&r, &format!("seed {seed}"));
    });
}

/// The power-storm sweep: 6 storms (3 rung phases x 2 triage biases) of
/// 27 sequential micro-outages each, every one landing mid-recovery of
/// the one before. Coverage must be total — the domain save cut at
/// every storm boundary at least once, every recovery rung interrupted —
/// and survival absolute: every sacrificed shard-epoch rebuilt, every
/// committed cross-shard transaction present afterwards (the sweep
/// panics internally on any lost cell or divergent re-climb).
#[test]
fn power_storm_survives_with_full_triage_coverage() {
    use wsp_repro::wsp::{sweep_power_storm, STORM_BOUNDARIES};

    let seed = std::env::var("WSP_DET_SEED")
        .ok()
        .map_or(42, |v| v.parse().expect("WSP_DET_SEED must be a u64"));
    for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
        let report = sweep_power_storm(config, seed);
        assert_eq!(report.points.len(), 6, "{config}");
        assert_eq!(
            report.decision_cuts_covered,
            STORM_BOUNDARIES,
            "{config} seed {seed}: every storm boundary crashed"
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
/// configuration, then the mid-commit sweep at both seeds.
fn sweep_digest_corpus() -> String {
    use wsp_repro::wsp::{
        sweep_cross_shard_2pc, sweep_mid_commit, sweep_mid_epoch, sweep_power_storm,
    };

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
    for seed in [7u64, 42] {
        for config in foc {
            let r = sweep_mid_commit(config, seed);
            let id = ("mid_commit", &*format!("{config:?}"), seed);
            let summary = (r.config, r.crash_points);
            out += &digest_line(id, r.crash_points, &summary, &r.trace, &r.metrics);
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
