//! Observability contracts on the error paths: every typed refusal is
//! traced exactly once, crash-during-restore re-climbs replay the same
//! event shapes, and the JSONL export round-trips losslessly.

use wsp_repro::cluster::ClusterSpec;
use wsp_repro::machine::{Machine, SystemLoad};
use wsp_repro::obs::{self, Ctr, DiffMode, Event};
use wsp_repro::pheap::{BackendStore, HeapConfig, PersistentHeap};
use wsp_repro::units::ByteSize;
use wsp_repro::wsp::{
    clean_failure_trace, flush_on_fail_save, node_save, restore, run_recovery_ladder,
    sweep_save_path, DomainBudget, LadderInput, LadderRung, RestartStrategy,
    ShardVerdict, WspError, WspSystem,
};

fn refusal_events<'a>(events: &'a [Event], subsystem: &str) -> Vec<&'a Event> {
    events
        .iter()
        .filter(|e| e.subsystem == subsystem && e.name == "refusal")
        .collect()
}

fn heap_with_root(value: u64) -> PersistentHeap {
    let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FofUndo);
    let mut tx = heap.begin();
    let p = tx.alloc(16).unwrap();
    tx.write_word(p, value).unwrap();
    tx.set_root(p).unwrap();
    tx.commit().unwrap();
    heap
}

/// A busy-load save of `heap` over the machine's private power domain,
/// capped to the priority stage (stage A + marker + arm + slack, see
/// `wsp_repro::wsp::priority_stage_window`); returns its verdict.
fn partial_save(machine: &mut Machine, heap: &mut PersistentHeap) -> ShardVerdict {
    let budget = DomainBudget {
        window_cap: Some(wsp_repro::wsp::priority_stage_window(machine, heap)),
    };
    let trace = clean_failure_trace();
    let report = node_save(machine, heap, SystemLoad::Busy, &trace, budget).unwrap();
    report.shards[0].verdict
}

// ---- exactly one typed refusal event per error return ------------------

#[test]
fn backend_recovery_refusal_is_traced_exactly_once() {
    let ((), cap) = obs::capture(|| {
        let mut machine = Machine::amd_testbed();
        machine.system_power_loss();
        machine.system_power_on();
        let err = restore(&mut machine, RestartStrategy::RestorePathReinit).unwrap_err();
        assert_eq!(err.kind(), "backend-recovery-required");
    });
    let refusals = refusal_events(cap.trace.events(), "restore");
    assert_eq!(refusals.len(), 1, "{:?}", cap.trace.events());
    assert_eq!(refusals[0].detail, "backend-recovery-required");
    assert_eq!(cap.metrics.counter(Ctr::RestoreRefusals), 1);
}

#[test]
fn partial_image_refusal_is_traced_exactly_once() {
    let mut machine = Machine::intel_testbed();
    machine.apply_load(SystemLoad::Busy, 3);
    let mut heap = heap_with_root(3);
    assert_eq!(
        partial_save(&mut machine, &mut heap),
        ShardVerdict::PartialPriority
    );
    machine.system_power_loss();
    machine.system_power_on();

    let ((), cap) = obs::capture(|| {
        let err = restore(&mut machine, RestartStrategy::RestorePathReinit).unwrap_err();
        assert!(matches!(err, WspError::PartialImage));
        assert_eq!(err.kind(), "partial-image");
    });
    let refusals = refusal_events(cap.trace.events(), "restore");
    assert_eq!(refusals.len(), 1);
    assert_eq!(refusals[0].detail, "partial-image");
    assert_eq!(cap.metrics.counter(Ctr::RestoreRefusals), 1);
}

#[test]
fn torn_image_refusal_is_traced_exactly_once() {
    let mut machine = Machine::intel_testbed();
    machine.apply_load(SystemLoad::Idle, 4);
    let save = flush_on_fail_save(
        &mut machine,
        SystemLoad::Idle,
        RestartStrategy::RestorePathReinit,
    );
    assert!(save.completed);
    // Tear one module's flash image behind the valid flag: only the
    // checksum knows, and the refusal must say "torn-image".
    machine.nvram_mut().dimms_mut()[0].tear_saved_image(512);
    machine.system_power_loss();
    machine.system_power_on();

    let ((), cap) = obs::capture(|| {
        let err = restore(&mut machine, RestartStrategy::RestorePathReinit).unwrap_err();
        assert!(matches!(err, WspError::TornImage { .. }));
        assert_eq!(err.kind(), "torn-image");
    });
    let refusals = refusal_events(cap.trace.events(), "restore");
    assert_eq!(refusals.len(), 1);
    assert_eq!(refusals[0].detail, "torn-image");
    assert_eq!(cap.metrics.counter(Ctr::RestoreRefusals), 1);
}

/// Across the whole save-path sweep, the refusal counter and refusal
/// events agree exactly with the outcomes that returned an error — no
/// silent refusals, no double counting, at any fault point.
#[test]
fn sweep_refusals_match_traced_refusals_exactly() {
    let report = sweep_save_path(
        Machine::intel_testbed,
        SystemLoad::Busy,
        RestartStrategy::RestorePathReinit,
        42,
    );
    let refused = report
        .outcomes
        .iter()
        .filter(|o| o.refusal.is_some())
        .count() as u64;
    assert!(refused > 0, "the sweep exercises pre-arm faults");
    assert_eq!(report.metrics.counter(Ctr::RestoreRefusals), refused);
    assert_eq!(
        refusal_events(report.trace.events(), "restore").len() as u64,
        refused
    );
    assert_eq!(
        report.metrics.counter(Ctr::FaultsInjected),
        report.outcomes.len() as u64
    );
    assert_eq!(
        report.metrics.counter(Ctr::RestoreAttempts),
        report.outcomes.len() as u64
    );
}

// ---- crash-during-restore re-climbs are idempotent ---------------------

/// Runs the partial-save ladder scenario, optionally crashing at a
/// rung's entry, and returns the captured ladder trace.
fn ladder_trace(crash_at: Option<LadderRung>) -> Vec<Event> {
    let mut machine = Machine::intel_testbed();
    machine.apply_load(SystemLoad::Busy, 9);
    let backend = BackendStore::disk_array();
    let cluster = ClusterSpec::memcache_tier(50);
    let mut heap = heap_with_root(9);
    assert_eq!(
        partial_save(&mut machine, &mut heap),
        ShardVerdict::PartialPriority
    );
    machine.system_power_loss();
    machine.system_power_on();
    let ((), cap) = obs::capture(|| {
        let (report, _) = run_recovery_ladder(LadderInput {
            machine: &mut machine,
            strategy: RestartStrategy::RestorePathReinit,
            image: Some(heap.crash(false)),
            backend: &backend,
            cluster: &cluster,
            crash_at,
        });
        assert!(report.outcome.is_recovered(), "{report:?}");
    });
    cap.trace.events().to_vec()
}

/// A second outage at a rung's entry restarts the ladder from the top;
/// because rungs are idempotent until one succeeds, the re-climb after
/// the power cycle replays exactly the events of an uncrashed run.
#[test]
fn crashed_reclimb_replays_the_uncrashed_trace() {
    let baseline = ladder_trace(None);
    assert_eq!(baseline[0].name, "begin");
    for rung in [LadderRung::LocalWsp, LadderRung::HeapLogReplay] {
        let crashed = ladder_trace(Some(rung));
        let cycle = crashed
            .iter()
            .position(|e| e.name == "power_cycle")
            .unwrap_or_else(|| panic!("{rung:?}: no power_cycle event"));
        // Everything after the power cycle is a fresh climb from the
        // top: structurally identical to the baseline minus its own
        // "begin" marker. (Structural mode: timestamps shift with the
        // ladder clock, shapes and payloads must not.)
        if let Err(report) =
            obs::diff_events(&baseline[1..], &crashed[cycle + 1..], DiffMode::Structural)
        {
            panic!("{rung:?}: re-climb diverges from uncrashed run:\n{report}");
        }
    }
}

// ---- JSONL round trip --------------------------------------------------

#[test]
fn jsonl_export_round_trips_losslessly() {
    let mut system = WspSystem::new(Machine::amd_testbed());
    let ((), cap) = obs::capture(|| {
        let _ = system.power_failure_drill(SystemLoad::Busy, RestartStrategy::RestorePathReinit, 8);
    });
    assert!(!cap.trace.is_empty());
    let text = obs::trace_to_jsonl(&cap.trace);
    let parsed = obs::parse_jsonl(&text).expect("export must satisfy its own schema");
    assert_eq!(parsed.len(), cap.trace.len());
    for (p, e) in parsed.iter().zip(cap.trace.events()) {
        assert!(p.same_content(e), "round-trip changed {e} into {}", p.display());
    }
}
