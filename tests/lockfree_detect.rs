//! The concurrent detectable structures, driven end to end: crash-point
//! coverage of the interleaving sweep, typed refusals on corrupt durable
//! metadata, and a fixed-seed regression corpus of sweep outcomes under
//! `tests/golden/`. That worker count cannot change a single byte of the
//! report is proven with every other sweep by the runner's identity
//! table in `wsp_core::sweep`.
//!
//! The sweep itself asserts exactly-once semantics at every injected
//! crash (misclassification panics inside `sweep_lockfree`); these
//! tests pin the *shape* of that proof — which step kinds were crash
//! points, that all three verdicts actually occur — and freeze the
//! per-scenario tallies against a recorded corpus. Regenerate the
//! corpus after an intentional protocol change with
//!
//! ```text
//! WSP_UPDATE_GOLDEN=1 cargo test --test lockfree_detect
//! ```

use std::path::PathBuf;

use wsp_repro::obs::{self, Ctr, Event};
use wsp_repro::pheap::lockfree::{
    FlushPolicy, LfLayout, LfRegion, OpVerdict, HEAD_ADDR, OP_PUSH,
};
use wsp_repro::wsp::{classify_recovery, sweep_lockfree, LfStructure, LockfreeSweepReport};

fn refusal_events<'a>(events: &'a [Event], subsystem: &str) -> Vec<&'a Event> {
    events
        .iter()
        .filter(|e| e.subsystem == subsystem && e.name == "refusal")
        .collect()
}

// ---- crash-point coverage ----------------------------------------------

/// Flush-on-commit orders persistence explicitly, so the sweep must
/// inject at CAS, flush, *and* fence steps, and all three recovery
/// verdicts must occur somewhere in the enumeration.
fn assert_foc_coverage(report: &LockfreeSweepReport) {
    let label = report.structure.label();
    assert!(report.schedules > 0, "{label}: no schedules");
    assert!(report.cas_points > 0, "{label}: no CAS crash points");
    assert!(report.flush_points > 0, "{label}: no flush crash points");
    assert!(report.fence_points > 0, "{label}: no fence crash points");
    assert_eq!(
        report.crash_points,
        report.cas_points + report.flush_points + report.fence_points,
        "{label}: crash points must partition by step kind"
    );
    assert!(report.completed > 0, "{label}: no Completed verdicts");
    assert!(report.not_started > 0, "{label}: no NotStarted verdicts");
    assert!(report.resolved > 0, "{label}: no Resolved verdicts");
}

/// Flush-on-fail has no commit-path flushes or fences at all — the
/// residual-energy save is the persistence step — so CAS steps are the
/// only crash points, and the verdict classes still all occur.
fn assert_fof_coverage(report: &LockfreeSweepReport) {
    let label = report.structure.label();
    assert!(report.cas_points > 0, "{label}: no CAS crash points");
    assert_eq!(report.flush_points, 0, "{label}: FoF must not flush");
    assert_eq!(report.fence_points, 0, "{label}: FoF must not fence");
    assert_eq!(report.crash_points, report.cas_points);
    assert!(report.completed > 0, "{label}: no Completed verdicts");
    assert!(report.not_started > 0, "{label}: no NotStarted verdicts");
    assert!(report.resolved > 0, "{label}: no Resolved verdicts");
}

#[test]
fn hash_sweep_covers_every_crash_point_kind() {
    assert_foc_coverage(&sweep_lockfree(
        LfStructure::Hash,
        FlushPolicy::FlushOnCommit,
        42,
    ));
    assert_fof_coverage(&sweep_lockfree(
        LfStructure::Hash,
        FlushPolicy::FlushOnFail,
        42,
    ));
}

#[test]
fn stack_fof_sweep_covers_every_crash_point_kind() {
    assert_fof_coverage(&sweep_lockfree(
        LfStructure::Stack,
        FlushPolicy::FlushOnFail,
        42,
    ));
}

// ---- typed refusals on corrupt durable metadata ------------------------

/// Durably installs a 7-word descriptor for thread `tid`.
fn plant_descriptor(region: &mut LfRegion, tid: u8, fields: [u64; 7]) {
    let d = region.layout().desc_addr(tid);
    for (i, v) in fields.into_iter().enumerate() {
        region.write_word(d + 8 * i as u64, v);
    }
    region.flush_line(d);
    region.fence();
}

fn corrupt_region() -> LfRegion {
    LfRegion::create(LfLayout::new(2, 0, 8, FlushPolicy::FlushOnCommit))
}

/// Every corrupt-metadata shape refuses with the typed `detectability`
/// error and exactly one refusal trace event — never a wrong verdict.
#[test]
fn corrupt_descriptors_refuse_with_exactly_one_event() {
    let arena = corrupt_region().layout().arena_base(0);
    let torn = [3, OP_PUSH, HEAD_ADDR, 0, 1, arena, 2]; // seal != seq
    let future = [5, OP_PUSH, HEAD_ADDR, 0, 1, arena, 5]; // seq > program seq
    let bad_opcode = [3, 99, HEAD_ADDR, 0, 1, arena, 3];
    let bad_target = [3, OP_PUSH, 0xdead_0000, 0, 1, arena, 3];
    for (name, fields) in [
        ("torn", torn),
        ("future", future),
        ("bad_opcode", bad_opcode),
        ("bad_target", bad_target),
    ] {
        let (err, cap) = obs::capture(|| {
            let mut region = corrupt_region();
            plant_descriptor(&mut region, 0, fields);
            classify_recovery(&region, 0, 3).unwrap_err()
        });
        assert_eq!(err.kind(), "detectability", "{name}");
        let refusals = refusal_events(cap.trace.events(), "lockfree");
        assert_eq!(refusals.len(), 1, "{name}: {:?}", cap.trace.events());
        assert_eq!(refusals[0].detail, "detectability", "{name}");
        assert_eq!(cap.metrics.counter(Ctr::LockfreeRefusals), 1, "{name}");
        assert_eq!(cap.metrics.counter(Ctr::LockfreeRecoveries), 1, "{name}");
    }
}

/// An untouched descriptor (all zeros, durable by construction) is the
/// NotStarted case, and classifying it emits no refusal.
#[test]
fn pristine_descriptor_classifies_not_started() {
    let (verdict, cap) = obs::capture(|| {
        let region = corrupt_region();
        classify_recovery(&region, 0, 1).expect("pristine descriptor classifies")
    });
    assert_eq!(verdict, OpVerdict::NotStarted);
    assert!(refusal_events(cap.trace.events(), "lockfree").is_empty());
    assert_eq!(cap.metrics.counter(Ctr::LockfreeRefusals), 0);
    assert_eq!(cap.metrics.counter(Ctr::LockfreeRecoveries), 1);
}

// ---- fixed-seed regression corpus --------------------------------------

fn corpus_lines(report: &LockfreeSweepReport) -> String {
    let mut out = String::new();
    for sc in &report.scenarios {
        out.push_str(&format!(
            "{{\"scenario\":\"{}\",\"schedules\":{},\"crash_points\":{},\"completed\":{},\
             \"not_started\":{},\"resolved\":{},\"fingerprint\":\"{:016x}\"}}\n",
            sc.name,
            sc.schedules,
            sc.crash_points,
            sc.completed,
            sc.not_started,
            sc.resolved,
            sc.fingerprint,
        ));
    }
    out.push_str(&format!(
        "{{\"total_schedules\":{},\"total_crash_points\":{},\"fingerprint\":\"{:016x}\"}}\n",
        report.schedules, report.crash_points, report.fingerprint,
    ));
    out
}

/// Pins one sweep's per-scenario tallies and path-sensitive
/// fingerprints against the recorded corpus. Worker count cannot
/// change the report (proven in `wsp_core::sweep`), so the corpus is
/// machine-stable. Returns the report for further checks.
fn pin_corpus(structure: LfStructure, policy: FlushPolicy, seed: u64) -> LockfreeSweepReport {
    let report = sweep_lockfree(structure, policy, seed);
    let got = corpus_lines(&report);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!(
            "lockfree_{}_{}_seed{seed}.jsonl",
            structure.label(),
            policy.label()
        ));
    if std::env::var("WSP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("record corpus");
        return report;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing corpus {} ({e}); record with WSP_UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        got,
        want,
        "lockfree sweep diverged from recorded corpus {}",
        path.display()
    );
    report
}

#[test]
fn corpus_stack_fof() {
    pin_corpus(LfStructure::Stack, FlushPolicy::FlushOnFail, 42);
    pin_corpus(LfStructure::Stack, FlushPolicy::FlushOnFail, 7);
}

#[test]
fn corpus_hash_fof() {
    pin_corpus(LfStructure::Hash, FlushPolicy::FlushOnFail, 42);
    pin_corpus(LfStructure::Hash, FlushPolicy::FlushOnFail, 7);
}

#[test]
fn corpus_hash_foc() {
    pin_corpus(LfStructure::Hash, FlushPolicy::FlushOnCommit, 42);
    pin_corpus(LfStructure::Hash, FlushPolicy::FlushOnCommit, 7);
}

/// The heavy pair runs at one seed (the runner's identity table in
/// `wsp_core::sweep` proves seed-42 stability across worker counts),
/// and doubles as the FoC coverage check for the stack.
#[test]
fn corpus_stack_foc() {
    assert_foc_coverage(&pin_corpus(
        LfStructure::Stack,
        FlushPolicy::FlushOnCommit,
        42,
    ));
}
