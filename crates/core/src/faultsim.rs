//! The crash-point sweep engine: inject a power failure at **every**
//! step of the Figure-4 save path (and at mid-transaction points inside
//! the persistent-heap logs), run the restore path, and check the
//! recovery invariants against an in-memory model.
//!
//! The invariant is the paper's all-or-nothing contract:
//!
//! * a failure at any point **before** the NVDIMM save is armed leaves
//!   no valid image — restore must refuse and demand back-end recovery
//!   (a torn image must never be mistaken for a complete one);
//! * a failure at any point **after** the arm changes nothing — the
//!   modules finish on ultracapacitor power, and restore brings back
//!   every sentinel byte and every CPU context bit-exactly.
//!
//! For the persistent heaps, the analogous sweep crashes an open
//! transaction after every prefix of its operations: transactional
//! configurations must recover exactly the committed state (redo replay
//! or undo rollback), while the plain flush-on-fail heap — the WSP
//! programming model, with no transactions at all — must recover
//! exactly the words written so far.
//!
//! Every heap-level sweep here — mid-transaction, mid-epoch and
//! cross-shard 2PC — and the power storm start from one baseline,
//! [`crate::committed_fleet`], and check recovery against one oracle,
//! its [`CellModel`]: the baseline overlaid by exactly what the crash
//! point made durable. The 2PC property tests drive the same crash
//! points through [`run_2pc_point`].
//!
//! # Examples
//!
//! ```
//! use wsp_core::{sweep_save_path, RestartStrategy};
//! use wsp_machine::{Machine, SystemLoad};
//!
//! let report = sweep_save_path(
//!     Machine::intel_testbed,
//!     SystemLoad::Busy,
//!     RestartStrategy::RestorePathReinit,
//!     42,
//! );
//! // Every pre-arm fault forced back-end recovery; every post-arm
//! // fault restored locally.
//! assert!(report.outcomes.len() > 10);
//! assert!(report.locally_restored >= 1);
//! ```

use std::ops::RangeInclusive;
use std::sync::Arc;

use wsp_cluster::ClusterSpec;
use wsp_det::{DetRng, Rng};
use wsp_machine::{CpuContext, Machine, SystemLoad};
use wsp_obs as obs;
use wsp_obs::{MetricsSnapshot, Trace};
use wsp_pheap::{BackendStore, CrashImage, HeapConfig, PersistentHeap, PowerCut};
use wsp_power::{AgingModel, Ultracapacitor};
use wsp_units::{ByteSize, Farads, Nanos, Volts, Watts};

use crate::ladder::{run_recovery_ladder, LadderInput, LadderRung, RecoveryOutcome};
use crate::model::{committed_fleet, CellModel};
use crate::restore::restore;
use crate::save::{flush_on_fail_save_with_fault, SaveFault, SaveReport, SaveStep};
use crate::supervisor::{
    bulk_flush, clean_failure_trace, detection, glitch_storm_trace, priority_stage_window,
    stage_a_probe, supervised_save, SaveBudget, SaveVerdict,
};
use crate::sweep;
use crate::txn::{coordinator_of, resolve_cross_shard, CoordinatorPool, GtxidOrigin};
use crate::{layout, RestartStrategy, WspError};

pub use crate::lockfree_sweep::{
    classify_recovery, sweep_lockfree, LfScenarioOutcome, LfStructure, LockfreeSweepReport,
};

/// How many equal batches the cache flush is split into for
/// mid-flush injection points.
pub const FLUSH_BATCHES: usize = 4;

/// The result of one injected fault.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// Where the power failure landed.
    pub fault: SaveFault,
    /// The (truncated) save report.
    pub save: SaveReport,
    /// True if the restore path recovered locally; false if it demanded
    /// back-end recovery.
    pub locally_restored: bool,
    /// The restore error, when local recovery was refused.
    pub refusal: Option<String>,
}

/// The full sweep over one machine/load/strategy combination.
#[derive(Debug, Clone)]
pub struct SaveSweepReport {
    /// One outcome per injected fault, in save-path order.
    pub outcomes: Vec<FaultOutcome>,
    /// How many faults still recovered locally (post-arm points).
    pub locally_restored: usize,
    /// Per-point traces merged in crash-point order — identical for any
    /// `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across every point, in the same order.
    pub metrics: MetricsSnapshot,
}

/// Enumerates every injectable power-failure point of the save path:
/// before each Figure-4 step the strategy executes, inside each cache
/// flush batch, and an ultracap brown-out on each NVDIMM module.
#[must_use]
pub fn save_path_crash_points(strategy: RestartStrategy, modules: usize) -> Vec<SaveFault> {
    let mut points = Vec::new();
    for step in [
        SaveStep::PowerFailInterrupt,
        SaveStep::InterruptAllProcessors,
        SaveStep::SuspendDevices,
        SaveStep::SaveContexts,
        SaveStep::FlushCaches,
        SaveStep::HaltOthers,
        SaveStep::SetupResumeBlock,
        SaveStep::MarkImageValid,
        SaveStep::InitiateNvdimmSave,
        SaveStep::Halt,
    ] {
        if step == SaveStep::SuspendDevices && strategy != RestartStrategy::AcpiSuspend {
            continue; // the step does not exist on this strategy's path
        }
        points.push(SaveFault::BeforeStep(step));
    }
    for batch in 0..FLUSH_BATCHES {
        points.push(SaveFault::DuringCacheFlush {
            batch,
            batches: FLUSH_BATCHES,
        });
    }
    for module in 0..modules {
        points.push(SaveFault::UltracapShortfall { module });
    }
    points
}

/// Runs the save-path crash-point sweep: for every point from
/// [`save_path_crash_points`], build a fresh machine, scatter seeded
/// sentinel data, run the save with the fault injected, cut power,
/// restore, and check the all-or-nothing invariant against the
/// in-memory model (sentinels + CPU contexts).
///
/// # Panics
///
/// Panics when any injected fault violates the invariant — a fault
/// before the NVDIMM arm that still restored locally, a fault after it
/// that failed to, or a local restore that lost or corrupted data.
pub fn sweep_save_path(
    make_machine: impl Fn() -> Machine + Sync,
    load: SystemLoad,
    strategy: RestartStrategy,
    seed: u64,
) -> SaveSweepReport {
    sweep_save_path_threads(make_machine, load, strategy, seed, sweep::threads())
}

pub(crate) fn sweep_save_path_threads(
    make_machine: impl Fn() -> Machine + Sync,
    load: SystemLoad,
    strategy: RestartStrategy,
    seed: u64,
    threads: usize,
) -> SaveSweepReport {
    let modules = make_machine().nvram().dimms().len();
    // Serially pre-split one sentinel PRNG per crash point: the streams
    // depend only on the sweep seed and the point index, never on which
    // worker runs the point or in what order.
    let mut parent = DetRng::seed_from_u64(seed ^ 0x57u64);
    let points: Vec<(usize, (SaveFault, DetRng))> = save_path_crash_points(strategy, modules)
        .into_iter()
        .map(|fault| (fault, parent.split()))
        .enumerate()
        .collect();
    let (outcomes, merged) = sweep::run(points, threads, |(idx, (fault, rng))| {
        sweep::inject(idx as i64, 0, &fault);
        run_save_point(&make_machine, load, strategy, seed, fault, rng)
    });
    let locally_restored = outcomes.iter().filter(|o| o.locally_restored).count();
    SaveSweepReport {
        outcomes,
        locally_restored,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// One save-path crash point: build a fresh machine, scatter sentinels
/// from this point's PRNG, inject the fault, cut power, restore, check
/// the all-or-nothing invariant.
fn run_save_point(
    make_machine: &impl Fn() -> Machine,
    load: SystemLoad,
    strategy: RestartStrategy,
    seed: u64,
    fault: SaveFault,
    mut rng: DetRng,
) -> FaultOutcome {
    let mut machine = make_machine();
    machine.apply_load(load, seed);

    // The in-memory model: sentinel heap data plus the registers.
    let capacity = machine.nvram().total_capacity().as_u64();
    let sentinels: Vec<(u64, [u8; 32])> = (0..64)
        .map(|_| {
            // Keep clear of the resume block in the first page.
            let addr = rng.gen_range(8192..capacity - 32) / 8 * 8;
            let mut data = [0u8; 32];
            rng.fill_bytes(&mut data);
            (addr, data)
        })
        .collect();
    for (addr, data) in &sentinels {
        machine.nvram_mut().write(*addr, data);
    }
    let contexts_before: Vec<CpuContext> =
        machine.cores().iter().map(|c| c.context).collect();

    let save = flush_on_fail_save_with_fault(&mut machine, load, strategy, Some(fault));
    machine.system_power_loss();
    machine.system_power_on();

    // An ACPI-suspend save blows the window on its own; with the
    // suspend step executed, even a post-arm fault cannot recover.
    let expect_recovery = fault.recoverable() && save.completed;
    match restore(&mut machine, strategy) {
        Ok(_) => {
            assert!(
                expect_recovery,
                "fault {fault:?} must force back-end recovery, but restore succeeded"
            );
            for (addr, data) in &sentinels {
                let mut buf = [0u8; 32];
                machine.nvram().read(*addr, &mut buf);
                assert_eq!(&buf, data, "sentinel at {addr:#x} after {fault:?}");
            }
            let contexts_after: Vec<CpuContext> =
                machine.cores().iter().map(|c| c.context).collect();
            assert_eq!(contexts_before, contexts_after, "contexts after {fault:?}");
            assert!(
                machine.cores().iter().all(|c| !c.halted),
                "cores resume after {fault:?}"
            );
            // The marker is cleared: a second restore must refuse.
            let mut marker = [0u8; 8];
            machine.nvram().read(layout::VALID_MARKER_ADDR, &mut marker);
            assert_ne!(
                u64::from_le_bytes(marker),
                layout::VALID_MAGIC,
                "marker must be cleared after resume"
            );
            FaultOutcome {
                fault,
                save,
                locally_restored: true,
                refusal: None,
            }
        }
        Err(
            err @ (WspError::BackendRecoveryRequired { .. }
            | WspError::TornImage { .. }
            | WspError::PartialImage),
        ) => {
            assert!(
                !expect_recovery,
                "fault {fault:?} after the NVDIMM arm must restore locally: {err}"
            );
            assert!(
                !save.completed,
                "a save that reports completion must be restorable ({fault:?})"
            );
            FaultOutcome {
                fault,
                save,
                locally_restored: false,
                refusal: Some(err.to_string()),
            }
        }
        Err(other) => panic!("unexpected restore error after {fault:?}: {other}"),
    }
}

/// The result of a single-transaction crash sweep — mid-transaction or
/// mid-commit — for one heap configuration.
#[derive(Debug, Clone)]
pub struct MidTxSweepReport {
    /// The configuration swept.
    pub config: HeapConfig,
    /// Crash points exercised (see each sweep).
    pub crash_points: usize,
    /// Baseline-setup events followed by per-point traces merged in
    /// crash-point order — identical for any `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across the setup and every crash point.
    pub metrics: MetricsSnapshot,
}

/// Crashes an open transaction after every prefix of a seeded operation
/// script (the empty prefix included) and verifies recovery against the
/// in-memory model: transactional configurations recover exactly the
/// committed state (mid-transaction redo records are not committed,
/// mid-transaction undo records roll back); the plain FoF heap — no
/// transactions, the WSP programming model — recovers exactly the words
/// written so far.
///
/// Flush-on-commit configurations are crashed *without* the
/// flush-on-fail save (their whole point), flush-on-fail configurations
/// with it.
///
/// # Panics
///
/// Panics when recovery diverges from the model at any crash point.
pub fn sweep_mid_transaction(config: HeapConfig, seed: u64) -> MidTxSweepReport {
    sweep_mid_transaction_threads(config, seed, sweep::threads())
}

pub(crate) fn sweep_mid_transaction_threads(
    config: HeapConfig,
    seed: u64,
    threads: usize,
) -> MidTxSweepReport {
    let mut rng = DetRng::seed_from_u64(seed);

    // Committed baseline: eight root-reachable cells with known values.
    // The setup commit is captured so its pheap metrics land in the
    // sweep's snapshot, not in the caller's ambient recorder.
    let cells = 8usize;
    let ((heaps, model), setup) = obs::capture(|| committed_fleet(config, 1, cells, 8, &mut rng));

    // The scripted in-flight transaction: twelve writes over the cells.
    let script: Vec<(usize, usize, u64)> = (0..12)
        .map(|_| (0, rng.gen_range(0..cells), rng.gen::<u64>()))
        .collect();

    // FoC crashes raw (no save — that is the configuration's claim);
    // FoF crashes with the completed save it depends on. Crash points
    // are independent (each clones the committed heap), so they shard
    // across workers; every point is pure assertion, so the sweep's
    // outcome is schedule-independent by construction.
    let save_runs = !config.flush_on_commit();
    let points: Vec<MidTx> = (0..=script.len())
        .map(|crash_at| MidTx { crash_at })
        .collect();
    let (_, points_cap) = sweep::run(points, threads, |point| {
        sweep::inject(point.crash_at as i64, 0, &point);
        run_tx_point(&heaps[0], &model, &script, config, save_runs, point.crash_at);
    });
    let mut merged = setup;
    merged.absorb(points_cap);

    MidTxSweepReport {
        config,
        crash_points: script.len() + 1,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// A mid-transaction crash point: power fails after `crash_at` writes of
/// the open transaction.
#[derive(Debug)]
struct MidTx {
    crash_at: usize,
}

/// One mid-transaction crash point: replay the script prefix inside an
/// open transaction on a clone of the committed heap, cut power, recover,
/// and compare against the in-memory model.
fn run_tx_point(
    heap: &PersistentHeap,
    model: &CellModel,
    script: &[(usize, usize, u64)],
    config: HeapConfig,
    save_runs: bool,
    crash_at: usize,
) {
    let mut h = heap.clone();
    let mut tx = h.begin();
    for &(shard, cell, value) in &script[..crash_at] {
        tx.write_word(model.cell(shard, cell), value).unwrap();
    }
    // Power failure mid-transaction: the abort path never runs, the
    // log keeps whatever records were appended so far.
    std::mem::forget(tx);

    // The model: committed values, overlaid — for the plain
    // non-transactional heap only — by the prefix that ran.
    let mut expected = model.clone();
    if !config.transactional() {
        expected.apply(&script[..crash_at]);
    }
    recover_and_audit(
        h.crash(save_runs),
        &expected,
        format_args!("{config} at crash point {crash_at}"),
    );
}

/// Recovers the crashed heap of a single-heap sweep and checks it
/// against `expected`: the root survives and every cell matches.
fn recover_and_audit(image: CrashImage, expected: &CellModel, at: impl std::fmt::Display) {
    let mut recovered =
        PersistentHeap::recover(image).unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
    assert_eq!(recovered.root(), Some(expected.cell(0, 0)), "{at}: root");
    expected.audit(0, &mut recovered, at);
}

/// One crash point of the mid-epoch sweep.
#[derive(Debug, Clone, Copy)]
enum EpochCrashPoint {
    /// Power fails after `txs` transactions committed into epochs: the
    /// open buffer and any staged-but-undrained generation are volatile
    /// and lost wholesale (seals lag one generation behind staging).
    AfterTx(usize),
    /// Power fails after this many durable events of the full seal of a
    /// heap holding a staged generation *and* a partially filled open
    /// one — inside the staged batch's drain, at its marker, anywhere in
    /// the open batch's drain behind it, or (the last point) not at all.
    MidSeal(u64),
    /// Power fails after this many durable events of sealing a heap
    /// whose only buffered transactions live in the open generation
    /// (nothing staged yet).
    MidSealOpen(u64),
}

/// The result of the mid-epoch sweep for one flush-on-commit heap
/// configuration.
#[derive(Debug, Clone)]
pub struct MidEpochSweepReport {
    /// The configuration swept.
    pub config: HeapConfig,
    /// Transactions per durability epoch in the swept heap.
    pub epoch_size: u64,
    /// Crash points exercised: one after each committed transaction
    /// (including zero), one per durable event of a double-generation
    /// mid-epoch seal (staged batch, its marker, open batch) and of an
    /// open-only seal, each plus the completed seal.
    pub crash_points: usize,
    /// Baseline-setup events followed by per-point traces merged in
    /// crash-point order — identical for any `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across the setup and every crash point.
    pub metrics: MetricsSnapshot,
}

/// Crashes an epoch-group-commit heap after every committed transaction
/// of a seeded script *and* at every durable event of its pipelined
/// seals, then verifies that recovery restores exactly the epochs whose
/// write-behind drain completed: with double-buffered seals durability
/// lags staging by one generation, so transactions in the open buffer
/// *or* a staged-but-undrained generation vanish wholesale, a
/// half-drained batch rolls back past its missing marker, and a crash
/// once the staged batch's marker landed keeps the staged epoch while
/// the open one still vanishes. No crash point ever exposes a partial
/// epoch.
///
/// # Panics
///
/// Panics for configurations without flush-on-commit durability (epoch
/// group commit is a documented no-op there, so the sweep would be
/// vacuous), or when recovery diverges from the model at any point.
pub fn sweep_mid_epoch(config: HeapConfig, seed: u64) -> MidEpochSweepReport {
    sweep_mid_epoch_threads(config, seed, sweep::threads())
}

pub(crate) fn sweep_mid_epoch_threads(
    config: HeapConfig,
    seed: u64,
    threads: usize,
) -> MidEpochSweepReport {
    assert!(
        config.flush_on_commit(),
        "mid-epoch sweep needs a flush-on-commit configuration, got {config}"
    );
    let mut rng = DetRng::seed_from_u64(seed);
    let epoch_size = 8usize;
    let cells = 8usize;
    let txs_total = 20usize; // two staged generations + four open txs
    let mid_txs = 12usize; // seal crash point: one staged epoch + four open
    let early_txs = 4usize; // open-only seal crash point: nothing staged

    // Committed baseline on distinct cache lines (so the seal's
    // coalesced flush spans several lines), then epoch mode on.
    let ((heaps, model), setup) = obs::capture(|| {
        let (mut heaps, model) = committed_fleet(config, 1, cells, 64, &mut rng);
        heaps[0].set_epoch_size(epoch_size as u64);
        (heaps, model)
    });
    let heap = &heaps[0];

    // The scripted epoch workload: one single-write transaction per
    // entry; every `epoch_size`-th commit auto-seals.
    let script: Vec<(usize, usize, u64)> = (0..txs_total)
        .map(|_| (0, rng.gen_range(0..cells), rng.gen::<u64>()))
        .collect();

    // How many durable events each crash-sweep seal performs, measured
    // serially on throwaway replays (their observability is discarded —
    // every point re-runs the same deterministic prefix). At `mid_txs`
    // one generation is staged behind four open transactions; at
    // `epoch_size` it is all there is, so that seal ends with the staged
    // marker; at `early_txs` only the open buffer exists.
    let (seal_events, _) = obs::capture(|| {
        [mid_txs, epoch_size, early_txs].map(|txs| {
            let mut probe = heap.clone();
            replay_epoch_txs(&mut probe, &model, &script[..txs]);
            probe.durable_events(PersistentHeap::seal_epoch)
        })
    });
    let [mid_events, staged_events, open_events] = seal_events;
    assert!(
        staged_events > 0 && mid_events > staged_events,
        "{config}: mid-seal crash space must straddle the staged marker"
    );

    let mut points: Vec<EpochCrashPoint> =
        (0..=txs_total).map(EpochCrashPoint::AfterTx).collect();
    points.extend((0..=mid_events).map(EpochCrashPoint::MidSeal));
    points.extend((0..=open_events).map(EpochCrashPoint::MidSealOpen));
    let crash_points = points.len();

    let (_, points_cap) = sweep::run(points, threads, |point| {
        let (a, b) = match point {
            EpochCrashPoint::AfterTx(t) => (t as i64, -1),
            EpochCrashPoint::MidSeal(s) => (mid_txs as i64, s as i64),
            EpochCrashPoint::MidSealOpen(s) => (early_txs as i64, s as i64),
        };
        sweep::inject(a, b, &point);
        run_epoch_point(
            heap,
            &model,
            &script,
            epoch_size,
            config,
            (mid_txs, early_txs, seal_events),
            point,
        );
    });
    let mut merged = setup;
    merged.absorb(points_cap);

    MidEpochSweepReport {
        config,
        epoch_size: epoch_size as u64,
        crash_points,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// Commits one single-write transaction per script entry against the
/// baseline cells (epoch absorption and auto-sealing happen inside the
/// heap).
fn replay_epoch_txs(heap: &mut PersistentHeap, model: &CellModel, prefix: &[(usize, usize, u64)]) {
    for op in prefix {
        commit_ops(heap, model, std::slice::from_ref(op));
    }
}

/// One mid-epoch crash point: replay the script prefix on a clone of
/// the baseline heap, cut power (after a commit or partway through a
/// seal), recover, and compare against the pipelined-durability model.
/// `[mid, staged, open]` are the durable events of the mid seal, of its
/// staged batch alone, and of the open-only seal.
fn run_epoch_point(
    heap: &PersistentHeap,
    model: &CellModel,
    script: &[(usize, usize, u64)],
    epoch_size: usize,
    config: HeapConfig,
    (mid_txs, early_txs, [mid, staged, open]): (usize, usize, [u64; 3]),
    point: EpochCrashPoint,
) {
    let mut h = heap.clone();
    // The model: the baseline overlaid by every *drained* epoch. With
    // double-buffered seals a generation stages at every
    // `epoch_size`-th commit but only drains when the *next* one
    // stages, so durability lags staging by one full generation. A
    // mid-seal crash once the staged batch's marker landed makes that
    // epoch durable, and a seal that completes makes every replayed
    // transaction durable; short of that nothing new survives.
    let (durable, image) = match point {
        EpochCrashPoint::AfterTx(t) => {
            replay_epoch_txs(&mut h, model, &script[..t]);
            let staged = t / epoch_size;
            (staged.saturating_sub(1) * epoch_size, h.crash(false))
        }
        EpochCrashPoint::MidSeal(events) => {
            replay_epoch_txs(&mut h, model, &script[..mid_txs]);
            let durable = match events {
                e if e >= mid => mid_txs,
                e if e >= staged => epoch_size,
                _ => 0,
            };
            (durable, h.crash_during(events, PersistentHeap::seal_epoch))
        }
        EpochCrashPoint::MidSealOpen(events) => {
            replay_epoch_txs(&mut h, model, &script[..early_txs]);
            let durable = if events >= open { early_txs } else { 0 };
            (durable, h.crash_during(events, PersistentHeap::seal_epoch))
        }
    };
    let mut expected = model.clone();
    expected.apply(&script[..durable]);
    recover_and_audit(image, &expected, format_args!("{config} at {point:?}"));
}

/// A mid-commit crash point: power fails after `events` durable events
/// of run `run` of the mid-commit sweep.
#[derive(Debug, Clone, Copy)]
struct CommitCrashPoint {
    run: usize,
    events: u64,
}

/// Crashes one whole flush-on-commit transaction (writes and commit)
/// after each of its durable events and once completed, in two runs:
/// one whose commit leaves the log alone and one whose commit truncates
/// it. Each point must recover exactly the state before or after the
/// transaction; once "after", every later point is too, and the
/// completed run is. This holds the paper's flush-on-commit baseline
/// (Fig. 5, Table 1) to its rule: data is durable before its marker,
/// and no truncation drops records whose lines are not.
///
/// # Panics
///
/// Panics for configurations without flush-on-commit durability, or
/// when recovery violates the contract at any point.
pub fn sweep_mid_commit(config: HeapConfig, seed: u64) -> MidTxSweepReport {
    sweep_mid_commit_threads(config, seed, sweep::threads())
}

pub(crate) fn sweep_mid_commit_threads(
    config: HeapConfig,
    seed: u64,
    threads: usize,
) -> MidTxSweepReport {
    assert!(
        config.flush_on_commit(),
        "mid-commit sweep needs a flush-on-commit configuration, got {config}"
    );
    let mut rng = DetRng::seed_from_u64(seed);
    let script = |rng: &mut DetRng| -> Vec<(usize, usize, u64)> {
        (0..3).map(|_| (0, rng.gen_range(0..8), rng.gen())).collect()
    };

    // Run 0 commits on the committed baseline, whose log is nearly
    // empty. Run 1 commits more on a copy, each tried on a clone first,
    // until one's commit truncates the log (a log that never truncates
    // fills and panics): that one is swept there.
    let (runs, setup) = obs::capture(|| {
        let (heaps, mut model) = committed_fleet(config, 1, 8, 64, &mut rng);
        let mut heap = heaps[0].clone();
        let plain = (heap.clone(), model.clone(), script(&mut rng));
        let truncating = loop {
            let tx = script(&mut rng);
            let mut next = heap.clone();
            commit_ops(&mut next, &model, &tx);
            if next.stats().truncations > heap.stats().truncations {
                break (heap, model, tx);
            }
            model.apply(&tx);
            heap = next;
        };
        [plain, truncating]
    });
    let events = runs
        .each_ref()
        .map(|(heap, before, tx)| heap.durable_events(|h| commit_ops(h, before, tx)));
    let points: Vec<CommitCrashPoint> = (0..2)
        .flat_map(|run| (0..=events[run]).map(move |events| CommitCrashPoint { run, events }))
        .collect();
    let which = ["", ", truncating commit"];

    let (recovered_after, points_cap) = sweep::run(points, threads, |point| {
        sweep::inject(point.run as i64, point.events as i64, &point);
        let (heap, before, tx) = &runs[point.run];
        let mut after = before.clone();
        after.apply(tx);
        let image = heap.clone().crash_during(point.events, |h| commit_ops(h, before, tx));
        let (run, n) = (which[point.run], events[point.run]);
        let at = format!("{config} seed {seed}{run}: event {}/{n}", point.events);
        let mut recovered = PersistentHeap::recover(image)
            .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
        let seen = before.observe(0, &mut recovered);
        assert!(seen == *before || seen == after, "{at}: neither before nor after");
        seen == after
    });
    // Per run, by event: "before" up to some point, then "after" to the end.
    let (plain, truncating) = recovered_after.split_at(events[0] as usize + 1);
    for (run, after) in which.into_iter().zip([plain, truncating]) {
        assert!(
            after.is_sorted() && after[after.len() - 1],
            "{config} seed {seed}{run}: recovered \"after\" by event {after:?}"
        );
    }
    let mut merged = setup;
    merged.absorb(points_cap);

    MidTxSweepReport {
        config,
        crash_points: recovered_after.len(),
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// Commits `ops` as one transaction on `heap`, at the cells of `model`.
fn commit_ops(heap: &mut PersistentHeap, model: &CellModel, ops: &[(usize, usize, u64)]) {
    let mut tx = heap.begin();
    for &(shard, cell, value) in ops {
        tx.write_word(model.cell(shard, cell), value).unwrap();
    }
    tx.commit().unwrap();
}

/// Shards in the cross-shard 2PC sweep.
const XS_SHARDS: usize = 3;
/// Cells per shard (each on its own cache line).
const XS_CELLS: usize = 4;
/// Scripted cross-shard transactions per run.
const XS_TXNS: usize = 4;
/// Coordinators in the pool of every grouped 2PC run.
const XS_POOL_COORDS: usize = 2;

/// One crash point of a 2PC run (see [`points_2pc`]): every shard heap
/// and the coordinator pool, armed with one [`PowerCut`], lose power
/// together just before the `(events + 1)`-th durable event of run
/// `run`, and shard `lost`, if any, also loses its NVRAM image outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnCrashPoint {
    /// Run 0 decides each transaction alone through a one-coordinator
    /// pool; run `s > 0` seals the first `s` decisions of a
    /// two-coordinator pool under one group record and the rest under a
    /// second.
    pub run: usize,
    /// Durable events of the run, fleet-wide, that land before power
    /// fails.
    pub events: u64,
    /// The shard whose image is lost outright, if any.
    pub lost: Option<usize>,
}

/// The resolved fate of one 2PC crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPointVerdict {
    /// Every transaction of the run was decided: its write-set is
    /// visible on every shard.
    CommittedEverywhere,
    /// No durable decision: presumed abort erased every write-set from
    /// every shard.
    AbortedEverywhere,
    /// One shard lost its image and degraded to a cluster rebuild; the
    /// surviving shards still applied the decided outcome.
    DegradedShard {
        /// The shard that could not recover locally.
        shard: usize,
    },
    /// The durable decisions split the run: the decided transactions
    /// committed on every shard while the rest presumed abort on every
    /// shard.
    SplitResolved {
        /// Transactions the sealed group records committed.
        committed: usize,
        /// Transactions presumed abort erased.
        aborted: usize,
    },
}

/// The full cross-shard 2PC crash sweep for one heap configuration.
#[derive(Debug, Clone)]
pub struct CrossShard2pcReport {
    /// Heap configuration under test.
    pub config: HeapConfig,
    /// Participant shards in the deployment.
    pub shards: usize,
    /// Scripted cross-shard transactions per run.
    pub txns: usize,
    /// Crash points injected.
    pub crash_points: usize,
    /// Per-point verdicts, in injection order.
    pub outcomes: Vec<(TxnCrashPoint, TxnPointVerdict)>,
    /// Points that resolved to commit-everywhere.
    pub committed: usize,
    /// Points that resolved to abort-everywhere.
    pub aborted: usize,
    /// Points where a lost shard degraded through the ladder.
    pub degraded: usize,
    /// Points where the durable decisions split the run.
    pub split: usize,
    /// Per-point traces merged in crash-point order — identical for any
    /// `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across every point, in the same order.
    pub metrics: MetricsSnapshot,
}

/// Crashes a three-shard deployment at **every** durable event of five
/// runs of the production 2PC calls (see [`points_2pc`]): the fleet —
/// every shard and the coordinator pool — loses power at one instant
/// anywhere in a prepare, a decision seal (compaction included), a
/// phase-2 commit marker or between them, plus once with a participant's
/// image lost outright. Each point's all-or-nothing contract is checked
/// with [`run_2pc_point`].
///
/// Sharded over [`sweep::threads`] workers, bitwise identical to the
/// serial order.
///
/// # Panics
///
/// Panics for configurations without flush-on-commit durability (they
/// refuse to prepare — there is nothing to sweep) and when any crash
/// point violates the all-or-nothing contract.
#[must_use]
pub fn sweep_cross_shard_2pc(config: HeapConfig, seed: u64) -> CrossShard2pcReport {
    sweep_cross_shard_2pc_threads(config, seed, sweep::threads())
}

pub(crate) fn sweep_cross_shard_2pc_threads(
    config: HeapConfig,
    seed: u64,
    threads: usize,
) -> CrossShard2pcReport {
    assert!(
        config.flush_on_commit(),
        "cross-shard 2PC sweep needs a flush-on-commit configuration, got {config}"
    );
    let mut rng = DetRng::seed_from_u64(seed);

    // The baseline fleet: XS_SHARDS heaps, each with XS_CELLS committed
    // cells on distinct cache lines.
    let ((heaps, model), setup) =
        obs::capture(|| committed_fleet(config, XS_SHARDS, XS_CELLS, 64, &mut rng));

    // Run 0's workload: each transaction spans two adjacent shards with
    // two writes per participant.
    let spans = |t: usize| [t, t, t + 1, t + 1].map(|s| s % XS_SHARDS);
    let script: Vec<Vec<(usize, usize, u64)>> = (0..XS_TXNS)
        .map(|t| spans(t).map(|s| (s, rng.gen_range(0..XS_CELLS), rng.gen())).to_vec())
        .collect();

    // The grouped runs' workload: same shard spans, but transaction `t`
    // owns cell `t` on each participant so concurrently-prepared write
    // sets stay pairwise disjoint.
    let pool_script: Vec<Vec<(usize, usize, u64)>> = (0..XS_TXNS)
        .map(|t| spans(t).map(|s| (s, t, rng.gen())).to_vec())
        .collect();

    let mut points = points_2pc(&heaps, &model, &script, 0..=0);
    points.extend(points_2pc(&heaps, &model, &pool_script, 1..=XS_TXNS));
    let crash_points = points.len();

    let cluster = ClusterSpec::memcache_tier(8);
    let (outcomes, points_cap) = sweep::run(points, threads, |point| {
        sweep::inject(point.run as i64, point.events as i64, &point);
        let script = if point.run == 0 { &script } else { &pool_script };
        (point, run_2pc_point(config, &heaps, &model, script, &cluster, point))
    });
    let mut merged = setup;
    merged.absorb(points_cap);
    let count = |hit: fn(&TxnPointVerdict) -> bool| outcomes.iter().filter(|(_, v)| hit(v)).count();
    let committed = count(|v| *v == TxnPointVerdict::CommittedEverywhere);
    let aborted = count(|v| *v == TxnPointVerdict::AbortedEverywhere);
    let degraded = count(|v| matches!(v, TxnPointVerdict::DegradedShard { .. }));
    let split = count(|v| matches!(v, TxnPointVerdict::SplitResolved { .. }));

    CrossShard2pcReport {
        config,
        shards: XS_SHARDS,
        txns: XS_TXNS,
        crash_points,
        outcomes,
        committed,
        aborted,
        degraded,
        split,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// Every crash point of runs `runs` of `script` — one `(shard, cell,
/// value)` write set per transaction — on the `baseline` fleet, whose
/// committed cells `model` describes: each fleet-wide durable-event
/// count `0..=` the run's total, plus, when run 0 is included, one point
/// that loses the middle transaction's first participant at its
/// decision event.
///
/// Every run is the production calls [`CoordinatorPool::submit`] and
/// [`CoordinatorPool::drain`] are made of — `prepare`,
/// `buffer_decision`, `seal_decisions`, `complete_sealed`. Run 0 runs
/// them per transaction through a one-coordinator pool with groups of
/// one. Run `s > 0` prepares and buffers every transaction on two
/// alternating coordinators, seals the first `s` decisions together
/// and the rest together, then runs phase 2; its transactions are in
/// flight together, so their write sets must be pairwise disjoint.
#[must_use]
pub fn points_2pc(
    baseline: &[PersistentHeap],
    model: &CellModel,
    script: &[Vec<(usize, usize, u64)>],
    runs: RangeInclusive<usize>,
) -> Vec<TxnCrashPoint> {
    let mut points = Vec::new();
    for run in runs {
        let cut = PowerCut::never();
        let ((_, _, seal_end), _) =
            obs::capture(|| run_2pc(run, &mut baseline.to_vec(), model, script, &cut));
        points.extend((0..=cut.events()).map(|events| TxnCrashPoint { run, events, lost: None }));
        if run == 0 {
            let mid = script.len() / 2;
            let first = script[mid].iter().map(|&(shard, _, _)| shard).min();
            points.push(TxnCrashPoint { run, events: seal_end[mid], lost: first });
        }
    }
    points
}

/// Runs one 2PC crash point of [`points_2pc`] against clones of the
/// `baseline` shards, whose committed cells `model` describes, with the
/// `script` the point was enumerated from: drives the run with the fleet
/// armed by one [`PowerCut`], resolves the crashed fleet with
/// [`resolve_cross_shard`] and checks the all-or-nothing contract.
/// Transaction `t` is decided exactly when the cut fell at or after the
/// last event of the seal covering it — never on a torn group record,
/// never later — and the recovered pool attributes it to its issuer's
/// first generation exactly then. [`CellModel::audit_fleet`] then
/// checks that every decided write set is visible on every shard, every
/// other one vanished from every shard, and a lost shard degrades with
/// a typed refusal and quantified staleness.
///
/// # Panics
///
/// Panics when the point violates the contract, or when a transaction
/// of the script is refused.
#[must_use]
pub fn run_2pc_point(
    config: HeapConfig,
    baseline: &[PersistentHeap],
    model: &CellModel,
    script: &[Vec<(usize, usize, u64)>],
    cluster: &ClusterSpec,
    point: TxnCrashPoint,
) -> TxnPointVerdict {
    let mut heaps: Vec<PersistentHeap> = baseline.to_vec();
    let cut = PowerCut::after(point.events);
    // The run is the crashed operation: it books nothing.
    let ((pool, gtxids, seal_end), _) =
        obs::capture(|| run_2pc(point.run, &mut heaps, model, script, &cut));
    let coordinator_image = pool.crash_image();
    let images: Vec<Option<CrashImage>> = heaps
        .into_iter()
        .enumerate()
        .map(|(shard, heap)| (point.lost != Some(shard)).then(|| heap.crash(false)))
        .collect();
    let recovery = resolve_cross_shard(&coordinator_image, images, cluster);
    let recovered = CoordinatorPool::recover(&coordinator_image, pool.coordinators(), 1);

    let at = format!("{config} at {point:?}");
    let mut expected = model.clone();
    let mut committed = 0;
    for (t, (&gtxid, &end)) in gtxids.iter().zip(&seal_end).enumerate() {
        let (coordinator, decided) = (t % pool.coordinators(), point.events >= end);
        assert_eq!(recovery.decided.contains(&gtxid), decided, "{at}: txn {t} decision");
        assert_eq!(coordinator_of(gtxid), coordinator, "{at}: txn {t} issuer");
        assert_eq!(
            recovered.attribute(gtxid),
            decided.then_some(GtxidOrigin { coordinator, generation: 1 }),
            "{at}: txn {t} attribution"
        );
        if decided {
            expected.apply(&script[t]);
            committed += 1;
        }
    }
    expected.audit_fleet(recovery, point.lost, &at);

    match point.lost {
        Some(shard) => TxnPointVerdict::DegradedShard { shard },
        None if committed == 0 => TxnPointVerdict::AbortedEverywhere,
        None if committed == script.len() => TxnPointVerdict::CommittedEverywhere,
        None => TxnPointVerdict::SplitResolved {
            committed,
            aborted: script.len() - committed,
        },
    }
}

/// Drives run `run` of `script` (see [`points_2pc`]) on `heaps` with
/// `cut` armed on every heap and on a fresh pool. Returns the pool, each
/// transaction's gtxid, and the cut's event count at the end of the
/// seal covering each transaction.
fn run_2pc(
    run: usize,
    heaps: &mut [PersistentHeap],
    model: &CellModel,
    script: &[Vec<(usize, usize, u64)>],
    cut: &Arc<PowerCut>,
) -> (CoordinatorPool, Vec<u64>, Vec<u64>) {
    let mut pool = if run == 0 {
        CoordinatorPool::new(1, 1)
    } else {
        CoordinatorPool::new(XS_POOL_COORDS, script.len() + 1)
    };
    pool.arm(cut);
    for heap in heaps.iter_mut() {
        heap.arm(cut);
    }
    let (mut gtxids, mut seal_end) = (Vec::new(), Vec::new());
    for (t, ops) in script.iter().enumerate() {
        let coordinator = t % pool.coordinators();
        let mut txn = pool.begin(coordinator, model.shards());
        for &(shard, cell, value) in ops {
            txn.stage(shard, model.cell(shard, cell).offset(), value);
        }
        let refusal = pool.prepare(coordinator, heaps, &txn).unwrap();
        assert!(refusal.is_none(), "run {run}: txn {t} refused: {refusal:?}");
        pool.buffer_decision(coordinator, &txn);
        gtxids.push(txn.gtxid());
        if pool.should_seal(coordinator) || t + 1 == run || t + 1 == script.len() {
            pool.seal_decisions(coordinator);
            seal_end.resize(t + 1, cut.events());
        }
        if run == 0 {
            pool.complete_sealed(heaps).unwrap();
        }
    }
    pool.complete_sealed(heaps).unwrap();
    (pool, gtxids, seal_end)
}

/// A fault class injected into the supervised save → recovery-ladder
/// pipeline. Unlike [`SaveFault`] (a single crash instant on the plain
/// save path), each of these exercises a whole degraded-mode scenario:
/// how the save supervisor budgets it and which ladder rung the node
/// comes back on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderFault {
    /// `dips` sub-threshold `PWR_OK` dips: the debounce filter must
    /// swallow the storm without saving, arming, or halting anything.
    GlitchStorm {
        /// Number of sub-debounce dips in the trace.
        dips: u32,
    },
    /// The residual window falls short of the bulk flush. `fatal: false`
    /// leaves room for the priority stage (partial image, log replay);
    /// `fatal: true` covers nothing (no image, cluster rebuild).
    WindowShortfall {
        /// True when even the priority stage cannot fit.
        fatal: bool,
    },
    /// Power actually dies halfway through the bulk cache flush even
    /// though the measured window promised room: no marker may survive.
    BrownOutMidSave,
    /// `module`'s flash image is torn *after* a completed save (the
    /// valid flag stays high): the per-DIMM checksum must catch it at
    /// restore and the ladder must drop to the back end.
    TornSave {
        /// Index of the sabotaged module.
        module: usize,
    },
    /// `module`'s ultracapacitor is drained below its usable floor
    /// before the outage: the feasibility gate must refuse the save.
    UltracapBrownOut {
        /// Index of the drained module.
        module: usize,
    },
    /// Every module's cell is marginally provisioned and aged `cycles`
    /// charge cycles under the worst-case Figure-1 curve: feasibility
    /// must degrade the save before any flash wear.
    AgedUltracap {
        /// Charge cycles of wear on every cell.
        cycles: u64,
    },
    /// `module`'s save command fails `failures` times transiently; the
    /// supervisor's retry/backoff must absorb it into a complete save.
    SaveCommandFlake {
        /// Index of the flaky module.
        module: usize,
        /// Transient failures before the command sticks.
        failures: u32,
    },
    /// `module`'s save command fails on every attempt: the retry budget
    /// exhausts and the save must end in a typed `Failed` verdict.
    SaveCommandStuck {
        /// Index of the dead module.
        module: usize,
    },
    /// Power fails *again* at the entry of the given recovery rung; the
    /// ladder must power-cycle, restart from the top, and converge.
    CrashDuringRestore {
        /// The rung whose entry the second outage hits.
        rung: LadderRung,
    },
}

/// The result of one ladder fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderPointOutcome {
    /// The injected fault class.
    pub fault: LadderFault,
    /// The supervisor's save verdict under the fault.
    pub verdict: SaveVerdict,
    /// The ladder's terminal verdict — `None` only for glitch storms,
    /// where no outage happened and no recovery ran.
    pub outcome: Option<RecoveryOutcome>,
    /// Power cycles consumed by crashes during recovery.
    pub power_cycles: u32,
    /// Ladder rungs attempted (including refusals and crash restarts).
    pub rungs_tried: usize,
}

/// The full supervised-save → recovery-ladder sweep.
#[derive(Debug, Clone)]
pub struct LadderSweepReport {
    /// One outcome per fault class, in [`ladder_crash_points`] order.
    pub outcomes: Vec<LadderPointOutcome>,
    /// Points that ended in [`RecoveryOutcome::Recovered`].
    pub recovered: usize,
    /// Points that ended in a typed [`RecoveryOutcome::Degraded`].
    pub degraded: usize,
    /// Glitch storms the debounce filter absorbed (no outage at all).
    pub glitches_ignored: usize,
    /// Per-point traces merged in fault-class order — identical for any
    /// `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across every fault class, in the same order.
    pub metrics: MetricsSnapshot,
}

/// Enumerates every ladder fault class for a machine with `modules`
/// NVDIMMs: glitch storms, window shortfalls (partial and fatal), a
/// mid-save brown-out, marginal aged cells, save-command flakes and
/// dead commands, per-module torn saves and cell brown-outs, and a
/// crash-during-restore at each ladder rung.
#[must_use]
pub fn ladder_crash_points(modules: usize) -> Vec<LadderFault> {
    let mut points = vec![
        LadderFault::GlitchStorm { dips: 3 },
        LadderFault::GlitchStorm { dips: 9 },
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
    ];
    for module in 0..modules {
        points.push(LadderFault::TornSave { module });
        points.push(LadderFault::UltracapBrownOut { module });
    }
    points
}

/// Runs the recovery-ladder sweep: for every fault class from
/// [`ladder_crash_points`], build a fresh machine and heap (committed
/// state plus an in-flight transaction and a deliberately stale back-end
/// checkpoint), run the supervised save under the fault, cut power,
/// climb the ladder, and assert the degraded-mode contract.
///
/// The contract, checked at every point:
///
/// * the supervisor's verdict *predicts* the terminal rung (complete →
///   full resume, partial → log replay, failed/torn → cluster rebuild);
/// * `Recovered` outcomes hold every committed transaction, `Degraded`
///   outcomes hold exactly the checkpoint and *quantify* the loss;
/// * glitch storms touch nothing;
/// * no fault class panics — every path ends in a typed verdict.
///
/// Deterministic and thread-count-independent exactly like
/// [`sweep_save_path`]: per-point PRNGs are split serially from the seed
/// before dispatch.
///
/// # Panics
///
/// Panics when any fault class violates the contract.
pub fn sweep_recovery_ladder(
    make_machine: impl Fn() -> Machine + Sync,
    load: SystemLoad,
    seed: u64,
) -> LadderSweepReport {
    sweep_recovery_ladder_threads(make_machine, load, seed, sweep::threads())
}

pub(crate) fn sweep_recovery_ladder_threads(
    make_machine: impl Fn() -> Machine + Sync,
    load: SystemLoad,
    seed: u64,
    threads: usize,
) -> LadderSweepReport {
    let modules = make_machine().nvram().dimms().len();
    let mut parent = DetRng::seed_from_u64(seed ^ 0x1ad);
    let points: Vec<(usize, (LadderFault, DetRng))> = ladder_crash_points(modules)
        .into_iter()
        .map(|fault| (fault, parent.split()))
        .enumerate()
        .collect();
    let (outcomes, merged) = sweep::run(points, threads, |(idx, (fault, rng))| {
        sweep::inject(idx as i64, 0, &fault);
        run_ladder_point(&make_machine, load, seed, fault, rng)
    });
    let recovered = outcomes
        .iter()
        .filter(|o| matches!(o.outcome, Some(RecoveryOutcome::Recovered { .. })))
        .count();
    let degraded = outcomes
        .iter()
        .filter(|o| matches!(o.outcome, Some(RecoveryOutcome::Degraded { .. })))
        .count();
    let glitches_ignored = outcomes.iter().filter(|o| o.outcome.is_none()).count();
    LadderSweepReport {
        outcomes,
        recovered,
        degraded,
        glitches_ignored,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// Which terminal state a fault class must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LadderExpect {
    LocalResume,
    LogReplay,
    Rebuild,
}

fn commit_word(heap: &mut PersistentHeap, value: u64) {
    let mut tx = heap.begin();
    let p = tx.alloc(16).expect("model heap has room");
    tx.write_word(p, value).expect("fresh allocation is writable");
    tx.set_root(p).expect("root update");
    tx.commit().expect("commit on a healthy heap");
}

fn ladder_root_value(heap: &mut PersistentHeap) -> u64 {
    let root = heap.root().expect("recovered heap keeps its root");
    let mut tx = heap.begin();
    let v = tx.read_word(root).expect("root cell readable");
    tx.commit().expect("read-only commit");
    v
}

/// One ladder fault point: sabotage, save, outage, ladder, verify.
#[allow(clippy::too_many_lines)]
fn run_ladder_point(
    make_machine: &impl Fn() -> Machine,
    load: SystemLoad,
    seed: u64,
    fault: LadderFault,
    mut rng: DetRng,
) -> LadderPointOutcome {
    let mut machine = make_machine();
    machine.apply_load(load, seed);

    // Pre-save sabotage: energy cells and the save-command path.
    match fault {
        LadderFault::AgedUltracap { cycles } => {
            for dimm in machine.nvram_mut().dimms_mut() {
                let need = dimm.save_power() * dimm.flash().full_save_time();
                // 5 % fresh margin over the save demand between 12 V and
                // the 6 V cutoff (usable = ½·C·(12² − 6²) = 54·C joules):
                // feasible new, infeasible once worst-case aging bites.
                let marginal = Farads::new(need.get() * 1.05 / 54.0);
                *dimm.ultracap_mut() =
                    Ultracapacitor::new(marginal, Volts::new(12.0), Volts::new(6.0))
                        .with_aging(AgingModel::UltracapWorst)
                        .with_cycles(cycles);
            }
        }
        LadderFault::UltracapBrownOut { module } => {
            let cap = machine.nvram_mut().dimms_mut()[module].ultracap_mut();
            let _ = cap.discharge(Watts::new(1e6), Nanos::from_secs(3600));
        }
        LadderFault::SaveCommandFlake { module, failures } => {
            machine.nvram_mut().dimms_mut()[module].inject_save_command_faults(failures);
        }
        LadderFault::SaveCommandStuck { module } => {
            machine.nvram_mut().dimms_mut()[module].inject_save_command_faults(u32::MAX);
        }
        _ => {}
    }

    // Every module carries payload beyond the resume block, so a torn
    // flash image is detectable on any of them (the stored image is
    // sparse: an all-empty module would have nothing to tear).
    for dimm in machine.nvram_mut().dimms_mut() {
        let mut payload = [0u8; 32];
        rng.fill_bytes(&mut payload);
        dimm.write(0x2000, &payload);
    }

    // The node's heap: `v1` checkpointed to the back end, `v2` committed
    // after it (lost on a rebuild, quantified by the checkpoint seq),
    // plus an in-flight transaction that must roll back on every rung.
    let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FofUndo);
    let v1 = rng.gen::<u64>();
    let v2 = rng.gen::<u64>();
    commit_word(&mut heap, v1);
    let mut backend = BackendStore::disk_array();
    backend.checkpoint(&heap);
    let checkpoint_seq = backend.checkpoint_seq().expect("checkpoint just taken");
    commit_word(&mut heap, v2);
    {
        let mut tx = heap.begin();
        let junk = tx.alloc(16).expect("model heap has room");
        tx.write_word(junk, rng.gen::<u64>()).expect("writable");
        std::mem::forget(tx); // power fails with the transaction open
    }

    let trace = match fault {
        LadderFault::GlitchStorm { dips } => glitch_storm_trace(dips),
        _ => clean_failure_trace(),
    };
    let partial_window = priority_stage_window(&machine, &heap);
    let budget = match fault {
        LadderFault::WindowShortfall { fatal: false }
        | LadderFault::CrashDuringRestore {
            rung: LadderRung::LocalWsp | LadderRung::HeapLogReplay,
        } => SaveBudget {
            window_cap: Some(partial_window),
            ..SaveBudget::trusting()
        },
        LadderFault::WindowShortfall { fatal: true }
        | LadderFault::CrashDuringRestore {
            rung: LadderRung::ClusterRebuild,
        } => SaveBudget {
            window_cap: Some(Nanos::from_micros(150)),
            ..SaveBudget::trusting()
        },
        LadderFault::BrownOutMidSave => SaveBudget {
            cut: Some(
                detection(&machine)
                    + machine.profile().context_save
                    + stage_a_probe(&heap)
                    + bulk_flush(&machine, load, 1) / 2,
            ),
            ..SaveBudget::trusting()
        },
        _ => SaveBudget::trusting(),
    };

    let report = supervised_save(&mut machine, &mut heap, load, &trace, budget)
        .expect("every injected fault class yields a verdict, not an error");

    if let SaveVerdict::GlitchIgnored { .. } = report.verdict {
        assert!(!report.armed, "{fault:?}: glitches must not arm the modules");
        assert!(
            !machine.nvram().all_saved(),
            "{fault:?}: glitches must not save"
        );
        assert!(
            machine.cores().iter().all(|c| !c.halted),
            "{fault:?}: glitches must not halt cores"
        );
        return LadderPointOutcome {
            fault,
            verdict: report.verdict,
            outcome: None,
            power_cycles: 0,
            rungs_tried: 0,
        };
    }

    // Post-save sabotage: tear a completed flash image behind the
    // supervisor's back — the valid flag stays high, only the checksum
    // knows.
    if let LadderFault::TornSave { module } = fault {
        assert_eq!(
            report.verdict,
            SaveVerdict::Complete,
            "torn-save points ride a completed save"
        );
        // Tearing anywhere inside the first page drops every stored
        // page, including the module's payload — the checksum must
        // notice no matter how much of the image survived.
        let tear_from = rng.gen_range(0..4096);
        machine.nvram_mut().dimms_mut()[module].tear_saved_image(tear_from);
    }

    let image = report
        .armed
        .then(|| heap.crash(report.verdict == SaveVerdict::Complete));

    machine.system_power_loss();
    machine.system_power_on();

    let cluster = ClusterSpec::memcache_tier(64);
    let crash_at = match fault {
        LadderFault::CrashDuringRestore { rung } => Some(rung),
        _ => None,
    };
    let (ladder, recovered) = run_recovery_ladder(LadderInput {
        machine: &mut machine,
        strategy: RestartStrategy::RestorePathReinit,
        image,
        backend: &backend,
        cluster: &cluster,
        crash_at,
    });

    // The degraded-mode contract: the save verdict predicts the rung.
    let expect = match (fault, &report.verdict) {
        (LadderFault::TornSave { .. }, _) => LadderExpect::Rebuild,
        (_, SaveVerdict::Complete) => LadderExpect::LocalResume,
        (_, SaveVerdict::PartialPriority) => LadderExpect::LogReplay,
        (_, SaveVerdict::Failed { .. }) => LadderExpect::Rebuild,
        (_, SaveVerdict::GlitchIgnored { .. }) => unreachable!("returned above"),
    };
    match &ladder.outcome {
        RecoveryOutcome::Recovered {
            rung: LadderRung::LocalWsp,
            ..
        } => {
            assert_eq!(expect, LadderExpect::LocalResume, "{fault:?}: {ladder:?}");
            let mut h = recovered.expect("recovered rungs return the heap");
            assert_eq!(
                ladder_root_value(&mut h),
                v2,
                "{fault:?}: a full resume loses nothing"
            );
        }
        RecoveryOutcome::Recovered {
            rung: LadderRung::HeapLogReplay,
            ..
        } => {
            assert_eq!(expect, LadderExpect::LogReplay, "{fault:?}: {ladder:?}");
            let mut h = recovered.expect("recovered rungs return the heap");
            assert_eq!(
                ladder_root_value(&mut h),
                v2,
                "{fault:?}: log replay recovers every committed transaction"
            );
        }
        RecoveryOutcome::Recovered {
            rung: LadderRung::ClusterRebuild,
            ..
        } => panic!("{fault:?}: the bottom rung is Degraded by definition"),
        RecoveryOutcome::Degraded { rung, reason, .. } => {
            assert_eq!(expect, LadderExpect::Rebuild, "{fault:?}: {ladder:?}");
            assert_eq!(*rung, LadderRung::ClusterRebuild, "{fault:?}");
            assert!(
                reason.contains(&format!("transaction {checkpoint_seq}")),
                "{fault:?}: data loss must be quantified, got: {reason}"
            );
            assert!(
                ladder.attempts.iter().any(|a| a.refusal.is_some()),
                "{fault:?}: degradation must be traced to a typed refusal"
            );
            let mut h = recovered.expect("the checkpoint rebuild returns a heap");
            assert_eq!(
                ladder_root_value(&mut h),
                v1,
                "{fault:?}: a rebuild restores exactly the checkpoint"
            );
        }
    }
    let expected_cycles = u32::from(matches!(fault, LadderFault::CrashDuringRestore { .. }));
    assert_eq!(
        ladder.power_cycles, expected_cycles,
        "{fault:?}: crash-during-restore fires exactly once"
    );

    LadderPointOutcome {
        fault,
        verdict: report.verdict,
        outcome: Some(ladder.outcome),
        power_cycles: ladder.power_cycles,
        rungs_tried: ladder.attempts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_save_step_and_module() {
        let points = save_path_crash_points(RestartStrategy::RestorePathReinit, 4);
        // 9 steps (no ACPI suspend) + 4 flush batches + 4 modules.
        assert_eq!(points.len(), 9 + FLUSH_BATCHES + 4);
        assert!(points.contains(&SaveFault::BeforeStep(SaveStep::MarkImageValid)));
        assert!(!points.contains(&SaveFault::BeforeStep(SaveStep::SuspendDevices)));
        let acpi = save_path_crash_points(RestartStrategy::AcpiSuspend, 1);
        assert!(acpi.contains(&SaveFault::BeforeStep(SaveStep::SuspendDevices)));
    }

    #[test]
    fn only_post_arm_faults_are_recoverable() {
        assert!(SaveFault::BeforeStep(SaveStep::Halt).recoverable());
        for fault in save_path_crash_points(RestartStrategy::RestorePathReinit, 2) {
            if fault != SaveFault::BeforeStep(SaveStep::Halt) {
                assert!(!fault.recoverable(), "{fault:?}");
            }
        }
    }

    #[test]
    fn save_sweep_holds_on_intel_busy() {
        let report = sweep_save_path(
            Machine::intel_testbed,
            SystemLoad::Busy,
            RestartStrategy::RestorePathReinit,
            42,
        );
        // Exactly the post-arm point recovers locally.
        assert_eq!(report.locally_restored, 1);
        assert!(report.outcomes.len() > 10);
    }

    #[test]
    fn save_sweep_holds_on_amd_idle() {
        let report = sweep_save_path(
            Machine::amd_testbed,
            SystemLoad::Idle,
            RestartStrategy::RestorePathReinit,
            7,
        );
        assert_eq!(report.locally_restored, 1);
    }

    #[test]
    fn acpi_strawman_never_recovers_locally() {
        // The suspend step alone blows the residual window, so even the
        // post-arm fault point cannot produce a valid image.
        let report = sweep_save_path(
            Machine::intel_testbed,
            SystemLoad::Busy,
            RestartStrategy::AcpiSuspend,
            3,
        );
        assert_eq!(report.locally_restored, 0);
    }

    #[test]
    fn mid_transaction_sweep_holds_for_every_config() {
        for config in HeapConfig::all() {
            let report = sweep_mid_transaction(config, 1234);
            assert_eq!(report.crash_points, 13, "{config}");
        }
    }

    #[test]
    fn mid_epoch_sweep_holds_for_foc_configs() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let report = sweep_mid_epoch(config, 4242);
            assert_eq!(report.epoch_size, 8, "{config}");
            // 21 after-tx points plus at least records + fence seal steps.
            assert!(report.crash_points > 23, "{config}: {}", report.crash_points);
        }
    }

    #[test]
    #[should_panic(expected = "flush-on-commit")]
    fn mid_epoch_sweep_rejects_flush_on_fail_configs() {
        let _ = sweep_mid_epoch(HeapConfig::Fof, 1);
    }

    #[test]
    fn cross_shard_sweep_holds_for_foc_configs() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let report = sweep_cross_shard_2pc(config, 4242);
            assert_eq!(report.shards, XS_SHARDS, "{config}");
            assert_eq!(report.outcomes.len(), report.crash_points, "{config}");
            for run in 0..=XS_TXNS {
                let verdicts: Vec<TxnPointVerdict> = report
                    .outcomes
                    .iter()
                    .filter(|(p, _)| p.run == run && p.lost.is_none())
                    .map(|&(_, v)| v)
                    .collect();
                // Power fails before the run's first event and after its
                // last: nothing is decided, then everything is.
                assert_eq!(verdicts[0], TxnPointVerdict::AbortedEverywhere, "{config} run {run}");
                assert_eq!(
                    verdicts[verdicts.len() - 1],
                    TxnPointVerdict::CommittedEverywhere,
                    "{config} run {run}"
                );
                // A grouped run's first seal decides a proper prefix.
                let split = TxnPointVerdict::SplitResolved {
                    committed: run,
                    aborted: XS_TXNS - run,
                };
                assert_eq!(
                    verdicts.contains(&split),
                    run > 0 && run < XS_TXNS,
                    "{config} run {run}"
                );
            }
            assert_eq!(report.degraded, 1, "{config}");
            assert_eq!(
                report.committed + report.aborted + report.degraded + report.split,
                report.crash_points,
                "{config}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "flush-on-commit")]
    fn cross_shard_sweep_rejects_flush_on_fail_configs() {
        let _ = sweep_cross_shard_2pc(HeapConfig::Fof, 1);
    }

    #[test]
    fn ladder_points_cover_every_fault_class_and_module() {
        let points = ladder_crash_points(4);
        // 11 machine-independent classes + 2 per module.
        assert_eq!(points.len(), 11 + 2 * 4);
        assert!(points.contains(&LadderFault::TornSave { module: 3 }));
        assert!(points.contains(&LadderFault::CrashDuringRestore {
            rung: LadderRung::ClusterRebuild
        }));
    }

    #[test]
    fn ladder_sweep_holds_on_intel_busy() {
        let report = sweep_recovery_ladder(Machine::intel_testbed, SystemLoad::Busy, 42);
        assert_eq!(report.glitches_ignored, 2, "both glitch storms absorbed");
        // Recovered: the partial window shortfall, the absorbed command
        // flake, and the two crash-during-restore points that ride a
        // partial save.
        assert_eq!(report.recovered, 4, "{:?}", report.outcomes);
        // Everything else ends in a typed Degraded verdict.
        assert_eq!(
            report.degraded,
            report.outcomes.len() - report.recovered - report.glitches_ignored
        );
        assert!(report.degraded >= 5);
    }

    #[test]
    fn ladder_sweep_holds_on_amd_idle() {
        let report = sweep_recovery_ladder(Machine::amd_testbed, SystemLoad::Idle, 7);
        assert_eq!(report.glitches_ignored, 2);
        assert_eq!(report.recovered, 4);
    }
}
