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

use std::collections::HashMap;

use wsp_cache::FlushMethod;
use wsp_cluster::ClusterSpec;
use wsp_det::{DetRng, Rng};
use wsp_machine::{CpuContext, Machine, SystemLoad};
use wsp_obs as obs;
use wsp_obs::{Capture, Ctr, MetricsSnapshot, Trace};
use wsp_pheap::{
    BackendStore, CrashImage, HeapConfig, HeapError, PersistentHeap, PmPtr, RecoveryLadder,
};
use wsp_power::{AgingModel, Ultracapacitor};
use wsp_units::{ByteSize, Farads, Nanos, Volts, Watts};

use crate::ladder::{run_recovery_ladder, LadderInput, LadderRung, RecoveryOutcome};
use crate::restore::restore;
use crate::save::{flush_on_fail_save_with_fault, SaveFault, SaveReport, SaveStep};
use crate::supervisor::{
    clean_failure_trace, glitch_storm_trace, supervised_save, SaveBudget, SaveVerdict,
};
use crate::txn::{
    coordinator_of, resolve_cross_shard, CoordinatorPool, CrossShardTxn, GtxidOrigin,
    SubmitOutcome,
};
use crate::{layout, RestartStrategy, WspError};

pub use crate::lockfree_sweep::{
    classify_recovery, sweep_lockfree, sweep_lockfree_threads, LfScenarioOutcome, LfStructure,
    LockfreeSweepReport,
};

/// How many equal batches the cache flush is split into for
/// mid-flush injection points.
pub const FLUSH_BATCHES: usize = 4;

/// Worker count for the crash-point sweeps.
///
/// `WSP_FAULTSIM_THREADS` overrides (set `1` to force the serial path);
/// otherwise the host's available parallelism is used. Results are
/// bitwise identical either way: every per-point PRNG is split from the
/// sweep seed *serially* before any worker starts, and outcomes are
/// reassembled in crash-point order.
#[must_use]
pub fn faultsim_threads() -> usize {
    if let Ok(v) = std::env::var("WSP_FAULTSIM_THREADS") {
        return v.trim().parse::<usize>().map_or(1, |n| n.max(1));
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Distributes `items` round-robin over `threads` scoped workers, runs
/// `work` on each, and returns the results in the original item order.
/// Worker panics (invariant violations) propagate to the caller.
pub(crate) fn run_sharded<T, R, F>(items: Vec<T>, threads: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let total = items.len();
    let threads = threads.clamp(1, total.max(1));
    if threads <= 1 {
        return items.into_iter().map(work).collect();
    }
    let mut queues: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % threads].push((i, item));
    }
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = queues
            .into_iter()
            .map(|queue| {
                let work = &work;
                s.spawn(move || {
                    queue
                        .into_iter()
                        .map(|(i, item)| (i, work(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let results = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in results {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every sharded item produces a result"))
        .collect()
}

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

/// Merges per-point captures in point order into one sweep-level trace
/// and metrics snapshot. Each point is recorded wholly on the worker
/// that ran it, so merging in point order makes the result independent
/// of the thread count.
pub(crate) fn merge_point_captures(captures: impl IntoIterator<Item = Capture>) -> Capture {
    let mut merged = Capture::default();
    for cap in captures {
        merged.absorb(cap);
    }
    merged
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
    sweep_save_path_threads(make_machine, load, strategy, seed, faultsim_threads())
}

fn sweep_save_path_threads(
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
    let pairs = run_sharded(points, threads, |(idx, (fault, rng))| {
        obs::capture(|| {
            obs::emit_detail(
                "faultsim",
                "inject",
                Nanos::ZERO,
                idx as i64,
                0,
                format!("{fault:?}"),
            );
            obs::count(Ctr::FaultsInjected);
            run_save_point(&make_machine, load, strategy, seed, fault, rng)
        })
    });
    let mut outcomes = Vec::with_capacity(pairs.len());
    let mut captures = Vec::with_capacity(pairs.len());
    for (outcome, cap) in pairs {
        outcomes.push(outcome);
        captures.push(cap);
    }
    let merged = merge_point_captures(captures);
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

/// The result of the mid-transaction sweep for one heap configuration.
#[derive(Debug, Clone)]
pub struct MidTxSweepReport {
    /// The configuration swept.
    pub config: HeapConfig,
    /// Crash points exercised (one per prefix of the scripted
    /// transaction, including the empty prefix).
    pub crash_points: usize,
    /// Baseline-setup events followed by per-point traces merged in
    /// crash-point order — identical for any `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across the setup and every crash point.
    pub metrics: MetricsSnapshot,
}

/// Crashes an open transaction after every prefix of a seeded operation
/// script and verifies recovery against the in-memory model:
/// transactional configurations recover exactly the committed state
/// (mid-transaction redo records are not committed, mid-transaction
/// undo records roll back); the plain FoF heap — no transactions, the
/// WSP programming model — recovers exactly the words written so far.
///
/// Flush-on-commit configurations are crashed *without* the
/// flush-on-fail save (their whole point), flush-on-fail configurations
/// with it.
///
/// # Panics
///
/// Panics when recovery diverges from the model at any crash point.
pub fn sweep_mid_transaction(config: HeapConfig, seed: u64) -> MidTxSweepReport {
    sweep_mid_transaction_threads(config, seed, faultsim_threads())
}

fn sweep_mid_transaction_threads(config: HeapConfig, seed: u64, threads: usize) -> MidTxSweepReport {
    let mut rng = DetRng::seed_from_u64(seed);

    // Committed baseline: eight root-reachable cells with known values.
    // The setup commit is captured so its pheap metrics land in the
    // sweep's snapshot, not in the caller's ambient recorder.
    let cells = 8usize;
    let ((heap, committed), setup) = obs::capture(|| {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut committed: Vec<(PmPtr, u64)> = Vec::new();
        let mut tx = heap.begin();
        let base = tx.alloc(cells as u64 * 8).unwrap();
        for i in 0..cells {
            let p = base.field(i as u64);
            let v = rng.gen::<u64>();
            tx.write_word(p, v).unwrap();
            committed.push((p, v));
        }
        tx.set_root(base).unwrap();
        tx.commit().unwrap();
        (heap, committed)
    });

    // The scripted in-flight transaction: twelve writes over the cells.
    let script: Vec<(usize, u64)> = (0..12)
        .map(|_| (rng.gen_range(0..cells), rng.gen::<u64>()))
        .collect();

    // FoC crashes raw (no save — that is the configuration's claim);
    // FoF crashes with the completed save it depends on. Crash points
    // are independent (each clones the committed heap), so they shard
    // across workers; every point is pure assertion, so the sweep's
    // outcome is schedule-independent by construction.
    let save_runs = !config.flush_on_commit();
    let points: Vec<usize> = (0..=script.len()).collect();
    let captures = run_sharded(points, threads, |crash_at| {
        let ((), cap) = obs::capture(|| {
            obs::emit_detail(
                "faultsim",
                "inject",
                Nanos::ZERO,
                crash_at as i64,
                0,
                format!("MidTx {{ crash_at: {crash_at} }}"),
            );
            obs::count(Ctr::FaultsInjected);
            run_tx_point(&heap, &committed, &script, config, save_runs, crash_at);
        });
        cap
    });
    let mut merged = setup;
    merged.absorb(merge_point_captures(captures));

    MidTxSweepReport {
        config,
        crash_points: script.len() + 1,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// One mid-transaction crash point: replay the script prefix inside an
/// open transaction on a clone of the committed heap, cut power, recover,
/// and compare against the in-memory model.
fn run_tx_point(
    heap: &PersistentHeap,
    committed: &[(PmPtr, u64)],
    script: &[(usize, u64)],
    config: HeapConfig,
    save_runs: bool,
    crash_at: usize,
) {
    let mut h = heap.clone();
    let mut tx = h.begin();
    for &(idx, value) in &script[..crash_at] {
        tx.write_word(committed[idx].0, value).unwrap();
    }
    // Power failure mid-transaction: the abort path never runs, the
    // log keeps whatever records were appended so far.
    std::mem::forget(tx);

    let mut recovered = match PersistentHeap::recover(h.crash(save_runs)) {
        Ok(r) => r,
        Err(HeapError::Unrecoverable { .. }) if !save_runs => {
            unreachable!("FoC heaps recover without the save")
        }
        Err(e) => panic!("{config}: recovery failed at crash point {crash_at}: {e}"),
    };

    // The model: committed values, overlaid — for the plain
    // non-transactional heap only — by the prefix that ran.
    let mut expected: HashMap<u64, u64> =
        committed.iter().map(|&(p, v)| (p.offset(), v)).collect();
    if !config.transactional() {
        for &(idx, value) in &script[..crash_at] {
            expected.insert(committed[idx].0.offset(), value);
        }
    }

    let root = recovered.root().expect("root survives");
    assert_eq!(root, committed[0].0, "{config}: root at point {crash_at}");
    let mut check = recovered.begin();
    for (&addr, &want) in &expected {
        let got = check.read_word(PmPtr::new(addr).unwrap()).unwrap();
        assert_eq!(
            got, want,
            "{config}: cell {addr:#x} at crash point {crash_at}"
        );
    }
    check.commit().unwrap();
}

/// One crash point of the mid-epoch sweep.
#[derive(Debug, Clone, Copy)]
enum EpochCrashPoint {
    /// Power fails after `txs` transactions committed into epochs: the
    /// open buffer and any staged-but-undrained generation are volatile
    /// and lost wholesale (seals lag one generation behind staging).
    AfterTx(usize),
    /// Power fails `step` durable operations into the full seal of a
    /// heap holding a staged generation *and* a partially filled open
    /// one — inside the staged batch's record appends, at its marker
    /// boundary, or anywhere in the open batch's pipeline behind it.
    MidSeal(u64),
    /// Power fails `step` durable operations into sealing a heap whose
    /// only buffered transactions live in the open generation (nothing
    /// staged yet). The epoch-commit marker is never written.
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
    /// (including zero), one per durable step of a double-generation
    /// mid-epoch seal (staged batch, marker boundary, open batch), and
    /// one per durable step of an open-only seal.
    pub crash_points: usize,
    /// Baseline-setup events followed by per-point traces merged in
    /// crash-point order — identical for any `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across the setup and every crash point.
    pub metrics: MetricsSnapshot,
}

/// Crashes an epoch-group-commit heap after every committed transaction
/// of a seeded script *and* at every durable step of its pipelined
/// seals, then verifies that recovery restores exactly the epochs whose
/// write-behind drain completed: with double-buffered seals durability
/// lags staging by one generation, so transactions in the open buffer
/// *or* a staged-but-undrained generation vanish wholesale, a
/// half-drained batch rolls back past its missing marker, and a crash
/// one step past the staged boundary keeps the staged epoch while the
/// open one still vanishes. No crash point ever exposes a partial
/// epoch.
///
/// # Panics
///
/// Panics for configurations without flush-on-commit durability (epoch
/// group commit is a documented no-op there, so the sweep would be
/// vacuous), or when recovery diverges from the model at any point.
pub fn sweep_mid_epoch(config: HeapConfig, seed: u64) -> MidEpochSweepReport {
    sweep_mid_epoch_threads(config, seed, faultsim_threads())
}

fn sweep_mid_epoch_threads(config: HeapConfig, seed: u64, threads: usize) -> MidEpochSweepReport {
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
    let ((heap, committed), setup) = obs::capture(|| {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut committed: Vec<(PmPtr, u64)> = Vec::new();
        let mut tx = heap.begin();
        let base = tx.alloc(cells as u64 * 64).unwrap();
        for i in 0..cells {
            let p = base.byte_offset(i as u64 * 64);
            let v = rng.gen::<u64>();
            tx.write_word(p, v).unwrap();
            committed.push((p, v));
        }
        tx.set_root(base).unwrap();
        tx.commit().unwrap();
        heap.set_epoch_size(epoch_size as u64);
        (heap, committed)
    });

    // The scripted epoch workload: one single-write transaction per
    // entry; every `epoch_size`-th commit auto-seals.
    let script: Vec<(usize, u64)> = (0..txs_total)
        .map(|_| (rng.gen_range(0..cells), rng.gen::<u64>()))
        .collect();

    // How many durable steps each crash-sweep seal has, measured
    // serially on throwaway replays (their observability is discarded —
    // every point re-runs the same deterministic prefix). At `mid_txs`
    // one generation is staged behind four open transactions, so the
    // step space spans both batches plus the staged marker; at
    // `early_txs` only the open buffer exists.
    let ((mid_steps, staged_boundary, open_steps), _) = obs::capture(|| {
        let mut probe = heap.clone();
        replay_epoch_txs(&mut probe, &committed, &script[..mid_txs]);
        let mut open_probe = heap.clone();
        replay_epoch_txs(&mut open_probe, &committed, &script[..early_txs]);
        (
            probe.seal_steps(),
            probe.staged_seal_steps(),
            open_probe.seal_steps(),
        )
    });
    assert!(
        staged_boundary > 0 && mid_steps > staged_boundary,
        "{config}: mid-seal crash space must straddle the staged boundary"
    );

    let mut points: Vec<EpochCrashPoint> =
        (0..=txs_total).map(EpochCrashPoint::AfterTx).collect();
    points.extend((0..=mid_steps).map(EpochCrashPoint::MidSeal));
    points.extend((0..=open_steps).map(EpochCrashPoint::MidSealOpen));
    let crash_points = points.len();

    let captures = run_sharded(points, threads, |point| {
        let ((), cap) = obs::capture(|| {
            let (a, b) = match point {
                EpochCrashPoint::AfterTx(t) => (t as i64, -1),
                EpochCrashPoint::MidSeal(s) => (mid_txs as i64, s as i64),
                EpochCrashPoint::MidSealOpen(s) => (early_txs as i64, s as i64),
            };
            obs::emit_detail("faultsim", "inject", Nanos::ZERO, a, b, format!("{point:?}"));
            obs::count(Ctr::FaultsInjected);
            run_epoch_point(
                &heap,
                &committed,
                &script,
                epoch_size,
                config,
                (mid_txs, early_txs, staged_boundary),
                point,
            );
        });
        cap
    });
    let mut merged = setup;
    merged.absorb(merge_point_captures(captures));

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
fn replay_epoch_txs(
    heap: &mut PersistentHeap,
    committed: &[(PmPtr, u64)],
    prefix: &[(usize, u64)],
) {
    for &(idx, value) in prefix {
        let mut tx = heap.begin();
        tx.write_word(committed[idx].0, value).unwrap();
        tx.commit().unwrap();
    }
}

/// One mid-epoch crash point: replay the script prefix on a clone of
/// the baseline heap, cut power (after a commit or partway through a
/// seal), recover, and compare against the pipelined-durability model.
fn run_epoch_point(
    heap: &PersistentHeap,
    committed: &[(PmPtr, u64)],
    script: &[(usize, u64)],
    epoch_size: usize,
    config: HeapConfig,
    (mid_txs, early_txs, staged_boundary): (usize, usize, u64),
    point: EpochCrashPoint,
) {
    let mut h = heap.clone();
    // The model: the baseline overlaid by every *drained* epoch. With
    // double-buffered seals a generation stages at every
    // `epoch_size`-th commit but only drains when the *next* one
    // stages, so durability lags staging by one full generation. A
    // mid-seal crash past the staged batch's marker step makes that
    // epoch durable; at or below the boundary (or in an open-only
    // seal) nothing new survives.
    let (durable, image) = match point {
        EpochCrashPoint::AfterTx(t) => {
            replay_epoch_txs(&mut h, committed, &script[..t]);
            let staged = t / epoch_size;
            (staged.saturating_sub(1) * epoch_size, h.crash(false))
        }
        EpochCrashPoint::MidSeal(step) => {
            replay_epoch_txs(&mut h, committed, &script[..mid_txs]);
            let durable = if step > staged_boundary { epoch_size } else { 0 };
            (durable, h.crash_mid_seal(step))
        }
        EpochCrashPoint::MidSealOpen(step) => {
            replay_epoch_txs(&mut h, committed, &script[..early_txs]);
            (0, h.crash_mid_seal(step))
        }
    };
    let mut expected: HashMap<u64, u64> =
        committed.iter().map(|&(p, v)| (p.offset(), v)).collect();
    for &(idx, value) in &script[..durable] {
        expected.insert(committed[idx].0.offset(), value);
    }

    let mut recovered = PersistentHeap::recover(image)
        .unwrap_or_else(|e| panic!("{config}: recovery failed at {point:?}: {e}"));
    let root = recovered.root().expect("root survives");
    assert_eq!(root, committed[0].0, "{config}: root at {point:?}");
    let mut check = recovered.begin();
    for (&addr, &want) in &expected {
        let got = check.read_word(PmPtr::new(addr).unwrap()).unwrap();
        assert_eq!(got, want, "{config}: cell {addr:#x} at {point:?}");
    }
    check.commit().unwrap();
}

/// Shards in the cross-shard 2PC sweep.
const XS_SHARDS: usize = 3;
/// Cells per shard (each on its own cache line).
const XS_CELLS: usize = 4;
/// Scripted cross-shard transactions per sweep.
const XS_TXNS: usize = 4;

/// One injected crash point of [`sweep_cross_shard_2pc`]: a power
/// failure at a specific step of the two-phase commit protocol, on the
/// coordinator or partway through a participant shard's seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnCrashPoint {
    /// The coordinator dies before any participant prepares: nothing of
    /// the transaction is durable anywhere.
    CoordPrePrepare {
        /// Index of the scripted transaction being attempted.
        txn: usize,
    },
    /// The coordinator dies after `prepared` participants hold a
    /// durable PREPARED record; presumed abort must erase them.
    BetweenPrepares {
        /// Index of the scripted transaction being attempted.
        txn: usize,
        /// Participants already prepared when power fails.
        prepared: usize,
    },
    /// Every participant is prepared but the coordinator dies before
    /// its decision record — the canonical in-doubt case, resolved to
    /// abort.
    PostPrepareNoDecision {
        /// Index of the scripted transaction being attempted.
        txn: usize,
    },
    /// The decision record is durable but no shard holds its commit
    /// marker yet: every participant is in doubt and must resolve to
    /// commit.
    PostDecisionPreCommit {
        /// Index of the scripted transaction being attempted.
        txn: usize,
    },
    /// The decision is durable and `committed` participants already
    /// hold their local commit markers; the rest resolve to commit.
    BetweenShardCommits {
        /// Index of the scripted transaction being attempted.
        txn: usize,
        /// Participants whose local commit marker is already durable.
        committed: usize,
    },
    /// A participant crashes after `step` durable words of its own
    /// prepare seal — before its PREPARED marker exists, so the
    /// transaction presumes abort everywhere.
    ShardMidPrepare {
        /// Index of the scripted transaction being attempted.
        txn: usize,
        /// Durable words of the prepare seal when power fails.
        step: u64,
    },
    /// A participant crashes while writing its phase-2 commit marker
    /// (decision already durable): torn or fenced, the transaction
    /// still commits everywhere.
    ShardMidCommit {
        /// Index of the scripted transaction being attempted.
        txn: usize,
        /// True when the marker's fence landed before the crash.
        marker_durable: bool,
    },
    /// A participant loses its NVRAM image outright mid-2PC: that shard
    /// degrades through the recovery ladder while the survivors still
    /// resolve the transaction from the coordinator log.
    ShardImageLost {
        /// Index of the scripted transaction being attempted.
        txn: usize,
    },
    /// A two-coordinator [`CoordinatorPool`] dies at a group boundary:
    /// `buffered` transactions are prepared everywhere with their
    /// decisions buffered but no covering group record sealed. Presumed
    /// abort must erase every one of them from every shard.
    GroupBoundary {
        /// Decisions buffered (and lost) when power fails.
        buffered: usize,
    },
    /// The pool seals a *prefix* of its buffered decisions under one
    /// shared-log flush, interleaved with further submissions, then dies
    /// before any phase 2: the sealed prefix must resolve to commit on
    /// every shard while the still-buffered tail presumes abort — a
    /// split resolution from a single flush.
    GroupInterleavedSplit {
        /// Decisions covered by the sealed group record.
        sealed: usize,
    },
    /// The pool dies partway through writing the group record itself:
    /// only `durable_words` words (header first, then one entry per
    /// member) reach NVRAM. Any torn prefix must presume abort for
    /// *every* member; only the complete, fenced record commits them.
    TornGroupRecord {
        /// Durable words of the group record when power fails.
        durable_words: usize,
    },
}

/// Coordinators in the pool driven by the group-family crash points.
const XS_POOL_COORDS: usize = 2;
/// Words of a group record covering all [`XS_TXNS`] scripted
/// transactions: one header plus one entry per member.
const XS_GROUP_WORDS: usize = XS_TXNS + 1;

impl TxnCrashPoint {
    /// Index of the scripted transaction the crash lands in.
    #[must_use]
    pub fn txn(&self) -> usize {
        match *self {
            Self::CoordPrePrepare { txn }
            | Self::BetweenPrepares { txn, .. }
            | Self::PostPrepareNoDecision { txn }
            | Self::PostDecisionPreCommit { txn }
            | Self::BetweenShardCommits { txn, .. }
            | Self::ShardMidPrepare { txn, .. }
            | Self::ShardMidCommit { txn, .. }
            | Self::ShardImageLost { txn } => txn,
            // Group-family points span several transactions; report the
            // last one in flight.
            Self::GroupBoundary { buffered } => buffered - 1,
            Self::GroupInterleavedSplit { .. } | Self::TornGroupRecord { .. } => XS_TXNS - 1,
        }
    }

    /// The protocol-step family this point belongs to.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            Self::CoordPrePrepare { .. } => "coord-pre-prepare",
            Self::BetweenPrepares { .. } => "between-prepares",
            Self::PostPrepareNoDecision { .. } => "post-prepare-no-decision",
            Self::PostDecisionPreCommit { .. } => "post-decision-pre-commit",
            Self::BetweenShardCommits { .. } => "between-shard-commits",
            Self::ShardMidPrepare { .. } => "shard-mid-prepare",
            Self::ShardMidCommit { .. } => "shard-mid-commit",
            Self::ShardImageLost { .. } => "shard-image-lost",
            Self::GroupBoundary { .. } => "group-boundary",
            Self::GroupInterleavedSplit { .. } => "interleaved-split",
            Self::TornGroupRecord { .. } => "torn-group-record",
        }
    }

    /// True when a durable decision record covers at least one in-flight
    /// transaction at this point. The all-or-nothing contract then
    /// requires every covered transaction to commit on every shard;
    /// uncovered ones must vanish from every shard by presumed abort.
    /// For [`TxnCrashPoint::GroupInterleavedSplit`] the two coexist: the
    /// sealed prefix is durable, the buffered tail is not.
    #[must_use]
    pub fn decision_durable(&self) -> bool {
        match self {
            Self::PostDecisionPreCommit { .. }
            | Self::BetweenShardCommits { .. }
            | Self::ShardMidCommit { .. }
            | Self::ShardImageLost { .. }
            | Self::GroupInterleavedSplit { .. } => true,
            Self::TornGroupRecord { durable_words } => *durable_words == XS_GROUP_WORDS,
            _ => false,
        }
    }

    /// Stable ordinal for trace payloads.
    fn family_code(&self) -> i64 {
        match self {
            Self::CoordPrePrepare { .. } => 0,
            Self::BetweenPrepares { .. } => 1,
            Self::PostPrepareNoDecision { .. } => 2,
            Self::PostDecisionPreCommit { .. } => 3,
            Self::BetweenShardCommits { .. } => 4,
            Self::ShardMidPrepare { .. } => 5,
            Self::ShardMidCommit { .. } => 6,
            Self::ShardImageLost { .. } => 7,
            Self::GroupBoundary { .. } => 8,
            Self::GroupInterleavedSplit { .. } => 9,
            Self::TornGroupRecord { .. } => 10,
        }
    }

    /// True for points driven through a two-coordinator pool with
    /// decisions buffered across transactions, rather than one
    /// coordinator deciding each transaction on its own record.
    fn is_group_family(&self) -> bool {
        matches!(
            self,
            Self::GroupBoundary { .. }
                | Self::GroupInterleavedSplit { .. }
                | Self::TornGroupRecord { .. }
        )
    }
}

/// The resolved fate of one 2PC crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPointVerdict {
    /// The decision was durable: the write-set is visible on every
    /// shard.
    CommittedEverywhere,
    /// No durable decision: presumed abort erased the write-set from
    /// every shard.
    AbortedEverywhere,
    /// One shard lost its image and degraded to a cluster rebuild; the
    /// surviving shards still applied the decided outcome.
    DegradedShard {
        /// The shard that could not recover locally.
        shard: usize,
    },
    /// A single shared-log flush split the in-flight set: the sealed
    /// prefix committed on every shard while the still-buffered tail
    /// presumed abort on every shard.
    SplitResolved {
        /// Transactions the sealed group record committed.
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
    /// Scripted cross-shard transactions.
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
    /// Points where one shared-log flush resolved a split: a sealed
    /// prefix committed while the buffered tail aborted.
    pub split: usize,
    /// Per-point traces merged in crash-point order — identical for any
    /// `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across every point, in the same order.
    pub metrics: MetricsSnapshot,
}

impl CrossShard2pcReport {
    /// Distinct protocol-step families the sweep covered, in first-hit
    /// order.
    #[must_use]
    pub fn families(&self) -> Vec<&'static str> {
        let mut seen: Vec<&'static str> = Vec::new();
        for (point, _) in &self.outcomes {
            let family = point.family();
            if !seen.contains(&family) {
                seen.push(family);
            }
        }
        seen
    }
}

/// Crashes a three-shard deployment at **every** step of the two-phase
/// epoch seal — coordinator-side (pre-prepare, between prepares,
/// post-prepare/pre-decision, post-decision, between shard commits) and
/// shard-side (every durable word of a prepare seal, a torn and a
/// fenced commit marker, a lost image) — plus the group-commit families
/// driven through a two-coordinator [`CoordinatorPool`]: a crash at
/// every group boundary with decisions buffered, an interleaved seal
/// whose single flush splits the in-flight set into a committed prefix
/// and an aborted tail, and a crash after every durable word of the
/// group record itself — then resolves the whole fleet
/// with [`resolve_cross_shard`] and checks the all-or-nothing contract
/// against an in-memory model: a transaction with a durable coordinator
/// decision is visible on every shard, one without vanishes from every
/// shard, and a lost shard yields a typed degraded verdict with
/// quantified staleness while its peers still apply the decided
/// outcome.
///
/// Sharded over [`faultsim_threads`] workers, bitwise identical to the
/// serial order.
///
/// # Panics
///
/// Panics for configurations without flush-on-commit durability (they
/// refuse to prepare — there is nothing to sweep) and when any crash
/// point violates the all-or-nothing contract.
#[must_use]
pub fn sweep_cross_shard_2pc(config: HeapConfig, seed: u64) -> CrossShard2pcReport {
    sweep_cross_shard_2pc_threads(config, seed, faultsim_threads())
}

fn sweep_cross_shard_2pc_threads(
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
    let ((heaps, cells), setup) = obs::capture(|| {
        let mut heaps: Vec<PersistentHeap> = Vec::with_capacity(XS_SHARDS);
        let mut cells: Vec<Vec<(PmPtr, u64)>> = Vec::with_capacity(XS_SHARDS);
        for _ in 0..XS_SHARDS {
            let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
            let mut shard_cells = Vec::with_capacity(XS_CELLS);
            let mut tx = heap.begin();
            let base = tx.alloc(XS_CELLS as u64 * 64).unwrap();
            for i in 0..XS_CELLS {
                let p = base.byte_offset(i as u64 * 64);
                let v = rng.gen::<u64>();
                tx.write_word(p, v).unwrap();
                shard_cells.push((p, v));
            }
            tx.set_root(base).unwrap();
            tx.commit().unwrap();
            heaps.push(heap);
            cells.push(shard_cells);
        }
        (heaps, cells)
    });

    // The scripted workload: each transaction spans two adjacent shards
    // with two writes per participant.
    let script: Vec<Vec<(usize, usize, u64)>> = (0..XS_TXNS)
        .map(|t| {
            let mut ops = Vec::new();
            for shard in [t % XS_SHARDS, (t + 1) % XS_SHARDS] {
                for _ in 0..2 {
                    ops.push((shard, rng.gen_range(0..XS_CELLS), rng.gen::<u64>()));
                }
            }
            ops
        })
        .collect();

    // The group-family workload: same shard spans, but transaction `t`
    // owns cell `t` on each participant so concurrently-prepared
    // write sets stay pairwise disjoint.
    let pool_script: Vec<Vec<(usize, usize, u64)>> = (0..XS_TXNS)
        .map(|t| {
            let mut ops = Vec::new();
            for shard in [t % XS_SHARDS, (t + 1) % XS_SHARDS] {
                for _ in 0..2 {
                    ops.push((shard, t, rng.gen::<u64>()));
                }
            }
            ops
        })
        .collect();

    let cluster = ClusterSpec::memcache_tier(8);
    let mid = XS_TXNS / 2;

    // How many durable words the mid-sweep participant's prepare seal
    // has (`prepare_steps` is a pure count — the lowest-numbered
    // participant of txn `mid` is the one the shard-side points crash).
    let mid_shard = (mid % XS_SHARDS).min((mid + 1) % XS_SHARDS);
    let mid_writes: Vec<(u64, u64)> = script[mid]
        .iter()
        .filter(|&&(s, _, _)| s == mid_shard)
        .map(|&(_, cell, v)| (cells[mid_shard][cell].0.offset(), v))
        .collect();
    let seal_steps = heaps[mid_shard].prepare_steps(&mid_writes);

    let mut points: Vec<TxnCrashPoint> = Vec::new();
    for t in 0..XS_TXNS {
        points.push(TxnCrashPoint::CoordPrePrepare { txn: t });
        points.push(TxnCrashPoint::BetweenPrepares { txn: t, prepared: 1 });
        points.push(TxnCrashPoint::PostPrepareNoDecision { txn: t });
        points.push(TxnCrashPoint::PostDecisionPreCommit { txn: t });
        points.push(TxnCrashPoint::BetweenShardCommits { txn: t, committed: 1 });
    }
    points.extend((0..=seal_steps).map(|step| TxnCrashPoint::ShardMidPrepare { txn: mid, step }));
    points.push(TxnCrashPoint::ShardMidCommit { txn: mid, marker_durable: false });
    points.push(TxnCrashPoint::ShardMidCommit { txn: mid, marker_durable: true });
    points.push(TxnCrashPoint::ShardImageLost { txn: mid });
    for buffered in 1..=XS_TXNS {
        points.push(TxnCrashPoint::GroupBoundary { buffered });
    }
    for sealed in 1..XS_TXNS {
        points.push(TxnCrashPoint::GroupInterleavedSplit { sealed });
    }
    for durable_words in 0..=XS_GROUP_WORDS {
        points.push(TxnCrashPoint::TornGroupRecord { durable_words });
    }
    let crash_points = points.len();

    let results = run_sharded(points, threads, |point| {
        let (verdict, cap) = obs::capture(|| {
            obs::emit_detail(
                "faultsim",
                "inject",
                Nanos::ZERO,
                point.txn() as i64,
                point.family_code(),
                format!("{point:?}"),
            );
            obs::count(Ctr::FaultsInjected);
            if point.is_group_family() {
                run_group_point(config, &heaps, &cells, &pool_script, &cluster, point)
            } else {
                run_cross_shard_point(config, &heaps, &cells, &script, &cluster, point)
            }
        });
        (point, verdict, cap)
    });

    let mut merged = setup;
    let mut outcomes = Vec::with_capacity(results.len());
    for (point, verdict, cap) in results {
        merged.absorb(cap);
        outcomes.push((point, verdict));
    }
    let committed = outcomes
        .iter()
        .filter(|(_, v)| *v == TxnPointVerdict::CommittedEverywhere)
        .count();
    let aborted = outcomes
        .iter()
        .filter(|(_, v)| *v == TxnPointVerdict::AbortedEverywhere)
        .count();
    let degraded = outcomes
        .iter()
        .filter(|(_, v)| matches!(v, TxnPointVerdict::DegradedShard { .. }))
        .count();
    let split = outcomes
        .iter()
        .filter(|(_, v)| matches!(v, TxnPointVerdict::SplitResolved { .. }))
        .count();

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

/// Stages the scripted ops of one transaction on a fresh handle from
/// the pool's only coordinator.
fn build_cross_shard_txn(
    pool: &mut CoordinatorPool,
    cells: &[Vec<(PmPtr, u64)>],
    ops: &[(usize, usize, u64)],
) -> CrossShardTxn {
    let mut txn = pool.begin(0, cells.len());
    for &(shard, cell, value) in ops {
        txn.stage(shard, cells[shard][cell].0.offset(), value);
    }
    txn
}

/// Phase 1 on every participant, then the durable decision: a group
/// record covering `txn` alone.
fn prepare_and_decide(
    pool: &mut CoordinatorPool,
    heaps: &mut [PersistentHeap],
    txn: &CrossShardTxn,
) {
    assert!(pool.prepare(0, heaps, txn).unwrap().is_none());
    pool.buffer_decision(0, txn);
    pool.seal_decisions(0);
}

/// A shard-side crash flavor for the mid-seal crash points.
#[derive(Clone, Copy)]
enum MidCrash {
    /// Crash after this many durable words of the prepare seal.
    Prepare(u64),
    /// Crash on the phase-2 commit marker (fenced or torn).
    Commit(bool),
}

/// One 2PC crash point: replay the committed prefix on clones of the
/// baseline shards through a one-coordinator, group-of-one pool, drive
/// the scripted transaction up to the crash point (per-shard steps call
/// the heap's distributed-commit primitives directly), cut power on the
/// whole fleet, resolve it with [`resolve_cross_shard`], and check the
/// all-or-nothing contract cell by cell.
fn run_cross_shard_point(
    config: HeapConfig,
    baseline: &[PersistentHeap],
    cells: &[Vec<(PmPtr, u64)>],
    script: &[Vec<(usize, usize, u64)>],
    cluster: &ClusterSpec,
    point: TxnCrashPoint,
) -> TxnPointVerdict {
    let mut heaps: Vec<PersistentHeap> = baseline.to_vec();
    let mut pool = CoordinatorPool::new(1, 1);
    let k = point.txn();
    for ops in &script[..k] {
        let txn = build_cross_shard_txn(&mut pool, cells, ops);
        let outcome = pool.submit(0, &mut heaps, &txn).unwrap();
        assert!(
            matches!(outcome, SubmitOutcome::Committed { .. }),
            "{config}: prefix txn refused before {point:?}: {outcome:?}"
        );
    }
    let txn = build_cross_shard_txn(&mut pool, cells, &script[k]);
    let participants = txn.participants();
    let gtxid = txn.gtxid();

    // Drive the protocol up to the crash instant.
    let mut lost: Option<usize> = None;
    let mut mid_crash: Option<(usize, MidCrash)> = None;
    match point {
        TxnCrashPoint::CoordPrePrepare { .. } => {}
        TxnCrashPoint::BetweenPrepares { prepared, .. } => {
            for &shard in participants.iter().take(prepared) {
                heaps[shard]
                    .prepare_distributed(gtxid, txn.writes_for(shard))
                    .unwrap();
            }
        }
        TxnCrashPoint::PostPrepareNoDecision { .. } => {
            assert!(pool.prepare(0, &mut heaps, &txn).unwrap().is_none());
        }
        TxnCrashPoint::PostDecisionPreCommit { .. } => {
            prepare_and_decide(&mut pool, &mut heaps, &txn);
        }
        TxnCrashPoint::BetweenShardCommits { committed, .. } => {
            prepare_and_decide(&mut pool, &mut heaps, &txn);
            for &shard in participants.iter().take(committed) {
                heaps[shard].commit_distributed(gtxid).unwrap();
            }
        }
        TxnCrashPoint::ShardMidPrepare { step, .. } => {
            mid_crash = Some((participants[0], MidCrash::Prepare(step)));
        }
        TxnCrashPoint::ShardMidCommit { marker_durable, .. } => {
            prepare_and_decide(&mut pool, &mut heaps, &txn);
            mid_crash = Some((participants[0], MidCrash::Commit(marker_durable)));
        }
        TxnCrashPoint::ShardImageLost { .. } => {
            prepare_and_decide(&mut pool, &mut heaps, &txn);
            lost = Some(participants[0]);
        }
        other => unreachable!("group-family point {other:?} routed to run_group_point"),
    }

    // Power fails everywhere at once.
    let coordinator_image = pool.crash_image();
    let mut images: Vec<Option<CrashImage>> = Vec::with_capacity(heaps.len());
    for (shard, heap) in heaps.into_iter().enumerate() {
        images.push(if lost == Some(shard) {
            None
        } else if let Some((_, crash)) = mid_crash.filter(|&(s, _)| s == shard) {
            Some(match crash {
                MidCrash::Prepare(step) => {
                    heap.crash_mid_prepare(gtxid, txn.writes_for(shard), step)
                }
                MidCrash::Commit(durable) => heap.crash_mid_commit(gtxid, durable),
            })
        } else {
            Some(heap.crash(false))
        });
    }

    let recovery = resolve_cross_shard(&coordinator_image, images, cluster);
    let txn_committed = recovery.decided.contains(&gtxid);
    assert_eq!(
        txn_committed,
        point.decision_durable(),
        "{config}: decision durability at {point:?}"
    );

    // The model: the baseline overlaid by the committed prefix, plus
    // the crashed transaction exactly when its decision was durable.
    let visible = if txn_committed { k + 1 } else { k };
    let mut expected: Vec<HashMap<u64, u64>> = cells
        .iter()
        .map(|sc| sc.iter().map(|&(p, v)| (p.offset(), v)).collect())
        .collect();
    for ops in &script[..visible] {
        for &(shard, cell, value) in ops {
            expected[shard].insert(cells[shard][cell].0.offset(), value);
        }
    }

    for mut shard_rec in recovery.shards {
        let shard = shard_rec.shard;
        if lost == Some(shard) {
            match &shard_rec.outcome {
                RecoveryOutcome::Degraded { rung, reason, took } => {
                    assert_eq!(*rung, LadderRung::ClusterRebuild, "{config}: {point:?}");
                    assert!(!reason.is_empty(), "{config}: staleness reason at {point:?}");
                    assert!(
                        *took > Nanos::ZERO,
                        "{config}: staleness quantified at {point:?}"
                    );
                }
                other => {
                    panic!("{config}: lost shard {shard} must degrade at {point:?}, got {other:?}")
                }
            }
            assert!(
                matches!(
                    shard_rec.refusal,
                    Some(WspError::BackendRecoveryRequired { .. })
                ),
                "{config}: lost shard {shard} needs a typed refusal at {point:?}"
            );
            continue;
        }
        let heap = shard_rec
            .heap
            .as_mut()
            .unwrap_or_else(|| panic!("{config}: shard {shard} must recover at {point:?}"));
        let mut check = heap.begin();
        for (&addr, &want) in &expected[shard] {
            let got = check.read_word(PmPtr::new(addr).unwrap()).unwrap();
            assert_eq!(
                got, want,
                "{config}: shard {shard} cell {addr:#x} at {point:?}"
            );
        }
        check.commit().unwrap();
    }

    match lost {
        Some(shard) => TxnPointVerdict::DegradedShard { shard },
        None if txn_committed => TxnPointVerdict::CommittedEverywhere,
        None => TxnPointVerdict::AbortedEverywhere,
    }
}

/// One group-family crash point: drive the scripted transactions
/// through a two-coordinator [`CoordinatorPool`] sharing one decision
/// log, cut power at the scripted instant (group boundary, mid-record,
/// or between an interleaved seal and its phase 2), resolve the fleet
/// with [`resolve_cross_shard`], and check per-transaction
/// all-or-nothing plus recovered-pool attribution.
fn run_group_point(
    config: HeapConfig,
    baseline: &[PersistentHeap],
    cells: &[Vec<(PmPtr, u64)>],
    pool_script: &[Vec<(usize, usize, u64)>],
    cluster: &ClusterSpec,
    point: TxnCrashPoint,
) -> TxnPointVerdict {
    let mut heaps: Vec<PersistentHeap> = baseline.to_vec();
    // The group size sits above anything the script stages: sealing is
    // driven by the crash point, never by the trigger.
    let mut pool = CoordinatorPool::new(XS_POOL_COORDS, XS_TXNS + 1);
    let (in_flight, sealed_prefix, torn) = match point {
        TxnCrashPoint::GroupBoundary { buffered } => (buffered, 0, None),
        TxnCrashPoint::GroupInterleavedSplit { sealed } => (XS_TXNS, sealed, None),
        TxnCrashPoint::TornGroupRecord { durable_words } => (XS_TXNS, 0, Some(durable_words)),
        other => unreachable!("not a group-family point: {other:?}"),
    };

    let mut gtxids: Vec<u64> = Vec::with_capacity(in_flight);
    for (t, ops) in pool_script.iter().take(in_flight).enumerate() {
        let coordinator = t % XS_POOL_COORDS;
        let mut txn = pool.begin(coordinator, cells.len());
        for &(shard, cell, value) in ops {
            txn.stage(shard, cells[shard][cell].0.offset(), value);
        }
        let outcome = pool.submit(coordinator, &mut heaps, &txn).unwrap();
        assert_eq!(
            outcome,
            SubmitOutcome::Buffered,
            "{config}: pool txn {t} must buffer at {point:?}"
        );
        gtxids.push(txn.gtxid());
        // The interleaved split: seal the prefix mid-stream, then keep
        // submitting into the next (never-sealed) group.
        if t + 1 == sealed_prefix {
            assert_eq!(
                pool.seal_decisions(coordinator),
                sealed_prefix,
                "{config}: prefix seal at {point:?}"
            );
        }
    }

    // Power fails everywhere at once — mid-record for the torn family.
    let coordinator_image = match torn {
        Some(durable_words) => pool.crash_mid_group_seal(durable_words),
        None => pool.crash_image(),
    };
    let images: Vec<Option<CrashImage>> = heaps
        .into_iter()
        .map(|heap| Some(heap.crash(false)))
        .collect();

    let recovery = resolve_cross_shard(&coordinator_image, images, cluster);
    let committed_txns = match point {
        TxnCrashPoint::GroupBoundary { .. } => 0,
        TxnCrashPoint::GroupInterleavedSplit { sealed } => sealed,
        TxnCrashPoint::TornGroupRecord { durable_words } => {
            if durable_words == XS_GROUP_WORDS {
                in_flight
            } else {
                0
            }
        }
        _ => unreachable!(),
    };
    for (t, &gtxid) in gtxids.iter().enumerate() {
        assert_eq!(
            recovery.decided.contains(&gtxid),
            t < committed_txns,
            "{config}: decision durability of pool txn {t} at {point:?}"
        );
    }

    // Attribution: the recovered pool names the sealing coordinator
    // generation for every durable decision and disowns the rest, while
    // the issuer stays decodable from the gtxid either way.
    let recovered = CoordinatorPool::recover(&coordinator_image, XS_POOL_COORDS, XS_TXNS + 1);
    for (t, &gtxid) in gtxids.iter().enumerate() {
        assert_eq!(
            coordinator_of(gtxid),
            t % XS_POOL_COORDS,
            "{config}: issuer of pool txn {t} at {point:?}"
        );
        let want = (t < committed_txns).then_some(GtxidOrigin {
            coordinator: t % XS_POOL_COORDS,
            generation: 1,
        });
        assert_eq!(
            recovered.attribute(gtxid),
            want,
            "{config}: attribution of pool txn {t} at {point:?}"
        );
    }

    // The model: the baseline overlaid by every committed transaction's
    // writes — all-or-nothing per transaction, on every shard.
    let mut expected: Vec<HashMap<u64, u64>> = cells
        .iter()
        .map(|sc| sc.iter().map(|&(p, v)| (p.offset(), v)).collect())
        .collect();
    for ops in &pool_script[..committed_txns] {
        for &(shard, cell, value) in ops {
            expected[shard].insert(cells[shard][cell].0.offset(), value);
        }
    }
    for mut shard_rec in recovery.shards {
        let shard = shard_rec.shard;
        let heap = shard_rec
            .heap
            .as_mut()
            .unwrap_or_else(|| panic!("{config}: shard {shard} must recover at {point:?}"));
        let mut check = heap.begin();
        for (&addr, &want) in &expected[shard] {
            let got = check.read_word(PmPtr::new(addr).unwrap()).unwrap();
            assert_eq!(
                got, want,
                "{config}: shard {shard} cell {addr:#x} at {point:?}"
            );
        }
        check.commit().unwrap();
    }

    match point {
        TxnCrashPoint::GroupInterleavedSplit { sealed } => TxnPointVerdict::SplitResolved {
            committed: sealed,
            aborted: XS_TXNS - sealed,
        },
        _ if committed_txns > 0 => TxnPointVerdict::CommittedEverywhere,
        _ => TxnPointVerdict::AbortedEverywhere,
    }
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
    sweep_recovery_ladder_threads(make_machine, load, seed, faultsim_threads())
}

fn sweep_recovery_ladder_threads(
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
    let pairs = run_sharded(points, threads, |(idx, (fault, rng))| {
        obs::capture(|| {
            obs::emit_detail(
                "faultsim",
                "inject",
                Nanos::ZERO,
                idx as i64,
                0,
                format!("{fault:?}"),
            );
            obs::count(Ctr::FaultsInjected);
            run_ladder_point(&make_machine, load, seed, fault, rng)
        })
    });
    let mut outcomes = Vec::with_capacity(pairs.len());
    let mut captures = Vec::with_capacity(pairs.len());
    for (outcome, cap) in pairs {
        outcomes.push(outcome);
        captures.push(cap);
    }
    let merged = merge_point_captures(captures);
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
    let mut backend = RecoveryLadder::new(BackendStore::disk_array());
    backend.checkpoint(&heap);
    let checkpoint_seq = backend
        .backend()
        .checkpoint_seq()
        .expect("checkpoint just taken");
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
    let detection = machine.monitor().debounce
        + machine.monitor().interrupt_latency
        + machine.profile().ipi_latency;
    let stage_a_probe = {
        let mut probe = heap.clone();
        probe.priority_flush()
    };
    // Historically this budget was derived inline from this machine's
    // own monitor latencies — a single-shard assumption (each node
    // budgeted as if it owned the whole window). Under the shared power
    // domain the same quantity is the *per-shard* priority-stage cost
    // the triage carves from the global window, so the supervisor now
    // owns the formula.
    let partial_window = crate::supervisor::priority_stage_window(&machine, &heap);
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
        LadderFault::BrownOutMidSave => {
            let stage_b = machine
                .flush_analysis()
                .flush_time(FlushMethod::Wbinvd, machine.dirty_estimate(load));
            SaveBudget {
                cut: Some(detection + machine.profile().context_save + stage_a_probe + stage_b / 2),
                ..SaveBudget::trusting()
            }
        }
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
    fn parallel_save_sweep_matches_serial() {
        // The acceptance contract for the sharded engine: outcomes are
        // bitwise identical to the serial order regardless of workers,
        // because per-point PRNGs are split before dispatch and results
        // are reassembled in point order.
        let serial = sweep_save_path_threads(
            Machine::intel_testbed,
            SystemLoad::Busy,
            RestartStrategy::RestorePathReinit,
            42,
            1,
        );
        for threads in [2, 4, 7] {
            let parallel = sweep_save_path_threads(
                Machine::intel_testbed,
                SystemLoad::Busy,
                RestartStrategy::RestorePathReinit,
                42,
                threads,
            );
            assert_eq!(parallel.locally_restored, serial.locally_restored);
            assert_eq!(format!("{:?}", parallel.outcomes), format!("{:?}", serial.outcomes));
            // The merged observability stream is part of the contract:
            // bitwise-identical trace and metrics at any thread count.
            if let Err(report) =
                wsp_obs::diff_traces(&serial.trace, &parallel.trace, wsp_obs::DiffMode::Full)
            {
                panic!("{threads}-thread save-sweep trace diverges:\n{report}");
            }
            if let Some(diff) = serial.metrics.first_difference(&parallel.metrics) {
                panic!("{threads}-thread save-sweep metrics diverge: {diff}");
            }
        }
    }

    #[test]
    fn parallel_mid_tx_sweep_matches_serial() {
        for config in HeapConfig::all() {
            let serial = sweep_mid_transaction_threads(config, 1234, 1);
            let parallel = sweep_mid_transaction_threads(config, 1234, 4);
            assert_eq!(parallel.crash_points, serial.crash_points, "{config}");
            if let Err(report) =
                wsp_obs::diff_traces(&serial.trace, &parallel.trace, wsp_obs::DiffMode::Full)
            {
                panic!("{config}: mid-tx sweep trace diverges:\n{report}");
            }
            if let Some(diff) = serial.metrics.first_difference(&parallel.metrics) {
                panic!("{config}: mid-tx sweep metrics diverge: {diff}");
            }
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
    fn parallel_mid_epoch_sweep_matches_serial() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let serial = sweep_mid_epoch_threads(config, 4242, 1);
            for threads in [2, 5] {
                let parallel = sweep_mid_epoch_threads(config, 4242, threads);
                assert_eq!(parallel.crash_points, serial.crash_points, "{config}");
                if let Err(report) =
                    wsp_obs::diff_traces(&serial.trace, &parallel.trace, wsp_obs::DiffMode::Full)
                {
                    panic!("{config}: {threads}-thread mid-epoch sweep trace diverges:\n{report}");
                }
                if let Some(diff) = serial.metrics.first_difference(&parallel.metrics) {
                    panic!("{config}: {threads}-thread mid-epoch sweep metrics diverge: {diff}");
                }
            }
        }
    }

    #[test]
    fn cross_shard_sweep_holds_for_foc_configs() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let report = sweep_cross_shard_2pc(config, 4242);
            assert_eq!(report.shards, XS_SHARDS, "{config}");
            // 5 coordinator-side families per txn, plus the shard-side
            // seal steps, two marker flavors, the lost image, and the
            // group families (boundaries, splits, torn record words).
            assert!(
                report.crash_points >= XS_TXNS * 5 + 6 + (2 * XS_TXNS + XS_GROUP_WORDS),
                "{config}: {}",
                report.crash_points
            );
            assert_eq!(report.families().len(), 11, "{config}: {:?}", report.families());
            assert_eq!(report.degraded, 1, "{config}");
            // Interleaved seals split every proper prefix of the script.
            assert_eq!(report.split, XS_TXNS - 1, "{config}");
            // Post-decision and mid-commit points commit everywhere,
            // plus the one fully-durable torn-record point.
            assert_eq!(report.committed, XS_TXNS * 2 + 3, "{config}");
            // Everything pre-decision presumes abort everywhere.
            assert_eq!(
                report.aborted,
                report.crash_points - report.committed - report.degraded - report.split,
                "{config}"
            );
            assert!(report.aborted > XS_TXNS * 3, "{config}");
        }
    }

    #[test]
    #[should_panic(expected = "flush-on-commit")]
    fn cross_shard_sweep_rejects_flush_on_fail_configs() {
        let _ = sweep_cross_shard_2pc(HeapConfig::Fof, 1);
    }

    #[test]
    fn parallel_cross_shard_sweep_matches_serial() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let serial = sweep_cross_shard_2pc_threads(config, 4242, 1);
            for threads in [2, 4] {
                let parallel = sweep_cross_shard_2pc_threads(config, 4242, threads);
                assert_eq!(parallel.crash_points, serial.crash_points, "{config}");
                assert_eq!(
                    format!("{:?}", parallel.outcomes),
                    format!("{:?}", serial.outcomes),
                    "{config}"
                );
                if let Err(report) =
                    wsp_obs::diff_traces(&serial.trace, &parallel.trace, wsp_obs::DiffMode::Full)
                {
                    panic!("{config}: {threads}-thread cross-shard sweep trace diverges:\n{report}");
                }
                if let Some(diff) = serial.metrics.first_difference(&parallel.metrics) {
                    panic!("{config}: {threads}-thread cross-shard sweep metrics diverge: {diff}");
                }
            }
        }
    }

    #[test]
    fn run_sharded_preserves_item_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_sharded((0..37u64).collect(), threads, |x| x * x);
            assert_eq!(out, (0..37u64).map(|x| x * x).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn faultsim_threads_is_at_least_one() {
        assert!(faultsim_threads() >= 1);
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

    #[test]
    fn parallel_ladder_sweep_matches_serial() {
        let serial = sweep_recovery_ladder_threads(Machine::intel_testbed, SystemLoad::Busy, 42, 1);
        for threads in [2, 5] {
            let parallel =
                sweep_recovery_ladder_threads(Machine::intel_testbed, SystemLoad::Busy, 42, threads);
            assert_eq!(parallel.recovered, serial.recovered);
            assert_eq!(parallel.degraded, serial.degraded);
            assert_eq!(
                format!("{:?}", parallel.outcomes),
                format!("{:?}", serial.outcomes)
            );
            if let Err(report) =
                wsp_obs::diff_traces(&serial.trace, &parallel.trace, wsp_obs::DiffMode::Full)
            {
                panic!("{threads}-thread ladder-sweep trace diverges:\n{report}");
            }
            if let Some(diff) = serial.metrics.first_difference(&parallel.metrics) {
                panic!("{threads}-thread ladder-sweep metrics diverge: {diff}");
            }
        }
    }
}
