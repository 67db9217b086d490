//! The crash-point sweep engine: inject a power failure at **every**
//! durable event of the Figure-4 save path (and inside the
//! persistent-heap logs), run the restore path, and check the recovery
//! invariants against an in-memory model.
//!
//! The invariant is the paper's all-or-nothing contract:
//!
//! * a failure **before** the NVDIMM save is armed leaves no valid
//!   image — restore must refuse and demand back-end recovery (a torn
//!   image must never be mistaken for a complete one);
//! * a failure **after** the arm changes nothing — the modules finish on
//!   ultracapacitor power, and restore brings back every sentinel byte
//!   and every CPU context bit-exactly.
//!
//! For the persistent heaps, the analogous sweeps crash production
//! calls — an open transaction, epoch commits and seals, a whole
//! commit, cross-shard 2PC — at every step boundary and every durable
//! event inside a step. Each is a [`Scenario`]: runs of production
//! steps on a baseline fleet from [`crate::committed_fleet`], the write
//! sets each run may make durable, one enumeration
//! ([`Scenario::points`]) and one runner ([`Scenario::run_point`]). The
//! oracle is the fleet's [`CellModel`]: recovery holds the baseline
//! plus a prefix of the write sets, the prefix never shrinks along a
//! run and covers every write set at its end. Transactional
//! configurations recover exactly the committed state, while the plain
//! flush-on-fail heap — the WSP programming model, with no transactions
//! at all — recovers exactly the words written so far. The 2PC property
//! tests drive the same scenario through [`cross_shard_scenario`].
//!
//! The recovery-ladder sweep ([`sweep_recovery_ladder`]) injects each
//! [`LadderFault`] into one node's staged save — [`node_save`], i.e.
//! [`crate::domain_save`] over the node's private
//! [`PowerDomain`](wsp_power::PowerDomain), the executor the power storm
//! runs over a shared one — and checks that the save's verdict predicts
//! the rung the ladder climbs to.
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
//! // The cut before the arm forced back-end recovery, the one after it
//! // restored locally, and each drained module tore its image.
//! let modules = Machine::intel_testbed().nvram().dimms().len();
//! assert_eq!(report.outcomes.len(), 2 + modules);
//! assert_eq!(report.locally_restored, 1);
//! ```

use std::sync::Arc;

use wsp_cluster::ClusterSpec;
use wsp_det::{DetRng, Rng};
use wsp_machine::{CpuContext, Machine, SystemLoad};
use wsp_obs as obs;
use wsp_obs::{Capture, MetricsSnapshot, Trace};
use wsp_pheap::{BackendStore, CrashImage, HeapConfig, PersistentHeap};
use wsp_power::{AgingModel, PowerCut, Ultracapacitor};
use wsp_units::{ByteSize, Farads, Nanos, Volts, Watts};

use crate::domain::{node_save, DomainBudget, DomainVerdict, ShardVerdict};
use crate::ladder::{run_recovery_ladder, LadderInput, LadderRung, RecoveryOutcome};
use crate::model::{committed_fleet, CellModel};
use crate::restore::restore;
use crate::save::{flush_on_fail_save, SaveReport};
use crate::supervisor::{clean_failure_trace, glitch_storm_trace, priority_stage_window};
use crate::sweep;
use crate::system::{lost_sentinel, scatter_sentinels};
use crate::txn::{coordinator_of, resolve_cross_shard, CoordinatorPool, GtxidOrigin, RoutedWrite};
use crate::{layout, RestartStrategy, WspError};

pub use crate::lockfree_sweep::{
    classify_recovery, sweep_lockfree, LfScenarioOutcome, LfStructure, LockfreeSweepReport,
};

/// A power-failure point of the Figure-4 save path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveCrashPoint {
    /// Power fails just before the save's `(events + 1)`-th durable
    /// event (its NVDIMM save command is its one event), or not at all
    /// when `events` covers them all.
    Cut {
        /// Durable events of the save that land before power fails.
        events: u64,
    },
    /// NVDIMM `module`'s ultracapacitor is drained below its usable
    /// floor before the outage: its DRAM→flash copy tears while its
    /// siblings complete, and the pool restore must refuse.
    UltracapShortfall {
        /// Index of the drained module in the pool.
        module: usize,
    },
}

/// The result of one injected fault.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// Where the power failure landed.
    pub point: SaveCrashPoint,
    /// The save report.
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
    /// One outcome per injected fault, in [`save_path_crash_points`]
    /// order.
    pub outcomes: Vec<FaultOutcome>,
    /// How many faults still recovered locally (the cut past the arm).
    pub locally_restored: usize,
    /// Per-point traces merged in crash-point order — identical for any
    /// `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across every point, in the same order.
    pub metrics: MetricsSnapshot,
}

/// Enumerates every power-failure point of `machine`'s save at `load`
/// under `strategy`: a cut before each of its durable events and one
/// past them all (the events are counted on a clone, off the trace),
/// then an ultracap drained on each NVDIMM module.
#[must_use]
pub fn save_path_crash_points(
    machine: &Machine,
    load: SystemLoad,
    strategy: RestartStrategy,
) -> Vec<SaveCrashPoint> {
    let probe = PowerCut::never();
    let mut machine = machine.clone();
    machine.nvram_mut().arm(&probe);
    let _ = obs::capture(|| flush_on_fail_save(&mut machine, load, strategy));
    let modules = machine.nvram().dimms().len();
    (0..=probe.events())
        .map(|events| SaveCrashPoint::Cut { events })
        .chain((0..modules).map(|module| SaveCrashPoint::UltracapShortfall { module }))
        .collect()
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
    let mut machine = make_machine();
    machine.apply_load(load, seed);
    let points = save_path_crash_points(&machine, load, strategy);
    // The one cut that never strikes: power fails after the save.
    let uncut = points[points.len() - 1 - machine.nvram().dimms().len()];
    // Serially pre-split one sentinel PRNG per crash point: the streams
    // depend only on the sweep seed and the point index, never on which
    // worker runs the point or in what order.
    let mut parent = DetRng::seed_from_u64(seed ^ 0x57u64);
    let points: Vec<(usize, (SaveCrashPoint, DetRng))> = points
        .into_iter()
        .map(|point| (point, parent.split()))
        .enumerate()
        .collect();
    let (outcomes, merged) = sweep::run(points, threads, |(idx, (point, rng))| {
        sweep::inject(idx as i64, 0, &point);
        run_save_point(&make_machine, load, strategy, seed, (point, point == uncut), rng)
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
/// the all-or-nothing invariant. `uncut` marks the cut past every event
/// of the save, the only point that may restore.
fn run_save_point(
    make_machine: &impl Fn() -> Machine,
    load: SystemLoad,
    strategy: RestartStrategy,
    seed: u64,
    (fault, uncut): (SaveCrashPoint, bool),
    mut rng: DetRng,
) -> FaultOutcome {
    let mut machine = make_machine();
    machine.apply_load(load, seed);

    // The in-memory model: sentinel heap data plus the registers.
    let sentinels = scatter_sentinels(&mut machine, &mut rng);
    let contexts_before: Vec<CpuContext> =
        machine.cores().iter().map(|c| c.context).collect();

    match fault {
        SaveCrashPoint::Cut { events } => machine.nvram_mut().arm(&PowerCut::after(events)),
        SaveCrashPoint::UltracapShortfall { module } => {
            // Drain the bank below its usable floor; the save tears.
            let cap = machine.nvram_mut().dimms_mut()[module].ultracap_mut();
            let _ = cap.discharge(Watts::new(1e6), Nanos::from_secs(3600));
        }
    }
    let save = flush_on_fail_save(&mut machine, load, strategy);
    machine.system_power_loss();
    machine.system_power_on();

    // An ACPI-suspend save blows the window on its own; with the
    // suspend step executed, even the uncut save cannot recover.
    assert!(uncut || !save.completed, "{fault:?}: a failed save reported completion");
    let expect_recovery = uncut && save.completed;
    match restore(&mut machine, strategy) {
        Ok(_) => {
            assert!(
                expect_recovery,
                "fault {fault:?} must force back-end recovery, but restore succeeded"
            );
            if let Some(addr) = lost_sentinel(&machine, &sentinels) {
                panic!("sentinel at {addr:#x} lost after {fault:?}");
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
                point: fault,
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
                point: fault,
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

/// One crash point of a [`Scenario`]: run `run` loses power after
/// `steps` production steps or just before the `(events + 1)`-th
/// durable event, whichever comes first, and shard `lost` its image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The run of the scenario.
    pub run: usize,
    /// Production steps of the run that start before power fails.
    pub steps: usize,
    /// Durable events of the run, fleet-wide, landed before it fails.
    pub events: u64,
    /// The shard whose image is lost outright, if any.
    pub lost: Option<usize>,
}

/// `(shard, cell, value)` writes that become durable together.
pub type WriteSet = Vec<(usize, usize, u64)>;

/// One run of a [`Scenario`]: its baseline fleet (shard heaps and the
/// 2PC pool) and cells, the write sets it may make durable, its steps,
/// whether the pool routes decided writes, and a write set crashed once
/// more, with a shard's image lost, where it becomes durable.
#[derive(Clone)]
struct Run {
    heaps: Vec<PersistentHeap>,
    pool: Option<CoordinatorPool>,
    model: CellModel,
    writes: Vec<WriteSet>,
    steps: usize,
    routed: bool,
    lose: Option<(usize, usize)>,
}

impl Run {
    fn solo(heap: PersistentHeap, model: CellModel, writes: Vec<WriteSet>, steps: usize) -> Self {
        let (heaps, pool, routed, lose) = (vec![heap], None, false, None);
        Run { heaps, pool, model, writes, steps, routed, lose }
    }
}

/// A drive's cut, the event from which each write set is durable, and
/// each 2PC transaction's gtxid and issuer.
struct Trail {
    cut: Arc<PowerCut>,
    durable: Vec<u64>,
    txns: Vec<(u64, usize)>,
}

impl Trail {
    /// Marks the first `n` write sets durable from event `event` on.
    fn durable(&mut self, n: usize, event: u64) {
        self.durable.resize(self.durable.len().max(n), event);
    }
}

/// A crash scenario: runs of production steps on baseline fleets, each
/// with the write sets it may make durable, behind one enumeration
/// ([`Scenario::points`]) and one runner ([`Scenario::run_point`]).
/// Every heap and pool sweep here is one.
pub struct Scenario {
    label: String,
    config: HeapConfig,
    runs: Vec<Run>,
    /// Runs the first `steps` production steps of run `run` on a copy.
    drive: Box<Drive>,
    /// Whether the drive marks when each write set becomes durable;
    /// otherwise the runner finds which prefix recovered.
    known: bool,
}

type Drive = dyn Fn(usize, &mut Run, usize, &mut Trail) + Sync;

impl Scenario {
    fn new(config: HeapConfig, seed: u64, runs: Vec<Run>, known: bool, drive: Box<Drive>) -> Self {
        Scenario { label: format!("{config} seed {seed}"), config, runs, drive, known }
    }

    /// Drives `steps` steps of run `run` on a copy of it, every memory
    /// armed with `cut`. The run books nothing.
    fn drive(&self, run: usize, steps: usize, cut: Arc<PowerCut>) -> (Run, Trail) {
        let mut copy = self.runs[run].clone();
        copy.heaps.iter_mut().for_each(|heap| heap.arm(&cut));
        copy.pool.iter_mut().for_each(|pool| pool.arm(&cut));
        let mut trail = Trail { cut, durable: Vec::new(), txns: Vec::new() };
        let _ = obs::capture(|| (self.drive)(run, &mut copy, steps, &mut trail));
        (copy, trail)
    }

    /// Every crash point, run by run: each step boundary and durable
    /// event inside a step, in order, then the run's lost-image point.
    #[must_use]
    pub fn points(&self) -> Vec<CrashPoint> {
        let mut points = Vec::new();
        for (run, r) in self.runs.iter().enumerate() {
            let at = |steps, events| CrashPoint { run, steps, events, lost: None };
            let events = |steps| self.drive(run, steps, PowerCut::never()).1.cut.events();
            let bounds: Vec<u64> = (0..=r.steps).map(events).collect();
            points.push(at(0, 0));
            for (k, step) in bounds.windows(2).enumerate() {
                points.extend((step[0] + 1..step[1]).chain([step[1]]).map(|e| at(k + 1, e)));
            }
            if let Some((set, shard)) = r.lose {
                let events = self.drive(run, r.steps, PowerCut::never()).1.durable[set];
                let steps = bounds.iter().position(|&b| b >= events).expect("inside the run");
                points.push(CrashPoint { run, steps, events, lost: Some(shard) });
            }
        }
        points
    }

    /// Crashes the fleet at `point`, recovers it and checks the oracle:
    /// the fleet holds the run's baseline plus exactly its first `p`
    /// write sets ([`CellModel::audit`]), those marked durable by then
    /// when the scenario knows. With a pool, the log decides exactly
    /// those, each attributed to its issuer's first generation, a routing
    /// pool holds their writes, and a lost shard degrades with a typed
    /// refusal ([`CellModel::audit_fleet`]). Returns `p`.
    ///
    /// # Panics
    ///
    /// Panics naming the point when the oracle fails or a 2PC
    /// transaction is refused.
    #[must_use]
    pub fn run_point(&self, point: CrashPoint) -> usize {
        let (run, trail) = self.drive(point.run, point.steps, PowerCut::after(point.events));
        let at = format!("{} at {point:?}", self.label);
        let save = !self.config.flush_on_commit();
        let images: Vec<Option<CrashImage>> = (run.heaps.into_iter().enumerate())
            .map(|(shard, heap)| (point.lost != Some(shard)).then(|| heap.crash(save)))
            .collect();
        let (model, writes) = (&run.model, &run.writes);
        let marked = trail.durable.iter().filter(|&&e| e <= point.events).count();
        let prefix = |p: usize| {
            let mut expected = model.clone();
            writes[..p].iter().for_each(|set| expected.apply(set));
            expected
        };
        let Some(pool) = run.pool else {
            let recover = |image| {
                PersistentHeap::recover(image).unwrap_or_else(|e| panic!("{at}: recovery: {e}"))
            };
            let mut heaps: Vec<_> = images.into_iter().flatten().map(recover).collect();
            if !self.known {
                let seen =
                    (0..heaps.len()).fold(model.clone(), |m, s| m.observe(s, &mut heaps[s]));
                return (0..=writes.len())
                    .find(|&p| prefix(p) == seen)
                    .unwrap_or_else(|| panic!("{at}: recovered no prefix of the write sets"));
            }
            let expected = prefix(marked);
            for (shard, heap) in heaps.iter_mut().enumerate() {
                expected.audit(shard, heap, &at);
            }
            return marked;
        };
        let log = pool.crash_image();
        let recovery = resolve_cross_shard(&log, images, &ClusterSpec::memcache_tier(8));
        let recovered = CoordinatorPool::recover(&log, pool.coordinators(), 1);
        let routed = recovery.coordinator.routed.as_deref().unwrap_or_default();
        for (t, (&(gtxid, coordinator), ops)) in trail.txns.iter().zip(writes).enumerate() {
            let decided = recovery.coordinator.is_decided(gtxid);
            for &(shard, cell, value) in ops.iter().filter(|_| decided && run.routed) {
                let addr = model.cell(shard, cell).offset();
                let write = RoutedWrite { gtxid, shard, addr, value };
                assert!(routed.contains(&write), "{at}: txn {t} decided, {write:?} not routed");
            }
            assert_eq!(decided, t < marked, "{at}: txn {t} decision");
            assert_eq!(coordinator_of(gtxid), coordinator, "{at}: txn {t} issuer");
            let origin = decided.then_some(GtxidOrigin { coordinator, generation: 1 });
            assert_eq!(recovered.attribute(gtxid), origin, "{at}: txn {t} attribution");
        }
        assert_eq!(recovery.coordinator.decided.len(), marked, "{at}: decided count");
        prefix(marked).audit_fleet(recovery, point.lost, &at);
        marked
    }

    /// Runs every point over `threads` workers after `setup` and checks
    /// each run: `p` never decreases and covers every write set at last.
    fn sweep(&self, setup: Capture, threads: usize) -> (Vec<(CrashPoint, usize)>, Capture) {
        let (outcomes, points) = sweep::run(self.points(), threads, |point| {
            sweep::inject(point.run as i64, point.events as i64, &point);
            (point, self.run_point(point))
        });
        for (r, run) in self.runs.iter().enumerate() {
            let along: Vec<usize> = (outcomes.iter())
                .filter(|(point, _)| point.run == r && point.lost.is_none())
                .map(|&(_, p)| p)
                .collect();
            let (label, done) = (&self.label, along.last() == Some(&run.writes.len()));
            assert!(along.is_sorted() && done, "{label} run {r}: durable by point {along:?}");
        }
        let mut merged = setup;
        merged.absorb(points);
        (outcomes, merged)
    }

    /// Sweeps a single-transaction scenario into its report.
    fn mid_tx_report(&self, setup: Capture, threads: usize) -> MidTxSweepReport {
        let (outcomes, merged) = self.sweep(setup, threads);
        let (config, crash_points) = (self.config, outcomes.len());
        MidTxSweepReport { config, crash_points, trace: merged.trace, metrics: merged.metrics }
    }
}

/// Crashes an open transaction after every prefix of a seeded operation
/// script and at every durable event inside each write: transactional
/// configurations recover exactly the committed state (undo records,
/// torn ones included, roll back), the plain FoF heap — the WSP
/// programming model — exactly the words written so far. FoC heaps
/// crash *without* the flush-on-fail save (their whole point), FoF
/// heaps with it.
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

    // Committed baseline: eight root-reachable cells, captured so its
    // pheap metrics land in the sweep's snapshot.
    let cells = 8usize;
    let ((mut heaps, model), setup) =
        obs::capture(|| committed_fleet(config, 1, cells, 8, &mut rng));

    // Twelve writes, one step each; only the plain heap's are durable.
    let script: WriteSet = (0..12)
        .map(|_| (0, rng.gen_range(0..cells), rng.gen::<u64>()))
        .collect();
    let plain = !config.transactional();
    let writes = script.iter().filter(|_| plain).map(|&op| vec![op]).collect();
    let run = Run::solo(heaps.remove(0), model, writes, script.len());
    let drive = move |_: usize, run: &mut Run, steps: usize, trail: &mut Trail| {
        let mut tx = run.heaps[0].begin();
        for (t, &(shard, cell, value)) in script[..steps].iter().enumerate() {
            tx.write_word(run.model.cell(shard, cell), value).unwrap();
            trail.durable(usize::from(plain) * (t + 1), trail.cut.events());
        }
        // Power fails mid-transaction: the abort path never runs.
        std::mem::forget(tx);
    };
    Scenario::new(config, seed, vec![run], true, Box::new(drive)).mid_tx_report(setup, threads)
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
    /// (including zero), and one per durable event of the auto-seal
    /// draining a staged generation, of a double-generation seal and of
    /// an open-only seal, each plus the completed seal.
    pub crash_points: usize,
    /// Baseline-setup events followed by per-point traces merged in
    /// crash-point order — identical for any `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across the setup and every crash point.
    pub metrics: MetricsSnapshot,
}

/// Crashes an epoch-group-commit heap after every committed transaction
/// of a seeded script *and* at every durable event of its pipelined
/// seals, auto-seals included: recovery restores exactly the epochs
/// whose write-behind drain completed. Open and staged-but-undrained
/// generations vanish wholesale, a half-drained batch rolls back past
/// its missing marker; no crash point exposes a partial epoch.
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
    assert!(config.flush_on_commit(), "mid-epoch sweep needs flush-on-commit, got {config}");
    let mut rng = DetRng::seed_from_u64(seed);
    let (epoch_size, cells) = (8usize, 8usize);
    // Run 0 commits 20 transactions, one step each; runs 1 and 2 commit
    // 12 (one staged epoch + four open) and 4, then seal, in one step.
    let txs = [20usize, 12, 4];
    // Cells on distinct lines, so a seal's coalesced flush spans several.
    let ((heaps, model), setup) = obs::capture(|| {
        let (mut heaps, model) = committed_fleet(config, 1, cells, 64, &mut rng);
        heaps[0].set_epoch_size(epoch_size as u64);
        (heaps, model)
    });

    let script: WriteSet = (0..txs[0])
        .map(|_| (0, rng.gen_range(0..cells), rng.gen::<u64>()))
        .collect();
    let runs = [(epoch_size, txs[0]), (txs[1], 1), (txs[2], 1)]
        .map(|(durable, steps)| {
            let writes = script[..durable].iter().map(|&op| vec![op]).collect();
            Run::solo(heaps[0].clone(), model.clone(), writes, steps)
        })
        .into();
    let commit = move |run: &mut Run, t: usize| {
        commit_ops(&mut run.heaps[0], &run.model, &script[t..=t]);
    };

    // A generation stages at every `epoch_size`-th commit and drains
    // when the next one stages or a seal runs. Its marker is the last
    // event of draining it alone, counted on a heap holding only it.
    let (staged, _) = obs::capture(|| {
        let mut run = Run::solo(heaps[0].clone(), model, Vec::new(), 0);
        (0..epoch_size).for_each(|t| commit(&mut run, t));
        run.heaps[0].durable_events(PersistentHeap::seal_epoch)
    });
    assert!(staged > 0, "{config}: draining the staged generation is durable");
    let drive = move |r: usize, run: &mut Run, steps: usize, trail: &mut Trail| {
        let n = if r == 0 { steps } else { txs[r] * steps };
        for t in 0..n {
            let before = trail.cut.events();
            commit(run, t);
            // Staging the second generation drains the first.
            if t + 1 == 2 * epoch_size {
                trail.durable(epoch_size, before + staged);
            }
        }
        if r > 0 && steps == 1 {
            if n >= epoch_size {
                trail.durable(epoch_size, trail.cut.events() + staged);
            }
            run.heaps[0].seal_epoch();
            trail.durable(n, trail.cut.events());
        }
    };
    let (outcomes, merged) =
        Scenario::new(config, seed, runs, true, Box::new(drive)).sweep(setup, threads);
    let (crash_points, trace, metrics) = (outcomes.len(), merged.trace, merged.metrics);
    MidEpochSweepReport { config, epoch_size: epoch_size as u64, crash_points, trace, metrics }
}

/// Crashes one whole flush-on-commit transaction (writes and commit)
/// at each of its durable events and once completed, in a run whose
/// commit leaves the log alone and one whose commit truncates it. Each
/// point recovers exactly the state before or after it, "after" never
/// reverts, and the completed run is "after": the paper's FoC baseline
/// (Fig. 5, Table 1) keeps data durable before its marker, and no
/// truncation drops records whose lines are not.
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
    assert!(config.flush_on_commit(), "mid-commit sweep needs flush-on-commit, got {config}");
    let mut rng = DetRng::seed_from_u64(seed);
    let script = |rng: &mut DetRng| -> WriteSet {
        (0..3).map(|_| (0, rng.gen_range(0..8), rng.gen())).collect()
    };

    // Run 0 commits on the committed baseline, whose log is nearly
    // empty. Run 1 commits more on a copy, each tried on a clone first,
    // until one's commit truncates the log (a log that never truncates
    // fills and panics): that one is swept there.
    let (runs, setup) = obs::capture(|| {
        let (heaps, mut model) = committed_fleet(config, 1, 8, 64, &mut rng);
        let mut heap = heaps[0].clone();
        let plain = Run::solo(heap.clone(), model.clone(), vec![script(&mut rng)], 1);
        let truncating = loop {
            let tx = script(&mut rng);
            let mut next = heap.clone();
            commit_ops(&mut next, &model, &tx);
            if next.stats().truncations > heap.stats().truncations {
                break Run::solo(heap, model, vec![tx], 1);
            }
            model.apply(&tx);
            heap = next;
        };
        vec![plain, truncating]
    });
    // The runner observes which points recover before and which after.
    let drive = |_: usize, run: &mut Run, steps: usize, _: &mut Trail| {
        if steps == 1 {
            commit_ops(&mut run.heaps[0], &run.model, &run.writes[0]);
        }
    };
    Scenario::new(config, seed, runs, false, Box::new(drive)).mid_tx_report(setup, threads)
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
/// Where the 2PC sweep's last run, on a routing pool, splits its group.
const XS_ROUTED_SPLIT: usize = 2;

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
    pub outcomes: Vec<(CrashPoint, TxnPointVerdict)>,
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

/// Crashes a three-shard deployment at **every** durable event of six
/// runs of the production 2PC calls ([`cross_shard_scenario`]): run 0
/// decides each transaction alone, run `s` in `1..=4` seals the first
/// `s` decisions together, and run 5 splits at 2 on a routing pool. The
/// fleet — every shard and the pool — loses power at one instant in a
/// prepare, a routing append, a decision seal (compaction included), a
/// phase-2 marker or between them, plus once with a participant's image
/// lost outright.
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
    assert!(config.flush_on_commit(), "cross-shard 2PC sweep needs flush-on-commit, got {config}");
    let mut rng = DetRng::seed_from_u64(seed);

    // XS_SHARDS heaps of XS_CELLS committed cells on distinct lines.
    let ((heaps, model), setup) =
        obs::capture(|| committed_fleet(config, XS_SHARDS, XS_CELLS, 64, &mut rng));

    // Run 0's workload: each transaction spans two adjacent shards with
    // two writes per participant.
    let spans = |t: usize| [t, t, t + 1, t + 1].map(|s| s % XS_SHARDS);
    let script: Vec<WriteSet> = (0..XS_TXNS)
        .map(|t| spans(t).map(|s| (s, rng.gen_range(0..XS_CELLS), rng.gen())).to_vec())
        .collect();

    // The grouped runs' workload: same shard spans, but transaction `t`
    // owns cell `t` on each participant so concurrently-prepared write
    // sets stay pairwise disjoint.
    let pool_script: Vec<WriteSet> = (0..XS_TXNS)
        .map(|t| spans(t).map(|s| (s, t, rng.gen())).to_vec())
        .collect();

    let mut runs = vec![(0, false, &script[..])];
    runs.extend((1..=XS_TXNS).map(|split| (split, false, &pool_script[..])));
    runs.push((XS_ROUTED_SPLIT, true, &pool_script[..]));
    let scenario = cross_shard_scenario(config, &heaps, &model, &runs);
    let (outcomes, merged) = scenario.sweep(setup, threads);
    use TxnPointVerdict as V;
    let outcomes: Vec<(CrashPoint, V)> = (outcomes.into_iter())
        .map(|(point, committed)| match point.lost {
            Some(shard) => (point, V::DegradedShard { shard }),
            None if committed == 0 => (point, V::AbortedEverywhere),
            None if committed == XS_TXNS => (point, V::CommittedEverywhere),
            None => (point, V::SplitResolved { committed, aborted: XS_TXNS - committed }),
        })
        .collect();
    let count = |hit: fn(&V) -> bool| outcomes.iter().filter(|(_, v)| hit(v)).count();
    CrossShard2pcReport {
        config,
        shards: XS_SHARDS,
        txns: XS_TXNS,
        crash_points: outcomes.len(),
        committed: count(|v| *v == V::CommittedEverywhere),
        aborted: count(|v| *v == V::AbortedEverywhere),
        degraded: count(|v| matches!(v, V::DegradedShard { .. })),
        split: count(|v| matches!(v, V::SplitResolved { .. })),
        outcomes,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

/// The 2PC scenario on the `baseline` fleet, whose cells `model`
/// describes: one run per `(split, routed, script)`, `script` holding a
/// `(shard, cell, value)` write set per transaction. A run is the calls
/// [`CoordinatorPool::submit`] and [`CoordinatorPool::drain`] are made
/// of, one step per transaction; transaction `t` is durable from the
/// last event of the seal covering it. Split 0 decides each alone on a
/// one-coordinator pool, and crashes once more at the middle one's
/// decision with its first participant's image lost. Split `s > 0`
/// prepares and buffers all on two coordinators, seals the first `s`
/// together and the rest together, then runs phase 2 as one more step;
/// its write sets must be pairwise disjoint. A routed run's pool is
/// [`CoordinatorPool::with_routing`].
#[must_use]
pub fn cross_shard_scenario(
    config: HeapConfig,
    baseline: &[PersistentHeap],
    model: &CellModel,
    runs: &[(usize, bool, &[WriteSet])],
) -> Scenario {
    let splits: Vec<usize> = runs.iter().map(|&(split, _, _)| split).collect();
    let runs = (runs.iter())
        .map(|&(split, routed, script)| {
            let (coordinators, group) =
                if split == 0 { (1, 1) } else { (XS_POOL_COORDS, script.len() + 1) };
            let pool = if routed { CoordinatorPool::with_routing } else { CoordinatorPool::new };
            let mid = script.len() / 2;
            let first = script[mid].iter().map(|&(shard, _, _)| shard).min();
            Run {
                heaps: baseline.to_vec(),
                pool: Some(pool(coordinators, group)),
                model: model.clone(),
                writes: script.to_vec(),
                steps: script.len() + usize::from(split > 0),
                routed,
                lose: first.filter(|_| split == 0).map(|shard| (mid, shard)),
            }
        })
        .collect();
    let drive = move |r: usize, run: &mut Run, steps: usize, trail: &mut Trail| {
        let (pool, last) = (run.pool.as_mut().expect("a 2PC pool"), run.writes.len());
        for (t, ops) in run.writes.iter().enumerate().take(steps) {
            let coordinator = t % pool.coordinators();
            let mut txn = pool.begin(coordinator, run.model.shards());
            for &(shard, cell, value) in ops {
                txn.stage(shard, run.model.cell(shard, cell).offset(), value);
            }
            let refusal = pool.prepare(coordinator, &mut run.heaps, &txn).unwrap();
            assert!(refusal.is_none(), "run {r}: txn {t} refused: {refusal:?}");
            pool.buffer_decision(coordinator, &txn);
            trail.txns.push((txn.gtxid(), coordinator));
            if pool.should_seal(coordinator) || t + 1 == splits[r] || t + 1 == last {
                pool.seal_decisions(coordinator);
                trail.durable(t + 1, trail.cut.events());
            }
            if splits[r] == 0 {
                pool.complete_sealed(&mut run.heaps).unwrap();
            }
        }
        if steps > last {
            pool.complete_sealed(&mut run.heaps).unwrap();
        }
    };
    let label = config.to_string();
    Scenario { label, config, runs, drive: Box::new(drive), known: true }
}

/// A fault class injected into the single-node save → recovery-ladder
/// pipeline. Unlike a [`SaveCrashPoint`] (a single crash instant on the
/// plain save path), each of these exercises a whole degraded-mode scenario:
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
    /// Power actually dies before the NVDIMM save command even though
    /// the measured window promised room: stage A lands, the arm is
    /// refused, and no marker may reach flash.
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
    /// The node's save verdict under the fault — `None` only for glitch
    /// storms, where the debounce filter swallowed the trace.
    pub verdict: Option<ShardVerdict>,
    /// The ladder's terminal verdict — `None` only for glitch storms,
    /// where no outage happened and no recovery ran.
    pub outcome: Option<RecoveryOutcome>,
    /// Power cycles consumed by crashes during recovery.
    pub power_cycles: u32,
    /// Ladder rungs attempted (including refusals and crash restarts).
    pub rungs_tried: usize,
}

/// The full single-node save → recovery-ladder sweep.
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
/// checkpoint), run the node's save ([`node_save`], over its private
/// power domain) under the fault, cut power, climb the ladder, and
/// assert the degraded-mode contract.
///
/// The contract, checked at every point:
///
/// * the save's verdict *predicts* the terminal rung (complete → full
///   resume, partial → log replay, sacrificed/torn → cluster rebuild);
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
        // Only the pool is armed: stage A lands, the arm is refused.
        LadderFault::BrownOutMidSave => machine.nvram_mut().arm(&PowerCut::after(0)),
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
    let window_cap = match fault {
        LadderFault::WindowShortfall { fatal: false }
        | LadderFault::CrashDuringRestore {
            rung: LadderRung::LocalWsp | LadderRung::HeapLogReplay,
        } => Some(partial_window),
        LadderFault::WindowShortfall { fatal: true }
        | LadderFault::CrashDuringRestore {
            rung: LadderRung::ClusterRebuild,
        } => Some(Nanos::from_micros(150)),
        _ => None,
    };

    let report = node_save(
        &mut machine,
        &mut heap,
        load,
        &trace,
        DomainBudget { window_cap },
    )
    .expect("every injected fault class yields a verdict, not an error");

    if let DomainVerdict::GlitchIgnored { .. } = report.verdict {
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
            verdict: None,
            outcome: None,
            power_cycles: 0,
            rungs_tried: 0,
        };
    }

    // Post-save sabotage: tear a completed flash image behind the
    // supervisor's back — the valid flag stays high, only the checksum
    // knows.
    let verdict = report.shards[0].verdict;
    if let LadderFault::TornSave { module } = fault {
        assert_eq!(
            verdict,
            ShardVerdict::Complete,
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
        .then(|| heap.crash(verdict == ShardVerdict::Complete));

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
    let expect = match (fault, verdict) {
        (LadderFault::TornSave { .. }, _) | (_, ShardVerdict::Sacrificed) => LadderExpect::Rebuild,
        (_, ShardVerdict::Complete) => LadderExpect::LocalResume,
        (_, ShardVerdict::PartialPriority) => LadderExpect::LogReplay,
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
        verdict: Some(verdict),
        outcome: Some(ladder.outcome),
        power_cycles: ladder.power_cycles,
        rungs_tried: ladder.attempts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_points_cut_before_and_after_the_arm_and_drain_every_module() {
        let machine = Machine::intel_testbed();
        let modules = machine.nvram().dimms().len();
        let points =
            save_path_crash_points(&machine, SystemLoad::Busy, RestartStrategy::RestorePathReinit);
        // The save command is the save's one durable event.
        let cut = |events| SaveCrashPoint::Cut { events };
        assert_eq!(points[..2], [cut(0), cut(1)]);
        assert_eq!(points.len(), 2 + modules);
        assert!(points.contains(&SaveCrashPoint::UltracapShortfall { module: modules - 1 }));
        // The strawman blows its window before the arm: no event at all.
        let acpi = save_path_crash_points(&machine, SystemLoad::Busy, RestartStrategy::AcpiSuspend);
        assert_eq!(acpi[0], cut(0));
        assert_eq!(acpi.len(), 1 + modules);
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
        assert_eq!(report.outcomes.len(), 2 + Machine::intel_testbed().nvram().dimms().len());
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
            // The start and 12 write boundaries; FoC + UL also crashes
            // between the durable events of each undo-record append,
            // 24 more points at this seed.
            let points = if config == HeapConfig::FocUndo { 13 + 24 } else { 13 };
            assert_eq!(report.crash_points, points, "{config}");
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
            for run in 0..=XS_TXNS + 1 {
                let split_at = if run > XS_TXNS { XS_ROUTED_SPLIT } else { run };
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
                    committed: split_at,
                    aborted: XS_TXNS - split_at,
                };
                assert_eq!(
                    verdicts.contains(&split),
                    split_at > 0 && split_at < XS_TXNS,
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
