//! Power-storm survival: dozens of sequential micro-outages against one
//! shared power domain, each landing mid-recovery of the previous one.
//!
//! Intermittent-computing supplies (harvested energy, brown-out-prone
//! racks) do not fail once — they fail in *storms*: partial saves and
//! partial restores interleave, and every recovery must assume it will
//! itself be interrupted. [`run_power_storm`] drives a sharded fleet
//! through that regime:
//!
//! * every outage runs the domain supervisor's triaged save
//!   ([`crate::domain_save`]) under a [`PowerCut`] placed at one of its
//!   [`STORM_BOUNDARIES`], so across a storm the save is crashed at
//!   every boundary at least once;
//! * every recovery climbs the ladder (resolve in-doubt 2PC → log
//!   replay / full resume → cluster rebuild for sacrificed shards), and
//!   the *next* outage lands on a chosen rung of that climb — the climb
//!   is then re-run from the same durable state and must produce
//!   identical heap contents (idempotent re-climb);
//! * cross-shard transactions run in the foreground, including
//!   interleaved in-flight pairs left in doubt at the outage, and the
//!   in-memory model is checked cell-for-cell after every recovery: a
//!   committed transaction survives every storm, even when the
//!   coordinator's own shard was sacrificed (the routing log closes
//!   that gap — see [`crate::reapply_routed`]).
//!
//! [`sweep_power_storm`] fans the storm over rung phases and triage
//! biases, sharded over [`crate::sweep::threads`] workers with bitwise
//! deterministic results.

use std::collections::BTreeSet;

use wsp_cluster::ClusterSpec;
use wsp_det::{DetRng, Rng};
use wsp_machine::{Machine, SystemLoad};
use wsp_obs as obs;
use wsp_obs::{Ctr, MetricsSnapshot, Trace};
use wsp_pheap::{BackendStore, CrashImage, HeapConfig, PersistentHeap, PmPtr};
use wsp_power::{PowerCut, PowerDomain, Psu, Ultracapacitor};
use wsp_units::{Farads, Nanos, Volts, Watts};

use crate::domain::{
    domain_save, fixed_need, shard_needs, DomainBudget, DomainInput, DomainVerdict, ShardVerdict,
};
use crate::model::committed_fleet;
use crate::supervisor::{bulk_flush, clean_failure_trace};
use crate::sweep;
use crate::txn::{reapply_routed, resolve_cross_shard, CoordinatorPool, SubmitOutcome};
use crate::WspError;

/// Cells committed per shard, on distinct cache lines: cell 0 carries
/// the foreground transfers, cell 1 the decided half of the interleaved
/// in-doubt pairs, cell 2 the presumed-abort half.
const STORM_CELLS: usize = 3;

/// Shards sharing the power domain: the interleaved in-doubt pairs need
/// a third participant.
const STORM_SHARDS: usize = 3;

/// The boundaries a storm's outages cut the domain save at: two before
/// the first region arm (the triage gate and the contexts stage), a
/// flush and a seal boundary per rank — both before that rank's region
/// arm — and the control-region arm.
pub const STORM_BOUNDARIES: usize = 3 + 2 * STORM_SHARDS;

/// Sequential micro-outages per storm: three full rotations of the
/// save boundaries (27 — every boundary crossed with every ladder rung).
const STORM_OUTAGES: usize = 3 * STORM_BOUNDARIES;

/// One storm scenario: how the triage is biased and which recovery rung
/// each follow-on outage lands on. Every storm fires 27 outages over
/// three shards (three full rotations of the save boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// Heap configuration for every shard (must be flush-on-commit).
    pub config: HeapConfig,
    /// Pin the coordinator's home shard (shard 0) to zero staleness so
    /// the triage ranks it last and tight windows sacrifice it — the
    /// adversarial case for cross-shard decisions.
    pub sacrifice_coordinator: bool,
    /// Offset into the ladder-rung rotation the follow-on outage lands
    /// on (`(outage / STORM_BOUNDARIES + phase) % 3`).
    pub rung_phase: usize,
}

impl StormSpec {
    /// The standard storm: no triage bias, rung rotation from phase 0.
    #[must_use]
    pub fn standard(config: HeapConfig) -> Self {
        StormSpec {
            config,
            sacrifice_coordinator: false,
            rung_phase: 0,
        }
    }
}

/// What one full storm survived, with coverage accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormStats {
    /// Outages fired.
    pub outages: usize,
    /// Cross-shard transactions committed (foreground + decided pairs).
    pub committed_txns: usize,
    /// In-flight transactions resolved by presumed abort across all
    /// recoveries.
    pub presumed_aborts: usize,
    /// Shard-epochs that sealed a complete image.
    pub complete: usize,
    /// Shard-epochs that sealed only the priority stage.
    pub partial: usize,
    /// Shard-epochs sacrificed by the triage (typed refusals, no
    /// image).
    pub sacrificed: usize,
    /// Sacrificed shard-epochs rebuilt from a back-end checkpoint plus
    /// routed-write replay.
    pub rebuilt: usize,
    /// Outages where the coordinator's home shard was itself sacrificed
    /// while transactions were in doubt.
    pub coordinator_shard_sacrifices: usize,
    /// Committed words re-applied to rebuilt shards from the routing
    /// log.
    pub rerouted_writes: u64,
    /// Interrupted recovery climbs whose re-climb produced identical
    /// heap contents.
    pub reclimbs_verified: usize,
    /// Power cycles, counting the mid-recovery interruptions.
    pub power_cycles: usize,
    /// Distinct save boundaries the storm cut at.
    pub decision_cuts: BTreeSet<usize>,
    /// Distinct ladder rungs follow-on outages landed on.
    pub crash_rungs: BTreeSet<usize>,
    /// Every shard's cell values after the final recovery, in
    /// shard-major order — the serial/parallel equality witness.
    pub final_cells: Vec<u64>,
}

/// One point of [`sweep_power_storm`]: a full storm at one rung phase
/// and triage bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormPoint {
    /// Rung-rotation offset for this storm.
    pub phase: usize,
    /// Whether the triage is biased against the coordinator's shard.
    pub sacrifice_coordinator: bool,
}

/// A sweep point's storm result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormPointOutcome {
    /// The scenario.
    pub point: StormPoint,
    /// What it survived.
    pub stats: StormStats,
}

/// The full storm sweep for one heap configuration.
#[derive(Debug, Clone)]
pub struct PowerStormReport {
    /// Heap configuration under test.
    pub config: HeapConfig,
    /// Per-point storms, in injection order.
    pub points: Vec<StormPointOutcome>,
    /// Total outages fired across all points.
    pub outages: usize,
    /// Distinct save boundaries cut, unioned across points.
    pub decision_cuts_covered: usize,
    /// Distinct ladder rungs landed on, unioned across points.
    pub crash_rungs_covered: usize,
    /// Sacrificed shard-epochs rebuilt via checkpoint + routed replay.
    pub rebuilt: usize,
    /// Committed words re-applied from the routing log.
    pub rerouted_writes: u64,
    /// Per-point traces merged in point order — identical for any
    /// `WSP_FAULTSIM_THREADS`.
    pub trace: Trace,
    /// Metrics aggregated across every point, in the same order.
    pub metrics: MetricsSnapshot,
}

fn read_cell(heap: &mut PersistentHeap, p: PmPtr) -> u64 {
    let mut tx = heap.begin();
    let v = tx.read_word(p).expect("storm cell readable");
    tx.commit().expect("read-only commit");
    v
}

/// The shared reserve behind the PSU hold-up: a rack-level
/// ultracapacitor bank sized for hundreds of milliseconds at full
/// draw, ground down and partially re-fed as the storm progresses.
fn storm_reserve() -> Ultracapacitor {
    Ultracapacitor::new(Farads::new(2.0), Volts::new(12.0), Volts::new(6.0))
}

/// One recovery climb from the outage's durable state: resolve every
/// surviving shard against the coordinator's decision log and, when
/// `rebuild` is set, rebuild the sacrificed ones from their back-end
/// checkpoint plus the routing log. Pure in its inputs — re-running it
/// from the same images must yield the same heap contents, which is
/// exactly what the storm asserts when a follow-on outage interrupts
/// the first attempt.
fn climb(
    coordinator_image: &[u8],
    images: &[Option<CrashImage>],
    backends: &[BackendStore],
    cluster: &ClusterSpec,
    rebuild: bool,
) -> (Vec<Option<PersistentHeap>>, u64, usize, usize) {
    let recovery = resolve_cross_shard(coordinator_image, images.to_vec(), cluster);
    let mut heaps = Vec::with_capacity(recovery.shards.len());
    let mut rerouted = 0u64;
    let mut rebuilt = 0usize;
    let mut aborted = 0usize;
    for shard in recovery.shards {
        if let Some(resolution) = &shard.resolution {
            aborted += resolution.aborted.len();
        }
        match shard.heap {
            Some(heap) => {
                assert!(
                    shard.outcome.is_recovered(),
                    "shard {} returned a heap without a recovered verdict: {:?}",
                    shard.shard,
                    shard.outcome
                );
                heaps.push(Some(heap));
            }
            None if rebuild => {
                // Sacrificed by the triage: typed refusal, ladder
                // degrades to a cluster rebuild — checkpoint plus the
                // routed writes of every decided transaction.
                assert!(
                    matches!(shard.refusal, Some(WspError::BackendRecoveryRequired { .. })),
                    "shard {} lost its image without a typed refusal",
                    shard.shard
                );
                let (mut heap, _seq, _took) = backends[shard.shard]
                    .restore()
                    .expect("every shard was checkpointed before the storm");
                rerouted += reapply_routed(&mut heap, shard.shard, &recovery.coordinator)
                    .expect("routed replay targets checkpointed cells");
                rebuilt += 1;
                heaps.push(Some(heap));
            }
            None => heaps.push(None),
        }
    }
    (heaps, rerouted, rebuilt, aborted)
}

/// Drives one full power storm and checks every invariant along the
/// way. Panics are contract violations (a silent tear, a lost committed
/// transaction, a non-idempotent re-climb); the returned [`StormStats`]
/// is the coverage record.
///
/// # Panics
///
/// Panics when `spec.config` is not flush-on-commit (cross-shard 2PC
/// cannot prepare), and on any invariant violation.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_power_storm(spec: &StormSpec, seed: u64) -> StormStats {
    assert!(
        spec.config.flush_on_commit(),
        "power storm needs a flush-on-commit configuration, got {}",
        spec.config
    );
    let mut rng = DetRng::seed_from_u64(seed);
    let shards = STORM_SHARDS;
    let load = SystemLoad::Busy;

    let mut machine = Machine::intel_testbed();
    machine.apply_load(load, rng.gen());
    let mut domain = PowerDomain::new(
        Psu::atx_750w(),
        storm_reserve(),
        machine.power_draw(load),
        shards,
    );

    // Seed the fleet: STORM_CELLS committed cells per shard, then
    // checkpoint each shard to its back end ONCE — every later rebuild
    // must climb back from this deliberately stale state via the
    // routing log.
    let (mut heaps, mut model) = committed_fleet(spec.config, shards, STORM_CELLS, 64, &mut rng);
    let backends: Vec<BackendStore> = heaps
        .iter()
        .map(|heap| {
            let mut backend = BackendStore::disk_array();
            backend.checkpoint(heap);
            backend
        })
        .collect();

    // One coordinator deciding every transaction on its own record.
    let mut coordinator = CoordinatorPool::with_routing(1, 1);
    let mut staleness = vec![Nanos::ZERO; shards];
    let cluster = ClusterSpec::memcache_tier(8);

    let mut stats = StormStats {
        outages: STORM_OUTAGES,
        committed_txns: 0,
        presumed_aborts: 0,
        complete: 0,
        partial: 0,
        sacrificed: 0,
        rebuilt: 0,
        coordinator_shard_sacrifices: 0,
        rerouted_writes: 0,
        reclimbs_verified: 0,
        power_cycles: 0,
        decision_cuts: BTreeSet::new(),
        crash_rungs: BTreeSet::new(),
        final_cells: Vec::new(),
    };

    for k in 0..STORM_OUTAGES {
        // ---- Foreground work: one committed cross-shard transfer.
        let a = k % shards;
        let b = (k + 1) % shards;
        let (va, vb) = (rng.gen::<u64>(), rng.gen::<u64>());
        let mut txn = coordinator.begin(0, shards);
        txn.stage(a, model.cell(a, 0).offset(), va);
        txn.stage(b, model.cell(b, 0).offset(), vb);
        let outcome = coordinator
            .submit(0, &mut heaps, &txn)
            .expect("healthy fleet commits");
        assert_eq!(
            outcome,
            SubmitOutcome::Committed { group: 1 },
            "outage {k} foreground txn"
        );
        model.apply(&[(a, 0, va), (b, 0, vb)]);
        stats.committed_txns += 1;

        // ---- Every third outage: an interleaved in-flight pair. Both
        // prepare on the overlapping shard `b` (disjoint cells), only A
        // reaches a durable decision — the outage must resolve A
        // committed and B presumed-abort from the same recovered logs.
        let mut in_doubt = false;
        if k % 3 == 0 {
            let c = (k + 2) % shards;
            let (wa, wb) = (rng.gen::<u64>(), rng.gen::<u64>());
            let mut pair_a = coordinator.begin(0, shards);
            pair_a.stage(a, model.cell(a, 1).offset(), wa);
            pair_a.stage(b, model.cell(b, 1).offset(), wb);
            let mut pair_b = coordinator.begin(0, shards);
            pair_b.stage(b, model.cell(b, 2).offset(), rng.gen::<u64>());
            pair_b.stage(c, model.cell(c, 2).offset(), rng.gen::<u64>());
            // Interleaved prepares need per-shard steps: drive the heap
            // primitives directly, then seal A's decision alone.
            for (shard, txn, what) in [
                (a, &pair_a, "pair A prepares on its first shard"),
                (b, &pair_b, "pair B prepares on the overlapping shard"),
                (b, &pair_a, "pair A prepares on the overlapping shard"),
                (c, &pair_b, "pair B prepares on its second shard"),
            ] {
                heaps[shard]
                    .prepare_distributed(txn.gtxid(), txn.writes_for(shard))
                    .expect(what);
            }
            coordinator.buffer_decision(0, &pair_a);
            coordinator.seal_decisions(0);
            model.apply(&[(a, 1, wa), (b, 1, wb)]);
            stats.committed_txns += 1;
            in_doubt = true;
        }

        // ---- The outage: triaged domain save cut at a boundary, with a
        // contention-forcing window. Mode 0 trusts the measured
        // window (everything fits), mode 1 covers one full save plus
        // one priority stage, mode 2 a single priority stage.
        let boundary = k % STORM_BOUNDARIES;
        stats.decision_cuts.insert(boundary);
        let window_cap = match k % 3 {
            0 => None,
            mode => {
                // The triage's own needs, for the heaviest shard.
                let share = bulk_flush(&machine, load, shards);
                let (mut max_full, mut max_partial) = (Nanos::ZERO, Nanos::ZERO);
                for heap in &heaps {
                    let (full, partial) = shard_needs(&machine, heap, share);
                    max_full = max_full.max(full);
                    max_partial = max_partial.max(partial);
                }
                let fixed = fixed_need(&machine, &domain);
                if mode == 1 {
                    Some(fixed + max_full + max_partial)
                } else {
                    Some(fixed + max_partial)
                }
            }
        };
        // The cut that stops the save at the boundary: the region arms
        // an uncut save performs before rank `(boundary - 2) / 2` (none
        // before the contexts, every one at the control boundary),
        // counted on clones off the trace. The storm injects no command
        // faults, so every arm an uncut save performs seals its shard.
        let arms_before = boundary.checked_sub(2).map_or(0, |b| {
            let (probe, _) = obs::capture(|| {
                domain_save(DomainInput {
                    machine: &mut machine.clone(),
                    domain: &mut domain.clone(),
                    heaps: &mut heaps.clone(),
                    staleness: &staleness,
                    load,
                    trace: &clean_failure_trace(),
                    budget: DomainBudget { window_cap },
                })
            });
            let probe = probe.expect("storm outages yield verdicts, not errors");
            probe.shards.iter().filter(|s| s.sealed && s.rank < b / 2).count() as u64
        });
        obs::count(Ctr::StormOutages);
        obs::emit("faultsim", "storm_outage", Nanos::ZERO, k as i64, boundary as i64);
        machine.nvram_mut().arm(&PowerCut::after(arms_before));
        let report = domain_save(DomainInput {
            machine: &mut machine,
            domain: &mut domain,
            heaps: &mut heaps,
            staleness: &staleness,
            load,
            trace: &clean_failure_trace(),
            budget: DomainBudget { window_cap },
        })
        .expect("storm outages yield verdicts, not errors");
        assert_eq!(report.verdict, DomainVerdict::Triaged, "outage {k}");
        for s in &report.shards {
            match s.verdict {
                ShardVerdict::Complete => stats.complete += 1,
                ShardVerdict::PartialPriority => stats.partial += 1,
                ShardVerdict::Sacrificed => stats.sacrificed += 1,
            }
            assert_eq!(
                s.verdict != ShardVerdict::Sacrificed,
                s.sealed,
                "outage {k}: shard {} verdict {:?} vs sealed {}",
                s.shard,
                s.verdict,
                s.sealed
            );
            assert_eq!(
                s.verdict == ShardVerdict::Sacrificed,
                s.refusal.is_some(),
                "outage {k}: shard {} sacrifice must carry a typed refusal (and only then)",
                s.shard
            );
        }
        if in_doubt && report.shards[0].verdict == ShardVerdict::Sacrificed {
            stats.coordinator_shard_sacrifices += 1;
        }

        // ---- Power actually dies: images exist exactly per verdict.
        let outgoing: Vec<PersistentHeap> = std::mem::take(&mut heaps);
        let images: Vec<Option<CrashImage>> = outgoing
            .into_iter()
            .zip(&report.shards)
            .map(|(heap, s)| match s.verdict {
                ShardVerdict::Complete => Some(heap.crash(true)),
                ShardVerdict::PartialPriority => Some(heap.crash(false)),
                ShardVerdict::Sacrificed => None,
            })
            .collect();
        let coordinator_image = coordinator.crash_image();
        coordinator = CoordinatorPool::recover(&coordinator_image, 1, 1);
        machine.system_power_loss();
        machine.system_power_on();
        for dimm in machine.nvram_mut().dimms_mut() {
            dimm.exit_self_refresh()
                .expect("fresh power-on leaves every module in self-refresh");
        }
        for core in machine.cores_mut() {
            core.halted = false;
        }
        stats.power_cycles += 1;
        domain.drain_outage(Nanos::from_millis(20));
        let _topped_up = domain.replenish(
            Watts::new(2000.0),
            Nanos::from_millis(20 + (k as u64 % 5) * 10),
        );

        // ---- Recovery, interrupted: the follow-on outage lands on
        // `crash_rung` of the first climb (0 = before resolution, 1 =
        // after resolution but before the rebuilds, 2 = after the
        // rebuilds). The interrupted attempt is discarded — everything
        // it did was derived from durable state — and the re-climb must
        // reach identical contents.
        let crash_rung = ((k / STORM_BOUNDARIES) + spec.rung_phase) % 3;
        stats.crash_rungs.insert(crash_rung);
        let first = match crash_rung {
            0 => None,
            rung => Some(climb(
                &coordinator_image,
                &images,
                &backends,
                &cluster,
                rung == 2,
            )),
        };
        if first.is_some() {
            stats.power_cycles += 1; // the outage that cut the climb short
        }
        let (new_heaps, rerouted, rebuilt, aborted) =
            climb(&coordinator_image, &images, &backends, &cluster, true);
        let mut new_heaps: Vec<PersistentHeap> = new_heaps
            .into_iter()
            .map(|h| h.expect("the full climb rebuilds every shard"))
            .collect();
        if let Some((first_heaps, first_rerouted, first_rebuilt, first_aborted)) = first {
            if crash_rung == 2 {
                assert_eq!(first_rerouted, rerouted, "outage {k}: re-climb rerouted differently");
                assert_eq!(first_rebuilt, rebuilt, "outage {k}: re-climb rebuilt differently");
            }
            assert_eq!(first_aborted, aborted, "outage {k}: re-climb resolved differently");
            for (s, first_heap) in first_heaps.into_iter().enumerate() {
                let Some(mut first_heap) = first_heap else {
                    continue; // rung-1 interruption never reached this rebuild
                };
                for c in 0..STORM_CELLS {
                    let cell = model.cell(s, c);
                    assert_eq!(
                        read_cell(&mut first_heap, cell),
                        read_cell(&mut new_heaps[s], cell),
                        "outage {k}: re-climb diverged on shard {s} cell {c}"
                    );
                }
            }
            stats.reclimbs_verified += 1;
        }
        stats.rerouted_writes += rerouted;
        stats.rebuilt += rebuilt;
        stats.presumed_aborts += aborted;

        // ---- The survival contract: every committed value, every
        // shard, every outage — sacrificed shards included. One read
        // transaction per cell: the storm keeps running on these heaps,
        // so the reads are part of its simulated timeline.
        heaps = new_heaps;
        for (s, heap) in heaps.iter_mut().enumerate() {
            for c in 0..STORM_CELLS {
                assert_eq!(
                    read_cell(heap, model.cell(s, c)),
                    model.value(s, c),
                    "outage {k}: shard {s} cell {c} lost a committed value \
                     (verdict {:?})",
                    report.shards[s].verdict
                );
            }
        }

        // ---- Staleness: reset by a complete seal, otherwise grows.
        for (stale, shard) in staleness.iter_mut().zip(&report.shards) {
            *stale = if shard.verdict == ShardVerdict::Complete {
                Nanos::ZERO
            } else {
                stale.saturating_add(Nanos::from_millis(1))
            };
        }
        if spec.sacrifice_coordinator {
            staleness[0] = Nanos::ZERO;
        }
    }

    for (s, heap) in heaps.iter_mut().enumerate() {
        for c in 0..STORM_CELLS {
            stats.final_cells.push(read_cell(heap, model.cell(s, c)));
        }
    }
    stats
}

/// Runs [`run_power_storm`] across every rung phase and both triage
/// biases, sharded over [`sweep::threads`] workers — bitwise identical
/// to the serial order.
///
/// # Panics
///
/// As [`run_power_storm`]: any surviving panic is a broken storm
/// invariant.
#[must_use]
pub fn sweep_power_storm(config: HeapConfig, seed: u64) -> PowerStormReport {
    sweep_power_storm_threads(config, seed, sweep::threads())
}

pub(crate) fn sweep_power_storm_threads(
    config: HeapConfig,
    seed: u64,
    threads: usize,
) -> PowerStormReport {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut points: Vec<(StormPoint, u64)> = Vec::new();
    for phase in 0..3 {
        for sacrifice_coordinator in [false, true] {
            let point = StormPoint {
                phase,
                sacrifice_coordinator,
            };
            points.push((point, rng.gen::<u64>()));
        }
    }

    let (outcomes, merged) = sweep::run(points, threads, |(point, point_seed)| {
        sweep::inject(
            point.phase as i64,
            i64::from(point.sacrifice_coordinator),
            &point,
        );
        let spec = StormSpec {
            sacrifice_coordinator: point.sacrifice_coordinator,
            rung_phase: point.phase,
            ..StormSpec::standard(config)
        };
        StormPointOutcome {
            point,
            stats: run_power_storm(&spec, point_seed),
        }
    });

    let mut cuts: BTreeSet<usize> = BTreeSet::new();
    let mut rungs: BTreeSet<usize> = BTreeSet::new();
    let mut outages = 0usize;
    let mut rebuilt = 0usize;
    let mut rerouted_writes = 0u64;
    for outcome in &outcomes {
        cuts.extend(outcome.stats.decision_cuts.iter().copied());
        rungs.extend(outcome.stats.crash_rungs.iter().copied());
        outages += outcome.stats.outages;
        rebuilt += outcome.stats.rebuilt;
        rerouted_writes += outcome.stats.rerouted_writes;
    }

    PowerStormReport {
        config,
        points: outcomes,
        outages,
        decision_cuts_covered: cuts.len(),
        crash_rungs_covered: rungs.len(),
        rebuilt,
        rerouted_writes,
        trace: merged.trace,
        metrics: merged.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_storm_covers_every_boundary_and_rung() {
        let spec = StormSpec::standard(HeapConfig::FocUndo);
        let stats = run_power_storm(&spec, 42);
        assert!(stats.outages >= 24, "{} outages", stats.outages);
        assert_eq!(
            stats.decision_cuts.len(),
            STORM_BOUNDARIES,
            "every save boundary crashed: {:?}",
            stats.decision_cuts
        );
        assert_eq!(stats.crash_rungs.len(), 3, "{:?}", stats.crash_rungs);
        assert!(stats.complete > 0, "some shards sealed complete images");
        assert!(stats.partial > 0, "some shards sealed priority-only images");
        assert!(stats.sacrificed > 0, "the shared window forced sacrifices");
        assert_eq!(
            stats.rebuilt, stats.sacrificed,
            "every sacrificed shard-epoch was rebuilt exactly once"
        );
        assert!(stats.rerouted_writes > 0, "rebuilds replayed routed writes");
        assert!(stats.presumed_aborts > 0, "in-doubt pairs presumed abort");
        assert!(
            stats.reclimbs_verified >= stats.outages / 2,
            "most recoveries were interrupted and re-climbed: {}",
            stats.reclimbs_verified
        );
        assert!(stats.power_cycles > stats.outages, "mid-recovery outages counted");
    }

    #[test]
    fn coordinator_shard_sacrifices_never_lose_decided_txns() {
        // The survival assertions live inside run_power_storm; what
        // this test pins is that the adversarial scenario actually
        // occurred — the coordinator's home shard was sacrificed while
        // transactions were in doubt — in both triage biases.
        for sacrifice_coordinator in [false, true] {
            let spec = StormSpec {
                sacrifice_coordinator,
                ..StormSpec::standard(HeapConfig::FocUndo)
            };
            let stats = run_power_storm(&spec, 7);
            assert!(
                stats.coordinator_shard_sacrifices >= 3,
                "bias {sacrifice_coordinator}: {} coordinator-shard sacrifices",
                stats.coordinator_shard_sacrifices
            );
        }
    }

    #[test]
    fn storms_are_reproducible() {
        let spec = StormSpec::standard(HeapConfig::FocStm);
        let once = run_power_storm(&spec, 1234);
        let twice = run_power_storm(&spec, 1234);
        assert_eq!(once, twice);
        assert_ne!(
            once.final_cells,
            run_power_storm(&spec, 1235).final_cells,
            "different seeds drive different storms"
        );
    }

    #[test]
    #[should_panic(expected = "flush-on-commit")]
    fn storm_rejects_flush_on_fail_configs() {
        let _ = run_power_storm(&StormSpec::standard(HeapConfig::Fof), 1);
    }
}
