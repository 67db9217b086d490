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
//!   ([`crate::domain_save`]) with an injected decision cut, so across a
//!   storm every triage decision point is crashed at least once;
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
//! biases, sharded over [`faultsim_threads`] workers with bitwise
//! deterministic results.

use std::collections::BTreeSet;

use wsp_cache::FlushMethod;
use wsp_cluster::ClusterSpec;
use wsp_det::{DetRng, Rng};
use wsp_machine::{Machine, SystemLoad};
use wsp_obs as obs;
use wsp_obs::{Ctr, MetricsSnapshot, Trace};
use wsp_pheap::{BackendStore, CrashImage, HeapConfig, PersistentHeap, PmPtr, RecoveryLadder};
use wsp_power::{PowerDomain, Psu, Ultracapacitor};
use wsp_units::{ByteSize, Farads, Nanos, Volts, Watts};

use crate::domain::{
    domain_decision_points, domain_save, DomainBudget, DomainInput, DomainVerdict, ShardVerdict,
};
use crate::faultsim::{faultsim_threads, merge_point_captures, run_sharded};
use crate::supervisor::{clean_failure_trace, MARKER_COST};
use crate::txn::{
    reapply_routed, recover_routing, resolve_cross_shard, CoordinatorPool, SubmitOutcome,
};
use crate::WspError;

/// Cells committed per shard, on distinct cache lines: cell 0 carries
/// the foreground transfers, cell 1 the decided half of the interleaved
/// in-doubt pairs, cell 2 the presumed-abort half.
const STORM_CELLS: usize = 3;

/// One storm scenario: how many outages, how the triage is biased, and
/// which recovery rung each follow-on outage lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// Heap configuration for every shard (must be flush-on-commit).
    pub config: HeapConfig,
    /// Shards sharing the power domain.
    pub shards: usize,
    /// Sequential micro-outages to fire.
    pub outages: usize,
    /// Pin the coordinator's home shard (shard 0) to zero staleness so
    /// the triage ranks it last and tight windows sacrifice it — the
    /// adversarial case for cross-shard decisions.
    pub sacrifice_coordinator: bool,
    /// Offset into the ladder-rung rotation the follow-on outage lands
    /// on (`(outage / decisions + phase) % 3`).
    pub rung_phase: usize,
}

impl StormSpec {
    /// The standard storm: three shards, three full rotations of the
    /// triage decision points (27 outages — every decision cut crossed
    /// with every ladder rung).
    #[must_use]
    pub fn standard(config: HeapConfig) -> Self {
        let shards = 3;
        StormSpec {
            config,
            shards,
            outages: 3 * domain_decision_points(shards),
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
    /// Distinct triage decision indices the storm cut at.
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
    /// Distinct triage decision indices cut, unioned across points.
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

fn read_cell(heap: &mut PersistentHeap, addr: u64) -> u64 {
    let p = PmPtr::new(addr).expect("storm cells are aligned");
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
    backends: &[RecoveryLadder],
    cluster: &ClusterSpec,
    rebuild: bool,
) -> (Vec<Option<PersistentHeap>>, u64, usize, usize) {
    let routed = recover_routing(coordinator_image);
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
                let (mut heap, _source, _took) = backends[shard.shard]
                    .recover_from_checkpoint()
                    .expect("every shard was checkpointed before the storm");
                rerouted += reapply_routed(&mut heap, shard.shard, &routed, &recovery.decided)
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
/// cannot prepare), when `spec.shards < 3` (the interleaved pairs need
/// a third participant), and on any invariant violation.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_power_storm(spec: &StormSpec, seed: u64) -> StormStats {
    assert!(
        spec.config.flush_on_commit(),
        "power storm needs a flush-on-commit configuration, got {}",
        spec.config
    );
    assert!(spec.shards >= 3, "power storm needs >= 3 shards");
    let mut rng = DetRng::seed_from_u64(seed);
    let shards = spec.shards;
    let decisions = domain_decision_points(shards);
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
    let mut heaps: Vec<PersistentHeap> = Vec::with_capacity(shards);
    let mut cells: Vec<Vec<u64>> = Vec::with_capacity(shards);
    let mut model: Vec<Vec<u64>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), spec.config);
        let mut tx = heap.begin();
        let base = tx.alloc(STORM_CELLS as u64 * 64).expect("seed allocation");
        let mut shard_cells = Vec::with_capacity(STORM_CELLS);
        let mut shard_model = Vec::with_capacity(STORM_CELLS);
        for c in 0..STORM_CELLS {
            let p = base.byte_offset(c as u64 * 64);
            let v = rng.gen::<u64>();
            tx.write_word(p, v).expect("seed cell writable");
            shard_cells.push(p.offset());
            shard_model.push(v);
        }
        tx.set_root(base).expect("root");
        tx.commit().expect("seed commit");
        heaps.push(heap);
        cells.push(shard_cells);
        model.push(shard_model);
    }
    let backends: Vec<RecoveryLadder> = heaps
        .iter()
        .map(|heap| {
            let mut backend = RecoveryLadder::new(BackendStore::disk_array());
            backend.checkpoint(heap);
            backend
        })
        .collect();

    // One coordinator deciding every transaction on its own record.
    let mut coordinator = CoordinatorPool::with_routing(1, 1);
    let mut staleness = vec![Nanos::ZERO; shards];
    let cluster = ClusterSpec::memcache_tier(8);

    let mut stats = StormStats {
        outages: spec.outages,
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

    for k in 0..spec.outages {
        // ---- Foreground work: one committed cross-shard transfer.
        let a = k % shards;
        let b = (k + 1) % shards;
        let (va, vb) = (rng.gen::<u64>(), rng.gen::<u64>());
        let mut txn = coordinator.begin(0, shards);
        txn.stage(a, cells[a][0], va);
        txn.stage(b, cells[b][0], vb);
        let outcome = coordinator
            .submit(0, &mut heaps, &txn)
            .expect("healthy fleet commits");
        assert_eq!(
            outcome,
            SubmitOutcome::Committed { group: 1 },
            "outage {k} foreground txn"
        );
        model[a][0] = va;
        model[b][0] = vb;
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
            pair_a.stage(a, cells[a][1], wa);
            pair_a.stage(b, cells[b][1], wb);
            let mut pair_b = coordinator.begin(0, shards);
            pair_b.stage(b, cells[b][2], rng.gen::<u64>());
            pair_b.stage(c, cells[c][2], rng.gen::<u64>());
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
            model[a][1] = wa;
            model[b][1] = wb;
            stats.committed_txns += 1;
            in_doubt = true;
        }

        // ---- The outage: triaged domain save with an injected cut and
        // a contention-forcing window. Mode 0 trusts the measured
        // window (everything fits), mode 1 covers one full save plus
        // one priority stage, mode 2 a single priority stage.
        let cut = k % decisions;
        stats.decision_cuts.insert(cut);
        let window_cap = match k % 3 {
            0 => None,
            mode => {
                let detection = machine.monitor().debounce
                    + machine.monitor().interrupt_latency
                    + machine.profile().ipi_latency;
                let fixed = detection
                    + machine.profile().context_save
                    + machine.monitor().i2c_command_latency;
                let arm = machine.monitor().i2c_command_latency;
                let share = machine.flush_analysis().flush_time(
                    FlushMethod::Wbinvd,
                    machine.dirty_estimate(load) / shards as u64,
                );
                let (mut max_full, mut max_partial) = (Nanos::ZERO, Nanos::ZERO);
                for heap in &heaps {
                    let (stage_a, _probe) = obs::capture(|| {
                        let mut probe = heap.clone();
                        probe.priority_flush()
                    });
                    max_full = max_full.max(stage_a + share + MARKER_COST + arm);
                    max_partial = max_partial.max(stage_a + MARKER_COST + arm);
                }
                if mode == 1 {
                    Some(fixed + max_full + max_partial)
                } else {
                    Some(fixed + max_partial)
                }
            }
        };
        obs::count(Ctr::StormOutages);
        obs::emit("faultsim", "storm_outage", Nanos::ZERO, k as i64, cut as i64);
        let report = domain_save(DomainInput {
            machine: &mut machine,
            domain: &mut domain,
            heaps: &mut heaps,
            staleness: &staleness,
            load,
            trace: &clean_failure_trace(),
            budget: DomainBudget {
                window_cap,
                cut_decision: Some(cut),
                ..DomainBudget::trusting()
            },
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
        let crash_rung = ((k / decisions) + spec.rung_phase) % 3;
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
                for (c, &cell) in cells[s].iter().enumerate() {
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
        // shard, every outage — sacrificed shards included.
        heaps = new_heaps;
        for s in 0..shards {
            for c in 0..STORM_CELLS {
                assert_eq!(
                    read_cell(&mut heaps[s], cells[s][c]),
                    model[s][c],
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

    for (heap, shard_cells) in heaps.iter_mut().zip(&cells) {
        for &cell in shard_cells.iter().take(STORM_CELLS) {
            stats.final_cells.push(read_cell(heap, cell));
        }
    }
    stats
}

/// Runs [`run_power_storm`] across every rung phase and both triage
/// biases, sharded over [`faultsim_threads`] workers — bitwise
/// identical to the serial order.
///
/// # Panics
///
/// As [`run_power_storm`]: any surviving panic is a broken storm
/// invariant.
#[must_use]
pub fn sweep_power_storm(config: HeapConfig, seed: u64) -> PowerStormReport {
    sweep_power_storm_threads(config, seed, faultsim_threads())
}

/// [`sweep_power_storm`] with an explicit worker count, for proving the
/// sharding invisible: any `threads` yields a bitwise-identical report.
///
/// # Panics
///
/// As [`run_power_storm`].
#[must_use]
pub fn sweep_power_storm_threads(
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

    let results = run_sharded(points, threads, |(point, point_seed)| {
        let (stats, cap) = obs::capture(|| {
            obs::emit_detail(
                "faultsim",
                "inject",
                Nanos::ZERO,
                point.phase as i64,
                i64::from(point.sacrifice_coordinator),
                format!("{point:?}"),
            );
            obs::count(Ctr::FaultsInjected);
            let spec = StormSpec {
                sacrifice_coordinator: point.sacrifice_coordinator,
                rung_phase: point.phase,
                ..StormSpec::standard(config)
            };
            run_power_storm(&spec, point_seed)
        });
        (point, stats, cap)
    });

    let mut outcomes = Vec::with_capacity(results.len());
    let mut captures = Vec::with_capacity(results.len());
    for (point, stats, cap) in results {
        captures.push(cap);
        outcomes.push(StormPointOutcome { point, stats });
    }
    let merged = merge_point_captures(captures);

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
    fn standard_storm_covers_every_decision_and_rung() {
        let spec = StormSpec::standard(HeapConfig::FocUndo);
        let stats = run_power_storm(&spec, 42);
        assert!(stats.outages >= 24, "{} outages", stats.outages);
        assert_eq!(
            stats.decision_cuts.len(),
            domain_decision_points(spec.shards),
            "every triage decision point crashed: {:?}",
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

    #[test]
    fn parallel_storm_sweep_matches_serial() {
        let serial = sweep_power_storm_threads(HeapConfig::FocUndo, 4242, 1);
        assert_eq!(serial.points.len(), 6);
        assert_eq!(serial.decision_cuts_covered, domain_decision_points(3));
        assert_eq!(serial.crash_rungs_covered, 3);
        for threads in [2, 4] {
            let parallel = sweep_power_storm_threads(HeapConfig::FocUndo, 4242, threads);
            assert_eq!(parallel.points, serial.points, "{threads} threads");
            if let Err(report) =
                wsp_obs::diff_traces(&serial.trace, &parallel.trace, wsp_obs::DiffMode::Full)
            {
                panic!("{threads}-thread storm sweep trace diverges:\n{report}");
            }
            if let Some(diff) = serial.metrics.first_difference(&parallel.metrics) {
                panic!("{threads}-thread storm sweep metrics diverge: {diff}");
            }
        }
    }
}
