//! The domain supervisor: triaged, staged saves for many heaps sharing
//! **one** power domain.
//!
//! The PR 3 supervisor budgets a single heap against a private residual
//! window. Under a shared NVDIMM power domain there is no private
//! window: a brown-out gives every shard's flush a claim on the same
//! pool of joules ([`PowerDomain`]), and the supervisor must *choose*.
//! [`domain_save`] runs that choice:
//!
//! 1. The `PWR_OK` trace is debounced once, domain-wide.
//! 2. Every shard is scored for **urgency** — in-doubt 2PC pins (losing
//!    a prepared shard forfeits votes other shards' outcomes depend
//!    on), staleness since its last complete save, and dirty-line debt
//!    — and ranked.
//! 3. The global window is carved greedily in rank order: a shard whose
//!    full save (priority flush + bulk `wbinvd` share + marker + region
//!    arm) fits gets [`ShardVerdict::Complete`]; one whose priority
//!    stage fits gets [`ShardVerdict::PartialPriority`]; the rest are
//!    [`ShardVerdict::Sacrificed`] with a typed
//!    [`WspError::WindowExhausted`] refusal. Priority lines flush first
//!    everywhere before any bulk stage runs.
//! 4. Execution seals shards one at a time: per-region marker, then a
//!    region-scoped NVDIMM arm ([`NvramPool::save_range_within`]) whose
//!    retry backoff is bounded by the remaining window. Each arm, and
//!    the control region's, is one durable event of the budget's
//!    [`PowerCut`]. A shard is durable exactly from its seal onward — a
//!    power failure before its arm leaves that shard with *no* marker in
//!    flash, never a torn one.
//!
//! Every verdict is typed and every sacrifice carries a refusal: the
//! contract is the supervisor's "never a silent tear", applied
//! fleet-wide under contention.
//!
//! [`NvramPool::save_range_within`]: wsp_nvram::NvramPool::save_range_within

use std::sync::Arc;

use wsp_machine::{Machine, SystemLoad};
use wsp_nvram::{NvramError, RegionMap};
use wsp_obs as obs;
use wsp_pheap::{PersistentHeap, PowerCut};
use wsp_power::{PowerDomain, PwrOkSample, PwrOkVerdict};
use wsp_units::Nanos;

use crate::feasibility::{pool_save_feasibility, SaveFeasibility};
use crate::layout;
use crate::save::save_contexts;
use crate::supervisor::{bulk_flush, detection, stage_a_probe, MARKER_COST, SAVE_ATTEMPTS};
use crate::WspError;

/// Pool modules reserved for the domain's control state (CPU contexts,
/// global markers) ahead of the shard regions.
pub const DOMAIN_CONTROL_MODULES: usize = 1;

/// Urgency weight of one in-doubt 2PC pin: a prepared-but-undecided
/// transaction is worth a millisecond of staleness — losing it blocks
/// other shards' recovery, not just this one's.
const PIN_WEIGHT: Nanos = Nanos::from_millis(1);

/// Urgency weight of one dirty heap line (committed but unflushed).
const LINE_WEIGHT: Nanos = Nanos::from_micros(1);

/// Per-shard triage verdict under the shared window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardVerdict {
    /// Priority flush, bulk flush and seal all fit: the shard's region
    /// holds a complete, resumable image.
    Complete,
    /// Only the priority stage fit; the region's PARTIAL marker is set
    /// and the shard recovers by log replay.
    PartialPriority,
    /// The window could not cover even the priority stage (or power
    /// failed before the shard's arm): the shard gets no durable image
    /// and a typed refusal — never an unmarked, torn one.
    Sacrificed,
}

impl ShardVerdict {
    /// Stable label for trace events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShardVerdict::Complete => "complete",
            ShardVerdict::PartialPriority => "partial-priority",
            ShardVerdict::Sacrificed => "sacrificed",
        }
    }
}

/// One shard's triage score and plan, in rank order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTriage {
    /// Shard index.
    pub shard: usize,
    /// In-doubt 2PC pins held at triage time.
    pub pins: u64,
    /// Committed-but-unflushed heap lines.
    pub dirty_lines: u64,
    /// Time since the shard's last complete save.
    pub staleness: Nanos,
    /// The combined urgency score the ranking sorted by.
    pub urgency: Nanos,
    /// Window cost of a full save (both stages + seal).
    pub full_need: Nanos,
    /// Window cost of a priority-only save (stage A + seal).
    pub partial_need: Nanos,
    /// What the plan granted from the shared window.
    pub planned: ShardVerdict,
}

/// One shard's executed outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSaveReport {
    /// Shard index.
    pub shard: usize,
    /// Rank the triage assigned (0 = most urgent, first to flush).
    pub rank: usize,
    /// Final verdict after execution (retry backoff can downgrade the
    /// plan, and a power cut can sacrifice it).
    pub verdict: ShardVerdict,
    /// Stage-A cost actually spent.
    pub stage_a: Nanos,
    /// Stage-B cost actually spent.
    pub stage_b: Nanos,
    /// True once the shard's region marker is stamped and its modules
    /// armed — the shard is durable from here, no matter what power
    /// does next.
    pub sealed: bool,
    /// The typed refusal behind a sacrifice.
    pub refusal: Option<WspError>,
}

/// How the domain save ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainVerdict {
    /// The trace was a glitch storm; nothing was touched on any shard.
    GlitchIgnored {
        /// Sub-threshold dips observed.
        dips: u32,
        /// The longest dip.
        longest_dip: Nanos,
    },
    /// The outage was real and the triage ran; per-shard verdicts are
    /// in [`DomainSaveReport::shards`].
    Triaged,
}

/// Budget constraints for a domain save.
#[derive(Debug, Clone, Default)]
pub struct DomainBudget {
    /// Caps the global window below the measured value.
    pub window_cap: Option<Nanos>,
    /// The power cut the save runs under: every region arm and the
    /// control arm is one durable event of it, and a cut that has
    /// struck refuses the arm. Arm the heaps with the same cut to make
    /// stage A's flushes events too.
    pub cut: Option<Arc<PowerCut>>,
}

impl DomainBudget {
    /// The unconstrained budget.
    #[must_use]
    pub fn trusting() -> Self {
        DomainBudget {
            window_cap: None,
            cut: None,
        }
    }
}

/// Everything a domain save needs, borrowed in one bundle.
pub struct DomainInput<'a> {
    /// The machine whose pool holds every shard's region.
    pub machine: &'a mut Machine,
    /// The shared power domain the window comes from.
    pub domain: &'a mut PowerDomain,
    /// The shards, in shard order.
    pub heaps: &'a mut [PersistentHeap],
    /// Per-shard time since the last complete save.
    pub staleness: &'a [Nanos],
    /// Load level (sets draw and the bulk-flush estimate).
    pub load: SystemLoad,
    /// The `PWR_OK` trace that triggered the save.
    pub trace: &'a [PwrOkSample],
    /// Budget constraints and injected cuts.
    pub budget: DomainBudget,
}

/// The domain save's full account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSaveReport {
    /// How the save ended.
    pub verdict: DomainVerdict,
    /// The global window the triage budgeted against.
    pub window: Nanos,
    /// Wall clock consumed.
    pub used: Nanos,
    /// Shortfall of the window against full saves everywhere (zero when
    /// every shard fit [`ShardVerdict::Complete`]).
    pub deficit: Nanos,
    /// Triage scores in rank order (most urgent first).
    pub triage: Vec<ShardTriage>,
    /// Per-shard outcomes in *shard* order.
    pub shards: Vec<ShardSaveReport>,
    /// True once the control region (contexts, global state) was armed.
    pub armed: bool,
    /// Save-command retries absorbed across all region arms.
    pub retries: u32,
    /// Simulated time spent in retry backoff.
    pub backoff: Nanos,
}

impl DomainSaveReport {
    /// Shards by final verdict.
    #[must_use]
    pub fn count(&self, verdict: ShardVerdict) -> usize {
        self.shards.iter().filter(|s| s.verdict == verdict).count()
    }
}

/// The triage's fixed need ahead of every shard: outage detection, the
/// CPU contexts and the control-region arm.
pub(crate) fn fixed_need(machine: &Machine) -> Nanos {
    detection(machine) + machine.profile().context_save + machine.monitor().i2c_command_latency
}

/// One shard's window needs in the triage, given its `share` of the
/// bulk flush: a full save (stage A, the share, marker and region arm)
/// and a priority-only save (stage A, marker and arm).
pub(crate) fn shard_needs(
    machine: &Machine,
    heap: &PersistentHeap,
    share: Nanos,
) -> (Nanos, Nanos) {
    let partial = stage_a_probe(heap) + MARKER_COST + machine.monitor().i2c_command_latency;
    (partial + share, partial)
}

/// Runs the triaged, staged domain save. Mutates `machine` (contexts,
/// region markers, region arms), `domain` (reservation scopes) and each
/// heap (priority lines flushed) exactly as far as the budget allows —
/// and no further. Once the budget's cut has struck, every later arm is
/// refused and its shard sacrificed; the rest runs on, as the host does
/// after a cut (contexts and markers are DRAM stores the outage clears).
///
/// # Errors
///
/// [`WspError::Monitor`] for a malformed `PWR_OK` trace and
/// [`WspError::Nvram`] for an unusable pool (module powered off).
/// Window shortfalls, sacrifices and command failures are typed
/// verdicts inside the report, not errors.
///
/// # Panics
///
/// Panics when `staleness.len() != heaps.len()` or the machine's pool
/// cannot give every shard a module past the control prefix.
#[allow(clippy::too_many_lines)]
pub fn domain_save(input: DomainInput<'_>) -> Result<DomainSaveReport, WspError> {
    let DomainInput {
        machine,
        domain,
        heaps,
        staleness,
        load,
        trace,
        budget,
    } = input;
    let shard_count = heaps.len();
    assert_eq!(
        staleness.len(),
        shard_count,
        "one staleness entry per shard"
    );
    // Debounce, domain-wide. A glitch touches nothing.
    match machine.monitor().classify_pwr_ok(trace)? {
        PwrOkVerdict::Glitch { dips, longest_dip } => {
            obs::emit(
                "domain",
                "glitch_ignored",
                longest_dip,
                i64::from(dips),
                longest_dip.as_nanos() as i64,
            );
            obs::count(obs::Ctr::GlitchesIgnored);
            return Ok(DomainSaveReport {
                verdict: DomainVerdict::GlitchIgnored { dips, longest_dip },
                window: Nanos::ZERO,
                used: Nanos::ZERO,
                deficit: Nanos::ZERO,
                triage: Vec::new(),
                shards: Vec::new(),
                armed: false,
                retries: 0,
                backoff: Nanos::ZERO,
            });
        }
        PwrOkVerdict::PowerFail { .. } => {}
    }

    // Every arm is a durable event of the cut: it lands, or power has
    // failed before it.
    let lands = || budget.cut.as_ref().is_none_or(|cut| cut.land());

    // The *global* window: one number for the whole fleet.
    let measured = domain.global_window();
    let window = budget.window_cap.map_or(measured, |cap| cap.min(measured));
    let mut used = detection(machine);
    obs::gauge_set(obs::Gauge::ResidualWindow, window.as_nanos() as i64);
    obs::emit(
        "domain",
        "outage_detected",
        used,
        window.as_nanos() as i64,
        budget.cut.as_ref().map_or(-1, |cut| cut.events() as i64),
    );

    let regions = RegionMap::partition(machine.nvram(), shard_count, DOMAIN_CONTROL_MODULES);
    let arm_cost = machine.monitor().i2c_command_latency;
    let contexts_cost = machine.profile().context_save;

    // Feasibility + triage plan. The scores and needs are
    // probed on clones — planning costs no trace events.
    let infeasible = match pool_save_feasibility(machine.nvram()) {
        SaveFeasibility::Degraded { reason } => Some(reason),
        _ => None,
    };
    let stage_b_share = bulk_flush(machine, load, shard_count);
    let mut triage: Vec<ShardTriage> = heaps
        .iter()
        .enumerate()
        .map(|(shard, heap)| {
            let pins = heap.in_doubt_pins();
            let dirty_lines = heap.unflushed_line_count();
            let (full_need, partial_need) = shard_needs(machine, heap, stage_b_share);
            let urgency = (PIN_WEIGHT * pins)
                .saturating_add(staleness[shard])
                .saturating_add(LINE_WEIGHT * dirty_lines);
            ShardTriage {
                shard,
                pins,
                dirty_lines,
                staleness: staleness[shard],
                urgency,
                full_need,
                partial_need,
                planned: ShardVerdict::Sacrificed,
            }
        })
        .collect();
    // Most urgent first; shard index breaks ties deterministically.
    triage.sort_by(|a, b| b.urgency.cmp(&a.urgency).then(a.shard.cmp(&b.shard)));

    // Greedy carve: priority stages are cheap and flush first
    // everywhere, so grant them in rank order; bulk stages only for
    // shards whose full need still fits.
    let fixed = fixed_need(machine);
    let mut remaining = window.saturating_sub(fixed);
    let mut full_demand = fixed;
    domain.release_all();
    for t in &mut triage {
        full_demand = full_demand.saturating_add(t.full_need);
        if infeasible.is_some() {
            continue; // every shard stays Sacrificed
        }
        let (granted, verdict) = if t.full_need <= remaining {
            (t.full_need, ShardVerdict::Complete)
        } else if t.partial_need <= remaining {
            (t.partial_need, ShardVerdict::PartialPriority)
        } else {
            (Nanos::ZERO, ShardVerdict::Sacrificed)
        };
        if verdict != ShardVerdict::Sacrificed {
            remaining = remaining.saturating_sub(granted);
            domain.reserve_for(t.shard, granted);
        }
        t.planned = verdict;
    }
    let deficit = full_demand.saturating_sub(window);
    obs::gauge_set(obs::Gauge::WindowDeficit, deficit.as_nanos() as i64);
    obs::count(obs::Ctr::DomainTriageRuns);
    for (rank, t) in triage.iter().enumerate() {
        obs::emit_detail(
            "domain",
            "triage",
            used,
            t.shard as i64,
            rank as i64,
            t.planned.label().into(),
        );
    }

    let mut shards: Vec<ShardSaveReport> = (0..shard_count)
        .map(|shard| ShardSaveReport {
            shard,
            rank: triage.iter().position(|t| t.shard == shard).expect("ranked"),
            verdict: ShardVerdict::Sacrificed,
            stage_a: Nanos::ZERO,
            stage_b: Nanos::ZERO,
            sealed: false,
            refusal: None,
        })
        .collect();
    let mut retries = 0u32;
    let mut backoff = Nanos::ZERO;
    let mut armed = false;

    let finish = |used: Nanos,
                  shards: Vec<ShardSaveReport>,
                  triage: Vec<ShardTriage>,
                  armed: bool,
                  retries: u32,
                  backoff: Nanos,
                  domain: &mut PowerDomain| {
        let sacrificed = shards
            .iter()
            .filter(|s| s.verdict == ShardVerdict::Sacrificed)
            .count();
        obs::count_by(obs::Ctr::ShardsSacrificed, sacrificed as u64);
        obs::observe(obs::Hist::DomainUsed, used);
        obs::emit(
            "domain",
            "save_done",
            used,
            (shards.len() - sacrificed) as i64,
            sacrificed as i64,
        );
        domain.release_all();
        DomainSaveReport {
            verdict: DomainVerdict::Triaged,
            window,
            used,
            deficit,
            triage,
            shards,
            armed,
            retries,
            backoff,
        }
    };
    let sacrifice = |report: &mut ShardSaveReport, refusal: WspError, used: Nanos| {
        obs::emit_detail(
            "domain",
            "shard_sacrificed",
            used,
            report.shard as i64,
            0,
            refusal.kind().to_string(),
        );
        report.verdict = ShardVerdict::Sacrificed;
        report.refusal = Some(refusal);
    };

    if let Some(reason) = infeasible {
        for s in &mut shards {
            s.refusal = Some(WspError::BackendRecoveryRequired {
                reason: format!("NVDIMM save infeasible: {reason}"),
            });
        }
        return Ok(finish(used, shards, triage, false, 0, Nanos::ZERO, domain));
    }

    // Contexts — cheapest, most valuable bytes first.
    let core_count = save_contexts(machine);
    used += contexts_cost;
    obs::emit(
        "domain",
        "contexts_saved",
        used,
        core_count as i64,
        contexts_cost.as_nanos() as i64,
    );

    // Per rank: flush, then seal.
    for (rank, t) in triage.iter().enumerate() {
        let (shard, planned) = (t.shard, t.planned);
        if planned == ShardVerdict::Sacrificed {
            let refusal = WspError::WindowExhausted {
                needed: t.partial_need,
                window: window.saturating_sub(used),
            };
            sacrifice(&mut shards[shard], refusal, used);
            continue;
        }

        // Stage A on the live heap (the plan probed a clone, so the
        // cost matches); stage B is charged only for full grants.
        let stage_a = heaps[shard].priority_flush();
        used += stage_a;
        shards[shard].stage_a = stage_a;
        let mut verdict = planned;
        if verdict == ShardVerdict::Complete {
            // Retry backoff upstream may have eaten the bulk share;
            // downgrade rather than overrun.
            if used + stage_b_share + MARKER_COST + arm_cost <= window {
                used += stage_b_share;
                shards[shard].stage_b = stage_b_share;
            } else {
                verdict = ShardVerdict::PartialPriority;
            }
        }
        obs::emit_detail(
            "domain",
            "shard_flushed",
            used,
            shard as i64,
            (stage_a + shards[shard].stage_b).as_nanos() as i64,
            verdict.label().into(),
        );

        if used + MARKER_COST + arm_cost > window {
            let refusal = WspError::WindowExhausted {
                needed: MARKER_COST + arm_cost,
                window: window.saturating_sub(used),
            };
            sacrifice(&mut shards[shard], refusal, used);
            continue;
        }
        let region = regions.region(shard);
        if verdict == ShardVerdict::Complete {
            machine
                .nvram_mut()
                .write(region.marker_addr(), &layout::VALID_MAGIC.to_le_bytes());
        } else {
            machine.nvram_mut().write(
                region.partial_marker_addr(),
                &layout::PARTIAL_MAGIC.to_le_bytes(),
            );
        }
        used += MARKER_COST;
        if !lands() {
            // Flushed and marked, but the marker never reaches flash:
            // an honest sacrifice, not a tear — nothing attests to this
            // region, so recovery will not trust it.
            let refusal = WspError::WindowExhausted {
                needed: arm_cost,
                window: Nanos::ZERO,
            };
            sacrifice(&mut shards[shard], refusal, used);
            continue;
        }
        let arm_window = window.saturating_sub(used + arm_cost);
        match machine.nvram_mut().save_range_within(
            region.modules.clone(),
            SAVE_ATTEMPTS,
            arm_window,
        ) {
            Ok(r) => {
                used += arm_cost + r.backoff;
                retries += r.retries;
                backoff += r.backoff;
                shards[shard].sealed = true;
                shards[shard].verdict = verdict;
                obs::emit_detail(
                    "domain",
                    "shard_sealed",
                    used,
                    shard as i64,
                    rank as i64,
                    verdict.label().into(),
                );
            }
            Err(NvramError::RetryWindowExhausted { needed, budget, .. }) => {
                used += arm_cost;
                let refusal = WspError::WindowExhausted {
                    needed,
                    window: budget,
                };
                sacrifice(&mut shards[shard], refusal, used);
            }
            Err(NvramError::SaveCommandFailed { attempts }) => {
                used += arm_cost;
                let refusal = WspError::Nvram(NvramError::SaveCommandFailed { attempts });
                sacrifice(&mut shards[shard], refusal, used);
            }
            Err(other) => return Err(other.into()),
        }
    }

    // Last, arm the control region (contexts + global state).
    if used + arm_cost <= window && lands() {
        let arm_window = window.saturating_sub(used + arm_cost);
        match machine.nvram_mut().save_range_within(
            0..DOMAIN_CONTROL_MODULES,
            SAVE_ATTEMPTS,
            arm_window,
        ) {
            Ok(r) => {
                used += arm_cost + r.backoff;
                retries += r.retries;
                backoff += r.backoff;
                armed = true;
                obs::emit(
                    "domain",
                    "control_armed",
                    used,
                    r.retries as i64,
                    r.backoff.as_nanos() as i64,
                );
            }
            Err(
                NvramError::RetryWindowExhausted { .. } | NvramError::SaveCommandFailed { .. },
            ) => {
                used += arm_cost;
            }
            Err(other) => return Err(other.into()),
        }
    }

    for core in machine.cores_mut().iter_mut() {
        core.halted = true;
    }
    Ok(finish(used, shards, triage, armed, retries, backoff, domain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_pheap::HeapConfig;
    use wsp_power::{Psu, Ultracapacitor};
    use wsp_units::{ByteSize, Farads, Volts, Watts};

    use crate::supervisor::clean_failure_trace;

    fn storm_domain(shards: usize) -> PowerDomain {
        let reserve =
            Ultracapacitor::new(Farads::new(0.5), Volts::new(12.0), Volts::new(6.0));
        PowerDomain::new(Psu::atx_750w(), reserve, Watts::new(300.0), shards)
    }

    fn shard_fleet(n: usize) -> Vec<PersistentHeap> {
        (0..n)
            .map(|i| {
                let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo);
                let mut tx = heap.begin();
                let p = tx.alloc(8).expect("room");
                tx.write_word(p, 0xA0 + i as u64).expect("writable");
                tx.set_root(p).expect("root");
                tx.commit().expect("commit");
                heap
            })
            .collect()
    }

    fn save_with(
        budget: DomainBudget,
        staleness: &[Nanos],
    ) -> (DomainSaveReport, Vec<PersistentHeap>) {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut domain = storm_domain(3);
        let mut heaps = shard_fleet(3);
        let report = domain_save(DomainInput {
            machine: &mut machine,
            domain: &mut domain,
            heaps: &mut heaps,
            staleness,
            load: SystemLoad::Busy,
            trace: &clean_failure_trace(),
            budget,
        })
        .expect("verdict, not error");
        (report, heaps)
    }

    #[test]
    fn ample_window_completes_every_shard() {
        let (report, _) = save_with(DomainBudget::trusting(), &[Nanos::ZERO; 3]);
        assert_eq!(report.verdict, DomainVerdict::Triaged);
        assert_eq!(report.count(ShardVerdict::Complete), 3);
        assert!(report.armed);
        assert_eq!(report.deficit, Nanos::ZERO);
        assert!(report.shards.iter().all(|s| s.sealed && s.refusal.is_none()));
    }

    #[test]
    fn staleness_orders_the_triage() {
        let staleness = [Nanos::from_millis(1), Nanos::from_millis(9), Nanos::from_millis(5)];
        let (report, _) = save_with(DomainBudget::trusting(), &staleness);
        let ranks: Vec<usize> = report.triage.iter().map(|t| t.shard).collect();
        assert_eq!(ranks, vec![1, 2, 0], "most stale flushes first");
    }

    #[test]
    fn tight_window_triages_complete_partial_sacrificed() {
        // Window: fixed costs + shard 1's full save + shard 2's priority
        // stage — shard 0 (least stale) must be sacrificed, typed.
        let staleness = [Nanos::ZERO, Nanos::from_millis(9), Nanos::from_millis(5)];
        let probe = {
            let (mut report, _) = save_with(DomainBudget::trusting(), &staleness);
            report.triage.sort_by_key(|t| t.shard);
            report
        };
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let cap = fixed_need(&machine) + probe.triage[1].full_need + probe.triage[2].partial_need;
        let (report, _) = save_with(
            DomainBudget {
                window_cap: Some(cap),
                ..DomainBudget::trusting()
            },
            &staleness,
        );
        assert_eq!(report.shards[1].verdict, ShardVerdict::Complete);
        assert_eq!(report.shards[2].verdict, ShardVerdict::PartialPriority);
        assert_eq!(report.shards[0].verdict, ShardVerdict::Sacrificed);
        assert!(matches!(
            report.shards[0].refusal,
            Some(WspError::WindowExhausted { .. })
        ));
        assert!(report.deficit > Nanos::ZERO);
        assert!(report.shards[1].sealed && report.shards[2].sealed);
        assert!(!report.shards[0].sealed, "a sacrifice leaves no marker");
    }

    #[test]
    fn pins_outrank_staleness() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut domain = storm_domain(3);
        let mut heaps = shard_fleet(3);
        // Shard 0 holds an in-doubt prepared transaction; shard 2 is
        // merely stale.
        heaps[0]
            .prepare_distributed(1 << 48, &[(64, 7)])
            .expect("preparable");
        let staleness = [Nanos::ZERO, Nanos::ZERO, Nanos::from_micros(900)];
        let report = domain_save(DomainInput {
            machine: &mut machine,
            domain: &mut domain,
            heaps: &mut heaps,
            staleness: &staleness,
            load: SystemLoad::Busy,
            trace: &clean_failure_trace(),
            budget: DomainBudget::trusting(),
        })
        .expect("verdict");
        assert_eq!(
            report.triage[0].shard, 0,
            "a 2PC pin outweighs sub-millisecond staleness"
        );
        assert_eq!(report.triage[0].pins, 1);
    }

    /// One 3-shard save under `budget` with its cut (if any) armed on
    /// every heap too; then power fails and the machine comes back.
    /// Returns the report and, per shard, the markers its region's flash
    /// image restores (`None` without an image).
    fn save_then_restore(
        heaps: &[PersistentHeap],
        budget: DomainBudget,
    ) -> (DomainSaveReport, Vec<Option<(u64, u64)>>) {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut domain = storm_domain(3);
        let mut heaps = heaps.to_vec();
        if let Some(cut) = &budget.cut {
            heaps.iter_mut().for_each(|h| h.arm(cut));
        }
        let report = domain_save(DomainInput {
            machine: &mut machine,
            domain: &mut domain,
            heaps: &mut heaps,
            staleness: &[Nanos::ZERO, Nanos::from_millis(9), Nanos::from_millis(5)],
            load: SystemLoad::Busy,
            trace: &clean_failure_trace(),
            budget,
        })
        .expect("verdict, not error");
        let regions = RegionMap::partition(machine.nvram(), 3, DOMAIN_CONTROL_MODULES);
        machine.system_power_loss();
        machine.system_power_on();
        let markers = (0..3)
            .map(|shard| {
                let region = regions.region(shard);
                let dimms = &mut machine.nvram_mut().dimms_mut()[region.modules.clone()];
                dimms.iter_mut().all(|d| d.restore().is_ok()).then(|| {
                    let word = |addr| {
                        let mut buf = [0u8; 8];
                        machine.nvram().read(addr, &mut buf);
                        u64::from_le_bytes(buf)
                    };
                    (word(region.marker_addr()), word(region.partial_marker_addr()))
                })
            })
            .collect();
        (report, markers)
    }

    #[test]
    fn every_event_of_a_domain_save_is_a_crash_point() {
        // A transaction left open on each shard gives stage A lines to
        // flush.
        let mut heaps = shard_fleet(3);
        for heap in &mut heaps {
            let mut tx = heap.begin();
            let p = tx.alloc(16).expect("room");
            tx.write_word(p, 0xDEAD).expect("writable");
            std::mem::forget(tx);
        }
        let machine = Machine::intel_testbed();
        let share = {
            let mut loaded = machine.clone();
            loaded.apply_load(SystemLoad::Busy, 9);
            crate::supervisor::bulk_flush(&loaded, SystemLoad::Busy, 3)
        };
        let (full, partial) = shard_needs(&machine, &heaps[0], share);
        // Trusting, and capped to one full save plus one priority stage:
        // the third shard is sacrificed by the plan.
        for window_cap in [None, Some(fixed_need(&machine) + full + partial)] {
            let budget = |cut| DomainBudget { window_cap, cut };
            let (uncut, _) = save_then_restore(&heaps, budget(None));
            // Where each arm lands: ranks run in order, each flushing
            // stage A (its heap's own events) and then arming its region
            // (one event); the control arm comes last.
            let mut arm_of = [None; 3];
            let mut next = 0u64;
            for t in &uncut.triage {
                if t.planned != ShardVerdict::Sacrificed {
                    next += heaps[t.shard].durable_events(PersistentHeap::priority_flush);
                    if uncut.shards[t.shard].sealed {
                        arm_of[t.shard] = Some(next);
                        next += 1;
                    }
                }
            }
            let probe = PowerCut::never();
            let _ = save_then_restore(&heaps, budget(Some(Arc::clone(&probe))));
            assert_eq!(probe.events(), next + 1, "cap {window_cap:?}: the control arm is last");
            assert!(arm_of.iter().flatten().count() >= 2, "cap {window_cap:?}: {uncut:?}");
            for n in 0..=probe.events() {
                let at = format!("cap {window_cap:?} cut {n}/{}", probe.events());
                let (report, markers) = save_then_restore(&heaps, budget(Some(PowerCut::after(n))));
                assert_eq!(report.armed, n > next, "{at}");
                for s in &report.shards {
                    let landed = arm_of[s.shard].is_some_and(|arm| n > arm);
                    assert_eq!(s.sealed, landed, "{at}: shard {} seals with its arm", s.shard);
                    if s.sealed {
                        assert_eq!(s.verdict, uncut.shards[s.shard].verdict, "{at}");
                        let want = if s.verdict == ShardVerdict::Complete {
                            (layout::VALID_MAGIC, 0)
                        } else {
                            (0, layout::PARTIAL_MAGIC)
                        };
                        assert_eq!(markers[s.shard], Some(want), "{at}: shard {}", s.shard);
                    } else {
                        assert_eq!(s.verdict, ShardVerdict::Sacrificed, "{at}");
                        assert!(
                            matches!(s.refusal, Some(WspError::WindowExhausted { .. })),
                            "{at}: sacrifice of shard {} must be typed",
                            s.shard
                        );
                        assert_eq!(
                            markers[s.shard], None,
                            "{at}: no marker of shard {} reaches flash before its arm",
                            s.shard
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn glitch_storms_touch_nothing() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut domain = storm_domain(3);
        let mut heaps = shard_fleet(3);
        let report = domain_save(DomainInput {
            machine: &mut machine,
            domain: &mut domain,
            heaps: &mut heaps,
            staleness: &[Nanos::ZERO; 3],
            load: SystemLoad::Busy,
            trace: &crate::supervisor::glitch_storm_trace(4),
            budget: DomainBudget::trusting(),
        })
        .expect("verdict");
        assert!(matches!(report.verdict, DomainVerdict::GlitchIgnored { dips: 4, .. }));
        assert!(report.shards.is_empty());
        assert!(!machine.nvram().all_saved());
        assert!(machine.cores().iter().all(|c| !c.halted));
    }
}
