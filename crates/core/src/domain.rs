//! The save supervisor: triaged, staged saves for the heaps of **one**
//! power domain — the one executor of every staged save.
//!
//! A brown-out gives every shard's flush a claim on the same pool of
//! joules ([`PowerDomain`]), and the supervisor must *choose*. A single
//! node is that pool with one consumer: [`PowerDomain::private`] is the
//! machine's own PSU, its window the machine's residual window, its one
//! region the whole pool with no control prefix, so the shard's arm is
//! the only arm and its markers are the words [`crate::restore`] reads;
//! [`node_save`] saves one heap over it. [`domain_save`] runs the choice:
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
//!    the control region's (shared domains only), is one save command:
//!    one durable event of the [`PowerCut`] armed on the pool. A shard
//!    is durable exactly from its seal onward — a power failure before
//!    its arm, or a module whose DRAM→flash copy tears, leaves that
//!    shard with *no* trusted marker in flash, never a torn image taken
//!    for a whole one.
//!
//! Every verdict is typed and every sacrifice carries a refusal: the
//! contract is the supervisor's "never a silent tear", applied
//! fleet-wide under contention.
//!
//! [`NvramPool::save_range_within`]: wsp_nvram::NvramPool::save_range_within
//! [`PowerCut`]: wsp_power::PowerCut

use wsp_machine::{Machine, SystemLoad};
use wsp_nvram::{NvramError, RegionMap};
use wsp_obs as obs;
use wsp_pheap::PersistentHeap;
use wsp_power::{PowerDomain, PwrOkSample, PwrOkVerdict};
use wsp_units::Nanos;

use crate::feasibility::{pool_save_feasibility, SaveFeasibility};
use crate::layout;
use crate::save::save_contexts;
use crate::supervisor::{bulk_flush, detection, MARKER_COST, SAVE_ATTEMPTS};
use crate::WspError;

/// Pool modules a shared domain reserves for its control state (CPU
/// contexts, global markers) ahead of the shard regions. A private
/// domain reserves none: its one region starts at pool address 0.
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
    /// The trace was a glitch storm; nothing was touched on any shard:
    /// no flush, no marker, no flash wear, no ultracap discharge.
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
}

impl DomainBudget {
    /// The unconstrained budget.
    #[must_use]
    pub fn trusting() -> Self {
        DomainBudget { window_cap: None }
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
    /// Budget constraints.
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
    /// True once the control region (contexts, global state) was armed;
    /// for a private domain, once the shard's arm landed — from then on
    /// the modules finish on ultracapacitor power.
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
/// CPU contexts and, for a shared domain, the control-region arm.
pub(crate) fn fixed_need(machine: &Machine, domain: &PowerDomain) -> Nanos {
    let fixed = detection(machine) + machine.profile().context_save;
    if domain.is_private() {
        return fixed;
    }
    fixed + machine.monitor().i2c_command_latency
}

/// One shard's window needs in the triage, given its `share` of the
/// bulk flush: a full save (stage A, the share, marker and region arm)
/// and a priority-only save (stage A, marker and arm).
pub(crate) fn shard_needs(
    machine: &Machine,
    heap: &PersistentHeap,
    share: Nanos,
) -> (Nanos, Nanos) {
    let partial = heap.priority_flush_cost() + MARKER_COST + machine.monitor().i2c_command_latency;
    (partial + share, partial)
}

/// Runs the triaged, staged domain save. Mutates `machine` (contexts,
/// region markers, region arms) and each heap (priority lines flushed)
/// exactly as far as the budget allows — and no further. Once a cut
/// armed on the machine's pool has struck, every later arm is refused
/// and its shard sacrificed; the rest runs on, as the host does after a
/// cut (contexts and markers are DRAM stores the outage clears). Arm
/// the heaps with the same cut to make stage A's flushes events too.
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
/// Panics when `staleness.len() != heaps.len()`, when a private domain
/// is given other than one heap, or when the machine's pool cannot give
/// every shard a module past the control prefix.
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
    // The layout follows the domain, never the shard count: a one-shard
    // *shared* domain still reserves its control prefix and arms it.
    let private = domain.is_private();
    assert!(
        !private || shard_count == 1,
        "a private domain saves one heap"
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
        machine.nvram().cut().map_or(-1, |cut| cut.events() as i64),
    );

    let control = if private { 0 } else { DOMAIN_CONTROL_MODULES };
    let regions = RegionMap::partition(machine.nvram(), shard_count, control);
    let arm_cost = machine.monitor().i2c_command_latency;
    let contexts_cost = machine.profile().context_save;

    // Feasibility + triage plan. The needs are priced from the cache
    // model — planning clones no heap and costs no trace events.
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
    let fixed = fixed_need(machine, domain);
    let mut remaining = window.saturating_sub(fixed);
    let mut full_demand = fixed;
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
        remaining = remaining.saturating_sub(granted);
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
                  backoff: Nanos| {
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
        return Ok(finish(used, shards, triage, false, 0, Nanos::ZERO));
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

        // Stage A on the live heap (the triage priced this very flush,
        // so the cost matches); stage B is charged only for full grants.
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
                armed |= private;
                if let Some(torn) = r.outcomes.iter().position(|o| !o.completed) {
                    // The feasibility gate makes this unreachable for
                    // honest cells, but a cell that lies about its charge
                    // still ends in a typed sacrifice, not a seal.
                    let module = region.modules.start + torn;
                    let refusal = WspError::TornImage {
                        detail: format!("module {module} browned out during its DRAM→flash copy"),
                    };
                    sacrifice(&mut shards[shard], refusal, used);
                    continue;
                }
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
            Err(NvramError::PowerFailed) => {
                // Flushed and marked, but the marker never reaches flash:
                // an honest sacrifice, not a tear — nothing attests to
                // this region, so recovery will not trust it.
                let refusal = WspError::WindowExhausted {
                    needed: arm_cost,
                    window: Nanos::ZERO,
                };
                sacrifice(&mut shards[shard], refusal, used);
            }
            // A failed command still spent its retries' backoff.
            Err(NvramError::RetryWindowExhausted {
                needed,
                budget,
                retries: r,
                backoff: b,
                ..
            }) => {
                used += arm_cost + b;
                retries += r;
                backoff += b;
                let refusal = WspError::WindowExhausted {
                    needed,
                    window: budget,
                };
                sacrifice(&mut shards[shard], refusal, used);
            }
            Err(err @ NvramError::SaveCommandFailed { retries: r, backoff: b, .. }) => {
                used += arm_cost + b;
                retries += r;
                backoff += b;
                sacrifice(&mut shards[shard], WspError::Nvram(err), used);
            }
            Err(other) => return Err(other.into()),
        }
    }

    // Last, arm a shared domain's control region (contexts + global
    // state); a private domain's contexts sit in its one region.
    if !private && used + arm_cost <= window {
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
            // Power failed first: the command cost nothing.
            Err(NvramError::PowerFailed) => {}
            Err(
                NvramError::RetryWindowExhausted {
                    retries: r,
                    backoff: b,
                    ..
                }
                | NvramError::SaveCommandFailed {
                    retries: r,
                    backoff: b,
                    ..
                },
            ) => {
                used += arm_cost + b;
                retries += r;
                backoff += b;
            }
            Err(other) => return Err(other.into()),
        }
    }

    for core in machine.cores_mut().iter_mut() {
        core.halted = true;
    }
    Ok(finish(used, shards, triage, armed, retries, backoff))
}

/// One node's save: [`domain_save`] of `heap` over the machine's
/// private domain (its own PSU at its draw under `load`), so the window
/// is `machine.residual_window(load)` and the shard's region is the
/// whole pool under the markers `restore` reads. The node's verdict is
/// `report.shards[0]` (or [`DomainVerdict::GlitchIgnored`]).
///
/// # Errors
///
/// As [`domain_save`].
pub fn node_save(
    machine: &mut Machine,
    heap: &mut PersistentHeap,
    load: SystemLoad,
    trace: &[PwrOkSample],
    budget: DomainBudget,
) -> Result<DomainSaveReport, WspError> {
    let mut domain = PowerDomain::private(machine.psu().clone(), machine.power_draw(load));
    domain_save(DomainInput {
        machine,
        domain: &mut domain,
        heaps: std::slice::from_mut(heap),
        staleness: &[Nanos::ZERO],
        load,
        trace,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsp_pheap::HeapConfig;
    use wsp_power::{PowerCut, Psu, Ultracapacitor};
    use wsp_units::{ByteSize, Farads, Volts, Watts};

    use crate::supervisor::{clean_failure_trace, priority_stage_window, PARTIAL_STAGE_SLACK};
    use crate::{restore, RestartStrategy};

    fn storm_domain(shards: usize) -> PowerDomain {
        let reserve =
            Ultracapacitor::new(Farads::new(0.5), Volts::new(12.0), Volts::new(6.0));
        PowerDomain::new(Psu::atx_750w(), reserve, Watts::new(300.0), shards)
    }

    fn loaded_machine() -> Machine {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        machine
    }

    fn private_domain(machine: &Machine) -> PowerDomain {
        PowerDomain::private(machine.psu().clone(), machine.power_draw(SystemLoad::Busy))
    }

    fn marker(machine: &Machine, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        machine.nvram().read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// A busy-load [`node_save`] of `heap` (fresh clean trace), capped
    /// at `window_cap`.
    fn private_save(
        machine: &mut Machine,
        heap: &mut PersistentHeap,
        window_cap: Option<Nanos>,
    ) -> DomainSaveReport {
        let budget = DomainBudget { window_cap };
        node_save(machine, heap, SystemLoad::Busy, &clean_failure_trace(), budget)
            .expect("verdict, not error")
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

    /// A heap with committed words on eight lines and a transaction
    /// left open over a fresh allocation: stage A has lines to flush.
    fn dirty_heap(config: HeapConfig) -> PersistentHeap {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut tx = heap.begin();
        let root = tx.alloc(8 * 64).unwrap();
        for k in 0..8 {
            tx.write_word(root.byte_offset(64 * k), 0x5A00 + k).unwrap();
        }
        tx.set_root(root).unwrap();
        tx.commit().unwrap();
        let mut tx = heap.begin();
        let open = tx.alloc(16).unwrap();
        tx.write_word(open, 0xDEAD).unwrap();
        std::mem::forget(tx); // power fails with the transaction open
        heap
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
        let machine = loaded_machine();
        let cap = fixed_need(&machine, &storm_domain(3))
            + probe.triage[1].full_need
            + probe.triage[2].partial_need;
        let (report, _) = save_with(
            DomainBudget {
                window_cap: Some(cap),
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

    /// One save of `heaps` over a copy of `domain` capped at
    /// `window_cap`, with `cut` (if any) armed on the pool and every
    /// heap; then power fails and the machine comes back. Returns the
    /// report and, per shard, the markers its region's flash image
    /// restores (`None` without an image).
    fn save_then_restore(
        heaps: &[PersistentHeap],
        domain: &PowerDomain,
        window_cap: Option<Nanos>,
        cut: Option<&Arc<PowerCut>>,
    ) -> (DomainSaveReport, Vec<Option<(u64, u64)>>) {
        let mut machine = loaded_machine();
        let mut heaps = heaps.to_vec();
        if let Some(cut) = cut {
            machine.nvram_mut().arm(cut);
            heaps.iter_mut().for_each(|h| h.arm(cut));
        }
        let staleness = [Nanos::ZERO, Nanos::from_millis(9), Nanos::from_millis(5)];
        let staleness = &staleness[..heaps.len()];
        let report = domain_save(DomainInput {
            machine: &mut machine,
            domain: &mut domain.clone(),
            heaps: &mut heaps,
            staleness,
            load: SystemLoad::Busy,
            trace: &clean_failure_trace(),
            budget: DomainBudget { window_cap },
        })
        .expect("verdict, not error");
        let control = if domain.is_private() {
            0
        } else {
            DOMAIN_CONTROL_MODULES
        };
        let regions = RegionMap::partition(machine.nvram(), heaps.len(), control);
        machine.system_power_loss();
        machine.system_power_on();
        let markers = regions
            .regions()
            .iter()
            .map(|region| {
                let dimms = &mut machine.nvram_mut().dimms_mut()[region.modules.clone()];
                dimms.iter_mut().all(|d| d.restore().is_ok()).then(|| {
                    (
                        marker(&machine, region.marker_addr()),
                        marker(&machine, region.partial_marker_addr()),
                    )
                })
            })
            .collect();
        (report, markers)
    }

    /// Crashes a save of `heaps` over `domain` capped at `window_cap`
    /// before each of its durable events and after the last: every
    /// shard seals exactly when its arm lands, with the uncut verdict
    /// and marker; every other shard is a typed sacrifice with no marker
    /// in flash.
    fn crash_every_event(
        heaps: &[PersistentHeap],
        domain: &PowerDomain,
        window_cap: Option<Nanos>,
    ) {
        let (uncut, _) = save_then_restore(heaps, domain, window_cap, None);
        // Where each arm lands: ranks run in order, each flushing stage A
        // (its heap's own events) and then arming its region (one
        // event); a shared domain's control arm comes last.
        let mut arm_of = vec![None; heaps.len()];
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
        // The uncut save is durable, and the cuts below test a seal:
        // two shards (one for a private domain) land their arms.
        assert!(uncut.armed, "cap {window_cap:?}: the uncut save arms");
        assert!(
            arm_of.iter().flatten().count() >= heaps.len().min(2),
            "cap {window_cap:?}: too few shards seal uncut: {arm_of:?}"
        );
        let control = u64::from(!domain.is_private());
        let probe = PowerCut::never();
        let _ = save_then_restore(heaps, domain, window_cap, Some(&probe));
        let events = probe.events();
        assert_eq!(
            events,
            next + control,
            "cap {window_cap:?}: the control arm is last"
        );
        assert!(
            next > 1,
            "cap {window_cap:?}: stage A flushes lines before an arm"
        );
        for n in 0..=events {
            let at = format!("cap {window_cap:?} cut {n}/{events}");
            let (report, markers) =
                save_then_restore(heaps, domain, window_cap, Some(&PowerCut::after(n)));
            let armed = if domain.is_private() {
                arm_of[0].is_some_and(|arm| n > arm)
            } else {
                n > next
            };
            assert_eq!(report.armed, armed, "{at}");
            for s in &report.shards {
                let landed = arm_of[s.shard].is_some_and(|arm| n > arm);
                assert_eq!(
                    s.sealed, landed,
                    "{at}: shard {} seals with its arm",
                    s.shard
                );
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

    #[test]
    fn every_event_of_a_domain_save_is_a_crash_point() {
        // Shared: a transaction left open on each of three shards gives
        // stage A lines to flush. Trusting, and capped to one full save
        // plus one priority stage: the third shard is sacrificed by the
        // plan.
        let mut heaps = shard_fleet(3);
        for heap in &mut heaps {
            let mut tx = heap.begin();
            let p = tx.alloc(16).expect("room");
            tx.write_word(p, 0xDEAD).expect("writable");
            std::mem::forget(tx);
        }
        let machine = loaded_machine();
        let shared = storm_domain(3);
        let share = crate::supervisor::bulk_flush(&machine, SystemLoad::Busy, 3);
        let (full, partial) = shard_needs(&machine, &heaps[0], share);
        for window_cap in [None, Some(fixed_need(&machine, &shared) + full + partial)] {
            crash_every_event(&heaps, &shared, window_cap);
        }
        // Private: one node's FoF + UL or FoC + UL heap, trusting (a
        // complete save) and capped to its priority stage (a partial one).
        let private = private_domain(&machine);
        for config in [HeapConfig::FofUndo, HeapConfig::FocUndo] {
            let heap = dirty_heap(config);
            for window_cap in [None, Some(priority_stage_window(&machine, &heap))] {
                crash_every_event(std::slice::from_ref(&heap), &private, window_cap);
            }
        }
    }

    #[test]
    fn private_domain_saves_the_whole_pool_under_the_restore_markers() {
        let mut machine = loaded_machine();
        let mut heap = heap_with_root(7);
        let report = private_save(&mut machine, &mut heap, None);
        // The machine's own window, bit for bit, and no control arm.
        assert_eq!(report.window, machine.residual_window(SystemLoad::Busy));
        assert_eq!(report.shards[0].verdict, ShardVerdict::Complete);
        assert!(report.armed && report.shards[0].sealed);
        assert!(report.shards[0].stage_b > Nanos::ZERO);
        assert!(report.used <= report.window, "{report:?}");
        // The one region is every module from pool address 0, so the
        // region markers are the words `restore` reads.
        let region = RegionMap::partition(machine.nvram(), 1, 0)
            .region(0)
            .clone();
        assert_eq!(region.modules, 0..machine.nvram().dimms().len());
        assert_eq!(region.marker_addr(), layout::VALID_MARKER_ADDR);
        assert_eq!(region.partial_marker_addr(), layout::PARTIAL_MARKER_ADDR);
        assert!(machine.nvram().all_saved());
        assert!(machine.cores().iter().all(|c| c.halted));
        machine.system_power_loss();
        machine.system_power_on();
        restore(&mut machine, RestartStrategy::RestorePathReinit)
            .expect("a complete image resumes");
        // A one-shard *shared* domain keeps its control prefix and pays
        // its control arm: the layout follows the domain, not the count.
        let mut shared_machine = loaded_machine();
        let shared = domain_save(DomainInput {
            machine: &mut shared_machine,
            domain: &mut storm_domain(1),
            heaps: &mut [heap_with_root(7)],
            staleness: &[Nanos::ZERO],
            load: SystemLoad::Busy,
            trace: &clean_failure_trace(),
            budget: DomainBudget::trusting(),
        })
        .expect("verdict, not error");
        assert_eq!(shared.shards[0].verdict, ShardVerdict::Complete);
        assert_eq!(
            shared.used,
            report.used + shared_machine.monitor().i2c_command_latency,
            "exactly one control arm more"
        );
    }

    #[test]
    fn priority_stage_window_is_the_partial_boundary() {
        // Without the slack, the priority-stage window is exactly what a
        // partial save costs: every term of the shared plan counts, so
        // one nanosecond less must refuse, leaving no marker anywhere.
        let save_at = |shortfall: Nanos| {
            let mut machine = loaded_machine();
            let mut heap = heap_with_root(7);
            let exact = priority_stage_window(&machine, &heap) - PARTIAL_STAGE_SLACK;
            let report = private_save(&mut machine, &mut heap, Some(exact - shortfall));
            machine.system_power_loss();
            machine.system_power_on();
            (
                report,
                restore(&mut machine, RestartStrategy::RestorePathReinit),
            )
        };
        let (report, restored) = save_at(Nanos::ZERO);
        assert_eq!(report.shards[0].verdict, ShardVerdict::PartialPriority);
        assert_eq!(report.used, report.window, "the plan priced the save it ran");
        assert!(report.armed);
        assert_eq!(report.shards[0].stage_b, Nanos::ZERO);
        assert!(
            matches!(restored, Err(WspError::PartialImage)),
            "{restored:?}"
        );
        let (short, restored) = save_at(Nanos::new(1));
        assert_eq!(short.shards[0].verdict, ShardVerdict::Sacrificed);
        assert!(
            matches!(
                short.shards[0].refusal,
                Some(WspError::WindowExhausted { .. })
            ),
            "{short:?}"
        );
        assert!(!short.armed);
        assert!(
            matches!(restored, Err(WspError::BackendRecoveryRequired { .. })),
            "no marker reaches flash: {restored:?}"
        );
    }

    #[test]
    fn a_failed_save_command_charges_the_backoff_it_spent() {
        // Two failed attempts, then success (a flake) or a third failure
        // (stuck): both spend 100 + 200 µs of backoff, and both charge it.
        let save = |failures| {
            let mut machine = loaded_machine();
            machine.nvram_mut().dimms_mut()[1].inject_save_command_faults(failures);
            private_save(&mut machine, &mut heap_with_root(7), None)
        };
        let (flake, stuck) = (save(2), save(u32::MAX));
        assert!(flake.shards[0].sealed && !stuck.shards[0].sealed);
        assert!(
            matches!(
                stuck.shards[0].refusal,
                Some(WspError::Nvram(NvramError::SaveCommandFailed { attempts: 3, .. }))
            ),
            "{stuck:?}"
        );
        for report in [&flake, &stuck] {
            assert_eq!((report.retries, report.backoff), (2, Nanos::from_micros(300)));
        }
        assert_eq!(stuck.used, flake.used, "the failed arm costs what the flaky one did");
    }

    #[test]
    fn drained_cell_is_refused_before_any_flash_wear() {
        let mut machine = loaded_machine();
        let cap = machine.nvram_mut().dimms_mut()[0].ultracap_mut();
        let _ = cap.discharge(Watts::new(1e6), Nanos::from_secs(3600));
        let wear_before = machine.nvram().dimms()[0].flash().health().pe_cycles;
        let report = private_save(&mut machine, &mut heap_with_root(7), None);
        assert!(
            matches!(&report.shards[0].refusal,
                Some(WspError::BackendRecoveryRequired { reason }) if reason.contains("infeasible")),
            "{report:?}"
        );
        assert!(!report.armed);
        assert_eq!(
            machine.nvram().dimms()[0].flash().health().pe_cycles,
            wear_before,
            "a refused save must not burn a program/erase cycle"
        );
    }

    #[test]
    fn partial_save_round_trips_through_log_replay() {
        let mut machine = loaded_machine();
        let mut heap = heap_with_root(4242);
        let window_cap = priority_stage_window(&machine, &heap);
        let report = private_save(&mut machine, &mut heap, Some(window_cap));
        assert_eq!(report.shards[0].verdict, ShardVerdict::PartialPriority);
        // No bulk flush ran, so the crash keeps only stage-A durability.
        let mut recovered = PersistentHeap::recover_partial(heap.crash(false)).unwrap();
        let root = recovered.root().expect("committed root survives stage A");
        let mut tx = recovered.begin();
        assert_eq!(tx.read_word(root).unwrap(), 4242);
        tx.commit().unwrap();
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
