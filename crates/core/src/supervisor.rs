//! The degraded-mode save supervisor: an energy-budgeted, staged
//! version of the Figure-4 save path.
//!
//! The plain [`flush_on_fail_save`] assumes the measured residual
//! window is both *real* (power actually lasts that long) and *ample*
//! (the full cache flush fits). The supervisor drops both assumptions:
//!
//! 1. The `PWR_OK` trace is debounced first (§5.2's 250 µs detector):
//!    sub-threshold glitches are ignored without touching any state.
//! 2. The window is budgeted *before* anything is flushed. NVDIMM
//!    feasibility (aged ultracapacitors, [`pool_save_feasibility`]) is
//!    checked up front — an infeasible module save is refused, never
//!    attempted and torn.
//! 3. The flush is staged by priority. Stage A makes the register
//!    contexts and the persistent heap's log and metadata lines durable
//!    (cheap, microseconds); stage B is the bulk `wbinvd` writeback
//!    (milliseconds). If only stage A fits, the supervisor writes the
//!    **partial** marker instead of the valid marker: the image is
//!    honest about what it contains, and recovery takes the ladder's
//!    second rung (log replay) instead of resuming torn memory.
//! 4. The NVDIMM arm retries transient command failures with
//!    exponential backoff bounded by the remaining window
//!    ([`NvramPool::save_all_within`]): when every retry lands inside
//!    the same glitch storm the supervisor refuses with a typed
//!    [`WspError::WindowExhausted`] verdict instead of spinning the
//!    simulated clock past the power it does not have.
//!
//! Every downgrade is a typed verdict in the [`StagedSaveReport`];
//! nothing on this path panics.
//!
//! [`flush_on_fail_save`]: crate::flush_on_fail_save
//! [`pool_save_feasibility`]: crate::pool_save_feasibility
//! [`NvramPool::save_all_within`]: wsp_nvram::NvramPool::save_all_within

use wsp_cache::FlushMethod;
use wsp_machine::{CpuContext, Machine, SystemLoad};
use wsp_nvram::NvramError;
use wsp_obs as obs;
use wsp_pheap::PersistentHeap;
use wsp_power::{PwrOkSample, PwrOkVerdict};
use wsp_units::Nanos;

use crate::feasibility::{pool_save_feasibility, SaveFeasibility};
use crate::layout;
use crate::WspError;

/// How the supervised save ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveVerdict {
    /// The `PWR_OK` trace was a glitch storm, not an outage: the
    /// debounce filter swallowed it and **no state was touched** — no
    /// flush, no marker, no flash wear, no ultracap discharge.
    GlitchIgnored {
        /// Sub-threshold dips observed.
        dips: u32,
        /// The longest dip, all below the debounce threshold.
        longest_dip: Nanos,
    },
    /// Both stages fit: contexts, priority lines and the bulk flush are
    /// durable, the valid marker is set and the modules are armed — a
    /// full WSP resume is possible.
    Complete,
    /// Only stage A fit inside the budget: contexts and the heap's
    /// log/metadata lines are durable under the **partial** marker. A
    /// resume is impossible, but the heap recovers by log replay — a
    /// partial-but-recoverable image, never silent corruption.
    PartialPriority,
    /// Nothing durable was produced (the budget could not even cover
    /// the priority stage, power died mid-stage, the modules' cells
    /// cannot cover their saves, or the save command kept failing). No
    /// marker is set; recovery must come from the back end.
    Failed {
        /// Which budget or step failed.
        reason: String,
    },
}

impl SaveVerdict {
    /// True if the verdict left a durable (full or partial) image.
    #[must_use]
    pub fn durable(&self) -> bool {
        matches!(self, SaveVerdict::Complete | SaveVerdict::PartialPriority)
    }
}

/// Save-command attempts per module, for the supervised save and the
/// domain save alike: transient command failures are retried this many
/// times in all.
pub const SAVE_ATTEMPTS: u32 = 3;

/// Budget constraints for a supervised save, beyond the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaveBudget {
    /// Caps the residual window below the measured value (a conservative
    /// budget, or an injected window-shortfall fault).
    pub window_cap: Option<Nanos>,
    /// The instant power *actually* dies, when earlier than the window
    /// promises (an injected mid-save brown-out): any step that would
    /// finish after this instant does not execute.
    pub cut: Option<Nanos>,
}

impl SaveBudget {
    /// The unconstrained budget: trust the measured window (the save
    /// command is still retried up to [`SAVE_ATTEMPTS`] times).
    #[must_use]
    pub fn trusting() -> Self {
        SaveBudget {
            window_cap: None,
            cut: None,
        }
    }
}

/// The outcome of a supervised save attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedSaveReport {
    /// How the save ended.
    pub verdict: SaveVerdict,
    /// The window the supervisor budgeted against (measured residual
    /// window, capped by [`SaveBudget::window_cap`]).
    pub window: Nanos,
    /// Wall-clock consumed on the save path.
    pub used: Nanos,
    /// Cost of stage A (priority flush), [`Nanos::ZERO`] if not run.
    pub stage_a: Nanos,
    /// Cost of stage B (bulk flush), [`Nanos::ZERO`] if not run.
    pub stage_b: Nanos,
    /// Save-command retries absorbed by backoff.
    pub retries: u32,
    /// Simulated time spent in retry backoff.
    pub backoff: Nanos,
    /// True once the NVDIMM save command was accepted by every module —
    /// from then on the modules finish on ultracapacitor power.
    pub armed: bool,
}

/// True when a step starting at `now` and costing `cost` completes
/// before the injected brown-out `cut` (if any).
fn survives(now: Nanos, cost: Nanos, cut: Option<Nanos>) -> bool {
    cut.is_none_or(|c| now + cost <= c)
}

/// Simulated cost of stamping a save marker (one fenced NVRAM word).
pub(crate) const MARKER_COST: Nanos = Nanos::from_micros(1);

/// Scheduling slack a budget grants the priority stage beyond its
/// measured costs: jitter margin for detection variance and the shared
/// domain's triage bookkeeping. Together with [`MARKER_COST`] this
/// keeps the historical 60 µs of grace the single-shard ladder corpus
/// was recorded with, so the golden traces pin the same budgets.
pub const PARTIAL_STAGE_SLACK: Nanos = Nanos::from_micros(59);

/// The window a save needs to land *exactly* the priority stage for one
/// shard: outage detection, the CPU contexts, the shard's stage-A probe
/// (measured on a clone, off the trace), the marker, the arm command
/// and [`PARTIAL_STAGE_SLACK`].
///
/// Before the shared power domain, every sweep derived this inline from
/// a stale single-shard assumption — a private energy budget per heap
/// with a flat 60 µs of grace. The domain supervisor budgets per-shard
/// priority stages from one *global* window, so the formula lives here
/// once, with the marker and arm tail explicit.
#[must_use]
pub fn priority_stage_window(machine: &Machine, heap: &PersistentHeap) -> Nanos {
    let detection = machine.monitor().debounce
        + machine.monitor().interrupt_latency
        + machine.profile().ipi_latency;
    let stage_a_probe = {
        let mut probe = heap.clone();
        // Planning, not flushing: keep the probe's events and counters
        // out of the ambient recorder.
        let (cost, _hypothetical) = obs::capture(|| probe.priority_flush());
        cost
    };
    detection
        + machine.profile().context_save
        + stage_a_probe
        + MARKER_COST
        + machine.monitor().i2c_command_latency
        + PARTIAL_STAGE_SLACK
}

/// Runs the staged, energy-budgeted save. Mutates `machine` (contexts
/// written, markers set, modules armed) and `heap` (priority lines
/// flushed) exactly as far as the budget allows — and no further.
///
/// The fixed stage order is the soundness argument: contexts and the
/// heap's log/metadata lines (stage A) go first, bulk dirty lines
/// (stage B) second, the marker after the stages it attests to, and the
/// NVDIMM arm last. A truncation at any point leaves either a fully
/// attested image or no marker at all.
///
/// # Errors
///
/// [`WspError::Monitor`] if the `PWR_OK` trace is malformed, and
/// [`WspError::Nvram`] if the pool itself is in an unusable state (a
/// module powered off). Budget shortfalls and command failures are not
/// errors — they are [`SaveVerdict`]s, because the caller (the power
/// monitor's interrupt handler) has no one left to report to.
#[allow(clippy::too_many_lines)]
pub fn supervised_save(
    machine: &mut Machine,
    heap: &mut PersistentHeap,
    load: SystemLoad,
    trace: &[PwrOkSample],
    budget: SaveBudget,
) -> Result<StagedSaveReport, WspError> {
    let monitor = machine.monitor().clone();
    let profile = machine.profile().clone();

    // 1. Debounce. A glitch storm ends here with zero mutations.
    match monitor.classify_pwr_ok(trace)? {
        PwrOkVerdict::Glitch { dips, longest_dip } => {
            obs::emit(
                "supervisor",
                "glitch_ignored",
                longest_dip,
                i64::from(dips),
                longest_dip.as_nanos() as i64,
            );
            obs::count(obs::Ctr::GlitchesIgnored);
            return Ok(StagedSaveReport {
                verdict: SaveVerdict::GlitchIgnored { dips, longest_dip },
                window: Nanos::ZERO,
                used: Nanos::ZERO,
                stage_a: Nanos::ZERO,
                stage_b: Nanos::ZERO,
                retries: 0,
                backoff: Nanos::ZERO,
                armed: false,
            })
        }
        PwrOkVerdict::PowerFail { .. } => {}
    }

    // 2. Budget the window. The debounce interval is part of the spent
    // budget: the outage began when PWR_OK first dropped, not when the
    // detector fired.
    let measured = machine.residual_window(load);
    let window = budget.window_cap.map_or(measured, |cap| cap.min(measured));
    let cut = budget.cut;
    let mut used = monitor.debounce + monitor.interrupt_latency + profile.ipi_latency;
    obs::gauge_set(obs::Gauge::ResidualWindow, window.as_nanos() as i64);
    obs::emit(
        "supervisor",
        "outage_detected",
        used,
        window.as_nanos() as i64,
        cut.map_or(-1, |c| c.as_nanos() as i64),
    );

    let fail = |reason: String, used: Nanos, stage_a: Nanos, stage_b: Nanos| {
        obs::emit_detail("supervisor", "save_failed", used, 0, 0, reason.clone());
        obs::count(obs::Ctr::SupervisedFailed);
        obs::observe(obs::Hist::SupervisorUsed, used);
        StagedSaveReport {
            verdict: SaveVerdict::Failed { reason },
            window,
            used,
            stage_a,
            stage_b,
            retries: 0,
            backoff: Nanos::ZERO,
            armed: false,
        }
    };

    // 3. NVDIMM feasibility (Figure 1 aging vs Figure 2 demand): an
    // aged cell that cannot cover its save must surface as a refusal
    // here, never as a save that silently tears.
    if let SaveFeasibility::Degraded { reason } = pool_save_feasibility(machine.nvram()) {
        return Ok(fail(
            format!("NVDIMM save infeasible: {reason}"),
            used,
            Nanos::ZERO,
            Nanos::ZERO,
        ));
    }

    // 4. Plan. Stage A's cost is probed on a clone (the simulation's
    // stand-in for the supervisor's line-count bookkeeping); stage B is
    // the machine's bulk flush estimate.
    let stage_a_cost = {
        let mut probe = heap.clone();
        // The probe is planning, not flushing: capture-and-discard keeps
        // its events and counters out of the ambient recorder.
        let (cost, _hypothetical) = obs::capture(|| probe.priority_flush());
        cost
    };
    let stage_b_cost = machine
        .flush_analysis()
        .flush_time(FlushMethod::Wbinvd, machine.dirty_estimate(load));
    let contexts_cost = profile.context_save;
    let marker_cost = MARKER_COST;
    let arm_cost = monitor.i2c_command_latency;
    let tail = marker_cost + arm_cost;

    let full_fits = used + contexts_cost + stage_a_cost + stage_b_cost + tail <= window;
    let partial_fits = used + contexts_cost + stage_a_cost + tail <= window;
    if !partial_fits {
        return Ok(fail(
            format!(
                "window shortfall: {window} cannot cover even the priority stage \
                 ({} detection + {contexts_cost} contexts + {stage_a_cost} priority \
                 flush + {tail} marker/arm)",
                used
            ),
            used,
            Nanos::ZERO,
            Nanos::ZERO,
        ));
    }

    // 5. Stage: contexts first — they are the cheapest and the most
    // valuable bytes on the machine.
    if !survives(used, contexts_cost, cut) {
        return Ok(fail(
            "brown-out before contexts were durable".into(),
            used,
            Nanos::ZERO,
            Nanos::ZERO,
        ));
    }
    let contexts: Vec<(u32, CpuContext)> = machine
        .cores()
        .iter()
        .map(|c| (c.id, c.context))
        .collect();
    let core_count = contexts.len() as u64;
    machine
        .nvram_mut()
        .write(layout::CORE_COUNT_ADDR, &core_count.to_le_bytes());
    for (id, ctx) in &contexts {
        let addr = layout::CONTEXTS_BASE + u64::from(*id) * CpuContext::SIZE;
        machine.nvram_mut().write(addr, &ctx.to_bytes());
    }
    used += contexts_cost;
    obs::emit(
        "supervisor",
        "contexts_saved",
        used,
        core_count as i64,
        contexts_cost.as_nanos() as i64,
    );

    // 6. Stage A: heap log + metadata + committed-but-unflushed lines.
    if !survives(used, stage_a_cost, cut) {
        return Ok(fail(
            "brown-out during the priority flush".into(),
            used,
            Nanos::ZERO,
            Nanos::ZERO,
        ));
    }
    let stage_a = heap.priority_flush();
    used += stage_a;
    obs::emit(
        "supervisor",
        "stage_a_flushed",
        used,
        stage_a.as_nanos() as i64,
        0,
    );
    obs::observe(obs::Hist::StageA, stage_a);

    // 7. Stage B only if the plan said it fits.
    let mut stage_b = Nanos::ZERO;
    if full_fits {
        if !survives(used, stage_b_cost, cut) {
            // Stage A lines are flushed but no marker will ever attest
            // to them: the image stays unmarked and recovery falls back
            // to the back end — conservative, never corrupt.
            return Ok(fail(
                "brown-out during the bulk cache flush".into(),
                used,
                stage_a,
                Nanos::ZERO,
            ));
        }
        stage_b = stage_b_cost;
        used += stage_b;
        obs::emit(
            "supervisor",
            "stage_b_flushed",
            used,
            stage_b.as_nanos() as i64,
            0,
        );
        obs::observe(obs::Hist::StageB, stage_b);
    }

    // 8. Marker: VALID attests to both stages, PARTIAL to stage A only.
    if !survives(used, marker_cost, cut) {
        return Ok(fail(
            "brown-out before the image marker".into(),
            used,
            stage_a,
            stage_b,
        ));
    }
    if full_fits {
        machine
            .nvram_mut()
            .write(layout::VALID_MARKER_ADDR, &layout::VALID_MAGIC.to_le_bytes());
    } else {
        machine.nvram_mut().write(
            layout::PARTIAL_MARKER_ADDR,
            &layout::PARTIAL_MAGIC.to_le_bytes(),
        );
    }
    used += marker_cost;
    obs::emit_detail(
        "supervisor",
        "marker_written",
        used,
        i64::from(full_fits),
        0,
        if full_fits { "valid" } else { "partial" }.into(),
    );
    obs::count(if full_fits {
        obs::Ctr::ValidMarkers
    } else {
        obs::Ctr::PartialMarkers
    });

    // 9. Arm the modules, retrying transient command failures. The
    // marker written above only becomes durable if this step lands: the
    // flash image carries it.
    if !survives(used, arm_cost, cut) {
        return Ok(fail(
            "brown-out before the NVDIMM save command".into(),
            used,
            stage_a,
            stage_b,
        ));
    }
    // Retry backoff is bounded by what the window still holds after the
    // arm itself: a command that keeps flaking inside a glitch storm
    // must refuse, not spin simulated time past the outage.
    let arm_window = window.saturating_sub(used + arm_cost);
    let pool_report = match machine
        .nvram_mut()
        .save_all_within(SAVE_ATTEMPTS, arm_window)
    {
        Ok(r) => r,
        Err(NvramError::SaveCommandFailed { attempts }) => {
            return Ok(fail(
                format!("NVDIMM save command failed after {attempts} attempts"),
                used + arm_cost,
                stage_a,
                stage_b,
            ));
        }
        Err(NvramError::RetryWindowExhausted { needed, budget, .. }) => {
            let refusal = WspError::WindowExhausted {
                needed,
                window: budget,
            };
            return Ok(fail(refusal.to_string(), used + arm_cost, stage_a, stage_b));
        }
        Err(other) => return Err(other.into()),
    };
    used += arm_cost + pool_report.backoff;
    obs::emit(
        "supervisor",
        "modules_armed",
        used,
        pool_report.retries as i64,
        pool_report.backoff.as_nanos() as i64,
    );
    if let Some(torn) = pool_report.outcomes.iter().position(|o| !o.completed) {
        // Defensive: the feasibility gate makes this unreachable for
        // honest cells, but a cell that lies about its charge still
        // ends in a typed verdict, not a panic.
        let reason = format!("module {torn} browned out during its DRAM→flash copy");
        obs::emit_detail("supervisor", "save_failed", used, torn as i64, 0, reason.clone());
        obs::count(obs::Ctr::SupervisedFailed);
        obs::observe(obs::Hist::SupervisorUsed, used);
        return Ok(StagedSaveReport {
            verdict: SaveVerdict::Failed { reason },
            window,
            used,
            stage_a,
            stage_b,
            retries: pool_report.retries,
            backoff: pool_report.backoff,
            armed: true,
        });
    }

    for core in machine.cores_mut().iter_mut() {
        core.halted = true;
    }

    obs::emit_detail(
        "supervisor",
        "save_done",
        used,
        i64::from(full_fits),
        window.as_nanos() as i64,
        if full_fits { "complete" } else { "partial-priority" }.into(),
    );
    obs::count(if full_fits {
        obs::Ctr::SupervisedComplete
    } else {
        obs::Ctr::SupervisedPartial
    });
    obs::observe(obs::Hist::SupervisorUsed, used);
    Ok(StagedSaveReport {
        verdict: if full_fits {
            SaveVerdict::Complete
        } else {
            SaveVerdict::PartialPriority
        },
        window,
        used,
        stage_a,
        stage_b,
        retries: pool_report.retries,
        backoff: pool_report.backoff,
        armed: true,
    })
}

/// A clean power-failure trace: `PWR_OK` high at `t = 0`, low from
/// 100 µs on — the canonical outage the sweeps feed the supervisor.
#[must_use]
pub fn clean_failure_trace() -> Vec<PwrOkSample> {
    vec![
        PwrOkSample::new(Nanos::ZERO, true),
        PwrOkSample::new(Nanos::from_micros(100), false),
    ]
}

/// A glitch-storm trace: `dips` sub-threshold `PWR_OK` dips (each well
/// under the 250 µs debounce) with recoveries in between, ending high.
#[must_use]
pub fn glitch_storm_trace(dips: u32) -> Vec<PwrOkSample> {
    let mut samples = vec![PwrOkSample::new(Nanos::ZERO, true)];
    let mut t = Nanos::from_micros(50);
    for _ in 0..dips {
        samples.push(PwrOkSample::new(t, false));
        t += Nanos::from_micros(100); // dip lasts 100 µs < 250 µs debounce
        samples.push(PwrOkSample::new(t, true));
        t += Nanos::from_micros(300);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_pheap::HeapConfig;
    use wsp_units::{ByteSize, Watts};

    fn heap_with_root(value: u64) -> PersistentHeap {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FofUndo);
        let mut tx = heap.begin();
        let p = tx.alloc(16).unwrap();
        tx.write_word(p, value).unwrap();
        tx.set_root(p).unwrap();
        tx.commit().unwrap();
        heap
    }

    fn marker(machine: &Machine, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        machine.nvram().read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    #[test]
    fn clean_outage_completes_both_stages() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut heap = heap_with_root(7);
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget::trusting(),
        )
        .unwrap();
        assert_eq!(report.verdict, SaveVerdict::Complete);
        assert!(report.armed);
        assert!(report.stage_b > Nanos::ZERO);
        assert!(report.used <= report.window, "{report:?}");
        assert!(machine.nvram().all_saved());
        assert!(machine.cores().iter().all(|c| c.halted));
        // The marker is only readable through the flash image: cycle
        // power and restore the modules first.
        machine.nvram_mut().power_loss();
        machine.nvram_mut().power_on();
        machine.nvram_mut().restore_all().unwrap();
        assert_eq!(marker(&machine, layout::VALID_MARKER_ADDR), layout::VALID_MAGIC);
    }

    #[test]
    fn glitch_storm_touches_nothing() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut heap = heap_with_root(7);
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &glitch_storm_trace(6),
            SaveBudget::trusting(),
        )
        .unwrap();
        assert!(matches!(
            report.verdict,
            SaveVerdict::GlitchIgnored { dips: 6, .. }
        ));
        assert!(!report.armed);
        assert_eq!(marker(&machine, layout::VALID_MARKER_ADDR), 0);
        assert_eq!(marker(&machine, layout::PARTIAL_MARKER_ADDR), 0);
        assert!(!machine.nvram().all_saved());
        assert!(machine.cores().iter().all(|c| !c.halted));
    }

    #[test]
    fn tight_window_degrades_to_partial_priority_save() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut heap = heap_with_root(7);
        // Enough budget for detection + contexts + priority flush +
        // marker/arm, but nowhere near the multi-millisecond bulk flush.
        let detection = machine.monitor().debounce
            + machine.monitor().interrupt_latency
            + machine.profile().ipi_latency;
        let probe = {
            let mut p = heap.clone();
            p.priority_flush()
        };
        let window_cap = detection
            + machine.profile().context_save
            + probe
            + machine.monitor().i2c_command_latency
            + Nanos::from_micros(60);
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget {
                window_cap: Some(window_cap),
                ..SaveBudget::trusting()
            },
        )
        .unwrap();
        assert_eq!(report.verdict, SaveVerdict::PartialPriority, "{report:?}");
        assert!(report.armed);
        assert_eq!(report.stage_b, Nanos::ZERO);
        assert!(machine.nvram().all_saved(), "partial saves still arm the modules");
        machine.nvram_mut().power_loss();
        machine.nvram_mut().power_on();
        machine.nvram_mut().restore_all().unwrap();
        assert_eq!(marker(&machine, layout::VALID_MARKER_ADDR), 0);
        assert_eq!(
            marker(&machine, layout::PARTIAL_MARKER_ADDR),
            layout::PARTIAL_MAGIC
        );
    }

    #[test]
    fn hopeless_window_fails_without_markers() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut heap = heap_with_root(7);
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget {
                window_cap: Some(Nanos::from_micros(200)),
                ..SaveBudget::trusting()
            },
        )
        .unwrap();
        assert!(
            matches!(report.verdict, SaveVerdict::Failed { ref reason } if reason.contains("window shortfall")),
            "{report:?}"
        );
        assert!(!report.armed);
        assert_eq!(marker(&machine, layout::VALID_MARKER_ADDR), 0);
        assert_eq!(marker(&machine, layout::PARTIAL_MARKER_ADDR), 0);
        assert!(!machine.nvram().all_saved());
    }

    #[test]
    fn brown_out_mid_bulk_flush_leaves_no_marker() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut heap = heap_with_root(7);
        // Power actually dies halfway through stage B even though the
        // measured window promised room for all of it.
        let detection = machine.monitor().debounce
            + machine.monitor().interrupt_latency
            + machine.profile().ipi_latency;
        let stage_b = machine
            .flush_analysis()
            .flush_time(FlushMethod::Wbinvd, machine.dirty_estimate(SystemLoad::Busy));
        let cut = detection + machine.profile().context_save + stage_b / 2;
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget {
                cut: Some(cut),
                ..SaveBudget::trusting()
            },
        )
        .unwrap();
        assert!(
            matches!(report.verdict, SaveVerdict::Failed { ref reason } if reason.contains("brown-out")),
            "{report:?}"
        );
        assert!(!report.armed);
        assert_eq!(marker(&machine, layout::VALID_MARKER_ADDR), 0);
        assert_eq!(marker(&machine, layout::PARTIAL_MARKER_ADDR), 0);
    }

    #[test]
    fn drained_cell_is_refused_before_any_flash_wear() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let cap = machine.nvram_mut().dimms_mut()[0].ultracap_mut();
        let _ = cap.discharge(Watts::new(1e6), Nanos::from_secs(3600));
        let wear_before = machine.nvram().dimms()[0].flash().health().pe_cycles;
        let mut heap = heap_with_root(7);
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget::trusting(),
        )
        .unwrap();
        assert!(
            matches!(report.verdict, SaveVerdict::Failed { ref reason } if reason.contains("infeasible")),
            "{report:?}"
        );
        assert_eq!(
            machine.nvram().dimms()[0].flash().health().pe_cycles,
            wear_before,
            "a refused save must not burn a program/erase cycle"
        );
    }

    #[test]
    fn partial_save_round_trips_through_log_replay() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        let mut heap = heap_with_root(4242);
        let detection = machine.monitor().debounce
            + machine.monitor().interrupt_latency
            + machine.profile().ipi_latency;
        let probe = {
            let mut p = heap.clone();
            p.priority_flush()
        };
        let window_cap = detection
            + machine.profile().context_save
            + probe
            + machine.monitor().i2c_command_latency
            + Nanos::from_micros(60);
        let report = supervised_save(
            &mut machine,
            &mut heap,
            SystemLoad::Busy,
            &clean_failure_trace(),
            SaveBudget {
                window_cap: Some(window_cap),
                ..SaveBudget::trusting()
            },
        )
        .unwrap();
        assert_eq!(report.verdict, SaveVerdict::PartialPriority);
        // No bulk flush ran, so the crash keeps only stage-A durability.
        let mut recovered = PersistentHeap::recover_partial(heap.crash(false)).unwrap();
        let root = recovered.root().expect("committed root survives stage A");
        let mut tx = recovered.begin();
        assert_eq!(tx.read_word(root).unwrap(), 4242);
        tx.commit().unwrap();
    }
}
