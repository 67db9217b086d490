//! The flush-on-fail save routine: Figure 4 steps 1–8, raced against the
//! residual energy window. Its NVDIMM save command is a durable event
//! of the cut armed on the machine's pool
//! ([`NvramPool::arm`](wsp_nvram::NvramPool::arm)), which is how the
//! crash-point sweep engine fails power during it.

use wsp_cache::FlushMethod;
use wsp_machine::{CpuContext, Machine, SystemLoad};
use wsp_obs as obs;
use wsp_units::Nanos;

use crate::layout;
use crate::RestartStrategy;

/// One step of the save path (Figure 4, left column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveStep {
    /// Power monitor raises the interrupt on the control processor.
    PowerFailInterrupt,
    /// Control processor IPIs every other core.
    InterruptAllProcessors,
    /// ACPI device suspend — only under the strawman strategy.
    SuspendDevices,
    /// All cores save their register contexts to NVRAM (in parallel).
    SaveContexts,
    /// `wbinvd` writes every dirty line back (in parallel per socket).
    FlushCaches,
    /// Non-control cores halt.
    HaltOthers,
    /// Control core writes the resume block.
    SetupResumeBlock,
    /// Valid marker written and flushed.
    MarkImageValid,
    /// Save command relayed to the NVDIMMs over I2C.
    InitiateNvdimmSave,
    /// Control core halts; NVDIMMs finish on ultracap power.
    Halt,
}

impl SaveStep {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SaveStep::PowerFailInterrupt => "power-fail interrupt",
            SaveStep::InterruptAllProcessors => "IPI all processors",
            SaveStep::SuspendDevices => "ACPI device suspend",
            SaveStep::SaveContexts => "save CPU contexts",
            SaveStep::FlushCaches => "flush caches (wbinvd)",
            SaveStep::HaltOthers => "halt other processors",
            SaveStep::SetupResumeBlock => "set up resume block",
            SaveStep::MarkImageValid => "mark image valid",
            SaveStep::InitiateNvdimmSave => "initiate NVDIMM save",
            SaveStep::Halt => "halt",
        }
    }
}

/// The outcome of a flush-on-fail save attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct SaveReport {
    /// Each executed step with its cost, in order.
    pub steps: Vec<(SaveStep, Nanos)>,
    /// Total save-path time (from `PWR_OK` dropping).
    pub total: Nanos,
    /// The residual energy window at the prevailing load.
    pub window: Nanos,
    /// True if every step (through NVDIMM save initiation) fit inside
    /// the window.
    pub completed: bool,
    /// `total / window` (None if the window is unbounded).
    pub fraction_of_window: Option<f64>,
}

impl SaveReport {
    /// Time of the named step, if it ran.
    #[must_use]
    pub fn step_time(&self, step: SaveStep) -> Option<Nanos> {
        self.steps.iter().find(|(s, _)| *s == step).map(|&(_, t)| t)
    }
}

/// Writes the core count and every core's register context to the
/// NVDIMM pool (Figure 4's context-save step) and returns the core
/// count. The Figure-4 save and the domain save (private or shared)
/// both stage their contexts through here.
pub(crate) fn save_contexts(machine: &mut Machine) -> u64 {
    let contexts: Vec<(u32, CpuContext)> =
        machine.cores().iter().map(|c| (c.id, c.context)).collect();
    let core_count = contexts.len() as u64;
    machine
        .nvram_mut()
        .write(layout::CORE_COUNT_ADDR, &core_count.to_le_bytes());
    for (id, ctx) in &contexts {
        let addr = layout::CONTEXTS_BASE + u64::from(*id) * CpuContext::SIZE;
        machine.nvram_mut().write(addr, &ctx.to_bytes());
    }
    core_count
}

/// Runs the flush-on-fail save on `machine` at load `load` with the given
/// device strategy. Mutates the machine: contexts are written to NVRAM,
/// cores halt, and — if the protocol fit in the window — the NVDIMMs
/// save themselves. Returns the step-by-step report.
///
/// The stress load keeps running during the save (the paper's worst-case
/// configuration), so the window is computed at the *busy* draw even
/// while saving.
///
/// The save's one durable event is its NVDIMM save command: once a cut
/// armed on the pool has struck, the command is refused, the DRAM image
/// never reaches flash and the save does not complete. Everything else
/// runs on, as the host does after a cut: the contexts and the marker
/// are DRAM stores the power loss clears.
pub fn flush_on_fail_save(
    machine: &mut Machine,
    load: SystemLoad,
    strategy: RestartStrategy,
) -> SaveReport {
    let window = machine.residual_window(load);
    let mut steps: Vec<(SaveStep, Nanos)> = Vec::new();
    let mut elapsed = Nanos::ZERO;
    obs::emit("save", "begin", Nanos::ZERO, window.as_nanos() as i64, 0);
    let mut push = |s: SaveStep, t: Nanos| {
        steps.push((s, t));
        elapsed += t;
        obs::emit_detail(
            "save",
            "step",
            elapsed,
            t.as_nanos() as i64,
            steps.len() as i64 - 1,
            s.label().into(),
        );
        obs::count(obs::Ctr::SaveSteps);
        obs::observe(obs::Hist::SaveStep, t);
        elapsed
    };

    let monitor = machine.monitor().clone();
    let profile = machine.profile().clone();
    push(SaveStep::PowerFailInterrupt, monitor.interrupt_latency);
    push(SaveStep::InterruptAllProcessors, profile.ipi_latency);
    if strategy == RestartStrategy::AcpiSuspend {
        push(SaveStep::SuspendDevices, strategy.save_path_cost(machine));
    }

    // All cores save contexts in parallel; the step costs one context
    // save. The contexts actually land in the NVDIMM pool.
    save_contexts(machine);
    push(SaveStep::SaveContexts, profile.context_save);

    let dirty = machine.dirty_estimate(load);
    obs::gauge_set(obs::Gauge::DirtyEstimate, dirty.as_u64() as i64);
    let flush = machine
        .flush_analysis()
        .flush_time(FlushMethod::Wbinvd, dirty);
    push(SaveStep::FlushCaches, flush);

    for core in machine.cores_mut().iter_mut().skip(1) {
        core.halted = true;
    }
    push(SaveStep::HaltOthers, Nanos::from_micros(1));
    let before_marker = push(SaveStep::SetupResumeBlock, Nanos::from_micros(10));

    // Valid marker: written only if we are still inside the window when
    // we get here — this is the all-or-nothing bit recovery checks.
    let marker_time = Nanos::from_micros(1);
    let will_mark = before_marker + marker_time <= window;
    if will_mark {
        machine
            .nvram_mut()
            .write(layout::VALID_MARKER_ADDR, &layout::VALID_MAGIC.to_le_bytes());
    }
    let before_initiate = push(SaveStep::MarkImageValid, marker_time);

    let initiate = monitor.i2c_command_latency;
    let will_initiate = will_mark && before_initiate + initiate <= window;
    push(SaveStep::InitiateNvdimmSave, initiate);
    let mut modules_saved = true;
    if will_initiate {
        // A refused command (power already failed), a declined one
        // (module off, relay dropping the I2C command) or a module whose
        // ultracapacitor cannot cover its copy all leave the save
        // incomplete, and restore will refuse — no panic on this path.
        let modules = machine.nvram().dimms().len();
        modules_saved = machine
            .nvram_mut()
            .save_range_within(0..modules, 1, Nanos::MAX)
            .is_ok_and(|r| r.outcomes.iter().all(|o| o.completed));
    }

    if let Some(core) = machine.cores_mut().first_mut() {
        core.halted = true;
    }
    let elapsed = push(SaveStep::Halt, Nanos::new(100));

    let completed = will_initiate && modules_saved;
    obs::emit(
        "save",
        if completed { "complete" } else { "failed" },
        elapsed,
        window.as_nanos() as i64,
        i64::from(modules_saved),
    );
    obs::count(if completed {
        obs::Ctr::SavesCompleted
    } else {
        obs::Ctr::SavesInterrupted
    });
    obs::observe(obs::Hist::SaveTotal, elapsed);
    SaveReport {
        steps,
        total: elapsed,
        window,
        completed,
        fraction_of_window: elapsed.ratio_of(window),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_units::Watts;

    #[test]
    fn save_fits_on_both_testbeds_at_both_loads() {
        for make in [Machine::intel_testbed, Machine::amd_testbed] {
            for load in SystemLoad::both() {
                let mut machine = make();
                machine.apply_load(load, 3);
                let report = flush_on_fail_save(
                    &mut machine,
                    load,
                    RestartStrategy::RestorePathReinit,
                );
                assert!(
                    report.completed,
                    "{} {}: {} vs window {}",
                    machine.profile().name,
                    load.label(),
                    report.total,
                    report.window
                );
                // §5.3: save under 5 ms on every platform.
                assert!(report.total.as_millis_f64() < 5.0);
            }
        }
    }

    #[test]
    fn acpi_suspend_blows_the_window() {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 3);
        let report = flush_on_fail_save(&mut machine, SystemLoad::Busy, RestartStrategy::AcpiSuspend);
        assert!(!report.completed);
        let suspend = report.step_time(SaveStep::SuspendDevices).unwrap();
        assert!(suspend.as_secs_f64() > 5.0, "Figure 9 scale: {suspend}");
        // Nothing was saved: no valid marker, no flash image.
        assert!(!machine.nvram().all_saved());
    }

    #[test]
    fn flush_dominates_the_save_path() {
        let mut machine = Machine::intel_testbed();
        let report = flush_on_fail_save(
            &mut machine,
            SystemLoad::Busy,
            RestartStrategy::RestorePathReinit,
        );
        let flush = report.step_time(SaveStep::FlushCaches).unwrap();
        assert!(
            flush.as_nanos() * 2 > report.total.as_nanos(),
            "cache flush should dominate: {flush} of {}",
            report.total
        );
    }

    #[test]
    fn contexts_land_in_nvram() {
        let mut machine = Machine::amd_testbed();
        let expected: Vec<CpuContext> = machine.cores().iter().map(|c| c.context).collect();
        let _ = flush_on_fail_save(
            &mut machine,
            SystemLoad::Idle,
            RestartStrategy::RestorePathReinit,
        );
        // Read back through the flash image: power-cycle and restore.
        machine.nvram_mut().power_loss();
        machine.nvram_mut().power_on();
        machine.nvram_mut().restore_all().unwrap();
        for (i, want) in expected.iter().enumerate() {
            let mut buf = vec![0u8; CpuContext::SIZE as usize];
            let addr = layout::CONTEXTS_BASE + i as u64 * CpuContext::SIZE;
            machine.nvram().dimms()[0].read(addr, &mut buf);
            assert_eq!(&CpuContext::from_bytes(&buf), want, "core {i}");
        }
    }

    #[test]
    fn a_drained_ultracap_fails_the_save_without_panicking() {
        let mut machine = Machine::intel_testbed();
        let cap = machine.nvram_mut().dimms_mut()[1].ultracap_mut();
        let _ = cap.discharge(Watts::new(1e6), Nanos::from_secs(3600));
        let report = flush_on_fail_save(
            &mut machine,
            SystemLoad::Busy,
            RestartStrategy::RestorePathReinit,
        );
        assert!(!report.completed, "a torn module cannot complete the save");
        machine.system_power_loss();
        machine.system_power_on();
        assert!(crate::restore(&mut machine, RestartStrategy::RestorePathReinit).is_err());
    }

    #[test]
    fn a_struck_cut_refuses_the_save_command() {
        let mut machine = Machine::intel_testbed();
        let cut = wsp_power::PowerCut::after(0);
        machine.nvram_mut().arm(&cut);
        let report = flush_on_fail_save(
            &mut machine,
            SystemLoad::Busy,
            RestartStrategy::RestorePathReinit,
        );
        assert!(!report.completed);
        assert_eq!(cut.events(), 1, "the save command is the save's one event");
        assert!(!machine.nvram().all_saved(), "nothing reached flash");
        assert!(machine.cores().iter().all(|c| c.halted), "the host ran on");
    }

    #[test]
    fn all_cores_halt() {
        let mut machine = Machine::intel_testbed();
        let _ = flush_on_fail_save(
            &mut machine,
            SystemLoad::Idle,
            RestartStrategy::RestorePathReinit,
        );
        assert!(machine.cores().iter().all(|c| c.halted));
    }
}
