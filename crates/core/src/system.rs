//! End-to-end power-failure drills: save, outage, restore, verify.

use wsp_det::{DetRng, Rng};
use wsp_machine::{Machine, SystemLoad};
use wsp_obs as obs;
use wsp_units::Nanos;

use crate::restore::restore;
use crate::save::flush_on_fail_save;
use crate::{RestartStrategy, RestoreReport, SaveReport, WspError};

/// Seeded sentinel data scattered through NVRAM: what an in-memory
/// database's heap would be.
pub(crate) type Sentinels = Vec<(u64, [u8; 32])>;

/// Writes 64 sentinels of 32 random bytes at random word-aligned pool
/// addresses from 8 KiB up (clear of the resume block in the first
/// page) and returns them.
pub(crate) fn scatter_sentinels(machine: &mut Machine, rng: &mut DetRng) -> Sentinels {
    let capacity = machine.nvram().total_capacity().as_u64();
    let sentinels: Sentinels = (0..64)
        .map(|_| {
            let addr = rng.gen_range(8192..capacity - 32) / 8 * 8;
            let mut data = [0u8; 32];
            rng.fill_bytes(&mut data);
            (addr, data)
        })
        .collect();
    for (addr, data) in &sentinels {
        machine.nvram_mut().write(*addr, data);
    }
    sentinels
}

/// The address of the first sentinel `machine`'s pool no longer holds,
/// or `None` when every one survived bit-exactly.
pub(crate) fn lost_sentinel(machine: &Machine, sentinels: &Sentinels) -> Option<u64> {
    sentinels.iter().find_map(|(addr, data)| {
        let mut buf = [0u8; 32];
        machine.nvram().read(*addr, &mut buf);
        (buf != *data).then_some(*addr)
    })
}

/// The complete record of one simulated outage.
#[derive(Debug, Clone)]
pub struct OutageReport {
    /// The save-path report.
    pub save: SaveReport,
    /// The restore-path report (absent when local recovery failed and
    /// the node had to fall back to the storage back end).
    pub restore: Option<RestoreReport>,
    /// Why local recovery failed, if it did.
    pub backend_reason: Option<String>,
    /// True if the sentinel memory contents survived bit-exactly.
    pub data_preserved: bool,
    /// Total local downtime: save + NVDIMM flash save + restore (the
    /// outage itself is however long the power stays off).
    pub local_downtime: Nanos,
}

/// A WSP-enabled server: the machine plus the drill harness.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct WspSystem {
    machine: Machine,
}

impl WspSystem {
    /// Wraps a machine.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        WspSystem { machine }
    }

    /// The underlying machine.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Runs one full power-failure drill:
    ///
    /// 1. applies `load` (devices get in-flight I/O, the PSU window
    ///    shrinks to the busy draw),
    /// 2. scatters a seeded sentinel pattern through NVRAM,
    /// 3. runs the flush-on-fail save against the residual window,
    /// 4. cuts power, then powers back up,
    /// 5. restores, and verifies the sentinel survived.
    pub fn power_failure_drill(
        &mut self,
        load: SystemLoad,
        strategy: RestartStrategy,
        seed: u64,
    ) -> OutageReport {
        self.machine.apply_load(load, seed);

        let sentinels =
            scatter_sentinels(&mut self.machine, &mut DetRng::seed_from_u64(seed ^ 0x57u64));

        obs::emit_detail(
            "system",
            "drill_begin",
            Nanos::ZERO,
            seed as i64,
            0,
            load.label().to_string(),
        );
        let save = flush_on_fail_save(&mut self.machine, load, strategy);

        // The outage: system power disappears. (If the save initiated the
        // NVDIMM flash copy, it already completed on ultracap power.)
        obs::emit("system", "power_cut", save.total, save.completed as i64, 0);
        self.machine.system_power_loss();
        self.machine.system_power_on();

        let restore_result: Result<RestoreReport, WspError> =
            restore(&mut self.machine, strategy);

        let (restore_report, backend_reason) = match restore_result {
            Ok(r) => (Some(r), None),
            Err(e) => (None, Some(e.to_string())),
        };

        let data_preserved =
            restore_report.is_some() && lost_sentinel(&self.machine, &sentinels).is_none();

        let nvdimm_save = self.machine.nvram().parallel_save_time();
        let local_downtime = save.total
            + if save.completed { nvdimm_save } else { Nanos::ZERO }
            + restore_report.as_ref().map_or(Nanos::ZERO, |r| r.total);

        obs::emit(
            "system",
            "drill_done",
            local_downtime,
            data_preserved as i64,
            restore_report.is_some() as i64,
        );
        OutageReport {
            save,
            restore: restore_report,
            backend_reason,
            data_preserved,
            local_downtime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_preserves_data_on_both_testbeds() {
        for machine in [Machine::intel_testbed(), Machine::amd_testbed()] {
            let name = machine.profile().name.clone();
            let mut system = WspSystem::new(machine);
            for load in SystemLoad::both() {
                let report = system.power_failure_drill(
                    load,
                    RestartStrategy::RestorePathReinit,
                    99,
                );
                assert!(report.save.completed, "{name} {}", load.label());
                assert!(report.data_preserved, "{name} {}", load.label());
                assert!(report.backend_reason.is_none());
            }
        }
    }

    #[test]
    fn acpi_strawman_forces_backend_recovery() {
        let mut system = WspSystem::new(Machine::intel_testbed());
        let report =
            system.power_failure_drill(SystemLoad::Busy, RestartStrategy::AcpiSuspend, 5);
        assert!(!report.save.completed);
        assert!(!report.data_preserved);
        let reason = report.backend_reason.expect("local recovery must fail");
        assert!(reason.contains("back-end") || !reason.is_empty());
    }

    #[test]
    fn local_downtime_is_seconds_not_minutes() {
        let mut system = WspSystem::new(Machine::amd_testbed());
        let report = system.power_failure_drill(
            SystemLoad::Idle,
            RestartStrategy::RestorePathReinit,
            1,
        );
        let t = report.local_downtime.as_secs_f64();
        assert!(t < 60.0, "local recovery stays well under a minute: {t}");
    }

    #[test]
    fn drills_are_deterministic() {
        let mut a = WspSystem::new(Machine::intel_testbed());
        let mut b = WspSystem::new(Machine::intel_testbed());
        let ra = a.power_failure_drill(SystemLoad::Busy, RestartStrategy::VirtualizedReplay, 7);
        let rb = b.power_failure_drill(SystemLoad::Busy, RestartStrategy::VirtualizedReplay, 7);
        assert_eq!(ra.save, rb.save);
        assert_eq!(ra.local_downtime, rb.local_downtime);
    }
}
