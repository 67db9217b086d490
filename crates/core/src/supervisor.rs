//! The stage plan of a staged save: the budget arithmetic and the
//! `PWR_OK` traces every save through [`crate::domain_save`] shares,
//! over a private or a shared power domain.
//!
//! The plain [`flush_on_fail_save`] assumes the measured residual
//! window is both *real* (power actually lasts that long) and *ample*
//! (the full cache flush fits). A staged save drops both assumptions:
//!
//! 1. The `PWR_OK` trace is debounced first (§5.2's 250 µs detector):
//!    sub-threshold glitches are ignored without touching any state.
//!    Detection ([`detection`]) is the first charge against the window.
//! 2. The window is budgeted *before* anything is flushed. NVDIMM
//!    feasibility (aged ultracapacitors, [`pool_save_feasibility`]) is
//!    checked up front — an infeasible module save is refused, never
//!    attempted and torn.
//! 3. The flush is staged by priority. Stage A
//!    ([`PersistentHeap::priority_flush`], budgeted beforehand by
//!    [`PersistentHeap::priority_flush_cost`] from the cache model)
//!    makes the register contexts and the persistent heap's log and
//!    metadata lines durable (cheap, microseconds); stage B
//!    ([`bulk_flush`]) is the bulk `wbinvd` writeback (milliseconds). If
//!    only stage A fits, the save writes the **partial** marker instead
//!    of the valid marker: the image is honest about what it contains,
//!    and recovery takes the ladder's second rung (log replay) instead
//!    of resuming torn memory. [`priority_stage_window`] is the window
//!    that admits exactly that.
//! 4. The NVDIMM arm retries transient command failures
//!    ([`SAVE_ATTEMPTS`]) with exponential backoff bounded by the
//!    remaining window ([`NvramPool::save_range_within`]): when every
//!    retry lands inside the same glitch storm the save refuses with a
//!    typed [`WspError::WindowExhausted`] instead of spinning the
//!    simulated clock past the power it does not have.
//!
//! [`flush_on_fail_save`]: crate::flush_on_fail_save
//! [`pool_save_feasibility`]: crate::pool_save_feasibility
//! [`NvramPool::save_range_within`]: wsp_nvram::NvramPool::save_range_within
//! [`WspError::WindowExhausted`]: crate::WspError::WindowExhausted

use wsp_cache::FlushMethod;
use wsp_machine::{Machine, SystemLoad};
use wsp_pheap::PersistentHeap;
use wsp_power::PwrOkSample;
use wsp_units::Nanos;

/// Save-command attempts per module: transient command failures are
/// retried this many times in all.
pub const SAVE_ATTEMPTS: u32 = 3;

/// Simulated cost of stamping a save marker (one fenced NVRAM word).
pub(crate) const MARKER_COST: Nanos = Nanos::from_micros(1);

/// Scheduling slack a budget grants the priority stage beyond its
/// measured costs: jitter margin for detection variance and the shared
/// domain's triage bookkeeping. Together with the 1 µs marker stamp
/// this keeps the historical 60 µs of grace the single-shard ladder
/// corpus was recorded with, so the golden traces pin the same budgets.
pub const PARTIAL_STAGE_SLACK: Nanos = Nanos::from_micros(59);

/// Outage detection: the `PWR_OK` debounce, the power-fail interrupt
/// and the IPI to every other core. Every staged save starts with this
/// much of its window spent.
pub(crate) fn detection(machine: &Machine) -> Nanos {
    machine.monitor().debounce + machine.monitor().interrupt_latency + machine.profile().ipi_latency
}

/// Stage B's cost: the `wbinvd` time of one of `shards` equal shares
/// of the machine's dirty estimate at `load`.
pub(crate) fn bulk_flush(machine: &Machine, load: SystemLoad, shards: usize) -> Nanos {
    machine.flush_analysis().flush_time(
        FlushMethod::Wbinvd,
        machine.dirty_estimate(load) / shards as u64,
    )
}

/// The window a save needs to land *exactly* the priority stage for one
/// shard: outage detection, the CPU contexts, the shard's stage-A price
/// ([`PersistentHeap::priority_flush_cost`]), the marker, the arm
/// command and [`PARTIAL_STAGE_SLACK`].
///
/// The supervisor budgets per-shard priority stages from one window, so
/// the formula lives here once, with the marker and arm tail explicit.
/// Over a private domain it is the cap under which a save lands
/// [`crate::ShardVerdict::PartialPriority`].
#[must_use]
pub fn priority_stage_window(machine: &Machine, heap: &PersistentHeap) -> Nanos {
    detection(machine)
        + machine.profile().context_save
        + heap.priority_flush_cost()
        + MARKER_COST
        + machine.monitor().i2c_command_latency
        + PARTIAL_STAGE_SLACK
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
