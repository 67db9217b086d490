//! The whole-system-persistence (WSP) runtime: the paper's primary
//! contribution, executed against the simulated machine.
//!
//! WSP converts a power failure into a suspend/resume event. The runtime
//! implements the fourteen-step save/restore protocol of the paper's
//! Figure 4:
//!
//! ```text
//! PWR_OK FAILS                         POWER UP
//!  1. Interrupt control processor      10. Restore NVDIMM contents
//!  2. Interrupt all processors         11. Check image validity
//!  3. Flush caches                     12. Jump to resume block
//!  4. Halt N-1 processors              13. Re-initialize devices
//!  5. Set up resume block              14. Restore CPU contexts
//!  6. Mark image as valid
//!  7. Initiate NVDIMM save
//!  8. Halt
//!  9. (NVDIMM save completes on ultracap power)
//! ```
//!
//! The save must finish inside the PSU's residual energy window; the
//! [`SaveReport`] records each step's cost and whether it fit.
//! Device state is the part NVRAM cannot protect, so the runtime
//! implements the paper's candidate [`RestartStrategy`]s: the ACPI
//! suspend strawman (pays seconds on the save path — infeasible), clean
//! restore-path re-initialization, hypervisor-mediated I/O replay, and
//! the register-shadowing approach of Ohmura et al.
//!
//! # Examples
//!
//! A full power-failure drill on the Intel testbed:
//!
//! ```
//! use wsp_core::{RestartStrategy, WspSystem};
//! use wsp_machine::{Machine, SystemLoad};
//!
//! let mut system = WspSystem::new(Machine::intel_testbed());
//! let report = system.power_failure_drill(
//!     SystemLoad::Busy,
//!     RestartStrategy::RestorePathReinit,
//!     42,
//! );
//! assert!(report.save.completed, "save fits in the window");
//! assert!(report.data_preserved, "memory contents survived");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod error;
pub mod faultsim;
mod feasibility;
mod ladder;
mod lockfree_sweep;
mod model;
mod process;
mod restart;
mod restore;
mod save;
mod storm;
mod supervisor;
pub mod sweep;
mod system;
mod tradeoff;
mod txn;
mod vm;

pub use domain::{
    domain_decision_points, domain_save, DomainBudget, DomainInput, DomainSaveReport,
    DomainVerdict, ShardSaveReport, ShardTriage, ShardVerdict, DOMAIN_CONTROL_MODULES,
};
pub use error::WspError;
pub use faultsim::{
    ladder_crash_points, save_path_crash_points, sweep_cross_shard_2pc, sweep_mid_epoch,
    sweep_mid_transaction, sweep_recovery_ladder, sweep_save_path, CrossShard2pcReport,
    FaultOutcome, LadderFault, LadderPointOutcome, LadderSweepReport, MidEpochSweepReport,
    MidTxSweepReport, SaveSweepReport, TxnCrashPoint, TxnPointVerdict, FLUSH_BATCHES,
};
pub use feasibility::{
    feasibility_matrix, nvdimm_save_feasibility, pool_save_feasibility, FeasibilityRow,
    SaveFeasibility,
};
pub use ladder::{run_recovery_ladder, LadderInput, LadderReport, LadderRung, RecoveryOutcome, RungAttempt};
pub use lockfree_sweep::{
    classify_recovery, sweep_lockfree, LfScenarioOutcome, LfStructure, LockfreeSweepReport,
};
pub use model::{committed_fleet, CellModel};
pub use process::{ProcessPersistence, ProcessSaveReport};
pub use restart::RestartStrategy;
pub use restore::{restore, RestoreReport, RestoreStep};
pub use save::{flush_on_fail_save, flush_on_fail_save_with_fault, SaveFault, SaveReport, SaveStep};
pub use storm::{
    run_power_storm, sweep_power_storm, PowerStormReport, StormPoint, StormPointOutcome, StormSpec,
    StormStats,
};
pub use supervisor::{
    clean_failure_trace, glitch_storm_trace, priority_stage_window, supervised_save,
    SaveBudget, SaveVerdict, StagedSaveReport, PARTIAL_STAGE_SLACK, SAVE_ATTEMPTS,
};
pub use system::{OutageReport, WspSystem};
pub use tradeoff::{CapacitanceTradeoff, TradeoffPoint};
pub use txn::{
    coordinator_of, reapply_routed, recover_decisions, recover_routing, recover_settled,
    resolve_cross_shard, ClusterTxnRecovery, CoordinatorPool, CrossShardTxn, GtxidOrigin,
    RoutedWrite, ShardRecovery, SubmitOutcome,
};
pub use vm::{VirtualizedHost, VmInstance, VmRestoreMilestone, VmRestoreSchedule};

/// NVRAM layout used by the save/restore protocol (addresses within the
/// machine's NVDIMM pool).
pub(crate) mod layout {
    /// The valid-image marker word.
    pub const VALID_MARKER_ADDR: u64 = 0x0;
    /// Magic value marking a complete save ("WSPVALID").
    pub const VALID_MAGIC: u64 = 0x4449_4c41_5650_5357;
    /// The partial-image marker word: set by the save supervisor when
    /// only the priority stage (contexts + heap log/metadata) fit in the
    /// residual window. Distinct from [`VALID_MARKER_ADDR`] so a partial
    /// save can never be mistaken for a resumable one.
    pub const PARTIAL_MARKER_ADDR: u64 = 0x8;
    /// Magic value marking a partial (priority-stage-only) save
    /// ("WSPPARTL").
    pub const PARTIAL_MAGIC: u64 = 0x4c54_5241_5050_5357;
    /// Core count of the saved image.
    pub const CORE_COUNT_ADDR: u64 = 0x40;
    /// Resume-block base: per-core contexts at stride
    /// [`wsp_machine::CpuContext::SIZE`].
    pub const CONTEXTS_BASE: u64 = 0x80;
}
