//! The power-storm soak: repeated full storm sweeps (see
//! [`wsp_core::sweep_power_storm`]) across seeds, aggregated into one
//! survival scorecard. This is the workload `verify.sh` soaks under
//! different `WSP_FAULTSIM_THREADS` settings — the scorecard must come
//! out bitwise identical however the sweep is sharded.

use wsp_core::{sweep_power_storm, PowerStormReport, STORM_BOUNDARIES};
use wsp_pheap::HeapConfig;

/// A multi-seed power-storm soak over one heap configuration.
///
/// # Examples
///
/// ```
/// use wsp_pheap::HeapConfig;
/// use wsp_workloads::PowerStormBench;
///
/// let report = PowerStormBench::quick(HeapConfig::FocUndo).run();
/// assert!(report.survived);
/// assert!(report.outages >= 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerStormBench {
    /// Heap configuration every shard runs (must be flush-on-commit).
    pub config: HeapConfig,
    /// One full sweep per seed.
    pub seeds: Vec<u64>,
}

impl PowerStormBench {
    /// The soak scale `verify.sh` runs: three seeds.
    #[must_use]
    pub fn standard(config: HeapConfig) -> Self {
        PowerStormBench {
            config,
            seeds: vec![42, 7, 4242],
        }
    }

    /// One seed, for tests and doc examples.
    #[must_use]
    pub fn quick(config: HeapConfig) -> Self {
        PowerStormBench {
            config,
            seeds: vec![42],
        }
    }

    /// Runs every sweep and folds the results into one scorecard.
    ///
    /// # Panics
    ///
    /// Panics on any storm invariant violation (a lost committed value,
    /// a silent tear, a divergent re-climb) — the sweeps assert those
    /// internally — and if `seeds` is empty.
    #[must_use]
    pub fn run(&self) -> PowerStormSoakReport {
        assert!(!self.seeds.is_empty(), "soak needs at least one seed");
        let sweeps: Vec<PowerStormReport> = self
            .seeds
            .iter()
            .map(|&seed| sweep_power_storm(self.config, seed))
            .collect();

        let mut outages = 0;
        let mut storms = 0;
        let mut committed_txns = 0;
        let mut presumed_aborts = 0;
        let mut sacrificed = 0;
        let mut rebuilt = 0;
        let mut rerouted_writes = 0;
        let mut coordinator_shard_sacrifices = 0;
        let mut reclimbs_verified = 0;
        let mut full_decision_coverage = true;
        let mut full_rung_coverage = true;
        for sweep in &sweeps {
            outages += sweep.outages;
            storms += sweep.points.len();
            for point in &sweep.points {
                committed_txns += point.stats.committed_txns;
                presumed_aborts += point.stats.presumed_aborts;
                sacrificed += point.stats.sacrificed;
                rebuilt += point.stats.rebuilt;
                rerouted_writes += point.stats.rerouted_writes;
                coordinator_shard_sacrifices += point.stats.coordinator_shard_sacrifices;
                reclimbs_verified += point.stats.reclimbs_verified;
            }
            full_decision_coverage &= sweep.decision_cuts_covered == STORM_BOUNDARIES;
            full_rung_coverage &= sweep.crash_rungs_covered == 3;
        }

        PowerStormSoakReport {
            config: self.config,
            seeds: self.seeds.clone(),
            storms,
            outages,
            committed_txns,
            presumed_aborts,
            sacrificed,
            rebuilt,
            rerouted_writes,
            coordinator_shard_sacrifices,
            reclimbs_verified,
            full_decision_coverage,
            full_rung_coverage,
            survived: rebuilt == sacrificed && full_decision_coverage && full_rung_coverage,
            sweeps,
        }
    }
}

/// The aggregated scorecard of a [`PowerStormBench`] soak.
#[derive(Debug, Clone)]
pub struct PowerStormSoakReport {
    /// Heap configuration soaked.
    pub config: HeapConfig,
    /// Seeds swept.
    pub seeds: Vec<u64>,
    /// Individual storms run (sweep points across all seeds).
    pub storms: usize,
    /// Micro-outages fired in total.
    pub outages: usize,
    /// Cross-shard transactions committed — every one survived, checked
    /// cell-for-cell after every outage.
    pub committed_txns: usize,
    /// In-flight transactions resolved by presumed abort.
    pub presumed_aborts: usize,
    /// Shard-epochs the global triage sacrificed (typed, never silent).
    pub sacrificed: usize,
    /// Sacrificed shard-epochs rebuilt from checkpoint + routed replay.
    pub rebuilt: usize,
    /// Committed words re-applied from coordinator routing logs.
    pub rerouted_writes: u64,
    /// Outages that sacrificed the coordinator's own shard with
    /// transactions in doubt.
    pub coordinator_shard_sacrifices: usize,
    /// Interrupted recoveries whose re-climb matched bit-for-bit.
    pub reclimbs_verified: usize,
    /// Every sweep crashed the save at every storm boundary.
    pub full_decision_coverage: bool,
    /// Every sweep landed outages on every recovery rung.
    pub full_rung_coverage: bool,
    /// The soak verdict: full coverage and every sacrifice rebuilt.
    pub survived: bool,
    /// The underlying sweeps, in seed order.
    pub sweeps: Vec<PowerStormReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_survives_with_full_coverage() {
        let report = PowerStormBench::quick(HeapConfig::FocUndo).run();
        assert!(report.survived);
        assert!(report.full_decision_coverage);
        assert!(report.full_rung_coverage);
        assert_eq!(report.storms, 6, "3 phases x 2 triage biases");
        assert!(report.outages >= 24 * report.storms);
        assert!(report.committed_txns > 0);
        assert!(report.presumed_aborts > 0);
        assert_eq!(report.rebuilt, report.sacrificed);
        assert!(report.rerouted_writes > 0);
        assert!(report.coordinator_shard_sacrifices > 0);
        assert!(report.reclimbs_verified > 0);
    }

    #[test]
    fn soak_scorecard_is_reproducible() {
        let bench = PowerStormBench::quick(HeapConfig::FocStm);
        let (a, b) = (bench.run(), bench.run());
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.rerouted_writes, b.rerouted_writes);
        for (x, y) in a.sweeps.iter().zip(&b.sweeps) {
            assert_eq!(x.points, y.points);
        }
    }
}
