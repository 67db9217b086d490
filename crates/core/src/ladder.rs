//! The whole-node recovery ladder: every way a post-outage node can come
//! back, ordered from best to worst, with typed refusals at every rung.
//!
//! The save ([`crate::domain_save`], over the node's private
//! [`PowerDomain`](wsp_power::PowerDomain) or a shared one) may leave
//! the node in any of three durable states: a complete image, a
//! priority-stage-only partial image, or nothing. The ladder is the
//! restore-side dual — it tries the best rung the image supports and
//! *degrades gracefully* through the rest:
//!
//! 1. **Full WSP resume** ([`LadderRung::LocalWsp`]): the valid marker
//!    checks out, contexts and memory come back, the heap recovers from
//!    its local image. Nothing lost.
//! 2. **Heap log replay** ([`LadderRung::HeapLogReplay`]): the partial
//!    marker says only stage A is durable. A resume is impossible, but
//!    the heap's log and metadata lines survived the priority flush —
//!    committed transactions replay, the in-flight one rolls back.
//! 3. **Cluster rebuild** ([`LadderRung::ClusterRebuild`]): no usable
//!    local image (torn save, failed save command, nothing armed). The
//!    node restores the latest back-end checkpoint and reports exactly
//!    how stale it is — a [`RecoveryOutcome::Degraded`] verdict, never
//!    silent loss.
//!
//! Every rung returns a typed refusal instead of panicking, and a crash
//! *during* recovery (power failing again at a rung's entry) restarts
//! the ladder from the top — each rung is idempotent until it succeeds,
//! because markers and flash images are only consumed by a completed
//! rung-1 restore.

use wsp_cluster::ClusterSpec;
use wsp_machine::Machine;
use wsp_obs as obs;
use wsp_pheap::{BackendStore, PersistentHeap};
use wsp_units::Nanos;

use crate::restore::restore;
use crate::{RestartStrategy, WspError};

/// A rung of the recovery ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Full whole-system resume from the local NVDIMM image.
    LocalWsp,
    /// Partial image: recover the heap by replaying its durable log.
    HeapLogReplay,
    /// No usable local image: rebuild from the cluster back end.
    ClusterRebuild,
}

impl LadderRung {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::LocalWsp => "full WSP resume",
            LadderRung::HeapLogReplay => "heap log replay",
            LadderRung::ClusterRebuild => "cluster back-end rebuild",
        }
    }

    /// Rung position, best (0) to worst (2) — the `a` payload of every
    /// ladder trace event.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            LadderRung::LocalWsp => 0,
            LadderRung::HeapLogReplay => 1,
            LadderRung::ClusterRebuild => 2,
        }
    }
}

/// One rung the ladder tried: either it succeeded (`refusal: None` —
/// always the final attempt) or it refused with a typed reason and the
/// ladder moved down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungAttempt {
    /// The rung attempted.
    pub rung: LadderRung,
    /// Why the rung refused, or `None` if it succeeded.
    pub refusal: Option<String>,
}

/// How the ladder terminated. There is no panicking variant: every
/// injected fault ends in one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// A local rung succeeded: no committed data was lost.
    Recovered {
        /// The rung that succeeded.
        rung: LadderRung,
        /// Simulated recovery duration.
        took: Nanos,
    },
    /// The node is back but degraded: recent state was lost and the
    /// loss is *detected and quantified* in `reason` — or no recovery
    /// source existed at all.
    Degraded {
        /// The rung that terminated the ladder.
        rung: LadderRung,
        /// What was lost (e.g. checkpoint staleness), or why even the
        /// bottom rung refused.
        reason: String,
        /// Simulated recovery duration.
        took: Nanos,
    },
}

impl RecoveryOutcome {
    /// True for the `Recovered` verdict.
    #[must_use]
    pub fn is_recovered(&self) -> bool {
        matches!(self, RecoveryOutcome::Recovered { .. })
    }
}

/// The full trace of one ladder run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderReport {
    /// Every rung attempted, in order, with its refusal if any.
    pub attempts: Vec<RungAttempt>,
    /// The terminal verdict.
    pub outcome: RecoveryOutcome,
    /// Extra power cycles taken by crashes *during* recovery.
    pub power_cycles: u32,
}

/// Everything a ladder run needs.
pub struct LadderInput<'a> {
    /// The powered-on machine to restore (NVDIMMs already re-powered).
    pub machine: &'a mut Machine,
    /// Device restart strategy for the rung-1 restore path.
    pub strategy: RestartStrategy,
    /// The heap's crash image, if the save armed the modules at all.
    pub image: Option<wsp_pheap::CrashImage>,
    /// The back end holding the node's periodic checkpoints.
    pub backend: &'a BackendStore,
    /// The cluster this node belongs to (sizes the rung-3 rebuild).
    pub cluster: &'a ClusterSpec,
    /// Inject a power failure at this rung's entry (fires once, then
    /// the outage is over): models crash-during-restore.
    pub crash_at: Option<LadderRung>,
}

/// The ladder's bookkeeping across rungs and restarts: every attempt so
/// far, the power cycles taken, the one pending crash injection, and the
/// ladder's own clock (recovery time accumulated so far — rungs advance
/// it by their durations, refusals are stamped with its reading).
struct Climb {
    attempts: Vec<RungAttempt>,
    power_cycles: u32,
    pending_crash: Option<LadderRung>,
    now: Nanos,
}

impl Climb {
    /// Fires the pending crash injection if it targets `rung`: power
    /// fails (again) right as the rung is entered, the machine cycles
    /// power, and the caller restarts the ladder from the top.
    fn crash(&mut self, rung: LadderRung, machine: &mut Machine) -> bool {
        if self.pending_crash != Some(rung) {
            return false;
        }
        self.pending_crash = None;
        machine.system_power_loss();
        machine.system_power_on();
        self.power_cycles += 1;
        obs::emit("ladder", "power_cycle", self.now, rung.index() as i64, 0);
        obs::count(obs::Ctr::PowerCycles);
        self.attempts.push(RungAttempt {
            rung,
            refusal: Some(format!(
                "power failed entering {}; power-cycled, ladder restarted",
                rung.label()
            )),
        });
        true
    }

    /// Enters `rung`: one attempt event.
    fn enter(&self, rung: LadderRung) {
        obs::emit_detail(
            "ladder",
            "rung_attempt",
            self.now,
            rung.index() as i64,
            0,
            rung.label().into(),
        );
        obs::count(obs::Ctr::RungAttempts);
    }

    /// A refused rung: exactly one typed trace event per refusal.
    fn refuse(&mut self, rung: LadderRung, reason: String) {
        obs::emit_detail(
            "ladder",
            "refusal",
            self.now,
            rung.index() as i64,
            0,
            reason.clone(),
        );
        obs::count(obs::Ctr::RungRefusals);
        self.attempts.push(RungAttempt {
            rung,
            refusal: Some(reason),
        });
    }

    /// A local rung brought `heap` back after `took` in all: the ladder
    /// ends [`RecoveryOutcome::Recovered`]. The clock already holds any
    /// machine restore the rung ran; the heap's own recovery advances it.
    fn recovered(
        mut self,
        rung: LadderRung,
        took: Nanos,
        heap: PersistentHeap,
    ) -> (LadderReport, Option<PersistentHeap>) {
        self.now += heap.elapsed();
        self.attempts.push(RungAttempt {
            rung,
            refusal: None,
        });
        obs::emit(
            "ladder",
            "recovered",
            self.now,
            rung.index() as i64,
            took.as_nanos() as i64,
        );
        obs::count(obs::Ctr::LadderRecovered);
        obs::observe(obs::Hist::RecoveryTook, took);
        let outcome = RecoveryOutcome::Recovered { rung, took };
        (self.report(outcome), Some(heap))
    }

    fn report(self, outcome: RecoveryOutcome) -> LadderReport {
        LadderReport {
            attempts: self.attempts,
            outcome,
            power_cycles: self.power_cycles,
        }
    }
}

/// Climbs the ladder. Returns the report and the recovered heap (absent
/// only when even the bottom rung had nothing to restore from).
///
/// A `crash_at` injection power-cycles the machine at the chosen rung's
/// entry and restarts the ladder from the top — the function always
/// terminates because the injection fires at most once and every rung
/// either succeeds or refuses in finite steps.
#[must_use]
pub fn run_recovery_ladder(input: LadderInput<'_>) -> (LadderReport, Option<PersistentHeap>) {
    let LadderInput {
        machine,
        strategy,
        image,
        backend,
        cluster,
        crash_at,
    } = input;
    let mut climb = Climb {
        attempts: Vec::new(),
        power_cycles: 0,
        pending_crash: crash_at,
        now: Nanos::ZERO,
    };
    obs::emit("ladder", "begin", climb.now, i64::from(image.is_some()), 0);

    'restart: loop {
        // ---- Rungs 1–2: full WSP resume, then (only under a partial
        // marker) heap log replay.
        let mut next = Some(LadderRung::LocalWsp);
        while let Some(rung) = next.take() {
            if climb.crash(rung, machine) {
                continue 'restart;
            }
            climb.enter(rung);
            let attempt = if rung == LadderRung::LocalWsp {
                match restore(machine, strategy) {
                    Ok(report) => {
                        climb.now += report.total;
                        // The machine image resumed; the heap must come
                        // back from its own (complete) image to call
                        // this rung good.
                        match image.clone().map(PersistentHeap::recover) {
                            Some(Ok(heap)) => Ok((report.total + heap.elapsed(), heap)),
                            Some(Err(e)) => Err(format!(
                                "machine image resumed but heap recovery refused: {e}"
                            )),
                            None => Err("machine image resumed but no heap image exists".into()),
                        }
                    }
                    Err(WspError::PartialImage) => {
                        next = Some(LadderRung::HeapLogReplay);
                        Err("partial marker set: only the priority stage is durable".into())
                    }
                    Err(e) => Err(e.to_string()),
                }
            } else {
                match image.clone() {
                    Some(img) => PersistentHeap::recover_partial(img)
                        .map(|heap| (heap.elapsed(), heap))
                        .map_err(|e| format!("log replay refused: {e}")),
                    None => Err("no heap image available for log replay".into()),
                }
            };
            match attempt {
                Ok((took, heap)) => return climb.recovered(rung, took, heap),
                Err(reason) => climb.refuse(rung, reason),
            }
        }

        // ---- Rung 3: cluster back-end rebuild ----------------------
        let rung = LadderRung::ClusterRebuild;
        if climb.crash(rung, machine) {
            continue;
        }
        climb.enter(rung);
        obs::count(obs::Ctr::ClusterRebuilds);
        climb.attempts.push(RungAttempt {
            rung,
            refusal: None,
        });
        let (reason, took, heap) = match backend.restore() {
            // The node-local stream is a lower bound; the cluster
            // model's per-server rebuild time dominates at scale.
            Ok((heap, checkpoint_seq, stream)) => (
                format!(
                    "restored checkpoint at transaction {checkpoint_seq}; \
                     later commits must replay from upstream"
                ),
                stream.max(cluster.backend_recovery_time(1)),
                Some(heap),
            ),
            Err(e) => (format!("bottom rung refused: {e}"), Nanos::ZERO, None),
        };
        climb.now += took;
        obs::emit_detail(
            "ladder",
            "degraded",
            climb.now,
            rung.index() as i64,
            took.as_nanos() as i64,
            reason.clone(),
        );
        obs::count(obs::Ctr::LadderDegraded);
        if heap.is_some() {
            obs::observe(obs::Hist::RecoveryTook, took);
        }
        return (
            climb.report(RecoveryOutcome::Degraded { rung, reason, took }),
            heap,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{node_save, DomainBudget, ShardVerdict};
    use crate::supervisor::{clean_failure_trace, priority_stage_window};
    use wsp_machine::SystemLoad;
    use wsp_pheap::HeapConfig;
    use wsp_units::ByteSize;

    fn heap_with_root(value: u64) -> PersistentHeap {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FofUndo);
        let mut tx = heap.begin();
        let p = tx.alloc(16).unwrap();
        tx.write_word(p, value).unwrap();
        tx.set_root(p).unwrap();
        tx.commit().unwrap();
        heap
    }

    fn root_value(heap: &mut PersistentHeap) -> u64 {
        let root = heap.root().unwrap();
        let mut tx = heap.begin();
        let v = tx.read_word(root).unwrap();
        tx.commit().unwrap();
        v
    }

    struct Rig {
        machine: Machine,
        backend: BackendStore,
        cluster: ClusterSpec,
    }

    fn rig() -> Rig {
        let mut machine = Machine::intel_testbed();
        machine.apply_load(SystemLoad::Busy, 9);
        Rig {
            machine,
            backend: BackendStore::disk_array(),
            cluster: ClusterSpec::memcache_tier(50),
        }
    }

    fn partial_budget(machine: &Machine, heap: &PersistentHeap) -> DomainBudget {
        DomainBudget {
            window_cap: Some(priority_stage_window(machine, heap)),
        }
    }

    /// The node's save over its private domain; returns its verdict.
    fn save(r: &mut Rig, heap: &mut PersistentHeap, budget: DomainBudget) -> ShardVerdict {
        let trace = clean_failure_trace();
        let report = node_save(&mut r.machine, heap, SystemLoad::Busy, &trace, budget).unwrap();
        report.shards[0].verdict
    }

    #[test]
    fn complete_save_recovers_on_the_top_rung() {
        let mut r = rig();
        let mut heap = heap_with_root(11);
        r.backend.checkpoint(&heap);
        assert_eq!(
            save(&mut r, &mut heap, DomainBudget::trusting()),
            ShardVerdict::Complete
        );
        r.machine.system_power_loss();
        r.machine.system_power_on();
        let (report, heap) = run_recovery_ladder(LadderInput {
            machine: &mut r.machine,
            strategy: RestartStrategy::RestorePathReinit,
            image: Some(heap.crash(true)),
            backend: &r.backend,
            cluster: &r.cluster,
            crash_at: None,
        });
        assert!(
            matches!(
                report.outcome,
                RecoveryOutcome::Recovered {
                    rung: LadderRung::LocalWsp,
                    ..
                }
            ),
            "{report:?}"
        );
        assert_eq!(report.power_cycles, 0);
        assert_eq!(root_value(&mut heap.unwrap()), 11);
    }

    #[test]
    fn partial_save_recovers_by_log_replay() {
        let mut r = rig();
        let mut heap = heap_with_root(22);
        r.backend.checkpoint(&heap);
        let budget = partial_budget(&r.machine, &heap);
        assert_eq!(
            save(&mut r, &mut heap, budget),
            ShardVerdict::PartialPriority
        );
        r.machine.system_power_loss();
        r.machine.system_power_on();
        let (report, heap) = run_recovery_ladder(LadderInput {
            machine: &mut r.machine,
            strategy: RestartStrategy::RestorePathReinit,
            image: Some(heap.crash(false)),
            backend: &r.backend,
            cluster: &r.cluster,
            crash_at: None,
        });
        assert!(
            matches!(
                report.outcome,
                RecoveryOutcome::Recovered {
                    rung: LadderRung::HeapLogReplay,
                    ..
                }
            ),
            "{report:?}"
        );
        assert_eq!(
            report.attempts[0].rung,
            LadderRung::LocalWsp,
            "top rung tried first"
        );
        assert!(report.attempts[0].refusal.is_some());
        assert_eq!(root_value(&mut heap.unwrap()), 22);
    }

    #[test]
    fn no_save_degrades_to_cluster_rebuild_with_quantified_loss() {
        let mut r = rig();
        let mut heap = heap_with_root(33);
        r.backend.checkpoint(&heap);
        // Commit after the checkpoint, then crash with no save at all.
        let mut tx = heap.begin();
        let p = tx.alloc(16).unwrap();
        tx.write_word(p, 34).unwrap();
        tx.set_root(p).unwrap();
        tx.commit().unwrap();
        r.machine.system_power_loss();
        r.machine.system_power_on();
        let (report, heap) = run_recovery_ladder(LadderInput {
            machine: &mut r.machine,
            strategy: RestartStrategy::RestorePathReinit,
            image: None,
            backend: &r.backend,
            cluster: &r.cluster,
            crash_at: None,
        });
        match &report.outcome {
            RecoveryOutcome::Degraded { rung, reason, took } => {
                assert_eq!(*rung, LadderRung::ClusterRebuild);
                assert!(reason.contains("checkpoint at transaction"), "{reason}");
                assert!(*took >= r.cluster.backend_recovery_time(1));
            }
            other => panic!("expected Degraded: {other:?}"),
        }
        assert_eq!(root_value(&mut heap.unwrap()), 33, "checkpoint state");
    }

    #[test]
    fn nothing_anywhere_is_still_a_typed_degraded_verdict() {
        let mut r = rig();
        r.machine.system_power_loss();
        r.machine.system_power_on();
        let (report, heap) = run_recovery_ladder(LadderInput {
            machine: &mut r.machine,
            strategy: RestartStrategy::RestorePathReinit,
            image: None,
            backend: &r.backend, // empty: no checkpoint taken
            cluster: &r.cluster,
            crash_at: None,
        });
        assert!(heap.is_none());
        match &report.outcome {
            RecoveryOutcome::Degraded { reason, .. } => {
                assert!(reason.contains("bottom rung refused"), "{reason}");
            }
            other => panic!("expected Degraded: {other:?}"),
        }
    }

    #[test]
    fn crash_during_restore_restarts_the_ladder_and_converges() {
        // Crashes at the entry of rungs 1 and 2: a partial save reaches
        // both, and must still end in log replay after the power cycle.
        for crash_rung in [LadderRung::LocalWsp, LadderRung::HeapLogReplay] {
            let mut r = rig();
            let mut heap = heap_with_root(55);
            r.backend.checkpoint(&heap);
            let budget = partial_budget(&r.machine, &heap);
            assert_eq!(
                save(&mut r, &mut heap, budget),
                ShardVerdict::PartialPriority
            );
            r.machine.system_power_loss();
            r.machine.system_power_on();
            let (report, heap) = run_recovery_ladder(LadderInput {
                machine: &mut r.machine,
                strategy: RestartStrategy::RestorePathReinit,
                image: Some(heap.crash(false)),
                backend: &r.backend,
                cluster: &r.cluster,
                crash_at: Some(crash_rung),
            });
            assert_eq!(report.power_cycles, 1, "{crash_rung:?}");
            assert!(
                matches!(
                    report.outcome,
                    RecoveryOutcome::Recovered {
                        rung: LadderRung::HeapLogReplay,
                        ..
                    }
                ),
                "partial image still replays after a {crash_rung:?}-entry crash: {report:?}"
            );
            assert_eq!(root_value(&mut heap.unwrap()), 55);
        }
    }

    #[test]
    fn crash_entering_the_bottom_rung_still_ends_degraded() {
        // Only a save-less crash reaches rung 3, so the injected crash
        // fires there; the restarted ladder must converge to Degraded.
        let mut r = rig();
        let heap = heap_with_root(66);
        r.backend.checkpoint(&heap);
        r.machine.system_power_loss();
        r.machine.system_power_on();
        let (report, heap) = run_recovery_ladder(LadderInput {
            machine: &mut r.machine,
            strategy: RestartStrategy::RestorePathReinit,
            image: None,
            backend: &r.backend,
            cluster: &r.cluster,
            crash_at: Some(LadderRung::ClusterRebuild),
        });
        assert_eq!(report.power_cycles, 1);
        assert!(
            matches!(
                report.outcome,
                RecoveryOutcome::Degraded {
                    rung: LadderRung::ClusterRebuild,
                    ..
                }
            ),
            "{report:?}"
        );
        assert_eq!(root_value(&mut heap.unwrap()), 66);
    }
}
