//! Cross-shard transactions over the sharded KV engine: a deterministic
//! bank-transfer workload driven through `wsp_core`'s two-phase-commit
//! [`CoordinatorPool`], with the whole fleet crashed at the end and
//! resolved against the pool's durable decision log.
//!
//! Each shard holds a column of fixed-location account cells (one per
//! cache line, like the serving engine's records). A transfer debits an
//! account on one shard and credits an account on another — the
//! write-set spans two persistent heaps, so it must go through the
//! two-phase epoch seal: durable per-shard `PREPARED` records, a fenced
//! coordinator decision, then per-shard commit markers. The workload
//! checks the invariant that matters for a bank: the sum of all
//! balances is conserved by every schedule, crash included.
//!
//! Losing a shard's NVRAM image mid-run exercises the PR 3 recovery
//! ladder fleet-wide: the lost shard comes back as a typed
//! [`WspError::BackendRecoveryRequired`] refusal with quantified
//! staleness, while the survivors still apply every decided outcome.

use std::collections::HashSet;

use wsp_cluster::ClusterSpec;
use wsp_core::{
    resolve_cross_shard, CoordinatorPool, LadderRung, RecoveryOutcome, SubmitOutcome, WspError,
};
use wsp_det::{DetRng, Rng};
use wsp_obs as obs;
use wsp_pheap::{HeapConfig, HeapError, PersistentHeap, PmPtr};
use wsp_units::{ByteSize, Nanos};

/// A deterministic cross-shard transfer workload over per-shard
/// persistent heaps, committed through a [`CoordinatorPool`].
///
/// # Examples
///
/// ```
/// use wsp_pheap::HeapConfig;
/// use wsp_workloads::CrossShardKvBench;
///
/// let report = CrossShardKvBench::quick(3).run(HeapConfig::FocUndo, 42)?;
/// assert!(report.committed > 0);
/// assert!(report.balance_conserved);
/// # Ok::<(), wsp_pheap::HeapError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossShardKvBench {
    /// Participant shards (per-shard heaps).
    pub shards: usize,
    /// Account cells per shard, each on its own cache line.
    pub accounts_per_shard: usize,
    /// Transfers issued through the coordinator.
    pub transfers: usize,
    /// Fraction of transfers whose debit and credit live on different
    /// shards (the rest stay on one shard but still run the protocol).
    pub cross_shard_pct: f64,
    /// Starting balance of every account.
    pub initial_balance: u64,
    /// Heap region size per shard.
    pub region: ByteSize,
    /// Crash the fleet with this shard's NVRAM image lost outright,
    /// exercising the degraded rung of the recovery ladder.
    pub lose_shard: Option<usize>,
    /// Leave the final transfer in doubt (prepared everywhere, decision
    /// durable, no commit marker) when the fleet crashes: recovery must
    /// resolve it to commit from the coordinator log.
    pub in_doubt_tail: bool,
    /// Concurrent coordinators sharing one decision log; transfers are
    /// issued round-robin across them.
    pub coordinators: usize,
    /// Decisions buffered per fenced group record: N transfers share
    /// one decision fence. `1` writes one decision record per transfer.
    pub decision_group: usize,
}

impl CrossShardKvBench {
    /// Standard scale: 16 accounts per shard, 400 transfers, 60 %
    /// cross-shard, an in-doubt tail transfer.
    #[must_use]
    pub fn standard(shards: usize) -> Self {
        CrossShardKvBench {
            shards,
            accounts_per_shard: 16,
            transfers: 400,
            cross_shard_pct: 0.6,
            initial_balance: 20,
            region: ByteSize::kib(512),
            lose_shard: None,
            in_doubt_tail: true,
            coordinators: 1,
            decision_group: 1,
        }
    }

    /// Scaled down for tests and doc examples.
    #[must_use]
    pub fn quick(shards: usize) -> Self {
        CrossShardKvBench {
            shards,
            accounts_per_shard: 4,
            transfers: 40,
            cross_shard_pct: 0.6,
            initial_balance: 20,
            region: ByteSize::kib(256),
            lose_shard: None,
            in_doubt_tail: true,
            coordinators: 1,
            decision_group: 1,
        }
    }

    /// Runs the workload: seeds the fleet, drives every transfer
    /// through the two-phase seal, crashes all shards (and the
    /// coordinator) at once, resolves the wreckage against the decision
    /// log, and audits every surviving balance against the model.
    ///
    /// # Errors
    ///
    /// Propagates heap failures from any shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards < 2`, if `lose_shard` is out of range, if the
    /// pool parameters are zero (or `coordinators > 256`), or if
    /// recovery violates the all-or-nothing contract.
    pub fn run(&self, config: HeapConfig, seed: u64) -> Result<CrossShardKvReport, HeapError> {
        assert!(self.shards >= 2, "cross-shard transfers need two shards");
        assert!(
            (1..=256).contains(&self.coordinators),
            "coordinators must fit the gtxid layout"
        );
        assert!(self.decision_group >= 1, "decision group must be at least 1");
        if let Some(s) = self.lose_shard {
            assert!(s < self.shards, "lose_shard out of range");
        }
        let (report, capture) = obs::capture(|| self.run_pool_inner(config, seed));
        let mut report = report?;
        report.trace = capture.trace;
        report.metrics = capture.metrics;
        Ok(report)
    }

    /// The measured phase: transfers round-robin across `coordinators`,
    /// decisions buffered and sealed in groups of `decision_group` under
    /// one fence each. Accounts referenced by a buffered-but-unsettled
    /// decision are locked — the undo flavour applies prepared writes in
    /// place, so a new transfer touching one drains the pool first,
    /// keeping concurrently-prepared write sets pairwise disjoint.
    #[allow(clippy::too_many_lines)]
    fn run_pool_inner(&self, config: HeapConfig, seed: u64) -> Result<CrossShardKvReport, HeapError> {
        let mut rng = DetRng::seed_from_u64(seed);

        // Seed the fleet: one heap per shard, accounts on distinct
        // cache lines, everything sealed before the measured phase.
        let mut heaps: Vec<PersistentHeap> = Vec::with_capacity(self.shards);
        let mut accounts: Vec<Vec<PmPtr>> = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            let mut heap = PersistentHeap::create(self.region, config);
            let mut tx = heap.begin();
            let base = tx.alloc(self.accounts_per_shard as u64 * 64)?;
            let mut cells = Vec::with_capacity(self.accounts_per_shard);
            for i in 0..self.accounts_per_shard {
                let p = base.byte_offset(i as u64 * 64);
                tx.write_word(p, self.initial_balance)?;
                cells.push(p);
            }
            tx.set_root(base)?;
            tx.commit()?;
            heap.seal_epoch();
            heaps.push(heap);
            accounts.push(cells);
        }
        // The volatile mirror the audit checks against.
        let mut model: Vec<Vec<u64>> =
            vec![vec![self.initial_balance; self.accounts_per_shard]; self.shards];
        let total_balance =
            self.initial_balance * (self.shards * self.accounts_per_shard) as u64;

        let mut pool = CoordinatorPool::new(self.coordinators, self.decision_group);
        let clock = |pool: &CoordinatorPool, heaps: &[PersistentHeap]| {
            heaps.iter().fold(pool.elapsed(), |acc, h| acc + h.elapsed())
        };
        let t0 = clock(&pool, &heaps);
        let c0 = pool.elapsed();

        let mut outcomes: Vec<TransferOutcome> = Vec::with_capacity(self.transfers);
        let mut in_doubt_gtxid: Option<u64> = None;
        let mut decision_groups = 0usize;
        // Accounts referenced by a buffered (decided-but-unsealed)
        // transfer.
        let mut open: HashSet<(usize, usize)> = HashSet::new();
        for t in 0..self.transfers {
            let src_shard = rng.gen_range(0..self.shards);
            let cross = rng.gen::<f64>() < self.cross_shard_pct;
            let dst_shard = if cross {
                // A different shard, chosen uniformly among the others.
                let d = rng.gen_range(0..self.shards - 1);
                if d >= src_shard { d + 1 } else { d }
            } else {
                src_shard
            };
            let src_acct = rng.gen_range(0..self.accounts_per_shard);
            let dst_acct = if dst_shard == src_shard {
                // A different account on the same shard.
                let d = rng.gen_range(0..self.accounts_per_shard - 1);
                if d >= src_acct { d + 1 } else { d }
            } else {
                rng.gen_range(0..self.accounts_per_shard)
            };
            let amount = rng.gen_range(1..16u64);

            let transfer = Transfer {
                txn: t,
                src: (src_shard, src_acct),
                dst: (dst_shard, dst_acct),
                amount,
                cross_shard: dst_shard != src_shard,
            };
            let coordinator = t % self.coordinators;

            // Application-level admission check: an overdraft aborts
            // before anything touches NVRAM.
            if model[src_shard][src_acct] < amount {
                outcomes.push(TransferOutcome {
                    transfer,
                    outcome: TxnOutcome::Aborted {
                        reason: format!(
                            "insufficient funds: balance {} < amount {amount}",
                            model[src_shard][src_acct]
                        ),
                    },
                    resolved_in_doubt: false,
                });
                continue;
            }

            // Account conflict with an open group: flush the group
            // early so the write sets stay disjoint.
            if open.contains(&transfer.src) || open.contains(&transfer.dst) {
                if pool.drain(coordinator, &mut heaps)? > 0 {
                    decision_groups += 1;
                }
                open.clear();
            }

            let mut txn = pool.begin(coordinator, self.shards);
            txn.stage(
                src_shard,
                accounts[src_shard][src_acct].offset(),
                model[src_shard][src_acct] - amount,
            );
            let credited = model[dst_shard][dst_acct] + amount;
            txn.stage(dst_shard, accounts[dst_shard][dst_acct].offset(), credited);

            let last = t + 1 == self.transfers;
            if last && self.in_doubt_tail && config.flush_on_commit() {
                // Seal the whole open group (tail included) but run no
                // phase 2: every member crashes in doubt and recovery
                // must commit them all from the shared log.
                let refusal = pool.prepare(coordinator, &mut heaps, &txn)?;
                assert!(refusal.is_none(), "disjoint write sets cannot refuse");
                pool.buffer_decision(coordinator, &txn);
                pool.seal_decisions(coordinator);
                decision_groups += 1;
                in_doubt_gtxid = Some(txn.gtxid());
                model[src_shard][src_acct] -= amount;
                model[dst_shard][dst_acct] = credited;
                outcomes.push(TransferOutcome {
                    transfer,
                    outcome: TxnOutcome::Committed,
                    resolved_in_doubt: true,
                });
                continue;
            }

            match pool.submit(coordinator, &mut heaps, &txn)? {
                SubmitOutcome::Buffered => {
                    // The decision is buffered, not yet durable — but
                    // every group is drained before the final crash, so
                    // it will commit. Lock its accounts until then.
                    open.insert(transfer.src);
                    open.insert(transfer.dst);
                    model[src_shard][src_acct] -= amount;
                    model[dst_shard][dst_acct] = credited;
                    outcomes.push(TransferOutcome {
                        transfer,
                        outcome: TxnOutcome::Committed,
                        resolved_in_doubt: false,
                    });
                }
                SubmitOutcome::Committed { .. } => {
                    decision_groups += 1;
                    open.clear();
                    model[src_shard][src_acct] -= amount;
                    model[dst_shard][dst_acct] = credited;
                    outcomes.push(TransferOutcome {
                        transfer,
                        outcome: TxnOutcome::Committed,
                        resolved_in_doubt: false,
                    });
                }
                SubmitOutcome::Aborted { reason } => {
                    outcomes.push(TransferOutcome {
                        transfer,
                        outcome: TxnOutcome::Aborted { reason },
                        resolved_in_doubt: false,
                    });
                }
            }
        }
        // End-of-run flush of any open group (unless the in-doubt tail
        // already sealed it).
        if in_doubt_gtxid.is_none() && pool.drain(0, &mut heaps)? > 0 {
            decision_groups += 1;
        }
        let elapsed = clock(&pool, &heaps) - t0;
        let coordinator_ns = pool.elapsed() - c0;
        let wall = pool.wall();

        // Power fails everywhere at once; the lost shard (if any)
        // never produces an image.
        let coordinator_image = pool.crash_image();
        let images = heaps
            .into_iter()
            .enumerate()
            .map(|(shard, heap)| {
                if self.lose_shard == Some(shard) {
                    None
                } else {
                    // FoC shards recover from their logs alone; FoF
                    // shards get the whole-system save they rely on.
                    Some(heap.crash(!config.flush_on_commit()))
                }
            })
            .collect();
        let cluster = ClusterSpec::memcache_tier(self.shards.max(2));
        let recovery = resolve_cross_shard(&coordinator_image, images, &cluster);
        if let Some(gtxid) = in_doubt_gtxid {
            assert!(
                recovery.decided.contains(&gtxid),
                "the in-doubt tail transfer has a durable decision"
            );
        }

        // Audit every surviving shard cell-by-cell against the model.
        let mut degraded = None;
        let mut audited = HashSet::new();
        for mut shard_rec in recovery.shards {
            let shard = shard_rec.shard;
            if self.lose_shard == Some(shard) {
                let (reason, staleness) = match &shard_rec.outcome {
                    RecoveryOutcome::Degraded { rung, reason, took } => {
                        assert_eq!(*rung, LadderRung::ClusterRebuild);
                        (reason.clone(), *took)
                    }
                    other => panic!("lost shard {shard} must degrade, got {other:?}"),
                };
                let kind = match shard_rec.refusal {
                    Some(e @ WspError::BackendRecoveryRequired { .. }) => e.kind(),
                    other => panic!("lost shard {shard} needs a typed refusal, got {other:?}"),
                };
                degraded = Some(DegradedShard {
                    shard,
                    kind,
                    reason,
                    staleness,
                });
                continue;
            }
            let heap = shard_rec
                .heap
                .as_mut()
                .unwrap_or_else(|| panic!("shard {shard} must recover locally"));
            let mut check = heap.begin();
            for (acct, &cell) in accounts[shard].iter().enumerate() {
                let got = check.read_word(cell)?;
                assert_eq!(
                    got, model[shard][acct],
                    "shard {shard} account {acct} diverged after recovery"
                );
            }
            check.commit()?;
            audited.insert(shard);
        }

        let committed = outcomes
            .iter()
            .filter(|o| matches!(o.outcome, TxnOutcome::Committed))
            .count();
        let aborted = outcomes.len() - committed;
        let cross_shard = outcomes.iter().filter(|o| o.transfer.cross_shard).count();
        let model_total: u64 = model.iter().flatten().sum();

        Ok(CrossShardKvReport {
            config,
            shards: self.shards,
            transfers: self.transfers,
            cross_shard,
            committed,
            aborted,
            resolved_in_doubt: in_doubt_gtxid.is_some(),
            balance_conserved: model_total == total_balance,
            shards_audited: audited.len(),
            txns_per_sec: self.transfers as f64 / wall.as_secs_f64().max(1e-12),
            elapsed,
            decision_groups,
            wall,
            coordinator_ns,
            degraded,
            outcomes,
            trace: obs::Trace::default(),
            metrics: obs::MetricsSnapshot::default(),
        })
    }
}

/// How a cross-shard transfer ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The decision is durable and every participant holds its local
    /// commit marker (or will, once recovery resolves it in doubt).
    Committed,
    /// Aborted everywhere: an overdraft refused at admission, or a
    /// refused prepare rolled back on every already-prepared shard.
    Aborted {
        /// Why the transfer aborted.
        reason: String,
    },
}

/// One scripted transfer: debit `src`, credit `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Index in issue order.
    pub txn: usize,
    /// Debited `(shard, account)`.
    pub src: (usize, usize),
    /// Credited `(shard, account)`.
    pub dst: (usize, usize),
    /// Amount moved.
    pub amount: u64,
    /// True when debit and credit live on different shards.
    pub cross_shard: bool,
}

/// The fate of one transfer, including how the final crash resolved it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferOutcome {
    /// The transfer that was attempted.
    pub transfer: Transfer,
    /// Committed everywhere or aborted everywhere — 2PC admits nothing
    /// in between.
    pub outcome: TxnOutcome,
    /// True when the transfer was left prepared-but-unmarked at the
    /// crash and recovery resolved it to commit from the decision log.
    pub resolved_in_doubt: bool,
}

/// The typed verdict for a shard whose NVRAM image was lost mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedShard {
    /// The lost shard.
    pub shard: usize,
    /// Stable error-kind label of the refusal
    /// (`backend-recovery-required`).
    pub kind: &'static str,
    /// The human-readable refusal, including the staleness quote.
    pub reason: String,
    /// Quantified staleness: how long the cluster rebuild streams from
    /// the back end while peers serve stale reads.
    pub staleness: Nanos,
}

/// The merged result of one cross-shard transfer run.
#[derive(Debug, Clone)]
pub struct CrossShardKvReport {
    /// Heap configuration every shard ran.
    pub config: HeapConfig,
    /// Participant shards.
    pub shards: usize,
    /// Transfers issued.
    pub transfers: usize,
    /// Transfers that spanned two shards.
    pub cross_shard: usize,
    /// Transfers that committed everywhere.
    pub committed: usize,
    /// Transfers that aborted everywhere (overdrafts, refusals).
    pub aborted: usize,
    /// True when the final transfer crashed in doubt and recovery
    /// committed it from the decision log.
    pub resolved_in_doubt: bool,
    /// True when the post-recovery audit conserved the total balance.
    pub balance_conserved: bool,
    /// Shards audited cell-by-cell after recovery.
    pub shards_audited: usize,
    /// Simulated transfer throughput: transfers per second of the
    /// pool's wall clock ([`CoordinatorPool::wall`], the slowest
    /// coordinator), on which concurrent participants and coordinators
    /// overlap.
    pub txns_per_sec: f64,
    /// Simulated time of the measured phase summed over the shared
    /// decision log and every shard, with no overlap.
    pub elapsed: Nanos,
    /// Fenced decision records written: one per sealed group (the
    /// batching win).
    pub decision_groups: usize,
    /// The pool's wall clock at the end of the measured phase.
    pub wall: Nanos,
    /// Simulated time spent on the shared decision log alone — the
    /// coordinator-path cost that group sealing amortizes.
    pub coordinator_ns: Nanos,
    /// The lost shard's typed verdict, when `lose_shard` was set.
    pub degraded: Option<DegradedShard>,
    /// Per-transfer outcomes, in issue order.
    pub outcomes: Vec<TransferOutcome>,
    /// The run's trace (setup, transfers, crash resolution).
    pub trace: obs::Trace,
    /// The run's metrics.
    pub metrics: obs::MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_conserve_the_total_balance() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let report = CrossShardKvBench::quick(3).run(config, 42).unwrap();
            assert!(report.balance_conserved, "{config}");
            assert!(report.committed > 0, "{config}");
            assert!(report.cross_shard > 0, "{config}");
            assert!(report.resolved_in_doubt, "{config}");
            assert_eq!(report.shards_audited, 3, "{config}");
            assert!(report.txns_per_sec > 0.0, "{config}");
        }
    }

    #[test]
    fn same_seed_is_bitwise_identical() {
        let bench = CrossShardKvBench::quick(3);
        let a = bench.run(HeapConfig::FocUndo, 7).unwrap();
        let b = bench.run(HeapConfig::FocUndo, 7).unwrap();
        assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
        assert_eq!(a.txns_per_sec.to_bits(), b.txns_per_sec.to_bits());
        if let Err(report) = obs::diff_traces(&a.trace, &b.trace, obs::DiffMode::Full) {
            panic!("same-seed cross-shard traces diverge:\n{report}");
        }
        if let Some(diff) = a.metrics.first_difference(&b.metrics) {
            panic!("same-seed cross-shard metrics diverge: {diff}");
        }
    }

    #[test]
    fn overdrafts_abort_everywhere() {
        // Tiny balances force application-level aborts; the audit still
        // conserves the total.
        let bench = CrossShardKvBench {
            initial_balance: 3,
            ..CrossShardKvBench::quick(3)
        };
        let report = bench.run(HeapConfig::FocUndo, 11).unwrap();
        assert!(report.aborted > 0);
        assert!(report.balance_conserved);
    }

    #[test]
    fn losing_a_shard_degrades_with_quantified_staleness() {
        let bench = CrossShardKvBench {
            lose_shard: Some(1),
            ..CrossShardKvBench::quick(3)
        };
        let report = bench.run(HeapConfig::FocUndo, 42).unwrap();
        let degraded = report.degraded.expect("lost shard is reported");
        assert_eq!(degraded.shard, 1);
        assert_eq!(degraded.kind, "backend-recovery-required");
        assert!(degraded.staleness > Nanos::ZERO);
        assert!(degraded.reason.contains("rebuild"));
        // The survivors still audit clean.
        assert_eq!(report.shards_audited, 2);
    }

    #[test]
    fn pool_mode_batches_decisions_and_conserves_balance() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let bench = CrossShardKvBench {
                coordinators: 2,
                decision_group: 8,
                accounts_per_shard: 16,
                ..CrossShardKvBench::quick(3)
            };
            let report = bench.run(config, 42).unwrap();
            assert!(report.balance_conserved, "{config}");
            assert!(report.committed > 0, "{config}");
            assert!(report.resolved_in_doubt, "{config}");
            assert_eq!(report.shards_audited, 3, "{config}");
            // Batching: far fewer fenced decision records than commits.
            assert!(
                report.decision_groups < report.committed,
                "{config}: {} groups for {} commits",
                report.decision_groups,
                report.committed
            );
            // Concurrent coordinators overlap: the wall clock undercuts
            // the serial sum of simulated time.
            assert!(report.wall <= report.elapsed, "{config}");
        }
    }

    #[test]
    fn pool_mode_same_seed_is_bitwise_identical() {
        let bench = CrossShardKvBench {
            coordinators: 4,
            decision_group: 4,
            accounts_per_shard: 16,
            ..CrossShardKvBench::quick(3)
        };
        let a = bench.run(HeapConfig::FocUndo, 7).unwrap();
        let b = bench.run(HeapConfig::FocUndo, 7).unwrap();
        assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
        assert_eq!(a.decision_groups, b.decision_groups);
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.txns_per_sec.to_bits(), b.txns_per_sec.to_bits());
        if let Err(report) = obs::diff_traces(&a.trace, &b.trace, obs::DiffMode::Full) {
            panic!("same-seed pool traces diverge:\n{report}");
        }
        if let Some(diff) = a.metrics.first_difference(&b.metrics) {
            panic!("same-seed pool metrics diverge: {diff}");
        }
    }

    #[test]
    fn group_size_one_pool_writes_one_record_per_commit() {
        let bench = CrossShardKvBench {
            coordinators: 2,
            decision_group: 1,
            ..CrossShardKvBench::quick(3)
        };
        let report = bench.run(HeapConfig::FocUndo, 9).unwrap();
        assert!(report.balance_conserved);
        assert_eq!(report.decision_groups, report.committed);
    }

    #[test]
    fn grouping_cuts_coordinator_path_time() {
        let grouped = CrossShardKvBench {
            decision_group: 16,
            accounts_per_shard: 32,
            transfers: 120,
            ..CrossShardKvBench::quick(3)
        };
        let per_commit = CrossShardKvBench {
            decision_group: 1,
            ..grouped
        };
        let g = grouped.run(HeapConfig::FocUndo, 21).unwrap();
        let c = per_commit.run(HeapConfig::FocUndo, 21).unwrap();
        assert!(
            g.coordinator_ns < c.coordinator_ns,
            "grouped {:?} vs per-commit {:?}",
            g.coordinator_ns,
            c.coordinator_ns
        );
    }

    #[test]
    fn fof_shards_refuse_every_transfer() {
        // Flush-on-fail shards cannot make a PREPARED record durable
        // ahead of the decision, so every transfer aborts (typed), and
        // nothing ever moves.
        let bench = CrossShardKvBench {
            in_doubt_tail: false,
            ..CrossShardKvBench::quick(2)
        };
        let report = bench.run(HeapConfig::Fof, 5).unwrap();
        assert_eq!(report.committed, 0);
        assert_eq!(report.aborted, report.transfers);
        assert!(report.balance_conserved);
    }
}
