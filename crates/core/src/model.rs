//! The one reference model behind every heap-level crash check.
//!
//! Every heap sweep (mid-transaction, mid-epoch, cross-shard 2PC, power
//! storm) and the 2PC property tests start from the same committed
//! baseline — a fleet of heaps, each holding a row of root-reachable
//! cells — and check recovery against the same oracle: that baseline
//! overlaid by exactly the writes the crash point made durable.
//! [`committed_fleet`] builds the baseline and its [`CellModel`]; the
//! caller overlays what committed ([`CellModel::set`],
//! [`CellModel::apply`]) and audits the recovered heaps against it
//! ([`CellModel::audit`], [`CellModel::audit_fleet`]).

use std::fmt::Display;

use wsp_det::{DetRng, Rng};
use wsp_pheap::{HeapConfig, PersistentHeap, PmPtr};
use wsp_units::{ByteSize, Nanos};

use crate::ladder::{LadderRung, RecoveryOutcome};
use crate::txn::ClusterTxnRecovery;
use crate::WspError;

/// The committed baseline every heap-level crash check starts from:
/// `heaps` fresh heaps, each holding `cells` root-reachable cells
/// `stride` bytes apart, with values drawn from `rng` heap by heap, cell
/// by cell. Cell 0 of each heap is its root.
///
/// # Panics
///
/// Panics when `cells * stride` does not fit a fresh 256 KiB heap.
#[must_use]
pub fn committed_fleet(
    config: HeapConfig,
    heaps: usize,
    cells: usize,
    stride: u64,
    rng: &mut DetRng,
) -> (Vec<PersistentHeap>, CellModel) {
    let (fleet, shards) = (0..heaps)
        .map(|_| {
            let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
            let mut tx = heap.begin();
            let base = tx
                .alloc(cells as u64 * stride)
                .expect("fresh heap has room");
            let row = (0..cells as u64)
                .map(|i| {
                    let p = base.byte_offset(i * stride);
                    let v = rng.gen::<u64>();
                    tx.write_word(p, v).expect("fresh allocation is writable");
                    (p, v)
                })
                .collect();
            tx.set_root(base).expect("root update");
            tx.commit().expect("baseline commit on a fresh heap");
            (heap, row)
        })
        .unzip();
    (fleet, CellModel { shards })
}

/// The expected value of every cell of a sharded fleet: per shard, each
/// cell's location and the value recovery must show there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellModel {
    shards: Vec<Vec<(PmPtr, u64)>>,
}

impl CellModel {
    /// Shards in the fleet.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Where `cell` of `shard` lives.
    #[must_use]
    pub fn cell(&self, shard: usize, cell: usize) -> PmPtr {
        self.shards[shard][cell].0
    }

    /// The value recovery must show in `cell` of `shard`.
    #[must_use]
    pub fn value(&self, shard: usize, cell: usize) -> u64 {
        self.shards[shard][cell].1
    }

    /// Records that `value` is now durable in `cell` of `shard`.
    pub fn set(&mut self, shard: usize, cell: usize, value: u64) {
        self.shards[shard][cell].1 = value;
    }

    /// Overlays a durable write set of `(shard, cell, value)` triples,
    /// in order (a later write to the same cell wins).
    pub fn apply(&mut self, ops: &[(usize, usize, u64)]) {
        for &(shard, cell, value) in ops {
            self.set(shard, cell, value);
        }
    }

    /// Checks that the recovered `heap` of `shard` is still rooted at
    /// cell 0, then reads every cell in one read-only transaction and
    /// checks it against the model.
    ///
    /// # Panics
    ///
    /// Panics naming `at` and the shard on a lost root, or the cell on
    /// the first mismatch.
    pub fn audit(&self, shard: usize, heap: &mut PersistentHeap, at: impl Display) {
        assert_eq!(heap.root(), Some(self.cell(shard, 0)), "{at}: shard {shard} root");
        let mut check = heap.begin();
        for (cell, &(p, want)) in self.shards[shard].iter().enumerate() {
            let got = check
                .read_word(p)
                .unwrap_or_else(|e| panic!("{at}: shard {shard} cell {cell} unreadable: {e}"));
            assert_eq!(
                got,
                want,
                "{at}: shard {shard} cell {cell} ({:#x})",
                p.offset()
            );
        }
        check.commit().expect("read-only commit");
    }

    /// This model with `shard`'s values replaced by what `heap` holds in
    /// its cells, read in one read-only transaction: equal to an
    /// expected model exactly when the heap matches it.
    ///
    /// # Panics
    ///
    /// Panics naming the cell when one is unreadable.
    #[must_use]
    pub fn observe(&self, shard: usize, heap: &mut PersistentHeap) -> CellModel {
        let mut seen = self.clone();
        let mut check = heap.begin();
        for (cell, slot) in seen.shards[shard].iter_mut().enumerate() {
            slot.1 = check
                .read_word(slot.0)
                .unwrap_or_else(|e| panic!("shard {shard} cell {cell} unreadable: {e}"));
        }
        check.commit().expect("read-only commit");
        seen
    }

    /// Checks a fleet-wide 2PC recovery. The `lost` shard, if any, must
    /// hold the lost-shard contract: a [`RecoveryOutcome::Degraded`]
    /// verdict at [`LadderRung::ClusterRebuild`] with a non-empty reason
    /// and a quantified rebuild time, plus a typed
    /// [`WspError::BackendRecoveryRequired`] refusal. Every other shard
    /// must have recovered a heap that passes [`CellModel::audit`].
    ///
    /// # Panics
    ///
    /// Panics naming `at` and the shard on any violation.
    pub fn audit_fleet(&self, recovery: ClusterTxnRecovery, lost: Option<usize>, at: impl Display) {
        assert_eq!(recovery.shards.len(), self.shards(), "{at}: fleet size");
        for mut shard_rec in recovery.shards {
            let shard = shard_rec.shard;
            if lost == Some(shard) {
                let RecoveryOutcome::Degraded { rung, reason, took } = &shard_rec.outcome else {
                    panic!(
                        "{at}: lost shard {shard} must degrade, got {:?}",
                        shard_rec.outcome
                    );
                };
                assert!(
                    *rung == LadderRung::ClusterRebuild
                        && !reason.is_empty()
                        && *took > Nanos::ZERO,
                    "{at}: lost shard {shard} must degrade to a quantified cluster rebuild, \
                     got {:?}",
                    shard_rec.outcome
                );
                assert!(
                    matches!(
                        shard_rec.refusal,
                        Some(WspError::BackendRecoveryRequired { .. })
                    ),
                    "{at}: lost shard {shard} needs a typed refusal"
                );
                continue;
            }
            let heap = shard_rec
                .heap
                .as_mut()
                .unwrap_or_else(|| panic!("{at}: shard {shard} must recover"));
            self.audit(shard, heap, &at);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use wsp_cluster::ClusterSpec;

    use super::*;
    use crate::txn::{resolve_cross_shard, CoordinatorPool};

    fn panic_message(result: std::thread::Result<()>) -> String {
        *result
            .expect_err("the audit must fail")
            .downcast::<String>()
            .expect("a formatted panic message")
    }

    #[test]
    fn the_oracle_fails_on_a_wrong_expectation() {
        let mut rng = DetRng::seed_from_u64(11);
        let (heaps, mut model) = committed_fleet(HeapConfig::FocStm, 3, 4, 64, &mut rng);
        let images: Vec<_> = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        let coordinator_image = CoordinatorPool::new(1, 1).crash_image();
        let resolve = || {
            resolve_cross_shard(
                &coordinator_image,
                images.clone(),
                &ClusterSpec::memcache_tier(8),
            )
        };
        model.audit_fleet(resolve(), None, "intact");

        model.set(1, 2, model.value(1, 2) ^ 1);
        let mut recovery = resolve();
        let heap = recovery.shards[1].heap.as_mut().unwrap();
        let single = panic_message(catch_unwind(AssertUnwindSafe(|| {
            model.audit(1, heap, "mutated");
        })));
        assert!(single.contains("mutated: shard 1 cell 2"), "{single}");
        let fleet = panic_message(catch_unwind(AssertUnwindSafe(|| {
            model.audit_fleet(recovery, None, "mutated fleet");
        })));
        assert!(fleet.contains("mutated fleet: shard 1 cell 2"), "{fleet}");
    }
}
