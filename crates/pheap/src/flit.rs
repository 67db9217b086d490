//! FliT-style per-word flush tracking.
//!
//! The FoC fast path pays an instrumentation tax on every access: STM
//! reads scan the write set for read-your-own-writes, writes append
//! unconditionally, and the epoch committer keeps its own address map —
//! three lookups that all answer the same question, "does this word
//! already have a pending record somewhere?". FliT's observation is
//! that one small, L1-resident counter table can answer it in a single
//! probe, and that a hit means every downstream persistence action
//! (log record, clflush, fence) for that word is redundant and can be
//! elided.
//!
//! [`FlitTable`] is that table. Each entry is keyed by a word address
//! and carries **two** generation-tagged slots:
//!
//! * a *transaction* slot — `(tx_gen, tx_slot)` pointing into the open
//!   transaction's write set, valid only while `tx_gen` equals the
//!   current txid (txids are unique per heap, so stale entries
//!   invalidate themselves the moment a new transaction begins — no
//!   table sweep);
//! * an *epoch* slot — `(epoch_gen, epoch_slot)` pointing into one of
//!   the epoch committer's write-behind batches, valid only while
//!   `epoch_gen` matches a live batch generation (sealing a batch bumps
//!   the generation, invalidating every entry that pointed at it in
//!   O(1)).
//!
//! Both slots live in the same entry on purpose: a transactional write
//! over an epoch-buffered word must not destroy the epoch's slot info
//! (an abort would then read stale memory), and a read wants both
//! answers from one probe.
//!
//! The entries live in the heap's one [`OpenTable`], the same table as
//! the dirty-line overlay. Nothing is ever removed — generation tags
//! make entries self-invalidating, and the population is bounded by the
//! heap's distinct hot words, so the table plateaus at working-set size
//! and stays cache-resident.

use crate::linetable::{OpenTable, Slot};

/// Generation tag for "never written". Txids and epoch generations both
/// start at 1, so 0 matches nothing.
const NEVER: u64 = 0;

/// One tracked word: where its pending records live, if anywhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitEntry {
    /// Txid of the transaction whose write set holds this word, or
    /// [`NEVER`].
    pub(crate) tx_gen: u64,
    /// Index into that transaction's write set.
    pub(crate) tx_slot: usize,
    /// Generation of the epoch batch buffering this word, or
    /// [`NEVER`].
    pub(crate) epoch_gen: u64,
    /// Index into that batch's buffered vector.
    pub(crate) epoch_slot: usize,
}

impl Slot for FlitEntry {
    const VACANT: Self = FlitEntry {
        tx_gen: NEVER,
        tx_slot: 0,
        epoch_gen: NEVER,
        epoch_slot: 0,
    };
}

/// The per-word flush-tracking table: word address → pending-record
/// locations, generation-tagged for O(1) bulk invalidation.
#[derive(Debug, Clone)]
pub(crate) struct FlitTable(OpenTable<FlitEntry>);

impl FlitTable {
    pub(crate) fn new() -> Self {
        FlitTable(OpenTable::new())
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// One probe answering both "is this word in the open transaction's
    /// write set?" and "is it in a live epoch batch?". The caller
    /// validates the generation tags against its current txid and batch
    /// generations; a copy is returned so no borrow is held.
    #[inline]
    pub(crate) fn lookup(&self, addr: u64) -> Option<FlitEntry> {
        self.0.get(addr).copied()
    }

    /// Records that `addr` now lives at `write_set[tx_slot]` of the
    /// transaction `tx_gen`. Preserves any epoch slot already tracked.
    pub(crate) fn note_tx_write(&mut self, addr: u64, tx_gen: u64, tx_slot: usize) {
        let e = self.0.get_mut_or_insert_with(addr, || FlitEntry::VACANT);
        e.tx_gen = tx_gen;
        e.tx_slot = tx_slot;
    }

    /// Records that `addr` now lives at `buffered[epoch_slot]` of the
    /// epoch batch `epoch_gen`. Preserves any transaction slot already
    /// tracked.
    pub(crate) fn note_epoch_write(&mut self, addr: u64, epoch_gen: u64, epoch_slot: usize) {
        let e = self.0.get_mut_or_insert_with(addr, || FlitEntry::VACANT);
        e.epoch_gen = epoch_gen;
        e.epoch_slot = epoch_slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_round_trip() {
        let mut t = FlitTable::new();
        assert!(t.lookup(64).is_none());
        t.note_tx_write(64, 3, 7);
        let e = t.lookup(64).expect("entry");
        assert_eq!(e.tx_gen, 3);
        assert_eq!(e.tx_slot, 7);
        assert_eq!(e.epoch_gen, NEVER, "epoch slot untouched");
    }

    #[test]
    fn tx_and_epoch_slots_are_independent() {
        let mut t = FlitTable::new();
        t.note_epoch_write(128, 5, 2);
        t.note_tx_write(128, 9, 0);
        let e = t.lookup(128).expect("entry");
        assert_eq!((e.tx_gen, e.tx_slot), (9, 0));
        assert_eq!(
            (e.epoch_gen, e.epoch_slot),
            (5, 2),
            "tx write must not clobber the epoch slot"
        );
        t.note_epoch_write(128, 6, 11);
        let e = t.lookup(128).expect("entry");
        assert_eq!((e.tx_gen, e.tx_slot), (9, 0), "and vice versa");
        assert_eq!((e.epoch_gen, e.epoch_slot), (6, 11));
    }

    #[test]
    fn updates_do_not_grow_the_table() {
        let mut t = FlitTable::new();
        for round in 1..=10 {
            t.note_tx_write(8, round, round as usize);
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(8).expect("entry").tx_gen, 10);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut t = FlitTable::new();
        for i in 0..500u64 {
            t.note_tx_write(i * 8, 1, i as usize);
            t.note_epoch_write(i * 8, 2, i as usize);
        }
        assert_eq!(t.len(), 500);
        for i in 0..500u64 {
            let e = t.lookup(i * 8).expect("entry survives rehash");
            assert_eq!(e.tx_slot, i as usize);
            assert_eq!(e.epoch_slot, i as usize);
        }
        assert!(t.lookup(500 * 8).is_none());
    }

    #[test]
    fn stale_generations_are_callers_problem_but_distinguishable() {
        // The table never deletes; callers compare generation tags.
        let mut t = FlitTable::new();
        t.note_tx_write(16, 1, 0);
        let e = t.lookup(16).expect("entry");
        assert_ne!(e.tx_gen, 2, "a new txid sees the tag mismatch");
    }
}
