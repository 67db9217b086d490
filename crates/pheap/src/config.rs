//! Heap configurations (the five bars of Figure 5) and the fixed
//! instrumentation costs.

use std::fmt;

/// The five persistent-heap configurations the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapConfig {
    /// Flush-on-commit with STM: the default Mnemosyne configuration
    /// (instrumented reads, redo log written with fenced non-temporal
    /// stores, cache-line flushes at log truncation).
    FocStm,
    /// Flush-on-commit with undo logging and no concurrency control (the
    /// paper's "minimal NV-heap").
    FocUndo,
    /// STM instrumentation and redo logging, but all log appends and data
    /// writes stay in cache (flush-on-fail handles durability).
    FofStm,
    /// Undo logging in-cache, no flushes.
    FofUndo,
    /// Plain in-memory operation: no transactions, no logging — the WSP
    /// programming model.
    Fof,
}

impl HeapConfig {
    /// All configurations, in Figure 5's legend order.
    #[must_use]
    pub fn all() -> [HeapConfig; 5] {
        [
            HeapConfig::FocStm,
            HeapConfig::FocUndo,
            HeapConfig::FofStm,
            HeapConfig::FofUndo,
            HeapConfig::Fof,
        ]
    }

    /// Whether reads/writes are STM-instrumented (write buffered in a
    /// write set, reads validated at commit).
    #[must_use]
    pub fn uses_stm(self) -> bool {
        matches!(self, HeapConfig::FocStm | HeapConfig::FofStm)
    }

    /// Whether first writes are undo-logged and applied in place.
    #[must_use]
    pub fn uses_undo_log(self) -> bool {
        matches!(self, HeapConfig::FocUndo | HeapConfig::FofUndo)
    }

    /// Whether commits write redo records (STM configurations).
    #[must_use]
    pub fn uses_redo_log(self) -> bool {
        self.uses_stm()
    }

    /// Whether log records and data updates are synchronously made
    /// durable (non-temporal stores + fences, commit-time flushes).
    #[must_use]
    pub fn flush_on_commit(self) -> bool {
        matches!(self, HeapConfig::FocStm | HeapConfig::FocUndo)
    }

    /// Whether the heap runs transactions at all.
    #[must_use]
    pub fn transactional(self) -> bool {
        self != HeapConfig::Fof
    }

    /// The label used in Figure 5.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HeapConfig::FocStm => "FoC + STM",
            HeapConfig::FocUndo => "FoC + UL",
            HeapConfig::FofStm => "FoF + STM",
            HeapConfig::FofUndo => "FoF + UL",
            HeapConfig::Fof => "FoF",
        }
    }

    /// Stable numeric code stored in the region header so recovery knows
    /// which configuration wrote an image.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            HeapConfig::FocStm => 1,
            HeapConfig::FocUndo => 2,
            HeapConfig::FofStm => 3,
            HeapConfig::FofUndo => 4,
            HeapConfig::Fof => 5,
        }
    }

    /// Inverse of [`HeapConfig::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(HeapConfig::FocStm),
            2 => Some(HeapConfig::FocUndo),
            3 => Some(HeapConfig::FofStm),
            4 => Some(HeapConfig::FofUndo),
            5 => Some(HeapConfig::Fof),
            _ => None,
        }
    }
}

impl fmt::Display for HeapConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Instrumentation costs that are *not* memory accesses: compiler-inserted
/// read/write barriers, transactional-context setup, commit-time
/// validation. Calibrated against the paper's observations (e.g. the 60 %
/// read-only overhead of FoC + UL comes almost entirely from [`cost::TX_BEGIN`]).
pub mod cost {
    use wsp_units::Nanos;

    /// Creating a transactional context (stack setup, log reservation).
    pub const TX_BEGIN: Nanos = Nanos::new(40);
    /// Per instrumented read: write-set lookup on the read path.
    pub const STM_READ: Nanos = Nanos::new(35);
    /// Per instrumented write: write-set append.
    pub const STM_WRITE: Nanos = Nanos::new(40);
    /// Additional read cost per write-set entry scanned for
    /// read-your-own-writes.
    pub const STM_WS_SCAN: Nanos = Nanos::new(1);
    /// Per-record cost of a *flushed* redo-log append (streaming-store
    /// pipeline stalls and torn-bit bookkeeping on the Mnemosyne path).
    pub const REDO_APPEND: Nanos = Nanos::new(60);
    /// Commit-time validation, per read-set entry.
    pub const STM_VALIDATE: Nanos = Nanos::new(10);
    /// Per write in an undo-logged transaction: "already logged?" check.
    pub const UNDO_CHECK: Nanos = Nanos::new(8);
    /// Per read under epoch group commit: one hash probe of the epoch's
    /// write-behind buffer. Much cheaper than [`STM_READ`] — no version
    /// checks or ownership records, just an L1-resident lookup.
    pub const EPOCH_LOOKUP: Nanos = Nanos::new(6);
    /// Per write under epoch group commit: appending to the volatile
    /// write-behind buffer (vector push + index insert).
    pub const EPOCH_BUFFER: Nanos = Nanos::new(12);
    /// Per access with FliT tracking active: one probe of the
    /// L1-resident per-word flush table. Replaces the separate
    /// write-set scan ([`STM_READ`] + [`STM_WS_SCAN`]) and epoch-buffer
    /// lookup ([`EPOCH_LOOKUP`]) — the table answers both questions in
    /// one cache hit.
    pub const FLIT_PROBE: Nanos = Nanos::new(5);
    /// Per tracked write whose word already has a pending record: the
    /// in-place value update that elides a redundant log record and
    /// flush.
    pub const FLIT_HIT: Nanos = Nanos::new(4);
    /// Per tracked write to a word with no pending record: table insert
    /// plus write-set append.
    pub const FLIT_INSERT: Nanos = Nanos::new(9);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for c in HeapConfig::all() {
            assert_eq!(HeapConfig::from_code(c.code()), Some(c));
        }
        assert_eq!(HeapConfig::from_code(0), None);
        assert_eq!(HeapConfig::from_code(99), None);
    }

    #[test]
    fn flag_matrix_matches_paper_table() {
        use HeapConfig::*;
        assert!(FocStm.uses_stm() && FocStm.flush_on_commit() && FocStm.uses_redo_log());
        assert!(FocUndo.uses_undo_log() && FocUndo.flush_on_commit() && !FocUndo.uses_stm());
        assert!(FofStm.uses_stm() && !FofStm.flush_on_commit());
        assert!(FofUndo.uses_undo_log() && !FofUndo.flush_on_commit());
        assert!(!Fof.transactional() && !Fof.flush_on_commit());
    }

    #[test]
    fn labels_are_figure5_legend() {
        let labels: Vec<_> = HeapConfig::all().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            ["FoC + STM", "FoC + UL", "FoF + STM", "FoF + UL", "FoF"]
        );
    }
}
