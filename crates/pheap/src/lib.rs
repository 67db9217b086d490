//! NVRAM-backed persistent heaps with exact crash semantics — the
//! baseline the WSP paper argues against, implemented for real.
//!
//! The paper's §5.1 evaluation compares five configurations of a
//! persistent heap on an NVRAM machine (Figure 5):
//!
//! | Config      | Concurrency control | Logging   | Flush policy       |
//! |-------------|---------------------|-----------|--------------------|
//! | `FoC + STM` | STM (read/write sets, conflict detection) | redo log | flush-on-commit (Mnemosyne) |
//! | `FoC + UL`  | none                | undo log  | flush-on-commit    |
//! | `FoF + STM` | STM                 | redo log  | flush-on-fail (in-cache) |
//! | `FoF + UL`  | none                | undo log  | flush-on-fail      |
//! | `FoF`       | none                | none      | flush-on-fail      |
//!
//! Everything here actually executes against a cache-mediated NVRAM
//! ([`PersistentMemory`]): ordinary stores dirty simulated cache lines
//! whose contents are *lost* on an unflushed crash, non-temporal stores
//! reach NVRAM at the next fence, and `clflush`/`wbinvd` write lines
//! back. Crash-consistency is therefore genuinely exercised: an undo log
//! written without fences really does corrupt recovery, and the property
//! tests in this crate crash heaps at arbitrary points and verify that
//! committed transactions survive and uncommitted ones vanish.
//!
//! The simulated time charged for every access is the paper's performance
//! story: flush-on-commit pays memory round-trips inside every
//! transaction, flush-on-fail pays nothing until a failure actually
//! happens.
//!
//! # Examples
//!
//! ```
//! use wsp_pheap::{HeapConfig, PersistentHeap};
//! use wsp_units::ByteSize;
//!
//! let mut heap = PersistentHeap::create(ByteSize::mib(4), HeapConfig::FocUndo);
//! let mut tx = heap.begin();
//! let node = tx.alloc(16)?;
//! tx.write_word(node, 42)?;
//! tx.set_root(node)?;
//! tx.commit()?;
//!
//! // Power fails with no flush-on-fail save: only flushed state survives.
//! let image = heap.crash(false);
//! let mut recovered = PersistentHeap::recover(image)?;
//! let root = recovered.root().expect("committed root survives");
//! let mut tx = recovered.begin();
//! assert_eq!(tx.read_word(root)?, 42);
//! # Ok::<(), wsp_pheap::HeapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod backend;
mod config;
mod error;
mod fasthash;
mod flit;
mod heap;
mod heap_stats;
mod linetable;
pub mod lockfree;
mod log;
mod mem;
mod stm;

pub use alloc::FreeListAllocator;
pub use backend::{BackendStore, RecoveryLadder, RecoverySource};
pub use config::{cost, HeapConfig};
pub use error::HeapError;
pub use heap::{
    CrashImage, EpochCommitter, PersistentHeap, PmPtr, Tx, TxnResolution, GTXID_BASE,
};
pub use heap_stats::HeapStats;
pub use log::{
    pack_group_entry, unpack_group_entry, LogRecord, RecordKind, TornLog, GROUP_ENTRY_GEN_MAX,
    GROUP_ENTRY_GEN_SHIFT,
};
pub use mem::PersistentMemory;
pub use stm::Stm;
