//! Workloads for the WSP evaluation: persistent data structures built on
//! the `wsp-pheap` transactional API, the paper's two benchmarks, and
//! key/workload generators.
//!
//! * [`PmHashTable`] — the separate-chaining hash table of the Figure 5
//!   microbenchmark (100 k entries pre-populated, 1 M mixed operations).
//! * [`PmAvlTree`] — the AVL tree that replaces Berkeley DB as
//!   OpenLDAP's store in the paper's Table 1 experiment.
//! * [`Directory`] — an LDAP-like directory server over the AVL tree.
//! * [`HashBenchmark`] / [`LdapBenchmark`] — drivers that run those
//!   workloads against any heap configuration and report simulated
//!   time per operation / throughput.
//!
//! Because the data structures go through the transactional heap, the
//! same workload code runs under Mnemosyne-style flush-on-commit STM,
//! undo logging, or plain flush-on-fail — which is precisely the
//! comparison the paper makes.
//!
//! # Examples
//!
//! ```
//! use wsp_pheap::{HeapConfig, PersistentHeap};
//! use wsp_units::ByteSize;
//! use wsp_workloads::PmHashTable;
//!
//! let mut heap = PersistentHeap::create(ByteSize::mib(1), HeapConfig::FocUndo);
//! let table = PmHashTable::create(&mut heap, 64)?;
//! table.insert(&mut heap, 7, 700)?;
//! assert_eq!(table.get(&mut heap, 7)?, Some(700));
//!
//! // Crash without a flush-on-fail save: FoC recovers from its log.
//! let mut heap = PersistentHeap::recover(heap.crash(false))?;
//! let table = PmHashTable::open(&mut heap)?;
//! assert_eq!(table.get(&mut heap, 7)?, Some(700));
//! # Ok::<(), wsp_pheap::HeapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avl;
mod bench;
mod btree;
mod contention;
mod directory;
mod generators;
mod hashtable;
mod kvserver;
mod queue;
mod shard;
mod storm;
mod xshard;
mod ycsb;

pub use avl::PmAvlTree;
pub use bench::{BenchResult, HashBenchmark, LdapBenchmark, LdapResult};
pub use btree::PmBTree;
pub use contention::{ContentionHarness, ContentionReport};
pub use directory::{DirEntry, Directory};
pub use generators::{random_dn, KeyDistribution, Op, OpMix, Zipfian};
pub use hashtable::PmHashTable;
pub use kvserver::{Command, KvServer, ProtocolError, Response, ServeError};
pub use queue::PmQueue;
pub use shard::{kv_worker_threads, ShardOutcome, ShardedKvBench, ShardedKvReport};
pub use storm::{PowerStormBench, PowerStormSoakReport};
pub use xshard::{
    CrossShardKvBench, CrossShardKvReport, DegradedShard, Transfer, TransferOutcome, TxnOutcome,
};
pub use ycsb::{YcsbDriver, YcsbMix, YcsbResult};
