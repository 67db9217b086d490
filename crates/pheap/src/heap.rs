//! The persistent heap: region layout, transactions, commit protocols,
//! crash images and recovery — in all five paper configurations.

use std::collections::HashSet;

use crate::fasthash::{FastMap, FastSet};

use wsp_cache::{CpuProfile, LineWalk, LINE_SIZE};
use wsp_obs as obs;
use wsp_units::{ByteSize, Nanos};

use crate::alloc::WordStore;
use crate::flit::FlitTable;
use crate::{
    FreeListAllocator, HeapConfig, HeapError, HeapStats, LogRecord, OverheadModel,
    PersistentMemory, RecordKind, Stm, TornLog,
};

/// Region magic ("WSPHEAP0" as little-endian bytes).
const MAGIC: u64 = 0x3050_4145_4850_5357;
const MAGIC_ADDR: u64 = 0;
const CONFIG_ADDR: u64 = 8;
const ROOT_ADDR: u64 = 16;
const TAIL_PTR_ADDR: u64 = 24;
const ALLOC_HEAD_ADDR: u64 = 32;
/// The log area starts one page in; everything before it is header.
const LOG_BASE: u64 = 4096;

/// Log area size for a region: 1/16th of capacity, clamped to
/// [8 KiB, 4 MiB].
fn log_capacity(region: ByteSize) -> ByteSize {
    let raw = region.as_u64() / 16;
    ByteSize::new(raw.clamp(8 * 1024, 4 * 1024 * 1024) / 8 * 8)
}

/// A typed offset into the heap region (never null; absent pointers are
/// `Option<PmPtr>`).
///
/// # Examples
///
/// ```
/// use wsp_pheap::PmPtr;
///
/// let node = PmPtr::new(4096 * 3).unwrap();
/// assert_eq!(node.field(2).offset(), node.offset() + 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PmPtr(u64);

impl PmPtr {
    /// Wraps a non-zero, 8-byte-aligned region offset.
    #[must_use]
    pub fn new(offset: u64) -> Option<Self> {
        (offset != 0 && offset.is_multiple_of(8)).then_some(PmPtr(offset))
    }

    /// The raw region offset.
    #[must_use]
    pub const fn offset(self) -> u64 {
        self.0
    }

    /// The pointer to the `index`-th 8-byte field of the object.
    #[must_use]
    pub const fn field(self, index: u64) -> PmPtr {
        PmPtr(self.0 + index * 8)
    }

    /// The pointer `bytes` past this one.
    #[must_use]
    pub const fn byte_offset(self, bytes: u64) -> PmPtr {
        PmPtr(self.0 + bytes)
    }
}

/// Global (cross-shard) transaction ids live in a disjoint high range so
/// shard-local txids and two-phase-commit txids can share one log
/// without colliding: an epoch-commit marker covers every txid *at or
/// below* its own, and global ids above this base can never be swept
/// into local epoch coverage. (Log headers pack the txid into 55 bits,
/// so the range stays far from the packing limit.)
pub const GTXID_BASE: u64 = 1 << 48;

/// What distributed-transaction resolution found in a recovered shard
/// log: the global txids whose PREPARED marker was durable but that held
/// no local decision marker, and how each was resolved against the
/// coordinator's decision log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnResolution {
    /// Prepared, locally undecided global txids, in log order.
    pub in_doubt: Vec<u64>,
    /// In-doubt txids the coordinator's decision log confirmed
    /// committed.
    pub committed: Vec<u64>,
    /// In-doubt txids resolved by presumed abort.
    pub aborted: Vec<u64>,
}

/// Volatile bookkeeping for a prepared-but-undecided global transaction.
#[derive(Debug, Clone)]
struct PreparedTxn {
    /// Coalesced write set (final values), first-write order.
    writes: Vec<(u64, u64)>,
    /// Old values logged by the undo flavour, append order.
    olds: Vec<(u64, u64)>,
}

/// The durable bytes surviving a power failure, plus what the hardware
/// knows about how the failure went.
#[derive(Debug, Clone)]
pub struct CrashImage {
    bytes: Vec<u8>,
    fof_save_completed: bool,
    profile: CpuProfile,
}

impl CrashImage {
    /// Builds an image from raw parts — used by the recovery ladder to
    /// turn a back-end checkpoint back into a recoverable image.
    #[must_use]
    pub fn new(bytes: Vec<u8>, fof_save_completed: bool, profile: CpuProfile) -> Self {
        CrashImage {
            bytes,
            fof_save_completed,
            profile,
        }
    }

    /// The CPU profile the image's heap ran on.
    #[must_use]
    pub fn profile(&self) -> &CpuProfile {
        &self.profile
    }

    /// Whether the flush-on-fail save ran to completion before power was
    /// lost.
    #[must_use]
    pub fn fof_save_completed(&self) -> bool {
        self.fof_save_completed
    }

    /// The raw durable bytes (inspection/testing).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Volatile state of the epoch-based group-commit mode: transactions
/// batched into the currently open durability epoch.
///
/// With an epoch size of N, the heap makes state durable once per N
/// transactions instead of once per transaction. Committed write-sets are
/// buffered *write-behind* in volatile memory — NVRAM sees no log traffic
/// and no data stores until the epoch seals. The seal coalesces the
/// buffer down to one log record per distinct address and one flush per
/// distinct line (the shared [`LineWalk`] sort-dedup walk), then writes
/// one fenced [`RecordKind::EpochCommit`] marker covering the whole
/// batch. A crash mid-epoch rolls the entire epoch back on recovery —
/// durability granularity becomes the epoch, atomicity is preserved.
/// One generation of the epoch's write-behind buffer: the unit that is
/// staged, drained and crash-tested as a whole. The committer keeps two
/// of these — the *open* batch absorbing commits and, under double
/// buffering, one *in-flight* batch whose seal overlaps them.
#[derive(Debug, Clone, Default)]
struct SealBatch {
    /// Committed write-sets not yet applied in place, in commit order
    /// (later entries win on replay).
    buffered: Vec<(u64, u64)>,
    /// Lookup index over `buffered`: address → latest buffered value,
    /// for read-your-epoch's-writes and the redo seal's final values.
    index: FastMap<u64, u64>,
    /// Transactions absorbed into this batch.
    pending: u64,
    /// Highest txid absorbed into this batch.
    max_txid: u64,
    /// Batch generation — the tag FliT entries carry; bumping it on
    /// drain invalidates every entry pointing here in O(1).
    gen: u64,
    /// Simulated clock when the batch was staged behind a fresh open
    /// buffer; the drain rebates seal time up to the foreground work
    /// done since, modeling the overlapped flush.
    handoff: Option<Nanos>,
}

impl SealBatch {
    fn fresh(gen: u64) -> Self {
        SealBatch {
            gen,
            ..SealBatch::default()
        }
    }

    fn value(&self, addr: u64) -> Option<u64> {
        if self.buffered.is_empty() {
            None
        } else {
            self.index.get(&addr).copied()
        }
    }
}

/// Epoch group-commit state: the write-behind batching machinery behind
/// [`PersistentHeap::set_epoch_size`]. Holds up to two batch
/// generations — the open one absorbing commits and, once the epoch
/// fills, a staged in-flight one whose seal is pipelined behind the
/// next epoch's foreground commits (double buffering). Durability then
/// lags one generation; the full-barrier [`PersistentHeap::seal_epoch`]
/// drains both.
#[derive(Debug, Clone, Default)]
pub struct EpochCommitter {
    /// Transactions per durability epoch.
    size: u64,
    /// Scratch walk for the seal's coalesced line flush (undo flavour).
    walk: LineWalk,
    /// The batch absorbing commits right now.
    open: SealBatch,
    /// The previous batch, staged full but not yet durable: its seal is
    /// pipelined behind the commits filling `open`.
    in_flight: Option<SealBatch>,
    /// Epochs sealed so far.
    sealed: u64,
}

impl EpochCommitter {
    fn with_size(size: u64) -> Self {
        EpochCommitter {
            size,
            open: SealBatch::fresh(1),
            ..EpochCommitter::default()
        }
    }

    /// Transactions per durability epoch.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Transactions absorbed into the currently open batch.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.open.pending
    }

    /// Transactions staged in the in-flight batch — full, but with the
    /// seal still overlapping foreground commits (not yet durable).
    #[must_use]
    pub fn staged(&self) -> u64 {
        self.in_flight.as_ref().map_or(0, |b| b.pending)
    }

    /// Epochs sealed so far.
    #[must_use]
    pub fn sealed(&self) -> u64 {
        self.sealed
    }

    /// True when nothing is buffered in either generation: sealing would
    /// be a no-op and log truncation is safe.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.open.pending == 0
            && self.open.buffered.is_empty()
            && self.in_flight.is_none()
            && self.walk.is_empty()
    }

    /// The epoch buffers' value for `addr`, if a committed-but-unapplied
    /// write to it exists in either generation. The open batch is newer,
    /// so it wins.
    fn buffered_value(&self, addr: u64) -> Option<u64> {
        self.open
            .value(addr)
            .or_else(|| self.in_flight.as_ref().and_then(|b| b.value(addr)))
    }

    /// The buffered value at `slot` of the live batch tagged `gen`, if
    /// that generation is still live — the FliT read path's resolver.
    fn gen_value(&self, gen: u64, slot: usize) -> Option<u64> {
        if gen == self.open.gen {
            self.open.buffered.get(slot).map(|&(_, v)| v)
        } else {
            match &self.in_flight {
                Some(b) if b.gen == gen => b.buffered.get(slot).map(|&(_, v)| v),
                _ => None,
            }
        }
    }
}

/// An NVRAM-backed persistent heap in one of the five paper
/// configurations. See the crate-level docs for the configuration matrix
/// and a complete example.
#[derive(Debug, Clone)]
pub struct PersistentHeap {
    mem: PersistentMemory,
    config: HeapConfig,
    overheads: OverheadModel,
    alloc: FreeListAllocator,
    log: TornLog,
    stm: Stm,
    next_txid: u64,
    /// Data lines updated in place since the last log truncation; a
    /// flush-on-commit truncation must flush them first.
    unflushed_lines: FastSet<u64>,
    /// Epoch group-commit state; `None` runs the per-transaction
    /// durability protocol.
    epoch: Option<EpochCommitter>,
    /// Prepared-but-undecided global transactions (volatile: recovery
    /// re-derives them from the durable PREPARED markers).
    prepared: FastMap<u64, PreparedTxn>,
    /// FliT-style per-word flush tracking: one probe answers both
    /// read-your-own-writes and the epoch-buffer lookup, and a hit on
    /// the write path elides the redundant record (see `flit.rs`).
    flit: FlitTable,
    /// `false` switches the epoch-mode barriers to the always-append
    /// reference path — the elision-off mode differential crash tests
    /// compare against.
    flit_enabled: bool,
    stats: HeapStats,
}

impl PersistentHeap {
    /// Creates a fresh heap of `capacity` bytes on the default testbed
    /// CPU (Intel C5528).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is smaller than 64 KiB.
    #[must_use]
    pub fn create(capacity: ByteSize, config: HeapConfig) -> Self {
        Self::create_with(
            capacity,
            config,
            CpuProfile::intel_c5528(),
            OverheadModel::default(),
        )
    }

    /// Creates a fresh heap with an explicit CPU profile and overhead
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is smaller than 64 KiB.
    #[must_use]
    pub fn create_with(
        capacity: ByteSize,
        config: HeapConfig,
        profile: CpuProfile,
        overheads: OverheadModel,
    ) -> Self {
        assert!(
            capacity >= ByteSize::kib(64),
            "heap region must be at least 64 KiB"
        );
        let mut mem = PersistentMemory::with_profile(capacity, profile);
        let log_cap = log_capacity(capacity);
        let heap_start = LOG_BASE + log_cap.as_u64();
        let alloc = FreeListAllocator::new(ALLOC_HEAD_ADDR, heap_start, capacity.as_u64());
        let log = TornLog::new(LOG_BASE, log_cap, TAIL_PTR_ADDR);

        mem.write_u64(MAGIC_ADDR, MAGIC);
        mem.write_u64(CONFIG_ADDR, config.code());
        mem.write_u64(ROOT_ADDR, 0);
        log.initialize(&mut mem);
        let mut direct = Direct(&mut mem);
        alloc.format(&mut direct);
        // The formatted heap must be durable before first use.
        mem.flush_all();

        PersistentHeap {
            mem,
            config,
            overheads,
            alloc,
            log,
            stm: Stm::new(1024),
            next_txid: 1,
            unflushed_lines: FastSet::default(),
            epoch: None,
            prepared: FastMap::default(),
            flit: FlitTable::new(),
            flit_enabled: true,
            stats: HeapStats::default(),
        }
    }

    /// The heap's configuration.
    #[must_use]
    pub fn config(&self) -> HeapConfig {
        self.config
    }

    /// Observability counters (transactions, logging, allocation).
    #[must_use]
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Total simulated time charged by every operation so far.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.mem.elapsed()
    }

    /// The underlying memory (statistics, dirty-byte inspection).
    #[must_use]
    pub fn mem(&self) -> &PersistentMemory {
        &self.mem
    }

    /// Charges non-memory application time to the simulated clock
    /// (protocol parsing, request handling — work a server does around
    /// its heap operations).
    pub fn charge(&mut self, d: Nanos) {
        self.mem.charge(d);
    }

    /// Mutable STM state — used by tests and multi-client harnesses to
    /// inject writes from "other threads" and provoke conflicts.
    pub fn stm_mut(&mut self) -> &mut Stm {
        &mut self.stm
    }

    /// Disables (or re-enables) the FliT per-word tracking table under
    /// epoch mode. `false` is the always-append *reference mode*: every
    /// write pushes its own record exactly as the pre-FliT barriers did,
    /// which differential crash tests compare elision against. Seals any
    /// open epoch first so both modes start from identical durable
    /// state. On by default; irrelevant outside epoch mode.
    pub fn set_flit_enabled(&mut self, on: bool) {
        self.seal_epoch();
        self.flit_enabled = on;
    }

    /// Whether FliT per-word flush tracking is active (see
    /// [`PersistentHeap::set_flit_enabled`]).
    #[must_use]
    pub fn flit_enabled(&self) -> bool {
        self.flit_enabled
    }

    /// Enables epoch-based group commit with `size` transactions per
    /// durability epoch (sealing any open epoch first); `size <= 1`
    /// restores the per-transaction protocol.
    ///
    /// Only the flush-on-commit configurations have per-transaction
    /// durability work to amortize; for flush-on-fail configurations
    /// (durability already deferred to the failure-time save) the call is
    /// a documented no-op.
    pub fn set_epoch_size(&mut self, size: u64) {
        self.seal_epoch();
        self.epoch = (size > 1 && self.config.flush_on_commit())
            .then(|| EpochCommitter::with_size(size));
    }

    /// Transactions per durability epoch (1 = per-transaction protocol).
    #[must_use]
    pub fn epoch_size(&self) -> u64 {
        self.epoch.as_ref().map_or(1, EpochCommitter::size)
    }

    /// The group-commit state, when epoch mode is enabled.
    #[must_use]
    pub fn epoch(&self) -> Option<&EpochCommitter> {
        self.epoch.as_ref()
    }

    /// Seals every live durability generation — the full barrier. Drains
    /// the staged in-flight batch first (if double buffering left one
    /// pipelined), then the open batch, each behind its own fenced
    /// [`RecordKind::EpochCommit`] marker. Guarded no-op when epoch mode
    /// is off or nothing is buffered: an empty seal writes no records,
    /// no marker, and grows the log by nothing.
    pub fn seal_epoch(&mut self) {
        if self.epoch.is_none() {
            return;
        }
        if let Some(staged) = self.epoch.as_mut().and_then(|e| e.in_flight.take()) {
            self.drain_batch(staged);
        }
        let epoch = self.epoch.as_mut().expect("epoch mode active");
        if epoch.open.buffered.is_empty() {
            return;
        }
        let next_gen = epoch.open.gen + 1;
        let batch = std::mem::replace(&mut epoch.open, SealBatch::fresh(next_gen));
        self.drain_batch(batch);
    }

    /// Pipelines a full open batch: drains the previously staged batch
    /// (charging only what its seal could not hide behind the commits
    /// that ran since it was staged), then stages the open buffer as the
    /// new in-flight generation. Durability now lags one generation — a
    /// raw crash loses both the open and the staged batch, exactly the
    /// window the extended `crash_mid_seal` sweep covers.
    fn stage_open_batch(&mut self) {
        if let Some(staged) = self.epoch.as_mut().and_then(|e| e.in_flight.take()) {
            self.drain_batch(staged);
        }
        let now = self.mem.elapsed();
        let epoch = self.epoch.as_mut().expect("epoch mode active");
        let next_gen = epoch.open.gen + 1;
        let mut batch = std::mem::replace(&mut epoch.open, SealBatch::fresh(next_gen));
        batch.handoff = Some(now);
        epoch.in_flight = Some(batch);
    }

    /// Makes one batch durable: coalesces it to one log record per
    /// distinct address, makes the records durable behind a single
    /// fence, writes one fenced [`RecordKind::EpochCommit`] marker
    /// covering every absorbed transaction, and applies the write-behind
    /// buffer. A staged batch additionally rebates the portion of its
    /// seal that overlapped foreground commits since the handoff.
    fn drain_batch(&mut self, batch: SealBatch) {
        let t0 = self.mem.elapsed();
        let mut walk = {
            let epoch = self.epoch.as_mut().expect("epoch mode active");
            std::mem::take(&mut epoch.walk)
        };
        // Coalesce: one record per distinct address, first-write order
        // (deterministic). Duplicate writes within the batch cost nothing
        // durable — under FliT they were merged at absorb time, in
        // reference mode they are merged here; either way the durable
        // record set is identical.
        let mut seen: FastSet<u64> = FastSet::default();
        let mut unique: Vec<u64> = Vec::with_capacity(batch.index.len());
        for &(addr, _) in &batch.buffered {
            if seen.insert(addr) {
                unique.push(addr);
            }
        }
        let dupes = (batch.buffered.len() - unique.len()) as u64;
        self.stats.epoch_coalesced_lines += dupes;
        obs::count_by(obs::Ctr::EpochLinesCoalesced, dupes);
        // Room for the whole coalesced record set plus the marker. Prior
        // epochs' records are dead (their data was applied durably), so
        // truncation is always safe here — in-doubt prepared records are
        // carried across it by the preserving truncation.
        let needed = unique.len() as u64 * 4 + 1;
        if self.log.free_words() < needed + 8 {
            self.make_log_room();
        }
        if self.config.uses_undo_log() {
            // Undo flavour: log the OLD values, fence, apply the buffer in
            // place and coalesce-flush its lines, fence — only then the
            // marker. A crash mid-seal finds the undo records durable and
            // rolls the half-applied epoch back.
            self.stats.undo_records += unique.len() as u64;
            // Read every old value before the first append: loads must not
            // interleave with pending non-temporal stores (store-forwarding
            // checks make that path far more expensive).
            let mut olds = Vec::with_capacity(unique.len());
            for &addr in &unique {
                olds.push(self.mem.read_u64(addr));
            }
            for (&addr, &old) in unique.iter().zip(&olds) {
                self.log
                    .append(&mut self.mem, &LogRecord::write(batch.max_txid, addr, old), true);
            }
            self.mem.sfence();
            for &(addr, value) in &batch.buffered {
                self.mem.write_u64(addr, value);
            }
            walk.clear();
            walk.extend(unique.iter().map(|&a| a / LINE_SIZE));
            let lines = walk.coalesce();
            obs::count_by(obs::Ctr::FlushIssued, lines.len() as u64);
            for &line in lines {
                self.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
            }
            self.mem.sfence();
            self.log
                .append(&mut self.mem, &LogRecord::epoch_commit(batch.max_txid), true);
            self.mem.sfence();
            walk.clear();
        } else {
            // Redo flavour: log the FINAL values, fence, marker, fence —
            // only then apply the write-behind buffer (cached). NVRAM never
            // holds a byte of the batch until the marker commits it
            // wholesale; a crash mid-seal leaves the records uncovered and
            // recovery ignores them.
            // No per-record `redo_append` charge here: that models the
            // pipeline stalls of the *fenced* per-transaction append path.
            // A batched unfenced stream pays only the non-temporal store
            // cost the cache model already charges.
            self.stats.redo_records += unique.len() as u64;
            for &addr in &unique {
                let value = batch.index[&addr];
                self.log
                    .append(&mut self.mem, &LogRecord::write(batch.max_txid, addr, value), true);
            }
            self.mem.sfence();
            self.log
                .append(&mut self.mem, &LogRecord::epoch_commit(batch.max_txid), true);
            self.mem.sfence();
            for &(addr, value) in &batch.buffered {
                self.mem.write_u64(addr, value);
                self.unflushed_lines.insert(addr / LINE_SIZE);
            }
        }
        obs::count(obs::Ctr::EpochSeals);
        obs::count_by(obs::Ctr::EpochTxs, batch.pending);
        let d = self.mem.elapsed() - t0;
        obs::observe(obs::Hist::EpochSeal, d);
        if let Some(handoff) = batch.handoff {
            // The batch sat staged for `t0 - handoff` of foreground work;
            // that much of the seal ran overlapped and is not charged to
            // this shard's serial clock. What remains is the true stall.
            let overlap = d.min(t0.saturating_sub(handoff));
            self.mem.rebate(overlap);
            obs::observe(obs::Hist::SealStall, d.saturating_sub(overlap));
        }
        self.stats.epochs_sealed += 1;
        let epoch = self.epoch.as_mut().expect("epoch mode active");
        epoch.sealed += 1;
        epoch.walk = walk;
        if self.log.needs_truncation() {
            // Undo flavour: the batch's data lines were just flushed, so
            // the records before the marker are dead.
            self.make_log_room();
        }
    }

    /// Absorbs a committed transaction's write set into the open batch,
    /// staging the batch behind a fresh one when the epoch fills (the
    /// double-buffered pipeline) and fully sealing when the coalesced
    /// record sets approach log capacity (every live batch must fit in
    /// the log in one piece).
    fn epoch_absorb(&mut self, txid: u64, write_set: &[(u64, u64)]) {
        // In-doubt prepared records are pinned in the log until the
        // coordinator decides; the epochs' coalesced sets must fit beside
        // them.
        let pinned = self.prepared_log_words();
        let flit_on = self.flit_enabled;
        let epoch = self.epoch.as_mut().expect("epoch mode active");
        let gen = epoch.open.gen;
        let mut elided = 0u64;
        for &(addr, value) in write_set {
            if flit_on {
                // FliT: a live tag for the open generation means the word
                // already has a buffered record — update it in place,
                // eliding the duplicate (and the redundant log record,
                // clflush and fence it would turn into at seal time).
                match self.flit.lookup(addr).filter(|e| e.epoch_gen == gen) {
                    Some(e) => {
                        epoch.open.buffered[e.epoch_slot].1 = value;
                        elided += 1;
                    }
                    None => {
                        let slot = epoch.open.buffered.len();
                        epoch.open.buffered.push((addr, value));
                        self.flit.note_epoch_write(addr, gen, slot);
                    }
                }
            } else {
                epoch.open.buffered.push((addr, value));
            }
            epoch.open.index.insert(addr, value);
        }
        if elided > 0 {
            // The same merges the seal's coalesce pass would perform;
            // counted here because the duplicate never even gets buffered.
            self.stats.epoch_coalesced_lines += elided;
            obs::count_by(obs::Ctr::EpochLinesCoalesced, elided);
            obs::count_by(obs::Ctr::FlushSkipped, elided);
        }
        epoch.open.pending += 1;
        epoch.open.max_txid = epoch.open.max_txid.max(txid);
        let unique_records = epoch.open.index.len() as u64
            + epoch.in_flight.as_ref().map_or(0, |b| b.index.len() as u64);
        let pressure = unique_records * 4 + 64 + pinned >= self.log.capacity_words();
        let full = epoch.open.pending >= epoch.size;
        if pressure {
            // Give up the overlap: both generations must fit in the log,
            // so make everything durable now.
            self.seal_epoch();
        } else if full {
            self.stage_open_batch();
        }
    }

    /// The current root object, if one was ever published.
    pub fn root(&mut self) -> Option<PmPtr> {
        // A root published inside the open epoch lives in the write-behind
        // buffer, not yet in memory.
        if let Some(epoch) = &self.epoch {
            if let Some(v) = epoch.buffered_value(ROOT_ADDR) {
                return PmPtr::new(v);
            }
        }
        PmPtr::new(self.mem.read_u64(ROOT_ADDR))
    }

    /// Opens a transaction. For the plain [`HeapConfig::Fof`]
    /// configuration the transaction is a thin pass-through (writes apply
    /// immediately and commit is free) — the WSP programming model.
    pub fn begin(&mut self) -> Tx<'_> {
        self.mem.charge(if self.config.transactional() {
            self.overheads.tx_begin
        } else {
            Nanos::ZERO
        });
        // Undo logs can only truncate between transactions (truncating
        // mid-transaction would discard the records needed to roll this
        // very transaction back). Under an open epoch the seal manages
        // its own log space, so truncation is left to it.
        if self.config.uses_undo_log()
            && self.log.needs_truncation()
            && self.epoch.as_ref().is_none_or(EpochCommitter::is_clean)
        {
            // Committed data was flushed at each commit (FoC) or will be
            // covered by flush-on-fail (FoF); either way the log records
            // before this point are dead — except in-doubt prepared
            // records, which the preserving truncation carries across.
            self.truncate_preserving(self.config.flush_on_commit());
        }
        self.stats.txs_started += 1;
        let txid = self.next_txid;
        self.next_txid += 1;
        let rv = self.stm.begin();
        Tx {
            heap: self,
            txid,
            rv,
            read_set: Vec::new(),
            read_stripes: FastSet::default(),
            write_set: Vec::new(),
            undo_order: Vec::new(),
            undo_logged: FastSet::default(),
            fresh_allocs: Vec::new(),
            touched_lines: FastSet::default(),
            poisoned: None,
            finished: false,
        }
    }

    fn check_word_addr(&self, addr: u64) -> Result<(), HeapError> {
        let end = self.mem.capacity().as_u64();
        if !addr.is_multiple_of(8) || addr < ROOT_ADDR || addr + 8 > end {
            Err(HeapError::InvalidPointer { offset: addr })
        } else {
            Ok(())
        }
    }

    /// Takes a consistent snapshot of the heap as a crash image (the
    /// quiesce-and-copy a checkpoint performs): everything including
    /// cached state is captured, without disturbing the live heap. An
    /// open durability epoch is sealed in the copy, so the checkpoint
    /// includes every committed transaction.
    #[must_use]
    pub fn checkpoint_image(&self) -> CrashImage {
        let mut copy = self.clone();
        copy.seal_epoch();
        copy.crash(true)
    }

    /// The transaction-id high-water mark (staleness metric for
    /// checkpoints).
    #[must_use]
    pub fn txid_high_water(&self) -> u64 {
        self.next_txid
    }

    /// Cache lines holding committed in-place data whose only durable
    /// copy may be stale (flush-on-fail configurations accumulate these
    /// across truncations). This is the stage-A flush working set.
    #[must_use]
    pub fn unflushed_line_count(&self) -> u64 {
        self.unflushed_lines.len() as u64
    }

    /// The priority (stage-A) flush of a degraded save: makes the heap
    /// header, the whole log area, and every tracked committed data line
    /// durable — the minimal set from which [`PersistentHeap::recover_partial`]
    /// can rebuild all committed state. Bulk dirty lines are left for a
    /// later stage (or for flush-on-fail of the whole cache). Returns
    /// the simulated time the flush cost.
    pub fn priority_flush(&mut self) -> Nanos {
        let before = self.mem.elapsed();
        let log_cap = log_capacity(self.mem.capacity());
        self.mem.clflush_range(0, LOG_BASE);
        self.mem.clflush_range(LOG_BASE, log_cap.as_u64());
        let mut lines: Vec<u64> = self.unflushed_lines.drain().collect();
        wsp_cache::coalesce_lines(&mut lines);
        let line_count = lines.len() as u64;
        for line in lines {
            self.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
        }
        self.mem.sfence();
        let cost = self.mem.elapsed() - before;
        obs::emit(
            "pheap",
            "priority_flush",
            self.mem.elapsed(),
            line_count as i64,
            cost.as_nanos() as i64,
        );
        obs::count(obs::Ctr::PriorityFlushes);
        obs::count_by(obs::Ctr::PriorityLinesFlushed, line_count);
        obs::gauge_set(obs::Gauge::UnflushedLines, line_count as i64);
        cost
    }

    /// Recovers committed state from a *partial* image: one whose
    /// flush-on-fail save did not complete, but where a priority flush
    /// ([`PersistentHeap::priority_flush`]) made the header, log and
    /// committed data lines durable before power died. Redo logs replay
    /// committed transactions; undo logs roll back uncommitted ones.
    ///
    /// # Errors
    ///
    /// [`HeapError::Unrecoverable`] for the plain [`HeapConfig::Fof`]
    /// configuration (it keeps no log, so a partial image cannot be
    /// replayed — fall back to the storage back end), or
    /// [`HeapError::CorruptHeader`] for an unrecognisable image.
    pub fn recover_partial(image: CrashImage) -> Result<Self, HeapError> {
        Self::recover_inner(image, OverheadModel::default(), true, None).map(|(heap, _)| heap)
    }

    /// Durable steps an epoch seal would run right now, across *both*
    /// write-behind generations, for mid-seal fault injection. For each
    /// live batch — staged in-flight first, then open — the steps are:
    /// one per coalesced record append, one for the post-append fence
    /// (plus, for the undo flavour, the in-place applies it unlocks),
    /// and — undo flavour only — one per coalesced data-line flush.
    /// When both generations are live, one extra step sits between them
    /// for the staged batch's covering marker: crashing at or past it is
    /// the first point where the staged epoch survives. Zero when epoch
    /// mode is off or nothing is buffered.
    #[must_use]
    pub fn seal_steps(&self) -> u64 {
        let Some(epoch) = &self.epoch else {
            return 0;
        };
        let staged = epoch.in_flight.as_ref().map(|b| self.batch_steps(b));
        let open = (!epoch.open.buffered.is_empty()).then(|| self.batch_steps(&epoch.open));
        match (staged, open) {
            (None, None) => 0,
            (Some(s), None) => s,
            (None, Some(o)) => o,
            (Some(s), Some(o)) => s + 1 + o,
        }
    }

    /// Durable steps belonging to the staged (in-flight) batch alone —
    /// the boundary in [`PersistentHeap::seal_steps`]'s numbering at or
    /// below which a mid-seal crash loses that batch too. Zero when
    /// nothing is staged.
    #[must_use]
    pub fn staged_seal_steps(&self) -> u64 {
        self.epoch
            .as_ref()
            .and_then(|e| e.in_flight.as_ref())
            .map_or(0, |b| self.batch_steps(b))
    }

    fn batch_steps(&self, batch: &SealBatch) -> u64 {
        let records = batch.index.len() as u64;
        if self.config.uses_undo_log() {
            let mut walk = LineWalk::default();
            walk.extend(batch.index.keys().map(|&a| a / LINE_SIZE));
            records + 1 + walk.coalesce().len() as u64
        } else {
            records + 1
        }
    }

    /// Simulates power failing `step` durable operations into the full
    /// seal of both write-behind generations. With a staged batch live,
    /// steps up to [`PersistentHeap::staged_seal_steps`] crash inside
    /// *its* seal — neither generation's marker is durable and recovery
    /// rolls back to the last fully drained epoch; one step later its
    /// marker lands, and every further step crashes inside the open
    /// batch's seal with the staged epoch already durable. Within a
    /// batch the durable prefix runs exactly as before: coalesced record
    /// appends, then (past the fence step) the post-append `sfence` and,
    /// for the undo flavour, the in-place applies and a prefix of the
    /// coalesced line flushes — but that batch's covering
    /// [`RecordKind::EpochCommit`] marker is never written. `step` past
    /// [`PersistentHeap::seal_steps`] behaves as the largest crash
    /// point. With epoch mode off or nothing buffered this is a plain
    /// unsaved crash.
    #[must_use]
    pub fn crash_mid_seal(mut self, step: u64) -> CrashImage {
        if self.epoch.is_none() {
            return self.crash(false);
        }
        let staged = self.epoch.as_mut().and_then(|e| e.in_flight.take());
        if let Some(batch) = staged {
            let boundary = self.batch_steps(&batch);
            if step <= boundary {
                // Power dies inside the staged batch's seal: its marker
                // never lands, and the open batch never even starts.
                return self.crash_mid_batch(batch, step);
            }
            // The staged batch seals completely (step `boundary + 1` is
            // its marker); power then dies inside the open batch's seal.
            self.drain_batch(batch);
            return self.crash_open_mid_seal(step - boundary - 1);
        }
        self.crash_open_mid_seal(step)
    }

    fn crash_open_mid_seal(mut self, step: u64) -> CrashImage {
        let epoch = self.epoch.as_mut().expect("epoch mode active");
        if epoch.open.buffered.is_empty() {
            return self.crash(false);
        }
        let next_gen = epoch.open.gen + 1;
        let batch = std::mem::replace(&mut epoch.open, SealBatch::fresh(next_gen));
        self.crash_mid_batch(batch, step)
    }

    fn crash_mid_batch(mut self, batch: SealBatch, step: u64) -> CrashImage {
        // Coalesce and make room exactly as the real drain does.
        let mut seen: FastSet<u64> = FastSet::default();
        let mut unique: Vec<u64> = Vec::with_capacity(batch.index.len());
        for &(addr, _) in &batch.buffered {
            if seen.insert(addr) {
                unique.push(addr);
            }
        }
        let needed = unique.len() as u64 * 4 + 1;
        if self.log.free_words() < needed + 8 {
            self.make_log_room();
        }
        let records = unique.len() as u64;
        let appends = step.min(records) as usize;
        if self.config.uses_undo_log() {
            let mut olds = Vec::with_capacity(unique.len());
            for &addr in &unique {
                olds.push(self.mem.read_u64(addr));
            }
            for (&addr, &old) in unique.iter().zip(&olds).take(appends) {
                self.log
                    .append(&mut self.mem, &LogRecord::write(batch.max_txid, addr, old), true);
            }
            if step > records {
                // Past the fence: every record is durable, the buffer is
                // applied in place, and `step - records - 1` of the
                // coalesced line flushes complete before power dies.
                self.mem.sfence();
                for &(addr, value) in &batch.buffered {
                    self.mem.write_u64(addr, value);
                }
                let mut walk = LineWalk::default();
                walk.extend(unique.iter().map(|&a| a / LINE_SIZE));
                let flushes = (step - records - 1) as usize;
                for &line in walk.coalesce().iter().take(flushes) {
                    self.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
                }
            }
        } else {
            for &addr in unique.iter().take(appends) {
                let value = batch.index[&addr];
                self.log
                    .append(&mut self.mem, &LogRecord::write(batch.max_txid, addr, value), true);
            }
            if step > records {
                self.mem.sfence();
            }
        }
        // Power dies before this batch's marker append — always.
        self.crash(false)
    }

    // ---- cross-shard two-phase commit ---------------------------------

    /// Prepares global transaction `gtxid` on this shard — phase 1 of
    /// the cross-shard two-phase seal. The write set is coalesced
    /// exactly like an epoch seal (one log record per distinct address,
    /// one clflush per distinct line), made durable behind a fence, and
    /// covered by a fenced [`RecordKind::Prepare`] marker. From that
    /// marker on the shard is bound by the coordinator's decision:
    /// recovery keeps the transaction in doubt until the decision log
    /// answers, and presumes abort when it has no answer.
    ///
    /// Any open durability epoch is sealed first so the log's record
    /// stream stays ordered. The undo flavour applies the new values in
    /// place at prepare time (its records hold the old values); the redo
    /// flavour buffers them until [`PersistentHeap::commit_distributed`].
    ///
    /// # Errors
    ///
    /// [`HeapError::Unrecoverable`] for flush-on-fail configurations — a
    /// PREPARED record must be durable *before* the coordinator decides,
    /// and flush-on-fail defers all durability to the failure-time save.
    /// [`HeapError::InvalidPointer`] for an out-of-range address, and
    /// [`HeapError::Conflict`] if `gtxid` is already prepared here.
    ///
    /// # Panics
    ///
    /// Panics if `gtxid` is below [`GTXID_BASE`].
    pub fn prepare_distributed(
        &mut self,
        gtxid: u64,
        writes: &[(u64, u64)],
    ) -> Result<(), HeapError> {
        assert!(
            gtxid >= GTXID_BASE,
            "global txids live at or above GTXID_BASE"
        );
        if !self.config.flush_on_commit() {
            return Err(HeapError::Unrecoverable {
                reason:
                    "flush-on-fail shards cannot make a PREPARED record durable ahead of the decision",
            });
        }
        if self.prepared.contains_key(&gtxid) {
            return Err(HeapError::Conflict);
        }
        for &(addr, _) in writes {
            self.check_word_addr(addr)?;
        }
        self.seal_epoch();
        let (unique, finals) = Self::coalesce_writes(writes);
        // Room for the records, the PREPARED marker and the later
        // decision marker. Truncation preserves any other in-doubt
        // transaction's records; if the pinned set still leaves too
        // little room, refuse with a typed error so the coordinator can
        // abort cleanly instead of the append panicking.
        let needed = unique.len() as u64 * 4 + 2;
        if self.log.free_words() < needed + 8 {
            self.make_log_room();
        }
        if self.log.free_words() < needed {
            return Err(HeapError::LogFull {
                needed_words: needed,
                free_words: self.log.free_words(),
            });
        }
        let mut olds = Vec::new();
        if self.config.uses_undo_log() {
            self.stats.undo_records += unique.len() as u64;
            olds.reserve(unique.len());
            for &addr in &unique {
                olds.push((addr, self.mem.read_u64(addr)));
            }
            for &(addr, old) in &olds {
                self.log
                    .append(&mut self.mem, &LogRecord::write(gtxid, addr, old), true);
            }
            self.mem.sfence();
            let mut walk = LineWalk::default();
            for &addr in &unique {
                self.mem.write_u64(addr, finals[&addr]);
                walk.extend([addr / LINE_SIZE]);
            }
            let lines = walk.coalesce();
            obs::count_by(obs::Ctr::FlushIssued, lines.len() as u64);
            for &line in lines {
                self.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
            }
            self.mem.sfence();
        } else {
            self.stats.redo_records += unique.len() as u64;
            for &addr in &unique {
                self.log
                    .append(&mut self.mem, &LogRecord::write(gtxid, addr, finals[&addr]), true);
            }
            self.mem.sfence();
        }
        self.log.append(&mut self.mem, &LogRecord::prepare(gtxid), true);
        self.mem.sfence();
        self.prepared.insert(
            gtxid,
            PreparedTxn {
                writes: unique.iter().map(|&a| (a, finals[&a])).collect(),
                olds,
            },
        );
        Ok(())
    }

    /// Phase 2 on this shard: writes the fenced local commit marker for
    /// a prepared `gtxid` and (redo flavour) applies the buffered write
    /// set in place. Call only once the coordinator's decision marker is
    /// durable — the local marker is what lets this shard recover
    /// without consulting the coordinator again.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoTransaction`] if `gtxid` was never prepared here.
    pub fn commit_distributed(&mut self, gtxid: u64) -> Result<(), HeapError> {
        if !self.prepared.contains_key(&gtxid) {
            return Err(HeapError::NoTransaction);
        }
        // Make room for the marker while `gtxid` is still in the
        // prepared map, so a preserving truncation keeps its records.
        if self.log.free_words() < 1 {
            self.make_log_room();
        }
        let p = self.prepared.remove(&gtxid).expect("checked above");
        self.log
            .append(&mut self.mem, &LogRecord::commit(gtxid), true);
        self.mem.sfence();
        if self.config.uses_redo_log() {
            for &(addr, value) in &p.writes {
                self.mem.write_u64(addr, value);
                self.unflushed_lines.insert(addr / LINE_SIZE);
            }
            self.stm.commit(p.writes.iter().map(|&(addr, _)| addr));
        }
        self.stats.commits += 1;
        if self.log.needs_truncation() {
            self.make_log_room();
        }
        Ok(())
    }

    /// Aborts a prepared `gtxid` on this shard: the undo flavour rolls
    /// the prepare-time in-place applies back (newest first) and
    /// re-flushes the touched lines; both flavours then write a fenced
    /// local abort marker so recovery never has to consult the
    /// coordinator for this transaction again.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoTransaction`] if `gtxid` was never prepared here.
    pub fn abort_distributed(&mut self, gtxid: u64) -> Result<(), HeapError> {
        if !self.prepared.contains_key(&gtxid) {
            return Err(HeapError::NoTransaction);
        }
        // Room for the abort marker, preserving every in-doubt record
        // set (including this one — rollback has not run yet).
        if self.log.free_words() < 1 {
            self.make_log_room();
        }
        let p = self.prepared.remove(&gtxid).expect("checked above");
        if self.config.uses_undo_log() {
            let mut walk = LineWalk::default();
            for &(addr, old) in p.olds.iter().rev() {
                self.mem.write_u64(addr, old);
                walk.extend([addr / LINE_SIZE]);
            }
            for &line in walk.coalesce() {
                self.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
            }
            self.mem.sfence();
        }
        self.log
            .append(&mut self.mem, &LogRecord::abort(gtxid), true);
        self.mem.sfence();
        self.stats.aborts += 1;
        Ok(())
    }

    /// Durable steps [`PersistentHeap::prepare_distributed`] would run
    /// for `writes`, for mid-prepare fault injection: one per coalesced
    /// record append, one for the post-append fence (plus, undo flavour,
    /// the in-place applies it unlocks), and — undo flavour only — one
    /// per coalesced line flush. [`PersistentHeap::crash_mid_prepare`]
    /// never writes the PREPARED marker itself, so every step recovers
    /// by presumed abort.
    #[must_use]
    pub fn prepare_steps(&self, writes: &[(u64, u64)]) -> u64 {
        let (unique, _) = Self::coalesce_writes(writes);
        let records = unique.len() as u64;
        if self.config.uses_undo_log() {
            let mut walk = LineWalk::default();
            walk.extend(unique.iter().map(|&a| a / LINE_SIZE));
            records + 1 + walk.coalesce().len() as u64
        } else {
            records + 1
        }
    }

    /// Simulates power failing `step` durable operations into preparing
    /// `gtxid`: the prepare's durable prefix runs, but the PREPARED
    /// marker is never written — after recovery the shard holds no
    /// PREPARED record, so the coordinator cannot have decided commit
    /// and presumed abort is the only consistent outcome. `step` past
    /// [`PersistentHeap::prepare_steps`] behaves as the largest crash
    /// point (everything durable except the marker).
    ///
    /// # Panics
    ///
    /// Panics for flush-on-fail configurations (which cannot prepare).
    #[must_use]
    pub fn crash_mid_prepare(
        mut self,
        gtxid: u64,
        writes: &[(u64, u64)],
        step: u64,
    ) -> CrashImage {
        assert!(
            self.config.flush_on_commit(),
            "prepare is flush-on-commit only"
        );
        self.seal_epoch();
        let (unique, finals) = Self::coalesce_writes(writes);
        let records = unique.len() as u64;
        let needed = records * 4 + 2;
        if self.log.free_words() < needed + 8 {
            self.make_log_room();
        }
        if self.log.free_words() < needed {
            // prepare_distributed would have refused with LogFull; the
            // crash happens before any record lands.
            return self.crash(false);
        }
        let appends = step.min(records) as usize;
        if self.config.uses_undo_log() {
            let mut olds = Vec::with_capacity(unique.len());
            for &addr in &unique {
                olds.push(self.mem.read_u64(addr));
            }
            for (&addr, &old) in unique.iter().zip(&olds).take(appends) {
                self.log
                    .append(&mut self.mem, &LogRecord::write(gtxid, addr, old), true);
            }
            if step > records {
                // Past the fence: every record is durable, the new values
                // go in place, and `step - records - 1` of the coalesced
                // line flushes complete before power dies.
                self.mem.sfence();
                let mut walk = LineWalk::default();
                for &addr in &unique {
                    self.mem.write_u64(addr, finals[&addr]);
                    walk.extend([addr / LINE_SIZE]);
                }
                let flushes = (step - records - 1) as usize;
                for &line in walk.coalesce().iter().take(flushes) {
                    self.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
                }
            }
        } else {
            for &addr in unique.iter().take(appends) {
                self.log
                    .append(&mut self.mem, &LogRecord::write(gtxid, addr, finals[&addr]), true);
            }
            if step > records {
                self.mem.sfence();
            }
        }
        // Power dies before the PREPARED marker append — always.
        self.crash(false)
    }

    /// Simulates power failing while this shard writes its phase-2
    /// commit marker for a prepared `gtxid`: the marker's non-temporal
    /// store issues, and power dies just after the covering fence
    /// (`marker_durable`) or just before it. Without the fence the
    /// marker is torn away and the shard recovers still in doubt; with
    /// it the local decision is already durable. Either way the
    /// coordinator's decision log agrees (phase 2 only starts after the
    /// decision marker), so recovery converges on commit.
    ///
    /// # Panics
    ///
    /// Panics if `gtxid` is not prepared on this shard.
    #[must_use]
    pub fn crash_mid_commit(mut self, gtxid: u64, marker_durable: bool) -> CrashImage {
        assert!(
            self.prepared.contains_key(&gtxid),
            "crash_mid_commit needs a prepared gtxid"
        );
        self.log
            .append(&mut self.mem, &LogRecord::commit(gtxid), true);
        if marker_durable {
            self.mem.sfence();
        }
        self.crash(false)
    }

    /// Coalesces a raw write set the way an epoch seal does: unique
    /// addresses in first-write order, last write per address wins.
    fn coalesce_writes(writes: &[(u64, u64)]) -> (Vec<u64>, FastMap<u64, u64>) {
        let mut finals: FastMap<u64, u64> = FastMap::default();
        let mut unique: Vec<u64> = Vec::with_capacity(writes.len());
        for &(addr, value) in writes {
            if finals.insert(addr, value).is_none() {
                unique.push(addr);
            }
        }
        (unique, finals)
    }

    /// Simulates a power failure: the flush-on-fail save runs iff
    /// `fof_save_completed` (i.e. it fit in the residual energy window),
    /// and the durable image is returned for later recovery.
    #[must_use]
    pub fn crash(self, fof_save_completed: bool) -> CrashImage {
        let profile = self.mem.cache().profile().clone();
        CrashImage {
            bytes: self.mem.crash(fof_save_completed),
            fof_save_completed,
            profile,
        }
    }

    /// Recovers a heap from a crash image.
    ///
    /// Flush-on-commit configurations recover from their logs: committed
    /// transactions are replayed (redo) or surviving partial updates
    /// rolled back (undo). Flush-on-fail configurations require the save
    /// to have completed; with it, memory is exactly as it was (plus an
    /// undo rollback of any transaction that was open at the failure).
    ///
    /// # Errors
    ///
    /// [`HeapError::Unrecoverable`] when a flush-on-fail heap crashed
    /// without a completed save (the caller must refresh from the back
    /// end), or [`HeapError::CorruptHeader`] for an unrecognisable image.
    pub fn recover(image: CrashImage) -> Result<Self, HeapError> {
        Self::recover_with(image, OverheadModel::default())
    }

    /// [`PersistentHeap::recover`] with an explicit overhead model.
    pub fn recover_with(image: CrashImage, overheads: OverheadModel) -> Result<Self, HeapError> {
        Self::recover_inner(image, overheads, false, None).map(|(heap, _)| heap)
    }

    /// Recovers a two-phase-commit participant shard, resolving in-doubt
    /// global transactions against the coordinator's decision log:
    /// `decided` answers "did the coordinator durably decide commit for
    /// this gtxid?". A prepared transaction the coordinator confirms is
    /// replayed (redo) or kept in place (undo, which applied it at
    /// prepare time); one it does not confirm is presumed aborted — the
    /// same answer plain [`PersistentHeap::recover`] gives for *every*
    /// in-doubt transaction.
    ///
    /// # Errors
    ///
    /// As for [`PersistentHeap::recover`].
    pub fn recover_distributed(
        image: CrashImage,
        decided: impl Fn(u64) -> bool,
    ) -> Result<(Self, TxnResolution), HeapError> {
        Self::recover_inner(image, OverheadModel::default(), false, Some(&decided))
    }

    fn recover_inner(
        image: CrashImage,
        overheads: OverheadModel,
        partial: bool,
        resolver: Option<&dyn Fn(u64) -> bool>,
    ) -> Result<(Self, TxnResolution), HeapError> {
        let CrashImage {
            bytes,
            fof_save_completed,
            profile,
        } = image;
        if bytes.len() < (LOG_BASE as usize) + 8 * 1024 {
            return Err(HeapError::CorruptHeader);
        }
        let word = |addr: u64| -> u64 {
            u64::from_le_bytes(bytes[addr as usize..addr as usize + 8].try_into().expect("aligned"))
        };
        if word(MAGIC_ADDR) != MAGIC {
            return Err(HeapError::CorruptHeader);
        }
        let config = HeapConfig::from_code(word(CONFIG_ADDR)).ok_or(HeapError::CorruptHeader)?;
        if partial && config == HeapConfig::Fof {
            return Err(HeapError::Unrecoverable {
                reason: "plain FoF heap keeps no log; a partial image cannot be replayed",
            });
        }
        if !partial && !config.flush_on_commit() && !fof_save_completed {
            return Err(HeapError::Unrecoverable {
                reason: "flush-on-fail heap lost its cache contents (save did not complete)",
            });
        }

        let capacity = ByteSize::new(bytes.len() as u64);
        let log_cap = log_capacity(capacity);
        let records = TornLog::recover(&bytes, LOG_BASE, log_cap, TAIL_PTR_ADDR);
        let mut mem = PersistentMemory::from_image(bytes, profile);

        let committed: HashSet<u64> = records
            .iter()
            .filter(|r| r.kind == RecordKind::Commit)
            .map(|r| r.txid)
            .collect();
        // Epoch group commit: one durable marker commits every txid at or
        // below it. Records written after the last marker belong to the
        // open (partial) epoch and are treated as uncommitted wholesale —
        // replay truncates at the marker, never exposing a partial epoch.
        let epoch_max = records
            .iter()
            .filter(|r| r.kind == RecordKind::EpochCommit)
            .map(|r| r.txid)
            .max();
        // Two-phase commit: a global transaction whose PREPARED marker is
        // durable but that holds no local decision marker is *in doubt*.
        // The coordinator's decision log (when offered) resolves it;
        // without one the shard presumes abort — safe, because phase 2
        // only starts once every participant's PREPARED marker is
        // durable, so a missing decision means no shard committed.
        let locally_decided: HashSet<u64> = records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Commit | RecordKind::Abort))
            .map(|r| r.txid)
            .collect();
        let mut resolution = TxnResolution::default();
        let mut resolved_commits: HashSet<u64> = HashSet::new();
        let mut seen_prepared: HashSet<u64> = HashSet::new();
        for r in records.iter().filter(|r| r.kind == RecordKind::Prepare) {
            if locally_decided.contains(&r.txid) || !seen_prepared.insert(r.txid) {
                continue;
            }
            resolution.in_doubt.push(r.txid);
            match resolver {
                Some(decide) if decide(r.txid) => {
                    resolved_commits.insert(r.txid);
                    resolution.committed.push(r.txid);
                }
                _ => resolution.aborted.push(r.txid),
            }
        }
        let is_committed = |txid: u64| -> bool {
            committed.contains(&txid)
                || resolved_commits.contains(&txid)
                || epoch_max.is_some_and(|max| txid <= max)
        };

        if config.uses_redo_log() {
            // Redo: replay every committed transaction's writes in order.
            // When the failure-time save completed, everything commit
            // already applied is durable in place — but an in-doubt
            // transaction resolved commit *here* never ran phase 2, so
            // its buffered writes exist only as log records and must be
            // replayed regardless.
            for r in records.iter().filter(|r| {
                r.kind == RecordKind::Write
                    && if fof_save_completed {
                        resolved_commits.contains(&r.txid)
                    } else {
                        is_committed(r.txid)
                    }
            }) {
                mem.write_u64(r.addr, r.value);
            }
        }
        if config.uses_undo_log() {
            // Undo: roll back transactions that never committed, newest
            // record first.
            for r in records
                .iter()
                .rev()
                .filter(|r| r.kind == RecordKind::Write && !is_committed(r.txid))
            {
                mem.write_u64(r.addr, r.value);
            }
        }

        // Neutralise the log area so stale torn-bit polarities can never
        // be mistaken for live records, then persist the recovered state.
        mem.scrub(LOG_BASE, log_cap.as_u64());
        let log = TornLog::new(LOG_BASE, log_cap, TAIL_PTR_ADDR);
        log.initialize(&mut mem);
        mem.flush_all();

        // Global 2PC txids live in their own high range and must not
        // inflate the local txid counter.
        let next_txid = records
            .iter()
            .map(|r| r.txid)
            .filter(|&txid| txid < GTXID_BASE)
            .max()
            .unwrap_or(0)
            + 1;
        if resolver.is_some() && !resolution.in_doubt.is_empty() {
            obs::emit(
                "pheap",
                "txn_resolved",
                mem.elapsed(),
                resolution.committed.len() as i64,
                resolution.aborted.len() as i64,
            );
        }
        obs::emit(
            "pheap",
            "recovered",
            mem.elapsed(),
            i64::from(partial),
            committed.len() as i64,
        );
        let heap_start = LOG_BASE + log_cap.as_u64();
        Ok((
            PersistentHeap {
                alloc: FreeListAllocator::new(ALLOC_HEAD_ADDR, heap_start, capacity.as_u64()),
                mem,
                config,
                overheads,
                log,
                stm: Stm::new(1024),
                next_txid,
                unflushed_lines: FastSet::default(),
                epoch: None,
                prepared: FastMap::default(),
                flit: FlitTable::new(),
                flit_enabled: true,
                stats: HeapStats::default(),
            },
            resolution,
        ))
    }
}

/// Direct (non-transactional) word access for formatting and the plain
/// FoF configuration.
struct Direct<'a>(&'a mut PersistentMemory);

impl WordStore for Direct<'_> {
    fn load(&mut self, addr: u64) -> u64 {
        self.0.read_u64(addr)
    }
    fn store(&mut self, addr: u64, value: u64) {
        self.0.write_u64(addr, value);
    }
}

/// An open transaction (or, for [`HeapConfig::Fof`], a pass-through
/// handle). Dropping an unfinished transaction aborts it.
pub struct Tx<'h> {
    heap: &'h mut PersistentHeap,
    txid: u64,
    rv: u64,
    read_set: Vec<(usize, u64)>,
    read_stripes: FastSet<usize>,
    /// STM-buffered writes in program order (later entries win).
    write_set: Vec<(u64, u64)>,
    /// Undo records in log order (for volatile rollback on abort).
    undo_order: Vec<(u64, u64)>,
    undo_logged: FastSet<u64>,
    /// Blocks allocated by this transaction: writes into them need no
    /// undo record (rolling back the allocator metadata reclaims them).
    fresh_allocs: Vec<(u64, u64)>,
    touched_lines: FastSet<u64>,
    poisoned: Option<HeapError>,
    finished: bool,
}

impl Tx<'_> {
    /// The transaction id.
    #[must_use]
    pub fn txid(&self) -> u64 {
        self.txid
    }

    /// Reads the word at `ptr`.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidPointer`] for out-of-range pointers;
    /// [`HeapError::Conflict`] if STM detects that the location was
    /// written since this transaction began.
    pub fn read_word(&mut self, ptr: PmPtr) -> Result<u64, HeapError> {
        self.read_addr(ptr.offset())
    }

    fn read_addr(&mut self, addr: u64) -> Result<u64, HeapError> {
        self.heap.check_word_addr(addr)?;
        if self.heap.config.uses_stm() {
            if self.heap.flit_enabled && self.heap.epoch.is_some() {
                // FliT read barrier: one L1-resident probe answers both
                // "did this transaction already write the word?" and "is
                // it buffered in a live epoch generation?" — replacing
                // the write-set scan and the separate epoch-buffer
                // lookup.
                self.heap.mem.charge(self.heap.overheads.flit_probe);
                let hit = self.heap.flit.lookup(addr);
                if let Some(e) = hit {
                    if e.tx_gen == self.txid {
                        return Ok(self.write_set[e.tx_slot].1);
                    }
                }
                let stripe = self.heap.stm.stripe_of(addr);
                let version = self.heap.stm.stripe_version(addr);
                if version > self.rv {
                    return Err(HeapError::Conflict);
                }
                if self.read_stripes.insert(stripe) {
                    self.read_set.push((stripe, version));
                }
                if let Some(e) = hit {
                    if let Some(v) = self
                        .heap
                        .epoch
                        .as_ref()
                        .and_then(|ep| ep.gen_value(e.epoch_gen, e.epoch_slot))
                    {
                        return Ok(v);
                    }
                }
                return Ok(self.heap.mem.read_u64(addr));
            }
            self.heap.mem.charge(
                self.heap.overheads.stm_read
                    + self.heap.overheads.stm_ws_scan * self.write_set.len() as u64,
            );
            // Read-your-own-writes from the write set, newest first.
            if let Some(&(_, v)) = self.write_set.iter().rev().find(|&&(a, _)| a == addr) {
                return Ok(v);
            }
            let stripe = self.heap.stm.stripe_of(addr);
            let version = self.heap.stm.stripe_version(addr);
            if version > self.rv {
                return Err(HeapError::Conflict);
            }
            if self.read_stripes.insert(stripe) {
                self.read_set.push((stripe, version));
            }
            // Earlier transactions in the open epoch committed into the
            // write-behind buffer; their values are not in memory yet.
            if let Some(epoch) = &self.heap.epoch {
                self.heap.mem.charge(self.heap.overheads.epoch_lookup);
                if let Some(v) = epoch.buffered_value(addr) {
                    return Ok(v);
                }
            }
        } else if self.heap.config.uses_undo_log() && self.heap.epoch.is_some() {
            // Undo-flavour epoch mode buffers writes instead of applying
            // them in place, so reads go through the buffers: this
            // transaction's own writes first, then the live epoch
            // generations'.
            if self.heap.flit_enabled {
                self.heap.mem.charge(self.heap.overheads.flit_probe);
                if let Some(e) = self.heap.flit.lookup(addr) {
                    if e.tx_gen == self.txid {
                        return Ok(self.write_set[e.tx_slot].1);
                    }
                    if let Some(v) = self
                        .heap
                        .epoch
                        .as_ref()
                        .and_then(|ep| ep.gen_value(e.epoch_gen, e.epoch_slot))
                    {
                        return Ok(v);
                    }
                }
                return Ok(self.heap.mem.read_u64(addr));
            }
            self.heap.mem.charge(
                self.heap.overheads.epoch_lookup
                    + self.heap.overheads.stm_ws_scan * self.write_set.len() as u64,
            );
            if let Some(&(_, v)) = self.write_set.iter().rev().find(|&&(a, _)| a == addr) {
                return Ok(v);
            }
            if let Some(epoch) = &self.heap.epoch {
                if let Some(v) = epoch.buffered_value(addr) {
                    return Ok(v);
                }
            }
        }
        Ok(self.heap.mem.read_u64(addr))
    }

    /// Writes the word at `ptr`.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidPointer`] for out-of-range pointers.
    pub fn write_word(&mut self, ptr: PmPtr, value: u64) -> Result<(), HeapError> {
        self.write_addr(ptr.offset(), value)
    }

    /// The FliT write barrier shared by both epoch-mode flavours: probe
    /// the per-word table, update the pending write-set entry in place
    /// on a hit (eliding the duplicate record and the flush it would
    /// become), append and tag on a miss.
    fn flit_buffered_write(&mut self, addr: u64, value: u64) {
        match self
            .heap
            .flit
            .lookup(addr)
            .filter(|e| e.tx_gen == self.txid)
        {
            Some(e) => {
                self.heap.mem.charge(self.heap.overheads.flit_hit);
                self.write_set[e.tx_slot].1 = value;
                obs::count(obs::Ctr::FlushSkipped);
            }
            None => {
                self.heap.mem.charge(self.heap.overheads.flit_insert);
                let slot = self.write_set.len();
                self.write_set.push((addr, value));
                self.heap.flit.note_tx_write(addr, self.txid, slot);
            }
        }
    }

    fn write_addr(&mut self, addr: u64, value: u64) -> Result<(), HeapError> {
        self.heap.check_word_addr(addr)?;
        let config = self.heap.config;
        if config.uses_stm() {
            if self.heap.flit_enabled && self.heap.epoch.is_some() {
                self.flit_buffered_write(addr, value);
                return Ok(());
            }
            self.heap.mem.charge(self.heap.overheads.stm_write);
            self.write_set.push((addr, value));
            return Ok(());
        }
        if config.uses_undo_log() {
            if self.heap.epoch.is_some() {
                // Epoch group commit: buffer the write volatile — no undo
                // record, no fence, no in-place store. The seal logs old
                // values and applies the whole epoch at once.
                if self.heap.flit_enabled {
                    self.flit_buffered_write(addr, value);
                    return Ok(());
                }
                self.heap
                    .mem
                    .charge(self.heap.overheads.undo_check + self.heap.overheads.epoch_buffer);
                self.write_set.push((addr, value));
                return Ok(());
            }
            self.heap.mem.charge(self.heap.overheads.undo_check);
            let fresh = self
                .fresh_allocs
                .iter()
                .any(|&(start, len)| addr >= start && addr < start + len);
            if !fresh && self.undo_logged.insert(addr) {
                // An undo log cannot truncate mid-transaction; if the
                // free space (minus one word reserved for the commit or
                // abort marker) cannot hold this record, refuse instead
                // of letting the append panic. In-doubt prepared records
                // pinning the log is the usual way to get here.
                if self.heap.log.free_words() < 5 {
                    self.undo_logged.remove(&addr);
                    return Err(HeapError::LogFull {
                        needed_words: 5,
                        free_words: self.heap.log.free_words(),
                    });
                }
                self.heap.stats.undo_records += 1;
                let old = self.heap.mem.read_u64(addr);
                self.heap.log.append(
                    &mut self.heap.mem,
                    &LogRecord::write(self.txid, addr, old),
                    config.flush_on_commit(),
                );
                if config.flush_on_commit() {
                    // The undo record must be durable before the in-place
                    // write can possibly reach NVRAM (eviction order).
                    self.heap.mem.sfence();
                }
                self.undo_order.push((addr, old));
            }
            self.touched_lines.insert(addr / LINE_SIZE);
        }
        self.heap.mem.write_u64(addr, value);
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `ptr` (word-granular under the
    /// hood, so STM read-your-own-writes still applies).
    ///
    /// # Errors
    ///
    /// As for [`Tx::read_word`].
    pub fn read_bytes(&mut self, ptr: PmPtr, buf: &mut [u8]) -> Result<(), HeapError> {
        let mut addr = ptr.offset();
        let mut pos = 0usize;
        while pos < buf.len() {
            let word_base = addr / 8 * 8;
            let word = self.read_addr(word_base)?.to_le_bytes();
            let offset = (addr - word_base) as usize;
            let chunk = (8 - offset).min(buf.len() - pos);
            buf[pos..pos + chunk].copy_from_slice(&word[offset..offset + chunk]);
            pos += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Writes `data` starting at `ptr` (word-granular read-modify-write).
    ///
    /// # Errors
    ///
    /// As for [`Tx::write_word`].
    pub fn write_bytes(&mut self, ptr: PmPtr, data: &[u8]) -> Result<(), HeapError> {
        let mut addr = ptr.offset();
        let mut pos = 0usize;
        while pos < data.len() {
            let word_base = addr / 8 * 8;
            let offset = (addr - word_base) as usize;
            let chunk = (8 - offset).min(data.len() - pos);
            let mut word = if offset == 0 && chunk == 8 {
                [0u8; 8]
            } else {
                self.read_addr(word_base)?.to_le_bytes()
            };
            word[offset..offset + chunk].copy_from_slice(&data[pos..pos + chunk]);
            self.write_addr(word_base, u64::from_le_bytes(word))?;
            pos += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Allocates `size` bytes in the persistent heap.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] when no block fits, or a propagated
    /// transactional error.
    pub fn alloc(&mut self, size: u64) -> Result<PmPtr, HeapError> {
        let alloc = self.heap.alloc;
        let ptr = {
            let mut words = TxWords(self);
            alloc.alloc(&mut words, size)?
        };
        if let Some(e) = self.poisoned.take() {
            return Err(e);
        }
        if self.heap.config.uses_undo_log() {
            // Payload rounded as the allocator rounds it.
            self.fresh_allocs.push((ptr, size.max(16).div_ceil(8) * 8));
        }
        self.heap.stats.bytes_allocated += size;
        PmPtr::new(ptr).ok_or(HeapError::InvalidPointer { offset: ptr })
    }

    /// Frees an allocation.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidPointer`] if `ptr` is not a live allocation.
    pub fn free(&mut self, ptr: PmPtr) -> Result<(), HeapError> {
        let alloc = self.heap.alloc;
        {
            let mut words = TxWords(self);
            alloc.free(&mut words, ptr.offset())?;
        }
        if let Some(e) = self.poisoned.take() {
            return Err(e);
        }
        self.heap.stats.frees += 1;
        Ok(())
    }

    /// Publishes `ptr` as the heap's root object.
    ///
    /// # Errors
    ///
    /// As for [`Tx::write_word`].
    pub fn set_root(&mut self, ptr: PmPtr) -> Result<(), HeapError> {
        self.write_addr(ROOT_ADDR, ptr.offset())
    }

    /// Reads the current root (seeing this transaction's own update).
    ///
    /// # Errors
    ///
    /// As for [`Tx::read_word`].
    pub fn root(&mut self) -> Result<Option<PmPtr>, HeapError> {
        Ok(PmPtr::new(self.read_addr(ROOT_ADDR)?))
    }

    /// Commits the transaction, making its effects durable according to
    /// the heap's flush policy.
    ///
    /// # Errors
    ///
    /// [`HeapError::Conflict`] if STM validation fails (the transaction
    /// is discarded, as on abort).
    pub fn commit(mut self) -> Result<(), HeapError> {
        // Counters and one histogram sample only — no per-commit trace
        // event, this is the hottest path in the workload benchmarks.
        let t0 = self.heap.mem.elapsed();
        let result = self.commit_inner();
        match result {
            Ok(()) => {
                obs::count(obs::Ctr::TxCommits);
                obs::observe(obs::Hist::TxCommit, self.heap.mem.elapsed() - t0);
            }
            Err(HeapError::Conflict) => obs::count(obs::Ctr::TxConflicts),
            Err(_) => {}
        }
        result
    }

    fn commit_inner(&mut self) -> Result<(), HeapError> {
        self.finished = true;
        let config = self.heap.config;
        match config {
            HeapConfig::Fof => {
                self.heap.stats.commits += 1;
                Ok(())
            }
            HeapConfig::FocUndo | HeapConfig::FofUndo => {
                self.heap.stats.commits += 1;
                let flush = config.flush_on_commit();
                if flush && self.heap.epoch.is_some() {
                    // Epoch group commit: hand the buffered write set to
                    // the epoch. Nothing touched NVRAM during this
                    // transaction, so a crash before the seal simply loses
                    // the whole epoch — atomically.
                    if !self.write_set.is_empty() {
                        let write_set = std::mem::take(&mut self.write_set);
                        self.heap.epoch_absorb(self.txid, &write_set);
                    }
                    return Ok(());
                }
                if self.undo_order.is_empty() && self.touched_lines.is_empty() {
                    // Read-only: nothing to make durable, no marker needed.
                    return Ok(());
                }
                if flush {
                    // Data must be durable before the commit marker: a
                    // marker without the data would break recovery.
                    let lines: Vec<u64> = self.touched_lines.iter().copied().collect();
                    for line in lines {
                        self.heap.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
                    }
                    self.heap.mem.sfence();
                } else {
                    // Flush-on-fail: committed in-place data stays cached;
                    // remember the lines so a priority (stage-A) flush can
                    // make exactly the committed state durable.
                    for &line in &self.touched_lines {
                        self.heap.unflushed_lines.insert(line);
                    }
                }
                self.heap
                    .log
                    .append(&mut self.heap.mem, &LogRecord::commit(self.txid), flush);
                if flush {
                    self.heap.mem.sfence();
                }
                if self.heap.log.needs_truncation() {
                    self.heap.truncate_preserving(flush);
                }
                Ok(())
            }
            HeapConfig::FocStm | HeapConfig::FofStm => {
                let flush = config.flush_on_commit();
                self.heap.mem.charge(
                    self.heap.overheads.stm_validate * self.read_set.len() as u64,
                );
                if !self.heap.stm.validate(self.rv, &self.read_set) {
                    self.heap.stats.conflicts += 1;
                    return Err(HeapError::Conflict);
                }
                if self.write_set.is_empty() {
                    // Read-only: validated, nothing to log or apply.
                    self.heap.stats.commits += 1;
                    return Ok(());
                }
                if flush && self.heap.epoch.is_some() {
                    // Epoch group commit: no log traffic at all — the
                    // write set is buffered write-behind and the seal
                    // writes one coalesced, fenced record batch for the
                    // whole epoch.
                    self.heap.stats.commits += 1;
                    self.heap.stm.commit(self.write_set.iter().map(|&(a, _)| a));
                    let write_set = std::mem::take(&mut self.write_set);
                    self.heap.epoch_absorb(self.txid, &write_set);
                    return Ok(());
                }
                // Make room in the log for the whole commit record set;
                // in-doubt prepared records are pinned across the
                // truncation, so the room may genuinely not exist.
                let needed = self.write_set.len() as u64 * 4 + 1;
                if self.heap.log.free_words() < needed + 8 {
                    self.heap.truncate_redo_log();
                }
                if self.heap.log.free_words() < needed {
                    return Err(HeapError::LogFull {
                        needed_words: needed,
                        free_words: self.heap.log.free_words(),
                    });
                }
                self.heap.stats.commits += 1;
                self.heap.stats.redo_records += self.write_set.len() as u64;
                if flush {
                    self.heap
                        .mem
                        .charge(self.heap.overheads.redo_append * self.write_set.len() as u64);
                }
                for &(addr, value) in &self.write_set {
                    self.heap.log.append(
                        &mut self.heap.mem,
                        &LogRecord::write(self.txid, addr, value),
                        flush,
                    );
                }
                self.heap
                    .log
                    .append(&mut self.heap.mem, &LogRecord::commit(self.txid), flush);
                if flush {
                    self.heap.mem.sfence();
                }
                // Apply in place (cached) and remember the dirty lines for
                // the next truncation's flush.
                for &(addr, value) in &self.write_set {
                    self.heap.mem.write_u64(addr, value);
                    self.heap.unflushed_lines.insert(addr / LINE_SIZE);
                }
                self.heap.stm.commit(self.write_set.iter().map(|&(a, _)| a));
                Ok(())
            }
        }
    }

    /// Harness support: records a write by a concurrent client landing
    /// *while this transaction is open*. Subsequent reads of the stripe
    /// (and commit-time validation) will conflict — the mechanism
    /// multi-client contention tests drive.
    pub fn interfere(&mut self, addr: u64) {
        self.heap.stm.external_write(addr);
    }

    /// Aborts the transaction, rolling back any in-place (undo-logged)
    /// writes. Dropping an unfinished transaction does the same.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn rollback(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.heap.stats.aborts += 1;
        obs::count(obs::Ctr::TxAborts);
        let config = self.heap.config;
        if config.uses_undo_log() {
            let flush = config.flush_on_commit();
            if flush && self.heap.epoch.is_some() {
                // Epoch mode: the transaction's writes were buffered, never
                // applied and never logged — discarding them is the whole
                // rollback.
                self.write_set.clear();
                return;
            }
            for &(addr, old) in self.undo_order.iter().rev() {
                self.heap.mem.write_u64(addr, old);
            }
            if flush {
                let lines: Vec<u64> = self.touched_lines.iter().copied().collect();
                for line in lines {
                    self.heap.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
                }
                self.heap.mem.sfence();
            } else {
                // Flush-on-fail: the rolled-back old values live only in
                // cache; track the lines for the priority flush.
                for &line in &self.touched_lines {
                    self.heap.unflushed_lines.insert(line);
                }
            }
            // The abort marker is an optimization (recovery rolls back
            // any uncommitted records anyway); skip it rather than
            // panic when in-doubt records have pinned the log full.
            if self.heap.log.free_words() >= 1 {
                self.heap
                    .log
                    .append(&mut self.heap.mem, &LogRecord::abort(self.txid), flush);
                if flush {
                    self.heap.mem.sfence();
                }
            }
        }
        // STM / plain: buffered writes are simply discarded.
        self.write_set.clear();
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        self.rollback();
    }
}

impl PersistentHeap {
    /// Truncates the redo log, first flushing every in-place data line
    /// updated since the last truncation (flush-on-commit only): after
    /// truncation the log can no longer replay them, so NVRAM must hold
    /// them directly.
    fn truncate_redo_log(&mut self) {
        if self.config.flush_on_commit() {
            let lines: Vec<u64> = self.unflushed_lines.drain().collect();
            obs::count_by(obs::Ctr::FlushIssued, lines.len() as u64);
            for line in lines {
                self.mem.clflush_range(line * LINE_SIZE, LINE_SIZE);
            }
            self.mem.sfence();
        }
        // Flush-on-fail: the lines stay tracked — after truncation the
        // log can no longer replay them, so they are exactly what a
        // priority (stage-A) flush must make durable.
        self.truncate_preserving(self.config.flush_on_commit());
    }

    /// In-doubt 2PC pins: global transactions prepared here and still
    /// awaiting the coordinator's decision. A shard holding pins ranks
    /// above its peers in shared-power-domain triage — losing its image
    /// forfeits votes other shards' outcomes depend on.
    #[must_use]
    pub fn in_doubt_pins(&self) -> u64 {
        self.prepared.len() as u64
    }

    /// Log words the in-doubt prepared transactions occupy — what a
    /// preserving truncation re-appends, and the floor the log can never
    /// be truncated below while the coordinator's decisions are pending.
    fn prepared_log_words(&self) -> u64 {
        self.prepared
            .values()
            .map(|p| p.writes.len() as u64 * 4 + 1)
            .sum()
    }

    /// Truncates the log while keeping every in-doubt prepared global
    /// transaction recoverable: its write records and PREPARED marker
    /// are re-appended so the coordinator's eventual decision can still
    /// be honoured after a crash. When space allows, the copies go in
    /// *before* the tail pointer moves (fenced), so every durable step
    /// of the truncation leaves a complete in-doubt record set; when the
    /// log is too full for the copies, it truncates first — records that
    /// were live a moment ago always fit in the emptied log.
    fn truncate_preserving(&mut self, flush: bool) {
        self.stats.truncations += 1;
        if self.prepared.is_empty() {
            self.log.truncate(&mut self.mem, flush);
            return;
        }
        let needed = self.prepared_log_words();
        let safe_order = self.log.free_words() >= needed;
        let mark = self.log.mark();
        if !safe_order {
            self.log.truncate(&mut self.mem, flush);
        }
        let mut gtxids: Vec<u64> = self.prepared.keys().copied().collect();
        gtxids.sort_unstable();
        for gtxid in gtxids {
            let p = &self.prepared[&gtxid];
            // Undo flavour logged old values, redo flavour final ones —
            // re-append exactly what prepare wrote.
            let records: Vec<(u64, u64)> = if self.config.uses_undo_log() {
                p.olds.clone()
            } else {
                p.writes.clone()
            };
            for (addr, value) in records {
                self.log
                    .append(&mut self.mem, &LogRecord::write(gtxid, addr, value), flush);
            }
            self.log.append(&mut self.mem, &LogRecord::prepare(gtxid), flush);
        }
        if flush {
            self.mem.sfence();
        }
        if safe_order {
            self.log.truncate_to(&mut self.mem, mark, flush);
        }
    }

    /// Makes log room ahead of a batched append: flushes replay-dependent
    /// data lines first for the redo flavour, and always preserves
    /// in-doubt prepared transactions across the truncation.
    fn make_log_room(&mut self) {
        if self.config.uses_redo_log() {
            self.truncate_redo_log();
        } else {
            self.truncate_preserving(true);
        }
    }
}

/// Adapter letting the allocator run its metadata accesses through the
/// transaction (so they are logged and rolled back like data). Errors are
/// parked in `poisoned` and re-raised by the calling operation.
struct TxWords<'a, 'h>(&'a mut Tx<'h>);

impl WordStore for TxWords<'_, '_> {
    fn load(&mut self, addr: u64) -> u64 {
        match self.0.read_addr(addr) {
            Ok(v) => v,
            Err(e) => {
                self.0.poisoned.get_or_insert(e);
                0
            }
        }
    }
    fn store(&mut self, addr: u64, value: u64) {
        if let Err(e) = self.0.write_addr(addr, value) {
            self.0.poisoned.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(config: HeapConfig) -> PersistentHeap {
        PersistentHeap::create(ByteSize::kib(256), config)
    }

    fn put_one(heap: &mut PersistentHeap, value: u64) -> PmPtr {
        let mut tx = heap.begin();
        let p = tx.alloc(16).unwrap();
        tx.write_word(p, value).unwrap();
        tx.set_root(p).unwrap();
        tx.commit().unwrap();
        p
    }

    #[test]
    fn basic_alloc_write_read_in_every_config() {
        for config in HeapConfig::all() {
            let mut h = heap(config);
            let p = put_one(&mut h, 1234);
            let mut tx = h.begin();
            assert_eq!(tx.read_word(p).unwrap(), 1234, "{config}");
            assert_eq!(tx.root().unwrap(), Some(p));
            tx.commit().unwrap();
        }
    }

    #[test]
    fn foc_configs_recover_committed_state_without_save() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 42);
            let image = h.crash(false);
            let mut r = PersistentHeap::recover(image).unwrap();
            assert_eq!(r.config(), config);
            let root = r.root().expect("root survives");
            assert_eq!(root, p);
            let mut tx = r.begin();
            assert_eq!(tx.read_word(root).unwrap(), 42, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn foc_configs_lose_uncommitted_transactions() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            // Open a transaction that writes but never commits.
            let mut tx = h.begin();
            tx.write_word(p, 999).unwrap();
            drop(tx); // abort
            let mut tx = h.begin();
            tx.write_word(p, 777).unwrap();
            std::mem::forget(tx); // crash mid-transaction: no abort runs
        }
    }

    #[test]
    fn foc_undo_rolls_back_in_flight_transaction_on_recovery() {
        let mut h = heap(HeapConfig::FocUndo);
        let p = put_one(&mut h, 41);
        // Write in a transaction, then crash before commit. The in-place
        // write may or may not have reached NVRAM; recovery must roll it
        // back either way.
        let mut tx = h.begin();
        tx.write_word(p, 13).unwrap();
        // Force the dirty line out so the "wrote to NVRAM early" case is
        // actually exercised.
        tx.heap.mem.clflush_range(p.offset(), 8);
        tx.heap.mem.sfence();
        // Simulate the crash: leak the tx so no abort cleanup runs.
        let txid = tx.txid();
        assert!(txid > 0);
        std::mem::forget(unsafe_extend(tx));
        let image = h.crash(false);
        let mut r = PersistentHeap::recover(image).unwrap();
        let root = r.root().unwrap();
        let mut check = r.begin();
        assert_eq!(check.read_word(root).unwrap(), 41, "rolled back");
        check.commit().unwrap();
    }

    /// Helper: extend a Tx's lifetime so `std::mem::forget` can outlive
    /// the borrow checker's view of the heap borrow. Safe here because the
    /// forgotten Tx is never touched again.
    fn unsafe_extend(tx: Tx<'_>) -> Tx<'_> {
        tx
    }

    #[test]
    fn fof_configs_are_unrecoverable_without_save() {
        for config in [HeapConfig::FofStm, HeapConfig::FofUndo, HeapConfig::Fof] {
            let mut h = heap(config);
            put_one(&mut h, 7);
            let image = h.crash(false);
            assert!(matches!(
                PersistentHeap::recover(image),
                Err(HeapError::Unrecoverable { .. })
            ));
        }
    }

    #[test]
    fn fof_partial_image_recovers_committed_state() {
        for config in [HeapConfig::FofStm, HeapConfig::FofUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 4242);
            // Enough committed transactions to truncate the redo log at
            // least once, exercising unflushed-line retention across
            // truncation.
            let mut cells = Vec::new();
            for i in 0..400u64 {
                let mut tx = h.begin();
                let c = tx.alloc(8).unwrap();
                tx.write_word(c, i * 3 + 1).unwrap();
                tx.commit().unwrap();
                cells.push(c);
            }
            let flush_cost = h.priority_flush();
            assert!(flush_cost > Nanos::ZERO);
            // Power dies before the bulk flush-on-fail save completes.
            let image = h.crash(false);
            let mut r = PersistentHeap::recover_partial(image).unwrap();
            let root = r.root().unwrap();
            assert_eq!(root, p);
            let mut tx = r.begin();
            assert_eq!(tx.read_word(root).unwrap(), 4242, "{config}");
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(
                    tx.read_word(*c).unwrap(),
                    i as u64 * 3 + 1,
                    "{config} cell {i}"
                );
            }
            tx.commit().unwrap();
        }
    }

    #[test]
    fn fof_partial_recovery_rolls_back_in_flight_transaction() {
        let mut h = heap(HeapConfig::FofUndo);
        let p = put_one(&mut h, 41);
        let mut tx = h.begin();
        tx.write_word(p, 13).unwrap();
        // Evict the dirty line so the "new value reached NVRAM early"
        // case is exercised; the durable undo record must fix it.
        tx.heap.mem.clflush_range(p.offset(), 8);
        tx.heap.mem.sfence();
        std::mem::forget(unsafe_extend(tx));
        h.priority_flush();
        let image = h.crash(false);
        let mut r = PersistentHeap::recover_partial(image).unwrap();
        let root = r.root().unwrap();
        let mut check = r.begin();
        assert_eq!(check.read_word(root).unwrap(), 41, "rolled back");
        check.commit().unwrap();
    }

    #[test]
    fn plain_fof_partial_image_is_unrecoverable() {
        let mut h = heap(HeapConfig::Fof);
        put_one(&mut h, 7);
        h.priority_flush();
        let image = h.crash(false);
        assert!(matches!(
            PersistentHeap::recover_partial(image),
            Err(HeapError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn fof_configs_recover_everything_with_save() {
        for config in [HeapConfig::FofStm, HeapConfig::FofUndo, HeapConfig::Fof] {
            let mut h = heap(config);
            let p = put_one(&mut h, 2026);
            let image = h.crash(true);
            let mut r = PersistentHeap::recover(image).unwrap();
            let root = r.root().unwrap();
            assert_eq!(root, p);
            let mut tx = r.begin();
            assert_eq!(tx.read_word(root).unwrap(), 2026, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn abort_rolls_back_undo_writes() {
        for config in [HeapConfig::FocUndo, HeapConfig::FofUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 5);
            let mut tx = h.begin();
            tx.write_word(p, 50).unwrap();
            assert_eq!(tx.read_word(p).unwrap(), 50);
            tx.abort();
            let mut tx = h.begin();
            assert_eq!(tx.read_word(p).unwrap(), 5, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn stm_buffers_writes_until_commit() {
        let mut h = heap(HeapConfig::FofStm);
        let p = put_one(&mut h, 1);
        let mut tx = h.begin();
        tx.write_word(p, 2).unwrap();
        // Read-your-own-writes.
        assert_eq!(tx.read_word(p).unwrap(), 2);
        tx.abort();
        let mut tx = h.begin();
        assert_eq!(tx.read_word(p).unwrap(), 1);
        tx.commit().unwrap();
    }

    #[test]
    fn stm_conflict_detected_at_commit() {
        let mut h = heap(HeapConfig::FocStm);
        let p = put_one(&mut h, 10);
        let mut tx = h.begin();
        let _ = tx.read_word(p).unwrap();
        // Another thread commits a write to the same stripe.
        tx.heap.stm.external_write(p.offset());
        tx.write_word(p, 11).unwrap();
        assert_eq!(tx.commit().unwrap_err(), HeapError::Conflict);
        // The failed transaction left no trace.
        let mut tx = h.begin();
        assert_eq!(tx.read_word(p).unwrap(), 10);
        tx.commit().unwrap();
    }

    #[test]
    fn stm_eager_conflict_on_read() {
        let mut h = heap(HeapConfig::FofStm);
        let p = put_one(&mut h, 10);
        let mut tx = h.begin();
        tx.heap.stm.external_write(p.offset());
        assert_eq!(tx.read_word(p).unwrap_err(), HeapError::Conflict);
        tx.abort();
    }

    #[test]
    fn alloc_free_cycle_reuses_memory() {
        for config in HeapConfig::all() {
            let mut h = heap(config);
            let mut tx = h.begin();
            let a = tx.alloc(64).unwrap();
            tx.free(a).unwrap();
            let b = tx.alloc(64).unwrap();
            assert_eq!(a, b, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn bytes_round_trip_across_word_boundaries() {
        let mut h = heap(HeapConfig::FocUndo);
        let mut tx = h.begin();
        let p = tx.alloc(64).unwrap();
        let payload = b"whole-system persistence!";
        tx.write_bytes(p.byte_offset(3), payload).unwrap();
        let mut buf = [0u8; 25];
        tx.read_bytes(p.byte_offset(3), &mut buf).unwrap();
        assert_eq!(&buf, payload);
        tx.commit().unwrap();
    }

    #[test]
    fn many_transactions_force_log_truncation() {
        // A small heap has an 8 KiB log (1024 words); each FocUndo tx
        // writes ~4 records + marker, so a few hundred txs force several
        // truncations.
        for config in [HeapConfig::FocUndo, HeapConfig::FofUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            for i in 0..500u64 {
                let mut tx = h.begin();
                tx.write_word(p, i).unwrap();
                tx.commit().unwrap();
            }
            let mut tx = h.begin();
            assert_eq!(tx.read_word(p).unwrap(), 499, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn truncation_preserves_crash_consistency() {
        // After heavy truncation traffic, a crash must still recover the
        // last committed value.
        let mut h = heap(HeapConfig::FocStm);
        let p = put_one(&mut h, 0);
        for i in 1..=300u64 {
            let mut tx = h.begin();
            tx.write_word(p, i).unwrap();
            tx.commit().unwrap();
        }
        let image = h.crash(false);
        let mut r = PersistentHeap::recover(image).unwrap();
        let root = r.root().unwrap();
        let mut tx = r.begin();
        assert_eq!(tx.read_word(root).unwrap(), 300);
        tx.commit().unwrap();
    }

    #[test]
    fn double_crash_recovery_is_stable() {
        let mut h = heap(HeapConfig::FocUndo);
        put_one(&mut h, 99);
        let image = h.crash(false);
        let r1 = PersistentHeap::recover(image).unwrap();
        let image2 = r1.crash(false);
        let mut r2 = PersistentHeap::recover(image2).unwrap();
        let root = r2.root().unwrap();
        let mut tx = r2.begin();
        assert_eq!(tx.read_word(root).unwrap(), 99);
        tx.commit().unwrap();
    }

    #[test]
    fn flush_on_commit_costs_more_than_flush_on_fail() {
        let mut foc = heap(HeapConfig::FocStm);
        let mut fof = heap(HeapConfig::Fof);
        let p1 = put_one(&mut foc, 0);
        let p2 = put_one(&mut fof, 0);
        let t_foc0 = foc.elapsed();
        let t_fof0 = fof.elapsed();
        for i in 0..200u64 {
            let mut tx = foc.begin();
            tx.write_word(p1, i).unwrap();
            tx.commit().unwrap();
            let mut tx = fof.begin();
            tx.write_word(p2, i).unwrap();
            tx.commit().unwrap();
        }
        let foc_time = foc.elapsed() - t_foc0;
        let fof_time = fof.elapsed() - t_fof0;
        assert!(
            foc_time.as_nanos() > 3 * fof_time.as_nanos(),
            "FoC {foc_time} should dwarf FoF {fof_time}"
        );
    }

    #[test]
    fn corrupt_image_rejected() {
        let h = heap(HeapConfig::Fof);
        let mut image = h.crash(true);
        image.bytes[0] ^= 0xff;
        assert_eq!(
            PersistentHeap::recover(image).unwrap_err(),
            HeapError::CorruptHeader
        );
    }

    #[test]
    fn out_of_range_pointer_rejected() {
        let mut h = heap(HeapConfig::Fof);
        let mut tx = h.begin();
        let end = ByteSize::kib(256).as_u64();
        let bad = PmPtr::new(end).unwrap();
        assert!(matches!(
            tx.read_word(bad),
            Err(HeapError::InvalidPointer { .. })
        ));
        let misaligned = PmPtr::new(LOG_BASE + 4);
        assert!(misaligned.is_none());
        tx.commit().unwrap();
    }

    #[test]
    fn epoch_mode_inert_for_flush_on_fail_configs() {
        for config in [HeapConfig::FofStm, HeapConfig::FofUndo, HeapConfig::Fof] {
            let mut h = heap(config);
            h.set_epoch_size(32);
            assert_eq!(h.epoch_size(), 1, "{config}");
            assert!(h.epoch().is_none());
        }
    }

    #[test]
    fn epoch_commit_batches_markers() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            h.set_epoch_size(8);
            for i in 0..20u64 {
                let mut tx = h.begin();
                tx.write_word(p, i + 1).unwrap();
                tx.commit().unwrap();
            }
            // Double buffering: epoch 1 (txs 1–8) staged at tx 8 and
            // drained when epoch 2 staged at tx 16; epoch 2 is still in
            // flight, txs 17–20 fill the open batch.
            assert_eq!(h.stats().epochs_sealed, 1, "{config}");
            assert_eq!(h.epoch().unwrap().staged(), 8);
            assert_eq!(h.epoch().unwrap().pending(), 4);
            // The full barrier drains both generations.
            h.seal_epoch();
            assert_eq!(h.stats().epochs_sealed, 3);
            assert_eq!(h.epoch().unwrap().staged(), 0);
            assert_eq!(h.epoch().unwrap().pending(), 0);
        }
    }

    #[test]
    fn epoch_crash_rolls_back_to_last_sealed_epoch() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            h.set_epoch_size(4);
            // 10 commits: epoch 1 (txs 1–4) is staged at tx 4 and made
            // durable when epoch 2 stages at tx 8 — double buffering
            // lags durability by one generation. Epoch 2 is still in
            // flight and txs 9–10 sit in the open batch; the crash
            // loses both.
            for i in 1..=10u64 {
                let mut tx = h.begin();
                tx.write_word(p, i * 100).unwrap();
                tx.commit().unwrap();
            }
            let image = h.crash(false);
            let mut r = PersistentHeap::recover(image).unwrap();
            let root = r.root().unwrap();
            let mut tx = r.begin();
            assert_eq!(
                tx.read_word(root).unwrap(),
                400,
                "{config}: restore truncates at the epoch marker"
            );
            tx.commit().unwrap();
        }
    }

    #[test]
    fn crash_mid_seal_never_exposes_partial_epoch() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            // Baseline: one sealed epoch over eight cells spanning
            // several cache lines, so the seal has records to append
            // AND multiple coalesced lines to flush.
            let mut h = heap(config);
            let mut tx = h.begin();
            let base = tx.alloc(8 * 64).unwrap();
            let cells: Vec<PmPtr> = (0..8).map(|i| base.byte_offset(i * 64)).collect();
            for (i, &p) in cells.iter().enumerate() {
                tx.write_word(p, i as u64 + 10).unwrap();
            }
            tx.set_root(base).unwrap();
            tx.commit().unwrap();
            h.set_epoch_size(16);
            for (i, &p) in cells.iter().enumerate() {
                let mut tx = h.begin();
                tx.write_word(p, i as u64 + 1000).unwrap();
                tx.commit().unwrap();
            }
            h.seal_epoch();
            // Open epoch: overwrite every cell again, never sealed.
            for (i, &p) in cells.iter().enumerate() {
                let mut tx = h.begin();
                tx.write_word(p, i as u64 + 9000).unwrap();
                tx.commit().unwrap();
            }
            let steps = h.seal_steps();
            assert!(steps > 8, "{config}: records + fence at minimum");
            for step in 0..=steps {
                let image = h.clone().crash_mid_seal(step);
                let mut r = PersistentHeap::recover(image).unwrap();
                let mut tx = r.begin();
                for (i, &p) in cells.iter().enumerate() {
                    assert_eq!(
                        tx.read_word(p).unwrap(),
                        i as u64 + 1000,
                        "{config}: cell {i} at seal step {step}/{steps}"
                    );
                }
                tx.commit().unwrap();
            }
        }
    }

    #[test]
    fn sealed_epoch_survives_crash() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            h.set_epoch_size(32);
            for i in 1..=5u64 {
                let mut tx = h.begin();
                tx.write_word(p, i).unwrap();
                tx.commit().unwrap();
            }
            h.seal_epoch();
            let image = h.crash(false);
            let mut r = PersistentHeap::recover(image).unwrap();
            let root = r.root().unwrap();
            let mut tx = r.begin();
            assert_eq!(tx.read_word(root).unwrap(), 5, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn epoch_reads_see_write_behind_buffer() {
        let mut h = heap(HeapConfig::FocStm);
        let p = put_one(&mut h, 1);
        h.set_epoch_size(16);
        let mut tx = h.begin();
        tx.write_word(p, 2).unwrap();
        tx.commit().unwrap();
        // The committed value lives only in the epoch buffer, but later
        // transactions must read it.
        let mut tx = h.begin();
        assert_eq!(tx.read_word(p).unwrap(), 2);
        tx.write_word(p, 3).unwrap();
        tx.commit().unwrap();
        let mut tx = h.begin();
        assert_eq!(tx.read_word(p).unwrap(), 3);
        tx.commit().unwrap();
        // Sealing applies the buffer in place; reads still agree.
        h.seal_epoch();
        let mut tx = h.begin();
        assert_eq!(tx.read_word(p).unwrap(), 3);
        tx.commit().unwrap();
    }

    #[test]
    fn epoch_abort_restores_old_value_durably() {
        let mut h = heap(HeapConfig::FocUndo);
        let p = put_one(&mut h, 7);
        h.set_epoch_size(8);
        let mut tx = h.begin();
        tx.write_word(p, 999).unwrap();
        tx.abort();
        // A few commits then a crash without sealing: the aborted value
        // must never surface.
        for i in 0..3u64 {
            let mut tx = h.begin();
            let c = tx.alloc(8).unwrap();
            tx.write_word(c, i).unwrap();
            tx.commit().unwrap();
        }
        h.seal_epoch();
        let image = h.crash(false);
        let mut r = PersistentHeap::recover(image).unwrap();
        let root = r.root().unwrap();
        let mut tx = r.begin();
        assert_eq!(tx.read_word(root).unwrap(), 7);
        tx.commit().unwrap();
    }

    #[test]
    fn epoch_mixed_with_per_tx_markers_recovers_both() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            // Per-transaction commits first...
            for i in 1..=3u64 {
                let mut tx = h.begin();
                tx.write_word(p, i).unwrap();
                tx.commit().unwrap();
            }
            // ...then epoch mode on the same log. The full barrier
            // drains the staged generation double buffering would
            // otherwise still be pipelining.
            h.set_epoch_size(2);
            for i in 4..=5u64 {
                let mut tx = h.begin();
                tx.write_word(p, i).unwrap();
                tx.commit().unwrap();
            }
            h.seal_epoch();
            let image = h.crash(false);
            let mut r = PersistentHeap::recover(image).unwrap();
            let root = r.root().unwrap();
            let mut tx = r.begin();
            assert_eq!(tx.read_word(root).unwrap(), 5, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn epoch_seals_under_log_pressure_and_stays_consistent() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            // Epoch far larger than the log can hold: the coalesced
            // record set (one per distinct address) must pressure-seal
            // early instead of overflowing. Allocations make every
            // transaction touch fresh addresses.
            h.set_epoch_size(1_000_000);
            for i in 1..=800u64 {
                let mut tx = h.begin();
                let c = tx.alloc(8).unwrap();
                tx.write_word(c, i).unwrap();
                tx.write_word(p, i).unwrap();
                tx.commit().unwrap();
            }
            assert!(h.stats().epochs_sealed > 0, "{config}: pressure seals");
            let image = h.crash(false);
            let mut r = PersistentHeap::recover(image).unwrap();
            let root = r.root().unwrap();
            let mut tx = r.begin();
            let v = tx.read_word(root).unwrap();
            assert!(v <= 800, "{config}");
            assert!(v > 0, "{config}: at least one sealed epoch survives");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn epoch_mode_outruns_per_tx_durability() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut per_tx = heap(config);
            let mut epoch = heap(config);
            let p1 = put_one(&mut per_tx, 0);
            let p2 = put_one(&mut epoch, 0);
            epoch.set_epoch_size(32);
            let t1 = per_tx.elapsed();
            let t2 = epoch.elapsed();
            for i in 0..256u64 {
                let mut tx = per_tx.begin();
                tx.write_word(p1, i).unwrap();
                tx.commit().unwrap();
                let mut tx = epoch.begin();
                tx.write_word(p2, i).unwrap();
                tx.commit().unwrap();
            }
            epoch.seal_epoch();
            let per_tx_time = per_tx.elapsed() - t1;
            let epoch_time = epoch.elapsed() - t2;
            assert!(
                epoch_time.as_nanos() * 2 < per_tx_time.as_nanos(),
                "{config}: epoch {epoch_time} should be well under half of per-tx {per_tx_time}"
            );
        }
    }

    #[test]
    fn epoch_coalesces_duplicate_line_flushes() {
        let mut h = heap(HeapConfig::FocUndo);
        let p = put_one(&mut h, 0);
        h.set_epoch_size(16);
        // 16 transactions all dirtying the same word: FliT merges the
        // duplicates at absorb time, so the seal flushes the line once
        // and the rest count as coalesced.
        for i in 0..16u64 {
            let mut tx = h.begin();
            tx.write_word(p, i).unwrap();
            tx.commit().unwrap();
        }
        h.seal_epoch();
        assert_eq!(h.stats().epochs_sealed, 1);
        assert!(
            h.stats().epoch_coalesced_lines > 0,
            "duplicates coalesced: {}",
            h.stats()
        );
    }

    #[test]
    fn empty_seal_is_a_guarded_noop() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            h.set_epoch_size(8);
            let free_before = h.log.free_words();
            let sealed_before = h.stats().epochs_sealed;
            // Nothing buffered: no records, no marker, no log growth.
            h.seal_epoch();
            h.seal_epoch();
            assert_eq!(h.log.free_words(), free_before, "{config}: zero log growth");
            assert_eq!(h.stats().epochs_sealed, sealed_before, "{config}");
            // A real seal then an empty one: only the first moves the log.
            let mut tx = h.begin();
            tx.write_word(p, 42).unwrap();
            tx.commit().unwrap();
            h.seal_epoch();
            let free_after_real = h.log.free_words();
            assert!(free_after_real < free_before, "{config}: real seal appends");
            h.seal_epoch();
            assert_eq!(h.log.free_words(), free_after_real, "{config}");
        }
    }

    #[test]
    fn staged_epoch_values_stay_readable() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.set_epoch_size(2);
            // Txs 1–2 fill and stage generation 1 (not yet durable);
            // tx 3 opens generation 2.
            for v in [2u64, 3, 4] {
                let mut tx = h.begin();
                tx.write_word(p, v).unwrap();
                tx.commit().unwrap();
            }
            assert_eq!(h.epoch().unwrap().staged(), 2, "{config}: gen 1 in flight");
            let mut tx = h.begin();
            assert_eq!(tx.read_word(p).unwrap(), 4, "{config}: open batch read");
            tx.commit().unwrap();
            // The second stage drains gen 1 and puts gen 2 {4, 5} in
            // flight; its values must still be readable through FliT's
            // generation tags.
            let mut tx = h.begin();
            tx.write_word(p, 5).unwrap();
            tx.commit().unwrap();
            assert_eq!(h.epoch().unwrap().staged(), 2, "{config}");
            let mut tx = h.begin();
            assert_eq!(tx.read_word(p).unwrap(), 5, "{config}: staged batch read");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn seal_steps_span_both_generations() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let mut h = heap(config);
            let p = put_one(&mut h, 0);
            h.set_epoch_size(2);
            // Distinct words so the staged and open batches both hold
            // records of their own.
            let mut tx = h.begin();
            let q = tx.alloc(8).unwrap();
            tx.write_word(q, 1).unwrap();
            tx.commit().unwrap();
            let mut tx = h.begin();
            tx.write_word(p, 2).unwrap();
            tx.commit().unwrap();
            let staged_only = h.seal_steps();
            assert!(staged_only > 0, "{config}");
            assert_eq!(h.staged_seal_steps(), staged_only, "{config}: all staged");
            let mut tx = h.begin();
            tx.write_word(p, 3).unwrap();
            tx.commit().unwrap();
            let both = h.seal_steps();
            assert!(
                both > h.staged_seal_steps(),
                "{config}: open batch adds steps past the staged boundary"
            );
            // Crashing past the staged boundary must preserve the staged
            // epoch; at or below it, nothing.
            let image = h.clone().crash_mid_seal(h.staged_seal_steps() + 1);
            let mut r = PersistentHeap::recover(image).unwrap();
            let mut tx = r.begin();
            assert_eq!(tx.read_word(p).unwrap(), 2, "{config}: staged epoch durable");
            tx.commit().unwrap();
            let image = h.clone().crash_mid_seal(0);
            let mut r = PersistentHeap::recover(image).unwrap();
            let mut tx = r.begin();
            assert_eq!(tx.read_word(p).unwrap(), 0, "{config}: staged epoch lost");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn flit_reference_mode_reaches_identical_durable_state() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let run = |flit: bool| {
                let mut h = heap(config);
                let p = put_one(&mut h, 0);
                h.set_epoch_size(8);
                h.set_flit_enabled(flit);
                for i in 0..20u64 {
                    let mut tx = h.begin();
                    let c = tx.alloc(8).unwrap();
                    tx.write_word(c, i).unwrap();
                    // Duplicate writes inside the tx and across the epoch:
                    // exactly what elision collapses.
                    tx.write_word(p, i).unwrap();
                    tx.write_word(p, i * 10).unwrap();
                    tx.commit().unwrap();
                }
                h.seal_epoch();
                h.crash(false)
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(
                on.bytes(),
                off.bytes(),
                "{config}: elision must be invisible in the durable image"
            );
        }
    }

    #[test]
    fn pipelined_seal_charges_less_than_foreground_seal() {
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            let run = |explicit_seals: bool| {
                let mut h = heap(config);
                let p = put_one(&mut h, 0);
                h.set_epoch_size(4);
                let t0 = h.elapsed();
                for i in 0..16u64 {
                    let mut tx = h.begin();
                    let c = tx.alloc(8).unwrap();
                    tx.write_word(c, i).unwrap();
                    tx.write_word(p, i).unwrap();
                    tx.commit().unwrap();
                    if explicit_seals && (i + 1).is_multiple_of(4) {
                        // Foreground barrier after every epoch: no overlap
                        // to rebate.
                        h.seal_epoch();
                    }
                }
                h.seal_epoch();
                h.elapsed() - t0
            };
            let pipelined = run(false);
            let foreground = run(true);
            assert!(
                pipelined < foreground,
                "{config}: pipelined {pipelined} must beat foreground {foreground}"
            );
        }
    }

    #[test]
    fn checkpoint_includes_open_epoch() {
        let mut h = heap(HeapConfig::FocStm);
        let p = put_one(&mut h, 1);
        h.set_epoch_size(64);
        let mut tx = h.begin();
        tx.write_word(p, 2).unwrap();
        tx.commit().unwrap();
        // The live heap's epoch is still open, but the checkpoint seals
        // its private copy.
        let image = h.checkpoint_image();
        let mut r = PersistentHeap::recover(image).unwrap();
        let root = r.root().unwrap();
        let mut tx = r.begin();
        assert_eq!(tx.read_word(root).unwrap(), 2);
        tx.commit().unwrap();
        // And the live heap still works.
        assert_eq!(h.epoch().unwrap().pending(), 1);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut h = heap(HeapConfig::Fof);
        let mut tx = h.begin();
        assert!(matches!(
            tx.alloc(10 * 1024 * 1024),
            Err(HeapError::OutOfMemory { .. })
        ));
        tx.commit().unwrap();
    }

    // ---- cross-shard two-phase commit ---------------------------------

    const GTX: u64 = GTXID_BASE + 7;

    fn read_cell(heap: &mut PersistentHeap, p: PmPtr) -> u64 {
        let mut tx = heap.begin();
        let v = tx.read_word(p).unwrap();
        tx.commit().unwrap();
        v
    }

    #[test]
    fn prepared_then_committed_survives_a_crash_in_foc_configs() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            h.commit_distributed(GTX).unwrap();
            let mut r = PersistentHeap::recover(h.crash(false)).unwrap();
            let root = r.root().unwrap();
            assert_eq!(read_cell(&mut r, root), 99, "{config}");
        }
    }

    #[test]
    fn prepared_without_decision_presumes_abort() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            // No decision anywhere: plain recovery rolls the prepared
            // transaction back wholesale.
            let mut r = PersistentHeap::recover(h.crash(false)).unwrap();
            let root = r.root().unwrap();
            assert_eq!(read_cell(&mut r, root), 1, "{config}");
        }
    }

    #[test]
    fn resolver_confirms_in_doubt_transaction() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            let (mut r, resolution) =
                PersistentHeap::recover_distributed(h.crash(false), |g| g == GTX).unwrap();
            assert_eq!(resolution.in_doubt, vec![GTX], "{config}");
            assert_eq!(resolution.committed, vec![GTX], "{config}");
            assert!(resolution.aborted.is_empty(), "{config}");
            let root = r.root().unwrap();
            assert_eq!(read_cell(&mut r, root), 99, "{config}");
        }
    }

    #[test]
    fn resolver_presumes_abort_when_coordinator_never_decided() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            let (mut r, resolution) =
                PersistentHeap::recover_distributed(h.crash(false), |_| false).unwrap();
            assert_eq!(resolution.aborted, vec![GTX], "{config}");
            let root = r.root().unwrap();
            assert_eq!(read_cell(&mut r, root), 1, "{config}");
        }
    }

    #[test]
    fn local_abort_marker_settles_the_doubt() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            h.abort_distributed(GTX).unwrap();
            assert_eq!(read_cell(&mut h, p), 1, "{config}: rolled back live");
            // Even a lying resolver cannot resurrect it: the local abort
            // marker decided first.
            let (mut r, resolution) =
                PersistentHeap::recover_distributed(h.crash(false), |_| true).unwrap();
            assert!(resolution.in_doubt.is_empty(), "{config}");
            let root = r.root().unwrap();
            assert_eq!(read_cell(&mut r, root), 1, "{config}");
        }
    }

    #[test]
    fn every_mid_prepare_step_recovers_by_presumed_abort() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            let q = put_one(&mut h, 2);
            let writes = [(p.offset(), 90), (q.offset(), 91)];
            let steps = h.prepare_steps(&writes);
            assert!(steps >= 3, "{config}");
            for step in 0..=steps {
                let image = h.clone().crash_mid_prepare(GTX, &writes, step);
                let (mut r, resolution) =
                    PersistentHeap::recover_distributed(image, |_| true).unwrap();
                assert!(
                    resolution.in_doubt.is_empty(),
                    "{config} step {step}: no marker, no doubt"
                );
                assert_eq!(read_cell(&mut r, p), 1, "{config} step {step}");
                assert_eq!(read_cell(&mut r, q), 2, "{config} step {step}");
            }
        }
    }

    #[test]
    fn mid_commit_marker_crash_converges_on_commit() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            for marker_durable in [false, true] {
                let mut h = heap(config);
                let p = put_one(&mut h, 1);
                h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
                let image = h.crash_mid_commit(GTX, marker_durable);
                // The coordinator's decision log says commit (phase 2 had
                // started), so either marker fate converges.
                let (mut r, _) =
                    PersistentHeap::recover_distributed(image, |g| g == GTX).unwrap();
                assert_eq!(
                    read_cell(&mut r, p),
                    99,
                    "{config} marker_durable={marker_durable}"
                );
            }
        }
    }

    #[test]
    fn fof_configs_refuse_to_prepare() {
        for config in [HeapConfig::Fof, HeapConfig::FofStm, HeapConfig::FofUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            assert!(
                matches!(
                    h.prepare_distributed(GTX, &[(p.offset(), 2)]),
                    Err(HeapError::Unrecoverable { .. })
                ),
                "{config}"
            );
        }
    }

    #[test]
    fn prepare_seals_the_open_epoch_first() {
        let mut h = heap(HeapConfig::FocStm);
        let p = put_one(&mut h, 1);
        h.set_epoch_size(64);
        let mut tx = h.begin();
        tx.write_word(p, 5).unwrap();
        tx.commit().unwrap();
        assert_eq!(h.epoch().unwrap().pending(), 1);
        h.prepare_distributed(GTX, &[(p.offset(), 6)]).unwrap();
        assert!(h.epoch().unwrap().is_clean(), "epoch sealed by prepare");
        // The sealed epoch survives even though the prepared txn aborts.
        let mut r = PersistentHeap::recover(h.crash(false)).unwrap();
        assert_eq!(read_cell(&mut r, p), 5);
    }

    #[test]
    fn local_traffic_between_prepare_and_decision_preserves_the_doubt() {
        // Regression: local commits used to truncate the log while a
        // global transaction was in doubt, destroying its PREPARED
        // marker — a coordinator-committed transaction then vanished
        // from the shard at recovery.
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            let truncations_before = h.stats().truncations;
            // Enough local traffic to truncate the log several times
            // while the global transaction is still undecided.
            let mut cells = Vec::new();
            for i in 0..600u64 {
                let mut tx = h.begin();
                let c = tx.alloc(8).unwrap();
                tx.write_word(c, i).unwrap();
                tx.commit().unwrap();
                cells.push(c);
            }
            assert!(
                h.stats().truncations > truncations_before,
                "{config}: the sweep must actually exercise truncation"
            );
            let (mut r, resolution) =
                PersistentHeap::recover_distributed(h.crash(false), |g| g == GTX).unwrap();
            assert_eq!(resolution.in_doubt, vec![GTX], "{config}");
            assert_eq!(resolution.committed, vec![GTX], "{config}");
            assert_eq!(read_cell(&mut r, p), 99, "{config}");
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(read_cell(&mut r, *c), i as u64, "{config} cell {i}");
            }
        }
    }

    #[test]
    fn epoch_seals_between_prepare_and_decision_preserve_the_doubt() {
        // Same invariant for the epoch seal's own truncation sites.
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            let q = put_one(&mut h, 2);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            h.set_epoch_size(4);
            for i in 0..800u64 {
                let mut tx = h.begin();
                tx.write_word(q, i).unwrap();
                tx.commit().unwrap();
            }
            h.seal_epoch();
            let (mut r, resolution) =
                PersistentHeap::recover_distributed(h.crash(false), |g| g == GTX).unwrap();
            assert_eq!(resolution.committed, vec![GTX], "{config}");
            assert_eq!(read_cell(&mut r, p), 99, "{config}");
            assert_eq!(read_cell(&mut r, q), 799, "{config}");
        }
    }

    #[test]
    fn presumed_abort_still_holds_after_preserving_truncations() {
        // The preserved records must roll back cleanly when the
        // coordinator never decided.
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = heap(config);
            let p = put_one(&mut h, 1);
            h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
            for i in 0..600u64 {
                let mut tx = h.begin();
                let c = tx.alloc(8).unwrap();
                tx.write_word(c, i).unwrap();
                tx.commit().unwrap();
            }
            let (mut r, resolution) =
                PersistentHeap::recover_distributed(h.crash(false), |_| false).unwrap();
            assert_eq!(resolution.aborted, vec![GTX], "{config}");
            assert_eq!(read_cell(&mut r, p), 1, "{config}");
        }
    }

    #[test]
    fn oversized_second_prepare_refused_with_typed_log_full() {
        // 64 KiB heap -> 8 KiB log (1023 usable words). The first
        // prepare pins ~801 words; the second cannot fit even after a
        // preserving truncation and must refuse, not panic.
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let mut h = PersistentHeap::create(ByteSize::kib(64), config);
            let heap_base = 4096 + 8 * 1024;
            let big: Vec<(u64, u64)> =
                (0..200u64).map(|i| (heap_base + i * 8, i)).collect();
            h.prepare_distributed(GTXID_BASE + 1, &big).unwrap();
            let big2: Vec<(u64, u64)> =
                (200..400u64).map(|i| (heap_base + i * 8, i)).collect();
            assert!(
                matches!(
                    h.prepare_distributed(GTXID_BASE + 2, &big2),
                    Err(HeapError::LogFull { .. })
                ),
                "{config}"
            );
            // The refused prepare left no trace; the first is intact.
            h.commit_distributed(GTXID_BASE + 1).unwrap();
            let mut r = PersistentHeap::recover(h.crash(false)).unwrap();
            let mut tx = r.begin();
            assert_eq!(tx.read_word(PmPtr::new(heap_base).unwrap()).unwrap(), 0, "{config}");
            tx.commit().unwrap();
        }
    }

    #[test]
    fn gtxids_do_not_leak_into_the_local_txid_space() {
        let mut h = heap(HeapConfig::FocUndo);
        let p = put_one(&mut h, 1);
        h.prepare_distributed(GTX, &[(p.offset(), 99)]).unwrap();
        h.commit_distributed(GTX).unwrap();
        let r = PersistentHeap::recover(h.crash(false)).unwrap();
        assert!(
            r.txid_high_water() < GTXID_BASE,
            "recovered next_txid {} must stay local",
            r.txid_high_water()
        );
    }
}
