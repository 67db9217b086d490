//! Cross-shard transactions: presumed-abort two-phase commit over
//! sharded persistent heaps, decided in groups by a [`CoordinatorPool`].
//!
//! A single heap's durability point is its epoch seal (PR 5): records,
//! fence, one covering marker. A transaction spanning shards needs the
//! same shape *across* heaps, and the pool provides it with the seal
//! machinery:
//!
//! 1. **Prepare** — each participant shard coalesces the transaction's
//!    write set like an epoch seal (one log record per address, one
//!    clflush per line) and covers it with a fenced
//!    [`wsp_pheap::RecordKind::Prepare`] marker. From that marker on the
//!    shard is bound by the coordinator's decision.
//! 2. **Decide** — the decision is buffered on its coordinator until a
//!    size trigger seals every buffered decision under one fenced
//!    [`wsp_pheap::RecordKind::GroupDecision`] record in the shared
//!    decision log. That single store is the commit point for the whole
//!    group, so N transactions pay one decision fence — the epoch seal's
//!    amortization, applied to the coordinator path. A group of one is
//!    the classic one-record-per-transaction protocol.
//! 3. **Commit** — each participant writes a fenced local commit marker
//!    (and the redo flavour applies its buffered writes in place), so
//!    later recoveries never consult the coordinator again; a
//!    [`wsp_pheap::RecordKind::Settle`] marker then lets the decision
//!    log recycle the entry. The settle marker is a non-temporal store
//!    with no fence of its own: it lands at the next seal's fence. A
//!    crash before then leaves the decision unsettled, and recovery
//!    re-pins it — safe, because the decision itself is durable and
//!    every shard resolves to it.
//!
//! **Presumed abort**: a shard that recovers with a durable PREPARED
//! marker but no local decision is *in doubt* and asks the recovered
//! decision log; if no intact group record names the transaction it
//! aborts everywhere — safe because phase 2 starts only after every
//! participant's marker is durable. A torn group record decides *none*
//! of its members, so a group commits all-or-nothing. A shard that lost
//! its image outright cannot vote at all: [`resolve_cross_shard`]
//! degrades it through the recovery-ladder verdict types with the
//! staleness quantified from the cluster model, instead of failing the
//! whole fleet.
//!
//! Several coordinators share the one decision log. Each stamps its
//! *generation number* into the group entries it seals, and a recovered
//! pool [`CoordinatorPool::attribute`]s every decided gtxid in the image
//! back to the coordinator generation that sealed it. Concurrency is
//! modelled on the simulated clock: each coordinator owns a clock,
//! shards and the shared log are resources with availability times, and
//! the pool's [`CoordinatorPool::wall`] clock is the slowest
//! coordinator.
//!
//! A pool opened [`CoordinatorPool::with_routing`] also logs every
//! decided write set, so a shard whose NVRAM image the power domain
//! sacrificed can be rebuilt from a stale back-end checkpoint plus
//! [`reapply_routed`].
//!
//! A crashed pool's bytes are read in one place: [`CoordinatorImage::parse`]
//! knows the region layout and refuses an image it cannot trust (too
//! short, or naming a gtxid no pool issues), and [`resolve_cross_shard`],
//! [`CoordinatorPool::recover`] and [`reapply_routed`] all read the
//! parsed value.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use wsp_cluster::ClusterSpec;
use wsp_obs as obs;
use wsp_pheap::{
    pack_group_entry, CrashImage, HeapError, LogRecord, PersistentHeap, PersistentMemory, PmPtr,
    RecordKind, TornLog, TxnResolution, GROUP_ENTRY_GEN_MAX, GTXID_BASE,
};
use wsp_power::PowerCut;
use wsp_units::{ByteSize, Nanos};

use crate::error::WspError;
use crate::ladder::{LadderRung, RecoveryOutcome};

/// Decision-log layout inside the pool's private region: one page of
/// header (the persistent tail pointer word), then the log area.
const DECISION_TAIL_ADDR: u64 = 8;
const DECISION_LOG_BASE: u64 = 4096;
const DECISION_LOG_CAP: ByteSize = ByteSize::kib(8);
const DECISION_REGION: ByteSize = ByteSize::kib(64);

/// Optional write-routing log (same region, after the decision log):
/// records every decided transaction's write set so a shard whose
/// NVRAM image was sacrificed can be rebuilt from an old back-end
/// checkpoint *plus* a replay of the cross-shard writes it voted for.
/// Its tail word stays zero in a pool opened without routing.
const ROUTING_TAIL_ADDR: u64 = 16;
const ROUTING_LOG_BASE: u64 = 16_384;
const ROUTING_LOG_CAP: ByteSize = ByteSize::kib(32);

/// Shard index is packed into the high bits of a routed record's
/// address word (heap offsets are far below 2^48).
const ROUTE_SHARD_SHIFT: u32 = 48;
const ROUTE_ADDR_MASK: u64 = (1 << ROUTE_SHARD_SHIFT) - 1;

/// A cross-shard transaction buffering writes per participant shard
/// until [`CoordinatorPool::submit`] (or the step-wise calls it
/// composes) runs the two-phase seal.
#[derive(Debug, Clone)]
pub struct CrossShardTxn {
    gtxid: u64,
    writes: Vec<Vec<(u64, u64)>>,
}

impl CrossShardTxn {
    /// The global transaction id ([`GTXID_BASE`]-offset namespace).
    #[must_use]
    pub fn gtxid(&self) -> u64 {
        self.gtxid
    }

    /// Stages a word write on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for the shard count the
    /// transaction was begun with.
    pub fn stage(&mut self, shard: usize, addr: u64, value: u64) {
        self.writes[shard].push((addr, value));
    }

    /// Participant shards (non-empty write sets), ascending — the order
    /// both phases visit them in.
    #[must_use]
    pub fn participants(&self) -> Vec<usize> {
        (0..self.writes.len())
            .filter(|&s| !self.writes[s].is_empty())
            .collect()
    }

    /// The staged writes for `shard`.
    #[must_use]
    pub fn writes_for(&self, shard: usize) -> &[(u64, u64)] {
        &self.writes[shard]
    }

    fn short_id(&self) -> i64 {
        (self.gtxid - GTXID_BASE) as i64
    }
}

/// Where a gtxid's coordinator index lives inside the id: gtxids issued
/// by a [`CoordinatorPool`] are `GTXID_BASE + (coordinator << 32) + seq`,
/// so the id itself names its issuer across crashes.
const POOL_COORD_SHIFT: u64 = 32;
const POOL_SEQ_MASK: u64 = (1 << POOL_COORD_SHIFT) - 1;

/// Decodes the issuing coordinator index from a pool-issued gtxid.
#[must_use]
pub fn coordinator_of(gtxid: u64) -> usize {
    ((gtxid - GTXID_BASE) >> POOL_COORD_SHIFT) as usize
}

/// The provenance of a decided gtxid: which coordinator sealed it,
/// under which generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtxidOrigin {
    /// Issuing coordinator index (decoded from the gtxid).
    pub coordinator: usize,
    /// The coordinator generation stamped into the sealed group entry.
    pub generation: u64,
}

/// How [`CoordinatorPool::submit`] left a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Prepared everywhere and the decision is buffered — *not yet
    /// durable*. A crash now presumes abort. The size trigger (or
    /// [`CoordinatorPool::drain`]) will seal it.
    Buffered,
    /// The submission tripped the group trigger: the whole buffered
    /// group sealed under one fence and ran phase 2.
    Committed {
        /// Decisions covered by the sealing record.
        group: usize,
    },
    /// A prepare was refused; every already-prepared participant was
    /// rolled back. Never buffered.
    Aborted {
        /// The refusing shard's error.
        reason: String,
    },
}

/// One decided-but-unsealed (or sealed-but-uncommitted) transaction
/// inside the pool.
#[derive(Debug, Clone)]
struct PendingDecision {
    coordinator: usize,
    generation: u64,
    gtxid: u64,
    participants: Vec<usize>,
    /// Owner's simulated clock when the decision was buffered — the
    /// numerator of `txn.decision_stall_time`.
    buffered_at: Nanos,
}

/// Volatile per-coordinator state inside the pool.
#[derive(Debug, Clone)]
struct CoordSlot {
    /// Stamped into every group entry this coordinator seals; bumped on
    /// recovery so replayed entries are attributable to the incarnation
    /// that wrote them.
    generation: u64,
    /// Next sequence number (low gtxid bits).
    next_seq: u64,
    /// This coordinator's simulated clock.
    clock: Nanos,
}

/// The 2PC coordinator: a pool of concurrent coordinators sharing one
/// durable decision log, with group-decided commit. Decided gtxids
/// buffer until the size trigger seals them all under a *single* fenced
/// [`RecordKind::GroupDecision`] record — N transactions, one decision
/// fence. Each coordinator owns a simulated clock; shards and the
/// shared log are resources with availability times, and the pool's
/// wall clock is the maximum coordinator clock, so only contention on a
/// shard or on the log serializes work.
///
/// Feed [`CoordinatorPool::crash_image`] to [`resolve_cross_shard`] or
/// [`CoordinatorImage::parse`] after a crash, and to
/// [`CoordinatorPool::recover`] to restart the pool.
///
/// # Examples
///
/// ```
/// use wsp_core::{CoordinatorPool, SubmitOutcome};
/// use wsp_pheap::{HeapConfig, PersistentHeap};
/// use wsp_units::ByteSize;
///
/// let mut shards = vec![
///     PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo),
///     PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo),
/// ];
/// let mut cells = Vec::new();
/// for heap in &mut shards {
///     let mut tx = heap.begin();
///     let p = tx.alloc(8).unwrap();
///     tx.write_word(p, 100).unwrap();
///     tx.set_root(p).unwrap();
///     tx.commit().unwrap();
///     cells.push(p.offset());
/// }
///
/// // Two coordinators, groups of two decisions per fence.
/// let mut pool = CoordinatorPool::new(2, 2);
/// let mut a = pool.begin(0, shards.len());
/// a.stage(0, cells[0], 70);
/// a.stage(1, cells[1], 130);
/// assert_eq!(pool.submit(0, &mut shards, &a).unwrap(), SubmitOutcome::Buffered);
/// let mut b = pool.begin(1, shards.len());
/// b.stage(0, cells[0], 60);
/// assert_eq!(
///     pool.submit(1, &mut shards, &b).unwrap(),
///     SubmitOutcome::Committed { group: 2 },
/// );
/// ```
#[derive(Debug, Clone)]
pub struct CoordinatorPool {
    mem: PersistentMemory,
    log: TornLog,
    group_size: usize,
    coords: Vec<CoordSlot>,
    /// Decided, buffered, not yet sealed: a crash loses all of these.
    pending: Vec<PendingDecision>,
    /// Sealed (decision durable) but phase 2 not yet run.
    sealed: Vec<PendingDecision>,
    /// Sealed decisions some participant may still ask for, with the
    /// generation that sealed them (compaction re-seals them under it).
    /// Settling drops the entry, so the map never outgrows the log.
    unsettled: HashMap<u64, u64>,
    /// Every decision in the image this pool recovered from, with its
    /// sealing generation — bounded by the log that image held.
    recovered: HashMap<u64, u64>,
    /// Discrete-event availability of each shard (grown on demand).
    shard_free: Vec<Nanos>,
    /// Discrete-event availability of the shared decision log.
    log_free: Nanos,
    /// The write-routing log, when opened with
    /// [`CoordinatorPool::with_routing`].
    routing: Option<TornLog>,
}

impl CoordinatorPool {
    /// A pool of `coordinators` sharing one fresh decision log, sealing
    /// after every `group_size` buffered decisions.
    ///
    /// # Panics
    ///
    /// Panics when `coordinators` is 0 or above 256 (the gtxid packing
    /// bound), or `group_size` is 0.
    #[must_use]
    pub fn new(coordinators: usize, group_size: usize) -> Self {
        assert!(
            (1..=256).contains(&coordinators),
            "1..=256 coordinators fit the gtxid layout"
        );
        assert!(group_size > 0, "group size must be at least 1");
        let mut mem = PersistentMemory::new(DECISION_REGION);
        let log = TornLog::new(DECISION_LOG_BASE, DECISION_LOG_CAP, DECISION_TAIL_ADDR);
        log.initialize(&mut mem);
        CoordinatorPool {
            mem,
            log,
            group_size,
            coords: vec![
                CoordSlot {
                    generation: 1,
                    next_seq: 0,
                    clock: Nanos::ZERO,
                };
                coordinators
            ],
            pending: Vec::new(),
            sealed: Vec::new(),
            unsettled: HashMap::new(),
            recovered: HashMap::new(),
            shard_free: Vec::new(),
            log_free: Nanos::ZERO,
            routing: None,
        }
    }

    /// [`CoordinatorPool::new`], additionally routing every decided
    /// transaction's write set into a second durable log. Routing costs
    /// one append per write when the decision is buffered and buys the
    /// storm path its strongest guarantee: a shard sacrificed by the
    /// power domain's triage can be rebuilt from a *stale* back-end
    /// checkpoint and still end up holding every committed cross-shard
    /// write. [`CoordinatorPool::recover`] carries the routed history
    /// across restarts.
    ///
    /// # Panics
    ///
    /// As [`CoordinatorPool::new`].
    #[must_use]
    pub fn with_routing(coordinators: usize, group_size: usize) -> Self {
        let mut pool = Self::new(coordinators, group_size);
        let routing = TornLog::new(ROUTING_LOG_BASE, ROUTING_LOG_CAP, ROUTING_TAIL_ADDR);
        routing.initialize(&mut pool.mem);
        pool.routing = Some(routing);
        pool
    }

    /// Number of coordinators in the pool.
    #[must_use]
    pub fn coordinators(&self) -> usize {
        self.coords.len()
    }

    /// Simulated time the shared decision log's durable operations have
    /// cost — the coordinator-path cost the group seal amortizes.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.mem.elapsed()
    }

    /// The pool's wall clock: the slowest coordinator's clock. Work on
    /// different coordinators overlaps; only contention on a shard or
    /// the shared log serializes.
    #[must_use]
    pub fn wall(&self) -> Nanos {
        self.coords
            .iter()
            .map(|c| c.clock)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// One coordinator's simulated clock.
    #[must_use]
    pub fn clock(&self, coordinator: usize) -> Nanos {
        self.coords[coordinator].clock
    }

    /// Decisions buffered but not yet sealed (lost on a crash).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Opens a cross-shard transaction on `coordinator` over `shards`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics when the coordinator's 32-bit sequence space is exhausted.
    pub fn begin(&mut self, coordinator: usize, shards: usize) -> CrossShardTxn {
        let slot = &mut self.coords[coordinator];
        assert!(slot.next_seq <= POOL_SEQ_MASK, "gtxid sequence exhausted");
        let gtxid = GTXID_BASE + ((coordinator as u64) << POOL_COORD_SHIFT) + slot.next_seq;
        slot.next_seq += 1;
        let txn = CrossShardTxn {
            gtxid,
            writes: vec![Vec::new(); shards],
        };
        obs::emit("txn", "begin", slot.clock, txn.short_id(), shards as i64);
        txn
    }

    /// Runs one shard-touching step on the event model: the step starts
    /// when both the coordinator and the shard are free and holds the
    /// shard until it ends. Returns the step's end time.
    fn run_on_shard(&mut self, coordinator: usize, shard: usize, duration: Nanos) -> Nanos {
        if self.shard_free.len() <= shard {
            self.shard_free.resize(shard + 1, Nanos::ZERO);
        }
        let start = self.coords[coordinator].clock.max(self.shard_free[shard]);
        let end = start + duration;
        self.shard_free[shard] = end;
        end
    }

    /// Runs one step on the shared log: it starts when both the
    /// coordinator and the log are free, holds the log until it ends,
    /// and advances the coordinator to its end, which it returns.
    fn run_on_log(&mut self, coordinator: usize, duration: Nanos) -> Nanos {
        let end = self.coords[coordinator].clock.max(self.log_free) + duration;
        self.log_free = end;
        self.coords[coordinator].clock = end;
        end
    }

    /// Phase 1 for every participant of `txn`, on `coordinator`'s clock.
    /// Participants run concurrently (the phase ends at the slowest
    /// one), but two transactions contending for the same shard
    /// serialize on it. Returns the refusing shard's reason when the
    /// transaction must abort, in which case every already-prepared
    /// participant was rolled back.
    ///
    /// # Errors
    ///
    /// Only on protocol misuse while rolling back prepared participants;
    /// prepare refusals are a normal `Ok(Some(reason))`.
    pub fn prepare(
        &mut self,
        coordinator: usize,
        heaps: &mut [PersistentHeap],
        txn: &CrossShardTxn,
    ) -> Result<Option<String>, HeapError> {
        let participants = txn.participants();
        let mut prepared: Vec<usize> = Vec::with_capacity(participants.len());
        let mut phase_end = self.coords[coordinator].clock;
        for &shard in &participants {
            let h0 = heaps[shard].elapsed();
            match heaps[shard].prepare_distributed(txn.gtxid, txn.writes_for(shard)) {
                Ok(()) => {
                    let end = self.run_on_shard(coordinator, shard, heaps[shard].elapsed() - h0);
                    phase_end = phase_end.max(end);
                    obs::emit("txn", "prepare", end, shard as i64, txn.short_id());
                    obs::count(obs::Ctr::TxnPrepares);
                    prepared.push(shard);
                }
                Err(refusal) => {
                    for &p in &prepared {
                        let a0 = heaps[p].elapsed();
                        heaps[p].abort_distributed(txn.gtxid)?;
                        let end = self.run_on_shard(coordinator, p, heaps[p].elapsed() - a0);
                        phase_end = phase_end.max(end);
                    }
                    self.coords[coordinator].clock = phase_end;
                    obs::emit("txn", "abort", phase_end, txn.short_id(), 0);
                    obs::count(obs::Ctr::TxnAborts);
                    return Ok(Some(refusal.to_string()));
                }
            }
        }
        self.coords[coordinator].clock = phase_end;
        Ok(None)
    }

    /// Buffers `txn`'s commit decision on `coordinator`. The decision is
    /// *volatile* until a seal covers it: a crash before the covering
    /// group record fences resolves the transaction by presumed abort.
    ///
    /// With routing, the write set is appended to the routing log here,
    /// on `coordinator`'s clock — before any group record can cover the
    /// decision. A crash in between leaves routed writes for an
    /// undecided gtxid, which replay ignores (presumed abort); the
    /// reverse order could leave a decided transaction with no routed
    /// writes to rebuild a sacrificed shard from.
    pub fn buffer_decision(&mut self, coordinator: usize, txn: &CrossShardTxn) {
        let participants = txn.participants();
        if let Some(routing) = &mut self.routing {
            let m0 = self.mem.elapsed();
            for &shard in &participants {
                for &(addr, value) in txn.writes_for(shard) {
                    routing.append(
                        &mut self.mem,
                        &LogRecord::write(
                            txn.gtxid,
                            ((shard as u64) << ROUTE_SHARD_SHIFT) | addr,
                            value,
                        ),
                        true,
                    );
                }
            }
            let cost = self.mem.elapsed() - m0;
            self.run_on_log(coordinator, cost);
        }
        let slot = &self.coords[coordinator];
        self.pending.push(PendingDecision {
            coordinator,
            generation: slot.generation,
            gtxid: txn.gtxid,
            participants,
            buffered_at: slot.clock,
        });
    }

    /// True when the buffered group has reached the size trigger.
    /// `coordinator` is the one about to act on it (every coordinator
    /// shares the one buffer).
    #[must_use]
    pub fn should_seal(&self, _coordinator: usize) -> bool {
        self.pending.len() >= self.group_size
    }

    /// Seals every buffered decision under one fenced group record —
    /// the commit point for all of them at once. `sealer` pays the seal
    /// on its clock (serialized on the shared log); every member
    /// coordinator then waits for the seal before its phase 2, so only
    /// the slowest coordinator in the group pays unrebated time.
    /// Returns the number of decisions sealed (0 = no-op).
    pub fn seal_decisions(&mut self, sealer: usize) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        self.compact_decision_log();
        let entries: Vec<u64> = self
            .pending
            .iter()
            .map(|p| pack_group_entry(p.generation, p.gtxid))
            .collect();
        let m0 = self.mem.elapsed();
        self.log.append_group_decision(&mut self.mem, &entries, true);
        self.mem.sfence();
        let seal_cost = self.mem.elapsed() - m0;
        let seal_end = self.run_on_log(sealer, seal_cost);

        let group = self.pending.len();
        for p in &self.pending {
            self.unsettled.insert(p.gtxid, p.generation);
            let slot = &mut self.coords[p.coordinator];
            slot.clock = slot.clock.max(seal_end);
            obs::observe(
                obs::Hist::TxnDecisionStall,
                seal_end.saturating_sub(p.buffered_at),
            );
        }
        obs::emit(
            "txn",
            "decide_group",
            seal_end,
            sealer as i64,
            group as i64,
        );
        obs::count(obs::Ctr::TxnDecisionGroups);
        obs::count_by(obs::Ctr::TxnDecisions, group as u64);
        // A count, not a time: the histogram machinery tracks the
        // per-group batching distribution.
        obs::observe(obs::Hist::TxnDecisionsPerGroup, Nanos::new(group as u64));
        self.sealed.append(&mut self.pending);
        group
    }

    /// Phase 2 for every sealed decision: each owner writes its
    /// participants' durable commit markers on its own clock, then
    /// settles the decision.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoTransaction`] on protocol misuse (a participant
    /// that was never prepared).
    pub fn complete_sealed(&mut self, heaps: &mut [PersistentHeap]) -> Result<(), HeapError> {
        let sealed = std::mem::take(&mut self.sealed);
        for p in &sealed {
            let mut phase_end = self.coords[p.coordinator].clock;
            for &shard in &p.participants {
                let h0 = heaps[shard].elapsed();
                heaps[shard].commit_distributed(p.gtxid)?;
                let end = self.run_on_shard(p.coordinator, shard, heaps[shard].elapsed() - h0);
                phase_end = phase_end.max(end);
                obs::emit(
                    "txn",
                    "commit_shard",
                    end,
                    shard as i64,
                    (p.gtxid - GTXID_BASE) as i64,
                );
                obs::count(obs::Ctr::TxnShardCommits);
            }
            self.coords[p.coordinator].clock = phase_end;
            self.unsettled.remove(&p.gtxid);
            self.log
                .append(&mut self.mem, &LogRecord::settle(p.gtxid), true);
        }
        Ok(())
    }

    /// The composed fast path: prepare, buffer the decision, and seal +
    /// complete when the group trigger fires.
    ///
    /// # Errors
    ///
    /// Only on protocol misuse; refusals come back as
    /// [`SubmitOutcome::Aborted`].
    pub fn submit(
        &mut self,
        coordinator: usize,
        heaps: &mut [PersistentHeap],
        txn: &CrossShardTxn,
    ) -> Result<SubmitOutcome, HeapError> {
        if let Some(reason) = self.prepare(coordinator, heaps, txn)? {
            return Ok(SubmitOutcome::Aborted { reason });
        }
        self.buffer_decision(coordinator, txn);
        if self.should_seal(coordinator) {
            let group = self.seal_decisions(coordinator);
            self.complete_sealed(heaps)?;
            Ok(SubmitOutcome::Committed { group })
        } else {
            Ok(SubmitOutcome::Buffered)
        }
    }

    /// Seals and completes whatever is buffered, regardless of the
    /// trigger — end-of-run flush. Returns the sealed count.
    ///
    /// # Errors
    ///
    /// As [`CoordinatorPool::complete_sealed`].
    pub fn drain(
        &mut self,
        sealer: usize,
        heaps: &mut [PersistentHeap],
    ) -> Result<usize, HeapError> {
        let group = self.seal_decisions(sealer);
        self.complete_sealed(heaps)?;
        Ok(group)
    }

    /// Compacts the shared decision log when it runs low, preserving
    /// unsettled decisions (re-sealed as one group record carrying
    /// their original generations) ahead of the new tail.
    fn compact_decision_log(&mut self) {
        if !self.log.needs_truncation() {
            return;
        }
        let mark = self.log.mark();
        self.seal_unsettled();
        self.log.truncate_to(&mut self.mem, mark, true);
    }

    /// Re-seals every unsettled decision, ascending by gtxid, under one
    /// fenced group record carrying its original generation.
    fn seal_unsettled(&mut self) {
        if self.unsettled.is_empty() {
            return;
        }
        let mut live: Vec<(u64, u64)> = self.unsettled.iter().map(|(&g, &gen)| (g, gen)).collect();
        live.sort_unstable();
        let entries: Vec<u64> = live
            .iter()
            .map(|&(gtxid, generation)| pack_group_entry(generation, gtxid))
            .collect();
        self.log.append_group_decision(&mut self.mem, &entries, true);
        self.mem.sfence();
    }

    /// The pool's durable bytes as they would survive a power failure
    /// right now: sealed group records (and routed writes), nothing
    /// buffered. Feed to [`resolve_cross_shard`],
    /// [`CoordinatorImage::parse`] or [`CoordinatorPool::recover`].
    #[must_use]
    pub fn crash_image(&self) -> Vec<u8> {
        self.mem.image()
    }

    /// Arms `cut` on the pool's decision-log memory (see
    /// [`PersistentMemory::arm`]). Armed with the same cut as every
    /// shard heap, the whole fleet loses power at one durable event, and
    /// [`CoordinatorPool::crash_image`] returns the log as it stood then.
    pub fn arm(&mut self, cut: &Arc<PowerCut>) {
        self.mem.arm(cut);
    }

    /// Runs `op` with power failing just before the `(events + 1)`-th
    /// durable event it performs on the pool and returns the pool's
    /// crash image at that instant. `events` at or past
    /// [`CoordinatorPool::durable_events`] of the same `op` lets it
    /// complete. What `op` returns and records to the observability
    /// stream is dropped: a crashed operation books nothing.
    #[must_use]
    pub fn crash_during<T>(mut self, events: u64, op: impl FnOnce(&mut Self) -> T) -> Vec<u8> {
        self.arm(&PowerCut::after(events));
        let _ = obs::capture(|| op(&mut self));
        self.crash_image()
    }

    /// Durable events `op` performs on the pool when run on a clone of
    /// it — the crash points [`CoordinatorPool::crash_during`] can place
    /// inside it are `0..=` this count.
    #[must_use]
    pub fn durable_events<T>(&self, op: impl FnOnce(&mut Self) -> T) -> u64 {
        let mut probe = self.clone();
        let before = probe.mem.durable_events();
        let _ = obs::capture(|| op(&mut probe));
        probe.mem.durable_events() - before
    }

    /// Rebuilds a pool from a crashed shared decision log. Settled
    /// decisions are pruned (their settle markers survived); unsettled
    /// ones are re-sealed under one fresh group record, keeping their
    /// original generations so [`CoordinatorPool::attribute`] still
    /// names the sealing incarnation. Every coordinator's sequence
    /// counter resumes above its decided gtxids — settled or not, so a
    /// restarted pool never reissues a gtxid a surviving shard holds a
    /// decision marker for — and its generation is bumped past every
    /// generation the log holds for it. An issued-but-undecided gtxid
    /// may be reissued, which is safe: recovered shards resolved it by
    /// presumed abort, and a surviving shard still holding it prepared
    /// refuses the reissue with a conflict.
    ///
    /// An image with an initialized routing log recovers a routing pool:
    /// the routed history is carried over, and every settled decision
    /// the history still carries writes for is re-pinned as unsettled,
    /// because a shard sacrificed in a later outage is rebuilt by
    /// replaying routed writes filtered on the decided set. The pins
    /// last until [`CoordinatorPool::prune_routing`].
    ///
    /// # Panics
    ///
    /// Panics with the typed refusal when [`CoordinatorImage::parse`]
    /// refuses `coordinator_image`, and as [`CoordinatorPool::new`].
    #[must_use]
    pub fn recover(coordinator_image: &[u8], coordinators: usize, group_size: usize) -> Self {
        let image = CoordinatorImage::parse(coordinator_image).expect("coordinator image refused");
        let mut pool = match image.routed {
            None => Self::new(coordinators, group_size),
            Some(_) => Self::with_routing(coordinators, group_size),
        };
        for (&gtxid, &generation) in &image.decided {
            let coordinator = coordinator_of(gtxid);
            if coordinator < pool.coords.len() {
                let slot = &mut pool.coords[coordinator];
                let seq = (gtxid - GTXID_BASE) & POOL_SEQ_MASK;
                slot.next_seq = slot.next_seq.max(seq + 1);
                slot.generation = slot.generation.max((generation + 1).min(GROUP_ENTRY_GEN_MAX));
            }
        }
        let routed = image.routed.unwrap_or_default();
        if let Some(routing) = &mut pool.routing {
            for w in &routed {
                routing.append(
                    &mut pool.mem,
                    &LogRecord::write(
                        w.gtxid,
                        ((w.shard as u64) << ROUTE_SHARD_SHIFT) | w.addr,
                        w.value,
                    ),
                    true,
                );
            }
        }
        let pinned: HashSet<u64> = routed.iter().map(|w| w.gtxid).collect();
        pool.unsettled = (image.decided.iter())
            .filter(|(g, _)| !image.settled.contains(g) || pinned.contains(g))
            .map(|(&g, &gen)| (g, gen))
            .collect();
        pool.recovered = image.decided;
        pool.seal_unsettled();
        pool
    }

    /// Attributes a decided gtxid to the coordinator generation that
    /// sealed it: every decision still unsettled, and every decision in
    /// the image this pool recovered from. `None` for gtxids with no
    /// durable decision (in-doubt prepares resolve by presumed abort,
    /// and their *issuer* is still readable via [`coordinator_of`]).
    #[must_use]
    pub fn attribute(&self, gtxid: u64) -> Option<GtxidOrigin> {
        self.unsettled
            .get(&gtxid)
            .or_else(|| self.recovered.get(&gtxid))
            .map(|&generation| GtxidOrigin {
                coordinator: coordinator_of(gtxid),
                generation,
            })
    }

    /// Discards the routed write history (a no-op without routing).
    /// Call only once every shard's back-end checkpoint is newer than
    /// every routed write — replayed rebuilds reach no further back
    /// than the surviving routing log.
    pub fn prune_routing(&mut self) {
        if let Some(routing) = &mut self.routing {
            routing.truncate(&mut self.mem, true);
            self.mem.sfence();
        }
    }
}

/// One write of a decided cross-shard transaction, as recovered from
/// the pool's routing log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedWrite {
    /// The transaction that carried the write.
    pub gtxid: u64,
    /// The participant shard the write landed on.
    pub shard: usize,
    /// Heap offset within that shard.
    pub addr: u64,
    /// The committed value.
    pub value: u64,
}

/// A crashed pool's durable state, parsed once from its image by
/// [`CoordinatorImage::parse`]: the decisions, the settle markers and
/// the routed writes that [`resolve_cross_shard`],
/// [`CoordinatorPool::recover`] and [`reapply_routed`] read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinatorImage {
    /// Every member of an intact group record, with the largest
    /// generation any record sealed it under.
    pub decided: HashMap<u64, u64>,
    /// Gtxids with a durable settle marker: every participant holds the
    /// decision.
    pub settled: HashSet<u64>,
    /// Every durably routed write, decided or not, in replay order (by
    /// gtxid, shard and address, log order among equals); `None` for a
    /// pool opened without routing.
    pub routed: Option<Vec<RoutedWrite>>,
}

impl CoordinatorImage {
    /// Parses a crashed pool's image (see
    /// [`CoordinatorPool::crash_image`]). The decision log is read from
    /// its persistent tail up to the first torn word: a torn group
    /// record decides *none* of its members, and every gtxid absent is,
    /// by the presumed-abort rule, aborted. The routing log's tail word
    /// is never zero once initialized, so a zero word means the pool
    /// routed nothing.
    ///
    /// # Errors
    ///
    /// [`WspError::TornImage`], traced as exactly one `txn/refusal`
    /// event, when the image is shorter than the pool's region or a
    /// decided member lies below [`GTXID_BASE`] (no pool issues one).
    pub fn parse(coordinator_image: &[u8]) -> Result<Self, WspError> {
        Self::read(coordinator_image).inspect_err(|refusal| {
            obs::emit_detail(
                "txn",
                "refusal",
                Nanos::ZERO,
                -1,
                coordinator_image.len() as i64,
                refusal.kind().to_string(),
            );
        })
    }

    fn read(image: &[u8]) -> Result<Self, WspError> {
        if (image.len() as u64) < DECISION_REGION.as_u64() {
            return Err(WspError::TornImage {
                detail: format!(
                    "coordinator image holds {} of the pool region's {} bytes",
                    image.len(),
                    DECISION_REGION.as_u64()
                ),
            });
        }
        let mut decided: HashMap<u64, u64> = HashMap::new();
        let mut settled = HashSet::new();
        let log = TornLog::recover(image, DECISION_LOG_BASE, DECISION_LOG_CAP, DECISION_TAIL_ADDR);
        for r in log {
            match r.kind {
                RecordKind::GroupDecision if r.txid < GTXID_BASE => {
                    return Err(WspError::TornImage {
                        detail: format!("decided member {:#x} lies below GTXID_BASE", r.txid),
                    });
                }
                RecordKind::GroupDecision => {
                    let generation = decided.entry(r.txid).or_insert(r.addr);
                    *generation = (*generation).max(r.addr);
                }
                RecordKind::Settle => {
                    settled.insert(r.txid);
                }
                _ => {}
            }
        }
        let tail = &image[ROUTING_TAIL_ADDR as usize..ROUTING_TAIL_ADDR as usize + 8];
        let routed = (tail != [0; 8]).then(|| {
            let log = TornLog::recover(image, ROUTING_LOG_BASE, ROUTING_LOG_CAP, ROUTING_TAIL_ADDR);
            let mut routed: Vec<RoutedWrite> = (log.into_iter())
                .filter(|r| r.kind == RecordKind::Write)
                .map(|r| RoutedWrite {
                    gtxid: r.txid,
                    shard: (r.addr >> ROUTE_SHARD_SHIFT) as usize,
                    addr: r.addr & ROUTE_ADDR_MASK,
                    value: r.value,
                })
                .collect();
            routed.sort_by_key(|w| (w.gtxid, w.shard, w.addr));
            routed
        });
        Ok(CoordinatorImage {
            decided,
            settled,
            routed,
        })
    }

    /// True when an intact group record decides `gtxid` (commit).
    #[must_use]
    pub fn is_decided(&self, gtxid: u64) -> bool {
        self.decided.contains_key(&gtxid)
    }
}

/// Replays the *decided* routed writes of `image` for `shard` onto a
/// heap rebuilt from a stale back-end checkpoint, returning how many
/// words were re-applied. Writes are applied in `(gtxid, addr)` order so
/// a later transaction's value wins; values are absolute, so replaying
/// writes the checkpoint already contains is idempotent. This is the
/// last leg of storm recovery: triage sacrificed the shard's NVRAM
/// image, the ladder rebuilt it from the back end, and the routing log
/// closes the gap up to the last committed cross-shard transaction.
///
/// # Errors
///
/// [`HeapError`] if a routed address is outside the rebuilt heap — the
/// checkpoint predates the allocation, i.e. it is older than the
/// routing log's reach (see [`CoordinatorPool::prune_routing`]).
pub fn reapply_routed(
    heap: &mut PersistentHeap,
    shard: usize,
    image: &CoordinatorImage,
) -> Result<u64, HeapError> {
    let mine: Vec<&RoutedWrite> = (image.routed.iter().flatten())
        .filter(|w| w.shard == shard && image.is_decided(w.gtxid))
        .collect();
    if mine.is_empty() {
        return Ok(0);
    }
    let mut tx = heap.begin();
    for w in &mine {
        let p = PmPtr::new(w.addr).ok_or(HeapError::InvalidPointer { offset: w.addr })?;
        tx.write_word(p, w.value)?;
    }
    tx.commit()?;
    obs::count_by(obs::Ctr::TxnReroutedWrites, mine.len() as u64);
    obs::emit(
        "txn",
        "reroute",
        heap.elapsed(),
        shard as i64,
        mine.len() as i64,
    );
    Ok(mine.len() as u64)
}

/// One shard's fate after a cluster-wide 2PC crash resolution.
#[derive(Debug)]
pub struct ShardRecovery {
    /// Shard index.
    pub shard: usize,
    /// The recovered heap, when the shard's image was usable.
    pub heap: Option<PersistentHeap>,
    /// In-doubt resolution bookkeeping, when recovery ran.
    pub resolution: Option<TxnResolution>,
    /// Ladder verdict: `Recovered` via log replay, or `Degraded` with
    /// the loss quantified.
    pub outcome: RecoveryOutcome,
    /// The typed refusal for a shard that could not recover locally.
    pub refusal: Option<WspError>,
}

impl ShardRecovery {
    /// A shard that cannot recover locally: no heap, and a
    /// [`RecoveryOutcome::Degraded`] verdict at
    /// [`LadderRung::ClusterRebuild`] carrying `refusal`.
    fn rebuild(shard: usize, refusal: WspError, reason: String, took: Nanos) -> Self {
        ShardRecovery {
            shard,
            heap: None,
            resolution: None,
            outcome: RecoveryOutcome::Degraded {
                rung: LadderRung::ClusterRebuild,
                reason,
                took,
            },
            refusal: Some(refusal),
        }
    }
}

/// The fleet-wide result of [`resolve_cross_shard`].
#[derive(Debug)]
pub struct ClusterTxnRecovery {
    /// Per-shard verdicts, in shard order.
    pub shards: Vec<ShardRecovery>,
    /// The parsed coordinator image the shards resolved against; empty
    /// when the image was refused (every shard then carries the
    /// refusal).
    pub coordinator: CoordinatorImage,
}

impl ClusterTxnRecovery {
    /// True when every shard recovered locally (no degraded verdicts).
    #[must_use]
    pub fn fully_recovered(&self) -> bool {
        self.shards.iter().all(|s| s.outcome.is_recovered())
    }
}

/// Recovers a whole sharded deployment after a crash anywhere in the
/// 2PC protocol: parses the coordinator's image, then recovers each
/// shard with in-doubt transactions resolved against its decision log
/// (presumed-abort for every txid the log does not answer for).
///
/// A shard whose image is `None` (lost outright — NVDIMM failure, torn
/// header) cannot recover locally: it receives a typed
/// [`WspError::BackendRecoveryRequired`] refusal and a
/// [`RecoveryOutcome::Degraded`] verdict at the cluster-rebuild rung,
/// with the rebuild time quantified from `cluster` — the PR 3 ladder
/// semantics, applied fleet-wide. Surviving shards still resolve to the
/// decision log, so committed cross-shard transactions stay visible on
/// every shard that still exists.
///
/// When [`CoordinatorImage::parse`] refuses the coordinator image, no
/// shard is recovered: presuming abort without a readable decision log
/// could split a committed transaction. Every shard degrades at the
/// cluster-rebuild rung carrying the parse's refusal, which is the one
/// refusal traced.
#[must_use]
pub fn resolve_cross_shard(
    coordinator_image: &[u8],
    shard_images: Vec<Option<CrashImage>>,
    cluster: &ClusterSpec,
) -> ClusterTxnRecovery {
    let coordinator = match CoordinatorImage::parse(coordinator_image) {
        Ok(coordinator) => coordinator,
        Err(refusal) => {
            let took = cluster.backend_recovery_time(1);
            let shards = (0..shard_images.len())
                .map(|shard| {
                    let reason = format!(
                        "shard {shard} cannot resolve against the coordinator ({refusal}); \
                         rebuild from the back end"
                    );
                    ShardRecovery::rebuild(shard, refusal.clone(), reason, took)
                })
                .collect();
            return ClusterTxnRecovery {
                shards,
                coordinator: CoordinatorImage::default(),
            };
        }
    };
    let mut shards = Vec::with_capacity(shard_images.len());
    for (shard, image) in shard_images.into_iter().enumerate() {
        let recovery = match image {
            Some(image) => {
                match PersistentHeap::recover_distributed(image, |g| coordinator.is_decided(g)) {
                    Ok((heap, resolution)) => {
                        obs::emit(
                            "txn",
                            "resolve",
                            heap.elapsed(),
                            shard as i64,
                            resolution.in_doubt.len() as i64,
                        );
                        obs::count_by(
                            obs::Ctr::TxnInDoubtResolved,
                            resolution.in_doubt.len() as u64,
                        );
                        obs::count_by(obs::Ctr::TxnAborts, resolution.aborted.len() as u64);
                        let took = heap.elapsed();
                        ShardRecovery {
                            shard,
                            heap: Some(heap),
                            resolution: Some(resolution),
                            outcome: RecoveryOutcome::Recovered {
                                rung: LadderRung::HeapLogReplay,
                                took,
                            },
                            refusal: None,
                        }
                    }
                    Err(e) => {
                        let refusal = WspError::Heap(e);
                        let reason = format!(
                            "shard {shard} image unusable ({refusal}); rebuild from the back end"
                        );
                        obs::emit_detail(
                            "txn",
                            "refusal",
                            Nanos::ZERO,
                            shard as i64,
                            0,
                            refusal.kind().to_string(),
                        );
                        let took = cluster.backend_recovery_time(1);
                        ShardRecovery::rebuild(shard, refusal, reason, took)
                    }
                }
            }
            None => {
                let staleness = cluster.backend_recovery_time(1);
                let reason = format!(
                    "shard {shard} lost its NVRAM image mid-2PC; cluster rebuild streams \
                     the back end in ~{staleness} while peers serve stale reads"
                );
                let refusal = WspError::BackendRecoveryRequired {
                    reason: reason.clone(),
                };
                obs::emit_detail(
                    "txn",
                    "refusal",
                    Nanos::ZERO,
                    shard as i64,
                    staleness.as_nanos() as i64,
                    refusal.kind().to_string(),
                );
                ShardRecovery::rebuild(shard, refusal, reason, staleness)
            }
        };
        shards.push(recovery);
    }
    ClusterTxnRecovery { shards, coordinator }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_pheap::HeapConfig;

    fn parse(image: &[u8]) -> CoordinatorImage {
        CoordinatorImage::parse(image).unwrap()
    }

    fn shard_with_cell(config: HeapConfig, value: u64) -> (PersistentHeap, PmPtr) {
        let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
        let mut tx = heap.begin();
        let p = tx.alloc(8).unwrap();
        tx.write_word(p, value).unwrap();
        tx.set_root(p).unwrap();
        tx.commit().unwrap();
        (heap, p)
    }

    /// Reads the root cell (cell 0 of [`pool_rig`]).
    fn cell(heap: &mut PersistentHeap) -> u64 {
        let root = heap.root().unwrap();
        let mut tx = heap.begin();
        let v = tx.read_word(root).unwrap();
        tx.commit().unwrap();
        v
    }

    #[test]
    fn refused_prepare_aborts_everywhere() {
        // Shard 1 is flush-on-fail: it cannot prepare, so the whole
        // transaction must abort and shard 0's prepare must roll back.
        let (heap0, p0) = shard_with_cell(HeapConfig::FocUndo, 100);
        let (heap1, p1) = shard_with_cell(HeapConfig::Fof, 200);
        let mut heaps = vec![heap0, heap1];
        let mut pool = CoordinatorPool::new(1, 1);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, p0.offset(), 1);
        txn.stage(1, p1.offset(), 2);
        let outcome = pool.submit(0, &mut heaps, &txn).unwrap();
        assert!(
            matches!(outcome, SubmitOutcome::Aborted { .. }),
            "{outcome:?}"
        );
        assert_eq!(pool.buffered(), 0, "a refused txn is never buffered");
        assert!(parse(&pool.crash_image()).decided.is_empty());
        assert_eq!(cell(&mut heaps[0]), 100);
        assert_eq!(cell(&mut heaps[1]), 200);
    }

    #[test]
    fn recovered_pool_never_reissues_a_decided_gtxid() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(1, 1);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0][0], 70);
        txn.stage(1, cells[1][0], 230);
        pool.submit(0, &mut heaps, &txn).unwrap();

        // Whether or not recovery prunes the decision, its gtxid is never
        // reissued, even against shards that did not crash.
        let mut recovered = CoordinatorPool::recover(&pool.crash_image(), 1, 1);
        let mut txn2 = recovered.begin(0, 2);
        assert!(txn2.gtxid() > txn.gtxid(), "gtxid reuse");
        txn2.stage(0, cells[0][0], 60);
        txn2.stage(1, cells[1][0], 240);
        assert_eq!(
            recovered.submit(0, &mut heaps, &txn2).unwrap(),
            SubmitOutcome::Committed { group: 1 }
        );
        for (heap, want) in heaps.iter_mut().zip([60, 240]) {
            assert_eq!(cell(heap), want);
        }
    }

    #[test]
    fn fresh_pool_recovers_to_empty_state() {
        let pool = CoordinatorPool::new(2, 4);
        let mut recovered = CoordinatorPool::recover(&pool.crash_image(), 2, 4);
        assert_eq!(recovered.begin(0, 1).gtxid(), GTXID_BASE);
        let image = parse(&recovered.crash_image());
        assert!(image.decided.is_empty());
        assert_eq!(image.routed, None);
    }

    #[test]
    fn lost_shard_degrades_with_quantified_staleness() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(1, 1);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0][0], 11);
        txn.stage(1, cells[1][0], 22);
        assert!(pool.prepare(0, &mut heaps, &txn).unwrap().is_none());
        pool.buffer_decision(0, &txn);
        pool.seal_decisions(0);
        let coordinator_image = pool.crash_image();
        let mut images: Vec<Option<CrashImage>> =
            heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        images[0] = None; // shard 0's NVRAM image is gone
        let cluster = ClusterSpec::memcache_tier(8);
        let recovery = resolve_cross_shard(&coordinator_image, images, &cluster);
        assert!(!recovery.fully_recovered());
        let lost = &recovery.shards[0];
        assert!(
            matches!(lost.refusal, Some(WspError::BackendRecoveryRequired { .. })),
            "{:?}",
            lost.refusal
        );
        match &lost.outcome {
            RecoveryOutcome::Degraded { rung, reason, took } => {
                assert_eq!(*rung, LadderRung::ClusterRebuild);
                assert_eq!(*took, cluster.backend_recovery_time(1));
                assert!(!reason.is_empty());
            }
            other => panic!("lost shard must degrade, got {other:?}"),
        }
        // The surviving shard still honours the durable decision.
        let survivor = recovery.shards.into_iter().nth(1).unwrap();
        let mut heap = survivor.heap.unwrap();
        assert_eq!(cell(&mut heap), 22);
    }

    #[test]
    fn routing_log_round_trips_decided_write_sets() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::with_routing(1, 2);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0][0], 70);
        txn.stage(1, cells[1][0], 230);
        assert_eq!(
            pool.submit(0, &mut heaps, &txn).unwrap(),
            SubmitOutcome::Buffered
        );
        // Routed when buffered, but durable only at the fence that also
        // seals the covering group record: a crash first leaves neither.
        let image = parse(&pool.crash_image());
        assert_eq!(image.routed, Some(vec![]));
        assert!(image.decided.is_empty());
        pool.drain(0, &mut heaps).unwrap();
        // Prepared but never decided: routed nothing.
        let mut undecided = pool.begin(0, 2);
        undecided.stage(0, cells[0][1], 1);
        assert!(pool.prepare(0, &mut heaps, &undecided).unwrap().is_none());

        let image = parse(&pool.crash_image());
        assert!(image.is_decided(txn.gtxid()));
        assert_eq!(
            image.routed,
            Some(vec![
                RoutedWrite {
                    gtxid: txn.gtxid(),
                    shard: 0,
                    addr: cells[0][0],
                    value: 70
                },
                RoutedWrite {
                    gtxid: txn.gtxid(),
                    shard: 1,
                    addr: cells[1][0],
                    value: 230
                },
            ])
        );
        // A pool without routing routes nothing at all.
        let (mut plain_heaps, plain_cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut plain = CoordinatorPool::new(1, 1);
        let mut t = plain.begin(0, 2);
        t.stage(0, plain_cells[0][0], 1);
        t.stage(1, plain_cells[1][0], 2);
        plain.submit(0, &mut plain_heaps, &t).unwrap();
        assert_eq!(parse(&plain.crash_image()).routed, None);
    }

    #[test]
    fn reapply_rebuilds_a_sacrificed_shard_from_a_stale_checkpoint() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let checkpoints = heaps.clone();
        let mut pool = CoordinatorPool::with_routing(1, 1);
        // Two committed transactions touching shard 1; the later value
        // must win the replay.
        for value in [230u64, 260] {
            let mut txn = pool.begin(0, 2);
            txn.stage(0, cells[0][0], 300 - value);
            txn.stage(1, cells[1][0], value);
            pool.submit(0, &mut heaps, &txn).unwrap();
        }
        let image = parse(&pool.crash_image());
        // Shard 1's NVRAM image is sacrificed: rebuild from the stale
        // checkpoint, then replay its routed writes.
        let mut rebuilt = checkpoints.into_iter().nth(1).unwrap();
        assert_eq!(cell(&mut rebuilt), 100, "checkpoint is stale");
        let applied = reapply_routed(&mut rebuilt, 1, &image).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(cell(&mut rebuilt), 260, "last committed value wins");
        // Replaying again is idempotent (absolute values).
        reapply_routed(&mut rebuilt, 1, &image).unwrap();
        assert_eq!(cell(&mut rebuilt), 260);
        // Undecided gtxids replay nothing.
        let undecided = CoordinatorImage {
            decided: HashMap::new(),
            ..image
        };
        let none = reapply_routed(&mut rebuilt, 1, &undecided).unwrap();
        assert_eq!(none, 0);
    }

    /// Two committed transfers through a group-of-one pool: the second
    /// seal's fence makes the first one's settle marker durable.
    fn settle_one(pool: &mut CoordinatorPool) -> (CrossShardTxn, Vec<u8>) {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0][0], 70);
        txn.stage(1, cells[1][0], 230);
        pool.submit(0, &mut heaps, &txn).unwrap();
        let mut next = pool.begin(0, 2);
        next.stage(0, cells[0][1], 1);
        pool.submit(0, &mut heaps, &next).unwrap();
        let image = pool.crash_image();
        assert!(parse(&image).settled.contains(&txn.gtxid()));
        (txn, image)
    }

    #[test]
    fn routed_recovery_keeps_the_history_and_repins_settled_decisions() {
        let (txn, image) = settle_one(&mut CoordinatorPool::with_routing(1, 1));

        // The pool crashes and restarts; the routed history must survive
        // into the *new* pool's own crash image ...
        let mut recovered = CoordinatorPool::recover(&image, 1, 1);
        let image = parse(&recovered.crash_image());
        let routed = image.routed.as_ref().unwrap();
        assert_eq!(routed.len(), 3);
        assert!(routed.iter().any(|w| w.shard == 1 && w.value == 230));
        // ... and the settled decision stays answerable: a shard
        // sacrificed later is rebuilt by replaying routed writes
        // filtered on the decided set.
        assert!(image.is_decided(txn.gtxid()));
        assert_eq!(
            recovered.attribute(txn.gtxid()),
            Some(GtxidOrigin {
                coordinator: 0,
                generation: 1
            })
        );
        // A plain pool prunes the same settled decision at recovery.
        let (txn, image) = settle_one(&mut CoordinatorPool::new(1, 1));
        let plain = CoordinatorPool::recover(&image, 1, 1);
        assert!(!parse(&plain.crash_image()).is_decided(txn.gtxid()));
        assert_eq!(plain.attribute(txn.gtxid()).map(|o| o.generation), Some(1));
        // Pruning empties the history once checkpoints catch up.
        recovered.prune_routing();
        assert_eq!(parse(&recovered.crash_image()).routed, Some(vec![]));
    }

    #[test]
    fn decided_generations_are_kept_only_while_unsettled() {
        // One shard with 32 cells: transaction t writes cell t % 32, so
        // every buffered group of 32 holds pairwise-disjoint write sets.
        let mut heap = PersistentHeap::create(ByteSize::kib(256), HeapConfig::FocUndo);
        let mut tx = heap.begin();
        let base = tx.alloc(32 * 64).unwrap();
        tx.set_root(base).unwrap();
        tx.commit().unwrap();
        let mut heaps = vec![heap];
        let mut pool = CoordinatorPool::new(1, 32);
        for t in 0..50_000u64 {
            let mut txn = pool.begin(0, 1);
            txn.stage(0, base.byte_offset((t % 32) * 64).offset(), t);
            let outcome = pool.submit(0, &mut heaps, &txn).unwrap();
            assert!(
                !matches!(outcome, SubmitOutcome::Aborted { .. }),
                "{outcome:?}"
            );
            assert!(
                pool.unsettled.len() <= pool.sealed.len(),
                "{} generations kept for {} unsettled decisions",
                pool.unsettled.len(),
                pool.sealed.len()
            );
        }
        assert!(pool.unsettled.is_empty());
        assert!(pool.recovered.is_empty());
    }

    /// Builds `n` shards, each with four committed cells holding 100 —
    /// enough distinct addresses that concurrent in-flight transactions
    /// can keep pairwise-disjoint write sets.
    fn pool_rig(config: HeapConfig, n: usize) -> (Vec<PersistentHeap>, Vec<Vec<u64>>) {
        let mut heaps = Vec::new();
        let mut cells = Vec::new();
        for _ in 0..n {
            let mut heap = PersistentHeap::create(ByteSize::kib(256), config);
            let mut shard_cells = Vec::new();
            let mut tx = heap.begin();
            for i in 0..4 {
                let p = tx.alloc(8).unwrap();
                tx.write_word(p, 100).unwrap();
                if i == 0 {
                    tx.set_root(p).unwrap();
                }
                shard_cells.push(p.offset());
            }
            tx.commit().unwrap();
            heaps.push(heap);
            cells.push(shard_cells);
        }
        (heaps, cells)
    }

    #[test]
    fn grouped_commits_are_visible_and_crash_durable() {
        for config in [HeapConfig::FocStm, HeapConfig::FocUndo] {
            let (mut heaps, cells) = pool_rig(config, 3);
            let mut pool = CoordinatorPool::new(2, 4);
            // Four transactions with pairwise-disjoint write sets; the
            // fourth submission trips the size trigger.
            let mut outcomes = Vec::new();
            for t in 0..4usize {
                let coord = t % 2;
                let mut txn = pool.begin(coord, 3);
                // Cell index == txn index: all (shard, cell) pairs are
                // distinct across the in-flight group.
                txn.stage(t % 3, cells[t % 3][t], t as u64);
                txn.stage((t + 1) % 3, cells[(t + 1) % 3][t], (t + 1) as u64 * 10);
                outcomes.push(pool.submit(coord, &mut heaps, &txn).unwrap());
            }
            assert!(outcomes[..3]
                .iter()
                .all(|o| *o == SubmitOutcome::Buffered));
            assert_eq!(outcomes[3], SubmitOutcome::Committed { group: 4 }, "{config}");
            // One fenced group record decided all four: every write is
            // visible after a full-fleet unsaved crash.
            let coordinator_image = pool.crash_image();
            let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
            let recovery =
                resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
            assert!(recovery.fully_recovered(), "{config}");
            assert_eq!(recovery.coordinator.decided.len(), 4, "{config}");
        }
    }

    #[test]
    fn buffered_decisions_presume_abort_on_crash() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(1, 8);
        let mut txn = pool.begin(0, 2);
        txn.stage(0, cells[0][0], 1);
        txn.stage(1, cells[1][0], 2);
        assert_eq!(
            pool.submit(0, &mut heaps, &txn).unwrap(),
            SubmitOutcome::Buffered
        );
        // Crash with the decision buffered but unsealed: nothing durable
        // names the gtxid, so both prepared shards presume abort.
        let coordinator_image = pool.crash_image();
        let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        let recovery =
            resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
        assert!(recovery.fully_recovered());
        for s in recovery.shards {
            let mut heap = s.heap.unwrap();
            assert_eq!(s.resolution.unwrap().aborted, vec![txn.gtxid()]);
            assert_eq!(cell(&mut heap), 100);
        }
    }

    #[test]
    fn sealed_but_uncommitted_group_resolves_to_commit_everywhere() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 8);
        let mut a = pool.begin(0, 2);
        a.stage(0, cells[0][0], 11);
        let mut b = pool.begin(1, 2);
        b.stage(1, cells[1][0], 22);
        for (coord, txn) in [(0, &a), (1, &b)] {
            assert!(pool.prepare(coord, &mut heaps, txn).unwrap().is_none());
            pool.buffer_decision(coord, txn);
        }
        // Sealed (decision durable) but phase 2 never runs.
        assert_eq!(pool.seal_decisions(0), 2);
        let coordinator_image = pool.crash_image();
        let images = heaps.into_iter().map(|h| Some(h.crash(false))).collect();
        let recovery =
            resolve_cross_shard(&coordinator_image, images, &ClusterSpec::memcache_tier(8));
        assert!(recovery.fully_recovered());
        for (s, want) in recovery.shards.into_iter().zip([11u64, 22]) {
            let mut heap = s.heap.unwrap();
            assert_eq!(s.resolution.unwrap().committed.len(), 1);
            assert_eq!(cell(&mut heap), want);
        }
    }

    #[test]
    fn torn_group_record_prefix_presumes_abort_for_every_member() {
        // Power fails at every durable event of the seal: any strict
        // prefix of the covering record decides no member; the complete
        // record decides them all — all-or-nothing at group granularity.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 8);
        let mut a = pool.begin(0, 2);
        a.stage(0, cells[0][0], 11);
        let mut b = pool.begin(1, 2);
        b.stage(1, cells[1][0], 22);
        for (coord, txn) in [(0, &a), (1, &b)] {
            assert!(pool.prepare(coord, &mut heaps, txn).unwrap().is_none());
            pool.buffer_decision(coord, txn);
        }
        let seal = |p: &mut CoordinatorPool| p.seal_decisions(0);
        let events = pool.durable_events(seal);
        assert_eq!(events, 3, "a header and one word per member");
        for e in 0..=events {
            let image = parse(&pool.clone().crash_during(e, seal));
            let want = if e == events { 2 } else { 0 };
            assert_eq!(image.decided.len(), want, "{e}/{events} events");
        }
    }

    #[test]
    fn concurrent_coordinators_overlap_on_the_simulated_clock() {
        // The same 8 disjoint transactions, one coordinator vs four:
        // the pool's wall clock must show real overlap (prepares and
        // phase-2 markers on different shards run concurrently).
        let wall_with = |coordinators: usize| {
            let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 8);
            let mut pool = CoordinatorPool::new(coordinators, 4);
            for t in 0..8usize {
                let coord = t % coordinators;
                let shard = t % 8;
                let mut txn = pool.begin(coord, 8);
                txn.stage(shard, cells[shard][0], 7);
                pool.submit(coord, &mut heaps, &txn).unwrap();
            }
            pool.drain(0, &mut heaps).unwrap();
            pool.wall()
        };
        let serial = wall_with(1);
        let parallel = wall_with(4);
        assert!(
            parallel < serial,
            "4 coordinators must overlap: {parallel} !< {serial}"
        );
    }

    #[test]
    fn pool_recovery_attributes_gtxids_and_prunes_settled() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 2);
        // Group 1 commits fully (settled); then one decision seals
        // without phase 2 (unsettled).
        let mut a = pool.begin(0, 2);
        a.stage(0, cells[0][0], 11);
        let mut b = pool.begin(1, 2);
        b.stage(1, cells[1][0], 22);
        pool.submit(0, &mut heaps, &a).unwrap();
        pool.submit(1, &mut heaps, &b).unwrap(); // seals + completes group 1
        let mut c = pool.begin(0, 2);
        c.stage(0, cells[0][1], 33);
        assert!(pool.prepare(0, &mut heaps, &c).unwrap().is_none());
        pool.buffer_decision(0, &c);
        assert_eq!(pool.seal_decisions(1), 1); // durable, never completed

        let recovered = CoordinatorPool::recover(&pool.crash_image(), 2, 2);
        // Settled group-1 decisions pruned; unsettled decision survives.
        let replayed = parse(&recovered.crash_image());
        assert!(!replayed.is_decided(a.gtxid()));
        assert!(!replayed.is_decided(b.gtxid()));
        assert!(replayed.is_decided(c.gtxid()));
        // Attribution still names issuer and generation for every
        // decided gtxid the log answers for.
        assert_eq!(
            recovered.attribute(c.gtxid()),
            Some(GtxidOrigin {
                coordinator: 0,
                generation: 1
            })
        );
        assert_eq!(coordinator_of(b.gtxid()), 1);
        // Fresh gtxids never collide with pre-crash ones, per slot.
        let mut recovered = recovered;
        let fresh_a = recovered.begin(0, 2);
        let fresh_b = recovered.begin(1, 2);
        assert!(fresh_a.gtxid() > c.gtxid());
        assert!(fresh_b.gtxid() > b.gtxid());
        // And the recovered incarnation seals under a bumped generation.
        let mut d = recovered.begin(0, 2);
        d.stage(0, cells[0][2], 44);
        assert!(recovered.prepare(0, &mut heaps, &d).unwrap().is_none());
        recovered.buffer_decision(0, &d);
        recovered.seal_decisions(0);
        assert_eq!(
            recovered.attribute(d.gtxid()).unwrap().generation,
            2,
            "recovered incarnation must seal under a new generation"
        );
    }

    #[test]
    fn group_size_one_seals_every_submission() {
        // A pool with group size 1 seals every submission immediately:
        // one fenced decision record per transaction.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(1, 1);
        for t in 0..3u64 {
            let mut txn = pool.begin(0, 2);
            txn.stage((t % 2) as usize, cells[(t % 2) as usize][0], t + 1);
            assert_eq!(
                pool.submit(0, &mut heaps, &txn).unwrap(),
                SubmitOutcome::Committed { group: 1 }
            );
        }
        assert_eq!(pool.buffered(), 0);
    }

    #[test]
    fn pool_decision_log_recycles_under_sustained_load() {
        // Far more groups than the 8 KiB decision log holds in one pass:
        // settle markers + compaction must keep it recycling, while one
        // pinned unsettled decision survives every compaction.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 4);
        let mut pinned = pool.begin(0, 2);
        pinned.stage(0, cells[0][0], 9);
        assert!(pool.prepare(0, &mut heaps, &pinned).unwrap().is_none());
        pool.buffer_decision(0, &pinned);
        pool.seal_decisions(0);
        // Emulate an unreachable participant: phase 2 never runs for the
        // pinned decision, so it stays unsettled for the whole soak.
        pool.sealed.clear();
        for t in 0..2048u64 {
            let coord = (t % 2) as usize;
            let mut txn = pool.begin(coord, 2);
            txn.stage(1, cells[1][(t % 4) as usize], t);
            pool.submit(coord, &mut heaps, &txn).unwrap();
        }
        pool.drain(0, &mut heaps).unwrap();
        assert!(
            parse(&pool.crash_image()).is_decided(pinned.gtxid()),
            "pinned unsettled decision lost to pool compaction"
        );
    }

    #[test]
    fn torn_group_seal_after_compaction_is_all_or_nothing() {
        // The seal compacts the decision log first: the pinned unsettled
        // decision is re-sealed ahead of the new tail, then the group
        // record is written. Power fails at every durable event of it
        // all, compaction included.
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::new(2, 4);
        let mut pinned = pool.begin(0, 2);
        pinned.stage(0, cells[0][0], 9);
        assert!(pool.prepare(0, &mut heaps, &pinned).unwrap().is_none());
        pool.buffer_decision(0, &pinned);
        pool.seal_decisions(0);
        pool.sealed.clear();
        // Submit until three decisions are buffered on a log that is due
        // for compaction.
        let mut t = 0u64;
        while !(pool.log.needs_truncation() && pool.buffered() == 3) {
            assert!(t < 4096, "decision log never came due for compaction");
            let coord = (t % 2) as usize;
            let mut txn = pool.begin(coord, 2);
            txn.stage(1, cells[1][(t % 4) as usize], t);
            pool.submit(coord, &mut heaps, &txn).unwrap();
            t += 1;
        }
        let members: Vec<u64> = pool.pending.iter().map(|p| p.gtxid).collect();
        let mut probe = pool.clone();
        probe.seal_decisions(0);
        assert!(!probe.log.needs_truncation(), "the seal compacts first");
        let seal = |p: &mut CoordinatorPool| p.seal_decisions(0);
        let events = pool.durable_events(seal);
        for e in 0..=events {
            let image = pool.clone().crash_during(e, seal);
            let images = heaps.iter().map(|h| Some(h.clone().crash(false))).collect();
            let recovery = resolve_cross_shard(&image, images, &ClusterSpec::memcache_tier(8));
            assert!(recovery.fully_recovered(), "{e}/{events} events");
            assert!(
                recovery.coordinator.is_decided(pinned.gtxid()),
                "pinned decision lost at {e}/{events} events"
            );
            let resolution = recovery.shards[1].resolution.as_ref().unwrap();
            let (decided, undecided) = if e == events {
                (&resolution.committed, &resolution.aborted)
            } else {
                (&resolution.aborted, &resolution.committed)
            };
            for gtxid in &members {
                assert!(decided.contains(gtxid), "{e}/{events} events: {gtxid:#x}");
                assert!(!undecided.contains(gtxid), "{e}/{events} events: {gtxid:#x}");
            }
        }
    }

    #[test]
    fn short_or_foreign_coordinator_images_are_refused() {
        let (mut heaps, cells) = pool_rig(HeapConfig::FocUndo, 2);
        let mut pool = CoordinatorPool::with_routing(1, 1);
        for value in [70u64, 80] {
            let mut txn = pool.begin(0, 2);
            txn.stage(0, cells[0][0], value);
            txn.stage(1, cells[1][0], 300 - value);
            pool.submit(0, &mut heaps, &txn).unwrap();
        }
        let image = pool.crash_image();
        assert_eq!(parse(&image).decided.len(), 2);
        // A group record naming a gtxid no pool issues.
        let mut foreign = pool.clone();
        let entry = pack_group_entry(1, GTXID_BASE - 1);
        foreign.log.append_group_decision(&mut foreign.mem, &[entry], true);
        foreign.mem.sfence();
        let foreign = foreign.crash_image();

        let cluster = ClusterSpec::memcache_tier(8);
        let shard_images: Vec<CrashImage> = heaps.into_iter().map(|h| h.crash(false)).collect();
        let refusals = |cap: &obs::Capture| {
            let events = cap.trace.events().iter();
            (events.filter(|e| e.subsystem == "txn" && e.name == "refusal"))
                .map(|e| e.detail.clone())
                .collect::<Vec<_>>()
        };
        let check = |bytes: &[u8]| {
            let at = format!("{} of {} bytes", bytes.len(), image.len());
            let (parsed, cap) = obs::capture(|| CoordinatorImage::parse(bytes));
            assert!(
                matches!(parsed, Err(WspError::TornImage { .. })),
                "{at}: {parsed:?}"
            );
            assert_eq!(refusals(&cap), ["torn-image"], "{at}");
            let images = shard_images.iter().cloned().map(Some).collect();
            let (recovery, cap) = obs::capture(|| resolve_cross_shard(bytes, images, &cluster));
            assert_eq!(refusals(&cap), ["torn-image"], "{at}");
            assert!(recovery.coordinator.decided.is_empty(), "{at}");
            assert_eq!(recovery.shards.len(), 2, "{at}");
            for s in &recovery.shards {
                assert!(s.heap.is_none(), "{at}: shard {}", s.shard);
                assert!(
                    matches!(
                        s.outcome,
                        RecoveryOutcome::Degraded {
                            rung: LadderRung::ClusterRebuild,
                            ..
                        }
                    ),
                    "{at}: shard {} {:?}",
                    s.shard,
                    s.outcome
                );
                assert_eq!(s.refusal, parsed.clone().err(), "{at}: shard {}", s.shard);
            }
        };
        // The empty image, then every cut that drops a tail word (at 8
        // and 16) or a word of the decision or routing log.
        let routing_end = (ROUTING_LOG_BASE + ROUTING_LOG_CAP.as_u64()) as usize;
        for len in (0..routing_end).step_by(8) {
            check(&image[..len]);
        }
        check(&foreign);
        // A pool restart refuses the foreign image with the typed error.
        let restart = std::panic::catch_unwind(|| CoordinatorPool::recover(&foreign, 1, 1));
        let message = restart.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("TornImage"), "{message}");
    }
}
