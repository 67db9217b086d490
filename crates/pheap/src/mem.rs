//! Cache-mediated NVRAM: the byte store under every persistent heap.
//!
//! [`PersistentMemory`] keeps two views of the address space: the
//! **durable** bytes (what the NVDIMMs hold — the only thing that
//! survives an unflushed crash) and a **dirty-line overlay** mirroring
//! the simulated cache hierarchy's dirty lines. Ordinary stores update
//! the overlay; lines reach the durable view only through eviction
//! writebacks, explicit flushes, fenced non-temporal stores, or a
//! flush-on-fail `wbinvd` at crash time.
//!
//! The memory is also where crash points live. It counts **durable
//! events** — each pending non-temporal store an `sfence` drains (in
//! issue order) and each dirty line a `clflush` writes back — and a
//! [`PowerCut`] armed on it fails power just before a chosen one. One
//! cut may be armed on a whole fleet of memories (every shard heap and
//! the 2PC coordinator's decision log): it counts their events together
//! in program order, so every durable path of every protocol above is
//! crashable at any instant, with no per-protocol cut.

use std::sync::Arc;

use wsp_cache::{CacheHierarchy, CpuProfile, LineAddr, LINE_SIZE};
use wsp_power::{ArmedCut, PowerCut};
use wsp_units::{ByteSize, Nanos};

use crate::linetable::LineTable;

/// One pending write-combining entry's payload. Almost every
/// non-temporal store the heaps issue is a single log word, so payloads
/// up to 16 bytes live inline; anything larger spills to the heap.
#[derive(Debug, Clone)]
enum WcData {
    Inline { len: u8, bytes: [u8; 16] },
    Spill(Vec<u8>),
}

impl WcData {
    fn new(data: &[u8]) -> Self {
        if data.len() <= 16 {
            let mut bytes = [0u8; 16];
            bytes[..data.len()].copy_from_slice(data);
            WcData::Inline {
                len: data.len() as u8,
                bytes,
            }
        } else {
            WcData::Spill(data.to_vec())
        }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            WcData::Inline { len, bytes } => &bytes[..usize::from(*len)],
            WcData::Spill(v) => v,
        }
    }
}

/// A simulated NVRAM address space behind a write-back cache.
///
/// All operations charge simulated time, accumulated in
/// [`PersistentMemory::elapsed`]; the charge model comes from the
/// [`CpuProfile`] the memory was built with.
///
/// # Examples
///
/// ```
/// use wsp_pheap::PersistentMemory;
/// use wsp_units::ByteSize;
///
/// let mut mem = PersistentMemory::new(ByteSize::mib(1));
/// mem.write_u64(64, 7);
/// assert_eq!(mem.read_u64(64), 7);
/// // Without a flush the store is still in cache: a crash loses it.
/// let image = mem.crash(false);
/// assert_eq!(u64::from_le_bytes(image[64..72].try_into().unwrap()), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PersistentMemory {
    durable: Vec<u8>,
    overlay: LineTable,
    /// Non-temporal stores issued but not yet fenced: (addr, bytes).
    wc_pending: Vec<(u64, WcData)>,
    cache: CacheHierarchy,
    elapsed: Nanos,
    budget: EventBudget,
}

/// The durable-event count, the armed cut and the image it froze. A
/// clone keeps the count and is unarmed ([`ArmedCut`]).
#[derive(Debug, Default, Clone)]
struct EventBudget {
    events: u64,
    cut: ArmedCut,
    /// The durable bytes at the instant power failed.
    frozen: Option<Vec<u8>>,
}

impl EventBudget {
    /// Counts one durable event about to land on `durable`.
    fn tick(&mut self, durable: &[u8]) {
        self.events += 1;
        self.cut.land();
        self.landing(durable);
    }

    /// Called before anything lands on `durable`: freezes it once the
    /// armed cut has struck.
    fn landing(&mut self, durable: &[u8]) {
        if self.frozen.is_none() && self.cut.struck() {
            self.frozen = Some(durable.to_vec());
        }
    }
}

impl PersistentMemory {
    /// Creates a zero-filled NVRAM of `capacity` bytes behind the default
    /// testbed cache (Intel C5528).
    #[must_use]
    pub fn new(capacity: ByteSize) -> Self {
        Self::with_profile(capacity, CpuProfile::intel_c5528())
    }

    /// Creates a zero-filled NVRAM behind the given CPU's caches.
    #[must_use]
    pub fn with_profile(capacity: ByteSize, profile: CpuProfile) -> Self {
        Self::from_image(vec![0u8; capacity.as_u64() as usize], profile)
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        ByteSize::new(self.durable.len() as u64)
    }

    /// Total simulated time charged so far.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.elapsed
    }

    /// Adds instrumentation time that does not correspond to a memory
    /// access (STM bookkeeping, transaction setup, …).
    pub fn charge(&mut self, d: Nanos) {
        self.elapsed += d;
    }

    /// Credits back time that was charged serially but models work
    /// overlapped with execution elsewhere — a pipelined epoch seal
    /// draining behind foreground commits, or a 2PC participant
    /// preparing concurrently with its siblings. Saturates at zero.
    pub fn rebate(&mut self, d: Nanos) {
        self.elapsed = self.elapsed.saturating_sub(d);
    }

    /// Durable events so far: one per pending non-temporal store an
    /// [`PersistentMemory::sfence`] drains and one per dirty line a
    /// [`PersistentMemory::clflush_range`] writes back. Eviction
    /// writebacks, [`PersistentMemory::flush_all`] and
    /// [`PersistentMemory::scrub`] are not events. Counting charges no
    /// simulated time; a clone keeps the count.
    #[must_use]
    pub fn durable_events(&self) -> u64 {
        self.budget.events
    }

    /// Arms `cut` (replacing any earlier one): this memory's durable
    /// events count towards it from now on. The durable bytes at the
    /// instant it strikes are kept and [`PersistentMemory::crash`]
    /// returns them; the memory keeps running (later stores stay
    /// readable), but nothing that lands after the failure reaches the
    /// crash image. A memory that did not perform the failing event
    /// freezes before the next thing that lands on it (a durable event,
    /// an eviction writeback, a write-combining drain,
    /// [`PersistentMemory::flush_all`] or [`PersistentMemory::scrub`]),
    /// so every armed memory stops at one instant. Clones are never
    /// armed.
    ///
    /// # Examples
    ///
    /// ```
    /// use wsp_pheap::PersistentMemory;
    /// use wsp_power::PowerCut;
    /// use wsp_units::ByteSize;
    ///
    /// let mut a = PersistentMemory::new(ByteSize::kib(64));
    /// let mut b = a.clone();
    /// let cut = PowerCut::after(1);
    /// a.arm(&cut);
    /// b.arm(&cut);
    /// a.ntstore_u64(0, 1);
    /// a.sfence(); // event 0 lands
    /// b.ntstore_u64(0, 2);
    /// b.sfence(); // event 1: power fails first
    /// assert_eq!(cut.events(), 2);
    /// assert_eq!(a.crash(false)[0], 1);
    /// assert_eq!(b.crash(false)[0], 0);
    /// ```
    pub fn arm(&mut self, cut: &Arc<PowerCut>) {
        self.budget.cut.arm(cut);
    }

    /// The cache hierarchy (for statistics inspection).
    #[must_use]
    pub fn cache(&self) -> &CacheHierarchy {
        &self.cache
    }

    fn check(&self, addr: u64, len: usize) {
        assert!(
            addr as usize + len <= self.durable.len(),
            "access [{addr:#x}, {:#x}) exceeds region capacity {:#x}",
            addr as usize + len,
            self.durable.len()
        );
    }

    /// Moves the overlay contents of `line` into the durable view (a
    /// `clflush` writeback, already counted as a durable event).
    fn persist_line(&mut self, line: LineAddr) {
        Self::persist_lines(&mut self.durable, &mut self.overlay, &mut self.budget, &[line]);
    }

    /// Moves the cache's last eviction writebacks into the durable view.
    fn persist_evictions(&mut self) {
        Self::persist_lines(
            &mut self.durable,
            &mut self.overlay,
            &mut self.budget,
            self.cache.last_writebacks(),
        );
    }

    /// Field-split form of writeback persistence, so the access paths can
    /// borrow the cache's scratch writeback slice while mutating the
    /// durable bytes and the overlay.
    fn persist_lines(
        durable: &mut [u8],
        overlay: &mut LineTable,
        budget: &mut EventBudget,
        lines: &[LineAddr],
    ) {
        budget.landing(durable);
        for &line in lines {
            if let Some(buf) = overlay.remove(line.index()) {
                let start = line.first_byte() as usize;
                let end = (start + LINE_SIZE as usize).min(durable.len());
                durable[start..end].copy_from_slice(&buf[..end - start]);
            }
        }
    }

    /// Drains every pending write-combining entry whose cache line(s)
    /// overlap `[addr, addr + len)` straight to the durable view.
    fn drain_wc_overlapping(&mut self, addr: u64, len: u64) {
        if self.wc_pending.is_empty() || len == 0 {
            return;
        }
        self.budget.landing(&self.durable);
        let first_line = addr / LINE_SIZE;
        let last_line = (addr + len - 1) / LINE_SIZE;
        let mut remaining = Vec::with_capacity(self.wc_pending.len());
        for (nt_addr, data) in std::mem::take(&mut self.wc_pending) {
            let bytes = data.bytes();
            let nt_first = nt_addr / LINE_SIZE;
            let nt_last = (nt_addr + bytes.len() as u64 - 1) / LINE_SIZE;
            if nt_last >= first_line && nt_first <= last_line {
                let start = nt_addr as usize;
                self.durable[start..start + bytes.len()].copy_from_slice(bytes);
            } else {
                remaining.push((nt_addr, data));
            }
        }
        self.wc_pending = remaining;
    }

    /// Reads `buf.len()` bytes at `addr` through the cache.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = addr + pos as u64;
            let line = LineAddr::containing(abs);
            let meta = self.cache.load_fast(abs);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                self.persist_evictions();
            }
            let offset = (abs - line.first_byte()) as usize;
            let chunk = (LINE_SIZE as usize - offset).min(buf.len() - pos);
            // Overlay if the line is dirty, durable view otherwise — no
            // intermediate line copy either way.
            if let Some(view) = self.overlay.get(line.index()) {
                buf[pos..pos + chunk].copy_from_slice(&view[offset..offset + chunk]);
            } else {
                let start = abs as usize;
                buf[pos..pos + chunk].copy_from_slice(&self.durable[start..start + chunk]);
            }
            pos += chunk;
        }
        // Pending (un-fenced) non-temporal stores are architecturally
        // visible to loads (store forwarding), even though they are not
        // yet durable: overlay them last, in issue order.
        for (nt_addr, data) in &self.wc_pending {
            let bytes = data.bytes();
            let nt_start = *nt_addr;
            let nt_end = nt_start + bytes.len() as u64;
            let start = addr.max(nt_start);
            let end = (addr + buf.len() as u64).min(nt_end);
            if start < end {
                let dst = (start - addr) as usize;
                let src = (start - nt_start) as usize;
                let n = (end - start) as usize;
                buf[dst..dst + n].copy_from_slice(&bytes[src..src + n]);
            }
        }
    }

    /// Writes `data` at `addr` through the cache (write-allocate; the
    /// data sits in dirty lines until flushed or evicted).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.check(addr, data.len());
        // A cached store that hits an active write-combining buffer
        // evicts (drains) it, as on x86: conflicting pending NT data
        // reaches memory *before* the store's line is materialised, so
        // program order is preserved end to end.
        self.drain_wc_overlapping(addr, data.len() as u64);
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = addr + pos as u64;
            let line = LineAddr::containing(abs);
            let meta = self.cache.store_fast(abs);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                self.persist_evictions();
            }
            // Materialise the overlay line (from the durable view) and
            // apply the store to it — one table probe for both.
            let offset = (abs - line.first_byte()) as usize;
            let chunk = (LINE_SIZE as usize - offset).min(data.len() - pos);
            let durable = &self.durable;
            let buf = self.overlay.get_mut_or_insert_with(line.index(), || {
                let mut fresh = [0u8; LINE_SIZE as usize];
                let start = line.first_byte() as usize;
                let end = (start + LINE_SIZE as usize).min(durable.len());
                fresh[..end - start].copy_from_slice(&durable[start..end]);
                fresh
            });
            buf[offset..offset + chunk].copy_from_slice(&data[pos..pos + chunk]);
            pos += chunk;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    #[must_use]
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        // Word reads are the heap's access primitive: take the single-line
        // path (no chunk loop) whenever the word does not straddle a line
        // boundary and no pending NT data could need forwarding.
        let offset = (addr % LINE_SIZE) as usize;
        if offset + 8 <= LINE_SIZE as usize && self.wc_pending.is_empty() {
            self.check(addr, 8);
            let meta = self.cache.load_fast(addr);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                self.persist_evictions();
            }
            let line = LineAddr::containing(addr);
            let bytes: [u8; 8] = match self.overlay.get(line.index()) {
                Some(view) => view[offset..offset + 8].try_into().unwrap(),
                None => {
                    let start = addr as usize;
                    self.durable[start..start + 8].try_into().unwrap()
                }
            };
            return u64::from_le_bytes(bytes);
        }
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64` at `addr` (cached store).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        // Single-line fast path mirroring `read_u64`; pending NT data
        // falls back to the general path for the drain-before-store rule.
        let offset = (addr % LINE_SIZE) as usize;
        if offset + 8 <= LINE_SIZE as usize && self.wc_pending.is_empty() {
            self.check(addr, 8);
            let meta = self.cache.store_fast(addr);
            self.elapsed += meta.latency;
            if meta.writebacks > 0 {
                self.persist_evictions();
            }
            let line = LineAddr::containing(addr);
            let durable = &self.durable;
            let buf = self.overlay.get_mut_or_insert_with(line.index(), || {
                let mut fresh = [0u8; LINE_SIZE as usize];
                let start = line.first_byte() as usize;
                let end = (start + LINE_SIZE as usize).min(durable.len());
                fresh[..end - start].copy_from_slice(&durable[start..end]);
                fresh
            });
            buf[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write(addr, &value.to_le_bytes());
    }

    /// Issues a non-temporal store: bypasses the cache through
    /// write-combining buffers. The data is durable only after the next
    /// [`PersistentMemory::sfence`]. Any conflicting dirty cache lines
    /// are written back first (coherence), exactly as on x86.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn ntstore(&mut self, addr: u64, data: &[u8]) {
        self.check(addr, data.len());
        let meta = self.cache.ntstore_fast(addr, data.len() as u64);
        self.elapsed += meta.latency;
        if meta.writebacks > 0 {
            self.persist_evictions();
        }
        self.wc_pending.push((addr, WcData::new(data)));
    }

    /// Non-temporal store of a little-endian `u64`.
    pub fn ntstore_u64(&mut self, addr: u64, value: u64) {
        self.ntstore(addr, &value.to_le_bytes());
    }

    /// Store fence: drains the write-combining buffers, making every
    /// pending non-temporal store durable, in issue order.
    pub fn sfence(&mut self) {
        let latency = self.cache.sfence_fast();
        self.elapsed += latency;
        for (addr, data) in &self.wc_pending {
            self.budget.tick(&self.durable);
            let bytes = data.bytes();
            let start = *addr as usize;
            self.durable[start..start + bytes.len()].copy_from_slice(bytes);
        }
        self.wc_pending.clear();
    }

    /// `clflush`es every line overlapping `[addr, addr + len)`, making
    /// their contents durable.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn clflush_range(&mut self, addr: u64, len: u64) {
        self.check(addr, len as usize);
        for line in LineAddr::span(addr, len) {
            let r = self.cache.clflush(line.first_byte());
            self.elapsed += r.latency;
            if r.wrote_back {
                self.budget.tick(&self.durable);
                self.persist_line(line);
            }
        }
    }

    /// The flush-on-fail save path: `wbinvd` plus a fence, making the
    /// entire cached state durable. Returns the simulated flush latency.
    pub fn flush_all(&mut self) -> Nanos {
        let before = self.elapsed;
        let r = self.cache.wbinvd();
        self.elapsed += r.latency;
        Self::persist_lines(
            &mut self.durable,
            &mut self.overlay,
            &mut self.budget,
            &r.writebacks,
        );
        // The write-combining drain of the save path is not a durable
        // event: only the fence's latency is charged.
        self.elapsed += self.cache.sfence_fast();
        for (addr, data) in std::mem::take(&mut self.wc_pending) {
            let start = addr as usize;
            self.durable[start..start + data.bytes().len()].copy_from_slice(data.bytes());
        }
        // Anything left in the overlay map would be a bookkeeping bug.
        debug_assert!(self.overlay.is_empty(), "overlay lines survived wbinvd");
        self.elapsed - before
    }

    /// Bytes currently dirty in cache (lost if power fails without a
    /// flush-on-fail save).
    #[must_use]
    pub fn dirty_bytes(&self) -> ByteSize {
        self.cache.dirty_bytes()
    }

    /// Models a power failure. With `flush_on_fail` the save path runs
    /// first and nothing is lost; without it, dirty cache lines and
    /// unfenced non-temporal stores vanish. Returns the durable image —
    /// the one frozen when an armed [`PowerCut`] struck, whatever ran
    /// since.
    #[must_use]
    pub fn crash(mut self, flush_on_fail: bool) -> Vec<u8> {
        if flush_on_fail && self.budget.frozen.is_none() {
            self.flush_all();
        }
        self.budget.frozen.unwrap_or(self.durable)
    }

    /// Rebuilds a memory from a durable image (the power-on path: cold
    /// caches, empty overlay).
    #[must_use]
    pub fn from_image(image: Vec<u8>, profile: CpuProfile) -> Self {
        PersistentMemory {
            durable: image,
            overlay: LineTable::new(),
            wc_pending: Vec::new(),
            cache: CacheHierarchy::new(profile),
            elapsed: Nanos::ZERO,
            budget: EventBudget::default(),
        }
    }

    /// Direct view of the durable bytes (test and recovery support; does
    /// not model an access).
    #[must_use]
    pub fn durable_bytes(&self) -> &[u8] {
        &self.durable
    }

    /// Durably zeroes `[addr, addr + len)`, dropping any overlay lines in
    /// the range. Used by the boot/recovery path to neutralise the log
    /// area (so stale torn-bit polarities can never masquerade as live
    /// records); charges a streaming write at memory bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn scrub(&mut self, addr: u64, len: u64) {
        self.check(addr, len as usize);
        self.budget.landing(&self.durable);
        self.durable[addr as usize..(addr + len) as usize].fill(0);
        for line in LineAddr::span(addr, len) {
            self.overlay.remove(line.index());
            let r = self.cache.clflush(line.first_byte());
            self.elapsed += r.latency;
        }
        self.wc_pending.retain(|(a, data)| {
            let end = *a + data.bytes().len() as u64;
            end <= addr || *a >= addr + len
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PersistentMemory {
        PersistentMemory::new(ByteSize::mib(1))
    }

    #[test]
    fn read_your_own_write_through_cache() {
        let mut m = mem();
        m.write(100, b"cached data");
        let mut buf = [0u8; 11];
        m.read(100, &mut buf);
        assert_eq!(&buf, b"cached data");
        // But the durable view is still zero.
        assert_eq!(&m.durable_bytes()[100..111], &[0u8; 11]);
    }

    #[test]
    fn crash_without_flush_loses_cached_stores() {
        let mut m = mem();
        m.write_u64(256, 0xdead_beef);
        let image = m.crash(false);
        assert_eq!(u64::from_le_bytes(image[256..264].try_into().unwrap()), 0);
    }

    #[test]
    fn crash_with_flush_on_fail_preserves_everything() {
        let mut m = mem();
        m.write_u64(256, 0xdead_beef);
        m.ntstore_u64(512, 0xfeed); // even unfenced NT stores are saved
        let image = m.crash(true);
        assert_eq!(
            u64::from_le_bytes(image[256..264].try_into().unwrap()),
            0xdead_beef
        );
        assert_eq!(u64::from_le_bytes(image[512..520].try_into().unwrap()), 0xfeed);
    }

    #[test]
    fn clflush_makes_exactly_the_flushed_range_durable() {
        let mut m = mem();
        m.write_u64(0, 1);
        m.write_u64(4096, 2);
        m.clflush_range(0, 8);
        let image = m.crash(false);
        assert_eq!(u64::from_le_bytes(image[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(image[4096..4104].try_into().unwrap()), 0);
    }

    #[test]
    fn ntstore_requires_fence_for_durability() {
        let mut m = mem();
        m.ntstore_u64(64, 42);
        let unfenced = m.clone().crash(false);
        assert_eq!(u64::from_le_bytes(unfenced[64..72].try_into().unwrap()), 0);
        m.sfence();
        let fenced = m.crash(false);
        assert_eq!(u64::from_le_bytes(fenced[64..72].try_into().unwrap()), 42);
    }

    /// Each memory's image as a `u64` per 64-byte slot `1..=n`.
    fn slots(image: &[u8], n: u64) -> Vec<u64> {
        (1..=n)
            .map(|k| {
                let a = (64 * k) as usize;
                u64::from_le_bytes(image[a..a + 8].try_into().unwrap())
            })
            .collect()
    }

    #[test]
    fn power_cut_keeps_exactly_the_first_drained_stores() {
        let mut m = mem();
        for k in 0..3u64 {
            m.ntstore_u64(64 * (k + 1), k + 1);
        }
        m.arm(&PowerCut::after(2));
        m.sfence();
        assert_eq!(m.durable_events(), 3, "one event per drained store");
        assert_eq!(slots(&m.crash(false), 3), [1, 2, 0]);
    }

    #[test]
    fn one_cut_spans_every_armed_memory_in_program_order() {
        let (mut a, mut b) = (mem(), mem());
        let cut = PowerCut::after(3);
        a.arm(&cut);
        b.arm(&cut);
        for m in [&mut a, &mut b] {
            m.ntstore_u64(64, 1);
            m.ntstore_u64(128, 2);
            m.sfence();
        }
        assert_eq!(cut.events(), 4);
        assert_eq!(slots(&a.crash(false), 2), [1, 2], "both events before the cut");
        assert_eq!(slots(&b.crash(false), 2), [1, 0], "event 3 is the cut");
    }

    #[test]
    fn idle_armed_memory_freezes_at_its_next_landing() {
        let cut = PowerCut::after(0);
        let mut idle = mem();
        idle.write_u64(64, 7);
        let mut struck = mem();
        struck.arm(&cut);
        struck.ntstore_u64(64, 1);
        struck.sfence();
        // The save path after the strike lands nothing.
        let mut saved = idle.clone();
        saved.arm(&cut);
        saved.flush_all();
        assert_eq!(slots(&saved.crash(true), 1), [0], "flush_all after the strike");
        // Nor do eviction writebacks: stream 4 MiB through the Atom's
        // 1 MiB of cache.
        let mut evicting =
            PersistentMemory::with_profile(ByteSize::mib(4), CpuProfile::intel_d510());
        evicting.arm(&cut);
        for k in 0..ByteSize::mib(4).as_u64() / 64 {
            evicting.write_u64(k * 64, k + 1);
        }
        assert!(evicting.crash(false).iter().all(|&b| b == 0), "evictions after the strike");
    }

    #[test]
    fn a_clone_never_spends_the_cut() {
        let cut = PowerCut::after(1);
        let mut m = mem();
        m.arm(&cut);
        let mut probe = m.clone();
        for k in 1..=3u64 {
            probe.ntstore_u64(64 * k, k);
        }
        probe.sfence();
        assert_eq!((probe.durable_events(), cut.events()), (3, 0));
        assert_eq!(slots(&probe.crash(false), 3), [1, 2, 3], "the clone is unarmed");
        m.ntstore_u64(64, 1);
        m.ntstore_u64(128, 2);
        m.sfence();
        assert_eq!(slots(&m.crash(false), 2), [1, 0], "the cut still strikes at event 1");
    }

    #[test]
    fn a_struck_landing_freezes_armed_memories_at_their_next_landing() {
        let cut = PowerCut::after(1);
        let mut m = mem();
        m.arm(&cut);
        m.write_u64(64, 1);
        m.clflush_range(64, 8); // event 0 lands
        m.write_u64(128, 2);
        let probe = m.clone();
        assert!(!cut.land(), "event 1: power fails first");
        assert!(!cut.land(), "and stays failed");
        assert_eq!(cut.events(), 3);
        m.clflush_range(128, 8);
        m.flush_all();
        assert_eq!(slots(&m.crash(true), 2), [1, 0], "frozen at the landing");
        assert_eq!(slots(&probe.crash(true), 2), [1, 2], "the clone is unarmed");
    }

    #[test]
    fn clflush_of_a_clean_line_is_not_an_event() {
        let mut m = mem();
        m.clflush_range(0, 64);
        assert_eq!(m.durable_events(), 0, "nothing to write back");
        m.write_u64(0, 5);
        m.clflush_range(0, 64);
        assert_eq!(m.durable_events(), 1, "one dirty line written back");
        m.clflush_range(0, 64);
        assert_eq!(m.durable_events(), 1, "clean again");
    }

    #[test]
    fn stores_after_the_failure_are_readable_but_not_durable() {
        let mut m = mem();
        m.write_u64(0, 1);
        m.arm(&PowerCut::after(0));
        m.clflush_range(0, 8);
        m.write_u64(64, 2);
        m.clflush_range(64, 8);
        m.ntstore_u64(128, 3);
        m.sfence();
        assert_eq!((m.read_u64(0), m.read_u64(64), m.read_u64(128)), (1, 2, 3));
        let image = m.crash(true);
        assert!(image.iter().all(|&b| b == 0), "power failed before the first event");
    }

    #[test]
    fn ntstore_to_dirty_line_preserves_cached_neighbours() {
        let mut m = mem();
        // Dirty the first 8 bytes of a line, then NT-store to bytes 8..16
        // of the same line: the coherence writeback must persist the
        // cached first half.
        m.write_u64(0, 7);
        m.ntstore_u64(8, 9);
        m.sfence();
        let image = m.crash(false);
        assert_eq!(u64::from_le_bytes(image[0..8].try_into().unwrap()), 7);
        assert_eq!(u64::from_le_bytes(image[8..16].try_into().unwrap()), 9);
    }

    #[test]
    fn eviction_writebacks_reach_durable_view() {
        // A 4 MiB working set on the Atom's 1 MiB of cache: most lines
        // must be written back and become durable.
        let mut m =
            PersistentMemory::with_profile(ByteSize::mib(4), CpuProfile::intel_d510());
        let capacity = m.capacity().as_u64();
        let mut addr = 0u64;
        let mut i = 0u64;
        while addr < capacity {
            m.write_u64(addr, i + 1);
            addr += 64;
            i += 1;
        }
        let image = m.crash(false);
        let persisted = (0..i)
            .filter(|k| {
                let a = (k * 64) as usize;
                u64::from_le_bytes(image[a..a + 8].try_into().unwrap()) == k + 1
            })
            .count() as u64;
        assert!(persisted > 0, "evictions must persist lines");
        assert!(persisted < i, "cache-resident lines must be lost");
    }

    #[test]
    fn flush_all_charges_wbinvd_scale_latency() {
        let mut m = mem();
        for k in 0..1000u64 {
            m.write_u64(k * 64, k);
        }
        let t = m.flush_all();
        assert!(t.as_millis_f64() > 0.5, "wbinvd walk dominates: {t}");
        assert_eq!(m.dirty_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn from_image_round_trips() {
        let mut m = mem();
        m.write_u64(8, 77);
        let image = m.crash(true);
        let mut m2 = PersistentMemory::from_image(image, CpuProfile::intel_c5528());
        assert_eq!(m2.read_u64(8), 77);
    }

    #[test]
    fn elapsed_accumulates_and_charge_adds() {
        let mut m = mem();
        let t0 = m.elapsed();
        m.write_u64(0, 1);
        assert!(m.elapsed() > t0);
        let t1 = m.elapsed();
        m.charge(Nanos::new(100));
        assert_eq!(m.elapsed(), t1 + Nanos::new(100));
    }

    #[test]
    fn rebate_credits_back_and_saturates() {
        let mut m = mem();
        m.charge(Nanos::new(100));
        let t = m.elapsed();
        m.rebate(Nanos::new(40));
        assert_eq!(m.elapsed(), t - Nanos::new(40));
        m.rebate(Nanos::new(1_000_000_000));
        assert_eq!(m.elapsed(), Nanos::ZERO, "rebate saturates at zero");
    }

    #[test]
    #[should_panic(expected = "exceeds region capacity")]
    fn out_of_range_access_panics() {
        let mut m = mem();
        m.write_u64(ByteSize::mib(1).as_u64() - 4, 1);
    }
}
