//! Persistent region layout shared by the lock-free structures.
//!
//! A [`LfRegion`] is a [`PersistentMemory`] carved into fixed zones:
//!
//! ```text
//! 0x000  magic line: MAGIC, threads, slots, policy code
//! 0x040  stack head word (one full line)
//! 0x080  per-thread pair of lines, 128 B apart:
//!            +0   operation descriptor (seq, op, target, expected,
//!                 new, arena cursor, seq-again seal)
//!            +64  help word (highest helped sequence, CAS-maxed)
//! ....   hash slot array (8 B tagged entry pointers)
//! ....   per-thread line-granular bump arenas (+ one preload arena)
//! ```
//!
//! The descriptor and help words are the durable metadata the
//! detectable-CAS protocol in [`crate::lockfree`] writes *before* each
//! linearizing CAS; everything else is ordinary structure state. All
//! stores go through the cached `write_u64` path, so the line table
//! and cache hierarchy account for them exactly as they do for the
//! transactional heaps — a crash without flush-on-fail loses whatever
//! was still dirty.

use wsp_cache::CpuProfile;
use wsp_units::{ByteSize, Nanos};

use crate::PersistentMemory;

/// Cache-line size the layout is aligned to.
pub const LF_LINE: u64 = 64;

/// Magic word sealing the region header (also versions the layout).
pub const LF_MAGIC: u64 = 0x5753_505f_4c46_0009;

/// How the region persists updates, mirroring the heap-wide split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushPolicy {
    /// Explicit `clflush`/`sfence` after every publish and before every
    /// value-bearing return (Mnemosyne-style software persistence).
    FlushOnCommit,
    /// No runtime flushes: the residual-energy window saves all dirty
    /// cache state on power failure (the WSP position).
    FlushOnFail,
}

impl FlushPolicy {
    /// Short label used in reports and bench output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlushPolicy::FlushOnCommit => "foc",
            FlushPolicy::FlushOnFail => "fof",
        }
    }

    /// True when updates must be explicitly flushed to survive a crash.
    #[must_use]
    pub fn flush_on_commit(self) -> bool {
        matches!(self, FlushPolicy::FlushOnCommit)
    }

    /// Stable on-media code for the header line.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            FlushPolicy::FlushOnCommit => 1,
            FlushPolicy::FlushOnFail => 2,
        }
    }

    /// Inverse of [`FlushPolicy::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(FlushPolicy::FlushOnCommit),
            2 => Some(FlushPolicy::FlushOnFail),
            _ => None,
        }
    }
}

/// Geometry of a lock-free region; everything needed to compute
/// addresses without touching memory. Machines carry a copy so they
/// can emit micro-programs before any store executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfLayout {
    /// Number of mutator threads (tids `0..threads`).
    pub threads: usize,
    /// Hash slot count (power of two; may be 0 for stack-only regions).
    pub slots: usize,
    /// Per-thread arena size in cache lines.
    pub arena_lines: usize,
    /// Flush policy the structures run under.
    pub policy: FlushPolicy,
}

/// Address of the stack head word.
pub const HEAD_ADDR: u64 = 0x40;

const THREAD_META_BASE: u64 = 0x80;
const THREAD_META_STRIDE: u64 = 2 * LF_LINE;

impl LfLayout {
    /// Builds a layout, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds the tid space, if `slots`
    /// is not zero or a power of two, or if `arena_lines` is 0.
    #[must_use]
    pub fn new(threads: usize, slots: usize, arena_lines: usize, policy: FlushPolicy) -> Self {
        assert!(
            threads >= 1 && threads < usize::from(super::detect::PRELOAD_TID),
            "thread count {threads} outside the tid space"
        );
        assert!(
            slots == 0 || slots.is_power_of_two(),
            "slot count {slots} must be zero or a power of two"
        );
        assert!(arena_lines >= 1, "arena must hold at least one line");
        LfLayout { threads, slots, arena_lines, policy }
    }

    /// Descriptor line address for thread `tid`.
    #[must_use]
    pub fn desc_addr(&self, tid: u8) -> u64 {
        debug_assert!(usize::from(tid) < self.threads);
        THREAD_META_BASE + u64::from(tid) * THREAD_META_STRIDE
    }

    /// Help word address for thread `tid`.
    #[must_use]
    pub fn help_addr(&self, tid: u8) -> u64 {
        self.desc_addr(tid) + LF_LINE
    }

    fn slots_base(&self) -> u64 {
        THREAD_META_BASE + self.threads as u64 * THREAD_META_STRIDE
    }

    /// Address of hash slot `idx`.
    #[must_use]
    pub fn slot_addr(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.slots);
        self.slots_base() + idx as u64 * 8
    }

    /// Home slot for `key` (multiply–xor mix, masked to the table).
    #[must_use]
    pub fn home_slot(&self, key: u64) -> usize {
        debug_assert!(self.slots > 0);
        let z = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((z ^ (z >> 29)) & (self.slots as u64 - 1)) as usize
    }

    fn arena_zone_base(&self) -> u64 {
        let end = self.slots_base() + self.slots as u64 * 8;
        (end + LF_LINE - 1) & !(LF_LINE - 1)
    }

    /// Base of thread `tid`'s bump arena. `tid == threads` addresses
    /// the extra preload arena used when seeding structures.
    #[must_use]
    pub fn arena_base(&self, tid: usize) -> u64 {
        debug_assert!(tid <= self.threads);
        self.arena_zone_base() + tid as u64 * self.arena_bytes()
    }

    /// Per-arena size in bytes.
    #[must_use]
    pub fn arena_bytes(&self) -> u64 {
        self.arena_lines as u64 * LF_LINE
    }

    /// Total region capacity implied by the geometry.
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        ByteSize::new(self.arena_zone_base() + (self.threads as u64 + 1) * self.arena_bytes())
    }

    /// True when `addr` names a word inside the region.
    #[must_use]
    pub fn contains_word(&self, addr: u64) -> bool {
        addr.is_multiple_of(8) && addr + 8 <= self.capacity().as_u64()
    }
}

/// A persistent memory region hosting the lock-free structures.
///
/// Clones snapshot the full memory state (durable bytes, line-table
/// overlay, cache), which is what lets the interleaving sweep branch
/// an execution at every scheduling choice.
#[derive(Debug, Clone)]
pub struct LfRegion {
    lay: LfLayout,
    mem: PersistentMemory,
}

impl LfRegion {
    /// Creates a fresh region: header sealed durably, everything else
    /// zero, simulated clock at zero.
    #[must_use]
    pub fn create(lay: LfLayout) -> Self {
        let mut mem = PersistentMemory::new(lay.capacity());
        mem.write_u64(0x00, LF_MAGIC);
        mem.write_u64(0x08, lay.threads as u64);
        mem.write_u64(0x10, lay.slots as u64);
        mem.write_u64(0x18, lay.policy.code());
        mem.clflush_range(0, LF_LINE);
        mem.sfence();
        let setup = mem.elapsed();
        mem.rebate(setup);
        LfRegion { lay, mem }
    }

    /// Rebuilds a region from a crash image.
    ///
    /// # Panics
    ///
    /// Panics if the image's sealed header does not match `lay` — a
    /// recovered region must describe the same geometry it crashed with.
    #[must_use]
    pub fn from_image(image: Vec<u8>, lay: LfLayout) -> Self {
        let word = |a: usize| u64::from_le_bytes(image[a..a + 8].try_into().unwrap());
        assert_eq!(word(0x00), LF_MAGIC, "lock-free region magic mismatch");
        assert_eq!(word(0x08), lay.threads as u64, "thread count mismatch");
        assert_eq!(word(0x10), lay.slots as u64, "slot count mismatch");
        assert_eq!(word(0x18), lay.policy.code(), "flush policy mismatch");
        let mem = PersistentMemory::from_image(image, CpuProfile::intel_c5528());
        LfRegion { lay, mem }
    }

    /// The region geometry.
    #[must_use]
    pub fn layout(&self) -> LfLayout {
        self.lay
    }

    /// Flush policy shorthand.
    #[must_use]
    pub fn policy(&self) -> FlushPolicy {
        self.lay.policy
    }

    /// Simulated time charged to this region so far.
    #[must_use]
    pub fn elapsed(&self) -> Nanos {
        self.mem.elapsed()
    }

    /// Cached word read.
    pub fn read_word(&mut self, addr: u64) -> u64 {
        self.mem.read_u64(addr)
    }

    /// Cached word store (volatile until flushed, evicted, or saved).
    pub fn write_word(&mut self, addr: u64, value: u64) {
        self.mem.write_u64(addr, value)
    }

    /// Flushes the cache line containing `addr`.
    pub fn flush_line(&mut self, addr: u64) {
        self.mem.clflush_range(addr & !(LF_LINE - 1), LF_LINE);
    }

    /// Store fence.
    pub fn fence(&mut self) {
        self.mem.sfence();
    }

    /// Single-word compare-and-swap. Returns `Err(current)` on
    /// mismatch. Charged as a read plus (on success) a store, which is
    /// the simulator's closest model of a `lock cmpxchg`.
    pub fn cas_word(&mut self, addr: u64, expected: u64, new: u64) -> Result<(), u64> {
        let cur = self.mem.read_u64(addr);
        if cur == expected {
            self.mem.write_u64(addr, new);
            Ok(())
        } else {
            Err(cur)
        }
    }

    /// Word as it would read from the durable media right now —
    /// recovery-eye view, bypassing cache and overlay.
    #[must_use]
    pub fn durable_word(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.mem.durable_bytes()[a..a + 8].try_into().unwrap())
    }

    /// Takes a crash image under the region's flush policy, leaving
    /// the live region untouched. Flush-on-commit drops the volatile
    /// state, so its image is read without cloning the memory;
    /// flush-on-fail runs the save on a clone.
    #[must_use]
    pub fn crash_image(&self) -> Vec<u8> {
        match self.lay.policy {
            FlushPolicy::FlushOnCommit => self.mem.image(),
            FlushPolicy::FlushOnFail => self.mem.clone().crash(true),
        }
    }

    /// Writes a word durably (store + line flush), for structure
    /// seeding outside the measured window. The time spent is rebated
    /// so preloads do not pollute throughput comparisons.
    pub fn preload_word(&mut self, addr: u64, value: u64) {
        let before = self.mem.elapsed();
        self.mem.write_u64(addr, value);
        self.mem.clflush_range(addr & !(LF_LINE - 1), LF_LINE);
        let spent = self.mem.elapsed().saturating_sub(before);
        self.mem.rebate(spent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_zones_do_not_overlap() {
        let lay = LfLayout::new(4, 64, 8, FlushPolicy::FlushOnCommit);
        let mut edges = vec![(0u64, 0x20u64), (HEAD_ADDR, HEAD_ADDR + 8)];
        for t in 0..4u8 {
            edges.push((lay.desc_addr(t), lay.desc_addr(t) + 56));
            edges.push((lay.help_addr(t), lay.help_addr(t) + 8));
        }
        edges.push((lay.slot_addr(0), lay.slot_addr(63) + 8));
        for t in 0..=4usize {
            edges.push((lay.arena_base(t), lay.arena_base(t) + lay.arena_bytes()));
        }
        edges.sort_unstable();
        for w in edges.windows(2) {
            assert!(w[0].1 <= w[1].0, "zones overlap: {:?} vs {:?}", w[0], w[1]);
        }
        assert!(edges.last().unwrap().1 <= lay.capacity().as_u64());
    }

    #[test]
    fn header_round_trips_through_crash() {
        let lay = LfLayout::new(2, 16, 4, FlushPolicy::FlushOnFail);
        let r = LfRegion::create(lay);
        let again = LfRegion::from_image(r.crash_image(), lay);
        assert_eq!(again.durable_word(0x00), LF_MAGIC);
    }

    #[test]
    #[should_panic(expected = "flush policy mismatch")]
    fn policy_mismatch_is_rejected() {
        let lay = LfLayout::new(2, 16, 4, FlushPolicy::FlushOnCommit);
        let r = LfRegion::create(lay);
        let img = r.crash_image();
        let _ = LfRegion::from_image(img, LfLayout::new(2, 16, 4, FlushPolicy::FlushOnFail));
    }
}
