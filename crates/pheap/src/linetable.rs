//! The open-addressed `u64`-keyed table behind the heap's per-access
//! path: the dirty-line overlay of [`PersistentMemory`](crate::PersistentMemory)
//! and the FliT per-word table ([`FlitTable`](crate::flit::FlitTable))
//! are both an [`OpenTable`]. Every simulated load and store probes one
//! or both, so the table is built for that shape rather than generality:
//!
//! * keys are line indices or word addresses — already well distributed
//!   after one cheap 64-bit mix, no SipHash,
//! * values are stored inline in an array beside the keys — no
//!   per-entry boxing, no pointer chase on hit,
//! * deletion uses backward-shift compaction, so probe chains never
//!   accumulate tombstones across the millions of dirty/flush cycles a
//!   crash sweep performs.
//!
//! Capacity is a power of two; probing is linear. The table grows at
//! ~75% load and never shrinks (a memory's dirty-line population is
//! bounded by its cache geometry, and the FliT population by the heap's
//! distinct hot words).

use wsp_cache::LINE_SIZE;

/// One cache line's bytes.
pub(crate) type Payload = [u8; LINE_SIZE as usize];

/// The dirty-line overlay: line index → current line bytes.
pub(crate) type LineTable = OpenTable<Payload>;

/// A value an [`OpenTable`] can hold; [`Slot::VACANT`] fills the slots
/// no key occupies.
pub(crate) trait Slot: Copy {
    /// The value of an unoccupied slot (and of a fresh FliT entry).
    const VACANT: Self;
}

impl Slot for Payload {
    const VACANT: Self = [0; LINE_SIZE as usize];
}

/// Slot marker for "no entry". Keys are line indices or 8-byte aligned
/// word addresses, so the all-ones value can never be a real key.
const EMPTY: u64 = u64::MAX;

/// Initial slot count (power of two). Small enough that cloning a clean
/// table stays cheap — crash sweeps clone the whole heap per crash
/// point — while covering a typical transaction's write set without
/// growth.
const INITIAL_SLOTS: usize = 64;

/// Maximum load numerator: grow when `len * 4 > slots * 3`.
const LOAD_NUM: usize = 3;

/// SplitMix64 finalizer: the mix that turns sequential keys into
/// well-spread probe starts.
#[inline]
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An open-addressed map from `u64` keys to inline `V` values.
#[derive(Debug, Clone)]
pub(crate) struct OpenTable<V: Slot> {
    keys: Box<[u64]>,
    vals: Box<[V]>,
    len: usize,
}

impl<V: Slot> OpenTable<V> {
    pub(crate) fn new() -> Self {
        OpenTable {
            keys: vec![EMPTY; INITIAL_SLOTS].into_boxed_slice(),
            vals: vec![V::VACANT; INITIAL_SLOTS].into_boxed_slice(),
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY);
        let mask = self.mask();
        let mut i = mix(key) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.vals[i])
    }

    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// Inserts `key → val`, overwriting any existing entry.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: u64, val: V) {
        *self.get_mut_or_insert_with(key, || val) = val;
    }

    /// Returns the value for `key`, inserting `fill()` first if absent
    /// — the store path's materialise-and-update in a single probe.
    #[inline]
    pub(crate) fn get_mut_or_insert_with(&mut self, key: u64, fill: impl FnOnce() -> V) -> &mut V {
        debug_assert_ne!(key, EMPTY);
        if (self.len + 1) * 4 > self.keys.len() * LOAD_NUM {
            self.grow();
        }
        let mask = self.mask();
        let mut i = mix(key) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return &mut self.vals[i];
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = fill();
                self.len += 1;
                return &mut self.vals[i];
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key`, returning its value. Compacts the probe chain by
    /// backward shifting, so no tombstones are left behind.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let val = self.vals[hole];
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // `k`'s probe chain starts at `home`; it may fill the hole only
            // if the hole lies on that chain (cyclically in [home, j)).
            let home = mix(k) as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        Some(val)
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots].into_boxed_slice());
        let old_vals = std::mem::replace(
            &mut self.vals,
            vec![V::VACANT; new_slots].into_boxed_slice(),
        );
        let mask = self.mask();
        for (slot, &k) in old_keys.iter().enumerate() {
            if k == EMPTY {
                continue;
            }
            let mut i = mix(k) as usize & mask;
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = old_vals[slot];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u8) -> Payload {
        [tag; LINE_SIZE as usize]
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = LineTable::new();
        assert!(t.is_empty());
        t.insert(5, payload(1));
        t.insert(900, payload(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(5), Some(&payload(1)));
        assert_eq!(t.get(900), Some(&payload(2)));
        assert_eq!(t.get(6), None);
        assert_eq!(t.remove(5), Some(payload(1)));
        assert_eq!(t.remove(5), None);
        assert_eq!(t.len(), 1);
        assert!(t.contains(900));
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut t = LineTable::new();
        t.insert(7, payload(1));
        t.insert(7, payload(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7), Some(&payload(2)));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = LineTable::new();
        t.insert(3, payload(0));
        t.get_mut(3).unwrap()[0] = 0xab;
        assert_eq!(t.get(3).unwrap()[0], 0xab);
    }

    #[test]
    fn get_mut_or_insert_fills_absent_and_finds_present() {
        let mut t = LineTable::new();
        t.get_mut_or_insert_with(9, || payload(3))[1] = 0x55;
        assert_eq!(t.len(), 1);
        // Present: fill must not run.
        let v = t.get_mut_or_insert_with(9, || unreachable!());
        assert_eq!(v[1], 0x55);
        assert_eq!(v[0], 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = LineTable::new();
        for k in 0..10_000u64 {
            t.insert(k * 3 + 1, payload((k % 251) as u8));
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k * 3 + 1), Some(&payload((k % 251) as u8)));
        }
    }

    #[test]
    fn backward_shift_keeps_chains_reachable() {
        // Interleave inserts and removes far past the initial capacity so
        // probe chains wrap and shift repeatedly, then verify against a
        // std HashMap oracle.
        let mut t = LineTable::new();
        let mut oracle = std::collections::HashMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..50_000u64 {
            // xorshift64* driver
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let key = (x.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 4096;
            if step % 3 == 0 {
                assert_eq!(t.remove(key), oracle.remove(&key));
            } else {
                let v = payload((step % 255) as u8);
                t.insert(key, v);
                oracle.insert(key, v);
            }
            assert_eq!(t.len(), oracle.len());
        }
        for (&k, v) in &oracle {
            assert_eq!(t.get(k), Some(v));
        }
    }
}
