//! The storage back end (paper §3.1): NVRAM is the *first* resort after
//! a crash, the back end the last. Applications checkpoint their heap
//! periodically; when local recovery is impossible (a flush-on-fail save
//! that missed the window), the node restores the latest checkpoint and
//! reports how stale it is. The ladder that decides between them is
//! `wsp_core::run_recovery_ladder`; [`BackendStore::restore`] is its
//! bottom rung.

use wsp_cache::CpuProfile;
use wsp_units::{Bandwidth, ByteSize, Nanos};

use crate::{CrashImage, HeapError, PersistentHeap};

/// A finite-bandwidth storage back end holding heap checkpoints.
#[derive(Debug, Clone)]
pub struct BackendStore {
    read_bandwidth: Bandwidth,
    write_bandwidth: Bandwidth,
    checkpoint: Option<Checkpoint>,
}

#[derive(Debug, Clone)]
struct Checkpoint {
    /// Transaction high-water mark at checkpoint time (staleness metric).
    seq: u64,
    bytes: Vec<u8>,
    profile: CpuProfile,
}

impl BackendStore {
    /// Creates an empty back end.
    #[must_use]
    pub fn new(read_bandwidth: Bandwidth, write_bandwidth: Bandwidth) -> Self {
        BackendStore {
            read_bandwidth,
            write_bandwidth,
            checkpoint: None,
        }
    }

    /// A disk-array-like back end: 500 MiB/s reads, 300 MiB/s writes.
    #[must_use]
    pub fn disk_array() -> Self {
        Self::new(
            Bandwidth::mib_per_sec(500.0),
            Bandwidth::mib_per_sec(300.0),
        )
    }

    /// The stored checkpoint's transaction high-water mark.
    #[must_use]
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.checkpoint.as_ref().map(|c| c.seq)
    }

    /// Takes a consistent checkpoint of `heap` (quiesce + snapshot + a
    /// bandwidth-limited stream to the back end), replacing any earlier
    /// one. Returns the simulated checkpoint duration.
    pub fn checkpoint(&mut self, heap: &PersistentHeap) -> Nanos {
        let image = heap.checkpoint_image();
        let size = ByteSize::new(image.bytes().len() as u64);
        let duration = self.write_bandwidth.transfer_time(size);
        self.checkpoint = Some(Checkpoint {
            seq: heap.txid_high_water(),
            bytes: image.bytes().to_vec(),
            profile: image.profile().clone(),
        });
        duration
    }

    /// Rebuilds the heap from the stored checkpoint — the bottom rung of
    /// the recovery ladder, taken when the node holds no usable NVRAM
    /// image (torn save, failed save command, nothing armed). Returns
    /// the heap, the checkpoint's transaction high-water mark (commits
    /// after it were lost and must replay from upstream) and the
    /// simulated duration: the bandwidth-limited stream plus the heap's
    /// own recovery.
    ///
    /// # Errors
    ///
    /// [`HeapError::Unrecoverable`] when no checkpoint exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use wsp_pheap::{BackendStore, HeapConfig, PersistentHeap};
    /// use wsp_units::ByteSize;
    ///
    /// let mut backend = BackendStore::disk_array();
    /// let heap = PersistentHeap::create(ByteSize::kib(128), HeapConfig::Fof);
    /// backend.checkpoint(&heap);
    ///
    /// // The flush-on-fail save misses the window: local recovery
    /// // refuses, the back end restores the checkpoint.
    /// assert!(PersistentHeap::recover(heap.crash(false)).is_err());
    /// let (_heap, seq, _took) = backend.restore().unwrap();
    /// assert_eq!(Some(seq), backend.checkpoint_seq());
    /// ```
    pub fn restore(&self) -> Result<(PersistentHeap, u64, Nanos), HeapError> {
        let ckpt = self.checkpoint.as_ref().ok_or(HeapError::Unrecoverable {
            reason: "no local image and no back-end checkpoint",
        })?;
        let size = ByteSize::new(ckpt.bytes.len() as u64);
        let stream = self.read_bandwidth.transfer_time(size);
        let restored = CrashImage::new(ckpt.bytes.clone(), true, ckpt.profile.clone());
        let heap = PersistentHeap::recover(restored)?;
        let took = stream + heap.elapsed();
        Ok((heap, ckpt.seq, took))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeapConfig;

    fn put(heap: &mut PersistentHeap, value: u64) {
        let mut tx = heap.begin();
        let p = tx.alloc(16).unwrap();
        tx.write_word(p, value).unwrap();
        tx.set_root(p).unwrap();
        tx.commit().unwrap();
    }

    fn root_value(heap: &mut PersistentHeap) -> u64 {
        let root = heap.root().unwrap();
        let mut tx = heap.begin();
        let v = tx.read_word(root).unwrap();
        tx.commit().unwrap();
        v
    }

    #[test]
    fn checkpoint_fallback_loses_only_the_delta() {
        let mut backend = BackendStore::disk_array();
        let mut heap = PersistentHeap::create(ByteSize::kib(128), HeapConfig::Fof);
        put(&mut heap, 1);
        let _took = backend.checkpoint(&heap);
        let seq = backend.checkpoint_seq().unwrap();
        put(&mut heap, 2); // will be lost
        let (mut recovered, restored_seq, took) = backend.restore().unwrap();
        assert_eq!(restored_seq, seq);
        assert_eq!(root_value(&mut recovered), 1, "checkpoint state");
        assert!(took > Nanos::ZERO);
    }

    #[test]
    fn no_checkpoint_means_truly_unrecoverable() {
        let backend = BackendStore::disk_array();
        assert!(matches!(
            backend.restore(),
            Err(HeapError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn checkpoint_duration_scales_with_size() {
        let mut backend = BackendStore::disk_array();
        let small = PersistentHeap::create(ByteSize::kib(128), HeapConfig::Fof);
        let big = PersistentHeap::create(ByteSize::mib(4), HeapConfig::Fof);
        let t_small = backend.checkpoint(&small);
        let t_big = backend.checkpoint(&big);
        assert!(t_big > t_small * 20);
    }
}
