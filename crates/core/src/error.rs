//! Error type for the WSP runtime.

use std::error::Error;
use std::fmt;

use wsp_nvram::NvramError;
use wsp_pheap::HeapError;
use wsp_power::MonitorError;
use wsp_units::Nanos;

/// Errors from the save/restore protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WspError {
    /// Local NVRAM recovery is impossible; the node must refresh its
    /// state from the storage back end (the paper's fallback path).
    BackendRecoveryRequired {
        /// Why local recovery failed.
        reason: String,
    },
    /// An NVDIMM declined a protocol step.
    Nvram(NvramError),
    /// The save wrote only the priority stage (register contexts, heap
    /// log and metadata): a full WSP resume is impossible, but the heap
    /// is recoverable by log replay/rollback — the second rung of the
    /// recovery ladder.
    PartialImage,
    /// A saved image is torn, stale or foreign: a module's flash image
    /// whose valid marker survived fails the per-DIMM checksum or the
    /// pool's generation-coherence check, or a 2PC coordinator image is
    /// shorter than the pool's region or decides a gtxid no pool
    /// issues. Never silently resumed.
    TornImage {
        /// Which integrity check failed and how.
        detail: String,
    },
    /// The persistent heap refused recovery.
    Heap(HeapError),
    /// The power monitor rejected its `PWR_OK` trace.
    Monitor(MonitorError),
    /// A detectable lock-free operation could not be classified after
    /// a crash: the durable descriptor is torn or names an operation
    /// recovery cannot resolve. The structure must not be served until
    /// the affected thread's state is repaired from a higher rung.
    Detectability(wsp_pheap::lockfree::DetectFailure),
    /// The residual-energy window ran out before a save step could run
    /// (or retry): the supervisor refuses the step instead of spinning
    /// the simulated clock past the power it does not have. Under a
    /// shared power domain this is also the triage verdict for a
    /// sacrificed shard — the global window could not cover it.
    WindowExhausted {
        /// Window time the refused step still needed.
        needed: Nanos,
        /// Window time that remained when it was refused.
        window: Nanos,
    },
}

impl WspError {
    /// Stable kind label, used as the `detail` of typed refusal trace
    /// events so tests can assert exactly one event per error variant.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            WspError::BackendRecoveryRequired { .. } => "backend-recovery-required",
            WspError::Nvram(_) => "nvram",
            WspError::PartialImage => "partial-image",
            WspError::TornImage { .. } => "torn-image",
            WspError::Heap(_) => "heap",
            WspError::Monitor(_) => "monitor",
            WspError::Detectability(_) => "detectability",
            WspError::WindowExhausted { .. } => "window-exhausted",
        }
    }
}

impl fmt::Display for WspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WspError::BackendRecoveryRequired { reason } => {
                write!(f, "back-end recovery required: {reason}")
            }
            WspError::Nvram(e) => write!(f, "nvram protocol error: {e}"),
            WspError::PartialImage => {
                write!(f, "partial save image: priority stage only, resume impossible")
            }
            WspError::TornImage { detail } => write!(f, "torn save image: {detail}"),
            WspError::Heap(e) => write!(f, "persistent heap error: {e}"),
            WspError::Monitor(e) => write!(f, "power monitor error: {e}"),
            WspError::Detectability(e) => write!(f, "detectability failure: {e}"),
            WspError::WindowExhausted { needed, window } => write!(
                f,
                "residual window exhausted: {needed} still needed, {window} left"
            ),
        }
    }
}

impl Error for WspError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WspError::Nvram(e) => Some(e),
            WspError::Heap(e) => Some(e),
            WspError::Monitor(e) => Some(e),
            WspError::Detectability(e) => Some(e),
            WspError::BackendRecoveryRequired { .. }
            | WspError::PartialImage
            | WspError::TornImage { .. }
            | WspError::WindowExhausted { .. } => None,
        }
    }
}

impl From<NvramError> for WspError {
    fn from(e: NvramError) -> Self {
        WspError::Nvram(e)
    }
}

impl From<HeapError> for WspError {
    fn from(e: HeapError) -> Self {
        WspError::Heap(e)
    }
}

impl From<MonitorError> for WspError {
    fn from(e: MonitorError) -> Self {
        WspError::Monitor(e)
    }
}

impl From<wsp_pheap::lockfree::DetectFailure> for WspError {
    fn from(e: wsp_pheap::lockfree::DetectFailure) -> Self {
        WspError::Detectability(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let variants = [
            WspError::BackendRecoveryRequired { reason: String::new() },
            WspError::Nvram(NvramError::NoValidImage),
            WspError::PartialImage,
            WspError::TornImage { detail: String::new() },
            WspError::Heap(HeapError::CorruptHeader),
            WspError::Monitor(MonitorError::NonMonotonicTrace { index: 0 }),
            WspError::Detectability(wsp_pheap::lockfree::DetectFailure::TornDescriptor {
                thread: 0,
                detail: String::new(),
            }),
            WspError::WindowExhausted {
                needed: Nanos::ZERO,
                window: Nanos::ZERO,
            },
        ];
        let kinds: Vec<_> = variants.iter().map(WspError::kind).collect();
        for (i, k) in kinds.iter().enumerate() {
            assert!(!k.is_empty());
            assert!(!kinds[i + 1..].contains(k), "duplicate kind {k}");
        }
    }

    #[test]
    fn displays_and_sources() {
        let e = WspError::BackendRecoveryRequired {
            reason: "no valid image".into(),
        };
        assert!(e.to_string().contains("back-end"));
        assert!(e.source().is_none());
        let n: WspError = NvramError::NoValidImage.into();
        assert!(n.source().is_some());
    }

    #[test]
    fn ladder_variants_display_and_source() {
        assert!(WspError::PartialImage.to_string().contains("priority stage"));
        let torn = WspError::TornImage {
            detail: "checksum mismatch on module 3".into(),
        };
        assert!(torn.to_string().contains("module 3"));
        assert!(torn.source().is_none());
        let h: WspError = HeapError::CorruptHeader.into();
        assert!(h.source().is_some());
        let m: WspError = MonitorError::NonMonotonicTrace { index: 2 }.into();
        assert!(m.source().is_some());
    }
}
