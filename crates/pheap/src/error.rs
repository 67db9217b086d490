//! Error type for persistent-heap operations.

use std::error::Error;
use std::fmt;

/// Errors returned by heap and transaction operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HeapError {
    /// The heap region has no free block large enough.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
    },
    /// STM commit-time validation failed: another transaction wrote a
    /// location this one read.
    Conflict,
    /// A pointer did not reference a live allocation or lay outside the
    /// heap area.
    InvalidPointer {
        /// The offending region offset.
        offset: u64,
    },
    /// The crash image cannot be recovered locally (e.g. a flush-on-fail
    /// heap crashed without a completed save); the caller must refresh
    /// from the storage back end.
    Unrecoverable {
        /// Why local recovery is impossible.
        reason: &'static str,
    },
    /// The region header is corrupt (bad magic or invalid offsets).
    CorruptHeader,
    /// The operation requires an open transaction, or the transaction is
    /// already finished.
    NoTransaction,
    /// The log cannot hold the operation's records beside the room a
    /// truncation needs to copy the in-doubt prepared transactions, and
    /// truncation could not reclaim enough space (those transactions
    /// must keep their records until the coordinator decides). The
    /// caller should abort or retry once the in-doubt transactions
    /// resolve.
    LogFull {
        /// Log words the operation needs, the copies' room included.
        needed_words: u64,
        /// Log words actually free.
        free_words: u64,
    },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "no free block of {requested} bytes in the heap region")
            }
            HeapError::Conflict => write!(f, "transaction conflict detected at commit"),
            HeapError::InvalidPointer { offset } => {
                write!(f, "pointer {offset:#x} does not reference the heap area")
            }
            HeapError::Unrecoverable { reason } => {
                write!(f, "crash image is not locally recoverable: {reason}")
            }
            HeapError::CorruptHeader => write!(f, "region header is corrupt"),
            HeapError::NoTransaction => write!(f, "no open transaction"),
            HeapError::LogFull {
                needed_words,
                free_words,
            } => write!(
                f,
                "log cannot hold {needed_words} words ({free_words} free, \
                 in-doubt records pinned)"
            ),
        }
    }
}

impl Error for HeapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_concise() {
        let errors = [
            HeapError::OutOfMemory { requested: 64 },
            HeapError::Conflict,
            HeapError::InvalidPointer { offset: 0x40 },
            HeapError::Unrecoverable {
                reason: "no valid save",
            },
            HeapError::CorruptHeader,
            HeapError::NoTransaction,
            HeapError::LogFull {
                needed_words: 402,
                free_words: 222,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            assert!(!e.to_string().ends_with('.'));
        }
    }

    #[test]
    fn implements_error_trait() {
        let e: Box<dyn Error> = Box::new(HeapError::Conflict);
        assert!(e.to_string().contains("conflict"));
    }
}
