//! Error type for NVDIMM operations.

use std::error::Error;
use std::fmt;

use wsp_units::Nanos;

/// Errors returned by NVDIMM and pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NvramError {
    /// A save or restore was requested while the DRAM was not in
    /// self-refresh (the AgigaRAM parts require the handshake).
    NotInSelfRefresh,
    /// The operation is invalid in the module's current state.
    BadState {
        /// State the module was in.
        state: &'static str,
        /// Operation that was attempted.
        operation: &'static str,
    },
    /// The ultracapacitor ran out of usable energy before the save
    /// finished; the flash image is marked invalid.
    UltracapDepleted,
    /// A restore was requested but the flash holds no valid image.
    NoValidImage,
    /// An access fell outside the module's capacity.
    OutOfRange {
        /// First byte of the offending access.
        addr: u64,
        /// Length of the offending access.
        len: u64,
        /// Module capacity in bytes.
        capacity: u64,
    },
    /// The flash image's recorded checksum does not match its contents:
    /// a torn save slipped past the valid marker (silent corruption the
    /// per-DIMM checksums exist to catch).
    ChecksumMismatch {
        /// Checksum recorded when the image was stored.
        expected: u64,
        /// Checksum recomputed over the stored pages.
        actual: u64,
    },
    /// Modules in a pool carry images from different save generations —
    /// at least one module restored a stale image that must not be
    /// mixed with the newer ones.
    GenerationMismatch {
        /// Newest generation seen across the pool.
        newest: u64,
        /// The stale generation that conflicted with it.
        stale: u64,
    },
    /// The module's save command failed transiently (I2C relay dropped
    /// the command) and retries were exhausted.
    SaveCommandFailed {
        /// Attempts made, including the first.
        attempts: u32,
        /// Retries the save command spent across its modules.
        retries: u32,
        /// Simulated time those retries spent backing off.
        backoff: Nanos,
    },
    /// The exponential backoff of a retried save command would overrun
    /// the residual-energy window it must finish inside: the pool
    /// refuses with this typed error instead of spinning the simulated
    /// clock past power it does not have.
    RetryWindowExhausted {
        /// Attempts made before the refusal, including the first.
        attempts: u32,
        /// Backoff the next retry would have accumulated in total.
        needed: Nanos,
        /// The backoff budget the retries had to fit inside.
        budget: Nanos,
        /// Retries the save command spent before the refusal.
        retries: u32,
        /// Simulated time those retries spent backing off.
        backoff: Nanos,
    },
    /// Power failed before the save command landed (the cut armed on
    /// the pool has struck): no module was touched, so each stays
    /// active and its DRAM never reaches flash.
    PowerFailed,
}

impl fmt::Display for NvramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvramError::NotInSelfRefresh => {
                write!(f, "DRAM must be in self-refresh before save/restore")
            }
            NvramError::BadState { state, operation } => {
                write!(f, "cannot {operation} while module is {state}")
            }
            NvramError::UltracapDepleted => {
                write!(f, "ultracapacitor depleted before the save completed")
            }
            NvramError::NoValidImage => write!(f, "no valid image in flash"),
            NvramError::OutOfRange {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "access [{addr:#x}, {:#x}) exceeds capacity {capacity:#x}",
                addr + len
            ),
            NvramError::ChecksumMismatch { expected, actual } => write!(
                f,
                "image checksum mismatch: recorded {expected:#018x}, computed {actual:#018x}"
            ),
            NvramError::GenerationMismatch { newest, stale } => write!(
                f,
                "pool images span save generations {stale} and {newest}"
            ),
            NvramError::SaveCommandFailed { attempts, .. } => {
                write!(f, "save command failed after {attempts} attempts")
            }
            NvramError::RetryWindowExhausted {
                attempts,
                needed,
                budget,
                ..
            } => write!(
                f,
                "save retries exhausted the residual window after {attempts} attempts: \
                 {needed} of backoff against a {budget} budget"
            ),
            NvramError::PowerFailed => write!(f, "power failed before the save command"),
        }
    }
}

impl Error for NvramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let errors = [
            NvramError::NotInSelfRefresh,
            NvramError::UltracapDepleted,
            NvramError::NoValidImage,
            NvramError::PowerFailed,
            NvramError::OutOfRange {
                addr: 0x100,
                len: 8,
                capacity: 0x80,
            },
            NvramError::BadState {
                state: "Saving",
                operation: "write",
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(NvramError::NoValidImage);
        assert!(e.source().is_none());
    }
}
