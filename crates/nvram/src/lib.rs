//! Battery-free NVDIMM device models: DRAM + NAND flash + ultracapacitor
//! in one module, after the AgigaRAM / ArxCis-NV parts the paper builds
//! on (§2, "Battery-free NVDIMMs").
//!
//! The contract these devices offer the host is small and sharp:
//!
//! 1. During normal operation the host reads and writes plain DRAM; the
//!    flash is invisible.
//! 2. When the host (or the power monitor, over I2C) signals **save**,
//!    the module copies DRAM→flash *on its own ultracapacitor power* —
//!    system power can disappear immediately afterwards.
//! 3. On the next power-up the host signals **restore** and the module
//!    copies flash→DRAM before the OS resumes.
//!
//! The save must therefore only be *initiated* within the PSU's residual
//! energy window; it completes off the critical path. This crate models
//! the DRAM array (sparsely, so multi-gigabyte modules are cheap to
//! simulate), the flash store with its bandwidth, the self-refresh
//! handshake the real AgigaRAM parts require, ultracap energy accounting
//! during saves, and interleaved multi-DIMM pools.
//!
//! # Examples
//!
//! ```
//! use wsp_nvram::NvDimm;
//! use wsp_units::ByteSize;
//!
//! let mut dimm = NvDimm::agiga(ByteSize::gib(1));
//! dimm.write(0x1000, b"survives the outage");
//! dimm.enter_self_refresh();
//! let outcome = dimm.save().expect("ultracap is charged");
//! assert!(outcome.completed);
//! dimm.power_loss();
//! dimm.power_on();
//! dimm.restore().expect("valid image");
//! let mut buf = [0u8; 19];
//! dimm.read(0x1000, &mut buf);
//! assert_eq!(&buf, b"survives the outage");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dimm;
mod envy;
mod error;
mod flash;
mod pool;
mod region;

pub use dimm::{DimmState, NvDimm, SaveOutcome, SaveTracePoint};
pub use envy::EnvyStore;
pub use error::NvramError;
pub use flash::{FlashHealth, FlashStore};
pub use pool::{NvramPool, PoolSaveReport};
pub use region::{Region, RegionMap};
