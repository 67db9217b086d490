//! Power-delivery models for the whole-system-persistence reproduction:
//! ATX power supplies and their residual energy windows, the power-fail
//! monitor, ultracapacitors (with cycle aging), supercapacitor
//! provisioning, and the [`PowerCut`] every persisting device is armed
//! with to fail at one instant.
//!
//! The feasibility of WSP's *flush-on-fail* rests on one inequality: the
//! time to save CPU contexts and flush caches must fit inside the
//! **residual energy window** — the time for which a PSU keeps its DC
//! output rails in regulation after signalling `PWR_OK` low. The paper
//! measures that window with an oscilloscope across four PSUs and two
//! load levels (Figures 6 and 7); this crate reproduces the measurement
//! with an effective-capacitance discharge model calibrated to those
//! observations.
//!
//! # Examples
//!
//! ```
//! use wsp_power::Psu;
//! use wsp_units::Watts;
//!
//! let psu = Psu::atx_1050w();
//! let window = psu.residual_window(Watts::new(350.0));
//! assert!(window.as_millis() >= 10); // tens of milliseconds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cut;
mod domain;
mod monitor;
mod provision;
mod psu;
mod scope;
mod ultracap;
mod ups;

pub use cut::{ArmedCut, PowerCut};
pub use domain::PowerDomain;
pub use monitor::{MonitorError, PowerFailEvent, PowerMonitor, PwrOkSample, PwrOkVerdict};
pub use provision::{ProvisionPlan, SupercapProvisioner};
pub use psu::{Psu, Rail};
pub use scope::{Oscilloscope, ScopeSample, ScopeTrace};
pub use ultracap::{AgingModel, EnergyCell, Ultracapacitor};
pub use ups::{compare_backup_technologies, BackupComparison, Ups};
