//! Deterministic observability for the WSP reproduction: structured
//! trace events, fixed-slot metrics and golden-trace diffing.
//!
//! The paper's evaluation is about *seeing* what the system does inside
//! an outage window — per-step save timings, residual-window margins,
//! flush progress. This crate is the substrate that makes that visible
//! **and assertable**: every subsystem on the save/restore path emits
//! flat [`Event`]s stamped with the simulation clock (never the host
//! clock), so a fixed `WSP_DET_SEED` yields a bitwise-identical trace
//! that tests pin with golden files.
//!
//! - [`event`] — the one flat record type every subsystem emits.
//! - [`trace`] — ring-buffer recorder (thread-local), [`capture`] and
//!   deterministic trace merging for sharded sweeps.
//! - [`metrics`] — allocation-free counters/gauges plus latency
//!   histograms reusing [`wsp_units::LatencyHistogram`].
//! - [`json`] — the general [`json::Json`] value, JSONL export and the
//!   strict schema parser/validator.
//! - [`diff`] — full/structural diffing with readable first-divergence
//!   reports.
//! - [`golden`] — golden-file checking with `WSP_UPDATE_GOLDEN=1`
//!   regeneration.
//!
//! # Example
//!
//! ```
//! use wsp_obs as obs;
//! use wsp_units::Nanos;
//!
//! let ((), cap) = obs::capture(|| {
//!     obs::emit("save", "step", Nanos::new(1_200), 3, 0);
//!     obs::count(obs::Ctr::SaveSteps);
//!     obs::observe(obs::Hist::SaveStep, Nanos::new(1_200));
//! });
//! assert_eq!(cap.trace.len(), 1);
//! assert_eq!(cap.metrics.counter(obs::Ctr::SaveSteps), 1);
//! let jsonl = obs::json::trace_to_jsonl(&cap.trace);
//! assert!(obs::json::parse_jsonl(&jsonl).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod event;
pub mod golden;
pub mod json;
pub mod metrics;
pub mod trace;

pub use diff::{diff_events, diff_golden, diff_traces, DiffMode};
pub use event::Event;
pub use golden::{check_golden, update_mode};
pub use json::{event_to_json, parse_event, parse_jsonl, trace_to_jsonl, ParsedEvent};
pub use metrics::{Ctr, Gauge, Hist, MetricsSnapshot};
pub use trace::{
    capture, count, count_by, emit, emit_detail, gauge_set, is_enabled, observe, set_enabled,
    span, Capture, Span, Trace, DEFAULT_RING_CAP,
};
