//! Experiment drivers regenerating every table and figure of the WSP
//! paper's evaluation, as structured data. The `repro` binary prints
//! them; the `bench` binary gates the recorded `BENCH_PR*.json`
//! baselines; `EXPERIMENTS.md` records paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::*;
