//! # wsp-det — hermetic deterministic-simulation substrate
//!
//! Everything randomized in the WSP reproduction flows through this
//! crate: a seeded, splittable PRNG ([`DetRng`], xoshiro256++ seeded by
//! SplitMix64) behind a [`Rng`] trait mirroring the `rand` API surface
//! the workspace uses, and a minimal shrinking property-test harness
//! ([`forall()`]/[`Forall`]) replacing `proptest`. Zero dependencies, so
//! `cargo build`/`cargo test` never touch a registry — the build is
//! fully offline and every stream is bit-reproducible across platforms.
//!
//! # Randomness
//!
//! ```
//! use wsp_det::{DetRng, Rng};
//!
//! let mut rng = DetRng::seed_from_u64(42);
//! let lane = rng.gen_range(0..8u32);
//! let p = rng.gen_bool(0.5);
//! let worker_rng = rng.split(); // independent stream for a subtask
//! # let _ = (lane, p, worker_rng);
//! ```
//!
//! # Property tests
//!
//! ```
//! use wsp_det::{forall, gen};
//!
//! forall(gen::vec_of(gen::any::<u8>(), 0..16usize), |v| {
//!     let mut sorted = v.clone();
//!     sorted.sort_unstable();
//!     assert_eq!(sorted.len(), v.len());
//! });
//! ```
//!
//! Failures shrink to a minimal counterexample and report the seed and
//! choice stream; `WSP_DET_SEED` / `WSP_DET_CASES` override the base
//! seed and case count process-wide. See the [`forall`](mod@forall) module docs for the
//! full reproducibility contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forall;
pub mod gen;
pub mod rng;
pub mod source;

pub use forall::{forall, Forall, DEFAULT_CASES, DEFAULT_SEED};
pub use gen::Gen;
pub use rng::{DetRng, Rng, RngCore, Sample, SampleRange, SplitMix64};
pub use source::Source;
