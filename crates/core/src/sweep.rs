//! The one deterministic sharded runner behind every crash sweep and
//! the sharded KV engine.
//!
//! A sweep is "enumerate points + check one point". [`run`] does the
//! rest: it deals the points round-robin to scoped workers, runs each
//! point wholly on one worker under its own [`obs::capture`], and
//! returns the results and the merged capture in point order. Each
//! point's events and metrics are recorded on the thread that ran it,
//! so merging in point order makes the result independent of the
//! worker count — the serial path (`threads == 1`) and any sharded run
//! are bitwise identical. The tests below prove that once, for every
//! sweep.
//!
//! What stays with each sweep is its per-point PRNG derivation: every
//! sweep splits its streams serially from the seed before calling
//! [`run`], in its own recorded order, so no stream depends on which
//! worker runs a point.

use std::fmt::Debug;
use std::num::NonZeroUsize;

use wsp_obs::{self as obs, Capture, Ctr};
use wsp_units::Nanos;

/// The environment variable holding the worker count.
const THREADS_VAR: &str = "WSP_FAULTSIM_THREADS";

/// Worker count for sweeps and sharded KV runs: `WSP_FAULTSIM_THREADS`
/// when set (`1` forces the serial path, `0` means `1`), otherwise the
/// host's available parallelism. Any value yields bitwise-identical
/// results.
///
/// # Panics
///
/// Panics, naming the variable, when `WSP_FAULTSIM_THREADS` is set but
/// is not an unsigned integer — a typo must not silently run serial.
#[must_use]
pub fn threads() -> usize {
    threads_from(std::env::var(THREADS_VAR).ok().as_deref())
}

/// [`threads`] for an explicit variable value (`None` when unset).
fn threads_from(value: Option<&str>) -> usize {
    match value {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("{THREADS_VAR} must be an unsigned integer, got {v:?}"))
            .max(1),
        None => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// Runs `check` on every point, each under its own [`obs::capture`],
/// dealt round-robin over `threads` scoped workers, and returns the
/// results and the captures merged, both in point order.
///
/// # Panics
///
/// A panicking point (an invariant violation) propagates to the caller
/// with its original payload, at any worker count.
pub fn run<P, R, F>(points: Vec<P>, threads: usize, check: F) -> (Vec<R>, Capture)
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let total = points.len();
    let threads = threads.clamp(1, total.max(1));
    let one = |point| obs::capture(|| check(point));
    let captured: Vec<(R, Capture)> = if threads == 1 {
        points.into_iter().map(one).collect()
    } else {
        let mut queues: Vec<Vec<(usize, P)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, point) in points.into_iter().enumerate() {
            queues[i % threads].push((i, point));
        }
        let mut slots: Vec<Option<(R, Capture)>> = (0..total).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = queues
                .into_iter()
                .map(|queue| {
                    let one = &one;
                    s.spawn(move || {
                        queue
                            .into_iter()
                            .map(|(i, point)| (i, one(point)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                let results = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, r) in results {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every point produces a result"))
            .collect()
    };
    let mut merged = Capture::default();
    let results = captured
        .into_iter()
        .map(|(r, cap)| {
            merged.absorb(cap);
            r
        })
        .collect();
    (results, merged)
}

/// Records one injected fault: a `faultsim/inject` event carrying the
/// point's payload words and its `Debug` form, and one
/// [`Ctr::FaultsInjected`].
pub fn inject(a: i64, b: i64, point: &impl Debug) {
    obs::emit_detail(
        "faultsim",
        "inject",
        Nanos::ZERO,
        a,
        b,
        format!("{point:?}"),
    );
    obs::count(Ctr::FaultsInjected);
}

#[cfg(test)]
mod tests {
    use super::*;

    use wsp_machine::{Machine, SystemLoad};
    use wsp_obs::{DiffMode, MetricsSnapshot, Trace};
    use wsp_pheap::lockfree::FlushPolicy;
    use wsp_pheap::HeapConfig;

    use crate::faultsim::{
        sweep_cross_shard_2pc_threads, sweep_mid_epoch_threads, sweep_mid_transaction_threads,
        sweep_recovery_ladder_threads, sweep_save_path_threads,
    };
    use crate::lockfree_sweep::{sweep_lockfree_threads, LfStructure};
    use crate::storm::sweep_power_storm_threads;
    use crate::RestartStrategy;

    #[test]
    fn run_preserves_point_order() {
        for (n, threads) in [(0, 4), (37, 1), (37, 2), (37, 3), (37, 8), (37, 64)] {
            let (out, cap) = run((0..n).collect(), threads, |x: i64| {
                inject(x, 0, &x);
                x * x
            });
            assert_eq!(
                out,
                (0..n).map(|x| x * x).collect::<Vec<_>>(),
                "{threads} threads"
            );
            let order: Vec<i64> = cap.trace.events().iter().map(|e| e.a).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(
                cap.metrics.counter(Ctr::FaultsInjected),
                n as u64,
                "{threads} threads"
            );
        }
    }

    fn panic_at_point_17(threads: usize) {
        let _ = run((0..40u32).collect(), threads, |p| {
            assert_ne!(p, 17, "invariant violated at point {p}");
            p
        });
    }

    #[test]
    #[should_panic(expected = "invariant violated at point 17")]
    fn a_panicking_point_propagates_serial() {
        panic_at_point_17(1);
    }

    #[test]
    #[should_panic(expected = "invariant violated at point 17")]
    fn a_panicking_point_propagates_sharded() {
        panic_at_point_17(4);
    }

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
        assert!(threads_from(None) >= 1);
    }

    #[test]
    fn threads_parses_the_variable() {
        assert_eq!(threads_from(Some("1")), 1);
        assert_eq!(threads_from(Some(" 4 ")), 4);
        assert_eq!(threads_from(Some("0")), 1, "0 means serial");
    }

    #[test]
    #[should_panic(expected = "WSP_FAULTSIM_THREADS must be an unsigned integer, got \"four\"")]
    fn threads_rejects_a_non_number() {
        let _ = threads_from(Some("four"));
    }

    /// A sweep report split into what the identity table compares: the
    /// `Debug` of every field but the observability stream, the merged
    /// trace, and the merged metrics.
    struct Observed {
        outcomes: String,
        trace: Trace,
        metrics: MetricsSnapshot,
    }

    macro_rules! observed {
        ($report:expr) => {{
            let mut report = $report;
            let trace = std::mem::take(&mut report.trace);
            let metrics = std::mem::take(&mut report.metrics);
            Observed {
                outcomes: format!("{report:?}"),
                trace,
                metrics,
            }
        }};
    }

    type Row = (String, Box<dyn Fn(usize) -> Observed>);

    /// One row per (sweep, configuration, seed) under test: every
    /// sweep's default case plus the configurations and seeds its
    /// heavier variants are pinned at.
    fn rows() -> Vec<Row> {
        let mut rows: Vec<Row> = vec![
            (
                "save_path intel/busy seed 42".into(),
                Box::new(|t| {
                    observed!(sweep_save_path_threads(
                        Machine::intel_testbed,
                        SystemLoad::Busy,
                        RestartStrategy::RestorePathReinit,
                        42,
                        t,
                    ))
                }),
            ),
            (
                "recovery_ladder intel/busy seed 42".into(),
                Box::new(|t| {
                    observed!(sweep_recovery_ladder_threads(
                        Machine::intel_testbed,
                        SystemLoad::Busy,
                        42,
                        t,
                    ))
                }),
            ),
        ];
        for config in HeapConfig::all() {
            rows.push((
                format!("mid_transaction {config} seed 1234"),
                Box::new(move |t| observed!(sweep_mid_transaction_threads(config, 1234, t))),
            ));
        }
        for config in [HeapConfig::FocUndo, HeapConfig::FocStm] {
            rows.push((
                format!("mid_epoch {config} seed 4242"),
                Box::new(move |t| observed!(sweep_mid_epoch_threads(config, 4242, t))),
            ));
            rows.push((
                format!("cross_shard_2pc {config} seed 4242"),
                Box::new(move |t| observed!(sweep_cross_shard_2pc_threads(config, 4242, t))),
            ));
        }
        for seed in [4242, 7] {
            rows.push((
                format!("power_storm FocUndo seed {seed}"),
                Box::new(move |t| {
                    observed!(sweep_power_storm_threads(HeapConfig::FocUndo, seed, t))
                }),
            ));
        }
        for (structure, policy, seeds) in [
            (LfStructure::Stack, FlushPolicy::FlushOnCommit, &[42][..]),
            (
                LfStructure::Hash,
                FlushPolicy::FlushOnCommit,
                &[42, 7, 4242][..],
            ),
            (
                LfStructure::Stack,
                FlushPolicy::FlushOnFail,
                &[42, 7, 4242][..],
            ),
        ] {
            for &seed in seeds {
                rows.push((
                    format!(
                        "lockfree {}/{} seed {seed}",
                        structure.label(),
                        policy.label()
                    ),
                    Box::new(move |t| {
                        observed!(sweep_lockfree_threads(structure, policy, seed, t))
                    }),
                ));
            }
        }
        rows
    }

    /// The acceptance contract of the runner, proven once for every
    /// sweep: outcomes, merged trace and merged metrics are bitwise
    /// identical at any worker count.
    #[test]
    fn every_sweep_is_bitwise_identical_serial_vs_sharded() {
        for (name, sweep) in rows() {
            let serial = sweep(1);
            for threads in [3, 4] {
                let sharded = sweep(threads);
                assert_eq!(
                    sharded.outcomes, serial.outcomes,
                    "{name}: {threads}-thread outcomes"
                );
                if let Err(report) = obs::diff_traces(&serial.trace, &sharded.trace, DiffMode::Full)
                {
                    panic!("{name}: {threads}-thread trace diverges:\n{report}");
                }
                if let Some(diff) = serial.metrics.first_difference(&sharded.metrics) {
                    panic!("{name}: {threads}-thread metrics diverge: {diff}");
                }
            }
        }
    }
}
