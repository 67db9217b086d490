//! Trace storage and the thread-local recorder.
//!
//! Each OS thread owns one recorder. Sharded sweeps run every crash
//! point wholly on one worker thread, so wrapping a point in
//! [`capture`] yields that point's complete event stream; the sweep
//! then merges per-point captures in crash-point order, which makes the
//! merged trace independent of `WSP_FAULTSIM_THREADS`.

use std::cell::RefCell;
use std::collections::VecDeque;

use wsp_units::Nanos;

use crate::event::Event;
use crate::metrics::{Ctr, Gauge, Hist, MetricsSnapshot};

/// Default ring-buffer capacity: large enough for any single scenario
/// in the test suite, small enough to bound memory in long soaks.
pub const DEFAULT_RING_CAP: usize = 65_536;

/// A bounded, ordered stream of [`Event`]s.
///
/// When the ring capacity is exceeded the *oldest* events are dropped
/// (the tail of a save/crash scenario is the interesting part) and
/// [`Trace::dropped`] counts them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<Event>,
    dropped: u64,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// The recorded events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped by the ring buffer (0 in every healthy scenario).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends `other` to `self`, renumbering `seq` so the merged
    /// stream stays gapless. Timestamps are left untouched — they are
    /// local to each emitting routine's clock.
    pub fn append(&mut self, other: Trace) {
        self.dropped += other.dropped;
        for mut e in other.events {
            e.seq = self.events.len() as u64;
            self.events.push(e);
        }
    }

    /// Builds a trace directly from events, renumbering `seq`.
    #[must_use]
    pub fn from_events(events: Vec<Event>) -> Self {
        let mut t = Trace::new();
        for mut e in events {
            e.seq = t.events.len() as u64;
            t.events.push(e);
        }
        t
    }
}

/// Everything one [`capture`] observed: the event stream plus the
/// metrics accumulated while the closure ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Capture {
    /// The ordered event stream.
    pub trace: Trace,
    /// Counters, gauges and histograms recorded during the capture.
    pub metrics: MetricsSnapshot,
}

impl Capture {
    /// Merges another capture into this one (events append in call
    /// order, metrics merge slot-wise).
    pub fn absorb(&mut self, other: Capture) {
        self.trace.append(other.trace);
        self.metrics.merge(&other.metrics);
    }
}

struct State {
    enabled: bool,
    next_seq: u64,
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
    metrics: MetricsSnapshot,
}

impl State {
    fn fresh() -> Self {
        State {
            enabled: true,
            next_seq: 0,
            cap: DEFAULT_RING_CAP,
            events: VecDeque::new(),
            dropped: 0,
            metrics: MetricsSnapshot::empty(),
        }
    }

    fn drain(&mut self) -> Capture {
        let trace = Trace::from_events(self.events.drain(..).collect());
        let mut trace = trace;
        trace.dropped = self.dropped;
        let metrics = std::mem::take(&mut self.metrics);
        self.dropped = 0;
        self.next_seq = 0;
        Capture { trace, metrics }
    }
}

thread_local! {
    static RECORDER: RefCell<State> = RefCell::new(State::fresh());
}

/// Emits one structured event into this thread's recorder.
///
/// `t` is a simulation timestamp local to the emitting routine's clock;
/// `a`/`b` are event-specific integer payloads.
pub fn emit(subsystem: &'static str, name: &'static str, t: Nanos, a: i64, b: i64) {
    emit_detail(subsystem, name, t, a, b, String::new());
}

/// Like [`emit`], with a deterministic human-readable detail string.
pub fn emit_detail(
    subsystem: &'static str,
    name: &'static str,
    t: Nanos,
    a: i64,
    b: i64,
    detail: String,
) {
    RECORDER.with(|r| {
        let mut s = r.borrow_mut();
        if !s.enabled {
            return;
        }
        if s.events.len() >= s.cap {
            s.events.pop_front();
            s.dropped += 1;
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.events.push_back(Event {
            seq,
            t,
            subsystem,
            name,
            a,
            b,
            detail,
        });
    });
}

/// Increments a counter by one. Allocation-free.
#[inline]
pub fn count(id: Ctr) {
    count_by(id, 1);
}

/// Increments a counter by `n`. Allocation-free.
#[inline]
pub fn count_by(id: Ctr, n: u64) {
    RECORDER.with(|r| {
        let mut s = r.borrow_mut();
        if s.enabled {
            s.metrics.counters[id.index()] += n;
        }
    });
}

/// Sets a gauge to `v`. Allocation-free.
#[inline]
pub fn gauge_set(id: Gauge, v: i64) {
    RECORDER.with(|r| {
        let mut s = r.borrow_mut();
        if s.enabled {
            s.metrics.gauges[id.index()] = v;
        }
    });
}

/// Records one latency sample. Allocation-free.
#[inline]
pub fn observe(id: Hist, value: Nanos) {
    RECORDER.with(|r| {
        let mut s = r.borrow_mut();
        if s.enabled {
            s.metrics.record(id, value);
        }
    });
}

/// Enables or disables this thread's recorder (enabled by default).
/// While disabled, every emit/count/observe is a cheap no-op.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Whether this thread's recorder is currently enabled.
#[must_use]
pub fn is_enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Runs `f` against a fresh recorder and returns its result together
/// with everything it emitted.
///
/// The ambient recorder state is swapped out for the duration and
/// restored afterwards, so captures nest cleanly: an inner capture's
/// events do **not** leak into the outer one.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Capture) {
    let saved = RECORDER.with(|r| std::mem::replace(&mut *r.borrow_mut(), State::fresh()));
    let out = f();
    let cap = RECORDER.with(|r| {
        let mut inner = std::mem::replace(&mut *r.borrow_mut(), saved);
        inner.drain()
    });
    (out, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_events_and_metrics() {
        let ((), cap) = capture(|| {
            emit("t", "one", Nanos::new(10), 1, 0);
            count(Ctr::TxCommits);
            observe(Hist::TxCommit, Nanos::new(50));
            emit("t", "two", Nanos::new(20), 2, 0);
        });
        assert_eq!(cap.trace.len(), 2);
        assert_eq!(cap.trace.events()[0].name, "one");
        assert_eq!(cap.trace.events()[1].seq, 1);
        assert_eq!(cap.metrics.counter(Ctr::TxCommits), 1);
        assert_eq!(cap.metrics.hist(Hist::TxCommit).count(), 1);
    }

    #[test]
    fn captures_nest_without_leaking() {
        let ((), outer) = capture(|| {
            emit("t", "outer", Nanos::new(1), 0, 0);
            let ((), inner) = capture(|| emit("t", "inner", Nanos::new(2), 0, 0));
            assert_eq!(inner.trace.len(), 1);
            assert_eq!(inner.trace.events()[0].name, "inner");
            emit("t", "outer2", Nanos::new(3), 0, 0);
        });
        let names: Vec<_> = outer.trace.events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["outer", "outer2"]);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let ((), cap) = capture(|| {
            set_enabled(false);
            emit("t", "hidden", Nanos::new(1), 0, 0);
            count(Ctr::TxCommits);
            set_enabled(true);
        });
        assert!(cap.trace.is_empty());
        assert!(cap.metrics.is_empty());
    }

    #[test]
    fn append_renumbers_seq() {
        let ((), a) = capture(|| emit("t", "a", Nanos::new(1), 0, 0));
        let ((), b) = capture(|| emit("t", "b", Nanos::new(2), 0, 0));
        let mut merged = a.trace;
        merged.append(b.trace);
        assert_eq!(merged.events()[1].seq, 1);
        assert_eq!(merged.events()[1].name, "b");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ((), cap) = capture(|| {
            RECORDER.with(|r| r.borrow_mut().cap = 4);
            for i in 0..6 {
                emit("t", "e", Nanos::new(i), i as i64, 0);
            }
        });
        assert_eq!(cap.trace.len(), 4);
        assert_eq!(cap.trace.dropped(), 2);
        assert_eq!(cap.trace.events()[0].a, 2, "oldest dropped first");
    }
}
