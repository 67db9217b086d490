//! One power failure shared by every device that persists state.
//!
//! A [`PowerCut`] counts the **durable events** of every device armed
//! with it — the persistent memories under the heaps and the 2PC
//! decision log, and the NVDIMM pool's save commands — together, in
//! program order, and fails power just before a chosen one. A device
//! holds its cut in an [`ArmedCut`], which is where the rule that a
//! clone starts unarmed lives: probes run on clones never spend the cut.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One power failure shared by every device armed with it: it counts
/// their durable events together, in program order, and fails power
/// just before the `(n + 1)`-th. The device that reaches that event
/// loses it; every other armed device stops before the next thing that
/// lands on it, so the whole fleet stops at one instant.
///
/// # Examples
///
/// ```
/// use wsp_power::PowerCut;
///
/// let cut = PowerCut::after(1);
/// assert!(cut.land()); // event 0 lands
/// assert!(!cut.land()); // event 1: power fails first
/// assert!(!cut.land()); // and stays failed
/// assert_eq!(cut.events(), 3);
/// assert!(cut.struck());
/// ```
#[derive(Debug)]
pub struct PowerCut {
    events: AtomicU64,
    /// The event power fails just before.
    fail_at: u64,
}

impl PowerCut {
    /// A cut failing power just before the `(n + 1)`-th durable event
    /// its devices perform once armed.
    #[must_use]
    pub fn after(n: u64) -> Arc<Self> {
        Arc::new(PowerCut {
            events: AtomicU64::new(0),
            fail_at: n,
        })
    }

    /// A cut that never fails power and only counts.
    #[must_use]
    pub fn never() -> Arc<Self> {
        Self::after(u64::MAX)
    }

    /// Durable events the armed devices have performed so far,
    /// including any after the failure.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Counts one durable event and returns whether it lands: `false`
    /// for the event power fails before and for every one after it.
    /// Armed devices call it themselves — a persistent memory for each
    /// drained store and written-back line, the NVDIMM pool for each
    /// save command — so callers arm, never land.
    pub fn land(&self) -> bool {
        self.events.fetch_add(1, Ordering::Relaxed);
        !self.struck()
    }

    /// True once power has failed.
    #[must_use]
    pub fn struck(&self) -> bool {
        self.events() > self.fail_at
    }
}

/// The cut a device is armed with, if any. A clone is never armed:
/// probes run on clones must not spend the cut.
#[derive(Debug, Default)]
pub struct ArmedCut(Option<Arc<PowerCut>>);

impl Clone for ArmedCut {
    fn clone(&self) -> Self {
        ArmedCut(None)
    }
}

impl ArmedCut {
    /// Arms `cut`, replacing any earlier one.
    pub fn arm(&mut self, cut: &Arc<PowerCut>) {
        self.0 = Some(Arc::clone(cut));
    }

    /// The armed cut.
    #[must_use]
    pub fn cut(&self) -> Option<&PowerCut> {
        self.0.as_deref()
    }

    /// Counts one durable event on the armed cut and returns whether it
    /// lands; an unarmed device's events always land.
    pub fn land(&self) -> bool {
        self.0.as_ref().is_none_or(|cut| cut.land())
    }

    /// True once the armed cut has struck.
    #[must_use]
    pub fn struck(&self) -> bool {
        self.0.as_ref().is_some_and(|cut| cut.struck())
    }
}

