//! The NVDIMM power domain: one PSU, plus an optional ultracapacitor
//! reserve, backing *every* shard's flush window.
//!
//! The paper treats each machine's residual-energy window as private and
//! sufficient: [`PowerDomain::private`] is that case, one machine's own
//! PSU and one consumer. Real NVDIMM deployments share a power domain
//! ([`PowerDomain::new`]), so a brown-out is a fight over one pool of
//! joules: the domain supervisor carves the **global** residual window
//! into staged flush budgets. Between outages a shared reserve recharges
//! with a harvesting-style partial top-up (`replenish`), the regime of
//! the energy-harvesting literature: dozens of micro-outages in
//! sequence, none of which leaves time for a full recharge.
//!
//! # Examples
//!
//! ```
//! use wsp_power::{PowerDomain, Psu, Ultracapacitor};
//! use wsp_units::{Farads, Nanos, Volts, Watts};
//!
//! let reserve = Ultracapacitor::new(Farads::new(2.0), Volts::new(12.0), Volts::new(6.0));
//! let shared = PowerDomain::new(Psu::atx_750w(), reserve, Watts::new(300.0), 3);
//! let private = PowerDomain::private(Psu::atx_750w(), Watts::new(300.0));
//! // The private window is the PSU's own hold-up; the reserve adds time.
//! assert_eq!(private.global_window(), Psu::atx_750w().residual_window(Watts::new(300.0)));
//! assert!(shared.global_window() > private.global_window());
//! assert!(private.is_private() && !shared.is_private());
//! ```

use wsp_units::{Joules, Nanos, Watts};

use crate::{Psu, Ultracapacitor};

/// A power domain: one PSU's hold-up, plus (when shared) one
/// ultracapacitor reserve, divided among `shards` persistent heaps.
#[derive(Debug, Clone)]
pub struct PowerDomain {
    psu: Psu,
    /// The shared reserve; `None` for a private domain.
    reserve: Option<Ultracapacitor>,
    draw: Watts,
    shards: usize,
}

impl PowerDomain {
    /// A shared domain of `shards` heaps over `psu` + `reserve`, drawing
    /// a constant `draw` during a save.
    #[must_use]
    pub fn new(psu: Psu, reserve: Ultracapacitor, draw: Watts, shards: usize) -> Self {
        PowerDomain {
            psu,
            reserve: Some(reserve),
            draw,
            shards,
        }
    }

    /// One machine's own supply: its PSU at `draw`, one shard, no
    /// reserve. The window is exactly `psu.residual_window(draw)`.
    #[must_use]
    pub fn private(psu: Psu, draw: Watts) -> Self {
        PowerDomain {
            psu,
            reserve: None,
            draw,
            shards: 1,
        }
    }

    /// True for a [`PowerDomain::private`] domain: one machine, one
    /// consumer, no shared reserve.
    #[must_use]
    pub fn is_private(&self) -> bool {
        self.reserve.is_none()
    }

    /// Number of shards in the domain.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The constant save-time power draw the windows are computed at.
    #[must_use]
    pub fn draw(&self) -> Watts {
        self.draw
    }

    /// The **global** residual-energy window: the PSU's hold-up at the
    /// domain draw plus however long the shared reserve can carry the
    /// same draw. Every shard's flush budget comes out of this one
    /// number — there is no per-shard ultracap to fall back on.
    #[must_use]
    pub fn global_window(&self) -> Nanos {
        let hold_up = self.psu.residual_window(self.draw);
        match &self.reserve {
            Some(reserve) => hold_up.saturating_add(reserve.supply_time(self.draw)),
            None => hold_up,
        }
    }

    /// Drains the shared reserve for an outage of `duration`: the PSU
    /// rides through its own hold-up, everything longer comes out of
    /// the reserve. Returns `false` if the reserve sagged below its
    /// usable floor before the interval ended (at once, without one).
    pub fn drain_outage(&mut self, duration: Nanos) -> bool {
        let from_reserve = duration.saturating_sub(self.psu.residual_window(self.draw));
        if from_reserve == Nanos::ZERO {
            return true;
        }
        self.reserve
            .as_mut()
            .is_some_and(|reserve| reserve.discharge(self.draw, from_reserve))
    }

    /// Harvesting-style replenish between outages: `charge` watts for
    /// `duration` deposited into the reserve, capped at full. Returns
    /// `true` when the reserve reached full charge (recording an aging
    /// cycle); a partial top-up — the common case inside a storm —
    /// records none.
    pub fn replenish(&mut self, charge: Watts, duration: Nanos) -> bool {
        self.replenish_energy(charge * duration)
    }

    /// Deposits raw energy into the reserve (see
    /// [`Ultracapacitor::recharge_partial`]); a private domain has no
    /// reserve to fill.
    pub fn replenish_energy(&mut self, energy: Joules) -> bool {
        self.reserve
            .as_mut()
            .is_some_and(|reserve| reserve.recharge_partial(energy))
    }

    /// The shared reserve cell, `None` for a private domain.
    #[must_use]
    pub fn reserve_cell(&self) -> Option<&Ultracapacitor> {
        self.reserve.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_units::{Farads, Volts};

    fn domain() -> PowerDomain {
        let reserve =
            Ultracapacitor::new(Farads::new(2.0), Volts::new(12.0), Volts::new(6.0));
        PowerDomain::new(Psu::atx_750w(), reserve, Watts::new(300.0), 3)
    }

    #[test]
    fn global_window_exceeds_psu_alone() {
        let d = domain();
        let psu_only = Psu::atx_750w().residual_window(Watts::new(300.0));
        assert!(d.global_window() > psu_only, "the reserve must add time");
        let private = PowerDomain::private(Psu::atx_750w(), Watts::new(300.0));
        assert_eq!(
            private.global_window(),
            psu_only,
            "no reserve, no extra time"
        );
        assert_eq!(private.shards(), 1);
    }

    #[test]
    fn drain_shrinks_the_window_and_replenish_restores_it() {
        let mut d = domain();
        let before = d.global_window();
        // An outage longer than the PSU hold-up bites into the reserve.
        let hold_up = Psu::atx_750w().residual_window(Watts::new(300.0));
        assert!(d.drain_outage(hold_up.saturating_add(Nanos::from_millis(2))));
        let after = d.global_window();
        assert!(after < before, "drain must shrink the global window");
        // A short dip inside the hold-up costs the reserve nothing.
        let mid = d.global_window();
        assert!(d.drain_outage(Nanos::from_micros(10)));
        assert_eq!(d.global_window(), mid);
        // Partial replenish grows the window without an aging cycle.
        let cycles = d.reserve_cell().unwrap().cycles();
        assert!(!d.replenish(Watts::new(5.0), Nanos::from_millis(1)));
        assert!(d.global_window() > after);
        assert_eq!(d.reserve_cell().unwrap().cycles(), cycles);
        // A long charge reaches full and records the cycle; the window
        // comes back to (almost) new, minus one cycle of Figure 1 fade.
        assert!(d.replenish(Watts::new(200.0), Nanos::from_secs(10)));
        assert_eq!(d.reserve_cell().unwrap().cycles(), cycles + 1);
        let back = d.global_window();
        assert!(back > after && back <= before, "{back} vs {before}");
        assert!(before.as_nanos() - back.as_nanos() < before.as_nanos() / 100);
    }
}
