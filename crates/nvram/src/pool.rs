//! A pool of NVDIMMs forming the machine's main memory: linear address
//! concatenation, with saves and restores running on all modules in
//! parallel (they share no resources — paper §2).

use std::sync::Arc;

use wsp_obs as obs;
use wsp_power::{ArmedCut, PowerCut};
use wsp_units::{ByteSize, Nanos};

use crate::dimm::DimmState;
use crate::{NvDimm, NvramError, SaveOutcome};

/// Result of a pool save command that retried transient failures.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSaveReport {
    /// Per-module outcomes, in address order.
    pub outcomes: Vec<SaveOutcome>,
    /// Total retries performed across all modules.
    pub retries: u32,
    /// Simulated time spent backing off between attempts.
    pub backoff: Nanos,
}

/// Main memory built from NVDIMMs.
///
/// # Examples
///
/// ```
/// use wsp_nvram::{NvDimm, NvramPool};
/// use wsp_units::ByteSize;
///
/// let pool = NvramPool::uniform(4, ByteSize::gib(1));
/// assert_eq!(pool.total_capacity(), ByteSize::gib(4));
/// // Saving 4 modules takes no longer than saving one.
/// let one = NvDimm::agiga(ByteSize::gib(1)).flash().full_save_time();
/// assert_eq!(pool.parallel_save_time(), one);
/// ```
#[derive(Debug, Clone)]
pub struct NvramPool {
    dimms: Vec<NvDimm>,
    cut: ArmedCut,
}

impl NvramPool {
    /// Builds a pool from modules.
    ///
    /// # Panics
    ///
    /// Panics if `dimms` is empty.
    #[must_use]
    pub fn new(dimms: Vec<NvDimm>) -> Self {
        assert!(!dimms.is_empty(), "a pool needs at least one module");
        NvramPool {
            dimms,
            cut: ArmedCut::default(),
        }
    }

    /// Builds a pool of `n` identical AgigaRAM-style modules.
    #[must_use]
    pub fn uniform(n: usize, capacity_each: ByteSize) -> Self {
        Self::new((0..n).map(|_| NvDimm::agiga(capacity_each)).collect())
    }

    /// The modules in address order.
    #[must_use]
    pub fn dimms(&self) -> &[NvDimm] {
        &self.dimms
    }

    /// Mutable module access — fault-injection harnesses use this to
    /// sabotage individual modules (e.g. drain an ultracapacitor so its
    /// save browns out mid-copy).
    pub fn dimms_mut(&mut self) -> &mut [NvDimm] {
        &mut self.dimms
    }

    /// Total pool capacity.
    #[must_use]
    pub fn total_capacity(&self) -> ByteSize {
        self.dimms.iter().map(NvDimm::capacity).sum()
    }

    fn locate(&self, addr: u64) -> Result<(usize, u64), NvramError> {
        let mut base = 0u64;
        for (i, d) in self.dimms.iter().enumerate() {
            let cap = d.capacity().as_u64();
            if addr < base + cap {
                return Ok((i, addr - base));
            }
            base += cap;
        }
        Err(NvramError::OutOfRange {
            addr,
            len: 0,
            capacity: self.total_capacity().as_u64(),
        })
    }

    /// Writes `data` at pool address `addr`, spanning modules as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the pool or a touched module is not
    /// active.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let (idx, offset) = self.locate(addr + pos as u64).unwrap();
            let room = (self.dimms[idx].capacity().as_u64() - offset) as usize;
            let chunk = room.min(data.len() - pos);
            self.dimms[idx].write(offset, &data[pos..pos + chunk]);
            pos += chunk;
        }
    }

    /// Reads into `buf` from pool address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the pool or a touched module is not
    /// active.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut pos = 0usize;
        while pos < buf.len() {
            let (idx, offset) = self.locate(addr + pos as u64).unwrap();
            let room = (self.dimms[idx].capacity().as_u64() - offset) as usize;
            let chunk = room.min(buf.len() - pos);
            self.dimms[idx].read(offset, &mut buf[pos..pos + chunk]);
            pos += chunk;
        }
    }

    /// Base backoff between save-command attempts; doubles per retry
    /// (the monitor re-issues the I2C command after a quiet interval).
    pub const RETRY_BACKOFF_BASE: Nanos = Nanos::from_micros(100);

    /// Arms `cut` (replacing any earlier one): each save command counts
    /// as one durable event of it from now on, and once it has struck
    /// every command is refused with [`NvramError::PowerFailed`]. One
    /// cut armed on the pool and on the heaps fails the whole save
    /// window at one instant. Clones are never armed.
    ///
    /// # Examples
    ///
    /// ```
    /// use wsp_nvram::{NvramError, NvramPool};
    /// use wsp_power::PowerCut;
    /// use wsp_units::{ByteSize, Nanos};
    ///
    /// let mut pool = NvramPool::uniform(2, ByteSize::mib(1));
    /// let cut = PowerCut::after(0);
    /// pool.arm(&cut);
    /// let probe = pool.clone();
    /// assert_eq!(
    ///     pool.save_range_within(0..2, 1, Nanos::MAX),
    ///     Err(NvramError::PowerFailed),
    /// );
    /// assert_eq!(cut.events(), 1, "the save command is one event");
    /// assert!(probe.cut().is_none(), "a clone is unarmed");
    /// ```
    pub fn arm(&mut self, cut: &Arc<PowerCut>) {
        self.cut.arm(cut);
    }

    /// The armed cut, if any.
    #[must_use]
    pub fn cut(&self) -> Option<&PowerCut> {
        self.cut.cut()
    }

    /// The save command: enters self-refresh and saves the modules in
    /// `range` (the whole pool, or a shard's region of it), leaving the
    /// rest active and writable. Modules save in parallel on their own
    /// ultracaps, so the save time is the slowest module's plus the
    /// accumulated backoff. Transient command failures are retried up
    /// to `max_attempts` times per module with exponential backoff;
    /// when the *next* retry's backoff would push the accumulated total
    /// past `window`, the pool refuses instead of spinning the simulated
    /// clock past the residual energy it does not have (the failure
    /// mode of every retry landing inside the same glitch storm).
    ///
    /// The command is one durable event of an armed cut
    /// ([`NvramPool::arm`]), counted before any module enters
    /// self-refresh. Per-module outcomes are in the report; the save
    /// succeeded only if every one completed.
    ///
    /// # Errors
    ///
    /// [`NvramError::PowerFailed`] once the armed cut has struck (no
    /// module is touched), [`NvramError::BadState`] if a module in
    /// `range` is powered off (instead of panicking inside the
    /// handshake), [`NvramError::SaveCommandFailed`] when a module's
    /// command keeps failing after `max_attempts` attempts,
    /// [`NvramError::RetryWindowExhausted`] for the backoff refusal, and
    /// any other module error unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the pool's module count.
    pub fn save_range_within(
        &mut self,
        range: std::ops::Range<usize>,
        max_attempts: u32,
        window: Nanos,
    ) -> Result<PoolSaveReport, NvramError> {
        if !self.cut.land() {
            return Err(NvramError::PowerFailed);
        }
        let max_attempts = max_attempts.max(1);
        for d in &self.dimms[range.clone()] {
            if d.state() == DimmState::Off {
                return Err(NvramError::BadState {
                    state: "Off",
                    operation: "save",
                });
            }
        }
        self.dimms[range.clone()]
            .iter_mut()
            .for_each(NvDimm::enter_self_refresh);
        let mut outcomes = Vec::with_capacity(range.len());
        let mut retries = 0u32;
        let mut backoff = Nanos::ZERO;
        for (offset, d) in self.dimms[range.clone()].iter_mut().enumerate() {
            let module = range.start + offset;
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                match d.save() {
                    Ok(o) => {
                        outcomes.push(o);
                        obs::count(obs::Ctr::NvdimmModulesArmed);
                        break;
                    }
                    Err(NvramError::SaveCommandFailed { .. }) if attempt < max_attempts => {
                        let step = Self::RETRY_BACKOFF_BASE * (1u64 << (attempt - 1).min(6));
                        if backoff.saturating_add(step) > window {
                            obs::emit(
                                "nvram",
                                "save_window_exhausted",
                                backoff,
                                module as i64,
                                i64::from(attempt),
                            );
                            obs::count(obs::Ctr::NvdimmSaveFailures);
                            return Err(NvramError::RetryWindowExhausted {
                                attempts: attempt,
                                needed: backoff.saturating_add(step),
                                budget: window,
                                retries,
                                backoff,
                            });
                        }
                        retries += 1;
                        backoff += step;
                        obs::emit(
                            "nvram",
                            "save_retry",
                            backoff,
                            module as i64,
                            i64::from(attempt),
                        );
                        obs::count(obs::Ctr::NvdimmSaveRetries);
                    }
                    Err(NvramError::SaveCommandFailed { .. }) => {
                        obs::emit(
                            "nvram",
                            "save_command_failed",
                            backoff,
                            module as i64,
                            i64::from(attempt),
                        );
                        obs::count(obs::Ctr::NvdimmSaveFailures);
                        return Err(NvramError::SaveCommandFailed {
                            attempts: attempt,
                            retries,
                            backoff,
                        });
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(PoolSaveReport {
            outcomes,
            retries,
            backoff,
        })
    }

    /// True if every module holds a valid flash image.
    #[must_use]
    pub fn all_saved(&self) -> bool {
        self.dimms.iter().all(|d| d.flash().has_valid_image())
    }

    /// Wall-clock time of a parallel pool save (slowest module).
    #[must_use]
    pub fn parallel_save_time(&self) -> Nanos {
        self.dimms
            .iter()
            .map(|d| d.flash().full_save_time())
            .fold(Nanos::ZERO, Nanos::max)
    }

    /// Wall-clock time of a parallel pool restore (slowest module).
    #[must_use]
    pub fn parallel_restore_time(&self) -> Nanos {
        self.dimms
            .iter()
            .map(|d| d.flash().full_restore_time())
            .fold(Nanos::ZERO, Nanos::max)
    }

    /// Drops system power on every module.
    pub fn power_loss(&mut self) {
        self.dimms.iter_mut().for_each(NvDimm::power_loss);
    }

    /// Restores system power to every module.
    pub fn power_on(&mut self) {
        self.dimms.iter_mut().for_each(NvDimm::power_on);
    }

    /// Restores every module from flash (in parallel; returns the slowest
    /// module's restore time).
    ///
    /// # Errors
    ///
    /// Fails with the first module that lacks a valid image or whose
    /// image fails checksum verification, and with
    /// [`NvramError::GenerationMismatch`] when modules hold images from
    /// different save generations (one module kept a stale image from an
    /// earlier save; mixing them would corrupt memory silently) — the
    /// caller must then recover from a lower ladder rung instead.
    pub fn restore_all(&mut self) -> Result<Nanos, NvramError> {
        if self.dimms.iter().all(|d| d.flash().has_valid_image()) {
            let gens = self.dimms.iter().map(|d| d.flash().generation());
            let newest = gens.clone().max().unwrap_or(0);
            let stale = gens.min().unwrap_or(0);
            if stale != newest {
                return Err(NvramError::GenerationMismatch { newest, stale });
            }
        }
        let mut worst = Nanos::ZERO;
        for d in &mut self.dimms {
            worst = worst.max(d.restore()?);
        }
        Ok(worst)
    }

    /// Clears all flash images after a successful resume.
    pub fn invalidate_images(&mut self) {
        self.dimms.iter_mut().for_each(NvDimm::invalidate_image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> NvramPool {
        NvramPool::uniform(2, ByteSize::mib(1))
    }

    /// One save command over the whole pool with an unbounded window.
    fn save(p: &mut NvramPool, max_attempts: u32) -> Result<PoolSaveReport, NvramError> {
        p.save_range_within(0..p.dimms().len(), max_attempts, Nanos::MAX)
    }

    #[test]
    fn addresses_concatenate_across_modules() {
        let mut p = pool();
        let boundary = ByteSize::mib(1).as_u64();
        p.write(boundary - 3, b"spanning");
        let mut buf = [0u8; 8];
        p.read(boundary - 3, &mut buf);
        assert_eq!(&buf, b"spanning");
        // The two halves live on different modules.
        let mut first = [0u8; 3];
        p.dimms()[0].read(boundary - 3, &mut first);
        assert_eq!(&first, b"spa");
        let mut second = [0u8; 5];
        p.dimms()[1].read(0, &mut second);
        assert_eq!(&second, b"nning");
    }

    #[test]
    fn save_power_cycle_restore_round_trip() {
        let mut p = pool();
        p.write(123, b"abc");
        p.write(ByteSize::mib(1).as_u64() + 7, b"def");
        let report = save(&mut p, 1).unwrap();
        assert!(report.outcomes.iter().all(|o| o.completed));
        assert!(p.all_saved());
        p.power_loss();
        p.power_on();
        p.restore_all().unwrap();
        let mut buf = [0u8; 3];
        p.read(123, &mut buf);
        assert_eq!(&buf, b"abc");
        p.read(ByteSize::mib(1).as_u64() + 7, &mut buf);
        assert_eq!(&buf, b"def");
    }

    #[test]
    fn restore_fails_if_any_module_unsaved() {
        let mut p = pool();
        p.write(0, b"x");
        p.power_loss(); // no save
        p.power_on();
        assert_eq!(p.restore_all().unwrap_err(), NvramError::NoValidImage);
    }

    #[test]
    fn parallel_times_take_the_max_not_the_sum() {
        let p = NvramPool::uniform(8, ByteSize::gib(1));
        let single = NvDimm::agiga(ByteSize::gib(1));
        assert_eq!(p.parallel_save_time(), single.flash().full_save_time());
        assert_eq!(
            p.parallel_restore_time(),
            single.flash().full_restore_time()
        );
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn empty_pool_rejected() {
        let _ = NvramPool::new(Vec::new());
    }

    #[test]
    fn total_capacity_sums_modules() {
        assert_eq!(pool().total_capacity(), ByteSize::mib(2));
    }

    #[test]
    fn transient_command_faults_are_retried_with_backoff() {
        let mut p = pool();
        p.write(0, b"flaky");
        p.dimms_mut()[1].inject_save_command_faults(2);
        let report = save(&mut p, 4).unwrap();
        assert!(report.outcomes.iter().all(|o| o.completed));
        assert_eq!(report.retries, 2);
        // 100 µs + 200 µs of exponential backoff.
        assert_eq!(report.backoff, Nanos::from_micros(300));
        assert!(p.all_saved());
    }

    #[test]
    fn exhausted_retries_surface_typed_error() {
        let mut p = pool();
        p.dimms_mut()[0].inject_save_command_faults(10);
        assert_eq!(
            save(&mut p, 3).unwrap_err(),
            NvramError::SaveCommandFailed {
                attempts: 3,
                retries: 2,
                backoff: Nanos::from_micros(300),
            }
        );
    }

    #[test]
    fn backoff_past_the_window_budget_refuses_instead_of_spinning() {
        let mut p = pool();
        p.dimms_mut()[1].inject_save_command_faults(3);
        // Four attempts would accumulate 100 + 200 + 400 µs of backoff;
        // a 250 µs budget covers the first retry but not the second.
        let err = p
            .save_range_within(0..2, 4, Nanos::from_micros(250))
            .unwrap_err();
        assert_eq!(
            err,
            NvramError::RetryWindowExhausted {
                attempts: 2,
                needed: Nanos::from_micros(300),
                budget: Nanos::from_micros(250),
                retries: 1,
                backoff: Nanos::from_micros(100),
            }
        );
    }

    #[test]
    fn range_save_arms_only_the_region_modules() {
        let mut p = NvramPool::uniform(4, ByteSize::mib(1));
        p.write(0, b"control");
        p.write(ByteSize::mib(1).as_u64(), b"shard-one");
        let report = p.save_range_within(1..3, 4, Nanos::MAX).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes.iter().all(|o| o.completed));
        assert!(!p.all_saved(), "modules outside the range are untouched");
        assert!(p.dimms()[1].flash().has_valid_image());
        assert!(p.dimms()[2].flash().has_valid_image());
        assert!(!p.dimms()[0].flash().has_valid_image());
        assert!(!p.dimms()[3].flash().has_valid_image());
        // The untouched modules are still active and writable.
        p.write(0, b"still-writable");
    }

    #[test]
    fn save_on_powered_off_pool_is_bad_state_not_panic() {
        let mut p = pool();
        p.power_loss();
        assert!(matches!(
            save(&mut p, 1),
            Err(NvramError::BadState { state: "Off", .. })
        ));
    }

    #[test]
    fn mixed_generation_images_are_rejected() {
        let mut p = pool();
        p.write(0, b"gen1");
        save(&mut p, 1).unwrap(); // both modules at generation 1
        for d in p.dimms_mut() {
            d.exit_self_refresh().unwrap();
        }
        // Second save: module 0 succeeds (generation 2), module 1 keeps
        // failing and retains its valid generation-1 image.
        p.dimms_mut()[1].inject_save_command_faults(10);
        assert!(matches!(
            save(&mut p, 2),
            Err(NvramError::SaveCommandFailed { .. })
        ));
        p.power_loss();
        p.power_on();
        assert_eq!(
            p.restore_all().unwrap_err(),
            NvramError::GenerationMismatch { newest: 2, stale: 1 }
        );
    }

    #[test]
    fn an_armed_pool_counts_one_event_per_save_command() {
        let mut p = NvramPool::uniform(4, ByteSize::mib(1));
        let cut = PowerCut::never();
        p.arm(&cut);
        p.dimms_mut()[1].inject_save_command_faults(2);
        // Retries belong to the one command: still one event.
        let report = p.save_range_within(0..2, 4, Nanos::MAX).unwrap();
        assert_eq!((report.retries, cut.events()), (2, 1));
        p.save_range_within(2..4, 1, Nanos::MAX).unwrap();
        assert_eq!(cut.events(), 2);
        assert!(p.all_saved());
    }

    #[test]
    fn a_struck_cut_refuses_the_command_and_touches_no_module() {
        let mut p = pool();
        p.write(0, b"unsaved");
        let cut = PowerCut::after(1);
        p.arm(&cut);
        p.save_range_within(0..1, 1, Nanos::MAX).unwrap(); // event 0 lands
        for _ in 0..2 {
            assert_eq!(
                p.save_range_within(1..2, 1, Nanos::MAX),
                Err(NvramError::PowerFailed)
            );
        }
        assert_eq!(cut.events(), 3);
        let module = &p.dimms()[1];
        assert_eq!(module.state(), DimmState::Active, "no self-refresh");
        assert!(!module.flash().has_valid_image());
        assert_eq!(module.flash().health().pe_cycles, 0, "no flash wear");
        p.write(ByteSize::mib(1).as_u64(), b"still-writable");
    }

    #[test]
    fn a_clone_of_an_armed_pool_is_unarmed() {
        let mut p = pool();
        let cut = PowerCut::after(0);
        p.arm(&cut);
        let mut probe = p.clone();
        assert!(probe.cut().is_none());
        save(&mut probe, 1).unwrap();
        assert!(probe.all_saved());
        assert_eq!(cut.events(), 0, "the clone never spends the cut");
        assert_eq!(save(&mut p, 1), Err(NvramError::PowerFailed));
    }
}
