//! The NVDIMM device: DRAM array, self-refresh handshake, ultracap-powered
//! DRAM→flash save, and flash→DRAM restore.

use wsp_units::{Bandwidth, ByteSize, Farads, Joules, Nanos, Volts, Watts};
use wsp_power::Ultracapacitor;

use crate::flash::{FlashStore, PageMap, PAGE_SIZE};
use crate::NvramError;

/// Operating state of the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimmState {
    /// Normal operation: host loads/stores hit the DRAM.
    Active,
    /// DRAM is in self-refresh; the controller may save or restore.
    SelfRefresh,
    /// A save completed; DRAM contents are safely in flash.
    Saved,
    /// System power is gone. DRAM contents are lost; flash persists.
    Off,
}

impl DimmState {
    fn name(self) -> &'static str {
        match self {
            DimmState::Active => "Active",
            DimmState::SelfRefresh => "SelfRefresh",
            DimmState::Saved => "Saved",
            DimmState::Off => "Off",
        }
    }
}

/// Result of a save operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaveOutcome {
    /// True if the whole DRAM image reached flash before the ultracap
    /// dropped below its minimum usable voltage.
    pub completed: bool,
    /// Time the save ran (full save, or until energy ran out).
    pub duration: Nanos,
    /// Energy drawn from the ultracapacitor.
    pub energy_used: Joules,
    /// Ultracap terminal voltage when the save ended.
    pub final_voltage: Volts,
}

/// One point of a Figure-2-style save trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaveTracePoint {
    /// Time since the save began.
    pub t: Nanos,
    /// Ultracapacitor terminal voltage.
    pub voltage: Volts,
    /// Power drawn from the ultracapacitor.
    pub power: Watts,
    /// True once the save has completed.
    pub save_completed: bool,
}

/// A battery-free NVDIMM (DRAM + ultracapacitor + NAND flash).
///
/// See the crate-level docs for the device contract and an end-to-end
/// example. DRAM contents are stored sparsely (4 KiB pages), so simulating
/// multi-gigabyte modules costs memory only for pages actually written.
#[derive(Debug, Clone)]
pub struct NvDimm {
    capacity: ByteSize,
    state: DimmState,
    dram: PageMap,
    flash: FlashStore,
    ultracap: Ultracapacitor,
    save_power: Watts,
    /// Injected transient save-command failures still pending: each
    /// `save()` consumes one and fails before touching flash, modelling
    /// an I2C relay dropping the command.
    pending_command_faults: u32,
}

impl NvDimm {
    /// Creates an AgigaRAM-like module: flash sized 1:1 with DRAM, flash
    /// write bandwidth sized so a full save takes ~7 s regardless of
    /// capacity (bigger modules ship more flash channels; the paper
    /// reports < 10 s for modules up to 8 GB), an 8 W save draw, and
    /// 2.5 F of ultracap per GiB charged to 12 V with a 6 V usable floor
    /// — enough stored energy for at least twice the save time, as the
    /// paper measures.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn agiga(capacity: ByteSize) -> Self {
        assert!(!capacity.is_zero(), "capacity must be non-zero");
        let save_seconds = 7.0;
        let write_bw = Bandwidth::bytes_per_sec(capacity.as_u64() as f64 / save_seconds);
        // 2.5 F/GiB, floored so even small modules can power the fixed
        // ~7 s save for at least twice its duration (8 W x 14 s = 112 J
        // needs ~2.1 F between 12 V and the 6 V floor).
        let farads = (2.5 * capacity.as_gib_f64()).clamp(2.5, 50.0);
        NvDimm::new(
            capacity,
            write_bw,
            Ultracapacitor::new(Farads::new(farads), Volts::new(12.0), Volts::new(6.0)),
            Watts::new(8.0),
        )
    }

    /// Creates a module with explicit flash bandwidth, ultracap and save
    /// power draw.
    #[must_use]
    pub fn new(
        capacity: ByteSize,
        flash_write_bandwidth: Bandwidth,
        ultracap: Ultracapacitor,
        save_power: Watts,
    ) -> Self {
        NvDimm {
            capacity,
            state: DimmState::Active,
            dram: PageMap::new(),
            flash: FlashStore::new(capacity, flash_write_bandwidth),
            ultracap,
            save_power,
            pending_command_faults: 0,
        }
    }

    /// Module capacity.
    #[must_use]
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Current operating state.
    #[must_use]
    pub fn state(&self) -> DimmState {
        self.state
    }

    /// The backup flash store.
    #[must_use]
    pub fn flash(&self) -> &FlashStore {
        &self.flash
    }

    /// The ultracapacitor bank.
    #[must_use]
    pub fn ultracap(&self) -> &Ultracapacitor {
        &self.ultracap
    }

    /// Mutable ultracapacitor access — lets fault-injection harnesses
    /// pre-drain the bank so the next save tears partway through.
    pub fn ultracap_mut(&mut self) -> &mut Ultracapacitor {
        &mut self.ultracap
    }

    /// Power the module draws from its ultracapacitor during a
    /// DRAM→flash save. Together with
    /// [`FlashStore::full_save_time`] this is the energy a feasibility
    /// check must budget against [`Ultracapacitor::usable_energy`].
    #[must_use]
    pub fn save_power(&self) -> Watts {
        self.save_power
    }

    /// Arms `count` transient save-command failures: the next `count`
    /// calls to [`NvDimm::save`] fail with
    /// [`NvramError::SaveCommandFailed`] before touching flash (the I2C
    /// relay dropping the command; a retry succeeds once exhausted).
    pub fn inject_save_command_faults(&mut self, count: u32) {
        self.pending_command_faults = count;
    }

    /// Test-harness sabotage: tears the *stored* flash image from
    /// `from_byte` on while leaving the valid flag high — the silent
    /// corruption case the per-DIMM checksum exists to detect.
    pub fn tear_saved_image(&mut self, from_byte: u64) {
        self.flash.corrupt_tail(from_byte);
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<(), NvramError> {
        if addr.checked_add(len).is_none_or(|end| end > self.capacity.as_u64()) {
            return Err(NvramError::OutOfRange {
                addr,
                len,
                capacity: self.capacity.as_u64(),
            });
        }
        Ok(())
    }

    /// Writes `data` at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the module is not [`DimmState::Active`] or the range is
    /// out of bounds — host stores to a quiesced or absent DRAM are
    /// wiring errors, not recoverable conditions.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        assert_eq!(
            self.state,
            DimmState::Active,
            "write while module is {}",
            self.state.name()
        );
        self.check_range(addr, data.len() as u64).unwrap_or_else(|e| panic!("{e}"));
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = addr + pos as u64;
            let page_idx = abs / PAGE_SIZE;
            let offset = (abs % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - offset).min(data.len() - pos);
            let page = self
                .dram
                .entry(page_idx)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page[offset..offset + chunk].copy_from_slice(&data[pos..pos + chunk]);
            pos += chunk;
        }
    }

    /// Reads into `buf` from byte address `addr`. Unwritten bytes read as
    /// zero (fresh DRAM is zero-filled in the model).
    ///
    /// # Panics
    ///
    /// Panics if the module is not [`DimmState::Active`] or the range is
    /// out of bounds.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        assert_eq!(
            self.state,
            DimmState::Active,
            "read while module is {}",
            self.state.name()
        );
        self.check_range(addr, buf.len() as u64).unwrap_or_else(|e| panic!("{e}"));
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = addr + pos as u64;
            let page_idx = abs / PAGE_SIZE;
            let offset = (abs % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - offset).min(buf.len() - pos);
            match self.dram.get(&page_idx) {
                Some(page) => buf[pos..pos + chunk].copy_from_slice(&page[offset..offset + chunk]),
                None => buf[pos..pos + chunk].fill(0),
            }
            pos += chunk;
        }
    }

    /// Puts the DRAM into self-refresh (prerequisite for save/restore on
    /// the real AgigaRAM parts; needs BIOS support the paper discusses).
    ///
    /// # Panics
    ///
    /// Panics when the module is off.
    pub fn enter_self_refresh(&mut self) {
        assert_ne!(self.state, DimmState::Off, "module is powered off");
        if self.state == DimmState::Active {
            self.state = DimmState::SelfRefresh;
        }
    }

    /// Brings the DRAM out of self-refresh back to normal operation.
    ///
    /// # Errors
    ///
    /// Returns [`NvramError::BadState`] unless the module is in
    /// self-refresh or freshly saved.
    pub fn exit_self_refresh(&mut self) -> Result<(), NvramError> {
        match self.state {
            DimmState::SelfRefresh | DimmState::Saved => {
                self.state = DimmState::Active;
                Ok(())
            }
            s => Err(NvramError::BadState {
                state: s.name(),
                operation: "exit self-refresh",
            }),
        }
    }

    /// Runs the DRAM→flash save on ultracapacitor power.
    ///
    /// # Errors
    ///
    /// Returns [`NvramError::NotInSelfRefresh`] if the handshake was
    /// skipped, or [`NvramError::SaveCommandFailed`] if an injected
    /// transient command fault is pending (nothing is written; a retry
    /// may succeed). An energy shortfall is *not* an `Err`: it is
    /// reported via [`SaveOutcome::completed`] `== false` and leaves a
    /// torn, invalid image in flash.
    pub fn save(&mut self) -> Result<SaveOutcome, NvramError> {
        if self.state != DimmState::SelfRefresh {
            return Err(NvramError::NotInSelfRefresh);
        }
        if self.pending_command_faults > 0 {
            self.pending_command_faults -= 1;
            return Err(NvramError::SaveCommandFailed {
                attempts: 1,
                retries: 0,
                backoff: Nanos::ZERO,
            });
        }
        let full_time = self.flash.full_save_time();
        let available = self.ultracap.supply_time(self.save_power);
        if available >= full_time {
            let v0 = self.ultracap.voltage();
            self.ultracap.discharge(self.save_power, full_time);
            self.flash.store_image(&self.dram);
            self.state = DimmState::Saved;
            Ok(SaveOutcome {
                completed: true,
                duration: full_time,
                energy_used: self
                    .ultracap
                    .capacitance()
                    .energy_between(v0, self.ultracap.voltage()),
                final_voltage: self.ultracap.voltage(),
            })
        } else {
            let v0 = self.ultracap.voltage();
            self.ultracap.discharge(self.save_power, available);
            let completed_bytes = (self.capacity.as_u64() as f64
                * available.as_secs_f64()
                / full_time.as_secs_f64()) as u64;
            self.flash.store_torn_image(&self.dram, completed_bytes);
            // The module browns out where it stands.
            self.state = DimmState::Off;
            self.dram.clear();
            Ok(SaveOutcome {
                completed: false,
                duration: available,
                energy_used: self
                    .ultracap
                    .capacitance()
                    .energy_between(v0, self.ultracap.voltage()),
                final_voltage: self.ultracap.voltage(),
            })
        }
    }

    /// Produces a Figure-2-style (time, voltage, power) trace of a save
    /// starting now, without mutating the module. The trace extends past
    /// save completion to show the draw dropping to standby level.
    #[must_use]
    pub fn save_trace(&self, step: Nanos) -> Vec<SaveTracePoint> {
        let full_time = self.flash.full_save_time();
        let horizon = full_time * 2;
        let standby = Watts::new(0.2);
        let mut cap = self.ultracap.clone();
        let mut points = Vec::new();
        let mut t = Nanos::ZERO;
        while t <= horizon {
            let completed = t >= full_time;
            let power = if completed { standby } else { self.save_power };
            points.push(SaveTracePoint {
                t,
                voltage: cap.voltage(),
                power,
                save_completed: completed,
            });
            cap.discharge(power, step);
            t += step;
        }
        points
    }

    /// Models loss of system power. If the save had completed the flash
    /// image survives; either way the DRAM array is gone.
    pub fn power_loss(&mut self) {
        self.dram.clear();
        self.state = DimmState::Off;
    }

    /// Re-applies system power: the memory controller leaves the DRAM in
    /// self-refresh with undefined (zeroed) contents, and the ultracap
    /// recharges (counting one aging cycle).
    pub fn power_on(&mut self) {
        self.dram.clear();
        self.ultracap.recharge();
        self.state = DimmState::SelfRefresh;
    }

    /// Restores DRAM contents from the flash image.
    ///
    /// # Errors
    ///
    /// Returns [`NvramError::NotInSelfRefresh`] if the handshake was
    /// skipped, [`NvramError::NoValidImage`] if the last save never
    /// completed, or [`NvramError::ChecksumMismatch`] if the image is
    /// marked valid but its contents fail verification (a torn save that
    /// slipped past the marker). On either failure the boot path must
    /// fall back to a lower recovery rung.
    pub fn restore(&mut self) -> Result<Nanos, NvramError> {
        if self.state != DimmState::SelfRefresh {
            return Err(NvramError::NotInSelfRefresh);
        }
        if self.flash.load_image().is_none() {
            return Err(NvramError::NoValidImage);
        }
        self.flash.verify_image()?;
        let image = self.flash.load_image().ok_or(NvramError::NoValidImage)?;
        self.dram = image.clone();
        self.state = DimmState::Active;
        Ok(self.flash.full_restore_time())
    }

    /// Discards the flash image (the host clears it after a successful
    /// resume so a stale image can never be replayed twice).
    pub fn invalidate_image(&mut self) {
        self.flash.invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NvDimm {
        NvDimm::agiga(ByteSize::mib(64))
    }

    #[test]
    fn save_restore_round_trip() {
        let mut d = small();
        d.write(12345, b"hello");
        d.write(4096 * 10 + 4090, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]); // page-crossing
        d.enter_self_refresh();
        let out = d.save().unwrap();
        assert!(out.completed);
        assert_eq!(d.state(), DimmState::Saved);
        d.power_loss();
        d.power_on();
        d.restore().unwrap();
        assert_eq!(d.state(), DimmState::Active);
        assert!(d.flash().has_valid_image(), "restore keeps the image");
        let mut buf = [0u8; 5];
        d.read(12345, &mut buf);
        assert_eq!(&buf, b"hello");
        let mut buf10 = [0u8; 10];
        d.read(4096 * 10 + 4090, &mut buf10);
        assert_eq!(buf10, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn power_loss_without_save_loses_dram() {
        let mut d = small();
        d.write(0, b"doomed");
        d.power_loss();
        d.power_on();
        assert_eq!(d.restore().unwrap_err(), NvramError::NoValidImage);
    }

    #[test]
    fn save_requires_self_refresh() {
        let mut d = small();
        assert_eq!(d.save().unwrap_err(), NvramError::NotInSelfRefresh);
    }

    #[test]
    fn depleted_ultracap_leaves_torn_invalid_image() {
        let mut d = NvDimm::new(
            ByteSize::mib(64),
            Bandwidth::mib_per_sec(10.0), // 6.4 s save
            Ultracapacitor::new(Farads::new(0.1), Volts::new(12.0), Volts::new(6.0)),
            Watts::new(8.0), // 5.4 J usable -> 0.675 s supply
        );
        d.write(0, b"payload");
        d.enter_self_refresh();
        let out = d.save().unwrap();
        assert!(!out.completed);
        assert!(out.duration < Nanos::from_secs(1));
        assert_eq!(d.state(), DimmState::Off);
        d.power_on();
        assert_eq!(d.restore().unwrap_err(), NvramError::NoValidImage);
    }

    #[test]
    fn agiga_ultracap_covers_at_least_twice_the_save() {
        for gib in [1u64, 2, 4, 8] {
            let d = NvDimm::agiga(ByteSize::gib(gib));
            let save = d.flash().full_save_time();
            let supply = d.ultracap().supply_time(Watts::new(8.0));
            assert!(save.as_secs_f64() < 10.0, "{gib} GiB save {save}");
            assert!(
                supply.as_secs_f64() >= 2.0 * save.as_secs_f64(),
                "{gib} GiB: supply {supply} < 2x save {save}"
            );
        }
    }

    #[test]
    fn fig2_trace_voltage_decays_and_power_steps_down() {
        let d = NvDimm::agiga(ByteSize::gib(1));
        let trace = d.save_trace(Nanos::from_millis(100));
        assert!(trace.len() > 100);
        let first = trace.first().unwrap();
        let last = trace.last().unwrap();
        assert_eq!(first.voltage, Volts::new(12.0));
        assert!(last.voltage < first.voltage);
        assert!(last.save_completed);
        assert!(last.power < first.power);
        // Voltage is non-increasing throughout.
        for w in trace.windows(2) {
            assert!(w[1].voltage <= w[0].voltage);
        }
        // And the module never dips below its 6 V usable floor.
        assert!(trace.iter().all(|p| p.voltage >= Volts::new(6.0)));
    }

    #[test]
    fn unwritten_dram_reads_zero() {
        let d = small();
        let mut buf = [7u8; 16];
        d.read(1 << 20, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn out_of_range_write_panics() {
        let mut d = small();
        d.write(ByteSize::mib(64).as_u64() - 2, b"overflow");
    }

    #[test]
    fn invalidate_image_prevents_second_restore() {
        let mut d = small();
        d.write(0, b"x");
        d.enter_self_refresh();
        d.save().unwrap();
        d.power_loss();
        d.power_on();
        d.restore().unwrap();
        d.invalidate_image();
        d.enter_self_refresh();
        assert_eq!(d.restore().unwrap_err(), NvramError::NoValidImage);
    }

    #[test]
    fn injected_command_fault_fails_then_clears() {
        let mut d = small();
        d.write(0, b"retry me");
        d.inject_save_command_faults(2);
        d.enter_self_refresh();
        assert_eq!(
            d.save().unwrap_err(),
            NvramError::SaveCommandFailed {
                attempts: 1,
                retries: 0,
                backoff: Nanos::ZERO,
            }
        );
        assert_eq!(
            d.save().unwrap_err(),
            NvramError::SaveCommandFailed {
                attempts: 1,
                retries: 0,
                backoff: Nanos::ZERO,
            }
        );
        let out = d.save().unwrap();
        assert!(out.completed, "third attempt succeeds");
    }

    #[test]
    fn torn_valid_image_is_caught_by_checksum() {
        let mut d = small();
        d.write(0, b"head");
        d.write(ByteSize::mib(32).as_u64(), b"tail");
        d.enter_self_refresh();
        d.save().unwrap();
        d.tear_saved_image(ByteSize::mib(1).as_u64());
        d.power_loss();
        d.power_on();
        assert!(matches!(
            d.restore(),
            Err(NvramError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn save_bumps_generation() {
        let mut d = small();
        d.enter_self_refresh();
        d.save().unwrap();
        assert_eq!(d.flash().generation(), 1);
        d.exit_self_refresh().unwrap();
        d.enter_self_refresh();
        d.save().unwrap();
        assert_eq!(d.flash().generation(), 2);
    }

    #[test]
    fn exit_self_refresh_resumes_access() {
        let mut d = small();
        d.enter_self_refresh();
        d.exit_self_refresh().unwrap();
        d.write(0, b"ok");
        // Exiting from Active is a BadState error.
        assert!(matches!(
            d.exit_self_refresh(),
            Err(NvramError::BadState { .. })
        ));
    }
}
