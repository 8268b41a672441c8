//! The accelerator-facing bus abstraction.
//!
//! Accelerator models are written once against [`MemoryBus`] and run in
//! two bindings:
//!
//! * [`ShieldedBus`] — traffic flows through the Shield's engine sets,
//!   whose chunk crypto fans across a caller-owned [`WorkerPool`] (the
//!   secured configuration being evaluated; one lane is the serial
//!   engine set);
//! * [`PlainBus`] — traffic goes straight through the Shell to DRAM (the
//!   paper's insecure baseline, the "1×" of every normalized figure).
//!
//! Both charge the same DMA/DRAM/compute costs, so the measured delta is
//! exactly the Shield overhead — mirroring the paper's methodology of
//! comparing `apps/<x>` against `apps/<x>_shield` (Appendix A.6).

use shef_fpga::clock::{CostLedger, Cycles};
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

use super::engine::AccessMode;
use super::pool::WorkerPool;
use super::timing::{PORT_READ_LANE, PORT_WRITE_LANE, SHELL_PORT_BYTES_PER_CYCLE};
use super::Shield;
use crate::ShefError;

/// Device memory + registers + compute accounting, as seen by an
/// accelerator kernel.
pub trait MemoryBus {
    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Implementations fail on unmapped addresses or integrity
    /// violations.
    fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Result<Vec<u8>, ShefError>;

    /// Writes `data` at `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MemoryBus::read`].
    fn write(&mut self, addr: u64, data: &[u8], mode: AccessMode) -> Result<(), ShefError>;

    /// Drains any buffered state to memory (end of kernel).
    ///
    /// # Errors
    ///
    /// Propagates write-back failures.
    fn flush(&mut self) -> Result<(), ShefError>;

    /// Charges `cycles` of accelerator datapath time.
    fn compute(&mut self, cycles: u64);

    /// Reads a plaintext register (accelerator side).
    fn reg_read(&mut self, index: usize) -> u64;

    /// Writes a plaintext register (accelerator side).
    fn reg_write(&mut self, index: usize, value: u64);
}

/// Lane name used for accelerator compute cycles.
pub const ACCEL_LANE: &str = "accel";

/// The shielded binding: every burst is batched through the Shield's
/// engine sets and its chunk crypto fanned across the pool's lanes. The
/// bytes do not depend on the lane count; only the cost model sees the
/// fan-out.
pub struct ShieldedBus<'a> {
    /// The Shield instance in the PR region.
    pub shield: &'a mut Shield,
    /// The CSP Shell.
    pub shell: &'a mut Shell,
    /// Device DRAM.
    pub dram: &'a mut Dram,
    /// Cost accounting for this kernel invocation.
    pub ledger: &'a mut CostLedger,
    /// The worker lanes (replicated engine groups).
    pub pool: &'a WorkerPool,
}

impl MemoryBus for ShieldedBus<'_> {
    fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Result<Vec<u8>, ShefError> {
        self.shield.read(
            self.shell,
            self.dram,
            self.ledger,
            addr,
            len,
            mode,
            self.pool,
        )
    }

    fn write(&mut self, addr: u64, data: &[u8], mode: AccessMode) -> Result<(), ShefError> {
        self.shield.write(
            self.shell,
            self.dram,
            self.ledger,
            addr,
            data,
            mode,
            self.pool,
        )
    }

    fn flush(&mut self) -> Result<(), ShefError> {
        self.shield
            .flush(self.shell, self.dram, self.ledger, self.pool)
    }

    fn compute(&mut self, cycles: u64) {
        self.ledger.add_busy(ACCEL_LANE, Cycles(cycles));
    }

    fn reg_read(&mut self, index: usize) -> u64 {
        self.shield.registers().accel_read(index)
    }

    fn reg_write(&mut self, index: usize, value: u64) {
        self.shield.registers().accel_write(index, value);
    }
}

/// The insecure baseline binding: no encryption, no authentication.
pub struct PlainBus<'a> {
    /// The CSP Shell.
    pub shell: &'a mut Shell,
    /// Device DRAM.
    pub dram: &'a mut Dram,
    /// Cost accounting for this kernel invocation.
    pub ledger: &'a mut CostLedger,
    /// Plaintext register file.
    pub regs: &'a mut [u64],
}

impl MemoryBus for PlainBus<'_> {
    fn read(&mut self, addr: u64, len: usize, _mode: AccessMode) -> Result<Vec<u8>, ShefError> {
        self.ledger.add_busy(
            PORT_READ_LANE,
            Cycles((len as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        let mut buf = vec![0u8; len];
        self.shell.mem_read(self.dram, addr, &mut buf)?;
        Ok(buf)
    }

    fn write(&mut self, addr: u64, data: &[u8], _mode: AccessMode) -> Result<(), ShefError> {
        self.ledger.add_busy(
            PORT_WRITE_LANE,
            Cycles((data.len() as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        Ok(self.shell.mem_write(self.dram, addr, &mut data.to_vec())?)
    }

    fn flush(&mut self) -> Result<(), ShefError> {
        Ok(())
    }

    fn compute(&mut self, cycles: u64) {
        self.ledger.add_busy(ACCEL_LANE, Cycles(cycles));
    }

    fn reg_read(&mut self, index: usize) -> u64 {
        self.regs.get(index).copied().unwrap_or(0)
    }

    fn reg_write(&mut self, index: usize, value: u64) {
        if let Some(slot) = self.regs.get_mut(index) {
            *slot = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::config::{EngineSetConfig, Freshness, MemRange, ShieldConfig};
    use crate::shield::keys::DataEncryptionKey;
    use shef_crypto::ecies::EciesKeyPair;

    #[test]
    fn plain_bus_round_trip() {
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 20);
        let mut ledger = CostLedger::new();
        let mut regs = vec![0u64; 4];
        let mut bus = PlainBus {
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            regs: &mut regs,
        };
        bus.write(0x100, b"plain", AccessMode::Streaming).unwrap();
        assert_eq!(bus.read(0x100, 5, AccessMode::Streaming).unwrap(), b"plain");
        bus.reg_write(2, 77);
        assert_eq!(bus.reg_read(2), 77);
        bus.compute(500);
        bus.flush().unwrap();
        assert_eq!(ledger.lane(ACCEL_LANE), Cycles(500));
        // Plain bus stores plaintext in DRAM — the vulnerability the
        // Shield exists to close.
        assert_eq!(dram.tamper_read(0x100, 5), b"plain");
    }

    #[test]
    fn shielded_bus_round_trip() {
        let config = ShieldConfig::builder()
            .region(
                "scratch",
                MemRange::new(0, 8192),
                EngineSetConfig {
                    zero_fill_writes: true,
                    freshness: Freshness::Counters,
                    buffer_bytes: 1024,
                    ..EngineSetConfig::default()
                },
            )
            .build()
            .unwrap();
        let mut shield = Shield::new(config, EciesKeyPair::from_seed(b"bus")).unwrap();
        let dek = DataEncryptionKey::from_bytes([5u8; 32]);
        let lk = dek.to_load_key(&shield.public_key());
        shield.provision_load_key(&lk).unwrap();

        let mut shell = Shell::new();
        let mut dram = Dram::f1_default();
        let mut ledger = CostLedger::new();
        let pool = WorkerPool::new(1);
        let mut bus = ShieldedBus {
            shield: &mut shield,
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            pool: &pool,
        };
        bus.write(0, b"sensitive!", AccessMode::Streaming).unwrap();
        bus.flush().unwrap();
        assert_eq!(
            bus.read(0, 10, AccessMode::Streaming).unwrap(),
            b"sensitive!"
        );
        bus.compute(10);
        // DRAM never sees the plaintext.
        assert_ne!(dram.tamper_read(0, 10), b"sensitive!");
    }
}
