//! The CSP Shell: untrusted static logic between host and accelerator.
//!
//! §2.3–§2.4: the Shell "provides the accelerator with virtualized
//! peripherals", owns the DMA engine and every I/O port — and in ShEF's
//! threat model it is *adversarial*: "the adversary is able to control
//! privileged FPGA logic, such as the AWS F1 Shell" and can "intercept
//! traffic via the Shell logic".
//!
//! [`Interposer`] is the attack surface: a test (or `shef-core::attacks`)
//! installs one to observe and mutate every transaction the Shell
//! forwards. The Shield's security argument is precisely that no
//! interposer can violate confidentiality/integrity without detection.

use crate::axi::Axi4Port;
use crate::clock::{CostLedger, Cycles};
use crate::dram::Dram;
use crate::FpgaError;

/// A man-in-the-middle hook over Shell-forwarded traffic.
///
/// All methods default to pass-through; attacks override the ones they
/// need. Data buffers are mutable so the interposer can tamper in place.
pub trait Interposer {
    /// Called on host→device DMA writes before data reaches DRAM.
    fn on_dma_to_device(&mut self, _addr: u64, _data: &mut Vec<u8>) {}
    /// Called on device→host DMA reads after data leaves DRAM.
    fn on_dma_from_device(&mut self, _addr: u64, _data: &mut Vec<u8>) {}
    /// Called on host register writes toward the design.
    fn on_reg_write(&mut self, _addr: u64, _value: &mut u32) {}
    /// Called on host register reads from the design.
    fn on_reg_read(&mut self, _addr: u64, _value: &mut u32) {}
    /// Called on accelerator-side DRAM reads (the Shell proxies the AXI4
    /// memory port too), on the reader's buffer.
    fn on_mem_read(&mut self, _addr: u64, _data: &mut [u8]) {}
    /// Called on accelerator-side DRAM writes, on the writer's buffer.
    fn on_mem_write(&mut self, _addr: u64, _data: &mut [u8]) {}
}

/// A no-op interposer (honest Shell).
#[derive(Debug, Default, Clone, Copy)]
pub struct HonestShell;

impl Interposer for HonestShell {}

/// The Shell logic.
pub struct Shell {
    interposer: Box<dyn Interposer>,
    dma_bytes_in: u64,
    dma_bytes_out: u64,
}

impl core::fmt::Debug for Shell {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shell")
            .field("dma_bytes_in", &self.dma_bytes_in)
            .field("dma_bytes_out", &self.dma_bytes_out)
            .finish_non_exhaustive()
    }
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

impl Shell {
    /// Creates an honest Shell.
    #[must_use]
    pub fn new() -> Self {
        Shell {
            interposer: Box::new(HonestShell),
            dma_bytes_in: 0,
            dma_bytes_out: 0,
        }
    }

    /// Installs an interposer (compromises the Shell).
    pub fn set_interposer(&mut self, interposer: Box<dyn Interposer>) {
        self.interposer = interposer;
    }

    /// Restores the honest Shell.
    pub fn clear_interposer(&mut self) {
        self.interposer = Box::new(HonestShell);
    }

    /// Total host→device DMA bytes.
    #[must_use]
    pub fn dma_bytes_in(&self) -> u64 {
        self.dma_bytes_in
    }

    /// Total device→host DMA bytes.
    #[must_use]
    pub fn dma_bytes_out(&self) -> u64 {
        self.dma_bytes_out
    }

    /// Host→device DMA: moves `data` into DRAM at `addr` through the
    /// (possibly adversarial) Shell.
    ///
    /// # Errors
    ///
    /// Propagates [`FpgaError::Axi`] range errors from DRAM.
    pub fn dma_to_device(
        &mut self,
        dram: &mut Dram,
        addr: u64,
        data: &[u8],
    ) -> Result<(), FpgaError> {
        let mut buf = data.to_vec();
        self.interposer.on_dma_to_device(addr, &mut buf);
        self.dma_bytes_in += buf.len() as u64;
        dram.write_burst(addr, &buf)
    }

    /// Device→host DMA: reads `len` bytes from DRAM at `addr` through
    /// the Shell.
    ///
    /// # Errors
    ///
    /// Propagates [`FpgaError::Axi`] range errors from DRAM.
    pub fn dma_from_device(
        &mut self,
        dram: &mut Dram,
        addr: u64,
        len: usize,
    ) -> Result<Vec<u8>, FpgaError> {
        let mut buf = dram.read_burst(addr, len)?;
        self.interposer.on_dma_from_device(addr, &mut buf);
        self.dma_bytes_out += buf.len() as u64;
        Ok(buf)
    }

    /// Accelerator-side memory read into `buf`, interposed. The design's
    /// AXI4 master reaches DRAM only through the Shell; reading into the
    /// caller's buffer lets a 16-byte tag land in an array, not a `Vec`.
    ///
    /// # Errors
    ///
    /// Propagates DRAM range errors.
    pub fn mem_read(
        &mut self,
        dram: &mut Dram,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<(), FpgaError> {
        dram.read_burst_into(addr, buf)?;
        self.interposer.on_mem_read(addr, buf);
        Ok(())
    }

    /// Accelerator-side memory write, interposed. The interposer rewrites
    /// `data` in place before it reaches DRAM, so the caller's buffer
    /// ends up holding what was stored; pass a copy to keep the
    /// original.
    ///
    /// # Errors
    ///
    /// Propagates DRAM range errors.
    pub fn mem_write(
        &mut self,
        dram: &mut Dram,
        addr: u64,
        data: &mut [u8],
    ) -> Result<(), FpgaError> {
        self.interposer.on_mem_write(addr, data);
        dram.write_burst(addr, data)
    }

    /// Forwards a host register write to the design's AXI4-Lite port,
    /// interposed, charging one Shell-crossing handshake.
    ///
    /// # Errors
    ///
    /// Propagates the design's register-port errors.
    pub fn reg_write(
        &mut self,
        design: &mut dyn crate::axi::AxiLitePort,
        ledger: &mut CostLedger,
        addr: u64,
        mut value: u32,
    ) -> Result<(), FpgaError> {
        self.interposer.on_reg_write(addr, &mut value);
        ledger.add_serial(Cycles(4));
        design.write_reg(addr, value)
    }

    /// Forwards a host register read, interposed.
    ///
    /// # Errors
    ///
    /// Propagates the design's register-port errors.
    pub fn reg_read(
        &mut self,
        design: &mut dyn crate::axi::AxiLitePort,
        ledger: &mut CostLedger,
        addr: u64,
    ) -> Result<u32, FpgaError> {
        let mut value = design.read_reg(addr)?;
        self.interposer.on_reg_read(addr, &mut value);
        ledger.add_serial(Cycles(4));
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::AxiLitePort;

    struct FlipFirstByte;
    impl Interposer for FlipFirstByte {
        fn on_dma_to_device(&mut self, _addr: u64, data: &mut Vec<u8>) {
            if let Some(b) = data.first_mut() {
                *b ^= 0xff;
            }
        }
        fn on_mem_read(&mut self, _addr: u64, data: &mut [u8]) {
            if let Some(b) = data.first_mut() {
                *b ^= 0xff;
            }
        }
    }

    struct DummyRegs {
        last: u32,
    }
    impl AxiLitePort for DummyRegs {
        fn read_reg(&mut self, _addr: u64) -> Result<u32, FpgaError> {
            Ok(self.last)
        }
        fn write_reg(&mut self, _addr: u64, value: u32) -> Result<(), FpgaError> {
            self.last = value;
            Ok(())
        }
    }

    #[test]
    fn honest_shell_passes_data_through() {
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 20);
        shell.dma_to_device(&mut dram, 0, b"payload").unwrap();
        assert_eq!(shell.dma_from_device(&mut dram, 0, 7).unwrap(), b"payload");
        assert_eq!(shell.dma_bytes_in(), 7);
        assert_eq!(shell.dma_bytes_out(), 7);
    }

    #[test]
    fn interposer_tampers_with_dma() {
        let mut shell = Shell::new();
        shell.set_interposer(Box::new(FlipFirstByte));
        let mut dram = Dram::new(1 << 20);
        shell.dma_to_device(&mut dram, 0, &[0x00, 0x01]).unwrap();
        // The Shell corrupted the first byte on the way in.
        assert_eq!(dram.tamper_read(0, 2), vec![0xff, 0x01]);
    }

    #[test]
    fn interposer_tampers_with_mem_reads() {
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 20);
        dram.tamper_write(0, &[0xaa, 0xbb]);
        shell.set_interposer(Box::new(FlipFirstByte));
        let mut buf = [0u8; 2];
        shell.mem_read(&mut dram, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x55, 0xbb]);
        shell.clear_interposer();
        shell.mem_read(&mut dram, 0, &mut buf).unwrap();
        assert_eq!(buf, [0xaa, 0xbb]);
    }

    #[test]
    fn register_path_charges_serial_cycles() {
        let mut shell = Shell::new();
        let mut regs = DummyRegs { last: 0 };
        let mut ledger = CostLedger::new();
        shell.reg_write(&mut regs, &mut ledger, 0x10, 42).unwrap();
        assert_eq!(shell.reg_read(&mut regs, &mut ledger, 0x10).unwrap(), 42);
        assert_eq!(ledger.serial(), Cycles(8));
    }
}
