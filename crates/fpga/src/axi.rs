//! Transaction-level AXI4 and AXI4-Lite port models.
//!
//! The AWS F1 Shell exposes exactly two interfaces to user logic (§2.3,
//! §5.1): "An AXI4-Lite interface, mastered by the Shell, exposes
//! memory-mapped registers … the accelerator and host drive an AXI4 and
//! DMA interface … to access FPGA device memory through the Shell". The
//! ShEF Shield is a wrapper that speaks the same two protocols on both
//! faces, so these traits are the seam where the Shield interposes.

use crate::FpgaError;

/// Width of one AXI4 data beat on the F1 Shell (512 bits).
pub const AXI4_BEAT_BYTES: usize = 64;
/// Maximum bytes in a single AXI4 burst (AXI spec: 4 KB boundary).
pub const AXI4_MAX_BURST_BYTES: usize = 4096;

/// Direction of an AXI4 burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurstKind {
    /// A read burst.
    Read,
    /// A write burst.
    Write,
}

/// A recorded AXI4 burst (used by traces and attack analyses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstRecord {
    /// Start address.
    pub addr: u64,
    /// Length in bytes.
    pub len: usize,
    /// Read or write.
    pub kind: BurstKind,
}

/// A full-bandwidth AXI4 memory port (device DRAM, or the Shield's
/// memory face).
pub trait Axi4Port {
    /// Reads `len` bytes starting at `addr` as one or more bursts.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::Axi`] for out-of-range addresses, and
    /// implementations interposing security checks may return
    /// [`FpgaError::Tamper`] when integrity verification fails.
    fn read_burst(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, FpgaError>;

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Axi4Port::read_burst`].
    fn write_burst(&mut self, addr: u64, data: &[u8]) -> Result<(), FpgaError>;
}

/// A 32-bit AXI4-Lite register port (commands and small data).
pub trait AxiLitePort {
    /// Reads the 32-bit register at byte offset `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::Axi`] for unmapped registers.
    fn read_reg(&mut self, addr: u64) -> Result<u32, FpgaError>;

    /// Writes the 32-bit register at byte offset `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::Axi`] for unmapped registers.
    fn write_reg(&mut self, addr: u64, value: u32) -> Result<(), FpgaError>;
}

/// Splits an arbitrary `(addr, len)` range into AXI4-legal bursts that do
/// not cross 4 KB boundaries.
///
/// # Example
///
/// ```
/// use shef_fpga::axi::split_bursts;
///
/// let bursts = split_bursts(4000, 200);
/// assert_eq!(bursts, vec![(4000, 96), (4096, 104)]);
/// ```
#[must_use]
pub fn split_bursts(addr: u64, len: usize) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    let mut cur = addr;
    let mut remaining = len;
    while remaining > 0 {
        let boundary = (cur / AXI4_MAX_BURST_BYTES as u64 + 1) * AXI4_MAX_BURST_BYTES as u64;
        let take = remaining.min((boundary - cur) as usize);
        out.push((cur, take));
        cur += take as u64;
        remaining -= take;
    }
    out
}

/// Number of bursts [`split_bursts`] cuts `(addr, len)` into, computed
/// without building them.
///
/// ```
/// use shef_fpga::axi::{burst_count, split_bursts};
///
/// assert_eq!(burst_count(4000, 200), split_bursts(4000, 200).len() as u64);
/// assert_eq!(burst_count(4096, 0), 0);
/// ```
#[must_use]
pub fn burst_count(addr: u64, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let page = AXI4_MAX_BURST_BYTES as u64;
    let last = addr + (len as u64 - 1);
    last / page - addr / page + 1
}

/// Number of AXI4 data beats needed to move `len` bytes.
#[must_use]
pub fn beats_for_len(len: usize) -> u64 {
    (len as u64).div_ceil(AXI4_BEAT_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_respects_4k_boundaries() {
        assert_eq!(split_bursts(0, 4096), vec![(0, 4096)]);
        assert_eq!(split_bursts(0, 5000), vec![(0, 4096), (4096, 904)]);
        assert_eq!(split_bursts(4095, 2), vec![(4095, 1), (4096, 1)]);
        assert_eq!(split_bursts(100, 0), Vec::<(u64, usize)>::new());
    }

    #[test]
    fn burst_count_matches_split() {
        for (addr, len) in [
            (0, 4096),
            (0, 5000),
            (4095, 2),
            (100, 0),
            (4096, 1),
            (12_345, 10_000),
        ] {
            assert_eq!(burst_count(addr, len), split_bursts(addr, len).len() as u64);
        }
    }

    #[test]
    fn split_covers_range_exactly() {
        let bursts = split_bursts(12_345, 10_000);
        let total: usize = bursts.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 10_000);
        let mut expect = 12_345u64;
        for (a, l) in bursts {
            assert_eq!(a, expect);
            assert!(l <= AXI4_MAX_BURST_BYTES);
            expect = a + l as u64;
        }
    }

    #[test]
    fn beat_math() {
        assert_eq!(beats_for_len(0), 0);
        assert_eq!(beats_for_len(1), 1);
        assert_eq!(beats_for_len(64), 1);
        assert_eq!(beats_for_len(65), 2);
        assert_eq!(beats_for_len(4096), 64);
    }
}
