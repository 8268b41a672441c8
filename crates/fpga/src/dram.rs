//! Device DRAM: a sparse 64 GB memory with bandwidth/latency accounting.
//!
//! F1 attaches 64 GB of DDR4 to each FPGA over four channels (§2.3). Per
//! the threat model, "any off-chip memory … can be compromised": the
//! adversary sees and may rewrite every byte. [`Dram::tamper_read`] and
//! [`Dram::tamper_write`] model that access path (no cost accounting —
//! the adversary is not part of the datapath).

use std::collections::HashMap;

use shef_telemetry::{Counter, Telemetry};

use crate::axi::{burst_count, Axi4Port};
use crate::clock::{CostLedger, Cycles};
use crate::FpgaError;

const PAGE_SIZE: usize = 4096;

/// Timing parameters of the device memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Aggregate bandwidth in bytes per device cycle. Four DDR4-2133
    /// channels ≈ 64 GB/s at a 250 MHz fabric clock → 256 B/cycle.
    pub bytes_per_cycle: u64,
    /// Per-burst *occupancy* overhead charged to the bandwidth lane
    /// (command/row activation slots). True access latency is much
    /// higher (~60 ns) but overlaps across banks and is hidden by the
    /// streaming engines, so only the occupancy slot costs throughput.
    pub burst_latency: Cycles,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            bytes_per_cycle: 256,
            burst_latency: Cycles(2),
        }
    }
}

/// Traffic counters for the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total bytes read through the AXI datapath.
    pub bytes_read: u64,
    /// Total bytes written through the AXI datapath.
    pub bytes_written: u64,
    /// Number of read bursts.
    pub read_bursts: u64,
    /// Number of write bursts.
    pub write_bursts: u64,
}

/// Pre-resolved telemetry handles for the DRAM traffic counters.
#[derive(Debug, Clone)]
struct DramTelemetry {
    bytes_read: Counter,
    bytes_written: Counter,
    read_bursts: Counter,
    write_bursts: Counter,
}

impl DramTelemetry {
    fn bind(t: &Telemetry) -> Self {
        DramTelemetry {
            bytes_read: t.counter("fpga.dram.bytes_read"),
            bytes_written: t.counter("fpga.dram.bytes_written"),
            read_bursts: t.counter("fpga.dram.read_bursts"),
            write_bursts: t.counter("fpga.dram.write_bursts"),
        }
    }
}

/// The simulated device DRAM.
///
/// Unwritten bytes read as zero, like freshly-initialized DDR4 after the
/// Shell's memory scrubber.
pub struct Dram {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    size: u64,
    timing: DramTiming,
    stats: DramStats,
    ledger: CostLedger,
    tele: Option<DramTelemetry>,
}

impl core::fmt::Debug for Dram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Dram")
            .field("size", &self.size)
            .field("resident_pages", &self.pages.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Dram {
    /// Creates a DRAM of `size` bytes with default timing.
    #[must_use]
    pub fn new(size: u64) -> Self {
        Self::with_timing(size, DramTiming::default())
    }

    /// Creates the standard F1 64 GB device memory.
    #[must_use]
    pub fn f1_default() -> Self {
        Self::new(64 << 30)
    }

    /// Creates a DRAM with explicit timing parameters.
    #[must_use]
    pub fn with_timing(size: u64, timing: DramTiming) -> Self {
        Dram {
            pages: HashMap::new(),
            size,
            timing,
            stats: DramStats::default(),
            ledger: CostLedger::new(),
            tele: None,
        }
    }

    /// Mirror the traffic counters into `telemetry` as
    /// `fpga.dram.{bytes_read,bytes_written,read_bursts,write_bursts}`.
    /// Tamper accesses stay invisible, exactly like [`Dram::stats`].
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = Some(DramTelemetry::bind(telemetry));
    }

    /// Memory size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Traffic statistics so far.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The accumulated cost ledger (lane `"dram"`).
    #[must_use]
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Resets statistics and cost accounting (not contents).
    pub fn reset_accounting(&mut self) {
        self.stats = DramStats::default();
        self.ledger = CostLedger::new();
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(), FpgaError> {
        let end = addr
            .checked_add(len as u64)
            .ok_or_else(|| FpgaError::Axi("address overflow".into()))?;
        if end > self.size {
            return Err(FpgaError::Axi(format!(
                "access [{addr:#x}, {end:#x}) beyond DRAM size {:#x}",
                self.size
            )));
        }
        Ok(())
    }

    fn raw_read(&self, addr: u64, buf: &mut [u8]) {
        let mut offset = 0usize;
        while offset < buf.len() {
            let a = addr + offset as u64;
            let page = a / PAGE_SIZE as u64;
            let in_page = (a % PAGE_SIZE as u64) as usize;
            let take = (buf.len() - offset).min(PAGE_SIZE - in_page);
            if let Some(p) = self.pages.get(&page) {
                buf[offset..offset + take].copy_from_slice(&p[in_page..in_page + take]);
            } else {
                buf[offset..offset + take].fill(0);
            }
            offset += take;
        }
    }

    fn raw_write(&mut self, addr: u64, data: &[u8]) {
        let mut offset = 0usize;
        while offset < data.len() {
            let a = addr + offset as u64;
            let page = a / PAGE_SIZE as u64;
            let in_page = (a % PAGE_SIZE as u64) as usize;
            let take = (data.len() - offset).min(PAGE_SIZE - in_page);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[in_page..in_page + take].copy_from_slice(&data[offset..offset + take]);
            offset += take;
        }
    }

    fn charge(&mut self, len: usize, bursts: u64) {
        let transfer = Cycles((len as u64).div_ceil(self.timing.bytes_per_cycle));
        let latency = Cycles(self.timing.burst_latency.0 * bursts);
        self.ledger.add_busy("dram", transfer + latency);
    }

    /// Adversarial read: full visibility into memory, no cost accounting.
    #[must_use]
    pub fn tamper_read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.raw_read(addr, &mut buf);
        buf
    }

    /// [`Axi4Port::read_burst`] into the caller's buffer: reads
    /// `buf.len()` bytes at `addr`, with the same checks and charges.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::Axi`] for out-of-range addresses.
    pub fn read_burst_into(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), FpgaError> {
        let len = buf.len();
        self.check_range(addr, len)?;
        let bursts = burst_count(addr, len);
        self.raw_read(addr, buf);
        self.stats.bytes_read += len as u64;
        self.stats.read_bursts += bursts;
        if let Some(tele) = &self.tele {
            tele.bytes_read.add(len as u64);
            tele.read_bursts.add(bursts);
        }
        self.charge(len, bursts);
        Ok(())
    }

    /// Adversarial write: modifies memory contents directly, modelling a
    /// physical attack on the DDR bus or a malicious Shell.
    pub fn tamper_write(&mut self, addr: u64, data: &[u8]) {
        self.raw_write(addr, data);
    }
}

impl Axi4Port for Dram {
    fn read_burst(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, FpgaError> {
        let mut buf = vec![0u8; len];
        self.read_burst_into(addr, &mut buf)?;
        Ok(buf)
    }

    fn write_burst(&mut self, addr: u64, data: &[u8]) -> Result<(), FpgaError> {
        self.check_range(addr, data.len())?;
        let bursts = burst_count(addr, data.len());
        self.raw_write(addr, data);
        self.stats.bytes_written += data.len() as u64;
        self.stats.write_bursts += bursts;
        if let Some(tele) = &self.tele {
            tele.bytes_written.add(data.len() as u64);
            tele.write_bursts.add(bursts);
        }
        self.charge(data.len(), bursts);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut dram = Dram::new(1 << 20);
        dram.write_burst(0x1000, b"hello fpga").unwrap();
        assert_eq!(dram.read_burst(0x1000, 10).unwrap(), b"hello fpga");
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut dram = Dram::new(1 << 20);
        assert_eq!(dram.read_burst(0x5000, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn cross_page_access() {
        let mut dram = Dram::new(1 << 20);
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        dram.write_burst(4090, &data).unwrap();
        assert_eq!(dram.read_burst(4090, 10_000).unwrap(), data);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dram = Dram::new(4096);
        assert!(dram.read_burst(4090, 10).is_err());
        assert!(dram.write_burst(u64::MAX, &[1]).is_err());
        // Boundary access is fine.
        assert!(dram.write_burst(4088, &[0u8; 8]).is_ok());
    }

    #[test]
    fn stats_accumulate() {
        let mut dram = Dram::new(1 << 20);
        dram.write_burst(0, &[0u8; 5000]).unwrap();
        let _ = dram.read_burst(0, 100).unwrap();
        let s = dram.stats();
        assert_eq!(s.bytes_written, 5000);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.write_bursts, 2); // 5000 B crosses one 4 KB boundary
        assert_eq!(s.read_bursts, 1);
    }

    #[test]
    fn timing_charged_to_dram_lane() {
        let mut dram = Dram::with_timing(
            1 << 20,
            DramTiming {
                bytes_per_cycle: 64,
                burst_latency: Cycles(10),
            },
        );
        dram.write_burst(0, &[0u8; 6400]).unwrap();
        // 6400/64 = 100 transfer cycles + 2 bursts * 10 latency.
        assert_eq!(dram.ledger().lane("dram"), Cycles(120));
        dram.reset_accounting();
        assert_eq!(dram.ledger().lane("dram"), Cycles::ZERO);
    }

    #[test]
    fn telemetry_mirrors_traffic_but_not_tampering() {
        let t = Telemetry::new();
        let mut dram = Dram::new(1 << 20);
        dram.attach_telemetry(&t);
        dram.write_burst(0, &[0u8; 5000]).unwrap();
        let _ = dram.read_burst(0, 100).unwrap();
        dram.tamper_write(0, b"evil");
        let r = t.report();
        assert_eq!(r.counters["fpga.dram.bytes_written"], 5000);
        assert_eq!(r.counters["fpga.dram.bytes_read"], 100);
        assert_eq!(r.counters["fpga.dram.write_bursts"], 2);
        assert_eq!(r.counters["fpga.dram.read_bursts"], 1);
    }

    #[test]
    fn tamper_bypasses_accounting() {
        let mut dram = Dram::new(1 << 20);
        dram.tamper_write(0x100, b"evil");
        assert_eq!(dram.tamper_read(0x100, 4), b"evil");
        assert_eq!(dram.stats(), DramStats::default());
        // And the tampered data is visible through the normal path.
        assert_eq!(dram.read_burst(0x100, 4).unwrap(), b"evil");
    }
}
