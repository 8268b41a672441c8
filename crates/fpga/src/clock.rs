//! Cycle accounting and the bottleneck cost model.
//!
//! The performance side of the simulation uses a *bottleneck-lane* model:
//! every hardware resource (a DMA link, a DRAM channel group, each Shield
//! engine set, the accelerator datapath) is a **lane** that accumulates
//! busy cycles, and strictly serial phases (kernel launch, flushes)
//! accumulate into a serial term. For a steady-state streaming workload
//! the execution time is then
//!
//! ```text
//! T = serial + max over lanes(busy)
//! ```
//!
//! which is exactly the "slowest pipeline stage wins" behaviour the
//! paper's Fig. 5/Fig. 6 overhead curves exhibit: when the configured
//! crypto throughput exceeds the memory system's, overhead ≈ 1×; when it
//! falls short, the crypto lane becomes the bottleneck.

use std::collections::BTreeMap;

/// A count of device clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating addition.
    #[must_use]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl core::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl core::fmt::Display for Cycles {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A fixed-frequency clock domain used to convert cycles to wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDomain {
    freq_hz: u64,
}

impl ClockDomain {
    /// The AWS F1 Shell clock the paper's Shield runs at.
    pub const F1_DEFAULT: ClockDomain = ClockDomain {
        freq_hz: 250_000_000,
    };

    /// Creates a clock domain at the given frequency.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    #[must_use]
    pub fn new(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "clock frequency must be positive");
        ClockDomain { freq_hz }
    }

    /// Frequency in hertz.
    #[must_use]
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Converts cycles to microseconds.
    #[must_use]
    pub fn cycles_to_us(&self, cycles: Cycles) -> f64 {
        cycles.0 as f64 / self.freq_hz as f64 * 1e6
    }

    /// Converts a microsecond duration to cycles (rounding up).
    #[must_use]
    pub fn us_to_cycles(&self, us: f64) -> Cycles {
        Cycles((us * self.freq_hz as f64 / 1e6).ceil() as u64)
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        ClockDomain::F1_DEFAULT
    }
}

/// Accumulates busy cycles per resource lane plus a serial term.
///
/// # Example
///
/// ```
/// use shef_fpga::clock::{CostLedger, Cycles};
///
/// let mut ledger = CostLedger::new();
/// ledger.add_serial(Cycles(100));
/// ledger.add_busy("dram", Cycles(5_000));
/// ledger.add_busy("engine-set-0", Cycles(8_000));
/// assert_eq!(ledger.bottleneck(), Cycles(8_100));
/// assert_eq!(ledger.bottleneck_lane().unwrap(), "engine-set-0");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostLedger {
    lanes: BTreeMap<String, Cycles>,
    serial: Cycles,
    /// Running `serial + Σ lanes`, kept so [`CostLedger::total_busy`] is
    /// O(1): the Shield reads it several times per bus op.
    total: Cycles,
}

impl CostLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Adds busy cycles to a named lane.
    pub fn add_busy(&mut self, lane: &str, cycles: Cycles) {
        self.total += cycles;
        // Look up before inserting: only a lane's first charge allocates
        // its name.
        match self.lanes.get_mut(lane) {
            Some(busy) => *busy += cycles,
            None => {
                self.lanes.insert(lane.to_owned(), cycles);
            }
        }
    }

    /// Adds strictly serial cycles (setup, drain, handshakes).
    pub fn add_serial(&mut self, cycles: Cycles) {
        self.serial += cycles;
        self.total += cycles;
    }

    /// Busy cycles currently attributed to `lane`.
    #[must_use]
    pub fn lane(&self, lane: &str) -> Cycles {
        self.lanes.get(lane).copied().unwrap_or_default()
    }

    /// The serial term.
    #[must_use]
    pub fn serial(&self) -> Cycles {
        self.serial
    }

    /// All lanes and their busy cycles.
    pub fn lanes(&self) -> impl Iterator<Item = (&str, Cycles)> {
        self.lanes.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The modelled execution time: serial + the busiest lane.
    #[must_use]
    pub fn bottleneck(&self) -> Cycles {
        let max_lane = self.lanes.values().copied().max().unwrap_or_default();
        self.serial + max_lane
    }

    /// Name of the busiest lane, if any work was recorded.
    #[must_use]
    pub fn bottleneck_lane(&self) -> Option<&str> {
        self.lanes
            .iter()
            .max_by_key(|(_, v)| **v)
            .map(|(k, _)| k.as_str())
    }

    /// Total busy cycles across every lane whose name starts with
    /// `prefix` — e.g. one engine set's replicated sub-lanes
    /// `shield.in[0]` + `shield.in[0].l0..lN`.
    #[must_use]
    pub fn group_total(&self, prefix: &str) -> Cycles {
        self.lanes
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, c)| *c)
            .sum()
    }

    /// Busiest lane within the `prefix` group: the group's makespan
    /// under the bottleneck model. Zero if the group is empty.
    #[must_use]
    pub fn group_makespan(&self, prefix: &str) -> Cycles {
        self.lanes
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, c)| *c)
            .max()
            .unwrap_or_default()
    }

    /// Serial cycles plus the sum of every lane: a value that advances
    /// on *every* charge, unlike [`CostLedger::bottleneck`], which only
    /// moves when the busiest lane does. This is the deterministic
    /// logical clock used for telemetry span timestamps — monotone,
    /// model-derived, and independent of real thread scheduling.
    #[must_use]
    pub fn total_busy(&self) -> Cycles {
        self.total
    }

    /// Merges another ledger into this one (lane-wise addition).
    pub fn merge(&mut self, other: &CostLedger) {
        self.add_serial(other.serial);
        for (lane, cycles) in &other.lanes {
            self.add_busy(lane, *cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles(2) + Cycles(3), Cycles(5));
        let mut c = Cycles(1);
        c += Cycles(9);
        assert_eq!(c, Cycles(10));
        let sum: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(sum, Cycles(6));
        assert_eq!(Cycles(u64::MAX).saturating_add(Cycles(1)), Cycles(u64::MAX));
    }

    #[test]
    fn clock_conversions() {
        let clk = ClockDomain::new(250_000_000);
        assert_eq!(clk.cycles_to_us(Cycles(250)), 1.0);
        assert_eq!(clk.us_to_cycles(1.0), Cycles(250));
        assert_eq!(
            clk.us_to_cycles(clk.cycles_to_us(Cycles(12_345))),
            Cycles(12_345)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        let _ = ClockDomain::new(0);
    }

    #[test]
    fn ledger_bottleneck_math() {
        let mut l = CostLedger::new();
        assert_eq!(l.bottleneck(), Cycles::ZERO);
        assert_eq!(l.bottleneck_lane(), None);
        l.add_busy("a", Cycles(10));
        l.add_busy("b", Cycles(20));
        l.add_busy("a", Cycles(15));
        l.add_serial(Cycles(5));
        assert_eq!(l.lane("a"), Cycles(25));
        assert_eq!(l.bottleneck(), Cycles(30));
        assert_eq!(l.bottleneck_lane(), Some("a"));
    }

    #[test]
    fn lane_groups_aggregate_by_prefix() {
        let mut l = CostLedger::new();
        l.add_busy("shield.in[0].l0", Cycles(30));
        l.add_busy("shield.in[0].l1", Cycles(50));
        l.add_busy("shield.in[0].l2", Cycles(20));
        l.add_busy("shield.out[1]", Cycles(999));
        assert_eq!(l.group_total("shield.in[0]"), Cycles(100));
        assert_eq!(l.group_makespan("shield.in[0]"), Cycles(50));
        assert_eq!(l.group_total("shield."), Cycles(1099));
        assert_eq!(l.group_makespan("nope"), Cycles::ZERO);
    }

    #[test]
    fn total_busy_advances_on_every_charge() {
        let mut l = CostLedger::new();
        assert_eq!(l.total_busy(), Cycles::ZERO);
        l.add_busy("a", Cycles(10));
        l.add_busy("b", Cycles(3));
        assert_eq!(l.total_busy(), Cycles(13));
        // A charge to a non-bottleneck lane moves total_busy but not
        // bottleneck — that's why spans use total_busy as their clock.
        l.add_busy("b", Cycles(2));
        assert_eq!(l.bottleneck(), Cycles(10));
        assert_eq!(l.total_busy(), Cycles(15));
        l.add_serial(Cycles(4));
        assert_eq!(l.total_busy(), Cycles(19));
    }

    #[test]
    fn ledger_merge() {
        let mut a = CostLedger::new();
        a.add_busy("x", Cycles(10));
        a.add_serial(Cycles(1));
        let mut b = CostLedger::new();
        b.add_busy("x", Cycles(5));
        b.add_busy("y", Cycles(2));
        b.add_serial(Cycles(2));
        a.merge(&b);
        assert_eq!(a.lane("x"), Cycles(15));
        assert_eq!(a.lane("y"), Cycles(2));
        assert_eq!(a.serial(), Cycles(3));
    }
}
