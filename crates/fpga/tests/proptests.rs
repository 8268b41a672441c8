//! Property-based tests for the platform substrate.

use proptest::prelude::*;
use shef_fpga::axi::{beats_for_len, burst_count, split_bursts, Axi4Port, AXI4_MAX_BURST_BYTES};
use shef_fpga::clock::{CostLedger, Cycles};
use shef_fpga::dram::Dram;
use shef_fpga::keystore::{KeyProtection, KeyStore, Puf};
use shef_fpga::shell::Shell;
use shef_fpga::spb::{seal_firmware, Spb};

proptest! {
    #[test]
    fn burst_splitting_covers_exactly(addr in 0u64..1_000_000, len in 0usize..20_000) {
        let bursts = split_bursts(addr, len);
        // The DRAM model counts bursts without building them.
        prop_assert_eq!(burst_count(addr, len), bursts.len() as u64);
        // Total coverage, contiguity, and the 4 KB rule.
        let total: usize = bursts.iter().map(|(_, l)| l).sum();
        prop_assert_eq!(total, len);
        let mut cursor = addr;
        for (a, l) in &bursts {
            prop_assert_eq!(*a, cursor);
            prop_assert!(*l <= AXI4_MAX_BURST_BYTES);
            // A burst never crosses a 4 KB boundary.
            let start_page = a / AXI4_MAX_BURST_BYTES as u64;
            let end_page = (a + *l as u64 - 1) / AXI4_MAX_BURST_BYTES as u64;
            prop_assert_eq!(start_page, end_page);
            cursor += *l as u64;
        }
        let _ = beats_for_len(len);
    }

    #[test]
    fn dram_is_a_memory(ops in proptest::collection::vec(
        (0u64..65_000, proptest::collection::vec(any::<u8>(), 1..300)), 1..30)) {
        // DRAM behaves exactly like a flat byte array under random writes.
        let mut dram = Dram::new(1 << 20);
        let mut reference = vec![0u8; 1 << 20];
        for (addr, data) in &ops {
            dram.write_burst(*addr, data).unwrap();
            reference[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        for (addr, data) in &ops {
            let got = dram.read_burst(*addr, data.len()).unwrap();
            prop_assert_eq!(&got[..], &reference[*addr as usize..*addr as usize + data.len()]);
        }
    }

    #[test]
    fn dram_cost_monotonic_in_size(len_a in 1usize..100_000, len_b in 1usize..100_000) {
        let (small, large) = (len_a.min(len_b), len_a.max(len_b));
        let mut d1 = Dram::new(1 << 20);
        d1.write_burst(0, &vec![0u8; small]).unwrap();
        let mut d2 = Dram::new(1 << 20);
        d2.write_burst(0, &vec![0u8; large]).unwrap();
        prop_assert!(d2.ledger().lane("dram") >= d1.ledger().lane("dram"));
    }

    #[test]
    fn puf_wrap_is_involution_and_device_unique(key in any::<[u8; 32]>(),
                                                serial_a in any::<[u8; 8]>(),
                                                serial_b in any::<[u8; 8]>()) {
        let puf_a = Puf::from_die_serial(&serial_a);
        prop_assert_eq!(puf_a.unwrap_key(&puf_a.wrap(&key)), key);
        if serial_a != serial_b {
            let puf_b = Puf::from_die_serial(&serial_b);
            prop_assert_ne!(puf_a.wrap(&key), puf_b.wrap(&key));
        }
    }

    #[test]
    fn bootrom_accepts_only_matching_key(device_key in any::<[u8; 32]>(),
                                         other_key in any::<[u8; 32]>(),
                                         payload in proptest::collection::vec(any::<u8>(), 1..200)) {
        prop_assume!(device_key != other_key);
        let mut ks = KeyStore::new(b"prop-die");
        ks.burn_aes_key(device_key, KeyProtection::PufWrapped).unwrap();
        let mut spb = Spb::new();
        let good = seal_firmware(&device_key, &payload);
        prop_assert_eq!(spb.boot_rom_measured(&mut ks, &good).unwrap().0, payload.clone());
        // Reset; wrong-key firmware must be rejected.
        spb.reset();
        ks.unlock_on_reset();
        let bad = seal_firmware(&other_key, &payload);
        prop_assert!(spb.boot_rom_measured(&mut ks, &bad).is_err());
    }

    #[test]
    fn shell_interposition_is_transparent_when_honest(
        addr in 0u64..10_000,
        data in proptest::collection::vec(any::<u8>(), 1..500),
    ) {
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 20);
        shell.dma_to_device(&mut dram, addr, &data).unwrap();
        prop_assert_eq!(shell.dma_from_device(&mut dram, addr, data.len()).unwrap(), data.clone());
        let mut read = vec![0u8; data.len()];
        shell.mem_read(&mut dram, addr, &mut read).unwrap();
        prop_assert_eq!(read, data);
    }

    #[test]
    fn ledger_bottleneck_is_max_plus_serial(
        lanes in proptest::collection::vec((any::<u8>(), 0u64..10_000), 0..8),
        serial in 0u64..5_000,
    ) {
        let mut ledger = CostLedger::new();
        ledger.add_serial(Cycles(serial));
        let mut max = 0u64;
        for (lane, cycles) in &lanes {
            ledger.add_busy(&format!("lane-{lane}"), Cycles(*cycles));
        }
        // Recompute expected max per unique lane (they accumulate).
        let mut sums = std::collections::BTreeMap::new();
        for (lane, cycles) in &lanes {
            *sums.entry(lane).or_insert(0u64) += cycles;
        }
        for v in sums.values() {
            max = max.max(*v);
        }
        prop_assert_eq!(ledger.bottleneck(), Cycles(serial + max));
    }

    #[test]
    fn ledger_running_total_is_serial_plus_lanes(
        ops in proptest::collection::vec((0u8..3, 0usize..6, 0u64..1_000_000), 0..64),
    ) {
        // `total_busy` is a running sum: after any mix of charges and
        // merges it must equal the serial term plus every lane, and the
        // lanes must still list in name order, as a reference map does.
        const NAMES: [&str; 6] = [
            "shield.in[0].l1", "dram", "shield.in[0]", "accel", "port.accel.read", "pcie.out",
        ];
        let mut ledger = CostLedger::new();
        let mut other = CostLedger::new();
        let mut lanes = std::collections::BTreeMap::new();
        let mut serial = 0u64;
        for (op, lane, cycles) in &ops {
            match op {
                0 => {
                    ledger.add_busy(NAMES[*lane], Cycles(*cycles));
                    *lanes.entry(NAMES[*lane].to_string()).or_insert(0u64) += cycles;
                }
                1 => {
                    ledger.add_serial(Cycles(*cycles));
                    serial += cycles;
                }
                _ => {
                    // Merge a second ledger that keeps growing, so merges
                    // add lanes both new and already present.
                    other.add_busy(NAMES[(lane + 1) % NAMES.len()], Cycles(*cycles));
                    other.add_serial(Cycles(cycles / 2));
                    ledger.merge(&other);
                    for (name, busy) in other.lanes() {
                        *lanes.entry(name.to_string()).or_insert(0) += busy.0;
                    }
                    serial += other.serial().0;
                }
            }
            let lane_sum: u64 = ledger.lanes().map(|(_, c)| c.0).sum();
            prop_assert_eq!(ledger.total_busy(), Cycles(ledger.serial().0 + lane_sum));
            prop_assert_eq!(ledger.serial(), Cycles(serial));
            let listed: Vec<(&str, u64)> = ledger.lanes().map(|(n, c)| (n, c.0)).collect();
            let expected: Vec<(&str, u64)> = lanes.iter().map(|(n, c)| (n.as_str(), *c)).collect();
            prop_assert_eq!(listed, expected);
        }
    }
}
