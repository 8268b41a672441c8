//! Deterministic stress tests for the parallel worker-pool datapath.
//!
//! A fixed LCG drives long mixed read/write/flush traces over twin
//! engine sets — one on a 1-lane pool (the serial engine set), one fanned
//! across N lanes — across lane counts and integrity schemes. Every read
//! must return the bytes of a plaintext shadow memory that shares no
//! code with the Shield, the lane count must not change a single byte or
//! functional statistic, and the DRAM image (ciphertext, tag arena,
//! Merkle arena) must end up identical.
//!
//! Everything here is deterministic by construction: job→lane
//! assignment is round-robin in dispatch order, so two runs with the
//! same trace and lane count must also produce identical cost ledgers.

use shef_core::shield::config::{EngineSetConfig, MemRange, RegionConfig};
use shef_core::shield::engine::{AccessMode, EngineSet, EngineSetStats};
use shef_core::shield::merkle::MerkleConfig;
use shef_core::shield::{client, DataEncryptionKey, WorkerPool};
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

const REGION_BASE: u64 = 0x1000;
const TAG_BASE: u64 = 0x10_0000;
const MERKLE_BASE: u64 = 0x20_0000;

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[derive(Debug, Clone)]
enum Op {
    Read { offset: u64, len: usize },
    Write { offset: u64, len: usize, fill: u8 },
    Flush,
}

/// A reproducible mixed trace: ~45% reads, ~45% writes, ~10% flushes,
/// spans up to 5 chunks long at arbitrary byte alignment.
fn trace(seed: u64, ops: usize, region_len: u64, chunk: usize) -> Vec<Op> {
    let mut rng = Lcg(seed);
    let max_span = (5 * chunk) as u64;
    (0..ops)
        .map(|_| {
            let kind = rng.below(100);
            let offset = rng.below(region_len - 1);
            let len = (1 + rng.below(max_span)).min(region_len - offset) as usize;
            if kind < 45 {
                Op::Read { offset, len }
            } else if kind < 90 {
                Op::Write {
                    offset,
                    len,
                    fill: rng.below(256) as u8,
                }
            } else {
                Op::Flush
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Scheme {
    MacOnly,
    Counters,
    Merkle,
}

struct Setup {
    es: EngineSet,
    shell: Shell,
    dram: Dram,
    ledger: CostLedger,
}

fn setup(scheme: Scheme, chunk: usize, buffer_lines: usize, region_len: u64) -> Setup {
    let (counters, merkle) = match scheme {
        Scheme::MacOnly => (false, None),
        Scheme::Counters => (true, None),
        Scheme::Merkle => (
            false,
            Some(MerkleConfig {
                arity: 4,
                node_cache_bytes: 512,
            }),
        ),
    };
    let region = RegionConfig {
        name: "stress".into(),
        range: MemRange::new(REGION_BASE, region_len),
        engine_set: EngineSetConfig {
            chunk_size: chunk,
            buffer_bytes: chunk * buffer_lines,
            counters,
            merkle,
            zero_fill_writes: false,
            ..EngineSetConfig::default()
        },
    };
    let dek = DataEncryptionKey::from_bytes([0x51u8; 32]);
    let es = EngineSet::new(region.clone(), 0, TAG_BASE, MERKLE_BASE, &dek);
    let mut dram = Dram::new(1 << 22);
    let enc = client::encrypt_region(&dek, &region, &vec![0u8; region_len as usize], 0);
    dram.tamper_write(REGION_BASE, &enc.ciphertext);
    dram.tamper_write(TAG_BASE, &enc.tags);
    Setup {
        es,
        shell: Shell::new(),
        dram,
        ledger: CostLedger::new(),
    }
}

fn functional(s: EngineSetStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        s.hits,
        s.misses,
        s.writebacks,
        s.integrity_failures,
        s.bytes_read,
        s.bytes_written,
        s.zero_fills,
    )
}

impl Setup {
    fn read(&mut self, pool: &WorkerPool, offset: u64, len: usize) -> Vec<u8> {
        self.es
            .read(
                &mut self.shell,
                &mut self.dram,
                &mut self.ledger,
                REGION_BASE + offset,
                len,
                AccessMode::Streaming,
                pool,
            )
            .unwrap()
    }

    fn write(&mut self, pool: &WorkerPool, offset: u64, data: &[u8]) {
        self.es
            .write(
                &mut self.shell,
                &mut self.dram,
                &mut self.ledger,
                REGION_BASE + offset,
                data,
                AccessMode::Streaming,
                pool,
            )
            .unwrap();
    }

    fn flush(&mut self, pool: &WorkerPool) {
        self.es
            .flush(&mut self.shell, &mut self.dram, &mut self.ledger, pool)
            .unwrap();
    }
}

/// Replays `ops` on a 1-lane setup and on a twin at `lanes`, checking
/// every read against the plaintext shadow and the two twins against
/// each other at every step and in the end state.
fn run_twins(scheme: Scheme, chunk: usize, buffer_lines: usize, lanes: usize, ops: &[Op]) {
    let region_len = 32 * chunk as u64; // M = 32 chunks per trace
    let mut one = setup(scheme, chunk, buffer_lines, region_len);
    let mut par = setup(scheme, chunk, buffer_lines, region_len);
    let one_pool = WorkerPool::new(1);
    let pool = WorkerPool::new(lanes);
    // Provisioned as zeros; every write patches it.
    let mut shadow = vec![0u8; region_len as usize];

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Read { offset, len } => {
                let want = &shadow[offset as usize..offset as usize + len];
                let a = one.read(&one_pool, offset, len);
                assert_eq!(a, want, "payload drift at step {step} (1 lane, {scheme:?})");
                let b = par.read(&pool, offset, len);
                assert_eq!(
                    b, want,
                    "payload drift at step {step} ({lanes} lanes, {scheme:?})"
                );
            }
            Op::Write { offset, len, fill } => {
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                shadow[offset as usize..offset as usize + len].copy_from_slice(&data);
                one.write(&one_pool, offset, &data);
                par.write(&pool, offset, &data);
            }
            Op::Flush => {
                one.flush(&one_pool);
                par.flush(&pool);
            }
        }
        assert_eq!(
            functional(one.es.stats()),
            functional(par.es.stats()),
            "counter drift at step {step} ({lanes} lanes, {scheme:?})"
        );
    }

    // Drain both buffers, then the sealed DRAM images must agree bit
    // for bit: ciphertext, tag arena, and (for Merkle) the node arena.
    one.flush(&one_pool);
    par.flush(&pool);
    assert_eq!(
        one.dram.tamper_read(REGION_BASE, region_len as usize),
        par.dram.tamper_read(REGION_BASE, region_len as usize),
        "sealed region image drift ({lanes} lanes, {scheme:?})"
    );
    assert_eq!(
        one.dram.tamper_read(TAG_BASE, 32 * 1024),
        par.dram.tamper_read(TAG_BASE, 32 * 1024),
        "tag arena drift ({lanes} lanes, {scheme:?})"
    );
    if matches!(scheme, Scheme::Merkle) {
        assert_eq!(
            one.dram.tamper_read(MERKLE_BASE, 32 * 1024),
            par.dram.tamper_read(MERKLE_BASE, 32 * 1024),
            "merkle arena drift ({lanes} lanes)"
        );
    }

    // Lane fan-out must conserve the total crypto work: the sum over
    // the engine set's lane group equals the 1-lane set's single lane.
    let lane_name = one.es.lane().to_owned();
    assert_eq!(
        par.ledger.group_total(&lane_name),
        one.ledger.lane(&lane_name),
        "crypto cycles not conserved ({lanes} lanes, {scheme:?})"
    );
}

#[test]
fn mixed_trace_matches_serial_across_lane_counts() {
    let ops = trace(0xD06F00D, 120, 32 * 256, 256);
    for lanes in [2usize, 3, 4, 8] {
        run_twins(Scheme::MacOnly, 256, 4, lanes, &ops);
    }
}

#[test]
fn mixed_trace_matches_serial_with_counters() {
    let ops = trace(0xC0FFEE, 100, 32 * 256, 256);
    for lanes in [2usize, 4] {
        run_twins(Scheme::Counters, 256, 3, lanes, &ops);
    }
}

#[test]
fn mixed_trace_matches_serial_with_merkle() {
    let ops = trace(0xBEEF, 80, 32 * 256, 256);
    for lanes in [2usize, 4] {
        run_twins(Scheme::Merkle, 256, 3, lanes, &ops);
    }
}

#[test]
fn tiny_buffer_forces_constant_eviction() {
    // A single-line buffer makes every multi-chunk batch exercise the
    // in-batch eviction hazards (seal-before-fill, open-before-seal).
    let ops = trace(0xA5A5A5, 80, 32 * 128, 128);
    for lanes in [2usize, 4] {
        run_twins(Scheme::MacOnly, 128, 1, lanes, &ops);
        run_twins(Scheme::Counters, 128, 1, lanes, &ops);
    }
}

#[test]
fn parallel_replay_is_deterministic() {
    // Same trace + same lane count twice: modelled costs are defined by
    // round-robin dispatch order, never thread scheduling, so the full
    // ledgers — not just the totals — must be identical.
    let ops = trace(0x5EED, 90, 32 * 256, 256);
    let run = || {
        let mut s = setup(Scheme::Counters, 256, 3, 32 * 256);
        let pool = WorkerPool::new(4);
        let mut outputs = Vec::new();
        for op in &ops {
            match *op {
                Op::Read { offset, len } => outputs.push(s.read(&pool, offset, len)),
                Op::Write { offset, len, fill } => {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    s.write(&pool, offset, &data);
                }
                Op::Flush => s.flush(&pool),
            }
        }
        (outputs, s.ledger, s.es.stats())
    };
    let (out_a, ledger_a, stats_a) = run();
    let (out_b, ledger_b, stats_b) = run();
    assert_eq!(out_a, out_b);
    assert_eq!(
        ledger_a, ledger_b,
        "parallel cost model is nondeterministic"
    );
    assert_eq!(functional(stats_a), functional(stats_b));
    assert_eq!(stats_a.lane_cycles_max, stats_b.lane_cycles_max);
    assert_eq!(stats_a.queue_depth_hwm, stats_b.queue_depth_hwm);
}
