//! Cycle-cost model of the Shield's cryptographic engines.
//!
//! Calibration targets come straight from the paper:
//!
//! * **AES engines** are round-pipelined: with S-box duplication factor
//!   `p`, one round takes `16/p` cycles, and the pipeline sustains one
//!   16-byte block per round-time — `p` bytes/cycle for AES-128.
//!   AES-256 (14 rounds vs 10) sustains proportionally less. This gives
//!   the 4x↔16x separation visible in Fig. 5 and Fig. 6.
//! * **HMAC-SHA256 engines** process a chunk *serially* (Merkle–Damgård):
//!   one engine sustains [`HMAC_BYTES_PER_CYCLE`] on a long message and
//!   adds [`HMAC_FINALIZE_CYCLES`] latency per chunk. Engines only help
//!   across chunks. Large chunks therefore incur long blocking latencies
//!   — the DNNWeaver bottleneck of §6.2.4.
//! * **PMAC engines** are AES-based and block-parallel: work on one
//!   chunk is split across all MAC engines, each sustaining
//!   [`PMAC_BYTES_PER_CYCLE_PER_ENGINE`]. This is why swapping HMAC→PMAC
//!   rescues SDP (Table 2) and DNNWeaver (Fig. 6).
//!
//! Costs are expressed two ways:
//! * `lane` — steady-state occupancy charged to the engine-set lane
//!   (throughput view, used for pipelined streaming);
//! * `latency` — time until the chunk's data is available (used for
//!   blocking access patterns that wait on each chunk).

use shef_crypto::aes::AesKeySize;
use shef_crypto::authenc::MacAlgorithm;
use shef_fpga::clock::Cycles;

use super::config::EngineSetConfig;

/// Sustained bytes/cycle of one HMAC engine on long messages (a wide
/// SHA-256 datapath). With it the SDP configuration with one HMAC engine
/// models a 214 % overhead against the PCIe line rate, where Table 2 of
/// the paper reports ~298 % (the `4xEng/…/HMAC` rows of
/// `bench/paper/table2.txt`).
pub const HMAC_BYTES_PER_CYCLE: u64 = 12;
/// Per-chunk HMAC pipeline bubble in the *throughput* view (consecutive
/// chunks overlap all but the tag emission).
pub const HMAC_CHUNK_BUBBLE: u64 = 4;
/// Full inner/outer finalization latency charged to *blocking*
/// consumers (the DNNWeaver weight-stall path, §6.2.4).
pub const HMAC_FINALIZE_CYCLES: u64 = 72;
/// Sustained bytes/cycle of one PMAC engine (AES-based mask+encrypt
/// datapath). Calibrated so 4 PMAC engines reproduce Table 2's 59 % row.
pub const PMAC_BYTES_PER_CYCLE_PER_ENGINE: u64 = 7;
/// Sustained bytes/cycle of one GHASH engine: a pipelined GF(2^128)
/// multiplier retires one 16-byte block per cycle, and precomputed
/// powers of `H` parallelize a single chunk across engines. Not a paper
/// measurement — the figure for a full-width pipelined multiplier,
/// which is what the GHASH engine's higher LUT cost buys.
pub const GHASH_BYTES_PER_CYCLE_PER_ENGINE: u64 = 16;
/// Lane name for the accelerator-facing read port (buffer → accel).
pub const ACCEL_PORT_READ_LANE: &str = "port.accel.read";
/// Lane name for the accelerator-facing write port (accel → buffer).
pub const ACCEL_PORT_WRITE_LANE: &str = "port.accel.write";
/// Shell-facing AXI4 port width: bytes per cycle per direction (the
/// 512-bit F1 port; reads and writes have independent channels).
pub const SHELL_PORT_BYTES_PER_CYCLE: u64 = 64;
/// Lane name for the Shell-port read channel.
pub const PORT_READ_LANE: &str = "port.read";
/// Lane name for the Shell-port write channel.
pub const PORT_WRITE_LANE: &str = "port.write";
/// Pipeline-fill cycles charged once per chunk on the AES path.
pub const AES_PIPELINE_FILL: u64 = 10;
/// Cycles to move one 64-byte beat between buffer and accelerator.
pub const ONCHIP_BEAT_CYCLES: u64 = 1;

/// Cost of cryptographically processing one chunk access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkCost {
    /// Steady-state engine-set occupancy.
    pub lane: Cycles,
    /// Time until data is available (blocking consumers).
    pub latency: Cycles,
}

impl ChunkCost {
    /// Component-wise sum.
    #[must_use]
    pub fn plus(self, other: ChunkCost) -> ChunkCost {
        ChunkCost {
            lane: self.lane + other.lane,
            latency: self.latency + other.latency,
        }
    }
}

/// Bytes/cycle sustained by the set's AES engines combined.
#[must_use]
pub fn aes_bytes_per_cycle(cfg: &EngineSetConfig) -> u64 {
    // One engine: 16 B per round-time; round-time = 16/p cycles;
    // AES-256 is 10/14 the throughput of AES-128.
    let per_engine_x10 = match cfg.key_size {
        AesKeySize::Aes128 => cfg.sbox.factor() as u64 * 10,
        AesKeySize::Aes256 => cfg.sbox.factor() as u64 * 10 * 10 / 14,
    };
    // Round to the nearest byte/cycle (truncation would turn the
    // 2.86 B/cyc of AES-256/4x into 2, overstating its penalty).
    ((per_engine_x10 * cfg.aes_engines as u64 + 5) / 10).max(1)
}

/// Bytes/cycle sustained by the set's MAC engines combined (across-chunk
/// parallelism for HMAC, within-chunk for PMAC).
#[must_use]
pub fn mac_bytes_per_cycle(cfg: &EngineSetConfig) -> u64 {
    match cfg.mac {
        MacAlgorithm::HmacSha256 => HMAC_BYTES_PER_CYCLE * cfg.mac_engines as u64,
        MacAlgorithm::PmacAes => PMAC_BYTES_PER_CYCLE_PER_ENGINE * cfg.mac_engines as u64,
        MacAlgorithm::AesGcm => GHASH_BYTES_PER_CYCLE_PER_ENGINE * cfg.mac_engines as u64,
    }
}

/// AES cost for `len` bytes of one chunk.
#[must_use]
pub fn aes_chunk_cost(cfg: &EngineSetConfig, len: usize) -> ChunkCost {
    let bpc = aes_bytes_per_cycle(cfg);
    let work = (len as u64).div_ceil(bpc);
    ChunkCost {
        lane: Cycles(work),
        latency: Cycles(work + AES_PIPELINE_FILL * cfg.sbox.cycles_per_round()),
    }
}

/// MAC cost for `len` bytes of one chunk.
#[must_use]
pub fn mac_chunk_cost(cfg: &EngineSetConfig, len: usize) -> ChunkCost {
    match cfg.mac {
        MacAlgorithm::HmacSha256 => {
            // Serial within the chunk: a blocking consumer waits for the
            // full compression chain plus finalization.
            let latency = (len as u64).div_ceil(HMAC_BYTES_PER_CYCLE) + HMAC_FINALIZE_CYCLES;
            // Throughput view: consecutive chunks pipeline through the
            // engine (finalization overlaps the next chunk's stream,
            // leaving a small bubble); engines also divide across chunks.
            let per_chunk = (len as u64).div_ceil(HMAC_BYTES_PER_CYCLE) + HMAC_CHUNK_BUBBLE;
            let lane = per_chunk.div_ceil(cfg.mac_engines as u64);
            ChunkCost {
                lane: Cycles(lane),
                latency: Cycles(latency),
            }
        }
        MacAlgorithm::PmacAes => {
            // Parallel within the chunk: all engines share one chunk.
            let combined = PMAC_BYTES_PER_CYCLE_PER_ENGINE * cfg.mac_engines as u64;
            let work = (len as u64).div_ceil(combined) + AES_PIPELINE_FILL;
            ChunkCost {
                lane: Cycles(work),
                latency: Cycles(work),
            }
        }
        MacAlgorithm::AesGcm => {
            // GHASH is also within-chunk parallel (powers of H), with a
            // higher per-engine rate and a short multiplier pipeline.
            let combined = GHASH_BYTES_PER_CYCLE_PER_ENGINE * cfg.mac_engines as u64;
            let work = (len as u64).div_ceil(combined) + AES_PIPELINE_FILL;
            ChunkCost {
                lane: Cycles(work),
                latency: Cycles(work),
            }
        }
    }
}

/// Full authenticated-encryption cost for one chunk access. Decryption
/// and MAC verification overlap (both consume the same ciphertext
/// stream), so the combined cost is the max of the two paths.
#[must_use]
pub fn chunk_crypto_cost(cfg: &EngineSetConfig, len: usize) -> ChunkCost {
    let aes = aes_chunk_cost(cfg, len);
    let mac = mac_chunk_cost(cfg, len);
    ChunkCost {
        lane: aes.lane.max(mac.lane),
        latency: aes.latency.max(mac.latency),
    }
}

/// Cost of serving `len` bytes from the on-chip buffer (a hit).
#[must_use]
pub fn buffer_hit_cost(len: usize) -> Cycles {
    Cycles((len as u64).div_ceil(64) * ONCHIP_BEAT_CYCLES)
}

/// Occupancy of a batch of chunk-crypto jobs fanned across `lanes`
/// replicated engine groups (the paper's parallel seal/open datapath,
/// §5.2.2/§6).
///
/// Jobs are assigned round-robin (job *i* → lane *i* mod `lanes`), which
/// is deterministic and matches a hardware dispatcher that issues chunks
/// to engine groups in arrival order. Two views come out:
///
/// * **Streaming** — the lanes genuinely overlap, so the batch costs the
///   *makespan* (busiest lane); charge [`BatchCost::per_lane`] to
///   per-lane ledger lanes and let the bottleneck model take the max.
/// * **Blocking** — the consumer stalls on every chunk in order, so
///   replication buys nothing; charge [`BatchCost::serial_latency`] to
///   the ledger's serial term, the same at every lane count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchCost {
    /// Steady-state occupancy per lane, in round-robin assignment order.
    pub per_lane: Vec<Cycles>,
    /// Sum of per-chunk availability latencies (the blocking view).
    pub serial_latency: Cycles,
}

impl BatchCost {
    /// [`parallel_batch_cost`] in place, reusing the per-lane buffer: a
    /// datapath that keeps one `BatchCost` costs batches without
    /// allocating.
    pub(crate) fn recompute(&mut self, cfg: &EngineSetConfig, chunk_lens: &[usize], lanes: usize) {
        let lanes = lanes.max(1);
        self.per_lane.clear();
        self.per_lane.resize(lanes, Cycles::ZERO);
        self.serial_latency = Cycles::ZERO;
        for (i, len) in chunk_lens.iter().enumerate() {
            let cost = chunk_crypto_cost(cfg, *len);
            self.per_lane[i % lanes] += cost.lane;
            self.serial_latency += cost.latency;
        }
    }

    /// The busiest lane's occupancy — what the batch costs when lanes
    /// truly overlap.
    #[must_use]
    pub fn makespan(&self) -> Cycles {
        self.per_lane.iter().copied().max().unwrap_or_default()
    }

    /// Total crypto work across all lanes — what the same batch would
    /// occupy on a single serial engine set.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.per_lane.iter().copied().sum()
    }

    /// Modelled parallel speedup: serial-equivalent work over makespan.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let makespan = self.makespan().0;
        if makespan == 0 {
            1.0
        } else {
            self.total().0 as f64 / makespan as f64
        }
    }

    /// Fraction of the lanes' aggregate capacity the batch actually
    /// used (1.0 = perfectly balanced, →0 = one lane did everything
    /// while the rest idled).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let makespan = self.makespan().0;
        if makespan == 0 || self.per_lane.is_empty() {
            1.0
        } else {
            self.total().0 as f64 / (makespan * self.per_lane.len() as u64) as f64
        }
    }
}

/// Computes the per-lane cost of processing `chunk_lens` (one entry per
/// seal/open job, in dispatch order) across `lanes` engine groups.
#[must_use]
pub fn parallel_batch_cost(cfg: &EngineSetConfig, chunk_lens: &[usize], lanes: usize) -> BatchCost {
    let mut cost = BatchCost::default();
    cost.recompute(cfg, chunk_lens, lanes);
    cost
}

/// Cycles the multi-tenant service's shard arbiter charges for picking
/// and dequeuing one request (compare shard clocks, pop the head, route
/// to the tenant's engine sets). A small fixed cost: the arbiter is a
/// priority mux over per-shard head-of-line registers, not a datapath.
pub const SHARD_ARBITRATION_CYCLES: u64 = 2;

/// Logical-clock advance one dispatched service request contributes to
/// its shard: the arbitration overhead plus the request's own busy
/// cycles, floored at one cycle so the shard clock always makes
/// progress (a zero-length batch must still age the shard, or the
/// min-clock scheduler would starve every other shard).
#[must_use]
pub fn shard_dispatch_cost(request_busy: Cycles) -> Cycles {
    Cycles(SHARD_ARBITRATION_CYCLES + request_busy.0.max(1))
}

/// Cost of hashing one Merkle-tree node block (the Bonsai-Merkle-Tree
/// baseline of §5.2.2). Tree nodes are hashed by a dedicated HMAC
/// engine; blocks are small (tens of bytes), so the per-block
/// finalization latency dominates — which is exactly why a deep tree of
/// serial node verifications hurts blocking consumers.
#[must_use]
pub fn merkle_block_cost(block_len: usize) -> ChunkCost {
    let stream = (block_len as u64).div_ceil(HMAC_BYTES_PER_CYCLE);
    ChunkCost {
        lane: Cycles(stream + HMAC_CHUNK_BUBBLE),
        latency: Cycles(stream + HMAC_FINALIZE_CYCLES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_crypto::aes::SBoxParallelism;

    fn cfg() -> EngineSetConfig {
        EngineSetConfig::default()
    }

    #[test]
    fn aes_throughput_scales_with_parallelism() {
        let mut c = cfg();
        c.sbox = SBoxParallelism::X4;
        assert_eq!(aes_bytes_per_cycle(&c), 4);
        c.sbox = SBoxParallelism::X16;
        assert_eq!(aes_bytes_per_cycle(&c), 16);
        c.aes_engines = 4;
        assert_eq!(aes_bytes_per_cycle(&c), 64);
    }

    #[test]
    fn aes256_is_slower_than_aes128() {
        let mut c128 = cfg();
        c128.sbox = SBoxParallelism::X16;
        let mut c256 = c128.clone();
        c256.key_size = AesKeySize::Aes256;
        assert!(aes_bytes_per_cycle(&c256) < aes_bytes_per_cycle(&c128));
        // Ratio ≈ 10/14.
        assert_eq!(aes_bytes_per_cycle(&c256), 11);
    }

    #[test]
    fn hmac_latency_is_serial_within_chunk() {
        let mut c = cfg();
        c.mac_engines = 4;
        let one = mac_chunk_cost(&c, 4096);
        // Latency unchanged by engine count…
        c.mac_engines = 1;
        let four = mac_chunk_cost(&c, 4096);
        assert_eq!(one.latency, four.latency);
        // …but lane occupancy divides.
        assert!(one.lane < four.lane);
    }

    #[test]
    fn pmac_latency_drops_with_engines() {
        let mut c = cfg();
        c.mac = shef_crypto::authenc::MacAlgorithm::PmacAes;
        c.mac_engines = 1;
        let one = mac_chunk_cost(&c, 4096);
        c.mac_engines = 4;
        let four = mac_chunk_cost(&c, 4096);
        assert!(four.latency < one.latency);
    }

    #[test]
    fn pmac_beats_hmac_latency_on_large_chunks() {
        // The DNNWeaver fix: 4 KB chunks, 4 PMAC engines vs 1 HMAC.
        let mut hmac = cfg();
        hmac.mac_engines = 1;
        let mut pmac = cfg();
        pmac.mac = shef_crypto::authenc::MacAlgorithm::PmacAes;
        pmac.mac_engines = 4;
        assert!(
            mac_chunk_cost(&pmac, 4096).latency < mac_chunk_cost(&hmac, 4096).latency,
            "PMAC×4 must have lower per-chunk latency than HMAC on 4KB chunks"
        );
    }

    #[test]
    fn combined_cost_is_max_of_paths() {
        let c = cfg();
        let total = chunk_crypto_cost(&c, 512);
        let aes = aes_chunk_cost(&c, 512);
        let mac = mac_chunk_cost(&c, 512);
        assert_eq!(total.lane, aes.lane.max(mac.lane));
        assert_eq!(total.latency, aes.latency.max(mac.latency));
    }

    #[test]
    fn buffer_hits_are_cheap() {
        assert!(buffer_hit_cost(512) < chunk_crypto_cost(&cfg(), 512).latency);
        assert_eq!(buffer_hit_cost(64), Cycles(1));
        assert_eq!(buffer_hit_cost(65), Cycles(2));
    }

    #[test]
    fn batch_cost_round_robin_is_deterministic() {
        let c = cfg();
        let lens = vec![512usize; 8];
        let batch = parallel_batch_cost(&c, &lens, 4);
        assert_eq!(batch.per_lane.len(), 4);
        // 8 equal jobs over 4 lanes: every lane gets exactly 2.
        let per_chunk = chunk_crypto_cost(&c, 512).lane;
        for lane in &batch.per_lane {
            assert_eq!(*lane, Cycles(per_chunk.0 * 2));
        }
        assert_eq!(batch.total(), Cycles(per_chunk.0 * 8));
        assert_eq!(batch.makespan(), Cycles(per_chunk.0 * 2));
    }

    #[test]
    fn streaming_makespan_scales_with_lanes() {
        let c = cfg();
        let lens = vec![4096usize; 16];
        let one = parallel_batch_cost(&c, &lens, 1);
        let four = parallel_batch_cost(&c, &lens, 4);
        assert_eq!(one.total(), four.total(), "work is conserved");
        assert_eq!(
            four.makespan().0 * 4,
            one.makespan().0,
            "16 equal chunks over 4 lanes overlap perfectly"
        );
        assert!((four.speedup() - 4.0).abs() < 1e-9);
        assert!((four.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blocking_view_is_lane_count_invariant() {
        let c = cfg();
        let lens = vec![4096usize; 16];
        let one = parallel_batch_cost(&c, &lens, 1);
        let eight = parallel_batch_cost(&c, &lens, 8);
        assert_eq!(
            one.serial_latency, eight.serial_latency,
            "a blocking consumer stalls per chunk; replication buys nothing"
        );
    }

    #[test]
    fn uneven_batches_report_imperfect_utilization() {
        let c = cfg();
        // 5 jobs over 4 lanes: lane 0 does double work.
        let batch = parallel_batch_cost(&c, &[512; 5], 4);
        assert!(batch.speedup() > 2.0 && batch.speedup() < 4.0);
        assert!(batch.utilization() < 1.0);
    }

    #[test]
    fn empty_batch_is_free() {
        let batch = parallel_batch_cost(&cfg(), &[], 4);
        assert_eq!(batch.makespan(), Cycles::ZERO);
        assert_eq!(batch.serial_latency, Cycles::ZERO);
        assert!((batch.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shard_dispatch_always_advances_the_clock() {
        assert_eq!(
            shard_dispatch_cost(Cycles::ZERO),
            Cycles(SHARD_ARBITRATION_CYCLES + 1)
        );
        assert_eq!(
            shard_dispatch_cost(Cycles(100)),
            Cycles(SHARD_ARBITRATION_CYCLES + 100)
        );
    }

    #[test]
    fn zero_lanes_clamps_to_one() {
        let batch = parallel_batch_cost(&cfg(), &[512; 3], 0);
        assert_eq!(batch.per_lane.len(), 1);
    }
}
