//! Engine-set runtime: the per-region datapath of the Shield.
//!
//! One [`EngineSet`] guards one memory region (§5.2.2): it holds the
//! region's AES/MAC engines, an optional on-chip buffer ("a cache with a
//! line size of `C_mem`"), and optional freshness counters. All DRAM
//! traffic flows through the (untrusted, interposable) Shell.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use shef_telemetry::{Counter, Gauge, Histogram, Scope, Telemetry};

use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

use super::chunk::{ChunkCipher, CHUNK_TAG_LEN};
use super::config::RegionConfig;
use super::keys::DataEncryptionKey;
use super::lru::LruMap;
use super::merkle::{MerkleStats, MerkleTree};
use super::pool::WorkerPool;
use super::timing::{
    buffer_hit_cost, BatchCost, ACCEL_PORT_READ_LANE, ACCEL_PORT_WRITE_LANE, PORT_READ_LANE,
    PORT_WRITE_LANE, SHELL_PORT_BYTES_PER_CYCLE,
};
use crate::ShefError;
use shef_fpga::clock::Cycles;

/// How an accelerator consumes an access, for the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Pipelined streaming: the accelerator overlaps crypto with
    /// compute; cost is engine-set occupancy.
    #[default]
    Streaming,
    /// Blocking: the accelerator stalls until the chunk is verified
    /// (DNNWeaver's weight reads, §6.2.4); cost is serial latency.
    Blocking,
}

/// Counters exposed for tests and the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSetStats {
    /// Buffer hits.
    pub hits: u64,
    /// Buffer misses (chunk fills from DRAM).
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Integrity failures detected.
    pub integrity_failures: u64,
    /// Plaintext bytes served to the accelerator.
    pub bytes_read: u64,
    /// Plaintext bytes accepted from the accelerator.
    pub bytes_written: u64,
    /// Zero-filled write allocations (streaming-write optimization).
    pub zero_fills: u64,
    /// Batch operations dispatched to the worker pool.
    pub parallel_batches: u64,
    /// Chunk seal/open jobs issued by batch operations.
    pub parallel_jobs: u64,
    /// Lanes used by the most recent batch operation.
    pub lanes: u64,
    /// Most crypto jobs in flight within a single batch (queue-depth
    /// high-water mark of the lane dispatcher).
    pub queue_depth_hwm: u64,
    /// Modelled crypto cycles summed over every batch job — what the
    /// same work would occupy on a 1-lane engine set.
    pub lane_cycles_total: u64,
    /// Modelled crypto cycles of the busiest lane, accumulated batch by
    /// batch — the parallel makespan actually charged to the ledger.
    pub lane_cycles_max: u64,
    /// Worker-lane panics observed by the batch datapath, including
    /// panics repeated on the bounded inline retry.
    pub lane_panics: u64,
    /// Panicked crypto jobs that succeeded on the bounded inline retry
    /// (transient faults absorbed without surfacing an error).
    pub recovered_retries: u64,
    /// Victim seals recomputed inline after a job failed its retry —
    /// the guaranteed-drain path that keeps evicted chunks from being
    /// lost to a dead lane.
    pub drained_seals: u64,
    /// Operations rejected because the engine set was poisoned by a
    /// previously detected integrity violation.
    pub contained_rejects: u64,
}

impl EngineSetStats {
    /// Modelled speedup of the lane fan-out over a single lane:
    /// 1-lane-equivalent work divided by the accumulated makespan.
    /// Clamped to 1.0 when no batch work has been dispatched (or the
    /// ratio is otherwise undefined) so callers can feed it straight
    /// into reports without NaN/inf guards.
    #[must_use]
    pub fn parallel_speedup(&self) -> f64 {
        if self.lane_cycles_max == 0 {
            return 1.0;
        }
        let speedup = self.lane_cycles_total as f64 / self.lane_cycles_max as f64;
        if speedup.is_finite() {
            speedup
        } else {
            1.0
        }
    }

    /// Fraction of the lanes' aggregate capacity the batch work kept
    /// busy (1.0 = perfectly balanced across lanes). Clamped to 1.0
    /// when no batch work has been dispatched. The denominator is
    /// computed in f64: `lane_cycles_max * lanes` as u64 could overflow
    /// on long campaigns (panic in debug builds, a wrapped — and thus
    /// wildly wrong — utilization in release).
    #[must_use]
    pub fn lane_utilization(&self) -> f64 {
        if self.lane_cycles_max == 0 || self.lanes == 0 {
            return 1.0;
        }
        let util =
            self.lane_cycles_total as f64 / (self.lane_cycles_max as f64 * self.lanes as f64);
        if util.is_finite() {
            util
        } else {
            1.0
        }
    }
}

/// Pre-resolved telemetry handles for one engine set.
///
/// Bound to a private detached registry at construction, so the hot
/// path never branches on "is telemetry attached"; [`EngineSet::attach_telemetry`]
/// rebinds the handles onto a shared registry. Counter names aggregate
/// across regions (every set increments the same `shield.engine.*`
/// instruments), and every value mirrored here is model-derived, so
/// reports stay byte-identical run to run.
#[derive(Debug, Clone)]
struct EngineTelemetry {
    walk: Scope,
    crypto: Scope,
    landing: Scope,
    hits: Counter,
    misses: Counter,
    writebacks: Counter,
    evictions: Counter,
    integrity_failures: Counter,
    zero_fills: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    contained_rejects: Counter,
    lane_panics: Counter,
    recovered_retries: Counter,
    drained_seals: Counter,
    parallel_batches: Counter,
    parallel_jobs: Counter,
    lanes: Gauge,
    queue_depth_hwm: Gauge,
    batch_jobs: Histogram,
}

impl EngineTelemetry {
    /// Job-count buckets for the per-batch histogram: small batches
    /// dominate register-file traffic, 256 chunks is already a full
    /// working-set sweep.
    const BATCH_JOB_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 256];

    fn bind(t: &Telemetry) -> Self {
        EngineTelemetry {
            walk: t.scope("shield.engine.walk"),
            crypto: t.scope("shield.engine.crypto"),
            landing: t.scope("shield.engine.landing"),
            hits: t.counter("shield.engine.hits"),
            misses: t.counter("shield.engine.misses"),
            writebacks: t.counter("shield.engine.writebacks"),
            evictions: t.counter("shield.engine.evictions"),
            integrity_failures: t.counter("shield.engine.integrity_failures"),
            zero_fills: t.counter("shield.engine.zero_fills"),
            bytes_read: t.counter("shield.engine.bytes_read"),
            bytes_written: t.counter("shield.engine.bytes_written"),
            contained_rejects: t.counter("shield.engine.contained_rejects"),
            lane_panics: t.counter("shield.engine.lane_panics"),
            recovered_retries: t.counter("shield.engine.recovered_retries"),
            drained_seals: t.counter("shield.engine.drained_seals"),
            parallel_batches: t.counter("shield.engine.parallel_batches"),
            parallel_jobs: t.counter("shield.engine.parallel_jobs"),
            lanes: t.gauge("shield.engine.lanes"),
            queue_depth_hwm: t.gauge("shield.engine.queue_depth_hwm"),
            batch_jobs: t.histogram("shield.engine.batch_jobs", &Self::BATCH_JOB_BOUNDS),
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    data: Vec<u8>,
    dirty: bool,
}

/// The runtime state of one engine set.
pub struct EngineSet {
    region: RegionConfig,
    tag_base: u64,
    /// Shared with every batch's lane closure behind one `Arc`, so a
    /// batch captures a refcount instead of copying the key schedule.
    cipher: Arc<ChunkCipher>,
    lane: String,
    /// The last batch's crypto cost, recomputed in place per batch.
    batch_cost: BatchCost,
    /// Resident lines in LRU order.
    lines: LruMap<Line>,
    capacity_lines: usize,
    /// Staging buffers, reused by every batch operation. Boxed so an
    /// operation takes it by moving a pointer; `None` before the first
    /// operation and while one runs.
    plan: Option<Box<BatchPlan>>,
    counters: HashMap<u32, u64>,
    merkle: Option<MerkleTree>,
    stats: EngineSetStats,
    tele: EngineTelemetry,
    /// Fail-stop containment: set on the first detected integrity
    /// violation; every access is rejected until explicitly cleared.
    poisoned: bool,
}

impl core::fmt::Debug for EngineSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineSet")
            .field("region", &self.region.name)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl EngineSet {
    /// Builds the engine set for `region`, deriving its working keys from
    /// the provisioned Data Encryption Key. `merkle_base` is the DRAM
    /// address of the region's tree arena, used only when the engine set
    /// selects the Bonsai-Merkle-Tree replay defence.
    #[must_use]
    pub fn new(
        region: RegionConfig,
        region_index: usize,
        tag_base: u64,
        merkle_base: u64,
        dek: &DataEncryptionKey,
    ) -> Self {
        let chunk = region.engine_set.chunk_size;
        let capacity_lines = if region.engine_set.buffer_bytes == 0 {
            // No buffer: a single in-flight chunk register.
            1
        } else {
            (region.engine_set.buffer_bytes / chunk).max(1)
        };
        let lane = format!("shield.{}[{}]", region.name, region_index);
        let merkle = region.engine_set.merkle.map(|cfg| {
            let chunks = region.range.len.div_ceil(chunk as u64);
            MerkleTree::new(
                cfg,
                dek.region_tree_key(&region),
                merkle_base,
                chunks,
                &lane,
            )
        });
        EngineSet {
            lane,
            batch_cost: BatchCost::default(),
            cipher: Arc::new(ChunkCipher::for_region(dek, &region)),
            region,
            tag_base,
            lines: LruMap::default(),
            capacity_lines,
            plan: None,
            counters: HashMap::new(),
            merkle,
            stats: EngineSetStats::default(),
            tele: EngineTelemetry::bind(&Telemetry::new()),
            poisoned: false,
        }
    }

    /// Rebinds this set's `shield.engine.*` instruments onto a shared
    /// registry; until called, the set reports into a private detached
    /// registry. Counters mirrored after this point aggregate with
    /// every other set attached to `telemetry`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.tele = EngineTelemetry::bind(telemetry);
    }

    /// The protected region.
    #[must_use]
    pub fn region(&self) -> &RegionConfig {
        &self.region
    }

    /// Runtime counters.
    #[must_use]
    pub fn stats(&self) -> EngineSetStats {
        self.stats
    }

    /// The cost-ledger lane this set charges.
    #[must_use]
    pub fn lane(&self) -> &str {
        &self.lane
    }

    /// Merkle-tree statistics, when the region uses the Bonsai-Merkle-
    /// Tree replay defence.
    #[must_use]
    pub fn merkle_stats(&self) -> Option<MerkleStats> {
        self.merkle.as_ref().map(MerkleTree::stats)
    }

    /// Drops the tree's verified-node cache (models a power event; test
    /// hook for replay-detection scenarios).
    pub fn clear_merkle_cache(&mut self) {
        if let Some(tree) = &mut self.merkle {
            tree.clear_cache();
        }
    }

    /// Whether the engine set is poisoned: a detected integrity
    /// violation has fail-stopped the datapath.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Plaintext bytes currently resident in the on-chip buffer. The
    /// multi-tenant service reports this as shard occupancy, and the
    /// isolation suite uses it to assert one tenant's working set never
    /// migrates into another tenant's engine sets.
    #[must_use]
    pub fn buffered_bytes(&self) -> u64 {
        self.lines.values().map(|l| l.data.len() as u64).sum()
    }

    /// Clears containment state after a detected integrity violation
    /// and re-opens the datapath. Every buffered line is dropped — its
    /// provenance is suspect once the DRAM image has been tampered with
    /// — but freshness state (counters / tree) is retained, so
    /// untampered DRAM contents still verify on refill.
    pub fn clear_poison(&mut self) {
        self.poisoned = false;
        self.lines.clear();
    }

    /// Records a detected integrity violation and poisons the set:
    /// detection without containment would let tampered and clean
    /// traffic interleave.
    fn note_integrity_failure(&mut self) {
        self.stats.integrity_failures += 1;
        self.tele.integrity_failures.inc();
        self.poisoned = true;
    }

    /// Entry gate for every datapath operation: a poisoned set rejects
    /// all traffic until [`EngineSet::clear_poison`].
    fn check_operational(&mut self) -> Result<(), ShefError> {
        if self.poisoned {
            self.stats.contained_rejects += 1;
            self.tele.contained_rejects.inc();
            return Err(ShefError::Fault(crate::fault::ShieldFault::Poisoned {
                region: self.region.name.clone(),
            }));
        }
        Ok(())
    }

    fn chunk_size(&self) -> usize {
        self.region.engine_set.chunk_size
    }

    fn chunk_index(&self, addr: u64) -> u32 {
        ((addr - self.region.range.start) / self.chunk_size() as u64) as u32
    }

    fn chunk_addr(&self, idx: u32) -> u64 {
        self.region.range.start + idx as u64 * self.chunk_size() as u64
    }

    fn chunk_len(&self, idx: u32) -> usize {
        let start = self.chunk_addr(idx);
        (self.region.range.end() - start).min(self.chunk_size() as u64) as usize
    }

    fn tag_addr(&self, idx: u32) -> u64 {
        self.tag_base + idx as u64 * CHUNK_TAG_LEN as u64
    }

    /// Current write epoch of chunk `idx`. On-chip counters answer from
    /// the register file for free; the Merkle baseline walks an
    /// authenticated path of DRAM-resident tree nodes.
    fn current_epoch(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        idx: u32,
        mode: AccessMode,
    ) -> Result<u64, ShefError> {
        if self.region.engine_set.counters {
            return Ok(self.counters.get(&idx).copied().unwrap_or(0));
        }
        let Some(tree) = &mut self.merkle else {
            return Ok(0);
        };
        match tree.counter(shell, dram, ledger, idx, mode) {
            Ok(epoch) => Ok(epoch),
            Err(e) => {
                if matches!(e, ShefError::IntegrityViolation(_)) {
                    self.note_integrity_failure();
                }
                Err(e)
            }
        }
    }

    /// Advances the write epoch of chunk `idx`, returning the new value.
    fn advance_epoch(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        idx: u32,
        mode: AccessMode,
    ) -> Result<u64, ShefError> {
        if self.region.engine_set.counters {
            let e = self.counters.entry(idx).or_insert(0);
            *e += 1;
            return Ok(*e);
        }
        let Some(tree) = &mut self.merkle else {
            return Ok(0);
        };
        match tree.bump(shell, dram, ledger, idx, mode) {
            Ok(epoch) => Ok(epoch),
            Err(e) => {
                if matches!(e, ShefError::IntegrityViolation(_)) {
                    self.note_integrity_failure();
                }
                Err(e)
            }
        }
    }

    // -----------------------------------------------------------------
    // Batch datapath (replicated engine sets, §5.2.2/§6).
    //
    // Every operation walks its span chunk by chunk — hit/miss
    // decisions, LRU order and the epoch sequence are fixed by the walk
    // alone — but instead of running each chunk's AES/MAC inline it
    // *stages* the crypto and fans the whole batch across a
    // [`WorkerPool`]. Results merge in dispatch order, so every lane
    // count produces the same bytes; a 1-lane pool is the serial
    // engine set, charged on the set's own ledger lane.
    //
    // Two ordering hazards force a staged job to run inline ("materialize"):
    //  * Hazard A — a fill reads a chunk whose evicted predecessor's
    //    seal has not landed in DRAM yet: the seal runs inline first.
    //  * Hazard B — eviction hits a dirty read-modify-write placeholder
    //    whose fill is still in flight: the open runs inline first.
    //
    // On error the batch is drained, not abandoned: victim write-backs
    // always land (their plaintext exists only in the staged job),
    // fills verified before the failure point install as usual, and the
    // earliest failing chunk in dispatch order is reported. Cycle
    // charges cover all staged work — speculation is not free.
    // -----------------------------------------------------------------

    /// Stages a fill: reads ciphertext+tag, resolves the epoch, enqueues
    /// the open, and parks a placeholder line so LRU bookkeeping sees the
    /// chunk as resident. `dirty` pre-marks read-modify-write fills.
    #[allow(clippy::too_many_arguments)]
    fn batch_stage_fill(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        plan: &mut BatchPlan,
        idx: u32,
        mode: AccessMode,
        dirty: bool,
    ) -> Result<(), ShefError> {
        self.stats.misses += 1;
        self.tele.misses.inc();
        let len = self.chunk_len(idx);
        // Hazard A: this chunk was evicted earlier in the batch and its
        // seal has not landed — land it now so the fill reads fresh bytes.
        self.batch_materialize_seal(shell, dram, ledger, plan, idx)?;
        ledger.add_busy(
            PORT_READ_LANE,
            Cycles(((len + CHUNK_TAG_LEN) as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        let mut ciphertext = vec![0u8; len];
        shell.mem_read(dram, self.chunk_addr(idx), &mut ciphertext)?;
        let mut tag = [0u8; CHUNK_TAG_LEN];
        shell.mem_read(dram, self.tag_addr(idx), &mut tag)?;
        let epoch = self.current_epoch(shell, dram, ledger, idx, mode)?;
        plan.pending_open.insert(idx, plan.jobs.len());
        plan.lens.push(len);
        plan.jobs.push(Some(BatchJob::Open {
            idx,
            epoch,
            ciphertext,
            tag,
        }));
        plan.install.insert(idx);
        self.lines.insert(
            idx,
            Line {
                data: Vec::new(),
                dirty,
            },
        );
        Ok(())
    }

    /// Evicts LRU lines until one slot is free, deferring victim seals
    /// onto the plan.
    fn batch_evict(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        mode: AccessMode,
        plan: &mut BatchPlan,
    ) -> Result<(), ShefError> {
        while self.lines.len() >= self.capacity_lines {
            let victim = self
                .lines
                .oldest()
                .expect("a full buffer has an oldest line");
            self.tele.evictions.inc();
            if plan.pending_open.contains_key(&victim) {
                if self.lines.get(victim).is_some_and(|l| l.dirty) {
                    // Hazard B: the line carries pending write bytes but
                    // its fill is still in flight.
                    self.batch_materialize_open(plan, victim)?;
                } else {
                    // Clean in-flight read fill: nothing to write back.
                    // Cancel the install; the staged open still feeds the
                    // caller's output buffer.
                    plan.pending_open.remove(&victim);
                    plan.install.remove(&victim);
                    self.lines.remove(victim);
                    continue;
                }
            }
            // A failed epoch advance leaves the victim resident.
            let epoch = if self.lines.get(victim).is_some_and(|l| l.dirty) {
                Some(self.advance_epoch(shell, dram, ledger, victim, mode)?)
            } else {
                None
            };
            let line = self.lines.remove(victim).expect("victim is resident");
            if let Some(epoch) = epoch {
                plan.stage_seal(victim, epoch, line.data);
            }
        }
        Ok(())
    }

    /// Runs a staged victim seal inline and lands it in DRAM (Hazard A).
    /// No-op if `idx` has no pending seal. Its crypto cycles stay in the
    /// batch cost model via the length recorded at staging time.
    fn batch_materialize_seal(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        plan: &mut BatchPlan,
        idx: u32,
    ) -> Result<(), ShefError> {
        let Some(pos) = plan.pending_seal.remove(&idx) else {
            return Ok(());
        };
        let Some(BatchJob::Seal { idx, epoch, data }) = plan.jobs[pos].take() else {
            unreachable!("pending_seal points at a staged seal job");
        };
        // Inline, nothing retries this seal: the staged plaintext is
        // sealed where it lies.
        let mut ciphertext = data;
        let mut tag = [0u8; CHUNK_TAG_LEN];
        self.cipher
            .seal([(idx, epoch, ciphertext.as_mut_slice(), &mut tag)]);
        ledger.add_busy(
            PORT_WRITE_LANE,
            Cycles(((ciphertext.len() + tag.len()) as u64).div_ceil(SHELL_PORT_BYTES_PER_CYCLE)),
        );
        shell.mem_write(dram, self.chunk_addr(idx), &mut ciphertext)?;
        shell.mem_write(dram, self.tag_addr(idx), &mut tag)?;
        self.stats.writebacks += 1;
        self.tele.writebacks.inc();
        Ok(())
    }

    /// Runs a staged fill open inline and installs the plaintext plus any
    /// pending write bytes (Hazard B).
    fn batch_materialize_open(&mut self, plan: &mut BatchPlan, idx: u32) -> Result<(), ShefError> {
        let Some(pos) = plan.pending_open.remove(&idx) else {
            return Ok(());
        };
        let Some(BatchJob::Open {
            idx,
            epoch,
            ciphertext: mut plaintext,
            tag,
        }) = plan.jobs[pos].take()
        else {
            unreachable!("pending_open points at a staged open job");
        };
        plan.install.remove(&idx);
        // Inline, nothing retries this open: the staged ciphertext is
        // opened where it lies.
        if self
            .cipher
            .open([(idx, epoch, plaintext.as_mut_slice(), &tag)])[0]
            .is_err()
        {
            self.note_integrity_failure();
            self.lines.remove(idx);
            return Err(self.cipher.integrity_violation(idx, epoch));
        }
        if let Some(line) = self.lines.get_mut(idx) {
            line.data = plaintext;
            if let Some((off, bytes)) = plan.apply.remove(&idx) {
                line.data[off..off + bytes.len()].copy_from_slice(&bytes);
            }
        }
        Ok(())
    }

    /// Fans the staged jobs across the pool's lanes with draining
    /// degradation semantics: a panicked job gets one inline retry, and
    /// a job that dies anyway is absorbed — seals are recomputed on the
    /// controller's own engines (the evicted plaintext exists only in
    /// the staged job, so it must never be lost), while opens report a
    /// contained [`crate::fault::ShieldFault::LanePanic`] in dispatch
    /// order. The batch and the cipher travel as `Arc`s, so the lanes,
    /// the retries and the drain all read the one staged copy. Returns
    /// one result per job, in dispatch order.
    fn run_crypto_jobs(
        &mut self,
        pool: &WorkerPool,
        jobs: &Arc<[BatchJob]>,
    ) -> Vec<Option<BatchJobResult>> {
        let cipher = Arc::clone(&self.cipher);
        let mut outcome = pool.try_run(jobs, move |slice| run_jobs(&cipher, slice));
        self.stats.lane_panics += outcome.lane_panics;
        self.stats.recovered_retries += outcome.recovered;
        self.tele.lane_panics.add(outcome.lane_panics);
        self.tele.recovered_retries.add(outcome.recovered);
        for &i in &outcome.failed {
            outcome.results[i] = Some(match &jobs[i] {
                BatchJob::Seal { idx, epoch, data } => {
                    let mut ciphertext = data.clone();
                    let mut tag = [0u8; CHUNK_TAG_LEN];
                    self.cipher
                        .seal([(*idx, *epoch, ciphertext.as_mut_slice(), &mut tag)]);
                    self.stats.drained_seals += 1;
                    self.tele.drained_seals.inc();
                    BatchJobResult::Sealed { ciphertext, tag }
                }
                BatchJob::Open { .. } => BatchJobResult::Opened(Err(ShefError::Fault(
                    crate::fault::ShieldFault::LanePanic { job: i },
                ))),
            });
        }
        outcome.results
    }

    /// Charges one batch's crypto to the ledger under the deterministic
    /// round-robin lane model and updates the batch counters.
    ///
    /// Streaming cost lands on per-lane sub-lanes `{set}.l{k}` (the
    /// bottleneck model then sees the makespan, i.e. true overlap);
    /// a single lane charges the set's base lane. Blocking cost is the
    /// summed serial latency — lane count cannot hide a stalled
    /// accelerator.
    fn charge_crypto_batch(
        &mut self,
        ledger: &mut CostLedger,
        lens: &[usize],
        mode: AccessMode,
        lanes: usize,
    ) {
        let lanes = lanes.max(1);
        self.batch_cost
            .recompute(&self.region.engine_set, lens, lanes);
        let batch = &self.batch_cost;
        match mode {
            AccessMode::Streaming => {
                if lanes == 1 {
                    ledger.add_busy(&self.lane, batch.per_lane[0]);
                } else {
                    for (k, &busy) in batch.per_lane.iter().enumerate() {
                        if busy > Cycles::ZERO {
                            ledger.add_busy(&format!("{}.l{k}", self.lane), busy);
                        }
                    }
                }
            }
            AccessMode::Blocking => ledger.add_serial(batch.serial_latency),
        }
        self.stats.parallel_batches += 1;
        self.stats.parallel_jobs += lens.len() as u64;
        self.stats.lanes = lanes as u64;
        self.stats.queue_depth_hwm = self.stats.queue_depth_hwm.max(lens.len() as u64);
        self.stats.lane_cycles_total += batch.total().0;
        self.stats.lane_cycles_max += batch.makespan().0;
        self.tele.parallel_batches.inc();
        self.tele.parallel_jobs.add(lens.len() as u64);
        self.tele.lanes.set(lanes as u64);
        self.tele.queue_depth_hwm.record_max(lens.len() as u64);
        self.tele.batch_jobs.observe(lens.len() as u64);
    }

    /// Phase 2+3 of a batch operation: runs the staged crypto on the
    /// pool, lands victim write-backs, installs verified fills in
    /// dispatch order, and settles the cost model. An opened chunk moves
    /// into its line, and a read's fill copies its slice into `out`
    /// (empty for writes and flushes).
    #[allow(clippy::too_many_arguments)]
    fn batch_execute(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        mode: AccessMode,
        pool: &WorkerPool,
        plan: &mut BatchPlan,
        out: &mut [u8],
        walk_error: Option<ShefError>,
    ) -> Result<(), ShefError> {
        let crypto_start = ledger.total_busy().0;
        // Materialized jobs are gone from the batch. An all-hit batch
        // stages no jobs: `Arc::default()` shares one static empty
        // slice, where collecting would allocate.
        plan.jobs.retain(Option::is_some);
        let jobs: Arc<[BatchJob]> = if plan.jobs.is_empty() {
            Arc::default()
        } else {
            plan.jobs
                .drain(..)
                .map(|job| job.expect("retained"))
                .collect()
        };
        let results = self.run_crypto_jobs(pool, &jobs);
        // Charge the batch's crypto before the landing loop so the
        // crypto/landing span boundary falls between the two phases.
        // The ledger is purely additive, so charge order is irrelevant
        // to every total; only the logical clock's intermediate reading
        // moves.
        self.charge_crypto_batch(ledger, &plan.lens, mode, pool.lanes());
        let landing_start = ledger.total_busy().0;
        self.tele.crypto.record(crypto_start, landing_start);
        let mut first_err: Option<ShefError> = None;
        // A read stages one open per fill, in walk order.
        let mut fills = plan.fills.iter().peekable();
        for (job, result) in jobs.iter().zip(results) {
            let idx = job.idx();
            match result.expect("every job has a result or was drained") {
                BatchJobResult::Sealed {
                    mut ciphertext,
                    mut tag,
                } => {
                    // Victim write-backs always land, even when the batch
                    // fails: the evicted plaintext exists only here.
                    ledger.add_busy(
                        PORT_WRITE_LANE,
                        Cycles(
                            ((ciphertext.len() + tag.len()) as u64)
                                .div_ceil(SHELL_PORT_BYTES_PER_CYCLE),
                        ),
                    );
                    let landed = shell
                        .mem_write(dram, self.chunk_addr(idx), &mut ciphertext)
                        .and_then(|()| shell.mem_write(dram, self.tag_addr(idx), &mut tag));
                    match landed {
                        Ok(()) => {
                            self.stats.writebacks += 1;
                            self.tele.writebacks.inc();
                        }
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e.into());
                            }
                        }
                    }
                }
                // Past the first failure a chunk-by-chunk walk would
                // never have reached this chunk: skip the install.
                BatchJobResult::Opened(Ok(plaintext)) if first_err.is_none() => {
                    if let Some(fill) = fills.next_if(|fill| fill.idx == idx) {
                        out[fill.at..fill.at + fill.take]
                            .copy_from_slice(&plaintext[fill.offset..fill.offset + fill.take]);
                    }
                    if plan.install.remove(&idx) {
                        if let Some(line) = self.lines.get_mut(idx) {
                            line.data = plaintext;
                            if let Some((off, bytes)) = plan.apply.get(&idx) {
                                line.data[*off..off + bytes.len()].copy_from_slice(bytes);
                            }
                        }
                    }
                }
                BatchJobResult::Opened(Ok(_)) => {}
                BatchJobResult::Opened(Err(e)) => {
                    if first_err.is_none() {
                        // A contained lane fault is an infrastructure
                        // failure, not evidence of tampering: it
                        // surfaces but does not poison the set.
                        if !matches!(e, ShefError::Fault(_)) {
                            self.note_integrity_failure();
                        }
                        first_err = Some(e);
                    }
                }
            }
        }
        debug_assert!(
            first_err.is_some() || fills.next().is_none(),
            "every fill lands from its open"
        );
        self.tele
            .landing
            .record(landing_start, ledger.total_busy().0);
        if first_err.is_some() || walk_error.is_some() {
            // Drop placeholder lines whose fill never installed.
            for &idx in &plan.install {
                self.lines.remove(idx);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if let Some(e) = walk_error {
            return Err(e);
        }
        Ok(())
    }

    /// Reads `len` plaintext bytes at `addr` (must lie in the region),
    /// fanning chunk opens across `pool`'s lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::IntegrityViolation`] for the earliest chunk
    /// in dispatch order that fails authentication.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        addr: u64,
        len: usize,
        mode: AccessMode,
        pool: &WorkerPool,
    ) -> Result<Vec<u8>, ShefError> {
        debug_assert!(self.region.range.contains_span(addr, len));
        self.check_operational()?;
        let walk_start = ledger.total_busy().0;
        let mut plan = self.plan.take().unwrap_or_default();
        // Hits copy straight into `out`; fills reserve their bytes and
        // are patched in once the batch has opened them.
        let mut out = Vec::with_capacity(len);
        let mut walk_error = None;
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let idx = self.chunk_index(cur);
            let chunk_start = self.chunk_addr(idx);
            let offset = (cur - chunk_start) as usize;
            let take = ((end - cur) as usize).min(self.chunk_len(idx) - offset);
            let step = if let Some(line) = self.lines.touch(idx) {
                out.extend_from_slice(&line.data[offset..offset + take]);
                self.stats.hits += 1;
                self.tele.hits.inc();
                Ok(())
            } else {
                self.batch_evict(shell, dram, ledger, mode, &mut plan)
                    .and_then(|()| {
                        self.batch_stage_fill(shell, dram, ledger, &mut plan, idx, mode, false)
                    })
                    .map(|()| {
                        plan.fills.push(Fill {
                            at: out.len(),
                            idx,
                            offset,
                            take,
                        });
                        out.resize(out.len() + take, 0);
                    })
            };
            if let Err(e) = step {
                walk_error = Some(e);
                break;
            }
            ledger.add_busy(ACCEL_PORT_READ_LANE, buffer_hit_cost(take));
            cur += take as u64;
        }
        self.tele.walk.record(walk_start, ledger.total_busy().0);
        let executed = self.batch_execute(
            shell, dram, ledger, mode, pool, &mut plan, &mut out, walk_error,
        );
        plan.clear();
        self.plan = Some(plan);
        executed?;
        self.stats.bytes_read += len as u64;
        self.tele.bytes_read.add(len as u64);
        Ok(out)
    }

    /// Writes plaintext bytes at `addr` (must lie in the region);
    /// read-modify-write fills and victim seals are fanned across
    /// `pool`'s lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::IntegrityViolation`] for the earliest chunk
    /// in dispatch order that fails authentication.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        addr: u64,
        data: &[u8],
        mode: AccessMode,
        pool: &WorkerPool,
    ) -> Result<(), ShefError> {
        debug_assert!(self.region.range.contains_span(addr, data.len()));
        self.check_operational()?;
        let walk_start = ledger.total_busy().0;
        let mut plan = self.plan.take().unwrap_or_default();
        let mut walk_error = None;
        let mut cur = addr;
        let end = addr + data.len() as u64;
        let mut src = 0usize;
        while cur < end {
            let idx = self.chunk_index(cur);
            let chunk_start = self.chunk_addr(idx);
            let offset = (cur - chunk_start) as usize;
            let take = ((end - cur) as usize).min(self.chunk_len(idx) - offset);
            let full_overwrite = offset == 0 && take == self.chunk_len(idx);
            let step = if let Some(line) = self.lines.touch(idx) {
                line.data[offset..offset + take].copy_from_slice(&data[src..src + take]);
                line.dirty = true;
                self.stats.hits += 1;
                self.tele.hits.inc();
                Ok(())
            } else if full_overwrite || self.region.engine_set.zero_fill_writes {
                self.batch_evict(shell, dram, ledger, mode, &mut plan)
                    .map(|()| {
                        self.stats.zero_fills += 1;
                        self.tele.zero_fills.inc();
                        let len = self.chunk_len(idx);
                        let mut buf = vec![0u8; len];
                        buf[offset..offset + take].copy_from_slice(&data[src..src + take]);
                        self.lines.insert(
                            idx,
                            Line {
                                data: buf,
                                dirty: true,
                            },
                        );
                    })
            } else {
                self.batch_evict(shell, dram, ledger, mode, &mut plan)
                    .and_then(|()| {
                        self.batch_stage_fill(shell, dram, ledger, &mut plan, idx, mode, true)
                    })
                    .map(|()| {
                        plan.apply
                            .insert(idx, (offset, data[src..src + take].to_vec()));
                    })
            };
            if let Err(e) = step {
                walk_error = Some(e);
                break;
            }
            ledger.add_busy(ACCEL_PORT_WRITE_LANE, buffer_hit_cost(take));
            cur += take as u64;
            src += take;
        }
        self.tele.walk.record(walk_start, ledger.total_busy().0);
        let executed = self.batch_execute(
            shell,
            dram,
            ledger,
            mode,
            pool,
            &mut plan,
            &mut [],
            walk_error,
        );
        plan.clear();
        self.plan = Some(plan);
        executed?;
        self.stats.bytes_written += data.len() as u64;
        self.tele.bytes_written.add(data.len() as u64);
        Ok(())
    }

    /// Writes back all dirty lines and clears the buffer: dirty-line
    /// seals are fanned across `pool`'s lanes, write-backs land in LRU
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates DRAM and epoch errors from write-back traffic; the
    /// buffer is left intact on error.
    pub fn flush(
        &mut self,
        shell: &mut Shell,
        dram: &mut Dram,
        ledger: &mut CostLedger,
        pool: &WorkerPool,
    ) -> Result<(), ShefError> {
        self.check_operational()?;
        let walk_start = ledger.total_busy().0;
        let mut plan = self.plan.take().unwrap_or_default();
        let mut walk_error = None;
        let indices: Vec<u32> = self.lines.keys().collect();
        for idx in indices {
            if !self.lines.get(idx).is_some_and(|l| l.dirty) {
                continue;
            }
            match self.advance_epoch(shell, dram, ledger, idx, AccessMode::Streaming) {
                Ok(epoch) => {
                    let line = self.lines.get_mut(idx).expect("dirty line is resident");
                    line.dirty = false;
                    plan.stage_seal(idx, epoch, line.data.clone());
                }
                Err(e) => {
                    walk_error = Some(e);
                    break;
                }
            }
        }
        self.tele.walk.record(walk_start, ledger.total_busy().0);
        let executed = self.batch_execute(
            shell,
            dram,
            ledger,
            AccessMode::Streaming,
            pool,
            &mut plan,
            &mut [],
            walk_error,
        );
        plan.clear();
        self.plan = Some(plan);
        executed?;
        self.lines.clear();
        Ok(())
    }
}

/// Runs one lane's slice of a batch, in order. Each job gets one
/// lane-owned copy of its bytes — a seal's staged plaintext or an open's
/// ciphertext — which is sealed or opened where it lies: the seals in
/// one [`ChunkCipher::seal`] batch and the opens in one
/// [`ChunkCipher::open`] batch, so equal-length chunk MACs share SHA-256
/// passes. The staged job itself stays intact for the retry and the
/// drain.
fn run_jobs(cipher: &ChunkCipher, jobs: &[BatchJob]) -> Vec<BatchJobResult> {
    let mut results: Vec<BatchJobResult> = jobs
        .iter()
        .map(|job| match job {
            BatchJob::Seal { data, .. } => BatchJobResult::Sealed {
                ciphertext: data.clone(),
                tag: [0; CHUNK_TAG_LEN],
            },
            BatchJob::Open { ciphertext, .. } => BatchJobResult::Opened(Ok(ciphertext.clone())),
        })
        .collect();
    cipher.seal(jobs.iter().zip(&mut results).filter_map(|pair| match pair {
        (BatchJob::Seal { idx, epoch, .. }, BatchJobResult::Sealed { ciphertext, tag }) => {
            Some((*idx, *epoch, ciphertext.as_mut_slice(), tag))
        }
        _ => None,
    }));
    let verdicts = cipher.open(jobs.iter().zip(&mut results).filter_map(|pair| match pair {
        (
            BatchJob::Open {
                idx, epoch, tag, ..
            },
            BatchJobResult::Opened(Ok(buf)),
        ) => Some((*idx, *epoch, buf.as_mut_slice(), tag)),
        _ => None,
    }));
    let mut verdicts = verdicts.into_iter();
    for (job, result) in jobs.iter().zip(&mut results) {
        if let BatchJob::Open { idx, epoch, .. } = job {
            if verdicts.next().expect("one verdict per open").is_err() {
                *result = BatchJobResult::Opened(Err(cipher.integrity_violation(*idx, *epoch)));
            }
        }
    }
    results
}

/// A chunk-crypto job staged by a batch walk for pool execution.
enum BatchJob {
    Seal {
        idx: u32,
        epoch: u64,
        data: Vec<u8>,
    },
    Open {
        idx: u32,
        epoch: u64,
        ciphertext: Vec<u8>,
        tag: [u8; CHUNK_TAG_LEN],
    },
}

impl BatchJob {
    fn idx(&self) -> u32 {
        match self {
            BatchJob::Seal { idx, .. } | BatchJob::Open { idx, .. } => *idx,
        }
    }
}

/// What came back from a lane for one staged job.
enum BatchJobResult {
    /// A seal's ciphertext and tag, ready to land.
    Sealed {
        ciphertext: Vec<u8>,
        tag: [u8; CHUNK_TAG_LEN],
    },
    /// An open's plaintext, or why it failed.
    Opened(Result<Vec<u8>, ShefError>),
}

/// A stretch of a read's output that a staged fill supplies.
struct Fill {
    /// Offset in the output buffer.
    at: usize,
    /// The chunk being filled.
    idx: u32,
    /// Offset within the chunk.
    offset: usize,
    /// Bytes taken from the chunk.
    take: usize,
}

/// Bookkeeping for one batch operation. The engine set owns one plan
/// and clears it after every operation, so its buffers are reused.
#[derive(Default)]
struct BatchPlan {
    /// Staged jobs in dispatch order; tombstoned (`None`) when a hazard
    /// forces inline materialization.
    jobs: Vec<Option<BatchJob>>,
    /// Plaintext length of every staged job (including materialized
    /// ones) in dispatch order — drives the round-robin lane-cost model.
    lens: Vec<usize>,
    /// Chunk → staged position of a victim seal not yet landed in DRAM.
    pending_seal: HashMap<u32, usize>,
    /// Chunk → staged position of a fill open not yet landed.
    pending_open: HashMap<u32, usize>,
    /// Write bytes to patch into a chunk once its fill lands.
    apply: HashMap<u32, (usize, Vec<u8>)>,
    /// Chunks whose opened plaintext installs into the buffer.
    install: HashSet<u32>,
    /// Read output stretches supplied by fills, in walk order.
    fills: Vec<Fill>,
}

impl BatchPlan {
    fn stage_seal(&mut self, idx: u32, epoch: u64, data: Vec<u8>) {
        self.pending_seal.insert(idx, self.jobs.len());
        self.lens.push(data.len());
        self.jobs.push(Some(BatchJob::Seal { idx, epoch, data }));
    }

    /// Empties every buffer, keeping its allocation for the next batch.
    fn clear(&mut self) {
        self.jobs.clear();
        self.lens.clear();
        self.pending_seal.clear();
        self.pending_open.clear();
        self.apply.clear();
        self.install.clear();
        self.fills.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::config::{EngineSetConfig, MemRange};
    use crate::shield::merkle::MerkleConfig;
    use shef_fpga::clock::Cycles;

    /// An 8 KiB test region at 0x1000.
    fn region(chunk: usize, buffer: usize, counters: bool, zero_fill: bool) -> RegionConfig {
        RegionConfig {
            name: "test".into(),
            range: MemRange::new(0x1000, 8192),
            engine_set: EngineSetConfig {
                chunk_size: chunk,
                buffer_bytes: buffer,
                counters,
                zero_fill_writes: zero_fill,
                ..EngineSetConfig::default()
            },
        }
    }

    /// The same region under the Bonsai-Merkle-Tree defence.
    fn merkle_region(chunk: usize, buffer: usize, node_cache_bytes: usize) -> RegionConfig {
        let mut r = region(chunk, buffer, false, false);
        r.engine_set.merkle = Some(MerkleConfig {
            arity: 8,
            node_cache_bytes,
        });
        r
    }

    /// One engine set and its surroundings, driven at a fixed lane
    /// count. The lane-count invariance tests run twin rigs at 1 lane
    /// (the serial engine set) and at N lanes.
    struct Rig {
        es: EngineSet,
        shell: Shell,
        dram: Dram,
        ledger: CostLedger,
        pool: WorkerPool,
        dek: DataEncryptionKey,
    }

    impl Rig {
        fn new(region: RegionConfig, lanes: usize) -> Self {
            let dek = DataEncryptionKey::from_bytes([3u8; 32]);
            Rig {
                es: EngineSet::new(region, 0, 0x10_0000, 0x20_0000, &dek),
                shell: Shell::new(),
                dram: Dram::new(1 << 22),
                ledger: CostLedger::new(),
                pool: WorkerPool::new(lanes),
                dek,
            }
        }

        /// Provisions plaintext into DRAM the way the Data Owner would.
        fn provision(&mut self, data: &[u8]) {
            let es = &self.es;
            for (i, pt) in data.chunks(es.chunk_size()).enumerate() {
                let mut ct = pt.to_vec();
                let mut tag = [0u8; CHUNK_TAG_LEN];
                es.cipher.seal([(i as u32, 0, ct.as_mut_slice(), &mut tag)]);
                self.dram.tamper_write(es.chunk_addr(i as u32), &ct);
                self.dram.tamper_write(es.tag_addr(i as u32), &tag);
            }
        }

        fn read_mode(
            &mut self,
            addr: u64,
            len: usize,
            mode: AccessMode,
        ) -> Result<Vec<u8>, ShefError> {
            self.es.read(
                &mut self.shell,
                &mut self.dram,
                &mut self.ledger,
                addr,
                len,
                mode,
                &self.pool,
            )
        }

        fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, ShefError> {
            self.read_mode(addr, len, AccessMode::Streaming)
        }

        fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), ShefError> {
            self.es.write(
                &mut self.shell,
                &mut self.dram,
                &mut self.ledger,
                addr,
                data,
                AccessMode::Streaming,
                &self.pool,
            )
        }

        fn flush(&mut self) -> Result<(), ShefError> {
            self.es.flush(
                &mut self.shell,
                &mut self.dram,
                &mut self.ledger,
                &self.pool,
            )
        }

        /// Flips one ciphertext byte in DRAM.
        fn flip(&mut self, addr: u64, mask: u8) {
            let mut byte = self.dram.tamper_read(addr, 1);
            byte[0] ^= mask;
            self.dram.tamper_write(addr, &byte);
        }
    }

    /// Functional slice of the stats: the batch observability counters
    /// (batches, lanes, makespans) legitimately vary with lane count.
    fn core_stats(s: EngineSetStats) -> (u64, u64, u64, u64, u64, u64, u64) {
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

    #[test]
    fn stats_ratios_defined_with_no_parallel_batches() {
        // Regression: fresh stats (no batch dispatched) must clamp to
        // 1.0, never NaN/inf, so reports can print them unguarded.
        let stats = EngineSetStats::default();
        assert_eq!(stats.parallel_speedup(), 1.0);
        assert_eq!(stats.lane_utilization(), 1.0);
        // lanes recorded but no cycles (e.g. all-hit batches).
        let stats = EngineSetStats {
            lanes: 4,
            ..EngineSetStats::default()
        };
        assert_eq!(stats.parallel_speedup(), 1.0);
        assert_eq!(stats.lane_utilization(), 1.0);
    }

    #[test]
    fn stats_ratios_survive_huge_cycle_counts() {
        // Regression: lane_cycles_max * lanes used to be a u64 multiply
        // that overflowed on long campaigns (panic in debug builds).
        let stats = EngineSetStats {
            lanes: 8,
            lane_cycles_max: u64::MAX / 2,
            lane_cycles_total: u64::MAX - 1,
            ..EngineSetStats::default()
        };
        let speedup = stats.parallel_speedup();
        let util = stats.lane_utilization();
        assert!(speedup.is_finite());
        assert!(util.is_finite());
        assert!((speedup - 2.0).abs() < 1e-9);
        assert!((util - 0.25).abs() < 1e-9);
    }

    #[test]
    fn telemetry_mirrors_engine_counters_and_phases() {
        let t = Telemetry::new();
        let mut rig = Rig::new(region(512, 1024, true, false), 2);
        rig.es.attach_telemetry(&t);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        rig.provision(&data);
        assert_eq!(rig.read(0x1000, 8192).unwrap(), data);
        let r = t.report();
        assert_eq!(r.counters["shield.engine.misses"], 16);
        assert_eq!(r.counters["shield.engine.bytes_read"], 8192);
        // 16 fills through a 2-line buffer: 14 clean-fill cancellations
        // count as evictions in the batch walk.
        assert!(r.counters["shield.engine.evictions"] > 0);
        assert_eq!(r.counters["shield.engine.parallel_batches"], 1);
        assert_eq!(r.counters["shield.engine.parallel_jobs"], 16);
        assert_eq!(r.gauges["shield.engine.lanes"], 2);
        // All three batch phases traced, on a strictly ordered clock.
        for scope in [
            "shield.engine.walk",
            "shield.engine.crypto",
            "shield.engine.landing",
        ] {
            assert_eq!(r.scopes[scope].count, 1, "{scope}");
        }
        assert!(r.scopes["shield.engine.walk"].total_cycles > 0);
        assert!(r.scopes["shield.engine.crypto"].total_cycles > 0);
        let walk = &r.spans[0];
        assert_eq!(walk.scope, "shield.engine.walk");
        assert!(walk.end_cycles > walk.start_cycles);
    }

    #[test]
    fn hit_only_read_emits_a_full_batch() {
        // A read served entirely from the buffer runs no crypto, but it
        // is still one batch of the one datapath: it must charge and
        // count exactly what a batch does, or reports would change.
        let t = Telemetry::new();
        let mut rig = Rig::new(region(64, 1024, true, false), 1);
        rig.es.attach_telemetry(&t);
        rig.pool.attach_telemetry(&t);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        rig.provision(&data);
        assert_eq!(rig.read(0x1040, 64).unwrap(), &data[64..128]);
        let before = t.report();
        rig.ledger = CostLedger::new();

        assert_eq!(rig.read(0x1040, 64).unwrap(), &data[64..128]);

        // Ledger: the accelerator port, plus the set's own lane at zero
        // cycles (the empty batch's crypto charge), and nothing else.
        let lanes: Vec<(&str, Cycles)> = rig.ledger.lanes().collect();
        assert_eq!(
            lanes,
            vec![
                (ACCEL_PORT_READ_LANE, buffer_hit_cost(64)),
                ("shield.test[0]", Cycles::ZERO),
            ]
        );
        assert_eq!(rig.ledger.serial(), Cycles::ZERO);

        let after = t.report();
        let delta = |name: &str| after.counters[name] - before.counters[name];
        assert_eq!(delta("shield.engine.hits"), 1);
        assert_eq!(delta("shield.engine.misses"), 0);
        assert_eq!(delta("shield.engine.parallel_batches"), 1);
        assert_eq!(delta("shield.engine.parallel_jobs"), 0);
        assert_eq!(delta("shield.pool.batches"), 1);
        assert_eq!(delta("shield.pool.jobs"), 0);
        let jobs = |r: &shef_telemetry::Report| r.histograms["shield.engine.batch_jobs"].clone();
        assert_eq!(jobs(&after).count - jobs(&before).count, 1);
        // Zero jobs land in the first bucket.
        assert_eq!(jobs(&after).counts[0] - jobs(&before).counts[0], 1);

        // Exactly one span per phase, in phase order, on the ledger's
        // clock: the walk spans the port charge, crypto and landing are
        // empty.
        let spans = &after.spans[before.spans.len()..];
        let names: Vec<&str> = spans.iter().map(|s| s.scope.as_str()).collect();
        assert_eq!(
            names,
            [
                "shield.engine.walk",
                "shield.engine.crypto",
                "shield.engine.landing"
            ]
        );
        assert_eq!(
            (spans[0].start_cycles, spans[0].end_cycles),
            (0, buffer_hit_cost(64).0)
        );
        assert!(spans[1..].iter().all(|s| s.duration() == 0));
        for scope in [
            "shield.engine.walk",
            "shield.engine.crypto",
            "shield.engine.landing",
        ] {
            assert_eq!(
                after.scopes[scope].count - before.scopes[scope].count,
                1,
                "{scope}"
            );
        }
    }

    #[test]
    fn detached_telemetry_reports_are_byte_identical() {
        // Two engine sets running the same trace against their own
        // private registries must produce identical JSON reports — the
        // engine-level half of the determinism guarantee.
        let run = || {
            let t = Telemetry::new();
            let mut rig = Rig::new(region(512, 2048, true, false), 4);
            rig.es.attach_telemetry(&t);
            let data: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 256) as u8).collect();
            rig.provision(&data);
            rig.write(0x1200, &[7u8; 3000]).unwrap();
            rig.flush().unwrap();
            t.report().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn read_provisioned_data() {
        let mut rig = Rig::new(region(512, 2048, false, false), 1);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        rig.provision(&data);
        assert_eq!(rig.read(0x1000, 8192).unwrap(), data);
        assert_eq!(rig.es.stats().misses, 16);
    }

    #[test]
    fn unaligned_reads() {
        let mut rig = Rig::new(region(512, 2048, false, false), 1);
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        rig.provision(&data);
        assert_eq!(rig.read(0x1000 + 300, 700).unwrap(), &data[300..1000]);
    }

    #[test]
    fn write_then_read_back_through_dram() {
        let mut rig = Rig::new(region(512, 1024, false, true), 1);
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 199) as u8).collect();
        rig.write(0x1000, &payload).unwrap();
        rig.flush().unwrap();
        // A brand-new engine set (fresh cache) must read the same bytes.
        rig.es = EngineSet::new(rig.es.region().clone(), 0, 0x10_0000, 0x20_0000, &rig.dek);
        assert_eq!(rig.read(0x1000, 2048).unwrap(), payload);
        // Ciphertext in DRAM differs from plaintext.
        assert_ne!(rig.dram.tamper_read(0x1000, 2048), payload);
    }

    #[test]
    fn buffer_hits_avoid_dram() {
        let mut rig = Rig::new(region(512, 2048, false, false), 1);
        rig.provision(&[0x5au8; 8192]);
        rig.read(0x1000, 512).unwrap();
        let before = rig.dram.stats().bytes_read;
        // Re-read the same chunk: served from the buffer.
        rig.read(0x1000 + 128, 256).unwrap();
        assert_eq!(rig.dram.stats().bytes_read, before);
        assert_eq!(rig.es.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_works() {
        // Buffer holds 2 lines; touching 3 chunks evicts the oldest.
        let mut rig = Rig::new(region(512, 1024, false, false), 1);
        rig.provision(&[1u8; 8192]);
        for i in 0..3u64 {
            rig.read(0x1000 + i * 512, 512).unwrap();
        }
        // Chunk 0 was evicted: re-reading misses again.
        let misses = rig.es.stats().misses;
        rig.read(0x1000, 512).unwrap();
        assert_eq!(rig.es.stats().misses, misses + 1);
    }

    #[test]
    fn spoofed_dram_detected() {
        let mut rig = Rig::new(region(512, 1024, false, false), 1);
        rig.provision(&[7u8; 8192]);
        // Adversary flips a ciphertext bit.
        rig.flip(0x1100, 0x80);
        let err = rig.read(0x1000, 512).unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
        assert_eq!(rig.es.stats().integrity_failures, 1);
    }

    #[test]
    fn spliced_chunks_detected() {
        let mut rig = Rig::new(region(512, 1024, false, false), 1);
        rig.provision(&[9u8; 8192]);
        // Copy chunk 0's ciphertext+tag over chunk 1's.
        let c0 = rig.dram.tamper_read(0x1000, 512);
        let t0 = rig.dram.tamper_read(0x10_0000, 16);
        rig.dram.tamper_write(0x1000 + 512, &c0);
        rig.dram.tamper_write(0x10_0000 + 16, &t0);
        let err = rig.read(0x1000 + 512, 512).unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    /// Snapshots chunk 0 at epoch 0, rewrites it legitimately, then
    /// replays the snapshot and reads the chunk back.
    fn replay_chunk_zero(rig: &mut Rig) -> Result<Vec<u8>, ShefError> {
        rig.provision(&[1u8; 8192]);
        let old_ct = rig.dram.tamper_read(0x1000, 512);
        let old_tag = rig.dram.tamper_read(0x10_0000, 16);
        // A legitimate write bumps the chunk's epoch to 1.
        rig.write(0x1000, &[2u8; 512]).unwrap();
        rig.flush().unwrap();
        // Fresh data verifies.
        assert_eq!(rig.read(0x1000, 512).unwrap(), vec![2u8; 512]);
        rig.flush().unwrap();
        // Adversary replays the old snapshot.
        rig.dram.tamper_write(0x1000, &old_ct);
        rig.dram.tamper_write(0x10_0000, &old_tag);
        rig.read(0x1000, 512)
    }

    #[test]
    fn replay_detected_with_counters() {
        let mut rig = Rig::new(region(512, 512, true, false), 1);
        let err = replay_chunk_zero(&mut rig).unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn replay_not_detected_without_counters() {
        // Documents the paper's point: read-write regions need counters.
        let mut rig = Rig::new(region(512, 512, false, false), 1);
        // The stale data verifies — replay goes unnoticed.
        assert_eq!(replay_chunk_zero(&mut rig).unwrap(), vec![1u8; 512]);
    }

    #[test]
    fn merkle_write_read_round_trip() {
        let mut rig = Rig::new(merkle_region(512, 1024, 0), 1);
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 197) as u8).collect();
        rig.write(0x1000, &payload).unwrap();
        rig.flush().unwrap();
        assert_eq!(rig.read(0x1000, 2048).unwrap(), payload);
        let ms = rig.es.merkle_stats().expect("merkle enabled");
        assert!(ms.node_writes > 0, "bumps must rewrite tree nodes");
    }

    #[test]
    fn merkle_detects_replay() {
        // Same scenario as `replay_detected_with_counters`, but the
        // counters live in DRAM under the tree.
        let mut rig = Rig::new(merkle_region(512, 512, 0), 1);
        let err = replay_chunk_zero(&mut rig).unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn merkle_detects_tree_rollback() {
        // The stronger attack: roll back data, tag, AND the DRAM-resident
        // counter tree together. Only the on-chip root defeats this.
        let mut rig = Rig::new(merkle_region(512, 512, 0), 1);
        rig.provision(&[1u8; 8192]);
        // Force tree initialization, then snapshot everything.
        rig.read(0x1000, 512).unwrap();
        rig.flush().unwrap();
        let snap_data = rig.dram.tamper_read(0x1000, 512);
        let snap_tag = rig.dram.tamper_read(0x10_0000, 16);
        let snap_tree = rig.dram.tamper_read(0x20_0000, 4096);
        rig.write(0x1000, &[9u8; 512]).unwrap();
        rig.flush().unwrap();
        rig.dram.tamper_write(0x1000, &snap_data);
        rig.dram.tamper_write(0x10_0000, &snap_tag);
        rig.dram.tamper_write(0x20_0000, &snap_tree);
        let err = rig.read(0x1000, 512).unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
        assert!(rig.es.stats().integrity_failures >= 1);
    }

    #[test]
    fn merkle_costs_exceed_onchip_counters() {
        // The paper's argument (§5.2.2): tree-node DRAM traffic makes the
        // BMT strictly more expensive than on-chip counters.
        let run = |mut rig: Rig| {
            for round in 0..4u8 {
                for i in 0..16u64 {
                    rig.write(0x1000 + i * 512, &[round; 512]).unwrap();
                }
                rig.flush().unwrap();
            }
            rig.ledger.lane(rig.es.lane())
        };
        let counters_cost = run(Rig::new(region(512, 512, true, false), 1));
        let merkle_cost = run(Rig::new(merkle_region(512, 512, 0), 1));
        assert!(
            merkle_cost > counters_cost,
            "BMT {merkle_cost:?} must cost more than on-chip counters {counters_cost:?}"
        );
    }

    #[test]
    fn zero_fill_skips_dram_reads() {
        let mut rig = Rig::new(region(512, 1024, false, true), 1);
        // Partial write to an unprovisioned chunk with zero_fill: no read.
        rig.write(0x1000, &[9u8; 100]).unwrap();
        assert_eq!(rig.dram.stats().bytes_read, 0);
        assert_eq!(rig.es.stats().zero_fills, 1);
        rig.flush().unwrap();
        // Readback sees the write plus zeros.
        let got = rig.read(0x1000, 512).unwrap();
        assert_eq!(&got[..100], &[9u8; 100]);
        assert_eq!(&got[100..], &vec![0u8; 412][..]);
    }

    #[test]
    fn blocking_mode_charges_serial_cycles() {
        let mut rig = Rig::new(region(4096, 4096, false, false), 1);
        rig.provision(&[3u8; 8192]);
        let serial_before = rig.ledger.serial();
        rig.read_mode(0x1000, 4096, AccessMode::Blocking).unwrap();
        assert!(
            rig.ledger.serial() > serial_before,
            "blocking access must stall"
        );
    }

    #[test]
    fn streaming_mode_charges_lane_cycles() {
        let mut rig = Rig::new(region(512, 512, false, false), 1);
        rig.provision(&[3u8; 8192]);
        rig.read(0x1000, 512).unwrap();
        assert!(rig.ledger.lane(rig.es.lane()) > Cycles::ZERO);
    }

    #[test]
    fn parallel_read_matches_serial() {
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 256) as u8).collect();
        let mut one = Rig::new(region(512, 2048, true, false), 1);
        let mut four = Rig::new(region(512, 2048, true, false), 4);
        one.provision(&data);
        four.provision(&data);
        for (addr, len) in [(0x1000u64, 8192usize), (0x1000 + 300, 700), (0x1000, 512)] {
            assert_eq!(one.read(addr, len).unwrap(), four.read(addr, len).unwrap());
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(four.es.stats()));
        // Total crypto work is conserved: the sub-lanes sum to the
        // 1-lane set's cycles.
        let lane = one.es.lane().to_owned();
        assert_eq!(four.ledger.group_total(&lane), one.ledger.lane(&lane));
        // ...but the makespan (busiest sub-lane) is strictly smaller.
        assert!(four.ledger.group_makespan(&lane) < one.ledger.lane(&lane));
        assert!(four.es.stats().parallel_speedup() > 1.0);
    }

    #[test]
    fn parallel_write_matches_serial() {
        // Mix of read-modify-write fills and full overwrites, with
        // evictions (buffer holds 2 of 16 chunks).
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 256) as u8).collect();
        let mut one = Rig::new(region(512, 1024, true, false), 1);
        let mut four = Rig::new(region(512, 1024, true, false), 4);
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
        // Unaligned span: head and tail chunks are RMW, middle chunks
        // are full overwrites.
        for rig in [&mut one, &mut four] {
            rig.provision(&data);
            rig.write(0x1000 + 200, &payload).unwrap();
            rig.flush().unwrap();
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(four.es.stats()));
        // Identical keys + identical epoch sequences mean the DRAM end
        // state (ciphertext and tag arena) must match byte for byte.
        assert_eq!(
            one.dram.tamper_read(0x1000, 8192),
            four.dram.tamper_read(0x1000, 8192)
        );
        assert_eq!(
            one.dram.tamper_read(0x10_0000, 16 * CHUNK_TAG_LEN),
            four.dram.tamper_read(0x10_0000, 16 * CHUNK_TAG_LEN)
        );
        // And both live sets decrypt back to the written plaintext.
        let got = one.read(0x1000, 8192).unwrap();
        assert_eq!(got, four.read(0x1000, 8192).unwrap());
        assert_eq!(&got[..200], &data[..200]);
        assert_eq!(&got[200..3200], &payload[..]);
    }

    #[test]
    fn same_batch_evict_then_refill_lands_fresh_bytes() {
        // Hazard A: with a 1-line buffer, reading [chunk 0, chunk 1]
        // while chunk 1 sits dirty in the buffer first evicts chunk 1
        // (staged seal), then chunk 1's own fill must observe that seal.
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        let mut rig = Rig::new(region(512, 512, true, false), 4);
        rig.provision(&data);
        rig.write(0x1200, &[0xAB; 512]).unwrap();
        let got = rig.read(0x1000, 1024).unwrap();
        assert_eq!(&got[..512], &data[..512]);
        assert_eq!(&got[512..], &[0xABu8; 512][..]);
        assert_eq!(rig.es.stats().writebacks, 1);
    }

    #[test]
    fn evicting_inflight_rmw_placeholder_matches_serial() {
        // Hazard B: with a 1-line buffer, an unaligned write across two
        // chunks evicts chunk 0's read-modify-write placeholder while its
        // fill is still staged.
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 3 % 256) as u8).collect();
        let mut one = Rig::new(region(512, 512, true, false), 1);
        let mut four = Rig::new(region(512, 512, true, false), 4);
        let payload = [0xCD; 512];
        for rig in [&mut one, &mut four] {
            rig.provision(&data);
            rig.write(0x1000 + 256, &payload).unwrap();
            rig.flush().unwrap();
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(four.es.stats()));
        let got = one.read(0x1000, 1024).unwrap();
        assert_eq!(got, four.read(0x1000, 1024).unwrap());
        assert_eq!(&got[..256], &data[..256]);
        assert_eq!(&got[256..768], &payload[..]);
        assert_eq!(&got[768..], &data[768..1024]);
    }

    #[test]
    fn parallel_read_reports_earliest_corrupt_chunk() {
        let mut rig = Rig::new(region(512, 4096, false, false), 4);
        rig.provision(&[7u8; 8192]);
        // Corrupt chunks 2 and 5; the batch must report chunk 2.
        for idx in [2u64, 5] {
            rig.flip(0x1000 + idx * 512, 1);
        }
        let ShefError::IntegrityViolation(msg) = rig.read(0x1000, 8192).unwrap_err() else {
            panic!("expected integrity violation");
        };
        assert!(msg.contains("chunk 2"), "earliest chunk wins: {msg}");
        assert_eq!(rig.es.stats().integrity_failures, 1);
        // The detection poisons the set: follow-up traffic is rejected
        // until the containment state is explicitly cleared.
        assert!(rig.es.poisoned());
        assert!(matches!(
            rig.read(0x1000, 1024).unwrap_err(),
            ShefError::Fault(crate::fault::ShieldFault::Poisoned { .. })
        ));
        assert_eq!(rig.es.stats().contained_rejects, 1);
        // Clearing the poison drops buffered lines; the untampered
        // prefix then refills and verifies from DRAM as usual.
        rig.es.clear_poison();
        assert_eq!(rig.read(0x1000, 1024).unwrap(), vec![7u8; 1024]);
        assert_eq!(rig.es.stats().integrity_failures, 1);
    }

    #[test]
    fn serial_integrity_failure_poisons_until_cleared() {
        let mut rig = Rig::new(region(512, 4096, false, false), 1);
        rig.provision(&[7u8; 8192]);
        let addr = 0x1000 + 3 * 512;
        rig.flip(addr, 0x80);
        let err = rig.read(addr, 512).unwrap_err();
        assert!(matches!(err, ShefError::IntegrityViolation(_)));
        assert!(rig.es.poisoned());
        // Reads, writes and flushes are all fail-stopped.
        assert!(matches!(rig.read(0x1000, 16), Err(ShefError::Fault(_))));
        assert!(matches!(
            rig.write(0x1000, &[1, 2, 3]),
            Err(ShefError::Fault(_))
        ));
        assert!(matches!(rig.flush(), Err(ShefError::Fault(_))));
        assert_eq!(rig.es.stats().contained_rejects, 3);
        rig.es.clear_poison();
        assert_eq!(rig.read(0x1000, 512).unwrap(), vec![7u8; 512]);
    }

    #[test]
    fn one_shot_lane_panic_recovers_transparently() {
        let mut rig = Rig::new(region(512, 4096, false, false), 4);
        rig.provision(&[9u8; 8192]);
        rig.pool.arm_lane_panic(0);
        assert_eq!(rig.read(0x1000, 4096).unwrap(), vec![9u8; 4096]);
        let stats = rig.es.stats();
        assert_eq!(stats.lane_panics, 1);
        assert_eq!(stats.recovered_retries, 1);
        assert_eq!(stats.integrity_failures, 0);
        assert!(!rig.es.poisoned(), "a lane fault is not an integrity event");
    }

    #[test]
    fn sticky_lane_panic_drains_batch_and_surfaces_fault() {
        let mut rig = Rig::new(region(512, 4096, false, false), 4);
        rig.provision(&[9u8; 8192]);
        // Job 0 of the batch (the open of chunk 0) dies on its lane AND
        // on the inline retry: the op must fail with a contained fault,
        // not deadlock or cascade panics into sibling lanes.
        rig.pool.arm_lane_panic_sticky(0);
        assert!(matches!(
            rig.read(0x1000, 4096).unwrap_err(),
            ShefError::Fault(crate::fault::ShieldFault::LanePanic { job: 0 })
        ));
        let stats = rig.es.stats();
        assert_eq!(stats.lane_panics, 2, "attempt + retry");
        assert_eq!(stats.integrity_failures, 0);
        assert!(!rig.es.poisoned());
        // The set stays live: the same read succeeds once the fault is
        // gone (the sticky arm targeted an already-consumed job index).
        assert_eq!(rig.read(0x1000, 4096).unwrap(), vec![9u8; 4096]);
    }

    #[test]
    fn sticky_panic_on_victim_seal_still_lands_the_writeback() {
        // One-line buffer: writing chunk 0 then touching chunk 1 evicts
        // chunk 0, staging its seal as batch job 0. Killing that job
        // (attempt + retry) must not lose the evicted plaintext — the
        // drain fallback recomputes the seal inline.
        let mut rig = Rig::new(region(512, 512, false, false), 4);
        rig.provision(&[0u8; 8192]);
        let payload = vec![0xABu8; 512];
        rig.write(0x1000, &payload).unwrap();
        rig.pool.arm_lane_panic_sticky(0);
        assert_eq!(rig.read(0x1000 + 512, 512).unwrap(), vec![0u8; 512]);
        let stats = rig.es.stats();
        assert_eq!(stats.drained_seals, 1);
        assert_eq!(stats.lane_panics, 2);
        rig.pool.disarm_lane_panic();
        // The sealed chunk 0 round-trips from DRAM with the new bytes.
        assert_eq!(rig.read(0x1000, 512).unwrap(), payload);
    }

    #[test]
    fn blocking_batches_charge_the_same_stall_as_serial() {
        // Lane count must not hide a stalled accelerator: Blocking-mode
        // serial latency is the same at 8 lanes as at 1.
        let stall = |lanes: usize| {
            let mut rig = Rig::new(region(512, 4096, false, false), lanes);
            rig.provision(&[9u8; 8192]);
            rig.read_mode(0x1000, 8192, AccessMode::Blocking).unwrap();
            rig.ledger.serial()
        };
        assert_eq!(stall(8), stall(1));
    }

    #[test]
    fn parallel_merkle_round_trip_matches_serial() {
        let mut one = Rig::new(merkle_region(512, 1024, 0), 1);
        let mut three = Rig::new(merkle_region(512, 1024, 0), 3);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 193) as u8).collect();
        for rig in [&mut one, &mut three] {
            rig.write(0x1000, &payload).unwrap();
            rig.flush().unwrap();
            assert_eq!(rig.read(0x1000, 4096).unwrap(), payload);
        }
        assert_eq!(core_stats(one.es.stats()), core_stats(three.es.stats()));
        // The tree arena holds the same authenticated counters.
        assert_eq!(
            one.dram.tamper_read(0x20_0000, 4096),
            three.dram.tamper_read(0x20_0000, 4096)
        );
    }

    #[test]
    fn partial_tail_chunk() {
        // A region of 4096 + 1000 bytes with 4096-byte chunks ends in a
        // 1000-byte tail chunk.
        let mut rig = Rig::new(
            RegionConfig {
                name: "tail".into(),
                range: MemRange::new(0, 4096 + 1000),
                engine_set: EngineSetConfig {
                    chunk_size: 4096,
                    zero_fill_writes: true,
                    ..EngineSetConfig::default()
                },
            },
            1,
        );
        let data: Vec<u8> = (0..5096u32).map(|i| (i % 97) as u8).collect();
        rig.write(0, &data).unwrap();
        rig.flush().unwrap();
        assert_eq!(rig.read(0, 5096).unwrap(), data);
    }
}
