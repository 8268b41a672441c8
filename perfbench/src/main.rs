//! Host wall-clock and modelled-cycle benchmark of the ShEF workspace.
//!
//! ```text
//! shef-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one accelerator run end to end through the public
//! harness of `shef-accel`: inputs sealed and DMA'd in, the kernel run
//! behind the Shield (or the multi-tenant `ShieldService`), outputs DMA'd
//! back, decrypted and compared with the golden model. Two clocks are
//! reported: host wall-clock (how long the simulator takes, one thread)
//! and modelled cycles from the deterministic `CostLedger` (how long the
//! modelled FPGA would take).
//!
//! With `--trace 0` the run reports the end-to-end metrics: the fastest
//! run and the fastest workload build of the window, because on shared
//! hosts co-located load slows whole phases of a window. With
//! `--trace 1` it alternates plain runs with runs whose accelerator and
//! memory bus are wrapped in timers, attributes wall time to layers
//! (harness, golden model, kernel, bus), times the chunk seal/open
//! primitive at the workload's geometry, and reads the per-layer
//! counters and ledger lanes. The last line of standard output is one
//! JSON object; diagnostics go to standard error.

use std::cell::Cell;
use std::hint::black_box;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use shef_accel::affine::AffineTransform;
use shef_accel::harness::{run_baseline, run_shielded_parallel, run_shielded_service};
use shef_accel::sdp::{SdpEngineConfig, SdpOp, SdpStore};
use shef_accel::vecadd::VectorAdd;
use shef_accel::{Accelerator, CryptoProfile, RegionData};
use shef_core::shield::bus::MemoryBus;
use shef_core::shield::{
    AccessMode, EngineSetConfig, EngineSetStats, ServiceConfig, ShieldConfig, WorkerPool,
};
use shef_core::ShefError;
use shef_crypto::authenc::{AuthEncKey, Sealed};
use shef_fpga::clock::CostLedger;
use shef_telemetry::Report;

/// Workload construction is timed this many times per run; `setup_s`
/// is the fastest.
const SETUP_REPS: usize = 11;
/// Fewest measured runs, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// `vecadd_stream`: two 256 KiB vectors, 512 B chunks, AES-128/4x+HMAC.
const VECADD_BYTES: usize = 256 * 1024;
/// `affine_gather`: a 192×192 image of u32 pixels, 64 B chunks.
const AFFINE_SIZE: usize = 192;
/// `svc_kv`: tenants sharing a two-shard `ShieldService`.
const KV_TENANTS: usize = 4;
const KV_SHARDS: usize = 2;
/// Files per tenant store; every file gets one get and one put.
const KV_FILES: usize = 8;
const KV_FILE_BYTES: usize = 8 * 1024;

// ---------------------------------------------------------------- args

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

// ----------------------------------------------------------- workloads

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Streaming vector add behind one Shield: buffer-bypassing bursts,
    /// HMAC-bound chunk crypto.
    VecaddStream,
    /// Affine image gather behind one Shield: 64 B chunks read out of
    /// order, so the engine-set buffers and per-chunk tags dominate.
    AffineGather,
    /// Key-value gets/puts from several tenants through `ShieldService`:
    /// every bus operation crosses admission and the shard arbiter.
    SvcKv,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "vecadd_stream" => Some(Kind::VecaddStream),
            "affine_gather" => Some(Kind::AffineGather),
            "svc_kv" => Some(Kind::SvcKv),
            _ => None,
        }
    }
}

#[derive(Clone)]
enum Accel {
    Vecadd(VectorAdd),
    Affine(AffineTransform),
    Kv(SdpStore),
}

impl Accel {
    fn boxed(&self) -> Box<dyn Accelerator> {
        match self {
            Accel::Vecadd(a) => Box::new(a.clone()),
            Accel::Affine(a) => Box::new(a.clone()),
            Accel::Kv(a) => Box::new(a.clone()),
        }
    }
}

/// A workload instance: one accelerator per tenant (single-Shield
/// workloads have one) and the crypto profile they run under. All
/// inputs derive from the seed.
struct Workload {
    kind: Kind,
    seed: u64,
    profile: CryptoProfile,
    tenants: Vec<Accel>,
}

impl Workload {
    fn build(kind: Kind, seed: u64) -> Workload {
        let (profile, tenants) = match kind {
            Kind::VecaddStream => (
                CryptoProfile::AES128_4X,
                vec![Accel::Vecadd(VectorAdd::new(VECADD_BYTES, seed))],
            ),
            Kind::AffineGather => (
                CryptoProfile::AES128_16X,
                vec![Accel::Affine(AffineTransform::new(AFFINE_SIZE, seed))],
            ),
            Kind::SvcKv => (
                CryptoProfile::AES128_16X,
                (0..KV_TENANTS)
                    .map(|t| Accel::Kv(kv_store(seed, t)))
                    .collect(),
            ),
        };
        Workload {
            kind,
            seed,
            profile,
            tenants,
        }
    }

    /// Engine-set configuration of the first region: the chunk geometry
    /// the primitive layer is timed at.
    fn engine_set(&self) -> EngineSetConfig {
        let config = self.tenants[0].boxed().shield_config(&self.profile);
        config.regions[0].engine_set.clone()
    }
}

/// SplitMix64: a tiny deterministic generator for the op schedule.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One tenant's store: every file gets exactly one get and one put, in
/// a seed-shuffled order, so the bytes moved are the same for every seed
/// while the access order is not.
fn kv_store(seed: u64, tenant: usize) -> SdpStore {
    let mut state = seed ^ (tenant as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    let mut ops: Vec<SdpOp> = (0..KV_FILES)
        .flat_map(|i| [SdpOp::Get(i), SdpOp::Put(i)])
        .collect();
    for i in (1..ops.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        ops.swap(i, j);
    }
    // 4 AES engines, 16x S-boxes, PMAC: the Table 2 middle column.
    let engines = SdpEngineConfig::table2_columns()[2].1;
    SdpStore::new(
        KV_FILE_BYTES,
        KV_FILES,
        ops,
        engines,
        seed.wrapping_add(tenant as u64),
    )
}

// ---------------------------------------------------------------- runs

/// What one end-to-end run produced.
struct Outcome {
    verified: bool,
    /// Modelled cycles: the bottleneck of the run's ledger (the slowest
    /// tenant's for the service).
    cycles: u64,
    /// Every tenant's ledger merged, DRAM charges included.
    ledger: CostLedger,
    stats: EngineSetStats,
    dram_bytes: u64,
}

fn add_stats(total: &mut EngineSetStats, s: &EngineSetStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.writebacks += s.writebacks;
    total.parallel_jobs += s.parallel_jobs;
    total.integrity_failures += s.integrity_failures;
}

fn dram_bytes(report: &Report) -> u64 {
    ["fpga.dram.bytes_read", "fpga.dram.bytes_written"]
        .iter()
        .map(|name| report.counters.get(*name).copied().unwrap_or(0))
        .sum()
}

/// Runs the workload once end to end. With `spans`, every accelerator
/// is wrapped in [`Traced`] and its timings accumulate there.
fn run_once(w: &Workload, spans: Option<&Rc<Spans>>) -> Result<Outcome, ShefError> {
    let wrap = |accel: &Accel| -> Box<dyn Accelerator> {
        match spans {
            Some(spans) => Box::new(Traced {
                inner: accel.boxed(),
                spans: Rc::clone(spans),
            }),
            None => accel.boxed(),
        }
    };
    let mut stats = EngineSetStats::default();
    if w.kind == Kind::SvcKv {
        let next = Cell::new(0usize);
        let make = || {
            let i = next.get();
            next.set(i + 1);
            wrap(&w.tenants[i % w.tenants.len()])
        };
        // One lane per shard: no worker threads, so wall-clock is a
        // single-thread figure.
        let config = ServiceConfig {
            shards: KV_SHARDS,
            lanes_per_shard: 1,
            ..ServiceConfig::default()
        };
        let report = run_shielded_service(&make, &w.profile, w.seed, w.tenants.len(), &config)?;
        let mut ledger = CostLedger::new();
        for tenant in &report.tenants {
            ledger.merge(&tenant.ledger);
            for (_, s) in &tenant.engine_stats {
                add_stats(&mut stats, s);
            }
        }
        Ok(Outcome {
            verified: report.all_verified() && report.admitted == report.completed,
            cycles: report.makespan().0,
            ledger,
            stats,
            dram_bytes: dram_bytes(&report.telemetry),
        })
    } else {
        let mut accel = wrap(&w.tenants[0]);
        let pool = WorkerPool::new(1);
        let report = run_shielded_parallel(accel.as_mut(), &w.profile, w.seed, &pool)?;
        for (_, s) in &report.engine_stats {
            add_stats(&mut stats, s);
        }
        Ok(Outcome {
            verified: report.outputs_verified,
            cycles: report.cycles.0,
            stats,
            dram_bytes: dram_bytes(&report.telemetry),
            ledger: report.ledger,
        })
    }
}

/// Modelled cycles of the insecure baseline (no Shield), slowest tenant.
fn baseline_cycles(w: &Workload) -> Result<u64, String> {
    let mut worst = 0;
    for accel in &w.tenants {
        let report = run_baseline(accel.boxed().as_mut()).map_err(|e| e.to_string())?;
        if !report.outputs_verified {
            return Err("baseline outputs do not match the golden model".into());
        }
        worst = worst.max(report.cycles.0);
    }
    Ok(worst)
}

// ------------------------------------------------------------- tracing

/// Wall time the traced wrappers saw, summed over one run.
#[derive(Default)]
struct Spans {
    /// Inside `Accelerator::run` (kernel self time plus bus time).
    kernel: Cell<Duration>,
    /// Inside `MemoryBus::{read,write,flush}`: the Shield datapath, and
    /// for the service also admission and shard dispatch.
    bus: Cell<Duration>,
    /// Inside `inputs` and `expected_outputs`: the workload's golden
    /// model.
    golden: Cell<Duration>,
    bus_ops: Cell<u64>,
}

fn charge(cell: &Cell<Duration>, since: Instant) {
    cell.set(cell.get() + since.elapsed());
}

struct Traced {
    inner: Box<dyn Accelerator>,
    spans: Rc<Spans>,
}

impl Accelerator for Traced {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
        self.inner.shield_config(profile)
    }

    fn inputs(&self) -> Vec<RegionData> {
        let start = Instant::now();
        let inputs = self.inner.inputs();
        charge(&self.spans.golden, start);
        inputs
    }

    fn expected_outputs(&self) -> Vec<RegionData> {
        let start = Instant::now();
        let outputs = self.inner.expected_outputs();
        charge(&self.spans.golden, start);
        outputs
    }

    fn host_pre(&self) -> Vec<(usize, u64)> {
        self.inner.host_pre()
    }

    fn host_post(
        &self,
        read_reg: &mut dyn FnMut(usize) -> Result<u64, ShefError>,
    ) -> Result<bool, ShefError> {
        self.inner.host_post(read_reg)
    }

    fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
        let start = Instant::now();
        let mut timed = TimedBus {
            inner: bus,
            spans: &self.spans,
        };
        let result = self.inner.run(&mut timed);
        charge(&self.spans.kernel, start);
        result
    }
}

struct TimedBus<'a> {
    inner: &'a mut dyn MemoryBus,
    spans: &'a Spans,
}

impl TimedBus<'_> {
    fn timed<R>(&mut self, op: impl FnOnce(&mut dyn MemoryBus) -> R) -> R {
        let start = Instant::now();
        let result = op(&mut *self.inner);
        charge(&self.spans.bus, start);
        self.spans.bus_ops.set(self.spans.bus_ops.get() + 1);
        result
    }
}

impl MemoryBus for TimedBus<'_> {
    fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Result<Vec<u8>, ShefError> {
        self.timed(|bus| bus.read(addr, len, mode))
    }

    fn write(&mut self, addr: u64, data: &[u8], mode: AccessMode) -> Result<(), ShefError> {
        self.timed(|bus| bus.write(addr, data, mode))
    }

    fn flush(&mut self) -> Result<(), ShefError> {
        self.timed(|bus| bus.flush())
    }

    fn compute(&mut self, cycles: u64) {
        self.inner.compute(cycles);
    }

    fn reg_read(&mut self, index: usize) -> u64 {
        self.inner.reg_read(index)
    }

    fn reg_write(&mut self, index: usize, value: u64) {
        self.inner.reg_write(index, value);
    }
}

/// Times sealing and opening one chunk with an engine set's key size,
/// chunk size and MAC: the primitive layer under every bus operation.
struct PrimitiveTimer {
    key: AuthEncKey,
    plain: Vec<u8>,
    sealed: Sealed,
    batch: usize,
}

/// Associated data of the timed chunk (the Shield binds chunk address
/// and epoch there).
const CHUNK_AD: [u8; 16] = [0; 16];

impl PrimitiveTimer {
    fn new(es: &EngineSetConfig) -> Self {
        let mut key = AuthEncKey::with_key_size([0x5a; 32], es.mac, es.key_size);
        let plain = vec![0xa5u8; es.chunk_size];
        let sealed = key.seal(&plain, &CHUNK_AD);
        // Size batches to about 1 ms so timer resolution is irrelevant.
        let probe = Instant::now();
        for _ in 0..8 {
            black_box(
                key.open(black_box(&sealed), &CHUNK_AD)
                    .expect("own seal opens"),
            );
        }
        let per_call = probe.elapsed().as_secs_f64() / 8.0;
        let batch = ((0.001 / per_call.max(1e-9)) as usize).clamp(1, 100_000);
        PrimitiveTimer {
            key,
            plain,
            sealed,
            batch,
        }
    }

    /// One batch each of seals and opens: microseconds per call.
    fn sample(&mut self) -> (f64, f64) {
        let start = Instant::now();
        for _ in 0..self.batch {
            black_box(self.key.seal(black_box(&self.plain), &CHUNK_AD));
        }
        let seal = start.elapsed();
        let start = Instant::now();
        for _ in 0..self.batch {
            black_box(
                self.key
                    .open(black_box(&self.sealed), &CHUNK_AD)
                    .expect("own seal opens"),
            );
        }
        let open = start.elapsed();
        let per_call = |d: Duration| d.as_secs_f64() * 1e6 / self.batch as f64;
        (per_call(seal), per_call(open))
    }
}

// ------------------------------------------------------------- metrics

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 100].
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Tallies measured runs and checks each against the reference run.
struct Tally {
    attempted: u64,
    failed: u64,
    reference_cycles: u64,
}

impl Tally {
    fn check(&mut self, outcome: Result<Outcome, ShefError>) -> Option<Outcome> {
        self.attempted += 1;
        match outcome {
            Ok(o)
                if o.verified
                    && o.stats.integrity_failures == 0
                    && o.cycles == self.reference_cycles =>
            {
                Some(o)
            }
            Ok(o) => {
                self.failed += 1;
                eprintln!(
                    "run {}: verified={} integrity_failures={} cycles={} (reference {})",
                    self.attempted,
                    o.verified,
                    o.stats.integrity_failures,
                    o.cycles,
                    self.reference_cycles
                );
                None
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("run {}: error: {e}", self.attempted);
                None
            }
        }
    }
}

// ---------------------------------------------------------------- main

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("shef-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shef-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<String, String> {
    // Set-up: build the workload from the seed (input generation for
    // every tenant), then one untimed warm-up run that also fixes the
    // reference modelled cycles. Further builds are timed evenly across
    // the measured window, so `setup_s` sees the same machine as the runs.
    let start = Instant::now();
    let w = black_box(Workload::build(args.kind, args.seed));
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let warm = run_once(&w, None).map_err(|e| format!("warm-up run failed: {e}"))?;
    if !warm.verified {
        return Err("warm-up run: outputs do not match the golden model".into());
    }
    let base_cycles = baseline_cycles(&w)?;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        reference_cycles: warm.cycles,
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Metrics(Vec::new());
    if args.trace {
        trace(&w, budget, base_cycles, &mut tally, &mut metrics);
    } else {
        let mut run_ms = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget || run_ms.len() < MIN_RUNS {
            let due = budget.mul_f64(setup_s.len() as f64 / SETUP_REPS as f64);
            if setup_s.len() < SETUP_REPS && start.elapsed() >= due {
                let t = Instant::now();
                black_box(Workload::build(args.kind, args.seed));
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let t = Instant::now();
            let outcome = run_once(&w, None);
            let elapsed = t.elapsed();
            if tally.check(outcome).is_some() {
                run_ms.push(ms(elapsed));
            }
        }
        if run_ms.is_empty() {
            return Err("no run succeeded".into());
        }
        eprintln!(
            "run ms over {} runs: p10 {:.3} p50 {:.3} p90 {:.3}",
            run_ms.len(),
            percentile(&mut run_ms, 10.0),
            percentile(&mut run_ms, 50.0),
            percentile(&mut run_ms, 90.0)
        );
        metrics.push("best_run_ms", fastest(&run_ms), "ms");
        metrics.push("setup_s", fastest(&setup_s), "s");
    }

    let lanes: Vec<String> = top_lanes(&warm.ledger, 3)
        .iter()
        .map(|(lane, c)| format!("{lane}={c}"))
        .collect();
    eprintln!(
        "{:?} seed {}: {} runs, {} failed; modelled {} cycles (baseline {}), top lanes {}",
        w.kind,
        w.seed,
        tally.attempted,
        tally.failed,
        warm.cycles,
        base_cycles,
        lanes.join(" ")
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    ))
}

fn top_lanes(ledger: &CostLedger, k: usize) -> Vec<(String, u64)> {
    let mut lanes: Vec<(String, u64)> = ledger
        .lanes()
        .map(|(name, c)| (name.to_owned(), c.0))
        .collect();
    lanes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    lanes.truncate(k);
    lanes
}

/// The traced run: plain and traced runs alternate, so the tracing cost
/// is measured alongside the per-layer split, and each traced run is
/// followed by a primitive-layer sample taken on the same machine state.
fn trace(
    w: &Workload,
    budget: Duration,
    base_cycles: u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    let mut primitives = PrimitiveTimer::new(&w.engine_set());
    let (mut plain, mut total, mut host, mut golden, mut kernel, mut bus) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut seal_us, mut open_us, mut crypto_share) = (vec![], vec![], vec![]);
    let mut last: Option<(Outcome, u64)> = None;
    let start = Instant::now();
    while start.elapsed() < budget || total.len() < MIN_RUNS {
        let t = Instant::now();
        let outcome = run_once(w, None);
        let elapsed = t.elapsed();
        if tally.check(outcome).is_some() {
            plain.push(ms(elapsed));
        }

        let spans = Rc::new(Spans::default());
        let t = Instant::now();
        let outcome = run_once(w, Some(&spans));
        let elapsed = t.elapsed();
        if let Some(outcome) = tally.check(outcome) {
            let (k, b, g) = (spans.kernel.get(), spans.bus.get(), spans.golden.get());
            total.push(ms(elapsed));
            kernel.push(ms(k.saturating_sub(b)));
            bus.push(ms(b));
            golden.push(ms(g));
            host.push(ms(elapsed.saturating_sub(k + g)));
            // Chunk crypto inside the bus: fills open a chunk, write-backs
            // seal one, at the per-call cost measured right after the run.
            let (seal, open) = primitives.sample();
            let s = &outcome.stats;
            let crypto_ms = (s.misses as f64 * open + s.writebacks as f64 * seal) / 1e3;
            crypto_share.push(crypto_ms / ms(b).max(1e-9));
            seal_us.push(seal);
            open_us.push(open);
            last = Some((outcome, spans.bus_ops.get()));
        }
    }
    let Some((outcome, bus_ops)) = last else {
        return;
    };
    let s = &outcome.stats;
    let workload_ms = median(&mut total);

    metrics.push("workload_ms", workload_ms, "ms");
    metrics.push("host_ms", median(&mut host), "ms");
    metrics.push("golden_ms", median(&mut golden), "ms");
    metrics.push("kernel_ms", median(&mut kernel), "ms");
    metrics.push("bus_ms", median(&mut bus), "ms");
    metrics.push(
        "trace_cost_ratio",
        workload_ms / median(&mut plain).max(1e-9),
        "ratio",
    );
    metrics.push("chunk_seal_us", median(&mut seal_us), "us");
    metrics.push("chunk_open_us", median(&mut open_us), "us");
    metrics.push("crypto_est_share", median(&mut crypto_share), "ratio");
    metrics.push("bus_ops", bus_ops as f64, "count");
    metrics.push("chunk_jobs", s.parallel_jobs as f64, "count");
    metrics.push("buffer_hits", s.hits as f64, "count");
    metrics.push("buffer_misses", s.misses as f64, "count");
    metrics.push(
        "buffer_hit_rate",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
        "ratio",
    );
    metrics.push("writebacks", s.writebacks as f64, "count");
    metrics.push("dram_bytes", outcome.dram_bytes as f64, "bytes");
    metrics.push("model_cycles", outcome.cycles as f64, "cycles");
    metrics.push(
        "model_overhead",
        outcome.cycles as f64 / base_cycles.max(1) as f64,
        "x",
    );
    // The bottleneck model is serial + busiest lane; the serial term is
    // DMA set-up and handshakes no lane fan-out can hide.
    metrics.push(
        "model_serial_share",
        outcome.ledger.serial().0 as f64 / outcome.ledger.bottleneck().0.max(1) as f64,
        "ratio",
    );
}
