//! # shef-testkit: deterministic fault-injection campaigns for the Shield
//!
//! ShEF's security story is *detect and contain*: the Shield must turn
//! every tampering attempt by an adversary who owns the host, Shell,
//! DRAM and debug ports (paper §2.5) into a machine-checkable verdict,
//! and must never corrupt data silently or hang. This crate makes that
//! contract executable. A seeded [`FaultPlan`] schedules faults at
//! named injection points; [`run_plan`] drives a full read/write/flush
//! trace against a faulted Shield datapath next to a plaintext shadow
//! of the region and classifies what happened.
//!
//! ## Outcome taxonomy
//!
//! | Verdict | Meaning |
//! |---|---|
//! | [`Verdict::DetectedSpoof`] | Tampered bytes/tag rejected by authentication |
//! | [`Verdict::DetectedSplice`] | Relocated ciphertext rejected (address binding) |
//! | [`Verdict::DetectedReplay`] | Stale-but-valid data rejected (freshness binding) |
//! | [`Verdict::Drained`] | Lane death absorbed; every staged victim seal landed |
//! | [`Verdict::Poisoned`] | Post-detection traffic fail-stopped by containment |
//! | [`Verdict::RecoveredAfterRetry`] | Transient lane fault absorbed by the bounded retry |
//! | [`Verdict::Masked`] | Fault injected but provably never consumed |
//! | [`Verdict::Clean`] | Fault-free plan, byte-identical to the shadow memory |
//! | [`Verdict::SilentCorruption`] | **Forbidden**: wrong bytes accepted, or containment breached |
//! | [`Verdict::Hang`] | **Forbidden**: scenario exceeded its watchdog budget |
//!
//! The first eight verdicts are allowlisted; `SilentCorruption` and
//! `Hang` fail the campaign gate.
//!
//! ## Writing a `FaultPlan`
//!
//! A plan is a seed (all randomness is a deterministic LCG of it), an
//! integrity scheme, a worker-pool lane count, a trace length, and a list
//! of [`FaultEvent`]s. [`FaultPlan::single`] derives a one-fault plan
//! from a seed; [`FaultPlan::randomized`] schedules several memory
//! faults for property tests; or build the struct directly:
//!
//! ```
//! use shef_testkit::{run_plan, FaultClass, FaultEvent, FaultPlan, Scheme};
//!
//! let plan = FaultPlan {
//!     seed: 7,
//!     scheme: Scheme::Counters,
//!     lanes: 4,
//!     ops: 24,
//!     events: vec![FaultEvent {
//!         at_op: 5,
//!         class: FaultClass::DramBitFlip,
//!         chunk: 3,
//!         byte: 17,
//!         flip: 0x40,
//!     }],
//! };
//! let report = run_plan(&plan);
//! assert!(report.is_allowed(), "{report:?}");
//! ```
//!
//! Injection points are addressed by module path ([`InjectionPoint`]):
//! `fpga::dram` (ciphertext and tag arenas), `fpga::ports` (debug
//! ports), `core::wire` (frame encoding), `shield::stream` (sealed
//! frame payloads), `shield::regif` (sealed register writes) and
//! `shield::pool` (worker lanes). The `shield::engine` containment
//! state is probed after every detected integrity failure: the next
//! operation must be rejected by the poisoned engine set.
//!
//! The remote-attestation protocol has its own injection points —
//! `attest::quote` (forged quote signatures), `attest::verifier.nonce`
//! (replayed transcripts), `attest::kernel.measure` (an unregistered
//! Shield bitstream) and `attest::session.sealed_dek` (sealed tenant
//! keys spliced between sessions). Each must land in its typed
//! `AttestError` and leave the honest protocol round able to complete;
//! an accepted forgery, replay, rogue measurement or spliced key is
//! `SilentCorruption` like any other containment breach.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use shef_attest::{AttestError, AttestationEnvironment, AttestationTicket};
use shef_core::attacks::{splice_chunks, ReplaySnapshot};
use shef_core::fault::ShieldFault;
use shef_core::shield::config::{EngineSetConfig, MemRange, RegionConfig, RegisterInterfaceConfig};
use shef_core::shield::engine::{AccessMode, EngineSet};
use shef_core::shield::merkle::MerkleConfig;
use shef_core::shield::regif::RegisterInterface;
use shef_core::shield::stream::{StreamEndpoint, StreamFrame};
use shef_core::shield::{
    client, Completion, DataEncryptionKey, RequestId, ServiceConfig, ServiceRequest, ShieldConfig,
    ShieldService, TenantId, WorkerPool,
};
use shef_core::ShefError;
use shef_crypto::authenc::MacAlgorithm;
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::ports::{DebugPort, DebugPorts, PortAccessOutcome};
use shef_fpga::shell::Shell;

/// Chunk size of the campaign region.
pub const CHUNK: usize = 512;
/// Chunks in the campaign region.
pub const NUM_CHUNKS: u64 = 16;
/// Campaign region length in bytes.
pub const REGION_LEN: u64 = CHUNK as u64 * NUM_CHUNKS;
/// Default trace length of a generated plan.
pub const DEFAULT_OPS: usize = 24;

const REGION_BASE: u64 = 0x1000;
const TAG_BASE: u64 = 0x10_0000;
const MERKLE_BASE: u64 = 0x20_0000;
const BUFFER_LINES: usize = 4;
const TAG_LEN: usize = 16;

/// Deterministic 64-bit LCG (Knuth's MMIX constants) — the only source
/// of randomness in the campaign engine.
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

/// Replay-defence scheme of the campaign region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Per-chunk MACs only: spoof/splice detection, no freshness.
    MacOnly,
    /// On-chip freshness counters.
    Counters,
    /// DRAM-resident Bonsai Merkle tree.
    Merkle,
}

impl Scheme {
    /// All schemes, for sweeps.
    pub const ALL: [Scheme; 3] = [Scheme::MacOnly, Scheme::Counters, Scheme::Merkle];

    /// Stable lowercase label for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::MacOnly => "mac_only",
            Scheme::Counters => "counters",
            Scheme::Merkle => "merkle",
        }
    }
}

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip one ciphertext byte of a chunk in DRAM.
    DramBitFlip,
    /// Flip one byte of a chunk's MAC tag in the DRAM tag arena.
    TagBitFlip,
    /// Copy one chunk's ciphertext + tag over a sibling chunk.
    CiphertextSplice,
    /// Replay a stale (provision-time) ciphertext + tag snapshot.
    StaleReplay,
    /// Truncate an authenticated stream frame on the wire.
    WireTruncate,
    /// Flip one byte of an authenticated stream frame on the wire.
    WireCorrupt,
    /// Flip one byte of a sealed register write.
    RegisterTamper,
    /// One-shot worker-lane panic (transient fault).
    LanePanic,
    /// Sticky worker-lane panic (the inline retry dies too).
    LanePanicSticky,
    /// Adversarial poke at a monitored debug port.
    DebugPortPoke,
    /// Drop one admitted request from the multi-tenant service queue.
    AdmissionDrop,
    /// Sticky lane panic inside one tenant's service shard.
    ShardPanic,
    /// Abort one tenant mid-batch while its requests are queued.
    TenantAbort,
    /// Forge a quote: flip one byte of the Attestation-Key signature.
    AttestQuoteForge,
    /// Replay a complete, previously verified quote transcript.
    AttestNonceReplay,
    /// Attest a Shield bitstream outside the known-good registry.
    AttestWrongMeasurement,
    /// Splice a sealed-DEK blob from another attestation session into
    /// a verifier-issued ticket.
    AttestDekTamper,
}

impl FaultClass {
    /// Every fault class, in campaign sweep order.
    pub const ALL: [FaultClass; 17] = [
        FaultClass::DramBitFlip,
        FaultClass::TagBitFlip,
        FaultClass::CiphertextSplice,
        FaultClass::StaleReplay,
        FaultClass::WireTruncate,
        FaultClass::WireCorrupt,
        FaultClass::RegisterTamper,
        FaultClass::LanePanic,
        FaultClass::LanePanicSticky,
        FaultClass::DebugPortPoke,
        FaultClass::AdmissionDrop,
        FaultClass::ShardPanic,
        FaultClass::TenantAbort,
        FaultClass::AttestQuoteForge,
        FaultClass::AttestNonceReplay,
        FaultClass::AttestWrongMeasurement,
        FaultClass::AttestDekTamper,
    ];

    /// The memory-datapath classes (drivable by an LCG trace).
    pub const MEMORY: [FaultClass; 6] = [
        FaultClass::DramBitFlip,
        FaultClass::TagBitFlip,
        FaultClass::CiphertextSplice,
        FaultClass::StaleReplay,
        FaultClass::LanePanic,
        FaultClass::LanePanicSticky,
    ];

    /// Stable lowercase label for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::DramBitFlip => "dram_bit_flip",
            FaultClass::TagBitFlip => "tag_bit_flip",
            FaultClass::CiphertextSplice => "ciphertext_splice",
            FaultClass::StaleReplay => "stale_replay",
            FaultClass::WireTruncate => "wire_truncate",
            FaultClass::WireCorrupt => "wire_corrupt",
            FaultClass::RegisterTamper => "register_tamper",
            FaultClass::LanePanic => "lane_panic",
            FaultClass::LanePanicSticky => "lane_panic_sticky",
            FaultClass::DebugPortPoke => "debug_port_poke",
            FaultClass::AdmissionDrop => "admission_drop",
            FaultClass::ShardPanic => "shard_panic",
            FaultClass::TenantAbort => "tenant_abort",
            FaultClass::AttestQuoteForge => "attest_quote_forge",
            FaultClass::AttestNonceReplay => "attest_nonce_replay",
            FaultClass::AttestWrongMeasurement => "attest_wrong_measurement",
            FaultClass::AttestDekTamper => "attest_dek_tamper",
        }
    }

    /// Where this class injects.
    #[must_use]
    pub fn injection_point(self) -> InjectionPoint {
        match self {
            FaultClass::DramBitFlip | FaultClass::CiphertextSplice | FaultClass::StaleReplay => {
                InjectionPoint::DramData
            }
            FaultClass::TagBitFlip => InjectionPoint::DramTags,
            FaultClass::WireTruncate => InjectionPoint::WireFrame,
            FaultClass::WireCorrupt => InjectionPoint::ShieldStream,
            FaultClass::RegisterTamper => InjectionPoint::ShieldRegif,
            FaultClass::LanePanic | FaultClass::LanePanicSticky => InjectionPoint::ShieldPool,
            FaultClass::DebugPortPoke => InjectionPoint::DebugPorts,
            FaultClass::AdmissionDrop | FaultClass::ShardPanic | FaultClass::TenantAbort => {
                InjectionPoint::ShieldService
            }
            FaultClass::AttestQuoteForge => InjectionPoint::AttestQuote,
            FaultClass::AttestNonceReplay => InjectionPoint::AttestNonce,
            FaultClass::AttestWrongMeasurement => InjectionPoint::AttestMeasurement,
            FaultClass::AttestDekTamper => InjectionPoint::AttestSealedDek,
        }
    }

    /// Schemes under which this class is *detectable*. Replaying a
    /// stale block under `MacOnly` is undetectable by design — the
    /// paper adds counters/BMT precisely to close it — so campaigns
    /// never schedule that combination.
    #[must_use]
    pub fn valid_schemes(self) -> &'static [Scheme] {
        match self {
            FaultClass::StaleReplay => &[Scheme::Counters, Scheme::Merkle],
            _ => &[Scheme::MacOnly, Scheme::Counters, Scheme::Merkle],
        }
    }

    /// Whether the class is exercised by a memory trace.
    #[must_use]
    pub fn is_memory(self) -> bool {
        Self::MEMORY.contains(&self)
    }

    /// Whether the class kills a worker-pool lane.
    /// [`FaultClass::ShardPanic`] also qualifies: it kills a lane inside
    /// a service shard's pool.
    #[must_use]
    pub fn uses_pool(self) -> bool {
        matches!(
            self,
            FaultClass::LanePanic | FaultClass::LanePanicSticky | FaultClass::ShardPanic
        )
    }
}

/// A named injection point, addressed by module path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// `fpga::dram` — region ciphertext arena.
    DramData,
    /// `fpga::dram` — chunk-tag arena.
    DramTags,
    /// `fpga::ports` — JTAG/ICAP/virtual-JTAG monitors.
    DebugPorts,
    /// `core::wire` — frame encoding between endpoints.
    WireFrame,
    /// `shield::stream` — sealed frame payloads.
    ShieldStream,
    /// `shield::regif` — sealed register interface.
    ShieldRegif,
    /// `shield::pool` — worker lanes of the batch datapath.
    ShieldPool,
    /// `shield::service` — the multi-tenant admission queue and shards.
    ShieldService,
    /// `attest::quote` — the Attestation-Key signature over a quote.
    AttestQuote,
    /// `attest::verifier.nonce` — the verifier's freshness window.
    AttestNonce,
    /// `attest::kernel.measure` — the measured Shield bitstream.
    AttestMeasurement,
    /// `attest::session.sealed_dek` — the AES-GCM-sealed tenant DEK.
    AttestSealedDek,
}

impl InjectionPoint {
    /// Stable label for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            InjectionPoint::DramData => "fpga::dram.data",
            InjectionPoint::DramTags => "fpga::dram.tags",
            InjectionPoint::DebugPorts => "fpga::ports",
            InjectionPoint::WireFrame => "core::wire.frame",
            InjectionPoint::ShieldStream => "shield::stream.recv",
            InjectionPoint::ShieldRegif => "shield::regif.host",
            InjectionPoint::ShieldPool => "shield::pool.lane",
            InjectionPoint::ShieldService => "shield::service.queue",
            InjectionPoint::AttestQuote => "attest::quote",
            InjectionPoint::AttestNonce => "attest::verifier.nonce",
            InjectionPoint::AttestMeasurement => "attest::kernel.measure",
            InjectionPoint::AttestSealedDek => "attest::session.sealed_dek",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Trace-op index before which the fault is injected.
    pub at_op: usize,
    /// What to inject.
    pub class: FaultClass,
    /// Target chunk (memory classes; taken mod [`NUM_CHUNKS`]).
    pub chunk: u32,
    /// Byte offset within the target (flips/truncation; taken mod the
    /// target length).
    pub byte: usize,
    /// Nonzero XOR mask for flip classes.
    pub flip: u8,
}

/// A seeded, deterministic fault schedule (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the LCG that drives the trace and all fault targeting.
    pub seed: u64,
    /// Integrity scheme of the campaign region.
    pub scheme: Scheme,
    /// Worker-pool lanes of the faulted run.
    pub lanes: usize,
    /// Trace length in operations.
    pub ops: usize,
    /// Scheduled faults, injected before the op they name.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A fault-free plan: must come back [`Verdict::Clean`].
    #[must_use]
    pub fn clean(seed: u64, scheme: Scheme, lanes: usize) -> Self {
        FaultPlan {
            seed,
            scheme,
            lanes,
            ops: DEFAULT_OPS,
            events: Vec::new(),
        }
    }

    /// A single-fault plan with seed-derived targeting. Panics if the
    /// class is undetectable under `scheme` (see
    /// [`FaultClass::valid_schemes`]).
    #[must_use]
    pub fn single(seed: u64, class: FaultClass, scheme: Scheme, lanes: usize) -> Self {
        assert!(
            class.valid_schemes().contains(&scheme),
            "{} is undetectable by design under {}",
            class.as_str(),
            scheme.as_str()
        );
        let mut rng = Lcg(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(class as u64 + 1)));
        let event = FaultEvent {
            at_op: 2 + rng.below(DEFAULT_OPS as u64 - 6) as usize,
            class,
            chunk: rng.below(NUM_CHUNKS) as u32,
            byte: rng.below(CHUNK as u64) as usize,
            flip: 1 + rng.below(255) as u8,
        };
        FaultPlan {
            seed,
            scheme,
            lanes,
            ops: DEFAULT_OPS,
            events: vec![event],
        }
    }

    /// A multi-fault plan over the memory classes only (property-test
    /// generator). Replay events are skipped under `MacOnly`.
    #[must_use]
    pub fn randomized(seed: u64, n_events: usize, scheme: Scheme, lanes: usize) -> Self {
        let mut rng = Lcg(seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1));
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let class = FaultClass::MEMORY[rng.below(FaultClass::MEMORY.len() as u64) as usize];
            if !class.valid_schemes().contains(&scheme) {
                continue;
            }
            events.push(FaultEvent {
                at_op: rng.below(DEFAULT_OPS as u64) as usize,
                class,
                chunk: rng.below(NUM_CHUNKS) as u32,
                byte: rng.below(CHUNK as u64) as usize,
                flip: 1 + rng.below(255) as u8,
            });
        }
        events.sort_by_key(|e| e.at_op);
        FaultPlan {
            seed,
            scheme,
            lanes,
            ops: DEFAULT_OPS,
            events,
        }
    }
}

/// The machine-checkable outcome taxonomy (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Tampered bytes or tag rejected by chunk/frame authentication.
    DetectedSpoof,
    /// Relocated ciphertext rejected by the address binding.
    DetectedSplice,
    /// Stale-but-authentic data rejected by the freshness binding.
    DetectedReplay,
    /// A dead lane was absorbed: the batch drained, no chunk was lost.
    Drained,
    /// Post-detection traffic was fail-stopped by engine poisoning.
    Poisoned,
    /// A transient lane fault was absorbed by the bounded inline retry.
    RecoveredAfterRetry,
    /// The fault was injected but provably never consumed.
    Masked,
    /// Fault-free plan, byte-identical to the plaintext shadow memory.
    Clean,
    /// **Forbidden**: wrong bytes accepted, or containment breached.
    SilentCorruption,
    /// **Forbidden**: the scenario exceeded its watchdog budget.
    Hang,
}

impl Verdict {
    /// Every verdict in the taxonomy, in report order.
    pub const ALL: [Verdict; 10] = [
        Verdict::DetectedSpoof,
        Verdict::DetectedSplice,
        Verdict::DetectedReplay,
        Verdict::Drained,
        Verdict::Poisoned,
        Verdict::RecoveredAfterRetry,
        Verdict::Masked,
        Verdict::Clean,
        Verdict::SilentCorruption,
        Verdict::Hang,
    ];

    /// Whether the verdict is on the campaign allowlist.
    #[must_use]
    pub fn is_allowed(self) -> bool {
        !matches!(self, Verdict::SilentCorruption | Verdict::Hang)
    }

    /// Stable lowercase label for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::DetectedSpoof => "detected_spoof",
            Verdict::DetectedSplice => "detected_splice",
            Verdict::DetectedReplay => "detected_replay",
            Verdict::Drained => "drained",
            Verdict::Poisoned => "poisoned",
            Verdict::RecoveredAfterRetry => "recovered_after_retry",
            Verdict::Masked => "masked",
            Verdict::Clean => "clean",
            Verdict::SilentCorruption => "silent_corruption",
            Verdict::Hang => "hang",
        }
    }
}

impl core::fmt::Display for Verdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one scenario run concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Primary verdict: what happened to the injected fault.
    pub verdict: Verdict,
    /// Containment-probe verdict, when the scenario ended in a
    /// detection: [`Verdict::Poisoned`] if the engine fail-stopped the
    /// next access, [`Verdict::Drained`] if a lane death drained
    /// cleanly, [`Verdict::SilentCorruption`] on a containment breach.
    pub probe: Option<Verdict>,
    /// Human-readable context for the verdict matrix.
    pub detail: String,
}

impl ScenarioReport {
    /// Whether both the verdict and the containment probe are on the
    /// campaign allowlist.
    #[must_use]
    pub fn is_allowed(&self) -> bool {
        self.verdict.is_allowed() && self.probe.is_none_or(Verdict::is_allowed)
    }

    fn forbidden(detail: impl Into<String>) -> Self {
        ScenarioReport {
            verdict: Verdict::SilentCorruption,
            probe: None,
            detail: detail.into(),
        }
    }
}

// ---------------------------------------------------------------------
// Memory-trace scenarios
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Read { offset: u64, len: usize },
    Write { offset: u64, len: usize, fill: u8 },
    Flush,
}

/// Reproducible mixed trace: ~45% reads, ~45% writes, ~10% flushes,
/// spans up to 3 chunks at arbitrary alignment.
fn trace(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = Lcg(seed);
    let max_span = (3 * CHUNK) as u64;
    (0..ops)
        .map(|_| {
            let kind = rng.below(100);
            let offset = rng.below(REGION_LEN - 1);
            let len = (1 + rng.below(max_span)).min(REGION_LEN - offset) as usize;
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

struct Setup {
    es: EngineSet,
    shell: Shell,
    dram: Dram,
    ledger: CostLedger,
}

fn setup(scheme: Scheme) -> Setup {
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
        name: "fault".into(),
        range: MemRange::new(REGION_BASE, REGION_LEN),
        engine_set: EngineSetConfig {
            chunk_size: CHUNK,
            buffer_bytes: CHUNK * BUFFER_LINES,
            counters,
            merkle,
            zero_fill_writes: false,
            ..EngineSetConfig::default()
        },
    };
    let dek = DataEncryptionKey::from_bytes([0x5Fu8; 32]);
    let es = EngineSet::new(region.clone(), 0, TAG_BASE, MERKLE_BASE, &dek);
    let mut dram = Dram::new(1 << 22);
    let enc = client::encrypt_region(&dek, &region, &vec![0u8; REGION_LEN as usize], 0);
    dram.tamper_write(REGION_BASE, &enc.ciphertext);
    dram.tamper_write(TAG_BASE, &enc.tags);
    Setup {
        es,
        shell: Shell::new(),
        dram,
        ledger: CostLedger::new(),
    }
}

impl Setup {
    fn read(&mut self, pool: &WorkerPool, offset: u64, len: usize) -> Result<Vec<u8>, ShefError> {
        self.es.read(
            &mut self.shell,
            &mut self.dram,
            &mut self.ledger,
            REGION_BASE + offset,
            len,
            AccessMode::Streaming,
            pool,
        )
    }

    fn write(&mut self, pool: &WorkerPool, offset: u64, data: &[u8]) -> Result<(), ShefError> {
        self.es.write(
            &mut self.shell,
            &mut self.dram,
            &mut self.ledger,
            REGION_BASE + offset,
            data,
            AccessMode::Streaming,
            pool,
        )
    }

    fn flush(&mut self, pool: &WorkerPool) -> Result<(), ShefError> {
        self.es
            .flush(&mut self.shell, &mut self.dram, &mut self.ledger, pool)
    }
}

/// Applies one scheduled fault to the faulted instance.
fn inject(
    ev: &FaultEvent,
    s: &mut Setup,
    pool: &WorkerPool,
    snapshots: &HashMap<u32, ReplaySnapshot>,
) {
    let chunk = u64::from(ev.chunk) % NUM_CHUNKS;
    match ev.class {
        FaultClass::DramBitFlip => {
            let addr = REGION_BASE + chunk * CHUNK as u64 + (ev.byte % CHUNK) as u64;
            let mut byte = s.dram.tamper_read(addr, 1);
            byte[0] ^= ev.flip.max(1);
            s.dram.tamper_write(addr, &byte);
        }
        FaultClass::TagBitFlip => {
            let addr = TAG_BASE + chunk * TAG_LEN as u64 + (ev.byte % TAG_LEN) as u64;
            let mut byte = s.dram.tamper_read(addr, 1);
            byte[0] ^= ev.flip.max(1);
            s.dram.tamper_write(addr, &byte);
        }
        FaultClass::CiphertextSplice => {
            let src = chunk;
            let dst = (chunk + 1) % NUM_CHUNKS;
            splice_chunks(
                &mut s.dram,
                REGION_BASE + src * CHUNK as u64,
                REGION_BASE + dst * CHUNK as u64,
                CHUNK,
                TAG_BASE + src * TAG_LEN as u64,
                TAG_BASE + dst * TAG_LEN as u64,
                TAG_LEN,
            );
        }
        FaultClass::StaleReplay => {
            snapshots
                .get(&(chunk as u32))
                .expect("snapshot captured for every replay event")
                .replay(&mut s.dram);
        }
        FaultClass::LanePanic | FaultClass::LanePanicSticky => {
            let nth = (ev.byte % 4) as u64;
            if ev.class == FaultClass::LanePanic {
                pool.arm_lane_panic(nth);
            } else {
                pool.arm_lane_panic_sticky(nth);
            }
        }
        _ => unreachable!("non-memory class in a memory scenario"),
    }
}

/// Maps an (injected class, surfaced error) pair to a verdict. An
/// error kind the class cannot legitimately produce is a broken
/// detection contract and fails the gate.
fn classify(class: FaultClass, err: &ShefError) -> Verdict {
    match (class, err) {
        (FaultClass::DramBitFlip | FaultClass::TagBitFlip, ShefError::IntegrityViolation(_)) => {
            Verdict::DetectedSpoof
        }
        (FaultClass::CiphertextSplice, ShefError::IntegrityViolation(_)) => Verdict::DetectedSplice,
        (FaultClass::StaleReplay, ShefError::IntegrityViolation(_)) => Verdict::DetectedReplay,
        (
            FaultClass::LanePanic | FaultClass::LanePanicSticky,
            ShefError::Fault(ShieldFault::LanePanic { .. }),
        ) => Verdict::Drained,
        (FaultClass::WireTruncate, ShefError::Malformed(_)) => Verdict::DetectedSpoof,
        (
            FaultClass::WireCorrupt,
            ShefError::IntegrityViolation(_) | ShefError::Malformed(_) | ShefError::Crypto(_),
        ) => Verdict::DetectedSpoof,
        (FaultClass::WireCorrupt | FaultClass::WireTruncate, ShefError::ProtocolViolation(_)) => {
            Verdict::DetectedReplay
        }
        (
            FaultClass::RegisterTamper,
            ShefError::Crypto(_) | ShefError::IntegrityViolation(_) | ShefError::Malformed(_),
        ) => Verdict::DetectedSpoof,
        _ => Verdict::SilentCorruption,
    }
}

/// Classifies against every injected class, taking the first match.
fn classify_any(classes: &[FaultClass], err: &ShefError) -> Verdict {
    for &c in classes {
        let v = classify(c, err);
        if v != Verdict::SilentCorruption {
            return v;
        }
    }
    Verdict::SilentCorruption
}

/// Settles a faulted-run failure: classifies the error, then probes
/// the containment contract that the error kind implies.
fn settle_failure(
    injected: &[FaultClass],
    err: &ShefError,
    faulted: &mut Setup,
    pool: &WorkerPool,
) -> ScenarioReport {
    let verdict = classify_any(injected, err);
    if verdict == Verdict::SilentCorruption {
        return ScenarioReport::forbidden(format!(
            "unexpected error kind for injected {:?}: {err}",
            injected
        ));
    }
    let probe = match err {
        ShefError::IntegrityViolation(_) => {
            // Detection must poison the engine set: the next access is
            // rejected until containment is explicitly cleared.
            let next = faulted.read(pool, 0, 1);
            match next {
                Err(ShefError::Fault(ShieldFault::Poisoned { .. })) => Some(Verdict::Poisoned),
                other => {
                    return ScenarioReport::forbidden(format!(
                        "containment breach: post-detection access returned {other:?}"
                    ))
                }
            }
        }
        ShefError::Fault(ShieldFault::LanePanic { .. }) => {
            // A lane death must drain, not poison: the set stays live,
            // the buffer flushes, and a full readback either succeeds
            // or surfaces a *detection* of a co-injected memory fault.
            pool.disarm_lane_panic();
            let drained = faulted
                .flush(pool)
                .and_then(|()| faulted.read(pool, 0, REGION_LEN as usize));
            match drained {
                Ok(_) => Some(Verdict::Drained),
                Err(ShefError::IntegrityViolation(_))
                    if injected.iter().any(|c| !c.uses_pool()) =>
                {
                    Some(Verdict::Drained)
                }
                Err(e) => {
                    return ScenarioReport::forbidden(format!(
                        "batch not drained after lane death: {e}"
                    ))
                }
            }
        }
        _ => None,
    };
    ScenarioReport {
        verdict,
        probe,
        detail: format!("error: {err}"),
    }
}

fn run_memory_plan(plan: &FaultPlan) -> ScenarioReport {
    let ops = trace(plan.seed, plan.ops);
    let mut faulted = setup(plan.scheme);
    let pool = WorkerPool::new(plan.lanes);
    // The oracle shares no code with the Shield: a plaintext shadow of
    // the region, provisioned as zeros and patched by every write.
    let mut shadow = vec![0u8; REGION_LEN as usize];
    // Stale snapshots are captured at provision time (epoch 0) so a
    // later replay actually rolls the chunk back.
    let mut snapshots: HashMap<u32, ReplaySnapshot> = HashMap::new();
    for ev in &plan.events {
        if ev.class == FaultClass::StaleReplay {
            let chunk = u64::from(ev.chunk) % NUM_CHUNKS;
            snapshots.entry(chunk as u32).or_insert_with(|| {
                ReplaySnapshot::capture(
                    &faulted.dram,
                    REGION_BASE + chunk * CHUNK as u64,
                    CHUNK,
                    TAG_BASE + chunk * TAG_LEN as u64,
                    TAG_LEN,
                )
            });
        }
    }
    let mut injected: Vec<FaultClass> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        for ev in plan.events.iter().filter(|e| e.at_op == i) {
            inject(ev, &mut faulted, &pool, &snapshots);
            injected.push(ev.class);
        }
        let step = match *op {
            Op::Read { offset, len } => match faulted.read(&pool, offset, len) {
                Ok(got) if got[..] == shadow[offset as usize..offset as usize + len] => Ok(()),
                Ok(_) => {
                    return ScenarioReport::forbidden(format!(
                        "read at op {i} returned wrong bytes without an error"
                    ))
                }
                Err(e) => Err(e),
            },
            Op::Write { offset, len, fill } => {
                let data: Vec<u8> = (0..len).map(|j| fill.wrapping_add(j as u8)).collect();
                shadow[offset as usize..offset as usize + len].copy_from_slice(&data);
                faulted.write(&pool, offset, &data)
            }
            Op::Flush => faulted.flush(&pool),
        };
        if let Err(e) = step {
            if injected.is_empty() {
                return ScenarioReport::forbidden(format!(
                    "fault-free prefix failed at op {i}: {e}"
                ));
            }
            return settle_failure(&injected, &e, &mut faulted, &pool);
        }
    }
    // The trace completed without an error: sweep for latent faults,
    // then require byte-identity with the shadow memory.
    pool.disarm_lane_panic();
    if let Err(e) = faulted.flush(&pool) {
        if injected.is_empty() {
            return ScenarioReport::forbidden(format!("fault-free final flush failed: {e}"));
        }
        return settle_failure(&injected, &e, &mut faulted, &pool);
    }
    match faulted.read(&pool, 0, REGION_LEN as usize) {
        Ok(got) if got == shadow => {}
        Ok(_) => return ScenarioReport::forbidden("final readback differs from shadow memory"),
        Err(e) => {
            if injected.is_empty() {
                return ScenarioReport::forbidden(format!("fault-free final readback failed: {e}"));
            }
            return settle_failure(&injected, &e, &mut faulted, &pool);
        }
    }
    let stats = faulted.es.stats();
    let (verdict, detail) = if stats.recovered_retries > 0 {
        (
            Verdict::RecoveredAfterRetry,
            format!(
                "{} job(s) recovered by the bounded retry",
                stats.recovered_retries
            ),
        )
    } else if stats.drained_seals > 0 {
        (
            Verdict::Drained,
            format!("{} victim seal(s) drained inline", stats.drained_seals),
        )
    } else if plan.events.is_empty() {
        (
            Verdict::Clean,
            "fault-free plan, byte-identical".to_string(),
        )
    } else {
        (
            Verdict::Masked,
            "fault injected but never consumed".to_string(),
        )
    };
    ScenarioReport {
        verdict,
        probe: None,
        detail,
    }
}

// ---------------------------------------------------------------------
// Wire / register / debug-port scenarios
// ---------------------------------------------------------------------

fn run_wire_plan(plan: &FaultPlan, ev: &FaultEvent) -> ScenarioReport {
    let dek = DataEncryptionKey::from_bytes([0x5Fu8; 32]);
    let mut client_side = StreamEndpoint::client_side(&dek, "pcie0", MacAlgorithm::HmacSha256);
    let mut shield_side = StreamEndpoint::shield_side(&dek, "pcie0", MacAlgorithm::HmacSha256);
    let mut rng = Lcg(plan.seed);
    for i in 0..plan.ops {
        let len = 1 + rng.below(128) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let frame = client_side.send(&payload);
        let mut bytes = frame.to_bytes();
        if i == ev.at_op {
            match ev.class {
                FaultClass::WireTruncate => bytes.truncate(ev.byte % bytes.len()),
                FaultClass::WireCorrupt => {
                    let pos = ev.byte % bytes.len();
                    bytes[pos] ^= ev.flip.max(1);
                }
                _ => unreachable!("non-wire class in a wire scenario"),
            }
        }
        let received = StreamFrame::from_bytes(&bytes).and_then(|f| shield_side.recv(&f));
        match received {
            Ok(got) => {
                if got != payload {
                    return ScenarioReport::forbidden(format!(
                        "frame {i} accepted with wrong payload"
                    ));
                }
                if i == ev.at_op {
                    // The flip landed on bytes the decoder never
                    // consumed is impossible here (every frame byte is
                    // load-bearing), but stay honest if it ever isn't.
                    return ScenarioReport {
                        verdict: Verdict::Masked,
                        probe: None,
                        detail: "tampered frame decoded to the original payload".into(),
                    };
                }
            }
            Err(e) if i == ev.at_op => {
                let verdict = classify(ev.class, &e);
                if verdict == Verdict::SilentCorruption {
                    return ScenarioReport::forbidden(format!(
                        "unexpected error kind for {}: {e}",
                        ev.class.as_str()
                    ));
                }
                // Recovery probe: the receiver must not have advanced
                // its window on the rejected frame — a clean
                // retransmission of the same frame is accepted.
                return match shield_side.recv(&frame) {
                    Ok(got) if got == payload => ScenarioReport {
                        verdict,
                        probe: None,
                        detail: format!("error: {e}; clean retransmit accepted"),
                    },
                    other => ScenarioReport::forbidden(format!(
                        "retransmit after rejected frame failed: {other:?}"
                    )),
                };
            }
            Err(e) => return ScenarioReport::forbidden(format!("clean frame {i} rejected: {e}")),
        }
    }
    ScenarioReport {
        verdict: Verdict::Masked,
        probe: None,
        detail: "fault op beyond trace end".into(),
    }
}

fn run_register_plan(plan: &FaultPlan, ev: &FaultEvent) -> ScenarioReport {
    let dek = DataEncryptionKey::from_bytes([0x5Fu8; 32]);
    let mut regif = RegisterInterface::new(RegisterInterfaceConfig::default());
    regif.set_key(dek.register_key());
    let mut client_key = dek.register_key();
    let mut rng = Lcg(plan.seed);
    let mut expected: HashMap<usize, u64> = HashMap::new();
    for i in 0..plan.ops {
        let index = rng.below(8) as usize;
        let value = rng.next();
        let mut sealed = match RegisterInterface::client_seal_value(&mut client_key, index, value) {
            Ok(s) => s,
            Err(e) => return ScenarioReport::forbidden(format!("client seal failed: {e}")),
        };
        if i == ev.at_op {
            let pos = ev.byte % sealed.ciphertext.len();
            sealed.ciphertext[pos] ^= ev.flip.max(1);
        }
        match regif.host_write(index, &sealed) {
            Ok(()) if i == ev.at_op => {
                return ScenarioReport::forbidden("tampered register write accepted")
            }
            Ok(()) => {
                expected.insert(index, value);
                if regif.accel_read(index) != value {
                    return ScenarioReport::forbidden("register landed with wrong value");
                }
            }
            Err(e) if i == ev.at_op => {
                let verdict = classify(ev.class, &e);
                if verdict == Verdict::SilentCorruption {
                    return ScenarioReport::forbidden(format!(
                        "unexpected error kind for register tamper: {e}"
                    ));
                }
                // Containment probe: the rejected write must not have
                // touched the register file.
                let now = regif.accel_read(index);
                let want = expected.get(&index).copied().unwrap_or(0);
                if now != want {
                    return ScenarioReport::forbidden(format!(
                        "rejected register write still landed ({now:#x} != {want:#x})"
                    ));
                }
                return ScenarioReport {
                    verdict,
                    probe: None,
                    detail: format!("error: {e}; register file unchanged"),
                };
            }
            Err(e) => {
                return ScenarioReport::forbidden(format!("clean register write rejected: {e}"))
            }
        }
    }
    ScenarioReport {
        verdict: Verdict::Masked,
        probe: None,
        detail: "fault op beyond trace end".into(),
    }
}

fn run_debug_port_plan(plan: &FaultPlan) -> ScenarioReport {
    let mut ports = DebugPorts::new();
    ports.arm_monitors();
    let port = [DebugPort::Jtag, DebugPort::Icap, DebugPort::VirtualJtag][(plan.seed % 3) as usize];
    match ports.adversarial_access(port, "injected debug-port poke") {
        PortAccessOutcome::BlockedAndLogged => {
            if ports.pending_events().is_empty() {
                return ScenarioReport::forbidden("blocked access left no tamper event");
            }
            ScenarioReport {
                verdict: Verdict::DetectedSpoof,
                probe: None,
                detail: format!("{port:?} poke blocked and logged"),
            }
        }
        outcome => ScenarioReport::forbidden(format!(
            "monitored debug-port poke not blocked: {outcome:?}"
        )),
    }
}

// ---------------------------------------------------------------------
// Multi-tenant service scenarios
// ---------------------------------------------------------------------

/// Chunks usable by a service trace; the last chunk of the region is
/// reserved for the post-fault recovery probe.
const SERVICE_USABLE_CHUNKS: u64 = NUM_CHUNKS - 1;
const SERVICE_PROBE_CHUNK: u64 = NUM_CHUNKS - 1;

/// One planned service request plus the payload a correct run must
/// return for it (reads carry the plaintext the per-tenant FIFO order
/// guarantees; writes and flushes complete with no payload).
struct PlannedRequest {
    request: ServiceRequest,
    is_read: bool,
    expect: Option<Vec<u8>>,
}

/// Full-chunk request trace for one tenant: starts with a write + read
/// of the same chunk (so every trace has at least one read to target),
/// then mixes writes, reads of previously written chunks, and flushes.
/// The expected payloads are simulated sequentially, which is exactly
/// the per-tenant FIFO order the service guarantees.
fn service_trace(rng: &mut Lcg, ops: usize) -> Vec<PlannedRequest> {
    let chunk_data =
        |fill: u8| -> Vec<u8> { (0..CHUNK).map(|j| fill.wrapping_add(j as u8)).collect() };
    let addr = |chunk: u64| REGION_BASE + chunk * CHUNK as u64;
    // BTreeMap: `keys()` feeds read-target selection, which must be
    // deterministic across processes.
    let mut model: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
    let mut out = Vec::with_capacity(ops.max(2));
    let first = rng.below(SERVICE_USABLE_CHUNKS);
    let data = chunk_data(rng.below(256) as u8);
    model.insert(first, data.clone());
    out.push(PlannedRequest {
        request: ServiceRequest::Write {
            addr: addr(first),
            data,
            mode: AccessMode::Streaming,
        },
        is_read: false,
        expect: None,
    });
    out.push(PlannedRequest {
        request: ServiceRequest::Read {
            addr: addr(first),
            len: CHUNK,
            mode: AccessMode::Streaming,
        },
        is_read: true,
        expect: Some(model[&first].clone()),
    });
    while out.len() < ops.max(2) {
        let kind = rng.below(100);
        if kind < 50 {
            let chunk = rng.below(SERVICE_USABLE_CHUNKS);
            let data = chunk_data(rng.below(256) as u8);
            model.insert(chunk, data.clone());
            out.push(PlannedRequest {
                request: ServiceRequest::Write {
                    addr: addr(chunk),
                    data,
                    mode: AccessMode::Streaming,
                },
                is_read: false,
                expect: None,
            });
        } else if kind < 90 {
            let written: Vec<u64> = model.keys().copied().collect();
            let chunk = written[rng.below(written.len() as u64) as usize];
            out.push(PlannedRequest {
                request: ServiceRequest::Read {
                    addr: addr(chunk),
                    len: CHUNK,
                    mode: AccessMode::Streaming,
                },
                is_read: true,
                expect: Some(model[&chunk].clone()),
            });
        } else {
            out.push(PlannedRequest {
                request: ServiceRequest::Flush,
                is_read: false,
                expect: None,
            });
        }
    }
    out
}

/// The Shield config every campaign tenant runs: same region geometry
/// as the engine-set scenarios, scheme-selected replay defence.
fn service_shield_config(scheme: Scheme) -> ShieldConfig {
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
    ShieldConfig::builder()
        .region(
            "fault",
            MemRange::new(REGION_BASE, REGION_LEN),
            EngineSetConfig {
                chunk_size: CHUNK,
                buffer_bytes: CHUNK * BUFFER_LINES,
                counters,
                merkle,
                ..EngineSetConfig::default()
            },
        )
        .build()
        .expect("service campaign config is valid")
}

/// Drives a full victim + bystander round trip on the probe chunk and
/// reports whether the service still serves the tenant correctly.
fn service_probe(service: &mut ShieldService, tenant: TenantId) -> Result<(), String> {
    let addr = REGION_BASE + SERVICE_PROBE_CHUNK * CHUNK as u64;
    let data = vec![0x7Du8; CHUNK];
    let write = service
        .submit(
            tenant,
            ServiceRequest::Write {
                addr,
                data: data.clone(),
                mode: AccessMode::Streaming,
            },
        )
        .map_err(|e| format!("probe write refused: {e}"))?;
    let read = service
        .submit(
            tenant,
            ServiceRequest::Read {
                addr,
                len: CHUNK,
                mode: AccessMode::Streaming,
            },
        )
        .map_err(|e| format!("probe read refused: {e}"))?;
    let completions = service.drain();
    for want in [write, read] {
        match completions.iter().find(|c| c.request == want) {
            None => return Err("probe request lost".into()),
            Some(c) => match &c.payload {
                Ok(Some(bytes)) if c.request == read && *bytes != data => {
                    return Err("probe read returned wrong bytes".into())
                }
                Ok(_) => {}
                Err(e) => return Err(format!("probe request failed: {e}")),
            },
        }
    }
    Ok(())
}

/// Checks one tenant's completions against its planned trace: every
/// request must complete, and — unless `skip_after_error` relaxes the
/// content check past a surfaced fault — every successful read must
/// return the FIFO-ordered expected plaintext.
fn check_tenant_completions(
    who: &str,
    planned: &[(RequestId, usize)],
    trace: &[PlannedRequest],
    completions: &[Completion],
    allow: &dyn Fn(&ShefError) -> bool,
    skip_after_error: bool,
) -> Result<usize, ScenarioReport> {
    let mut errors = 0usize;
    for &(id, idx) in planned {
        let Some(c) = completions.iter().find(|c| c.request == id) else {
            return Err(ScenarioReport {
                verdict: Verdict::Hang,
                probe: None,
                detail: format!("{who} request {idx} admitted but never completed"),
            });
        };
        match &c.payload {
            Ok(payload) => {
                if errors > 0 && skip_after_error {
                    continue;
                }
                if trace[idx].is_read && payload.as_deref() != trace[idx].expect.as_deref() {
                    return Err(ScenarioReport::forbidden(format!(
                        "{who} read {idx} returned wrong bytes without an error"
                    )));
                }
            }
            Err(e) if allow(e) => errors += 1,
            Err(e) => {
                return Err(ScenarioReport::forbidden(format!(
                    "unexpected error kind on {who} request {idx}: {e}"
                )))
            }
        }
    }
    Ok(errors)
}

/// Runs a multi-tenant [`ShieldService`] scenario: a victim and a
/// bystander tenant (on different shards) each submit a full request
/// trace; the fault is injected at the service layer — an admitted
/// request dropped from the queue, a sticky lane panic inside the
/// victim's shard, or a mid-batch tenant abort. The contract: every
/// admitted request still completes (no starvation), the fault surfaces
/// as an explicit error on the victim only, and the bystander's trace
/// is byte-exact throughout.
fn run_service_plan(plan: &FaultPlan, ev: &FaultEvent) -> ScenarioReport {
    let lanes = plan.lanes.max(1);
    let master = DataEncryptionKey::from_bytes([0x5Fu8; 32]);
    let config = ServiceConfig {
        shards: 2,
        lanes_per_shard: lanes,
        queue_capacity: 4 * DEFAULT_OPS,
        tenant_quota: 2 * DEFAULT_OPS,
    };
    // Tenants enter through the full remote-attestation flow: the
    // owner-derived DEK is sealed to the enclave session and the
    // service admits only the redeemed credential.
    let mut env = match AttestationEnvironment::new(b"testkit.service-plan") {
        Ok(e) => e,
        Err(e) => return ScenarioReport::forbidden(format!("attestation fixture failed: {e}")),
    };
    let mut service = match ShieldService::new(config, env.verifier_public()) {
        Ok(s) => s,
        Err(e) => return ScenarioReport::forbidden(format!("service construction failed: {e}")),
    };
    let mut tenants = Vec::new();
    for name in ["victim", "bystander"] {
        let grant = match env.onboard(name, master.tenant_key(name).to_bytes()) {
            Ok(g) => g,
            Err(e) => return ScenarioReport::forbidden(format!("tenant attestation failed: {e}")),
        };
        match service.register_tenant(name, service_shield_config(plan.scheme), &grant) {
            Ok(id) => tenants.push(id),
            Err(e) => return ScenarioReport::forbidden(format!("tenant registration failed: {e}")),
        }
    }
    let (victim, bystander) = (tenants[0], tenants[1]);

    // Same per-tenant trace shape, independently seeded.
    let mut rng = Lcg(plan
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(3));
    let victim_trace = service_trace(&mut rng, plan.ops);
    let bystander_trace = service_trace(&mut rng, plan.ops);

    // Interleaved admission; remember every (RequestId, trace index).
    let mut victim_ids: Vec<(RequestId, usize)> = Vec::new();
    let mut bystander_ids: Vec<(RequestId, usize)> = Vec::new();
    for i in 0..victim_trace.len().max(bystander_trace.len()) {
        for (tenant, trace, ids) in [
            (victim, &victim_trace, &mut victim_ids),
            (bystander, &bystander_trace, &mut bystander_ids),
        ] {
            if let Some(planned) = trace.get(i) {
                match service.submit(tenant, planned.request.clone()) {
                    Ok(id) => ids.push((id, i)),
                    Err(e) => {
                        return ScenarioReport::forbidden(format!("clean submission rejected: {e}"))
                    }
                }
            }
        }
    }

    // Inject the service-layer fault while the queue is full.
    let mut dropped: Option<RequestId> = None;
    match ev.class {
        FaultClass::AdmissionDrop => {
            let reads: Vec<RequestId> = victim_ids
                .iter()
                .filter(|&&(_, idx)| victim_trace[idx].is_read)
                .map(|&(id, _)| id)
                .collect();
            let target = reads[ev.at_op % reads.len()];
            if !service.inject_queue_drop(target) {
                return ScenarioReport {
                    verdict: Verdict::Masked,
                    probe: None,
                    detail: "drop target was not queued".into(),
                };
            }
            dropped = Some(target);
        }
        FaultClass::ShardPanic => {
            let shard = service.tenant_shard(victim);
            service
                .shard(shard)
                .pool()
                .arm_lane_panic_sticky((ev.byte % 4) as u64);
        }
        FaultClass::TenantAbort => service.abort_tenant(victim),
        _ => unreachable!("non-service class in a service scenario"),
    }

    let completions = service.drain();
    let admitted = victim_ids.len() + bystander_ids.len();
    if completions.len() != admitted {
        return ScenarioReport {
            verdict: Verdict::Hang,
            probe: None,
            detail: format!(
                "{} of {admitted} admitted requests completed",
                completions.len()
            ),
        };
    }

    // The bystander shares nothing with the victim but the service: its
    // whole trace must be clean and byte-exact no matter the fault.
    if let Err(report) = check_tenant_completions(
        "bystander",
        &bystander_ids,
        &bystander_trace,
        &completions,
        &|_| false,
        false,
    ) {
        return ScenarioReport::forbidden(format!(
            "isolation breach ({}): {}",
            ev.class.as_str(),
            report.detail
        ));
    }

    match ev.class {
        FaultClass::AdmissionDrop => {
            let target = dropped.expect("drop armed above");
            let c = completions
                .iter()
                .find(|c| c.request == target)
                .expect("counted above");
            match &c.payload {
                Err(ShefError::Fault(ShieldFault::QueueDrop { tenant }))
                    if tenant.as_str() == "victim" => {}
                other => {
                    return ScenarioReport::forbidden(format!(
                        "dropped request completed as {other:?} instead of a queue-drop fault"
                    ))
                }
            }
            // Every *other* victim request is untouched by the drop.
            let rest: Vec<(RequestId, usize)> = victim_ids
                .iter()
                .copied()
                .filter(|&(id, _)| id != target)
                .collect();
            if let Err(report) = check_tenant_completions(
                "victim",
                &rest,
                &victim_trace,
                &completions,
                &|_| false,
                false,
            ) {
                return report;
            }
            ScenarioReport {
                verdict: Verdict::Drained,
                probe: None,
                detail: "queue drop surfaced explicitly; rest of the batch unaffected".into(),
            }
        }
        FaultClass::ShardPanic => {
            let errors = match check_tenant_completions(
                "victim",
                &victim_ids,
                &victim_trace,
                &completions,
                &|e| matches!(e, ShefError::Fault(ShieldFault::LanePanic { .. })),
                true,
            ) {
                Ok(n) => n,
                Err(report) => return report,
            };
            service
                .shard(service.tenant_shard(victim))
                .pool()
                .disarm_lane_panic();
            // A panic on a seal job is absorbed inline by the engine
            // (the victim seal still lands, no error surfaces); only a
            // panic on an unseal job errors the request. Both are the
            // drain contract — Masked is reserved for a panic that
            // never fired at all.
            let (panics, drained_seals) = service
                .tenant_shield(victim)
                .engine_stats()
                .iter()
                .fold((0u64, 0u64), |(p, d), (_, s)| {
                    (p + s.lane_panics, d + s.drained_seals)
                });
            if errors == 0 && panics == 0 {
                return ScenarioReport {
                    verdict: Verdict::Masked,
                    probe: None,
                    detail: "armed shard panic never fired".into(),
                };
            }
            if errors == 0 && drained_seals == 0 {
                return ScenarioReport::forbidden(
                    "shard panic fired but neither errored nor drained a seal".to_string(),
                );
            }
            match service_probe(&mut service, victim) {
                Ok(()) => ScenarioReport {
                    verdict: Verdict::Drained,
                    probe: Some(Verdict::Drained),
                    detail: format!(
                        "{errors} request(s) failed fast, {drained_seals} seal(s) drained inline; \
                         shard recovered"
                    ),
                },
                Err(e) => {
                    ScenarioReport::forbidden(format!("victim not drained after shard panic: {e}"))
                }
            }
        }
        FaultClass::TenantAbort => {
            for &(id, idx) in &victim_ids {
                let c = completions
                    .iter()
                    .find(|c| c.request == id)
                    .expect("counted above");
                match &c.payload {
                    Err(ShefError::Fault(ShieldFault::TenantAborted { tenant }))
                        if tenant.as_str() == "victim" => {}
                    other => {
                        return ScenarioReport::forbidden(format!(
                            "aborted tenant's request {idx} completed as {other:?}"
                        ))
                    }
                }
            }
            // Containment: new submissions stay fail-stopped until the
            // abort is cleared, then the tenant is fully readmitted.
            if !matches!(
                service.submit(
                    victim,
                    ServiceRequest::Read {
                        addr: REGION_BASE,
                        len: 1,
                        mode: AccessMode::Streaming,
                    },
                ),
                Err(ShefError::Fault(ShieldFault::TenantAborted { .. }))
            ) {
                return ScenarioReport::forbidden(
                    "post-abort submission was not fail-stopped".to_string(),
                );
            }
            service.clear_abort(victim);
            match service_probe(&mut service, victim) {
                Ok(()) => ScenarioReport {
                    verdict: Verdict::Poisoned,
                    probe: Some(Verdict::Poisoned),
                    detail: "mid-batch abort fail-stopped the whole batch; readmitted after clear"
                        .into(),
                },
                Err(e) => ScenarioReport::forbidden(format!(
                    "tenant not readmitted after abort cleared: {e}"
                )),
            }
        }
        _ => unreachable!("non-service class in a service scenario"),
    }
}

/// Builds the deterministic attestation fixture for a plan seed.
fn attest_env_for(seed: u64) -> Result<AttestationEnvironment, ScenarioReport> {
    AttestationEnvironment::new(&seed.to_le_bytes())
        .map_err(|e| ScenarioReport::forbidden(format!("attestation fixture failed: {e}")))
}

/// Splices the sealed-DEK section of ticket `b` into ticket `a` via the
/// canonical wire encoding — the attack an untrusted host relaying
/// tickets can mount without breaking any signature check the *kernel*
/// performs (the kernel trusts the GCM seal, not the verifier
/// signature, so the seal itself must bind the session).
fn splice_sealed_dek(a: &AttestationTicket, b: &AttestationTicket) -> Option<AttestationTicket> {
    // Ticket layout: len(tenant)‖tenant ‖ measurement[32] ‖ session[32]
    // ‖ len(sealed)‖sealed ‖ verifier_pub[32] ‖ signature[64], where
    // sealed = len(ct)‖ct[32] ‖ tag[16] → 56 bytes including prefixes.
    const SEALED_SECTION: usize = 4 + (4 + 32) + 16;
    let mut bytes = a.to_bytes();
    let b_bytes = b.to_bytes();
    let a_off = 4 + a.tenant().len() + 64;
    let b_off = 4 + b.tenant().len() + 64;
    bytes[a_off..a_off + SEALED_SECTION].copy_from_slice(&b_bytes[b_off..b_off + SEALED_SECTION]);
    AttestationTicket::from_bytes(&bytes).ok()
}

/// Runs a remote-attestation scenario: an honest device/verifier pair
/// is attacked mid-protocol with a forged quote signature, a replayed
/// transcript, an unregistered (tampered) Shield bitstream, or a
/// sealed-DEK blob spliced between sessions. The contract mirrors the
/// datapath scenarios: every attack must surface as its *typed*
/// `AttestError` (mapped to a detection verdict), and the honest
/// protocol round must still complete afterwards — the containment
/// probe reports [`Verdict::Clean`] when it does.
fn run_attest_plan(plan: &FaultPlan, ev: &FaultEvent) -> ScenarioReport {
    let mut env = match attest_env_for(plan.seed) {
        Ok(e) => e,
        Err(report) => return report,
    };
    let dek = [(plan.seed as u8) ^ 0x5A; 32];

    // Every scenario ends by proving the honest path still works; a
    // detection that bricks the honest tenant is containment done wrong.
    let honest_probe = |env: &mut AttestationEnvironment| -> Result<(), AttestError> {
        env.onboard("victim-probe", dek).map(|_| ())
    };

    match ev.class {
        FaultClass::AttestQuoteForge => {
            let challenge = env.verifier_mut().challenge();
            let mut quote = match env.kernel_mut().quote(&challenge) {
                Ok(q) => q,
                Err(e) => return ScenarioReport::forbidden(format!("honest quote failed: {e}")),
            };
            quote.signature.0[ev.byte % 64] ^= if ev.flip == 0 { 1 } else { ev.flip };
            match env
                .verifier_mut()
                .verify_and_provision(&quote, "victim", dek)
            {
                Err(AttestError::BadSignature(_)) => {}
                Ok(_) => {
                    return ScenarioReport::forbidden(
                        "forged quote signature was accepted".to_string(),
                    )
                }
                Err(other) => {
                    return ScenarioReport::forbidden(format!(
                        "forged quote rejected with wrong class: {other}"
                    ))
                }
            }
            // The failed forgery must not have burned the session: the
            // genuine kernel can still answer the same challenge.
            let genuine = match env.kernel_mut().quote(&challenge) {
                Ok(q) => q,
                Err(e) => return ScenarioReport::forbidden(format!("honest re-quote failed: {e}")),
            };
            match env
                .verifier_mut()
                .verify_and_provision(&genuine, "victim", dek)
            {
                Ok(_) => ScenarioReport {
                    verdict: Verdict::DetectedSpoof,
                    probe: Some(Verdict::Clean),
                    detail: "forged quote signature rejected; honest session preserved".into(),
                },
                Err(e) => {
                    ScenarioReport::forbidden(format!("forgery burned the honest session: {e}"))
                }
            }
        }
        FaultClass::AttestNonceReplay => {
            let challenge = env.verifier_mut().challenge();
            let quote = match env.kernel_mut().quote(&challenge) {
                Ok(q) => q,
                Err(e) => return ScenarioReport::forbidden(format!("honest quote failed: {e}")),
            };
            let ticket = match env
                .verifier_mut()
                .verify_and_provision(&quote, "victim", dek)
            {
                Ok(t) => t,
                Err(e) => return ScenarioReport::forbidden(format!("honest verify failed: {e}")),
            };
            if let Err(e) = env.kernel_mut().redeem(&ticket) {
                return ScenarioReport::forbidden(format!("honest redeem failed: {e}"));
            }
            // Replay the complete genuine transcript.
            match env
                .verifier_mut()
                .verify_and_provision(&quote, "victim", dek)
            {
                Err(AttestError::ReplayedNonce) => {}
                Ok(_) => {
                    return ScenarioReport::forbidden(
                        "replayed quote transcript was accepted".to_string(),
                    )
                }
                Err(other) => {
                    return ScenarioReport::forbidden(format!(
                        "replay rejected with wrong class: {other}"
                    ))
                }
            }
            // And the redeemed ticket is one-shot on-device.
            if !matches!(
                env.kernel_mut().redeem(&ticket),
                Err(AttestError::UnknownSession)
            ) {
                return ScenarioReport::forbidden(
                    "ticket redeemed twice on the kernel".to_string(),
                );
            }
            match honest_probe(&mut env) {
                Ok(()) => ScenarioReport {
                    verdict: Verdict::DetectedReplay,
                    probe: Some(Verdict::Clean),
                    detail: "replayed transcript and double-redeem rejected; fresh rounds fine"
                        .into(),
                },
                Err(e) => {
                    ScenarioReport::forbidden(format!("fresh round failed after replay: {e}"))
                }
            }
        }
        FaultClass::AttestWrongMeasurement => {
            // The adversary swaps in a Shield bitstream the Data Owner
            // never audited; the kernel measures honestly, so the quote
            // carries a digest outside the known-good registry.
            let mut rogue = shef_attest::env::DEMO_BITSTREAM.to_vec();
            let idx = ev.byte % rogue.len();
            rogue[idx] ^= if ev.flip == 0 { 1 } else { ev.flip };
            env.kernel_mut()
                .load_shield_bitstream(shef_attest::env::BITSTREAM_LABEL, &rogue);
            let challenge = env.verifier_mut().challenge();
            let quote = match env.kernel_mut().quote(&challenge) {
                Ok(q) => q,
                Err(e) => return ScenarioReport::forbidden(format!("quote failed: {e}")),
            };
            match env
                .verifier_mut()
                .verify_and_provision(&quote, "victim", dek)
            {
                Err(AttestError::UnknownMeasurement(_)) => {}
                Ok(_) => {
                    return ScenarioReport::forbidden(
                        "unregistered bitstream measurement was accepted".to_string(),
                    )
                }
                Err(other) => {
                    return ScenarioReport::forbidden(format!(
                        "wrong measurement rejected with wrong class: {other}"
                    ))
                }
            }
            // A pristine honest device still attests.
            let mut fresh = match attest_env_for(plan.seed.wrapping_add(1)) {
                Ok(e) => e,
                Err(report) => return report,
            };
            match honest_probe(&mut fresh) {
                Ok(()) => ScenarioReport {
                    verdict: Verdict::DetectedSpoof,
                    probe: Some(Verdict::Clean),
                    detail: "unknown measurement refused by the registry; honest device fine"
                        .into(),
                },
                Err(e) => ScenarioReport::forbidden(format!("honest device failed: {e}")),
            }
        }
        FaultClass::AttestDekTamper => {
            // Two sessions on the same kernel; the host splices the
            // bystander's sealed DEK into the victim's ticket.
            let ch_a = env.verifier_mut().challenge();
            let q_a = match env.kernel_mut().quote(&ch_a) {
                Ok(q) => q,
                Err(e) => return ScenarioReport::forbidden(format!("quote A failed: {e}")),
            };
            let t_a = match env.verifier_mut().verify_and_provision(&q_a, "victim", dek) {
                Ok(t) => t,
                Err(e) => return ScenarioReport::forbidden(format!("verify A failed: {e}")),
            };
            let ch_b = env.verifier_mut().challenge();
            let q_b = match env.kernel_mut().quote(&ch_b) {
                Ok(q) => q,
                Err(e) => return ScenarioReport::forbidden(format!("quote B failed: {e}")),
            };
            let t_b = match env
                .verifier_mut()
                .verify_and_provision(&q_b, "bystander", [0xB5u8; 32])
            {
                Ok(t) => t,
                Err(e) => return ScenarioReport::forbidden(format!("verify B failed: {e}")),
            };
            let Some(spliced) = splice_sealed_dek(&t_a, &t_b) else {
                return ScenarioReport::forbidden("spliced ticket failed to re-parse".to_string());
            };
            match env.kernel_mut().redeem(&spliced) {
                Err(AttestError::SealTamper(_)) => {}
                Ok(_) => {
                    return ScenarioReport::forbidden(
                        "cross-session sealed DEK splice was unsealed".to_string(),
                    )
                }
                Err(other) => {
                    return ScenarioReport::forbidden(format!(
                        "DEK splice rejected with wrong class: {other}"
                    ))
                }
            }
            // The failed redeem must not consume the session: the
            // genuine tickets both still redeem.
            match (env.kernel_mut().redeem(&t_a), env.kernel_mut().redeem(&t_b)) {
                (Ok(_), Ok(_)) => ScenarioReport {
                    verdict: Verdict::DetectedSplice,
                    probe: Some(Verdict::Clean),
                    detail: "spliced sealed DEK failed authenticated decryption; \
                             genuine tickets unaffected"
                        .into(),
                },
                (a, b) => ScenarioReport::forbidden(format!(
                    "splice attempt burned an honest session: victim={a:?} bystander={b:?}"
                )),
            }
        }
        _ => unreachable!("non-attest class in an attestation scenario"),
    }
}

/// Runs one plan to a verdict (see the module docs for the scenario
/// families). Plans whose events are all memory-class (or empty) run
/// the full LCG trace against the shadow-memory oracle; wire, register,
/// debug-port, multi-tenant service and remote-attestation plans run
/// their own protocol exchanges keyed off the first event.
#[must_use]
pub fn run_plan(plan: &FaultPlan) -> ScenarioReport {
    match plan.events.first() {
        None => run_memory_plan(plan),
        Some(_) if plan.events.iter().all(|e| e.class.is_memory()) => run_memory_plan(plan),
        Some(ev) => match ev.class {
            FaultClass::WireTruncate | FaultClass::WireCorrupt => run_wire_plan(plan, ev),
            FaultClass::RegisterTamper => run_register_plan(plan, ev),
            FaultClass::DebugPortPoke => run_debug_port_plan(plan),
            FaultClass::AdmissionDrop | FaultClass::ShardPanic | FaultClass::TenantAbort => {
                run_service_plan(plan, ev)
            }
            FaultClass::AttestQuoteForge
            | FaultClass::AttestNonceReplay
            | FaultClass::AttestWrongMeasurement
            | FaultClass::AttestDekTamper => run_attest_plan(plan, ev),
            _ => unreachable!("memory-class plans handled above"),
        },
    }
}

// ---------------------------------------------------------------------
// Campaign sweep + JSON verdict matrix
// ---------------------------------------------------------------------

/// One row of the campaign verdict matrix.
#[derive(Debug, Clone)]
pub struct CampaignRecord {
    /// Plan seed.
    pub seed: u64,
    /// Injected class, or `None` for a fault-free baseline scenario.
    pub class: Option<FaultClass>,
    /// Integrity scheme the scenario ran under.
    pub scheme: Scheme,
    /// Worker-pool lanes of the faulted run.
    pub lanes: usize,
    /// The scenario outcome.
    pub report: ScenarioReport,
}

impl CampaignRecord {
    /// Serializes as a single JSON object on one line (the CI gate is
    /// line-oriented; keep it that way).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let class = self.class.map_or("none", FaultClass::as_str);
        let point = self.class.map_or("none", |c| c.injection_point().as_str());
        let probe = self
            .report
            .probe
            .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        format!(
            "{{\"seed\": {}, \"class\": \"{}\", \"point\": \"{}\", \"scheme\": \"{}\", \"lanes\": {}, \"verdict\": \"{}\", \"probe\": {}, \"allowed\": {}, \"detail\": \"{}\"}}",
            self.seed,
            class,
            point,
            self.scheme.as_str(),
            self.lanes,
            self.report.verdict,
            probe,
            self.report.is_allowed(),
            json_escape(&self.report.detail),
        )
    }
}

/// Mirrors campaign verdicts into a [`shef_telemetry::Telemetry`]
/// registry for the exported run report.
///
/// Binding pre-registers a `fault.verdict.<verdict>` counter for
/// **every** verdict in the taxonomy, so the forbidden ones
/// (`silent_corruption`, `hang`) appear in the report as explicit
/// zeros — which is what lets `scripts/check_report.sh` gate on them
/// instead of treating absence as success.
///
/// ```
/// use shef_telemetry::Telemetry;
/// use shef_testkit::{CampaignTelemetry, run_plan, FaultClass, FaultPlan, Scheme};
///
/// let telemetry = Telemetry::new();
/// let tele = CampaignTelemetry::bind(&telemetry);
/// let report = run_plan(&FaultPlan::single(3, FaultClass::DramBitFlip, Scheme::MacOnly, 1));
/// tele.record(&report);
/// let snapshot = telemetry.report();
/// assert!(snapshot.counters.iter().any(|(n, v)| n.as_str() == "fault.scenarios" && *v == 1));
/// assert!(snapshot.counters.iter().any(|(n, v)| n.as_str() == "fault.verdict.hang" && *v == 0));
/// ```
#[derive(Debug, Clone)]
pub struct CampaignTelemetry {
    scenarios: shef_telemetry::Counter,
    disallowed: shef_telemetry::Counter,
    verdicts: std::collections::BTreeMap<&'static str, shef_telemetry::Counter>,
}

impl CampaignTelemetry {
    /// Registers the campaign counters (all starting at zero) in
    /// `telemetry`.
    #[must_use]
    pub fn bind(telemetry: &shef_telemetry::Telemetry) -> Self {
        CampaignTelemetry {
            scenarios: telemetry.counter("fault.scenarios"),
            disallowed: telemetry.counter("fault.disallowed"),
            verdicts: Verdict::ALL
                .iter()
                .map(|v| {
                    (
                        v.as_str(),
                        telemetry.counter(&format!("fault.verdict.{}", v.as_str())),
                    )
                })
                .collect(),
        }
    }

    /// Counts one scenario outcome: the primary verdict, the
    /// containment-probe verdict (when present), and whether the
    /// scenario was allowlisted.
    pub fn record(&self, report: &ScenarioReport) {
        self.scenarios.inc();
        self.verdicts[report.verdict.as_str()].inc();
        if let Some(probe) = report.probe {
            self.verdicts[probe.as_str()].inc();
        }
        if !report.is_allowed() {
            self.disallowed.inc();
        }
    }
}

/// Builds the scenario plan for one campaign cell (shared between the
/// sweep and the lane-count invariance tests).
#[must_use]
pub fn campaign_plan(seed: u64, class: FaultClass, lanes: usize) -> FaultPlan {
    let schemes = class.valid_schemes();
    let scheme = schemes[(seed as usize) % schemes.len()];
    FaultPlan::single(seed, class, scheme, lanes)
}

/// Sweeps seeds × fault classes × lane counts (plus fault-free
/// baselines on seeds 0 and 1) and returns the verdict matrix.
#[must_use]
pub fn run_campaign(seeds: u64, lane_counts: &[usize]) -> Vec<CampaignRecord> {
    let mut records = Vec::new();
    for seed in 0..seeds {
        for class in FaultClass::ALL {
            for &lanes in lane_counts {
                let plan = campaign_plan(seed, class, lanes);
                let report = run_plan(&plan);
                records.push(CampaignRecord {
                    seed,
                    class: Some(class),
                    scheme: plan.scheme,
                    lanes,
                    report,
                });
            }
        }
    }
    // Fault-free baselines: every scheme × lane count must be Clean.
    for scheme in Scheme::ALL {
        for &lanes in lane_counts {
            for seed in [0u64, 1] {
                let report = run_plan(&FaultPlan::clean(seed, scheme, lanes));
                records.push(CampaignRecord {
                    seed,
                    class: None,
                    scheme,
                    lanes,
                    report,
                });
            }
        }
    }
    records
}

/// Minimal JSON string escaping for detail fields.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plans_are_clean_on_both_paths() {
        for scheme in Scheme::ALL {
            for lanes in [1, 4] {
                let r = run_plan(&FaultPlan::clean(11, scheme, lanes));
                assert_eq!(r.verdict, Verdict::Clean, "{scheme:?} {lanes} lanes: {r:?}");
            }
        }
    }

    #[test]
    fn every_class_yields_an_allowed_verdict() {
        for class in FaultClass::ALL {
            for (seed, lanes) in [(3u64, 1), (5u64, 4)] {
                let r = run_plan(&campaign_plan(seed, class, lanes));
                assert!(r.is_allowed(), "{} at {lanes} lanes: {r:?}", class.as_str());
            }
        }
    }

    #[test]
    fn bit_flip_is_detected_and_poisons() {
        let plan = FaultPlan {
            seed: 1,
            scheme: Scheme::Counters,
            lanes: 2,
            ops: DEFAULT_OPS,
            events: vec![FaultEvent {
                at_op: 0,
                class: FaultClass::DramBitFlip,
                chunk: 0,
                byte: 0,
                flip: 1,
            }],
        };
        let r = run_plan(&plan);
        // Chunk 0 is read by the final sweep at the latest, so the flip
        // is either detected (poison probe) or overwritten (masked).
        assert!(
            matches!(r.verdict, Verdict::DetectedSpoof | Verdict::Masked),
            "{r:?}"
        );
        if r.verdict == Verdict::DetectedSpoof {
            assert_eq!(r.probe, Some(Verdict::Poisoned), "{r:?}");
        }
    }

    #[test]
    fn json_lines_are_escaped() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
