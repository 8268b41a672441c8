//! Multi-tenant Shield service: admission control + sharded dispatch.
//!
//! ShEF's deployment model (§3) has mutually distrusting Data Owners
//! sharing one cloud FPGA fleet. [`ShieldService`] is the runtime for
//! that setting: it multiplexes many tenants over a sharded pool of
//! engine-set lanes while keeping three isolation properties
//! structural rather than policed:
//!
//! * **Key-domain separation** — every tenant's Shield is provisioned
//!   with the Data Encryption Key its owner sealed to the enclave
//!   during remote attestation (typically an independent HKDF domain of
//!   the owner's master key, [`DataEncryptionKey::tenant_key`]), so
//!   region keys, nonces, tree keys and register keys never collide
//!   across tenants (same address, two tenants → unrelated ciphertext
//!   and tags).
//! * **Address-namespace separation** — each tenant owns a private
//!   Shell and DRAM model; an address names different physical state
//!   per tenant, so no burst can reach another tenant's bytes.
//! * **Failure isolation** — each tenant owns its engine sets, so an
//!   integrity violation poisons only the victim's datapath; other
//!   tenants' requests keep flowing through the shared shard lanes.
//!
//! Requests enter a bounded admission queue ([`ShieldService::submit`]
//! rejects with [`ShieldFault::AdmissionReject`] when the queue or the
//! tenant's quota slice is full), are coalesced per shard, and are
//! dispatched by a min-clock arbiter over the shards' `CostLedger`-fed
//! logical clocks (see [`super::shard::ShieldShard`]). Every input to
//! scheduling is model-derived — no wall-clock, no randomness — so a
//! same-seed run is byte-identical, and a one-tenant service is
//! bit-identical to a bare [`Shield`] datapath (the differential
//! conformance suite holds this line).
//!
//! **Admission is attestation-gated.** [`ShieldService::register_tenant`]
//! takes an [`AttestedTenant`] — a credential only constructible by
//! redeeming a verifier-issued ticket on a measured Security Kernel
//! (`shef_attest`). The service checks the ticket against the verifier
//! key it pins and refuses replayed attestation sessions, so a tenant
//! that skipped (or failed) remote attestation cannot be registered at
//! all; the rejection surfaces as the typed
//! [`ShieldFault::AttestationRejected`].

use std::collections::BTreeSet;

use shef_attest::AttestedTenant;
use shef_crypto::ecies::EciesKeyPair;
use shef_crypto::ed25519::VerifyingKey;
use shef_fpga::clock::{CostLedger, Cycles};
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;
use shef_telemetry::{Counter, Gauge, Telemetry};

use super::engine::AccessMode;
use super::keys::DataEncryptionKey;
use super::shard::ShieldShard;
use super::{Shield, ShieldConfig};
use crate::fault::ShieldFault;
use crate::ShefError;

/// Sizing and admission knobs of a [`ShieldService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shards (each with its own worker pool and logical clock).
    /// Tenants are assigned round-robin by registration index.
    pub shards: usize,
    /// Worker lanes per shard's pool.
    pub lanes_per_shard: usize,
    /// Bound of the shared admission queue; submissions beyond it are
    /// rejected with [`ShieldFault::AdmissionReject`].
    pub queue_capacity: usize,
    /// Per-tenant cap on outstanding (admitted, undrained) requests —
    /// one tenant cannot occupy the whole queue.
    pub tenant_quota: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            lanes_per_shard: 2,
            queue_capacity: 64,
            tenant_quota: 16,
        }
    }
}

impl ServiceConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] if any knob is zero or the
    /// per-tenant quota exceeds the queue bound.
    pub fn validate(&self) -> Result<(), ShefError> {
        if self.shards == 0 {
            return Err(ShefError::InvalidConfig("service needs >= 1 shard".into()));
        }
        if self.lanes_per_shard == 0 {
            return Err(ShefError::InvalidConfig(
                "service shards need >= 1 worker lane".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ShefError::InvalidConfig(
                "admission queue capacity must be >= 1".into(),
            ));
        }
        if self.tenant_quota == 0 || self.tenant_quota > self.queue_capacity {
            return Err(ShefError::InvalidConfig(
                "tenant quota must be in 1..=queue_capacity".into(),
            ));
        }
        Ok(())
    }
}

/// Handle to a registered tenant (index into the service's tenant
/// table, in registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// Builds a handle from a raw registration index (test helper; the
    /// canonical source is [`ShieldService::register_tenant`]).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TenantId(index)
    }

    /// The registration index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to one admitted request (monotonically increasing in
/// admission order, service-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Builds a handle from its raw sequence number (test helper).
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        RequestId(raw)
    }

    /// The admission sequence number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One tenant request: a batch operation on the tenant's own address
/// namespace, executed over the shard's worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceRequest {
    /// Read `len` plaintext bytes at `addr`.
    Read {
        /// Start address in the tenant's namespace.
        addr: u64,
        /// Bytes to read.
        len: usize,
        /// Streaming or blocking consumption (timing model).
        mode: AccessMode,
    },
    /// Write plaintext bytes at `addr`.
    Write {
        /// Start address in the tenant's namespace.
        addr: u64,
        /// Plaintext to write.
        data: Vec<u8>,
        /// Streaming or blocking consumption (timing model).
        mode: AccessMode,
    },
    /// Flush every engine-set buffer of the tenant's Shield.
    Flush,
}

/// An admitted, not-yet-dispatched request (the admission queue and
/// shard FIFO element).
#[derive(Debug, Clone)]
pub struct PendingRequest {
    /// Admission handle returned by [`ShieldService::submit`].
    pub id: RequestId,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// The operation.
    pub request: ServiceRequest,
}

/// Outcome of one admitted request. Every admitted request yields
/// exactly one completion — errors (integrity violations, poisoning,
/// injected drops, tenant aborts) are carried in `payload`, never by
/// losing the request.
#[derive(Debug)]
pub struct Completion {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Admission handle.
    pub request: RequestId,
    /// `Ok(Some(bytes))` for reads, `Ok(None)` for writes/flushes.
    pub payload: Result<Option<Vec<u8>>, ShefError>,
}

/// Per-shard service instruments.
#[derive(Debug, Clone)]
struct ShardTelemetry {
    occupancy: Gauge,
    dispatched: Counter,
}

/// Pre-resolved `shield.service.*` handles (same attach/rebind pattern
/// as the engine sets: bound to a private registry until
/// [`ShieldService::attach_telemetry`] rebinds them).
#[derive(Debug, Clone)]
struct ServiceTelemetry {
    admitted: Counter,
    admission_rejects: Counter,
    attest_admitted: Counter,
    attest_rejected: Counter,
    dispatched: Counter,
    completed: Counter,
    queue_drops: Counter,
    tenant_aborts: Counter,
    queue_depth: Gauge,
    tenants: Gauge,
    shards: Vec<ShardTelemetry>,
}

impl ServiceTelemetry {
    fn bind(t: &Telemetry, shards: usize) -> Self {
        ServiceTelemetry {
            admitted: t.counter("shield.service.admitted"),
            admission_rejects: t.counter("shield.service.admission_rejects"),
            attest_admitted: t.counter("shield.attest.admitted"),
            attest_rejected: t.counter("shield.attest.rejected"),
            dispatched: t.counter("shield.service.dispatched"),
            completed: t.counter("shield.service.completed"),
            queue_drops: t.counter("shield.service.queue_drops"),
            tenant_aborts: t.counter("shield.service.tenant_aborts"),
            queue_depth: t.gauge("shield.service.queue_depth"),
            tenants: t.gauge("shield.service.tenants"),
            shards: (0..shards)
                .map(|i| ShardTelemetry {
                    occupancy: t.gauge(&format!("shield.service.shard{i}.occupancy")),
                    dispatched: t.counter(&format!("shield.service.shard{i}.dispatched")),
                })
                .collect(),
        }
    }
}

/// Per-tenant instruments, scoped by tenant name.
#[derive(Debug, Clone)]
struct TenantTelemetry {
    requests: Counter,
    rejects: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
}

impl TenantTelemetry {
    fn bind(t: &Telemetry, name: &str) -> Self {
        TenantTelemetry {
            requests: t.counter(&format!("shield.service.tenant.{name}.requests")),
            rejects: t.counter(&format!("shield.service.tenant.{name}.rejects")),
            bytes_read: t.counter(&format!("shield.service.tenant.{name}.bytes_read")),
            bytes_written: t.counter(&format!("shield.service.tenant.{name}.bytes_written")),
        }
    }
}

/// One tenant's private world: Shield (own engine sets, own key
/// domain), Shell, DRAM, and cost ledger.
struct Tenant {
    name: String,
    shard: usize,
    shield: Shield,
    shell: Shell,
    dram: Dram,
    ledger: CostLedger,
    aborted: bool,
    outstanding: usize,
    tele: TenantTelemetry,
}

/// The multi-tenant Shield runtime (see the module docs).
pub struct ShieldService {
    config: ServiceConfig,
    trusted_verifier: VerifyingKey,
    /// Attestation sessions already admitted — a ticket is single-use
    /// at the service layer too, so replaying an admitted credential
    /// (e.g. after a tenant is evicted) is refused.
    used_sessions: BTreeSet<[u8; 32]>,
    tenants: Vec<Tenant>,
    shards: Vec<ShieldShard>,
    queue: std::collections::VecDeque<PendingRequest>,
    drops: BTreeSet<RequestId>,
    next_request: u64,
    telemetry: Telemetry,
    tele: ServiceTelemetry,
}

impl core::fmt::Debug for ShieldService {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShieldService")
            .field("tenants", &self.tenants.len())
            .field("shards", &self.shards.len())
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl ShieldService {
    /// Builds an empty service that trusts attestation tickets signed
    /// by `trusted_verifier` (the Data Owners' remote verifier, see
    /// `shef_attest::RemoteVerifier::public_key`). The service holds no
    /// key material of its own: every tenant DEK arrives sealed through
    /// the attestation protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::InvalidConfig`] on inconsistent knobs.
    pub fn new(config: ServiceConfig, trusted_verifier: VerifyingKey) -> Result<Self, ShefError> {
        config.validate()?;
        let telemetry = Telemetry::new();
        let tele = ServiceTelemetry::bind(&telemetry, config.shards);
        let shards = (0..config.shards)
            .map(|i| ShieldShard::new(i, config.lanes_per_shard))
            .collect();
        Ok(ShieldService {
            config,
            trusted_verifier,
            used_sessions: BTreeSet::new(),
            tenants: Vec::new(),
            shards,
            queue: std::collections::VecDeque::new(),
            drops: BTreeSet::new(),
            next_request: 0,
            telemetry,
            tele,
        })
    }

    /// The sizing/admission knobs.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service's telemetry registry (per-tenant scopes and
    /// `shield.service.*` instruments report here).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Rebinds the service, every tenant Shield, and every shard pool
    /// onto a shared registry (pool instruments attach once: the first
    /// registry a pool sees wins, matching [`super::pool::WorkerPool`]).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        self.tele = ServiceTelemetry::bind(telemetry, self.config.shards);
        self.tele.tenants.set(self.tenants.len() as u64);
        for tenant in &mut self.tenants {
            tenant.shield.attach_telemetry(telemetry);
            tenant.dram.attach_telemetry(telemetry);
            tenant.tele = TenantTelemetry::bind(telemetry, &tenant.name);
        }
        for shard in &self.shards {
            shard.attach_telemetry(telemetry);
        }
    }

    /// Registers a tenant: validates its attestation credential against
    /// the pinned verifier key, builds and provisions a private Shield
    /// over `shield_config` with the DEK the credential carries, and
    /// assigns the tenant to shard `index % shards`.
    ///
    /// The `grant` is an [`AttestedTenant`] — only constructible by
    /// redeeming a verifier-issued ticket on a measured Security
    /// Kernel — so unattested admission is impossible by construction,
    /// and this method additionally checks the ticket's issuer, its
    /// tenant binding, and that the attestation session has not been
    /// admitted before.
    ///
    /// # Errors
    ///
    /// * [`ShieldFault::AttestationRejected`] (as [`ShefError::Fault`])
    ///   if the ticket was not issued by the trusted verifier, is bound
    ///   to a different tenant name, or its session was already
    ///   admitted.
    /// * [`ShefError::InvalidConfig`] on a duplicate tenant name.
    /// * Shield construction/provisioning errors are propagated.
    pub fn register_tenant(
        &mut self,
        name: &str,
        shield_config: ShieldConfig,
        grant: &AttestedTenant,
    ) -> Result<TenantId, ShefError> {
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(ShefError::InvalidConfig(format!(
                "duplicate tenant name '{name}'"
            )));
        }
        // Replay is checked first: a credential whose session was
        // already admitted is rejected as such even if the replayer
        // also re-bound it to a fresh tenant name.
        let session = grant.ticket().session();
        if self.used_sessions.contains(&session) {
            self.tele.attest_rejected.inc();
            return Err(ShefError::Fault(ShieldFault::AttestationRejected {
                tenant: name.to_owned(),
                reason: "attestation session already admitted (replayed credential)".into(),
            }));
        }
        if let Err(e) = grant.ticket().verify(&self.trusted_verifier, name) {
            self.tele.attest_rejected.inc();
            return Err(ShefError::Fault(ShieldFault::AttestationRejected {
                tenant: name.to_owned(),
                reason: e.to_string(),
            }));
        }
        let index = self.tenants.len();
        let shard = index % self.config.shards;
        let keypair = EciesKeyPair::from_seed(format!("shef.service.tenant.{name}").as_bytes());
        let mut shield = Shield::new(shield_config, keypair)?;
        let dek = DataEncryptionKey::from_bytes(grant.data_key());
        let load_key = dek.to_load_key(&shield.public_key());
        shield.provision_load_key(&load_key)?;
        shield.attach_telemetry(&self.telemetry);
        let tele = TenantTelemetry::bind(&self.telemetry, name);
        let mut dram = Dram::f1_default();
        dram.attach_telemetry(&self.telemetry);
        self.tenants.push(Tenant {
            name: name.to_owned(),
            shard,
            shield,
            shell: Shell::new(),
            dram,
            ledger: CostLedger::new(),
            aborted: false,
            outstanding: 0,
            tele,
        });
        self.used_sessions.insert(session);
        self.tele.attest_admitted.inc();
        self.tele.tenants.set(self.tenants.len() as u64);
        Ok(TenantId(index))
    }

    /// Registered tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Shards in the dispatch pool.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The tenant's registered name.
    #[must_use]
    pub fn tenant_name(&self, tenant: TenantId) -> &str {
        &self.tenants[tenant.0].name
    }

    /// Index of the shard the tenant dispatches through.
    #[must_use]
    pub fn tenant_shard(&self, tenant: TenantId) -> usize {
        self.tenants[tenant.0].shard
    }

    /// The tenant's private Shield (host-side register access, engine
    /// stats, poison state).
    pub fn tenant_shield(&mut self, tenant: TenantId) -> &mut Shield {
        &mut self.tenants[tenant.0].shield
    }

    /// The tenant's private Shell (host-side DMA staging).
    pub fn tenant_shell(&mut self, tenant: TenantId) -> &mut Shell {
        &mut self.tenants[tenant.0].shell
    }

    /// The tenant's private DRAM model.
    pub fn tenant_dram(&mut self, tenant: TenantId) -> &mut Dram {
        &mut self.tenants[tenant.0].dram
    }

    /// The tenant's cost ledger (read-only view).
    #[must_use]
    pub fn tenant_ledger(&self, tenant: TenantId) -> &CostLedger {
        &self.tenants[tenant.0].ledger
    }

    /// The tenant's cost ledger, mutable — for host-side charges that
    /// bypass the queue (sealed register crossings, accelerator compute
    /// occupancy), mirroring the single-tenant bus contract.
    pub fn tenant_ledger_mut(&mut self, tenant: TenantId) -> &mut CostLedger {
        &mut self.tenants[tenant.0].ledger
    }

    /// Split borrows of one tenant's whole private datapath — what a
    /// host-side DMA (`HostCpu::dma_to_device(shell, dram, ledger, …)`)
    /// needs simultaneously. The single-field accessors each borrow the
    /// service exclusively, so staging code uses this instead.
    pub fn tenant_datapath(
        &mut self,
        tenant: TenantId,
    ) -> (&mut Shield, &mut Shell, &mut Dram, &mut CostLedger) {
        let t = &mut self.tenants[tenant.0];
        (&mut t.shield, &mut t.shell, &mut t.dram, &mut t.ledger)
    }

    /// A shard (worker-pool access for fault arming, clock inspection).
    #[must_use]
    pub fn shard(&self, index: usize) -> &ShieldShard {
        &self.shards[index]
    }

    /// Requests admitted but not yet drained.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The tenant's admitted-but-undrained request count (what the
    /// quota is charged against).
    #[must_use]
    pub fn outstanding(&self, tenant: TenantId) -> usize {
        self.tenants[tenant.0].outstanding
    }

    /// Submits a request to the bounded admission queue.
    ///
    /// # Errors
    ///
    /// * [`ShieldFault::TenantAborted`] if the tenant is aborted.
    /// * [`ShieldFault::AdmissionReject`] if the queue is full or the
    ///   tenant is at quota — back-pressure; retry after a drain.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        request: ServiceRequest,
    ) -> Result<RequestId, ShefError> {
        let tenant_slot = &mut self.tenants[tenant.0];
        if tenant_slot.aborted {
            tenant_slot.tele.rejects.inc();
            self.tele.admission_rejects.inc();
            return Err(ShefError::Fault(ShieldFault::TenantAborted {
                tenant: tenant_slot.name.clone(),
            }));
        }
        if self.queue.len() >= self.config.queue_capacity
            || tenant_slot.outstanding >= self.config.tenant_quota
        {
            tenant_slot.tele.rejects.inc();
            self.tele.admission_rejects.inc();
            return Err(ShefError::Fault(ShieldFault::AdmissionReject {
                tenant: tenant_slot.name.clone(),
            }));
        }
        let id = RequestId(self.next_request);
        self.next_request += 1;
        tenant_slot.outstanding += 1;
        tenant_slot.tele.requests.inc();
        self.tele.admitted.inc();
        self.queue.push_back(PendingRequest {
            id,
            tenant,
            request,
        });
        self.tele.queue_depth.record_max(self.queue.len() as u64);
        Ok(id)
    }

    /// Coalesces the admission queue per shard (admission order within
    /// each shard) and dispatches everything through the min-clock
    /// arbiter. Returns one [`Completion`] per admitted request, in
    /// dispatch order. Failures complete with their error — one
    /// tenant's poisoned engine set, injected drop or abort never
    /// stalls or loses another tenant's requests.
    pub fn drain(&mut self) -> Vec<Completion> {
        while let Some(pending) = self.queue.pop_front() {
            let shard = self.tenants[pending.tenant.0].shard;
            self.shards[shard].enqueue(pending);
        }
        for shard in &self.shards {
            self.tele.shards[shard.index()]
                .occupancy
                .record_max(shard.queue_len() as u64);
        }
        let mut completions = Vec::new();
        loop {
            let next = self
                .shards
                .iter()
                .filter(|s| s.has_work())
                .min_by_key(|s| (s.clock(), s.index()))
                .map(ShieldShard::index);
            let Some(shard_index) = next else { break };
            let pending = self.shards[shard_index].pop().expect("shard has work");
            completions.push(self.execute_one(shard_index, pending));
        }
        completions
    }

    /// Executes one dequeued request on its tenant's private datapath
    /// over the shard's worker pool, then advances the shard clock by
    /// the tenant-ledger busy delta.
    fn execute_one(&mut self, shard_index: usize, pending: PendingRequest) -> Completion {
        let dropped = self.drops.remove(&pending.id);
        let tenant_slot = &mut self.tenants[pending.tenant.0];
        tenant_slot.outstanding -= 1;
        self.tele.dispatched.inc();
        self.tele.shards[shard_index].dispatched.inc();
        let payload = if dropped {
            self.tele.queue_drops.inc();
            Err(ShefError::Fault(ShieldFault::QueueDrop {
                tenant: tenant_slot.name.clone(),
            }))
        } else if tenant_slot.aborted {
            Err(ShefError::Fault(ShieldFault::TenantAborted {
                tenant: tenant_slot.name.clone(),
            }))
        } else {
            let before = tenant_slot.ledger.total_busy();
            let pool = self.shards[shard_index].pool();
            let result = match &pending.request {
                ServiceRequest::Read { addr, len, mode } => tenant_slot
                    .shield
                    .read(
                        &mut tenant_slot.shell,
                        &mut tenant_slot.dram,
                        &mut tenant_slot.ledger,
                        *addr,
                        *len,
                        *mode,
                        pool,
                    )
                    .map(Some),
                ServiceRequest::Write { addr, data, mode } => tenant_slot
                    .shield
                    .write(
                        &mut tenant_slot.shell,
                        &mut tenant_slot.dram,
                        &mut tenant_slot.ledger,
                        *addr,
                        data,
                        *mode,
                        pool,
                    )
                    .map(|()| None),
                ServiceRequest::Flush => tenant_slot
                    .shield
                    .flush(
                        &mut tenant_slot.shell,
                        &mut tenant_slot.dram,
                        &mut tenant_slot.ledger,
                        pool,
                    )
                    .map(|()| None),
            };
            match &result {
                Ok(Some(bytes)) => tenant_slot.tele.bytes_read.add(bytes.len() as u64),
                Ok(None) => {
                    if let ServiceRequest::Write { data, .. } = &pending.request {
                        tenant_slot.tele.bytes_written.add(data.len() as u64);
                    }
                }
                Err(_) => {}
            }
            let busy = Cycles(tenant_slot.ledger.total_busy().0.saturating_sub(before.0));
            self.shards[shard_index].advance(busy);
            result
        };
        self.tele.completed.inc();
        Completion {
            tenant: pending.tenant,
            request: pending.id,
            payload,
        }
    }

    /// Aborts a tenant mid-batch (operator action / injected fault):
    /// its queued requests complete with [`ShieldFault::TenantAborted`]
    /// and new submissions are refused, while other tenants are
    /// untouched.
    pub fn abort_tenant(&mut self, tenant: TenantId) {
        let tenant_slot = &mut self.tenants[tenant.0];
        if !tenant_slot.aborted {
            tenant_slot.aborted = true;
            self.tele.tenant_aborts.inc();
        }
    }

    /// Whether the tenant is currently aborted.
    #[must_use]
    pub fn tenant_aborted(&self, tenant: TenantId) -> bool {
        self.tenants[tenant.0].aborted
    }

    /// Re-admits an aborted tenant (operator action after triage).
    pub fn clear_abort(&mut self, tenant: TenantId) {
        self.tenants[tenant.0].aborted = false;
    }

    /// Fault-injection hook: marks an admitted, not-yet-drained request
    /// to complete as [`ShieldFault::QueueDrop`] instead of executing.
    /// Returns `false` (and arms nothing) if the request is not
    /// currently queued.
    pub fn inject_queue_drop(&mut self, request: RequestId) -> bool {
        if self.queue.iter().any(|p| p.id == request) {
            self.drops.insert(request);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EngineSetConfig, MemRange};
    use super::*;

    const CHUNK: usize = 512;

    fn tenant_config() -> ShieldConfig {
        ShieldConfig::builder()
            .region(
                "main",
                MemRange::new(0x1000, 16 * CHUNK as u64),
                EngineSetConfig {
                    buffer_bytes: 4 * CHUNK,
                    ..EngineSetConfig::default()
                },
            )
            .build()
            .unwrap()
    }

    /// Honest attestation fixture shared by the tests: the service
    /// pins the environment's verifier, and tenants onboard through a
    /// full attestation round before registration.
    fn service(config: ServiceConfig) -> (ShieldService, shef_attest::AttestationEnvironment) {
        let env = shef_attest::AttestationEnvironment::new(b"service-unit-tests").unwrap();
        let svc = ShieldService::new(config, env.verifier_public()).unwrap();
        (svc, env)
    }

    fn register(
        svc: &mut ShieldService,
        env: &mut shef_attest::AttestationEnvironment,
        name: &str,
    ) -> TenantId {
        let master = DataEncryptionKey::from_bytes([0x21u8; 32]);
        let grant = env
            .onboard(name, master.tenant_key(name).to_bytes())
            .unwrap();
        svc.register_tenant(name, tenant_config(), &grant).unwrap()
    }

    fn write(addr: u64, data: Vec<u8>) -> ServiceRequest {
        ServiceRequest::Write {
            addr,
            data,
            mode: AccessMode::Streaming,
        }
    }

    fn read(addr: u64, len: usize) -> ServiceRequest {
        ServiceRequest::Read {
            addr,
            len,
            mode: AccessMode::Streaming,
        }
    }

    #[test]
    fn config_validation_rejects_zero_knobs() {
        for bad in [
            ServiceConfig {
                shards: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                lanes_per_shard: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                tenant_quota: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_capacity: 4,
                tenant_quota: 8,
                ..ServiceConfig::default()
            },
        ] {
            assert!(matches!(bad.validate(), Err(ShefError::InvalidConfig(_))));
        }
    }

    #[test]
    fn write_read_round_trip_through_the_service() {
        let (mut svc, mut env) = service(ServiceConfig::default());
        let t = register(&mut svc, &mut env, "alice");
        let data = vec![0xAB; 2 * CHUNK];
        svc.submit(t, write(0x1000, data.clone())).unwrap();
        let id = svc.submit(t, read(0x1000, data.len())).unwrap();
        let completions = svc.drain();
        assert_eq!(completions.len(), 2);
        let got = completions
            .iter()
            .find(|c| c.request == id)
            .unwrap()
            .payload
            .as_ref()
            .unwrap()
            .clone()
            .unwrap();
        assert_eq!(got, data);
        assert_eq!(svc.outstanding(t), 0);
    }

    #[test]
    fn admission_queue_bound_is_enforced() {
        let (mut svc, mut env) = service(ServiceConfig {
            queue_capacity: 2,
            tenant_quota: 2,
            ..ServiceConfig::default()
        });
        let t = register(&mut svc, &mut env, "alice");
        svc.submit(t, ServiceRequest::Flush).unwrap();
        svc.submit(t, ServiceRequest::Flush).unwrap();
        let err = svc.submit(t, ServiceRequest::Flush).unwrap_err();
        assert!(matches!(
            err,
            ShefError::Fault(ShieldFault::AdmissionReject { .. })
        ));
        // Draining frees the queue; admission works again.
        assert_eq!(svc.drain().len(), 2);
        svc.submit(t, ServiceRequest::Flush).unwrap();
    }

    #[test]
    fn tenant_quota_is_enforced_independently_of_queue_space() {
        let (mut svc, mut env) = service(ServiceConfig {
            queue_capacity: 8,
            tenant_quota: 1,
            ..ServiceConfig::default()
        });
        let a = register(&mut svc, &mut env, "alice");
        let b = register(&mut svc, &mut env, "bob");
        svc.submit(a, ServiceRequest::Flush).unwrap();
        assert!(svc.submit(a, ServiceRequest::Flush).is_err());
        // Another tenant still has quota.
        svc.submit(b, ServiceRequest::Flush).unwrap();
    }

    #[test]
    fn duplicate_tenant_names_are_rejected() {
        let (mut svc, mut env) = service(ServiceConfig::default());
        register(&mut svc, &mut env, "alice");
        let master = DataEncryptionKey::from_bytes([0x21u8; 32]);
        let grant = env
            .onboard("alice", master.tenant_key("alice").to_bytes())
            .unwrap();
        assert!(matches!(
            svc.register_tenant("alice", tenant_config(), &grant),
            Err(ShefError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tenants_round_robin_across_shards() {
        let (mut svc, mut env) = service(ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        });
        let a = register(&mut svc, &mut env, "a");
        let b = register(&mut svc, &mut env, "b");
        let c = register(&mut svc, &mut env, "c");
        assert_eq!(svc.tenant_shard(a), 0);
        assert_eq!(svc.tenant_shard(b), 1);
        assert_eq!(svc.tenant_shard(c), 0);
    }

    #[test]
    fn injected_drop_completes_with_queue_drop_error() {
        let (mut svc, mut env) = service(ServiceConfig::default());
        let t = register(&mut svc, &mut env, "alice");
        let id = svc.submit(t, read(0x1000, CHUNK)).unwrap();
        assert!(svc.inject_queue_drop(id));
        let completions = svc.drain();
        assert_eq!(completions.len(), 1, "dropped requests still complete");
        assert!(matches!(
            completions[0].payload,
            Err(ShefError::Fault(ShieldFault::QueueDrop { .. }))
        ));
        // Arming an unknown request is a no-op.
        assert!(!svc.inject_queue_drop(RequestId::from_raw(999)));
    }

    #[test]
    fn abort_errors_queued_requests_and_refuses_new_ones() {
        let (mut svc, mut env) = service(ServiceConfig::default());
        let a = register(&mut svc, &mut env, "victim");
        let b = register(&mut svc, &mut env, "bystander");
        svc.submit(a, ServiceRequest::Flush).unwrap();
        svc.submit(b, ServiceRequest::Flush).unwrap();
        svc.abort_tenant(a);
        let completions = svc.drain();
        assert_eq!(completions.len(), 2);
        for c in &completions {
            if c.tenant == a {
                assert!(matches!(
                    c.payload,
                    Err(ShefError::Fault(ShieldFault::TenantAborted { .. }))
                ));
            } else {
                assert!(c.payload.is_ok(), "bystander must be unaffected");
            }
        }
        assert!(svc.submit(a, ServiceRequest::Flush).is_err());
        svc.clear_abort(a);
        svc.submit(a, ServiceRequest::Flush).unwrap();
    }

    #[test]
    fn same_inputs_produce_identical_completion_order_and_clocks() {
        let run = || {
            let (mut svc, mut env) = service(ServiceConfig {
                shards: 2,
                lanes_per_shard: 2,
                ..ServiceConfig::default()
            });
            let a = register(&mut svc, &mut env, "a");
            let b = register(&mut svc, &mut env, "b");
            for i in 0..4u64 {
                svc.submit(a, write(0x1000 + i * CHUNK as u64, vec![i as u8; CHUNK]))
                    .unwrap();
                svc.submit(b, write(0x1000 + i * CHUNK as u64, vec![!i as u8; CHUNK]))
                    .unwrap();
            }
            svc.submit(a, ServiceRequest::Flush).unwrap();
            svc.submit(b, ServiceRequest::Flush).unwrap();
            let order: Vec<(usize, u64)> = svc
                .drain()
                .iter()
                .map(|c| (c.tenant.index(), c.request.raw()))
                .collect();
            let clocks: Vec<Cycles> = (0..svc.shard_count())
                .map(|i| svc.shard(i).clock())
                .collect();
            (order, clocks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn service_telemetry_reports_admission_and_tenant_scopes() {
        let (mut svc, mut env) = service(ServiceConfig {
            queue_capacity: 1,
            tenant_quota: 1,
            ..ServiceConfig::default()
        });
        let shared = Telemetry::new();
        svc.attach_telemetry(&shared);
        let t = register(&mut svc, &mut env, "alice");
        svc.submit(t, write(0x1000, vec![7; CHUNK])).unwrap();
        assert!(svc.submit(t, ServiceRequest::Flush).is_err());
        svc.drain();
        let report = shared.report();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n.as_str() == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("shield.service.admitted"), 1);
        assert_eq!(counter("shield.service.admission_rejects"), 1);
        assert_eq!(counter("shield.service.completed"), 1);
        assert_eq!(counter("shield.service.tenant.alice.requests"), 1);
        assert_eq!(counter("shield.service.tenant.alice.rejects"), 1);
        assert_eq!(
            counter("shield.service.tenant.alice.bytes_written"),
            CHUNK as u64
        );
    }

    #[test]
    fn ticket_from_untrusted_verifier_is_rejected() {
        let (mut svc, _env) = service(ServiceConfig::default());
        // A credential from a *different* verifier (rogue attestation
        // environment): structurally a valid AttestedTenant, but not
        // issued by the verifier this service pins.
        let mut rogue = shef_attest::AttestationEnvironment::new(b"rogue-env").unwrap();
        let grant = rogue.onboard("alice", [0x33u8; 32]).unwrap();
        let err = svc
            .register_tenant("alice", tenant_config(), &grant)
            .unwrap_err();
        assert!(matches!(
            err,
            ShefError::Fault(ShieldFault::AttestationRejected { ref tenant, .. })
                if tenant == "alice"
        ));
        assert_eq!(svc.tenant_count(), 0);
    }

    #[test]
    fn credential_bound_to_other_tenant_is_rejected() {
        let (mut svc, mut env) = service(ServiceConfig::default());
        let grant = env.onboard("mallory", [0x33u8; 32]).unwrap();
        let err = svc
            .register_tenant("alice", tenant_config(), &grant)
            .unwrap_err();
        assert!(matches!(
            err,
            ShefError::Fault(ShieldFault::AttestationRejected { .. })
        ));
    }

    #[test]
    fn replayed_attestation_session_is_rejected() {
        let (mut svc, mut env) = service(ServiceConfig::default());
        let grant = env.onboard("alice", [0x33u8; 32]).unwrap();
        svc.register_tenant("alice", tenant_config(), &grant)
            .unwrap();
        // Same credential, fresh name: the session was already admitted.
        let err = svc
            .register_tenant("alice2", tenant_config(), &grant)
            .unwrap_err();
        assert!(matches!(
            err,
            ShefError::Fault(ShieldFault::AttestationRejected { ref reason, .. })
                if reason.contains("replayed")
        ));
    }

    #[test]
    fn attestation_admission_telemetry() {
        let (mut svc, mut env) = service(ServiceConfig::default());
        let shared = Telemetry::new();
        svc.attach_telemetry(&shared);
        register(&mut svc, &mut env, "alice");
        let mut rogue = shef_attest::AttestationEnvironment::new(b"rogue-env").unwrap();
        let bad = rogue.onboard("eve", [0x44u8; 32]).unwrap();
        assert!(svc.register_tenant("eve", tenant_config(), &bad).is_err());
        let report = shared.report();
        assert_eq!(report.counters["shield.attest.admitted"], 1);
        assert_eq!(report.counters["shield.attest.rejected"], 1);
    }
}
