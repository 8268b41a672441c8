//! Execution harness: runs an accelerator shielded and as the insecure
//! baseline, with full cost accounting and output verification.
//!
//! This reproduces the paper's measurement methodology (§6.2, App. A.6):
//! each benchmark exists as a baseline design and a `_shield` design;
//! both are timed end to end (host DMA in → kernel → host DMA out) and
//! the figure reports the ratio.
//!
//! Every shielded run goes through the one batch datapath, fanned across
//! a caller-owned [`WorkerPool`]; a 1-lane pool is the paper's serial
//! Shield, and more lanes model replicated engine sets.

use shef_core::shield::bus::{MemoryBus, PlainBus, ShieldedBus, ACCEL_LANE};
use shef_core::shield::engine::AccessMode;
use shef_core::shield::{
    client, DataEncryptionKey, EngineSetStats, RegionConfig, RegisterInterface, ServiceConfig,
    ServiceRequest, Shield, ShieldService, TenantId, WorkerPool,
};
use shef_core::ShefError;
use shef_crypto::ecies::EciesKeyPair;
use shef_fpga::clock::{ClockDomain, CostLedger, Cycles};
use shef_fpga::dram::Dram;
use shef_fpga::host::HostCpu;
use shef_fpga::shell::Shell;
use shef_telemetry::{Report, Telemetry};

use crate::{Accelerator, CryptoProfile, RegionData};

/// Result of one measured run.
#[derive(Debug)]
pub struct RunReport {
    /// Modelled execution time in device cycles (bottleneck model).
    pub cycles: Cycles,
    /// Execution time in microseconds at the F1 fabric clock.
    pub micros: f64,
    /// Full cost breakdown.
    pub ledger: CostLedger,
    /// True if every expected output region matched the golden model
    /// and `host_post` accepted the result registers.
    pub outputs_verified: bool,
    /// Engine-set statistics (shielded runs only).
    pub engine_stats: Vec<(String, EngineSetStats)>,
    /// Telemetry snapshot of the run (empty for baseline runs).
    pub telemetry: Report,
}

impl RunReport {
    fn from_ledger(
        ledger: CostLedger,
        verified: bool,
        stats: Vec<(String, EngineSetStats)>,
        telemetry: Report,
    ) -> Self {
        let cycles = ledger.bottleneck();
        RunReport {
            cycles,
            micros: ClockDomain::F1_DEFAULT.cycles_to_us(cycles),
            ledger,
            outputs_verified: verified,
            engine_stats: stats,
            telemetry,
        }
    }

    /// Human-readable run-report summary: the end-to-end numbers, the
    /// bottleneck lane, then the telemetry breakdown (phase spans and
    /// non-zero counters) from [`shef_telemetry::Report::summary_table`].
    #[must_use]
    pub fn run_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycles {} ({:.2} us at {} MHz), outputs {}",
            self.cycles.0,
            self.micros,
            ClockDomain::F1_DEFAULT.freq_hz() / 1_000_000,
            if self.outputs_verified {
                "verified"
            } else {
                "MISMATCH"
            },
        );
        if let Some(lane) = self.ledger.bottleneck_lane() {
            let _ = writeln!(
                out,
                "bottleneck lane: {lane} ({})",
                self.ledger.lane(lane).0
            );
        }
        out.push_str(&self.telemetry.summary_table());
        out
    }
}

/// Runs `accel` behind a Shield configured with `profile`, with the
/// kernel's chunk crypto fanned across `pool`'s lanes.
///
/// The measured window covers: input DMA (ciphertext + tags), sealed
/// register writes, the kernel, buffer flush, output DMA and
/// verification-side decryption — matching the paper's end-to-end
/// latencies. Attestation/boot is *not* included (the paper reports it
/// separately in §6.1). Outputs do not depend on the lane count; only
/// the cost model (and hence the modelled cycles) sees the fan-out.
///
/// With `Some(telemetry)` the run records into that caller-supplied
/// registry, so several runs (e.g. a profile sweep) accumulate into one
/// report; [`RunReport::telemetry`] is then a snapshot of the shared
/// registry at the end of this run.
///
/// # Errors
///
/// Propagates configuration, integrity and bus errors.
pub fn run_shielded(
    accel: &mut dyn Accelerator,
    profile: &CryptoProfile,
    seed: u64,
    pool: &WorkerPool,
    telemetry: Option<&Telemetry>,
) -> Result<RunReport, ShefError> {
    let config = accel.shield_config(profile);
    config.validate()?;
    let keypair = EciesKeyPair::from_seed(format!("harness.shield.{seed}").as_bytes());
    let mut shield = Shield::new(config, keypair)?;
    if let Some(telemetry) = telemetry {
        shield.attach_telemetry(telemetry);
    }
    // Everything downstream records into the shield's registry — the
    // caller's when one was attached, the shield's private one otherwise
    // — so RunReport::telemetry always carries the full datapath.
    let run_telemetry = shield.telemetry().clone();
    pool.attach_telemetry(&run_telemetry);
    let dek = DataEncryptionKey::from_bytes(
        shef_crypto::drbg::HmacDrbg::from_seed(format!("harness.dek.{seed}").as_bytes())
            .generate_array::<32>(),
    );
    let load_key = dek.to_load_key(&shield.public_key());
    shield.provision_load_key(&load_key)?;

    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    dram.attach_telemetry(&run_telemetry);
    let mut host = HostCpu::new();
    let mut ledger = CostLedger::new();
    let datapath = (&mut shield, &mut shell, &mut dram, &mut ledger);
    stage_inputs(accel, &dek, &mut host, datapath)?;

    let mut bus = ShieldedBus {
        shield: &mut shield,
        shell: &mut shell,
        dram: &mut dram,
        ledger: &mut ledger,
        pool,
    };
    accel.run(&mut bus)?;
    bus.flush()?;

    let datapath = (&mut shield, &mut shell, &mut dram, &mut ledger);
    let verified = verify_outputs(accel, &dek, &mut host, datapath)?;
    let stats = shield.engine_stats();
    let snapshot = shield.telemetry().report();
    ledger.merge(dram.ledger());
    Ok(RunReport::from_ledger(ledger, verified, stats, snapshot))
}

/// [`run_shielded`] without a caller-supplied telemetry registry.
/// Kept with this signature because the frozen `perfbench/` workloads
/// call it.
///
/// # Errors
///
/// Propagates configuration, integrity and bus errors.
pub fn run_shielded_parallel(
    accel: &mut dyn Accelerator,
    profile: &CryptoProfile,
    seed: u64,
    pool: &WorkerPool,
) -> Result<RunReport, ShefError> {
    run_shielded(accel, profile, seed, pool, None)
}

/// One Data Owner's borrowed view of a deployed Shield: the Shield, the
/// Shell, the device DRAM and the ledger host DMA charges — what
/// [`ShieldService::tenant_datapath`] returns for one tenant.
type Datapath<'a> = (
    &'a mut Shield,
    &'a mut Shell,
    &'a mut Dram,
    &'a mut CostLedger,
);

/// The Data Owner's inbound half: seals `accel`'s inputs under `dek`,
/// DMAs ciphertext and tags into DRAM, and writes the sealed `host_pre`
/// registers.
fn stage_inputs(
    accel: &dyn Accelerator,
    dek: &DataEncryptionKey,
    host: &mut HostCpu,
    (shield, shell, dram, ledger): Datapath<'_>,
) -> Result<(), ShefError> {
    for input in accel.inputs() {
        let (region, first_chunk, tag_addr) = locate(shield, &input)?;
        let enc = client::encrypt_region_at(dek, region, first_chunk, &input.data, 0)?;
        let addr = region.range.start + input.offset;
        host.dma_to_device(shell, dram, ledger, addr, &enc.ciphertext)?;
        // Tags ride the same DMA batch as the data (chained descriptor).
        host.dma_to_device_chained(shell, dram, ledger, tag_addr, &enc.tags)?;
    }
    let mut reg_key = dek.register_key();
    for (index, value) in accel.host_pre() {
        let sealed = RegisterInterface::client_seal_value(&mut reg_key, index, value)?;
        shield.host_reg_write(index, &sealed)?;
        // One AXI-Lite crossing per 4-byte beat of the sealed packet.
        ledger.add_serial(Cycles(4 + sealed.to_bytes().len() as u64 / 4));
    }
    Ok(())
}

/// The Data Owner's outbound half: DMAs every expected output and its
/// tags back, opens and compares them, then runs `host_post` over the
/// sealed result registers. Returns whether everything verified.
fn verify_outputs(
    accel: &dyn Accelerator,
    dek: &DataEncryptionKey,
    host: &mut HostCpu,
    (shield, shell, dram, ledger): Datapath<'_>,
) -> Result<bool, ShefError> {
    let mut verified = true;
    for expected in accel.expected_outputs() {
        let (region, first_chunk, tag_addr) = locate(shield, &expected)?;
        let len = expected.data.len();
        let addr = region.range.start + expected.offset;
        let ct = host.dma_from_device(shell, dram, ledger, addr, len)?;
        let tag_len = client::tag_bytes_for(len, region.engine_set.chunk_size);
        let tags = host.dma_from_device_chained(shell, dram, ledger, tag_addr, tag_len)?;
        let epochs = client::uniform_epochs(0);
        let plain = client::decrypt_region_at(dek, region, first_chunk, &ct, &tags, &epochs)?;
        verified &= plain == expected.data;
    }
    let reg_key = dek.register_key();
    let mut read_reg = |index: usize| -> Result<u64, ShefError> {
        let sealed = shield.host_reg_read(index)?;
        RegisterInterface::client_open_value(&reg_key, index, &sealed)
    };
    Ok(accel.host_post(&mut read_reg)? && verified)
}

/// Where `data` lives behind `shield`: its region, the index of its
/// first chunk, and the address of that chunk's tag.
///
/// # Errors
///
/// [`ShefError::Malformed`] for an unknown region, and
/// [`ShefError::InvalidConfig`] for an offset that is not chunk-aligned
/// (sealing it would silently truncate the chunk index).
fn locate<'s>(
    shield: &'s Shield,
    data: &RegionData,
) -> Result<(&'s RegionConfig, u32, u64), ShefError> {
    let config = shield.config();
    let (index, region) = config
        .regions
        .iter()
        .enumerate()
        .find(|(_, r)| r.name == data.region)
        .ok_or_else(|| ShefError::Malformed(format!("unknown region {}", data.region)))?;
    let chunk = region.engine_set.chunk_size as u64;
    if !data.offset.is_multiple_of(chunk) {
        return Err(ShefError::InvalidConfig(format!(
            "offset {} into region {} is not aligned to its {chunk} B chunks",
            data.offset, data.region
        )));
    }
    let first_chunk = data.offset / chunk;
    Ok((
        region,
        first_chunk as u32,
        config.tag_base(index) + first_chunk * 16,
    ))
}

/// Runs `accel` with no Shield: plaintext DMA and direct Shell/DRAM
/// access — the "1×" baseline of every normalized figure.
///
/// # Errors
///
/// Propagates bus errors.
pub fn run_baseline(accel: &mut dyn Accelerator) -> Result<RunReport, ShefError> {
    // Region addressing comes from the same config (any profile works:
    // addresses do not depend on crypto parameters).
    let config = accel.shield_config(&CryptoProfile::AES128_16X);
    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    let mut host = HostCpu::new();
    let mut ledger = CostLedger::new();
    let mut regs = vec![0u64; config.register_interface.num_registers];

    for input in accel.inputs() {
        let region = config
            .regions
            .iter()
            .find(|r| r.name == input.region)
            .ok_or_else(|| ShefError::Malformed(format!("unknown region {}", input.region)))?;
        host.dma_to_device(
            &mut shell,
            &mut dram,
            &mut ledger,
            region.range.start + input.offset,
            &input.data,
        )?;
    }
    for (index, value) in accel.host_pre() {
        *baseline_reg(&mut regs, index)? = value;
        ledger.add_serial(Cycles(4));
    }

    {
        let mut bus = PlainBus {
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            regs: &mut regs,
        };
        accel.run(&mut bus)?;
        bus.flush()?;
    }

    let mut verified = true;
    for expected in accel.expected_outputs() {
        let region = config
            .regions
            .iter()
            .find(|r| r.name == expected.region)
            .ok_or_else(|| ShefError::Malformed(format!("unknown region {}", expected.region)))?;
        let got = host.dma_from_device(
            &mut shell,
            &mut dram,
            &mut ledger,
            region.range.start + expected.offset,
            expected.data.len(),
        )?;
        if got != expected.data {
            verified = false;
        }
    }
    let mut read_reg = |index: usize| baseline_reg(&mut regs, index).map(|r| *r);
    if !accel.host_post(&mut read_reg)? {
        verified = false;
    }

    ledger.merge(dram.ledger());
    Ok(RunReport::from_ledger(
        ledger,
        verified,
        Vec::new(),
        Report::default(),
    ))
}

/// The baseline's plaintext register `index`, rejected out of range
/// exactly as the Shield's register interface rejects it.
fn baseline_reg(regs: &mut [u64], index: usize) -> Result<&mut u64, ShefError> {
    let len = regs.len();
    regs.get_mut(index).ok_or_else(|| {
        ShefError::Malformed(format!(
            "register index {index} out of range (file has {len})"
        ))
    })
}

/// Measures the shielded/baseline ratio for one profile, with the
/// shielded run fanned across `lanes` worker lanes (1 = the serial
/// Shield). `telemetry` is passed to [`run_shielded`], so a lane-scaling
/// sweep can accumulate every configuration into one exported report.
///
/// # Errors
///
/// Propagates run errors from either side.
pub fn overhead(
    make_accel: &dyn Fn() -> Box<dyn Accelerator>,
    profile: &CryptoProfile,
    lanes: usize,
    telemetry: Option<&Telemetry>,
) -> Result<OverheadReport, ShefError> {
    let mut base = make_accel();
    let baseline = run_baseline(base.as_mut())?;
    let pool = WorkerPool::new(lanes);
    let mut shielded_accel = make_accel();
    let shielded = run_shielded(shielded_accel.as_mut(), profile, 42, &pool, telemetry)?;
    Ok(OverheadReport {
        baseline_cycles: baseline.cycles,
        shielded_cycles: shielded.cycles,
        normalized: shielded.cycles.0 as f64 / baseline.cycles.0.max(1) as f64,
        baseline_verified: baseline.outputs_verified,
        shielded_verified: shielded.outputs_verified,
    })
}

/// A baseline-vs-shielded comparison.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Baseline execution cycles.
    pub baseline_cycles: Cycles,
    /// Shielded execution cycles.
    pub shielded_cycles: Cycles,
    /// Shielded / baseline (the y-axis of Fig. 5 and Fig. 6).
    pub normalized: f64,
    /// Baseline output check.
    pub baseline_verified: bool,
    /// Shielded output check.
    pub shielded_verified: bool,
}

/// One tenant's slice of a [`ServiceRunReport`]: the same end-to-end
/// measurement [`RunReport`] makes for a single-tenant run, read off
/// the tenant's private ledger and engine sets.
#[derive(Debug)]
pub struct TenantRunReport {
    /// Tenant name (`tenant0..tenantN` in registration order).
    pub tenant: String,
    /// Modelled execution time in device cycles (bottleneck model over
    /// the tenant's private ledger, DRAM charges merged).
    pub cycles: Cycles,
    /// Execution time in microseconds at the F1 fabric clock.
    pub micros: f64,
    /// Full per-tenant cost breakdown.
    pub ledger: CostLedger,
    /// True if the tenant's output regions matched the golden model and
    /// `host_post` accepted the result registers.
    pub outputs_verified: bool,
    /// The tenant's engine-set statistics.
    pub engine_stats: Vec<(String, EngineSetStats)>,
}

/// Result of one [`run_service`] run: per-tenant measurements
/// plus the service-level scheduling picture.
#[derive(Debug)]
pub struct ServiceRunReport {
    /// One report per tenant, in registration order.
    pub tenants: Vec<TenantRunReport>,
    /// Final logical clock of every shard, in shard order.
    pub shard_clocks: Vec<Cycles>,
    /// Requests the admission queue accepted over the whole run.
    pub admitted: u64,
    /// Completions the service delivered (equals `admitted` on a clean
    /// run — the starvation-freedom invariant).
    pub completed: u64,
    /// Telemetry snapshot of the run (service, engine, pool and DRAM
    /// instruments in one registry).
    pub telemetry: Report,
}

impl ServiceRunReport {
    /// True if every tenant's outputs verified.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.tenants.iter().all(|t| t.outputs_verified)
    }

    /// The slowest tenant's modelled cycles — the figure a tenant-
    /// scaling sweep plots.
    #[must_use]
    pub fn makespan(&self) -> Cycles {
        self.tenants
            .iter()
            .map(|t| t.cycles)
            .max()
            .unwrap_or_default()
    }
}

/// Adapter driving one tenant's kernel through the service: every bus
/// operation is submitted to the admission queue and drained to a
/// completion, so the request still crosses admission control and the
/// shard scheduler. Compute occupancy and register traffic bypass the
/// queue and charge the tenant directly, exactly like [`ShieldedBus`].
struct ServiceBus<'a> {
    service: &'a mut ShieldService,
    tenant: TenantId,
}

impl ServiceBus<'_> {
    fn roundtrip(&mut self, request: ServiceRequest) -> Result<Option<Vec<u8>>, ShefError> {
        let id = self.service.submit(self.tenant, request)?;
        let completion = self
            .service
            .drain()
            .into_iter()
            .find(|c| c.request == id)
            .ok_or_else(|| {
                ShefError::ProtocolViolation("service lost an admitted request".into())
            })?;
        completion.payload
    }
}

impl MemoryBus for ServiceBus<'_> {
    fn read(&mut self, addr: u64, len: usize, mode: AccessMode) -> Result<Vec<u8>, ShefError> {
        self.roundtrip(ServiceRequest::Read { addr, len, mode })
            .map(Option::unwrap_or_default)
    }

    fn write(&mut self, addr: u64, data: &[u8], mode: AccessMode) -> Result<(), ShefError> {
        self.roundtrip(ServiceRequest::Write {
            addr,
            data: data.to_vec(),
            mode,
        })
        .map(|_| ())
    }

    fn flush(&mut self) -> Result<(), ShefError> {
        self.roundtrip(ServiceRequest::Flush).map(|_| ())
    }

    fn compute(&mut self, cycles: u64) {
        self.service
            .tenant_ledger_mut(self.tenant)
            .add_busy(ACCEL_LANE, Cycles(cycles));
    }

    fn reg_read(&mut self, index: usize) -> u64 {
        self.service
            .tenant_shield(self.tenant)
            .registers()
            .accel_read(index)
    }

    fn reg_write(&mut self, index: usize, value: u64) {
        self.service
            .tenant_shield(self.tenant)
            .registers()
            .accel_write(index, value);
    }
}

/// Runs `tenants` instances of one workload through a
/// [`ShieldService`], each tenant in its own key domain and address
/// namespace. Every tenant's Data Owner runs the same inbound and
/// outbound halves as [`run_shielded`], so the measured window per
/// tenant matches it: input DMA (ciphertext + tags), sealed register
/// writes, the kernel (every burst crossing admission + shard
/// dispatch), flush, output DMA and verification-side decryption. With
/// one tenant and a one-shard service of `lanes` lanes this is
/// bit-identical to [`run_shielded`] at `lanes` — the differential
/// conformance suite pins exactly that. `telemetry` works as in
/// [`run_shielded`].
///
/// # Errors
///
/// Propagates configuration, admission, integrity and bus errors.
pub fn run_service(
    make_accel: &dyn Fn() -> Box<dyn Accelerator>,
    profile: &CryptoProfile,
    seed: u64,
    tenants: usize,
    service_config: &ServiceConfig,
    telemetry: Option<&Telemetry>,
) -> Result<ServiceRunReport, ShefError> {
    if tenants == 0 {
        return Err(ShefError::InvalidConfig(
            "service run needs >= 1 tenant".into(),
        ));
    }
    let master = DataEncryptionKey::from_bytes(
        shef_crypto::drbg::HmacDrbg::from_seed(format!("harness.service.master.{seed}").as_bytes())
            .generate_array::<32>(),
    );
    let mut env =
        shef_attest::AttestationEnvironment::new(format!("harness.service.{seed}").as_bytes())?;
    let mut service = ShieldService::new(service_config.clone(), env.verifier_public())?;
    if let Some(telemetry) = telemetry {
        service.attach_telemetry(telemetry);
    }
    let run_telemetry = service.telemetry().clone();

    // Register every tenant and stage its encrypted inputs before any
    // kernel runs (the Data Owners provision independently).
    let mut ids: Vec<TenantId> = Vec::with_capacity(tenants);
    let mut accels: Vec<Box<dyn Accelerator>> = Vec::with_capacity(tenants);
    let mut host = HostCpu::new();
    for i in 0..tenants {
        let name = format!("tenant{i}");
        let accel = make_accel();
        let config = accel.shield_config(profile);
        config.validate()?;
        let grant = env.onboard(&name, master.tenant_key(&name).to_bytes())?;
        let id = service.register_tenant(&name, config, &grant)?;
        let dek = master.tenant_key(&name);
        stage_inputs(accel.as_ref(), &dek, &mut host, service.tenant_datapath(id))?;
        ids.push(id);
        accels.push(accel);
    }

    // Kernel execution: each tenant's bursts cross admission control
    // and the min-clock shard arbiter.
    for (id, accel) in ids.iter().zip(accels.iter_mut()) {
        let mut bus = ServiceBus {
            service: &mut service,
            tenant: *id,
        };
        accel.run(&mut bus)?;
        bus.flush()?;
    }

    // Output readback + client-side verification per tenant.
    let mut tenant_reports = Vec::with_capacity(tenants);
    for (id, accel) in ids.iter().zip(&accels) {
        let tenant = service.tenant_name(*id).to_owned();
        let dek = master.tenant_key(&tenant);
        let datapath = service.tenant_datapath(*id);
        let outputs_verified = verify_outputs(accel.as_ref(), &dek, &mut host, datapath)?;
        let mut ledger = service.tenant_ledger(*id).clone();
        ledger.merge(service.tenant_dram(*id).ledger());
        let cycles = ledger.bottleneck();
        tenant_reports.push(TenantRunReport {
            tenant,
            cycles,
            micros: ClockDomain::F1_DEFAULT.cycles_to_us(cycles),
            ledger,
            outputs_verified,
            engine_stats: service.tenant_shield(*id).engine_stats(),
        });
    }
    let shard_clocks = (0..service.shard_count())
        .map(|s| service.shard(s).clock())
        .collect();
    let snapshot = run_telemetry.report();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map_or(0, |(_, v)| *v)
    };
    Ok(ServiceRunReport {
        tenants: tenant_reports,
        shard_clocks,
        admitted: counter("shield.service.admitted"),
        completed: counter("shield.service.completed"),
        telemetry: snapshot,
    })
}

/// [`run_service`] without a caller-supplied telemetry registry.
/// Kept with this signature because the frozen `perfbench/` workloads
/// call it.
///
/// # Errors
///
/// Propagates configuration, admission, integrity and bus errors.
pub fn run_shielded_service(
    make_accel: &dyn Fn() -> Box<dyn Accelerator>,
    profile: &CryptoProfile,
    seed: u64,
    tenants: usize,
    service_config: &ServiceConfig,
) -> Result<ServiceRunReport, ShefError> {
    run_service(make_accel, profile, seed, tenants, service_config, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecadd::VectorAdd;
    use shef_core::shield::bus::MemoryBus;
    use shef_core::shield::ShieldConfig;

    /// An 8 KiB [`VectorAdd`] whose Data Owner side is bent: inputs and
    /// expected outputs moved by the given byte offsets, and the given
    /// `host_pre` register writes.
    struct Bent {
        inner: VectorAdd,
        input_shift: u64,
        output_shift: u64,
        host_pre: Vec<(usize, u64)>,
    }

    impl Bent {
        fn new(input_shift: u64, output_shift: u64, host_pre: Vec<(usize, u64)>) -> Self {
            let inner = VectorAdd::new(8 * 1024, 1);
            Bent {
                inner,
                input_shift,
                output_shift,
                host_pre,
            }
        }
    }

    fn shifted(mut data: Vec<RegionData>, by: u64) -> Vec<RegionData> {
        for d in &mut data {
            d.offset += by;
        }
        data
    }

    impl Accelerator for Bent {
        fn id(&self) -> &str {
            self.inner.id()
        }
        fn shield_config(&self, profile: &CryptoProfile) -> ShieldConfig {
            self.inner.shield_config(profile)
        }
        fn inputs(&self) -> Vec<RegionData> {
            shifted(self.inner.inputs(), self.input_shift)
        }
        fn expected_outputs(&self) -> Vec<RegionData> {
            shifted(self.inner.expected_outputs(), self.output_shift)
        }
        fn host_pre(&self) -> Vec<(usize, u64)> {
            self.host_pre.clone()
        }
        fn run(&mut self, bus: &mut dyn MemoryBus) -> Result<(), ShefError> {
            self.inner.run(bus)
        }
    }

    #[test]
    fn out_of_range_register_is_rejected_by_baseline_and_shield_alike() {
        let regs = VectorAdd::new(8 * 1024, 1)
            .shield_config(&CryptoProfile::AES128_4X)
            .register_interface
            .num_registers;
        let mut accel = Bent::new(0, 0, vec![(regs, 1)]);
        assert!(matches!(
            run_baseline(&mut accel),
            Err(ShefError::Malformed(_))
        ));
        let pool = WorkerPool::new(1);
        assert!(matches!(
            run_shielded(&mut accel, &CryptoProfile::AES128_4X, 7, &pool, None),
            Err(ShefError::Malformed(_))
        ));
        // One below the limit, the same write is accepted.
        let mut accel = Bent::new(0, 0, vec![(regs - 1, 1)]);
        assert!(run_baseline(&mut accel).unwrap().outputs_verified);
    }

    #[test]
    fn misaligned_offsets_are_config_errors_on_both_runs() {
        let service = ServiceConfig {
            shards: 2,
            lanes_per_shard: 2,
            ..ServiceConfig::default()
        };
        let pool = WorkerPool::new(2);
        for (input_shift, output_shift) in [(16, 0), (0, 16)] {
            let mut accel = Bent::new(input_shift, output_shift, Vec::new());
            let shielded = run_shielded(&mut accel, &CryptoProfile::AES128_4X, 7, &pool, None);
            assert!(
                matches!(shielded, Err(ShefError::InvalidConfig(_))),
                "shift {input_shift}/{output_shift}: {shielded:?}"
            );
            let make = move || {
                Box::new(Bent::new(input_shift, output_shift, Vec::new())) as Box<dyn Accelerator>
            };
            let served = run_service(&make, &CryptoProfile::AES128_4X, 7, 2, &service, None);
            assert!(
                matches!(served, Err(ShefError::InvalidConfig(_))),
                "shift {input_shift}/{output_shift}: {:?}",
                served.map(|r| r.all_verified())
            );
        }
    }

    #[test]
    fn input_window_past_its_region_is_malformed_not_a_panic() {
        // Shifting the 8 KiB inputs by one 512 B chunk pushes each one's
        // last chunk past the end of its region.
        let mut accel = Bent::new(512, 0, Vec::new());
        let pool = WorkerPool::new(1);
        let shielded = run_shielded(&mut accel, &CryptoProfile::AES128_4X, 7, &pool, None);
        assert!(
            matches!(shielded, Err(ShefError::Malformed(_))),
            "{shielded:?}"
        );
    }

    #[test]
    fn service_run_records_into_the_caller_registry() {
        let telemetry = Telemetry::new();
        let make = || Box::new(VectorAdd::new(8 * 1024, 1)) as Box<dyn Accelerator>;
        let config = ServiceConfig {
            shards: 2,
            lanes_per_shard: 2,
            ..ServiceConfig::default()
        };
        let report = run_service(
            &make,
            &CryptoProfile::AES128_4X,
            3,
            2,
            &config,
            Some(&telemetry),
        )
        .unwrap();
        assert!(report.all_verified());
        let counters = telemetry.report().counters;
        for name in [
            "shield.service.admitted",
            "shield.pool.batches",
            "fpga.dram.bytes_written",
        ] {
            assert!(counters[name] > 0, "{name}");
        }
        assert_eq!(telemetry.report().to_json(), report.telemetry.to_json());
    }

    #[test]
    fn shielded_and_baseline_agree_on_outputs() {
        let mut accel = VectorAdd::new(8 * 1024, 1);
        let baseline = run_baseline(&mut accel).unwrap();
        assert!(baseline.outputs_verified);
        let mut accel = VectorAdd::new(8 * 1024, 1);
        let pool = WorkerPool::new(1);
        let shielded =
            run_shielded(&mut accel, &CryptoProfile::AES128_16X, 7, &pool, None).unwrap();
        assert!(shielded.outputs_verified);
        // Security costs something.
        assert!(shielded.cycles >= baseline.cycles);
    }

    #[test]
    fn parallel_harness_verifies_and_never_slows_down() {
        let mut accel = VectorAdd::new(64 * 1024, 1);
        let serial = run_shielded(
            &mut accel,
            &CryptoProfile::AES128_4X,
            7,
            &WorkerPool::new(1),
            None,
        )
        .unwrap();
        let mut accel = VectorAdd::new(64 * 1024, 1);
        let pool = WorkerPool::new(4);
        let parallel = run_shielded(&mut accel, &CryptoProfile::AES128_4X, 7, &pool, None).unwrap();
        assert!(parallel.outputs_verified);
        // Lane fan-out can only shrink the modelled bottleneck.
        assert!(parallel.cycles <= serial.cycles);
        // And the engine sets actually dispatched batch work.
        assert!(parallel
            .engine_stats
            .iter()
            .any(|(_, s)| s.parallel_batches > 0 && s.parallel_speedup() > 1.0));
    }

    #[test]
    fn run_report_snapshots_full_datapath_telemetry() {
        let telemetry = shef_telemetry::Telemetry::new();
        let pool = WorkerPool::new(2);
        let mut accel = VectorAdd::new(8 * 1024, 1);
        let report = run_shielded(
            &mut accel,
            &CryptoProfile::AES128_4X,
            7,
            &pool,
            Some(&telemetry),
        )
        .unwrap();
        let counter = |name: &str| {
            report
                .telemetry
                .counters
                .iter()
                .find(|(n, _)| n.as_str() == name)
                .map(|(_, v)| *v)
        };
        // Engine, pool and DRAM layers all land in one registry.
        assert!(counter("shield.engine.bytes_read").unwrap() > 0);
        assert!(counter("shield.pool.batches").unwrap() > 0);
        assert!(counter("fpga.dram.bytes_written").unwrap() > 0);
        // Phase spans were traced on the deterministic clock.
        assert!(report.telemetry.scopes.contains_key("shield.engine.crypto"));
        // The snapshot is of the caller's registry.
        assert_eq!(telemetry.report().to_json(), report.telemetry.to_json(),);
        // The summary renders the headline numbers.
        let table = report.run_report();
        assert!(table.contains("outputs verified"));
        assert!(table.contains("shield.engine.walk"));
    }

    #[test]
    fn one_tenant_service_run_matches_the_parallel_datapath() {
        let make = || Box::new(VectorAdd::new(16 * 1024, 1)) as Box<dyn Accelerator>;
        let pool = WorkerPool::new(2);
        let mut accel = VectorAdd::new(16 * 1024, 1);
        let parallel =
            run_shielded(&mut accel, &CryptoProfile::AES128_4X, 11, &pool, None).unwrap();
        let config = ServiceConfig {
            shards: 1,
            lanes_per_shard: 2,
            ..ServiceConfig::default()
        };
        let service = run_service(&make, &CryptoProfile::AES128_4X, 11, 1, &config, None).unwrap();
        assert!(service.all_verified());
        assert_eq!(service.tenants.len(), 1);
        let tenant = &service.tenants[0];
        assert_eq!(tenant.cycles, parallel.cycles);
        assert_eq!(tenant.ledger, parallel.ledger);
        assert_eq!(tenant.engine_stats, parallel.engine_stats);
        assert_eq!(service.admitted, service.completed);
    }

    #[test]
    fn multi_tenant_service_run_verifies_every_tenant() {
        let make = || Box::new(VectorAdd::new(8 * 1024, 1)) as Box<dyn Accelerator>;
        let config = ServiceConfig {
            shards: 2,
            lanes_per_shard: 2,
            ..ServiceConfig::default()
        };
        let report = run_service(&make, &CryptoProfile::AES128_4X, 3, 4, &config, None).unwrap();
        assert_eq!(report.tenants.len(), 4);
        assert!(report.all_verified());
        assert_eq!(report.admitted, report.completed, "no request lost");
        // Tenants split across both shards, and both shards worked.
        assert_eq!(report.shard_clocks.len(), 2);
        assert!(report.shard_clocks.iter().all(|c| c.0 > 0));
        // Same-seed runs are byte-identical at the scheduling level.
        let again = run_service(&make, &CryptoProfile::AES128_4X, 3, 4, &config, None).unwrap();
        assert_eq!(report.shard_clocks, again.shard_clocks);
        assert_eq!(report.makespan(), again.makespan());
        assert_eq!(
            report.telemetry.to_json(),
            again.telemetry.to_json(),
            "service telemetry must be deterministic"
        );
    }

    #[test]
    fn baseline_report_has_empty_telemetry() {
        let mut accel = VectorAdd::new(8 * 1024, 1);
        let report = run_baseline(&mut accel).unwrap();
        assert!(report.telemetry.counters.is_empty());
        assert!(report.telemetry.spans.is_empty());
    }

    #[test]
    fn overhead_reports_ratio() {
        let make = || Box::new(VectorAdd::new(8 * 1024, 1)) as Box<dyn Accelerator>;
        let report = overhead(&make, &CryptoProfile::AES128_4X, 1, None).unwrap();
        assert!(report.normalized >= 1.0);
        assert!(report.baseline_verified && report.shielded_verified);
    }

    #[test]
    fn slower_profile_is_not_faster() {
        let make = || Box::new(VectorAdd::new(256 * 1024, 1)) as Box<dyn Accelerator>;
        let fast = overhead(&make, &CryptoProfile::AES128_16X, 1, None).unwrap();
        let slow = overhead(&make, &CryptoProfile::AES256_4X, 1, None).unwrap();
        assert!(slow.normalized >= fast.normalized);
    }
}
