//! Service-vs-parallel conformance over the full accelerator suite:
//! `run_shielded_service` with a single tenant must be bit-identical to
//! `run_shielded_parallel` for every workload — same modelled cycles,
//! same cost ledger, same engine-set statistics, outputs verified
//! against the golden model — across 1, 2 and 4 lanes per shard. The
//! admission queue, shard arbiter and tenant key derivation may not
//! perturb the datapath by even one cycle.

use shef_accel::affine::AffineTransform;
use shef_accel::bitcoin::Bitcoin;
use shef_accel::conv::{ConvDims, Convolution};
use shef_accel::digitrec::DigitRecognition;
use shef_accel::dnnweaver::DnnWeaver;
use shef_accel::harness::{run_service, run_shielded};
use shef_accel::matmul::MatMul;
use shef_accel::sdp::{SdpEngineConfig, SdpOp, SdpStore};
use shef_accel::vecadd::VectorAdd;
use shef_accel::{Accelerator, CryptoProfile};
use shef_core::shield::{ServiceConfig, WorkerPool};

const SEED: u64 = 42;

fn assert_service_matches_parallel(name: &str, make: &dyn Fn() -> Box<dyn Accelerator>) {
    let profile = CryptoProfile::AES128_4X;
    for lanes in [1usize, 2, 4] {
        let pool = WorkerPool::new(lanes);
        let mut accel = make();
        let parallel = run_shielded(accel.as_mut(), &profile, SEED, &pool, None)
            .unwrap_or_else(|e| panic!("{name}: parallel run ({lanes} lanes) failed: {e}"));
        assert!(parallel.outputs_verified, "{name}: parallel not verified");

        let config = ServiceConfig {
            shards: 1,
            lanes_per_shard: lanes,
            queue_capacity: 64,
            tenant_quota: 16,
        };
        let service = run_service(make, &profile, SEED, 1, &config, None)
            .unwrap_or_else(|e| panic!("{name}: service run ({lanes} lanes) failed: {e}"));
        assert!(
            service.all_verified(),
            "{name}: service outputs ({lanes} lanes) not verified against the golden model"
        );
        assert_eq!(
            service.admitted, service.completed,
            "{name}: service lost an admitted request"
        );

        let tenant = &service.tenants[0];
        assert_eq!(
            tenant.cycles, parallel.cycles,
            "{name}: modelled cycles drifted at {lanes} lanes ({} != {})",
            tenant.cycles.0, parallel.cycles.0
        );
        assert_eq!(
            tenant.ledger, parallel.ledger,
            "{name}: cost ledger drifted at {lanes} lanes"
        );
        assert_eq!(
            tenant.engine_stats, parallel.engine_stats,
            "{name}: engine-set stats drifted at {lanes} lanes"
        );
    }
}

#[test]
fn vecadd_service_is_bit_identical() {
    assert_service_matches_parallel("vecadd", &|| Box::new(VectorAdd::new(16 * 1024, 3)));
}

#[test]
fn matmul_service_is_bit_identical() {
    assert_service_matches_parallel("matmul", &|| Box::new(MatMul::new(32, 9)));
}

#[test]
fn conv_service_is_bit_identical() {
    assert_service_matches_parallel("conv", &|| Box::new(Convolution::new(ConvDims::small(), 4)));
}

#[test]
fn digitrec_service_is_bit_identical() {
    assert_service_matches_parallel("digitrec", &|| Box::new(DigitRecognition::new(32, 50, 7)));
}

#[test]
fn affine_service_is_bit_identical() {
    assert_service_matches_parallel("affine", &|| Box::new(AffineTransform::new(64, 3)));
}

#[test]
fn dnnweaver_service_is_bit_identical() {
    assert_service_matches_parallel("dnnweaver", &|| Box::new(DnnWeaver::new(1, 5)));
}

#[test]
fn dnnweaver_merkle_service_is_bit_identical() {
    assert_service_matches_parallel("dnnweaver+merkle", &|| {
        Box::new(DnnWeaver::new(1, 5).with_merkle_fmap())
    });
}

#[test]
fn bitcoin_service_is_bit_identical() {
    assert_service_matches_parallel("bitcoin", &|| Box::new(Bitcoin::new(10, 3)));
}

#[test]
fn sdp_service_is_bit_identical() {
    let engines = SdpEngineConfig::table2_columns()[2].1;
    assert_service_matches_parallel("sdp", &|| {
        Box::new(SdpStore::new(
            4096,
            2,
            vec![SdpOp::Get(0), SdpOp::Put(1), SdpOp::Get(1)],
            engines,
            1,
        ))
    });
}

/// Multi-tenant sanity on top of the per-workload identity: with four
/// tenants on two shards every tenant still verifies, and tenants that
/// landed on the same shard report identical cycles (same workload,
/// same key-independent costs).
#[test]
fn four_tenants_two_shards_all_verify() {
    let config = ServiceConfig {
        shards: 2,
        lanes_per_shard: 2,
        queue_capacity: 64,
        tenant_quota: 16,
    };
    let report = run_service(
        &|| Box::new(VectorAdd::new(4 * 1024, 5)),
        &CryptoProfile::AES128_4X,
        SEED,
        4,
        &config,
        None,
    )
    .expect("service run");
    assert!(report.all_verified());
    assert_eq!(report.tenants.len(), 4);
    assert_eq!(report.admitted, report.completed);
    assert_eq!(report.shard_clocks.len(), 2);
    // All four tenants run the same workload; modelled per-tenant cost
    // is identical because crypto costs are length-based.
    let first = report.tenants[0].cycles;
    for t in &report.tenants {
        assert_eq!(t.cycles, first, "tenant {} cycles drifted", t.tenant);
    }
}
