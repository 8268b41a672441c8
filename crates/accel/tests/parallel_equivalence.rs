//! Lane count must be a pure performance knob: for every accelerator
//! workload in the suite, a shielded run at 2 and 4 lanes has to produce
//! outputs that pass the golden-model check inside the harness and
//! functional engine-set statistics — hits, misses, write-backs and
//! traffic — identical to the 1-lane run. Only the modelled cycles may
//! change, and only downward.
//!
//! The 1-lane run is the paper's serial Shield. Its modelled cycles are
//! pinned to a known-answer table (AES128_4X, seed 42), so the cost
//! model of the serial engine set cannot drift unnoticed.

use shef_accel::affine::AffineTransform;
use shef_accel::bitcoin::Bitcoin;
use shef_accel::conv::{ConvDims, Convolution};
use shef_accel::digitrec::DigitRecognition;
use shef_accel::dnnweaver::DnnWeaver;
use shef_accel::harness::run_shielded;
use shef_accel::matmul::MatMul;
use shef_accel::sdp::{SdpEngineConfig, SdpOp, SdpStore};
use shef_accel::vecadd::VectorAdd;
use shef_accel::{Accelerator, CryptoProfile};
use shef_core::shield::{EngineSetStats, WorkerPool};

const SEED: u64 = 42;

/// The functional subset of the stats: everything except the batch
/// observability counters, which legitimately vary with lane count.
fn functional(s: &EngineSetStats) -> (u64, u64, u64, u64, u64, u64, u64) {
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

/// Runs the workload at 1, 2 and 4 lanes; `one_lane_cycles` is the
/// known-answer modelled cycle count of the 1-lane run.
fn assert_lane_count_invariant(
    name: &str,
    one_lane_cycles: u64,
    make: &dyn Fn() -> Box<dyn Accelerator>,
) {
    let profile = CryptoProfile::AES128_4X;
    let run = |lanes: usize| {
        let pool = WorkerPool::new(lanes);
        let mut accel = make();
        let report = run_shielded(accel.as_mut(), &profile, SEED, &pool, None)
            .unwrap_or_else(|e| panic!("{name}: {lanes}-lane run failed: {e}"));
        assert!(
            report.outputs_verified,
            "{name}: {lanes}-lane outputs not verified against the golden model"
        );
        report
    };
    let one = run(1);
    assert_eq!(
        one.cycles.0, one_lane_cycles,
        "{name}: 1-lane modelled cycles drifted from the known answer"
    );

    for lanes in [2usize, 4] {
        let wide = run(lanes);
        // No counter drift: region-by-region functional stats equality.
        assert_eq!(
            one.engine_stats.len(),
            wide.engine_stats.len(),
            "{name}: engine-set count drifted"
        );
        for ((r1, s1), (rn, sn)) in one.engine_stats.iter().zip(&wide.engine_stats) {
            assert_eq!(r1, rn, "{name}: region order drifted");
            assert_eq!(
                functional(s1),
                functional(sn),
                "{name}: stats drift in region '{r1}' at {lanes} lanes"
            );
        }
        // The fan-out may only shrink the modelled time.
        assert!(
            wide.cycles <= one.cycles,
            "{name}: {lanes} lanes slower than 1 ({} > {})",
            wide.cycles.0,
            one.cycles.0
        );
    }
}

#[test]
fn vecadd_parallel_is_bit_identical() {
    assert_lane_count_invariant("vecadd", 62_048, &|| Box::new(VectorAdd::new(16 * 1024, 3)));
}

#[test]
fn matmul_parallel_is_bit_identical() {
    assert_lane_count_invariant("matmul", 23_524, &|| Box::new(MatMul::new(32, 9)));
}

#[test]
fn conv_parallel_is_bit_identical() {
    assert_lane_count_invariant("conv", 90_256, &|| {
        Box::new(Convolution::new(ConvDims::small(), 4))
    });
}

#[test]
fn digitrec_parallel_is_bit_identical() {
    assert_lane_count_invariant("digitrec", 23_396, &|| {
        Box::new(DigitRecognition::new(32, 50, 7))
    });
}

#[test]
fn affine_parallel_is_bit_identical() {
    assert_lane_count_invariant("affine", 91_744, &|| Box::new(AffineTransform::new(64, 3)));
}

#[test]
fn dnnweaver_parallel_is_bit_identical() {
    assert_lane_count_invariant("dnnweaver", 37_616, &|| Box::new(DnnWeaver::new(1, 5)));
}

#[test]
fn dnnweaver_merkle_parallel_is_bit_identical() {
    assert_lane_count_invariant("dnnweaver+merkle", 63_100, &|| {
        Box::new(DnnWeaver::new(1, 5).with_merkle_fmap())
    });
}

#[test]
fn bitcoin_parallel_is_bit_identical() {
    assert_lane_count_invariant("bitcoin", 113_986, &|| Box::new(Bitcoin::new(10, 3)));
}

/// The fault-injection view of the same claim: for every fault class,
/// the *detection verdict* must not depend on the lane count. A tampered
/// chunk rejected at 1 lane has to be rejected — with the same taxonomy
/// verdict — when the batch is fanned out over 2 or 4 lanes.
#[test]
fn fault_verdicts_are_lane_count_invariant() {
    use shef_testkit::{campaign_plan, run_plan, FaultClass};

    for class in FaultClass::ALL {
        for seed in [3u64, 17, 29] {
            let verdicts: Vec<_> = [1usize, 2, 4]
                .into_iter()
                .map(|lanes| {
                    let report = run_plan(&campaign_plan(seed, class, lanes));
                    assert!(
                        report.is_allowed(),
                        "{} seed {seed} {lanes} lanes: {report:?}",
                        class.as_str()
                    );
                    report.verdict
                })
                .collect();
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "{} seed {seed}: verdict drifted across lane counts: {verdicts:?}",
                class.as_str()
            );
        }
    }
}

#[test]
fn sdp_parallel_is_bit_identical() {
    let engines = SdpEngineConfig::table2_columns()[2].1;
    assert_lane_count_invariant("sdp", 37_971, &|| {
        Box::new(SdpStore::new(
            4096,
            2,
            vec![SdpOp::Get(0), SdpOp::Put(1), SdpOp::Get(1)],
            engines,
            1,
        ))
    });
}
