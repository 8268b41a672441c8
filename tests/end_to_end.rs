//! End-to-end integration tests: the full Fig. 2 lifecycle across every
//! crate, positive and negative paths.

use shef::accel::harness::{run_baseline, run_shielded_parallel};
use shef::accel::vecadd::VectorAdd;
use shef::accel::{Accelerator, CryptoProfile};
use shef::attest::AttestError;
use shef::core::boot::secure_boot;
use shef::core::shield::{client, AccessMode, EngineSetConfig, MemRange, ShieldConfig, WorkerPool};
use shef::core::workflow::{Manufacturer, TestBench};
use shef::core::ShefError;
use shef::fpga::board::Board;
use shef::fpga::clock::CostLedger;

fn simple_config() -> ShieldConfig {
    ShieldConfig::builder()
        .region(
            "data",
            MemRange::new(0, 64 * 1024),
            EngineSetConfig {
                buffer_bytes: 4096,
                ..EngineSetConfig::default()
            },
        )
        .build()
        .expect("valid config")
}

#[test]
fn full_lifecycle_with_data_round_trip() {
    let pool = WorkerPool::new(1);
    let mut bench = TestBench::new("it-lifecycle");
    let board = bench.fresh_board(b"it-die-1").unwrap();
    let product = bench
        .vendor
        .package_accelerator("it-accel", simple_config(), vec![1, 2, 3])
        .unwrap();
    let (mut instance, dek) = bench
        .data_owner
        .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
        .unwrap();

    // Data Owner round-trips data through the shielded instance.
    let data = vec![0x42u8; 8192];
    let region = instance.shield.config().regions[0].clone();
    let enc = client::encrypt_region(&dek, &region, &data, 0);
    let mut ledger = CostLedger::new();
    let tag_base = instance.shield.config().tag_base(0);
    instance
        .board
        .host
        .dma_to_device(
            &mut instance.board.shell,
            &mut instance.board.device.dram,
            &mut ledger,
            0,
            &enc.ciphertext,
        )
        .unwrap();
    instance.board.device.dram.tamper_write(tag_base, &enc.tags);
    let plain = instance
        .shield
        .read(
            &mut instance.board.shell,
            &mut instance.board.device.dram,
            &mut ledger,
            0,
            8192,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
    assert_eq!(plain, data);
}

#[test]
fn two_devices_have_distinct_attestation_identities() {
    let mut bench = TestBench::new("it-identity");
    let board_a = bench.fresh_board(b"it-die-a").unwrap();
    let board_b = bench.fresh_board(b"it-die-b").unwrap();
    let product = bench
        .vendor
        .package_accelerator("id-accel", simple_config(), vec![])
        .unwrap();
    let (mut instance_a, _) = bench
        .data_owner
        .deploy(board_a, &mut bench.vendor, &bench.manufacturer, &product)
        .unwrap();
    let (mut instance_b, _) = bench
        .data_owner
        .deploy(board_b, &mut bench.vendor, &bench.manufacturer, &product)
        .unwrap();
    // Same kernel and bitstream: same measurement, device-unique keys.
    assert_eq!(
        instance_a.boot_report.measurement,
        instance_b.boot_report.measurement
    );
    assert_ne!(
        instance_a
            .kernel_mut()
            .unwrap()
            .ak_cert()
            .unwrap()
            .ak_public,
        instance_b
            .kernel_mut()
            .unwrap()
            .ak_cert()
            .unwrap()
            .ak_public,
        "attestation keys must be device-unique"
    );
}

#[test]
fn tampered_staged_bitstream_fails_attestation() {
    let mut bench = TestBench::new("it-tamper-bitstream");
    let board = bench.fresh_board(b"it-die-2").unwrap();
    let product = bench
        .vendor
        .package_accelerator("t-accel", simple_config(), vec![])
        .unwrap();
    // The adversary (host) swaps the staged bitstream for its own bytes.
    let mut evil = product.clone();
    evil.encrypted_bitstream.0[10] ^= 0xFF;
    let err = bench
        .data_owner
        .deploy(board, &mut bench.vendor, &bench.manufacturer, &evil)
        .unwrap_err();
    assert!(matches!(
        err,
        ShefError::AttestationFailed(AttestError::UnknownMeasurement(_))
    ));
}

#[test]
fn unknown_kernel_is_rejected_by_vendor() {
    use shef::core::workflow::{Csp, DataOwner, IpVendor};

    let mut manufacturer = Manufacturer::new(b"it-maker");
    // Vendor that audited a different kernel build than the CSP runs.
    let mut vendor = IpVendor::new(
        "paranoid",
        manufacturer.ca_root(),
        &[b"shef-security-kernel v0.9 (audited)"],
    );
    let csp = Csp::new("shell-v1");
    let mut owner = DataOwner::new(b"it-owner");
    let mut board = Board::new(b"it-die-3");
    manufacturer.provision_device(&mut board).unwrap();
    csp.rack_board(&mut board).unwrap();
    let product = vendor
        .package_accelerator("k-accel", simple_config(), vec![])
        .unwrap();
    let err = owner
        .deploy(board, &mut vendor, &manufacturer, &product)
        .unwrap_err();
    assert!(matches!(
        err,
        ShefError::AttestationFailed(AttestError::UnknownMeasurement(_))
    ));
}

#[test]
fn every_accelerator_verifies_both_shielded_and_baseline() {
    let pool = WorkerPool::new(1);
    // Small instances of each workload: functional correctness across
    // the whole stack.
    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(shef::accel::vecadd::VectorAdd::new(8 * 1024, 1)),
        Box::new(shef::accel::matmul::MatMul::new(32, 2)),
        Box::new(shef::accel::conv::Convolution::new(
            shef::accel::conv::ConvDims::small(),
            3,
        )),
        Box::new(shef::accel::digitrec::DigitRecognition::new(32, 40, 4)),
        Box::new(shef::accel::affine::AffineTransform::new(64, 5)),
        Box::new(shef::accel::dnnweaver::DnnWeaver::new(1, 6)),
        Box::new(shef::accel::bitcoin::Bitcoin::new(8, 7)),
        Box::new(shef::accel::sdp::SdpStore::new(
            4096,
            2,
            vec![shef::accel::sdp::SdpOp::Get(0)],
            shef::accel::sdp::SdpEngineConfig::table2_columns()[2].1,
            8,
        )),
    ];
    for mut accel in accels {
        let id = accel.id().to_owned();
        let report = run_baseline(accel.as_mut()).unwrap();
        assert!(report.outputs_verified, "{id} baseline must verify");
    }
    // Rebuild for shielded (accelerators may consume state).
    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(shef::accel::vecadd::VectorAdd::new(8 * 1024, 1)),
        Box::new(shef::accel::matmul::MatMul::new(32, 2)),
        Box::new(shef::accel::conv::Convolution::new(
            shef::accel::conv::ConvDims::small(),
            3,
        )),
        Box::new(shef::accel::digitrec::DigitRecognition::new(32, 40, 4)),
        Box::new(shef::accel::affine::AffineTransform::new(64, 5)),
        Box::new(shef::accel::dnnweaver::DnnWeaver::new(1, 6)),
        Box::new(shef::accel::bitcoin::Bitcoin::new(8, 7)),
        Box::new(shef::accel::sdp::SdpStore::new(
            4096,
            2,
            vec![shef::accel::sdp::SdpOp::Get(0)],
            shef::accel::sdp::SdpEngineConfig::table2_columns()[2].1,
            8,
        )),
    ];
    for mut accel in accels {
        let id = accel.id().to_owned();
        let report =
            run_shielded_parallel(accel.as_mut(), &CryptoProfile::AES128_16X, 11, &pool).unwrap();
        assert!(report.outputs_verified, "{id} shielded must verify");
    }
}

#[test]
fn shield_overhead_is_nonnegative_and_profile_ordered() {
    let make = || Box::new(VectorAdd::new(64 * 1024, 9)) as Box<dyn Accelerator>;
    let fast = shef::accel::harness::overhead(&make, &CryptoProfile::AES128_16X, 1).unwrap();
    let slow = shef::accel::harness::overhead(&make, &CryptoProfile::AES256_4X, 1).unwrap();
    assert!(fast.normalized >= 1.0);
    assert!(
        slow.normalized >= fast.normalized,
        "weaker profile cannot be faster"
    );
}

#[test]
fn power_cycle_requires_fresh_boot() {
    let mut bench = TestBench::new("it-powercycle");
    let board = bench.fresh_board(b"it-die-4").unwrap();
    let product = bench
        .vendor
        .package_accelerator("pc-accel", simple_config(), vec![])
        .unwrap();
    let (mut instance, _) = bench
        .data_owner
        .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
        .unwrap();
    let challenge = bench.vendor.challenge("pc-accel").unwrap();
    let quote = instance.kernel_mut().unwrap().quote(&challenge).unwrap();
    let ticket = bench
        .vendor
        .release_bitstream_key("pc-accel", &quote)
        .unwrap();

    instance.board.device.power_cycle();
    assert!(!instance.board.device.sk_processor.is_running());
    // The kernel died with its sessions: no quote, no redeem.
    assert!(matches!(
        instance.kernel_mut(),
        Err(ShefError::BootFailed(_))
    ));
    // Secure boot yields a fresh kernel; the old session stays dead.
    let mut kernel = secure_boot(&mut instance.board).unwrap();
    assert!(instance.kernel_mut().is_err());
    assert_eq!(
        kernel.redeem(&ticket).unwrap_err(),
        AttestError::UnknownSession
    );
    let challenge = bench.vendor.challenge("pc-accel").unwrap();
    let quote = kernel.quote(&challenge).unwrap();
    bench
        .vendor
        .release_bitstream_key("pc-accel", &quote)
        .unwrap();
}
