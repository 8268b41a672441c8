//! Attack demo: every adversary capability of the threat model (§2.5)
//! mounted against a running shielded instance — and detected.
//!
//! The adversary here controls the host, the Shell, the DRAM, the boot
//! medium and the debug ports (everything except the FPGA package and
//! the IP Vendor's development environment).
//!
//! Run with: `cargo run --release --example attack_demo`

use shef::core::attacks::{icap_swap, jtag_probe, MemReadSpoofer, ReplaySnapshot};
use shef::core::boot::kernel_check_monitors;
use shef::core::shield::{
    client, AccessMode, EngineSetConfig, Freshness, MemRange, ShieldConfig, WorkerPool,
};
use shef::core::workflow::TestBench;
use shef::core::ShefError;
use shef::fpga::clock::CostLedger;
use shef::fpga::ports::PortAccessOutcome;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pool = WorkerPool::new(1);
    let mut bench = TestBench::new("attack-demo");
    let board = bench.fresh_board(b"die-under-attack")?;
    let config = ShieldConfig::builder()
        .region(
            "secrets",
            MemRange::new(0, 64 * 1024),
            EngineSetConfig {
                freshness: Freshness::Counters,
                buffer_bytes: 4096,
                ..EngineSetConfig::default()
            },
        )
        .build()?;
    let product = bench
        .vendor
        .package_accelerator("target", config, vec![0xAC; 256])?;
    let (mut instance, dek) =
        bench
            .data_owner
            .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)?;
    let region = instance.shield.config().regions[0].clone();
    let tag_base = instance.shield.config().tag_base(0);
    let mut ledger = CostLedger::new();

    // Provision a secret through the legitimate path.
    let secret = vec![0xD5u8; 4096];
    let enc = client::encrypt_region(&dek, &region, &secret, 0);
    instance.board.device.dram.tamper_write(0, &enc.ciphertext);
    instance.board.device.dram.tamper_write(tag_base, &enc.tags);

    println!("attack 1: Shell man-in-the-middle flips ciphertext bits (spoofing)");
    instance
        .board
        .shell
        .set_interposer(Box::new(MemReadSpoofer::new(1)));
    let outcome = instance.shield.read(
        &mut instance.board.shell,
        &mut instance.board.device.dram,
        &mut ledger,
        0,
        512,
        AccessMode::Streaming,
        &pool,
    );
    assert!(matches!(outcome, Err(ShefError::IntegrityViolation(_))));
    println!("  -> DETECTED: {}", outcome.unwrap_err());
    instance.board.shell.clear_interposer();
    // Detection poisons the engine set: further traffic is rejected
    // until the operator acknowledges containment.
    assert_eq!(instance.shield.poisoned_regions(), vec!["secrets"]);
    instance.shield.clear_poison();
    println!("  -> engine poisoned and re-armed (containment acknowledged)");

    println!("attack 2: stale ciphertext re-injected after an update (replay)");
    let snapshot = ReplaySnapshot::capture(&instance.board.device.dram, 0, 512, tag_base, 16);
    instance.shield.write(
        &mut instance.board.shell,
        &mut instance.board.device.dram,
        &mut ledger,
        0,
        &[0xEEu8; 512],
        AccessMode::Streaming,
        &pool,
    )?;
    instance.shield.flush(
        &mut instance.board.shell,
        &mut instance.board.device.dram,
        &mut ledger,
        &pool,
    )?;
    snapshot.replay(&mut instance.board.device.dram);
    let outcome = instance.shield.read(
        &mut instance.board.shell,
        &mut instance.board.device.dram,
        &mut ledger,
        0,
        512,
        AccessMode::Streaming,
        &pool,
    );
    assert!(matches!(outcome, Err(ShefError::IntegrityViolation(_))));
    println!("  -> DETECTED: freshness counter mismatch");
    instance.shield.clear_poison();

    println!("attack 3: JTAG readback probe at runtime");
    let outcome = jtag_probe(&mut instance.board.device.ports);
    assert_eq!(outcome, PortAccessOutcome::BlockedAndLogged);
    println!("  -> BLOCKED by armed monitors");

    println!("attack 4: ICAP hot-swap of the accelerator bitstream");
    let outcome = icap_swap(
        &mut instance.board.device.fabric,
        &mut instance.board.device.ports,
        vec![0xBA; 64],
    );
    assert_eq!(outcome, PortAccessOutcome::BlockedAndLogged);
    println!("  -> BLOCKED by armed monitors");

    println!("attack 5: Security Kernel polls its monitors (tamper response)");
    let outcome = kernel_check_monitors(&mut instance.board);
    assert!(matches!(outcome, Err(ShefError::TamperDetected(_))));
    assert!(!instance.board.device.sk_processor.is_running());
    assert!(instance.board.device.fabric.partial().is_none());
    println!("  -> kernel halted, PR region cleared, secrets zeroized");

    println!();
    println!("all five attacks detected or blocked — the TEE held.");
    Ok(())
}
