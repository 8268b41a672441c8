//! Quickstart: the complete eleven-step ShEF lifecycle of Fig. 2.
//!
//! Four parties cooperate to run a custom accelerator over sensitive
//! data on a cloud FPGA none of them fully trusts:
//!
//! 1–2. The **Manufacturer** burns the AES device key and ships
//!      encrypted SPB firmware carrying the private device key.
//! 3–4. The **IP Vendor** wraps an accelerator in a Shield and
//!      publishes the encrypted bitstream.
//! 5–7. The **Data Owner** rents an instance from the **CSP** and
//!      triggers secure boot.
//! 8–9. Remote attestation proves the device + Security Kernel, and the
//!      Bitstream Key flows over the attested session; the kernel loads
//!      the accelerator.
//! 10–11. The Data Owner provisions the Data Encryption Key via a Load
//!      Key and streams encrypted data through the Shield.
//!
//! Run with: `cargo run --release --example quickstart`

use shef::core::shield::{client, AccessMode, WorkerPool};
use shef::core::shield::{EngineSetConfig, MemRange, ShieldConfig};
use shef::core::workflow::TestBench;
use shef::fpga::clock::CostLedger;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pool = WorkerPool::new(1);
    // ---- The ecosystem: Manufacturer (with CA), CSP, Vendor, Owner.
    let mut bench = TestBench::new("quickstart");

    // ---- Steps 1–2 + 5: a provisioned, racked F1-like board.
    let board = bench.fresh_board(b"die-quickstart-001")?;
    println!("[manufacturer] device provisioned, public key registered with CA");
    println!("[csp]          shell loaded, security kernel staged");

    // ---- Steps 3–4: the vendor packages a shielded accelerator.
    let shield_config = ShieldConfig::builder()
        .region(
            "patient-records",
            MemRange::new(0, 1 << 20),
            EngineSetConfig {
                buffer_bytes: 16 * 1024,
                ..EngineSetConfig::default()
            },
        )
        .region(
            "analysis-output",
            MemRange::new(1 << 30, 1 << 20),
            EngineSetConfig {
                zero_fill_writes: true,
                ..EngineSetConfig::default()
            },
        )
        .build()?;
    let product = bench.vendor.package_accelerator(
        "medical-analytics-v1",
        shield_config,
        b"<accelerator netlist>".to_vec(),
    )?;
    println!(
        "[vendor]       '{}' published (encrypted bitstream)",
        product.accel_id
    );

    // ---- Steps 6–10: boot, attest, load, provision — one call on the
    //      Data Owner, with every check the paper requires inside.
    let (mut instance, dek) =
        bench
            .data_owner
            .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)?;
    println!(
        "[data owner]   attested and deployed '{}' (boot took {:.1} s in the paper's model)",
        instance.accel_id,
        instance.boot_report.timing.total_ms() / 1000.0
    );

    // ---- Step 11: encrypted data in, encrypted results out.
    // (Padded to the Shield's 512-byte chunk granularity — the Shield
    // authenticates whole chunks.)
    let mut records = b"patient-0001:glucose=5.4;patient-0002:glucose=9.1".to_vec();
    records.resize(512, b' ');
    let region = instance.shield.config().regions[0].clone();
    let enc = client::encrypt_region(&dek, &region, &records, 0);
    let mut ledger = CostLedger::new();
    let tag_base = instance.shield.config().tag_base(0);
    instance.board.host.dma_to_device(
        &mut instance.board.shell,
        &mut instance.board.device.dram,
        &mut ledger,
        region.range.start,
        &enc.ciphertext,
    )?;
    instance.board.host.dma_to_device_chained(
        &mut instance.board.shell,
        &mut instance.board.device.dram,
        &mut ledger,
        tag_base,
        &enc.tags,
    )?;
    println!(
        "[host]         staged {} ciphertext bytes (host never sees plaintext)",
        enc.ciphertext.len()
    );

    // The accelerator reads plaintext *inside* the Shield…
    let plain = instance.shield.read(
        &mut instance.board.shell,
        &mut instance.board.device.dram,
        &mut ledger,
        region.range.start,
        records.len(),
        AccessMode::Streaming,
        &pool,
    )?;
    assert_eq!(plain, records);
    println!(
        "[accelerator]  sees plaintext through the Shield: {:?}…",
        String::from_utf8_lossy(&plain[..24])
    );

    // …while DRAM holds only ciphertext.
    let raw = instance
        .board
        .device
        .dram
        .tamper_read(region.range.start, records.len());
    assert_ne!(raw, records);
    println!("[adversary]    DRAM readout is ciphertext only ✓");

    println!();
    println!("quickstart complete: boot ✓ attestation ✓ shielded I/O ✓");
    Ok(())
}
