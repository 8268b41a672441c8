//! Telemetry determinism: two identical traces must export
//! byte-identical line-JSON reports at every gated lane count, 1 lane
//! (the serial Shield) included. This is the property the
//! `telemetry-report` CI job enforces end-to-end with `cmp`.

use shef_core::shield::config::{EngineSetConfig, MemRange, RegionConfig};
use shef_core::shield::engine::{AccessMode, EngineSet};
use shef_core::shield::{client, DataEncryptionKey, WorkerPool};
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;
use shef_telemetry::Telemetry;
use shef_testkit::{run_campaign, CampaignTelemetry};

const REGION_BASE: u64 = 0x1000;
const CHUNK: usize = 512;
const NUM_CHUNKS: u64 = 32;
const REGION_LEN: u64 = CHUNK as u64 * NUM_CHUNKS;
const TAG_BASE: u64 = 0x20_0000;
const MERKLE_BASE: u64 = 0x30_0000;

/// Drives one fixed read/write/flush trace at `lanes` and returns the
/// exported line-JSON telemetry report.
fn drive_trace(lanes: usize) -> String {
    let telemetry = Telemetry::new();
    let region = RegionConfig {
        name: "tele".into(),
        range: MemRange::new(REGION_BASE, REGION_LEN),
        engine_set: EngineSetConfig {
            chunk_size: CHUNK,
            buffer_bytes: CHUNK * 8,
            counters: true,
            zero_fill_writes: false,
            ..EngineSetConfig::default()
        },
    };
    let dek = DataEncryptionKey::from_bytes([0x2Au8; 32]);
    let mut es = EngineSet::new(region.clone(), 0, TAG_BASE, MERKLE_BASE, &dek);
    es.attach_telemetry(&telemetry);
    let mut dram = Dram::new(1 << 22);
    dram.attach_telemetry(&telemetry);
    let enc = client::encrypt_region(&dek, &region, &vec![0u8; REGION_LEN as usize], 0);
    dram.tamper_write(REGION_BASE, &enc.ciphertext);
    dram.tamper_write(TAG_BASE, &enc.tags);
    let mut shell = Shell::new();
    let mut ledger = CostLedger::new();
    let pool = WorkerPool::new(lanes);
    pool.attach_telemetry(&telemetry);

    let payload = vec![0xC4u8; CHUNK * 6];
    es.write(
        &mut shell,
        &mut dram,
        &mut ledger,
        REGION_BASE + CHUNK as u64,
        &payload,
        AccessMode::Streaming,
        &pool,
    )
    .unwrap();
    let back = es
        .read(
            &mut shell,
            &mut dram,
            &mut ledger,
            REGION_BASE + CHUNK as u64,
            payload.len(),
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
    assert_eq!(back, payload);
    es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
    telemetry.report().to_json()
}

/// The data sections every report must carry, at any lane count.
const DATAPATH_NEEDLES: [&str; 6] = [
    "\"schema\": \"shef-telemetry/v1\"",
    "shield.engine.walk",
    "shield.engine.crypto",
    "shield.engine.landing",
    "shield.pool.batches",
    "fpga.dram.bytes_read",
];

#[test]
fn serial_trace_reports_are_byte_identical() {
    // The 1-lane datapath is the serial Shield: its report is
    // deterministic and carries the same phase spans and pool counters
    // as a fanned-out run.
    let json = drive_trace(1);
    assert_eq!(json, drive_trace(1));
    for needle in DATAPATH_NEEDLES {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}

#[test]
fn parallel_trace_reports_are_byte_identical_at_every_lane_count() {
    for lanes in [2usize, 4] {
        let a = drive_trace(lanes);
        let b = drive_trace(lanes);
        assert_eq!(a, b, "report diverged at {lanes} lanes");
    }
}

#[test]
fn parallel_report_actually_contains_the_datapath() {
    let json = drive_trace(4);
    for needle in DATAPATH_NEEDLES {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}

#[test]
fn campaign_verdict_counters_are_deterministic_and_pre_registered() {
    let export = || {
        let telemetry = Telemetry::new();
        let tele = CampaignTelemetry::bind(&telemetry);
        for record in run_campaign(2, &[1, 2]) {
            tele.record(&record.report);
        }
        telemetry.report().to_json()
    };
    let a = export();
    assert_eq!(a, export());
    // Forbidden verdicts are explicit zeros, not absent keys.
    assert!(a.contains("\"name\": \"fault.verdict.silent_corruption\", \"value\": 0"));
    assert!(a.contains("\"name\": \"fault.verdict.hang\", \"value\": 0"));
}
