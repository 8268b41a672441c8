//! Adversarial harness: every attack in the ShEF threat model (§2.5),
//! mountable against a running instance so tests can demonstrate
//! detection.
//!
//! The adversary controls the host software, the Shell, the DRAM, the
//! boot medium and the debug ports. The attacks here are the concrete
//! instantiations the memory-authentication literature names (and §5.2.1
//! cites): *spoofing* (direct modification), *splicing* (relocation of
//! valid ciphertext), and *replay* (reinjection of stale ciphertext),
//! plus ShEF-specific ones: bitstream swap, register tamper, JTAG/ICAP
//! pokes, and Load-Key misdirection.

use shef_fpga::dram::Dram;
use shef_fpga::ports::{DebugPort, PortAccessOutcome};
use shef_fpga::shell::Interposer;

/// A Shell interposer that flips bits in accelerator-visible memory
/// reads — the man-in-the-middle *spoofing* attack.
#[derive(Debug, Default)]
pub struct MemReadSpoofer {
    /// How many reads to corrupt (then pass through).
    pub corrupt_first_n: usize,
    corrupted: usize,
}

impl MemReadSpoofer {
    /// Corrupts the first `n` accelerator reads.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MemReadSpoofer {
            corrupt_first_n: n,
            corrupted: 0,
        }
    }
}

impl Interposer for MemReadSpoofer {
    fn on_mem_read(&mut self, _addr: u64, data: &mut [u8]) {
        if self.corrupted < self.corrupt_first_n {
            if let Some(b) = data.first_mut() {
                *b ^= 0xFF;
            }
            self.corrupted += 1;
        }
    }
}

/// A Shell interposer that rewrites DMA payloads on the way into device
/// memory (tampering with the Data Owner's staged ciphertext).
#[derive(Debug, Default)]
pub struct DmaTamperer;

impl Interposer for DmaTamperer {
    fn on_dma_to_device(&mut self, _addr: u64, data: &mut Vec<u8>) {
        for b in data.iter_mut().take(4) {
            *b = !*b;
        }
    }
}

/// A Shell interposer that snoops all traffic, recording what it saw —
/// used to verify confidentiality (the snooper must never observe
/// plaintext).
#[derive(Debug, Default)]
pub struct Snooper {
    /// Every byte observed on DMA and memory paths.
    pub observed: Vec<u8>,
}

impl Interposer for Snooper {
    fn on_dma_to_device(&mut self, _addr: u64, data: &mut Vec<u8>) {
        self.observed.extend_from_slice(data);
    }
    fn on_dma_from_device(&mut self, _addr: u64, data: &mut Vec<u8>) {
        self.observed.extend_from_slice(data);
    }
    fn on_mem_read(&mut self, _addr: u64, data: &mut [u8]) {
        self.observed.extend_from_slice(data);
    }
    fn on_mem_write(&mut self, _addr: u64, data: &mut [u8]) {
        self.observed.extend_from_slice(data);
    }
}

impl Snooper {
    /// True if `needle` appears anywhere in the observed traffic.
    #[must_use]
    pub fn saw(&self, needle: &[u8]) -> bool {
        !needle.is_empty() && self.observed.windows(needle.len()).any(|w| w == needle)
    }
}

/// Physical-bus splice: copies `len` bytes of ciphertext (and its tag)
/// from one chunk-aligned address to another.
pub fn splice_chunks(
    dram: &mut Dram,
    src_data: u64,
    dst_data: u64,
    len: usize,
    src_tag: u64,
    dst_tag: u64,
    tag_len: usize,
) {
    let data = dram.tamper_read(src_data, len);
    dram.tamper_write(dst_data, &data);
    let tag = dram.tamper_read(src_tag, tag_len);
    dram.tamper_write(dst_tag, &tag);
}

/// A snapshot of a memory window for a later replay.
#[derive(Debug, Clone)]
pub struct ReplaySnapshot {
    data_addr: u64,
    data: Vec<u8>,
    tag_addr: u64,
    tag: Vec<u8>,
}

impl ReplaySnapshot {
    /// Captures ciphertext + tag for a chunk.
    #[must_use]
    pub fn capture(dram: &Dram, data_addr: u64, len: usize, tag_addr: u64, tag_len: usize) -> Self {
        ReplaySnapshot {
            data_addr,
            data: dram.tamper_read(data_addr, len),
            tag_addr,
            tag: dram.tamper_read(tag_addr, tag_len),
        }
    }

    /// Replays the stale snapshot into memory.
    pub fn replay(&self, dram: &mut Dram) {
        dram.tamper_write(self.data_addr, &self.data);
        dram.tamper_write(self.tag_addr, &self.tag);
    }
}

/// Attempts a JTAG readback attack against a running instance.
pub fn jtag_probe(ports: &mut shef_fpga::ports::DebugPorts) -> PortAccessOutcome {
    ports.adversarial_access(DebugPort::Jtag, "runtime bitstream readback over JTAG")
}

/// Attempts to hot-swap the PR region over ICAP.
pub fn icap_swap(
    fabric: &mut shef_fpga::fabric::Fabric,
    ports: &mut shef_fpga::ports::DebugPorts,
    evil_payload: Vec<u8>,
) -> PortAccessOutcome {
    fabric.adversarial_icap_load(ports, evil_payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::{
        client, AccessMode, DataEncryptionKey, EngineSetConfig, Freshness, MemRange, Shield,
        ShieldConfig, WorkerPool,
    };
    use shef_crypto::ecies::EciesKeyPair;
    use shef_fpga::clock::CostLedger;
    use shef_fpga::shell::Shell;

    fn shielded_setup(
        freshness: Freshness,
    ) -> (Shield, Shell, Dram, CostLedger, DataEncryptionKey) {
        let config = ShieldConfig::builder()
            .region(
                "data",
                MemRange::new(0, 8192),
                EngineSetConfig {
                    freshness,
                    buffer_bytes: 512,
                    ..EngineSetConfig::default()
                },
            )
            .build()
            .unwrap();
        let mut shield = Shield::new(config, EciesKeyPair::from_seed(b"attack-target")).unwrap();
        let dek = DataEncryptionKey::from_bytes([0x66u8; 32]);
        let lk = dek.to_load_key(&shield.public_key());
        shield.provision_load_key(&lk).unwrap();
        (
            shield,
            Shell::new(),
            Dram::f1_default(),
            CostLedger::new(),
            dek,
        )
    }

    fn provision_input(shield: &Shield, dram: &mut Dram, dek: &DataEncryptionKey, data: &[u8]) {
        let region = shield.config().regions[0].clone();
        let enc = client::encrypt_region(dek, &region, data, 0);
        dram.tamper_write(0, &enc.ciphertext);
        dram.tamper_write(shield.config().tag_base(0), &enc.tags);
    }

    #[test]
    fn shell_spoofer_detected() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shielded_setup(Freshness::None);
        provision_input(&shield, &mut dram, &dek, &[7u8; 8192]);
        shell.set_interposer(Box::new(MemReadSpoofer::new(1)));
        let err = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, crate::ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn splice_attack_detected() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shielded_setup(Freshness::None);
        // Two chunks with different plaintext.
        let mut data = vec![1u8; 8192];
        data[512..1024].fill(2);
        provision_input(&shield, &mut dram, &dek, &data);
        let tag_base = shield.config().tag_base(0);
        // Move chunk 0 (and tag) over chunk 1.
        splice_chunks(&mut dram, 0, 512, 512, tag_base, tag_base + 16, 16);
        let err = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                512,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, crate::ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn replay_attack_detected_with_counters() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, dek) =
            shielded_setup(Freshness::Counters);
        provision_input(&shield, &mut dram, &dek, &[1u8; 8192]);
        let tag_base = shield.config().tag_base(0);
        let snapshot = ReplaySnapshot::capture(&dram, 0, 512, tag_base, 16);
        // Legitimate update through the Shield.
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                &[9u8; 512],
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .unwrap();
        // Stale state replayed.
        snapshot.replay(&mut dram);
        let err = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, crate::ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn snooper_never_sees_plaintext() {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shielded_setup(Freshness::None);
        let secret = b"TOP-SECRET-GENOME-SEGMENT-0001";
        let mut data = vec![0u8; 8192];
        data[..secret.len()].copy_from_slice(secret);
        provision_input(&shield, &mut dram, &dek, &data);
        shell.set_interposer(Box::new(Snooper::default()));
        // The accelerator reads (and re-writes) the secret through the
        // Shield; all Shell-visible traffic is ciphertext.
        let got = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        assert_eq!(&got[..secret.len()], secret);
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                4096,
                &got,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .unwrap();
        // Retrieve the snooper to inspect what it saw.
        // (Install a fresh honest shell; the snooper was consumed.)
        // We verify indirectly: DRAM nowhere contains the plaintext.
        let all = dram.tamper_read(0, 8192);
        assert!(
            !all.windows(secret.len()).any(|w| w == secret),
            "plaintext leaked to DRAM"
        );
    }

    #[test]
    fn dma_tampering_detected_by_client() {
        let pool = WorkerPool::new(1);
        // The Shell corrupts the Data Owner's ciphertext on the way in;
        // the Shield detects it at first use.
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shielded_setup(Freshness::None);
        let region = shield.config().regions[0].clone();
        let enc = client::encrypt_region(&dek, &region, &[3u8; 8192], 0);
        shell.set_interposer(Box::new(DmaTamperer));
        shell.dma_to_device(&mut dram, 0, &enc.ciphertext).unwrap();
        shell.clear_interposer();
        dram.tamper_write(shield.config().tag_base(0), &enc.tags);
        let err = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                512,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(matches!(err, crate::ShefError::IntegrityViolation(_)));
    }

    #[test]
    fn jtag_probe_blocked_on_booted_instance() {
        let mut ports = shef_fpga::ports::DebugPorts::new();
        ports.arm_monitors(); // Security Kernel armed them at boot
        assert_eq!(jtag_probe(&mut ports), PortAccessOutcome::BlockedAndLogged);
        assert_eq!(ports.pending_events().len(), 1);
    }

    #[test]
    fn icap_swap_blocked_on_booted_instance() {
        let mut fabric = shef_fpga::fabric::Fabric::new();
        let mut ports = shef_fpga::ports::DebugPorts::new();
        fabric.load_shell("v1", b"s").unwrap();
        fabric.load_partial(vec![1, 2, 3]).unwrap();
        ports.arm_monitors();
        assert_eq!(
            icap_swap(&mut fabric, &mut ports, vec![0xEE; 3]),
            PortAccessOutcome::BlockedAndLogged
        );
        assert_eq!(fabric.partial().unwrap().payload, vec![1, 2, 3]);
    }

    #[test]
    fn snooper_saw_helper() {
        let s = Snooper {
            observed: vec![1, 2, 3, 4, 5],
        };
        assert!(s.saw(&[3, 4]));
        assert!(!s.saw(&[4, 3]));
        assert!(!s.saw(&[]));
    }
}
