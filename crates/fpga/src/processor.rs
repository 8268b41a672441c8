//! The dedicated Security-Kernel processor.
//!
//! §3: "The SPB firmware boots the ShEF Security Kernel from external
//! storage onto a dedicated Security Kernel Processor executing from its
//! own private, on-chip memory. The Security Kernel Processor can either
//! be a reserved hardened CPU in the FPGA or a static bitstream
//! containing a soft CPU". The Ultra96 prototype uses a Cortex-R5 core.
//!
//! The crucial hardware property is *isolation*: the processor's private
//! on-chip memory is not reachable from the Shell, the host, the PR
//! region, or off-chip buses. The model enforces this by construction —
//! there is no tamper path into [`PrivateMemory`].

use std::collections::BTreeMap;

/// The kind of processor hosting the Security Kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessorKind {
    /// A reserved hardened core (e.g. Cortex-R5 on Zynq UltraScale+).
    #[default]
    HardenedCore,
    /// A soft CPU in a static bitstream (MicroBlaze / Nios II); its
    /// bitstream hash must then be attested alongside the kernel hash.
    SoftCore,
}

/// Key-value private on-chip memory visible only to the kernel.
#[derive(Debug, Default, Clone)]
pub struct PrivateMemory {
    slots: BTreeMap<String, Vec<u8>>,
}

impl PrivateMemory {
    /// Stores a value.
    pub fn store(&mut self, key: &str, value: Vec<u8>) {
        self.slots.insert(key.to_owned(), value);
    }

    /// Loads a value.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<&[u8]> {
        self.slots.get(key).map(Vec::as_slice)
    }

    /// Removes and returns a value.
    pub fn take(&mut self, key: &str) -> Option<Vec<u8>> {
        self.slots.remove(key)
    }

    /// Erases everything (reset).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

/// A loaded kernel image.
#[derive(Debug, Clone)]
pub struct KernelImage {
    /// Raw kernel binary as read from the boot medium.
    pub binary: Vec<u8>,
    /// SHA-256 of the binary, as measured by the SPB firmware.
    pub hash: [u8; 32],
}

/// The Security-Kernel processor.
#[derive(Debug, Default)]
pub struct SecurityKernelProcessor {
    kind: ProcessorKind,
    image: Option<KernelImage>,
    private_memory: PrivateMemory,
    halted: bool,
}

impl SecurityKernelProcessor {
    /// Creates a processor of the given kind.
    #[must_use]
    pub fn new(kind: ProcessorKind) -> Self {
        SecurityKernelProcessor {
            kind,
            image: None,
            private_memory: PrivateMemory::default(),
            halted: false,
        }
    }

    /// Processor kind.
    #[must_use]
    pub fn kind(&self) -> ProcessorKind {
        self.kind
    }

    /// Loads a measured kernel image onto the processor (done by the SPB
    /// firmware during secure boot). Replaces any previous image and
    /// clears private memory.
    pub fn load_kernel(&mut self, image: KernelImage) {
        self.private_memory.clear();
        self.image = Some(image);
        self.halted = false;
    }

    /// The currently loaded image.
    #[must_use]
    pub fn image(&self) -> Option<&KernelImage> {
        self.image.as_ref()
    }

    /// True if a kernel is loaded and running.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.image.is_some() && !self.halted
    }

    /// Halts the processor (tamper response or power-down).
    pub fn halt(&mut self) {
        self.halted = true;
        self.private_memory.clear();
    }

    /// Access to the kernel's private on-chip memory.
    ///
    /// This accessor represents code *running on* the processor; the rest
    /// of the system has no path to it.
    pub fn private_memory(&mut self) -> &mut PrivateMemory {
        &mut self.private_memory
    }

    /// Read-only view of private memory.
    #[must_use]
    pub fn private_memory_ref(&self) -> &PrivateMemory {
        &self.private_memory
    }

    /// Full reset: clears image and memory.
    pub fn reset(&mut self) {
        self.image = None;
        self.halted = false;
        self.private_memory.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(bytes: &[u8]) -> KernelImage {
        KernelImage {
            binary: bytes.to_vec(),
            hash: shef_crypto::sha2::Sha256::digest(bytes),
        }
    }

    #[test]
    fn load_and_run() {
        let mut p = SecurityKernelProcessor::new(ProcessorKind::HardenedCore);
        assert!(!p.is_running());
        p.load_kernel(image(b"kernel"));
        assert!(p.is_running());
        assert_eq!(p.image().unwrap().binary, b"kernel");
    }

    #[test]
    fn private_memory_round_trip() {
        let mut p = SecurityKernelProcessor::new(ProcessorKind::HardenedCore);
        p.load_kernel(image(b"k"));
        p.private_memory().store("attest-key", vec![1, 2, 3]);
        assert_eq!(
            p.private_memory_ref().load("attest-key"),
            Some(&[1u8, 2, 3][..])
        );
        assert_eq!(p.private_memory().take("attest-key"), Some(vec![1, 2, 3]));
        assert_eq!(p.private_memory_ref().load("attest-key"), None);
    }

    #[test]
    fn halt_clears_secrets() {
        let mut p = SecurityKernelProcessor::new(ProcessorKind::HardenedCore);
        p.load_kernel(image(b"k"));
        p.private_memory().store("secret", vec![9]);
        p.halt();
        assert!(!p.is_running());
        assert_eq!(p.private_memory_ref().load("secret"), None);
    }

    #[test]
    fn reload_clears_previous_private_memory() {
        // A malicious re-load of a different kernel must not inherit the
        // previous kernel's secrets.
        let mut p = SecurityKernelProcessor::new(ProcessorKind::HardenedCore);
        p.load_kernel(image(b"good kernel"));
        p.private_memory().store("attest-key", vec![7; 32]);
        p.load_kernel(image(b"evil kernel"));
        assert_eq!(p.private_memory_ref().load("attest-key"), None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = SecurityKernelProcessor::new(ProcessorKind::SoftCore);
        p.load_kernel(image(b"k"));
        p.private_memory().store("x", vec![1]);
        p.reset();
        assert!(p.image().is_none());
        assert_eq!(p.private_memory_ref().load("x"), None);
        assert_eq!(p.kind(), ProcessorKind::SoftCore);
    }
}
