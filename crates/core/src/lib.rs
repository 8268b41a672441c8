//! # ShEF core: Shielded Enclaves for Cloud FPGAs
//!
//! This crate implements the ShEF framework of Zhao, Gao & Kozyrakis
//! (ASPLOS 2022) on top of the simulated cloud-FPGA platform in
//! [`shef_fpga`]:
//!
//! * [`boot`] — the secure boot chain (§4 "Secure Boot"): BootROM → SPB
//!   firmware → a `shef_attest` Security Kernel that has measured itself
//!   and the staged accelerator bitstream.
//! * [`bitstream`] — the partial-bitstream container: accelerator logic,
//!   Shield configuration and the embedded private Shield Encryption Key,
//!   sealed under the Bitstream Encryption Key.
//! * [`shield`] — the ShEF Shield (§5): a configurable wrapper that
//!   interposes authenticated encryption on the register and memory
//!   interfaces between accelerator and Shell, with per-region engine
//!   sets, buffers and freshness counters, plus area and timing models.
//! * [`workflow`] — the four parties (Manufacturer, CSP, IP Vendor, Data
//!   Owner) and the eleven-step lifecycle of Fig. 2 as a typed API; the
//!   vendor releases the Bitstream Key (Fig. 3) through one `shef_attest`
//!   attestation round.
//! * [`attacks`] — the adversarial harness used to demonstrate that the
//!   threat-model attacks (Shell man-in-the-middle, DRAM spoof/splice/
//!   replay, JTAG tamper, bitstream swaps) are detected.
//! * [`sidechannel`] — §5.2 countermeasures: active-fence generation and
//!   access-pattern width analysis.
//! * [`oram`] — the paper's suggested extension: a Path ORAM controller
//!   over the Shield's generic memory interface, closing the address
//!   side channel entirely.
//!
//! ## Quickstart
//!
//! A Shield starts from a validated configuration — named regions, each
//! with its own engine set:
//!
//! ```
//! use shef_core::shield::{EngineSetConfig, MemRange, ShieldConfig};
//!
//! let config = ShieldConfig::builder()
//!     .region("data", MemRange::new(0x1000, 0x2000), EngineSetConfig::default())
//!     .build()
//!     .expect("valid config");
//! assert_eq!(config.regions.len(), 1);
//! ```
//!
//! See `examples/quickstart.rs` at the workspace root for the full
//! eleven-step lifecycle; the crate-level integration tests
//! (`tests/end_to_end.rs`) exercise every path. `docs/ARCHITECTURE.md`
//! maps the crates and walks the datapath; `docs/SECURITY_MODEL.md`
//! states the threat model this crate defends against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod bitstream;
pub mod boot;
pub mod error;
pub mod fault;
pub mod oram;
pub mod shield;
pub mod sidechannel;
pub mod workflow;

mod wire;

pub use error::ShefError;
pub use fault::ShieldFault;
