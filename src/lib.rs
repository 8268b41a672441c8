//! # ShEF: Shielded Enclaves for Cloud FPGAs (simulated reproduction)
//!
//! This meta-crate re-exports the whole ShEF workspace:
//!
//! * [`crypto`] — from-scratch cryptographic primitives.
//! * [`fpga`] — the simulated cloud-FPGA platform (device, Shell, DRAM,
//!   host).
//! * [`attest`] — measured boot of the Shield bitstream, remote
//!   attestation quotes, and verifier-side tenant key provisioning
//!   (the ticket that gates service admission).
//! * [`core`] — ShEF itself: secure boot, bitstream-key release, the
//!   customizable Shield, and the multi-tenant service runtime
//!   (`core::shield::service`: sharded dispatch + admission control).
//! * [`accel`] — the six evaluation accelerators from the paper.
//! * [`telemetry`] — deterministic metrics registry, datapath tracing,
//!   and the exported run report (see the `README.md` "Observability"
//!   section).
//!
//! See `docs/ARCHITECTURE.md` for the crate map and datapath
//! walk-through, and `docs/SECURITY_MODEL.md` for the threat model and
//! attestation protocol. The `examples/` directory holds end-to-end
//! walkthroughs (`quickstart`, `gdpr_storage`, `secure_ml_inference`,
//! `attack_demo`, `attested_tenant`, `custom_engine`, `multi_tenant`,
//! `secure_stream`); the repository
//! `README.md` has build, test, and benchmark instructions, including
//! how to regenerate the paper's tables and figures with the binaries
//! in `crates/bench`.
//! Beyond the paper's own design points, the Shield also ships the
//! baselines and extensions the paper argues about: a Bonsai-Merkle-Tree
//! replay defence (`core::shield::merkle`), a GHASH/GCM MAC engine,
//! Path ORAM (`core::oram`), and stream-interface protection
//! (`core::shield::stream`).
//!
//! A tenant onboards with three lines through the façade:
//!
//! ```
//! let mut env = shef::attest::AttestationEnvironment::new(b"facade-doc")?;
//! let grant = env.onboard("alice", [7u8; 32])?;
//! assert_eq!(grant.tenant(), "alice");
//! # Ok::<(), shef::attest::AttestError>(())
//! ```

#![forbid(unsafe_code)]

pub use shef_accel as accel;
pub use shef_attest as attest;
pub use shef_core as core;
pub use shef_crypto as crypto;
pub use shef_fpga as fpga;
pub use shef_telemetry as telemetry;
