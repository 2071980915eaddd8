//! # elide-core
//!
//! SgxElide: enclave code secrecy via self-modification (CGO 2018), the
//! primary contribution of this repository.
//!
//! The enclave file must be signed before it can be initialized, so any
//! secret in it can be disassembled. SgxElide therefore ships a *sanitized*
//! enclave — every non-whitelisted function zeroed — and restores the
//! original bytes at run time, after attestation, by treating code as data:
//!
//! * [`whitelist`] — builds the dummy enclave and extracts the functions
//!   that must survive (the SgxElide runtime + tRTS).
//! * [`sanitizer`] — redacts functions, emits `enclave.secret.meta` /
//!   `enclave.secret.data`, and sets `PF_W` on the text segment.
//! * [`elide_asm`] — the in-enclave restorer (`elide_restore`) in EV64
//!   assembly, including sealing for server-free relaunches.
//! * The provisioning service, split into four layers:
//!   [`transport`] (one length-prefixed frame codec with size limits and
//!   timeouts, driven blocking or nonblocking, over TCP or an in-process
//!   channel), [`session`] (the per-connection attested-handshake state
//!   machine), [`store`] (the MRENCLAVE-keyed [`store::SecretStore`] so one
//!   server provisions many enclaves), and [`service`] (sharded event
//!   loops with graceful shutdown, plus the resident enclave pool).
//!   [`server`] holds the shared `AuthServer` state and [`protocol`] the
//!   client transports plus channel crypto.
//! * [`restore`] — the untrusted ocalls (`elide_server_request`,
//!   `elide_read_file`, `elide_write_file`), the one restore path, and the
//!   client-side [`restore::RetryPolicy`].
//! * [`api`] — one-call `protect` / `launch` / `restore` orchestration;
//!   [`api::LaunchedApp`] is the only host-side restore entry point.
//! * [`delegation`] — peer-to-peer secret fan-out: a provisioned enclave
//!   serves neighbor enclaves from a signed origin policy, so the origin
//!   server is contacted once per host.
//! * [`attack`] — the adversary's toolkit (disassembly, signature scans,
//!   controlled-channel page-trace attribution) used by the evaluation.
//!
//! # Examples
//!
//! ```
//! use elide_core::api::{protect, Mode, Platform};
//! use elide_core::elide_asm::ELIDE_ASM;
//! use elide_core::protocol::InProcessTransport;
//! use elide_core::restore::new_sealed_store;
//! use elide_core::sanitizer::DataPlacement;
//! use elide_crypto::rng::SeededRandom;
//! use elide_crypto::rsa::RsaKeyPair;
//! use elide_enclave::image::EnclaveImageBuilder;
//! use sgx_sim::quote::AttestationService;
//! use std::sync::{Arc, Mutex};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build an enclave whose `get_answer` is a trade secret.
//! let mut builder = EnclaveImageBuilder::new();
//! builder
//!     .source(ELIDE_ASM)
//!     .source(".section text\n.global get_answer\n.func get_answer\n    movi r0, 42\n    ret\n.endfunc\n")
//!     .ecall("get_answer")
//!     .ecall("elide_restore");
//! let image = builder.build()?;
//!
//! // Protect it (sanitize + sign) and stand up the infrastructure.
//! let mut rng = SeededRandom::new(1);
//! let vendor = RsaKeyPair::generate(512, &mut rng);
//! let package = protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)?;
//! let mut ias = AttestationService::new();
//! let platform = Platform::provision(&mut rng, &mut ias);
//! let server = Arc::new(package.make_server(ias));
//! let transport = Arc::new(Mutex::new(InProcessTransport::new(server)));
//!
//! // Launch: the secret is dead until restored...
//! let mut app = package.launch(&platform, transport, new_sealed_store(), 7)?;
//! assert!(app.runtime.ecall(0, &[], 0).is_err());
//! // ...and alive afterwards.
//! app.restore(1)?;
//! assert_eq!(app.runtime.ecall(0, &[], 0)?.status, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
pub mod api;
pub mod attack;
pub mod client;
pub mod delegation;
pub mod elide_asm;
pub mod error;
pub mod faults;
pub mod meta;
pub mod protocol;
pub mod restore;
pub mod sanitizer;
pub mod server;
pub mod service;
pub mod session;
pub mod store;
pub mod ticket;
pub mod transport;
pub mod whitelist;

pub use error::{ElideError, ServerError};
