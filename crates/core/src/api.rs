//! High-level orchestration: protect an enclave image, stand up the
//! authentication server, and launch the protected enclave — the developer
//! workflow of Figure 1 in a few calls.
//!
//! [`LaunchedApp`] is the only host-side way to restore: every launch (and
//! [`LaunchedApp::attach`], for a runtime loaded by hand) installs the
//! SgxElide ocalls, and [`LaunchedApp::restore`],
//! [`LaunchedApp::restore_with_retry`] and
//! [`LaunchedApp::restore_delegated`] all run the one restore path in
//! [`crate::restore`].

use crate::error::ElideError;
use crate::meta::SecretMeta;
use crate::protocol::Transport;
use crate::restore::{
    self, DelegationSwitch, ElideFiles, ErrorSink, RestoreRoute, RestoreStats, RetryPolicy,
    SealedStore,
};
use crate::sanitizer::{sanitize, sanitize_blacklist, DataPlacement, SanitizedEnclave};
use crate::server::{AuthServer, ExpectedIdentity};
use crate::whitelist::Whitelist;
use elide_crypto::rng::{RandomSource, SeededRandom};
use elide_crypto::rsa::RsaKeyPair;
use elide_enclave::loader::{measure_enclave, sign_enclave, ImagePlan};
use elide_enclave::runtime::EnclaveRuntime;
use sgx_sim::quote::{AttestationService, QuotingEnclave};
use sgx_sim::sigstruct::SigStruct;
use sgx_sim::SgxCpu;
use std::sync::{Arc, Mutex};

/// Sanitization mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Whitelist mode (the paper's final design): redact everything not in
    /// the dummy enclave.
    Whitelist,
    /// Blacklist mode (the §3.2 ablation): redact only the named functions.
    Blacklist(Vec<String>),
}

/// A user platform: SGX processor plus its provisioned quoting enclave.
pub struct Platform {
    /// The processor.
    pub cpu: SgxCpu,
    /// The quoting enclave.
    pub qe: Arc<QuotingEnclave>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform").finish_non_exhaustive()
    }
}

impl Platform {
    /// Powers on a platform and registers its device key with `ias`.
    pub fn provision(rng: &mut dyn RandomSource, ias: &mut AttestationService) -> Platform {
        let cpu = SgxCpu::new(rng);
        let qe = QuotingEnclave::provision(&cpu, rng);
        ias.register_device(qe.device_public_key().clone());
        Platform { cpu, qe: Arc::new(qe) }
    }
}

/// Everything `protect` produces: ship `image` + `sigstruct` (+
/// `local_data_file`), give `meta`/`server_data` to the server.
pub struct ProtectedPackage {
    /// The sanitized, signed enclave image.
    pub image: Vec<u8>,
    /// Vendor signature over the sanitized measurement.
    pub sigstruct: SigStruct,
    /// Server-only metadata.
    pub meta: SecretMeta,
    /// Server-only plaintext payload (empty in local mode).
    pub server_data: Vec<u8>,
    /// `enclave.secret.data` shipped with the enclave (local mode).
    pub local_data_file: Vec<u8>,
    /// MRENCLAVE of the sanitized image (what attestation must show).
    pub mrenclave: [u8; 32],
    /// Names and sizes of sanitized functions (Table 1).
    pub sanitized_functions: Vec<(String, u64)>,
}

impl std::fmt::Debug for ProtectedPackage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedPackage")
            .field("image_len", &self.image.len())
            .field("sanitized_functions", &self.sanitized_functions.len())
            .finish_non_exhaustive()
    }
}

/// Sanitizes and signs an enclave image built with the SgxElide runtime.
///
/// # Errors
///
/// Propagates sanitizer and signing errors; in particular
/// [`ElideError::BadImage`] when the image was not linked against
/// [`crate::elide_asm::ELIDE_ASM`].
pub fn protect(
    image: &[u8],
    vendor: &RsaKeyPair,
    mode: &Mode,
    placement: DataPlacement,
    rng: &mut dyn RandomSource,
) -> Result<ProtectedPackage, ElideError> {
    let out: SanitizedEnclave = match mode {
        Mode::Whitelist => {
            let wl = Whitelist::from_dummy_enclave()?;
            sanitize(image, &wl, placement, rng)?
        }
        Mode::Blacklist(fns) => {
            let names: Vec<&str> = fns.iter().map(String::as_str).collect();
            sanitize_blacklist(image, &names, placement, rng)?
        }
    };
    let sigstruct = sign_enclave(&out.image, vendor, 1, 1)?;
    let mrenclave = measure_enclave(&out.image)?;
    Ok(ProtectedPackage {
        image: out.image,
        sigstruct,
        meta: out.meta,
        server_data: out.secret_data,
        local_data_file: out.local_data_file,
        mrenclave,
        sanitized_functions: out.sanitized_functions,
    })
}

impl ProtectedPackage {
    /// Builds the authentication server for this package, pinned to the
    /// sanitized enclave's measurement and the vendor identity.
    pub fn make_server(&self, ias: AttestationService) -> AuthServer {
        let expected = ExpectedIdentity {
            mrenclave: Some(self.mrenclave),
            mrsigner: self.sigstruct.mrsigner().ok(),
        };
        let data = if self.meta.is_local() { Vec::new() } else { self.server_data.clone() };
        AuthServer::new(self.meta.clone(), data, expected, ias)
    }

    /// The files the untrusted host ships next to the enclave.
    pub fn files(&self, sealed: SealedStore) -> ElideFiles {
        ElideFiles {
            data_file: if self.meta.is_local() { Some(self.local_data_file.clone()) } else { None },
            sealed,
        }
    }

    /// Loads the sanitized enclave on `platform` and wires the SgxElide
    /// ocalls against `transport`. Returns the runtime, ready for
    /// [`LaunchedApp::restore`].
    ///
    /// # Errors
    ///
    /// Propagates load/`EINIT` failures.
    pub fn launch(
        &self,
        platform: &Platform,
        transport: Arc<Mutex<dyn Transport + Send>>,
        sealed: SealedStore,
        seed: u64,
    ) -> Result<LaunchedApp, ElideError> {
        self.launch_planned(&self.image_plan()?, platform, transport, sealed, seed)
    }

    /// Pre-parses this package's image into an [`ImagePlan`] so repeated
    /// launches (warm starts, pool cycling) skip the ELF walk.
    ///
    /// # Errors
    ///
    /// Propagates image parse failures.
    pub fn image_plan(&self) -> Result<ImagePlan, ElideError> {
        Ok(ImagePlan::new(&self.image)?)
    }

    /// [`Self::launch`] from a pre-parsed [`ImagePlan`] (must come from
    /// this package's image).
    ///
    /// # Errors
    ///
    /// Propagates load/`EINIT` failures.
    pub fn launch_planned(
        &self,
        plan: &ImagePlan,
        platform: &Platform,
        transport: Arc<Mutex<dyn Transport + Send>>,
        sealed: SealedStore,
        seed: u64,
    ) -> Result<LaunchedApp, ElideError> {
        self.launch_routed(plan, platform, RestoreRoute::origin_only(transport), sealed, seed)
    }

    /// [`Self::launch_planned`] with a [`RestoreRoute`]: the origin server
    /// plus an optional local delegate. The returned app can then
    /// [`LaunchedApp::restore_delegated`] against the delegate, falling
    /// back to a plain [`LaunchedApp::restore`] (origin) on any failure —
    /// same runtime, no relaunch.
    ///
    /// # Errors
    ///
    /// Propagates load/`EINIT` failures.
    pub fn launch_routed(
        &self,
        plan: &ImagePlan,
        platform: &Platform,
        route: RestoreRoute,
        sealed: SealedStore,
        seed: u64,
    ) -> Result<LaunchedApp, ElideError> {
        let loaded = plan.load(&platform.cpu, &self.sigstruct)?;
        let runtime = EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(seed)));
        Ok(LaunchedApp::attach(runtime, route, Arc::clone(&platform.qe), self.files(sealed)))
    }

    /// Warm start: relaunches a previously provisioned enclave from its
    /// sealed blob, with **no server behind it** — the restore must take
    /// the sealed fast path (decrypt under `EGETKEY`), skipping the
    /// DH+attestation round-trip entirely. Pair with
    /// [`LaunchedApp::restore`]: a restore that tries to reach the server
    /// fails with a transport error rather than silently re-handshaking.
    ///
    /// # Errors
    ///
    /// * [`ElideError::NoSealedState`] — the store holds no blob (the
    ///   enclave was never provisioned on this host).
    /// * Load/`EINIT` failures as in [`Self::launch`].
    pub fn warm_start(
        &self,
        plan: &ImagePlan,
        platform: &Platform,
        sealed: SealedStore,
        seed: u64,
    ) -> Result<LaunchedApp, ElideError> {
        if sealed.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_none() {
            return Err(ElideError::NoSealedState);
        }
        let transport: Arc<Mutex<dyn Transport + Send>> =
            Arc::new(Mutex::new(crate::protocol::OfflineTransport));
        self.launch_planned(plan, platform, transport, sealed, seed)
    }
}

/// A launched (sanitized) enclave with the SgxElide ocalls installed.
#[derive(Debug)]
pub struct LaunchedApp {
    /// The underlying enclave runtime; use it for application ecalls.
    pub runtime: EnclaveRuntime,
    /// Records the underlying host-side error behind a failed restore.
    errors: ErrorSink,
    /// Arms delegate routing for the duration of a delegated restore.
    delegation: DelegationSwitch,
}

impl LaunchedApp {
    /// Wires the SgxElide ocalls into a runtime the caller loaded itself
    /// (e.g. a CLI host with its own RNG): server requests follow `route`,
    /// handshakes are quoted by `qe`, and `files` backs the file ocalls.
    pub fn attach(
        mut runtime: EnclaveRuntime,
        route: RestoreRoute,
        qe: Arc<QuotingEnclave>,
        files: ElideFiles,
    ) -> LaunchedApp {
        let (errors, delegation) = restore::install_ocalls(&mut runtime, route, qe, files);
        LaunchedApp { runtime, errors, delegation }
    }

    /// Restores the enclave's secret code (the one developer-visible call).
    ///
    /// # Errors
    ///
    /// The underlying host-side cause when the ocalls recorded one (a
    /// [`ElideError::Transport`] or [`ElideError::Server`] error), else
    /// [`ElideError::RestoreFailed`] with the guest status, or
    /// [`ElideError::Enclave`] when the ecall faulted.
    pub fn restore(&mut self, restore_ecall_index: u64) -> Result<RestoreStats, ElideError> {
        self.restore_with_retry(restore_ecall_index, &RetryPolicy::none())
    }

    /// [`Self::restore`] with client-side retries and exponential backoff
    /// for transient failures ([`restore::is_transient`]); authentication
    /// rejections fail on the first attempt.
    ///
    /// # Errors
    ///
    /// The last attempt's error, as for [`Self::restore`].
    pub fn restore_with_retry(
        &mut self,
        restore_ecall_index: u64,
        policy: &RetryPolicy,
    ) -> Result<RestoreStats, ElideError> {
        restore::restore(
            &mut self.runtime,
            restore_ecall_index,
            None,
            policy,
            &self.errors,
            &self.delegation,
        )
    }

    /// Restores through a local delegate instead of the origin server: the
    /// guest attests to `delegate_mrenclave` and the routed ocalls forward
    /// the peer attestation to the delegate transport the app was launched
    /// with ([`ProtectedPackage::launch_routed`]). Any failure leaves the
    /// enclave sanitized; the caller can fall back to [`Self::restore`].
    ///
    /// # Errors
    ///
    /// As for [`Self::restore`]; with no delegate routed, the quoting
    /// enclave refuses the targeted report ([`ElideError::Transport`]).
    pub fn restore_delegated(
        &mut self,
        restore_ecall_index: u64,
        delegate_mrenclave: &[u8; 32],
    ) -> Result<RestoreStats, ElideError> {
        restore::restore(
            &mut self.runtime,
            restore_ecall_index,
            Some(delegate_mrenclave),
            &RetryPolicy::none(),
            &self.errors,
            &self.delegation,
        )
    }
}
