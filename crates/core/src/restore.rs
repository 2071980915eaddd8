//! The untrusted half of the Runtime Restorer: the `elide_server_request`,
//! `elide_read_file` and `elide_write_file` ocalls (§3.4: "the ocalls are
//! automatically called by our library"), and the one host-side path that
//! invokes the `elide_restore` ecall.
//!
//! Developers never call into this module directly: a
//! [`crate::api::LaunchedApp`] installs the ocalls when it is launched or
//! attached, and its `restore*` methods all forward to the single private
//! restore routine here — which clears stale diagnostics, arms delegation
//! only for targeted restores, maps the guest status, lets the recorded
//! host-side cause replace the guest's coarse status, and retries by
//! [`RetryPolicy`] using [`is_transient`].

use crate::elide_asm::{request, OCALL_READ_FILE, OCALL_SERVER_REQUEST, OCALL_WRITE_FILE};
use crate::error::ElideError;
use crate::protocol::Transport;
use elide_enclave::runtime::EnclaveRuntime;
use sgx_sim::quote::QuotingEnclave;
use sgx_sim::report::Report;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared, persistent store for the sealed blob (stands in for the file the
/// paper's step ❼ writes to disk; persists across enclave launches).
pub type SealedStore = Arc<Mutex<Option<Vec<u8>>>>;

/// Side-channel for the *underlying* host error behind a restore failure.
///
/// The ocall ABI can only hand the guest `-1`, which the guest folds into a
/// coarse restore status — losing whether the failure was a timeout, an
/// authentication rejection, or a server-side fault. The ocalls record the
/// last host-side error here so the restore can report it instead.
pub(crate) type ErrorSink = Arc<Mutex<Option<ElideError>>>;

/// Arms delegated provisioning on a routed runtime: while armed (and a
/// delegate is routed), the guest's `HANDSHAKE` ocall is forwarded to the
/// delegate as a peer attestation instead of being quoted to the origin.
pub(crate) type DelegationSwitch = Arc<AtomicBool>;

fn record(sink: &ErrorSink, err: ElideError) {
    *sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(err);
}

fn take(sink: &ErrorSink) -> Option<ElideError> {
    sink.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// Locks a server transport for one request. A transport poisoned by a
/// panic elsewhere may hold a half-written frame, so it is not reused: the
/// request fails closed with a transport error the restore reports.
fn lock_transport<'a>(
    transport: &'a Mutex<dyn Transport + Send + 'static>,
    which: &str,
) -> Result<MutexGuard<'a, dyn Transport + Send + 'static>, ElideError> {
    transport.lock().map_err(|_| ElideError::Transport(format!("{which} transport lock poisoned")))
}

/// Creates an empty sealed store.
pub fn new_sealed_store() -> SealedStore {
    Arc::new(Mutex::new(None))
}

/// Host-side files available to the enclave's ocalls.
#[derive(Debug, Clone)]
pub struct ElideFiles {
    /// `enclave.secret.data` shipped next to the enclave (local mode).
    pub data_file: Option<Vec<u8>>,
    /// The sealed blob store.
    pub sealed: SealedStore,
}

/// Where a routed restore's server requests go: the origin authentication
/// server, plus (optionally) a local delegate enclave's peer transport.
#[derive(Clone)]
pub struct RestoreRoute {
    /// The origin server (always required — delegate failures fall back).
    pub origin: Arc<Mutex<dyn Transport + Send>>,
    /// A local delegate, spoken to with `PEER_ATTEST`-style payloads when
    /// the delegation switch is armed.
    pub delegate: Option<Arc<Mutex<dyn Transport + Send>>>,
}

impl std::fmt::Debug for RestoreRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RestoreRoute").field("delegate", &self.delegate.is_some()).finish()
    }
}

impl RestoreRoute {
    /// A route with no delegate: every request goes to the origin.
    pub fn origin_only(origin: Arc<Mutex<dyn Transport + Send>>) -> Self {
        RestoreRoute { origin, delegate: None }
    }
}

/// Installs the three SgxElide ocalls into an enclave runtime.
///
/// The `elide_server_request` handler converts the enclave's
/// local-attestation report into a quote via the platform quoting enclave
/// before forwarding the handshake — the host-side leg of remote
/// attestation. Every failure reaches the guest as `-1`; the underlying
/// host-side error is kept in the returned [`ErrorSink`].
///
/// While the returned [`DelegationSwitch`] is armed and the route has a
/// delegate, the guest's `HANDSHAKE` — whose payload is the raw
/// `[report 160][dh_pub]`, with the report targeted at the *delegate's*
/// MRENCLAVE by the targeted restore ecall — is forwarded to the delegate
/// verbatim (such a report cannot be quoted: the quoting enclave refuses
/// reports not targeted at itself). Follow-up requests of the same restore
/// stay on the delegate. Disarmed, the classic quote-to-origin path runs
/// unchanged, so one runtime can fall back without relaunching.
pub(crate) fn install_ocalls(
    rt: &mut EnclaveRuntime,
    route: RestoreRoute,
    qe: Arc<QuotingEnclave>,
    files: ElideFiles,
) -> (ErrorSink, DelegationSwitch) {
    let sink: ErrorSink = Arc::new(Mutex::new(None));
    let armed: DelegationSwitch = Arc::new(AtomicBool::new(false));

    // --- elide_server_request ---
    let origin = Arc::clone(&route.origin);
    let delegate = route.delegate.clone();
    let armed_flag = Arc::clone(&armed);
    let errors = Arc::clone(&sink);
    // True between a delegate-served handshake and the next handshake (or
    // a disarm): the guest's follow-up META/DATA belong to the delegate's
    // channel, not the origin's.
    let mut delegate_session = false;
    rt.register_ocall(
        OCALL_SERVER_REQUEST,
        Box::new(move |regs, mem| {
            let req = regs[1] as u8;
            let in_ptr = regs[2];
            let in_len = regs[3] as usize;
            let out_ptr = regs[4];
            let out_cap = regs[5] as usize;
            let delegate = delegate.as_ref().filter(|_| armed_flag.load(Ordering::SeqCst));
            if req as u64 == request::HANDSHAKE {
                delegate_session = false;
            }
            let result = (|| -> Result<Vec<u8>, ElideError> {
                let payload = if in_len > 0 { mem.read(in_ptr, in_len)? } else { Vec::new() };
                if req as u64 == request::HANDSHAKE {
                    if payload.len() <= Report::SERIALIZED_LEN {
                        return Err(ElideError::Transport("handshake payload too short".into()));
                    }
                    if let Some(delegate) = delegate {
                        // The report targets the delegate, not the quoting
                        // enclave: forward it raw as a peer attestation.
                        let body = lock_transport(delegate, "delegate")?
                            .request(request::PEER_ATTEST as u8, &payload)?;
                        delegate_session = true;
                        return Ok(body);
                    }
                    let report = Report::from_bytes(&payload[..Report::SERIALIZED_LEN])
                        .ok_or_else(|| ElideError::Transport("bad report".into()))?;
                    let quote = qe
                        .quote(&report)
                        .map_err(|e| ElideError::Transport(format!("quoting failed: {e}")))?;
                    let quote_bytes = quote.to_bytes();
                    let quote_len = u32::try_from(quote_bytes.len())
                        .map_err(|_| ElideError::Transport("quote too large for frame".into()))?;
                    let mut fwd = Vec::with_capacity(4 + quote_bytes.len() + payload.len() - 160);
                    fwd.extend_from_slice(&quote_len.to_le_bytes());
                    fwd.extend_from_slice(&quote_bytes);
                    fwd.extend_from_slice(&payload[Report::SERIALIZED_LEN..]);
                    lock_transport(&origin, "origin")?.request(req, &fwd)
                } else if let Some(delegate) = delegate.filter(|_| delegate_session) {
                    lock_transport(delegate, "delegate")?.request(req, &payload)
                } else {
                    lock_transport(&origin, "origin")?.request(req, &payload)
                }
            })();
            match result {
                Ok(body) if body.len() <= out_cap => {
                    mem.write(out_ptr, &body)?;
                    regs[0] = body.len() as u64;
                }
                // Failures surface to the guest as -1; it maps them to its
                // own status codes (network errors are the developer's to
                // handle, §3.4). The real error is kept for the host.
                Ok(body) => {
                    record(
                        &errors,
                        ElideError::Transport(format!(
                            "server response of {} bytes exceeds the guest's {out_cap}-byte buffer",
                            body.len()
                        )),
                    );
                    regs[0] = u64::MAX;
                }
                Err(e) => {
                    record(&errors, e);
                    regs[0] = u64::MAX;
                }
            }
            Ok(())
        }),
    );

    // The sealed store holds plain bytes with no invariant a panicking
    // holder could break, so a poisoned lock is recovered, not propagated.

    // --- elide_read_file ---
    let data_file = files.data_file.clone();
    let sealed = Arc::clone(&files.sealed);
    rt.register_ocall(
        OCALL_READ_FILE,
        Box::new(move |regs, mem| {
            let out_ptr = regs[4];
            let out_cap = regs[5] as usize;
            let contents: Option<Vec<u8>> = match regs[1] {
                0 => data_file.clone(),
                1 => sealed.lock().unwrap_or_else(PoisonError::into_inner).clone(),
                _ => None,
            };
            match contents {
                Some(bytes) if bytes.len() <= out_cap => {
                    mem.write(out_ptr, &bytes)?;
                    regs[0] = bytes.len() as u64;
                }
                _ => regs[0] = u64::MAX,
            }
            Ok(())
        }),
    );

    // --- elide_write_file ---
    let sealed = Arc::clone(&files.sealed);
    rt.register_ocall(
        OCALL_WRITE_FILE,
        Box::new(move |regs, mem| {
            if regs[1] == 1 {
                let bytes = mem.read(regs[2], regs[3] as usize)?;
                *sealed.lock().unwrap_or_else(PoisonError::into_inner) = Some(bytes);
                regs[0] = 0;
            } else {
                regs[0] = u64::MAX;
            }
            Ok(())
        }),
    );

    (sink, armed)
}

/// Statistics from one restoration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreStats {
    /// Instructions the enclave retired during `elide_restore`.
    pub instructions: u64,
}

/// Client-side retry policy: connect attempts and restore re-runs back
/// off exponentially (each delay doubles, capped at `max_delay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub retries: u32,
    /// Delay before the first retry.
    pub initial_delay: std::time::Duration,
    /// Upper bound on any single delay.
    pub max_delay: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            initial_delay: std::time::Duration::from_millis(50),
            max_delay: std::time::Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { retries: 0, ..Default::default() }
    }

    /// The backoff delays, one per retry.
    pub fn delays(&self) -> Vec<std::time::Duration> {
        crate::protocol::backoff_series(self.initial_delay, self.max_delay, self.retries)
    }
}

/// True when `err` is a failure a healthy server could later satisfy, so a
/// client retry is worthwhile. Authentication rejections
/// ([`ServerError::AttestationFailed`] / [`ServerError::WrongEnclave`] /
/// [`ServerError::BadBinding`]) are permanent: retrying would re-present
/// the same identity and fail the same way.
///
/// [`ServerError::AttestationFailed`]: crate::error::ServerError::AttestationFailed
/// [`ServerError::WrongEnclave`]: crate::error::ServerError::WrongEnclave
/// [`ServerError::BadBinding`]: crate::error::ServerError::BadBinding
pub fn is_transient(err: &ElideError) -> bool {
    use crate::elide_asm::restore_status;
    use crate::error::ServerError;
    match err {
        // Network trouble: the next attempt may reconnect.
        ElideError::Transport(_) => true,
        // Server-side internal fault (e.g. store I/O): explicitly retryable.
        // NoSession is transient too — a reconnect mid-restore lands the
        // next request on a fresh, unestablished session, and the retry's
        // re-handshake repairs that.
        ElideError::Server(ServerError::Internal | ServerError::NoSession) => true,
        ElideError::Server(_) => false,
        // Coarse guest statuses with no recorded cause.
        ElideError::RestoreFailed {
            status:
                restore_status::HANDSHAKE_FAILED
                | restore_status::META_FAILED
                | restore_status::DATA_FAILED,
        } => true,
        _ => false,
    }
}

/// The one restore path: invokes the `elide_restore` ecall (the single
/// call a developer adds, §3.4) on a runtime wired by [`install_ocalls`].
///
/// With a `target` MRENCLAVE the guest attests to that enclave (a local
/// delegate) instead of the quoting enclave, and `switch` routes the
/// handshake to the delegate for the duration of the call. Each attempt
/// starts with a cleared `sink`; a failure reports the host-side cause the
/// ocalls recorded, else the guest's status. Transient failures (see
/// [`is_transient`]) re-run the full restore after each backoff delay of
/// `policy`.
///
/// # Errors
///
/// The last attempt's error: a recorded [`ElideError::Transport`] /
/// [`ElideError::Server`] cause, an [`ElideError::RestoreFailed`] status
/// (see [`crate::elide_asm::restore_status`]), or [`ElideError::Enclave`]
/// when the ecall itself faulted.
pub(crate) fn restore(
    rt: &mut EnclaveRuntime,
    restore_ecall_index: u64,
    target: Option<&[u8; 32]>,
    policy: &RetryPolicy,
    sink: &ErrorSink,
    switch: &DelegationSwitch,
) -> Result<RestoreStats, ElideError> {
    let input: &[u8] = target.map_or(&[], |t| t.as_slice());
    switch.store(target.is_some(), Ordering::SeqCst);
    let mut attempt = || {
        let _ = take(sink); // clear stale errors from a previous attempt
        let failure = match rt.ecall(restore_ecall_index, input, 0) {
            Ok(r) if r.status == crate::elide_asm::restore_status::OK => {
                return Ok(RestoreStats { instructions: r.instructions });
            }
            Ok(r) => ElideError::RestoreFailed { status: r.status },
            Err(e) => e.into(),
        };
        Err(take(sink).unwrap_or(failure))
    };
    let mut result = attempt();
    for delay in policy.delays() {
        match &result {
            Err(e) if is_transient(e) => std::thread::sleep(delay),
            _ => break,
        }
        result = attempt();
    }
    switch.store(false, Ordering::SeqCst);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{protect, Mode, Platform, ProtectedPackage};
    use crate::elide_asm::ELIDE_ASM;
    use crate::protocol::InProcessTransport;
    use crate::sanitizer::DataPlacement;
    use elide_crypto::rng::SeededRandom;
    use elide_crypto::rsa::RsaKeyPair;
    use elide_enclave::image::EnclaveImageBuilder;
    use sgx_sim::quote::AttestationService;

    const SECRET: u64 = 0;
    const RESTORE: u64 = 1;

    fn setup(seed: u64) -> (ProtectedPackage, Platform, Arc<Mutex<dyn Transport + Send>>) {
        let mut b = EnclaveImageBuilder::new();
        b.source(ELIDE_ASM)
            .source(".section text\n.global s\n.func s\n    movi r0, 42\n    ret\n.endfunc\n")
            .ecall("s")
            .ecall("elide_restore");
        let image = b.build().unwrap();
        let mut rng = SeededRandom::new(seed);
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let package =
            protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
        let mut ias = AttestationService::new();
        let platform = Platform::provision(&mut rng, &mut ias);
        let server = Arc::new(package.make_server(ias));
        (package, platform, Arc::new(Mutex::new(InProcessTransport::new(server))))
    }

    /// Poisons `lock` the way a host thread panicking mid-request would.
    fn poison<T: ?Sized + Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = lock.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    #[test]
    fn poisoned_transport_fails_closed_with_a_transport_error() {
        let (package, platform, transport) = setup(0x9015);
        let mut app =
            package.launch(&platform, Arc::clone(&transport), new_sealed_store(), 1).unwrap();
        poison(&transport);
        let err = app.restore(RESTORE).unwrap_err();
        assert!(matches!(err, ElideError::Transport(_)), "{err:?}");
        assert!(app.runtime.ecall(SECRET, &[], 0).is_err(), "secret must stay unexecutable");
    }

    #[test]
    fn poisoned_sealed_store_still_warm_starts() {
        let (package, platform, transport) = setup(0x5EA1);
        let sealed = new_sealed_store();
        package
            .launch(&platform, transport, Arc::clone(&sealed), 2)
            .unwrap()
            .restore(RESTORE)
            .unwrap();
        poison(&sealed);
        let plan = package.image_plan().unwrap();
        let mut app = package.warm_start(&plan, &platform, sealed, 3).unwrap();
        app.restore(RESTORE).unwrap();
        assert_eq!(app.runtime.ecall(SECRET, &[], 0).unwrap().status, 42);
    }
}
