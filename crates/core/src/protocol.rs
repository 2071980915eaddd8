//! The client/server protocol (§5): single-byte requests, length-prefixed
//! frames, AES-GCM channel encryption after the attested handshake.
//!
//! This module is the *client* half plus the shared message crypto; the
//! server half is [`crate::session::Session::handle`], which answers every
//! request. [`TcpTransport`] reaches it through the [`crate::service`]
//! shard loop over real frames; [`InProcessTransport`] calls it directly.

use crate::error::{ElideError, ServerError};
use crate::server::AuthServer;
use crate::session::Session;
use crate::transport::{BoxedWire, Framed, Limits};
use elide_crypto::gcm::AesGcm;
use elide_crypto::rng::RandomSource;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Channel message overhead: 12-byte IV + 16-byte tag.
pub const CHANNEL_OVERHEAD: usize = 28;

/// Seals a channel message as `[iv 12][ct][tag 16]` under an explicit IV
/// (the session layer derives IVs from its sequence counter).
pub fn seal_msg(key: &[u8; 16], iv: &[u8; 12], plaintext: &[u8]) -> Vec<u8> {
    seal_msg_with(&AesGcm::new(key).expect("16-byte key"), iv, plaintext)
}

/// Seals a channel message under an already-expanded cipher context.
///
/// [`crate::session::Session`] builds its [`AesGcm`] once per handshake and
/// reuses it here, so per-message cost is the GCM pass alone — no AES key
/// expansion or GHASH table derivation on the hot path.
pub fn seal_msg_with(gcm: &AesGcm, iv: &[u8; 12], plaintext: &[u8]) -> Vec<u8> {
    let (ct, tag) = gcm.seal(iv, &[], plaintext);
    let mut out = Vec::with_capacity(CHANNEL_OVERHEAD + ct.len());
    out.extend_from_slice(iv);
    out.extend_from_slice(&ct);
    out.extend_from_slice(&tag);
    out
}

/// Encrypts a channel message as `[iv 12][ct][tag 16]` with a random IV.
pub fn encrypt_msg(key: &[u8; 16], plaintext: &[u8], rng: &mut dyn RandomSource) -> Vec<u8> {
    let mut iv = [0u8; 12];
    rng.fill(&mut iv);
    seal_msg(key, &iv, plaintext)
}

/// Decrypts a channel message produced by [`seal_msg`]/[`encrypt_msg`].
///
/// # Errors
///
/// Returns [`ElideError::Transport`] on truncated or unauthentic messages.
pub fn decrypt_msg(key: &[u8; 16], msg: &[u8]) -> Result<Vec<u8>, ElideError> {
    if msg.len() < CHANNEL_OVERHEAD {
        return Err(ElideError::Transport("channel message too short".into()));
    }
    let gcm = AesGcm::new(key).expect("16-byte key");
    let iv: [u8; 12] = msg[..12].try_into().expect("12 bytes");
    let tag: [u8; 16] = msg[msg.len() - 16..].try_into().expect("16 bytes");
    gcm.open(&iv, &[], &msg[12..msg.len() - 16], &tag)
        .map_err(|_| ElideError::Transport("channel authentication failed".into()))
}

/// Client-side transport to the authentication server.
pub trait Transport {
    /// Sends request type `req` with `payload`, returning the response.
    ///
    /// # Errors
    ///
    /// Returns [`ElideError::Server`] for server-reported failures and
    /// [`ElideError::Transport`] for connection problems.
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError>;
}

impl Transport for Box<dyn Transport + Send> {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        (**self).request(req, payload)
    }
}

/// Status byte for success.
pub(crate) const STATUS_OK: u8 = 0;

pub(crate) fn server_error_to_status(e: &ServerError) -> u8 {
    match e {
        ServerError::AttestationFailed => 1,
        ServerError::WrongEnclave => 2,
        ServerError::BadBinding => 3,
        ServerError::NoSession => 4,
        ServerError::BadRequest => 5,
        ServerError::UnknownRequest(_) => 6,
        ServerError::Internal => 7,
        ServerError::TicketRejected => 8,
        ServerError::DelegationRejected => 9,
    }
}

pub(crate) fn status_to_server_error(status: u8) -> ServerError {
    match status {
        1 => ServerError::AttestationFailed,
        2 => ServerError::WrongEnclave,
        3 => ServerError::BadBinding,
        4 => ServerError::NoSession,
        5 => ServerError::BadRequest,
        7 => ServerError::Internal,
        8 => ServerError::TicketRejected,
        9 => ServerError::DelegationRejected,
        other => ServerError::UnknownRequest(other),
    }
}

/// The one client-side request loop: a [`Framed`] codec over any wire.
/// [`TcpTransport`] wraps it; a test can run it over any [`BoxedWire`].
#[derive(Debug)]
pub struct FramedTransport {
    framed: Framed<BoxedWire>,
}

impl FramedTransport {
    /// Wraps an already-connected wire.
    ///
    /// # Errors
    ///
    /// Returns [`ElideError::Transport`] if limits cannot be applied.
    pub fn new(wire: BoxedWire, limits: Limits) -> Result<Self, ElideError> {
        let framed = Framed::new(wire, limits)
            .map_err(|e| ElideError::Transport(format!("configure connection: {e}")))?;
        Ok(FramedTransport { framed })
    }
}

impl Transport for FramedTransport {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        self.framed.send(req, payload).map_err(|e| ElideError::Transport(format!("send: {e}")))?;
        let (status, body) = self
            .framed
            .recv()
            .map_err(|e| ElideError::Transport(format!("recv: {e}")))?
            .ok_or_else(|| ElideError::Transport("server closed the connection".into()))?;
        if status == STATUS_OK {
            Ok(body)
        } else {
            Err(ElideError::Server(status_to_server_error(status)))
        }
    }
}

/// TCP transport to an [`AuthServer`] served by [`crate::service::serve`].
#[derive(Debug)]
pub struct TcpTransport {
    inner: FramedTransport,
}

impl TcpTransport {
    /// Connects to `addr` (e.g. `"127.0.0.1:7788"`) with default limits.
    ///
    /// # Errors
    ///
    /// Returns [`ElideError::Transport`] if the connection fails.
    pub fn connect(addr: &str) -> Result<Self, ElideError> {
        Self::connect_with(addr, Limits::default())
    }

    /// Connects with explicit wire limits.
    ///
    /// # Errors
    ///
    /// Returns [`ElideError::Transport`] if the connection fails.
    pub fn connect_with(addr: &str, limits: Limits) -> Result<Self, ElideError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ElideError::Transport(format!("connect {addr}: {e}")))?;
        Ok(TcpTransport { inner: FramedTransport::new(Box::new(stream), limits)? })
    }

    /// Connects with retries and exponential backoff: the service-layer
    /// client policy for servers that are still starting up.
    ///
    /// # Errors
    ///
    /// Returns the last connect error once attempts are exhausted.
    pub fn connect_with_retry(
        addr: &str,
        limits: Limits,
        policy: &crate::restore::RetryPolicy,
    ) -> Result<Self, ElideError> {
        let mut last = None;
        for delay in policy.delays() {
            match Self::connect_with(addr, limits) {
                Ok(t) => return Ok(t),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(delay);
                }
            }
        }
        match Self::connect_with(addr, limits) {
            Ok(t) => Ok(t),
            Err(e) => Err(last.unwrap_or(e)),
        }
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        self.inner.request(req, payload)
    }
}

/// In-process transport: a private [`Session`] on `server`, answered by
/// calling [`Session::handle`] directly — no pipe, no thread. Errors take
/// the same status-byte round trip as on the wire, so an in-process client
/// sees exactly the [`ServerError`] a TCP client sees.
#[derive(Debug)]
pub struct InProcessTransport {
    server: Arc<AuthServer>,
    session: Session,
}

impl InProcessTransport {
    /// Opens a fresh in-process session to `server`.
    pub fn new(server: Arc<AuthServer>) -> Self {
        let session = server.new_session();
        InProcessTransport { server, session }
    }
}

impl Transport for InProcessTransport {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        self.session
            .handle(&self.server, req, payload)
            .map_err(|e| ElideError::Server(status_to_server_error(server_error_to_status(&e))))
    }
}

/// A transport with no server behind it: every request fails.
///
/// Warm starts restore from the sealed blob alone, so they wire the
/// enclave against this — any attempt to reach the authentication server
/// (i.e. the sealed fast path NOT being taken) fails loudly instead of
/// silently re-running the DH+attestation round-trip.
#[derive(Debug, Default, Clone, Copy)]
pub struct OfflineTransport;

impl Transport for OfflineTransport {
    fn request(&mut self, _req: u8, _payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        Err(ElideError::Transport("offline warm start: no server available".into()))
    }
}

/// A `Duration` helper: exponential backoff series for retry loops.
pub(crate) fn backoff_series(initial: Duration, max: Duration, attempts: u32) -> Vec<Duration> {
    let mut out = Vec::with_capacity(attempts as usize);
    let mut d = initial;
    for _ in 0..attempts {
        out.push(d.min(max));
        d = d.checked_mul(2).unwrap_or(max).min(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::SecretMeta;
    use crate::server::ExpectedIdentity;
    use elide_crypto::rng::SeededRandom;
    use sgx_sim::quote::AttestationService;

    #[test]
    fn channel_roundtrip() {
        let key = [5u8; 16];
        let mut rng = SeededRandom::new(1);
        let msg = encrypt_msg(&key, b"the secret text section", &mut rng);
        assert_eq!(msg.len(), b"the secret text section".len() + CHANNEL_OVERHEAD);
        assert_eq!(decrypt_msg(&key, &msg).unwrap(), b"the secret text section");
    }

    #[test]
    fn sealed_iv_is_recoverable() {
        let key = [5u8; 16];
        let iv = [9u8; 12];
        let msg = seal_msg(&key, &iv, b"payload");
        assert_eq!(&msg[..12], &iv);
        assert_eq!(decrypt_msg(&key, &msg).unwrap(), b"payload");
    }

    #[test]
    fn channel_rejects_wrong_key_and_tamper() {
        let mut rng = SeededRandom::new(1);
        let msg = encrypt_msg(&[5u8; 16], b"data", &mut rng);
        assert!(decrypt_msg(&[6u8; 16], &msg).is_err());
        let mut bad = msg.clone();
        bad[13] ^= 1;
        assert!(decrypt_msg(&[5u8; 16], &bad).is_err());
        assert!(decrypt_msg(&[5u8; 16], &msg[..20]).is_err());
    }

    #[test]
    fn status_mapping_roundtrip() {
        for e in [
            ServerError::AttestationFailed,
            ServerError::WrongEnclave,
            ServerError::BadBinding,
            ServerError::NoSession,
            ServerError::BadRequest,
            ServerError::Internal,
            ServerError::TicketRejected,
            ServerError::DelegationRejected,
        ] {
            assert_eq!(status_to_server_error(server_error_to_status(&e)), e);
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let s = backoff_series(Duration::from_millis(10), Duration::from_millis(50), 4);
        assert_eq!(
            s,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(50),
            ]
        );
    }

    #[test]
    fn in_process_transport_reports_wire_errors() {
        let meta = SecretMeta {
            flags: 0,
            data_len: 4,
            text_len: 4,
            restore_offset: 0,
            key: [1; 16],
            iv: [2; 12],
            tag: [3; 16],
        };
        let server = Arc::new(
            AuthServer::new(
                meta,
                b"data".to_vec(),
                ExpectedIdentity::default(),
                AttestationService::new(),
            )
            .with_rng(Box::new(SeededRandom::new(1))),
        );
        let mut t = InProcessTransport::new(Arc::clone(&server));
        assert_eq!(t.request(1, &[]), Err(ElideError::Server(ServerError::NoSession)));
        // The wire carries only the status code, so the offending request
        // byte is not recoverable client-side: TCP clients see status 6 as
        // UnknownRequest(6), and so do in-process ones.
        assert_eq!(t.request(9, &[]), Err(ElideError::Server(ServerError::UnknownRequest(6))));
    }
}
