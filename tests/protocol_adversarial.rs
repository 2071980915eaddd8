//! Adversarial protocol tests: an active attacker on the untrusted host or
//! network. The paper's claim (§3.1) is that such an attacker achieves at
//! most denial of service — these tests pin that down.
//!
//! Every tamper scenario runs against *both* transports (in-process and
//! loopback TCP): the layered service serves them through the same
//! framing/session code, so the security argument must hold identically.

use sgxelide::apps::crackme;
use sgxelide::core::api::{protect, LaunchedApp, Mode, Platform};
use sgxelide::core::elide_asm::{request, restore_status, ELIDE_ASM};
use sgxelide::core::protocol::{InProcessTransport, TcpTransport, Transport};
use sgxelide::core::restore::{new_sealed_store, ElideFiles, RestoreRoute};
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::core::server::AuthServer;
use sgxelide::core::service::{serve, ServiceConfig};
use sgxelide::core::transport::tcp::TcpAcceptor;
use sgxelide::core::{ElideError, ServerError};
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::crypto::rsa::RsaKeyPair;
use sgxelide::enclave::image::EnclaveImageBuilder;
use sgxelide::sgx::quote::AttestationService;
use std::sync::{Arc, Mutex};

fn build_simple() -> Vec<u8> {
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(".section text\n.global s\n.func s\n    movi r0, 9\n    ret\n.endfunc\n")
        .ecall("s")
        .ecall("elide_restore");
    b.build().unwrap()
}

/// A transport wrapper that lets the attacker tamper with responses,
/// generic over the underlying transport.
struct Mitm<T: Transport, F: FnMut(u8, Vec<u8>) -> Vec<u8>> {
    inner: T,
    tamper: F,
}

impl<T: Transport, F: FnMut(u8, Vec<u8>) -> Vec<u8>> Transport for Mitm<T, F> {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        let resp = self.inner.request(req, payload)?;
        Ok((self.tamper)(req, resp))
    }
}

/// Which wire the attacker sits on.
#[derive(Clone, Copy, Debug)]
enum Wire {
    InProcess,
    Tcp,
}

const BOTH_WIRES: [Wire; 2] = [Wire::InProcess, Wire::Tcp];

/// Connects a client transport to `server` over the chosen wire. For TCP
/// a real service (acceptor + worker pool) is stood up; its threads exit
/// when the connection drops.
fn connect(server: &Arc<AuthServer>, wire: Wire) -> Box<dyn Transport + Send> {
    match wire {
        Wire::InProcess => Box::new(InProcessTransport::new(Arc::clone(server))),
        Wire::Tcp => {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
            let addr = acceptor.local_addr().unwrap().to_string();
            let _handle = serve(
                acceptor,
                Arc::clone(server),
                ServiceConfig::default().with_workers(1).with_max_connections(Some(1)),
            );
            Box::new(TcpTransport::connect(&addr).expect("connect"))
        }
    }
}

fn setup_mitm<F>(
    tamper: F,
    wire: Wire,
    seed: u64,
) -> (sgxelide::core::api::LaunchedApp, Arc<AuthServer>)
where
    F: FnMut(u8, Vec<u8>) -> Vec<u8> + Send + 'static,
{
    let image = build_simple();
    let mut rng = SeededRandom::new(seed);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package =
        protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    let transport = Arc::new(Mutex::new(Mitm { inner: connect(&server, wire), tamper }));
    let app = package.launch(&platform, transport, new_sealed_store(), seed ^ 5).unwrap();
    (app, server)
}

/// A MITM substituting its own DH public value for the server's: the
/// enclave derives a key the server never shares, so the metadata fails to
/// authenticate — denial of service, no secrets, no wrong code executed.
#[test]
fn mitm_key_substitution_is_dos_only() {
    for wire in BOTH_WIRES {
        let (mut app, _server) = setup_mitm(
            |req, mut resp| {
                if req as u64 == request::HANDSHAKE {
                    // Replace the server public value with garbage of the same
                    // length (a full MITM would use its own keypair; either
                    // way the enclave's channel key differs from the server's).
                    for b in resp.iter_mut() {
                        *b ^= 0xA5;
                    }
                }
                resp
            },
            wire,
            0x111,
        );
        let err = app.restore(1).unwrap_err();
        assert!(
            matches!(
                err,
                ElideError::RestoreFailed {
                    status: restore_status::META_FAILED | restore_status::BAD_SERVER_KEY
                }
            ),
            "{wire:?}: got {err:?}"
        );
        assert!(app.runtime.ecall(0, &[], 0).is_err(), "{wire:?}: secret must stay dead");
    }
}

/// Tampering with the encrypted META message on the wire is detected by
/// the channel's GCM tag.
#[test]
fn tampered_meta_message_rejected() {
    for wire in BOTH_WIRES {
        let (mut app, _server) = setup_mitm(
            |req, mut resp| {
                if req as u64 == request::META && !resp.is_empty() {
                    let mid = resp.len() / 2;
                    resp[mid] ^= 1;
                }
                resp
            },
            wire,
            0x222,
        );
        let err = app.restore(1).unwrap_err();
        assert_eq!(
            err,
            ElideError::RestoreFailed { status: restore_status::META_FAILED },
            "{wire:?}"
        );
    }
}

/// Tampering with the encrypted DATA message is likewise caught; no
/// partially-attacker-controlled code is ever written over the text.
#[test]
fn tampered_data_message_rejected() {
    for wire in BOTH_WIRES {
        let (mut app, _server) = setup_mitm(
            |req, mut resp| {
                if req as u64 == request::DATA && resp.len() > 40 {
                    resp[40] ^= 0xFF;
                }
                resp
            },
            wire,
            0x333,
        );
        let err = app.restore(1).unwrap_err();
        assert_eq!(
            err,
            ElideError::RestoreFailed { status: restore_status::DATA_AUTH_FAILED },
            "{wire:?}"
        );
        assert!(app.runtime.ecall(0, &[], 0).is_err(), "{wire:?}");
    }
}

/// Replaying a response captured from a previous session fails: each
/// handshake derives a fresh session key, so the stale ciphertext cannot
/// authenticate under the new key.
#[test]
fn replayed_previous_session_response_rejected() {
    for wire in BOTH_WIRES {
        // Capture the META response of a successful first restore.
        let captured: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        let cap = Arc::clone(&captured);
        let (mut app, _server) = setup_mitm(
            move |req, resp| {
                if req as u64 == request::META && cap.lock().unwrap().is_none() {
                    *cap.lock().unwrap() = Some(resp.clone());
                }
                resp
            },
            wire,
            0x444,
        );
        app.restore(1).unwrap();
        let stale = captured.lock().unwrap().clone().expect("captured META response");

        // Any later session derives a different channel key, under which
        // the stale ciphertext must not authenticate.
        let fresh_key = [0x5Au8; 16];
        assert!(
            sgxelide::core::protocol::decrypt_msg(&fresh_key, &stale).is_err(),
            "{wire:?}: stale blob must not decrypt under another session key"
        );
    }
}

/// In local mode the server refuses to stream the data (it only releases
/// the key via META), so a compromised host cannot use REQUEST_DATA to
/// exfiltrate plaintext — even on a connection whose session *is*
/// legitimately established.
#[test]
fn local_mode_server_refuses_data_requests() {
    for wire in BOTH_WIRES {
        let app = crackme::app();
        let image = app.build_elide_image().unwrap();
        let mut rng = SeededRandom::new(0x777);
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let package =
            protect(&image, &vendor, &Mode::Whitelist, DataPlacement::LocalEncrypted, &mut rng)
                .unwrap();
        let mut ias = AttestationService::new();
        let platform = Platform::provision(&mut rng, &mut ias);
        let server = Arc::new(package.make_server(ias));
        // Keep a handle on the connection so the attacker can reuse the
        // enclave's *own* established session after the restore.
        let transport = Arc::new(Mutex::new(connect(&server, wire)));
        let mut launched = package
            .launch(
                &platform,
                Arc::clone(&transport) as Arc<Mutex<dyn Transport + Send>>,
                new_sealed_store(),
                0x778,
            )
            .unwrap();
        let restore_index = app.protected_indices()["elide_restore"];
        launched
            .restore(restore_index)
            .unwrap_or_else(|e| panic!("{wire:?}: local-mode restore failed: {e}"));
        assert!(server.handshakes() >= 1, "{wire:?}: handshake must have happened");
        // The attacker pivots on the live session: DATA must be refused.
        let err = transport.lock().unwrap().request(request::DATA as u8, &[]).unwrap_err();
        assert_eq!(err, ElideError::Server(ServerError::BadRequest), "{wire:?}");
    }
}

/// A malicious host swapping the sealed blob for garbage forces the full
/// server path (fail-open to the *secure* path, never to broken state).
#[test]
fn garbage_sealed_blob_falls_back_to_server() {
    let image = build_simple();
    let mut rng = SeededRandom::new(0x888);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package =
        protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));

    let loaded =
        sgxelide::enclave::loader::load_enclave(&platform.cpu, &package.image, &package.sigstruct)
            .unwrap();
    let rt = sgxelide::enclave::runtime::EnclaveRuntime::with_rng(
        loaded,
        Box::new(SeededRandom::new(1)),
    );
    let sealed = Arc::new(Mutex::new(Some(vec![0xABu8; 333])));
    let mut app = LaunchedApp::attach(
        rt,
        RestoreRoute::origin_only(transport),
        Arc::clone(&platform.qe),
        ElideFiles { data_file: None, sealed: Arc::clone(&sealed) },
    );
    app.restore(1).unwrap();
    assert_eq!(app.runtime.ecall(0, &[], 0).unwrap().status, 9);
    assert!(server.handshakes() >= 1, "server path must have been used");
}
