//! Integration tests spanning the whole stack: build → sanitize → sign →
//! load → attest → restore → run, over in-process and real TCP transports,
//! in whitelist and blacklist modes, with remote and local data.

use sgxelide::core::api::{protect, LaunchedApp, Mode, Platform};
use sgxelide::core::elide_asm::{restore_status, ELIDE_ASM};
use sgxelide::core::protocol::{InProcessTransport, TcpTransport};
use sgxelide::core::restore::{new_sealed_store, RestoreRoute};
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::core::service::{serve, ServiceConfig};
use sgxelide::core::transport::tcp::TcpAcceptor;
use sgxelide::core::{ElideError, ServerError};
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::crypto::rsa::RsaKeyPair;
use sgxelide::enclave::image::EnclaveImageBuilder;
use sgxelide::sgx::quote::AttestationService;
use std::sync::{Arc, Mutex};

/// A small enclave with two user functions; `get_answer` is the secret.
fn build_test_image() -> Vec<u8> {
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(
            ".section text\n\
             .global get_answer\n.func get_answer\n    movi r0, 42\n    ret\n.endfunc\n\
             .global double_input\n.func double_input\n    ld64 r0, [r2]\n    add r0, r0, r0\n    ret\n.endfunc\n",
        )
        .ecall("get_answer")
        .ecall("double_input")
        .ecall("elide_restore");
    b.build().unwrap()
}

const GET_ANSWER: u64 = 0;
const DOUBLE_INPUT: u64 = 1;
const ELIDE_RESTORE: u64 = 2;

fn setup(
    placement: DataPlacement,
    mode: Mode,
) -> (sgxelide::core::api::ProtectedPackage, Platform, Arc<sgxelide::core::server::AuthServer>) {
    let image = build_test_image();
    let mut rng = SeededRandom::new(0xE2E);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &mode, placement, &mut rng).unwrap();
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    (package, platform, server)
}

#[test]
fn whitelist_remote_full_flow() {
    let (package, platform, server) = setup(DataPlacement::Remote, Mode::Whitelist);
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut app = package.launch(&platform, transport, new_sealed_store(), 1).unwrap();

    // Before restore both user functions are dead.
    assert!(app.runtime.ecall(GET_ANSWER, &[], 0).is_err());
    assert!(app.runtime.ecall(DOUBLE_INPUT, &21u64.to_le_bytes(), 0).is_err());

    app.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(app.runtime.ecall(GET_ANSWER, &[], 0).unwrap().status, 42);
    assert_eq!(app.runtime.ecall(DOUBLE_INPUT, &21u64.to_le_bytes(), 0).unwrap().status, 42);
    assert!(server.handshakes() >= 1);
}

#[test]
fn whitelist_local_full_flow() {
    let (package, platform, server) = setup(DataPlacement::LocalEncrypted, Mode::Whitelist);
    assert!(!package.local_data_file.is_empty(), "local mode ships ciphertext");
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut app = package.launch(&platform, transport, new_sealed_store(), 2).unwrap();
    app.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(app.runtime.ecall(GET_ANSWER, &[], 0).unwrap().status, 42);
}

#[test]
fn blacklist_mode_full_flow() {
    // Only get_answer is annotated secret; double_input stays readable and
    // callable even before restore.
    let (package, platform, server) =
        setup(DataPlacement::Remote, Mode::Blacklist(vec!["get_answer".into()]));
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut app = package.launch(&platform, transport, new_sealed_store(), 3).unwrap();

    assert!(app.runtime.ecall(GET_ANSWER, &[], 0).is_err(), "secret fn dead");
    assert_eq!(
        app.runtime.ecall(DOUBLE_INPUT, &5u64.to_le_bytes(), 0).unwrap().status,
        10,
        "non-secret fn alive before restore in blacklist mode"
    );
    app.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(app.runtime.ecall(GET_ANSWER, &[], 0).unwrap().status, 42);
}

#[test]
fn blacklist_local_mode_full_flow() {
    let (package, platform, server) =
        setup(DataPlacement::LocalEncrypted, Mode::Blacklist(vec!["get_answer".into()]));
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut app = package.launch(&platform, transport, new_sealed_store(), 4).unwrap();
    app.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(app.runtime.ecall(GET_ANSWER, &[], 0).unwrap().status, 42);
}

#[test]
fn restore_over_real_tcp() {
    let (package, platform, server) = setup(DataPlacement::Remote, Mode::Whitelist);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let handle = serve(
        acceptor,
        Arc::clone(&server),
        ServiceConfig::default().with_max_connections(Some(1)),
    );

    let transport = Arc::new(Mutex::new(TcpTransport::connect(&addr.to_string()).unwrap()));
    let mut app = package.launch(&platform, transport, new_sealed_store(), 5).unwrap();
    app.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(app.runtime.ecall(GET_ANSWER, &[], 0).unwrap().status, 42);
    drop(app);
    handle.join();
}

#[test]
fn unreachable_server_is_denial_of_service_only() {
    // §3.1: "a remote enclave on an untrusted machine is inherently
    // vulnerable to denial-of-service". The enclave must fail closed.
    let (package, platform, _server) = setup(DataPlacement::Remote, Mode::Whitelist);
    struct DeadTransport;
    impl sgxelide::core::protocol::Transport for DeadTransport {
        fn request(&mut self, _req: u8, _payload: &[u8]) -> Result<Vec<u8>, ElideError> {
            Err(ElideError::Transport("connection refused".into()))
        }
    }
    let transport = Arc::new(Mutex::new(DeadTransport));
    let mut app = package.launch(&platform, transport, new_sealed_store(), 6).unwrap();
    let err = app.restore(ELIDE_RESTORE).unwrap_err();
    // The host sees the real transport failure, not the coarse status.
    assert_eq!(err, ElideError::Transport("connection refused".into()));
    // Secrets remain dead.
    assert!(app.runtime.ecall(GET_ANSWER, &[], 0).is_err());
}

#[test]
fn server_rejects_wrong_enclave() {
    // A *different* (attacker) enclave attests fine as itself but must not
    // receive this package's secrets.
    let (package, _platform, _server) = setup(DataPlacement::Remote, Mode::Whitelist);

    // Build an attacker package and point its client at the victim server.
    let mut rng = SeededRandom::new(0xBAD);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(".section text\n.global evil\n.func evil\n    movi r0, 666\n    ret\n.endfunc\n")
        .ecall("evil")
        .ecall("elide_restore");
    let evil_image = b.build().unwrap();
    let evil_package =
        protect(&evil_image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();

    // The victim's server (fresh IAS trusting the same platform).
    let mut ias = AttestationService::new();
    let platform2 = Platform::provision(&mut rng, &mut ias);
    let victim_server = Arc::new(package.make_server(ias));
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&victim_server))));

    let mut evil_app = evil_package.launch(&platform2, transport, new_sealed_store(), 7).unwrap();
    let err = evil_app.restore(1).unwrap_err();
    assert_eq!(
        err,
        ElideError::Server(sgxelide::core::error::ServerError::WrongEnclave),
        "server must reject the wrong MRENCLAVE during the handshake"
    );
    assert_eq!(victim_server.handshakes(), 0, "no session may have been established");
}

#[test]
fn tampered_local_data_rejected() {
    let (package, platform, server) = setup(DataPlacement::LocalEncrypted, Mode::Whitelist);
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    // Corrupt the shipped ciphertext.
    let mut tampered = package.files(new_sealed_store());
    if let Some(data) = &mut tampered.data_file {
        data[0] ^= 0xFF;
    }
    let loaded =
        sgxelide::enclave::loader::load_enclave(&platform.cpu, &package.image, &package.sigstruct)
            .unwrap();
    let rt = sgxelide::enclave::runtime::EnclaveRuntime::with_rng(
        loaded,
        Box::new(SeededRandom::new(8)),
    );
    let mut app = LaunchedApp::attach(
        rt,
        RestoreRoute::origin_only(transport),
        Arc::clone(&platform.qe),
        tampered,
    );
    let err = app.restore(ELIDE_RESTORE).unwrap_err();
    assert_eq!(err, ElideError::RestoreFailed { status: restore_status::DATA_AUTH_FAILED });
    assert!(app.runtime.ecall(GET_ANSWER, &[], 0).is_err(), "no partial restore on tamper");
}

#[test]
fn sealed_data_survives_relaunch_but_not_rebuild() {
    let (package, platform, server) = setup(DataPlacement::Remote, Mode::Whitelist);
    let sealed = new_sealed_store();
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut app =
        package.launch(&platform, Arc::clone(&transport) as _, Arc::clone(&sealed), 9).unwrap();
    app.restore(ELIDE_RESTORE).unwrap();
    let handshakes = server.handshakes();
    assert!(sealed.lock().unwrap().is_some());

    // Relaunch with the sealed blob: no server contact.
    let mut app2 = package.launch(&platform, transport, Arc::clone(&sealed), 10).unwrap();
    app2.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(app2.runtime.ecall(GET_ANSWER, &[], 0).unwrap().status, 42);
    assert_eq!(server.handshakes(), handshakes);
}

#[test]
fn sanitized_image_fails_einit_under_original_signature() {
    // The dummy-enclave signing discipline: the vendor signs the SANITIZED
    // measurement. Signing the original and loading the sanitized image
    // must fail EINIT.
    let image = build_test_image();
    let mut rng = SeededRandom::new(11);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let original_sig = sgxelide::enclave::loader::sign_enclave(&image, &vendor, 1, 1).unwrap();
    let package =
        protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
    let cpu = sgxelide::sgx::SgxCpu::new(&mut rng);
    let err =
        sgxelide::enclave::loader::load_enclave(&cpu, &package.image, &original_sig).unwrap_err();
    assert!(matches!(
        err,
        sgxelide::enclave::EnclaveError::Sgx(sgxelide::sgx::SgxError::MeasurementMismatch { .. })
    ));
}

#[test]
fn meta_and_data_require_attested_session() {
    let (_package, _platform, server) = setup(DataPlacement::Remote, Mode::Whitelist);
    let mut session = server.new_session();
    assert_eq!(session.handle(&server, 1, &[]), Err(ServerError::NoSession));
    assert_eq!(session.handle(&server, 2, &[]), Err(ServerError::NoSession));
}

#[test]
fn all_seven_benchmarks_restore_and_run() {
    use sgxelide::apps::harness::launch_protected;
    for app in sgxelide::apps::all_apps() {
        for placement in [DataPlacement::Remote, DataPlacement::LocalEncrypted] {
            let mut p = launch_protected(&app, placement, 0xA11).unwrap();
            p.restore().unwrap_or_else(|e| panic!("{} restore failed: {e}", app.name));
            let ops = sgxelide::apps::run_workload(app.name, &mut p.app.runtime, &p.indices);
            assert!(ops > 0, "{} workload ran", app.name);
        }
    }
}
