//! Concurrency: one authentication server provisioning several enclaves at
//! once over TCP, each connection with its own attested session.
//!
//! The acceptance bar for the layered service: a single [`AuthServer`]
//! backed by an MRENCLAVE-keyed [`SecretStore`] must concurrently serve
//! two *different* sanitized enclaves to eight parallel clients each, and
//! every client must end up with a byte-identical copy of its original
//! `.text` section.

use sgxelide::core::api::{protect, Mode, Platform, ProtectedPackage};
use sgxelide::core::client::ProvisionClient;
use sgxelide::core::elide_asm::{request, ELIDE_ASM};
use sgxelide::core::error::ElideError;
use sgxelide::core::meta::SecretMeta;
use sgxelide::core::protocol::{decrypt_msg, TcpTransport};
use sgxelide::core::restore::new_sealed_store;
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::core::server::{AuthServer, ExpectedIdentity};
use sgxelide::core::service::{serve, ServiceConfig};
use sgxelide::core::store::{SecretEntry, SecretStore};
use sgxelide::core::transport::tcp::TcpAcceptor;
use sgxelide::core::transport::{Framed, Limits};
use sgxelide::crypto::dh::DhKeyPair;
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::crypto::rsa::RsaKeyPair;
use sgxelide::crypto::sha2::Sha256;
use sgxelide::elf::parse::ElfFile;
use sgxelide::enclave::image::EnclaveImageBuilder;
use sgxelide::sgx::enclave::{AccessKind, Enclave};
use sgxelide::sgx::epc::{PagePerms, PageType};
use sgxelide::sgx::quote::{AttestationService, QE_MEASUREMENT};
use sgxelide::sgx::report::{ereport, TargetInfo};
use sgxelide::sgx::sigstruct::SigStruct;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};

/// Builds an enclave exposing one secret ecall per `(name, ret)` pair.
/// Tenants with different numbers of functions have different image
/// layouts, hence different sanitized measurements.
fn build_image(fns: &[(&str, u64)]) -> Vec<u8> {
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM);
    for (fn_name, ret) in fns {
        b.source(&format!(
            ".section text\n.global {fn_name}\n.func {fn_name}\n    movi r0, {ret}\n    ret\n.endfunc\n"
        ));
        b.ecall(fn_name);
    }
    b.ecall("elide_restore");
    b.build().unwrap()
}

struct Tenant {
    package: Arc<ProtectedPackage>,
    /// The pre-sanitization image (ground truth for `.text`).
    original: Vec<u8>,
    /// Ecall index of `elide_restore`.
    restore_index: u64,
    answer: u64,
}

fn protect_tenant(fns: &[(&str, u64)], seed: u64) -> Tenant {
    let original = build_image(fns);
    let mut rng = SeededRandom::new(seed);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = Arc::new(
        protect(&original, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap(),
    );
    Tenant { package, original, restore_index: fns.len() as u64, answer: fns[0].1 }
}

#[test]
fn one_server_provisions_two_enclaves_to_parallel_clients() {
    const CLIENTS_PER_TENANT: usize = 8;

    let tenants = [
        Arc::new(protect_tenant(&[("alpha_secret", 77)], 0xC0C0)),
        Arc::new(protect_tenant(&[("beta_secret", 99), ("beta_helper", 3)], 0xC0C1)),
    ];
    assert_ne!(
        tenants[0].package.mrenclave, tenants[1].package.mrenclave,
        "distinct enclaves must have distinct measurements"
    );

    // All clients run on the same (trusted) platform model; the server
    // trusts that platform's quoting enclave.
    let mut rng = SeededRandom::new(0xC0C2);
    let mut ias = AttestationService::new();
    let platform = Arc::new(Platform::provision(&mut rng, &mut ias));

    // One store, one server: each tenant's entry is pinned to its
    // sanitized measurement.
    let mut store = SecretStore::new();
    for t in &tenants {
        store.insert(SecretEntry {
            name: format!("tenant-{}", t.answer),
            meta: t.package.meta.clone(),
            data: t.package.server_data.clone(),
            expected: ExpectedIdentity {
                mrenclave: Some(t.package.mrenclave),
                mrsigner: t.package.sigstruct.mrsigner().ok(),
            },
        });
    }
    let server = Arc::new(AuthServer::with_store(store, ias));

    let total = CLIENTS_PER_TENANT * tenants.len();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap().to_string();
    let handle = serve(
        acceptor,
        Arc::clone(&server),
        ServiceConfig::default().with_workers(4).with_max_connections(Some(total)),
    );

    let mut clients = Vec::new();
    for (t_idx, tenant) in tenants.iter().enumerate() {
        for i in 0..CLIENTS_PER_TENANT {
            let tenant = Arc::clone(tenant);
            let platform = Arc::clone(&platform);
            let addr = addr.clone();
            clients.push(std::thread::spawn(move || {
                let transport =
                    Arc::new(Mutex::new(TcpTransport::connect(&addr).expect("connect")));
                let seed = 0xC1 + (t_idx * CLIENTS_PER_TENANT + i) as u64;
                let mut app = tenant
                    .package
                    .launch(&platform, transport, new_sealed_store(), seed)
                    .expect("launch");
                app.restore(tenant.restore_index).expect("restore");
                assert_eq!(app.runtime.ecall(0, &[], 0).expect("ecall").status, tenant.answer);

                // Byte-identical `.text`: the restored enclave memory must
                // equal the original (pre-sanitization) image's section.
                let elf = ElfFile::parse(tenant.original.clone()).expect("parse original");
                let text = elf.section_by_name(".text").expect(".text section");
                let original_text = elf.section_data(text).expect("section data").to_vec();
                let restored = app
                    .runtime
                    .enclave()
                    .read(text.sh_addr, original_text.len(), AccessKind::Read)
                    .expect("read restored text");
                assert_eq!(restored, original_text, "restored .text must be byte-identical");
            }));
        }
    }
    for c in clients {
        c.join().expect("client thread");
    }
    handle.join();
    assert_eq!(
        server.handshakes(),
        total as u64,
        "every client performed its own attested handshake"
    );
}

/// One platform and one initialized enclave that protocol-level clients
/// attest from (no enclave launch per client), plus a server whose store
/// releases `payload` to that enclave.
struct AttestingHost {
    platform: Platform,
    enclave: Enclave,
    server: Arc<AuthServer>,
}

impl AttestingHost {
    fn new(payload: &[u8]) -> Self {
        let mut rng = SeededRandom::new(0xD0D0);
        let mut ias = AttestationService::new();
        let platform = Platform::provision(&mut rng, &mut ias);
        let mut enclave = platform.cpu.ecreate(0x100000, 0x1000).unwrap();
        enclave.eadd(0x100000, &[3; 4096], PagePerms::RX, PageType::Reg).unwrap();
        for i in 0..16 {
            enclave.eextend(0x100000 + i * 256).unwrap();
        }
        let kp = RsaKeyPair::generate(512, &mut rng);
        let sig = SigStruct::sign(&kp, enclave.current_measurement().unwrap(), 1, 1).unwrap();
        enclave.einit(&sig).unwrap();

        let mut store = SecretStore::new();
        store.insert(SecretEntry {
            name: "bulk".into(),
            meta: SecretMeta {
                flags: 0,
                data_len: payload.len() as u64,
                text_len: payload.len() as u64,
                restore_offset: 0,
                key: [7; 16],
                iv: [8; 12],
                tag: [9; 16],
            },
            data: payload.to_vec(),
            expected: ExpectedIdentity { mrenclave: Some(enclave.mrenclave()), mrsigner: None },
        });
        let server = Arc::new(AuthServer::with_store(store, ias));
        AttestingHost { platform, enclave, server }
    }

    /// A real quote over `report_data` from the host's enclave.
    fn quote(&self, report_data: [u8; 64]) -> Result<Vec<u8>, ElideError> {
        let report = ereport(&self.enclave, &TargetInfo { mrenclave: QE_MEASUREMENT }, report_data)
            .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
        let quote = self
            .platform
            .qe
            .quote(&report)
            .map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
        Ok(quote.to_bytes())
    }
}

/// Stress for the sharded event loop: many *protocol-level* clients (no
/// enclave launch each — one shared attesting enclave) hammer one
/// service, each running a full handshake, a data fetch, a ticket
/// request, and then a resumed relaunch on a second connection. Every
/// client opens its first connection and waits at a barrier before any
/// handshake, so all of them are held open at once.
///
/// The client count defaults low so debug runs stay quick; CI raises it
/// to 1,000 with `ELIDE_CONCURRENCY` on the release build (the acceptance
/// bar for the async provisioning plane). The clients' default read and
/// write timeouts turn a stalled shard into a failure.
#[test]
fn event_loop_serves_many_protocol_clients() {
    let clients: usize = std::env::var("ELIDE_CONCURRENCY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 8 } else { 64 });
    let payload = b"bulk secret".to_vec();
    let host = Arc::new(AttestingHost::new(&payload));
    let server = Arc::clone(&host.server);

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap().to_string();
    let handle = serve(
        acceptor,
        Arc::clone(&server),
        // Two connections per client (initial + resumed relaunch).
        ServiceConfig::default().with_workers(4).with_max_connections(Some(clients * 2)),
    );

    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let host = Arc::clone(&host);
            let addr = addr.clone();
            let payload = payload.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut quote_fn = |report_data: [u8; 64]| host.quote(report_data);
                let mut client = ProvisionClient::new();
                // Wait even if the connect failed, so no client hangs.
                let t1 = TcpTransport::connect(&addr);
                barrier.wait();
                let mut t1 = t1.expect("connect");
                client.full_handshake(&mut t1, &mut quote_fn).expect("handshake");
                assert_eq!(client.fetch_data(&mut t1).expect("data"), payload);
                client.request_ticket(&mut t1).expect("ticket");
                drop(t1);

                // Relaunch on a fresh connection: one-round-trip resume.
                let mut t2 = TcpTransport::connect(&addr).expect("reconnect");
                let (secret, fast) = client.try_resume(&mut t2, &mut quote_fn).expect("resume");
                assert!(fast, "fresh ticket must resume");
                assert_eq!(secret.data, payload);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    handle.join();

    assert_eq!(server.handshakes(), clients as u64, "one full handshake per client");
    assert_eq!(server.resumptions(), clients as u64, "one resumed session per client");
}

/// Process CPU time (user + system) from `/proc/self/stat`, or `None` off
/// Linux. The fields count `USER_HZ` ticks, which Linux fixes at 100 for
/// userspace on every mainstream architecture.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fields after it do not.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// What an idle server costs: `ELIDE_CONCURRENCY` (default 1,000) TCP
/// connections held open and silent on two shards for about 3 s, with
/// the process CPU time over the hold printed. It asserts nothing; it is
/// a reading to compare across commits:
///
/// ```text
/// ELIDE_CONCURRENCY=1000 cargo test --release --test concurrent_clients \
///     idle_hold_cpu -- --ignored --nocapture
/// ```
#[test]
#[ignore = "prints an idle-CPU reading; run with --ignored --nocapture"]
fn idle_hold_cpu() {
    if process_cpu_seconds().is_none() {
        eprintln!("idle_hold_cpu: skipped, no /proc/self/stat on this platform");
        return;
    }
    let conns: usize =
        std::env::var("ELIDE_CONCURRENCY").ok().and_then(|v| v.parse().ok()).unwrap_or(1000);
    let host = AttestingHost::new(b"idle");
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let handle =
        serve(acceptor, Arc::clone(&host.server), ServiceConfig::default().with_workers(2));
    let held: Vec<TcpStream> = (0..conns).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // Let the shards admit every connection before the hold starts.
    std::thread::sleep(std::time::Duration::from_millis(300));

    let hold = std::time::Duration::from_secs(3);
    let cpu_before = process_cpu_seconds().unwrap();
    let start = std::time::Instant::now();
    std::thread::sleep(hold);
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds().unwrap() - cpu_before;
    println!(
        "idle_hold_cpu: {conns} idle connections on 2 shards for {wall:.2} s: \
         {cpu:.2} CPU s ({:.0}% of one core)",
        100.0 * cpu / wall
    );
    drop(held);
    handle.shutdown();
}

/// A client may pipeline: a HANDSHAKE frame and a META frame written
/// together, before any response is read. The server must answer them in
/// order, and the META must see the session the handshake established —
/// never NoSession (status 4).
#[test]
fn pipelined_meta_behind_a_handshake_sees_the_session() {
    let host = AttestingHost::new(b"bulk secret");
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let handle = serve(
        acceptor,
        Arc::clone(&host.server),
        ServiceConfig::default().with_workers(1).with_max_connections(Some(1)),
    );

    let kp = DhKeyPair::generate(&mut SeededRandom::new(0xD1D1));
    let public = kp.public_bytes();
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&Sha256::digest(&public));
    let quote = host.quote(report_data).expect("quote");
    let mut handshake = (quote.len() as u32).to_le_bytes().to_vec();
    handshake.extend_from_slice(&quote);
    handshake.extend_from_slice(&public);

    // Both request frames leave in one write, before anything is read.
    let mut bytes = vec![request::HANDSHAKE as u8];
    bytes.extend_from_slice(&(handshake.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&handshake);
    bytes.push(request::META as u8);
    bytes.extend_from_slice(&0u32.to_le_bytes());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&bytes).unwrap();

    let mut framed = Framed::new(stream, Limits::default()).unwrap();
    let (status, server_pub) = framed.recv().unwrap().expect("handshake response");
    assert_eq!(status, 0, "handshake must succeed");
    let (status, sealed_meta) = framed.recv().unwrap().expect("meta response");
    assert_ne!(status, 4, "META pipelined behind the handshake got NoSession");
    assert_eq!(status, 0, "META must succeed");
    let key = kp.derive_session_key(&server_pub).expect("server DH value");
    let meta = decrypt_msg(&key, &sealed_meta).expect("META sealed under the new session");
    assert_eq!(SecretMeta::from_body(&meta).expect("meta body").data_len, 11);
    drop(framed);
    handle.join();
}
