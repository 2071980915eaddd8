//! Deterministic chaos: seeded fault-injection schedules over the full
//! SgxElide pipeline — launch → provision → restore → execute — plus
//! focussed chaos for the EPC paging path, the sanitizer, and the client
//! retry policy.
//!
//! Every schedule is replayable: `CHAOS_SEED=<n>` shifts the whole seed
//! set (CI runs the pinned default on every push plus one rotating seed
//! printed in the job log). The invariant under every schedule: an
//! injected fault may surface only as a typed [`ElideError`] or a clean
//! client-side retry — never a panic, a hang, a deadlocked worker, or a
//! "successfully" restored enclave running the wrong code.

use sgxelide::apps::harness::App;
use sgxelide::apps::{all_apps, run_workload};
use sgxelide::core::api::{protect, LaunchedApp, Mode, Platform, ProtectedPackage};
use sgxelide::core::client::ProvisionClient;
use sgxelide::core::delegation::{DelegateRegistry, DelegateServer, EcallReportVerifier};
use sgxelide::core::elide_asm::{request, ELIDE_ASM};
use sgxelide::core::error::ServerError;
use sgxelide::core::faults::{
    silence_injected_panics, FaultConfig, FaultPlan, FaultyListener, FaultyWire, PPM,
};
use sgxelide::core::protocol::{FramedTransport, InProcessTransport, Transport};
use sgxelide::core::restore::{new_sealed_store, RestoreRoute, RetryPolicy};
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::core::server::AuthServer;
use sgxelide::core::service::{serve, ServiceConfig, ServiceHandle};
use sgxelide::core::ticket::now_ms;
use sgxelide::core::transport::channel::channel_listener;
use sgxelide::core::transport::tcp::TcpAcceptor;
use sgxelide::core::transport::Limits;
use sgxelide::core::ElideError;
use sgxelide::crypto::rng::{FailingRandom, RandomSource, SeededRandom};
use sgxelide::crypto::rsa::RsaKeyPair;
use sgxelide::enclave::image::EnclaveImageBuilder;
use sgxelide::sgx::budget::EpcBudget;
use sgxelide::sgx::enclave::{AccessKind, SgxCpu};
use sgxelide::sgx::epc::{PagePerms, PageType};
use sgxelide::sgx::faults::{EpcFaultInjector, EwbTamper};
use sgxelide::sgx::paging::PagingManager;
use sgxelide::sgx::quote::{AttestationService, QE_MEASUREMENT};
use sgxelide::sgx::report::{ereport, TargetInfo};
use sgxelide::sgx::sigstruct::SigStruct;
use sgxelide::sgx::{Enclave, SgxError};
use sgxelide::vm::interp::Engine;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

/// The engine every launched app runs: `ELIDE_EXEC=interp` selects the
/// instruction-at-a-time interpreter (CI's second chaos pass); otherwise
/// the default superblock engine.
fn engine() -> Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    *ENGINE.get_or_init(|| match std::env::var("ELIDE_EXEC").as_deref() {
        Ok("interp") => Engine::Interp,
        _ => Engine::default(),
    })
}

/// Puts a freshly launched app on [`engine`] before its restore runs.
fn with_engine(mut app: LaunchedApp) -> LaunchedApp {
    app.runtime.set_engine(engine());
    app
}

/// Seeded schedules per (app, transport) cell. Three apps × two transports
/// × 17 = 102 schedules, over the ≥ 100 floor.
const SCHEDULES_PER_CELL: u64 = 17;

/// Base seed for the whole run; `CHAOS_SEED` rotates it.
fn base_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => {
            let seed: u64 = v.trim().parse().expect("CHAOS_SEED must be a u64");
            println!("chaos: CHAOS_SEED={seed}");
            seed
        }
        Err(_) => 0,
    }
}

/// Aborts the whole process if no schedule reports progress for two
/// minutes: a hang is a finding, and a killed test is how it surfaces.
fn watchdog(tag: &'static str) -> mpsc::Sender<String> {
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let mut last = String::from("startup");
        loop {
            match rx.recv_timeout(Duration::from_secs(120)) {
                Ok(mark) => last = mark,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    eprintln!("chaos[{tag}]: no progress for 120s after '{last}' — aborting");
                    std::process::abort();
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    });
    tx
}

/// One protected application plus the environment shared by all of its
/// schedules (the expensive protect/provision work happens once).
struct Cell {
    name: &'static str,
    package: ProtectedPackage,
    platform: Platform,
    server: Arc<AuthServer>,
    indices: HashMap<String, u64>,
}

fn build_cell(name: &'static str, image: &[u8], indices: HashMap<String, u64>, seed: u64) -> Cell {
    let mut rng = SeededRandom::new(seed);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
        .expect("protect");
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    Cell { name, package, platform, server, indices }
}

fn build_app_cell(app: &App, seed: u64) -> Cell {
    let image = app.build_elide_image().expect("build app image");
    build_cell(app.name, &image, app.protected_indices(), seed)
}

/// A one-ecall enclave for the focussed retry/store tests.
fn tiny_image() -> Vec<u8> {
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(
            ".section text\n.global get_answer\n.func get_answer\n    movi r0, 42\n    ret\n.endfunc\n",
        )
        .ecall("get_answer")
        .ecall("elide_restore");
    b.build().expect("assemble tiny image")
}

fn build_tiny_cell(seed: u64) -> Cell {
    let indices =
        HashMap::from([("get_answer".to_string(), 0u64), ("elide_restore".to_string(), 1u64)]);
    build_cell("tiny", &tiny_image(), indices, seed)
}

#[derive(Clone, Copy)]
enum Kind {
    Channel,
    Tcp,
}

/// Fault rates by schedule intensity: 0 is the fault-free control, then
/// mild wire noise, moderate wire noise plus a worker panic, and a severe
/// tier where every substrate misbehaves at once.
fn fault_configs(intensity: u64) -> (FaultConfig, FaultConfig) {
    match intensity {
        0 => (FaultConfig::off(), FaultConfig::off()),
        1 => (FaultConfig::wire(15_000), FaultConfig::off()),
        2 => (
            FaultConfig::wire(60_000),
            FaultConfig { worker_panic_ppm: 100_000, worker_panic_limit: 1, ..FaultConfig::off() },
        ),
        _ => (
            FaultConfig::wire(200_000),
            FaultConfig {
                worker_panic_ppm: 250_000,
                worker_panic_limit: 2,
                store_io_ppm: 120_000,
                ..FaultConfig::wire(60_000)
            },
        ),
    }
}

/// Client transport that redials the service when the wire dies — the
/// retry behaviour a real SgxElide host would implement. Server-reported
/// errors keep the connection; only transport failures drop it.
struct ReconnectingTransport {
    connect: Box<dyn FnMut() -> Result<FramedTransport, ElideError> + Send>,
    conn: Option<FramedTransport>,
}

impl Transport for ReconnectingTransport {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        if self.conn.is_none() {
            self.conn = Some((self.connect)()?);
        }
        let result = self.conn.as_mut().expect("connected").request(req, payload);
        if matches!(result, Err(ElideError::Transport(_))) {
            self.conn = None; // dead wire: redial on the next request
        }
        result
    }
}

/// Runs one seeded schedule end to end. Returns the workload checksum on
/// success or the typed error, plus how many faults were injected.
fn run_schedule(
    cell: &Cell,
    kind: Kind,
    seed: u64,
    intensity: u64,
) -> (Result<u64, ElideError>, u64) {
    let (client_cfg, server_cfg) = fault_configs(intensity);
    let client_plan = FaultPlan::new(seed.wrapping_mul(2).wrapping_add(1), client_cfg);
    let server_plan = FaultPlan::new(seed.wrapping_mul(2).wrapping_add(2), server_cfg);
    // Short timeouts keep injected stalls from slowing the suite; genuine
    // hangs are caught by the watchdog, not the timeout.
    let limits = Limits {
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..Limits::default()
    };
    cell.server.set_faults(Some(server_plan.clone()));
    let config = ServiceConfig {
        workers: 2,
        limits,
        max_connections: None,
        faults: Some(server_plan.clone()),
    };

    type Connect = Box<dyn FnMut() -> Result<FramedTransport, ElideError> + Send>;
    let (handle, connect): (ServiceHandle, Connect) = match kind {
        Kind::Channel => {
            let (listener, host) = channel_listener();
            let handle = serve(
                FaultyListener::new(listener, server_plan.clone()),
                Arc::clone(&cell.server),
                config,
            );
            let plan = client_plan.clone();
            let connect: Connect = Box::new(move || {
                let wire =
                    host.connect().map_err(|e| ElideError::Transport(format!("connect: {e}")))?;
                FramedTransport::new(Box::new(FaultyWire::new(wire, plan.clone())), limits)
            });
            (handle, connect)
        }
        Kind::Tcp => {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback");
            let addr = acceptor.local_addr().expect("local addr");
            let handle = serve(
                FaultyListener::new(acceptor, server_plan.clone()),
                Arc::clone(&cell.server),
                config,
            );
            let plan = client_plan.clone();
            let connect: Connect = Box::new(move || {
                let wire = TcpStream::connect(addr)
                    .map_err(|e| ElideError::Transport(format!("connect {addr}: {e}")))?;
                FramedTransport::new(Box::new(FaultyWire::new(wire, plan.clone())), limits)
            });
            (handle, connect)
        }
    };

    let transport: Arc<Mutex<dyn Transport + Send>> =
        Arc::new(Mutex::new(ReconnectingTransport { connect, conn: None }));
    let handshakes_before = cell.server.handshakes();
    let mut launched = with_engine(
        cell.package
            .launch(&cell.platform, transport, new_sealed_store(), seed ^ 0x5EED)
            .expect("launch touches no faulted path"),
    );
    // Every schedule runs 4x-oversubscribed: the restore and the workload
    // execute under transparent EPC paging, and any plan-armed blob
    // tampering rides the resulting eviction-triggered EWB/ELDU cycles.
    let total_pages = launched.runtime.enclave().resident_reg_pages();
    let mut epc_rng = SeededRandom::new(seed ^ 0xE9C);
    let mut epc = EpcBudget::new((total_pages / 4).max(1), &mut epc_rng);
    if let Some((tamper_seed, ppm)) = client_plan.epc_tamper_params() {
        epc.set_tamper(tamper_seed, ppm);
    }
    launched.runtime.set_epc_budget(epc).expect("arming the budget faults no page");
    let policy = RetryPolicy {
        retries: 4,
        initial_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
    };
    let outcome = match launched.restore_with_retry(cell.indices["elide_restore"], &policy) {
        Ok(stats) => {
            assert!(stats.instructions > 0, "seed {seed}: restore reported no work");
            assert!(
                cell.server.handshakes() > handshakes_before,
                "seed {seed}: a fresh launch cannot restore without a server handshake"
            );
            // `run_workload` differentially checks the guest against the
            // host reference — wrong restored plaintext panics here.
            Ok(run_workload(cell.name, &mut launched.runtime, &cell.indices))
        }
        Err(err) => {
            assert!(
                matches!(
                    err,
                    ElideError::Transport(_)
                        | ElideError::Server(_)
                        | ElideError::RestoreFailed { .. }
                ),
                "seed {seed}: fault surfaced as an unexpected error family: {err:?}"
            );
            // Fail closed: the secret code must still be unexecutable.
            assert!(
                launched.runtime.ecall(0, &[], 0).is_err(),
                "seed {seed}: failed restore left executable secret code"
            );
            Err(err)
        }
    };
    if let Some(b) = launched.runtime.epc_budget() {
        client_plan.note_epc_tampers(b.stats().tampers);
    }
    if engine() == Engine::Interp {
        assert_eq!(launched.runtime.engine(), Engine::Interp, "seed {seed}: engine was reset");
        assert_eq!(
            launched.runtime.exec_stats().trans_retired,
            0,
            "seed {seed}: ELIDE_EXEC=interp must not run translated blocks"
        );
    }
    drop(launched);
    cell.server.set_faults(None);
    handle.shutdown();
    let injected = client_plan.counts().total() + server_plan.counts().total();
    (outcome, injected)
}

fn pipeline_chaos(kind: Kind, tag: &'static str) {
    silence_injected_panics();
    let base = base_seed();
    let progress = watchdog(tag);
    let picked = ["AES", "2048", "Crackme"];
    let apps: Vec<App> = all_apps().into_iter().filter(|a| picked.contains(&a.name)).collect();
    assert_eq!(apps.len(), picked.len(), "pipeline apps missing");
    let kind_off = match kind {
        Kind::Channel => 0u64,
        Kind::Tcp => 1 << 48,
    };
    for (ai, app) in apps.iter().enumerate() {
        let cell = build_app_cell(app, base ^ (0xC0FFEE + ai as u64));
        let mut reference: Option<u64> = None;
        let mut injected_total = 0u64;
        let mut failures = 0u32;
        for i in 0..SCHEDULES_PER_CELL {
            let seed = base.wrapping_add(kind_off).wrapping_add((ai as u64) << 32).wrapping_add(i);
            let intensity = i % 4;
            progress
                .send(format!(
                    "{tag}/{}/schedule {i} (seed {seed}, intensity {intensity})",
                    app.name
                ))
                .ok();
            let (outcome, injected) = run_schedule(&cell, kind, seed, intensity);
            injected_total += injected;
            match outcome {
                Ok(checksum) => match reference {
                    Some(r) => assert_eq!(
                        checksum, r,
                        "{tag}/{}: seed {seed} restored an enclave that computes differently",
                        app.name
                    ),
                    None => reference = Some(checksum),
                },
                Err(err) => {
                    assert_ne!(
                        intensity, 0,
                        "{tag}/{}: control schedule (seed {seed}) must succeed, got {err:?}",
                        app.name
                    );
                    failures += 1;
                }
            }
        }
        assert!(reference.is_some(), "{tag}/{}: no schedule ever succeeded", app.name);
        assert!(
            injected_total > 0,
            "{tag}/{}: the fault plans never fired — the chaos is vacuous",
            app.name
        );
        println!(
            "chaos[{tag}/{}]: {SCHEDULES_PER_CELL} schedules, {failures} typed failures, \
             {injected_total} injected faults",
            app.name
        );
    }
}

#[test]
fn pipeline_chaos_over_channel_transport() {
    pipeline_chaos(Kind::Channel, "channel");
}

#[test]
fn pipeline_chaos_over_tcp_transport() {
    pipeline_chaos(Kind::Tcp, "tcp");
}

/// A transport that always fails the same way, counting attempts.
struct ScriptedTransport {
    attempts: Arc<AtomicU64>,
    make_err: fn() -> ElideError,
}

impl Transport for ScriptedTransport {
    fn request(&mut self, _req: u8, _payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        self.attempts.fetch_add(1, Ordering::SeqCst);
        Err((self.make_err)())
    }
}

#[test]
fn retry_budget_gives_up_with_the_underlying_error() {
    let cell = build_tiny_cell(0xB0B);
    let attempts = Arc::new(AtomicU64::new(0));
    let transport: Arc<Mutex<dyn Transport + Send>> = Arc::new(Mutex::new(ScriptedTransport {
        attempts: Arc::clone(&attempts),
        make_err: || ElideError::Transport("injected wire failure".into()),
    }));
    let mut launched =
        with_engine(cell.package.launch(&cell.platform, transport, new_sealed_store(), 7).unwrap());
    let policy = RetryPolicy {
        retries: 3,
        initial_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    };
    let err = launched.restore_with_retry(cell.indices["elide_restore"], &policy).unwrap_err();
    assert_eq!(
        err,
        ElideError::Transport("injected wire failure".into()),
        "the final error must be the underlying failure, not a generic restore status"
    );
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        4,
        "the initial attempt plus the full retry budget, then give up"
    );
}

#[test]
fn authentication_failure_is_not_retried() {
    let cell = build_tiny_cell(0xA11);
    let attempts = Arc::new(AtomicU64::new(0));
    let transport: Arc<Mutex<dyn Transport + Send>> = Arc::new(Mutex::new(ScriptedTransport {
        attempts: Arc::clone(&attempts),
        make_err: || ElideError::Server(ServerError::AttestationFailed),
    }));
    let mut launched =
        with_engine(cell.package.launch(&cell.platform, transport, new_sealed_store(), 8).unwrap());
    let policy = RetryPolicy {
        retries: 5,
        initial_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    };
    let err = launched.restore_with_retry(cell.indices["elide_restore"], &policy).unwrap_err();
    assert_eq!(err, ElideError::Server(ServerError::AttestationFailed));
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "an authentication verdict is final — retrying it hammers the server for nothing"
    );
}

#[test]
fn store_io_faults_surface_as_internal_and_recover() {
    let cell = build_tiny_cell(0x510);
    cell.server.set_faults(Some(FaultPlan::new(
        3,
        FaultConfig { store_io_ppm: PPM, ..FaultConfig::off() },
    )));
    let transport: Arc<Mutex<dyn Transport + Send>> =
        Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&cell.server))));
    let mut launched = with_engine(
        cell.package.launch(&cell.platform, transport, new_sealed_store(), 11).unwrap(),
    );
    let policy = RetryPolicy {
        retries: 2,
        initial_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    };
    let before = cell.server.handshakes();
    let err = launched.restore_with_retry(cell.indices["elide_restore"], &policy).unwrap_err();
    assert_eq!(
        err,
        ElideError::Server(ServerError::Internal),
        "store I/O faults must surface as the typed Internal error"
    );
    assert!(
        cell.server.handshakes() > before,
        "the store fault sits behind authentication — the handshakes must have succeeded"
    );
    assert!(launched.runtime.ecall(0, &[], 0).is_err(), "failed restore must stay sanitized");
    // The store recovers: the same launched enclave restores cleanly.
    cell.server.set_faults(None);
    launched.restore(cell.indices["elide_restore"]).unwrap();
    assert_eq!(launched.runtime.ecall(0, &[], 0).unwrap().status, 42);
}

/// Guest for the eviction chaos schedules: `mix` is a stateless compute
/// kernel, `stomp` writes the ecall argument across a 128 KiB arena — 32
/// pages dirtied per call, more than the 4x-oversubscribed cap can hold,
/// guaranteeing EWB (not clean-drop) traffic on every pass. Both return
/// values are pure functions of the argument, so any two schedules can
/// compare outputs positionally.
const EPC_CHAOS_GUEST: &str = "
.section text
.global mix
.func mix
    ld64 r0, [r2]
    movi r1, 40503
    mul  r0, r0, r1
    xori r0, r0, 22667
    add  r0, r0, r1
    ret
.endfunc

.global stomp
.func stomp
    ld64 r0, [r2]
    la   r1, arena
    movi r3, 16384
    movi r5, 0
    movi r6, 1
.fill:
    st64 r0, [r1]
    addi r1, r1, 8
    addi r0, r0, 1
    sub  r3, r3, r6
    bne  r3, r5, .fill
    ret
.endfunc

.section bss
.align 8
arena:
    .zero 131072
";

/// Three seeded schedules run the full pipeline 4x-oversubscribed while
/// the untrusted OS corrupts eviction blobs at increasing rates (0 is the
/// control). The fail-closed invariant: under tampering, every ecall
/// either returns the control schedule's answer or a typed error — a
/// corrupted blob must never load and skew an output — and a restore
/// killed by a poisoned reload leaves the secret code unexecutable.
#[test]
fn epc_eviction_chaos_fails_closed_under_oversubscription() {
    let base = base_seed();
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM).source(EPC_CHAOS_GUEST).ecall("mix").ecall("stomp").ecall("elide_restore");
    let image = b.build().expect("assemble epc chaos guest");
    let indices = HashMap::from([
        ("mix".to_string(), 0u64),
        ("stomp".to_string(), 1),
        ("elide_restore".to_string(), 2),
    ]);
    let cell = build_cell("epc", &image, indices, base ^ 0xE51DE);

    let mut reference: Option<Vec<u64>> = None;
    let mut tampers_total = 0u64;
    for (s, ppm) in [(0u64, 0u32), (1, 300_000), (2, PPM)] {
        let seed = base.wrapping_add(s);
        let plan =
            FaultPlan::new(seed ^ 0xEBB, FaultConfig { epc_tamper_ppm: ppm, ..FaultConfig::off() });
        let transport: Arc<Mutex<dyn Transport + Send>> =
            Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&cell.server))));
        let mut launched = with_engine(
            cell.package
                .launch(&cell.platform, transport, new_sealed_store(), seed ^ 0x5EED)
                .expect("launch is fault-free"),
        );
        let total_pages = launched.runtime.enclave().resident_reg_pages();
        let mut epc_rng = SeededRandom::new(seed ^ 0xB0D6);
        let mut epc = EpcBudget::new((total_pages / 4).max(1), &mut epc_rng);
        if let Some((tamper_seed, rate)) = plan.epc_tamper_params() {
            epc.set_tamper(tamper_seed, rate);
        }
        launched.runtime.set_epc_budget(epc).expect("arming the budget");

        match launched.restore(cell.indices["elide_restore"]) {
            Ok(_) => {
                // Alternate the stateless kernel with the page-dirtying
                // stomps so dirty pages keep cycling through EWB/ELDU.
                let mut failures = 0u32;
                let outputs: Vec<Option<u64>> = (0..24u64)
                    .map(|i| {
                        let (idx, arg) = if i % 3 == 2 {
                            (cell.indices["stomp"], i)
                        } else {
                            (cell.indices["mix"], i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        };
                        match launched.runtime.ecall(idx, &arg.to_le_bytes(), 0) {
                            Ok(r) => Some(r.status),
                            Err(_) => {
                                failures += 1;
                                None // typed error: acceptable, and fail-closed
                            }
                        }
                    })
                    .collect();
                match &reference {
                    None => {
                        assert_eq!(ppm, 0, "the control schedule runs first");
                        assert_eq!(failures, 0, "the control schedule must not fault");
                        reference = Some(outputs.into_iter().map(|o| o.unwrap()).collect());
                    }
                    Some(r) => {
                        for (i, o) in outputs.iter().enumerate() {
                            if let Some(v) = o {
                                assert_eq!(
                                    *v, r[i],
                                    "ppm {ppm}: ecall {i} loaded a corrupt page and kept running"
                                );
                            }
                        }
                    }
                }
            }
            Err(err) => {
                assert_ne!(ppm, 0, "control schedule must restore, got {err:?}");
                assert!(
                    matches!(err, ElideError::Enclave(_) | ElideError::RestoreFailed { .. }),
                    "poisoned reload surfaced as an unexpected family: {err:?}"
                );
                assert!(
                    launched.runtime.ecall(cell.indices["mix"], &[0; 8], 0).is_err(),
                    "failed restore left executable secret code"
                );
            }
        }

        let stats = launched.runtime.epc_budget().unwrap().stats();
        assert!(stats.evictions > 0, "4x oversubscription never paged: {stats:?}");
        if ppm == 0 {
            assert_eq!(stats.reload_failures, 0, "control must reload cleanly: {stats:?}");
            assert_eq!(stats.tampers, 0);
        }
        plan.note_epc_tampers(stats.tampers);
        assert_eq!(plan.counts().epc_tampers, stats.tampers);
        tampers_total += stats.tampers;
        println!(
            "chaos[epc/ppm {ppm}]: {} evictions ({} clean), {} reloads, {} rejected, {} tampered",
            stats.evictions, stats.clean_drops, stats.reloads, stats.reload_failures, stats.tampers
        );
    }
    assert!(reference.is_some(), "no schedule produced a reference output vector");
    assert!(tampers_total > 0, "the eviction chaos never corrupted a blob — vacuous");
}

/// Guest for the bulk-intrinsic eviction schedules: one ecall MEMSETs a
/// 64 KiB half-arena, MEMCPYs it onto the other half and MEMCMPs the two
/// back — 32 pages touched per call through the sealed intrinsic path,
/// far over the oversubscribed cap, so every bulk operation crosses
/// evicted pages mid-flight and must page them back in transparently.
/// The return value is a pure function of the argument.
const BULK_CHAOS_GUEST: &str = "
.section text
.global bulksweep
.func bulksweep
    ld64 r7, [r2]
    andi r7, r7, 255
    ; memset(arena, arg & 0xFF, 64K)
    la   r1, arena
    mov  r2, r7
    li   r3, 65536
    intrin 10
    ; memcpy(arena + 64K, arena, 64K)
    la   r1, arena
    la   r2, arena
    add  r1, r1, r3
    intrin 9
    ; memcmp(arena, arena + 64K, 64K) -> r0 (0 iff equal)
    la   r1, arena
    add  r2, r1, r3
    intrin 11
    ; status = (cmp << 8) | fill-byte
    shli r0, r0, 8
    or   r0, r0, r7
    ret
.endfunc

.section bss
.align 8
arena:
    .zero 131072
";

/// Seeded schedules fire the bulk intrinsics under an armed [`EpcBudget`]:
/// a MEMCPY/MEMSET/MEMCMP sweep over 32 pages with a cap of a quarter of
/// the image means evicted pages are touched mid-copy on every call and
/// page back in transparently. The control schedule pins the answers;
/// tampered schedules must match positionally or fail with typed errors
/// (the fail-closed invariant extended to the bulk path).
#[test]
fn bulk_intrinsic_chaos_pages_in_transparently_under_epc_pressure() {
    let base = base_seed();
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM).source(BULK_CHAOS_GUEST).ecall("bulksweep").ecall("elide_restore");
    let image = b.build().expect("assemble bulk chaos guest");
    let indices =
        HashMap::from([("bulksweep".to_string(), 0u64), ("elide_restore".to_string(), 1)]);
    let cell = build_cell("bulk", &image, indices, base ^ 0xB31C);

    let mut reference: Option<Vec<u64>> = None;
    for (s, ppm) in [(0u64, 0u32), (1, 300_000)] {
        let seed = base.wrapping_add(s);
        let plan =
            FaultPlan::new(seed ^ 0xEBB, FaultConfig { epc_tamper_ppm: ppm, ..FaultConfig::off() });
        let transport: Arc<Mutex<dyn Transport + Send>> =
            Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&cell.server))));
        let mut launched = with_engine(
            cell.package
                .launch(&cell.platform, transport, new_sealed_store(), seed ^ 0x5EED)
                .expect("launch is fault-free"),
        );
        let total_pages = launched.runtime.enclave().resident_reg_pages();
        let mut epc_rng = SeededRandom::new(seed ^ 0xB0D6);
        let mut epc = EpcBudget::new((total_pages / 4).max(1), &mut epc_rng);
        if let Some((tamper_seed, rate)) = plan.epc_tamper_params() {
            epc.set_tamper(tamper_seed, rate);
        }
        launched.runtime.set_epc_budget(epc).expect("arming the budget");

        match launched.restore(cell.indices["elide_restore"]) {
            Ok(_) => {
                let outputs: Vec<Option<u64>> = (0..12u64)
                    .map(|i| {
                        let arg = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        match launched.runtime.ecall(
                            cell.indices["bulksweep"],
                            &arg.to_le_bytes(),
                            0,
                        ) {
                            Ok(r) => Some(r.status),
                            Err(_) => None, // typed error: fail-closed
                        }
                    })
                    .collect();
                match &reference {
                    None => {
                        assert_eq!(ppm, 0, "the control schedule runs first");
                        let pinned: Vec<u64> = outputs
                            .into_iter()
                            .map(|o| o.expect("control schedule must not fault"))
                            .collect();
                        // cmp byte must be 0: the copy matched the fill.
                        for (i, v) in pinned.iter().enumerate() {
                            assert_eq!(*v >> 8, 0, "call {i}: MEMCMP saw a torn copy under paging");
                        }
                        reference = Some(pinned);
                    }
                    Some(r) => {
                        for (i, o) in outputs.iter().enumerate() {
                            if let Some(v) = o {
                                assert_eq!(*v, r[i], "ppm {ppm}: bulk sweep {i} diverged");
                            }
                        }
                    }
                }
                let stats = launched.runtime.epc_budget().unwrap().stats();
                assert!(stats.evictions > 0, "sweeps never paged: {stats:?}");
                if ppm == 0 {
                    assert!(stats.reloads > 0, "evicted pages never touched mid-sweep: {stats:?}");
                    assert_eq!(stats.reload_failures, 0, "control must reload cleanly: {stats:?}");
                }
            }
            Err(err) => {
                assert_ne!(ppm, 0, "control schedule must restore, got {err:?}");
                assert!(
                    launched.runtime.ecall(cell.indices["bulksweep"], &[0; 8], 0).is_err(),
                    "failed restore left executable secret code"
                );
            }
        }
    }
    assert!(reference.is_some(), "no schedule produced a reference output vector");
}

/// Two-page enclave (0xAA RW, 0xBB RX) for the EPC chaos tests.
fn chaos_enclave(seed: u64) -> Enclave {
    let mut rng = SeededRandom::new(seed);
    let cpu = SgxCpu::new(&mut rng);
    let mut e = cpu.ecreate(0x100000, 0x10000).unwrap();
    e.eadd(0x100000, &[0xAA; 4096], PagePerms::RW, PageType::Reg).unwrap();
    e.eadd(0x101000, &[0xBB; 4096], PagePerms::RX, PageType::Reg).unwrap();
    for page in [0x100000u64, 0x101000] {
        for i in 0..16 {
            e.eextend(page + i * 256).unwrap();
        }
    }
    let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(seed ^ 9));
    let sig = SigStruct::sign(&kp, e.current_measurement().unwrap(), 1, 1).unwrap();
    e.einit(&sig).unwrap();
    e
}

#[test]
fn epc_chaos_rejects_every_tampered_blob_with_typed_errors() {
    let base = base_seed();
    for s in 0..12u64 {
        let seed = base.wrapping_add(s);
        let mut e = chaos_enclave(seed);
        // The entropy source dies partway through the second eviction:
        // paging must neither panic nor produce an unloadable blob.
        let mut rng = FailingRandom::new(seed ^ 0xEE, 48);
        let mut pm = PagingManager::new(&mut rng);
        let blob_rx = pm.ewb(&mut e, 0x1000, &mut rng).unwrap();
        let blob_rw = pm.ewb(&mut e, 0, &mut rng).unwrap();
        assert!(rng.exhausted(), "the schedule is meant to outlive its entropy");

        let mut inj = EpcFaultInjector::new(seed ^ 0xFF);
        for how in EwbTamper::ALL {
            let mut t = blob_rx.clone();
            inj.tamper_evicted(&mut t, how);
            let err = pm.eldu(&mut e, &t).expect_err("tampered blob must not load");
            assert!(
                matches!(
                    err,
                    SgxError::SealAuthFailed
                        | SgxError::ReplayDetected
                        | SgxError::OutOfRange { .. }
                ),
                "seed {seed}: {how:?} → unexpected error {err:?}"
            );
        }
        // The honest blobs still load — even the one sealed on dead
        // entropy — and the pages read back intact.
        pm.eldu(&mut e, &blob_rx).unwrap();
        pm.eldu(&mut e, &blob_rw).unwrap();
        assert_eq!(e.read(0x101000, 1, AccessKind::Read).unwrap(), vec![0xBB]);
        assert_eq!(e.read(0x100000, 1, AccessKind::Read).unwrap(), vec![0xAA]);
    }
}

#[test]
fn mee_dram_view_stays_ciphertext_under_bit_flips() {
    let base = base_seed();
    for s in 0..8u64 {
        let e = chaos_enclave(base.wrapping_add(s));
        let mut dram = e.dram_image();
        let mut inj = EpcFaultInjector::new(base.wrapping_add(s) ^ 0xD);
        for _ in 0..32 {
            inj.corrupt_dram_view(&mut dram);
        }
        // No amount of bit flipping turns the MEE view into plaintext.
        for (_, page) in &dram {
            assert!(
                !page
                    .windows(16)
                    .any(|w| w.iter().all(|&b| b == 0xAA) || w.iter().all(|&b| b == 0xBB)),
                "MEE view leaked a plaintext run"
            );
        }
        // The enclave's own reads go through the EPC, not the snapshot.
        assert_eq!(e.read(0x100000, 1, AccessKind::Read).unwrap(), vec![0xAA]);
    }
}

#[test]
fn sanitizer_survives_random_image_corruption() {
    let base = base_seed();
    let image = tiny_image();
    let vendor = RsaKeyPair::generate(512, &mut SeededRandom::new(0xFEED));
    let (mut protected, mut rejected) = (0u32, 0u32);
    for s in 0..64u64 {
        let mut rng = SeededRandom::new(base.wrapping_add(s));
        let mut corrupt = image.clone();
        let flips = 1 + (rng.next_u64() % 4) as usize;
        for _ in 0..flips {
            let pos = (rng.next_u64() % corrupt.len() as u64) as usize;
            let bit = (rng.next_u64() % 8) as u32;
            corrupt[pos] ^= 1 << bit;
        }
        // Either outcome is fine; a panic or hang is the only failure.
        match protect(&corrupt, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng) {
            Ok(_) => protected += 1,
            Err(_) => rejected += 1,
        }
    }
    println!("chaos[sanitizer]: 64 corrupted images → {protected} protected, {rejected} rejected");
}

// ---------------------------------------------------------------------------
// Delegated-provisioning chaos: the registry routes *around* delegates it can
// see are unusable, so these schedules attack the window it cannot see — the
// delegate turns bad after selection, mid-restore. Every schedule must fail
// closed (the peer's secret code stays unexecutable) and then recover through
// the origin fallback on the same runtime.
// ---------------------------------------------------------------------------

const DELEG_ANSWER_IDX: u64 = 0;
const DELEG_RESTORE_IDX: u64 = 1;
const DELEG_VERIFY_IDX: u64 = 2;
const DELEG_ANSWER: u64 = 42;

/// Deterministic build: same seed → same vendor key and measurement, so
/// every instance on the simulated host shares one identity.
fn delegation_package(seed: u64) -> ProtectedPackage {
    let mut rng = SeededRandom::new(seed);
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(&format!(
            ".section text\n.global get_answer\n.func get_answer\n    movi r0, {DELEG_ANSWER}\n    ret\n.endfunc\n"
        ))
        .ecall("get_answer")
        .ecall("elide_restore")
        .ecall("elide_verify_report");
    let image = b.build().expect("assemble delegation chaos guest");
    let vendor = RsaKeyPair::generate(512, &mut rng);
    protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).expect("protect")
}

struct DelegationHost {
    platform: Arc<Platform>,
    server: Arc<AuthServer>,
    mrenclave: [u8; 32],
    pkg_seed: u64,
}

fn delegation_host(seed: u64) -> DelegationHost {
    let mut rng = SeededRandom::new(seed);
    let mut scratch = AttestationService::new();
    let platform = Arc::new(Platform::provision(&mut rng, &mut scratch));
    let mut ias = AttestationService::new();
    ias.register_device(platform.qe.device_public_key().clone());
    let pkg_seed = seed ^ 0x9A6E;
    let package = delegation_package(pkg_seed);
    let mrsigner = package.sigstruct.mrsigner().unwrap();
    let mrenclave = package.mrenclave;
    let server =
        Arc::new(package.make_server(ias).with_rng(Box::new(SeededRandom::new(seed ^ 0x5E6))));
    server.authorize_delegate(mrenclave, &[(mrenclave, mrsigner)]);
    DelegationHost { platform, server, mrenclave, pkg_seed }
}

impl DelegationHost {
    fn package(&self) -> ProtectedPackage {
        delegation_package(self.pkg_seed)
    }

    fn origin_transport(&self) -> Arc<Mutex<dyn Transport + Send>> {
        Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&self.server))))
    }

    /// One origin handshake stands the delegate up (anchor enclave for
    /// in-enclave report verification + the signed bundle).
    fn stand_up_delegate(&self, host_seed: u64) -> Arc<DelegateServer> {
        let anchor = with_engine(
            self.package()
                .launch(&self.platform, self.origin_transport(), new_sealed_store(), host_seed)
                .unwrap(),
        );
        let anchor = Arc::new(Mutex::new(anchor));
        let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(host_seed)));
        let mut transport = InProcessTransport::new(Arc::clone(&self.server));
        let a = Arc::clone(&anchor);
        let qe = Arc::clone(&self.platform.qe);
        let mut quote_fn = move |report_data: [u8; 64]| {
            let app = a.lock().unwrap();
            let target = TargetInfo { mrenclave: QE_MEASUREMENT };
            let report = ereport(app.runtime.enclave(), &target, report_data)
                .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
            let quote =
                qe.quote(&report).map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
            Ok(quote.to_bytes())
        };
        client.full_handshake(&mut transport, &mut quote_fn).expect("delegate handshake");
        let origin_key = self.server.delegation_public_key().expect("delegation key");
        let bundle = client.fetch_delegation(&mut transport, &origin_key).expect("bundle");
        let verifier = EcallReportVerifier::new(anchor, DELEG_VERIFY_IDX, self.mrenclave);
        DelegateServer::new(
            bundle,
            &origin_key,
            Box::new(verifier),
            Box::new(SeededRandom::new(host_seed ^ 0xD11)),
            now_ms(),
        )
        .expect("delegate stands up")
    }

    /// Launches a peer routed at `delegate` through `wrap`, so schedules
    /// can interpose chaos between the peer and the delegate.
    fn launch_via_delegate(
        &self,
        delegate: &Arc<DelegateServer>,
        seed: u64,
        wrap: impl FnOnce(Box<dyn Transport + Send>) -> Box<dyn Transport + Send>,
    ) -> LaunchedApp {
        let package = self.package();
        let plan = package.image_plan().unwrap();
        let peer: Arc<Mutex<dyn Transport + Send>> =
            Arc::new(Mutex::new(wrap(Box::new(delegate.connect()))));
        let route = RestoreRoute { origin: self.origin_transport(), delegate: Some(peer) };
        with_engine(
            package.launch_routed(&plan, &self.platform, route, new_sealed_store(), seed).unwrap(),
        )
    }
}

/// The delegate is revoked after the registry would have picked it (the
/// revocation raced the peer's restore). The peer's delegated restore must
/// fail closed with the typed rejection and the origin fallback — the exact
/// sequence `EnclavePool::cold_provision` runs — must still provision the
/// same runtime. The registry side is also checked: once revoked, the
/// delegate is never offered again.
#[test]
fn revoked_delegate_fails_closed_and_origin_fallback_recovers() {
    let base = base_seed();
    let host = delegation_host(base ^ 0xDE1E_6A01);
    let delegate = host.stand_up_delegate(0xE1);
    let target = delegate.policy().delegate_mrenclave;
    delegate.revoke();

    let mut app = host.launch_via_delegate(&delegate, 0xF1, |t| t);
    let err = app.restore_delegated(DELEG_RESTORE_IDX, &target).unwrap_err();
    assert!(
        matches!(
            err,
            ElideError::Server(ServerError::DelegationRejected) | ElideError::RestoreFailed { .. }
        ),
        "revoked delegate surfaced as an unexpected family: {err:?}"
    );
    assert!(
        app.runtime.ecall(DELEG_ANSWER_IDX, &[], 0).is_err(),
        "rejected delegation left executable secret code"
    );
    assert_eq!(delegate.served(), 0, "a revoked delegate must serve nothing");

    // Registry view: the revoked delegate is filtered, not offered.
    let registry = DelegateRegistry::new();
    registry.register(Arc::clone(&delegate));
    let mrsigner = host.package().sigstruct.mrsigner().unwrap();
    assert!(
        registry.delegate_for(&host.mrenclave, &mrsigner).is_none(),
        "the registry must route around a revoked delegate"
    );

    // Origin fallback on the very same runtime provisions cleanly.
    let before = host.server.handshakes();
    app.restore(DELEG_RESTORE_IDX).unwrap();
    assert!(host.server.handshakes() > before, "fallback must go through the origin");
    assert_eq!(app.runtime.ecall(DELEG_ANSWER_IDX, &[], 0).unwrap().status, DELEG_ANSWER);
}

/// Flips one bit in every post-attestation response — the re-sealed
/// delivery a compromised delegate host could corrupt in transit.
struct SealTamper {
    inner: Box<dyn Transport + Send>,
    tampered: Arc<AtomicU64>,
}

impl Transport for SealTamper {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        let mut resp = self.inner.request(req, payload)?;
        if req != request::PEER_ATTEST as u8 && !resp.is_empty() {
            let mid = resp.len() / 2;
            resp[mid] ^= 0x01;
            self.tampered.fetch_add(1, Ordering::SeqCst);
        }
        Ok(resp)
    }
}

/// A delegate host flips bits in the re-sealed secret stream. The peer's
/// channel GCM must refuse every tampered frame: the restore fails with a
/// typed error, the secret code never becomes executable, and the origin
/// fallback still provisions.
#[test]
fn tampered_delegate_seal_stream_fails_closed() {
    let base = base_seed();
    let host = delegation_host(base ^ 0xDE1E_6A02);
    let delegate = host.stand_up_delegate(0xE2);
    let target = delegate.policy().delegate_mrenclave;

    let tampered = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&tampered);
    let mut app = host.launch_via_delegate(&delegate, 0xF2, move |t| {
        Box::new(SealTamper { inner: t, tampered: counter })
    });
    let err = app.restore_delegated(DELEG_RESTORE_IDX, &target).unwrap_err();
    assert!(
        matches!(err, ElideError::RestoreFailed { .. } | ElideError::Server(_)),
        "tampered seal stream surfaced as an unexpected family: {err:?}"
    );
    assert!(tampered.load(Ordering::SeqCst) > 0, "the tamper never fired — vacuous schedule");
    assert!(
        app.runtime.ecall(DELEG_ANSWER_IDX, &[], 0).is_err(),
        "tampered delegate stream left executable secret code"
    );

    app.restore(DELEG_RESTORE_IDX).unwrap();
    assert_eq!(app.runtime.ecall(DELEG_ANSWER_IDX, &[], 0).unwrap().status, DELEG_ANSWER);
}

/// Takes the delegate offline right after its first response — eviction
/// mid-handshake, the narrowest recoverable window.
struct MidHandshakeEviction {
    inner: Box<dyn Transport + Send>,
    server: Arc<DelegateServer>,
    responses: u64,
}

impl Transport for MidHandshakeEviction {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        let resp = self.inner.request(req, payload);
        if resp.is_ok() {
            self.responses += 1;
            if self.responses == 1 {
                self.server.set_online(false);
            }
        }
        resp
    }
}

/// The delegate is evicted from its pool between the peer attestation and
/// the secret fetch. The half-provisioned peer must surface a typed
/// transport error, stay sanitized, and then complete through the origin.
#[test]
fn delegate_evicted_mid_handshake_falls_back_to_origin() {
    let base = base_seed();
    let host = delegation_host(base ^ 0xDE1E_6A03);
    let delegate = host.stand_up_delegate(0xE3);
    let target = delegate.policy().delegate_mrenclave;

    let server = Arc::clone(&delegate);
    let mut app = host.launch_via_delegate(&delegate, 0xF3, move |t| {
        Box::new(MidHandshakeEviction { inner: t, server, responses: 0 })
    });
    let err = app.restore_delegated(DELEG_RESTORE_IDX, &target).unwrap_err();
    assert!(
        matches!(err, ElideError::Transport(_) | ElideError::RestoreFailed { .. }),
        "mid-handshake eviction surfaced as an unexpected family: {err:?}"
    );
    assert_eq!(delegate.served(), 1, "the attestation leg must have completed before eviction");
    assert!(
        app.runtime.ecall(DELEG_ANSWER_IDX, &[], 0).is_err(),
        "half-provisioned peer left executable secret code"
    );

    let before = host.server.handshakes();
    app.restore(DELEG_RESTORE_IDX).unwrap();
    assert!(host.server.handshakes() > before, "recovery must go through the origin");
    assert_eq!(app.runtime.ecall(DELEG_ANSWER_IDX, &[], 0).unwrap().status, DELEG_ANSWER);
}
