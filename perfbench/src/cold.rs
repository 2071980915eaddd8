//! `launch_cold`: the paper's first launch as a user sees it, one client
//! in a closed loop. Each operation plans the image (ELF parse + EEXTEND
//! measurement), connects over TCP to an in-process provisioning service,
//! loads the enclave (ECREATE/EADD/EINIT), restores it with a fresh
//! sealed store (DH + quote + HANDSHAKE/META/DATA + GCM open +
//! self-modifying copy + seal), runs one verified workload and tears the
//! enclave down.

use crate::harness::{
    closed_loop, end_to_end, err, guarded, mix64, ms, repeated_setup, service_wait_ms,
    set_vm_ratios, traced_ecall, Args, DirectSession, Layers, Outcome, Rounds, Stream, Timed,
    TraceChecks, Via,
};
use elide_apps::harness::App;
use elide_apps::{crackme, json_app, merkle_app, run_workload, sha1_app, xtea};
use elide_core::api::{protect, Mode, Platform, ProtectedPackage};
use elide_core::protocol::{TcpTransport, Transport};
use elide_core::restore::new_sealed_store;
use elide_core::sanitizer::DataPlacement;
use elide_core::server::{AuthServer, ExpectedIdentity};
use elide_core::service::{serve, ServiceConfig, ServiceHandle};
use elide_core::store::{SecretEntry, SecretStore};
use elide_core::transport::tcp::TcpAcceptor;
use elide_crypto::rng::SeededRandom;
use elide_crypto::rsa::RsaKeyPair;
use sgx_sim::quote::AttestationService;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Apps with small workloads, so the launch path dominates each operation.
const APPS: [fn() -> App; 5] =
    [xtea::app, merkle_app::app, sha1_app::app, crackme::app, json_app::app];

/// Fixed seed for keys and platform: set-up does the same work every run.
const SETUP_SEED: u64 = 0xC01D;

struct Target {
    app: App,
    package: ProtectedPackage,
    indices: HashMap<String, u64>,
}

struct Setup {
    targets: Vec<Target>,
    platform: Platform,
    server: Arc<AuthServer>,
    addr: String,
    service: Option<ServiceHandle>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}

/// Builds and protects every app, registers each with one server, and
/// serves it on a loopback port.
fn setup() -> Setup {
    let mut rng = SeededRandom::new(SETUP_SEED);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let mut store = SecretStore::new();
    let targets: Vec<Target> = APPS
        .iter()
        .map(|make| {
            let app = make();
            let image = app.build_elide_image().expect("build image");
            let package =
                protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
                    .expect("protect");
            store.insert(SecretEntry {
                name: app.name.into(),
                meta: package.meta.clone(),
                data: package.server_data.clone(),
                expected: ExpectedIdentity {
                    mrenclave: Some(package.mrenclave),
                    mrsigner: package.sigstruct.mrsigner().ok(),
                },
            });
            Target { indices: app.protected_indices(), app, package }
        })
        .collect();
    assert_eq!(store.len(), targets.len(), "every app needs its own MRENCLAVE");
    let server = Arc::new(
        AuthServer::with_store(store, ias)
            .with_rng(Box::new(SeededRandom::new(SETUP_SEED + 1)))
            .with_ticket_key([0x5E; 16]),
    );
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.local_addr().expect("local addr").to_string();
    let service = serve(acceptor, Arc::clone(&server), ServiceConfig::default().with_workers(2));
    Setup { targets, platform, server, addr, service: Some(service) }
}

/// One untraced cold launch; the enclave is torn down on return.
fn launch(s: &Setup, t: &Target, seed: u64) -> Result<(), String> {
    let plan = t.package.image_plan().map_err(err)?;
    let transport = TcpTransport::connect(&s.addr).map_err(err)?;
    let mut app = t
        .package
        .launch_planned(
            &plan,
            &s.platform,
            Arc::new(Mutex::new(transport)),
            new_sealed_store(),
            seed,
        )
        .map_err(err)?;
    app.restore(t.indices["elide_restore"]).map_err(err)?;
    run_workload(t.app.name, &mut app.runtime, &t.indices);
    Ok(())
}

/// One traced cold launch. Each phase is timed around its own call; the
/// outer wall clock also covers the glue between them.
fn traced_launch(
    s: &Setup,
    k: usize,
    seed: u64,
    via: Via,
    layers: &mut Layers,
    checks: &mut TraceChecks,
) -> Result<(), String> {
    let t = &s.targets[k];
    let t0 = Instant::now();
    let c = Instant::now();
    let plan = t.package.image_plan().map_err(err)?;
    let plan_d = c.elapsed();

    let c = Instant::now();
    let (transport, log): (Box<dyn Transport + Send>, _) = match via {
        Via::Wire => {
            let (timed, log) = Timed::new(TcpTransport::connect(&s.addr).map_err(err)?);
            (Box::new(timed), log)
        }
        Via::Session => {
            let (timed, log) = Timed::new(DirectSession::new(Arc::clone(&s.server)));
            (Box::new(timed), log)
        }
    };
    let connect_d = c.elapsed();

    let c = Instant::now();
    let mut app = t
        .package
        .launch_planned(
            &plan,
            &s.platform,
            Arc::new(Mutex::new(transport)),
            new_sealed_store(),
            seed,
        )
        .map_err(err)?;
    let load_d = c.elapsed();

    let c = Instant::now();
    let restored = app.restore(t.indices["elide_restore"]).map_err(err)?;
    let restore_d = c.elapsed();

    let (ecall_d, translated) = traced_ecall(layers, t.app.name, &mut app.runtime, &t.indices);
    layers.push("vm.first_ecall_ms", ms(ecall_d));
    layers.push("vm.first_ecall_blocks_translated", translated);

    let c = Instant::now();
    drop(app);
    drop(plan);
    let teardown_d = c.elapsed();
    let wall = t0.elapsed();

    let verbs = *log.lock().expect("verb log");
    if via == Via::Session {
        verbs.record(layers, true);
        return Ok(());
    }
    verbs.record(layers, false);
    layers.push("loader.plan_ms", ms(plan_d));
    layers.push("transport.connect_ms", ms(connect_d));
    layers.push("loader.load_ms", ms(load_d));
    layers.push("restore.cold_ms", ms(restore_d));
    layers.push("restore.guest_ms", ms(restore_d) - verbs.total() * 1e3);
    layers.push("restore.instructions", restored.instructions as f64);
    layers.push("teardown_ms", ms(teardown_d));
    let phases = plan_d + connect_d + load_d + restore_d + ecall_d + teardown_d;
    checks.traced(k, wall.as_secs_f64(), phases.as_secs_f64());
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let (setup, setup_times) = repeated_setup(setup);
    let mut order = Rounds::new(Stream::new(args.seed, 1), (0..setup.targets.len()).collect());
    for (i, t) in setup.targets.iter().enumerate() {
        launch(&setup, t, mix64(args.seed, u64::MAX - i as u64)).expect("warm-up launch");
    }

    let mut outcome = Outcome::default();
    if !args.trace {
        let (ops, elapsed) = closed_loop(args.seconds, |i| {
            let t = &setup.targets[order.next_item()];
            (0, guarded(|| launch(&setup, t, mix64(args.seed, i))))
        });
        end_to_end(&ops, elapsed, &setup_times, &mut outcome);
        return outcome;
    }

    // Traced run: operations rotate through untraced, wire-traced and
    // session-traced launches, so all three see the same app mix.
    let mut layers = Layers::default();
    let mut checks = TraceChecks::default();
    let (ops, _) = closed_loop(args.seconds, |i| {
        let k = order.next_item();
        let seed = mix64(args.seed, i);
        let result = match i % 3 {
            0 => {
                let t0 = Instant::now();
                let r = guarded(|| launch(&setup, &setup.targets[k], seed));
                checks.untraced(k, t0.elapsed().as_secs_f64());
                r
            }
            1 => guarded(|| traced_launch(&setup, k, seed, Via::Wire, &mut layers, &mut checks)),
            _ => guarded(|| traced_launch(&setup, k, seed, Via::Session, &mut layers, &mut checks)),
        };
        (0, result)
    });
    outcome.count(&ops);
    let wire_ops = layers.get("restore.cold_ms").len();
    layers.set("service.wait_ms", service_wait_ms(&layers, wire_ops));
    set_vm_ratios(&mut layers);
    checks.finish(&mut layers);
    layers.report(&crate::PER_LAYER, &mut outcome);
    outcome
}
