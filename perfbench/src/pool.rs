//! `pool_serve`: a dense host serving protected enclaves, one client in a
//! closed loop. Twelve packages (two per app) are admitted to an
//! `EnclavePool` that keeps far fewer resident; each operation checks one
//! out by a seeded Zipf-skewed stream and runs one verified workload on
//! it. A miss warm-starts the enclave from its sealed blob, offline.

use crate::harness::{
    closed_loop, end_to_end, err, guarded, mix64, ms, repeated_setup, set_vm_ratios, traced_ecall,
    Args, DirectSession, Layers, Outcome, Stream, TraceChecks,
};
use elide_apps::harness::App;
use elide_apps::{aes_app, des_app, json_app, merkle_app, run_workload, sha1_app, xtea};
use elide_core::api::{protect, Mode, Platform, ProtectedPackage};
use elide_core::restore::{new_sealed_store, SealedStore};
use elide_core::sanitizer::DataPlacement;
use elide_core::service::{EnclavePool, PoolConfig};
use elide_crypto::rng::SeededRandom;
use elide_crypto::rsa::RsaKeyPair;
use elide_enclave::loader::ImagePlan;
use sgx_sim::quote::AttestationService;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const APPS: [fn() -> App; 6] =
    [aes_app::app, des_app::app, sha1_app::app, xtea::app, json_app::app, merkle_app::app];
/// Packages admitted per app.
const COPIES: usize = 2;
/// Enclaves the pool keeps resident.
const MAX_RESIDENT: usize = 4;
/// Zipf exponent of the checkout stream.
const ZIPF_S: f64 = 1.0;
/// Checkouts run before measuring, so the resident set reflects the
/// stream rather than admission order.
const WARM_UP_OPS: u64 = 200;

const SETUP_SEED: u64 = 0x9001;

/// A bench-side copy of one admitted package with its own provisioned
/// sealed blob: a traced run replays each pool miss's warm start on it,
/// timing the load and the sealed restore separately.
struct Replica {
    package: ProtectedPackage,
    plan: ImagePlan,
    sealed: SealedStore,
}

struct Setup {
    pool: EnclavePool,
    /// Admitted ids by popularity rank, each with its app's index.
    ids: Vec<(String, usize)>,
    apps: Vec<(App, HashMap<String, u64>)>,
    platform: Arc<Platform>,
    replicas: Vec<Replica>,
}

fn copy_package(p: &ProtectedPackage) -> ProtectedPackage {
    ProtectedPackage {
        image: p.image.clone(),
        sigstruct: p.sigstruct.clone(),
        meta: p.meta.clone(),
        server_data: p.server_data.clone(),
        local_data_file: p.local_data_file.clone(),
        mrenclave: p.mrenclave,
        sanitized_functions: p.sanitized_functions.clone(),
    }
}

/// Protects every package and admits it to the pool (a cold provision
/// each). Rank r holds copy r / 6 of app r % 6, so every app appears in
/// the hot and the cold half of the stream. With `replicas`, also
/// provisions a bench-side copy of each package.
fn setup(replicas: bool) -> Setup {
    let mut rng = SeededRandom::new(SETUP_SEED);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let mut scratch = AttestationService::new();
    let platform = Arc::new(Platform::provision(&mut rng, &mut scratch));
    let apps: Vec<(App, HashMap<String, u64>)> = APPS
        .iter()
        .map(|make| {
            let app = make();
            let indices = app.protected_indices();
            (app, indices)
        })
        .collect();
    let images: Vec<Vec<u8>> =
        apps.iter().map(|(app, _)| app.build_elide_image().expect("build image")).collect();
    let mut pool = EnclavePool::new(PoolConfig { max_resident: MAX_RESIDENT, page_cap: None });
    let mut ids = Vec::new();
    let mut copies = Vec::new();
    for rank in 0..APPS.len() * COPIES {
        let a = rank % APPS.len();
        let package =
            protect(&images[a], &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
                .expect("protect");
        let mut ias = AttestationService::new();
        ias.register_device(platform.qe.device_public_key().clone());
        let server = Arc::new(package.make_server(ias));
        let restore_idx = apps[a].1["elide_restore"];
        if replicas {
            let copy = copy_package(&package);
            let plan = copy.image_plan().expect("plan");
            let sealed = new_sealed_store();
            let transport = Arc::new(Mutex::new(DirectSession::new(Arc::clone(&server))));
            let seed = SETUP_SEED ^ ((rank as u64) << 8);
            let mut app = copy
                .launch_planned(&plan, &platform, transport, Arc::clone(&sealed), seed)
                .expect("replica launch");
            app.restore(restore_idx).expect("replica provision");
            copies.push(Replica { package: copy, plan, sealed });
        }
        let id = format!("{}#{}", apps[a].0.name, rank / APPS.len());
        let transport = Arc::new(Mutex::new(DirectSession::new(server)));
        pool.admit(&id, package, Arc::clone(&platform), transport, restore_idx, rank as u64)
            .expect("admit");
        ids.push((id, a));
    }
    Setup { pool, ids, apps, platform, replicas: copies }
}

/// Seeded Zipf sampler over ranks `0..n`.
struct Zipf {
    stream: Stream,
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(stream: Stream, n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                total += 1.0 / (r as f64).powf(ZIPF_S);
                total
            })
            .collect::<Vec<_>>();
        let cumulative = cumulative.iter().map(|c| c / total).collect();
        Zipf { stream, cumulative }
    }

    fn next_rank(&mut self) -> usize {
        let u = self.stream.unit();
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

/// One untraced checkout plus workload.
fn serve_one(s: &mut Setup, rank: usize) -> Result<(), String> {
    let (id, a) = &s.ids[rank];
    let (app, indices) = &s.apps[*a];
    let launched = s.pool.checkout(id).map_err(err)?;
    run_workload(app.name, &mut launched.runtime, indices);
    Ok(())
}

/// One traced checkout plus workload. After a miss, the warm start is
/// replayed on the package's replica (outside the operation's wall
/// time) to split it into load, sealed restore and teardown.
fn traced_serve(
    s: &mut Setup,
    rank: usize,
    seed: u64,
    layers: &mut Layers,
    checks: &mut TraceChecks,
) -> Result<(), String> {
    let (id, a) = &s.ids[rank];
    let (app, indices) = &s.apps[*a];
    let before = s.pool.stats();
    let t0 = Instant::now();
    let c = Instant::now();
    let launched = s.pool.checkout(id).map_err(err)?;
    let checkout_d = c.elapsed();
    let (ecall_d, translated) = traced_ecall(layers, app.name, &mut launched.runtime, indices);
    let wall = t0.elapsed();
    checks.traced(rank, wall.as_secs_f64(), (checkout_d + ecall_d).as_secs_f64());

    let warm = s.pool.stats().warm_starts > before.warm_starts;
    layers
        .push(if warm { "pool.checkout_warm_ms" } else { "pool.checkout_hit_ms" }, ms(checkout_d));
    if !warm {
        return Ok(());
    }
    layers.push("vm.first_ecall_ms", ms(ecall_d));
    layers.push("vm.first_ecall_blocks_translated", translated);

    let replica = &s.replicas[rank];
    let restore_idx = indices["elide_restore"];
    let c = Instant::now();
    let mut warmed = replica
        .package
        .warm_start(&replica.plan, &s.platform, Arc::clone(&replica.sealed), seed)
        .map_err(err)?;
    let load_d = c.elapsed();
    let c = Instant::now();
    let restored = warmed.restore(restore_idx).map_err(err)?;
    let restore_d = c.elapsed();
    let c = Instant::now();
    drop(warmed);
    let teardown_d = c.elapsed();
    layers.push("loader.load_ms", ms(load_d));
    layers.push("restore.warm_ms", ms(restore_d));
    layers.push("restore.warm_instructions", restored.instructions as f64);
    layers.push("teardown_ms", ms(teardown_d));
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let (mut setup, setup_times) = repeated_setup(|| setup(args.trace));
    let mut zipf = Zipf::new(Stream::new(args.seed, 2), setup.ids.len());
    for _ in 0..WARM_UP_OPS {
        let rank = zipf.next_rank();
        serve_one(&mut setup, rank).expect("warm-up checkout");
    }

    let mut outcome = Outcome::default();
    let before = setup.pool.stats();
    if !args.trace {
        let (ops, elapsed) = closed_loop(args.seconds, |_| {
            let rank = zipf.next_rank();
            (0, guarded(|| serve_one(&mut setup, rank)))
        });
        end_to_end(&ops, elapsed, &setup_times, &mut outcome);
        return outcome;
    }

    // Traced run: operations alternate untraced and traced checkouts.
    let mut layers = Layers::default();
    let mut checks = TraceChecks::default();
    let (ops, _) = closed_loop(args.seconds, |i| {
        let rank = zipf.next_rank();
        let result = if i % 2 == 0 {
            let t0 = Instant::now();
            let r = guarded(|| serve_one(&mut setup, rank));
            checks.untraced(rank, t0.elapsed().as_secs_f64());
            r
        } else {
            let seed = mix64(args.seed, i);
            guarded(|| traced_serve(&mut setup, rank, seed, &mut layers, &mut checks))
        };
        (0, result)
    });
    outcome.count(&ops);
    let after = setup.pool.stats();
    let hits = (after.hits - before.hits) as f64;
    let warm = (after.warm_starts - before.warm_starts) as f64;
    let evictions = (after.enclave_evictions - before.enclave_evictions) as f64;
    layers.set("pool.hit_ratio", hits / (hits + warm).max(1.0));
    layers.set("pool.enclave_evictions", evictions / (hits + warm).max(1.0));
    set_vm_ratios(&mut layers);
    checks.finish(&mut layers);
    layers.report(&crate::PER_LAYER, &mut outcome);
    outcome
}
