//! # elide-bench
//!
//! Measurement helpers shared by the `paper` harness (the paper's tables
//! and figures), the four plain-main benches and the CI gates. Each
//! table/figure of the SgxElide paper maps to one entry point here; see
//! `EXPERIMENTS.md` at the repository root for the index. Bench output goes
//! to `target/bench/` through [`write_json`].

#![forbid(unsafe_code)]
use elide_apps::harness::{launch_protected, App};
use elide_apps::run_workload;
use elide_core::sanitizer::{sanitize, DataPlacement};
use elide_core::whitelist::Whitelist;
use elide_crypto::rng::SeededRandom;
use elide_elf::ElfFile;
use std::collections::HashMap;
use std::time::Instant;

/// Mean and standard deviation of a sample, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample mean (ms).
    pub mean_ms: f64,
    /// Sample standard deviation (ms).
    pub std_ms: f64,
}

/// Computes mean/stddev over raw samples in seconds.
pub fn stats(samples: &[f64]) -> Stats {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    Stats { mean_ms: mean * 1e3, std_ms: var.sqrt() * 1e3 }
}

/// Times `f` over `runs` executions, returning per-run seconds.
pub fn time_runs<F: FnMut()>(runs: usize, mut f: F) -> Vec<f64> {
    let mut out = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// One row of Table 1 (static size characteristics).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Guest assembly lines (the "TC LOC" analog).
    pub asm_loc: usize,
    /// Function symbols in the trusted component.
    pub tc_functions: usize,
    /// Text-section bytes.
    pub tc_bytes: u64,
    /// Functions the sanitizer redacted.
    pub sanitized_functions: usize,
    /// Bytes the sanitizer redacted.
    pub sanitized_bytes: u64,
}

/// Computes a Table 1 row for one benchmark.
///
/// # Panics
///
/// Panics if the build or sanitization pipeline fails (benchmark harness
/// context).
pub fn table1_row(app: &App, whitelist: &Whitelist) -> Table1Row {
    let image = app.build_elide_image().expect("build");
    let elf = ElfFile::parse(image.clone()).expect("parse");
    let tc_functions = elf.function_symbols().count();
    let tc_bytes = elf.section_by_name(".text").expect(".text").sh_size;
    let mut rng = SeededRandom::new(0xBE7C);
    let out = sanitize(&image, whitelist, DataPlacement::Remote, &mut rng).expect("sanitize");
    Table1Row {
        name: app.name,
        asm_loc: app.asm.lines().filter(|l| !l.trim().is_empty()).count(),
        tc_functions,
        tc_bytes,
        sanitized_functions: out.sanitized_functions.len(),
        sanitized_bytes: out.sanitized_functions.iter().map(|(_, s)| s).sum(),
    }
}

/// Measures sanitize time over `runs` (Table 2, "Sanitize Time").
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn sanitize_times(app: &App, placement: DataPlacement, runs: usize) -> Stats {
    let image = app.build_elide_image().expect("build");
    let whitelist = Whitelist::from_dummy_enclave().expect("whitelist");
    let mut rng = SeededRandom::new(7);
    let samples = time_runs(runs, || {
        let out = sanitize(&image, &whitelist, placement, &mut rng).expect("sanitize");
        std::hint::black_box(out.image.len());
    });
    stats(&samples)
}

/// Measures restore time over `runs` fresh launches (Table 2, "Restore
/// Time"). Each run launches a new sanitized enclave (fresh sealed store)
/// and times only the `elide_restore` call.
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn restore_times(app: &App, placement: DataPlacement, runs: usize) -> Stats {
    let mut samples = Vec::with_capacity(runs);
    for run in 0..runs {
        let mut p = launch_protected(app, placement, 1000 + run as u64).expect("launch");
        let t0 = Instant::now();
        p.restore().expect("restore");
        samples.push(t0.elapsed().as_secs_f64());
    }
    stats(&samples)
}

/// A plain build prepared offline (image built and signed once); only the
/// runtime — load, `EINIT`, workload — is timed, matching the paper's
/// methodology (`time ./app` on a pre-built binary).
pub struct PreparedPlain {
    app: App,
    image: Vec<u8>,
    sigstruct: sgx_sim::sigstruct::SigStruct,
    cpu: sgx_sim::SgxCpu,
    indices: std::collections::HashMap<String, u64>,
}

/// Builds and signs the plain configuration once.
///
/// # Panics
///
/// Panics if the build pipeline fails.
pub fn prepare_plain(app: &App) -> PreparedPlain {
    use elide_crypto::rsa::RsaKeyPair;
    let image = app.build_plain_image().expect("build");
    let mut rng = SeededRandom::new(0xF1);
    let cpu = sgx_sim::SgxCpu::new(&mut rng);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let sigstruct = elide_enclave::loader::sign_enclave(&image, &vendor, 1, 1).expect("sign");
    PreparedPlain { app: app.clone(), image, sigstruct, cpu, indices: app.plain_indices() }
}

impl PreparedPlain {
    /// One timed run: enclave creation + `reps` workload iterations.
    ///
    /// # Panics
    ///
    /// Panics if the run fails.
    pub fn run_seconds(&self, seed: u64, reps: usize) -> f64 {
        let t0 = Instant::now();
        let loaded = elide_enclave::loader::load_enclave(&self.cpu, &self.image, &self.sigstruct)
            .expect("load");
        let mut rt = elide_enclave::runtime::EnclaveRuntime::with_rng(
            loaded,
            Box::new(SeededRandom::new(seed)),
        );
        for _ in 0..reps {
            std::hint::black_box(run_workload(self.app.name, &mut rt, &self.indices));
        }
        t0.elapsed().as_secs_f64()
    }
}

/// A protected build prepared offline: sanitized + signed package, platform
/// and server stood up once. Timed runs cover load, `elide_restore`, and
/// the workload.
pub struct PreparedElide {
    app: App,
    package: elide_core::api::ProtectedPackage,
    platform: elide_core::api::Platform,
    server: std::sync::Arc<elide_core::server::AuthServer>,
    indices: std::collections::HashMap<String, u64>,
}

/// Builds, protects, and stands up the server once.
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn prepare_elide(app: &App, placement: DataPlacement) -> PreparedElide {
    use elide_core::api::{protect, Mode, Platform};
    use elide_crypto::rsa::RsaKeyPair;
    use sgx_sim::quote::AttestationService;
    let image = app.build_elide_image().expect("build");
    let mut rng = SeededRandom::new(0xF2);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &Mode::Whitelist, placement, &mut rng).expect("protect");
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = std::sync::Arc::new(package.make_server(ias));
    PreparedElide { app: app.clone(), package, platform, server, indices: app.protected_indices() }
}

impl PreparedElide {
    /// One timed run: enclave creation + restore + `reps` workload
    /// iterations, with a fresh sealed store (first-launch behaviour).
    ///
    /// # Panics
    ///
    /// Panics if the run fails.
    pub fn run_seconds(&self, seed: u64, reps: usize) -> f64 {
        use elide_core::protocol::InProcessTransport;
        use elide_core::restore::new_sealed_store;
        let t0 = Instant::now();
        let transport = std::sync::Arc::new(std::sync::Mutex::new(InProcessTransport::new(
            std::sync::Arc::clone(&self.server),
        )));
        let mut launched = self
            .package
            .launch(&self.platform, transport, new_sealed_store(), seed)
            .expect("launch");
        launched.restore(self.indices["elide_restore"]).expect("restore");
        for _ in 0..reps {
            std::hint::black_box(run_workload(self.app.name, &mut launched.runtime, &self.indices));
        }
        t0.elapsed().as_secs_f64()
    }
}

/// The five non-game benchmarks measured in Figures 3 and 4 (the games
/// "run forever" in the paper and are excluded there too).
pub fn figure_apps() -> Vec<App> {
    use elide_apps::*;
    vec![aes_app::app(), des_app::app(), sha1_app::app(), shas_app::app(), crackme::app()]
}

/// One timed arm of [`best_of_alternating`]: a launched runtime and the
/// ecall indices its workload calls.
pub type Arm<'a> = (&'a mut elide_enclave::runtime::EnclaveRuntime, &'a HashMap<String, u64>);

/// The one sampling rule of the throughput benches and `exec_gate`: runs
/// workload `name` once per arm as a discarded warm-up, then `reps` rounds
/// in which the arms take turns, and returns each arm's best-of-`reps`
/// (seconds, retired instructions). The host's speed drifts in phases
/// (the same arm can read twice as fast a second later), so arms that are
/// compared are timed in the same rounds: a slow phase lands on every arm
/// rather than on one, and their ratio holds. The instruction count is
/// identical across reps by construction.
pub fn best_of_alternating<const N: usize>(
    name: &str,
    mut arms: [Arm<'_>; N],
    reps: usize,
) -> [(f64, u64); N] {
    for (rt, indices) in arms.iter_mut() {
        run_workload(name, rt, indices);
    }
    let mut best = [(f64::INFINITY, 0); N];
    for _ in 0..reps {
        for ((rt, indices), (seconds, instructions)) in arms.iter_mut().zip(best.iter_mut()) {
            let base = rt.retired_total();
            let t0 = Instant::now();
            run_workload(name, rt, indices);
            *seconds = seconds.min(t0.elapsed().as_secs_f64());
            *instructions = rt.retired_total() - base;
        }
    }
    best
}

/// One measured configuration of a throughput bench: how many guest
/// instructions retired in how many seconds.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark app name.
    pub name: String,
    /// Build configuration (`"plain"` / `"elide"`).
    pub build: &'static str,
    /// Guest instructions retired over the timed region.
    pub instructions: u64,
    /// Wall-clock seconds of the timed region.
    pub seconds: f64,
}

impl BenchRecord {
    /// Millions of guest instructions per second.
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.seconds / 1e6
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A record that renders as one object in a `BENCH_*.json` results array.
pub trait JsonRecord {
    /// The unit of the schema's headline number.
    const UNIT: &'static str;

    /// The record as a one-line JSON object.
    fn to_json(&self) -> String;
}

/// Renders records as a machine-readable JSON document, one record per
/// line (hand-rolled: the workspace deliberately has no third-party
/// dependencies, and `exec_gate` parses this shape line by line).
pub fn records_json<R: JsonRecord>(bench: &str, records: &[R]) -> String {
    let rows: Vec<String> = records.iter().map(|r| format!("    {}", r.to_json())).collect();
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"unit\": \"{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        json_escape(bench),
        R::UNIT,
        rows.join(",\n")
    )
}

impl JsonRecord for BenchRecord {
    const UNIT: &'static str = "instructions_per_second";

    fn to_json(&self) -> String {
        format!(
            "{{\"app\": \"{}\", \"build\": \"{}\", \"instructions\": {}, \"seconds\": {:.6}, \
             \"mips\": {:.3}}}",
            json_escape(&self.name),
            json_escape(self.build),
            self.instructions,
            self.seconds,
            self.mips()
        )
    }
}

/// The workspace root, resolved at compile time. `exec_gate` reads its
/// tracked baseline `BENCH_exec_throughput.json` from here.
pub fn workspace_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// Writes `body` to `target/bench/BENCH_<name>.json` under the workspace
/// root and returns the path. Benches never write a tracked file: a change
/// that means to move a tracked repo-root `BENCH_*.json` copies it over by
/// hand.
///
/// # Errors
///
/// Propagates the underlying directory-create or file-write error.
pub fn write_json(name: &str, body: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = workspace_root().join("target").join("bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

/// One measured crypto kernel: `bytes` processed per iteration, `iters`
/// iterations over `seconds` of wall clock.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Kernel name (e.g. `"aes_gcm_seal"`).
    pub name: String,
    /// Bytes processed per iteration (0 for pure op-rate kernels).
    pub bytes: u64,
    /// Iterations in the timed region.
    pub iters: u64,
    /// Wall-clock seconds of the timed region.
    pub seconds: f64,
}

impl KernelRecord {
    /// Megabytes per second (0 when the kernel is op-rate only).
    pub fn mb_per_s(&self) -> f64 {
        (self.bytes * self.iters) as f64 / self.seconds / 1e6
    }

    /// Iterations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.iters as f64 / self.seconds
    }
}

impl JsonRecord for KernelRecord {
    const UNIT: &'static str = "mb_per_s";

    fn to_json(&self) -> String {
        format!(
            "{{\"kernel\": \"{}\", \"bytes\": {}, \"iters\": {}, \"seconds\": {:.6}, \
             \"mb_per_s\": {:.3}, \"ops_per_s\": {:.3}}}",
            json_escape(&self.name),
            self.bytes,
            self.iters,
            self.seconds,
            self.mb_per_s(),
            self.ops_per_s()
        )
    }
}

/// One measured EPC-pressure configuration: enclave relaunch rates and
/// execution throughput at a given oversubscription factor (resident page
/// cap = total REG pages / factor).
#[derive(Debug, Clone)]
pub struct PressureRecord {
    /// Benchmark app name.
    pub app: String,
    /// Build configuration (`"plain"` / `"elide"`).
    pub build: &'static str,
    /// EPC oversubscription factor (1 = whole working set resident).
    pub factor: usize,
    /// Resident REG-page cap derived from the factor.
    pub page_cap: usize,
    /// Total REG pages the enclave holds when unconstrained.
    pub total_pages: usize,
    /// Warm relaunches per second (sealed fast-path restore for the elide
    /// build; pre-parsed [`elide_enclave::loader::ImagePlan`] reload for
    /// plain).
    pub warm_per_s: f64,
    /// Cold launches per second (full attested handshake for the elide
    /// build; ELF re-parse + load for plain).
    pub cold_per_s: f64,
    /// Execution throughput under the page cap, millions of guest
    /// instructions per second (best-of-reps).
    pub mips: f64,
    /// Page evictions (clean drops + EWBs) since the budget was armed:
    /// the warm restore (elide build) plus the throughput region.
    pub evictions: u64,
    /// Page reloads over the same span.
    pub reloads: u64,
}

impl PressureRecord {
    /// Warm-over-cold relaunch speedup.
    pub fn speedup(&self) -> f64 {
        if self.cold_per_s > 0.0 {
            self.warm_per_s / self.cold_per_s
        } else {
            0.0
        }
    }
}

impl JsonRecord for PressureRecord {
    const UNIT: &'static str = "relaunches_per_second";

    fn to_json(&self) -> String {
        format!(
            "{{\"app\": \"{}\", \"build\": \"{}\", \"factor\": {}, \"page_cap\": {}, \
             \"total_pages\": {}, \"warm_per_s\": {:.1}, \"cold_per_s\": {:.1}, \
             \"speedup\": {:.2}, \"mips\": {:.3}, \"evictions\": {}, \"reloads\": {}}}",
            json_escape(&self.app),
            json_escape(self.build),
            self.factor,
            self.page_cap,
            self.total_pages,
            self.warm_per_s,
            self.cold_per_s,
            self.speedup(),
            self.mips,
            self.evictions,
            self.reloads
        )
    }
}

/// The oversubscription factors the EPC-pressure bench sweeps.
pub const PRESSURE_FACTORS: [usize; 3] = [1, 4, 16];

/// Times the throughput region ([`best_of_alternating`] over the one arm)
/// on a runtime whose budget is already armed, returning (mips, evictions,
/// reloads), the counters accumulated since the budget was armed (the
/// warm-up's first-touch reloads included).
fn pressure_mips(
    name: &str,
    rt: &mut elide_enclave::runtime::EnclaveRuntime,
    indices: &HashMap<String, u64>,
    reps: usize,
) -> (f64, u64, u64) {
    let [(seconds, instructions)] = best_of_alternating(name, [(&mut *rt, indices)], reps);
    let (ev, rl) =
        rt.epc_budget().map(|b| (b.stats().evictions, b.stats().reloads)).unwrap_or((0, 0));
    (instructions as f64 / seconds / 1e6, ev, rl)
}

/// Measures the **elide** build of `app` under EPC pressure: cold
/// full-handshake launch rate once, then per factor the warm sealed-restore
/// rate and execution throughput under the derived page cap.
///
/// # Panics
///
/// Panics if any pipeline stage fails (benchmark harness context).
pub fn epc_pressure_elide(app: &App, reps: usize) -> Vec<PressureRecord> {
    use elide_core::api::{protect, Mode, Platform};
    use elide_core::protocol::InProcessTransport;
    use elide_core::restore::new_sealed_store;
    use elide_crypto::rsa::RsaKeyPair;
    use sgx_sim::budget::EpcBudget;
    use sgx_sim::quote::AttestationService;
    use std::sync::{Arc, Mutex};

    let image = app.build_elide_image().expect("build");
    let mut rng = SeededRandom::new(0xE9C);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
        .expect("protect");
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    let plan = package.image_plan().expect("plan");
    let indices = app.protected_indices();
    let restore_idx = indices["elide_restore"];

    // Provision once: the sealed blob every warm start below reuses.
    let sealed = new_sealed_store();
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut launched = package
        .launch_planned(&plan, &platform, transport, Arc::clone(&sealed), 0xC01D)
        .expect("launch");
    launched.restore(restore_idx).expect("restore");
    let total_pages = launched.runtime.enclave().resident_reg_pages();
    drop(launched);

    // Cold rate: every cycle pays ELF-planned load + DH + attestation +
    // GCM transfer (fresh sealed store each time).
    let t0 = Instant::now();
    for i in 0..reps {
        let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
        let mut l = package
            .launch_planned(&plan, &platform, transport, new_sealed_store(), 0xC01D + i as u64)
            .expect("launch");
        l.restore(restore_idx).expect("restore");
    }
    let cold_per_s = reps as f64 / t0.elapsed().as_secs_f64();

    let mut records = Vec::new();
    for factor in PRESSURE_FACTORS {
        let page_cap = (total_pages / factor).max(1);

        // Warm rate under the cap: load from the plan, arm the budget,
        // sealed fast-path restore — zero server contact.
        let t0 = Instant::now();
        let mut last = None;
        for i in 0..reps {
            let mut l = package
                .warm_start(&plan, &platform, Arc::clone(&sealed), 0x3A91 + i as u64)
                .expect("warm start");
            let mut brng = SeededRandom::new(0xB0D6 + i as u64);
            l.runtime.set_epc_budget(EpcBudget::new(page_cap, &mut brng)).expect("budget");
            l.restore(restore_idx).expect("warm restore");
            last = Some(l);
        }
        let warm_per_s = reps as f64 / t0.elapsed().as_secs_f64();

        let mut l = last.expect("reps > 0");
        let (mips, evictions, reloads) = pressure_mips(app.name, &mut l.runtime, &indices, reps);
        records.push(PressureRecord {
            app: app.name.to_string(),
            build: "elide",
            factor,
            page_cap,
            total_pages,
            warm_per_s,
            cold_per_s,
            mips,
            evictions,
            reloads,
        });
    }
    records
}

/// Measures the **plain** build of `app` under EPC pressure. "Cold" pays
/// the ELF parse + load every cycle; "warm" reloads from a pre-parsed
/// [`elide_enclave::loader::ImagePlan`]. There is no restore step.
///
/// # Panics
///
/// Panics if any pipeline stage fails.
pub fn epc_pressure_plain(app: &App, reps: usize) -> Vec<PressureRecord> {
    use elide_crypto::rsa::RsaKeyPair;
    use elide_enclave::loader::{sign_enclave, ImagePlan};
    use elide_enclave::runtime::EnclaveRuntime;
    use sgx_sim::budget::EpcBudget;

    let image = app.build_plain_image().expect("build");
    let mut rng = SeededRandom::new(0xB1A);
    let cpu = sgx_sim::SgxCpu::new(&mut rng);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let sigstruct = sign_enclave(&image, &vendor, 1, 1).expect("sign");
    let plan = ImagePlan::new(&image).expect("plan");
    let indices = app.plain_indices();

    let probe = plan.load(&cpu, &sigstruct).expect("load");
    let total_pages = probe.enclave.resident_reg_pages();
    drop(probe);

    let t0 = Instant::now();
    for _ in 0..reps {
        let p = ImagePlan::new(&image).expect("plan");
        std::hint::black_box(p.load(&cpu, &sigstruct).expect("load"));
    }
    let cold_per_s = reps as f64 / t0.elapsed().as_secs_f64();

    let mut records = Vec::new();
    for factor in PRESSURE_FACTORS {
        let page_cap = (total_pages / factor).max(1);

        let t0 = Instant::now();
        let mut last = None;
        for i in 0..reps {
            let loaded = plan.load(&cpu, &sigstruct).expect("load");
            let mut rt =
                EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(0x11 + i as u64)));
            let mut brng = SeededRandom::new(0xB0D6 + i as u64);
            rt.set_epc_budget(EpcBudget::new(page_cap, &mut brng)).expect("budget");
            last = Some(rt);
        }
        let warm_per_s = reps as f64 / t0.elapsed().as_secs_f64();

        let mut rt = last.expect("reps > 0");
        let (mips, evictions, reloads) = pressure_mips(app.name, &mut rt, &indices, reps);
        records.push(PressureRecord {
            app: app.name.to_string(),
            build: "plain",
            factor,
            page_cap,
            total_pages,
            warm_per_s,
            cold_per_s,
            mips,
            evictions,
            reloads,
        });
    }
    records
}

/// One measured configuration of the delegated-provisioning bench: `peers`
/// enclaves provisioned per repetition, either each against the origin
/// server ("central") or through one local delegate ("delegated" — the
/// per-rep cost includes standing the delegate up, so the single origin
/// handshake it amortises is inside the timed region).
#[derive(Debug, Clone)]
pub struct DelegationRecord {
    /// Provisioning mode: `"central"` or `"delegated"`.
    pub mode: &'static str,
    /// Peer enclaves provisioned per repetition.
    pub peers: usize,
    /// Repetitions timed.
    pub reps: usize,
    /// Origin handshakes consumed per repetition (the headline: `peers`
    /// for central, exactly 1 for delegated).
    pub origin_handshakes: u64,
    /// Peer provisions per second over the whole timed region.
    pub provisions_per_s: f64,
}

impl DelegationRecord {
    /// Mean wall-clock milliseconds per peer provision.
    pub fn ms_per_peer(&self) -> f64 {
        if self.provisions_per_s > 0.0 {
            1e3 / self.provisions_per_s
        } else {
            0.0
        }
    }
}

impl JsonRecord for DelegationRecord {
    const UNIT: &'static str = "provisions_per_second";

    fn to_json(&self) -> String {
        format!(
            "{{\"mode\": \"{}\", \"peers\": {}, \"reps\": {}, \"origin_handshakes\": {}, \
             \"provisions_per_s\": {:.1}, \"ms_per_peer\": {:.3}}}",
            json_escape(self.mode),
            self.peers,
            self.reps,
            self.origin_handshakes,
            self.provisions_per_s,
            self.ms_per_peer()
        )
    }
}

/// Measures host-level provisioning fan-out: `peers` enclaves per rep,
/// central (every peer pays the full origin handshake) vs delegated (one
/// delegate stands up against the origin, every peer restores from it over
/// local attestation). Returns one record per mode.
///
/// # Panics
///
/// Panics if any pipeline stage fails (benchmark harness context).
pub fn delegation_provisioning(peers: usize, reps: usize) -> Vec<DelegationRecord> {
    use elide_core::api::{protect, Mode, Platform};
    use elide_core::client::ProvisionClient;
    use elide_core::delegation::{DelegateServer, EcallReportVerifier};
    use elide_core::elide_asm::ELIDE_ASM;
    use elide_core::protocol::{InProcessTransport, Transport};
    use elide_core::restore::{new_sealed_store, RestoreRoute};
    use elide_core::ticket::now_ms;
    use elide_core::ElideError;
    use elide_crypto::rsa::RsaKeyPair;
    use sgx_sim::quote::{AttestationService, QE_MEASUREMENT};
    use sgx_sim::report::{ereport, TargetInfo};
    use std::sync::{Arc, Mutex};

    const RESTORE_IDX: u64 = 1;
    const VERIFY_IDX: u64 = 2;

    let mut rng = SeededRandom::new(0xDE1E);
    let mut b = elide_enclave::image::EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(
            ".section text\n.global get_answer\n.func get_answer\n    movi r0, 42\n    ret\n.endfunc\n",
        )
        .ecall("get_answer")
        .ecall("elide_restore")
        .ecall("elide_verify_report");
    let image = b.build().expect("assemble delegation guest");
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
        .expect("protect");

    let mut scratch = AttestationService::new();
    let platform = Arc::new(Platform::provision(&mut rng, &mut scratch));
    let mut ias = AttestationService::new();
    ias.register_device(platform.qe.device_public_key().clone());
    let mrenclave = package.mrenclave;
    let mrsigner = package.sigstruct.mrsigner().expect("mrsigner");
    let server = Arc::new(package.make_server(ias));
    server.authorize_delegate(mrenclave, &[(mrenclave, mrsigner)]);
    let plan = package.image_plan().expect("plan");

    let origin =
        |server: &Arc<elide_core::server::AuthServer>| -> Arc<Mutex<dyn Transport + Send>> {
            Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(server))))
        };

    // Central: every peer runs the full DH + quote + GCM handshake.
    let before = server.handshakes();
    let t0 = Instant::now();
    for rep in 0..reps {
        for i in 0..peers {
            let seed = 0xC000 + (rep * peers + i) as u64;
            let mut l = package
                .launch_planned(&plan, &platform, origin(&server), new_sealed_store(), seed)
                .expect("launch");
            l.restore(RESTORE_IDX).expect("central restore");
        }
    }
    let central_s = t0.elapsed().as_secs_f64();
    let central_handshakes = (server.handshakes() - before) / reps as u64;

    // Delegated: one stand-up handshake per rep, then every peer restores
    // from the local delegate over a targeted report.
    let before = server.handshakes();
    let t0 = Instant::now();
    for rep in 0..reps {
        let host_seed = 0xD000 + rep as u64;
        let anchor = package
            .launch_planned(&plan, &platform, origin(&server), new_sealed_store(), host_seed)
            .expect("anchor launch");
        let anchor = Arc::new(Mutex::new(anchor));
        let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(host_seed)));
        let mut transport = InProcessTransport::new(Arc::clone(&server));
        let a = Arc::clone(&anchor);
        let qe = Arc::clone(&platform.qe);
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
        let origin_key = server.delegation_public_key().expect("delegation key");
        let bundle = client.fetch_delegation(&mut transport, &origin_key).expect("bundle");
        let verifier = EcallReportVerifier::new(anchor, VERIFY_IDX, mrenclave);
        let delegate = DelegateServer::new(
            bundle,
            &origin_key,
            Box::new(verifier),
            Box::new(SeededRandom::new(host_seed ^ 0xD11)),
            now_ms(),
        )
        .expect("delegate stands up");
        let target = delegate.policy().delegate_mrenclave;
        for i in 0..peers {
            let seed = 0xE000 + (rep * peers + i) as u64;
            let peer: Arc<Mutex<dyn Transport + Send>> = Arc::new(Mutex::new(delegate.connect()));
            let route = RestoreRoute { origin: origin(&server), delegate: Some(peer) };
            let mut l = package
                .launch_routed(&plan, &platform, route, new_sealed_store(), seed)
                .expect("peer launch");
            l.restore_delegated(RESTORE_IDX, &target).expect("delegated restore");
        }
    }
    let delegated_s = t0.elapsed().as_secs_f64();
    let delegated_handshakes = (server.handshakes() - before) / reps as u64;

    let total = (peers * reps) as f64;
    vec![
        DelegationRecord {
            mode: "central",
            peers,
            reps,
            origin_handshakes: central_handshakes,
            provisions_per_s: total / central_s,
        },
        DelegationRecord {
            mode: "delegated",
            peers,
            reps,
            origin_handshakes: delegated_handshakes,
            provisions_per_s: total / delegated_s,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_sample() {
        let s = stats(&[0.002, 0.002, 0.002]);
        assert!((s.mean_ms - 2.0).abs() < 1e-9);
        assert!(s.std_ms.abs() < 1e-9);
    }

    /// Writes `records` through `write_json` under a test-only name and
    /// returns the file's contents, checked for balanced braces.
    fn written<R: JsonRecord>(name: &str, records: &[R]) -> String {
        let path = write_json(name, &records_json(name, records)).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("remove");
        assert!(text.contains(&format!("\"bench\": \"{name}\"")), "{text}");
        assert!(text.contains(&format!("\"unit\": \"{}\"", R::UNIT)), "{text}");
        assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");
        assert_eq!(text.lines().filter(|l| l.starts_with("    {")).count(), records.len());
        text
    }

    #[test]
    fn every_schema_is_well_formed_through_write_json() {
        let json = written(
            "test_bench_schema",
            &[
                BenchRecord {
                    name: "aes".into(),
                    build: "plain",
                    instructions: 1000,
                    seconds: 0.5,
                },
                BenchRecord {
                    name: "a\"b".into(),
                    build: "elide",
                    instructions: 2000,
                    seconds: 1.0,
                },
            ],
        );
        assert!(json.contains("\"mips\": 0.002"));
        assert!(json.contains("a\\\"b"), "quotes must be escaped: {json}");

        let json = written(
            "test_kernel_schema",
            &[
                KernelRecord {
                    name: "aes_gcm_seal".into(),
                    bytes: 1 << 20,
                    iters: 8,
                    seconds: 0.5,
                },
                KernelRecord { name: "rsa_verify".into(), bytes: 0, iters: 100, seconds: 1.0 },
            ],
        );
        assert!(json.contains("\"kernel\": \"aes_gcm_seal\""));
        assert!(json.contains("\"ops_per_s\": 100.000"));

        let json = written(
            "test_pressure_schema",
            &[PressureRecord {
                app: "Sha1".into(),
                build: "elide",
                factor: 16,
                page_cap: 3,
                total_pages: 52,
                warm_per_s: 500.0,
                cold_per_s: 100.0,
                mips: 12.5,
                evictions: 40,
                reloads: 41,
            }],
        );
        assert!(json.contains("\"factor\": 16"));
        assert!(json.contains("\"speedup\": 5.00"));
        assert!(json.contains("\"reloads\": 41"));

        let json = written(
            "test_delegation_schema",
            &[
                DelegationRecord {
                    mode: "central",
                    peers: 4,
                    reps: 10,
                    origin_handshakes: 4,
                    provisions_per_s: 250.0,
                },
                DelegationRecord {
                    mode: "delegated",
                    peers: 4,
                    reps: 10,
                    origin_handshakes: 1,
                    provisions_per_s: 500.0,
                },
            ],
        );
        assert!(json.contains("\"mode\": \"delegated\""));
        assert!(json.contains("\"origin_handshakes\": 1"));
        assert!(json.contains("\"ms_per_peer\": 2.000"));
    }

    #[test]
    fn write_json_lands_under_target_bench() {
        let path = write_json("test_path", "{}\n").expect("write");
        std::fs::remove_file(&path).expect("remove");
        assert!(path.starts_with(workspace_root().join("target").join("bench")), "{path:?}");
        assert_eq!(path.file_name(), Some("BENCH_test_path.json".as_ref()));
    }

    #[test]
    fn workspace_root_is_a_workspace() {
        assert!(workspace_root().join("Cargo.toml").is_file());
        assert!(workspace_root().join("crates/bench").is_dir());
    }

    #[test]
    fn table1_row_smoke() {
        let app = elide_apps::crackme::app();
        let wl = Whitelist::from_dummy_enclave().unwrap();
        let row = table1_row(&app, &wl);
        assert!(row.tc_functions > row.sanitized_functions);
        assert!(row.sanitized_bytes > 0);
        assert!(row.tc_bytes > row.sanitized_bytes);
    }
}
