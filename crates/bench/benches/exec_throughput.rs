//! Raw execution-engine throughput (instructions per second) on the
//! instruction-bound paper workloads. Three rows per app:
//!
//! * `interp`  — plain build, per-instruction interpreter loop
//! * `plain`   — plain build, superblock translation (the default engine)
//! * `elide`   — SgxElide-protected build after restore, superblocks
//!
//! Launch and restore are *excluded* from the timed region: this isolates
//! the execution engine itself, and the `plain`/`interp` ratio is the
//! speedup the superblock translator buys over the decode-cache
//! interpreter.
//!
//! Each repetition is timed separately and the **minimum** per-rep time is
//! reported: on shared machines the distribution is one-sided (interference
//! only ever adds time), so the minimum is the most stable estimate of the
//! engine's actual speed.
//!
//! Emits `target/bench/BENCH_exec_throughput.json`; `exec_gate` compares
//! against the tracked repo-root copy, which a change updates by hand.
//! `ELIDE_BENCH_REPS` overrides the per-app repetition count (CI smoke runs
//! use a tiny value).
//!
//! Plain-main harness (`cargo bench --bench exec_throughput`).

use elide_apps::harness::{launch_plain, launch_protected};
use elide_apps::run_workload;
use elide_bench::{records_json, write_json, BenchRecord};
use elide_core::sanitizer::DataPlacement;
use elide_enclave::EnclaveRuntime;
use elide_vm::interp::Engine;
use std::collections::HashMap;
use std::time::Instant;

/// Times `reps` workload repetitions and returns the record built from the
/// fastest one (instructions are identical across reps by construction).
fn time_workload(
    name: &'static str,
    build: &'static str,
    rt: &mut EnclaveRuntime,
    indices: &HashMap<String, u64>,
    reps: usize,
) -> BenchRecord {
    run_workload(name, rt, indices); // warmup
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..reps {
        let base = rt.retired_total();
        let t0 = Instant::now();
        run_workload(name, rt, indices);
        let seconds = t0.elapsed().as_secs_f64();
        instructions = rt.retired_total() - base;
        if seconds < best {
            best = seconds;
        }
    }
    BenchRecord { name: name.to_string(), build, instructions, seconds: best }
}

fn print_rec(rec: &BenchRecord) {
    println!(
        "{:<14} {:>8} {:>14} {:>10.2} {:>10.2}",
        rec.name,
        rec.build,
        rec.instructions,
        rec.seconds * 1e3,
        rec.mips()
    );
}

fn main() {
    let reps: usize = std::env::var("ELIDE_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(30);

    // The crypto kernels: tight arithmetic loops over enclave data, where
    // fetch/decode/dispatch dominates an interpreter's runtime — plus the
    // memory-bound apps (JSON scan, Merkle build) whose hot loops are bulk
    // copies/compares the sealed intrinsics accelerate.
    let apps = {
        use elide_apps::*;
        vec![
            aes_app::app(),
            des_app::app(),
            sha1_app::app(),
            xtea::app(),
            json_app::app(),
            merkle_app::app(),
        ]
    };

    let mut records = Vec::new();
    println!("exec_throughput (reps={reps}, best-of-rep)");
    println!("{:<14} {:>8} {:>14} {:>10} {:>10}", "app", "build", "instructions", "ms", "mips");

    for app in &apps {
        // Plain build, interpreter engine: the pre-translation baseline.
        let mut p = launch_plain(app, 42).expect("launch");
        p.runtime.set_engine(Engine::Interp);
        let rec = time_workload(app.name, "interp", &mut p.runtime, &p.indices, reps);
        print_rec(&rec);
        records.push(rec);

        // Same build and enclave, superblock engine.
        p.runtime.set_engine(Engine::Superblock);
        let rec = time_workload(app.name, "plain", &mut p.runtime, &p.indices, reps);
        print_rec(&rec);
        records.push(rec);

        // SgxElide build: launch + restore untimed, same timed region.
        let mut p = launch_protected(app, DataPlacement::Remote, 42).expect("launch");
        p.restore().expect("restore");
        let rec = time_workload(app.name, "elide", &mut p.app.runtime, &p.indices, reps);
        print_rec(&rec);
        records.push(rec);
    }

    // Intrinsic-off ("soft") rows for the bulk-intrinsic apps: same
    // workload, same outputs, but every MEMCPY/MEMCMP/SHA256_COMPRESS is
    // an Elc loop. The plain/soft gap is what the sealed intrinsics buy.
    {
        use elide_apps::harness::App;
        use elide_apps::{json_app, merkle_app};
        type Variant = (fn(bool) -> App, &'static str);
        let variants: [Variant; 2] =
            [(json_app::app_with, "JSON"), (merkle_app::app_with, "Merkle")];
        for (build, name) in variants {
            let soft = build(false);
            let mut p = launch_plain(&soft, 42).expect("launch");
            let rec = time_workload(name, "soft", &mut p.runtime, &p.indices, reps);
            print_rec(&rec);
            records.push(rec);
        }
    }

    let path = write_json("exec_throughput", &records_json("exec_throughput", &records))
        .expect("write json");
    println!("\nwrote {}", path.display());
}
