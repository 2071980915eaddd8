//! CI-friendly wrapper around the EPC-pressure sweep: runs a reduced
//! single-app version of `benches/epc_pressure.rs` (Sha1 only, few reps)
//! and gates on the structural invariants rather than absolute rates —
//! suitable for smoke jobs on noisy shared runners:
//!
//! * the warm sealed-restore path must beat the cold full-handshake launch
//!   at every oversubscription factor (`ELIDE_PRESSURE_MIN_SPEEDUP`,
//!   default 2.0, sets the floor; the committed-number bench asserts 5x);
//! * eviction/reload counters must be zero at 1x and nonzero at 16x (the
//!   budget is actually exercising the EWB/ELDU cycle);
//! * throughput must stay finite and nonzero under thrash.
//!
//! Writes no file; the full bench (`cargo bench --bench epc_pressure`)
//! writes `target/bench/BENCH_epc_pressure.json`.

use elide_bench::epc_pressure_elide;

fn main() {
    let reps: usize = std::env::var("ELIDE_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5);
    let min_speedup: f64 = std::env::var("ELIDE_PRESSURE_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    let app = elide_apps::sha1_app::app();
    let records = epc_pressure_elide(&app, reps);
    let mut failures = Vec::new();

    for r in &records {
        println!(
            "{} elide {}x: cap={} warm/s={:.1} cold/s={:.1} speedup={:.2}x mips={:.2} \
             evictions={} reloads={}",
            r.app,
            r.factor,
            r.page_cap,
            r.warm_per_s,
            r.cold_per_s,
            r.speedup(),
            r.mips,
            r.evictions,
            r.reloads
        );
        if r.speedup() < min_speedup {
            failures.push(format!(
                "{} @{}x: warm speedup {:.2}x < {min_speedup}x",
                r.app,
                r.factor,
                r.speedup()
            ));
        }
        if !(r.mips.is_finite() && r.mips > 0.0) {
            failures.push(format!("{} @{}x: bogus mips {}", r.app, r.factor, r.mips));
        }
        if r.factor == 1 && (r.evictions != 0 || r.reloads != 0) {
            failures.push(format!(
                "{} @1x: unexpected paging (evictions={} reloads={})",
                r.app, r.evictions, r.reloads
            ));
        }
        if r.factor == 16 && r.reloads == 0 {
            failures.push(format!("{} @16x: budget never paged", r.app));
        }
    }

    if failures.is_empty() {
        println!("epc_pressure gate OK ({} configs, floor {min_speedup}x)", records.len());
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
