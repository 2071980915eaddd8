//! EPC pressure: enclave relaunch rates and execution throughput under a
//! bounded resident-page budget, at 1x/4x/16x oversubscription (page cap =
//! total REG pages / factor), for both builds:
//!
//! * `plain` — cold = ELF parse + load per cycle; warm = pre-parsed
//!   [`elide_enclave::loader::ImagePlan`] reload. No restore step.
//! * `elide` — cold = planned load + full DH/attestation handshake + GCM
//!   transfer (fresh sealed store per cycle); warm = planned load + sealed
//!   fast-path restore (`EGETKEY` + in-place decrypt, zero server contact).
//!
//! The throughput region runs the workload with the budget armed, so at 4x
//! and 16x the EWB/ELDU paging cost (and the translation-cache
//! invalidations it forces) lands inside the timed region — that MIPS
//! degradation is the cost curve this bench exists to track.
//!
//! Emits `target/bench/BENCH_epc_pressure.json`.
//! `ELIDE_BENCH_REPS` overrides the per-config repetition count.
//!
//! Plain-main harness (`cargo bench --bench epc_pressure`).

use elide_bench::{
    epc_pressure_elide, epc_pressure_plain, records_json, write_json, PressureRecord,
};

fn print_rec(r: &PressureRecord) {
    println!(
        "{:<8} {:>6} {:>4}x {:>6} {:>12.1} {:>12.1} {:>8.2}x {:>9.2} {:>9} {:>9}",
        r.app,
        r.build,
        r.factor,
        r.page_cap,
        r.warm_per_s,
        r.cold_per_s,
        r.speedup(),
        r.mips,
        r.evictions,
        r.reloads
    );
}

fn main() {
    let reps: usize = std::env::var("ELIDE_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(30);

    let apps = {
        use elide_apps::*;
        vec![aes_app::app(), sha1_app::app()]
    };

    println!("epc_pressure (reps={reps})");
    println!(
        "{:<8} {:>6} {:>5} {:>6} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "app", "build", "over", "cap", "warm/s", "cold/s", "speedup", "mips", "evict", "reload"
    );

    let mut records = Vec::new();
    for app in &apps {
        for rec in epc_pressure_plain(app, reps) {
            print_rec(&rec);
            records.push(rec);
        }
        for rec in epc_pressure_elide(app, reps) {
            print_rec(&rec);
            records.push(rec);
        }
    }

    // Record first, then gate: a run that fails the claim below still
    // leaves its measurements behind.
    let path =
        write_json("epc_pressure", &records_json("epc_pressure", &records)).expect("write json");
    println!("\nwrote {}", path.display());

    // The headline claim: at 4x oversubscription a warm start (sealed
    // fast path) must beat the cold full-handshake launch by >= 5x.
    for r in records.iter().filter(|r| r.build == "elide" && r.factor == 4) {
        let s = r.speedup();
        assert!(s >= 5.0, "{}: warm-start speedup {s:.2}x < 5x at 4x oversubscription", r.app);
    }
}
