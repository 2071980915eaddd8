//! Regenerates every table and figure of the paper's evaluation (§6), in
//! `EXPERIMENTS.md` order and as markdown tables in its column layout:
//!
//! * **Table 1** — size characteristics of each benchmark's trusted
//!   component and of what the sanitizer redacts, plus the whitelist
//!   (§6.2 reports 170 functions for the SDK build; ours is smaller
//!   because SDK crypto is modeled as intrinsics).
//! * **Table 2** — sanitize and restore time (ms), remote vs local data,
//!   mean ± standard deviation over 10 runs, the paper's methodology ("We
//!   ran the sanitizer 10 times per benchmark, then took the average and
//!   standard deviation").
//! * **Figures 3 and 4** — end-to-end runtime of each non-game benchmark
//!   (enclave creation + built-in test suite) normalized to the plain SGX
//!   build, with remote and local secret data. Offline steps (sanitize,
//!   sign, provisioning) happen before timing, as for a shipped binary.
//! * **Ablations** — whitelist vs blacklist sanitization (§3.2) with the
//!   payload each ships, and the first restore (full attested handshake)
//!   vs a sealed relaunch with no server contact (step ❼).
//!
//! `cargo run --release -p elide-bench --bin paper` takes no flags or
//! environment variables.

use elide_apps::harness::{launch_protected, App};
use elide_bench::{
    figure_apps, prepare_elide, prepare_plain, restore_times, sanitize_times, stats, table1_row,
    time_runs, Stats,
};
use elide_core::sanitizer::{sanitize, sanitize_blacklist, DataPlacement, SanitizedEnclave};
use elide_core::whitelist::Whitelist;
use elide_crypto::rng::SeededRandom;
use std::time::Instant;

/// Runs per measurement, as in the paper.
const RUNS: usize = 10;

/// `mean ± std` in milliseconds with `decimals` places.
fn pm(s: Stats, decimals: usize) -> String {
    format!("{:.*} ± {:.*}", decimals, s.mean_ms, decimals, s.std_ms)
}

fn table1(whitelist: &Whitelist) {
    println!("## Table 1 — benchmark characteristics\n");
    println!("| Benchmark | ASM LOC | TC funcs | TC bytes | Sanitized funcs | Sanitized bytes |");
    println!("|---|---|---|---|---|---|");
    for app in elide_apps::all_apps() {
        let r = table1_row(&app, whitelist);
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            r.name, r.asm_loc, r.tc_functions, r.tc_bytes, r.sanitized_functions, r.sanitized_bytes
        );
    }
    let names: Vec<String> = whitelist.iter().map(|f| format!("`{f}`")).collect();
    println!("\nWhitelist size: **{}** functions ({}).\n", whitelist.len(), names.join(", "));
}

fn table2() {
    println!("## Table 2 — sanitize / restore time (ms, mean ± std, {RUNS} runs)\n");
    println!(
        "| Benchmark | Sanitize (remote) | Restore (remote) | Sanitize (local) | Restore (local) |"
    );
    println!("|---|---|---|---|---|");
    for app in elide_apps::all_apps() {
        let mut row = format!("| {} |", app.name);
        for placement in [DataPlacement::Remote, DataPlacement::LocalEncrypted] {
            let san = sanitize_times(&app, placement, RUNS);
            let res = restore_times(&app, placement, RUNS);
            row += &format!(" {} | {} |", pm(san, 3), pm(res, 2));
        }
        println!("{row}");
    }
    println!();
}

/// Workload iterations per run, sized so the suite dominates the runtime
/// (as in the paper, where the test suites run far longer than startup).
fn figure_reps(app: &App) -> usize {
    match app.name {
        "AES" => 10,
        "DES" => 6,
        "Sha1" | "Shas" => 40,
        _ => 400, // Crackme: each check is microseconds
    }
}

fn figures() {
    println!("## Figures 3 & 4 — end-to-end overhead (normalized to \"w/ SGX\", {RUNS} runs)\n");
    println!("| Benchmark | Fig 3 (remote) | Fig 4 (local) |");
    println!("|---|---|---|");
    for app in figure_apps() {
        let plain = prepare_plain(&app);
        let reps = figure_reps(&app);
        let mut row = format!("| {} |", app.name);
        for placement in [DataPlacement::Remote, DataPlacement::LocalEncrypted] {
            let elide = prepare_elide(&app, placement);
            let p: Vec<f64> = (0..RUNS).map(|i| plain.run_seconds(100 + i as u64, reps)).collect();
            let e: Vec<f64> = (0..RUNS).map(|i| elide.run_seconds(200 + i as u64, reps)).collect();
            row += &format!(" {:.0}% |", stats(&e).mean_ms / stats(&p).mean_ms * 100.0);
        }
        println!("{row}");
    }
    println!();
}

fn ablations(whitelist: &Whitelist) {
    let app = elide_apps::crackme::app();
    let image = app.build_elide_image().expect("build");
    println!("## Ablations ({}, {RUNS} runs)\n", app.name);

    println!("| Sanitize mode | Time (ms) | Payload bytes |");
    println!("|---|---|---|");
    let mode_row = |label: &str, run: &dyn Fn(&mut SeededRandom) -> SanitizedEnclave| {
        let mut rng = SeededRandom::new(1);
        let time = stats(&time_runs(RUNS, || {
            std::hint::black_box(run(&mut rng));
        }));
        println!("| {label} | {} | {} |", pm(time, 3), run(&mut rng).secret_data.len());
    };
    mode_row("whitelist", &|rng| {
        sanitize(&image, whitelist, DataPlacement::Remote, rng).expect("sanitize")
    });
    mode_row("blacklist", &|rng| {
        sanitize_blacklist(&image, &["check_password"], DataPlacement::Remote, rng)
            .expect("sanitize")
    });

    println!("\n| Restore path | Time (ms) |");
    println!("|---|---|");
    let first = restore_times(&app, DataPlacement::Remote, RUNS);
    println!("| first restore, full attestation | {} |", pm(first, 2));
    let sealed: Vec<f64> = (0..RUNS as u64)
        .map(|run| {
            let mut p = launch_protected(&app, DataPlacement::Remote, 1000 + run).expect("launch");
            p.restore().expect("first restore");
            p.relaunch(2000 + run).expect("relaunch");
            let t0 = Instant::now();
            p.restore().expect("sealed restore");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    println!("| sealed relaunch, no server | {} |", pm(stats(&sealed), 2));
}

fn main() {
    let whitelist = Whitelist::from_dummy_enclave().expect("whitelist");
    table1(&whitelist);
    table2();
    figures();
    ablations(&whitelist);
}
