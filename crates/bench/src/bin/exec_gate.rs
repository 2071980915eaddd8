//! CI regression gate for execution throughput: re-measures the
//! interp/superblock engines on the crypto workloads and fails (exit 1) if
//! the superblock speedup has regressed by more than the tolerance against
//! the tracked `BENCH_exec_throughput.json` at the workspace root. The
//! `exec_throughput` bench writes to `target/bench/`, never to that file;
//! a change that means to move the baseline copies it over by hand.
//!
//! Absolute MIPS are machine-dependent — CI runners and dev boxes differ
//! by integer factors — so the gate compares the **plain/interp ratio**
//! (translator speedup over the interpreter on the same machine, same
//! binary, same run), which is stable across hosts. A translator change
//! that loses >20% of its speedup fails the gate even on a faster machine.
//!
//! Each app also gets an oversubscribed row: the same workload re-runs
//! under a 4x page deficit (`EpcBudget` at resident/4). That row gates
//! behaviour, not speed — the run must still pass the workload's
//! differential checks, must actually page (evictions > 0, no reload
//! failures), and must not collapse past a generous slowdown ceiling
//! (an eviction ping-pong or paging livelock blows through it long
//! before correctness breaks).
//!
//! Two further row families gate the PR-9 fast path:
//!
//! * an **elide/plain** ratio row for XTEA (the former fixed-gap
//!   offender): the protected build's MIPS relative to the plain build,
//!   compared against the tracked ratio with the same tolerance.
//! * **intrinsic on/off** rows for the bulk-intrinsic apps (JSON,
//!   Merkle): the wall-clock speedup of the intrinsic build over the
//!   soft build must stay above an absolute floor — the sealed
//!   intrinsics must keep paying for themselves on the same machine,
//!   same binary, same run.
//!
//! Env:
//! * `ELIDE_BENCH_REPS` — per-app repetitions (default 5 here; best-of).
//! * `ELIDE_GATE_TOLERANCE` — allowed fractional ratio loss (default 0.20).
//! * `ELIDE_GATE_EPC_MAX_SLOWDOWN` — 4x-oversubscribed slowdown ceiling
//!   vs the unbudgeted superblock run (default 50.0).
//! * `ELIDE_GATE_INTRIN_FLOOR` — minimum intrinsic-on wall-clock speedup
//!   over the soft build (default 1.15).

use elide_apps::harness::{launch_plain, launch_protected, App};
use elide_apps::run_workload;
use elide_bench::workspace_root;
use elide_core::sanitizer::DataPlacement;
use elide_crypto::rng::SeededRandom;
use elide_vm::interp::Engine;
use sgx_sim::budget::EpcBudget;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

/// Best-of-`reps` (seconds, retired instructions) for one workload under
/// the runtime's current engine (mirrors the tracked bench's methodology;
/// the instruction count is identical across reps by construction).
fn best_seconds(
    name: &str,
    rt: &mut elide_enclave::EnclaveRuntime,
    indices: &HashMap<String, u64>,
    reps: usize,
) -> (f64, u64) {
    run_workload(name, rt, indices); // warmup
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..reps {
        let base = rt.retired_total();
        let t0 = Instant::now();
        run_workload(name, rt, indices);
        best = best.min(t0.elapsed().as_secs_f64());
        instructions = rt.retired_total() - base;
    }
    (best, instructions)
}

/// Pulls `(app, build) -> mips` out of the tracked JSON. The file is
/// emitted by our own `records_json`, so a line-oriented parse of
/// the known shape is enough (the workspace has no JSON dependency).
fn parse_tracked(text: &str) -> HashMap<(String, String), f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let Some(app) = field(line, "\"app\": \"") else { continue };
        let Some(build) = field(line, "\"build\": \"") else { continue };
        let Some(mips) = field_num(line, "\"mips\": ") else { continue };
        out.insert((app, build), mips);
    }
    out
}

fn field(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end =
        rest.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let reps: usize = std::env::var("ELIDE_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(5);
    let tolerance: f64 =
        std::env::var("ELIDE_GATE_TOLERANCE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.20);
    let max_slowdown: f64 = std::env::var("ELIDE_GATE_EPC_MAX_SLOWDOWN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);

    let tracked_path = workspace_root().join("BENCH_exec_throughput.json");
    let tracked = match std::fs::read_to_string(&tracked_path) {
        Ok(text) => parse_tracked(&text),
        Err(e) => {
            eprintln!("exec_gate: cannot read {}: {e}", tracked_path.display());
            return ExitCode::FAILURE;
        }
    };

    let intrin_floor: f64 =
        std::env::var("ELIDE_GATE_INTRIN_FLOOR").ok().and_then(|v| v.parse().ok()).unwrap_or(1.15);

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

    println!("exec_gate (reps={reps}, tolerance={:.0}%)", tolerance * 100.0);
    println!("{:<14} {:>14} {:>14} {:>10}", "app", "tracked-ratio", "fresh-ratio", "verdict");

    let mut failed = false;
    for app in &apps {
        let key_i = (app.name.to_string(), "interp".to_string());
        let key_p = (app.name.to_string(), "plain".to_string());
        let (Some(&t_interp), Some(&t_plain)) = (tracked.get(&key_i), tracked.get(&key_p)) else {
            eprintln!("exec_gate: {} missing from tracked JSON — re-run the bench", app.name);
            failed = true;
            continue;
        };
        let tracked_ratio = t_plain / t_interp;

        let mut p = launch_plain(app, 42).expect("launch");
        p.runtime.set_engine(Engine::Interp);
        let (interp_s, _) = best_seconds(app.name, &mut p.runtime, &p.indices, reps);
        p.runtime.set_engine(Engine::Superblock);
        let (plain_s, _) = best_seconds(app.name, &mut p.runtime, &p.indices, reps);
        let fresh_ratio = interp_s / plain_s; // same instruction count cancels

        let ok = fresh_ratio >= tracked_ratio * (1.0 - tolerance);
        println!(
            "{:<14} {:>13.2}x {:>13.2}x {:>10}",
            app.name,
            tracked_ratio,
            fresh_ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
        failed |= !ok;

        // Oversubscribed row: same workload, 4x page deficit. The
        // workload's own differential checks panic on any wrong output;
        // the gate adds the paging invariants and the slowdown ceiling.
        let total = p.runtime.enclave().resident_reg_pages();
        let mut budget_rng = SeededRandom::new(0xE9C);
        p.runtime
            .set_epc_budget(EpcBudget::new((total / 4).max(1), &mut budget_rng))
            .expect("arm 4x budget");
        let (budget_s, _) = best_seconds(app.name, &mut p.runtime, &p.indices, reps);
        let stats = p.runtime.epc_budget().expect("armed").stats();
        let slowdown = budget_s / plain_s;
        let ok_epc = stats.evictions > 0 && stats.reload_failures == 0 && slowdown <= max_slowdown;
        println!(
            "{:<14} {:>14} {:>13.2}x {:>10}",
            "  @4x-EPC",
            format!("{} evictions", stats.evictions),
            slowdown,
            if ok_epc { "ok" } else { "FAILED" }
        );
        failed |= !ok_epc;
    }

    // Elide/plain ratio row for XTEA: the protected build must hold its
    // tracked fraction of plain throughput (instruction counts differ
    // between builds, so this compares MIPS, not wall seconds).
    {
        let app = elide_apps::xtea::app();
        let key_p = (app.name.to_string(), "plain".to_string());
        let key_e = (app.name.to_string(), "elide".to_string());
        match (tracked.get(&key_p), tracked.get(&key_e)) {
            (Some(&t_plain), Some(&t_elide)) => {
                let tracked_ratio = t_elide / t_plain;
                let mut plain = launch_plain(&app, 42).expect("launch");
                let (plain_s, plain_i) =
                    best_seconds(app.name, &mut plain.runtime, &plain.indices, reps);
                let mut prot =
                    launch_protected(&app, DataPlacement::Remote, 42).expect("launch protected");
                prot.restore().expect("restore");
                let (elide_s, elide_i) =
                    best_seconds(app.name, &mut prot.app.runtime, &prot.indices, reps);
                let fresh_ratio = (elide_i as f64 / elide_s) / (plain_i as f64 / plain_s);
                let ok = fresh_ratio >= tracked_ratio * (1.0 - tolerance);
                println!(
                    "{:<14} {:>13.2}x {:>13.2}x {:>10}",
                    "XTEA elide",
                    tracked_ratio,
                    fresh_ratio,
                    if ok { "ok" } else { "REGRESSED" }
                );
                failed |= !ok;
            }
            _ => {
                eprintln!("exec_gate: XTEA elide row missing from tracked JSON — re-run the bench");
                failed = true;
            }
        }
    }

    // Intrinsic on/off rows: the sealed bulk intrinsics must keep
    // delivering at least `intrin_floor` wall-clock speedup over the soft
    // builds (same workload, identical outputs, same machine and run).
    {
        use elide_apps::{json_app, merkle_app};
        type Variant = (fn(bool) -> App, &'static str);
        let variants: [Variant; 2] =
            [(json_app::app_with, "JSON"), (merkle_app::app_with, "Merkle")];
        for (build, name) in variants {
            if !tracked.contains_key(&(name.to_string(), "soft".to_string())) {
                eprintln!(
                    "exec_gate: {name} soft row missing from tracked JSON — re-run the bench"
                );
                failed = true;
                continue;
            }
            let mut on = launch_plain(&build(true), 42).expect("launch");
            let (on_s, _) = best_seconds(name, &mut on.runtime, &on.indices, reps);
            let mut off = launch_plain(&build(false), 42).expect("launch");
            let (off_s, _) = best_seconds(name, &mut off.runtime, &off.indices, reps);
            let speedup = off_s / on_s;
            let ok = speedup >= intrin_floor;
            println!(
                "{:<14} {:>13.2}x {:>13.2}x {:>10}",
                format!("{name} intrin"),
                intrin_floor,
                speedup,
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
    }

    if failed {
        eprintln!("exec_gate: superblock speedup regressed >{:.0}%", tolerance * 100.0);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_own_json_shape() {
        let text = r#"{
  "bench": "exec_throughput",
  "results": [
    {"app": "AES", "build": "interp", "instructions": 1, "seconds": 1.0, "mips": 150.5},
    {"app": "AES", "build": "plain", "instructions": 1, "seconds": 0.5, "mips": 450.25}
  ]
}"#;
        let m = parse_tracked(text);
        assert_eq!(m[&("AES".into(), "interp".into())], 150.5);
        assert_eq!(m[&("AES".into(), "plain".into())], 450.25);
    }
}
