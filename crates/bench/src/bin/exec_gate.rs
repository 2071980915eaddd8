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
//! The interp arm is the reference interpreter, a plain fetch–decode–
//! execute loop with no code cache, so the ratio is the translator's
//! speedup over fetching and decoding every instruction.
//! Every row times its arms with `elide_bench::best_of_alternating`, the
//! sampler the tracked bench uses: the arms of a ratio run in the same
//! rounds, so a slow phase of the host lands on both sides of it.
//!
//! Each app also gets an oversubscribed row: the same workload re-runs
//! under a 4x page deficit (`EpcBudget` at resident/4). The run must still
//! pass the workload's differential checks, must actually page
//! (evictions > 0, no reload failures), and must stay under a slowdown
//! ceiling. The budgeted run is a third runtime timed in the same rounds
//! as the unbudgeted one. An armed budget costs only its paging — loads
//! and stores take the same path with or without one — and the 4x working
//! sets settle after the warm-up, so the row reads about 1.0x; the ceiling
//! catches a return of a per-access paging cost (that path read 1.96–6.81x
//! under this sampler) as well as eviction ping-pong or a paging livelock.
//!
//! Two further row families gate the PR-9 fast path:
//!
//! * an **elide/plain** ratio row per app: the protected build's MIPS
//!   relative to the plain build, compared against the tracked ratio with
//!   the same tolerance. Superblocks ignore page boundaries, so the
//!   protected layout (the whitelisted runtime ahead of the app's code)
//!   must not slow the app down.
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
//!   vs the unbudgeted superblock run (default 2.0: the highest of 510
//!   readings on a 2-vCPU VM, 1.39x, plus their 0.77–1.39x spread).
//! * `ELIDE_GATE_INTRIN_FLOOR` — minimum intrinsic-on wall-clock speedup
//!   over the soft build (default 1.15).

use elide_apps::harness::{launch_plain, launch_protected, App};
use elide_bench::{best_of_alternating, workspace_root};
use elide_core::sanitizer::DataPlacement;
use elide_crypto::rng::SeededRandom;
use elide_vm::interp::Engine;
use sgx_sim::budget::EpcBudget;
use std::collections::HashMap;
use std::process::ExitCode;

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
        .unwrap_or(2.0);

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

        // Interpreter, superblocks, and superblocks under a 4x page
        // deficit (`EpcBudget` at resident/4), on three runtimes timed in
        // the same rounds.
        let mut i = launch_plain(app, 42).expect("launch");
        i.runtime.set_engine(Engine::Interp);
        let mut p = launch_plain(app, 42).expect("launch");
        let mut b = launch_plain(app, 42).expect("launch");
        let total = b.runtime.enclave().resident_reg_pages();
        let mut budget_rng = SeededRandom::new(0xE9C);
        b.runtime
            .set_epc_budget(EpcBudget::new((total / 4).max(1), &mut budget_rng))
            .expect("arm 4x budget");
        let [(interp_s, _), (plain_s, _), (budget_s, _)] = best_of_alternating(
            app.name,
            [
                (&mut i.runtime, &i.indices),
                (&mut p.runtime, &p.indices),
                (&mut b.runtime, &b.indices),
            ],
            reps,
        );
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

        // Oversubscribed row: the workload's own differential checks
        // panic on any wrong output; the gate adds the paging invariants
        // and the slowdown ceiling.
        let stats = b.runtime.epc_budget().expect("armed").stats();
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

    // Elide/plain ratio rows: each protected build must hold its tracked
    // fraction of plain throughput (instruction counts differ between
    // builds, so this compares MIPS, not wall seconds).
    for app in &apps {
        let key_p = (app.name.to_string(), "plain".to_string());
        let key_e = (app.name.to_string(), "elide".to_string());
        let (Some(&t_plain), Some(&t_elide)) = (tracked.get(&key_p), tracked.get(&key_e)) else {
            eprintln!(
                "exec_gate: {} elide row missing from tracked JSON — re-run the bench",
                app.name
            );
            failed = true;
            continue;
        };
        let tracked_ratio = t_elide / t_plain;
        let mut plain = launch_plain(app, 42).expect("launch");
        let mut prot = launch_protected(app, DataPlacement::Remote, 42).expect("launch protected");
        prot.restore().expect("restore");
        let [(plain_s, plain_i), (elide_s, elide_i)] = best_of_alternating(
            app.name,
            [(&mut plain.runtime, &plain.indices), (&mut prot.app.runtime, &prot.indices)],
            reps,
        );
        let fresh_ratio = (elide_i as f64 / elide_s) / (plain_i as f64 / plain_s);
        let ok = fresh_ratio >= tracked_ratio * (1.0 - tolerance);
        println!(
            "{:<14} {:>13.2}x {:>13.2}x {:>10}",
            format!("{} elide", app.name),
            tracked_ratio,
            fresh_ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
        failed |= !ok;
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
            let mut off = launch_plain(&build(false), 42).expect("launch");
            let [(on_s, _), (off_s, _)] = best_of_alternating(
                name,
                [(&mut on.runtime, &on.indices), (&mut off.runtime, &off.indices)],
                reps,
            );
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
