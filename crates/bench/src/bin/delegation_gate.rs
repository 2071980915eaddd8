//! CI-friendly wrapper around the delegation bench: one peer count, few
//! reps, gating on the structural invariants rather than absolute rates —
//! suitable for smoke jobs on noisy shared runners:
//!
//! * delegated mode must consume exactly **one** origin handshake per
//!   repetition; central mode exactly one per peer — the whole point of
//!   the delegation tier, and a correctness property, not a speed one;
//! * delegated throughput must not fall below
//!   `ELIDE_GATE_DELEGATION_FLOOR` × central throughput (default 0.5: the
//!   local path may never cost more than twice the origin path even with
//!   the delegate's stand-up amortised over a small host).
//!
//! Writes no file; the full bench (`cargo bench --bench delegation`)
//! writes `target/bench/BENCH_delegation.json`.

use elide_bench::delegation_provisioning;

fn main() {
    let reps: usize = std::env::var("ELIDE_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(3);
    let floor: f64 = std::env::var("ELIDE_GATE_DELEGATION_FLOOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.5);
    let peers = 4usize;

    let records = delegation_provisioning(peers, reps);
    let mut failures = Vec::new();
    let mut central_per_s = 0.0;
    let mut delegated_per_s = 0.0;

    for r in &records {
        println!(
            "{} {} peers x{} reps: {} origin handshakes/rep, {:.1} provisions/s \
             ({:.3} ms/peer)",
            r.mode,
            r.peers,
            r.reps,
            r.origin_handshakes,
            r.provisions_per_s,
            r.ms_per_peer()
        );
        match r.mode {
            "central" => {
                central_per_s = r.provisions_per_s;
                if r.origin_handshakes != peers as u64 {
                    failures.push(format!(
                        "central: {} origin handshakes/rep, expected {peers}",
                        r.origin_handshakes
                    ));
                }
            }
            _ => {
                delegated_per_s = r.provisions_per_s;
                if r.origin_handshakes != 1 {
                    failures.push(format!(
                        "delegated: {} origin handshakes/rep, expected exactly 1",
                        r.origin_handshakes
                    ));
                }
            }
        }
    }

    let ratio = if central_per_s > 0.0 { delegated_per_s / central_per_s } else { 0.0 };
    println!("delegated/central throughput ratio: {ratio:.2}x (floor {floor}x)");
    if ratio < floor {
        failures.push(format!("delegated throughput ratio {ratio:.2}x < floor {floor}x"));
    }

    if failures.is_empty() {
        println!("delegation gate OK ({peers} peers, {reps} reps, floor {floor}x)");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
