//! Delegated vs central provisioning fan-out: `peers` enclaves on one host,
//! provisioned either each against the origin AuthServer ("central") or
//! through one local delegate that amortises a single origin handshake
//! across the whole host ("delegated" — the delegate's own stand-up is
//! inside the timed region, so the comparison is honest end to end).
//!
//! The structural claim is asserted here, not just measured: delegated mode
//! must consume exactly **one** origin handshake per repetition regardless
//! of the peer count, while central consumes one per peer.
//!
//! Emits `target/bench/BENCH_delegation.json`.
//! `ELIDE_BENCH_REPS` overrides the repetition count.
//!
//! Plain-main harness (`cargo bench --bench delegation`).

use elide_bench::{delegation_provisioning, records_json, write_json, DelegationRecord};

fn print_rec(r: &DelegationRecord) {
    println!(
        "{:<10} {:>5} peers {:>4} reps {:>10} handshakes/rep {:>12.1}/s {:>10.3} ms/peer",
        r.mode,
        r.peers,
        r.reps,
        r.origin_handshakes,
        r.provisions_per_s,
        r.ms_per_peer()
    );
}

fn main() {
    let reps: usize = std::env::var("ELIDE_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(20);

    println!("delegation (reps={reps})");
    let mut records = Vec::new();
    for peers in [2usize, 4, 8] {
        for rec in delegation_provisioning(peers, reps) {
            print_rec(&rec);
            if rec.mode == "delegated" {
                assert_eq!(
                    rec.origin_handshakes, 1,
                    "{} peers: delegated mode must cost exactly one origin handshake",
                    rec.peers
                );
            } else {
                assert_eq!(
                    rec.origin_handshakes, peers as u64,
                    "{} peers: central mode must cost one origin handshake per peer",
                    rec.peers
                );
            }
            records.push(rec);
        }
    }

    let path = write_json("delegation", &records_json("delegation", &records)).expect("write json");
    println!("\nwrote {}", path.display());
}
