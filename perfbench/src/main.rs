//! The repository benchmark: three closed-loop workloads driven through
//! the library's public API, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload launch_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the same
//! workload with the calls into each layer timed from outside the library
//! and reports the per-layer metrics. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the line before it records the provenance, sample counts and figures
//! that are reported but not gated. `README.md` explains the workloads.

#![forbid(unsafe_code)]

mod cold;
mod harness;
mod mix;
mod pool;

use harness::{Args, Outcome};

/// End-to-end metrics: every workload reports them under `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every workload reports them under `--trace 1`, as 0
/// for a layer it bypasses.
const PER_LAYER: [(&str, &str); 36] = [
    ("loader.plan_ms", "ms"),
    ("loader.load_ms", "ms"),
    ("transport.connect_ms", "ms"),
    ("wire.handshake_ms", "ms"),
    ("wire.meta_ms", "ms"),
    ("wire.data_ms", "ms"),
    ("wire.ticket_ms", "ms"),
    ("wire.resume_ms", "ms"),
    ("session.handshake_ms", "ms"),
    ("session.meta_ms", "ms"),
    ("session.data_ms", "ms"),
    ("session.ticket_ms", "ms"),
    ("session.resume_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("restore.cold_ms", "ms"),
    ("restore.guest_ms", "ms"),
    ("restore.instructions", "count"),
    ("restore.warm_ms", "ms"),
    ("restore.warm_instructions", "count"),
    ("vm.first_ecall_ms", "ms"),
    ("vm.first_ecall_blocks_translated", "count"),
    ("vm.ecall_ms", "ms"),
    ("vm.mips", "MIPS"),
    ("vm.trans_share", "ratio"),
    ("vm.blocks_per_translation", "ratio"),
    ("pool.checkout_hit_ms", "ms"),
    ("pool.checkout_warm_ms", "ms"),
    ("pool.hit_ratio", "ratio"),
    ("pool.enclave_evictions", "1/op"),
    ("client.quote_ms", "ms"),
    ("client.full_ms", "ms"),
    ("client.resume_ms", "ms"),
    ("server.resume_accept_ratio", "ratio"),
    ("teardown_ms", "ms"),
    ("trace.phase_gap_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["launch_cold", "pool_serve", "provision_mix"];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if WORKLOADS.contains(&args.workload.as_str()) => args,
        Ok(args) => fail(&format!("unknown workload {} (one of {WORKLOADS:?})", args.workload)),
        Err(e) => fail(&e),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let outcome = match args.workload.as_str() {
        "launch_cold" => cold::run(&args),
        "pool_serve" => pool::run(&args),
        _ => mix::run(&args),
    };
    for (name, _) in table {
        if !outcome.metrics.contains_key(name) {
            fail(&format!("workload {} did not report {name}", args.workload));
        }
    }
    println!("{}", provenance(&args, &outcome));
    println!("{}", result(table, &outcome));
}

fn fail(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result(table: &[(&str, &str)], outcome: &Outcome) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                number(outcome.metrics[name]),
                string(unit)
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.metrics.values().all(|v| v.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn provenance(args: &Args, outcome: &Outcome) -> String {
    let map = |m: Vec<(&str, String)>| {
        let fields: Vec<String> = m.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
        format!("{{{}}}", fields.join(", "))
    };
    let samples = map(outcome.samples.iter().map(|(k, v)| (*k, v.to_string())).collect());
    let extra = map(outcome.extra.iter().map(|(k, v)| (*k, number(*v))).collect());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"rustc\": {}, \"nproc\": {nproc}, \"samples\": {samples}, \"extra\": {extra}}}",
        string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        string(&git_rev()),
        string(&rustc_version()),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a source export has no `.git`: "unknown").
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}
