//! Pieces every workload shares: the command line, seeded input streams,
//! statistics, the wrappers a traced run puts around the library's
//! `Transport`, and the closed-loop runner.

use elide_apps::run_workload;
use elide_core::elide_asm::request;
use elide_core::error::ElideError;
use elide_core::protocol::Transport;
use elide_core::server::AuthServer;
use elide_core::session::Session;
use elide_enclave::EnclaveRuntime;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The benchmark's command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds {value}: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in the measured region.
    pub attempted: u64,
    /// Operations that returned an error, panicked or produced a wrong
    /// output.
    pub failed: u64,
    /// Metric values by name (unit comes from the metric tables).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each reported statistic.
    pub samples: BTreeMap<&'static str, usize>,
    /// Figures reported next to the metrics but not gated.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts `ops` as attempted, and those that did not check out as
    /// failed.
    pub fn count(&mut self, ops: &[Op]) {
        self.attempted += ops.len() as u64;
        self.failed += ops.iter().filter(|o| !o.ok).count() as u64;
    }
}

/// Mixes a seed and an index into an independent 64-bit value
/// (splitmix64 finalizer).
pub fn mix64(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of workload decisions.
#[derive(Debug)]
pub struct Stream {
    seed: u64,
    next: u64,
}

impl Stream {
    /// A stream for `seed`, separated from other streams by `lane`.
    pub fn new(seed: u64, lane: u64) -> Self {
        Stream { seed: mix64(seed, lane), next: 0 }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.next += 1;
        mix64(self.seed, self.next)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Visits a list in rounds, each round in a fresh seeded order, so every
/// item gets exactly its share of operations whatever the seed.
#[derive(Debug)]
pub struct Rounds<T> {
    stream: Stream,
    round: Vec<T>,
    pos: usize,
}

impl<T: Copy> Rounds<T> {
    /// Rounds over `items` (repeat an item to weight it).
    pub fn new(stream: Stream, items: Vec<T>) -> Self {
        let pos = items.len();
        Rounds { stream, round: items, pos }
    }

    /// Next item.
    pub fn next_item(&mut self) -> T {
        if self.pos == self.round.len() {
            self.stream.shuffle(&mut self.round);
            self.pos = 0;
        }
        self.pos += 1;
        self.round[self.pos - 1]
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Seconds to milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer samples of a traced run: per-operation values whose median
/// is reported, plus aggregate values computed once at the end.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds one per-operation sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets an aggregate value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// All samples of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples of `name` (0 when the layer did no work).
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// Reports every metric in `names`: the aggregate if one was set,
    /// else the median of its samples, else 0 (a layer the workload
    /// bypasses). Sample counts go to `outcome.samples`.
    pub fn report(&self, names: &[(&'static str, &str)], outcome: &mut Outcome) {
        for &(name, _) in names {
            let value = self.values.get(name).copied().unwrap_or_else(|| self.median(name));
            outcome.metrics.insert(name, value);
            outcome.samples.insert(name, self.get(name).len());
        }
    }
}

/// The two checks on a traced run: what tracing costs, and how much of an
/// operation's wall time its timed phases leave unaccounted. Operations
/// carry a workload-defined class (app, pool rank, full or resumed) so
/// traced and untraced latencies are compared like with like.
#[derive(Debug, Default)]
pub struct TraceChecks {
    /// Per class: untraced and traced operation wall times.
    walls: BTreeMap<usize, (Vec<f64>, Vec<f64>)>,
    phases: f64,
    wall: f64,
}

impl TraceChecks {
    /// An untraced operation of `class` took `wall` seconds.
    pub fn untraced(&mut self, class: usize, wall: f64) {
        self.walls.entry(class).or_default().0.push(wall);
    }

    /// A traced operation of `class` took `wall` seconds, `phases` of
    /// them inside timed phases.
    pub fn traced(&mut self, class: usize, wall: f64, phases: f64) {
        self.walls.entry(class).or_default().1.push(wall);
        self.phases += phases;
        self.wall += wall;
    }

    /// Appends another thread's checks.
    pub fn merge(&mut self, other: TraceChecks) {
        for (class, (untraced, traced)) in other.walls {
            let mine = self.walls.entry(class).or_default();
            mine.0.extend(untraced);
            mine.1.extend(traced);
        }
        self.phases += other.phases;
        self.wall += other.wall;
    }

    /// Sets `trace.overhead_pct` (median over classes of traced ÷
    /// untraced median latency, minus one) and `trace.phase_gap_pct`
    /// (1 − Σphases ÷ Σwall).
    pub fn finish(&self, layers: &mut Layers) {
        let ratios: Vec<f64> = self
            .walls
            .values()
            .filter(|(untraced, traced)| !untraced.is_empty() && !traced.is_empty())
            .map(|(untraced, traced)| median(traced) / median(untraced))
            .collect();
        let overhead = if ratios.is_empty() { 0.0 } else { (median(&ratios) - 1.0) * 100.0 };
        let gap = if self.wall > 0.0 { (1.0 - self.phases / self.wall) * 100.0 } else { 0.0 };
        layers.set("trace.overhead_pct", overhead);
        layers.set("trace.phase_gap_pct", gap);
    }
}

/// Protocol verbs a traced run times, with the metric each lands in when
/// timed through the wire and when timed against the session directly.
pub const VERBS: [(u64, &str, &str); 5] = [
    (request::HANDSHAKE, "wire.handshake_ms", "session.handshake_ms"),
    (request::META, "wire.meta_ms", "session.meta_ms"),
    (request::DATA, "wire.data_ms", "session.data_ms"),
    (request::TICKET, "wire.ticket_ms", "session.ticket_ms"),
    (request::RESUME, "wire.resume_ms", "session.resume_ms"),
];

/// Time one operation spent in each verb's requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct VerbTimes {
    secs: [f64; VERBS.len()],
    count: [u32; VERBS.len()],
}

impl VerbTimes {
    /// Seconds spent in all requests.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Pushes this operation's per-verb milliseconds under the wire or
    /// the session metric names.
    pub fn record(&self, layers: &mut Layers, session: bool) {
        for (i, &(_, wire, direct)) in VERBS.iter().enumerate() {
            if self.count[i] > 0 {
                layers.push(if session { direct } else { wire }, self.secs[i] * 1e3);
            }
        }
    }
}

/// Shared handle to the times a [`Timed`] transport records.
pub type VerbLog = Arc<Mutex<VerbTimes>>;

/// A `Transport` that times every request by verb.
pub struct Timed<T> {
    inner: T,
    log: VerbLog,
}

impl<T: Transport> Timed<T> {
    /// Wraps `inner`; the log outlives the transport.
    pub fn new(inner: T) -> (Self, VerbLog) {
        let log = VerbLog::default();
        (Timed { inner, log: Arc::clone(&log) }, log)
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        let t0 = Instant::now();
        let reply = self.inner.request(req, payload);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(i) = VERBS.iter().position(|v| v.0 == u64::from(req)) {
            let mut log = self.log.lock().expect("verb log");
            log.secs[i] += secs;
            log.count[i] += 1;
        }
        reply
    }
}

/// Where a traced operation sends its provisioning requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// Over TCP to the in-process service.
    Wire,
    /// Straight into a server session ([`DirectSession`]).
    Session,
}

/// A `Transport` that hands each request straight to
/// `Session::handle` on a fresh server session: no framing, no socket,
/// no shard. Timing it gives the server's own work per verb.
pub struct DirectSession {
    server: Arc<AuthServer>,
    session: Session,
}

impl DirectSession {
    /// Opens a session on `server`.
    pub fn new(server: Arc<AuthServer>) -> Self {
        let session = server.new_session();
        DirectSession { server, session }
    }
}

impl Transport for DirectSession {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        self.session.handle(&self.server, req, payload).map_err(ElideError::Server)
    }
}

/// Milliseconds one operation waits on framing, sockets and shard
/// scheduling: per verb, the wire median minus the direct-session
/// median, weighted by how many wire-traced operations sent that verb.
pub fn service_wait_ms(layers: &Layers, wire_ops: usize) -> f64 {
    VERBS
        .iter()
        .filter(|(_, wire, direct)| !layers.get(wire).is_empty() && !layers.get(direct).is_empty())
        .map(|&(_, wire, direct)| {
            let share = layers.get(wire).len() as f64 / wire_ops.max(1) as f64;
            (layers.median(wire) - layers.median(direct)) * share
        })
        .sum()
}

/// Runs one operation, turning a panic (e.g. a workload's reference
/// check) into an error.
pub fn guarded<R>(op: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(result) => result,
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())),
    }
}

/// Formats any displayable error.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A run rebuilds its set-up until this many seconds have passed (and at
/// least [`SETUP_MIN_REPS`] times); `setup_s` is the median build time.
/// CPU speed on a shared host drifts within a second, so a few quick
/// builds would sample only one moment of it.
const SETUP_SECONDS: f64 = 1.5;
const SETUP_MIN_REPS: usize = 5;

/// Builds the set-up repeatedly (see [`SETUP_SECONDS`]), dropping each
/// copy before building the next, and returns the last copy with every
/// build time in seconds.
pub fn repeated_setup<S>(mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), times)
}

/// One timed operation of the measured region.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall-clock seconds.
    pub secs: f64,
    /// Whether every output checked out.
    pub ok: bool,
    /// Workload-defined operation class.
    pub class: u8,
}

/// Runs `op(i)` for i = 0, 1, … until `seconds` have passed, printing the
/// first few failures to stderr. Returns the operations and the
/// region's wall time.
pub fn closed_loop(
    seconds: u64,
    mut op: impl FnMut(u64) -> (u8, Result<(), String>),
) -> (Vec<Op>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut ops = Vec::new();
    let mut failures = 0;
    let mut i = 0;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let (class, result) = op(i);
        let secs = t0.elapsed().as_secs_f64();
        if let Err(e) = &result {
            failures += 1;
            if failures <= 5 {
                eprintln!("operation {i} failed: {e}");
            }
        }
        ops.push(Op { secs, ok: result.is_ok(), class });
        i += 1;
    }
    (ops, start.elapsed().as_secs_f64())
}

/// Latency percentiles of `ops` in milliseconds.
pub fn latency_ms(ops: &[Op], q: f64) -> f64 {
    let secs: Vec<f64> = ops.iter().map(|o| o.secs).collect();
    percentile(&secs, q) * 1e3
}

/// Fills the end-to-end metrics common to every workload.
pub fn end_to_end(ops: &[Op], elapsed: f64, setup_times: &[f64], outcome: &mut Outcome) {
    outcome.count(ops);
    outcome.metrics.insert("latency_p50_ms", latency_ms(ops, 0.50));
    outcome.metrics.insert("latency_p99_ms", latency_ms(ops, 0.99));
    outcome.metrics.insert("ops_per_s", ops.len() as f64 / elapsed);
    outcome.metrics.insert("setup_s", median(setup_times));
    outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
    for name in ["latency_p50_ms", "latency_p99_ms", "ops_per_s"] {
        outcome.samples.insert(name, ops.len());
    }
    outcome.samples.insert("setup_s", setup_times.len());
    outcome.samples.insert("peak_rss_mb", 1);
    outcome.extra.insert("error_rate", outcome.failed as f64 / outcome.attempted.max(1) as f64);
}

/// Peak resident set of this process (VmHWM) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// Runs one verified `run_workload` on `rt`, pushing its time, MIPS and
/// `ExecStats` deltas. Returns the time and the blocks it translated.
pub fn traced_ecall(
    layers: &mut Layers,
    app: &str,
    rt: &mut EnclaveRuntime,
    indices: &HashMap<String, u64>,
) -> (Duration, f64) {
    let (x0, r0) = (rt.exec_stats(), rt.retired_total());
    let c = Instant::now();
    run_workload(app, rt, indices);
    let d = c.elapsed();
    let (x1, r1) = (rt.exec_stats(), rt.retired_total());
    let translated = (x1.blocks_translated - x0.blocks_translated) as f64;
    layers.push("vm.ecall_ms", ms(d));
    layers.push("vm.mips", (r1 - r0) as f64 / d.as_secs_f64() / 1e6);
    layers.push("vm.trans.retired", (x1.trans_retired - x0.trans_retired) as f64);
    layers.push("vm.interp.retired", (x1.interp_retired - x0.interp_retired) as f64);
    layers.push("vm.blocks.entered", (x1.blocks_entered - x0.blocks_entered) as f64);
    layers.push("vm.blocks.translated", translated);
    (d, translated)
}

/// Sets `vm.trans_share` and `vm.blocks_per_translation` from the
/// `ExecStats` deltas [`traced_ecall`] pushed.
pub fn set_vm_ratios(layers: &mut Layers) {
    let sum = |name: &str| layers.get(name).iter().sum::<f64>();
    let (trans, interp) = (sum("vm.trans.retired"), sum("vm.interp.retired"));
    let (entered, translated) = (sum("vm.blocks.entered"), sum("vm.blocks.translated"));
    let share = if trans + interp > 0.0 { trans / (trans + interp) } else { 0.0 };
    let per = if translated > 0.0 { entered / translated } else { 0.0 };
    layers.set("vm.trans_share", share);
    layers.set("vm.blocks_per_translation", per);
}
