//! Deterministic, seed-driven fault injection for the provisioning stack.
//!
//! A [`FaultPlan`] is a shared, thread-safe schedule of failures drawn from
//! one seeded RNG: every injection site asks the plan "should this
//! operation fail now?" and gets an answer that is a pure function of the
//! seed and the sequence of questions asked. The same seed therefore
//! replays the same fault schedule, which is what makes chaos-test
//! failures reproducible from a printed seed.
//!
//! Three substrates consult a plan:
//!
//! * the wire — [`FaultyWire`] wraps any [`Wire`] and injects short reads,
//!   torn frames, stalls, mid-stream disconnects, and byte flips;
//! * the service — [`crate::service::ServiceConfig::with_faults`] makes
//!   workers panic mid-connection (the pool must survive);
//! * the store — [`crate::server::AuthServer`] fails META/DATA reads with
//!   [`crate::error::ServerError::Internal`], modelling secret-store I/O
//!   errors.
//!
//! Rates are expressed in parts-per-million per operation (no floats, so
//! the arithmetic is identical on every platform).

use crate::transport::{BoxedWire, Limits, Listener, Wire};
use elide_crypto::rng::{RandomSource, SeededRandom};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One million: the denominator of every fault rate.
pub const PPM: u32 = 1_000_000;

/// Per-operation fault rates, in parts per million.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Read returns at most one byte (frame fragmentation stress).
    pub short_read_ppm: u32,
    /// One bit of the bytes read is flipped (corruption in flight).
    pub read_flip_ppm: u32,
    /// Read fails with `TimedOut`, as if the peer stalled past the
    /// deadline (no real time is spent waiting).
    pub stall_ppm: u32,
    /// The connection drops: reads see EOF, writes see `BrokenPipe`.
    pub disconnect_ppm: u32,
    /// A write forwards only a prefix of the frame then kills the write
    /// side — the peer sees a torn frame.
    pub torn_write_ppm: u32,
    /// One bit of the bytes written is flipped.
    pub write_flip_ppm: u32,
    /// A service worker panics while serving a connection.
    pub worker_panic_ppm: u32,
    /// Cap on injected worker panics (0 = unlimited).
    pub worker_panic_limit: u64,
    /// A secret-store read fails server-side (`ServerError::Internal`).
    pub store_io_ppm: u32,
    /// An eviction blob is corrupted by the untrusted OS while it sits
    /// between `EWB` and `ELDU` — the rate handed to
    /// `EpcBudget::set_tamper` when a schedule runs under a bounded EPC
    /// (see [`FaultPlan::epc_tamper_params`]).
    pub epc_tamper_ppm: u32,
}

impl FaultConfig {
    /// All rates zero: a plan that never injects anything.
    pub fn off() -> Self {
        FaultConfig {
            short_read_ppm: 0,
            read_flip_ppm: 0,
            stall_ppm: 0,
            disconnect_ppm: 0,
            torn_write_ppm: 0,
            write_flip_ppm: 0,
            worker_panic_ppm: 0,
            worker_panic_limit: 0,
            store_io_ppm: 0,
            epc_tamper_ppm: 0,
        }
    }

    /// Every wire fault at the same rate (service faults stay off).
    pub fn wire(ppm: u32) -> Self {
        FaultConfig {
            short_read_ppm: ppm,
            read_flip_ppm: ppm,
            stall_ppm: ppm,
            disconnect_ppm: ppm,
            torn_write_ppm: ppm,
            write_flip_ppm: ppm,
            ..Self::off()
        }
    }
}

/// Running totals of injected faults, for logging and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Short reads delivered.
    pub short_reads: u64,
    /// Bits flipped on read or write.
    pub bit_flips: u64,
    /// Simulated stalls.
    pub stalls: u64,
    /// Injected disconnects.
    pub disconnects: u64,
    /// Torn frames.
    pub torn_writes: u64,
    /// Worker panics.
    pub worker_panics: u64,
    /// Store I/O errors.
    pub store_io_errors: u64,
    /// Eviction blobs corrupted under a bounded EPC (folded in from the
    /// budget's own counter via [`FaultPlan::note_epc_tampers`]).
    pub epc_tampers: u64,
}

impl FaultCounts {
    /// Total faults injected across all categories.
    pub fn total(&self) -> u64 {
        self.short_reads
            + self.bit_flips
            + self.stalls
            + self.disconnects
            + self.torn_writes
            + self.worker_panics
            + self.store_io_errors
            + self.epc_tampers
    }
}

#[derive(Default)]
struct Stats {
    short_reads: AtomicU64,
    bit_flips: AtomicU64,
    stalls: AtomicU64,
    disconnects: AtomicU64,
    torn_writes: AtomicU64,
    worker_panics: AtomicU64,
    store_io_errors: AtomicU64,
    epc_tampers: AtomicU64,
}

struct PlanInner {
    rng: Mutex<SeededRandom>,
    config: FaultConfig,
    stats: Stats,
}

/// A shared, deterministic fault schedule. Cloning shares the schedule:
/// all clones draw from the same seeded stream.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("config", &self.inner.config)
            .field("injected", &self.counts().total())
            .finish()
    }
}

/// A wire-level fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Deliver at most one byte.
    ShortRead,
    /// Flip one bit of the transferred bytes.
    ByteFlip,
    /// Fail with `TimedOut` as if the peer stalled.
    Stall,
    /// Kill the connection.
    Disconnect,
    /// Forward a prefix of the write, then kill the write side.
    TornWrite,
}

impl FaultPlan {
    /// A plan injecting faults per `config`, drawn from `seed`.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                rng: Mutex::new(SeededRandom::new(seed)),
                config,
                stats: Stats::default(),
            }),
        }
    }

    /// A plan that never injects anything.
    pub fn none() -> Self {
        Self::new(0, FaultConfig::off())
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.inner.config
    }

    /// Snapshot of the faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        let s = &self.inner.stats;
        FaultCounts {
            short_reads: s.short_reads.load(Ordering::Relaxed),
            bit_flips: s.bit_flips.load(Ordering::Relaxed),
            stalls: s.stalls.load(Ordering::Relaxed),
            disconnects: s.disconnects.load(Ordering::Relaxed),
            torn_writes: s.torn_writes.load(Ordering::Relaxed),
            worker_panics: s.worker_panics.load(Ordering::Relaxed),
            store_io_errors: s.store_io_errors.load(Ordering::Relaxed),
            epc_tampers: s.epc_tampers.load(Ordering::Relaxed),
        }
    }

    fn roll(&self, ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        let draw = self.inner.rng.lock().unwrap_or_else(|p| p.into_inner()).next_u64();
        (draw % u64::from(PPM)) < u64::from(ppm)
    }

    /// A uniformly random value in `0..n` from the plan's stream (`n > 0`).
    pub fn pick(&self, n: u64) -> u64 {
        let draw = self.inner.rng.lock().unwrap_or_else(|p| p.into_inner()).next_u64();
        draw % n.max(1)
    }

    /// The fault (if any) to apply to the next read.
    pub fn next_read_fault(&self) -> Option<WireFault> {
        let c = &self.inner.config;
        if self.roll(c.disconnect_ppm) {
            self.inner.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            return Some(WireFault::Disconnect);
        }
        if self.roll(c.stall_ppm) {
            self.inner.stats.stalls.fetch_add(1, Ordering::Relaxed);
            return Some(WireFault::Stall);
        }
        if self.roll(c.short_read_ppm) {
            self.inner.stats.short_reads.fetch_add(1, Ordering::Relaxed);
            return Some(WireFault::ShortRead);
        }
        if self.roll(c.read_flip_ppm) {
            self.inner.stats.bit_flips.fetch_add(1, Ordering::Relaxed);
            return Some(WireFault::ByteFlip);
        }
        None
    }

    /// The fault (if any) to apply to the next write.
    pub fn next_write_fault(&self) -> Option<WireFault> {
        let c = &self.inner.config;
        if self.roll(c.disconnect_ppm) {
            self.inner.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            return Some(WireFault::Disconnect);
        }
        if self.roll(c.torn_write_ppm) {
            self.inner.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Some(WireFault::TornWrite);
        }
        if self.roll(c.write_flip_ppm) {
            self.inner.stats.bit_flips.fetch_add(1, Ordering::Relaxed);
            return Some(WireFault::ByteFlip);
        }
        None
    }

    /// True if the current connection's worker should panic now.
    pub fn worker_panic_now(&self) -> bool {
        let c = &self.inner.config;
        if !self.roll(c.worker_panic_ppm) {
            return false;
        }
        if c.worker_panic_limit > 0
            && self.inner.stats.worker_panics.load(Ordering::Relaxed) >= c.worker_panic_limit
        {
            return false;
        }
        self.inner.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The seed and rate for arming an `EpcBudget`'s eviction-blob
    /// tamperer, or `None` when the config leaves EPC tampering off.
    ///
    /// The seed is drawn from the plan's own stream, so the budget's
    /// corruption schedule replays with the plan — and because nothing is
    /// drawn when the rate is zero, plans without EPC faults replay their
    /// historical schedules unchanged.
    pub fn epc_tamper_params(&self) -> Option<(u64, u32)> {
        let ppm = self.inner.config.epc_tamper_ppm;
        if ppm == 0 {
            return None;
        }
        let seed = self.inner.rng.lock().unwrap_or_else(|p| p.into_inner()).next_u64();
        Some((seed, ppm))
    }

    /// Folds `n` eviction-blob corruptions into this plan's totals. The
    /// budget injects and counts its own tampers (it owns the eviction
    /// path); the harness reports them back here so one set of counts
    /// covers every substrate.
    pub fn note_epc_tampers(&self, n: u64) {
        self.inner.stats.epc_tampers.fetch_add(n, Ordering::Relaxed);
    }

    /// True if the next secret-store read should fail.
    pub fn store_io_error_now(&self) -> bool {
        if self.roll(self.inner.config.store_io_ppm) {
            self.inner.stats.store_io_errors.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Suppresses the default panic report for panics injected by a
/// [`FaultPlan`] (payload `"injected worker panic"`), passing every other
/// panic through to the previous hook. Chaos tests install this once so
/// hundreds of injected panics don't bury real failures in backtraces.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected worker panic"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected worker panic"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A [`Wire`] adapter that injects the plan's wire faults into every read
/// and write. Works on either side of a connection.
///
/// In nonblocking mode the adapter probes the inner wire first and only
/// draws a fault decision when bytes actually arrived: a polled-but-idle
/// connection must not consume schedule entries, or an event loop polling
/// at microsecond cadence would burn through the plan and disconnect every
/// idle client. Blocking mode keeps the historical decide-then-read order
/// so existing seeds replay the same schedules.
pub struct FaultyWire<W: Wire> {
    inner: W,
    plan: FaultPlan,
    read_dead: bool,
    write_dead: bool,
    nonblocking: bool,
    /// Bytes withheld by a nonblocking short read, served on later reads
    /// without consuming further fault draws.
    stash: VecDeque<u8>,
}

impl<W: Wire> FaultyWire<W> {
    /// Wraps `inner`, drawing fault decisions from `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        FaultyWire {
            inner,
            plan,
            read_dead: false,
            write_dead: false,
            nonblocking: false,
            stash: VecDeque::new(),
        }
    }

    fn read_nonblocking(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Probe first: no bytes, no fault draw.
        let n = self.inner.read(buf)?;
        if n == 0 {
            return Ok(0);
        }
        match self.plan.next_read_fault() {
            Some(WireFault::Disconnect) => {
                self.read_dead = true;
                self.write_dead = true;
                Ok(0)
            }
            Some(WireFault::Stall) => {
                // The probed bytes are lost with the "stalled" connection,
                // like a peer that went silent mid-frame.
                Err(io::Error::new(io::ErrorKind::TimedOut, "injected stall past read deadline"))
            }
            Some(WireFault::ShortRead) => {
                self.stash.extend(&buf[1..n]);
                Ok(1)
            }
            Some(WireFault::ByteFlip) => {
                let byte = self.plan.pick(n as u64) as usize;
                let bit = self.plan.pick(8) as u32;
                buf[byte] ^= 1 << bit;
                Ok(n)
            }
            Some(WireFault::TornWrite) | None => Ok(n),
        }
    }
}

impl<W: Wire> Read for FaultyWire<W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.stash.is_empty() {
            let mut n = 0;
            while n < buf.len() {
                match self.stash.pop_front() {
                    Some(b) => {
                        buf[n] = b;
                        n += 1;
                    }
                    None => break,
                }
            }
            return Ok(n);
        }
        if self.read_dead {
            // A dropped connection reads as EOF, exactly like a real peer
            // hangup: the frame decoder (FrameAssembler, blocking or not)
            // reports a clean close or a truncated frame depending on
            // where in the frame it happened.
            return Ok(0);
        }
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        if self.nonblocking {
            return self.read_nonblocking(buf);
        }
        match self.plan.next_read_fault() {
            Some(WireFault::Disconnect) => {
                self.read_dead = true;
                self.write_dead = true;
                Ok(0)
            }
            Some(WireFault::Stall) => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "injected stall past read deadline"))
            }
            Some(WireFault::ShortRead) => self.inner.read(&mut buf[..1]),
            Some(WireFault::ByteFlip) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let byte = self.plan.pick(n as u64) as usize;
                    let bit = self.plan.pick(8) as u32;
                    buf[byte] ^= 1 << bit;
                }
                Ok(n)
            }
            Some(WireFault::TornWrite) | None => self.inner.read(buf),
        }
    }
}

impl<W: Wire> Write for FaultyWire<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.write_dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected disconnect"));
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        match self.plan.next_write_fault() {
            Some(WireFault::Disconnect) => {
                self.read_dead = true;
                self.write_dead = true;
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected disconnect"))
            }
            Some(WireFault::TornWrite) => {
                // The peer receives a prefix and then silence: it observes
                // a truncated frame (UnexpectedEof or a read timeout). A
                // single best-effort write keeps this safe under
                // nonblocking wires, where write_all could spin.
                let keep = (buf.len() / 2).max(1);
                let _ = self.inner.write(&buf[..keep]);
                let _ = self.inner.flush();
                self.write_dead = true;
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected torn frame"))
            }
            Some(WireFault::ByteFlip) => {
                let mut flipped = buf.to_vec();
                let byte = self.plan.pick(flipped.len() as u64) as usize;
                let bit = self.plan.pick(8) as u32;
                flipped[byte] ^= 1 << bit;
                self.inner.write(&flipped)
            }
            Some(WireFault::ShortRead) | Some(WireFault::Stall) | None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.write_dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected disconnect"));
        }
        self.inner.flush()
    }
}

impl<W: Wire> Wire for FaultyWire<W> {
    fn apply_limits(&mut self, limits: &Limits) -> io::Result<()> {
        self.inner.apply_limits(limits)
    }

    fn peer(&self) -> String {
        format!("faulty({})", self.inner.peer())
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)?;
        self.nonblocking = nonblocking;
        Ok(())
    }

    /// Forwards to the inner wire; draws no fault decision. Stashed bytes
    /// or an injected disconnect are readable now, so those return at once.
    fn wait_readable(&mut self, timeout: Duration) -> io::Result<()> {
        if !self.stash.is_empty() || self.read_dead {
            return Ok(());
        }
        self.inner.wait_readable(timeout)
    }
}

/// A [`Listener`] adapter: every accepted connection is wrapped in a
/// [`FaultyWire`] sharing the same plan (server-side wire faults).
pub struct FaultyListener<L: Listener> {
    inner: L,
    plan: FaultPlan,
}

impl<L: Listener> FaultyListener<L> {
    /// Wraps `inner`, injecting `plan`'s wire faults into every accepted
    /// connection.
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        FaultyListener { inner, plan }
    }
}

impl<L: Listener> Listener for FaultyListener<L> {
    fn accept(&mut self) -> Option<BoxedWire> {
        let wire = self.inner.accept()?;
        Some(Box::new(FaultyWire::new(wire, self.plan.clone())))
    }

    fn local_desc(&self) -> String {
        self.inner.local_desc()
    }

    fn closer(&self) -> Box<dyn Fn() + Send + Sync> {
        self.inner.closer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel::pipe;
    use crate::transport::Framed;

    fn always(fault: WireFault) -> FaultConfig {
        let mut c = FaultConfig::off();
        match fault {
            WireFault::ShortRead => c.short_read_ppm = PPM,
            WireFault::ByteFlip => c.read_flip_ppm = PPM,
            WireFault::Stall => c.stall_ppm = PPM,
            WireFault::Disconnect => c.disconnect_ppm = PPM,
            WireFault::TornWrite => c.torn_write_ppm = PPM,
        }
        c
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = FaultConfig::wire(300_000);
        let a = FaultPlan::new(42, config);
        let b = FaultPlan::new(42, config);
        let seq_a: Vec<_> = (0..64).map(|_| a.next_read_fault()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.next_read_fault()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(Option::is_some), "some faults fire at 30%");
        assert!(seq_a.iter().any(Option::is_none), "some operations pass at 30%");
    }

    #[test]
    fn disabled_plan_is_transparent() {
        let plan = FaultPlan::none();
        let (a, b) = pipe();
        let mut fa = Framed::new(FaultyWire::new(a, plan.clone()), Limits::default()).unwrap();
        let mut fb = Framed::new(FaultyWire::new(b, plan.clone()), Limits::default()).unwrap();
        fa.send(7, b"payload").unwrap();
        assert_eq!(fb.recv().unwrap(), Some((7, b"payload".to_vec())));
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn injected_disconnect_reads_as_eof_and_breaks_writes() {
        let plan = FaultPlan::new(1, always(WireFault::Disconnect));
        let (a, _b) = pipe();
        let mut w = FaultyWire::new(a, plan.clone());
        let mut buf = [0u8; 4];
        assert_eq!(w.read(&mut buf).unwrap(), 0);
        assert_eq!(w.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert!(plan.counts().disconnects >= 1);
    }

    #[test]
    fn injected_stall_is_a_timeout_error() {
        let plan = FaultPlan::new(2, always(WireFault::Stall));
        let (a, _b) = pipe();
        let mut w = FaultyWire::new(a, plan);
        let mut buf = [0u8; 4];
        let e = w.read(&mut buf).unwrap_err();
        assert!(crate::transport::is_timeout(&e), "{e:?}");
    }

    #[test]
    fn torn_write_truncates_the_frame_for_the_peer() {
        let plan = FaultPlan::new(3, always(WireFault::TornWrite));
        let (a, b) = pipe();
        let mut w = FaultyWire::new(a, plan.clone());
        assert_eq!(w.write(&[9u8; 10]).unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // The peer got only a prefix; once the faulty side drops, reads end.
        drop(w);
        let mut peer = b;
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert!(!got.is_empty() && got.len() < 10, "peer saw a torn frame: {} bytes", got.len());
        assert_eq!(plan.counts().torn_writes, 1);
    }

    #[test]
    fn byte_flip_corrupts_exactly_one_bit() {
        let plan = FaultPlan::new(4, always(WireFault::ByteFlip));
        let (mut a, b) = pipe();
        a.write_all(&[0u8; 8]).unwrap();
        let mut w = FaultyWire::new(b, plan);
        let mut buf = [0u8; 8];
        w.read_exact(&mut buf).unwrap();
        let flipped: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped: {buf:?}");
    }

    #[test]
    fn short_reads_still_deliver_whole_frames() {
        // read_exact loops over 1-byte reads, so a 100% short-read plan
        // stresses fragmentation without losing data.
        let plan = FaultPlan::new(5, always(WireFault::ShortRead));
        let (a, b) = pipe();
        let mut sender = Framed::new(a, Limits::default()).unwrap();
        sender.send(3, b"fragmented frame").unwrap();
        let mut receiver =
            Framed::new(FaultyWire::new(b, plan.clone()), Limits::default()).unwrap();
        assert_eq!(receiver.recv().unwrap(), Some((3, b"fragmented frame".to_vec())));
        assert!(plan.counts().short_reads > 1);
    }

    #[test]
    fn epc_tamper_params_replay_and_count() {
        // Off by default: no params, and no draw that would shift replay.
        let off = FaultPlan::new(9, FaultConfig::off());
        assert_eq!(off.epc_tamper_params(), None);

        let config = FaultConfig { epc_tamper_ppm: 250_000, ..FaultConfig::off() };
        let a = FaultPlan::new(9, config);
        let b = FaultPlan::new(9, config);
        assert_eq!(a.epc_tamper_params(), b.epc_tamper_params());
        assert_eq!(a.epc_tamper_params().unwrap().1, 250_000);

        // Budget-reported tampers land in the unified totals.
        a.note_epc_tampers(5);
        assert_eq!(a.counts().epc_tampers, 5);
        assert_eq!(a.counts().total(), 5);
    }

    #[test]
    fn worker_panic_limit_caps_injection() {
        let config =
            FaultConfig { worker_panic_ppm: PPM, worker_panic_limit: 2, ..FaultConfig::off() };
        let plan = FaultPlan::new(6, config);
        let fired: Vec<bool> = (0..8).map(|_| plan.worker_panic_now()).collect();
        assert_eq!(fired.iter().filter(|&&b| b).count(), 2);
        assert_eq!(plan.counts().worker_panics, 2);
    }
}
