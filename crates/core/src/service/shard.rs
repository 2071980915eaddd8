//! One shard of the provisioning event loop.
//!
//! A shard owns a set of nonblocking connections and drives them all from
//! a single thread. Each tick admits new connections from the accept
//! thread's injector, reads the clock once, and makes one pass over every
//! connection: answer the frames that are ready, flush responses, and drop
//! the connection if it finished or its read or write deadline passed.
//!
//! A shard waits in two places. With no connections it parks on the
//! injector. After a pass that answered nothing it parks, for at most
//! `IDLE_TICK_SLEEP`, on its hottest socket: the reading connection that
//! last made progress, which in a request-response conversation is the one
//! that sends next, so its request is answered as it arrives. It sleeps
//! only when no connection is reading. While parked, the shard's other
//! connections and new admissions wait for the park to end — on TCP up to
//! one kernel jiffy, since Linux rounds the receive timeout up to that.

use super::conn::{Conn, Pump};
use crate::faults::FaultPlan;
use crate::server::AuthServer;
use crate::transport::{BoxedWire, Limits};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an empty shard parks on its injector per iteration.
const IDLE_ACCEPT_WAIT: Duration = Duration::from_millis(10);
/// Longest idle wait between passes when connections exist but none made
/// progress: the shard parks this long on its hottest reading connection
/// (woken early by its bytes or EOF), or sleeps it when none is reading.
/// On TCP, Linux rounds the wait up to one jiffy (1–10 ms by `CONFIG_HZ`).
const IDLE_TICK_SLEEP: Duration = Duration::from_micros(500);

pub(super) fn shard_loop(
    rx: Receiver<BoxedWire>,
    server: Arc<AuthServer>,
    limits: Limits,
    faults: Option<FaultPlan>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut injector_open = true;

    loop {
        // --- admit ---------------------------------------------------
        if injector_open && conns.is_empty() {
            // Nothing to poll: park on the injector instead of spinning.
            match rx.recv_timeout(IDLE_ACCEPT_WAIT) {
                Ok(wire) => admit(wire, &mut conns, &server, limits, &faults),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => injector_open = false,
            }
        }
        while injector_open {
            match rx.try_recv() {
                Ok(wire) => admit(wire, &mut conns, &server, limits, &faults),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => injector_open = false,
            }
        }
        if !injector_open && conns.is_empty() {
            return;
        }

        // --- one pass: read, answer, flush, expire -------------------
        let now = Instant::now();
        let mut progress = false;
        conns.retain_mut(|conn| {
            // One connection's panic (poisoned session state, injected
            // faults) must not take down the shard and every other
            // connection on it.
            match catch_unwind(AssertUnwindSafe(|| conn.pump(&server, now))) {
                Ok(Pump::Progress) => {
                    progress = true;
                    true
                }
                Ok(Pump::Idle) => true,
                Ok(Pump::Close) | Err(_) => false,
            }
        });

        if progress || conns.is_empty() {
            // Reaped the last connection: park on the injector at once.
            continue;
        }
        // Idle pass: block until the connection that spoke last is
        // readable — in a request-response conversation it sends next.
        match conns.iter_mut().filter(|c| c.reading()).max_by_key(|c| c.last_progress()) {
            Some(hottest) => hottest.wait_readable(IDLE_TICK_SLEEP),
            None => std::thread::sleep(IDLE_TICK_SLEEP),
        }
    }
}

fn admit(
    wire: BoxedWire,
    conns: &mut Vec<Conn>,
    server: &AuthServer,
    limits: Limits,
    faults: &Option<FaultPlan>,
) {
    // The injected worker panic maps to admission: the shard slot panics
    // before serving, and the connection is dropped without a response.
    // The panic still routes through the (silenceable) panic hook.
    if let Some(plan) = faults {
        if plan.worker_panic_now() {
            let _ = catch_unwind(|| panic!("injected worker panic"));
            return;
        }
    }
    if let Ok(conn) = Conn::admit(wire, limits, server) {
        conns.push(conn);
    }
}
