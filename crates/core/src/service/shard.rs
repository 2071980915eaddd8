//! One shard of the provisioning event loop.
//!
//! A shard owns a set of nonblocking connections and drives them all from
//! a single thread. Each tick admits new connections from the accept
//! thread's injector, reads the clock once, and makes one pass over every
//! connection: answer the frames that are ready, flush responses, and drop
//! the connection if it finished or its read or write deadline passed.
//! Nothing in a shard blocks on a peer — the only blocking wait is the
//! injector receive when the shard has no connections at all.

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
/// Sleep when connections exist but none made progress this tick.
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

        if !progress {
            std::thread::sleep(IDLE_TICK_SLEEP);
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
