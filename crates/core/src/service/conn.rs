//! One connection inside a shard event loop: nonblocking wire, frame
//! reassembly, the protocol [`Session`], buffered responses, the
//! read/write deadlines the shard checks on every tick, and the time of
//! its last progress, by which an idle shard picks the socket to park on.
//!
//! ```text
//!   [Reading] --frame--> Session::handle --> response queued
//!       ^                                          |
//!       +------------------------------------------+
//!       |
//!       +-- EOF --> [Draining] -- out buffer empty --> [Closed]
//!       +-- wire error / deadline / oversize ---------> [Closed]
//! ```
//!
//! Every request frame — HANDSHAKE and RESUME included — is answered in
//! line as soon as it is parsed, so a session's responses leave in request
//! order and a request pipelined behind a handshake sees the session that
//! handshake established.

use crate::error::ServerError;
use crate::protocol::{server_error_to_status, STATUS_OK};
use crate::server::AuthServer;
use crate::session::Session;
use crate::transport::{BoxedWire, Deadline, FrameAssembler, FrameProgress, Limits, WriteBuffer};
use std::time::{Duration, Instant};

/// What a pump step concluded about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Pump {
    /// Made progress (frames answered or bytes flushed).
    Progress,
    /// Nothing to do until the wire becomes ready.
    Idle,
    /// The connection is finished; the shard should drop it.
    Close,
}

pub(super) struct Conn {
    wire: BoxedWire,
    limits: Limits,
    assembler: FrameAssembler,
    out: WriteBuffer,
    session: Session,
    /// Reset whenever the assembler consumes bytes; expiry closes the
    /// connection, so a peer that stops sending mid-frame or goes idle
    /// is dropped.
    read_deadline: Deadline,
    /// Armed while responses sit unflushed; expiry closes the connection.
    write_deadline: Deadline,
    consumed_mark: u64,
    /// Peer closed cleanly; drain the out buffer, then close.
    draining: bool,
    /// Fatal wire/protocol failure; close without draining.
    dead: bool,
    /// The tick that last made progress (admission counts): the shard
    /// parks on its most recently active reading connection.
    last_progress: Instant,
}

impl Conn {
    /// Admits a wire into the event loop: applies limits, switches it to
    /// nonblocking mode, and starts a fresh session.
    ///
    /// # Errors
    ///
    /// Propagates wire configuration failures (the connection is dropped).
    pub(super) fn admit(
        mut wire: BoxedWire,
        limits: Limits,
        server: &AuthServer,
    ) -> std::io::Result<Self> {
        wire.apply_limits(&limits)?;
        wire.set_nonblocking(true)?;
        Ok(Conn {
            wire,
            limits,
            assembler: FrameAssembler::new(&limits),
            out: WriteBuffer::new(),
            session: server.new_session(),
            read_deadline: limits.read_deadline(),
            write_deadline: Deadline::unbounded(),
            consumed_mark: 0,
            draining: false,
            dead: false,
            last_progress: Instant::now(),
        })
    }

    /// One visit from the shard: answers every frame the wire has ready,
    /// flushes as much output as the wire takes, then closes the
    /// connection if it is finished or a deadline passed before `now`.
    pub(super) fn pump(&mut self, server: &AuthServer, now: Instant) -> Pump {
        let read = self.read_frames(server);
        let wrote = !self.dead && self.flush();
        if self.dead
            || (self.draining && self.out.is_empty())
            || self.read_deadline.expired_at(now)
            || self.write_deadline.expired_at(now)
        {
            Pump::Close
        } else if read || wrote {
            self.last_progress = now;
            Pump::Progress
        } else {
            Pump::Idle
        }
    }

    /// When this connection last made progress.
    pub(super) fn last_progress(&self) -> Instant {
        self.last_progress
    }

    /// True while the peer may still send requests (neither at EOF nor
    /// dead), so a wait on its wire can end in a new frame.
    pub(super) fn reading(&self) -> bool {
        !self.draining && !self.dead
    }

    /// Parks until the wire is readable or `timeout` passes. A wire that
    /// cannot be parked and restored to nonblocking mode is dead.
    pub(super) fn wait_readable(&mut self, timeout: Duration) {
        if self.wire.wait_readable(timeout).is_err() {
            self.dead = true;
        }
    }

    /// Reads and answers every frame the wire has ready, stopping at
    /// `WouldBlock`, EOF, or a fatal error. Returns whether any frame
    /// arrived.
    fn read_frames(&mut self, server: &AuthServer) -> bool {
        let mut progress = false;
        while !self.draining && !self.dead {
            match self.assembler.poll(&mut self.wire) {
                Ok(FrameProgress::Frame(tag, payload)) => {
                    progress = true;
                    let result = self.session.handle(server, tag, &payload);
                    self.respond(result);
                }
                Ok(FrameProgress::Pending) => break,
                // Clean EOF: whatever responses are still buffered get
                // flushed before the connection is reaped.
                Ok(FrameProgress::Closed) => self.draining = true,
                // Oversized frames, truncation, injected stalls: drop the
                // connection without a response.
                Err(_) => self.dead = true,
            }
        }
        if self.assembler.consumed() > self.consumed_mark {
            self.consumed_mark = self.assembler.consumed();
            self.read_deadline = self.limits.read_deadline();
        }
        progress
    }

    /// Queues a response frame (status + body). A response the limits
    /// cannot encode kills the connection.
    fn respond(&mut self, result: Result<Vec<u8>, ServerError>) {
        let pushed = match result {
            Ok(body) => self.out.push_frame(STATUS_OK, &body, &self.limits),
            Err(e) => self.out.push_frame(server_error_to_status(&e), &[], &self.limits),
        };
        if pushed.is_err() {
            self.dead = true;
        } else if self.write_deadline.instant().is_none() {
            self.write_deadline = self.limits.write_deadline();
        }
    }

    /// Flushes buffered responses as far as the wire allows. Returns
    /// whether any bytes drained — a stuck peer must not make the shard
    /// busy-spin.
    fn flush(&mut self) -> bool {
        let before = self.out.len();
        if before == 0 {
            return false;
        }
        match self.out.flush(&mut self.wire) {
            Ok(true) => self.write_deadline = Deadline::unbounded(),
            Ok(false) => {}
            Err(_) => self.dead = true,
        }
        self.out.len() < before
    }
}
