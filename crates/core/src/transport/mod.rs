//! Wire layer: length-prefixed framing with hard size limits and
//! read/write timeouts, over any bidirectional byte stream.
//!
//! One frame codec serves every wire: [`WriteBuffer`] encodes and
//! [`FrameAssembler`] decodes, both for the nonblocking shard event loop
//! and under the blocking [`Framed`] loop the clients use, over loopback
//! TCP ([`tcp`]) and the in-process channel ([`channel`]) alike — so tests
//! and benches exercise the identical framing the network server uses.
//! Frame format (unchanged from the paper's `server.py` protocol):
//!
//! ```text
//! request  = [req u8][len u32 LE][payload]
//! response = [status u8][len u32 LE][payload]
//! ```

pub mod channel;
pub mod tcp;

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Hard limits applied to every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum frame payload length accepted or sent.
    pub max_frame: usize,
    /// Timeout for blocking reads (`None` = wait forever).
    pub read_timeout: Option<Duration>,
    /// Timeout for blocking writes (`None` = wait forever).
    pub write_timeout: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_frame: 1 << 20, // 1 MiB: well above any secret.data payload
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl Limits {
    /// The largest frame size any [`Limits`] can carry: the length prefix
    /// is a `u32`, so a larger limit would let `send` silently truncate
    /// payload lengths on the wire.
    pub const MAX_FRAME_CEILING: usize = u32::MAX as usize;

    /// Limits with a short read timeout (tests exercising stalled peers).
    pub fn with_read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = Some(t);
        self
    }

    /// Limits with a different maximum frame size, clamped to
    /// [`Limits::MAX_FRAME_CEILING`].
    pub fn with_max_frame(mut self, max: usize) -> Self {
        self.max_frame = max.min(Self::MAX_FRAME_CEILING);
        self
    }

    /// A copy with `max_frame` clamped to what the wire format can encode.
    /// Applied by [`Framed::new`] so limits built via struct update syntax
    /// are clamped too.
    pub fn clamped(mut self) -> Self {
        self.max_frame = self.max_frame.min(Self::MAX_FRAME_CEILING);
        self
    }

    /// The deadline a blocking read started now must meet.
    pub fn read_deadline(&self) -> Deadline {
        Deadline::after(self.read_timeout)
    }

    /// The deadline a blocking write started now must meet.
    pub fn write_deadline(&self) -> Deadline {
        Deadline::after(self.write_timeout)
    }
}

/// A point in time an operation must finish by — the one timeout
/// representation shared by every transport.
///
/// TCP reads delegate to the kernel's per-call socket timeout; the pipe
/// transport waits on a channel. Both previously approximated "a read may
/// block at most `read_timeout`" independently (and the pipe restarted its
/// wait on every received chunk, so a trickling peer could stall a single
/// read forever). Each blocking call now computes one `Deadline` up front
/// and charges every internal wait against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `timeout` from now; `None` never expires.
    pub fn after(timeout: Option<Duration>) -> Self {
        Deadline { at: timeout.map(|t| Instant::now() + t) }
    }

    /// A deadline that never expires.
    pub fn unbounded() -> Self {
        Deadline { at: None }
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        self.expired_at(Instant::now())
    }

    /// True if the deadline had passed by `now` — lets an event loop
    /// judge every deadline of a tick against one clock read.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.at.is_some_and(|at| now >= at)
    }

    /// Time left before expiry (`None` = unbounded; zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// The instant this deadline expires, if bounded.
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// The `TimedOut` error a caller reports when this deadline expires.
    pub fn timeout_error(what: &str) -> io::Error {
        io::Error::new(io::ErrorKind::TimedOut, format!("{what} timed out"))
    }
}

/// A bidirectional byte stream a [`Framed`] codec can run over.
pub trait Wire: Read + Write + Send {
    /// Applies the connection limits (timeouts) to the underlying stream.
    ///
    /// # Errors
    ///
    /// Propagates the stream's timeout-configuration errors.
    fn apply_limits(&mut self, limits: &Limits) -> io::Result<()>;

    /// Human-readable peer description (logging/diagnostics only).
    fn peer(&self) -> String;

    /// Switches the wire between blocking and readiness-driven mode. In
    /// nonblocking mode a read or write that cannot make progress returns
    /// `WouldBlock` instead of parking the thread — the contract the shard
    /// event loop in [`crate::service`] is built on.
    ///
    /// # Errors
    ///
    /// Propagates the stream's mode-configuration errors.
    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()>;

    /// Parks the calling thread until the wire has bytes to read or the
    /// peer has closed, or until `timeout` passes — the blocking wait an
    /// idle event loop uses instead of a fixed sleep. Consumes nothing:
    /// the next read sees exactly what it would have seen, and a wire in
    /// nonblocking mode is nonblocking again on return. Returning is no
    /// promise of readiness; the caller polls the wire either way.
    ///
    /// The default cannot watch the wire and sleeps for `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates failures to switch the wire's mode or timeout; the wire
    /// may then be left in a state the caller cannot poll, so the caller
    /// should drop it.
    fn wait_readable(&mut self, timeout: Duration) -> io::Result<()> {
        std::thread::sleep(timeout);
        Ok(())
    }
}

/// Type-erased wire, as produced by a [`Listener`].
pub type BoxedWire = Box<dyn Wire>;

impl Wire for BoxedWire {
    fn apply_limits(&mut self, limits: &Limits) -> io::Result<()> {
        (**self).apply_limits(limits)
    }

    fn peer(&self) -> String {
        (**self).peer()
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        (**self).set_nonblocking(nonblocking)
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<()> {
        (**self).wait_readable(timeout)
    }
}

/// A source of inbound connections (the server side of a transport).
pub trait Listener: Send {
    /// Blocks for the next connection; `None` means the listener closed.
    fn accept(&mut self) -> Option<BoxedWire>;

    /// Human-readable bound-address description.
    fn local_desc(&self) -> String;

    /// Returns a closer that unblocks `accept` and makes it return `None`.
    /// Used for graceful service shutdown; callable from any thread.
    fn closer(&self) -> Box<dyn Fn() + Send + Sync>;
}

/// Blocking frame codec over a [`Wire`], enforcing [`Limits`]: a thin
/// loop over the same [`WriteBuffer`] encoder and [`FrameAssembler`]
/// decoder the nonblocking shard loop uses, so the frame format and its
/// limit checks live in one place.
pub struct Framed<W: Wire> {
    wire: W,
    limits: Limits,
    out: WriteBuffer,
}

impl<W: Wire> std::fmt::Debug for Framed<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Framed")
            .field("peer", &self.wire.peer())
            .field("limits", &self.limits)
            .finish()
    }
}

impl<W: Wire> Framed<W> {
    /// Wraps `wire`, applying `limits` to it.
    ///
    /// # Errors
    ///
    /// Propagates timeout-configuration errors from the wire.
    pub fn new(mut wire: W, limits: Limits) -> io::Result<Self> {
        // max_frame is a pub field, so clamp here as well as in the
        // builder: a limit above u32::MAX would let frame lengths wrap.
        let limits = limits.clamped();
        wire.apply_limits(&limits)?;
        Ok(Framed { wire, limits, out: WriteBuffer::new() })
    }

    /// The configured limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Peer description of the underlying wire.
    pub fn peer(&self) -> String {
        self.wire.peer()
    }

    /// Sends one `[tag][len u32][payload]` frame.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the payload exceeds the frame limit; `TimedOut`
    /// if the peer stops reading past the write timeout; otherwise the
    /// wire's write errors.
    pub fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        self.out.push_frame(tag, payload, &self.limits)?;
        // A blocking wire only reports `WouldBlock` once its timeout expires.
        if self.out.flush(&mut self.wire)? {
            Ok(())
        } else {
            Err(Deadline::timeout_error("write"))
        }
    }

    /// Receives one frame. `Ok(None)` means the peer closed cleanly at a
    /// frame boundary.
    ///
    /// # Errors
    ///
    /// * `InvalidData` — declared length exceeds the frame limit.
    /// * `UnexpectedEof` — the peer closed mid-frame (truncated frame).
    /// * `TimedOut` — the peer stalled past the read timeout.
    pub fn recv(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        // A blocking receive ends in a whole frame or a connection-fatal
        // error, so no decoder state outlives the call.
        match FrameAssembler::new(&self.limits).poll(&mut self.wire)? {
            FrameProgress::Frame(tag, payload) => Ok(Some((tag, payload))),
            FrameProgress::Closed => Ok(None),
            FrameProgress::Pending => Err(Deadline::timeout_error("read")),
        }
    }
}

/// True for errors produced by a stalled peer hitting the read timeout.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
}

/// Progress of a nonblocking frame read (see [`FrameAssembler::poll`]).
#[derive(Debug, PartialEq, Eq)]
pub enum FrameProgress {
    /// One complete `[tag][len][payload]` frame.
    Frame(u8, Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// No complete frame yet; poll again when the wire is readable.
    Pending,
}

/// Incremental decoder for the `[tag u8][len u32 LE][payload]` frame
/// format — the one decoder, under both [`Framed::recv`] and the shard
/// event loop.
///
/// A shard event loop calls [`FrameAssembler::poll`] whenever a wire might
/// be readable; partial headers and payloads are carried across calls, so
/// a frame fragmented over any number of reads (short reads, slow peers)
/// reassembles exactly once. Oversized declared lengths are `InvalidData`,
/// a peer vanishing mid-frame is `UnexpectedEof`.
#[derive(Debug)]
pub struct FrameAssembler {
    max_frame: usize,
    header: [u8; 5],
    header_have: usize,
    payload: Vec<u8>,
    payload_have: usize,
    in_payload: bool,
    /// Total bytes consumed since construction (activity tracking: the
    /// service resets a connection's idle deadline when this advances).
    consumed: u64,
}

impl FrameAssembler {
    /// An assembler enforcing `limits.max_frame`.
    pub fn new(limits: &Limits) -> Self {
        FrameAssembler {
            max_frame: limits.clamped().max_frame,
            header: [0u8; 5],
            header_have: 0,
            payload: Vec::new(),
            payload_have: 0,
            in_payload: false,
            consumed: 0,
        }
    }

    /// Total bytes this assembler has consumed from its wire.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// True when a frame is partially read (a close now is a truncation).
    pub fn mid_frame(&self) -> bool {
        self.header_have > 0 || self.in_payload
    }

    fn reset(&mut self) -> FrameProgress {
        let tag = self.header[0];
        let payload = std::mem::take(&mut self.payload);
        self.header_have = 0;
        self.payload_have = 0;
        self.in_payload = false;
        FrameProgress::Frame(tag, payload)
    }

    /// Drives the decoder with whatever `wire` has buffered right now.
    /// Returns after at most one complete frame so the caller can
    /// interleave frames from many connections fairly.
    ///
    /// # Errors
    ///
    /// * `InvalidData` — declared length exceeds the frame limit.
    /// * `UnexpectedEof` — the peer closed mid-frame.
    /// * Any wire read error except `WouldBlock`/`Interrupted` (those map
    ///   to `Pending` and a retried read respectively).
    pub fn poll<R: Read + ?Sized>(&mut self, wire: &mut R) -> io::Result<FrameProgress> {
        loop {
            if !self.in_payload {
                match wire.read(&mut self.header[self.header_have..]) {
                    Ok(0) => {
                        return if self.header_have == 0 {
                            Ok(FrameProgress::Closed)
                        } else {
                            Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "peer closed mid-header",
                            ))
                        };
                    }
                    Ok(n) => {
                        self.header_have += n;
                        self.consumed += n as u64;
                        if self.header_have < self.header.len() {
                            continue;
                        }
                        let len = u32::from_le_bytes(self.header[1..5].try_into().expect("4 bytes"))
                            as usize;
                        if len > self.max_frame {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "declared frame length {len} exceeds limit {}",
                                    self.max_frame
                                ),
                            ));
                        }
                        if len == 0 {
                            return Ok(self.reset());
                        }
                        self.payload = vec![0u8; len];
                        self.payload_have = 0;
                        self.in_payload = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(FrameProgress::Pending);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            } else {
                match wire.read(&mut self.payload[self.payload_have..]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer closed mid-frame",
                        ));
                    }
                    Ok(n) => {
                        self.payload_have += n;
                        self.consumed += n as u64;
                        if self.payload_have == self.payload.len() {
                            return Ok(self.reset());
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(FrameProgress::Pending);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

/// Outbound frame queue — the one encoder, under both [`Framed::send`]
/// and the shard event loop, where a write may take `WouldBlock`.
///
/// Frames are encoded into the queue immediately (so the caller never
/// blocks building a response) and drained opportunistically by
/// [`WriteBuffer::flush`] whenever the event loop visits the connection.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: std::collections::VecDeque<u8>,
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Queued bytes not yet written to the wire.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Encodes one `[tag][len u32][payload]` frame into the queue.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the payload exceeds the frame limit.
    pub fn push_frame(&mut self, tag: u8, payload: &[u8], limits: &Limits) -> io::Result<()> {
        if payload.len() > limits.clamped().max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds limit {}", payload.len(), limits.max_frame),
            ));
        }
        let len = u32::try_from(payload.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds the u32 length prefix", payload.len()),
            )
        })?;
        self.buf.reserve(5 + payload.len());
        self.buf.push_back(tag);
        self.buf.extend(len.to_le_bytes());
        self.buf.extend(payload.iter().copied());
        Ok(())
    }

    /// Writes as much queued output as the wire accepts right now.
    /// Returns `true` when the queue drained completely.
    ///
    /// # Errors
    ///
    /// Any wire write error except `WouldBlock` (reported as `Ok(false)`)
    /// and `Interrupted` (retried). A wire that accepts zero bytes without
    /// erroring is reported as `WriteZero`.
    pub fn flush<W: Write + ?Sized>(&mut self, wire: &mut W) -> io::Result<bool> {
        while !self.buf.is_empty() {
            let (front, _) = self.buf.as_slices();
            match wire.write(front) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "wire accepted no bytes"));
                }
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        match wire.flush() {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Checks the [`Wire::wait_readable`] contract on one kind of wire.
/// `pair` makes a connected `(peer, wire)`; the checker switches the wire
/// to nonblocking mode, as a shard holds it, and `restored` asserts the
/// settings a wait must put back besides that mode. The wait must return
/// soon after a peer write and at peer EOF, return after its timeout when
/// nothing arrives, consume nothing, and leave the wire nonblocking.
#[cfg(test)]
pub(crate) fn check_wait_readable<P, W>(pair: impl Fn() -> (P, W), restored: impl Fn(&W))
where
    P: Write + Send + 'static,
    W: Wire,
{
    use std::thread::{sleep, spawn};
    let soon = Duration::from_secs(1);
    let long = Duration::from_secs(2);
    // The peer acts 50 ms into a 2 s wait; a peer it returns stays open.
    let after = |peer_action: fn(P) -> Option<P>| {
        let (peer, mut wire) = pair();
        wire.set_nonblocking(true).unwrap();
        let peer = spawn(move || {
            sleep(Duration::from_millis(50));
            peer_action(peer)
        });
        let start = Instant::now();
        wire.wait_readable(long).unwrap();
        let waited = start.elapsed();
        let peer = peer.join().unwrap();
        assert!(waited < soon, "woke {waited:?} after the peer acted");
        (peer, wire)
    };
    let still_nonblocking = |wire: &mut W| {
        restored(wire);
        let e = wire.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e:?}");
    };

    // Wakes on a peer write, and consumes nothing.
    let (_peer, mut wire) = after(|mut peer| {
        peer.write_all(b"x").unwrap();
        Some(peer)
    });
    let mut buf = [0u8; 1];
    assert_eq!((wire.read(&mut buf).unwrap(), buf), (1, *b"x"), "the wait consumed the byte");
    still_nonblocking(&mut wire);

    // Wakes at peer EOF.
    let (_, mut wire) = after(|peer| {
        drop(peer);
        None
    });
    assert_eq!(wire.read(&mut [0u8; 1]).unwrap(), 0, "EOF");
    restored(&wire);

    // Returns after its timeout when nothing arrives. TCP counts the
    // timeout in kernel jiffies, so allow one jiffy (at most 10 ms) early.
    let (_peer, mut wire) = pair();
    wire.set_nonblocking(true).unwrap();
    let start = Instant::now();
    wire.wait_readable(Duration::from_millis(200)).unwrap();
    let waited = start.elapsed();
    assert!(waited >= Duration::from_millis(190), "returned after {waited:?}");
    assert!(waited < long, "returned after {waited:?}");
    still_nonblocking(&mut wire);

    // Bytes already waiting: returns at once, twice in a row, and the
    // wire is still nonblocking once they are read.
    let (mut peer, mut wire) = pair();
    wire.set_nonblocking(true).unwrap();
    peer.write_all(b"yz").unwrap();
    let start = Instant::now();
    wire.wait_readable(long).unwrap();
    wire.wait_readable(long).unwrap();
    assert!(start.elapsed() < soon, "waited {:?} with bytes ready", start.elapsed());
    let mut buf = [0u8; 2];
    wire.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"yz");
    still_nonblocking(&mut wire);
}

#[cfg(test)]
mod tests {
    use super::channel::pipe;
    use super::*;
    use std::time::Duration;

    fn framed_pair(
        limits: Limits,
    ) -> (Framed<super::channel::PipeStream>, Framed<super::channel::PipeStream>) {
        let (a, b) = pipe();
        (Framed::new(a, limits).unwrap(), Framed::new(b, limits).unwrap())
    }

    #[test]
    fn roundtrip_frames() {
        let (mut a, mut b) = framed_pair(Limits::default());
        a.send(3, b"hello").unwrap();
        a.send(1, &[]).unwrap();
        assert_eq!(b.recv().unwrap(), Some((3, b"hello".to_vec())));
        assert_eq!(b.recv().unwrap(), Some((1, Vec::new())));
    }

    #[test]
    fn clean_eof_is_none() {
        let (a, mut b) = framed_pair(Limits::default());
        drop(a);
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn oversized_send_rejected_locally() {
        let limits = Limits::default().with_max_frame(8);
        let (mut a, _b) = framed_pair(limits);
        let e = a.send(1, &[0u8; 9]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn oversized_declared_length_rejected() {
        let (mut a, mut b) = framed_pair(Limits::default());
        // Sender has generous limits; receiver enforces a small one.
        a.send(1, &[0u8; 64]).unwrap();
        b.limits.max_frame = 8;
        let e = b.recv().unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let (mut a, b) = pipe();
        use std::io::Write;
        // Header declares 100 bytes but the peer hangs up after 3.
        a.write_all(&[1, 100, 0, 0, 0]).unwrap();
        a.write_all(&[9, 9, 9]).unwrap();
        drop(a);
        let mut framed = Framed::new(b, Limits::default()).unwrap();
        let e = framed.recv().unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn max_frame_is_clamped_to_u32() {
        // Regression: a max_frame above u32::MAX let `send` wrap payload
        // lengths in the u32 prefix (a 2^32+1-byte payload would declare a
        // 1-byte frame). Both construction paths must clamp.
        let limits = Limits::default().with_max_frame(usize::MAX);
        assert_eq!(limits.max_frame, u32::MAX as usize);

        // Struct-update bypasses the builder; Framed::new must clamp.
        let raw = Limits { max_frame: usize::MAX, ..Limits::default() };
        let (a, _b) = pipe();
        let framed = Framed::new(a, raw).unwrap();
        assert_eq!(framed.limits().max_frame, u32::MAX as usize);
    }

    #[test]
    fn stalled_peer_hits_read_timeout() {
        let limits = Limits::default().with_read_timeout(Duration::from_millis(50));
        let (_a, b) = pipe();
        let mut framed = Framed::new(b, limits).unwrap();
        let e = framed.recv().unwrap_err();
        assert!(is_timeout(&e), "{e:?}");
    }

    #[test]
    fn deadline_expires_and_reports_remaining() {
        let d = Deadline::after(Some(Duration::from_millis(10)));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() <= Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(15));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));

        let forever = Deadline::unbounded();
        assert!(!forever.expired());
        assert_eq!(forever.remaining(), None);
        assert!(is_timeout(&Deadline::timeout_error("read")));
    }

    #[test]
    fn assembler_reassembles_fragmented_frames() {
        use std::io::Write;
        let (mut a, mut b) = pipe();
        b.set_nonblocking(true).unwrap();
        let mut asm = FrameAssembler::new(&Limits::default());

        // Nothing buffered yet: pending, no bytes consumed.
        assert_eq!(asm.poll(&mut b).unwrap(), FrameProgress::Pending);
        assert_eq!(asm.consumed(), 0);
        assert!(!asm.mid_frame());

        // Drip one frame in three fragments across polls.
        let mut frame = vec![7u8];
        frame.extend_from_slice(&5u32.to_le_bytes());
        frame.extend_from_slice(b"hello");
        a.write_all(&frame[..3]).unwrap();
        assert_eq!(asm.poll(&mut b).unwrap(), FrameProgress::Pending);
        assert!(asm.mid_frame());
        a.write_all(&frame[3..8]).unwrap();
        assert_eq!(asm.poll(&mut b).unwrap(), FrameProgress::Pending);
        a.write_all(&frame[8..]).unwrap();
        assert_eq!(asm.poll(&mut b).unwrap(), FrameProgress::Frame(7, b"hello".to_vec()));
        assert_eq!(asm.consumed(), frame.len() as u64);
        assert!(!asm.mid_frame());

        // Zero-length payloads are whole frames too.
        a.write_all(&[1, 0, 0, 0, 0]).unwrap();
        assert_eq!(asm.poll(&mut b).unwrap(), FrameProgress::Frame(1, Vec::new()));

        // Clean close at a frame boundary.
        drop(a);
        assert_eq!(asm.poll(&mut b).unwrap(), FrameProgress::Closed);
    }

    #[test]
    fn assembler_rejects_oversized_and_truncated_frames() {
        use std::io::Write;
        // Oversized declared length.
        let (mut a, mut b) = pipe();
        b.set_nonblocking(true).unwrap();
        let mut asm = FrameAssembler::new(&Limits::default().with_max_frame(8));
        a.write_all(&[1, 100, 0, 0, 0]).unwrap();
        assert_eq!(asm.poll(&mut b).unwrap_err().kind(), io::ErrorKind::InvalidData);

        // Truncation mid-payload.
        let (mut a, mut b) = pipe();
        b.set_nonblocking(true).unwrap();
        let mut asm = FrameAssembler::new(&Limits::default());
        a.write_all(&[1, 100, 0, 0, 0, 9, 9, 9]).unwrap();
        drop(a);
        assert_eq!(asm.poll(&mut b).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);

        // Truncation mid-header.
        let (mut a, mut b) = pipe();
        b.set_nonblocking(true).unwrap();
        let mut asm = FrameAssembler::new(&Limits::default());
        a.write_all(&[1, 100]).unwrap();
        drop(a);
        assert_eq!(asm.poll(&mut b).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn write_buffer_queues_and_drains_frames() {
        let (mut a, b) = pipe();
        let limits = Limits::default();
        let mut out = WriteBuffer::new();
        assert!(out.is_empty());
        out.push_frame(3, b"hello", &limits).unwrap();
        out.push_frame(1, &[], &limits).unwrap();
        assert_eq!(out.len(), 5 + 5 + 5);
        assert!(out.flush(&mut a).unwrap(), "pipe writes never block");
        assert!(out.is_empty());

        let mut framed = Framed::new(b, limits).unwrap();
        assert_eq!(framed.recv().unwrap(), Some((3, b"hello".to_vec())));
        assert_eq!(framed.recv().unwrap(), Some((1, Vec::new())));
    }

    #[test]
    fn write_buffer_enforces_frame_limit() {
        let limits = Limits::default().with_max_frame(8);
        let mut out = WriteBuffer::new();
        let e = out.push_frame(1, &[0u8; 9], &limits).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "a rejected frame must not be partially queued");
    }

    #[test]
    fn write_buffer_handles_would_block_partial_writes() {
        /// A sink that accepts at most 3 bytes per write and blocks every
        /// other call.
        struct Throttled {
            data: Vec<u8>,
            turn: bool,
        }
        impl Write for Throttled {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.turn = !self.turn;
                if !self.turn {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"));
                }
                let n = buf.len().min(3);
                self.data.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut sink = Throttled { data: Vec::new(), turn: false };
        let mut out = WriteBuffer::new();
        out.push_frame(9, b"abcdefgh", &Limits::default()).unwrap();
        let mut rounds = 0;
        while !out.flush(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 32, "flush must converge");
        }
        assert!(rounds > 0, "the throttled sink must have blocked at least once");
        let mut expect = vec![9u8];
        expect.extend_from_slice(&8u32.to_le_bytes());
        expect.extend_from_slice(b"abcdefgh");
        assert_eq!(sink.data, expect);
    }
}
