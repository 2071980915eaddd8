//! Loopback/network TCP transport: [`Wire`] for `TcpStream` and a
//! [`Listener`] over `TcpListener` with graceful close.

use super::{BoxedWire, Deadline, Limits, Listener, Wire};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

impl Wire for TcpStream {
    fn apply_limits(&mut self, limits: &Limits) -> io::Result<()> {
        self.set_nodelay(true).ok();
        self.set_read_timeout(limits.read_timeout)?;
        self.set_write_timeout(limits.write_timeout)?;
        Ok(())
    }

    fn peer(&self) -> String {
        self.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "tcp:?".into())
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }

    /// std has no `poll(2)`, so the wait is a blocking one-byte `peek`
    /// under a receive timeout; the old timeout and nonblocking mode are
    /// restored afterwards. Linux rounds the receive timeout up to a whole
    /// jiffy (1–10 ms by `CONFIG_HZ`), so a short `timeout` parks longer.
    fn wait_readable(&mut self, timeout: Duration) -> io::Result<()> {
        if timeout.is_zero() {
            return Ok(());
        }
        let old = self.read_timeout()?;
        TcpStream::set_nonblocking(self, false)?;
        let parked = self.set_read_timeout(Some(timeout)).map(|()| {
            // Bytes, EOF, a socket error and the timeout all end the wait;
            // the caller's next read tells them apart.
            let _ = self.peek(&mut [0u8; 1]);
        });
        let restored =
            self.set_read_timeout(old).and_then(|()| TcpStream::set_nonblocking(self, true));
        parked.and(restored)
    }
}

/// TCP [`Listener`] with a cooperative close: the closer sets a flag and
/// pokes the accept loop with a loopback connection so it observes it.
pub struct TcpAcceptor {
    listener: TcpListener,
    closed: Arc<AtomicBool>,
}

impl std::fmt::Debug for TcpAcceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpAcceptor").field("addr", &self.local_desc()).finish()
    }
}

impl TcpAcceptor {
    /// Wraps a bound listener.
    pub fn new(listener: TcpListener) -> Self {
        TcpAcceptor { listener, closed: Arc::new(AtomicBool::new(false)) }
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(Self::new(TcpListener::bind(addr)?))
    }

    /// The bound socket address (to print or connect back to).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }
}

impl Listener for TcpAcceptor {
    fn accept(&mut self) -> Option<BoxedWire> {
        // Errors from accept() must not kill the service: a client that
        // resets mid-handshake (ECONNABORTED) or a transient fd shortage
        // (EMFILE) during a flood would otherwise terminate the accept
        // loop and shut the whole server down.
        let mut give_up = Deadline::unbounded();
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The closer's wake-up connection is not a real client.
                    if self.closed.load(Ordering::SeqCst) {
                        return None;
                    }
                    return Some(Box::new(stream));
                }
                Err(e) => match e.kind() {
                    // Per-connection failures: the next accept is expected
                    // to work, retry immediately and indefinitely.
                    io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::Interrupted
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut => give_up = Deadline::unbounded(),
                    // Anything else (resource exhaustion, listener gone):
                    // back off briefly — the shortage may pass — and give
                    // up only once it has persisted a full deadline.
                    _ => {
                        if give_up.instant().is_none() {
                            give_up = Deadline::after(Some(Duration::from_secs(5)));
                        } else if give_up.expired() {
                            return None;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                },
            }
        }
    }

    fn local_desc(&self) -> String {
        self.listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "tcp:?".into())
    }

    fn closer(&self) -> Box<dyn Fn() + Send + Sync> {
        let closed = Arc::clone(&self.closed);
        let addr = self.listener.local_addr().ok();
        Box::new(move || {
            if closed.swap(true, Ordering::SeqCst) {
                return; // already closed
            }
            // Unblock the accept call.
            if let Some(addr) = addr {
                let _ = TcpStream::connect(addr);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Framed;
    use std::io::Write;

    #[test]
    fn accept_and_frame_over_tcp() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut framed = Framed::new(stream, Limits::default()).unwrap();
            framed.send(7, b"ping").unwrap();
            framed.recv().unwrap()
        });
        let wire = acceptor.accept().expect("connection");
        let mut framed = Framed::new(wire, Limits::default()).unwrap();
        let (tag, body) = framed.recv().unwrap().expect("frame");
        assert_eq!((tag, body.as_slice()), (7, b"ping".as_slice()));
        framed.send(0, b"pong").unwrap();
        assert_eq!(client.join().unwrap(), Some((0, b"pong".to_vec())));
    }

    #[test]
    fn closer_unblocks_accept() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let close = acceptor.closer();
        let t = std::thread::spawn(move || acceptor.accept().is_none());
        std::thread::sleep(std::time::Duration::from_millis(50));
        close();
        assert!(t.join().unwrap(), "accept must return None after close");
    }

    #[test]
    fn wait_readable_parks_until_bytes_eof_or_timeout() {
        let read_timeout = Some(Duration::from_secs(7));
        crate::transport::check_wait_readable(
            || {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (mut server, _) = listener.accept().unwrap();
                server.apply_limits(&Limits { read_timeout, ..Limits::default() }).unwrap();
                (client, server)
            },
            |server| assert_eq!(server.read_timeout().unwrap(), read_timeout),
        );
    }

    #[test]
    fn garbage_before_handshake_is_a_bad_frame() {
        // A client that writes garbage bytes produces either an oversized
        // declared length or an unknown tag — never a panic.
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0xFF; 64]).unwrap();
        });
        let wire = acceptor.accept().expect("connection");
        let mut framed = Framed::new(wire, Limits::default()).unwrap();
        // 0xFFFFFFFF declared length must be rejected by the limit.
        let e = framed.recv().unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        t.join().unwrap();
    }
}
