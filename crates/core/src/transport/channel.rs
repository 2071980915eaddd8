//! In-process channel transport: a [`PipeStream`] pair over `mpsc` byte
//! chunks, plus a [`Listener`] so the service layer can serve in-process
//! clients through the exact same framing/session code as TCP.

use super::{BoxedWire, Deadline, Limits, Listener, Wire};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One end of an in-process bidirectional byte stream.
///
/// Reads block (honoring the read timeout from [`Limits`]); a dropped peer
/// reads as clean EOF, exactly like a closed TCP socket. In nonblocking
/// mode ([`Wire::set_nonblocking`]) a read with no buffered data returns
/// `WouldBlock` instead, mirroring a nonblocking socket.
pub struct PipeStream {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    pending: VecDeque<u8>,
    read_timeout: Option<Duration>,
    nonblocking: bool,
    label: &'static str,
}

impl std::fmt::Debug for PipeStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeStream").field("label", &self.label).finish_non_exhaustive()
    }
}

/// Creates a connected pair of in-process streams.
pub fn pipe() -> (PipeStream, PipeStream) {
    let (tx_a, rx_b) = channel();
    let (tx_b, rx_a) = channel();
    (
        PipeStream {
            tx: tx_a,
            rx: rx_a,
            pending: VecDeque::new(),
            read_timeout: None,
            nonblocking: false,
            label: "pipe:a",
        },
        PipeStream {
            tx: tx_b,
            rx: rx_b,
            pending: VecDeque::new(),
            read_timeout: None,
            nonblocking: false,
            label: "pipe:b",
        },
    )
}

impl Read for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.nonblocking {
            // Drain whatever is buffered without parking the thread.
            while self.pending.is_empty() {
                match self.rx.try_recv() {
                    Ok(chunk) => self.pending.extend(chunk),
                    Err(TryRecvError::Empty) => {
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, "pipe not ready"));
                    }
                    Err(TryRecvError::Disconnected) => return Ok(0),
                }
            }
        }
        // Block for data, charging every wait against one deadline so a
        // peer trickling empty chunks cannot stall a single read past the
        // read timeout (TCP's kernel timeout has the same bound). EOF is
        // only a disconnect.
        let deadline = Deadline::after(self.read_timeout);
        while self.pending.is_empty() {
            let chunk = match deadline.remaining() {
                Some(left) => match self.rx.recv_timeout(left) {
                    Ok(c) => c,
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(Deadline::timeout_error("pipe read"));
                    }
                    Err(RecvTimeoutError::Disconnected) => return Ok(0),
                },
                None => match self.rx.recv() {
                    Ok(c) => c,
                    Err(_) => return Ok(0),
                },
            };
            self.pending.extend(chunk);
        }
        let mut n = 0;
        while n < buf.len() {
            match self.pending.pop_front() {
                Some(b) => {
                    buf[n] = b;
                    n += 1;
                }
                None => match self.rx.try_recv() {
                    Ok(chunk) => self.pending.extend(chunk),
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                },
            }
        }
        Ok(n)
    }
}

impl Write for PipeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe peer gone"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Wire for PipeStream {
    fn apply_limits(&mut self, limits: &Limits) -> io::Result<()> {
        self.read_timeout = limits.read_timeout;
        // Writes to an unbounded channel cannot block; nothing to set.
        Ok(())
    }

    fn peer(&self) -> String {
        format!("in-process ({})", self.label)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        self.nonblocking = nonblocking;
        Ok(())
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<()> {
        if self.pending.is_empty() {
            // A chunk, a disconnect (EOF) and the timeout all end the
            // wait; a received chunk is kept for the next read.
            if let Ok(chunk) = self.rx.recv_timeout(timeout) {
                self.pending.extend(chunk);
            }
        }
        Ok(())
    }
}

/// Connect side of an in-process listener; clone freely across threads.
#[derive(Clone)]
pub struct ChannelHost {
    tx: Sender<Option<PipeStream>>,
}

impl std::fmt::Debug for ChannelHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelHost").finish_non_exhaustive()
    }
}

impl ChannelHost {
    /// Opens a new connection to the listener, returning the client end.
    ///
    /// # Errors
    ///
    /// `BrokenPipe` if the listener has shut down.
    pub fn connect(&self) -> io::Result<PipeStream> {
        let (client, server) = pipe();
        self.tx
            .send(Some(server))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "listener gone"))?;
        Ok(client)
    }
}

/// In-process [`Listener`]: yields the server end of every [`ChannelHost`]
/// connection.
pub struct ChannelListener {
    rx: Receiver<Option<PipeStream>>,
    closer_tx: Arc<Mutex<Sender<Option<PipeStream>>>>,
}

impl std::fmt::Debug for ChannelListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelListener").finish_non_exhaustive()
    }
}

/// Creates an in-process listener and its connect handle.
pub fn channel_listener() -> (ChannelListener, ChannelHost) {
    let (tx, rx) = channel();
    (ChannelListener { rx, closer_tx: Arc::new(Mutex::new(tx.clone())) }, ChannelHost { tx })
}

impl Listener for ChannelListener {
    fn accept(&mut self) -> Option<BoxedWire> {
        // `None` on the channel is the close sentinel; a disconnected
        // channel (all hosts dropped) also ends the listener.
        match self.rx.recv() {
            Ok(Some(stream)) => Some(Box::new(stream)),
            Ok(None) | Err(_) => None,
        }
    }

    fn local_desc(&self) -> String {
        "in-process".into()
    }

    fn closer(&self) -> Box<dyn Fn() + Send + Sync> {
        let tx = Arc::clone(&self.closer_tx);
        Box::new(move || {
            let _ = tx.lock().expect("closer sender").send(None);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_roundtrip() {
        let (mut a, mut b) = pipe();
        a.write_all(b"over the pipe").unwrap();
        let mut buf = [0u8; 13];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"over the pipe");
    }

    #[test]
    fn dropped_peer_reads_as_eof() {
        let (a, mut b) = pipe();
        drop(a);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn wait_readable_parks_until_bytes_eof_or_timeout() {
        crate::transport::check_wait_readable(pipe, |_| {});
    }

    #[test]
    fn listener_yields_connections_then_closes() {
        let (mut listener, host) = channel_listener();
        let mut client = host.connect().unwrap();
        let mut server_end = listener.accept().expect("one connection");
        client.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        server_end.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");

        let close = listener.closer();
        close();
        assert!(listener.accept().is_none());
    }
}
