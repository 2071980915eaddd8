//! Service layer: sharded, readiness-driven event loops serving any
//! [`Listener`] against a shared [`AuthServer`], with graceful shutdown.
//!
//! The accept thread distributes connections round-robin over `workers`
//! shard event loops ([`shard`]). Each shard owns its connections
//! outright — nonblocking wires, per-connection frame reassembly and a
//! protocol [`Session`](crate::session::Session) each ([`conn`]) — and
//! answers every request frame in line through
//! [`Session::handle`](crate::session::Session::handle), the one server
//! path for every verb. Once per tick it reads the clock and drops the
//! connections whose read or write deadline passed. When a pass answers
//! nothing, the shard parks briefly on the socket that spoke last
//! ([`Wire::wait_readable`](crate::transport::Wire::wait_readable)), so
//! the next request of a conversation is answered as it arrives and an
//! idle shard costs no CPU. A shard therefore serves thousands of
//! mostly-idle connections from one thread.

mod conn;
pub mod pool;
mod shard;

pub use pool::{EnclavePool, PoolConfig, PoolStats};

use crate::faults::FaultPlan;
use crate::server::AuthServer;
use crate::transport::{BoxedWire, Limits, Listener};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-shard injector depth: how many accepted-but-unadmitted connections
/// may queue per shard before accept backpressures.
const INJECTOR_DEPTH: usize = 256;

/// Tuning for one running service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shard event loops (threads). Defaults to `available_parallelism`.
    pub workers: usize,
    /// Wire limits applied to every accepted connection.
    pub limits: Limits,
    /// Stop accepting after this many connections (`None` = unlimited).
    /// Queued and in-flight connections are still served to completion.
    pub max_connections: Option<usize>,
    /// Fault-injection plan (worker panics). `None` in production.
    pub faults: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: default_workers(),
            limits: Limits::default(),
            max_connections: None,
            faults: None,
        }
    }
}

impl ServiceConfig {
    /// Most shards any config may ask for; far beyond useful, low enough
    /// to catch a unit mix-up (e.g. passing a byte count as a count).
    pub const MAX_WORKERS: usize = 1024;

    /// Config with a connection cap (CLI `--connections` semantics).
    pub fn with_max_connections(mut self, max: Option<usize>) -> Self {
        self.max_connections = max;
        self
    }

    /// Config with an explicit shard count.
    ///
    /// # Panics
    ///
    /// If `workers` is zero — a service with no shards can accept but
    /// never serve, which used to surface as every client hanging until
    /// its timeout. Rejecting at construction makes the mistake loud.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "ServiceConfig: workers must be at least 1");
        self.workers = workers;
        self
    }

    /// Config with different wire limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Config with a fault-injection plan (chaos testing).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Checks the config for values that cannot serve: zero or absurd
    /// worker counts, a zero frame limit, zero timeouts, a zero
    /// connection cap. [`serve`] runs this and panics on `Err`, so broken
    /// deployments fail at startup instead of hanging every client.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.workers > Self::MAX_WORKERS {
            return Err(format!(
                "workers = {} exceeds the {} maximum",
                self.workers,
                Self::MAX_WORKERS
            ));
        }
        if self.limits.max_frame == 0 {
            return Err("limits.max_frame must be nonzero (no frame could ever arrive)".into());
        }
        if self.limits.read_timeout.is_some_and(|t| t.is_zero()) {
            return Err("limits.read_timeout of zero expires every read immediately".into());
        }
        if self.limits.write_timeout.is_some_and(|t| t.is_zero()) {
            return Err("limits.write_timeout of zero expires every write immediately".into());
        }
        if self.max_connections == Some(0) {
            return Err("max_connections = Some(0) accepts nothing; use None for unlimited".into());
        }
        Ok(())
    }
}

/// The default shard count.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Handle to a running service.
pub struct ServiceHandle {
    closer: Box<dyn Fn() + Send + Sync>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    desc: String,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("desc", &self.desc)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// Bound-address description of the served listener.
    pub fn desc(&self) -> &str {
        &self.desc
    }

    /// Stops accepting, serves queued and in-flight connections to
    /// completion, and joins all threads.
    pub fn shutdown(mut self) {
        (self.closer)();
        self.join_threads();
    }

    /// Waits for the service to finish on its own (listener closed or
    /// `max_connections` reached and all connections served).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Serves `listener` against `server` on `config.workers` shard event
/// loops. Returns immediately; use the handle to shut down or join.
///
/// # Panics
///
/// If `config` fails [`ServiceConfig::validate`] — a config that cannot
/// serve is a deployment bug, and failing at startup beats hanging every
/// client at runtime.
pub fn serve<L: Listener + 'static>(
    mut listener: L,
    server: Arc<AuthServer>,
    config: ServiceConfig,
) -> ServiceHandle {
    if let Err(why) = config.validate() {
        panic!("invalid ServiceConfig: {why}");
    }
    let desc = listener.local_desc();
    let closer = listener.closer();
    let shards = config.workers;

    let mut injectors: Vec<SyncSender<BoxedWire>> = Vec::with_capacity(shards);
    let shard_threads: Vec<JoinHandle<()>> = (0..shards)
        .map(|_| {
            // Bounded injector: a flood of connections blocks accept, not
            // memory — the same backpressure point the worker pool had.
            let (tx, rx) = sync_channel::<BoxedWire>(INJECTOR_DEPTH);
            injectors.push(tx);
            let server = Arc::clone(&server);
            let limits = config.limits;
            let faults = config.faults.clone();
            std::thread::spawn(move || shard::shard_loop(rx, server, limits, faults))
        })
        .collect();

    let max = config.max_connections;
    let accept = std::thread::spawn(move || {
        let mut served = 0usize;
        while let Some(wire) = listener.accept() {
            // Round-robin over shards; a full injector blocks here.
            if injectors[served % injectors.len()].send(wire).is_err() {
                break;
            }
            served += 1;
            if max.is_some_and(|m| served >= m) {
                break;
            }
        }
        // Dropping the injectors lets shards drain and exit.
    });

    ServiceHandle { closer, accept: Some(accept), workers: shard_threads, desc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::SecretMeta;
    use crate::server::ExpectedIdentity;
    use crate::transport::channel::channel_listener;
    use crate::transport::tcp::TcpAcceptor;
    use crate::transport::Framed;
    use elide_crypto::rng::SeededRandom;
    use sgx_sim::quote::AttestationService;

    fn test_server() -> Arc<AuthServer> {
        let meta = SecretMeta {
            flags: 0,
            data_len: 4,
            text_len: 4,
            restore_offset: 0,
            key: [1; 16],
            iv: [2; 12],
            tag: [3; 16],
        };
        Arc::new(
            AuthServer::new(
                meta,
                b"data".to_vec(),
                ExpectedIdentity::default(),
                AttestationService::new(),
            )
            .with_rng(Box::new(SeededRandom::new(1))),
        )
    }

    #[test]
    fn serves_channel_clients_and_shuts_down() {
        let (listener, host) = channel_listener();
        let handle = serve(listener, test_server(), ServiceConfig::default().with_workers(2));
        for _ in 0..4 {
            let wire = host.connect().unwrap();
            let mut framed = Framed::new(wire, Limits::default()).unwrap();
            // Unknown request: the session must answer with a status frame.
            framed.send(9, &[]).unwrap();
            let (status, body) = framed.recv().unwrap().expect("response");
            assert_eq!(status, 6, "UnknownRequest status");
            assert!(body.is_empty());
        }
        handle.shutdown();
        assert!(
            host.connect().is_err() || {
                // Shutdown raced the connect; either way no response comes.
                true
            }
        );
    }

    #[test]
    fn serves_tcp_clients_with_max_connections() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let handle = serve(
            acceptor,
            test_server(),
            ServiceConfig::default().with_workers(2).with_max_connections(Some(2)),
        );
        for _ in 0..2 {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut framed = Framed::new(stream, Limits::default()).unwrap();
            framed.send(1, &[]).unwrap();
            let (status, _) = framed.recv().unwrap().expect("response");
            assert_eq!(status, 4, "NoSession status");
        }
        handle.join();
    }

    #[test]
    fn worker_pool_survives_connection_panics() {
        use crate::faults::{FaultConfig, FaultPlan, PPM};
        // Regression: a worker that panicked mid-connection died silently,
        // shrinking the pool; with one worker the service stopped serving
        // and every later client hung until its read timeout. The shard
        // loop inherits the invariant: an injected panic kills only its
        // connection.
        crate::faults::silence_injected_panics();
        let plan = FaultPlan::new(
            11,
            FaultConfig { worker_panic_ppm: PPM, worker_panic_limit: 1, ..FaultConfig::off() },
        );
        let (listener, host) = channel_listener();
        let handle = serve(
            listener,
            test_server(),
            ServiceConfig::default().with_workers(1).with_faults(plan.clone()),
        );

        // First connection: the shard's admission panics; the client sees
        // the connection drop without a response.
        let wire = host.connect().unwrap();
        let mut framed = Framed::new(wire, Limits::default()).unwrap();
        framed.send(9, &[]).unwrap();
        assert_eq!(framed.recv().unwrap(), None, "panicked connection drops cleanly");
        assert_eq!(plan.counts().worker_panics, 1);

        // Second connection: the same shard must still be alive.
        let wire = host.connect().unwrap();
        let mut framed = Framed::new(wire, Limits::default()).unwrap();
        framed.send(9, &[]).unwrap();
        let (status, _) = framed.recv().unwrap().expect("shard survived the panic");
        assert_eq!(status, 6, "UnknownRequest status");
        handle.shutdown();
    }

    #[test]
    fn store_io_fault_sits_behind_authentication() {
        use crate::faults::{FaultConfig, FaultPlan, PPM};
        // Store faults fire on META/DATA of an *established* session (the
        // chaos suite exercises that path end-to-end); an unauthenticated
        // request must still answer NoSession, not Internal.
        let server = Arc::new(
            AuthServer::new(
                SecretMeta {
                    flags: 0,
                    data_len: 4,
                    text_len: 4,
                    restore_offset: 0,
                    key: [1; 16],
                    iv: [2; 12],
                    tag: [3; 16],
                },
                b"data".to_vec(),
                ExpectedIdentity::default(),
                AttestationService::new(),
            )
            .with_rng(Box::new(SeededRandom::new(2)))
            .with_faults(FaultPlan::new(
                3,
                FaultConfig { store_io_ppm: PPM, ..FaultConfig::off() },
            )),
        );
        // No attested session: NoSession (4) outranks the injected fault,
        // proving injection sits behind authentication, not in front.
        let (listener, host) = channel_listener();
        let handle = serve(listener, server, ServiceConfig::default().with_workers(1));
        let wire = host.connect().unwrap();
        let mut framed = Framed::new(wire, Limits::default()).unwrap();
        framed.send(1, &[]).unwrap();
        let (status, _) = framed.recv().unwrap().expect("response");
        assert_eq!(status, 4, "store faults only fire on established sessions");
        handle.shutdown();
    }

    #[test]
    fn oversized_frame_drops_connection() {
        let (listener, host) = channel_listener();
        let limits = Limits::default().with_max_frame(64);
        let handle = serve(
            listener,
            test_server(),
            ServiceConfig::default().with_workers(1).with_limits(limits),
        );
        let wire = host.connect().unwrap();
        // Client side uses generous limits so it can send the abuse.
        let mut framed = Framed::new(wire, Limits::default()).unwrap();
        framed.send(1, &[0u8; 1000]).unwrap();
        // Server drops the connection without a response.
        assert_eq!(framed.recv().unwrap(), None);
        handle.shutdown();
    }

    #[test]
    fn stuck_writer_is_dropped_at_its_write_deadline() {
        use crate::transport::channel::ChannelListener;
        use crate::transport::Wire;
        use std::io::{self, Read, Write};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};

        /// A peer that sends one request and then neither sends nor reads:
        /// every write would block. Flags its own drop.
        struct StuckWire {
            request: Vec<u8>,
            dropped: Arc<AtomicBool>,
        }
        impl Read for StuckWire {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.request.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.request.len());
                buf[..n].copy_from_slice(&self.request[..n]);
                self.request.drain(..n);
                Ok(n)
            }
        }
        impl Write for StuckWire {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl Wire for StuckWire {
            fn apply_limits(&mut self, _: &Limits) -> io::Result<()> {
                Ok(())
            }
            fn peer(&self) -> String {
                "stuck".into()
            }
            fn set_nonblocking(&mut self, _: bool) -> io::Result<()> {
                Ok(())
            }
        }
        impl Drop for StuckWire {
            fn drop(&mut self) {
                self.dropped.store(true, Ordering::SeqCst);
            }
        }

        /// Yields the stuck wire first, then channel connections.
        struct StuckFirst {
            stuck: Option<BoxedWire>,
            inner: ChannelListener,
        }
        impl Listener for StuckFirst {
            fn accept(&mut self) -> Option<BoxedWire> {
                self.stuck.take().or_else(|| self.inner.accept())
            }
            fn local_desc(&self) -> String {
                self.inner.local_desc()
            }
            fn closer(&self) -> Box<dyn Fn() + Send + Sync> {
                self.inner.closer()
            }
        }

        let dropped = Arc::new(AtomicBool::new(false));
        // One unknown-request frame: the shard queues a response the
        // peer never reads.
        let stuck = StuckWire { request: vec![9, 0, 0, 0, 0], dropped: Arc::clone(&dropped) };
        let (inner, host) = channel_listener();
        let listener = StuckFirst { stuck: Some(Box::new(stuck)), inner };
        let limits =
            Limits { write_timeout: Some(Duration::from_millis(200)), ..Limits::default() };
        let start = Instant::now();
        let handle = serve(
            listener,
            test_server(),
            ServiceConfig::default().with_workers(1).with_limits(limits),
        );
        while !dropped.load(Ordering::SeqCst) {
            assert!(start.elapsed() < Duration::from_secs(2), "stuck writer outlived 2 s");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(start.elapsed() >= Duration::from_millis(200), "dropped before its deadline");

        // The same (only) shard still serves the next connection.
        let wire = host.connect().unwrap();
        let mut framed = Framed::new(wire, Limits::default()).unwrap();
        framed.send(9, &[]).unwrap();
        let (status, _) = framed.recv().unwrap().expect("shard still serving");
        assert_eq!(status, 6, "UnknownRequest status");
        drop(framed);
        handle.shutdown();
    }

    #[test]
    fn zero_workers_is_rejected_at_construction() {
        let r = std::panic::catch_unwind(|| ServiceConfig::default().with_workers(0));
        assert!(r.is_err(), "with_workers(0) must panic");
        let broken = ServiceConfig { workers: 0, ..ServiceConfig::default() };
        assert!(broken.validate().unwrap_err().contains("workers"));
    }

    #[test]
    fn absurd_limits_fail_validation() {
        use std::time::Duration;
        let ok = ServiceConfig::default();
        assert!(ok.validate().is_ok());

        let mut zero_frame = ServiceConfig::default();
        zero_frame.limits.max_frame = 0;
        assert!(zero_frame.validate().unwrap_err().contains("max_frame"));

        let mut zero_read = ServiceConfig::default();
        zero_read.limits.read_timeout = Some(Duration::ZERO);
        assert!(zero_read.validate().unwrap_err().contains("read_timeout"));

        let mut zero_write = ServiceConfig::default();
        zero_write.limits.write_timeout = Some(Duration::ZERO);
        assert!(zero_write.validate().unwrap_err().contains("write_timeout"));

        let capped = ServiceConfig::default().with_max_connections(Some(0));
        assert!(capped.validate().unwrap_err().contains("max_connections"));

        let absurd = ServiceConfig { workers: 1 << 20, ..ServiceConfig::default() };
        assert!(absurd.validate().unwrap_err().contains("maximum"));
    }

    #[test]
    fn serve_rejects_invalid_config_loudly() {
        let (listener, _host) = channel_listener();
        let broken = ServiceConfig { workers: 0, ..ServiceConfig::default() };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(listener, test_server(), broken)
        }));
        assert!(r.is_err(), "serve must refuse a config that cannot serve");
    }
}
