//! `provision_mix`: the secret-server operator's view. Two clients in
//! closed loops open a fresh TCP connection per request to an in-process
//! provisioning service and run a seeded 3:1 mix of ticket resumes and
//! full attested handshakes, each followed by a new ticket. Quotes come
//! from one pre-built enclave; no enclave code runs.

use crate::harness::{
    closed_loop, end_to_end, err, guarded, latency_ms, ms, repeated_setup, service_wait_ms, Args,
    DirectSession, Layers, Op, Outcome, Rounds, Stream, Timed, TraceChecks, Via,
};
use elide_core::api::Platform;
use elide_core::client::{ProvisionClient, ResumedSecret};
use elide_core::error::ElideError;
use elide_core::meta::SecretMeta;
use elide_core::protocol::{TcpTransport, Transport};
use elide_core::server::{AuthServer, ExpectedIdentity};
use elide_core::service::{serve, ServiceConfig, ServiceHandle};
use elide_core::store::{SecretEntry, SecretStore};
use elide_core::transport::tcp::TcpAcceptor;
use elide_crypto::rng::{RandomSource, SeededRandom};
use elide_crypto::rsa::RsaKeyPair;
use sgx_sim::enclave::Enclave;
use sgx_sim::epc::{PagePerms, PageType};
use sgx_sim::quote::{AttestationService, QE_MEASUREMENT};
use sgx_sim::report::{ereport, TargetInfo};
use sgx_sim::sigstruct::SigStruct;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const PAYLOAD_LEN: usize = 4096;
const SETUP_SEED: u64 = 0x313C;
/// Operations each client runs before measuring.
const WARM_UP_OPS: u64 = 20;

const RESUMED: u8 = 0;
const FULL: u8 = 1;

struct Setup {
    platform: Platform,
    enclave: Enclave,
    server: Arc<AuthServer>,
    addr: String,
    payload: Vec<u8>,
    service: Option<ServiceHandle>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}

impl Setup {
    fn quote(&self, report_data: [u8; 64]) -> Result<Vec<u8>, ElideError> {
        let report = ereport(&self.enclave, &TargetInfo { mrenclave: QE_MEASUREMENT }, report_data)
            .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
        let quote = self
            .platform
            .qe
            .quote(&report)
            .map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
        Ok(quote.to_bytes())
    }

    fn check_data(&self, data: &[u8]) -> Result<(), String> {
        if data == self.payload {
            Ok(())
        } else {
            Err(format!("fetched {} bytes that differ from the stored secret", data.len()))
        }
    }

    fn check_resumed(&self, secret: &ResumedSecret) -> Result<(), String> {
        if secret.meta.data_len != PAYLOAD_LEN as u64 {
            return Err(format!("resumed meta says {} bytes", secret.meta.data_len));
        }
        self.check_data(&secret.data)
    }
}

/// Stands up the platform, the quoting enclave, the server and its TCP
/// service, and gives each client thread a client holding a ticket (the
/// first handshake goes straight to a session, keeping socket scheduling
/// out of the set-up time).
fn setup() -> (Setup, Vec<ProvisionClient>) {
    let mut rng = SeededRandom::new(SETUP_SEED);
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let mut enclave = platform.cpu.ecreate(0x10_0000, 0x1000).expect("ecreate");
    enclave.eadd(0x10_0000, &[3; 4096], PagePerms::RX, PageType::Reg).expect("eadd");
    for i in 0..16 {
        enclave.eextend(0x10_0000 + i * 256).expect("eextend");
    }
    let signer = RsaKeyPair::generate(512, &mut rng);
    let measurement = enclave.current_measurement().expect("measurement");
    enclave.einit(&SigStruct::sign(&signer, measurement, 1, 1).expect("sign")).expect("einit");

    let mut payload = vec![0u8; PAYLOAD_LEN];
    rng.fill(&mut payload);
    let mut store = SecretStore::new();
    store.insert(SecretEntry {
        name: "mix".into(),
        meta: SecretMeta {
            flags: 0,
            data_len: PAYLOAD_LEN as u64,
            text_len: PAYLOAD_LEN as u64,
            restore_offset: 0,
            key: [0; 16],
            iv: [0; 12],
            tag: [0; 16],
        },
        data: payload.clone(),
        expected: ExpectedIdentity { mrenclave: Some(enclave.mrenclave()), mrsigner: None },
    });
    let server = Arc::new(
        AuthServer::with_store(store, ias)
            .with_rng(Box::new(SeededRandom::new(SETUP_SEED + 1)))
            .with_ticket_key([0x71; 16]),
    );
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.local_addr().expect("local addr").to_string();
    let service = serve(acceptor, Arc::clone(&server), ServiceConfig::default().with_workers(2));
    let s = Setup { platform, enclave, server, addr, payload, service: Some(service) };
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut client = ProvisionClient::new()
                .with_rng(Box::new(SeededRandom::new(SETUP_SEED + 2 + c as u64)));
            full_op(&s, &mut client, &mut DirectSession::new(Arc::clone(&s.server)))
                .expect("initial handshake");
            client
        })
        .collect();
    (s, clients)
}

/// Full handshake, secret fetch and a new ticket over `t`.
fn full_op(s: &Setup, client: &mut ProvisionClient, t: &mut dyn Transport) -> Result<(), String> {
    client.full_handshake(t, &mut |rd: [u8; 64]| s.quote(rd)).map_err(err)?;
    s.check_data(&client.fetch_data(t).map_err(err)?)?;
    client.request_ticket(t).map_err(err)
}

/// Ticket resume (one round trip that returns the secret) and a new
/// ticket over `t`.
fn resume_op(s: &Setup, client: &mut ProvisionClient, t: &mut dyn Transport) -> Result<(), String> {
    s.check_resumed(&client.resume(t).map_err(err)?)?;
    client.request_ticket(t).map_err(err)
}

/// One untraced operation on a fresh connection.
fn op(s: &Setup, client: &mut ProvisionClient, class: u8) -> Result<(), String> {
    let mut t = TcpTransport::connect(&s.addr).map_err(err)?;
    if class == FULL {
        full_op(s, client, &mut t)
    } else {
        resume_op(s, client, &mut t)
    }
}

/// One traced operation, over the wire or straight into a session.
fn traced_op(
    s: &Setup,
    client: &mut ProvisionClient,
    class: u8,
    via: Via,
    layers: &mut Layers,
    checks: &mut TraceChecks,
) -> Result<(), String> {
    let t0 = Instant::now();
    let c = Instant::now();
    let (mut t, log) = match via {
        Via::Wire => Timed::new(
            Box::new(TcpTransport::connect(&s.addr).map_err(err)?) as Box<dyn Transport + Send>
        ),
        Via::Session => Timed::new(Box::new(DirectSession::new(Arc::clone(&s.server))) as Box<_>),
    };
    let connect_d = c.elapsed();
    let mut quote_d = Duration::ZERO;
    let main_d;
    if class == FULL {
        let c = Instant::now();
        client
            .full_handshake(&mut t, &mut |rd: [u8; 64]| {
                let q = Instant::now();
                let quote = s.quote(rd);
                quote_d += q.elapsed();
                quote
            })
            .map_err(err)?;
        let data = client.fetch_data(&mut t).map_err(err)?;
        main_d = c.elapsed();
        s.check_data(&data)?;
    } else {
        let c = Instant::now();
        let secret = client.resume(&mut t).map_err(err)?;
        main_d = c.elapsed();
        s.check_resumed(&secret)?;
    }
    let c = Instant::now();
    client.request_ticket(&mut t).map_err(err)?;
    let ticket_d = c.elapsed();
    let c = Instant::now();
    drop(t);
    let close_d = c.elapsed();
    let wall = t0.elapsed();

    let verbs = *log.lock().expect("verb log");
    verbs.record(layers, via == Via::Session);
    if via == Via::Wire {
        layers.push("transport.connect_ms", ms(connect_d));
        if class == FULL {
            layers.push("client.quote_ms", ms(quote_d));
            layers.push("client.full_ms", ms(main_d));
        } else {
            layers.push("client.resume_ms", ms(main_d));
        }
        layers.push("teardown_ms", ms(close_d));
        let phases = connect_d + main_d + ticket_d + close_d;
        checks.traced(class.into(), wall.as_secs_f64(), phases.as_secs_f64());
    }
    Ok(())
}

/// Restores a client that lost its ticket to a failed operation, so one
/// failure does not fail every later resume.
fn recover(s: &Setup, client: &mut ProvisionClient) {
    if !client.has_ticket() {
        if let Ok(mut t) = TcpTransport::connect(&s.addr) {
            let _ = full_op(s, client, &mut t);
        }
    }
}

/// One client thread's closed loop: 3 resumes to 1 full handshake per
/// seeded round.
fn client_loop(
    s: &Setup,
    mut client: ProvisionClient,
    lane: u64,
    args: &Args,
) -> (Vec<Op>, f64, Layers, TraceChecks, u64) {
    let mut kinds =
        Rounds::new(Stream::new(args.seed, 10 + lane), vec![RESUMED, RESUMED, RESUMED, FULL]);
    let mut resumes = 0;
    for _ in 0..WARM_UP_OPS {
        let class = kinds.next_item();
        resumes += u64::from(class == RESUMED);
        op(s, &mut client, class).expect("warm-up operation");
    }
    let mut layers = Layers::default();
    let mut checks = TraceChecks::default();
    let (ops, elapsed) = closed_loop(args.seconds, |i| {
        let class = kinds.next_item();
        resumes += u64::from(class == RESUMED);
        let result = match (args.trace, i % 3) {
            (false, _) => guarded(|| op(s, &mut client, class)),
            (true, 0) => {
                let t0 = Instant::now();
                let r = guarded(|| op(s, &mut client, class));
                checks.untraced(class.into(), t0.elapsed().as_secs_f64());
                r
            }
            (true, 1) => {
                guarded(|| traced_op(s, &mut client, class, Via::Wire, &mut layers, &mut checks))
            }
            (true, _) => {
                guarded(|| traced_op(s, &mut client, class, Via::Session, &mut layers, &mut checks))
            }
        };
        if result.is_err() {
            recover(s, &mut client);
        }
        (class, result)
    });
    (ops, elapsed, layers, checks, resumes)
}

pub fn run(args: &Args) -> Outcome {
    let ((setup, clients), setup_times) = repeated_setup(setup);
    let resumptions_before = setup.server.resumptions();
    let s = &setup;
    let results: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .zip(0u64..)
            .map(|(client, lane)| scope.spawn(move || client_loop(s, client, lane, args)))
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread")).collect()
    });

    let mut ops = Vec::new();
    let mut elapsed: f64 = 0.0;
    let mut layers = Layers::default();
    let mut checks = TraceChecks::default();
    let mut resumes = 0;
    for (o, e, l, c, r) in results {
        ops.extend(o);
        elapsed = elapsed.max(e);
        layers.merge(l);
        checks.merge(c);
        resumes += r;
    }
    let mut outcome = Outcome::default();
    if !args.trace {
        end_to_end(&ops, elapsed, &setup_times, &mut outcome);
        for (class, p50, p99) in
            [(FULL, "full_p50_ms", "full_p99_ms"), (RESUMED, "resumed_p50_ms", "resumed_p99_ms")]
        {
            let of_class: Vec<Op> = ops.iter().copied().filter(|o| o.class == class).collect();
            outcome.extra.insert(p50, latency_ms(&of_class, 0.50));
            outcome.extra.insert(p99, latency_ms(&of_class, 0.99));
            outcome.samples.insert(p50, of_class.len());
        }
        return outcome;
    }
    outcome.count(&ops);
    let accepted = (setup.server.resumptions() - resumptions_before) as f64;
    layers.set("server.resume_accept_ratio", accepted / (resumes as f64).max(1.0));
    let wire_ops = layers.get("transport.connect_ms").len();
    layers.set("service.wait_ms", service_wait_ms(&layers, wire_ops));
    checks.finish(&mut layers);
    layers.report(&crate::PER_LAYER, &mut outcome);
    outcome
}
