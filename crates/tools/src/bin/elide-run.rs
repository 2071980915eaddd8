//! `elide-run`: the untrusted application host (`./app` analog). Loads a
//! (sanitized) enclave, restores it through the authentication server, and
//! invokes an ecall — printing the timing line the paper's benchmarks
//! print ("Time elapsed in enclave initialization").
//!
//! ```text
//! elide-run SANITIZED.so --sig enclave.sig --platform platform.bin \
//!     --server 127.0.0.1:7788 --restore-index N \
//!     [--data enclave.secret.data] [--sealed sealed.bin] \
//!     [--ecall N] [--input HEX] [--out-cap BYTES] \
//!     [--retries N] [--retry-delay-ms MS]
//! ```
//!
//! `--retries` covers both the TCP connect and the restore itself with
//! exponential backoff, so `elide-run` can be started before (or racing)
//! `elide-server`.

use elide_core::api::LaunchedApp;
use elide_core::protocol::{TcpTransport, Transport};
use elide_core::restore::{ElideFiles, RestoreRoute, RetryPolicy};
use elide_core::transport::Limits;
use elide_core::ElideError;
use elide_tools::{parse_hex, read_file, run_tool, to_hex, write_file, Args, PlatformFile};
use sgx_sim::sigstruct::SigStruct;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn main() -> ExitCode {
    run_tool(real_main())
}

/// Connects on first use, so a sealed relaunch never needs the server to
/// be reachable (the enclave only falls back to the transport when the
/// sealed blob is missing or fails to unseal).
struct LazyTcp {
    addr: String,
    policy: RetryPolicy,
    connected: Option<TcpTransport>,
}

impl Transport for LazyTcp {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        if self.connected.is_none() {
            self.connected = Some(TcpTransport::connect_with_retry(
                &self.addr,
                Limits::default(),
                &self.policy,
            )?);
        }
        self.connected.as_mut().expect("just connected").request(req, payload)
    }
}

fn real_main() -> Result<(), String> {
    let mut args = Args::capture();
    let sig_path = args.opt("--sig").ok_or("missing --sig")?;
    let platform_path = args.opt("--platform").unwrap_or_else(|| "platform.bin".to_string());
    let server = args.opt("--server").unwrap_or_else(|| "127.0.0.1:7788".to_string());
    let restore_index = args
        .opt("--restore-index")
        .ok_or("missing --restore-index")?
        .parse::<u64>()
        .map_err(|e| format!("bad --restore-index: {e}"))?;
    let data_path = args.opt("--data");
    let sealed_path = args.opt("--sealed");
    let ecall = args.opt("--ecall").map(|e| e.parse::<u64>());
    let input = match args.opt("--input") {
        Some(hex) => parse_hex(&hex)?,
        None => Vec::new(),
    };
    let out_cap = args
        .opt("--out-cap")
        .map(|c| c.parse::<usize>())
        .transpose()
        .map_err(|e| format!("bad --out-cap: {e}"))?
        .unwrap_or(64);
    let retries = args
        .opt("--retries")
        .map(|r| r.parse::<u32>())
        .transpose()
        .map_err(|e| format!("bad --retries: {e}"))?
        .unwrap_or(0);
    let retry_delay_ms = args
        .opt("--retry-delay-ms")
        .map(|r| r.parse::<u64>())
        .transpose()
        .map_err(|e| format!("bad --retry-delay-ms: {e}"))?
        .unwrap_or(50);
    let policy = RetryPolicy {
        retries,
        initial_delay: std::time::Duration::from_millis(retry_delay_ms),
        ..RetryPolicy::default()
    };
    let inputs = args.finish()?;
    let [image_path] = inputs.as_slice() else {
        return Err("expected exactly one enclave image".into());
    };

    let image = read_file(image_path)?;
    let sigstruct = SigStruct::from_bytes(&read_file(&sig_path)?)
        .ok_or_else(|| format!("{sig_path}: not a SIGSTRUCT file"))?;
    let platform = PlatformFile::load_or_create(&platform_path)?;

    // --- enclave initialization (timed, like the paper's benchmarks) ---
    let t0 = Instant::now();
    let loaded = elide_enclave::loader::load_enclave(&platform.cpu, &image, &sigstruct)
        .map_err(|e| format!("load failed: {e}"))?;
    let rt = elide_enclave::EnclaveRuntime::new(loaded);

    let sealed_store = Arc::new(Mutex::new(match &sealed_path {
        Some(p) if Path::new(p).exists() => Some(read_file(p)?),
        _ => None,
    }));
    let files = ElideFiles {
        data_file: match &data_path {
            Some(p) => Some(read_file(p)?),
            None => None,
        },
        sealed: Arc::clone(&sealed_store),
    };
    let transport = Arc::new(Mutex::new(LazyTcp { addr: server, policy, connected: None }));
    let mut app =
        LaunchedApp::attach(rt, RestoreRoute::origin_only(transport), Arc::new(platform.qe), files);

    let stats =
        app.restore_with_retry(restore_index, &policy).map_err(|e| format!("restore: {e}"))?;
    println!(
        "Time elapsed in enclave initialization: {:.3} ms ({} guest instructions)",
        t0.elapsed().as_secs_f64() * 1e3,
        stats.instructions
    );

    if let Some(p) = &sealed_path {
        if let Some(blob) = sealed_store.lock().expect("sealed store").clone() {
            write_file(p, &blob)?;
        }
    }

    // --- application ecall ---
    if let Some(index) = ecall {
        let index = index.map_err(|e| format!("bad --ecall: {e}"))?;
        let r = app.runtime.ecall(index, &input, out_cap).map_err(|e| format!("ecall: {e}"))?;
        println!("status = {}", r.status);
        if out_cap > 0 {
            println!("output = {}", to_hex(&r.output));
        }
    }
    Ok(())
}
