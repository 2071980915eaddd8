//! Drives the complete artifact workflow (Appendix A) through the real
//! command-line binaries: build → whitelist → sanitize → sign → server →
//! run (restore + ecall) → sealed re-run.

use elide_crypto::bignum::BigUint;
use elide_crypto::rng::SeededRandom;
use elide_crypto::rsa::{RsaKeyPair, KEY_PAIR_FORMAT};
use std::fs;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elide-cli-{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run(bin: &str, args: &[&str], dir: &PathBuf) -> Output {
    let path = match bin {
        "ev64-ld" => env!("CARGO_BIN_EXE_ev64-ld"),
        "elide-sanitize" => env!("CARGO_BIN_EXE_elide-sanitize"),
        "elide-sign" => env!("CARGO_BIN_EXE_elide-sign"),
        "elide-run" => env!("CARGO_BIN_EXE_elide-run"),
        other => panic!("unknown bin {other}"),
    };
    let out = Command::new(path).args(args).current_dir(dir).output().expect("spawn");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

const GUEST: &str = "\
.section text
.global get_magic
.func get_magic
    movi r0, 0x1234
    ret
.endfunc
";

/// Picks a free loopback port by binding to port 0 and dropping.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port()
}

#[test]
fn full_artifact_workflow() {
    let dir = workdir("full");
    fs::write(dir.join("guest.s"), GUEST).unwrap();

    // 1. Build the enclave with the SgxElide runtime (ecall 0 = get_magic,
    //    ecall 1 = elide_restore).
    run("ev64-ld", &["--out", "enclave.so", "--elide", "--ecall", "get_magic", "guest.s"], &dir);

    // 2. Generate the reusable whitelist (the BaseEnclave make step).
    run("elide-sanitize", &["--gen-whitelist", "whitelist.txt"], &dir);
    let wl = fs::read_to_string(dir.join("whitelist.txt")).unwrap();
    assert!(wl.contains("elide_restore"));

    // 3. Sanitize with remote data.
    let out = run(
        "elide-sanitize",
        &[
            "enclave.so",
            "--out",
            "sanitized.so",
            "--meta",
            "enclave.secret.meta",
            "--data",
            "enclave.secret.data",
            "--whitelist",
            "whitelist.txt",
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sanitized"), "{stdout}");

    // 4. Sign the sanitized enclave with a fresh vendor key.
    let out = run(
        "elide-sign",
        &["sanitized.so", "--key", "vendor.key", "--out", "enclave.sig", "--gen-key"],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mrenclave = stdout
        .lines()
        .find_map(|l| l.strip_prefix("MRENCLAVE = "))
        .expect("MRENCLAVE printed")
        .trim()
        .to_string();

    // 5. Start the server pinned to the sanitized measurement. Two
    //    connections: the readiness probe plus the first `elide-run` (the
    //    sealed re-run never connects).
    let port = free_port();
    let listen = format!("127.0.0.1:{port}");
    let server_bin = env!("CARGO_BIN_EXE_elide-server");
    let mut server = Command::new(server_bin)
        .args([
            "--meta",
            "enclave.secret.meta",
            "--data",
            "enclave.secret.data",
            "--listen",
            &listen,
            "--platform",
            "platform.bin",
            "--mrenclave",
            &mrenclave,
            "--connections",
            "2",
        ])
        .current_dir(&dir)
        .spawn()
        .expect("server spawn");
    // Wait for the listener to come up.
    for _ in 0..100 {
        if std::net::TcpStream::connect(&listen).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // 6. Run the app: restore, then call get_magic (ecall 0).
    let out = run(
        "elide-run",
        &[
            "sanitized.so",
            "--sig",
            "enclave.sig",
            "--platform",
            "platform.bin",
            "--server",
            &listen,
            "--restore-index",
            "1",
            "--sealed",
            "sealed.bin",
            "--ecall",
            "0",
            "--out-cap",
            "0",
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Time elapsed in enclave initialization"), "{stdout}");
    assert!(stdout.contains(&format!("status = {}", 0x1234)), "{stdout}");
    assert!(dir.join("sealed.bin").exists(), "step 7 must write the sealed blob");

    // 7. The server has served its two connections and exited — the
    //    second run restores from sealed data with no server at all,
    //    exactly the paper's "never needs the server again" claim.
    server.wait().expect("server exits after max connections");
    let out = run(
        "elide-run",
        &[
            "sanitized.so",
            "--sig",
            "enclave.sig",
            "--platform",
            "platform.bin",
            "--server",
            &listen,
            "--restore-index",
            "1",
            "--sealed",
            "sealed.bin",
            "--ecall",
            "0",
            "--out-cap",
            "0",
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("status = {}", 0x1234)), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn local_data_workflow() {
    let dir = workdir("local");
    fs::write(dir.join("guest.s"), GUEST).unwrap();
    run("ev64-ld", &["--out", "enclave.so", "--elide", "--ecall", "get_magic", "guest.s"], &dir);
    // `-c` = encrypt data locally, exactly the paper's flag.
    run(
        "elide-sanitize",
        &[
            "enclave.so",
            "--out",
            "sanitized.so",
            "--meta",
            "enclave.secret.meta",
            "--data",
            "enclave.secret.data",
            "-c",
        ],
        &dir,
    );
    run(
        "elide-sign",
        &["sanitized.so", "--key", "vendor.key", "--out", "enclave.sig", "--gen-key"],
        &dir,
    );

    let port = free_port();
    let listen = format!("127.0.0.1:{port}");
    let mut server = Command::new(env!("CARGO_BIN_EXE_elide-server"))
        .args([
            "--meta",
            "enclave.secret.meta",
            "--data",
            "enclave.secret.data",
            "--listen",
            &listen,
            "--platform",
            "platform.bin",
            "--connections",
            "2",
        ])
        .current_dir(&dir)
        .spawn()
        .expect("server spawn");
    for _ in 0..100 {
        if std::net::TcpStream::connect(&listen).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let out = run(
        "elide-run",
        &[
            "sanitized.so",
            "--sig",
            "enclave.sig",
            "--platform",
            "platform.bin",
            "--server",
            &listen,
            "--restore-index",
            "1",
            "--data",
            "enclave.secret.data",
            "--ecall",
            "0",
            "--out-cap",
            "0",
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("status = {}", 0x1234)), "{stdout}");
    server.wait().expect("server exit");
    fs::remove_dir_all(&dir).ok();
}

/// An authentication rejection is final: against a server pinned to a
/// different MRENCLAVE, `elide-run --retries` must fail on the first
/// attempt and report the server's reason, not a bare guest status.
#[test]
fn wrong_enclave_fails_fast_with_the_server_reason() {
    let dir = workdir("wrong-enclave");
    fs::write(dir.join("guest.s"), GUEST).unwrap();
    run("ev64-ld", &["--out", "enclave.so", "--elide", "--ecall", "get_magic", "guest.s"], &dir);
    run(
        "elide-sanitize",
        &["enclave.so", "--out", "sanitized.so", "--meta", "m.bin", "--data", "d.bin"],
        &dir,
    );
    run(
        "elide-sign",
        &["sanitized.so", "--key", "vendor.key", "--out", "enclave.sig", "--gen-key"],
        &dir,
    );

    let port = free_port();
    let listen = format!("127.0.0.1:{port}");
    let other_enclave = "ab".repeat(32);
    let mut server = Command::new(env!("CARGO_BIN_EXE_elide-server"))
        .args(["--meta", "m.bin", "--data", "d.bin", "--listen", &listen])
        .args(["--platform", "platform.bin", "--mrenclave", &other_enclave])
        .current_dir(&dir)
        .spawn()
        .expect("server spawn");
    for _ in 0..100 {
        if std::net::TcpStream::connect(&listen).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let out = Command::new(env!("CARGO_BIN_EXE_elide-run"))
        .args(["sanitized.so", "--sig", "enclave.sig", "--platform", "platform.bin"])
        .args(["--server", &listen, "--restore-index", "1", "--ecall", "0", "--retries", "3"])
        .current_dir(&dir)
        .output()
        .expect("spawn elide-run");
    server.kill().ok();
    server.wait().ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a rejected enclave must not run:\n{stdout}");
    assert!(stderr.contains("server error: quoted enclave is not the expected one"), "{stderr}");
    assert!(!stdout.contains("status") && !stderr.contains("status"), "{stdout}\n{stderr}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn sanitized_enclave_is_unreadable() {
    let dir = workdir("secrecy");
    fs::write(dir.join("guest.s"), GUEST).unwrap();
    run("ev64-ld", &["--out", "enclave.so", "--elide", "--ecall", "get_magic", "guest.s"], &dir);
    run(
        "elide-sanitize",
        &["enclave.so", "--out", "sanitized.so", "--meta", "m.bin", "--data", "d.bin"],
        &dir,
    );
    // The magic constant is in the original but not the sanitized image.
    let original = fs::read(dir.join("enclave.so")).unwrap();
    let sanitized = fs::read(dir.join("sanitized.so")).unwrap();
    let needle = 0x1234u32.to_le_bytes();
    let contains = |hay: &[u8]| hay.windows(4).any(|w| w == needle);
    assert!(contains(&original));
    assert!(!contains(&sanitized));
    fs::remove_dir_all(&dir).ok();
}

/// Splits one `u32 LE length ‖ bytes` field off the front of `rest`.
fn take_field<'a>(rest: &mut &'a [u8]) -> &'a [u8] {
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let field = &rest[4..4 + len];
    *rest = &rest[4 + len..];
    field
}

/// Re-encodes a key pair in the older `public key ‖ d` layout.
fn old_format_key(kp: &RsaKeyPair) -> Vec<u8> {
    let bytes = kp.to_bytes();
    let mut rest = bytes.as_slice();
    let public = take_field(&mut rest);
    let p = BigUint::from_bytes_be(take_field(&mut rest));
    let q = BigUint::from_bytes_be(take_field(&mut rest));
    let one = BigUint::one();
    let phi = p.sub(&one).mul(&q.sub(&one));
    let d = BigUint::from_u64(65537).modinv(&phi).unwrap().to_bytes_be();
    let mut out = Vec::new();
    for field in [public, &d] {
        out.extend_from_slice(&(field.len() as u32).to_le_bytes());
        out.extend_from_slice(field);
    }
    out
}

/// Key files written in the older `public key ‖ d` layout are refused
/// with an error that names the expected layout, never a panic: a vendor
/// key handed to `elide-sign` and a quoting-enclave record in a platform
/// file alike.
#[test]
fn old_format_key_files_are_refused_by_name() {
    let dir = workdir("old-key");
    fs::write(dir.join("guest.s"), GUEST).unwrap();
    run("ev64-ld", &["--out", "enclave.so", "--elide", "--ecall", "get_magic", "guest.s"], &dir);
    let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(0x01D));
    let old = old_format_key(&kp);
    fs::write(dir.join("vendor.key"), &old).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_elide-sign"))
        .args(["enclave.so", "--key", "vendor.key", "--out", "enclave.sig"])
        .current_dir(&dir)
        .output()
        .expect("spawn elide-sign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a clean failure, not a panic:\n{stderr}");
    assert!(stderr.contains(KEY_PAIR_FORMAT), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("enclave.sig").exists());

    let cpu = sgx_sim::SgxCpu::new(&mut SeededRandom::new(0x01E));
    assert!(sgx_sim::quote::QuotingEnclave::from_bytes(&cpu, &old).is_none());
    assert!(sgx_sim::quote::QuotingEnclave::from_bytes(&cpu, &kp.to_bytes()).is_some());
    let mut platform = b"PLAT".to_vec();
    platform.extend_from_slice(&cpu.to_bytes());
    platform.extend_from_slice(&old);
    let path = dir.join("platform.bin");
    fs::write(&path, platform).unwrap();
    let err = match elide_tools::PlatformFile::load_or_create(path.to_str().unwrap()) {
        Ok(_) => panic!("an old-format quoting-enclave record must not load"),
        Err(e) => e,
    };
    assert!(err.contains(KEY_PAIR_FORMAT), "{err}");
    fs::remove_dir_all(&dir).ok();
}
