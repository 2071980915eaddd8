//! Raw throughput of the crypto kernels on the enclave launch/provisioning
//! critical path: AES-CTR (GCM's bulk cipher), AES-GCM seal/open, GHASH
//! (isolated via the AAD-only path), SHA-1/SHA-256 bulk and the
//! EEXTEND-shaped many-tiny-updates stream, HMAC-SHA256, and the public-key
//! operations (RSA key generation, SIGSTRUCT sign/verify, DH key generation
//! and agreement, the one-off DH group build and one handshake's DH pair).
//!
//! Emits `target/bench/BENCH_crypto_kernels.json`. Override the
//! per-kernel buffer with `ELIDE_BENCH_KERNEL_MB` and the minimum timed
//! region with `ELIDE_BENCH_MIN_SECONDS` (CI smoke uses tiny values).
//!
//! Plain-main harness (`cargo bench --bench crypto_kernels`).

use elide_bench::{records_json, write_json, KernelRecord};
use elide_crypto::aes::{ctr_xor, Aes};
use elide_crypto::dh::DhKeyPair;
use elide_crypto::gcm::AesGcm;
use elide_crypto::hmac::hmac_sha256;
use elide_crypto::rng::{RandomSource, SeededRandom};
use elide_crypto::rsa::RsaKeyPair;
use elide_crypto::sha1::Sha1;
use elide_crypto::sha2::Sha256;
use std::time::Instant;

/// Runs `f` repeatedly until the timed region reaches `min_seconds`
/// (always at least once), returning (iters, seconds).
fn time_kernel<F: FnMut()>(min_seconds: f64, mut f: F) -> (u64, f64) {
    let mut iters = 0u64;
    let t0 = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= min_seconds {
            return (iters, elapsed);
        }
    }
}

fn main() {
    let mb: usize = std::env::var("ELIDE_BENCH_KERNEL_MB")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&m| m > 0)
        .unwrap_or(1);
    let min_seconds: f64 = std::env::var("ELIDE_BENCH_MIN_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(0.25);
    let size = mb << 20;

    let mut rng = SeededRandom::new(0xC4A57);
    let mut buf = vec![0u8; size];
    rng.fill(&mut buf);

    let mut records: Vec<KernelRecord> = Vec::new();
    println!("crypto_kernels (buffer={mb} MiB, min_seconds={min_seconds})");
    println!("{:<22} {:>10} {:>12} {:>12} {:>12}", "kernel", "iters", "ms", "MB/s", "ops/s");
    let mut push = |name: &str, bytes: u64, iters: u64, seconds: f64| {
        let rec = KernelRecord { name: name.to_string(), bytes, iters, seconds };
        println!(
            "{:<22} {:>10} {:>12.2} {:>12.2} {:>12.2}",
            rec.name,
            rec.iters,
            rec.seconds * 1e3,
            rec.mb_per_s(),
            rec.ops_per_s()
        );
        records.push(rec);
    };

    // --- AES-CTR: the bulk cipher under GCM.
    let aes = Aes::new_128(&[0x13; 16]);
    let ctr0 = [5u8; 16];
    let mut data = buf.clone();
    let (iters, secs) = time_kernel(min_seconds, || {
        ctr_xor(&aes, &ctr0, &mut data);
        std::hint::black_box(data[0]);
    });
    push("aes128_ctr", size as u64, iters, secs);

    // --- AES-GCM seal and open (the seal/restore path).
    let gcm = AesGcm::new(&[0x42; 16]).expect("key");
    let iv = [7u8; 12];
    let (iters, secs) = time_kernel(min_seconds, || {
        let (ct, tag) = gcm.seal(&iv, b"aad", &buf);
        std::hint::black_box((ct.len(), tag[0]));
    });
    push("aes_gcm_seal", size as u64, iters, secs);

    let (ct, tag) = gcm.seal(&iv, b"aad", &buf);
    let (iters, secs) = time_kernel(min_seconds, || {
        let pt = gcm.open(&iv, b"aad", &ct, &tag).expect("authentic");
        std::hint::black_box(pt.len());
    });
    push("aes_gcm_open", size as u64, iters, secs);

    // --- GHASH alone: AAD-only sealing skips the CTR pass.
    let (iters, secs) = time_kernel(min_seconds, || {
        let (_, tag) = gcm.seal(&iv, &buf, &[]);
        std::hint::black_box(tag[0]);
    });
    push("ghash", size as u64, iters, secs);

    // --- Hashes, bulk.
    let (iters, secs) = time_kernel(min_seconds, || {
        std::hint::black_box(Sha256::digest(&buf)[0]);
    });
    push("sha256", size as u64, iters, secs);

    let (iters, secs) = time_kernel(min_seconds, || {
        std::hint::black_box(Sha1::digest(&buf)[0]);
    });
    push("sha1", size as u64, iters, secs);

    // --- The raw compression function: the unit the guest-facing
    // SHA256_COMPRESS intrinsic charges for (one 64-byte block per call,
    // no padding or length bookkeeping).
    let mut state = [
        0x6A09_E667u32,
        0xBB67_AE85,
        0x3C6E_F372,
        0xA54F_F53A,
        0x510E_527F,
        0x9B05_688C,
        0x1F83_D9AB,
        0x5BE0_CD19,
    ];
    let (iters, secs) = time_kernel(min_seconds, || {
        for chunk in buf.chunks_exact(64) {
            Sha256::compress(&mut state, chunk.try_into().expect("64-byte chunk"));
        }
        std::hint::black_box(state[0]);
    });
    push("sha256_compress", (size - size % 64) as u64, iters, secs);

    // --- SHA-256 fed EEXTEND-style: 16-byte header + 256-byte chunk per
    // update pair, thousands of tiny updates — the measurement hot path.
    let (iters, secs) = time_kernel(min_seconds, || {
        let mut h = Sha256::new();
        for (i, chunk) in buf.chunks_exact(256).enumerate() {
            h.update(b"EEXTEND\0");
            h.update(&(i as u64 * 256).to_le_bytes());
            h.update(chunk);
        }
        std::hint::black_box(h.finalize()[0]);
    });
    push("sha256_eextend_stream", (size - size % 256) as u64, iters, secs);

    // --- HMAC-SHA256 (EGETKEY derivation, channel KDF).
    let (iters, secs) = time_kernel(min_seconds, || {
        std::hint::black_box(hmac_sha256(b"fuse key", &buf)[0]);
    });
    push("hmac_sha256", size as u64, iters, secs);

    // --- Public-key ops: per-op rate rather than MB/s. Key generation
    // (prime search + Miller–Rabin) runs on every launch's set-up path.
    let mut rng = SeededRandom::new(0xE11DE);
    let (iters, secs) = time_kernel(min_seconds, || {
        std::hint::black_box(RsaKeyPair::generate(512, &mut rng).public_key().modulus_len());
    });
    push("rsa512_keygen", 0, iters, secs);

    let mut rng = SeededRandom::new(0xE11DE);
    let kp = RsaKeyPair::generate(512, &mut rng);
    let msg = b"SIGSTRUCT payload";
    let (iters, secs) = time_kernel(min_seconds, || {
        std::hint::black_box(kp.sign(msg).expect("sign").len());
    });
    push("rsa512_sign", 0, iters, secs);

    let sig = kp.sign(msg).expect("sign");
    let (iters, secs) = time_kernel(min_seconds, || {
        kp.public_key().verify(msg, &sig).expect("verify");
    });
    push("rsa512_verify", 0, iters, secs);

    // The process's first key generation also builds the DH group: the
    // prime's Montgomery context and generator 2's comb table. It is paid
    // once per process, so it is one timed call, not a rate.
    let mut rng = SeededRandom::new(10);
    let t0 = Instant::now();
    let server = DhKeyPair::generate(&mut rng);
    push("dh_first_keygen", 0, 1, t0.elapsed().as_secs_f64());
    let client = DhKeyPair::generate(&mut rng);
    let client_pub = client.public_bytes();
    let (iters, secs) = time_kernel(min_seconds, || {
        std::hint::black_box(server.derive_session_key(&client_pub).expect("in range"));
    });
    push("dh_derive_session_key", 0, iters, secs);

    let mut rng = SeededRandom::new(11);
    let (iters, secs) = time_kernel(min_seconds, || {
        std::hint::black_box(DhKeyPair::generate(&mut rng).public_bytes().len());
    });
    push("dh_keygen", 0, iters, secs);

    // What one full handshake pays in DH: each side generates a key pair
    // and derives the session key from the other's public value.
    let mut rng = SeededRandom::new(12);
    let (iters, secs) = time_kernel(min_seconds, || {
        let server = DhKeyPair::generate(&mut rng);
        let client = DhKeyPair::generate(&mut rng);
        let k1 = server.derive_session_key(&client.public_bytes()).expect("in range");
        let k2 = client.derive_session_key(&server.public_bytes()).expect("in range");
        assert_eq!(k1, k2);
    });
    push("dh_handshake_pair", 0, iters, secs);

    let path = write_json("crypto_kernels", &records_json("crypto_kernels", &records))
        .expect("write json");
    println!("\nwrote {}", path.display());
}
