//! Strict-parse sweep over every wire/disk format on the attestation and
//! delegation paths.
//!
//! One property, enforced uniformly: `from_bytes(to_bytes(x)) == x`, and
//! **any** deviation — trailing garbage appended to a valid encoding, or a
//! truncation at any depth — parses to `None`. Parsers that tolerate
//! trailing bytes invite length-extension confusions (a signature checked
//! over a prefix, a ticket smuggling an appendix through re-encoding), so
//! canonical-or-nothing is the contract everywhere.

use sgxelide::core::delegation::{
    DelegationBundle, DelegationPolicy, PeerGrant, PeerSecret, SignedPolicy,
};
use sgxelide::core::meta::SecretMeta;
use sgxelide::core::ticket::{TicketPlain, TICKET_PLAIN_LEN};
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::crypto::rsa::{RsaKeyPair, RsaPublicKey};
use sgxelide::enclave::seal::SealedBlob;
use sgxelide::sgx::quote::Quote;
use sgxelide::sgx::report::Report;

/// The shared strict-parse helper: `bytes` must parse, every extension of
/// it must not, and every truncation must not.
fn assert_canonical<T>(name: &str, bytes: &[u8], parse: impl Fn(&[u8]) -> Option<T>) {
    assert!(parse(bytes).is_some(), "{name}: canonical encoding must parse");
    for extra in [1usize, 4, 17] {
        let mut padded = bytes.to_vec();
        padded.extend(std::iter::repeat_n(0xEEu8, extra));
        assert!(parse(&padded).is_none(), "{name}: {extra} trailing bytes must be rejected");
    }
    // Every strict prefix must be rejected, not just "off by one" — a
    // truncation can land on an internally-consistent boundary (end of a
    // length-prefixed field) and a lax parser would accept it there.
    for cut in 0..bytes.len() {
        assert!(parse(&bytes[..cut]).is_none(), "{name}: truncation to {cut} must be rejected");
    }
}

#[test]
fn quote_parses_canonically() {
    let q = Quote {
        mrenclave: [0xA1; 32],
        mrsigner: [0xB2; 32],
        report_data: [0xC3; 64],
        signature: vec![1, 2, 3, 4, 5, 6, 7],
        device_key: vec![9; 20],
    };
    assert_canonical("Quote", &q.to_bytes(), Quote::from_bytes);
}

#[test]
fn rsa_public_key_parses_canonically() {
    let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(0x5791C7));
    assert_canonical("RsaPublicKey", &kp.public_key().to_bytes(), |b| {
        RsaPublicKey::from_bytes(b).ok()
    });
}

#[test]
fn rsa_key_pair_parses_canonically() {
    let kp = RsaKeyPair::generate(512, &mut SeededRandom::new(0x5791C8));
    assert_canonical("RsaKeyPair", &kp.to_bytes(), |b| RsaKeyPair::from_bytes(b).ok());
}

#[test]
fn report_parses_canonically() {
    let r = Report {
        mrenclave: [0x11; 32],
        mrsigner: [0x22; 32],
        report_data: [0x33; 64],
        mac: [0x44; 32],
    };
    assert_canonical("Report", &r.to_bytes(), Report::from_bytes);
}

#[test]
fn ticket_plain_parses_canonically() {
    let t = TicketPlain {
        mrenclave: [0xAA; 32],
        mrsigner: [0xBB; 32],
        channel_key: [0x11; 16],
        ticket_id: [0x22; 16],
        issued_ms: 123_456,
        ttl_ms: 60_000,
    };
    let bytes = t.to_bytes();
    assert_eq!(bytes.len(), TICKET_PLAIN_LEN);
    assert_canonical("TicketPlain", &bytes, TicketPlain::from_bytes);
}

#[test]
fn sealed_blob_parses_canonically() {
    let b = SealedBlob { policy: 0, iv: [0x55; 12], ciphertext: vec![0x66; 37], tag: [0x77; 16] };
    assert_canonical("SealedBlob", &b.to_bytes(), SealedBlob::from_bytes);
}

#[test]
fn secret_meta_file_parses_canonically() {
    let m = SecretMeta {
        flags: 0,
        data_len: 4096,
        text_len: 4096,
        restore_offset: 0x240,
        key: [7; 16],
        iv: [8; 12],
        tag: [9; 16],
    };
    assert_canonical("SecretMeta file", &m.to_file_bytes(), SecretMeta::from_file_bytes);
}

fn sample_policy() -> DelegationPolicy {
    DelegationPolicy {
        delegate_mrenclave: [0xDD; 32],
        policy_id: [0x01; 16],
        issued_ms: 1_000,
        ttl_ms: 3_600_000,
        peers: vec![
            PeerGrant { mrenclave: [0x10; 32], mrsigner: [0x20; 32] },
            PeerGrant { mrenclave: [0x30; 32], mrsigner: [0x40; 32] },
        ],
    }
}

#[test]
fn delegation_policy_parses_canonically() {
    assert_canonical("DelegationPolicy", &sample_policy().to_bytes(), DelegationPolicy::from_bytes);
}

#[test]
fn signed_policy_parses_canonically() {
    let s = SignedPolicy { policy: sample_policy(), signature: vec![0x5A; 64] };
    assert_canonical("SignedPolicy", &s.to_bytes(), SignedPolicy::from_bytes);
}

#[test]
fn delegation_bundle_parses_canonically() {
    let meta = SecretMeta {
        flags: 0,
        data_len: 8,
        text_len: 8,
        restore_offset: 0,
        key: [3; 16],
        iv: [4; 12],
        tag: [5; 16],
    };
    let bundle = DelegationBundle {
        signed: SignedPolicy { policy: sample_policy(), signature: vec![0x5A; 64] },
        secrets: vec![PeerSecret {
            mrenclave: [0x10; 32],
            mrsigner: [0x20; 32],
            meta,
            data: vec![0xF0; 8],
        }],
    };
    assert_canonical("DelegationBundle", &bundle.to_bytes(), DelegationBundle::from_bytes);
}
