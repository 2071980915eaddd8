//! Sealed session-resumption tickets.
//!
//! After a full DH+attestation handshake the server can issue a ticket:
//! the session's identity (MRENCLAVE/MRSIGNER), its channel key, a unique
//! ticket id (the server's issue number, then 64 random bits), and an
//! expiry window, sealed under a key only the server holds. A returning
//! client presents the opaque blob to resume an encrypted session in one
//! round trip, skipping the quote verification and ~ms-scale DH exchange.
//!
//! Security properties (mirroring TLS session tickets):
//!
//! * the ticket key lives only in server memory and is generated fresh at
//!   server construction, so a server restart invalidates every
//!   outstanding ticket (clients fall back to the full handshake);
//! * tickets are single-use — the server sets its "redeemed" bit for the
//!   ticket's issue number on first redemption, so a replayed blob is
//!   rejected, and so is a number it never issued;
//! * the resumed channel key is *derived from* (never equal to) the
//!   original channel key, so sequence numbers restarting at zero cannot
//!   reuse an IV under the old key;
//! * the sealed MRENCLAVE is re-checked against the secret store at
//!   redemption, so a ticket cannot outlive the entry it authorizes.

use crate::error::ServerError;
use crate::protocol::{decrypt_msg, encrypt_msg};
use elide_crypto::rng::RandomSource;
use std::time::{SystemTime, UNIX_EPOCH};

/// Ticket wire-format version (first plaintext byte).
pub const TICKET_VERSION: u8 = 1;

/// Serialized plaintext length: version, identity, key, id, two clocks.
pub const TICKET_PLAIN_LEN: usize = 1 + 32 + 32 + 16 + 16 + 8 + 8;

/// KDF label separating resumed channel keys from every other use of the
/// original channel key. Both sides derive
/// `derive_key_128(channel_key, RESUME_KDF_LABEL, ticket_id)`.
pub const RESUME_KDF_LABEL: &str = "elide-resume";

/// Maximum tolerated clock skew, in milliseconds, between the issuer of a
/// timestamped credential (ticket, delegation policy) and the clock that
/// later judges its expiry. A credential dated further than this into the
/// future is treated as forged/expired rather than "not yet valid": a
/// future `issued_ms` would otherwise let the credential outlive its TTL
/// once the verifier's clock catches up.
pub const MAX_CLOCK_SKEW_MS: u64 = 10_000;

/// The decrypted contents of a resumption ticket. Only the server ever
/// sees this; clients hold the sealed blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TicketPlain {
    /// Enclave measurement the original session attested.
    pub mrenclave: [u8; 32],
    /// Signer measurement the original session attested.
    pub mrsigner: [u8; 32],
    /// Channel key of the session being resumed (input to the resume KDF,
    /// never used directly for the resumed channel).
    pub channel_key: [u8; 16],
    /// Unique id: the issuing server's issue number (8 bytes LE), burned
    /// server-side on first redemption, then 64 random bits that keep the
    /// resume KDF salt unpredictable.
    pub ticket_id: [u8; 16],
    /// Issue time, milliseconds since the Unix epoch.
    pub issued_ms: u64,
    /// Validity window in milliseconds (0 = already expired; useful for
    /// deterministic expiry tests).
    pub ttl_ms: u64,
}

/// Milliseconds since the Unix epoch (saturating at 0 for pre-epoch
/// clocks).
pub fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

impl TicketPlain {
    /// Serializes to the fixed [`TICKET_PLAIN_LEN`] layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TICKET_PLAIN_LEN);
        out.push(TICKET_VERSION);
        out.extend_from_slice(&self.mrenclave);
        out.extend_from_slice(&self.mrsigner);
        out.extend_from_slice(&self.channel_key);
        out.extend_from_slice(&self.ticket_id);
        out.extend_from_slice(&self.issued_ms.to_le_bytes());
        out.extend_from_slice(&self.ttl_ms.to_le_bytes());
        out
    }

    /// Parses the fixed layout; `None` on wrong length or version.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != TICKET_PLAIN_LEN || bytes[0] != TICKET_VERSION {
            return None;
        }
        let mut mrenclave = [0u8; 32];
        let mut mrsigner = [0u8; 32];
        let mut channel_key = [0u8; 16];
        let mut ticket_id = [0u8; 16];
        mrenclave.copy_from_slice(&bytes[1..33]);
        mrsigner.copy_from_slice(&bytes[33..65]);
        channel_key.copy_from_slice(&bytes[65..81]);
        ticket_id.copy_from_slice(&bytes[81..97]);
        let issued_ms = u64::from_le_bytes(bytes[97..105].try_into().ok()?);
        let ttl_ms = u64::from_le_bytes(bytes[105..113].try_into().ok()?);
        Some(TicketPlain { mrenclave, mrsigner, channel_key, ticket_id, issued_ms, ttl_ms })
    }

    /// True once the validity window has elapsed at `now` (ms since
    /// epoch). A zero TTL is always expired, and so is a ticket issued
    /// more than [`MAX_CLOCK_SKEW_MS`] in the future: the issuing server
    /// holds the only sealing key, so a far-future `issued_ms` means a
    /// skewed or tampered clock, and accepting it would keep the ticket
    /// redeemable for its full TTL after `now` catches up.
    pub fn expired_at(&self, now: u64) -> bool {
        if self.ttl_ms == 0 || self.issued_ms > now.saturating_add(MAX_CLOCK_SKEW_MS) {
            return true;
        }
        now.saturating_sub(self.issued_ms) >= self.ttl_ms
    }

    /// Seals the ticket under the server's ticket key into an opaque blob.
    pub fn seal(&self, ticket_key: &[u8; 16], rng: &mut dyn RandomSource) -> Vec<u8> {
        encrypt_msg(ticket_key, &self.to_bytes(), rng)
    }

    /// Opens a sealed blob.
    ///
    /// # Errors
    ///
    /// [`ServerError::TicketRejected`] if authentication, length, or
    /// version checks fail — the caller cannot distinguish tampering from
    /// a key rotated away (both mean: do the full handshake).
    pub fn open(ticket_key: &[u8; 16], blob: &[u8]) -> Result<Self, ServerError> {
        let plain = decrypt_msg(ticket_key, blob).map_err(|_| ServerError::TicketRejected)?;
        Self::from_bytes(&plain).ok_or(ServerError::TicketRejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elide_crypto::rng::SeededRandom;

    fn sample() -> TicketPlain {
        TicketPlain {
            mrenclave: [0xAA; 32],
            mrsigner: [0xBB; 32],
            channel_key: [0x11; 16],
            ticket_id: [0x22; 16],
            issued_ms: 1_000,
            ttl_ms: 60_000,
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = SeededRandom::new(7);
        let key = [9u8; 16];
        let blob = sample().seal(&key, &mut rng);
        assert_eq!(TicketPlain::open(&key, &blob).unwrap(), sample());
    }

    #[test]
    fn wrong_key_is_rejected() {
        let mut rng = SeededRandom::new(8);
        let blob = sample().seal(&[1u8; 16], &mut rng);
        assert_eq!(TicketPlain::open(&[2u8; 16], &blob), Err(ServerError::TicketRejected));
    }

    #[test]
    fn tampered_or_truncated_blob_is_rejected() {
        let mut rng = SeededRandom::new(9);
        let key = [3u8; 16];
        let blob = sample().seal(&key, &mut rng);
        let mut bad = blob.clone();
        bad[20] ^= 1;
        assert_eq!(TicketPlain::open(&key, &bad), Err(ServerError::TicketRejected));
        assert_eq!(TicketPlain::open(&key, &blob[..10]), Err(ServerError::TicketRejected));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 99;
        assert!(TicketPlain::from_bytes(&bytes).is_none());
    }

    #[test]
    fn expiry_window() {
        let t = sample();
        assert!(!t.expired_at(1_000));
        assert!(!t.expired_at(60_999));
        assert!(t.expired_at(61_000));
        let zero = TicketPlain { ttl_ms: 0, ..sample() };
        assert!(zero.expired_at(0));
    }

    #[test]
    fn future_dated_ticket_is_expired() {
        // issued 1h ahead of `now`: far beyond the skew allowance, so it
        // must be dead immediately, not "valid once the clock catches up".
        let t = TicketPlain { issued_ms: 3_600_000, ttl_ms: 60_000, ..sample() };
        assert!(t.expired_at(0));
        assert!(t.expired_at(3_600_000 - MAX_CLOCK_SKEW_MS - 1));
        // Once `now` is inside the skew allowance it behaves normally.
        assert!(!t.expired_at(3_600_000 - MAX_CLOCK_SKEW_MS));
        assert!(!t.expired_at(3_600_000));
        assert!(t.expired_at(3_660_000));
    }

    #[test]
    fn small_skew_is_tolerated() {
        let t = TicketPlain { issued_ms: 5_000, ttl_ms: 60_000, ..sample() };
        // Verifier clock lags issuer by up to MAX_CLOCK_SKEW_MS: fine.
        assert!(!t.expired_at(0));
        assert!(!t.expired_at(4_999));
    }
}
