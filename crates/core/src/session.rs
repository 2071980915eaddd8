//! Session layer: the attested-handshake state machine, one instance per
//! connection.
//!
//! A [`Session`] owns everything that used to live in the server's shared
//! `default_session`: the AES-GCM channel key established by the DH
//! exchange, the [`SecretEntry`] the attested quote resolved to, and a
//! message-sequence counter that makes channel IVs unique without a
//! per-message RNG call. Concurrent connections therefore share nothing
//! mutable — the server itself is only read.

use crate::elide_asm::request;
use crate::error::ServerError;
use crate::protocol::seal_msg_with;
use crate::server::AuthServer;
use crate::store::SecretEntry;
use crate::ticket::{TicketPlain, RESUME_KDF_LABEL};
use elide_crypto::dh::DhKeyPair;
use elide_crypto::gcm::AesGcm;
use elide_crypto::kdf::derive_key_128;
use elide_crypto::rng::{RandomSource, SeededRandom};
use elide_crypto::sha2::Sha256;
use sgx_sim::quote::Quote;
use std::sync::Arc;

/// Per-connection protocol state machine.
pub struct Session {
    /// Channel cipher, expanded once per handshake (AES key schedule plus
    /// GHASH table) and reused for every message sealed on this session.
    channel: Option<AesGcm>,
    /// Raw channel key bytes, kept alongside the cipher because ticket
    /// issue seals them into the resumption blob.
    channel_key: Option<[u8; 16]>,
    entry: Option<Arc<SecretEntry>>,
    /// Measurements this session attested (or resumed), for ticket issue.
    quoted: Option<([u8; 32], [u8; 32])>,
    /// Per-session IV salt (bytes 8..12 of every channel IV).
    iv_salt: [u8; 4],
    /// Messages sealed on this session (bytes 0..8 of the channel IV).
    seq: u64,
    rng: SeededRandom,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("established", &self.channel.is_some())
            .field("entry", &self.entry.as_ref().map(|e| e.name.clone()))
            .field("seq", &self.seq)
            .finish()
    }
}

impl Session {
    /// Creates a pre-handshake session. `seed` feeds the session's private
    /// RNG (DH ephemeral key, IV salt); [`AuthServer::new_session`] fills
    /// it from the server's master RNG. The seed is full-width so the DH
    /// ephemeral key retains all 256 bits of the master's entropy.
    pub fn new(seed: [u8; 32]) -> Self {
        Session {
            channel: None,
            channel_key: None,
            entry: None,
            quoted: None,
            iv_salt: [0u8; 4],
            seq: 0,
            rng: SeededRandom::from_seed_bytes(seed),
        }
    }

    /// True once a handshake succeeded on this session.
    pub fn is_established(&self) -> bool {
        self.channel.is_some()
    }

    /// Name of the store entry this session resolved to (post-handshake).
    pub fn entry_name(&self) -> Option<&str> {
        self.entry.as_ref().map(|e| e.name.as_str())
    }

    /// Messages sealed on this session so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Handles one protocol request against `server`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError`] on attestation or protocol failures; the
    /// session stays usable (a failed handshake leaves it unestablished).
    pub fn handle(
        &mut self,
        server: &AuthServer,
        req: u8,
        payload: &[u8],
    ) -> Result<Vec<u8>, ServerError> {
        match req as u64 {
            request::HANDSHAKE => self.handshake(server, payload),
            request::META => {
                let entry = self.established()?;
                if server.inject_store_fault() {
                    // Simulated secret-store read failure: the session
                    // stays established; the client may retry.
                    return Err(ServerError::Internal);
                }
                let body = entry.meta.to_body();
                Ok(self.seal(&body))
            }
            request::DATA => {
                let entry = self.established()?;
                if server.inject_store_fault() {
                    return Err(ServerError::Internal);
                }
                if entry.meta.is_local() {
                    // Local mode: the data never leaves via the wire; the
                    // enclave should have asked for the meta (key) only.
                    return Err(ServerError::BadRequest);
                }
                let data = entry.data.clone();
                Ok(self.seal(&data))
            }
            request::TICKET => {
                let _ = self.established()?;
                let (mrenclave, mrsigner) = self.quoted.ok_or(ServerError::NoSession)?;
                let channel_key = self.channel_key.ok_or(ServerError::NoSession)?;
                let (ticket_id, blob) =
                    server.issue_ticket(mrenclave, mrsigner, channel_key, &mut self.rng);
                let mut body = Vec::with_capacity(16 + blob.len());
                body.extend_from_slice(&ticket_id);
                body.extend_from_slice(&blob);
                Ok(self.seal(&body))
            }
            request::DELEGATE => {
                // Only an attested session may pick up its delegation
                // bundle — the bundle carries other enclaves' secrets, so
                // it travels exclusively over the delegate's own channel.
                let _ = self.established()?;
                let (mrenclave, _) = self.quoted.ok_or(ServerError::NoSession)?;
                if server.inject_store_fault() {
                    return Err(ServerError::Internal);
                }
                let bundle = server.delegation_bundle_for(&mrenclave, &mut self.rng)?;
                Ok(self.seal(&bundle.to_bytes()))
            }
            request::RESUME => {
                if self.is_established() {
                    // Resumption replaces a handshake; it cannot splice a
                    // different identity into a live session.
                    return Err(ServerError::BadRequest);
                }
                let plain = server.redeem_ticket(payload)?;
                let entry = server
                    .store()
                    .lookup(&plain.mrenclave, &plain.mrsigner)
                    .ok_or(ServerError::TicketRejected)?;
                if server.inject_store_fault() {
                    return Err(ServerError::Internal);
                }
                self.finish_resume(server, &plain, entry)
            }
            other => Err(ServerError::UnknownRequest(other as u8)),
        }
    }

    fn established(&self) -> Result<Arc<SecretEntry>, ServerError> {
        match (&self.channel, &self.entry) {
            (Some(_), Some(entry)) => Ok(Arc::clone(entry)),
            _ => Err(ServerError::NoSession),
        }
    }

    /// Attested handshake: payload is `[quote_len u32][quote][dh_pub]`.
    /// Verifies the quote against the attestation service, resolves the
    /// secret entry from the quoted measurements, checks that the quote's
    /// report data binds the DH public value, and derives the channel key.
    fn handshake(&mut self, server: &AuthServer, payload: &[u8]) -> Result<Vec<u8>, ServerError> {
        let (quote, client_pub) = Self::parse_handshake(payload)?;
        let entry = server.authenticate(&quote)?;
        self.finish_handshake(server, &quote, entry, &client_pub)
    }

    /// Splits a handshake payload into its quote and DH public value.
    fn parse_handshake(payload: &[u8]) -> Result<(Quote, Vec<u8>), ServerError> {
        if payload.len() < 4 {
            return Err(ServerError::BadRequest);
        }
        let quote_len = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
        let rest = payload.get(4..).ok_or(ServerError::BadRequest)?;
        if rest.len() < quote_len {
            return Err(ServerError::BadRequest);
        }
        let quote = Quote::from_bytes(&rest[..quote_len]).ok_or(ServerError::BadRequest)?;
        let client_pub = rest[quote_len..].to_vec();
        if client_pub.is_empty() {
            return Err(ServerError::BadRequest);
        }
        Ok((quote, client_pub))
    }

    /// Completes a handshake whose quote has already been authenticated:
    /// checks the report-data binding, runs the DH exchange, and
    /// establishes the channel.
    fn finish_handshake(
        &mut self,
        server: &AuthServer,
        quote: &Quote,
        entry: Arc<SecretEntry>,
        client_pub: &[u8],
    ) -> Result<Vec<u8>, ServerError> {
        // The report data must be SHA-256 of the DH public value: this is
        // what stops an attacker splicing their own key into an honest
        // enclave's attestation.
        let digest = Sha256::digest(client_pub);
        if quote.report_data[..32] != digest {
            return Err(ServerError::BadBinding);
        }

        let kp = DhKeyPair::generate(&mut self.rng);
        let channel_key = kp.derive_session_key(client_pub).ok_or(ServerError::BadBinding)?;

        self.channel = Some(AesGcm::new(&channel_key).expect("16-byte channel key"));
        self.channel_key = Some(channel_key);
        self.entry = Some(entry);
        self.quoted = Some((quote.mrenclave, quote.mrsigner));
        self.rng.fill(&mut self.iv_salt);
        self.seq = 0;
        server.note_handshake();
        Ok(kp.public_bytes())
    }

    /// Establishes a session from a redeemed resumption ticket. The
    /// resumed channel key is *derived* from the ticket's channel key and
    /// id, never the original key itself: the sequence counter restarts at
    /// zero, and reusing the old key would repeat IVs already spent on the
    /// original session. Returns the sealed `[meta body][data]` restore
    /// payload so resumption completes in this single round trip.
    fn finish_resume(
        &mut self,
        server: &AuthServer,
        plain: &TicketPlain,
        entry: Arc<SecretEntry>,
    ) -> Result<Vec<u8>, ServerError> {
        let resumed_key = derive_key_128(&plain.channel_key, RESUME_KDF_LABEL, &plain.ticket_id);
        self.channel = Some(AesGcm::new(&resumed_key).expect("16-byte channel key"));
        self.channel_key = Some(resumed_key);
        self.quoted = Some((plain.mrenclave, plain.mrsigner));
        self.rng.fill(&mut self.iv_salt);
        self.seq = 0;
        let meta_body = entry.meta.to_body();
        let mut body = Vec::with_capacity(meta_body.len() + entry.data.len());
        body.extend_from_slice(&meta_body);
        if !entry.meta.is_local() {
            body.extend_from_slice(&entry.data);
        }
        self.entry = Some(entry);
        server.note_resumption();
        Ok(self.seal(&body))
    }

    /// Seals a channel message under the cached session cipher with a
    /// sequence-based IV: `[seq u64 LE][iv_salt]`, unique per message per
    /// session.
    fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut iv = [0u8; 12];
        iv[..8].copy_from_slice(&self.seq.to_le_bytes());
        iv[8..].copy_from_slice(&self.iv_salt);
        self.seq += 1;
        let gcm = self.channel.as_ref().expect("seal only called post-handshake");
        seal_msg_with(gcm, &iv, plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::SecretMeta;
    use crate::server::{AuthServer, ExpectedIdentity};
    use sgx_sim::quote::AttestationService;

    fn sample_meta(local: bool) -> SecretMeta {
        SecretMeta {
            flags: if local { crate::meta::FLAG_ENCRYPTED_LOCAL } else { 0 },
            data_len: 4,
            text_len: 4,
            restore_offset: 0,
            key: [1; 16],
            iv: [2; 12],
            tag: [3; 16],
        }
    }

    fn server(local: bool) -> AuthServer {
        AuthServer::new(
            sample_meta(local),
            b"data".to_vec(),
            ExpectedIdentity::default(),
            AttestationService::new(),
        )
        .with_rng(Box::new(SeededRandom::new(1)))
    }

    #[test]
    fn meta_and_data_require_session() {
        let s = server(false);
        let mut session = s.new_session();
        assert_eq!(session.handle(&s, 1, &[]), Err(ServerError::NoSession));
        assert_eq!(session.handle(&s, 2, &[]), Err(ServerError::NoSession));
        assert!(!session.is_established());
    }

    #[test]
    fn unknown_request_rejected() {
        let s = server(false);
        let mut session = s.new_session();
        assert_eq!(session.handle(&s, 9, &[]), Err(ServerError::UnknownRequest(9)));
    }

    #[test]
    fn malformed_handshake_rejected() {
        let s = server(false);
        let mut session = s.new_session();
        assert_eq!(session.handle(&s, 3, &[]), Err(ServerError::BadRequest));
        assert_eq!(session.handle(&s, 3, &[0xFF; 3]), Err(ServerError::BadRequest));
        // Declared quote length longer than payload.
        let mut p = vec![0u8; 8];
        p[..4].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(session.handle(&s, 3, &p), Err(ServerError::BadRequest));
        assert!(!session.is_established());
        assert_eq!(s.handshakes(), 0);
    }

    // Successful handshake paths are covered by the end-to-end tests,
    // where a real enclave, quoting enclave and attestation service exist.
}
