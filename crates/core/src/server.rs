//! The authentication server (the paper's `server.py`, grown up): holds a
//! [`SecretStore`] of sanitized-enclave secrets and releases each only to
//! an enclave that passes remote attestation for it.
//!
//! `AuthServer` is shared-state only: every method takes `&self`, so one
//! `Arc<AuthServer>` serves any number of concurrent connections without
//! an outer mutex. All per-connection state lives in
//! [`crate::session::Session`].

use crate::delegation::{DelegationBundle, DelegationPolicy, PeerGrant, PeerSecret, SignedPolicy};
use crate::error::ServerError;
use crate::faults::FaultPlan;
use crate::meta::SecretMeta;
use crate::session::Session;
use crate::store::{SecretEntry, SecretStore};
use crate::ticket::{now_ms, TicketPlain, MAX_CLOCK_SKEW_MS};
use elide_crypto::rng::{OsRandom, RandomSource};
use elide_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use sgx_sim::quote::{AttestationService, Quote};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// What the server expects an attested enclave to look like.
#[derive(Debug, Clone, Default)]
pub struct ExpectedIdentity {
    /// Required MRENCLAVE (the *sanitized* enclave's measurement).
    pub mrenclave: Option<[u8; 32]>,
    /// Required MRSIGNER (the vendor key fingerprint).
    pub mrsigner: Option<[u8; 32]>,
}

/// The developer-controlled trusted remote party.
pub struct AuthServer {
    store: SecretStore,
    ias: AttestationService,
    /// Master RNG: only used to seed per-session RNGs, so contention on
    /// this mutex is one lock per connection, not per message. Any state
    /// an interrupted fill leaves is still a valid RNG state, so a
    /// poisoned lock is recovered like every other lock here.
    rng: Mutex<Box<dyn RandomSource + Send>>,
    handshakes: AtomicU64,
    resumptions: AtomicU64,
    /// Seals resumption tickets. Fresh random key per server instance:
    /// restarting the server invalidates every outstanding ticket by
    /// construction.
    ticket_key: [u8; 16],
    /// Validity window for newly issued tickets.
    ticket_ttl: Duration,
    /// Issue number of the next ticket.
    tickets_issued: AtomicU64,
    /// Which issued tickets have been redeemed (single-use enforcement).
    used_tickets: Mutex<TicketLedger>,
    /// Fault-injection plan for secret-store reads (chaos testing only;
    /// `None` in production). Behind an `RwLock` so a test harness can
    /// swap schedules between runs on a shared server.
    faults: RwLock<Option<FaultPlan>>,
    /// Delegation authorizations: signing key (lazily generated on the
    /// first grant) and per-delegate peer grant lists.
    delegation: Mutex<DelegationState>,
    /// Validity window for newly signed delegation policies.
    delegation_ttl: Duration,
}

/// Which issued tickets have been redeemed: one bit per issue number,
/// from `floor` up to the highest number redeemed so far.
///
/// Numbers are handed out in order by [`AuthServer::issue_ticket`], so a
/// rotation can drop whole words off the low end. A rotation runs at the
/// first burn at least a window (the server's `ticket_ttl +
/// MAX_CLOCK_SKEW_MS`) after the previous one, moves `floor` up to the
/// `mark` the previous rotation recorded, and records a new `mark`. Every
/// number below the old mark was issued no later than the previous
/// rotation, so at least a full window before any later `now`: its ticket
/// is past its TTL even if the clock has since stepped back by up to
/// [`MAX_CLOCK_SKEW_MS`]. Dropping it therefore never refuses a live
/// ticket. The bits held cover the tickets issued since the rotation
/// before last: two windows while redemptions keep arriving, one bit each.
#[derive(Default)]
struct TicketLedger {
    /// Numbers below `floor` have certainly expired and are refused.
    floor: u64,
    /// Bit `n % 64` of `words[n / 64 - floor / 64]` is set once number
    /// `n` has been redeemed.
    words: Vec<u64>,
    /// The issue counter at the last rotation, and that rotation's time.
    mark: u64,
    rotated_ms: u64,
}

impl TicketLedger {
    /// Records issue number `number` as redeemed at `now`, when `issued`
    /// numbers had been issued by `now` and a window is `window_ms` long.
    /// False if it was never issued, has certainly expired, or was
    /// already redeemed.
    fn burn(&mut self, number: u64, issued: u64, now: u64, window_ms: u64) -> bool {
        if now.saturating_sub(self.rotated_ms) >= window_ms {
            let dropped = (self.mark / 64 - self.floor / 64) as usize;
            self.words.drain(..dropped.min(self.words.len()));
            self.floor = self.mark;
            // A redemption stalled between reading the count and the clock
            // may carry an older count; the mark never moves back.
            self.mark = issued.max(self.mark);
            self.rotated_ms = now;
        }
        if number >= issued || number < self.floor {
            return false;
        }
        let index = (number / 64 - self.floor / 64) as usize;
        if index >= self.words.len() {
            self.words.resize(index + 1, 0);
        }
        let bit = 1u64 << (number % 64);
        let fresh = self.words[index] & bit == 0;
        self.words[index] |= bit;
        fresh
    }
}

/// The issue number a ticket id carries in its first 8 bytes.
fn issue_number(ticket_id: &[u8; 16]) -> u64 {
    u64::from_le_bytes(ticket_id[..8].try_into().expect("8 bytes"))
}

#[derive(Default)]
struct DelegationState {
    key: Option<RsaKeyPair>,
    grants: HashMap<[u8; 32], Vec<PeerGrant>>,
}

impl std::fmt::Debug for AuthServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthServer")
            .field("store", &self.store)
            .field("handshakes", &self.handshakes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AuthServer {
    /// Creates a single-secret server from the sanitizer outputs — the
    /// paper's shape, kept for the one-enclave workflow. `data` is the
    /// plaintext secret payload (empty is fine in local mode, where the
    /// enclave ships the ciphertext and only needs the key from the meta).
    pub fn new(
        meta: SecretMeta,
        data: Vec<u8>,
        expected: ExpectedIdentity,
        ias: AttestationService,
    ) -> Self {
        let mut store = SecretStore::new();
        store.insert(SecretEntry { name: "default".into(), meta, data, expected });
        Self::with_store(store, ias)
    }

    /// Creates a multi-secret server over a prepared store.
    pub fn with_store(store: SecretStore, ias: AttestationService) -> Self {
        let mut ticket_key = [0u8; 16];
        OsRandom.fill(&mut ticket_key);
        AuthServer {
            store,
            ias,
            rng: Mutex::new(Box::new(OsRandom)),
            handshakes: AtomicU64::new(0),
            resumptions: AtomicU64::new(0),
            ticket_key,
            ticket_ttl: Duration::from_secs(3600),
            tickets_issued: AtomicU64::new(0),
            used_tickets: Mutex::new(TicketLedger::default()),
            faults: RwLock::new(None),
            delegation: Mutex::new(DelegationState::default()),
            delegation_ttl: Duration::from_secs(3600),
        }
    }

    /// Replaces the validity window for newly signed delegation policies.
    /// `Duration::ZERO` signs policies that are already expired — useful
    /// for deterministic expiry tests.
    pub fn with_delegation_ttl(mut self, ttl: Duration) -> Self {
        self.delegation_ttl = ttl;
        self
    }

    /// Replaces the ticket-sealing key (tests and benches fix it for
    /// determinism). Production servers keep the random per-instance key
    /// so restarts revoke outstanding tickets.
    pub fn with_ticket_key(mut self, key: [u8; 16]) -> Self {
        self.ticket_key = key;
        self
    }

    /// Replaces the validity window for newly issued tickets.
    /// `Duration::ZERO` issues tickets that are already expired — useful
    /// for deterministic expiry tests.
    pub fn with_ticket_ttl(mut self, ttl: Duration) -> Self {
        self.ticket_ttl = ttl;
        self
    }

    /// Replaces the master RNG (seeded in tests).
    pub fn with_rng(self, rng: Box<dyn RandomSource + Send>) -> Self {
        *self.rng.lock().unwrap_or_else(PoisonError::into_inner) = rng;
        self
    }

    /// Installs a fault-injection plan for secret-store reads.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.set_faults(Some(plan));
        self
    }

    /// Replaces (or clears) the store fault-injection plan on a live
    /// server — lets a chaos harness reuse one server across schedules.
    pub fn set_faults(&self, plan: Option<FaultPlan>) {
        *self.faults.write().unwrap_or_else(PoisonError::into_inner) = plan;
    }

    /// True if the next secret-store read should fail (fault injection).
    pub(crate) fn inject_store_fault(&self) -> bool {
        self.faults
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .is_some_and(FaultPlan::store_io_error_now)
    }

    /// The secret store (read-only after startup).
    pub fn store(&self) -> &SecretStore {
        &self.store
    }

    /// Count of successful handshakes across all sessions (monitoring).
    pub fn handshakes(&self) -> u64 {
        self.handshakes.load(Ordering::SeqCst)
    }

    pub(crate) fn note_handshake(&self) {
        self.handshakes.fetch_add(1, Ordering::SeqCst);
    }

    /// Count of successful ticket resumptions across all sessions.
    pub fn resumptions(&self) -> u64 {
        self.resumptions.load(Ordering::SeqCst)
    }

    pub(crate) fn note_resumption(&self) {
        self.resumptions.fetch_add(1, Ordering::SeqCst);
    }

    /// Starts a fresh per-connection session, seeded with a full-width
    /// 256-bit seed from the master RNG so the session's DH ephemeral key
    /// keeps the master's entropy (a narrower seed would cap the channel
    /// key space at the seed width).
    pub fn new_session(&self) -> Session {
        let mut seed = [0u8; 32];
        self.rng.lock().unwrap_or_else(PoisonError::into_inner).fill(&mut seed);
        Session::new(seed)
    }

    /// Verifies a quote's signature chain and resolves the secret entry
    /// its measurements are entitled to.
    ///
    /// # Errors
    ///
    /// [`ServerError::AttestationFailed`] for bad quotes,
    /// [`ServerError::WrongEnclave`] when no store entry matches.
    pub(crate) fn authenticate(&self, quote: &Quote) -> Result<Arc<SecretEntry>, ServerError> {
        self.ias.verify_quote(quote).map_err(|_| ServerError::AttestationFailed)?;
        self.store.lookup(&quote.mrenclave, &quote.mrsigner).ok_or(ServerError::WrongEnclave)
    }

    /// Issues a sealed resumption ticket for an established session,
    /// returning `(ticket_id, sealed_blob)`. The id is the next issue
    /// number (one atomic add, so issue takes no lock) followed by 64 bits
    /// from the session's RNG, which keep the resume KDF salt
    /// unpredictable without contending on the master RNG.
    pub(crate) fn issue_ticket(
        &self,
        mrenclave: [u8; 32],
        mrsigner: [u8; 32],
        channel_key: [u8; 16],
        rng: &mut dyn RandomSource,
    ) -> ([u8; 16], Vec<u8>) {
        // The time is read before the number is drawn, so every number
        // below a ledger mark was issued no later than the mark's time.
        let issued_ms = now_ms();
        let mut ticket_id = [0u8; 16];
        ticket_id[..8]
            .copy_from_slice(&self.tickets_issued.fetch_add(1, Ordering::SeqCst).to_le_bytes());
        rng.fill(&mut ticket_id[8..]);
        let plain = TicketPlain {
            mrenclave,
            mrsigner,
            channel_key,
            ticket_id,
            issued_ms,
            ttl_ms: self.ticket_ttl.as_millis() as u64,
        };
        (ticket_id, plain.seal(&self.ticket_key, rng))
    }

    /// Opens and validates a presented resumption ticket, burning its id.
    ///
    /// # Errors
    ///
    /// [`ServerError::TicketRejected`] when the blob fails to open (wrong
    /// or rotated ticket key), carries a number this server never issued,
    /// is expired, or was already redeemed. The id is burned *before* any
    /// further checks so a racing double-spend cannot win on both
    /// connections.
    pub(crate) fn redeem_ticket(&self, blob: &[u8]) -> Result<TicketPlain, ServerError> {
        let plain = TicketPlain::open(&self.ticket_key, blob)?;
        // The count is read before the time: see `issue_ticket`.
        let issued = self.tickets_issued.load(Ordering::SeqCst);
        let now = now_ms();
        let window_ms = (self.ticket_ttl.as_millis() as u64).saturating_add(MAX_CLOCK_SKEW_MS);
        let fresh = self.used_tickets.lock().unwrap_or_else(PoisonError::into_inner).burn(
            issue_number(&plain.ticket_id),
            issued,
            now,
            window_ms,
        );
        if !fresh || plain.expired_at(now) {
            return Err(ServerError::TicketRejected);
        }
        Ok(plain)
    }

    /// Authorizes the enclave measured `delegate_mrenclave` to act as a
    /// delegate secret server for `peers` (pairs of MRENCLAVE/MRSIGNER).
    /// The delegation signing key is generated lazily on the first grant;
    /// re-authorizing a delegate replaces its grant list.
    pub fn authorize_delegate(&self, delegate_mrenclave: [u8; 32], peers: &[([u8; 32], [u8; 32])]) {
        let mut state = self.delegation.lock().unwrap_or_else(PoisonError::into_inner);
        if state.key.is_none() {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            state.key = Some(RsaKeyPair::generate(512, rng.as_mut()));
        }
        state.grants.insert(
            delegate_mrenclave,
            peers
                .iter()
                .map(|(mrenclave, mrsigner)| PeerGrant {
                    mrenclave: *mrenclave,
                    mrsigner: *mrsigner,
                })
                .collect(),
        );
    }

    /// Revokes a delegate's grant: subsequent `DELEGATE` requests from it
    /// are refused. Hosts learn of origin-side revocation out of band (or
    /// at the next policy expiry); [`crate::delegation::DelegateServer::revoke`]
    /// is the host-side kill switch.
    pub fn revoke_delegate(&self, delegate_mrenclave: &[u8; 32]) {
        self.delegation
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .grants
            .remove(delegate_mrenclave);
    }

    /// The public half of the delegation signing key, to be distributed
    /// to hosts so they can validate policies offline. `None` until the
    /// first [`Self::authorize_delegate`].
    pub fn delegation_public_key(&self) -> Option<RsaPublicKey> {
        self.delegation
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .key
            .as_ref()
            .map(|k| k.public_key().clone())
    }

    /// Builds and signs a [`DelegationBundle`] for the attested delegate:
    /// the signed policy plus every granted peer's secret pulled from the
    /// store. Called by the session layer on a `DELEGATE` request, so the
    /// bundle only ever travels over the delegate's attested channel.
    ///
    /// # Errors
    ///
    /// [`ServerError::DelegationRejected`] when `delegate_mrenclave` has
    /// no grant or a granted peer has no store entry (a stale grant must
    /// not silently shrink the bundle); [`ServerError::Internal`] if
    /// signing fails.
    pub(crate) fn delegation_bundle_for(
        &self,
        delegate_mrenclave: &[u8; 32],
        rng: &mut dyn RandomSource,
    ) -> Result<DelegationBundle, ServerError> {
        let state = self.delegation.lock().unwrap_or_else(PoisonError::into_inner);
        let peers =
            state.grants.get(delegate_mrenclave).ok_or(ServerError::DelegationRejected)?.clone();
        let key = state.key.as_ref().ok_or(ServerError::DelegationRejected)?;
        let mut secrets = Vec::with_capacity(peers.len());
        for g in &peers {
            let entry = self
                .store
                .lookup(&g.mrenclave, &g.mrsigner)
                .ok_or(ServerError::DelegationRejected)?;
            secrets.push(PeerSecret {
                mrenclave: g.mrenclave,
                mrsigner: g.mrsigner,
                meta: entry.meta.clone(),
                data: entry.data.clone(),
            });
        }
        let mut policy_id = [0u8; 16];
        rng.fill(&mut policy_id);
        let policy = DelegationPolicy {
            delegate_mrenclave: *delegate_mrenclave,
            policy_id,
            issued_ms: now_ms(),
            ttl_ms: self.delegation_ttl.as_millis() as u64,
            peers,
        };
        let signature = key.sign(&policy.to_bytes()).map_err(|_| ServerError::Internal)?;
        Ok(DelegationBundle { signed: SignedPolicy { policy, signature }, secrets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::SecretMeta;
    use elide_crypto::rng::SeededRandom;
    use std::collections::HashSet;

    fn sample_meta() -> SecretMeta {
        SecretMeta {
            flags: 0,
            data_len: 4,
            text_len: 4,
            restore_offset: 0,
            key: [1; 16],
            iv: [2; 12],
            tag: [3; 16],
        }
    }

    /// A server that seals tickets under a fixed key and holds one secret
    /// pinned to MRENCLAVE `[0xA5; 32]`.
    fn ticket_server(ttl: Duration) -> Arc<AuthServer> {
        let expected = ExpectedIdentity { mrenclave: Some([0xA5; 32]), mrsigner: None };
        Arc::new(
            AuthServer::new(sample_meta(), b"data".to_vec(), expected, AttestationService::new())
                .with_ticket_key([0x42; 16])
                .with_ticket_ttl(ttl),
        )
    }

    /// Issues a genuine ticket for the pinned identity.
    fn issue(server: &AuthServer, rng: &mut SeededRandom) -> Vec<u8> {
        server.issue_ticket([0xA5; 32], [0; 32], [7; 16], rng).1
    }

    #[test]
    fn redeemed_ids_are_single_use_and_forgotten_after_two_windows() {
        let window = 100 + MAX_CLOCK_SKEW_MS;
        let mut used = TicketLedger::default();
        // Number 0 is issued at time 0; the first burn rotates.
        assert!(used.burn(0, 1, window, window));
        assert!(!used.burn(0, 1, window + 50, window), "a replay within the window is refused");
        assert!(!used.burn(1, 1, window + 50, window), "a number not yet issued is refused");
        // Number 1 is issued after the first rotation.
        assert!(used.burn(1, 2, 2 * window + 20, window), "rotation keeps fresh numbers fresh");
        assert!(
            !used.burn(0, 2, 2 * window + 50, window),
            "one rotation later the number is refused"
        );
        assert!(!used.burn(1, 2, 3 * window, window));
        assert!(
            !used.burn(1, 2, 3 * window + 50, window),
            "two windows after its issue it is dropped"
        );
        assert_eq!(used.floor, 2);
        assert!(used.words.len() <= 1);
        // A longer server TTL holds every number for its whole window.
        let long = 10 * window;
        let mut used = TicketLedger::default();
        assert!(used.burn(0, 2, 0, long));
        assert!(!used.burn(0, 2, long - 1, long), "held for its whole TTL");
        assert!(used.burn(1, 2, long - 1, long), "an unredeemed number is still live");
    }

    /// Replays a seeded run of issues, redemptions, replays and clock
    /// steps against a model: a set of redeemed numbers plus each
    /// number's issue time.
    #[test]
    fn ledger_never_refuses_a_live_ticket_and_never_admits_a_replay() {
        const TTL: u64 = 60_000;
        const WINDOW: u64 = TTL + MAX_CLOCK_SKEW_MS;
        const MAX_STEP: u64 = 2_000;
        let mut rng = SeededRandom::new(0x1ED6E7);
        let mut ledger = TicketLedger::default();
        let mut issued_at: Vec<u64> = Vec::new();
        let mut redeemed = HashSet::new();
        let mut redeemed_in_order = Vec::new();
        let (mut now, mut rotations, mut floor) = (1_000_000, 0, 0);
        for _ in 0..30_000 {
            now += if rng.next_u64().is_multiple_of(8) { rng.next_u64() % MAX_STEP } else { 0 };
            for _ in 0..rng.next_u64() % 4 {
                issued_at.push(now);
            }
            let issued = issued_at.len() as u64;
            let number = match rng.next_u64() % 8 {
                0 => issued + rng.next_u64() % 4,
                1 | 2 => rng.next_u64() % issued.max(1),
                3 if !redeemed_in_order.is_empty() => {
                    redeemed_in_order[(rng.next_u64() % redeemed_in_order.len() as u64) as usize]
                }
                _ => issued.saturating_sub(1 + rng.next_u64() % 300),
            };
            let accepted = ledger.burn(number, issued, now, WINDOW);
            if number >= issued || redeemed.contains(&number) {
                assert!(!accepted, "number {number} was never issued or is a replay");
            } else if now - issued_at[number as usize] < TTL {
                assert!(accepted, "live number {number} refused at {now}");
            }
            if accepted {
                redeemed.insert(number);
                redeemed_in_order.push(number);
            }
            if ledger.floor != floor {
                (rotations, floor) = (rotations + 1, ledger.floor);
            }
            // A rotation runs at the first burn a window after the last
            // one, so it can come one clock step late.
            let recent = issued_at.len()
                - issued_at.partition_point(|&at| at + 2 * WINDOW + MAX_STEP <= now);
            assert!(ledger.words.len() <= recent / 64 + 2, "{} words at {now}", ledger.words.len());
        }
        assert!(rotations >= 3, "only {rotations} rotations");
    }

    #[test]
    fn resealed_siblings_of_live_tickets_meet_the_store_and_expiry_checks() {
        use crate::elide_asm::request;
        use crate::protocol::{InProcessTransport, Transport};
        let server = ticket_server(Duration::from_secs(600));
        let mut rng = SeededRandom::new(0x5EA1ED);
        let sibling = |blob: &[u8], change: &dyn Fn(&mut TicketPlain), rng: &mut SeededRandom| {
            let mut plain = TicketPlain::open(&[0x42; 16], blob).unwrap();
            change(&mut plain);
            plain.seal(&[0x42; 16], rng)
        };
        let resume = |blob: &[u8]| {
            InProcessTransport::new(Arc::clone(&server)).request(request::RESUME as u8, blob)
        };
        let rejected = Err(crate::error::ElideError::Server(ServerError::TicketRejected));

        // A live number under a foreign identity passes the ledger (and
        // burns the number), then fails the store re-check.
        let genuine = issue(&server, &mut rng);
        let foreign = sibling(&genuine, &|p| p.mrenclave = [0xEE; 32], &mut rng);
        assert_eq!(resume(&foreign), rejected);
        assert_eq!(resume(&genuine), rejected, "the foreign sibling burned the number");

        // A live number dated an hour ahead is burned, then refused as
        // expired.
        let genuine = issue(&server, &mut rng);
        let future = sibling(&genuine, &|p| p.issued_ms += 3_600_000, &mut rng);
        assert_eq!(server.redeem_ticket(&future), Err(ServerError::TicketRejected));
        assert_eq!(server.redeem_ticket(&genuine), Err(ServerError::TicketRejected));

        // An unaltered reseal of a live ticket still resumes.
        let genuine = issue(&server, &mut rng);
        assert!(resume(&sibling(&genuine, &|_| {}, &mut rng)).is_ok());
        assert_eq!(server.resumptions(), 1);
    }

    #[test]
    fn racing_redemptions_of_one_ticket_admit_exactly_one() {
        let server = ticket_server(Duration::from_secs(600));
        let blob = issue(&server, &mut SeededRandom::new(0xD5));
        let barrier = std::sync::Barrier::new(8);
        let wins = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        server.redeem_ticket(&blob).is_ok()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).filter(|&won| won).count()
        });
        assert_eq!(wins, 1);
    }

    #[test]
    fn concurrent_issue_draws_distinct_numbers_that_each_redeem_once() {
        let server = ticket_server(Duration::from_secs(600));
        let blobs: Vec<Vec<u8>> = std::thread::scope(|s| {
            let issuers: Vec<_> = (0..8)
                .map(|seed| {
                    let server = &server;
                    s.spawn(move || {
                        let mut rng = SeededRandom::new(seed);
                        (0..1_000).map(|_| issue(server, &mut rng)).collect::<Vec<_>>()
                    })
                })
                .collect();
            issuers.into_iter().flat_map(|t| t.join().unwrap()).collect()
        });
        let numbers: HashSet<u64> = blobs
            .iter()
            .map(|b| issue_number(&TicketPlain::open(&[0x42; 16], b).unwrap().ticket_id))
            .collect();
        assert_eq!(numbers, (0..8_000).collect());
        assert!(blobs.iter().all(|b| server.redeem_ticket(b).is_ok()));
        assert!(blobs.iter().all(|b| server.redeem_ticket(b).is_err()));
    }

    #[test]
    fn single_secret_constructor_registers_one_entry() {
        let s = AuthServer::new(
            sample_meta(),
            b"data".to_vec(),
            ExpectedIdentity::default(),
            AttestationService::new(),
        );
        assert_eq!(s.store().len(), 1);
        assert_eq!(s.handshakes(), 0);
    }

    #[test]
    fn sessions_have_distinct_seeds() {
        let s = AuthServer::new(
            sample_meta(),
            Vec::new(),
            ExpectedIdentity::default(),
            AttestationService::new(),
        )
        .with_rng(Box::new(SeededRandom::new(7)));
        // Two sessions drawn from the same master RNG must not collide
        // (their DH ephemerals would otherwise be identical).
        let a = format!("{:?}", s.new_session());
        let b = format!("{:?}", s.new_session());
        // Debug output hides the seed; assert distinctness indirectly via
        // the master RNG stream (two successive 32-byte seed fills).
        use elide_crypto::rng::RandomSource;
        let mut master = SeededRandom::new(7);
        let mut x = [0u8; 32];
        let mut y = [0u8; 32];
        master.fill(&mut x);
        master.fill(&mut y);
        assert_ne!(x, y);
        let _ = (a, b);
    }

    #[test]
    fn handshake_counter_is_shared_and_atomic() {
        let s = std::sync::Arc::new(AuthServer::new(
            sample_meta(),
            Vec::new(),
            ExpectedIdentity::default(),
            AttestationService::new(),
        ));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.note_handshake();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.handshakes(), 800);
    }

    #[test]
    fn poisoned_rng_lock_still_serves_handshakes() {
        use crate::api::Platform;
        use crate::client::ProvisionClient;
        use crate::error::ElideError;
        use crate::protocol::InProcessTransport;
        use sgx_sim::epc::{PagePerms, PageType};
        use sgx_sim::quote::QE_MEASUREMENT;
        use sgx_sim::report::{ereport, TargetInfo};
        use sgx_sim::sigstruct::SigStruct;

        let mut rng = SeededRandom::new(0x5EED);
        let mut ias = AttestationService::new();
        let platform = Platform::provision(&mut rng, &mut ias);
        let mut enclave = platform.cpu.ecreate(0x100000, 0x1000).unwrap();
        enclave.eadd(0x100000, &[3; 4096], PagePerms::RX, PageType::Reg).unwrap();
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let sig = SigStruct::sign(&vendor, enclave.current_measurement().unwrap(), 1, 1).unwrap();
        enclave.einit(&sig).unwrap();
        let expected = ExpectedIdentity { mrenclave: Some(enclave.mrenclave()), mrsigner: None };
        let server = Arc::new(
            AuthServer::new(sample_meta(), b"data".to_vec(), expected, ias)
                .with_rng(Box::new(SeededRandom::new(3))),
        );

        // One panic while the master RNG lock is held poisons it.
        let holder = Arc::clone(&server);
        let panicked = std::thread::spawn(move || {
            let _rng = holder.rng.lock().unwrap();
            panic!("panic while holding the rng lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(server.rng.is_poisoned());

        // Every later session and handshake must still be served.
        let _ = server.new_session();
        let mut transport = InProcessTransport::new(Arc::clone(&server));
        let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(4)));
        client
            .full_handshake(&mut transport, &mut |report_data| {
                let report =
                    ereport(&enclave, &TargetInfo { mrenclave: QE_MEASUREMENT }, report_data)
                        .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
                let quote = platform
                    .qe
                    .quote(&report)
                    .map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
                Ok(quote.to_bytes())
            })
            .unwrap();
        assert_eq!(client.fetch_data(&mut transport).unwrap(), b"data");
        assert_eq!(server.handshakes(), 1);
    }
}
