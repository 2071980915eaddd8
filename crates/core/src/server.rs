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
    /// Ids of redeemed tickets (single-use enforcement).
    used_tickets: Mutex<RedeemedTickets>,
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

/// Ids of redeemed tickets, kept until their tickets have certainly
/// expired. A ticket can be dated up to [`MAX_CLOCK_SKEW_MS`] ahead of its
/// redemption and stays valid for its own TTL, so `window_ms` is the
/// largest `ttl_ms + MAX_CLOCK_SKEW_MS` redeemed so far. An id lands in
/// `current`; once a window has passed, `current` becomes `previous`, and
/// a window later it is dropped. The set thus holds about two windows of
/// redemptions instead of every redemption since start-up.
#[derive(Default)]
struct RedeemedTickets {
    current: IdSet,
    previous: IdSet,
    rotated_ms: u64,
    window_ms: u64,
}

impl RedeemedTickets {
    /// Records `ticket`'s id as redeemed at `now`; false if it already was.
    fn burn(&mut self, ticket: &TicketPlain, now: u64) -> bool {
        self.window_ms = self.window_ms.max(ticket.ttl_ms.saturating_add(MAX_CLOCK_SKEW_MS));
        if now.saturating_sub(self.rotated_ms) >= self.window_ms {
            self.previous = std::mem::take(&mut self.current);
            self.rotated_ms = now;
        }
        !self.previous.contains(&ticket.ticket_id) && self.current.insert(&ticket.ticket_id)
    }
}

/// Buckets of an [`IdSet`], picked by the top 10 bits of an id's prefix.
const ID_BUCKETS: usize = 1 << 10;

/// A set of ticket ids, each kept as a 42-bit prefix: the top 10 bits
/// pick a bucket and the next 32 are stored in that bucket's sorted
/// `Vec<u32>`. Ids are 128 random bits, so the buckets fill evenly, an
/// insert shifts the tail of one small bucket, and an id costs about 6.5
/// bytes with the buckets' spare room and the allocator's share (a
/// `BTreeSet<u64>` of the first 8 bytes cost ~17 with its part-full
/// nodes; a hash set briefly holds its old and new table on every
/// doubling). A prefix collision (odds n/2^42) can only refuse a
/// fresh ticket, never admit a replay, and a refused ticket costs its
/// client a full handshake.
#[derive(Default)]
struct IdSet {
    /// Empty until the first insert, then `ID_BUCKETS` sorted buckets.
    buckets: Vec<Vec<u32>>,
}

impl IdSet {
    /// The bucket and stored value of `id`.
    fn locate(id: &[u8; 16]) -> (usize, u32) {
        let prefix = u64::from_le_bytes(id[..8].try_into().expect("8 bytes"));
        ((prefix >> 54) as usize, (prefix >> 22) as u32)
    }

    fn contains(&self, id: &[u8; 16]) -> bool {
        let (index, value) = Self::locate(id);
        self.buckets.get(index).is_some_and(|bucket| bucket.binary_search(&value).is_ok())
    }

    /// Adds `id`; false if it was already present.
    fn insert(&mut self, id: &[u8; 16]) -> bool {
        if self.buckets.is_empty() {
            self.buckets.resize_with(ID_BUCKETS, Vec::new);
        }
        let (index, value) = Self::locate(id);
        let bucket = &mut self.buckets[index];
        let Err(at) = bucket.binary_search(&value) else {
            return false;
        };
        if bucket.len() == bucket.capacity() {
            // Grow by an eighth, not by doubling, so at most an eighth of
            // each bucket is spare.
            bucket.reserve_exact(bucket.len() / 8 + 4);
        }
        bucket.insert(at, value);
        true
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
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
            used_tickets: Mutex::new(RedeemedTickets::default()),
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

    /// Replaces the ticket-sealing key (tests: share a key across two
    /// servers, or fix it for determinism). Production servers keep the
    /// random per-instance key so restarts revoke outstanding tickets.
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
    /// returning `(ticket_id, sealed_blob)`. The id is drawn from the
    /// session's RNG so ticket issue never contends on the master RNG.
    pub(crate) fn issue_ticket(
        &self,
        mrenclave: [u8; 32],
        mrsigner: [u8; 32],
        channel_key: [u8; 16],
        rng: &mut dyn RandomSource,
    ) -> ([u8; 16], Vec<u8>) {
        let mut ticket_id = [0u8; 16];
        rng.fill(&mut ticket_id);
        let plain = TicketPlain {
            mrenclave,
            mrsigner,
            channel_key,
            ticket_id,
            issued_ms: now_ms(),
            ttl_ms: self.ticket_ttl.as_millis() as u64,
        };
        (ticket_id, plain.seal(&self.ticket_key, rng))
    }

    /// Opens and validates a presented resumption ticket, burning its id.
    ///
    /// # Errors
    ///
    /// [`ServerError::TicketRejected`] when the blob fails to open (wrong
    /// or rotated ticket key), is expired, or was already redeemed. The id
    /// is burned *before* any further checks so a racing double-spend
    /// cannot win on both connections.
    pub(crate) fn redeem_ticket(&self, blob: &[u8]) -> Result<TicketPlain, ServerError> {
        let plain = TicketPlain::open(&self.ticket_key, blob)?;
        let now = now_ms();
        let fresh =
            self.used_tickets.lock().unwrap_or_else(PoisonError::into_inner).burn(&plain, now);
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

    #[test]
    fn id_set_holds_every_inserted_id_and_no_other() {
        let mut rng = SeededRandom::new(0x1D5E7);
        let mut draw = || {
            let mut id = [0u8; 16];
            rng.fill(&mut id);
            id
        };
        let ids: Vec<[u8; 16]> = (0..20_000).map(|_| draw()).collect();
        let mut set = IdSet::default();
        assert!(!set.contains(&ids[0]), "an empty set holds nothing");
        for id in &ids {
            assert!(set.insert(id));
        }
        assert!(ids.iter().all(|id| set.contains(id) && !set.insert(id)));
        assert_eq!(set.len(), ids.len());
        assert!((0..20_000).all(|_| !set.contains(&draw())));
    }

    #[test]
    fn redeemed_ids_are_single_use_and_forgotten_after_two_windows() {
        let ticket = |id: u8, ttl_ms: u64| TicketPlain {
            mrenclave: [0; 32],
            mrsigner: [0; 32],
            channel_key: [0; 16],
            ticket_id: [id; 16],
            issued_ms: 0,
            ttl_ms,
        };
        let (a, b) = (ticket(1, 100), ticket(2, 100));
        let window = 100 + MAX_CLOCK_SKEW_MS;
        let mut used = RedeemedTickets::default();
        assert!(used.burn(&a, window));
        assert!(!used.burn(&a, window + 50), "a replay within the window is refused");
        assert!(used.burn(&b, 2 * window + 20), "rotation keeps fresh ids fresh");
        assert!(!used.burn(&a, 2 * window + 50), "one rotation later the id is still held");
        assert!(!used.burn(&b, 3 * window));
        assert!(used.burn(&a, 3 * window + 50), "two windows after its burn the id is dropped");
        assert!(used.current.len() + used.previous.len() <= 2);
        // A longer-lived ticket widens the window for every later burn.
        let long = ticket(3, 10 * window);
        assert!(used.burn(&long, 3 * window + 60));
        assert!(!used.burn(&long, 3 * window + 60 + 10 * window), "held for its whole TTL");
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
